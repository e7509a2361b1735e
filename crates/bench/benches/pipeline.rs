//! Detailed-pipeline simulation throughput (retired instructions per host
//! second; Criterion's element throughput = MIPS × 10⁶) for each machine
//! configuration of the paper — BASE, CI and CI-I — on one representative
//! workload: the cost of the control-independence machinery itself.
//!
//! The repository benchmark's `core-base`/`core-ci` workloads time the full
//! sweep (all five workloads); this bench tracks the same quantity inside
//! the Criterion suite so `cargo bench` catches simulator slowdowns
//! alongside the component benches.

use ci_core::{simulate, PipelineConfig};
use ci_workloads::{Workload, WorkloadParams};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

const INSTRUCTIONS: u64 = 10_000;

fn bench_pipeline(c: &mut Criterion) {
    let w = Workload::GoLike;
    let p = w.build(&WorkloadParams {
        scale: w.scale_for(INSTRUCTIONS),
        seed: 1,
    });
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    g.throughput(Throughput::Elements(INSTRUCTIONS));
    for (name, cfg) in [
        ("base_w256", PipelineConfig::base(256)),
        ("ci_w256", PipelineConfig::ci(256)),
        ("ci_i_w256", PipelineConfig::ci_instant(256)),
        ("ci_w512", PipelineConfig::ci(512)),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| black_box(simulate(&p, cfg, INSTRUCTIONS).unwrap().cycles));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
