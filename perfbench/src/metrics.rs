//! The metric catalogue: every metric the benchmark reports, with its unit,
//! direction, and the workloads it applies to. `BENCHMARK.json` lists the
//! same names; a self-test keeps the two in step.

use crate::Bench;

/// Which run reports a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Untraced run (`--trace 0`): what a user of the simulator sees.
    EndToEnd,
    /// Traced run (`--trace 1`): one layer's share of the work.
    Layer,
}

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name as printed, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Which run reports it.
    pub kind: Kind,
    /// Only `paper-eval` exercises this layer; other workloads report 0 and
    /// mark it as not applying.
    pub paper_eval_only: bool,
    /// The value is a simulated quantity or an exact work count: the same
    /// seed must reproduce it bit for bit.
    pub exact: bool,
}

impl Metric {
    /// Whether `bench` exercises the layer this metric measures.
    #[must_use]
    pub fn applies_to(&self, bench: Bench) -> bool {
        !self.paper_eval_only || bench == Bench::PaperEval
    }
}

const fn m(name: &'static str, unit: &'static str, higher_is_better: bool, kind: Kind) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better,
        kind,
        paper_eval_only: false,
        exact: false,
    }
}

const fn e2e(name: &'static str, unit: &'static str, higher_is_better: bool) -> Metric {
    m(name, unit, higher_is_better, Kind::EndToEnd)
}

const fn layer(name: &'static str, unit: &'static str, higher_is_better: bool) -> Metric {
    m(name, unit, higher_is_better, Kind::Layer)
}

const fn exact(mut metric: Metric) -> Metric {
    metric.exact = true;
    metric
}

const fn paper(mut metric: Metric) -> Metric {
    metric.paper_eval_only = true;
    metric
}

/// Every metric, end-to-end first, in output order.
pub const CATALOGUE: [Metric; 48] = [
    e2e("wall_s", "s", false),
    e2e("sim_mips", "Minst/s", true),
    e2e("setup_s", "s", false),
    e2e("peak_rss_mb", "MB", false),
    exact(e2e("ipc_geomean", "inst/cycle", true)),
    // Setup layers: workload generation, functional emulation, CFG analysis.
    layer("workloads.build_s", "s", false),
    layer("emu.trace_s", "s", false),
    layer("emu.trace_minst_per_s", "Minst/s", true),
    layer("cfg.recon_s", "s", false),
    layer("core.setup_s", "s", false),
    layer("core.span.setup_s", "s", false),
    layer("core.span.emu_trace_s", "s", false),
    // The detailed pipeline's cycle loop and its stages (self times).
    layer("core.run_s", "s", false),
    layer("core.ns_per_cycle", "ns", false),
    layer("core.ns_per_inst", "ns", false),
    layer("core.span.fetch_s", "s", false),
    layer("core.span.issue_s", "s", false),
    layer("core.span.complete_s", "s", false),
    layer("core.span.recovery_s", "s", false),
    layer("core.span.retire_s", "s", false),
    // Exact work counts of the detailed pipeline.
    exact(layer("core.cycles", "count", false)),
    exact(layer("core.retired", "count", true)),
    exact(layer("core.fetched", "count", false)),
    exact(layer("core.useful_fetch_ratio", "ratio", true)),
    exact(layer("core.issue_per_retire", "ratio", false)),
    exact(layer("core.recoveries", "count", false)),
    exact(layer("core.removed", "count", false)),
    exact(layer("core.inserted", "count", false)),
    exact(layer("core.restart_cycles", "count", false)),
    exact(layer("core.idle_cycles", "count", false)),
    exact(layer("core.avg_occupancy", "inst", true)),
    exact(layer("core.cache_miss_rate", "ratio", false)),
    // Idealized models.
    paper(layer("ideal.input_s", "s", false)),
    paper(layer("ideal.run_s", "s", false)),
    paper(exact(layer("ideal.cells", "count", true))),
    // The experiment engine: memo, pool, disk cache.
    paper(exact(layer("runner.cells_computed", "count", false))),
    paper(exact(layer("runner.memo_hit_rate", "ratio", true))),
    paper(layer("runner.compute_s", "s", false)),
    paper(layer("runner.pool_utilization", "ratio", true)),
    paper(layer("runner.steals", "count", false)),
    paper(layer("runner.max_queue_depth", "count", false)),
    paper(layer("runner.cell_p50_ms", "ms", false)),
    paper(layer("runner.cell_p95_ms", "ms", false)),
    paper(exact(layer("runner.cell_samples", "count", true))),
    paper(layer("runner.straggler_s", "s", false)),
    paper(layer("runner.save_s", "s", false)),
    paper(layer("runner.load_s", "s", false)),
    layer("trace.overhead_frac", "ratio", false),
];

/// The metrics a run of `kind` reports, in output order.
pub fn of_kind(kind: Kind) -> impl Iterator<Item = &'static Metric> {
    CATALOGUE.iter().filter(move |m| m.kind == kind)
}

/// Whether `name` is a valid metric name: non-empty `[A-Za-z0-9_.-]+`,
/// starting with a letter or digit, at most 64 characters.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
