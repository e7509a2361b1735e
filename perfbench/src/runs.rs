//! The three workloads and their untraced and traced runs.
//!
//! Every workload is batch and closed loop: a pass starts only after the
//! previous one ends, and passes repeat until the run's seconds are spent.
//! A run reports its fastest pass and its fastest set-up. Checks happen
//! after each pass's clock stops.

use crate::metrics::{self, Kind, Metric};
use crate::pins::{output_fingerprint, panic_message, stats_fingerprint, Checker};
use crate::stats::{geomean, median, peak_rss_mb};
use crate::trace::Tracer;
use crate::{CORE_WINDOW, WORKERS};
use ci_cfg::ReconvergenceMap;
use ci_core::{simulate_profiled, CycleActivity, Pipeline, PipelineConfig, Stats};
use ci_ideal::{IdealConfig, StudyInput};
use ci_isa::Program;
use ci_obs::{JsonValue, NoopProbe};
use ci_runner::{CellOutput, CellSpec, Engine, EngineOptions, RunMetrics};
use ci_workloads::{Workload, WorkloadParams};
use control_independence::experiments::{all_experiment_cells, run_all, Scale};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// `paper-eval` set-up lasts microseconds and a run has only a few passes,
/// so set-up is also timed this many times on its own before each pass:
/// the samples then spread over the run as the passes do.
const SETUP_SAMPLES: usize = 101;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bench {
    /// Cold `experiments::run_all` on a two-worker engine without a disk
    /// cache: regenerating the paper.
    PaperEval,
    /// Fresh serial BASE w256 pipelines on the five workloads.
    CoreBase,
    /// Fresh serial CI and CI-instant w256 pipelines on the five workloads.
    CoreCi,
}

impl Bench {
    /// Every workload, in documentation order.
    pub const ALL: [Bench; 3] = [Bench::PaperEval, Bench::CoreBase, Bench::CoreCi];

    /// Name as passed to `--workload`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Bench::PaperEval => "paper-eval",
            Bench::CoreBase => "core-base",
            Bench::CoreCi => "core-ci",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    /// The machines a `core-*` pass simulates on every workload.
    fn machines(self) -> &'static [fn(usize) -> PipelineConfig] {
        match self {
            Bench::PaperEval => &[],
            Bench::CoreBase => &[PipelineConfig::base],
            Bench::CoreCi => &[PipelineConfig::ci, PipelineConfig::ci_instant],
        }
    }
}

/// What to run.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Workload.
    pub bench: Bench,
    /// Workload data seed.
    pub seed: u64,
    /// Host seconds to measure for.
    pub seconds: f64,
    /// Dynamic instructions per cell. The command line always runs
    /// [`crate::DEFAULT_INSTRUCTIONS`], the budget the pins are made at; at
    /// any other budget results are only checked for repeatability.
    pub instructions: u64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where a traced run writes its span and metric files.
    pub out_dir: PathBuf,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    /// Cells checked.
    pub attempted: u64,
    /// Cells that panicked or produced the wrong result.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Whether results were compared with pinned fingerprints (otherwise
    /// with the run's own first result of each cell).
    pub pinned: bool,
    /// Timed passes.
    pub passes: usize,
    /// Every metric of the run's kind, in catalogue order.
    pub metrics: Vec<(&'static Metric, f64)>,
    /// Files written.
    pub files: Vec<PathBuf>,
}

/// Run one workload.
///
/// # Panics
/// Panics if a traced run cannot write its output files.
#[must_use]
pub fn run(opts: &RunOpts) -> Report {
    let mut checker = Checker::new(opts.seed, opts.instructions);
    let (values, passes, files) = if opts.trace {
        let (values, passes, tracer) = match opts.bench {
            Bench::PaperEval => paper_layers(opts, &mut checker),
            _ => core_layers(opts, &mut checker),
        };
        let files = write_trace(opts, &values, &tracer);
        (values, passes, files)
    } else {
        let (values, passes) = end_to_end(opts, &mut checker);
        (values, passes, Vec::new())
    };
    let kind = if opts.trace {
        Kind::Layer
    } else {
        Kind::EndToEnd
    };
    let metrics = metrics::of_kind(kind)
        .map(|m| {
            let v = values.get(m.name).copied();
            assert!(
                v.is_some() || !m.applies_to(opts.bench),
                "{} measured no {}",
                opts.bench.name(),
                m.name
            );
            (m, v.unwrap_or(0.0))
        })
        .collect();
    Report {
        attempted: checker.attempted,
        failed: checker.failed,
        pinned: checker.is_pinned(),
        failures: checker.failures,
        passes,
        metrics,
        files,
    }
}

impl Report {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`,
    /// each metric as `{"value", "unit"}`.
    #[must_use]
    pub fn result_line(&self) -> JsonValue {
        let metrics = self
            .metrics
            .iter()
            .map(|(m, v)| {
                let entry =
                    JsonValue::obj([("value", JsonValue::from(*v)), ("unit", m.unit.into())]);
                (m.name, entry)
            })
            .collect::<Vec<_>>();
        JsonValue::obj([
            ("correct", JsonValue::from(self.failed == 0)),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", JsonValue::obj(metrics)),
        ])
    }
}

type Values = BTreeMap<&'static str, f64>;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Repeat `pass` until `seconds` have passed, at least once.
fn for_seconds<T>(seconds: f64, mut pass: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = vec![pass()];
    while secs(start.elapsed()) < seconds {
        out.push(pass());
    }
    out
}

fn build_program(w: Workload, instructions: u64, seed: u64) -> Program {
    w.build(&WorkloadParams {
        scale: w.scale_for(instructions),
        seed,
    })
}

fn detailed(w: Workload, config: PipelineConfig, instructions: u64, seed: u64) -> CellSpec {
    CellSpec::Detailed {
        workload: w,
        config,
        instructions,
        seed,
    }
}

/// The distinct cells of `cells`, in first-request order.
fn distinct(cells: Vec<CellSpec>) -> Vec<CellSpec> {
    let mut seen = HashSet::new();
    cells.into_iter().filter(|c| seen.insert(c.key())).collect()
}

/// Every distinct cell one pass of `bench` computes at `scale`.
#[must_use]
pub fn cells(bench: Bench, scale: &Scale) -> Vec<CellSpec> {
    match bench {
        Bench::PaperEval => distinct(all_experiment_cells(scale)),
        core => Workload::ALL
            .into_iter()
            .flat_map(|w| {
                core.machines()
                    .iter()
                    .map(move |m| detailed(w, m(CORE_WINDOW), scale.instructions, scale.seed))
            })
            .collect(),
    }
}

/// One timed pass.
struct Pass {
    wall: f64,
    setup: f64,
    /// Simulated instructions completed: detailed retirements plus
    /// ideal-model trace lengths.
    insts: u64,
    /// IPC of each detailed cell.
    ipcs: Vec<f64>,
}

// ---------------------------------------------------------------------------
// Untraced runs

fn end_to_end(opts: &RunOpts, checker: &mut Checker) -> (Values, usize) {
    let scale = Scale {
        instructions: opts.instructions,
        seed: opts.seed,
    };
    let mut setups = Vec::new();
    let passes = match opts.bench {
        Bench::PaperEval => for_seconds(opts.seconds, || {
            for _ in 0..SETUP_SAMPLES {
                let t = Instant::now();
                let built = paper_setup(&scale, engine_opts(None));
                setups.push(secs(t.elapsed()));
                drop(black_box(built));
            }
            paper_pass(&scale, engine_opts(None), checker)
        }),
        bench => for_seconds(opts.seconds, || {
            core_pass(bench, opts.seed, opts.instructions, checker)
        }),
    };
    setups.extend(passes.iter().map(|p| p.setup));
    // The fastest pass and the fastest set-up, not the median ones: on a
    // shared host the speed can drop by a third for seconds at a time while
    // other tenants run, so a run's median measures the neighbours and its
    // minimum the code (README.md, "Measured spread").
    let fastest = passes
        .iter()
        .min_by(|a, b| a.wall.total_cmp(&b.wall))
        .expect("for_seconds runs at least one pass");
    let fastest_setup = setups
        .iter()
        .copied()
        .min_by(f64::total_cmp)
        .expect("for_seconds runs at least one pass");
    let values = BTreeMap::from([
        ("wall_s", fastest.wall),
        ("sim_mips", fastest.insts as f64 / fastest.wall / 1e6),
        ("setup_s", fastest_setup),
        (
            "peak_rss_mb",
            peak_rss_mb().expect("peak RSS is read from /proc/self/status"),
        ),
        ("ipc_geomean", geomean(&passes[0].ipcs)),
    ]);
    (values, passes.len())
}

/// Options of the `paper-eval` engine: [`WORKERS`] threads, no faults, and
/// a disk cache only when `cache_dir` is given.
fn engine_opts(cache_dir: Option<PathBuf>) -> EngineOptions {
    EngineOptions {
        workers: WORKERS,
        cache_dir,
        faults: None,
    }
}

/// `paper-eval` set-up: the engine and the cell list.
fn paper_setup(scale: &Scale, opts: EngineOptions) -> (Engine, Vec<CellSpec>) {
    (Engine::new(opts), all_experiment_cells(scale))
}

/// One cold `run_all`, checked.
fn paper_pass(scale: &Scale, opts: EngineOptions, checker: &mut Checker) -> Pass {
    let start = Instant::now();
    let (eng, cells) = paper_setup(scale, opts);
    let setup = secs(start.elapsed());
    let ran = catch_unwind(AssertUnwindSafe(|| black_box(run_all(&eng, scale))));
    let wall = secs(start.elapsed());
    if let Err(e) = ran {
        checker.record_failure("run_all", &panic_message(&*e));
    }
    let (insts, ipcs) = check_engine(&eng, &distinct(cells), checker);
    Pass {
        wall,
        setup,
        insts,
        ipcs,
    }
}

/// Check every cell's output as the engine serves it.
fn check_engine(eng: &Engine, cells: &[CellSpec], checker: &mut Checker) -> (u64, Vec<f64>) {
    let mut insts = 0;
    let mut ipcs = Vec::new();
    for spec in cells {
        match catch_unwind(AssertUnwindSafe(|| eng.cell(spec))) {
            Ok(out) => {
                match &out {
                    CellOutput::Detailed { stats, .. } => {
                        insts += stats.retired;
                        ipcs.push(stats.ipc());
                    }
                    CellOutput::Ideal(r) => insts += r.retired,
                    CellOutput::Study { .. } => {}
                }
                checker.record(spec, Ok(output_fingerprint(&out)));
            }
            Err(e) => checker.record(spec, Err(panic_message(&*e))),
        }
    }
    (insts, ipcs)
}

/// One `core-*` pass: build each workload, then a fresh pipeline per machine.
fn core_pass(bench: Bench, seed: u64, instructions: u64, checker: &mut Checker) -> Pass {
    let start = Instant::now();
    let mut setup = Duration::ZERO;
    let mut results = Vec::new();
    for w in Workload::ALL {
        let t = Instant::now();
        let program = build_program(w, instructions, seed);
        setup += t.elapsed();
        for machine in bench.machines() {
            let config = machine(CORE_WINDOW);
            let ran = catch_unwind(AssertUnwindSafe(|| {
                let t = Instant::now();
                let mut pipeline =
                    Pipeline::new(&program, config, instructions).expect("workloads are valid");
                let setup = t.elapsed();
                (setup, pipeline.run())
            }));
            let result = match ran {
                Ok((s, stats)) => {
                    setup += s;
                    Ok(stats)
                }
                Err(e) => Err(panic_message(&*e)),
            };
            results.push((detailed(w, config, instructions, seed), result));
        }
    }
    let wall = secs(start.elapsed());
    let mut pass = Pass {
        wall,
        setup: secs(setup),
        insts: 0,
        ipcs: Vec::new(),
    };
    for (spec, result) in results {
        if let Ok(stats) = &result {
            pass.insts += stats.retired;
            pass.ipcs.push(stats.ipc());
        }
        checker.record(&spec, result.map(|s| stats_fingerprint(&s)));
    }
    pass
}

// ---------------------------------------------------------------------------
// Traced runs

/// Exact work counts of the detailed pipeline, summed over cells.
#[derive(Clone, Debug, Default)]
struct Counts {
    cycles: u64,
    retired: u64,
    fetched: u64,
    issued: u64,
    recoveries: u64,
    removed: u64,
    inserted: u64,
    restart_cycles: u64,
    idle_cycles: u64,
    occupancy_sum: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl Counts {
    fn add(&mut self, s: &Stats, a: &CycleActivity) {
        self.cycles += s.cycles;
        self.retired += s.retired;
        self.fetched += a.fetched;
        self.issued += a.issued;
        self.recoveries += s.recoveries;
        self.removed += s.removed;
        self.inserted += s.inserted;
        self.restart_cycles += s.restart_cycles;
        self.idle_cycles += a.idle_cycles;
        self.occupancy_sum += a.occupancy_sum;
        self.cache_hits += s.cache_hits;
        self.cache_misses += s.cache_misses;
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

/// Simulate one detailed cell under the tracer, with the pipeline's stage
/// spans nested in a `core.pipeline` span, and check it.
fn traced_pipeline(
    tracer: &mut Tracer,
    program: &Program,
    spec: &CellSpec,
    checker: &mut Checker,
    counts: &mut Counts,
) {
    let CellSpec::Detailed {
        config,
        instructions,
        ..
    } = *spec
    else {
        unreachable!("traced_pipeline takes detailed cells")
    };
    tracer.open("core.pipeline");
    let profiler = &mut tracer.profiler;
    let ran = catch_unwind(AssertUnwindSafe(|| {
        let run = simulate_profiled(program, config, instructions, NoopProbe, profiler)
            .expect("workloads are valid");
        (run.stats, run.activity)
    }));
    tracer.close();
    match ran {
        Ok((stats, activity)) => {
            counts.add(&stats, &activity);
            checker.record(spec, Ok(stats_fingerprint(&stats)));
        }
        Err(e) => checker.record(spec, Err(panic_message(&*e))),
    }
}

/// Time the setup layers the pipeline runs internally, as separate calls.
fn setup_layers(tracer: &mut Tracer, program: &Program, instructions: u64) -> u64 {
    let trace = tracer.span("emu.trace", |_| {
        ci_emu::run_trace(program, instructions).expect("workloads are valid")
    });
    tracer.span("cfg.recon", |_| {
        black_box(ReconvergenceMap::compute(program))
    });
    trace.len() as u64
}

/// Per-layer metrics of the detailed pipeline from the tracer's totals over
/// `passes` passes and one pass's counts.
fn core_values(tracer: &Tracer, counts: &Counts, trace_insts: u64, passes: f64) -> Values {
    let per_pass = |name: &str| tracer.seconds(name) / passes;
    let run_s = per_pass("cycle_loop");
    BTreeMap::from([
        ("workloads.build_s", per_pass("workloads.build")),
        ("emu.trace_s", per_pass("emu.trace")),
        (
            "emu.trace_minst_per_s",
            trace_insts as f64 / per_pass("emu.trace") / 1e6,
        ),
        ("cfg.recon_s", per_pass("cfg.recon")),
        ("core.setup_s", per_pass("setup")),
        (
            "core.span.setup_s",
            per_pass("setup") - per_pass("emu_trace"),
        ),
        ("core.span.emu_trace_s", per_pass("emu_trace")),
        ("core.run_s", run_s),
        (
            "core.ns_per_cycle",
            run_s * 1e9 / counts.cycles.max(1) as f64,
        ),
        (
            "core.ns_per_inst",
            run_s * 1e9 / counts.retired.max(1) as f64,
        ),
        ("core.span.fetch_s", per_pass("fetch")),
        ("core.span.issue_s", per_pass("issue")),
        ("core.span.complete_s", per_pass("complete")),
        ("core.span.recovery_s", per_pass("recovery")),
        ("core.span.retire_s", per_pass("retire")),
        ("core.cycles", counts.cycles as f64),
        ("core.retired", counts.retired as f64),
        ("core.fetched", counts.fetched as f64),
        (
            "core.useful_fetch_ratio",
            ratio(counts.retired, counts.fetched),
        ),
        (
            "core.issue_per_retire",
            ratio(counts.issued, counts.retired),
        ),
        ("core.recoveries", counts.recoveries as f64),
        ("core.removed", counts.removed as f64),
        ("core.inserted", counts.inserted as f64),
        ("core.restart_cycles", counts.restart_cycles as f64),
        ("core.idle_cycles", counts.idle_cycles as f64),
        (
            "core.avg_occupancy",
            ratio(counts.occupancy_sum, counts.cycles),
        ),
        (
            "core.cache_miss_rate",
            ratio(counts.cache_misses, counts.cache_hits + counts.cache_misses),
        ),
    ])
}

/// Traced `core-*` run: pairs of an untraced and a traced pass, in turn
/// untraced-first and traced-first, repeat until the run's seconds are
/// spent, so both kinds see the same host load. After each
/// traced pass, outside its clock, the emulator and the CFG analysis are
/// called on their own.
fn core_layers(opts: &RunOpts, checker: &mut Checker) -> (Values, usize, Tracer) {
    let (bench, seed, n) = (opts.bench, opts.seed, opts.instructions);
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut trace_insts = 0;
    let mut pairs = 0;
    let ratios = for_seconds(opts.seconds, || {
        pairs += 1;
        let untraced_first = pairs % 2 == 1;
        let mut untraced = 0.0;
        if untraced_first {
            untraced = core_pass(bench, seed, n, checker).wall;
        }
        counts = Counts::default();
        tracer.open("pass");
        let mut programs = Vec::new();
        for w in Workload::ALL {
            let program = tracer.span("workloads.build", |_| build_program(w, n, seed));
            for machine in bench.machines() {
                let spec = detailed(w, machine(CORE_WINDOW), n, seed);
                traced_pipeline(&mut tracer, &program, &spec, checker, &mut counts);
            }
            programs.push(program);
        }
        let traced = secs(tracer.close());
        trace_insts = programs
            .iter()
            .map(|p| setup_layers(&mut tracer, p, n))
            .sum();
        if !untraced_first {
            untraced = core_pass(bench, seed, n, checker).wall;
        }
        traced / untraced
    });
    let mut values = core_values(&tracer, &counts, trace_insts, ratios.len() as f64);
    values.insert("trace.overhead_frac", median(&ratios) - 1.0);
    (values, 2 * ratios.len(), tracer)
}

/// Traced `paper-eval` run: pairs of an untraced pass and a traced pass on
/// an engine with a disk cache, in turn untraced-first and traced-first,
/// repeat until the run's seconds are spent. The last
/// traced engine then saves its cells, a new engine reloads them, and every
/// distinct cell is computed again, serially, layer by layer.
fn paper_layers(opts: &RunOpts, checker: &mut Checker) -> (Values, usize, Tracer) {
    let scale = Scale {
        instructions: opts.instructions,
        seed: opts.seed,
    };
    let cells = cells(Bench::PaperEval, &scale);
    let cache_dir = opts.out_dir.join(format!("cache-{}", std::process::id()));
    let disk = engine_opts(Some(cache_dir.clone()));
    let mut tracer = Tracer::new();
    let mut last = None;
    let mut pairs = 0;
    let ratios = for_seconds(opts.seconds, || {
        pairs += 1;
        let untraced_first = pairs % 2 == 1;
        let mut untraced = 0.0;
        if untraced_first {
            untraced = paper_pass(&scale, engine_opts(None), checker).wall;
        }
        drop(last.take());
        tracer.open("pass");
        let (eng, _) = tracer.span("runner.setup", |_| paper_setup(&scale, disk.clone()));
        let ran = tracer.span("runner.run_all", |_| {
            catch_unwind(AssertUnwindSafe(|| black_box(run_all(&eng, &scale))))
        });
        let traced = secs(tracer.close());
        if let Err(e) = ran {
            checker.record_failure("run_all", &panic_message(&*e));
        }
        let metrics = eng.run_metrics("perfbench");
        check_engine(&eng, &cells, checker);
        last = Some((eng, metrics));
        if !untraced_first {
            untraced = paper_pass(&scale, engine_opts(None), checker).wall;
        }
        traced / untraced
    });
    let (eng, metrics) = last.expect("for_seconds runs at least one pass");

    let _ = std::fs::remove_dir_all(&cache_dir);
    if let Err(e) = tracer.span("runner.save", |_| eng.save_cache()) {
        checker.record_failure("save_cache", &e.to_string());
    }
    drop(eng);
    let warm = tracer.span("runner.load", |_| Engine::new(disk));
    check_engine(&warm, &cells, checker);
    if warm.cells_computed() > 0 {
        checker.record_failure(
            "warm reload",
            &format!("recomputed {} cells", warm.cells_computed()),
        );
    }
    drop(warm);
    let _ = std::fs::remove_dir_all(&cache_dir);

    let mut values = replay(&mut tracer, &cells, &scale, checker);
    values.extend(runner_values(&metrics));
    values.insert("runner.save_s", tracer.seconds("runner.save"));
    values.insert("runner.load_s", tracer.seconds("runner.load"));
    values.insert("trace.overhead_frac", median(&ratios) - 1.0);
    (values, 2 * ratios.len(), tracer)
}

/// Every distinct cell again, serially, calling each layer directly.
fn replay(tracer: &mut Tracer, cells: &[CellSpec], scale: &Scale, checker: &mut Checker) -> Values {
    let n = scale.instructions;
    let mut counts = Counts::default();
    let mut trace_insts = 0;
    let mut ideal_cells = 0u64;
    tracer.open("replay");
    for w in Workload::ALL {
        let program = tracer.span("workloads.build", |_| build_program(w, n, scale.seed));
        trace_insts += setup_layers(tracer, &program, n);
        let input = tracer.span("ideal.input", |_| {
            StudyInput::build(&program, n).expect("workloads are valid")
        });
        for spec in cells.iter().filter(|c| c.workload_name() == w.name()) {
            match *spec {
                CellSpec::Detailed { .. } => {
                    traced_pipeline(tracer, &program, spec, checker, &mut counts);
                }
                CellSpec::Ideal { model, window, .. } => {
                    ideal_cells += 1;
                    let config = IdealConfig {
                        model,
                        window,
                        ..IdealConfig::default()
                    };
                    tracer.open("ideal.run");
                    let ran =
                        catch_unwind(AssertUnwindSafe(|| ci_ideal::simulate(&input, &config)));
                    tracer.close();
                    let result = ran
                        .map(|r| output_fingerprint(&CellOutput::Ideal(r)))
                        .map_err(|e| panic_message(&*e));
                    checker.record(spec, result);
                }
                CellSpec::Study { .. } => {
                    let out = CellOutput::Study {
                        len: input.len() as u64,
                        predictions: input.predictions(),
                        mispredictions: input.mispredictions(),
                    };
                    checker.record(spec, Ok(output_fingerprint(&out)));
                }
            }
        }
    }
    tracer.close();
    let mut values = core_values(tracer, &counts, trace_insts, 1.0);
    values.insert("ideal.input_s", tracer.seconds("ideal.input"));
    values.insert("ideal.run_s", tracer.seconds("ideal.run"));
    values.insert("ideal.cells", ideal_cells as f64);
    values
}

/// The engine's own report of the traced pass.
fn runner_values(m: &RunMetrics) -> Values {
    let mut cell_ms: Vec<f64> = m
        .cells
        .iter()
        .filter(|c| c.disposition == "computed")
        .map(|c| c.wall_us as f64 / 1e3)
        .collect();
    cell_ms.sort_by(f64::total_cmp);
    let p95 = cell_ms
        .get((cell_ms.len() * 95).div_ceil(100).saturating_sub(1))
        .copied()
        .unwrap_or(0.0);
    let compute_s = m.compute_wall_us as f64 / 1e6;
    let pool = &m.pool.stats;
    BTreeMap::from([
        ("runner.cells_computed", m.cells_computed as f64),
        ("runner.memo_hit_rate", m.hit_rate()),
        ("runner.compute_s", compute_s),
        ("runner.pool_utilization", pool.utilization()),
        ("runner.steals", pool.steals as f64),
        ("runner.max_queue_depth", pool.max_queue_depth as f64),
        ("runner.cell_p50_ms", median(&cell_ms)),
        ("runner.cell_p95_ms", p95),
        ("runner.cell_samples", cell_ms.len() as f64),
        (
            "runner.straggler_s",
            secs(pool.wall) - compute_s / m.workers.max(1) as f64,
        ),
    ])
}

/// Write the traced run's per-layer metrics with its raw spans, and the
/// Chrome trace of the aggregated span tree.
fn write_trace(opts: &RunOpts, values: &Values, tracer: &Tracer) -> Vec<PathBuf> {
    let stem = format!("{}-seed{:x}", opts.bench.name(), opts.seed);
    let layer_metrics = metrics::of_kind(Kind::Layer)
        .map(|m| {
            let applies = m.applies_to(opts.bench);
            let value = values.get(m.name).copied().filter(|_| applies);
            (
                m.name,
                JsonValue::obj([
                    ("value", value.map_or(JsonValue::Null, JsonValue::from)),
                    ("unit", JsonValue::from(m.unit)),
                    ("applies", JsonValue::from(applies)),
                ]),
            )
        })
        .collect::<Vec<_>>();
    let layers = JsonValue::obj([
        ("schema", JsonValue::from("perfbench_layers/v1")),
        ("workload", JsonValue::from(opts.bench.name())),
        ("seed", JsonValue::from(opts.seed)),
        ("instructions", JsonValue::from(opts.instructions)),
        ("metrics", JsonValue::obj(layer_metrics)),
        ("spans", tracer.spans_json()),
    ]);
    std::fs::create_dir_all(&opts.out_dir)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", opts.out_dir.display()));
    [
        (format!("{stem}-layers.json"), layers),
        (format!("{stem}-trace.json"), tracer.chrome_trace()),
    ]
    .into_iter()
    .map(|(name, doc)| {
        let path = opts.out_dir.join(name);
        std::fs::write(&path, doc.render() + "\n")
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        path
    })
    .collect()
}
