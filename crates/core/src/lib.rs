//! Detailed execution-driven superscalar simulator with selective-squash
//! control independence — the primary contribution of *Rotenberg, Jacobson &
//! Smith, "A Study of Control Independence in Superscalar Processors"*
//! (HPCA 1999), Sections 3-4 and Appendix A.
//!
//! # What is modelled
//!
//! A 16-wide (configurable) dynamically scheduled processor with:
//!
//! - ideal instruction fetch past any number of branches per cycle, gshare +
//!   correlated-target-buffer + return-address-stack prediction with
//!   speculative, repairable global history;
//! - unlimited register renaming over a slab [`rob::Rob`] implemented as a
//!   linked list (optionally segmented, Appendix A.4) supporting arbitrary
//!   insertion and removal;
//! - aggressive memory disambiguation: loads issue ahead of unresolved
//!   stores, violations repaired by selective reissue;
//! - full misprediction recovery either by complete squash (`BASE`) or by
//!   **control independence** (`CI`): reconvergent-point detection (software
//!   post-dominators or the hardware heuristics of A.5), selective squash,
//!   restart sequences that insert the correct control-dependent path into
//!   the middle of the window, redispatch sequences that repair register
//!   dependences and re-predict branches under corrected history (A.3), and
//!   simple/optimal preemption of overlapping restarts (A.1);
//! - the branch completion models of A.2 (`non-spec`, `spec-C`, `spec-D`,
//!   `spec`) with optional oracle suppression of false mispredictions
//!   (`*-HFM`);
//! - a 64KB 4-way data cache (2-cycle hit / 14-cycle miss, perfect L2) or an
//!   ideal cache.
//!
//! Every run self-verifies: the retired instruction stream is compared,
//! value for value, against the functional emulator ([`ci_emu`]).
//!
//! # Example
//!
//! ```
//! use ci_core::{simulate, PipelineConfig};
//! use ci_workloads::{Workload, WorkloadParams};
//!
//! let program = Workload::GoLike.build(&WorkloadParams { scale: 100, seed: 7 });
//! let base = simulate(&program, PipelineConfig::base(256), 20_000).unwrap();
//! let ci = simulate(&program, PipelineConfig::ci(256), 20_000).unwrap();
//! assert_eq!(base.retired, ci.retired); // same architectural work
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activity;
mod cache;
mod config;
mod engine;
mod exec;
mod recon;
mod recover;
mod regfile;
mod retire;
pub mod rob;
mod stats;
mod wakeup;

pub use activity::CycleActivity;
pub use cache::DataCache;
pub use config::{
    CacheModel, CompletionModel, PipelineConfig, Preemption, ReconStrategy, RedispatchMode,
    RepredictMode, SquashMode,
};
pub use engine::Pipeline;
pub use recon::ReconDetector;
pub use regfile::{MapTable, PhysReg, PhysRegFile};
pub use stats::Stats;

use ci_emu::EmuError;
use ci_isa::Program;

/// Run `program` through the detailed pipeline until its architectural trace
/// (bounded by `max_insts`) retires, returning the statistics.
///
/// # Errors
/// Propagates [`EmuError`] if the program's correct path leaves the program.
///
/// # Panics
/// Panics (with `config.check`) if the simulator retires anything that
/// disagrees with the functional emulator — a simulator bug, never a workload
/// property.
pub fn simulate(
    program: &Program,
    config: PipelineConfig,
    max_insts: u64,
) -> Result<Stats, EmuError> {
    let mut p = Pipeline::new(program, config, max_insts)?;
    Ok(p.run())
}

/// Like [`simulate`], but with an observability probe attached: every
/// pipeline event feeds `probe`, which is returned alongside the statistics
/// so callers can read its accumulated state.
///
/// With [`ci_obs::NoopProbe`] this compiles to exactly the [`simulate`]
/// path (the probe is statically monomorphized away); with a real sink such
/// as [`ci_obs::MetricsProbe`] or [`ci_obs::FlightRecorder`] the simulated
/// machine is unchanged — probes observe, they never steer.
///
/// # Errors
/// Propagates [`EmuError`] if the program's correct path leaves the program.
pub fn simulate_probed<P: ci_obs::Probe>(
    program: &Program,
    config: PipelineConfig,
    max_insts: u64,
    probe: P,
) -> Result<(Stats, P), EmuError> {
    let mut p = Pipeline::with_probe(program, config, max_insts, probe)?;
    let stats = p.run();
    Ok((stats, p.into_probe()))
}

/// Everything a profiled simulation produces: the simulated statistics plus
/// the host-side measurements ([`simulate_profiled`]).
#[derive(Debug)]
pub struct ProfiledRun<P, F> {
    /// The simulated machine's statistics — bit-identical to an unprofiled
    /// run of the same cell.
    pub stats: Stats,
    /// The probe, with whatever it accumulated.
    pub probe: P,
    /// The profiler holding the per-stage host-time span tree.
    pub profiler: F,
    /// Per-cycle stage-activity counters.
    pub activity: CycleActivity,
}

/// Like [`simulate_probed`], but additionally attributes the simulator's
/// *host* wall time to pipeline stages through `profiler` and collects
/// per-cycle stage-activity counters.
///
/// The span tree has a `"setup"` root covering the construction of the
/// pipeline's own architectural reference (with the functional emulation
/// under `"emu_trace"`) and a `"cycle_loop"` root whose children are the
/// per-stage spans: `complete`, `recovery`, `retire`, `fetch` (which
/// includes dispatch), and `issue` (which includes execution). The set-up
/// spans appear only because this function builds a private reference; a
/// pipeline given a shared one ([`Pipeline::with_reference`], as every
/// detailed cell of a `ci-runner` sweep is) records only `"cycle_loop"`.
/// Profilers observe host time only — the simulated machine and its
/// [`Stats`] are unchanged.
///
/// # Errors
/// Propagates [`EmuError`] if the program's correct path leaves the program.
pub fn simulate_profiled<P: ci_obs::Probe, F: ci_obs::Profiler>(
    program: &Program,
    config: PipelineConfig,
    max_insts: u64,
    probe: P,
    profiler: F,
) -> Result<ProfiledRun<P, F>, EmuError> {
    let mut p = Pipeline::with_probe_and_profiler(program, config, max_insts, probe, profiler)?;
    let stats = p.run();
    let (probe, profiler, activity) = p.into_parts();
    Ok(ProfiledRun {
        stats,
        probe,
        profiler,
        activity,
    })
}
