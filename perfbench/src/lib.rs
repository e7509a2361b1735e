//! The repository benchmark: end-to-end and per-layer measurements of the
//! control-independence simulator.
//!
//! One binary (`src/main.rs`) runs one named [`Bench`] workload for a fixed
//! number of host seconds and prints every metric of [`metrics::CATALOGUE`]
//! by name and unit, ending with one JSON line. Every simulated cell is
//! checked against a pinned fingerprint ([`pins`]); a traced run records the
//! per-layer metrics and writes its spans ([`trace`]). The benchmark only
//! calls public functions of the workspace crates and times them from
//! outside. See `perfbench/README.md` for why each workload exists.

pub mod metrics;
pub mod pins;
pub mod runs;
pub mod stats;
pub mod trace;

pub use runs::{run, Bench, Report, RunOpts};

/// The workload seed the paper tables use, and the one fingerprints are
/// pinned at. Claims are made on this seed.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// The held-out seed: a claim made on [`DEFAULT_SEED`] must also hold here,
/// and its fingerprints are pinned as well.
pub const HELD_OUT_SEED: u64 = 0xC1A0;

/// Dynamic instructions per cell: the paper tables' default scale.
pub const DEFAULT_INSTRUCTIONS: u64 = 60_000;

/// Worker threads of the `paper-eval` engine: the benchmark is sized for a
/// two-core machine.
pub const WORKERS: usize = 2;

/// Instruction window of the `core-*` machines.
pub const CORE_WINDOW: usize = 256;
