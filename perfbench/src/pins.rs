//! Output checks: every simulated cell's result is fingerprinted (FNV-1a
//! over its deterministic `Debug` rendering, the idiom of
//! `tests/rob_equivalence.rs`) and compared with a pinned value.
//!
//! Fingerprints are pinned in `perfbench/pins/seed-<hex>.txt` for
//! [`DEFAULT_SEED`] and [`HELD_OUT_SEED`] at [`DEFAULT_INSTRUCTIONS`], one
//! line per cell: `<cell key> <fingerprint> <label>`. At any other seed or
//! budget, the first result of each cell in the run becomes its reference
//! and every later computation of the cell must reproduce it. Either way
//! every detailed cell runs with `config.check` on, so the pipeline also
//! verifies each retired instruction against the functional emulator.

use crate::{DEFAULT_INSTRUCTIONS, DEFAULT_SEED, HELD_OUT_SEED};
use ci_core::Stats;
use ci_runner::{fnv1a, CellKey, CellOutput, CellSpec};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

const PINNED: [(u64, &str); 2] = [
    (DEFAULT_SEED, include_str!("../pins/seed-5eed.txt")),
    (HELD_OUT_SEED, include_str!("../pins/seed-c1a0.txt")),
];

/// The pinned fingerprints of cells at `seed` and `instructions`, if that
/// pair is pinned.
#[must_use]
pub fn pinned(seed: u64, instructions: u64) -> Option<BTreeMap<CellKey, u64>> {
    PINNED
        .iter()
        .find(|(s, _)| *s == seed && instructions == DEFAULT_INSTRUCTIONS)
        .map(|(_, text)| parse_pins(text))
}

/// Fingerprint of a detailed run's statistics.
#[must_use]
pub fn stats_fingerprint(stats: &Stats) -> u64 {
    fnv1a(format!("{stats:?}").as_bytes())
}

/// Fingerprint of any cell output: the [`Stats`] of a detailed cell (its
/// metrics probe is a host-side summary and is not pinned), the whole
/// result of an ideal or study cell.
#[must_use]
pub fn output_fingerprint(output: &CellOutput) -> u64 {
    match output {
        CellOutput::Detailed { stats, .. } => stats_fingerprint(stats),
        other => fnv1a(format!("{other:?}").as_bytes()),
    }
}

/// Path of the pin file for `seed`, in the benchmark's source tree.
#[must_use]
pub fn pin_path(seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("pins")
        .join(format!("seed-{seed:x}.txt"))
}

/// Render a pin file from `(spec, fingerprint)` pairs, sorted by key.
#[must_use]
pub fn render_pins(cells: &[(CellSpec, u64)]) -> String {
    let mut lines: Vec<(CellKey, u64, String)> = cells
        .iter()
        .map(|(spec, fp)| (spec.key(), *fp, spec.label()))
        .collect();
    lines.sort();
    lines.dedup_by_key(|l| l.0);
    let mut out = String::new();
    for (key, fp, label) in lines {
        let _ = writeln!(out, "{key} {fp:016x} {label}");
    }
    out
}

/// Parse a pin file into `key -> fingerprint`.
///
/// # Panics
/// Panics on a malformed line: pin files are part of the benchmark's source.
#[must_use]
pub fn parse_pins(text: &str) -> BTreeMap<CellKey, u64> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let mut f = l.split_whitespace();
            let mut hex = || {
                f.next()
                    .and_then(|h| u64::from_str_radix(h, 16).ok())
                    .unwrap_or_else(|| panic!("malformed pin line `{l}`"))
            };
            (CellKey(hex()), hex())
        })
        .collect()
}

/// Counts attempted and failed cells and explains each failure.
#[derive(Debug, Default)]
pub struct Checker {
    /// Pinned fingerprints; when present, every cell must be pinned.
    pinned: Option<BTreeMap<CellKey, u64>>,
    /// First result of each unpinned cell seen in this run.
    seen: BTreeMap<CellKey, u64>,
    /// Cells checked.
    pub attempted: u64,
    /// Cells that panicked or whose fingerprint differed.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub failures: Vec<String>,
}

impl Checker {
    /// A checker for cells at `seed` and `instructions`, using the pinned
    /// fingerprints when that pair is pinned.
    #[must_use]
    pub fn new(seed: u64, instructions: u64) -> Checker {
        Checker {
            pinned: pinned(seed, instructions),
            ..Checker::default()
        }
    }

    /// A checker against an explicit pin set.
    #[must_use]
    pub fn with_pins(pins: BTreeMap<CellKey, u64>) -> Checker {
        Checker {
            pinned: Some(pins),
            ..Checker::default()
        }
    }

    /// Whether this run is checked against pinned fingerprints.
    #[must_use]
    pub fn is_pinned(&self) -> bool {
        self.pinned.is_some()
    }

    /// Record one cell: its fingerprint, or the panic message if its
    /// computation panicked.
    pub fn record(&mut self, spec: &CellSpec, result: Result<u64, String>) {
        self.attempted += 1;
        let key = spec.key();
        let problem = match result {
            Err(panic) => Some(format!("panicked: {panic}")),
            Ok(_) if matches!(spec, CellSpec::Detailed { config, .. } if !config.check) => {
                Some("runs without the emulator check".to_owned())
            }
            Ok(fp) => {
                let expected = match &self.pinned {
                    Some(p) => p.get(&key).copied(),
                    None => Some(*self.seen.entry(key).or_insert(fp)),
                };
                match expected {
                    None => Some(format!("no pinned fingerprint (got {fp:016x})")),
                    Some(e) if e != fp => Some(format!("fingerprint {fp:016x}, expected {e:016x}")),
                    Some(_) => None,
                }
            }
        };
        if let Some(p) = problem {
            self.failed += 1;
            self.failures.push(format!("{} [{key}]: {p}", spec.label()));
        }
    }

    /// Record an operation outside any one cell (the table assembly, the
    /// disk cache) that failed.
    pub fn record_failure(&mut self, what: &str, why: &str) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(format!("{what}: {why}"));
    }
}

/// The panic message carried by a `catch_unwind` payload.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}
