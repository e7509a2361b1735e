//! Equivalence battery for the idealized-model engine (`ci-ideal`).
//!
//! The engine's data layout (window, event index, per-instruction tables)
//! may change for speed, but its behavior may not: every model, window and
//! workload must give the same [`IdealResult`] and the same probe event
//! stream, cycle for cycle and in the same order within a cycle.
//!
//! Fixtures in `tests/golden/ideal_equivalence.txt` pin one cell per line:
//!
//! ```text
//! <workload> <model> w<window> cycles=<n> retired=<n> wrong_path_fetched=<n> evictions=<n> events=<fnv64>
//! ```
//!
//! `events` hashes every `(cycle, Event)` pair of `simulate_probed` in
//! stream order. At this scale every window size evicts, so the eviction and
//! refetch path is covered too. To bless an *intended* behavioral change
//! (which must also re-bless the Figure 3 golden table):
//!
//! ```text
//! UPDATE_IDEAL_EQUIVALENCE=1 cargo test --test ideal_equivalence
//! ```

use ci_obs::Event;
use control_independence::ci_ideal::simulate_probed;
use control_independence::prelude::{IdealConfig, ModelKind, Probe, StudyInput};
use control_independence::prelude::{Workload, WorkloadParams};
use std::fmt::Write as _;
use std::path::PathBuf;

const SEED: u64 = 0x5EED;
const MAX_INSTS: u64 = 6_000;
/// A pathological window (eviction/overflow paths) plus Figure 3's sweep.
const WINDOWS: [usize; 6] = [17, 32, 64, 128, 256, 512];

/// FNV-1a over the full event stream, cycle numbers included.
struct FingerprintProbe {
    hash: u64,
    events: u64,
}

impl FingerprintProbe {
    fn new() -> FingerprintProbe {
        FingerprintProbe {
            hash: 0xcbf2_9ce4_8422_2325,
            events: 0,
        }
    }

    fn absorb(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x100_0000_01b3);
        }
    }
}

impl Probe for FingerprintProbe {
    fn record(&mut self, cycle: u64, event: Event) {
        self.events += 1;
        self.absorb(&cycle.to_le_bytes());
        self.absorb(format!("{event:?}").as_bytes());
    }
}

/// The battery's text and the evictions summed per window (same order as
/// [`WINDOWS`]).
fn run_battery() -> (String, [u64; WINDOWS.len()]) {
    let mut out = String::new();
    let mut evictions = [0u64; WINDOWS.len()];
    for wl in Workload::ALL {
        let program = wl.build(&WorkloadParams {
            scale: wl.scale_for(MAX_INSTS),
            seed: SEED,
        });
        let input = StudyInput::build(&program, MAX_INSTS).expect("battery program emulates");
        for model in ModelKind::ALL {
            for (k, window) in WINDOWS.into_iter().enumerate() {
                let config = IdealConfig {
                    model,
                    window,
                    ..IdealConfig::default()
                };
                let (r, probe) = simulate_probed(&input, &config, FingerprintProbe::new());
                assert_eq!(r.retired, input.len() as u64, "{wl:?}/{model}/w{window}");
                assert!(
                    probe.events > 0,
                    "{wl:?}/{model}/w{window} emitted no events"
                );
                evictions[k] += r.evictions;
                writeln!(
                    out,
                    "{wl:?} {model} w{window} cycles={} retired={} wrong_path_fetched={} \
                     evictions={} events={:016x}",
                    r.cycles, r.retired, r.wrong_path_fetched, r.evictions, probe.hash,
                )
                .unwrap();
            }
        }
    }
    (out, evictions)
}

#[test]
fn ideal_results_and_event_streams_match_pinned_fingerprints() {
    let path: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "tests",
        "golden",
        "ideal_equivalence.txt",
    ]
    .iter()
    .collect();
    let (actual, evictions) = run_battery();
    for (w, n) in WINDOWS.iter().zip(evictions) {
        assert!(
            n > 0,
            "w{w}: no evictions, so the refetch path went untested"
        );
    }
    if std::env::var_os("UPDATE_IDEAL_EQUIVALENCE").is_some() {
        std::fs::write(&path, &actual).expect("write fixtures");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing {}; bless with UPDATE_IDEAL_EQUIVALENCE=1",
            path.display()
        )
    });
    // Line by line for a readable failure: `events` differing while the
    // counters match means the order or shape of engine actions changed.
    for (exp, act) in expected.lines().zip(actual.lines()) {
        assert_eq!(exp, act, "ideal equivalence cell diverged");
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "battery cell count changed"
    );
}
