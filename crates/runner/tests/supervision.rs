//! Supervision-layer guarantees of the runner primitives: the memo's
//! panic-unpoisoning protocol under concurrent waiters, cache quarantine of
//! corrupt files, and deterministic fault injection through the engine.

use ci_runner::engine::parse_cache_line;
use ci_runner::fault::FaultSite;
use ci_runner::{CellSpec, Engine, EngineOptions, FaultPlan, Memo, CACHE_FILE, INJECTED_PANIC};
use ci_workloads::Workload;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

struct TempDir(PathBuf);

impl TempDir {
    fn new(test: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("ci-supervision-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn tiny_spec(seed: u64) -> CellSpec {
    CellSpec::Study {
        workload: Workload::CompressLike,
        instructions: 400,
        seed,
    }
}

/// Satellite: the memo panic-unpoisoning race under concurrent waiters.
/// N threads pile onto one cell whose computation panics transiently; every
/// waiter must observe either the failure (its own retry panics) or the
/// eventual value — never a deadlock — and a subsequent compute succeeds.
#[test]
fn concurrent_waiters_survive_transient_compute_panics() {
    const THREADS: usize = 8;
    for round in 0..20 {
        let memo: Memo<u32, u64> = Memo::new();
        // The first `fails` compute attempts panic, later ones succeed.
        let fails = AtomicI64::new(3);
        let panics_seen = AtomicUsize::new(0);
        let gate = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    gate.wait();
                    loop {
                        let r = catch_unwind(AssertUnwindSafe(|| {
                            memo.get_or_compute(7, || {
                                // Hold the in-flight slot long enough for the
                                // other threads to pile up on the condvar.
                                std::thread::sleep(Duration::from_millis(2));
                                if fails.fetch_sub(1, Ordering::SeqCst) > 0 {
                                    panic!("transient compute failure");
                                }
                                42
                            })
                        }));
                        match r {
                            Ok((v, _)) => {
                                assert_eq!(v, 42, "round {round}");
                                return;
                            }
                            Err(_) => {
                                panics_seen.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(
            panics_seen.load(Ordering::SeqCst),
            3,
            "round {round}: exactly the budgeted failures must be observed"
        );
        assert_eq!(memo.len(), 1, "round {round}");
        // The slot is clean: a later lookup is a plain hit.
        let (v, computed) = memo.get_or_compute(7, || unreachable!());
        assert_eq!((v, computed), (42, false), "round {round}");
    }
}

/// With a persistently panicking computation, *every* concurrent waiter
/// observes the failure (no waiter sleeps forever on a poisoned slot), and
/// the key still accepts a successful compute afterwards.
#[test]
fn every_waiter_observes_a_persistent_failure() {
    const THREADS: usize = 8;
    let memo: Memo<u32, u64> = Memo::new();
    let observed = AtomicUsize::new(0);
    let gate = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                gate.wait();
                let r = catch_unwind(AssertUnwindSafe(|| {
                    memo.get_or_compute(3, || -> u64 {
                        std::thread::sleep(Duration::from_millis(2));
                        panic!("persistent failure")
                    })
                }));
                assert!(r.is_err(), "a poisoned slot must fail, not hang");
                observed.fetch_add(1, Ordering::SeqCst);
            });
        }
    });
    assert_eq!(observed.load(Ordering::SeqCst), THREADS);
    assert!(memo.is_empty(), "no value may be published by a failure");
    let (v, computed) = memo.get_or_compute(3, || 11);
    assert_eq!((v, computed), (11, true), "the key must recover");
}

/// An injected compute panic escapes `Engine::cell` exactly as many times
/// as the plan's budget, then the same spec computes normally — and the
/// result is byte-identical to a fault-free engine's.
#[test]
fn engine_recovers_from_injected_compute_panics() {
    let plan = Arc::new(FaultPlan::new(5).with_panics(1, 2)); // every cell, twice
    let eng = Engine::new(EngineOptions {
        workers: 1,
        cache_dir: None,
        faults: Some(Arc::clone(&plan)),
    });
    let spec = tiny_spec(1);
    let mut panics = 0;
    let out = loop {
        match catch_unwind(AssertUnwindSafe(|| eng.cell(&spec))) {
            Ok(out) => break out,
            Err(p) => {
                let msg = p.downcast_ref::<String>().cloned().unwrap_or_default();
                assert!(msg.starts_with(INJECTED_PANIC), "unexpected panic: {msg}");
                panics += 1;
            }
        }
    };
    assert_eq!(panics, 2, "the plan budget is exact");
    assert_eq!(eng.faults_injected(), 2);
    assert_eq!(
        out,
        Engine::serial().cell(&spec),
        "recovery changes nothing"
    );
}

/// Satellite: a cache file with corrupt lines is quarantined with a reason
/// header instead of silently rewritten; valid lines still load, and the
/// corrupt-line counter is surfaced through `RunMetrics`.
#[test]
fn corrupt_cache_file_is_quarantined_with_reason() {
    let tmp = TempDir::new("quarantine");
    let spec = tiny_spec(3);
    // Warm the cache with one valid cell.
    {
        let eng = Engine::new(EngineOptions {
            workers: 1,
            cache_dir: Some(tmp.0.clone()),
            faults: None,
        });
        let _ = eng.cell(&spec);
        eng.save_cache().unwrap();
    }
    // Corrupt the file: keep the valid line, append garbage.
    let cache = tmp.0.join(CACHE_FILE);
    let mut text = std::fs::read_to_string(&cache).unwrap();
    let valid_line = text.lines().next().unwrap().to_owned();
    text.push_str("{\"key\":\"feedfacefeedface\",\"spec\":\"tampered\"}\n");
    text.push_str("not json at all\n");
    std::fs::write(&cache, &text).unwrap();

    let eng = Engine::new(EngineOptions {
        workers: 1,
        cache_dir: Some(tmp.0.clone()),
        faults: None,
    });
    // The valid cell loaded; the corrupt lines were counted.
    assert_eq!(eng.cells_loaded(), 1);
    assert_eq!(eng.corrupt_lines(), 2);
    let quarantined = eng.quarantined_files();
    assert_eq!(quarantined.len(), 1, "one file quarantined");
    let qpath = &quarantined[0];
    assert!(qpath.starts_with(tmp.0.join("quarantine")));
    let qbody = std::fs::read_to_string(qpath).unwrap();
    assert!(qbody.starts_with("# quarantined cache file"));
    assert!(qbody.contains("# reason: 2 corrupt line(s), first at line 2"));
    assert!(
        qbody.contains("not json at all"),
        "the evidence is preserved verbatim"
    );
    // The original was moved out of the way...
    assert!(!cache.exists(), "corrupt cache must not stay in place");
    // ...the loaded cell still round-trips from memory...
    let (loaded_spec, loaded_out) = parse_cache_line(&valid_line).unwrap();
    assert_eq!(loaded_spec, spec.canonical());
    assert_eq!(eng.cell(&spec), loaded_out);
    // ...RunMetrics surfaces the event...
    let m = eng.run_metrics("test");
    assert_eq!((m.corrupt_lines, m.quarantined_files), (2, 1));
    let json = m.to_json().render();
    assert!(json.contains("\"corrupt_lines\":2"));
    assert!(json.contains("\"quarantined_files\":1"));
    // ...and a save rebuilds a clean cache that loads without complaint.
    eng.save_cache().unwrap();
    let eng2 = Engine::new(EngineOptions {
        workers: 1,
        cache_dir: Some(tmp.0.clone()),
        faults: None,
    });
    assert_eq!(eng2.cells_loaded(), 1);
    assert_eq!(eng2.corrupt_lines(), 0);
    assert!(eng2.quarantined_files().is_empty());
}

/// Injected cache-read corruption exercises the same quarantine path, and
/// the engine recomputes the affected cells bit-identically.
#[test]
fn injected_cache_read_faults_trigger_quarantine_and_recompute() {
    let tmp = TempDir::new("readfault");
    let specs: Vec<CellSpec> = (0..6).map(tiny_spec).collect();
    {
        let eng = Engine::new(EngineOptions {
            workers: 1,
            cache_dir: Some(tmp.0.clone()),
            faults: None,
        });
        for s in &specs {
            let _ = eng.cell(s);
        }
        eng.save_cache().unwrap();
    }
    let plan = Arc::new(FaultPlan::new(11).with_cache_read_faults(2, 1));
    let eng = Engine::new(EngineOptions {
        workers: 1,
        cache_dir: Some(tmp.0.clone()),
        faults: Some(Arc::clone(&plan)),
    });
    let injected = eng.faults_injected();
    assert!(injected > 0, "rate 2 over 6 lines must hit some");
    assert_eq!(eng.corrupt_lines(), injected);
    assert_eq!(eng.cells_loaded(), 6 - injected);
    assert_eq!(eng.quarantined_files().len(), 1);
    let reference = Engine::serial();
    for s in &specs {
        assert_eq!(eng.cell(s), reference.cell(s), "recompute is identical");
    }
}

/// An injected cache-write error surfaces as a real `save_cache` error with
/// the fault marker, and the retry (budget spent) succeeds.
#[test]
fn injected_cache_write_faults_are_transient() {
    let tmp = TempDir::new("writefault");
    let plan = Arc::new(FaultPlan::new(13).with_cache_write_faults(1, 1));
    let eng = Engine::new(EngineOptions {
        workers: 1,
        cache_dir: Some(tmp.0.clone()),
        faults: Some(plan),
    });
    let _ = eng.cell(&tiny_spec(0));
    let err = eng.save_cache().expect_err("first save must fail");
    assert!(err.to_string().starts_with(INJECTED_PANIC));
    eng.save_cache().expect("retry succeeds");
    assert!(tmp.0.join(CACHE_FILE).exists());
}

/// The same plan seed injects the same faults at the same points across
/// runs — the property that makes a fault-injection run replayable.
#[test]
fn fault_injection_is_reproducible_across_runs() {
    let run = || {
        let plan = Arc::new(FaultPlan::new(0xDEAD).with_panics(3, 1).with_latency(
            4,
            1,
            Duration::from_micros(50),
        ));
        let eng = Engine::new(EngineOptions {
            workers: 1,
            cache_dir: None,
            faults: Some(Arc::clone(&plan)),
        });
        let mut trace = Vec::new();
        for i in 0..16 {
            let spec = tiny_spec(i);
            let panicked = catch_unwind(AssertUnwindSafe(|| eng.cell(&spec))).is_err();
            trace.push((i, panicked));
        }
        (trace, plan.injected_by_site())
    };
    let (trace_a, counts_a) = run();
    let (trace_b, counts_b) = run();
    assert_eq!(trace_a, trace_b, "same seed, same injection points");
    assert_eq!(counts_a, counts_b);
    assert!(trace_a.iter().any(|&(_, p)| p), "some cell must panic");
    assert!(
        counts_a
            .iter()
            .find(|(n, _)| *n == FaultSite::ComputeLatency.name())
            .unwrap()
            .1
            > 0,
        "latency site must fire too"
    );
}
