//! Self-tests of the benchmark: metric names, the agreement of
//! `BENCHMARK.json` with the metric catalogue, that every metric is emitted
//! or marked as not applying on every workload, that a wrong fingerprint
//! fails, and that the seed argument reaches the generated programs.
//!
//! Runs through the library use a tiny instruction budget so the suite
//! stays fast; their fingerprints are checked for repeatability within the
//! run, since pins exist only at the default budget. The binary itself
//! always runs the default budget.

use ci_core::{Pipeline, PipelineConfig};
use ci_obs::json::parse;
use ci_obs::JsonValue;
use ci_runner::CellSpec;
use ci_workloads::{Workload, WorkloadParams};
use control_independence::experiments::Scale;
use perfbench::metrics::{self, Kind, CATALOGUE};
use perfbench::pins::{pinned, stats_fingerprint, Checker};
use perfbench::runs::cells;
use perfbench::{run, Bench, RunOpts, DEFAULT_INSTRUCTIONS, DEFAULT_SEED, HELD_OUT_SEED};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn benchmark_json() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn out_dir(test: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(test)
}

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary starts")
}

/// Instructions per cell of the library runs below.
const SMALL_BUDGET: u64 = 400;

/// One short run of `bench` through the library, at [`SMALL_BUDGET`]; its
/// result line, parsed back from its rendering.
fn small_run(bench: Bench, seed: u64, trace: bool, out_dir: PathBuf) -> JsonValue {
    let report = run(&RunOpts {
        bench,
        seed,
        seconds: 0.01,
        instructions: SMALL_BUDGET,
        trace,
        out_dir,
    });
    parse(&report.result_line().render()).expect("the result line is JSON")
}

fn metric(line: &JsonValue, name: &str) -> f64 {
    line.get("metrics")
        .and_then(|ms| ms.get(name))
        .and_then(|e| e.get("value"))
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("no {name}"))
}

#[test]
fn metric_names_and_units_are_well_formed() {
    for m in CATALOGUE {
        assert!(metrics::valid_name(m.name), "bad metric name `{}`", m.name);
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit `{}` of {}",
            m.unit,
            m.name
        );
        assert_eq!(
            CATALOGUE.iter().filter(|o| o.name == m.name).count(),
            1,
            "{} is listed twice",
            m.name
        );
    }
    assert!(!metrics::valid_name("core span"));
    assert!(!metrics::valid_name(".hidden"));
    assert!(!metrics::valid_name(""));
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let json = benchmark_json();
    for (key, kind) in [("end_to_end", Kind::EndToEnd), ("per_layer", Kind::Layer)] {
        let listed: Vec<(String, String, String)> = json
            .get(key)
            .and_then(JsonValue::as_array)
            .expect("metric lists are arrays")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap().to_owned();
                (field("name"), field("unit"), field("better"))
            })
            .collect();
        let catalogue: Vec<(String, String, String)> = metrics::of_kind(kind)
            .map(|m| {
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                (m.name.to_owned(), m.unit.to_owned(), better.to_owned())
            })
            .collect();
        assert_eq!(listed, catalogue, "{key} differs from the catalogue");
    }
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
        .collect();
    let benches: Vec<&str> = Bench::ALL.iter().map(|b| b.name()).collect();
    assert_eq!(workloads, benches);
}

/// Every metric of the run's kind is in the result line; in a traced run
/// the layer file marks the ones that do not apply, and every one that
/// does apply carries a finite number.
fn check_emitted(bench: Bench, trace: bool) {
    let dir = out_dir(&format!("emitted-{}-{trace}", bench.name()));
    let line = small_run(bench, 7, trace, dir.clone());
    assert_eq!(line.get("correct").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(line.get("failed").and_then(JsonValue::as_i64), Some(0));
    assert!(line.get("attempted").and_then(JsonValue::as_i64).unwrap() >= 1);
    let kind = if trace { Kind::Layer } else { Kind::EndToEnd };
    let emitted = line.get("metrics").unwrap();
    let JsonValue::Obj(entries) = emitted else {
        panic!("metrics is an object")
    };
    assert_eq!(entries.len(), metrics::of_kind(kind).count());
    for m in metrics::of_kind(kind) {
        let entry = emitted
            .get(m.name)
            .unwrap_or_else(|| panic!("no {}", m.name));
        let value = entry.get("value").and_then(JsonValue::as_f64).unwrap();
        assert!(value.is_finite(), "{} = {value}", m.name);
        assert_eq!(entry.get("unit").and_then(JsonValue::as_str), Some(m.unit));
    }
    if trace {
        let stem = format!("{}-seed7", bench.name());
        let layers = std::fs::read_to_string(dir.join(format!("{stem}-layers.json"))).unwrap();
        let layers = parse(&layers).unwrap();
        for m in metrics::of_kind(Kind::Layer) {
            let entry = layers.get("metrics").and_then(|ms| ms.get(m.name)).unwrap();
            let applies = entry.get("applies").and_then(JsonValue::as_bool).unwrap();
            assert_eq!(applies, m.applies_to(bench), "{}", m.name);
            let value = entry.get("value").unwrap();
            assert_eq!(value.as_f64().is_some(), applies, "{} = {value:?}", m.name);
        }
        let spans = layers.get("spans").and_then(JsonValue::as_array).unwrap();
        assert!(spans
            .iter()
            .any(|s| s.get("name").and_then(JsonValue::as_str) == Some("pass")));
        let chrome = std::fs::read_to_string(dir.join(format!("{stem}-trace.json"))).unwrap();
        assert!(parse(&chrome).unwrap().get("traceEvents").is_some());
    }
}

#[test]
fn paper_eval_emits_every_metric() {
    check_emitted(Bench::PaperEval, false);
    check_emitted(Bench::PaperEval, true);
}

#[test]
fn core_base_emits_every_metric() {
    check_emitted(Bench::CoreBase, false);
    check_emitted(Bench::CoreBase, true);
}

#[test]
fn core_ci_emits_every_metric() {
    check_emitted(Bench::CoreCi, false);
    check_emitted(Bench::CoreCi, true);
}

#[test]
fn pins_cover_every_cell_at_both_pinned_seeds() {
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        let pins = pinned(seed, DEFAULT_INSTRUCTIONS).expect("seed is pinned");
        let scale = Scale {
            instructions: DEFAULT_INSTRUCTIONS,
            seed,
        };
        for bench in Bench::ALL {
            for spec in cells(bench, &scale) {
                assert!(pins.contains_key(&spec.key()), "{} unpinned", spec.label());
            }
        }
    }
    assert!(pinned(DEFAULT_SEED, 1000).is_none());
    assert!(pinned(1, DEFAULT_INSTRUCTIONS).is_none());
}

#[test]
fn a_perturbed_fingerprint_is_a_failure() {
    let (w, config) = (Workload::CompressLike, PipelineConfig::base(256));
    let spec = CellSpec::Detailed {
        workload: w,
        config,
        instructions: DEFAULT_INSTRUCTIONS,
        seed: DEFAULT_SEED,
    };
    let program = w.build(&WorkloadParams {
        scale: w.scale_for(DEFAULT_INSTRUCTIONS),
        seed: DEFAULT_SEED,
    });
    let stats = Pipeline::new(&program, config, DEFAULT_INSTRUCTIONS)
        .unwrap()
        .run();
    let fp = stats_fingerprint(&stats);

    let mut good = Checker::new(DEFAULT_SEED, DEFAULT_INSTRUCTIONS);
    good.record(&spec, Ok(fp));
    assert_eq!((good.attempted, good.failed), (1, 0), "{:?}", good.failures);

    let mut pins = pinned(DEFAULT_SEED, DEFAULT_INSTRUCTIONS).unwrap();
    *pins.get_mut(&spec.key()).unwrap() ^= 1;
    let mut bad = Checker::with_pins(pins);
    bad.record(&spec, Ok(fp));
    assert_eq!((bad.attempted, bad.failed), (1, 1));
    assert!(bad.failures[0].contains("expected"), "{}", bad.failures[0]);

    let mut panicked = Checker::new(DEFAULT_SEED, DEFAULT_INSTRUCTIONS);
    panicked.record(&spec, Err("boom".to_owned()));
    assert_eq!(panicked.failed, 1);

    // Unpinned seeds: the first result is the reference for the rest.
    let mut unpinned = Checker::new(1, DEFAULT_INSTRUCTIONS);
    unpinned.record(&spec, Ok(fp));
    unpinned.record(&spec, Ok(fp ^ 1));
    assert_eq!((unpinned.attempted, unpinned.failed), (2, 1));
}

/// The seed a run is given reaches every workload's programs: both the
/// untraced passes (`ipc_geomean`) and the traced ones (exact counts)
/// change with it, and repeat for the same seed.
#[test]
fn the_seed_changes_the_generated_programs() {
    for bench in Bench::ALL {
        for trace in [false, true] {
            let dir = out_dir(&format!("seed-{}-{trace}", bench.name()));
            let runs = [7, 8, 7].map(|seed| small_run(bench, seed, trace, dir.clone()));
            let names: &[&str] = if trace {
                &["core.cycles", "core.fetched"]
            } else {
                &["ipc_geomean"]
            };
            for &name in names {
                let [a, b, again] = [0, 1, 2].map(|i| metric(&runs[i], name));
                assert_ne!(
                    a.to_bits(),
                    b.to_bits(),
                    "{} {name}: seeds 7 and 8 agree",
                    bench.name()
                );
                assert_eq!(
                    a.to_bits(),
                    again.to_bits(),
                    "{} {name}: seed 7 differs",
                    bench.name()
                );
            }
        }
    }
}

#[test]
fn steadiness_mode_reports_spread_and_exact_counts() {
    let dir = out_dir("steady");
    let out = perfbench(&[
        "--workload",
        "core-base",
        "--seconds",
        "0.01",
        "--steady",
        "3",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("spread"), "{stdout}");
    for m in metrics::of_kind(Kind::EndToEnd) {
        assert!(stdout.contains(m.name), "{} missing: {stdout}", m.name);
    }
}

#[test]
fn usage_errors_print_no_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "5"],
        &["--workload", "core-base", "--trace", "2"],
        &["--workload", "core-base", "--seed", "x"],
        &["--workload", "core-base", "--instructions", "400"],
        &["--workload", "core-base", "--steady", "3", "--vary-seeds"],
    ] {
        let out = perfbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
