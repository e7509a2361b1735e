//! End-to-end check of the performance-observability binary `profile`:
//! span tree, Chrome trace, the stage-activity and work counters, and the
//! shared `--metrics` run report.

use ci_obs::json::{parse, JsonValue};
use std::path::PathBuf;
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ci_profiling_{}_{name}", std::process::id()))
}

#[test]
fn profile_reports_spans_and_writes_a_chrome_trace() {
    // Coverage is a wall-clock measurement: on a contended host the
    // scheduler can preempt the profiled process between spans and the
    // unattributed share grows. Retry a couple of times before believing
    // the instrumentation itself lost time.
    let mut coverage = 0.0;
    for attempt in 0..3 {
        coverage = profile_once();
        if coverage >= 90.0 {
            break;
        }
        eprintln!("attempt {attempt}: coverage {coverage:.1}% < 90%, retrying");
    }
    assert!(
        coverage >= 90.0,
        "span tree covers only {coverage:.1}% of the measured wall time"
    );
}

/// One full run of the `profile` binary with all structural assertions;
/// returns the span-tree wall coverage so the caller can retry on a
/// contended-scheduler shortfall.
fn profile_once() -> f64 {
    let trace = tmp("trace.json");
    let json = tmp("profile.jsonl");
    let metrics = tmp("metrics.json");
    let output = Command::new(env!("CARGO_BIN_EXE_profile"))
        .args(["go", "4000", "--config", "ci"])
        .arg("--trace")
        .arg(&trace)
        .arg("--json")
        .arg(&json)
        .arg("--metrics")
        .arg(&metrics)
        .env("CI_REPRO_INSTRUCTIONS", "4000")
        .output()
        .expect("profile binary runs");
    assert!(
        output.status.success(),
        "profile failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    // `profile` simulates directly, never through the cell engine, so the
    // engine's cache summary would only report zeros.
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        !stderr.contains("cells: 0 computed"),
        "profile printed an empty engine summary:\n{stderr}"
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    for needle in [
        "span tree",
        "cycle_loop",
        "complete",
        "fetch",
        "cycle attribution",
        "no-progress polled cycles",
        "store scans",
    ] {
        assert!(
            stdout.contains(needle),
            "stdout missing {needle:?}:\n{stdout}"
        );
    }

    // The Chrome trace parses and has one complete event per span.
    let trace_text = std::fs::read_to_string(&trace).expect("--trace wrote the file");
    std::fs::remove_file(&trace).ok();
    let v = parse(trace_text.trim()).expect("trace is valid JSON");
    let events = v
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    assert!(events
        .iter()
        .all(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X")));
    assert!(events
        .iter()
        .any(|e| e.get("name").and_then(JsonValue::as_str) == Some("cycle_loop")));

    // The --json export carries the span report with ≥90% wall coverage.
    let jsonl = std::fs::read_to_string(&json).expect("--json wrote the file");
    std::fs::remove_file(&json).ok();
    let report =
        parse(jsonl.lines().next().expect("one report line")).expect("report line is valid JSON");
    assert_eq!(
        report.get("metric").and_then(JsonValue::as_str),
        Some("profile")
    );
    let coverage = report
        .get("coverage_pct")
        .and_then(JsonValue::as_f64)
        .expect("coverage_pct");
    let activity = report.get("activity").expect("activity object");
    assert!(activity.get("cycles").and_then(JsonValue::as_i64).unwrap() > 0);
    // A CI run recovers by squashing and redispatching.
    assert!(
        activity
            .get("redispatched")
            .and_then(JsonValue::as_i64)
            .unwrap()
            > 0
    );

    // The shared --metrics report is valid run_metrics/v1 JSON.
    let metrics_text = std::fs::read_to_string(&metrics).expect("--metrics wrote the file");
    std::fs::remove_file(&metrics).ok();
    let m = parse(metrics_text.trim()).expect("metrics is valid JSON");
    assert_eq!(
        m.get("schema").and_then(JsonValue::as_str),
        Some("run_metrics/v1")
    );
    assert_eq!(m.get("binary").and_then(JsonValue::as_str), Some("profile"));
    coverage
}
