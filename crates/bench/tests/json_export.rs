//! End-to-end checks of the `repro` binary: run `repro table1 --json`,
//! parse the JSON lines it writes with the crate's own parser, and
//! cross-check the export against the text table on stdout; plus its
//! usage errors.

use ci_obs::json::{parse, JsonValue};
use control_independence::experiments::EXPERIMENTS;
use std::process::Command;

#[test]
fn table1_json_export_round_trips() {
    let out_path =
        std::env::temp_dir().join(format!("ci_json_export_{}.jsonl", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table1", "--json"])
        .arg(&out_path)
        .env("CI_REPRO_INSTRUCTIONS", "4000")
        .output()
        .expect("repro binary runs");
    assert!(
        output.status.success(),
        "repro table1 failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    let jsonl = std::fs::read_to_string(&out_path).expect("--json wrote the file");
    std::fs::remove_file(&out_path).ok();

    let rows: Vec<JsonValue> = jsonl
        .lines()
        .map(|l| parse(l).expect("every line is valid JSON"))
        .collect();
    assert_eq!(rows.len(), 5, "table 1 has one object per benchmark row");

    for (i, row) in rows.iter().enumerate() {
        assert_eq!(
            row.get("table").and_then(JsonValue::as_str),
            Some("TABLE 1. Benchmark information."),
        );
        assert_eq!(row.get("row").and_then(JsonValue::as_i64), Some(i as i64));
        // The benchmark name appears verbatim in the text table.
        let bench = row
            .get("benchmark")
            .and_then(JsonValue::as_str)
            .expect("benchmark column");
        assert!(stdout.contains(bench), "stdout missing benchmark {bench:?}");
        // Counts export as numbers, and the same digits appear in the text.
        let count = row
            .get("instruction count")
            .and_then(JsonValue::as_i64)
            .expect("count column");
        assert!(count > 0);
        assert!(stdout.contains(&count.to_string()));
        // Percentage cells lose their `%` suffix but keep the value.
        let rate = row
            .get("misprediction rate")
            .and_then(JsonValue::as_f64)
            .expect("rate column");
        assert!((0.0..=100.0).contains(&rate));
        assert!(stdout.contains(&format!("{rate:.1}%")));
    }
}

#[test]
fn json_flag_requires_path() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table1", "--json"])
        .output()
        .expect("repro binary runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("--json requires an argument"));
}

#[test]
fn unknown_or_missing_name_lists_the_registry() {
    // `--timing` is not a flag (per-cell wall times live in `--metrics`), so
    // it reads as extra positional arguments.
    for args in [&["table9"][..], &[], &["table1", "--timing", "x"]] {
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro binary runs");
        assert_eq!(output.status.code(), Some(2), "args {args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        for e in &EXPERIMENTS {
            assert!(stderr.contains(e.name), "usage omits {}: {stderr}", e.name);
        }
        assert!(output.stdout.is_empty(), "args {args:?} printed a table");
    }
}
