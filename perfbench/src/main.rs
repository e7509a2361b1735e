//! `perfbench`: run one benchmark workload and print its metrics.
//!
//! ```text
//! perfbench --workload <paper-eval|core-base|core-ci> [--seed N] [--seconds S]
//!           [--trace 0|1] [--out DIR]
//! perfbench --workload W --steady K [same options]
//! perfbench --bless --seed N
//! ```
//!
//! A run prints each metric by name and unit, then as its last line one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. It exits 0
//! when every cell checked out, 1 when any failed, 2 on a usage error.
//! `--steady K` runs the workload K times in separate processes and prints
//! the median, quartiles and spread of each metric; every run uses the same
//! seed, and exact metrics must repeat bit for bit. `--bless` rewrites the
//! pinned fingerprints of a pinned seed. Every cell simulates
//! [`DEFAULT_INSTRUCTIONS`] instructions, the budget the pins are made at.

use ci_obs::JsonValue;
use ci_runner::{CellSpec, Engine};
use control_independence::experiments::Scale;
use perfbench::metrics::{self, Kind};
use perfbench::pins::{output_fingerprint, pin_path, render_pins};
use perfbench::runs::cells;
use perfbench::stats::{median, quartiles, spread};
use perfbench::{run, Bench, Report, RunOpts};
use perfbench::{DEFAULT_INSTRUCTIONS, DEFAULT_SEED, HELD_OUT_SEED, WORKERS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{exit, Command, Stdio};

const USAGE: &str = "usage: perfbench --workload <paper-eval|core-base|core-ci> [--seed N] \
[--seconds S] [--trace 0|1] [--out DIR] [--steady K]\n       \
perfbench --bless --seed N";

struct Args {
    run: RunOpts,
    steady: Option<u64>,
    bless: bool,
}

/// A decimal or `0x`-prefixed hexadecimal integer.
fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut bench = None;
    let mut args = Args {
        run: RunOpts {
            bench: Bench::CoreBase,
            seed: DEFAULT_SEED,
            seconds: 10.0,
            instructions: DEFAULT_INSTRUCTIONS,
            trace: false,
            out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        },
        steady: None,
        bless: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| parse_u64(&v).ok_or(format!("{flag}: `{v}` is not a number"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                bench = Some(Bench::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => args.run.seed = number(value()?)?,
            "--seconds" => {
                let v = value()?;
                args.run.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds: `{v}` is not a positive number"))?;
            }
            "--trace" => {
                args.run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--out" => args.run.out_dir = PathBuf::from(value()?),
            "--steady" => {
                args.steady = Some(number(value()?)?)
                    .filter(|&k| k >= 2)
                    .ok_or("--steady needs at least 2 runs")
                    .map(Some)?;
            }
            "--bless" => args.bless = true,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    match bench {
        Some(b) => args.run.bench = b,
        None if args.bless => {}
        None => return Err("--workload is required".to_owned()),
    }
    Ok(args)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        exit(2)
    });
    let code = if args.bless {
        bless(args.run.seed)
    } else if let Some(k) = args.steady {
        steady(&args.run, k)
    } else {
        let report = run(&args.run);
        print_report(&args.run, &report);
        i32::from(report.failed > 0)
    };
    exit(code);
}

fn print_report(opts: &RunOpts, report: &Report) {
    println!(
        "perfbench {} seed {:#x}, {} instructions/cell, {} passes: {} of {} cells failed ({})",
        opts.bench.name(),
        opts.seed,
        opts.instructions,
        report.passes,
        report.failed,
        report.attempted,
        if report.pinned {
            "checked against pinned fingerprints"
        } else {
            "checked for repeatability; no pins at this seed"
        },
    );
    for (m, v) in &report.metrics {
        if m.applies_to(opts.bench) {
            println!("  {:<26} {v:>16.6} {}", m.name, m.unit);
        } else {
            println!("  {:<26} {:>16} (does not apply)", m.name, "n/a");
        }
    }
    for f in &report.files {
        println!("  wrote {}", f.display());
    }
    for f in report.failures.iter().take(10) {
        eprintln!("FAILED {f}");
    }
    println!("{}", report.result_line().render());
}

/// Recompute every cell of every workload at a pinned seed and rewrite its
/// pin file.
fn bless(seed: u64) -> i32 {
    if seed != DEFAULT_SEED && seed != HELD_OUT_SEED {
        eprintln!("perfbench: only seeds {DEFAULT_SEED:#x} and {HELD_OUT_SEED:#x} are pinned");
        return 2;
    }
    let scale = Scale {
        instructions: DEFAULT_INSTRUCTIONS,
        seed,
    };
    let all: Vec<CellSpec> = Bench::ALL.iter().flat_map(|&b| cells(b, &scale)).collect();
    let eng = Engine::with_workers(WORKERS);
    eng.prefetch(&all);
    let pinned: Vec<(CellSpec, u64)> = all
        .into_iter()
        .map(|spec| {
            let fp = output_fingerprint(&eng.cell(&spec));
            (spec, fp)
        })
        .collect();
    let path = pin_path(seed);
    let text = render_pins(&pinned);
    if let Err(e) = std::fs::write(&path, &text) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
        return 1;
    }
    println!(
        "pinned {} cells in {}",
        text.lines().count(),
        path.display()
    );
    0
}

/// Run the workload `k` times, each in its own process, and print the
/// spread of every metric.
fn steady(opts: &RunOpts, k: u64) -> i32 {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let kind = if opts.trace {
        Kind::Layer
    } else {
        Kind::EndToEnd
    };
    let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for i in 0..k {
        let out = Command::new(&exe)
            .args(["--workload", opts.bench.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&opts.out_dir)
            .stderr(Stdio::inherit())
            .output()
            .expect("the benchmark can start itself");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let Ok(line) = ci_obs::json::parse(last) else {
            eprintln!("run {i}: no result line; {}", out.status);
            ok = false;
            continue;
        };
        let (attempted, failed) = (line.get("attempted"), line.get("failed"));
        eprintln!(
            "run {i}: {} of {} cells failed",
            failed.and_then(JsonValue::as_f64).unwrap_or(f64::NAN),
            attempted.and_then(JsonValue::as_f64).unwrap_or(f64::NAN),
        );
        ok &= out.status.success();
        for m in metrics::of_kind(kind) {
            let v = line
                .get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|e| e.get("value"))
                .and_then(JsonValue::as_f64);
            values
                .entry(m.name)
                .or_default()
                .push(v.unwrap_or(f64::NAN));
        }
    }
    println!(
        "perfbench {} steadiness: {k} runs, seed {:#x} every run",
        opts.bench.name(),
        opts.seed
    );
    println!(
        "  {:<26} {:>14} {:>14} {:>14} {:>8}",
        "metric", "median", "q1", "q3", "spread"
    );
    for m in metrics::of_kind(kind).filter(|m| m.applies_to(opts.bench)) {
        let v = values.get(m.name).map_or(&[][..], Vec::as_slice);
        let (q1, q3) = quartiles(v).unwrap_or((f64::NAN, f64::NAN));
        println!(
            "  {:<26} {:>14.6} {:>14.6} {:>14.6} {:>7.2}%  {}",
            m.name,
            median(v),
            q1,
            q3,
            100.0 * spread(v).unwrap_or(f64::NAN),
            m.unit
        );
        if m.exact && v.iter().any(|x| x.to_bits() != v[0].to_bits()) {
            eprintln!("NOT EXACT {}: {v:?}", m.name);
            ok = false;
        }
    }
    i32::from(!ok)
}
