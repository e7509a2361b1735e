//! Design-space explorer: expands a sweep spec into a grid of simulation
//! cells, runs them through the memoized engine, and reduces the grid into
//! Pareto fronts, knees, and pruning statistics.
//!
//! ```text
//! explore [--sweep <spec>] [--out <report.json>] [--md <report.md>]
//! ```
//!
//! `<spec>` is the declarative sweep grammar of `ci_explore::Sweep::parse`
//! (axes `window/fetch/conf/machine/preempt/completion/recon/workload`,
//! range forms `a..=b[:+n|:xn]`, presets `paper-grid`/`full-grid`/
//! `smoke-grid`); the default is `smoke-grid`. A bare positional argument
//! is also accepted as the spec. Cell scale comes from
//! `CI_REPRO_INSTRUCTIONS` / `CI_REPRO_SEED` as in every other binary, and
//! the shared flags (`--json`, `--workers`, `--cache-dir`, `--metrics`)
//! are documented in `ci_bench::cli` — with `--cache-dir`,
//! growing a grid recomputes only the new cells.
//!
//! `--out` writes the `explore_report/v1` JSON object (deterministic:
//! byte-identical across worker counts and cache states); `--md` writes
//! the markdown writeup.

use ci_bench::cli::Cli;
use control_independence::ci_explore::{ExploreReport, Sweep};
use control_independence::ci_runner::SweepSummary;
use control_independence::experiments::Scale;
use std::path::PathBuf;

fn main() {
    let mut cli = Cli::from_args("explore");
    let mut spec: Option<String> = None;
    let mut out: Option<PathBuf> = None;
    let mut md: Option<PathBuf> = None;
    let mut rest = std::mem::take(&mut cli.rest).into_iter();
    while let Some(a) = rest.next() {
        let mut value = |flag: &str| {
            rest.next().unwrap_or_else(|| {
                eprintln!("{flag} requires an argument");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--sweep" => spec = Some(value("--sweep")),
            "--out" => out = Some(PathBuf::from(value("--out"))),
            "--md" => md = Some(PathBuf::from(value("--md"))),
            _ if !a.starts_with('-') && spec.is_none() => spec = Some(a),
            _ => {
                eprintln!(
                    "unknown argument `{a}`\n\
                     usage: explore [--sweep <spec>] [--out <report.json>] [--md <report.md>]"
                );
                std::process::exit(2);
            }
        }
    }
    let spec = spec.unwrap_or_else(|| "smoke-grid".to_owned());
    let sweep = Sweep::parse(&spec).unwrap_or_else(|e| {
        eprintln!("bad sweep `{spec}`: {e}");
        std::process::exit(2);
    });
    let scale = Scale::from_env_or_exit();

    let cells = sweep.expand(scale.instructions, scale.seed);
    let configs = sweep.configs();
    eprintln!(
        "exploring {} configurations × {} workloads = {} cells at {} instructions",
        configs.len(),
        sweep.workloads.len(),
        cells.len(),
        scale.instructions,
    );
    cli.engine.note_sweep(SweepSummary {
        spec: sweep.canonical(),
        configs: configs.len() as u64,
        cells: cells.len() as u64,
        workloads: sweep.workloads.len() as u64,
    });

    let report = ExploreReport::build(&cli.engine, &sweep, scale.instructions, scale.seed);
    for table in report.tables() {
        cli.table(&table);
    }
    if let Some(path) = out {
        let mut body = report.to_json().render();
        body.push('\n');
        std::fs::write(&path, body)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    }
    if let Some(path) = md {
        std::fs::write(&path, report.markdown())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    }
    cli.finish();
}
