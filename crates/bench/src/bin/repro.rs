//! `repro <name>`: regenerate one table or figure of the paper, or `all`
//! of them, by name from the experiment registry
//! (`experiments::EXPERIMENTS`). Scale with `CI_REPRO_INSTRUCTIONS` and
//! `CI_REPRO_SEED`; the shared flags (`--json`, `--workers`, `--cache-dir`,
//! `--metrics`) are documented in `ci_bench::cli`.
//!
//! `repro all` prefetches the union of every experiment's cells on the
//! `--workers` pool, computes each distinct cell once, and assembles the
//! tables serially from the memo cache, so stdout and the `--json` export
//! are byte-identical for every worker count.

use ci_bench::cli::Cli;
use control_independence::experiments::{run_all, Experiment, Scale, EXPERIMENTS};

fn usage() -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    eprintln!("usage: repro <name> [flags]");
    eprintln!("names: all {}", names.join(" "));
    std::process::exit(2);
}

fn main() {
    let mut cli = Cli::from_args("repro");
    // `None` selects `all`.
    let selected: Option<&Experiment> = match cli.rest.as_slice() {
        [name] if name == "all" => None,
        [name] => Some(
            EXPERIMENTS
                .iter()
                .find(|e| e.name == name)
                .unwrap_or_else(|| {
                    eprintln!("unknown experiment `{name}`");
                    usage()
                }),
        ),
        _ => usage(),
    };
    let scale = Scale::from_env_or_exit();
    let tables = match selected {
        Some(exp) => (exp.build)(&cli.engine, &scale),
        None => {
            println!("# Control-independence reproduction — full evaluation");
            println!(
                "# instructions per workload: {}, seed: {:#x}\n",
                scale.instructions, scale.seed
            );
            run_all(&cli.engine, &scale)
        }
    };
    for t in &tables {
        cli.table(t);
    }
    cli.finish();
}
