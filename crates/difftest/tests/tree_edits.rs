//! Pins every structural edit the fuzzer makes to a program tree.
//!
//! The mutator and the shrinker both address statement lists by walking the
//! program's blocks in pre-order. Refactoring that walk must not change a
//! single mutant or a single shrink result, so this battery records, in
//! `tests/tree_edits.txt`:
//!
//! - `mutate(random_structured(seed, 120), k)` for 20 seeds and several `k`:
//!   the [`MutationKind`] and an FNV-1a of the mutant's `Debug` text;
//! - `shrink` under three pure predicates ("contains a multiply", "has a loop
//!   with trips >= 4", "emits >= 30 instructions") at a full and a tight
//!   budget, plus the corrupt-oracle failure of the harness tests: an FNV-1a
//!   of the reduced program and all four [`ShrinkStats`] fields.
//!
//! To bless an *intended* change to mutation or shrinking:
//!
//! ```text
//! UPDATE_TREE_EDITS=1 cargo test -p ci-difftest --test tree_edits
//! ```

use ci_difftest::{mutate, run_locked, shrink, ShrinkStats, TrialSpec};
use ci_workloads::{random_structured, SimpleOp, Stmt, StructuredProgram};
use std::fmt::Write as _;
use std::path::PathBuf;

const SEEDS: std::ops::Range<u64> = 0..20;
const SIZE: usize = 120;
/// Mutation seeds per program: `seed * MUTANTS + j` for `j < MUTANTS`, so
/// every program sees a different draw of mutation kinds.
const MUTANTS: u64 = 10;
/// A budget that reaches a local minimum, and one that cuts reduction short
/// (so the exact order of the first candidates shows).
const BUDGETS: [usize; 2] = [2_000, 40];

fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn program_hash(p: &StructuredProgram) -> u64 {
    fnv1a(&format!("{p:?}"))
}

fn any_stmt(p: &StructuredProgram, pred: &dyn Fn(&Stmt) -> bool) -> bool {
    fn block(stmts: &[Stmt], pred: &dyn Fn(&Stmt) -> bool) -> bool {
        stmts.iter().any(|s| {
            pred(s)
                || match s {
                    Stmt::If { then, els, .. } => {
                        block(then, pred) || els.as_ref().is_some_and(|e| block(e, pred))
                    }
                    Stmt::Loop { body, .. } => block(body, pred),
                    Stmt::Op(_) | Stmt::Call(_) => false,
                }
        })
    }
    block(&p.body, pred) || p.funcs.iter().any(|f| block(f, pred))
}

fn has_mul(p: &StructuredProgram) -> bool {
    any_stmt(p, &|s| matches!(s, Stmt::Op(SimpleOp::Mul(..))))
}

fn has_long_loop(p: &StructuredProgram) -> bool {
    any_stmt(p, &|s| matches!(s, Stmt::Loop { trips, .. } if *trips >= 4))
}

fn emits_30(p: &StructuredProgram) -> bool {
    p.emit().len() >= 30
}

/// The generator never draws more than 3 trips, so the long-loop predicate
/// starts from the first mutant in a deterministic chain that has one.
fn long_loop_start(seed: u64) -> Option<StructuredProgram> {
    let mut p = random_structured(seed, SIZE);
    for step in 0..64u64 {
        if has_long_loop(&p) {
            return Some(p);
        }
        p = mutate(&p, seed.wrapping_mul(1_000).wrapping_add(step)).0;
    }
    None
}

fn shrink_line(out: &mut String, label: &str, min: &StructuredProgram, stats: ShrinkStats) {
    writeln!(
        out,
        "shrink {label} hash={:016x} original_nodes={} final_nodes={} tests={} accepted={}",
        program_hash(min),
        stats.original_nodes,
        stats.final_nodes,
        stats.tests,
        stats.accepted
    )
    .unwrap();
}

fn run_battery() -> String {
    let mut out = String::new();
    for seed in SEEDS {
        let p = random_structured(seed, SIZE);
        for k in seed * MUTANTS..(seed + 1) * MUTANTS {
            let (m, kind) = mutate(&p, k);
            writeln!(
                out,
                "mutate seed={seed} k={k} kind={} hash={:016x}",
                kind.name(),
                program_hash(&m)
            )
            .unwrap();
        }
    }
    type Pred = fn(&StructuredProgram) -> bool;
    let predicates: [(&str, Pred); 3] = [
        ("mul", has_mul),
        ("long-loop", has_long_loop),
        ("emits-30", emits_30),
    ];
    for seed in SEEDS {
        for (name, pred) in predicates {
            let start = if name == "long-loop" {
                long_loop_start(seed)
            } else {
                Some(random_structured(seed, SIZE)).filter(pred)
            };
            let Some(start) = start else {
                writeln!(out, "shrink seed={seed} pred={name} skipped").unwrap();
                continue;
            };
            for budget in BUDGETS {
                let (min, stats) = shrink(&start, budget, pred);
                assert!(pred(&min), "seed {seed} {name}: shrinking lost the failure");
                shrink_line(
                    &mut out,
                    &format!("seed={seed} pred={name} budget={budget}"),
                    &min,
                    stats,
                );
            }
        }
    }

    // The corrupt-oracle failure of the harness tests: a real lockstep
    // divergence as the predicate. Caught checker panics stay quiet; the
    // default hook comes back so a fixture mismatch still reports.
    std::panic::set_hook(Box::new(|_| {}));
    let spec = TrialSpec::generate(0xFEED_FACE);
    let original = random_structured(spec.program_seed, spec.size_hint);
    let (_, ci_config) = spec.detailed_variants()[1];
    let fails = |candidate: &StructuredProgram| {
        let p = candidate.emit();
        !p.is_empty()
            && run_locked(&p, ci_config, spec.max_insts, Some(0))
                .panic
                .is_some()
    };
    let (min, stats) = shrink(&original, 2_000, fails);
    let _ = std::panic::take_hook();
    shrink_line(&mut out, "corrupt-oracle budget=2000", &min, stats);
    out
}

#[test]
fn mutants_and_shrink_results_match_pinned_fingerprints() {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "tree_edits.txt"]
        .iter()
        .collect();
    let actual = run_battery();
    if std::env::var_os("UPDATE_TREE_EDITS").is_some() {
        std::fs::write(&path, &actual).expect("write fixtures");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing {}; bless with UPDATE_TREE_EDITS=1", path.display()));
    for (exp, act) in expected.lines().zip(actual.lines()) {
        assert_eq!(exp, act, "tree edit diverged");
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "fixture line count changed"
    );
}
