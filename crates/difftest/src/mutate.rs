//! Coverage-guided mutation over [`StructuredProgram`] statement trees.
//!
//! The corpus fuzzer does not generate every trial from scratch: once a
//! program has demonstrated novel coverage it becomes a *parent*, and new
//! trials are structural edits of it — duplicate or splice subtrees, flip
//! branch conditions, perturb loop trip counts, rewrite individual ops.
//! Edits stay inside the invariants that make [`StructuredProgram::emit`]
//! safe by construction:
//!
//! - ops (and branch operands) only touch [`COMPUTE_REGS`] — never the
//!   emitter's scratch register or a live loop counter;
//! - loop nesting never exceeds [`MAX_LOOP_NEST`] (deeper nesting would
//!   alias an outer loop's counter register and hang the program);
//! - leaf functions never gain a [`Stmt::Call`] (a call inside a function
//!   body emits real recursion with no base case);
//! - trip counts and total node count stay bounded, so dynamic length
//!   cannot blow up unrecognisably past the trial's instruction budget.
//!
//! [`is_well_formed`] checks exactly these invariants and is the contract
//! the property tests enforce: *every* mutation of a well-formed program is
//! well-formed, emits, and halts. Mutation is a pure function of
//! `(program, seed)`, so a corpus entry's whole lineage replays from
//! integers.

use crate::tree::{block_mut, blocks, Block};
use ci_isa::Reg;
use ci_workloads::{
    CondKind, SimpleOp, SplitMix64, Stmt, StructuredProgram, COMPUTE_REGS, MAX_LOOP_NEST,
};

/// Maximum statement nodes a mutated program may hold. The generator clamps
/// its size hint to 400, so this leaves mutation headroom without letting
/// repeated duplication grow programs beyond what a trial budget can run.
pub const MAX_NODES: usize = 512;

/// Maximum loop trip count a mutation may set (the generator itself stays
/// at 3; a bit more room exercises deeper restart nesting).
pub const MAX_TRIPS: u32 = 6;

/// The structural edit a call to [`mutate`] performed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutationKind {
    /// Replaced one straight-line op with a freshly drawn one.
    PerturbOp,
    /// Inverted an `if` condition (or swapped its operands).
    FlipCond,
    /// Changed a loop's constant trip count.
    PerturbTrips,
    /// Changed one register's initial value.
    PerturbInit,
    /// Duplicated a statement in place (subtree and all).
    Duplicate,
    /// Deleted a statement (subtree and all).
    Delete,
    /// Swapped two statements within one block.
    Swap,
    /// Copied a random subtree into a random other block.
    Splice,
    /// Inserted a freshly drawn op at a random position.
    InsertOp,
    /// Wrapped a statement in a new skip-style `if`.
    WrapIf,
}

impl MutationKind {
    /// Every kind, in the order [`mutate`] samples them.
    pub const ALL: [MutationKind; 10] = [
        MutationKind::PerturbOp,
        MutationKind::FlipCond,
        MutationKind::PerturbTrips,
        MutationKind::PerturbInit,
        MutationKind::Duplicate,
        MutationKind::Delete,
        MutationKind::Swap,
        MutationKind::Splice,
        MutationKind::InsertOp,
        MutationKind::WrapIf,
    ];

    /// Stable lowercase name (for reports).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MutationKind::PerturbOp => "perturb-op",
            MutationKind::FlipCond => "flip-cond",
            MutationKind::PerturbTrips => "perturb-trips",
            MutationKind::PerturbInit => "perturb-init",
            MutationKind::Duplicate => "duplicate",
            MutationKind::Delete => "delete",
            MutationKind::Swap => "swap",
            MutationKind::Splice => "splice",
            MutationKind::InsertOp => "insert-op",
            MutationKind::WrapIf => "wrap-if",
        }
    }
}

/// Apply one structural mutation to `program`, deterministically from
/// `seed`. The result is guaranteed well-formed when the input is: each
/// sampled edit is validated with [`is_well_formed`] and resampled on
/// violation, with a fallback edit (insert or delete one op) that is always
/// legal.
#[must_use]
pub fn mutate(program: &StructuredProgram, seed: u64) -> (StructuredProgram, MutationKind) {
    let mut rng = SplitMix64::new(seed);
    for _ in 0..16 {
        let kind = MutationKind::ALL[rng.below(MutationKind::ALL.len() as u64) as usize];
        let mut candidate = program.clone();
        if apply(&mut candidate, kind, &mut rng)
            && candidate != *program
            && is_well_formed(&candidate)
        {
            return (candidate, kind);
        }
    }
    // Fallback: grow or (at the node cap) shrink by one op — always legal.
    let mut candidate = program.clone();
    if candidate.node_count() < MAX_NODES {
        candidate.body.push(Stmt::Op(random_op(&mut rng)));
        (candidate, MutationKind::InsertOp)
    } else {
        candidate.body.pop();
        (candidate, MutationKind::Delete)
    }
}

/// Whether `program` satisfies every invariant the emitter's
/// safe-by-construction argument rests on (see the module docs). Generated
/// programs satisfy this; [`mutate`] preserves it.
#[must_use]
pub fn is_well_formed(program: &StructuredProgram) -> bool {
    program.node_count() <= MAX_NODES
        && program
            .init
            .iter()
            .all(|(r, v)| is_compute(*r) && v.unsigned_abs() <= 1 << 20)
        && block_ok(&program.body, 0, false)
        && program.funcs.iter().all(|f| block_ok(f, 0, true))
}

fn block_ok(stmts: &[Stmt], loop_depth: usize, in_func: bool) -> bool {
    stmts.iter().all(|s| match s {
        Stmt::Op(op) => op_ok(op),
        Stmt::If {
            a, b, then, els, ..
        } => {
            is_compute(*a)
                && is_compute(*b)
                && block_ok(then, loop_depth, in_func)
                && els
                    .as_ref()
                    .is_none_or(|e| block_ok(e, loop_depth, in_func))
        }
        Stmt::Loop { trips, body } => {
            (1..=MAX_TRIPS).contains(trips)
                && loop_depth < MAX_LOOP_NEST
                && block_ok(body, loop_depth + 1, in_func)
        }
        Stmt::Call(_) => !in_func,
    })
}

fn is_compute(r: Reg) -> bool {
    COMPUTE_REGS.contains(&r)
}

fn op_ok(op: &SimpleOp) -> bool {
    match *op {
        SimpleOp::Add(rd, a, b)
        | SimpleOp::Sub(rd, a, b)
        | SimpleOp::Xor(rd, a, b)
        | SimpleOp::And(rd, a, b)
        | SimpleOp::Or(rd, a, b)
        | SimpleOp::Mul(rd, a, b)
        | SimpleOp::Slt(rd, a, b) => is_compute(rd) && is_compute(a) && is_compute(b),
        SimpleOp::Addi(rd, rs, imm) => is_compute(rd) && is_compute(rs) && imm.unsigned_abs() <= 64,
        SimpleOp::Srli(rd, rs, sh) => is_compute(rd) && is_compute(rs) && (0..=63).contains(&sh),
        // Absolute addresses stay inside the 0..64 data region the
        // generator uses (the indexed forms mask to 64..96 themselves).
        SimpleOp::Load(rd, addr) => is_compute(rd) && (0..64).contains(&addr),
        SimpleOp::Store(rs, addr) => is_compute(rs) && (0..64).contains(&addr),
        SimpleOp::IndexedLoad { base, rd } => is_compute(base) && is_compute(rd),
        SimpleOp::IndexedStore { base, rs } => is_compute(base) && is_compute(rs),
    }
}

// ---------------------------------------------------------------------------
// Tree navigation: edits address blocks and statements in the walk order of
// [`crate::tree`].

/// Block and position of the `n`-th statement (walk order) satisfying
/// `pred`; `None` when fewer than `n + 1` statements match.
fn nth_stmt<P: Fn(&Stmt) -> bool>(
    program: &StructuredProgram,
    n: usize,
    pred: P,
) -> Option<(usize, usize)> {
    blocks(program)
        .iter()
        .enumerate()
        .flat_map(|(b, block)| {
            block
                .stmts
                .iter()
                .enumerate()
                .filter(|(_, s)| pred(s))
                .map(move |(i, _)| (b, i))
        })
        .nth(n)
}

/// Apply `f` to the `n`-th statement (walk order) satisfying `pred`;
/// `false` when fewer than `n + 1` statements match.
fn edit_nth_stmt<P, F>(program: &mut StructuredProgram, n: usize, pred: P, f: F) -> bool
where
    P: Fn(&Stmt) -> bool,
    F: FnOnce(&mut Stmt),
{
    nth_stmt(program, n, pred)
        .is_some_and(|(b, i)| edit_block(program, b, |block| f(&mut block[i])))
}

fn count_stmts<P: Fn(&Stmt) -> bool>(program: &StructuredProgram, pred: P) -> usize {
    blocks(program)
        .iter()
        .map(|b| b.stmts.iter().filter(|s| pred(s)).count())
        .sum()
}

/// Apply `f` to the `idx`-th block in walk order.
fn edit_block<F: FnOnce(&mut Vec<Stmt>)>(
    program: &mut StructuredProgram,
    idx: usize,
    f: F,
) -> bool {
    block_mut(program, idx).map(f).is_some()
}

/// Deepest loop nesting inside a subtree (0 for loop-free statements).
fn subtree_nest(s: &Stmt) -> usize {
    match s {
        Stmt::Op(_) | Stmt::Call(_) => 0,
        Stmt::If { then, els, .. } => block_nest(then).max(els.as_deref().map_or(0, block_nest)),
        Stmt::Loop { body, .. } => 1 + block_nest(body),
    }
}

fn block_nest(stmts: &[Stmt]) -> usize {
    stmts.iter().map(subtree_nest).max().unwrap_or(0)
}

fn subtree_has_call(s: &Stmt) -> bool {
    match s {
        Stmt::Call(_) => true,
        Stmt::Op(_) => false,
        Stmt::If { then, els, .. } => {
            then.iter().any(subtree_has_call)
                || els.as_ref().is_some_and(|e| e.iter().any(subtree_has_call))
        }
        Stmt::Loop { body, .. } => body.iter().any(subtree_has_call),
    }
}

// ---------------------------------------------------------------------------
// The edits themselves.

fn apply(p: &mut StructuredProgram, kind: MutationKind, rng: &mut SplitMix64) -> bool {
    match kind {
        MutationKind::PerturbOp => {
            let n = count_stmts(p, |s| matches!(s, Stmt::Op(_)));
            if n == 0 {
                return false;
            }
            let target = rng.below(n as u64) as usize;
            let op = random_op(rng);
            edit_nth_stmt(
                p,
                target,
                |s| matches!(s, Stmt::Op(_)),
                |s| *s = Stmt::Op(op),
            )
        }
        MutationKind::FlipCond => {
            let n = count_stmts(p, |s| matches!(s, Stmt::If { .. }));
            if n == 0 {
                return false;
            }
            let target = rng.below(n as u64) as usize;
            let swap_operands = rng.chance(33);
            edit_nth_stmt(
                p,
                target,
                |s| matches!(s, Stmt::If { .. }),
                |s| {
                    if let Stmt::If { kind, a, b, .. } = s {
                        if swap_operands {
                            std::mem::swap(a, b);
                        } else {
                            *kind = match kind {
                                CondKind::Eq => CondKind::Ne,
                                CondKind::Ne => CondKind::Eq,
                                CondKind::Lt => CondKind::Ge,
                                CondKind::Ge => CondKind::Lt,
                            };
                        }
                    }
                },
            )
        }
        MutationKind::PerturbTrips => {
            let n = count_stmts(p, |s| matches!(s, Stmt::Loop { .. }));
            if n == 0 {
                return false;
            }
            let target = rng.below(n as u64) as usize;
            let new_trips = 1 + rng.below(u64::from(MAX_TRIPS)) as u32;
            edit_nth_stmt(
                p,
                target,
                |s| matches!(s, Stmt::Loop { .. }),
                |s| {
                    if let Stmt::Loop { trips, .. } = s {
                        *trips = new_trips;
                    }
                },
            )
        }
        MutationKind::PerturbInit => {
            if p.init.is_empty() {
                return false;
            }
            let i = rng.below(p.init.len() as u64) as usize;
            p.init[i].1 = rng.below(2048) as i64 - 1024;
            true
        }
        MutationKind::Duplicate => {
            let budget = MAX_NODES - p.node_count().min(MAX_NODES);
            let Some((block_idx, len)) = pick_block(p, rng, |b| !b.stmts.is_empty()) else {
                return false;
            };
            let i = rng.below(len as u64) as usize;
            let mut grew = false;
            edit_block(p, block_idx, |block| {
                if block[i].node_count() <= budget {
                    let copy = block[i].clone();
                    block.insert(i + 1, copy);
                    grew = true;
                }
            });
            grew
        }
        MutationKind::Delete => {
            let Some((block_idx, len)) = pick_block(p, rng, |b| !b.stmts.is_empty()) else {
                return false;
            };
            let i = rng.below(len as u64) as usize;
            edit_block(p, block_idx, |block| {
                block.remove(i);
            })
        }
        MutationKind::Swap => {
            let Some((block_idx, len)) = pick_block(p, rng, |b| b.stmts.len() > 1) else {
                return false;
            };
            let i = rng.below(len as u64) as usize;
            let j = rng.below(len as u64) as usize;
            if i == j {
                return false;
            }
            edit_block(p, block_idx, |block| block.swap(i, j))
        }
        MutationKind::Splice => {
            let n = count_stmts(p, |_| true);
            if n == 0 {
                return false;
            }
            // Copy a random subtree out...
            let source = rng.below(n as u64) as usize;
            let Some((b, i)) = nth_stmt(p, source, |_| true) else {
                return false;
            };
            let donor = blocks(p)[b].stmts[i].clone();
            let nest = subtree_nest(&donor);
            let has_call = subtree_has_call(&donor);
            let budget = MAX_NODES - p.node_count().min(MAX_NODES);
            if donor.node_count() > budget {
                return false;
            }
            // ...into a block where it keeps every invariant.
            let Some((block_idx, len)) = pick_block(p, rng, |b| {
                b.loop_depth + nest <= MAX_LOOP_NEST && !(b.in_func && has_call)
            }) else {
                return false;
            };
            let at = rng.below(len as u64 + 1) as usize;
            edit_block(p, block_idx, |block| block.insert(at, donor))
        }
        MutationKind::InsertOp => {
            if p.node_count() >= MAX_NODES {
                return false;
            }
            let Some((block_idx, len)) = pick_block(p, rng, |_| true) else {
                return false;
            };
            let at = rng.below(len as u64 + 1) as usize;
            let op = random_op(rng);
            edit_block(p, block_idx, |block| block.insert(at, Stmt::Op(op)))
        }
        MutationKind::WrapIf => {
            if p.node_count() >= MAX_NODES {
                return false;
            }
            let Some((block_idx, len)) = pick_block(p, rng, |b| !b.stmts.is_empty()) else {
                return false;
            };
            let i = rng.below(len as u64) as usize;
            let kind = match rng.below(4) {
                0 => CondKind::Eq,
                1 => CondKind::Ne,
                2 => CondKind::Lt,
                _ => CondKind::Ge,
            };
            let (a, b) = (random_reg(rng), random_reg(rng));
            edit_block(p, block_idx, |block| {
                let inner = block.remove(i);
                block.insert(
                    i,
                    Stmt::If {
                        kind,
                        a,
                        b,
                        then: vec![inner],
                        els: None,
                    },
                );
            })
        }
    }
}

/// Uniform choice among blocks passing `keep`: the block's walk index and
/// length, or `None` when no block passes.
fn pick_block<F: Fn(&Block) -> bool>(
    p: &StructuredProgram,
    rng: &mut SplitMix64,
    keep: F,
) -> Option<(usize, usize)> {
    let eligible: Vec<(usize, usize)> = blocks(p)
        .iter()
        .enumerate()
        .filter(|(_, b)| keep(b))
        .map(|(i, b)| (i, b.stmts.len()))
        .collect();
    if eligible.is_empty() {
        None
    } else {
        Some(eligible[rng.below(eligible.len() as u64) as usize])
    }
}

fn random_reg(rng: &mut SplitMix64) -> Reg {
    COMPUTE_REGS[rng.below(COMPUTE_REGS.len() as u64) as usize]
}

/// Draw a fresh straight-line op over the compute registers (same
/// distribution family as the generator's).
fn random_op(rng: &mut SplitMix64) -> SimpleOp {
    let rd = random_reg(rng);
    let rs1 = random_reg(rng);
    let rs2 = random_reg(rng);
    match rng.below(12) {
        0 => SimpleOp::Add(rd, rs1, rs2),
        1 => SimpleOp::Sub(rd, rs1, rs2),
        2 => SimpleOp::Xor(rd, rs1, rs2),
        3 => SimpleOp::And(rd, rs1, rs2),
        4 => SimpleOp::Or(rd, rs1, rs2),
        5 => SimpleOp::Mul(rd, rs1, rs2),
        6 => SimpleOp::Addi(rd, rs1, rng.below(64) as i64 - 32),
        7 => SimpleOp::Srli(rd, rs1, rng.below(8) as i64),
        8 => SimpleOp::Slt(rd, rs1, rs2),
        9 => SimpleOp::Load(rd, rng.below(64) as i64),
        10 => SimpleOp::Store(rs1, rng.below(64) as i64),
        _ => {
            let base = random_reg(rng);
            if rng.chance(50) {
                SimpleOp::IndexedLoad { base, rd }
            } else {
                SimpleOp::IndexedStore { base, rs: rs1 }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ci_workloads::random_structured;

    #[test]
    fn generated_programs_are_well_formed() {
        for seed in 0..50 {
            let p = random_structured(seed, 20 + (seed as usize % 200));
            assert!(is_well_formed(&p), "seed {seed} not well-formed");
        }
    }

    #[test]
    fn mutation_is_deterministic() {
        let p = random_structured(7, 80);
        for seed in 0..20 {
            assert_eq!(mutate(&p, seed), mutate(&p, seed), "seed {seed}");
        }
    }

    #[test]
    fn mutation_changes_the_program() {
        let p = random_structured(11, 60);
        let mut distinct = 0;
        for seed in 0..40 {
            let (m, _) = mutate(&p, seed);
            if m != p {
                distinct += 1;
            }
        }
        // Every mutation must actually edit; the no-op guard in `mutate`
        // enforces it except through the fallback, which also edits.
        assert_eq!(distinct, 40);
    }

    #[test]
    fn all_kinds_are_reachable() {
        let p = random_structured(3, 120);
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..4000 {
            let (_, kind) = mutate(&p, seed);
            seen.insert(kind.name());
        }
        for kind in MutationKind::ALL {
            assert!(seen.contains(kind.name()), "{} never sampled", kind.name());
        }
    }

    #[test]
    fn deep_mutation_chains_stay_well_formed_and_halt() {
        let mut rng = SplitMix64::new(0xC0FFEE);
        for start in 0..8 {
            let mut p = random_structured(start, 60);
            for step in 0..25 {
                let (m, kind) = mutate(&p, rng.next_u64());
                assert!(
                    is_well_formed(&m),
                    "start {start} step {step}: {} broke well-formedness",
                    kind.name()
                );
                p = m;
            }
            // Well-formedness implies termination; prove it on the final
            // program of each chain (the slowest part of this test).
            let t = ci_emu::run_trace(&p.emit(), 2_000_000).expect("emits a valid program");
            assert!(t.completed(), "start {start}: mutant did not halt");
        }
    }

    #[test]
    fn well_formedness_rejects_each_violation() {
        let base = random_structured(5, 40);
        assert!(is_well_formed(&base));

        // Reserved register in an op.
        let mut bad = base.clone();
        bad.body
            .push(Stmt::Op(SimpleOp::Addi(Reg::R20, Reg::R1, 1)));
        assert!(!is_well_formed(&bad));

        // Call inside a leaf function.
        let mut bad = base.clone();
        bad.funcs.push(vec![Stmt::Call(0)]);
        assert!(!is_well_formed(&bad));

        // Loop nesting past the counter banks.
        let mut bad = base.clone();
        let mut nest = Stmt::Loop {
            trips: 1,
            body: vec![],
        };
        for _ in 0..MAX_LOOP_NEST {
            nest = Stmt::Loop {
                trips: 1,
                body: vec![nest],
            };
        }
        bad.body.push(nest);
        assert!(!is_well_formed(&bad));

        // Zero or oversized trip counts.
        let mut bad = base.clone();
        bad.body.push(Stmt::Loop {
            trips: 0,
            body: vec![],
        });
        assert!(!is_well_formed(&bad));
        let mut bad = base.clone();
        bad.body.push(Stmt::Loop {
            trips: MAX_TRIPS + 1,
            body: vec![],
        });
        assert!(!is_well_formed(&bad));

        // Out-of-region absolute address.
        let mut bad = base;
        bad.body.push(Stmt::Op(SimpleOp::Load(Reg::R1, 4096)));
        assert!(!is_well_formed(&bad));
    }
}
