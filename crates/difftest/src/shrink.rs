//! Automatic test-case reduction over [`StructuredProgram`] trees.
//!
//! Greedy delta debugging: propose one structural edit at a time (delete a
//! chunk of statements, drop an else arm, inline a diamond or loop body,
//! halve a loop's trip count, drop a register seed), keep the edit if the
//! failure predicate still fires on the re-emitted program, restart the pass
//! after every accepted edit. Because labels and branch targets are
//! regenerated on every [`StructuredProgram::emit`], no edit can produce an
//! unassemblable program — every candidate is a valid, terminating program.

use crate::tree::{block_mut, blocks};
use ci_workloads::{Stmt, StructuredProgram};

/// What the shrinker did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Statement nodes in the original failing program.
    pub original_nodes: usize,
    /// Statement nodes in the reduced program.
    pub final_nodes: usize,
    /// Predicate evaluations spent.
    pub tests: usize,
    /// Edits that preserved the failure and were kept.
    pub accepted: usize,
}

/// One candidate reduction. `at` is a block index in the walk order of
/// [`crate::tree`].
#[derive(Clone, Debug)]
enum Edit {
    /// Remove `block[start..start + len]`.
    DeleteRange { at: usize, start: usize, len: usize },
    /// Replace the `If` at `block[idx]` with its then-arm statements.
    InlineThen { at: usize, idx: usize },
    /// Drop the else arm of the `If` at `block[idx]` (keep the branch).
    DropEls { at: usize, idx: usize },
    /// Replace the `Loop` at `block[idx]` with one copy of its body.
    InlineLoop { at: usize, idx: usize },
    /// Halve the trip count of the `Loop` at `block[idx]`.
    HalveTrips { at: usize, idx: usize },
    /// Remove register seed `init[idx]`.
    DeleteInit { idx: usize },
}

/// All candidate edits for the current program, most aggressive first:
/// whole-block and large-chunk deletions before single statements, structure
/// collapses, then trip halvings and init pruning.
fn candidates(p: &StructuredProgram) -> Vec<Edit> {
    let mut out = Vec::new();
    let blocks = blocks(p);

    // Chunk deletions: per block, sizes n, n/2, …, 1 at every aligned offset.
    for (at, block) in blocks.iter().enumerate() {
        let n = block.stmts.len();
        let mut size = n;
        while size >= 1 {
            let mut start = 0;
            while start < n {
                out.push(Edit::DeleteRange {
                    at,
                    start,
                    len: size.min(n - start),
                });
                start += size;
            }
            if size == 1 {
                break;
            }
            size /= 2;
        }
    }

    // Structural collapses and loop weakenings.
    for (at, block) in blocks.iter().enumerate() {
        for (idx, s) in block.stmts.iter().enumerate() {
            match s {
                Stmt::If { els, .. } => {
                    out.push(Edit::InlineThen { at, idx });
                    if els.is_some() {
                        out.push(Edit::DropEls { at, idx });
                    }
                }
                Stmt::Loop { trips, .. } => {
                    out.push(Edit::InlineLoop { at, idx });
                    if *trips > 1 {
                        out.push(Edit::HalveTrips { at, idx });
                    }
                }
                Stmt::Op(_) | Stmt::Call(_) => {}
            }
        }
    }

    for idx in 0..p.init.len() {
        out.push(Edit::DeleteInit { idx });
    }
    out
}

/// Apply one edit, returning the edited program (`None` when the edit does
/// not apply — candidates are recomputed after every accepted edit, so this
/// only guards against stale indices).
fn apply(p: &StructuredProgram, edit: &Edit) -> Option<StructuredProgram> {
    let mut out = p.clone();
    match edit {
        Edit::DeleteRange { at, start, len } => {
            let l = block_mut(&mut out, *at)?;
            if *start + *len > l.len() || *len == 0 {
                return None;
            }
            l.drain(*start..*start + *len);
        }
        Edit::InlineThen { at, idx } => {
            let l = block_mut(&mut out, *at)?;
            let Stmt::If { then, .. } = l.get(*idx)? else {
                return None;
            };
            let then = then.clone();
            l.splice(*idx..=*idx, then);
        }
        Edit::DropEls { at, idx } => {
            let l = block_mut(&mut out, *at)?;
            let Stmt::If { els, .. } = l.get_mut(*idx)? else {
                return None;
            };
            els.take()?;
        }
        Edit::InlineLoop { at, idx } => {
            let l = block_mut(&mut out, *at)?;
            let Stmt::Loop { body, .. } = l.get(*idx)? else {
                return None;
            };
            let body = body.clone();
            l.splice(*idx..=*idx, body);
        }
        Edit::HalveTrips { at, idx } => {
            let l = block_mut(&mut out, *at)?;
            let Stmt::Loop { trips, .. } = l.get_mut(*idx)? else {
                return None;
            };
            if *trips <= 1 {
                return None;
            }
            *trips /= 2;
        }
        Edit::DeleteInit { idx } => {
            if *idx >= out.init.len() {
                return None;
            }
            out.init.remove(*idx);
        }
    }
    // Empty functions are fine (emit handles them), but drop trailing ones so
    // the reduced artifact is as small as it looks.
    while out.funcs.last().is_some_and(Vec::is_empty) {
        out.funcs.pop();
    }
    Some(out)
}

/// Reduce `start` to a (locally) minimal program on which `fails` still
/// returns `true`. `fails(start)` is assumed true; `budget` caps predicate
/// evaluations (each one typically re-runs the whole lockstep check).
pub fn shrink<F>(
    start: &StructuredProgram,
    budget: usize,
    mut fails: F,
) -> (StructuredProgram, ShrinkStats)
where
    F: FnMut(&StructuredProgram) -> bool,
{
    let mut stats = ShrinkStats {
        original_nodes: start.node_count(),
        ..ShrinkStats::default()
    };
    let mut cur = start.clone();
    'outer: loop {
        for edit in candidates(&cur) {
            if stats.tests >= budget {
                break 'outer;
            }
            let Some(next) = apply(&cur, &edit) else {
                continue;
            };
            // Only consider genuinely smaller programs (trip halving keeps
            // node count but reduces dynamic length; allow it too).
            let smaller = next.node_count() < cur.node_count()
                || next.init.len() < cur.init.len()
                || matches!(edit, Edit::HalveTrips { .. });
            if !smaller {
                continue;
            }
            stats.tests += 1;
            if fails(&next) {
                stats.accepted += 1;
                cur = next;
                continue 'outer; // blocks changed; restart the pass
            }
        }
        break; // full pass with no accepted edit: local minimum
    }
    stats.final_nodes = cur.node_count();
    (cur, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ci_isa::Reg;
    use ci_workloads::{random_structured, SimpleOp};

    fn has_mul(stmts: &[Stmt]) -> bool {
        stmts.iter().any(|s| match s {
            Stmt::Op(SimpleOp::Mul(..)) => true,
            Stmt::Op(_) | Stmt::Call(_) => false,
            Stmt::If { then, els, .. } => has_mul(then) || els.as_ref().is_some_and(|e| has_mul(e)),
            Stmt::Loop { body, .. } => has_mul(body),
        })
    }

    fn program_has_mul(p: &StructuredProgram) -> bool {
        has_mul(&p.body) || p.funcs.iter().any(|f| has_mul(f))
    }

    #[test]
    fn shrinks_to_the_predicate_kernel() {
        // Find a seed whose program contains a multiply, then shrink with
        // "contains a multiply" as the failure — the reduced program should
        // be almost nothing but that multiply.
        let mut tried = 0;
        for seed in 0.. {
            let sp = random_structured(seed, 120);
            if !program_has_mul(&sp) {
                continue;
            }
            tried += 1;
            let (min, stats) = shrink(&sp, 5_000, program_has_mul);
            assert!(program_has_mul(&min));
            assert_eq!(stats.original_nodes, sp.node_count());
            assert_eq!(stats.final_nodes, min.node_count());
            assert!(
                min.node_count() <= 2,
                "expected near-singleton, got {} nodes from {}",
                min.node_count(),
                sp.node_count()
            );
            assert!(!min.emit().is_empty());
            if tried == 3 {
                break;
            }
        }
    }

    #[test]
    fn shrink_respects_the_budget() {
        let sp = random_structured(5, 200);
        let (_, stats) = shrink(&sp, 7, |_| false);
        assert!(stats.tests <= 7);
        assert_eq!(stats.accepted, 0);
        assert_eq!(stats.final_nodes, stats.original_nodes);
    }

    #[test]
    fn edits_never_break_emission() {
        // Every single-edit neighbour of a generated program must still
        // assemble and terminate.
        let sp = random_structured(33, 80);
        let mut checked = 0;
        for edit in candidates(&sp) {
            if let Some(next) = apply(&sp, &edit) {
                let p = next.emit();
                let t = ci_emu::run_trace(&p, 100_000).unwrap();
                assert!(t.completed(), "edit {edit:?} broke termination");
                checked += 1;
            }
        }
        assert!(checked > 20, "only {checked} applicable edits");
    }

    #[test]
    fn init_pruning_reaches_empty_when_allowed() {
        let sp = StructuredProgram {
            init: vec![(Reg::R1, 1), (Reg::R2, 2)],
            body: vec![Stmt::Op(SimpleOp::Add(Reg::R3, Reg::R1, Reg::R2))],
            funcs: vec![],
        };
        let (min, _) = shrink(&sp, 100, |_| true);
        assert!(min.init.is_empty());
        assert!(min.body.is_empty());
    }
}
