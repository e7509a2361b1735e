//! Block navigation over [`StructuredProgram`] statement trees, shared by the
//! mutator and the shrinker.
//!
//! Every statement is a direct child of exactly one *block*: the body, an
//! `if` arm, a loop body, or a function. Both tools address blocks by their
//! index in one deterministic pre-order — the body and its nested arms
//! first, then each function — so every edit reduces to "find block `i`".

use ci_workloads::{Stmt, StructuredProgram};

/// One block in walk order.
pub(crate) struct Block<'p> {
    /// The block's direct children.
    pub stmts: &'p [Stmt],
    /// Loops enclosing the block.
    pub loop_depth: usize,
    /// Whether the block lies inside a leaf function.
    pub in_func: bool,
}

/// Every block of `program` in walk order; [`block_mut`] indexes into the
/// same order.
pub(crate) fn blocks(program: &StructuredProgram) -> Vec<Block<'_>> {
    fn descend<'p>(stmts: &'p [Stmt], loop_depth: usize, in_func: bool, out: &mut Vec<Block<'p>>) {
        out.push(Block {
            stmts,
            loop_depth,
            in_func,
        });
        for s in stmts {
            match s {
                Stmt::If { then, els, .. } => {
                    descend(then, loop_depth, in_func, out);
                    if let Some(e) = els {
                        descend(e, loop_depth, in_func, out);
                    }
                }
                Stmt::Loop { body, .. } => descend(body, loop_depth + 1, in_func, out),
                Stmt::Op(_) | Stmt::Call(_) => {}
            }
        }
    }
    let mut out = Vec::new();
    descend(&program.body, 0, false, &mut out);
    for func in &program.funcs {
        descend(func, 0, true, &mut out);
    }
    out
}

/// The `idx`-th block in walk order, mutably; `None` past the last block.
pub(crate) fn block_mut(program: &mut StructuredProgram, idx: usize) -> Option<&mut Vec<Stmt>> {
    fn find<'p>(block: &'p mut Vec<Stmt>, remaining: &mut usize) -> Option<&'p mut Vec<Stmt>> {
        if *remaining == 0 {
            return Some(block);
        }
        *remaining -= 1;
        for s in block {
            let found = match s {
                Stmt::If { then, els, .. } => {
                    find(then, remaining).or_else(|| find(els.as_mut()?, remaining))
                }
                Stmt::Loop { body, .. } => find(body, remaining),
                Stmt::Op(_) | Stmt::Call(_) => None,
            };
            if found.is_some() {
                return found;
            }
        }
        None
    }
    let mut remaining = idx;
    std::iter::once(&mut program.body)
        .chain(&mut program.funcs)
        .find_map(|root| find(root, &mut remaining))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ci_workloads::random_structured;

    #[test]
    fn block_mut_follows_the_walk_order() {
        for seed in 0..20 {
            let mut p = random_structured(seed, 120);
            let walk: Vec<Vec<Stmt>> = blocks(&p).iter().map(|b| b.stmts.to_vec()).collect();
            assert!(walk.len() > 1, "seed {seed}: no nested blocks");
            for (idx, expected) in walk.iter().enumerate() {
                assert_eq!(block_mut(&mut p, idx), Some(&mut expected.clone()));
            }
            assert!(block_mut(&mut p, walk.len()).is_none());
        }
    }
}
