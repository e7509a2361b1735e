//! Return address stack.

use ci_isa::Pc;

/// A return-address stack with optional depth bound and cheap whole-stack
/// checkpointing.
///
/// The paper's idealized study assumes a *perfect* RAS; an unbounded stack
/// ([`ReturnAddressStack::perfect`]) consulted and updated in program order is
/// exactly that. The pipeline simulator snapshots the stack at each fetched
/// control instruction and restores it on recovery, which keeps the stack
/// consistent across squashes and restart sequences.
///
/// ```
/// use ci_bpred::ReturnAddressStack;
/// use ci_isa::Pc;
///
/// let mut ras = ReturnAddressStack::perfect();
/// ras.push(Pc(10));
/// ras.push(Pc(20));
/// assert_eq!(ras.pop(), Some(Pc(20)));
/// assert_eq!(ras.pop(), Some(Pc(10)));
/// assert_eq!(ras.pop(), None);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReturnAddressStack {
    stack: Vec<Pc>,
    max_depth: Option<usize>,
}

impl ReturnAddressStack {
    /// An unbounded ("perfect") stack.
    #[must_use]
    pub fn perfect() -> ReturnAddressStack {
        ReturnAddressStack {
            stack: Vec::new(),
            max_depth: None,
        }
    }

    /// A stack bounded to `depth` entries; pushes beyond the bound drop the
    /// oldest entry (a real hardware RAS overwrites circularly).
    #[must_use]
    pub fn bounded(depth: usize) -> ReturnAddressStack {
        ReturnAddressStack {
            stack: Vec::new(),
            max_depth: Some(depth),
        }
    }

    /// Push a return address (on a call).
    pub fn push(&mut self, ret: Pc) {
        if let Some(d) = self.max_depth {
            if self.stack.len() == d && d > 0 {
                self.stack.remove(0);
            } else if d == 0 {
                return;
            }
        }
        self.stack.push(ret);
    }

    /// Pop the predicted return address (on a return).
    pub fn pop(&mut self) -> Option<Pc> {
        self.stack.pop()
    }

    /// Current depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// The stacked return addresses, oldest first (the next
    /// [`ReturnAddressStack::pop`] returns the last one).
    #[must_use]
    pub fn entries(&self) -> &[Pc] {
        &self.stack
    }

    /// Snapshot the entire stack for later [`ReturnAddressStack::restore`].
    #[must_use]
    pub fn snapshot(&self) -> ReturnAddressStack {
        self.clone()
    }

    /// Restore a snapshot taken earlier.
    pub fn restore(&mut self, snap: &ReturnAddressStack) {
        self.stack.clone_from(&snap.stack);
        self.max_depth = snap.max_depth;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut r = ReturnAddressStack::perfect();
        r.push(Pc(1));
        r.push(Pc(2));
        r.push(Pc(3));
        assert_eq!(r.depth(), 3);
        assert_eq!(r.pop(), Some(Pc(3)));
        assert_eq!(r.pop(), Some(Pc(2)));
        assert_eq!(r.pop(), Some(Pc(1)));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn bounded_drops_oldest() {
        let mut r = ReturnAddressStack::bounded(2);
        r.push(Pc(1));
        r.push(Pc(2));
        r.push(Pc(3));
        assert_eq!(r.depth(), 2);
        assert_eq!(r.entries(), &[Pc(2), Pc(3)]);
        assert_eq!(r.pop(), Some(Pc(3)));
        assert_eq!(r.pop(), Some(Pc(2)));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn zero_depth_never_stores() {
        let mut r = ReturnAddressStack::bounded(0);
        r.push(Pc(1));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn snapshot_restore() {
        let mut r = ReturnAddressStack::perfect();
        r.push(Pc(1));
        let snap = r.snapshot();
        r.push(Pc(2));
        r.pop();
        r.pop();
        assert_eq!(r.depth(), 0);
        r.restore(&snap);
        assert_eq!(r.depth(), 1);
        assert_eq!(r.pop(), Some(Pc(1)));
    }
}
