//! Dynamic instruction records and whole-program traces.

use ci_isa::{Addr, Inst, InstClass, Pc, Reg};

/// One dynamically executed instruction.
///
/// Produced by the functional [`crate::Emulator`] (correct path) and by
/// [`crate::WrongPathEmu`] (mispredicted paths, with their real wrong
/// values). Timing simulators consume these records; the pipeline simulator
/// also uses them as its architectural reference at retirement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DynInst {
    /// The instruction's PC.
    pub pc: Pc,
    /// The decoded instruction.
    pub inst: Inst,
    /// The PC of the next instruction actually executed.
    pub next_pc: Pc,
    /// For conditional branches, whether the branch was taken. `false` for
    /// all other classes.
    pub taken: bool,
    /// Effective address for loads and stores.
    pub addr: Option<Addr>,
    /// The value produced: destination result for register writers, the
    /// stored value for stores, `None` otherwise.
    pub value: Option<u64>,
}

impl DynInst {
    /// The instruction's class.
    #[must_use]
    pub fn class(&self) -> InstClass {
        self.inst.class()
    }

    /// Architectural destination register, if any (never `r0`).
    #[must_use]
    pub fn dest(&self) -> Option<Reg> {
        self.inst.dest()
    }

    /// Architectural source registers (excluding `r0`).
    pub fn sources(&self) -> impl Iterator<Item = Reg> {
        self.inst.sources()
    }

    /// Whether a fetch unit needs a prediction to proceed past this
    /// instruction (conditional branch or indirect control flow).
    #[must_use]
    pub fn needs_prediction(&self) -> bool {
        self.class().needs_prediction()
    }

    /// One-line human-readable summary for diagnostics: PC, disassembly,
    /// actual next PC, and whichever of address/value/direction apply.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = format!("{} {} -> {}", self.pc, self.inst, self.next_pc);
        if let Some(a) = self.addr {
            s.push_str(&format!(" addr={a}"));
        }
        if let Some(v) = self.value {
            s.push_str(&format!(" value={v:#x}"));
        }
        if self.class() == InstClass::CondBranch {
            s.push_str(if self.taken { " taken" } else { " not-taken" });
        }
        s
    }
}

/// A correct-path dynamic instruction trace.
///
/// ```
/// use ci_isa::{Asm, Reg};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut a = Asm::new();
/// a.li(Reg::R1, 1);
/// a.halt();
/// let trace = ci_emu::run_trace(&a.assemble()?, 10)?;
/// assert!(trace.completed());
/// assert_eq!(trace.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    insts: Vec<DynInst>,
    completed: bool,
}

impl Trace {
    pub(crate) fn new(insts: Vec<DynInst>, completed: bool) -> Trace {
        Trace { insts, completed }
    }

    /// Assemble a trace from raw parts — for simulators that interleave
    /// tracing with other per-instruction work and cannot use
    /// [`crate::run_trace`].
    #[must_use]
    pub fn from_parts(insts: Vec<DynInst>, completed: bool) -> Trace {
        Trace { insts, completed }
    }

    /// Number of dynamic instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Whether the program ran to its `halt` (as opposed to hitting the
    /// caller's instruction budget).
    #[must_use]
    pub fn completed(&self) -> bool {
        self.completed
    }

    /// The instructions in execution order.
    #[must_use]
    pub fn insts(&self) -> &[DynInst] {
        &self.insts
    }

    /// The `i`-th dynamic instruction.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<&DynInst> {
        self.insts.get(i)
    }

    /// Iterate over the instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, DynInst> {
        self.insts.iter()
    }

    /// Count of instructions needing prediction (conditional branches and
    /// indirect jumps/returns).
    #[must_use]
    pub fn predicted_control_count(&self) -> usize {
        self.insts.iter().filter(|d| d.needs_prediction()).count()
    }
}

impl std::ops::Index<usize> for Trace {
    type Output = DynInst;

    fn index(&self, i: usize) -> &DynInst {
        &self.insts[i]
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a DynInst;
    type IntoIter = std::slice::Iter<'a, DynInst>;

    fn into_iter(self) -> Self::IntoIter {
        self.insts.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ci_isa::{Asm, Op};

    fn sample() -> Trace {
        let mut a = Asm::new();
        a.li(Reg::R1, 2);
        a.label("top").unwrap();
        a.addi(Reg::R1, Reg::R1, -1);
        a.bne(Reg::R1, Reg::R0, "top");
        a.halt();
        crate::run_trace(&a.assemble().unwrap(), 100).unwrap()
    }

    #[test]
    fn indexing_and_iteration() {
        let t = sample();
        assert_eq!(t.len(), 6);
        assert_eq!(t[0].inst.op, Op::Addi);
        assert_eq!(t.iter().count(), t.len());
        assert_eq!((&t).into_iter().count(), t.len());
        assert!(t.get(100).is_none());
    }

    #[test]
    fn branch_records() {
        let t = sample();
        // First bne: r1 == 1, taken.
        let b1 = t[2];
        assert_eq!(b1.class(), InstClass::CondBranch);
        assert!(b1.taken);
        assert_eq!(b1.next_pc, Pc(1));
        // Second bne: r1 == 0, not taken.
        let b2 = t[4];
        assert!(!b2.taken);
        assert_eq!(b2.next_pc, Pc(3));
        assert_eq!(t.predicted_control_count(), 2);
    }

    #[test]
    fn values_recorded() {
        let t = sample();
        assert_eq!(t[0].value, Some(2));
        assert_eq!(t[1].value, Some(1));
        assert_eq!(t[0].dest(), Some(Reg::R1));
    }
}
