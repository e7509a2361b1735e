//! The architectural reference: one correct-path trace, built once and
//! shared by every simulator that checks against it.

use crate::{run_trace, DynInst, EmuError, Trace};
use ci_bpred::GlobalHistory;
use ci_isa::{InstClass, Program};

/// A correct-path [`Trace`] plus the global branch history before each of
/// its instructions.
///
/// The detailed pipeline checks every retirement against it (the paper's
/// parallel "fully-accurate window", A.3.1) and reads the history prefix
/// for its oracle-history mode (Figure 12); the idealized models read the
/// same instructions. It depends only on the program and the instruction
/// budget, so one `Arc<ArchReference>` serves every machine simulated on
/// that program.
///
/// ```
/// use ci_emu::{run_trace, ArchReference};
/// use ci_isa::{Asm, Reg};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut a = Asm::new();
/// a.li(Reg::R1, 2);
/// a.label("top")?;
/// a.addi(Reg::R1, Reg::R1, -1);
/// a.bne(Reg::R1, Reg::R0, "top");
/// a.halt();
/// let program = a.assemble()?;
/// let r = ArchReference::build(&program, 100)?;
/// assert_eq!(r.trace(), &run_trace(&program, 100)?);
/// assert_eq!(r.history_before(r.len()).bits(2), 0b10); // taken, then not
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ArchReference {
    trace: Trace,
    /// `hist[i]`: conditional-branch outcomes before instruction `i`, with
    /// one extra final entry for the history after the last instruction.
    hist: Vec<GlobalHistory>,
}

impl ArchReference {
    /// Emulate `program` for up to `max_insts` instructions and build the
    /// reference from the trace.
    ///
    /// # Errors
    /// [`EmuError::PcOutOfRange`] if control flow leaves the program.
    pub fn build(program: &Program, max_insts: u64) -> Result<ArchReference, EmuError> {
        ArchReference::build_profiled(program, max_insts, &mut ci_obs::NoopProfiler)
    }

    /// [`ArchReference::build`] with the emulation's host time attributed
    /// to an `"emu_trace"` span on `prof`.
    ///
    /// # Errors
    /// [`EmuError::PcOutOfRange`] if control flow leaves the program.
    pub fn build_profiled<F: ci_obs::Profiler>(
        program: &Program,
        max_insts: u64,
        prof: &mut F,
    ) -> Result<ArchReference, EmuError> {
        prof.enter("emu_trace");
        let trace = run_trace(program, max_insts);
        prof.exit();
        trace.map(ArchReference::from_trace)
    }

    /// The reference for an existing correct-path trace.
    #[must_use]
    pub fn from_trace(trace: Trace) -> ArchReference {
        let mut hist = Vec::with_capacity(trace.len() + 1);
        let mut h = GlobalHistory::new();
        for d in &trace {
            hist.push(h);
            if d.class() == InstClass::CondBranch {
                h.push(d.taken);
            }
        }
        hist.push(h);
        ArchReference { trace, hist }
    }

    /// The correct-path trace.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The instructions in execution order.
    #[must_use]
    pub fn insts(&self) -> &[DynInst] {
        self.trace.insts()
    }

    /// Number of dynamic instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether the reference is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Whether the program ran to its `halt` within the budget.
    #[must_use]
    pub fn completed(&self) -> bool {
        self.trace.completed()
    }

    /// The global history of conditional-branch outcomes before instruction
    /// `i` (`i == len()` gives the history after the last one).
    ///
    /// # Panics
    /// Panics if `i > len()`.
    #[must_use]
    pub fn history_before(&self, i: usize) -> GlobalHistory {
        self.hist[i]
    }
}

impl std::ops::Index<usize> for ArchReference {
    type Output = DynInst;

    fn index(&self, i: usize) -> &DynInst {
        &self.trace[i]
    }
}
