//! The in-order functional emulator.

use crate::exec::{alu_result, branch_taken, effective_addr};
use crate::{DynInst, Memory, Trace, WrongPathEmu};
use ci_isa::{Addr, InstClass, Pc, Program, Reg};
use std::error::Error;
use std::fmt;

/// Errors raised during functional emulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EmuError {
    /// Control flow left the program (no instruction at this PC). Correct
    /// programs end in `halt`, so this indicates a bad program or a bug.
    PcOutOfRange(Pc),
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::PcOutOfRange(pc) => write!(f, "control flow left the program at {pc}"),
        }
    }
}

impl Error for EmuError {}

/// Register/memory access abstraction so the correct-path emulator and the
/// copy-on-write wrong-path emulator share one `step` implementation.
pub(crate) trait ExecCtx {
    fn read_reg(&self, r: Reg) -> u64;
    fn write_reg(&mut self, r: Reg, v: u64);
    fn read_mem(&self, a: Addr) -> u64;
    fn write_mem(&mut self, a: Addr, v: u64);
}

/// Execute the instruction at `pc` against `ctx`.
///
/// Returns the dynamic record and whether the machine halted.
pub(crate) fn exec_step<C: ExecCtx>(
    program: &Program,
    pc: Pc,
    ctx: &mut C,
) -> Result<(DynInst, bool), EmuError> {
    let inst = *program.fetch(pc).ok_or(EmuError::PcOutOfRange(pc))?;
    let class = inst.class();
    let a = ctx.read_reg(inst.rs1);
    let b = ctx.read_reg(inst.rs2);

    let mut taken = false;
    let mut addr = None;
    let mut value = None;
    let mut halted = false;

    let next_pc = match class {
        InstClass::CondBranch => {
            taken = branch_taken(inst.op, a, b);
            if taken {
                Pc(inst.imm as u32)
            } else {
                pc.next()
            }
        }
        InstClass::Jump => Pc(inst.imm as u32),
        InstClass::Call => {
            let link = u64::from(pc.next().0);
            ctx.write_reg(inst.rd, link);
            if inst.rd != Reg::R0 {
                value = Some(link);
            }
            Pc(inst.imm as u32)
        }
        InstClass::Return | InstClass::IndirectJump => {
            let target = Pc(a.wrapping_add(inst.imm as u64) as u32);
            let link = u64::from(pc.next().0);
            ctx.write_reg(inst.rd, link);
            if inst.rd != Reg::R0 {
                value = Some(link);
            }
            target
        }
        InstClass::Load => {
            let ea = effective_addr(a, inst.imm);
            let v = ctx.read_mem(ea);
            ctx.write_reg(inst.rd, v);
            addr = Some(ea);
            value = Some(v);
            pc.next()
        }
        InstClass::Store => {
            let ea = effective_addr(a, inst.imm);
            ctx.write_mem(ea, b);
            addr = Some(ea);
            value = Some(b);
            pc.next()
        }
        InstClass::Halt => {
            halted = true;
            pc.next()
        }
        InstClass::IntAlu | InstClass::IntMul | InstClass::IntDiv => {
            let v = alu_result(inst.op, a, b, inst.imm);
            ctx.write_reg(inst.rd, v);
            if inst.dest().is_some() {
                value = Some(v);
            }
            pc.next()
        }
    };

    Ok((
        DynInst {
            pc,
            inst,
            next_pc,
            taken,
            addr,
            value,
        },
        halted,
    ))
}

#[derive(Debug)]
struct ArchCtx {
    regs: [u64; Reg::COUNT],
    mem: Memory,
}

impl ExecCtx for ArchCtx {
    fn read_reg(&self, r: Reg) -> u64 {
        self.regs[r.number() as usize]
    }
    fn write_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.number() as usize] = v;
        }
    }
    fn read_mem(&self, a: Addr) -> u64 {
        self.mem.read(a)
    }
    fn write_mem(&mut self, a: Addr, v: u64) {
        self.mem.write(a, v);
    }
}

/// The in-order functional emulator: the architecturally correct execution of
/// a [`Program`].
///
/// ```
/// use ci_isa::{Asm, Reg};
/// use ci_emu::Emulator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut a = Asm::new();
/// a.li(Reg::R1, 41);
/// a.addi(Reg::R1, Reg::R1, 1);
/// a.halt();
/// let program = a.assemble()?;
/// let mut emu = Emulator::new(&program);
/// while !emu.halted() {
///     emu.step()?;
/// }
/// assert_eq!(emu.reg(Reg::R1), 42);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Emulator<'p> {
    program: &'p Program,
    ctx: ArchCtx,
    pc: Pc,
    halted: bool,
    retired: u64,
}

impl<'p> Emulator<'p> {
    /// Create an emulator at the program's entry point with its initial data
    /// image loaded.
    #[must_use]
    pub fn new(program: &'p Program) -> Emulator<'p> {
        Emulator {
            program,
            ctx: ArchCtx {
                regs: [0; Reg::COUNT],
                mem: Memory::with_image(program.data()),
            },
            pc: program.entry(),
            halted: false,
            retired: 0,
        }
    }

    /// The program being executed.
    #[must_use]
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Current PC.
    #[must_use]
    pub fn pc(&self) -> Pc {
        self.pc
    }

    /// Whether a `halt` has executed.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions executed so far (including the `halt`).
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Current architectural value of `r`.
    #[must_use]
    pub fn reg(&self, r: Reg) -> u64 {
        self.ctx.read_reg(r)
    }

    /// Current architectural memory.
    #[must_use]
    pub fn memory(&self) -> &Memory {
        &self.ctx.mem
    }

    /// Execute one instruction, returning its dynamic record, or `None` if
    /// the machine has halted.
    ///
    /// # Errors
    /// [`EmuError::PcOutOfRange`] if control flow leaves the program.
    pub fn step(&mut self) -> Result<Option<DynInst>, EmuError> {
        if self.halted {
            return Ok(None);
        }
        let (d, halted) = exec_step(self.program, self.pc, &mut self.ctx)?;
        self.pc = d.next_pc;
        self.halted = halted;
        self.retired += 1;
        Ok(Some(d))
    }

    /// Fork a copy-on-write wrong-path emulator starting at `start`, used to
    /// execute a mispredicted path from the current architectural state.
    #[must_use]
    pub fn fork_wrong_path(&self, start: Pc) -> WrongPathEmu<'_> {
        WrongPathEmu::new(self.program, self.ctx.regs, &self.ctx.mem, start)
    }
}

/// Run `program` to completion (or `max_insts`), returning the correct-path
/// trace.
///
/// # Errors
/// [`EmuError::PcOutOfRange`] if control flow leaves the program.
pub fn run_trace(program: &Program, max_insts: u64) -> Result<Trace, EmuError> {
    let mut emu = Emulator::new(program);
    let mut insts = Vec::new();
    while !emu.halted() && emu.retired() < max_insts {
        match emu.step()? {
            Some(d) => insts.push(d),
            None => break,
        }
    }
    Ok(Trace::new(insts, emu.halted()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ci_isa::Asm;

    #[test]
    fn loop_with_memory() {
        // Sum array of 4 elements at 0x100.
        let mut a = Asm::new();
        a.words(Addr(0x100), &[10, 20, 30, 40]);
        a.li(Reg::R1, 0x100); // base
        a.li(Reg::R2, 4); // count
        a.li(Reg::R3, 0); // sum
        a.label("loop").unwrap();
        a.load(Reg::R4, Reg::R1, 0);
        a.add(Reg::R3, Reg::R3, Reg::R4);
        a.addi(Reg::R1, Reg::R1, 1);
        a.addi(Reg::R2, Reg::R2, -1);
        a.bne(Reg::R2, Reg::R0, "loop");
        a.store(Reg::R3, Reg::R0, 0x200);
        a.halt();
        let p = a.assemble().unwrap();
        let mut emu = Emulator::new(&p);
        while !emu.halted() {
            emu.step().unwrap();
        }
        assert_eq!(emu.reg(Reg::R3), 100);
        assert_eq!(emu.memory().read(Addr(0x200)), 100);
    }

    #[test]
    fn call_and_return() {
        let mut a = Asm::new();
        a.call("double");
        a.halt();
        a.label("double").unwrap();
        a.add(Reg::R1, Reg::R1, Reg::R1);
        a.ret();
        let p = a.assemble().unwrap();
        let mut emu = Emulator::new(&p);
        let call = emu.step().unwrap().unwrap();
        assert_eq!(call.value, Some(1)); // link = pc 1
        assert_eq!(call.next_pc, Pc(2));
        emu.step().unwrap(); // add
        let ret = emu.step().unwrap().unwrap();
        assert_eq!(ret.next_pc, Pc(1));
        let halt = emu.step().unwrap().unwrap();
        assert_eq!(halt.class(), InstClass::Halt);
        assert!(emu.halted());
        assert!(emu.step().unwrap().is_none());
    }

    #[test]
    fn pc_out_of_range_detected() {
        let mut a = Asm::new();
        a.nop(); // falls off the end
        let p = a.assemble().unwrap();
        let mut emu = Emulator::new(&p);
        emu.step().unwrap();
        assert_eq!(emu.step(), Err(EmuError::PcOutOfRange(Pc(1))));
    }

    #[test]
    fn run_trace_budget() {
        let mut a = Asm::new();
        a.label("spin").unwrap();
        a.jump("spin");
        let p = a.assemble().unwrap();
        let t = run_trace(&p, 10).unwrap();
        assert_eq!(t.len(), 10);
        assert!(!t.completed());
    }

    #[test]
    fn writes_to_r0_discarded() {
        let mut a = Asm::new();
        a.addi(Reg::R0, Reg::R0, 99);
        a.halt();
        let p = a.assemble().unwrap();
        let mut emu = Emulator::new(&p);
        let d = emu.step().unwrap().unwrap();
        assert_eq!(d.value, None);
        assert_eq!(emu.reg(Reg::R0), 0);
    }
}
