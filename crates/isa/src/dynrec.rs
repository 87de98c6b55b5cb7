//! Dynamic instruction records — the logical execution trace.
//!
//! A [`Trace`] is microarchitecture-independent: it depends only on the
//! program and its input. The timing simulator replays the same trace
//! under many microarchitectures, and the PerfVec feature extractor
//! derives the 51 instruction features from it.

use crate::op::OpClass;
use crate::program::Program;
use crate::{CODE_BASE, INST_BYTES};

/// One executed instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynInst {
    /// Static instruction index into [`Program::insts`].
    pub sidx: u32,
    /// Static index of the dynamically next instruction (the actual
    /// successor, after any branch resolution).
    pub next_sidx: u32,
    /// Effective memory address for loads/stores (0 otherwise).
    pub addr: u64,
    /// For control flow: whether the branch was taken.
    pub taken: bool,
    /// Whether execution faulted (divide by zero, sqrt of a negative).
    pub fault: bool,
}

impl DynInst {
    /// Fetch address of this dynamic instruction.
    #[inline]
    pub fn pc(&self) -> u64 {
        CODE_BASE + self.sidx as u64 * INST_BYTES
    }

    /// Fetch address of the dynamic successor.
    #[inline]
    pub fn next_pc(&self) -> u64 {
        CODE_BASE + self.next_sidx as u64 * INST_BYTES
    }
}

/// A dynamic execution trace plus the program it came from.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The executed program (shared so the static instruction for any
    /// record is one index away).
    pub program: Program,
    /// Executed instructions in program order.
    pub records: Vec<DynInst>,
    /// True when the program reached `halt` (as opposed to the
    /// instruction budget running out).
    pub halted: bool,
}

impl Trace {
    /// Number of executed instructions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was executed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The static instruction behind record `i`.
    #[inline]
    pub fn inst(&self, i: usize) -> &crate::inst::Inst {
        &self.program.insts[self.records[i].sidx as usize]
    }

    /// Count executed instructions per [`OpClass`].
    pub fn class_mix(&self) -> [u64; OpClass::COUNT] {
        let mut mix = [0u64; OpClass::COUNT];
        for r in &self.records {
            mix[self.program.insts[r.sidx as usize].op.class() as usize] += 1;
        }
        mix
    }

    /// Fraction of executed instructions that access memory.
    pub fn mem_fraction(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let mix = self.class_mix();
        (mix[OpClass::Load as usize] + mix[OpClass::Store as usize]) as f64
            / self.records.len() as f64
    }

    /// Fraction of executed instructions that are control flow.
    pub fn branch_fraction(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.class_mix()[OpClass::Branch as usize] as f64 / self.records.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use crate::reg::Reg;

    fn tiny_trace() -> Trace {
        let mut b = ProgramBuilder::new();
        let base = b.alloc_zeroed(64);
        b.li(Reg::x(1), base as i64);
        b.ld(Reg::x(2), Reg::x(1), 0, 8);
        b.halt();
        let p = b.build();
        let mut e = crate::emu::Emulator::new(&p);
        e.run(100).unwrap()
    }

    #[test]
    fn pcs_follow_static_indices() {
        let t = tiny_trace();
        assert_eq!(t.records[0].pc(), CODE_BASE);
        assert_eq!(t.records[1].pc(), CODE_BASE + INST_BYTES);
    }

    #[test]
    fn class_mix_counts_all_records() {
        let t = tiny_trace();
        let mix = t.class_mix();
        assert_eq!(mix.iter().sum::<u64>(), t.len() as u64);
        assert_eq!(mix[OpClass::Load as usize], 1);
    }

    #[test]
    fn fractions_are_bounded() {
        let t = tiny_trace();
        assert!(t.mem_fraction() > 0.0 && t.mem_fraction() <= 1.0);
        assert!(t.branch_fraction() >= 0.0 && t.branch_fraction() < 1.0);
    }
}
