//! Static instruction representation.

use crate::op::Op;
use crate::reg::Reg;

/// Maximum number of source register operands an instruction may name.
///
/// Mirrors the PerfVec feature layout, which reserves 8 source slots.
pub const MAX_SRC: usize = 8;

/// Maximum number of destination register operands.
///
/// Mirrors the PerfVec feature layout, which reserves 6 destination slots.
pub const MAX_DST: usize = 6;

/// Memory operand: effective address is
/// `regs[base] + regs[index] * scale + offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// Base address register.
    pub base: Reg,
    /// Optional scaled index register.
    pub index: Option<Reg>,
    /// Scale applied to the index register value (1, 2, 4, 8, or 16).
    pub scale: u8,
    /// Constant byte offset.
    pub offset: i64,
    /// Access size in bytes (1, 2, 4, 8, or 16).
    pub size: u8,
}

impl MemRef {
    /// A plain `base + offset` reference.
    pub fn base_offset(base: Reg, offset: i64, size: u8) -> MemRef {
        MemRef {
            base,
            index: None,
            scale: 1,
            offset,
            size,
        }
    }

    /// A `base + index*scale + offset` reference.
    pub fn indexed(base: Reg, index: Reg, scale: u8, offset: i64, size: u8) -> MemRef {
        MemRef {
            base,
            index: Some(index),
            scale,
            offset,
            size,
        }
    }
}

/// A static instruction: opcode plus register operands, immediate, memory
/// operand, and (for direct control flow) the target instruction index.
///
/// Operand slots are fixed-size arrays so that `Inst` is `Copy` and the
/// static program is stored contiguously.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Inst {
    /// Opcode.
    pub op: Op,
    /// Destination registers (first `n_dst` entries valid).
    pub dsts: [Reg; MAX_DST],
    /// Number of valid destination registers.
    pub n_dst: u8,
    /// Source registers (first `n_src` entries valid).
    pub srcs: [Reg; MAX_SRC],
    /// Number of valid source registers.
    pub n_src: u8,
    /// Immediate operand (second ALU operand when `uses_imm`, shift
    /// amounts, `Li` values, ...).
    pub imm: i64,
    /// Whether the immediate replaces the second source operand.
    pub uses_imm: bool,
    /// Memory operand for loads and stores.
    pub mem: Option<MemRef>,
    /// Static target (instruction index) for direct branches/jumps/calls.
    pub target: Option<u32>,
}

impl Inst {
    /// A new instruction with no operands; builders fill in the rest.
    pub fn new(op: Op) -> Inst {
        Inst {
            op,
            dsts: [Reg::ZERO; MAX_DST],
            n_dst: 0,
            srcs: [Reg::ZERO; MAX_SRC],
            n_src: 0,
            imm: 0,
            uses_imm: false,
            mem: None,
            target: None,
        }
    }

    /// Add a destination register. Panics beyond [`MAX_DST`].
    pub fn with_dst(mut self, r: Reg) -> Inst {
        assert!(
            (self.n_dst as usize) < MAX_DST,
            "too many destination registers"
        );
        self.dsts[self.n_dst as usize] = r;
        self.n_dst += 1;
        self
    }

    /// Add a source register. Panics beyond [`MAX_SRC`].
    pub fn with_src(mut self, r: Reg) -> Inst {
        assert!((self.n_src as usize) < MAX_SRC, "too many source registers");
        self.srcs[self.n_src as usize] = r;
        self.n_src += 1;
        self
    }

    /// Set the immediate (marking the instruction as immediate-form).
    pub fn with_imm(mut self, imm: i64) -> Inst {
        self.imm = imm;
        self.uses_imm = true;
        self
    }

    /// Attach a memory operand; its base and index registers are appended
    /// to the source list automatically.
    pub fn with_mem(mut self, mem: MemRef) -> Inst {
        self = self.with_src(mem.base);
        if let Some(idx) = mem.index {
            self = self.with_src(idx);
        }
        self.mem = Some(mem);
        self
    }

    /// Set the static branch target (an instruction index).
    pub fn with_target(mut self, target: u32) -> Inst {
        self.target = Some(target);
        self
    }

    /// Valid destination registers.
    #[inline]
    pub fn dsts(&self) -> &[Reg] {
        &self.dsts[..self.n_dst as usize]
    }

    /// Valid source registers.
    #[inline]
    pub fn srcs(&self) -> &[Reg] {
        &self.srcs[..self.n_src as usize]
    }
}

impl std::fmt::Display for Inst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.op)?;
        for (i, d) in self.dsts().iter().enumerate() {
            write!(f, "{}{}", if i == 0 { " " } else { ", " }, d)?;
        }
        for d in self.srcs() {
            write!(f, ", {d}")?;
        }
        if self.uses_imm {
            write!(f, ", #{}", self.imm)?;
        }
        if let Some(m) = &self.mem {
            write!(f, " [{}", m.base)?;
            if let Some(i) = m.index {
                write!(f, " + {}*{}", i, m.scale)?;
            }
            write!(f, " + {}] ({}B)", m.offset, m.size)?;
        }
        if let Some(t) = self.target {
            write!(f, " -> @{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_operand_counts() {
        let i = Inst::new(Op::Add)
            .with_dst(Reg::x(1))
            .with_src(Reg::x(2))
            .with_src(Reg::x(3));
        assert_eq!(i.dsts(), &[Reg::x(1)]);
        assert_eq!(i.srcs(), &[Reg::x(2), Reg::x(3)]);
        assert!(!i.uses_imm);
    }

    #[test]
    fn mem_operand_registers_become_sources() {
        let m = MemRef::indexed(Reg::x(5), Reg::x(6), 8, 16, 8);
        let i = Inst::new(Op::Ld).with_dst(Reg::x(1)).with_mem(m);
        assert_eq!(i.srcs(), &[Reg::x(5), Reg::x(6)]);
        assert_eq!(i.mem.unwrap().size, 8);
    }

    #[test]
    fn imm_form_flags() {
        let i = Inst::new(Op::Add)
            .with_dst(Reg::x(1))
            .with_src(Reg::x(1))
            .with_imm(4);
        assert!(i.uses_imm);
        assert_eq!(i.imm, 4);
    }

    #[test]
    #[should_panic(expected = "too many destination registers")]
    fn too_many_dsts_panics() {
        let mut i = Inst::new(Op::Nop);
        for k in 0..=MAX_DST as u8 {
            i = i.with_dst(Reg::x(k));
        }
    }

    #[test]
    fn display_is_readable() {
        let i = Inst::new(Op::Beq)
            .with_src(Reg::x(1))
            .with_src(Reg::x(2))
            .with_target(7);
        let s = i.to_string();
        assert!(s.contains("beq"));
        assert!(s.contains("@7"));
    }
}
