//! Opcodes and their static properties.
//!
//! [`Op`] is the full opcode enumeration; [`OpClass`] is the coarse
//! execution-resource class the timing simulator schedules on (which
//! functional-unit pool an instruction occupies, and for how long).

/// Operation codes of the ISA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    // --- integer ALU ---
    /// `dst = src0 + src1` (or `src0 + imm`).
    Add,
    /// `dst = src0 - src1`.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left.
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sra,
    /// `dst = (src0 < src1) as i64`, signed compare.
    Slt,
    /// `dst = (src0 < src1) as i64`, unsigned compare.
    Sltu,
    /// Load immediate: `dst = imm`.
    Li,
    /// Register move: `dst = src0`.
    Mov,
    // --- integer multiply / divide ---
    /// 64-bit multiply (low half).
    Mul,
    /// Signed divide; divide-by-zero faults (result 0, fault flag set).
    Div,
    /// Signed remainder; divide-by-zero faults.
    Rem,
    // --- scalar floating point ---
    /// `fd = fs0 + fs1`.
    Fadd,
    /// `fd = fs0 - fs1`.
    Fsub,
    /// `fd = fs0 * fs1`.
    Fmul,
    /// `fd = fs0 / fs1`; divide-by-zero faults (result 0.0).
    Fdiv,
    /// `fd = sqrt(fs0)`; negative input faults (result 0.0).
    Fsqrt,
    /// Fused multiply-add: `fd = fs0 * fs1 + fs2`.
    Fmadd,
    /// `fd = min(fs0, fs1)`.
    Fmin,
    /// `fd = max(fs0, fs1)`.
    Fmax,
    /// `fd = -fs0`.
    Fneg,
    /// FP compare less-than into an integer register: `xd = (fs0 < fs1) as i64`.
    Fclt,
    /// Convert integer to double: `fd = xs0 as f64`.
    Icvtf,
    /// Convert double to integer (truncating): `xd = fs0 as i64`.
    Fcvti,
    /// FP register move.
    Fmov,
    // --- SIMD (4 × f32 lanes) ---
    /// Lane-wise add.
    Vadd,
    /// Lane-wise multiply.
    Vmul,
    /// Lane-wise fused multiply-add: `vd = vs0 * vs1 + vs2`.
    Vfma,
    /// Broadcast the low 32 bits of an fp register into all lanes.
    Vsplat,
    /// Horizontal sum of lanes into a scalar fp register.
    Vredsum,
    // --- memory ---
    /// Integer load (zero-extended); access size in `MemRef::size`.
    Ld,
    /// Integer store; access size in `MemRef::size`.
    St,
    /// FP load (8 bytes).
    Fld,
    /// FP store (8 bytes).
    Fst,
    /// SIMD load (16 bytes).
    Vld,
    /// SIMD store (16 bytes).
    Vst,
    // --- control flow ---
    /// Branch if equal.
    Beq,
    /// Branch if not equal.
    Bne,
    /// Branch if signed less-than.
    Blt,
    /// Branch if signed greater-or-equal.
    Bge,
    /// Unconditional direct jump.
    J,
    /// Direct call: writes the return address to the link register.
    Jal,
    /// Indirect jump through a register (also used for returns).
    Jr,
    // --- other ---
    /// Memory barrier: orders all earlier memory operations before later ones.
    Fence,
    /// No operation.
    Nop,
    /// Stop the program.
    Halt,
}

/// Coarse execution-resource class, used by the timing simulator to pick
/// a functional-unit pool and an execution latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum OpClass {
    /// Simple integer ops (add/logic/shift/compare/moves).
    IntAlu = 0,
    /// Integer multiply.
    IntMul = 1,
    /// Integer divide / remainder (unpipelined).
    IntDiv = 2,
    /// FP add/sub/compare/convert/move.
    FpAlu = 3,
    /// FP multiply and fused multiply-add.
    FpMul = 4,
    /// FP divide and square root (unpipelined).
    FpDiv = 5,
    /// SIMD arithmetic.
    Simd = 6,
    /// Loads of any register class.
    Load = 7,
    /// Stores of any register class.
    Store = 8,
    /// All control-flow instructions.
    Branch = 9,
    /// Fences and other serializing ops; Nop/Halt also land here.
    Other = 10,
}

impl OpClass {
    /// Number of distinct classes (for sizing per-class tables).
    pub const COUNT: usize = 11;

    /// All classes in discriminant order.
    pub const ALL: [OpClass; OpClass::COUNT] = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::IntDiv,
        OpClass::FpAlu,
        OpClass::FpMul,
        OpClass::FpDiv,
        OpClass::Simd,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
        OpClass::Other,
    ];
}

impl Op {
    /// The execution-resource class of this opcode.
    pub const fn class(self) -> OpClass {
        use Op::*;
        match self {
            Add | Sub | And | Or | Xor | Shl | Shr | Sra | Slt | Sltu | Li | Mov => OpClass::IntAlu,
            Mul => OpClass::IntMul,
            Div | Rem => OpClass::IntDiv,
            Fadd | Fsub | Fmin | Fmax | Fneg | Fclt | Icvtf | Fcvti | Fmov => OpClass::FpAlu,
            Fmul | Fmadd => OpClass::FpMul,
            Fdiv | Fsqrt => OpClass::FpDiv,
            Vadd | Vmul | Vfma | Vsplat | Vredsum => OpClass::Simd,
            Ld | Fld | Vld => OpClass::Load,
            St | Fst | Vst => OpClass::Store,
            Beq | Bne | Blt | Bge | J | Jal | Jr => OpClass::Branch,
            Fence | Nop | Halt => OpClass::Other,
        }
    }

    /// True for any control-flow instruction.
    pub const fn is_branch(self) -> bool {
        matches!(self.class(), OpClass::Branch)
    }

    /// True for conditional branches.
    pub const fn is_cond_branch(self) -> bool {
        matches!(self, Op::Beq | Op::Bne | Op::Blt | Op::Bge)
    }

    /// True for direct (target known statically) control flow.
    pub const fn is_direct_branch(self) -> bool {
        matches!(
            self,
            Op::Beq | Op::Bne | Op::Blt | Op::Bge | Op::J | Op::Jal
        )
    }

    /// True for indirect control flow.
    pub const fn is_indirect_branch(self) -> bool {
        matches!(self, Op::Jr)
    }

    /// True for calls (write the link register).
    pub const fn is_call(self) -> bool {
        matches!(self, Op::Jal)
    }

    /// True for loads.
    pub const fn is_load(self) -> bool {
        matches!(self, Op::Ld | Op::Fld | Op::Vld)
    }

    /// True for stores.
    pub const fn is_store(self) -> bool {
        matches!(self, Op::St | Op::Fst | Op::Vst)
    }

    /// True for any memory access.
    pub const fn is_mem(self) -> bool {
        self.is_load() || self.is_store()
    }

    /// True for memory barriers.
    pub const fn is_barrier(self) -> bool {
        matches!(self, Op::Fence)
    }

    /// True if this opcode can raise an execution fault (and on which the
    /// `fault` dynamic feature can therefore be set).
    pub const fn can_fault(self) -> bool {
        matches!(self, Op::Div | Op::Rem | Op::Fdiv | Op::Fsqrt)
    }

    /// True if the op ends the program.
    pub const fn is_halt(self) -> bool {
        matches!(self, Op::Halt)
    }

    /// Short mnemonic for display / debugging.
    pub const fn mnemonic(self) -> &'static str {
        use Op::*;
        match self {
            Add => "add",
            Sub => "sub",
            And => "and",
            Or => "or",
            Xor => "xor",
            Shl => "shl",
            Shr => "shr",
            Sra => "sra",
            Slt => "slt",
            Sltu => "sltu",
            Li => "li",
            Mov => "mov",
            Mul => "mul",
            Div => "div",
            Rem => "rem",
            Fadd => "fadd",
            Fsub => "fsub",
            Fmul => "fmul",
            Fdiv => "fdiv",
            Fsqrt => "fsqrt",
            Fmadd => "fmadd",
            Fmin => "fmin",
            Fmax => "fmax",
            Fneg => "fneg",
            Fclt => "fclt",
            Icvtf => "icvtf",
            Fcvti => "fcvti",
            Fmov => "fmov",
            Vadd => "vadd",
            Vmul => "vmul",
            Vfma => "vfma",
            Vsplat => "vsplat",
            Vredsum => "vredsum",
            Ld => "ld",
            St => "st",
            Fld => "fld",
            Fst => "fst",
            Vld => "vld",
            Vst => "vst",
            Beq => "beq",
            Bne => "bne",
            Blt => "blt",
            Bge => "bge",
            J => "j",
            Jal => "jal",
            Jr => "jr",
            Fence => "fence",
            Nop => "nop",
            Halt => "halt",
        }
    }
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_partition_is_consistent() {
        use Op::*;
        let all = [
            Add, Sub, And, Or, Xor, Shl, Shr, Sra, Slt, Sltu, Li, Mov, Mul, Div, Rem, Fadd, Fsub,
            Fmul, Fdiv, Fsqrt, Fmadd, Fmin, Fmax, Fneg, Fclt, Icvtf, Fcvti, Fmov, Vadd, Vmul, Vfma,
            Vsplat, Vredsum, Ld, St, Fld, Fst, Vld, Vst, Beq, Bne, Blt, Bge, J, Jal, Jr, Fence,
            Nop, Halt,
        ];
        for op in all {
            // every load is mem, every branch kind implies is_branch, etc.
            if op.is_load() || op.is_store() {
                assert!(op.is_mem(), "{op}");
            }
            if op.is_cond_branch() || op.is_call() || op.is_indirect_branch() {
                assert!(op.is_branch(), "{op}");
            }
            if op.is_direct_branch() {
                assert!(!op.is_indirect_branch(), "{op}");
            }
        }
    }

    #[test]
    fn branch_kinds() {
        assert!(Op::Beq.is_cond_branch());
        assert!(Op::J.is_direct_branch() && !Op::J.is_cond_branch());
        assert!(Op::Jal.is_call());
        assert!(Op::Jr.is_indirect_branch());
        assert!(!Op::Add.is_branch());
    }

    #[test]
    fn fault_capable_ops() {
        assert!(Op::Div.can_fault());
        assert!(Op::Fsqrt.can_fault());
        assert!(!Op::Add.can_fault());
        assert!(!Op::Ld.can_fault());
    }

    #[test]
    fn opclass_all_matches_discriminants() {
        for (i, c) in OpClass::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
    }
}
