//! Programs and the in-memory assembler ([`ProgramBuilder`]).
//!
//! Workloads construct programs through the builder, which provides one
//! method per instruction plus conveniences (labels with forward
//! references, a data-segment bump allocator, call/return pseudo-ops).

use crate::inst::{Inst, MemRef};
use crate::op::Op;
use crate::reg::Reg;
use crate::{CODE_BASE, DATA_BASE, INST_BYTES};

/// An initialized region of the data segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataSegment {
    /// Starting virtual address.
    pub addr: u64,
    /// Initial contents.
    pub bytes: Vec<u8>,
}

/// A complete program: code, initialized data, and an entry point.
#[derive(Debug, Clone)]
pub struct Program {
    /// Human-readable program name (used in reports).
    pub name: String,
    /// The instruction stream; instruction `i` lives at
    /// [`Program::pc_of`]`(i)`.
    pub insts: Vec<Inst>,
    /// Initialized data segments.
    pub data: Vec<DataSegment>,
    /// Entry instruction index.
    pub entry: u32,
}

impl Program {
    /// Virtual address of instruction `idx`.
    #[inline]
    pub fn pc_of(&self, idx: u32) -> u64 {
        CODE_BASE + idx as u64 * INST_BYTES
    }

    /// Instruction index at virtual address `pc` (must be in the code
    /// segment and aligned).
    #[inline]
    pub fn idx_of(&self, pc: u64) -> u32 {
        debug_assert!(pc >= CODE_BASE && (pc - CODE_BASE).is_multiple_of(INST_BYTES));
        ((pc - CODE_BASE) / INST_BYTES) as u32
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True when the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

/// A code label. Obtained from [`ProgramBuilder::label`] (bound
/// immediately) or [`ProgramBuilder::fwd_label`] (bound later with
/// [`ProgramBuilder::bind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

/// Incremental program assembler.
pub struct ProgramBuilder {
    name: String,
    insts: Vec<Inst>,
    data: Vec<DataSegment>,
    /// Label id -> bound instruction index (u32::MAX while unbound).
    labels: Vec<u32>,
    /// Instructions whose `target` holds a label id awaiting patching.
    fixups: Vec<usize>,
    /// `Li` instructions whose immediate is the code address of a label
    /// (`(inst index, label id)`), patched at build time.
    addr_fixups: Vec<(usize, usize)>,
    data_cursor: u64,
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgramBuilder {
    /// Fresh builder with an empty program.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder {
            name: "anonymous".to_string(),
            insts: Vec::new(),
            data: Vec::new(),
            labels: Vec::new(),
            fixups: Vec::new(),
            addr_fixups: Vec::new(),
            data_cursor: DATA_BASE,
        }
    }

    /// Set the program name.
    pub fn with_name(mut self, name: impl Into<String>) -> ProgramBuilder {
        self.name = name.into();
        self
    }

    /// Finish assembly, patching all label references.
    ///
    /// Panics if any forward label was never bound.
    pub fn build(mut self) -> Program {
        for &i in &self.fixups {
            let lbl = self.insts[i].target.expect("fixup without label id") as usize;
            let bound = self.labels[lbl];
            assert!(
                bound != u32::MAX,
                "label {lbl} used but never bound (inst {i})"
            );
            self.insts[i].target = Some(bound);
        }
        for &(i, lbl) in &self.addr_fixups {
            let bound = self.labels[lbl];
            assert!(
                bound != u32::MAX,
                "label {lbl} used but never bound (inst {i})"
            );
            self.insts[i].imm = (CODE_BASE + bound as u64 * INST_BYTES) as i64;
        }
        Program {
            name: self.name,
            insts: self.insts,
            data: self.data,
            entry: 0,
        }
    }

    /// Current instruction index (where the next emitted instruction goes).
    pub fn here(&self) -> u32 {
        self.insts.len() as u32
    }

    /// Create a label bound to the current position.
    pub fn label(&mut self) -> Label {
        let l = Label(self.labels.len());
        self.labels.push(self.here());
        l
    }

    /// Create an unbound (forward) label.
    pub fn fwd_label(&mut self) -> Label {
        let l = Label(self.labels.len());
        self.labels.push(u32::MAX);
        l
    }

    /// Bind a forward label to the current position.
    pub fn bind(&mut self, l: Label) {
        assert_eq!(self.labels[l.0], u32::MAX, "label bound twice");
        self.labels[l.0] = self.here();
    }

    fn emit(&mut self, inst: Inst) -> u32 {
        let idx = self.here();
        self.insts.push(inst);
        idx
    }

    fn emit_branch(&mut self, inst: Inst, l: Label) -> u32 {
        let idx = self.emit(inst.with_target(l.0 as u32));
        self.fixups.push(idx as usize);
        idx
    }

    // ---- data segment -------------------------------------------------

    /// Allocate and initialize `bytes` in the data segment; returns its
    /// virtual address. Allocations are 64-byte aligned so distinct
    /// arrays never share a cache line.
    pub fn alloc_data(&mut self, bytes: Vec<u8>) -> u64 {
        let addr = self.data_cursor;
        self.data_cursor += (bytes.len() as u64 + 63) & !63;
        self.data.push(DataSegment { addr, bytes });
        addr
    }

    /// Allocate `len` zeroed bytes (no segment recorded; memory reads
    /// zero by default). Returns the virtual address.
    pub fn alloc_zeroed(&mut self, len: u64) -> u64 {
        let addr = self.data_cursor;
        self.data_cursor += (len + 63) & !63;
        addr
    }

    /// Allocate a slice of little-endian `u64` values.
    pub fn alloc_u64_slice(&mut self, vals: &[u64]) -> u64 {
        let bytes = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.alloc_data(bytes)
    }

    /// Allocate a slice of `f64` values.
    pub fn alloc_f64_slice(&mut self, vals: &[f64]) -> u64 {
        let bytes = vals
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        self.alloc_data(bytes)
    }

    /// Allocate a slice of `f32` values.
    pub fn alloc_f32_slice(&mut self, vals: &[f32]) -> u64 {
        let bytes = vals
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        self.alloc_data(bytes)
    }

    // ---- integer ALU ---------------------------------------------------

    fn alu3(&mut self, op: Op, d: Reg, a: Reg, b: Reg) -> u32 {
        self.emit(Inst::new(op).with_dst(d).with_src(a).with_src(b))
    }

    fn alu_imm(&mut self, op: Op, d: Reg, a: Reg, imm: i64) -> u32 {
        self.emit(Inst::new(op).with_dst(d).with_src(a).with_imm(imm))
    }

    /// `d = a + b`
    pub fn add(&mut self, d: Reg, a: Reg, b: Reg) -> u32 {
        self.alu3(Op::Add, d, a, b)
    }
    /// `d = a + imm`
    pub fn addi(&mut self, d: Reg, a: Reg, imm: i64) -> u32 {
        self.alu_imm(Op::Add, d, a, imm)
    }
    /// `d = a - b`
    pub fn sub(&mut self, d: Reg, a: Reg, b: Reg) -> u32 {
        self.alu3(Op::Sub, d, a, b)
    }
    /// `d = a - imm`
    pub fn subi(&mut self, d: Reg, a: Reg, imm: i64) -> u32 {
        self.alu_imm(Op::Sub, d, a, imm)
    }
    /// `d = a & b`
    pub fn and(&mut self, d: Reg, a: Reg, b: Reg) -> u32 {
        self.alu3(Op::And, d, a, b)
    }
    /// `d = a & imm`
    pub fn andi(&mut self, d: Reg, a: Reg, imm: i64) -> u32 {
        self.alu_imm(Op::And, d, a, imm)
    }
    /// `d = a | b`
    pub fn or(&mut self, d: Reg, a: Reg, b: Reg) -> u32 {
        self.alu3(Op::Or, d, a, b)
    }
    /// `d = a | imm`
    pub fn ori(&mut self, d: Reg, a: Reg, imm: i64) -> u32 {
        self.alu_imm(Op::Or, d, a, imm)
    }
    /// `d = a ^ b`
    pub fn xor(&mut self, d: Reg, a: Reg, b: Reg) -> u32 {
        self.alu3(Op::Xor, d, a, b)
    }
    /// `d = a ^ imm`
    pub fn xori(&mut self, d: Reg, a: Reg, imm: i64) -> u32 {
        self.alu_imm(Op::Xor, d, a, imm)
    }
    /// `d = a << b`
    pub fn shl(&mut self, d: Reg, a: Reg, b: Reg) -> u32 {
        self.alu3(Op::Shl, d, a, b)
    }
    /// `d = a << imm`
    pub fn shli(&mut self, d: Reg, a: Reg, imm: i64) -> u32 {
        self.alu_imm(Op::Shl, d, a, imm)
    }
    /// `d = a >> b` (logical)
    pub fn shr(&mut self, d: Reg, a: Reg, b: Reg) -> u32 {
        self.alu3(Op::Shr, d, a, b)
    }
    /// `d = a >> imm` (logical)
    pub fn shri(&mut self, d: Reg, a: Reg, imm: i64) -> u32 {
        self.alu_imm(Op::Shr, d, a, imm)
    }
    /// `d = a >> imm` (arithmetic)
    pub fn srai(&mut self, d: Reg, a: Reg, imm: i64) -> u32 {
        self.alu_imm(Op::Sra, d, a, imm)
    }
    /// `d = (a < b)` signed
    pub fn slt(&mut self, d: Reg, a: Reg, b: Reg) -> u32 {
        self.alu3(Op::Slt, d, a, b)
    }
    /// `d = (a < imm)` signed
    pub fn slti(&mut self, d: Reg, a: Reg, imm: i64) -> u32 {
        self.alu_imm(Op::Slt, d, a, imm)
    }
    /// `d = (a < b)` unsigned
    pub fn sltu(&mut self, d: Reg, a: Reg, b: Reg) -> u32 {
        self.alu3(Op::Sltu, d, a, b)
    }
    /// `d = imm`
    pub fn li(&mut self, d: Reg, imm: i64) -> u32 {
        self.emit(Inst::new(Op::Li).with_dst(d).with_imm(imm))
    }
    /// `d = code address of label` (patched at build time). Enables
    /// jump tables and computed indirect control flow.
    pub fn li_label(&mut self, d: Reg, l: Label) -> u32 {
        let idx = self.emit(Inst::new(Op::Li).with_dst(d).with_imm(0));
        self.addr_fixups.push((idx as usize, l.0));
        idx
    }
    /// `fd = value` (FP immediate; encoded through the `Li` opcode).
    pub fn fli(&mut self, d: Reg, value: f64) -> u32 {
        self.emit(
            Inst::new(Op::Li)
                .with_dst(d)
                .with_imm(value.to_bits() as i64),
        )
    }
    /// `d = a`
    pub fn mov(&mut self, d: Reg, a: Reg) -> u32 {
        self.emit(Inst::new(Op::Mov).with_dst(d).with_src(a))
    }
    /// `d = a * b`
    pub fn mul(&mut self, d: Reg, a: Reg, b: Reg) -> u32 {
        self.alu3(Op::Mul, d, a, b)
    }
    /// `d = a * imm`
    pub fn muli(&mut self, d: Reg, a: Reg, imm: i64) -> u32 {
        self.alu_imm(Op::Mul, d, a, imm)
    }
    /// `d = a / b` (signed; faults on b == 0)
    pub fn div(&mut self, d: Reg, a: Reg, b: Reg) -> u32 {
        self.alu3(Op::Div, d, a, b)
    }
    /// `d = a % b` (signed; faults on b == 0)
    pub fn rem(&mut self, d: Reg, a: Reg, b: Reg) -> u32 {
        self.alu3(Op::Rem, d, a, b)
    }
    /// `d = a % imm`
    pub fn remi(&mut self, d: Reg, a: Reg, imm: i64) -> u32 {
        self.alu_imm(Op::Rem, d, a, imm)
    }

    // ---- scalar FP ------------------------------------------------------

    /// `fd = fa + fb`
    pub fn fadd(&mut self, d: Reg, a: Reg, b: Reg) -> u32 {
        self.alu3(Op::Fadd, d, a, b)
    }
    /// `fd = fa - fb`
    pub fn fsub(&mut self, d: Reg, a: Reg, b: Reg) -> u32 {
        self.alu3(Op::Fsub, d, a, b)
    }
    /// `fd = fa * fb`
    pub fn fmul(&mut self, d: Reg, a: Reg, b: Reg) -> u32 {
        self.alu3(Op::Fmul, d, a, b)
    }
    /// `fd = fa / fb`
    pub fn fdiv(&mut self, d: Reg, a: Reg, b: Reg) -> u32 {
        self.alu3(Op::Fdiv, d, a, b)
    }
    /// `fd = sqrt(fa)`
    pub fn fsqrt(&mut self, d: Reg, a: Reg) -> u32 {
        self.emit(Inst::new(Op::Fsqrt).with_dst(d).with_src(a))
    }
    /// `fd = fa * fb + fc`
    pub fn fmadd(&mut self, d: Reg, a: Reg, b: Reg, c: Reg) -> u32 {
        self.emit(
            Inst::new(Op::Fmadd)
                .with_dst(d)
                .with_src(a)
                .with_src(b)
                .with_src(c),
        )
    }
    /// `fd = min(fa, fb)`
    pub fn fmin(&mut self, d: Reg, a: Reg, b: Reg) -> u32 {
        self.alu3(Op::Fmin, d, a, b)
    }
    /// `fd = max(fa, fb)`
    pub fn fmax(&mut self, d: Reg, a: Reg, b: Reg) -> u32 {
        self.alu3(Op::Fmax, d, a, b)
    }
    /// `fd = -fa`
    pub fn fneg(&mut self, d: Reg, a: Reg) -> u32 {
        self.emit(Inst::new(Op::Fneg).with_dst(d).with_src(a))
    }
    /// `xd = (fa < fb)`
    pub fn fclt(&mut self, d: Reg, a: Reg, b: Reg) -> u32 {
        self.alu3(Op::Fclt, d, a, b)
    }
    /// `fd = xa as f64`
    pub fn icvtf(&mut self, d: Reg, a: Reg) -> u32 {
        self.emit(Inst::new(Op::Icvtf).with_dst(d).with_src(a))
    }
    /// `xd = fa as i64` (truncating)
    pub fn fcvti(&mut self, d: Reg, a: Reg) -> u32 {
        self.emit(Inst::new(Op::Fcvti).with_dst(d).with_src(a))
    }
    /// `fd = fa`
    pub fn fmov(&mut self, d: Reg, a: Reg) -> u32 {
        self.emit(Inst::new(Op::Fmov).with_dst(d).with_src(a))
    }

    // ---- SIMD -----------------------------------------------------------

    /// `vd = va + vb` lane-wise
    pub fn vadd(&mut self, d: Reg, a: Reg, b: Reg) -> u32 {
        self.alu3(Op::Vadd, d, a, b)
    }
    /// `vd = va * vb` lane-wise
    pub fn vmul(&mut self, d: Reg, a: Reg, b: Reg) -> u32 {
        self.alu3(Op::Vmul, d, a, b)
    }
    /// `vd = va * vb + vc` lane-wise
    pub fn vfma(&mut self, d: Reg, a: Reg, b: Reg, c: Reg) -> u32 {
        self.emit(
            Inst::new(Op::Vfma)
                .with_dst(d)
                .with_src(a)
                .with_src(b)
                .with_src(c),
        )
    }
    /// Broadcast scalar `fa` into all lanes of `vd`.
    pub fn vsplat(&mut self, d: Reg, a: Reg) -> u32 {
        self.emit(Inst::new(Op::Vsplat).with_dst(d).with_src(a))
    }
    /// `fd = Σ lanes(va)`
    pub fn vredsum(&mut self, d: Reg, a: Reg) -> u32 {
        self.emit(Inst::new(Op::Vredsum).with_dst(d).with_src(a))
    }

    // ---- memory ---------------------------------------------------------

    /// Integer load of `size` bytes: `d = mem[base + offset]`.
    pub fn ld(&mut self, d: Reg, base: Reg, offset: i64, size: u8) -> u32 {
        self.emit(
            Inst::new(Op::Ld)
                .with_dst(d)
                .with_mem(MemRef::base_offset(base, offset, size)),
        )
    }

    /// Indexed integer load: `d = mem[base + index*scale + offset]`.
    pub fn ld_idx(
        &mut self,
        d: Reg,
        base: Reg,
        index: Reg,
        scale: u8,
        offset: i64,
        size: u8,
    ) -> u32 {
        self.emit(
            Inst::new(Op::Ld)
                .with_dst(d)
                .with_mem(MemRef::indexed(base, index, scale, offset, size)),
        )
    }

    /// Integer store of `size` bytes: `mem[base + offset] = s`.
    pub fn st(&mut self, s: Reg, base: Reg, offset: i64, size: u8) -> u32 {
        self.emit(
            Inst::new(Op::St)
                .with_src(s)
                .with_mem(MemRef::base_offset(base, offset, size)),
        )
    }

    /// Indexed integer store.
    pub fn st_idx(
        &mut self,
        s: Reg,
        base: Reg,
        index: Reg,
        scale: u8,
        offset: i64,
        size: u8,
    ) -> u32 {
        self.emit(
            Inst::new(Op::St)
                .with_src(s)
                .with_mem(MemRef::indexed(base, index, scale, offset, size)),
        )
    }

    /// FP load (8 bytes).
    pub fn fld(&mut self, d: Reg, base: Reg, offset: i64) -> u32 {
        self.emit(
            Inst::new(Op::Fld)
                .with_dst(d)
                .with_mem(MemRef::base_offset(base, offset, 8)),
        )
    }

    /// Indexed FP load.
    pub fn fld_idx(&mut self, d: Reg, base: Reg, index: Reg, scale: u8, offset: i64) -> u32 {
        self.emit(
            Inst::new(Op::Fld)
                .with_dst(d)
                .with_mem(MemRef::indexed(base, index, scale, offset, 8)),
        )
    }

    /// Single-precision FP load (4 bytes, widened to f64 in the register).
    pub fn flw(&mut self, d: Reg, base: Reg, offset: i64) -> u32 {
        self.emit(
            Inst::new(Op::Fld)
                .with_dst(d)
                .with_mem(MemRef::base_offset(base, offset, 4)),
        )
    }

    /// Indexed single-precision FP load.
    pub fn flw_idx(&mut self, d: Reg, base: Reg, index: Reg, scale: u8, offset: i64) -> u32 {
        self.emit(
            Inst::new(Op::Fld)
                .with_dst(d)
                .with_mem(MemRef::indexed(base, index, scale, offset, 4)),
        )
    }

    /// FP store (8 bytes).
    pub fn fst(&mut self, s: Reg, base: Reg, offset: i64) -> u32 {
        self.emit(
            Inst::new(Op::Fst)
                .with_src(s)
                .with_mem(MemRef::base_offset(base, offset, 8)),
        )
    }

    /// Single-precision FP store (4 bytes, narrowing from f64).
    pub fn fsw(&mut self, s: Reg, base: Reg, offset: i64) -> u32 {
        self.emit(
            Inst::new(Op::Fst)
                .with_src(s)
                .with_mem(MemRef::base_offset(base, offset, 4)),
        )
    }

    /// Indexed single-precision FP store.
    pub fn fsw_idx(&mut self, s: Reg, base: Reg, index: Reg, scale: u8, offset: i64) -> u32 {
        self.emit(
            Inst::new(Op::Fst)
                .with_src(s)
                .with_mem(MemRef::indexed(base, index, scale, offset, 4)),
        )
    }

    /// Indexed FP store.
    pub fn fst_idx(&mut self, s: Reg, base: Reg, index: Reg, scale: u8, offset: i64) -> u32 {
        self.emit(
            Inst::new(Op::Fst)
                .with_src(s)
                .with_mem(MemRef::indexed(base, index, scale, offset, 8)),
        )
    }

    /// SIMD load (16 bytes).
    pub fn vld(&mut self, d: Reg, base: Reg, offset: i64) -> u32 {
        self.emit(
            Inst::new(Op::Vld)
                .with_dst(d)
                .with_mem(MemRef::base_offset(base, offset, 16)),
        )
    }

    /// Indexed SIMD load.
    pub fn vld_idx(&mut self, d: Reg, base: Reg, index: Reg, scale: u8, offset: i64) -> u32 {
        self.emit(
            Inst::new(Op::Vld)
                .with_dst(d)
                .with_mem(MemRef::indexed(base, index, scale, offset, 16)),
        )
    }

    /// SIMD store (16 bytes).
    pub fn vst(&mut self, s: Reg, base: Reg, offset: i64) -> u32 {
        self.emit(
            Inst::new(Op::Vst)
                .with_src(s)
                .with_mem(MemRef::base_offset(base, offset, 16)),
        )
    }

    /// Indexed SIMD store.
    pub fn vst_idx(&mut self, s: Reg, base: Reg, index: Reg, scale: u8, offset: i64) -> u32 {
        self.emit(
            Inst::new(Op::Vst)
                .with_src(s)
                .with_mem(MemRef::indexed(base, index, scale, offset, 16)),
        )
    }

    // ---- control flow ----------------------------------------------------

    /// Branch to `l` if `a == b`.
    pub fn beq(&mut self, a: Reg, b: Reg, l: Label) -> u32 {
        self.emit_branch(Inst::new(Op::Beq).with_src(a).with_src(b), l)
    }
    /// Branch to `l` if `a == imm`.
    pub fn beq_imm(&mut self, a: Reg, imm: i64, l: Label) -> u32 {
        self.emit_branch(Inst::new(Op::Beq).with_src(a).with_imm(imm), l)
    }
    /// Branch to `l` if `a != b`.
    pub fn bne(&mut self, a: Reg, b: Reg, l: Label) -> u32 {
        self.emit_branch(Inst::new(Op::Bne).with_src(a).with_src(b), l)
    }
    /// Branch to `l` if `a != imm`.
    pub fn bne_imm(&mut self, a: Reg, imm: i64, l: Label) -> u32 {
        self.emit_branch(Inst::new(Op::Bne).with_src(a).with_imm(imm), l)
    }
    /// Branch to `l` if `a < b` (signed).
    pub fn blt(&mut self, a: Reg, b: Reg, l: Label) -> u32 {
        self.emit_branch(Inst::new(Op::Blt).with_src(a).with_src(b), l)
    }
    /// Branch to `l` if `a < imm` (signed).
    pub fn blt_imm(&mut self, a: Reg, imm: i64, l: Label) -> u32 {
        self.emit_branch(Inst::new(Op::Blt).with_src(a).with_imm(imm), l)
    }
    /// Branch to `l` if `a >= b` (signed).
    pub fn bge(&mut self, a: Reg, b: Reg, l: Label) -> u32 {
        self.emit_branch(Inst::new(Op::Bge).with_src(a).with_src(b), l)
    }
    /// Branch to `l` if `a >= imm` (signed).
    pub fn bge_imm(&mut self, a: Reg, imm: i64, l: Label) -> u32 {
        self.emit_branch(Inst::new(Op::Bge).with_src(a).with_imm(imm), l)
    }
    /// Unconditional jump to `l`.
    pub fn j(&mut self, l: Label) -> u32 {
        self.emit_branch(Inst::new(Op::J), l)
    }
    /// Call `l`: the return address is written to [`Reg::LINK`].
    pub fn call(&mut self, l: Label) -> u32 {
        self.emit_branch(Inst::new(Op::Jal).with_dst(Reg::LINK), l)
    }
    /// Indirect jump to the address in `a`.
    pub fn jr(&mut self, a: Reg) -> u32 {
        self.emit(Inst::new(Op::Jr).with_src(a))
    }
    /// Return: indirect jump through [`Reg::LINK`].
    pub fn ret(&mut self) -> u32 {
        self.jr(Reg::LINK)
    }

    // ---- misc -------------------------------------------------------------

    /// Memory barrier.
    pub fn fence(&mut self) -> u32 {
        self.emit(Inst::new(Op::Fence))
    }
    /// No-op.
    pub fn nop(&mut self) -> u32 {
        self.emit(Inst::new(Op::Nop))
    }
    /// Stop the program.
    pub fn halt(&mut self) -> u32 {
        self.emit(Inst::new(Op::Halt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_labels_are_patched() {
        let mut b = ProgramBuilder::new();
        let done = b.fwd_label();
        b.li(Reg::x(1), 5);
        b.beq_imm(Reg::x(1), 5, done); // index 1
        b.li(Reg::x(1), 99); // skipped
        b.bind(done);
        b.halt(); // index 3
        let p = b.build();
        assert_eq!(p.insts[1].target, Some(3));
    }

    #[test]
    #[should_panic(expected = "never bound")]
    fn unbound_label_panics_on_build() {
        let mut b = ProgramBuilder::new();
        let l = b.fwd_label();
        b.j(l);
        let _ = b.build();
    }

    #[test]
    fn backward_label_targets_loop_head() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::x(1), 0);
        let top = b.label(); // index 1
        b.addi(Reg::x(1), Reg::x(1), 1);
        b.blt_imm(Reg::x(1), 10, top);
        b.halt();
        let p = b.build();
        assert_eq!(p.insts[2].target, Some(1));
    }

    #[test]
    fn data_allocations_are_aligned_and_disjoint() {
        let mut b = ProgramBuilder::new();
        let a1 = b.alloc_data(vec![1, 2, 3]);
        let a2 = b.alloc_u64_slice(&[7, 8]);
        let a3 = b.alloc_zeroed(100);
        assert_eq!(a1 % 64, 0);
        assert_eq!(a2 % 64, 0);
        assert_eq!(a3 % 64, 0);
        assert!(a2 >= a1 + 3);
        assert!(a3 >= a2 + 16);
    }

    #[test]
    fn li_label_materializes_code_addresses() {
        let mut b = ProgramBuilder::new();
        let tramp = b.fwd_label();
        b.li_label(Reg::x(1), tramp); // index 0
        b.jr(Reg::x(1));
        b.bind(tramp);
        b.halt(); // index 2
        let p = b.build();
        assert_eq!(p.insts[0].imm, p.pc_of(2) as i64);
        // And the emulator actually lands there.
        let mut e = crate::emu::Emulator::new(&p);
        let t = e.run(10).unwrap();
        assert!(t.halted);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn pc_mapping_roundtrips() {
        let mut b = ProgramBuilder::new();
        b.nop();
        b.nop();
        b.halt();
        let p = b.build();
        for i in 0..p.len() as u32 {
            assert_eq!(p.idx_of(p.pc_of(i)), i);
        }
    }
}
