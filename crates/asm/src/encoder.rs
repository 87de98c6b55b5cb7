//! Semantic pass: statements → a validated [`perfvec_isa::Program`].
//!
//! Two passes over the parsed statements: the first lays out the data
//! segment and binds every label (so forward references work), the
//! second encodes instructions against the full symbol table. All
//! validation — register classes, operand shapes, access sizes, index
//! scales, duplicate/undefined labels — happens here with line/column
//! diagnostics.

use std::collections::HashMap;

use crate::harness::Expect;
use crate::parser::{self, Operand, OperandKind, SrcInst, Stmt};
use crate::AsmError;
use perfvec_isa::{
    DataSegment, Inst, MemRef, Op, Program, Reg, RegClass, CODE_BASE, DATA_BASE, INST_BYTES,
};

/// An assembled program plus its source map and harness metadata.
pub struct AsmProgram {
    /// The encoded program.
    pub program: Program,
    /// 1-based source line of each instruction (parallel to
    /// `program.insts`).
    pub lines: Vec<u32>,
    /// `;; run: max_instrs = n`, when present.
    pub run_limit: Option<u64>,
    /// `;; expect:` directives, in source order.
    pub expects: Vec<Expect>,
}

impl AsmProgram {
    /// Source line of instruction `idx`, if it is in range.
    pub fn line_of(&self, idx: u32) -> Option<u32> {
        self.lines.get(idx as usize).copied()
    }
}

/// Assemble `.pasm` source text. `default_name` names the program when
/// the source has no `.name` directive (callers pass the file stem).
pub fn assemble(src: &str, default_name: &str) -> Result<AsmProgram, AsmError> {
    let stmts = parser::parse(src)?;

    // ---- pass 1: layout — bind labels, build data segments ----
    let mut code_labels: HashMap<String, u32> = HashMap::new();
    let mut data_labels: HashMap<String, u64> = HashMap::new();
    let mut segments: Vec<DataSegment> = Vec::new();
    let mut cur_seg: Option<DataSegment> = None;
    let mut cursor = DATA_BASE;
    let mut in_data = false;
    let mut n_insts = 0u32;
    let mut name: Option<String> = None;
    let mut entry: Option<(String, usize, usize)> = None;
    let mut run_limit: Option<u64> = None;
    let mut expects = Vec::new();

    let flush = |cur_seg: &mut Option<DataSegment>, segments: &mut Vec<DataSegment>| {
        if let Some(seg) = cur_seg.take() {
            if !seg.bytes.is_empty() {
                segments.push(seg);
            }
        }
    };

    // A label binds to the next emitted object — a data directive makes
    // it a data label at the current cursor, an instruction makes it a
    // code label — so labels are held pending until that object appears.
    // (This matters for a code label on the first line after a `.data`
    // block, which must not inherit the data mode.)
    let mut pending: Vec<(String, usize, usize)> = Vec::new();
    fn bind_pending(
        pending: &mut Vec<(String, usize, usize)>,
        as_data: bool,
        at_code: u32,
        at_data: u64,
        code_labels: &mut HashMap<String, u32>,
        data_labels: &mut HashMap<String, u64>,
    ) -> Result<(), AsmError> {
        for (name, line_no, col) in pending.drain(..) {
            let dup = if as_data {
                data_labels.insert(name.clone(), at_data).is_some()
                    || code_labels.contains_key(&name)
            } else {
                code_labels.insert(name.clone(), at_code).is_some()
                    || data_labels.contains_key(&name)
            };
            if dup {
                return Err(AsmError::new(
                    line_no,
                    col,
                    format!("duplicate label `{name}`"),
                ));
            }
        }
        Ok(())
    }

    for line in &stmts {
        match &line.stmt {
            Stmt::Name(n) => {
                if name.is_some() {
                    return Err(AsmError::new(line.no, 1, "duplicate `.name` directive"));
                }
                name = Some(n.clone());
            }
            Stmt::Entry { sym, col } => {
                if entry.is_some() {
                    return Err(AsmError::new(line.no, *col, "duplicate `.entry` directive"));
                }
                entry = Some((sym.clone(), line.no, *col));
            }
            Stmt::Data { addr } => {
                flush(&mut cur_seg, &mut segments);
                cursor = match addr {
                    Some(a) => *a,
                    // Like `ProgramBuilder`'s allocator: blocks start
                    // 64-byte aligned.
                    None => (cursor + 63) & !63,
                };
                in_data = true;
            }
            Stmt::Word(_) | Stmt::F64(_) | Stmt::F32(_) | Stmt::Byte(_) | Stmt::Zero(_)
                if !in_data =>
            {
                return Err(AsmError::new(
                    line.no,
                    1,
                    "data directive outside a `.data` block",
                ));
            }
            Stmt::Word(ws) => {
                bind_pending(
                    &mut pending,
                    true,
                    n_insts,
                    cursor,
                    &mut code_labels,
                    &mut data_labels,
                )?;
                emit(
                    &mut cur_seg,
                    &mut cursor,
                    ws.iter().flat_map(|w| w.to_le_bytes()),
                )
            }
            Stmt::F64(fs) => {
                bind_pending(
                    &mut pending,
                    true,
                    n_insts,
                    cursor,
                    &mut code_labels,
                    &mut data_labels,
                )?;
                emit(
                    &mut cur_seg,
                    &mut cursor,
                    fs.iter().flat_map(|f| f.to_bits().to_le_bytes()),
                )
            }
            Stmt::F32(fs) => {
                bind_pending(
                    &mut pending,
                    true,
                    n_insts,
                    cursor,
                    &mut code_labels,
                    &mut data_labels,
                )?;
                emit(
                    &mut cur_seg,
                    &mut cursor,
                    fs.iter().flat_map(|f| f.to_bits().to_le_bytes()),
                )
            }
            Stmt::Byte(bs) => {
                bind_pending(
                    &mut pending,
                    true,
                    n_insts,
                    cursor,
                    &mut code_labels,
                    &mut data_labels,
                )?;
                emit(&mut cur_seg, &mut cursor, bs.iter().copied())
            }
            Stmt::Zero(n) => {
                bind_pending(
                    &mut pending,
                    true,
                    n_insts,
                    cursor,
                    &mut code_labels,
                    &mut data_labels,
                )?;
                flush(&mut cur_seg, &mut segments);
                cursor += n;
            }
            Stmt::Label { name, col } => {
                pending.push((name.clone(), line.no, *col));
            }
            Stmt::Inst(_) => {
                bind_pending(
                    &mut pending,
                    false,
                    n_insts,
                    cursor,
                    &mut code_labels,
                    &mut data_labels,
                )?;
                if in_data {
                    flush(&mut cur_seg, &mut segments);
                    in_data = false;
                }
                n_insts += 1;
            }
            Stmt::Run { max_instrs } => {
                if run_limit.is_some() {
                    return Err(AsmError::new(line.no, 1, "duplicate `;; run:` directive"));
                }
                run_limit = Some(*max_instrs);
            }
            Stmt::Expect(e) => expects.push(e.clone()),
        }
    }
    // A trailing label (nothing emitted after it) is a code label one
    // past the last instruction — a legal branch target.
    bind_pending(
        &mut pending,
        false,
        n_insts,
        cursor,
        &mut code_labels,
        &mut data_labels,
    )?;
    flush(&mut cur_seg, &mut segments);

    if n_insts == 0 {
        return Err(AsmError::new(1, 1, "program has no instructions"));
    }

    // ---- pass 2: encode against the full symbol table ----
    let syms = SymTable {
        code: &code_labels,
        data: &data_labels,
    };
    let mut insts = Vec::with_capacity(n_insts as usize);
    let mut lines = Vec::with_capacity(n_insts as usize);
    for line in &stmts {
        if let Stmt::Inst(si) = &line.stmt {
            insts.push(encode_inst(si, line.no, &syms)?);
            lines.push(line.no as u32);
        }
    }

    let entry_idx = match &entry {
        None => 0,
        Some((sym, no, col)) => *code_labels.get(sym).ok_or_else(|| {
            AsmError::new(*no, *col, format!("`.entry` label `{sym}` is not defined"))
        })?,
    };
    if entry_idx as usize >= insts.len() {
        let (no, col) = entry.map(|(_, no, col)| (no, col)).unwrap_or((1, 1));
        return Err(AsmError::new(
            no,
            col,
            "`.entry` label points past the last instruction",
        ));
    }

    Ok(AsmProgram {
        program: Program {
            name: name.unwrap_or_else(|| default_name.to_string()),
            insts,
            data: segments,
            entry: entry_idx,
        },
        lines,
        run_limit,
        expects,
    })
}

fn emit(cur_seg: &mut Option<DataSegment>, cursor: &mut u64, bytes: impl IntoIterator<Item = u8>) {
    let seg = cur_seg.get_or_insert_with(|| DataSegment {
        addr: *cursor,
        bytes: Vec::new(),
    });
    let before = seg.bytes.len();
    seg.bytes.extend(bytes);
    *cursor += (seg.bytes.len() - before) as u64;
}

struct SymTable<'a> {
    code: &'a HashMap<String, u32>,
    data: &'a HashMap<String, u64>,
}

// ---------------------------------------------------------------------------
// instruction encoding
// ---------------------------------------------------------------------------

fn class_name(c: RegClass) -> &'static str {
    match c {
        RegClass::Int => "integer",
        RegClass::Fp => "floating-point",
        RegClass::Vec => "vector",
    }
}

struct Enc<'a> {
    si: &'a SrcInst,
    line: usize,
    syms: &'a SymTable<'a>,
}

impl<'a> Enc<'a> {
    fn err_at(&self, col: usize, msg: impl Into<String>) -> AsmError {
        AsmError::new(self.line, col, msg)
    }

    fn mnem(&self) -> &'static str {
        self.si.op.mnemonic()
    }

    fn arity(&self, n: usize) -> Result<(), AsmError> {
        if self.si.operands.len() != n {
            return Err(self.err_at(
                self.si.col,
                format!(
                    "`{}` expects {n} operand(s), got {}",
                    self.mnem(),
                    self.si.operands.len()
                ),
            ));
        }
        Ok(())
    }

    fn operand(&self, i: usize) -> &'a Operand {
        &self.si.operands[i]
    }

    fn reg(&self, i: usize, class: RegClass) -> Result<Reg, AsmError> {
        let o = self.operand(i);
        match o.kind {
            OperandKind::Reg(r) if r.class() == class => Ok(r),
            OperandKind::Reg(r) => Err(self.err_at(
                o.col,
                format!(
                    "operand {} of `{}` must be an {} register, got `{r}`",
                    i + 1,
                    self.mnem(),
                    class_name(class)
                ),
            )),
            _ => Err(self.err_at(
                o.col,
                format!(
                    "operand {} of `{}` must be an {} register",
                    i + 1,
                    self.mnem(),
                    class_name(class)
                ),
            )),
        }
    }

    /// Register or `#imm`, for the second ALU / branch-compare operand.
    fn reg_or_imm(&self, i: usize) -> Result<Result<Reg, i64>, AsmError> {
        let o = self.operand(i);
        match o.kind {
            OperandKind::Reg(r) if r.class() == RegClass::Int => Ok(Ok(r)),
            OperandKind::Imm(v) => Ok(Err(v)),
            _ => Err(self.err_at(
                o.col,
                format!(
                    "operand {} of `{}` must be an integer register or `#imm`",
                    i + 1,
                    self.mnem()
                ),
            )),
        }
    }

    /// The immediate for `li`: `#imm`, a data label, or `@code_label`.
    fn li_imm(&self, i: usize) -> Result<i64, AsmError> {
        let o = self.operand(i);
        match &o.kind {
            OperandKind::Imm(v) => Ok(*v),
            OperandKind::Sym(s) => self.syms.data.get(s).map(|&a| a as i64).ok_or_else(|| {
                self.err_at(
                    o.col,
                    format!("unknown data label `{s}` (a code address is written `@{s}`)"),
                )
            }),
            OperandKind::CodeAddr(s) => self
                .code_target_of(s, o.col)
                .map(|idx| (CODE_BASE + idx as u64 * INST_BYTES) as i64),
            _ => Err(self.err_at(
                o.col,
                format!(
                    "operand {} of `li` must be `#imm`, a data label, or `@label`",
                    i + 1
                ),
            )),
        }
    }

    fn code_target_of(&self, s: &str, col: usize) -> Result<u32, AsmError> {
        self.syms
            .code
            .get(s)
            .copied()
            .ok_or_else(|| self.err_at(col, format!("undefined label `{s}`")))
    }

    fn target(&self, i: usize) -> Result<u32, AsmError> {
        let o = self.operand(i);
        match &o.kind {
            OperandKind::Sym(s) => self.code_target_of(s, o.col),
            _ => Err(self.err_at(
                o.col,
                format!("operand {} of `{}` must be a label", i + 1, self.mnem()),
            )),
        }
    }

    fn mem(&self, i: usize, size: u8) -> Result<MemRef, AsmError> {
        let o = self.operand(i);
        let OperandKind::Mem {
            base,
            index,
            offset,
        } = &o.kind
        else {
            return Err(self.err_at(
                o.col,
                format!(
                    "operand {} of `{}` must be a memory operand `[base + idx*scale + off]`",
                    i + 1,
                    self.mnem()
                ),
            ));
        };
        match index {
            None => Ok(MemRef::base_offset(*base, *offset, size)),
            Some((idx, scale)) => {
                if !matches!(scale, 1 | 2 | 4 | 8 | 16) {
                    return Err(self.err_at(
                        o.col,
                        format!("index scale {scale} not one of 1, 2, 4, 8, 16"),
                    ));
                }
                Ok(MemRef::indexed(*base, *idx, *scale, *offset, size))
            }
        }
    }

    /// Resolve the access size from the mnemonic suffix.
    fn size(&self, allowed: &[u8], default: u8) -> Result<u8, AsmError> {
        match self.si.size {
            None => Ok(default),
            Some(s) if allowed.contains(&s) => Ok(s),
            Some(s) => Err(self.err_at(
                self.si.col,
                format!("`{}` access size .{s} not in {:?}", self.mnem(), allowed),
            )),
        }
    }

    fn no_size_suffix(&self) -> Result<(), AsmError> {
        if self.si.size.is_some() {
            return Err(self.err_at(
                self.si.col,
                format!("`{}` takes no access-size suffix", self.mnem()),
            ));
        }
        Ok(())
    }
}

fn encode_inst(si: &SrcInst, line: usize, syms: &SymTable<'_>) -> Result<Inst, AsmError> {
    let e = Enc { si, line, syms };
    use Op::*;
    let op = si.op;
    if !op.is_mem() {
        e.no_size_suffix()?;
    }
    let inst = match op {
        // dst, src, (src | #imm)
        Add | Sub | And | Or | Xor | Shl | Shr | Sra | Slt | Sltu | Mul | Div | Rem => {
            e.arity(3)?;
            let i = Inst::new(op)
                .with_dst(e.reg(0, RegClass::Int)?)
                .with_src(e.reg(1, RegClass::Int)?);
            match e.reg_or_imm(2)? {
                Ok(r) => i.with_src(r),
                Err(v) => i.with_imm(v),
            }
        }
        Li => {
            e.arity(2)?;
            let d = match e.operand(0).kind {
                OperandKind::Reg(r) if r.class() != RegClass::Vec => r,
                OperandKind::Reg(_) => {
                    return Err(e.err_at(
                        e.operand(0).col,
                        "`li` into a vector register is unsupported",
                    ))
                }
                _ => {
                    return Err(e.err_at(
                        e.operand(0).col,
                        "operand 1 of `li` must be an integer or fp register",
                    ))
                }
            };
            Inst::new(Li).with_dst(d).with_imm(e.li_imm(1)?)
        }
        Mov => {
            e.arity(2)?;
            Inst::new(Mov)
                .with_dst(e.reg(0, RegClass::Int)?)
                .with_src(e.reg(1, RegClass::Int)?)
        }
        // fp 3-operand
        Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax => {
            e.arity(3)?;
            Inst::new(op)
                .with_dst(e.reg(0, RegClass::Fp)?)
                .with_src(e.reg(1, RegClass::Fp)?)
                .with_src(e.reg(2, RegClass::Fp)?)
        }
        Fsqrt | Fneg | Fmov => {
            e.arity(2)?;
            Inst::new(op)
                .with_dst(e.reg(0, RegClass::Fp)?)
                .with_src(e.reg(1, RegClass::Fp)?)
        }
        Fmadd => {
            e.arity(4)?;
            Inst::new(Fmadd)
                .with_dst(e.reg(0, RegClass::Fp)?)
                .with_src(e.reg(1, RegClass::Fp)?)
                .with_src(e.reg(2, RegClass::Fp)?)
                .with_src(e.reg(3, RegClass::Fp)?)
        }
        Fclt => {
            e.arity(3)?;
            Inst::new(Fclt)
                .with_dst(e.reg(0, RegClass::Int)?)
                .with_src(e.reg(1, RegClass::Fp)?)
                .with_src(e.reg(2, RegClass::Fp)?)
        }
        Icvtf => {
            e.arity(2)?;
            Inst::new(Icvtf)
                .with_dst(e.reg(0, RegClass::Fp)?)
                .with_src(e.reg(1, RegClass::Int)?)
        }
        Fcvti => {
            e.arity(2)?;
            Inst::new(Fcvti)
                .with_dst(e.reg(0, RegClass::Int)?)
                .with_src(e.reg(1, RegClass::Fp)?)
        }
        // SIMD
        Vadd | Vmul => {
            e.arity(3)?;
            Inst::new(op)
                .with_dst(e.reg(0, RegClass::Vec)?)
                .with_src(e.reg(1, RegClass::Vec)?)
                .with_src(e.reg(2, RegClass::Vec)?)
        }
        Vfma => {
            e.arity(4)?;
            Inst::new(Vfma)
                .with_dst(e.reg(0, RegClass::Vec)?)
                .with_src(e.reg(1, RegClass::Vec)?)
                .with_src(e.reg(2, RegClass::Vec)?)
                .with_src(e.reg(3, RegClass::Vec)?)
        }
        Vsplat => {
            e.arity(2)?;
            Inst::new(Vsplat)
                .with_dst(e.reg(0, RegClass::Vec)?)
                .with_src(e.reg(1, RegClass::Fp)?)
        }
        Vredsum => {
            e.arity(2)?;
            Inst::new(Vredsum)
                .with_dst(e.reg(0, RegClass::Fp)?)
                .with_src(e.reg(1, RegClass::Vec)?)
        }
        // memory
        Ld => {
            e.arity(2)?;
            let size = e.size(&[1, 2, 4, 8], 8)?;
            Inst::new(Ld)
                .with_dst(e.reg(0, RegClass::Int)?)
                .with_mem(e.mem(1, size)?)
        }
        St => {
            e.arity(2)?;
            let size = e.size(&[1, 2, 4, 8], 8)?;
            Inst::new(St)
                .with_src(e.reg(0, RegClass::Int)?)
                .with_mem(e.mem(1, size)?)
        }
        Fld => {
            e.arity(2)?;
            let size = e.size(&[4, 8], 8)?;
            Inst::new(Fld)
                .with_dst(e.reg(0, RegClass::Fp)?)
                .with_mem(e.mem(1, size)?)
        }
        Fst => {
            e.arity(2)?;
            let size = e.size(&[4, 8], 8)?;
            Inst::new(Fst)
                .with_src(e.reg(0, RegClass::Fp)?)
                .with_mem(e.mem(1, size)?)
        }
        Vld => {
            e.arity(2)?;
            e.no_size_suffix()?;
            Inst::new(Vld)
                .with_dst(e.reg(0, RegClass::Vec)?)
                .with_mem(e.mem(1, 16)?)
        }
        Vst => {
            e.arity(2)?;
            e.no_size_suffix()?;
            Inst::new(Vst)
                .with_src(e.reg(0, RegClass::Vec)?)
                .with_mem(e.mem(1, 16)?)
        }
        // control flow
        Beq | Bne | Blt | Bge => {
            e.arity(3)?;
            let i = Inst::new(op).with_src(e.reg(0, RegClass::Int)?);
            let i = match e.reg_or_imm(1)? {
                Ok(r) => i.with_src(r),
                Err(v) => i.with_imm(v),
            };
            i.with_target(e.target(2)?)
        }
        J => {
            e.arity(1)?;
            Inst::new(J).with_target(e.target(0)?)
        }
        Jal => {
            // `jal label` (link register implied) or `jal xN, label`.
            let (dst, ti) = if si.operands.len() == 2 {
                (e.reg(0, RegClass::Int)?, 1)
            } else {
                e.arity(1)?;
                (Reg::LINK, 0)
            };
            Inst::new(Jal).with_dst(dst).with_target(e.target(ti)?)
        }
        Jr => {
            e.arity(1)?;
            Inst::new(Jr).with_src(e.reg(0, RegClass::Int)?)
        }
        Fence | Nop | Halt => {
            e.arity(0)?;
            Inst::new(op)
        }
    };
    Ok(inst)
}
