//! Lexical + syntactic pass: `.pasm` source text → statements.
//!
//! The parser is line-oriented. Each line holds any number of `label:`
//! bindings followed by at most one directive or instruction; `;` starts
//! a comment, and `;;` lines carry harness metadata (`;; run:` /
//! `;; expect:`, see [`crate::harness`]). All positions are 1-based.

use crate::harness::{class_by_name, Cmp, Expect, ExpectLhs, ExpectValue};
use crate::AsmError;
use perfvec_isa::{Op, Reg, RegClass};

/// One parsed source line (only lines that carry a statement survive).
pub(crate) struct Line {
    pub no: usize,
    pub stmt: Stmt,
}

/// A single parsed statement.
pub(crate) enum Stmt {
    /// `.name "..."`.
    Name(String),
    /// `.entry label`.
    Entry { sym: String, col: usize },
    /// `.data [addr]` — switch to data emission.
    Data { addr: Option<u64> },
    /// `.word a, b, ...` — u64 little-endian words.
    Word(Vec<u64>),
    /// `.f64 a, b, ...`.
    F64(Vec<f64>),
    /// `.f32 a, b, ...`.
    F32(Vec<f32>),
    /// `.byte a, b, ...`.
    Byte(Vec<u8>),
    /// `.zero n` — reserve `n` zeroed bytes (no initialized segment).
    Zero(u64),
    /// `label:`.
    Label { name: String, col: usize },
    /// An instruction.
    Inst(SrcInst),
    /// `;; run: max_instrs = n`.
    Run { max_instrs: u64 },
    /// `;; expect: lhs op value`.
    Expect(Expect),
}

/// An instruction as written, before encoding.
pub(crate) struct SrcInst {
    pub op: Op,
    /// Access-size suffix (`ld.8`), when present.
    pub size: Option<u8>,
    /// Column of the mnemonic.
    pub col: usize,
    pub operands: Vec<Operand>,
}

pub(crate) struct Operand {
    pub kind: OperandKind,
    pub col: usize,
}

pub(crate) enum OperandKind {
    Reg(Reg),
    /// `#imm`.
    Imm(i64),
    /// `[base + index*scale + offset]`.
    Mem {
        base: Reg,
        index: Option<(Reg, u8)>,
        offset: i64,
    },
    /// A bare identifier: branch-target label, or data-label address
    /// when used as an `li` immediate.
    Sym(String),
    /// `@label` — the code address of a label, as an immediate.
    CodeAddr(String),
}

/// All opcodes, for mnemonic lookup and exhaustive table tests.
pub(crate) const ALL_OPS: [Op; 49] = [
    Op::Add,
    Op::Sub,
    Op::And,
    Op::Or,
    Op::Xor,
    Op::Shl,
    Op::Shr,
    Op::Sra,
    Op::Slt,
    Op::Sltu,
    Op::Li,
    Op::Mov,
    Op::Mul,
    Op::Div,
    Op::Rem,
    Op::Fadd,
    Op::Fsub,
    Op::Fmul,
    Op::Fdiv,
    Op::Fsqrt,
    Op::Fmadd,
    Op::Fmin,
    Op::Fmax,
    Op::Fneg,
    Op::Fclt,
    Op::Icvtf,
    Op::Fcvti,
    Op::Fmov,
    Op::Vadd,
    Op::Vmul,
    Op::Vfma,
    Op::Vsplat,
    Op::Vredsum,
    Op::Ld,
    Op::St,
    Op::Fld,
    Op::Fst,
    Op::Vld,
    Op::Vst,
    Op::Beq,
    Op::Bne,
    Op::Blt,
    Op::Bge,
    Op::J,
    Op::Jal,
    Op::Jr,
    Op::Fence,
    Op::Nop,
    Op::Halt,
];

fn op_by_mnemonic(m: &str) -> Option<Op> {
    ALL_OPS.iter().copied().find(|op| op.mnemonic() == m)
}

/// Parse a full source file into statements.
pub(crate) fn parse(src: &str) -> Result<Vec<Line>, AsmError> {
    let mut out = Vec::new();
    for (i, raw) in src.lines().enumerate() {
        let no = i + 1;
        let trimmed = raw.trim_start();
        if trimmed.starts_with(";;") {
            if let Some(stmt) = parse_meta(no, raw)? {
                out.push(Line { no, stmt });
            }
            continue;
        }
        let code = strip_comment(raw);
        if code.trim().is_empty() {
            continue;
        }
        parse_code_line(no, code, &mut out)?;
    }
    Ok(out)
}

/// Truncate a line at the first `;` that is not inside a string literal.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
        } else if c == '"' {
            in_str = true;
        } else if c == ';' {
            return &line[..i];
        }
    }
    line
}

// ---------------------------------------------------------------------------
// character cursor
// ---------------------------------------------------------------------------

struct Cur {
    chars: Vec<char>,
    i: usize,
    line: usize,
}

impl Cur {
    fn new(line: usize, text: &str) -> Cur {
        Cur {
            chars: text.chars().collect(),
            i: 0,
            line,
        }
    }

    fn col(&self) -> usize {
        self.i + 1
    }

    fn err(&self, msg: impl Into<String>) -> AsmError {
        AsmError::new(self.line, self.col(), msg)
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.i).copied()
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.i + 1).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.i += 1;
        }
        c
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.i += 1;
        }
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.peek().is_none()
    }

    /// `[A-Za-z_][A-Za-z0-9_]*`, or `None` if the next char can't start one.
    fn ident(&mut self) -> Option<String> {
        match self.peek() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
            _ => return None,
        }
        let mut s = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == '_' {
                s.push(c);
                self.i += 1;
            } else {
                break;
            }
        }
        Some(s)
    }

    /// Unsigned integer literal: decimal or `0x` hex (with `_` separators).
    fn lex_uint(&mut self) -> Result<u64, AsmError> {
        let start = self.col();
        let mut digits = String::new();
        let hex = if self.peek() == Some('0') && matches!(self.peek2(), Some('x') | Some('X')) {
            self.i += 2;
            true
        } else {
            false
        };
        while let Some(c) = self.peek() {
            if c == '_' {
                self.i += 1;
            } else if c.is_ascii_hexdigit() && (hex || c.is_ascii_digit()) {
                digits.push(c);
                self.i += 1;
            } else {
                break;
            }
        }
        if digits.is_empty() {
            return Err(AsmError::new(self.line, start, "expected a number"));
        }
        let radix = if hex { 16 } else { 10 };
        u64::from_str_radix(&digits, radix).map_err(|_| {
            AsmError::new(self.line, start, format!("integer `{digits}` out of range"))
        })
    }

    /// Signed integer literal. Decimal or hex magnitudes up to `u64::MAX`
    /// are accepted and reinterpreted as two's-complement `i64`.
    fn lex_int(&mut self) -> Result<i64, AsmError> {
        let start = self.col();
        let neg = self.eat('-');
        let mag = self.lex_uint()?;
        if neg {
            if mag > 1u64 << 63 {
                return Err(AsmError::new(
                    self.line,
                    start,
                    format!("integer -{mag} out of range for i64"),
                ));
            }
            Ok(mag.wrapping_neg() as i64)
        } else {
            Ok(mag as i64)
        }
    }

    /// Floating-point literal (also accepts plain integers).
    fn lex_f64(&mut self) -> Result<f64, AsmError> {
        let start = self.col();
        let mut s = String::new();
        let mut prev_e = false;
        while let Some(c) = self.peek() {
            let take = c.is_ascii_digit()
                || c == '.'
                || c == 'e'
                || c == 'E'
                || ((c == '-' || c == '+') && (s.is_empty() || prev_e));
            if !take {
                break;
            }
            prev_e = c == 'e' || c == 'E';
            s.push(c);
            self.i += 1;
        }
        s.parse::<f64>()
            .map_err(|_| AsmError::new(self.line, start, format!("bad float literal `{s}`")))
    }

    /// `"..."` with `\\` and `\"` escapes.
    fn lex_string(&mut self) -> Result<String, AsmError> {
        if !self.eat('"') {
            return Err(self.err("expected a quoted string"));
        }
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some('"') => return Ok(s),
                Some('\\') => match self.bump() {
                    Some('\\') => s.push('\\'),
                    Some('"') => s.push('"'),
                    _ => return Err(self.err("bad escape in string")),
                },
                Some(c) => s.push(c),
            }
        }
    }
}

/// Classify an identifier as a register name.
enum RegIdent {
    Not,
    Ok(Reg),
    OutOfRange,
}

fn reg_from_ident(s: &str) -> RegIdent {
    let mut cs = s.chars();
    let class = match cs.next() {
        Some('x') => RegClass::Int,
        Some('f') => RegClass::Fp,
        Some('v') => RegClass::Vec,
        _ => return RegIdent::Not,
    };
    let rest = cs.as_str();
    if rest.is_empty() || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return RegIdent::Not;
    }
    match rest.parse::<u32>() {
        Ok(i) if i < class.count() as u32 => RegIdent::Ok(match class {
            RegClass::Int => Reg::x(i as u8),
            RegClass::Fp => Reg::f(i as u8),
            RegClass::Vec => Reg::v(i as u8),
        }),
        _ => RegIdent::OutOfRange,
    }
}

// ---------------------------------------------------------------------------
// code lines
// ---------------------------------------------------------------------------

fn parse_code_line(no: usize, code: &str, out: &mut Vec<Line>) -> Result<(), AsmError> {
    let mut cur = Cur::new(no, code);
    loop {
        if cur.at_end() {
            return Ok(());
        }
        if cur.peek() == Some('.') {
            let stmt = parse_directive(&mut cur)?;
            if !cur.at_end() {
                return Err(cur.err("trailing input after directive"));
            }
            out.push(Line { no, stmt });
            return Ok(());
        }
        let col = cur.col();
        let Some(word) = cur.ident() else {
            return Err(cur.err("expected a label, directive, or mnemonic"));
        };
        cur.skip_ws();
        if cur.eat(':') {
            out.push(Line {
                no,
                stmt: Stmt::Label { name: word, col },
            });
            continue;
        }
        let stmt = parse_inst(&mut cur, word, col)?;
        if !cur.at_end() {
            return Err(cur.err("trailing input after instruction"));
        }
        out.push(Line { no, stmt });
        return Ok(());
    }
}

fn parse_directive(cur: &mut Cur) -> Result<Stmt, AsmError> {
    let col = cur.col();
    cur.eat('.');
    let name = match cur.ident() {
        Some(n) => n,
        None => {
            // `.f64` / `.f32` start with a letter but the ident lexer
            // stops before digits only for non-alnum; handle normally.
            return Err(cur.err("expected a directive name after `.`"));
        }
    };
    cur.skip_ws();
    match name.as_str() {
        "name" => Ok(Stmt::Name(cur.lex_string()?)),
        "entry" => {
            let sym_col = cur.col();
            let sym = cur
                .ident()
                .ok_or_else(|| cur.err("`.entry` expects a label name"))?;
            Ok(Stmt::Entry { sym, col: sym_col })
        }
        "data" => {
            if cur.at_end() {
                Ok(Stmt::Data { addr: None })
            } else {
                Ok(Stmt::Data {
                    addr: Some(cur.lex_uint()?),
                })
            }
        }
        "word" => Ok(Stmt::Word(parse_list(cur, |c| Ok(c.lex_int()? as u64))?)),
        "f64" => Ok(Stmt::F64(parse_list(cur, Cur::lex_f64)?)),
        "f32" => Ok(Stmt::F32(parse_list(cur, |c| Ok(c.lex_f64()? as f32))?)),
        "byte" => Ok(Stmt::Byte(parse_list(cur, |c| {
            let col = c.col();
            let v = c.lex_int()?;
            u8::try_from(v)
                .map_err(|_| AsmError::new(c.line, col, format!("byte value {v} not in 0..=255")))
        })?)),
        "zero" => Ok(Stmt::Zero(cur.lex_uint()?)),
        _ => Err(AsmError::new(
            cur.line,
            col,
            format!("unknown directive `.{name}`"),
        )),
    }
}

fn parse_list<T>(
    cur: &mut Cur,
    mut one: impl FnMut(&mut Cur) -> Result<T, AsmError>,
) -> Result<Vec<T>, AsmError> {
    let mut out = vec![one(cur)?];
    loop {
        cur.skip_ws();
        if !cur.eat(',') {
            return Ok(out);
        }
        cur.skip_ws();
        out.push(one(cur)?);
    }
}

fn parse_inst(cur: &mut Cur, word: String, col: usize) -> Result<Stmt, AsmError> {
    // `ret` and `fli` are authoring sugar (canonical text never emits
    // `fli`; `ret` is the canonical spelling of `jr x30`).
    if word == "ret" {
        return Ok(Stmt::Inst(SrcInst {
            op: Op::Jr,
            size: None,
            col,
            operands: vec![Operand {
                kind: OperandKind::Reg(Reg::LINK),
                col,
            }],
        }));
    }
    if word == "fli" {
        cur.skip_ws();
        let reg_col = cur.col();
        let reg = parse_operand(cur)?;
        cur.skip_ws();
        if !cur.eat(',') {
            return Err(cur.err("`fli` expects `fli fN, <float>`"));
        }
        cur.skip_ws();
        let imm_col = cur.col();
        let bits = cur.lex_f64()?.to_bits() as i64;
        return Ok(Stmt::Inst(SrcInst {
            op: Op::Li,
            size: None,
            col,
            operands: vec![
                Operand {
                    kind: reg.kind,
                    col: reg_col,
                },
                Operand {
                    kind: OperandKind::Imm(bits),
                    col: imm_col,
                },
            ],
        }));
    }

    // Split an access-size suffix: `ld.8`, `fld.4`.
    let mut size = None;
    let base = word;
    if cur.peek() == Some('.') && matches!(cur.peek2(), Some(c) if c.is_ascii_digit()) {
        cur.eat('.');
        let n = cur.lex_uint()?;
        size = Some(u8::try_from(n).map_err(|_| cur.err("bad access size"))?);
    }
    let op = op_by_mnemonic(&base)
        .ok_or_else(|| AsmError::new(cur.line, col, format!("unknown mnemonic `{base}`")))?;

    let mut operands = Vec::new();
    cur.skip_ws();
    if cur.peek().is_some() {
        loop {
            cur.skip_ws();
            operands.push(parse_operand(cur)?);
            cur.skip_ws();
            if !cur.eat(',') {
                break;
            }
        }
    }
    Ok(Stmt::Inst(SrcInst {
        op,
        size,
        col,
        operands,
    }))
}

fn parse_operand(cur: &mut Cur) -> Result<Operand, AsmError> {
    let col = cur.col();
    let kind = match cur.peek() {
        Some('#') => {
            cur.eat('#');
            OperandKind::Imm(cur.lex_int()?)
        }
        Some('@') => {
            cur.eat('@');
            let sym = cur
                .ident()
                .ok_or_else(|| cur.err("expected a label after `@`"))?;
            OperandKind::CodeAddr(sym)
        }
        Some('[') => parse_mem(cur)?,
        _ => {
            let Some(word) = cur.ident() else {
                return Err(cur.err("expected an operand"));
            };
            match reg_from_ident(&word) {
                RegIdent::Ok(r) => OperandKind::Reg(r),
                RegIdent::OutOfRange => {
                    return Err(AsmError::new(
                        cur.line,
                        col,
                        format!("register index out of range in `{word}`"),
                    ))
                }
                RegIdent::Not => OperandKind::Sym(word),
            }
        }
    };
    Ok(Operand { kind, col })
}

fn parse_mem(cur: &mut Cur) -> Result<OperandKind, AsmError> {
    cur.eat('[');
    cur.skip_ws();
    let base_col = cur.col();
    let base = match cur.ident().as_deref().map(reg_from_ident) {
        Some(RegIdent::Ok(r)) if r.class() == RegClass::Int => r,
        _ => {
            return Err(AsmError::new(
                cur.line,
                base_col,
                "memory base must be an integer register",
            ))
        }
    };
    let mut index = None;
    let mut offset = 0i64;
    cur.skip_ws();
    while let Some(sign) = cur.peek().filter(|&c| c == '+' || c == '-') {
        cur.bump();
        cur.skip_ws();
        let term_col = cur.col();
        if matches!(cur.peek(), Some(c) if c.is_ascii_alphabetic()) {
            if sign == '-' {
                return Err(AsmError::new(
                    cur.line,
                    term_col,
                    "index register cannot be subtracted",
                ));
            }
            if index.is_some() {
                return Err(AsmError::new(
                    cur.line,
                    term_col,
                    "memory operand has more than one index register",
                ));
            }
            let idx = match cur.ident().as_deref().map(reg_from_ident) {
                Some(RegIdent::Ok(r)) if r.class() == RegClass::Int => r,
                _ => {
                    return Err(AsmError::new(
                        cur.line,
                        term_col,
                        "memory index must be an integer register",
                    ))
                }
            };
            cur.skip_ws();
            let scale = if cur.eat('*') {
                cur.skip_ws();
                let scale_col = cur.col();
                let s = cur.lex_uint()?;
                u8::try_from(s).map_err(|_| {
                    AsmError::new(cur.line, scale_col, format!("bad index scale {s}"))
                })?
            } else {
                1
            };
            index = Some((idx, scale));
        } else {
            let mag = cur.lex_int()?;
            let term = if sign == '-' { mag.wrapping_neg() } else { mag };
            offset = offset.wrapping_add(term);
        }
        cur.skip_ws();
    }
    if !cur.eat(']') {
        return Err(cur.err("expected `]` to close the memory operand"));
    }
    Ok(OperandKind::Mem {
        base,
        index,
        offset,
    })
}

// ---------------------------------------------------------------------------
// `;;` harness metadata
// ---------------------------------------------------------------------------

/// Parse a `;;` line. Returns `None` for prose comments; errors on a
/// directive-shaped word (`foo:`) that isn't a known directive, so a
/// typo'd `;; expct:` can never silently pass.
fn parse_meta(no: usize, raw: &str) -> Result<Option<Stmt>, AsmError> {
    let start = raw.find(";;").expect("caller checked") + 2;
    let rest = &raw[start..];
    let mut cur = Cur::new(no, rest);
    // Column bookkeeping: positions inside `rest` are offset by `start`.
    cur.i = 0;
    let text = rest.trim_start();
    if text.is_empty() {
        return Ok(None);
    }
    let head = text.split_whitespace().next().unwrap_or("");
    match head {
        "run:" => {
            cur.skip_ws();
            cur.i += "run:".len();
            cur.skip_ws();
            // `max_instrs = N` (the key is optional).
            if matches!(cur.peek(), Some(c) if c.is_ascii_alphabetic()) {
                let key = cur.ident().unwrap_or_default();
                if key != "max_instrs" {
                    return Err(AsmError::new(
                        no,
                        start + cur.col(),
                        format!("unknown run key `{key}` (expected `max_instrs`)"),
                    ));
                }
                cur.skip_ws();
                if !cur.eat('=') {
                    return Err(AsmError::new(no, start + cur.col(), "expected `=`"));
                }
                cur.skip_ws();
            }
            let max_instrs = cur
                .lex_uint()
                .map_err(|e| AsmError::new(no, start + e.col, e.msg))?;
            Ok(Some(Stmt::Run { max_instrs }))
        }
        "expect:" => {
            cur.skip_ws();
            cur.i += "expect:".len();
            let expect =
                parse_expect(&mut cur, no).map_err(|e| AsmError::new(no, start + e.col, e.msg))?;
            Ok(Some(Stmt::Expect(expect)))
        }
        h if h.ends_with(':') => Err(AsmError::new(
            no,
            start + 1,
            format!("unknown harness directive `;; {h}` (expected `run:` or `expect:`)"),
        )),
        _ => Ok(None), // prose comment
    }
}

fn parse_expect(cur: &mut Cur, line: usize) -> Result<Expect, AsmError> {
    cur.skip_ws();
    let lhs_col = cur.col();
    let lhs = if let Some(word) = cur.ident() {
        match word.as_str() {
            "executed" => ExpectLhs::Executed,
            "halted" => ExpectLhs::Halted,
            "trap" => ExpectLhs::Trap,
            "mem" => {
                if !cur.eat('[') {
                    return Err(cur.err("expected `[addr]` after `mem`"));
                }
                cur.skip_ws();
                let addr = cur.lex_uint()?;
                cur.skip_ws();
                if !cur.eat(']') {
                    return Err(cur.err("expected `]`"));
                }
                if !cur.eat('.') {
                    return Err(cur.err("expected a size suffix, e.g. `mem[0x100].8`"));
                }
                let size_col = cur.col();
                let size = cur.lex_uint()?;
                if !matches!(size, 1 | 2 | 4 | 8) {
                    return Err(AsmError::new(
                        line,
                        size_col,
                        format!("bad mem access size {size} (1, 2, 4, or 8)"),
                    ));
                }
                ExpectLhs::Mem {
                    addr,
                    size: size as u8,
                }
            }
            "class" => {
                if !cur.eat('[') {
                    return Err(cur.err("expected `[name]` after `class`"));
                }
                cur.skip_ws();
                let name_col = cur.col();
                let name = cur
                    .ident()
                    .ok_or_else(|| cur.err("expected a class name"))?;
                let class = class_by_name(&name).ok_or_else(|| {
                    AsmError::new(line, name_col, format!("unknown op class `{name}`"))
                })?;
                cur.skip_ws();
                if !cur.eat(']') {
                    return Err(cur.err("expected `]`"));
                }
                ExpectLhs::ClassFrac(class)
            }
            other => match reg_from_ident(other) {
                RegIdent::Ok(r) if r.class() == RegClass::Int => ExpectLhs::X(r.index()),
                RegIdent::Ok(r) if r.class() == RegClass::Fp => ExpectLhs::F(r.index()),
                RegIdent::Ok(_) => {
                    return Err(AsmError::new(
                        line,
                        lhs_col,
                        "vector registers are not checkable; check memory instead",
                    ))
                }
                _ => {
                    return Err(AsmError::new(
                        line,
                        lhs_col,
                        format!("unknown expect target `{other}`"),
                    ))
                }
            },
        }
    } else {
        return Err(cur.err("expected an expect target"));
    };

    cur.skip_ws();
    let cmp_col = cur.col();
    let cmp = match (cur.bump(), cur.peek()) {
        (Some('='), Some('=')) => {
            cur.bump();
            Cmp::Eq
        }
        (Some('='), _) => Cmp::Eq,
        (Some('!'), Some('=')) => {
            cur.bump();
            Cmp::Ne
        }
        (Some('<'), Some('=')) => {
            cur.bump();
            Cmp::Le
        }
        (Some('<'), _) => Cmp::Lt,
        (Some('>'), Some('=')) => {
            cur.bump();
            Cmp::Ge
        }
        (Some('>'), _) => Cmp::Gt,
        _ => {
            return Err(AsmError::new(
                line,
                cmp_col,
                "expected a comparison (= != < <= > >=)",
            ))
        }
    };

    cur.skip_ws();
    let value = if matches!(cur.peek(), Some(c) if c.is_ascii_alphabetic()) {
        ExpectValue::Word(cur.ident().unwrap_or_default())
    } else {
        // Distinguish ints from floats by the literal's shape.
        let save = cur.i;
        match cur.lex_int() {
            Ok(v) if !matches!(cur.peek(), Some('.') | Some('e') | Some('E')) => {
                ExpectValue::Int(v)
            }
            _ => {
                cur.i = save;
                ExpectValue::Float(cur.lex_f64()?)
            }
        }
    };
    if !cur.at_end() {
        return Err(cur.err("trailing input after expect"));
    }
    Ok(Expect {
        line,
        lhs,
        cmp,
        value,
    })
}
