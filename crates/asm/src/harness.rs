//! Golden test-runner harness.
//!
//! Executes an assembled program under [`Emulator`] and checks the
//! embedded `;; expect:` directives. The checkable quantities:
//!
//! ```text
//! ;; run: max_instrs = 50000      ; instruction budget (default 100000)
//! ;; expect: executed > 10000     ; dynamic instruction count
//! ;; expect: halted = true        ; reached `halt` (vs budget exhausted)
//! ;; expect: trap = none          ; none | pc_out_of_range | bad_jump | unsupported
//! ;; expect: x5 = 42              ; integer register value
//! ;; expect: f1 = 2.5             ; fp register value
//! ;; expect: mem[0x10000010].8 = 7   ; memory as unsigned, given size
//! ;; expect: class[branch] >= 0.2 ; fraction of executed instructions
//! ```
//!
//! Comparisons: `=` (or `==`), `!=`, `<`, `<=`, `>`, `>=`.

use crate::encoder::AsmProgram;
use crate::{assemble, disassemble};
use perfvec_isa::{EmuError, Emulator, OpClass, Reg, CODE_BASE, INST_BYTES};

/// Default instruction budget when a file has no `;; run:` directive.
pub const DEFAULT_MAX_INSTRS: u64 = 100_000;

/// Comparison operator in an `;; expect:` directive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Cmp {
    fn text(self) -> &'static str {
        match self {
            Cmp::Eq => "=",
            Cmp::Ne => "!=",
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
        }
    }

    fn holds<T: PartialOrd>(self, a: T, b: T) -> bool {
        match self {
            Cmp::Eq => a == b,
            Cmp::Ne => a != b,
            Cmp::Lt => a < b,
            Cmp::Le => a <= b,
            Cmp::Gt => a > b,
            Cmp::Ge => a >= b,
        }
    }
}

/// Left-hand side of an expectation.
#[derive(Debug, Clone, PartialEq)]
pub enum ExpectLhs {
    Executed,
    Halted,
    Trap,
    /// Integer register `x<n>`.
    X(u8),
    /// FP register `f<n>`.
    F(u8),
    /// Memory word at `addr`, read unsigned with `size` bytes.
    Mem {
        addr: u64,
        size: u8,
    },
    /// Fraction of executed instructions in an [`OpClass`].
    ClassFrac(OpClass),
}

/// Right-hand side of an expectation.
#[derive(Debug, Clone, PartialEq)]
pub enum ExpectValue {
    Int(i64),
    Float(f64),
    /// `true`, `false`, or a trap name.
    Word(String),
}

impl std::fmt::Display for ExpectValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExpectValue::Int(v) => write!(f, "{v}"),
            ExpectValue::Float(v) => write!(f, "{v}"),
            ExpectValue::Word(w) => write!(f, "{w}"),
        }
    }
}

/// One `;; expect:` directive.
#[derive(Debug, Clone, PartialEq)]
pub struct Expect {
    /// 1-based source line of the directive.
    pub line: usize,
    pub lhs: ExpectLhs,
    pub cmp: Cmp,
    pub value: ExpectValue,
}

/// Where and why execution trapped.
#[derive(Debug, Clone)]
pub struct TrapInfo {
    /// The emulator error.
    pub err: EmuError,
    /// Static index of the instruction being fetched when the trap
    /// fired (out of range itself for `PcOutOfRange`).
    pub idx: u32,
    /// Instructions retired before the trap.
    pub executed: u64,
}

impl TrapInfo {
    /// Canonical short name, matched by `;; expect: trap = <name>`.
    pub fn name(&self) -> &'static str {
        trap_name(Some(&self.err))
    }
}

fn trap_name(err: Option<&EmuError>) -> &'static str {
    match err {
        None => "none",
        Some(EmuError::PcOutOfRange { .. }) => "pc_out_of_range",
        Some(EmuError::BadJumpTarget { .. }) => "bad_jump",
        Some(EmuError::UnsupportedOperand) => "unsupported",
    }
}

/// Map class names used by `;; expect: class[...]` to [`OpClass`].
pub fn class_by_name(name: &str) -> Option<OpClass> {
    OpClass::ALL
        .iter()
        .copied()
        .find(|c| class_name(*c) == name)
}

/// The `;; expect:` spelling of an [`OpClass`].
pub fn class_name(c: OpClass) -> &'static str {
    match c {
        OpClass::IntAlu => "int_alu",
        OpClass::IntMul => "int_mul",
        OpClass::IntDiv => "int_div",
        OpClass::FpAlu => "fp_alu",
        OpClass::FpMul => "fp_mul",
        OpClass::FpDiv => "fp_div",
        OpClass::Simd => "simd",
        OpClass::Load => "load",
        OpClass::Store => "store",
        OpClass::Branch => "branch",
        OpClass::Other => "other",
    }
}

/// The architectural outcome of running an assembled program.
pub struct Execution<'p> {
    /// The emulator, stopped — registers and memory are inspectable.
    pub emu: Emulator<'p>,
    /// Instructions retired.
    pub executed: u64,
    /// Whether `halt` was reached.
    pub halted: bool,
    /// The trap, if the program is broken.
    pub trap: Option<TrapInfo>,
    /// Retired instructions per [`OpClass`].
    pub class_counts: [u64; OpClass::COUNT],
}

/// Run an assembled program to its budget (`;; run:` or
/// [`DEFAULT_MAX_INSTRS`], capped by `max_cap` when nonzero), tracking
/// the fetch index so traps can be mapped back to source lines.
pub fn execute<'p>(ap: &'p AsmProgram, max_cap: u64) -> Execution<'p> {
    let mut budget = ap.run_limit.unwrap_or(DEFAULT_MAX_INSTRS);
    if max_cap != 0 {
        budget = budget.min(max_cap);
    }
    let mut emu = Emulator::new(&ap.program);
    let mut class_counts = [0u64; OpClass::COUNT];
    let mut fetch_idx = ap.program.entry as u64;
    let mut trap = None;
    while !emu.halted() && emu.executed() < budget {
        match emu.step() {
            Ok(rec) => {
                let op = ap.program.insts[rec.sidx as usize].op;
                class_counts[op.class() as usize] += 1;
                fetch_idx = rec.next_sidx as u64;
            }
            Err(err) => {
                trap = Some(TrapInfo {
                    err,
                    idx: fetch_idx as u32,
                    executed: emu.executed(),
                });
                break;
            }
        }
    }
    Execution {
        executed: emu.executed(),
        halted: emu.halted(),
        trap,
        class_counts,
        emu,
    }
}

/// A human-readable trap report carrying pc, instruction index, and
/// source line.
pub fn trap_diagnostic(ap: &AsmProgram, t: &TrapInfo) -> String {
    let pc = CODE_BASE + t.idx as u64 * INST_BYTES;
    match ap.line_of(t.idx) {
        Some(line) => {
            let text = crate::disasm::inst_text(&ap.program.insts[t.idx as usize]);
            format!(
                "trap: {} at pc {pc:#x} (instruction index {}, source line {line}: `{text}`) after {} instructions",
                t.err, t.idx, t.executed
            )
        }
        None => format!(
            "trap: {} at pc {pc:#x} (instruction index {} is outside the program, no source line) after {} instructions",
            t.err, t.idx, t.executed
        ),
    }
}

/// Evaluate every `;; expect:` directive; returns the failures.
pub fn check_expects(ap: &AsmProgram, exec: &Execution<'_>) -> Vec<String> {
    let mut failures = Vec::new();
    for e in &ap.expects {
        if let Err(msg) = check_one(ap, exec, e) {
            failures.push(msg);
        }
    }
    failures
}

fn check_one(ap: &AsmProgram, exec: &Execution<'_>, e: &Expect) -> Result<(), String> {
    let fail = |lhs: &str, actual: String| {
        Err(format!(
            "line {}: expect {lhs} {} {} failed (actual {actual})",
            e.line,
            e.cmp.text(),
            e.value
        ))
    };
    match &e.lhs {
        ExpectLhs::Executed => {
            let actual = exec.executed as i64;
            let want = int_value(e)?;
            if e.cmp.holds(actual, want) {
                Ok(())
            } else {
                fail("executed", actual.to_string())
            }
        }
        ExpectLhs::Halted => {
            let actual = exec.halted;
            let want = bool_value(e)?;
            let ok = match e.cmp {
                Cmp::Eq => actual == want,
                Cmp::Ne => actual != want,
                _ => return Err(format!("line {}: `halted` supports only = and !=", e.line)),
            };
            if ok {
                Ok(())
            } else {
                fail("halted", actual.to_string())
            }
        }
        ExpectLhs::Trap => {
            let actual = trap_name(exec.trap.as_ref().map(|t| &t.err));
            let want = match &e.value {
                ExpectValue::Word(w)
                    if matches!(
                        w.as_str(),
                        "none" | "pc_out_of_range" | "bad_jump" | "unsupported"
                    ) =>
                {
                    w.as_str()
                }
                other => {
                    return Err(format!(
                        "line {}: bad trap name `{other}` (none, pc_out_of_range, bad_jump, unsupported)",
                        e.line
                    ))
                }
            };
            let ok = match e.cmp {
                Cmp::Eq => actual == want,
                Cmp::Ne => actual != want,
                _ => return Err(format!("line {}: `trap` supports only = and !=", e.line)),
            };
            if ok {
                Ok(())
            } else {
                let detail = exec
                    .trap
                    .as_ref()
                    .map(|t| format!("; {}", trap_diagnostic(ap, t)))
                    .unwrap_or_default();
                fail("trap", format!("{actual}{detail}"))
            }
        }
        ExpectLhs::X(i) => {
            let actual = exec.emu.read_x(Reg::x(*i));
            let want = int_value(e)?;
            if e.cmp.holds(actual, want) {
                Ok(())
            } else {
                fail(&format!("x{i}"), actual.to_string())
            }
        }
        ExpectLhs::F(i) => {
            let actual = exec.emu.read_f(Reg::f(*i));
            let want = float_value(e)?;
            if e.cmp.holds(actual, want) {
                Ok(())
            } else {
                fail(&format!("f{i}"), actual.to_string())
            }
        }
        ExpectLhs::Mem { addr, size } => {
            let actual = exec.emu.memory().read_uint(*addr, *size);
            let want = int_value(e)? as u64;
            if e.cmp.holds(actual, want) {
                Ok(())
            } else {
                fail(&format!("mem[{addr:#x}].{size}"), actual.to_string())
            }
        }
        ExpectLhs::ClassFrac(c) => {
            let total = exec.executed.max(1) as f64;
            let actual = exec.class_counts[*c as usize] as f64 / total;
            let want = float_value(e)?;
            if e.cmp.holds(actual, want) {
                Ok(())
            } else {
                fail(
                    &format!("class[{}]", class_name(*c)),
                    format!("{actual:.4}"),
                )
            }
        }
    }
}

fn int_value(e: &Expect) -> Result<i64, String> {
    match &e.value {
        ExpectValue::Int(v) => Ok(*v),
        other => Err(format!(
            "line {}: expected an integer, got `{other}`",
            e.line
        )),
    }
}

fn float_value(e: &Expect) -> Result<f64, String> {
    match &e.value {
        ExpectValue::Float(v) => Ok(*v),
        ExpectValue::Int(v) => Ok(*v as f64),
        other => Err(format!("line {}: expected a number, got `{other}`", e.line)),
    }
}

fn bool_value(e: &Expect) -> Result<bool, String> {
    match &e.value {
        ExpectValue::Word(w) if w == "true" => Ok(true),
        ExpectValue::Word(w) if w == "false" => Ok(false),
        other => Err(format!(
            "line {}: expected `true` or `false`, got `{other}`",
            e.line
        )),
    }
}

/// The golden check for one `.pasm` source: assemble, verify the
/// disassembly round-trip, execute, and evaluate every expectation.
/// Returns a one-line summary on success, a failure report otherwise.
pub fn golden_check(src: &str, default_name: &str) -> Result<String, String> {
    let ap = assemble(src, default_name).map_err(|e| format!("assembly failed: {e}"))?;

    // Round-trip anchor: canonical text must re-assemble bit-identically.
    let text = disassemble(&ap.program);
    let back =
        assemble(&text, default_name).map_err(|e| format!("round-trip reassembly failed: {e}"))?;
    if back.program.insts != ap.program.insts
        || back.program.data != ap.program.data
        || back.program.entry != ap.program.entry
        || back.program.name != ap.program.name
    {
        return Err("round-trip mismatch: disassembled text re-assembled differently".to_string());
    }

    let exec = execute(&ap, 0);
    let expects_trap = ap.expects.iter().any(|e| matches!(e.lhs, ExpectLhs::Trap));
    if let Some(t) = &exec.trap {
        if !expects_trap {
            return Err(trap_diagnostic(&ap, t));
        }
    }
    let failures = check_expects(&ap, &exec);
    if !failures.is_empty() {
        return Err(failures.join("\n"));
    }
    Ok(format!(
        "{}: {} instructions, halted={}, trap={}, {} expectation(s) ok",
        ap.program.name,
        exec.executed,
        exec.halted,
        trap_name(exec.trap.as_ref().map(|t| &t.err)),
        ap.expects.len()
    ))
}
