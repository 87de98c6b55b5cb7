//! # perfvec-asm
//!
//! A text frontend for the perfvec ISA: a line-oriented assembler
//! (mnemonic parser → validated encoder → [`perfvec_isa::Program`]), a
//! canonical disassembler (the round-trip anchor: any program the
//! builder or the parser can produce disassembles to text that
//! re-assembles bit-identically), and a golden test-runner harness that
//! executes `.pasm` files under [`perfvec_isa::Emulator`] and checks
//! embedded `;; expect:` directives.
//!
//! This is the ingestion layer that takes experiments off the built-in
//! 17-workload grid: any external program written in the grammar below
//! becomes a trace, a content-addressed cached dataset, and a served
//! prediction.
//!
//! ## Grammar (canonical form)
//!
//! ```text
//! .name "pointer-chase"        ; program name (optional)
//! .data 0x10000000             ; switch to data emission at an address
//! ring: .word 8, 16, 0, 32     ; u64 little-endian words (data label)
//!       .byte 1, 2, 3          ; raw bytes
//!       .zero 64               ; reserve zeroed bytes
//! .entry start                 ; entry label (optional, default first inst)
//!     li x1, ring              ; data labels are address immediates
//! start:
//!     ld.8 x2, [x1 + x3*8 - 8] ; loads/stores carry a size suffix
//!     beq x2, #0, done
//!     jal helper               ; call (link register x30 implied)
//!     j start
//! done:
//!     halt
//! helper:
//!     ret                      ; sugar for `jr x30`
//! ```
//!
//! Registers are `x0`..`x31`, `f0`..`f31`, `v0`..`v15`; immediates are
//! `#<int>` (decimal or `0x` hex); `@label` is the *code address* of a
//! label as an immediate. `;` starts a comment; `;;` directives carry
//! harness metadata ([`harness`]).
//!
//! All errors carry 1-based line/column positions ([`AsmError`]).

pub mod disasm;
pub mod encoder;
pub mod harness;
pub mod parser;

pub use disasm::{disassemble, inst_text};
pub use encoder::{assemble, AsmProgram};
pub use harness::{
    check_expects, execute, golden_check, trap_diagnostic, Execution, TrapInfo, DEFAULT_MAX_INSTRS,
};

/// An assembly-time diagnostic with a 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Human-readable message.
    pub msg: String,
}

impl AsmError {
    pub(crate) fn new(line: usize, col: usize, msg: impl Into<String>) -> AsmError {
        AsmError {
            line,
            col,
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for AsmError {}
