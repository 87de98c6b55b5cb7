//! # perfvec-sim
//!
//! Trace-driven, cycle-level CPU timing simulation — the gem5 substitute
//! in this PerfVec reproduction.
//!
//! Given a microarchitecture-independent dynamic instruction trace from
//! [`perfvec_isa`], [`simulate`] replays it on a parameterised machine
//! ([`MicroArchConfig`]) and returns per-instruction **incremental
//! latencies** in 0.1 ns units ([`SimResult`]) — exactly the training
//! signal PerfVec's foundation model learns from.
//!
//! Two core models are provided (out-of-order with a ROB/LSQ, and a
//! scoreboarded in-order pipeline), on top of shared substrates: a
//! set-associative two-level cache hierarchy, four branch-predictor
//! families plus a BTB, functional-unit pools, and a bandwidth-limited
//! main memory in four technologies. [`sample::training_population`]
//! reproduces the paper's 77-machine dataset recipe.
//!
//! For grid generation — many machines over one trace —
//! [`simulate_column`] decodes the trace once and runs every machine
//! over that one buffer; [`simulate`] runs the same kernel for one
//! machine. Every result is bit-identical to the frozen [`reference`]
//! oracle.
//!
//! ```
//! use perfvec_isa::{ProgramBuilder, Reg, Emulator};
//! use perfvec_sim::{simulate, sample::predefined_configs};
//!
//! let mut b = ProgramBuilder::new();
//! b.li(Reg::x(1), 0);
//! let top = b.label();
//! b.addi(Reg::x(1), Reg::x(1), 1);
//! b.blt_imm(Reg::x(1), 100, top);
//! b.halt();
//! let prog = b.build();
//! let trace = Emulator::new(&prog).run(10_000).unwrap();
//!
//! for cfg in predefined_configs() {
//!     let r = simulate(&trace, &cfg);
//!     assert!(r.total_tenths > 0.0);
//!     // Compositionality: incremental latencies sum to total time.
//!     assert!((r.sum_incremental() - r.total_tenths).abs() < 1e-5 * r.total_tenths);
//! }
//! ```

pub mod branch;
pub mod cache;
pub mod config;
pub mod fu;
pub mod inorder;
pub mod latency;
pub mod lockstep;
pub(crate) mod machine;
pub mod memsys;
pub mod ooo;
pub mod reference;
pub mod sample;

pub use cache::HitLevel;
pub use config::{CoreKind, MicroArchConfig};
pub use latency::{SimResult, SimStats};
pub use lockstep::simulate_column;

use perfvec_isa::Trace;

/// Simulate `trace` on `cfg`: the same decode and machine kernel as a
/// [`simulate_column`] of one, without the column metrics.
pub fn simulate(trace: &Trace, cfg: &MicroArchConfig) -> SimResult {
    machine::with_scratch(|s| {
        s.dt.build(trace);
        machine::run_machine(&s.dt, cfg, &mut s.cell)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfvec_isa::{Emulator, ProgramBuilder, Reg};

    #[test]
    fn dispatch_selects_core_model() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::x(1), 0);
        let top = b.label();
        b.addi(Reg::x(1), Reg::x(1), 1);
        b.blt_imm(Reg::x(1), 50, top);
        b.halt();
        let p = b.build();
        let t = Emulator::new(&p).run(10_000).unwrap();
        for cfg in sample::predefined_configs() {
            let r = simulate(&t, &cfg);
            assert_eq!(r.len(), t.len(), "{}", cfg.name);
            assert!(r.total_tenths > 0.0, "{}", cfg.name);
        }
    }

    #[test]
    fn same_trace_different_configs_different_times() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::x(1), 0);
        let top = b.label();
        b.muli(Reg::x(2), Reg::x(1), 17);
        b.addi(Reg::x(1), Reg::x(1), 1);
        b.blt_imm(Reg::x(1), 500, top);
        b.halt();
        let p = b.build();
        let t = Emulator::new(&p).run(10_000).unwrap();
        let times: Vec<f64> = sample::predefined_configs()
            .iter()
            .map(|c| simulate(&t, c).total_tenths)
            .collect();
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(0.0, f64::max);
        assert!(
            max > 2.0 * min,
            "microarchitectures should differ: {times:?}"
        );
    }
}
