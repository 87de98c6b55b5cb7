//! Grid simulation: one trace decode, many machines.
//!
//! [`simulate_column`] decodes a trace once into a flat
//! [`perfvec_trace::DecodedTrace`], then runs each machine of the
//! column through the whole trace in turn, over that one buffer. The
//! decode is paid once per column instead of once per (trace, machine)
//! cell. [`crate::simulate`] runs the same kernel for one machine.
//!
//! Machines are fully independent: each owns its scoreboard, rings,
//! cache hierarchy, branch state, forwarding window and fetch cursor,
//! so a column's results do not depend on which other machines share
//! it or in what order they appear.
//!
//! Observability: per-column decode/simulate wall time and a grid-cell
//! throughput gauge are recorded through `perfvec-obs`
//! ([`LockstepMetrics`]) — strictly outside the simulated state. Only
//! [`simulate_column`] records; per-cell [`crate::simulate`] calls do
//! not.

use crate::config::MicroArchConfig;
use crate::latency::SimResult;
use crate::machine::{run_machine, with_scratch};
use perfvec_isa::Trace;
use perfvec_obs::{Counter, Gauge, Histogram};
use std::sync::OnceLock;
use std::time::Instant;

/// Instrumentation for [`simulate_column`], shared by every thread.
pub struct LockstepMetrics {
    /// Wall time (µs) spent batch-decoding the trace, per column.
    pub column_decode_us: Histogram,
    /// Wall time (µs) spent simulating the machine column, per column.
    pub column_simulate_us: Histogram,
    /// Grid cells (machine × trace pairs) simulated.
    pub cells: Counter,
    /// Most recent per-column throughput in grid cells per second.
    pub cells_per_sec: Gauge,
}

/// The process-wide [`LockstepMetrics`] instance.
pub fn metrics() -> &'static LockstepMetrics {
    static METRICS: OnceLock<LockstepMetrics> = OnceLock::new();
    METRICS.get_or_init(|| LockstepMetrics {
        column_decode_us: Histogram::new(),
        column_simulate_us: Histogram::new(),
        cells: Counter::new(),
        cells_per_sec: Gauge::new(),
    })
}

/// Simulate `trace` on every machine in `configs` and return one
/// [`SimResult`] per config in input order. Each result is
/// bit-identical to the frozen reference oracle
/// ([`crate::reference::simulate_reference`]).
pub fn simulate_column(trace: &Trace, configs: &[MicroArchConfig]) -> Vec<SimResult> {
    if configs.is_empty() {
        return Vec::new();
    }
    with_scratch(|s| {
        let m = metrics();
        let t_decode = Instant::now();
        s.dt.build(trace);
        m.column_decode_us
            .record(t_decode.elapsed().as_micros() as u64);

        let t_sim = Instant::now();
        let out: Vec<SimResult> = configs
            .iter()
            .map(|cfg| run_machine(&s.dt, cfg, &mut s.cell))
            .collect();
        let sim_secs = t_sim.elapsed().as_secs_f64();
        m.column_simulate_us.record((sim_secs * 1e6) as u64);
        m.cells.add(configs.len() as u64);
        if sim_secs > 0.0 {
            m.cells_per_sec
                .set((configs.len() as f64 / sim_secs) as i64);
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::simulate_reference;
    use crate::sample::predefined_configs;
    use perfvec_isa::{Emulator, ProgramBuilder, Reg};

    fn mixed_trace() -> Trace {
        let mut b = ProgramBuilder::new();
        let buf = b.alloc_zeroed(1024);
        let (base, x, i) = (Reg::x(1), Reg::x(2), Reg::x(3));
        b.li(base, buf as i64);
        b.li(x, 7);
        b.li(i, 0);
        let top = b.label();
        let skip = b.fwd_label();
        b.muli(x, x, 1103515245);
        b.andi(Reg::x(4), x, 1015);
        b.st_idx(x, base, Reg::x(4), 8, 0, 8);
        b.ld_idx(Reg::x(5), base, Reg::x(4), 8, 0, 8);
        b.shri(Reg::x(6), x, 13);
        b.andi(Reg::x(6), Reg::x(6), 1);
        b.beq_imm(Reg::x(6), 0, skip);
        b.fence();
        b.bind(skip);
        b.addi(i, i, 1);
        b.blt_imm(i, 300, top);
        b.halt();
        let p = b.build();
        Emulator::new(&p).run(100_000).unwrap()
    }

    #[test]
    fn column_matches_reference_on_predefined_machines() {
        let t = mixed_trace();
        let configs = predefined_configs();
        let col = simulate_column(&t, &configs);
        assert_eq!(col.len(), configs.len());
        for (r, c) in col.iter().zip(&configs) {
            let oracle = simulate_reference(&t, c);
            assert!(
                r.bits_identical(&oracle),
                "{}: column diverged from the reference ({:?} vs {:?})",
                c.name,
                r.stats,
                oracle.stats
            );
        }
    }

    #[test]
    fn column_order_follows_config_order() {
        // Mixed kinds in an interleaved order: results must come back
        // in input order.
        let t = mixed_trace();
        let pool = predefined_configs();
        let configs = vec![
            pool[4].clone(), // in-order
            pool[0].clone(), // ooo
            pool[5].clone(), // in-order
            pool[1].clone(), // ooo
        ];
        let col = simulate_column(&t, &configs);
        for (r, c) in col.iter().zip(&configs) {
            assert!(r.bits_identical(&simulate_reference(&t, c)), "{}", c.name);
        }
    }

    #[test]
    fn empty_column_and_empty_config_list() {
        let t = mixed_trace();
        assert!(simulate_column(&t, &[]).is_empty());
    }

    #[test]
    fn repeated_columns_are_deterministic() {
        let t = mixed_trace();
        let configs = predefined_configs();
        let a = simulate_column(&t, &configs);
        let b = simulate_column(&t, &configs);
        for ((x, y), c) in a.iter().zip(&b).zip(&configs) {
            assert!(x.bits_identical(y), "{}", c.name);
        }
    }

    #[test]
    fn metrics_record_cells() {
        let t = mixed_trace();
        let before = metrics().cells.get();
        let _ = simulate_column(&t, &predefined_configs());
        assert!(metrics().cells.get() >= before + predefined_configs().len() as u64);
    }
}
