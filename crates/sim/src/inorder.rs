//! In-order core timing model.
//!
//! Scoreboarded in-order pipeline (Cortex-A7/A53 flavour): instructions
//! issue strictly in program order, stall on source operands (loads block
//! at first use), share the front end's fetch/branch behaviour with the
//! OoO model, and retire in order. The timing loop lives in the crate's
//! private `machine` module; run it through [`crate::simulate`] or
//! [`crate::simulate_column`].

#[cfg(test)]
mod tests {
    use crate::sample::predefined_configs;
    use crate::{simulate, MicroArchConfig};
    use perfvec_isa::{Emulator, ProgramBuilder, Reg, Trace};

    fn cfg(name: &str) -> MicroArchConfig {
        predefined_configs()
            .into_iter()
            .find(|c| c.name == name)
            .unwrap()
    }

    fn ilp_trace() -> Trace {
        let mut b = ProgramBuilder::new();
        let (a, c, i) = (Reg::x(1), Reg::x(3), Reg::x(4));
        b.li(a, 1);
        b.li(c, 3);
        b.li(i, 0);
        let top = b.label();
        b.add(Reg::x(5), a, c);
        b.add(Reg::x(6), a, c);
        b.add(Reg::x(7), a, c);
        b.add(Reg::x(8), a, c);
        b.addi(i, i, 1);
        b.blt_imm(i, 1000, top);
        b.halt();
        let p = b.build();
        Emulator::new(&p).run(1_000_000).unwrap()
    }

    #[test]
    fn inorder_ipc_bounded_by_issue_width() {
        let t = ilp_trace();
        let c = cfg("cortex-a7-like"); // dual issue
        let r = simulate(&t, &c);
        assert!(r.stats.ipc() <= c.issue_width as f64 + 1e-9);
        assert!(
            r.stats.ipc() > 0.4,
            "should still make progress, ipc {}",
            r.stats.ipc()
        );
    }

    #[test]
    fn ooo_core_outruns_inorder_core_on_same_trace() {
        let t = ilp_trace();
        let io = simulate(&t, &cfg("a53-like"));
        let ooo = simulate(&t, &cfg("o3-big"));
        assert!(ooo.stats.ipc() > io.stats.ipc());
    }

    #[test]
    fn scalar_core_is_slowest() {
        let t = ilp_trace();
        let scalar = simulate(&t, &cfg("scalar-simple"));
        let dual = simulate(&t, &cfg("a53-like"));
        assert!(scalar.stats.ipc() <= 1.0 + 1e-9);
        assert!(dual.stats.cycles < scalar.stats.cycles);
    }

    #[test]
    fn incremental_latency_sums_for_inorder_cores() {
        let t = ilp_trace();
        for c in predefined_configs()
            .iter()
            .filter(|c| c.core == crate::config::CoreKind::InOrder)
        {
            let r = simulate(&t, c);
            assert!(
                (r.sum_incremental() - r.total_tenths).abs() < 1e-6 * r.total_tenths.max(1.0),
                "{}",
                c.name
            );
        }
    }

    #[test]
    fn load_use_stall_hurts_inorder_more() {
        // load -> immediate use chain
        let mut b = ProgramBuilder::new();
        let buf = b.alloc_u64_slice(&vec![1u64; 512]);
        let (base, v, i) = (Reg::x(1), Reg::x(2), Reg::x(3));
        b.li(base, buf as i64);
        b.li(i, 0);
        let top = b.label();
        b.ld_idx(v, base, i, 8, 0, 8);
        b.add(Reg::x(5), v, v); // uses the load immediately
        b.addi(i, i, 1);
        b.andi(i, i, 511);
        b.addi(Reg::x(6), Reg::x(6), 1);
        b.blt_imm(Reg::x(6), 2000, top);
        b.halt();
        let p = b.build();
        let t = Emulator::new(&p).run(100_000).unwrap();
        let io = simulate(&t, &cfg("a53-like"));
        let ooo = simulate(&t, &cfg("o3-medium"));
        assert!(ooo.stats.ipc() > io.stats.ipc());
    }
}
