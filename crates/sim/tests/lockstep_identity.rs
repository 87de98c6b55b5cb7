//! The column contract: [`perfvec_sim::simulate_column`] must be
//! **bit-identical per cell** to the frozen reference oracle
//! ([`perfvec_sim::reference::simulate_reference`]) — same incremental
//! latencies (by IEEE bit pattern), same `mem_level`, same
//! `mispredicted`, same counters — for every machine in the column,
//! over random machine subsets and random programs. Divergent control
//! flow across the column (machines mispredicting different branches,
//! fences serializing different windows) must not couple the machines:
//! each keeps an independent fetch cursor over the shared decoded
//! trace.

use perfvec_isa::{Emulator, Program, ProgramBuilder, Reg, Trace};
use perfvec_sim::reference::simulate_reference;
use perfvec_sim::sample::{predefined_configs, sample_configs};
use perfvec_sim::{simulate_column, MicroArchConfig};
use proptest::prelude::*;

/// Pool of machines: every predefined config plus sampled OoO and
/// in-order points (the property draws a subset bitmask over this).
fn config_pool() -> Vec<MicroArchConfig> {
    let mut pool = predefined_configs();
    pool.extend(sample_configs(0xfee1_600d, 4, 3));
    pool
}

/// Select a machine subset by bitmask, preserving pool order. An empty
/// mask degenerates to the full pool so every case simulates something.
fn subset(mask: u32) -> Vec<MicroArchConfig> {
    let pool = config_pool();
    let picked: Vec<MicroArchConfig> = pool
        .iter()
        .enumerate()
        .filter(|(j, _)| mask >> j & 1 == 1)
        .map(|(_, c)| c.clone())
        .collect();
    if picked.is_empty() {
        pool
    } else {
        picked
    }
}

/// Same op-driven loop generator as `reference_identity.rs`: ALU
/// chains, masked indexed loads/stores, store-then-reload pairs,
/// fences, data-dependent branches, division, FP.
fn random_program(ops: &[u8], iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let buf = b.alloc_zeroed(8192);
    let (base, x, acc, idx, tmp, i) = (
        Reg::x(1),
        Reg::x(2),
        Reg::x(3),
        Reg::x(4),
        Reg::x(5),
        Reg::x(6),
    );
    let (fa, fb) = (Reg::f(1), Reg::f(2));
    b.li(base, buf as i64);
    b.li(x, 0x2545_f491);
    b.li(acc, 1);
    b.li(idx, 0);
    b.li(i, 0);
    b.fli(fa, 1.5);
    b.fli(fb, 0.25);
    let top = b.label();
    for &op in ops {
        match op % 16 {
            0 => {
                b.add(acc, acc, x);
            }
            1 => {
                b.muli(acc, acc, 0x41c6_4e6d);
            }
            2 => {
                b.xori(x, x, 0x5deece66);
                b.shri(tmp, x, 7);
                b.add(x, x, tmp);
            }
            3 => {
                b.andi(idx, x, 1015);
                b.ld_idx(acc, base, idx, 8, 0, 8);
            }
            4 => {
                b.andi(idx, acc, 1015);
                b.st_idx(x, base, idx, 8, 0, 8);
            }
            5 => {
                // Store-then-reload of the same slot: forwarding path.
                b.andi(idx, x, 255);
                b.st_idx(acc, base, idx, 8, 0, 8);
                b.ld_idx(tmp, base, idx, 8, 0, 8);
                b.add(acc, acc, tmp);
            }
            6 => {
                b.fence();
            }
            7 => {
                // Data-dependent forward branch: mispredict fodder.
                let skip = b.fwd_label();
                b.andi(tmp, x, 1);
                b.beq_imm(tmp, 0, skip);
                b.addi(acc, acc, 13);
                b.bind(skip);
            }
            8 => {
                b.ori(acc, acc, 3);
                b.div(tmp, x, acc);
            }
            9 => {
                b.fmul(fa, fa, fb);
            }
            10 => {
                b.fadd(fb, fb, fa);
            }
            11 => {
                b.sub(x, x, acc);
                b.slti(tmp, x, 0);
                b.add(x, x, tmp);
            }
            12 => {
                b.andi(idx, i, 127);
                b.st_idx(i, base, idx, 8, 4096, 8);
            }
            13 => {
                b.shli(tmp, acc, 1);
                b.xor(acc, acc, tmp);
            }
            14 => {
                b.andi(idx, x, 63);
                b.ld_idx(tmp, base, idx, 8, 2048, 8);
                b.add(x, x, tmp);
            }
            _ => {
                b.addi(acc, acc, 7);
            }
        }
    }
    b.addi(i, i, 1);
    b.blt_imm(i, iters, top);
    b.halt();
    b.build()
}

fn trace_of(ops: &[u8], iters: i64) -> Trace {
    let p = random_program(ops, iters);
    Emulator::new(&p)
        .run(400_000)
        .expect("random program must run to halt")
}

/// Assert every cell of a column is bit-identical to the reference
/// oracle.
fn assert_column_identity(t: &Trace, configs: &[MicroArchConfig], what: &str) {
    let col = simulate_column(t, configs);
    assert_eq!(col.len(), configs.len());
    for (l, c) in col.iter().zip(configs) {
        let reference = simulate_reference(t, c);
        assert!(
            l.bits_identical(&reference),
            "{what}: column vs reference diverged on {} ({:?} vs {:?})",
            c.name,
            l.stats,
            reference.stats
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn column_is_bit_identical_to_reference_per_cell(
        ops in prop::collection::vec(0u8..=255, 6..32),
        iters in 20i64..160,
        mask in 0u32..1u32 << 14,
    ) {
        let configs = subset(mask);
        let t = trace_of(&ops, iters);
        let col = simulate_column(&t, &configs);
        prop_assert_eq!(col.len(), configs.len());
        for (l, c) in col.iter().zip(&configs) {
            let reference = simulate_reference(&t, c);
            prop_assert!(
                l.bits_identical(&reference),
                "column vs reference diverged on {} ({:?} stats {:?} vs {:?})",
                c.name, ops, l.stats, reference.stats
            );
        }
    }

    #[test]
    fn column_is_deterministic(
        ops in prop::collection::vec(0u8..=255, 6..24),
        iters in 20i64..120,
        mask in 0u32..1u32 << 14,
    ) {
        let configs = subset(mask);
        let t = trace_of(&ops, iters);
        let a = simulate_column(&t, &configs);
        let b = simulate_column(&t, &configs);
        for ((x, y), c) in a.iter().zip(&b).zip(&configs) {
            prop_assert!(
                x.bits_identical(y),
                "column nondeterministic on {}", c.name
            );
        }
    }
}

/// Fence-heavy trace: every machine serializes its memory window at
/// every loop body, exercising the forwarding map's fence sequence and
/// the in-order barrier stall on every record of the column.
#[test]
fn fence_heavy_column_matches_reference() {
    // ops ≡ 6 (mod 16) → fences, interleaved with stores and loads so
    // the fences actually order something.
    let ops = [6u8, 4, 6, 3, 6, 5, 6, 12, 6, 14, 6];
    let t = trace_of(&ops, 120);
    assert_column_identity(&t, &config_pool(), "fence-heavy");
}

/// Mispredict-heavy trace: dense data-dependent branches on an LCG
/// stream, so different predictors across the column diverge on
/// different branches and each machine's fetch cursor restarts at
/// different records.
#[test]
fn mispredict_heavy_column_matches_reference() {
    // ops ≡ 7 (mod 16) → data-dependent forward branches, with LCG
    // updates (2) feeding them fresh entropy.
    let ops = [7u8, 2, 7, 7, 2, 7, 7, 2, 7, 7];
    let t = trace_of(&ops, 150);
    assert_column_identity(&t, &config_pool(), "mispredict-heavy");
}
