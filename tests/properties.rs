//! Cross-crate property-based tests (proptest) on the reproduction's
//! core invariants.

use perfvec::checkpoint;
use perfvec::compose::{instruction_representations, program_representation};
use perfvec::foundation::{ArchKind, ArchSpec, Foundation};
use perfvec::march_table::MarchTable;
use perfvec::predict::predict_total_tenths;
use perfvec_isa::{Emulator, ProgramBuilder, Reg};
use perfvec_sim::sample::{predefined_configs, sample_configs};
use perfvec_sim::simulate;
use perfvec_trace::binio;
use perfvec_trace::features::{
    extract_features, FeatureMask, Matrix, BRANCH_FEATURES, MEM_FEATURES, NUM_FEATURES,
};
use perfvec_trace::stack_distance::{naive_stack_distances, StackDistance};
use perfvec_trace::ProgramData;
use proptest::prelude::*;

/// Build a random-but-valid program from a compact genome: a list of
/// operation choices executed inside a bounded loop.
fn genome_program(ops: &[u8], iters: i64) -> perfvec_isa::Program {
    let mut b = ProgramBuilder::new();
    let buf = b.alloc_zeroed(4096);
    let (base, i, t0, t1) = (Reg::x(1), Reg::x(2), Reg::x(3), Reg::x(4));
    let f0 = Reg::f(0);
    b.li(base, buf as i64);
    b.li(i, 0);
    b.fli(f0, 1.5);
    let top = b.label();
    for &op in ops {
        match op % 8 {
            0 => {
                b.addi(t0, t0, 3);
            }
            1 => {
                b.muli(t0, t0, 7);
            }
            2 => {
                b.andi(t1, i, 511);
                b.ld_idx(t0, base, t1, 8, 0, 8);
            }
            3 => {
                b.andi(t1, i, 511);
                b.st_idx(t0, base, t1, 8, 0, 8);
            }
            4 => {
                b.fadd(f0, f0, f0);
            }
            5 => {
                b.fmul(f0, f0, f0);
            }
            6 => {
                let skip = b.fwd_label();
                b.andi(t1, t0, 1);
                b.beq_imm(t1, 0, skip);
                b.xori(t0, t0, 0x5a);
                b.bind(skip);
            }
            _ => {
                b.nop();
            }
        }
    }
    b.addi(i, i, 1);
    b.blt_imm(i, iters, top);
    b.halt();
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Incremental latencies must sum to total time on every machine,
    /// for arbitrary programs — the integrability property PerfVec's
    /// compositionality proof rests on.
    #[test]
    fn incremental_latencies_always_telescope(
        ops in prop::collection::vec(0u8..8, 1..12),
        iters in 5i64..40,
        cfg_idx in 0usize..7,
    ) {
        let p = genome_program(&ops, iters);
        let trace = Emulator::new(&p).run(100_000).unwrap();
        let cfg = &predefined_configs()[cfg_idx];
        let r = simulate(&trace, cfg);
        let sum = r.sum_incremental();
        prop_assert!((sum - r.total_tenths).abs() <= 1e-5 * r.total_tenths.max(1.0),
            "sum {sum} vs total {}", r.total_tenths);
        prop_assert!(r.inc_latency_tenths.iter().all(|&t| t >= 0.0));
    }

    /// The dynamic trace is microarchitecture-independent: features are
    /// identical regardless of which machine later simulates it.
    #[test]
    fn features_are_march_independent(
        ops in prop::collection::vec(0u8..8, 1..10),
        iters in 5i64..30,
    ) {
        let p = genome_program(&ops, iters);
        let t1 = Emulator::new(&p).run(50_000).unwrap();
        let t2 = Emulator::new(&p).run(50_000).unwrap();
        let f1 = extract_features(&t1, FeatureMask::Full);
        let f2 = extract_features(&t2, FeatureMask::Full);
        prop_assert_eq!(f1.data, f2.data);
        prop_assert_eq!(f1.cols, NUM_FEATURES);
    }

    /// Fenwick-tree stack distances equal the quadratic reference on
    /// arbitrary address streams.
    #[test]
    fn stack_distance_matches_reference(
        addrs in prop::collection::vec(0u64..64, 1..300),
    ) {
        let mut sd = StackDistance::new();
        let fast: Vec<u64> = addrs.iter().map(|&a| sd.access(a)).collect();
        prop_assert_eq!(fast, naive_stack_distances(&addrs));
    }

    /// Faster clocks never make a program slower in wall time (same
    /// machine otherwise) — a sanity invariant of the timing model.
    #[test]
    fn frequency_scaling_is_monotone(
        ops in prop::collection::vec(0u8..8, 1..10),
        iters in 5i64..30,
    ) {
        let p = genome_program(&ops, iters);
        let trace = Emulator::new(&p).run(50_000).unwrap();
        let mut slow = predefined_configs().remove(1);
        slow.freq_ghz = 1.0;
        let mut fast = slow.clone();
        fast.freq_ghz = 4.0;
        let ts = simulate(&trace, &slow).total_tenths;
        let tf = simulate(&trace, &fast).total_tenths;
        prop_assert!(tf <= ts * 1.001, "fast {tf} vs slow {ts}");
    }

    /// Randomly sampled machines always produce valid simulations.
    #[test]
    fn sampled_machines_simulate_any_program(
        ops in prop::collection::vec(0u8..8, 1..8),
        seed in 0u64..50,
    ) {
        let p = genome_program(&ops, 20);
        let trace = Emulator::new(&p).run(20_000).unwrap();
        for cfg in sample_configs(seed, 2, 1) {
            let r = simulate(&trace, &cfg);
            prop_assert!(r.total_tenths > 0.0);
            prop_assert_eq!(r.len(), trace.len());
        }
    }

    /// Linearity of the bias-free predictor — the paper's central
    /// theorem as an algebraic identity: predicting from the summed
    /// program representation equals summing per-instruction
    /// predictions, `(sum_i R_i) . M == sum_i (R_i . M)`.
    #[test]
    fn predictor_is_linear_in_instruction_representations(
        vals in prop::collection::vec(0.0f32..1.0, 1..40),
        mseed in 0u64..1000,
        scale_q in 1u32..20,
    ) {
        let n = vals.len();
        let mut feats = Matrix::zeros(n, NUM_FEATURES);
        for (i, &v) in vals.iter().enumerate() {
            feats.row_mut(i)[i % 11] = 1.0;
            feats.row_mut(i)[45] = v;
        }
        let target_scale = scale_q as f32 * 0.1;
        let f = Foundation::new(ArchSpec::default_lstm(8), 2, target_scale, 7);
        let table = MarchTable::new(1, 8, mseed);
        let m = table.rep(0);

        let rp = program_representation(&f, &feats);
        let whole = predict_total_tenths(&rp, m, f.target_scale);
        let per = instruction_representations(&f, &feats, 0..n);
        let mut summed = 0.0f64;
        for i in 0..n {
            summed += predict_total_tenths(per.row(i), m, f.target_scale);
        }
        let denom = whole.abs().max(1.0);
        prop_assert!(
            (whole - summed).abs() / denom < 1e-3,
            "whole {whole} vs summed {summed}"
        );
    }

    /// Checkpoint round-trip: any foundation (every architecture family,
    /// any small shape), with or without a table, restores to a model
    /// with identical parameters and identical representations.
    #[test]
    fn checkpoint_roundtrip_is_exact(
        kind_idx in 0usize..6,
        layers in 1usize..3,
        context in 0usize..5,
        with_table in 0u8..2,
        seed in 0u64..500,
    ) {
        let kind = [
            ArchKind::Linear,
            ArchKind::Mlp,
            ArchKind::Lstm,
            ArchKind::BiLstm,
            ArchKind::Gru,
            ArchKind::Transformer,
        ][kind_idx];
        let spec = ArchSpec { kind, layers, dim: 8 };
        let f = Foundation::new(spec, context, 0.5, seed);
        let table = MarchTable::new(3, 8, seed ^ 0xbeef);
        let table_opt = if with_table == 1 { Some(&table) } else { None };

        let bytes = checkpoint::encode(&f, spec, table_opt);
        let (f2, spec2, table2) = checkpoint::decode(&bytes).unwrap();
        prop_assert_eq!(spec2, spec);
        prop_assert_eq!(f2.context, f.context);
        prop_assert_eq!(f2.model.get_params(), f.model.get_params());
        prop_assert_eq!(table2.is_some(), with_table == 1);
        if let Some(t2) = table2 {
            prop_assert_eq!(t2.reps, table.reps);
        }
        let mut feats = Matrix::zeros(8, NUM_FEATURES);
        for i in 0..8 {
            feats.row_mut(i)[(seed as usize + i) % NUM_FEATURES] = 0.6;
        }
        prop_assert_eq!(f.repr_at(&feats, 7), f2.repr_at(&feats, 7));
    }

    /// Feature masking is shape-preserving and surgical: `NoMemBranch`
    /// zeroes exactly the memory/branch blocks and leaves every other
    /// column bit-identical to the full extraction.
    #[test]
    fn feature_mask_preserves_shape_and_zeroes_only_masked_columns(
        ops in prop::collection::vec(0u8..8, 1..10),
        iters in 5i64..30,
    ) {
        let p = genome_program(&ops, iters);
        let trace = Emulator::new(&p).run(50_000).unwrap();
        let full = extract_features(&trace, FeatureMask::Full);
        let masked = extract_features(&trace, FeatureMask::NoMemBranch);
        prop_assert_eq!(masked.rows, full.rows);
        prop_assert_eq!(masked.cols, full.cols);
        prop_assert_eq!(masked.cols, NUM_FEATURES);
        for i in 0..full.rows {
            let (fr, mr) = (full.row(i), masked.row(i));
            for c in 0..NUM_FEATURES {
                if MEM_FEATURES.contains(&c) || BRANCH_FEATURES.contains(&c) {
                    prop_assert!(mr[c] == 0.0, "row {i} col {c}: masked value {}", mr[c]);
                } else {
                    prop_assert!(fr[c] == mr[c], "row {i} col {c}: {} vs {}", fr[c], mr[c]);
                }
            }
        }
    }

    /// Dataset binary round-trip is lossless for arbitrary shapes and
    /// payloads, including empty matrices, non-ASCII names and payloads
    /// that span several stream chunks; the streamed writer emits
    /// exactly the encoder's bytes and the streamed reader reads them
    /// back.
    #[test]
    fn binio_roundtrip_is_lossless(
        rows in 0usize..1_500,
        k in 0usize..6,
        fill in 0.0f32..10.0,
        name_len in 0usize..12,
    ) {
        let mut features = Matrix::zeros(rows, NUM_FEATURES);
        let mut targets = Matrix::zeros(rows, k);
        for i in 0..rows {
            features.row_mut(i)[i % NUM_FEATURES] = fill + i as f32;
            if k > 0 {
                targets.row_mut(i)[i % k] = -fill * i as f32;
            }
        }
        let name: String = "π505.mcf".chars().cycle().take(name_len).collect();
        let d = ProgramData { name, features, targets };
        let encoded = binio::encode_program_data(&d);
        let mut streamed = Vec::new();
        binio::write_program_data(&mut streamed, &d).unwrap();
        prop_assert!(streamed == encoded, "streamed writer differs from encode");
        let mut input = streamed.as_slice();
        let read = binio::read_program_data(&mut input, streamed.len() as u64).unwrap();
        let decoded = binio::decode_program_data(&encoded).unwrap();
        prop_assert_eq!(&read.name, &d.name);
        prop_assert_eq!(&read.features, &d.features);
        prop_assert_eq!(&read.targets, &d.targets);
        prop_assert_eq!(decoded.name, d.name);
        prop_assert_eq!(decoded.features, d.features);
        prop_assert_eq!(decoded.targets, d.targets);
    }
}
