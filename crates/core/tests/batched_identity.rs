//! Bit-identity of the batched representation path against the scalar
//! oracle (`Foundation::repr_at`, one `forward` per window), for every
//! architecture of the zoo.
//!
//! Every consumer of the block generator — program representations,
//! the refit's normal equations, the trainer's validation loss and
//! fine-tuning's representation cache — must reproduce, bit for bit,
//! the result of a per-window scalar loop with the same summation
//! order. The traces mix an empty program, one whose length is not a
//! multiple of the lane width, and one spanning three `SUM_CHUNK`s.

use perfvec::compose::{instruction_representations, program_representation, SUM_CHUNK};
use perfvec::finetune::cache_representations;
use perfvec::foundation::{ArchKind, ArchSpec, Foundation};
use perfvec::march_table::MarchTable;
use perfvec::refit::{accumulate_normal_equations, NormalEq};
use perfvec::trainer::validation_loss;
use perfvec_ml::parallel::LANE_WIDTH;
use perfvec_trace::features::Matrix;
use perfvec_trace::{ProgramData, NUM_FEATURES};

const KINDS: [ArchKind; 6] = [
    ArchKind::Linear,
    ArchKind::Mlp,
    ArchKind::Lstm,
    ArchKind::BiLstm,
    ArchKind::Gru,
    ArchKind::Transformer,
];

/// Machines per program.
const K: usize = 3;

fn foundation(kind: ArchKind) -> Foundation {
    let spec = ArchSpec {
        kind,
        layers: 2,
        dim: 8,
    };
    Foundation::new(spec, 3, 0.5, 19)
}

/// A program of `n` instructions whose first target column holds the
/// instruction's global id `base + i`, so a sampled window can be traced
/// back to its source.
fn program(n: usize, base: usize) -> ProgramData {
    let mut features = Matrix::zeros(n, NUM_FEATURES);
    let mut targets = Matrix::zeros(n, K);
    for i in 0..n {
        let row = features.row_mut(i);
        row[(base + i) % 11] = 1.0;
        row[40 + i % 5] = ((i * 37 % 101) as f32) * 0.01;
        let t = targets.row_mut(i);
        t[0] = (base + i) as f32;
        t[1] = 1.0 + (i % 13) as f32;
        t[2] = 0.5 * (i % 7) as f32;
    }
    ProgramData {
        name: format!("p{base}"),
        features,
        targets,
    }
}

/// Programs of 0, 37 (a ragged lane tail) and `2 * SUM_CHUNK + 45`
/// (three chunks, so their fold order matters, and a ragged tail)
/// instructions.
fn programs() -> Vec<ProgramData> {
    vec![
        program(0, 0),
        program(37, 100),
        program(2 * SUM_CHUNK + 45, 10_000),
    ]
}

fn add_into(acc: &mut [f32], row: &[f32]) {
    for (a, &v) in acc.iter_mut().zip(row) {
        *a += v;
    }
}

#[test]
fn program_representation_matches_the_scalar_chunked_sum() {
    for kind in KINDS {
        let f = foundation(kind);
        for p in programs() {
            let n = p.len();
            let mut total = vec![0.0f32; f.dim()];
            for lo in (0..n).step_by(SUM_CHUNK) {
                let mut acc = vec![0.0f32; f.dim()];
                for i in lo..(lo + SUM_CHUNK).min(n) {
                    add_into(&mut acc, &f.repr_at(&p.features, i));
                }
                add_into(&mut total, &acc);
            }
            assert_eq!(
                program_representation(&f, &p.features),
                total,
                "{kind:?} n={n}"
            );
            let rows = instruction_representations(&f, &p.features, 0..n);
            for i in 0..n {
                assert_eq!(rows.row(i), f.repr_at(&p.features, i), "{kind:?} i={i}");
            }
        }
    }
}

#[test]
fn normal_equations_match_the_scalar_per_window_oracle() {
    for kind in KINDS {
        let f = foundation(kind);
        let data = programs();
        let mut oracle = NormalEq::zeros(f.dim(), K);
        for p in &data {
            for lo in (0..p.len()).step_by(SUM_CHUNK) {
                let mut chunk = NormalEq::zeros(f.dim(), K);
                for i in lo..(lo + SUM_CHUNK).min(p.len()) {
                    let r = f.repr_at(&p.features, i);
                    chunk.accumulate(&r, p.targets.row(i), f.target_scale);
                }
                add_f64(&mut oracle.xtx, &chunk.xtx);
                add_f64(&mut oracle.xty, &chunk.xty);
                oracle.count += chunk.count;
            }
        }
        let eq = accumulate_normal_equations(&f, &data);
        assert_eq!(eq.count, oracle.count, "{kind:?}");
        assert_eq!(bits(&eq.xtx), bits(&oracle.xtx), "{kind:?} xtx");
        assert_eq!(bits(&eq.xty), bits(&oracle.xty), "{kind:?} xty");
    }
}

fn add_f64(acc: &mut [f64], other: &[f64]) {
    for (a, b) in acc.iter_mut().zip(other) {
        *a += b;
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn validation_loss_matches_the_per_item_scalar_loop() {
    let data = programs();
    // 101 items across both non-empty programs: three full lane chunks
    // and a ragged fourth.
    let items: Vec<(usize, usize)> = (0..101)
        .map(|n| {
            if n % 3 == 0 {
                (1, n % 37)
            } else {
                (2, n * 23 % data[2].len())
            }
        })
        .collect();
    let inv_scale = [1.0f32, 0.5, 2.0];
    for kind in KINDS {
        let f = foundation(kind);
        let table = MarchTable::new(K, f.dim(), 23);
        let mut total = 0.0f64;
        for chunk in items.chunks(LANE_WIDTH) {
            let mut chunk_loss = 0.0f64;
            for &(p, i) in chunk {
                let r = f.repr_at(&data[p].features, i);
                let mut preds = vec![0.0f32; K];
                table.predict_all(&r, &mut preds);
                let targets = data[p].targets.row(i);
                let mut item_loss = 0.0f64;
                for j in 0..K {
                    let err = preds[j] - targets[j] * f.target_scale * inv_scale[j];
                    item_loss += (err * err) as f64;
                }
                chunk_loss += item_loss / K as f64;
            }
            total += chunk_loss;
        }
        let oracle = total / items.len() as f64;
        let got = validation_loss(&f, &table, &data, &items, &inv_scale);
        assert_eq!(
            got.to_bits(),
            oracle.to_bits(),
            "{kind:?}: {got} vs {oracle}"
        );
    }
}

#[test]
fn cached_representations_match_repr_at_per_sampled_window() {
    let data = programs();
    // Global id -> (program, instruction), read back from target 0.
    let locate = |id: usize| {
        let p = data
            .iter()
            .rposition(|d| !d.is_empty() && id >= d.targets.row(0)[0] as usize)
            .expect("id belongs to a non-empty program");
        (p, id - data[p].targets.row(0)[0] as usize)
    };
    for kind in KINDS {
        let mut f = foundation(kind);
        // Unit scale keeps the id in target 0 exact.
        f.target_scale = 1.0;
        let cached = cache_representations(&f, &data, 77, 5);
        assert_eq!(cached.reps.len(), 77);
        for (rep, targets) in cached.reps.iter().zip(&cached.targets) {
            let (p, i) = locate(targets[0] as usize);
            assert_eq!(rep, &f.repr_at(&data[p].features, i), "{kind:?} {p}:{i}");
        }
    }
}
