//! The 51 microarchitecture-independent instruction features (Table I
//! of the paper).
//!
//! Layout (all values roughly unit-range `f32`):
//!
//! | indices | content |
//! |---|---|
//! | 0..15 | operation flags (class one-hots, branch kinds, call, barrier) |
//! | 15..23 | 8 source-register indices (`(i+1)/33`, 0 = slot empty) |
//! | 23..31 | 8 source-register categories (class/3, 0 = slot empty) |
//! | 31..37 | 6 destination-register indices |
//! | 37..43 | 6 destination-register categories |
//! | 43 | execution fault flag |
//! | 44 | branch-taken flag |
//! | 45 | instruction-fetch stack distance (log-compressed) |
//! | 46 | stack distance w.r.t. all data accesses |
//! | 47 | stack distance w.r.t. loads |
//! | 48 | stack distance w.r.t. stores |
//! | 49 | global branch entropy |
//! | 50 | local branch entropy |
//!
//! Stack distances are computed at cache-line (64 B) granularity and
//! compressed as `log2(2+d)/33`, with cold misses mapped to 1.0 — the
//! scale-free signal any cache geometry keys off.

use crate::branch_entropy::BranchEntropy;
use crate::stack_distance::{StackDistance, COLD_MISS};
use perfvec_isa::{OpClass, Reg, Trace, MAX_DST, MAX_SRC};

/// Number of features per instruction.
pub const NUM_FEATURES: usize = 51;

/// Feature indices of the memory-behaviour block (4 stack distances).
pub const MEM_FEATURES: std::ops::Range<usize> = 45..49;
/// Feature indices of the branch-predictability block (2 entropies).
pub const BRANCH_FEATURES: std::ops::Range<usize> = 49..51;

/// Which feature groups to emit — `NoMemBranch` reproduces the paper's
/// feature-ablation study (Section V-B) by zeroing the stack-distance
/// and branch-entropy features.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FeatureMask {
    /// All 51 features.
    #[default]
    Full,
    /// Memory + branch-predictability features zeroed.
    NoMemBranch,
}

/// A dense row-major `rows x cols` matrix of `f32` features/targets.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Row-major storage (`rows * cols` entries).
    pub data: Vec<f32>,
}

impl Matrix {
    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Borrow row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }
}

#[inline]
fn compress_distance(d: u64) -> f32 {
    if d == COLD_MISS {
        1.0
    } else {
        ((2 + d) as f32).log2() / 33.0
    }
}

/// Extract the `n x 51` feature matrix for a trace.
///
/// Purely microarchitecture-independent: it reads only the static
/// instructions and the dynamic record (addresses, branch outcomes,
/// faults), never any timing.
pub fn extract_features(trace: &Trace, mask: FeatureMask) -> Matrix {
    let n = trace.len();
    let mut m = Matrix::zeros(n, NUM_FEATURES);
    let mut sd_fetch = StackDistance::with_capacity(n);
    let mut sd_data = StackDistance::new();
    let mut sd_load = StackDistance::new();
    let mut sd_store = StackDistance::new();
    let mut entropy = BranchEntropy::new();

    for (i, rec) in trace.records.iter().enumerate() {
        let inst = &trace.program.insts[rec.sidx as usize];
        let op = inst.op;
        let class = op.class();
        let row = m.row_mut(i);

        // ---- operation flags (15) ----
        row[0] = matches!(class, OpClass::IntAlu | OpClass::Other) as u8 as f32;
        row[1] = (class == OpClass::IntMul) as u8 as f32;
        row[2] = (class == OpClass::IntDiv) as u8 as f32;
        row[3] = (class == OpClass::FpAlu) as u8 as f32;
        row[4] = (class == OpClass::FpMul) as u8 as f32;
        row[5] = (class == OpClass::FpDiv) as u8 as f32;
        row[6] = (class == OpClass::Simd) as u8 as f32;
        row[7] = op.is_load() as u8 as f32;
        row[8] = op.is_store() as u8 as f32;
        row[9] = op.is_branch() as u8 as f32;
        row[10] = op.is_cond_branch() as u8 as f32;
        row[11] = op.is_direct_branch() as u8 as f32;
        row[12] = op.is_indirect_branch() as u8 as f32;
        row[13] = op.is_call() as u8 as f32;
        row[14] = op.is_barrier() as u8 as f32;

        // ---- register slots (8 src + 6 dst, index + category) ----
        for (s, r) in inst.srcs().iter().enumerate().take(MAX_SRC) {
            row[15 + s] = reg_index_feature(*r);
            row[23 + s] = reg_category_feature(*r);
        }
        for (d, r) in inst.dsts().iter().enumerate().take(MAX_DST) {
            row[31 + d] = reg_index_feature(*r);
            row[37 + d] = reg_category_feature(*r);
        }

        // ---- execution behaviour ----
        row[43] = rec.fault as u8 as f32;
        row[44] = (op.is_branch() && rec.taken) as u8 as f32;

        // ---- memory behaviour: stack distances at line granularity ----
        let d_fetch = sd_fetch.access(rec.pc() >> 6);
        let mut d_data = 0.0f32;
        let mut d_load = 0.0f32;
        let mut d_store = 0.0f32;
        if op.is_mem() {
            let line = rec.addr >> 6;
            d_data = compress_distance(sd_data.access(line));
            if op.is_load() {
                d_load = compress_distance(sd_load.access(line));
            } else {
                d_store = compress_distance(sd_store.access(line));
            }
        }

        // ---- branch predictability ----
        let (mut g, mut l) = (0.0f32, 0.0f32);
        if op.is_cond_branch() {
            (g, l) = entropy.observe(rec.pc(), rec.taken);
        }

        if mask == FeatureMask::Full {
            row[45] = compress_distance(d_fetch);
            row[46] = d_data;
            row[47] = d_load;
            row[48] = d_store;
            row[49] = g;
            row[50] = l;
        }
    }
    m
}

#[inline]
fn reg_index_feature(r: Reg) -> f32 {
    (r.index() as f32 + 1.0) / 33.0
}

#[inline]
fn reg_category_feature(r: Reg) -> f32 {
    r.class() as u8 as f32 / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfvec_isa::{Emulator, ProgramBuilder};

    fn trace_of(build: impl FnOnce(&mut ProgramBuilder)) -> Trace {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        b.halt();
        let p = b.build();
        Emulator::new(&p).run(1_000_000).unwrap()
    }

    #[test]
    fn feature_count_is_pinned_to_51() {
        // The paper's Table I counts exactly 51 features; the layout
        // below must never drift.
        assert_eq!(NUM_FEATURES, 51);
        assert_eq!(15 + MAX_SRC * 2 + MAX_DST * 2 + 2 + 4 + 2, 51);
    }

    #[test]
    fn op_flags_are_one_hot_per_class() {
        let t = trace_of(|b| {
            b.li(Reg::x(1), 2);
            b.mul(Reg::x(2), Reg::x(1), Reg::x(1));
            b.fadd(Reg::f(0), Reg::f(1), Reg::f(2));
        });
        let m = extract_features(&t, FeatureMask::Full);
        // li -> int alu flag
        assert_eq!(m.row(0)[0], 1.0);
        assert_eq!(m.row(0)[1], 0.0);
        // mul -> int mul flag
        assert_eq!(m.row(1)[1], 1.0);
        // fadd -> fp alu flag
        assert_eq!(m.row(2)[3], 1.0);
        assert_eq!(m.row(2)[0], 0.0);
    }

    #[test]
    fn register_slots_encode_index_and_category() {
        let t = trace_of(|b| {
            b.add(Reg::x(3), Reg::x(4), Reg::x(5));
        });
        let m = extract_features(&t, FeatureMask::Full);
        let row = m.row(0);
        // src0 = x4, src1 = x5
        assert!((row[15] - 5.0 / 33.0).abs() < 1e-6);
        assert!((row[16] - 6.0 / 33.0).abs() < 1e-6);
        assert_eq!(row[17], 0.0); // no third source
                                  // categories: Int = 1
        assert!((row[23] - 1.0 / 3.0).abs() < 1e-6);
        // dst0 = x3
        assert!((row[31] - 4.0 / 33.0).abs() < 1e-6);
    }

    #[test]
    fn branch_taken_flag_tracks_outcome() {
        let t = trace_of(|b| {
            let skip = b.fwd_label();
            b.li(Reg::x(1), 1);
            b.beq_imm(Reg::x(1), 0, skip); // not taken
            b.bne_imm(Reg::x(1), 0, skip); // taken
            b.nop();
            b.bind(skip);
        });
        let m = extract_features(&t, FeatureMask::Full);
        assert_eq!(m.row(1)[44], 0.0);
        assert_eq!(m.row(2)[44], 1.0);
        // both are conditional direct branches
        assert_eq!(m.row(1)[10], 1.0);
        assert_eq!(m.row(1)[11], 1.0);
        assert_eq!(m.row(1)[12], 0.0);
    }

    #[test]
    fn fault_flag_set_on_divide_by_zero() {
        let t = trace_of(|b| {
            b.li(Reg::x(1), 1);
            b.li(Reg::x(2), 0);
            b.div(Reg::x(3), Reg::x(1), Reg::x(2));
        });
        let m = extract_features(&t, FeatureMask::Full);
        assert_eq!(m.row(2)[43], 1.0);
        assert_eq!(m.row(1)[43], 0.0);
    }

    #[test]
    fn reused_data_has_smaller_stack_distance_than_cold() {
        let t = trace_of(|b| {
            let buf = b.alloc_zeroed(4096);
            b.li(Reg::x(1), buf as i64);
            // Two cold loads to distinct lines, then a reuse of the first.
            b.ld(Reg::x(2), Reg::x(1), 0, 8);
            b.ld(Reg::x(3), Reg::x(1), 128, 8);
            b.ld(Reg::x(4), Reg::x(1), 0, 8);
        });
        let m = extract_features(&t, FeatureMask::Full);
        let cold = m.row(1)[46];
        let cold2 = m.row(2)[46];
        let reuse = m.row(3)[46];
        assert_eq!(cold, 1.0);
        assert_eq!(cold2, 1.0);
        assert!(reuse < 0.5, "reuse distance should be small, got {reuse}");
        // load-only stack distance also set; store distance zero
        assert!(m.row(3)[47] > 0.0);
        assert_eq!(m.row(3)[48], 0.0);
    }

    #[test]
    fn mask_zeroes_memory_and_branch_features() {
        let t = trace_of(|b| {
            let buf = b.alloc_zeroed(128);
            b.li(Reg::x(1), buf as i64);
            let top = b.label();
            b.ld(Reg::x(2), Reg::x(1), 0, 8);
            b.addi(Reg::x(3), Reg::x(3), 1);
            b.blt_imm(Reg::x(3), 8, top);
        });
        let full = extract_features(&t, FeatureMask::Full);
        let masked = extract_features(&t, FeatureMask::NoMemBranch);
        assert_eq!(full.rows, masked.rows);
        let mut saw_nonzero_full = false;
        for i in 0..full.rows {
            for j in MEM_FEATURES.start..BRANCH_FEATURES.end {
                if full.row(i)[j] != 0.0 {
                    saw_nonzero_full = true;
                }
                assert_eq!(masked.row(i)[j], 0.0);
            }
            // Everything outside the masked block is identical.
            assert_eq!(
                &full.row(i)[..MEM_FEATURES.start],
                &masked.row(i)[..MEM_FEATURES.start]
            );
        }
        assert!(saw_nonzero_full);
    }

    #[test]
    fn all_features_are_bounded() {
        let t = trace_of(|b| {
            let buf = b.alloc_zeroed(1 << 16);
            b.li(Reg::x(1), buf as i64);
            b.li(Reg::x(3), 0);
            let top = b.label();
            b.ld_idx(Reg::x(2), Reg::x(1), Reg::x(3), 8, 0, 8);
            b.st_idx(Reg::x(2), Reg::x(1), Reg::x(3), 8, 8, 8);
            b.remi(Reg::x(4), Reg::x(3), 7);
            b.addi(Reg::x(3), Reg::x(3), 1);
            b.blt_imm(Reg::x(3), 500, top);
        });
        let m = extract_features(&t, FeatureMask::Full);
        for i in 0..m.rows {
            for (j, &v) in m.row(i).iter().enumerate() {
                assert!(
                    v.is_finite() && (0.0..=1.5).contains(&v),
                    "row {i} col {j}: {v}"
                );
            }
        }
    }
}
