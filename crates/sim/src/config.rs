//! Microarchitecture configuration.
//!
//! A [`MicroArchConfig`] fully describes one simulated machine: core
//! organization, functional units, branch prediction, cache hierarchy,
//! and main memory. It can also export itself as a flat numeric
//! [`MicroArchConfig::param_vector`] — the input the DSE
//! microarchitecture-representation model and the predictive baselines
//! consume.

use perfvec_isa::OpClass;
use perfvec_trace::fingerprint::Fingerprint;

/// Core execution paradigm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreKind {
    /// In-order scoreboarded pipeline.
    InOrder,
    /// Out-of-order core with a reorder buffer.
    OutOfOrder,
}

/// Branch predictor family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// Always predict not-taken.
    StaticNotTaken,
    /// Backward-taken / forward-not-taken heuristic.
    StaticBtfn,
    /// Per-pc 2-bit saturating counters.
    Bimodal,
    /// Global-history xor pc indexed 2-bit counters.
    GShare,
    /// Bimodal + gshare with a choice table.
    Tournament,
}

/// Branch prediction configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchConfig {
    /// Predictor family.
    pub kind: PredictorKind,
    /// log2 of the direction-table entry count.
    pub table_bits: u8,
    /// Global history length in bits (gshare/tournament).
    pub history_bits: u8,
    /// Number of branch-target-buffer entries (power of two).
    pub btb_entries: u32,
}

/// One cache level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways).
    pub assoc: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Access latency in core cycles.
    pub latency: u32,
}

impl CacheConfig {
    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        (self.size_bytes / self.line_bytes as u64 / self.assoc as u64).max(1)
    }
}

/// Main-memory technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemKind {
    /// Commodity DDR4.
    Ddr4,
    /// Low-power LPDDR5.
    Lpddr5,
    /// Graphics GDDR5.
    Gddr5,
    /// High-bandwidth memory.
    Hbm,
}

/// Main-memory timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemConfig {
    /// Technology (sets sensible defaults; kept for reporting).
    pub kind: MemKind,
    /// Idle access latency in nanoseconds.
    pub latency_ns: f64,
    /// Sustained bandwidth in GB/s.
    pub bandwidth_gbps: f64,
}

impl MemConfig {
    /// Typical timing for a memory technology.
    pub fn typical(kind: MemKind) -> MemConfig {
        let (latency_ns, bandwidth_gbps) = match kind {
            MemKind::Ddr4 => (85.0, 25.6),
            MemKind::Lpddr5 => (110.0, 51.2),
            MemKind::Gddr5 => (95.0, 112.0),
            MemKind::Hbm => (105.0, 256.0),
        };
        MemConfig {
            kind,
            latency_ns,
            bandwidth_gbps,
        }
    }
}

/// Functional-unit pool configuration: per executing [`OpClass`], how
/// many units exist, their latency, and whether they are pipelined.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FuPool {
    /// Number of units.
    pub count: u8,
    /// Execution latency in cycles.
    pub latency: u8,
    /// Pipelined units accept a new op every cycle; unpipelined units
    /// are busy for their full latency.
    pub pipelined: bool,
}

/// Functional units for every executing operation class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FuConfig {
    /// Simple integer ops.
    pub int_alu: FuPool,
    /// Integer multiply.
    pub int_mul: FuPool,
    /// Integer divide (normally unpipelined).
    pub int_div: FuPool,
    /// FP add/compare/convert.
    pub fp_alu: FuPool,
    /// FP multiply / FMA.
    pub fp_mul: FuPool,
    /// FP divide & sqrt (normally unpipelined).
    pub fp_div: FuPool,
    /// SIMD arithmetic.
    pub simd: FuPool,
    /// Load/store address + cache ports.
    pub mem_port: FuPool,
}

impl FuConfig {
    /// The pool an op class executes on. `Branch` and `Other` use the
    /// integer ALU pool; loads and stores use memory ports.
    pub fn pool_for(&self, class: OpClass) -> &FuPool {
        match class {
            OpClass::IntAlu | OpClass::Branch | OpClass::Other => &self.int_alu,
            OpClass::IntMul => &self.int_mul,
            OpClass::IntDiv => &self.int_div,
            OpClass::FpAlu => &self.fp_alu,
            OpClass::FpMul => &self.fp_mul,
            OpClass::FpDiv => &self.fp_div,
            OpClass::Simd => &self.simd,
            OpClass::Load | OpClass::Store => &self.mem_port,
        }
    }
}

/// A complete microarchitecture description.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroArchConfig {
    /// Display name.
    pub name: String,
    /// Core paradigm.
    pub core: CoreKind,
    /// Clock frequency in GHz.
    pub freq_ghz: f64,
    /// Instructions fetched per cycle.
    pub fetch_width: u8,
    /// Front-end depth in stages (fetch→dispatch latency; also the
    /// in-order mispredict penalty).
    pub front_depth: u8,
    /// Issue width (instructions entering execution per cycle).
    pub issue_width: u8,
    /// Retire width (instructions leaving the ROB per cycle).
    pub retire_width: u8,
    /// Reorder-buffer entries (OoO only).
    pub rob_size: u16,
    /// Load-queue entries (OoO only).
    pub lq_size: u16,
    /// Store-queue entries (OoO only).
    pub sq_size: u16,
    /// Functional units.
    pub fus: FuConfig,
    /// Branch prediction.
    pub branch: BranchConfig,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2 cache.
    pub l2: CacheConfig,
    /// Exclusive L2 (victim-cache style) instead of the default
    /// non-inclusive behaviour.
    pub l2_exclusive: bool,
    /// Main memory.
    pub mem: MemConfig,
}

impl MicroArchConfig {
    /// Core cycle time in units of 0.1 ns — the paper's latency unit.
    pub fn cycle_tenths_ns(&self) -> f64 {
        10.0 / self.freq_ghz
    }

    /// Number of entries in [`MicroArchConfig::param_vector`].
    pub const PARAM_DIM: usize = 41;

    /// Flatten the configuration into a fixed-length numeric vector.
    ///
    /// Sizes are log2-scaled and everything is roughly unit-range so the
    /// vector can feed an MLP directly (the microarchitecture
    /// representation model of the DSE workflow, Section VI-A) or a
    /// linear baseline.
    pub fn param_vector(&self) -> Vec<f32> {
        let lg = |v: f64| (v.max(1.0)).log2() as f32;
        let mut p = Vec::with_capacity(Self::PARAM_DIM);
        p.push(match self.core {
            CoreKind::InOrder => 0.0,
            CoreKind::OutOfOrder => 1.0,
        });
        p.push(self.freq_ghz as f32 / 4.0);
        p.push(self.fetch_width as f32 / 8.0);
        p.push(self.front_depth as f32 / 16.0);
        p.push(self.issue_width as f32 / 8.0);
        p.push(self.retire_width as f32 / 8.0);
        p.push(lg(self.rob_size as f64) / 10.0);
        p.push(lg(self.lq_size as f64) / 8.0);
        p.push(lg(self.sq_size as f64) / 8.0);
        for pool in [
            &self.fus.int_alu,
            &self.fus.int_mul,
            &self.fus.int_div,
            &self.fus.fp_alu,
            &self.fus.fp_mul,
            &self.fus.fp_div,
            &self.fus.simd,
            &self.fus.mem_port,
        ] {
            p.push(pool.count as f32 / 8.0);
            p.push(pool.latency as f32 / 64.0);
        }
        p.push(match self.branch.kind {
            PredictorKind::StaticNotTaken => 0.0,
            PredictorKind::StaticBtfn => 0.25,
            PredictorKind::Bimodal => 0.5,
            PredictorKind::GShare => 0.75,
            PredictorKind::Tournament => 1.0,
        });
        p.push(self.branch.table_bits as f32 / 16.0);
        p.push(self.branch.history_bits as f32 / 16.0);
        p.push(lg(self.branch.btb_entries as f64) / 14.0);
        for c in [&self.l1i, &self.l1d, &self.l2] {
            p.push(lg(c.size_bytes as f64) / 24.0);
            p.push(lg(c.assoc as f64) / 5.0);
            p.push(c.latency as f32 / 32.0);
        }
        p.push(self.l2_exclusive as u8 as f32);
        p.push(lg(self.mem.latency_ns) / 8.0);
        p.push(lg(self.mem.bandwidth_gbps) / 9.0);
        debug_assert_eq!(p.len(), Self::PARAM_DIM);
        p
    }

    /// Stable 64-bit content fingerprint over canonical little-endian
    /// field bytes — the microarchitecture half of a dataset cache key.
    ///
    /// Two configurations fingerprint equal iff they simulate
    /// identically: every timing-relevant field is absorbed (floats by
    /// IEEE-754 bit pattern, enums by fixed tags), while the display
    /// `name` is deliberately excluded, so renaming a machine does not
    /// invalidate cached datasets. Never derived from `{:?}` or decimal
    /// formatting; the value is identical across runs and platforms.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fingerprint::new();
        self.hash_into(&mut h);
        h.finish()
    }

    /// Absorb this configuration's canonical bytes into `h`.
    pub fn hash_into(&self, h: &mut Fingerprint) {
        // A leading tag + layout version: bump if fields are ever
        // added/reordered so old fingerprints cannot collide with new.
        h.push_str("march-config");
        h.push_u32(1);
        h.push_u8(match self.core {
            CoreKind::InOrder => 0,
            CoreKind::OutOfOrder => 1,
        });
        h.push_f64(self.freq_ghz);
        h.push_u8(self.fetch_width);
        h.push_u8(self.front_depth);
        h.push_u8(self.issue_width);
        h.push_u8(self.retire_width);
        h.push_u16(self.rob_size);
        h.push_u16(self.lq_size);
        h.push_u16(self.sq_size);
        for pool in [
            &self.fus.int_alu,
            &self.fus.int_mul,
            &self.fus.int_div,
            &self.fus.fp_alu,
            &self.fus.fp_mul,
            &self.fus.fp_div,
            &self.fus.simd,
            &self.fus.mem_port,
        ] {
            h.push_u8(pool.count);
            h.push_u8(pool.latency);
            h.push_bool(pool.pipelined);
        }
        h.push_u8(match self.branch.kind {
            PredictorKind::StaticNotTaken => 0,
            PredictorKind::StaticBtfn => 1,
            PredictorKind::Bimodal => 2,
            PredictorKind::GShare => 3,
            PredictorKind::Tournament => 4,
        });
        h.push_u8(self.branch.table_bits);
        h.push_u8(self.branch.history_bits);
        h.push_u32(self.branch.btb_entries);
        for c in [&self.l1i, &self.l1d, &self.l2] {
            h.push_u64(c.size_bytes);
            h.push_u32(c.assoc);
            h.push_u32(c.line_bytes);
            h.push_u32(c.latency);
        }
        h.push_bool(self.l2_exclusive);
        h.push_u8(match self.mem.kind {
            MemKind::Ddr4 => 0,
            MemKind::Lpddr5 => 1,
            MemKind::Gddr5 => 2,
            MemKind::Hbm => 3,
        });
        h.push_f64(self.mem.latency_ns);
        h.push_f64(self.mem.bandwidth_gbps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::predefined_configs;

    #[test]
    fn param_vector_has_declared_dim() {
        for c in predefined_configs() {
            let v = c.param_vector();
            assert_eq!(v.len(), MicroArchConfig::PARAM_DIM, "{}", c.name);
        }
    }

    #[test]
    fn param_vector_is_roughly_normalized() {
        for c in predefined_configs() {
            for (i, x) in c.param_vector().iter().enumerate() {
                assert!(
                    x.is_finite() && *x >= 0.0 && *x <= 1.5,
                    "{} param {i} = {x}",
                    c.name
                );
            }
        }
    }

    #[test]
    fn cycle_time_matches_frequency() {
        let mut c = predefined_configs().remove(0);
        c.freq_ghz = 2.0;
        assert!((c.cycle_tenths_ns() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn cache_set_count() {
        let c = CacheConfig {
            size_bytes: 32 * 1024,
            assoc: 4,
            line_bytes: 64,
            latency: 2,
        };
        assert_eq!(c.num_sets(), 128);
    }

    #[test]
    fn fingerprint_ignores_name_but_sees_every_timing_field() {
        let base = predefined_configs().remove(0);
        let mut renamed = base.clone();
        renamed.name = "anything-else".into();
        assert_eq!(base.fingerprint(), renamed.fingerprint());

        let mut f = base.clone();
        f.freq_ghz += 1e-9; // sub-formatting-precision change must register
        assert_ne!(base.fingerprint(), f.fingerprint());

        let mut c = base.clone();
        c.l1d.size_bytes *= 2;
        assert_ne!(base.fingerprint(), c.fingerprint());

        let mut p = base.clone();
        p.fus.int_div.pipelined = !p.fus.int_div.pipelined;
        assert_ne!(base.fingerprint(), p.fingerprint());
    }

    #[test]
    fn fingerprints_are_pinned_across_runs_and_platforms() {
        // Regression pins: these exact values must never drift between
        // runs, platforms, or compiler versions. If an intentional
        // change to the config layout or hashing scheme alters them,
        // bump the layout version in `hash_into` and re-pin.
        let fps: Vec<u64> = predefined_configs()
            .iter()
            .map(|c| c.fingerprint())
            .collect();
        let pinned: [u64; 7] = [
            0x6d02a64d861ba0ec, // o3-big
            0xbd099246dff1fdfd, // o3-medium
            0x93c5b3eac49f2e61, // o3-little
            0xd36459af05de7638, // o3-wide
            0x4db1df962b9aa489, // cortex-a7-like
            0x0974626e5e13d3d7, // a53-like
            0xa5c92e6cf8305e66, // scalar-simple
        ];
        assert_eq!(fps.len(), pinned.len());
        for (i, (&got, &want)) in fps.iter().zip(&pinned).enumerate() {
            assert_eq!(got, want, "config {i} ({})", predefined_configs()[i].name);
        }
    }

    #[test]
    fn typical_memories_are_ordered_by_bandwidth() {
        let d = MemConfig::typical(MemKind::Ddr4);
        let h = MemConfig::typical(MemKind::Hbm);
        assert!(h.bandwidth_gbps > d.bandwidth_gbps);
    }
}
