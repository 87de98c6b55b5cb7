//! Set-associative LRU caches and the two-level hierarchy used by both
//! core models.
//!
//! The hierarchy implements non-inclusive (default) or exclusive L2
//! behaviour, write-allocate stores, and a bandwidth-limited main memory
//! behind the L2 (see [`crate::memsys`]).
//!
//! The cache state is stored as two dense set-major arrays (`tags`,
//! `last_use`) rather than a `Vec<(tag, last_use)>` of tuples: the hit
//! path touches only the tag array (one cache line covers an 8-way
//! set), and set indexing uses shift/mask whenever the set count is a
//! power of two (true for every sampled and predefined geometry —
//! division stays as a fallback for hand-built configs).
//!
//! Validity is tracked by an **epoch** packed into the high bits of
//! `last_use`: an entry is resident only if its packed timestamp
//! belongs to the current epoch. Bumping the epoch therefore
//! invalidates the whole cache in O(1), which lets a [`CachePool`]
//! recycle the multi-megabyte tag/LRU arrays across `simulate` calls
//! instead of allocating and zeroing them per call (tens of
//! microseconds per grid point on a large L2 — comparable to the
//! simulation itself at short trace lengths). Behaviour is
//! bit-identical to a freshly zeroed cache: same scan order, same
//! first-free-way fill, same first-minimum LRU victim.

use crate::config::CacheConfig;
use crate::memsys::MainMemory;

/// Bits of `last_use` reserved for the per-run access tick; the
/// remaining high bits hold the epoch. One tick per access bounds a
/// run's ticks well under 2^40 (traces are at most ~10^7 records).
const EPOCH_SHIFT: u32 = 40;

/// Epochs wrap after 2^24 − 1 pooled runs; the pool re-zeroes its
/// buffers when that happens.
const MAX_EPOCH: u64 = (1 << (64 - EPOCH_SHIFT)) - 1;

/// Which level serviced an access (feeds the SimNet baseline's
/// microarchitecture-dependent features and the simulator statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum HitLevel {
    /// Not a memory access.
    None = 0,
    /// Hit in the L1 (instruction or data).
    L1 = 1,
    /// Miss in L1, hit in L2.
    L2 = 2,
    /// Missed all caches; serviced by main memory.
    Mem = 3,
}

/// One set-associative LRU cache.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `tags[set * assoc + way]`; only meaningful where the entry's
    /// epoch is current.
    tags: Vec<u64>,
    /// Packed `(epoch << EPOCH_SHIFT) + tick` timestamps, same layout
    /// as `tags`. Entries below `epoch_base` are invalid.
    last_use: Vec<u64>,
    assoc: usize,
    num_sets: u64,
    /// Set mask / tag shift when `num_sets` is a power of two, so set
    /// and tag extraction is shift/mask instead of div/mod on the hot
    /// path.
    set_mask: u64,
    tag_shift: u32,
    pow2: bool,
    line_shift: u32,
    /// `epoch << EPOCH_SHIFT` for the current run.
    epoch_base: u64,
    tick: u64,
}

impl Cache {
    /// Build an empty cache.
    pub fn new(cfg: CacheConfig) -> Cache {
        Cache::from_buffers(cfg, Vec::new(), Vec::new(), 1)
    }

    /// Build a cache on recycled `tags`/`last_use` buffers. Entries the
    /// buffers carry from previous epochs read as invalid because their
    /// packed timestamps are below `epoch << EPOCH_SHIFT`.
    fn from_buffers(
        cfg: CacheConfig,
        mut tags: Vec<u64>,
        mut last_use: Vec<u64>,
        epoch: u64,
    ) -> Cache {
        debug_assert!((1..=MAX_EPOCH).contains(&epoch));
        let num_sets = cfg.num_sets();
        let assoc = cfg.assoc as usize;
        let ways = (num_sets as usize) * assoc;
        tags.resize(ways, 0);
        last_use.resize(ways, 0);
        let pow2 = num_sets.is_power_of_two();
        Cache {
            cfg,
            tags,
            last_use,
            assoc,
            num_sets,
            set_mask: if pow2 { num_sets - 1 } else { 0 },
            tag_shift: if pow2 { num_sets.trailing_zeros() } else { 0 },
            pow2,
            line_shift: cfg.line_bytes.trailing_zeros(),
            epoch_base: epoch << EPOCH_SHIFT,
            tick: 0,
        }
    }

    /// The configuration this cache was built from.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Line-granular address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// `(set, tag)` for a line-granular address.
    #[inline]
    fn set_and_tag(&self, line: u64) -> (usize, u64) {
        if self.pow2 {
            ((line & self.set_mask) as usize, line >> self.tag_shift)
        } else {
            ((line % self.num_sets) as usize, line / self.num_sets)
        }
    }

    /// Whether the entry at `w` belongs to the current epoch.
    #[inline]
    fn valid(&self, w: usize) -> bool {
        self.last_use[w] >= self.epoch_base
    }

    /// Look up `addr`; on hit, refresh LRU state and return true.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        debug_assert!(
            self.tick < 1 << EPOCH_SHIFT,
            "run tick overflows epoch packing"
        );
        let (set, tag) = self.set_and_tag(self.line_of(addr));
        let base = set * self.assoc;
        // Branchless way scan: an early-exit compare-and-return
        // mispredicts on nearly every hit (the matching way is
        // effectively random), which costs more than unconditionally
        // scanning a handful of ways with a conditional move. At most
        // one valid way can match.
        let tags = &self.tags[base..base + self.assoc];
        let uses = &self.last_use[base..base + self.assoc];
        let mut hit = usize::MAX;
        for (w, (&t, &u)) in tags.iter().zip(uses).enumerate() {
            if t == tag && u >= self.epoch_base {
                hit = base + w;
            }
        }
        if hit != usize::MAX {
            self.last_use[hit] = self.epoch_base + self.tick;
            return true;
        }
        false
    }

    /// Install the line containing `addr`, evicting the LRU way if the
    /// set is full. Returns the evicted line address (line-granular), if
    /// any.
    pub fn fill(&mut self, addr: u64) -> Option<u64> {
        self.tick += 1;
        let line = self.line_of(addr);
        let (set, tag) = self.set_and_tag(line);
        let base = set * self.assoc;
        // Already present (e.g. racing fill): refresh. Track the LRU
        // way in the same pass so a full set needs no second scan.
        let (mut victim, mut victim_use) = (base, u64::MAX);
        let mut free = None;
        for w in base..base + self.assoc {
            if !self.valid(w) {
                if free.is_none() {
                    free = Some(w);
                }
            } else if self.tags[w] == tag {
                self.last_use[w] = self.epoch_base + self.tick;
                return None;
            } else if self.last_use[w] < victim_use {
                (victim, victim_use) = (w, self.last_use[w]);
            }
        }
        // Free way?
        if let Some(w) = free {
            self.tags[w] = tag;
            self.last_use[w] = self.epoch_base + self.tick;
            return None;
        }
        // Evict LRU.
        let evicted_line = self.tags[victim] * self.num_sets + set as u64;
        self.tags[victim] = tag;
        self.last_use[victim] = self.epoch_base + self.tick;
        Some(evicted_line)
    }

    /// Remove the line containing `addr` if present (used for exclusive
    /// L2 behaviour). Returns whether it was present.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(self.line_of(addr));
        let base = set * self.assoc;
        for w in base..base + self.assoc {
            if self.tags[w] == tag && self.valid(w) {
                // Timestamp zero is below every epoch's base.
                self.last_use[w] = 0;
                return true;
            }
        }
        false
    }

    /// Install a line given its line-granular address (for exclusive-L2
    /// victim insertion).
    pub fn fill_line(&mut self, line: u64) -> Option<u64> {
        self.fill(line << self.line_shift)
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.last_use
            .iter()
            .filter(|&&t| t >= self.epoch_base)
            .count()
    }
}

/// Recycled tag/LRU buffers for one thread's cache hierarchies, plus
/// the epoch counter that invalidates them between runs. Owned by the
/// simulator scoreboard; reference implementations deliberately do not
/// use it.
#[derive(Debug, Default)]
pub struct CachePool {
    /// `tags`/`last_use` buffer pairs for L1I, L1D, L2 (in that order).
    bufs: [(Vec<u64>, Vec<u64>); 3],
    epoch: u64,
}

impl CachePool {
    /// Advance to a fresh epoch, re-zeroing the buffers on the (once
    /// per ~16M runs) wrap.
    fn next_epoch(&mut self) -> u64 {
        self.epoch += 1;
        if self.epoch > MAX_EPOCH {
            self.epoch = 1;
            for (tags, last_use) in &mut self.bufs {
                tags.clear();
                last_use.clear();
            }
        }
        self.epoch
    }
}

/// Aggregate hierarchy statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// L1 instruction-cache misses.
    pub l1i_misses: u64,
    /// L1 data-cache misses.
    pub l1d_misses: u64,
    /// L2 misses (from either L1).
    pub l2_misses: u64,
    /// Total instruction fetch accesses.
    pub ifetch_accesses: u64,
    /// Total data accesses.
    pub data_accesses: u64,
}

/// The full hierarchy: split L1s, unified L2, main memory.
pub struct Hierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    exclusive: bool,
    mem: MainMemory,
    l1i_lat: u64,
    l1d_lat: u64,
    l2_lat: u64,
    stats: CacheStats,
}

impl Hierarchy {
    /// Build from per-level configs; `mem` must already be scaled to the
    /// core clock.
    pub fn new(
        l1i: CacheConfig,
        l1d: CacheConfig,
        l2: CacheConfig,
        exclusive: bool,
        mem: MainMemory,
    ) -> Hierarchy {
        Hierarchy {
            l1i_lat: l1i.latency as u64,
            l1d_lat: l1d.latency as u64,
            l2_lat: l2.latency as u64,
            l1i: Cache::new(l1i),
            l1d: Cache::new(l1d),
            l2: Cache::new(l2),
            exclusive,
            mem,
            stats: CacheStats::default(),
        }
    }

    /// Like [`Hierarchy::new`], but recycling `pool`'s buffers instead
    /// of allocating fresh arrays — the per-call constructor the hot
    /// simulation paths use. Return the buffers with
    /// [`Hierarchy::recycle`] when the run is done.
    pub fn from_pool(
        l1i: CacheConfig,
        l1d: CacheConfig,
        l2: CacheConfig,
        exclusive: bool,
        mem: MainMemory,
        pool: &mut CachePool,
    ) -> Hierarchy {
        let epoch = pool.next_epoch();
        let [b0, b1, b2] = &mut pool.bufs;
        let take =
            |b: &mut (Vec<u64>, Vec<u64>)| (std::mem::take(&mut b.0), std::mem::take(&mut b.1));
        let (t0, u0) = take(b0);
        let (t1, u1) = take(b1);
        let (t2, u2) = take(b2);
        Hierarchy {
            l1i_lat: l1i.latency as u64,
            l1d_lat: l1d.latency as u64,
            l2_lat: l2.latency as u64,
            l1i: Cache::from_buffers(l1i, t0, u0, epoch),
            l1d: Cache::from_buffers(l1d, t1, u1, epoch),
            l2: Cache::from_buffers(l2, t2, u2, epoch),
            exclusive,
            mem,
            stats: CacheStats::default(),
        }
    }

    /// Hand the tag/LRU buffers back to `pool` for the next run.
    pub fn recycle(self, pool: &mut CachePool) {
        pool.bufs[0] = (self.l1i.tags, self.l1i.last_use);
        pool.bufs[1] = (self.l1d.tags, self.l1d.last_use);
        pool.bufs[2] = (self.l2.tags, self.l2.last_use);
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn access_l2_then_mem(
        &mut self,
        addr: u64,
        now: u64,
        l1_victim: Option<u64>,
    ) -> (u64, HitLevel) {
        // On the miss path, latency accumulates level by level.
        let mut lat = 0;
        let level;
        if self.l2.access(addr) {
            lat += self.l2_lat;
            level = HitLevel::L2;
            if self.exclusive {
                // Line migrates up; it leaves the L2.
                self.l2.invalidate(addr);
            }
        } else {
            self.stats.l2_misses += 1;
            lat += self.l2_lat + self.mem.access(now + lat);
            level = HitLevel::Mem;
            if !self.exclusive {
                self.l2.fill(addr);
            }
        }
        // Victim from the L1 goes down into an exclusive L2.
        if self.exclusive {
            if let Some(line) = l1_victim {
                self.l2.fill_line(line);
            }
        }
        (lat, level)
    }

    /// Instruction fetch of the line containing `pc` at cycle `now`.
    /// Returns (total latency in cycles, servicing level).
    #[inline]
    pub fn access_ifetch(&mut self, pc: u64, now: u64) -> (u64, HitLevel) {
        self.stats.ifetch_accesses += 1;
        if self.l1i.access(pc) {
            return (self.l1i_lat, HitLevel::L1);
        }
        self.stats.l1i_misses += 1;
        let victim = self.l1i.fill(pc);
        let (lat, level) = self.access_l2_then_mem(pc, now, victim);
        (self.l1i_lat + lat, level)
    }

    /// Data access at cycle `now`. Stores are write-allocate and follow
    /// the same path as loads.
    #[inline]
    pub fn access_data(&mut self, addr: u64, now: u64) -> (u64, HitLevel) {
        self.stats.data_accesses += 1;
        if self.l1d.access(addr) {
            return (self.l1d_lat, HitLevel::L1);
        }
        self.stats.l1d_misses += 1;
        let victim = self.l1d.fill(addr);
        let (lat, level) = self.access_l2_then_mem(addr, now, victim);
        (self.l1d_lat + lat, level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MemConfig, MemKind};

    fn small_cache(size: u64, assoc: u32) -> Cache {
        Cache::new(CacheConfig {
            size_bytes: size,
            assoc,
            line_bytes: 64,
            latency: 1,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small_cache(1024, 2);
        assert!(!c.access(0x100));
        c.fill(0x100);
        assert!(c.access(0x100));
        assert!(c.access(0x13f)); // same 64B line
        assert!(!c.access(0x140)); // next line
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2 sets * 2 ways; lines mapping to set 0: 0, 2, 4 (line index).
        let mut c = small_cache(256, 2);
        c.fill(0); // line 0 -> set 0
        c.fill(128); // line 2 -> set 0
        assert!(c.access(0)); // make line 0 the most recent
        let evicted = c.fill(256); // line 4 -> set 0: must evict line 2
        assert_eq!(evicted, Some(2));
        assert!(c.access(0));
        assert!(!c.access(128));
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut c = small_cache(1024, 4); // 16 lines
        for i in 0..100u64 {
            c.fill(i * 64);
        }
        assert!(c.resident_lines() <= 16);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small_cache(1024, 2);
        c.fill(0x40);
        assert!(c.invalidate(0x40));
        assert!(!c.access(0x40));
        assert!(!c.invalidate(0x40));
    }

    #[test]
    fn non_power_of_two_sets_fall_back_to_division() {
        // 3 sets * 1 way (192 bytes / 64 / 1): exercises the div/mod
        // fallback path; behaviour must match the pow2 logic's contract.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 192,
            assoc: 1,
            line_bytes: 64,
            latency: 1,
        });
        c.fill(0); // line 0 -> set 0
        c.fill(64); // line 1 -> set 1
        c.fill(128); // line 2 -> set 2
        assert!(c.access(0) && c.access(64) && c.access(128));
        // Line 3 maps back to set 0 and must evict line 0.
        assert_eq!(c.fill(192), Some(0));
        assert!(!c.access(0));
        assert!(c.access(192));
    }

    /// A pooled cache whose buffers carry a previous run's state must
    /// behave exactly like a fresh one: stale entries are invisible as
    /// hits, count as free ways, and never pollute LRU choice.
    #[test]
    fn pooled_reuse_is_indistinguishable_from_fresh() {
        let cfg = CacheConfig {
            size_bytes: 256,
            assoc: 2,
            line_bytes: 64,
            latency: 1,
        };
        let mut pool = CachePool::default();
        let mem = || MainMemory::new(MemConfig::typical(MemKind::Ddr4), 2.0);

        // Drive an access pattern through fresh and pooled hierarchies
        // twice; the second pooled run sees dirty buffers.
        let pattern: Vec<u64> = (0..64u64).map(|i| (i * 769 + 13) % 16 * 64).collect();
        let run_fresh = || {
            let mut h = Hierarchy::new(cfg, cfg, cfg, false, mem());
            let lats: Vec<u64> = pattern.iter().map(|&a| h.access_data(a, 0).0).collect();
            (lats, h.stats())
        };
        let (fresh_lats, fresh_stats) = run_fresh();
        for _ in 0..3 {
            let mut h = Hierarchy::from_pool(cfg, cfg, cfg, false, mem(), &mut pool);
            let lats: Vec<u64> = pattern.iter().map(|&a| h.access_data(a, 0).0).collect();
            let stats = h.stats();
            h.recycle(&mut pool);
            assert_eq!(lats, fresh_lats);
            assert_eq!(stats, fresh_stats);
        }
    }

    /// Pool buffers shared across different geometries (the same
    /// scoreboard simulates many configs) must still read as empty.
    #[test]
    fn pooled_reuse_across_geometries() {
        let small = CacheConfig {
            size_bytes: 256,
            assoc: 2,
            line_bytes: 64,
            latency: 1,
        };
        let big = CacheConfig {
            size_bytes: 4096,
            assoc: 4,
            line_bytes: 64,
            latency: 2,
        };
        let mem = || MainMemory::new(MemConfig::typical(MemKind::Ddr4), 2.0);
        let mut pool = CachePool::default();
        for cfg in [small, big, small, big, small] {
            let mut fresh = Hierarchy::new(cfg, cfg, cfg, false, mem());
            let mut pooled = Hierarchy::from_pool(cfg, cfg, cfg, false, mem(), &mut pool);
            for i in 0..128u64 {
                let a = (i * 257 + 7) % 96 * 64;
                assert_eq!(fresh.access_data(a, i), pooled.access_data(a, i));
            }
            assert_eq!(fresh.stats(), pooled.stats());
            pooled.recycle(&mut pool);
        }
    }

    fn hierarchy(exclusive: bool) -> Hierarchy {
        let l1 = CacheConfig {
            size_bytes: 512,
            assoc: 2,
            line_bytes: 64,
            latency: 2,
        };
        let l2 = CacheConfig {
            size_bytes: 4096,
            assoc: 4,
            line_bytes: 64,
            latency: 10,
        };
        let mem = MainMemory::new(MemConfig::typical(MemKind::Ddr4), 2.0);
        Hierarchy::new(l1, l1, l2, exclusive, mem)
    }

    #[test]
    fn miss_path_latency_accumulates() {
        let mut h = hierarchy(false);
        let (cold, level) = h.access_data(0x1000, 0);
        assert_eq!(level, HitLevel::Mem);
        let (l1_hit, level) = h.access_data(0x1000, 100);
        assert_eq!(level, HitLevel::L1);
        assert_eq!(l1_hit, 2);
        assert!(cold > 12); // l1 + l2 + memory
    }

    #[test]
    fn l2_serves_after_l1_eviction() {
        let mut h = hierarchy(false);
        // Fill far more lines than L1 holds (8 lines) but fewer than L2 (64).
        for i in 0..32u64 {
            h.access_data(i * 64, i);
        }
        // Line 0 was evicted from L1 but should still be in (non-exclusive) L2.
        let (_, level) = h.access_data(0, 1000);
        assert_eq!(level, HitLevel::L2);
    }

    #[test]
    fn exclusive_l2_holds_victims_only() {
        let mut h = hierarchy(true);
        let (_, lvl) = h.access_data(0, 0);
        assert_eq!(lvl, HitLevel::Mem);
        // Still resident in L1 -> L1 hit; L2 does not hold it.
        let (_, lvl) = h.access_data(0, 10);
        assert_eq!(lvl, HitLevel::L1);
        // Push 8+ new lines through the same structure to evict line 0 from L1.
        for i in 1..16u64 {
            h.access_data(i * 64, 20 + i);
        }
        // Victim should have migrated to L2.
        let (_, lvl) = h.access_data(0, 1000);
        assert_eq!(lvl, HitLevel::L2);
    }

    #[test]
    fn stats_count_misses() {
        let mut h = hierarchy(false);
        h.access_data(0, 0);
        h.access_data(0, 1);
        h.access_ifetch(0x10_000, 2);
        let s = h.stats();
        assert_eq!(s.l1d_misses, 1);
        assert_eq!(s.l1i_misses, 1);
        assert_eq!(s.data_accesses, 2);
        assert_eq!(s.ifetch_accesses, 1);
    }
}
