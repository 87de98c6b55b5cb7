//! Steppable machine states for the two core models.
//!
//! The timing loops from the out-of-order and in-order simulators live
//! here as `run` methods on [`OooMachine`] / [`InorderMachine`]: all
//! per-machine state (rings, register scoreboard, branch state, cache
//! hierarchy, fetch cursors, retire tracker) is owned by the machine
//! struct, and one call advances it through the whole decoded trace,
//! hoisting the hot scalar pipeline state into locals so it stays in
//! registers. [`run_machine`] drives one machine begin → run → finish;
//! `simulate_column` calls it once per machine over one shared
//! [`DecodedTrace`], `simulate` once.
//!
//! Scratch buffers ([`MachineScratch`], pooled in the thread-local
//! [`SimScratch`]) are taken at [`OooMachine::begin`] and returned at
//! `finish`, so steady-state simulation never allocates beyond the
//! per-result output vectors.

use crate::branch::{Btb, Predictor};
use crate::cache::{CachePool, Hierarchy, HitLevel};
use crate::config::{CoreKind, MicroArchConfig};
use crate::fu::FuState;
use crate::latency::{RetireTracker, SimResult, SimStats};
use crate::memsys::MainMemory;
use perfvec_trace::decoded::{DecodedInst, DecodedTrace, REG_SLOTS};
use std::cell::RefCell;

/// Extra front-end bubble (cycles) when a taken branch hits in the BTB.
const TAKEN_REDIRECT_BUBBLE: u64 = 1;
/// OoO front-end bubble when the target must be computed at decode (BTB
/// miss on a direct taken branch).
const OOO_BTB_MISS_BUBBLE: u64 = 3;
/// In-order front-end bubble when a taken branch misses the BTB.
const INORDER_BTB_MISS_BUBBLE: u64 = 2;

/// Store-to-load forwarding window: finds the youngest in-flight store
/// to an 8-byte block among the last store-queue's worth of stores.
///
/// Only stores with `seq + sq > stores_seen` may forward (older ones
/// have drained to the cache), so the whole structure is bounded by the
/// store-queue size and stays L1-resident regardless of trace length: a
/// ring of the last `sq` stores plus a small hash-head table chaining
/// same-hash stores newest-first through `prev`. A lookup walks the
/// chain and stops at the first out-of-window sequence number — every
/// deeper entry is older still — so the first block match is exactly
/// the youngest forwardable store, matching the reference `HashMap`
/// (whose `insert` keeps the youngest store per block) plus its window
/// check. A fence raises `fence_seq` instead of clearing: stores
/// sequenced before it never forward again.
pub(crate) struct FwdMap {
    /// `head[hash(blk)]`: sequence number of the youngest store hashed
    /// there, or `EMPTY`.
    head: Vec<u64>,
    /// Ring slot `seq & ring_mask` → that store's block address.
    blk: Vec<u64>,
    /// Ring slot → data-ready cycle.
    ready: Vec<u64>,
    /// Ring slot → previous (older) same-hash store's sequence number.
    prev: Vec<u64>,
    ring_mask: u64,
    shift: u32,
    /// Stores sequenced before this never forward (fence barrier).
    fence_seq: u64,
}

const FWD_EMPTY: u64 = u64::MAX;

impl Default for FwdMap {
    fn default() -> FwdMap {
        FwdMap::new()
    }
}

impl FwdMap {
    fn new() -> FwdMap {
        FwdMap {
            head: Vec::new(),
            blk: Vec::new(),
            ready: Vec::new(),
            prev: Vec::new(),
            ring_mask: 0,
            shift: 63,
            fence_seq: 0,
        }
    }

    /// Prepare for a simulation with store-queue size `sq`.
    fn begin(&mut self, sq: usize) {
        let ring = sq.max(8).next_power_of_two();
        let tab = (4 * ring).next_power_of_two();
        if ring as u64 != self.ring_mask + 1 || self.head.len() != tab {
            self.blk.clear();
            self.blk.resize(ring, 0);
            self.ready.clear();
            self.ready.resize(ring, 0);
            self.prev.clear();
            self.prev.resize(ring, FWD_EMPTY);
            self.head.clear();
            self.head.resize(tab, FWD_EMPTY);
            self.ring_mask = ring as u64 - 1;
            self.shift = 64 - tab.trailing_zeros();
        } else {
            self.head.fill(FWD_EMPTY);
        }
        self.fence_seq = 0;
    }

    /// Fibonacci-hash head index for `blk`.
    #[inline]
    fn head_of(&self, blk: u64) -> usize {
        (blk.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// A fence publishes every prior store: loads beyond it read from
    /// the memory system, never the forwarding window. `stores_seen` is
    /// the fence-time store count.
    #[inline]
    fn fence(&mut self, stores_seen: u64) {
        self.fence_seq = stores_seen;
    }

    /// Data-ready cycle of the youngest store to `blk` still inside the
    /// forwarding window (`stores_seen` stores issued so far, queue
    /// size `sq`) and after the last fence.
    #[inline]
    fn get(&self, blk: u64, stores_seen: u64, sq: u64) -> Option<u64> {
        let mut s = self.head[self.head_of(blk)];
        while s != FWD_EMPTY && s + sq > stores_seen && s >= self.fence_seq {
            let slot = (s & self.ring_mask) as usize;
            debug_assert!(
                s + (self.ring_mask + 1) > stores_seen,
                "in-window store's ring slot must be intact"
            );
            if self.blk[slot] == blk {
                return Some(self.ready[slot]);
            }
            s = self.prev[slot];
        }
        None
    }

    /// Record store number `seq` to `blk` with its data ready at
    /// `ready`.
    #[inline]
    fn insert(&mut self, blk: u64, ready: u64, seq: u64) {
        let h = self.head_of(blk);
        let slot = (seq & self.ring_mask) as usize;
        self.blk[slot] = blk;
        self.ready[slot] = ready;
        self.prev[slot] = self.head[h];
        self.head[h] = seq;
    }
}

/// Preallocated per-machine scratch: everything a live machine borrows
/// for a run and hands back at `finish`, so repeated simulations reuse
/// their allocations. Machines run one after another, so one instance
/// serves a whole column.
#[derive(Default)]
pub(crate) struct MachineScratch {
    pub caches: CachePool,
    pub rob_ring: Vec<u64>,
    pub lq_ring: Vec<u64>,
    pub sq_ring: Vec<u64>,
    pub fwd: FwdMap,
}

/// Reset a ring buffer to `len` zeroed slots.
fn reset(ring: &mut Vec<u64>, len: usize) {
    ring.clear();
    ring.resize(len, 0);
}

/// Per-thread simulation scratch: the reusable [`DecodedTrace`] buffer
/// plus the [`MachineScratch`] every machine of a column borrows in turn.
#[derive(Default)]
pub(crate) struct SimScratch {
    pub dt: DecodedTrace,
    pub cell: MachineScratch,
}

thread_local! {
    static SCRATCH: RefCell<SimScratch> = RefCell::new(SimScratch::default());
}

/// Run `f` with this thread's reusable [`SimScratch`].
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut SimScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// One live out-of-order machine mid-simulation.
struct OooMachine {
    // Configuration-derived immutables.
    rob: usize,
    lq: usize,
    sq: usize,
    fetch_width: u8,
    front: u64,
    cycle_tenths: f64,
    // Microarchitectural substrates.
    pool: CachePool,
    hier: Hierarchy,
    pred: Predictor,
    btb: Btb,
    fus: FuState,
    retire: RetireTracker,
    // Scratch-backed buffers.
    rob_ring: Vec<u64>,
    lq_ring: Vec<u64>,
    sq_ring: Vec<u64>,
    fwd: FwdMap,
    // Register scoreboard.
    reg_ready: [u64; REG_SLOTS],
    // Queue occupancy cursors.
    loads_seen: usize,
    stores_seen: usize,
    rob_slot: usize,
    lq_slot: usize,
    sq_slot: usize,
    // Fence serialization.
    mem_barrier: u64,
    max_mem_complete: u64,
    // Fetch state.
    fetch_cycle: u64,
    fetched_in_cycle: u8,
    cur_line: u64,
    // Retirement.
    prev_retire: u64,
    // Outputs.
    inc: Vec<f32>,
    mem_level: Vec<HitLevel>,
    mispredicted: Vec<bool>,
    stats: SimStats,
}

/// The hot mutable scalars of one [`OooMachine`], hoisted out of the
/// machine while it runs. [`OooMachine::run`] keeps this in a stack
/// local and passes it to the inlined per-record step, so the optimizer
/// promotes the fields to registers instead of paying a load/store
/// round trip per field per record.
#[derive(Clone, Copy)]
struct OooHot {
    loads_seen: usize,
    stores_seen: usize,
    rob_slot: usize,
    lq_slot: usize,
    sq_slot: usize,
    mem_barrier: u64,
    max_mem_complete: u64,
    fetch_cycle: u64,
    fetched_in_cycle: u8,
    cur_line: u64,
    prev_retire: u64,
    branches: u64,
    mispredicts: u64,
}

impl OooMachine {
    /// Start a machine for an `n`-record trace, borrowing `scratch`'s
    /// buffers (returned by [`OooMachine::finish`]).
    fn begin(cfg: &MicroArchConfig, n: usize, scratch: &mut MachineScratch) -> OooMachine {
        // Occupancy rings: dispatch waits for the entry `size`
        // instructions back to have retired.
        let rob = cfg.rob_size.max(8) as usize;
        let mut rob_ring = std::mem::take(&mut scratch.rob_ring);
        reset(&mut rob_ring, rob);
        let lq = cfg.lq_size.max(4) as usize;
        let mut lq_ring = std::mem::take(&mut scratch.lq_ring);
        reset(&mut lq_ring, lq);
        let sq = cfg.sq_size.max(4) as usize;
        let mut sq_ring = std::mem::take(&mut scratch.sq_ring);
        reset(&mut sq_ring, sq);
        // Store-to-load forwarding: a load forwards from the youngest
        // prior store to its 8-byte block that is still inside the
        // store-queue window (sequence number within `sq` of the load)
        // and younger than the last memory barrier — older stores have
        // architecturally drained, and a fence publishes everything
        // before it, so entries cannot leak across fences or the whole
        // trace.
        let mut fwd = std::mem::take(&mut scratch.fwd);
        fwd.begin(sq);
        let mut pool = std::mem::take(&mut scratch.caches);
        let hier = Hierarchy::from_pool(
            cfg.l1i,
            cfg.l1d,
            cfg.l2,
            cfg.l2_exclusive,
            MainMemory::new(cfg.mem, cfg.freq_ghz),
            &mut pool,
        );
        OooMachine {
            rob,
            lq,
            sq,
            fetch_width: cfg.fetch_width,
            front: cfg.front_depth as u64,
            cycle_tenths: cfg.cycle_tenths_ns(),
            pool,
            hier,
            pred: Predictor::new(&cfg.branch),
            btb: Btb::new(cfg.branch.btb_entries),
            fus: FuState::new(&cfg.fus, cfg.issue_width),
            retire: RetireTracker::new(cfg.retire_width),
            rob_ring,
            lq_ring,
            sq_ring,
            fwd,
            reg_ready: [0u64; REG_SLOTS],
            loads_seen: 0,
            stores_seen: 0,
            rob_slot: 0,
            lq_slot: 0,
            sq_slot: 0,
            mem_barrier: 0,
            max_mem_complete: 0,
            fetch_cycle: 0,
            fetched_in_cycle: 0,
            cur_line: u64::MAX,
            prev_retire: 0,
            inc: vec![0f32; n],
            mem_level: vec![HitLevel::None; n],
            mispredicted: vec![false; n],
            stats: SimStats::default(),
        }
    }

    /// Lift the hot mutable scalars into an [`OooHot`] for a run.
    #[inline]
    fn hot(&self) -> OooHot {
        OooHot {
            loads_seen: self.loads_seen,
            stores_seen: self.stores_seen,
            rob_slot: self.rob_slot,
            lq_slot: self.lq_slot,
            sq_slot: self.sq_slot,
            mem_barrier: self.mem_barrier,
            max_mem_complete: self.max_mem_complete,
            fetch_cycle: self.fetch_cycle,
            fetched_in_cycle: self.fetched_in_cycle,
            cur_line: self.cur_line,
            prev_retire: self.prev_retire,
            branches: self.stats.branches,
            mispredicts: self.stats.mispredicts,
        }
    }

    /// Write a run's final [`OooHot`] back into the machine.
    #[inline]
    fn put_hot(&mut self, h: OooHot) {
        self.loads_seen = h.loads_seen;
        self.stores_seen = h.stores_seen;
        self.rob_slot = h.rob_slot;
        self.lq_slot = h.lq_slot;
        self.sq_slot = h.sq_slot;
        self.mem_barrier = h.mem_barrier;
        self.max_mem_complete = h.max_mem_complete;
        self.fetch_cycle = h.fetch_cycle;
        self.fetched_in_cycle = h.fetched_in_cycle;
        self.cur_line = h.cur_line;
        self.prev_retire = h.prev_retire;
        self.stats.branches = h.branches;
        self.stats.mispredicts = h.mispredicts;
    }

    /// Advance this machine through one record. `h` is the run-local
    /// hot state (a stack local in every caller, so after inlining the
    /// fields are promoted to registers); substrates and output buffers
    /// are reached through `self`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        h: &mut OooHot,
        d: &DecodedInst,
        i: usize,
        pc: u64,
        addr: u64,
        taken: bool,
        next_pc: u64,
    ) {
        // ---- fetch ------------------------------------------------------
        let line = pc >> 6;
        if line != h.cur_line {
            let (lat, lvl) = self.hier.access_ifetch(pc, h.fetch_cycle);
            if lvl != HitLevel::L1 {
                // A front-end miss stalls fetch until the line arrives.
                h.fetch_cycle += lat;
                h.fetched_in_cycle = 0;
            }
            h.cur_line = line;
        }
        // Branch-free width wrap: the wrap point moves with every
        // redirect, so a branch here is unpredictable.
        let wrap = h.fetched_in_cycle >= self.fetch_width;
        h.fetch_cycle += wrap as u64;
        h.fetched_in_cycle = if wrap { 0 } else { h.fetched_in_cycle };
        let my_fetch = h.fetch_cycle;
        h.fetched_in_cycle += 1;

        // ---- dispatch: structural queue occupancy ------------------------
        let mut disp = my_fetch + self.front;
        if i >= self.rob {
            disp = disp.max(self.rob_ring[h.rob_slot] + 1);
        }
        // This instruction's load- or store-queue slot (`*_seen % size`,
        // tracked by cursor).
        let mut mem_slot = usize::MAX;
        if d.is_load {
            if h.loads_seen >= self.lq {
                disp = disp.max(self.lq_ring[h.lq_slot] + 1);
            }
            mem_slot = h.lq_slot;
            h.loads_seen += 1;
            h.lq_slot += 1;
            if h.lq_slot == self.lq {
                h.lq_slot = 0;
            }
        } else if d.is_store {
            if h.stores_seen >= self.sq {
                disp = disp.max(self.sq_ring[h.sq_slot] + 1);
            }
            mem_slot = h.sq_slot;
            h.stores_seen += 1;
            h.sq_slot += 1;
            if h.sq_slot == self.sq {
                h.sq_slot = 0;
            }
        }

        // ---- source readiness --------------------------------------------
        // Nearly every instruction has at most two sources; read them
        // unconditionally (dummy-padded) and fall into a loop only for
        // the rare wider ones.
        let mut ready = disp
            .max(self.reg_ready[d.srcs[0] as usize & (REG_SLOTS - 1)])
            .max(self.reg_ready[d.srcs[1] as usize & (REG_SLOTS - 1)]);
        for k in 2..d.n_src as usize {
            ready = ready.max(self.reg_ready[d.srcs[k] as usize & (REG_SLOTS - 1)]);
        }
        if d.is_mem {
            ready = ready.max(h.mem_barrier);
        }
        if d.is_barrier {
            ready = ready.max(h.max_mem_complete);
        }

        // ---- issue + execute -----------------------------------------------
        let start = self.fus.issue(d.class, ready);
        let mut complete = start + self.fus.latency(d.class);
        if d.is_load {
            let (lat, lvl) = self.hier.access_data(addr, start);
            self.mem_level[i] = lvl;
            complete = start + lat;
            // Store-to-load forwarding beats the cache when an in-flight
            // store to the same block has (or will have) its data. The
            // map holds the youngest store per block; it forwards only
            // while still inside the store-queue window — older stores
            // have drained to the cache.
            if let Some(st_ready) = self
                .fwd
                .get(addr >> 3, h.stores_seen as u64, self.sq as u64)
            {
                if st_ready + 1 > start && st_ready + 1 < complete {
                    complete = st_ready + 1;
                }
            }
        } else if d.is_store {
            // Stores update cache state (write-allocate) and consume
            // bandwidth, but retire without waiting for the fill.
            let (_, lvl) = self.hier.access_data(addr, start);
            self.mem_level[i] = lvl;
            complete = start + 1;
            // This store's sequence number is `stores_seen` (already
            // counted at dispatch).
            self.fwd.insert(addr >> 3, complete, h.stores_seen as u64);
        }
        if d.is_mem {
            h.max_mem_complete = h.max_mem_complete.max(complete);
        }
        if d.is_barrier {
            h.mem_barrier = complete;
            self.fwd.fence(h.stores_seen as u64);
        }
        self.reg_ready[d.dsts[0] as usize & (REG_SLOTS - 1)] = complete;
        for k in 1..d.n_dst as usize {
            self.reg_ready[d.dsts[k] as usize & (REG_SLOTS - 1)] = complete;
        }

        // ---- control flow -----------------------------------------------
        if d.is_branch {
            h.branches += 1;
            let actual_target = next_pc;
            let mispred;
            let mut bubble = 0u64;
            if d.is_cond_branch {
                let pred_taken = self.pred.predict(pc, d.static_target);
                mispred = pred_taken != taken;
                if !mispred && taken {
                    bubble = if self.btb.lookup(pc).is_some() {
                        TAKEN_REDIRECT_BUBBLE
                    } else {
                        OOO_BTB_MISS_BUBBLE
                    };
                }
                self.pred.update(pc, taken);
            } else if d.is_indirect_branch {
                mispred = self.btb.lookup(pc) != Some(actual_target);
            } else {
                // Direct unconditional: direction known; BTB miss costs a
                // decode-stage redirect.
                mispred = false;
                bubble = if self.btb.lookup(pc).is_some() {
                    TAKEN_REDIRECT_BUBBLE
                } else {
                    OOO_BTB_MISS_BUBBLE
                };
            }
            if taken {
                self.btb.update(pc, actual_target);
            }
            if mispred {
                h.mispredicts += 1;
                self.mispredicted[i] = true;
                // Fetch restarts after the branch resolves. `cur_line`
                // is deliberately invalidated even when the target
                // shares the branch's line: the restarted front end
                // re-accesses the I-cache (see the
                // `mispredict_restart_reaccesses_icache` test, which
                // pins this accounting).
                h.fetch_cycle = complete + 1;
                h.fetched_in_cycle = 0;
                h.cur_line = u64::MAX;
            } else if taken {
                h.fetch_cycle = my_fetch + bubble;
                h.fetched_in_cycle = 0;
                h.cur_line = u64::MAX;
            }
        }

        // ---- retire --------------------------------------------------------
        let r = self.retire.schedule(complete);
        debug_assert!(r >= h.prev_retire, "retirement must be in order");
        self.inc[i] = ((r - h.prev_retire) as f64 * self.cycle_tenths) as f32;
        h.prev_retire = r;
        self.rob_ring[h.rob_slot] = r;
        h.rob_slot += 1;
        if h.rob_slot == self.rob {
            h.rob_slot = 0;
        }
        if d.is_load {
            self.lq_ring[mem_slot] = r;
        } else if d.is_store {
            self.sq_ring[mem_slot] = r;
        }
    }

    /// Advance this machine through every record of the decoded trace,
    /// with the hot scalar pipeline state in a stack-local [`OooHot`].
    fn run(&mut self, dt: &DecodedTrace) {
        let mut h = self.hot();
        let n = dt.len();
        let insts = &dt.insts[..];
        let (sidx, pcs, addrs) = (&dt.sidx[..n], &dt.pc[..n], &dt.addr[..n]);
        let (next_pcs, takens) = (&dt.next_pc[..n], &dt.taken[..n]);
        for i in 0..n {
            let d = &insts[sidx[i] as usize];
            self.record(&mut h, d, i, pcs[i], addrs[i], takens[i], next_pcs[i]);
        }
        self.put_hot(h);
    }

    /// Tear the machine down into a [`SimResult`], handing buffers back
    /// to `scratch`.
    fn finish(mut self, scratch: &mut MachineScratch) -> SimResult {
        let cs = self.hier.stats();
        self.hier.recycle(&mut self.pool);
        scratch.caches = self.pool;
        scratch.rob_ring = self.rob_ring;
        scratch.lq_ring = self.lq_ring;
        scratch.sq_ring = self.sq_ring;
        scratch.fwd = self.fwd;
        self.stats.l1i_misses = cs.l1i_misses;
        self.stats.l1d_misses = cs.l1d_misses;
        self.stats.l2_misses = cs.l2_misses;
        self.stats.ifetch_accesses = cs.ifetch_accesses;
        self.stats.data_accesses = cs.data_accesses;
        self.stats.cycles = self.prev_retire;
        self.stats.instructions = self.inc.len() as u64;
        SimResult {
            inc_latency_tenths: self.inc,
            total_tenths: self.prev_retire as f64 * self.cycle_tenths,
            mem_level: self.mem_level,
            mispredicted: self.mispredicted,
            stats: self.stats,
        }
    }
}

/// The hot mutable scalars of one [`InorderMachine`] (see [`OooHot`]).
#[derive(Clone, Copy)]
struct InorderHot {
    last_issue: u64,
    mem_barrier: u64,
    max_mem_complete: u64,
    fetch_cycle: u64,
    fetched_in_cycle: u8,
    cur_line: u64,
    prev_retire: u64,
    branches: u64,
    mispredicts: u64,
}

/// One live in-order (scoreboarded) machine mid-simulation.
struct InorderMachine {
    fetch_width: u8,
    front: u64,
    cycle_tenths: f64,
    pool: CachePool,
    hier: Hierarchy,
    pred: Predictor,
    btb: Btb,
    fus: FuState,
    retire: RetireTracker,
    reg_ready: [u64; REG_SLOTS],
    // Strict in-order issue.
    last_issue: u64,
    // Fences serialize memory.
    mem_barrier: u64,
    max_mem_complete: u64,
    fetch_cycle: u64,
    fetched_in_cycle: u8,
    cur_line: u64,
    prev_retire: u64,
    inc: Vec<f32>,
    mem_level: Vec<HitLevel>,
    mispredicted: Vec<bool>,
    stats: SimStats,
}

impl InorderMachine {
    /// Start a machine for an `n`-record trace, borrowing `scratch`'s
    /// cache buffers (returned by [`InorderMachine::finish`]).
    fn begin(cfg: &MicroArchConfig, n: usize, scratch: &mut MachineScratch) -> InorderMachine {
        let mut pool = std::mem::take(&mut scratch.caches);
        let hier = Hierarchy::from_pool(
            cfg.l1i,
            cfg.l1d,
            cfg.l2,
            cfg.l2_exclusive,
            MainMemory::new(cfg.mem, cfg.freq_ghz),
            &mut pool,
        );
        InorderMachine {
            fetch_width: cfg.fetch_width,
            front: cfg.front_depth as u64,
            cycle_tenths: cfg.cycle_tenths_ns(),
            pool,
            hier,
            pred: Predictor::new(&cfg.branch),
            btb: Btb::new(cfg.branch.btb_entries),
            fus: FuState::new(&cfg.fus, cfg.issue_width),
            retire: RetireTracker::new(cfg.retire_width),
            reg_ready: [0u64; REG_SLOTS],
            last_issue: 0,
            mem_barrier: 0,
            max_mem_complete: 0,
            fetch_cycle: 0,
            fetched_in_cycle: 0,
            cur_line: u64::MAX,
            prev_retire: 0,
            inc: vec![0f32; n],
            mem_level: vec![HitLevel::None; n],
            mispredicted: vec![false; n],
            stats: SimStats::default(),
        }
    }

    /// Lift the hot mutable scalars into an [`InorderHot`] for a run.
    #[inline]
    fn hot(&self) -> InorderHot {
        InorderHot {
            last_issue: self.last_issue,
            mem_barrier: self.mem_barrier,
            max_mem_complete: self.max_mem_complete,
            fetch_cycle: self.fetch_cycle,
            fetched_in_cycle: self.fetched_in_cycle,
            cur_line: self.cur_line,
            prev_retire: self.prev_retire,
            branches: self.stats.branches,
            mispredicts: self.stats.mispredicts,
        }
    }

    /// Write a run's final [`InorderHot`] back into the machine.
    #[inline]
    fn put_hot(&mut self, h: InorderHot) {
        self.last_issue = h.last_issue;
        self.mem_barrier = h.mem_barrier;
        self.max_mem_complete = h.max_mem_complete;
        self.fetch_cycle = h.fetch_cycle;
        self.fetched_in_cycle = h.fetched_in_cycle;
        self.cur_line = h.cur_line;
        self.prev_retire = h.prev_retire;
        self.stats.branches = h.branches;
        self.stats.mispredicts = h.mispredicts;
    }

    /// Advance this machine through one record (same contract as
    /// [`OooMachine::record`]).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        h: &mut InorderHot,
        d: &DecodedInst,
        i: usize,
        pc: u64,
        addr: u64,
        taken: bool,
        next_pc: u64,
    ) {
        // ---- fetch (same structure as the OoO front end) ----
        let line = pc >> 6;
        if line != h.cur_line {
            let (lat, lvl) = self.hier.access_ifetch(pc, h.fetch_cycle);
            if lvl != HitLevel::L1 {
                h.fetch_cycle += lat;
                h.fetched_in_cycle = 0;
            }
            h.cur_line = line;
        }
        // Branch-free width wrap: the wrap point moves with every
        // redirect, so a branch here is unpredictable.
        let wrap = h.fetched_in_cycle >= self.fetch_width;
        h.fetch_cycle += wrap as u64;
        h.fetched_in_cycle = if wrap { 0 } else { h.fetched_in_cycle };
        let my_fetch = h.fetch_cycle;
        h.fetched_in_cycle += 1;

        // ---- issue: in order, after decode, sources ready ----
        let mut ready = (my_fetch + self.front)
            .max(h.last_issue)
            .max(self.reg_ready[d.srcs[0] as usize & (REG_SLOTS - 1)])
            .max(self.reg_ready[d.srcs[1] as usize & (REG_SLOTS - 1)]);
        for k in 2..d.n_src as usize {
            ready = ready.max(self.reg_ready[d.srcs[k] as usize & (REG_SLOTS - 1)]);
        }
        if d.is_mem {
            ready = ready.max(h.mem_barrier);
        }
        if d.is_barrier {
            ready = ready.max(h.max_mem_complete);
        }
        let start = self.fus.issue(d.class, ready);
        h.last_issue = start;

        // ---- execute ----
        let mut complete = start + self.fus.latency(d.class);
        if d.is_load {
            let (lat, lvl) = self.hier.access_data(addr, start);
            self.mem_level[i] = lvl;
            complete = start + lat;
        } else if d.is_store {
            let (_, lvl) = self.hier.access_data(addr, start);
            self.mem_level[i] = lvl;
            // Store buffer hides the fill latency.
            complete = start + 1;
        }
        if d.is_mem {
            h.max_mem_complete = h.max_mem_complete.max(complete);
        }
        if d.is_barrier {
            h.mem_barrier = complete;
        }
        self.reg_ready[d.dsts[0] as usize & (REG_SLOTS - 1)] = complete;
        for k in 1..d.n_dst as usize {
            self.reg_ready[d.dsts[k] as usize & (REG_SLOTS - 1)] = complete;
        }

        // ---- control flow ----
        if d.is_branch {
            h.branches += 1;
            let actual_target = next_pc;
            let mispred;
            let mut bubble = 0u64;
            if d.is_cond_branch {
                let pred_taken = self.pred.predict(pc, d.static_target);
                mispred = pred_taken != taken;
                if !mispred && taken {
                    bubble = if self.btb.lookup(pc).is_some() {
                        TAKEN_REDIRECT_BUBBLE
                    } else {
                        INORDER_BTB_MISS_BUBBLE
                    };
                }
                self.pred.update(pc, taken);
            } else if d.is_indirect_branch {
                mispred = self.btb.lookup(pc) != Some(actual_target);
            } else {
                mispred = false;
                bubble = if self.btb.lookup(pc).is_some() {
                    TAKEN_REDIRECT_BUBBLE
                } else {
                    INORDER_BTB_MISS_BUBBLE
                };
            }
            if taken {
                self.btb.update(pc, actual_target);
            }
            if mispred {
                h.mispredicts += 1;
                self.mispredicted[i] = true;
                // In-order branches resolve at execute; the refill cost is
                // the front-end depth (applied via the fetch->issue path).
                h.fetch_cycle = complete + 1;
                h.fetched_in_cycle = 0;
                h.cur_line = u64::MAX;
            } else if taken {
                h.fetch_cycle = my_fetch + bubble;
                h.fetched_in_cycle = 0;
                h.cur_line = u64::MAX;
            }
        }

        // ---- retire ----
        let r = self.retire.schedule(complete);
        debug_assert!(r >= h.prev_retire, "retirement must be in order");
        self.inc[i] = ((r - h.prev_retire) as f64 * self.cycle_tenths) as f32;
        h.prev_retire = r;
    }

    /// Advance this machine through every record of the decoded trace
    /// (same hoisting contract as [`OooMachine::run`]).
    fn run(&mut self, dt: &DecodedTrace) {
        let mut h = self.hot();
        let n = dt.len();
        let insts = &dt.insts[..];
        let (sidx, pcs, addrs) = (&dt.sidx[..n], &dt.pc[..n], &dt.addr[..n]);
        let (next_pcs, takens) = (&dt.next_pc[..n], &dt.taken[..n]);
        for i in 0..n {
            let d = &insts[sidx[i] as usize];
            self.record(&mut h, d, i, pcs[i], addrs[i], takens[i], next_pcs[i]);
        }
        self.put_hot(h);
    }

    /// Tear the machine down into a [`SimResult`], handing cache
    /// buffers back to `scratch`.
    fn finish(mut self, scratch: &mut MachineScratch) -> SimResult {
        let cs = self.hier.stats();
        self.hier.recycle(&mut self.pool);
        scratch.caches = self.pool;
        self.stats.l1i_misses = cs.l1i_misses;
        self.stats.l1d_misses = cs.l1d_misses;
        self.stats.l2_misses = cs.l2_misses;
        self.stats.ifetch_accesses = cs.ifetch_accesses;
        self.stats.data_accesses = cs.data_accesses;
        self.stats.cycles = self.prev_retire;
        self.stats.instructions = self.inc.len() as u64;
        SimResult {
            inc_latency_tenths: self.inc,
            total_tenths: self.prev_retire as f64 * self.cycle_tenths,
            mem_level: self.mem_level,
            mispredicted: self.mispredicted,
            stats: self.stats,
        }
    }
}

/// Simulate one machine over a whole decoded trace: begin on `cell`'s
/// buffers, run every record, and hand the buffers back at finish.
pub(crate) fn run_machine(
    dt: &DecodedTrace,
    cfg: &MicroArchConfig,
    cell: &mut MachineScratch,
) -> SimResult {
    let n = dt.len();
    match cfg.core {
        CoreKind::OutOfOrder => {
            let mut m = OooMachine::begin(cfg, n, cell);
            m.run(dt);
            m.finish(cell)
        }
        CoreKind::InOrder => {
            let mut m = InorderMachine::begin(cfg, n, cell);
            m.run(dt);
            m.finish(cell)
        }
    }
}
