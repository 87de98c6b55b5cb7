//! Functional-unit pools and issue-port scheduling.
//!
//! Both core models schedule each instruction onto (a) a unit from the
//! pool matching its [`OpClass`] and (b) an issue port. Pools track the
//! cycle each unit becomes free; pipelined units free up one cycle after
//! issue, unpipelined units after their full latency.
//!
//! `issue` runs once per simulated instruction, so the unit and port
//! scans are the hottest scans in the simulator. Pools and ports are
//! stored as fixed [`FU_LANES`]-wide arrays padded with a sentinel, and
//! the earliest-free slot is found with a branchless packed-key
//! tournament (`min_lanes`) instead of a data-dependent compare-and-
//! branch loop whose branches are essentially random to the predictor.
//! Configurations wider than [`FU_LANES`] (none of the sampled or
//! predefined machines; possible by hand) fall back to a plain scan.

use crate::config::FuConfig;
use perfvec_isa::OpClass;

/// Widest supported fast-path pool / issue width. The sampled
/// population caps both at 8 (`sample_config`), as do the predefined
/// machines.
pub const FU_LANES: usize = 8;

/// Padding sentinel for unused lanes: larger than any reachable
/// busy-until cycle (a simulation would need ~10^18 cycles to reach
/// it), small enough that `value << LANE_BITS` cannot wrap.
const LANE_PAD: u64 = 1 << 60;

const LANE_BITS: u32 = 3;

/// The busy/free state of every functional unit plus the issue ports.
#[derive(Debug, Clone)]
pub struct FuState {
    /// `free_at[class][unit]` = next cycle the unit can accept an op;
    /// unused lanes hold [`LANE_PAD`].
    free_at: [[u64; FU_LANES]; OpClass::COUNT],
    /// One slot per issue-width lane; each issues one op per cycle.
    ports: [u64; FU_LANES],
    /// Latency per class.
    latency: [u64; OpClass::COUNT],
    /// Pipelined flag per class.
    pipelined: [bool; OpClass::COUNT],
    /// Unit count per class: single-unit pools (the common case on
    /// little cores) skip the lane tournament entirely.
    counts: [u8; OpClass::COUNT],
    /// Issue width, for the same single-port shortcut.
    width: u8,
    /// Fallback state for configs wider than [`FU_LANES`].
    slow: Option<Box<SlowFu>>,
}

/// Vec-backed fallback for hand-built configs exceeding [`FU_LANES`]
/// units or ports. Semantics identical to the fast path.
#[derive(Debug, Clone)]
struct SlowFu {
    free_at: [Vec<u64>; OpClass::COUNT],
    ports: Vec<u64>,
}

impl FuState {
    /// Build unit state from a configuration and an issue width.
    pub fn new(cfg: &FuConfig, issue_width: u8) -> FuState {
        let issue_width = issue_width.max(1) as usize;
        let mut latency = [1u64; OpClass::COUNT];
        let mut pipelined = [true; OpClass::COUNT];
        let mut counts = [1usize; OpClass::COUNT];
        for class in OpClass::ALL {
            let pool = cfg.pool_for(class);
            counts[class as usize] = pool.count.max(1) as usize;
            latency[class as usize] = pool.latency.max(1) as u64;
            pipelined[class as usize] = pool.pipelined;
        }

        let fits = issue_width <= FU_LANES && counts.iter().all(|&c| c <= FU_LANES);
        let slow = (!fits).then(|| {
            let mut free_at: [Vec<u64>; OpClass::COUNT] = Default::default();
            for (v, &c) in free_at.iter_mut().zip(&counts) {
                *v = vec![0u64; c];
            }
            Box::new(SlowFu {
                free_at,
                ports: vec![0u64; issue_width],
            })
        });

        let mut free_at = [[LANE_PAD; FU_LANES]; OpClass::COUNT];
        let mut ports = [LANE_PAD; FU_LANES];
        if fits {
            for (lanes, &c) in free_at.iter_mut().zip(&counts) {
                lanes[..c].fill(0);
            }
            ports[..issue_width].fill(0);
        }

        let mut byte_counts = [1u8; OpClass::COUNT];
        for (b, &c) in byte_counts.iter_mut().zip(&counts) {
            *b = c.min(FU_LANES) as u8;
        }
        FuState {
            free_at,
            ports,
            latency,
            pipelined,
            counts: byte_counts,
            width: issue_width.min(FU_LANES) as u8,
            slow,
        }
    }

    /// Execution latency for `class`.
    #[inline]
    pub fn latency(&self, class: OpClass) -> u64 {
        self.latency[class as usize]
    }

    /// Schedule an op of `class` that becomes ready at `ready`.
    ///
    /// Greedily picks the earliest-free unit and port; returns the issue
    /// cycle and books both resources. Selection order (first index of
    /// the minimum) is part of the bit-identity contract — do not
    /// reorder.
    #[inline]
    pub fn issue(&mut self, class: OpClass, ready: u64) -> u64 {
        if let Some(slow) = &mut self.slow {
            return slow.issue(class, ready, &self.latency, &self.pipelined);
        }
        let ci = class as usize;
        // Pools and widths of at most two — the norm on little cores —
        // need no 8-lane tournament: a min-of-two compiles to a single
        // conditional move, and unused second lanes hold [`LANE_PAD`]
        // so the same code covers one-unit pools. The branches are
        // per-class constants for a given config, so they predict
        // perfectly.
        let (ui, unit_free) = if self.counts[ci] <= 2 {
            min2(&self.free_at[ci])
        } else if self.counts[ci] <= 4 {
            min4(&self.free_at[ci])
        } else {
            min_lanes(&self.free_at[ci])
        };
        let (pi, port_free) = if self.width <= 2 {
            min2(&self.ports)
        } else if self.width <= 4 {
            min4(&self.ports)
        } else {
            min_lanes(&self.ports)
        };
        let start = ready.max(unit_free).max(port_free);
        debug_assert!(
            start + self.latency[ci] < LANE_PAD,
            "cycle count overflows lane packing"
        );
        self.ports[pi] = start + 1;
        self.free_at[ci][ui] = if self.pipelined[ci] {
            start + 1
        } else {
            start + self.latency[ci]
        };
        start
    }
}

impl SlowFu {
    fn issue(
        &mut self,
        class: OpClass,
        ready: u64,
        latency: &[u64; OpClass::COUNT],
        pipelined: &[bool; OpClass::COUNT],
    ) -> u64 {
        let ci = class as usize;
        let (ui, unit_free) = min_slot(&self.free_at[ci]);
        let (pi, port_free) = min_slot(&self.ports);
        let start = ready.max(unit_free).max(port_free);
        self.ports[pi] = start + 1;
        self.free_at[ci][ui] = if pipelined[ci] {
            start + 1
        } else {
            start + latency[ci]
        };
        start
    }
}

/// First index holding the minimum, branchlessly: each lane is packed
/// as `(value << LANE_BITS) | index`, so the u64 minimum of the packed
/// keys is the smallest value — ties resolved toward the smallest
/// index, exactly the first-of-minimum scan order the bit-identity
/// contract pins.
#[inline]
fn min_lanes(v: &[u64; FU_LANES]) -> (usize, u64) {
    let mut m = u64::MAX;
    for (i, &t) in v.iter().enumerate() {
        m = m.min((t << LANE_BITS) | i as u64);
    }
    ((m & (FU_LANES as u64 - 1)) as usize, m >> LANE_BITS)
}

/// First-of-minimum over the leading two lanes (ties go to lane 0,
/// like the full scan); lane 1 of a one-element pool holds
/// [`LANE_PAD`], so it never wins.
#[inline]
fn min2(v: &[u64; FU_LANES]) -> (usize, u64) {
    if v[1] < v[0] {
        (1, v[1])
    } else {
        (0, v[0])
    }
}

/// Packed-key first-of-minimum over the leading four lanes.
#[inline]
fn min4(v: &[u64; FU_LANES]) -> (usize, u64) {
    let mut m = v[0] << LANE_BITS;
    m = m.min((v[1] << LANE_BITS) | 1);
    m = m.min((v[2] << LANE_BITS) | 2);
    m = m.min((v[3] << LANE_BITS) | 3);
    ((m & (FU_LANES as u64 - 1)) as usize, m >> LANE_BITS)
}

fn min_slot(v: &[u64]) -> (usize, u64) {
    let mut best = (0usize, u64::MAX);
    for (i, &t) in v.iter().enumerate() {
        if t < best.1 {
            best = (i, t);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::predefined_configs;

    fn state() -> FuState {
        let cfg = predefined_configs()[0].fus;
        FuState::new(&cfg, 2)
    }

    #[test]
    fn ready_time_is_respected() {
        let mut s = state();
        assert_eq!(s.issue(OpClass::IntAlu, 10), 10);
    }

    #[test]
    fn issue_ports_limit_throughput() {
        let mut s = state(); // issue width 2
        let a = s.issue(OpClass::IntAlu, 0);
        let b = s.issue(OpClass::IntAlu, 0);
        let c = s.issue(OpClass::FpAlu, 0);
        assert_eq!((a, b), (0, 0));
        assert_eq!(c, 1, "third op in the same cycle must wait for a port");
    }

    #[test]
    fn unpipelined_divider_blocks_back_to_back_ops() {
        let cfg = predefined_configs()[0].fus;
        let mut s = FuState::new(&cfg, 8);
        let lat = s.latency(OpClass::IntDiv);
        assert!(lat > 1);
        let n_units = cfg.int_div.count as u64;
        let a = s.issue(OpClass::IntDiv, 0);
        // Saturate every divider, then one more: it must wait a full latency.
        let mut last = a;
        for _ in 1..=n_units {
            last = s.issue(OpClass::IntDiv, 0);
        }
        assert!(last >= lat, "divide should serialize on unpipelined units");
    }

    #[test]
    fn pipelined_units_accept_one_per_cycle() {
        let cfg = predefined_configs()[0].fus;
        let mut s = FuState::new(&cfg, 8);
        let n = cfg.int_alu.count as u64;
        let mut starts = Vec::new();
        for _ in 0..2 * n {
            starts.push(s.issue(OpClass::IntAlu, 0));
        }
        // With n pipelined ALUs, 2n ops fit in 2 cycles (port permitting).
        assert!(starts.iter().all(|&t| t <= 2));
    }

    /// A hand-built config wider than the fast path's lane count must
    /// behave identically through the fallback.
    #[test]
    fn wide_configs_fall_back_with_identical_semantics() {
        let mut cfg = predefined_configs()[0].fus;
        cfg.int_alu.count = 12;
        let mut wide = FuState::new(&cfg, 16);
        assert!(wide.slow.is_some());
        // 16 ALU ops at once: 12 units but 16 ports -> 12 in cycle 0.
        let starts: Vec<u64> = (0..16).map(|_| wide.issue(OpClass::IntAlu, 0)).collect();
        assert_eq!(starts.iter().filter(|&&s| s == 0).count(), 12);
        assert_eq!(starts.iter().filter(|&&s| s == 1).count(), 4);
    }

    /// The packed-key scan must pick the first index among tied minima,
    /// like the reference scan.
    #[test]
    fn min_lanes_breaks_ties_toward_first_index() {
        let v = [5u64, 3, 3, 9, 3, LANE_PAD, LANE_PAD, LANE_PAD];
        assert_eq!(min_lanes(&v), (1, 3));
        let w = [7u64; FU_LANES];
        assert_eq!(min_lanes(&w), (0, 7));
    }
}
