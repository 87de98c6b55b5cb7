//! Memory/core-adaptive sharding for cold dataset-grid generation.
//!
//! A cold `table4` run generates 17 programs × dozens of machines of
//! simulation data; each program's dataset (features + one target
//! column per machine) can reach hundreds of megabytes at full trace
//! length. A [`ShardPlan`] makes the schedule explicit: how many misses
//! justify program-level parallelism, and how many programs may be
//! generated in flight at once. [`ShardPlan::auto`] sizes both from the
//! detected cores and available memory.
//!
//! Plans only change *scheduling*. Up to `max_in_flight` workers take
//! the misses in index order, each starting the next program as soon as
//! its last one is published, and every result lands in its workload's
//! slot, so the produced datasets are byte-identical for every plan and
//! core count — pinned by the `shard_determinism` integration test.

use perfvec_trace::features::NUM_FEATURES;

/// Bytes per trace record we budget for during generation: `f32`
/// features plus one `f32` target per machine, times a safety factor
/// for the emulator trace and transient simulator state.
const BYTES_SAFETY_FACTOR: u64 = 3;

/// Fraction of detected available memory the generator may occupy
/// (denominator: we take 1/2, leaving headroom for the training stage
/// and the page cache).
const MEM_HEADROOM_DIV: u64 = 2;

/// How a batch of per-program dataset misses is scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Parallelize across programs only when at least this many missed.
    /// Below the threshold, generation stays per-machine inside one
    /// program at a time (which already saturates cores on one
    /// program).
    pub min_parallel_misses: usize,
    /// At most this many programs are in generation at once; the next
    /// miss starts as soon as one finishes.
    pub max_in_flight: usize,
}

impl ShardPlan {
    /// The schedule for a fetch of `num_configs` machines at
    /// `trace_len` instructions on this host: fan out across programs
    /// once at least as many programs miss as there are cores (fewer
    /// stay per-machine parallel inside one program at a time), with
    /// the programs in flight bounded by detected available memory
    /// (each program's dataset estimated from `trace_len` and
    /// `num_configs`) and by the core count.
    pub fn auto(trace_len: u64, num_configs: usize) -> ShardPlan {
        Self::auto_for(
            trace_len,
            num_configs,
            available_memory_bytes(),
            detected_cores(),
        )
    }

    /// [`ShardPlan::auto`] with explicit machine parameters (tests).
    pub fn auto_for(trace_len: u64, num_configs: usize, mem_bytes: u64, cores: usize) -> ShardPlan {
        let per_program = per_program_bytes(trace_len, num_configs);
        let budget = mem_bytes / MEM_HEADROOM_DIV;
        let by_mem = (budget / per_program.max(1)).max(1);
        let by_mem = usize::try_from(by_mem).unwrap_or(usize::MAX);
        ShardPlan {
            min_parallel_misses: cores.max(2),
            max_in_flight: by_mem.min(cores.max(1)),
        }
    }
}

/// Estimated resident bytes while generating one program's dataset.
pub fn per_program_bytes(trace_len: u64, num_configs: usize) -> u64 {
    trace_len * (NUM_FEATURES as u64 + num_configs as u64) * 4 * BYTES_SAFETY_FACTOR
}

/// Detected core count (1 when detection fails).
pub fn detected_cores() -> usize {
    std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1)
}

/// Detected available memory in bytes: `MemAvailable` from
/// `/proc/meminfo` where present (Linux), `MemTotal / 2` as the next
/// resort, and a conservative 4 GiB when neither can be read.
pub fn available_memory_bytes() -> u64 {
    const FALLBACK: u64 = 4 << 30;
    let Ok(text) = std::fs::read_to_string("/proc/meminfo") else {
        return FALLBACK;
    };
    meminfo_available(&text).unwrap_or(FALLBACK)
}

/// Parse `MemAvailable` (preferred) or `MemTotal / 2` out of
/// `/proc/meminfo` text. Values there are in KiB.
fn meminfo_available(text: &str) -> Option<u64> {
    let field = |name: &str| -> Option<u64> {
        text.lines().find(|l| l.starts_with(name)).and_then(|l| {
            l.split_whitespace()
                .nth(1)
                .and_then(|v| v.parse::<u64>().ok())
                .map(|kib| kib * 1024)
        })
    };
    field("MemAvailable:").or_else(|| field("MemTotal:").map(|t| t / 2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_bounds_in_flight_by_memory() {
        // 1 GiB available, ~85 MB per program at the quick scale with
        // 77 machines: the 1/2 headroom budget admits ~6 in flight.
        let per = per_program_bytes(20_000, 77);
        let p = ShardPlan::auto_for(20_000, 77, 1 << 30, 64);
        assert_eq!(p.max_in_flight as u64, ((1u64 << 30) / 2) / per);
        assert!(p.max_in_flight >= 1);
        assert_eq!(p.min_parallel_misses, 64);
    }

    #[test]
    fn auto_goes_parallel_at_the_core_count() {
        // A two-core host with 16 GiB available: parallel from two
        // misses, two programs in flight.
        let two = ShardPlan::auto_for(20_000, 77, 16 << 30, 2);
        assert_eq!(
            two,
            ShardPlan {
                min_parallel_misses: 2,
                max_in_flight: 2,
            }
        );
        // A wide host stays per-machine parallel below 64 misses.
        let wide = ShardPlan::auto_for(20_000, 77, 16 << 30, 64);
        assert_eq!(wide.min_parallel_misses, 64);
        // One core still needs two misses to fan out at all.
        assert_eq!(
            ShardPlan::auto_for(20_000, 77, 16 << 30, 1).min_parallel_misses,
            2
        );
    }

    #[test]
    fn auto_never_exceeds_cores_and_never_hits_zero() {
        let wide = ShardPlan::auto_for(20_000, 77, u64::MAX / 4, 8);
        assert_eq!(wide.max_in_flight, 8);
        let tiny = ShardPlan::auto_for(60_000, 77, 1 << 20, 8);
        assert_eq!(tiny.max_in_flight, 1);
    }

    #[test]
    fn meminfo_parsing_prefers_available() {
        let text = "MemTotal:       16384000 kB\nMemFree:         1000000 kB\nMemAvailable:    8192000 kB\n";
        assert_eq!(meminfo_available(text), Some(8_192_000 * 1024));
        let no_avail = "MemTotal:       16384000 kB\nMemFree:         1000000 kB\n";
        assert_eq!(meminfo_available(no_avail), Some(16_384_000 * 1024 / 2));
        assert_eq!(meminfo_available("garbage"), None);
    }
}
