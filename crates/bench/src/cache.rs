//! Content-addressed on-disk cache for simulation datasets.
//!
//! Regenerating the 17-program × 77-microarchitecture dataset grid
//! dominates every harness run, yet the grid is a pure function of
//! (program, trace length, machine configurations, feature mask, codec
//! version). This module makes that function memoizable across
//! processes: each per-program dataset is stored via the
//! [`perfvec_trace::binio`] codecs in a directory of entries whose file
//! names embed a stable [`Fingerprint`] of everything that determines
//! their bytes. Consequences of content addressing:
//!
//! - **Invalidation is automatic.** Changing the scale, the machine
//!   population, the feature mask, or the codec version changes the
//!   key, so stale entries are never read — they are simply never
//!   looked up again (prune the directory whenever you like).
//! - **Publication is atomic.** Entries are written to a unique
//!   temporary file and `rename`d into place, so concurrent harness
//!   runs sharing a cache directory never observe half-written files;
//!   the worst case is two processes racing to publish identical bytes.
//! - **Corruption is survivable.** A truncated, spliced, or otherwise
//!   undecodable entry is logged, regenerated, and overwritten; it
//!   never aborts the run (see the `BinError` guarantees in
//!   `perfvec_trace::binio`).
//!
//! The cache root comes from `PERFVEC_CACHE_DIR` (default
//! `target/perfvec-cache`); `perfvec run --no-cache` — or
//! `PERFVEC_NO_CACHE=1` — bypasses it entirely (see
//! [`crate::spec::ExperimentSpec::dataset_cache`]).

use crate::shard::ShardPlan;
use perfvec::data::build_program_data;
use perfvec_ml::parallel::parallel_map;
use perfvec_sim::MicroArchConfig;
use perfvec_trace::binio::{self, CODEC_VERSION};
use perfvec_trace::features::{FeatureMask, NUM_FEATURES};
use perfvec_trace::fingerprint::{program_fingerprint, Fingerprint};
use perfvec_trace::ProgramData;
use perfvec_workloads::Workload;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Version of the dataset-generation pipeline itself (emulator →
/// feature extraction → simulator). The codec version only tracks the
/// *byte format*; this constant tracks the *semantics* of what gets
/// simulated. Bump it whenever a change to `crates/isa`, `crates/trace`
/// feature extraction, `crates/sim` timing, or the workload kernels
/// alters generated datasets — every cache key changes and stale
/// entries are never read again.
pub const GENERATOR_VERSION: u32 = 2;

/// Hit/miss accounting for one dataset batch, shown in the `[figN]`
/// progress lines.
#[derive(Debug, Clone, Copy)]
pub struct CacheStats {
    /// Entries served from disk.
    pub hits: usize,
    /// Entries generated by simulation (includes recovered ones).
    pub misses: usize,
    /// Misses caused by a corrupt on-disk entry that was regenerated
    /// and overwritten.
    pub recovered: usize,
    /// False when the cache was bypassed (`--no-cache`).
    pub enabled: bool,
}

impl Default for CacheStats {
    fn default() -> Self {
        CacheStats {
            hits: 0,
            misses: 0,
            recovered: 0,
            enabled: true,
        }
    }
}

impl CacheStats {
    /// Fold another batch's stats into this one.
    pub fn absorb(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.recovered += other.recovered;
        self.enabled &= other.enabled;
    }

    /// One-line human summary for progress output.
    pub fn summary(&self) -> String {
        if !self.enabled {
            return "cache: disabled".to_string();
        }
        let mut s = format!("cache: {} hits, {} misses", self.hits, self.misses);
        if self.recovered > 0 {
            s.push_str(&format!(", {} corrupt entries regenerated", self.recovered));
        }
        s
    }
}

/// What [`DatasetCache::load`] found at an entry path.
enum LoadOutcome {
    /// Valid entry with the expected identity and shape.
    Hit(Box<ProgramData>),
    /// No file (plain miss).
    Absent,
    /// Unreadable/undecodable/mismatched file — regenerate it.
    Corrupt,
}

static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Whether `PERFVEC_NO_CACHE` vetoes the cache: non-empty and not
/// `"0"`. The single home of that convention.
pub fn env_no_cache() -> bool {
    std::env::var("PERFVEC_NO_CACHE")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// The cache root: `PERFVEC_CACHE_DIR`, falling back to
/// `target/perfvec-cache`. Likewise the single home of the default.
pub fn default_root() -> String {
    std::env::var("PERFVEC_CACHE_DIR")
        .ok()
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "target/perfvec-cache".to_string())
}

/// A content-addressed dataset cache rooted at one directory, or the
/// disabled cache that generates everything fresh.
pub struct DatasetCache {
    root: Option<PathBuf>,
}

impl DatasetCache {
    /// A cache rooted at an explicit directory (tests, tools).
    pub fn at(root: impl Into<PathBuf>) -> DatasetCache {
        DatasetCache {
            root: Some(root.into()),
        }
    }

    /// The no-op cache: every lookup misses, nothing is stored.
    pub fn disabled() -> DatasetCache {
        DatasetCache { root: None }
    }

    /// Whether lookups can ever hit.
    pub fn is_enabled(&self) -> bool {
        self.root.is_some()
    }

    /// Content key for one program's dataset: a fingerprint of every
    /// input that determines its bytes.
    pub fn entry_key(
        name: &str,
        trace_len: u64,
        configs: &[MicroArchConfig],
        mask: FeatureMask,
    ) -> u64 {
        let mut h = Fingerprint::new();
        h.push_str("perfvec-dataset");
        h.push_u32(CODEC_VERSION);
        h.push_u32(GENERATOR_VERSION);
        h.push_u64(NUM_FEATURES as u64);
        h.push_str(name);
        h.push_u64(trace_len);
        h.push_u8(match mask {
            FeatureMask::Full => 0,
            FeatureMask::NoMemBranch => 1,
        });
        h.push_u64(configs.len() as u64);
        for c in configs {
            c.hash_into(&mut h);
        }
        h.finish()
    }

    /// Content key for an *external* program's dataset. Unlike
    /// [`DatasetCache::entry_key`], the program is identified by a
    /// fingerprint of its encoded content ([`program_fingerprint`]) —
    /// never by name — so renaming a `.pasm` file neither invalidates
    /// its entry nor lets two different programs share one.
    pub fn entry_key_external(
        program: &perfvec_isa::Program,
        trace_len: u64,
        configs: &[MicroArchConfig],
        mask: FeatureMask,
    ) -> u64 {
        let mut h = Fingerprint::new();
        h.push_str("perfvec-dataset-external");
        h.push_u32(CODEC_VERSION);
        h.push_u32(GENERATOR_VERSION);
        h.push_u64(NUM_FEATURES as u64);
        h.push_u64(program_fingerprint(program));
        h.push_u64(trace_len);
        h.push_u8(match mask {
            FeatureMask::Full => 0,
            FeatureMask::NoMemBranch => 1,
        });
        h.push_u64(configs.len() as u64);
        for c in configs {
            c.hash_into(&mut h);
        }
        h.finish()
    }

    /// Content key for either kind of workload: builtins key by name
    /// (the registry guarantees a name names one kernel), externals by
    /// program content.
    pub fn workload_key(
        w: &Workload,
        trace_len: u64,
        configs: &[MicroArchConfig],
        mask: FeatureMask,
    ) -> u64 {
        match w.external_program() {
            Some(p) => Self::entry_key_external(p, trace_len, configs, mask),
            None => Self::entry_key(&w.name, trace_len, configs, mask),
        }
    }

    /// On-disk path for a (display name, content key) pair, or `None`
    /// when the cache is disabled. The file name pairs a sanitized
    /// program name (readability) with the content key (correctness).
    pub fn path_for_key(&self, name: &str, key: u64) -> Option<PathBuf> {
        let root = self.root.as_ref()?;
        let sane: String = name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_') {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        Some(root.join(format!("{sane}-{key:016x}.pvd")))
    }

    /// On-disk path of a name-keyed entry, or `None` when the cache is
    /// disabled.
    pub fn entry_path(
        &self,
        name: &str,
        trace_len: u64,
        configs: &[MicroArchConfig],
        mask: FeatureMask,
    ) -> Option<PathBuf> {
        let key = Self::entry_key(name, trace_len, configs, mask);
        self.path_for_key(name, key)
    }

    /// Atomically publish one dataset at `path`: stream it into a
    /// unique temporary sibling, then `rename` over the target, so
    /// concurrent readers only ever see absent or complete entries.
    pub fn publish(&self, path: &Path, d: &ProgramData) -> std::io::Result<()> {
        write_atomically(path, |file| binio::write_program_data(file, d))
    }

    /// Load and validate one entry. Decode failures and shape/identity
    /// mismatches are downgraded to `Corrupt` — the caller regenerates.
    /// `expect_name` is `None` for content-keyed external entries,
    /// whose stored name is advisory (the key already pins the
    /// program's content, and the caller restores its display name).
    fn load(&self, path: &Path, expect_name: Option<&str>, num_marches: usize) -> LoadOutcome {
        let opened = std::fs::File::open(path).and_then(|f| Ok((f.metadata()?.len(), f)));
        let (len, mut file) = match opened {
            Ok(found) => found,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return LoadOutcome::Absent,
            Err(e) => {
                perfvec_obs::warn!(
                    "cache",
                    "[cache] unreadable entry {}: {e}; regenerating",
                    path.display()
                );
                return LoadOutcome::Corrupt;
            }
        };
        match binio::read_program_data(&mut file, len) {
            Ok(d)
                if expect_name.is_none_or(|n| d.name == n)
                    && d.features.cols == NUM_FEATURES
                    && d.targets.cols == num_marches =>
            {
                LoadOutcome::Hit(Box::new(d))
            }
            Ok(_) => {
                perfvec_obs::warn!("cache", 
                    "[cache] entry {} decodes but does not match its key (stale or spliced); regenerating",
                    path.display()
                );
                LoadOutcome::Corrupt
            }
            Err(e) => {
                perfvec_obs::warn!(
                    "cache",
                    "[cache] corrupt entry {}: {e}; regenerating",
                    path.display()
                );
                LoadOutcome::Corrupt
            }
        }
    }
}

/// Create `path` atomically: `write` fills a unique temporary sibling,
/// which is then `rename`d over the target. On any failure after the
/// temporary file exists — in `write` or in the rename — it is removed.
fn write_atomically(
    path: &Path,
    write: impl FnOnce(&mut std::fs::File) -> std::io::Result<()>,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}.{seq}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let mut file = std::fs::File::create(&tmp)?;
    let written = write(&mut file);
    drop(file);
    let published = written.and_then(|()| std::fs::rename(&tmp, path));
    if published.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    published
}

/// Run `job(k)` for every `k` in `0..n` on at most `workers` threads,
/// each taking the next index as soon as its previous job finishes, and
/// return the results in index order. With one worker (or one core)
/// the jobs run in order on the calling thread, which keeps its own
/// nested parallelism; spawned workers run nested parallel regions
/// sequentially (see `perfvec_ml::parallel::in_parallel_worker`).
fn bounded_queue<T: Send>(
    n: usize,
    workers: usize,
    job: impl Fn(usize) -> T + Sync + Send,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = parallel_map(workers.clamp(1, n.max(1)), |_| {
        let mut mine = Vec::new();
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= n {
                return mine;
            }
            mine.push((k, job(k)));
        }
    })
    .into_iter()
    .flatten()
    .collect();
    done.sort_unstable_by_key(|&(k, _)| k);
    done.into_iter().map(|(_, t)| t).collect()
}

/// Fetch-or-generate datasets for `workloads` on `configs`, preserving
/// workload order. `plan` decides how misses are scheduled (see
/// [`ShardPlan`]); it never changes the produced bytes.
///
/// Every workload's entry is looked up and, when present, streamed in
/// through the binio codec, all in one `parallel_map`; the stats are
/// then counted in workload order. Misses re-run the emulate → extract
/// → simulate pipeline, and each is published atomically by the worker
/// that generated it, as soon as it is done. With at least
/// `plan.min_parallel_misses` misses, generation parallelizes *per
/// program*: up to `plan.max_in_flight` workers each take the next miss
/// as soon as their last one is published, so no more than that many
/// programs are ever in generation and no core waits for a slower
/// program to finish (the nested per-machine parallelism inside
/// [`build_program_data`] runs sequentially inside a worker). With
/// fewer misses, programs are generated one at a time, each with
/// per-machine parallelism, which saturates the cores on a single
/// program. Either way a run killed mid-generation leaves every
/// finished program cached.
pub fn workload_datasets(
    cache: &DatasetCache,
    workloads: &[Workload],
    trace_len: u64,
    configs: &[MicroArchConfig],
    mask: FeatureMask,
    plan: ShardPlan,
) -> (Vec<ProgramData>, CacheStats) {
    let looked_up = parallel_map(workloads.len(), |i| {
        let w = &workloads[i];
        let key = DatasetCache::workload_key(w, trace_len, configs, mask);
        // External entries are pinned by content, not name: the file
        // stem is fixed and the stored name is advisory, so renaming a
        // `.pasm` file still hits (the display name is restored below).
        let expect_name = match w.external_program() {
            Some(_) => None,
            None => Some(w.name.as_str()),
        };
        let path = cache.path_for_key(expect_name.unwrap_or("external"), key);
        let found = path
            .as_ref()
            .map(|p| cache.load(p, expect_name, configs.len()));
        (path, found)
    });

    let mut stats = CacheStats {
        enabled: cache.is_enabled(),
        ..CacheStats::default()
    };
    let mut slots: Vec<Option<ProgramData>> = Vec::with_capacity(workloads.len());
    let mut paths: Vec<Option<PathBuf>> = Vec::with_capacity(workloads.len());
    for (w, (path, found)) in workloads.iter().zip(looked_up) {
        let slot = match found {
            Some(LoadOutcome::Hit(mut d)) => {
                stats.hits += 1;
                d.name = w.name.clone();
                Some(*d)
            }
            Some(LoadOutcome::Corrupt) => {
                stats.misses += 1;
                stats.recovered += 1;
                None
            }
            Some(LoadOutcome::Absent) | None => {
                stats.misses += 1;
                None
            }
        };
        paths.push(path);
        slots.push(slot);
    }

    let miss_idx: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_none())
        .map(|(i, _)| i)
        .collect();
    let workers = if miss_idx.len() >= plan.min_parallel_misses.max(2) {
        plan.max_in_flight
    } else {
        1
    };
    let generated = bounded_queue(miss_idx.len(), workers, |k| {
        let i = miss_idx[k];
        let w = &workloads[i];
        let d = build_program_data(&w.name, &w.trace(trace_len), configs, mask);
        if let Some(path) = &paths[i] {
            // Best effort: a full disk or read-only cache dir costs
            // the speedup, never the run.
            if let Err(e) = cache.publish(path, &d) {
                perfvec_obs::warn!("cache", "[cache] failed to publish {}: {e}", path.display());
            }
        }
        d
    });
    for (&i, d) in miss_idx.iter().zip(generated) {
        slots[i] = Some(d);
    }
    (
        slots.into_iter().map(|s| s.expect("filled")).collect(),
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfvec_sim::sample::predefined_configs;

    #[test]
    fn entry_key_separates_every_input() {
        let configs = predefined_configs();
        let base = DatasetCache::entry_key("a", 1000, &configs, FeatureMask::Full);
        assert_eq!(
            base,
            DatasetCache::entry_key("a", 1000, &configs, FeatureMask::Full)
        );
        assert_ne!(
            base,
            DatasetCache::entry_key("b", 1000, &configs, FeatureMask::Full)
        );
        assert_ne!(
            base,
            DatasetCache::entry_key("a", 2000, &configs, FeatureMask::Full)
        );
        assert_ne!(
            base,
            DatasetCache::entry_key("a", 1000, &configs, FeatureMask::NoMemBranch)
        );
        assert_ne!(
            base,
            DatasetCache::entry_key("a", 1000, &configs[..6], FeatureMask::Full)
        );
        let mut tweaked = configs.clone();
        tweaked[3].l2.size_bytes *= 2;
        assert_ne!(
            base,
            DatasetCache::entry_key("a", 1000, &tweaked, FeatureMask::Full)
        );
    }

    #[test]
    fn disabled_cache_has_no_paths() {
        let c = DatasetCache::disabled();
        assert!(!c.is_enabled());
        assert!(c
            .entry_path("x", 10, &predefined_configs(), FeatureMask::Full)
            .is_none());
    }

    #[test]
    fn a_failed_write_leaves_no_temporary_file() {
        let root =
            std::env::temp_dir().join(format!("perfvec-publish-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let path = root.join("entry.pvd");
        let leftovers = || std::fs::read_dir(&root).unwrap().count();
        // The write fails after the temporary file exists.
        let err = write_atomically(&path, |f| {
            use std::io::Write;
            f.write_all(b"half an entry")?;
            Err(std::io::Error::other("disk full"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "disk full");
        assert_eq!(leftovers(), 0);
        // The rename fails: the target is a non-empty directory.
        std::fs::create_dir_all(path.join("occupied")).unwrap();
        assert!(write_atomically(&path, |_| Ok(())).is_err());
        assert_eq!(leftovers(), 1, "only the directory in the way remains");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn bounded_queue_keeps_order_and_the_in_flight_bound() {
        use std::sync::atomic::AtomicUsize;
        for workers in [1, 2, 3, 8] {
            let (running, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let out = bounded_queue(11, workers, |k| {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                // Unequal job lengths, so workers drift apart.
                std::thread::sleep(std::time::Duration::from_millis((k % 3) as u64 * 2));
                running.fetch_sub(1, Ordering::SeqCst);
                k * k
            });
            assert_eq!(out, (0..11).map(|k| k * k).collect::<Vec<_>>());
            assert!(peak.into_inner() <= workers, "{workers} workers");
        }
        assert!(bounded_queue(0, 2, |k| k).is_empty());
    }

    #[test]
    fn stats_summary_reads_naturally() {
        let s = CacheStats {
            hits: 17,
            misses: 0,
            recovered: 0,
            enabled: true,
        };
        assert_eq!(s.summary(), "cache: 17 hits, 0 misses");
        let s = CacheStats {
            hits: 16,
            misses: 1,
            recovered: 1,
            enabled: true,
        };
        assert_eq!(
            s.summary(),
            "cache: 16 hits, 1 misses, 1 corrupt entries regenerated"
        );
        let s = CacheStats {
            enabled: false,
            ..CacheStats::default()
        };
        assert_eq!(s.summary(), "cache: disabled");
    }
}
