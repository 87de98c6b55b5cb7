//! Integration tests for the content-addressed dataset cache: cold/warm
//! equivalence, corruption recovery, and codec round-trips through the
//! exact write path the harness uses.

use perfvec_bench::cache::{workload_datasets, DatasetCache};
use perfvec_bench::shard::ShardPlan;
use perfvec_sim::sample::predefined_configs;
use perfvec_trace::binio;
use perfvec_trace::features::{FeatureMask, Matrix, NUM_FEATURES};
use perfvec_trace::ProgramData;
use perfvec_workloads::{suite, Workload};
use proptest::prelude::*;
use std::path::PathBuf;

/// A fresh, empty cache root unique to one test.
fn test_root(tag: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("perfvec-cache-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Small-but-real inputs: the whole Table II suite on 3 machines with
/// short traces, so every test exercises the genuine emulate → extract
/// → simulate path in well under a second per program.
fn small_inputs() -> (Vec<Workload>, u64, Vec<perfvec_sim::MicroArchConfig>) {
    (
        suite(),
        1_200,
        predefined_configs().into_iter().take(3).collect(),
    )
}

fn assert_same(a: &ProgramData, b: &ProgramData) {
    assert_eq!(a.name, b.name);
    assert_eq!(a.features, b.features, "{}: features differ", a.name);
    assert_eq!(a.targets, b.targets, "{}: targets differ", a.name);
}

#[test]
fn cold_run_misses_warm_run_hits_and_both_equal_fresh_generation() {
    let (workloads, trace_len, configs) = small_inputs();
    let root = test_root("equiv");
    let cache = DatasetCache::at(&root);

    let (cold, s_cold) = workload_datasets(
        &cache,
        &workloads,
        trace_len,
        &configs,
        FeatureMask::Full,
        ShardPlan::auto(trace_len, configs.len()),
    );
    assert_eq!(s_cold.hits, 0);
    assert_eq!(s_cold.misses, workloads.len());

    let (warm, s_warm) = workload_datasets(
        &cache,
        &workloads,
        trace_len,
        &configs,
        FeatureMask::Full,
        ShardPlan::auto(trace_len, configs.len()),
    );
    assert_eq!(s_warm.hits, workloads.len(), "second run must be all hits");
    assert_eq!(s_warm.misses, 0);

    let (fresh, s_off) = workload_datasets(
        &DatasetCache::disabled(),
        &workloads,
        trace_len,
        &configs,
        FeatureMask::Full,
        ShardPlan::auto(trace_len, configs.len()),
    );
    assert!(!s_off.enabled);

    for ((c, w), f) in cold.iter().zip(&warm).zip(&fresh) {
        assert_same(c, w);
        assert_same(c, f);
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn corrupt_and_truncated_entries_are_regenerated_with_identical_results() {
    let (workloads, trace_len, configs) = small_inputs();
    let root = test_root("corrupt");
    let cache = DatasetCache::at(&root);

    let (original, _) = workload_datasets(
        &cache,
        &workloads,
        trace_len,
        &configs,
        FeatureMask::Full,
        ShardPlan::auto(trace_len, configs.len()),
    );

    // Vandalize two entries: one overwritten with garbage, one truncated
    // mid-payload (a crash-mid-write shape the atomic rename prevents,
    // but bit rot can still produce).
    let p0 = cache
        .entry_path(&workloads[0].name, trace_len, &configs, FeatureMask::Full)
        .unwrap();
    std::fs::write(&p0, b"not a dataset at all").unwrap();
    let p1 = cache
        .entry_path(&workloads[1].name, trace_len, &configs, FeatureMask::Full)
        .unwrap();
    let bytes = std::fs::read(&p1).unwrap();
    std::fs::write(&p1, &bytes[..bytes.len() / 2]).unwrap();

    let (recovered, stats) = workload_datasets(
        &cache,
        &workloads,
        trace_len,
        &configs,
        FeatureMask::Full,
        ShardPlan::auto(trace_len, configs.len()),
    );
    assert_eq!(
        stats.recovered, 2,
        "both vandalized entries must be detected"
    );
    assert_eq!(stats.misses, 2);
    assert_eq!(stats.hits, workloads.len() - 2);
    for (r, o) in recovered.iter().zip(&original) {
        assert_same(r, o);
    }

    // The bad entries were overwritten in place: a third run is all hits.
    let (_, s3) = workload_datasets(
        &cache,
        &workloads,
        trace_len,
        &configs,
        FeatureMask::Full,
        ShardPlan::auto(trace_len, configs.len()),
    );
    assert_eq!(s3.hits, workloads.len());
    assert_eq!(s3.recovered, 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_mix_of_hits_and_bad_entries_counts_and_loads_the_same_under_every_plan() {
    let (workloads, trace_len, configs) = small_inputs();
    let root = test_root("mix");
    let cache = DatasetCache::at(&root);
    let fetch = |plan: ShardPlan| {
        workload_datasets(
            &cache,
            &workloads,
            trace_len,
            &configs,
            FeatureMask::Full,
            plan,
        )
    };
    let sequential = ShardPlan {
        min_parallel_misses: usize::MAX,
        max_in_flight: 1,
    };
    let (original, _) = fetch(sequential);
    let path = |i: usize| {
        cache
            .entry_path(&workloads[i].name, trace_len, &configs, FeatureMask::Full)
            .unwrap()
    };
    // Entry 0 absent, 1 truncated, 2 with a garbage header (its payload
    // intact), the rest hits.
    let vandalize = || {
        std::fs::remove_file(path(0)).unwrap();
        let bytes = std::fs::read(path(1)).unwrap();
        std::fs::write(path(1), &bytes[..bytes.len() - 9]).unwrap();
        let mut bytes = std::fs::read(path(2)).unwrap();
        bytes[..4].copy_from_slice(b"JUNK");
        std::fs::write(path(2), bytes).unwrap();
    };

    for plan in [
        sequential,
        ShardPlan {
            min_parallel_misses: 2,
            max_in_flight: 2,
        },
        ShardPlan {
            min_parallel_misses: 2,
            max_in_flight: 3,
        },
        ShardPlan::auto(trace_len, configs.len()),
    ] {
        vandalize();
        let (got, s) = fetch(plan);
        assert_eq!(
            (s.hits, s.misses, s.recovered),
            (workloads.len() - 3, 3, 2),
            "{plan:?}"
        );
        for (g, o) in got.iter().zip(&original) {
            assert_same(g, o);
        }
        // Every bad entry was republished.
        let (_, s) = fetch(plan);
        assert_eq!((s.hits, s.misses), (workloads.len(), 0), "{plan:?}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn changing_any_key_ingredient_misses_instead_of_serving_stale_data() {
    let (workloads, trace_len, configs) = small_inputs();
    let few: Vec<Workload> = workloads.into_iter().take(2).collect();
    let root = test_root("keys");
    let cache = DatasetCache::at(&root);

    let (_, s) = workload_datasets(
        &cache,
        &few,
        trace_len,
        &configs,
        FeatureMask::Full,
        ShardPlan::auto(trace_len, configs.len()),
    );
    assert_eq!(s.misses, 2);

    // Different trace length → different content → no hits.
    let (_, s) = workload_datasets(
        &cache,
        &few,
        trace_len / 2,
        &configs,
        FeatureMask::Full,
        ShardPlan::auto(trace_len, configs.len()),
    );
    assert_eq!(s.hits, 0);
    // Different machine population → no hits.
    let (_, s) = workload_datasets(
        &cache,
        &few,
        trace_len,
        &configs[..2],
        FeatureMask::Full,
        ShardPlan::auto(trace_len, configs.len()),
    );
    assert_eq!(s.hits, 0);
    // Different feature mask → no hits.
    let (_, s) = workload_datasets(
        &cache,
        &few,
        trace_len,
        &configs,
        FeatureMask::NoMemBranch,
        ShardPlan::auto(trace_len, configs.len()),
    );
    assert_eq!(s.hits, 0);
    // Original tuple still hits.
    let (_, s) = workload_datasets(
        &cache,
        &few,
        trace_len,
        &configs,
        FeatureMask::Full,
        ShardPlan::auto(trace_len, configs.len()),
    );
    assert_eq!(s.hits, 2);
    let _ = std::fs::remove_dir_all(&root);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary datasets survive the cache's publish → load path
    /// bit-identically (encode, atomic rename, read back, decode).
    #[test]
    fn publish_then_load_is_bit_identical(
        rows in 0usize..40,
        marches in 1usize..9,
        feat_seed in prop::collection::vec(-1.0e6f32..1.0e6, 1..64),
        tgt_seed in prop::collection::vec(0.0f32..1.0e4, 1..64),
        name_tag in 0u32..1000,
    ) {
        let mut features = Matrix::zeros(rows, NUM_FEATURES);
        for (i, v) in features.data.iter_mut().enumerate() {
            *v = feat_seed[i % feat_seed.len()] * ((i % 7) as f32 - 3.0);
        }
        let mut targets = Matrix::zeros(rows, marches);
        for (i, v) in targets.data.iter_mut().enumerate() {
            *v = tgt_seed[i % tgt_seed.len()] + i as f32;
        }
        let d = ProgramData { name: format!("prog-{name_tag}.kernel"), features, targets };

        let root = test_root(&format!("prop-{name_tag}-{rows}-{marches}"));
        let cache = DatasetCache::at(&root);
        let path = root.join("entry.pvd");
        cache.publish(&path, &d).expect("publish");
        let back = binio::load_program_data(&path).expect("load");
        prop_assert_eq!(&back.name, &d.name);
        prop_assert_eq!(back.features.data, d.features.data);
        prop_assert_eq!(back.targets.data, d.targets.data);

        // No temporary files may remain after publication.
        let leftovers: Vec<_> = std::fs::read_dir(&root)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        prop_assert!(leftovers.is_empty(), "leftover tmp files: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&root);
    }
}
