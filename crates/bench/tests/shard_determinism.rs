//! A [`ShardPlan`] is a scheduling decision, never a semantic one: the
//! dataset bytes produced by cold grid generation must be identical for
//! every plan — sequential, one all-at-once wave, and memory-bounded
//! waves of any width (which is what [`ShardPlan::auto`] picks based on
//! the machine it lands on). This is what makes the adaptive schedule
//! safe on hosts of any shape: the content-addressed cache keys stay
//! valid and recorded experiment numbers never move.

use perfvec_bench::cache::{workload_datasets, DatasetCache};
use perfvec_bench::shard::ShardPlan;
use perfvec_sim::sample::predefined_configs;
use perfvec_trace::binio;
use perfvec_trace::features::FeatureMask;
use perfvec_workloads::{suite, Workload};

/// Encoded bytes of every dataset generated cold (cache disabled, so
/// each call is a full regeneration) under `plan`.
fn generated_bytes(plan: ShardPlan) -> Vec<Vec<u8>> {
    let workloads: Vec<Workload> = suite().into_iter().take(6).collect();
    let configs: Vec<_> = predefined_configs().into_iter().take(3).collect();
    let (data, stats) = workload_datasets(
        &DatasetCache::disabled(),
        &workloads,
        1_000,
        &configs,
        FeatureMask::Full,
        plan,
    );
    assert_eq!(
        stats.misses,
        workloads.len(),
        "disabled cache must regenerate everything"
    );
    data.iter().map(binio::encode_program_data).collect()
}

#[test]
fn every_shard_plan_generates_byte_identical_datasets() {
    // Strictly sequential (parallel threshold unreachable).
    let sequential = generated_bytes(ShardPlan {
        min_parallel_misses: usize::MAX,
        max_in_flight: 1,
    });
    // One parallel_map over all misses (a single wave).
    let single_wave = generated_bytes(ShardPlan {
        min_parallel_misses: 2,
        max_in_flight: usize::MAX,
    });
    // Memory-starved auto: one program in flight at a time.
    let narrow = generated_bytes(ShardPlan {
        min_parallel_misses: 2,
        max_in_flight: 1,
    });
    // Waves of two, then an odd tail wave.
    let waves2 = generated_bytes(ShardPlan {
        min_parallel_misses: 2,
        max_in_flight: 2,
    });
    // Whatever this machine's detected RAM/cores produce.
    let auto = generated_bytes(ShardPlan::auto(1_000, 3));

    for (name, other) in [
        ("single_wave", &single_wave),
        ("narrow", &narrow),
        ("waves2", &waves2),
        ("auto", &auto),
    ] {
        assert_eq!(
            sequential.len(),
            other.len(),
            "{name}: dataset count differs from sequential"
        );
        for (i, (a, b)) in sequential.iter().zip(other).enumerate() {
            assert!(
                a == b,
                "{name}: dataset {i} differs from sequential generation — a ShardPlan \
                 changed the produced bytes"
            );
        }
    }
}
