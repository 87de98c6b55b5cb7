//! A [`ShardPlan`] is a scheduling decision, never a semantic one: the
//! dataset bytes produced by cold grid generation must be identical for
//! every plan — sequential, one worker per miss, and memory-bounded
//! worker counts of any width (which is what [`ShardPlan::auto`] picks
//! based on the machine it lands on). This is what makes the adaptive
//! schedule safe on hosts of any shape: the content-addressed cache
//! keys stay valid and recorded experiment numbers never move.

use perfvec_bench::cache::{workload_datasets, DatasetCache};
use perfvec_bench::shard::ShardPlan;
use perfvec_isa::{ProgramBuilder, Reg};
use perfvec_sim::sample::predefined_configs;
use perfvec_trace::binio;
use perfvec_trace::features::FeatureMask;
use perfvec_workloads::{suite, SuiteRole, Workload};

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
    // As many workers as misses.
    let unbounded = generated_bytes(ShardPlan {
        min_parallel_misses: 2,
        max_in_flight: usize::MAX,
    });
    // Memory-starved auto: one program in flight at a time.
    let narrow = generated_bytes(ShardPlan {
        min_parallel_misses: 2,
        max_in_flight: 1,
    });
    // Two workers, then three, over six programs.
    let two = generated_bytes(ShardPlan {
        min_parallel_misses: 2,
        max_in_flight: 2,
    });
    let three = generated_bytes(ShardPlan {
        min_parallel_misses: 2,
        max_in_flight: 3,
    });
    // Whatever this machine's detected RAM/cores produce.
    let auto = generated_bytes(ShardPlan::auto(1_000, 3));

    for (name, other) in [
        ("unbounded", &unbounded),
        ("narrow", &narrow),
        ("two", &two),
        ("three", &three),
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

/// A program that counts to `iters` and halts: a few dozen instructions
/// at most, far cheaper than any suite kernel.
fn counter(iters: i64) -> Workload {
    let mut b = ProgramBuilder::new().with_name(format!("count-to-{iters}"));
    let i = Reg::x(1);
    b.li(i, 0);
    let top = b.label();
    b.addi(i, i, 1);
    b.blt_imm(i, iters, top);
    b.halt();
    Workload::external(b.build(), SuiteRole::Testing)
}

/// Suite kernels interleaved with tiny external programs, so workers
/// finish their programs at very different times.
fn uneven_workloads() -> Vec<Workload> {
    let mut kernels = suite().into_iter();
    let mut ws = Vec::new();
    for iters in [3, 17, 40] {
        ws.extend(kernels.by_ref().take(2));
        ws.push(counter(iters));
    }
    ws
}

#[test]
fn queued_workers_publish_every_miss_and_keep_workload_order() {
    let workloads = uneven_workloads();
    let configs: Vec<_> = predefined_configs().into_iter().take(3).collect();
    let trace_len = 1_500;
    let fetch = |cache: &DatasetCache, plan: ShardPlan| {
        workload_datasets(
            cache,
            &workloads,
            trace_len,
            &configs,
            FeatureMask::Full,
            plan,
        )
    };
    let (expected, _) = fetch(
        &DatasetCache::disabled(),
        ShardPlan {
            min_parallel_misses: usize::MAX,
            max_in_flight: 1,
        },
    );
    let expected: Vec<Vec<u8>> = expected.iter().map(binio::encode_program_data).collect();

    for max_in_flight in [2, 3] {
        let root = std::env::temp_dir().join(format!(
            "perfvec-queue-test-{}-{max_in_flight}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let cache = DatasetCache::at(&root);
        let plan = ShardPlan {
            min_parallel_misses: 2,
            max_in_flight,
        };

        let (cold, s) = fetch(&cache, plan);
        assert_eq!((s.hits, s.misses, s.recovered), (0, workloads.len(), 0));
        for (i, (w, d)) in workloads.iter().zip(&cold).enumerate() {
            assert_eq!(
                d.name, w.name,
                "{max_in_flight} workers: slot {i} out of order"
            );
            let bytes = binio::encode_program_data(d);
            assert!(
                bytes == expected[i],
                "{max_in_flight} workers: {} differs from sequential generation",
                w.name
            );
            // External entries are keyed by content under the fixed
            // stem `external`.
            let stem = match w.external_program() {
                Some(_) => "external",
                None => w.name.as_str(),
            };
            let key = DatasetCache::workload_key(w, trace_len, &configs, FeatureMask::Full);
            let path = cache.path_for_key(stem, key).unwrap();
            let published = std::fs::read(&path)
                .unwrap_or_else(|e| panic!("{}: not published: {e}", path.display()));
            assert!(published == bytes, "{}: published bytes differ", w.name);
        }
        let names: Vec<String> = std::fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), workloads.len(), "{names:?}");
        assert!(names.iter().all(|n| n.ends_with(".pvd")), "{names:?}");

        let (warm, s) = fetch(&cache, plan);
        assert_eq!((s.hits, s.misses, s.recovered), (workloads.len(), 0, 0));
        for ((w, c), d) in workloads.iter().zip(&cold).zip(&warm) {
            assert_eq!(d.name, w.name);
            assert!(
                d.features == c.features && d.targets == c.targets,
                "{}: warm reload differs from cold",
                w.name
            );
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}
