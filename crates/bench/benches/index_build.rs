//! Criterion micro-bench behind Figure 5(b) / Table 2: `BuildIndex` time per
//! scheme as the dataset grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use rsse_core::schemes::log_brc_urc::LogScheme;
use rsse_core::schemes::{AnyScheme, SchemeKind};
use rsse_core::{RangeScheme, StorageConfig};
use rsse_workload::{gowalla_like, usps_like};
use std::time::Duration;

/// Shard-bit settings tracked by the PR 2 sharding benches.
const SHARD_BITS: [u32; 3] = [0, 4, 8];

fn bench_index_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_build_gowalla");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    for &n in &[1_000usize, 4_000] {
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let dataset = gowalla_like(n, 1 << 20, &mut rng);
        for kind in [
            SchemeKind::ConstantBrc,
            SchemeKind::LogarithmicBrc,
            SchemeKind::LogarithmicSrc,
            SchemeKind::LogarithmicSrcI,
            SchemeKind::Pb,
        ] {
            group.bench_with_input(BenchmarkId::new(kind.name(), n), &dataset, |b, dataset| {
                b.iter(|| {
                    let mut build_rng = ChaCha20Rng::seed_from_u64(7);
                    AnyScheme::build(kind, dataset, &mut build_rng)
                });
            });
        }
    }
    group.finish();

    // The 100k-record uniform dataset is the PR-gating perf target (see
    // BENCH_pr1.json): Constant covers the DPRF+SSE hot path, SRC covers the
    // replicated TDAG-keyword path with ~n·log m index entries.
    let mut group = c.benchmark_group("index_build_100k");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    let mut rng = ChaCha20Rng::seed_from_u64(5);
    let dataset = gowalla_like(100_000, 1 << 20, &mut rng);
    for kind in [SchemeKind::ConstantBrc, SchemeKind::LogarithmicSrc] {
        group.bench_function(kind.name(), |b| {
            b.iter(|| {
                let mut build_rng = ChaCha20Rng::seed_from_u64(7);
                AnyScheme::build(kind, &dataset, &mut build_rng)
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("index_build_usps");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    let mut rng = ChaCha20Rng::seed_from_u64(2);
    let dataset = usps_like(2_000, 1 << 16, &mut rng);
    for kind in [SchemeKind::LogarithmicSrc, SchemeKind::LogarithmicSrcI] {
        group.bench_function(kind.name(), |b| {
            b.iter(|| {
                let mut build_rng = ChaCha20Rng::seed_from_u64(7);
                AnyScheme::build(kind, &dataset, &mut build_rng)
            });
        });
    }
    group.finish();
}

/// The PR 2 sharding target: the same 100k-record BuildIndex at
/// `k ∈ {0, 4, 8}` shard bits (see BENCH_pr2.json). `k = 0` is the PR 1
/// single-arena assembly; higher `k` replaces the final sequential arena
/// append with one independent assembly job per shard.
fn bench_index_build_sharded(c: &mut Criterion) {
    let ids = SHARD_BITS
        .iter()
        .map(|k| format!("index_build_sharded/Logarithmic-BRC/k{k}"));
    if !criterion::any_id_matches(ids) {
        return;
    }
    let mut rng = ChaCha20Rng::seed_from_u64(5);
    let dataset = gowalla_like(100_000, 1 << 20, &mut rng);
    let mut group = c.benchmark_group("index_build_sharded");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for &bits in &SHARD_BITS {
        group.bench_function(
            BenchmarkId::new("Logarithmic-BRC", format!("k{bits}")),
            |b| {
                b.iter(|| {
                    let mut build_rng = ChaCha20Rng::seed_from_u64(7);
                    LogScheme::build_stored(
                        &dataset,
                        &StorageConfig::in_memory(bits),
                        &mut build_rng,
                    )
                    .expect("in-memory build cannot fail")
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_index_build, bench_index_build_sharded);
criterion_main!(benches);
