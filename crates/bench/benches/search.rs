//! Criterion micro-bench behind Figure 7: server search time per scheme, on
//! a near-uniform and a skewed dataset, for a small and a large range.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use rsse_core::schemes::log_brc_urc::LogScheme;
use rsse_core::schemes::{AnyScheme, SchemeKind};
use rsse_core::{RangeScheme, StorageConfig};
use rsse_cover::Range;
use rsse_workload::{gowalla_like, usps_like};
use std::time::Duration;

/// Shard-bit settings tracked by the PR 2 sharding benches.
const SHARD_BITS: [u32; 3] = [0, 4, 8];

fn bench_search(c: &mut Criterion) {
    let mut rng = ChaCha20Rng::seed_from_u64(3);
    let domain_size = 1u64 << 16;
    let datasets = [
        ("gowalla", gowalla_like(4_000, domain_size, &mut rng)),
        ("usps", usps_like(4_000, domain_size, &mut rng)),
    ];
    let kinds = [
        SchemeKind::ConstantBrc,
        SchemeKind::LogarithmicBrc,
        SchemeKind::LogarithmicUrc,
        SchemeKind::LogarithmicSrc,
        SchemeKind::LogarithmicSrcI,
        SchemeKind::Pb,
    ];

    for (label, dataset) in &datasets {
        let schemes: Vec<AnyScheme> = kinds
            .iter()
            .map(|k| AnyScheme::build(*k, dataset, &mut rng))
            .collect();
        let mut group = c.benchmark_group(format!("search_{label}"));
        group
            .sample_size(10)
            .warm_up_time(Duration::from_millis(300))
            .measurement_time(Duration::from_secs(1));
        // 1% and 10% of the domain, placed mid-domain.
        for pct in [1u64, 10] {
            let len = domain_size * pct / 100;
            let lo = domain_size / 3;
            let query = Range::new(lo, lo + len - 1);
            for scheme in &schemes {
                group.bench_with_input(
                    BenchmarkId::new(scheme.name(), format!("{pct}%")),
                    &query,
                    |b, query| b.iter(|| scheme.query(*query)),
                );
            }
        }
        group.finish();
    }
}

/// The PR-gating perf target: search over a 100k-record uniform dataset
/// (see BENCH_pr1.json for the tracked before/after numbers).
fn bench_search_100k(c: &mut Criterion) {
    let kinds = [
        SchemeKind::ConstantBrc,
        SchemeKind::LogarithmicBrc,
        SchemeKind::LogarithmicSrc,
    ];
    // The setup (100k-record dataset + three index builds) dwarfs the
    // measurements; skip it entirely when BENCH_FILTER excludes the group.
    let ids = kinds
        .iter()
        .flat_map(|k| [1u64, 10].map(|pct| format!("search_100k/{}/{pct}%", k.name())));
    if !criterion::any_id_matches(ids) {
        return;
    }
    let mut rng = ChaCha20Rng::seed_from_u64(5);
    let domain_size = 1u64 << 20;
    let dataset = gowalla_like(100_000, domain_size, &mut rng);
    let schemes: Vec<AnyScheme> = kinds
        .iter()
        .map(|k| AnyScheme::build(*k, &dataset, &mut rng))
        .collect();
    let mut group = c.benchmark_group("search_100k");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for pct in [1u64, 10] {
        let len = domain_size * pct / 100;
        let lo = domain_size / 3;
        let query = Range::new(lo, lo + len - 1);
        for scheme in &schemes {
            group.bench_with_input(
                BenchmarkId::new(scheme.name(), format!("{pct}%")),
                &query,
                |b, query| b.iter(|| scheme.query(*query)),
            );
        }
    }
    group.finish();
}

/// The PR 2 sharding target: single-query search over the 100k-record
/// dataset at `k ∈ {0, 4, 8}` shard bits, plus the multi-client batched
/// path (see BENCH_pr2.json).
///
/// * `search_sharded/.../k{bits}` — one 1% range query, classic per-token
///   path, against a `2^bits`-way sharded dictionary.
/// * `search_batched/sequential/k0` — 32 concurrent client queries answered
///   one token at a time against the unsharded index: the PR 1 baseline.
/// * `search_batched/batched/k{bits}` — the same 32 queries through
///   `QueryServer::answer_many`: one lockstep pass per query with shared
///   label-PRF scratch, shard-grouped probes, and scratch-buffer
///   decryption.
fn bench_search_sharded(c: &mut Criterion) {
    let single_ids = SHARD_BITS
        .iter()
        .map(|k| format!("search_sharded/Logarithmic-BRC/k{k}"));
    let batched_ids = SHARD_BITS
        .iter()
        .map(|k| format!("search_batched/batched/k{k}"))
        .chain(["search_batched/sequential/k0".to_string()]);
    if !criterion::any_id_matches(single_ids.chain(batched_ids)) {
        return;
    }
    let mut rng = ChaCha20Rng::seed_from_u64(5);
    let domain_size = 1u64 << 20;
    let dataset = gowalla_like(100_000, domain_size, &mut rng);
    let builds: Vec<(u32, _, _)> = SHARD_BITS
        .iter()
        .map(|&bits| {
            let mut build_rng = ChaCha20Rng::seed_from_u64(7);
            let (client, server) =
                LogScheme::build_stored(&dataset, &StorageConfig::in_memory(bits), &mut build_rng)
                    .expect("in-memory build cannot fail");
            (bits, client, server)
        })
        .collect();

    // Single-query, per-token path at each sharding level.
    let len = domain_size / 100;
    let lo = domain_size / 3;
    let query = Range::new(lo, lo + len - 1);
    let mut group = c.benchmark_group("search_sharded");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for (bits, client, server) in &builds {
        group.bench_function(
            BenchmarkId::new("Logarithmic-BRC", format!("k{bits}")),
            |b| b.iter(|| client.query(server, query)),
        );
    }
    group.finish();

    // Multi-client batch: 32 queries of 1% each, drawn from the shared
    // workload generator so bench and replay-harness query populations
    // come from the same distribution.
    let ranges = rsse_workload::random_queries_of_len(
        dataset.domain(),
        len,
        32,
        &mut ChaCha20Rng::seed_from_u64(11),
    );
    let mut group = c.benchmark_group("search_batched");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    {
        // Baseline: the k=0 build queried one token at a time, query after
        // query — what a PR 1 server did for 32 concurrent clients.
        let (_, client, server) = &builds[0];
        group.bench_function(BenchmarkId::new("sequential", "k0"), |b| {
            b.iter(|| {
                ranges
                    .iter()
                    .map(|&range| client.query(server, range))
                    .collect::<Vec<_>>()
            })
        });
    }
    for (bits, client, server) in &builds {
        let query_server = server.clone().into_query_server();
        group.bench_function(BenchmarkId::new("batched", format!("k{bits}")), |b| {
            b.iter(|| {
                let queries: Vec<_> = ranges
                    .iter()
                    .filter_map(|&range| client.trapdoor(range))
                    .collect();
                query_server
                    .answer_many(&queries)
                    .into_iter()
                    .collect::<Result<Vec<_>, _>>()
                    .expect("in-memory server cannot fail")
            })
        });
    }
    group.finish();
}

/// The PR 3 persistence target: the file-backed storage engine serving the
/// 100k-record dataset (see BENCH_pr3.json).
///
/// * `search_persistent/cold_open/k4` — `QueryServer::open_dir` on a saved
///   `2^4`-shard index: manifest + shard-directory loads, no region bytes.
/// * `search_persistent/answer_many/file/k4` — 32 concurrent 1% queries on
///   the file-backed server (first iteration faults pages in; steady state
///   serves from the block cache).
/// * `search_persistent/answer_many/memory/k4` — the same batch on the
///   in-memory backend, for the paged-read overhead comparison.
fn bench_search_persistent(c: &mut Criterion) {
    use rsse_core::QueryServer;

    let ids = [
        "search_persistent/cold_open/k4".to_string(),
        "search_persistent/answer_many/file/k4".to_string(),
        "search_persistent/answer_many/memory/k4".to_string(),
    ];
    if !criterion::any_id_matches(ids) {
        return;
    }
    let mut rng = ChaCha20Rng::seed_from_u64(5);
    let domain_size = 1u64 << 20;
    let dataset = gowalla_like(100_000, domain_size, &mut rng);
    let dir = std::env::temp_dir().join(format!("rsse-bench-persistent-{}", std::process::id()));
    let bits = 4u32;

    let mut mem_rng = ChaCha20Rng::seed_from_u64(7);
    let (_, mem_server) =
        LogScheme::build_stored(&dataset, &StorageConfig::in_memory(bits), &mut mem_rng)
            .expect("in-memory build cannot fail");
    let mem_qs = mem_server.into_query_server();

    let mut disk_rng = ChaCha20Rng::seed_from_u64(7);
    let (client, disk_server) =
        LogScheme::build_stored(&dataset, &StorageConfig::on_disk(bits, &dir), &mut disk_rng)
            .expect("on-disk build");
    drop(disk_server); // cold-open measures a fresh process's path

    let len = domain_size / 100;
    let ranges = rsse_workload::random_queries_of_len(
        dataset.domain(),
        len,
        32,
        &mut ChaCha20Rng::seed_from_u64(11),
    );
    let queries: Vec<Vec<rsse_sse::SearchToken>> = ranges
        .iter()
        .map(|&r| client.trapdoor(r).expect("in-domain range"))
        .collect();

    let mut group = c.benchmark_group("search_persistent");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    group.bench_function(BenchmarkId::new("cold_open", format!("k{bits}")), |b| {
        b.iter(|| QueryServer::open_dir(&dir).expect("open saved index"))
    });
    let file_qs = QueryServer::open_dir(&dir).expect("open saved index");
    group.bench_function(
        BenchmarkId::new("answer_many/file", format!("k{bits}")),
        |b| {
            b.iter(|| {
                file_qs
                    .answer_many(&queries)
                    .into_iter()
                    .collect::<Result<Vec<_>, _>>()
                    .expect("healthy disk")
            })
        },
    );
    group.bench_function(
        BenchmarkId::new("answer_many/memory", format!("k{bits}")),
        |b| {
            b.iter(|| {
                mem_qs
                    .answer_many(&queries)
                    .into_iter()
                    .collect::<Result<Vec<_>, _>>()
                    .expect("in-memory")
            })
        },
    );
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The budgeted-residency target: serving latency of the file-backed
/// 100k-record index under block-cache budgets of {unbounded, 25%, 5%} of
/// the ciphertext-region size (see `StorageConfig::cache_budget`).
///
/// * `search_persistent_budget/answer_many/unbounded` — every touched
///   block stays resident (the pre-budget behavior and the baseline).
/// * `search_persistent_budget/answer_many/budget25` — residency capped at
///   25% of the region; the 32-query working set cycles through the clock
///   cache, so steady state mixes hits, misses and evictions.
/// * `search_persistent_budget/answer_many/budget5` — 5% cap; with ~64 KiB
///   blocks this approaches read-through (most probes re-read their
///   block), bounding the worst-case eviction overhead.
///
/// Query outcomes are identical across all three — only residency and
/// latency move.
fn bench_search_persistent_budget(c: &mut Criterion) {
    use rsse_core::QueryServer;

    let labels = ["unbounded", "budget25", "budget5"];
    let ids = labels
        .iter()
        .map(|label| format!("search_persistent_budget/answer_many/{label}"));
    if !criterion::any_id_matches(ids) {
        return;
    }
    let mut rng = ChaCha20Rng::seed_from_u64(5);
    let domain_size = 1u64 << 20;
    let dataset = gowalla_like(100_000, domain_size, &mut rng);
    let dir = std::env::temp_dir().join(format!("rsse-bench-budget-{}", std::process::id()));
    let bits = 4u32;

    let mut disk_rng = ChaCha20Rng::seed_from_u64(7);
    let (client, disk_server) =
        LogScheme::build_stored(&dataset, &StorageConfig::on_disk(bits, &dir), &mut disk_rng)
            .expect("on-disk build");
    let region_bytes = {
        let index = disk_server.index();
        index.storage_bytes() - index.len() * 16
    };
    drop(disk_server);

    let len = domain_size / 100;
    let ranges = rsse_workload::random_queries_of_len(
        dataset.domain(),
        len,
        32,
        &mut ChaCha20Rng::seed_from_u64(11),
    );
    let queries: Vec<Vec<rsse_sse::SearchToken>> = ranges
        .iter()
        .map(|&r| client.trapdoor(r).expect("in-domain range"))
        .collect();

    let budgets = [None, Some(region_bytes / 4), Some(region_bytes / 20)];
    let mut group = c.benchmark_group("search_persistent_budget");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for (label, budget) in labels.iter().zip(budgets) {
        let qs = QueryServer::open_dir_with_budget(&dir, budget).expect("open saved index");
        group.bench_function(BenchmarkId::new("answer_many", *label), |b| {
            b.iter(|| {
                qs.answer_many(&queries)
                    .into_iter()
                    .collect::<Result<Vec<_>, _>>()
                    .expect("healthy disk")
            })
        });
        let stats = qs.index().cache_stats();
        println!(
            "bench-note: search_persistent_budget/{label}: resident {} of {} region bytes, \
             {} hits / {} misses / {} evictions",
            stats.resident_bytes, region_bytes, stats.hits, stats.misses, stats.evictions
        );
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_search,
    bench_search_100k,
    bench_search_sharded,
    bench_search_persistent,
    bench_search_persistent_budget
);
criterion_main!(benches);
