//! Criterion micro-bench for the batch-update manager: ingestion (including
//! any triggered consolidations), querying across active instances, and —
//! for the durable configuration — reopening the whole manager from its
//! storage root (`UpdateManager::open_root`) versus re-ingesting from
//! scratch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use rsse_core::schemes::log_brc_urc::LogScheme;
use rsse_cover::{Domain, Range};
use rsse_updates::{OwnerKey, UpdateConfig, UpdateManager};
use std::time::Duration;

fn ingest(batches: usize, batch_size: usize, step: usize) -> UpdateManager<LogScheme> {
    let domain = Domain::new(1 << 16);
    let mut rng = ChaCha20Rng::seed_from_u64(5);
    let manager: UpdateManager<LogScheme> = UpdateManager::new(
        domain,
        UpdateConfig {
            consolidation_step: step,
            ..UpdateConfig::default()
        },
    );
    // Ingest batches come from the shared workload generator (ids from 1),
    // the same population the trace-replay harness feeds a manager.
    for entries in rsse_workload::insert_batches(&domain, batches, batch_size, 1, &mut rng) {
        manager.ingest_batch(entries, &mut rng);
    }
    manager
}

fn bench_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("updates");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    for step in [0usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("ingest_16_batches", format!("s={step}")),
            &step,
            |b, &step| b.iter(|| ingest(16, 200, step)),
        );
        let manager = ingest(16, 200, step);
        let query = Range::new(10_000, 30_000);
        group.bench_with_input(
            BenchmarkId::new("query_across_instances", format!("s={step}")),
            &query,
            |b, query| b.iter(|| manager.query(*query)),
        );
    }
    group.finish();
}

/// Reopen-from-root versus rebuild-from-scratch: a durable manager with 16
/// persisted batches is reopened via `open_root` (manifest + sidecar reads,
/// key re-derivation, shard-directory cold-opens — no re-encryption) and
/// compared against driving the same 16 ingests again.
fn bench_manager_reopen(c: &mut Criterion) {
    let ids = [
        "updates_reopen/open_root/16_batches".to_string(),
        "updates_reopen/reingest/16_batches".to_string(),
    ];
    if !criterion::any_id_matches(ids) {
        return;
    }
    let batches = 16usize;
    let batch_size = 200usize;
    let domain = Domain::new(1 << 16);
    let root = std::env::temp_dir().join(format!("rsse-bench-reopen-{}", std::process::id()));
    let key = OwnerKey::from_bytes([5u8; 32]);
    let config = UpdateConfig {
        consolidation_step: 4,
        shard_bits: 2,
        storage_root: Some(root.clone()),
        cache_budget: None,
        build_budget: None,
        consolidation_mode: rsse_updates::ConsolidationMode::default(),
    };
    let drive = |cfg: UpdateConfig| -> UpdateManager<LogScheme> {
        let mut rng = ChaCha20Rng::seed_from_u64(5);
        let manager: UpdateManager<LogScheme> = UpdateManager::with_key(key.clone(), domain, cfg);
        for entries in rsse_workload::insert_batches(&domain, batches, batch_size, 1, &mut rng) {
            manager.ingest_batch(entries, &mut rng);
        }
        manager
    };
    drop(drive(config.clone())); // the persisted root every reopen reads

    let mut group = c.benchmark_group("updates_reopen");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    group.bench_function(BenchmarkId::new("open_root", "16_batches"), |b| {
        b.iter(|| {
            UpdateManager::<LogScheme>::open_root(key.clone(), &root, config.clone())
                .expect("reopen from root")
        })
    });
    group.bench_function(BenchmarkId::new("reingest", "16_batches"), |b| {
        b.iter(|| {
            drive(UpdateConfig {
                storage_root: None,
                ..config.clone()
            })
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&root);
}

criterion_group!(benches, bench_updates, bench_manager_reopen);
criterion_main!(benches);
