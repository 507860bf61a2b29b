//! The resilient serving layer's overhead and degraded-mode cost.
//!
//! Three points on one batch of 32 concurrent 1% queries:
//!
//! * `serve_resilience/raw` — `QueryServer::answer_many` (no admission, no
//!   deadlines, no breakers, no retries): the baseline.
//! * `serve_resilience/resilient` — the same batch through
//!   `ResilientServer::answer_many` on a healthy backend: what the guarded
//!   probe loop (deadline checks, breaker admits, stats) costs when nothing
//!   goes wrong.
//! * `serve_resilience/resilient_chaos10` — the same batch under a seeded
//!   10% per-probe transient fault rate: what riding out sustained faults
//!   costs (per-probe retries with microsecond backoff).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use rsse_core::schemes::log_brc_urc::LogScheme;
use rsse_core::{RangeScheme, StorageConfig};
use rsse_serve::{BreakerConfig, ResilientServer, RetryConfig, ServeConfig};
use rsse_sse::{FaultInjectable, FaultPlan};
use rsse_workload::gowalla_like;
use std::time::Duration;

/// The chaos tuning also used by the test battery: ample retry budget,
/// microsecond backoffs, a breaker threshold above any plausible streak.
fn chaos_config() -> ServeConfig {
    ServeConfig {
        retry: RetryConfig {
            max_attempts: 6,
            initial_tokens: 1_000_000,
            max_tokens: 1_000_000,
            backoff_base: Duration::from_micros(10),
            backoff_cap: Duration::from_micros(200),
            ..RetryConfig::default()
        },
        breaker: BreakerConfig {
            failure_threshold: 50,
            cooldown: Duration::from_millis(50),
        },
        seed: 7,
        ..ServeConfig::default()
    }
}

fn bench_resilience(c: &mut Criterion) {
    let labels = ["raw", "resilient", "resilient_chaos10"];
    let ids = labels
        .iter()
        .map(|label| format!("serve_resilience/{label}/k4"));
    if !criterion::any_id_matches(ids) {
        return;
    }
    let mut rng = ChaCha20Rng::seed_from_u64(5);
    let domain_size = 1u64 << 16;
    let dataset = gowalla_like(4_000, domain_size, &mut rng);
    let (client, server) =
        LogScheme::build_stored(&dataset, &StorageConfig::in_memory(4), &mut rng)
            .expect("in-memory build cannot fail");
    let qs = server.into_query_server();

    // Same generator as the replay harness: bench and harness query
    // populations are provably the same distribution.
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

    let resilient = ResilientServer::new(qs.clone(), chaos_config());
    let mut chaotic_qs = qs.clone();
    chaotic_qs.inject_fault_plan(FaultPlan::seeded(7).fault_rate(0.10));
    let chaotic = ResilientServer::new(chaotic_qs, chaos_config());

    let mut group = c.benchmark_group("serve_resilience");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    group.bench_function(BenchmarkId::new("raw", "k4"), |b| {
        b.iter(|| {
            qs.answer_many(&queries)
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
                .expect("in-memory")
        })
    });
    group.bench_function(BenchmarkId::new("resilient", "k4"), |b| {
        b.iter(|| {
            let slots = resilient.answer_many(&queries);
            assert!(slots.iter().all(Result::is_ok));
            slots
        })
    });
    group.bench_function(BenchmarkId::new("resilient_chaos10", "k4"), |b| {
        b.iter(|| {
            let slots = chaotic.answer_many(&queries);
            assert!(slots.iter().all(Result::is_ok), "retries absorb the chaos");
            slots
        })
    });
    group.finish();

    let stats = chaotic.stats();
    println!(
        "bench-note: serve_resilience/resilient_chaos10: {} faults absorbed over {} probes, \
         {} retry tokens left",
        stats.faults_absorbed, stats.probes_resolved, stats.retry_tokens
    );
}

criterion_group!(benches, bench_resilience);
criterion_main!(benches);
