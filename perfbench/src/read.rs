//! `read_hot` and `read_cold`: a file-backed Logarithmic-BRC index served
//! through `rsse-serve`, closed loop, one client thread.
//!
//! * `read_hot` — each call trapdoors a round of 16 Zipf-hot queries and
//!   answers them with `ResilientServer::answer_batch`; the block cache
//!   holds the whole region, so storage does almost nothing.
//! * `read_cold` — each call is one uniform query through
//!   `ResilientServer::answer` (no batch executor, no dedup) against a
//!   cache of 5% of the region, so most calls miss and evict.

use crate::inputs::{self, Query, DOMAIN_SIZE, SHARD_BITS};
use crate::oracle::Model;
use crate::report::{
    dir_bytes, mean, median, ms, percentile, proc_status_bytes, remove_tree, sync_tree,
    time_repeated, Report, MIB,
};
use crate::spans::Tracer;
use crate::{fail, Opts, Workload, UPDATES_LAYER_METRICS};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use rsse_core::schemes::log_brc_urc::LogScheme;
use rsse_core::server::ScanScratch;
use rsse_core::{Dataset, QueryServer, RangeScheme, Record, StorageConfig};
use rsse_cover::{Domain, Range};
use rsse_serve::{ResilientServer, ServeConfig, ServeStats};
use rsse_sse::pibas::LABEL_LEN;
use rsse_sse::{CacheStats, CipherSpan, SearchToken, ShardedIndex, StorageError, TokenLabeler};
use std::time::{Duration, Instant};

/// Queries per `read_hot` call: one `answer_batch` round.
const HOT_ROUND: usize = 16;
/// Calls per block in a traced run; traced and untraced blocks alternate,
/// and the difference between them is the tracing overhead.
const TRACE_BLOCK: u64 = 4;
/// Labels derived per step of the stage replay.
const LABEL_CHUNK: u64 = 16;

fn queries_per_call(workload: Workload) -> usize {
    if workload == Workload::ReadHot {
        HOT_ROUND
    } else {
        1
    }
}

/// Block-cache budget: twice the region for `read_hot` (everything fits),
/// 5% of it for `read_cold`.
fn cache_budget(workload: Workload, region_bytes: usize) -> usize {
    if workload == Workload::ReadHot {
        2 * region_bytes
    } else {
        region_bytes / 20
    }
}

fn key_rng(seed: u64) -> ChaCha20Rng {
    ChaCha20Rng::from_seed(inputs::key_seed(seed))
}

/// Builds the index to disk and opens it, `sizes.setups` times.
pub fn setup(opts: &Opts) -> Report {
    let sizes = opts.sizes();
    let records = inputs::records(opts.seed, sizes.records);
    let dataset = Dataset::new(
        Domain::new(DOMAIN_SIZE),
        records.iter().map(|&(id, v)| Record::new(id, v)).collect(),
    )
    .unwrap_or_else(|e| fail(format!("dataset: {e:?}")));
    let mut report = Report::default();
    let (mut setup_s, mut build_s) = (Vec::new(), Vec::new());
    let mut region = 0;
    for _ in 0..sizes.setups {
        remove_tree(&opts.dir).unwrap_or_else(|e| fail(format!("clear index: {e}")));
        let start = Instant::now();
        let config = StorageConfig::on_disk(SHARD_BITS, &opts.dir);
        let (_client, server) = LogScheme::build_stored(&dataset, &config, &mut key_rng(opts.seed))
            .unwrap_or_else(|e| fail(format!("build: {e}")));
        let built = start.elapsed();
        region = server.index().storage_bytes() - server.index().len() * LABEL_LEN;
        drop(server);
        let start = Instant::now();
        let opened =
            QueryServer::open_dir_with_budget(&opts.dir, Some(cache_budget(opts.workload, region)))
                .unwrap_or_else(|e| fail(format!("open: {e}")));
        let open_time = start.elapsed();
        drop(opened);
        build_s.push(built.as_secs_f64());
        setup_s.push((built + open_time).as_secs_f64());
    }
    sync_tree(&opts.dir).unwrap_or_else(|e| fail(format!("sync: {e}")));
    let build = median(&build_s);
    report.metric("setup_s", median(&setup_s));
    report.metric("sse.build_s", build);
    report.metric("ingest_rec_per_s", records.len() as f64 / build);
    report.metric("ingest_p50_ms", build * 1e3);
    report.info("budget_bytes", cache_budget(opts.workload, region));
    report.info("region_bytes", region);
    report.info(
        "dataset_digest",
        inputs::digest_records([records.as_slice()]),
    );
    report.info("setup_samples_s", format!("{setup_s:.4?}"));
    report
}

/// The closed-loop client: walks the query list (cycling if a run
/// outlasts it), times each call and checks every answer.
struct Client<'a> {
    workload: Workload,
    scheme: &'a LogScheme,
    server: &'a ResilientServer,
    model: &'a Model,
    queries: &'a [Query],
    next: usize,
    tokens_sent: u64,
}

impl Client<'_> {
    fn take(&mut self, n: usize) -> Vec<Query> {
        (0..n)
            .map(|_| {
                let query = self.queries[self.next % self.queries.len()];
                self.next += 1;
                query
            })
            .collect()
    }

    fn trapdoor(&self, query: &Query) -> Vec<SearchToken> {
        self.scheme
            .trapdoor(Range::new(query.lo, query.hi))
            .unwrap_or_default()
    }

    /// One call; returns its latency (answer checking is not timed).
    fn call(&mut self, tracer: &mut Tracer, report: &mut Report, request: u64) -> Duration {
        let batch = self.take(queries_per_call(self.workload));
        let start = Instant::now();
        let root = tracer.begin("call", None, request);
        let mut tokens = Vec::with_capacity(batch.len());
        for query in &batch {
            let span = tracer.begin("core.trapdoor", root, request);
            tokens.push(self.trapdoor(query));
            tracer.end(span);
        }
        let results = if self.workload == Workload::ReadHot {
            let span = tracer.begin("serve.answer_batch", root, request);
            let results = self.server.answer_batch(&tokens);
            tracer.end(span);
            results
        } else {
            let span = tracer.begin("serve.answer", root, request);
            let result = self.server.answer(&tokens[0]);
            tracer.end(span);
            vec![result]
        };
        tracer.end(root);
        let elapsed = start.elapsed();
        self.tokens_sent += tokens.iter().map(Vec::len).sum::<usize>() as u64;
        for (query, result) in batch.iter().zip(results) {
            report.check(matches!(result, Ok(outcome) if self.model.check_exact(query.lo, query.hi, &outcome.ids)));
        }
        elapsed
    }
}

/// Time spent in, and work done by, each scan stage of the replay.
#[derive(Default)]
struct Stages {
    label_ns: u64,
    labels: u64,
    lookup_ns: u64,
    lookups: u64,
    decrypt_ns: u64,
    hits: u64,
}

fn nanos_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Replays one query's scan one stage at a time through the public
/// primitives — label PRF (`TokenLabeler::label_at`), directory lookup and
/// block fetch (`ShardedIndex::try_get`), decrypt and decode
/// (`ScanScratch::decode_hit`) — and returns the decoded ids.
fn replay_stages(
    index: &ShardedIndex,
    tokens: &[SearchToken],
    scratch: &mut ScanScratch,
    stages: &mut Stages,
) -> Result<Vec<u64>, StorageError> {
    let mut ids = Vec::new();
    let start = Instant::now();
    scratch.rekey(tokens);
    stages.decrypt_ns += nanos_since(start);
    let mut labels = Vec::with_capacity(LABEL_CHUNK as usize);
    let mut found: Vec<CipherSpan<'_>> = Vec::with_capacity(LABEL_CHUNK as usize);
    for (t, token) in tokens.iter().enumerate() {
        let start = Instant::now();
        let labeler = TokenLabeler::new(token);
        stages.label_ns += nanos_since(start);
        let mut counter = 0;
        loop {
            let start = Instant::now();
            labels.clear();
            labels.extend((counter..counter + LABEL_CHUNK).map(|c| labeler.label_at(c)));
            stages.label_ns += nanos_since(start);
            stages.labels += LABEL_CHUNK;

            let start = Instant::now();
            found.clear();
            let mut ended = false;
            for label in &labels {
                stages.lookups += 1;
                match index.try_get(label)? {
                    Some(span) => found.push(span),
                    None => {
                        ended = true;
                        break;
                    }
                }
            }
            stages.lookup_ns += nanos_since(start);

            let start = Instant::now();
            ids.extend(found.iter().filter_map(|span| scratch.decode_hit(t, span)));
            stages.decrypt_ns += nanos_since(start);
            stages.hits += found.len() as u64;
            if ended {
                break;
            }
            counter += LABEL_CHUNK;
        }
    }
    Ok(ids)
}

/// What the timed loop measured.
struct Timed {
    calls: u64,
    queries: usize,
    /// Index of the first timed query in the query list.
    first_query: usize,
    call_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    cache_before: CacheStats,
    cache: CacheStats,
    serve_before: ServeStats,
    serve: ServeStats,
}

/// Closed-loop calls for `seconds`. In a traced run, blocks of calls with
/// spans on and off alternate.
fn timed_loop(client: &mut Client, opts: &Opts, tracer: &mut Tracer, report: &mut Report) -> Timed {
    let index = client.server.backend().index();
    let cache_before = index.cache_stats();
    let serve_before = client.server.stats();
    let first_query = client.next;
    client.tokens_sent = 0;
    let (mut call_ms, mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + opts.seconds;
    let mut calls = 0u64;
    while calls == 0 || Instant::now() < deadline {
        let traced = opts.trace && (calls / TRACE_BLOCK) % 2 == 1;
        tracer.set_enabled(traced);
        let latency = ms(client.call(tracer, report, calls));
        call_ms.push(latency);
        if traced {
            traced_ms.push(latency);
        } else {
            untraced_ms.push(latency);
        }
        calls += 1;
    }
    Timed {
        calls,
        queries: client.next - first_query,
        first_query,
        call_ms,
        traced_ms,
        untraced_ms,
        cache_before,
        cache: index.cache_stats(),
        serve_before,
        serve: client.server.stats(),
    }
}

/// The traced run's replay of the timed queries, one at a time.
struct Replay {
    queries: usize,
    scan_ns: u64,
    stages: Stages,
}

/// Replays the timed queries: first the raw scan (`QueryServer::answer`),
/// then the same queries stage by stage. The first pass stops after
/// `budget`, so a traced run stays short.
fn replay(
    client: &Client,
    timed: &Timed,
    budget: Duration,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Replay {
    let backend = client.server.backend();
    let started = Instant::now();
    let mut replayed = Vec::new();
    let mut scan_ns = 0u64;
    while replayed.len() < timed.queries && started.elapsed() < budget {
        let query = client.queries[(timed.first_query + replayed.len()) % client.queries.len()];
        let tokens = client.trapdoor(&query);
        let span = tracer.begin("core.scan", None, replayed.len() as u64);
        let start = Instant::now();
        let result = backend.answer(&tokens);
        scan_ns += nanos_since(start);
        tracer.end(span);
        report.check(matches!(result, Ok(outcome) if client.model.check_exact(query.lo, query.hi, &outcome.ids)));
        replayed.push((query, tokens));
    }
    let mut stages = Stages::default();
    let mut scratch = ScanScratch::default();
    for (request, (query, tokens)) in replayed.iter().enumerate() {
        let span = tracer.begin("replay.stages", None, request as u64);
        let result = replay_stages(backend.index(), tokens, &mut scratch, &mut stages);
        tracer.end(span);
        report
            .check(matches!(result, Ok(ids) if client.model.check_exact(query.lo, query.hi, &ids)));
    }
    Replay {
        queries: replayed.len(),
        scan_ns,
        stages,
    }
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    report: &mut Report,
    workload: Workload,
    timed: &Timed,
    replay: &Replay,
    tracer: &Tracer,
) {
    let (cache, before) = (&timed.cache, &timed.cache_before);
    let (serve, serve_before) = (&timed.serve, &timed.serve_before);
    let stages = &replay.stages;
    let replayed = replay.queries.max(1) as f64;
    let scan_ms = replay.scan_ns as f64 / replayed / 1e6;
    let label_ns = stages.label_ns as f64 / stages.labels.max(1) as f64;
    let serve_span = if workload == Workload::ReadHot {
        "serve.answer_batch"
    } else {
        "serve.answer"
    };
    let serve_call_ms = mean(&to_f64(&tracer.durations(serve_span))) / 1e6;
    let serve_query_ms = serve_call_ms / queries_per_call(workload) as f64;
    let probes = (cache.hits + cache.misses - before.hits - before.misses).max(1) as f64;
    let demanded = (serve.batch_probes_demanded - serve_before.batch_probes_demanded).max(1) as f64;
    let queries = timed.queries as f64;

    let trapdoor_ns = mean(&to_f64(&tracer.durations("core.trapdoor")));
    report.metric("core.trapdoor_us", trapdoor_ns / 1e3);
    report.metric("core.scan_ms", scan_ms);
    report.metric("crypto.label_prf_ns", label_ns);
    report.metric(
        "crypto.decrypt_ns",
        stages.decrypt_ns as f64 / stages.hits.max(1) as f64,
    );
    report.metric(
        "sse.lookup_ns",
        stages.lookup_ns as f64 / stages.lookups.max(1) as f64,
    );
    report.metric("sse.probes_per_query", stages.lookups as f64 / replayed);
    let staged_ns =
        label_ns * stages.lookups as f64 + (stages.lookup_ns + stages.decrypt_ns) as f64;
    report.metric("sse.stage_share", staged_ns / replay.scan_ns.max(1) as f64);
    report.metric(
        "sse.cache_hit_ratio",
        (cache.hits - before.hits) as f64 / probes,
    );
    report.metric(
        "sse.evictions_per_query",
        (cache.evictions - before.evictions) as f64 / queries,
    );
    report.metric("sse.resident_mb", cache.resident_bytes as f64 / MIB);
    report.metric("serve.call_ms", serve_call_ms);
    report.metric(
        "serve.dedup_hit_rate",
        (serve.batch_dedup_hits - serve_before.batch_dedup_hits) as f64 / demanded,
    );
    report.metric(
        "serve.rounds_per_call",
        (serve.batch_rounds - serve_before.batch_rounds) as f64 / timed.calls as f64,
    );
    report.metric(
        "serve.overhead_frac",
        (serve_query_ms - scan_ms) / serve_query_ms,
    );
    for name in UPDATES_LAYER_METRICS {
        report.metric(name, 0.0);
    }
    report.metric(
        "trace.overhead_frac",
        mean(&timed.traced_ms) / mean(&timed.untraced_ms) - 1.0,
    );
    report.info("replayed_queries", replay.queries);
}

/// Serves the index built by `setup` for `--seconds`.
pub fn run(opts: &Opts) -> Report {
    let sizes = opts.sizes();
    let workload = opts.workload;
    let records = inputs::records(opts.seed, sizes.records);
    let model = Model::new(records.iter().copied(), opts.corrupt_oracle);
    let queries = if workload == Workload::ReadHot {
        inputs::hot_queries(opts.seed, sizes.queries)
    } else {
        inputs::cold_queries(opts.seed, sizes.queries)
    };
    let budget = opts
        .budget
        .unwrap_or_else(|| fail("--budget is required for a read workload"));
    let scheme = LogScheme::derive_client(&Domain::new(DOMAIN_SIZE), &mut key_rng(opts.seed))
        .unwrap_or_else(|e| fail(format!("derive client: {e}")));
    let mut report = Report::default();

    let rss_before = proc_status_bytes("VmRSS") as f64;
    let start = Instant::now();
    let opened = QueryServer::open_dir_with_budget(&opts.dir, Some(budget))
        .unwrap_or_else(|e| fail(format!("open: {e}")));
    let serving_open_ms = ms(start.elapsed());
    let open_growth = proc_status_bytes("VmRSS") as f64 - rss_before;
    let unaccounted_mb = (open_growth - opened.index().resident_bytes() as f64) / MIB;
    let server = ResilientServer::new(opened, ServeConfig::default());

    let mut tracer = Tracer::new(Instant::now(), false);
    let mut client = Client {
        workload,
        scheme: &scheme,
        server: &server,
        model: &model,
        queries: &queries,
        next: 0,
        tokens_sent: 0,
    };
    // Untimed warm-up: the block cache reaches its steady state.
    let warmup_calls = match (workload, opts.smoke) {
        (_, true) => 4,
        (Workload::ReadHot, false) => 32,
        _ => 64,
    };
    for call in 0..warmup_calls {
        client.call(&mut tracer, &mut report, call);
    }
    let timed = timed_loop(&mut client, opts, &mut tracer, &mut report);
    let busy_s: f64 = timed.call_ms.iter().sum::<f64>() / 1e3;
    report.metric("query_qps", timed.queries as f64 / busy_s);
    report.metric("query_p50_ms", median(&timed.call_ms));
    report.metric("query_p99_ms", percentile(&timed.call_ms, 0.99));

    if opts.trace {
        tracer.set_enabled(true);
        let budget = opts.seconds.mul_f64(0.125).max(Duration::from_secs(1));
        let replay = replay(&client, &timed, budget, &mut tracer, &mut report);
        layer_metrics(&mut report, workload, &timed, &replay, &tracer);
        report.metric(
            "core.tokens_per_query",
            client.tokens_sent as f64 / timed.queries as f64,
        );
        report.metric("sse.unaccounted_mb", unaccounted_mb);
        report.self_times(&tracer);
        if let Some(path) = &opts.spans {
            tracer
                .write_jsonl(path)
                .unwrap_or_else(|e| fail(format!("write spans: {e}")));
        }
    }

    report.metric("rss_peak_mb", proc_status_bytes("VmHWM") as f64 / MIB);
    report.metric("index_mb", dir_bytes(&opts.dir) as f64 / MIB);

    report.info("query_digest", inputs::digest_queries(&queries));
    report.info("serving_open_ms", serving_open_ms);
    report.info("warmup_calls", warmup_calls);
    report.info("timed_calls", timed.calls);
    report.info("timed_queries", timed.queries);
    report.info(
        "cache_misses",
        timed.cache.misses - timed.cache_before.misses,
    );
    report.info("cache_budget_bytes", budget);
    report
}

fn to_f64(values: &[u64]) -> Vec<f64> {
    values.iter().map(|&v| v as f64).collect()
}

/// Times repeated opens of the index in a fresh process.
pub fn open(opts: &Opts) -> Report {
    let budget = opts
        .budget
        .unwrap_or_else(|| fail("--budget is required for a read workload"));
    let sizes = opts.sizes();
    let (open_ms, _) = time_repeated(sizes.open_warmup, sizes.open_window, || {
        QueryServer::open_dir_with_budget(&opts.dir, Some(budget))
            .unwrap_or_else(|e| fail(format!("open: {e}")))
    });
    let mut report = Report::default();
    report.metric("open_ms", median(&open_ms));
    report.info("open_samples", open_ms.len());
    report
}
