//! `ingest_read`: a durable `UpdateManager<LogScheme>` root under an
//! open-loop insert stream and an open-loop reader, both through the
//! repository's concurrent adapter (`rsse_workload::ManagedTarget`:
//! `insert` for batches, `with_manager` for queries). The benchmark holds
//! no lock of its own. The `open` phase then times
//! `UpdateManager::open_root` on the result in a fresh process.

use crate::inputs::{self, Stream, DOMAIN_SIZE, SHARD_BITS};
use crate::oracle::{Model, StreamModel};
use crate::report::{
    dir_bytes, mean, median, percentile, proc_status_bytes, remove_tree, sync_tree, time_repeated,
    Report, MIB,
};
use crate::spans::Tracer;
use crate::{fail, Opts, READ_LAYER_METRICS};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use rsse_core::schemes::log_brc_urc::LogScheme;
use rsse_cover::{Domain, Range};
use rsse_serve::{RetryConfig, RetryPolicy};
use rsse_updates::{OwnerKey, UpdateConfig, UpdateEntry, UpdateManager};
use rsse_workload::{ManagedTarget, ReplayTarget};
use std::path::Path;
use std::time::{Duration, Instant};

/// One insert batch is due every `WRITER_PERIOD`.
const WRITER_PERIOD: Duration = Duration::from_millis(1400);
/// One reader query is due every `READER_PERIOD`.
const READER_PERIOD: Duration = Duration::from_millis(20);
/// Queries per block in a traced run; traced and untraced blocks alternate.
const TRACE_BLOCK: usize = 8;
/// Queries checked exactly after the final reopen.
const CHECK_QUERIES: usize = 16;
/// Ids of streamed records start here, above every preloaded id.
const FIRST_STREAM_ID: u64 = 1 << 32;

type Target = ManagedTarget<LogScheme>;
/// `(id, value)` records.
type Records = Vec<(u64, u64)>;

fn config(root: &Path) -> UpdateConfig {
    UpdateConfig {
        shard_bits: SHARD_BITS,
        storage_root: Some(root.to_path_buf()),
        ..UpdateConfig::default()
    }
}

fn owner_key(seed: u64) -> OwnerKey {
    OwnerKey::from_bytes(inputs::key_seed(seed))
}

fn entries(batch: &[(u64, u64)]) -> Vec<UpdateEntry> {
    batch
        .iter()
        .map(|&(id, v)| UpdateEntry::insert(id, v))
        .collect()
}

fn open_root(seed: u64, root: &Path) -> UpdateManager<LogScheme> {
    UpdateManager::open_root(owner_key(seed), root, config(root))
        .unwrap_or_else(|e| fail(format!("open_root: {e}")))
}

/// Preloads the manager root `sizes.setups` times; the last one stays.
pub fn setup(opts: &Opts) -> Report {
    let sizes = opts.sizes();
    let preload = inputs::records(opts.seed, sizes.preload);
    let mut setup_s = Vec::new();
    let mut report = Report::default();
    for _ in 0..sizes.setups {
        remove_tree(&opts.dir).unwrap_or_else(|e| fail(format!("clear root: {e}")));
        let mut rng = ChaCha20Rng::seed_from_u64(opts.seed);
        let start = Instant::now();
        let mut manager: UpdateManager<LogScheme> = UpdateManager::with_key(
            owner_key(opts.seed),
            Domain::new(DOMAIN_SIZE),
            config(&opts.dir),
        );
        for batch in preload.chunks(sizes.preload_batch as usize) {
            manager
                .try_ingest_batch(entries(batch), &mut rng)
                .unwrap_or_else(|e| fail(format!("preload: {e}")));
        }
        drop(manager);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    sync_tree(&opts.dir).unwrap_or_else(|e| fail(format!("sync: {e}")));
    report.metric("setup_s", median(&setup_s));
    report.info(
        "dataset_digest",
        inputs::digest_records([preload.as_slice()]),
    );
    report.info("setup_samples_s", format!("{setup_s:.4?}"));
    report
}

/// What the writer saw of one batch, in ns since the stream's epoch.
struct BatchLog {
    due: u64,
    sent: u64,
    acked: Option<u64>,
    call_ns: u64,
    consolidating: bool,
}

/// What the reader saw of one query, in ns since the stream's epoch.
struct QueryLog {
    due: u64,
    sent: u64,
    /// When the `with_manager` closure started and ended.
    inside: (u64, u64),
    done: u64,
    ids: Option<Vec<u64>>,
}

fn since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

fn sleep_until(epoch: Instant, due: Duration) {
    let now = epoch.elapsed();
    if now < due {
        std::thread::sleep(due - now);
    }
}

fn write_stream(
    target: &Target,
    batches: &[Records],
    epoch: Instant,
    trace: bool,
) -> Vec<BatchLog> {
    let consolidations = || target.with_manager(|m| m.consolidations());
    batches
        .iter()
        .enumerate()
        .map(|(b, batch)| {
            let due = WRITER_PERIOD * b as u32;
            let batch = entries(batch);
            sleep_until(epoch, due);
            let before = if trace { consolidations() } else { 0 };
            let sent = since(epoch);
            let ok = target.insert(&batch);
            let acked = since(epoch);
            let after = if trace { consolidations() } else { 0 };
            BatchLog {
                due: due.as_nanos() as u64,
                sent,
                acked: ok.then_some(acked),
                call_ns: acked - sent,
                consolidating: after != before,
            }
        })
        .collect()
}

fn read_stream(
    target: &Target,
    queries: &[inputs::Query],
    tracer: &mut Tracer,
    trace: bool,
) -> Vec<QueryLog> {
    let epoch = tracer.epoch();
    queries
        .iter()
        .enumerate()
        .map(|(q, query)| {
            let due = READER_PERIOD * q as u32;
            sleep_until(epoch, due);
            tracer.set_enabled(trace && (q / TRACE_BLOCK) % 2 == 1);
            let sent = since(epoch);
            let root = tracer.begin("call", None, q as u64);
            let (start, end, result) = target.with_manager(|manager| {
                let start = since(epoch);
                let result = manager.try_query(Range::new(query.lo, query.hi));
                (start, since(epoch), result)
            });
            let inside = (start, end);
            tracer.end(root);
            let done = since(epoch);
            tracer.record("updates.read_wait", sent, inside.0, root, q as u64);
            tracer.record("updates.query", inside.0, inside.1, root, q as u64);
            QueryLog {
                due: due.as_nanos() as u64,
                sent,
                inside,
                done,
                ids: result.ok().map(|outcome| outcome.ids),
            }
        })
        .collect()
}

/// The preload and the insert schedule of a `--seconds` stream.
fn stream_inputs(opts: &Opts) -> (Records, Vec<Records>) {
    let sizes = opts.sizes();
    let preload = inputs::records(opts.seed, sizes.preload);
    let batch_count = (opts.seconds.as_secs_f64() / WRITER_PERIOD.as_secs_f64()).ceil() as usize;
    let batches =
        inputs::insert_batches(opts.seed, batch_count, sizes.insert_batch, FIRST_STREAM_ID);
    (preload, batches)
}

/// Streams inserts beside reads for `--seconds`.
pub fn run(opts: &Opts) -> Report {
    let sizes = opts.sizes();
    let (preload, batches) = stream_inputs(opts);
    let query_count = (opts.seconds.as_secs_f64() / READER_PERIOD.as_secs_f64()).ceil() as usize;
    let queries = inputs::fixed_width_queries(opts.seed, query_count, Stream::ColdQueries);
    let mut report = Report::default();

    let manager = open_root(opts.seed, &opts.dir);
    let consolidations_before = manager.consolidations();
    let target = ManagedTarget::new(
        manager,
        RetryPolicy::new(RetryConfig::default(), opts.seed),
        opts.seed,
    );
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, false);
    let (batch_log, query_log) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| write_stream(&target, &batches, epoch, opts.trace));
        let query_log = read_stream(&target, &queries, &mut tracer, opts.trace);
        let batch_log = writer
            .join()
            .unwrap_or_else(|_| fail("writer thread panicked"));
        (batch_log, query_log)
    });
    let (consolidations, instances) = target.with_manager(|m| {
        (
            m.consolidations() - consolidations_before,
            m.active_instances(),
        )
    });
    drop(target.into_inner());

    // Oracle: the stream's answers against the send/ack timeline.
    let stream_model = StreamModel::new(
        &preload,
        &batches,
        batch_log.iter().map(|b| b.sent).collect(),
        batch_log.iter().map(|b| b.acked).collect(),
        opts.corrupt_oracle,
    );
    for log in &batch_log {
        report.check(log.acked.is_some());
    }
    for (query, log) in queries.iter().zip(&query_log) {
        report.check(matches!(&log.ids, Some(ids) if stream_model.check(query.lo, query.hi, log.sent, log.done, ids)));
    }

    let latency_ms: Vec<f64> = query_log
        .iter()
        .map(|q| (q.done - q.due) as f64 / 1e6)
        .collect();
    let last_done = query_log.iter().map(|q| q.done).max().unwrap_or(1);
    let acked_batches: Vec<&BatchLog> = batch_log.iter().filter(|b| b.acked.is_some()).collect();
    let insert_s: f64 = acked_batches.iter().map(|b| b.call_ns as f64 / 1e9).sum();
    let ack_ms: Vec<f64> = acked_batches
        .iter()
        .map(|b| (b.acked.unwrap_or(b.due) - b.due) as f64 / 1e6)
        .collect();

    report.metric(
        "query_qps",
        query_log.len() as f64 / (last_done as f64 / 1e9),
    );
    report.metric("query_p50_ms", median(&latency_ms));
    report.metric("query_p99_ms", percentile(&latency_ms, 0.99));
    report.metric(
        "ingest_rec_per_s",
        (acked_batches.len() as u64 * sizes.insert_batch) as f64 / insert_s,
    );
    report.metric("ingest_p50_ms", median(&ack_ms));
    report.metric("rss_peak_mb", proc_status_bytes("VmHWM") as f64 / MIB);
    report.metric("index_mb", dir_bytes(&opts.dir) as f64 / MIB);

    if opts.trace {
        let call_ms = |consolidating: bool| {
            let times: Vec<f64> = batch_log
                .iter()
                .filter(|b| b.consolidating == consolidating)
                .map(|b| b.call_ns as f64 / 1e6)
                .collect();
            mean(&times)
        };
        let wait_ms: Vec<f64> = query_log
            .iter()
            .map(|q| (q.inside.0 - q.due) as f64 / 1e6)
            .collect();
        let inside_ms: Vec<f64> = query_log
            .iter()
            .map(|q| (q.inside.1 - q.inside.0) as f64 / 1e6)
            .collect();
        let (mut traced, mut untraced) = (Vec::new(), Vec::new());
        for (q, log) in query_log.iter().enumerate() {
            // Service time without the wait for the lock, which ingest sets.
            let service = (log.done - log.inside.0) as f64;
            if (q / TRACE_BLOCK) % 2 == 1 {
                traced.push(service);
            } else {
                untraced.push(service);
            }
        }
        for name in READ_LAYER_METRICS {
            report.metric(name, 0.0);
        }
        report.metric("updates.ingest_plain_ms", call_ms(false));
        report.metric("updates.ingest_consolidating_ms", call_ms(true));
        report.metric("updates.consolidations", consolidations as f64);
        report.metric("updates.instances", instances as f64);
        report.metric("updates.read_wait_p50_ms", median(&wait_ms));
        report.metric("updates.read_wait_p99_ms", percentile(&wait_ms, 0.99));
        report.metric("updates.query_ms", mean(&inside_ms));
        report.metric("trace.overhead_frac", mean(&traced) / mean(&untraced) - 1.0);
        for log in &batch_log {
            tracer.set_enabled(true);
            let name = if log.consolidating {
                "updates.insert_consolidating"
            } else {
                "updates.insert"
            };
            tracer.record(name, log.sent, log.sent + log.call_ns, None, log.due);
        }
        report.self_times(&tracer);
        if let Some(path) = &opts.spans {
            tracer
                .write_jsonl(path)
                .unwrap_or_else(|e| fail(format!("write spans: {e}")));
        }
    }

    report.info(
        "schedule_digest",
        inputs::digest_records(batches.iter().map(Vec::as_slice)),
    );
    report.info("query_digest", inputs::digest_queries(&queries));
    report.info("batches", batch_log.len());
    report.info("batch_records", sizes.insert_batch);
    report.info("writer_period_ms", WRITER_PERIOD.as_millis());
    report.info("reader_period_ms", READER_PERIOD.as_millis());
    report.info("consolidations", consolidations);
    report.info(
        "max_writer_lag_ms",
        batch_log.iter().map(|b| b.sent - b.due).max().unwrap_or(0) as f64 / 1e6,
    );
    report.info(
        "max_reader_lag_ms",
        query_log.iter().map(|q| q.sent - q.due).max().unwrap_or(0) as f64 / 1e6,
    );
    report
}

/// Reopens the streamed root repeatedly in a fresh process; the last
/// reopen must answer a fixed query set exactly as the model of the preload
/// plus every scheduled batch does.
pub fn open(opts: &Opts) -> Report {
    let (preload, batches) = stream_inputs(opts);
    let sizes = opts.sizes();
    let mut report = Report::default();
    let (open_ms, reopened) = time_repeated(sizes.open_warmup, sizes.open_window, || {
        open_root(opts.seed, &opts.dir)
    });
    let all = preload.iter().chain(batches.iter().flatten()).copied();
    let model = Model::new(all, opts.corrupt_oracle);
    for query in inputs::fixed_width_queries(opts.seed, CHECK_QUERIES, Stream::FixedQueries) {
        let result = reopened.try_query(Range::new(query.lo, query.hi));
        report.check(
            matches!(result, Ok(outcome) if model.check_exact(query.lo, query.hi, &outcome.ids)),
        );
    }
    report.metric("open_ms", median(&open_ms));
    report.info("open_samples", open_ms.len());
    report
}
