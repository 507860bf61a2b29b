//! `perfbench` — one workload phase per process.
//!
//! ```sh
//! perfbench setup --workload read_hot --seed 1 --dir WORK
//! perfbench run   --workload read_hot --seed 1 --dir WORK --seconds 20 --trace 0 --budget BYTES
//! perfbench open  --workload read_hot --seed 1 --dir WORK --seconds 20 --budget BYTES
//! ```
//!
//! `setup` builds (read workloads) or preloads (`ingest_read`) the index
//! under `--dir` several times and reports the set-up times; `run` serves
//! the last one for `--seconds` and reports the end-to-end metrics, or with
//! `--trace 1` the per-layer ones; `open` times reopening the result in a
//! fresh process. Each prints one JSON object as its last line. `run.py`
//! drives all three and is the command to use.

mod ingest;
mod inputs;
mod oracle;
mod read;
mod report;
mod spans;

use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str =
    "usage: perfbench <setup|run|open> --workload <read_hot|read_cold|ingest_read> \
--seed N --dir PATH [--seconds N] [--trace 0|1] [--budget BYTES] [--spans PATH] [--smoke] \
[--corrupt-oracle]";

/// Per-layer metrics of the layers only the read workloads run
/// (`ingest_read` reports them as 0).
pub const READ_LAYER_METRICS: [&str; 17] = [
    "core.trapdoor_us",
    "core.tokens_per_query",
    "core.scan_ms",
    "crypto.label_prf_ns",
    "crypto.decrypt_ns",
    "sse.lookup_ns",
    "sse.probes_per_query",
    "sse.stage_share",
    "sse.cache_hit_ratio",
    "sse.evictions_per_query",
    "sse.resident_mb",
    "sse.unaccounted_mb",
    "sse.build_s",
    "serve.call_ms",
    "serve.dedup_hit_rate",
    "serve.rounds_per_call",
    "serve.overhead_frac",
];

/// Per-layer metrics of `rsse-updates`, which only `ingest_read` runs (the
/// read workloads report them as 0).
pub const UPDATES_LAYER_METRICS: [&str; 7] = [
    "updates.ingest_plain_ms",
    "updates.ingest_consolidating_ms",
    "updates.consolidations",
    "updates.instances",
    "updates.read_wait_p50_ms",
    "updates.read_wait_p99_ms",
    "updates.query_ms",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ReadHot,
    ReadCold,
    IngestRead,
}

/// Input sizes: the benchmark's, or a much smaller smoke size for tests.
pub struct Sizes {
    /// Records of the read workloads' dataset.
    pub records: u64,
    /// Records preloaded into the `ingest_read` manager.
    pub preload: u64,
    /// Preload batch size.
    pub preload_batch: u64,
    /// Records per streamed insert batch.
    pub insert_batch: u64,
    /// Set-ups per `setup` process; `setup_s` is their median.
    pub setups: usize,
    /// Untimed opens before the `open` phase's timed window.
    pub open_warmup: usize,
    /// How long the `open` phase times opens; `open_ms` is their median.
    pub open_window: Duration,
    /// Length of the generated query list (cycled if a run outlasts it).
    pub queries: usize,
}

pub struct Opts {
    pub phase: String,
    pub workload: Workload,
    pub seed: u64,
    pub dir: PathBuf,
    pub seconds: Duration,
    pub trace: bool,
    pub budget: Option<usize>,
    pub spans: Option<PathBuf>,
    pub smoke: bool,
    pub corrupt_oracle: bool,
}

impl Opts {
    pub fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes {
                records: 5_000,
                preload: 2_000,
                preload_batch: 500,
                insert_batch: 50,
                setups: 2,
                open_warmup: 1,
                open_window: Duration::from_millis(100),
                queries: 2_000,
            }
        } else {
            Sizes {
                records: 100_000,
                preload: 50_000,
                preload_batch: 3_125,
                insert_batch: 2_400,
                // A build takes ~1.3 s and a preload ~2.8 s.
                setups: if self.workload == Workload::IngestRead {
                    3
                } else {
                    5
                },
                open_warmup: 3,
                open_window: Duration::from_secs(3),
                queries: 40_000,
            }
        }
    }
}

fn usage_error(message: &str) -> ! {
    eprintln!("perfbench: {message}\n{USAGE}");
    std::process::exit(2);
}

/// Reports a failure the benchmark cannot measure through and exits 1.
pub fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("perfbench: {message}");
    std::process::exit(1);
}

fn parse_opts() -> Opts {
    let mut args = std::env::args().skip(1);
    let phase = args.next().unwrap_or_else(|| usage_error("missing phase"));
    if !["setup", "run", "open"].contains(&phase.as_str()) {
        usage_error(&format!("unknown phase '{phase}'"));
    }
    let mut opts = Opts {
        phase,
        workload: Workload::ReadHot,
        seed: 1,
        dir: PathBuf::new(),
        seconds: Duration::from_secs(10),
        trace: false,
        budget: None,
        spans: None,
        smoke: false,
        corrupt_oracle: false,
    };
    let mut workload = None;
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
        };
        let number = |raw: String| -> u64 {
            raw.parse()
                .unwrap_or_else(|_| usage_error(&format!("bad number '{raw}'")))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value().as_str() {
                    "read_hot" => Workload::ReadHot,
                    "read_cold" => Workload::ReadCold,
                    "ingest_read" => Workload::IngestRead,
                    other => usage_error(&format!("unknown workload '{other}'")),
                })
            }
            "--seed" => opts.seed = number(value()),
            "--dir" => opts.dir = PathBuf::from(value()),
            "--seconds" => opts.seconds = Duration::from_secs_f64(number(value()) as f64),
            "--trace" => opts.trace = number(value()) != 0,
            "--budget" => opts.budget = Some(number(value()) as usize),
            "--spans" => opts.spans = Some(PathBuf::from(value())),
            "--smoke" => opts.smoke = true,
            "--corrupt-oracle" => opts.corrupt_oracle = true,
            other => usage_error(&format!("unknown option '{other}'")),
        }
    }
    opts.workload = workload.unwrap_or_else(|| usage_error("--workload is required"));
    if opts.dir.as_os_str().is_empty() {
        usage_error("--dir is required");
    }
    opts
}

fn main() {
    let opts = parse_opts();
    let report = match (opts.phase.as_str(), opts.workload) {
        ("setup", Workload::IngestRead) => ingest::setup(&opts),
        ("setup", _) => read::setup(&opts),
        ("open", Workload::IngestRead) => ingest::open(&opts),
        ("open", _) => read::open(&opts),
        (_, Workload::IngestRead) => ingest::run(&opts),
        _ => read::run(&opts),
    };
    println!("{}", report.to_json());
}
