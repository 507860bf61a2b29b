//! `consolidate` — merge-vs-rebuild cost of update-manager consolidation.
//!
//! ```sh
//! cargo run -p rsse-bench --release --bin consolidate -- --out BENCH_pr10.json
//! cargo run -p rsse-bench --release --bin consolidate -- --smoke
//! ```
//!
//! Drives the same streaming-updates workload (nightly batches of inserts
//! plus churn against the previous batch, the `streaming_updates` example's
//! shape) through a persisted `UpdateManager<LogScheme>` three times:
//!
//! * **none**       — consolidation disabled (`s = 0`): the batch-build
//!   floor every consolidating run pays too;
//! * **rebuild**    — the paper's baseline: each due level is merged,
//!   filtered and re-encrypted under a fresh key;
//! * **structural** — re-encryption-free merges: levels are consolidated by
//!   copying the committed instances' ciphertext verbatim and compacting
//!   the owner sidecar to the deduped latest-per-id log.
//!
//! Each mode runs in its **own subprocess** (the binary re-executes itself
//! with `--child`) so peak RSS — `VmHWM` from `/proc/self/status` — is
//! per-mode. Every child answers the same query mix and reports a hash of
//! the sorted ids; the driver asserts the three modes agree before writing
//! the JSON report. The headline number is the consolidation-only cost
//! (mode wall minus the `none` floor) and the structural-over-rebuild
//! speedup it implies.

use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use rsse_core::schemes::log_brc_urc::LogScheme;
use rsse_cover::{Domain, Range};
use rsse_updates::{ConsolidationMode, OwnerKey, UpdateConfig, UpdateEntry, UpdateManager};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

const USAGE: &str = "\
usage: consolidate [OPTIONS]

options:
  --batches N     batches to ingest (default 48)
  --batch-size N  fresh inserts per batch (default 10000)
  --step N        consolidation step s (default 3)
  --shard-bits N  label-prefix shard bits (default 2)
  --seed N        workload/build RNG seed (default 7)
  --out PATH      where to write the JSON report (default BENCH_pr10.json)
  --smoke         CI-sized run: 16 batches x 1000 unless given explicitly
";

const DOMAIN: u64 = 1 << 16;

struct Opts {
    batches: u64,
    batch_size: u64,
    step: usize,
    shard_bits: u32,
    seed: u64,
    out: String,
    smoke: bool,
    /// Child mode: drive one manager, print one `RESULT {json}` line, exit.
    child: Option<String>,
    /// Child-only: the manager's storage root.
    dir: Option<PathBuf>,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        batches: 0,
        batch_size: 0,
        step: 3,
        shard_bits: 2,
        seed: 7,
        out: "BENCH_pr10.json".to_string(),
        smoke: false,
        child: None,
        dir: None,
    };
    let (mut batches_given, mut size_given) = (false, false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}\n{USAGE}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--batches" => {
                opts.batches = value("--batches").parse().expect("--batches");
                batches_given = true;
            }
            "--batch-size" => {
                opts.batch_size = value("--batch-size").parse().expect("--batch-size");
                size_given = true;
            }
            "--step" => opts.step = value("--step").parse().expect("--step"),
            "--shard-bits" => {
                opts.shard_bits = value("--shard-bits").parse().expect("--shard-bits")
            }
            "--seed" => opts.seed = value("--seed").parse().expect("--seed"),
            "--out" => opts.out = value("--out"),
            "--smoke" => opts.smoke = true,
            "--child" => opts.child = Some(value("--child")),
            "--dir" => opts.dir = Some(PathBuf::from(value("--dir"))),
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown option {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if !batches_given {
        opts.batches = if opts.smoke { 16 } else { 48 };
    }
    if !size_given {
        opts.batch_size = if opts.smoke { 1_000 } else { 10_000 };
    }
    opts
}

/// Peak resident set size of this process in bytes (`VmHWM`), 0 if the
/// kernel does not expose it (non-Linux).
fn peak_rss_bytes() -> u64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Batch `b` of the workload: `batch_size` fresh inserts plus churn — a
/// modify and a block of deletes against the previous batch.
fn batch_entries(opts: &Opts, b: u64) -> Vec<UpdateEntry> {
    let per = opts.batch_size;
    let value = |b: u64, i: u64| (opts.seed * 71 + b * 9_973 + i * 131) % DOMAIN;
    let mut entries: Vec<UpdateEntry> = (0..per)
        .map(|i| UpdateEntry::insert(b * per * 2 + i, value(b, i)))
        .collect();
    if b > 0 {
        entries.push(UpdateEntry::modify(
            (b - 1) * per * 2,
            (opts.seed * 31 + b * 53) % DOMAIN,
        ));
        for i in 1..per / 20 {
            entries.push(UpdateEntry::delete((b - 1) * per * 2 + i, value(b - 1, i)));
        }
    }
    entries
}

/// FNV-1a over the sorted ids of a fixed query mix: the cross-mode answer
/// fingerprint (structural and rebuild instances emit ids in different
/// internal orders, so the fingerprint sorts first).
fn answer_hash(manager: &UpdateManager<LogScheme>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (lo, hi) in [(0u64, DOMAIN - 1), (0, 9_999), (30_000, 45_000)] {
        let mut ids = manager.query(Range::new(lo, hi)).ids;
        ids.sort_unstable();
        for id in ids {
            for byte in id.to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

/// Total bytes of `owner.meta` sidecars under the root.
fn sidecar_bytes(root: &Path) -> u64 {
    fs::read_dir(root)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_dir())
        .filter_map(|dir| dir.join("owner.meta").metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// Child process: drive one manager in the requested mode and report on
/// stdout as a single `RESULT {json}` line.
fn run_child(opts: &Opts, mode: &str) -> ! {
    let dir = opts.dir.clone().expect("--dir is required with --child");
    let (step, consolidation_mode) = match mode {
        "none" => (0, ConsolidationMode::Rebuild),
        "rebuild" => (opts.step, ConsolidationMode::Rebuild),
        "structural" => (opts.step, ConsolidationMode::Structural),
        other => panic!("unknown child mode {other}"),
    };
    let config = UpdateConfig {
        consolidation_step: step,
        shard_bits: opts.shard_bits,
        storage_root: Some(dir.clone()),
        cache_budget: None,
        build_budget: None,
        consolidation_mode,
    };
    let key = OwnerKey::from_bytes([7u8; 32]);
    let manager: UpdateManager<LogScheme> =
        UpdateManager::with_key(key, Domain::new(DOMAIN), config);
    let started = Instant::now();
    for b in 0..opts.batches {
        let mut rng = ChaCha20Rng::seed_from_u64(opts.seed * 10_000 + b);
        manager.ingest_batch(batch_entries(opts, b), &mut rng);
    }
    let wall_ms = started.elapsed().as_millis();
    println!(
        "RESULT {{\"mode\":\"{mode}\",\"wall_ms\":{wall_ms},\"peak_rss_bytes\":{},\
         \"structural_consolidations\":{},\"rebuild_consolidations\":{},\
         \"active_instances\":{},\"sidecar_bytes\":{},\"answer_hash\":{}}}",
        peak_rss_bytes(),
        manager.structural_consolidations(),
        manager.rebuild_consolidations(),
        manager.active_instances(),
        sidecar_bytes(&dir),
        answer_hash(&manager),
    );
    std::process::exit(0);
}

struct ChildResult {
    wall_ms: u128,
    peak_rss_bytes: u64,
    structural: u64,
    rebuilds: u64,
    sidecar_bytes: u64,
    answer_hash: u64,
}

/// Spawns this binary as a child in `mode` and parses its `RESULT` line.
fn spawn_child(opts: &Opts, mode: &str, dir: &Path) -> ChildResult {
    let exe = std::env::current_exe().expect("current_exe");
    let output = Command::new(exe)
        .arg("--child")
        .arg(mode)
        .arg("--batches")
        .arg(opts.batches.to_string())
        .arg("--batch-size")
        .arg(opts.batch_size.to_string())
        .arg("--step")
        .arg(opts.step.to_string())
        .arg("--shard-bits")
        .arg(opts.shard_bits.to_string())
        .arg("--seed")
        .arg(opts.seed.to_string())
        .arg("--dir")
        .arg(dir)
        .output()
        .expect("spawn child drive");
    if !output.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&output.stderr));
        panic!("child drive ({mode}) failed: {}", output.status);
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("RESULT "))
        .expect("child RESULT line");
    let field = |name: &str| -> u128 {
        let key = format!("\"{name}\":");
        let rest = &line[line.find(&key).expect("field") + key.len()..];
        rest.chars()
            .take_while(|c| c.is_ascii_digit())
            .collect::<String>()
            .parse()
            .expect("field value")
    };
    ChildResult {
        wall_ms: field("wall_ms"),
        peak_rss_bytes: field("peak_rss_bytes") as u64,
        structural: field("structural_consolidations") as u64,
        rebuilds: field("rebuild_consolidations") as u64,
        sidecar_bytes: field("sidecar_bytes") as u64,
        answer_hash: field("answer_hash") as u64,
    }
}

fn main() {
    let opts = parse_opts();
    if let Some(mode) = opts.child.clone() {
        run_child(&opts, &mode);
    }

    let scratch = std::env::temp_dir().join(format!("rsse-consolidate-{}", std::process::id()));
    let mut results: Vec<(&str, ChildResult)> = Vec::new();
    for mode in ["none", "structural", "rebuild"] {
        let dir = scratch.join(mode);
        fs::create_dir_all(&dir).unwrap();
        println!(
            "{mode}: {} batches x {} inserts (s = {}) ...",
            opts.batches,
            opts.batch_size,
            if mode == "none" { 0 } else { opts.step }
        );
        let result = spawn_child(&opts, mode, &dir);
        println!(
            "  wall {} ms, peak RSS {:.1} MiB, {} structural / {} rebuild merges, \
             sidecars {:.1} KiB",
            result.wall_ms,
            result.peak_rss_bytes as f64 / (1 << 20) as f64,
            result.structural,
            result.rebuilds,
            result.sidecar_bytes as f64 / 1024.0
        );
        results.push((mode, result));
    }
    let _ = fs::remove_dir_all(&scratch);

    let none = &results[0].1;
    let structural = &results[1].1;
    let rebuild = &results[2].1;
    assert_eq!(
        structural.answer_hash, rebuild.answer_hash,
        "structural and rebuild consolidation answered differently"
    );
    assert_eq!(
        structural.answer_hash, none.answer_hash,
        "consolidation changed the answers"
    );
    assert!(structural.rebuilds == 0 && structural.structural > 0);

    // Consolidation-only cost: mode wall minus the batch-build floor the
    // non-consolidating drive measures (clamped — smoke runs are noisy).
    let structural_cost = structural.wall_ms.saturating_sub(none.wall_ms).max(1);
    let rebuild_cost = rebuild.wall_ms.saturating_sub(none.wall_ms).max(1);
    let speedup = rebuild_cost as f64 / structural_cost as f64;
    println!(
        "consolidation cost: structural {structural_cost} ms vs rebuild {rebuild_cost} ms \
         ({speedup:.2}x)"
    );

    let mode_json = |name: &str, r: &ChildResult| {
        format!(
            "    {{\"mode\": \"{name}\", \"wall_ms\": {}, \"peak_rss_bytes\": {}, \
             \"structural_consolidations\": {}, \"rebuild_consolidations\": {}, \
             \"sidecar_bytes\": {}}}",
            r.wall_ms, r.peak_rss_bytes, r.structural, r.rebuilds, r.sidecar_bytes
        )
    };
    let report = format!(
        "{{\n  \"source\": \"consolidate\",\n  \"scheme\": \"Logarithmic-BRC\",\n  \
         \"batches\": {},\n  \"batch_size\": {},\n  \"step\": {},\n  \"shard_bits\": {},\n  \
         \"seed\": {},\n  \"answers_identical\": true,\n  \
         \"structural_consolidation_ms\": {},\n  \"rebuild_consolidation_ms\": {},\n  \
         \"structural_speedup\": {:.4},\n  \"modes\": [\n{},\n{},\n{}\n  ]\n}}\n",
        opts.batches,
        opts.batch_size,
        opts.step,
        opts.shard_bits,
        opts.seed,
        structural_cost,
        rebuild_cost,
        speedup,
        mode_json("none", none),
        mode_json("structural", structural),
        mode_json("rebuild", rebuild),
    );
    fs::write(&opts.out, &report).expect("write report");
    println!("report written to {}:\n{report}", opts.out);
}
