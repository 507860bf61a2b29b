#!/usr/bin/env python3
"""Runs the RSSE benchmark: one workload, or all of them.

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the repository root. It builds the `perfbench` package (release,
offline) into `$CARGO_TARGET_DIR` (default `perfbench/target`) and runs each
workload as three child processes under a temporary directory in
`.bench_work/`:

* `perfbench setup` builds (read workloads) or preloads (`ingest_read`) the
  index several times and reports the median set-up time;
* `perfbench run` serves the last one for `--seconds`, checks every answer
  against the benchmark's own plaintext model, and reports the end-to-end
  metrics (`--trace 0`) or the per-layer ones (`--trace 1`);
* `perfbench open` times repeated opens of the index in a fresh process.

The metric names and units come from BENCHMARK.json. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. The exit code is non-zero if any answer was wrong
or any step failed. README.md in this directory describes the workloads and
every metric.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("read_hot", "read_cold", "ingest_read")
# One workload must finish within this many seconds (the build excluded).
WORKLOAD_DEADLINE_S = 170
STAGE_SHARE_FLAG = 0.9


class BenchError(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="check answers against a deliberately wrong model (must fail)")
    return parser.parse_args(argv)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Builds the benchmark binary and returns its path."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    result = subprocess.run(cmd, stdout=sys.stderr, env=env, timeout=880)
    if result.returncode != 0:
        raise BenchError(f"cargo build failed with exit code {result.returncode}")
    return os.path.join(target, "release", "perfbench")


def source_digest():
    """SHA-256 over the sources the benchmark builds, for provenance."""
    digest = hashlib.sha256()
    for top in ("Cargo.lock", "crates", "vendor", os.path.join("perfbench", "src"),
                os.path.join("perfbench", "Cargo.toml")):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        return "none (git unavailable)"


def child(binary, phase, workload, seed, index_dir, extra, deadline):
    """Runs one child phase and returns its JSON result."""
    cmd = [binary, phase, "--workload", workload, "--seed", str(seed), "--dir", index_dir] + extra
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"{workload}: no time left for {phase}")
    try:
        # `run` kills the child and waits for it if the timeout expires.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: {phase} timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: {phase} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(binary, workload, args, spec):
    """Set-up and run phases of one workload; returns the merged result."""
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root)
    flags = (["--smoke"] if args.smoke else []) + (["--corrupt-oracle"] if args.corrupt_oracle else [])
    try:
        index_dir = os.path.join(tmp, "index")
        setup = child(binary, "setup", workload, args.seed, index_dir, flags, deadline)
        common = ["--seconds", str(args.seconds)] + flags
        if "budget_bytes" in setup["info"]:
            common += ["--budget", setup["info"]["budget_bytes"]]
        extra = ["--trace", str(args.trace)]
        if args.trace:
            extra += ["--spans", os.path.join(work_root, f"spans-{workload}.jsonl")]
        run = child(binary, "run", workload, args.seed, index_dir, common + extra, deadline)
        reopen = child(binary, "open", workload, args.seed, index_dir, common, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.listdir(work_root):
            os.rmdir(work_root)
    kind = "per_layer" if args.trace else "end_to_end"
    measured = {**run["metrics"], **setup["metrics"], **reopen["metrics"]}
    missing = [m["name"] for m in spec[kind] if m["name"] not in measured]
    if missing:
        raise BenchError(f"{workload}: metrics not measured: {', '.join(missing)}")
    return {
        "attempted": run["attempted"] + reopen["attempted"],
        "failed": run["failed"] + reopen["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in spec[kind]},
        "info": {**setup["info"], **run["info"], **reopen["info"]},
        "self_time_ms": run["self_time_ms"],
    }


def print_report(workload, args, result):
    info = result["info"]
    print(f"== {workload}  seed={args.seed} seconds={args.seconds} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}")
    inputs = [f"{key}={info[key]}" for key in ("dataset_digest", "query_digest", "schedule_digest")
              if key in info]
    print("   inputs: " + " ".join(inputs))
    for name, metric in result["metrics"].items():
        print(f"   {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"   {'failed_frac':<34} {failed / attempted if attempted else 1.0:>14.6g} ratio"
          f"  ({failed} of {attempted} operations failed or answered wrong)")
    share = result["metrics"].get("sse.stage_share", {}).get("value", 0)
    if 0 < share < STAGE_SHARE_FLAG:
        print(f"   FLAG sse.stage_share {share:.3f} < {STAGE_SHARE_FLAG}: the replayed"
              " stages leave part of the scan unaccounted")
    if result["self_time_ms"]:
        print("   spans (self time from the traced calls):")
        for name, t in sorted(result["self_time_ms"].items()):
            print(f"     {name:<32} n={t['count']:<7} total={t['total_ms']:.3f} ms"
                  f"  self={t['self_ms']:.3f} ms")
    extra = {k: v for k, v in info.items() if not k.endswith("_digest")}
    print("   info: " + " ".join(f"{k}={v}" for k, v in sorted(extra.items())))


def main(argv):
    args = parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds < 1:
        raise BenchError("--seconds must be at least 1")
    binary = build()
    print(f"perfbench: nproc={os.cpu_count()} commit={git_commit()} source={source_digest()}"
          " profile=release page_cache=warm (the set-up process writes the index just before"
          " the run) flush=none (the program never fsyncs)")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        results[workload] = run_workload(binary, workload, args, spec)
        print_report(workload, args, results[workload])
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{w}/{name}": m for w, r in results.items() for name, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, OSError, subprocess.SubprocessError, json.JSONDecodeError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
