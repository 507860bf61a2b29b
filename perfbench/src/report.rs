//! Small statistics helpers and the one-line JSON result a child process
//! prints for `run.py`.

use crate::spans::Tracer;
use std::fmt::Write;
use std::path::Path;
use std::time::{Duration, Instant};

pub const MIB: f64 = 1024.0 * 1024.0;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` (0 for no samples).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), in bytes.
pub fn proc_status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.file_type() {
            Ok(kind) if kind.is_dir() => dir_bytes(&entry.path()),
            Ok(_) => entry.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// Calls `open` `warmup` times untimed, then again and again for `window`
/// (at least once), and returns the timed calls in ms with the last result.
/// The warm-up calls pay for the fresh process's first heap growth; the
/// window is long enough that a sub-second burst of load on the host cannot
/// move the median.
pub fn time_repeated<T>(
    warmup: usize,
    window: Duration,
    mut open: impl FnMut() -> T,
) -> (Vec<f64>, T) {
    let mut last = None;
    for _ in 0..warmup {
        drop(last.take());
        last = Some(open());
    }
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.is_empty() || started.elapsed() < window {
        drop(last.take());
        let start = Instant::now();
        last = Some(open());
        samples.push(ms(start.elapsed()));
    }
    (samples, last.expect("at least one timed call"))
}

/// Removes `dir` and everything under it, if it exists.
pub fn remove_tree(dir: &Path) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    Ok(())
}

/// Flushes every file under `dir` to disk. Set-up calls it once, untimed,
/// so the kernel's writeback of the set-up's files does not run inside
/// the measured phase.
pub fn sync_tree(dir: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            sync_tree(&entry.path())?;
        } else {
            std::fs::File::open(entry.path())?.sync_all()?;
        }
    }
    std::fs::File::open(dir)?.sync_all()
}

/// A child's result: counts, named metrics, provenance strings and the
/// self times of its spans.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
    info: Vec<(&'static str, String)>,
    self_times: String,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics
            .push((name, if value.is_finite() { value } else { 0.0 }));
    }

    pub fn info(&mut self, key: &'static str, value: impl ToString) {
        self.info.push((key, value.to_string()));
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn self_times(&mut self, tracer: &Tracer) {
        let entries: Vec<String> = tracer
            .self_times()
            .into_iter()
            .map(|(name, (count, total, own))| {
                format!(
                    "\"{name}\":{{\"count\":{count},\"total_ms\":{},\"self_ms\":{}}}",
                    total as f64 / 1e6,
                    own as f64 / 1e6
                )
            })
            .collect();
        self.self_times = entries.join(",");
    }

    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.attempted, self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            write!(out, "{sep}\"{name}\":{value:?}").expect("write to String");
        }
        out.push_str("},\"info\":{");
        for (i, (key, value)) in self.info.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let value = value.replace('\\', "\\\\").replace('"', "\\\"");
            write!(out, "{sep}\"{key}\":\"{value}\"").expect("write to String");
        }
        write!(out, "}},\"self_time_ms\":{{{}}}}}", self.self_times).expect("write to String");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), 50.0);
        assert_eq!(percentile(&values, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn report_json_is_one_object() {
        let mut report = Report::default();
        report.check(true);
        report.check(false);
        report.metric("a.b", 1.5);
        report.metric("nan", f64::NAN);
        report.info("k", "v\"q");
        let json = report.to_json();
        assert!(
            json.starts_with("{\"attempted\":2,\"failed\":1,\"metrics\":{\"a.b\":1.5,\"nan\":0.0}")
        );
        assert!(json.contains("\"k\":\"v\\\"q\""));
    }
}
