//! Sample statistics, provenance and the printed report.
//!
//! A run prints human-readable lines (provenance, every metric by name
//! with its unit) and, as its last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

use gsd_io::IoStatsSnapshot;
use gsd_trace::Stopwatch;
use std::fmt::Write as _;
use std::path::Path;

/// Median of `samples` (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `samples` as a compact list, for the report's provenance lines.
pub fn samples(samples: &[f64]) -> String {
    let items: Vec<String> = samples.iter().map(|s| format!("{s:.4}")).collect();
    format!("[{}]", items.join(", "))
}

/// Ordered metric set: name → (value, unit).
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Sets `name`, replacing an earlier value.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(entry) => {
                entry.1 = value;
                entry.2 = unit;
            }
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    /// Adds `value` to `name` (absent counts as 0).
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        let sum = self.get(name).unwrap_or(0.0) + value;
        self.set(name, sum, unit);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Every entry in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.entries.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }
}

/// Operation accounting plus every correctness finding of a run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations issued (jobs, requests, verifications).
    pub attempted: u64,
    /// Operations that errored or returned a wrong answer.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one operation; `Err` records it as failed.
    pub fn record<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.failed += 1;
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts one check of `ok`.
    pub fn expect(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        let result = if ok { Ok(()) } else { Err(detail()) };
        self.record(what, result);
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Provenance lines (`key value`).
    pub provenance: Vec<(String, String)>,
    /// The reported metrics.
    pub metrics: Metrics,
    /// Informational metrics printed but not part of the JSON result.
    pub extra: Metrics,
    /// Correctness accounting.
    pub checks: Checks,
}

impl Outcome {
    /// Adds a provenance line.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.provenance.push((key.to_string(), value.to_string()));
    }

    /// Renders the human-readable report and the final JSON line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.provenance {
            let _ = writeln!(out, "# {k}: {v}");
        }
        for f in &self.checks.failures {
            let _ = writeln!(out, "# FAILED {f}");
        }
        for (name, value, unit) in self.extra.iter().chain(self.metrics.iter()) {
            let _ = writeln!(out, "{name:<28} {value:>14.6} {unit}");
        }
        let correct = self.checks.failed == 0 && self.checks.attempted > 0;
        let mut json = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.checks.attempted.max(1),
            self.checks.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        json.push_str("}}");
        out.push_str(&json);
        out.push('\n');
        out
    }
}

/// A finite JSON number; non-finite values (a bug upstream) print as 0
/// so the line stays parseable, and are caught by the metric checks.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// Wall seconds of one timed interval, raw and net of host steal.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// `wall_s` net of the CPU share the host stole meanwhile.
    pub net_s: f64,
}

impl Timed {
    /// `wall_s` measured inside the interval of `watch`.
    pub fn of(wall_s: f64, watch: &StealWatch) -> Timed {
        Timed {
            wall_s,
            net_s: watch.net(wall_s),
        }
    }
}

/// Sets the end-to-end metrics from the set-up times and, per untraced
/// unit of work, its time and accounted I/O. Times are reported net of
/// host steal; the raw wall medians are printed alongside.
pub fn end_to_end(out: &mut Outcome, setups: &[Timed], units: &[(Timed, IoStatsSnapshot)]) {
    let of =
        |f: fn(&(Timed, IoStatsSnapshot)) -> f64| median(&units.iter().map(f).collect::<Vec<_>>());
    let setup = |f: fn(&Timed) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    out.extra.set("setup_wall_s", setup(|t| t.wall_s), "s");
    out.extra.set("job_wall_s", of(|u| u.0.wall_s), "s");
    let m = &mut out.metrics;
    m.set("setup_s", setup(|t| t.net_s), "s");
    m.set("job_s", of(|u| u.0.net_s), "s");
    m.set("read_mb", of(|u| u.1.read_bytes() as f64 / 1e6), "MB");
    m.set("write_mb", of(|u| u.1.write_bytes as f64 / 1e6), "MB");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    let failed_frac = out.checks.failed as f64 / out.checks.attempted.max(1) as f64;
    out.extra.set("failed_frac", failed_frac, "ratio");
}

/// The commit the checkout was built from, read from `.git` without
/// spawning git; `unknown` outside a git checkout.
pub fn commit() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&git.join(reference)) {
        return id.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `(nproc, CPU model, kernel release)` of the host.
pub fn host() -> (usize, String, String) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|k| k.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    (nproc, cpu, kernel)
}

/// CPU time the hypervisor gave to other guests (`steal` in
/// `/proc/stat`), in seconds summed over CPUs; `None` where unreadable.
fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    // USER_HZ is 100 on every Linux target.
    Some(ticks / 100.0)
}

/// A stopwatch that also reads how much CPU time the host stole from
/// this machine while it ran.
pub struct StealWatch {
    watch: Stopwatch,
    steal: Option<f64>,
}

impl StealWatch {
    /// Starts both clocks.
    pub fn start() -> Self {
        StealWatch {
            steal: steal_s(),
            watch: Stopwatch::start(),
        }
    }

    /// Wall seconds since the start.
    pub fn elapsed_s(&self) -> f64 {
        self.watch.elapsed().as_secs_f64()
    }

    /// Share of this machine's CPU time the host stole since the start
    /// (0 where `/proc/stat` is unreadable).
    pub fn share(&self) -> f64 {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let wall = self.elapsed_s();
        match (self.steal, steal_s()) {
            (Some(a), Some(b)) if wall > 0.0 => ((b - a) / (wall * nproc)).clamp(0.0, 1.0),
            _ => 0.0,
        }
    }

    /// `wall_s`, a part of this watch's interval, net of the share the
    /// host stole over the interval: the time the work would have taken
    /// had the host not taken the CPU away. Equals `wall_s` on a machine
    /// nothing steals from.
    pub fn net(&self, wall_s: f64) -> f64 {
        wall_s * (1.0 - self.share())
    }
}

/// Peak resident set size of this process in MB.
pub fn peak_rss_mb() -> f64 {
    gsd_metrics::rss::peak_rss_bytes().unwrap_or(0) as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
    }

    #[test]
    fn json_line_is_last_and_complete() {
        let mut o = Outcome::default();
        o.metrics.set("job_s", 1.25, "s");
        o.checks.expect("x", true, String::new);
        let text = o.render();
        let last = text.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"job_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
