//! Result bookkeeping shared by every workload: metric names and units,
//! percentile selection, operation accounting, and the one-line JSON
//! result the benchmark prints last.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Operations attempted and failed in one run. A failed or refused
/// operation and an output that disagrees with the offline reference
/// both count as failures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Counts one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Share of attempted operations that succeeded.
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        1.0 - self.failed as f64 / self.attempted as f64
    }
}

/// A finished run: its accounting plus every metric it measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub ops: Ops,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Adds a metric. Names are checked here, so a typo fails the run
    /// instead of reaching the result line.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(
            !self.metrics.iter().any(|m| m.name == name),
            "metric {name:?} reported twice"
        );
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `correct` holds when every attempted operation
    /// succeeded and every value is a finite number.
    pub fn json(&self) -> String {
        let correct = self.ops.attempted > 0
            && self.ops.failed == 0
            && self.metrics.iter().all(|m| m.value.is_finite());
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.ops.attempted, self.ops.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest string that reads back as the
            // same f64: every digit measured, nothing invented.
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_owned()
            };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Metric names: a letter or digit first, then at most 63 more letters,
/// digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes
            .iter()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The value at percentile `p` (0–100) of `sorted`, nearest-rank.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentile reported as `op_ms_p90`. Higher percentiles of a
/// closed-loop serve run on a shared two-core host mostly measure
/// scheduler time slices, which move by more than any bound between runs.
pub const TAIL_PCT: usize = 90;

/// Nearest rank (1-based) of the highest percentile, at most
/// `TAIL_PCT`, that still has at least ten of `n` samples above it, with
/// that percentile; `None` when there are too few samples. A tail read
/// from fewer samples is a single outlier.
pub fn tail_rank(n: usize) -> Option<(usize, f64)> {
    if n < 11 {
        return None;
    }
    let at = (n * TAIL_PCT).div_ceil(100);
    Some(if at <= n - 10 {
        (at, TAIL_PCT as f64)
    } else {
        (n - 10, 100.0 * (n - 10) as f64 / n as f64)
    })
}

/// The tail latency reported as `op_ms_p90`: p90 when at least ten
/// samples lie beyond it, else the highest percentile above the median
/// that has ten, else (under 20 samples) the maximum. Returns the value
/// and the percentile used (100 = max).
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    assert!(n > 0, "tail of no samples");
    match tail_rank(n) {
        Some((rank, p)) if 2 * rank >= n => (sorted[rank - 1], p),
        _ => (sorted[n - 1], 100.0),
    }
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `(steal, total)` CPU ticks of the host so far, from `/proc/stat`:
/// time this machine's virtual CPUs wanted to run but were not given.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_validated() {
        for ok in ["setup_s", "serve.stage.parse_s", "p-99", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "with space",
            "a/b",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn report_rejects_bad_names() {
        Report::default().push("bad name", 1.0, "s");
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p90 of 100 samples has exactly ten above it.
        assert_eq!(tail_rank(100), Some((90, 90.0)));
        assert_eq!(tail_rank(5000), Some((4500, 90.0)));
        // 50 samples support only p80.
        assert_eq!(tail_rank(50), Some((40, 80.0)));
        assert_eq!(tail_rank(11).map(|r| r.0), Some(1));
        assert_eq!(tail_rank(10), None);
        // The chosen rank always leaves ten samples above it.
        for n in [20usize, 57, 99, 100, 101, 333, 4321] {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let (at, p) = tail(&v);
            assert!(v.iter().filter(|&&x| x > at).count() >= 10, "n={n} p={p}");
            assert!((50.0..=90.0).contains(&p), "n={n} p={p}");
        }
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (900.0, 90.0));
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&few), (19.0, 100.0));
        let some: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&some), (30.0, 75.0));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn json_reports_failures_as_incorrect() {
        let mut r = Report::default();
        r.ops.record(true);
        r.push("latency_ms", 1.25, "ms");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        r.ops.record(false);
        assert!(r
            .json()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
        assert_eq!(r.ops.ok_share(), 0.5);
    }
}
