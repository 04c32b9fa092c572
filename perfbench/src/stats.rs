//! Order statistics and process-memory readings.

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Median of nanosecond samples, in microseconds.
pub fn median_us(ns: &[u64]) -> f64 {
    let us: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    median(&us)
}

/// Mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The tail of a latency sample: the highest percentile on a fixed
/// ladder that still has at least `min_beyond` samples above it.
pub struct Tail {
    /// The percentile reported.
    pub percentile: f64,
    /// Its value, in microseconds.
    pub value_us: f64,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
}

/// Percentile ladder the tail is chosen from, highest first. It tops
/// out at p99: on a two-vCPU VM, p99.9 of the thread-spawning fan-out
/// path moved by 70% between identical runs.
const LADDER: [f64; 6] = [99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// See [`Tail`]; `None` when fewer than `min_beyond + 1` samples exist.
pub fn tail(ns: &[u64], min_beyond: usize) -> Option<Tail> {
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    LADDER.iter().find_map(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let idx = rank.clamp(1, n) - 1;
        let beyond = n - idx - 1;
        (n > 0 && beyond >= min_beyond).then(|| Tail {
            percentile: p,
            value_us: sorted[idx] as f64 / 1e3,
            beyond,
        })
    })
}

/// A `/proc/self/status` field in KiB (`VmHWM`), or 0 where the file is
/// unavailable.
fn status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM") as f64 / 1024.0
}
