//! Result reporting: named metrics with units, answer digests, medians and
//! the final one-line JSON object.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures; any entry makes the run incorrect.
    errors: Vec<String>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Takes in another part's counts and failed checks, and each of its
    /// metrics this report does not have yet.
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        for m in other.metrics {
            if !self.metrics.iter().any(|have| have.name == m.name) {
                self.metrics.push(m);
            }
        }
    }

    /// Records a correctness check; a failed check is printed at once.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("perfbench: CHECK FAILED: {}", msg);
            self.errors.push(msg);
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Prints every metric as `name value unit`, then the result object as
    /// the last line of standard output.
    pub fn print(&self) {
        for m in &self.metrics {
            println!("{:<34} {:>14} {}", m.name, fmt_num(m.value), m.unit);
        }
        println!(
            "attempted {} failed {} fail_ratio {} fraction",
            self.attempted,
            self.failed,
            fmt_num(self.failed as f64 / self.attempted.max(1) as f64)
        );
        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                line.push_str(", ");
            }
            let _ = write!(
                line,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_num(m.value),
                m.unit
            );
        }
        line.push_str("}}");
        println!("{}", line);
    }
}

/// A finite number with all its digits (JSON has no NaN or infinity).
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{}", v)
    } else {
        "0".to_string()
    }
}

/// FNV-1a over the answers a workload produced, so two runs can be compared
/// by one line.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn f64s(&mut self, vs: &[f64]) {
        for &v in vs {
            self.f64(v);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per-item latencies: `by_pass[p][i]` is item `i`'s latency in pass `p`.
/// Returns each item's fastest latency over the passes, sorted: a slow
/// stretch of host time only ever adds time, so with two passes one slow
/// pass moves no item.
pub fn item_best(by_pass: &[Vec<f64>]) -> Vec<f64> {
    let items = by_pass.iter().map(Vec::len).min().unwrap_or(0);
    let mut out: Vec<f64> = (0..items)
        .map(|i| by_pass.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .collect();
    out.sort_by(f64::total_cmp);
    out
}

/// Nearest-rank percentile, `q` in [0, 1], of an ascending-sorted sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Peak resident set size (VmHWM) of a process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{}/status", p),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
