//! Small helpers shared by the benchmark: the seeded generator, order
//! statistics, process counters and JSON text.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// splitmix64: the only source of randomness in the benchmark. The
/// program under test never sees the seed, only the inputs made from it.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Median of a sample (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Quartile cut points `[q1, q2, q3]`, computed like Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) so the numbers
/// printed here match the ones the acceptance driver derives. A sample
/// of one has no spread: all three cut points are that value.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Nearest-rank percentile (`p` in `0..=100`) of a sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Seconds `f` took, and its value.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Median seconds per call of `f` over `calls` calls.
pub fn median_call_s(calls: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..calls).map(|_| timed(&mut f).0).collect();
    median(&samples)
}

fn proc_status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` where
/// `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    proc_status_kb("VmHWM:").map(|kb| kb / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has used, from
/// `/proc/self/stat` at the kernel's 100 Hz tick.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut it = rest.split_whitespace().skip(11);
    let utime: f64 = it.next()?.parse().ok()?;
    let stime: f64 = it.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Cores the scheduler gives this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The benchmark's own directory (`benchmark/` in the checkout the
/// binary was built from). Everything the benchmark writes goes under
/// its `out/` child, so a run never touches a file outside the checkout.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// A fresh scratch directory under `benchmark/out/tmp/`, unique to this
/// process and `tag`.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = bench_dir()
        .join("out")
        .join("tmp")
        .join(format!("{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir under benchmark/out");
    dir
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number with every digit of the measurement (`null` for a value
/// JSON cannot hold).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), [1.25, 3.0, 7.0]);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(2008);
        let mut b = SplitMix64::new(2008);
        assert_eq!(a.next_u64(), b.next_u64());
        assert!(a.unit() < 1.0);
        assert!(b.below(16) < 16);
    }
}
