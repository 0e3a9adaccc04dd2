//! Order statistics, load generators and process readers for the benchmark.
//!
//! Every timing the benchmark reports is a median (of blocks, of requests or
//! of probe batches), never the mean of the last batch, so one preempted
//! batch cannot move a number.

use bufferdb::types::Rng;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// `values` sorted ascending (all values are finite measurements).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an ascending slice (mean of the middle two when even).
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of an unsorted sample.
pub fn median_of(values: &[f64]) -> f64 {
    median(&sorted(values))
}

/// Five-number summary with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Interquartile range as a share of the median: the spread the
    /// benchmark contract gates on.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (exclusive method), so spreads printed here match the acceptance check.
pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "summary of an empty sample");
    let quartile = |k: usize| -> f64 {
        if n == 1 {
            return s[0];
        }
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let frac = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    Summary {
        n,
        min: s[0],
        q1: quartile(1),
        median: median(&s),
        q3: quartile(3),
        max: s[n - 1],
    }
}

/// Nearest-rank percentile `p` (in `(0, 100)`) of an ascending slice, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it: such a tail
/// is too thin to report.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile out of range");
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Zipf(θ) sampler over ranks `0..n` (rank 0 most popular).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "zipf over an empty domain");
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.gen_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One exponential inter-arrival gap of a Poisson process, in nanoseconds.
pub fn poisson_gap_ns(rng: &mut Rng, rate_per_s: f64) -> u64 {
    let gap = -(1.0 - rng.gen_f64()).ln() * 1e9 / rate_per_s;
    (gap.round() as u64).max(1)
}

/// `/proc/<pid>/stat` reports CPU time in `USER_HZ` ticks, which Linux fixes
/// at 100 for every architecture it exposes `/proc` on.
const USER_HZ: f64 = 100.0;

/// utime + stime in seconds from the text of `/proc/self/stat`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    // The command name (field 2) may contain spaces and parentheses; the
    // numeric fields start after the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// `VmHWM` (peak resident set) in MiB from the text of `/proc/self/status`.
pub fn parse_peak_rss_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_seconds(&s))
        .expect("readable /proc/self/stat")
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_peak_rss_mib(&s))
        .expect("readable /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert_eq!(median_of(&[9.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let s = summarize(&[40.0, 10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (10.0, 20.0, 40.0));
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), Some(190.0));
        assert_eq!(percentile(&v, 50.0), Some(100.0));
        // 199 samples leave 9 beyond the 95th.
        assert_eq!(percentile(&v[..199], 95.0), None);
        assert_eq!(percentile(&v[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&v[..19], 50.0), None);
    }

    #[test]
    fn a_median_over_blocks_ignores_one_slow_block() {
        // Block rates of 100 work/s with one block preempted tenfold.
        let s = summarize(&[100.0, 100.0, 10.0, 100.0, 100.0]);
        assert_eq!(s.median, 100.0);
        assert_eq!(median_of(&[100.0, 10.0, 100.0]), 100.0);
    }

    #[test]
    fn zipf_is_seeded_and_skewed() {
        let z = Zipf::new(96, 1.0);
        let draw = |seed| {
            let mut rng = Rng::seed_from_u64(seed);
            (0..20_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7));
        assert_ne!(a, draw(8));
        let count = |r| a.iter().filter(|&&x| x == r).count() as f64;
        // P(rank 0) = 1/H_96 ≈ 0.194; rank 0 is drawn ~2x as often as rank 1.
        assert!((count(0) / 20_000.0 - 0.194).abs() < 0.02);
        assert!((count(0) / count(1) - 2.0).abs() < 0.3);
        assert!(a.iter().all(|&r| r < 96));
    }

    #[test]
    fn poisson_gaps_have_the_requested_mean() {
        let mut rng = Rng::seed_from_u64(3);
        let n = 50_000;
        let total: u64 = (0..n).map(|_| poisson_gap_ns(&mut rng, 1000.0)).sum();
        let mean_ms = total as f64 / n as f64 / 1e6;
        assert!((mean_ms - 1.0).abs() < 0.03, "mean gap {mean_ms} ms");
    }

    #[test]
    fn proc_readers_parse_fixed_text() {
        let stat = "4242 (a b) c) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100 0 0";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
        assert_eq!(parse_cpu_seconds("garbage"), None);
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_peak_rss_mib(status), Some(2.0));
        assert_eq!(parse_peak_rss_mib("Name:\tx\n"), None);
    }

    #[test]
    fn proc_readers_work_on_this_process() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
