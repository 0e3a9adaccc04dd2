//! Log₂-bucketed histograms and the metrics registry behind the flight
//! recorder.
//!
//! Recording a value costs one leading-zeros instruction and an array
//! increment — no allocation, no locking — so histograms are safe to feed
//! from the execution hot path. Quantiles come back as the *upper bound* of
//! the bucket the rank lands in (capped at the observed maximum), which is
//! the usual trade for log-bucketed sketches: at most 2× relative error,
//! zero per-sample cost.

/// Metric name: nanoseconds a worker spent servicing one morsel (claim to
/// completion, including the subtree drive and gather sends).
pub const MORSEL_SERVICE_NS: &str = "morsel_service_ns";

/// Metric name: tuples resident in a buffer's pointer array when the parent
/// finished draining it.
pub const BUFFER_OCCUPANCY: &str = "buffer_occupancy_rows";

/// Metric name: tuples stored by one buffer refill pass (the fill granule).
pub const FILL_GRANULE_ROWS: &str = "fill_granule_rows";

/// Number of buckets: one for the value 0, then one per power of two up to
/// `u64::MAX`.
const BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds exactly the value 0; bucket `i` (for `i >= 1`) holds
/// values in `[2^(i-1), 2^i)`.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

/// Bucket index for a value: 0 for 0, otherwise `64 - leading_zeros`.
fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (0 for bucket 0, `2^i - 1` above).
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, ob) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += ob;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample observed (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`q` in `[0, 1]`) as the upper bound of the bucket
    /// the rank falls into, capped at the observed maximum. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Condensed view for reports.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            p50: self.p50(),
            p95: self.p95(),
            p99: self.p99(),
            max: self.max,
        }
    }
}

/// The quantile digest of one histogram, ready for rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSummary {
    /// Samples recorded.
    pub count: u64,
    /// Median estimate.
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Largest sample observed.
    pub max: u64,
}

/// A small named-histogram registry.
///
/// Insertion-ordered with linear-scan lookup — the flight recorder tracks a
/// handful of well-known metrics (see the `*_NS`/`*_ROWS` constants), so a
/// hash map would cost more than it saves.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    entries: Vec<(String, Histogram)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Record one sample under `name`, creating the histogram on first use.
    pub fn record(&mut self, name: &str, v: u64) {
        match self.entries.iter_mut().find(|(n, _)| n == name) {
            Some((_, h)) => h.record(v),
            None => {
                let mut h = Histogram::new();
                h.record(v);
                self.entries.push((name.to_string(), h));
            }
        }
    }

    /// Fold every histogram of `other` into `self`.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, oh) in &other.entries {
            match self.entries.iter_mut().find(|(n, _)| n == name) {
                Some((_, h)) => h.merge(oh),
                None => self.entries.push((name.clone(), oh.clone())),
            }
        }
    }

    /// The histogram registered under `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Histogram> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// True when no histogram holds any sample.
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(|(_, h)| h.count() == 0)
    }

    /// `(name, summary)` for every non-empty histogram, insertion order.
    pub fn summaries(&self) -> Vec<(String, HistSummary)> {
        self.entries
            .iter()
            .filter(|(_, h)| h.count() > 0)
            .map(|(n, h)| (n.clone(), h.summary()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn quantiles_bound_the_samples() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        // p50 rank is 500 -> bucket [256,512) -> upper 511.
        assert_eq!(h.p50(), 511);
        // p99 and p100 land in the last bucket, capped at max.
        assert_eq!(h.p99(), 1000);
        assert_eq!(h.quantile(1.0), 1000);
        // A quantile never exceeds the true max or undercuts by more than 2x.
        for q in [0.1, 0.5, 0.9, 0.95, 0.99] {
            let est = h.quantile(q);
            let exact = (q * 1000.0).ceil() as u64;
            assert!(est >= exact / 2 && est <= 1000, "q={q} est={est}");
        }
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(
            (h.count(), h.p50(), h.p95(), h.p99(), h.max()),
            (0, 0, 0, 0, 0)
        );
    }

    #[test]
    fn merge_is_additive() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..100 {
            a.record(v);
            b.record(v * 10);
        }
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.count(), 200);
        assert_eq!(m.sum(), a.sum() + b.sum());
        assert_eq!(m.max(), 990);
    }

    #[test]
    fn registry_routes_by_name_and_merges() {
        let mut r = MetricsRegistry::new();
        r.record(MORSEL_SERVICE_NS, 100);
        r.record(FILL_GRANULE_ROWS, 5);
        r.record(MORSEL_SERVICE_NS, 200);
        let mut other = MetricsRegistry::new();
        other.record(MORSEL_SERVICE_NS, 300);
        other.record(BUFFER_OCCUPANCY, 42);
        r.merge(&other);
        assert_eq!(r.get(MORSEL_SERVICE_NS).map(Histogram::count), Some(3));
        assert_eq!(r.get(FILL_GRANULE_ROWS).map(Histogram::count), Some(1));
        assert_eq!(r.get(BUFFER_OCCUPANCY).map(Histogram::count), Some(1));
        let names: Vec<_> = r.summaries().into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            vec![MORSEL_SERVICE_NS, FILL_GRANULE_ROWS, BUFFER_OCCUPANCY]
        );
        assert!(!r.is_empty());
        assert!(MetricsRegistry::new().is_empty());
    }

    #[test]
    fn empty_registry_snapshot_is_empty() {
        let r = MetricsRegistry::new();
        assert!(r.summaries().is_empty());
        assert!(r.get(MORSEL_SERVICE_NS).is_none());
        // A registry whose histograms all hold zero samples summarizes to
        // nothing, same as a never-touched one.
        let mut touched = MetricsRegistry::new();
        touched.merge(&MetricsRegistry::new());
        assert!(touched.summaries().is_empty() && touched.is_empty());
    }

    #[test]
    fn single_sample_pins_every_percentile() {
        for v in [0u64, 1, 7, 1 << 40, u64::MAX] {
            let mut h = Histogram::new();
            h.record(v);
            let s = h.summary();
            assert_eq!(
                (s.count, s.p50, s.p95, s.p99, s.max),
                (1, v, v, v, v),
                "single sample {v} must be every percentile"
            );
        }
    }

    #[test]
    fn top_bucket_saturates_without_overflow() {
        let mut h = Histogram::new();
        // Everything at and beyond 2^63 lands in the final bucket; the
        // nominal upper bound there is u64::MAX, so quantiles saturate at
        // the observed max instead of wrapping.
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(1u64 << 63);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(64), u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.p50(), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        // The sum accumulator is also saturating, not wrapping.
        assert_eq!(h.sum(), u64::MAX);
    }

    #[test]
    fn merge_of_disjoint_registries_keeps_both_sides() {
        let mut a = MetricsRegistry::new();
        a.record(MORSEL_SERVICE_NS, 10);
        let mut b = MetricsRegistry::new();
        b.record(FILL_GRANULE_ROWS, 99);
        a.merge(&b);
        assert_eq!(a.get(MORSEL_SERVICE_NS).map(Histogram::count), Some(1));
        assert_eq!(a.get(FILL_GRANULE_ROWS).map(Histogram::count), Some(1));
        assert_eq!(a.get(FILL_GRANULE_ROWS).map(Histogram::max), Some(99));
        // Merging into an empty registry clones the source series wholesale.
        let mut empty = MetricsRegistry::new();
        empty.merge(&a);
        assert_eq!(empty.summaries(), a.summaries());
        // And the source is untouched by being merged from.
        assert_eq!(b.get(FILL_GRANULE_ROWS).map(Histogram::count), Some(1));
        assert!(b.get(MORSEL_SERVICE_NS).is_none());
    }
}
