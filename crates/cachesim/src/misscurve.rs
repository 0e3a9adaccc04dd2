//! Miss-curve analysis: steady-state i-cache miss rate of an execution
//! pattern as a function of cache capacity.
//!
//! The paper's whole argument hinges on where a pipeline's combined
//! footprint sits relative to the L1i capacity (and on L1 caches *not*
//! growing: §3, "larger L1 caches are slower … and may slow down the
//! processor clock"). This utility sweeps capacities and reports the
//! per-iteration miss count of an interleaved (PCPC) versus batched
//! (PCC…PP…) execution of two code regions — making the capacity cliff and
//! the buffering plateau visible directly, independent of the query engine.

use crate::cache::Cache;
use crate::config::CacheConfig;
use crate::layout::{CodeLayout, CodeRegion, SegmentSpec};

/// One capacity point of a miss curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissPoint {
    /// Cache capacity in bytes.
    pub capacity: usize,
    /// Steady-state misses per iteration, interleaved execution.
    pub interleaved: f64,
    /// Steady-state misses per iteration, batched execution (batch = 100).
    pub batched: f64,
}

fn fetch_region(cache: &mut Cache, region: &CodeRegion) -> u64 {
    let before = cache.misses();
    for seg in region.segments() {
        for &addr in seg.lines(cache.config().line_size) {
            cache.access(addr);
        }
    }
    cache.misses() - before
}

/// Sweep L1i capacities for two synthetic footprints of `parent_bytes` and
/// `child_bytes`, returning one [`MissPoint`] per capacity. Capacities must
/// yield power-of-two set counts with 64 B lines and 8 ways.
pub fn sweep(parent_bytes: usize, child_bytes: usize, capacities: &[usize]) -> Vec<MissPoint> {
    const WARMUP: usize = 20;
    const MEASURE: usize = 100;
    const BATCH: usize = 100;
    capacities
        .iter()
        .map(|&capacity| {
            let cfg = CacheConfig {
                capacity,
                line_size: 64,
                associativity: 8,
            };
            // Fresh layout per point so set balance matches the default fold.
            let mut layout = CodeLayout::new();
            let parent = CodeRegion::new(vec![
                layout.define(&SegmentSpec::new("parent", parent_bytes))
            ]);
            let child =
                CodeRegion::new(vec![layout.define(&SegmentSpec::new("child", child_bytes))]);

            // Interleaved: P C P C …
            let mut cache = Cache::new(cfg);
            for _ in 0..WARMUP {
                fetch_region(&mut cache, &child);
                fetch_region(&mut cache, &parent);
            }
            let mut inter = 0;
            for _ in 0..MEASURE {
                inter += fetch_region(&mut cache, &child);
                inter += fetch_region(&mut cache, &parent);
            }

            // Batched: C×BATCH then P×BATCH, repeated. Warm one full cycle
            // so compulsory misses of both regions are excluded, as they are
            // for the interleaved measurement.
            let mut cache = Cache::new(cfg);
            for _ in 0..WARMUP {
                fetch_region(&mut cache, &child);
            }
            for _ in 0..WARMUP {
                fetch_region(&mut cache, &parent);
            }
            for _ in 0..WARMUP {
                fetch_region(&mut cache, &child);
            }
            let mut batched = 0;
            for _ in 0..MEASURE / BATCH {
                for _ in 0..BATCH {
                    batched += fetch_region(&mut cache, &child);
                }
                for _ in 0..BATCH {
                    batched += fetch_region(&mut cache, &parent);
                }
            }
            MissPoint {
                capacity,
                interleaved: inter as f64 / MEASURE as f64,
                batched: batched as f64 / MEASURE as f64,
            }
        })
        .collect()
}

/// Standard capacity sweep: 4 KB – 64 KB in powers of two.
pub const STANDARD_CAPACITIES: [usize; 5] = [4 * 1024, 8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cliff_sits_between_individual_and_combined_footprints() {
        // 13 K + 8 K regions: combined 21 K. Interleaved execution should
        // thrash below ~24 K and be clean above; batched should be clean
        // from the point each region fits alone (16 K).
        let points = sweep(13_000, 8_000, &STANDARD_CAPACITIES);
        let by_cap = |c: usize| points.iter().find(|p| p.capacity == c).unwrap();

        // 8 KB: neither fits; both modes miss heavily.
        assert!(by_cap(8192).interleaved > 100.0);
        // 16 KB: combined exceeds; interleaved thrashes, batched mostly clean.
        let p16 = by_cap(16_384);
        assert!(p16.interleaved > 50.0, "interleaved {:?}", p16);
        assert!(p16.batched < p16.interleaved / 5.0, "batched {:?}", p16);
        // 32 KB: everything fits; both clean.
        let p32 = by_cap(32_768);
        assert!(p32.interleaved < 5.0, "{p32:?}");
        assert!(p32.batched < 5.0, "{p32:?}");
    }

    #[test]
    fn curves_are_monotone_nonincreasing() {
        let points = sweep(10_000, 10_000, &STANDARD_CAPACITIES);
        for w in points.windows(2) {
            assert!(w[1].interleaved <= w[0].interleaved + 1.0);
            assert!(w[1].batched <= w[0].batched + 1.0);
        }
    }

    #[test]
    fn batched_never_worse_than_interleaved() {
        for (p, c) in [(13_000, 9_000), (6_000, 6_000), (20_000, 4_000)] {
            for point in sweep(p, c, &STANDARD_CAPACITIES) {
                assert!(
                    point.batched <= point.interleaved + 1.0,
                    "{p}/{c}: {point:?}"
                );
            }
        }
    }
}
