//! Hardware-counter snapshots, mirroring what the paper reads via VTune.

use std::ops::{Add, Sub};

/// A snapshot of every simulated event counter. Obtain via
/// [`crate::Machine::snapshot`]; subtract snapshots to get per-query deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// Instructions retired (bytes fetched / 4).
    pub instructions: u64,
    /// L1 instruction (trace) cache accesses.
    pub l1i_accesses: u64,
    /// L1 instruction (trace) cache misses.
    pub l1i_misses: u64,
    /// L1i misses on lines last evicted by a *different* query (a subset of
    /// `l1i_misses`). Zero unless cross-query tagging is enabled via
    /// [`crate::Machine::set_query_tag`].
    pub l1i_cross_misses: u64,
    /// L1 data cache accesses.
    pub l1d_accesses: u64,
    /// L1 data cache misses.
    pub l1d_misses: u64,
    /// Unified L2 accesses (from both L1i and L1d misses).
    pub l2_accesses: u64,
    /// L2 misses to memory, including prefetch-covered ones.
    pub l2_misses: u64,
    /// L2 misses whose latency the sequential prefetcher hid.
    pub l2_covered: u64,
    /// ITLB lookups (one per function entered).
    pub itlb_accesses: u64,
    /// ITLB misses.
    pub itlb_misses: u64,
    /// Dynamic branches executed.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredictions: u64,
}

impl PerfCounters {
    /// L2 misses that actually paid memory latency.
    pub fn l2_misses_uncovered(&self) -> u64 {
        self.l2_misses - self.l2_covered
    }
}

impl Add for PerfCounters {
    type Output = PerfCounters;

    fn add(self, rhs: PerfCounters) -> PerfCounters {
        PerfCounters {
            instructions: self.instructions + rhs.instructions,
            l1i_accesses: self.l1i_accesses + rhs.l1i_accesses,
            l1i_misses: self.l1i_misses + rhs.l1i_misses,
            l1i_cross_misses: self.l1i_cross_misses + rhs.l1i_cross_misses,
            l1d_accesses: self.l1d_accesses + rhs.l1d_accesses,
            l1d_misses: self.l1d_misses + rhs.l1d_misses,
            l2_accesses: self.l2_accesses + rhs.l2_accesses,
            l2_misses: self.l2_misses + rhs.l2_misses,
            l2_covered: self.l2_covered + rhs.l2_covered,
            itlb_accesses: self.itlb_accesses + rhs.itlb_accesses,
            itlb_misses: self.itlb_misses + rhs.itlb_misses,
            branches: self.branches + rhs.branches,
            mispredictions: self.mispredictions + rhs.mispredictions,
        }
    }
}

impl Sub for PerfCounters {
    type Output = PerfCounters;

    fn sub(self, rhs: PerfCounters) -> PerfCounters {
        PerfCounters {
            instructions: self.instructions - rhs.instructions,
            l1i_accesses: self.l1i_accesses - rhs.l1i_accesses,
            l1i_misses: self.l1i_misses - rhs.l1i_misses,
            l1i_cross_misses: self.l1i_cross_misses - rhs.l1i_cross_misses,
            l1d_accesses: self.l1d_accesses - rhs.l1d_accesses,
            l1d_misses: self.l1d_misses - rhs.l1d_misses,
            l2_accesses: self.l2_accesses - rhs.l2_accesses,
            l2_misses: self.l2_misses - rhs.l2_misses,
            l2_covered: self.l2_covered - rhs.l2_covered,
            itlb_accesses: self.itlb_accesses - rhs.itlb_accesses,
            itlb_misses: self.itlb_misses - rhs.itlb_misses,
            branches: self.branches - rhs.branches,
            mispredictions: self.mispredictions - rhs.mispredictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_adds_fieldwise() {
        let a = PerfCounters {
            instructions: 10,
            l1i_misses: 3,
            ..Default::default()
        };
        let b = PerfCounters {
            instructions: 4,
            branches: 2,
            ..Default::default()
        };
        let s = a + b;
        assert_eq!(s.instructions, 14);
        assert_eq!(s.l1i_misses, 3);
        assert_eq!(s.branches, 2);
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let a = PerfCounters {
            instructions: 10,
            l1i_misses: 3,
            ..Default::default()
        };
        let b = PerfCounters {
            instructions: 4,
            l1i_misses: 1,
            ..Default::default()
        };
        let d = a - b;
        assert_eq!(d.instructions, 6);
        assert_eq!(d.l1i_misses, 2);
    }

    #[test]
    fn uncovered_l2() {
        let c = PerfCounters {
            l2_misses: 10,
            l2_covered: 7,
            ..Default::default()
        };
        assert_eq!(c.l2_misses_uncovered(), 3);
    }
}
