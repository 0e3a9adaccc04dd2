//! A small fully-associative, LRU translation lookaside buffer.
//!
//! Used for instruction pages (the paper reports ITLB misses dropping by
//! ~60–86 % under buffering). 4 KB pages.

use crate::lru::{with_width, LruSets};

const PAGE_SHIFT: u32 = 12;

/// Fully-associative LRU TLB over 4 KB pages.
#[derive(Debug, Clone)]
pub struct Tlb {
    /// One set holding every entry: the same `(page, stamp)` scan as a
    /// cache set.
    pages: LruSets,
    accesses: u64,
    misses: u64,
}

impl Tlb {
    /// An empty TLB with `entries` slots.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "TLB must have at least one entry");
        Tlb {
            pages: LruSets::new(1, entries),
            accesses: 0,
            misses: 0,
        }
    }

    /// Translate the page containing `addr`; returns `true` on TLB hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let page = addr >> PAGE_SHIFT;
        let hit = with_width!(self.pages.assoc(), N => self.pages.touch::<N>(0, page).hit);
        self.misses += u64::from(!hit);
        hit
    }

    /// Count translations whose outcome is already known, as
    /// [`crate::Cache::credit`].
    pub(crate) fn credit(&mut self, accesses: u64, misses: u64) {
        self.accesses += accesses;
        self.misses += misses;
    }

    /// Re-apply a credited translation to the entries alone, as
    /// [`crate::Cache::replay_each`].
    pub(crate) fn replay(&mut self, addr: u64) {
        let page = addr >> PAGE_SHIFT;
        with_width!(self.pages.assoc(), N => self.pages.touch::<N>(0, page));
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of configured entries.
    pub fn entries(&self) -> usize {
        self.pages.assoc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits() {
        let mut t = Tlb::new(4);
        assert!(!t.access(0x1000));
        assert!(t.access(0x1abc)); // same 4 KB page
        assert!(!t.access(0x2000)); // next page
        assert_eq!(t.misses(), 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut t = Tlb::new(2);
        t.access(0x1000); // page 1
        t.access(0x2000); // page 2
        t.access(0x1000); // page 1 is MRU
        t.access(0x3000); // evicts page 2
        assert!(t.access(0x1000));
        assert!(!t.access(0x2000));
        assert_eq!(t.misses(), 4);
    }

    #[test]
    fn working_set_larger_than_entries_thrashes() {
        let mut t = Tlb::new(4);
        let pages: Vec<u64> = (0..5).map(|i| i * 0x1000).collect();
        for p in &pages {
            t.access(*p);
        }
        let before = t.misses();
        for _ in 0..10 {
            for p in &pages {
                t.access(*p);
            }
        }
        assert_eq!(t.misses() - before, 50); // cyclic over entries+1 always misses
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_panics() {
        Tlb::new(0);
    }
}
