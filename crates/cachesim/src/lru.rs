//! True-LRU sets: the one lookup shared by [`crate::Cache`] (many sets) and
//! [`crate::Tlb`] (one set holding every entry).
//!
//! A way is an interleaved `(tag, stamp)` pair and a stamp carries its own
//! way index in its low bits. A lookup first finds the way holding the tag
//! with a chain of selects over the tags, then takes its only
//! data-dependent branch — hit or miss, the same question its caller asks
//! next. A hit rewrites one stamp. A miss picks its victim with a pure
//! min-reduction over the stamps, whose low bits name the way. Nothing
//! branches on *which* way matched or *which* is oldest, the two scans the
//! host could not predict in the old miss path; and because a hit never
//! reloads what it stores, back-to-back hits in one set (two L1 lines of
//! one L2 line, two fields of one tuple) do not wait on each other.

use std::hint::select_unpredictable;

/// Tag of a way that holds nothing.
pub(crate) const EMPTY: u64 = u64::MAX;

/// One way: the resident tag and its recency stamp,
/// `tick << way_bits | way index` (larger = more recent).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Way {
    pub(crate) tag: u64,
    stamp: u64,
}

/// Outcome of [`LruSets::touch`].
pub(crate) struct Touched {
    /// Index into [`LruSets::ways`] of the way that now holds the tag.
    pub(crate) slot: usize,
    /// Whether the tag was already resident.
    pub(crate) hit: bool,
    /// Tag the way held before ([`EMPTY`] if vacant; the tag itself on a
    /// hit).
    pub(crate) old: u64,
}

/// `sets × assoc` ways with a shared recency clock.
#[derive(Debug, Clone)]
pub(crate) struct LruSets {
    ways: Vec<Way>,
    assoc: usize,
    /// Low stamp bits holding the way index.
    way_bits: u32,
    /// Stamps of resident ways are `tick << way_bits | way`, `tick >= 1`.
    tick: u64,
}

/// Run `$body` with `$n` bound to the set width `$assoc` as a constant for
/// the widths the machine presets use (so [`LruSets::touch`] unrolls), and
/// to 0 — "read the width at run time" — for any other.
macro_rules! with_width {
    ($assoc:expr, $n:ident => $body:expr) => {
        match $assoc {
            2 => {
                const $n: usize = 2;
                $body
            }
            4 => {
                const $n: usize = 4;
                $body
            }
            8 => {
                const $n: usize = 8;
                $body
            }
            16 => {
                const $n: usize = 16;
                $body
            }
            _ => {
                const $n: usize = 0;
                $body
            }
        }
    };
}
pub(crate) use with_width;

impl LruSets {
    pub(crate) fn new(sets: usize, assoc: usize) -> Self {
        LruSets {
            ways: Self::vacant_set(assoc).repeat(sets),
            assoc,
            way_bits: assoc.next_power_of_two().trailing_zeros(),
            tick: 0,
        }
    }

    /// A set holding nothing: tick-0 stamps, so every resident way is more
    /// recent and the lowest-indexed vacant way is the next victim.
    fn vacant_set(assoc: usize) -> Vec<Way> {
        (0..assoc as u64)
            .map(|way| Way {
                tag: EMPTY,
                stamp: way,
            })
            .collect()
    }

    /// Every way, set by set.
    pub(crate) fn ways(&self) -> &[Way] {
        &self.ways
    }

    /// Ways per set.
    pub(crate) fn assoc(&self) -> usize {
        self.assoc
    }

    /// Vacate every way.
    pub(crate) fn clear(&mut self) {
        let vacant = Self::vacant_set(self.assoc);
        for set in self.ways.chunks_exact_mut(self.assoc) {
            set.copy_from_slice(&vacant);
        }
    }

    /// Look `tag` up in `set` and make it the set's most recent entry: on a
    /// hit its stamp is refreshed, on a miss it replaces the LRU way (the
    /// lowest-indexed vacant way while any is left).
    ///
    /// `N` is the set width ([`with_width`]): for a power of two both scans
    /// unroll and the victim search is a tournament log₂ N deep; 0 runs the
    /// same comparisons as loops over however many ways a set has.
    #[inline(always)]
    pub(crate) fn touch<const N: usize>(&mut self, set: usize, tag: u64) -> Touched {
        debug_assert!(N == 0 || N == self.assoc);
        self.tick += 1;
        let (assoc, way_bits) = if N == 0 {
            (self.assoc, self.way_bits)
        } else {
            (N, N.trailing_zeros())
        };
        let base = set * assoc;
        let ways = &mut self.ways[base..base + assoc];
        let stamp = self.tick << way_bits;

        // At most one way holds the tag; selects, not an early-exit scan.
        let holder = ways.iter().enumerate().fold(usize::MAX, |found, (w, way)| {
            select_unpredictable(way.tag == tag, w, found)
        });
        if let Some(way) = ways.get_mut(holder) {
            way.stamp = stamp | holder as u64;
            return Touched {
                slot: base + holder,
                hit: true,
                old: tag,
            };
        }

        let oldest = if N == 0 {
            let stamps = ways.iter().map(|way| way.stamp);
            stamps.min().expect("a set has at least one way")
        } else {
            let mut stamps: [u64; N] = std::array::from_fn(|w| ways[w].stamp);
            let mut n = N;
            while n > 1 {
                n /= 2;
                for i in 0..n {
                    stamps[i] = stamps[i].min(stamps[i + n]);
                }
            }
            stamps[0]
        };
        let victim = (oldest & ((1 << way_bits) - 1)) as usize;
        let old = ways[victim].tag;
        ways[victim] = Way {
            tag,
            stamp: stamp | victim as u64,
        };
        Touched {
            slot: base + victim,
            hit: false,
            old,
        }
    }
}
