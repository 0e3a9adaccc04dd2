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
//!
//! **Lazy recency.** A run of touches that is made over and over (the L2
//! refills of one memoized region walk) can be *noted* — which way each touch
//! landed in — and from then on *credited*: the clock advances by the ticks
//! the touches would have used and the stamps are left for later. That is
//! exact while every noted line stays where it was noted, because a hit
//! rewrites one stamp and reads none: only a fill reads stamps, to choose its
//! victim. Noted ways are *marked*; a marked way's true stamp is at least its
//! stored one and an unmarked way's is its stored one, so a fill whose
//! minimum stored stamp belongs to an unmarked way has found the true LRU
//! way, and any other first brings every stamp up to date
//! ([`LruSets::sync`]). A fill that displaces a marked way after all moves
//! the *generation* on, and every run noted under an earlier one is touched
//! for real once more ([`LruSets::credit`] refuses it). Only
//! [`LruSets::touch_lazy`] knows any of this; [`LruSets::touch`] is for sets
//! nothing was ever noted in.

use std::hint::select_unpredictable;
use std::sync::Arc;

/// Tag of a way that holds nothing.
pub(crate) const EMPTY: u64 = u64::MAX;

/// One way: the resident tag and its recency stamp,
/// `tick << way_bits | way index` (larger = more recent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Way {
    pub(crate) tag: u64,
    stamp: u64,
}

/// Outcome of [`LruSets::touch`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Touched {
    /// Index into [`LruSets::ways`] of the way that now holds the tag.
    pub(crate) slot: usize,
    /// Whether the tag was already resident.
    pub(crate) hit: bool,
    /// Tag the way held before ([`EMPTY`] if vacant; the tag itself on a
    /// hit).
    pub(crate) old: u64,
}

/// A run of touches and the way each of them landed in, so that the run can
/// be credited ([`LruSets::credit`]) instead of made again.
#[derive(Debug)]
pub(crate) struct Noted {
    /// Index into [`LruSets::ways`] per touch, in order. Shared with the
    /// credit waiting for a sync, which may outlive this note.
    slots: Arc<[u32]>,
    /// The [`LruSets::begin_noted_run`] generation the run was made under:
    /// while it is in force, every slot holds the line the run found there.
    generation: u64,
    /// Where among the credits waiting for a sync this run's was left.
    pending_at: u32,
}

impl Noted {
    /// A run begun under `generation` that touched `slots`.
    fn new(slots: &[u32], generation: u64) -> Self {
        Noted {
            slots: slots.into(),
            generation,
            pending_at: 0,
        }
    }

    /// The run `known` describes, if any yet, was made (again) under
    /// `generation`: the same touches, which landed in `slots` this time.
    pub(crate) fn renote(known: &mut Option<Noted>, slots: &[u32], generation: u64) {
        let Some(noted) = known else {
            *known = Some(Noted::new(slots, generation));
            return;
        };
        match Arc::get_mut(&mut noted.slots) {
            // No credit is waiting: the generation moved on after a sync.
            Some(mine) if mine.len() == slots.len() => mine.copy_from_slice(slots),
            _ => noted.slots = slots.into(),
        }
        noted.generation = generation;
    }
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
    /// One bit per way, set from when a noted run touches the way until a
    /// fill displaces its line. Empty until the first noted run.
    marks: Vec<u64>,
    /// Fills that displaced a marked way (and [`LruSets::clear`]s) so far.
    generation: u64,
    /// Credited runs whose stamps are still to be raised: the slots, and the
    /// tick reserved for the first of them. Every slot is marked.
    pending: Vec<(Arc<[u32]>, u64)>,
    /// [`LruSets::sync`] calls that found credits waiting.
    syncs: u64,
}

fn marked(marks: &[u64], slot: usize) -> bool {
    marks
        .get(slot / 64)
        .is_some_and(|word| word >> (slot % 64) & 1 != 0)
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
            marks: Vec::new(),
            generation: 0,
            pending: Vec::new(),
            syncs: 0,
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

    /// Vacate every way. No noted run holds from here on.
    pub(crate) fn clear(&mut self) {
        let vacant = Self::vacant_set(self.assoc);
        for set in self.ways.chunks_exact_mut(self.assoc) {
            set.copy_from_slice(&vacant);
        }
        self.marks.fill(0);
        self.pending.clear();
        self.generation += 1;
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
        debug_assert!(self.marks.is_empty(), "noted ways need touch_lazy");
        self.touch_in::<N, false>(set, tag)
    }

    /// [`LruSets::touch`] for sets that runs were noted in: a miss whose
    /// victim would be a marked way goes by stamps brought up to date, and
    /// ends every noted run if a marked way is its victim even so.
    #[inline(always)]
    pub(crate) fn touch_lazy<const N: usize>(&mut self, set: usize, tag: u64) -> Touched {
        self.touch_in::<N, true>(set, tag)
    }

    #[inline(always)]
    fn touch_in<const N: usize, const LAZY: bool>(&mut self, set: usize, tag: u64) -> Touched {
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
        if LAZY && marked(&self.marks, base + victim) {
            return self.fill_past_mark(base, tag);
        }
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

    /// The rest of a missing [`LruSets::touch_lazy`] whose victim in the set
    /// at `base` would, by the stored stamps, be a marked way: its true
    /// stamp may be larger, so the set's LRU way is chosen again from stamps
    /// brought up to date.
    #[cold]
    #[inline(never)]
    fn fill_past_mark(&mut self, base: usize, tag: u64) -> Touched {
        self.sync();
        let ways = &mut self.ways[base..base + self.assoc];
        let oldest = ways.iter().map(|way| way.stamp).min();
        let oldest = oldest.expect("a set has at least one way");
        let victim = (oldest & ((1 << self.way_bits) - 1)) as usize;
        let old = ways[victim].tag;
        ways[victim] = Way {
            tag,
            stamp: self.tick << self.way_bits | victim as u64,
        };
        let slot = base + victim;
        if marked(&self.marks, slot) {
            // A noted line leaves: no run noted so far can be credited.
            self.marks[slot / 64] &= !(1 << (slot % 64));
            self.generation += 1;
        }
        Touched {
            slot,
            hit: false,
            old,
        }
    }

    /// Start a run of [`LruSets::touch_lazy`] calls each followed by
    /// [`LruSets::mark`]: every stamp is brought up to date, and the run can
    /// be credited for as long as the generation returned stays in force —
    /// not at all if one of its own fills displaces a marked way.
    pub(crate) fn begin_noted_run(&mut self) -> u64 {
        self.sync();
        if self.marks.is_empty() {
            self.marks = vec![0; self.ways.len().div_ceil(64)];
        }
        self.generation
    }

    /// Mark the way a touch of the noted run under way landed in.
    #[inline(always)]
    pub(crate) fn mark(&mut self, slot: usize) {
        self.marks[slot / 64] |= 1 << (slot % 64);
    }

    /// Count the touches of `noted` as made once more, all hits, without
    /// making them: the clock advances past the ticks they would have used
    /// and their stamps wait for a [`LruSets::sync`] (a later credit of the
    /// same run takes the earlier one's place). `false`, and nothing
    /// changed, if a noted line was displaced since the run was made.
    #[inline]
    pub(crate) fn credit(&mut self, noted: &mut Noted) -> bool {
        if noted.generation != self.generation {
            return false;
        }
        let first = self.tick + 1;
        self.tick += noted.slots.len() as u64;
        match self.pending.get_mut(noted.pending_at as usize) {
            Some((slots, at)) if Arc::ptr_eq(slots, &noted.slots) => *at = first,
            _ => {
                noted.pending_at = self.pending.len() as u32;
                self.pending.push((Arc::clone(&noted.slots), first));
            }
        }
        true
    }

    /// Raise the stamp of every way a credited run touched to the tick its
    /// latest credit reserved for it — never lower it: the way may have been
    /// touched for real since.
    pub(crate) fn sync(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let way_mask = (1 << self.way_bits) - 1;
        for (slots, first) in self.pending.drain(..) {
            for (tick, &slot) in (first..).zip(slots.iter()) {
                debug_assert!(marked(&self.marks, slot as usize));
                let stamp = &mut self.ways[slot as usize].stamp;
                *stamp = (*stamp).max(tick << self.way_bits | *stamp & way_mask);
            }
        }
        self.syncs += 1;
    }

    /// Syncs that had credited runs to apply.
    pub(crate) fn syncs(&self) -> u64 {
        self.syncs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn touch(sets: &mut LruSets, lazy: bool, tag: u64) -> Touched {
        let set = tag as usize % (sets.ways.len() / sets.assoc);
        with_width!(sets.assoc, N => if lazy {
            sets.touch_lazy::<N>(set, tag)
        } else {
            sets.touch::<N>(set, tag)
        })
    }

    /// Touch `run` for real, noting it.
    fn note(sets: &mut LruSets, run: &[u64]) -> Noted {
        let generation = sets.begin_noted_run();
        let slots: Vec<u32> = run
            .iter()
            .map(|&tag| {
                let slot = touch(sets, true, tag).slot;
                sets.mark(slot);
                slot as u32
            })
            .collect();
        Noted::new(&slots, generation)
    }

    /// What the lazy path may never do, whatever is noted, credited or
    /// waiting for a sync: choose another victim than a structure that was
    /// shown every touch — the first thing to go wrong if a stored stamp
    /// were trusted that should not be — or end up, once synced, with
    /// another way or another clock. Runs are code (tags from 1 000), the
    /// rest is data that hits, fills and displaces them; the widths are the
    /// unrolled ones and one that is not a power of two.
    #[test]
    fn credits_and_syncs_leave_what_real_touches_leave() {
        for assoc in [2usize, 3, 4, 8, 16] {
            let (mut credited, mut refused, mut syncs) = (0, 0, 0);
            for seed in 0..24u64 {
                let mut rng = seed * 31 + assoc as u64;
                let sets = 1 + (seed as usize % 3) * 2;
                let (mut real, mut lazy) = (LruSets::new(sets, assoc), LruSets::new(sets, assoc));
                // Data to fill the structure about twice over; code taking a
                // small to a large share of it, so runs survive or do not.
                let data_tags = 2 * (sets * assoc) as u64;
                let code_tags = 2 + splitmix(&mut rng) % (sets * assoc) as u64;
                let runs: Vec<Vec<u64>> = (0..4)
                    .map(|_| {
                        let len = 1 + splitmix(&mut rng) % 12;
                        (0..len)
                            .map(|_| 1000 + splitmix(&mut rng) % code_tags)
                            .collect()
                    })
                    .collect();
                let mut noted: Vec<Option<Noted>> = runs.iter().map(|_| None).collect();
                for step in 0..600 {
                    let context = format!("assoc {assoc} seed {seed} step {step}");
                    if splitmix(&mut rng).is_multiple_of(3) {
                        let r = (splitmix(&mut rng) % 4) as usize;
                        for &tag in &runs[r] {
                            touch(&mut real, false, tag);
                        }
                        let known = noted[r].as_mut();
                        if known.is_some_and(|n| lazy.credit(n)) {
                            credited += 1;
                        } else {
                            refused += u32::from(noted[r].is_some());
                            noted[r] = Some(note(&mut lazy, &runs[r]));
                        }
                    } else {
                        // Mostly a short stream, now and then a hit.
                        let tag = match splitmix(&mut rng) % 4 {
                            0 => splitmix(&mut rng) % data_tags,
                            _ => step % data_tags,
                        };
                        let expected = touch(&mut real, false, tag);
                        assert_eq!(touch(&mut lazy, true, tag), expected, "{context}");
                    }
                    assert_eq!(lazy.tick, real.tick, "{context}");
                    // Residency never waits for a sync; a stored stamp is
                    // the true one, or older under a mark.
                    for (slot, (l, r)) in lazy.ways.iter().zip(&real.ways).enumerate() {
                        assert_eq!(l.tag, r.tag, "{context}");
                        if marked(&lazy.marks, slot) {
                            assert!(l.stamp <= r.stamp, "{context}");
                        } else {
                            assert_eq!(l.stamp, r.stamp, "{context}");
                        }
                    }
                }
                lazy.sync();
                assert_eq!(lazy.ways, real.ways, "assoc {assoc} seed {seed}");
                syncs += lazy.syncs;
            }
            // Every path ran: across the seeds, runs were credited, lost a
            // line to a fill, and had their stamps asked for by one.
            assert!(
                credited > 100 && refused > 100 && syncs > 100,
                "assoc {assoc}: {credited} credited, {refused} refused, {syncs} syncs"
            );
        }
    }

    #[test]
    fn a_sync_never_lowers_a_stamp() {
        let mut sets = LruSets::new(1, 4);
        let mut run = note(&mut sets, &[7, 8, 9]);
        assert!(sets.credit(&mut run));
        // Touched for real after the credit: later than the tick it reserved.
        let slot = touch(&mut sets, true, 8).slot;
        let stamp = sets.ways[slot].stamp;
        sets.sync();
        assert_eq!(sets.ways[slot].stamp, stamp);
        // The other two were raised, in run order, past their noted stamps
        // and short of the real touch.
        let of = |tag| sets.ways.iter().find(|w| w.tag == tag).expect("resident");
        assert!(of(7).stamp < of(9).stamp && of(9).stamp < stamp);
        assert_eq!(of(7).stamp >> sets.way_bits, 4);
        assert_eq!(sets.tick, 7);
    }

    #[test]
    fn a_run_that_displaces_a_noted_line_is_stale_at_birth() {
        // Two ways, three lines of one set: the run evicts its own first.
        let mut sets = LruSets::new(1, 2);
        let mut run = note(&mut sets, &[1, 2, 3]);
        assert!(!sets.credit(&mut run));
        // One that fits is credited until a fill takes one of its ways ...
        let mut fits = note(&mut sets, &[2, 3]);
        assert!(sets.credit(&mut fits) && sets.credit(&mut fits));
        assert_eq!(sets.pending.len(), 1, "one credit per run waits");
        // ... which it does only after the sync the marks demand.
        let displaced = touch(&mut sets, true, 50);
        assert_eq!((displaced.hit, displaced.old), (false, 2));
        assert_eq!(sets.syncs, 1);
        assert!(!sets.credit(&mut fits));
        // Emptying the structure ends every run too.
        let mut again = note(&mut sets, &[3, 50]);
        assert!(sets.credit(&mut again));
        sets.clear();
        assert!(!sets.credit(&mut again) && sets.pending.is_empty());
    }
}
