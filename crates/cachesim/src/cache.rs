//! A set-associative cache with true-LRU replacement.
//!
//! Used for L1i (trace-cache stand-in), L1d and L2. Only tags are modeled —
//! the simulator cares about hit/miss behaviour, not contents.

use crate::config::CacheConfig;
use crate::hash::U64Map;
use crate::heat::HeatCell;
use crate::lru::{with_width, LruSets, Noted, Touched, EMPTY};
use std::collections::HashMap;

/// Opt-in cross-owner eviction attribution (see [`Cache::set_owner`]).
///
/// Only the *evictor* of each currently-absent line is remembered: when a
/// miss refills a line whose last eviction was performed by a different
/// owner tag, the miss counts as a cross-owner miss. Lines never evicted
/// (compulsory misses) and lines the same owner pushed out both stay in the
/// ordinary miss count only.
#[derive(Debug, Clone)]
struct OwnerTrack {
    /// Tag charged for evictions performed from now on.
    owner: u32,
    /// line -> owner tag that evicted it (entries removed on refill).
    evicted_by: U64Map<u32>,
    cross_misses: u64,
}

impl OwnerTrack {
    /// Note that a miss on `line` displaced `old` under the owner in force;
    /// whether the line had last been evicted by a different one.
    fn refill(&mut self, line: u64, old: u64) -> bool {
        let owner = self.owner;
        let cross = self
            .evicted_by
            .remove(&line)
            .is_some_and(|tag| tag != owner);
        if old != EMPTY {
            self.evicted_by.insert(old, owner);
        }
        cross
    }
}

/// Opt-in per-segment heat attribution (see [`Cache::enable_heat`]).
///
/// Kept boxed and separate from [`OwnerTrack`] so the plain and
/// owner-tracked hot paths stay untouched when heat is off. Segment ids are
/// small integers interned by the layout layer; id 0 means "no segment
/// announced" ([`crate::heat::UNTRACKED_SEGMENT`]).
#[derive(Debug, Clone)]
struct HeatTrack {
    /// Segment charged for misses and evictions from now on.
    cur_seg: u16,
    /// `segment << 32 | owner` → accumulated cell.
    cells: U64Map<HeatCell>,
    /// line → `(segment, owner)` that evicted it (removed on refill).
    evicted: U64Map<(u16, u32)>,
    /// Segment that fetched the line in each way, parallel to `LruSets::ways`
    /// (for residency snapshots); 0 for lines older than the ledger.
    way_seg: Vec<u16>,
    /// Lines older than the ledger that the replay under way displaced: one
    /// it fetches again has hit all along and keeps segment 0.
    unledgered: Vec<u64>,
}

impl HeatTrack {
    fn new(ways: usize) -> Self {
        HeatTrack {
            cur_seg: 0,
            cells: U64Map::default(),
            evicted: U64Map::default(),
            way_seg: vec![0; ways],
            unledgered: Vec::new(),
        }
    }

    fn cell(&mut self, seg: u16, owner: u32) -> &mut HeatCell {
        let key = u64::from(seg) << 32 | u64::from(owner);
        self.cells.entry(key).or_default()
    }
}

/// One cache level. Addresses are byte addresses; the cache maps them to
/// lines internally.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    line_shift: u32,
    set_mask: u64,
    /// Resident line numbers, tag and LRU stamp side by side so one set is
    /// one contiguous scan.
    lines: LruSets,
    accesses: u64,
    misses: u64,
    /// `None` (the default) keeps the hot path free of attribution work.
    track: Option<OwnerTrack>,
    /// `None` (the default) keeps the miss path free of heat-ledger work.
    heat: Option<Box<HeatTrack>>,
}

impl Cache {
    /// Build an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        debug_assert!(cfg.validate().is_ok(), "invalid cache config: {cfg:?}");
        let sets = cfg.sets();
        Cache {
            cfg,
            line_shift: cfg.line_size.trailing_zeros(),
            set_mask: (sets - 1) as u64,
            lines: LruSets::new(sets, cfg.associativity),
            accesses: 0,
            misses: 0,
            track: None,
            heat: None,
        }
    }

    /// Enable cross-owner eviction attribution (if not already on) and set
    /// the owner tag charged for evictions from this point forward.
    ///
    /// Misses on lines whose most recent eviction was performed under a
    /// *different* tag accumulate in [`Cache::cross_misses`]. Tracking is
    /// off by default and costs nothing until the first call; a call that
    /// repeats the tag in force stores it again and changes nothing else.
    pub fn set_owner(&mut self, tag: u32) {
        match &mut self.track {
            Some(t) => t.owner = tag,
            None => {
                self.track = Some(OwnerTrack {
                    owner: tag,
                    evicted_by: U64Map::default(),
                    cross_misses: 0,
                })
            }
        }
    }

    /// The owner tag in force; `None` while tracking is off.
    pub(crate) fn owner(&self) -> Option<u32> {
        self.track.as_ref().map(|t| t.owner)
    }

    /// Misses on lines last evicted by a different owner tag (a subset of
    /// [`Cache::misses`]); 0 when tracking was never enabled.
    pub fn cross_misses(&self) -> u64 {
        self.track.as_ref().map_or(0, |t| t.cross_misses)
    }

    /// Enable the per-(segment, owner) heat ledger. Idempotent; off by
    /// default, and until enabled the miss path pays nothing for it. Enable
    /// on a *cold* cache for exact `Σ misses == Cache::misses` conservation
    /// (misses taken before enabling are in no cell).
    pub fn enable_heat(&mut self) {
        if self.heat.is_none() {
            self.heat = Some(Box::new(HeatTrack::new(self.lines.ways().len())));
        }
    }

    /// Whether the heat ledger is on.
    pub fn heat_enabled(&self) -> bool {
        self.heat.is_some()
    }

    /// Announce the code segment charged for misses and evictions from this
    /// point forward (no-op while heat is disabled). Id 0 is reserved for
    /// "no segment announced".
    pub fn set_heat_segment(&mut self, seg: u16) {
        if let Some(h) = &mut self.heat {
            h.cur_seg = seg;
        }
    }

    /// The accumulated heat ledger as `((segment id, owner), cell)` rows;
    /// empty when heat was never enabled.
    pub fn heat_cells(&self) -> Vec<((u16, u32), HeatCell)> {
        self.heat
            .as_ref()
            .map(|h| {
                let rows = h.cells.iter();
                rows.map(|(&key, &cell)| (((key >> 32) as u16, key as u32), cell))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Point-in-time residency: `(set index, segment id, resident lines)`
    /// for every (set, segment) pair with at least one resident line. Lines
    /// fetched before heat was enabled count under segment 0.
    pub fn heat_residency(&self) -> Vec<(usize, u16, u32)> {
        let Some(h) = &self.heat else {
            return Vec::new();
        };
        let mut acc: HashMap<(usize, u16), u32> = HashMap::new();
        for (i, way) in self.lines.ways().iter().enumerate() {
            if way.tag != EMPTY {
                *acc.entry((i / self.lines.assoc(), h.way_seg[i]))
                    .or_insert(0) += 1;
            }
        }
        acc.into_iter().map(|((s, g), n)| (s, g, n)).collect()
    }

    /// Number of sets in this cache.
    pub fn sets(&self) -> usize {
        self.set_mask as usize + 1
    }

    /// Geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Access the line containing `addr`. Returns `true` on hit. A miss
    /// fills the line, evicting the LRU way of its set.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        with_width!(self.lines.assoc(), N => self.access_one::<N, false>(addr))
    }

    /// [`Cache::access`] for a cache that runs are noted in
    /// ([`Cache::note_each`]): the L2, on behalf of a data refill.
    #[inline]
    pub(crate) fn access_lazy(&mut self, addr: u64) -> bool {
        with_width!(self.lines.assoc(), N => self.access_one::<N, true>(addr))
    }

    /// Access each address in order, handing every one that misses to
    /// `refill` with the line it displaced ([`EMPTY`] from a vacant way):
    /// [`Cache::access`] with the set width resolved once for the whole walk
    /// instead of once per line.
    #[inline]
    pub(crate) fn access_each(&mut self, addrs: &[u64], refill: impl FnMut(u64, u64)) {
        self.each::<false, false>(addrs, |_| {}, refill);
    }

    /// [`Cache::access_each`] for a cache that runs are noted in: the L2, on
    /// behalf of a real walk. Starts from stamps brought up to date, so that
    /// no credit waits for longer than until the next real walk.
    #[inline]
    pub(crate) fn access_each_lazy(&mut self, addrs: &[u64], refill: impl FnMut(u64, u64)) {
        self.lines.sync();
        self.each::<true, false>(addrs, |_| {}, refill);
    }

    /// [`Cache::access_each`] as a *noted run*: `slots` is left holding the
    /// way each access landed in — one entry per access that is not skipped
    /// as a repeat of the one before — and the run, made up of the same
    /// addresses, can be counted by [`Cache::credit_noted`] instead of made
    /// again while the generation returned is in force (see
    /// [`crate::lru`]).
    #[inline]
    pub(crate) fn note_each(
        &mut self,
        addrs: &[u64],
        slots: &mut Vec<u32>,
        refill: impl FnMut(u64, u64),
    ) -> u64 {
        let generation = self.lines.begin_noted_run();
        slots.clear();
        slots.reserve(addrs.len());
        self.each::<true, true>(addrs, |slot| slots.push(slot as u32), refill);
        generation
    }

    /// Count one more run of the `accesses` accesses `noted` was made from,
    /// every one a hit, leaving the ways for later. `false`, and nothing
    /// counted, if a noted line has been displaced: the run is to be made
    /// ([`Cache::note_each`]) and noted again.
    #[inline]
    pub(crate) fn credit_noted(&mut self, noted: &mut Noted, accesses: u64) -> bool {
        let credited = self.lines.credit(noted);
        if credited {
            self.accesses += accesses;
        }
        credited
    }

    /// Times the recency of credited runs had to be brought up to date.
    pub(crate) fn recency_syncs(&self) -> u64 {
        self.lines.syncs()
    }

    #[inline(always)]
    fn each<const LAZY: bool, const NOTE: bool>(
        &mut self,
        addrs: &[u64],
        mut landed: impl FnMut(usize),
        mut refill: impl FnMut(u64, u64),
    ) {
        with_width!(self.lines.assoc(), N => {
            let mut previous = EMPTY;
            for &addr in addrs {
                // The line just accessed is resident and already the most
                // recent of its set: accessing it again changes nothing
                // (both L1i lines of one L2 line, refilled back to back).
                if addr >> self.line_shift == previous {
                    continue;
                }
                previous = addr >> self.line_shift;
                let t = self.find::<N, LAZY>(addr);
                if NOTE {
                    self.lines.mark(t.slot);
                    landed(t.slot);
                }
                if !t.hit {
                    refill(addr, t.old);
                }
            }
        });
        self.accesses += addrs.len() as u64;
    }

    /// One out-of-line body per width, so a lone access pays for the
    /// registers of its own width only.
    #[inline(never)]
    fn access_one<const N: usize, const LAZY: bool>(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        self.find::<N, LAZY>(addr).hit
    }

    /// [`Cache::access`] minus the access count, on a cache whose sets are
    /// `N` ways wide (0: any) and, if `LAZY`, may hold noted ways.
    #[inline(always)]
    fn find<const N: usize, const LAZY: bool>(&mut self, addr: u64) -> Touched {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let t = if LAZY {
            self.lines.touch_lazy::<N>(set, line)
        } else {
            self.lines.touch::<N>(set, line)
        };
        if !t.hit {
            self.misses += 1;
            if self.attributed() {
                self.attribute_miss(line, t.old, t.slot);
            }
        }
        t
    }

    /// Ledger work for a miss on `line` that displaced `old` from way
    /// `slot`; only reached with owner tracking or heat on.
    #[inline(never)]
    fn attribute_miss(&mut self, line: u64, old: u64, slot: usize) {
        let mut cross = false;
        if let Some(t) = &mut self.track {
            cross = t.refill(line, old);
            t.cross_misses += u64::from(cross);
        }
        if let Some(h) = &mut self.heat {
            // The cross verdict comes from the owner track above — the heat
            // ledger never re-derives it, so the two can never disagree and
            // Σ cell.cross_misses == cross_misses() holds unconditionally.
            let owner = self.track.as_ref().map_or(0, |t| t.owner);
            let seg = h.cur_seg;
            let evictor = h.evicted.remove(&line);
            if cross {
                // Attribute the cross miss to whoever evicted the line; a
                // missing record (heat enabled after the eviction) lands on
                // the untracked segment instead of breaking conservation.
                let (ev_seg, ev_owner) = evictor.unwrap_or((0, u32::MAX));
                h.cell(ev_seg, ev_owner).cross_caused += 1;
            }
            let cell = h.cell(seg, owner);
            cell.misses += 1;
            cell.cross_misses += u64::from(cross);
            if old != EMPTY {
                cell.evictions += 1;
                h.evicted.insert(old, (seg, owner));
            }
            h.way_seg[slot] = seg;
        }
    }

    /// Whether misses carry owner or heat attribution.
    fn attributed(&self) -> bool {
        self.track.is_some() || self.heat.is_some()
    }

    /// Count a walk whose per-line outcome the caller already knows
    /// ([`crate::Machine::exec_region`]'s walk memo) without touching a way;
    /// [`Cache::replay_each`] brings recency up to date before the next
    /// real access. The caller vouches that none of the misses is a
    /// cross-owner miss; with the heat ledger on it also calls
    /// [`Cache::credit_heat`].
    pub(crate) fn credit(&mut self, accesses: u64, misses: u64) {
        self.accesses += accesses;
        self.misses += misses;
    }

    /// The heat-ledger half of [`Cache::credit`], for the misses a walk
    /// credited `times` over took while fetching segment `seg`: `victims[i]`
    /// is the line the miss on address `misses[i]` displaced. The cell of
    /// `seg` under the owner in force and the evictor records end up as that
    /// many [`Cache::access_each`] calls would have left them.
    pub(crate) fn credit_heat(&mut self, seg: u16, misses: &[u64], victims: &[u64], times: u32) {
        let Some(h) = &mut self.heat else { return };
        if misses.is_empty() {
            // A segment that took no miss has no cell to show for it.
            return;
        }
        let owner = self.track.as_ref().map_or(0, |t| t.owner);
        let cell = h.cell(seg, owner);
        cell.misses += misses.len() as u64 * u64::from(times);
        cell.evictions += victims.len() as u64 * u64::from(times);
        for (&addr, &victim) in misses.iter().zip(victims) {
            h.evicted.remove(&(addr >> self.line_shift));
            h.evicted.insert(victim, (seg, owner));
        }
    }

    /// Re-apply credited walks of segment `seg` to the ways alone: same
    /// fills, victims and recency as [`Cache::access_each`], nothing
    /// counted. Of the attribution state it maintains what follows from the
    /// ways — which owner evicted each absent line, which segment fetched
    /// each resident one; cells and evictor segments are
    /// [`Cache::credit_heat`]'s. Every credited walk since the previous
    /// replay ran under the owner in force, and a replay ends with
    /// [`Cache::end_replay`].
    pub(crate) fn replay_each(&mut self, addrs: &[u64], seg: u16) {
        with_width!(self.lines.assoc(), N => for &addr in addrs {
            let line = addr >> self.line_shift;
            let t = self.lines.touch::<N>((line & self.set_mask) as usize, line);
            if !t.hit && self.attributed() {
                self.replay_miss(line, t.old, t.slot, seg);
            }
        });
    }

    #[inline(never)]
    fn replay_miss(&mut self, line: u64, old: u64, slot: usize, seg: u16) {
        if let Some(t) = &mut self.track {
            let cross = t.refill(line, old);
            debug_assert!(!cross, "a credited miss is never a cross-owner miss");
        }
        if let Some(h) = &mut self.heat {
            // A replay goes by each line's last touch, so it may displace and
            // fetch again a line that really hit all along.
            if h.way_seg[slot] == 0 && old != EMPTY {
                h.unledgered.push(old);
            }
            let kept = h.unledgered.contains(&line);
            h.way_seg[slot] = if kept { 0 } else { seg };
        }
    }

    /// The [`Cache::replay_each`] calls that stand for the walks credited so
    /// far are over.
    pub(crate) fn end_replay(&mut self) {
        if let Some(h) = &mut self.heat {
            h.unledgered.clear();
        }
    }

    /// A copy of the ways and of which segment fetched each line — what
    /// [`Cache::heat_residency`] reads — with counters and ledgers left
    /// behind: somewhere to [`Cache::replay_each`] without changing `self`.
    pub(crate) fn ways_only(&self) -> Cache {
        let heat = self.heat.as_ref().map(|h| {
            let mut copy = HeatTrack::new(0);
            copy.way_seg = h.way_seg.clone();
            Box::new(copy)
        });
        Cache {
            lines: self.lines.clone(),
            accesses: 0,
            misses: 0,
            track: None,
            heat,
            ..*self
        }
    }

    /// Probe without filling: is the line resident?
    pub fn contains(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let assoc = self.lines.assoc();
        let base = (line & self.set_mask) as usize * assoc;
        self.lines.ways()[base..base + assoc]
            .iter()
            .any(|w| w.tag == line)
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Empty the cache (counters are preserved). A flush is not an
    /// eviction *by* anyone, so pending cross-owner attributions clear too.
    pub fn flush(&mut self) {
        self.lines.clear();
        if let Some(t) = &mut self.track {
            t.evicted_by.clear();
        }
        if let Some(h) = &mut self.heat {
            h.evicted.clear();
        }
    }

    /// Number of resident lines (for invariants/tests).
    pub fn resident_lines(&self) -> usize {
        self.lines.ways().iter().filter(|w| w.tag != EMPTY).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny local SplitMix64 so the simulator crate stays dependency-free.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn small() -> Cache {
        // 4 sets * 2 ways * 64 B = 512 B
        Cache::new(CacheConfig {
            capacity: 512,
            line_size: 64,
            associativity: 2,
        })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = small();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1001)); // same line
        assert_eq!(c.misses(), 1);
        assert_eq!(c.accesses(), 3);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = small();
        // Three lines mapping to the same set (set stride = 4 lines = 256 B).
        let (a, b, d) = (0x0, 0x100, 0x200);
        c.access(a);
        c.access(b);
        c.access(a); // a is now MRU
        c.access(d); // evicts b (LRU)
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn capacity_thrash_when_working_set_exceeds_ways() {
        let mut c = small();
        // 3 lines in one 2-way set, accessed round-robin: always miss after warmup.
        let lines = [0x0u64, 0x100, 0x200];
        for l in lines {
            c.access(l);
        }
        let misses_before = c.misses();
        for _ in 0..10 {
            for l in lines {
                c.access(l);
            }
        }
        // LRU + cyclic access over assoc+1 lines misses every time.
        assert_eq!(c.misses() - misses_before, 30);
    }

    #[test]
    fn working_set_within_capacity_stops_missing() {
        let mut c = small();
        let lines = [0x0u64, 0x100]; // 2 lines, 2 ways
        for _ in 0..10 {
            for l in lines {
                c.access(l);
            }
        }
        assert_eq!(c.misses(), 2); // only compulsory misses
    }

    #[test]
    fn flush_empties_but_keeps_counters() {
        let mut c = small();
        c.access(0x40);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.accesses(), 1);
        assert!(!c.access(0x40)); // compulsory miss again
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = small();
        for set in 0..4u64 {
            c.access(set * 64);
        }
        for set in 0..4u64 {
            assert!(c.access(set * 64), "set {set} should hit");
        }
    }

    #[test]
    fn cross_owner_misses_attributed_to_evictor() {
        let mut c = small();
        c.set_owner(1);
        // Owner 1 fills a 2-way set with lines a and b.
        let (a, b, d) = (0x0u64, 0x100, 0x200);
        c.access(a);
        c.access(b);
        assert_eq!(c.cross_misses(), 0, "compulsory misses are not cross");
        // Owner 2 evicts a (LRU) with its own line d.
        c.set_owner(2);
        c.access(d);
        assert_eq!(c.cross_misses(), 0, "owner 2's compulsory miss");
        // Owner 1 re-misses on a: evicted by owner 2 => cross miss.
        c.set_owner(1);
        assert!(!c.access(a));
        assert_eq!(c.cross_misses(), 1);
        // Owner 1 now evicted d; owner 1 re-missing on its own victim b
        // (evicted by owner 1's refill of a) is NOT a cross miss.
        assert!(!c.access(b));
        assert_eq!(c.cross_misses(), 1);
    }

    #[test]
    fn flush_clears_pending_attributions() {
        let mut c = small();
        c.set_owner(1);
        let (a, b, d) = (0x0u64, 0x100, 0x200);
        c.access(a);
        c.access(b);
        c.set_owner(2);
        c.access(d); // evicts a under owner 2
        c.flush();
        c.set_owner(1);
        c.access(a); // would be cross without the flush
        assert_eq!(c.cross_misses(), 0);
    }

    #[test]
    fn untracked_cache_reports_zero_cross() {
        let mut c = small();
        for l in [0x0u64, 0x100, 0x200, 0x0, 0x100] {
            c.access(l);
        }
        assert_eq!(c.cross_misses(), 0);
    }

    /// Against a reference model: a cache never holds more lines than its
    /// capacity, over many random address streams.
    #[test]
    fn resident_never_exceeds_capacity() {
        for seed in 0..64u64 {
            let mut state = seed;
            let mut c = small();
            let len = 1 + (splitmix(&mut state) % 200) as usize;
            for _ in 0..len {
                c.access(splitmix(&mut state) % 0x10000);
            }
            assert!(c.resident_lines() <= 8); // 4 sets * 2 ways
        }
    }

    #[test]
    fn heat_cells_conserve_misses_and_cross() {
        let mut c = small();
        c.enable_heat();
        c.set_owner(1);
        c.set_heat_segment(10);
        let (a, b, d) = (0x0u64, 0x100, 0x200);
        c.access(a);
        c.access(b);
        c.set_owner(2);
        c.set_heat_segment(20);
        c.access(d); // evicts a under (seg 20, owner 2)
        c.set_owner(1);
        c.set_heat_segment(10);
        c.access(a); // cross miss, caused by (20, 2)
        let cells = c.heat_cells();
        let sum_miss: u64 = cells.iter().map(|(_, v)| v.misses).sum();
        let sum_cross: u64 = cells.iter().map(|(_, v)| v.cross_misses).sum();
        let sum_caused: u64 = cells.iter().map(|(_, v)| v.cross_caused).sum();
        assert_eq!(sum_miss, c.misses());
        assert_eq!(sum_cross, c.cross_misses());
        assert_eq!(sum_caused, c.cross_misses());
        let victim = cells.iter().find(|(k, _)| *k == (10, 1)).unwrap().1;
        assert_eq!(victim.cross_misses, 1, "victim side charged");
        let evictor = cells.iter().find(|(k, _)| *k == (20, 2)).unwrap().1;
        assert_eq!(evictor.cross_caused, 1, "evictor side charged");
        assert_eq!(evictor.evictions, 1);
    }

    #[test]
    fn heat_conservation_under_random_streams() {
        for seed in 0..32u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) + 1;
            let mut c = small();
            c.enable_heat();
            let len = 50 + (splitmix(&mut state) % 400) as usize;
            for _ in 0..len {
                let owner = 1 + (splitmix(&mut state) % 3) as u32;
                let seg = (splitmix(&mut state) % 4) as u16;
                c.set_owner(owner);
                c.set_heat_segment(seg);
                c.access(splitmix(&mut state) % 0x1000);
            }
            let cells = c.heat_cells();
            let sum_miss: u64 = cells.iter().map(|(_, v)| v.misses).sum();
            let sum_cross: u64 = cells.iter().map(|(_, v)| v.cross_misses).sum();
            let sum_caused: u64 = cells.iter().map(|(_, v)| v.cross_caused).sum();
            assert_eq!(sum_miss, c.misses(), "seed {seed}");
            assert_eq!(sum_cross, c.cross_misses(), "seed {seed}");
            assert_eq!(sum_caused, c.cross_misses(), "seed {seed}");
            let resident: u32 = c.heat_residency().iter().map(|&(_, _, n)| n).sum();
            assert_eq!(resident as usize, c.resident_lines(), "seed {seed}");
        }
    }

    #[test]
    fn heat_off_reports_empty_and_counts_match_enabled() {
        // The ledger must be observationally free: the same access stream
        // produces identical hit/miss results with heat on and off.
        let stream: Vec<u64> = (0..200).map(|i| (i * 37) % 0x800).collect();
        let mut plain = small();
        let mut hot = small();
        hot.enable_heat();
        hot.set_heat_segment(3);
        for &a in &stream {
            assert_eq!(plain.access(a), hot.access(a));
        }
        assert_eq!(plain.misses(), hot.misses());
        assert!(plain.heat_cells().is_empty());
        assert!(plain.heat_residency().is_empty());
    }

    #[test]
    fn heat_flush_clears_pending_attribution_state() {
        let mut c = small();
        c.enable_heat();
        c.set_owner(1);
        c.set_heat_segment(1);
        let (a, b, d) = (0x0u64, 0x100, 0x200);
        c.access(a);
        c.access(b);
        c.set_owner(2);
        c.set_heat_segment(2);
        c.access(d);
        c.flush();
        c.set_owner(1);
        c.set_heat_segment(1);
        c.access(a);
        let cells = c.heat_cells();
        let sum_caused: u64 = cells.iter().map(|(_, v)| v.cross_caused).sum();
        assert_eq!(sum_caused, 0, "flush must clear eviction attributions");
        assert_eq!(c.heat_residency().len(), 1, "only line a resident");
    }

    /// A cache whose code refills are noted and credited counts, hits and
    /// holds what one that is shown every access does, under data traffic
    /// that sometimes displaces the code: the L2 of [`crate::Machine`] beside
    /// the L2 of a naive walker.
    #[test]
    fn noted_runs_count_and_evict_like_real_ones() {
        let (mut credits, mut refusals) = (0, 0);
        for seed in 0..32u64 {
            let mut state = seed + 1;
            let cfg = CacheConfig {
                capacity: 4096,
                line_size: 64,
                associativity: [2, 4, 8][seed as usize % 3],
            };
            let (mut plain, mut lazy) = (Cache::new(cfg), Cache::new(cfg));
            // Two refill lists: some addresses share a line with the one
            // before, which takes an access but no touch.
            let runs: Vec<Vec<u64>> = (0..2)
                .map(|r| {
                    let len = 4 + splitmix(&mut state) % 12;
                    let mut addrs: Vec<u64> = (0..len)
                        .map(|_| 0x10_0000 * (r + 1) + splitmix(&mut state) % 24 * 32)
                        .collect();
                    addrs.sort_unstable();
                    addrs
                })
                .collect();
            let mut noted: [Option<Noted>; 2] = [None, None];
            let mut slots = Vec::new();
            let mut stream = 0u64;
            for step in 0..2000 {
                let context = format!("seed {seed} step {step}");
                if splitmix(&mut state).is_multiple_of(4) {
                    let r = (splitmix(&mut state) % 2) as usize;
                    let run = &runs[r];
                    plain.access_each(run, |_, _| {});
                    let known = noted[r].as_mut();
                    if known.is_some_and(|n| lazy.credit_noted(n, run.len() as u64)) {
                        credits += 1;
                    } else {
                        refusals += u32::from(noted[r].is_some());
                        let generation = lazy.note_each(run, &mut slots, |_, _| {});
                        assert!(slots.len() <= run.len());
                        Noted::renote(&mut noted[r], &slots, generation);
                    }
                } else {
                    // A scan in bursts, and re-reads of what it left behind.
                    let addr = if splitmix(&mut state).is_multiple_of(3) {
                        stream.saturating_sub(splitmix(&mut state) % 32) * 64
                    } else {
                        stream += 1;
                        stream * 64
                    };
                    assert_eq!(lazy.access_lazy(addr), plain.access(addr), "{context}");
                }
                assert_eq!(
                    (lazy.accesses(), lazy.misses()),
                    (plain.accesses(), plain.misses()),
                    "{context}"
                );
            }
            for run in &runs {
                for &addr in run {
                    assert_eq!(lazy.contains(addr), plain.contains(addr), "seed {seed}");
                }
            }
            assert!(lazy.recency_syncs() > 0, "seed {seed}");
        }
        assert!(credits > 1000 && refusals > 1000, "{credits} / {refusals}");
    }

    /// Hit/miss agrees with an exact reference LRU simulation across many
    /// random address streams.
    #[test]
    fn matches_reference_lru() {
        for seed in 0..64u64 {
            let mut state = seed.wrapping_mul(0x5851_F42D_4C95_7F2D);
            let cfg = CacheConfig {
                capacity: 512,
                line_size: 64,
                associativity: 2,
            };
            let mut c = Cache::new(cfg);
            // Reference: per-set Vec of lines ordered MRU-first.
            let mut sets: Vec<Vec<u64>> = vec![Vec::new(); 4];
            let len = 1 + (splitmix(&mut state) % 300) as usize;
            for _ in 0..len {
                let a = splitmix(&mut state) % 0x2000;
                let line = a >> 6;
                let set = (line & 3) as usize;
                let expect_hit = sets[set].contains(&line);
                if expect_hit {
                    sets[set].retain(|&l| l != line);
                } else if sets[set].len() == 2 {
                    sets[set].pop();
                }
                sets[set].insert(0, line);
                assert_eq!(c.access(a), expect_hit, "seed {seed} addr {a:#x}");
            }
        }
    }
}
