//! Per-segment i-cache heat attribution: who misses where, and who evicted
//! whom.
//!
//! The owner-tag machinery ([`crate::Cache::set_owner`]) answers *how many*
//! misses were caused by another query; the heat ledger answers *which code*
//! thrashed and *which code displaced it*. Every L1i miss is charged to a
//! ledger cell keyed by `(segment, owner tag)` — the segment being fetched
//! and the query fetching it — and, when the miss is a cross-owner miss,
//! the evicting `(segment, owner)` cell is charged one `cross_caused`.
//!
//! Conservation is exact by construction: the ledger increments in the same
//! branch of the miss path that increments the machine counters, so
//!
//! * Σ cell.misses      == L1i misses (when enabled from machine birth),
//! * Σ cell.cross_misses == Σ cell.cross_caused == `l1i_cross_misses`.
//!
//! Hits never touch the ledger — enabling heat changes no modeled counter.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// Segment name for lines fetched before any segment was announced (or under
/// code outside the named vocabulary). Id 0 is reserved for it.
pub const UNTRACKED_SEGMENT: &str = "(untracked)";

/// Process-wide segment-name interner: a name gets its small id once, when
/// [`crate::CodeLayout::define`] lays the segment out, so the per-execution
/// path announces an integer and never compares strings. Ids are stable for
/// the life of the process and equal for equal names across layouts, which
/// is what lets one long-lived machine attribute the regions of many
/// queries.
struct SegmentNames {
    ids: BTreeMap<String, u16>,
    /// `names[id - 1]`; id 0 is [`UNTRACKED_SEGMENT`].
    names: Vec<String>,
}

static SEGMENT_NAMES: Mutex<SegmentNames> = Mutex::new(SegmentNames {
    ids: BTreeMap::new(),
    names: Vec::new(),
});

/// The heat-ledger id of segment `name` (never 0).
pub(crate) fn segment_id(name: &str) -> u16 {
    let mut table = SEGMENT_NAMES
        .lock()
        .expect("segment-name interner poisoned");
    if let Some(&id) = table.ids.get(name) {
        return id;
    }
    let id = u16::try_from(table.names.len() + 1).expect("more than 65535 segment names");
    table.names.push(name.to_string());
    table.ids.insert(name.to_string(), id);
    id
}

/// The name behind a ledger id; ids nobody interned (0, or a raw
/// [`crate::Cache::set_heat_segment`] caller's) read as untracked.
pub(crate) fn segment_name(id: u16) -> String {
    let table = SEGMENT_NAMES
        .lock()
        .expect("segment-name interner poisoned");
    let name = (id as usize)
        .checked_sub(1)
        .and_then(|i| table.names.get(i));
    name.map_or(UNTRACKED_SEGMENT, String::as_str).to_string()
}

/// One cell of the heat ledger: all activity of `(segment, owner)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeatCell {
    /// L1i misses taken while fetching this segment under this owner.
    pub misses: u64,
    /// Subset of `misses` whose line was last evicted by a different owner.
    pub cross_misses: u64,
    /// Lines this (segment, owner) pushed out of the cache.
    pub evictions: u64,
    /// Cross-owner misses this (segment, owner) *caused* elsewhere: the
    /// victim re-missed on a line this cell had evicted.
    pub cross_caused: u64,
}

/// A resolved ledger: segment ids replaced by names, plus per-set residency.
///
/// Produced by `Machine::heat_snapshot`; mergeable across machines (a server
/// merges every pool worker's ledger into one server-wide heatmap).
#[derive(Debug, Clone, Default)]
pub struct HeatSnapshot {
    /// `(segment name, owner tag)` → accumulated cell.
    pub cells: HashMap<(String, u32), HeatCell>,
    /// `(set index, segment name)` → resident lines right now. Residency is
    /// a point-in-time gauge (unlike the monotonic cells) and is *not*
    /// summed on merge across time — merging machines adds disjoint caches.
    pub residency: HashMap<(usize, String), u32>,
    /// Number of L1i sets (per contributing machine; uniform by config).
    pub sets: usize,
}

impl HeatSnapshot {
    /// Fold another machine's snapshot into this one. Cells add; residency
    /// adds (disjoint physical caches); `sets` must agree.
    pub fn merge(&mut self, other: &HeatSnapshot) {
        if self.sets == 0 {
            self.sets = other.sets;
        }
        debug_assert!(
            other.sets == 0 || other.sets == self.sets,
            "merging heatmaps of different geometries"
        );
        for (k, v) in &other.cells {
            let c = self.cells.entry(k.clone()).or_default();
            c.misses += v.misses;
            c.cross_misses += v.cross_misses;
            c.evictions += v.evictions;
            c.cross_caused += v.cross_caused;
        }
        for (k, v) in &other.residency {
            *self.residency.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// Total misses across all cells.
    pub fn total_misses(&self) -> u64 {
        self.cells.values().map(|c| c.misses).sum()
    }

    /// Total cross misses across all cells (victim side).
    pub fn total_cross_misses(&self) -> u64 {
        self.cells.values().map(|c| c.cross_misses).sum()
    }

    /// Total cross misses caused (evictor side); equals
    /// [`HeatSnapshot::total_cross_misses`] by conservation.
    pub fn total_cross_caused(&self) -> u64 {
        self.cells.values().map(|c| c.cross_caused).sum()
    }

    /// Per-segment rollup (owners summed), sorted by misses descending then
    /// name, as `(segment, cell)` rows.
    pub fn by_segment(&self) -> Vec<(String, HeatCell)> {
        let mut map: HashMap<&str, HeatCell> = HashMap::new();
        for ((seg, _), v) in &self.cells {
            let c = map.entry(seg).or_default();
            c.misses += v.misses;
            c.cross_misses += v.cross_misses;
            c.evictions += v.evictions;
            c.cross_caused += v.cross_caused;
        }
        let mut rows: Vec<(String, HeatCell)> =
            map.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        rows.sort_by(|a, b| b.1.misses.cmp(&a.1.misses).then_with(|| a.0.cmp(&b.0)));
        rows
    }

    /// Render a terminal heatmap: one row per segment, one column per set
    /// bucket, shading by resident lines; miss totals on the right.
    /// `buckets` folds the sets down for narrow terminals (32 sets → 32
    /// columns at `buckets = 32`).
    pub fn render(&self, buckets: usize) -> String {
        use std::fmt::Write as _;
        const SHADES: [char; 5] = [' ', '░', '▒', '▓', '█'];
        let buckets = buckets.max(1).min(self.sets.max(1));
        let mut out = String::new();
        let rows = self.by_segment();
        // residency per (segment, bucket)
        let mut res: HashMap<(&str, usize), u32> = HashMap::new();
        let mut peak = 1u32;
        for ((set, seg), n) in &self.residency {
            let b = set * buckets / self.sets.max(1);
            let e = res.entry((seg.as_str(), b)).or_insert(0);
            *e += n;
            peak = peak.max(*e);
        }
        let name_w = rows
            .iter()
            .map(|(s, _)| s.len())
            .chain(["segment".len()])
            .max()
            .unwrap_or(7);
        let _ = writeln!(
            out,
            "{:name_w$}  {:buckets$}  {:>10} {:>10} {:>10}",
            "segment", "sets", "misses", "cross", "caused",
        );
        for (seg, cell) in &rows {
            let mut strip = String::with_capacity(buckets);
            for b in 0..buckets {
                let n = res.get(&(seg.as_str(), b)).copied().unwrap_or(0);
                let shade = if n == 0 {
                    0
                } else {
                    1 + (n as usize * (SHADES.len() - 2)) / peak as usize
                };
                strip.push(SHADES[shade.min(SHADES.len() - 1)]);
            }
            let _ = writeln!(
                out,
                "{seg:name_w$}  {strip}  {:>10} {:>10} {:>10}",
                cell.misses, cell.cross_misses, cell.cross_caused,
            );
        }
        let _ = writeln!(
            out,
            "{:name_w$}  {:buckets$}  {:>10} {:>10} {:>10}",
            "total",
            "",
            self.total_misses(),
            self.total_cross_misses(),
            self.total_cross_caused(),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(m: u64, x: u64, e: u64, c: u64) -> HeatCell {
        HeatCell {
            misses: m,
            cross_misses: x,
            evictions: e,
            cross_caused: c,
        }
    }

    #[test]
    fn merge_adds_cells_and_residency() {
        let mut a = HeatSnapshot {
            sets: 32,
            ..Default::default()
        };
        a.cells.insert(("scan_core".into(), 1), cell(10, 2, 5, 1));
        a.residency.insert((0, "scan_core".into()), 3);
        let mut b = HeatSnapshot {
            sets: 32,
            ..Default::default()
        };
        b.cells.insert(("scan_core".into(), 1), cell(4, 1, 2, 0));
        b.cells.insert(("agg_core".into(), 2), cell(7, 0, 0, 3));
        b.residency.insert((0, "scan_core".into()), 2);
        a.merge(&b);
        assert_eq!(a.cells[&("scan_core".into(), 1)], cell(14, 3, 7, 1));
        assert_eq!(a.cells[&("agg_core".into(), 2)], cell(7, 0, 0, 3));
        assert_eq!(a.residency[&(0, "scan_core".into())], 5);
        assert_eq!(a.total_misses(), 21);
        assert_eq!(a.total_cross_misses(), 3);
        assert_eq!(a.total_cross_caused(), 4);
    }

    #[test]
    fn by_segment_rolls_owners_up_and_sorts_by_misses() {
        let mut s = HeatSnapshot {
            sets: 32,
            ..Default::default()
        };
        s.cells.insert(("scan_core".into(), 1), cell(10, 0, 0, 0));
        s.cells.insert(("scan_core".into(), 2), cell(5, 0, 0, 0));
        s.cells.insert(("agg_core".into(), 1), cell(20, 0, 0, 0));
        let rows = s.by_segment();
        assert_eq!(rows[0].0, "agg_core");
        assert_eq!(rows[1].0, "scan_core");
        assert_eq!(rows[1].1.misses, 15);
    }

    #[test]
    fn render_includes_every_segment_and_totals() {
        let mut s = HeatSnapshot {
            sets: 32,
            ..Default::default()
        };
        s.cells.insert(("scan_core".into(), 1), cell(10, 2, 0, 2));
        s.residency.insert((4, "scan_core".into()), 8);
        let text = s.render(32);
        assert!(text.contains("scan_core"), "{text}");
        assert!(text.contains("total"), "{text}");
        assert!(text.contains('█') || text.contains('░'), "{text}");
    }
}
