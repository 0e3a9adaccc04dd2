//! The scheduler both servers share: admission, open phases, owner tags,
//! completion accounting and the query-lifecycle spans.
//!
//! [`Sched`] owns no lock, clock or thread. Each driver wraps it in its own
//! concurrency and time: the threaded [`super::Server`] keeps it behind a
//! mutex and stamps wall nanoseconds; the [`super::virt::VirtualServer`]
//! keeps it inside its core state and stamps virtual nanoseconds. Every
//! decision below is therefore made by the same code on both servers.

use super::{ServerRecorder, ServerStats};
use crate::exec::phase::{Lane, PhaseState};
use crate::exec::{DriveSpec, QueryOutcome};
use crate::obs::trace::TraceEvent;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// A submitted query waiting for admission. `spec.tag` carries its owner
/// tag; `reply` is whatever the driver hands the outcome back through.
pub(crate) struct Job<R> {
    /// Submission id (monotonic per server), echoed in recorder spans.
    pub(crate) id: u64,
    /// Arrival on the driver's clock.
    pub(crate) arrival_ns: u64,
    pub(crate) spec: DriveSpec,
    pub(crate) reply: R,
}

/// Owner tags of the queries submitted and not yet finished.
///
/// Issuing wraps past 0 — the simulator's "untagged" sentinel, under which
/// a query's cross-query misses would be attributed to no one — and skips
/// every tag a live query still holds, so after 2³² submissions a
/// long-running query never shares its tag (its self-evictions would count
/// as `l1i_cross_misses`). The skip terminates: at most `slots + waiting`
/// tags are live at once.
struct OwnerTags {
    next: u32,
    live: HashSet<u32>,
}

impl OwnerTags {
    fn issue(&mut self) -> u32 {
        loop {
            let tag = self.next;
            self.next = self.next.wrapping_add(1);
            if tag != 0 && self.live.insert(tag) {
                return tag;
            }
        }
    }
}

/// Admission slots, the FIFO wait queue, the open phases, owner tags,
/// counters and the server flight recorder's query spans.
pub(crate) struct Sched<R> {
    slots: usize,
    pub(crate) waiting: VecDeque<Job<R>>,
    active: usize,
    /// Open phases, claimable by any pool worker.
    pub(crate) phases: Vec<Arc<PhaseState>>,
    tags: OwnerTags,
    pub(crate) stats: ServerStats,
    /// The server flight recorder; `None` until enabled.
    pub(crate) recorder: Option<ServerRecorder>,
}

impl<R> Sched<R> {
    /// An empty scheduler admitting at most `slots` concurrent drives.
    pub(crate) fn new(slots: usize) -> Self {
        Sched {
            slots,
            waiting: VecDeque::new(),
            active: 0,
            phases: Vec::new(),
            tags: OwnerTags {
                next: 1,
                live: HashSet::new(),
            },
            stats: ServerStats::default(),
            recorder: None,
        }
    }

    /// Queue a built drive arriving at `arrival_ns`: issue its owner tag and
    /// submission id and count it. Returns `(id, tag)`.
    pub(crate) fn enqueue(&mut self, mut spec: DriveSpec, arrival_ns: u64, reply: R) -> (u64, u32) {
        let tag = self.tags.issue();
        spec.tag = tag;
        let id = self.stats.submitted;
        self.stats.submitted += 1;
        self.waiting.push_back(Job {
            id,
            arrival_ns,
            spec,
            reply,
        });
        (id, tag)
    }

    /// Take the head of the queue if a slot is open and it has arrived by
    /// `reach`; the job then holds a slot until [`Sched::finished`].
    pub(crate) fn admit(&mut self, reach: u64) -> Option<Job<R>> {
        if self.active >= self.slots || self.waiting.front()?.arrival_ns > reach {
            return None;
        }
        self.active += 1;
        self.waiting.pop_front()
    }

    /// Query `id`, arrived at `arrival_ns`, first ran at `now`: its wait
    /// span ends.
    pub(crate) fn started(&mut self, id: u64, arrival_ns: u64, now: u64) {
        if let Some(r) = self.recorder.as_mut() {
            r.record_query(
                now,
                TraceEvent::QueryWait {
                    query: id,
                    start_ns: arrival_ns.min(now),
                },
            );
        }
    }

    /// Query `id` (owner `tag`), running since `start_ns`, finished at `now`
    /// with `out`: free its slot and tag, count it, close its run span.
    pub(crate) fn finished(
        &mut self,
        id: u64,
        tag: u32,
        start_ns: u64,
        now: u64,
        out: &QueryOutcome,
    ) {
        self.active -= 1;
        self.tags.live.remove(&tag);
        self.stats.completed += 1;
        if !out.is_ok() {
            self.stats.failed += 1;
        }
        if let Some(r) = self.recorder.as_mut() {
            r.record_query(
                now,
                TraceEvent::QueryRun {
                    query: id,
                    rows: out.rows().len() as u64,
                    ok: out.is_ok(),
                    start_ns,
                },
            );
        }
    }

    /// Make a phase claimable by every worker.
    pub(crate) fn open_phase(&mut self, phase: Arc<PhaseState>) {
        self.phases.push(phase);
    }

    /// Claim one unit for worker `w`: open phases are probed in ring order
    /// from `w % n`, each from shard `w` first.
    pub(crate) fn claim(&self, w: usize) -> Option<(Arc<PhaseState>, Lane, usize)> {
        let n = self.phases.len();
        (0..n).find_map(|off| {
            let p = &self.phases[(w + off) % n];
            p.begin_unit(w)
                .map(|(lane, idx)| (Arc::clone(p), lane, idx))
        })
    }

    /// Retire a finished phase and credit its steals.
    pub(crate) fn close_phase(&mut self, phase: &Arc<PhaseState>) {
        self.phases.retain(|p| !Arc::ptr_eq(p, phase));
        self.stats.steals += phase.steals();
    }

    /// One unit ran.
    pub(crate) fn unit_done(&mut self) {
        self.stats.units += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::FootprintModel;
    use crate::plan::PlanNode;
    use crate::session::QueryOpts;
    use bufferdb_cachesim::MachineConfig;
    use bufferdb_storage::{Catalog, TableBuilder};
    use bufferdb_types::{DataType, Datum, DbError, Field, Schema, Tuple};

    #[test]
    fn owner_tags_wrap_past_the_sentinel_and_skip_live_tags() {
        let catalog = Catalog::new();
        let mut t = TableBuilder::new("t", Schema::new(vec![Field::new("k", DataType::Int)]));
        t.push(Tuple::new(vec![Datum::Int(1)]));
        catalog.add_table(t);
        let plan = PlanNode::SeqScan {
            table: "t".into(),
            predicate: None,
            projection: None,
        };
        let master = FootprintModel::prelinked();
        let spec = || DriveSpec::for_server(&plan, &catalog, &master, &QueryOpts::new()).unwrap();
        let mut sched = Sched::new(1);
        // A long-lived query holds tag 5; the counter is about to wrap.
        sched.tags.next = 5;
        sched.enqueue(spec(), 0, ());
        let running = sched.admit(0).expect("a slot is open");
        sched.tags.next = u32::MAX - 1;
        let issued: Vec<u32> = (0..7).map(|_| sched.enqueue(spec(), 0, ()).1).collect();
        assert_eq!(
            issued,
            [u32::MAX - 1, u32::MAX, 1, 2, 3, 4, 6],
            "issuing must wrap past the sentinel 0 and skip the live tag 5"
        );
        // A finished query's tag comes back on the next lap; queued ones
        // still hold theirs.
        let out = QueryOutcome::failed(
            &MachineConfig::pentium4_like(),
            DbError::Cancelled("done".into()),
        );
        sched.finished(running.id, running.spec.tag, 0, 0, &out);
        sched.tags.next = 1;
        assert_eq!(sched.enqueue(spec(), 0, ()), (8, 5));
        let expect = ServerStats {
            submitted: 9,
            completed: 1,
            failed: 1,
            ..ServerStats::default()
        };
        assert_eq!(sched.stats, expect);
    }
}
