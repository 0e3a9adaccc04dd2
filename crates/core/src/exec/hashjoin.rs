//! Hash join: a blocking build phase and a pipelined probe phase.
//!
//! Following the paper (§7.5, Figure 16), build and probe are separate
//! *modules* with their own 12 K instruction footprints: the build loop
//! interleaves build code with the build child's code per row, and the probe
//! side interleaves probe code with the probe child — each pairing is a
//! candidate for a buffer operator. The build phase is blocking and never
//! joins an execution group.

use crate::arena::TupleSlot;
use crate::context::ExecContext;
use crate::exec::{schema_slot_bytes, Operator, DEFAULT_BATCH};
use crate::fault;
use crate::footprint::{FootprintModel, OpKind};
use crate::obs::trace::{TraceEvent, Tracer};
use bufferdb_cachesim::{CodeRegion, Machine, PerfCounters};
use bufferdb_types::{DbError, Result, SchemaRef, Tuple};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

/// Below this many build rows a partitioned build cannot amortize thread
/// start-up: insert on the coordinating core instead.
const PARALLEL_BUILD_MIN_ROWS: usize = 256;

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The join's row kernel: the materialized build side, its key → row-index
/// table and the simulated bucket array. [`HashJoinOp`] probes it once per
/// `next` call under the probe region; the fused push probe stage
/// ([`crate::exec::push`]) once per batch row under the group's region.
pub(crate) struct JoinTable {
    build_key: usize,
    match_site: u64,
    /// key -> indices into `rows`, in build order.
    index: HashMap<i64, Vec<u32>>,
    /// Materialized build tuples (the hash table owns copies, as
    /// PostgreSQL's hash node does).
    rows: Vec<Tuple>,
    /// Simulated base address of the bucket array.
    ht_base: u64,
    bucket_mask: u64,
}

impl JoinTable {
    pub(crate) fn new(fm: &mut FootprintModel, build_key: usize) -> Self {
        JoinTable {
            build_key,
            match_site: fm.predicate_site(),
            index: HashMap::new(),
            rows: Vec::new(),
            ht_base: 0,
            bucket_mask: 0,
        }
    }

    pub(crate) fn clear(&mut self) {
        self.index.clear();
        self.rows.clear();
    }

    fn bucket_addr(&self, key: i64) -> u64 {
        self.ht_base + (mix(key as u64) & self.bucket_mask) * 16
    }

    /// Size the simulated bucket array once the build row count is known.
    fn alloc_buckets(&mut self, ctx: &mut ExecContext) {
        let buckets = (self.rows.len().max(1) * 2).next_power_of_two() as u64;
        self.bucket_mask = buckets - 1;
        self.ht_base = ctx.arena.sim_alloc(buckets * 16);
    }

    /// Serial blocking build: drain `child`, interleaving the build `code`
    /// with the child's code per row (the PCPC pattern the refiner may
    /// break with a buffer below the join), then account one bucket write
    /// per insert.
    pub(crate) fn build_serial(
        &mut self,
        ctx: &mut ExecContext,
        child: &mut dyn Operator,
        code: &mut CodeRegion,
    ) -> Result<()> {
        self.clear();
        while let Some(slot) = child.next(ctx)? {
            ctx.check_cancel()?;
            ctx.tuple_yield();
            ctx.fault(fault::HASHJOIN_BUILD)?;
            ctx.machine.exec_region(code);
            let row = ctx.arena.tuple(slot).clone();
            // NULL build keys never match; they are stored but unreachable.
            if let Some(k) = row.get(self.build_key).as_int() {
                self.index
                    .entry(k)
                    .or_default()
                    .push(self.rows.len() as u32);
            }
            self.rows.push(row);
        }
        self.alloc_buckets(ctx);
        // Writes are modeled in build-row order — the order the inserts
        // actually happened — not by iterating `index`, whose randomized
        // hash order would make the simulated miss counts nondeterministic.
        for row in &self.rows {
            if let Some(k) = row.get(self.build_key).as_int() {
                ctx.machine.data_write(self.bucket_addr(k), 16);
            }
        }
        Ok(())
    }

    /// Probe with one tuple's key: a random bucket read — the working set
    /// that competes with large buffers for cache (§7.4) — and the match
    /// branch. Returns the matching build-row indices in build order; a
    /// NULL key matches nothing and touches no bucket.
    pub(crate) fn probe(&self, machine: &mut Machine, key: Option<i64>) -> &[u32] {
        let matches = match key {
            None => &[],
            Some(k) => {
                machine.data_read(self.bucket_addr(k), 16);
                self.matches(k)
            }
        };
        machine.branch(self.match_site, !matches.is_empty());
        matches
    }

    /// Build-row indices stored under `key` (no simulated access).
    fn matches(&self, key: i64) -> &[u32] {
        self.index.get(&key).map_or(&[], Vec::as_slice)
    }

    pub(crate) fn row(&self, idx: u32) -> &Tuple {
        &self.rows[idx as usize]
    }
}

/// Hash join operator.
pub struct HashJoinOp {
    probe: Box<dyn Operator>,
    build: Box<dyn Operator>,
    probe_key: usize,
    schema: SchemaRef,
    probe_code: CodeRegion,
    build_code: CodeRegion,
    table: JoinTable,
    /// In-flight probe state: the probe tuple, its key, and the position of
    /// its next unreturned match.
    pending: Option<(TupleSlot, i64, usize)>,
    out_region: u32,
    batch_hint: usize,
}

impl HashJoinOp {
    /// Build a hash join; `build` is consumed entirely at `open`.
    pub fn new(
        fm: &mut FootprintModel,
        probe: Box<dyn Operator>,
        build: Box<dyn Operator>,
        probe_key: usize,
        build_key: usize,
    ) -> Self {
        let schema = probe.schema().join(&build.schema()).into_ref();
        let probe_code = fm.region_for(&OpKind::HashProbe);
        let build_code = fm.region_for(&OpKind::HashBuild);
        HashJoinOp {
            probe,
            build,
            probe_key,
            schema,
            probe_code,
            build_code,
            table: JoinTable::new(fm, build_key),
            pending: None,
            out_region: u32::MAX,
            batch_hint: DEFAULT_BATCH,
        }
    }

    /// Emit the join of `probe_slot` with build row `idx`.
    fn emit(&self, ctx: &mut ExecContext, probe_slot: TupleSlot, idx: u32) -> TupleSlot {
        let joined = ctx.arena.tuple(probe_slot).join(self.table.row(idx));
        ctx.arena.store(self.out_region, joined, &mut ctx.machine)
    }

    /// Partitioned hash-table insertion over already-drained build rows.
    ///
    /// Rows are partitioned by `mix(key) % workers`, so partitions are
    /// key-disjoint: the merged table is a conflict-free union whose per-key
    /// match lists keep the same (row-index) order as a serial build — the
    /// join output is bit-identical. Each worker simulates its inserts on
    /// its own [`Machine`] (a private core running a clone of the build code
    /// region); the worker counters are absorbed into the coordinating
    /// machine, which keeps profiler conservation exact (the jump lands on
    /// this operator's bracket).
    ///
    /// Failure semantics mirror the exchange: a worker panic is contained by
    /// `catch_unwind` and surfaces as [`DbError::WorkerFailed`]; the first
    /// failure of any kind raises a stop flag so sibling workers quit at
    /// their next row; the serial fallback is panic-free and propagates
    /// typed errors only.
    fn parallel_insert(&mut self, ctx: &mut ExecContext) -> Result<()> {
        let workers = ctx.build_threads;
        let table = &mut self.table;
        if table.rows.len() < PARALLEL_BUILD_MIN_ROWS {
            for (idx, row) in table.rows.iter().enumerate() {
                ctx.check_cancel()?;
                ctx.fault(fault::HASHJOIN_BUILD)?;
                ctx.machine.exec_region(&mut self.build_code);
                if let Some(k) = row.get(table.build_key).as_int() {
                    ctx.machine.data_write(table.bucket_addr(k), 16);
                    table.index.entry(k).or_default().push(idx as u32);
                }
            }
            return Ok(());
        }
        let cfg = ctx.machine.config().clone();
        let rows = &table.rows;
        let build_key = table.build_key;
        let ht_base = table.ht_base;
        let mask = table.bucket_mask;
        let code = &self.build_code;
        let stop = AtomicBool::new(false);
        let cancel = ctx.cancel.clone();
        let faults = std::sync::Arc::clone(&ctx.faults);
        // Per-worker flight-recorder rings (on the query clock); each build
        // partition comes back as its own `build-N` track.
        let tracers: Vec<Option<Tracer>> = (0..workers)
            .map(|w| {
                ctx.tracer
                    .as_ref()
                    .map(|t| t.for_worker(format!("build-{w}")))
            })
            .collect();
        type BuildPart = (PerfCounters, Result<HashMap<i64, Vec<u32>>>, Option<Tracer>);
        let parts: Vec<BuildPart> = std::thread::scope(|s| {
            let handles: Vec<_> = tracers
                .into_iter()
                .enumerate()
                .map(|(w, tracer)| {
                    let cfg = cfg.clone();
                    let mut code = code.clone();
                    let stop = &stop;
                    let cancel = &cancel;
                    let faults = &faults;
                    s.spawn(move || {
                        // The machine and tracer live outside the unwind
                        // boundary so a panicked worker still reports its
                        // counters and its ring.
                        let mut m = Machine::new(cfg);
                        let mut tracer = tracer;
                        let start_ns = tracer.as_ref().map_or(0, Tracer::now_ns);
                        let mut inserted = 0u64;
                        let caught =
                            catch_unwind(AssertUnwindSafe(|| -> Result<HashMap<i64, Vec<u32>>> {
                                let mut part: HashMap<i64, Vec<u32>> = HashMap::new();
                                for (idx, row) in rows.iter().enumerate() {
                                    // NULL keys go to worker 0: they run build
                                    // code but insert nothing (never matched).
                                    let key = row.get(build_key).as_int();
                                    let owner = match key {
                                        Some(k) => (mix(k as u64) % workers as u64) as usize,
                                        None => 0,
                                    };
                                    if owner != w {
                                        continue;
                                    }
                                    if stop.load(Ordering::Relaxed) {
                                        break;
                                    }
                                    if let Err(e) = cancel.check() {
                                        if let Some(t) = tracer.as_mut() {
                                            t.record(TraceEvent::CancelObserved);
                                        }
                                        return Err(e);
                                    }
                                    if let Err(e) = faults.hit(fault::HASHJOIN_BUILD) {
                                        if let Some(t) = tracer.as_mut() {
                                            t.record(TraceEvent::FaultTrip {
                                                site: fault::HASHJOIN_BUILD.into(),
                                            });
                                        }
                                        return Err(e);
                                    }
                                    m.exec_region(&mut code);
                                    if let Some(k) = key {
                                        m.data_write(ht_base + (mix(k as u64) & mask) * 16, 16);
                                        part.entry(k).or_default().push(idx as u32);
                                        inserted += 1;
                                    }
                                }
                                Ok(part)
                            }));
                        let result = match caught {
                            Ok(r) => r,
                            Err(payload) => {
                                if let Some(t) = tracer.as_mut() {
                                    t.record(TraceEvent::WorkerPanic);
                                }
                                Err(DbError::WorkerFailed(format!(
                                    "hash build worker {w} panicked: {}",
                                    fault::panic_message(&*payload)
                                )))
                            }
                        };
                        if result.is_err() {
                            stop.store(true, Ordering::Relaxed);
                        }
                        if let Some(t) = tracer.as_mut() {
                            t.record(TraceEvent::BuildPartition {
                                worker: w as u32,
                                rows: inserted,
                                start_ns,
                            });
                        }
                        (m.snapshot(), result, tracer)
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(w, h)| {
                    h.join().unwrap_or_else(|payload| {
                        (
                            PerfCounters::default(),
                            Err(DbError::WorkerFailed(format!(
                                "hash build worker {w} panicked: {}",
                                fault::panic_message(&*payload)
                            ))),
                            None,
                        )
                    })
                })
                .collect()
        });
        let mut first_err = None;
        for (counters, result, trace) in parts {
            // Absorb every lane's counters — even failed ones — so the
            // simulated work that did happen stays conserved.
            ctx.machine.absorb(&counters);
            ctx.absorb_trace(trace);
            match result {
                Ok(part) => table.index.extend(part),
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            Some(e) => {
                table.index.clear();
                Err(e)
            }
            None => Ok(()),
        }
    }
}

impl Operator for HashJoinOp {
    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn set_batch_hint(&mut self, n: usize) {
        self.batch_hint = self.batch_hint.max(n);
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.probe.open(ctx)?;
        self.build.open(ctx)?;
        self.out_region = ctx
            .arena
            .alloc_region(self.batch_hint as u32 + 1, schema_slot_bytes(&self.schema));

        if ctx.build_threads > 1 {
            // Parallel build: the child is one iterator, so the drain itself
            // stays on this core — but build-code execution and hash
            // insertion move to a key-partitioned worker pool.
            self.table.clear();
            while let Some(slot) = self.build.next(ctx)? {
                ctx.check_cancel()?;
                ctx.tuple_yield();
                let row = ctx.arena.tuple(slot).clone();
                self.table.rows.push(row);
            }
            self.table.alloc_buckets(ctx);
            self.parallel_insert(ctx)?;
        } else {
            self.table
                .build_serial(ctx, self.build.as_mut(), &mut self.build_code)?;
        }
        self.pending = None;
        Ok(())
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<TupleSlot>> {
        ctx.machine.exec_region(&mut self.probe_code);
        if let Some((probe_slot, key, pos)) = self.pending {
            let matches = self.table.matches(key);
            self.pending = (pos + 1 < matches.len()).then_some((probe_slot, key, pos + 1));
            return Ok(Some(self.emit(ctx, probe_slot, matches[pos])));
        }
        while let Some(slot) = self.probe.next(ctx)? {
            let key = ctx.arena.tuple(slot).get(self.probe_key).as_int();
            let matches = self.table.probe(&mut ctx.machine, key);
            if let (Some(k), Some(&first)) = (key, matches.first()) {
                if matches.len() > 1 {
                    self.pending = Some((slot, k, 1));
                }
                return Ok(Some(self.emit(ctx, slot, first)));
            }
        }
        Ok(None)
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.table.clear();
        self.probe.close(ctx)?;
        self.build.close(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::seqscan::SeqScanOp;
    use crate::expr::Expr;
    use bufferdb_cachesim::MachineConfig;
    use bufferdb_storage::{Catalog, TableBuilder};
    use bufferdb_types::{DataType, Datum, Field, Schema};

    fn setup() -> (Catalog, FootprintModel, ExecContext) {
        let c = Catalog::new();
        let mut li = TableBuilder::new(
            "lineitem",
            Schema::new(vec![
                Field::new("l_orderkey", DataType::Int),
                Field::new("l_qty", DataType::Int),
            ]),
        );
        for i in 0..30 {
            li.push(Tuple::new(vec![Datum::Int(i / 3), Datum::Int(i)]));
        }
        c.add_table(li);
        let mut orders = TableBuilder::new(
            "orders",
            Schema::new(vec![
                Field::new("o_orderkey", DataType::Int),
                Field::nullable("o_flag", DataType::Int),
            ]),
        );
        for i in 0..10 {
            orders.push(Tuple::new(vec![Datum::Int(i), Datum::Int(i % 2)]));
        }
        // A row with NULL flag and an unmatched key.
        orders.push(Tuple::new(vec![Datum::Int(99), Datum::Null]));
        c.add_table(orders);
        (
            c,
            FootprintModel::new(),
            ExecContext::new(MachineConfig::pentium4_like()),
        )
    }

    fn scan(c: &Catalog, fm: &mut FootprintModel, t: &str) -> Box<dyn Operator> {
        Box::new(SeqScanOp::new(c, fm, t, None, None).unwrap())
    }

    #[test]
    fn equi_join_produces_all_matches() {
        let (c, mut fm, mut ctx) = setup();
        let probe = scan(&c, &mut fm, "lineitem");
        let build = scan(&c, &mut fm, "orders");
        let mut op = HashJoinOp::new(&mut fm, probe, build, 0, 0);
        op.open(&mut ctx).unwrap();
        let mut rows = Vec::new();
        while let Some(s) = op.next(&mut ctx).unwrap() {
            rows.push(ctx.arena.tuple(s).clone());
        }
        assert_eq!(rows.len(), 30, "30 lineitems each match one order");
        for r in &rows {
            assert_eq!(r.get(0).as_int(), r.get(2).as_int(), "keys must agree");
        }
        op.close(&mut ctx).unwrap();
    }

    #[test]
    fn duplicate_build_keys_fan_out() {
        let (c, mut fm, mut ctx) = setup();
        // Join orders (probe) against lineitem (build): each order has 3 items.
        let probe = scan(&c, &mut fm, "orders");
        let build = scan(&c, &mut fm, "lineitem");
        let mut op = HashJoinOp::new(&mut fm, probe, build, 0, 0);
        op.open(&mut ctx).unwrap();
        let mut n = 0;
        while op.next(&mut ctx).unwrap().is_some() {
            n += 1;
        }
        assert_eq!(
            n, 30,
            "10 matching orders × 3 items (order 99 matches none)"
        );
    }

    #[test]
    fn probe_with_predicate_filtered_child() {
        let (c, mut fm, mut ctx) = setup();
        let pred = Expr::col(0).lt(Expr::lit(2));
        let probe = Box::new(SeqScanOp::new(&c, &mut fm, "lineitem", Some(pred), None).unwrap());
        let build = scan(&c, &mut fm, "orders");
        let mut op = HashJoinOp::new(&mut fm, probe, build, 0, 0);
        op.open(&mut ctx).unwrap();
        let mut n = 0;
        while op.next(&mut ctx).unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 6, "orders 0 and 1, 3 items each");
    }

    #[test]
    fn empty_build_side_yields_nothing() {
        let (c, mut fm, mut ctx) = setup();
        let pred = Expr::col(0).lt(Expr::lit(0));
        let build = Box::new(SeqScanOp::new(&c, &mut fm, "orders", Some(pred), None).unwrap());
        let probe = scan(&c, &mut fm, "lineitem");
        let mut op = HashJoinOp::new(&mut fm, probe, build, 0, 0);
        op.open(&mut ctx).unwrap();
        assert!(op.next(&mut ctx).unwrap().is_none());
    }

    #[test]
    fn build_phase_executes_build_code_per_row() {
        let (c, mut fm, mut ctx) = setup();
        let probe = scan(&c, &mut fm, "lineitem");
        let build = scan(&c, &mut fm, "orders");
        let mut op = HashJoinOp::new(&mut fm, probe, build, 0, 0);
        let before = ctx.machine.snapshot();
        op.open(&mut ctx).unwrap();
        let delta = ctx.machine.snapshot() - before;
        // 11 build rows × (12 K build code / 4 + 9 K scan code / 4) ≥ 55 K instructions.
        assert!(delta.instructions > 50_000, "got {}", delta.instructions);
    }
}
