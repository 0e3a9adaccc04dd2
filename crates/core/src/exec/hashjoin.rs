//! Hash join: a blocking build phase and a pipelined probe phase.
//!
//! Following the paper (§7.5, Figure 16), build and probe are separate
//! *modules* with their own 12 K instruction footprints: the build loop
//! interleaves build code with the build child's code per row, and the probe
//! side interleaves probe code with the probe child — each pairing is a
//! candidate for a buffer operator. The build phase is blocking and never
//! joins an execution group.

use crate::arena::{Held, TupleSlot};
use crate::context::ExecContext;
use crate::exec::{schema_slot_bytes, Operator, DEFAULT_BATCH};
use crate::fault;
use crate::footprint::{FootprintModel, OpKind};
use bufferdb_cachesim::{CodeRegion, Machine};
use bufferdb_types::{Datum, Result, SchemaRef};
use std::collections::HashMap;

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
    /// Materialized build rows (the hash table keeps its own, as
    /// PostgreSQL's hash node does — table rows by reference).
    rows: Vec<Held>,
    /// Each build row's join key (`None` for NULL), in build order.
    keys: Vec<Option<i64>>,
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
            keys: Vec::new(),
            ht_base: 0,
            bucket_mask: 0,
        }
    }

    pub(crate) fn clear(&mut self) {
        self.index.clear();
        self.rows.clear();
        self.keys.clear();
    }

    fn bucket_addr(&self, key: i64) -> u64 {
        self.ht_base + (mix(key as u64) & self.bucket_mask) * 16
    }

    /// Blocking build: drain `child`, interleaving the build `code` with
    /// the child's code per row (the PCPC pattern the refiner may break
    /// with a buffer below the join), size the simulated bucket array once
    /// the row count is known, then account one bucket write per insert.
    pub(crate) fn build(
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
            let idx = self.rows.len() as u32;
            let key = ctx
                .arena
                .row(slot)
                .get(self.build_key)
                .and_then(Datum::as_int);
            // NULL build keys never match; they are stored but unreachable.
            if let Some(k) = key {
                self.index.entry(k).or_default().push(idx);
            }
            self.keys.push(key);
            self.rows.push(ctx.arena.hold(slot));
        }
        let buckets = (self.rows.len().max(1) * 2).next_power_of_two() as u64;
        self.bucket_mask = buckets - 1;
        self.ht_base = ctx.arena.sim_alloc(buckets * 16);
        // Writes are modeled in build-row order — the order the inserts
        // actually happened — not by iterating `index`, whose randomized
        // hash order would make the simulated miss counts nondeterministic.
        for k in self.keys.iter().flatten() {
            ctx.machine.data_write(self.bucket_addr(*k), 16);
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

    /// Build row `idx` (resolve through the arena).
    pub(crate) fn row(&self, idx: u32) -> &Held {
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
        ctx.arena.store_join(
            self.out_region,
            probe_slot,
            self.table.row(idx),
            &mut ctx.machine,
        )
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

        self.table
            .build(ctx, self.build.as_mut(), &mut self.build_code)?;
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
            let key = ctx
                .arena
                .row(slot)
                .get(self.probe_key)
                .and_then(Datum::as_int);
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
    use bufferdb_types::{DataType, Datum, Field, Schema, Tuple};

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
