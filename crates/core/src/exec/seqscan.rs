//! Sequential heap scan with optional predicate and projection.
//!
//! Predicate evaluation and projection happen inside the scan, as in
//! PostgreSQL (§4: "Within the Scan operator, the predicate on shipdate is
//! evaluated and projection is performed on satisfied tuples").

use crate::arena::TupleSlot;
use crate::context::ExecContext;
use crate::exec::filter::RowFilter;
use crate::exec::project::RowProject;
use crate::exec::{schema_slot_bytes, Operator, DEFAULT_BATCH};
use crate::expr::{Expr, RowRef};
use crate::fault;
use crate::footprint::{FootprintModel, OpKind};
use bufferdb_cachesim::{CodeRegion, Machine};
use bufferdb_storage::{Catalog, Table};
use bufferdb_types::{Datum, DbError, Result, Schema, SchemaRef};
use std::sync::Arc;

/// Instructions charged per additional candidate row examined within one
/// execution of the scan's code region (the inner loop stays
/// cache-resident, §7.3).
const INNER_LOOP_INSTR: u64 = 90;

/// The scan's row kernel: range claim, per-candidate fault site, data read,
/// predicate + branch, projection. [`SeqScanOp`] runs it under one region
/// execution per returned tuple; the fused push source
/// ([`crate::exec::push`]) under one per batch. The caller owns the loop:
/// [`ScanCursor::claim`] a candidate, [`ScanCursor::test`] it, and keep the
/// row it names — by reference — or its [`ScanCursor::project`]ion.
pub(crate) struct ScanCursor {
    table: Arc<Table>,
    /// The table's registration in the arena (set at `open`).
    table_id: u32,
    predicate: Option<RowFilter>,
    projection: Option<RowProject>,
    pos: u32,
    /// First row id of the scanned range (0 unless a morsel was claimed).
    start: u32,
    /// One past the last row id of the scanned range.
    limit: u32,
}

impl ScanCursor {
    pub(crate) fn new(
        table: Arc<Table>,
        fm: &mut FootprintModel,
        predicate: Option<&Expr>,
        projection: Option<&[(Expr, String)]>,
    ) -> Self {
        let schema = table.schema().clone();
        let site = fm.predicate_site();
        ScanCursor {
            predicate: predicate.map(|p| RowFilter::new(p, &schema, site)),
            projection: projection.map(|v| RowProject::new(v, &schema)),
            table,
            table_id: 0,
            pos: 0,
            start: 0,
            limit: 0,
        }
    }

    /// Position at the start of the scanned range: the whole table, or the
    /// morsel an exchange worker left in the context.
    pub(crate) fn open(&mut self, ctx: &mut ExecContext) {
        self.table_id = ctx.arena.register_table(&self.table);
        let count = self.table.row_count() as u32;
        (self.start, self.limit) = match ctx.morsel.take() {
            Some((lo, hi)) => (lo.min(count), hi.min(count)),
            None => (0, count),
        };
        self.pos = self.start;
    }

    pub(crate) fn table(&self) -> &Table {
        &self.table
    }

    /// The table's registration in the arena.
    pub(crate) fn table_id(&self) -> u32 {
        self.table_id
    }

    /// Arity of the projected rows, when the scan projects.
    pub(crate) fn projection_arity(&self) -> Option<usize> {
        self.projection.as_ref().map(RowProject::arity)
    }

    /// Restart at the beginning of the range claimed at `open`.
    pub(crate) fn rewind(&mut self) {
        self.pos = self.start;
    }

    /// Claim the next candidate row id, passing the per-candidate fault
    /// site; `None` once the range is exhausted.
    pub(crate) fn claim(&mut self, ctx: &mut ExecContext) -> Result<Option<u32>> {
        if self.pos >= self.limit {
            return Ok(None);
        }
        ctx.fault(fault::SEQSCAN_NEXT)?;
        let id = self.pos;
        self.pos += 1;
        Ok(Some(id))
    }

    /// Read candidate `id` and apply the predicate: whether the row passes.
    /// Every candidate but the `first` since the caller last executed its
    /// code region pays the inner-loop charge.
    pub(crate) fn test(&mut self, ctx: &mut ExecContext, id: u32, first: bool) -> Result<bool> {
        if !first {
            ctx.machine.add_instructions(INNER_LOOP_INSTR);
        }
        ctx.machine
            .data_read(self.table.row_addr(id), self.table.row_width(id));
        match &mut self.predicate {
            Some(pred) => pred.keep(&mut ctx.machine, RowRef::one(self.table.row(id))),
            None => Ok(true),
        }
    }

    /// Write the projection of passing row `id` into `out` (one value per
    /// projected column).
    pub(crate) fn project(
        &mut self,
        machine: &mut Machine,
        id: u32,
        out: &mut [Datum],
    ) -> Result<()> {
        match &mut self.projection {
            Some(p) => p.write(machine, RowRef::one(self.table.row(id)), out),
            None => Ok(()),
        }
    }

    /// Store passing row `id` into `region`: a reference to the table row,
    /// or its projection built in the slot's recycled tuple.
    pub(crate) fn emit(
        &mut self,
        ctx: &mut ExecContext,
        region: u32,
        id: u32,
    ) -> Result<TupleSlot> {
        let Some(arity) = self.projection_arity() else {
            return Ok(ctx
                .arena
                .store_row(region, self.table_id, id, &mut ctx.machine));
        };
        let mut out = ctx.arena.recycle(region, arity);
        self.project(&mut ctx.machine, id, out.values_mut())?;
        Ok(ctx.arena.store(region, out, &mut ctx.machine))
    }
}

/// Sequential scan operator.
pub struct SeqScanOp {
    cursor: ScanCursor,
    schema: SchemaRef,
    code: CodeRegion,
    out_region: u32,
    batch_hint: usize,
    opened: bool,
}

impl SeqScanOp {
    /// Build a scan over `table`.
    pub fn new(
        catalog: &Catalog,
        fm: &mut FootprintModel,
        table: &str,
        predicate: Option<Expr>,
        projection: Option<Vec<(Expr, String)>>,
    ) -> Result<Self> {
        let table = catalog.table(table)?;
        let schema = match &projection {
            None => table.schema().clone(),
            Some(exprs) => {
                let mut fields = Vec::new();
                for (e, name) in exprs {
                    fields.push(bufferdb_types::Field::nullable(
                        name.clone(),
                        e.data_type(table.schema())?,
                    ));
                }
                Schema::new(fields).into_ref()
            }
        };
        let code = fm.region_for(&OpKind::SeqScan {
            with_pred: predicate.is_some(),
        });
        Ok(SeqScanOp {
            cursor: ScanCursor::new(table, fm, predicate.as_ref(), projection.as_deref()),
            schema,
            code,
            out_region: u32::MAX,
            batch_hint: DEFAULT_BATCH,
            opened: false,
        })
    }
}

impl Operator for SeqScanOp {
    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn set_batch_hint(&mut self, n: usize) {
        self.batch_hint = self.batch_hint.max(n);
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.out_region = ctx
            .arena
            .alloc_region(self.batch_hint as u32 + 1, schema_slot_bytes(&self.schema));
        self.cursor.open(ctx);
        self.opened = true;
        Ok(())
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<TupleSlot>> {
        debug_assert!(self.opened, "next before open");
        ctx.machine.exec_region(&mut self.code);
        let mut first = true;
        while let Some(id) = self.cursor.claim(ctx)? {
            if self.cursor.test(ctx, id, first)? {
                return self.cursor.emit(ctx, self.out_region, id).map(Some);
            }
            first = false;
        }
        Ok(None)
    }

    fn close(&mut self, _ctx: &mut ExecContext) -> Result<()> {
        self.opened = false;
        Ok(())
    }

    fn rescan(&mut self, _ctx: &mut ExecContext, param: Option<&Datum>) -> Result<()> {
        if param.is_some() {
            return Err(DbError::ExecProtocol(
                "SeqScan takes no rescan parameter".into(),
            ));
        }
        self.cursor.rewind();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bufferdb_cachesim::MachineConfig;
    use bufferdb_storage::TableBuilder;
    use bufferdb_types::{DataType, Field, Tuple};

    fn setup(n: i64) -> (Catalog, FootprintModel, ExecContext) {
        let c = Catalog::new();
        let mut b = TableBuilder::new(
            "t",
            Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Int),
            ]),
        );
        for i in 0..n {
            b.push(Tuple::new(vec![Datum::Int(i), Datum::Int(i * 10)]));
        }
        c.add_table(b);
        (
            c,
            FootprintModel::new(),
            ExecContext::new(MachineConfig::pentium4_like()),
        )
    }

    fn drain(op: &mut dyn Operator, ctx: &mut ExecContext) -> Vec<Tuple> {
        let mut out = Vec::new();
        while let Some(s) = op.next(ctx).unwrap() {
            out.push(ctx.arena.tuple(s).clone());
        }
        out
    }

    #[test]
    fn full_scan_returns_all_rows() {
        let (c, mut fm, mut ctx) = setup(25);
        let mut op = SeqScanOp::new(&c, &mut fm, "t", None, None).unwrap();
        op.open(&mut ctx).unwrap();
        let rows = drain(&mut op, &mut ctx);
        assert_eq!(rows.len(), 25);
        assert_eq!(rows[24].get(0).as_int(), Some(24));
        op.close(&mut ctx).unwrap();
    }

    #[test]
    fn predicate_filters_and_fires_branches() {
        let (c, mut fm, mut ctx) = setup(100);
        let pred = Expr::col(0).lt(Expr::lit(10));
        let mut op = SeqScanOp::new(&c, &mut fm, "t", Some(pred), None).unwrap();
        op.open(&mut ctx).unwrap();
        let before = ctx.machine.snapshot();
        let rows = drain(&mut op, &mut ctx);
        let delta = ctx.machine.snapshot() - before;
        assert_eq!(rows.len(), 10);
        // One data-dependent branch per candidate row, plus static sites.
        assert!(delta.branches >= 100);
    }

    #[test]
    fn projection_computes_expressions() {
        let (c, mut fm, mut ctx) = setup(5);
        let proj = vec![(Expr::col(1).add(Expr::lit(1)), "v1".to_string())];
        let mut op = SeqScanOp::new(&c, &mut fm, "t", None, Some(proj)).unwrap();
        assert_eq!(op.schema().field(0).name, "v1");
        op.open(&mut ctx).unwrap();
        let rows = drain(&mut op, &mut ctx);
        assert_eq!(rows[3].get(0).as_int(), Some(31));
    }

    #[test]
    fn rescan_restarts() {
        let (c, mut fm, mut ctx) = setup(3);
        let mut op = SeqScanOp::new(&c, &mut fm, "t", None, None).unwrap();
        op.open(&mut ctx).unwrap();
        assert_eq!(drain(&mut op, &mut ctx).len(), 3);
        op.rescan(&mut ctx, None).unwrap();
        assert_eq!(drain(&mut op, &mut ctx).len(), 3);
        assert!(op.rescan(&mut ctx, Some(&Datum::Int(1))).is_err());
    }

    #[test]
    fn empty_table_yields_nothing() {
        let (c, mut fm, mut ctx) = setup(0);
        let mut op = SeqScanOp::new(&c, &mut fm, "t", None, None).unwrap();
        op.open(&mut ctx).unwrap();
        assert!(op.next(&mut ctx).unwrap().is_none());
        assert!(op.next(&mut ctx).unwrap().is_none());
    }

    #[test]
    fn batch_hint_keeps_window_alive() {
        let (c, mut fm, mut ctx) = setup(50);
        let mut op = SeqScanOp::new(&c, &mut fm, "t", None, None).unwrap();
        op.set_batch_hint(40);
        op.open(&mut ctx).unwrap();
        let mut slots = Vec::new();
        for _ in 0..40 {
            slots.push(op.next(&mut ctx).unwrap().unwrap());
        }
        // All 40 slots must still be readable (a buffer would hold them).
        for (i, s) in slots.iter().enumerate() {
            assert_eq!(ctx.arena.tuple(*s).get(0).as_int(), Some(i as i64));
        }
    }

    #[test]
    fn each_next_call_executes_scan_code() {
        let (c, mut fm, mut ctx) = setup(10);
        let mut op = SeqScanOp::new(&c, &mut fm, "t", None, None).unwrap();
        op.open(&mut ctx).unwrap();
        let before = ctx.machine.snapshot();
        op.next(&mut ctx).unwrap();
        let delta = ctx.machine.snapshot() - before;
        // 9 000 bytes / 4 = 2250 instructions minimum per call.
        assert!(delta.instructions >= 2250);
        assert!(delta.l1i_accesses >= 9000 / 64);
    }
}
