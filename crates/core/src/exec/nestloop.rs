//! Nested-loop join, optionally parameterized (index nested-loop).
//!
//! For every outer tuple the inner child is re-scanned — with the outer key
//! as parameter for index nested-loop joins (the paper's Query 3 plan, where
//! the optimizer knows at most one inner row matches each outer tuple and
//! therefore never buffers the inner side, §7.5).

use crate::arena::TupleSlot;
use crate::context::ExecContext;
use crate::exec::filter::RowFilter;
use crate::exec::{schema_slot_bytes, Operator, DEFAULT_BATCH};
use crate::expr::{Expr, RowRef};
use crate::footprint::{FootprintModel, OpKind};
use bufferdb_cachesim::CodeRegion;
use bufferdb_types::{Datum, Result, SchemaRef};

/// Nested-loop join operator.
pub struct NestLoopOp {
    outer: Box<dyn Operator>,
    inner: Box<dyn Operator>,
    param_outer_col: Option<usize>,
    /// The qual over the (outer, inner) pair, read in place.
    qual: Option<RowFilter>,
    schema: SchemaRef,
    code: CodeRegion,
    current_outer: Option<TupleSlot>,
    out_region: u32,
    batch_hint: usize,
}

impl NestLoopOp {
    /// Build a nested-loop join.
    pub fn new(
        fm: &mut FootprintModel,
        outer: Box<dyn Operator>,
        inner: Box<dyn Operator>,
        param_outer_col: Option<usize>,
        qual: Option<Expr>,
    ) -> Self {
        let schema = outer.schema().join(&inner.schema()).into_ref();
        let code = fm.region_for(&OpKind::NestLoop);
        let qual_site = fm.predicate_site();
        NestLoopOp {
            outer,
            inner,
            param_outer_col,
            qual: qual.map(|q| RowFilter::new(&q, &schema, qual_site)),
            schema,
            code,
            current_outer: None,
            out_region: u32::MAX,
            batch_hint: DEFAULT_BATCH,
        }
    }
}

impl Operator for NestLoopOp {
    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn set_batch_hint(&mut self, n: usize) {
        self.batch_hint = self.batch_hint.max(n);
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.outer.open(ctx)?;
        self.inner.open(ctx)?;
        self.out_region = ctx
            .arena
            .alloc_region(self.batch_hint as u32 + 1, schema_slot_bytes(&self.schema));
        self.current_outer = None;
        Ok(())
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<TupleSlot>> {
        ctx.machine.exec_region(&mut self.code);
        loop {
            let outer_slot = match self.current_outer {
                Some(slot) => slot,
                None => match self.outer.next(ctx)? {
                    None => return Ok(None),
                    Some(slot) => {
                        // One cancel check per outer row: an unselective qual
                        // can spin this loop for a long time between returns.
                        ctx.check_cancel()?;
                        self.current_outer = Some(slot);
                        let param = self
                            .param_outer_col
                            .map(|c| ctx.arena.row(slot).get(c).cloned().unwrap_or(Datum::Null));
                        self.inner.rescan(ctx, param.as_ref())?;
                        slot
                    }
                },
            };
            match self.inner.next(ctx)? {
                None => {
                    self.current_outer = None;
                    continue;
                }
                Some(inner_slot) => {
                    if let Some(q) = &mut self.qual {
                        let pair =
                            RowRef::pair(ctx.arena.tuple(outer_slot), ctx.arena.tuple(inner_slot));
                        if !q.keep(&mut ctx.machine, pair)? {
                            continue;
                        }
                    }
                    let inner = ctx.arena.hold(inner_slot);
                    let slot =
                        ctx.arena
                            .store_join(self.out_region, outer_slot, &inner, &mut ctx.machine);
                    return Ok(Some(slot));
                }
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.outer.close(ctx)?;
        self.inner.close(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::indexscan::IndexScanOp;
    use crate::exec::seqscan::SeqScanOp;
    use crate::plan::IndexMode;
    use bufferdb_cachesim::MachineConfig;
    use bufferdb_index::BTreeIndex;
    use bufferdb_storage::{Catalog, IndexDef, TableBuilder};
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
        // Two lineitems per order 0..10.
        for i in 0..20 {
            li.push(Tuple::new(vec![Datum::Int(i / 2), Datum::Int(i)]));
        }
        c.add_table(li);
        let mut orders = TableBuilder::new(
            "orders",
            Schema::new(vec![
                Field::new("o_orderkey", DataType::Int),
                Field::new("o_total", DataType::Int),
            ]),
        );
        for i in 0..10 {
            orders.push(Tuple::new(vec![Datum::Int(i), Datum::Int(i * 100)]));
        }
        c.add_table(orders);
        let mut btree = BTreeIndex::new();
        for i in 0..10 {
            btree.insert(i, i as u32);
        }
        c.add_index(IndexDef {
            name: "orders_pkey".into(),
            table: "orders".into(),
            key_column: 0,
            btree,
        });
        (
            c,
            FootprintModel::new(),
            ExecContext::new(MachineConfig::pentium4_like()),
        )
    }

    #[test]
    fn index_nested_loop_join_matches_all() {
        let (c, mut fm, mut ctx) = setup();
        let outer = Box::new(SeqScanOp::new(&c, &mut fm, "lineitem", None, None).unwrap());
        let inner =
            Box::new(IndexScanOp::new(&c, &mut fm, "orders_pkey", IndexMode::LookupParam).unwrap());
        let mut op = NestLoopOp::new(&mut fm, outer, inner, Some(0), None);
        assert_eq!(op.schema().len(), 4);
        op.open(&mut ctx).unwrap();
        let mut rows = Vec::new();
        while let Some(s) = op.next(&mut ctx).unwrap() {
            rows.push(ctx.arena.tuple(s).clone());
        }
        assert_eq!(rows.len(), 20, "every lineitem joins exactly one order");
        // Check one row: lineitem 7 (order 3) joins order 3 (total 300).
        let r = &rows[7];
        assert_eq!(r.get(0).as_int(), Some(3));
        assert_eq!(r.get(3).as_int(), Some(300));
        op.close(&mut ctx).unwrap();
    }

    #[test]
    fn naive_rescan_join_with_qual() {
        let (c, mut fm, mut ctx) = setup();
        let outer = Box::new(SeqScanOp::new(&c, &mut fm, "orders", None, None).unwrap());
        let inner = Box::new(SeqScanOp::new(&c, &mut fm, "orders", None, None).unwrap());
        // Cross product filtered to o1.key = o2.key.
        let qual = Expr::col(0).eq(Expr::col(2));
        let mut op = NestLoopOp::new(&mut fm, outer, inner, None, Some(qual));
        op.open(&mut ctx).unwrap();
        let mut n = 0;
        while op.next(&mut ctx).unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 10);
    }

    #[test]
    fn empty_outer_short_circuits() {
        let (c, mut fm, mut ctx) = setup();
        let pred = Expr::col(0).lt(Expr::lit(0));
        let outer = Box::new(SeqScanOp::new(&c, &mut fm, "orders", Some(pred), None).unwrap());
        let inner = Box::new(SeqScanOp::new(&c, &mut fm, "orders", None, None).unwrap());
        let mut op = NestLoopOp::new(&mut fm, outer, inner, None, None);
        op.open(&mut ctx).unwrap();
        assert!(op.next(&mut ctx).unwrap().is_none());
    }
}
