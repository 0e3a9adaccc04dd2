//! Standalone filter operator.
//!
//! PostgreSQL folds predicates into scans and joins (as our SeqScan does);
//! a standalone filter is still useful above joins or aggregates. Its
//! footprint is not part of the paper's Table 2 and is documented as an
//! extension in DESIGN.md.

use crate::arena::TupleSlot;
use crate::context::ExecContext;
use crate::exec::Operator;
use crate::expr::{Expr, Program, RowRef};
use crate::footprint::{FootprintModel, OpKind};
use bufferdb_cachesim::{CodeRegion, Machine};
use bufferdb_types::{Datum, Result, SchemaRef};

/// The filter's row kernel: a predicate program and its branch site. The
/// filter operator, the scan's predicate, the nest-loop qual and the fused
/// push filter stage all run it.
pub(crate) struct RowFilter {
    predicate: Program,
    site: u64,
}

impl RowFilter {
    /// `predicate` lowered over rows of `schema`, branching at `site`.
    pub(crate) fn new(predicate: &Expr, schema: &SchemaRef, site: u64) -> Self {
        RowFilter {
            predicate: Program::new(predicate, schema),
            site,
        }
    }

    /// Whether `row` passes, charging the program and its branch.
    pub(crate) fn keep(&mut self, machine: &mut Machine, row: RowRef<'_>) -> Result<bool> {
        let keep = self.predicate.eval_predicate(row)?;
        machine.add_instructions(self.predicate.cost());
        machine.branch(self.site, keep);
        Ok(keep)
    }
}

/// Filter operator: passes through tuples satisfying the predicate.
pub struct FilterOp {
    child: Box<dyn Operator>,
    filter: RowFilter,
    schema: SchemaRef,
    code: CodeRegion,
}

impl FilterOp {
    /// Build a filter; the predicate is validated against the child schema.
    pub fn new(fm: &mut FootprintModel, child: Box<dyn Operator>, predicate: Expr) -> Result<Self> {
        let schema = child.schema();
        predicate.data_type(&schema)?;
        Ok(FilterOp {
            filter: RowFilter::new(&predicate, &schema, fm.predicate_site()),
            child,
            schema,
            code: fm.region_for(&OpKind::Filter),
        })
    }
}

impl Operator for FilterOp {
    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn set_batch_hint(&mut self, n: usize) {
        // We return the child's slots unchanged, so the child must keep them.
        self.child.set_batch_hint(n);
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.child.open(ctx)
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<TupleSlot>> {
        ctx.machine.exec_region(&mut self.code);
        loop {
            match self.child.next(ctx)? {
                None => return Ok(None),
                Some(slot) => {
                    if self.filter.keep(&mut ctx.machine, ctx.arena.row(slot))? {
                        return Ok(Some(slot));
                    }
                }
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.child.close(ctx)
    }

    fn rescan(&mut self, ctx: &mut ExecContext, param: Option<&Datum>) -> Result<()> {
        self.child.rescan(ctx, param)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::seqscan::SeqScanOp;
    use bufferdb_cachesim::MachineConfig;
    use bufferdb_storage::{Catalog, TableBuilder};
    use bufferdb_types::{DataType, Field, Schema, Tuple};

    fn setup() -> (Catalog, FootprintModel, ExecContext) {
        let c = Catalog::new();
        let mut b = TableBuilder::new("t", Schema::new(vec![Field::new("k", DataType::Int)]));
        for i in 0..50 {
            b.push(Tuple::new(vec![Datum::Int(i)]));
        }
        c.add_table(b);
        (
            c,
            FootprintModel::new(),
            ExecContext::new(MachineConfig::pentium4_like()),
        )
    }

    #[test]
    fn filter_passes_matching_rows() {
        let (c, mut fm, mut ctx) = setup();
        let child = Box::new(SeqScanOp::new(&c, &mut fm, "t", None, None).unwrap());
        let mut op = FilterOp::new(&mut fm, child, Expr::col(0).ge(Expr::lit(45))).unwrap();
        op.open(&mut ctx).unwrap();
        let mut got = Vec::new();
        while let Some(s) = op.next(&mut ctx).unwrap() {
            got.push(ctx.arena.tuple(s).get(0).as_int().unwrap());
        }
        assert_eq!(got, vec![45, 46, 47, 48, 49]);
    }

    #[test]
    fn invalid_predicate_rejected_at_build() {
        let (c, mut fm, _) = setup();
        let child = Box::new(SeqScanOp::new(&c, &mut fm, "t", None, None).unwrap());
        assert!(FilterOp::new(&mut fm, child, Expr::col(7).is_null()).is_err());
    }

    #[test]
    fn rescan_passes_through() {
        let (c, mut fm, mut ctx) = setup();
        let child = Box::new(SeqScanOp::new(&c, &mut fm, "t", None, None).unwrap());
        let mut op = FilterOp::new(&mut fm, child, Expr::col(0).lt(Expr::lit(2))).unwrap();
        op.open(&mut ctx).unwrap();
        let mut n = 0;
        while op.next(&mut ctx).unwrap().is_some() {
            n += 1;
        }
        op.rescan(&mut ctx, None).unwrap();
        while op.next(&mut ctx).unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 4);
    }
}
