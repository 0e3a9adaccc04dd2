//! Blocking materialization.
//!
//! Fully consumes its input on first demand and replays it from its own
//! storage (table rows held by reference, built rows by copy; either way
//! the simulated write is the copy's). PostgreSQL inserts these under
//! subplans; Table 5's prose notes
//! that such materialization "diminishes the benefit of explicit buffering"
//! because it already batches execution below it.

use crate::arena::TupleSlot;
use crate::context::ExecContext;
use crate::exec::sort::SortRun;
use crate::exec::Operator;
use crate::footprint::{FootprintModel, OpKind};
use bufferdb_cachesim::CodeRegion;
use bufferdb_types::{Datum, DbError, Result, SchemaRef};

/// Materialize operator: its storage is a sort's run, never sorted.
pub struct MaterializeOp {
    child: Box<dyn Operator>,
    schema: SchemaRef,
    code: CodeRegion,
    stored: SortRun,
    drained: bool,
}

impl MaterializeOp {
    /// Wrap `child` with a materialization barrier.
    pub fn new(fm: &mut FootprintModel, child: Box<dyn Operator>) -> Self {
        let schema = child.schema();
        MaterializeOp {
            child,
            schema,
            code: fm.region_for(&OpKind::Materialize),
            stored: SortRun::new(Vec::new()),
            drained: false,
        }
    }
}

impl Operator for MaterializeOp {
    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.child.open(ctx)?;
        self.stored.begin(ctx, &self.schema);
        self.drained = false;
        Ok(())
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<TupleSlot>> {
        if !self.drained {
            while let Some(slot) = self.child.next(ctx)? {
                ctx.check_cancel()?;
                ctx.tuple_yield();
                ctx.machine.exec_region(&mut self.code);
                let held = ctx.arena.hold(slot);
                self.stored.push(ctx, held);
            }
            self.drained = true;
        }
        ctx.machine.exec_region(&mut self.code);
        Ok(self.stored.next(ctx))
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.stored.clear();
        self.child.close(ctx)
    }

    fn rescan(&mut self, _ctx: &mut ExecContext, param: Option<&Datum>) -> Result<()> {
        if param.is_some() {
            return Err(DbError::ExecProtocol(
                "materialize takes no parameter".into(),
            ));
        }
        // Replay without re-running the child: the point of materialization.
        self.stored.rewind();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::seqscan::SeqScanOp;
    use bufferdb_cachesim::MachineConfig;
    use bufferdb_storage::{Catalog, TableBuilder};
    use bufferdb_types::{DataType, Field, Schema, Tuple};

    fn setup(n: i64) -> (Catalog, FootprintModel, ExecContext) {
        let c = Catalog::new();
        let mut b = TableBuilder::new("t", Schema::new(vec![Field::new("k", DataType::Int)]));
        for i in 0..n {
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
    fn materialize_replays_on_rescan() {
        let (c, mut fm, mut ctx) = setup(5);
        let child = Box::new(SeqScanOp::new(&c, &mut fm, "t", None, None).unwrap());
        let mut op = MaterializeOp::new(&mut fm, child);
        op.open(&mut ctx).unwrap();
        let mut first = Vec::new();
        while let Some(s) = op.next(&mut ctx).unwrap() {
            first.push(ctx.arena.tuple(s).get(0).as_int().unwrap());
        }
        assert_eq!(first, vec![0, 1, 2, 3, 4]);
        op.rescan(&mut ctx, None).unwrap();
        let mut second = Vec::new();
        while let Some(s) = op.next(&mut ctx).unwrap() {
            second.push(ctx.arena.tuple(s).get(0).as_int().unwrap());
        }
        assert_eq!(first, second);
    }

    #[test]
    fn empty_input() {
        let (c, mut fm, mut ctx) = setup(0);
        let child = Box::new(SeqScanOp::new(&c, &mut fm, "t", None, None).unwrap());
        let mut op = MaterializeOp::new(&mut fm, child);
        op.open(&mut ctx).unwrap();
        assert!(op.next(&mut ctx).unwrap().is_none());
    }
}
