//! Blocking sort.
//!
//! The build phase drains the child — interleaving the child's code with the
//! sort module's 14 K footprint per row, which is why the refiner may place
//! a buffer *below* a sort — then sorts in memory and returns tuples from
//! its own materialized storage. As a pipeline breaker it "already buffers
//! query execution below it" (§6) and is never merged into a group.

use crate::arena::TupleSlot;
use crate::context::ExecContext;
use crate::exec::{schema_slot_bytes, Operator};
use crate::expr::RowRef;
use crate::footprint::{FootprintModel, OpKind};
use bufferdb_cachesim::CodeRegion;
use bufferdb_types::{ops, Datum, Result, SchemaRef};
use std::cmp::Ordering;

/// Sort operator.
pub struct SortOp {
    child: Box<dyn Operator>,
    keys: Vec<(usize, bool)>,
    schema: SchemaRef,
    code: CodeRegion,
    /// Sorted output order as slots into our own materialized region
    /// (table rows held by reference, built rows by copy).
    sorted: Vec<TupleSlot>,
    pos: usize,
    own_region: u32,
    done_build: bool,
}

impl SortOp {
    /// Build a sort over `keys` (`(column, ascending)`).
    pub fn new(
        fm: &mut FootprintModel,
        child: Box<dyn Operator>,
        keys: Vec<(usize, bool)>,
    ) -> Self {
        let schema = child.schema();
        let code = fm.region_for(&OpKind::Sort);
        SortOp {
            child,
            keys,
            schema,
            code,
            sorted: Vec::new(),
            pos: 0,
            own_region: u32::MAX,
            done_build: false,
        }
    }

    fn compare(keys: &[(usize, bool)], a: RowRef<'_>, b: RowRef<'_>) -> Ordering {
        for &(col, asc) in keys {
            let (x, y) = (a.get(col), b.get(col));
            let o = ops::sort_compare(x.unwrap_or(&Datum::Null), y.unwrap_or(&Datum::Null));
            let o = if asc { o } else { o.reverse() };
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    }

    fn build(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.own_region = ctx
            .arena
            .alloc_unbounded_region(schema_slot_bytes(&self.schema));
        self.sorted.clear();
        while let Some(slot) = self.child.next(ctx)? {
            ctx.check_cancel()?;
            ctx.tuple_yield();
            ctx.machine.exec_region(&mut self.code);
            // Materialize into our own storage (tuplesort copies tuples;
            // the simulated write is the copy's).
            let held = ctx.arena.hold(slot);
            let own = ctx
                .arena
                .store_held(self.own_region, held, &mut ctx.machine);
            self.sorted.push(own);
        }
        // The in-memory sort: n log n comparisons at ~32 instructions each.
        let n = self.sorted.len() as u64;
        if n > 1 {
            ctx.machine.add_instructions(n * n.ilog2() as u64 * 32);
        }
        let (arena, keys) = (&ctx.arena, &self.keys);
        self.sorted
            .sort_by(|a, b| Self::compare(keys, arena.row(*a), arena.row(*b)));
        self.pos = 0;
        self.done_build = true;
        Ok(())
    }
}

impl Operator for SortOp {
    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.child.open(ctx)?;
        self.done_build = false;
        self.sorted.clear();
        self.pos = 0;
        Ok(())
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<TupleSlot>> {
        if !self.done_build {
            self.build(ctx)?;
        }
        // Return phase: sort code per call (tuplesort_gettuple).
        ctx.machine.exec_region(&mut self.code);
        if self.pos >= self.sorted.len() {
            return Ok(None);
        }
        let slot = self.sorted[self.pos];
        self.pos += 1;
        ctx.arena.read(slot, &mut ctx.machine);
        Ok(Some(slot))
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.sorted.clear();
        self.child.close(ctx)
    }

    fn rescan(&mut self, _ctx: &mut ExecContext, param: Option<&Datum>) -> Result<()> {
        if param.is_some() {
            return Err(bufferdb_types::DbError::ExecProtocol(
                "sort takes no rescan parameter".into(),
            ));
        }
        // The sorted result is retained; rescanning just resets the cursor.
        self.pos = 0;
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

    fn setup(vals: &[Option<i64>]) -> (Catalog, FootprintModel, ExecContext) {
        let c = Catalog::new();
        let mut b = TableBuilder::new(
            "t",
            Schema::new(vec![
                Field::nullable("k", DataType::Int),
                Field::new("tag", DataType::Int),
            ]),
        );
        for (i, v) in vals.iter().enumerate() {
            b.push(Tuple::new(vec![
                v.map(Datum::Int).unwrap_or(Datum::Null),
                Datum::Int(i as i64),
            ]));
        }
        c.add_table(b);
        (
            c,
            FootprintModel::new(),
            ExecContext::new(MachineConfig::pentium4_like()),
        )
    }

    fn sort_keys(vals: &[Option<i64>], asc: bool) -> Vec<Option<i64>> {
        let (c, mut fm, mut ctx) = setup(vals);
        let child = Box::new(SeqScanOp::new(&c, &mut fm, "t", None, None).unwrap());
        let mut op = SortOp::new(&mut fm, child, vec![(0, asc)]);
        op.open(&mut ctx).unwrap();
        let mut out = Vec::new();
        while let Some(s) = op.next(&mut ctx).unwrap() {
            out.push(ctx.arena.tuple(s).get(0).as_int());
        }
        op.close(&mut ctx).unwrap();
        out
    }

    #[test]
    fn ascending_sort() {
        assert_eq!(
            sort_keys(&[Some(3), Some(1), Some(2)], true),
            vec![Some(1), Some(2), Some(3)]
        );
    }

    #[test]
    fn descending_sort() {
        assert_eq!(
            sort_keys(&[Some(3), Some(1), Some(2)], false),
            vec![Some(3), Some(2), Some(1)]
        );
    }

    #[test]
    fn nulls_sort_last_in_ascending() {
        assert_eq!(
            sort_keys(&[None, Some(2), Some(1)], true),
            vec![Some(1), Some(2), None]
        );
    }

    #[test]
    fn empty_input() {
        assert_eq!(sort_keys(&[], true), Vec::<Option<i64>>::new());
    }

    #[test]
    fn large_sort_matches_std() {
        let vals: Vec<Option<i64>> = (0..2000).map(|i| Some((i * 7919) % 1000)).collect();
        let got = sort_keys(&vals, true);
        let mut want = vals.clone();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn rescan_replays_sorted_output() {
        let (c, mut fm, mut ctx) = setup(&[Some(2), Some(1)]);
        let child = Box::new(SeqScanOp::new(&c, &mut fm, "t", None, None).unwrap());
        let mut op = SortOp::new(&mut fm, child, vec![(0, true)]);
        op.open(&mut ctx).unwrap();
        while op.next(&mut ctx).unwrap().is_some() {}
        op.rescan(&mut ctx, None).unwrap();
        let s = op.next(&mut ctx).unwrap().unwrap();
        assert_eq!(ctx.arena.tuple(s).get(0).as_int(), Some(1));
    }

    #[test]
    fn secondary_key_breaks_ties() {
        let (c, mut fm, mut ctx) = setup(&[Some(1), Some(1), Some(0)]);
        let child = Box::new(SeqScanOp::new(&c, &mut fm, "t", None, None).unwrap());
        // Sort by k asc, then tag desc.
        let mut op = SortOp::new(&mut fm, child, vec![(0, true), (1, false)]);
        op.open(&mut ctx).unwrap();
        let mut tags = Vec::new();
        while let Some(s) = op.next(&mut ctx).unwrap() {
            tags.push(ctx.arena.tuple(s).get(1).as_int().unwrap());
        }
        assert_eq!(tags, vec![2, 1, 0]);
    }
}
