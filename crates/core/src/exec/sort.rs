//! Blocking sort.
//!
//! The build phase drains the child — interleaving the child's code with the
//! sort module's 14 K footprint per row, which is why the refiner may place
//! a buffer *below* a sort — then sorts in memory and returns tuples from
//! its own materialized storage. As a pipeline breaker it "already buffers
//! query execution below it" (§6) and is never merged into a group.

use crate::arena::{Held, TupleSlot};
use crate::context::ExecContext;
use crate::exec::{schema_slot_bytes, Operator};
use crate::expr::RowRef;
use crate::footprint::{FootprintModel, OpKind};
use bufferdb_cachesim::CodeRegion;
use bufferdb_types::{ops, Datum, Result, SchemaRef};
use std::cmp::Ordering;

/// The sort's run kernel: rows copied into the sort's own storage, sorted
/// in memory, then read back in order. [`SortOp`] forms the run one child
/// row per sort-code execution; a fused push group
/// ([`crate::exec::push`]) forms it as its sink and reads it back as the
/// source of the group above; the materialize operator keeps one and never
/// sorts it.
pub(crate) struct SortRun {
    keys: Vec<(usize, bool)>,
    /// The run as slots of its own unbounded region (table rows held by
    /// reference, built rows by copy).
    slots: Vec<TupleSlot>,
    region: u32,
    pos: usize,
}

impl SortRun {
    /// An empty run ordered by `keys` (`(column, ascending)`).
    pub(crate) fn new(keys: Vec<(usize, bool)>) -> Self {
        SortRun {
            keys,
            slots: Vec::new(),
            region: u32::MAX,
            pos: 0,
        }
    }

    /// Start a new, empty run of rows of `schema`.
    pub(crate) fn begin(&mut self, ctx: &mut ExecContext, schema: &SchemaRef) {
        self.region = ctx.arena.alloc_unbounded_region(schema_slot_bytes(schema));
        self.clear();
    }

    /// Copy one row into the run (tuplesort copies tuples; the simulated
    /// write is the copy's).
    pub(crate) fn push(&mut self, ctx: &mut ExecContext, held: Held) {
        let own = ctx.arena.store_held(self.region, held, &mut ctx.machine);
        self.slots.push(own);
    }

    /// Sort the run: n log n comparisons at ~32 instructions each.
    pub(crate) fn sort(&mut self, ctx: &mut ExecContext) {
        let n = self.slots.len() as u64;
        if n > 1 {
            ctx.machine.add_instructions(n * n.ilog2() as u64 * 32);
        }
        let (arena, keys) = (&ctx.arena, &self.keys);
        self.slots
            .sort_by(|a, b| compare(keys, arena.row(*a), arena.row(*b)));
        self.pos = 0;
    }

    /// The next row of the sorted run, its simulated read charged.
    pub(crate) fn next(&mut self, ctx: &mut ExecContext) -> Option<TupleSlot> {
        let slot = *self.slots.get(self.pos)?;
        self.pos += 1;
        ctx.arena.read(slot, &mut ctx.machine);
        Some(slot)
    }

    /// Read the run again from its first row.
    pub(crate) fn rewind(&mut self) {
        self.pos = 0;
    }

    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.pos = 0;
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

/// Sort operator.
pub struct SortOp {
    child: Box<dyn Operator>,
    schema: SchemaRef,
    code: CodeRegion,
    run: SortRun,
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
            schema,
            code,
            run: SortRun::new(keys),
            done_build: false,
        }
    }

    fn build(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.run.begin(ctx, &self.schema);
        while let Some(slot) = self.child.next(ctx)? {
            ctx.check_cancel()?;
            ctx.tuple_yield();
            ctx.machine.exec_region(&mut self.code);
            let held = ctx.arena.hold(slot);
            self.run.push(ctx, held);
        }
        self.run.sort(ctx);
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
        self.run.clear();
        Ok(())
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<TupleSlot>> {
        if !self.done_build {
            self.build(ctx)?;
        }
        // Return phase: sort code per call (tuplesort_gettuple).
        ctx.machine.exec_region(&mut self.code);
        Ok(self.run.next(ctx))
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.run.clear();
        self.child.close(ctx)
    }

    fn rescan(&mut self, _ctx: &mut ExecContext, param: Option<&Datum>) -> Result<()> {
        if param.is_some() {
            return Err(bufferdb_types::DbError::ExecProtocol(
                "sort takes no rescan parameter".into(),
            ));
        }
        // The sorted result is retained; rescanning just resets the cursor.
        self.run.rewind();
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
