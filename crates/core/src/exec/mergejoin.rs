//! Merge join over inputs sorted by the join keys.
//!
//! Duplicate keys on the right side are materialized into a small group (as
//! PostgreSQL does with a mark/restore-capable or materialized inner), so
//! arbitrary many-to-many joins work. Inputs are checked at runtime to be
//! non-decreasing in key; a violation reports an invalid plan.

use crate::arena::{Held, TupleSlot};
use crate::context::ExecContext;
use crate::exec::{schema_slot_bytes, Operator, DEFAULT_BATCH};
use crate::footprint::{FootprintModel, OpKind};
use bufferdb_cachesim::CodeRegion;
use bufferdb_types::{Datum, DbError, Result, SchemaRef};

/// Merge join operator.
pub struct MergeJoinOp {
    left: Box<dyn Operator>,
    right: Box<dyn Operator>,
    left_key: usize,
    right_key: usize,
    schema: SchemaRef,
    code: CodeRegion,
    cmp_site: u64,
    current_left: Option<(TupleSlot, i64)>,
    /// Materialized right-side rows for the current key group (table rows
    /// by reference).
    group: Vec<Held>,
    group_key: Option<i64>,
    group_pos: usize,
    /// One-tuple lookahead on the right input.
    pending_right: Option<(Held, i64)>,
    right_exhausted: bool,
    last_left_key: Option<i64>,
    last_right_key: Option<i64>,
    out_region: u32,
    batch_hint: usize,
}

impl MergeJoinOp {
    /// Build a merge join; both children must deliver rows sorted ascending
    /// by their key columns (NULL keys are skipped).
    pub fn new(
        fm: &mut FootprintModel,
        left: Box<dyn Operator>,
        right: Box<dyn Operator>,
        left_key: usize,
        right_key: usize,
    ) -> Self {
        let schema = left.schema().join(&right.schema()).into_ref();
        let code = fm.region_for(&OpKind::MergeJoin);
        let cmp_site = fm.predicate_site();
        MergeJoinOp {
            left,
            right,
            left_key,
            right_key,
            schema,
            code,
            cmp_site,
            current_left: None,
            group: Vec::new(),
            group_key: None,
            group_pos: 0,
            pending_right: None,
            right_exhausted: false,
            last_left_key: None,
            last_right_key: None,
            out_region: u32::MAX,
            batch_hint: DEFAULT_BATCH,
        }
    }

    /// Pull the next non-NULL-key right tuple into the lookahead slot.
    fn advance_right(&mut self, ctx: &mut ExecContext) -> Result<()> {
        loop {
            match self.right.next(ctx)? {
                None => {
                    self.pending_right = None;
                    self.right_exhausted = true;
                    return Ok(());
                }
                Some(slot) => {
                    match ctx
                        .arena
                        .row(slot)
                        .get(self.right_key)
                        .and_then(Datum::as_int)
                    {
                        None => continue, // NULL join keys match nothing
                        Some(k) => {
                            if let Some(prev) = self.last_right_key {
                                if k < prev {
                                    return Err(DbError::InvalidPlan(format!(
                                        "merge join right input not sorted: {k} after {prev}"
                                    )));
                                }
                            }
                            self.last_right_key = Some(k);
                            self.pending_right = Some((ctx.arena.hold(slot), k));
                            return Ok(());
                        }
                    }
                }
            }
        }
    }

    /// Pull the next non-NULL-key left tuple.
    fn advance_left(&mut self, ctx: &mut ExecContext) -> Result<bool> {
        loop {
            match self.left.next(ctx)? {
                None => {
                    self.current_left = None;
                    return Ok(false);
                }
                Some(slot) => {
                    let k = ctx
                        .arena
                        .row(slot)
                        .get(self.left_key)
                        .and_then(Datum::as_int);
                    match k {
                        None => continue,
                        Some(k) => {
                            if let Some(prev) = self.last_left_key {
                                if k < prev {
                                    return Err(DbError::InvalidPlan(format!(
                                        "merge join left input not sorted: {k} after {prev}"
                                    )));
                                }
                            }
                            self.last_left_key = Some(k);
                            self.current_left = Some((slot, k));
                            self.group_pos = 0;
                            return Ok(true);
                        }
                    }
                }
            }
        }
    }

    /// Load the right group for `key`, assuming `pending_right` holds its
    /// first member.
    fn load_group(&mut self, ctx: &mut ExecContext, key: i64) -> Result<()> {
        self.group.clear();
        self.group_key = Some(key);
        while let Some((t, k)) = self.pending_right.take() {
            if k == key {
                // Materialize the group member (small copy, as Postgres's
                // inner tuplestore does for duplicate inner keys).
                ctx.machine.add_instructions(40);
                self.group.push(t);
                self.advance_right(ctx)?;
            } else {
                self.pending_right = Some((t, k));
                break;
            }
        }
        self.group_pos = 0;
        Ok(())
    }
}

impl Operator for MergeJoinOp {
    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn set_batch_hint(&mut self, n: usize) {
        self.batch_hint = self.batch_hint.max(n);
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.left.open(ctx)?;
        self.right.open(ctx)?;
        self.out_region = ctx
            .arena
            .alloc_region(self.batch_hint as u32 + 1, schema_slot_bytes(&self.schema));
        self.current_left = None;
        self.group.clear();
        self.group_key = None;
        self.pending_right = None;
        self.right_exhausted = false;
        self.last_left_key = None;
        self.last_right_key = None;
        self.advance_right(ctx)?;
        Ok(())
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<TupleSlot>> {
        ctx.machine.exec_region(&mut self.code);
        loop {
            if self.current_left.is_none() {
                // One cancel check per left-tuple advance: key-skewed inputs
                // can spin the alignment loop for a while between returns.
                ctx.check_cancel()?;
                if !self.advance_left(ctx)? {
                    return Ok(None);
                }
            }
            let Some((left_slot, lk)) = self.current_left else {
                return Ok(None);
            };

            // Emit from the loaded group when it matches the current left key.
            if self.group_key == Some(lk) {
                if let Some(right) = self.group.get(self.group_pos) {
                    self.group_pos += 1;
                    let slot =
                        ctx.arena
                            .store_join(self.out_region, left_slot, right, &mut ctx.machine);
                    return Ok(Some(slot));
                }
                // Group exhausted for this left tuple; move to the next left
                // (which may share the key and re-scan the same group).
                self.current_left = None;
                continue;
            }

            // Align the right side with the current left key.
            match &self.pending_right {
                None => {
                    debug_assert!(self.right_exhausted);
                    // Right side is done and the loaded group (if any) is for
                    // a smaller key: no further matches are possible.
                    return Ok(None);
                }
                Some((_, rk)) => {
                    let rk = *rk;
                    ctx.machine.branch(self.cmp_site, rk < lk);
                    ctx.machine.add_instructions(24);
                    if rk < lk {
                        self.advance_right(ctx)?; // discard unmatched right
                    } else if rk == lk {
                        self.load_group(ctx, lk)?;
                    } else {
                        // rk > lk: this left tuple has no match.
                        self.current_left = None;
                    }
                }
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.group.clear();
        self.left.close(ctx)?;
        self.right.close(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::seqscan::SeqScanOp;
    use bufferdb_cachesim::MachineConfig;
    use bufferdb_storage::{Catalog, TableBuilder};
    use bufferdb_types::{DataType, Datum, Field, Schema, Tuple};

    fn table(c: &Catalog, name: &str, keys: &[Option<i64>]) {
        let mut b = TableBuilder::new(
            name,
            Schema::new(vec![
                Field::nullable("k", DataType::Int),
                Field::new("tag", DataType::Int),
            ]),
        );
        for (i, k) in keys.iter().enumerate() {
            let d = k.map(Datum::Int).unwrap_or(Datum::Null);
            b.push(Tuple::new(vec![d, Datum::Int(i as i64)]));
        }
        c.add_table(b);
    }

    fn join_counts(left: &[Option<i64>], right: &[Option<i64>]) -> usize {
        let c = Catalog::new();
        table(&c, "l", left);
        table(&c, "r", right);
        let mut fm = FootprintModel::new();
        let mut ctx = ExecContext::new(MachineConfig::pentium4_like());
        let l = Box::new(SeqScanOp::new(&c, &mut fm, "l", None, None).unwrap());
        let r = Box::new(SeqScanOp::new(&c, &mut fm, "r", None, None).unwrap());
        let mut op = MergeJoinOp::new(&mut fm, l, r, 0, 0);
        op.open(&mut ctx).unwrap();
        let mut n = 0;
        while op.next(&mut ctx).unwrap().is_some() {
            n += 1;
        }
        n
    }

    #[test]
    fn one_to_one_join() {
        let keys: Vec<Option<i64>> = (0..10).map(Some).collect();
        assert_eq!(join_counts(&keys, &keys), 10);
    }

    #[test]
    fn many_to_many_duplicates() {
        // left: 1,1,2; right: 1,2,2 -> (1×2? no: left has two 1s, right one 1) = 2, plus 1 left 2 × 2 right 2s = 2.
        assert_eq!(
            join_counts(&[Some(1), Some(1), Some(2)], &[Some(1), Some(2), Some(2)]),
            4
        );
    }

    #[test]
    fn disjoint_keys_join_empty() {
        assert_eq!(join_counts(&[Some(1), Some(3)], &[Some(2), Some(4)]), 0);
    }

    #[test]
    fn null_keys_never_match() {
        assert_eq!(join_counts(&[None, Some(1)], &[Some(1), None]), 1);
        assert_eq!(join_counts(&[None, None], &[None, None]), 0);
    }

    #[test]
    fn gaps_on_both_sides() {
        assert_eq!(
            join_counts(&[Some(1), Some(5), Some(9)], &[Some(0), Some(5), Some(10)]),
            1
        );
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(join_counts(&[], &[Some(1)]), 0);
        assert_eq!(join_counts(&[Some(1)], &[]), 0);
        assert_eq!(join_counts(&[], &[]), 0);
    }

    #[test]
    fn unsorted_input_is_reported() {
        let c = Catalog::new();
        table(&c, "l", &[Some(5), Some(1)]);
        table(&c, "r", &[Some(1), Some(5)]);
        let mut fm = FootprintModel::new();
        let mut ctx = ExecContext::new(MachineConfig::pentium4_like());
        let l = Box::new(SeqScanOp::new(&c, &mut fm, "l", None, None).unwrap());
        let r = Box::new(SeqScanOp::new(&c, &mut fm, "r", None, None).unwrap());
        let mut op = MergeJoinOp::new(&mut fm, l, r, 0, 0);
        op.open(&mut ctx).unwrap();
        let mut err = None;
        loop {
            match op.next(&mut ctx) {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(err, Some(DbError::InvalidPlan(_))), "got {err:?}");
    }

    #[test]
    fn matches_nested_loop_semantics() {
        // Cross-check against a brute-force join on a mixed workload.
        let left = [Some(1), Some(1), Some(2), Some(4), Some(4), Some(4), None];
        let right = [Some(0), Some(1), Some(2), Some(2), Some(4), None];
        let brute: usize = left
            .iter()
            .flatten()
            .map(|lk| right.iter().flatten().filter(|rk| *rk == lk).count())
            .sum();
        assert_eq!(join_counts(&left, &right), brute);
    }
}
