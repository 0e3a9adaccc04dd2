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
use std::cmp::Ordering;

/// A right-side row `R` and its join key (`None` for NULL), or `None` once
/// the right input is exhausted.
type RightRow<R> = Result<Option<(R, Option<i64>)>>;

/// The merge's cursor kernel: the right side's one-row lookahead and the
/// group of right rows sharing the last loaded key. [`MergeJoinOp`] drives
/// it with right rows held from its pull child; the fused push merge stage
/// ([`crate::exec::push`]) with heap row ids from its index cursor. Both
/// hand their right input in as a `next` callback.
pub(crate) struct MergeCursor<R> {
    cmp_site: u64,
    /// Right rows whose key is `group_key`, in input order.
    group: Vec<R>,
    group_key: Option<i64>,
    pending: Option<(R, i64)>,
    last_left: Option<i64>,
    last_right: Option<i64>,
}

/// `k` must not fall below the previous key of the same side.
fn in_order(side: &str, last: &mut Option<i64>, k: i64) -> Result<()> {
    match *last {
        Some(prev) if k < prev => Err(DbError::InvalidPlan(format!(
            "merge join {side} input not sorted: {k} after {prev}"
        ))),
        _ => {
            *last = Some(k);
            Ok(())
        }
    }
}

impl<R> MergeCursor<R> {
    pub(crate) fn new(fm: &mut FootprintModel) -> Self {
        MergeCursor {
            cmp_site: fm.predicate_site(),
            group: Vec::new(),
            group_key: None,
            pending: None,
            last_left: None,
            last_right: None,
        }
    }

    pub(crate) fn reset(&mut self) {
        self.group.clear();
        self.group_key = None;
        self.pending = None;
        self.last_left = None;
        self.last_right = None;
    }

    /// Pull the next non-NULL-key right row into the lookahead.
    pub(crate) fn advance(
        &mut self,
        ctx: &mut ExecContext,
        next: &mut impl FnMut(&mut ExecContext) -> RightRow<R>,
    ) -> Result<()> {
        self.pending = loop {
            match next(ctx)? {
                None => break None,
                // NULL join keys match nothing.
                Some((_, None)) => continue,
                Some((row, Some(k))) => {
                    in_order("right", &mut self.last_right, k)?;
                    break Some((row, k));
                }
            }
        };
        Ok(())
    }

    /// Check the next left key's order.
    pub(crate) fn left(&mut self, k: i64) -> Result<()> {
        in_order("left", &mut self.last_left, k)
    }

    /// Align the right side with left key `lk`: the right rows it matches
    /// (the group loaded for it, perhaps empty), or `None` once the right
    /// side is exhausted below `lk`, so no later left row matches either.
    pub(crate) fn align(
        &mut self,
        ctx: &mut ExecContext,
        lk: i64,
        next: &mut impl FnMut(&mut ExecContext) -> RightRow<R>,
    ) -> Result<Option<&[R]>> {
        loop {
            if self.group_key == Some(lk) {
                return Ok(Some(&self.group));
            }
            let Some(rk) = self.pending.as_ref().map(|p| p.1) else {
                return Ok(None);
            };
            ctx.machine.branch(self.cmp_site, rk < lk);
            ctx.machine.add_instructions(24);
            match rk.cmp(&lk) {
                // Discard an unmatched right row.
                Ordering::Less => self.advance(ctx, next)?,
                Ordering::Equal => self.load_group(ctx, lk, next)?,
                Ordering::Greater => return Ok(Some(&[])),
            }
        }
    }

    /// Load the right group for `key`; the lookahead holds its first row.
    fn load_group(
        &mut self,
        ctx: &mut ExecContext,
        key: i64,
        next: &mut impl FnMut(&mut ExecContext) -> RightRow<R>,
    ) -> Result<()> {
        self.group.clear();
        self.group_key = Some(key);
        while let Some((row, k)) = self.pending.take() {
            if k != key {
                self.pending = Some((row, k));
                break;
            }
            // Materialize the group member (small copy, as Postgres's
            // inner tuplestore does for duplicate inner keys).
            ctx.machine.add_instructions(40);
            self.group.push(row);
            self.advance(ctx, next)?;
        }
        Ok(())
    }
}

/// Merge join operator.
pub struct MergeJoinOp {
    left: Box<dyn Operator>,
    right: Box<dyn Operator>,
    left_key: usize,
    right_key: usize,
    schema: SchemaRef,
    code: CodeRegion,
    cursor: MergeCursor<Held>,
    /// The left row being joined, the position of its next match in the
    /// cursor's group and its number of matches.
    current_left: Option<(TupleSlot, usize, usize)>,
    /// The right side ran out below the current left key: nothing more
    /// can match.
    right_done: bool,
    out_region: u32,
    batch_hint: usize,
}

/// `right`'s next row, held, with its key in column `key`.
fn held_right(ctx: &mut ExecContext, right: &mut dyn Operator, key: usize) -> RightRow<Held> {
    Ok(right.next(ctx)?.map(|slot| {
        let k = ctx.arena.row(slot).get(key).and_then(Datum::as_int);
        (ctx.arena.hold(slot), k)
    }))
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
        MergeJoinOp {
            left,
            right,
            left_key,
            right_key,
            schema,
            code,
            cursor: MergeCursor::new(fm),
            current_left: None,
            right_done: false,
            out_region: u32::MAX,
            batch_hint: DEFAULT_BATCH,
        }
    }

    /// Pull the next non-NULL-key left row and align the right side with
    /// it; `false` once no further left row can match.
    fn advance_left(&mut self, ctx: &mut ExecContext) -> Result<bool> {
        let MergeJoinOp {
            left,
            right,
            right_key,
            cursor,
            ..
        } = self;
        let mut next = |ctx: &mut ExecContext| held_right(ctx, right.as_mut(), *right_key);
        while let Some(slot) = left.next(ctx)? {
            let Some(k) = ctx
                .arena
                .row(slot)
                .get(self.left_key)
                .and_then(Datum::as_int)
            else {
                continue;
            };
            cursor.left(k)?;
            let Some(group) = cursor.align(ctx, k, &mut next)? else {
                self.right_done = true;
                return Ok(false);
            };
            self.current_left = Some((slot, 0, group.len()));
            return Ok(true);
        }
        Ok(false)
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
        self.right_done = false;
        self.cursor.reset();
        let (right, key) = (self.right.as_mut(), self.right_key);
        self.cursor.advance(ctx, &mut |ctx: &mut ExecContext| {
            held_right(ctx, right, key)
        })
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<TupleSlot>> {
        ctx.machine.exec_region(&mut self.code);
        while !self.right_done {
            if let Some((left, pos, len)) = self.current_left {
                // The cursor's group is this left row's matches.
                if pos < len {
                    self.current_left = Some((left, pos + 1, len));
                    let right = &self.cursor.group[pos];
                    let slot = ctx
                        .arena
                        .store_join(self.out_region, left, right, &mut ctx.machine);
                    return Ok(Some(slot));
                }
                // Matches exhausted for this left row; the next left row
                // may share the key and re-scan the same group.
                self.current_left = None;
            }
            // One cancel check per left-row advance: key-skewed inputs can
            // spin the alignment loop for a while between returns.
            ctx.check_cancel()?;
            if !self.advance_left(ctx)? {
                return Ok(None);
            }
        }
        Ok(None)
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.cursor.group.clear();
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
