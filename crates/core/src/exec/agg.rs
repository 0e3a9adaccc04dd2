//! Aggregation: plain (single row) and hash group-by.
//!
//! A plain aggregate consumes its entire input inside the first `next` call,
//! executing the aggregation code once per input row interleaved with the
//! child's code — the exact PCPC pattern of the paper's Query 1, and the
//! reason the refiner puts a buffer between scan and aggregation when the
//! combined footprint exceeds the L1 instruction cache.

use crate::arena::TupleSlot;
use crate::context::ExecContext;
use crate::exec::{schema_slot_bytes, Operator, DEFAULT_BATCH};
use crate::expr::{Expr, Program, RowRef};
use crate::footprint::{FootprintModel, OpKind};
use crate::plan::{AggFunc, AggSpec};
use bufferdb_cachesim::{CodeRegion, Machine};
use bufferdb_types::{ops, Datum, DbError, Result, Schema, SchemaRef, Tuple};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Running state of one aggregate.
#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    Sum(Option<Datum>),
    Min(Option<Datum>),
    Max(Option<Datum>),
    Avg { sum: f64, n: i64 },
}

impl AggState {
    fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::CountStar | AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum(None),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
        }
    }

    fn update(&mut self, value: Option<&Datum>) -> Result<()> {
        match self {
            AggState::Count(n) => {
                // COUNT(*) is fed None-as-star; COUNT(expr) skips NULLs.
                match value {
                    Some(v) if v.is_null() => {}
                    _ => *n += 1,
                }
            }
            AggState::Sum(acc) => {
                if let Some(v) = value.filter(|v| !v.is_null()) {
                    // Int and Decimal sums add in place; anything else (a
                    // coercion, an overflow) is `ops::add`'s.
                    let fast = match (&*acc, v) {
                        (Some(Datum::Int(a)), Datum::Int(b)) => a.checked_add(*b).map(Datum::Int),
                        (Some(Datum::Decimal(a)), Datum::Decimal(b)) => {
                            a.checked_add(b).ok().map(Datum::Decimal)
                        }
                        _ => None,
                    };
                    *acc = Some(match (fast, acc.take()) {
                        (Some(sum), _) => sum,
                        (None, None) => v.clone(),
                        (None, Some(a)) => ops::add(&a, v)?,
                    });
                }
            }
            AggState::Min(acc) => {
                if let Some(v) = value {
                    if !v.is_null() {
                        let replace = match acc {
                            None => true,
                            Some(a) => {
                                matches!(ops::compare(v, a)?, Some(std::cmp::Ordering::Less))
                            }
                        };
                        if replace {
                            *acc = Some(v.clone());
                        }
                    }
                }
            }
            AggState::Max(acc) => {
                if let Some(v) = value {
                    if !v.is_null() {
                        let replace = match acc {
                            None => true,
                            Some(a) => {
                                matches!(ops::compare(v, a)?, Some(std::cmp::Ordering::Greater))
                            }
                        };
                        if replace {
                            *acc = Some(v.clone());
                        }
                    }
                }
            }
            AggState::Avg { sum, n } => {
                if let Some(v) = value {
                    if let Some(f) = datum_to_f64(v) {
                        *sum += f;
                        *n += 1;
                    }
                }
            }
        }
        Ok(())
    }

    fn finish(&self) -> Datum {
        match self {
            AggState::Count(n) => Datum::Int(*n),
            AggState::Sum(acc) | AggState::Min(acc) | AggState::Max(acc) => {
                acc.clone().unwrap_or(Datum::Null)
            }
            AggState::Avg { sum, n } => {
                if *n == 0 {
                    Datum::Null
                } else {
                    Datum::Float(sum / *n as f64)
                }
            }
        }
    }
}

fn datum_to_f64(d: &Datum) -> Option<f64> {
    match d {
        Datum::Int(v) => Some(*v as f64),
        Datum::Float(v) => Some(*v),
        Datum::Decimal(v) => Some(v.to_f64()),
        _ => None,
    }
}

/// One group-key column as grouping sees it, borrowed from the row: equal
/// keys group together (decimals are canonicalized so 1.50 and 1.5 do) and
/// hash alike. The hash feeds the simulated bucket address, so it must not
/// move: the variants, their order and their payload types are those of the
/// owned key this replaced (`Str` hashes as `str` either way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum KeyAtom<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Date(i32),
    Str(&'a str),
    Dec(i128, u8),
}

/// `d` as a key atom; `None` for a float, which cannot be grouped on.
fn key_atom(d: &Datum) -> Option<KeyAtom<'_>> {
    Some(match d {
        Datum::Null => KeyAtom::Null,
        Datum::Bool(b) => KeyAtom::Bool(*b),
        Datum::Int(v) => KeyAtom::Int(*v),
        Datum::Date(v) => KeyAtom::Date(v.days()),
        Datum::Str(s) => KeyAtom::Str(s),
        Datum::Decimal(v) => {
            let (mut m, mut s) = (v.mantissa(), v.scale());
            while s > 0 && m % 10 == 0 {
                m /= 10;
                s -= 1;
            }
            KeyAtom::Dec(m, s)
        }
        Datum::Float(_) => return None,
    })
}

/// One group: its key values as first seen, its states, and the next group
/// whose key hashes the same.
struct Group {
    key: Vec<Datum>,
    states: Vec<AggState>,
    next: Option<u32>,
}

/// The aggregate's row kernel: plain or hash-grouped accumulation with
/// first-seen group order. [`AggregateOp`] feeds it one child tuple per
/// region execution; the fused push sink ([`crate::exec::push`]) a whole
/// batch — or a probe's (probe row, build row) pairs — per region execution.
/// Both fold through the same `AggState`s, so results are bit-identical.
pub(crate) struct Accumulator {
    group_by: Vec<usize>,
    funcs: Vec<AggFunc>,
    /// Each aggregate's argument; `None` for `COUNT(*)`.
    args: Vec<Option<Program>>,
    /// Running states of a plain (ungrouped) aggregate.
    states: Vec<AggState>,
    /// Groups in first-seen order (the output order).
    groups: Vec<Group>,
    /// Key hash → first group with that hash.
    index: HashMap<u64, u32>,
    ht_base: u64,
}

impl Accumulator {
    /// An accumulator whose aggregate arguments `lower` compiles against
    /// its input rows.
    pub(crate) fn new(
        group_by: Vec<usize>,
        aggs: &[AggSpec],
        lower: impl Fn(&Expr) -> Program,
    ) -> Result<Self> {
        let mut args = Vec::with_capacity(aggs.len());
        for a in aggs {
            args.push(match (a.func, &a.input) {
                (AggFunc::CountStar, _) => None,
                (_, Some(e)) => Some(lower(e)),
                (func, None) => {
                    return Err(DbError::InvalidPlan(format!(
                        "{func:?} requires an argument"
                    )))
                }
            });
        }
        Ok(Accumulator {
            group_by,
            funcs: aggs.iter().map(|a| a.func).collect(),
            args,
            states: Vec::new(),
            groups: Vec::new(),
            index: HashMap::new(),
            ht_base: 0,
        })
    }

    fn new_states(&self) -> Vec<AggState> {
        self.funcs.iter().map(|&f| AggState::new(f)).collect()
    }

    /// Start a fresh accumulation (allocating the simulated group table
    /// when grouping).
    pub(crate) fn reset(&mut self, ctx: &mut ExecContext) {
        self.states = self.new_states();
        self.groups.clear();
        self.index.clear();
        if !self.group_by.is_empty() {
            self.ht_base = ctx.arena.sim_alloc(1 << 20);
        }
    }

    /// Fold one input row in.
    pub(crate) fn update(&mut self, machine: &mut Machine, row: RowRef<'_>) -> Result<()> {
        if self.group_by.is_empty() {
            return update_states(machine, &mut self.args, &mut self.states, row);
        }
        let mut h = DefaultHasher::new();
        // A slice's hash: its length, then each element.
        h.write_usize(self.group_by.len());
        for &g in &self.group_by {
            key_atom(group_column(row, g)?)
                .ok_or_else(|| DbError::InvalidPlan("cannot group by a float column".into()))?
                .hash(&mut h);
        }
        let hash = h.finish();
        // One hash-bucket touch per input row.
        machine.data_read(self.ht_base + (hash & 0xFFFF) * 16, 16);
        let group = match self.find(hash, row) {
            Some(g) => g,
            None => self.insert(hash, row)?,
        };
        let states = &mut self.groups[group as usize].states;
        update_states(machine, &mut self.args, states, row)
    }

    /// The group whose key equals `row`'s, among those hashing to `hash`.
    fn find(&self, hash: u64, row: RowRef<'_>) -> Option<u32> {
        let mut at = self.index.get(&hash).copied();
        while let Some(g) = at {
            let group = &self.groups[g as usize];
            let same = self
                .group_by
                .iter()
                .zip(&group.key)
                .all(|(&c, k)| row.get(c).and_then(key_atom) == key_atom(k));
            if same {
                return Some(g);
            }
            at = group.next;
        }
        None
    }

    /// Open a group keyed by `row`'s group columns.
    fn insert(&mut self, hash: u64, row: RowRef<'_>) -> Result<u32> {
        let key = self
            .group_by
            .iter()
            .map(|&g| group_column(row, g).cloned())
            .collect::<Result<_>>()?;
        let id = self.groups.len() as u32;
        let next = self.index.insert(hash, id);
        self.groups.push(Group {
            key,
            states: self.new_states(),
            next,
        });
        Ok(id)
    }

    /// The result rows: one for a plain aggregate (even over empty input),
    /// one per group in first-seen order otherwise.
    pub(crate) fn finish(&mut self) -> Vec<Tuple> {
        if self.group_by.is_empty() {
            return vec![Tuple::new(
                self.states.iter().map(AggState::finish).collect(),
            )];
        }
        self.index.clear();
        std::mem::take(&mut self.groups)
            .into_iter()
            .map(
                |Group {
                     mut key, states, ..
                 }| {
                    key.extend(states.iter().map(AggState::finish));
                    Tuple::new(key)
                },
            )
            .collect()
    }
}

fn group_column(row: RowRef<'_>, g: usize) -> Result<&Datum> {
    row.get(g)
        .ok_or_else(|| DbError::UnknownColumn(format!("group column #{g}")))
}

fn update_states(
    machine: &mut Machine,
    args: &mut [Option<Program>],
    states: &mut [AggState],
    row: RowRef<'_>,
) -> Result<()> {
    for (arg, state) in args.iter_mut().zip(states) {
        match arg {
            None => state.update(None)?,
            Some(p) => {
                machine.add_instructions(p.cost());
                state.update(Some(p.eval(row)?))?;
            }
        }
    }
    Ok(())
}

/// Aggregation operator.
pub struct AggregateOp {
    child: Box<dyn Operator>,
    acc: Accumulator,
    schema: SchemaRef,
    code: CodeRegion,
    /// Emit queue after the (blocking for group-by, single-pass for plain)
    /// input drain.
    results: Vec<Tuple>,
    pos: usize,
    drained: bool,
    out_region: u32,
    batch_hint: usize,
}

impl AggregateOp {
    /// Build an aggregation node.
    pub fn new(
        fm: &mut FootprintModel,
        child: Box<dyn Operator>,
        group_by: Vec<usize>,
        aggs: Vec<AggSpec>,
    ) -> Result<Self> {
        let input = child.schema();
        let mut fields = Vec::new();
        for &g in &group_by {
            if g >= input.len() {
                return Err(DbError::UnknownColumn(format!("group column #{g}")));
            }
            fields.push(input.field(g).clone());
        }
        let code = fm.region_for(&OpKind::aggregate(&aggs));
        let acc = Accumulator::new(group_by, &aggs, |e| Program::new(e, &input))?;
        for a in &aggs {
            let ty = match (a.func, &a.input) {
                (AggFunc::CountStar | AggFunc::Count, _) => bufferdb_types::DataType::Int,
                (AggFunc::Avg, _) => bufferdb_types::DataType::Float,
                (_, Some(e)) => e.data_type(&input)?,
                (_, None) => unreachable!("rejected by Accumulator::new"),
            };
            fields.push(bufferdb_types::Field::nullable(a.name.clone(), ty));
        }
        Ok(AggregateOp {
            child,
            acc,
            schema: Schema::new(fields).into_ref(),
            code,
            results: Vec::new(),
            pos: 0,
            drained: false,
            out_region: u32::MAX,
            batch_hint: DEFAULT_BATCH,
        })
    }

    /// Consume the whole input, executing the aggregation code once per
    /// input row interleaved with the child's code.
    fn drain(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.acc.reset(ctx);
        while let Some(slot) = self.child.next(ctx)? {
            ctx.check_cancel()?;
            ctx.tuple_yield();
            ctx.machine.exec_region(&mut self.code);
            self.acc.update(&mut ctx.machine, ctx.arena.row(slot))?;
        }
        self.results = self.acc.finish();
        self.pos = 0;
        self.drained = true;
        Ok(())
    }
}

impl Operator for AggregateOp {
    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn set_batch_hint(&mut self, n: usize) {
        self.batch_hint = self.batch_hint.max(n);
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.child.open(ctx)?;
        self.out_region = ctx
            .arena
            .alloc_region(self.batch_hint as u32 + 1, schema_slot_bytes(&self.schema));
        self.results.clear();
        self.pos = 0;
        self.drained = false;
        Ok(())
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<TupleSlot>> {
        if !self.drained {
            self.drain(ctx)?;
        }
        ctx.machine.exec_region(&mut self.code);
        let Some(t) = self.results.get_mut(self.pos) else {
            return Ok(None);
        };
        // Each result row is handed out once (an aggregate does not rescan).
        let t = std::mem::take(t);
        self.pos += 1;
        Ok(Some(ctx.arena.store(self.out_region, t, &mut ctx.machine)))
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.results.clear();
        self.child.close(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::seqscan::SeqScanOp;
    use bufferdb_cachesim::MachineConfig;
    use bufferdb_storage::{Catalog, TableBuilder};
    use bufferdb_types::{DataType, Date, Decimal, Field};
    use std::sync::Arc;

    fn setup() -> (Catalog, FootprintModel, ExecContext) {
        let c = Catalog::new();
        let mut b = TableBuilder::new(
            "t",
            Schema::new(vec![
                Field::new("g", DataType::Int),
                Field::nullable("v", DataType::Int),
                Field::new("d", DataType::Decimal),
            ]),
        );
        // Groups 0,1,2 with values; one NULL v in group 0.
        let rows = [
            (0, Some(10), 100),
            (0, None, 200),
            (1, Some(5), 300),
            (1, Some(7), 50),
            (2, Some(1), 25),
        ];
        for (g, v, cents) in rows {
            b.push(Tuple::new(vec![
                Datum::Int(g),
                v.map(Datum::Int).unwrap_or(Datum::Null),
                Datum::Decimal(Decimal::from_cents(cents)),
            ]));
        }
        c.add_table(b);
        (
            c,
            FootprintModel::new(),
            ExecContext::new(MachineConfig::pentium4_like()),
        )
    }

    fn run(op: &mut AggregateOp, ctx: &mut ExecContext) -> Vec<Tuple> {
        op.open(ctx).unwrap();
        let mut out = Vec::new();
        while let Some(s) = op.next(ctx).unwrap() {
            out.push(ctx.arena.tuple(s).clone());
        }
        op.close(ctx).unwrap();
        out
    }

    #[test]
    fn plain_aggregate_single_row() {
        let (c, mut fm, mut ctx) = setup();
        let child = Box::new(SeqScanOp::new(&c, &mut fm, "t", None, None).unwrap());
        let mut op = AggregateOp::new(
            &mut fm,
            child,
            vec![],
            vec![
                AggSpec::count_star("n"),
                AggSpec::new(AggFunc::Count, Expr::col(1), "nv"),
                AggSpec::new(AggFunc::Sum, Expr::col(1), "sv"),
                AggSpec::new(AggFunc::Min, Expr::col(1), "minv"),
                AggSpec::new(AggFunc::Max, Expr::col(1), "maxv"),
                AggSpec::new(AggFunc::Avg, Expr::col(1), "avgv"),
            ],
        )
        .unwrap();
        let rows = run(&mut op, &mut ctx);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.get(0).as_int(), Some(5)); // COUNT(*)
        assert_eq!(r.get(1).as_int(), Some(4)); // COUNT(v) skips NULL
        assert_eq!(r.get(2).as_int(), Some(23)); // SUM
        assert_eq!(r.get(3).as_int(), Some(1)); // MIN
        assert_eq!(r.get(4).as_int(), Some(10)); // MAX
        assert!((r.get(5).as_float().unwrap() - 5.75).abs() < 1e-9); // AVG
    }

    #[test]
    fn sum_of_decimal_expression() {
        let (c, mut fm, mut ctx) = setup();
        let child = Box::new(SeqScanOp::new(&c, &mut fm, "t", None, None).unwrap());
        let expr = Expr::col(2).mul(Expr::lit(Datum::Decimal(Decimal::from_int(2))));
        let mut op = AggregateOp::new(
            &mut fm,
            child,
            vec![],
            vec![AggSpec::new(AggFunc::Sum, expr, "total")],
        )
        .unwrap();
        let rows = run(&mut op, &mut ctx);
        assert_eq!(
            rows[0].get(0).as_decimal().unwrap(),
            Decimal::from_cents(1350) // (100+200+300+50+25)*2 cents
        );
    }

    #[test]
    fn sums_fall_back_to_ops_on_coercion_and_overflow() {
        let mut int_then_dec = AggState::Sum(None);
        int_then_dec.update(Some(&Datum::Int(1))).unwrap();
        int_then_dec
            .update(Some(&Datum::Decimal(Decimal::from_cents(50))))
            .unwrap();
        assert_eq!(
            int_then_dec.finish(),
            ops::add(&Datum::Int(1), &Datum::Decimal(Decimal::from_cents(50))).unwrap()
        );
        let mut big = AggState::Sum(Some(Datum::Int(i64::MAX)));
        assert_eq!(
            big.update(Some(&Datum::Int(1))).unwrap_err(),
            ops::add(&Datum::Int(i64::MAX), &Datum::Int(1)).unwrap_err()
        );
    }

    #[test]
    fn group_by_produces_one_row_per_group() {
        let (c, mut fm, mut ctx) = setup();
        let child = Box::new(SeqScanOp::new(&c, &mut fm, "t", None, None).unwrap());
        let mut op = AggregateOp::new(
            &mut fm,
            child,
            vec![0],
            vec![
                AggSpec::count_star("n"),
                AggSpec::new(AggFunc::Sum, Expr::col(1), "sv"),
            ],
        )
        .unwrap();
        let rows = run(&mut op, &mut ctx);
        assert_eq!(rows.len(), 3);
        // First-seen order: groups 0, 1, 2.
        assert_eq!(rows[0].get(0).as_int(), Some(0));
        assert_eq!(rows[0].get(1).as_int(), Some(2));
        assert_eq!(rows[0].get(2).as_int(), Some(10)); // NULL skipped in SUM
        assert_eq!(rows[1].get(2).as_int(), Some(12));
    }

    /// The owned group key the borrowed one replaced, kept as the oracle
    /// for the key hash (the simulated bucket address depends on it).
    #[derive(Hash)]
    enum OwnedAtom {
        Null,
        Bool(bool),
        Int(i64),
        Date(i32),
        Str(Arc<str>),
        Dec(i128, u8),
    }

    #[test]
    fn key_hash_and_grouping_match_the_owned_key() {
        let keys = [
            vec![Datum::Null],
            vec![Datum::Bool(true), Datum::Int(-7)],
            vec![
                Datum::str("MAIL"),
                Datum::Date(Date::parse("1995-01-01").unwrap()),
            ],
            vec![
                Datum::Decimal(Decimal::parse("1.50").unwrap()),
                Datum::str(""),
            ],
        ];
        for key in &keys {
            let owned: Vec<OwnedAtom> = key
                .iter()
                .map(|d| match key_atom(d).unwrap() {
                    KeyAtom::Null => OwnedAtom::Null,
                    KeyAtom::Bool(b) => OwnedAtom::Bool(b),
                    KeyAtom::Int(v) => OwnedAtom::Int(v),
                    KeyAtom::Date(v) => OwnedAtom::Date(v),
                    KeyAtom::Str(s) => OwnedAtom::Str(s.into()),
                    KeyAtom::Dec(m, s) => OwnedAtom::Dec(m, s),
                })
                .collect();
            let mut want = DefaultHasher::new();
            owned.hash(&mut want);
            let mut got = DefaultHasher::new();
            got.write_usize(key.len());
            for d in key {
                key_atom(d).unwrap().hash(&mut got);
            }
            assert_eq!(got.finish(), want.finish(), "{key:?}");
        }
        // 1.50 and 1.5 are one group.
        let a = Datum::Decimal(Decimal::parse("1.50").unwrap());
        let b = Datum::Decimal(Decimal::parse("1.5").unwrap());
        assert_eq!(key_atom(&a), key_atom(&b));
    }

    #[test]
    fn colliding_groups_keep_first_seen_order() {
        // Every key hashed alike: groups still split by key, in arrival
        // order, and every row lands in its own group.
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
        let mut acc = Accumulator::new(vec![0], &[AggSpec::count_star("n")], |e| {
            Program::new(e, &schema)
        })
        .unwrap();
        let mut ctx = ExecContext::new(MachineConfig::pentium4_like());
        acc.reset(&mut ctx);
        for k in [3, 1, 3, 2, 1, 3] {
            let t = Tuple::new(vec![Datum::Int(k)]);
            let row = RowRef::one(&t);
            let g = match acc.find(0, row) {
                Some(g) => g,
                None => acc.insert(0, row).unwrap(),
            };
            acc.groups[g as usize].states[0].update(None).unwrap();
        }
        let out: Vec<(i64, i64)> = acc
            .finish()
            .iter()
            .map(|t| (t.get(0).as_int().unwrap(), t.get(1).as_int().unwrap()))
            .collect();
        assert_eq!(out, vec![(3, 3), (1, 2), (2, 1)]);
    }

    #[test]
    fn empty_input_plain_vs_grouped() {
        let (c, mut fm, mut ctx) = setup();
        let pred = Expr::col(0).lt(Expr::lit(0));
        let child = Box::new(SeqScanOp::new(&c, &mut fm, "t", Some(pred.clone()), None).unwrap());
        let mut plain = AggregateOp::new(
            &mut fm,
            child,
            vec![],
            vec![
                AggSpec::count_star("n"),
                AggSpec::new(AggFunc::Sum, Expr::col(1), "s"),
            ],
        )
        .unwrap();
        let rows = run(&mut plain, &mut ctx);
        assert_eq!(
            rows.len(),
            1,
            "plain aggregate yields a row even on empty input"
        );
        assert_eq!(rows[0].get(0).as_int(), Some(0));
        assert!(rows[0].get(1).is_null());

        let child2 = Box::new(SeqScanOp::new(&c, &mut fm, "t", Some(pred), None).unwrap());
        let mut grouped =
            AggregateOp::new(&mut fm, child2, vec![0], vec![AggSpec::count_star("n")]).unwrap();
        assert_eq!(
            run(&mut grouped, &mut ctx).len(),
            0,
            "no groups on empty input"
        );
    }

    #[test]
    fn schema_has_groups_then_aggs() {
        let (c, mut fm, _) = setup();
        let child = Box::new(SeqScanOp::new(&c, &mut fm, "t", None, None).unwrap());
        let op = AggregateOp::new(&mut fm, child, vec![0], vec![AggSpec::count_star("n")]).unwrap();
        let s = op.schema();
        assert_eq!(s.field(0).name, "g");
        assert_eq!(s.field(1).name, "n");
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let (c, mut fm, _) = setup();
        let child = Box::new(SeqScanOp::new(&c, &mut fm, "t", None, None).unwrap());
        let bad = AggregateOp::new(
            &mut fm,
            child,
            vec![],
            vec![AggSpec {
                func: AggFunc::Sum,
                input: None,
                name: "s".into(),
            }],
        );
        assert!(bad.is_err());
        let child2 = Box::new(SeqScanOp::new(&c, &mut fm, "t", None, None).unwrap());
        let bad_group = AggregateOp::new(&mut fm, child2, vec![9], vec![]);
        assert!(bad_group.is_err());
    }
}
