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
use crate::footprint::{FootprintModel, OpKind};
use crate::plan::{AggFunc, AggSpec};
use bufferdb_cachesim::{CodeRegion, Machine};
use bufferdb_types::{ops, Datum, DbError, Result, Schema, SchemaRef, Tuple};
use std::collections::HashMap;
use std::sync::Arc;

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
                if let Some(v) = value {
                    if !v.is_null() {
                        *acc = Some(match acc.take() {
                            None => v.clone(),
                            Some(a) => ops::add(&a, v)?,
                        });
                    }
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

/// Hashable, equatable group key (floats are rejected at build time).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum KeyAtom {
    Null,
    Bool(bool),
    Int(i64),
    Date(i32),
    Str(Arc<str>),
    Dec(i128, u8),
}

fn key_atom(d: &Datum) -> Result<KeyAtom> {
    Ok(match d {
        Datum::Null => KeyAtom::Null,
        Datum::Bool(b) => KeyAtom::Bool(*b),
        Datum::Int(v) => KeyAtom::Int(*v),
        Datum::Date(v) => KeyAtom::Date(v.days()),
        Datum::Str(s) => KeyAtom::Str(Arc::clone(s)),
        Datum::Decimal(v) => {
            // Canonicalize so 1.50 and 1.5 group together.
            let (mut m, mut s) = (v.mantissa(), v.scale());
            while s > 0 && m % 10 == 0 {
                m /= 10;
                s -= 1;
            }
            KeyAtom::Dec(m, s)
        }
        Datum::Float(_) => {
            return Err(DbError::InvalidPlan(
                "cannot group by a float column".into(),
            ))
        }
    })
}

fn new_states(aggs: &[AggSpec]) -> Vec<AggState> {
    aggs.iter().map(|a| AggState::new(a.func)).collect()
}

fn update_states(
    machine: &mut Machine,
    aggs: &[AggSpec],
    states: &mut [AggState],
    row: &Tuple,
) -> Result<()> {
    for (spec, state) in aggs.iter().zip(states.iter_mut()) {
        match (&spec.input, spec.func) {
            (_, AggFunc::CountStar) => state.update(None)?,
            (Some(e), _) => {
                machine.add_instructions(e.instruction_cost());
                state.update(Some(&e.eval(row)?))?;
            }
            (None, func) => unreachable!("{func:?} without an argument passed Accumulator::new"),
        }
    }
    Ok(())
}

type Group = (Vec<Datum>, Vec<AggState>);

/// The aggregate's row kernel: plain or hash-grouped accumulation with
/// first-seen group order. [`AggregateOp`] feeds it one child tuple per
/// region execution; the fused push sink ([`crate::exec::push`]) a whole
/// batch per region execution. Both fold through the same `AggState`s, so
/// results are bit-identical.
pub(crate) struct Accumulator {
    group_by: Vec<usize>,
    aggs: Vec<AggSpec>,
    /// Running states of a plain (ungrouped) aggregate.
    states: Vec<AggState>,
    groups: HashMap<Vec<KeyAtom>, Group>,
    /// Group keys in first-seen order (the output order).
    order: Vec<Vec<KeyAtom>>,
    ht_base: u64,
}

impl Accumulator {
    pub(crate) fn new(group_by: Vec<usize>, aggs: Vec<AggSpec>) -> Result<Self> {
        for a in &aggs {
            if a.input.is_none() && a.func != AggFunc::CountStar {
                return Err(DbError::InvalidPlan(format!(
                    "{:?} requires an argument",
                    a.func
                )));
            }
        }
        Ok(Accumulator {
            group_by,
            aggs,
            states: Vec::new(),
            groups: HashMap::new(),
            order: Vec::new(),
            ht_base: 0,
        })
    }

    /// Start a fresh accumulation (allocating the simulated group table
    /// when grouping).
    pub(crate) fn reset(&mut self, ctx: &mut ExecContext) {
        self.states = new_states(&self.aggs);
        self.groups.clear();
        self.order.clear();
        if !self.group_by.is_empty() {
            self.ht_base = ctx.arena.sim_alloc(1 << 20);
        }
    }

    /// Fold one input row in.
    pub(crate) fn update(&mut self, machine: &mut Machine, row: &Tuple) -> Result<()> {
        if self.group_by.is_empty() {
            return update_states(machine, &self.aggs, &mut self.states, row);
        }
        let mut key = Vec::with_capacity(self.group_by.len());
        for &g in &self.group_by {
            key.push(key_atom(row.get(g))?);
        }
        // One hash-bucket touch per input row.
        machine.data_read(self.ht_base + (fx_hash(&key) & 0xFFFF) * 16, 16);
        let (_, states) = self.groups.entry(key).or_insert_with_key(|key| {
            self.order.push(key.clone());
            let key_vals = self.group_by.iter().map(|&g| row.get(g).clone()).collect();
            (key_vals, new_states(&self.aggs))
        });
        update_states(machine, &self.aggs, states, row)
    }

    /// The result rows: one for a plain aggregate (even over empty input),
    /// one per group in first-seen order otherwise.
    pub(crate) fn finish(&mut self) -> Vec<Tuple> {
        if self.group_by.is_empty() {
            return vec![Tuple::new(
                self.states.iter().map(AggState::finish).collect(),
            )];
        }
        std::mem::take(&mut self.order)
            .into_iter()
            // Every key in `order` was inserted into `groups`, so the filter
            // never drops anything; it just keeps this path free of
            // panicking lookups.
            .filter_map(|k| self.groups.remove(&k))
            .map(|(mut vals, states)| {
                vals.extend(states.iter().map(AggState::finish));
                Tuple::new(vals)
            })
            .collect()
    }
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
        let acc = Accumulator::new(group_by, aggs)?;
        for a in &acc.aggs {
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
            self.acc.update(&mut ctx.machine, ctx.arena.tuple(slot))?;
        }
        self.results = self.acc.finish();
        self.pos = 0;
        self.drained = true;
        Ok(())
    }
}

fn fx_hash(key: &[KeyAtom]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
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
        if self.pos >= self.results.len() {
            return Ok(None);
        }
        let t = self.results[self.pos].clone();
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
    use crate::expr::Expr;
    use bufferdb_cachesim::MachineConfig;
    use bufferdb_storage::{Catalog, TableBuilder};
    use bufferdb_types::{DataType, Decimal, Field};

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
