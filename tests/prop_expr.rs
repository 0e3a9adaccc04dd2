//! Compiled expression programs against their oracle: on random expression
//! trees (depth ≤ 5) over Int/Decimal/Date/Str/Bool columns with NULLs,
//! `Program` must return exactly what `Expr::eval` returns — the same value
//! in the same representation, or the same error variant and message — for
//! one row and for a join's (probe, build) pair, and must price every
//! evaluation at `node_count × 24` simulated instructions.
//!
//! The generator leans on what is easy to get wrong: literals at the edges
//! of `i64` and huge decimals (overflow), zero divisors, operands of the
//! wrong type, columns past the row's arity, and `AND`/`OR`/`CASE` shapes
//! whose evaluation order must not hide an error.

use bufferdb::core::expr::{Program, RowRef};
use bufferdb::prelude::*;
use bufferdb::types::Rng;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

const TREES: usize = 3000;
const ROWS: usize = 8;

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("i", DataType::Int),
        Field::nullable("in", DataType::Int),
        Field::new("d", DataType::Decimal),
        Field::nullable("dn", DataType::Decimal),
        Field::nullable("t", DataType::Date),
        Field::nullable("s", DataType::Str),
        Field::nullable("b", DataType::Bool),
        Field::nullable("b2", DataType::Bool),
    ])
}

fn int(rng: &mut Rng) -> i64 {
    match rng.gen_range(0..8) {
        0 => i64::MAX,
        1 => i64::MIN,
        2 => 0,
        3 => -1,
        _ => rng.gen_range(-1000i64..1000),
    }
}

fn decimal(rng: &mut Rng) -> Decimal {
    let mantissa = match rng.gen_range(0..8) {
        0 => 0,
        1 => i128::from(rng.gen_range(-1i64..=1)) * 10i128.pow(19),
        _ => i128::from(rng.gen_range(-100_000i64..100_000)),
    };
    Decimal::from_mantissa(mantissa, rng.gen_range(0u32..=4) as u8)
}

fn date(rng: &mut Rng) -> Date {
    Date::from_days(rng.gen_range(9000i32..9100))
}

fn string(rng: &mut Rng) -> &'static str {
    ["PROMO BRUSHED", "PROMO", "MAIL", "", "SHIP"][rng.gen_range(0usize..5)]
}

/// A value of column `col`'s type, or NULL where the column is nullable
/// (and sometimes where it is not: the schema does not police rows).
fn value(rng: &mut Rng, ty: DataType) -> Datum {
    if rng.gen_bool(0.15) {
        return Datum::Null;
    }
    match ty {
        DataType::Int => Datum::Int(int(rng)),
        DataType::Decimal => Datum::Decimal(decimal(rng)),
        DataType::Date => Datum::Date(date(rng)),
        DataType::Str => Datum::str(string(rng)),
        DataType::Bool => Datum::Bool(rng.gen_bool(0.5)),
        DataType::Float => Datum::Float(rng.gen_f64()),
    }
}

fn row(rng: &mut Rng, schema: &Schema) -> Tuple {
    Tuple::new(schema.fields().iter().map(|f| value(rng, f.ty)).collect())
}

const TYPES: [DataType; 5] = [
    DataType::Int,
    DataType::Decimal,
    DataType::Date,
    DataType::Str,
    DataType::Bool,
];

struct Gen<'a> {
    rng: Rng,
    schema: &'a Schema,
}

impl Gen<'_> {
    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.rng.gen_range(0..xs.len())]
    }

    /// A column of type `ty`, or now and then one past the row's arity.
    fn column(&mut self, ty: DataType) -> Expr {
        if self.rng.gen_bool(0.02) {
            return Expr::col(self.schema.len() + self.rng.gen_range(0usize..3));
        }
        let cols: Vec<usize> = (0..self.schema.len())
            .filter(|&i| self.schema.field(i).ty == ty)
            .collect();
        Expr::col(self.pick(&cols))
    }

    fn leaf(&mut self, ty: DataType) -> Expr {
        if self.rng.gen_bool(0.6) {
            self.column(ty)
        } else if self.rng.gen_bool(0.05) {
            Expr::Literal(Datum::Null)
        } else {
            let v = value(&mut self.rng, ty);
            Expr::Literal(if v.is_null() {
                value(&mut self.rng, ty)
            } else {
                v
            })
        }
    }

    /// An expression meant to produce `ty` — with some probability one of
    /// another type, to exercise the mismatch errors.
    fn expr(&mut self, ty: DataType, depth: u32) -> Expr {
        let ty = if self.rng.gen_bool(0.08) {
            self.pick(&TYPES)
        } else {
            ty
        };
        if depth == 0 || self.rng.gen_bool(0.25) {
            return self.leaf(ty);
        }
        let d = depth - 1;
        match ty {
            DataType::Bool => match self.rng.gen_range(0..8) {
                0 | 1 => {
                    let t = self.pick(&TYPES);
                    let (a, b) = (self.expr(t, d), self.expr(t, d));
                    let op =
                        self.pick(&[Expr::eq, Expr::ne, Expr::lt, Expr::le, Expr::gt, Expr::ge]);
                    op(a, b)
                }
                2 => self
                    .expr(DataType::Bool, d)
                    .and(self.expr(DataType::Bool, d)),
                3 => self
                    .expr(DataType::Bool, d)
                    .or(self.expr(DataType::Bool, d)),
                4 => self.expr(DataType::Bool, d).not(),
                5 => {
                    let t = self.pick(&TYPES);
                    self.expr(t, d).is_null()
                }
                6 => self.expr(DataType::Str, d).starts_with("PROMO"),
                _ => self.case(ty, d),
            },
            DataType::Int | DataType::Decimal => match self.rng.gen_range(0..5) {
                4 => self.case(ty, d),
                _ => {
                    let (a, b) = (self.expr(ty, d), self.expr(ty, d));
                    let op = self.pick(&[Expr::add, Expr::sub, Expr::mul, Expr::div]);
                    op(a, b)
                }
            },
            _ => self.case(ty, d),
        }
    }

    fn case(&mut self, ty: DataType, d: u32) -> Expr {
        let cond = self.expr(DataType::Bool, d);
        cond.case(self.expr(ty, d), self.expr(ty, d))
    }
}

/// The outcome's exact rendering: value with its representation, error
/// with its variant and message, or the fact of a panic (overflowing
/// `i64::MIN / -1` panics in both evaluators alike).
fn outcome<T: std::fmt::Debug>(f: impl FnOnce() -> Result<T>) -> String {
    // Panics are an expected outcome here: keep them off the test output,
    // but let a failing assertion still print.
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !EXPECTING_PANIC.with(Cell::get) {
                default(info);
            }
        }));
    });
    EXPECTING_PANIC.with(|e| e.set(true));
    let r = catch_unwind(AssertUnwindSafe(f));
    EXPECTING_PANIC.with(|e| e.set(false));
    match r {
        Ok(r) => format!("{r:?}"),
        Err(_) => "panic".into(),
    }
}

thread_local! {
    static EXPECTING_PANIC: Cell<bool> = const { Cell::new(false) };
}

#[test]
fn programs_match_the_tree_evaluator() {
    let schema = schema();
    let split = 3;
    let mut g = Gen {
        rng: Rng::seed_from_u64(0xE4B2),
        schema: &schema,
    };
    let mut rng = Rng::seed_from_u64(0x5EED);
    let rows: Vec<Tuple> = (0..ROWS).map(|_| row(&mut rng, &schema)).collect();
    let halves: Vec<(Tuple, Tuple)> = rows
        .iter()
        .map(|r| {
            let v = r.values();
            (
                Tuple::new(v[..split].to_vec()),
                Tuple::new(v[split..].to_vec()),
            )
        })
        .collect();
    let (mut values, mut errors) = (0, 0);
    for tree in 0..TREES {
        let ty = g.pick(&TYPES);
        let e = g.expr(ty, 5);
        let mut p = Program::new(&e, &schema);
        assert_eq!(p.cost(), e.node_count() as u64 * 24, "{e}");
        for (r, (l, b)) in rows.iter().zip(&halves) {
            let want = outcome(|| e.eval(r));
            let got = outcome(|| p.eval(RowRef::one(r)).cloned());
            assert_eq!(got, want, "tree #{tree}: {e}\nrow {r}");
            let got = outcome(|| p.eval(RowRef::pair(l, b)).cloned());
            assert_eq!(got, want, "tree #{tree} as a pair: {e}\nrow {r}");
            if want.starts_with("Ok") {
                values += 1;
            } else {
                errors += 1;
            }
        }
    }
    // Both outcomes must be well represented, or the oracle proves little.
    let total = (TREES * ROWS) as f64;
    assert!(values as f64 > 0.3 * total, "values {values}");
    assert!(errors as f64 > 0.05 * total, "errors {errors}");
}

#[test]
fn predicates_match_the_tree_evaluator() {
    let schema = schema();
    let mut g = Gen {
        rng: Rng::seed_from_u64(0xB001),
        schema: &schema,
    };
    let mut rng = Rng::seed_from_u64(0xB002);
    let rows: Vec<Tuple> = (0..ROWS).map(|_| row(&mut rng, &schema)).collect();
    for _ in 0..TREES / 3 {
        let e = g.expr(DataType::Bool, 5);
        let mut p = Program::new(&e, &schema);
        for r in &rows {
            let want = outcome(|| {
                e.eval(r).and_then(|v| match v {
                    Datum::Bool(b) => Ok(b),
                    Datum::Null => Ok(false),
                    other => Err(DbError::TypeMismatch(format!("predicate produced {other}"))),
                })
            });
            let got = outcome(|| p.eval_predicate(RowRef::one(r)));
            assert_eq!(got, want, "{e}\nrow {r}");
        }
    }
}
