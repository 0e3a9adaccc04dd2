//! Scalar expressions: columns, literals, comparisons, arithmetic, logic.
//!
//! Expressions are evaluated per tuple by scans (predicates, projections),
//! joins (quals) and aggregates (arguments) — the per-record "nullability,
//! datatypes, comparison, overflow" checks of §4. Data-dependent predicate
//! outcomes are reported to the simulated branch predictor by the operators
//! that own them.
//!
//! Plans carry [`Expr`] trees. The executor never walks them per row: at
//! `build_executor` every expression is lowered once into a [`Program`], a
//! flat postfix sequence whose leaf operands are *locations* — a column of
//! the row (or of either side of a join pair), a literal-pool entry — read
//! by reference, never cloned. [`Expr::eval`] remains as the constant
//! folder's evaluator and as the oracle the programs are tested against.

use bufferdb_types::{ops, DataType, Datum, DbError, Result, Schema, SchemaRef, Tuple};
use std::cmp::Ordering;
use std::fmt;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// A scalar expression tree over one input tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Input column by position.
    Column(usize),
    /// Constant.
    Literal(Datum),
    /// Comparison producing a (three-valued) boolean.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Arithmetic.
    Arith {
        /// Operator.
        op: ArithOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Three-valued AND.
    And(Box<Expr>, Box<Expr>),
    /// Three-valued OR.
    Or(Box<Expr>, Box<Expr>),
    /// Three-valued NOT.
    Not(Box<Expr>),
    /// `IS NULL` (never NULL itself).
    IsNull(Box<Expr>),
    /// `CASE WHEN cond THEN then ELSE otherwise END`; a NULL condition
    /// selects the ELSE branch, as in SQL.
    Case {
        /// Condition.
        cond: Box<Expr>,
        /// Value when the condition is true.
        then: Box<Expr>,
        /// Value otherwise (including NULL condition).
        otherwise: Box<Expr>,
    },
    /// String prefix test (`col LIKE 'PROMO%'`); NULL input yields NULL.
    StartsWith {
        /// String-valued input.
        input: Box<Expr>,
        /// Literal prefix.
        prefix: String,
    },
}

impl Expr {
    /// Column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Column(i)
    }

    /// Literal.
    pub fn lit(d: impl Into<Datum>) -> Expr {
        Expr::Literal(d.into())
    }

    fn cmp(op: CmpOp, l: Expr, r: Expr) -> Expr {
        Expr::Cmp {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    /// `self = other`
    pub fn eq(self, other: Expr) -> Expr {
        Expr::cmp(CmpOp::Eq, self, other)
    }

    /// `self <> other`
    pub fn ne(self, other: Expr) -> Expr {
        Expr::cmp(CmpOp::Ne, self, other)
    }

    /// `self < other`
    pub fn lt(self, other: Expr) -> Expr {
        Expr::cmp(CmpOp::Lt, self, other)
    }

    /// `self <= other`
    pub fn le(self, other: Expr) -> Expr {
        Expr::cmp(CmpOp::Le, self, other)
    }

    /// `self > other`
    pub fn gt(self, other: Expr) -> Expr {
        Expr::cmp(CmpOp::Gt, self, other)
    }

    /// `self >= other`
    pub fn ge(self, other: Expr) -> Expr {
        Expr::cmp(CmpOp::Ge, self, other)
    }

    /// `self AND other`
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// `NOT self`
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// `self IS NULL`
    pub fn is_null(self) -> Expr {
        Expr::IsNull(Box::new(self))
    }

    /// `CASE WHEN self THEN then ELSE otherwise END`
    pub fn case(self, then: Expr, otherwise: Expr) -> Expr {
        Expr::Case {
            cond: Box::new(self),
            then: Box::new(then),
            otherwise: Box::new(otherwise),
        }
    }

    /// `self LIKE 'prefix%'`
    pub fn starts_with(self, prefix: impl Into<String>) -> Expr {
        Expr::StartsWith {
            input: Box::new(self),
            prefix: prefix.into(),
        }
    }

    /// `self + other`
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Expr) -> Expr {
        Expr::Arith {
            op: ArithOp::Add,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self - other`
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Expr) -> Expr {
        Expr::Arith {
            op: ArithOp::Sub,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self * other`
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Expr) -> Expr {
        Expr::Arith {
            op: ArithOp::Mul,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self / other`
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, other: Expr) -> Expr {
        Expr::Arith {
            op: ArithOp::Div,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// Evaluate against one tuple.
    pub fn eval(&self, row: &Tuple) -> Result<Datum> {
        match self {
            Expr::Column(i) => {
                if *i >= row.arity() {
                    return Err(DbError::UnknownColumn(format!(
                        "column #{i} of {}-ary row",
                        row.arity()
                    )));
                }
                Ok(row.get(*i).clone())
            }
            Expr::Literal(d) => Ok(d.clone()),
            Expr::Cmp { op, left, right } => {
                let l = left.eval(row)?;
                let r = right.eval(row)?;
                let v = match op {
                    CmpOp::Eq => ops::eq(&l, &r)?,
                    CmpOp::Ne => ops::ne(&l, &r)?,
                    CmpOp::Lt => ops::lt(&l, &r)?,
                    CmpOp::Le => ops::le(&l, &r)?,
                    CmpOp::Gt => ops::gt(&l, &r)?,
                    CmpOp::Ge => ops::ge(&l, &r)?,
                };
                Ok(v.map(Datum::Bool).unwrap_or(Datum::Null))
            }
            Expr::Arith { op, left, right } => {
                let l = left.eval(row)?;
                let r = right.eval(row)?;
                match op {
                    ArithOp::Add => ops::add(&l, &r),
                    ArithOp::Sub => ops::sub(&l, &r),
                    ArithOp::Mul => ops::mul(&l, &r),
                    ArithOp::Div => ops::div(&l, &r),
                }
            }
            Expr::And(a, b) => {
                let x = a.eval(row)?;
                let y = b.eval(row)?;
                Ok(bool3_to_datum(ops::and3(
                    datum_to_bool3(&x)?,
                    datum_to_bool3(&y)?,
                )))
            }
            Expr::Or(a, b) => {
                let x = a.eval(row)?;
                let y = b.eval(row)?;
                Ok(bool3_to_datum(ops::or3(
                    datum_to_bool3(&x)?,
                    datum_to_bool3(&y)?,
                )))
            }
            Expr::Not(a) => {
                let x = a.eval(row)?;
                Ok(bool3_to_datum(ops::not3(datum_to_bool3(&x)?)))
            }
            Expr::IsNull(a) => Ok(Datum::Bool(a.eval(row)?.is_null())),
            Expr::Case {
                cond,
                then,
                otherwise,
            } => match datum_to_bool3(&cond.eval(row)?)? {
                Some(true) => then.eval(row),
                _ => otherwise.eval(row),
            },
            Expr::StartsWith { input, prefix } => match input.eval(row)? {
                Datum::Null => Ok(Datum::Null),
                Datum::Str(s) => Ok(Datum::Bool(s.starts_with(prefix.as_str()))),
                other => Err(DbError::TypeMismatch(format!(
                    "LIKE applied to non-string {other}"
                ))),
            },
        }
    }

    /// Number of nodes — a proxy for per-evaluation instruction cost.
    pub fn node_count(&self) -> usize {
        1 + match self {
            Expr::Column(_) | Expr::Literal(_) => 0,
            Expr::Cmp { left, right, .. } | Expr::Arith { left, right, .. } => {
                left.node_count() + right.node_count()
            }
            Expr::And(a, b) | Expr::Or(a, b) => a.node_count() + b.node_count(),
            Expr::Not(a) | Expr::IsNull(a) => a.node_count(),
            Expr::Case {
                cond,
                then,
                otherwise,
            } => cond.node_count() + then.node_count() + otherwise.node_count(),
            Expr::StartsWith { input, .. } => input.node_count(),
        }
    }

    /// Infer the output type against `schema`, validating column indices.
    pub fn data_type(&self, schema: &SchemaRef) -> Result<DataType> {
        match self {
            Expr::Column(i) => {
                if *i >= schema.len() {
                    return Err(DbError::UnknownColumn(format!("column #{i} of {schema}")));
                }
                Ok(schema.field(*i).ty)
            }
            Expr::Literal(d) => d
                .data_type()
                .ok_or_else(|| DbError::TypeMismatch("untyped NULL literal".into())),
            Expr::Cmp { left, right, .. } => {
                left.data_type(schema)?;
                right.data_type(schema)?;
                Ok(DataType::Bool)
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.data_type(schema)?;
                b.data_type(schema)?;
                Ok(DataType::Bool)
            }
            Expr::Not(a) | Expr::IsNull(a) => {
                a.data_type(schema)?;
                Ok(DataType::Bool)
            }
            Expr::StartsWith { input, .. } => {
                input.data_type(schema)?;
                Ok(DataType::Bool)
            }
            Expr::Case {
                cond,
                then,
                otherwise,
            } => {
                cond.data_type(schema)?;
                otherwise.data_type(schema)?;
                then.data_type(schema)
            }
            Expr::Arith { left, right, .. } => {
                let l = left.data_type(schema)?;
                let r = right.data_type(schema)?;
                Ok(match (l, r) {
                    (DataType::Float, _) | (_, DataType::Float) => DataType::Float,
                    (DataType::Decimal, _) | (_, DataType::Decimal) => DataType::Decimal,
                    _ => l,
                })
            }
        }
    }
}

fn datum_to_bool3(d: &Datum) -> Result<Option<bool>> {
    match d {
        Datum::Null => Ok(None),
        Datum::Bool(b) => Ok(Some(*b)),
        other => Err(DbError::TypeMismatch(format!(
            "expected boolean, got {other}"
        ))),
    }
}

fn bool3_to_datum(v: Option<bool>) -> Datum {
    v.map(Datum::Bool).unwrap_or(Datum::Null)
}

/// Simulated instructions per expression node per evaluation (the paper's
/// per-record checks are short but numerous).
const INSTR_PER_NODE: u64 = 24;

/// One row as a [`Program`] reads it: a tuple's values, or a join's probe
/// and build values side by side — column `i` past the probe's arity is
/// column `i − arity` of the build row — so a join's qual, and the fused
/// stages above a push probe, read the pair without concatenating it.
#[derive(Debug, Clone, Copy)]
pub struct RowRef<'a> {
    left: &'a [Datum],
    right: &'a [Datum],
}

impl<'a> RowRef<'a> {
    /// One tuple.
    pub fn one(t: &'a Tuple) -> Self {
        RowRef {
            left: t.values(),
            right: &[],
        }
    }

    /// A join's probe row and the build row it matched.
    pub fn pair(left: &'a Tuple, right: &'a Tuple) -> Self {
        RowRef {
            left: left.values(),
            right: right.values(),
        }
    }

    /// Columns across both sides.
    pub(crate) fn arity(&self) -> usize {
        self.left.len() + self.right.len()
    }

    /// Column `i` of the concatenated row.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<&'a Datum> {
        match self.left.get(i) {
            Some(d) => Some(d),
            None => self.right.get(i - self.left.len()),
        }
    }

    /// Overwrite `out` (a recycled tuple's values, of this row's arity)
    /// with a copy of the concatenated row: a join's output row.
    pub(crate) fn copy_into(&self, out: &mut [Datum]) {
        for (v, d) in out.iter_mut().zip(self.left.iter().chain(self.right)) {
            v.clone_from(d);
        }
    }
}

/// Where a program operand lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    /// Column `i` of the row; on a join pair `i` counts across both sides.
    Col(u32),
    /// A literal-pool entry.
    Lit(u32),
    /// A register: a computed subexpression.
    Reg(u32),
}

/// One program instruction; each computed value lands in register `dst`.
/// Leaves are not instructions: they are the [`Src`] operands of their
/// parent, read in place.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Copy an operand into `dst` (a `CASE` branch's value).
    Copy {
        src: Src,
        dst: u32,
    },
    /// Fail as `Expr::eval` does on a column past the row's arity.
    BadColumn(usize),
    Cmp {
        op: CmpOp,
        a: Src,
        b: Src,
        dst: u32,
    },
    Arith {
        op: ArithOp,
        a: Src,
        b: Src,
        dst: u32,
    },
    And {
        a: Src,
        b: Src,
        dst: u32,
    },
    Or {
        a: Src,
        b: Src,
        dst: u32,
    },
    Not {
        a: Src,
        dst: u32,
    },
    IsNull {
        a: Src,
        dst: u32,
    },
    /// `LIKE 'prefix%'`; the prefix is a string in the literal pool.
    StartsWith {
        a: Src,
        prefix: u32,
        dst: u32,
    },
    /// `CASE`: jump to `to` unless the condition is true.
    Branch {
        cond: Src,
        to: u32,
    },
    Jump(u32),
}

/// An [`Expr`] lowered once, at executor build, for per-row evaluation.
///
/// The program is a flat instruction sequence in tree post-order. Column
/// and literal leaves are operands read by reference from the row or the
/// literal pool, so no node clones a [`Datum`]; each computed node writes
/// one register. Int/Date/Decimal comparisons and Int/Decimal arithmetic
/// run typed kernels; every other operand pair, and every failing case,
/// goes through `ops::*` exactly as [`Expr::eval`] does, so results and
/// errors (variant and message) are the same. Like [`Expr::eval`], `AND`
/// and `OR` evaluate both sides. The modeled cost is fixed at lowering:
/// [`Program::cost`] is `node_count × 24`.
///
/// A program lowered over a join's output schema reads a (probe, build)
/// [`RowRef::pair`] in place, as it would the concatenated row.
#[derive(Debug)]
pub struct Program {
    code: Vec<Op>,
    lits: Vec<Datum>,
    /// Where the value ends up.
    result: Src,
    cost: u64,
    regs: Vec<Datum>,
}

impl Program {
    /// Lower `expr` over rows of `schema`.
    pub fn new(expr: &Expr, schema: &Schema) -> Program {
        let nodes = expr.node_count();
        let mut l = Lowering {
            arity: schema.len(),
            // One instruction per computed node, plus CASE's jumps: twice
            // the node count is rarely outgrown.
            code: Vec::with_capacity(2 * nodes),
            lits: Vec::new(),
            regs: 0,
        };
        let result = l.lower(expr);
        Program {
            code: l.code,
            lits: l.lits,
            result,
            cost: nodes as u64 * INSTR_PER_NODE,
            regs: vec![Datum::Null; l.regs as usize],
        }
    }

    /// Simulated instructions per evaluation.
    pub fn cost(&self) -> u64 {
        self.cost
    }

    /// Evaluate against `row`. The value is borrowed from the row, the
    /// literal pool or the program's registers.
    pub fn eval<'a>(&'a mut self, row: RowRef<'a>) -> Result<&'a Datum> {
        self.run(row)?;
        let Program {
            lits, regs, result, ..
        } = self;
        at(*result, row, lits, regs).ok_or_else(|| missing(*result, row))
    }

    /// Evaluate as a predicate: NULL counts as not-satisfied (SQL WHERE).
    pub fn eval_predicate(&mut self, row: RowRef<'_>) -> Result<bool> {
        match self.eval(row)? {
            Datum::Bool(b) => Ok(*b),
            Datum::Null => Ok(false),
            other => Err(DbError::TypeMismatch(format!("predicate produced {other}"))),
        }
    }

    fn run(&mut self, row: RowRef<'_>) -> Result<()> {
        let Program {
            code, lits, regs, ..
        } = self;
        let lits: &[Datum] = lits;
        // An operand by reference; a missing column fails as `Expr::eval`.
        macro_rules! at {
            ($src:expr) => {
                match at($src, row, lits, regs) {
                    Some(d) => d,
                    None => return Err(missing($src, row)),
                }
            };
        }
        let mut pc = 0;
        while let Some(&op) = code.get(pc) {
            pc += 1;
            let (value, dst) = match op {
                Op::Copy { src, dst } => (at!(src).clone(), dst),
                Op::BadColumn(i) => return Err(unknown_column(i, row)),
                Op::Cmp { op, a, b, dst } => (compare(op, at!(a), at!(b))?, dst),
                Op::Arith { op, a, b, dst } => (arith(op, at!(a), at!(b))?, dst),
                Op::And { a, b, dst } => {
                    let (x, y) = (datum_to_bool3(at!(a))?, datum_to_bool3(at!(b))?);
                    (bool3_to_datum(ops::and3(x, y)), dst)
                }
                Op::Or { a, b, dst } => {
                    let (x, y) = (datum_to_bool3(at!(a))?, datum_to_bool3(at!(b))?);
                    (bool3_to_datum(ops::or3(x, y)), dst)
                }
                Op::Not { a, dst } => (bool3_to_datum(ops::not3(datum_to_bool3(at!(a))?)), dst),
                Op::IsNull { a, dst } => (Datum::Bool(at!(a).is_null()), dst),
                Op::StartsWith { a, prefix, dst } => {
                    let v = match at!(a) {
                        Datum::Null => Datum::Null,
                        Datum::Str(s) => {
                            Datum::Bool(s.starts_with(lits[prefix as usize].as_str().unwrap_or("")))
                        }
                        other => {
                            return Err(DbError::TypeMismatch(format!(
                                "LIKE applied to non-string {other}"
                            )))
                        }
                    };
                    (v, dst)
                }
                Op::Branch { cond, to } => {
                    if datum_to_bool3(at!(cond))? != Some(true) {
                        pc = to as usize;
                    }
                    continue;
                }
                Op::Jump(to) => {
                    pc = to as usize;
                    continue;
                }
            };
            regs[dst as usize] = value;
        }
        Ok(())
    }
}

/// Operand `src`, by reference; `None` for a column past the row's arity.
#[inline(always)]
fn at<'a>(src: Src, row: RowRef<'a>, lits: &'a [Datum], regs: &'a [Datum]) -> Option<&'a Datum> {
    match src {
        Src::Col(i) => row.get(i as usize),
        Src::Lit(i) => lits.get(i as usize),
        Src::Reg(i) => regs.get(i as usize),
    }
}

/// The error for an operand [`at`] could not read.
#[cold]
fn missing(src: Src, row: RowRef<'_>) -> DbError {
    match src {
        Src::Col(i) | Src::Lit(i) | Src::Reg(i) => unknown_column(i as usize, row),
    }
}

fn unknown_column(i: usize, row: RowRef<'_>) -> DbError {
    DbError::UnknownColumn(format!("column #{i} of {}-ary row", row.arity()))
}

impl CmpOp {
    fn holds(self, o: Ordering) -> bool {
        match self {
            CmpOp::Eq => o == Ordering::Equal,
            CmpOp::Ne => o != Ordering::Equal,
            CmpOp::Lt => o == Ordering::Less,
            CmpOp::Le => o != Ordering::Greater,
            CmpOp::Gt => o == Ordering::Greater,
            CmpOp::Ge => o != Ordering::Less,
        }
    }
}

/// Comparison kernel: typed for Int/Date/Decimal pairs, `ops::compare` for
/// everything else (NULLs, coercions, errors).
fn compare(op: CmpOp, a: &Datum, b: &Datum) -> Result<Datum> {
    let ord = match (a, b) {
        (Datum::Int(x), Datum::Int(y)) => x.cmp(y),
        (Datum::Date(x), Datum::Date(y)) => x.cmp(y),
        (Datum::Decimal(x), Datum::Decimal(y)) => x.cmp(y),
        _ => match ops::compare(a, b)? {
            Some(o) => o,
            None => return Ok(Datum::Null),
        },
    };
    Ok(Datum::Bool(op.holds(ord)))
}

/// Arithmetic kernel: typed for Int and Decimal pairs that do not fail;
/// every other pair, and every overflow or division by zero, is `ops::*`'s.
fn arith(op: ArithOp, a: &Datum, b: &Datum) -> Result<Datum> {
    let fast = match (a, b) {
        (Datum::Int(x), Datum::Int(y)) => match op {
            ArithOp::Add => x.checked_add(*y),
            ArithOp::Sub => x.checked_sub(*y),
            ArithOp::Mul => x.checked_mul(*y),
            ArithOp::Div => x.checked_div(*y),
        }
        .map(Datum::Int),
        (Datum::Decimal(x), Datum::Decimal(y)) => match op {
            ArithOp::Add => x.checked_add(y),
            ArithOp::Sub => x.checked_sub(y),
            ArithOp::Mul => x.checked_mul(y),
            ArithOp::Div => x.checked_div(y),
        }
        .ok()
        .map(Datum::Decimal),
        _ => None,
    };
    match fast {
        Some(v) => Ok(v),
        None => match op {
            ArithOp::Add => ops::add(a, b),
            ArithOp::Sub => ops::sub(a, b),
            ArithOp::Mul => ops::mul(a, b),
            ArithOp::Div => ops::div(a, b),
        },
    }
}

/// Lowering state for one [`Program`].
struct Lowering {
    /// Columns of the rows the program reads.
    arity: usize,
    code: Vec<Op>,
    lits: Vec<Datum>,
    /// Registers allocated so far.
    regs: u32,
}

impl Lowering {
    fn lit(&mut self, d: Datum) -> u32 {
        self.lits.push(d);
        self.lits.len() as u32 - 1
    }

    fn reg(&mut self) -> u32 {
        self.regs += 1;
        self.regs - 1
    }

    /// Emit the instruction `op(dst)` computes into a fresh register.
    fn op(&mut self, op: impl FnOnce(u32) -> Op) -> Src {
        let dst = self.reg();
        self.code.push(op(dst));
        Src::Reg(dst)
    }

    /// Point the jump at `at` to the next instruction.
    fn patch(&mut self, at: usize) {
        let next = self.code.len() as u32;
        match &mut self.code[at] {
            Op::Branch { to, .. } | Op::Jump(to) => *to = next,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    /// Emit `e`'s code; returns the operand holding its value.
    fn lower(&mut self, e: &Expr) -> Src {
        match e {
            Expr::Column(i) if *i < self.arity => Src::Col(*i as u32),
            Expr::Column(i) => {
                self.code.push(Op::BadColumn(*i));
                Src::Reg(self.reg())
            }
            Expr::Literal(d) => Src::Lit(self.lit(d.clone())),
            Expr::Cmp { op, left, right } => {
                let (a, b) = (self.lower(left), self.lower(right));
                self.op(|dst| Op::Cmp { op: *op, a, b, dst })
            }
            Expr::Arith { op, left, right } => {
                let (a, b) = (self.lower(left), self.lower(right));
                self.op(|dst| Op::Arith { op: *op, a, b, dst })
            }
            Expr::And(a, b) => {
                let (a, b) = (self.lower(a), self.lower(b));
                self.op(|dst| Op::And { a, b, dst })
            }
            Expr::Or(a, b) => {
                let (a, b) = (self.lower(a), self.lower(b));
                self.op(|dst| Op::Or { a, b, dst })
            }
            Expr::Not(a) => {
                let a = self.lower(a);
                self.op(|dst| Op::Not { a, dst })
            }
            Expr::IsNull(a) => {
                let a = self.lower(a);
                self.op(|dst| Op::IsNull { a, dst })
            }
            Expr::StartsWith { input, prefix } => {
                let a = self.lower(input);
                let prefix = self.lit(Datum::str(prefix.as_str()));
                self.op(|dst| Op::StartsWith { a, prefix, dst })
            }
            Expr::Case {
                cond,
                then,
                otherwise,
            } => {
                let cond = self.lower(cond);
                let dst = self.reg();
                let branch = self.code.len();
                self.code.push(Op::Branch { cond, to: 0 });
                let src = self.lower(then);
                self.code.push(Op::Copy { src, dst });
                let jump = self.code.len();
                self.code.push(Op::Jump(0));
                self.patch(branch);
                let src = self.lower(otherwise);
                self.code.push(Op::Copy { src, dst });
                self.patch(jump);
                Src::Reg(dst)
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(i) => write!(f, "${i}"),
            Expr::Literal(d) => write!(f, "{d}"),
            Expr::Cmp { op, left, right } => {
                let s = match op {
                    CmpOp::Eq => "=",
                    CmpOp::Ne => "<>",
                    CmpOp::Lt => "<",
                    CmpOp::Le => "<=",
                    CmpOp::Gt => ">",
                    CmpOp::Ge => ">=",
                };
                write!(f, "({left} {s} {right})")
            }
            Expr::Arith { op, left, right } => {
                let s = match op {
                    ArithOp::Add => "+",
                    ArithOp::Sub => "-",
                    ArithOp::Mul => "*",
                    ArithOp::Div => "/",
                };
                write!(f, "({left} {s} {right})")
            }
            Expr::And(a, b) => write!(f, "({a} AND {b})"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Not(a) => write!(f, "(NOT {a})"),
            Expr::IsNull(a) => write!(f, "({a} IS NULL)"),
            Expr::Case {
                cond,
                then,
                otherwise,
            } => {
                write!(f, "(CASE WHEN {cond} THEN {then} ELSE {otherwise} END)")
            }
            Expr::StartsWith { input, prefix } => write!(f, "({input} LIKE '{prefix}%')"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bufferdb_types::{Date, Decimal, Field, Schema};

    fn row() -> Tuple {
        Tuple::new(vec![
            Datum::Int(10),
            Datum::Decimal(Decimal::parse("2.50").unwrap()),
            Datum::Null,
            Datum::Date(Date::parse("1998-09-02").unwrap()),
        ])
    }

    #[test]
    fn column_and_literal() {
        assert_eq!(Expr::col(0).eval(&row()).unwrap().as_int(), Some(10));
        assert_eq!(Expr::lit(7).eval(&row()).unwrap().as_int(), Some(7));
        assert!(Expr::col(9).eval(&row()).is_err());
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("d", DataType::Decimal),
            Field::nullable("n", DataType::Int),
            Field::new("t", DataType::Date),
        ])
    }

    fn predicate(e: &Expr, t: &Tuple) -> Result<bool> {
        Program::new(e, &schema()).eval_predicate(RowRef::one(t))
    }

    #[test]
    fn comparisons_three_valued() {
        let e = Expr::col(0).le(Expr::lit(10));
        assert_eq!(e.eval(&row()).unwrap(), Datum::Bool(true));
        let with_null = Expr::col(2).le(Expr::lit(10));
        assert!(with_null.eval(&row()).unwrap().is_null());
        assert!(!predicate(&with_null, &row()).unwrap()); // NULL => filtered
    }

    #[test]
    fn q1_charge_expression_evaluates() {
        // price * (1 - discount): col1 is 2.50, discount 0.2.
        let e = Expr::col(1).mul(
            Expr::lit(Datum::Decimal(Decimal::from_int(1)))
                .sub(Expr::lit(Datum::Decimal(Decimal::parse("0.2").unwrap()))),
        );
        let v = e.eval(&row()).unwrap();
        assert_eq!(v.as_decimal().unwrap(), Decimal::parse("2.0").unwrap());
    }

    #[test]
    fn logic_and_is_null() {
        let t = Expr::lit(Datum::Bool(true));
        let null_cmp = Expr::col(2).eq(Expr::lit(1));
        let e = t.clone().and(null_cmp.clone());
        assert!(e.eval(&row()).unwrap().is_null());
        let e2 = Expr::lit(Datum::Bool(false)).and(null_cmp.clone());
        assert_eq!(e2.eval(&row()).unwrap(), Datum::Bool(false));
        assert_eq!(
            null_cmp.clone().is_null().eval(&row()).unwrap(),
            Datum::Bool(true)
        );
        assert_eq!(null_cmp.not().eval(&row()).unwrap(), Datum::Null);
        let or = Expr::lit(Datum::Bool(true)).or(Expr::col(2).eq(Expr::lit(1)));
        assert_eq!(or.eval(&row()).unwrap(), Datum::Bool(true));
    }

    #[test]
    fn date_predicate_like_query1() {
        let e = Expr::col(3).le(Expr::lit(Datum::Date(Date::parse("1998-12-01").unwrap())));
        assert!(predicate(&e, &row()).unwrap());
        let e2 = Expr::col(3).le(Expr::lit(Datum::Date(Date::parse("1998-01-01").unwrap())));
        assert!(!predicate(&e2, &row()).unwrap());
    }

    #[test]
    fn predicate_type_error_is_reported() {
        let e = Expr::col(0).add(Expr::lit(1)); // Int, not Bool
        assert!(predicate(&e, &row()).is_err());
    }

    #[test]
    fn node_count_and_cost() {
        let e = Expr::col(0)
            .le(Expr::lit(10))
            .and(Expr::col(1).gt(Expr::lit(0)));
        assert_eq!(e.node_count(), 7);
        assert_eq!(Program::new(&e, &schema()).cost(), 7 * 24);
    }

    #[test]
    fn leaves_are_read_in_place() {
        let t = row();
        let mut col = Program::new(&Expr::col(1), &schema());
        assert!(std::ptr::eq(col.eval(RowRef::one(&t)).unwrap(), t.get(1)));
        let mut sum = Program::new(&Expr::col(0).add(Expr::lit(1)), &schema());
        assert_eq!(sum.eval(RowRef::one(&t)).unwrap(), &Datum::Int(11));
    }

    #[test]
    fn pair_columns_resolve_to_their_side() {
        let probe = Tuple::new(vec![Datum::Int(1), Datum::Int(2)]);
        let build = Tuple::new(vec![Datum::Int(3)]);
        let two = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ]);
        let one = Schema::new(vec![Field::new("c", DataType::Int)]);
        let joined = two.join(&one);
        // Lowered for the joined row, read from the pair in place.
        let mut p = Program::new(&Expr::col(0).add(Expr::col(2)), &joined);
        let pair = RowRef::pair(&probe, &build);
        assert_eq!(p.eval(pair).unwrap(), &Datum::Int(4));
        let mut bad = Program::new(&Expr::col(3), &joined);
        assert_eq!(
            bad.eval(pair).unwrap_err(),
            DbError::UnknownColumn("column #3 of 3-ary row".into())
        );
    }

    #[test]
    fn and_or_evaluate_both_sides() {
        // `false AND (i + 1 > 0)` fails on overflow, as the tree does.
        let t = Tuple::new(vec![
            Datum::Int(i64::MAX),
            Datum::Decimal(Decimal::from_int(1)),
            Datum::Null,
            Datum::Date(Date::parse("1998-09-02").unwrap()),
        ]);
        let overflow = Expr::lit(false).and(Expr::col(0).add(Expr::lit(1)).gt(Expr::lit(0)));
        assert_eq!(
            predicate(&overflow, &t).unwrap_err(),
            overflow.eval(&t).unwrap_err()
        );
        let or = Expr::lit(true).or(Expr::col(0).add(Expr::lit(1)).gt(Expr::lit(0)));
        assert_eq!(predicate(&or, &t).unwrap_err(), or.eval(&t).unwrap_err());
    }

    #[test]
    fn type_inference() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Decimal),
        ])
        .into_ref();
        assert_eq!(Expr::col(0).data_type(&schema).unwrap(), DataType::Int);
        assert_eq!(
            Expr::col(0).mul(Expr::col(1)).data_type(&schema).unwrap(),
            DataType::Decimal
        );
        assert_eq!(
            Expr::col(0).le(Expr::col(1)).data_type(&schema).unwrap(),
            DataType::Bool
        );
        assert!(Expr::col(5).data_type(&schema).is_err());
    }

    #[test]
    fn case_when_selects_branches() {
        // CASE WHEN col0 <= 5 THEN 1 ELSE 0 END over col0 = 10.
        let e = Expr::col(0)
            .le(Expr::lit(5))
            .case(Expr::lit(1), Expr::lit(0));
        assert_eq!(e.eval(&row()).unwrap().as_int(), Some(0));
        let e2 = Expr::col(0)
            .le(Expr::lit(100))
            .case(Expr::lit(1), Expr::lit(0));
        assert_eq!(e2.eval(&row()).unwrap().as_int(), Some(1));
        // NULL condition takes the ELSE branch.
        let e3 = Expr::col(2)
            .le(Expr::lit(1))
            .case(Expr::lit(1), Expr::lit(0));
        assert_eq!(e3.eval(&row()).unwrap().as_int(), Some(0));
    }

    #[test]
    fn starts_with_prefix_test() {
        let t = Tuple::new(vec![
            Datum::str("PROMO BURNISHED"),
            Datum::Null,
            Datum::Int(3),
        ]);
        assert_eq!(
            Expr::col(0).starts_with("PROMO").eval(&t).unwrap(),
            Datum::Bool(true)
        );
        assert_eq!(
            Expr::col(0).starts_with("ECONOMY").eval(&t).unwrap(),
            Datum::Bool(false)
        );
        assert!(Expr::col(1).starts_with("X").eval(&t).unwrap().is_null());
        assert!(Expr::col(2).starts_with("X").eval(&t).is_err());
    }

    #[test]
    fn display_round_trips_visually() {
        let e = Expr::col(0).le(Expr::lit(10)).and(Expr::col(1).is_null());
        assert_eq!(e.to_string(), "(($0 <= 10) AND ($1 IS NULL))");
    }
}
