//! Tuples: fixed-arity rows of datums.

use crate::value::Datum;
use std::fmt;

/// A row of values: the rows a table stores, and the rows operators build
/// (projections, join outputs, aggregate results). Operators pass rows by
/// reference — arena slots that name a table row or an owned tuple — and
/// rewrite a recycled tuple's values in place rather than allocate a new
/// one per row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tuple {
    values: Box<[Datum]>,
}

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: Vec<Datum>) -> Self {
        Tuple {
            values: values.into_boxed_slice(),
        }
    }

    /// The values, in schema order.
    pub fn values(&self) -> &[Datum] {
        &self.values
    }

    /// The values, for rewriting a recycled tuple in place.
    pub fn values_mut(&mut self) -> &mut [Datum] {
        &mut self.values
    }

    /// Value at column `idx`. Panics when out of range; column indices come
    /// from validated plans.
    pub fn get(&self, idx: usize) -> &Datum {
        &self.values[idx]
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Approximate in-memory size in bytes (header + payloads); drives the
    /// simulated-address layout of tuple slots in the data-cache model.
    pub fn simulated_width(&self) -> usize {
        Tuple::simulated_width_of(self.values.iter())
    }

    /// The simulated width of a tuple holding `values` (say, the two sides
    /// of a join row that was never concatenated).
    pub fn simulated_width_of<'a>(values: impl Iterator<Item = &'a Datum>) -> usize {
        16 + values.map(Datum::simulated_width).sum::<usize>()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tuple::new(vec![Datum::Int(1), Datum::Null, Datum::str("x")]);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(0).as_int(), Some(1));
        assert!(t.get(1).is_null());
    }

    #[test]
    fn values_rewrite_in_place() {
        let mut t = Tuple::new(vec![Datum::Int(1), Datum::Null]);
        t.values_mut()[1] = Datum::Int(2);
        assert_eq!(t.get(1).as_int(), Some(2));
        assert_eq!(t.arity(), 2);
    }

    #[test]
    fn display_is_bracketed() {
        let t = Tuple::new(vec![Datum::Int(1), Datum::Null]);
        assert_eq!(t.to_string(), "[1, NULL]");
    }

    #[test]
    fn simulated_width_counts_header_and_payload() {
        let t = Tuple::new(vec![Datum::Int(1), Datum::Int(2)]);
        assert_eq!(t.simulated_width(), 16 + 8 + 8);
        let empty = Tuple::new(vec![]);
        assert_eq!(empty.simulated_width(), 16);
    }
}
