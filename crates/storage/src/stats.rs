//! Table statistics: the "cardinality estimates from the optimizer" that the
//! paper's plan refinement algorithm consumes (§6).

use bufferdb_types::{ops, Datum, SchemaRef, Tuple};
use std::cmp::Ordering;

/// Per-column summary statistics.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Smallest non-null value, if any non-null value exists.
    pub min: Option<Datum>,
    /// Largest non-null value.
    pub max: Option<Datum>,
    /// Number of NULLs.
    pub null_count: u64,
}

/// Whole-table statistics.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Exact row count (tables are immutable after load).
    pub row_count: u64,
    /// One entry per column.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Compute statistics in one pass over the rows.
    pub fn compute(schema: &SchemaRef, rows: &[Tuple]) -> TableStats {
        let mut columns: Vec<ColumnStats> = (0..schema.len())
            .map(|_| ColumnStats {
                min: None,
                max: None,
                null_count: 0,
            })
            .collect();
        for row in rows {
            for (c, stats) in columns.iter_mut().enumerate() {
                let v = row.get(c);
                if v.is_null() {
                    stats.null_count += 1;
                    continue;
                }
                let lower = match &stats.min {
                    None => true,
                    Some(m) => matches!(ops::compare(v, m), Ok(Some(Ordering::Less))),
                };
                if lower {
                    stats.min = Some(v.clone());
                }
                let higher = match &stats.max {
                    None => true,
                    Some(m) => matches!(ops::compare(v, m), Ok(Some(Ordering::Greater))),
                };
                if higher {
                    stats.max = Some(v.clone());
                }
            }
        }
        TableStats {
            row_count: rows.len() as u64,
            columns,
        }
    }

    /// Estimated selectivity of `col <= bound`, by linear interpolation over
    /// the column's [min, max] range (the classic uniform assumption). Falls
    /// back to 1/3 — PostgreSQL's default for inequality — when the column
    /// range is unknown or non-numeric.
    pub fn estimate_le_selectivity(&self, col: usize, bound: &Datum) -> f64 {
        const DEFAULT_INEQ_SEL: f64 = 1.0 / 3.0;
        let Some(stats) = self.columns.get(col) else {
            return DEFAULT_INEQ_SEL;
        };
        let (Some(min), Some(max)) = (&stats.min, &stats.max) else {
            return DEFAULT_INEQ_SEL;
        };
        let (Some(lo), Some(hi), Some(b)) =
            (datum_to_f64(min), datum_to_f64(max), datum_to_f64(bound))
        else {
            return DEFAULT_INEQ_SEL;
        };
        if hi <= lo {
            return if b >= hi { 1.0 } else { 0.0 };
        }
        ((b - lo) / (hi - lo)).clamp(0.0, 1.0)
    }
}

fn datum_to_f64(d: &Datum) -> Option<f64> {
    match d {
        Datum::Int(v) => Some(*v as f64),
        Datum::Float(v) => Some(*v),
        Datum::Decimal(v) => Some(v.to_f64()),
        Datum::Date(v) => Some(v.days() as f64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bufferdb_types::{DataType, Date, Field, Schema};

    fn table_stats(values: Vec<Datum>) -> TableStats {
        let schema = Schema::new(vec![Field::nullable("c", DataType::Int)]).into_ref();
        let rows: Vec<Tuple> = values.into_iter().map(|v| Tuple::new(vec![v])).collect();
        TableStats::compute(&schema, &rows)
    }

    #[test]
    fn min_max_and_nulls() {
        let s = table_stats(vec![
            Datum::Int(5),
            Datum::Null,
            Datum::Int(-3),
            Datum::Int(9),
        ]);
        assert_eq!(s.row_count, 4);
        assert_eq!(s.columns[0].min, Some(Datum::Int(-3)));
        assert_eq!(s.columns[0].max, Some(Datum::Int(9)));
        assert_eq!(s.columns[0].null_count, 1);
    }

    #[test]
    fn le_selectivity_interpolates() {
        let s = table_stats((0..=100).map(Datum::Int).collect());
        let sel = s.estimate_le_selectivity(0, &Datum::Int(25));
        assert!((sel - 0.25).abs() < 1e-9);
        assert_eq!(s.estimate_le_selectivity(0, &Datum::Int(1000)), 1.0);
        assert_eq!(s.estimate_le_selectivity(0, &Datum::Int(-5)), 0.0);
    }

    #[test]
    fn le_selectivity_on_dates() {
        let mk = |s: &str| Datum::Date(Date::parse(s).unwrap());
        let schema = Schema::new(vec![Field::new("d", DataType::Date)]).into_ref();
        let rows: Vec<Tuple> = (0..=1000)
            .map(|i| {
                Tuple::new(vec![Datum::Date(
                    Date::parse("1992-01-01").unwrap().add_days(i),
                )])
            })
            .collect();
        let s = TableStats::compute(&schema, &rows);
        let sel = s.estimate_le_selectivity(0, &mk("1992-01-01"));
        assert!(sel < 0.01);
    }

    #[test]
    fn defaults_when_unknown() {
        let s = table_stats(vec![Datum::Null, Datum::Null]);
        let sel = s.estimate_le_selectivity(0, &Datum::Int(0));
        assert!((sel - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn constant_column_degenerate_range() {
        let s = table_stats(vec![Datum::Int(7); 5]);
        assert_eq!(s.estimate_le_selectivity(0, &Datum::Int(7)), 1.0);
        assert_eq!(s.estimate_le_selectivity(0, &Datum::Int(6)), 0.0);
    }
}
