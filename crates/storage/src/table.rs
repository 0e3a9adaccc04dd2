//! Heap tables: rows in insertion order with simulated addresses.

use crate::stats::TableStats;
use bufferdb_types::{Schema, SchemaRef, Tuple};

/// Row identifier within one table (dense, 0-based).
pub type RowId = u32;

/// An immutable, memory-resident row heap.
#[derive(Debug)]
pub struct Table {
    name: String,
    schema: SchemaRef,
    rows: Vec<Tuple>,
    /// Simulated byte address of each row (sequential heap layout).
    addrs: Vec<u64>,
    /// Simulated width of each row's tuple in bytes
    /// ([`Tuple::simulated_width`], before heap alignment).
    widths: Vec<u32>,
    stats: TableStats,
}

impl Table {
    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The row for `id`. Panics on out-of-range ids (row ids come from scans
    /// and index lookups over this same table).
    pub fn row(&self, id: RowId) -> &Tuple {
        &self.rows[id as usize]
    }

    /// Simulated address of row `id`.
    pub fn row_addr(&self, id: RowId) -> u64 {
        self.addrs[id as usize]
    }

    /// Simulated width in bytes of row `id`'s heap slot (16-byte aligned).
    pub fn row_width(&self, id: RowId) -> usize {
        self.tuple_width(id).next_multiple_of(16)
    }

    /// [`Tuple::simulated_width`] of row `id`, without summing its values.
    pub fn tuple_width(&self, id: RowId) -> usize {
        self.widths[id as usize] as usize
    }

    /// All rows, in heap order.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Precomputed statistics ("optimizer estimates").
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Total simulated heap size in bytes.
    pub fn heap_bytes(&self) -> u64 {
        match (self.addrs.first(), self.addrs.last(), self.widths.last()) {
            (Some(first), Some(last), Some(w)) => last + w.next_multiple_of(16) as u64 - first,
            _ => 0,
        }
    }
}

/// Builds a [`Table`], assigning sequential simulated addresses.
#[derive(Debug)]
pub struct TableBuilder {
    name: String,
    schema: SchemaRef,
    rows: Vec<Tuple>,
}

impl TableBuilder {
    /// Start a table with the given name and schema.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        TableBuilder {
            name: name.into(),
            schema: schema.into_ref(),
            rows: Vec::new(),
        }
    }

    /// Append one row. Debug-asserts arity (generators are trusted; plans
    /// validate separately).
    pub fn push(&mut self, row: Tuple) {
        debug_assert_eq!(row.arity(), self.schema.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Append many rows.
    pub fn extend(&mut self, rows: impl IntoIterator<Item = Tuple>) {
        for r in rows {
            self.push(r);
        }
    }

    /// Number of rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Simulated heap bytes [`TableBuilder::build`] will lay out — the same
    /// per-row 16-byte-aligned widths, independent of the base address. Lets
    /// the catalog reserve an address range *before* building, without
    /// holding its allocator across the build.
    pub fn heap_bytes(&self) -> u64 {
        self.rows
            .iter()
            .map(|r| r.simulated_width().next_multiple_of(16) as u64)
            .sum()
    }

    /// Finish: lay rows out sequentially from `base_addr` (16-byte aligned
    /// slots, as a heap allocator would) and compute statistics.
    pub fn build(self, base_addr: u64) -> Table {
        let mut addrs = Vec::with_capacity(self.rows.len());
        let mut widths = Vec::with_capacity(self.rows.len());
        let mut addr = base_addr;
        for row in &self.rows {
            let w = row.simulated_width() as u32;
            addrs.push(addr);
            widths.push(w);
            addr += w.next_multiple_of(16) as u64;
        }
        let stats = TableStats::compute(&self.schema, &self.rows);
        Table {
            name: self.name,
            schema: self.schema,
            rows: self.rows,
            addrs,
            widths,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bufferdb_types::{DataType, Datum, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::nullable("name", DataType::Str),
        ])
    }

    fn build_table(n: i64) -> Table {
        let mut b = TableBuilder::new("t", schema());
        for i in 0..n {
            b.push(Tuple::new(vec![
                Datum::Int(i),
                Datum::str(format!("row{i}")),
            ]));
        }
        b.build(0x1000)
    }

    #[test]
    fn rows_accessible_by_id() {
        let t = build_table(10);
        assert_eq!(t.row_count(), 10);
        assert_eq!(t.row(3).get(0).as_int(), Some(3));
        assert_eq!(t.name(), "t");
    }

    #[test]
    fn addresses_are_sequential_and_aligned() {
        let t = build_table(100);
        let mut prev_end = 0x1000;
        for id in 0..100u32 {
            let a = t.row_addr(id);
            assert_eq!(a, prev_end, "row {id} not contiguous");
            assert_eq!(a % 16, 0);
            prev_end = a + t.row_width(id) as u64;
        }
        assert_eq!(t.heap_bytes(), prev_end - 0x1000);
    }

    #[test]
    fn empty_table() {
        let t = TableBuilder::new("e", schema()).build(0);
        assert_eq!(t.row_count(), 0);
        assert_eq!(t.heap_bytes(), 0);
        assert_eq!(t.stats().row_count, 0);
    }

    #[test]
    fn builder_extend_and_len() {
        let mut b = TableBuilder::new("t", schema());
        assert!(b.is_empty());
        b.extend((0..5).map(|i| Tuple::new(vec![Datum::Int(i), Datum::Null])));
        assert_eq!(b.len(), 5);
    }
}
