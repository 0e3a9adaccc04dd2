//! B+-tree index scan: range scans and parameterized lookups.

use crate::arena::TupleSlot;
use crate::context::ExecContext;
use crate::exec::{schema_slot_bytes, Operator, DEFAULT_BATCH};
use crate::fault;
use crate::footprint::{FootprintModel, OpKind};
use crate::plan::IndexMode;
use bufferdb_cachesim::{CodeRegion, Machine};
use bufferdb_storage::{Catalog, IndexDef, Table};
use bufferdb_types::{Datum, DbError, Result, SchemaRef};
use std::sync::Arc;

/// Simulated address region for index node storage.
const INDEX_SPACE: u64 = 0x4_0000_0000;

/// The index scan's row kernel: descents into the B+-tree, the heap rows
/// they found and the fetch of each. [`IndexScanOp`] runs it one returned
/// row per index-code execution; a fused push group
/// ([`crate::exec::push`]) runs it as its nest-loop probe (one lookup per
/// outer row) or as its merge join's right side.
pub(crate) struct IndexCursor {
    index: Arc<IndexDef>,
    table: Arc<Table>,
    key_site: u64,
    index_base: u64,
    /// The heap table's registration in the arena (set at `open`).
    table_id: u32,
    /// Heap row ids of the current lookup or range, in key order.
    matches: Vec<u32>,
    pos: usize,
}

impl IndexCursor {
    pub(crate) fn new(catalog: &Catalog, fm: &mut FootprintModel, index: &str) -> Result<Self> {
        let index = catalog.index(index)?;
        let table = catalog.table(&index.table)?;
        // Each index gets a stable simulated address region for its nodes.
        let index_base = INDEX_SPACE + (fxhash(index.name.as_bytes()) & 0xFFFF) * (1 << 24);
        Ok(IndexCursor {
            index,
            table,
            key_site: fm.predicate_site(),
            index_base,
            table_id: 0,
            matches: Vec::new(),
            pos: 0,
        })
    }

    /// The heap table.
    pub(crate) fn table(&self) -> &Table {
        &self.table
    }

    /// The heap table's registration in the arena.
    pub(crate) fn table_id(&self) -> u32 {
        self.table_id
    }

    /// Register the heap table with the arena; no position yet.
    pub(crate) fn open(&mut self, ctx: &mut ExecContext) {
        self.table_id = ctx.arena.register_table(&self.table);
        self.clear();
    }

    /// Simulate a root-to-leaf descent: one cache-line-sized node read per
    /// level at key-dependent addresses (index probes are random accesses —
    /// the data structure that "competes with a large buffer for cache
    /// memory", §7.4).
    pub(crate) fn descend(&self, machine: &mut Machine, key: i64) {
        let height = self.index.btree.height() as u64;
        let entries = self.index.btree.len().max(1) as u64;
        for level in 0..height {
            // Higher levels are smaller (fan-out 64): scale the address range.
            let level_nodes = (entries >> (6 * (height - level))).max(1);
            let node = mix(key as u64 ^ (level << 56)) % level_nodes;
            machine.data_read(self.index_base + node * 64, 64);
        }
        machine.add_instructions(self.index.btree.probe_cost() as u64 * 6);
    }

    /// Position on the rows with keys in `[lo, hi]` (`None`: unbounded)
    /// whose heap row ids fall in `morsel`, when given (no simulated work:
    /// the caller charges the descent).
    pub(crate) fn range(
        &mut self,
        (lo, hi): (Option<i64>, Option<i64>),
        morsel: Option<(u32, u32)>,
    ) {
        let (mlo, mhi) = morsel.unwrap_or((0, u32::MAX));
        let rows = (self.index.btree)
            .range(lo.unwrap_or(i64::MIN), hi.unwrap_or(i64::MAX))
            .map(|(_, r)| r)
            .filter(|&r| r >= mlo && r < mhi);
        self.matches.clear();
        self.matches.extend(rows);
        self.pos = 0;
    }

    /// Position on the rows whose key is `key`: one descent and the found
    /// branch; a NULL key joins nothing and descends nowhere.
    pub(crate) fn lookup(&mut self, machine: &mut Machine, key: Option<i64>) {
        self.matches.clear();
        if let Some(key) = key {
            self.descend(machine, key);
            let rows = self.index.btree.range(key, key).map(|(_, r)| r);
            self.matches.extend(rows);
        }
        machine.branch(self.key_site, !self.matches.is_empty());
        self.pos = 0;
    }

    /// Fetch the next row of the position: its fault site, then its heap
    /// read.
    pub(crate) fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<u32>> {
        let Some(&id) = self.matches.get(self.pos) else {
            return Ok(None);
        };
        ctx.fault(fault::INDEXSCAN_NEXT)?;
        self.pos += 1;
        ctx.machine
            .data_read(self.table.row_addr(id), self.table.row_width(id));
        Ok(Some(id))
    }

    pub(crate) fn clear(&mut self) {
        self.matches.clear();
        self.pos = 0;
    }
}

/// Index scan operator producing heap rows in key order.
pub struct IndexScanOp {
    cursor: IndexCursor,
    mode: IndexMode,
    schema: SchemaRef,
    code: CodeRegion,
    out_region: u32,
    batch_hint: usize,
}

impl IndexScanOp {
    /// Build an index scan.
    pub fn new(
        catalog: &Catalog,
        fm: &mut FootprintModel,
        index: &str,
        mode: IndexMode,
    ) -> Result<Self> {
        catalog.index(index)?;
        let code = fm.region_for(&OpKind::IndexScan);
        let cursor = IndexCursor::new(catalog, fm, index)?;
        Ok(IndexScanOp {
            schema: cursor.table.schema().clone(),
            cursor,
            mode,
            code,
            out_region: u32::MAX,
            batch_hint: DEFAULT_BATCH,
        })
    }
}

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 31)
}

fn fxhash(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0u64, |h, &b| {
        (h.rotate_left(5) ^ b as u64).wrapping_mul(0x51_7C_C1_B7_27_22_0A_95)
    })
}

impl Operator for IndexScanOp {
    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn set_batch_hint(&mut self, n: usize) {
        self.batch_hint = self.batch_hint.max(n);
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.out_region = ctx
            .arena
            .alloc_region(self.batch_hint as u32 + 1, schema_slot_bytes(&self.schema));
        self.cursor.open(ctx);
        match self.mode {
            // An exchange worker hands us a morsel of the heap row-id
            // domain: the range keeps only matches inside it.
            IndexMode::Range { lo, hi } => {
                self.cursor.descend(&mut ctx.machine, lo.unwrap_or(0));
                self.cursor.range((lo, hi), ctx.morsel.take());
            }
            IndexMode::LookupParam => {
                // Waits for the first rescan with a parameter. Morsels never
                // apply here (lookups are driven by the outer row), but a
                // stray one must not leak to a sibling scan.
                ctx.morsel.take();
            }
        }
        Ok(())
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<TupleSlot>> {
        ctx.machine.exec_region(&mut self.code);
        let Some(row_id) = self.cursor.next(ctx)? else {
            return Ok(None);
        };
        Ok(Some(ctx.arena.store_row(
            self.out_region,
            self.cursor.table_id(),
            row_id,
            &mut ctx.machine,
        )))
    }

    fn close(&mut self, _ctx: &mut ExecContext) -> Result<()> {
        self.cursor.clear();
        Ok(())
    }

    fn rescan(&mut self, ctx: &mut ExecContext, param: Option<&Datum>) -> Result<()> {
        match (&self.mode, param) {
            (IndexMode::Range { lo, hi }, None) => {
                self.cursor.range((*lo, *hi), None);
                Ok(())
            }
            (IndexMode::LookupParam, Some(d)) => {
                self.cursor.lookup(&mut ctx.machine, d.as_int());
                Ok(())
            }
            (IndexMode::LookupParam, None) => Err(DbError::ExecProtocol(
                "parameterized index scan rescanned without a key".into(),
            )),
            (IndexMode::Range { .. }, Some(_)) => Err(DbError::ExecProtocol(
                "range index scan does not take a parameter".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bufferdb_cachesim::MachineConfig;
    use bufferdb_index::BTreeIndex;
    use bufferdb_storage::TableBuilder;
    use bufferdb_types::{DataType, Field, Schema, Tuple};

    fn setup(n: i64) -> (Catalog, FootprintModel, ExecContext) {
        let c = Catalog::new();
        let mut b = TableBuilder::new(
            "orders",
            Schema::new(vec![
                Field::new("o_orderkey", DataType::Int),
                Field::new("x", DataType::Int),
            ]),
        );
        for i in 0..n {
            b.push(Tuple::new(vec![Datum::Int(i), Datum::Int(i * 2)]));
        }
        c.add_table(b);
        let mut btree = BTreeIndex::new();
        for i in 0..n {
            btree.insert(i, i as u32);
        }
        c.add_index(IndexDef {
            name: "orders_pkey".into(),
            table: "orders".into(),
            key_column: 0,
            btree,
        });
        (
            c,
            FootprintModel::new(),
            ExecContext::new(MachineConfig::pentium4_like()),
        )
    }

    #[test]
    fn range_scan_in_key_order() {
        let (c, mut fm, mut ctx) = setup(100);
        let mut op = IndexScanOp::new(
            &c,
            &mut fm,
            "orders_pkey",
            IndexMode::Range {
                lo: Some(10),
                hi: Some(14),
            },
        )
        .unwrap();
        op.open(&mut ctx).unwrap();
        let mut keys = Vec::new();
        while let Some(s) = op.next(&mut ctx).unwrap() {
            keys.push(ctx.arena.tuple(s).get(0).as_int().unwrap());
        }
        assert_eq!(keys, vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn param_lookup_per_rescan() {
        let (c, mut fm, mut ctx) = setup(100);
        let mut op = IndexScanOp::new(&c, &mut fm, "orders_pkey", IndexMode::LookupParam).unwrap();
        op.open(&mut ctx).unwrap();
        assert!(op.next(&mut ctx).unwrap().is_none(), "no key yet");
        op.rescan(&mut ctx, Some(&Datum::Int(42))).unwrap();
        let s = op.next(&mut ctx).unwrap().unwrap();
        assert_eq!(ctx.arena.tuple(s).get(1).as_int(), Some(84));
        assert!(op.next(&mut ctx).unwrap().is_none());
        // Missing key.
        op.rescan(&mut ctx, Some(&Datum::Int(1000))).unwrap();
        assert!(op.next(&mut ctx).unwrap().is_none());
        // NULL key joins nothing.
        op.rescan(&mut ctx, Some(&Datum::Null)).unwrap();
        assert!(op.next(&mut ctx).unwrap().is_none());
    }

    #[test]
    fn protocol_violations_error() {
        let (c, mut fm, mut ctx) = setup(10);
        let mut op = IndexScanOp::new(&c, &mut fm, "orders_pkey", IndexMode::LookupParam).unwrap();
        op.open(&mut ctx).unwrap();
        assert!(op.rescan(&mut ctx, None).is_err());
        let mut range = IndexScanOp::new(
            &c,
            &mut fm,
            "orders_pkey",
            IndexMode::Range { lo: None, hi: None },
        )
        .unwrap();
        range.open(&mut ctx).unwrap();
        assert!(range.rescan(&mut ctx, Some(&Datum::Int(1))).is_err());
    }

    #[test]
    fn descent_touches_index_memory() {
        let (c, mut fm, mut ctx) = setup(1000);
        let mut op = IndexScanOp::new(&c, &mut fm, "orders_pkey", IndexMode::LookupParam).unwrap();
        op.open(&mut ctx).unwrap();
        let before = ctx.machine.snapshot();
        op.rescan(&mut ctx, Some(&Datum::Int(7))).unwrap();
        let delta = ctx.machine.snapshot() - before;
        assert!(delta.l1d_accesses >= 2, "index node reads expected");
        assert!(delta.instructions > 0);
    }

    #[test]
    fn unknown_index_is_error() {
        let (c, mut fm, _) = setup(1);
        assert!(IndexScanOp::new(&c, &mut fm, "nope", IndexMode::LookupParam).is_err());
    }
}
