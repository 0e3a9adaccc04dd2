//! B+-tree index scan: range scans and parameterized lookups.

use crate::arena::TupleSlot;
use crate::context::ExecContext;
use crate::exec::{schema_slot_bytes, Operator, DEFAULT_BATCH};
use crate::fault;
use crate::footprint::{FootprintModel, OpKind};
use crate::plan::IndexMode;
use bufferdb_cachesim::CodeRegion;
use bufferdb_storage::{Catalog, IndexDef, Table};
use bufferdb_types::{Datum, DbError, Result, SchemaRef};
use std::sync::Arc;

/// Simulated address region for index node storage.
const INDEX_SPACE: u64 = 0x4_0000_0000;

/// Index scan operator producing heap rows in key order.
pub struct IndexScanOp {
    index: Arc<IndexDef>,
    table: Arc<Table>,
    mode: IndexMode,
    schema: SchemaRef,
    code: CodeRegion,
    key_site: u64,
    matches: Vec<u32>,
    pos: usize,
    /// The heap table's registration in the arena (set at `open`).
    table_id: u32,
    out_region: u32,
    batch_hint: usize,
    index_base: u64,
}

impl IndexScanOp {
    /// Build an index scan.
    pub fn new(
        catalog: &Catalog,
        fm: &mut FootprintModel,
        index: &str,
        mode: IndexMode,
    ) -> Result<Self> {
        let index = catalog.index(index)?;
        let table = catalog.table(&index.table)?;
        let schema = table.schema().clone();
        let code = fm.region_for(&OpKind::IndexScan);
        let key_site = fm.predicate_site();
        // Each index gets a stable simulated address region for its nodes.
        let index_base = INDEX_SPACE + (fxhash(index.name.as_bytes()) & 0xFFFF) * (1 << 24);
        Ok(IndexScanOp {
            index,
            table,
            mode,
            schema,
            code,
            key_site,
            matches: Vec::new(),
            pos: 0,
            table_id: 0,
            out_region: u32::MAX,
            batch_hint: DEFAULT_BATCH,
            index_base,
        })
    }

    /// Simulate a root-to-leaf descent: one cache-line-sized node read per
    /// level at key-dependent addresses (index probes are random accesses —
    /// the data structure that "competes with a large buffer for cache
    /// memory", §7.4).
    fn simulate_descent(&self, ctx: &mut ExecContext, key: i64) {
        let height = self.index.btree.height() as u64;
        let entries = self.index.btree.len().max(1) as u64;
        for level in 0..height {
            // Higher levels are smaller (fan-out 64): scale the address range.
            let level_nodes = (entries >> (6 * (height - level))).max(1);
            let node = mix(key as u64 ^ (level << 56)) % level_nodes;
            ctx.machine.data_read(self.index_base + node * 64, 64);
        }
        ctx.machine
            .add_instructions(self.index.btree.probe_cost() as u64 * 6);
    }

    fn fill_range(&mut self, lo: Option<i64>, hi: Option<i64>) {
        self.matches = self
            .index
            .btree
            .range(lo.unwrap_or(i64::MIN), hi.unwrap_or(i64::MAX))
            .map(|(_, r)| r)
            .collect();
        self.pos = 0;
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
        self.table_id = ctx.arena.register_table(&self.table);
        match self.mode {
            IndexMode::Range { lo, hi } => {
                self.simulate_descent(ctx, lo.unwrap_or(0));
                self.fill_range(lo, hi);
                // An exchange worker hands us a morsel of the heap row-id
                // domain: keep only matches inside it.
                if let Some((mlo, mhi)) = ctx.morsel.take() {
                    self.matches.retain(|&r| r >= mlo && r < mhi);
                }
            }
            IndexMode::LookupParam => {
                // Waits for the first rescan with a parameter. Morsels never
                // apply here (lookups are driven by the outer row), but a
                // stray one must not leak to a sibling scan.
                ctx.morsel.take();
                self.matches.clear();
                self.pos = 0;
            }
        }
        Ok(())
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<TupleSlot>> {
        ctx.machine.exec_region(&mut self.code);
        if self.pos >= self.matches.len() {
            return Ok(None);
        }
        ctx.fault(fault::INDEXSCAN_NEXT)?;
        let row_id = self.matches[self.pos];
        self.pos += 1;
        ctx.machine
            .data_read(self.table.row_addr(row_id), self.table.row_width(row_id));
        Ok(Some(ctx.arena.store_row(
            self.out_region,
            self.table_id,
            row_id,
            &mut ctx.machine,
        )))
    }

    fn close(&mut self, _ctx: &mut ExecContext) -> Result<()> {
        self.matches.clear();
        Ok(())
    }

    fn rescan(&mut self, ctx: &mut ExecContext, param: Option<&Datum>) -> Result<()> {
        match (&self.mode, param) {
            (IndexMode::Range { lo, hi }, None) => {
                let (lo, hi) = (*lo, *hi);
                self.fill_range(lo, hi);
                Ok(())
            }
            (IndexMode::LookupParam, Some(d)) => {
                let found = match d.as_int() {
                    Some(key) => {
                        self.simulate_descent(ctx, key);
                        self.matches = self.index.btree.lookup(key);
                        !self.matches.is_empty()
                    }
                    None => {
                        // NULL key joins nothing.
                        self.matches.clear();
                        false
                    }
                };
                ctx.machine.branch(self.key_site, found);
                self.pos = 0;
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
