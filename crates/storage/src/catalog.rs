//! The catalog: named tables and indexes, plus simulated-address allocation.

use crate::systable::SysTableRef;
use crate::table::{Table, TableBuilder};
use bufferdb_index::BTreeIndex;
use bufferdb_types::{DbError, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Base of the simulated data address space (code lives far below).
pub const DATA_BASE: u64 = 0x1_0000_0000;

/// A secondary index registered in the catalog.
#[derive(Debug)]
pub struct IndexDef {
    /// Index name, e.g. `"orders_pkey"`.
    pub name: String,
    /// Indexed table.
    pub table: String,
    /// Key column position in the table schema.
    pub key_column: usize,
    /// The B+-tree itself.
    pub btree: BTreeIndex,
}

/// A catalog of immutable tables and indexes.
///
/// Interior mutability lets the TPC-H generator register tables from worker
/// threads while queries hold only `&Catalog`.
///
/// # Locking
///
/// No lock is ever held across query execution: [`Catalog::table`] and
/// [`Catalog::index`] clone the `Arc` inside the read guard and drop it
/// before returning, so exchange workers resolving tables concurrently
/// never serialize on — or deadlock with — a registration in progress. The
/// simulated-address allocator is a lock-free atomic (registration computes
/// sizes *before* reserving), which leaves `tables` and `indexes` as the
/// only locks; neither is ever taken while the other is held.
pub struct Catalog {
    tables: RwLock<HashMap<String, Arc<Table>>>,
    indexes: RwLock<HashMap<String, Arc<IndexDef>>>,
    /// Virtual `sys.*` introspection tables: providers snapshot live engine
    /// state on scan and occupy no simulated address space.
    sys_tables: RwLock<HashMap<String, SysTableRef>>,
    next_addr: AtomicU64,
    /// Statistics epoch: bumped on every table/index registration (and by
    /// [`Catalog::bump_stats_epoch`]) so plan caches keyed on the epoch can
    /// tell that cardinality estimates derived from this catalog are stale.
    stats_epoch: AtomicU64,
}

impl Default for Catalog {
    fn default() -> Self {
        Self::new()
    }
}

// Manual impl: `dyn SysTableProvider` is not `Debug`; show registry names.
impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Catalog")
            .field("tables", &self.tables)
            .field("indexes", &self.indexes)
            .field("sys_tables", &self.sys_table_names())
            .field("next_addr", &self.next_addr)
            .field("stats_epoch", &self.stats_epoch)
            .finish()
    }
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog {
            tables: RwLock::new(HashMap::new()),
            indexes: RwLock::new(HashMap::new()),
            sys_tables: RwLock::new(HashMap::new()),
            next_addr: AtomicU64::new(DATA_BASE),
            stats_epoch: AtomicU64::new(0),
        }
    }

    /// The current statistics epoch. Any registration (table or index) and
    /// any explicit [`Catalog::bump_stats_epoch`] advances it; cached plans
    /// fingerprinted under an older epoch must be re-optimized.
    pub fn stats_epoch(&self) -> u64 {
        self.stats_epoch.load(Ordering::Acquire)
    }

    /// Advance the statistics epoch without changing the schema — the hook
    /// for bulk updates or re-analyzed statistics that invalidate cached
    /// cardinality estimates.
    pub fn bump_stats_epoch(&self) -> u64 {
        self.stats_epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Finish `builder` into a table laid out at the next free simulated
    /// address and register it. Returns the shared handle.
    pub fn add_table(&self, builder: TableBuilder) -> Arc<Table> {
        // Reserve the address range up front (the builder knows its layout
        // size), then build outside any lock: concurrent callers get
        // disjoint heaps without serializing on the build itself.
        // A 1 MB guard gap separates heaps so streams never blend.
        let bytes = builder.heap_bytes() + (1 << 20);
        let base = self.next_addr.fetch_add(bytes, Ordering::Relaxed);
        let table = Arc::new(builder.build(base));
        self.tables
            .write()
            .unwrap()
            .insert(table.name().to_string(), Arc::clone(&table));
        self.bump_stats_epoch();
        table
    }

    /// Register an index.
    pub fn add_index(&self, def: IndexDef) -> Arc<IndexDef> {
        let arc = Arc::new(def);
        self.indexes
            .write()
            .unwrap()
            .insert(arc.name.clone(), Arc::clone(&arc));
        self.bump_stats_epoch();
        arc
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .read()
            .unwrap()
            .get(name)
            .cloned()
            .ok_or_else(|| DbError::UnknownRelation(name.to_string()))
    }

    /// Look up an index by name.
    pub fn index(&self, name: &str) -> Result<Arc<IndexDef>> {
        self.indexes
            .read()
            .unwrap()
            .get(name)
            .cloned()
            .ok_or_else(|| DbError::UnknownRelation(name.to_string()))
    }

    /// Names of all registered tables (unordered).
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().unwrap().keys().cloned().collect()
    }

    /// Register (or replace) a virtual `sys.*` table. Registration bumps the
    /// stats epoch like any other schema change so cached plans that resolved
    /// the old provider's schema are re-optimized.
    pub fn register_sys_table(&self, name: impl Into<String>, provider: SysTableRef) {
        self.sys_tables
            .write()
            .unwrap()
            .insert(name.into(), provider);
        self.bump_stats_epoch();
    }

    /// Look up a virtual table by name (same Arc-clone-inside-guard
    /// discipline as [`Catalog::table`]).
    pub fn sys_table(&self, name: &str) -> Result<SysTableRef> {
        self.sys_tables
            .read()
            .unwrap()
            .get(name)
            .cloned()
            .ok_or_else(|| DbError::UnknownRelation(name.to_string()))
    }

    /// Names of all registered virtual tables, sorted.
    pub fn sys_table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.sys_tables.read().unwrap().keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bufferdb_types::{DataType, Datum, Field, Schema, Tuple};

    fn builder(name: &str, n: i64) -> TableBuilder {
        let mut b = TableBuilder::new(name, Schema::new(vec![Field::new("id", DataType::Int)]));
        for i in 0..n {
            b.push(Tuple::new(vec![Datum::Int(i)]));
        }
        b
    }

    #[test]
    fn add_and_lookup_table() {
        let c = Catalog::new();
        c.add_table(builder("t1", 10));
        let t = c.table("t1").unwrap();
        assert_eq!(t.row_count(), 10);
        assert!(matches!(c.table("nope"), Err(DbError::UnknownRelation(_))));
    }

    #[test]
    fn tables_get_disjoint_address_ranges() {
        let c = Catalog::new();
        let a = c.add_table(builder("a", 1000));
        let b = c.add_table(builder("b", 1000));
        let a_end = a.row_addr(999) + a.row_width(999) as u64;
        assert!(b.row_addr(0) >= a_end, "heaps must not overlap");
    }

    #[test]
    fn index_registration() {
        let c = Catalog::new();
        c.add_table(builder("t", 5));
        let mut btree = BTreeIndex::new();
        for i in 0..5 {
            btree.insert(i, i as u32);
        }
        c.add_index(IndexDef {
            name: "t_pkey".into(),
            table: "t".into(),
            key_column: 0,
            btree,
        });
        let idx = c.index("t_pkey").unwrap();
        assert_eq!(idx.btree.lookup(3), vec![3]);
        assert!(c.index("missing").is_err());
    }

    #[test]
    fn stats_epoch_advances_on_registration_and_bump() {
        let c = Catalog::new();
        let e0 = c.stats_epoch();
        c.add_table(builder("t", 3));
        let e1 = c.stats_epoch();
        assert!(e1 > e0, "table registration must bump the epoch");
        let mut btree = BTreeIndex::new();
        btree.insert(0, 0);
        c.add_index(IndexDef {
            name: "t_pkey".into(),
            table: "t".into(),
            key_column: 0,
            btree,
        });
        let e2 = c.stats_epoch();
        assert!(e2 > e1, "index registration must bump the epoch");
        let e3 = c.bump_stats_epoch();
        assert_eq!(e3, c.stats_epoch());
        assert!(e3 > e2);
    }

    #[test]
    fn table_names_lists_everything() {
        let c = Catalog::new();
        c.add_table(builder("x", 1));
        c.add_table(builder("y", 1));
        let mut names = c.table_names();
        names.sort();
        assert_eq!(names, vec!["x", "y"]);
    }
}
