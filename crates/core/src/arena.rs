//! The tuple arena: intermediate-tuple storage with simulated addresses.
//!
//! In PostgreSQL an operator generates its output tuple in a heap within the
//! operator's own memory space, and the tuple stays alive until an ancestor
//! deallocates it (paper §5, footnote 3). The buffer operator exploits this:
//! it stores *pointers* to up to `buffer_size` child tuples, so the child
//! needs that many live output slots. The arena models exactly this: each
//! operator owns a *region* of tuple slots, reused round-robin, whose
//! capacity is raised by a parent buffer's batch hint before `open`.
//!
//! A slot holds one of three kinds of row (`Held`). A scan's output slot
//! *names* a row of a table registered with the arena, and a join of two
//! such rows names the pair — the host copies nothing, as the paper's
//! buffer copies nothing — while an operator that builds rows (a
//! projection, a join over a built row, an aggregate) owns them; it
//! rewrites the tuple its slot last held (`TupleArena::recycle`) instead of
//! allocating a new one. Either way the *simulated* memory traffic is the
//! same: a store writes, and a read reads, the slot's simulated address for
//! the row's simulated width. Host pointers never reach the model.

use crate::expr::RowRef;
use bufferdb_cachesim::Machine;
use bufferdb_storage::{RowId, Table};
use bufferdb_types::{Datum, Tuple};
use std::cell::OnceCell;
use std::sync::Arc;

/// Base of per-query scratch space (operator slots, buffer arrays, hash
/// tables, sort runs); table heaps live below this.
pub const EXEC_DATA_BASE: u64 = 0x8_0000_0000;

/// Handle to one tuple living in an arena region. `Copy`, like the tuple
/// pointers the paper's buffer array stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TupleSlot {
    /// Owning region.
    pub region: u32,
    /// Slot within the region.
    pub slot: u32,
}

/// Row `id` of the table the arena registered as `table`
/// (`TupleArena::register_table`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TableRow {
    pub(crate) table: u32,
    pub(crate) id: RowId,
}

/// A row a slot (or a materializing operator) holds.
#[derive(Debug, Clone)]
pub(crate) enum Held {
    /// A tuple the holder owns.
    Owned(Tuple),
    /// A table row, by reference.
    Row(TableRow),
    /// A join's output over two table rows, by reference; `joined`, their
    /// concatenation, is built only if someone asks for the whole tuple.
    Pair(TableRow, TableRow, OnceCell<Tuple>),
}

#[derive(Debug)]
struct Region {
    base: u64,
    slot_bytes: u32,
    /// 0 = unbounded (append-only: sorts/hash tables that materialize).
    capacity: u32,
    next: u32,
    slots: Vec<Option<Held>>,
}

impl Region {
    fn addr(&self, slot: u32) -> u64 {
        self.base + slot as u64 * self.slot_bytes as u64
    }

    /// Simulated bytes a store or read of a row `simulated_width` wide
    /// touches in this region.
    fn width(&self, simulated_width: usize) -> usize {
        (simulated_width as u32).min(self.slot_bytes.max(16)) as usize
    }
}

/// Per-query tuple storage.
#[derive(Debug, Default)]
pub struct TupleArena {
    regions: Vec<Region>,
    next_addr: u64,
    /// Tables whose rows slots may name, in registration order.
    tables: Vec<Arc<Table>>,
}

impl TupleArena {
    /// An empty arena.
    pub fn new() -> Self {
        TupleArena {
            regions: Vec::new(),
            next_addr: EXEC_DATA_BASE,
            tables: Vec::new(),
        }
    }

    /// Allocate raw simulated data space (buffer pointer arrays, hash
    /// buckets). Returns the base address.
    pub fn sim_alloc(&mut self, bytes: u64) -> u64 {
        let base = self.next_addr;
        self.next_addr = base + bytes.max(1).next_multiple_of(64);
        base
    }

    /// Create a bounded region of `capacity` slots of `slot_bytes` each,
    /// reused round-robin. Operators size `capacity` from their parent's
    /// batch hint (+1 so the in-flight tuple survives a full refill).
    pub fn alloc_region(&mut self, capacity: u32, slot_bytes: u32) -> u32 {
        assert!(capacity > 0, "bounded region needs capacity");
        let id = self.regions.len() as u32;
        let base = self.sim_alloc(capacity as u64 * slot_bytes as u64);
        self.regions.push(Region {
            base,
            slot_bytes,
            capacity,
            next: 0,
            slots: vec![None; capacity as usize],
        });
        id
    }

    /// Create an unbounded append-only region (sort/hash materialization).
    pub fn alloc_unbounded_region(&mut self, slot_bytes: u32) -> u32 {
        let id = self.regions.len() as u32;
        // Reserve a generous contiguous address range; addresses are virtual.
        let base = self.sim_alloc(1 << 28);
        self.regions.push(Region {
            base,
            slot_bytes,
            capacity: 0,
            next: 0,
            slots: Vec::new(),
        });
        id
    }

    /// Let slots name rows of `table`; returns its registration index
    /// (the same index for the same table, however often it is asked).
    pub(crate) fn register_table(&mut self, table: &Arc<Table>) -> u32 {
        let known = self.tables.iter().position(|t| Arc::ptr_eq(t, table));
        known.unwrap_or_else(|| {
            self.tables.push(Arc::clone(table));
            self.tables.len() - 1
        }) as u32
    }

    fn table_row(&self, r: TableRow) -> &Tuple {
        self.tables[r.table as usize].row(r.id)
    }

    /// The tuple `held` stands for (a pair's is built on first request).
    pub(crate) fn resolve<'a>(&'a self, held: &'a Held) -> &'a Tuple {
        match held {
            Held::Owned(t) => t,
            Held::Row(r) => self.table_row(*r),
            Held::Pair(l, r, joined) => joined.get_or_init(|| {
                let row = RowRef::pair(self.table_row(*l), self.table_row(*r));
                let mut t = Tuple::new(vec![Datum::Null; row.arity()]);
                row.copy_into(t.values_mut());
                t
            }),
        }
    }

    /// The row `held` stands for, read in place (a pair stays two rows).
    fn row_of<'a>(&'a self, held: &'a Held) -> RowRef<'a> {
        match held {
            Held::Pair(l, r, _) => RowRef::pair(self.table_row(*l), self.table_row(*r)),
            other => RowRef::one(self.resolve(other)),
        }
    }

    /// The simulated width of the row `held` stands for: a table row's as
    /// its table stored it, a pair's its concatenation's (one header).
    fn simulated_width(&self, held: &Held) -> usize {
        let width = |r: &TableRow| self.tables[r.table as usize].tuple_width(r.id);
        match held {
            Held::Owned(t) => t.simulated_width(),
            Held::Row(r) => width(r),
            Held::Pair(l, r, _) => width(l) + width(r) - 16,
        }
    }

    /// Store an owned tuple into `region`, simulating the memory write of
    /// its payload. Returns the slot handle.
    pub fn store(&mut self, region: u32, tuple: Tuple, machine: &mut Machine) -> TupleSlot {
        self.store_held(region, Held::Owned(tuple), machine)
    }

    /// Store a reference to row `id` of registered table `table`: the
    /// simulated write is that of a copy, the host copies nothing.
    pub(crate) fn store_row(
        &mut self,
        region: u32,
        table: u32,
        id: RowId,
        machine: &mut Machine,
    ) -> TupleSlot {
        self.store_held(region, Held::Row(TableRow { table, id }), machine)
    }

    /// Store `held` into `region`, simulating the write of the row it
    /// stands for.
    pub(crate) fn store_held(
        &mut self,
        region: u32,
        held: Held,
        machine: &mut Machine,
    ) -> TupleSlot {
        let written = self.regions[region as usize].width(self.simulated_width(&held));
        let r = &mut self.regions[region as usize];
        let slot = r.next;
        if r.capacity == 0 {
            r.slots.push(Some(held));
            r.next += 1;
        } else {
            r.slots[slot as usize] = Some(held);
            r.next = (r.next + 1) % r.capacity;
        }
        machine.data_write(r.addr(slot), written);
        TupleSlot { region, slot }
    }

    /// Store a join's output row — the row in `left` followed by `right` —
    /// into `region`: as a pair of references when both are table rows,
    /// otherwise built in the slot's recycled tuple.
    pub(crate) fn store_join(
        &mut self,
        region: u32,
        left: TupleSlot,
        right: &Held,
        machine: &mut Machine,
    ) -> TupleSlot {
        if let (Held::Row(l), Held::Row(r)) = (self.held(left), right) {
            let pair = Held::Pair(*l, *r, OnceCell::new());
            return self.store_held(region, pair, machine);
        }
        let arity = self.tuple(left).arity() + self.resolve(right).arity();
        let mut out = self.recycle(region, arity);
        RowRef::pair(self.tuple(left), self.resolve(right)).copy_into(out.values_mut());
        self.store(region, out, machine)
    }

    /// A tuple of `arity` values to build the next row of `region` in:
    /// the owned tuple the next store will overwrite, detached, when it has
    /// that arity (no allocation once a bounded region has cycled), a fresh
    /// one otherwise. Its values are stale; the caller rewrites all of them.
    pub(crate) fn recycle(&mut self, region: u32, arity: usize) -> Tuple {
        let r = &mut self.regions[region as usize];
        if r.capacity != 0 {
            let next = &mut r.slots[r.next as usize];
            if matches!(next, Some(Held::Owned(t)) if t.arity() == arity) {
                if let Some(Held::Owned(t)) = next.take() {
                    return t;
                }
            }
        }
        Tuple::new(vec![Datum::Null; arity])
    }

    /// What `slot` holds, to keep past the slot's lifetime: table rows are
    /// copied as references, an owned tuple cloned.
    pub(crate) fn hold(&self, slot: TupleSlot) -> Held {
        self.held(slot).clone()
    }

    /// Store a tuple into an *unbounded* `region` without simulating a
    /// memory write. Used to seed a region with rows that already exist in
    /// simulated memory (the subplan reuse cache's materialized
    /// intermediates): the producing query modeled the writes when it
    /// materialized them, so a replaying query pays only the reads.
    pub fn preload(&mut self, region: u32, tuple: Tuple) -> TupleSlot {
        let r = &mut self.regions[region as usize];
        assert_eq!(r.capacity, 0, "preload targets unbounded regions");
        let slot = r.next;
        r.slots.push(Some(Held::Owned(tuple)));
        r.next += 1;
        TupleSlot { region, slot }
    }

    fn held(&self, slot: TupleSlot) -> &Held {
        self.regions[slot.region as usize].slots[slot.slot as usize]
            .as_ref()
            .expect("read of recycled or unwritten tuple slot")
    }

    /// The tuple in `slot`. Panics when the slot was never written or has
    /// been recycled — which indicates an executor protocol bug (a parent
    /// holding a pointer longer than the child's slot capacity allows).
    pub fn tuple(&self, slot: TupleSlot) -> &Tuple {
        self.resolve(self.held(slot))
    }

    /// The row in `slot`, read in place: what operators evaluate against
    /// (a join's output of two table rows is never concatenated for it).
    pub(crate) fn row(&self, slot: TupleSlot) -> RowRef<'_> {
        self.row_of(self.held(slot))
    }

    /// Simulate the memory read of `slot`'s row.
    pub fn read(&self, slot: TupleSlot, machine: &mut Machine) {
        let r = &self.regions[slot.region as usize];
        let width = r.width(self.simulated_width(self.held(slot)));
        machine.data_read(r.addr(slot.slot), width);
    }

    /// Simulated address of a slot (for pointer-array modelling).
    pub fn slot_addr(&self, slot: TupleSlot) -> u64 {
        self.regions[slot.region as usize].addr(slot.slot)
    }

    /// Number of regions allocated (diagnostics).
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bufferdb_cachesim::MachineConfig;
    use bufferdb_storage::TableBuilder;
    use bufferdb_types::{DataType, Field, Schema};

    fn machine() -> Machine {
        Machine::new(MachineConfig::pentium4_like())
    }

    fn tup(v: i64) -> Tuple {
        Tuple::new(vec![Datum::Int(v)])
    }

    fn table(n: i64) -> Arc<Table> {
        let mut b = TableBuilder::new(
            "t",
            Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("s", DataType::Str),
            ]),
        );
        for i in 0..n {
            b.push(Tuple::new(vec![
                Datum::Int(i),
                Datum::str(format!("row {i}")),
            ]));
        }
        Arc::new(b.build(0x1000))
    }

    #[test]
    fn store_and_read_round_trip() {
        let mut a = TupleArena::new();
        let mut m = machine();
        let r = a.alloc_region(4, 64);
        let s = a.store(r, tup(42), &mut m);
        assert_eq!(a.tuple(s).get(0).as_int(), Some(42));
        a.read(s, &mut m);
        assert_eq!(a.row(s).get(0).and_then(Datum::as_int), Some(42));
    }

    #[test]
    fn bounded_region_recycles_round_robin() {
        let mut a = TupleArena::new();
        let mut m = machine();
        let r = a.alloc_region(3, 64);
        let s0 = a.store(r, tup(0), &mut m);
        let _s1 = a.store(r, tup(1), &mut m);
        let _s2 = a.store(r, tup(2), &mut m);
        let s3 = a.store(r, tup(3), &mut m);
        // Slot 0 was recycled for tuple 3.
        assert_eq!(s3.slot, s0.slot);
        assert_eq!(a.tuple(s3).get(0).as_int(), Some(3));
    }

    #[test]
    fn slots_alive_within_capacity_window() {
        let mut a = TupleArena::new();
        let mut m = machine();
        let r = a.alloc_region(100, 64);
        let slots: Vec<TupleSlot> = (0..100).map(|i| a.store(r, tup(i), &mut m)).collect();
        for (i, s) in slots.iter().enumerate() {
            assert_eq!(a.tuple(*s).get(0).as_int(), Some(i as i64));
        }
    }

    #[test]
    fn unbounded_region_grows() {
        let mut a = TupleArena::new();
        let mut m = machine();
        let r = a.alloc_unbounded_region(64);
        let slots: Vec<TupleSlot> = (0..10_000).map(|i| a.store(r, tup(i), &mut m)).collect();
        assert_eq!(a.tuple(slots[9999]).get(0).as_int(), Some(9999));
        assert_eq!(a.tuple(slots[0]).get(0).as_int(), Some(0));
    }

    #[test]
    fn addresses_are_disjoint_across_regions() {
        let mut a = TupleArena::new();
        let mut m = machine();
        let r1 = a.alloc_region(10, 64);
        let r2 = a.alloc_region(10, 128);
        let s1 = a.store(r1, tup(1), &mut m);
        let s2 = a.store(r2, tup(2), &mut m);
        assert_ne!(a.slot_addr(s1), a.slot_addr(s2));
        assert!(a.slot_addr(s2) >= a.slot_addr(s1) + 10 * 64);
    }

    #[test]
    fn sequential_stores_write_sequential_addresses() {
        let mut a = TupleArena::new();
        let mut m = machine();
        let r = a.alloc_region(8, 64);
        let s0 = a.store(r, tup(0), &mut m);
        let s1 = a.store(r, tup(1), &mut m);
        assert_eq!(a.slot_addr(s1), a.slot_addr(s0) + 64);
    }

    #[test]
    #[should_panic(expected = "recycled or unwritten")]
    fn reading_unwritten_slot_panics() {
        let a2 = {
            let mut a = TupleArena::new();
            a.alloc_region(4, 64);
            a
        };
        let _ = a2.tuple(TupleSlot { region: 0, slot: 2 });
    }

    #[test]
    fn sim_alloc_is_monotonic() {
        let mut a = TupleArena::new();
        let x = a.sim_alloc(100);
        let y = a.sim_alloc(1);
        assert!(y > x);
        assert_eq!(x % 64, 0);
    }

    #[test]
    fn tables_register_once() {
        let mut a = TupleArena::new();
        let (t, u) = (table(1), table(1));
        assert_eq!(a.register_table(&t), 0);
        assert_eq!(a.register_table(&u), 1);
        assert_eq!(a.register_table(&t), 0);
    }

    #[test]
    fn table_rows_charge_what_an_owned_copy_charges() {
        // The same rows stored by reference on one machine and as owned
        // copies on another: same slots, same simulated addresses and
        // widths, so identical counters after every store and read.
        let t = table(40);
        let (mut by_ref, mut by_copy) = (TupleArena::new(), TupleArena::new());
        let (mut m1, mut m2) = (machine(), machine());
        let id = by_ref.register_table(&t);
        let (r1, r2) = (by_ref.alloc_region(3, 32), by_copy.alloc_region(3, 32));
        for row in 0..40u32 {
            let s1 = by_ref.store_row(r1, id, row, &mut m1);
            let s2 = by_copy.store(r2, t.row(row).clone(), &mut m2);
            assert_eq!(by_ref.slot_addr(s1), by_copy.slot_addr(s2));
            by_ref.read(s1, &mut m1);
            by_copy.read(s2, &mut m2);
            assert_eq!(by_ref.tuple(s1), by_copy.tuple(s2));
            assert_eq!(m1.snapshot(), m2.snapshot(), "row {row}");
        }
        assert!(m1.snapshot().l1d_accesses > 0);
    }

    #[test]
    fn joined_table_rows_are_a_pair_that_charges_its_concatenation() {
        // A join of two table rows stored as a pair of references, against
        // the same join stored as an owned concatenation: same slots, same
        // simulated traffic; read in place as two sides, and concatenated
        // only when someone asks for the whole tuple.
        let t = table(6);
        let (mut by_ref, mut by_copy) = (TupleArena::new(), TupleArena::new());
        let (mut m1, mut m2) = (machine(), machine());
        let id = by_ref.register_table(&t);
        let (l1, l2) = (by_ref.alloc_region(3, 64), by_copy.alloc_region(3, 64));
        let (o1, o2) = (by_ref.alloc_region(3, 48), by_copy.alloc_region(3, 48));
        for row in 0..6u32 {
            let left = by_ref.store_row(l1, id, row, &mut m1);
            let right = Held::Row(TableRow {
                table: id,
                id: 5 - row,
            });
            let s1 = by_ref.store_join(o1, left, &right, &mut m1);
            let copy = by_copy.store(l2, t.row(row).clone(), &mut m2);
            let whole = Held::Owned(t.row(5 - row).clone());
            let s2 = by_copy.store_join(o2, copy, &whole, &mut m2);
            assert!(matches!(by_ref.held(s1), Held::Pair(..)));
            assert!(matches!(by_copy.held(s2), Held::Owned(_)));
            by_ref.read(s1, &mut m1);
            by_copy.read(s2, &mut m2);
            assert_eq!(m1.snapshot(), m2.snapshot(), "row {row}");
            assert_eq!(by_ref.row(s1).get(3), t.row(5 - row).get(1).into());
            assert_eq!(by_ref.tuple(s1), by_copy.tuple(s2));
        }
    }

    #[test]
    fn slots_recycle_across_kinds() {
        let t = table(8);
        let mut a = TupleArena::new();
        let mut m = machine();
        let id = a.register_table(&t);
        let r = a.alloc_region(2, 64);
        // A table row, then owned rows, cycling through the same two slots.
        let s0 = a.store_row(r, id, 5, &mut m);
        assert_eq!(a.tuple(s0), t.row(5));
        // The next slot is empty: nothing to reuse yet.
        let fresh = a.recycle(r, 2);
        let s1 = a.store(r, fresh, &mut m);
        assert_eq!(a.tuple(s1).get(1), &Datum::Null);
        // Slot 0 names a table row, which cannot be rewritten: fresh tuple.
        let mut over_row = a.recycle(r, 2);
        over_row.values_mut()[0] = Datum::Int(-1);
        let s2 = a.store(r, over_row, &mut m);
        assert_eq!(s2.slot, s0.slot);
        assert_eq!(a.tuple(s2).get(0).as_int(), Some(-1));
        // Slot 1 holds an owned 2-tuple: recycled in place.
        let reused = a.recycle(r, 2);
        let s3 = a.store(r, reused, &mut m);
        assert_eq!(s3.slot, s1.slot);
        // An owned slot of another arity is not reused, and a table row
        // overwrites an owned tuple.
        assert_eq!(a.recycle(r, 3).arity(), 3);
        let s4 = a.store_row(r, id, 7, &mut m);
        assert_eq!(a.tuple(s4), t.row(7));
        assert!(matches!(a.hold(s4), Held::Row(TableRow { id: 7, .. })));
        assert!(matches!(a.hold(s3), Held::Owned(_)));
    }
}
