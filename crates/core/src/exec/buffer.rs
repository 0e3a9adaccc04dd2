//! The paper's buffer operator (§5).
//!
//! A light-weight iterator that batches the intermediate results of the
//! operator(s) below it. `GetNext` follows the paper's Figure 6 pseudocode:
//!
//! ```text
//! GetNext()
//! 1 if empty and !end_of_tuples then
//! 2    while !full
//! 3       do child.GetNext()
//! 4       if end_of_tuples then break
//! 5       else store the pointer to the tuple
//! 6 return the next pointed tuple
//! ```
//!
//! Crucially it stores **pointers** (arena slots), never copies: "the
//! overhead of copying would reduce the benefit of buffering instructions".
//! The child is told (batch hint) to keep `size` output tuples alive, the
//! Rust rendering of PostgreSQL's delegate-deallocation-to-ancestor rule.
//! [`BufferOp::copying`] builds the variant §5 argues against — tuple copies
//! in the buffer's own region — so the ablation can price that sentence;
//! plans only ever instantiate the pointer variant.

use crate::arena::TupleSlot;
use crate::context::ExecContext;
use crate::exec::{schema_slot_bytes, Operator};
use crate::fault;
use crate::footprint::{FootprintModel, OpKind};
use crate::obs::hist;
use crate::obs::trace::TraceEvent;
use crate::obs::ObsId;
use bufferdb_cachesim::CodeRegion;
use bufferdb_types::{Datum, DbError, Result, SchemaRef};

/// Instruction cost of storing one pointer into the array.
const STORE_INSTR: u64 = 12;
/// Instruction cost of returning one pointed tuple.
const RETURN_INSTR: u64 = 10;
/// Instruction cost of copying one tuple byte (field-by-field datum copy).
const COPY_INSTR_PER_BYTE: u64 = 1;
/// Fixed instruction cost of one tuple copy.
const COPY_INSTR_FIXED: u64 = 16;

/// What the buffer's array holds.
enum Store {
    /// Pointers to tuples that stay in the child's memory space; the array
    /// itself lives at the simulated address `array_base`.
    Pointers { array_base: u64 },
    /// Copies of the child's tuples in the arena `region` this buffer owns.
    Copies { region: u32 },
}

/// The buffer operator.
pub struct BufferOp {
    child: Box<dyn Operator>,
    size: usize,
    schema: SchemaRef,
    code: CodeRegion,
    slots: Vec<TupleSlot>,
    pos: usize,
    end_of_tuples: bool,
    store: Store,
    /// Extra live-slot demand announced by a parent (a stacked buffer):
    /// forwarded to the child when we return the child's slots directly,
    /// added to our own region when we return copies.
    parent_hint: usize,
    /// Profiler identity for fill/occupancy/drain gauges (`None` = unprofiled).
    obs_id: Option<ObsId>,
}

impl BufferOp {
    /// Wrap `child` with a buffer of `size` tuple pointers.
    pub fn new(fm: &mut FootprintModel, child: Box<dyn Operator>, size: usize) -> Result<Self> {
        Self::with_store(fm, child, size, Store::Pointers { array_base: 0 })
    }

    /// Wrap `child` with a buffer of `size` tuple **copies** (ablation only).
    pub fn copying(fm: &mut FootprintModel, child: Box<dyn Operator>, size: usize) -> Result<Self> {
        Self::with_store(fm, child, size, Store::Copies { region: u32::MAX })
    }

    fn with_store(
        fm: &mut FootprintModel,
        child: Box<dyn Operator>,
        size: usize,
        store: Store,
    ) -> Result<Self> {
        if size == 0 {
            return Err(DbError::InvalidPlan("buffer size must be > 0".into()));
        }
        let schema = child.schema();
        let code = fm.region_for(&OpKind::Buffer);
        Ok(BufferOp {
            child,
            size,
            schema,
            code,
            slots: Vec::with_capacity(size),
            pos: 0,
            end_of_tuples: false,
            store,
            parent_hint: 0,
            obs_id: None,
        })
    }

    /// Configured array capacity.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Report buffer gauges (fills, occupancy, drains) under `id` when the
    /// context carries a profiler. Set by the executor builder.
    pub fn set_obs(&mut self, id: Option<ObsId>) {
        self.obs_id = id;
    }
}

impl Operator for BufferOp {
    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<()> {
        // Someone must keep `size` output tuples alive while the array
        // refers to them (+1 for the tuple being produced), plus whatever
        // window a parent holding *our* outputs needs: the child when we
        // hold pointers (our outputs are its slots), our own region when we
        // hold copies.
        let window = self.size + self.parent_hint + 1;
        match &mut self.store {
            Store::Pointers { array_base } => {
                self.child.set_batch_hint(window);
                self.child.open(ctx)?;
                *array_base = ctx.arena.sim_alloc(self.size as u64 * 8);
            }
            Store::Copies { region } => {
                self.child.open(ctx)?;
                *region = ctx
                    .arena
                    .alloc_region(window as u32, schema_slot_bytes(&self.schema));
            }
        }
        self.slots.clear();
        self.pos = 0;
        self.end_of_tuples = false;
        Ok(())
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<TupleSlot>> {
        if self.pos >= self.slots.len() && !self.end_of_tuples {
            // Refill passes are the buffer's granule boundary: cancellation
            // and fault injection both land here, never on the pointer-return
            // fast path. An error below leaves `slots` partially filled;
            // `rescan` clears it, so the operator stays reusable.
            ctx.check_cancel()?;
            ctx.fault(fault::BUFFER_FILL)?;
            // Flight-recorder span bracket: snapshot time and L1i misses
            // before the fill so the event carries this granule's cost.
            // Both reads are free when tracing is off.
            let fill_start_ns = ctx.trace_now();
            let l1i_before = if ctx.trace_enabled() {
                ctx.machine.snapshot().l1i_misses
            } else {
                0
            };
            // The full (still tiny, 0.7 K) buffer code runs on the refill
            // path; the return-pointed-tuple fast path below is a handful of
            // instructions — this is what makes the operator "light-weight"
            // (Table 4: < 1 % instruction-count difference).
            ctx.machine.exec_region(&mut self.code);
            // Refill: repeatedly call the child until the array is full or
            // end-of-tuples — the paper's PCCCCC phase.
            self.slots.clear();
            self.pos = 0;
            while self.slots.len() < self.size {
                match self.child.next(ctx)? {
                    Some(slot) => self.slots.push(match self.store {
                        Store::Pointers { array_base } => {
                            ctx.machine
                                .data_write(array_base + self.slots.len() as u64 * 8, 8);
                            ctx.machine.add_instructions(STORE_INSTR);
                            slot
                        }
                        // The copy: read the child's tuple, write our own.
                        Store::Copies { region } => {
                            ctx.arena.read(slot, &mut ctx.machine);
                            let t = ctx.arena.tuple(slot).clone();
                            ctx.machine.add_instructions(
                                t.simulated_width() as u64 * COPY_INSTR_PER_BYTE + COPY_INSTR_FIXED,
                            );
                            ctx.arena.store(region, t, &mut ctx.machine)
                        }
                    }),
                    None => {
                        self.end_of_tuples = true;
                        break;
                    }
                }
            }
            if !self.slots.is_empty() {
                ctx.obs_buffer_fill(self.obs_id, self.slots.len() as u64);
                if ctx.trace_enabled() {
                    let rows = self.slots.len() as u64;
                    let l1i = ctx.machine.snapshot().l1i_misses - l1i_before;
                    ctx.trace(TraceEvent::FillEnd {
                        op: self.obs_id.map_or(u32::MAX, |id| id.0 as u32),
                        rows,
                        l1i_misses: l1i,
                        start_ns: fill_start_ns,
                    });
                    ctx.trace_metric(hist::FILL_GRANULE_ROWS, rows);
                }
            }
        }
        if self.pos < self.slots.len() {
            let slot = self.slots[self.pos];
            match self.store {
                Store::Pointers { array_base } => {
                    ctx.machine.data_read(array_base + self.pos as u64 * 8, 8);
                    ctx.machine.add_instructions(RETURN_INSTR);
                }
                Store::Copies { .. } => {
                    ctx.arena.read(slot, &mut ctx.machine);
                }
            }
            self.pos += 1;
            if self.pos == self.slots.len() {
                ctx.obs_buffer_drain(self.obs_id);
                if ctx.trace_enabled() {
                    let occupancy = self.slots.len() as u64;
                    ctx.trace(TraceEvent::DrainEnd {
                        op: self.obs_id.map_or(u32::MAX, |id| id.0 as u32),
                        occupancy,
                    });
                    ctx.trace_metric(hist::BUFFER_OCCUPANCY, occupancy);
                }
            }
            Ok(Some(slot))
        } else {
            Ok(None)
        }
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.slots.clear();
        self.child.close(ctx)
    }

    fn rescan(&mut self, ctx: &mut ExecContext, param: Option<&Datum>) -> Result<()> {
        self.child.rescan(ctx, param)?;
        self.slots.clear();
        self.pos = 0;
        self.end_of_tuples = false;
        Ok(())
    }

    fn set_batch_hint(&mut self, n: usize) {
        // Applied at `open`, where the store decides who keeps the window.
        self.parent_hint = self.parent_hint.max(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::seqscan::SeqScanOp;
    use crate::expr::Expr;
    use bufferdb_cachesim::MachineConfig;
    use bufferdb_storage::{Catalog, TableBuilder};
    use bufferdb_types::{DataType, Field, Schema, Tuple};

    fn setup(n: i64) -> (Catalog, FootprintModel, ExecContext) {
        let c = Catalog::new();
        let mut b = TableBuilder::new("t", Schema::new(vec![Field::new("k", DataType::Int)]));
        for i in 0..n {
            b.push(Tuple::new(vec![Datum::Int(i)]));
        }
        c.add_table(b);
        (
            c,
            FootprintModel::new(),
            ExecContext::new(MachineConfig::pentium4_like()),
        )
    }

    fn scan(c: &Catalog, fm: &mut FootprintModel, pred: Option<Expr>) -> Box<dyn Operator> {
        Box::new(SeqScanOp::new(c, fm, "t", pred, None).unwrap())
    }

    type Ctor = fn(&mut FootprintModel, Box<dyn Operator>, usize) -> Result<BufferOp>;
    const BOTH_STORES: [(&str, Ctor); 2] =
        [("pointers", BufferOp::new), ("copies", BufferOp::copying)];

    #[test]
    fn buffer_is_transparent() {
        for (store, ctor) in BOTH_STORES {
            let (c, mut fm, mut ctx) = setup(257);
            let child = scan(&c, &mut fm, None);
            let mut op = ctor(&mut fm, child, 100).unwrap();
            op.open(&mut ctx).unwrap();
            let mut got = Vec::new();
            while let Some(s) = op.next(&mut ctx).unwrap() {
                got.push(ctx.arena.tuple(s).get(0).as_int().unwrap());
            }
            assert_eq!(got, (0..257).collect::<Vec<_>>(), "{store}");
            assert!(
                op.next(&mut ctx).unwrap().is_none(),
                "{store}: stays exhausted"
            );
            op.close(&mut ctx).unwrap();
        }
    }

    #[test]
    fn copying_costs_more_than_pointers() {
        // Same workload, pointer store vs copy store: the copy variant must
        // execute more instructions and touch more data (§5).
        let [ptr, copy] = BOTH_STORES.map(|(_, ctor)| {
            let (c, mut fm, mut ctx) = setup(2000);
            let child = scan(&c, &mut fm, None);
            let mut op = ctor(&mut fm, child, 100).unwrap();
            op.open(&mut ctx).unwrap();
            while op.next(&mut ctx).unwrap().is_some() {}
            ctx.machine.snapshot()
        });
        assert!(copy.instructions > ptr.instructions);
        assert!(copy.l1d_accesses > ptr.l1d_accesses);
    }

    #[test]
    fn buffer_size_one_still_correct() {
        let (c, mut fm, mut ctx) = setup(5);
        let child = scan(&c, &mut fm, None);
        let mut op = BufferOp::new(&mut fm, child, 1).unwrap();
        op.open(&mut ctx).unwrap();
        let mut n = 0;
        while op.next(&mut ctx).unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 5);
    }

    #[test]
    fn zero_size_rejected() {
        let (c, mut fm, _) = setup(1);
        let child = scan(&c, &mut fm, None);
        assert!(BufferOp::new(&mut fm, child, 0).is_err());
    }

    #[test]
    fn empty_child_and_rescan() {
        for (store, ctor) in BOTH_STORES {
            let (c, mut fm, mut ctx) = setup(0);
            let child = scan(&c, &mut fm, None);
            let mut op = ctor(&mut fm, child, 100).unwrap();
            op.open(&mut ctx).unwrap();
            assert!(op.next(&mut ctx).unwrap().is_none(), "{store}");
            op.rescan(&mut ctx, None).unwrap();
            assert!(
                op.next(&mut ctx).unwrap().is_none(),
                "{store}: after rescan"
            );
        }
    }

    #[test]
    fn rescan_resets_buffer_state() {
        for (store, ctor) in BOTH_STORES {
            let (c, mut fm, mut ctx) = setup(10);
            let child = scan(&c, &mut fm, None);
            let mut op = ctor(&mut fm, child, 4).unwrap();
            op.open(&mut ctx).unwrap();
            for _ in 0..10 {
                assert!(op.next(&mut ctx).unwrap().is_some(), "{store}");
            }
            assert!(op.next(&mut ctx).unwrap().is_none(), "{store}");
            op.rescan(&mut ctx, None).unwrap();
            let mut n = 0;
            while op.next(&mut ctx).unwrap().is_some() {
                n += 1;
            }
            assert_eq!(n, 10, "{store}");
        }
    }

    #[test]
    fn child_called_in_batches() {
        // With size 100 over 250 rows, the child should be drained in runs:
        // verify by checking the buffer still returns tuples with correct
        // values even after the child's slot window cycled.
        let (c, mut fm, mut ctx) = setup(250);
        let child = scan(&c, &mut fm, None);
        let mut op = BufferOp::new(&mut fm, child, 100).unwrap();
        op.open(&mut ctx).unwrap();
        let mut all = Vec::new();
        while let Some(s) = op.next(&mut ctx).unwrap() {
            all.push(ctx.arena.tuple(s).get(0).as_int().unwrap());
        }
        assert_eq!(all.len(), 250);
        assert_eq!(all[199], 199);
    }

    #[test]
    fn filtered_child_with_no_survivors() {
        let (c, mut fm, mut ctx) = setup(100);
        let pred = Expr::col(0).lt(Expr::lit(0)); // nothing passes
        let child = scan(&c, &mut fm, Some(pred));
        let mut op = BufferOp::new(&mut fm, child, 10).unwrap();
        op.open(&mut ctx).unwrap();
        assert!(op.next(&mut ctx).unwrap().is_none());
    }

    #[test]
    fn buffer_instruction_overhead_is_small() {
        // Table 4's observation: buffered and original plans execute almost
        // the same number of instructions (< 1% difference). The buffer adds
        // ~20 instructions per tuple vs thousands for real operators.
        let (c, mut fm, mut ctx) = setup(1000);
        let mut plain = scan(&c, &mut fm, None);
        plain.open(&mut ctx).unwrap();
        let s0 = ctx.machine.snapshot();
        while plain.next(&mut ctx).unwrap().is_some() {}
        let plain_instr = (ctx.machine.snapshot() - s0).instructions;

        let (c2, mut fm2, mut ctx2) = setup(1000);
        let child2 = scan(&c2, &mut fm2, None);
        let mut buffered = BufferOp::new(&mut fm2, child2, 100).unwrap();
        buffered.open(&mut ctx2).unwrap();
        let s1 = ctx2.machine.snapshot();
        while buffered.next(&mut ctx2).unwrap().is_some() {}
        let buf_instr = (ctx2.machine.snapshot() - s1).instructions;

        let overhead = buf_instr as f64 / plain_instr as f64 - 1.0;
        assert!(overhead < 0.02, "buffer instruction overhead {overhead:.3}");
    }
}
