//! The paper's analytic shapes as properties of the simulator (ROADMAP
//! item 4b): what buffering saves is the thrashing between operators whose
//! code does not fit L1i together, paid once per batch instead of once per
//! tuple — and nothing where the code fits.

use bufferdb_cachesim::{CodeLayout, CodeRegion, Machine, MachineConfig, SegmentSpec};

const TUPLES: usize = 4096;
const BATCHES: [usize; 3] = [8, 64, 512];

fn presets() -> [MachineConfig; 3] {
    [
        MachineConfig::pentium4_like(),
        MachineConfig::ultrasparc_like(),
        MachineConfig::athlon_like(),
    ]
}

/// A child and a parent operator of `bytes` of code each.
fn pair(bytes: usize) -> [CodeRegion; 2] {
    let mut layout = CodeLayout::new();
    ["shape_child", "shape_parent"]
        .map(|name| CodeRegion::new(vec![layout.define(&SegmentSpec::new(name, bytes))]))
}

/// Steady-state L1i misses of [`TUPLES`] tuples going through the child and
/// then the parent, `batch` at a time: `CC…C PP…P`, the buffered stream
/// (`CPCP…` at 1).
fn l1i_misses(cfg: &MachineConfig, bytes: usize, batch: usize) -> u64 {
    let mut machine = Machine::new(cfg.clone());
    let mut operators = pair(bytes);
    let mut run = |machine: &mut Machine, batches: usize| {
        for _ in 0..batches {
            for operator in &mut operators {
                for _ in 0..batch {
                    machine.exec_region(operator);
                }
            }
        }
    };
    run(&mut machine, 2);
    let warm = machine.snapshot();
    run(&mut machine, TUPLES / batch);
    (machine.snapshot() - warm).l1i_misses
}

/// L1i misses of one more walk of an operator that ran last, child plus
/// parent: lines the operator evicts from under itself. None if it fits a
/// cache that spreads it evenly.
fn self_evictions(cfg: &MachineConfig, bytes: usize) -> u64 {
    let once_more = |mut operator: CodeRegion| {
        let mut machine = Machine::new(cfg.clone());
        machine.exec_region(&mut operator);
        machine.exec_region(&mut operator);
        let warm = machine.snapshot();
        machine.exec_region(&mut operator);
        (machine.snapshot() - warm).l1i_misses
    };
    pair(bytes).into_iter().map(once_more).sum()
}

/// A batch of B pays for one switch each way — exactly what one unbuffered
/// tuple pays, the same lines — plus what B − 1 repeats lose by themselves.
#[test]
fn buffered_misses_per_tuple_scale_as_one_over_the_batch() {
    for cfg in presets() {
        // Four fifths of L1i each: the two never fit together.
        let bytes = cfg.l1i.capacity * 4 / 5;
        let lines = 2 * (bytes / cfg.l1i.line_size) as u64;
        let unbuffered = l1i_misses(&cfg, bytes, 1);
        assert!(
            unbuffered * 10 > TUPLES as u64 * lines * 9,
            "the pair must thrash: {unbuffered} misses"
        );
        let repeats = TUPLES as u64 * self_evictions(&cfg, bytes);
        for batch in BATCHES.map(|b| b as u64) {
            let buffered = l1i_misses(&cfg, bytes, batch as usize);
            assert_eq!(
                batch * buffered,
                unbuffered + (batch - 1) * repeats,
                "batch {batch}"
            );
        }
        // On the paper's machine either operator fits alone: 1/B and
        // nothing else. (The narrower L1i of the other two, under a layout
        // that scatters functions over pages, has an operator this size
        // evicting its own lines.)
        if cfg.l1i == MachineConfig::pentium4_like().l1i {
            assert_eq!(repeats, 0);
        }
    }
}

#[test]
fn a_pair_that_fits_l1i_gains_nothing_from_batching() {
    // The paper's Query 2 on its machine: four fifths of L1i, together.
    let p4 = MachineConfig::pentium4_like();
    let mut cases = vec![(p4.l1i.capacity * 2 / 5, p4)];
    // Two fifths together: room to spare whatever the associativity.
    cases.extend(presets().map(|cfg| (cfg.l1i.capacity / 5, cfg)));
    for (bytes, cfg) in cases {
        // Nothing misses once warm, so there is nothing for a buffer to save.
        for batch in [1, 8, 64, 512] {
            assert_eq!(l1i_misses(&cfg, bytes, batch), 0, "batch {batch}");
        }
    }
}
