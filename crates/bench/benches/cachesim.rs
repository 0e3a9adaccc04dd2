//! Microbenchmarks of the machine simulator itself: these bound how much
//! wall-clock each simulated event costs, which determines feasible scale
//! factors for the paper reproductions.

use bufferdb_bench::microbench::bench;
use bufferdb_cachesim::{
    BranchPredictor, Cache, CacheConfig, CodeLayout, CodeRegion, GsharePredictor, Machine,
    MachineConfig, SegmentSpec,
};
use bufferdb_core::footprint::{FootprintModel, OpKind};
use bufferdb_core::AggFunc;
use std::hint::black_box;

fn bench_cache_access() {
    let mut cache = Cache::new(CacheConfig {
        capacity: 16 * 1024,
        line_size: 64,
        associativity: 8,
    });
    let mut addr = 0u64;
    bench("cache/access_streaming", || {
        addr = addr.wrapping_add(64);
        black_box(cache.access(addr))
    });
    let mut hot = Cache::new(CacheConfig {
        capacity: 16 * 1024,
        line_size: 64,
        associativity: 8,
    });
    hot.access(0x1000);
    bench("cache/access_hit", || black_box(hot.access(0x1000)));
}

fn bench_exec_region() {
    let mut layout = CodeLayout::new();
    let seg = layout.define(&SegmentSpec::new("bench_scan", 13_200));
    let mut region = CodeRegion::new(vec![seg]);
    let mut machine = Machine::new(MachineConfig::pentium4_like());
    bench("machine/exec_region_13k", || {
        machine.exec_region(black_box(&mut region))
    });
}

/// `exec_region` under the patterns that decide how much of it the walk
/// memo serves. The first three are the ones the benchmark's traced run
/// probes as `cachesim.exec_region_{alt,rep,heat}_ns`; all run over the
/// paper's Query 1 operators (scan with predicate, three-function aggregate,
/// which cannot both stay resident in the modeled 16 KB L1i; a sort for the
/// three-region cycle) and report the cost of one call and the share of
/// calls credited from a recorded outcome rather than walked.
fn bench_exec_region_patterns() {
    let regions = || {
        let mut fm = FootprintModel::new();
        let funcs = vec![AggFunc::Sum, AggFunc::Avg, AggFunc::CountStar];
        [
            OpKind::SeqScan { with_pred: true },
            OpKind::Aggregate { funcs },
            OpKind::Sort,
        ]
        .map(|op| fm.region_for(&op))
    };
    // `next(i)` picks the region call `i` executes; where it returns none,
    // `jump` is executed instead. Every `quantum` calls the owner tag passes
    // to the other of two queries (0: the machine stays as it is). With
    // `scan`, each call comes with the next 256 bytes of a table.
    let run = |name: &str,
               mut machine: Machine,
               next: &dyn Fn(usize) -> Option<usize>,
               quantum: usize,
               scan: bool| {
        let mut cycle = regions();
        let mut jump = FootprintModel::new().region_for(&OpKind::Filter);
        let mut i = 0;
        bench(name, || {
            i += 1;
            if quantum != 0 && i % quantum == 0 {
                machine.set_query_tag(1 + (i / quantum % 2) as u32);
            }
            if scan {
                machine.data_read(0x1000_0000 + 256 * i as u64, 256);
            }
            machine.exec_region(next(i).map_or(&mut jump, |r| &mut cycle[r]))
        });
        let stats = machine.walk_stats();
        let share = |n: u64| 100.0 * n as f64 / stats.walks as f64;
        println!(
            "{:<34} {:>11.1}% of {} calls credited ({:.1}% with misses), {} walked \
             across a tag change, {} syncs",
            "",
            share(stats.credited),
            stats.walks,
            share(stats.credited_missing),
            stats.epoch_refused,
            stats.syncs
        );
        println!(
            "{:<34} {:>11.1}% of calls left L2 alone, {:.1}% probed it again, \
             {:.5} L2 syncs per call",
            "",
            share(stats.l2_credited),
            share(stats.l2_refused),
            stats.l2_syncs as f64 / stats.walks as f64
        );
    };
    let pattern = |name: &str, machine: Machine, next: &dyn Fn(usize) -> Option<usize>| {
        run(name, machine, next, 0, false)
    };
    let p4 = || Machine::new(MachineConfig::pentium4_like());

    // PCPCPC: every call misses; the memo credits all but the first few.
    let alternate = |i: usize| Some(i % 2);
    pattern("machine/exec_region_alt", p4(), &alternate);
    // What `pull_thrash` does and the case above does not: a table scan
    // runs alongside, its fills coming upon L2 ways whose recency credited
    // refills have left for later.
    run("machine/exec_region_alt_scan", p4(), &alternate, 0, true);
    // The same with attribution on: the ledger is credited its cells and
    // evictor records, one owner tag is one epoch ...
    let mut heated = p4();
    heated.enable_heatmap();
    pattern("machine/exec_region_heat", heated, &alternate);
    let mut tagged = p4();
    tagged.set_query_tag(1);
    pattern("machine/exec_region_alt_tagged", tagged, &alternate);
    // ... and two queries taking turns walk each region once per turn.
    let quanta = "machine/exec_region_alt_tag_quanta";
    run(quanta, p4(), &alternate, 256, false);
    // PCPCPC on a 64-entry bimodal table: most branch sites share a
    // counter with another site of their region, and mixed patterns keep
    // counters below 2, so the sparse update has most to do.
    let mut small_table = MachineConfig::pentium4_like();
    small_table.branch.table_entries = 64;
    let bimodal64 = "machine/exec_region_alt_bimodal64";
    pattern(bimodal64, Machine::new(small_table), &alternate);
    // CCCC…PPPP…: batches of 100, the buffered pattern.
    pattern("machine/exec_region_rep", p4(), &|i| Some(i / 100 % 2));
    // A three-operator pipeline that something else interrupts every 64
    // calls: the walks after each break are real and pay for a sync.
    pattern("machine/exec_region_cycle3_break", p4(), &|i| {
        (i % 64 != 0).then_some(i % 3)
    });
}

fn bench_predictor() {
    let mut p = GsharePredictor::new(512, 12);
    let mut i = 0u64;
    bench("branch/gshare_predict_update", || {
        i += 1;
        black_box(p.predict_and_update(0x400 + (i % 64) * 16, !i.is_multiple_of(3)))
    });
}

fn bench_data_access() {
    let mut machine = Machine::new(MachineConfig::pentium4_like());
    let mut addr = 0x1000_0000u64;
    bench("machine/data_read_sequential", || {
        addr += 64;
        machine.data_read(black_box(addr), 64)
    });
}

fn main() {
    bench_cache_access();
    bench_exec_region();
    bench_exec_region_patterns();
    bench_predictor();
    bench_data_access();
}
