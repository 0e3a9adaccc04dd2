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

/// The three `exec_region` patterns the benchmark's traced run probes as
/// `cachesim.exec_region_{alt,rep,heat}_ns`, over the same two regions: the
/// paper's Query 1 pair (scan with predicate, three-function aggregate),
/// which cannot both stay resident in the modeled 16 KB L1i. All report the
/// cost of one call.
fn bench_exec_region_patterns() {
    let regions = || {
        let mut fm = FootprintModel::new();
        let scan = fm.region_for(&OpKind::SeqScan { with_pred: true });
        let agg = fm.region_for(&OpKind::Aggregate {
            funcs: vec![AggFunc::Sum, AggFunc::Avg, AggFunc::CountStar],
        });
        (scan, agg)
    };
    // PCPCPC: every call walks the miss path.
    let alternating = |name: &str, mut machine: Machine| {
        let (mut a, mut b) = regions();
        let mut flip = false;
        bench(name, || {
            flip = !flip;
            machine.exec_region(if flip { &mut a } else { &mut b })
        });
    };
    alternating(
        "machine/exec_region_alt",
        Machine::new(MachineConfig::pentium4_like()),
    );
    let mut heated = Machine::new(MachineConfig::pentium4_like());
    heated.enable_heatmap();
    alternating("machine/exec_region_heat", heated);

    // CCCC…PPPP…: batches of 100, the buffered pattern.
    let mut machine = Machine::new(MachineConfig::pentium4_like());
    let (mut a, mut b) = regions();
    let mut i = 0;
    bench("machine/exec_region_rep", || {
        i = (i + 1) % 200;
        machine.exec_region(if i < 100 { &mut a } else { &mut b })
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
