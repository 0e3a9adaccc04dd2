//! Tiny self-contained timing harness for the `[[bench]]` targets.
//!
//! The benches were originally Criterion-based; the harness below keeps the
//! same shape (warmup, auto-calibrated iteration count, ns/iter report) with
//! nothing but `std::time::Instant`, so the workspace builds without any
//! external crates.

use std::time::Instant;

/// Minimum measured wall-clock per batch before we trust the numbers.
const TARGET_MS: u128 = 20;

/// Iteration-count ceiling so pathological fast closures terminate.
const MAX_ITERS: u64 = 1 << 26;

/// Timed batches per benchmark; the report is their median, min and max.
const BATCHES: usize = 15;

/// Run `f` repeatedly and print a `name  median  [min … max] ns/iter` line.
///
/// Doubles the iteration count until one batch takes at least `TARGET_MS`
/// milliseconds, then times 15 batches of that size and reports
/// the median per-iteration cost with the spread — one preempted batch
/// moves the max, not the headline. The closure's result is passed through
/// [`std::hint::black_box`] so the optimizer cannot delete the work.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    let mut batch = |iters: u64| {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        start.elapsed()
    };
    batch(8);
    let mut iters: u64 = 8;
    while batch(iters).as_millis() < TARGET_MS && iters < MAX_ITERS {
        iters = iters.saturating_mul(2);
    }
    let mut ns: Vec<f64> = (0..BATCHES)
        .map(|_| batch(iters).as_nanos() as f64 / iters as f64)
        .collect();
    ns.sort_by(f64::total_cmp);
    println!(
        "{name:<34} {:>12.1} ns/iter   [{:.1} … {:.1}]   ({BATCHES} x {iters} iters)",
        ns[BATCHES / 2],
        ns[0],
        ns[BATCHES - 1],
    );
}
