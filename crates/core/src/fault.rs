//! Failpoint-style fault injection for the executor (no external deps).
//!
//! A [`FaultRegistry`] is an `Arc`-shared table of named *sites*. Operators
//! call [`crate::context::ExecContext::fault`] with their site name at the
//! natural failure boundary of their data-transfer loop; when a site is
//! armed, the registry's trigger decides per hit whether to fire, and the
//! configured [`FaultMode`] decides *how*: a typed
//! [`DbError::FaultInjected`] that unwinds like any real executor error, or
//! a controlled panic that exercises the worker-containment paths
//! (`catch_unwind` in the exchange lanes and the drive spine).
//!
//! The registry travels inside [`crate::context::ExecContext`] and is cloned
//! into every exchange worker context, so hit counts are global across
//! the worker pool — `at_row(n)` means "the n-th time *any* thread passes
//! this site", which makes chaos runs deterministic at any worker count when
//! the trigger fires during a serial phase, and pool-wide (first claimant
//! wins) during parallel phases.
//!
//! The `repro` binary arms sites from the `BUFFERDB_FAULT` environment knob:
//!
//! ```text
//! BUFFERDB_FAULT="seqscan.next:error:at_row(100),buffer.fill:panic:every(3)"
//! ```

use bufferdb_types::{DbError, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Injection site: each sequential-scan candidate row.
pub const SEQSCAN_NEXT: &str = "seqscan.next";
/// Injection site: each index-scan row produced.
pub const INDEXSCAN_NEXT: &str = "indexscan.next";
/// Injection site: each morsel claimed off the exchange queue.
pub const EXCHANGE_MORSEL: &str = "exchange.morsel";
/// Injection site: each row inserted during the hash-join build.
pub const HASHJOIN_BUILD: &str = "hashjoin.build";
/// Injection site: each buffer-operator refill pass.
pub const BUFFER_FILL: &str = "buffer.fill";

/// Every named site, for sweeps.
pub const ALL_SITES: [&str; 5] = [
    SEQSCAN_NEXT,
    INDEXSCAN_NEXT,
    EXCHANGE_MORSEL,
    HASHJOIN_BUILD,
    BUFFER_FILL,
];

/// What an armed site does when its trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Return [`DbError::FaultInjected`] from the faulting call.
    Error,
    /// Panic (contained by the worker-fault machinery under test).
    Panic,
}

/// When an armed site fires, as a function of its global hit count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire on exactly the n-th hit (1-based; 0 behaves as 1).
    AtRow(u64),
    /// Fire on every n-th hit (n == 0 behaves as 1: every hit).
    Every(u64),
    /// Fire on each hit independently with probability `p`, derived
    /// deterministically from `seed` and the hit index.
    Prob {
        /// Stream seed: same seed + hit sequence → same decisions.
        seed: u64,
        /// Firing probability in [0, 1].
        p: f64,
    },
}

impl Trigger {
    /// Fire exactly on the n-th hit.
    pub fn at_row(n: u64) -> Self {
        Trigger::AtRow(n)
    }

    /// Fire on every n-th hit.
    pub fn every(n: u64) -> Self {
        Trigger::Every(n)
    }

    /// Fire per hit with probability `p`, deterministically from `seed`.
    pub fn prob(seed: u64, p: f64) -> Self {
        Trigger::Prob { seed, p }
    }

    fn fires(&self, hit: u64) -> bool {
        match *self {
            Trigger::AtRow(n) => hit == n.max(1),
            Trigger::Every(n) => hit.is_multiple_of(n.max(1)),
            Trigger::Prob { seed, p } => {
                let x = splitmix(seed ^ hit.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                // 53-bit uniform in [0, 1): p = 0 never fires, p = 1 always.
                ((x >> 11) as f64 / (1u64 << 53) as f64) < p
            }
        }
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[derive(Debug)]
struct ArmedSite {
    trigger: Trigger,
    mode: FaultMode,
    hits: AtomicU64,
}

/// Registry of armed fault sites, shared across all worker threads of a
/// query via `Arc`. An empty registry costs one relaxed atomic load per
/// [`FaultRegistry::hit`], so production paths are effectively free.
#[derive(Debug, Default)]
pub struct FaultRegistry {
    any_armed: AtomicBool,
    sites: Mutex<HashMap<String, Arc<ArmedSite>>>,
}

/// Marker prefix for controlled panics so the chaos suite's panic hook can
/// distinguish injected panics from genuine bugs.
pub const INJECTED_PANIC_PREFIX: &str = "bufferdb injected panic";

impl FaultRegistry {
    /// An empty registry: nothing armed, every `hit` is a no-op.
    pub fn new() -> Self {
        FaultRegistry::default()
    }

    /// Arm `site` with the given trigger and mode, resetting its hit count.
    pub fn arm(&self, site: &str, trigger: Trigger, mode: FaultMode) {
        self.lock().insert(
            site.to_string(),
            Arc::new(ArmedSite {
                trigger,
                mode,
                hits: AtomicU64::new(0),
            }),
        );
        self.any_armed.store(true, Ordering::Release);
    }

    /// Disarm every site.
    pub fn clear(&self) {
        self.lock().clear();
        self.any_armed.store(false, Ordering::Release);
    }

    /// Are any sites armed?
    pub fn is_armed(&self) -> bool {
        self.any_armed.load(Ordering::Acquire)
    }

    // A panicking thread can only poison the map mutex while holding it,
    // and the critical sections below cannot panic — but one failed worker
    // must never cascade, so recover the map from poison regardless.
    fn lock(&self) -> MutexGuard<'_, HashMap<String, Arc<ArmedSite>>> {
        self.sites.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Record one pass through `site`; fire if armed and triggered.
    pub fn hit(&self, site: &str) -> Result<()> {
        if !self.is_armed() {
            return Ok(());
        }
        let armed = match self.lock().get(site) {
            Some(a) => Arc::clone(a),
            None => return Ok(()),
        };
        let hit = armed.hits.fetch_add(1, Ordering::Relaxed) + 1;
        if !armed.trigger.fires(hit) {
            return Ok(());
        }
        match armed.mode {
            FaultMode::Error => Err(DbError::FaultInjected(format!(
                "site {site} fired on hit {hit}"
            ))),
            FaultMode::Panic => panic!("{INJECTED_PANIC_PREFIX}: site {site} fired on hit {hit}"),
        }
    }

    /// Build a registry from the `BUFFERDB_FAULT` environment variable
    /// (empty when the variable is unset). See [`parse_fault_spec`] for the
    /// format; a malformed spec is an error so typos never silently disable
    /// a chaos run.
    pub fn from_env() -> std::result::Result<Arc<Self>, String> {
        let reg = Arc::new(FaultRegistry::new());
        if let Ok(spec) = std::env::var("BUFFERDB_FAULT") {
            if !spec.trim().is_empty() {
                for (site, trigger, mode) in parse_fault_spec(&spec)? {
                    reg.arm(&site, trigger, mode);
                }
            }
        }
        Ok(reg)
    }
}

/// Parse a fault spec: comma-separated `site:mode:trigger` entries where
/// `mode` is `error` | `panic` and `trigger` is `at_row(N)` | `every(N)` |
/// `prob(SEED,P)`.
pub fn parse_fault_spec(
    spec: &str,
) -> std::result::Result<Vec<(String, Trigger, FaultMode)>, String> {
    // Split entries on commas *outside* parentheses, so `prob(SEED,P)`
    // triggers survive intact.
    let mut entries = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in spec.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                entries.push(&spec[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    entries.push(&spec[start..]);
    let mut out = Vec::new();
    for entry in entries.into_iter().map(str::trim).filter(|e| !e.is_empty()) {
        let parts: Vec<&str> = entry.splitn(3, ':').collect();
        let [site, mode, trig] = parts[..] else {
            return Err(format!(
                "fault entry {entry:?} is not site:mode:trigger (e.g. seqscan.next:error:at_row(5))"
            ));
        };
        let mode = match mode {
            "error" => FaultMode::Error,
            "panic" => FaultMode::Panic,
            other => return Err(format!("unknown fault mode {other:?} (error | panic)")),
        };
        let trigger = parse_trigger(trig)?;
        out.push((site.to_string(), trigger, mode));
    }
    if out.is_empty() {
        return Err(format!("fault spec {spec:?} contains no entries"));
    }
    Ok(out)
}

fn parse_trigger(s: &str) -> std::result::Result<Trigger, String> {
    let (name, args) = s
        .strip_suffix(')')
        .and_then(|t| t.split_once('('))
        .ok_or_else(|| format!("trigger {s:?} is not at_row(N) | every(N) | prob(SEED,P)"))?;
    let parse_u64 = |v: &str| -> std::result::Result<u64, String> {
        v.trim()
            .parse()
            .map_err(|e| format!("bad integer {v:?} in trigger {s:?}: {e}"))
    };
    match name {
        "at_row" => Ok(Trigger::AtRow(parse_u64(args)?)),
        "every" => Ok(Trigger::Every(parse_u64(args)?)),
        "prob" => {
            let (seed, p) = args
                .split_once(',')
                .ok_or_else(|| format!("prob trigger {s:?} needs (SEED,P)"))?;
            let p: f64 = p
                .trim()
                .parse()
                .map_err(|e| format!("bad probability in {s:?}: {e}"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("probability {p} out of [0,1] in {s:?}"));
            }
            Ok(Trigger::Prob {
                seed: parse_u64(seed)?,
                p,
            })
        }
        other => Err(format!("unknown trigger {other:?} in {s:?}")),
    }
}

/// Render a caught panic payload as a human-readable message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_registry_is_a_noop() {
        let r = FaultRegistry::new();
        for _ in 0..100 {
            assert!(r.hit(SEQSCAN_NEXT).is_ok());
        }
        assert!(!r.is_armed());
    }

    #[test]
    fn at_row_fires_exactly_once() {
        let r = FaultRegistry::new();
        r.arm(SEQSCAN_NEXT, Trigger::at_row(3), FaultMode::Error);
        assert!(r.hit(SEQSCAN_NEXT).is_ok());
        assert!(r.hit(SEQSCAN_NEXT).is_ok());
        assert!(matches!(
            r.hit(SEQSCAN_NEXT),
            Err(DbError::FaultInjected(_))
        ));
        assert!(r.hit(SEQSCAN_NEXT).is_ok(), "fires only on the n-th hit");
        // Other sites are unaffected.
        assert!(r.hit(BUFFER_FILL).is_ok());
    }

    #[test]
    fn every_fires_periodically() {
        let r = FaultRegistry::new();
        r.arm(BUFFER_FILL, Trigger::every(2), FaultMode::Error);
        let fired: Vec<bool> = (0..6).map(|_| r.hit(BUFFER_FILL).is_err()).collect();
        assert_eq!(fired, [false, true, false, true, false, true]);
    }

    #[test]
    fn prob_is_deterministic_and_roughly_calibrated() {
        let decisions = |seed| -> Vec<bool> {
            let t = Trigger::prob(seed, 0.25);
            (1..=1000).map(|h| t.fires(h)).collect()
        };
        assert_eq!(decisions(7), decisions(7), "same seed, same stream");
        let fired = decisions(7).iter().filter(|&&f| f).count();
        assert!((150..350).contains(&fired), "p=0.25 fired {fired}/1000");
        assert!(!Trigger::prob(1, 0.0).fires(42));
        assert!(Trigger::prob(1, 1.0).fires(42));
    }

    #[test]
    fn clear_resets() {
        let r = FaultRegistry::new();
        r.arm(SEQSCAN_NEXT, Trigger::every(1), FaultMode::Error);
        assert!(r.hit(SEQSCAN_NEXT).is_err());
        r.clear();
        assert!(r.hit(SEQSCAN_NEXT).is_ok());
        assert!(!r.is_armed());
    }

    #[test]
    fn spec_parsing_round_trips() {
        let parsed =
            parse_fault_spec("seqscan.next:error:at_row(100), buffer.fill:panic:every(3)").unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "seqscan.next");
        assert_eq!(parsed[0].1, Trigger::AtRow(100));
        assert_eq!(parsed[0].2, FaultMode::Error);
        assert_eq!(parsed[1].2, FaultMode::Panic);
        let prob = parse_fault_spec("hashjoin.build:error:prob(42,0.5)").unwrap();
        assert_eq!(prob[0].1, Trigger::Prob { seed: 42, p: 0.5 });
    }

    #[test]
    fn bad_specs_are_rejected() {
        for bad in [
            "",
            "seqscan.next",
            "seqscan.next:error",
            "seqscan.next:maybe:at_row(1)",
            "seqscan.next:error:at_row",
            "seqscan.next:error:sometimes(1)",
            "seqscan.next:error:prob(1,1.5)",
        ] {
            assert!(parse_fault_spec(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn panic_mode_panics_with_marker() {
        let r = FaultRegistry::new();
        r.arm(SEQSCAN_NEXT, Trigger::at_row(1), FaultMode::Panic);
        let caught = std::panic::catch_unwind(|| r.hit(SEQSCAN_NEXT)).unwrap_err();
        assert!(panic_message(&*caught).starts_with(INJECTED_PANIC_PREFIX));
    }
}
