//! Branch predictors with finite tables.
//!
//! The paper (§4) attributes mispredictions to two effects of long pipelines:
//! the branch-history hardware has finite capacity (512–4 K branches), and
//! interleaving operators mixes the branching patterns of shared code. A
//! gshare predictor captures both — distinct branches alias in one table and
//! a *global* history register is polluted when parent and child interleave
//! per tuple. A bimodal (per-address) predictor is provided for ablation.

use crate::layout::SiteState;

/// Which predictor to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// Per-address two-bit counters.
    Bimodal,
    /// Global-history-xor-address two-bit counters (default).
    Gshare,
}

/// Common predictor interface: predict, then update with the real outcome.
pub trait BranchPredictor {
    /// Record one dynamic branch; returns `true` when the prediction was
    /// correct.
    fn predict_and_update(&mut self, site: u64, taken: bool) -> bool;

    /// Dynamic branches seen.
    fn branches(&self) -> u64;

    /// Mispredictions seen.
    fn mispredictions(&self) -> u64;
}

fn counter_predict(c: u8) -> bool {
    c >= 2
}

fn counter_update(c: u8, taken: bool) -> u8 {
    std::hint::select_unpredictable(taken, (c + 1).min(3), c.saturating_sub(1))
}

/// Two-bit saturating counters indexed by branch address.
#[derive(Debug, Clone)]
pub struct BimodalPredictor {
    table: Vec<u8>,
    mask: u64,
    branches: u64,
    mispredictions: u64,
}

impl BimodalPredictor {
    /// A predictor with `entries` two-bit counters (power of two),
    /// initialized weakly-taken.
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two());
        BimodalPredictor {
            table: vec![2; entries],
            mask: (entries - 1) as u64,
            branches: 0,
            mispredictions: 0,
        }
    }

    fn index(&self, site: u64) -> usize {
        // Branch sites are 4-byte aligned at best; drop low bits then fold.
        (((site >> 2) ^ (site >> 14)) & self.mask) as usize
    }
}

impl BranchPredictor for BimodalPredictor {
    fn predict_and_update(&mut self, site: u64, taken: bool) -> bool {
        self.branches += 1;
        let idx = self.index(site);
        let predicted = counter_predict(self.table[idx]);
        self.table[idx] = counter_update(self.table[idx], taken);
        let correct = predicted == taken;
        self.mispredictions += u64::from(!correct);
        correct
    }

    fn branches(&self) -> u64 {
        self.branches
    }

    fn mispredictions(&self) -> u64 {
        self.mispredictions
    }
}

/// Gshare: two-bit counters indexed by `address ⊕ global history`.
#[derive(Debug, Clone)]
pub struct GsharePredictor {
    table: Vec<u8>,
    mask: u64,
    history: u64,
    history_mask: u64,
    branches: u64,
    mispredictions: u64,
}

impl GsharePredictor {
    /// A gshare predictor with `entries` counters and `history_bits` of
    /// global history.
    pub fn new(entries: usize, history_bits: u32) -> Self {
        assert!(entries.is_power_of_two());
        GsharePredictor {
            table: vec![2; entries],
            mask: (entries - 1) as u64,
            history: 0,
            history_mask: (1u64 << history_bits) - 1,
            branches: 0,
            mispredictions: 0,
        }
    }

    fn index(&self, site: u64) -> usize {
        ((((site >> 2) ^ (site >> 14)) ^ self.history) & self.mask) as usize
    }
}

impl BranchPredictor for GsharePredictor {
    fn predict_and_update(&mut self, site: u64, taken: bool) -> bool {
        self.branches += 1;
        let idx = self.index(site);
        let predicted = counter_predict(self.table[idx]);
        self.table[idx] = counter_update(self.table[idx], taken);
        self.history = ((self.history << 1) | taken as u64) & self.history_mask;
        let correct = predicted == taken;
        self.mispredictions += u64::from(!correct);
        correct
    }

    fn branches(&self) -> u64 {
        self.branches
    }

    fn mispredictions(&self) -> u64 {
        self.mispredictions
    }
}

/// The machine's predictor. An enum rather than a boxed trait object so a
/// region's whole run of branch sites dispatches once
/// and the per-site update inlines.
#[derive(Debug, Clone)]
pub enum Predictor {
    /// Per-address counters.
    Bimodal(BimodalPredictor),
    /// Global-history-xor-address counters.
    Gshare(GsharePredictor),
}

impl Predictor {
    /// Build the predictor a [`crate::BranchConfig`] describes.
    pub fn new(cfg: &crate::BranchConfig) -> Self {
        match cfg.kind {
            PredictorKind::Bimodal => Predictor::Bimodal(BimodalPredictor::new(cfg.table_entries)),
            PredictorKind::Gshare => {
                Predictor::Gshare(GsharePredictor::new(cfg.table_entries, cfg.history_bits))
            }
        }
    }

    /// Fire every static site of a region once, in order, each with the
    /// next outcome of its deterministic pattern.
    pub(crate) fn run_sites(&mut self, sites: &mut [SiteState]) {
        fn run(p: &mut impl BranchPredictor, sites: &mut [SiteState]) {
            for site in sites {
                let taken = site.step();
                p.predict_and_update(site.addr, taken);
            }
        }
        match self {
            Predictor::Bimodal(p) => run(p, sites),
            Predictor::Gshare(p) => run(p, sites),
        }
    }
}

impl BranchPredictor for Predictor {
    fn predict_and_update(&mut self, site: u64, taken: bool) -> bool {
        match self {
            Predictor::Bimodal(p) => p.predict_and_update(site, taken),
            Predictor::Gshare(p) => p.predict_and_update(site, taken),
        }
    }

    fn branches(&self) -> u64 {
        match self {
            Predictor::Bimodal(p) => p.branches(),
            Predictor::Gshare(p) => p.branches(),
        }
    }

    fn mispredictions(&self) -> u64 {
        match self {
            Predictor::Bimodal(p) => p.mispredictions(),
            Predictor::Gshare(p) => p.mispredictions(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bimodal_learns_a_biased_branch() {
        let mut p = BimodalPredictor::new(64);
        for _ in 0..100 {
            p.predict_and_update(0x400, true);
        }
        // After warmup, always-taken is always predicted.
        assert!(p.mispredictions() <= 1);
    }

    #[test]
    fn bimodal_alternating_branch_mispredicts_heavily() {
        let mut p = BimodalPredictor::new(64);
        let mut taken = false;
        for _ in 0..100 {
            taken = !taken;
            p.predict_and_update(0x400, taken);
        }
        // A 2-bit counter cannot track strict alternation.
        assert!(p.mispredictions() >= 40, "got {}", p.mispredictions());
    }

    #[test]
    fn gshare_learns_alternation_via_history() {
        let mut p = GsharePredictor::new(1024, 8);
        let mut taken = false;
        for _ in 0..500 {
            taken = !taken;
            p.predict_and_update(0x400, taken);
        }
        // History disambiguates the two phases; late-run accuracy is high.
        assert!(p.mispredictions() < 50, "got {}", p.mispredictions());
    }

    #[test]
    fn gshare_interleaving_two_patterns_hurts() {
        // One branch site shared by two "operators" with opposite biases,
        // mirroring the paper's shared-function observation (§4).
        // Site A alternates (perfectly learnable through global history);
        // site B is data-dependent and effectively random. Interleaving
        // injects B's random outcomes into A's history, destroying A's
        // predictability; batched execution keeps A near-perfect.
        let noisy = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 == 0;
        let run = |interleaved: bool| {
            let mut p = GsharePredictor::new(256, 8);
            if interleaved {
                for i in 0..2000u64 {
                    p.predict_and_update(0x400, i % 2 == 0);
                    p.predict_and_update(0x800, noisy(i));
                }
            } else {
                for i in 0..2000u64 {
                    p.predict_and_update(0x400, i % 2 == 0);
                }
                for i in 0..2000u64 {
                    p.predict_and_update(0x800, noisy(i));
                }
            }
            p.mispredictions()
        };
        assert!(
            run(true) > run(false),
            "interleaved {} vs batched {}",
            run(true),
            run(false)
        );
    }

    #[test]
    fn counters_track_totals() {
        let mut p = BimodalPredictor::new(16);
        for i in 0..10u64 {
            p.predict_and_update(i * 4, i % 2 == 0);
        }
        assert_eq!(p.branches(), 10);
        assert!(p.mispredictions() <= 10);
    }

    #[test]
    fn predictor_enum_dispatches() {
        let cfg = crate::BranchConfig {
            kind: PredictorKind::Bimodal,
            table_entries: 64,
            history_bits: 8,
        };
        let mut p = Predictor::new(&cfg);
        assert!(matches!(p, Predictor::Bimodal(_)));
        p.predict_and_update(0, true);
        assert_eq!(p.branches(), 1);
    }
}
