//! The gradient-weighting algorithms compared in the paper.
//!
//! An [`Aggregator`] decides the scalar weight applied to each incoming
//! worker gradient before it is added to the model (Eq. 3). The four
//! implementations correspond to the four lines of Figures 8–11:
//!
//! | Aggregator | Dampening | Similarity boost | Staleness-aware |
//! |---|---|---|---|
//! | [`AdaSgd`]  | exponential `e^{−βτ}` | yes | yes |
//! | [`DynSgd`]  | inverse `1/(τ+1)`     | no  | yes |
//! | [`FedAvg`]  | none                  | no  | no  |
//! | [`Ssgd`]    | none (staleness is always 0) | no | n/a |

use crate::dampening::DampeningPolicy;
use crate::staleness::StalenessTracker;
use crate::update::WorkerUpdate;
use fleet_data::GlobalLabelDistribution;

/// The mutable state of an [`Aggregator`], exported as plain data for
/// checkpoint/restore. Stateless aggregators (DynSGD, FedAvg, SSGD) export
/// empty vectors; AdaSGD exports its staleness history and the accumulated
/// global label counts — everything `Λ(τ)` calibration and similarity
/// boosting depend on. Neither grows with the number of observations. The
/// byte encoding lives with the wire codec (`fleet-server`); this struct
/// keeps the crates below it codec-free.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AggregatorState {
    /// Observed staleness as `(value, count)` pairs: ascending, distinct
    /// values, every count at least 1.
    pub staleness_counts: Vec<(u64, u64)>,
    /// Accumulated per-class sample counts of the global label distribution.
    pub label_counts: Vec<u64>,
}

/// Decides the weight of each worker gradient and observes applied updates.
pub trait Aggregator: std::fmt::Debug + Send {
    /// Short human-readable name (used by the experiment harnesses).
    fn name(&self) -> &'static str;

    /// Exports the aggregator's mutable state (see [`AggregatorState`]).
    /// Stateless aggregators use this default.
    fn export_state(&self) -> AggregatorState {
        AggregatorState::default()
    }

    /// Restores state captured with [`Aggregator::export_state`] into an
    /// aggregator constructed with the same parameters. Stateless
    /// aggregators ignore it.
    fn import_state(&mut self, _state: AggregatorState) {}

    /// The scalar weight for an incoming update, in `[0, 1]`, at the
    /// staleness the update itself carries.
    fn scaling_factor(&self, update: &WorkerUpdate) -> f64 {
        self.scaling_factor_at(update, update.staleness)
    }

    /// The weight for `update` evaluated at an explicit `staleness` instead
    /// of the one the update carries. This is the per-shard entry point: the
    /// [`crate::server::ParameterServer`] attributes a different staleness
    /// `τ_s` to each shard slice of one gradient (vector clock semantics)
    /// and weights every slice with
    /// `scaling_factor_at(update, τ_s)` — same Eq. 3, per shard.
    fn scaling_factor_at(&self, update: &WorkerUpdate, staleness: u64) -> f64;

    /// Records that `update` has been applied to the model, letting the
    /// aggregator refresh its staleness statistics and global label
    /// distribution.
    fn record(&mut self, update: &WorkerUpdate);
}

/// Lower bound on the similarity used for boosting, preventing an unbounded
/// boost when the label overlap is exactly zero.
const MIN_SIMILARITY: f64 = 1e-4;

/// The `τ_thres` used while no staleness value has been observed yet.
const FALLBACK_TAU_THRES: u64 = 12;

/// AdaSGD (§2.3): exponential staleness dampening calibrated from the
/// expected percentage of non-stragglers, plus similarity-based boosting.
#[derive(Debug)]
pub struct AdaSgd {
    staleness: StalenessTracker,
    global_labels: GlobalLabelDistribution,
    s_percentile: f64,
    fixed_tau_thres: Option<u64>,
    boost_enabled: bool,
}

impl AdaSgd {
    /// Creates an AdaSGD aggregator for `num_classes` classes with the
    /// expected percentage of non-stragglers `s_percentile` (e.g. 99.7).
    ///
    /// # Panics
    ///
    /// Panics if `s_percentile` is outside `(0, 100]` or `num_classes` is zero.
    pub fn new(num_classes: usize, s_percentile: f64) -> Self {
        assert!(
            s_percentile > 0.0 && s_percentile <= 100.0,
            "s_percentile must be in (0, 100]"
        );
        Self {
            staleness: StalenessTracker::new(32),
            global_labels: GlobalLabelDistribution::new(num_classes),
            s_percentile,
            fixed_tau_thres: None,
            boost_enabled: true,
        }
    }

    /// Disables the similarity-based boosting (ablation used in Fig. 9 and
    /// offered by the paper when the label-distribution transfer is considered
    /// a privacy concern, §5).
    pub fn without_similarity_boost(mut self) -> Self {
        self.boost_enabled = false;
        self
    }

    /// Pins `τ_thres` to a fixed value instead of estimating it from observed
    /// staleness. The paper does this in the long-tail experiment of Fig. 9,
    /// where τ_thres is taken from the D1 distribution (12) even though the
    /// injected stragglers would otherwise dominate the percentile.
    pub fn with_fixed_tau_thres(mut self, tau_thres: u64) -> Self {
        self.fixed_tau_thres = Some(tau_thres.max(1));
        self
    }

    /// The current `τ_thres` estimate (s-th percentile of observed staleness,
    /// unless pinned with [`AdaSgd::with_fixed_tau_thres`]).
    pub(crate) fn tau_thres(&self) -> u64 {
        self.fixed_tau_thres.unwrap_or_else(|| {
            self.staleness
                .tau_thres(self.s_percentile, FALLBACK_TAU_THRES)
        })
    }

    /// The dampening policy currently in force: DynSGD's inverse function
    /// during the bootstrap phase (as the paper suggests), the calibrated
    /// exponential afterwards. A pinned `τ_thres` skips the bootstrap.
    pub(crate) fn current_policy(&self) -> DampeningPolicy {
        if self.fixed_tau_thres.is_none() && self.staleness.is_bootstrapping() {
            DampeningPolicy::Inverse
        } else {
            DampeningPolicy::exponential_for(self.tau_thres())
        }
    }

    /// The similarity of an update's label distribution with the global one.
    pub(crate) fn similarity(&self, update: &WorkerUpdate) -> f64 {
        self.similarity_of(&update.label_distribution)
    }

    /// The similarity of an arbitrary label distribution with the global one
    /// (step 3 of the protocol: computed at request time, before the gradient
    /// exists).
    pub fn similarity_of(&self, label_distribution: &fleet_data::LabelDistribution) -> f64 {
        f64::from(self.global_labels.similarity(label_distribution))
    }
}

impl Aggregator for AdaSgd {
    fn name(&self) -> &'static str {
        "AdaSGD"
    }

    fn export_state(&self) -> AggregatorState {
        AggregatorState {
            staleness_counts: self.staleness.counts().collect(),
            label_counts: self.global_labels.counts().to_vec(),
        }
    }

    fn import_state(&mut self, state: AggregatorState) {
        self.staleness.restore_counts(state.staleness_counts);
        let num_classes = self.global_labels.counts().len();
        self.global_labels = GlobalLabelDistribution::new(num_classes);
        for (class, &count) in state.label_counts.iter().enumerate() {
            self.global_labels.record(class, count);
        }
    }

    fn scaling_factor_at(&self, update: &WorkerUpdate, staleness: u64) -> f64 {
        let dampening = self.current_policy().factor(staleness);
        let weight = if self.boost_enabled {
            let sim = self.similarity(update).max(MIN_SIMILARITY);
            dampening / sim
        } else {
            dampening
        };
        weight.min(1.0)
    }

    fn record(&mut self, update: &WorkerUpdate) {
        self.staleness.record(update.staleness);
        // The server only sees label indices and counts (§2.3); recording the
        // label distribution scaled by the mini-batch size reproduces the
        // "aggregate number of previously used samples per label".
        for class in 0..update.label_distribution.num_classes() {
            let share = update.label_distribution.probability(class);
            let count = (share * update.num_samples as f32).round() as u64;
            self.global_labels.record(class, count);
        }
    }
}

/// DynSGD (Jiang et al., SIGMOD'17): inverse staleness dampening, no
/// similarity boosting.
#[derive(Debug, Default)]
pub struct DynSgd;

impl DynSgd {
    /// Creates a DynSGD aggregator.
    pub fn new() -> Self {
        Self
    }
}

impl Aggregator for DynSgd {
    fn name(&self) -> &'static str {
        "DynSGD"
    }

    fn scaling_factor_at(&self, _update: &WorkerUpdate, staleness: u64) -> f64 {
        DampeningPolicy::Inverse.factor(staleness)
    }

    fn record(&mut self, _update: &WorkerUpdate) {}
}

/// FedAvg-style staleness-unaware aggregation: every gradient is applied with
/// full weight regardless of its staleness (the behaviour shown to diverge in
/// Figures 8 and 10).
#[derive(Debug, Default)]
pub struct FedAvg;

impl FedAvg {
    /// Creates a FedAvg aggregator.
    pub fn new() -> Self {
        Self
    }
}

impl Aggregator for FedAvg {
    fn name(&self) -> &'static str {
        "FedAvg"
    }

    fn scaling_factor_at(&self, _update: &WorkerUpdate, _staleness: u64) -> f64 {
        1.0
    }

    fn record(&mut self, _update: &WorkerUpdate) {}
}

/// Synchronous SGD: the staleness-free ideal. The weight is 1, and callers
/// are expected to only feed it updates with zero staleness (the
/// [`crate::server::ParameterServer`] enforces nothing — SSGD is a *protocol*
/// choice, not a weighting choice).
#[derive(Debug, Default)]
pub struct Ssgd;

impl Ssgd {
    /// Creates an SSGD aggregator.
    pub fn new() -> Self {
        Self
    }
}

impl Aggregator for Ssgd {
    fn name(&self) -> &'static str {
        "SSGD"
    }

    fn scaling_factor_at(&self, _update: &WorkerUpdate, _staleness: u64) -> f64 {
        1.0
    }

    fn record(&mut self, _update: &WorkerUpdate) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet_data::LabelDistribution;
    use fleet_ml::Gradient;

    fn update(staleness: u64, labels: &[usize], classes: usize) -> WorkerUpdate {
        WorkerUpdate::new(
            Gradient::from_vec(vec![0.1; 4]),
            staleness,
            LabelDistribution::from_labels(labels, classes),
            labels.len().max(1),
            1,
        )
    }

    #[test]
    fn fresh_updates_get_full_weight_everywhere() {
        let ada = AdaSgd::new(10, 99.7);
        let dyn_ = DynSgd::new();
        let fed = FedAvg::new();
        let ssgd = Ssgd::new();
        let u = update(0, &[0, 1, 2], 10);
        for agg in [&ada as &dyn Aggregator, &dyn_, &fed, &ssgd] {
            assert!(
                (agg.scaling_factor(&u) - 1.0).abs() < 1e-9,
                "{}",
                agg.name()
            );
        }
    }

    #[test]
    fn fedavg_ignores_staleness() {
        let fed = FedAvg::new();
        assert_eq!(fed.scaling_factor(&update(1000, &[0], 10)), 1.0);
    }

    #[test]
    fn dynsgd_uses_inverse_dampening() {
        let dyn_ = DynSgd::new();
        assert!((dyn_.scaling_factor(&update(9, &[0], 10)) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn adasgd_bootstraps_with_inverse_then_switches_to_exponential() {
        let mut ada = AdaSgd::new(10, 99.7);
        assert_eq!(ada.current_policy(), DampeningPolicy::Inverse);
        // Feed enough staleness observations to finish bootstrapping.
        for _ in 0..32 {
            ada.record(&update(6, &[0, 1], 10));
        }
        match ada.current_policy() {
            DampeningPolicy::Exponential { beta } => assert!(beta > 0.0),
            other => panic!("expected exponential policy, got {other:?}"),
        }
        assert_eq!(ada.tau_thres(), 6);
    }

    #[test]
    fn adasgd_dampens_very_stale_updates_more_than_dynsgd() {
        let mut ada = AdaSgd::new(10, 99.7);
        // Calibrate tau_thres to 12, using updates whose labels make the
        // global distribution uniform (so similarity boosting stays neutral).
        let all_labels: Vec<usize> = (0..10).collect();
        for _ in 0..40 {
            ada.record(&update(12, &all_labels, 10));
        }
        let dyn_ = DynSgd::new();
        let stale = update(48, &all_labels, 10);
        assert!(ada.scaling_factor(&stale) < dyn_.scaling_factor(&stale));
    }

    #[test]
    fn similarity_boost_raises_weight_for_novel_labels() {
        // Reproduces the Fig. 5/9 scenario: the global distribution has never
        // seen class 0, so a straggler carrying class-0 data is boosted.
        let mut ada = AdaSgd::new(10, 99.7);
        let seen: Vec<usize> = (1..10).collect();
        for _ in 0..40 {
            ada.record(&update(12, &seen, 10));
        }
        let stale_novel = update(48, &[0, 0, 0], 10);
        let stale_seen = update(48, &seen, 10);
        let boosted = ada.scaling_factor(&stale_novel);
        let unboosted = ada.scaling_factor(&stale_seen);
        assert!(
            boosted > unboosted,
            "novel-label update ({boosted}) should outweigh seen-label update ({unboosted})"
        );

        // Without boosting both get the same (tiny) weight.
        let mut plain = AdaSgd::new(10, 99.7).without_similarity_boost();
        for _ in 0..40 {
            plain.record(&update(12, &seen, 10));
        }
        assert!(
            (plain.scaling_factor(&stale_novel) - plain.scaling_factor(&stale_seen)).abs() < 1e-12
        );
    }

    #[test]
    fn scaling_factor_never_exceeds_one() {
        let mut ada = AdaSgd::new(4, 99.7);
        for _ in 0..40 {
            ada.record(&update(3, &[1, 2], 4));
        }
        // Extremely dissimilar update with low staleness: boost is capped at 1.
        let u = update(0, &[0], 4);
        assert!(ada.scaling_factor(&u) <= 1.0);
    }

    #[test]
    fn fallback_tau_thres_is_used_before_observations() {
        let ada = AdaSgd::new(10, 99.7);
        assert_eq!(ada.tau_thres(), FALLBACK_TAU_THRES);
    }

    #[test]
    fn scaling_factor_at_matches_the_carried_staleness() {
        // The per-shard entry point evaluated at the update's own staleness
        // must be exactly the scalar path: a coherent read clock weighs as
        // the scalar staleness (no clock divergence => identical weights),
        // and the server reuses the scalar weight for any slice at that τ.
        let mut ada = AdaSgd::new(10, 99.7);
        for _ in 0..40 {
            ada.record(&update(12, &[0, 1], 10));
        }
        let u = update(48, &[0, 1], 10);
        for agg in [
            &ada as &dyn Aggregator,
            &DynSgd::new(),
            &FedAvg::new(),
            &Ssgd::new(),
        ] {
            assert_eq!(
                agg.scaling_factor(&u).to_bits(),
                agg.scaling_factor_at(&u, 48).to_bits(),
                "{}",
                agg.name()
            );
        }
        // And a larger per-shard staleness dampens more (for the aware ones).
        assert!(ada.scaling_factor_at(&u, 96) < ada.scaling_factor_at(&u, 48));
        assert!((DynSgd::new().scaling_factor_at(&u, 9) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            AdaSgd::new(2, 99.0).name(),
            DynSgd::new().name(),
            FedAvg::new().name(),
            Ssgd::new().name(),
        ];
        let mut unique = names.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }
}
