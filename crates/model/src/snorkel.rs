//! The data-programming generative model (the Snorkel baseline).
//!
//! Model (Ratner et al., NIPS'16; conditionally independent LFs):
//!
//! * `y ∈ {+1, −1}` with prior `π = P(y = +1)`;
//! * LF `j` votes with propensity `β_j = P(λ_j ≠ 0)` (class-independent),
//!   and when it votes, it agrees with `y` with **one** accuracy
//!   `α_j = P(λ_j = y | λ_j ≠ 0)`.
//!
//! Parameters are fit by EM on the observed label matrix; the E-step
//! posterior is the model output. This is the strongest *generic*
//! labeling model and is the baseline of the paper's +12% claim: its
//! single accuracy per LF is exactly what breaks under EM-scale class
//! imbalance.

use crate::patterns::{Resp, VotePatterns};
use crate::{logit, sigmoid, LabelModel};
use panda_lf::LabelMatrix;
use panda_table::CandidateSet;

/// Snorkel-style generative labeling model.
#[derive(Debug, Clone)]
pub struct SnorkelModel {
    /// EM iterations.
    pub max_iters: usize,
    /// Convergence threshold on mean |Δγ|.
    pub tol: f64,
    /// Initial / minimum-information class prior. When `learn_prior` the
    /// prior is re-estimated each M-step, otherwise it stays fixed.
    pub prior: f64,
    /// Re-estimate π each M-step.
    pub learn_prior: bool,
    /// Upper bound on the learned prior. Entity matching candidate sets
    /// are non-match dominated even after blocking; without the bound the
    /// anchored-accuracy EM has an "everything matches" fixed point it
    /// can run away into when evidence is weak (few LFs).
    pub max_prior: f64,
    /// Fitted accuracies (after `fit_predict`).
    pub accuracies: Vec<f64>,
    /// Fitted propensities (after `fit_predict`).
    pub propensities: Vec<f64>,
    /// Fitted prior (after `fit_predict`).
    pub fitted_prior: f64,
    /// When set, LFs whose votes agree above this threshold are clustered
    /// and their evidence discounted by 1/cluster-size (see
    /// [`crate::correlation`]).
    pub correlation_threshold: Option<f64>,
    /// Evidence discounts the last fit used (all 1.0 without correlation
    /// clustering) — needed to replicate the E-step for ad-hoc scoring.
    pub fitted_discounts: Vec<f64>,
    /// Posterior vector to seed the next fit with (see
    /// [`LabelModel::set_warm_start`]). Consumed by `fit_predict`.
    pub warm_start: Option<Vec<f64>>,
}

impl Default for SnorkelModel {
    fn default() -> Self {
        SnorkelModel {
            max_iters: 100,
            tol: 1e-6,
            prior: 0.1,
            learn_prior: true,
            max_prior: 0.35,
            accuracies: Vec::new(),
            propensities: Vec::new(),
            fitted_prior: 0.1,
            correlation_threshold: None,
            fitted_discounts: Vec::new(),
            warm_start: None,
        }
    }
}

impl SnorkelModel {
    /// Default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fix the class prior instead of learning it.
    pub fn with_fixed_prior(mut self, prior: f64) -> Self {
        self.prior = prior;
        self.learn_prior = false;
        self
    }

    /// Raise the learned-prior cap (balanced or match-dominated tasks).
    pub fn with_max_prior(mut self, max_prior: f64) -> Self {
        self.max_prior = max_prior;
        self
    }

    /// Discount near-duplicate LFs' evidence (agreement ≥ `threshold`).
    pub fn with_correlation_discounts(mut self, threshold: f64) -> Self {
        self.correlation_threshold = Some(threshold);
        self
    }
}

/// Clamp an estimated accuracy into `[0.5, 0.95]`.
///
/// The lower bound is the data-programming identifiability anchor — the
/// paper's own premise is that LFs are "better than random labeling", and
/// without the bound EM has a label-swapped mirror solution (votes meaning
/// the opposite of what they say) it can drift into. The upper bound keeps
/// log-odds finite.
pub(crate) fn clamp_param(p: f64) -> f64 {
    p.clamp(0.5, 0.95)
}

/// Per-LF E-step terms: 2-bit vote code → discounted log-odds (abstain
/// and the reserved code add an exact 0).
pub(crate) fn accuracy_term_tables(acc: &[f64], discounts: &[f64]) -> Vec<[f64; 4]> {
    acc.iter()
        .zip(discounts)
        .map(|(&a, &d)| [0.0, d * (a / (1.0 - a)).ln(), d * ((1.0 - a) / a).ln(), 0.0])
        .collect()
}

/// Selection score of a solution: vote-weighted Youden's J, which for a
/// single accuracy parameter is `2·acc − 1`.
pub(crate) fn accuracy_score(lf_votes: &[[u64; 2]], acc: &[f64]) -> f64 {
    lf_votes
        .iter()
        .zip(acc)
        .map(|(&[n_match, n_unmatch], &a)| (n_match + n_unmatch) as f64 * (2.0 * a - 1.0).max(0.0))
        .sum()
}

impl SnorkelModel {
    /// Run EM to convergence from one start, in vote-pattern space (see
    /// [`crate::patterns`]). Per row the E-step adds terms in ascending-LF
    /// order on top of `logit(pi)` — abstains contribute an exact `+0.0` —
    /// so posteriors equal `posterior_for_votes` bit for bit.
    fn em_run(
        &self,
        pat: &VotePatterns,
        discounts: &[f64],
        mut gamma: Resp,
        init: &'static str,
    ) -> (Resp, Vec<f64>, f64, usize) {
        let m = pat.n_lfs();
        let n = pat.n_pairs() as f64;
        let mut acc = vec![0.7f64; m];
        let mut pi = self.prior;
        let mut iters = 0usize;
        for _iter in 0..self.max_iters {
            iters += 1;
            // M-step first (consumes the start on iteration 0):
            // α_j = E[#agreements] / E[#votes], Laplace-smoothed.
            let mass = pat.mass(&gamma);
            for (j, (a, &[n_match, n_unmatch])) in acc.iter_mut().zip(pat.lf_votes()).enumerate() {
                let votes = 2.0 + (n_match + n_unmatch) as f64; // pseudo-counts
                *a = clamp_param((1.0 + pat.agreement(&mass, j)) / votes);
            }
            if self.learn_prior {
                pi = (pat.classes(&mass).0 / n).clamp(1e-4, self.max_prior);
            }

            // E-step with a per-LF 4-entry term table.
            let delta = pat.e_step(
                logit(pi),
                &accuracy_term_tables(&acc, discounts),
                &mut gamma,
            );

            // Per-iteration provenance (journal only): the vote-pattern
            // log-likelihood (per row, weighted by its pair count) is
            // extra work, so it is computed exclusively when someone is
            // recording. Propensity is class-independent in this model —
            // it contributes a constant and is omitted.
            if panda_obs::journal_enabled() {
                // Abstains add an exact `+0.0`, which leaves the running
                // sums' bits unchanged.
                let ln_tables: Vec<[(f64, f64); 4]> = acc
                    .iter()
                    .map(|&a| {
                        let (hit, miss) = (a.ln(), (1.0 - a).ln());
                        [(0.0, 0.0), (hit, miss), (miss, hit), (0.0, 0.0)]
                    })
                    .collect();
                let ll = pat.log_likelihood(pi, &ln_tables);
                let mean_acc = acc.iter().sum::<f64>() / m.max(1) as f64;
                panda_obs::event("model.em.iter")
                    .field("model", "snorkel")
                    .field("init", init)
                    .field("iter", iters)
                    .field("ll", ll)
                    // The single-accuracy model has one α per LF; it plays
                    // both class-conditional roles in the shared schema.
                    .field("alpha_m", mean_acc)
                    .field("alpha_u", mean_acc)
                    .field("delta", delta)
                    .field("pi", pi)
                    .emit();
            }
            if delta <= self.tol {
                break;
            }
        }
        (gamma, acc, pi, iters)
    }

    /// Multi-start EM on `pat` with the given evidence discounts, leaving
    /// the fitted parameters on `self` and returning the chosen solution's
    /// responsibilities. `warm` (one value per pair) adds a fifth start.
    /// Panda's fit seeds one of its starts with this on its own patterns.
    pub(crate) fn fit_patterns(
        &mut self,
        pat: &VotePatterns,
        discounts: Vec<f64>,
        warm: Option<Vec<f64>>,
    ) -> Resp {
        let n = pat.n_pairs() as f64;
        // Propensity is class-independent in this model, so its MLE is
        // just the observed vote rate (it cancels in the posterior and is
        // reported for the stats panel only).
        let prop: Vec<f64> = pat
            .lf_votes()
            .iter()
            .map(|&[n_match, n_unmatch]| ((n_match + n_unmatch) as f64 / n).clamp(1e-6, 1.0))
            .collect();
        // Multi-start EM with the same cold starts and selection rule the
        // Panda model uses (minus the snorkel-seeded one, obviously):
        // baseline robustness should not be the thing E1 measures.
        let mut inits = pat.cold_starts(self.prior);
        // Interactive refits seed EM with the previous posterior; the
        // selection rule below still decides, so a stale warm start loses
        // to a better cold start instead of degrading the fit.
        if let Some(w) = warm {
            inits.push(("warm", Resp::Pairs(w)));
        }
        let mut best: Option<(f64, Resp, Vec<f64>, f64)> = None;
        for (init_name, init) in inits {
            let (gamma, run_acc, run_pi, iters) = self.em_run(pat, &discounts, init, init_name);
            if panda_obs::enabled() {
                panda_obs::counter_add(
                    &format!("model.snorkel.em_iters.{init_name}"),
                    iters as u64,
                );
            }
            let score = accuracy_score(pat.lf_votes(), &run_acc);
            if best.as_ref().map(|(b, ..)| score > *b).unwrap_or(true) {
                best = Some((score, gamma, run_acc, run_pi));
            }
        }
        let (_, gamma, acc, pi) = best.expect("at least one init");
        self.accuracies = acc;
        self.propensities = prop;
        self.fitted_prior = pi;
        self.fitted_discounts = discounts;
        gamma
    }
}

impl LabelModel for SnorkelModel {
    fn name(&self) -> &'static str {
        "snorkel"
    }

    fn fit_predict(&mut self, matrix: &LabelMatrix, _: Option<&CandidateSet>) -> Vec<f64> {
        let _span = panda_obs::span("model.snorkel.fit");
        let n = matrix.n_pairs();
        let m = matrix.n_lfs();
        // Reset ALL fitted state on every entry (same audit as
        // `PandaModel::fit_predict`): a degenerate matrix must not leave a
        // previous fit's parameters visible. The warm start is consumed
        // even on the degenerate early return so a stale vector cannot
        // leak into a later fit of a different matrix.
        self.accuracies.clear();
        self.propensities.clear();
        self.fitted_prior = self.prior;
        self.fitted_discounts.clear();
        let warm = self.warm_start.take().filter(|w| w.len() == n);
        if n == 0 || m == 0 {
            return vec![self.prior; n];
        }
        let discounts: Vec<f64> = match self.correlation_threshold {
            Some(t) => crate::correlation::evidence_discounts(matrix, t),
            None => vec![1.0; m],
        };
        let pat = VotePatterns::new(matrix);
        let gamma = self.fit_patterns(&pat, discounts, warm);
        pat.to_pairs(&gamma)
    }

    fn set_warm_start(&mut self, previous: &[f64]) {
        self.warm_start = Some(previous.to_vec());
    }

    /// Replicates the fitted E-step for one vote row: log-odds of the
    /// prior plus each vote's discounted accuracy evidence (abstains
    /// contribute nothing in the single-accuracy model).
    fn posterior_for_votes(&self, votes: &[i8]) -> Option<f64> {
        if self.accuracies.is_empty() || votes.len() != self.accuracies.len() {
            return None;
        }
        let mut lo = logit(self.fitted_prior);
        for (j, &v) in votes.iter().enumerate() {
            let a = self.accuracies[j];
            match v {
                1.. => lo += self.fitted_discounts[j] * (a / (1.0 - a)).ln(),
                0 => {}
                _ => lo += self.fitted_discounts[j] * ((1.0 - a) / a).ln(),
            }
        }
        Some(sigmoid(lo))
    }

    /// Blob layout: `[m, fitted_prior, accuracies(m), propensities(m),
    /// fitted_discounts(m)]` — everything `posterior_for_votes` and a
    /// warm-started refit read.
    fn capture_fitted(&self) -> Option<Vec<f64>> {
        let m = self.accuracies.len();
        if self.propensities.len() != m || self.fitted_discounts.len() != m {
            return None;
        }
        let mut blob = Vec::with_capacity(2 + 3 * m);
        blob.push(m as f64);
        blob.push(self.fitted_prior);
        blob.extend_from_slice(&self.accuracies);
        blob.extend_from_slice(&self.propensities);
        blob.extend_from_slice(&self.fitted_discounts);
        Some(blob)
    }

    fn restore_fitted(&mut self, blob: &[f64]) -> bool {
        let Some(m) = decode_arity(blob, 3) else {
            return false;
        };
        self.fitted_prior = blob[1];
        self.accuracies = blob[2..2 + m].to_vec();
        self.propensities = blob[2 + m..2 + 2 * m].to_vec();
        self.fitted_discounts = blob[2 + 2 * m..2 + 3 * m].to_vec();
        true
    }
}

/// Decode the leading arity word of a fitted-parameter blob and check the
/// total length is `2 + per_lf · m`. Shared by the EM models'
/// `restore_fitted` impls.
pub(crate) fn decode_arity(blob: &[f64], per_lf: usize) -> Option<usize> {
    let head = *blob.first()?;
    if !(head.is_finite() && head >= 0.0 && head.fract() == 0.0 && head <= u32::MAX as f64) {
        return None;
    }
    let m = head as usize;
    (blob.len() == 2 + per_lf * m).then_some(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{f1, plant, PlantedLf};
    use crate::MajorityVote;

    #[test]
    fn recovers_planted_accuracies_in_balanced_data() {
        // Balanced classes → the single-accuracy model is well-specified.
        let specs = [
            PlantedLf::symmetric(0.9, 0.9),
            PlantedLf::symmetric(0.8, 0.75),
            PlantedLf::symmetric(0.7, 0.6),
        ];
        let p = plant(4000, 0.5, &specs, 11);
        // Balanced planted data: lift the EM-imbalance prior cap.
        let mut model = SnorkelModel::new().with_max_prior(0.6);
        let gamma = model.fit_predict(&p.matrix, None);
        assert!(f1(&gamma, &p.truth) > 0.8);
        // With few LFs the posterior is soft, so EM accuracy estimates
        // shrink toward each other — check the recovered *ordering* and
        // coarse bands rather than tight absolutes.
        let a = &model.accuracies;
        assert!(
            a[0] >= a[1] - 0.02 && a[1] >= a[2] - 0.02,
            "ordering preserved: {a:?}"
        );
        assert!(a[0] > 0.75, "best LF clearly good: {a:?}");
        assert!(a[2] < 0.67, "worst LF clearly weak: {a:?}");
        assert!((model.fitted_prior - 0.5).abs() < 0.1);
    }

    #[test]
    fn beats_majority_vote_with_heterogeneous_lfs() {
        // One excellent LF among noisy ones: weighting by learned accuracy
        // must beat unweighted counting.
        let specs = [
            PlantedLf::symmetric(0.95, 0.95),
            PlantedLf::symmetric(0.9, 0.55),
            PlantedLf::symmetric(0.9, 0.55),
            PlantedLf::symmetric(0.9, 0.55),
        ];
        let p = plant(3000, 0.5, &specs, 13);
        let f1_snorkel = f1(
            &SnorkelModel::new()
                .with_max_prior(0.6)
                .fit_predict(&p.matrix, None),
            &p.truth,
        );
        let f1_mv = f1(
            &MajorityVote::default().fit_predict(&p.matrix, None),
            &p.truth,
        );
        assert!(
            f1_snorkel > f1_mv + 0.02,
            "snorkel {f1_snorkel:.3} vs majority {f1_mv:.3}"
        );
    }

    #[test]
    fn posteriors_in_unit_interval() {
        let p = plant(500, 0.2, &[PlantedLf::symmetric(0.5, 0.8); 5], 17);
        let gamma = SnorkelModel::new().fit_predict(&p.matrix, None);
        assert!(gamma.iter().all(|g| (0.0..=1.0).contains(g)));
    }

    #[test]
    fn empty_matrix_returns_prior() {
        let p = plant(5, 0.5, &[], 19);
        let mut model = SnorkelModel::new().with_fixed_prior(0.3);
        let gamma = model.fit_predict(&p.matrix, None);
        assert_eq!(gamma, vec![0.3; 5]);
    }

    #[test]
    fn adhoc_scoring_matches_fitted_posteriors() {
        let p = plant(500, 0.3, &[PlantedLf::symmetric(0.85, 0.8); 3], 29);
        let mut model = SnorkelModel::new();
        let gamma = model.fit_predict(&p.matrix, None);
        for (i, g) in gamma.iter().enumerate() {
            let s = model.posterior_for_votes(&p.matrix.row(i)).unwrap();
            assert_eq!(s, *g, "E-step replica on row {i}");
        }
        assert_eq!(model.posterior_for_votes(&[1i8]), None, "wrong arity");
    }

    #[test]
    fn warm_start_is_an_extra_init_and_stable_at_the_fixed_point() {
        let p = plant(400, 0.3, &[PlantedLf::symmetric(0.85, 0.8); 3], 31);
        let mut model = SnorkelModel::new();
        let cold = model.fit_predict(&p.matrix, None);
        model.set_warm_start(&cold);
        let warm = model.fit_predict(&p.matrix, None);
        let drift = warm
            .iter()
            .zip(&cold)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(drift < 0.05, "refit stays near the fixed point: {drift}");
    }

    #[test]
    fn majority_vote_scores_adhoc_rows() {
        use crate::LabelModel;
        let mv = MajorityVote::new(0.07);
        assert_eq!(mv.posterior_for_votes(&[1, -1, 0, 1]), Some(2.0 / 3.0));
        assert_eq!(mv.posterior_for_votes(&[0, 0]), Some(0.07));
    }

    #[test]
    fn fixed_prior_is_not_updated() {
        let p = plant(500, 0.5, &[PlantedLf::symmetric(0.9, 0.9)], 23);
        let mut model = SnorkelModel::new().with_fixed_prior(0.2);
        model.fit_predict(&p.matrix, None);
        assert_eq!(model.fitted_prior, 0.2);
    }
}
