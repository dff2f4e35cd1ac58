//! Panda's EM-specific labeling model (paper §2.1, feature 3).
//!
//! Two changes over the generic data-programming model, each motivated by
//! a property unique to entity matching:
//!
//! 1. **Class-conditional parameters.** EM is heavily class-imbalanced:
//!    non-matches vastly outnumber matches. With a single accuracy
//!    parameter, an LF that always votes −1 looks ~99% accurate while
//!    carrying no information about matches. Panda gives every LF
//!    `α_M = P(λ=+1 | voted, y=match)` and `α_U = P(λ=−1 | voted,
//!    y=non-match)`, plus class-conditional propensities
//!    `p_M, p_U = P(voted | y)` — abstention patterns are themselves
//!    informative (`size_unmatch` only fires when both sides carry a
//!    size). All parameters and the latent `y` are estimated by EM.
//!
//! 2. **Transitivity.** Each E-step optionally projects the posterior
//!    vector onto the ZeroER feasible set `γ_ij·γ_ik ≤ γ_jk`
//!    (see [`crate::transitivity`]).

use crate::patterns::{Resp, VotePatterns};
use crate::transitivity::{TransitivityGraph, TransitivityMode};
use crate::{logit, sigmoid, LabelModel};
use panda_lf::LabelMatrix;
use panda_table::CandidateSet;

/// 2-bit vote code → θ slot (`0` = +1, `1` = −1, `2` = abstain). The
/// reserved code `0b11` maps to abstain defensively; it is never stored.
pub(crate) const CODE_SLOT: [usize; 4] = [2, 0, 1, 2];

/// Dirichlet smoothing of each class's 3-way vote distribution.
pub(crate) const ALPHA: f64 = 0.5;

/// One multi-start EM run's outcome (diagnostics).
#[derive(Debug, Clone)]
pub struct StartDiagnostic {
    /// Which warm start produced this solution.
    pub init: &'static str,
    /// The selection score ([`informativeness`]-based).
    pub informativeness: f64,
    /// The converged posteriors.
    pub posteriors: Vec<f64>,
    /// The converged prior.
    pub prior: f64,
}

/// Fitted per-LF parameters (exposed for the LF Stats Panel and tests).
#[derive(Debug, Clone, Default)]
pub struct PandaLfParams {
    /// `P(λ=+1 | voted, y=match)` per LF.
    pub acc_match: Vec<f64>,
    /// `P(λ=−1 | voted, y=non-match)` per LF.
    pub acc_unmatch: Vec<f64>,
    /// `P(voted | y=match)` per LF.
    pub prop_match: Vec<f64>,
    /// `P(voted | y=non-match)` per LF.
    pub prop_unmatch: Vec<f64>,
}

/// The Panda labeling model.
#[derive(Debug, Clone)]
pub struct PandaModel {
    /// EM iterations.
    pub max_iters: usize,
    /// Convergence threshold on mean |Δγ|.
    pub tol: f64,
    /// Initial class prior.
    pub prior: f64,
    /// Re-estimate the prior each M-step.
    pub learn_prior: bool,
    /// Upper bound on the learned prior. Entity matching candidate sets
    /// are non-match dominated even after blocking; without the bound the
    /// anchored-accuracy EM has an "everything matches" fixed point it
    /// can run away into when evidence is weak (few LFs).
    pub max_prior: f64,
    /// Enable the transitivity projection with this node-identification
    /// mode. `None` disables it.
    pub transitivity: Option<TransitivityMode>,
    /// Projection sweeps per E-step.
    pub projection_sweeps: usize,
    /// Cap on enumerated triangles (0 = unlimited).
    pub max_triangles: usize,
    /// Fitted parameters after `fit_predict`.
    pub params: PandaLfParams,
    /// Fitted prior after `fit_predict`.
    pub fitted_prior: f64,
    /// Per-start diagnostics of the last fit (init name, selection score,
    /// posteriors). Exposed for ablation experiments and debugging.
    pub start_diagnostics: Vec<StartDiagnostic>,
    /// When set, LFs whose votes agree above this threshold are clustered
    /// and their evidence discounted by 1/cluster-size (see
    /// [`crate::correlation`]).
    pub correlation_threshold: Option<f64>,
    /// The chosen solution's per-LF vote distributions
    /// `[P(+1|y), P(−1|y), P(0|y)]` under `y = match` — kept so ad-hoc
    /// vote rows can be scored by replicating the E-step without a refit.
    pub fitted_theta_m: Vec<[f64; 3]>,
    /// Same under `y = non-match`.
    pub fitted_theta_u: Vec<[f64; 3]>,
    /// Evidence discounts the last fit used (all 1.0 without correlation
    /// clustering).
    pub fitted_discounts: Vec<f64>,
    /// Posterior vector to seed the next fit with (see
    /// [`LabelModel::set_warm_start`]). Consumed by `fit_predict`.
    pub warm_start: Option<Vec<f64>>,
}

impl Default for PandaModel {
    fn default() -> Self {
        PandaModel {
            max_iters: 100,
            tol: 1e-6,
            prior: 0.1,
            learn_prior: true,
            max_prior: 0.35,
            transitivity: None,
            projection_sweeps: 5,
            max_triangles: 500_000,
            params: PandaLfParams::default(),
            fitted_prior: 0.1,
            start_diagnostics: Vec::new(),
            correlation_threshold: None,
            fitted_theta_m: Vec::new(),
            fitted_theta_u: Vec::new(),
            fitted_discounts: Vec::new(),
            warm_start: None,
        }
    }
}

impl PandaModel {
    /// Default configuration (no transitivity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable the ZeroER transitivity projection.
    pub fn with_transitivity(mut self, mode: TransitivityMode) -> Self {
        self.transitivity = Some(mode);
        self
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

/// One converged EM run. `theta_m[j]` / `theta_u[j]` are each LF's
/// per-class vote distributions `[P(+1|y), P(−1|y), P(0|y)]`.
pub(crate) struct EmSolution {
    pub(crate) gamma: Resp,
    pub(crate) pi: f64,
    pub(crate) theta_m: Vec<[f64; 3]>,
    pub(crate) theta_u: Vec<[f64; 3]>,
    /// E/M iterations executed before convergence (or `max_iters`).
    pub(crate) iters: usize,
    /// Mean |Δγ| of the final E-step (≤ `tol` iff converged).
    pub(crate) final_delta: f64,
}

impl EmSolution {
    /// `P(λ=+1 | voted, y=match)` — the stats-panel view of θ_M.
    fn acc_match(&self, j: usize) -> f64 {
        let t = &self.theta_m[j];
        t[0] / (t[0] + t[1]).max(1e-12)
    }
    /// `P(λ=−1 | voted, y=non-match)`.
    fn acc_unmatch(&self, j: usize) -> f64 {
        let t = &self.theta_u[j];
        t[1] / (t[0] + t[1]).max(1e-12)
    }
    fn prop_match(&self, j: usize) -> f64 {
        self.theta_m[j][0] + self.theta_m[j][1]
    }
    fn prop_unmatch(&self, j: usize) -> f64 {
        self.theta_u[j][0] + self.theta_u[j][1]
    }
}

/// Solution-selection score: total LF **informativeness**.
///
/// For each LF, Youden's J statistic under the solution's own labeling —
/// `acc_M + acc_U − 1 ∈ [0, 1]` (0 = the LF's votes carry no information
/// about the clusters, 1 = votes separate them perfectly) — weighted by
/// how many votes the LF casts. Locally-optimal-but-wrong clusterings
/// necessarily *waste* strong LFs: explaining away a disagreeing phone LF
/// (fake name-similarity cluster) pools its accuracy to vacuous, and a
/// degenerate one-class solution pools everything. The correct clustering
/// is the one where the most vote mass is informative. (Model likelihood
/// is unusable here: the mixture can absorb all votes into one class, and
/// the abstention structure — which the E-step clamps for the same reason
/// — dominates the full likelihood.)
pub(crate) fn informativeness(lf_votes: &[[u64; 2]], sol: &EmSolution) -> f64 {
    lf_votes
        .iter()
        .enumerate()
        .map(|(j, &[n_match, n_unmatch])| {
            let votes = (n_match + n_unmatch) as f64;
            let youden = (sol.acc_match(j) + sol.acc_unmatch(j) - 1.0).max(0.0);
            votes * youden
        })
        .sum()
}

/// One LF's M-step: its smoothed per-class vote counts `cm`, `cu` (slots
/// `[+1, −1, abstain]`, [`ALPHA`] included) and the class masses `s_m`,
/// `s_u` → its vote distributions under match and non-match.
pub(crate) fn class_conditional(
    cm: [f64; 3],
    cu: [f64; 3],
    s_m: f64,
    s_u: f64,
) -> ([f64; 3], [f64; 3]) {
    let zm = s_m + 3.0 * ALPHA;
    let zu = s_u + 3.0 * ALPHA;
    let mut tm = [cm[0] / zm, cm[1] / zm, cm[2] / zm];
    let mut tu = [cu[0] / zu, cu[1] / zu, cu[2] / zu];

    // Polarity monotonicity (the "votes mean what they say"
    // identifiability constraint): a +1 vote may not be *less* likely
    // under match than under non-match, and vice versa for −1. A violating
    // estimate is pooled to the common rate, making the vote vacuous
    // instead of inverted. This replaces a hard 0.5 accuracy anchor, which
    // for one-sided LFs (never voting −1) manufactured spurious evidence
    // out of the unidentifiable side.
    if tm[0] < tu[0] {
        let pooled = (s_m * tm[0] + s_u * tu[0]) / (s_m + s_u).max(1e-9);
        tm[0] = pooled;
        tu[0] = pooled;
    }
    if tu[1] < tm[1] {
        let pooled = (s_m * tm[1] + s_u * tu[1]) / (s_m + s_u).max(1e-9);
        tm[1] = pooled;
        tu[1] = pooled;
    }
    // Renormalise (pooling perturbs the simplex slightly).
    for t in [&mut tm, &mut tu] {
        let z: f64 = t.iter().sum();
        for x in t.iter_mut() {
            *x = (*x / z).max(1e-4);
        }
    }
    (tm, tu)
}

/// Per-LF lookup tables for the E-step: 2-bit vote code → discounted,
/// clamped log-odds term. Entries use exactly the expression
/// [`LabelModel::posterior_for_votes`] replicates, so the table-driven
/// E-step and ad-hoc scoring agree bit-exactly. The reserved code `0b11`
/// maps to 0 (never stored).
pub(crate) fn vote_term_tables(
    theta_m: &[[f64; 3]],
    theta_u: &[[f64; 3]],
    discounts: &[f64],
) -> Vec<[f64; 4]> {
    theta_m
        .iter()
        .zip(theta_u)
        .zip(discounts)
        .map(|((tm, tu), &d)| {
            let term = |slot: usize| {
                let t = tm[slot].ln() - tu[slot].ln();
                let t = if slot == 2 {
                    t.clamp(-0.35, 0.35)
                } else {
                    t.clamp(-2.5, 2.5)
                };
                d * t
            };
            [term(2), term(0), term(1), 0.0]
        })
        .collect()
}

/// The transitivity projection's per-pair inputs, from per-row vote
/// counts. Pairs with no LF votes carry no evidence of their own: their
/// posterior is free to be set by the implication `γ_x·γ_y` (`movable`).
/// Each pair's evidence weight is `0.5 + votes cast` (`weights`).
fn projection_inputs(pat: &VotePatterns) -> (Vec<bool>, Vec<f64>) {
    pat.row_of()
        .iter()
        .map(|&r| {
            let cast = pat.tallies()[r as usize][1];
            (cast == 0, 0.5 + f64::from(cast))
        })
        .unzip()
}

impl PandaModel {
    /// Run EM to convergence from one start, in vote-pattern space: the
    /// E-step once per distinct row, the M-step from the exact
    /// count-weighted sums of [`VotePatterns::mass`]. A per-pair warm
    /// start is folded into per-row sums by its first M-step.
    fn em_run(
        &self,
        pat: &VotePatterns,
        discounts: &[f64],
        mut gamma: Resp,
        init: &'static str,
    ) -> EmSolution {
        let m = pat.n_lfs();
        let mut pi = self.prior;
        let mut theta_m = vec![[0.3f64, 0.3, 0.4]; m];
        let mut theta_u = vec![[0.3f64, 0.3, 0.4]; m];
        let mut iters = 0usize;
        let mut final_delta = f64::INFINITY;

        for _iter in 0..self.max_iters {
            iters += 1;
            // M-step from current responsibilities (iteration 0 consumes
            // the start): per class, each LF's vote distribution is a
            // smoothed 3-way categorical over {+1, −1, 0}.
            let mass = pat.mass(&gamma);
            let (s_m, s_u) = pat.classes(&mass);
            for j in 0..m {
                let (gm, gu) = pat.slots(&mass, j);
                (theta_m[j], theta_u[j]) =
                    class_conditional(gm.map(|x| ALPHA + x), gu.map(|x| ALPHA + x), s_m, s_u);
            }
            if self.learn_prior {
                pi = (s_m / pat.n_pairs() as f64).clamp(1e-4, self.max_prior);
            }

            // E-step: each LF contributes one of four precomputed terms
            // per row, selected by the 2-bit vote code.
            //
            // Abstention is evidence, but weak evidence: clamp its
            // log-odds so systematic abstention patterns cannot flip the
            // cluster semantics on their own. Vote evidence is clamped
            // too (generously): no single LF may contribute more than
            // ±2.5 nats, the equivalent of ~92% accuracy — the same role
            // the accuracy ceiling plays in the Snorkel baseline.
            let term_tables = vote_term_tables(&theta_m, &theta_u, discounts);
            final_delta = pat.e_step(logit(pi), &term_tables, &mut gamma);

            // Per-iteration provenance (journal only): the observed-data
            // log-likelihood (per row, weighted by its pair count) and
            // parameter means are extra work, so they are computed
            // exclusively when someone is recording.
            if panda_obs::journal_enabled() {
                let ln_tables: Vec<[(f64, f64); 4]> = theta_m
                    .iter()
                    .zip(&theta_u)
                    .map(|(tm, tu)| CODE_SLOT.map(|slot| (tm[slot].ln(), tu[slot].ln())))
                    .collect();
                let ll = pat.log_likelihood(pi, &ln_tables);
                let mean = |f: &dyn Fn(usize) -> f64| (0..m).map(f).sum::<f64>() / m.max(1) as f64;
                panda_obs::event("model.em.iter")
                    .field("model", "panda")
                    .field("init", init)
                    .field("iter", iters)
                    .field("ll", ll)
                    .field(
                        "alpha_m",
                        mean(&|j| {
                            let t = &theta_m[j];
                            t[0] / (t[0] + t[1]).max(1e-12)
                        }),
                    )
                    .field(
                        "alpha_u",
                        mean(&|j| {
                            let t = &theta_u[j];
                            t[1] / (t[0] + t[1]).max(1e-12)
                        }),
                    )
                    .field("delta", final_delta)
                    .field("pi", pi)
                    .emit();
            }
            if final_delta <= self.tol {
                break;
            }
        }
        EmSolution {
            gamma,
            pi,
            theta_m,
            theta_u,
            iters,
            final_delta,
        }
    }
}

impl LabelModel for PandaModel {
    fn name(&self) -> &'static str {
        if self.transitivity.is_some() {
            "panda+transitivity"
        } else {
            "panda"
        }
    }

    fn fit_predict(&mut self, matrix: &LabelMatrix, candidates: Option<&CandidateSet>) -> Vec<f64> {
        let _span = panda_obs::span("model.panda.fit");
        let n = matrix.n_pairs();
        let m = matrix.n_lfs();
        // Reset ALL fitted state on every entry: a degenerate matrix must
        // not leave diagnostics or parameters from a previous fit visible
        // as if this fit produced them. The warm start is consumed even on
        // the degenerate early return so a stale vector cannot leak into
        // a later fit of a different matrix.
        self.params = PandaLfParams::default();
        self.fitted_prior = self.prior;
        self.start_diagnostics.clear();
        self.fitted_theta_m.clear();
        self.fitted_theta_u.clear();
        self.fitted_discounts.clear();
        let warm = self.warm_start.take().filter(|w| w.len() == n);
        if n == 0 || m == 0 {
            return vec![self.prior; n];
        }

        let graph = match (&self.transitivity, candidates) {
            (Some(mode), Some(cands)) => {
                Some(TransitivityGraph::build(cands, *mode, self.max_triangles))
            }
            _ => None,
        };

        let discounts: Vec<f64> = match self.correlation_threshold {
            Some(t) => crate::correlation::evidence_discounts(matrix, t),
            None => vec![1.0; m],
        };
        let pat = VotePatterns::new(matrix);

        // Multi-start EM: the class-conditional model is flexible enough
        // to have locally-optimal but *wrong* clusterings (e.g. "cluster =
        // pairs with similar names", explaining away a disagreeing phone
        // LF by pushing its one-sided accuracy to the anchor). We run EM
        // from several warm starts and keep the solution with the highest
        // [`informativeness`] score (vote-weighted Youden's J under the
        // solution's own labeling — NOT the model likelihood, which the
        // one-class fixed point and the abstention structure dominate; see
        // the score's doc comment). Each start's score lands in
        // `start_diagnostics` and, when metrics are on, in the obs gauges
        // `model.panda.informativeness.<init>`.
        let snorkel_init = {
            // The rigid single-accuracy model can't "explain away" a
            // strong LF with class-conditional slack, so its optimum is a
            // high-quality warm start that the class-conditional EM then
            // refines. It runs on the same vote patterns.
            let _span = panda_obs::span("model.snorkel.fit");
            let mut sn = crate::SnorkelModel {
                prior: self.prior,
                learn_prior: self.learn_prior,
                max_prior: self.max_prior,
                ..crate::SnorkelModel::new()
            };
            sn.fit_patterns(&pat, vec![1.0; m], None)
        };
        // The shared cold starts (smoothed, majority, pessimistic) plus
        // the Snorkel baseline's converged posterior, one value per row.
        let mut inits = pat.cold_starts(self.prior);
        inits.push(("snorkel", snorkel_init));
        // Interactive refits (the serve loop's `POST .../fit`) seed EM
        // with the previously converged posterior. The informativeness
        // selection below still decides between all starts, so a stale
        // warm start after a large LF edit loses to a cold start instead
        // of trapping the fit in yesterday's optimum.
        if let Some(w) = warm {
            inits.push(("warm", Resp::Pairs(w)));
        }
        let mut best: Option<(f64, &'static str, EmSolution)> = None;
        let mut diagnostics = Vec::new();
        for (init_name, init) in inits {
            let sol = self.em_run(&pat, &discounts, init, init_name);
            let score = informativeness(pat.lf_votes(), &sol);
            if panda_obs::enabled() {
                panda_obs::counter_add(
                    &format!("model.panda.em_iters.{init_name}"),
                    sol.iters as u64,
                );
                panda_obs::gauge_set(&format!("model.panda.informativeness.{init_name}"), score);
                panda_obs::gauge_set(
                    &format!("model.panda.final_delta.{init_name}"),
                    sol.final_delta,
                );
            }
            diagnostics.push(StartDiagnostic {
                init: init_name,
                informativeness: score,
                posteriors: pat.to_pairs(&sol.gamma),
                prior: sol.pi,
            });
            if best.as_ref().map(|(b, ..)| score > *b).unwrap_or(true) {
                best = Some((score, init_name, sol));
            }
        }
        self.start_diagnostics = diagnostics;
        let (_, chosen_init, sol) = best.expect("at least one init");
        if panda_obs::enabled() {
            panda_obs::counter_add(&format!("model.panda.chosen_init.{chosen_init}"), 1);
        }
        let (acc_m, acc_u, prop_m, prop_u) = (
            (0..m).map(|j| sol.acc_match(j)).collect::<Vec<_>>(),
            (0..m).map(|j| sol.acc_unmatch(j)).collect::<Vec<_>>(),
            (0..m).map(|j| sol.prop_match(j)).collect::<Vec<_>>(),
            (0..m).map(|j| sol.prop_unmatch(j)).collect::<Vec<_>>(),
        );
        let (mut gamma, pi) = (pat.to_pairs(&sol.gamma), sol.pi);

        // Enforce the transitivity constraint on the output posteriors
        // (ZeroER projects the estimated probabilistic labels onto the
        // feasible set Q). Parameter estimation above uses the
        // *unprojected* responsibilities: feeding projected labels back
        // into the M-step lets systematic infeasibility (e.g. LFs that
        // abstain on one edge of every triangle) corrupt the accuracy
        // estimates and collapse the fit. Evidence weights make the
        // projection move weakly-voted pairs the most, so two confident
        // edges of a triangle pull up a missed third edge.
        if let Some(g) = &graph {
            let _span = panda_obs::span("model.transitivity.project");
            let recording = panda_obs::enabled() || panda_obs::journal_enabled();
            let pre_mass = if recording {
                g.violation_mass(&gamma)
            } else {
                0.0
            };
            if panda_obs::enabled() {
                panda_obs::gauge_set("model.transitivity.violation_mass_pre", pre_mass);
            }
            let (movable, weights) = projection_inputs(&pat);
            let raised = crate::transitivity::transitive_boost(
                &mut gamma,
                g,
                &movable,
                self.projection_sweeps.max(5),
            );
            // Residual violations among voted pairs: evidence-weighted
            // half-space projection (more votes = harder to move).
            let sweeps = crate::transitivity::project_transitivity_weighted(
                &mut gamma,
                g,
                Some(&weights),
                self.projection_sweeps.max(5),
                1e-6,
            );
            panda_obs::counter_add("model.transitivity.boosted", raised as u64);
            panda_obs::counter_add("model.transitivity.projection_sweeps", sweeps as u64);
            if panda_obs::enabled() {
                panda_obs::gauge_set(
                    "model.transitivity.violation_mass_post",
                    g.violation_mass(&gamma),
                );
            }
            // Journal summary: emitted even for triangle-free candidate
            // sets (two-table blocking often yields none), so a run's
            // journal always records that the projection stage ran.
            if panda_obs::journal_enabled() {
                panda_obs::event("model.transitivity.projection")
                    .field("triangles", g.n_triangles())
                    .field("boosted", raised)
                    .field("sweeps", sweeps)
                    .field("violation_mass_pre", pre_mass)
                    .field("violation_mass_post", g.violation_mass(&gamma))
                    .emit();
            }
        }

        self.params = PandaLfParams {
            acc_match: acc_m,
            acc_unmatch: acc_u,
            prop_match: prop_m,
            prop_unmatch: prop_u,
        };
        self.fitted_prior = pi;
        self.fitted_theta_m = sol.theta_m;
        self.fitted_theta_u = sol.theta_u;
        self.fitted_discounts = discounts;
        gamma
    }

    fn set_warm_start(&mut self, previous: &[f64]) {
        self.warm_start = Some(previous.to_vec());
    }

    /// Replicates the chosen solution's final E-step (including the
    /// abstain/vote clamps) for one vote row. A row already present in
    /// the fitted matrix scores bit-identically to its fitted posterior
    /// *before* the transitivity projection — ad-hoc pairs have no place
    /// in the pair graph, so the projection cannot apply to them.
    fn posterior_for_votes(&self, votes: &[i8]) -> Option<f64> {
        if self.fitted_theta_m.is_empty() || votes.len() != self.fitted_theta_m.len() {
            return None;
        }
        let mut lo = logit(self.fitted_prior);
        for (j, &v) in votes.iter().enumerate() {
            let slot = match v {
                1.. => 0,
                0 => 2,
                _ => 1,
            };
            let term = self.fitted_theta_m[j][slot].ln() - self.fitted_theta_u[j][slot].ln();
            let term = if slot == 2 {
                term.clamp(-0.35, 0.35)
            } else {
                term.clamp(-2.5, 2.5)
            };
            lo += self.fitted_discounts[j] * term;
        }
        Some(sigmoid(lo))
    }

    /// Blob layout: `[m, fitted_prior, θ_M flat (3m), θ_U flat (3m),
    /// fitted_discounts (m)]` — everything `posterior_for_votes` and a
    /// warm-started refit read.
    fn capture_fitted(&self) -> Option<Vec<f64>> {
        let m = self.fitted_theta_m.len();
        if self.fitted_theta_u.len() != m || self.fitted_discounts.len() != m {
            return None;
        }
        let mut blob = Vec::with_capacity(2 + 7 * m);
        blob.push(m as f64);
        blob.push(self.fitted_prior);
        for row in &self.fitted_theta_m {
            blob.extend_from_slice(row);
        }
        for row in &self.fitted_theta_u {
            blob.extend_from_slice(row);
        }
        blob.extend_from_slice(&self.fitted_discounts);
        Some(blob)
    }

    fn restore_fitted(&mut self, blob: &[f64]) -> bool {
        let Some(m) = crate::snorkel::decode_arity(blob, 7) else {
            return false;
        };
        let theta = |base: usize, j: usize| -> [f64; 3] {
            [
                blob[base + 3 * j],
                blob[base + 3 * j + 1],
                blob[base + 3 * j + 2],
            ]
        };
        self.fitted_prior = blob[1];
        self.fitted_theta_m = (0..m).map(|j| theta(2, j)).collect();
        self.fitted_theta_u = (0..m).map(|j| theta(2 + 3 * m, j)).collect();
        self.fitted_discounts = blob[2 + 6 * m..2 + 7 * m].to_vec();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{f1, plant, PlantedLf};
    use crate::SnorkelModel;
    use panda_lf::{ClosureLf, LfRegistry};
    use panda_table::{CandidatePair, Schema, Table, TablePair};
    use std::sync::Arc;

    #[test]
    fn recovers_class_conditional_accuracies() {
        let specs = [
            PlantedLf {
                propensity_m: 0.9,
                propensity_u: 0.9,
                acc_m: 0.9,
                acc_u: 0.6,
            },
            PlantedLf {
                propensity_m: 0.9,
                propensity_u: 0.9,
                acc_m: 0.55,
                acc_u: 0.92,
            },
            PlantedLf::symmetric(0.8, 0.8),
        ];
        let p = plant(6000, 0.3, &specs, 31);
        let mut model = PandaModel::new();
        let gamma = model.fit_predict(&p.matrix, None);
        assert!(f1(&gamma, &p.truth) > 0.7, "f1 {}", f1(&gamma, &p.truth));
        let pr = &model.params;
        assert!(
            (pr.acc_match[0] - 0.9).abs() < 0.08,
            "acc_m {:?}",
            pr.acc_match
        );
        assert!(
            (pr.acc_unmatch[0] - 0.6).abs() < 0.08,
            "acc_u {:?}",
            pr.acc_unmatch
        );
        assert!((pr.acc_match[1] - 0.55).abs() < 0.1);
        assert!((pr.acc_unmatch[1] - 0.92).abs() < 0.06);
    }

    #[test]
    fn beats_snorkel_under_class_imbalance() {
        // The paper's motivation: under imbalance + asymmetric LFs the
        // single-accuracy model mis-weights votes. Mix of match-precise
        // and unmatch-precise LFs at prior 0.05.
        let specs = [
            PlantedLf {
                propensity_m: 0.85,
                propensity_u: 0.85,
                acc_m: 0.92,
                acc_u: 0.55,
            },
            PlantedLf {
                propensity_m: 0.85,
                propensity_u: 0.85,
                acc_m: 0.9,
                acc_u: 0.6,
            },
            PlantedLf {
                propensity_m: 0.85,
                propensity_u: 0.85,
                acc_m: 0.55,
                acc_u: 0.9,
            },
            PlantedLf {
                propensity_m: 0.6,
                propensity_u: 0.95,
                acc_m: 0.6,
                acc_u: 0.93,
            },
            PlantedLf {
                propensity_m: 0.9,
                propensity_u: 0.4,
                acc_m: 0.88,
                acc_u: 0.5,
            },
        ];
        let p = plant(8000, 0.05, &specs, 37);
        let f1_panda = f1(&PandaModel::new().fit_predict(&p.matrix, None), &p.truth);
        let f1_snorkel = f1(&SnorkelModel::new().fit_predict(&p.matrix, None), &p.truth);
        assert!(
            f1_panda > f1_snorkel,
            "panda {f1_panda:.3} must beat snorkel {f1_snorkel:.3} under imbalance"
        );
    }

    #[test]
    fn multi_start_diagnostics_are_exposed() {
        let p = plant(400, 0.2, &[PlantedLf::symmetric(0.8, 0.85); 3], 71);
        let mut model = PandaModel::new();
        let gamma = model.fit_predict(&p.matrix, None);
        assert_eq!(model.start_diagnostics.len(), 4, "four warm starts");
        let names: Vec<&str> = model.start_diagnostics.iter().map(|d| d.init).collect();
        assert_eq!(
            names,
            vec!["smoothed", "majority", "pessimistic", "snorkel"]
        );
        for d in &model.start_diagnostics {
            assert_eq!(d.posteriors.len(), gamma.len());
            assert!(d.informativeness >= 0.0);
            assert!((0.0..=1.0).contains(&d.prior));
        }
        // The returned posteriors are the best-scoring start's.
        let best = model
            .start_diagnostics
            .iter()
            .max_by(|a, b| a.informativeness.total_cmp(&b.informativeness))
            .unwrap();
        assert_eq!(best.posteriors, gamma);
    }

    #[test]
    fn one_sided_lf_does_not_manufacture_evidence() {
        // An LF that votes +1 on EVERY pair regardless of class: under the
        // categorical parametrization with polarity pooling its votes must
        // be vacuous — posteriors equal those of a fit without it.
        let specs = [
            PlantedLf::symmetric(0.9, 0.85),
            PlantedLf::symmetric(0.8, 0.8),
        ];
        let p = plant(2000, 0.1, &specs, 73);
        let base = PandaModel::new().fit_predict(&p.matrix, None);

        let c0: Vec<i8> = p.matrix.column("planted_0").unwrap();
        let c1: Vec<i8> = p.matrix.column("planted_1").unwrap();
        let mut reg = panda_lf::LfRegistry::new();
        for (name, col) in [("a", c0), ("b", c1)] {
            reg.upsert(Arc::new(ClosureLf::new(name, move |pr| {
                panda_lf::Label::from_i8(col[pr.pair.left.0 as usize])
            })));
        }
        reg.upsert(Arc::new(ClosureLf::new("always_yes", |_| {
            panda_lf::Label::Match
        })));
        let mut matrix = panda_lf::LabelMatrix::new();
        matrix.apply(&reg, &p.tables, &p.candidates);
        let with_vacuous = PandaModel::new().fit_predict(&matrix, None);

        let f1_base = f1(&base, &p.truth);
        let f1_with = f1(&with_vacuous, &p.truth);
        assert!(
            (f1_base - f1_with).abs() < 0.05,
            "constant LF must be ~vacuous: {f1_base:.3} vs {f1_with:.3}"
        );
    }

    #[test]
    fn adhoc_scoring_matches_fitted_posteriors_bit_exactly() {
        let p = plant(600, 0.2, &[PlantedLf::symmetric(0.85, 0.8); 3], 47);
        let mut model = PandaModel::new();
        let gamma = model.fit_predict(&p.matrix, None);
        for (i, g) in gamma.iter().enumerate() {
            let row = p.matrix.row(i);
            assert_eq!(
                model.posterior_for_votes(&row),
                Some(*g),
                "ad-hoc scoring replicates the final E-step on row {i}"
            );
        }
        // Wrong arity and the unfitted model both refuse to score.
        assert_eq!(model.posterior_for_votes(&[1i8]), None);
        assert_eq!(PandaModel::new().posterior_for_votes(&[1i8, 0, -1]), None);
    }

    #[test]
    fn warm_start_adds_a_fifth_start_and_is_consumed() {
        let p = plant(500, 0.2, &[PlantedLf::symmetric(0.85, 0.8); 3], 53);
        let mut model = PandaModel::new();
        let cold = model.fit_predict(&p.matrix, None);
        assert_eq!(model.start_diagnostics.len(), 4);

        model.set_warm_start(&cold);
        let warm = model.fit_predict(&p.matrix, None);
        let names: Vec<&str> = model.start_diagnostics.iter().map(|d| d.init).collect();
        assert_eq!(
            names,
            vec!["smoothed", "majority", "pessimistic", "snorkel", "warm"]
        );
        // Warm-starting from the converged solution stays in its basin
        // (one extra M+E round perturbs θ within the convergence
        // tolerance, so bit-identity is not expected — stability is).
        let drift = warm
            .iter()
            .zip(&cold)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(drift < 0.05, "refit stays near the fixed point: {drift}");
        let same_side = warm
            .iter()
            .zip(&cold)
            .all(|(a, b)| (*a >= 0.5) == (*b >= 0.5));
        assert!(same_side, "no decision flips on refit");
        // The warm start was consumed: the next fit is cold again.
        model.fit_predict(&p.matrix, None);
        assert_eq!(model.start_diagnostics.len(), 4);
    }

    #[test]
    fn mismatched_warm_start_is_ignored() {
        let p = plant(300, 0.2, &[PlantedLf::symmetric(0.85, 0.8); 2], 59);
        let mut model = PandaModel::new();
        model.set_warm_start(&[0.5; 7]); // wrong length for this matrix
        model.fit_predict(&p.matrix, None);
        assert_eq!(model.start_diagnostics.len(), 4, "bad warm start dropped");
    }

    /// The projection inputs from per-row counts equal the decoded-column
    /// formula bit for bit.
    #[test]
    fn projection_inputs_equal_the_decoded_column_formula() {
        let p = plant(
            900,
            0.2,
            &[
                PlantedLf::symmetric(0.3, 0.8),
                PlantedLf::symmetric(0.5, 0.7),
                PlantedLf::symmetric(0.2, 0.9),
            ],
            83,
        );
        let cols: Vec<Vec<i8>> = p.matrix.columns().map(|(_, c)| c).collect();
        let movable: Vec<bool> = (0..900).map(|i| cols.iter().all(|c| c[i] == 0)).collect();
        let weights: Vec<u64> = (0..900)
            .map(|i| (0.5 + cols.iter().filter(|c| c[i] != 0).count() as f64).to_bits())
            .collect();
        assert!(movable.contains(&true) && movable.contains(&false));
        let (got_movable, got_weights) = projection_inputs(&VotePatterns::new(&p.matrix));
        assert_eq!(got_movable, movable);
        assert_eq!(
            got_weights.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
            weights
        );
    }

    #[test]
    fn posteriors_in_unit_interval_and_deterministic() {
        let p = plant(800, 0.15, &[PlantedLf::symmetric(0.7, 0.8); 4], 41);
        let g1 = PandaModel::new().fit_predict(&p.matrix, None);
        let g2 = PandaModel::new().fit_predict(&p.matrix, None);
        assert_eq!(g1, g2, "fit is deterministic");
        assert!(g1.iter().all(|g| (0.0..=1.0).contains(g)));
    }

    #[test]
    fn empty_matrix_returns_prior() {
        let p = plant(4, 0.5, &[], 43);
        let mut model = PandaModel::new().with_fixed_prior(0.25);
        assert_eq!(model.fit_predict(&p.matrix, None), vec![0.25; 4]);
    }

    /// Transitivity repairs a missed within-cluster edge: two confident
    /// edges of a triangle pull the third above threshold.
    #[test]
    fn transitivity_recovers_missed_cluster_edges() {
        // Self-join over 30 records: 10 clusters of 3 (records 3k, 3k+1,
        // 3k+2 are the same entity). Candidates: all within-cluster pairs
        // + a ring of cross-cluster distractor pairs.
        let schema = Schema::of_text(&["k"]);
        let mut t = Table::new("t", schema);
        for i in 0..30 {
            t.push(vec![format!("{i}")]).unwrap();
        }
        let tables = TablePair::new(t.clone(), t);
        let mut pairs = Vec::new();
        let mut truth = Vec::new();
        for k in 0..10u32 {
            let (a, b, c) = (3 * k, 3 * k + 1, 3 * k + 2);
            for (x, y) in [(a, b), (a, c), (b, c)] {
                pairs.push(CandidatePair::new(x, y));
                truth.push(true);
            }
            // distractor to the next cluster
            pairs.push(CandidatePair::new(a, (3 * (k + 1)) % 30));
            truth.push(false);
        }
        let candidates = panda_table::CandidateSet::from_pairs(pairs.clone());

        // Two LFs: both confidently label the first two edges of each
        // triangle and the distractors, but ABSTAIN on every third edge
        // (b,c) — the "hard" pair a pure per-pair model can only assign
        // the prior.
        let mk = |name: &str| {
            let pairs = pairs.clone();
            Arc::new(ClosureLf::new(name.to_string(), move |p| {
                let idx = pairs.iter().position(|q| *q == p.pair).expect("pair known");
                match idx % 4 {
                    0 | 1 => panda_lf::Label::Match, // (a,b), (a,c)
                    2 => panda_lf::Label::Abstain,   // (b,c) — missed
                    _ => panda_lf::Label::NonMatch,  // distractor
                }
            }))
        };
        let mut reg = LfRegistry::new();
        reg.upsert(mk("lf1"));
        reg.upsert(mk("lf2"));
        let mut matrix = panda_lf::LabelMatrix::new();
        matrix.apply(&reg, &tables, &candidates);

        let base = PandaModel::new()
            .with_fixed_prior(0.2)
            .fit_predict(&matrix, Some(&candidates));
        let trans = PandaModel::new()
            .with_fixed_prior(0.2)
            .with_transitivity(TransitivityMode::SelfJoin)
            .fit_predict(&matrix, Some(&candidates));

        let f1_base = f1(&base, &truth);
        let f1_trans = f1(&trans, &truth);
        assert!(
            f1_trans > f1_base + 0.05,
            "transitivity {f1_trans:.3} must beat base {f1_base:.3}"
        );
        // Specifically: the abstained (b,c) edges must be pulled up.
        let bc_mean_base: f64 = (0..10).map(|k| base[4 * k + 2]).sum::<f64>() / 10.0;
        let bc_mean_trans: f64 = (0..10).map(|k| trans[4 * k + 2]).sum::<f64>() / 10.0;
        assert!(
            bc_mean_trans > bc_mean_base + 0.1,
            "missed edges pulled up: {bc_mean_base:.3} → {bc_mean_trans:.3}"
        );
    }
}
