//! Labeling models: from noisy LF votes to probabilistic labels.
//!
//! Given the label matrix `Λ ∈ {−1,0,+1}^{pairs × LFs}`, a labeling model
//! estimates `γ_i = P(y_i = match | Λ_i)` for every candidate pair. This
//! crate implements three models plus the transitivity constraint:
//!
//! * [`MajorityVote`] — the trivial baseline: fraction of +1 among
//!   non-abstain votes.
//! * [`SnorkelModel`] — the data-programming generative model of
//!   Ratner et al. (the model behind Snorkel): one accuracy and one
//!   propensity parameter per LF, conditionally independent given `y`,
//!   fit by EM. This is the "state-of-the-art labeling model [11]" the
//!   paper compares against.
//! * [`PandaModel`] — the paper's EM-specific model (§2.1 feature 3):
//!   **class-conditional** accuracies `α_M` (on matches) and `α_U` (on
//!   non-matches) with class-conditional propensities, fit by EM. Under
//!   EM's heavy class imbalance a single accuracy parameter conflates
//!   "right on matches" with "right on non-matches" (a constant −1 LF
//!   looks 99% accurate); splitting the parameter fixes that. Optionally,
//!   each E-step projects the posteriors onto the **transitivity-feasible
//!   set** `γ_ij · γ_ik ≤ γ_jk` (ZeroER, [`transitivity`]).
//!
//! All models implement [`LabelModel`] and return calibrated-ish
//! probabilities in `[0,1]`; `predictions` thresholds at 0.5.
//!
//! Both EM models fit in **vote-pattern space**: EM sees a pair only
//! through its row of votes, so each distinct row is visited once per
//! iteration, weighted by how many pairs carry it, and every sum over
//! responsibilities is exact — a fit does not depend on pair order.
//!
//! ```
//! use panda_model::{LabelModel, PandaModel, testutil};
//!
//! // A planted problem: 500 pairs, 20% matches, three noisy LFs.
//! let planted = testutil::plant(
//!     500,
//!     0.2,
//!     &[testutil::PlantedLf::symmetric(0.9, 0.85); 3],
//!     7,
//! );
//! let mut model = PandaModel::new();
//! let posteriors = model.fit_predict(&planted.matrix, Some(&planted.candidates));
//! let f1 = testutil::f1(&posteriors, &planted.truth);
//! assert!(f1 > 0.7, "recovers the planted labels: F1 {f1:.3}");
//! ```

pub mod correlation;
pub mod majority;
#[cfg(test)]
mod oracle;
pub mod panda;
mod patterns;
pub mod snorkel;
#[doc(hidden)]
pub mod testutil;
pub mod transitivity;

pub use correlation::{evidence_discounts, redundancy_clusters, vote_agreement};
pub use majority::MajorityVote;
pub use panda::PandaModel;
pub use snorkel::SnorkelModel;
pub use transitivity::{project_transitivity, TransitivityGraph, TransitivityMode};

use panda_lf::LabelMatrix;
use panda_table::CandidateSet;

/// A labeling model: fits to a label matrix and produces per-pair match
/// posteriors.
///
/// `Send` is a supertrait so a fitted model can ride inside a session
/// that crosses threads (the serving layer keeps sessions behind an
/// `Arc<Mutex<_>>` shared by a worker pool).
pub trait LabelModel: Send {
    /// Model name for reports.
    fn name(&self) -> &'static str;

    /// Fit to the matrix and return `P(match)` per candidate pair.
    ///
    /// `candidates` supplies the pair graph for models that exploit
    /// structure between pairs (transitivity); models that don't need it
    /// ignore it.
    fn fit_predict(&mut self, matrix: &LabelMatrix, candidates: Option<&CandidateSet>) -> Vec<f64>;

    /// Seed the **next** `fit_predict` with a previously converged
    /// posterior vector (one entry per pair of the matrix that fit will
    /// see). EM models add it as an extra warm start, so an interactive
    /// refit after a small LF edit converges from where the last fit
    /// ended instead of from scratch; the multi-start selection rule
    /// still applies, so a stale warm start cannot make the fit *worse*.
    /// Consumed by the next fit. Default: ignored (closed-form models
    /// don't iterate).
    fn set_warm_start(&mut self, _previous: &[f64]) {}

    /// Score one **ad-hoc** vote row (registry order, same arity as the
    /// fitted matrix) against the parameters of the last `fit_predict` —
    /// the serving path of `POST /match`, which must not refit. Returns
    /// `None` when the model was never fitted, the arity differs, or the
    /// model has no per-LF parameters to score with. For EM models this
    /// replicates the final E-step exactly, so a row already in the
    /// fitted matrix scores bit-identically to its fitted posterior
    /// (before any transitivity projection).
    fn posterior_for_votes(&self, _votes: &[i8]) -> Option<f64> {
        None
    }

    /// Export the fitted parameters as a flat `f64` blob, or `None` when
    /// the model cannot serialize its fitted state (or was never fitted
    /// in a way that leaves scoreable parameters). The blob is an opaque,
    /// model-specific encoding; the only contract is that feeding it to
    /// [`LabelModel::restore_fitted`] on a freshly built model of the
    /// same configuration makes `posterior_for_votes` and warm-started
    /// refits behave **bit-identically** to the original. The durable
    /// session store persists this blob (as `f64::to_bits` words) so a
    /// recovered session can score `POST /match` without a refit.
    fn capture_fitted(&self) -> Option<Vec<f64>> {
        None
    }

    /// Install fitted parameters previously exported by
    /// [`LabelModel::capture_fitted`] from a model of the same
    /// configuration. Returns `false` when the blob does not decode for
    /// this model (wrong model kind, corrupt length); the model is left
    /// unfitted in that case. Default: reject every blob.
    fn restore_fitted(&mut self, _blob: &[f64]) -> bool {
        false
    }
}

/// Threshold posteriors into hard decisions at `0.5`.
pub fn predictions(posteriors: &[f64]) -> Vec<bool> {
    posteriors.iter().map(|&g| g >= 0.5).collect()
}

/// Numerically safe logit.
pub(crate) fn logit(p: f64) -> f64 {
    let p = p.clamp(1e-9, 1.0 - 1e-9);
    (p / (1.0 - p)).ln()
}

/// Numerically safe sigmoid.
pub(crate) fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_logit_inverse() {
        for p in [0.01, 0.3, 0.5, 0.77, 0.99] {
            assert!((sigmoid(logit(p)) - p).abs() < 1e-9);
        }
        assert!(sigmoid(-800.0) >= 0.0);
        assert!(sigmoid(800.0) <= 1.0);
    }

    #[test]
    fn predictions_threshold() {
        assert_eq!(predictions(&[0.2, 0.5, 0.9]), vec![false, true, true]);
    }

    /// Capture → restore into a *fresh* model must replicate ad-hoc
    /// scoring bit-exactly — the contract the durable session store
    /// relies on to serve `POST /match` after a restart without a refit.
    #[test]
    fn capture_restore_round_trips_bit_exactly() {
        let p = testutil::plant(400, 0.25, &[testutil::PlantedLf::symmetric(0.9, 0.8); 3], 5);
        let rows: Vec<Vec<i8>> = vec![
            vec![1, 1, 1],
            vec![1, 0, -1],
            vec![-1, -1, -1],
            vec![0, 0, 0],
        ];

        let mut panda = PandaModel::new();
        panda.fit_predict(&p.matrix, None);
        let mut snorkel = SnorkelModel::new();
        snorkel.fit_predict(&p.matrix, None);
        let majority = MajorityVote::default();

        let fitted: Vec<Box<dyn LabelModel>> =
            vec![Box::new(panda), Box::new(snorkel), Box::new(majority)];
        let fresh: Vec<Box<dyn LabelModel>> = vec![
            Box::new(PandaModel::new()),
            Box::new(SnorkelModel::new()),
            Box::new(MajorityVote::default()),
        ];
        for (orig, mut copy) in fitted.into_iter().zip(fresh) {
            let blob = orig.capture_fitted().expect("fitted state captures");
            assert!(copy.restore_fitted(&blob), "{} restores", orig.name());
            for row in &rows {
                let a = orig.posterior_for_votes(row);
                let b = copy.posterior_for_votes(row);
                assert_eq!(
                    a.map(f64::to_bits),
                    b.map(f64::to_bits),
                    "{} bit-exact on {row:?}",
                    orig.name()
                );
            }
            // A truncated blob must be rejected and leave the model alone.
            if !blob.is_empty() {
                let mut other: Box<dyn LabelModel> = Box::new(PandaModel::new());
                assert!(!other.restore_fitted(&blob[..blob.len() - 1]));
            }
        }
    }
}
