//! Label-free precision estimation under the reference-table assumption.

use panda_table::{CandidateSet, RecordId};
use std::collections::HashMap;

/// The outcome of estimating one join rule (config + threshold).
#[derive(Debug, Clone, PartialEq)]
pub struct PrecisionEstimate {
    /// Pairs the rule joins (score ≥ threshold).
    pub joined: usize,
    /// Uniqueness violations: joins beyond the first per right record.
    /// Each is a certain false positive if the left table is
    /// duplicate-free.
    pub violations: usize,
    /// `1 − violations / joined` (1.0 for an empty join).
    pub est_precision: f64,
    /// `joined − violations` — the estimated number of correct pairs,
    /// which doubles as the recall proxy used to rank configs.
    pub est_support: usize,
}

/// Estimate the precision of the join `{pair : score(pair) ≥ θ}` at every
/// threshold θ of `thresholds` (in any order), from one pass over the
/// scores.
///
/// `scored` holds `(candidate index, score)` for every candidate pair;
/// `candidates` supplies the pair endpoints. A duplicate-free left table
/// admits at most one correct assignment per right record, so the joins
/// beyond the first per right record are a lower bound on false positives
/// (Auto-FuzzyJoin's core estimator). `joined(θ)` counts the pairs
/// scoring ≥ θ, and `est_support(θ)` the right records whose best score
/// is ≥ θ — the right records joined at θ — so `violations` is
/// `joined − est_support`. A pair joins unless it scores below θ, so a NaN
/// score joins at every threshold and every score joins at a NaN
/// threshold.
pub fn estimate_thresholds(
    scored: &[(usize, f64)],
    candidates: &CandidateSet,
    thresholds: &[f64],
) -> Vec<PrecisionEstimate> {
    let mut joined = vec![0usize; thresholds.len()];
    // Best score per right record id; NaN marks a record with no pair.
    let mut best: Vec<f64> = Vec::new();
    for &(idx, score) in scored {
        // A NaN score joins at every threshold, as +∞ does.
        let score = if score.is_nan() { f64::INFINITY } else { score };
        for (n, &theta) in joined.iter_mut().zip(thresholds) {
            *n += usize::from(joins(score, theta));
        }
        let right = candidates.get(idx).expect("scored index in range").right.0 as usize;
        if right >= best.len() {
            best.resize(right + 1, f64::NAN);
        }
        if best[right].is_nan() || score > best[right] {
            best[right] = score;
        }
    }
    let best: Vec<f64> = best.into_iter().filter(|b| !b.is_nan()).collect();
    thresholds
        .iter()
        .zip(joined)
        .map(|(&theta, joined)| {
            let est_support = best.iter().filter(|&&b| joins(b, theta)).count();
            let violations = joined - est_support;
            PrecisionEstimate {
                joined,
                violations,
                est_precision: if joined == 0 {
                    1.0
                } else {
                    1.0 - violations as f64 / joined as f64
                },
                est_support,
            }
        })
        .collect()
}

/// The join test: a pair joins unless it scores below `theta`.
fn joins(score: f64, theta: f64) -> bool {
    score.partial_cmp(&theta) != Some(std::cmp::Ordering::Less)
}

/// Estimate the union of several join rules: the union of their joined
/// pair sets, evaluated with the same uniqueness counting.
pub fn estimate_union(joined_sets: &[&Vec<usize>], candidates: &CandidateSet) -> PrecisionEstimate {
    let mut seen = std::collections::HashSet::new();
    let mut per_right: HashMap<RecordId, u32> = HashMap::new();
    for set in joined_sets {
        for &idx in set.iter() {
            if !seen.insert(idx) {
                continue;
            }
            let pair = candidates.get(idx).expect("index in range");
            *per_right.entry(pair.right).or_insert(0) += 1;
        }
    }
    let joined = seen.len();
    let violations: usize = per_right
        .values()
        .map(|&c| (c.saturating_sub(1)) as usize)
        .sum();
    PrecisionEstimate {
        joined,
        violations,
        est_precision: if joined == 0 {
            1.0
        } else {
            1.0 - violations as f64 / joined as f64
        },
        est_support: joined - violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_table::CandidatePair;

    /// Oracle: the estimate at one threshold by counting, for every right
    /// record, the left records it gets joined to — the per-threshold
    /// estimator `estimate_thresholds` replaced.
    fn estimate_precision(
        scored: &[(usize, f64)],
        candidates: &CandidateSet,
        threshold: f64,
    ) -> PrecisionEstimate {
        let mut per_right: HashMap<RecordId, u32> = HashMap::new();
        let mut joined = 0usize;
        for &(idx, score) in scored {
            if score < threshold {
                continue;
            }
            let pair = candidates.get(idx).expect("scored index in range");
            joined += 1;
            *per_right.entry(pair.right).or_insert(0) += 1;
        }
        let violations: usize = per_right
            .values()
            .map(|&c| (c.saturating_sub(1)) as usize)
            .sum();
        let est_precision = if joined == 0 {
            1.0
        } else {
            1.0 - violations as f64 / joined as f64
        };
        PrecisionEstimate {
            joined,
            violations,
            est_precision,
            est_support: joined - violations,
        }
    }

    /// The one-pass estimate at the single threshold `theta`.
    fn estimate_at(scored: &[(usize, f64)], cands: &CandidateSet, theta: f64) -> PrecisionEstimate {
        estimate_thresholds(scored, cands, &[theta]).remove(0)
    }

    fn cands() -> CandidateSet {
        // right record 0 is reachable from left 0 and left 1.
        CandidateSet::from_pairs([
            CandidatePair::new(0, 0),
            CandidatePair::new(1, 0),
            CandidatePair::new(1, 1),
            CandidatePair::new(2, 2),
        ])
    }

    #[test]
    fn clean_join_has_full_precision() {
        let scored = vec![(0, 0.9), (1, 0.2), (2, 0.8), (3, 0.95)];
        let e = estimate_at(&scored, &cands(), 0.5);
        assert_eq!(e.joined, 3);
        assert_eq!(e.violations, 0);
        assert_eq!(e.est_precision, 1.0);
        assert_eq!(e.est_support, 3);
    }

    #[test]
    fn double_assignment_is_a_violation() {
        // Both left 0 and left 1 join right 0 → one must be wrong.
        let scored = vec![(0, 0.9), (1, 0.85), (2, 0.8), (3, 0.9)];
        let e = estimate_at(&scored, &cands(), 0.5);
        assert_eq!(e.joined, 4);
        assert_eq!(e.violations, 1);
        assert!((e.est_precision - 0.75).abs() < 1e-12);
        assert_eq!(e.est_support, 3);
    }

    #[test]
    fn raising_threshold_raises_estimated_precision_here() {
        let scored = vec![(0, 0.9), (1, 0.55), (2, 0.8), (3, 0.9)];
        let loose = estimate_at(&scored, &cands(), 0.5);
        let tight = estimate_at(&scored, &cands(), 0.6);
        assert!(tight.est_precision > loose.est_precision);
        assert!(tight.joined < loose.joined);
    }

    #[test]
    fn empty_join_is_vacuously_precise() {
        let e = estimate_at(&[(0, 0.1)], &cands(), 0.9);
        assert_eq!(e.joined, 0);
        assert_eq!(e.est_precision, 1.0);
        assert_eq!(e.est_support, 0);
    }

    proptest::proptest! {
        /// Every threshold's one-pass estimate equals `estimate_precision`
        /// at that threshold: unsorted and repeated thresholds, NaN
        /// thresholds and scores, scores on both sides of every threshold.
        #[test]
        fn one_pass_estimates_match_per_threshold_estimates(
            pairs in proptest::collection::vec((0u32..6, 0u32..5), 0..24),
            scores in proptest::collection::vec(0usize..8, 24),
            thresholds in proptest::collection::vec(0usize..8, 0..16),
        ) {
            let value = |k: usize| [f64::NAN, -1.0, 0.0, 0.25, 0.5, 0.75, 1.0, 0.6][k];
            let cands = CandidateSet::from_pairs(pairs.iter().map(|&(l, r)| CandidatePair::new(l, r)));
            let scored: Vec<(usize, f64)> = (0..cands.len()).map(|i| (i, value(scores[i]))).collect();
            let thresholds: Vec<f64> = thresholds.into_iter().map(value).collect();
            let all = estimate_thresholds(&scored, &cands, &thresholds);
            proptest::prop_assert_eq!(all.len(), thresholds.len());
            for (est, &theta) in all.iter().zip(&thresholds) {
                proptest::prop_assert_eq!(est, &estimate_precision(&scored, &cands, theta));
            }
        }
    }

    #[test]
    fn nan_scores_join_at_every_threshold() {
        let scored = vec![(0, f64::NAN), (1, 0.9), (2, f64::NAN), (3, 0.1)];
        let all = estimate_thresholds(&scored, &cands(), &[0.95, 0.5, f64::NAN]);
        for (est, theta) in all.iter().zip([0.95, 0.5, f64::NAN]) {
            assert_eq!(est, &estimate_precision(&scored, &cands(), theta));
        }
        assert_eq!((all[0].joined, all[0].est_support), (2, 2));
        assert_eq!((all[1].joined, all[1].violations), (3, 1));
        assert_eq!(all[2].joined, 4, "every pair joins at a NaN threshold");
    }

    #[test]
    fn union_counts_shared_right_records() {
        let a = vec![0usize, 3];
        let b = vec![1usize, 3]; // adds (1,0): right 0 now doubly assigned
        let e = estimate_union(&[&a, &b], &cands());
        assert_eq!(e.joined, 3);
        assert_eq!(e.violations, 1);
    }
}
