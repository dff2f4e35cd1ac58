//! Smart data sampling (paper §2.1, feature 1.1).
//!
//! Random candidate pairs are almost all non-matches (class imbalance), so
//! showing random pairs wastes the user's attention. Panda instead shows
//! pairs that are *likely matches* according to a cheap model-independent
//! signal — the blocking embeddings' cosine similarity — but that the
//! current labeling model does **not** label as matches. Those are exactly
//! the pairs worth writing the next LF about.

use panda_lf::matrix::{lane_indices, vote_masks};
use panda_lf::{LabelMatrix, VOTES_PER_WORD};
use std::cmp::Ordering;

/// Rank candidate indices for the "Show" button.
///
/// * `likelihood[i]` — embedding cosine of pair `i` (the "likelihood of
///   matching" column in the Data Viewer),
/// * `posteriors[i]` — current model γ (pairs with γ ≥ 0.5 are already
///   found; they are excluded),
/// * `already_shown` — pairs surfaced before are excluded so successive
///   clicks walk down the ranking instead of repeating it.
///
/// Returns up to `k` indices, highest likelihood first (ties by index).
pub fn smart_sample(
    likelihood: &[f64],
    posteriors: &[f64],
    already_shown: &[bool],
    k: usize,
) -> Vec<usize> {
    assert_eq!(
        likelihood.len(),
        posteriors.len(),
        "smart_sample: likelihood and posteriors must align with the candidate set"
    );
    assert_eq!(
        likelihood.len(),
        already_shown.len(),
        "smart_sample: already_shown must align with the candidate set"
    );
    let eligible = (0..likelihood.len())
        .filter(|&i| posteriors[i] < 0.5 && !already_shown[i])
        .map(|i| (likelihood[i], i))
        .collect();
    top_k(eligible, k, |a, b| b.total_cmp(&a))
}

/// Uncertainty sampling: pairs the model is *least sure* about
/// (γ nearest 0.5, ties by index), not yet shown. Complements
/// [`smart_sample`]: the smart sampler hunts missed matches (recall);
/// uncertainty sampling hunts the decision boundary, where one user label
/// or one new LF moves the most pairs.
pub fn uncertainty_sample(posteriors: &[f64], already_shown: &[bool], k: usize) -> Vec<usize> {
    assert_eq!(
        posteriors.len(),
        already_shown.len(),
        "uncertainty_sample: already_shown must align with posteriors"
    );
    let eligible = (0..posteriors.len())
        .filter(|&i| !already_shown[i])
        .map(|i| ((posteriors[i] - 0.5).abs(), i))
        .collect();
    top_k(eligible, k, |a, b| a.total_cmp(&b))
}

/// Disagreement sampling: pairs where LFs conflict (both a +1 and a −1
/// vote), ranked by how evenly split the votes are (ties by index).
/// These are the pairs whose inspection most often reveals which LF
/// needs fixing (Step 4 material).
///
/// Reads the packed words: only lanes in both union masks
/// ([`LabelMatrix::word_union`]) are tallied per LF.
pub fn disagreement_sample(matrix: &LabelMatrix, already_shown: &[bool], k: usize) -> Vec<usize> {
    assert_eq!(
        matrix.n_pairs(),
        already_shown.len(),
        "disagreement_sample: already_shown must align with the label matrix"
    );
    let columns: Vec<&[u64]> = matrix.packed_columns().map(|(_, v)| v.words()).collect();
    let mut scored: Vec<(f64, usize)> = Vec::new();
    for w in 0..matrix.n_words() {
        let any = matrix.word_union(w);
        for i in lane_indices(w, any.pos & any.neg) {
            if already_shown[i] {
                continue;
            }
            let shift = 2 * (i % VOTES_PER_WORD);
            let (mut pos, mut neg) = (0usize, 0usize);
            for words in &columns {
                let (p, n) = vote_masks(words[w] >> shift);
                pos += (p & 1) as usize;
                neg += (n & 1) as usize;
            }
            // Evenness: min/max vote split in (0, 1].
            scored.push((pos.min(neg) as f64 / pos.max(neg) as f64, i));
        }
    }
    top_k(scored, k, |a, b| b.total_cmp(&a))
}

/// The indices of the first `k` of `(key, index)` items, ranked by
/// `key_order` on the keys and then by ascending index — what a stable
/// full sort by `key_order` of the items, built in index order, then
/// `truncate(k)` returns. The index tie-break makes the order total over
/// distinct items, so O(n) unstable selection plus a sort of the `k`
/// kept rows gives the same rows in the same order.
pub(crate) fn top_k(
    mut items: Vec<(f64, usize)>,
    k: usize,
    key_order: impl Fn(f64, f64) -> Ordering,
) -> Vec<usize> {
    let cmp = |a: &(f64, usize), b: &(f64, usize)| key_order(a.0, b.0).then(a.1.cmp(&b.1));
    if k == 0 {
        return Vec::new();
    }
    if k < items.len() {
        items.select_nth_unstable_by(k - 1, cmp);
        items.truncate(k);
    }
    items.sort_unstable_by(cmp);
    items.into_iter().map(|(_, i)| i).collect()
}

/// Baseline for experiment E5: uniform random sample of not-yet-shown
/// pairs (what a tool without smart sampling shows).
pub fn random_sample(n: usize, already_shown: &[bool], k: usize, seed: u64) -> Vec<usize> {
    assert_eq!(
        n,
        already_shown.len(),
        "random_sample: already_shown must have exactly n entries"
    );
    // Deterministic Fisher-Yates over eligible indices via splitmix.
    let mut eligible: Vec<usize> = (0..n).filter(|&i| !already_shown[i]).collect();
    let mut state = seed.wrapping_add(0x9e3779b97f4a7c15);
    let mut next = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut x = state;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    };
    let len = eligible.len();
    for i in 0..len.min(k) {
        let j = i + (next() as usize) % (len - i);
        eligible.swap(i, j);
    }
    eligible.truncate(k);
    eligible
}

/// The full-sort samplers the top-k ones replaced, kept as their test
/// oracles: every eligible pair stably sorted, then truncated to `k`.
#[cfg(test)]
mod sorted {
    /// [`super::smart_sample`] as a stable sort of every eligible pair.
    pub(super) fn smart_sample(
        likelihood: &[f64],
        posteriors: &[f64],
        already_shown: &[bool],
        k: usize,
    ) -> Vec<usize> {
        let mut eligible: Vec<usize> = (0..likelihood.len())
            .filter(|&i| posteriors[i] < 0.5 && !already_shown[i])
            .collect();
        eligible.sort_by(|&a, &b| likelihood[b].total_cmp(&likelihood[a]));
        eligible.truncate(k);
        eligible
    }

    /// [`super::uncertainty_sample`] as a stable sort.
    pub(super) fn uncertainty_sample(
        posteriors: &[f64],
        already_shown: &[bool],
        k: usize,
    ) -> Vec<usize> {
        let mut eligible: Vec<usize> = (0..posteriors.len())
            .filter(|&i| !already_shown[i])
            .collect();
        eligible.sort_by(|&a, &b| {
            let ua = (posteriors[a] - 0.5).abs();
            let ub = (posteriors[b] - 0.5).abs();
            ua.total_cmp(&ub)
        });
        eligible.truncate(k);
        eligible
    }

    /// [`super::disagreement_sample`] over decoded `i8` columns.
    pub(super) fn disagreement_sample(
        columns: &[&[i8]],
        already_shown: &[bool],
        k: usize,
    ) -> Vec<usize> {
        let n = already_shown.len();
        for (j, col) in columns.iter().enumerate() {
            assert_eq!(
                col.len(),
                n,
                "disagreement_sample: column {j} must align with already_shown"
            );
        }
        let mut scored: Vec<(f64, usize)> = (0..n)
            .filter(|&i| !already_shown[i])
            .filter_map(|i| {
                let pos = columns.iter().filter(|c| c[i] > 0).count();
                let neg = columns.iter().filter(|c| c[i] < 0).count();
                if pos == 0 || neg == 0 {
                    return None;
                }
                Some((pos.min(neg) as f64 / pos.max(neg) as f64, i))
            })
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.into_iter().take(k).map(|(_, i)| i).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{matrix_of, panels};
    use proptest::prelude::*;

    #[test]
    fn excludes_found_matches_and_shown_pairs() {
        let likelihood = [0.9, 0.8, 0.7, 0.95];
        let gamma = [0.9, 0.1, 0.1, 0.1]; // pair 0 already found
        let shown = [false, false, true, false]; // pair 2 already shown
        let s = smart_sample(&likelihood, &gamma, &shown, 10);
        assert_eq!(s, vec![3, 1]);
    }

    #[test]
    fn returns_at_most_k_in_likelihood_order() {
        let likelihood = [0.1, 0.5, 0.3, 0.9];
        let gamma = [0.0; 4];
        let shown = [false; 4];
        assert_eq!(smart_sample(&likelihood, &gamma, &shown, 2), vec![3, 1]);
    }

    #[test]
    fn likelihood_ties_keep_index_order_across_the_cut() {
        // Five equal likelihoods around a cut of three: the kept rows are
        // the lowest indices, as a stable sort keeps them.
        let likelihood = [0.5, 0.9, 0.5, 0.5, 0.5, 0.5];
        let gamma = [0.0; 6];
        let shown = [false; 6];
        assert_eq!(smart_sample(&likelihood, &gamma, &shown, 3), vec![1, 0, 2]);
        assert_eq!(
            uncertainty_sample(&[0.25, 0.75, 0.5, 0.75], &[false; 4], 2),
            vec![2, 0]
        );
    }

    #[test]
    fn random_sample_is_deterministic_and_respects_shown() {
        let shown = [false, true, false, false, false];
        let a = random_sample(5, &shown, 3, 42);
        let b = random_sample(5, &shown, 3, 42);
        assert_eq!(a, b);
        assert!(!a.contains(&1));
        assert_eq!(a.len(), 3);
        let c = random_sample(5, &shown, 3, 43);
        // Different seed usually differs (not guaranteed, but with 4
        // eligible and 3 slots the orderings differ for these seeds).
        assert!(a != c || a.len() == c.len());
    }

    #[test]
    fn uncertainty_ranks_by_distance_to_half() {
        let gamma = [0.1, 0.48, 0.95, 0.6];
        let shown = [false; 4];
        assert_eq!(uncertainty_sample(&gamma, &shown, 2), vec![1, 3]);
        let shown = [false, true, false, false];
        assert_eq!(uncertainty_sample(&gamma, &shown, 2), vec![3, 0]);
    }

    #[test]
    fn disagreement_requires_both_polarities() {
        let a: &[i8] = &[1, 1, 1, 0];
        let b: &[i8] = &[-1, 1, 0, -1];
        let shown = [false; 4];
        // Pair 0 is a clean 1v1 conflict; pairs 1-3 have no conflict.
        assert_eq!(disagreement_sample(&matrix_of(&[a, b]), &shown, 5), vec![0]);
        assert_eq!(sorted::disagreement_sample(&[a, b], &shown, 5), vec![0]);
    }

    #[test]
    fn empty_when_everything_found() {
        let s = smart_sample(&[0.9, 0.9], &[0.9, 0.8], &[false, false], 5);
        assert!(s.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every sampler keeps exactly the rows the full stable sort
        /// keeps, in its order, for k in {0, 1, 10, all}.
        #[test]
        fn top_k_samplers_equal_the_full_sorts(
            panel in panels(),
            k in prop::sample::select(vec![0usize, 1, 10, usize::MAX]),
        ) {
            let (gamma, shown) = (&panel.posteriors, &panel.shown);
            prop_assert_eq!(
                smart_sample(&panel.likelihood, gamma, shown, k),
                sorted::smart_sample(&panel.likelihood, gamma, shown, k)
            );
            prop_assert_eq!(
                uncertainty_sample(gamma, shown, k),
                sorted::uncertainty_sample(gamma, shown, k)
            );
            prop_assert_eq!(
                disagreement_sample(&panel.matrix(), shown, k),
                sorted::disagreement_sample(&panel.column_refs(), shown, k)
            );
        }
    }

    // --- length-mismatch error paths: each must fail fast with a message
    // naming the offending argument, not an index-out-of-bounds later (or,
    // worse, a silently truncated ranking when the longer slice wins).

    #[test]
    #[should_panic(expected = "smart_sample: likelihood and posteriors")]
    fn smart_sample_rejects_posterior_mismatch() {
        smart_sample(&[0.9, 0.8], &[0.1], &[false, false], 5);
    }

    #[test]
    #[should_panic(expected = "smart_sample: already_shown")]
    fn smart_sample_rejects_shown_mismatch() {
        smart_sample(&[0.9, 0.8], &[0.1, 0.2], &[false], 5);
    }

    #[test]
    #[should_panic(expected = "uncertainty_sample: already_shown")]
    fn uncertainty_sample_rejects_shown_mismatch() {
        uncertainty_sample(&[0.5, 0.5, 0.5], &[false, false], 5);
    }

    #[test]
    #[should_panic(expected = "disagreement_sample: column 1")]
    fn disagreement_sample_rejects_short_column() {
        let a: &[i8] = &[1, -1, 0];
        let b: &[i8] = &[1, -1];
        sorted::disagreement_sample(&[a, b], &[false, false, false], 5);
    }

    #[test]
    #[should_panic(expected = "disagreement_sample: already_shown must align")]
    fn disagreement_sample_rejects_shown_mismatch() {
        let a: &[i8] = &[1, -1, 0];
        disagreement_sample(&matrix_of(&[a, a]), &[false, false], 5);
    }

    #[test]
    #[should_panic(expected = "random_sample: already_shown")]
    fn random_sample_rejects_shown_mismatch() {
        random_sample(4, &[false; 3], 2, 7);
    }
}
