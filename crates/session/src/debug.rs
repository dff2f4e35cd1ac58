//! Semantic debugging queries (paper §2.1, feature 2.2).
//!
//! "In the IDE we provide an intuitive GUI where users can point and click
//! to quickly narrow down to the record pairs where each LF may be making
//! mistakes." Each click corresponds to one [`DebugQuery`] evaluated
//! against the label matrix and the model posteriors.

use crate::sampling::top_k;
use panda_lf::matrix::{lane_indices, lane_mask, mask_where, vote_masks};
use panda_lf::LabelMatrix;
use serde::{Deserialize, Serialize};

/// Which slice of pairs to show for an LF.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DebugQuery {
    /// Pairs the LF labels +1 but the model labels −1 — the paper's
    /// example: clicking the estimated FPR of `name_overlap`.
    LikelyFalsePositives,
    /// Pairs the LF labels −1 but the model labels +1.
    LikelyFalseNegatives,
    /// Pairs where the LF votes and at least one other LF votes the other
    /// way.
    Conflicts,
    /// Pairs the LF voted +1 on (clicking the "#matches" cell).
    VotedMatch,
    /// Pairs the LF voted −1 on.
    VotedNonMatch,
    /// Pairs the LF abstained on.
    Abstained,
}

/// Evaluate a query for LF `lf`: up to `limit` candidate indices, most
/// confident first (|γ − 0.5| descending, then index ascending) so the
/// clearest disagreements surface at the top. Empty when the matrix has
/// no column named `lf`.
///
/// Selects word at a time from the packed column's `+1`/`−1` lane masks
/// (DESIGN.md §12): the FP/FN queries meet them with the model's
/// `γ ≥ 0.5` mask, `Conflicts` with the opposite polarity's union over
/// every LF. Only the top `limit` under the total order are sorted, so a
/// panel of ten costs no sort of every selected pair.
pub fn run_query(
    query: DebugQuery,
    matrix: &LabelMatrix,
    lf: &str,
    posteriors: &[f64],
    limit: usize,
) -> Vec<usize> {
    let Some(votes) = matrix.packed_column(lf) else {
        return Vec::new();
    };
    let n = matrix.n_pairs();
    assert_eq!(
        posteriors.len(),
        n,
        "run_query: posteriors must align with the label matrix"
    );
    let model_match = |w| mask_where(n, w, |i| posteriors[i] >= 0.5);
    let mut picked: Vec<(f64, usize)> = Vec::new();
    for (w, &word) in votes.words().iter().enumerate() {
        let (pos, neg) = vote_masks(word);
        let lanes = match query {
            DebugQuery::LikelyFalsePositives => pos & !model_match(w),
            DebugQuery::LikelyFalseNegatives => neg & model_match(w),
            DebugQuery::Conflicts => {
                let any = matrix.word_union(w);
                (pos & any.neg) | (neg & any.pos)
            }
            DebugQuery::VotedMatch => pos,
            DebugQuery::VotedNonMatch => neg,
            DebugQuery::Abstained => lane_mask(n, w) & !(pos | neg),
        };
        picked.extend(lane_indices(w, lanes).map(|i| ((posteriors[i] - 0.5).abs(), i)));
    }
    // `top_k` breaks ties on the candidate index: equal-confidence pairs
    // must come back in a stable order, or the IDE's panel (and any test
    // of it) reshuffles run to run.
    top_k(picked, limit, |a, b| b.total_cmp(&a))
}

/// How many pairs [`run_query`] selects for each LF (matrix column
/// order), as `[LikelyFalsePositives, LikelyFalseNegatives, Conflicts]`:
/// the counts the `lf.stats` journal event carries, as popcounts of the
/// same lane masks, with no index list built.
pub fn disagreement_counts(matrix: &LabelMatrix, posteriors: &[f64]) -> Vec<[usize; 3]> {
    let n = matrix.n_pairs();
    assert_eq!(
        posteriors.len(),
        n,
        "disagreement_counts: posteriors must align with the label matrix"
    );
    let columns: Vec<&[u64]> = matrix.packed_columns().map(|(_, v)| v.words()).collect();
    let mut counts = vec![[0usize; 3]; columns.len()];
    for w in 0..matrix.n_words() {
        let any = matrix.word_union(w);
        let model_match = mask_where(n, w, |i| posteriors[i] >= 0.5);
        for (words, c) in columns.iter().zip(&mut counts) {
            let (pos, neg) = vote_masks(words[w]);
            c[0] += (pos & !model_match).count_ones() as usize;
            c[1] += (neg & model_match).count_ones() as usize;
            c[2] += ((pos & any.neg) | (neg & any.pos)).count_ones() as usize;
        }
    }
    counts
}

/// The decoded-column query the packed [`run_query`] replaced, kept as
/// its test oracle: every selected pair, fully sorted.
#[cfg(test)]
fn run_query_decoded(
    query: DebugQuery,
    lf_column: &[i8],
    all_columns: &[&[i8]],
    posteriors: &[f64],
) -> Vec<usize> {
    let model_match = |i: usize| posteriors[i] >= 0.5;
    let mut out: Vec<usize> = (0..lf_column.len())
        .filter(|&i| match query {
            DebugQuery::LikelyFalsePositives => lf_column[i] > 0 && !model_match(i),
            DebugQuery::LikelyFalseNegatives => lf_column[i] < 0 && model_match(i),
            DebugQuery::Conflicts => {
                lf_column[i] != 0
                    && all_columns
                        .iter()
                        .any(|c| c[i] != 0 && c[i] != lf_column[i])
            }
            DebugQuery::VotedMatch => lf_column[i] > 0,
            DebugQuery::VotedNonMatch => lf_column[i] < 0,
            DebugQuery::Abstained => lf_column[i] == 0,
        })
        .collect();
    out.sort_by(|&a, &b| {
        let ca = (posteriors[a] - 0.5).abs();
        let cb = (posteriors[b] - 0.5).abs();
        cb.total_cmp(&ca).then_with(|| a.cmp(&b))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{matrix_of, panels};
    use proptest::prelude::*;

    /// Every pair `query` selects for column 0 of `columns`.
    fn q(query: DebugQuery, columns: &[&[i8]], gamma: &[f64]) -> Vec<usize> {
        run_query(query, &matrix_of(columns), "lf0", gamma, usize::MAX)
    }

    #[test]
    fn false_positive_query() {
        let lf = [1i8, 1, -1, 0];
        let gamma = [0.9, 0.1, 0.05, 0.7];
        let idx = q(DebugQuery::LikelyFalsePositives, &[&lf], &gamma);
        assert_eq!(idx, vec![1]); // voted +1, model says 0.1
    }

    #[test]
    fn false_negative_query() {
        let lf = [-1i8, -1, 1, 0];
        let gamma = [0.9, 0.2, 0.95, 0.7];
        let idx = q(DebugQuery::LikelyFalseNegatives, &[&lf], &gamma);
        assert_eq!(idx, vec![0]);
    }

    #[test]
    fn conflicts_need_a_disagreeing_lf() {
        let lf = [1i8, 1, 0];
        let other = [-1i8, 1, -1];
        let gamma = [0.5, 0.5, 0.5];
        let idx = q(DebugQuery::Conflicts, &[&lf, &other], &gamma);
        assert_eq!(idx, vec![0]);
    }

    #[test]
    fn results_sorted_by_model_confidence() {
        let lf = [1i8, 1, 1];
        let gamma = [0.4, 0.05, 0.2];
        let idx = q(DebugQuery::LikelyFalsePositives, &[&lf], &gamma);
        assert_eq!(idx, vec![1, 2, 0]); // 0.05 is the most confident miss
        let m = matrix_of(&[&lf]);
        let top = |limit| run_query(DebugQuery::LikelyFalsePositives, &m, "lf0", &gamma, limit);
        assert_eq!(top(2), vec![1, 2], "a limit keeps the head of the order");
        assert!(top(0).is_empty());
        assert!(run_query(DebugQuery::VotedMatch, &m, "absent", &gamma, 10).is_empty());
    }

    #[test]
    fn posterior_ties_order_by_candidate_index() {
        // All posteriors exactly equidistant from 0.5 (0.25 and 0.75 are
        // dyadic, so |γ−0.5| is bit-identical) → pure tie. The order must
        // be the candidate index order, deterministically.
        let lf = [1i8, 1, 1, 1];
        let gamma = [0.25, 0.75, 0.25, 0.75];
        let idx = q(DebugQuery::VotedMatch, &[&lf], &gamma);
        assert_eq!(idx, vec![0, 1, 2, 3]);
        // Mixed: one clear winner, then tied runners-up in index order.
        let gamma2 = [0.75, 1.0, 0.25, 0.75];
        let idx2 = q(DebugQuery::VotedMatch, &[&lf], &gamma2);
        assert_eq!(idx2, vec![1, 0, 2, 3]);
        // A limit that cuts through the tie keeps the lowest indices.
        let m = matrix_of(&[&lf]);
        assert_eq!(
            run_query(DebugQuery::VotedMatch, &m, "lf0", &gamma2, 3),
            vec![1, 0, 2]
        );
    }

    /// All six variants against one hand-built matrix, checking the exact
    /// slice each one selects.
    #[test]
    fn all_six_queries_on_a_hand_built_matrix() {
        // pair:   0    1    2    3    4    5
        let lf = [1i8, 1, -1, -1, 0, 0];
        let other = [1i8, -1, -1, 1, 1, 0];
        // 0.25/0.75 are dyadic: pairs 1 and 3 tie exactly on |γ−0.5|.
        let gamma = [0.9, 0.25, 0.1, 0.75, 0.5, 0.3];
        let all: [&[i8]; 2] = [&lf, &other];
        let q = |query| q(query, &all, &gamma);
        // +1 votes where the model says non-match: pair 1.
        assert_eq!(q(DebugQuery::LikelyFalsePositives), vec![1]);
        // −1 votes where the model says match: pair 3.
        assert_eq!(q(DebugQuery::LikelyFalseNegatives), vec![3]);
        // Voted pairs where `other` voted the opposite way: 1 and 3,
        // equally confident (0.3 each) → index order.
        assert_eq!(q(DebugQuery::Conflicts), vec![1, 3]);
        assert_eq!(q(DebugQuery::VotedMatch), vec![0, 1]);
        assert_eq!(q(DebugQuery::VotedNonMatch), vec![2, 3]);
        // Abstained: 4 and 5; 5 is more confident (|0.3−0.5| > |0.5−0.5|).
        assert_eq!(q(DebugQuery::Abstained), vec![5, 4]);
        assert_eq!(
            disagreement_counts(&matrix_of(&all), &gamma)[0],
            [1, 1, 2],
            "journal counts are the FP, FN and conflict slice sizes"
        );
    }

    #[test]
    fn vote_slices() {
        let lf = [1i8, -1, 0, 1];
        let gamma = [0.5; 4];
        assert_eq!(q(DebugQuery::VotedMatch, &[&lf], &gamma).len(), 2);
        assert_eq!(q(DebugQuery::VotedNonMatch, &[&lf], &gamma), vec![1]);
        assert_eq!(q(DebugQuery::Abstained, &[&lf], &gamma), vec![2]);
    }

    #[test]
    fn abstained_stops_at_the_last_pair() {
        // 33 pairs: the second word holds one vote and 31 tail lanes that
        // read as abstain but are no pairs.
        let lf = [0i8; 33];
        let gamma = [0.5; 33];
        let idx = q(DebugQuery::Abstained, &[&lf], &gamma);
        assert_eq!(idx, (0..33).collect::<Vec<_>>());
    }

    const QUERIES: [DebugQuery; 6] = [
        DebugQuery::LikelyFalsePositives,
        DebugQuery::LikelyFalseNegatives,
        DebugQuery::Conflicts,
        DebugQuery::VotedMatch,
        DebugQuery::VotedNonMatch,
        DebugQuery::Abstained,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every query on every LF returns the oracle's sort-then-take
        /// rows, and the journal counts are the oracle's slice sizes.
        #[test]
        fn packed_queries_equal_the_decoded_oracle(
            panel in panels(),
            limit in prop::sample::select(vec![0usize, 1, 10, usize::MAX]),
        ) {
            let matrix = panel.matrix();
            let columns = panel.column_refs();
            let gamma = &panel.posteriors;
            let counts = disagreement_counts(&matrix, gamma);
            prop_assert_eq!(counts.len(), columns.len());
            for (j, column) in columns.iter().enumerate() {
                let name = format!("lf{j}");
                for query in QUERIES {
                    let all = run_query_decoded(query, column, &columns, gamma);
                    let want: Vec<usize> = all.iter().copied().take(limit).collect();
                    let got = run_query(query, &matrix, &name, gamma, limit);
                    prop_assert_eq!(got, want, "{:?} on {} at limit {}", query, name, limit);
                    let slot = match query {
                        DebugQuery::LikelyFalsePositives => 0,
                        DebugQuery::LikelyFalseNegatives => 1,
                        DebugQuery::Conflicts => 2,
                        _ => continue,
                    };
                    prop_assert_eq!(counts[j][slot], all.len(), "{:?} count on {}", query, name);
                }
            }
        }
    }
}
