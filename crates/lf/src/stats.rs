//! Per-LF statistics — the data behind the paper's **LF Stats Panel**.
//!
//! For every LF the panel shows: name, #matches / #non-matches / #abstains,
//! and the estimated false-positive / false-negative rates. The estimates
//! come from the labeling model's probabilistic labels (no ground truth
//! needed); when gold labels are available (benchmarks), the true rates are
//! reported alongside so estimation quality is visible.

use crate::matrix::{lane_indices, mask_where, vote_masks, LabelMatrix};
use serde::{Deserialize, Serialize};

/// One row of the LF Stats Panel.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct LfStatsRow {
    /// LF name.
    pub name: String,
    /// Pairs voted +1.
    pub n_match: usize,
    /// Pairs voted −1.
    pub n_nonmatch: usize,
    /// Pairs abstained.
    pub n_abstain: usize,
    /// Fraction of pairs with a non-abstain vote.
    pub coverage: f64,
    /// Fraction of pairs where this LF and ≥1 other LF both vote.
    pub overlap: f64,
    /// Fraction of pairs where this LF disagrees with ≥1 other voting LF.
    pub conflict: f64,
    /// Model-estimated FPR: `E[1 − γ | vote = +1]` under the labeling
    /// model's posteriors γ. `None` until a model has run.
    pub est_fpr: Option<f64>,
    /// Model-estimated FNR: `E[γ | vote = −1]`.
    pub est_fnr: Option<f64>,
    /// True FPR against gold (benchmarks only).
    pub true_fpr: Option<f64>,
    /// True FNR against gold (benchmarks only).
    pub true_fnr: Option<f64>,
}

/// Compute the stats panel rows.
///
/// * `posteriors` — the labeling model's `P(match)` per pair, if a model
///   has been fit.
/// * `gold` — per-pair ground truth, if known.
///
/// Reads the packed columns word at a time (DESIGN.md §12): per word,
/// each LF's `+1` mask `P` and `−1` mask `N` ([`vote_masks`]) meet the
/// matrix's union masks ([`LabelMatrix::word_union`]), so counts,
/// overlap, conflict and the true rates are popcounts. The estimated
/// rates add `1 − γ` (`γ`) over `P` (`N`) lanes in ascending pair order,
/// the order the decoded-column loop summed in, so every bit matches it.
pub fn lf_stats(
    matrix: &LabelMatrix,
    posteriors: Option<&[f64]>,
    gold: Option<&[bool]>,
) -> Vec<LfStatsRow> {
    let n = matrix.n_pairs();
    if let Some(p) = posteriors {
        assert_eq!(p.len(), n, "posteriors length must equal pair count");
    }
    if let Some(g) = gold {
        assert_eq!(g.len(), n, "gold length must equal pair count");
    }
    let columns: Vec<(&str, &[u64])> = matrix
        .packed_columns()
        .map(|(name, votes)| (name, votes.words()))
        .collect();
    let mut tallies = vec![Tally::default(); columns.len()];
    for w in 0..matrix.n_words() {
        let union = matrix.word_union(w);
        let gold_lanes = gold.map(|g| mask_where(n, w, |i| g[i]));
        for ((_, words), t) in columns.iter().zip(&mut tallies) {
            let (pos, neg) = vote_masks(words[w]);
            t.n_match += pos.count_ones() as usize;
            t.n_nonmatch += neg.count_ones() as usize;
            t.overlap += ((pos | neg) & union.two).count_ones() as usize;
            t.conflict += ((pos & union.neg) | (neg & union.pos)).count_ones() as usize;
            if let Some(gamma) = posteriors {
                for i in lane_indices(w, pos) {
                    t.est_fp += 1.0 - gamma[i];
                }
                for i in lane_indices(w, neg) {
                    t.est_fn += gamma[i];
                }
            }
            if let Some(g) = gold_lanes {
                t.gold_in_pos += (pos & g).count_ones() as usize;
                t.gold_in_neg += (neg & g).count_ones() as usize;
            }
        }
    }

    let frac = |x: usize| if n == 0 { 0.0 } else { x as f64 / n as f64 };
    columns
        .iter()
        .zip(tallies)
        .map(|((name, _), t)| {
            let est = posteriors.map(|_| t.rates(t.est_fp, t.est_fn));
            // A sum of 0.0/1.0 terms is its integer count exactly.
            let tru =
                gold.map(|_| t.rates((t.n_match - t.gold_in_pos) as f64, t.gold_in_neg as f64));
            LfStatsRow {
                name: name.to_string(),
                n_match: t.n_match,
                n_nonmatch: t.n_nonmatch,
                n_abstain: n - t.n_match - t.n_nonmatch,
                coverage: frac(t.n_match + t.n_nonmatch),
                overlap: frac(t.overlap),
                conflict: frac(t.conflict),
                est_fpr: est.map(|(fpr, _)| fpr),
                est_fnr: est.map(|(_, fnr)| fnr),
                true_fpr: tru.map(|(fpr, _)| fpr),
                true_fnr: tru.map(|(_, fnr)| fnr),
            }
        })
        .collect()
}

/// One LF's running panel sums.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    n_match: usize,
    n_nonmatch: usize,
    overlap: usize,
    conflict: usize,
    /// `Σ 1 − γ` over `+1` votes, in pair order.
    est_fp: f64,
    /// `Σ γ` over `−1` votes, in pair order.
    est_fn: f64,
    /// Gold matches among the `+1` / `−1` votes.
    gold_in_pos: usize,
    gold_in_neg: usize,
}

impl Tally {
    /// `(fpr, fnr)` from the false-positive mass over the LF's +1 votes
    /// and the false-negative mass over its −1 votes. An LF with no votes
    /// of a polarity gets rate 0 for it.
    fn rates(&self, fp: f64, fnr_mass: f64) -> (f64, f64) {
        (
            if self.n_match == 0 {
                0.0
            } else {
                fp / self.n_match as f64
            },
            if self.n_nonmatch == 0 {
                0.0
            } else {
                fnr_mass / self.n_nonmatch as f64
            },
        )
    }
}

/// The decoded-column panel the packed [`lf_stats`] replaced, kept as its
/// test oracle: every column decoded to `i8`s and an O(pairs × LFs²)
/// conflict scan.
#[cfg(test)]
fn lf_stats_decoded(
    matrix: &LabelMatrix,
    posteriors: Option<&[f64]>,
    gold: Option<&[bool]>,
) -> Vec<LfStatsRow> {
    let n = matrix.n_pairs();
    let columns: Vec<(&str, Vec<i8>)> = matrix.columns().collect();

    // votes_per_pair[i] = number of non-abstain votes on pair i.
    let mut votes_per_pair = vec![0usize; n];
    for (_, col) in &columns {
        for (i, &v) in col.iter().enumerate() {
            if v != 0 {
                votes_per_pair[i] += 1;
            }
        }
    }

    columns
        .iter()
        .map(|(name, col)| {
            let mut n_match = 0usize;
            let mut n_nonmatch = 0usize;
            let mut overlap = 0usize;
            let mut conflict = 0usize;
            for (i, &v) in col.iter().enumerate() {
                match v {
                    1.. => n_match += 1,
                    0 => {}
                    _ => n_nonmatch += 1,
                }
                if v != 0 && votes_per_pair[i] >= 2 {
                    overlap += 1;
                    // Does any other LF vote the other way on pair i?
                    let disagrees = columns
                        .iter()
                        .any(|(other, ocol)| *other != *name && ocol[i] != 0 && ocol[i] != v);
                    if disagrees {
                        conflict += 1;
                    }
                }
            }
            let n_abstain = n - n_match - n_nonmatch;
            let frac = |x: usize| if n == 0 { 0.0 } else { x as f64 / n as f64 };

            let est = posteriors.map(|gamma| rates_decoded(col, |i| gamma[i]));
            let tru = gold.map(|g| rates_decoded(col, |i| f64::from(u8::from(g[i]))));

            LfStatsRow {
                name: name.to_string(),
                n_match,
                n_nonmatch,
                n_abstain,
                coverage: frac(n_match + n_nonmatch),
                overlap: frac(overlap),
                conflict: frac(conflict),
                est_fpr: est.map(|(fpr, _)| fpr),
                est_fnr: est.map(|(_, fnr)| fnr),
                true_fpr: tru.map(|(fpr, _)| fpr),
                true_fnr: tru.map(|(_, fnr)| fnr),
            }
        })
        .collect()
}

/// `(fpr, fnr)` of a decoded vote column against a (possibly
/// probabilistic) reference `p_match(i)`, summed in pair order.
#[cfg(test)]
fn rates_decoded(col: &[i8], p_match: impl Fn(usize) -> f64) -> (f64, f64) {
    let mut fp = 0.0;
    let mut pos = 0usize;
    let mut fnr_mass = 0.0;
    let mut neg = 0usize;
    for (i, &v) in col.iter().enumerate() {
        if v > 0 {
            fp += 1.0 - p_match(i);
            pos += 1;
        } else if v < 0 {
            fnr_mass += p_match(i);
            neg += 1;
        }
    }
    (
        if pos == 0 { 0.0 } else { fp / pos as f64 },
        if neg == 0 { 0.0 } else { fnr_mass / neg as f64 },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::ClosureLf;
    use crate::lf::LfRegistry;
    use crate::Label;
    use panda_table::{CandidatePair, CandidateSet, Schema, Table, TablePair};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// 4 pairs; gold: pair 0 match, rest non-match.
    fn setup(lfs: Vec<(&'static str, Vec<i8>)>) -> (LabelMatrix, Vec<bool>) {
        let schema = Schema::of_text(&["k"]);
        let mut left = Table::new("l", schema.clone());
        let mut right = Table::new("r", schema);
        for i in 0..2 {
            left.push(vec![format!("{i}")]).unwrap();
            right.push(vec![format!("{i}")]).unwrap();
        }
        let tables = TablePair::new(left, right);
        let cands = CandidateSet::from_pairs([
            CandidatePair::new(0, 0),
            CandidatePair::new(0, 1),
            CandidatePair::new(1, 0),
            CandidatePair::new(1, 1),
        ]);
        let mut reg = LfRegistry::new();
        for (name, votes) in lfs {
            let votes = votes.clone();
            reg.upsert(Arc::new(ClosureLf::new(name, move |p| {
                // Index the fixed vote vector by pair identity.
                let idx = (p.pair.left.0 * 2 + p.pair.right.0) as usize;
                Label::from_i8(votes[idx])
            })));
        }
        let mut m = LabelMatrix::new();
        m.apply(&reg, &tables, &cands);
        (m, vec![true, false, false, true])
    }

    #[test]
    fn counts_and_coverage() {
        let (m, _) = setup(vec![("a", vec![1, 0, -1, 0])]);
        let rows = lf_stats(&m, None, None);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!((r.n_match, r.n_nonmatch, r.n_abstain), (1, 1, 2));
        assert!((r.coverage - 0.5).abs() < 1e-12);
        assert_eq!(r.est_fpr, None);
        assert_eq!(r.true_fpr, None);
    }

    #[test]
    fn overlap_and_conflict() {
        let (m, _) = setup(vec![("a", vec![1, 1, 0, 0]), ("b", vec![1, -1, -1, 0])]);
        let rows = lf_stats(&m, None, None);
        let a = &rows[0];
        // a votes on pairs 0,1; b also votes there → overlap 2/4.
        assert!((a.overlap - 0.5).abs() < 1e-12);
        // They disagree on pair 1 only → conflict 1/4.
        assert!((a.conflict - 0.25).abs() < 1e-12);
        let b = &rows[1];
        assert!((b.conflict - 0.25).abs() < 1e-12);
    }

    #[test]
    fn true_rates_against_gold() {
        // LF votes +1 on pairs {0,1}: pair 0 is a true match, pair 1 isn't
        // → true FPR 0.5. Votes −1 on pair 3 which IS a match → FNR 1.0.
        let (m, gold) = setup(vec![("a", vec![1, 1, 0, -1])]);
        let rows = lf_stats(&m, None, Some(&gold));
        let r = &rows[0];
        assert!((r.true_fpr.unwrap() - 0.5).abs() < 1e-12);
        assert!((r.true_fnr.unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn estimated_rates_from_posteriors() {
        let (m, _) = setup(vec![("a", vec![1, 1, -1, -1])]);
        let gamma = [0.9, 0.2, 0.1, 0.8];
        let rows = lf_stats(&m, Some(&gamma), None);
        let r = &rows[0];
        // est FPR = mean(1-γ over +1 votes) = (0.1 + 0.8)/2
        assert!((r.est_fpr.unwrap() - 0.45).abs() < 1e-12);
        // est FNR = mean(γ over −1 votes) = (0.1 + 0.8)/2
        assert!((r.est_fnr.unwrap() - 0.45).abs() < 1e-12);
    }

    #[test]
    fn lf_with_no_positive_votes_has_zero_fpr() {
        let (m, gold) = setup(vec![("neg_only", vec![0, -1, -1, 0])]);
        let rows = lf_stats(&m, None, Some(&gold));
        assert_eq!(rows[0].true_fpr, Some(0.0));
    }

    #[test]
    #[should_panic(expected = "posteriors length")]
    fn posterior_length_is_validated() {
        let (m, _) = setup(vec![("a", vec![1, 0, 0, 0])]);
        lf_stats(&m, Some(&[0.5]), None);
    }

    /// A matrix over `n` pairs whose column `j` holds `columns[j]`.
    fn matrix_of(n: usize, columns: &[Vec<i8>]) -> LabelMatrix {
        let candidates = CandidateSet::from_pairs((0..n as u32).map(|i| CandidatePair::new(i, 0)));
        let snapshots = columns
            .iter()
            .enumerate()
            .map(|(j, c)| crate::ColumnSnapshot {
                name: format!("lf{j}"),
                version: 0,
                labels: c.clone(),
            })
            .collect();
        LabelMatrix::restore(&candidates, snapshots).expect("valid columns")
    }

    /// Rows compared field by field, `f64`s by their bits.
    fn bits(rows: &[LfStatsRow]) -> Vec<(String, [usize; 3], Vec<Option<u64>>)> {
        rows.iter()
            .map(|r| {
                let rates = [r.est_fpr, r.est_fnr, r.true_fpr, r.true_fnr];
                let fracs = [r.coverage, r.overlap, r.conflict].map(Some);
                (
                    r.name.clone(),
                    [r.n_match, r.n_nonmatch, r.n_abstain],
                    fracs
                        .iter()
                        .chain(&rates)
                        .map(|x| x.map(f64::to_bits))
                        .collect(),
                )
            })
            .collect()
    }

    /// `n` in 0..200 (word tails of 31, 32 and 33 lanes occur), 0–40 LFs
    /// that are all-abstain, sparse, dense, all-match or uniform,
    /// posteriors with exact ties and NaNs, and a gold vector.
    fn panels() -> impl Strategy<Value = (usize, Vec<Vec<i8>>, Vec<f64>, Vec<bool>)> {
        (0usize..200, 0usize..41).prop_flat_map(|(n, m)| {
            let column = prop::sample::select(vec![
                vec![0i8],
                vec![0, 0, 0, 0, 0, 0, 0, 1, -1],
                vec![1, -1, 1, -1, 0],
                vec![1],
                vec![-1, 0, 1],
            ])
            .prop_flat_map(move |alphabet| {
                prop::collection::vec(prop::sample::select(alphabet), n)
            });
            let gamma = prop_oneof![
                prop::sample::select(vec![0.25, 0.75, 0.5, 0.0, 1.0, f64::NAN]),
                0.0..1.0f64,
            ];
            (
                Just(n),
                prop::collection::vec(column, m),
                prop::collection::vec(gamma, n),
                prop::collection::vec(any::<bool>(), n),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The mask-algebra panel equals the decoded-column oracle bit for
        /// bit, with and without posteriors and gold.
        #[test]
        fn packed_stats_equal_the_decoded_oracle((n, columns, gamma, gold) in panels()) {
            let m = matrix_of(n, &columns);
            for (p, g) in [
                (None, None),
                (Some(gamma.as_slice()), None),
                (None, Some(gold.as_slice())),
                (Some(gamma.as_slice()), Some(gold.as_slice())),
            ] {
                prop_assert_eq!(bits(&lf_stats(&m, p, g)), bits(&lf_stats_decoded(&m, p, g)));
            }
        }
    }
}
