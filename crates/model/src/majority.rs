//! Majority vote baseline.

use crate::LabelModel;
use panda_lf::{LabelMatrix, PackedVotes, VOTES_PER_WORD};
use panda_table::CandidateSet;

/// Majority vote: `γ = #(+1) / #votes`, falling back to `prior` when every
/// LF abstains.
#[derive(Debug, Clone)]
pub struct MajorityVote {
    /// Posterior assigned to pairs with no votes at all.
    pub prior: f64,
}

impl Default for MajorityVote {
    fn default() -> Self {
        // EM default: an unvoted pair is almost surely a non-match.
        MajorityVote { prior: 0.05 }
    }
}

impl MajorityVote {
    /// Majority vote with the given no-vote prior.
    pub fn new(prior: f64) -> Self {
        MajorityVote { prior }
    }
}

/// Majority vote of `pos` +1 votes among `tot` votes cast.
pub(crate) fn majority(pos: u32, tot: u32, prior: f64) -> f64 {
    if tot == 0 {
        prior
    } else {
        f64::from(pos) / f64::from(tot)
    }
}

/// Per position of `len` (a pair, or a row of vote patterns): `[+1
/// votes, votes cast]`, counted from the packed 2-bit codes (`01` is +1,
/// `10` is −1; the reserved `11` is never stored).
pub(crate) fn tally<'a>(
    columns: impl IntoIterator<Item = &'a PackedVotes>,
    len: usize,
) -> Vec<[u32; 2]> {
    let mut counts = vec![[0u32; 2]; len];
    for col in columns {
        for (w_idx, &word) in col.words().iter().enumerate() {
            let start = w_idx * VOTES_PER_WORD;
            let lanes = (len - start).min(VOTES_PER_WORD);
            let mut w = word;
            for [pos, tot] in &mut counts[start..start + lanes] {
                *pos += (w & 1) as u32;
                *tot += ((w | (w >> 1)) & 1) as u32;
                w >>= 2;
            }
        }
    }
    counts
}

impl LabelModel for MajorityVote {
    fn name(&self) -> &'static str {
        "majority-vote"
    }

    fn fit_predict(&mut self, matrix: &LabelMatrix, _: Option<&CandidateSet>) -> Vec<f64> {
        tally(matrix.packed_columns().map(|(_, c)| c), matrix.n_pairs())
            .into_iter()
            .map(|[pos, tot]| majority(pos, tot, self.prior))
            .collect()
    }

    /// Stateless: the empty blob round-trips (`prior` is a construction
    /// parameter, rebuilt from the session config on restore).
    fn capture_fitted(&self) -> Option<Vec<f64>> {
        Some(Vec::new())
    }

    fn restore_fitted(&mut self, blob: &[f64]) -> bool {
        blob.is_empty()
    }

    /// Majority vote has no fitted state, so any vote row scores directly.
    fn posterior_for_votes(&self, votes: &[i8]) -> Option<f64> {
        let pos = votes.iter().filter(|&&v| v > 0).count() as u32;
        let tot = votes.iter().filter(|&&v| v != 0).count() as u32;
        Some(majority(pos, tot, self.prior))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{plant, PlantedLf};

    #[test]
    fn unanimous_votes_saturate() {
        let p = plant(200, 0.3, &[PlantedLf::symmetric(1.0, 1.0); 3], 1);
        let gamma = MajorityVote::default().fit_predict(&p.matrix, None);
        for (g, t) in gamma.iter().zip(&p.truth) {
            assert_eq!(*g >= 0.5, *t);
            assert!(*g == 0.0 || *g == 1.0);
        }
    }

    #[test]
    fn no_votes_fall_back_to_prior() {
        let p = plant(10, 0.5, &[PlantedLf::symmetric(0.0, 0.9)], 2);
        let gamma = MajorityVote::new(0.07).fit_predict(&p.matrix, None);
        assert!(gamma.iter().all(|&g| (g - 0.07).abs() < 1e-12));
    }

    /// Counting from packed words gives the same bits as the decoded
    /// `Vec<i8>` formula, on pairs and on vote-pattern rows alike.
    #[test]
    fn packed_counts_equal_the_decoded_column_formula() {
        let p = plant(
            1000,
            0.3,
            &[
                PlantedLf::symmetric(0.7, 0.8),
                PlantedLf::symmetric(0.3, 0.6),
                PlantedLf::symmetric(0.9, 0.9),
            ],
            4,
        );
        let decoded: Vec<Vec<i8>> = p.matrix.columns().map(|(_, c)| c).collect();
        let want: Vec<f64> = (0..1000)
            .map(|i| {
                let pos = decoded.iter().filter(|c| c[i] > 0).count() as u32;
                let tot = decoded.iter().filter(|c| c[i] != 0).count() as u32;
                if tot == 0 {
                    0.05
                } else {
                    f64::from(pos) / f64::from(tot)
                }
            })
            .collect();
        let got = MajorityVote::default().fit_predict(&p.matrix, None);
        assert_eq!(
            got.iter().map(|g| g.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|g| g.to_bits()).collect::<Vec<_>>()
        );
        let pat = crate::patterns::VotePatterns::new(&p.matrix);
        let rows: Vec<f64> = pat
            .tallies()
            .iter()
            .map(|&[pos, tot]| majority(pos, tot, 0.05))
            .collect();
        assert_eq!(pat.to_pairs(&crate::patterns::Resp::Rows(rows)), want);
    }

    #[test]
    fn split_vote_is_half() {
        let p = plant(
            50,
            0.5,
            &[
                PlantedLf::symmetric(1.0, 1.0),
                PlantedLf::symmetric(1.0, 0.0),
            ],
            3,
        );
        // One always right, one always wrong → every pair splits 1-1.
        let gamma = MajorityVote::default().fit_predict(&p.matrix, None);
        assert!(gamma.iter().all(|&g| (g - 0.5).abs() < 1e-12));
    }
}
