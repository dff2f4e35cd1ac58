//! Vote patterns: the distinct vote rows of a label matrix, and the exact
//! sums EM takes over them.
//!
//! EM sees a pair only through its row of votes, and a blocked candidate
//! set carries few distinct rows: abt-buy at 300 entities with the auto
//! and curated LFs has a few hundred rows for ~8k pairs. [`VotePatterns`]
//! stores each distinct row once, in first-appearance order, with the
//! number of pairs carrying it and each pair's row id. Both EM models run
//! on it: the E-step once per row, the M-step as count-weighted sums over
//! rows, and the posteriors are scattered back to pairs at the end.
//!
//! **Exact sums.** A float sum depends on the order of its terms, and a
//! count-weighted sum over rows adds in another order than a sum over
//! pairs. So every sum EM takes over responsibilities is exact: a term
//! `γ ∈ [0, 1]` becomes the integer `⌊γ·2⁶³⌋` and terms add in `u128`,
//! which holds the sum for any pair count the `u32` row ids can address.
//! A sum then has one value however it is grouped — per pair, per row,
//! in any pair order — and is rounded to `f64` once. Sums of `1 − γ` and
//! the abstain slot's sums are derived from counts
//! (`count·2⁶³ − Σ⌊γ·2⁶³⌋`), so they are exact too.

use crate::majority::{majority, tally};
use crate::sigmoid;
use panda_lf::{Label, LabelMatrix, PackedVotes, VOTES_PER_WORD};

/// `2⁶³` as `f64`: the fixed-point unit of exact responsibility sums.
const UNIT: f64 = 9_223_372_036_854_775_808.0;

/// `1.0` in fixed point.
pub(crate) const ONE: u128 = 1 << 63;

/// `γ` in fixed point: `⌊γ·2⁶³⌋`, with `γ` clamped into `[0, 1]` (NaN
/// counts as 0).
#[inline]
pub(crate) fn fixed(g: f64) -> u64 {
    (g.clamp(0.0, 1.0) * UNIT) as u64
}

/// A fixed-point sum as `f64`, rounded once to nearest.
#[inline]
pub(crate) fn real(x: u128) -> f64 {
    x as f64 / UNIT
}

/// The responsibilities one EM start iterates on.
#[derive(Debug)]
pub(crate) enum Resp {
    /// One `γ` per distinct row: the cold starts and every E-step's output.
    Rows(Vec<f64>),
    /// One `γ` per pair: a warm start before its first E-step.
    Pairs(Vec<f64>),
}

/// The exact responsibility sums one M-step reads (fixed point).
pub(crate) struct Mass {
    /// `Σγ` over all pairs.
    total: u128,
    /// Per LF: `Σγ` over the pairs it votes +1 on, and over those it
    /// votes −1 on.
    votes: Vec<[u128; 2]>,
}

/// The distinct vote rows of a label matrix (see the module docs).
#[derive(Debug)]
pub(crate) struct VotePatterns {
    n_pairs: usize,
    /// One column per LF over the distinct rows, registry order.
    columns: Vec<PackedVotes>,
    /// Pairs carrying each row.
    counts: Vec<u32>,
    /// Row id of each pair.
    row_of: Vec<u32>,
    /// Per LF: pairs voting +1 and pairs voting −1.
    lf_votes: Vec<[u64; 2]>,
    /// Per row: +1 votes and votes cast.
    tallies: Vec<[u32; 2]>,
}

impl VotePatterns {
    /// The distinct rows of `matrix`, in the order their first pair
    /// appears.
    ///
    /// Rows are found by refining a partition of the pairs one LF at a
    /// time — two pairs share a group while their votes so far agree —
    /// with a dense `(group, code) → group` table per LF instead of
    /// hashing row keys, so no input can make the build slow. Each pass
    /// numbers its groups in the order their first pair appears; after
    /// the last LF the groups are the distinct rows in that order.
    pub(crate) fn new(matrix: &LabelMatrix) -> Self {
        let n = matrix.n_pairs();
        let cols: Vec<&PackedVotes> = matrix.packed_columns().map(|(_, c)| c).collect();
        let mut row_of = vec![0u32; n];
        let mut n_rows = usize::from(n > 0);
        let mut refined = Vec::new();
        for col in &cols {
            refined.clear();
            refined.resize(4 * n_rows, u32::MAX);
            let mut next = 0u32;
            for (w_idx, &word) in col.words().iter().enumerate() {
                let start = w_idx * VOTES_PER_WORD;
                let lanes = (n - start).min(VOTES_PER_WORD);
                let mut w = word;
                for row in &mut row_of[start..start + lanes] {
                    let id = &mut refined[4 * *row as usize + (w & 0b11) as usize];
                    if *id == u32::MAX {
                        *id = next;
                        next += 1;
                    }
                    *row = *id;
                    w >>= 2;
                }
            }
            n_rows = next as usize;
        }
        let mut counts = vec![0u32; n_rows];
        let mut first = vec![0usize; n_rows];
        for (i, &r) in row_of.iter().enumerate().rev() {
            counts[r as usize] += 1;
            first[r as usize] = i;
        }
        let columns: Vec<PackedVotes> = cols
            .iter()
            .map(|col| {
                let mut rows = PackedVotes::with_capacity(n_rows);
                for &i in &first {
                    rows.push(Label::from_i8(col.get(i)));
                }
                rows
            })
            .collect();
        let lf_votes = cols
            .iter()
            .map(|col| {
                let (plus, minus, _) = col.counts();
                [plus as u64, minus as u64]
            })
            .collect();
        let tallies = tally(columns.iter(), n_rows);
        VotePatterns {
            n_pairs: n,
            columns,
            counts,
            row_of,
            lf_votes,
            tallies,
        }
    }

    /// Candidate pairs (rows of the label matrix).
    pub(crate) fn n_pairs(&self) -> usize {
        self.n_pairs
    }

    /// Distinct vote rows.
    pub(crate) fn n_rows(&self) -> usize {
        self.counts.len()
    }

    /// LFs (columns).
    pub(crate) fn n_lfs(&self) -> usize {
        self.columns.len()
    }

    /// Row id of each pair.
    pub(crate) fn row_of(&self) -> &[u32] {
        &self.row_of
    }

    /// Per row: `[+1 votes, votes cast]`.
    pub(crate) fn tallies(&self) -> &[[u32; 2]] {
        &self.tallies
    }

    /// Per LF: `[pairs voting +1, pairs voting −1]`.
    pub(crate) fn lf_votes(&self) -> &[[u64; 2]] {
        &self.lf_votes
    }

    /// Responsibilities as one value per pair (per-row values scattered
    /// through `row_of`).
    pub(crate) fn to_pairs(&self, resp: &Resp) -> Vec<f64> {
        match resp {
            Resp::Rows(rows) => self.row_of.iter().map(|&r| rows[r as usize]).collect(),
            Resp::Pairs(pairs) => pairs.clone(),
        }
    }

    /// `Σ_r count_r · f(r)`: a per-row quantity summed over pairs.
    pub(crate) fn count_weighted(&self, f: impl Fn(usize) -> f64) -> f64 {
        self.counts
            .iter()
            .enumerate()
            .map(|(r, &c)| f64::from(c) * f(r))
            .sum()
    }

    /// The cold starts both EM models share, one `γ` per row: smoothed
    /// majority, hard majority, and a pessimistic smoothed majority.
    ///
    /// A smoothed start puts a row with `p` positive of `t` votes at
    /// `(p + 2·prior) / (t + 2)`: unlike hard majority vote, one weak +1
    /// cannot saturate it to 1.0, which under class imbalance would hand
    /// EM a huge spurious match cluster (every chance price coincidence)
    /// to converge into.
    pub(crate) fn cold_starts(&self, prior: f64) -> Vec<(&'static str, Resp)> {
        const K: f64 = 2.0;
        let smoothed = |prior: f64| {
            Resp::Rows(
                self.tallies
                    .iter()
                    .map(|&[pos, tot]| (f64::from(pos) + K * prior) / (f64::from(tot) + K))
                    .collect(),
            )
        };
        vec![
            // Robust under junk-heavy candidate sets.
            ("smoothed", smoothed(prior)),
            // Decisive when LFs are few but precise.
            (
                "majority",
                Resp::Rows(
                    self.tallies
                        .iter()
                        .map(|&[pos, tot]| majority(pos, tot, prior))
                        .collect(),
                ),
            ),
            // Favours small match clusters.
            ("pessimistic", smoothed((prior * 0.25).max(1e-3))),
        ]
    }

    /// The M-step's sums of `resp`. A warm start's per-pair values are
    /// folded into per-row sums here, on its first M-step.
    pub(crate) fn mass(&self, resp: &Resp) -> Mass {
        let rows: Vec<u128> = match resp {
            Resp::Rows(g) => g
                .iter()
                .zip(&self.counts)
                .map(|(&g, &c)| u128::from(fixed(g)) * u128::from(c))
                .collect(),
            Resp::Pairs(g) => {
                let mut rows = vec![0u128; self.n_rows()];
                for (&g, &r) in g.iter().zip(&self.row_of) {
                    rows[r as usize] += u128::from(fixed(g));
                }
                rows
            }
        };
        let votes = self
            .columns
            .iter()
            .map(|col| {
                let (mut plus, mut minus) = (0u128, 0u128);
                for (w_idx, &word) in col.words().iter().enumerate() {
                    let start = w_idx * VOTES_PER_WORD;
                    let lanes = (rows.len() - start).min(VOTES_PER_WORD);
                    let mut w = word;
                    // Branch-free: code `01` (+1) selects the row into
                    // `plus`, code `10` (−1) into `minus`.
                    for &x in &rows[start..start + lanes] {
                        plus += x & 0u128.wrapping_sub(u128::from(w & 1));
                        minus += x & 0u128.wrapping_sub(u128::from((w >> 1) & 1));
                        w >>= 2;
                    }
                }
                [plus, minus]
            })
            .collect();
        Mass {
            total: rows.iter().sum(),
            votes,
        }
    }

    /// `(Σγ, Σ(1 − γ))` over all pairs.
    pub(crate) fn classes(&self, mass: &Mass) -> (f64, f64) {
        let pairs = self.n_pairs as u128 * ONE;
        (real(mass.total), real(pairs - mass.total))
    }

    /// LF `j`'s `(Σγ, Σ(1 − γ))` per vote slot `[+1, −1, abstain]`.
    pub(crate) fn slots(&self, mass: &Mass, j: usize) -> ([f64; 3], [f64; 3]) {
        let [plus, minus] = mass.votes[j];
        let [n_plus, n_minus] = self.lf_votes[j].map(|v| u128::from(v) * ONE);
        let n_abstain = self.n_pairs as u128 * ONE - n_plus - n_minus;
        let abstain = mass.total - plus - minus;
        (
            [real(plus), real(minus), real(abstain)],
            [
                real(n_plus - plus),
                real(n_minus - minus),
                real(n_abstain - abstain),
            ],
        )
    }

    /// LF `j`'s expected agreements with `y`: `Σγ` over its +1 votes plus
    /// `Σ(1 − γ)` over its −1 votes.
    pub(crate) fn agreement(&self, mass: &Mass, j: usize) -> f64 {
        let [plus, minus] = mass.votes[j];
        real(plus + u128::from(self.lf_votes[j][1]) * ONE - minus)
    }

    /// One E-step: `γ_r = σ(base + Σ_j tables[j][code_rj])` per row, with
    /// the terms added in ascending LF order exactly as
    /// `posterior_for_votes` adds them, so a row scores the same bits on
    /// either path. Replaces `resp` and returns the mean `|Δγ|` over pairs.
    pub(crate) fn e_step(&self, base: f64, tables: &[[f64; 4]], resp: &mut Resp) -> f64 {
        let mut gamma = vec![base; self.n_rows()];
        self.fold_terms(&mut gamma, tables, |lo, t| *lo += t);
        for g in &mut gamma {
            *g = sigmoid(*g);
        }
        let moved: u128 = match resp {
            Resp::Rows(old) => gamma
                .iter()
                .zip(old.iter())
                .zip(&self.counts)
                .map(|((g, o), &c)| u128::from(fixed((g - o).abs())) * u128::from(c))
                .sum(),
            Resp::Pairs(old) => old
                .iter()
                .zip(&self.row_of)
                .map(|(o, &r)| u128::from(fixed((gamma[r as usize] - o).abs())))
                .sum(),
        };
        *resp = Resp::Rows(gamma);
        real(moved) / self.n_pairs as f64
    }

    /// The observed-data log-likelihood over pairs,
    /// `Σ_r count_r · ln(π·Π_j P(code_rj | M) + (1−π)·Π_j P(code_rj | U))`,
    /// from per-LF tables mapping each 2-bit code to
    /// `(ln P(code | M), ln P(code | U))`. Per row the terms add to
    /// `ln π` and `ln(1−π)` in ascending LF order.
    pub(crate) fn log_likelihood(&self, pi: f64, tables: &[[(f64, f64); 4]]) -> f64 {
        let mut rows = vec![(pi.ln(), (1.0 - pi).ln()); self.n_rows()];
        self.fold_terms(&mut rows, tables, |(lm, lu), (tm, tu)| {
            *lm += tm;
            *lu += tu;
        });
        self.count_weighted(|r| {
            let (lm, lu) = rows[r];
            let mx = lm.max(lu);
            mx + ((lm - mx).exp() + (lu - mx).exp()).ln()
        })
    }

    /// For each LF in ascending order and each row, `add` that LF's table
    /// entry for the row's 2-bit code into the row's accumulator.
    fn fold_terms<A, T: Copy>(&self, rows: &mut [A], tables: &[[T; 4]], add: impl Fn(&mut A, T)) {
        for (col, table) in self.columns.iter().zip(tables) {
            for (w_idx, &word) in col.words().iter().enumerate() {
                let start = w_idx * VOTES_PER_WORD;
                let lanes = (rows.len() - start).min(VOTES_PER_WORD);
                let mut w = word;
                for row in &mut rows[start..start + lanes] {
                    add(row, table[(w & 0b11) as usize]);
                    w >>= 2;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{matrix_from_columns, plant, PlantedLf};

    /// The votes of row `r` (registry order, `+1/0/−1`).
    fn row(pat: &VotePatterns, r: usize) -> Vec<i8> {
        pat.columns.iter().map(|c| c.get(r)).collect()
    }

    #[test]
    fn rows_are_distinct_counted_and_in_first_appearance_order() {
        let matrix = matrix_from_columns(&[vec![1, 0, 1, -1, 0, 1], vec![0, 0, 0, 1, 0, 0]]);
        let pat = VotePatterns::new(&matrix);
        assert_eq!(pat.n_pairs(), 6);
        assert_eq!(pat.n_rows(), 3);
        assert_eq!(row(&pat, 0), vec![1, 0]);
        assert_eq!(row(&pat, 1), vec![0, 0]);
        assert_eq!(row(&pat, 2), vec![-1, 1]);
        assert_eq!(pat.counts, &[3, 2, 1]);
        assert_eq!(pat.row_of(), &[0, 1, 0, 2, 1, 0]);
        assert_eq!(pat.tallies(), &[[1, 1], [0, 0], [1, 2]]);
        assert_eq!(pat.lf_votes(), &[[3, 1], [1, 0]]);
        for i in 0..6 {
            assert_eq!(row(&pat, pat.row_of()[i] as usize), matrix.row(i));
        }
    }

    #[test]
    fn rows_tell_apart_votes_past_the_32nd_lf() {
        // 40 LFs (two packed words per row): pairs 0 and 1 differ only in
        // LF 35.
        let mut cols = vec![vec![1i8, 1, 1]; 40];
        cols[35] = vec![1, -1, 1];
        let pat = VotePatterns::new(&matrix_from_columns(&cols));
        assert_eq!(pat.n_rows(), 2);
        assert_eq!(pat.row_of(), &[0, 1, 0]);
        assert_eq!(row(&pat, 1)[35], -1);
        assert_eq!(pat.tallies(), &[[40, 40], [39, 40]]);
    }

    #[test]
    fn empty_and_lf_free_matrices() {
        let pat = VotePatterns::new(&LabelMatrix::new());
        assert_eq!((pat.n_pairs(), pat.n_rows(), pat.n_lfs()), (0, 0, 0));
        let p = plant(5, 0.5, &[], 1);
        let pat = VotePatterns::new(&p.matrix);
        assert_eq!((pat.n_pairs(), pat.n_rows()), (5, 1));
        assert_eq!(pat.counts, &[5]);
    }

    /// Row-space sums equal the same sums taken pair by pair, for per-row
    /// and per-pair responsibilities alike, and the `1 − γ` and abstain
    /// sums derived from counts equal the direct ones.
    #[test]
    fn mass_equals_pair_by_pair_fixed_point_sums() {
        let p = plant(700, 0.3, &[PlantedLf::symmetric(0.6, 0.8); 4], 9);
        let pat = VotePatterns::new(&p.matrix);
        let rows: Vec<f64> = (0..pat.n_rows())
            .map(|r| (r as f64 * 0.37).fract())
            .collect();
        let pairs: Vec<f64> = (0..700).map(|i| (i as f64 * 0.011).fract()).collect();
        for (resp, per_pair) in [
            (Resp::Rows(rows.clone()), pat.to_pairs(&Resp::Rows(rows))),
            (Resp::Pairs(pairs.clone()), pairs),
        ] {
            let mass = pat.mass(&resp);
            let (s_m, s_u) = pat.classes(&mass);
            let direct = |f: &dyn Fn(f64) -> u128| real(per_pair.iter().map(|&g| f(g)).sum());
            assert_eq!(s_m, direct(&|g| u128::from(fixed(g))));
            assert_eq!(s_u, direct(&|g| ONE - u128::from(fixed(g))));
            for (j, (_, col)) in p.matrix.packed_columns().enumerate() {
                let (gm, gu) = pat.slots(&mass, j);
                for (slot, code) in [(0, 1u8), (1, 2), (2, 0)] {
                    let on = |f: &dyn Fn(f64) -> u128| {
                        real(
                            (0..700)
                                .filter(|&i| col.code(i) == code)
                                .map(|i| f(per_pair[i]))
                                .sum(),
                        )
                    };
                    assert_eq!(
                        gm[slot],
                        on(&|g| u128::from(fixed(g))),
                        "lf {j} slot {slot}"
                    );
                    assert_eq!(gu[slot], on(&|g| ONE - u128::from(fixed(g))));
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(24))]

        /// Exact sums make a fit independent of pair order: fitting a
        /// shuffled matrix (cold, or warm from the shuffled warm start)
        /// gives the unshuffled posteriors, permuted, bit for bit.
        #[test]
        fn fits_are_equivariant_under_pair_shuffles(
            n in 20usize..400,
            planted_seed in proptest::prelude::any::<u64>(),
            shuffle_seed in proptest::prelude::any::<u64>(),
            lfs in proptest::collection::vec((0.05f64..1.0, 0.5f64..1.0), 1..7),
        ) {
            use crate::{LabelModel, PandaModel, SnorkelModel};
            use rand::seq::SliceRandom;
            use rand::SeedableRng;

            let specs: Vec<PlantedLf> =
                lfs.iter().map(|&(prop, acc)| PlantedLf::symmetric(prop, acc)).collect();
            let p = plant(n, 0.2, &specs, planted_seed);
            let mut perm: Vec<usize> = (0..n).collect();
            perm.shuffle(&mut rand::rngs::SmallRng::seed_from_u64(shuffle_seed));
            let permute = |xs: &[f64]| perm.iter().map(|&i| xs[i].to_bits()).collect::<Vec<_>>();
            let cols: Vec<Vec<i8>> = p.matrix.columns().map(|(_, c)| c).collect();
            let shuffled = matrix_from_columns(
                &cols.iter().map(|c| perm.iter().map(|&i| c[i]).collect()).collect::<Vec<_>>(),
            );
            let warm: Vec<f64> = (0..n).map(|i| ((i * 37 % 101) as f64) / 100.0).collect();
            let shuffled_warm: Vec<f64> = perm.iter().map(|&i| warm[i]).collect();
            let models: [Box<dyn Fn() -> Box<dyn LabelModel>>; 2] = [
                Box::new(|| Box::new(PandaModel::new())),
                Box::new(|| Box::new(SnorkelModel::new())),
            ];
            for model in &models {
                for warm_start in [None, Some((&warm, &shuffled_warm))] {
                    let (mut a, mut b) = (model(), model());
                    if let Some((w, sw)) = warm_start {
                        a.set_warm_start(w);
                        b.set_warm_start(sw);
                    }
                    let original = a.fit_predict(&p.matrix, None);
                    let got: Vec<u64> =
                        b.fit_predict(&shuffled, None).iter().map(|g| g.to_bits()).collect();
                    proptest::prop_assert_eq!(got, permute(&original), "{}", a.name());
                }
            }
        }
    }

    #[test]
    fn fixed_point_clamps_and_rounds_down() {
        assert_eq!(fixed(0.0), 0);
        assert_eq!(u128::from(fixed(1.0)), ONE);
        assert_eq!(u128::from(fixed(7.5)), ONE);
        assert_eq!(fixed(-0.25), 0);
        assert_eq!(fixed(f64::NAN), 0);
        assert_eq!(real(u128::from(fixed(0.5))), 0.5);
        assert_eq!(real(3 * ONE), 3.0);
    }
}
