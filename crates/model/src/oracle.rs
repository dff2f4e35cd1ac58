//! Pair-space EM, kept as the test oracle of the row-space fits.
//!
//! This is the EM both models ran before [`crate::patterns`]: every
//! iteration visits every pair × LF, in pair order, with per-pair starts.
//! [`Sums::Exact`] takes the M-step, prior and convergence sums with the
//! fixed-point accumulator the shipped fits use; the row-space fits must
//! equal it bit for bit. [`Sums::Plain`] takes them as plain `f64` sums
//! in pair order — the numerics before vote patterns — which the shipped
//! fits must match within 1e-12 without moving a decision.

use crate::panda::{
    class_conditional, informativeness, vote_term_tables, EmSolution, ALPHA, CODE_SLOT,
};
use crate::patterns::{fixed, real, Resp, ONE};
use crate::snorkel::{accuracy_score, accuracy_term_tables, clamp_param};
use crate::{logit, sigmoid, LabelModel, MajorityVote, PandaModel, SnorkelModel};
use panda_lf::{LabelMatrix, PackedVotes};

/// How the oracle sums responsibilities.
#[derive(Debug, Clone, Copy)]
enum Sums {
    /// Fixed point, as the shipped row-space EM.
    Exact,
    /// `f64` in pair order, as before vote patterns.
    Plain,
}

/// A pair-order sum of responsibilities on top of `start`.
struct Acc {
    sums: Sums,
    start: f64,
    fixed: u128,
    plain: f64,
}

impl Acc {
    fn new(sums: Sums, start: f64) -> Self {
        Acc {
            sums,
            start,
            fixed: 0,
            plain: start,
        }
    }

    /// Add `γ`.
    fn add(&mut self, g: f64) {
        self.fixed += u128::from(fixed(g));
        self.plain += g;
    }

    /// Add `1 − γ`.
    fn add_complement(&mut self, g: f64) {
        self.fixed += ONE - u128::from(fixed(g));
        self.plain += 1.0 - g;
    }

    fn value(&self) -> f64 {
        match self.sums {
            Sums::Exact => self.start + real(self.fixed),
            Sums::Plain => self.plain,
        }
    }
}

/// A fit's output: the posteriors (no transitivity) and the fitted blob
/// ([`LabelModel::capture_fitted`] layout).
type Fit = (Vec<f64>, Vec<f64>);

fn columns(matrix: &LabelMatrix) -> Vec<&PackedVotes> {
    matrix.packed_columns().map(|(_, c)| c).collect()
}

fn lf_votes(cols: &[&PackedVotes]) -> Vec<[u64; 2]> {
    cols.iter()
        .map(|c| {
            let (plus, minus, _) = c.counts();
            [plus as u64, minus as u64]
        })
        .collect()
}

fn discounts(matrix: &LabelMatrix, threshold: Option<f64>) -> Vec<f64> {
    match threshold {
        Some(t) => crate::correlation::evidence_discounts(matrix, t),
        None => vec![1.0; matrix.n_lfs()],
    }
}

/// The smoothed-majority start, per pair from the decoded columns.
fn smoothed(matrix: &LabelMatrix, prior: f64) -> Vec<f64> {
    const K: f64 = 2.0;
    let n = matrix.n_pairs();
    let mut pos = vec![0.0f64; n];
    let mut tot = vec![0.0f64; n];
    for (_, col) in matrix.columns() {
        for (i, &v) in col.iter().enumerate() {
            if v > 0 {
                pos[i] += 1.0;
                tot[i] += 1.0;
            } else if v < 0 {
                tot[i] += 1.0;
            }
        }
    }
    (0..n)
        .map(|i| (pos[i] + K * prior) / (tot[i] + K))
        .collect()
}

fn cold_starts(matrix: &LabelMatrix, prior: f64) -> Vec<Vec<f64>> {
    vec![
        smoothed(matrix, prior),
        MajorityVote::new(prior).fit_predict(matrix, None),
        smoothed(matrix, (prior * 0.25).max(1e-3)),
    ]
}

/// One E-step over pairs; returns the summed `|Δγ|`.
fn e_step(
    cols: &[&PackedVotes],
    base: f64,
    tables: &[[f64; 4]],
    gamma: &mut [f64],
    sums: Sums,
) -> f64 {
    let mut delta = Acc::new(sums, 0.0);
    for (i, g_i) in gamma.iter_mut().enumerate() {
        let mut lo = base;
        for (col, table) in cols.iter().zip(tables) {
            lo += table[col.code(i) as usize];
        }
        let g = sigmoid(lo);
        delta.add((g - *g_i).abs());
        *g_i = g;
    }
    delta.value()
}

fn panda_em(
    model: &PandaModel,
    cols: &[&PackedVotes],
    discounts: &[f64],
    mut gamma: Vec<f64>,
    sums: Sums,
) -> EmSolution {
    let (n, m) = (gamma.len() as f64, cols.len());
    let mut pi = model.prior;
    let mut theta_m = vec![[0.3f64, 0.3, 0.4]; m];
    let mut theta_u = vec![[0.3f64, 0.3, 0.4]; m];
    let (mut iters, mut final_delta) = (0, f64::INFINITY);
    for _ in 0..model.max_iters {
        iters += 1;
        let (mut s_m, mut s_u) = (Acc::new(sums, 0.0), Acc::new(sums, 0.0));
        for &g in &gamma {
            s_m.add(g);
            s_u.add_complement(g);
        }
        let s_m = s_m.value();
        let s_u = match sums {
            Sums::Exact => s_u.value(),
            Sums::Plain => n - s_m,
        };
        for (j, col) in cols.iter().enumerate() {
            let mut cm = [(); 3].map(|_| Acc::new(sums, ALPHA));
            let mut cu = [(); 3].map(|_| Acc::new(sums, ALPHA));
            for (i, &g) in gamma.iter().enumerate() {
                let slot = CODE_SLOT[col.code(i) as usize];
                cm[slot].add(g);
                cu[slot].add_complement(g);
            }
            (theta_m[j], theta_u[j]) =
                class_conditional(cm.map(|a| a.value()), cu.map(|a| a.value()), s_m, s_u);
        }
        if model.learn_prior {
            pi = (s_m / n).clamp(1e-4, model.max_prior);
        }
        let tables = vote_term_tables(&theta_m, &theta_u, discounts);
        final_delta = e_step(cols, logit(pi), &tables, &mut gamma, sums) / n;
        if final_delta <= model.tol {
            break;
        }
    }
    EmSolution {
        gamma: Resp::Pairs(gamma),
        pi,
        theta_m,
        theta_u,
        iters,
        final_delta,
    }
}

fn snorkel_em(
    model: &SnorkelModel,
    cols: &[&PackedVotes],
    discounts: &[f64],
    mut gamma: Vec<f64>,
    sums: Sums,
) -> (Vec<f64>, Vec<f64>, f64) {
    let n = gamma.len() as f64;
    let mut acc = vec![0.7f64; cols.len()];
    let mut pi = model.prior;
    for _ in 0..model.max_iters {
        for (a, col) in acc.iter_mut().zip(cols) {
            let (n_match, n_unmatch, _) = col.counts();
            let votes = 2.0 + (n_match + n_unmatch) as f64;
            let mut agree = Acc::new(sums, 1.0);
            for (i, &g) in gamma.iter().enumerate() {
                match col.code(i) {
                    0b01 => agree.add(g),
                    0b10 => agree.add_complement(g),
                    _ => {}
                }
            }
            *a = clamp_param(agree.value() / votes);
        }
        if model.learn_prior {
            let mut s = Acc::new(sums, 0.0);
            for &g in &gamma {
                s.add(g);
            }
            pi = (s.value() / n).clamp(1e-4, model.max_prior);
        }
        let tables = accuracy_term_tables(&acc, discounts);
        if e_step(cols, logit(pi), &tables, &mut gamma, sums) / n <= model.tol {
            break;
        }
    }
    (gamma, acc, pi)
}

/// `PandaModel::fit_predict` in pair space (no transitivity).
fn panda_fit(model: &PandaModel, matrix: &LabelMatrix, warm: Option<&[f64]>, sums: Sums) -> Fit {
    let cols = columns(matrix);
    let discounts = discounts(matrix, model.correlation_threshold);
    let seed = SnorkelModel {
        prior: model.prior,
        learn_prior: model.learn_prior,
        max_prior: model.max_prior,
        ..SnorkelModel::new()
    };
    let mut inits = cold_starts(matrix, model.prior);
    inits.push(snorkel_fit(&seed, matrix, None, sums).0);
    inits.extend(warm.map(<[f64]>::to_vec));
    let votes = lf_votes(&cols);
    let mut best: Option<(f64, EmSolution)> = None;
    for init in inits {
        let sol = panda_em(model, &cols, &discounts, init, sums);
        let score = informativeness(&votes, &sol);
        if best.as_ref().map(|(b, _)| score > *b).unwrap_or(true) {
            best = Some((score, sol));
        }
    }
    let (_, sol) = best.expect("at least one start");
    let Resp::Pairs(gamma) = sol.gamma else {
        unreachable!("pair-space EM keeps per-pair responsibilities")
    };
    let mut blob = vec![cols.len() as f64, sol.pi];
    blob.extend(sol.theta_m.iter().flatten());
    blob.extend(sol.theta_u.iter().flatten());
    blob.extend(&discounts);
    (gamma, blob)
}

/// `SnorkelModel::fit_predict` in pair space.
fn snorkel_fit(
    model: &SnorkelModel,
    matrix: &LabelMatrix,
    warm: Option<&[f64]>,
    sums: Sums,
) -> Fit {
    let cols = columns(matrix);
    let n = matrix.n_pairs() as f64;
    let discounts = discounts(matrix, model.correlation_threshold);
    let votes = lf_votes(&cols);
    let mut inits = cold_starts(matrix, model.prior);
    inits.extend(warm.map(<[f64]>::to_vec));
    let mut best: Option<(f64, Vec<f64>, Vec<f64>, f64)> = None;
    for init in inits {
        let (gamma, acc, pi) = snorkel_em(model, &cols, &discounts, init, sums);
        let score = accuracy_score(&votes, &acc);
        if best.as_ref().map(|(b, ..)| score > *b).unwrap_or(true) {
            best = Some((score, gamma, acc, pi));
        }
    }
    let (_, gamma, acc, pi) = best.expect("at least one start");
    let mut blob = vec![cols.len() as f64, pi];
    blob.extend(&acc);
    blob.extend(
        votes
            .iter()
            .map(|&[plus, minus]| ((plus + minus) as f64 / n).clamp(1e-6, 1.0)),
    );
    blob.extend(&discounts);
    (gamma, blob)
}

mod tests {
    use super::*;
    use crate::testutil::{matrix_from_columns, plant, PlantedLf};

    /// The shipped row-space fit of a fresh copy of `model`.
    fn shipped<M: LabelModel + Clone>(
        model: &M,
        matrix: &LabelMatrix,
        warm: Option<&[f64]>,
    ) -> Fit {
        let mut model = model.clone();
        if let Some(w) = warm {
            model.set_warm_start(w);
        }
        let posteriors = model.fit_predict(matrix, None);
        (posteriors, model.capture_fitted().expect("fitted"))
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_bit_identical(row: &Fit, pair: &Fit, what: &str) {
        assert_eq!(bits(&row.0), bits(&pair.0), "{what}: posteriors");
        assert_eq!(bits(&row.1), bits(&pair.1), "{what}: fitted parameters");
    }

    /// Largest `|a − b|`, and whether any pair sits on different sides
    /// of 0.5.
    fn gap(a: &[f64], b: &[f64]) -> (f64, bool) {
        assert_eq!(a.len(), b.len());
        let max = a
            .iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max);
        let flip = a.iter().zip(b).any(|(x, y)| (*x >= 0.5) != (*y >= 0.5));
        (max, flip)
    }

    /// A warm start that differs between pairs of one vote row, as a
    /// projected or edited session's posteriors do.
    fn jittered(posteriors: &[f64]) -> Vec<f64> {
        posteriors
            .iter()
            .enumerate()
            .map(|(i, g)| (g + 0.02 * ((i * 7919 % 13) as f64 - 6.0) / 6.0).clamp(0.0, 1.0))
            .collect()
    }

    /// Planted matrices: mixed LFs, more than 32 LFs, and a duplicated
    /// column (so correlation discounts bite).
    fn planted_matrices() -> Vec<(&'static str, LabelMatrix)> {
        let mixed = [
            PlantedLf::symmetric(0.9, 0.85),
            PlantedLf {
                propensity_m: 0.8,
                propensity_u: 0.4,
                acc_m: 0.9,
                acc_u: 0.6,
            },
            PlantedLf::symmetric(0.5, 0.7),
            PlantedLf {
                propensity_m: 0.6,
                propensity_u: 0.95,
                acc_m: 0.6,
                acc_u: 0.93,
            },
            PlantedLf::symmetric(0.3, 0.95),
        ];
        let wide: Vec<PlantedLf> = (0..40)
            .map(|j| PlantedLf::symmetric(0.1 + 0.02 * j as f64, 0.6 + 0.008 * j as f64))
            .collect();
        let base = plant(900, 0.25, &mixed[..3], 61).matrix;
        let cols: Vec<Vec<i8>> = base.columns().map(|(_, c)| c).collect();
        let duplicated = vec![
            cols[0].clone(),
            cols[0].clone(),
            cols[1].clone(),
            cols[2].clone(),
        ];
        vec![
            ("mixed", plant(1500, 0.15, &mixed, 17).matrix),
            ("40 LFs", plant(700, 0.2, &wide, 23).matrix),
            ("duplicated", matrix_from_columns(&duplicated)),
        ]
    }

    fn panda_configs() -> Vec<(&'static str, PandaModel)> {
        vec![
            ("default", PandaModel::new()),
            ("fixed prior", PandaModel::new().with_fixed_prior(0.2)),
            (
                "discounts",
                PandaModel::new().with_correlation_discounts(0.9),
            ),
            (
                "max_iters 0",
                PandaModel {
                    max_iters: 0,
                    ..PandaModel::new()
                },
            ),
        ]
    }

    fn snorkel_configs() -> Vec<(&'static str, SnorkelModel)> {
        vec![
            ("default", SnorkelModel::new()),
            ("fixed prior", SnorkelModel::new().with_fixed_prior(0.2)),
            (
                "discounts",
                SnorkelModel::new().with_correlation_discounts(0.9),
            ),
            (
                "max_iters 0",
                SnorkelModel {
                    max_iters: 0,
                    ..SnorkelModel::new()
                },
            ),
        ]
    }

    #[test]
    fn row_space_equals_the_exact_pair_space_oracle_on_planted_matrices() {
        for (name, matrix) in planted_matrices() {
            for (config, model) in panda_configs() {
                let what = format!("panda {config} on {name}");
                let cold = shipped(&model, &matrix, None);
                assert_bit_identical(&cold, &panda_fit(&model, &matrix, None, Sums::Exact), &what);
                let warm = jittered(&cold.0);
                assert_bit_identical(
                    &shipped(&model, &matrix, Some(&warm)),
                    &panda_fit(&model, &matrix, Some(&warm), Sums::Exact),
                    &format!("{what}, warm"),
                );
            }
            for (config, model) in snorkel_configs() {
                let what = format!("snorkel {config} on {name}");
                let cold = shipped(&model, &matrix, None);
                assert_bit_identical(
                    &cold,
                    &snorkel_fit(&model, &matrix, None, Sums::Exact),
                    &what,
                );
                let warm = jittered(&cold.0);
                assert_bit_identical(
                    &shipped(&model, &matrix, Some(&warm)),
                    &snorkel_fit(&model, &matrix, Some(&warm), Sums::Exact),
                    &format!("{what}, warm"),
                );
            }
        }
    }

    /// The inputs of `tests/label_digests.rs`: per family, a session's
    /// load fit (auto LFs, cold) and its refit after the curated LFs
    /// (warm-started from the load fit).
    struct DigestInputs {
        family: panda_datasets::DatasetFamily,
        load: LabelMatrix,
        load_posteriors: Vec<f64>,
        refit: LabelMatrix,
        refit_posteriors: Vec<f64>,
    }

    fn digest_inputs() -> Vec<DigestInputs> {
        use panda_datasets::{generate, DatasetFamily, GeneratorConfig};
        use panda_session::{PandaSession, SessionConfig};
        DatasetFamily::extended_suite()
            .into_iter()
            .map(|family| {
                let task = generate(family, &GeneratorConfig::new(5).with_entities(80));
                let mut session = PandaSession::load(task, SessionConfig::default());
                let load = session.matrix().clone();
                let load_posteriors = session.posteriors().to_vec();
                for lf in panda_bench::curated_lfs(family) {
                    session.upsert_lf(lf);
                }
                session.apply();
                DigestInputs {
                    family,
                    load,
                    load_posteriors,
                    refit: session.matrix().clone(),
                    refit_posteriors: session.posteriors().to_vec(),
                }
            })
            .collect()
    }

    #[test]
    fn row_space_equals_the_exact_pair_space_oracle_on_the_label_digest_families() {
        let model = PandaModel::new();
        for inputs in digest_inputs() {
            let what = format!("{:?}", inputs.family);
            let cold = shipped(&model, &inputs.load, None);
            assert_eq!(
                bits(&cold.0),
                bits(&inputs.load_posteriors),
                "{what}: session load fit"
            );
            assert_bit_identical(
                &cold,
                &panda_fit(&model, &inputs.load, None, Sums::Exact),
                &format!("{what} load"),
            );
            let warm = shipped(&model, &inputs.refit, Some(&cold.0));
            assert_eq!(
                bits(&warm.0),
                bits(&inputs.refit_posteriors),
                "{what}: session refit"
            );
            assert_bit_identical(
                &warm,
                &panda_fit(&model, &inputs.refit, Some(&cold.0), Sums::Exact),
                &format!("{what} refit"),
            );
            let snorkel = SnorkelModel::new();
            assert_bit_identical(
                &shipped(&snorkel, &inputs.refit, None),
                &snorkel_fit(&snorkel, &inputs.refit, None, Sums::Exact),
                &format!("{what} snorkel"),
            );
        }
    }

    /// FNV-1a over the bits, as `tests/label_digests.rs` digests.
    fn fnv(values: &[f64]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in values {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Why the posterior digests of `tests/label_digests.rs` were
    /// re-captured when EM moved to exact sums over vote patterns: run
    /// with plain `f64` pair-order sums, the oracle reproduces the digests
    /// captured before the change bit for bit, and the shipped fit stays
    /// within 1e-12 of it on every posterior with no pair crossing 0.5 —
    /// on those inputs and on planted matrices.
    #[test]
    fn exact_sums_move_posteriors_by_under_1e_12_and_flip_no_decision() {
        /// Posterior digests pinned before vote patterns, in
        /// `DatasetFamily::extended_suite` order.
        const BEFORE: [u64; 7] = [
            0xe9772ff9172a89cb,
            0x128f9ed2ad4984f5,
            0x0780028fb724c809,
            0xfbe625b18f850a90,
            0xaa193e001f887159,
            0xd740cb19a7b5fe7d,
            0x045074b73f3b42e6,
        ];
        let model = PandaModel::new();
        for (inputs, before) in digest_inputs().into_iter().zip(BEFORE) {
            let what = format!("{:?}", inputs.family);
            let (load, _) = panda_fit(&model, &inputs.load, None, Sums::Plain);
            let (refit, _) = panda_fit(&model, &inputs.refit, Some(&load), Sums::Plain);
            assert_eq!(
                fnv(&refit),
                before,
                "{what}: plain sums are the old numerics"
            );
            for (plain, shipped, stage) in [
                (&load, &inputs.load_posteriors, "load"),
                (&refit, &inputs.refit_posteriors, "refit"),
            ] {
                let (max, flip) = gap(plain, shipped);
                assert!(max <= 1e-12, "{what} {stage}: moved {max:e}");
                assert!(!flip, "{what} {stage}: a decision flipped");
            }
        }
        for (name, matrix) in planted_matrices() {
            let cold = shipped(&PandaModel::new(), &matrix, None);
            let warm = jittered(&cold.0);
            let cases = [
                (
                    cold.0.clone(),
                    panda_fit(&PandaModel::new(), &matrix, None, Sums::Plain).0,
                ),
                (
                    shipped(&PandaModel::new(), &matrix, Some(&warm)).0,
                    panda_fit(&PandaModel::new(), &matrix, Some(&warm), Sums::Plain).0,
                ),
                (
                    shipped(&SnorkelModel::new(), &matrix, None).0,
                    snorkel_fit(&SnorkelModel::new(), &matrix, None, Sums::Plain).0,
                ),
            ];
            for (k, (row, plain)) in cases.iter().enumerate() {
                let (max, flip) = gap(row, plain);
                assert!(max <= 1e-12, "{name} case {k}: moved {max:e}");
                assert!(!flip, "{name} case {k}: a decision flipped");
            }
        }
    }
}
