//! Planted-model generators shared by the model tests.
//!
//! Tests plant a known ground truth and synthesize LF votes from an
//! explicit noise process, then check that a model recovers the truth.
//! This validates the *inference code* independently of the dataset
//! generators.

use panda_lf::{ClosureLf, LabelMatrix, LfRegistry};
use panda_table::{CandidatePair, CandidateSet, Schema, Table, TablePair};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One planted LF's behaviour.
#[derive(Debug, Clone, Copy)]
pub struct PlantedLf {
    /// P(vote ≠ 0 | y = match).
    pub propensity_m: f64,
    /// P(vote ≠ 0 | y = non-match).
    pub propensity_u: f64,
    /// P(vote = +1 | voted, y = match).
    pub acc_m: f64,
    /// P(vote = −1 | voted, y = non-match).
    pub acc_u: f64,
}

impl PlantedLf {
    /// A symmetric LF (same accuracy both classes).
    pub fn symmetric(propensity: f64, acc: f64) -> Self {
        PlantedLf {
            propensity_m: propensity,
            propensity_u: propensity,
            acc_m: acc,
            acc_u: acc,
        }
    }
}

/// A planted problem instance.
pub struct Planted {
    /// Ground truth per pair.
    pub truth: Vec<bool>,
    /// The tables/candidates backing the matrix (synthetic placeholders).
    pub tables: TablePair,
    /// Candidate set of `n` pairs.
    pub candidates: CandidateSet,
    /// The label matrix with votes sampled from the planted process.
    pub matrix: LabelMatrix,
}

/// Plant `n` pairs with match prior `pi`, then sample votes for each LF
/// spec. Everything is deterministic given `seed`.
pub fn plant(n: usize, pi: f64, lfs: &[PlantedLf], seed: u64) -> Planted {
    let mut rng = SmallRng::seed_from_u64(seed);
    let truth: Vec<bool> = (0..n).map(|_| rng.gen_bool(pi)).collect();

    // Pre-sample every vote so the ClosureLfs are pure lookups.
    let mut votes: Vec<Vec<i8>> = Vec::with_capacity(lfs.len());
    for spec in lfs {
        let col: Vec<i8> = truth
            .iter()
            .map(|&is_match| {
                let (prop, acc) = if is_match {
                    (spec.propensity_m, spec.acc_m)
                } else {
                    (spec.propensity_u, spec.acc_u)
                };
                if !rng.gen_bool(prop) {
                    0
                } else if is_match {
                    if rng.gen_bool(acc) {
                        1
                    } else {
                        -1
                    }
                } else if rng.gen_bool(acc) {
                    -1
                } else {
                    1
                }
            })
            .collect();
        votes.push(col);
    }

    let (tables, candidates) = diagonal(n);
    let matrix = apply_columns(votes, &tables, &candidates);
    Planted {
        truth,
        tables,
        candidates,
        matrix,
    }
}

/// A label matrix with the given `+1/0/−1` columns (`planted_<j>`), over
/// the pairs `(i, i)` of `n` dummy records.
pub fn matrix_from_columns(columns: &[Vec<i8>]) -> LabelMatrix {
    let n = columns.first().map_or(0, Vec::len);
    let (tables, candidates) = diagonal(n);
    apply_columns(columns.to_vec(), &tables, &candidates)
}

/// Dummy tables of `n` records each and the candidates `(i, i)`.
fn diagonal(n: usize) -> (TablePair, CandidateSet) {
    let schema = Schema::of_text(&["k"]);
    let mut left = Table::new("l", schema.clone());
    let mut right = Table::new("r", schema);
    for i in 0..n {
        left.push(vec![format!("{i}")]).unwrap();
        right.push(vec![format!("{i}")]).unwrap();
    }
    let tables = TablePair::new(left, right);
    let candidates = CandidateSet::from_pairs((0..n as u32).map(|i| CandidatePair::new(i, i)));
    (tables, candidates)
}

/// Apply one lookup LF per column: pair `(i, i)` gets `column[i]`.
fn apply_columns(
    columns: Vec<Vec<i8>>,
    tables: &TablePair,
    candidates: &CandidateSet,
) -> LabelMatrix {
    let mut reg = LfRegistry::new();
    for (j, col) in columns.into_iter().enumerate() {
        reg.upsert(Arc::new(ClosureLf::new(format!("planted_{j}"), move |p| {
            panda_lf::Label::from_i8(col[p.pair.left.0 as usize])
        })));
    }
    let mut matrix = LabelMatrix::new();
    let report = matrix.apply(&reg, tables, candidates);
    assert!(report.failed.is_empty());
    matrix
}

/// F1 of thresholded posteriors against planted truth.
pub fn f1(posteriors: &[f64], truth: &[bool]) -> f64 {
    let mut tp = 0.0;
    let mut fp = 0.0;
    let mut fnc = 0.0;
    for (&g, &t) in posteriors.iter().zip(truth) {
        let pred = g >= 0.5;
        match (pred, t) {
            (true, true) => tp += 1.0,
            (true, false) => fp += 1.0,
            (false, true) => fnc += 1.0,
            _ => {}
        }
    }
    if tp == 0.0 {
        return 0.0;
    }
    let p = tp / (tp + fp);
    let r = tp / (tp + fnc);
    2.0 * p * r / (p + r)
}
