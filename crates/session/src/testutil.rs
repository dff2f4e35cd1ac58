//! Panel inputs for the packed-vs-decoded oracle tests: label matrices
//! built from `i8` columns, and a strategy drawing whole panels.

use panda_lf::{ColumnSnapshot, LabelMatrix};
use panda_table::{CandidatePair, CandidateSet};
use proptest::prelude::*;

/// A matrix whose column `j` (named `lf{j}`) holds `columns[j]`; every
/// column must have the same length.
pub(crate) fn matrix_of(columns: &[&[i8]]) -> LabelMatrix {
    let n = columns.first().map_or(0, |c| c.len());
    let candidates = CandidateSet::from_pairs((0..n as u32).map(|i| CandidatePair::new(i, 0)));
    let snapshots = columns
        .iter()
        .enumerate()
        .map(|(j, c)| ColumnSnapshot {
            name: format!("lf{j}"),
            version: 0,
            labels: c.to_vec(),
        })
        .collect();
    LabelMatrix::restore(&candidates, snapshots).expect("valid columns")
}

/// One drawn panel: vote columns, posteriors, sampler likelihoods and a
/// `shown` mask, all over the same pairs.
#[derive(Debug, Clone)]
pub(crate) struct Panel {
    pub columns: Vec<Vec<i8>>,
    pub posteriors: Vec<f64>,
    pub likelihood: Vec<f64>,
    pub shown: Vec<bool>,
}

impl Panel {
    pub fn n(&self) -> usize {
        self.posteriors.len()
    }

    pub fn column_refs(&self) -> Vec<&[i8]> {
        self.columns.iter().map(Vec::as_slice).collect()
    }

    pub fn matrix(&self) -> LabelMatrix {
        if self.columns.is_empty() {
            // No column to carry the pair count: restore an empty
            // matrix over the panel's pairs.
            let candidates =
                CandidateSet::from_pairs((0..self.n() as u32).map(|i| CandidatePair::new(i, 0)));
            return LabelMatrix::restore(&candidates, Vec::new()).expect("no columns");
        }
        matrix_of(&self.column_refs())
    }
}

/// A score with many exact ties: dyadic values (|γ − 0.5| of 0.25 and
/// 0.75 are bit-equal), the 0.5 boundary, the ends, NaN, and a uniform
/// draw.
fn tied_score() -> impl Strategy<Value = f64> {
    prop_oneof![
        prop::sample::select(vec![0.25, 0.75, 0.5, 0.0, 1.0, f64::NAN]),
        0.0..1.0f64,
    ]
}

/// `n` in 0..200 (word tails of 31, 32 and 33 lanes occur), 0–40 LFs,
/// each column all-abstain, sparse, dense, all-match or uniform.
pub(crate) fn panels() -> impl Strategy<Value = Panel> {
    (0usize..200, 0usize..41).prop_flat_map(|(n, m)| {
        let column = prop::sample::select(vec![
            vec![0i8],
            vec![0, 0, 0, 0, 0, 0, 0, 1, -1],
            vec![1, -1, 1, -1, 0],
            vec![1],
            vec![-1, 0, 1],
        ])
        .prop_flat_map(move |alphabet| prop::collection::vec(prop::sample::select(alphabet), n));
        let shown_density = prop::sample::select(vec![0u8, 1, 4]);
        (
            prop::collection::vec(column, m),
            prop::collection::vec(tied_score(), n),
            prop::collection::vec(tied_score(), n),
            shown_density.prop_flat_map(move |d| {
                prop::collection::vec((0u8..8).prop_map(move |r| r < d), n)
            }),
        )
            .prop_map(|(columns, posteriors, likelihood, shown)| Panel {
                columns,
                posteriors,
                likelihood,
                shown,
            })
    })
}
