//! LF correlation handling.
//!
//! The data-programming story (paper §1: the labeling model "considers
//! their accuracy and possible correlations") breaks when users register
//! near-duplicate LFs: a conditionally-independent model counts the same
//! evidence twice, over-concentrating the posterior. Auto-generated LFs
//! make this common — several configs in the lattice often produce almost
//! identical votes.
//!
//! This module estimates pairwise LF redundancy from the label matrix and
//! produces per-LF **evidence discounts**: LFs are greedily clustered by
//! vote agreement on co-voted pairs, and each LF in a cluster of size `k`
//! gets discount `1/k`, so a cluster contributes roughly one LF's worth of
//! log-odds. Both EM models accept the discounts as optional vote weights.

use panda_lf::matrix::vote_masks;
use panda_lf::{LabelMatrix, PackedVotes};

/// Column identity between two LFs: the fraction of *identical* votes over
/// pairs where at least one of them votes (an abstain-vs-vote mismatch
/// counts as disagreement). `None` when fewer than `min_overlap` such
/// pairs exist.
///
/// Deliberately strict: measuring agreement only where both vote would
/// flag two *accurate, independent* LFs as redundant (they agree because
/// they are both right). Near-duplicate configs — the case discounts are
/// for — also share their abstention pattern, which independent LFs
/// rarely do.
///
/// Counts word at a time over the packed columns: `total` is the popcount
/// of either LF's vote lanes, `agree` of the lanes where both vote `+1`
/// or both vote `−1`. Both are integers, so the ratio (and every discount
/// built on it) is the decoded-column loop's bit for bit.
pub fn vote_agreement(a: &PackedVotes, b: &PackedVotes, min_overlap: usize) -> Option<f64> {
    let mut agree = 0usize;
    let mut total = 0usize;
    for (&wa, &wb) in a.words().iter().zip(b.words()) {
        let (pos_a, neg_a) = vote_masks(wa);
        let (pos_b, neg_b) = vote_masks(wb);
        total += (pos_a | neg_a | pos_b | neg_b).count_ones() as usize;
        agree += ((pos_a & pos_b) | (neg_a & neg_b)).count_ones() as usize;
    }
    (total >= min_overlap).then(|| agree as f64 / total as f64)
}

/// The decoded-column agreement the packed [`vote_agreement`] replaced,
/// kept as its test oracle.
#[cfg(test)]
fn vote_agreement_decoded(a: &[i8], b: &[i8], min_overlap: usize) -> Option<f64> {
    let mut agree = 0i64;
    let mut total = 0i64;
    for (&x, &y) in a.iter().zip(b) {
        if x != 0 || y != 0 {
            total += 1;
            if x == y {
                agree += 1;
            }
        }
    }
    (total as usize >= min_overlap).then(|| agree as f64 / total as f64)
}

/// Cluster LFs whose pairwise agreement exceeds `threshold` (single-link,
/// greedy over matrix column order). Returns cluster ids per LF.
pub fn redundancy_clusters(matrix: &LabelMatrix, threshold: f64, min_overlap: usize) -> Vec<usize> {
    let cols: Vec<&PackedVotes> = matrix.packed_columns().map(|(_, v)| v).collect();
    cluster_by(cols.len(), threshold, |i, j| {
        vote_agreement(cols[i], cols[j], min_overlap)
    })
}

/// Greedy single-link clustering of `m` LFs in column order: LF `j`
/// joins the cluster LF `i` opened when `agreement(i, j)` reaches
/// `threshold`.
fn cluster_by(
    m: usize,
    threshold: f64,
    agreement: impl Fn(usize, usize) -> Option<f64>,
) -> Vec<usize> {
    let mut cluster = vec![usize::MAX; m];
    let mut next = 0usize;
    for i in 0..m {
        if cluster[i] != usize::MAX {
            continue;
        }
        cluster[i] = next;
        for (j, slot) in cluster.iter_mut().enumerate().skip(i + 1) {
            if *slot == usize::MAX && agreement(i, j).is_some_and(|a| a >= threshold) {
                *slot = next;
            }
        }
        next += 1;
    }
    cluster
}

/// Per-LF evidence discounts from redundancy clusters: LF in a cluster of
/// size `k` gets `1/k`.
pub fn evidence_discounts(matrix: &LabelMatrix, threshold: f64) -> Vec<f64> {
    let clusters = redundancy_clusters(matrix, threshold, 20);
    let mut sizes = std::collections::HashMap::new();
    for &c in &clusters {
        *sizes.entry(c).or_insert(0usize) += 1;
    }
    clusters.iter().map(|c| 1.0 / sizes[c] as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{f1, plant, PlantedLf};
    use crate::{LabelModel, PandaModel, SnorkelModel};
    use panda_lf::{ClosureLf, Label, LfRegistry};
    use std::sync::Arc;

    fn packed(votes: &[i8]) -> PackedVotes {
        PackedVotes::try_from_i8s(votes).expect("valid votes")
    }

    #[test]
    fn agreement_counts_identical_votes_incl_abstain_pattern() {
        let a = [1i8, -1, 0, 1, 0];
        let b = [1i8, 1, 1, 1, 0];
        let (pa, pb) = (packed(&a), packed(&b));
        // Pairs where either votes: 0,1,2,3. Identical: 0 and 3 → 2/4.
        assert_eq!(vote_agreement(&pa, &pb, 1), Some(0.5));
        assert_eq!(vote_agreement(&pa, &pb, 5), None, "below min overlap");
        // Identical columns (including abstains) score 1.
        assert_eq!(vote_agreement(&pa, &pa, 1), Some(1.0));
        assert_eq!(vote_agreement_decoded(&a, &b, 1), Some(0.5));
    }

    #[test]
    fn accurate_but_independent_lfs_are_not_clustered() {
        // Two LFs that agree wherever both vote (both are right) but have
        // different abstention patterns — they must NOT count as
        // redundant.
        let a = [1i8, 0, -1, 0, 1, 0, -1, 0];
        let b = [0i8, 1, 0, -1, 1, 0, 0, -1];
        let agr = vote_agreement(&packed(&a), &packed(&b), 1).unwrap();
        assert!(agr < 0.5, "different abstain pattern → low identity: {agr}");
    }

    /// Planted LFs plus copies of them with a share of votes flipped or
    /// dropped: agreements, clusters and discounts equal the
    /// decoded-column oracle's at thresholds on both sides of the copies'
    /// agreement, including pair counts off a word boundary.
    #[test]
    fn packed_agreement_and_clusters_equal_the_decoded_oracle() {
        for (n, seed) in [(500, 61u64), (1057, 62), (33, 63), (31, 64)] {
            let specs = [
                PlantedLf::symmetric(0.9, 0.85),
                PlantedLf::symmetric(0.5, 0.8),
                PlantedLf::symmetric(0.2, 0.7),
            ];
            let p = plant(n, 0.3, &specs, seed);
            let mut columns: Vec<Vec<i8>> = p.matrix.columns().map(|(_, c)| c).collect();
            for (k, every) in [(0usize, 50usize), (0, 7), (1, 3), (2, 2)] {
                let mut copy = columns[k].clone();
                for (i, v) in copy.iter_mut().enumerate() {
                    if (i * 31 + k) % every == 0 {
                        *v = if *v == 0 { 1 } else { -*v };
                    } else if (i * 17 + k) % (every + 3) == 0 {
                        *v = 0;
                    }
                }
                columns.push(copy);
            }
            columns.push(vec![0; n]);
            let mut reg = LfRegistry::new();
            for (j, col) in columns.iter().enumerate() {
                let col = col.clone();
                reg.upsert(Arc::new(ClosureLf::new(format!("lf{j}"), move |pr| {
                    Label::from_i8(col[pr.pair.left.0 as usize])
                })));
            }
            let mut matrix = panda_lf::LabelMatrix::new();
            matrix.apply(&reg, &p.tables, &p.candidates);
            let decoded: Vec<Vec<i8>> = matrix.columns().map(|(_, c)| c).collect();
            let packed: Vec<&PackedVotes> = matrix.packed_columns().map(|(_, v)| v).collect();
            for i in 0..decoded.len() {
                for j in 0..decoded.len() {
                    for min_overlap in [0, 1, 20, n] {
                        let got = vote_agreement(packed[i], packed[j], min_overlap);
                        let want = vote_agreement_decoded(&decoded[i], &decoded[j], min_overlap);
                        assert_eq!(
                            got.map(f64::to_bits),
                            want.map(f64::to_bits),
                            "n {n}: {i} vs {j}"
                        );
                    }
                }
            }
            for threshold in [0.5, 0.8, 0.9, 0.95, 1.0] {
                let want = cluster_by(decoded.len(), threshold, |i, j| {
                    vote_agreement_decoded(&decoded[i], &decoded[j], 20)
                });
                assert_eq!(
                    redundancy_clusters(&matrix, threshold, 20),
                    want,
                    "n {n} at {threshold}"
                );
                let mut sizes = std::collections::HashMap::new();
                for &c in &want {
                    *sizes.entry(c).or_insert(0usize) += 1;
                }
                let discounts: Vec<u64> = want
                    .iter()
                    .map(|c| (1.0 / sizes[c] as f64).to_bits())
                    .collect();
                let got: Vec<u64> = evidence_discounts(&matrix, threshold)
                    .iter()
                    .map(|d| d.to_bits())
                    .collect();
                assert_eq!(got, discounts, "n {n} at {threshold}");
            }
        }
    }

    #[test]
    fn duplicate_lfs_cluster_together() {
        let p = plant(500, 0.3, &[PlantedLf::symmetric(0.9, 0.85); 1], 61);
        // Clone the single planted column twice + one independent LF.
        let col: Vec<i8> = p.matrix.column("planted_0").unwrap().to_vec();
        let mut reg = LfRegistry::new();
        for name in ["a", "b", "c"] {
            let col = col.clone();
            reg.upsert(Arc::new(ClosureLf::new(name, move |pr| {
                Label::from_i8(col[pr.pair.left.0 as usize])
            })));
        }
        reg.upsert(Arc::new(ClosureLf::new("independent", |pr| {
            Label::from_i8(if pr.pair.left.0 % 2 == 0 { 1 } else { -1 })
        })));
        let mut matrix = panda_lf::LabelMatrix::new();
        matrix.apply(&reg, &p.tables, &p.candidates);
        let clusters = redundancy_clusters(&matrix, 0.95, 20);
        assert_eq!(clusters[0], clusters[1]);
        assert_eq!(clusters[1], clusters[2]);
        assert_ne!(clusters[0], clusters[3]);
        let d = evidence_discounts(&matrix, 0.95);
        assert!((d[0] - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(d[3], 1.0);
    }

    /// Duplicating one LF five times must not materially change the
    /// posterior when discounts are on — and does distort it when off.
    #[test]
    fn discounts_prevent_double_counting() {
        let specs = [
            PlantedLf::symmetric(0.9, 0.75),
            PlantedLf::symmetric(0.9, 0.8),
        ];
        let p = plant(3000, 0.2, &specs, 67);
        // Base: the two planted LFs.
        let base_f1 = f1(&SnorkelModel::new().fit_predict(&p.matrix, None), &p.truth);

        // Duplicate the weaker LF (planted_0, acc .75) five times.
        let col: Vec<i8> = p.matrix.column("planted_0").unwrap().to_vec();
        let col1: Vec<i8> = p.matrix.column("planted_1").unwrap().to_vec();
        let mut reg = LfRegistry::new();
        for k in 0..6 {
            let col = col.clone();
            reg.upsert(Arc::new(ClosureLf::new(format!("dup_{k}"), move |pr| {
                Label::from_i8(col[pr.pair.left.0 as usize])
            })));
        }
        reg.upsert(Arc::new(ClosureLf::new("strong", move |pr| {
            Label::from_i8(col1[pr.pair.left.0 as usize])
        })));
        let mut matrix = panda_lf::LabelMatrix::new();
        matrix.apply(&reg, &p.tables, &p.candidates);

        let plain = f1(&SnorkelModel::new().fit_predict(&matrix, None), &p.truth);
        let discounted = f1(
            &SnorkelModel::new()
                .with_correlation_discounts(0.95)
                .fit_predict(&matrix, None),
            &p.truth,
        );
        // The discounted fit must stay close to the unduplicated baseline;
        // the plain fit is allowed to be anywhere (usually worse or equal).
        assert!(
            (discounted - base_f1).abs() <= (plain - base_f1).abs() + 0.02,
            "base {base_f1:.3}, plain-dup {plain:.3}, discounted {discounted:.3}"
        );
        // And the Panda model exposes the same switch.
        let _ = PandaModel::new()
            .with_correlation_discounts(0.95)
            .fit_predict(&matrix, None);
    }
}
