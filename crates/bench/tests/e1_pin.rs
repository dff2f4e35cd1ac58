//! Pins the paper's quality claim as EXPERIMENTS.md E1 measures it, at
//! E1's own setup (`panda_bench::e1_f1`: 250 entities, seeds 1–3, auto
//! plus curated LFs, 0.95 correlation discounts): on the two product
//! families where the labeling model matters most, Panda's mean F1 beats
//! robust Snorkel's and stays within 0.03 of its recorded value, so a
//! change that quietly costs F1 fails here.

use panda_bench::{e1_f1, mean};
use panda_datasets::DatasetFamily;

/// Index of robust Snorkel and Panda in `e1_f1`'s result.
const SNORKEL_ROBUST: usize = 2;
const PANDA: usize = 3;

/// Mean `(panda, robust snorkel)` F1 over E1's seeds.
fn e1_means(family: DatasetFamily) -> (f64, f64) {
    let runs = [1u64, 2, 3].map(|seed| e1_f1(family, seed));
    let col = |i: usize| mean(&runs.iter().map(|r| r[i]).collect::<Vec<_>>());
    (col(PANDA), col(SNORKEL_ROBUST))
}

fn check(family: DatasetFamily, recorded_panda: f64) {
    let (panda, snorkel) = e1_means(family);
    assert!(
        panda > snorkel,
        "{}: Panda F1 {panda:.3} no longer beats robust Snorkel {snorkel:.3}",
        family.name()
    );
    assert!(
        panda >= recorded_panda - 0.03,
        "{}: Panda F1 {panda:.3} fell more than 0.03 below {recorded_panda}",
        family.name()
    );
}

#[test]
fn panda_beats_robust_snorkel_on_abt_buy() {
    check(DatasetFamily::AbtBuy, 0.963);
}

#[test]
fn panda_beats_robust_snorkel_on_amazon_google() {
    check(DatasetFamily::AmazonGoogle, 0.939);
}
