//! **E1 — the headline claim** (paper §2.1, feature 3): "our labeling
//! model improves the F1-score of the state-of-the-art labeling model
//! [Snorkel] by 12% on average" on real-world benchmark datasets.
//!
//! For every benchmark family (the extended suite: the five standard
//! tasks plus the dirty and schema-mismatched product variants) we build
//! the full LF set (auto-generated + curated), apply it once, then fit
//! majority vote, the Snorkel-style generative model, and the Panda model
//! on the *same* label matrix.
//! Averaged over seeds; the last rows report the average F1 and the
//! relative uplift of Panda over Snorkel.
//!
//! Run: `cargo run --release -p panda-bench --bin e1_labeling_models`

use panda_bench::{e1_f1, mean, write_csv};
use panda_datasets::DatasetFamily;
use panda_eval::TextTable;

fn main() {
    panda_bench::init_obs();
    let seeds = [1u64, 2, 3];
    let mut table = TextTable::new(&[
        "dataset",
        "majority",
        "snorkel-2021",
        "snorkel-robust",
        "panda",
        "vs-2021",
        "vs-robust",
    ]);
    let mut uplift_plain = Vec::new();
    let mut uplift_robust = Vec::new();
    let mut avg = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];

    for family in DatasetFamily::extended_suite() {
        let mut f1 = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for &seed in &seeds {
            for (slot, score) in f1.iter_mut().zip(e1_f1(family, seed)) {
                slot.push(score);
            }
        }
        let means: Vec<f64> = f1.iter().map(|v| mean(v)).collect();
        let up_plain = if means[1] > 0.0 {
            (means[3] - means[1]) / means[1] * 100.0
        } else {
            0.0
        };
        let up_robust = if means[2] > 0.0 {
            (means[3] - means[2]) / means[2] * 100.0
        } else {
            0.0
        };
        uplift_plain.push(up_plain);
        uplift_robust.push(up_robust);
        for (slot, m) in avg.iter_mut().zip(&means) {
            slot.push(*m);
        }
        table.row(&[
            family.name().to_string(),
            format!("{:.3}", means[0]),
            format!("{:.3}", means[1]),
            format!("{:.3}", means[2]),
            format!("{:.3}", means[3]),
            format!("{up_plain:+.1}%"),
            format!("{up_robust:+.1}%"),
        ]);
    }
    table.row(&[
        "AVERAGE".to_string(),
        format!("{:.3}", mean(&avg[0])),
        format!("{:.3}", mean(&avg[1])),
        format!("{:.3}", mean(&avg[2])),
        format!("{:.3}", mean(&avg[3])),
        format!("{:+.1}%", mean(&uplift_plain)),
        format!("{:+.1}%", mean(&uplift_robust)),
    ]);

    println!(
        "E1: labeling model comparison, F1 at threshold 0.5 (mean of {} seeds)\n",
        seeds.len()
    );
    println!("{}", table.render());
    println!(
        "Paper's claim: Panda model improves F1 over the Snorkel labeling model by 12% on average."
    );
    write_csv("e1_labeling_models", &table);
}
