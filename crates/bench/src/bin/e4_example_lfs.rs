//! **E4 — the paper's example LFs** (Figures 1–2): `name_overlap` and
//! `size_unmatch` ported verbatim to the builder DSL + regex engine, and
//! measured on abt-buy-like data: coverage, vote polarity, and the
//! empirical accuracy of each polarity against gold.
//!
//! Run: `cargo run --release -p panda-bench --bin e4_example_lfs`

use panda_bench::write_csv;
use panda_datasets::{generate, DatasetFamily, GeneratorConfig};
use panda_eval::TextTable;
use panda_lf::matrix::{mask_where, vote_masks};
use panda_lf::{ExtractionLf, LabelMatrix, LfRegistry, PackedVotes, SimilarityLf};
use panda_table::TablePair;
use panda_text::SimilarityConfig;
use std::sync::Arc;

fn main() {
    panda_bench::init_obs();
    let task = generate(
        DatasetFamily::AbtBuy,
        &GeneratorConfig::new(13).with_entities(300),
    );
    let blocker = panda_embed::EmbeddingLshBlocker::new(13);
    let candidates = panda_embed::Blocker::candidates(&blocker, &task);
    let gold: Vec<bool> = candidates
        .pairs()
        .iter()
        .map(|p| task.gold.as_ref().unwrap().contains(p))
        .collect();

    let mut reg = LfRegistry::new();
    // Figure 2 left: token overlap of "name", > 0.6 → +1, < 0.1 → −1.
    reg.upsert(Arc::new(SimilarityLf::new(
        "name_overlap",
        "name",
        SimilarityConfig::default_jaccard(),
        0.6,
        0.1,
    )));
    // Figure 2 right: regex-extracted sizes disagree → −1.
    reg.upsert(Arc::new(ExtractionLf::size_unmatch(&[
        "name",
        "description",
    ])));

    let mut matrix = LabelMatrix::new();
    let report = matrix.apply(&reg, &task, &candidates);
    assert!(report.failed.is_empty());

    let mut table = TextTable::new(&[
        "lf",
        "coverage",
        "votes_+1",
        "votes_-1",
        "acc_of_+1",
        "acc_of_-1",
    ]);
    for name in ["name_overlap", "size_unmatch"] {
        let stats = vote_accuracy(matrix.packed_column(name).unwrap(), &gold);
        table.row(&[
            name.to_string(),
            format!("{:.3}", stats.coverage),
            stats.pos.to_string(),
            stats.neg.to_string(),
            format!("{:.3}", stats.pos_acc),
            format!("{:.3}", stats.neg_acc),
        ]);
    }

    println!(
        "E4: the paper's Figure-2 example LFs on abt-buy ({} candidates)\n",
        candidates.len()
    );
    println!("{}", table.render());
    println!("The shape to check: both LFs are far better than random on the pairs");
    println!("they vote on (the data-programming requirement), with partial coverage —");
    println!("name_overlap votes both ways; size_unmatch only ever votes -1.");
    write_csv("e4_example_lfs", &table);
    let _ = &task as &TablePair;
}

struct VoteAccuracy {
    coverage: f64,
    pos: usize,
    neg: usize,
    pos_acc: f64,
    neg_acc: f64,
}

/// Vote counts and per-polarity accuracy against gold, as popcounts of
/// the packed column's `+1`/`−1` lane masks and the gold mask.
fn vote_accuracy(votes: &PackedVotes, gold: &[bool]) -> VoteAccuracy {
    let n = votes.len();
    let mut pos = 0usize;
    let mut pos_ok = 0usize;
    let mut neg = 0usize;
    let mut neg_ok = 0usize;
    for (w, &word) in votes.words().iter().enumerate() {
        let (p, q) = vote_masks(word);
        let g = mask_where(n, w, |i| gold[i]);
        pos += p.count_ones() as usize;
        pos_ok += (p & g).count_ones() as usize;
        neg += q.count_ones() as usize;
        neg_ok += (q & !g).count_ones() as usize;
    }
    VoteAccuracy {
        coverage: (pos + neg) as f64 / n.max(1) as f64,
        pos,
        neg,
        pos_acc: if pos == 0 {
            f64::NAN
        } else {
            pos_ok as f64 / pos as f64
        },
        neg_acc: if neg == 0 {
            f64::NAN
        } else {
            neg_ok as f64 / neg as f64
        },
    }
}
