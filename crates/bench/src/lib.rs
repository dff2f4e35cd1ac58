//! Shared infrastructure for the experiment binaries (one binary per
//! table/figure reproduced — see DESIGN.md §4 and EXPERIMENTS.md), and
//! the bench ledger behind the committed `BENCH_*.json` files.

pub mod ledger;
pub mod serve;

use panda_datasets::DatasetFamily;
use panda_lf::builders::ExtractionPolicy;
use panda_lf::{BoxedLf, ExtractionLf, NumericToleranceLf, SimilarityLf};
use panda_text::preprocess::standard_pipeline;
use panda_text::{Measure, Preprocess, SimilarityConfig, Tokenizer, Weighting};
use std::path::PathBuf;
use std::sync::Arc;

/// Where experiment CSVs land (`target/experiments/`).
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    std::fs::create_dir_all(&dir).expect("can create target/experiments");
    dir
}

/// Turn on pipeline telemetry for an experiment binary. Every experiment
/// calls this first, so [`write_csv`] can drop a `<id>.metrics.json`
/// snapshot (per-stage spans, counters, gauges) next to the result CSV.
///
/// The registry is process-global, so the snapshot is cleared first:
/// back-to-back experiment runs in one process (or a warm-up pass before
/// a measured one) must not bleed aggregates into each other's
/// `<id>.metrics.json`.
pub fn init_obs() {
    panda_obs::reset();
    panda_obs::set_enabled(true);
}

/// Write one experiment's CSV next to its printed table. When telemetry
/// is live (see [`init_obs`]) the accumulated snapshot is written as
/// `<id>.metrics.json` alongside it.
pub fn write_csv(id: &str, table: &panda_eval::TextTable) {
    let path = experiments_dir().join(format!("{id}.csv"));
    std::fs::write(&path, table.to_csv()).expect("can write experiment csv");
    println!("\n[csv written to {}]", path.display());
    if panda_obs::enabled() {
        let mpath = experiments_dir().join(format!("{id}.metrics.json"));
        std::fs::write(&mpath, panda_obs::snapshot().to_json())
            .expect("can write experiment metrics");
        println!("[metrics written to {}]", mpath.display());
    }
}

fn sim(
    name: &str,
    attr: &str,
    tokenizer: Tokenizer,
    weighting: Weighting,
    measure: Measure,
    upper: f64,
    lower: f64,
) -> BoxedLf {
    Arc::new(SimilarityLf::new(
        name,
        attr,
        SimilarityConfig {
            preprocess: standard_pipeline(),
            tokenizer,
            weighting,
            measure,
        },
        upper,
        lower,
    ))
}

/// The curated ("user-written") LF set per benchmark family — the kind of
/// LFs the paper's demo user ends up with after a few Step-2/3/4
/// iterations. Used by E1 alongside the auto-generated set.
pub fn curated_lfs(family: DatasetFamily) -> Vec<BoxedLf> {
    match family {
        DatasetFamily::AbtBuy | DatasetFamily::AmazonGoogle | DatasetFamily::AbtBuyDirty => vec![
            sim(
                "name_overlap",
                "name",
                Tokenizer::Whitespace,
                Weighting::Uniform,
                Measure::Jaccard,
                0.6,
                0.1,
            ),
            sim(
                "name_tfidf",
                "name",
                Tokenizer::Whitespace,
                Weighting::TfIdf,
                Measure::Cosine,
                0.55,
                0.08,
            ),
            sim(
                "name_3gram",
                "name",
                Tokenizer::QGram(3),
                Weighting::Uniform,
                Measure::Jaccard,
                0.55,
                0.12,
            ),
            Arc::new(ExtractionLf::size_unmatch(&["name", "description"])),
            Arc::new(ExtractionLf::new(
                "model_code",
                &["name", "description"],
                ExtractionPolicy::Symmetric,
                panda_text::extract::model_codes,
            )),
            Arc::new(NumericToleranceLf::new("price_close", "price", 0.15, 0.6)),
        ],
        DatasetFamily::DblpAcm | DatasetFamily::DblpScholar | DatasetFamily::CoraDedup => vec![
            Arc::new(SimilarityLf::new(
                "title_overlap",
                "title",
                SimilarityConfig {
                    preprocess: vec![
                        Preprocess::Lowercase,
                        Preprocess::StripPunctuation,
                        Preprocess::Stem,
                        Preprocess::NormalizeWhitespace,
                    ],
                    tokenizer: Tokenizer::Whitespace,
                    weighting: Weighting::Uniform,
                    measure: Measure::Jaccard,
                },
                0.75,
                0.15,
            )),
            sim(
                "title_3gram",
                "title",
                Tokenizer::QGram(3),
                Weighting::Uniform,
                Measure::Jaccard,
                0.6,
                0.15,
            ),
            Arc::new(SimilarityLf::new(
                "authors_me",
                "authors",
                SimilarityConfig {
                    preprocess: vec![Preprocess::Lowercase, Preprocess::StripPunctuation],
                    tokenizer: Tokenizer::Whitespace,
                    weighting: Weighting::Uniform,
                    measure: Measure::MongeElkan,
                },
                0.9,
                0.3,
            )),
            Arc::new(ExtractionLf::new(
                "year_unmatch",
                &["year"],
                ExtractionPolicy::UnmatchOnly,
                |t| {
                    panda_text::extract::years(t)
                        .iter()
                        .map(u32::to_string)
                        .collect()
                },
            )),
        ],
        DatasetFamily::WalmartAmazon => vec![
            Arc::new(
                SimilarityLf::new(
                    "title_name_tfidf",
                    "title",
                    SimilarityConfig {
                        preprocess: standard_pipeline(),
                        tokenizer: Tokenizer::Whitespace,
                        weighting: Weighting::TfIdf,
                        measure: Measure::Cosine,
                    },
                    0.55,
                    0.08,
                )
                .with_attrs("title", "name"),
            ),
            Arc::new(
                SimilarityLf::new(
                    "model_eq",
                    "modelno",
                    SimilarityConfig {
                        preprocess: standard_pipeline(),
                        tokenizer: Tokenizer::QGram(3),
                        weighting: Weighting::Uniform,
                        measure: Measure::Jaccard,
                    },
                    0.8,
                    0.2,
                )
                .with_attrs("modelno", "model"),
            ),
            Arc::new(
                SimilarityLf::new(
                    "brand_eq",
                    "brand",
                    SimilarityConfig::default_jaccard(),
                    0.9,
                    -1.0,
                )
                .with_attrs("brand", "manufacturer"),
            ),
            Arc::new(NumericToleranceLf::new("price_close", "price", 0.15, 0.6)),
        ],
        DatasetFamily::FodorsZagats => vec![
            sim(
                "name_overlap",
                "name",
                Tokenizer::Whitespace,
                Weighting::Uniform,
                Measure::Jaccard,
                0.6,
                0.1,
            ),
            sim(
                "addr_overlap",
                "addr",
                Tokenizer::Whitespace,
                Weighting::Uniform,
                Measure::Jaccard,
                0.7,
                0.05,
            ),
            Arc::new(ExtractionLf::new(
                "phone_eq",
                &["phone"],
                ExtractionPolicy::Symmetric,
                |t| {
                    // Normalise phone digits, compare as a unit.
                    let digits: String = t.chars().filter(char::is_ascii_digit).collect();
                    if digits.len() >= 7 {
                        vec![digits]
                    } else {
                        vec![]
                    }
                },
            )),
            sim(
                "name_jw",
                "name",
                Tokenizer::Whitespace,
                Weighting::Uniform,
                Measure::JaroWinkler,
                0.92,
                0.5,
            ),
        ],
    }
}

/// E1's setup for one family and seed (EXPERIMENTS.md E1): a
/// 250-entity task, a default session (auto LFs) plus the curated LFs,
/// applied once, then four labeling models fitted on the same matrix.
/// Returns F1 at 0.5 for `[majority, snorkel-2021, snorkel-robust, panda]`;
/// the robust Snorkel and Panda models get the 0.95 near-duplicate
/// correlation discounts.
pub fn e1_f1(family: DatasetFamily, seed: u64) -> [f64; 4] {
    use panda_eval::metrics::metrics_at_half;
    use panda_model::{LabelModel, MajorityVote, PandaModel, SnorkelModel};
    use panda_session::{PandaSession, SessionConfig};

    let task = panda_datasets::generate(
        family,
        &panda_datasets::GeneratorConfig::new(seed).with_entities(250),
    );
    let mut session = PandaSession::load(task, SessionConfig::default());
    for lf in curated_lfs(family) {
        session.upsert_lf(lf);
    }
    session.apply();
    let gold = session.gold_vector().expect("benchmark gold");
    let (matrix, cands) = (session.matrix(), Some(session.candidates()));
    // Two Snorkel baselines bracket the comparison:
    //  * snorkel-2021: the conditionally-independent model as the paper
    //    compared against — no correlation handling, so the
    //    intentionally-correlated auto LFs get double counted;
    //  * snorkel-robust: the same model with our near-duplicate evidence
    //    discounts, the strongest generic baseline we can build. Panda
    //    gets the discounts too, so the vs-robust column isolates the
    //    EM-specific parametrization.
    [
        MajorityVote::default().fit_predict(matrix, cands),
        SnorkelModel::new().fit_predict(matrix, cands),
        SnorkelModel::new()
            .with_correlation_discounts(0.95)
            .fit_predict(matrix, cands),
        PandaModel::new()
            .with_correlation_discounts(0.95)
            .fit_predict(matrix, cands),
    ]
    .map(|posteriors| metrics_at_half(&posteriors, &gold).f1)
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The `q` quantile of a non-empty slice, interpolated between the two
/// nearest ranks (`q = 0.5` is the median).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let (below, above) = (sorted[rank.floor() as usize], sorted[rank.ceil() as usize]);
    below + (above - below) * rank.fract()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curated_sets_are_nonempty_with_unique_names() {
        for fam in [
            DatasetFamily::AbtBuy,
            DatasetFamily::AmazonGoogle,
            DatasetFamily::WalmartAmazon,
            DatasetFamily::AbtBuyDirty,
            DatasetFamily::DblpAcm,
            DatasetFamily::DblpScholar,
            DatasetFamily::FodorsZagats,
            DatasetFamily::CoraDedup,
        ] {
            let lfs = curated_lfs(fam);
            assert!(lfs.len() >= 4, "{fam:?}");
            let mut names: Vec<&str> = lfs.iter().map(|l| l.name()).collect();
            let n = names.len();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), n, "duplicate LF names for {fam:?}");
        }
    }

    #[test]
    fn mean_works() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
    }
}
