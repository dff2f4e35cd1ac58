//! Shared infrastructure for the experiment binaries (one binary per
//! table/figure reproduced — see DESIGN.md §4 and EXPERIMENTS.md).

use panda_datasets::{generate, DatasetFamily, GeneratorConfig};
use panda_embed::{Blocker, EmbeddingLshBlocker};
use panda_lf::builders::ExtractionPolicy;
use panda_lf::{BoxedLf, ExtractionLf, NumericToleranceLf, SimilarityLf};
use panda_table::{CandidateSet, TablePair};
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

/// `family` at `entities` from `seed`, blocked as a session with that
/// seed blocks it (`SessionConfig::default()`: cosine floor 0.25, 32
/// candidates per record).
fn blocked(family: DatasetFamily, entities: usize, seed: u64) -> (TablePair, CandidateSet) {
    let tables = generate(family, &GeneratorConfig::new(seed).with_entities(entities));
    let mut blocker = EmbeddingLshBlocker::new(seed);
    blocker.max_per_record = Some(32);
    let cands = blocker.candidates(&tables);
    (tables, cands)
}

/// The `BENCH_autolf.json` workloads, shared by `benches/p2_autolf_grid.rs`
/// and `bench_gate` so both time exactly the same calls.
pub mod autolf {
    use panda_autolf::{generate_auto_lfs, AutoLfConfig};
    use panda_datasets::{generate, DatasetFamily, GeneratorConfig};
    use panda_embed::{Blocker, EmbeddingLshBlocker};
    use panda_table::{CandidateSet, TablePair};
    use std::hint::black_box;
    use std::time::{Duration, Instant};

    /// One timed `generate_auto_lfs` workload.
    pub struct Case {
        /// Case key in `BENCH_autolf.json` (`<task>/<entities>e_<n>cands`).
        pub name: String,
        tables: TablePair,
        cands: CandidateSet,
        cfg: AutoLfConfig,
    }

    fn case(task: &str, entities: usize, tables: TablePair, cands: CandidateSet) -> Case {
        Case {
            name: format!("{task}/{entities}e_{}cands", cands.len()),
            tables,
            cands,
            cfg: AutoLfConfig::default(),
        }
    }

    /// Every case:
    ///
    /// * abt-buy 150 and walmart-amazon 150 (schema-mismatched: its
    ///   attribute pairs double the scored axes), blocked with default
    ///   blocker settings;
    /// * abt-buy 300 blocked as a session blocks it — an `ide_loop`
    ///   session's input, whose grid is most of its set-up.
    pub fn cases() -> [Case; 3] {
        let abt = generate(
            DatasetFamily::AbtBuy,
            &GeneratorConfig::new(77).with_entities(150),
        );
        let abt_cands = EmbeddingLshBlocker::new(7).candidates(&abt);
        let wa = generate(
            DatasetFamily::WalmartAmazon,
            &GeneratorConfig::new(55).with_entities(150),
        );
        let wa_cands = EmbeddingLshBlocker::new(55).candidates(&wa);
        let (ide, ide_cands) = super::blocked(DatasetFamily::AbtBuy, 300, 3);
        let mut walmart = case("walmart_amazon", 150, wa, wa_cands);
        walmart.cfg.attribute_pairs = vec![
            ("title".into(), "name".into()),
            ("modelno".into(), "model".into()),
        ];
        [
            case("abt_buy", 150, abt, abt_cands),
            walmart,
            case("abt_buy", 300, ide, ide_cands),
        ]
    }

    impl Case {
        /// Candidate pairs each grid cell scores.
        pub fn pairs(&self) -> usize {
            self.cands.len()
        }

        /// Wall time of `iters` runs of `generate_auto_lfs`.
        pub fn time(&self, iters: u64) -> Duration {
            let started = Instant::now();
            for _ in 0..iters {
                black_box(generate_auto_lfs(&self.tables, &self.cands, &self.cfg));
            }
            started.elapsed()
        }
    }
}

/// The `BENCH_lfapply.json` workloads, shared by `benches/p4_lf_apply.rs`
/// and `bench_gate` so both time exactly the same calls.
pub mod lfapply {
    use panda_datasets::DatasetFamily;
    use panda_lf::{BoxedLf, LabelMatrix, LfRegistry};
    use panda_table::{CandidatePair, CandidateSet, Schema, Table, TablePair};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;
    use std::hint::black_box;
    use std::time::{Duration, Instant};

    /// One timed LF-application workload.
    pub struct Case {
        /// Case key in `BENCH_lfapply.json` (`apply/…` or `add_column/…`).
        pub name: String,
        tables: TablePair,
        cands: CandidateSet,
        lfs: Vec<BoxedLf>,
    }

    /// `LabelMatrix::apply` of the dblp-scholar curated LFs on a fresh
    /// 200-entity batch: the deployment phase's full apply.
    pub fn apply_case() -> Case {
        let (tables, cands) = super::blocked(DatasetFamily::DblpScholar, 200, 11);
        Case {
            name: format!("apply/dblp_scholar_curated/200e_{}cands", cands.len()),
            tables,
            cands,
            lfs: super::curated_lfs(DatasetFamily::DblpScholar),
        }
    }

    /// The curated dblp-scholar `authors_me` (Monge-Elkan with
    /// Jaro-Winkler over author tokens).
    fn authors_me() -> BoxedLf {
        super::curated_lfs(DatasetFamily::DblpScholar)
            .into_iter()
            .find(|lf| lf.name() == "authors_me")
            .expect("curated dblp-scholar set has authors_me")
    }

    /// `LabelMatrix::apply` of `authors_me` alone on [`apply_case`]'s
    /// batch, whose author tokens repeat across candidates.
    pub fn authors_me_case() -> Case {
        let (tables, cands) = super::blocked(DatasetFamily::DblpScholar, 200, 11);
        Case {
            name: format!("apply/dblp_scholar_authors_me/200e_{}cands", cands.len()),
            tables,
            cands,
            lfs: vec![authors_me()],
        }
    }

    /// `LabelMatrix::apply` of `authors_me` on synthetic author lists:
    /// 250 left and 300 right records of 2–8 random 4–8-letter tokens, 20
    /// distinct random candidates per left record. With `pool`, every
    /// token comes from that many distinct tokens, so token pairs repeat
    /// across candidates; without, no token appears twice.
    pub fn token_case(pool: Option<usize>) -> Case {
        let mut rng = SmallRng::seed_from_u64(19);
        let mut seen = HashSet::new();
        let mut fresh = |rng: &mut SmallRng| loop {
            let len = rng.gen_range(4..=8);
            let token: String = (0..len)
                .map(|_| rng.gen_range(b'a'..=b'z') as char)
                .collect();
            if seen.insert(token.clone()) {
                return token;
            }
        };
        let pool: Vec<String> = (0..pool.unwrap_or(0)).map(|_| fresh(&mut rng)).collect();
        let mut table = |rows: usize, rng: &mut SmallRng| {
            let mut t = Table::new("authors", Schema::of_text(&["authors"]));
            for _ in 0..rows {
                let tokens: Vec<String> = (0..rng.gen_range(2..=8))
                    .map(|_| match pool.len() {
                        0 => fresh(rng),
                        n => pool[rng.gen_range(0..n)].clone(),
                    })
                    .collect();
                t.push(vec![tokens.join(" ")]).expect("one text column");
            }
            t
        };
        let (left, right) = (table(250, &mut rng), table(300, &mut rng));
        let mut pairs = Vec::new();
        for l in 0..250u32 {
            let mut picked = HashSet::new();
            while picked.len() < 20 {
                let r = rng.gen_range(0..300u32);
                if picked.insert(r) {
                    pairs.push(CandidatePair::new(l, r));
                }
            }
        }
        let cands = CandidateSet::from_pairs(pairs);
        let tokens = match pool.len() {
            0 => "distinct_tokens".to_string(),
            n => format!("pool{n}_tokens"),
        };
        Case {
            name: format!("apply/authors_me_{tokens}/250x300_{}cands", cands.len()),
            tables: TablePair::new(left, right),
            cands,
            lfs: vec![authors_me()],
        }
    }

    /// `LabelMatrix::add_column` of the curated `name_overlap` LF on
    /// abt-buy 300: the IDE's incremental path for one edited LF.
    pub fn add_column_case() -> Case {
        let (tables, cands) = super::blocked(DatasetFamily::AbtBuy, 300, 3);
        let name_overlap = super::curated_lfs(DatasetFamily::AbtBuy)
            .into_iter()
            .find(|lf| lf.name() == "name_overlap")
            .expect("curated abt-buy set has name_overlap");
        Case {
            name: format!("add_column/abt_buy_name_overlap/300e_{}cands", cands.len()),
            tables,
            cands,
            lfs: vec![name_overlap],
        }
    }

    impl Case {
        /// Wall time of `iters` runs of the case's call, each on a fresh
        /// matrix built outside the clock (`iter_custom`'s contract).
        pub fn time(&self, iters: u64) -> Duration {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let mut matrix = LabelMatrix::new();
                if self.name.starts_with("apply/") {
                    let mut registry = LfRegistry::new();
                    for lf in &self.lfs {
                        registry.upsert(lf.clone());
                    }
                    let started = Instant::now();
                    black_box(matrix.apply(&registry, &self.tables, &self.cands));
                    total += started.elapsed();
                } else {
                    let started = Instant::now();
                    black_box(matrix.add_column(&self.lfs[0], 1, &self.tables, &self.cands))
                        .expect("curated LF applies");
                    total += started.elapsed();
                }
            }
            total
        }
    }
}

/// The `BENCH_blocking.json` workloads, shared by `benches/p5_blocking.rs`
/// and `bench_gate` so both time exactly the same calls.
pub mod blocking {
    use panda_datasets::{generate, DatasetFamily, GeneratorConfig};
    use panda_embed::{Blocker, EmbeddingLshBlocker};
    use panda_table::TablePair;
    use std::hint::black_box;
    use std::time::{Duration, Instant};

    /// One timed blocking workload, with the blocker settings of
    /// `SessionConfig::default()` (cosine floor 0.25, 32 per record).
    pub struct Case {
        /// Case key in `BENCH_blocking.json` (`deploy/…` or `load/…`).
        pub name: String,
        tables: TablePair,
        blocker: EmbeddingLshBlocker,
    }

    fn case(path: &str, family: DatasetFamily, entities: usize, seed: u64) -> Case {
        let tables = generate(family, &GeneratorConfig::new(seed).with_entities(entities));
        let blocker = EmbeddingLshBlocker::new(seed);
        let cands = blocker.candidates(&tables).len();
        let family = family.name().replace('-', "_");
        Case {
            name: format!("{path}/{family}/{entities}e_{cands}cands"),
            tables,
            blocker,
        }
    }

    /// `Blocker::candidates` on a fresh 200-entity dblp-scholar batch: the
    /// deployment phase's blocking.
    pub fn deploy_case() -> Case {
        case("deploy", DatasetFamily::DblpScholar, 200, 11)
    }

    /// `candidates_with_cosines` on abt-buy 300: session load's (and
    /// `rehydrate`'s) blocking plus the sampler likelihood.
    pub fn load_case() -> Case {
        case("load", DatasetFamily::AbtBuy, 300, 3)
    }

    impl Case {
        /// Wall time of `iters` runs of the case's call.
        pub fn time(&self, iters: u64) -> Duration {
            let started = Instant::now();
            for _ in 0..iters {
                if self.name.starts_with("deploy/") {
                    black_box(self.blocker.candidates(black_box(&self.tables)));
                } else {
                    black_box(
                        self.blocker
                            .candidates_with_cosines(black_box(&self.tables)),
                    );
                }
            }
            started.elapsed()
        }
    }
}

/// The `BENCH_emfit.json` workloads, shared by `benches/p3_em_fit.rs`
/// and `bench_gate` so both time exactly the same fits on the same inputs.
pub mod emfit {
    use panda_datasets::{generate, DatasetFamily, GeneratorConfig};
    use panda_lf::LabelMatrix;
    use panda_model::testutil::{plant, PlantedLf};
    use panda_model::{LabelModel, PandaModel, SnorkelModel};
    use panda_session::{PandaSession, SessionConfig};
    use std::hint::black_box;
    use std::time::{Duration, Instant};

    /// One timed label-model fit.
    pub struct Case {
        /// Case key in `BENCH_emfit.json` (`em_fit/<model>/<input>`).
        pub name: String,
        matrix: LabelMatrix,
        /// Posteriors a refit is warm-started from.
        warm: Option<Vec<f64>>,
        model: fn() -> Box<dyn LabelModel>,
    }

    /// The planted 20k-pair, 10-LF matrix (`testutil::plant`, seed 4242,
    /// prior 0.15). Its votes are drawn independently per pair, so few
    /// rows repeat: the worst case for vote patterns.
    fn planted() -> LabelMatrix {
        let lfs = [
            PlantedLf::symmetric(0.9, 0.85),
            PlantedLf::symmetric(0.8, 0.9),
            PlantedLf::symmetric(0.7, 0.75),
            PlantedLf::symmetric(0.5, 0.8),
            PlantedLf::symmetric(0.9, 0.7),
            PlantedLf::symmetric(0.3, 0.95),
            PlantedLf::symmetric(0.6, 0.65),
            PlantedLf::symmetric(0.8, 0.8),
            PlantedLf::symmetric(0.4, 0.7),
            PlantedLf::symmetric(0.7, 0.9),
        ];
        plant(20_000, 0.15, &lfs, 4242).matrix
    }

    /// A session built like `ide_loop`'s (abt-buy 300, auto LFs, then the
    /// curated LFs and a refit): its matrix and converged posteriors.
    fn ide_session() -> (LabelMatrix, Vec<f64>) {
        let tables = generate(
            DatasetFamily::AbtBuy,
            &GeneratorConfig::new(3).with_entities(300),
        );
        let config = SessionConfig {
            seed: 3,
            ..SessionConfig::default()
        };
        let mut session = PandaSession::load(tables, config);
        for lf in super::curated_lfs(DatasetFamily::AbtBuy) {
            session.upsert_lf(lf);
        }
        session.apply();
        (session.matrix().clone(), session.posteriors().to_vec())
    }

    /// Every case: cold Panda and Snorkel fits of the planted matrix, and
    /// a warm-started Panda refit of the `ide_loop`-style session — the
    /// fit a Step-4 edit round runs.
    pub fn cases() -> [Case; 3] {
        let planted = planted();
        let (matrix, posteriors) = ide_session();
        let refit = format!("em_fit/panda_refit/abt_buy_300e_{}pairs", matrix.n_pairs());
        [
            Case {
                name: "em_fit/panda/20k_pairs_10lfs".into(),
                matrix: planted.clone(),
                warm: None,
                model: || Box::new(PandaModel::new()),
            },
            Case {
                name: "em_fit/snorkel/20k_pairs_10lfs".into(),
                matrix: planted,
                warm: None,
                model: || Box::new(SnorkelModel::new()),
            },
            Case {
                name: refit,
                matrix,
                warm: Some(posteriors),
                model: || Box::new(PandaModel::new()),
            },
        ]
    }

    impl Case {
        /// Candidate pairs of the fitted matrix.
        pub fn pairs(&self) -> usize {
            self.matrix.n_pairs()
        }

        /// Wall time of `iters` fits, each by a fresh model (warm-started
        /// off the clock when the case has a warm start).
        pub fn time(&self, iters: u64) -> Duration {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let mut model = (self.model)();
                if let Some(warm) = &self.warm {
                    model.set_warm_start(warm);
                }
                let started = Instant::now();
                black_box(model.fit_predict(black_box(&self.matrix), None));
                total += started.elapsed();
            }
            total
        }
    }
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
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
}
