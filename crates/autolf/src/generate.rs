//! The end-to-end auto-LF generator.

use crate::estimate::estimate_thresholds;
use crate::select::{greedy_select, SelectionInput};
use panda_lf::lf::LfProvenance;
use panda_lf::SimilarityLf;
use panda_table::{CandidateSet, Table, TablePair};
use panda_text::config::default_config_grid;
use panda_text::prepared::{ColumnKey, PreparedColumn, TokenCache, WeightKey};
use panda_text::preprocess::standard_pipeline;
use panda_text::tokenize::Tokenizer;
use panda_text::weight::SortedWeights;
use panda_text::{CorpusStats, SimilarityConfig, Weighting};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Generator knobs.
#[derive(Debug, Clone)]
pub struct AutoLfConfig {
    /// Estimated precision every emitted rule (and the union) must meet.
    pub precision_target: f64,
    /// Maximum LFs to emit.
    pub max_lfs: usize,
    /// Threshold grid searched per config (ascending).
    pub thresholds: Vec<f64>,
    /// Minimum estimated support for a rule to be considered.
    pub min_support: usize,
    /// Minimum new pairs a rule must add to the union.
    pub min_gain: usize,
    /// Attributes to join on; `None` auto-detects text attributes present
    /// in both schemas.
    pub attributes: Option<Vec<String>>,
    /// Attribute *pairs* `(left, right)` for schema-mismatched tasks
    /// (walmart `title` vs amazon `name`). Used in addition to
    /// `attributes` / the auto-detected shared set.
    pub attribute_pairs: Vec<(String, String)>,
    /// The emitted LF's −1 threshold as a fraction of its +1 threshold
    /// (0 disables the negative side).
    pub lower_ratio: f64,
}

impl Default for AutoLfConfig {
    fn default() -> Self {
        AutoLfConfig {
            precision_target: 0.85,
            max_lfs: 6,
            thresholds: (5..=19).map(|i| i as f64 * 0.05).collect(),
            min_support: 5,
            min_gain: 3,
            attributes: None,
            attribute_pairs: Vec::new(),
            lower_ratio: 0.3,
        }
    }
}

/// One emitted LF plus the evidence that justified it.
#[derive(Debug, Clone)]
pub struct GeneratedLf {
    /// The ready-to-register LF (`auto_lf_<k>`).
    pub lf: SimilarityLf,
    /// Estimated precision at the chosen threshold.
    pub est_precision: f64,
    /// Estimated correct pairs at the chosen threshold.
    pub est_support: usize,
    /// The config id (`lower+ws|space|uniform|jaccard`).
    pub config_id: String,
    /// Attribute the rule joins on (left side; right side may differ for
    /// schema-mismatched tasks, see [`GeneratedLf::right_attribute`]).
    pub attribute: String,
    /// Right-side attribute of the rule.
    pub right_attribute: String,
    /// Chosen +1 threshold.
    pub threshold: f64,
}

/// Attributes present as text in both schemas (id-ish columns excluded).
fn shared_text_attributes(tables: &TablePair) -> Vec<String> {
    tables
        .left
        .schema()
        .names()
        .filter(|n| tables.right.schema().contains(n))
        .filter(|n| {
            let lower = n.to_lowercase();
            lower != "id" && !lower.ends_with("_id")
        })
        .map(str::to_string)
        .collect()
}

/// Generate auto LFs for a task.
pub fn generate_auto_lfs(
    tables: &TablePair,
    candidates: &CandidateSet,
    cfg: &AutoLfConfig,
) -> Vec<GeneratedLf> {
    let _span = panda_obs::span("autolf.generate");
    let mut attr_pairs: Vec<(String, String)> = cfg
        .attributes
        .clone()
        .unwrap_or_else(|| shared_text_attributes(tables))
        .into_iter()
        .map(|a| (a.clone(), a))
        .collect();
    attr_pairs.extend(cfg.attribute_pairs.iter().cloned());
    let enumerated = attr_pairs.len();
    // Seen-set dedupe: duplicates need not be adjacent (e.g. an explicit
    // attribute pair repeating an auto-detected shared attribute).
    let mut seen_pairs: HashSet<(String, String)> = HashSet::new();
    attr_pairs.retain(|(l, r)| {
        tables.left.schema().contains(l)
            && tables.right.schema().contains(r)
            && seen_pairs.insert((l.clone(), r.clone()))
    });
    panda_obs::counter_add("autolf.attr_pairs_enumerated", enumerated as u64);
    panda_obs::counter_add(
        "autolf.attr_pairs_deduped",
        (enumerated - attr_pairs.len()) as u64,
    );
    if attr_pairs.is_empty() || candidates.is_empty() {
        return Vec::new();
    }

    let grid = default_config_grid();

    // ---- Prepare phase (serial): each (table, attribute, pipeline,
    // tokenizer) column is preprocessed/tokenized exactly once, weight
    // vectors are derived once per weighting, and TF-IDF corpus stats are
    // built lazily — only for the tokenizer classes some TF-IDF config in
    // the grid actually uses.
    let prepare_span = panda_obs::span("autolf.prepare");
    let mut cache = TokenCache::new();
    let mut texts: HashMap<(bool, String), Arc<Vec<String>>> = HashMap::new();
    let mut column_texts = |right: bool, attr: &str| -> Arc<Vec<String>> {
        texts
            .entry((right, attr.to_string()))
            .or_insert_with(|| {
                let table: &Table = if right { &tables.right } else { &tables.left };
                Arc::new(table.records().map(|rec| rec.text(attr)).collect())
            })
            .clone()
    };
    let side_name = |right: bool| if right { "right" } else { "left" };

    // Corpus stats per (attribute pair, word|gram): both sides' values of
    // the paired attributes form one corpus. Documents are cleaned with
    // the standard pipeline, independent of the scoring config's pipeline.
    let tfidf_grams: HashSet<bool> = grid
        .iter()
        .filter(|c| c.weighting == Weighting::TfIdf && c.measure.is_set_measure())
        .map(|c| matches!(c.tokenizer, Tokenizer::QGram(_)))
        .collect();
    let std_pipeline = standard_pipeline();
    let mut stats: HashMap<(String, String, bool), Arc<CorpusStats>> = HashMap::new();
    for (la, ra) in &attr_pairs {
        for &grams in &tfidf_grams {
            let tokenizer = if grams {
                Tokenizer::QGram(3)
            } else {
                Tokenizer::Whitespace
            };
            let mut s = CorpusStats::new();
            for (right, attr) in [(false, la), (true, ra)] {
                let col_texts = column_texts(right, attr);
                let col = cache.column_or_build(
                    ColumnKey::new(side_name(right), attr.clone(), &std_pipeline, tokenizer),
                    || col_texts.to_vec(),
                    &std_pipeline,
                    tokenizer,
                );
                col.add_documents(&mut s);
            }
            stats.insert((la.clone(), ra.clone(), grams), Arc::new(s));
        }
    }

    // One grid cell = one (attribute pair, config): everything the
    // scoring phase needs, resolved against the cache up front.
    struct Cell {
        attr: String,
        right_attr: String,
        config: SimilarityConfig,
        corpus: Option<Arc<CorpusStats>>,
        left_col: Arc<PreparedColumn>,
        right_col: Arc<PreparedColumn>,
        left_weights: Option<Arc<Vec<SortedWeights>>>,
        right_weights: Option<Arc<Vec<SortedWeights>>>,
    }
    let mut cells: Vec<Cell> = Vec::with_capacity(attr_pairs.len() * grid.len());
    for (la, ra) in &attr_pairs {
        for config in &grid {
            let grams = matches!(config.tokenizer, Tokenizer::QGram(_));
            let corpus = (config.weighting == Weighting::TfIdf && config.measure.is_set_measure())
                .then(|| stats[&(la.clone(), ra.clone(), grams)].clone());
            // Weighted set measures attach prebuilt per-record weight
            // vectors; everything else scores straight off the column.
            let weighted = matches!(
                config.measure,
                panda_text::Measure::Jaccard | panda_text::Measure::Cosine
            );
            let mut side = |right: bool, attr: &str| {
                let key =
                    ColumnKey::new(side_name(right), attr, &config.preprocess, config.tokenizer);
                let col_texts = column_texts(right, attr);
                let col = cache.column_or_build(
                    key.clone(),
                    || col_texts.to_vec(),
                    &config.preprocess,
                    config.tokenizer,
                );
                let weights = weighted.then(|| {
                    let corpus_id = corpus
                        .as_ref()
                        .map(|_| format!("{la}~{ra}|{}", if grams { "gram" } else { "word" }))
                        .unwrap_or_default();
                    cache.weights_or_build(
                        WeightKey {
                            column: key,
                            weighting: config.weighting.name().to_string(),
                            corpus: corpus_id,
                        },
                        config.weighting,
                        corpus.as_deref(),
                    )
                });
                (col, weights)
            };
            let (left_col, left_weights) = side(false, la);
            let (right_col, right_weights) = side(true, ra);
            cells.push(Cell {
                attr: la.clone(),
                right_attr: ra.clone(),
                config: config.clone(),
                corpus,
                left_col,
                right_col,
                left_weights,
                right_weights,
            });
        }
    }

    drop(prepare_span);
    panda_obs::counter_add("autolf.tfidf_corpora_built", stats.len() as u64);
    panda_obs::counter_add("autolf.grid_cells", cells.len() as u64);

    // ---- Score phase (parallel): every candidate under every grid cell,
    // then the threshold search. Cells are independent; results come back
    // in cell order, so survivors match the serial nested-loop order.
    struct Survivor {
        attr: String,
        right_attr: String,
        config: SimilarityConfig,
        corpus: Option<Arc<CorpusStats>>,
        threshold: f64,
        est_precision: f64,
        est_support: usize,
        joined: Vec<usize>,
    }
    let score_span = panda_obs::span("autolf.score_grid");
    let survivors: Vec<Survivor> = panda_exec::par_map_indexed(&cells, |_, cell| {
        let scored: Vec<(usize, f64)> = candidates
            .iter()
            .map(|(idx, pair)| {
                let li = pair.left.0 as usize;
                let ri = pair.right.0 as usize;
                if cell.left_col.is_blank(li) || cell.right_col.is_blank(ri) {
                    (idx, -1.0) // missing text never joins
                } else {
                    let a = match &cell.left_weights {
                        Some(w) => cell.left_col.record_weighted(li, w),
                        None => cell.left_col.record(li),
                    };
                    let b = match &cell.right_weights {
                        Some(w) => cell.right_col.record_weighted(ri, w),
                        None => cell.right_col.record(ri),
                    };
                    (idx, cell.config.score_prepared(&a, &b))
                }
            })
            .collect();

        // Smallest threshold meeting the precision target = max recall
        // subject to precision. `best` tracks the cell's strongest
        // estimate across the grid for the prune decision record.
        let mut best = (0.0f64, 0usize);
        let estimates = estimate_thresholds(&scored, candidates, &cfg.thresholds);
        for (&theta, est) in cfg.thresholds.iter().zip(estimates) {
            if est.est_precision > best.0 {
                best = (est.est_precision, est.est_support);
            }
            if est.est_precision >= cfg.precision_target && est.est_support >= cfg.min_support {
                let joined = scored
                    .iter()
                    .filter(|(_, s)| *s >= theta)
                    .map(|(i, _)| *i)
                    .collect();
                if panda_obs::journal_enabled() {
                    panda_obs::event("autolf.cell")
                        .field("decision", "keep")
                        .field("attr", cell.attr.as_str())
                        .field("right_attr", cell.right_attr.as_str())
                        .field("config", cell.config.id())
                        .field("threshold", theta)
                        .field("est_precision", est.est_precision)
                        .field("est_support", est.est_support)
                        .emit();
                }
                return Some(Survivor {
                    attr: cell.attr.clone(),
                    right_attr: cell.right_attr.clone(),
                    config: cell.config.clone(),
                    corpus: cell.corpus.clone(),
                    threshold: theta,
                    est_precision: est.est_precision,
                    est_support: est.est_support,
                    joined,
                });
            }
        }
        if panda_obs::journal_enabled() {
            // Prune record: the cell's best estimate anywhere on the
            // threshold grid, so a near-miss is distinguishable from a
            // hopeless config when debugging LF coverage.
            panda_obs::event("autolf.cell")
                .field("decision", "prune")
                .field("attr", cell.attr.as_str())
                .field("right_attr", cell.right_attr.as_str())
                .field("config", cell.config.id())
                .field("est_precision", best.0)
                .field("est_support", best.1)
                .emit();
        }
        None
    })
    .into_iter()
    .flatten()
    .collect();
    drop(score_span);
    panda_obs::counter_add("autolf.survivors", survivors.len() as u64);

    // Greedy union selection.
    let select_span = panda_obs::span("autolf.select");
    let inputs: Vec<SelectionInput> = survivors
        .iter()
        .map(|s| SelectionInput {
            joined: s.joined.clone(),
            est_support: s.est_support,
        })
        .collect();
    let mut picked = greedy_select(
        &inputs,
        candidates,
        cfg.precision_target,
        cfg.min_gain,
        cfg.max_lfs,
    );

    // Data programming wants *multiple* voters: a single LF cannot carry a
    // labeling model. When the union-gain criterion leaves fewer than
    // three LFs, pad with the next-best survivors (highest support first,
    // one per distinct (attribute, config) so the padding stays diverse);
    // correlated-but-distinct LFs are fine — the labeling model discounts
    // redundancy.
    if picked.len() < 3 {
        let mut order: Vec<usize> = (0..survivors.len()).collect();
        order.sort_by(|&a, &b| survivors[b].est_support.cmp(&survivors[a].est_support));
        for idx in order {
            if picked.len() >= 3.min(cfg.max_lfs.max(1)) {
                break;
            }
            let dup = picked.iter().any(|&p| {
                survivors[p].attr == survivors[idx].attr
                    && survivors[p].config.id() == survivors[idx].config.id()
            });
            if !dup && !picked.contains(&idx) {
                picked.push(idx);
            }
        }
    }

    drop(select_span);
    panda_obs::counter_add("autolf.emitted", picked.len() as u64);
    if panda_obs::journal_enabled() {
        for (k, &idx) in picked.iter().enumerate() {
            let s = &survivors[idx];
            panda_obs::event("autolf.emit")
                .field("name", format!("auto_lf_{k}"))
                .field("attr", s.attr.as_str())
                .field("right_attr", s.right_attr.as_str())
                .field("config", s.config.id())
                .field("threshold", s.threshold)
                .field("est_precision", s.est_precision)
                .field("est_support", s.est_support)
                .emit();
        }
    }

    picked
        .into_iter()
        .enumerate()
        .map(|(k, idx)| {
            let s = &survivors[idx];
            let lower = if cfg.lower_ratio > 0.0 {
                s.threshold * cfg.lower_ratio
            } else {
                -1.0
            };
            // `> upper` vs `≥ theta`: nudge upper below theta so pairs at
            // exactly the chosen threshold still vote +1.
            let mut lf = SimilarityLf::new(
                format!("auto_lf_{k}"),
                s.attr.clone(),
                s.config.clone(),
                s.threshold - 1e-9,
                lower,
            )
            .with_attrs(s.attr.clone(), s.right_attr.clone())
            .with_provenance(LfProvenance::Auto);
            if let Some(corpus) = &s.corpus {
                lf = lf.with_corpus(corpus.clone());
            }
            GeneratedLf {
                lf,
                est_precision: s.est_precision,
                est_support: s.est_support,
                config_id: s.config.id(),
                attribute: s.attr.clone(),
                right_attribute: s.right_attr.clone(),
                threshold: s.threshold,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_datasets::{generate, DatasetFamily, GeneratorConfig};
    use panda_embed::{Blocker, EmbeddingLshBlocker};
    use panda_lf::{LabelMatrix, LabelingFunction, LfRegistry};

    fn abt_task() -> (TablePair, CandidateSet) {
        let tables = generate(
            DatasetFamily::AbtBuy,
            &GeneratorConfig::new(77).with_entities(120),
        );
        let cands = EmbeddingLshBlocker::new(7).candidates(&tables);
        (tables, cands)
    }

    #[test]
    fn generates_lfs_on_abt_buy() {
        let (tables, cands) = abt_task();
        let lfs = generate_auto_lfs(&tables, &cands, &AutoLfConfig::default());
        assert!(!lfs.is_empty(), "should find at least one viable config");
        assert!(lfs.len() <= 6);
        for (k, g) in lfs.iter().enumerate() {
            assert_eq!(g.lf.name(), format!("auto_lf_{k}"));
            assert!(g.est_precision >= 0.85);
            assert!(g.est_support >= 5);
            assert_eq!(g.lf.provenance(), LfProvenance::Auto);
        }
    }

    #[test]
    fn estimated_precision_tracks_true_precision() {
        let (tables, cands) = abt_task();
        let lfs = generate_auto_lfs(&tables, &cands, &AutoLfConfig::default());
        let gold = tables.gold.as_ref().unwrap();
        for g in &lfs {
            // True precision of the +1 votes of this LF.
            let mut tp = 0usize;
            let mut pos = 0usize;
            for (_, pair) in cands.iter() {
                let p = tables.pair_ref(pair).unwrap();
                if g.lf.label(&p) == panda_lf::Label::Match {
                    pos += 1;
                    if gold.contains(&pair) {
                        tp += 1;
                    }
                }
            }
            assert!(pos > 0);
            let true_p = tp as f64 / pos as f64;
            assert!(
                true_p >= g.est_precision - 0.25,
                "estimator shouldn't wildly overpromise: est {:.2} true {:.2} ({})",
                g.est_precision,
                true_p,
                g.config_id
            );
        }
    }

    #[test]
    fn auto_lfs_power_a_useful_label_model() {
        use panda_model::{LabelModel, PandaModel};
        let (tables, cands) = abt_task();
        let lfs = generate_auto_lfs(&tables, &cands, &AutoLfConfig::default());
        let mut reg = LfRegistry::new();
        for g in lfs {
            reg.upsert(Arc::new(g.lf));
        }
        let mut matrix = LabelMatrix::new();
        let report = matrix.apply(&reg, &tables, &cands);
        assert!(report.failed.is_empty());
        let gamma = PandaModel::new().fit_predict(&matrix, Some(&cands));
        let gold = panda_eval::gold_vector(&tables, &cands);
        let m = panda_eval::metrics::metrics_at_half(&gamma, &gold);
        assert!(
            m.f1 > 0.5,
            "auto LFs alone should reach F1 > 0.5 on abt-buy-like data, got {:.3}",
            m.f1
        );
    }

    #[test]
    fn respects_attribute_override_and_empty_candidates() {
        let (tables, _) = abt_task();
        let empty = CandidateSet::new();
        let lfs = generate_auto_lfs(&tables, &empty, &AutoLfConfig::default());
        assert!(lfs.is_empty());

        let cfg = AutoLfConfig {
            attributes: Some(vec!["name".to_string()]),
            ..AutoLfConfig::default()
        };
        let cands = EmbeddingLshBlocker::new(7).candidates(&tables);
        let lfs = generate_auto_lfs(&tables, &cands, &cfg);
        for g in &lfs {
            assert_eq!(g.attribute, "name");
        }
    }
}

#[cfg(test)]
mod pair_tests {
    use super::*;
    use panda_datasets::{generate, DatasetFamily, GeneratorConfig};
    use panda_embed::{Blocker, EmbeddingLshBlocker};
    use panda_lf::LabelingFunction;

    /// Walmart-Amazon has NO shared text attribute, so auto-detection
    /// yields nothing — attribute pairs unlock the task.
    #[test]
    fn attribute_pairs_enable_schema_mismatched_tasks() {
        let tables = generate(
            DatasetFamily::WalmartAmazon,
            &GeneratorConfig::new(55).with_entities(120),
        );
        let cands = EmbeddingLshBlocker::new(55).candidates(&tables);

        let without = generate_auto_lfs(&tables, &cands, &AutoLfConfig::default());
        // Only "price" is shared (numeric; similarity configs on its text
        // rendering rarely clear the precision bar) — the interesting
        // signal needs the pairs.
        let with_pairs = generate_auto_lfs(
            &tables,
            &cands,
            &AutoLfConfig {
                attribute_pairs: vec![
                    ("title".into(), "name".into()),
                    ("modelno".into(), "model".into()),
                ],
                ..AutoLfConfig::default()
            },
        );
        // Without pairs only the shared "price" column is joinable; with
        // pairs the generator finds cross-attribute rules.
        assert!(without.iter().all(|g| g.attribute == g.right_attribute));
        assert!(
            with_pairs.iter().any(|g| g.attribute != g.right_attribute),
            "pairs produce cross-attribute rules"
        );
        // The emitted LF actually reads both attributes.
        let g = with_pairs
            .iter()
            .find(|g| g.attribute == "title")
            .expect("a title/name rule survives");
        let pair = cands.iter().next().unwrap().1;
        let _ = g.lf.label(&tables.pair_ref(pair).unwrap());
    }
}
