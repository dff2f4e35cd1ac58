//! Prepared columns and the token cache (the "prepare once, score many"
//! layer).
//!
//! Scoring a candidate pair under a [`SimilarityConfig`] repeats the same
//! three steps on both strings: preprocess, tokenize, weight. When a grid
//! of configurations is evaluated over thousands of candidate pairs —
//! Auto-FuzzyJoin enumeration, LF matrix application — the same *column
//! value* is re-preprocessed and re-tokenized hundreds of times. A
//! [`PreparedColumn`] does that work exactly once per `(table, attribute,
//! pipeline, tokenizer)` combination; a [`TokenCache`] memoises prepared
//! columns (and derived per-record weight vectors) under stable string
//! keys so independent call sites share the work.
//!
//! Cache-key contract: a [`ColumnKey`] identifies an immutable snapshot of
//! one column's text under one preprocessing pipeline and one tokenizer.
//! Pipeline and tokenizer ids are pure functions of the configuration
//! ([`pipeline_id`], `Tokenizer::name`), so the only invalidation rule a
//! caller must observe is: **if a table's rows change, drop that table's
//! entries** ([`TokenCache::invalidate_table`]). Everything else is
//! content-addressed.
//!
//! [`SimilarityConfig`]: crate::config::SimilarityConfig

use crate::config::Weighting;
use crate::preprocess::{apply_pipeline, Preprocess};
use crate::sim::sorted_token_hashes;
use crate::tokenize::Tokenizer;
use crate::weight::{CorpusStats, SortedWeights};
use std::collections::HashMap;
use std::sync::Arc;

/// Stable identifier of a preprocessing pipeline (`"lower+nopunct"`,
/// `"raw"` for the empty pipeline). Matches the pipeline segment of
/// `SimilarityConfig::id`.
pub fn pipeline_id(pipeline: &[Preprocess]) -> String {
    if pipeline.is_empty() {
        "raw".to_string()
    } else {
        pipeline
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join("+")
    }
}

/// One column of one table, preprocessed and tokenized under a single
/// `(pipeline, tokenizer)` choice. Indexed by record position.
#[derive(Debug, Clone, Default)]
pub struct PreparedColumn {
    cleaned: Vec<String>,
    tokens: Vec<Vec<String>>,
    hashes: Vec<Vec<u64>>,
    blank: Vec<bool>,
}

impl PreparedColumn {
    /// Preprocess + tokenize every value of a column. `blank` records the
    /// *raw* text being empty after trimming (scoring treats missing text
    /// as "never joins", so the flag must not depend on the pipeline).
    pub fn build<S: AsRef<str>>(
        texts: &[S],
        pipeline: &[Preprocess],
        tokenizer: Tokenizer,
    ) -> Self {
        let mut cleaned = Vec::with_capacity(texts.len());
        let mut tokens = Vec::with_capacity(texts.len());
        let mut hashes = Vec::with_capacity(texts.len());
        let mut blank = Vec::with_capacity(texts.len());
        for t in texts {
            let raw = t.as_ref();
            blank.push(raw.trim().is_empty());
            let c = apply_pipeline(pipeline, raw);
            let toks = tokenizer.tokens(&c);
            hashes.push(sorted_token_hashes(&toks));
            tokens.push(toks);
            cleaned.push(c);
        }
        PreparedColumn {
            cleaned,
            tokens,
            hashes,
            blank,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.cleaned.len()
    }

    /// True when the column has no records.
    pub fn is_empty(&self) -> bool {
        self.cleaned.is_empty()
    }

    /// The preprocessed text of record `i`.
    pub fn cleaned(&self, i: usize) -> &str {
        &self.cleaned[i]
    }

    /// The token vector of record `i`.
    pub fn tokens(&self, i: usize) -> &[String] {
        &self.tokens[i]
    }

    /// Record `i`'s token set as a sorted, deduplicated hash array — the
    /// form the `*_sorted` similarity kernels consume (see
    /// [`crate::sim::sorted_token_hashes`]).
    pub fn token_hashes(&self, i: usize) -> &[u64] {
        &self.hashes[i]
    }

    /// Was record `i`'s raw text blank (empty after trimming)?
    pub fn is_blank(&self, i: usize) -> bool {
        self.blank[i]
    }

    /// Borrow record `i` for scoring (no weight vector attached).
    pub fn record(&self, i: usize) -> PreparedRef<'_> {
        PreparedRef {
            cleaned: &self.cleaned[i],
            tokens: &self.tokens[i],
            hashes: &self.hashes[i],
            weights: None,
        }
    }

    /// Borrow record `i` for scoring with its prebuilt weight vector.
    pub fn record_weighted<'a>(
        &'a self,
        i: usize,
        weights: &'a [SortedWeights],
    ) -> PreparedRef<'a> {
        PreparedRef {
            cleaned: &self.cleaned[i],
            tokens: &self.tokens[i],
            hashes: &self.hashes[i],
            weights: Some(&weights[i]),
        }
    }

    /// Feed every record's token vector into corpus statistics, one
    /// document per record (the same accounting as tokenizing each record
    /// and calling `CorpusStats::add_document`).
    pub fn add_documents(&self, stats: &mut CorpusStats) {
        for toks in &self.tokens {
            stats.add_document(toks);
        }
    }

    /// Per-record weight vectors under `weighting`. `stats` supplies
    /// corpus IDF for [`Weighting::TfIdf`]; without stats TF-IDF falls
    /// back to TF, mirroring `SimilarityConfig::score`.
    pub fn weight_vectors(
        &self,
        weighting: Weighting,
        stats: Option<&CorpusStats>,
    ) -> Vec<SortedWeights> {
        self.tokens
            .iter()
            .map(|toks| SortedWeights::from_tokens(toks, weighting, stats))
            .collect()
    }
}

/// A borrowed, fully prepared view of one record's column value — what
/// `SimilarityConfig::score_prepared` consumes.
#[derive(Debug, Clone, Copy)]
pub struct PreparedRef<'a> {
    /// Preprocessed text (string measures).
    pub cleaned: &'a str,
    /// Token vector (Monge-Elkan and anything else that needs content).
    pub tokens: &'a [String],
    /// Sorted deduplicated token hashes (unweighted set measures).
    pub hashes: &'a [u64],
    /// Prebuilt sorted weight vector (weighted set measures); `None` falls
    /// back to building weights from `tokens` on the fly.
    pub weights: Option<&'a SortedWeights>,
}

/// Cache key: one column of one table under one pipeline and tokenizer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnKey {
    /// Caller-chosen table identifier (e.g. `"left"` / `"right"` or the
    /// table's name). The text crate is table-agnostic; the id only needs
    /// to be stable for the lifetime of the cache.
    pub table: String,
    /// Column (attribute) name.
    pub attribute: String,
    /// Pipeline id from [`pipeline_id`].
    pub pipeline: String,
    /// Tokenizer id from `Tokenizer::name`.
    pub tokenizer: String,
}

impl ColumnKey {
    /// Convenience constructor deriving the pipeline/tokenizer ids.
    pub fn new(
        table: impl Into<String>,
        attribute: impl Into<String>,
        pipeline: &[Preprocess],
        tokenizer: Tokenizer,
    ) -> Self {
        ColumnKey {
            table: table.into(),
            attribute: attribute.into(),
            pipeline: pipeline_id(pipeline),
            tokenizer: tokenizer.name(),
        }
    }
}

/// Key for a derived per-record weight-vector cache entry: the prepared
/// column plus the weighting scheme and (for TF-IDF) an identifier of the
/// corpus the IDF weights came from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WeightKey {
    /// The underlying prepared column.
    pub column: ColumnKey,
    /// Weighting name (`Weighting::name`).
    pub weighting: String,
    /// Caller-chosen corpus identifier (empty for corpus-free weightings).
    pub corpus: String,
}

/// Memoises [`PreparedColumn`]s and derived weight vectors. Build phases
/// take `&mut self`; the returned `Arc`s are freely shareable across the
/// worker threads of a subsequent parallel scoring phase.
#[derive(Debug, Default)]
pub struct TokenCache {
    columns: HashMap<ColumnKey, Arc<PreparedColumn>>,
    weighted: HashMap<WeightKey, Arc<Vec<SortedWeights>>>,
}

impl TokenCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a prepared column.
    pub fn column(&self, key: &ColumnKey) -> Option<Arc<PreparedColumn>> {
        self.columns.get(key).cloned()
    }

    /// Return the prepared column for `key`, building it with `texts` on
    /// the first request. `texts` is only called on a miss.
    pub fn column_or_build<S: AsRef<str>>(
        &mut self,
        key: ColumnKey,
        texts: impl FnOnce() -> Vec<S>,
        pipeline: &[Preprocess],
        tokenizer: Tokenizer,
    ) -> Arc<PreparedColumn> {
        if let Some(col) = self.columns.get(&key) {
            panda_obs::counter_add("text.token_cache.hits", 1);
            return col.clone();
        }
        panda_obs::counter_add("text.token_cache.misses", 1);
        let col = Arc::new(PreparedColumn::build(&texts(), pipeline, tokenizer));
        self.columns.insert(key, col.clone());
        col
    }

    /// Look up a derived weight-vector entry.
    pub fn weights(&self, key: &WeightKey) -> Option<Arc<Vec<SortedWeights>>> {
        self.weighted.get(key).cloned()
    }

    /// Return the weight vectors for `key`, deriving them from the
    /// prepared column on the first request. The column must already be
    /// cached (weights are always derived, never built from raw text).
    pub fn weights_or_build(
        &mut self,
        key: WeightKey,
        weighting: Weighting,
        stats: Option<&CorpusStats>,
    ) -> Arc<Vec<SortedWeights>> {
        if let Some(w) = self.weighted.get(&key) {
            panda_obs::counter_add("text.weight_cache.hits", 1);
            return w.clone();
        }
        panda_obs::counter_add("text.weight_cache.misses", 1);
        let col = self
            .columns
            .get(&key.column)
            .expect("weights_or_build: prepared column must be cached first")
            .clone();
        let w = Arc::new(col.weight_vectors(weighting, stats));
        self.weighted.insert(key, w.clone());
        w
    }

    /// Number of cached prepared columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty() && self.weighted.is_empty()
    }

    /// Drop every entry for `table` — the one invalidation rule: call this
    /// whenever that table's rows change.
    pub fn invalidate_table(&mut self, table: &str) {
        self.columns.retain(|k, _| k.table != table);
        self.weighted.retain(|k, _| k.column.table != table);
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.columns.clear();
        self.weighted.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Measure, SimilarityConfig};
    use crate::preprocess::standard_pipeline;

    fn texts() -> Vec<&'static str> {
        vec!["Sony Bravia 40' LCD TV", "  ", "LG OLED-55 television"]
    }

    #[test]
    fn prepared_matches_direct_pipeline() {
        let pp = standard_pipeline();
        let col = PreparedColumn::build(&texts(), &pp, Tokenizer::Whitespace);
        assert_eq!(col.len(), 3);
        for (i, t) in texts().iter().enumerate() {
            let cleaned = apply_pipeline(&pp, t);
            assert_eq!(col.cleaned(i), cleaned);
            assert_eq!(col.tokens(i), Tokenizer::Whitespace.tokens(&cleaned));
        }
        assert!(!col.is_blank(0));
        assert!(col.is_blank(1), "whitespace-only raw text is blank");
    }

    #[test]
    fn score_prepared_equals_score_across_the_grid() {
        let a = "Sony Bravia 40' LCD TV";
        let b = "sony bravia 40 lcd television";
        let mut stats = CorpusStats::new();
        stats.add_document(&["sony", "bravia", "tv"]);
        stats.add_document(&["lg", "tv"]);
        for cfg in crate::config::default_config_grid() {
            let ca = PreparedColumn::build(&[a], &cfg.preprocess, cfg.tokenizer);
            let cb = PreparedColumn::build(&[b], &cfg.preprocess, cfg.tokenizer);
            let s = cfg.weighting == Weighting::TfIdf;
            let wa = ca.weight_vectors(cfg.weighting, s.then_some(&stats));
            let wb = cb.weight_vectors(cfg.weighting, s.then_some(&stats));
            let direct = cfg.score(a, b, s.then_some(&stats));
            let prepared =
                cfg.score_prepared(&ca.record_weighted(0, &wa), &cb.record_weighted(0, &wb));
            assert!(
                (direct - prepared).abs() < 1e-12,
                "{}: direct {direct} != prepared {prepared}",
                cfg.id()
            );
            // Weight-free refs fall back to on-the-fly weights, which for
            // TF-IDF degrades to TF — exactly `score` without stats.
            let bare = cfg.score_prepared(&ca.record(0), &cb.record(0));
            let direct_no_stats = cfg.score(a, b, None);
            assert!(
                (direct_no_stats - bare).abs() < 1e-12,
                "{}: bare fallback",
                cfg.id()
            );
        }
    }

    #[test]
    fn score_prepared_covers_non_grid_measures() {
        for measure in [Measure::Dice, Measure::Overlap, Measure::MongeElkan] {
            let cfg = SimilarityConfig {
                measure,
                ..SimilarityConfig::default_jaccard()
            };
            let a = "sony bravia tv";
            let b = "sony bravia lcd";
            let ca = PreparedColumn::build(&[a], &cfg.preprocess, cfg.tokenizer);
            let cb = PreparedColumn::build(&[b], &cfg.preprocess, cfg.tokenizer);
            let direct = cfg.score(a, b, None);
            let prepared = cfg.score_prepared(&ca.record(0), &cb.record(0));
            assert!((direct - prepared).abs() < 1e-12, "{}", cfg.id());
        }
    }

    #[test]
    fn corpus_stats_from_prepared_match_manual_accumulation() {
        let pp = standard_pipeline();
        let col = PreparedColumn::build(&texts(), &pp, Tokenizer::QGram(3));
        let mut from_col = CorpusStats::new();
        col.add_documents(&mut from_col);
        let mut manual = CorpusStats::new();
        for t in texts() {
            manual.add_document(&Tokenizer::QGram(3).tokens(&apply_pipeline(&pp, t)));
        }
        assert_eq!(from_col.n_docs(), manual.n_docs());
        assert_eq!(from_col.vocabulary_size(), manual.vocabulary_size());
        assert_eq!(from_col.doc_freq("#so"), manual.doc_freq("#so"));
    }

    #[test]
    fn cache_builds_once_and_invalidates_per_table() {
        let mut cache = TokenCache::new();
        let pp = standard_pipeline();
        let key = ColumnKey::new("left", "name", &pp, Tokenizer::Whitespace);
        let mut builds = 0;
        for _ in 0..3 {
            cache.column_or_build(
                key.clone(),
                || {
                    builds += 1;
                    texts()
                },
                &pp,
                Tokenizer::Whitespace,
            );
        }
        assert_eq!(builds, 1, "texts closure runs only on the miss");
        assert_eq!(cache.len(), 1);

        let wkey = WeightKey {
            column: key.clone(),
            weighting: Weighting::Uniform.name().to_string(),
            corpus: String::new(),
        };
        let w1 = cache.weights_or_build(wkey.clone(), Weighting::Uniform, None);
        let w2 = cache.weights_or_build(wkey.clone(), Weighting::Uniform, None);
        assert!(Arc::ptr_eq(&w1, &w2), "weight vectors are memoised");
        assert_eq!(w1.len(), 3);

        let other = ColumnKey::new("right", "name", &pp, Tokenizer::Whitespace);
        cache.column_or_build(other.clone(), texts, &pp, Tokenizer::Whitespace);
        cache.invalidate_table("left");
        assert!(cache.column(&key).is_none());
        assert!(cache.weights(&wkey).is_none());
        assert!(cache.column(&other).is_some(), "other table survives");
    }

    #[test]
    fn pipeline_ids_are_stable() {
        assert_eq!(pipeline_id(&[]), "raw");
        let pp = standard_pipeline();
        assert!(!pipeline_id(&pp).is_empty());
        assert_eq!(pipeline_id(&pp), pipeline_id(&standard_pipeline()));
    }
}
