//! Similarity configurations: one choice along each of the four axes.
//!
//! A [`SimilarityConfig`] is the unit Auto-FuzzyJoin enumerates when
//! generating LFs automatically (paper §2.1, feature 1.3): *preprocessing ×
//! tokenization × weighting × distance function*, to which a threshold is
//! later attached. It is also the engine behind similarity-threshold LFs
//! users write by hand.

use crate::prepared::PreparedRef;
use crate::preprocess::{apply_pipeline, Preprocess};
use crate::sim;
use crate::tokenize::Tokenizer;
use crate::weight::{CorpusStats, SortedWeights};
use serde::{Deserialize, Serialize};

/// Token weighting scheme (axis 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Weighting {
    /// Every distinct token counts 1.
    Uniform,
    /// Term frequency within the string.
    Tf,
    /// TF × corpus IDF (requires [`CorpusStats`]; falls back to TF when
    /// none are provided).
    TfIdf,
}

impl Weighting {
    /// Short stable name used in auto-generated LF descriptions.
    pub fn name(&self) -> &'static str {
        match self {
            Weighting::Uniform => "uniform",
            Weighting::Tf => "tf",
            Weighting::TfIdf => "tfidf",
        }
    }
}

/// Similarity measure (axis 4). Set measures respect the weighting; string
/// measures operate on the preprocessed string and ignore
/// tokenizer/weighting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Measure {
    /// Jaccard over weighted token sets.
    Jaccard,
    /// Cosine over weighted token vectors.
    Cosine,
    /// Dice over (unweighted) token sets.
    Dice,
    /// Overlap coefficient over (unweighted) token sets.
    Overlap,
    /// Normalised Levenshtein similarity on the whole string.
    Levenshtein,
    /// Jaro-Winkler on the whole string.
    JaroWinkler,
    /// Symmetrised Monge-Elkan with Jaro-Winkler inner similarity.
    MongeElkan,
}

impl Measure {
    /// Short stable name used in auto-generated LF descriptions.
    pub fn name(&self) -> &'static str {
        match self {
            Measure::Jaccard => "jaccard",
            Measure::Cosine => "cosine",
            Measure::Dice => "dice",
            Measure::Overlap => "overlap",
            Measure::Levenshtein => "lev",
            Measure::JaroWinkler => "jw",
            Measure::MongeElkan => "me",
        }
    }

    /// Is this a token-set measure (i.e. does it use the tokenizer)?
    pub fn is_set_measure(&self) -> bool {
        matches!(
            self,
            Measure::Jaccard
                | Measure::Cosine
                | Measure::Dice
                | Measure::Overlap
                | Measure::MongeElkan
        )
    }
}

/// One point in the four-axis configuration space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimilarityConfig {
    /// Pre-processing pipeline (axis 1).
    pub preprocess: Vec<Preprocess>,
    /// Tokenizer (axis 2).
    pub tokenizer: Tokenizer,
    /// Token weighting (axis 3).
    pub weighting: Weighting,
    /// Similarity measure (axis 4).
    pub measure: Measure,
}

/// One string prepared for a [`SimilarityConfig`]'s measure: exactly what
/// the measure's kernel reads (see [`SimilarityConfig::prepare`]).
#[derive(Debug, Clone, PartialEq)]
pub enum PreparedText {
    /// Jaccard and cosine: the sorted weight vector.
    Weights(SortedWeights),
    /// Dice and overlap: sorted, deduplicated token hashes.
    Hashes(Vec<u64>),
    /// Levenshtein and Jaro-Winkler: the preprocessed string's chars.
    Chars(Vec<char>),
    /// Monge-Elkan: each token's chars.
    Tokens(sim::TokenChars),
}

impl SimilarityConfig {
    /// The workhorse default: lowercase+clean, whitespace tokens, uniform
    /// weights, Jaccard — the measure behind the paper's `name_overlap`.
    pub fn default_jaccard() -> Self {
        SimilarityConfig {
            preprocess: crate::preprocess::standard_pipeline(),
            tokenizer: Tokenizer::Whitespace,
            weighting: Weighting::Uniform,
            measure: Measure::Jaccard,
        }
    }

    /// A human-readable identifier such as
    /// `"lower+nopunct|space|uniform|jaccard"` — stable across runs, used
    /// to name auto-generated LFs.
    pub fn id(&self) -> String {
        let pp: Vec<&str> = self.preprocess.iter().map(|p| p.name()).collect();
        format!(
            "{}|{}|{}|{}",
            if pp.is_empty() {
                "raw".to_string()
            } else {
                pp.join("+")
            },
            self.tokenizer.name(),
            self.weighting.name(),
            self.measure.name()
        )
    }

    /// Score a pair of strings in `[0,1]`. `stats` supplies corpus IDF for
    /// [`Weighting::TfIdf`]; pass `None` to fall back to TF.
    pub fn score(&self, a: &str, b: &str, stats: Option<&CorpusStats>) -> f64 {
        self.score_texts(&self.prepare(a, stats), &self.prepare(b, stats))
    }

    /// Prepare one string for this configuration's measure: preprocess,
    /// then keep exactly what the measure's kernel reads. Scoring one
    /// string against many prepares it once.
    pub fn prepare(&self, text: &str, stats: Option<&CorpusStats>) -> PreparedText {
        let cleaned = apply_pipeline(&self.preprocess, text);
        let mut buf = String::new();
        match self.measure {
            Measure::Levenshtein | Measure::JaroWinkler => {
                PreparedText::Chars(cleaned.chars().collect())
            }
            Measure::MongeElkan => PreparedText::Tokens(sim::TokenChars::new(
                &self.tokenizer.token_strs(&cleaned, &mut buf),
            )),
            Measure::Dice | Measure::Overlap => PreparedText::Hashes(sim::sorted_token_hashes(
                &self.tokenizer.token_strs(&cleaned, &mut buf),
            )),
            Measure::Jaccard | Measure::Cosine => {
                PreparedText::Weights(SortedWeights::from_tokens(
                    &self.tokenizer.token_strs(&cleaned, &mut buf),
                    self.weighting,
                    stats,
                ))
            }
        }
    }

    /// Score two strings prepared by [`SimilarityConfig::prepare`] under
    /// this configuration — the one scoring kernel behind
    /// [`SimilarityConfig::score`].
    ///
    /// # Panics
    ///
    /// When a text was prepared for a different measure.
    pub fn score_texts(&self, a: &PreparedText, b: &PreparedText) -> f64 {
        use PreparedText as P;
        match (self.measure, a, b) {
            (Measure::Levenshtein, P::Chars(a), P::Chars(b)) => {
                sim::levenshtein_similarity_chars(a, b)
            }
            (Measure::JaroWinkler, P::Chars(a), P::Chars(b)) => sim::jaro_winkler_chars(a, b),
            (Measure::MongeElkan, P::Tokens(a), P::Tokens(b)) => {
                sim::monge_elkan_jaro_winkler(a, b)
            }
            (Measure::Dice, P::Hashes(a), P::Hashes(b)) => sim::dice_sorted(a, b),
            (Measure::Overlap, P::Hashes(a), P::Hashes(b)) => sim::overlap_sorted(a, b),
            (Measure::Jaccard, P::Weights(a), P::Weights(b)) => sim::weighted_jaccard_sorted(a, b),
            (Measure::Cosine, P::Weights(a), P::Weights(b)) => sim::weighted_cosine_sorted(a, b),
            (m, _, _) => panic!("texts were not prepared for measure {m:?}"),
        }
    }

    /// Three-way threshold decision on prepared texts — the vote kernel
    /// of similarity LFs: `Greater` when `score_texts(a, b) > upper`,
    /// `Less` when it is `< lower`, `Equal` (abstain) otherwise.
    ///
    /// Exactly equivalent to scoring with [`SimilarityConfig::score_texts`]
    /// and comparing — same float expressions, same NaN behaviour — but
    /// [`Measure::Levenshtein`] is decided through the banded DP: only the
    /// edit distances that could still keep the score at or above `lower`
    /// are explored, and a length gap beyond that band exits in O(1).
    pub fn classify_texts(
        &self,
        a: &PreparedText,
        b: &PreparedText,
        upper: f64,
        lower: f64,
    ) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        let cmp = |s: f64| {
            if s > upper {
                Ordering::Greater
            } else if s < lower {
                Ordering::Less
            } else {
                Ordering::Equal
            }
        };
        let (Measure::Levenshtein, PreparedText::Chars(ca), PreparedText::Chars(cb)) =
            (self.measure, a, b)
        else {
            return cmp(self.score_texts(a, b));
        };
        let (la, lb) = (ca.len(), cb.len());
        if la == 0 && lb == 0 {
            return cmp(1.0);
        }
        if lower.is_nan() {
            // `s < NaN` never holds, so only the upper bound matters.
            return if sim::levenshtein_similarity_exceeds_chars(ca, cb, upper) {
                Ordering::Greater
            } else {
                Ordering::Equal
            };
        }
        let maxlen = la.max(lb);
        let sim_of = |d: usize| 1.0 - d as f64 / maxlen as f64;
        // A distance is worth resolving exactly while it could still vote
        // Greater (`s > upper` wins even when the thresholds are inverted
        // and `s < lower` also holds) or keep the vote out of NonMatch
        // (`s >= lower`). Beyond both, the vote is Less no matter what.
        let relevant = |d: usize| {
            let s = sim_of(d);
            s >= lower || s > upper
        };
        if !relevant(0) {
            return Ordering::Less; // even identical strings fall below
        }
        let (mut lo, mut hi) = (0usize, maxlen);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if relevant(mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        match sim::levenshtein_bounded_chars(ca, cb, lo) {
            Some(d) => cmp(sim_of(d)),
            None => Ordering::Less,
        }
    }

    /// Score a pair from already-prepared per-record data (see
    /// [`crate::prepared`]). Semantics match [`SimilarityConfig::score`]
    /// exactly: string measures read the preprocessed text, set measures
    /// the token vectors, weighted measures the attached weight vectors
    /// (falling back to building weights from the tokens when a ref
    /// carries none — TF-IDF without weights degrades to TF, like `score`
    /// without stats).
    pub fn score_prepared(&self, a: &PreparedRef<'_>, b: &PreparedRef<'_>) -> f64 {
        match self.measure {
            Measure::Levenshtein => sim::levenshtein_similarity(a.cleaned, b.cleaned),
            Measure::JaroWinkler => sim::jaro_winkler(a.cleaned, b.cleaned),
            Measure::MongeElkan => sim::monge_elkan_sym(a.tokens, b.tokens, sim::jaro_winkler),
            Measure::Dice => sim::dice_sorted(a.hashes, b.hashes),
            Measure::Overlap => sim::overlap_sorted(a.hashes, b.hashes),
            Measure::Jaccard | Measure::Cosine => {
                let result = |wa: &SortedWeights, wb: &SortedWeights| match self.measure {
                    Measure::Jaccard => sim::weighted_jaccard_sorted(wa, wb),
                    _ => sim::weighted_cosine_sorted(wa, wb),
                };
                match (a.weights, b.weights) {
                    (Some(wa), Some(wb)) => result(wa, wb),
                    _ => {
                        let build = |toks| SortedWeights::from_tokens(toks, self.weighting, None);
                        result(&build(a.tokens), &build(b.tokens))
                    }
                }
            }
        }
    }
}

/// The default enumeration grid for Auto-FuzzyJoin: a compact cross product
/// of sensible choices along each axis (40 configurations).
pub fn default_config_grid() -> Vec<SimilarityConfig> {
    let pipelines: Vec<Vec<Preprocess>> = vec![
        vec![Preprocess::Lowercase, Preprocess::NormalizeWhitespace],
        vec![
            Preprocess::Lowercase,
            Preprocess::StripPunctuation,
            Preprocess::NormalizeWhitespace,
        ],
        vec![
            Preprocess::Lowercase,
            Preprocess::StripPunctuation,
            Preprocess::Stem,
            Preprocess::NormalizeWhitespace,
        ],
    ];
    let tokenizers = [Tokenizer::Whitespace, Tokenizer::QGram(3)];
    let weightings = [Weighting::Uniform, Weighting::TfIdf];
    let set_measures = [Measure::Jaccard, Measure::Cosine];
    let string_measures = [Measure::JaroWinkler, Measure::Levenshtein];

    let mut out = Vec::new();
    for pp in &pipelines {
        for tk in tokenizers {
            for w in weightings {
                for m in set_measures {
                    out.push(SimilarityConfig {
                        preprocess: pp.clone(),
                        tokenizer: tk,
                        weighting: w,
                        measure: m,
                    });
                }
            }
        }
        for m in string_measures {
            out.push(SimilarityConfig {
                preprocess: pp.clone(),
                tokenizer: Tokenizer::Whitespace,
                weighting: Weighting::Uniform,
                measure: m,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_jaccard_matches_paper_lf_semantics() {
        // The paper's name_overlap: token overlap of the name attribute.
        let cfg = SimilarityConfig::default_jaccard();
        let s = cfg.score(
            "Sony Bravia 40' LCD TV",
            "sony bravia 40 lcd television",
            None,
        );
        assert!(s > 0.6, "near-identical names score high: {s}");
        let d = cfg.score("Sony Bravia 40' LCD TV", "Canon PowerShot camera", None);
        assert!(d < 0.1, "unrelated names score low: {d}");
    }

    #[test]
    fn ids_are_unique_across_the_grid() {
        let grid = default_config_grid();
        let mut ids: Vec<String> = grid.iter().map(|c| c.id()).collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n, "config ids must be unique");
        assert!(n >= 30, "grid should be reasonably large, got {n}");
    }

    #[test]
    fn tfidf_downweights_common_tokens() {
        let mut stats = CorpusStats::new();
        for _ in 0..50 {
            stats.add_document(&["tv", "lcd"]);
        }
        stats.add_document(&["kdl40", "tv"]);
        stats.add_document(&["xbr9", "tv"]);
        let cfg = SimilarityConfig {
            preprocess: vec![Preprocess::Lowercase],
            tokenizer: Tokenizer::Whitespace,
            weighting: Weighting::TfIdf,
            measure: Measure::Jaccard,
        };
        // Shares only the ubiquitous "tv" token.
        let common = cfg.score("kdl40 tv", "xbr9 tv", Some(&stats));
        // Shares the rare model token.
        let rare = cfg.score("kdl40 tv", "kdl40 lcd", Some(&stats));
        assert!(
            rare > common,
            "rare overlap {rare} should beat common {common}"
        );
    }

    #[test]
    fn string_measures_ignore_tokenizer() {
        let a = SimilarityConfig {
            preprocess: vec![Preprocess::Lowercase],
            tokenizer: Tokenizer::Whitespace,
            weighting: Weighting::Uniform,
            measure: Measure::JaroWinkler,
        };
        let b = SimilarityConfig {
            tokenizer: Tokenizer::QGram(3),
            ..a.clone()
        };
        assert_eq!(a.score("abc", "abd", None), b.score("abc", "abd", None));
    }

    proptest! {
        /// `classify_texts` is exactly "score, then compare" for every
        /// measure in the grid — in particular the banded Levenshtein
        /// path must reproduce the full-DP vote bit for bit.
        #[test]
        fn classify_texts_matches_score_comparison(
            a in "[a-cé ]{0,10}",
            b in "[a-cé ]{0,10}",
            idx in 0usize..36,
            upper in 0.0f64..1.2,
            lower in -0.2f64..1.0,
        ) {
            use std::cmp::Ordering;
            let grid = default_config_grid();
            let cfg = &grid[idx % grid.len()];
            let s = cfg.score(&a, &b, None);
            let expected = if s > upper {
                Ordering::Greater
            } else if s < lower {
                Ordering::Less
            } else {
                Ordering::Equal
            };
            prop_assert_eq!(
                cfg.classify_texts(&cfg.prepare(&a, None), &cfg.prepare(&b, None), upper, lower),
                expected,
                "{} s={} upper={} lower={}", cfg.id(), s, upper, lower
            );
        }

        /// Every config in the grid returns a score in [0,1], symmetric,
        /// and 1.0 for identical strings.
        #[test]
        fn grid_score_invariants(
            a in "[a-c ]{0,12}",
            b in "[a-c ]{0,12}",
            idx in 0usize..36,
        ) {
            let grid = default_config_grid();
            let cfg = &grid[idx % grid.len()];
            let s = cfg.score(&a, &b, None);
            prop_assert!((0.0..=1.0).contains(&s), "score {s} for {}", cfg.id());
            let s2 = cfg.score(&b, &a, None);
            prop_assert!((s - s2).abs() < 1e-9, "symmetry for {}", cfg.id());
            let eq = cfg.score(&a, &a, None);
            prop_assert!((eq - 1.0).abs() < 1e-9, "identity for {}", cfg.id());
        }
    }
}
