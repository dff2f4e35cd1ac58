//! Token weighting (axis 3 of the utility library).
//!
//! Rare tokens ("KDL-40V2500") identify products; frequent tokens ("tv",
//! "black") don't. TF-IDF weighting makes overlap measures pay attention to
//! the former. [`CorpusStats`] accumulates document frequencies over one or
//! both input tables and hands out per-token IDF weights.

use crate::config::Weighting;
use std::collections::HashMap;

/// Corpus-level document-frequency statistics for TF-IDF weighting.
#[derive(Debug, Clone, Default)]
pub struct CorpusStats {
    doc_freq: HashMap<String, u32>,
    n_docs: u32,
}

impl CorpusStats {
    /// Empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one document's token multiset (duplicates within the document
    /// count once, as usual for document frequency).
    pub fn add_document<S: AsRef<str>>(&mut self, tokens: &[S]) {
        self.n_docs += 1;
        let mut seen: Vec<&str> = Vec::with_capacity(tokens.len());
        for t in tokens {
            let t = t.as_ref();
            if !seen.contains(&t) {
                seen.push(t);
                *self.doc_freq.entry(t.to_string()).or_insert(0) += 1;
            }
        }
    }

    /// Number of documents added.
    pub fn n_docs(&self) -> u32 {
        self.n_docs
    }

    /// Document frequency of a token.
    pub fn doc_freq(&self, token: &str) -> u32 {
        self.doc_freq.get(token).copied().unwrap_or(0)
    }

    /// Smoothed inverse document frequency:
    /// `idf(t) = ln(1 + N / (1 + df(t)))`.
    ///
    /// Smoothing keeps unseen tokens finite and strictly positive, so
    /// weighted measures degrade gracefully on out-of-corpus tokens.
    pub fn idf(&self, token: &str) -> f64 {
        let n = self.n_docs.max(1) as f64;
        let df = self.doc_freq(token) as f64;
        (1.0 + n / (1.0 + df)).ln()
    }

    /// Distinct tokens seen.
    pub fn vocabulary_size(&self) -> usize {
        self.doc_freq.len()
    }
}

/// A weighted token vector: token → weight (weights ≥ 0).
pub type WeightedTokens = HashMap<String, f64>;

/// Build a uniform-weight vector (every distinct token weight 1).
pub fn uniform_weights<S: AsRef<str>>(tokens: &[S]) -> WeightedTokens {
    let mut out = WeightedTokens::with_capacity(tokens.len());
    for t in tokens {
        out.insert(t.as_ref().to_string(), 1.0);
    }
    out
}

/// Build a term-frequency vector (token count within the input).
pub fn tf_weights<S: AsRef<str>>(tokens: &[S]) -> WeightedTokens {
    let mut out = WeightedTokens::with_capacity(tokens.len());
    for t in tokens {
        *out.entry(t.as_ref().to_string()).or_insert(0.0) += 1.0;
    }
    out
}

/// Build a TF-IDF vector against corpus statistics.
pub fn tfidf_weights<S: AsRef<str>>(tokens: &[S], stats: &CorpusStats) -> WeightedTokens {
    let mut out = tf_weights(tokens);
    for (tok, w) in out.iter_mut() {
        *w *= stats.idf(tok);
    }
    out
}

/// A weighted token vector in scoring form: `(token_hash, weight)` entries
/// sorted by hash, plus the precomputed L2 norm. This is what the
/// merge-walk kernels ([`crate::sim::weighted_jaccard_sorted`],
/// [`crate::sim::weighted_cosine_sorted`]) consume — no hashing, no map
/// lookups, and a summation order fixed once at build time, so scores are
/// bit-stable across runs (a `HashMap`'s iteration order is not).
///
/// Hash collisions merge the colliding tokens into one entry whose weight
/// is the **sum** of theirs (total mass is preserved); entries with equal
/// hashes are summed in ascending weight order so even that case is
/// deterministic. See the collision notes on
/// [`crate::sim::sorted_token_hashes`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SortedWeights {
    entries: Vec<(u64, f64)>,
    norm: f64,
}

impl SortedWeights {
    /// Convert a token→weight map (hashes the keys, sorts, merges).
    pub fn from_weighted(w: &WeightedTokens) -> Self {
        Self::from_hashed_entries(
            w.iter()
                .map(|(t, &wt)| (crate::sim::token_hash(t), wt))
                .collect(),
        )
    }

    /// The weight vector of a token list under `weighting` — bit for bit
    /// `from_weighted` of [`uniform_weights`], [`tf_weights`] or
    /// [`tfidf_weights`] (TF-IDF without `stats` falls back to TF), built
    /// by sorting the tokens instead of filling a map with copies of them.
    pub fn from_tokens<S: AsRef<str>>(
        tokens: &[S],
        weighting: Weighting,
        stats: Option<&CorpusStats>,
    ) -> Self {
        let mut keyed: Vec<(u64, &str)> = tokens
            .iter()
            .map(|t| (crate::sim::token_hash(t.as_ref()), t.as_ref()))
            .collect();
        keyed.sort_unstable();
        // Each run of equal `(hash, token)` is one distinct token; its
        // length is the token's count, exact in f64 like the map's `+= 1.0`.
        let mut entries = Vec::with_capacity(keyed.len());
        let mut start = 0;
        while start < keyed.len() {
            let (hash, token) = keyed[start];
            let end = start
                + keyed[start..]
                    .iter()
                    .take_while(|k| **k == (hash, token))
                    .count();
            let count = (end - start) as f64;
            let w = match (weighting, stats) {
                (Weighting::Uniform, _) => 1.0,
                (Weighting::Tf, _) | (Weighting::TfIdf, None) => count,
                (Weighting::TfIdf, Some(s)) => count * s.idf(token),
            };
            entries.push((hash, w));
            start = end;
        }
        Self::from_hashed_entries(entries)
    }

    /// Build from already-hashed `(hash, weight)` entries in any order.
    /// Entries sharing a hash are merged by summing their weights.
    pub fn from_hashed_entries(mut entries: Vec<(u64, f64)>) -> Self {
        entries.sort_unstable_by_key(|&(h, w)| (h, w.to_bits()));
        let mut merged: Vec<(u64, f64)> = Vec::with_capacity(entries.len());
        for (h, w) in entries {
            match merged.last_mut() {
                Some((ph, pw)) if *ph == h => *pw += w,
                _ => merged.push((h, w)),
            }
        }
        let norm = merged.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
        SortedWeights {
            entries: merged,
            norm,
        }
    }

    /// The sorted `(hash, weight)` entries.
    pub fn entries(&self) -> &[(u64, f64)] {
        &self.entries
    }

    /// Precomputed L2 norm of the weight vector.
    pub fn norm(&self) -> f64 {
        self.norm
    }

    /// Number of distinct (post-merge) tokens.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_freq_counts_documents_not_occurrences() {
        let mut s = CorpusStats::new();
        s.add_document(&["tv", "tv", "sony"]);
        s.add_document(&["tv", "lg"]);
        assert_eq!(s.n_docs(), 2);
        assert_eq!(s.doc_freq("tv"), 2);
        assert_eq!(s.doc_freq("sony"), 1);
        assert_eq!(s.doc_freq("nope"), 0);
        assert_eq!(s.vocabulary_size(), 3);
    }

    #[test]
    fn idf_orders_rare_above_common() {
        let mut s = CorpusStats::new();
        for _ in 0..99 {
            s.add_document(&["tv"]);
        }
        s.add_document(&["tv", "kdl40v2500"]);
        assert!(s.idf("kdl40v2500") > s.idf("tv"));
        // Unseen tokens get the highest weight of all.
        assert!(s.idf("unseen") >= s.idf("kdl40v2500"));
        assert!(s.idf("tv") > 0.0);
    }

    #[test]
    fn weight_builders() {
        let toks = ["a", "b", "a"];
        let u = uniform_weights(&toks);
        assert_eq!(u["a"], 1.0);
        let tf = tf_weights(&toks);
        assert_eq!(tf["a"], 2.0);
        assert_eq!(tf["b"], 1.0);

        let mut s = CorpusStats::new();
        s.add_document(&["a"]);
        s.add_document(&["a", "b"]);
        let ti = tfidf_weights(&toks, &s);
        assert!(ti["a"] < ti["b"] * 2.0 + 1e-12); // b rarer → higher idf
    }

    proptest::proptest! {
        /// `from_tokens` equals the map-built vector bit for bit — same
        /// entries, same norm — for every weighting, with duplicate tokens
        /// and a TF-IDF corpus.
        #[test]
        fn from_tokens_matches_map_built_weights(
            tokens in proptest::collection::vec("[ab本]{0,3}", 0..12),
            docs in proptest::collection::vec(proptest::collection::vec("[ab本]{0,3}", 0..5), 0..6),
        ) {
            let mut stats = CorpusStats::new();
            for d in &docs {
                stats.add_document(d);
            }
            for (weighting, stats, map) in [
                (Weighting::Uniform, None, uniform_weights(&tokens)),
                (Weighting::Tf, None, tf_weights(&tokens)),
                (Weighting::TfIdf, None, tf_weights(&tokens)),
                (Weighting::TfIdf, Some(&stats), tfidf_weights(&tokens, &stats)),
            ] {
                let got = SortedWeights::from_tokens(&tokens, weighting, stats);
                let want = SortedWeights::from_weighted(&map);
                let bits = |w: &SortedWeights| {
                    (w.entries().iter().map(|&(h, x)| (h, x.to_bits())).collect::<Vec<_>>(), w.norm().to_bits())
                };
                proptest::prop_assert_eq!(bits(&got), bits(&want), "{:?}", weighting);
            }
        }
    }

    #[test]
    fn idf_on_empty_corpus_is_finite() {
        let s = CorpusStats::new();
        assert!(s.idf("x").is_finite());
        assert!(s.idf("x") > 0.0);
    }
}
