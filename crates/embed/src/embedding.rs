//! Feature-hashed tuple embeddings (the sentence-model substitute).

use crate::hashing::fnv1a_seeded;
use panda_table::Record;
use panda_text::preprocess::{apply_pipeline, standard_pipeline};
use panda_text::tokenize::Tokenizer;

/// Embeds a tuple's concatenated text into a fixed-dimension dense vector
/// by feature hashing.
///
/// Features are (a) word tokens and (b) character trigrams of the cleaned
/// text. Each feature `f` maps to bucket `h(f) mod dim` with sign
/// `±1` from an independent hash bit; word features carry more weight than
/// trigram features (words are more discriminative; trigrams provide
/// typo robustness). Vectors are L2-normalised, so dot product = cosine.
///
/// The construction guarantees the property blocking relies on: strings
/// with high weighted n-gram overlap get high cosine similarity, in
/// expectation proportional to the overlap (standard feature-hashing
/// inner-product preservation).
#[derive(Debug, Clone)]
pub struct TupleEmbedder {
    dim: usize,
    word_weight: f32,
    trigram_weight: f32,
    seed: u64,
}

impl TupleEmbedder {
    /// Embedder with the given dimension (≥ 8 recommended; 256 default).
    pub fn new(dim: usize) -> Self {
        TupleEmbedder {
            dim: dim.max(2),
            word_weight: 1.0,
            trigram_weight: 0.4,
            seed: 0x9e1e_55ed_u64,
        }
    }

    /// Override the feature weights (word, trigram).
    pub fn with_weights(mut self, word: f32, trigram: f32) -> Self {
        self.word_weight = word;
        self.trigram_weight = trigram;
        self
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Embed arbitrary text.
    pub fn embed_text(&self, text: &str) -> Vec<f32> {
        let cleaned = apply_pipeline(&standard_pipeline(), text);
        // Tokens are slices of `cleaned` or of `buf`: no feature allocates.
        let mut buf = String::new();
        let mut v = vec![0.0f32; self.dim];
        for word in Tokenizer::Whitespace.token_strs(&cleaned, &mut buf) {
            self.add_feature(&mut v, word.as_bytes(), self.word_weight);
        }
        for gram in Tokenizer::QGram(3).token_strs(&cleaned, &mut buf) {
            self.add_feature(&mut v, gram.as_bytes(), self.trigram_weight);
        }
        normalize(&mut v);
        v
    }

    /// Embed a whole record: all non-null attributes concatenated — the
    /// "sentence" of the tuple, as the paper embeds whole tuples — except
    /// id-like columns (see [`crate::blocking::blocking_text`]).
    pub fn embed_record(&self, record: &Record<'_>) -> Vec<f32> {
        self.embed_text(&crate::blocking::blocking_text(record))
    }

    fn add_feature(&self, v: &mut [f32], feature: &[u8], weight: f32) {
        let h = fnv1a_seeded(feature, self.seed);
        let bucket = (h % self.dim as u64) as usize;
        // An independent bit decides the sign (unbiased estimator of the
        // inner product).
        let sign = if (h >> 63) & 1 == 1 { -1.0 } else { 1.0 };
        v[bucket] += sign * weight;
    }
}

impl Default for TupleEmbedder {
    fn default() -> Self {
        TupleEmbedder::new(256)
    }
}

/// Cosine similarity of two same-length vectors (0 for zero vectors).
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for (x, y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na.sqrt() * nb.sqrt())
}

fn normalize(v: &mut [f32]) {
    let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if n > 0.0 {
        for x in v {
            *x /= n;
        }
    }
}

/// A vector's nonzero entries, dimensions ascending, with its squared
/// norm: the form blocking hashes and compares embeddings in.
///
/// An entry is kept when it is `!= 0.0`, so `±0.0` entries are dropped and
/// NaN entries stay.
#[derive(Debug)]
pub(crate) struct SparseVec {
    dims: Vec<u32>,
    vals: Vec<f32>,
    sq_norm: f32,
}

impl SparseVec {
    /// The nonzero entries of `v`.
    pub(crate) fn from_dense(v: &[f32]) -> Self {
        let (dims, vals): (Vec<u32>, Vec<f32>) = (0u32..)
            .zip(v)
            .filter(|&(_, &x)| x != 0.0)
            .map(|(d, &x)| (d, x))
            .unzip();
        // The same ascending sum of squares `cosine` takes densely: the
        // dropped squares are `+0.0`, which leave a sum from `0.0` unchanged.
        let sq_norm = vals.iter().fold(0.0f32, |acc, x| acc + x * x);
        SparseVec {
            dims,
            vals,
            sq_norm,
        }
    }

    /// The dimensions of the nonzero entries, ascending.
    pub(crate) fn dims(&self) -> &[u32] {
        &self.dims
    }

    /// The nonzero entries, in [`SparseVec::dims`] order.
    pub(crate) fn vals(&self) -> &[f32] {
        &self.vals
    }

    /// The sum of squares `cosine` computes for the dense vector.
    pub(crate) fn sq_norm(&self) -> f32 {
        self.sq_norm
    }

    /// Write the entries into `dense` (whose other entries the caller keeps
    /// at zero); [`SparseVec::clear`] undoes it.
    pub(crate) fn scatter(&self, dense: &mut [f32]) {
        for (&d, &x) in self.dims.iter().zip(&self.vals) {
            dense[d as usize] = x;
        }
    }

    /// Zero the entries [`SparseVec::scatter`] wrote.
    pub(crate) fn clear(&self, dense: &mut [f32]) {
        for &d in &self.dims {
            dense[d as usize] = 0.0;
        }
    }

    /// `cosine(a, self)` for the dense `a` with squared norm `a_sq_norm`,
    /// with the dot product taken over this vector's entries only.
    ///
    /// Bit-identical to [`cosine`] when `a` holds no infinity: the dense dot
    /// adds `a[d] × ±0.0 = ±0.0` wherever this vector is zero, which leaves
    /// a nonzero partial sum unchanged, and a sum from `0.0` that stays zero
    /// is `+0.0` either way; the kept terms are added in the same ascending
    /// order, and the norms are the same sums. NaN entries give NaN both
    /// ways (or `0.0`, when the other vector is zero). [`TupleEmbedder`]
    /// never returns an infinity without a NaN beside it: normalising
    /// divides an infinite entry by an infinite norm.
    pub(crate) fn cosine_with(&self, a: &[f32], a_sq_norm: f32) -> f32 {
        let mut dot = 0.0f32;
        for (&d, &y) in self.dims.iter().zip(&self.vals) {
            dot += a[d as usize] * y;
        }
        if a_sq_norm == 0.0 || self.sq_norm == 0.0 {
            return 0.0;
        }
        dot / (a_sq_norm.sqrt() * self.sq_norm.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsh::tests::vector;
    use proptest::prelude::*;

    /// `embed_text` as it was before token slices: a `String` per word and
    /// per trigram. Kept as the oracle of the slice path.
    fn oracle_embed_text(e: &TupleEmbedder, text: &str) -> Vec<f32> {
        let cleaned = apply_pipeline(&standard_pipeline(), text);
        let mut v = vec![0.0f32; e.dim];
        for word in Tokenizer::Whitespace.tokens(&cleaned) {
            e.add_feature(&mut v, word.as_bytes(), e.word_weight);
        }
        for gram in Tokenizer::QGram(3).tokens(&cleaned) {
            e.add_feature(&mut v, gram.as_bytes(), e.trigram_weight);
        }
        normalize(&mut v);
        v
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Equal bits, or NaN both (a NaN's payload is not part of the
    /// contract: blocking never keeps a NaN cosine).
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn embed_text_matches_string_tokens(
            text in "[a-zé本 .,-]{0,40}",
            dim in 2usize..300,
            weights in proptest::sample::select(vec![
                (1.0f32, 0.4f32), (0.5, 2.0), (0.0, 0.4), (f32::NAN, 0.4),
                (f32::INFINITY, 0.4), (1e30, 1e30),
            ]),
        ) {
            let e = TupleEmbedder::new(dim).with_weights(weights.0, weights.1);
            prop_assert_eq!(bits(&e.embed_text(&text)), bits(&oracle_embed_text(&e, &text)));
        }

        #[test]
        fn sparse_cosine_matches_dense(
            (a, b) in (1usize..24, 0u8..=10).prop_flat_map(|(dim, zeros)| {
                // No infinities on the dense side (see `cosine_with`).
                (vector(dim, zeros, false), vector(dim, zeros, true))
            })
        ) {
            let sparse = SparseVec::from_dense(&b);
            let want = cosine(&a, &b);
            let got = sparse.cosine_with(&a, SparseVec::from_dense(&a).sq_norm());
            prop_assert!(same(got, want), "sparse {got:?} dense {want:?}");
            prop_assert!(sparse.vals().iter().all(|&x| x != 0.0));
        }
    }

    #[test]
    fn identical_text_identical_embedding() {
        let e = TupleEmbedder::new(64);
        let a = e.embed_text("Sony Bravia 40 LCD TV");
        let b = e.embed_text("Sony Bravia 40 LCD TV");
        assert_eq!(a, b);
        assert!((cosine(&a, &b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn similar_beats_dissimilar() {
        let e = TupleEmbedder::new(256);
        let base = e.embed_text("sony bravia kdl-40v2500 40 inch lcd tv");
        let near = e.embed_text("sony bravia kdl 40v2500 lcd hdtv 40in");
        let far = e.embed_text("apple ipod nano 8gb silver music player");
        assert!(
            cosine(&base, &near) > cosine(&base, &far) + 0.2,
            "near {} far {}",
            cosine(&base, &near),
            cosine(&base, &far)
        );
    }

    #[test]
    fn typo_robustness_via_trigrams() {
        let e = TupleEmbedder::new(256);
        let a = e.embed_text("panasonic viera plasma");
        let b = e.embed_text("panasonik viera plasma"); // typo
        assert!(cosine(&a, &b) > 0.7, "typo cosine {}", cosine(&a, &b));
    }

    #[test]
    fn empty_text_is_zero_vector() {
        let e = TupleEmbedder::new(32);
        let v = e.embed_text("");
        assert!(v.iter().all(|&x| x == 0.0));
        assert_eq!(cosine(&v, &v), 0.0);
    }

    proptest! {
        /// Embeddings are unit-length (or zero) and cosine stays in [-1,1].
        #[test]
        fn embedding_invariants(a in ".{0,30}", b in ".{0,30}") {
            let e = TupleEmbedder::new(64);
            let va = e.embed_text(&a);
            let vb = e.embed_text(&b);
            let na: f32 = va.iter().map(|x| x * x).sum::<f32>().sqrt();
            prop_assert!(na < 1.0 + 1e-4, "norm {na}");
            let c = cosine(&va, &vb);
            prop_assert!((-1.0 - 1e-4..=1.0 + 1e-4).contains(&c));
            prop_assert!((cosine(&va, &vb) - cosine(&vb, &va)).abs() < 1e-6);
        }
    }
}
