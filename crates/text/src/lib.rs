//! The built-in EM utility library (the paper's §2.1, feature 1.2).
//!
//! Labeling functions for entity matching are overwhelmingly built from
//! four kinds of primitives, which this crate provides along the same four
//! axes as Panda's built-in library:
//!
//! 1. **Text pre-processing** ([`preprocess`]) — lower-casing, punctuation
//!    stripping, whitespace normalisation, accent folding, Porter stemming,
//!    number normalisation, stop-word removal.
//! 2. **Tokenization** ([`tokenize`]) — whitespace / alphanumeric word
//!    tokens, character q-grams, word n-grams.
//! 3. **Token weighting** ([`weight`]) — uniform, TF, and corpus-level
//!    TF-IDF weights.
//! 4. **Distance functions** ([`sim`]) — Jaccard (plain and weighted),
//!    overlap, Dice, cosine, Levenshtein (plain, bounded, normalised),
//!    Jaro, Jaro-Winkler, Monge-Elkan.
//!
//! [`extract`] adds regex-based attribute extractors (sizes, prices, model
//! codes, years) built on the in-tree [`panda_regex`] engine — these power
//! LFs like the paper's `size_unmatch`. [`config`] combines one choice
//! along each axis into a [`config::SimilarityConfig`], the unit that
//! Auto-FuzzyJoin enumerates when generating LFs automatically.
//!
//! All similarity functions return values in `[0, 1]`, `1` meaning
//! identical, so thresholds compose uniformly across measures.
//!
//! ```
//! use panda_text::{SimilarityConfig, Preprocess, Tokenizer, Weighting, Measure};
//!
//! // The measure behind the paper's `name_overlap` LF:
//! let cfg = SimilarityConfig::default_jaccard();
//! let s = cfg.score("Sony Bravia 40' LCD TV", "sony bravia 40 lcd tv", None);
//! assert!(s > 0.6);
//!
//! // Or compose the four axes yourself:
//! let custom = SimilarityConfig {
//!     preprocess: vec![Preprocess::Lowercase, Preprocess::Stem],
//!     tokenizer: Tokenizer::QGram(3),
//!     weighting: Weighting::Uniform,
//!     measure: Measure::Cosine,
//! };
//! assert!(custom.score("connected", "connecting", None) > 0.5);
//! ```

pub mod config;
pub mod extract;
pub mod prepared;
pub mod preprocess;
pub mod sim;
pub mod stem;
pub mod tokenize;
pub mod weight;

pub use config::{Measure, PreparedText, SimilarityConfig, Weighting};
pub use prepared::{ColumnKey, PreparedColumn, PreparedRef, TokenCache, WeightKey};
pub use preprocess::{apply_pipeline, Preprocess};
pub use tokenize::Tokenizer;
pub use weight::{CorpusStats, SortedWeights};
