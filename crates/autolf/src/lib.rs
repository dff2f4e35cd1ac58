//! Automatically generated labeling functions (paper §2.1, feature 1.3).
//!
//! Panda leverages Auto-FuzzyJoin [Li et al., SIGMOD'21] to hand first-time
//! users a set of high-quality LFs without writing a line of code. The key
//! insight: one of the input tables is usually a **reference table** with
//! no (or few) duplicates — true for >90% of EM benchmarks [9]. Under that
//! assumption the precision of a similarity-join rule can be *estimated
//! without any labels*: if a join config maps one right record to several
//! distinct left records, at most one of those pairs can be correct, so
//! every extra assignment is a certain false positive.
//!
//! The generator:
//!
//! 1. enumerates the four-axis config lattice
//!    ([`panda_text::config::default_config_grid`]) over the task's shared
//!    text attributes,
//! 2. scores every candidate pair under every config (corpus statistics
//!    are built per attribute/tokenizer for TF-IDF configs),
//! 3. for each config picks the smallest threshold whose **estimated
//!    precision** ([`estimate`]) meets the target (smallest = maximal
//!    recall subject to precision),
//! 4. greedily unions configs in support order while the union's estimated
//!    precision holds ([`select`]),
//! 5. emits each survivor as a [`panda_lf::SimilarityLf`] named
//!    `auto_lf_<k>` (tagged [`panda_lf::lf::LfProvenance::Auto`]), with a
//!    proportional lower threshold so the LF also votes −1 on clearly
//!    dissimilar pairs.

pub mod estimate;
pub mod generate;
pub mod select;

pub use estimate::{estimate_thresholds, PrecisionEstimate};
pub use generate::{generate_auto_lfs, AutoLfConfig, GeneratedLf};
pub use select::greedy_select;
