//! Labeling functions for entity matching — the data-programming core.
//!
//! A **labeling function** (LF) receives one candidate tuple pair and votes
//! [`Label::Match`] (+1), [`Label::NonMatch`] (−1) or [`Label::Abstain`]
//! (0). Users write LFs instead of labeling pairs by hand; a labeling
//! model (crate `panda-model`) then combines the noisy votes.
//!
//! This crate provides:
//!
//! * [`Label`] — the three-valued vote,
//! * [`LabelingFunction`] — the LF trait, plus [`LfRegistry`] managing the
//!   LF life-cycle (add / replace / remove, with versions so re-application
//!   is incremental, as in the paper's `labeler.apply()`),
//! * [`builders`] — a declarative DSL covering the LF shapes the paper
//!   shows: similarity-threshold LFs (`name_overlap`), extraction LFs
//!   (`size_unmatch`), attribute equality, numeric tolerance, and
//!   arbitrary closures,
//! * [`LabelMatrix`] — the `pairs × LFs` vote matrix with **incremental
//!   application** (only new/modified LFs are executed) and **failure
//!   quarantine** (an LF that panics is reported, not fatal — the IDE must
//!   survive buggy user code),
//! * [`prepared`] — how the matrix runs an LF: prepared once per apply
//!   from the records the candidate set references, then voted per pair,
//! * [`stats`] — per-LF coverage / overlap / conflict statistics and the
//!   FPR/FNR estimates the LF Stats Panel displays.
//!
//! ```
//! use panda_lf::{ClosureLf, Label, LabelMatrix, LfRegistry};
//! use panda_table::{CandidatePair, CandidateSet, Schema, Table, TablePair};
//! use std::sync::Arc;
//!
//! // Two one-row tables and their single candidate pair.
//! let mut left = Table::new("l", Schema::of_text(&["name"]));
//! left.push(vec!["sony bravia"]).unwrap();
//! let mut right = Table::new("r", Schema::of_text(&["name"]));
//! right.push(vec!["sony bravia tv"]).unwrap();
//! let tables = TablePair::new(left, right);
//! let candidates = CandidateSet::from_pairs([CandidatePair::new(0, 0)]);
//!
//! // An LF, applied through the registry → matrix pipeline.
//! let mut registry = LfRegistry::new();
//! registry.upsert(Arc::new(ClosureLf::new("shares_brand", |p| {
//!     Label::from_bool(p.right.text("name").contains(&p.left.text("name")))
//! })));
//! let mut matrix = LabelMatrix::new();
//! let report = matrix.apply(&registry, &tables, &candidates);
//! assert_eq!(report.applied, vec!["shares_brand"]);
//! assert_eq!(matrix.column("shares_brand").unwrap(), &[1]);
//! ```

pub mod builders;
pub mod label;
pub mod lf;
pub mod library;
pub mod matrix;
pub mod prepared;
pub mod stats;
mod vocab;

pub use builders::{
    AttributeEqualityLf, ClosureLf, ExtractionLf, NumericToleranceLf, SimilarityLf,
};
pub use label::Label;
pub use lf::{BoxedLf, LabelingFunction, LfRegistry};
pub use library::{address_matcher, phone_matcher};
pub use matrix::{ApplyReport, ColumnSnapshot, LabelMatrix, PackedVotes, VOTES_PER_WORD};
pub use prepared::{label_records, prepare_records, PreparedLf, RecordKernel};
pub use stats::{lf_stats, LfStatsRow};
