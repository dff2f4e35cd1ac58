//! The declarative LF builder DSL.
//!
//! These cover the LF shapes the paper demonstrates:
//!
//! * [`SimilarityLf`] — the paper's `name_overlap` (Figure 2, left): a
//!   similarity score with an upper threshold voting +1 and a lower
//!   threshold voting −1, abstaining in between;
//! * [`ExtractionLf`] — the paper's `size_unmatch` (Figure 2, right):
//!   extract a key attribute from both sides and vote −1 when the
//!   extractions disagree;
//! * [`AttributeEqualityLf`] — exact equality on an attribute (phone
//!   numbers, years);
//! * [`NumericToleranceLf`] — numeric attributes within a relative
//!   tolerance (prices);
//! * [`ClosureLf`] — anything else, from a Rust closure (the stand-in for
//!   arbitrary user Python in the original system).

use crate::lf::{LabelingFunction, LfProvenance};
use crate::prepared::{label_records, prepare_records, PreparedLf, RecordKernel, RecordStates};
use crate::Label;
use panda_table::{CandidatePair, PairRef, Record, Side, TablePair};
use panda_text::{CorpusStats, Measure, PreparedText, SimilarityConfig};
use std::sync::Arc;

/// `label` and `prepare` of a [`RecordKernel`] LF: both run its one vote
/// kernel, per pair or per prepared record.
macro_rules! record_kernel_paths {
    () => {
        fn label(&self, pair: &PairRef<'_>) -> Label {
            label_records(self, pair)
        }

        fn prepare<'a>(
            &'a self,
            tables: &'a TablePair,
            pairs: &[CandidatePair],
        ) -> Box<dyn PreparedLf + 'a> {
            prepare_records(self, tables, pairs)
        }
    };
}

// ---------------------------------------------------------------------------
// ClosureLf
// ---------------------------------------------------------------------------

/// An LF defined by an arbitrary closure.
pub struct ClosureLf {
    name: String,
    description: String,
    f: Box<dyn Fn(&PairRef<'_>) -> Label + Send + Sync>,
}

impl ClosureLf {
    /// Wrap a closure as an LF.
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(&PairRef<'_>) -> Label + Send + Sync + 'static,
    ) -> Self {
        let name = name.into();
        ClosureLf {
            description: format!("closure LF {name}"),
            name,
            f: Box::new(f),
        }
    }

    /// Attach a human description.
    pub fn with_description(mut self, d: impl Into<String>) -> Self {
        self.description = d.into();
        self
    }
}

impl LabelingFunction for ClosureLf {
    fn name(&self) -> &str {
        &self.name
    }
    fn label(&self, pair: &PairRef<'_>) -> Label {
        (self.f)(pair)
    }
    fn description(&self) -> String {
        self.description.clone()
    }
}

// ---------------------------------------------------------------------------
// SimilarityLf
// ---------------------------------------------------------------------------

/// Similarity-threshold LF over one attribute (possibly named differently
/// on each side).
///
/// Semantics match the paper's `name_overlap`: score > `upper` → +1,
/// score < `lower` → −1, otherwise abstain. Set `lower` to a negative
/// value for a match-only LF, or `upper` > 1 for a non-match-only LF.
/// When either side's attribute is missing the LF abstains.
#[derive(Debug, Clone)]
pub struct SimilarityLf {
    name: String,
    left_attr: String,
    right_attr: String,
    config: SimilarityConfig,
    upper: f64,
    lower: f64,
    stats: Option<Arc<CorpusStats>>,
    provenance: LfProvenance,
}

impl SimilarityLf {
    /// Build a similarity LF on `attr` (same name both sides).
    pub fn new(
        name: impl Into<String>,
        attr: impl Into<String>,
        config: SimilarityConfig,
        upper: f64,
        lower: f64,
    ) -> Self {
        let attr = attr.into();
        SimilarityLf {
            name: name.into(),
            left_attr: attr.clone(),
            right_attr: attr,
            config,
            upper,
            lower,
            stats: None,
            provenance: LfProvenance::Manual,
        }
    }

    /// Use different attribute names on the two sides (`title` vs `name`).
    pub fn with_attrs(mut self, left: impl Into<String>, right: impl Into<String>) -> Self {
        self.left_attr = left.into();
        self.right_attr = right.into();
        self
    }

    /// Attach corpus statistics for TF-IDF weighting.
    pub fn with_corpus(mut self, stats: Arc<CorpusStats>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Mark as auto-generated (used by Auto-FuzzyJoin).
    pub fn with_provenance(mut self, p: LfProvenance) -> Self {
        self.provenance = p;
        self
    }

    /// The similarity score this LF thresholds, exposed for debugging
    /// panels.
    pub fn score(&self, pair: &PairRef<'_>) -> Option<f64> {
        match (
            self.prepare_record(Side::Left, &pair.left),
            self.prepare_record(Side::Right, &pair.right),
        ) {
            (Some(a), Some(b)) => Some(self.config.score_texts(&a, &b)),
            _ => None,
        }
    }

    /// Current thresholds `(upper, lower)`.
    pub fn thresholds(&self) -> (f64, f64) {
        (self.upper, self.lower)
    }

    /// A copy with new thresholds (Step 4 of the demo: the user tightens
    /// `name_overlap` from 0.4 to 0.6).
    pub fn with_thresholds(mut self, upper: f64, lower: f64) -> Self {
        self.upper = upper;
        self.lower = lower;
        self
    }
}

/// Per record: the attribute prepared for the measure (with this LF's
/// corpus IDF), or `None` when it is missing.
impl RecordKernel for SimilarityLf {
    type State = Option<PreparedText>;

    fn prepare_record(&self, side: Side, record: &Record<'_>) -> Self::State {
        let attr = match side {
            Side::Left => &self.left_attr,
            Side::Right => &self.right_attr,
        };
        let v = record.get(attr);
        (!v.is_missing()).then(|| self.config.prepare(&v.to_text(), self.stats.as_deref()))
    }

    fn vote_states(&self, left: &Self::State, right: &Self::State) -> Label {
        let (Some(a), Some(b)) = (left, right) else {
            return Label::Abstain;
        };
        // classify_texts == scoring then comparing; Levenshtein skips the
        // kernel when the length gap alone already votes -1.
        similarity_label(self.config.classify_texts(a, b, self.upper, self.lower))
    }
}

/// A similarity LF's vote from its three-way threshold decision
/// (`panda_text::config::threshold_vote`).
pub(crate) fn similarity_label(decision: std::cmp::Ordering) -> Label {
    match decision {
        std::cmp::Ordering::Greater => Label::Match,
        std::cmp::Ordering::Less => Label::NonMatch,
        std::cmp::Ordering::Equal => Label::Abstain,
    }
}

impl LabelingFunction for SimilarityLf {
    fn name(&self) -> &str {
        &self.name
    }

    fn label(&self, pair: &PairRef<'_>) -> Label {
        label_records(self, pair)
    }

    /// The per-record states, voted through the per-pair kernel — except
    /// Monge-Elkan, which votes from a token-vocabulary matrix when that
    /// scores fewer token pairs (`crate::vocab`).
    fn prepare<'a>(
        &'a self,
        tables: &'a TablePair,
        pairs: &[CandidatePair],
    ) -> Box<dyn PreparedLf + 'a> {
        let states = RecordStates::build(self, tables, pairs);
        if self.config.measure == Measure::MongeElkan {
            return crate::vocab::prepare(self, states, pairs);
        }
        Box::new(states)
    }

    fn description(&self) -> String {
        format!(
            "sim[{}]({}, {}) > {:.2} => +1; < {:.2} => -1",
            self.config.id(),
            self.left_attr,
            self.right_attr,
            self.upper,
            self.lower
        )
    }

    fn provenance(&self) -> LfProvenance {
        self.provenance
    }
}

// ---------------------------------------------------------------------------
// ExtractionLf
// ---------------------------------------------------------------------------

/// Agreement semantics for [`ExtractionLf`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtractionPolicy {
    /// Disagree → −1, agree → abstain (the paper's `size_unmatch`).
    UnmatchOnly,
    /// Disagree → −1, agree → +1.
    Symmetric,
    /// Agree → +1, disagree → abstain.
    MatchOnly,
}

/// Extract a key value from both sides (via a closure, typically wrapping
/// `panda_text::extract`) and compare. Abstains when either side has no
/// extraction.
/// Extraction callback: concatenated attribute text → extracted key values.
type ExtractFn = Box<dyn Fn(&str) -> Vec<String> + Send + Sync>;

pub struct ExtractionLf {
    name: String,
    attrs: Vec<String>,
    extract: ExtractFn,
    policy: ExtractionPolicy,
}

impl ExtractionLf {
    /// Build an extraction LF over the given attributes (their texts are
    /// concatenated before extraction, like the paper's `size_unmatch`
    /// which scans name *and* description).
    pub fn new(
        name: impl Into<String>,
        attrs: &[&str],
        policy: ExtractionPolicy,
        extract: impl Fn(&str) -> Vec<String> + Send + Sync + 'static,
    ) -> Self {
        ExtractionLf {
            name: name.into(),
            attrs: attrs.iter().map(|s| s.to_string()).collect(),
            extract: Box::new(extract),
            policy,
        }
    }

    /// The paper's `size_unmatch`: extract sizes from name+description,
    /// vote −1 when they disagree.
    pub fn size_unmatch(attrs: &[&str]) -> Self {
        ExtractionLf::new(
            "size_unmatch",
            attrs,
            ExtractionPolicy::UnmatchOnly,
            |text| {
                panda_text::extract::sizes(text)
                    .into_iter()
                    .map(|s| format!("{s}"))
                    .collect()
            },
        )
    }
}

/// Per record: the keys extracted from its concatenated attributes.
impl RecordKernel for ExtractionLf {
    type State = Vec<String>;

    fn prepare_record(&self, _side: Side, record: &Record<'_>) -> Self::State {
        let text: Vec<String> = self.attrs.iter().map(|a| record.text(a)).collect();
        (self.extract)(&text.join(" "))
    }

    fn vote_states(&self, a: &Self::State, b: &Self::State) -> Label {
        if a.is_empty() || b.is_empty() {
            return Label::Abstain;
        }
        let agree = a.iter().any(|x| b.contains(x));
        match (agree, self.policy) {
            (true, ExtractionPolicy::UnmatchOnly) => Label::Abstain,
            (true, _) => Label::Match,
            (false, ExtractionPolicy::MatchOnly) => Label::Abstain,
            (false, _) => Label::NonMatch,
        }
    }
}

impl LabelingFunction for ExtractionLf {
    fn name(&self) -> &str {
        &self.name
    }

    record_kernel_paths!();

    fn description(&self) -> String {
        format!("extract over [{}], {:?}", self.attrs.join(","), self.policy)
    }
}

// ---------------------------------------------------------------------------
// AttributeEqualityLf
// ---------------------------------------------------------------------------

/// Exact (case/whitespace-normalised) equality on one attribute.
#[derive(Debug, Clone)]
pub struct AttributeEqualityLf {
    name: String,
    attr: String,
    /// Vote −1 on inequality (otherwise abstain on inequality).
    pub unmatch_on_differ: bool,
}

impl AttributeEqualityLf {
    /// Equality LF on `attr`.
    pub fn new(name: impl Into<String>, attr: impl Into<String>, unmatch_on_differ: bool) -> Self {
        AttributeEqualityLf {
            name: name.into(),
            attr: attr.into(),
            unmatch_on_differ,
        }
    }

    fn norm(s: &str) -> String {
        s.split_whitespace()
            .collect::<Vec<_>>()
            .join(" ")
            .to_lowercase()
    }
}

/// Per record: the normalised attribute text, or `None` when missing.
impl RecordKernel for AttributeEqualityLf {
    type State = Option<String>;

    fn prepare_record(&self, _side: Side, record: &Record<'_>) -> Self::State {
        let v = record.get(&self.attr);
        (!v.is_missing()).then(|| Self::norm(&v.to_text()))
    }

    fn vote_states(&self, left: &Self::State, right: &Self::State) -> Label {
        let (Some(l), Some(r)) = (left, right) else {
            return Label::Abstain;
        };
        if l == r {
            Label::Match
        } else if self.unmatch_on_differ {
            Label::NonMatch
        } else {
            Label::Abstain
        }
    }
}

impl LabelingFunction for AttributeEqualityLf {
    fn name(&self) -> &str {
        &self.name
    }

    record_kernel_paths!();

    fn description(&self) -> String {
        format!(
            "{} equal => +1{}",
            self.attr,
            if self.unmatch_on_differ {
                "; differ => -1"
            } else {
                ""
            }
        )
    }
}

// ---------------------------------------------------------------------------
// NumericToleranceLf
// ---------------------------------------------------------------------------

/// Numeric attribute within a relative tolerance → +1; far apart → −1;
/// in between (or missing) → abstain.
#[derive(Debug, Clone)]
pub struct NumericToleranceLf {
    name: String,
    attr: String,
    /// Relative difference below which the LF votes +1.
    pub match_tol: f64,
    /// Relative difference above which the LF votes −1.
    pub unmatch_tol: f64,
}

impl NumericToleranceLf {
    /// Build a numeric-tolerance LF; `match_tol ≤ unmatch_tol`.
    pub fn new(
        name: impl Into<String>,
        attr: impl Into<String>,
        match_tol: f64,
        unmatch_tol: f64,
    ) -> Self {
        assert!(match_tol <= unmatch_tol, "match_tol must be ≤ unmatch_tol");
        NumericToleranceLf {
            name: name.into(),
            attr: attr.into(),
            match_tol,
            unmatch_tol,
        }
    }
}

/// Per record: the attribute parsed as a number, when it parses.
impl RecordKernel for NumericToleranceLf {
    type State = Option<f64>;

    fn prepare_record(&self, _side: Side, record: &Record<'_>) -> Self::State {
        record.number(&self.attr)
    }

    fn vote_states(&self, left: &Self::State, right: &Self::State) -> Label {
        let (Some(a), Some(b)) = (*left, *right) else {
            return Label::Abstain;
        };
        let denom = a.abs().max(b.abs());
        if denom == 0.0 {
            return Label::Match; // both zero
        }
        let rel = (a - b).abs() / denom;
        if rel <= self.match_tol {
            Label::Match
        } else if rel > self.unmatch_tol {
            Label::NonMatch
        } else {
            Label::Abstain
        }
    }
}

impl LabelingFunction for NumericToleranceLf {
    fn name(&self) -> &str {
        &self.name
    }

    record_kernel_paths!();

    fn description(&self) -> String {
        format!(
            "|Δ{}|/max ≤ {:.2} => +1; > {:.2} => -1",
            self.attr, self.match_tol, self.unmatch_tol
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_table::{CandidatePair, Schema, Table, TablePair};

    fn task() -> TablePair {
        let schema = Schema::of_text(&["name", "description", "price", "phone"]);
        let mut left = Table::new("l", schema.clone());
        left.push(vec![
            "Sony Bravia 40' LCD TV",
            "great 40 inch tv",
            "499",
            "555-1234",
        ])
        .unwrap();
        left.push(vec!["LG washer", "", "799", ""]).unwrap();
        let mut right = Table::new("r", schema);
        right
            .push(vec![
                "sony bravia 40in lcd tv",
                "hdmi 1080p",
                "489",
                "555-1234",
            ])
            .unwrap();
        right
            .push(vec![
                "Samsung 46' LED TV",
                "46 inch panel",
                "899",
                "555-9999",
            ])
            .unwrap();
        TablePair::new(left, right)
    }

    fn pair(tp: &TablePair, l: u32, r: u32) -> PairRef<'_> {
        tp.pair_ref(CandidatePair::new(l, r)).unwrap()
    }

    #[test]
    fn name_overlap_like_the_paper() {
        // Figure 2 left: jaccard on "name", > 0.6 → +1, < 0.1 → −1.
        let tp = task();
        let lf = SimilarityLf::new(
            "name_overlap",
            "name",
            SimilarityConfig::default_jaccard(),
            0.6,
            0.1,
        );
        assert_eq!(lf.label(&pair(&tp, 0, 0)), Label::Match);
        assert_eq!(lf.label(&pair(&tp, 1, 1)), Label::NonMatch);
        assert!(lf.description().contains("name"));
    }

    #[test]
    fn similarity_lf_abstains_on_missing() {
        let tp = task();
        let lf = SimilarityLf::new(
            "desc_overlap",
            "description",
            SimilarityConfig::default_jaccard(),
            0.5,
            0.05,
        );
        // Left row 1 has empty description.
        assert_eq!(lf.label(&pair(&tp, 1, 0)), Label::Abstain);
    }

    #[test]
    fn size_unmatch_like_the_paper() {
        // Figure 2 right: different extracted sizes → −1, else abstain.
        let tp = task();
        let lf = ExtractionLf::size_unmatch(&["name", "description"]);
        assert_eq!(lf.label(&pair(&tp, 0, 1)), Label::NonMatch, "40 vs 46");
        assert_eq!(
            lf.label(&pair(&tp, 0, 0)),
            Label::Abstain,
            "40 agrees → abstain"
        );
        assert_eq!(
            lf.label(&pair(&tp, 1, 0)),
            Label::Abstain,
            "no size on left"
        );
    }

    #[test]
    fn extraction_symmetric_policy_votes_both_ways() {
        let tp = task();
        let lf = ExtractionLf::new(
            "size_sym",
            &["name", "description"],
            ExtractionPolicy::Symmetric,
            |t| {
                panda_text::extract::sizes(t)
                    .iter()
                    .map(|s| s.to_string())
                    .collect()
            },
        );
        assert_eq!(lf.label(&pair(&tp, 0, 0)), Label::Match);
        assert_eq!(lf.label(&pair(&tp, 0, 1)), Label::NonMatch);
    }

    #[test]
    fn attribute_equality_on_phone() {
        let tp = task();
        let lf = AttributeEqualityLf::new("phone_eq", "phone", true);
        assert_eq!(lf.label(&pair(&tp, 0, 0)), Label::Match);
        assert_eq!(lf.label(&pair(&tp, 0, 1)), Label::NonMatch);
        // Missing phone abstains even with unmatch_on_differ.
        assert_eq!(lf.label(&pair(&tp, 1, 0)), Label::Abstain);
    }

    #[test]
    fn numeric_tolerance_on_price() {
        let tp = task();
        let lf = NumericToleranceLf::new("price_close", "price", 0.05, 0.5);
        assert_eq!(lf.label(&pair(&tp, 0, 0)), Label::Match); // 499 vs 489
        assert_eq!(lf.label(&pair(&tp, 0, 1)), Label::Abstain); // 499 vs 899 (~45%)
        let strict = NumericToleranceLf::new("price_strict", "price", 0.05, 0.3);
        assert_eq!(strict.label(&pair(&tp, 0, 1)), Label::NonMatch);
    }

    #[test]
    #[should_panic(expected = "match_tol")]
    fn numeric_tolerance_validates_bounds() {
        NumericToleranceLf::new("bad", "price", 0.5, 0.1);
    }

    #[test]
    fn closure_lf_runs() {
        let tp = task();
        let lf =
            ClosureLf::new("always_abstain", |_| Label::Abstain).with_description("does nothing");
        assert_eq!(lf.label(&pair(&tp, 0, 0)), Label::Abstain);
        assert_eq!(lf.description(), "does nothing");
    }

    #[test]
    fn threshold_update_changes_votes() {
        // The demo's Step 4: tightening the threshold flips borderline
        // pairs from +1 to abstain.
        let tp = task();
        let loose = SimilarityLf::new(
            "name_overlap",
            "name",
            SimilarityConfig::default_jaccard(),
            0.4,
            0.1,
        );
        let tight = loose.clone().with_thresholds(0.95, 0.1);
        let p = pair(&tp, 0, 0);
        assert_eq!(loose.label(&p), Label::Match);
        assert_eq!(tight.label(&p), Label::Abstain);
    }
}
