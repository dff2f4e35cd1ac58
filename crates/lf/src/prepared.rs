//! Prepared LFs: per-record state built once per apply, voted on by
//! record id.
//!
//! Most of an LF's per-pair work depends on one record at a time —
//! preprocessing, tokenising, weighting, extracting — and every record sits
//! in many candidate pairs. [`LabelingFunction::prepare`] lets an LF do
//! that work once for each record a candidate set references and then
//! vote on each pair from the two records' state. The default wraps the
//! per-pair [`LabelingFunction::label`], so LFs that don't override it
//! (closures, user LFs) behave exactly as before.
//!
//! The builder LFs share one shape, [`RecordKernel`]: a per-record state
//! and a vote kernel over two states. [`label_records`] and
//! [`prepare_records`] derive both LF paths from that one kernel, so the
//! per-pair vote (`score_pair`, `POST /match`) and the prepared vote
//! (matrix apply) cannot drift apart.
//!
//! [`LabelingFunction::prepare`]: crate::LabelingFunction::prepare
//! [`LabelingFunction::label`]: crate::LabelingFunction::label

use crate::lf::LabelingFunction;
use crate::Label;
use panda_table::{CandidatePair, PairRef, Record, RecordId, Side, Table, TablePair};

/// An LF prepared for one candidate set: votes on its pairs by record id.
///
/// Shared by the worker threads that vote on the set's pair blocks, hence
/// `Send + Sync`. A pair whose ids fall outside the tables abstains.
pub trait PreparedLf: Send + Sync {
    /// The LF's vote on `pair` — identical to `label` on the same pair.
    fn vote(&self, pair: CandidatePair) -> Label;
}

/// The default [`PreparedLf`]: nothing prepared, every vote is a `label`
/// call on the pair's records.
pub(crate) struct PerPair<'a, L: ?Sized> {
    pub(crate) lf: &'a L,
    pub(crate) tables: &'a TablePair,
}

impl<L: LabelingFunction + ?Sized> PreparedLf for PerPair<'_, L> {
    fn vote(&self, pair: CandidatePair) -> Label {
        match self.tables.pair_ref(pair) {
            Ok(p) => self.lf.label(&p),
            Err(_) => Label::Abstain,
        }
    }
}

/// An LF whose vote is a pure function of one state per record: what the
/// vote reads of each record, and one kernel over a left and a right
/// state. Implement it, then forward `label` to [`label_records`] and
/// `prepare` to [`prepare_records`].
pub trait RecordKernel: Send + Sync {
    /// What the kernel reads of one record.
    type State: Send + Sync;

    /// Derive the state of one record on `side`. Must depend on nothing
    /// but the record (and the LF's own configuration).
    fn prepare_record(&self, side: Side, record: &Record<'_>) -> Self::State;

    /// The LF's vote on a pair, from its two records' states.
    fn vote_states(&self, left: &Self::State, right: &Self::State) -> Label;
}

/// The per-pair vote of a [`RecordKernel`] LF: prepare the pair's two
/// records, run the kernel.
pub fn label_records<K: RecordKernel>(lf: &K, pair: &PairRef<'_>) -> Label {
    lf.vote_states(
        &lf.prepare_record(Side::Left, &pair.left),
        &lf.prepare_record(Side::Right, &pair.right),
    )
}

/// Prepare a [`RecordKernel`] LF for `pairs`: one state per record the
/// pairs reference on each side (never per table row), voted on through
/// the same kernel as [`label_records`].
pub fn prepare_records<'a, K: RecordKernel>(
    lf: &'a K,
    tables: &TablePair,
    pairs: &[CandidatePair],
) -> Box<dyn PreparedLf + 'a> {
    Box::new(RecordStates {
        lf,
        left: SideStates::build(&tables.left, pairs.iter().map(|p| p.left), |r| {
            lf.prepare_record(Side::Left, r)
        }),
        right: SideStates::build(&tables.right, pairs.iter().map(|p| p.right), |r| {
            lf.prepare_record(Side::Right, r)
        }),
    })
}

struct RecordStates<'a, K: RecordKernel> {
    lf: &'a K,
    left: SideStates<K::State>,
    right: SideStates<K::State>,
}

impl<K: RecordKernel> PreparedLf for RecordStates<'_, K> {
    fn vote(&self, pair: CandidatePair) -> Label {
        match (self.left.get(pair.left), self.right.get(pair.right)) {
            (Some(l), Some(r)) => self.lf.vote_states(l, r),
            _ => Label::Abstain,
        }
    }
}

/// One side's states, keyed by the sorted ids of the records referenced.
struct SideStates<S> {
    ids: Vec<u32>,
    states: Vec<S>,
}

impl<S> SideStates<S> {
    fn build(
        table: &Table,
        referenced: impl Iterator<Item = RecordId>,
        prepare: impl Fn(&Record<'_>) -> S,
    ) -> Self {
        let mut ids: Vec<u32> = referenced
            .filter(|id| id.idx() < table.len())
            .map(|id| id.0)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let states = ids
            .iter()
            .map(|&id| prepare(&table.record(RecordId(id)).expect("id filtered in range")))
            .collect();
        SideStates { ids, states }
    }

    fn get(&self, id: RecordId) -> Option<&S> {
        self.ids.binary_search(&id.0).ok().map(|i| &self.states[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{
        AttributeEqualityLf, ExtractionLf, ExtractionPolicy, NumericToleranceLf, SimilarityLf,
    };
    use crate::{BoxedLf, LabelMatrix, LfRegistry};
    use panda_table::{CandidateSet, Schema, Value};
    use panda_text::preprocess::standard_pipeline;
    use panda_text::{
        apply_pipeline, CorpusStats, Measure, SimilarityConfig, Tokenizer, Weighting,
    };
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    const COLUMNS: [&str; 3] = ["name", "desc", "price"];

    /// Null, Int, Float, blank and non-ASCII text cells.
    fn cell() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            (-500i64..500).prop_map(Value::Int),
            (-500.0f64..500.0).prop_map(Value::Float),
            prop_oneof![Just(""), Just("  "), Just("\t")].prop_map(|s| Value::Text(s.to_string())),
            "[a-cé本0-9 .,$\"-]{0,14}".prop_map(Value::Text),
        ]
    }

    fn rows() -> impl Strategy<Value = Vec<Vec<Value>>> {
        proptest::collection::vec(proptest::collection::vec(cell(), COLUMNS.len()), 0..6)
    }

    /// Ordinary, inverted and NaN `(upper, lower)` thresholds.
    fn thresholds() -> impl Strategy<Value = (f64, f64)> {
        prop_oneof![
            (-0.2f64..1.2, -0.2f64..1.2),
            Just((0.2, 0.8)),
            Just((f64::NAN, 0.3)),
            Just((0.5, f64::NAN)),
        ]
    }

    fn table_pair(left: Vec<Vec<Value>>, right: Vec<Vec<Value>>) -> TablePair {
        let table = |rows: Vec<Vec<Value>>| {
            let mut t = Table::new("t", Schema::of_text(&COLUMNS));
            for row in rows {
                t.push_row(row).unwrap();
            }
            t
        };
        TablePair::new(table(left), table(right))
    }

    /// A TF-IDF corpus over both tables' `name` cells.
    fn corpus(tables: &TablePair, tokenizer: Tokenizer) -> Arc<CorpusStats> {
        let mut stats = CorpusStats::new();
        for table in [&tables.left, &tables.right] {
            for r in table.records() {
                let cleaned = apply_pipeline(&standard_pipeline(), &r.text("name"));
                stats.add_document(&tokenizer.tokens(&cleaned));
            }
        }
        Arc::new(stats)
    }

    /// One LF of every builder kind and every similarity measure,
    /// weighting and tokenizer.
    fn every_kind(tables: &TablePair, upper: f64, lower: f64) -> Vec<BoxedLf> {
        let mut out: Vec<BoxedLf> = Vec::new();
        let measures = [
            Measure::Jaccard,
            Measure::Cosine,
            Measure::Dice,
            Measure::Overlap,
            Measure::Levenshtein,
            Measure::JaroWinkler,
            Measure::MongeElkan,
        ];
        for (m, measure) in measures.into_iter().enumerate() {
            for weighting in [Weighting::Uniform, Weighting::Tf, Weighting::TfIdf] {
                for tokenizer in [Tokenizer::Whitespace, Tokenizer::QGram(2)] {
                    let config = SimilarityConfig {
                        preprocess: standard_pipeline(),
                        tokenizer,
                        weighting,
                        measure,
                    };
                    let name = format!("sim_{}", config.id());
                    let mut lf = SimilarityLf::new(name, "name", config, upper, lower);
                    if m % 2 == 1 {
                        lf = lf.with_attrs("name", "desc");
                    }
                    out.push(Arc::new(lf.clone()));
                    if weighting == Weighting::TfIdf {
                        let with = lf.with_corpus(corpus(tables, tokenizer));
                        out.push(Arc::new(with));
                    }
                }
            }
        }
        for policy in [
            ExtractionPolicy::UnmatchOnly,
            ExtractionPolicy::Symmetric,
            ExtractionPolicy::MatchOnly,
        ] {
            out.push(Arc::new(ExtractionLf::new(
                format!("sizes_{policy:?}"),
                &["name", "desc"],
                policy,
                |t| {
                    panda_text::extract::sizes(t)
                        .iter()
                        .map(f64::to_string)
                        .collect()
                },
            )));
        }
        out.push(Arc::new(ExtractionLf::new(
            "codes",
            &["name"],
            ExtractionPolicy::Symmetric,
            panda_text::extract::model_codes,
        )));
        for (attr, unmatch) in [("name", true), ("name", false), ("price", true)] {
            out.push(Arc::new(AttributeEqualityLf::new(
                format!("eq_{attr}_{unmatch}"),
                attr,
                unmatch,
            )));
        }
        for (match_tol, unmatch_tol) in [(0.05, 0.5), (0.0, 0.0), (0.3, 0.3)] {
            out.push(Arc::new(NumericToleranceLf::new(
                format!("num_{match_tol}_{unmatch_tol}"),
                "price",
                match_tol,
                unmatch_tol,
            )));
        }
        out
    }

    fn per_pair(lf: &BoxedLf, tables: &TablePair, pairs: &[CandidatePair]) -> Vec<Label> {
        pairs
            .iter()
            .map(|&p| tables.pair_ref(p).map_or(Label::Abstain, |r| lf.label(&r)))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// For every builder kind, the prepared votes equal the per-pair
        /// `label` votes — including pairs whose ids are out of range.
        #[test]
        fn prepared_votes_equal_per_pair_labels(
            left in rows(),
            right in rows(),
            ids in proptest::collection::vec((0u32..8, 0u32..8), 0..24),
            (upper, lower) in thresholds(),
        ) {
            let tables = table_pair(left, right);
            let pairs: Vec<CandidatePair> =
                ids.iter().map(|&(l, r)| CandidatePair::new(l, r)).collect();
            for lf in every_kind(&tables, upper, lower) {
                let prepared = lf.prepare(&tables, &pairs);
                let votes: Vec<Label> = pairs.iter().map(|&p| prepared.vote(p)).collect();
                prop_assert_eq!(votes, per_pair(&lf, &tables, &pairs), "{}", lf.name());
            }
        }

        /// The same through the label matrix: every column of a full apply
        /// equals its LF's per-pair `label` column.
        #[test]
        fn matrix_columns_equal_per_pair_labels(
            left in rows(),
            right in rows(),
            ids in proptest::collection::vec((0u32..8, 0u32..8), 0..24),
            (upper, lower) in thresholds(),
        ) {
            let tables = table_pair(left, right);
            let cands =
                CandidateSet::from_pairs(ids.iter().map(|&(l, r)| CandidatePair::new(l, r)));
            let mut registry = LfRegistry::new();
            for lf in every_kind(&tables, upper, lower) {
                registry.upsert(lf);
            }
            let mut matrix = LabelMatrix::new();
            let report = matrix.apply(&registry, &tables, &cands);
            prop_assert!(report.failed.is_empty(), "{:?}", report.failed);
            for lf in registry.lfs() {
                let want: Vec<i8> = per_pair(lf, &tables, cands.pairs())
                    .into_iter()
                    .map(Label::as_i8)
                    .collect();
                prop_assert_eq!(matrix.column(lf.name()), Some(want), "{}", lf.name());
            }
        }
    }

    /// Counts `prepare_record` calls; votes match when both records exist.
    struct Counting(AtomicUsize);

    impl RecordKernel for Counting {
        type State = ();
        fn prepare_record(&self, _side: Side, _record: &Record<'_>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
        fn vote_states(&self, _: &(), _: &()) -> Label {
            Label::Match
        }
    }

    #[test]
    fn prepared_work_is_bounded_by_referenced_records() {
        let mut left = Table::new("l", Schema::of_text(&["name"]));
        let mut right = Table::new("r", Schema::of_text(&["name"]));
        for i in 0..1000 {
            left.push(vec![format!("l{i}")]).unwrap();
            right.push(vec![format!("r{i}")]).unwrap();
        }
        let tables = TablePair::new(left, right);
        let pairs = [
            CandidatePair::new(3, 7),
            CandidatePair::new(3, 9),
            CandidatePair::new(500, 7),
            CandidatePair::new(2000, 7), // out of range: never prepared
        ];
        let lf = Counting(AtomicUsize::new(0));
        let prepared = prepare_records(&lf, &tables, &pairs);
        assert_eq!(
            lf.0.load(Ordering::Relaxed),
            2 + 2,
            "3 and 500 left, 7 and 9 right"
        );
        let votes: Vec<Label> = pairs.iter().map(|&p| prepared.vote(p)).collect();
        assert_eq!(
            votes,
            [Label::Match, Label::Match, Label::Match, Label::Abstain]
        );
    }
}
