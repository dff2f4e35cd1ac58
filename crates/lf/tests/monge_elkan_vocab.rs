//! A Monge-Elkan LF votes from a token-vocabulary matrix when its
//! candidates' token pairs repeat, and through the per-pair kernel when
//! they do not. Either way every prepared vote — through `prepare`, a
//! full `LabelMatrix::apply` and `add_column` — equals the per-pair
//! `label` bit for bit, and the `lf.me.*` counters show the path each
//! prepare took.
//!
//! Two draw families, each forcing one path:
//!
//! * **pool**: every cell draws its tokens from a pool of 3–6, and the
//!   pairs are both tables' full cross product, so the token pairs (the
//!   product of the two sides' token occurrences) are at least the
//!   vocabulary matrix's cells: the matrix path;
//! * **unique**: no token (and, under `QGram(2)`, no 2-gram) appears
//!   twice, and the pairs match record `i` with record `i`, at least two
//!   of them present on both sides: the matrix would have more cells than
//!   the pairs have token pairs, so the per-pair path.
//!
//! The obs registry is process-global, so this binary holds the
//! counters to itself, and its tests take `LOCK` so that two never count
//! at once.

use panda_lf::{Label, LabelMatrix, LabelingFunction, LfRegistry, SimilarityLf};
use panda_table::{CandidatePair, CandidateSet, Schema, Table, TablePair, Value};
use panda_text::{Measure, PreparedText, Preprocess, SimilarityConfig, Tokenizer, Weighting};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

static LOCK: Mutex<()> = Mutex::new(());

/// What one drawn cell holds.
#[derive(Debug, Clone)]
enum Cell {
    Null,
    Blank,
    /// Punctuation only: present, but no word tokens once cleaned.
    Punct,
    Int(i64),
    /// Tokens, as indices into the pool (pool family) or as char counts
    /// of fresh tokens (unique family).
    Tokens(Vec<usize>),
}

/// A pool token: 1–8 chars, ASCII (either case) or not, or 65–70 chars.
fn pool_token() -> impl Strategy<Value = String> {
    let short = || "[a-cA-Cé本]{1,8}";
    prop_oneof![short(), short(), short(), short(), "[ab]{65,70}"]
}

/// A pool-family cell: missing, blank, punctuation, a number, 0–8 pool
/// tokens (duplicates likely), or 65–70 of them.
fn pool_cell() -> impl Strategy<Value = Cell> {
    let tokens = || proptest::collection::vec(0usize..6, 0..8).prop_map(Cell::Tokens);
    prop_oneof![
        Just(Cell::Null),
        Just(Cell::Blank),
        Just(Cell::Punct),
        (0i64..3).prop_map(Cell::Int),
        tokens(),
        tokens(),
        tokens(),
        tokens(),
        proptest::collection::vec(0usize..6, 65..70).prop_map(Cell::Tokens),
    ]
}

/// A unique-family cell: missing, blank, or tokens of 1–8 fresh chars,
/// sometimes one of 65–70 chars, sometimes 65–70 tokens.
fn unique_cell() -> impl Strategy<Value = Cell> {
    let tokens = || proptest::collection::vec(1usize..8, 1..6).prop_map(Cell::Tokens);
    prop_oneof![
        Just(Cell::Null),
        Just(Cell::Blank),
        tokens(),
        tokens(),
        tokens(),
        (proptest::collection::vec(1usize..8, 0..4), 65usize..70).prop_map(|(mut t, long)| {
            t.push(long);
            Cell::Tokens(t)
        }),
        proptest::collection::vec(1usize..4, 65..70).prop_map(Cell::Tokens),
    ]
}

/// Cells of a unique-family side: the first two always hold tokens.
fn unique_side() -> impl Strategy<Value = Vec<Cell>> {
    (
        proptest::collection::vec(1usize..8, 1..6),
        proptest::collection::vec(1usize..8, 1..6),
        proptest::collection::vec(unique_cell(), 0..4),
    )
        .prop_map(|(first, second, rest)| {
            let mut cells = vec![Cell::Tokens(first), Cell::Tokens(second)];
            cells.extend(rest);
            cells
        })
}

/// Ordinary, inverted and NaN `(upper, lower)` thresholds, or (`None`)
/// both at the score of the candidate the index picks.
fn thresholds() -> impl Strategy<Value = (Option<(f64, f64)>, usize)> {
    (
        prop_oneof![
            (-0.2f64..1.2, -0.2f64..1.2).prop_map(Some),
            Just(Some((0.9, 0.3))),
            Just(Some((0.2, 0.8))),
            Just(Some((f64::NAN, 0.3))),
            Just(Some((0.5, f64::NAN))),
            Just(None),
            Just(None),
        ],
        any::<usize>(),
    )
}

/// The cell's value; `word(k)` renders the `k`th token.
fn render(cell: &Cell, mut word: impl FnMut(usize) -> String) -> Value {
    match cell {
        Cell::Null => Value::Null,
        Cell::Blank => Value::Text("  \t".into()),
        Cell::Punct => Value::Text("..,;".into()),
        Cell::Int(n) => Value::Int(*n),
        Cell::Tokens(t) => Value::Text(t.iter().map(|&k| word(k)).collect::<Vec<_>>().join(" ")),
    }
}

fn table(values: Vec<Value>) -> Table {
    let mut t = Table::new("t", Schema::of_text(&["authors"]));
    for v in values {
        t.push_row(vec![v]).unwrap();
    }
    t
}

/// Pool family: tokens from `pool`, the full cross product of pairs plus
/// pairs out of range.
fn pool_input(pool: &[String], left: &[Cell], right: &[Cell]) -> (TablePair, CandidateSet) {
    let side = |cells: &[Cell]| {
        table(
            cells
                .iter()
                .map(|c| render(c, |k| pool[k % pool.len()].clone()))
                .collect(),
        )
    };
    let mut pairs = Vec::new();
    for l in 0..left.len() as u32 {
        for r in 0..right.len() as u32 {
            pairs.push(CandidatePair::new(l, r));
        }
        pairs.push(CandidatePair::new(l, 99));
    }
    pairs.push(CandidatePair::new(99, 0));
    let tables = TablePair::new(side(left), side(right));
    (tables, CandidateSet::from_pairs(pairs))
}

/// Unique family: every token of fresh CJK chars, no char used twice, one
/// space between tokens; record `i` paired with record `i`, plus pairs
/// out of range.
fn unique_input(left: &[Cell], right: &[Cell]) -> (TablePair, CandidateSet) {
    let mut next = 0x4E00u32;
    let mut side = |cells: &[Cell]| {
        let mut fresh = |len: usize| -> String {
            (0..len)
                .map(|_| {
                    next += 1;
                    char::from_u32(next).expect("CJK code point")
                })
                .collect()
        };
        table(cells.iter().map(|c| render(c, &mut fresh)).collect())
    };
    let tables = TablePair::new(side(left), side(right));
    let mut pairs: Vec<CandidatePair> = (0..left.len().min(right.len()) as u32)
        .map(|i| CandidatePair::new(i, i))
        .collect();
    pairs.push(CandidatePair::new(0, 99));
    pairs.push(CandidatePair::new(99, 1));
    (tables, CandidateSet::from_pairs(pairs))
}

/// The LF configuration of the curated `authors_me`, with `tokenizer`.
fn config(tokenizer: Tokenizer) -> SimilarityConfig {
    SimilarityConfig {
        preprocess: vec![Preprocess::Lowercase, Preprocess::StripPunctuation],
        tokenizer,
        weighting: Weighting::Uniform,
        measure: Measure::MongeElkan,
    }
}

/// A record's tokens under `config`; `None` when its cell is missing.
fn record_tokens(config: &SimilarityConfig, table: &Table, id: u32) -> Option<Vec<Vec<char>>> {
    let record = table.record(panda_table::RecordId(id)).ok()?;
    let v = record.get("authors");
    if v.is_missing() {
        return None;
    }
    let PreparedText::Tokens(t) = config.prepare(&v.to_text(), None) else {
        unreachable!("Monge-Elkan prepares tokens");
    };
    Some((0..t.len()).map(|i| t.token(i).to_vec()).collect())
}

/// `(T, VL · VR)`: the token pairs of the candidates present on both
/// sides, and the product of the two sides' vocabulary sizes over the
/// records the candidates reference.
fn expected_work(
    config: &SimilarityConfig,
    tables: &TablePair,
    cands: &CandidateSet,
) -> (u64, u64) {
    let mut token_pairs = 0u64;
    let (mut vl, mut vr) = (HashSet::new(), HashSet::new());
    for p in cands.pairs() {
        let a = record_tokens(config, &tables.left, p.left.0);
        let b = record_tokens(config, &tables.right, p.right.0);
        if let (Some(a), Some(b)) = (&a, &b) {
            token_pairs += (a.len() * b.len()) as u64;
        }
        vl.extend(a.into_iter().flatten());
        vr.extend(b.into_iter().flatten());
    }
    (token_pairs, (vl.len() * vr.len()) as u64)
}

fn counter(name: &str) -> u64 {
    panda_obs::snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// `[lf.me.token_pairs, lf.me.matrix_cells, lf.me.per_pair]` now.
fn counters() -> [u64; 3] {
    ["lf.me.token_pairs", "lf.me.matrix_cells", "lf.me.per_pair"].map(counter)
}

/// For both tokenizers: the votes of `prepare`, `apply` and `add_column`
/// equal per-pair `label`, and the three prepares took the matrix path
/// (`matrix`) or the per-pair path.
fn check(
    tables: &TablePair,
    cands: &CandidateSet,
    (fixed, pick): (Option<(f64, f64)>, usize),
    matrix: bool,
) -> Result<(), TestCaseError> {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    panda_obs::set_enabled(true);
    for tokenizer in [Tokenizer::Whitespace, Tokenizer::QGram(2)] {
        let config = config(tokenizer);
        let scorer = SimilarityLf::new("authors_me", "authors", config.clone(), 0.9, 0.3);
        let scores: Vec<f64> = cands
            .pairs()
            .iter()
            .filter_map(|&p| scorer.score(&tables.pair_ref(p).ok()?))
            .collect();
        let (upper, lower) = fixed.unwrap_or_else(|| match scores.len() {
            0 => (0.9, 0.3),
            n => (scores[pick % n], scores[pick % n]),
        });
        let lf: Arc<dyn LabelingFunction> = Arc::new(scorer.with_thresholds(upper, lower));
        let want: Vec<i8> = cands
            .pairs()
            .iter()
            .map(|&p| {
                tables
                    .pair_ref(p)
                    .map_or(Label::Abstain, |r| lf.label(&r))
                    .as_i8()
            })
            .collect();

        let before = counters();
        let prepared = lf.prepare(tables, cands.pairs());
        let votes: Vec<i8> = cands
            .pairs()
            .iter()
            .map(|&p| prepared.vote(p).as_i8())
            .collect();
        drop(prepared);
        prop_assert_eq!(&votes, &want, "prepare, {:?}", tokenizer);
        let mut registry = LfRegistry::new();
        registry.upsert(Arc::clone(&lf));
        let mut applied = LabelMatrix::new();
        let report = applied.apply(&registry, tables, cands);
        prop_assert!(report.failed.is_empty(), "{:?}", report.failed);
        prop_assert_eq!(applied.column("authors_me"), Some(want.clone()), "apply");
        let mut added = LabelMatrix::new();
        added.add_column(&lf, 1, tables, cands).expect("LF applies");
        prop_assert_eq!(added.column("authors_me"), Some(want), "add_column");

        let after = counters();
        let delta = [0, 1, 2].map(|k| after[k] - before[k]);
        let (token_pairs, cells) = expected_work(&config, tables, cands);
        let want_delta = if matrix {
            [3 * token_pairs, 3 * cells, 0]
        } else {
            [3 * token_pairs, 0, 3]
        };
        prop_assert_eq!(
            delta,
            want_delta,
            "{:?}: (T, VL·VR) = {:?}",
            tokenizer,
            (token_pairs, cells)
        );
        prop_assert_eq!(matrix, cells <= token_pairs, "the draw forces its path");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pool draws take the matrix path and vote as `label` does.
    #[test]
    fn pooled_tokens_vote_from_the_matrix_as_label_does(
        pool in proptest::collection::vec(pool_token(), 3..=6),
        left in proptest::collection::vec(pool_cell(), 1..6),
        right in proptest::collection::vec(pool_cell(), 1..6),
        thresholds in thresholds(),
    ) {
        let (tables, cands) = pool_input(&pool, &left, &right);
        check(&tables, &cands, thresholds, true)?;
    }

    /// Unique-token draws take the per-pair path and vote as `label`
    /// does.
    #[test]
    fn unique_tokens_vote_per_pair_as_label_does(
        left in unique_side(),
        right in unique_side(),
        thresholds in thresholds(),
    ) {
        let (tables, cands) = unique_input(&left, &right);
        check(&tables, &cands, thresholds, false)?;
    }
}
