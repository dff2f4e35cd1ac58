//! Monge-Elkan votes from a token-vocabulary matrix.
//!
//! A Monge-Elkan similarity LF scores every token of a pair's left record
//! against every token of its right record, one Jaro-Winkler kernel per
//! token pair. Across a candidate set the same token pairs recur — an
//! author's name sits in every pair that author's records are in — so far
//! fewer of them are distinct. [`prepare`] interns each side's tokens into
//! a vocabulary, scores the left × right vocabulary matrix once, and folds
//! each vote from matrix cells by token id, through the fold and the
//! threshold comparison the per-pair kernel uses, so every vote is the
//! per-pair vote bit for bit (DESIGN.md §12).

use crate::builders::{similarity_label, SimilarityLf};
use crate::prepared::{PreparedLf, RecordStates, SideStates};
use crate::Label;
use panda_table::{CandidatePair, RecordId};
use panda_text::config::threshold_vote;
use panda_text::sim::{self, TokenChars};
use panda_text::PreparedText;
use std::collections::HashMap;
use std::ops::Range;

/// Prepare a Monge-Elkan `lf` from its per-record `states` for `pairs`.
///
/// With `T` the token pairs the per-pair kernel would score (the sum of
/// `|left tokens| · |right tokens|` over the pairs whose attribute is
/// present on both sides) and `VL`, `VR` the two sides' vocabulary sizes,
/// the vocabulary matrix is used when `VL · VR ≤ T` and `VL · VR ≤`
/// [`sim::VOCAB_MATRIX_CELLS`]: it then runs no more kernels than the
/// per-pair path and holds at most 8 bytes per candidate token pair.
/// Otherwise the states themselves vote, through the per-pair kernel
/// `label` runs. Counts `lf.me.token_pairs` (`T`), and
/// `lf.me.matrix_cells` (`VL · VR`) or `lf.me.per_pair` (one prepare).
pub(crate) fn prepare<'a>(
    lf: &SimilarityLf,
    states: RecordStates<'a, SimilarityLf>,
    pairs: &[CandidatePair],
) -> Box<dyn PreparedLf + 'a> {
    let token_pairs = pairs
        .iter()
        .filter_map(|p| {
            let a = tokens(states.left.get(p.left)?)?;
            let b = tokens(states.right.get(p.right)?)?;
            Some(a.len() as u64 * b.len() as u64)
        })
        .fold(0u64, u64::saturating_add);
    panda_obs::counter_add("lf.me.token_pairs", token_pairs);
    let (left, left_vocab) = SideTokens::intern(&states.left);
    let (right, right_vocab) = SideTokens::intern(&states.right);
    let (vl, vr) = (left_vocab.len(), right_vocab.len());
    let cells = vl as u64 * vr as u64;
    if cells > token_pairs || cells > sim::VOCAB_MATRIX_CELLS as u64 {
        panda_obs::counter_add("lf.me.per_pair", 1);
        return Box::new(states);
    }
    panda_obs::counter_add("lf.me.matrix_cells", cells);
    // Column `r` holds right token `r` against every left token: one
    // pattern-match table per right token, the per-pair kernel's
    // orientation.
    let mut matrix = vec![0.0f64; vl * vr];
    for (r, column) in right_vocab.iter().zip(matrix.chunks_exact_mut(vl.max(1))) {
        sim::jaro_winkler_many(&left_vocab, r, column);
    }
    let (upper, lower) = lf.thresholds();
    Box::new(VocabMatrix {
        left,
        right,
        matrix,
        vl,
        upper,
        lower,
    })
}

/// A Monge-Elkan state's tokens; `None` when the attribute is missing.
fn tokens(state: &Option<PreparedText>) -> Option<&TokenChars> {
    match state {
        Some(PreparedText::Tokens(t)) => Some(t),
        Some(_) => unreachable!("a Monge-Elkan LF prepares token lists"),
        None => None,
    }
}

/// One side's records as token ids.
struct SideTokens {
    /// Per record the pairs reference, the range of its token ids in
    /// `tokens`; `None` when its attribute is missing.
    spans: SideStates<Option<Range<u32>>>,
    tokens: Vec<u32>,
}

impl SideTokens {
    /// Intern `side`'s tokens by content: tokens with equal chars share an
    /// id, and keys compare by chars, so a hash collision never merges two
    /// tokens. Each record keeps every token occurrence in order,
    /// duplicates included, because Monge-Elkan folds over occurrences.
    /// Returns the records and the vocabulary by id, borrowed from the
    /// states.
    fn intern(side: &SideStates<Option<PreparedText>>) -> (SideTokens, Vec<&[char]>) {
        let mut ids: HashMap<&[char], u32> = HashMap::new();
        let mut vocab = Vec::new();
        let mut spans = Vec::with_capacity(side.states.len());
        let mut all = Vec::new();
        for state in &side.states {
            let Some(t) = tokens(state) else {
                spans.push(None);
                continue;
            };
            let start = all.len() as u32;
            for i in 0..t.len() {
                let token = t.token(i);
                let id = *ids.entry(token).or_insert_with(|| {
                    vocab.push(token);
                    (vocab.len() - 1) as u32
                });
                all.push(id);
            }
            spans.push(Some(start..all.len() as u32));
        }
        let spans = SideStates {
            ids: side.ids.clone(),
            states: spans,
        };
        (SideTokens { spans, tokens: all }, vocab)
    }

    /// Record `id`'s token ids; `None` when the pairs never referenced it
    /// or its attribute is missing.
    fn get(&self, id: RecordId) -> Option<&[u32]> {
        let span = self.spans.get(id)?.clone()?;
        Some(&self.tokens[span.start as usize..span.end as usize])
    }
}

/// A Monge-Elkan LF prepared as a token-vocabulary matrix.
struct VocabMatrix {
    left: SideTokens,
    right: SideTokens,
    /// `matrix[r * vl + l]`: Jaro-Winkler of left token `l` and right
    /// token `r`.
    matrix: Vec<f64>,
    vl: usize,
    upper: f64,
    lower: f64,
}

impl PreparedLf for VocabMatrix {
    fn vote(&self, pair: CandidatePair) -> Label {
        let (Some(a), Some(b)) = (self.left.get(pair.left), self.right.get(pair.right)) else {
            return Label::Abstain;
        };
        let score = sim::monge_elkan_fold(a.len(), b.len(), |i, j| {
            self.matrix[b[j] as usize * self.vl + a[i] as usize]
        });
        similarity_label(threshold_vote(score, self.upper, self.lower))
    }
}
