//! Similarity functions (axis 4 of the utility library).
//!
//! Every function returns a similarity in `[0, 1]` (1 = identical), so
//! thresholds compose uniformly. Token-set measures take token slices;
//! weighted measures take [`WeightedTokens`] maps; string measures take
//! `&str`, over `_chars` kernels on char slices.

use crate::weight::{SortedWeights, WeightedTokens};

// ---------------------------------------------------------------------------
// Token hashing
// ---------------------------------------------------------------------------
//
// Token-set measures only need *identity* between tokens, never their
// content, so sets are represented as sorted, deduplicated `u64` FNV-1a
// hash arrays. Sort+dedup gives exactly `HashSet` semantics modulo hash
// collisions: two distinct tokens with equal hashes **merge into one set
// element** (never a panic, never a broken sort invariant), shifting set
// cardinalities by at most the number of colliding pairs. At 64 bits a
// collision within one attribute's vocabulary is a ~2^-64-per-pair event,
// so the drift is theoretical; the forced-collision tests below pin the
// merge behaviour down anyway.

/// FNV-1a 64-bit hash of one token. Stable across runs and platforms (pure
/// function of the bytes), which keeps every downstream artifact that
/// hashes tokens — prepared columns, cached weight vectors — deterministic.
#[inline]
pub fn token_hash(token: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in token.as_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash every token and normalise to set form: sorted ascending, no
/// duplicates. The output is what the `*_sorted` kernels consume.
pub fn sorted_token_hashes<S: AsRef<str>>(tokens: &[S]) -> Vec<u64> {
    let mut out: Vec<u64> = tokens.iter().map(|t| token_hash(t.as_ref())).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// `|A∩B|` of two sorted deduplicated hash arrays, by merge walk.
#[inline]
fn sorted_intersection_len(a: &[u64], b: &[u64]) -> usize {
    let mut inter = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        inter += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    inter
}

// ---------------------------------------------------------------------------
// Token-set measures
// ---------------------------------------------------------------------------

/// Jaccard `|A∩B| / |A∪B|` over sorted deduplicated hash arrays (see
/// [`sorted_token_hashes`]). Two empty sets are identical (1).
pub fn jaccard_sorted(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = sorted_intersection_len(a, b) as f64;
    let union = (a.len() + b.len()) as f64 - inter;
    inter / union
}

/// Overlap coefficient `|A∩B| / min(|A|,|B|)` over sorted hash arrays.
pub fn overlap_sorted(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let denom = a.len().min(b.len()) as f64;
    if denom == 0.0 {
        return 0.0;
    }
    sorted_intersection_len(a, b) as f64 / denom
}

/// Dice coefficient `2|A∩B| / (|A|+|B|)` over sorted hash arrays.
pub fn dice_sorted(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    2.0 * sorted_intersection_len(a, b) as f64 / (a.len() + b.len()) as f64
}

/// Binary cosine `|A∩B| / sqrt(|A||B|)` over sorted hash arrays.
pub fn cosine_sorted(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let denom = ((a.len() * b.len()) as f64).sqrt();
    if denom == 0.0 {
        return 0.0;
    }
    sorted_intersection_len(a, b) as f64 / denom
}

/// Jaccard similarity `|A∩B| / |A∪B|`. Two empty sets are identical (1).
pub fn jaccard<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    jaccard_sorted(&sorted_token_hashes(a), &sorted_token_hashes(b))
}

/// Overlap coefficient `|A∩B| / min(|A|,|B|)`.
pub fn overlap_coefficient<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    overlap_sorted(&sorted_token_hashes(a), &sorted_token_hashes(b))
}

/// Dice coefficient `2|A∩B| / (|A|+|B|)`.
pub fn dice<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    dice_sorted(&sorted_token_hashes(a), &sorted_token_hashes(b))
}

/// Cosine similarity of the *binary* token-incidence vectors:
/// `|A∩B| / sqrt(|A||B|)`.
pub fn cosine_sets<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    cosine_sorted(&sorted_token_hashes(a), &sorted_token_hashes(b))
}

// ---------------------------------------------------------------------------
// Weighted measures
// ---------------------------------------------------------------------------

/// Weighted Jaccard `Σ min(w_a, w_b) / Σ max(w_a, w_b)`.
pub fn weighted_jaccard(a: &WeightedTokens, b: &WeightedTokens) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let mut num = 0.0;
    let mut den = 0.0;
    for (t, &wa) in a {
        let wb = b.get(t).copied().unwrap_or(0.0);
        num += wa.min(wb);
        den += wa.max(wb);
    }
    for (t, &wb) in b {
        if !a.contains_key(t) {
            den += wb;
        }
    }
    if den == 0.0 {
        return 1.0; // all-zero weights on both sides
    }
    num / den
}

/// Cosine similarity of weighted vectors (e.g. TF-IDF cosine).
pub fn weighted_cosine(a: &WeightedTokens, b: &WeightedTokens) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let mut dot = 0.0;
    for (t, &wa) in a {
        if let Some(&wb) = b.get(t) {
            dot += wa * wb;
        }
    }
    let na: f64 = a.values().map(|w| w * w).sum::<f64>().sqrt();
    let nb: f64 = b.values().map(|w| w * w).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        return if na == nb { 1.0 } else { 0.0 };
    }
    (dot / (na * nb)).clamp(0.0, 1.0)
}

/// Weighted Jaccard `Σ min(w_a, w_b) / Σ max(w_a, w_b)` over sorted weight
/// vectors — the merge-walk twin of [`weighted_jaccard`]. Unlike the
/// `HashMap` version, the accumulation order is fixed by the hash sort, so
/// the result is bit-stable across runs and vector instances.
pub fn weighted_jaccard_sorted(a: &SortedWeights, b: &SortedWeights) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let (a, b) = (a.entries(), b.entries());
    let mut num = 0.0;
    let mut den = 0.0;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (ha, wa) = a[i];
        let (hb, wb) = b[j];
        if ha == hb {
            num += wa.min(wb);
            den += wa.max(wb);
            i += 1;
            j += 1;
        } else if ha < hb {
            den += wa;
            i += 1;
        } else {
            den += wb;
            j += 1;
        }
    }
    den += a[i..].iter().map(|&(_, w)| w).sum::<f64>();
    den += b[j..].iter().map(|&(_, w)| w).sum::<f64>();
    if den == 0.0 {
        return 1.0; // all-zero weights on both sides
    }
    num / den
}

/// Cosine of sorted weight vectors — the merge-walk twin of
/// [`weighted_cosine`], with the same empty/zero-norm handling.
pub fn weighted_cosine_sorted(a: &SortedWeights, b: &SortedWeights) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let (ea, eb) = (a.entries(), b.entries());
    let mut dot = 0.0;
    let (mut i, mut j) = (0usize, 0usize);
    while i < ea.len() && j < eb.len() {
        let (ha, wa) = ea[i];
        let (hb, wb) = eb[j];
        dot += if ha == hb { wa * wb } else { 0.0 };
        i += usize::from(ha <= hb);
        j += usize::from(hb <= ha);
    }
    let na = a.norm();
    let nb = b.norm();
    if na == 0.0 || nb == 0.0 {
        return if na == nb { 1.0 } else { 0.0 };
    }
    (dot / (na * nb)).clamp(0.0, 1.0)
}

// ---------------------------------------------------------------------------
// String (edit-based) measures
// ---------------------------------------------------------------------------
//
// The kernels work on char slices and allocate nothing per call: the DP
// rows and match flags they need live in a per-thread work buffer that
// grows to the longest input its thread has seen (up to `KEEP_WORDS`).
// The `&str` functions collect chars and call them; callers that score one
// string against many (prepared LF state) collect once.

thread_local! {
    static WORK: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Work-buffer words (512 KiB) a thread keeps between calls. A call needing
/// more — a Levenshtein DP over strings past ~32k chars — frees its buffer
/// when it returns, so one huge input does not pin memory on every thread.
const KEEP_WORDS: usize = 1 << 16;

/// Run `f` on `words` words of this thread's work buffer (contents left over
/// from earlier calls; `f` initialises what it reads). Kernels never nest
/// buffer borrows.
fn with_work<R>(words: usize, f: impl FnOnce(&mut [u64]) -> R) -> R {
    WORK.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < words {
            buf.resize(words, 0);
        }
        let out = f(&mut buf[..words]);
        if buf.len() > KEEP_WORDS {
            *buf = Vec::new();
        }
        out
    })
}

#[inline]
fn bit(flags: &[u64], i: usize) -> bool {
    flags[i / 64] >> (i % 64) & 1 == 1
}

#[inline]
fn set_bit(flags: &mut [u64], i: usize) {
    flags[i / 64] |= 1 << (i % 64);
}

fn chars(s: &str) -> Vec<char> {
    s.chars().collect()
}

/// Levenshtein edit distance (unit costs), O(|a|·|b|) time.
pub fn levenshtein(a: &str, b: &str) -> usize {
    levenshtein_chars(&chars(a), &chars(b))
}

/// [`levenshtein`] over char slices: the full DP on two work-buffer rows.
pub fn levenshtein_chars(a: &[char], b: &[char]) -> usize {
    let (a, b) = if a.len() < b.len() { (a, b) } else { (b, a) };
    if a.is_empty() {
        return b.len();
    }
    let n = a.len() + 1;
    with_work(2 * n, |rows| {
        let (mut prev, mut cur) = rows.split_at_mut(n);
        for (i, p) in prev.iter_mut().enumerate() {
            *p = i as u64;
        }
        for (j, cb) in b.iter().enumerate() {
            cur[0] = j as u64 + 1;
            for (i, ca) in a.iter().enumerate() {
                let cost = u64::from(ca != cb);
                cur[i + 1] = (prev[i] + cost).min(prev[i + 1] + 1).min(cur[i] + 1);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[a.len()] as usize
    })
}

/// Levenshtein with early exit: returns `None` when the distance exceeds
/// `max`. Banded: O((|a|+|b|)·max) time.
pub fn levenshtein_bounded(a: &str, b: &str, max: usize) -> Option<usize> {
    levenshtein_bounded_chars(&chars(a), &chars(b), max)
}

/// [`levenshtein_bounded`] over char slices. Each row touches only its
/// band `|i − j| ≤ max` plus the one cell past it that the next row reads,
/// so the cost stays O((|a|+|b|)·max) however long the strings are.
pub fn levenshtein_bounded_chars(a: &[char], b: &[char], max: usize) -> Option<usize> {
    let (a, b) = if a.len() < b.len() { (a, b) } else { (b, a) };
    if b.len() - a.len() > max {
        return None;
    }
    if a.is_empty() {
        return (b.len() <= max).then_some(b.len());
    }
    const BIG: u64 = u64::MAX / 2;
    let n = a.len() + 1;
    with_work(2 * n, |rows| {
        let (mut prev, mut cur) = rows.split_at_mut(n);
        let top = max.min(a.len());
        for (i, p) in prev[..=top].iter_mut().enumerate() {
            *p = i as u64;
        }
        if top < a.len() {
            prev[top + 1] = BIG;
        }
        for (j, cb) in b.iter().enumerate() {
            // Band over i: |i - j| ≤ max (chars beyond can't recover).
            let lo = j.saturating_sub(max);
            let hi = j.saturating_add(max).saturating_add(1).min(a.len());
            cur[0] = if j < max { j as u64 + 1 } else { BIG };
            if lo > 0 {
                cur[lo] = BIG;
            }
            let mut row_min = cur[0];
            for i in lo..hi {
                let cost = u64::from(a[i] != *cb);
                let v = (prev[i] + cost)
                    .min(prev[i + 1].saturating_add(1))
                    .min(cur[i].saturating_add(1));
                cur[i + 1] = v;
                row_min = row_min.min(v);
            }
            if row_min > max as u64 {
                return None;
            }
            // The next row's band reaches one cell further right.
            if hi < a.len() {
                cur[hi + 1] = BIG;
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        let d = prev[a.len()] as usize;
        (d <= max).then_some(d)
    })
}

/// Normalised Levenshtein similarity `1 − d / max(|a|,|b|)`.
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    levenshtein_similarity_chars(&chars(a), &chars(b))
}

/// [`levenshtein_similarity`] over char slices.
pub fn levenshtein_similarity_chars(a: &[char], b: &[char]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let maxlen = a.len().max(b.len());
    1.0 - levenshtein_chars(a, b) as f64 / maxlen as f64
}

/// Does `levenshtein_similarity(a, b) > threshold` hold? Decides the
/// comparison through the banded kernel instead of the full DP: the
/// largest edit distance `d_max` still satisfying the *exact* float
/// predicate `1 − d/maxlen > threshold` is found by binary search, and
/// [`levenshtein_bounded`] with that band answers in
/// O((|a|+|b|)·d_max) — with an O(1) early exit on a length gap — instead
/// of O(|a|·|b|). Exactly equivalent to computing the similarity and
/// comparing, including ties lost to float rounding.
pub fn levenshtein_similarity_exceeds(a: &str, b: &str, threshold: f64) -> bool {
    levenshtein_similarity_exceeds_chars(&chars(a), &chars(b), threshold)
}

/// [`levenshtein_similarity_exceeds`] over char slices.
pub fn levenshtein_similarity_exceeds_chars(a: &[char], b: &[char], threshold: f64) -> bool {
    let (la, lb) = (a.len(), b.len());
    if la == 0 && lb == 0 {
        return 1.0 > threshold;
    }
    let maxlen = la.max(lb);
    let sim = |d: usize| 1.0 - d as f64 / maxlen as f64;
    if sim(0) <= threshold || threshold.is_nan() {
        return false; // even identical strings wouldn't clear it
    }
    // Largest d with sim(d) > threshold; sim is nonincreasing in d.
    let (mut lo, mut hi) = (0usize, maxlen); // invariant: sim(lo) passes
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if sim(mid) > threshold {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    levenshtein_bounded_chars(a, b, lo).is_some()
}

/// Jaro similarity.
pub fn jaro(a: &str, b: &str) -> f64 {
    jaro_chars(&chars(a), &chars(b))
}

/// [`jaro`] over char slices.
pub fn jaro_chars(a: &[char], b: &[char]) -> f64 {
    with_work(jaro_flag_words(a.len(), b.len()), |flags| {
        jaro_in(a, b, flags)
    })
}

/// Match-flag words [`jaro_in`] needs for strings of `la` and `lb` chars.
fn jaro_flag_words(la: usize, lb: usize) -> usize {
    la.div_ceil(64) + lb.div_ceil(64)
}

/// The Jaro kernel, with `flags` (at least [`jaro_flag_words`] words) as
/// match-flag buffer.
///
/// Symmetric bit for bit: per character, the greedy window matching is the
/// same two-pointer walk over that character's positions whichever side
/// leads, so both directions match the same position pairs, count the same
/// transpositions, and add the same two terms.
fn jaro_in(a: &[char], b: &[char], flags: &mut [u64]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let (a_used, rest) = flags.split_at_mut(a.len().div_ceil(64));
    let b_used = &mut rest[..b.len().div_ceil(64)];
    a_used.fill(0);
    b_used.fill(0);
    let mut matches = 0usize;
    for (i, ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for (j, cb) in b.iter().enumerate().take(hi).skip(lo) {
            if cb == ca && !bit(b_used, j) {
                set_bit(b_used, j);
                set_bit(a_used, i);
                matches += 1;
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    // Transpositions: walk the matched chars of `a` (in a-order) and of
    // `b` (in b-order) in step; half the positions that disagree.
    let mut transpositions = 0usize;
    let mut k = 0usize;
    for (i, ca) in a.iter().enumerate() {
        if !bit(a_used, i) {
            continue;
        }
        while !bit(b_used, k) {
            k += 1;
        }
        transpositions += usize::from(*ca != b[k]);
        k += 1;
    }
    let t = transpositions as f64 / 2.0;
    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// Jaro-Winkler similarity with the standard prefix scale 0.1, prefix ≤ 4.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    jaro_winkler_chars(&chars(a), &chars(b))
}

/// [`jaro_winkler`] over char slices.
pub fn jaro_winkler_chars(a: &[char], b: &[char]) -> f64 {
    with_work(jaro_flag_words(a.len(), b.len()), |flags| {
        jaro_winkler_in(a, b, flags)
    })
}

/// The Jaro-Winkler kernel over [`jaro_in`]; symmetric bit for bit like it
/// (the common prefix is too).
fn jaro_winkler_in(a: &[char], b: &[char], flags: &mut [u64]) -> f64 {
    let j = jaro_in(a, b, flags);
    let prefix = a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count() as f64;
    (j + prefix * 0.1 * (1.0 - j)).clamp(0.0, 1.0)
}

/// Monge-Elkan: for every token of `a`, the best `inner` similarity
/// against tokens of `b`, averaged. Asymmetric by definition; use
/// [`monge_elkan_sym`] for the symmetrised version.
pub fn monge_elkan<S: AsRef<str>, F>(a: &[S], b: &[S], inner: F) -> f64
where
    F: Fn(&str, &str) -> f64,
{
    if a.is_empty() {
        return if b.is_empty() { 1.0 } else { 0.0 };
    }
    if b.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for ta in a {
        let best = b
            .iter()
            .map(|tb| inner(ta.as_ref(), tb.as_ref()))
            .fold(0.0f64, f64::max);
        total += best;
    }
    total / a.len() as f64
}

/// Symmetrised Monge-Elkan: `min(ME(a,b), ME(b,a))` (the conservative
/// direction — a short title contained in a long one shouldn't score 1).
pub fn monge_elkan_sym<S: AsRef<str>, F>(a: &[S], b: &[S], inner: F) -> f64
where
    F: Fn(&str, &str) -> f64 + Copy,
{
    monge_elkan(a, b, inner).min(monge_elkan(b, a, inner))
}

/// A token list as chars: every token's chars in one buffer plus each
/// token's end offset — what the Monge-Elkan kernel reads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TokenChars {
    chars: Vec<char>,
    ends: Vec<u32>,
}

impl TokenChars {
    /// Collect the chars of `tokens`, in order.
    pub fn new<S: AsRef<str>>(tokens: &[S]) -> Self {
        let mut out = TokenChars::default();
        for t in tokens {
            out.chars.extend(t.as_ref().chars());
            out.ends.push(out.chars.len() as u32);
        }
        out
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when there are no tokens.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The chars of token `i`.
    pub fn token(&self, i: usize) -> &[char] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.chars[start..self.ends[i] as usize]
    }

    /// Chars in the longest token.
    fn longest(&self) -> usize {
        (0..self.len())
            .map(|i| self.token(i).len())
            .max()
            .unwrap_or(0)
    }
}

/// Symmetrised Monge-Elkan with Jaro-Winkler inner similarity over char
/// tokens: `monge_elkan_sym(a, b, jaro_winkler)` on the same tokens, bit
/// for bit. Jaro-Winkler is symmetric bit for bit, so each token pair is
/// scored once and feeds both directions: its row's best for `ME(a, b)`
/// and its column's best for `ME(b, a)`, each folded in the order the
/// two-pass version folds it.
pub fn monge_elkan_jaro_winkler(a: &TokenChars, b: &TokenChars) -> f64 {
    if a.is_empty() || b.is_empty() {
        return if a.is_empty() && b.is_empty() {
            1.0
        } else {
            0.0
        };
    }
    let flag_words = jaro_flag_words(a.longest(), b.longest());
    with_work(b.len() + flag_words, |buf| {
        let (col_best, flags) = buf.split_at_mut(b.len());
        col_best.fill(0.0f64.to_bits());
        let mut total_a = 0.0;
        for i in 0..a.len() {
            let mut best = 0.0f64;
            for (j, col) in col_best.iter_mut().enumerate() {
                let s = jaro_winkler_in(a.token(i), b.token(j), flags);
                best = best.max(s);
                *col = f64::from_bits(*col).max(s).to_bits();
            }
            total_a += best;
        }
        let total_b = col_best.iter().fold(0.0, |acc, &c| acc + f64::from_bits(c));
        (total_a / a.len() as f64).min(total_b / b.len() as f64)
    })
}

/// Exact equality after trimming, as a 0/1 similarity.
pub fn exact(a: &str, b: &str) -> f64 {
    f64::from(a.trim() == b.trim())
}

/// Relative numeric similarity: `1 − |a−b| / max(|a|,|b|)`, clamped to
/// `[0,1]`; both zero → 1.
pub fn relative_numeric(a: f64, b: f64) -> f64 {
    if a == b {
        return 1.0;
    }
    let denom = a.abs().max(b.abs());
    if denom == 0.0 {
        return 1.0;
    }
    (1.0 - (a - b).abs() / denom).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    // Reference implementations: the pre-rewrite `HashSet<&str>` kernels,
    // kept verbatim so property tests can pin the sorted-hash rewrite to
    // the old semantics bit for bit.
    fn ref_set<S: AsRef<str>>(tokens: &[S]) -> HashSet<&str> {
        tokens.iter().map(AsRef::as_ref).collect()
    }

    fn ref_jaccard<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
        let (a, b) = (ref_set(a), ref_set(b));
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        let inter = a.intersection(&b).count() as f64;
        let union = (a.len() + b.len()) as f64 - inter;
        inter / union
    }

    fn ref_overlap<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
        let (a, b) = (ref_set(a), ref_set(b));
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        let denom = a.len().min(b.len()) as f64;
        if denom == 0.0 {
            return 0.0;
        }
        a.intersection(&b).count() as f64 / denom
    }

    fn ref_dice<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
        let (a, b) = (ref_set(a), ref_set(b));
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        2.0 * a.intersection(&b).count() as f64 / (a.len() + b.len()) as f64
    }

    fn ref_cosine<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
        let (a, b) = (ref_set(a), ref_set(b));
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        let denom = ((a.len() * b.len()) as f64).sqrt();
        if denom == 0.0 {
            return 0.0;
        }
        a.intersection(&b).count() as f64 / denom
    }

    // Oracles: the pre-kernel `&str` string measures, kept verbatim so
    // property tests pin the char-slice kernels to them bit for bit.
    mod oracle {
        pub fn levenshtein(a: &str, b: &str) -> usize {
            let a: Vec<char> = a.chars().collect();
            let b: Vec<char> = b.chars().collect();
            let (a, b) = if a.len() < b.len() { (a, b) } else { (b, a) };
            if a.is_empty() {
                return b.len();
            }
            let mut prev: Vec<usize> = (0..=a.len()).collect();
            let mut cur = vec![0usize; a.len() + 1];
            for (j, cb) in b.iter().enumerate() {
                cur[0] = j + 1;
                for (i, ca) in a.iter().enumerate() {
                    let cost = usize::from(ca != cb);
                    cur[i + 1] = (prev[i] + cost).min(prev[i + 1] + 1).min(cur[i] + 1);
                }
                std::mem::swap(&mut prev, &mut cur);
            }
            prev[a.len()]
        }

        pub fn levenshtein_bounded(a: &str, b: &str, max: usize) -> Option<usize> {
            let a: Vec<char> = a.chars().collect();
            let b: Vec<char> = b.chars().collect();
            let (a, b) = if a.len() < b.len() { (a, b) } else { (b, a) };
            if b.len() - a.len() > max {
                return None;
            }
            if a.is_empty() {
                return (b.len() <= max).then_some(b.len());
            }
            const BIG: usize = usize::MAX / 2;
            let mut prev = vec![BIG; a.len() + 1];
            let mut cur = vec![BIG; a.len() + 1];
            for (i, p) in prev.iter_mut().enumerate().take(max.min(a.len()) + 1) {
                *p = i;
            }
            for (j, cb) in b.iter().enumerate() {
                let lo = j.saturating_sub(max);
                let hi = (j + max + 1).min(a.len());
                cur[0] = if j < max { j + 1 } else { BIG };
                if lo > 0 {
                    cur[lo] = BIG;
                }
                let mut row_min = cur[0];
                for i in lo..hi {
                    let cost = usize::from(a[i] != *cb);
                    let v = (prev[i] + cost)
                        .min(prev[i + 1].saturating_add(1))
                        .min(cur[i].saturating_add(1));
                    cur[i + 1] = v;
                    row_min = row_min.min(v);
                }
                if row_min > max {
                    return None;
                }
                std::mem::swap(&mut prev, &mut cur);
                for v in cur.iter_mut() {
                    *v = BIG;
                }
            }
            let d = prev[a.len()];
            (d <= max).then_some(d)
        }

        pub fn jaro(a: &str, b: &str) -> f64 {
            let a: Vec<char> = a.chars().collect();
            let b: Vec<char> = b.chars().collect();
            if a.is_empty() && b.is_empty() {
                return 1.0;
            }
            if a.is_empty() || b.is_empty() {
                return 0.0;
            }
            let window = (a.len().max(b.len()) / 2).saturating_sub(1);
            let mut b_used = vec![false; b.len()];
            let mut matches = 0usize;
            let mut a_matched = Vec::with_capacity(a.len());
            for (i, ca) in a.iter().enumerate() {
                let lo = i.saturating_sub(window);
                let hi = (i + window + 1).min(b.len());
                for j in lo..hi {
                    if !b_used[j] && b[j] == *ca {
                        b_used[j] = true;
                        a_matched.push((i, j));
                        matches += 1;
                        break;
                    }
                }
            }
            if matches == 0 {
                return 0.0;
            }
            let a_seq: Vec<char> = a_matched.iter().map(|&(i, _)| a[i]).collect();
            let b_seq: Vec<char> = {
                let mut with_idx: Vec<(usize, char)> =
                    a_matched.iter().map(|&(_, j)| (j, b[j])).collect();
                with_idx.sort_unstable_by_key(|&(j, _)| j);
                with_idx.into_iter().map(|(_, c)| c).collect()
            };
            let transpositions = a_seq
                .iter()
                .zip(b_seq.iter())
                .filter(|(x, y)| x != y)
                .count();
            let t = transpositions as f64 / 2.0;
            let m = matches as f64;
            (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
        }

        pub fn jaro_winkler(a: &str, b: &str) -> f64 {
            let j = jaro(a, b);
            let prefix = a
                .chars()
                .zip(b.chars())
                .take(4)
                .take_while(|(x, y)| x == y)
                .count() as f64;
            (j + prefix * 0.1 * (1.0 - j)).clamp(0.0, 1.0)
        }

        pub fn monge_elkan(a: &[String], b: &[String]) -> f64 {
            if a.is_empty() {
                return if b.is_empty() { 1.0 } else { 0.0 };
            }
            if b.is_empty() {
                return 0.0;
            }
            let mut total = 0.0;
            for ta in a {
                let best = b
                    .iter()
                    .map(|tb| jaro_winkler(ta, tb))
                    .fold(0.0f64, f64::max);
                total += best;
            }
            total / a.len() as f64
        }
    }

    #[test]
    fn sorted_hashes_are_sorted_and_deduped() {
        let h = sorted_token_hashes(&["tv", "sony", "tv", "", "sony"]);
        assert_eq!(
            h.len(),
            3,
            "duplicates collapse, empty token is one element"
        );
        assert!(h.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        assert!(sorted_token_hashes::<String>(&[]).is_empty());
    }

    /// Collision contract: a hash collision merges the colliding tokens
    /// into one set element — identical to how a *duplicate* token behaves
    /// — and never breaks the sorted/dedup invariant. Real FNV-1a 64
    /// collisions are infeasible to construct, so the collision is forced
    /// by feeding the kernels hash arrays in which distinct upstream
    /// tokens were assigned the same hash.
    #[test]
    fn forced_collision_merges_tokens_in_set_kernels() {
        // Side A held three distinct tokens, two of which collided on 9.
        let a = vec![5u64, 9];
        let b = vec![9u64];
        // The merged element intersects once; |A| counts it once.
        assert_eq!(jaccard_sorted(&a, &b), 0.5);
        assert_eq!(overlap_sorted(&a, &b), 1.0);
        assert_eq!(dice_sorted(&a, &b), 2.0 / 3.0);
        // Identical to the duplicate-token case by construction:
        let dup = sorted_token_hashes(&["x", "y", "y"]);
        assert_eq!(dup.len(), 2);
    }

    #[test]
    fn forced_collision_sums_weights_in_sorted_weights() {
        use crate::weight::SortedWeights;
        // Two distinct tokens collided on hash 42 with weights 1 and 2.
        let w = SortedWeights::from_hashed_entries(vec![(42, 1.0), (7, 1.0), (42, 2.0)]);
        assert_eq!(
            w.entries(),
            &[(7, 1.0), (42, 3.0)],
            "mass summed, order kept"
        );
        let other = SortedWeights::from_hashed_entries(vec![(42, 3.0)]);
        assert!((weighted_jaccard_sorted(&w, &other) - 3.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn jaccard_basics() {
        assert_eq!(jaccard(&toks("a b c"), &toks("a b c")), 1.0);
        assert_eq!(jaccard(&toks("a b"), &toks("c d")), 0.0);
        assert!((jaccard(&toks("a b c"), &toks("b c d")) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard::<String>(&[], &[]), 1.0);
        assert_eq!(jaccard(&toks("a"), &[] as &[String]), 0.0);
    }

    #[test]
    fn overlap_and_dice() {
        let (a, b) = (toks("a b c d"), toks("a b"));
        assert_eq!(overlap_coefficient(&a, &b), 1.0);
        assert!((dice(&a, &b) - 2.0 * 2.0 / 6.0).abs() < 1e-12);
        assert!((cosine_sets(&a, &b) - 2.0 / (8.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn weighted_jaccard_favours_heavy_overlap() {
        let mut a = WeightedTokens::new();
        a.insert("rare".into(), 10.0);
        a.insert("tv".into(), 1.0);
        let mut b = WeightedTokens::new();
        b.insert("rare".into(), 10.0);
        b.insert("black".into(), 1.0);
        let wj = weighted_jaccard(&a, &b);
        assert!(wj > 0.8, "heavy shared token dominates: {wj}");
        let uj = jaccard(&["rare", "tv"], &["rare", "black"]);
        assert!(wj > uj);
    }

    #[test]
    fn weighted_cosine_bounds() {
        let mut a = WeightedTokens::new();
        a.insert("x".into(), 2.0);
        assert_eq!(weighted_cosine(&a, &a), 1.0);
        let b = WeightedTokens::new();
        assert_eq!(weighted_cosine(&a, &b), 0.0);
        assert_eq!(weighted_cosine(&b, &b), 1.0);
    }

    #[test]
    fn oversized_work_buffer_is_released() {
        let a: Vec<char> = "ab".repeat(KEEP_WORDS).chars().collect();
        let mut b = a.clone();
        b[7] = 'z';
        assert_eq!(levenshtein_bounded_chars(&a, &b, 2), Some(1));
        assert_eq!(WORK.with(|s| s.borrow().len()), 0);
        assert_eq!(levenshtein_bounded_chars(&a[..100], &b[..100], 2), Some(1));
        assert!(WORK.with(|s| s.borrow().len()) <= KEEP_WORDS);
    }

    #[test]
    fn levenshtein_known_values() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
    }

    /// The banded DP at both band edges: `max == d` must return the exact
    /// distance, `max == d − 1` must bail — including on multi-byte
    /// (unicode) inputs where char and byte lengths diverge.
    #[test]
    fn bounded_band_edges() {
        for (a, b) in [
            ("kitten", "sitting"),
            ("naïve", "naive"),
            ("héllo wörld", "hello world"),
            ("ベータマックス", "ベーターマックス"),
            ("", "abc"),
        ] {
            let d = levenshtein(a, b);
            assert_eq!(
                levenshtein_bounded(a, b, d),
                Some(d),
                "{a:?} vs {b:?} at max=d"
            );
            assert_eq!(
                levenshtein_bounded(a, b, d + 1),
                Some(d),
                "{a:?} vs {b:?} at max=d+1"
            );
            if d > 0 {
                assert_eq!(
                    levenshtein_bounded(a, b, d - 1),
                    None,
                    "{a:?} vs {b:?} at max=d-1"
                );
            }
        }
    }

    /// `levenshtein_similarity_exceeds` at thresholds sitting *exactly* on
    /// achievable similarity values — the `>` vs `>=` boundary.
    #[test]
    fn exceeds_is_strict_at_achievable_thresholds() {
        let (a, b) = ("kitten", "sitting"); // d = 3, maxlen = 7
        let s = levenshtein_similarity(a, b);
        assert!(
            !levenshtein_similarity_exceeds(a, b, s),
            "strictly-greater: ties fail"
        );
        assert!(levenshtein_similarity_exceeds(a, b, s - 1e-9));
        assert!(!levenshtein_similarity_exceeds(a, b, 1.0));
        assert!(levenshtein_similarity_exceeds("", "", 0.9));
        assert!(!levenshtein_similarity_exceeds(a, b, f64::NAN));
    }

    #[test]
    fn bounded_levenshtein_agrees_or_bails() {
        for (a, b) in [
            ("kitten", "sitting"),
            ("abc", "abc"),
            ("a", "xyz"),
            ("", ""),
        ] {
            let d = levenshtein(a, b);
            for max in 0..6 {
                let got = levenshtein_bounded(a, b, max);
                if d <= max {
                    assert_eq!(got, Some(d), "{a} {b} max={max}");
                } else {
                    assert_eq!(got, None, "{a} {b} max={max}");
                }
            }
        }
    }

    #[test]
    fn jaro_known_values() {
        assert!((jaro("martha", "marhta") - 0.944444).abs() < 1e-4);
        assert!((jaro("dixon", "dicksonx") - 0.766667).abs() < 1e-4);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
        assert!((jaro_winkler("martha", "marhta") - 0.961111).abs() < 1e-4);
    }

    #[test]
    fn monge_elkan_containment() {
        let a = toks("sony bravia");
        let b = toks("sony bravia kdl 40 lcd tv");
        let me = monge_elkan(&a, &b, exact);
        assert_eq!(me, 1.0); // every token of a appears in b
        let sym = monge_elkan_sym(&a, &b, exact);
        assert!(sym < 1.0); // …but not vice versa
    }

    #[test]
    fn relative_numeric_similarity() {
        assert_eq!(relative_numeric(100.0, 100.0), 1.0);
        assert!((relative_numeric(100.0, 90.0) - 0.9).abs() < 1e-12);
        assert_eq!(relative_numeric(0.0, 0.0), 1.0);
        assert_eq!(relative_numeric(0.0, 5.0), 0.0);
    }

    proptest! {
        /// The sorted-hash kernels agree with the old `HashSet<&str>`
        /// implementations **bit for bit** — same intersection and set
        /// sizes, so the same float divisions — across random token
        /// vectors including empty sets and multi-byte unicode tokens.
        #[test]
        fn sorted_kernels_match_hashset_reference_bit_exactly(
            a in proptest::collection::vec("[a-cé本]{0,3}", 0..8),
            b in proptest::collection::vec("[a-cé本]{0,3}", 0..8),
        ) {
            for (new, old) in [
                (jaccard::<String> as fn(&[String], &[String]) -> f64, ref_jaccard::<String> as fn(&[String], &[String]) -> f64),
                (overlap_coefficient::<String>, ref_overlap::<String>),
                (dice::<String>, ref_dice::<String>),
                (cosine_sets::<String>, ref_cosine::<String>),
            ] {
                prop_assert_eq!(new(&a, &b).to_bits(), old(&a, &b).to_bits());
            }
        }

        /// Uniform weights make the weighted sorted kernel collapse to the
        /// plain set kernel, bit for bit (min/max of unit weights count
        /// exactly like set membership).
        #[test]
        fn uniform_sorted_weights_equal_set_jaccard(
            a in proptest::collection::vec("[a-d]{0,3}", 0..8),
            b in proptest::collection::vec("[a-d]{0,3}", 0..8),
        ) {
            use crate::weight::{uniform_weights, SortedWeights};
            let wa = SortedWeights::from_weighted(&uniform_weights(&a));
            let wb = SortedWeights::from_weighted(&uniform_weights(&b));
            prop_assert_eq!(
                weighted_jaccard_sorted(&wa, &wb).to_bits(),
                jaccard(&a, &b).to_bits()
            );
        }

        /// The sorted weighted kernels match the `HashMap` versions to
        /// summation-order tolerance for every weighting's value range.
        #[test]
        fn sorted_weighted_kernels_match_hashmap_reference(
            a in proptest::collection::vec("[a-d]{1,3}", 0..8),
            b in proptest::collection::vec("[a-d]{1,3}", 0..8),
        ) {
            use crate::weight::{tf_weights, SortedWeights};
            let (ma, mb) = (tf_weights(&a), tf_weights(&b));
            let (sa, sb) = (SortedWeights::from_weighted(&ma), SortedWeights::from_weighted(&mb));
            prop_assert!((weighted_jaccard_sorted(&sa, &sb) - weighted_jaccard(&ma, &mb)).abs() < 1e-12);
            prop_assert!((weighted_cosine_sorted(&sa, &sb) - weighted_cosine(&ma, &mb)).abs() < 1e-12);
        }

        /// The banded threshold decision is exactly `similarity > t`, for
        /// arbitrary thresholds including out-of-range ones.
        #[test]
        fn exceeds_matches_similarity_comparison(
            a in "[abé]{0,8}",
            b in "[abé]{0,8}",
            t in -0.5f64..1.5,
        ) {
            prop_assert_eq!(
                levenshtein_similarity_exceeds(&a, &b, t),
                levenshtein_similarity(&a, &b) > t
            );
            // And at every achievable similarity value exactly.
            let maxlen = a.chars().count().max(b.chars().count());
            for d in 0..=maxlen {
                let t = 1.0 - d as f64 / maxlen as f64;
                prop_assert_eq!(
                    levenshtein_similarity_exceeds(&a, &b, t),
                    levenshtein_similarity(&a, &b) > t
                );
            }
        }

        /// All set measures stay in [0,1], are symmetric, and are 1 on
        /// identical inputs.
        #[test]
        fn set_measure_invariants(
            a in proptest::collection::vec("[a-c]{1,3}", 0..6),
            b in proptest::collection::vec("[a-c]{1,3}", 0..6),
        ) {
            for f in [jaccard::<String>, overlap_coefficient::<String>, dice::<String>, cosine_sets::<String>] {
                let s = f(&a, &b);
                prop_assert!((0.0..=1.0).contains(&s));
                prop_assert!((f(&b, &a) - s).abs() < 1e-12);
                prop_assert!((f(&a, &a) - 1.0).abs() < 1e-12);
            }
        }

        /// Levenshtein is a metric: symmetry, identity, triangle
        /// inequality.
        #[test]
        fn levenshtein_is_a_metric(
            a in "[ab]{0,8}",
            b in "[ab]{0,8}",
            c in "[ab]{0,8}",
        ) {
            prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
            prop_assert_eq!(levenshtein(&a, &a), 0);
            prop_assert!(
                levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c)
            );
        }

        /// The bounded variant agrees with the exact one whenever it
        /// returns a value — on strings several times longer than the
        /// band, so rows far past its start are exercised.
        #[test]
        fn bounded_matches_exact(
            a in "[abc]{0,48}",
            b in "[abc]{0,48}",
            max in 0usize..12,
        ) {
            let exact_d = levenshtein(&a, &b);
            match levenshtein_bounded(&a, &b, max) {
                Some(d) => prop_assert_eq!(d, exact_d),
                None => prop_assert!(exact_d > max),
            }
        }

        /// The char-slice Levenshtein kernels equal the pre-kernel
        /// versions exactly, for every band width — including bands far
        /// narrower than the strings and non-ASCII input.
        #[test]
        fn levenshtein_kernels_match_oracle(
            a in "[abé本 ]{0,40}",
            b in "[abé本 ]{0,40}",
            max in 0usize..48,
        ) {
            prop_assert_eq!(levenshtein(&a, &b), oracle::levenshtein(&a, &b));
            prop_assert_eq!(
                levenshtein_bounded(&a, &b, max),
                oracle::levenshtein_bounded(&a, &b, max)
            );
        }

        /// Jaro and Jaro-Winkler over char slices equal the pre-kernel
        /// versions bit for bit, across the 64-char flag-word boundary.
        #[test]
        fn jaro_kernels_match_oracle_bit_exactly(
            a in "[abcé本]{0,80}",
            b in "[abcé本]{0,80}",
        ) {
            prop_assert_eq!(jaro(&a, &b).to_bits(), oracle::jaro(&a, &b).to_bits());
            prop_assert_eq!(
                jaro_winkler(&a, &b).to_bits(),
                oracle::jaro_winkler(&a, &b).to_bits()
            );
        }

        /// Jaro and Jaro-Winkler are symmetric bit for bit — what lets
        /// the Monge-Elkan kernel score each token pair once.
        #[test]
        fn jaro_is_symmetric_bit_exactly(
            a in "[abc本]{0,12}",
            b in "[abc本]{0,12}",
        ) {
            prop_assert_eq!(jaro(&a, &b).to_bits(), jaro(&b, &a).to_bits());
            prop_assert_eq!(jaro_winkler(&a, &b).to_bits(), jaro_winkler(&b, &a).to_bits());
            prop_assert_eq!(
                oracle::jaro_winkler(&a, &b).to_bits(),
                oracle::jaro_winkler(&b, &a).to_bits()
            );
        }

        /// Monge-Elkan with Jaro-Winkler over token chars equals the
        /// pre-kernel `&str` version bit for bit, in both directions.
        #[test]
        fn monge_elkan_kernel_matches_oracle_bit_exactly(
            a in proptest::collection::vec("[abcé本]{0,6}", 0..6),
            b in proptest::collection::vec("[abcé本]{0,6}", 0..6),
        ) {
            let want = oracle::monge_elkan(&a, &b).min(oracle::monge_elkan(&b, &a));
            let got = monge_elkan_jaro_winkler(&TokenChars::new(&a), &TokenChars::new(&b));
            prop_assert_eq!(got.to_bits(), want.to_bits());
            prop_assert_eq!(
                monge_elkan_sym(&a, &b, jaro_winkler).to_bits(),
                want.to_bits()
            );
        }

        /// Jaro(-Winkler) stays in [0,1] and is 1 on equal strings.
        #[test]
        fn jaro_bounds(a in "[a-d]{0,8}", b in "[a-d]{0,8}") {
            let j = jaro(&a, &b);
            prop_assert!((0.0..=1.0).contains(&j));
            let jw = jaro_winkler(&a, &b);
            prop_assert!((0.0..=1.0).contains(&jw));
            prop_assert!(jw >= j - 1e-12);
            prop_assert!((jaro(&a, &a) - 1.0).abs() < 1e-12);
        }
    }
}
