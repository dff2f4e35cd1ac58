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
// The kernels work on char slices and are bit-parallel over a
// pattern-match table: for one string, each char's occurrence bitmask,
// ⌈len/64⌉ words per char. Levenshtein is Hyyrö's (2003) block form of
// Myers' (1999) bit-vector algorithm over the shorter string's table; Jaro
// takes, for each char of `a`, the lowest free in-window bit of `b`'s
// table. The `&str` functions collect chars and call them; callers that
// score one string against many (prepared columns, prepared LF state)
// collect once per record.
//
// Table rows, bit vectors and match flags live in a per-thread scratch that
// grows to the longest input its thread has seen (up to `KEEP_WORDS` per
// buffer). Every kernel initialises what it reads, so nothing one call
// leaves in the scratch reaches the next.

/// Per-thread kernel scratch (see the section comment).
#[derive(Default)]
struct Scratch {
    /// Pattern-match table rows of `words` words each: rows 0–127 are the
    /// ASCII chars, row [`ABSENT`] stays zero for chars the string lacks,
    /// and the rows after it belong to the non-ASCII chars in `side`.
    table: Vec<u64>,
    /// The string's distinct non-ASCII chars, ascending.
    side: Vec<char>,
    /// Levenshtein's vertical delta vectors; Jaro's match flags.
    bits: Vec<u64>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::new(Scratch::default());
}

/// Words (512 KiB) each scratch buffer keeps between calls. A call needing
/// more — a table over a string past ~32k chars — frees the scratch when
/// it returns, so one huge input does not pin memory on every thread.
const KEEP_WORDS: usize = 1 << 16;

/// The all-zero table row that chars absent from the string read.
const ABSENT: usize = 128;

/// Cells (8 MiB of `f64`) a Monge-Elkan token-vocabulary matrix may hold.
/// A prepared Monge-Elkan LF scores its left × right token vocabularies
/// once (with [`jaro_winkler_many`]) only when that takes no more kernels
/// than its candidates' token pairs and fits here; past this cap its votes
/// take the per-pair kernel whatever the token counts.
pub const VOCAB_MATRIX_CELLS: usize = 1 << 20;

/// Run `f` on this thread's scratch. Kernels never nest scratch borrows.
fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut s = cell.borrow_mut();
        let out = f(&mut s);
        if s.table
            .capacity()
            .max(s.bits.capacity())
            .max(s.side.capacity())
            > KEEP_WORDS
        {
            *s = Scratch::default();
        }
        out
    })
}

/// A built pattern-match table: bit `i` of a char's row is set iff the
/// string's char `i` is that char.
struct Table<'s> {
    rows: &'s [u64],
    side: &'s [char],
    words: usize,
}

impl Table<'_> {
    /// Index of the first word of `c`'s row.
    #[inline]
    fn row_start(&self, c: char) -> usize {
        let r = if c.is_ascii() {
            c as usize
        } else {
            self.side
                .binary_search(&c)
                .map_or(ABSENT, |k| ABSENT + 1 + k)
        };
        r * self.words
    }

    /// `c`'s row.
    #[inline]
    fn row(&self, c: char) -> &[u64] {
        let start = self.row_start(c);
        &self.rows[start..start + self.words]
    }

    /// Bits `start..start + 64` of `c`'s row (zero past its end).
    #[inline]
    fn bits_from(&self, c: char, start: usize) -> u64 {
        let (w, shift) = (start / 64, start % 64);
        let word = self.row_start(c) + w;
        let high = if shift > 0 && w + 1 < self.words {
            self.rows[word + 1] << (64 - shift)
        } else {
            0
        };
        self.rows[word] >> shift | high
    }
}

/// Build `s`'s pattern-match table in `words` words per row (at least
/// ⌈|s|/64⌉) in `table` and `side`, clearing every row first.
fn build_table<'s>(
    s: &[char],
    words: usize,
    table: &'s mut Vec<u64>,
    side: &'s mut Vec<char>,
) -> Table<'s> {
    table.clear();
    table.resize((ABSENT + 1) * words, 0);
    side.clear();
    for (i, &c) in s.iter().enumerate() {
        if c.is_ascii() {
            table[c as usize * words + i / 64] |= 1 << (i % 64);
        } else {
            side.push(c);
        }
    }
    if !side.is_empty() {
        side.sort_unstable();
        side.dedup();
        table.resize((ABSENT + 1 + side.len()) * words, 0);
        for (i, c) in s.iter().enumerate() {
            if let Ok(k) = side.binary_search(c) {
                table[(ABSENT + 1 + k) * words + i / 64] |= 1 << (i % 64);
            }
        }
    }
    Table {
        rows: table,
        side,
        words,
    }
}

/// Bits of word `w` that lie in `[lo, hi)`; the range must meet the word.
#[inline]
fn word_mask(w: usize, lo: usize, hi: usize) -> u64 {
    let start = lo.max(w * 64) - w * 64;
    let end = hi.min(w * 64 + 64) - w * 64;
    (!0u64 >> (64 - (end - start))) << start
}

fn chars(s: &str) -> Vec<char> {
    s.chars().collect()
}

/// Levenshtein edit distance (unit costs).
pub fn levenshtein(a: &str, b: &str) -> usize {
    levenshtein_chars(&chars(a), &chars(b))
}

/// [`levenshtein`] over char slices.
pub fn levenshtein_chars(a: &[char], b: &[char]) -> usize {
    let (p, t) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    with_scratch(|s| levenshtein_kernel(p, t, s))
}

/// One text-char step of one 64-row block of Myers' algorithm in Hyyrö's
/// block form: advance the block's vertical deltas `pv`/`mv` (bit `i` set:
/// +1/−1 from row `i` to `i + 1`) given the char's match bits `eq` and the
/// horizontal delta entering the block's top row (`hp` = +1, `hm` = −1, as
/// bit 0). Returns the block's horizontal deltas before the shift: bit `i`
/// of the pair is the delta on row `i + 1`.
#[inline(always)]
fn advance_block(eq: u64, pv: &mut u64, mv: &mut u64, hp: u64, hm: u64) -> (u64, u64) {
    let xv = eq | *mv;
    let eq = eq | hm;
    let xh = ((eq & *pv).wrapping_add(*pv) ^ *pv) | eq;
    let ph = *mv | !(xh | *pv);
    let mh = *pv & xh;
    let (sp, sm) = (ph << 1 | hp, mh << 1 | hm);
    *pv = sm | !(xv | sp);
    *mv = sp & xv;
    (ph, mh)
}

/// The distance of pattern `p` and text `t` (`|p| ≤ |t|`): one column of
/// ⌈|p|/64⌉ blocks per char of `t` over `p`'s pattern-match table,
/// tracking the bottom row's value `D[|p|][j]`.
fn levenshtein_kernel(p: &[char], t: &[char], s: &mut Scratch) -> usize {
    let m = p.len();
    if m == 0 {
        return t.len();
    }
    let words = m.div_ceil(64);
    let table = build_table(p, words, &mut s.table, &mut s.side);
    let bottom = 1u64 << ((m - 1) % 64);
    let mut dist = m;
    // Row 0 is D[0][j] = j: +1 enters the top block on every column.
    if words == 1 {
        let (mut pv, mut mv) = (!0u64, 0u64);
        for &c in t {
            let (ph, mh) = advance_block(table.row(c)[0], &mut pv, &mut mv, 1, 0);
            dist += usize::from(ph & bottom != 0);
            dist -= usize::from(mh & bottom != 0);
        }
        return dist;
    }
    s.bits.clear();
    s.bits.resize(2 * words, 0);
    let (pv, mv) = s.bits.split_at_mut(words);
    pv.fill(!0);
    for &c in t {
        let row = table.row(c);
        let (mut hp, mut hm) = (1u64, 0u64);
        let (mut ph, mut mh) = (0u64, 0u64);
        for ((&eq, pv), mv) in row.iter().zip(pv.iter_mut()).zip(mv.iter_mut()) {
            (ph, mh) = advance_block(eq, pv, mv, hp, hm);
            (hp, hm) = (ph >> 63, mh >> 63);
        }
        dist += usize::from(ph & bottom != 0);
        dist -= usize::from(mh & bottom != 0);
    }
    dist
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

/// Jaro similarity.
pub fn jaro(a: &str, b: &str) -> f64 {
    jaro_chars(&chars(a), &chars(b))
}

/// [`jaro`] over char slices, on `b`'s pattern-match table.
pub fn jaro_chars(a: &[char], b: &[char]) -> f64 {
    with_scratch(|s| {
        let words = b.len().div_ceil(64);
        let table = build_table(b, words, &mut s.table, &mut s.side);
        s.bits.clear();
        s.bits.resize(words + a.len().div_ceil(64), 0);
        let (b_used, a_used) = s.bits.split_at_mut(words);
        jaro_kernel(a, b, 0..b.len(), &table, b_used, a_used)
    })
}

/// Jaro-Winkler similarity with the standard prefix scale 0.1, prefix ≤ 4.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    jaro_winkler_chars(&chars(a), &chars(b))
}

/// [`jaro_winkler`] over char slices.
pub fn jaro_winkler_chars(a: &[char], b: &[char]) -> f64 {
    winkler_boost(jaro_chars(a, b), a, b)
}

/// Jaro-Winkler of every string in `a` against `b`: `out[i]` is
/// `jaro_winkler_chars(a[i], b)` bit for bit. One pattern-match table over
/// `b` serves all of `a` — how a Monge-Elkan vocabulary matrix scores one
/// right token against the whole left vocabulary.
///
/// # Panics
///
/// When `out` and `a` differ in length.
pub fn jaro_winkler_many(a: &[&[char]], b: &[char], out: &mut [f64]) {
    assert_eq!(a.len(), out.len(), "one output per string of `a`");
    with_scratch(|s| {
        let words = b.len().div_ceil(64);
        let table = build_table(b, words, &mut s.table, &mut s.side);
        let longest = a.iter().map(|t| t.len()).max().unwrap_or(0);
        s.bits.clear();
        s.bits.resize(words + longest.div_ceil(64), 0);
        let (b_used, a_used) = s.bits.split_at_mut(words);
        for (ta, out) in a.iter().zip(out) {
            let j = jaro_kernel(ta, b, 0..b.len(), &table, b_used, a_used);
            *out = winkler_boost(j, ta, b);
        }
    })
}

/// Jaro-Winkler from Jaro `j`: the common prefix of `a` and `b` (≤ 4
/// chars) scaled by 0.1.
#[inline]
fn winkler_boost(j: f64, a: &[char], b: &[char]) -> f64 {
    let prefix = a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count() as f64;
    (j + prefix * 0.1 * (1.0 - j)).clamp(0.0, 1.0)
}

/// Jaro of `a` and `b[span]`, where `table` is the pattern-match table of
/// all of `b` and `b_used` has a bit per char of `b` (bits outside `span`
/// are neither read nor written). `a_used` has a bit per char of `a`.
///
/// Each char of `a`, in order, takes the lowest in-window position of `b`
/// holding the same char and not yet taken — the first-free match of the
/// classic window scan — so matches, transpositions and the float
/// expression are the scan's, bit for bit. Symmetric bit for bit: per
/// character, the greedy window matching is the same two-pointer walk over
/// that character's positions whichever side leads, so both directions
/// match the same position pairs, count the same transpositions, and add
/// the same two terms.
fn jaro_kernel(
    a: &[char],
    b: &[char],
    span: std::ops::Range<usize>,
    table: &Table<'_>,
    b_used: &mut [u64],
    a_used: &mut [u64],
) -> f64 {
    let (la, lb) = (a.len(), span.len());
    if la == 0 && lb == 0 {
        return 1.0;
    }
    if la == 0 || lb == 0 {
        return 0.0;
    }
    let window = (la.max(lb) / 2).saturating_sub(1);
    if la <= 64 && lb <= 64 {
        return jaro_one_word(a, b, span.start, lb, window, table);
    }
    let first = span.start / 64;
    for (w, used) in (first..).zip(&mut b_used[first..=(span.end - 1) / 64]) {
        *used &= !word_mask(w, span.start, span.end);
    }
    a_used[..la.div_ceil(64)].fill(0);
    let mut matches = 0usize;
    for (i, &c) in a.iter().enumerate() {
        let lo = span.start + i.saturating_sub(window);
        let hi = span.start + (i + window + 1).min(lb);
        if lo >= hi {
            continue;
        }
        let row = table.row(c);
        for w in lo / 64..=(hi - 1) / 64 {
            let free = row[w] & !b_used[w] & word_mask(w, lo, hi);
            if free != 0 {
                b_used[w] |= free & free.wrapping_neg();
                a_used[i / 64] |= 1 << (i % 64);
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
    let mut w = span.start / 64;
    let mut taken = b_used[w] & word_mask(w, span.start, span.end);
    for (i, &c) in a.iter().enumerate() {
        if a_used[i / 64] >> (i % 64) & 1 == 0 {
            continue;
        }
        while taken == 0 {
            w += 1;
            taken = b_used[w] & word_mask(w, span.start, span.end);
        }
        let j = w * 64 + taken.trailing_zeros() as usize;
        taken &= taken - 1;
        transpositions += usize::from(c != b[j]);
    }
    let t = transpositions as f64 / 2.0;
    let m = matches as f64;
    (m / la as f64 + m / lb as f64 + (m - t) / m) / 3.0
}

/// [`jaro_kernel`] when `a` and `b[start..start + lb]` both fit one word:
/// the match flags stay in registers, and `b`'s rows are read shifted to
/// its span. Nearly every Monge-Elkan token pair takes this path, which
/// keeps Monge-Elkan as fast as the window scan it replaced.
#[inline]
fn jaro_one_word(
    a: &[char],
    b: &[char],
    start: usize,
    lb: usize,
    window: usize,
    table: &Table<'_>,
) -> f64 {
    let (mut a_used, mut b_used) = (0u64, 0u64);
    let mut matches = 0usize;
    for (i, &c) in a.iter().enumerate() {
        let (lo, hi) = (i.saturating_sub(window), (i + window + 1).min(lb));
        if lo >= hi {
            continue;
        }
        let free = table.bits_from(c, start) & !b_used & word_mask(0, lo, hi);
        if free != 0 {
            b_used |= free & free.wrapping_neg();
            a_used |= 1 << i;
            matches += 1;
        }
    }
    if matches == 0 {
        return 0.0;
    }
    let mut transpositions = 0usize;
    while a_used != 0 {
        let (i, j) = (a_used.trailing_zeros(), b_used.trailing_zeros());
        transpositions += usize::from(a[i as usize] != b[start + j as usize]);
        a_used &= a_used - 1;
        b_used &= b_used - 1;
    }
    let t = transpositions as f64 / 2.0;
    let m = matches as f64;
    (m / a.len() as f64 + m / lb as f64 + (m - t) / m) / 3.0
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
        &self.chars[self.span(i)]
    }

    /// Char range of token `i` in the concatenation.
    fn span(&self, i: usize) -> std::ops::Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        start..self.ends[i] as usize
    }

    /// Chars in the longest token.
    fn longest(&self) -> usize {
        (0..self.len())
            .map(|i| self.span(i).len())
            .max()
            .unwrap_or(0)
    }
}

/// Token lists whose column bests [`monge_elkan_fold`] keeps on the stack.
const STACK_TOKENS: usize = 64;

/// Symmetrised Monge-Elkan of an `la`-token list `a` and an `lb`-token
/// list `b`, folded from `score(i, j)`, the inner similarity of `a`'s
/// token `i` and `b`'s token `j`: `min(ME(a, b), ME(b, a))`. Each pair is
/// scored once, in row order, and feeds both directions — its row's best
/// for `ME(a, b)` and its column's best for `ME(b, a)`, each folded in the
/// order the two-pass [`monge_elkan_sym`] folds it. The one fold behind
/// [`monge_elkan_jaro_winkler`] and every other Monge-Elkan score source
/// (a prepared LF's vocabulary matrix), so they agree bit for bit when
/// their `score`s do.
pub fn monge_elkan_fold(la: usize, lb: usize, mut score: impl FnMut(usize, usize) -> f64) -> f64 {
    if la == 0 || lb == 0 {
        return if la == 0 && lb == 0 { 1.0 } else { 0.0 };
    }
    let mut stack = [0.0f64; STACK_TOKENS];
    let mut heap = Vec::new();
    let col_best = if lb <= STACK_TOKENS {
        &mut stack[..lb]
    } else {
        heap.resize(lb, 0.0f64);
        &mut heap[..]
    };
    let mut total_a = 0.0;
    for i in 0..la {
        let mut best = 0.0f64;
        for (j, col) in col_best.iter_mut().enumerate() {
            let s = score(i, j);
            best = best.max(s);
            *col = col.max(s);
        }
        total_a += best;
    }
    let total_b = col_best.iter().fold(0.0, |acc, &c| acc + c);
    (total_a / la as f64).min(total_b / lb as f64)
}

/// Symmetrised Monge-Elkan with Jaro-Winkler inner similarity over token
/// lists: `monge_elkan_sym(a, b, jaro_winkler)` on the same tokens, bit for
/// bit. One pattern-match table over `b`'s concatenated tokens serves
/// every token pair, and Jaro-Winkler is symmetric bit for bit, so
/// [`monge_elkan_fold`] scores each token pair once for both directions.
pub fn monge_elkan_jaro_winkler(a: &TokenChars, b: &TokenChars) -> f64 {
    with_scratch(|s| {
        let words = b.chars.len().div_ceil(64);
        let table = build_table(&b.chars, words, &mut s.table, &mut s.side);
        s.bits.clear();
        s.bits.resize(words + a.longest().div_ceil(64), 0);
        let (b_used, a_used) = s.bits.split_at_mut(words);
        monge_elkan_fold(a.len(), b.len(), |i, j| {
            let (ta, span) = (a.token(i), b.span(j));
            let tb = &b.chars[span.clone()];
            let jw = jaro_kernel(ta, &b.chars, span, &table, b_used, a_used);
            winkler_boost(jw, ta, tb)
        })
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

    fn oracle_levenshtein_similarity(a: &str, b: &str, d: usize) -> f64 {
        let maxlen = a.chars().count().max(b.chars().count());
        if maxlen == 0 {
            1.0
        } else {
            1.0 - d as f64 / maxlen as f64
        }
    }

    /// `s` with each edit `(position, kind, char)` applied in turn:
    /// substitute, insert or delete one char.
    fn near_duplicate(s: &str, edits: &[(usize, usize, String)]) -> String {
        let mut chars: Vec<char> = s.chars().collect();
        for (pos, kind, c) in edits {
            let c = c.chars().next().expect("one char");
            let i = pos % (chars.len() + 1);
            match (kind, i < chars.len()) {
                (0, true) => chars[i] = c,
                (1, _) => chars.insert(i, c),
                (_, true) => {
                    chars.remove(i);
                }
                _ => {}
            }
        }
        chars.into_iter().collect()
    }

    /// Pairs of 0–200-char strings (1–4 table words): unrelated draws
    /// over a two-letter, an ASCII or a non-ASCII alphabet, or a draw and
    /// a near-duplicate of it (up to five one-char edits).
    fn string_pairs() -> BoxedStrategy<(String, String)> {
        let near = (
            "[abcé本 ]{0,200}",
            proptest::collection::vec((0usize..256, 0usize..3, "[abé本]"), 0..6),
        )
            .prop_map(|(s, edits)| {
                let t = near_duplicate(&s, &edits);
                (s, t)
            });
        prop_oneof![
            ("[ab]{0,200}", "[ab]{0,200}"),
            ("[a-e ]{0,200}", "[a-e ]{0,200}"),
            ("[abé本]{0,200}", "[abé本]{0,200}"),
            near,
        ]
        .boxed()
    }

    /// Token lists of up to 6 and up to 24 tokens, ASCII or not, lists of
    /// 65–80 tokens (past the fold's stack of column bests), and lists of
    /// tokens up to 90 chars long, so a token pair can pass one word.
    /// The last draw puts such a token late in `b`'s concatenation, where
    /// only a window measured from the token's own start keeps `a`'s
    /// trailing `a`s away from `b`'s leading ones.
    fn token_pairs() -> BoxedStrategy<(Vec<String>, Vec<String>)> {
        use proptest::collection::vec;
        let late = (0usize..120, 65usize..100, 1usize..30).prop_map(|(lead, c, x)| {
            let a = vec!["c".repeat(c) + &"a".repeat(x)];
            (a, vec!["z".repeat(lead), "a".repeat(x) + &"c".repeat(c)])
        });
        prop_oneof![
            (vec("[abc]{0,6}", 0..6), vec("[abc]{0,12}", 0..24)),
            (vec("[abcé本]{0,6}", 0..6), vec("[abcé本]{0,12}", 0..24)),
            (vec("[abcé本]{0,12}", 0..24), vec("[abcé本]{0,6}", 0..6)),
            (vec("[abc]{0,4}", 0..6), vec("[abcé]{1,4}", 65..80)),
            (vec("[abcé]{1,4}", 65..80), vec("[abc]{0,4}", 0..6)),
            (vec("[ab]{0,90}", 1..5), vec("[abé]{0,90}", 1..5)),
            late,
        ]
        .boxed()
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

    /// The largest scratch buffer this thread holds, in elements.
    fn scratch_capacity() -> usize {
        SCRATCH.with(|s| {
            let s = s.borrow();
            s.table
                .capacity()
                .max(s.bits.capacity())
                .max(s.side.capacity())
        })
    }

    #[test]
    fn oversized_work_buffer_is_released() {
        // A table over 33k chars has 129 rows of 516 words: past KEEP_WORDS.
        let a = "ab".repeat(16_500);
        let mut b: Vec<char> = a.chars().collect();
        b[7] = 'z';
        let b: String = b.into_iter().collect();
        assert_eq!(levenshtein(&a, &b), 1);
        assert_eq!(scratch_capacity(), 0);
        assert!(jaro_winkler("ab", &b) > 0.0);
        assert_eq!(scratch_capacity(), 0);
        assert_eq!(levenshtein(&a[..100], &b[..100]), 1);
        assert!(jaro_winkler(&a[..100], &b[..100]) > 0.9);
        assert!(scratch_capacity() > 0 && scratch_capacity() <= KEEP_WORDS);
    }

    #[test]
    fn levenshtein_known_values() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
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

        /// Levenshtein equals the full-DP oracle on strings of 0–200
        /// chars (1–4 table words), over small alphabets, near-duplicates
        /// and non-ASCII input.
        #[test]
        fn levenshtein_kernels_match_oracle((a, b) in string_pairs()) {
            let d = oracle::levenshtein(&a, &b);
            prop_assert_eq!(levenshtein(&a, &b), d);
            prop_assert_eq!(
                levenshtein_similarity(&a, &b).to_bits(),
                oracle_levenshtein_similarity(&a, &b, d).to_bits()
            );
        }

        /// Jaro and Jaro-Winkler over the pattern-match table equal the
        /// window-scan oracle bit for bit on the same string pairs.
        #[test]
        fn jaro_kernels_match_oracle_bit_exactly((a, b) in string_pairs()) {
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

        /// Monge-Elkan with Jaro-Winkler over one table of `b`'s
        /// concatenated tokens equals the oracle bit for bit, in both
        /// directions — with up to 24 tokens on a side, so a side's
        /// concatenation passes 64 chars, with tokens past 64 chars, and
        /// over ASCII and non-ASCII tokens.
        #[test]
        fn monge_elkan_kernel_matches_oracle_bit_exactly((a, b) in token_pairs()) {
            let want = oracle::monge_elkan(&a, &b).min(oracle::monge_elkan(&b, &a));
            let got = monge_elkan_jaro_winkler(&TokenChars::new(&a), &TokenChars::new(&b));
            prop_assert_eq!(got.to_bits(), want.to_bits());
            prop_assert_eq!(
                monge_elkan_sym(&a, &b, jaro_winkler).to_bits(),
                want.to_bits()
            );
        }

        /// One table over `b` scoring a list of strings equals the oracle
        /// per string bit for bit — with strings of 0–200 chars in any
        /// order, so a long string's match flags precede a short one's.
        #[test]
        fn jaro_winkler_many_matches_oracle_bit_exactly(
            b in "[abcé本 ]{0,90}",
            a in proptest::collection::vec(
                prop_oneof!["[abcé本 ]{0,12}", "[abé]{60,200}", "[ab]{0,90}"],
                0..8,
            ),
        ) {
            let b_chars: Vec<char> = b.chars().collect();
            let a_chars: Vec<Vec<char>> = a.iter().map(|t| t.chars().collect()).collect();
            let slices: Vec<&[char]> = a_chars.iter().map(Vec::as_slice).collect();
            let mut out = vec![f64::NAN; a.len()];
            jaro_winkler_many(&slices, &b_chars, &mut out);
            for (t, got) in a.iter().zip(&out) {
                prop_assert_eq!(got.to_bits(), oracle::jaro_winkler(t, &b).to_bits(), "{:?}", t);
            }
        }

        /// The shared fold over a score matrix — `b`'s tokens by `a`'s,
        /// each column from one `jaro_winkler_many` table — equals the
        /// per-pair kernel and the oracle bit for bit.
        #[test]
        fn monge_elkan_fold_over_a_matrix_matches_the_kernel((a, b) in token_pairs()) {
            let (ta, tb) = (TokenChars::new(&a), TokenChars::new(&b));
            let left: Vec<&[char]> = (0..ta.len()).map(|i| ta.token(i)).collect();
            let mut matrix = vec![0.0; ta.len() * tb.len()];
            for (j, column) in matrix.chunks_exact_mut(ta.len().max(1)).enumerate() {
                jaro_winkler_many(&left, tb.token(j), column);
            }
            let folded = monge_elkan_fold(ta.len(), tb.len(), |i, j| matrix[j * ta.len() + i]);
            let want = oracle::monge_elkan(&a, &b).min(oracle::monge_elkan(&b, &a));
            prop_assert_eq!(folded.to_bits(), monge_elkan_jaro_winkler(&ta, &tb).to_bits());
            prop_assert_eq!(folded.to_bits(), want.to_bits());
        }

        /// Calls of different lengths and measures interleaved on one
        /// thread each equal their oracle: nothing one call leaves in the
        /// scratch (table rows, side chars, bit vectors, match flags)
        /// reaches the next.
        #[test]
        fn interleaved_kernels_match_oracles(
            calls in proptest::collection::vec((0usize..4, string_pairs()), 1..12),
        ) {
            for (measure, (a, b)) in &calls {
                match measure {
                    0 => prop_assert_eq!(levenshtein(a, b), oracle::levenshtein(a, b)),
                    1 => prop_assert_eq!(jaro(a, b).to_bits(), oracle::jaro(a, b).to_bits()),
                    2 => prop_assert_eq!(
                        jaro_winkler(a, b).to_bits(),
                        oracle::jaro_winkler(a, b).to_bits()
                    ),
                    _ => {
                        let (ta, tb) = (toks(a), toks(b));
                        let want = oracle::monge_elkan(&ta, &tb).min(oracle::monge_elkan(&tb, &ta));
                        let got = monge_elkan_jaro_winkler(&TokenChars::new(&ta), &TokenChars::new(&tb));
                        prop_assert_eq!(got.to_bits(), want.to_bits());
                    }
                }
            }
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
