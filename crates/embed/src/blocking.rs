//! Blocking strategies: embedding-LSH (the paper's), plus token blocking
//! and sorted neighbourhood as baselines for experiment E5.

use crate::embedding::{SparseVec, TupleEmbedder};
use crate::lsh::HyperplaneLsh;
use panda_table::{CandidatePair, CandidateSet, Record, RecordId, Schema, Table, TablePair};
use panda_text::preprocess::{apply_pipeline, standard_pipeline};
use panda_text::tokenize::Tokenizer;
use std::collections::{HashMap, HashSet};

/// The text blocking keys are built from: every non-missing attribute
/// *except* id-like columns. Surrogate ids are unique per row and often
/// systematically different between tables (`10042` vs `58731`), so
/// including them poisons sort keys and adds pure noise to token sets.
pub fn blocking_text(rec: &Record<'_>) -> String {
    let mut out = String::new();
    write_blocking_text(rec, &text_columns(rec.schema()), &mut out);
    out
}

/// Per column of `schema`: whether [`blocking_text`] reads it (it is not
/// id-like).
fn text_columns(schema: &Schema) -> Vec<bool> {
    schema
        .fields()
        .iter()
        .map(|field| {
            let lower = field.name.to_lowercase();
            !(lower == "id" || lower.ends_with("_id"))
        })
        .collect()
}

/// [`blocking_text`] into `out`, given the record's [`text_columns`].
fn write_blocking_text(rec: &Record<'_>, columns: &[bool], out: &mut String) {
    out.clear();
    for (&keep, value) in columns.iter().zip(rec.values()) {
        if !keep || value.is_missing() {
            continue;
        }
        if !out.is_empty() {
            out.push(' ');
        }
        match value.as_text() {
            Some(text) => out.push_str(text),
            None => out.push_str(&value.to_text()),
        }
    }
}

/// A blocking strategy: reduce `left × right` to a candidate set.
pub trait Blocker {
    /// Produce the candidate pairs for an EM task.
    fn candidates(&self, tables: &TablePair) -> CandidateSet;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------------
// Embedding + LSH (the paper's scheme)
// ---------------------------------------------------------------------------

/// The paper's blocking pipeline: embed every tuple, band-hash the
/// embeddings, and emit all left-right collisions. An optional cosine
/// floor prunes accidental collisions; an optional per-record cap bounds
/// worst-case candidate counts.
#[derive(Debug, Clone)]
pub struct EmbeddingLshBlocker {
    embedder: TupleEmbedder,
    bands: usize,
    bits_per_band: usize,
    seed: u64,
    /// Drop collisions whose embedding cosine falls below this.
    pub min_cosine: f32,
    /// Keep at most this many candidates per left record (by cosine).
    pub max_per_record: Option<usize>,
}

impl EmbeddingLshBlocker {
    /// Reasonable defaults: 256-dim embeddings, 24 bands × 6 bits, cosine
    /// floor 0.25. Wide-band/low-bit LSH over-generates collisions on
    /// purpose — the exact-cosine floor then prunes them — because recall
    /// lost at the LSH stage is unrecoverable while spurious collisions
    /// only cost a dot product each.
    pub fn new(seed: u64) -> Self {
        EmbeddingLshBlocker {
            embedder: TupleEmbedder::new(256),
            bands: 24,
            bits_per_band: 6,
            seed,
            min_cosine: 0.25,
            max_per_record: Some(32),
        }
    }

    /// Override LSH shape.
    pub fn with_lsh(mut self, bands: usize, bits_per_band: usize) -> Self {
        self.bands = bands;
        self.bits_per_band = bits_per_band;
        self
    }

    /// Override the embedder.
    pub fn with_embedder(mut self, embedder: TupleEmbedder) -> Self {
        self.embedder = embedder;
        self
    }

    /// [`Blocker::candidates`] plus the embedding cosine of each pair, in
    /// candidate order: the smart sampler's likelihood, without embedding
    /// the tables a second time.
    ///
    /// Each record is embedded once and kept sparse; its band keys are
    /// summed from its nonzero entries over plane-major hyperplanes, each
    /// band of the right table is one sorted `(key, record)` array, a stamp
    /// per right record dedups collisions, and a pair's cosine is a dot over
    /// the right record's nonzeros. Pairs, order and cosine bits equal those
    /// of dense embeddings, dense signatures, hash-map buckets and
    /// [`crate::cosine`] (DESIGN.md §12).
    pub fn candidates_with_cosines(&self, tables: &TablePair) -> (CandidateSet, Vec<f32>) {
        let _span = panda_obs::span("blocking.candidates");
        let lsh = HyperplaneLsh::new(
            self.embedder.dim(),
            self.bands,
            self.bits_per_band,
            self.seed,
        );
        let (left, right) = {
            let _span = panda_obs::span("blocking.embed_tables");
            (
                self.embed_and_sign(&tables.left, &lsh),
                self.embed_and_sign(&tables.right, &lsh),
            )
        };
        let buckets = BandBuckets::new(&right);

        // `reached[rid]` is 1 + the last left record that collided with
        // `rid`, so each pair is scored once however many bands it shares.
        let mut reached = vec![0u32; right.vecs.len()];
        let mut dense = vec![0.0f32; self.embedder.dim()];
        let mut collisions = 0u64;
        let mut kept: Vec<(f32, u32)> = Vec::new();
        let mut candidates = CandidateSet::new();
        let mut cosines = Vec::new();
        for (lid, lv) in left.vecs.iter().enumerate() {
            let stamp = lid as u32 + 1;
            lv.scatter(&mut dense);
            kept.clear();
            for (band, &key) in left.keys(lid).iter().enumerate() {
                for &rid in buckets.get(band, key) {
                    let last = &mut reached[rid as usize];
                    if *last == stamp {
                        continue;
                    }
                    *last = stamp;
                    collisions += 1;
                    let c = right.vecs[rid as usize].cosine_with(&dense, lv.sq_norm());
                    if c >= self.min_cosine {
                        kept.push((c, rid));
                    }
                }
            }
            lv.clear(&mut dense);
            // Per-record cap, keeping the highest-cosine candidates; the
            // stable sort keeps ties in first-seen (band, record) order.
            if let Some(cap) = self.max_per_record {
                if kept.len() > cap {
                    kept.sort_by(|a, b| b.0.total_cmp(&a.0));
                    kept.truncate(cap);
                }
            }
            // Deterministic order within a record.
            kept.sort_unstable_by_key(|&(_, rid)| rid);
            for &(c, rid) in &kept {
                candidates.push(CandidatePair::new(lid as u32, rid));
                cosines.push(c);
            }
        }
        panda_obs::counter_add("blocking.lsh_collisions", collisions);
        panda_obs::counter_add("blocking.candidates_emitted", candidates.len() as u64);
        (candidates, cosines)
    }

    /// Embed and sign every record of `table`, in parallel on the shared
    /// executor; output order is record order.
    fn embed_and_sign(&self, table: &Table, lsh: &HyperplaneLsh) -> SignedTable {
        let columns = text_columns(table.schema());
        let signed = panda_exec::par_map_range(table.len(), |i| {
            let rec = table
                .record(RecordId(i as u32))
                .expect("row index in range");
            let mut text = String::new();
            write_blocking_text(&rec, &columns, &mut text);
            let v = SparseVec::from_dense(&self.embedder.embed_text(&text));
            let mut keys = Vec::with_capacity(lsh.bands());
            lsh.sparse_signature(&v, &mut keys);
            (v, keys)
        });
        let (vecs, keys): (Vec<SparseVec>, Vec<Vec<u64>>) = signed.into_iter().unzip();
        SignedTable {
            vecs,
            keys: keys.concat(),
            bands: lsh.bands(),
        }
    }
}

impl Blocker for EmbeddingLshBlocker {
    fn candidates(&self, tables: &TablePair) -> CandidateSet {
        self.candidates_with_cosines(tables).0
    }

    fn name(&self) -> &'static str {
        "embedding-lsh"
    }
}

/// One table as the LSH blocker sees it: each record's sparse embedding
/// and band keys.
struct SignedTable {
    vecs: Vec<SparseVec>,
    /// Record-major band keys, `bands` per record.
    keys: Vec<u64>,
    bands: usize,
}

impl SignedTable {
    fn keys(&self, id: usize) -> &[u64] {
        &self.keys[id * self.bands..][..self.bands]
    }
}

/// A table's records bucketed by band key: per band, the records sorted by
/// `(key, record id)`, so a bucket is one run of ascending ids found by
/// binary search.
struct BandBuckets {
    records: usize,
    /// Band-major, `records` per band, ascending within a band.
    keys: Vec<u64>,
    /// The record id beside each key.
    ids: Vec<u32>,
}

impl BandBuckets {
    fn new(table: &SignedTable) -> Self {
        let records = table.vecs.len();
        let mut keys = Vec::with_capacity(table.keys.len());
        let mut ids = Vec::with_capacity(table.keys.len());
        let mut band_entries: Vec<(u64, u32)> = Vec::with_capacity(records);
        for band in 0..table.bands {
            band_entries.clear();
            band_entries.extend((0..records).map(|id| (table.keys(id)[band], id as u32)));
            band_entries.sort_unstable();
            keys.extend(band_entries.iter().map(|&(key, _)| key));
            ids.extend(band_entries.iter().map(|&(_, id)| id));
        }
        BandBuckets { records, keys, ids }
    }

    /// The ids of the records whose key in `band` is `key`, ascending.
    fn get(&self, band: usize, key: u64) -> &[u32] {
        let range = band * self.records..(band + 1) * self.records;
        let keys = &self.keys[range.clone()];
        let start = keys.partition_point(|&k| k < key);
        let end = keys.partition_point(|&k| k <= key);
        &self.ids[range][start..end]
    }
}

// ---------------------------------------------------------------------------
// Token blocking baseline
// ---------------------------------------------------------------------------

/// Classic token blocking: pairs sharing at least one non-frequent token
/// become candidates. `max_token_df` skips tokens whose blocks would be
/// huge (stop words, "tv").
#[derive(Debug, Clone)]
pub struct TokenBlocker {
    /// Skip tokens appearing in more than this fraction of right records.
    pub max_token_df: f64,
}

impl Default for TokenBlocker {
    fn default() -> Self {
        TokenBlocker { max_token_df: 0.05 }
    }
}

impl Blocker for TokenBlocker {
    fn candidates(&self, tables: &TablePair) -> CandidateSet {
        let clean = |s: String| apply_pipeline(&standard_pipeline(), &s);
        let mut token_to_rights: HashMap<String, Vec<u32>> = HashMap::new();
        for rec in tables.right.records() {
            let text = clean(blocking_text(&rec));
            let mut seen_tok: HashSet<String> = HashSet::new();
            for t in Tokenizer::Whitespace.tokens(&text) {
                if seen_tok.insert(t.clone()) {
                    token_to_rights.entry(t).or_default().push(rec.id().0);
                }
            }
        }
        let cap = ((tables.right.len() as f64) * self.max_token_df).ceil() as usize;
        let cap = cap.max(2);

        let mut seen: HashSet<CandidatePair> = HashSet::new();
        let mut pairs = Vec::new();
        for rec in tables.left.records() {
            let text = clean(blocking_text(&rec));
            for t in Tokenizer::Whitespace.tokens(&text) {
                let Some(rights) = token_to_rights.get(&t) else {
                    continue;
                };
                if rights.len() > cap {
                    continue; // frequent token: block too big to be useful
                }
                for &rid in rights {
                    let p = CandidatePair::new(rec.id().0, rid);
                    if seen.insert(p) {
                        pairs.push(p);
                    }
                }
            }
        }
        pairs.sort();
        CandidateSet::from_pairs(pairs)
    }

    fn name(&self) -> &'static str {
        "token"
    }
}

// ---------------------------------------------------------------------------
// Sorted neighbourhood baseline
// ---------------------------------------------------------------------------

/// Sorted neighbourhood: sort all records (both tables) by a key — here
/// the cleaned full text — then slide a window and pair up left/right
/// records that co-occur within it.
#[derive(Debug, Clone)]
pub struct SortedNeighborhoodBlocker {
    /// Window size (number of records).
    pub window: usize,
}

impl Default for SortedNeighborhoodBlocker {
    fn default() -> Self {
        SortedNeighborhoodBlocker { window: 10 }
    }
}

impl Blocker for SortedNeighborhoodBlocker {
    fn candidates(&self, tables: &TablePair) -> CandidateSet {
        #[derive(Clone)]
        struct Entry {
            key: String,
            side_left: bool,
            id: u32,
        }
        let clean = |s: String| apply_pipeline(&standard_pipeline(), &s);
        let mut entries: Vec<Entry> = Vec::with_capacity(tables.left.len() + tables.right.len());
        for rec in tables.left.records() {
            entries.push(Entry {
                key: clean(blocking_text(&rec)),
                side_left: true,
                id: rec.id().0,
            });
        }
        for rec in tables.right.records() {
            entries.push(Entry {
                key: clean(blocking_text(&rec)),
                side_left: false,
                id: rec.id().0,
            });
        }
        entries.sort_by(|a, b| a.key.cmp(&b.key));

        let w = self.window.max(2);
        let mut seen: HashSet<CandidatePair> = HashSet::new();
        let mut pairs = Vec::new();
        for i in 0..entries.len() {
            let end = (i + w).min(entries.len());
            for j in i + 1..end {
                let (a, b) = (&entries[i], &entries[j]);
                let p = match (a.side_left, b.side_left) {
                    (true, false) => CandidatePair::new(a.id, b.id),
                    (false, true) => CandidatePair::new(b.id, a.id),
                    _ => continue,
                };
                if seen.insert(p) {
                    pairs.push(p);
                }
            }
        }
        pairs.sort();
        CandidateSet::from_pairs(pairs)
    }

    fn name(&self) -> &'static str {
        "sorted-neighborhood"
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Blocking quality: candidate-set size vs gold recall.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockingStats {
    /// Candidate pairs emitted.
    pub candidates: usize,
    /// Gold matches present in the candidate set.
    pub matches_covered: usize,
    /// Total gold matches.
    pub total_matches: usize,
    /// `matches_covered / total_matches` (1.0 when no gold).
    pub recall: f64,
    /// `candidates / (|L| × |R|)`.
    pub reduction_ratio: f64,
}

/// Compute [`BlockingStats`] for a candidate set against the pair's gold.
pub fn blocking_stats(tables: &TablePair, candidates: &CandidateSet) -> BlockingStats {
    let total = tables.gold.as_ref().map(|g| g.len()).unwrap_or(0);
    let covered = match &tables.gold {
        Some(gold) => candidates
            .pairs()
            .iter()
            .filter(|p| gold.contains(p))
            .count(),
        None => 0,
    };
    let cross = (tables.left.len() * tables.right.len()).max(1);
    BlockingStats {
        candidates: candidates.len(),
        matches_covered: covered,
        total_matches: total,
        recall: if total == 0 {
            1.0
        } else {
            covered as f64 / total as f64
        },
        reduction_ratio: candidates.len() as f64 / cross as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::cosine;
    use crate::lsh::tests::DenseLsh;
    use panda_table::{MatchSet, Value};
    use proptest::prelude::*;

    /// The LSH blocker before its sparse kernels: dense embeddings, dense
    /// row-major signatures, hash-map buckets, a hash-set dedup and dense
    /// cosines. Kept as the oracle of `candidates_with_cosines`.
    fn oracle(b: &EmbeddingLshBlocker, tables: &TablePair) -> (Vec<CandidatePair>, Vec<f32>) {
        let embed = |t: &Table| -> Vec<Vec<f32>> {
            t.records()
                .map(|r| b.embedder.embed_text(&oracle_blocking_text(&r)))
                .collect()
        };
        let (lvecs, rvecs) = (embed(&tables.left), embed(&tables.right));
        let lsh = DenseLsh::new(b.embedder.dim(), b.bands, b.bits_per_band, b.seed);

        let mut buckets: HashMap<(usize, u64), Vec<u32>> = HashMap::new();
        for (rid, v) in rvecs.iter().enumerate() {
            for (band, key) in lsh.signature(v).into_iter().enumerate() {
                buckets.entry((band, key)).or_default().push(rid as u32);
            }
        }
        let mut seen: HashSet<CandidatePair> = HashSet::new();
        let mut per_left: Vec<Vec<(f32, u32)>> = vec![Vec::new(); lvecs.len()];
        for (lid, v) in lvecs.iter().enumerate() {
            for (band, key) in lsh.signature(v).into_iter().enumerate() {
                let Some(rids) = buckets.get(&(band, key)) else {
                    continue;
                };
                for &rid in rids {
                    if !seen.insert(CandidatePair::new(lid as u32, rid)) {
                        continue;
                    }
                    let c = cosine(v, &rvecs[rid as usize]);
                    if c >= b.min_cosine {
                        per_left[lid].push((c, rid));
                    }
                }
            }
        }
        let (mut pairs, mut cosines) = (Vec::new(), Vec::new());
        for (lid, mut cands) in per_left.into_iter().enumerate() {
            if let Some(cap) = b.max_per_record {
                if cands.len() > cap {
                    cands.sort_by(|a, b| b.0.total_cmp(&a.0));
                    cands.truncate(cap);
                }
            }
            cands.sort_by_key(|&(_, rid)| rid);
            for (c, rid) in cands {
                pairs.push(CandidatePair::new(lid as u32, rid));
                cosines.push(c);
            }
        }
        (pairs, cosines)
    }

    /// `blocking_text` as it was before the id-like columns were decided
    /// once per table: a `to_lowercase` per field per record.
    fn oracle_blocking_text(rec: &Record<'_>) -> String {
        let mut out = String::new();
        for (field, value) in rec.schema().fields().iter().zip(rec.values()) {
            let lower = field.name.to_lowercase();
            if lower == "id" || lower.ends_with("_id") || value.is_missing() {
                continue;
            }
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&value.to_text());
        }
        out
    }

    /// A cell drawn from a small vocabulary, so records collide often;
    /// blanks, nulls and numbers exercise the text rendering.
    fn cell() -> impl Strategy<Value = Value> {
        (0u8..10, "[abcx ]{1,12}", -50i64..50).prop_map(|(kind, text, n)| match kind {
            0 => Value::Null,
            1 => Value::Text("  ".into()),
            2 => Value::Int(n),
            3 => Value::Float(n as f64 / 4.0),
            _ => Value::Text(text),
        })
    }

    /// Random rows mixed with copies of a few fixed ones (under different
    /// ids), so equal cosines tie at the per-record cap.
    fn rows() -> impl Strategy<Value = Vec<Vec<Value>>> {
        const COPIES: [[&str; 2]; 3] =
            [["sony bravia tv", "sony"], ["apple ipod", ""], ["a b", "c"]];
        let row = (0usize..6, -50i64..50, proptest::collection::vec(cell(), 3)).prop_map(
            |(kind, id, cells)| match COPIES.get(kind) {
                Some([name, brand]) => vec![Value::Int(id), (*name).into(), (*brand).into()],
                None => cells,
            },
        );
        proptest::collection::vec(row, 0..40)
    }

    fn table(name: &str, rows: Vec<Vec<Value>>) -> Table {
        let mut t = Table::new(name, Schema::of_text(&["Item_ID", "name", "brand"]));
        for row in rows {
            t.push_row(row).expect("three cells per row");
        }
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn candidates_with_cosines_match_the_oracle(
            (left, right) in (rows(), rows()),
            (seed, dim, bands, bits) in (
                0u64..1000,
                proptest::sample::select(vec![2usize, 8, 32, 256]),
                1usize..8,
                1usize..=16,
            ),
            min_cosine in proptest::sample::select(vec![-1.0f32, 0.25, 0.99]),
            max_per_record in proptest::sample::select(vec![None, Some(0usize), Some(1), Some(32)]),
            weights in proptest::sample::select(vec![
                (1.0f32, 0.4f32), (1.0, 0.0), (f32::NAN, 0.4), (f32::INFINITY, 0.4),
            ]),
        ) {
            let tables = TablePair::new(table("l", left), table("r", right));
            let mut blocker = EmbeddingLshBlocker::new(seed)
                .with_embedder(TupleEmbedder::new(dim).with_weights(weights.0, weights.1))
                .with_lsh(bands, bits);
            blocker.min_cosine = min_cosine;
            blocker.max_per_record = max_per_record;
            let (cands, cosines) = blocker.candidates_with_cosines(&tables);
            let (want_pairs, want_cosines) = oracle(&blocker, &tables);
            prop_assert_eq!(cands.pairs(), &want_pairs[..]);
            let bits = |c: &[f32]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&cosines), bits(&want_cosines));
            for rec in tables.left.records().chain(tables.right.records()) {
                prop_assert_eq!(blocking_text(&rec), oracle_blocking_text(&rec));
            }
        }
    }

    #[test]
    fn cap_ties_keep_the_first_seen_records() {
        let mut left = Table::new("l", Schema::of_text(&["name"]));
        left.push(vec!["sony bravia tv"]).unwrap();
        let mut right = Table::new("r", Schema::of_text(&["name"]));
        for i in 0..60 {
            right
                .push(vec![["sony bravia tv", "sony bravia", "bravia tv"][i % 3]])
                .unwrap();
        }
        let tables = TablePair::new(left, right);
        let mut blocker = EmbeddingLshBlocker::new(1);
        blocker.min_cosine = -1.0;
        blocker.max_per_record = Some(5);
        let (cands, _) = blocker.candidates_with_cosines(&tables);
        let rights: Vec<u32> = cands.pairs().iter().map(|p| p.right.0).collect();
        // The copies tie at the top; the stable sort keeps the five seen
        // first (one bucket, ascending ids).
        assert_eq!(rights, [0, 3, 6, 9, 12]);
        assert_eq!(cands.pairs(), &oracle(&blocker, &tables).0[..]);
    }

    /// A tiny product task: 4 left, 4 right, 3 true matches.
    fn tiny_task() -> TablePair {
        let schema = Schema::of_text(&["name", "price"]);
        let mut left = Table::new("abt", schema.clone());
        left.push(vec!["sony bravia kdl-40v2500 40 lcd tv", "999"])
            .unwrap();
        left.push(vec!["apple ipod nano 8gb silver", "149"])
            .unwrap();
        left.push(vec!["canon powershot sd1000 digital camera", "299"])
            .unwrap();
        left.push(vec!["panasonic viera 50 plasma hdtv", "1299"])
            .unwrap();
        let mut right = Table::new("buy", schema);
        right
            .push(vec!["sony bravia 40in kdl40v2500 lcd hdtv", "989"])
            .unwrap();
        right
            .push(vec!["apple ipod nano 8 gb (silver)", "145"])
            .unwrap();
        right
            .push(vec!["panasonic 50in viera plasma television", "1250"])
            .unwrap();
        right
            .push(vec!["nikon coolpix 10mp camera bundle", "399"])
            .unwrap();
        let mut gold = MatchSet::new();
        gold.insert(RecordId(0), RecordId(0));
        gold.insert(RecordId(1), RecordId(1));
        gold.insert(RecordId(3), RecordId(2));
        TablePair::with_gold(left, right, gold)
    }

    #[test]
    fn embedding_lsh_recovers_matches() {
        let task = tiny_task();
        let blocker = EmbeddingLshBlocker::new(7);
        let cands = blocker.candidates(&task);
        let stats = blocking_stats(&task, &cands);
        assert_eq!(stats.total_matches, 3);
        assert_eq!(
            stats.matches_covered, 3,
            "all matches must survive blocking"
        );
        assert!(stats.candidates < 16, "should prune the cross product");
    }

    #[test]
    fn token_blocking_recovers_matches() {
        let task = tiny_task();
        let blocker = TokenBlocker { max_token_df: 0.6 };
        let cands = blocker.candidates(&task);
        let stats = blocking_stats(&task, &cands);
        assert_eq!(stats.matches_covered, 3);
    }

    #[test]
    fn sorted_neighborhood_produces_cross_side_pairs_only() {
        let task = tiny_task();
        let blocker = SortedNeighborhoodBlocker { window: 4 };
        let cands = blocker.candidates(&task);
        assert!(!cands.is_empty());
        for p in cands.pairs() {
            assert!(p.left.idx() < task.left.len());
            assert!(p.right.idx() < task.right.len());
        }
    }

    #[test]
    fn stats_on_cross_product_have_full_recall() {
        let task = tiny_task();
        let stats = blocking_stats(&task, &task.cross_product());
        assert_eq!(stats.recall, 1.0);
        assert_eq!(stats.reduction_ratio, 1.0);
    }

    #[test]
    fn per_record_cap_is_enforced() {
        let task = tiny_task();
        let mut blocker = EmbeddingLshBlocker::new(3);
        blocker.min_cosine = -1.0; // keep everything LSH emits
        blocker.max_per_record = Some(1);
        let cands = blocker.candidates(&task);
        let mut per_left = std::collections::HashMap::new();
        for p in cands.pairs() {
            *per_left.entry(p.left).or_insert(0) += 1;
        }
        assert!(per_left.values().all(|&c| c <= 1));
    }
}
