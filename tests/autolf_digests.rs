//! Bit-identity oracle for Auto-FuzzyJoin (paper §2.1, feature 1.3) on
//! the `p2_autolf_grid` inputs: the LFs `generate_auto_lfs` emits, and
//! every default-grid cell's scores on the candidate pairs, pinned to
//! constants. Any change to a grid score or to the threshold search moves
//! a constant.
//!
//! The `autolf.cell` keep/prune journal events of the threshold search
//! are digested too, sorted so the digest does not depend on the worker
//! count.
//!
//! The scores are digested per measure, once through the grid's path
//! (`PreparedColumn` + `score_prepared`, with the generator's weight
//! vectors and TF-IDF corpora) and once through the LF path
//! (`SimilarityConfig::prepare` + `score_texts`). Both must equal the
//! pinned digest. A blank side scores −1 in both, as in the generator.

use panda::autolf::{generate_auto_lfs, AutoLfConfig};
use panda::datasets::{generate, DatasetFamily, GeneratorConfig};
use panda::embed::{Blocker, EmbeddingLshBlocker};
use panda::lf::LabelingFunction;
use panda::table::{CandidateSet, TablePair};
use panda::text::config::default_config_grid;
use panda::text::prepared::PreparedColumn;
use panda::text::preprocess::standard_pipeline;
use panda::text::{CorpusStats, Measure, SimilarityConfig, Tokenizer, Weighting};

/// `(name, attribute, right attribute, config id, threshold bits,
/// est_precision bits, est_support)` of one emitted LF.
type PinnedLf = (
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    u64,
    u64,
    usize,
);

/// The default grid's measures, in digest order.
const MEASURES: [Measure; 4] = [
    Measure::Jaccard,
    Measure::Cosine,
    Measure::JaroWinkler,
    Measure::Levenshtein,
];

/// `(task, emitted LFs, digest of the `autolf.cell` events, one score
/// digest per measure of [`MEASURES`])`.
const PINNED: [(&str, &[PinnedLf], u64, [u64; 4]); 2] = [
    (
        "abt_buy",
        &[
            (
                "auto_lf_0",
                "description",
                "description",
                "lower+nopunct+ws|3gram|tfidf|cosine",
                0x3fe3333333333334,
                0x3feb981dae6076ba,
                119,
            ),
            (
                "auto_lf_1",
                "name",
                "name",
                "lower+nopunct+ws|space|uniform|jw",
                0x3feb333333333334,
                0x3fefaaaaaaaaaaab,
                95,
            ),
            (
                "auto_lf_2",
                "name",
                "name",
                "lower+nopunct+ws|3gram|tfidf|jaccard",
                0x3fd0000000000000,
                0x3feb5cc0ed7303b6,
                118,
            ),
        ],
        0x04b12ecc4522eb18,
        [
            0x91a106c1d4ba5aeb,
            0x98d3d5a6e56b4ac0,
            0xb3ce2ecba998670b,
            0x36a2b34ebacc7b05,
        ],
    ),
    (
        "walmart_amazon",
        &[
            (
                "auto_lf_0",
                "title",
                "name",
                "lower+ws|3gram|uniform|jaccard",
                0x3fd3333333333334,
                0x3fec077975b8fe22,
                120,
            ),
            (
                "auto_lf_1",
                "title",
                "name",
                "lower+ws|3gram|tfidf|cosine",
                0x3fd3333333333334,
                0x3fec71c71c71c71c,
                120,
            ),
            (
                "auto_lf_2",
                "title",
                "name",
                "lower+nopunct+ws|space|uniform|jaccard",
                0x3fd3333333333334,
                0x3feb6db6db6db6dc,
                120,
            ),
        ],
        0xd4bdcf3dfdfc33dc,
        [
            0x8e8c981634e3084a,
            0x33c0891eb835ff74,
            0x5b98da5cdadfb124,
            0x6df9f491a14a4967,
        ],
    ),
];

struct Task {
    name: &'static str,
    tables: TablePair,
    cands: CandidateSet,
    cfg: AutoLfConfig,
}

/// The two `p2_autolf_grid` 150-entity workloads.
fn tasks() -> [Task; 2] {
    let abt = generate(
        DatasetFamily::AbtBuy,
        &GeneratorConfig::new(77).with_entities(150),
    );
    let wa = generate(
        DatasetFamily::WalmartAmazon,
        &GeneratorConfig::new(55).with_entities(150),
    );
    [
        Task {
            name: "abt_buy",
            cands: EmbeddingLshBlocker::new(7).candidates(&abt),
            tables: abt,
            cfg: AutoLfConfig::default(),
        },
        Task {
            name: "walmart_amazon",
            cands: EmbeddingLshBlocker::new(55).candidates(&wa),
            tables: wa,
            cfg: AutoLfConfig {
                attribute_pairs: vec![
                    ("title".into(), "name".into()),
                    ("modelno".into(), "model".into()),
                ],
                ..AutoLfConfig::default()
            },
        },
    ]
}

/// The generator's attribute pairs: the shared text attributes, then the
/// configured pairs, each present in its schema and listed once.
fn attribute_pairs(task: &Task) -> Vec<(String, String)> {
    let (left, right) = (task.tables.left.schema(), task.tables.right.schema());
    let mut pairs: Vec<(String, String)> = left
        .names()
        .filter(|n| right.contains(n))
        .filter(|n| {
            let lower = n.to_lowercase();
            lower != "id" && !lower.ends_with("_id")
        })
        .map(|n| (n.to_string(), n.to_string()))
        .collect();
    pairs.extend(task.cfg.attribute_pairs.iter().cloned());
    let mut out: Vec<(String, String)> = Vec::new();
    for (l, r) in pairs {
        if left.contains(&l) && right.contains(&r) && !out.contains(&(l.clone(), r.clone())) {
            out.push((l, r));
        }
    }
    out
}

fn fnv(h: &mut u64, v: f64) {
    fnv_bytes(h, &v.to_bits().to_le_bytes());
}

fn fnv_bytes(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn texts(task: &Task, right: bool, attr: &str) -> Vec<String> {
    let table = if right {
        &task.tables.right
    } else {
        &task.tables.left
    };
    table.records().map(|rec| rec.text(attr)).collect()
}

/// The generator's TF-IDF corpus for one attribute pair and tokenizer:
/// both sides' values under the standard pipeline.
fn corpus(left: &[String], right: &[String], tokenizer: Tokenizer) -> CorpusStats {
    let mut stats = CorpusStats::new();
    for side in [left, right] {
        PreparedColumn::build(side, &standard_pipeline(), tokenizer).add_documents(&mut stats);
    }
    stats
}

/// Every grid cell's scores on the candidates, in cell then candidate
/// order, through the grid path (`lf_path == false`) or the LF path.
fn score_digests(task: &Task, lf_path: bool) -> [u64; 4] {
    let mut digests = [0xcbf2_9ce4_8422_2325u64; 4];
    for (la, ra) in attribute_pairs(task) {
        let (lt, rt) = (texts(task, false, &la), texts(task, true, &ra));
        let word = corpus(&lt, &rt, Tokenizer::Whitespace);
        let gram = corpus(&lt, &rt, Tokenizer::QGram(3));
        for config in default_config_grid() {
            let stats = (config.weighting == Weighting::TfIdf && config.measure.is_set_measure())
                .then_some(match config.tokenizer {
                    Tokenizer::QGram(_) => &gram,
                    _ => &word,
                });
            let h = &mut digests[MEASURES.iter().position(|&m| m == config.measure).unwrap()];
            let scores = if lf_path {
                lf_path_scores(task, &config, stats, &lt, &rt)
            } else {
                grid_path_scores(task, &config, stats, &lt, &rt)
            };
            for s in scores {
                fnv(h, s);
            }
        }
    }
    digests
}

fn grid_path_scores(
    task: &Task,
    config: &SimilarityConfig,
    stats: Option<&CorpusStats>,
    lt: &[String],
    rt: &[String],
) -> Vec<f64> {
    let lc = PreparedColumn::build(lt, &config.preprocess, config.tokenizer);
    let rc = PreparedColumn::build(rt, &config.preprocess, config.tokenizer);
    let weighted = matches!(config.measure, Measure::Jaccard | Measure::Cosine);
    let lw = weighted.then(|| lc.weight_vectors(config.weighting, stats));
    let rw = weighted.then(|| rc.weight_vectors(config.weighting, stats));
    task.cands
        .iter()
        .map(|(_, pair)| {
            let (li, ri) = (pair.left.0 as usize, pair.right.0 as usize);
            if lc.is_blank(li) || rc.is_blank(ri) {
                return -1.0;
            }
            let a = match &lw {
                Some(w) => lc.record_weighted(li, w),
                None => lc.record(li),
            };
            let b = match &rw {
                Some(w) => rc.record_weighted(ri, w),
                None => rc.record(ri),
            };
            config.score_prepared(&a, &b)
        })
        .collect()
}

fn lf_path_scores(
    task: &Task,
    config: &SimilarityConfig,
    stats: Option<&CorpusStats>,
    lt: &[String],
    rt: &[String],
) -> Vec<f64> {
    let prepare = |t: &[String]| -> Vec<_> {
        t.iter()
            .map(|s| (!s.trim().is_empty()).then(|| config.prepare(s, stats)))
            .collect()
    };
    let (lp, rp) = (prepare(lt), prepare(rt));
    task.cands
        .iter()
        .map(
            |(_, pair)| match (&lp[pair.left.0 as usize], &rp[pair.right.0 as usize]) {
                (Some(a), Some(b)) => config.score_texts(a, b),
                _ => -1.0,
            },
        )
        .collect()
}

/// The emitted LFs, and the digest of the `autolf.cell` events the
/// generation journalled.
#[allow(clippy::type_complexity)]
fn emitted(task: &Task) -> (Vec<(String, String, String, String, u64, u64, usize)>, u64) {
    panda::obs::journal_drain();
    let lfs = generate_auto_lfs(&task.tables, &task.cands, &task.cfg)
        .iter()
        .map(|g| {
            (
                g.lf.name().to_string(),
                g.attribute.clone(),
                g.right_attribute.clone(),
                g.config_id.clone(),
                g.threshold.to_bits(),
                g.est_precision.to_bits(),
                g.est_support,
            )
        })
        .collect();
    let mut cells: Vec<String> = panda::obs::journal_drain()
        .events
        .iter()
        .filter(|e| e.kind == "autolf.cell")
        .map(|e| format!("{:?}", e.fields))
        .collect();
    assert!(!cells.is_empty(), "the grid journals one event per cell");
    cells.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for line in cells {
        fnv_bytes(&mut h, line.as_bytes());
    }
    (lfs, h)
}

fn pinned_lfs(lfs: &[PinnedLf]) -> Vec<(String, String, String, String, u64, u64, usize)> {
    lfs.iter()
        .map(|&(n, a, r, c, t, p, s)| (n.into(), a.into(), r.into(), c.into(), t, p, s))
        .collect()
}

#[test]
fn generated_lfs_and_cell_decisions_are_pinned() {
    panda::obs::set_journal_enabled(true);
    let mut mismatches = Vec::new();
    for (task, (name, lfs, cells, _)) in tasks().iter().zip(PINNED) {
        assert_eq!(task.name, name);
        let (got, got_cells) = emitted(task);
        if got != pinned_lfs(lfs) || got_cells != cells {
            let rows: Vec<String> = got
                .iter()
                .map(|(n, a, r, c, t, p, s)| {
                    format!("(\"{n}\", \"{a}\", \"{r}\", \"{c}\", 0x{t:016x}, 0x{p:016x}, {s}),")
                })
                .collect();
            mismatches.push(format!(
                "{name}: cells 0x{got_cells:016x}\n{}",
                rows.join("\n")
            ));
        }
    }
    panda::obs::set_journal_enabled(false);
    assert!(
        mismatches.is_empty(),
        "emitted LFs or cell decisions moved; actual:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn grid_scores_are_pinned_on_both_paths() {
    let mut mismatches = Vec::new();
    for (task, (name, _, _, digests)) in tasks().iter().zip(PINNED) {
        for (path, lf_path) in [("grid", false), ("lf", true)] {
            let got = score_digests(task, lf_path);
            if got != digests {
                mismatches.push(format!(
                    "{name} ({path} path): [{}]",
                    got.map(|d| format!("0x{d:016x}")).join(", ")
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "grid score digests moved; actual:\n{}",
        mismatches.join("\n")
    );
}
