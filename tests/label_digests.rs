//! Bit-identity oracle for LF application: the label matrix, the fitted
//! posteriors and the per-pair `score_pair` path of a session with the
//! curated plus auto-generated LFs, on every family of the extended suite,
//! pinned to FNV-1a digests. Any change to a vote or a posterior bit moves
//! a digest.
//!
//! The matrix digests were captured before LFs were applied through
//! per-record prepared state. The posterior and `score_pair` digests were
//! re-captured once, when EM moved to vote-pattern space with exact
//! fixed-point sums: a float sum depends on its order, and per-row sums
//! add in another order than the old pair-order `f64` sums, so the
//! posterior bits moved by at most 6e-15 on these inputs with no pair
//! crossing 0.5. `panda-model`'s pair-space oracle test
//! `exact_sums_move_posteriors_by_under_1e_12_and_flip_no_decision`
//! replays these sessions with the old `f64` sums, reproduces the old
//! posterior digests bit for bit and holds the shipped fit within 1e-12
//! of them.

use panda::datasets::{generate, DatasetFamily, GeneratorConfig};
use panda::prelude::*;
use panda_bench::curated_lfs;
use std::sync::Arc;

/// `(family, matrix digest, posterior digest, score_pair digest)`.
const PINNED: [(DatasetFamily, u64, u64, u64); 7] = [
    (
        DatasetFamily::AbtBuy,
        0x605c4c9bea459059,
        0x4ba2a2f5baff1918,
        0x1983dd7bd91cf2fe,
    ),
    (
        DatasetFamily::AmazonGoogle,
        0x3c72d946f515d586,
        0x75312b132ec7fb54,
        0x74dc5a22189a12da,
    ),
    (
        DatasetFamily::WalmartAmazon,
        0x31b07722b6d0c9b6,
        0xcb96a4c2c8a95345,
        0xc4e485402695c1d0,
    ),
    (
        DatasetFamily::AbtBuyDirty,
        0x7101b891ddf45d76,
        0x45366f1838f446c9,
        0x63e3a583fefa1497,
    ),
    (
        DatasetFamily::DblpAcm,
        0x6310aed293585e25,
        0x7f7e9b72f62e59f3,
        0x81fbddbccf14d5ab,
    ),
    (
        DatasetFamily::DblpScholar,
        0x9a185844c26aac95,
        0x6f2e6aba394335ee,
        0xe4ddcfe1a28d9ace,
    ),
    (
        DatasetFamily::FodorsZagats,
        0x5f155c0d50b896df,
        0x8a4789a18d578373,
        0xab2fa1f5934b4519,
    ),
];

/// Pairs whose ad-hoc `score_pair` posterior enters the third digest.
const SCORED_PAIRS: usize = 64;

fn fnv(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn digests(family: DatasetFamily) -> (u64, u64, u64) {
    let task = generate(family, &GeneratorConfig::new(5).with_entities(80));
    let mut session = PandaSession::load(task, SessionConfig::default());
    for lf in curated_lfs(family) {
        session.upsert_lf(lf);
    }
    session.apply();
    let scored: Vec<f64> = session
        .candidates()
        .pairs()
        .iter()
        .take(SCORED_PAIRS)
        .map(|&p| session.score_pair(p).expect("fitted session scores pairs"))
        .collect();
    (
        session.matrix().digest(),
        fnv(session.posteriors().iter().copied()),
        fnv(scored),
    )
}

#[test]
fn curated_and_auto_lfs_label_bit_identically_on_every_family() {
    assert_eq!(
        PINNED.map(|p| p.0),
        DatasetFamily::extended_suite(),
        "one pinned row per family"
    );
    let mut mismatches = Vec::new();
    for (family, matrix, posterior, scored) in PINNED {
        let got = digests(family);
        if got != (matrix, posterior, scored) {
            mismatches.push(format!(
                "(DatasetFamily::{family:?}, 0x{:016x}, 0x{:016x}, 0x{:016x}),",
                got.0, got.1, got.2
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "digests moved; actual rows:\n{}",
        mismatches.join("\n")
    );
}

/// `(batch, authors_me column digest, deploy posterior digest)` for
/// perfbench's `deploy_batch` at seed 1: fresh dblp-scholar batches of
/// 200 entities deployed from a 100-entity curated development session.
/// Monge-Elkan repeats tokens across a batch's candidates, so
/// `authors_me` votes from its token-vocabulary matrix here.
const PINNED_DEPLOY: [(u64, u64, u64); 3] = [
    (1, 0x27907e14baa19da5, 0xf3e2d5caf2204b0c),
    (2, 0xd664bb4035fb6578, 0xce0a0183d074b26f),
    (3, 0xefc1012da43925e5, 0x929e630fa91fc86f),
];

/// `(authors_me column digest, posterior digest)` of the
/// `examples/bibliographic.rs` Cora-style self-join: one citation table
/// on both sides, so the two token vocabularies coincide.
const PINNED_SELF_JOIN: (u64, u64) = (0x217347a0f1c4cb58, 0xad0170330d8d3140);

fn column_digest(matrix: &LabelMatrix, name: &str) -> u64 {
    let column = matrix.column(name).expect("column applied");
    fnv(column.into_iter().map(f64::from))
}

/// perfbench's `deploy_batch` batch `i` for seed `seed`.
fn deploy_input(seed: u64, i: u64) -> TablePair {
    let derived = seed ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    generate(
        DatasetFamily::DblpScholar,
        &GeneratorConfig::new(derived).with_entities(200),
    )
}

#[test]
fn deployed_monge_elkan_votes_and_posteriors_are_bit_identical() {
    // The development session `deploy_batch` deploys from: seed 1, auto
    // LFs off, the curated LFs added one by one, the two-table
    // transitive model.
    let seed = 1;
    let dev = generate(
        DatasetFamily::DblpScholar,
        &GeneratorConfig::new(seed).with_entities(100),
    );
    let config = SessionConfig {
        seed,
        auto_lfs: false,
        model: ModelChoice::PandaTransitive(TransitivityMode::TwoTable),
        ..SessionConfig::default()
    };
    let mut session = PandaSession::load(dev, config);
    for lf in curated_lfs(DatasetFamily::DblpScholar) {
        session
            .upsert_lf_incremental(lf)
            .expect("curated LF applies");
    }
    session.fit();
    let mut mismatches = Vec::new();
    for (i, column, posterior) in PINNED_DEPLOY {
        let batch = deploy_input(seed, i);
        let deployed = session.deploy(&batch);
        let mut matrix = LabelMatrix::new();
        matrix.apply(session.registry(), &batch, &deployed.candidates);
        let got = (
            column_digest(&matrix, "authors_me"),
            fnv(deployed.posteriors.iter().copied()),
        );
        if got != (column, posterior) {
            mismatches.push(format!("({i}, 0x{:016x}, 0x{:016x}),", got.0, got.1));
        }
    }

    // The example's dedup session: its LFs in its order, auto LFs on.
    let dedup = generate(
        DatasetFamily::CoraDedup,
        &GeneratorConfig::new(42)
            .with_entities(120)
            .with_right_dups(5),
    );
    let mut session = PandaSession::load(
        dedup,
        SessionConfig {
            model: ModelChoice::PandaTransitive(TransitivityMode::SelfJoin),
            ..SessionConfig::default()
        },
    );
    let curated = curated_lfs(DatasetFamily::CoraDedup);
    for name in ["title_3gram", "title_overlap", "authors_me", "year_unmatch"] {
        let lf = curated.iter().find(|lf| lf.name() == name).expect("bib LF");
        session.upsert_lf(Arc::clone(lf));
    }
    session.apply();
    let got = (
        column_digest(session.matrix(), "authors_me"),
        fnv(session.posteriors().iter().copied()),
    );
    if got != PINNED_SELF_JOIN {
        mismatches.push(format!("self-join: (0x{:016x}, 0x{:016x})", got.0, got.1));
    }
    assert!(
        mismatches.is_empty(),
        "digests moved; actual rows:\n{}",
        mismatches.join("\n")
    );
}
