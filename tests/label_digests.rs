//! Bit-identity oracle for LF application: the label matrix, the fitted
//! posteriors and the per-pair `score_pair` path of a session with the
//! curated plus auto-generated LFs, on every family of the extended suite,
//! pinned to FNV-1a digests. The constants were captured before LFs were
//! applied through per-record prepared state; any change to a vote or a
//! posterior bit moves a digest.

use panda::datasets::{generate, DatasetFamily, GeneratorConfig};
use panda::prelude::*;
use panda_bench::curated_lfs;

/// `(family, matrix digest, posterior digest, score_pair digest)`.
const PINNED: [(DatasetFamily, u64, u64, u64); 7] = [
    (
        DatasetFamily::AbtBuy,
        0x605c4c9bea459059,
        0xe9772ff9172a89cb,
        0x1abb6ae900c9a05d,
    ),
    (
        DatasetFamily::AmazonGoogle,
        0x3c72d946f515d586,
        0x128f9ed2ad4984f5,
        0x0babd5b3daf3a7dd,
    ),
    (
        DatasetFamily::WalmartAmazon,
        0x31b07722b6d0c9b6,
        0x0780028fb724c809,
        0xb7bbe52b8edf358e,
    ),
    (
        DatasetFamily::AbtBuyDirty,
        0x7101b891ddf45d76,
        0xfbe625b18f850a90,
        0x866cd710b0a0952a,
    ),
    (
        DatasetFamily::DblpAcm,
        0x6310aed293585e25,
        0xaa193e001f887159,
        0x7a2ccb58ee04c467,
    ),
    (
        DatasetFamily::DblpScholar,
        0x9a185844c26aac95,
        0xd740cb19a7b5fe7d,
        0x42cdd7d885ed6e63,
    ),
    (
        DatasetFamily::FodorsZagats,
        0x5f155c0d50b896df,
        0x045074b73f3b42e6,
        0x6b601d0b15de9c61,
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
