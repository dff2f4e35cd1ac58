//! Bit-identity oracle for LSH blocking: the candidate pairs, their order
//! and the bits of each pair's embedding cosine (the sampler's likelihood)
//! on every family of the extended suite at the deployment batch size,
//! pinned to FNV-1a digests. The constants were captured from the dense
//! blocker (dense signatures, hash-map buckets, `cosine` over the dense
//! embeddings) before it was rewritten as sparse kernels; one moved pair
//! or cosine bit moves a digest — and would quarantine every persisted
//! session on `rehydrate`, which re-blocks and checks the matrix digest.

use panda::datasets::{generate, DatasetFamily, GeneratorConfig};
use panda::prelude::*;

/// Entities per generated task: the deployment batch size.
const ENTITIES: usize = 200;

/// `(family, default pairs, default cosines, open pairs, open cosines)`:
/// the default blocker (cosine floor 0.25, at most 32 per record) and an
/// open one that keeps every collision (floor −1, no cap).
const PINNED: [(DatasetFamily, u64, u64, u64, u64); 7] = [
    (
        DatasetFamily::AbtBuy,
        0xdc67de0520e11438,
        0x60461a51aaf54eb2,
        0x90cfd5e50e634fed,
        0x1bf8e59b82df226c,
    ),
    (
        DatasetFamily::AmazonGoogle,
        0xfab62baa2a9f91e6,
        0x1eaae77703b9f454,
        0x5a4873e4d2d417ec,
        0x873517db3ed0ee01,
    ),
    (
        DatasetFamily::WalmartAmazon,
        0xa5a43efeec0828c4,
        0x18c04b566c60b074,
        0xe994f9a191f345da,
        0x069f67dda69aebe8,
    ),
    (
        DatasetFamily::AbtBuyDirty,
        0x92f07674afb24756,
        0xf826942c1d5db15b,
        0x57488d9fb6b18c94,
        0xe2bb800c02b04fc5,
    ),
    (
        DatasetFamily::DblpAcm,
        0x4576d9c9254203df,
        0x9ac9739003882d9e,
        0x23e430d7d19b9db5,
        0x4cca988bfcccc24a,
    ),
    (
        DatasetFamily::DblpScholar,
        0x003c194f3bcd6a2d,
        0xd9c431be4d0978dc,
        0x405c37bf546201b9,
        0x251233b93337ac2d,
    ),
    (
        DatasetFamily::FodorsZagats,
        0xc1d1cec4c0059193,
        0x991af3c32198e1cc,
        0xf5e8d0bd7aa029d5,
        0xfb3ae3f54ea517b8,
    ),
];

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// `(pairs digest, cosine-bits digest)` of one blocker on one task.
fn digests(tables: &TablePair, blocker: &EmbeddingLshBlocker) -> (u64, u64) {
    let (cands, cosines) = blocker.candidates_with_cosines(tables);
    assert_eq!(cands.len(), cosines.len(), "one cosine per pair");
    assert_eq!(
        cands.pairs(),
        blocker.candidates(tables).pairs(),
        "`candidates` is the pairs of `candidates_with_cosines`"
    );
    let (mut pairs, mut bits) = (0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325);
    for p in cands.pairs() {
        fnv(&mut pairs, &p.left.0.to_le_bytes());
        fnv(&mut pairs, &p.right.0.to_le_bytes());
    }
    for c in cosines {
        fnv(&mut bits, &c.to_bits().to_le_bytes());
    }
    (pairs, bits)
}

#[test]
fn candidates_and_cosines_are_bit_identical_on_every_family() {
    assert_eq!(
        PINNED.map(|p| p.0),
        DatasetFamily::extended_suite(),
        "one pinned row per family"
    );
    let mut open = EmbeddingLshBlocker::new(5);
    open.min_cosine = -1.0;
    open.max_per_record = None;
    let mut mismatches = Vec::new();
    for (family, pairs, cosines, open_pairs, open_cosines) in PINNED {
        let task = generate(family, &GeneratorConfig::new(5).with_entities(ENTITIES));
        let got = (
            digests(&task, &EmbeddingLshBlocker::new(5)),
            digests(&task, &open),
        );
        if got != ((pairs, cosines), (open_pairs, open_cosines)) {
            let ((a, b), (c, d)) = got;
            mismatches.push(format!(
                "(DatasetFamily::{family:?}, 0x{a:016x}, 0x{b:016x}, 0x{c:016x}, 0x{d:016x}),"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "digests moved; actual rows:\n{}",
        mismatches.join("\n")
    );
}
