//! Bit-identity oracle for the Step-4 panels: the LF Stats Panel rows,
//! the semantic debugging queries, the three samplers and the `lf.stats`
//! journal events of a session with the curated plus auto-generated LFs,
//! on every family of the extended suite (built as `label_digests.rs`
//! builds them), pinned to FNV-1a digests. Any change to a count, a rate
//! bit, a selected pair or its rank moves a digest.
//!
//! The constants were captured before the panels read the packed label
//! matrix word at a time and kept only the top `k` rows; they pin that
//! those changes moved no output.
//!
//! Everything lives in ONE `#[test]`: the journal is process-global, and
//! a concurrent test's refit would add its own `lf.stats` events.

use panda::datasets::{generate, DatasetFamily, GeneratorConfig};
use panda::obs::{self, FieldValue};
use panda::prelude::*;
use panda_bench::curated_lfs;

/// `(family, stats rows, debug queries, samplers, lf.stats events)`.
const PINNED: [(DatasetFamily, u64, u64, u64, u64); 7] = [
    (
        DatasetFamily::AbtBuy,
        0x9b53d8ad5f984ef5,
        0x55ad5a15cce47228,
        0x1aa75e59a9176ac1,
        0xa1a7f41ba2c6f1c1,
    ),
    (
        DatasetFamily::AmazonGoogle,
        0x8743060d2af74700,
        0x90b45a7e84fa3d73,
        0x8dd459511cfbac50,
        0x8149d58f04ae87fa,
    ),
    (
        DatasetFamily::WalmartAmazon,
        0x3b9215874e56405c,
        0xe7608d537a8490c4,
        0xbd9784c2bc5314b2,
        0x3364f48a021fe144,
    ),
    (
        DatasetFamily::AbtBuyDirty,
        0x242d96f5aa6ff9eb,
        0xd0544aa61d24f612,
        0x09598af4c13271ed,
        0xc20fe985c366a283,
    ),
    (
        DatasetFamily::DblpAcm,
        0x6825ee0c241cef25,
        0x3248fad88006b707,
        0x4b76d1a3e74d1c55,
        0x5bd9bec75f10e602,
    ),
    (
        DatasetFamily::DblpScholar,
        0x71c1fcc276d3193a,
        0x6427108fbe848046,
        0xb07ef474d8dd6840,
        0xf11eb1a6b6a4d7b5,
    ),
    (
        DatasetFamily::FodorsZagats,
        0xe250aeb0caf3f5d8,
        0x980c5955856134fa,
        0x3521a32ffe1a9e59,
        0xec20e84bd7a1abe2,
    ),
];

const QUERIES: [DebugQuery; 6] = [
    DebugQuery::LikelyFalsePositives,
    DebugQuery::LikelyFalseNegatives,
    DebugQuery::Conflicts,
    DebugQuery::VotedMatch,
    DebugQuery::VotedNonMatch,
    DebugQuery::Abstained,
];

/// Row limits each query is asked for; `usize::MAX` returns every pair.
const LIMITS: [usize; 3] = [1, 10, usize::MAX];

/// FNV-1a over a byte stream.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn opt(&mut self, v: Option<f64>) {
        match v {
            None => self.bytes(&[0]),
            Some(x) => {
                self.bytes(&[1]);
                self.f64(x);
            }
        }
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    fn indices(&mut self, rows: &[DataViewerRow]) {
        self.u64(rows.len() as u64);
        for r in rows {
            self.u64(r.candidate_index as u64);
        }
    }
}

fn session(family: DatasetFamily) -> PandaSession {
    let task = generate(family, &GeneratorConfig::new(5).with_entities(80));
    let mut session = PandaSession::load(task, SessionConfig::default());
    for lf in curated_lfs(family) {
        session.upsert_lf(lf);
    }
    session.apply();
    session
}

fn stats_digest(session: &PandaSession) -> u64 {
    let mut h = Fnv::new();
    for row in session.lf_stats() {
        h.str(&row.name);
        for n in [row.n_match, row.n_nonmatch, row.n_abstain] {
            h.u64(n as u64);
        }
        for x in [row.coverage, row.overlap, row.conflict] {
            h.f64(x);
        }
        for x in [row.est_fpr, row.est_fnr, row.true_fpr, row.true_fnr] {
            h.opt(x);
        }
    }
    h.0
}

fn debug_digest(session: &PandaSession) -> u64 {
    let mut h = Fnv::new();
    let names: Vec<String> = session
        .matrix()
        .lf_names()
        .into_iter()
        .map(str::to_string)
        .collect();
    for name in &names {
        for query in QUERIES {
            for limit in LIMITS {
                h.indices(&session.debug_pairs(name, query, limit));
            }
        }
    }
    h.0
}

/// Three clicks of each sampler, in this order, on one session (the
/// `shown` mask carries over between clicks and samplers).
fn sampler_digest(session: &mut PandaSession) -> u64 {
    let mut h = Fnv::new();
    for _ in 0..3 {
        h.indices(&session.smart_sample(10));
    }
    for _ in 0..3 {
        h.indices(&session.uncertainty_sample(10));
    }
    for _ in 0..3 {
        h.indices(&session.disagreement_sample(10));
    }
    h.0
}

/// Every field of the `lf.stats` events one journaled refit emits.
fn journal_digest(session: &mut PandaSession) -> u64 {
    obs::set_journal_enabled(true);
    obs::journal_drain();
    session.fit();
    let dump = obs::journal_drain();
    obs::set_journal_enabled(false);
    let mut h = Fnv::new();
    let mut n_events = 0usize;
    for event in dump.events.iter().filter(|e| e.kind == "lf.stats") {
        n_events += 1;
        for (key, value) in &event.fields {
            h.str(key);
            match value {
                FieldValue::Bool(b) => h.bytes(&[u8::from(*b)]),
                FieldValue::I64(x) => h.u64(*x as u64),
                FieldValue::U64(x) => h.u64(*x),
                FieldValue::F64(x) => h.f64(*x),
                FieldValue::Str(s) => h.str(s),
            }
        }
    }
    assert_eq!(n_events, session.matrix().n_lfs(), "one lf.stats per LF");
    h.0
}

#[test]
fn panels_are_bit_identical_on_every_family() {
    assert_eq!(
        PINNED.map(|p| p.0),
        DatasetFamily::extended_suite(),
        "one pinned row per family"
    );
    let mut mismatches = Vec::new();
    for (family, stats, debug, samplers, journal) in PINNED {
        let mut s = session(family);
        let got = (
            stats_digest(&s),
            debug_digest(&s),
            sampler_digest(&mut s),
            journal_digest(&mut s),
        );
        if got != (stats, debug, samplers, journal) {
            mismatches.push(format!(
                "(DatasetFamily::{family:?}, 0x{:016x}, 0x{:016x}, 0x{:016x}, 0x{:016x}),",
                got.0, got.1, got.2, got.3
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "digests moved; actual rows:\n{}",
        mismatches.join("\n")
    );
}
