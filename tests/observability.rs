//! End-to-end telemetry: a full session run with metrics and the journal
//! enabled must produce (a) a snapshot whose JSON parses and carries the
//! per-stage spans and counters the CLI/CI contract promises, and (b) a
//! journal holding the provenance events DESIGN.md §8 documents, with
//! every recorded name conforming to the dotted naming convention.
//!
//! Everything lives in ONE `#[test]`: the obs registry is process-global,
//! and Rust runs tests in one binary concurrently — separate tests would
//! race on `set_enabled`/`reset`.

use panda::datasets::{generate, DatasetFamily, GeneratorConfig};
use panda::obs;
use panda::session::{PandaSession, SessionConfig};
use std::collections::BTreeSet;

#[test]
fn snapshot_covers_the_pipeline_and_serializes() {
    obs::reset();
    obs::set_enabled(true);
    obs::set_journal_enabled(true);

    let tables = generate(
        DatasetFamily::FodorsZagats,
        &GeneratorConfig::new(5).with_entities(80),
    );
    let session = PandaSession::load(tables, SessionConfig::default());
    assert!(session.em_stats().candidate_pairs > 0);

    let snap = obs::snapshot();

    // The stage spans the ISSUE/CI contract names.
    for key in [
        "session.load",
        "blocking.candidates",
        "autolf.generate",
        "autolf.score_grid",
        "lf.matrix.apply",
        "model.panda.fit",
    ] {
        let stats = snap
            .spans
            .get(key)
            .unwrap_or_else(|| panic!("span {key:?} missing: {:?}", snap.spans.keys()));
        assert!(stats.count >= 1, "{key}: count");
        assert!(stats.min_ns <= stats.max_ns, "{key}: min/max ordering");
        assert!(stats.total_ns >= stats.max_ns, "{key}: total bounds max");
    }

    // Counters: EM telemetry (one per warm start) and cache traffic.
    assert!(
        snap.counters
            .keys()
            .filter(|k| k.starts_with("model.panda.em_iters."))
            .count()
            >= 3,
        "per-init EM iteration counters: {:?}",
        snap.counters.keys()
    );
    assert_eq!(
        snap.counters
            .keys()
            .filter(|k| k.starts_with("model.panda.chosen_init."))
            .count(),
        1,
        "exactly one chosen init"
    );
    assert!(snap.counters["text.token_cache.misses"] > 0);
    assert!(snap.counters["autolf.grid_cells"] > 0);
    assert!(snap.counters["lf.matrix.labels_computed"] > 0);

    // The JSON snapshot round-trips through an independent parser.
    let json = snap.to_json();
    let value = serde_json::parse_value(&json).expect("snapshot JSON parses");
    let spans = value.get_field("spans").expect("spans object");
    let fit = spans.get_field("model.panda.fit").expect("fit span");
    assert!(fit.get_field("count").is_some());
    assert!(fit.get_field("total_ns").is_some());
    assert!(value
        .get_field("counters")
        .and_then(|c| c.get_field("autolf.emitted"))
        .is_some());
    assert!(value.get_field("gauges").is_some());

    // Span histograms: each stage's log₂ buckets must account for every
    // recorded call.
    for (key, stats) in &snap.spans {
        let hist_total: u64 = stats.hist.iter().sum();
        assert_eq!(hist_total, stats.count, "{key}: histogram covers count");
    }

    // ── Journal: provenance events from the same run ──
    let dump = obs::journal_drain();
    assert_eq!(dump.dropped, 0, "nothing dropped at the capacity bound");
    let kinds: BTreeSet<&str> = dump.events.iter().map(|e| e.kind.as_str()).collect();
    for kind in [
        "session.loaded",
        "model.em.iter",
        "autolf.cell",
        "autolf.emit",
        "lf.apply",
        "lf.stats",
        "span",
    ] {
        assert!(
            kinds.contains(kind),
            "journal kind {kind:?} missing: {kinds:?}"
        );
    }
    // Sequence numbers are strictly increasing (process-wide emission order).
    assert!(
        dump.events.windows(2).all(|w| w[0].seq < w[1].seq),
        "journal seq strictly increasing"
    );
    // Every closed span recorded in the journal names a span the snapshot
    // aggregated — the two views describe the same run.
    for e in dump.events.iter().filter(|e| e.kind == "span") {
        let Some(obs::FieldValue::Str(name)) = e.field("name") else {
            panic!("span event without a name field");
        };
        assert!(
            snap.spans.contains_key(name),
            "journal span {name:?} in snapshot"
        );
    }
    // JSONL framing: every line re-parses as one object with a kind.
    for line in dump.to_jsonl().lines() {
        let v = serde_json::parse_value(line).unwrap_or_else(|e| panic!("bad JSONL {line:?}: {e}"));
        assert!(v.get_field("kind").is_some(), "JSONL line has kind: {line}");
    }

    // ── Naming convention (DESIGN.md §8 / crates/obs docs): every
    // registered metric name and journal event kind is dotted lower-case.
    // "span" is the one structural kind exempt from the ≥2-segment rule.
    for name in snap
        .spans
        .keys()
        .chain(snap.counters.keys())
        .chain(snap.gauges.keys())
    {
        assert!(
            obs::is_valid_metric_name(name),
            "metric name {name:?} violates the dotted naming convention"
        );
    }
    for kind in &kinds {
        assert!(
            *kind == "span" || obs::is_valid_metric_name(kind),
            "journal kind {kind:?} violates the dotted naming convention"
        );
    }

    // ── Monge-Elkan work: a dblp-scholar session's `authors_me` repeats
    // author tokens across its candidates, so its prepare scores each
    // distinct token pair once, in a vocabulary matrix with fewer cells
    // than the per-pair kernel's token pairs. The counters also render
    // and parse as Prometheus counters.
    obs::reset();
    let tables = generate(
        DatasetFamily::DblpScholar,
        &GeneratorConfig::new(5).with_entities(80),
    );
    let mut session = PandaSession::load(
        tables,
        SessionConfig {
            auto_lfs: false,
            ..SessionConfig::default()
        },
    );
    for lf in panda_bench::curated_lfs(DatasetFamily::DblpScholar) {
        session.upsert_lf(lf);
    }
    session.apply();
    let me = obs::snapshot();
    let counter = |name: &str| me.counters.get(name).copied();
    let token_pairs = counter("lf.me.token_pairs").expect("lf.me.token_pairs counted");
    let cells = counter("lf.me.matrix_cells").expect("lf.me.matrix_cells counted");
    assert!(
        0 < cells && cells < token_pairs,
        "matrix cells {cells} vs token pairs {token_pairs}"
    );
    assert_eq!(counter("lf.me.per_pair"), None, "no per-pair prepare");
    for name in ["lf.me.token_pairs", "lf.me.matrix_cells", "lf.me.per_pair"] {
        assert!(obs::is_valid_metric_name(name), "{name}");
    }
    let families = obs::prom::parse(&me.to_prometheus()).expect("exposition parses");
    for name in ["lf_me_token_pairs_total", "lf_me_matrix_cells_total"] {
        assert!(
            families
                .iter()
                .any(|f| f.name == name && f.kind == "counter"),
            "{name} exposed"
        );
    }

    // reset() empties the registry; with obs disabled nothing records.
    obs::reset();
    obs::set_enabled(false);
    obs::set_journal_enabled(false);
    {
        let _span = obs::span("model.panda.fit");
        obs::counter_add("autolf.grid_cells", 1);
        obs::event("autolf.cell").field("decision", "keep").emit();
    }
    let after = obs::snapshot();
    assert!(after.spans.is_empty(), "disabled path records no spans");
    assert!(
        after.counters.is_empty(),
        "disabled path records no counters"
    );
    assert!(
        obs::journal_drain().events.is_empty(),
        "disabled path records no journal events"
    );
}
