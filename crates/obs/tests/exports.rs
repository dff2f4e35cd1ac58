//! Golden exports: one fixed sequence of recording calls, and the exact
//! bytes of every export of the snapshot it leaves — `to_json`,
//! `to_prometheus`, both `render` report modes — plus an empty
//! snapshot's JSON.
//!
//! The sequence covers every recording call and the registry's corner
//! cases: one name that is a counter, a gauge and a span at once;
//! families with both an unlabelled and a labelled series; reversed
//! label order (the same series); label values holding `\`, `"` and a
//! newline; NaN, ±inf and integral gauges; a 0 ns observation and
//! observations past 2³¹ ns (the open-ended last bucket). Any change to
//! how the registry stores a series or how a section is written moves a
//! string here.
//!
//! The registry is process-global, so this is its own test binary and
//! records from one `#[test]`.

use panda_obs::{self as obs, LogMode, Snapshot, SpanStats, HIST_BUCKETS};

/// What a span guard records is wall time, so the test checks that the
/// guard recorded exactly one run and then pins that run to `ns` (which
/// falls in log₂ bucket `bucket`) before exporting.
fn pin_span(snap: &mut Snapshot, name: &str, ns: u128, bucket: usize) {
    let s = snap.spans.get_mut(name).expect("span recorded");
    assert_eq!(s.count, 1, "{name}");
    assert_eq!((s.min_ns, s.max_ns), (s.total_ns, s.total_ns), "{name}");
    assert_eq!(s.hist.iter().sum::<u64>(), 1, "{name}");
    let mut hist = [0u64; HIST_BUCKETS];
    hist[bucket] = 1;
    *s = SpanStats {
        count: 1,
        total_ns: ns,
        min_ns: ns,
        max_ns: ns,
        hist,
    };
}

/// The fixed op sequence, recorded into a fresh registry.
fn recorded() -> Snapshot {
    obs::reset();
    obs::set_enabled(true);

    // One name, three kinds: each kind keeps its own series.
    obs::counter_add("stage.shared", 3);
    obs::counter_add("stage.shared", 4);
    obs::gauge_set("stage.shared", 2.5);
    drop(obs::span("stage.shared"));

    // A counter family with an unlabelled and labelled series; the
    // reversed label order adds to the same series.
    obs::counter_add("serve.http.requests", 9);
    let ok = [("route", "/healthz"), ("status", "200")];
    obs::counter_add_labeled("serve.http.requests", &ok, 2);
    obs::counter_add_labeled("serve.http.requests", &[ok[1], ok[0]], 3);
    obs::counter_add_labeled(
        "serve.http.requests",
        &[("status", "404"), ("route", "<unmatched>")],
        1,
    );
    obs::counter_add_labeled(
        "serve.http.requests",
        &[("route", "a\\b\"c\nd"), ("status", "400")],
        1,
    );
    obs::counter_add_labeled("repl.shipped", &[("kind", "record")], 5);

    // Gauges: non-finite, integral and fractional values, last write
    // wins, and adds that start a series from zero.
    obs::gauge_set("gauge.nan", f64::NAN);
    obs::gauge_set("gauge.pos_inf", f64::INFINITY);
    obs::gauge_set("gauge.neg_inf", f64::NEG_INFINITY);
    obs::gauge_set("gauge.integral", 7.0);
    obs::gauge_set("gauge.integral", 42.0);
    obs::gauge_set("gauge.fraction", 0.125);
    obs::gauge_set("serve.loop.connections", 1.0);
    obs::gauge_set_labeled("serve.loop.connections", &[("shard", "0")], 4.0);
    obs::gauge_add_labeled("serve.loop.connections", &[("shard", "0")], -1.5);
    obs::gauge_add_labeled("serve.loop.connections", &[("shard", "1")], 2.0);
    obs::gauge_add_labeled("serve.loop.connections", &[("shard", "1")], 1.0);
    obs::gauge_set_labeled("repl.apply_lag", &[("follower", "0")], f64::NAN);
    obs::gauge_set_labeled("repl.apply_lag", &[("follower", "1")], f64::INFINITY);
    obs::gauge_set_labeled("repl.apply_lag", &[("follower", "2")], f64::NEG_INFINITY);
    obs::gauge_set_labeled("repl.apply_lag", &[("follower", "3")], 12.0);

    // Histograms: a span and a labelled family under one name, 0 ns,
    // exactly 2³¹ ns and far past it, and escaped label values.
    drop(obs::span("serve.http.latency"));
    obs::hist_record_labeled("serve.http.latency", &ok, 0);
    obs::hist_record_labeled("serve.http.latency", &[ok[1], ok[0]], 1 << 31);
    obs::hist_record_labeled("serve.http.latency", &ok, 5_000);
    obs::hist_record_labeled(
        "serve.http.latency",
        &[("route", "/match"), ("status", "200")],
        3_000_000_000_000,
    );
    obs::hist_record_labeled(
        "serve.http.latency",
        &[("route", "a\\b\"c\nd"), ("status", "400")],
        700,
    );
    obs::hist_record_labeled("serve.loop.reuse_depth", &[("shard", "0")], 3);
    drop(obs::span("session.fit"));

    let snap = obs::snapshot();

    // Disabled, every call is a no-op.
    obs::set_enabled(false);
    obs::counter_add("stage.shared", 1);
    obs::gauge_set("gauge.off", 1.0);
    obs::counter_add_labeled("serve.http.requests", &ok, 1);
    obs::gauge_set_labeled("serve.loop.connections", &[("shard", "0")], 0.0);
    obs::gauge_add_labeled("serve.loop.connections", &[("shard", "0")], 1.0);
    obs::hist_record_labeled("serve.http.latency", &ok, 1);
    drop(obs::span("stage.off"));
    // `Debug`, not `==`: a NaN gauge never equals itself.
    assert_eq!(
        format!("{:?}", obs::snapshot()),
        format!("{snap:?}"),
        "disabled calls recorded"
    );

    let mut snap = snap;
    pin_span(&mut snap, "stage.shared", 1_500, 10);
    pin_span(&mut snap, "serve.http.latency", 0, 0);
    pin_span(&mut snap, "session.fit", 3_000_000_000, HIST_BUCKETS - 1);
    snap
}

#[test]
fn every_export_is_byte_identical() {
    let snap = recorded();
    let exports = [
        ("JSON", snap.to_json(), JSON),
        ("PROMETHEUS", snap.to_prometheus(), PROMETHEUS),
        ("SUMMARY", snap.render(LogMode::Summary), SUMMARY),
        ("SPANS", snap.render(LogMode::Spans), SPANS),
        ("EMPTY_JSON", Snapshot::default().to_json(), EMPTY_JSON),
    ];
    let moved: Vec<String> = exports
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(what, got, _)| format!("{what}:\n{got}"))
        .collect();
    assert!(moved.is_empty(), "exports moved:\n{}", moved.join("\n"));
}

/// `Snapshot::to_json` of the recorded snapshot.
const JSON: &str = r#"{
  "spans": {
    "serve.http.latency": {"count": 1, "total_ns": 0, "min_ns": 0, "max_ns": 0, "hist": [[0, 1]]},
    "session.fit": {"count": 1, "total_ns": 3000000000, "min_ns": 3000000000, "max_ns": 3000000000, "hist": [[31, 1]]},
    "stage.shared": {"count": 1, "total_ns": 1500, "min_ns": 1500, "max_ns": 1500, "hist": [[10, 1]]}
  },
  "counters": {
    "serve.http.requests": 9,
    "stage.shared": 7
  },
  "gauges": {
    "gauge.fraction": 0.125,
    "gauge.integral": 42.0,
    "gauge.nan": null,
    "gauge.neg_inf": null,
    "gauge.pos_inf": null,
    "serve.loop.connections": 1.0,
    "stage.shared": 2.5
  },
  "labeled_counters": {
    "repl.shipped": [{"labels": {"kind": "record"}, "value": 5}],
    "serve.http.requests": [{"labels": {"route": "/healthz", "status": "200"}, "value": 5}, {"labels": {"route": "<unmatched>", "status": "404"}, "value": 1}, {"labels": {"route": "a\\b\"c\nd", "status": "400"}, "value": 1}]
  },
  "labeled_gauges": {
    "repl.apply_lag": [{"labels": {"follower": "0"}, "value": null}, {"labels": {"follower": "1"}, "value": null}, {"labels": {"follower": "2"}, "value": null}, {"labels": {"follower": "3"}, "value": 12.0}],
    "serve.loop.connections": [{"labels": {"shard": "0"}, "value": 2.5}, {"labels": {"shard": "1"}, "value": 3.0}]
  },
  "labeled_hists": {
    "serve.http.latency": [{"labels": {"route": "/healthz", "status": "200"}, "count": 3, "total_ns": 2147488648, "min_ns": 0, "max_ns": 2147483648, "hist": [[0, 1], [12, 1], [31, 1]]}, {"labels": {"route": "/match", "status": "200"}, "count": 1, "total_ns": 3000000000000, "min_ns": 3000000000000, "max_ns": 3000000000000, "hist": [[31, 1]]}, {"labels": {"route": "a\\b\"c\nd", "status": "400"}, "count": 1, "total_ns": 700, "min_ns": 700, "max_ns": 700, "hist": [[9, 1]]}],
    "serve.loop.reuse_depth": [{"labels": {"shard": "0"}, "count": 1, "total_ns": 3, "min_ns": 3, "max_ns": 3, "hist": [[1, 1]]}]
  }
}
"#;

/// `Snapshot::to_prometheus` of the recorded snapshot.
const PROMETHEUS: &str = r#"# TYPE repl_shipped_total counter
repl_shipped_total{kind="record"} 5
# TYPE serve_http_requests_total counter
serve_http_requests_total 9
serve_http_requests_total{route="/healthz",status="200"} 5
serve_http_requests_total{route="<unmatched>",status="404"} 1
serve_http_requests_total{route="a\\b\"c\nd",status="400"} 1
# TYPE stage_shared_total counter
stage_shared_total 7
# TYPE gauge_fraction gauge
gauge_fraction 0.125
# TYPE gauge_integral gauge
gauge_integral 42
# TYPE gauge_nan gauge
gauge_nan NaN
# TYPE gauge_neg_inf gauge
gauge_neg_inf -Inf
# TYPE gauge_pos_inf gauge
gauge_pos_inf +Inf
# TYPE repl_apply_lag gauge
repl_apply_lag{follower="0"} NaN
repl_apply_lag{follower="1"} +Inf
repl_apply_lag{follower="2"} -Inf
repl_apply_lag{follower="3"} 12
# TYPE serve_loop_connections gauge
serve_loop_connections 1
serve_loop_connections{shard="0"} 2.5
serve_loop_connections{shard="1"} 3
# TYPE stage_shared gauge
stage_shared 2.5
# TYPE serve_http_latency_seconds histogram
serve_http_latency_seconds_bucket{le="0.000000002"} 1
serve_http_latency_seconds_bucket{le="+Inf"} 1
serve_http_latency_seconds_sum 0
serve_http_latency_seconds_count 1
serve_http_latency_seconds_bucket{route="/healthz",status="200",le="0.000000002"} 1
serve_http_latency_seconds_bucket{route="/healthz",status="200",le="0.000008192"} 2
serve_http_latency_seconds_bucket{route="/healthz",status="200",le="+Inf"} 3
serve_http_latency_seconds_sum{route="/healthz",status="200"} 2.147488648
serve_http_latency_seconds_count{route="/healthz",status="200"} 3
serve_http_latency_seconds_bucket{route="/match",status="200",le="+Inf"} 1
serve_http_latency_seconds_sum{route="/match",status="200"} 3000
serve_http_latency_seconds_count{route="/match",status="200"} 1
serve_http_latency_seconds_bucket{route="a\\b\"c\nd",status="400",le="0.000001024"} 1
serve_http_latency_seconds_bucket{route="a\\b\"c\nd",status="400",le="+Inf"} 1
serve_http_latency_seconds_sum{route="a\\b\"c\nd",status="400"} 0.0000007
serve_http_latency_seconds_count{route="a\\b\"c\nd",status="400"} 1
# TYPE serve_loop_reuse_depth_seconds histogram
serve_loop_reuse_depth_seconds_bucket{shard="0",le="0.000000004"} 1
serve_loop_reuse_depth_seconds_bucket{shard="0",le="+Inf"} 1
serve_loop_reuse_depth_seconds_sum{shard="0"} 0.000000003
serve_loop_reuse_depth_seconds_count{shard="0"} 1
# TYPE session_fit_seconds histogram
session_fit_seconds_bucket{le="+Inf"} 1
session_fit_seconds_sum 3
session_fit_seconds_count 1
# TYPE stage_shared_seconds histogram
stage_shared_seconds_bucket{le="0.000002048"} 1
stage_shared_seconds_bucket{le="+Inf"} 1
stage_shared_seconds_sum 0.0000015
stage_shared_seconds_count 1
"#;

/// `Snapshot::render(LogMode::Summary)`: the `PANDA_LOG=summary` report.
const SUMMARY: &str = r#"spans:
  serve.http.latency  n=1      total=     0.000ms
  session.fit         n=1      total=  3000.000ms
  stage.shared        n=1      total=     0.002ms
counters:
  serve.http.requests  9
  stage.shared         7
gauges:
  gauge.fraction          0.125000
  gauge.integral          42.000000
  gauge.nan               NaN
  gauge.neg_inf           -inf
  gauge.pos_inf           inf
  serve.loop.connections  1.000000
  stage.shared            2.500000
"#;

/// `Snapshot::render(LogMode::Spans)`: the `PANDA_LOG=spans` report.
const SPANS: &str = r#"spans:
  serve.http.latency  n=1      total=     0.000ms  min=    0.000ms  mean=    0.000ms  max=    0.000ms  █
  session.fit         n=1      total=  3000.000ms  min= 3000.000ms  mean= 3000.000ms  max= 3000.000ms  █
  stage.shared        n=1      total=     0.002ms  min=    0.002ms  mean=    0.002ms  max=    0.002ms  █
counters:
  serve.http.requests  9
  stage.shared         7
gauges:
  gauge.fraction          0.125000
  gauge.integral          42.000000
  gauge.nan               NaN
  gauge.neg_inf           -inf
  gauge.pos_inf           inf
  serve.loop.connections  1.000000
  stage.shared            2.500000
"#;

/// `Snapshot::default().to_json()`.
const EMPTY_JSON: &str = r#"{
  "spans": {},
  "counters": {},
  "gauges": {},
  "labeled_counters": {},
  "labeled_gauges": {},
  "labeled_hists": {}
}
"#;
