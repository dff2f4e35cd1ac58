//! The observability plane end-to-end, over real sockets: Prometheus
//! exposition conformance (validated by the in-tree parser), metric
//! names and label cardinality over every family the server records, request-id
//! uniqueness across shards under concurrent keep-alive load, and the
//! `/events` journal tail's cursor contract (gap-free resume, long-poll
//! wakeup, drop-oldest wraparound accounting).
//!
//! The obs registry and journal ring are process-global, so every test
//! serializes on [`obs_lock`] and sets up its own telemetry state.

use panda_serve::client::{request, Client, Reply};
use panda_serve::{Server, ServerConfig};
use serde::Value;
use std::collections::{BTreeSet, HashSet};
use std::sync::{Mutex, MutexGuard};

static OBS: Mutex<()> = Mutex::new(());

/// Serialize tests that touch the process-global obs state, and start
/// each one from a clean, fully-enabled plane.
fn obs_lock() -> MutexGuard<'static, ()> {
    let guard = OBS.lock().unwrap_or_else(|e| e.into_inner());
    panda_obs::reset();
    panda_obs::set_journal_capacity(panda_obs::DEFAULT_JOURNAL_CAPACITY);
    let _ = panda_obs::journal_drain();
    panda_obs::set_enabled(true);
    panda_obs::set_journal_enabled(true);
    guard
}

fn as_u64(v: &Value) -> u64 {
    match v {
        Value::UInt(u) => *u,
        Value::Int(i) => u64::try_from(*i).expect("non-negative"),
        other => panic!("expected integer, got {other:?}"),
    }
}

/// Parse an `/events` body into `(next, missed, events)`.
fn parse_events(body: &str) -> (u64, u64, Vec<Value>) {
    let v = serde_json::parse_value(body).expect("events body is JSON");
    let next = as_u64(v.get_field("next").expect("next cursor"));
    let missed = as_u64(v.get_field("missed").expect("missed count"));
    let events = match v.get_field("events") {
        Some(Value::Array(items)) => items.clone(),
        other => panic!("expected events array, got {other:?}"),
    };
    (next, missed, events)
}

fn event_seq(e: &Value) -> u64 {
    as_u64(e.get_field("seq").expect("event seq"))
}

#[test]
fn prometheus_exposition_from_a_live_server_is_conformant() {
    let _guard = obs_lock();
    let handle = Server::start(ServerConfig {
        workers: 2,
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr();

    // Mixed traffic so the exposition has real RED series: 200s, 404s
    // (one unrouted path, and fifty session ids through one route
    // pattern) and a 405. `routes` collects each request's expected
    // `(route, status)` labels.
    let mut routes = BTreeSet::from([("/metrics", "200"), ("/metrics", "400")]);
    let mut client = Client::connect(addr, None).unwrap();
    for _ in 0..20 {
        let reply = client.roundtrip("GET", "/healthz", "").unwrap();
        assert_eq!(reply.status, 200);
    }
    routes.insert(("/healthz", "200"));
    let Reply { status, .. } = request(addr, "GET", "/no/such/route", "", None).unwrap();
    assert_eq!(status, 404);
    routes.insert(("<unmatched>", "404"));
    let Reply { status, .. } = request(addr, "PUT", "/healthz", "", None).unwrap();
    assert_eq!(status, 405);
    routes.insert(("/healthz", "405"));
    for id in 1..=50 {
        let reply = client
            .roundtrip("GET", &format!("/sessions/{id}"), "")
            .unwrap();
        assert_eq!(reply.status, 404);
    }
    routes.insert(("/sessions/{id}", "404"));

    // Default content negotiation is JSON; ?format=prometheus switches.
    let Reply { status, body, .. } = request(addr, "GET", "/metrics", "", None).unwrap();
    assert_eq!(status, 200);
    assert!(body.starts_with('{'), "JSON default: {body}");
    let prom = request(addr, "GET", "/metrics?format=prometheus", "", None).unwrap();
    assert_eq!(prom.status, 200);
    let xml = request(addr, "GET", "/metrics?format=xml", "", None).unwrap();
    assert_eq!(xml.status, 400, "{}", xml.body);

    // The in-tree parser enforces the 0.0.4 exposition rules: TYPE
    // lines, family membership, no duplicate series, histogram bucket
    // monotonicity, +Inf/_count agreement.
    let families = panda_obs::prom::parse(&prom.body).expect("conformant exposition");
    let family = |name: &str| {
        families
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("family {name} in exposition"))
    };

    let requests = family("serve_http_requests_total");
    assert_eq!(requests.kind, "counter");
    let healthz_200 = requests
        .samples
        .iter()
        .find(|s| s.label("route") == Some("/healthz") && s.label("status") == Some("200"))
        .expect("healthz 200 series");
    assert!(healthz_200.value >= 20.0, "{}", healthz_200.value);
    assert!(
        healthz_200.label("shard").is_some(),
        "requests are shard-labelled"
    );
    assert!(requests
        .samples
        .iter()
        .any(|s| s.label("status") == Some("404")));
    assert!(requests
        .samples
        .iter()
        .any(|s| s.label("status") == Some("405")));

    let latency = family("serve_http_latency_seconds");
    assert_eq!(latency.kind, "histogram");
    let count = latency
        .samples
        .iter()
        .filter(|s| s.name.ends_with("_count"))
        .map(|s| s.value)
        .sum::<f64>();
    assert!(count >= 22.0, "latency histogram covers the traffic");

    assert_eq!(family("serve_loop_accepts_total").kind, "counter");
    assert_eq!(family("serve_loop_connections").kind, "gauge");

    handle.shutdown();
    handle.join();
    families_are_named_and_bounded(&panda_obs::snapshot(), &routes, 2);
}

/// The label keys call sites use; every value under them comes from a
/// small fixed set (route patterns, status codes, shard, follower and
/// kind indices), never from request data.
const LABEL_KEYS: [&str; 7] = [
    "route",
    "status",
    "shard",
    "kind",
    "reason",
    "direction",
    "follower",
];

/// Every family in all six snapshot sections has a conforming name and
/// only known label keys, and `serve.http.requests` holds at most one
/// series per (route pattern, status, shard) the traffic could produce.
fn families_are_named_and_bounded(
    snap: &panda_obs::Snapshot,
    routes: &BTreeSet<(&str, &str)>,
    workers: usize,
) {
    let names = snap
        .spans
        .keys()
        .chain(snap.counters.keys())
        .chain(snap.gauges.keys())
        .chain(snap.labeled_counters.keys())
        .chain(snap.labeled_gauges.keys())
        .chain(snap.labeled_hists.keys());
    for name in names {
        assert!(panda_obs::is_valid_metric_name(name), "{name:?}");
    }
    let label_sets = snap
        .labeled_counters
        .values()
        .flat_map(|f| f.keys())
        .chain(snap.labeled_gauges.values().flat_map(|f| f.keys()))
        .chain(snap.labeled_hists.values().flat_map(|f| f.keys()));
    for set in label_sets {
        for (key, _) in set {
            assert!(LABEL_KEYS.contains(&key.as_str()), "label key {key:?}");
        }
    }

    let shards: Vec<String> = (0..workers).map(|s| s.to_string()).collect();
    let triples: BTreeSet<(&str, &str, &str)> = routes
        .iter()
        .flat_map(|&(route, status)| shards.iter().map(move |s| (route, status, s.as_str())))
        .collect();
    let requests = &snap.labeled_counters["serve.http.requests"];
    for set in requests.keys() {
        let get = |key: &str| {
            set.iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
                .unwrap_or_else(|| panic!("{key} label in {set:?}"))
        };
        assert_eq!(set.len(), 3, "route, status and shard only: {set:?}");
        let triple = (get("route"), get("status"), get("shard"));
        assert!(triples.contains(&triple), "unexpected series {triple:?}");
    }
    assert!(requests.len() <= triples.len(), "{requests:?}");
    let sessions: u64 = requests
        .iter()
        .filter(|(set, _)| set.contains(&("route".to_string(), "/sessions/{id}".to_string())))
        .map(|(_, &n)| n)
        .sum();
    assert_eq!(sessions, 50, "fifty session ids, one route pattern");
}

#[test]
fn request_ids_are_unique_across_shards_under_concurrent_load() {
    let _guard = obs_lock();
    let handle = Server::start(ServerConfig {
        workers: 2,
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr();

    const CLIENTS: usize = 4;
    const REQUESTS: usize = 50;
    let collectors: Vec<_> = (0..CLIENTS)
        .map(|_| {
            std::thread::spawn(move || -> Vec<String> {
                let mut client = Client::connect(addr, None).unwrap();
                (0..REQUESTS)
                    .map(|_| {
                        let head = client.roundtrip("GET", "/healthz", "").unwrap().head;
                        let start = head
                            .find("X-Request-Id: ")
                            .expect("every response carries a request id")
                            + "X-Request-Id: ".len();
                        let end = head[start..].find("\r\n").unwrap() + start;
                        head[start..end].to_string()
                    })
                    .collect()
            })
        })
        .collect();

    let mut seen = HashSet::new();
    let mut shards = HashSet::new();
    for c in collectors {
        for rid in c.join().expect("collector thread") {
            let (shard, n) = rid.split_once('-').expect("rid is <shard>-<n>");
            shard.parse::<u64>().expect("numeric shard");
            n.parse::<u64>().expect("numeric counter");
            shards.insert(shard.to_string());
            assert!(seen.insert(rid.clone()), "duplicate request id {rid}");
        }
    }
    assert_eq!(seen.len(), CLIENTS * REQUESTS);
    // SO_REUSEPORT spreads 4 connections over 2 shards; ids from
    // different shards must still never collide (the prefix guarantees
    // it — but verify, that is the point of the test).
    assert!(!shards.is_empty());

    handle.shutdown();
    handle.join();
}

#[test]
fn events_tail_resumes_gap_free_and_correlates_request_ids() {
    let _guard = obs_lock();
    let handle = Server::start(ServerConfig {
        workers: 1,
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr();

    let mut client = Client::connect(addr, None).unwrap();
    for _ in 0..5 {
        let reply = client.roundtrip("GET", "/healthz", "").unwrap();
        assert_eq!(reply.status, 200);
    }

    let Reply { status, body, .. } = request(addr, "GET", "/events?since=0", "", None).unwrap();
    assert_eq!(status, 200);
    let (next, missed, events) = parse_events(&body);
    assert_eq!(missed, 0);
    assert!(events.len() >= 5, "{} events", events.len());
    let seqs: Vec<u64> = events.iter().map(event_seq).collect();
    assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1), "contiguous tail");
    assert_eq!(next, seqs.last().unwrap() + 1, "cursor is one past");
    // serve.request events carry the same rid the response advertised.
    let rids: Vec<&Value> = events
        .iter()
        .filter(|e| matches!(e.get_field("kind"), Some(Value::Str(k)) if k == "serve.request"))
        .map(|e| {
            e.get_field("fields")
                .and_then(|f| f.get_field("rid"))
                .expect("serve.request stamped with rid")
        })
        .collect();
    assert!(rids.len() >= 5);

    // More traffic, then resume from the cursor: no duplicates, no gaps.
    for _ in 0..3 {
        let reply = client.roundtrip("GET", "/healthz", "").unwrap();
        assert_eq!(reply.status, 200);
    }
    let Reply { status, body, .. } =
        request(addr, "GET", &format!("/events?since={next}"), "", None).unwrap();
    assert_eq!(status, 200);
    let (next2, missed, events) = parse_events(&body);
    assert_eq!(missed, 0);
    assert!(!events.is_empty());
    assert!(event_seq(&events[0]) >= next, "no replayed events");
    assert_eq!(event_seq(&events[0]), next, "no gap after the cursor");
    assert!(next2 > next);

    handle.shutdown();
    handle.join();
}

#[test]
fn events_long_poll_parks_until_new_events_arrive() {
    let _guard = obs_lock();
    let handle = Server::start(ServerConfig {
        workers: 1,
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr();

    // Park a poller at the journal head: nothing to return yet.
    let head = panda_obs::journal_next_seq();
    let poller = std::thread::spawn(move || {
        let started = std::time::Instant::now();
        let Reply { status, body, .. } = request(
            addr,
            "GET",
            &format!("/events?since={head}&timeout_ms=10000"),
            "",
            None,
        )
        .unwrap();
        (status, body, started.elapsed())
    });

    // Give the poll time to park, then generate an event.
    std::thread::sleep(std::time::Duration::from_millis(200));
    let Reply { status, .. } = request(addr, "GET", "/healthz", "", None).unwrap();
    assert_eq!(status, 200);

    let (status, body, waited) = poller.join().expect("poller thread");
    assert_eq!(status, 200);
    let (_, missed, events) = parse_events(&body);
    assert_eq!(missed, 0);
    assert!(!events.is_empty(), "woken poll returns the new events");
    assert!(events.iter().all(|e| event_seq(e) >= head));
    assert!(
        waited < std::time::Duration::from_secs(9),
        "poll was woken by the event, not its deadline ({waited:?})"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn events_wraparound_reports_missed_and_resumes_clean() {
    let _guard = obs_lock();
    panda_obs::set_journal_capacity(8);
    let handle = Server::start(ServerConfig {
        workers: 1,
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr();

    // Far more events than the ring holds: the oldest are evicted.
    let mut client = Client::connect(addr, None).unwrap();
    for _ in 0..30 {
        let reply = client.roundtrip("GET", "/healthz", "").unwrap();
        assert_eq!(reply.status, 200);
    }

    let Reply { status, body, .. } = request(addr, "GET", "/events?since=0", "", None).unwrap();
    assert_eq!(status, 200);
    let (next, missed, events) = parse_events(&body);
    assert!(missed > 0, "ring wrapped; the tail must say so");
    assert!(events.len() <= 8, "at most the ring window");
    let seqs: Vec<u64> = events.iter().map(event_seq).collect();
    assert!(
        seqs.windows(2).all(|w| w[1] == w[0] + 1),
        "window is contiguous"
    );
    assert_eq!(next, seqs.last().unwrap() + 1);

    // Resuming from the returned cursor is gap-free (nothing evicted
    // from under an up-to-date cursor while traffic is stopped).
    let Reply { status, body, .. } =
        request(addr, "GET", &format!("/events?since={next}"), "", None).unwrap();
    assert_eq!(status, 200);
    let (_, missed, _) = parse_events(&body);
    assert_eq!(missed, 0, "fresh cursor sees no further loss");

    panda_obs::set_journal_capacity(panda_obs::DEFAULT_JOURNAL_CAPACITY);
    handle.shutdown();
    handle.join();
}
