//! **Serve benchmark** — closed-loop load generator against an
//! in-process `panda-serve` instance.
//!
//! Boots the server on an ephemeral port, loads one session (incremental
//! LF add + fit), then drives request classes with `CLIENTS` closed-loop
//! client threads each, in three connection modes:
//!
//! * **keep-alive** (headline cases `healthz`, `match_single_pair`,
//!   `query_debug`) — one persistent connection per client, one request
//!   in flight at a time: the steady-state interactive-IDE shape;
//! * **pipelined** (`healthz_pipelined`) — [`PIPELINE_DEPTH`] requests
//!   written back-to-back per batch before reading the responses,
//!   measuring how deeply the event loop amortizes syscalls;
//! * **connection-per-request** (`*_connclose` cases) — the historic
//!   shape, kept so the old-vs-new comparison stays honest.
//!
//! Reports throughput and p50/p95/p99 latency per case and writes the
//! committed `BENCH_serve.json` snapshot.
//!
//! Set `PANDA_BENCH_STATE_DIR=<dir>` to run the server with the durable
//! session store attached and add an `lf_upsert_durable` case (one WAL
//! append + fsync per request) — measuring the durability tax without
//! touching the committed default-mode snapshot. Durable mode also
//! boots a second topology — a primary shipping its WAL to an
//! in-process follower — and drives `lf_upsert_replicated` (the same
//! write path with record shipping live) plus `follower_read_match`
//! (keep-alive `/match` answered by the follower's replica).
//!
//! Run: `cargo run --release -p panda-bench --bin bench_serve`

use panda_serve::client::{self, Client};
use panda_serve::{Server, ServerConfig};
use std::net::SocketAddr;
use std::time::Instant;

/// Closed-loop clients per case.
const CLIENTS: usize = 4;
/// Requests per client for connection-per-request cases (connect cost
/// dominates, so fewer suffice for a stable estimate).
const REQUESTS_CONNCLOSE: usize = 150;
/// Requests per client for keep-alive cases.
const REQUESTS_KEEPALIVE: usize = 2000;
/// Requests written back-to-back per pipelined batch.
const PIPELINE_DEPTH: usize = 16;
/// Batches per client for the pipelined case.
const PIPELINE_BATCHES: usize = 125;

/// Create session 1 on `addr`, add one LF incrementally and fit.
fn load_session(addr: SocketAddr, create: &str, lf: &str) {
    for (path, body) in [
        ("/sessions", create),
        ("/sessions/1/lfs", lf),
        ("/sessions/1/fit", ""),
    ] {
        let reply = client::request(addr, "POST", path, body, None).expect(path);
        assert_eq!(reply.status, 200, "POST {path}: {}", reply.body);
    }
}

/// A product-matching table pair large enough that session requests do
/// real work (blocking yields a few hundred candidates).
fn demo_csvs() -> (String, String) {
    let brands = [
        "acme", "zenith", "orion", "vertex", "nimbus", "quartz", "ember", "cobalt", "argon",
        "helix", "lumen", "strata", "pivot", "crest", "fable", "garnet",
    ];
    let kinds = ["widget", "gadget", "sprocket", "fixture"];
    let mut left = String::from("id,name,price\n");
    let mut right = String::from("id,name,price\n");
    let mut row = 0usize;
    for brand in &brands {
        for kind in &kinds {
            left.push_str(&format!(
                "{row},{brand} turbo {kind} model {row},{}\n",
                100 + row * 3
            ));
            right.push_str(&format!(
                "{row},{brand} {kind} turbo mk {row},{}\n",
                101 + row * 3
            ));
            row += 1;
        }
    }
    (left, right)
}

#[derive(Clone, Copy)]
enum Mode {
    /// Fresh connection per request (the historic shape).
    ConnClose,
    /// One persistent connection per client, one request in flight.
    KeepAlive,
    /// One persistent connection per client, `PIPELINE_DEPTH` requests
    /// written before the responses are read back.
    Pipelined,
}

struct CaseResult {
    name: &'static str,
    requests: usize,
    elapsed_s: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
}

impl CaseResult {
    fn throughput(&self) -> f64 {
        self.requests as f64 / self.elapsed_s
    }
}

fn percentile(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx] as f64 / 1_000.0
}

/// Run one request class closed-loop and collect latencies. Pipelined
/// latencies are whole-batch round trips divided by the depth (per-
/// request cost, not per-request wait).
fn run_case(
    name: &'static str,
    addr: SocketAddr,
    method: &'static str,
    path: String,
    body: String,
    mode: Mode,
) -> CaseResult {
    // Warm-up outside the measurement.
    let reply = client::request(addr, method, &path, &body, None).expect(name);
    assert_eq!(reply.status, 200, "{name}: {}", reply.body);

    let started = Instant::now();
    let mut handles = Vec::new();
    for _ in 0..CLIENTS {
        let path = path.clone();
        let body = body.clone();
        handles.push(std::thread::spawn(move || match mode {
            Mode::ConnClose => {
                let mut latencies_ns = Vec::with_capacity(REQUESTS_CONNCLOSE);
                for _ in 0..REQUESTS_CONNCLOSE {
                    let t = Instant::now();
                    let reply = client::request(addr, method, &path, &body, None).expect(name);
                    latencies_ns.push(t.elapsed().as_nanos() as u64);
                    assert_eq!(reply.status, 200, "{name}: non-200 under load");
                }
                latencies_ns
            }
            Mode::KeepAlive => {
                let mut client = Client::connect(addr, None).expect("connect");
                let mut latencies_ns = Vec::with_capacity(REQUESTS_KEEPALIVE);
                for _ in 0..REQUESTS_KEEPALIVE {
                    let t = Instant::now();
                    let reply = client.roundtrip(method, &path, &body).expect(name);
                    latencies_ns.push(t.elapsed().as_nanos() as u64);
                    assert_eq!(reply.status, 200, "{name}: non-200 under load");
                }
                latencies_ns
            }
            Mode::Pipelined => {
                let mut client = Client::connect(addr, None).expect("connect");
                let mut latencies_ns = Vec::with_capacity(PIPELINE_BATCHES * PIPELINE_DEPTH);
                for _ in 0..PIPELINE_BATCHES {
                    let t = Instant::now();
                    for _ in 0..PIPELINE_DEPTH {
                        client.send(method, &path, &body);
                    }
                    // The first read writes the whole batch in one write.
                    for _ in 0..PIPELINE_DEPTH {
                        let reply = client.read_response().expect(name);
                        assert_eq!(reply.status, 200, "{name}: non-200 under load");
                    }
                    let per_request = t.elapsed().as_nanos() as u64 / PIPELINE_DEPTH as u64;
                    latencies_ns.extend(std::iter::repeat_n(per_request, PIPELINE_DEPTH));
                }
                latencies_ns
            }
        }));
    }
    let mut all: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let elapsed_s = started.elapsed().as_secs_f64();
    all.sort_unstable();
    CaseResult {
        name,
        requests: all.len(),
        elapsed_s,
        p50_us: percentile(&all, 0.50),
        p95_us: percentile(&all, 0.95),
        p99_us: percentile(&all, 0.99),
    }
}

fn main() {
    let workers = panda_exec::worker_count();
    let state_dir = std::env::var_os("PANDA_BENCH_STATE_DIR").map(std::path::PathBuf::from);
    let handle = Server::start(ServerConfig {
        workers,
        state_dir: state_dir.clone(),
        ..Default::default()
    })
    .expect("start server");
    let addr = handle.addr();

    // One session for the whole run: create, add an LF incrementally, fit.
    let (left_csv, right_csv) = demo_csvs();
    let create = format!(
        r#"{{"left_csv":{},"right_csv":{},"config":{{"auto_lfs":false}}}}"#,
        serde_json::to_string(&left_csv).unwrap(),
        serde_json::to_string(&right_csv).unwrap()
    );
    let lf = r#"{"name":"name_overlap","kind":"similarity","attr":"name","upper":0.5,"lower":0.1}"#;
    load_session(addr, &create, lf);

    let match_body = r#"{"session":1,"pairs":[[3,3]]}"#;
    let query_body = r#"{"lf":"name_overlap","query":"VotedMatch","limit":10}"#;
    let mut cases = vec![
        // Headline cases ride persistent connections — the shape the
        // interactive IDE loop (and any sane client library) uses.
        run_case(
            "healthz",
            addr,
            "GET",
            "/healthz".into(),
            String::new(),
            Mode::KeepAlive,
        ),
        run_case(
            "match_single_pair",
            addr,
            "POST",
            "/match".into(),
            match_body.into(),
            Mode::KeepAlive,
        ),
        run_case(
            "query_debug",
            addr,
            "POST",
            "/sessions/1/query".into(),
            query_body.into(),
            Mode::KeepAlive,
        ),
        run_case(
            "healthz_pipelined",
            addr,
            "GET",
            "/healthz".into(),
            String::new(),
            Mode::Pipelined,
        ),
        // Connection-per-request variants keep the old numbers comparable.
        run_case(
            "healthz_connclose",
            addr,
            "GET",
            "/healthz".into(),
            String::new(),
            Mode::ConnClose,
        ),
        run_case(
            "match_single_pair_connclose",
            addr,
            "POST",
            "/match".into(),
            match_body.into(),
            Mode::ConnClose,
        ),
    ];
    if state_dir.is_some() {
        // Re-upserting the same LF recomputes one matrix column and WAL-
        // logs (append + fsync) every request: the durability hot path.
        cases.push(run_case(
            "lf_upsert_durable",
            addr,
            "POST",
            "/sessions/1/lfs".into(),
            lf.to_string(),
            Mode::KeepAlive,
        ));

        // Replication topology: a second primary (its own state dir and
        // replication listener) with an in-process follower subscribed.
        // `lf_upsert_replicated` is the durable write path with record
        // shipping live — its gap to `lf_upsert_durable` is the
        // replication tax bench_gate holds a line on — and
        // `follower_read_match` is read throughput off the replica.
        let repl_dir =
            std::env::temp_dir().join(format!("panda-bench-repl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&repl_dir);
        let primary = Server::start(ServerConfig {
            workers,
            state_dir: Some(repl_dir.clone()),
            repl_addr: Some("127.0.0.1:0".into()),
            ..Default::default()
        })
        .expect("start replicated primary");
        let paddr = primary.addr();
        let follower = Server::start(ServerConfig {
            workers,
            follow: Some(primary.repl_addr().expect("repl addr").to_string()),
            ..Default::default()
        })
        .expect("start follower");
        let faddr = follower.addr();

        load_session(paddr, &create, lf);
        // The follower must hold the full session (seq 3) before its
        // read case runs.
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let listing = client::request(faddr, "GET", "/sessions", "", None);
            let body = listing.expect("follower listing").body;
            if body.contains("\"wal_seq\":3") {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "follower never caught up: {body}"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }

        cases.push(run_case(
            "lf_upsert_replicated",
            paddr,
            "POST",
            "/sessions/1/lfs".into(),
            lf.to_string(),
            Mode::KeepAlive,
        ));
        cases.push(run_case(
            "follower_read_match",
            faddr,
            "POST",
            "/match".into(),
            match_body.into(),
            Mode::KeepAlive,
        ));

        primary.shutdown();
        primary.join();
        follower.shutdown();
        follower.join();
        let _ = std::fs::remove_dir_all(&repl_dir);
    }

    println!(
        "bench_serve: {workers} workers, {CLIENTS} closed-loop clients \
         ({REQUESTS_KEEPALIVE} keep-alive / {REQUESTS_CONNCLOSE} conn-close requests each, \
         pipeline depth {PIPELINE_DEPTH})"
    );
    let mut case_json = Vec::new();
    for c in &cases {
        println!(
            "  {:<28} {:>7.0} req/s   p50 {:>8.1} µs   p95 {:>8.1} µs   p99 {:>8.1} µs",
            c.name,
            c.throughput(),
            c.p50_us,
            c.p95_us,
            c.p99_us
        );
        case_json.push(format!(
            concat!(
                "    {{\"case\": \"{}\", \"requests\": {}, \"throughput_rps\": {:.1}, ",
                "\"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p99_us\": {:.1}}}"
            ),
            c.name,
            c.requests,
            c.throughput(),
            c.p50_us,
            c.p95_us,
            c.p99_us
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"serve_closed_loop\",\n  \"config\": {{\"workers\": {workers}, \
         \"clients\": {CLIENTS}, \"requests_per_client_keepalive\": {REQUESTS_KEEPALIVE}, \
         \"requests_per_client_connclose\": {REQUESTS_CONNCLOSE}, \
         \"pipeline_depth\": {PIPELINE_DEPTH}}},\n  \
         \"cases\": [\n{}\n  ]\n}}\n",
        case_json.join(",\n")
    );
    if state_dir.is_none() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
        std::fs::write(path, &json).expect("write BENCH_serve.json");
        println!("wrote {path}");
    } else {
        println!("durable mode (PANDA_BENCH_STATE_DIR set): BENCH_serve.json left untouched");
    }

    let reply = client::request(addr, "POST", "/shutdown", "", None).expect("shutdown");
    assert_eq!(reply.status, 200);
    handle.join();
}
