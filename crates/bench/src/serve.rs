//! The closed-loop load generator behind `BENCH_serve.json`'s lines and
//! `bench_gate`'s overhead ratios: a fresh in-process topology, one
//! session on the demo tables, one request class from its client threads,
//! each sending its next request only after the last answer.

use panda_serve::client::{self, Client, Reply};
use panda_serve::{Server, ServerConfig, ServerHandle};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Closed-loop client threads of the serve lines' request classes.
/// Closed-loop throughput depends on the offered concurrency, so the
/// client count is part of a class, as recorded with its line.
const CLIENTS: usize = 4;
/// Requests written back-to-back per pipelined batch.
const PIPELINE_DEPTH: usize = 16;

/// How each client sends its requests.
#[derive(Clone, Copy, Debug)]
pub enum Mode {
    /// `n` requests, each on a fresh connection.
    ConnClose(usize),
    /// `n` requests on one persistent connection, one in flight.
    KeepAlive(usize),
    /// `n` batches on one persistent connection, each batch's
    /// [`PIPELINE_DEPTH`] requests written before its answers are read.
    Pipelined(usize),
}

/// One request class.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    pub method: &'static str,
    pub path: &'static str,
    pub body: &'static str,
    /// Closed-loop client threads, each sending `mode`'s requests.
    pub clients: usize,
    pub mode: Mode,
}

/// The LF the session is built with, and the body a durable write
/// re-upserts: each one recomputes one matrix column and logs one record.
const LF: &str =
    r#"{"name":"name_overlap","kind":"similarity","attr":"name","upper":0.5,"lower":0.1}"#;

/// Keep-alive `/healthz`: the serving path with no handler work.
pub const HEALTHZ: Request = Request {
    method: "GET",
    path: "/healthz",
    body: "",
    clients: CLIENTS,
    mode: Mode::KeepAlive(2000),
};
/// Keep-alive `/match` of one pair.
pub(crate) const MATCH: Request = Request {
    method: "POST",
    path: "/match",
    body: r#"{"session":1,"pairs":[[3,3]]}"#,
    clients: CLIENTS,
    mode: Mode::KeepAlive(2000),
};
/// Keep-alive debugging query of ten rows.
pub(crate) const QUERY: Request = Request {
    method: "POST",
    path: "/sessions/1/query",
    body: r#"{"lf":"name_overlap","query":"VotedMatch","limit":10}"#,
    clients: CLIENTS,
    mode: Mode::KeepAlive(2000),
};
/// Keep-alive LF re-upsert from 2 clients. On a durable store each one
/// costs a WAL append and an fsync, so a client sends 250, not 2000.
pub const LF_UPSERT: Request = Request {
    method: "POST",
    path: "/sessions/1/lfs",
    body: LF,
    clients: 2,
    mode: Mode::KeepAlive(250),
};

/// Where a request class runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Store {
    /// One server holding its sessions in memory.
    Memory,
    /// One server with a state dir: every write is appended and fsynced.
    Durable,
    /// A durable primary shipping every record to an in-process follower,
    /// which replays it on the same cores.
    Replicated,
}

/// What one closed-loop run of a request class measured.
#[derive(Clone, Copy, Debug)]
pub struct Load {
    /// Requests per second over the run.
    pub rps: f64,
    /// Per-request latency p50, p95 and p99 in µs. A pipelined request's
    /// latency is its batch's round trip ÷ [`PIPELINE_DEPTH`].
    pub latency_us: [f64; 3],
}

/// One closed-loop run of `request` on a fresh `store` topology with
/// `workers` shards per server and the observability plane (labelled
/// metrics and the journal ring) on or off.
pub fn run(request: &Request, workers: usize, store: Store, obs: bool) -> Result<Load, String> {
    panda_obs::set_enabled(obs);
    panda_obs::set_journal_enabled(obs);
    let topology = Topology::start(workers, store)?;
    let load = topology
        .load_session()
        .and_then(|()| drive(topology.primary.addr(), *request));
    topology.stop();
    panda_obs::set_journal_enabled(false);
    load
}

/// A primary and, when replicated, its follower.
struct Topology {
    primary: ServerHandle,
    follower: Option<ServerHandle>,
    state_dir: Option<PathBuf>,
}

impl Topology {
    fn start(workers: usize, store: Store) -> Result<Topology, String> {
        let state_dir = (store != Store::Memory)
            .then(|| std::env::temp_dir().join(format!("panda-bench-{}", std::process::id())));
        if let Some(dir) = &state_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let primary = Server::start(ServerConfig {
            workers,
            state_dir: state_dir.clone(),
            repl_addr: (store == Store::Replicated).then(|| "127.0.0.1:0".into()),
            ..Default::default()
        })
        .map_err(|e| format!("cannot start primary: {e}"))?;
        let follower = match primary.repl_addr() {
            Some(repl) => Some(
                Server::start(ServerConfig {
                    workers,
                    follow: Some(repl.to_string()),
                    ..Default::default()
                })
                .map_err(|e| format!("cannot start follower: {e}"))?,
            ),
            None => None,
        };
        Ok(Topology {
            primary,
            follower,
            state_dir,
        })
    }

    /// Create session 1 on the primary from the demo tables (no auto LFs)
    /// and add [`LF`]. In memory the 64-row pair is then fitted, so
    /// session requests do real work. A durable store gets the 8-row pair
    /// unfitted, so a write's fsync, not its column, dominates; a
    /// follower must then hold both records, or a replicated run would
    /// measure an unreplicated prefix.
    fn load_session(&self) -> Result<(), String> {
        let durable = self.state_dir.is_some();
        let (left, right) = if durable {
            demo_csvs(8, 1)
        } else {
            demo_csvs(16, 4)
        };
        let create = format!(
            r#"{{"left_csv":{},"right_csv":{},"config":{{"auto_lfs":false}}}}"#,
            serde_json::to_string(&left).map_err(|e| e.to_string())?,
            serde_json::to_string(&right).map_err(|e| e.to_string())?
        );
        let addr = self.primary.addr();
        let steps = [
            ("/sessions", create.as_str()),
            ("/sessions/1/lfs", LF),
            ("/sessions/1/fit", ""),
        ];
        for (path, body) in &steps[..if durable { 2 } else { 3 }] {
            ok(
                client::request(addr, "POST", path, body, None),
                "POST",
                path,
            )?;
        }
        let Some(follower) = &self.follower else {
            return Ok(());
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let listing = client::request(follower.addr(), "GET", "/sessions", "", None);
            let body = listing.map_err(|e| format!("follower: {e}"))?.body;
            if body.contains("\"wal_seq\":2") {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(format!("follower never caught up: {body}"));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn stop(self) {
        for server in std::iter::once(self.primary).chain(self.follower) {
            server.shutdown();
            server.join();
        }
        if let Some(dir) = self.state_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// A product-matching table pair of `brands` (up to 16) × `kinds` (up to
/// 4) rows. At full size session requests do real work: blocking yields a
/// few hundred candidates.
fn demo_csvs(brands: usize, kinds: usize) -> (String, String) {
    const BRANDS: [&str; 16] = [
        "acme", "zenith", "orion", "vertex", "nimbus", "quartz", "ember", "cobalt", "argon",
        "helix", "lumen", "strata", "pivot", "crest", "fable", "garnet",
    ];
    const KINDS: [&str; 4] = ["widget", "gadget", "sprocket", "fixture"];
    let mut left = String::from("id,name,price\n");
    let mut right = String::from("id,name,price\n");
    let mut row = 0usize;
    for brand in &BRANDS[..brands] {
        for kind in &KINDS[..kinds] {
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

/// `reply` as an error unless it is a 200.
fn ok(reply: std::io::Result<Reply>, method: &str, path: &str) -> Result<(), String> {
    match reply {
        Ok(reply) if reply.status == 200 => Ok(()),
        Ok(reply) => Err(format!("{method} {path}: {} {}", reply.status, reply.body)),
        Err(e) => Err(format!("{method} {path}: {e}")),
    }
}

/// One warm-up request, then `request` from its closed-loop clients;
/// every answer must be a 200.
fn drive(addr: SocketAddr, request: Request) -> Result<Load, String> {
    let Request {
        method,
        path,
        body,
        clients,
        mode,
    } = request;
    ok(
        client::request(addr, method, path, body, None),
        method,
        path,
    )?;
    let started = Instant::now();
    let clients: Vec<_> = (0..clients)
        .map(|_| {
            // Each client's per-request latencies in ns.
            std::thread::spawn(move || -> Result<Vec<f64>, String> {
                let connect = || Client::connect(addr, None).map_err(|e| format!("connect: {e}"));
                let ns = |t: Instant| t.elapsed().as_nanos() as f64;
                let mut latencies = Vec::new();
                match mode {
                    Mode::ConnClose(n) => {
                        for _ in 0..n {
                            let t = Instant::now();
                            let reply = client::request(addr, method, path, body, None);
                            ok(reply, method, path)?;
                            latencies.push(ns(t));
                        }
                    }
                    Mode::KeepAlive(n) => {
                        let mut client = connect()?;
                        for _ in 0..n {
                            let t = Instant::now();
                            ok(client.roundtrip(method, path, body), method, path)?;
                            latencies.push(ns(t));
                        }
                    }
                    Mode::Pipelined(batches) => {
                        let mut client = connect()?;
                        for _ in 0..batches {
                            let t = Instant::now();
                            for _ in 0..PIPELINE_DEPTH {
                                client.send(method, path, body);
                            }
                            // The first read writes the whole batch at once.
                            for _ in 0..PIPELINE_DEPTH {
                                ok(client.read_response(), method, path)?;
                            }
                            let each = ns(t) / PIPELINE_DEPTH as f64;
                            latencies.extend(std::iter::repeat_n(each, PIPELINE_DEPTH));
                        }
                    }
                }
                Ok(latencies)
            })
        })
        .collect();
    let joined: Vec<_> = clients
        .into_iter()
        .map(|c| c.join().expect("a client thread panicked"))
        .collect();
    let elapsed = started.elapsed().as_secs_f64();
    let latencies = joined.into_iter().collect::<Result<Vec<_>, _>>()?.concat();
    Ok(Load {
        rps: latencies.len() as f64 / elapsed,
        latency_us: [0.5, 0.95, 0.99].map(|q| crate::quantile(&latencies, q) / 1e3),
    })
}
