//! **Bench-regression gate** — the CI half of the committed
//! `BENCH_autolf.json` / `BENCH_emfit.json` / `BENCH_lfapply.json` /
//! `BENCH_blocking.json` / `BENCH_serve.json` baselines (see
//! `.github/workflows/ci.yml`).
//!
//! Times the `p2_autolf_grid`, `p3_em_fit`, `p4_lf_apply` and
//! `p5_blocking` workloads, each case on its own input and on one compute
//! worker, and holds them against their `BENCH_autolf.json`,
//! `BENCH_emfit.json`, `BENCH_lfapply.json` and `BENCH_blocking.json`
//! `after.ns_per_iter` lines. A case fails when its mean exceeds
//! `baseline × 1.25 × PANDA_BENCH_GATE_SLACK` (slack defaults to 1.0;
//! CI sets it higher to absorb shared-runner noise). It then boots an
//! in-process `panda-serve` and drives a short keep-alive `/healthz`
//! burst: measured throughput must stay above the committed `healthz`
//! number divided by the same limit factor (throughput gates divide
//! where latency gates multiply). A replication-overhead gate then
//! drives the durable `lf_upsert` write path twice — once solo, once
//! with a follower subscribed over the WAL-shipping channel — and
//! requires the replicated run to hold `REPL_OVERHEAD_LIMIT` of the
//! solo throughput. Exits nonzero on any failure and
//! writes one `bench_gate_<file>.metrics.json` verdict table per
//! baseline file, plus the auto-LF grid runs' telemetry snapshot
//! (`bench_gate_autolf_telemetry.metrics.json`), to `target/experiments/`
//! for artifact upload.
//!
//! Run: `cargo run --release -p panda-bench --bin bench_gate`

use serde::Value;
use std::io::{Read, Write};
use std::process::ExitCode;
use std::time::Duration;

/// Timed iterations per case (plus one untimed warm-up).
const ITERS: u32 = 3;
/// Allowed regression before slack: mean may be up to 25% above baseline.
const THRESHOLD: f64 = 1.25;
/// The full observability plane (labelled RED metrics + journal ring)
/// may cost at most this factor of `/healthz` throughput versus the
/// same burst with telemetry off (× slack).
const OBS_OVERHEAD_LIMIT: f64 = 1.25;
/// Shipping every acknowledged WAL record to a live follower may cost
/// at most this factor of durable `lf_upsert` throughput versus the
/// same burst with no follower attached (× slack). The primary-side
/// cost is an in-memory enqueue to the hub thread, but the in-process
/// follower *replays* every shipped record (a full LF-column recompute)
/// on the same cores — so this line bounds the combined primary+replica
/// cost of the topology, not just the enqueue. On a single-core box the
/// two nodes contend fully, so the line sits at 2x; a regression to
/// synchronous shipping or double-fsync still lands well past it.
const REPL_OVERHEAD_LIMIT: f64 = 2.0;

/// `(case, after.ns_per_iter)` for every case of the committed baseline
/// file `file` (at the repository root) — the one loader behind every
/// timed line this gate holds.
fn load_after_ns(file: &str) -> Result<Vec<(String, f64)>, String> {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = serde_json::parse_value(&text).map_err(|e| format!("bad JSON in {path}: {e}"))?;
    let Some(Value::Array(cases)) = doc.get_field("cases") else {
        return Err(format!("{path}: missing \"cases\" array"));
    };
    let mut out = Vec::new();
    for c in cases {
        let Some(Value::Str(name)) = c.get_field("case") else {
            return Err(format!("{path}: case entry without \"case\" string"));
        };
        let ns = c
            .get_field("after")
            .and_then(|a| a.get_field("ns_per_iter"))
            .and_then(|v| match v {
                Value::Int(n) => Some(*n as f64),
                Value::UInt(n) => Some(*n as f64),
                Value::Float(n) => Some(*n),
                _ => None,
            })
            .ok_or_else(|| format!("{path}: {name}: missing after.ns_per_iter"))?;
        out.push((name.clone(), ns));
    }
    if out.is_empty() {
        return Err(format!("{path}: no cases"));
    }
    Ok(out)
}

/// A named workload and its timer: wall time of `n` runs.
type Workload<'a> = (&'a str, &'a dyn Fn(u64) -> Duration);

/// Time each workload with a line in `file`, on the single compute worker
/// the lines were recorded with, and hold those lines (see
/// [`hold_ns_lines`]).
fn hold_one_worker_lines(
    file: &str,
    name: &str,
    workloads: &[Workload<'_>],
    limit_factor: f64,
) -> bool {
    let baselines = match load_after_ns(file) {
        Ok(baselines) => baselines,
        Err(e) => {
            eprintln!("bench_gate: {name} gate: {e}");
            return false;
        }
    };
    panda_exec::set_worker_override(Some(1));
    let mut held = true;
    let mut lines = Vec::new();
    for (case, baseline_ns) in baselines {
        let Some((_, time)) = workloads.iter().find(|(workload, _)| *workload == case) else {
            eprintln!("bench_gate: no {name} workload for case {case:?}");
            held = false;
            continue;
        };
        time(1);
        let mean_ns = time(u64::from(ITERS)).as_nanos() as f64 / f64::from(ITERS);
        lines.push((case, mean_ns, baseline_ns));
    }
    panda_exec::set_worker_override(None);
    hold_ns_lines(name, &lines, limit_factor) && held
}

/// Print a verdict per timed line `(case, mean ns, baseline ns)` and write
/// them to `target/experiments/bench_gate_<name>.metrics.json`. Returns
/// whether every line held `baseline × limit_factor`.
fn hold_ns_lines(name: &str, lines: &[(String, f64, f64)], limit_factor: f64) -> bool {
    let mut held = true;
    let mut rows = Vec::new();
    for (case, mean_ns, baseline_ns) in lines {
        let ok = *mean_ns <= baseline_ns * limit_factor;
        held &= ok;
        let verdict = if ok { "PASS" } else { "FAIL" };
        println!(
            "  {verdict} {case:<16} mean {mean_ns:>12.0} ns/iter  baseline {baseline_ns:>12.0}  ratio {:.2} (limit {limit_factor:.2})",
            mean_ns / baseline_ns
        );
        rows.push(format!(
            "    {{ \"case\": \"{case}\", \"mean_ns\": {mean_ns:.0}, \"baseline_ns\": {baseline_ns:.0}, \"verdict\": \"{verdict}\" }}"
        ));
    }
    let report = format!("{{\n  \"cases\": [\n{}\n  ]\n}}\n", rows.join(",\n"));
    let mpath = panda_bench::experiments_dir().join(format!("bench_gate_{name}.metrics.json"));
    if let Err(e) = std::fs::write(&mpath, report) {
        eprintln!("bench_gate: cannot write {}: {e}", mpath.display());
        return false;
    }
    println!("       metrics → {}", mpath.display());
    held
}

/// Committed keep-alive `/healthz` throughput from `BENCH_serve.json`.
fn load_serve_baseline() -> Result<f64, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = serde_json::parse_value(&text).map_err(|e| format!("bad JSON in {path}: {e}"))?;
    let Some(Value::Array(cases)) = doc.get_field("cases") else {
        return Err(format!("{path}: missing \"cases\" array"));
    };
    for c in cases {
        if c.get_field("case") != Some(&Value::Str("healthz".into())) {
            continue;
        }
        return c
            .get_field("throughput_rps")
            .and_then(|v| match v {
                Value::Int(n) => Some(*n as f64),
                Value::UInt(n) => Some(*n as f64),
                Value::Float(n) => Some(*n),
                _ => None,
            })
            .ok_or_else(|| format!("{path}: healthz: missing throughput_rps"));
    }
    Err(format!("{path}: no \"healthz\" case"))
}

/// Measure keep-alive `/healthz` throughput against an in-process server.
/// Client count matches `bench_serve` — closed-loop throughput depends on
/// the offered concurrency, so the gate must replay the baseline's shape.
/// `obs_on` selects the full observability plane (labelled per-request
/// metrics + journal ring) or none — the pair of runs feeds the
/// overhead gate.
fn measure_serve_healthz_rps(obs_on: bool) -> Result<f64, String> {
    const GATE_CLIENTS: usize = 4;
    const GATE_REQUESTS: usize = 3000;
    panda_obs::reset();
    panda_obs::set_enabled(obs_on);
    panda_obs::set_journal_enabled(obs_on);
    let handle = panda_serve::Server::start(panda_serve::ServerConfig {
        workers: panda_exec::worker_count(),
        ..Default::default()
    })
    .map_err(|e| format!("cannot start server: {e}"))?;
    let addr = handle.addr();
    let started = std::time::Instant::now();
    let clients: Vec<_> = (0..GATE_CLIENTS)
        .map(|_| {
            std::thread::spawn(move || -> Result<(), String> {
                let mut stream =
                    std::net::TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
                let wire = b"GET /healthz HTTP/1.1\r\nHost: gate\r\nContent-Length: 0\r\n\r\n";
                let mut buf = Vec::new();
                let mut chunk = [0u8; 4096];
                for _ in 0..GATE_REQUESTS {
                    stream.write_all(wire).map_err(|e| format!("send: {e}"))?;
                    // One Content-Length-framed 200 per request.
                    loop {
                        if let Some(end) = full_response_len(&buf) {
                            if !buf.starts_with(b"HTTP/1.1 200") {
                                return Err(format!(
                                    "non-200: {:?}",
                                    String::from_utf8_lossy(&buf[..end.min(64)])
                                ));
                            }
                            buf.drain(..end);
                            break;
                        }
                        let n = stream.read(&mut chunk).map_err(|e| format!("recv: {e}"))?;
                        if n == 0 {
                            return Err("server closed mid-burst".into());
                        }
                        buf.extend_from_slice(&chunk[..n]);
                    }
                }
                Ok(())
            })
        })
        .collect();
    let mut err = None;
    for c in clients {
        if let Err(e) = c.join().expect("gate client") {
            err = Some(e);
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    handle.shutdown();
    handle.join();
    match err {
        Some(e) => Err(e),
        None => Ok((GATE_CLIENTS * GATE_REQUESTS) as f64 / elapsed),
    }
}

/// One-shot request on a fresh connection (topology setup, not timed).
fn http_once(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: gate\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("recv: {e}"))?;
    let status = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw.split("\r\n\r\n").nth(1).unwrap_or_default().to_string();
    Ok((status, body))
}

/// A small table pair for the replication gate — big enough that the
/// LF upsert recomputes a real matrix column, small enough that the
/// fsync (not the similarity kernel) stays the dominant cost.
fn repl_gate_csvs() -> (String, String) {
    let brands = [
        "acme", "zenith", "orion", "vertex", "nimbus", "quartz", "ember", "cobalt",
    ];
    let mut left = String::from("id,name,price\n");
    let mut right = String::from("id,name,price\n");
    for (row, brand) in brands.iter().enumerate() {
        left.push_str(&format!(
            "{row},{brand} turbo widget model {row},{}\n",
            100 + row * 3
        ));
        right.push_str(&format!(
            "{row},{brand} widget turbo mk {row},{}\n",
            101 + row * 3
        ));
    }
    (left, right)
}

/// Measure keep-alive `POST /sessions/1/lfs` throughput against a
/// durable in-process primary — optionally with a follower subscribed,
/// so every acknowledged WAL record is also shipped over the
/// replication channel. The solo/replicated pair feeds the
/// replication-overhead gate.
fn measure_lf_upsert_rps(replicated: bool) -> Result<f64, String> {
    const GATE_CLIENTS: usize = 2;
    const GATE_REQUESTS: usize = 250;
    let dir = std::env::temp_dir().join(format!(
        "panda-gate-repl-{}-{}",
        std::process::id(),
        if replicated { "on" } else { "off" }
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let primary = panda_serve::Server::start(panda_serve::ServerConfig {
        workers: panda_exec::worker_count(),
        state_dir: Some(dir.clone()),
        repl_addr: replicated.then(|| "127.0.0.1:0".into()),
        ..Default::default()
    })
    .map_err(|e| format!("cannot start primary: {e}"))?;
    let addr = primary.addr();
    let follower = if replicated {
        let repl = primary.repl_addr().ok_or("primary has no repl addr")?;
        Some(
            panda_serve::Server::start(panda_serve::ServerConfig {
                workers: panda_exec::worker_count(),
                follow: Some(repl.to_string()),
                ..Default::default()
            })
            .map_err(|e| format!("cannot start follower: {e}"))?,
        )
    } else {
        None
    };

    let (left, right) = repl_gate_csvs();
    let create = format!(
        r#"{{"left_csv":{},"right_csv":{},"config":{{"auto_lfs":false}}}}"#,
        serde_json::to_string(&left).unwrap(),
        serde_json::to_string(&right).unwrap()
    );
    let lf = r#"{"name":"name_overlap","kind":"similarity","attr":"name","upper":0.5,"lower":0.1}"#;
    for (path, body) in [("/sessions", create.as_str()), ("/sessions/1/lfs", lf)] {
        let (status, resp) = http_once(addr, "POST", path, body)?;
        if status != 200 {
            return Err(format!("POST {path}: {status} {resp}"));
        }
    }
    if let Some(f) = &follower {
        // Shipping must be live (subscription up, session synced) before
        // the burst, or the "replicated" run measures an unreplicated
        // prefix.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let (status, body) = http_once(f.addr(), "GET", "/sessions", "")?;
            if status == 200 && body.contains("\"wal_seq\":2") {
                break;
            }
            if std::time::Instant::now() >= deadline {
                return Err(format!("follower never caught up: {body}"));
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }

    let started = std::time::Instant::now();
    let clients: Vec<_> = (0..GATE_CLIENTS)
        .map(|_| {
            let lf = lf.to_string();
            std::thread::spawn(move || -> Result<(), String> {
                let mut stream =
                    std::net::TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
                let wire = format!(
                    "POST /sessions/1/lfs HTTP/1.1\r\nHost: gate\r\nContent-Length: {}\r\n\r\n{lf}",
                    lf.len()
                );
                let mut buf = Vec::new();
                let mut chunk = [0u8; 4096];
                for _ in 0..GATE_REQUESTS {
                    stream
                        .write_all(wire.as_bytes())
                        .map_err(|e| format!("send: {e}"))?;
                    loop {
                        if let Some(end) = full_response_len(&buf) {
                            if !buf.starts_with(b"HTTP/1.1 200") {
                                return Err(format!(
                                    "non-200: {:?}",
                                    String::from_utf8_lossy(&buf[..end.min(64)])
                                ));
                            }
                            buf.drain(..end);
                            break;
                        }
                        let n = stream.read(&mut chunk).map_err(|e| format!("recv: {e}"))?;
                        if n == 0 {
                            return Err("server closed mid-burst".into());
                        }
                        buf.extend_from_slice(&chunk[..n]);
                    }
                }
                Ok(())
            })
        })
        .collect();
    let mut err = None;
    for c in clients {
        if let Err(e) = c.join().expect("gate client") {
            err = Some(e);
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    primary.shutdown();
    primary.join();
    if let Some(f) = follower {
        f.shutdown();
        f.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
    match err {
        Some(e) => Err(e),
        None => Ok((GATE_CLIENTS * GATE_REQUESTS) as f64 / elapsed),
    }
}

/// If `buf` starts with one complete `Content-Length`-framed response,
/// return its total length.
fn full_response_len(buf: &[u8]) -> Option<usize> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())?;
    let total = head_end + content_length;
    (buf.len() >= total).then_some(total)
}

fn gate_slack() -> f64 {
    match std::env::var("PANDA_BENCH_GATE_SLACK") {
        Ok(s) => s
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|v| *v >= 1.0)
            .unwrap_or_else(|| {
                eprintln!("warning: ignoring invalid PANDA_BENCH_GATE_SLACK={s:?} (want ≥ 1.0)");
                1.0
            }),
        Err(_) => 1.0,
    }
}

fn main() -> ExitCode {
    let slack = gate_slack();
    let limit_factor = THRESHOLD * slack;
    println!("bench_gate: threshold {THRESHOLD}x, slack {slack}x (PANDA_BENCH_GATE_SLACK)");

    // Auto-LF grid, EM-fit, LF-application and blocking gates: the grid
    // runs, the planted and refit label-model fits, full apply,
    // incremental add_column and the deploy and load blocking calls must
    // hold the BENCH_autolf.json, BENCH_emfit.json, BENCH_lfapply.json
    // and BENCH_blocking.json lines, each timed on its own input. With
    // telemetry on, so the lines also bound the spans' cost.
    panda_bench::init_obs();
    let mut failed = false;
    {
        use panda_bench::{autolf, blocking, emfit, lfapply};
        let [abt, walmart, ide] = autolf::cases();
        failed |= !hold_one_worker_lines(
            "BENCH_autolf.json",
            "autolf",
            &[
                (&abt.name, &|n| abt.time(n)),
                (&walmart.name, &|n| walmart.time(n)),
                (&ide.name, &|n| ide.time(n)),
            ],
            limit_factor,
        );
        // The grid runs' span and counter telemetry: the registry was
        // reset just before them, and nothing else has run since.
        let mpath = panda_bench::experiments_dir().join("bench_gate_autolf_telemetry.metrics.json");
        if let Err(e) = std::fs::write(&mpath, panda_obs::snapshot().to_json()) {
            eprintln!("bench_gate: cannot write {}: {e}", mpath.display());
            failed = true;
        } else {
            println!("       metrics → {}", mpath.display());
        }
        let [panda, snorkel, refit] = emfit::cases();
        failed |= !hold_one_worker_lines(
            "BENCH_emfit.json",
            "emfit",
            &[
                (&panda.name, &|n| panda.time(n)),
                (&snorkel.name, &|n| snorkel.time(n)),
                (&refit.name, &|n| refit.time(n)),
            ],
            limit_factor,
        );
        let (apply, add_column) = (lfapply::apply_case(), lfapply::add_column_case());
        let authors_me = lfapply::authors_me_case();
        let (distinct, pooled) = (lfapply::token_case(None), lfapply::token_case(Some(200)));
        failed |= !hold_one_worker_lines(
            "BENCH_lfapply.json",
            "lfapply",
            &[
                (&apply.name, &|n| apply.time(n)),
                (&add_column.name, &|n| add_column.time(n)),
                (&authors_me.name, &|n| authors_me.time(n)),
                (&distinct.name, &|n| distinct.time(n)),
                (&pooled.name, &|n| pooled.time(n)),
            ],
            limit_factor,
        );
        let (deploy, load) = (blocking::deploy_case(), blocking::load_case());
        failed |= !hold_one_worker_lines(
            "BENCH_blocking.json",
            "blocking",
            &[
                (&deploy.name, &|n| deploy.time(n)),
                (&load.name, &|n| load.time(n)),
            ],
            limit_factor,
        );
    }

    // Serve gate: keep-alive /healthz throughput must hold the line.
    // Measured with the full observability plane live — that is how
    // `panda serve` actually runs.
    let rps_on = measure_serve_healthz_rps(true);
    match (load_serve_baseline(), &rps_on) {
        (Ok(baseline_rps), Ok(measured_rps)) => {
            let floor_rps = baseline_rps / limit_factor;
            let verdict = if *measured_rps >= floor_rps {
                "PASS"
            } else {
                failed = true;
                "FAIL"
            };
            println!(
                "  {verdict} serve_healthz    {:>9.0} req/s      baseline {:>9.0}  floor {:>9.0}",
                measured_rps, baseline_rps, floor_rps
            );
        }
        (Err(e), _) => {
            eprintln!("bench_gate: serve gate: {e}");
            failed = true;
        }
        (_, Err(e)) => {
            eprintln!("bench_gate: serve gate: {e}");
            failed = true;
        }
    }

    // Observability-overhead gate: the plane (labelled RED counters +
    // latency histograms + journal events per request) must not cost
    // more than OBS_OVERHEAD_LIMIT of /healthz throughput.
    match (measure_serve_healthz_rps(false), &rps_on) {
        (Ok(rps_off), Ok(rps_on)) => {
            let obs_limit = OBS_OVERHEAD_LIMIT * slack;
            let floor_rps = rps_off / obs_limit;
            let ratio = rps_off / rps_on;
            let verdict = if *rps_on >= floor_rps {
                "PASS"
            } else {
                failed = true;
                "FAIL"
            };
            println!(
                "  {verdict} obs_overhead     {:>9.0} req/s on   obs-off {:>9.0}  cost {:.2}x (limit {:.2})",
                rps_on, rps_off, ratio, obs_limit
            );
        }
        (Err(e), _) => {
            eprintln!("bench_gate: obs overhead gate: {e}");
            failed = true;
        }
        (_, Err(e)) => {
            eprintln!("bench_gate: obs overhead gate: {e}");
            failed = true;
        }
    }

    // Replication-overhead gate: the durable lf_upsert write path with a
    // follower subscribed (one shipped frame per acknowledged record)
    // must hold REPL_OVERHEAD_LIMIT of the solo durable throughput.
    match (measure_lf_upsert_rps(false), measure_lf_upsert_rps(true)) {
        (Ok(rps_solo), Ok(rps_repl)) => {
            let repl_limit = REPL_OVERHEAD_LIMIT * slack;
            let floor_rps = rps_solo / repl_limit;
            let ratio = rps_solo / rps_repl;
            let verdict = if rps_repl >= floor_rps {
                "PASS"
            } else {
                failed = true;
                "FAIL"
            };
            println!(
                "  {verdict} repl_overhead    {:>9.0} req/s repl  solo {:>9.0}  cost {:.2}x (limit {:.2})",
                rps_repl, rps_solo, ratio, repl_limit
            );
        }
        (Err(e), _) => {
            eprintln!("bench_gate: repl overhead gate: {e}");
            failed = true;
        }
        (_, Err(e)) => {
            eprintln!("bench_gate: repl overhead gate: {e}");
            failed = true;
        }
    }

    if failed {
        eprintln!("bench_gate: FAILED — a case regressed past its committed baseline");
        ExitCode::FAILURE
    } else {
        println!("bench_gate: ok");
        ExitCode::SUCCESS
    }
}
