//! **Bench-regression gate** — the CI half of the committed
//! `BENCH_autolf.json` / `BENCH_emfit.json` / `BENCH_lfapply.json` /
//! `BENCH_blocking.json` / `BENCH_panels.json` / `BENCH_serve.json`
//! baselines (see `.github/workflows/ci.yml`).
//!
//! Times the `p2_autolf_grid`, `p3_em_fit`, `p4_lf_apply`, `p5_blocking`
//! and `p6_panels` workloads, each case on its own input and on one
//! compute worker, and holds them against their `BENCH_autolf.json`,
//! `BENCH_emfit.json`, `BENCH_lfapply.json`, `BENCH_blocking.json` and
//! `BENCH_panels.json` `after.ns_per_iter` lines. A case fails when its mean exceeds
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

use panda_serve::client::{self, Client};
use serde::Value;
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
    let rps = burst(addr, GATE_CLIENTS, GATE_REQUESTS, "GET", "/healthz", "");
    handle.shutdown();
    handle.join();
    rps
}

/// Drive `clients` closed-loop keep-alive clients of `requests` each
/// (every answer must be a 200); returns requests per second.
fn burst(
    addr: std::net::SocketAddr,
    clients: usize,
    requests: usize,
    method: &'static str,
    path: &'static str,
    body: &'static str,
) -> Result<f64, String> {
    let started = std::time::Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|_| {
            std::thread::spawn(move || -> Result<(), String> {
                let mut client = Client::connect(addr, None).map_err(|e| e.to_string())?;
                for _ in 0..requests {
                    let reply = client
                        .roundtrip(method, path, body)
                        .map_err(|e| e.to_string())?;
                    if reply.status != 200 {
                        return Err(format!("{path}: {} {}", reply.status, reply.body));
                    }
                }
                Ok(())
            })
        })
        .collect();
    let results: Vec<_> = threads
        .into_iter()
        .map(|t| t.join().expect("gate client"))
        .collect();
    let elapsed = started.elapsed().as_secs_f64();
    results.into_iter().collect::<Result<(), _>>()?;
    Ok((clients * requests) as f64 / elapsed)
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
        let reply = client::request(addr, "POST", path, body, None).map_err(|e| e.to_string())?;
        if reply.status != 200 {
            return Err(format!("POST {path}: {} {}", reply.status, reply.body));
        }
    }
    if let Some(f) = &follower {
        // Shipping must be live (subscription up, session synced) before
        // the burst, or the "replicated" run measures an unreplicated
        // prefix.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let reply = client::request(f.addr(), "GET", "/sessions", "", None);
            let body = reply.map_err(|e| e.to_string())?.body;
            if body.contains("\"wal_seq\":2") {
                break;
            }
            if std::time::Instant::now() >= deadline {
                return Err(format!("follower never caught up: {body}"));
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }

    let rps = burst(
        addr,
        GATE_CLIENTS,
        GATE_REQUESTS,
        "POST",
        "/sessions/1/lfs",
        lf,
    );
    primary.shutdown();
    primary.join();
    if let Some(f) = follower {
        f.shutdown();
        f.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
    rps
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

    // Auto-LF grid, EM-fit, LF-application, blocking and panel gates:
    // the grid runs, the planted and refit label-model fits, full apply,
    // incremental add_column, the deploy and load blocking calls and the
    // Step-4 panel refresh and journaled refit must hold the
    // BENCH_autolf.json, BENCH_emfit.json, BENCH_lfapply.json,
    // BENCH_blocking.json and BENCH_panels.json lines, each timed on its
    // own input. With telemetry on, so the lines also bound the spans'
    // cost.
    panda_bench::init_obs();
    let mut failed = false;
    {
        use panda_bench::{autolf, blocking, emfit, lfapply, panels};
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
        let (refresh, refit) = (panels::panels_case(), panels::refit_journaled_case());
        failed |= !hold_one_worker_lines(
            "BENCH_panels.json",
            "panels",
            &[
                (&refresh.name, &|n| refresh.time(n)),
                (&refit.name, &|n| refit.time(n)),
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
