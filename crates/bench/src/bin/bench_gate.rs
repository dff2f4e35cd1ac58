//! **Bench-regression gate** — the CI half of the committed `BENCH_*.json`
//! ledger (see `panda_bench::ledger` and `.github/workflows/ci.yml`).
//!
//! Holds every line of every file the same way: measures the line's case
//! at the file's worker count with telemetry on, and compares. A
//! lower-is-better line fails past `value × 1.25 × PANDA_BENCH_GATE_SLACK`,
//! a higher-is-better one below `value ÷ (1.25 × slack)` (slack defaults to
//! 1.0; CI sets it higher to absorb shared-runner noise). Two overhead
//! ratios follow, each the median of alternated rounds: `/healthz`
//! throughput with the observability plane off over on, and durable
//! `lf_upsert` throughput solo over with a follower replaying every
//! shipped record. Exits nonzero on any failure, and writes every verdict
//! (`bench_gate_verdicts.metrics.json`) and each file's telemetry snapshot
//! (`bench_gate_<file>_telemetry.metrics.json`) to `target/experiments/`
//! for artifact upload.
//!
//! Run: `cargo run --release -p panda-bench --bin bench_gate`

use panda_bench::ledger::{self, Better, Ledger, Verdict};
use panda_bench::serve::{self, Mode, Request, Store};
use panda_bench::{experiments_dir, quantile};
use std::process::ExitCode;

/// Allowed regression before slack: a line may read up to 25% worse.
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
/// Alternated rounds per overhead ratio: two identical phases of one
/// round differ by about ±10% on a shared host, so one round cannot
/// resolve a 1.25× limit.
const ROUNDS: usize = 5;

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

/// The overhead of `with` over `base` on `request`: `ROUNDS` rounds, the
/// phase that goes first swapped each round, each round's ratio
/// base ÷ with in requests per second; gated on the median ratio, and
/// both phases' median throughputs reported. Each phase starts from an
/// empty metrics registry.
fn overhead(
    name: &str,
    limit: f64,
    slack: f64,
    request: Request,
    base: (Store, bool),
    with: (Store, bool),
) -> Verdict {
    let workers = panda_exec::worker_count();
    let phase = |(store, obs)| {
        panda_obs::reset();
        serve::run(&request, workers, store, obs).map(|load| load.rps)
    };
    let rounds: Result<Vec<(f64, f64)>, String> = (0..ROUNDS)
        .map(|round| {
            if round % 2 == 0 {
                Ok((phase(base)?, phase(with)?))
            } else {
                let with = phase(with)?;
                Ok((phase(base)?, with))
            }
        })
        .collect();
    let (measured, note) = match rounds {
        Ok(rounds) => {
            let ratios: Vec<f64> = rounds.iter().map(|(base, with)| base / with).collect();
            let (base, with): (Vec<f64>, Vec<f64>) = rounds.into_iter().unzip();
            let note = format!(
                "median of {ROUNDS} rounds at {workers} workers, quartiles {:.2}–{:.2}; \
                 {:.0} → {:.0} req/s",
                quantile(&ratios, 0.25),
                quantile(&ratios, 0.75),
                quantile(&base, 0.5),
                quantile(&with, 0.5)
            );
            (quantile(&ratios, 0.5), note)
        }
        Err(e) => (f64::NAN, e),
    };
    Verdict {
        file: String::new(),
        case: name.into(),
        unit: "x".into(),
        value: limit,
        measured,
        limit: limit * slack,
        pass: Better::Lower.holds(measured, limit * slack),
        note,
    }
}

fn write(name: &str, json: &str) -> bool {
    let path = experiments_dir().join(format!("bench_gate_{name}.metrics.json"));
    let written = std::fs::write(&path, json);
    match &written {
        Ok(()) => println!("       metrics → {}", path.display()),
        Err(e) => eprintln!("bench_gate: cannot write {}: {e}", path.display()),
    }
    written.is_ok()
}

fn main() -> ExitCode {
    let slack = gate_slack();
    let factor = THRESHOLD * slack;
    println!("bench_gate: threshold {THRESHOLD}x, slack {slack}x (PANDA_BENCH_GATE_SLACK)");

    let mut verdicts = Vec::new();
    let mut failed = false;
    for file in ledger::FILES {
        panda_bench::init_obs();
        match Ledger::load(file) {
            Ok(ledger) => verdicts.extend(ledger.lines.iter().map(|line| {
                let verdict = ledger::hold(file, line, factor, |case| case.measure(ledger.workers));
                print(&verdict);
                verdict
            })),
            Err(e) => {
                eprintln!("bench_gate: {e}");
                failed = true;
            }
        }
        let stem = file.trim_start_matches("BENCH_").trim_end_matches(".json");
        let snapshot = panda_obs::snapshot().to_json();
        failed |= !write(&format!("{stem}_telemetry"), &snapshot);
    }
    // Each phase keeps the shape its limit was set on: 4 keep-alive
    // clients × 3000 /healthz, and 2 × 250 durable LF re-upserts with
    // telemetry off.
    let healthz = Request {
        mode: Mode::KeepAlive(3000),
        ..serve::HEALTHZ
    };
    for verdict in [
        overhead(
            "obs_overhead",
            OBS_OVERHEAD_LIMIT,
            slack,
            healthz,
            (Store::Memory, false),
            (Store::Memory, true),
        ),
        overhead(
            "repl_overhead",
            REPL_OVERHEAD_LIMIT,
            slack,
            serve::LF_UPSERT,
            (Store::Durable, false),
            (Store::Replicated, false),
        ),
    ] {
        print(&verdict);
        verdicts.push(verdict);
    }

    let json = serde_json::to_string_pretty(&verdicts).expect("verdicts serialize");
    failed |= !write("verdicts", &json);
    failed |= verdicts.iter().any(|v| !v.pass);
    if failed {
        eprintln!("bench_gate: FAILED — see the FAIL and error lines above");
        ExitCode::FAILURE
    } else {
        println!("bench_gate: ok");
        ExitCode::SUCCESS
    }
}

fn print(v: &Verdict) {
    println!(
        "  {} {:<50} {:>14.2} {:<5} value {:>14.2}  limit {:>14.2}  ({:.2}x) {}",
        if v.pass { "PASS" } else { "FAIL" },
        v.case,
        v.measured,
        v.unit,
        v.value,
        v.limit,
        v.measured / v.value,
        v.note
    );
}
