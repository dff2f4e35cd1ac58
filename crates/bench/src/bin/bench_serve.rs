//! **Serve benchmark** — re-takes `BENCH_serve.json`.
//!
//! Runs each of the ledger's request classes (`panda_bench::ledger::CASES`
//! rows for the file) `ROUNDS` times through the closed-loop load
//! generator in `panda_bench::serve`: a fresh in-process server with
//! `PANDA_WORKERS` shards and the full observability plane on, as `panda
//! serve` runs and as `bench_gate` holds the lines. Each line's value is
//! the median throughput of its rounds; `runs` keeps every round's
//! throughput and its p50/p95/p99 latency in µs. The file's header is
//! kept, with its worker count set to the one measured.
//!
//! Run: `PANDA_WORKERS=1 cargo run --release -p panda-bench --bin bench_serve`

use panda_bench::ledger::{self, Ledger, Line};
use panda_bench::quantile;

/// Rounds per request class; each round runs every class once.
const ROUNDS: usize = 5;
const FILE: &str = "BENCH_serve.json";
/// The `runs` series of a line: throughput, then the latency quantiles.
const SERIES: [&str; 4] = ["rounds", "p50_us", "p95_us", "p99_us"];

fn main() -> Result<(), String> {
    let mut ledger = Ledger::load(FILE)?;
    ledger.workers = panda_exec::worker_count();
    let cases: Vec<_> = ledger::cases(FILE).collect();
    let mut runs = vec![<[Vec<f64>; 4]>::default(); cases.len()];
    for round in 1..=ROUNDS {
        for (case, runs) in cases.iter().zip(&mut runs) {
            let load = case.serve(ledger.workers)?;
            let [p50, p95, p99] = load.latency_us;
            println!(
                "  round {round}  {:<28} {:>9.0} req/s  p50 {p50:>7.1}  p95 {p95:>7.1}  p99 {p99:>7.1} µs",
                case.name, load.rps
            );
            for (series, x) in runs.iter_mut().zip([load.rps, p50, p95, p99]) {
                series.push((x * 10.0).round() / 10.0);
            }
        }
    }
    ledger.lines = cases
        .iter()
        .zip(runs)
        .map(|(case, runs)| {
            let [rps, p50, p95, p99] = runs.each_ref().map(|series| quantile(series, 0.5));
            println!(
                "  median   {:<28} {rps:>9.0} req/s  p50 {p50:>7.1}  p95 {p95:>7.1}  p99 {p99:>7.1} µs",
                case.name
            );
            Line {
                case: case.name.into(),
                layer: Some("serve".into()),
                unit: case.unit().into(),
                better: case.better(),
                value: rps,
                before: None,
                ratio: None,
                runs: Some(SERIES.map(String::from).into_iter().zip(runs).collect()),
                base_rev: None,
                note: None,
            }
        })
        .collect();
    ledger.save(FILE)?;
    println!("bench_serve: {} workers; wrote {FILE}", ledger.workers);
    Ok(())
}
