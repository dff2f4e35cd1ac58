//! **P6 — Step-4 panels** (paper §2.1 features 1.1 and 2.2, §3): what an
//! `ide_loop` edit round refreshes after its refit, on an abt-buy 300
//! session (seed 1, auto plus curated LFs), timed with `iter_custom`:
//!
//! * `panels/…`: `lf_stats`, `em_stats`, one ten-row debugging query and
//!   a `smart_sample(10)` click — perfbench's `session.panels` span;
//! * `refit_journaled/…`: a warm `fit()` with the journal recording, so
//!   the `lf.stats` events and their disagreement counts run as they do
//!   in every fit `panda serve` makes.
//!
//! `BENCH_panels.json` records the before/after medians; `bench_gate`
//! holds its lines through the same `panda_bench::ledger` cases.
//!
//! Run: `PANDA_WORKERS=1 cargo bench -p panda-bench --bench p6_panels`

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use panda_bench::ledger;

fn bench_panels(c: &mut Criterion) {
    println!("workers: {}", panda_exec::worker_count());
    let mut g = c.benchmark_group("panels");
    g.sample_size(20);
    for case in ledger::cases("BENCH_panels.json") {
        let mut input = case.input().unwrap_or_else(|e| panic!("{e}"));
        g.throughput(Throughput::Elements(input.pairs as u64));
        g.bench_function(case.name, |b| b.iter_custom(&mut input.time));
    }
    g.finish();
}

criterion_group!(benches, bench_panels);
criterion_main!(benches);
