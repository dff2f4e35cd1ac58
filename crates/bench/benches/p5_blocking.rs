//! **P5 — LSH blocking** (paper §2.1 feature 1.1 and §4: tuples are
//! embedded and band-hashed, colliding pairs become candidates). Times the
//! two calls that block, with `iter_custom` so only the call is on the
//! clock:
//!
//! * `deploy/…`: `Blocker::candidates` on a fresh 200-entity dblp-scholar
//!   batch (the deployment phase, once per batch);
//! * `load/…`: `candidates_with_cosines` on abt-buy 300 (session load and
//!   `rehydrate`: the candidates plus the sampler likelihood).
//!
//! `BENCH_blocking.json` records the before/after medians; `bench_gate`
//! holds its lines through the same `panda_bench::ledger` cases.
//!
//! Run: `PANDA_WORKERS=1 cargo bench -p panda-bench --bench p5_blocking`

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use panda_bench::ledger;

fn bench_blocking(c: &mut Criterion) {
    println!("workers: {}", panda_exec::worker_count());
    let mut g = c.benchmark_group("blocking");
    g.sample_size(20);
    for case in ledger::cases("BENCH_blocking.json") {
        let mut input = case.input().unwrap_or_else(|e| panic!("{e}"));
        g.throughput(Throughput::Elements(input.pairs as u64));
        g.bench_function(case.name, |b| b.iter_custom(&mut input.time));
    }
    g.finish();
}

criterion_group!(benches, bench_blocking);
criterion_main!(benches);
