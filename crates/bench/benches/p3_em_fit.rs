//! **P3 — EM fit** (paper §2.1 feature 3): the labeling-model fits
//! `BENCH_emfit.json` records and `bench_gate` holds — cold Panda and
//! Snorkel fits of a planted 20k-pair, 10-LF matrix (random vote rows,
//! the worst case for vote patterns) and a warm-started Panda refit of an
//! `ide_loop`-style abt-buy 300 session (auto plus curated LFs), the fit
//! a Step-4 edit round runs. The cases live in `panda_bench::emfit`.
//!
//! Run: `PANDA_WORKERS=1 cargo bench -p panda-bench --bench p3_em_fit`

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use panda_bench::emfit;

fn bench_fit(c: &mut Criterion) {
    let mut g = c.benchmark_group("em_fit");
    g.sample_size(10);
    for case in emfit::cases() {
        g.throughput(Throughput::Elements(case.pairs() as u64));
        let id = case.name.strip_prefix("em_fit/").unwrap_or(&case.name);
        g.bench_function(id, |b| b.iter_custom(|iters| case.time(iters)));
    }
    g.finish();
}

criterion_group!(benches, bench_fit);
criterion_main!(benches);
