//! **P2 — Auto-LF config-grid throughput** (paper §2.1 feature 1.3,
//! Auto-FuzzyJoin lineage): time `generate_auto_lfs` end to end — corpus
//! stats, candidate scoring under every (attribute × config) grid cell,
//! threshold search, and greedy selection.
//!
//! Throughput is reported in candidate pairs/sec (each pair is scored once
//! per grid cell; the cell count is fixed by `default_config_grid`). The
//! cases are the `panda_bench::ledger` rows for `BENCH_autolf.json`:
//! abt-buy 150, walmart-amazon 150 with its attribute pairs, and abt-buy
//! 300, an `ide_loop` session's input. `BENCH_autolf.json` at the repo
//! root records the before and after medians; `bench_gate` holds its
//! lines through the same cases.
//!
//! Run: `PANDA_WORKERS=1 cargo bench -p panda-bench --bench p2_autolf_grid`

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use panda_bench::ledger;

fn bench_autolf_grid(c: &mut Criterion) {
    println!("workers: {}", panda_exec::worker_count());
    let mut g = c.benchmark_group("autolf_grid");
    g.sample_size(10);
    for case in ledger::cases("BENCH_autolf.json") {
        let mut input = case.input().unwrap_or_else(|e| panic!("{e}"));
        g.throughput(Throughput::Elements(input.pairs as u64));
        g.bench_function(case.name, |b| b.iter_custom(&mut input.time));
    }
    g.finish();
}

criterion_group!(benches, bench_autolf_grid);
criterion_main!(benches);
