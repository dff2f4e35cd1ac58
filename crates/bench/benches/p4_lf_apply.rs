//! **P4 — LF application** (paper §2.2: the IDE shows an LF edit's effect
//! right away; the deployment phase runs the final LFs over fresh tables).
//! Times the two calls those paths make, with `iter_custom` so only the
//! call is on the clock and the fresh matrix each run needs is not:
//!
//! * `apply/…`: `LabelMatrix::apply` of the dblp-scholar curated LFs on a
//!   200-entity batch (the deployment phase's full apply);
//! * `add_column/…`: `LabelMatrix::add_column` of `name_overlap` on
//!   abt-buy 300 (one edited LF in the IDE);
//! * `apply/…authors_me…`: the Monge-Elkan `authors_me` alone — on the
//!   dblp-scholar batch, on synthetic author lists whose tokens come from
//!   a 200-token pool (votes from the token-vocabulary matrix), and on
//!   lists where no token repeats (votes through the per-pair kernel).
//!
//! `BENCH_lfapply.json` records the before/after medians; `bench_gate`
//! holds its lines through the same `panda_bench::lfapply` workloads.
//!
//! Run: `PANDA_WORKERS=1 cargo bench -p panda-bench --bench p4_lf_apply`

use criterion::{criterion_group, criterion_main, Criterion};
use panda_bench::lfapply::{add_column_case, apply_case, authors_me_case, token_case};

fn bench_lf_apply(c: &mut Criterion) {
    println!("workers: {}", panda_exec::worker_count());
    let mut g = c.benchmark_group("lf_apply");
    g.sample_size(10);
    for case in [
        apply_case(),
        add_column_case(),
        authors_me_case(),
        token_case(None),
        token_case(Some(200)),
    ] {
        g.bench_function(&case.name, |b| b.iter_custom(|iters| case.time(iters)));
    }
    g.finish();
}

criterion_group!(benches, bench_lf_apply);
criterion_main!(benches);
