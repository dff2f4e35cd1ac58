//! The in-process workloads: `ide_loop` (the §3 edit round) and
//! `deploy_batch` (`PandaSession::deploy` on fresh batches).

use crate::inputs::{digest, swept_spec, Task};
use crate::stats::{median, window_median_rate, Op, Samples};
use crate::trace::Tracer;
use crate::workload::{sub_seed, Ctx, Outcome, RATE_WINDOWS};
use panda_datasets::{generate, DatasetFamily, GeneratorConfig};
use panda_embed::{Blocker, EmbeddingLshBlocker};
use panda_lf::{BoxedLf, LabelMatrix};
use panda_model::{project_transitivity, LabelModel, PandaModel, TransitivityGraph};
use panda_session::{DebugQuery, ModelChoice, PandaSession};
use std::hint::black_box;
use std::time::Instant;

/// `ide_loop` inputs: abt-buy at this many entities (≈8k candidates).
pub const IDE_ENTITIES: usize = 300;
/// `ide_loop` sessions, each from its own seed; rounds rotate over them,
/// so a run averages several generated tasks rather than hanging on one.
const IDE_SESSIONS: usize = 5;
/// Edit rounds run before timing starts, per session.
const WARMUP_ROUNDS: usize = 2;
/// `deploy_batch` development-session entities.
pub const DEV_ENTITIES: usize = 100;
/// `deploy_batch` batch entities (2× development).
pub const BATCH_ENTITIES: usize = 200;
/// `deploy_batch` set-ups per run: each takes well under 0.1 s, so a run
/// takes the median of many of them for a steady `setup_s`.
const DEPLOY_SETUPS: usize = 15;

/// Build one development session per task, each timed as one set-up:
/// load (block, auto-LF, apply, fit), register `lfs` incrementally, refit.
fn set_up(tasks: &[Task], lfs: &[BoxedLf], out: &mut Outcome) -> Result<Vec<PandaSession>, String> {
    tasks
        .iter()
        .map(|task| {
            let t = Instant::now();
            let mut s = PandaSession::load(task.tables.clone(), task.config());
            for lf in lfs {
                s.upsert_lf_incremental(lf.clone())?;
            }
            s.fit();
            out.setups_s.push(t.elapsed().as_secs_f64());
            Ok(s)
        })
        .collect()
}

/// The first `n` inputs of a run, one per set-up.
pub fn tasks(
    family: DatasetFamily,
    entities: usize,
    seed: u64,
    model: &str,
    n: usize,
) -> Vec<Task> {
    (0..n)
        .map(|k| Task::new(family, entities, sub_seed(seed, k), model))
        .collect()
}

/// One Step-4 round: re-tune the swept LF, refit, refresh the panels.
fn edit_round(s: &mut PandaSession, round: usize, tr: &mut Tracer) -> Result<(), String> {
    let spec = swept_spec(DatasetFamily::AbtBuy, round);
    let lf = spec.build()?;
    tr.enter("lf.add_column");
    let added = s.upsert_lf_incremental(lf);
    tr.exit();
    added?;
    tr.enter("model.refit");
    s.fit();
    tr.exit();
    tr.enter("session.panels");
    black_box(s.lf_stats());
    black_box(s.em_stats());
    black_box(s.debug_pairs(&spec.name, DebugQuery::LikelyFalsePositives, 10));
    black_box(s.smart_sample(10));
    tr.exit();
    Ok(())
}

/// Traced runs time their first half untraced and their second half
/// traced; the ratio of the halves' medians is the tracing overhead.
fn trace_overhead(untraced: &Samples, traced: &Samples) -> f64 {
    traced.summary().p50_ms / untraced.summary().p50_ms
}

fn median_of(tr: &Tracer, name: &str) -> f64 {
    tr.self_times_ms().get(name).map_or(f64::NAN, |v| median(v))
}

/// `ide_loop`: the §3 loop in process on abt-buy.
pub fn ide_loop(ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome {
        limit_ms: 1000.0,
        ..Default::default()
    };
    let tasks = tasks(
        DatasetFamily::AbtBuy,
        IDE_ENTITIES,
        ctx.seed,
        "panda",
        IDE_SESSIONS,
    );
    let swept = swept_spec(DatasetFamily::AbtBuy, 0).name;
    let others: Vec<BoxedLf> = panda_bench::curated_lfs(DatasetFamily::AbtBuy)
        .into_iter()
        .filter(|lf| lf.name() != swept)
        .collect();
    let mut sessions = set_up(&tasks, &others, &mut out)?;
    let n = sessions.len();
    for round in 0..WARMUP_ROUNDS * n {
        edit_round(&mut sessions[round % n], round / n, tr)?;
    }
    let f1s: Vec<f64> = sessions
        .iter()
        .map(|s| s.current_metrics().map_or(0.0, |m| m.f1))
        .collect();
    out.f1 = median(&f1s);
    let posteriors: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.posteriors().to_vec())
        .collect();
    out.notes.push(format!(
        "inputs: abt-buy {IDE_ENTITIES} entities x {n} seeds, {:?} candidates, {:?} LFs; \
         unit op = one edit round, rotating over the sessions",
        sessions
            .iter()
            .map(|s| s.candidates().len())
            .collect::<Vec<_>>(),
        sessions
            .iter()
            .map(|s| s.registry().lfs().len())
            .collect::<Vec<_>>()
    ));
    out.notes.push(format!(
        "posterior_digest {:016x} (after set-up + {WARMUP_ROUNDS} warm-up rounds each)",
        digest(&posteriors)
    ));

    let (mut untraced, mut traced) = (Samples::default(), Samples::default());
    let mut ops = Vec::new();
    let start = Instant::now();
    let mut round = WARMUP_ROUNDS * n;
    loop {
        let begin = start.elapsed().as_secs_f64();
        if begin >= ctx.secs {
            break;
        }
        tr.set_on(ctx.trace && begin >= ctx.secs / 2.0);
        tr.next_op();
        tr.enter("ide_loop.round");
        let done = edit_round(&mut sessions[round % n], round / n, tr);
        tr.exit();
        let end = start.elapsed().as_secs_f64();
        out.attempted += 1;
        let half = if tr.is_on() {
            &mut traced
        } else {
            &mut untraced
        };
        match done {
            Ok(()) => {
                out.latency.ok((end - begin) * 1e3);
                half.ok((end - begin) * 1e3);
            }
            Err(msg) => {
                eprintln!("ide_loop round {round}: {msg}");
                out.failed += 1;
                out.latency.failed();
                half.failed();
            }
        }
        ops.push(Op {
            start_s: begin,
            end_s: end,
            work: 1.0,
        });
        round += 1;
    }
    tr.set_on(false);
    out.rate_per_s = window_median_rate(&ops, ctx.secs, RATE_WINDOWS);
    out.rss_mb = crate::client::peak_rss_mb("/proc/self/status");
    if ctx.trace {
        for (key, span) in [
            ("lf.add_column_ms", "lf.add_column"),
            ("model.refit_ms", "model.refit"),
            ("session.panels_ms", "session.panels"),
            ("op.residual_ms", "ide_loop.round"),
        ] {
            out.layers.insert(key, median_of(tr, span));
        }
        out.layers
            .insert("trace.overhead", trace_overhead(&untraced, &traced));
    }
    Ok(out)
}

/// A fresh deployment batch: dblp-scholar, its own derived seed.
fn batch(seed: u64, i: u64) -> panda_table::TablePair {
    let derived = seed ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    generate(
        DatasetFamily::DblpScholar,
        &GeneratorConfig::new(derived).with_entities(BATCH_ENTITIES),
    )
}

/// Time deploy's stages one by one on `tables` (traced runs only, outside
/// the timed op): blocking, full apply, cold fit, transitivity.
fn deploy_parts(s: &PandaSession, tables: &panda_table::TablePair, tr: &mut Tracer) {
    let cfg = s.config();
    tr.next_op();
    tr.enter("deploy_batch.parts");
    let mut blocker = EmbeddingLshBlocker::new(cfg.seed);
    blocker.min_cosine = cfg.blocking_min_cosine;
    blocker.max_per_record = cfg.blocking_max_per_record;
    tr.enter("embed.block");
    let cands = blocker.candidates(tables);
    tr.exit();
    let mut m = LabelMatrix::new();
    tr.enter("lf.apply");
    m.apply(s.registry(), tables, &cands);
    tr.exit();
    let ModelChoice::PandaTransitive(mode) = cfg.model else {
        unreachable!("deploy_batch runs panda-transitive");
    };
    tr.enter("model.fit");
    let post = PandaModel::new()
        .with_transitivity(mode)
        .fit_predict(&m, Some(&cands));
    tr.exit();
    tr.enter("model.transitivity");
    let graph = TransitivityGraph::build(&cands, mode, 500_000);
    let mut gamma = post;
    project_transitivity(&mut gamma, &graph, 5, 1e-6);
    tr.exit();
    tr.exit();
}

/// `deploy_batch`: `PandaSession::deploy` on fresh dblp-scholar batches.
pub fn deploy_batch(ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome {
        limit_ms: 5000.0,
        ..Default::default()
    };
    // Curated LFs only: with auto-LF discovery on, each seed's development
    // data would pick a different LF set, and deploy cost with it.
    let devs: Vec<Task> = tasks(
        DatasetFamily::DblpScholar,
        DEV_ENTITIES,
        ctx.seed,
        "panda-transitive",
        DEPLOY_SETUPS,
    )
    .into_iter()
    .map(Task::curated_only)
    .collect();
    let curated = panda_bench::curated_lfs(DatasetFamily::DblpScholar);
    let s = set_up(&devs, &curated, &mut out)?.remove(0);
    let warm = s.deploy(&batch(ctx.seed, 0));
    out.notes.push(format!(
        "inputs: dblp-scholar dev {DEV_ENTITIES} entities ({} candidates, {} LFs), \
         batches of {BATCH_ENTITIES} entities; unit op = one deploy",
        s.candidates().len(),
        s.registry().lfs().len()
    ));
    out.notes.push(format!(
        "posterior_digest {:016x} (warm-up batch, {} candidates)",
        digest(&warm.posteriors),
        warm.candidates.len()
    ));

    // The clock only runs inside deploy, so batch generation between
    // ops neither counts as latency nor dilutes the rate.
    let (mut untraced, mut traced) = (Samples::default(), Samples::default());
    let mut ops = Vec::new();
    let mut f1s = Vec::new();
    let mut busy = 0.0;
    let mut i = 1u64;
    while busy < ctx.secs {
        let tables = batch(ctx.seed, i);
        tr.set_on(ctx.trace && busy >= ctx.secs / 2.0);
        tr.next_op();
        let t = Instant::now();
        tr.enter("session.deploy");
        let r = s.deploy(&tables);
        tr.exit();
        let dur = t.elapsed().as_secs_f64();
        out.attempted += 1;
        let half = if tr.is_on() {
            &mut traced
        } else {
            &mut untraced
        };
        // A deploy without metrics failed: it counts as over the limit.
        match r.metrics {
            Some(m) => {
                f1s.push(m.f1);
                out.latency.ok(dur * 1e3);
                half.ok(dur * 1e3);
            }
            None => {
                out.failed += 1;
                out.latency.failed();
                half.failed();
            }
        }
        if tr.is_on() {
            deploy_parts(&s, &tables, tr);
        }
        ops.push(Op {
            start_s: busy,
            end_s: busy + dur,
            work: r.candidates.len() as f64,
        });
        busy += dur;
        i += 1;
    }
    tr.set_on(false);
    out.rate_per_s = window_median_rate(&ops, ctx.secs, RATE_WINDOWS);
    out.f1 = median(&f1s);
    out.rss_mb = crate::client::peak_rss_mb("/proc/self/status");
    if ctx.trace {
        let parts: f64 = ["embed.block", "lf.apply", "model.fit"]
            .iter()
            .map(|n| median_of(tr, n))
            .sum();
        out.layers
            .insert("embed.block_ms", median_of(tr, "embed.block"));
        out.layers.insert("lf.apply_ms", median_of(tr, "lf.apply"));
        out.layers
            .insert("model.fit_ms", median_of(tr, "model.fit"));
        out.layers
            .insert("model.transitivity_ms", median_of(tr, "model.transitivity"));
        out.layers
            .insert("op.residual_ms", traced.summary().p50_ms - parts);
        out.layers
            .insert("trace.overhead", trace_overhead(&untraced, &traced));
    }
    Ok(out)
}
