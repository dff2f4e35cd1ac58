//! Per-layer probes for traced runs: each times one public call of a
//! layer on the workload's own inputs, from outside the program.

use crate::inputs::{curated_specs, match_body, request, swept_spec, with_session, Task};
use crate::served::MATCH_BATCH;
use crate::stats::median;
use crate::workload::Ctx;
use panda_autolf::generate_auto_lfs;
use panda_datasets::DatasetFamily;
use panda_embed::{Blocker, EmbeddingLshBlocker};
use panda_lf::{BoxedLf, LabelMatrix, LfRegistry};
use panda_model::{
    project_transitivity, LabelModel, PandaModel, TransitivityGraph, TransitivityMode,
};
use panda_serve::http::RequestParser;
use panda_serve::persist::{Replayer, SessionStore, WalOp};
use panda_serve::AppState;
use panda_session::{DebugQuery, ModelChoice, PandaSession};
use panda_table::CandidatePair;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Pairs the per-pair probes time: twenty `/match` requests' worth.
pub const PROBE_PAIRS: usize = 20 * MATCH_BATCH;

fn ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64() * 1e3)
}

/// Median of `reps` timings of `f`, in ms.
fn median_ms(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let times: Vec<f64> = (0..reps).map(|i| ms(|| f(i)).1).collect();
    median(&times)
}

fn counter(name: &str) -> f64 {
    panda_obs::snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0) as f64
}

fn em_iters_in_journal() -> f64 {
    panda_obs::journal_drain()
        .events
        .iter()
        .filter(|e| e.kind == "model.em.iter")
        .count() as f64
}

/// A fixed CPU kernel: its time tracks how fast this host runs right now.
pub fn host_ref_ms() -> f64 {
    median_ms(5, |_| {
        let mut x = 0x1234_5678_u64;
        for i in 0..20_000_000u64 {
            x = (x.rotate_left(5) ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        black_box(x);
    })
}

/// Every in-process layer probe on `task`. Turns `panda_obs` on (its
/// counters and journal are read), which is why only traced runs call it.
pub fn layer_probes(ctx: &Ctx, task: &Task) -> Result<BTreeMap<&'static str, f64>, String> {
    panda_obs::reset();
    panda_obs::set_enabled(true);
    panda_obs::set_journal_enabled(true);
    let mut m = BTreeMap::new();
    let cfg = task.config();
    let tables = &task.tables;

    // Blocking.
    let mut blocker = EmbeddingLshBlocker::new(cfg.seed);
    blocker.min_cosine = cfg.blocking_min_cosine;
    blocker.max_per_record = cfg.blocking_max_per_record;
    let (cands, block_ms) = ms(|| blocker.candidates(tables));
    let gold = tables.gold.as_ref().ok_or("probe task has no gold")?;
    let kept = cands.pairs().iter().filter(|p| gold.contains(p)).count();
    m.insert("embed.block_ms", block_ms);
    m.insert("embed.candidates", cands.len() as f64);
    m.insert("embed.recall", kept as f64 / gold.len().max(1) as f64);

    // The auto-LF grid.
    let (generated, grid_ms) = ms(|| generate_auto_lfs(tables, &cands, &cfg.auto_lf_config));
    let (hits, misses) = (
        counter("text.token_cache.hits"),
        counter("text.token_cache.misses"),
    );
    m.insert("autolf.grid_ms", grid_ms);
    m.insert("autolf.emitted", generated.len() as f64);
    m.insert(
        "autolf.survivor_ratio",
        counter("autolf.survivors") / counter("autolf.grid_cells").max(1.0),
    );
    m.insert("text.cache_hit_ratio", hits / (hits + misses).max(1.0));

    // Full apply of the registry load builds (the auto LFs), then a cold fit.
    let mut registry = LfRegistry::new();
    for g in generated {
        registry.upsert(Arc::new(g.lf));
    }
    let mut matrix = LabelMatrix::new();
    let (_, apply_ms) = ms(|| matrix.apply(&registry, tables, &cands));
    let votes = (matrix.n_lfs() * matrix.n_pairs()).max(1) as f64;
    let abstains: usize = matrix.packed_columns().map(|(_, c)| c.counts().2).sum();
    m.insert("lf.apply_ms", apply_ms);
    m.insert("lf.apply_ns_per_vote", apply_ms * 1e6 / votes);
    m.insert("lf.coverage", 1.0 - abstains as f64 / votes);
    let mode = match cfg.model {
        ModelChoice::PandaTransitive(mode) => Some(mode),
        _ => None,
    };
    let mut model = PandaModel::new();
    if let Some(mode) = mode {
        model = model.with_transitivity(mode);
    }
    let (post, fit_ms) = ms(|| model.fit_predict(&matrix, Some(&cands)));
    m.insert("model.fit_ms", fit_ms);
    let (graph, build_ms) = ms(|| {
        TransitivityGraph::build(&cands, mode.unwrap_or(TransitivityMode::TwoTable), 500_000)
    });
    let mut gamma = post;
    let (_, project_ms) = ms(|| project_transitivity(&mut gamma, &graph, 5, 1e-6));
    m.insert("model.transitivity_ms", build_ms + project_ms);
    m.insert("model.triangles", graph.n_triangles() as f64);

    // Session load, and what the stages above leave unexplained in it.
    let (mut s, load_ms) = ms(|| PandaSession::load(tables.clone(), cfg.clone()));
    m.insert("session.load_ms", load_ms);
    m.insert(
        "session.load_residual_ms",
        load_ms - block_ms - grid_ms - apply_ms - fit_ms,
    );

    // Incremental edits and refits, each WAL-logged as the durable
    // server does, so the log can be replayed below.
    let dir = ctx.scratch.join(format!("persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SessionStore::open(&dir, 0)?;
    let (mut persist, _) = store.create(1, &task.request, &s)?;
    let (mut add, mut append, mut refit, mut iters) = (vec![], vec![], vec![], vec![]);
    let mut specs = curated_specs(task.family);
    specs.extend((1..4).map(|r| swept_spec(task.family, r)));
    for (i, spec) in specs.into_iter().enumerate() {
        let lf: BoxedLf = spec.build()?;
        let (r, t) = ms(|| s.upsert_lf_incremental(lf));
        r?;
        // The first edits register the curated LFs; only re-tunes of the
        // swept LF are the edit loops' single cost class.
        if i >= curated_specs(task.family).len() {
            add.push(t);
        }
        append.push(ms(|| persist.append(WalOp::UpsertLf { spec }, &s)).1);
        panda_obs::journal_drain();
        refit.push(ms(|| s.fit()).1);
        iters.push(em_iters_in_journal());
        append.push(ms(|| persist.append(WalOp::Fit, &s)).1);
    }
    m.insert("lf.add_column_ms", median(&add));
    m.insert("persist.append_ms", median(&append));
    m.insert("model.refit_ms", median(&refit));
    m.insert("model.em_iters", median(&iters));

    // Replay the log the way a follower applies shipped records.
    let (_, records) = persist.disk_parts()?;
    let mut replayer = Replayer::new();
    replayer.apply(&records[0])?;
    let mut replay = Vec::new();
    for pair in records[1..].chunks(2) {
        let t = Instant::now();
        for rec in pair {
            replayer.apply(rec)?;
        }
        replay.push(t.elapsed().as_secs_f64() * 1e3);
    }
    m.insert("repl.replay_ms", median(&replay));
    m.insert(
        "persist.snapshot_ms",
        median_ms(3, |_| persist.write_snapshot(&s).expect("snapshot write")),
    );
    drop(persist);
    let _ = std::fs::remove_dir_all(&dir);

    let swept = swept_spec(task.family, 0).name;
    m.insert(
        "session.panels_ms",
        median_ms(3, |_| {
            black_box(s.lf_stats());
            black_box(s.em_stats());
            black_box(s.debug_pairs(&swept, DebugQuery::LikelyFalsePositives, 10));
            black_box(s.smart_sample(10));
        }),
    );

    // Ad-hoc pair scoring, its LF half, and the serve layer around it.
    let pairs: Vec<_> = cands.pairs().iter().copied().take(PROBE_PAIRS).collect();
    let state = panda_serve::AppState::new();
    let id = state.insert(s);
    m.extend(pair_layers(&state, id, &pairs)?);
    m.insert("serve.heavy_ms", heavy_ms(&state, id, task.family)?);
    panda_obs::set_enabled(false);
    panda_obs::set_journal_enabled(false);
    m.insert("host.ref_ms", host_ref_ms());
    Ok(m)
}

/// Per-pair layers on session `id` of `state`: `score_pair` and every
/// LF's `label`, each a median over `pairs`; parsing a `/match` request of
/// [`MATCH_BATCH`] pairs and routing it, each a median over the requests
/// `pairs` fills. All in µs.
pub fn pair_layers(
    state: &AppState,
    id: u64,
    pairs: &[CandidatePair],
) -> Result<BTreeMap<&'static str, f64>, String> {
    let (mut score, mut label, mut parse, mut handle) = (vec![], vec![], vec![], vec![]);
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    for &p in pairs {
        with_session(state, id, |s| -> Result<(), String> {
            let t = Instant::now();
            black_box(s.score_pair(p)?);
            score.push(us(t));
            let pr = s.tables().pair_ref(p).map_err(|e| format!("{e:?}"))?;
            let t = Instant::now();
            for lf in s.registry().lfs() {
                black_box(lf.label(&pr));
            }
            label.push(us(t));
            Ok(())
        })?;
    }
    // Parsing and routing, per `/match` request of the served batch size.
    for batch in pairs.chunks_exact(MATCH_BATCH) {
        let body = match_body(id, batch);
        let mut wire = format!(
            "POST /match HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(&body);
        let t = Instant::now();
        let parsed = RequestParser::new().parse(&wire, 8 << 20);
        parse.push(us(t));
        let req = match parsed {
            Ok(Some(p)) => p.request,
            other => return Err(format!("parser rejected a /match request: {other:?}")),
        };
        let t = Instant::now();
        let resp = panda_serve::router::handle(state, &req);
        handle.push(us(t));
        if resp.status != 200 {
            return Err(format!("in-process /match: {}", resp.body));
        }
    }
    Ok(BTreeMap::from([
        ("session.score_pair_us", median(&score)),
        ("lf.label_us", median(&label)),
        ("serve.parse_us", median(&parse)),
        ("serve.handler_us", median(&handle)),
    ]))
}

/// Median over three heavy rounds of routing the round's edit and refit
/// in process on session `id` of `state`, in ms.
pub fn heavy_ms(state: &AppState, id: u64, family: DatasetFamily) -> Result<f64, String> {
    let mut times = Vec::new();
    for round in 1..=3 {
        let body = crate::inputs::spec_body(&crate::served::heavy_spec(family, round));
        let edit = request("POST", &format!("/sessions/{id}/lfs"), &body);
        let fit = request("POST", &format!("/sessions/{id}/fit"), b"");
        let t = Instant::now();
        for req in [edit, fit] {
            let resp = panda_serve::router::handle(state, &req);
            if resp.status != 200 {
                return Err(format!("in-process heavy round: {}", resp.body));
            }
        }
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&times))
}
