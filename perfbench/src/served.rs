//! The workloads against `panda serve` child processes: `match_open`
//! (open-loop `/match`) and `mixed_heavy` (edits + refits beside
//! `/match` on a durable, replicated primary), plus the short serve probe
//! traced runs take their network-side layer numbers from.

use crate::client::{Conn, Served};
use crate::inprocess::tasks;
use crate::inputs::{
    match_body, match_scores, pair_pool, reference_session, session_id, spec_body, swept_spec,
    with_session, Task,
};
use crate::loadgen::{
    open_loop, pipelined_loop, poisson_schedule, wait_until, Payload, PhaseCounts, Rng, Shot,
};
use crate::stats::{median, window_median_rate, Op, Samples};
use crate::trace::Tracer;
use crate::workload::{
    sub_seed, Ctx, Outcome, RATE_WINDOWS, SERVE_EXEC_WORKERS, SERVE_WORKERS, SETUP_REPS,
};
use panda_datasets::DatasetFamily;
use panda_serve::api::{LfSpec, SessionListResponse};
use panda_serve::AppState;
use panda_table::CandidatePair;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Served workloads' inputs: abt-buy at this many entities.
pub const SERVE_ENTITIES: usize = 300;
/// Pairs per `/match` request, in both served workloads: a caller scoring
/// one entity against its candidates. With this many pairs `score_pair`
/// is most of a request, so the request measures the scoring path rather
/// than the host's wake-up latency, which swings between runs.
pub const MATCH_BATCH: usize = 16;
/// `match_open` open-loop rate, requests per second. Basis: about 2% of
/// the closed-loop `/match` capacity this benchmark measures on the seed
/// (`match_open` `rate_per_s` ≈ 900 requests/s on a 2-vCPU Xeon VM), so a
/// request seldom finds another in the server, and less often than the
/// tail's share of the samples: the open loop measures a lone request,
/// the path a `score_pair` or serve-overhead gain moves. Waiting behind
/// other work is `mixed_heavy`'s to measure.
pub const MATCH_RATE: f64 = 20.0;
/// Requests per pipelined batch in `match_open`'s saturating phase.
const PIPELINE_DEPTH: usize = 32;
/// Requests sent before each timed phase.
const WARM_UP: usize = 200;
/// `match_open`'s timed phase is cut into slices of this length, each an
/// open-loop part and then a closed-loop part, so both kinds of load are
/// spread over the whole run and see the same host.
const SLICE_S: f64 = 1.0;
/// Share of each slice that is open loop. The rest is the saturating
/// closed loop `rate_per_s` comes from, which needs only a few hundred
/// requests per slice; the open loop gets the time, because its tail
/// needs many samples.
const OPEN_SHARE: f64 = 0.75;
/// Idle time before each slice's open part: a closed-loop batch still in
/// flight at the end of its part would otherwise delay the next open-loop
/// request.
const SLICE_GUARD_S: f64 = 0.05;
/// `mixed_heavy` open-loop `/match` rate, requests per second. Basis:
/// about 1.5% of the cheap sessions' closed-loop `/match` capacity (≈ 1000
/// requests/s on the seed), so the cheap requests seldom queue behind each
/// other and their tail is the wait behind heavy rounds. With ≈ 225
/// requests a run, ten beyond the tail are the top fifth of the ≈ 45 that
/// wait behind a round, not its few longest waits: at 30/s the tail spread
/// 0.47 over six seeds, at 15/s 0.25, run alternately on a loaded host.
pub const MIXED_RATE: f64 = 15.0;
/// `mixed_heavy` inputs: abt-buy at this many entities per session.
pub const MIXED_ENTITIES: usize = 200;
/// `mixed_heavy` sessions, each from its own seed, so a run averages the
/// refit and scoring cost of several seeds' data.
const MIXED_SESSIONS: usize = 6;
/// Of those, the last this many take the cheap requests.
const CHEAP_SESSIONS: usize = 2;
/// Non-matching candidates in the labelled `/match` pool (plus every
/// gold match among the candidates).
const POOL_NEGATIVES: usize = 600;

fn spawn(ctx: &Ctx, extra: &[&str]) -> Result<Served, String> {
    let bin = ctx
        .panda_bin
        .as_deref()
        .ok_or("served workloads need the panda binary")?;
    let workers = SERVE_WORKERS.to_string();
    let mut args = vec!["--addr", "127.0.0.1:0", "--workers", &workers];
    args.extend_from_slice(extra);
    Served::spawn(bin, &args, SERVE_EXEC_WORKERS)
}

fn io(e: std::io::Error) -> String {
    e.to_string()
}

fn expect_200(what: &str, (status, body): (u16, Vec<u8>)) -> Result<Vec<u8>, String> {
    if status == 200 {
        Ok(body)
    } else {
        Err(format!(
            "{what}: HTTP {status}: {}",
            String::from_utf8_lossy(&body)
        ))
    }
}

/// `match_open`'s inputs. Auto-LF discovery is off: the LF set is the
/// curated one for every seed, so the per-request cost of `/match` does
/// not hinge on which LFs one seed's grid picked.
pub fn served_tasks(seed: u64) -> Vec<Task> {
    tasks(
        DatasetFamily::AbtBuy,
        SERVE_ENTITIES,
        seed,
        "panda",
        SETUP_REPS,
    )
    .into_iter()
    .map(Task::curated_only)
    .collect()
}

/// Build one fitted session over HTTP: create, the task's LFs, fit.
fn build_session(conn: &mut Conn, task: &Task) -> Result<u64, String> {
    let created = expect_200(
        "create",
        conn.call("POST", "/sessions", &task.body()).map_err(io)?,
    )?;
    let id = session_id(&created)?;
    for spec in &task.specs {
        let path = format!("/sessions/{id}/lfs");
        expect_200(
            &spec.name,
            conn.call("POST", &path, &spec_body(spec)).map_err(io)?,
        )?;
    }
    expect_200(
        "fit",
        conn.call("POST", &format!("/sessions/{id}/fit"), b"")
            .map_err(io)?,
    )?;
    Ok(id)
}

/// Send [`WARM_UP`] requests before timing starts, in pipelined batches.
fn warm_up<F: Fn(usize) -> Payload>(conn: &mut Conn, payload: &F) -> Result<(), String> {
    let batch: Vec<Payload> = (0..WARM_UP).map(payload).collect();
    for chunk in batch.chunks(PIPELINE_DEPTH) {
        for (status, body) in conn.pipeline(chunk).map_err(io)? {
            expect_200("warm-up", (status, body))?;
        }
    }
    Ok(())
}

/// `(session, wal_seq, digest)` of every session a server lists.
fn listing(conn: &mut Conn) -> Result<Vec<(u64, u64, String)>, String> {
    let body = expect_200("list", conn.call("GET", "/sessions", b"").map_err(io)?)?;
    let text = String::from_utf8_lossy(&body);
    let list: SessionListResponse =
        serde_json::from_str(&text).map_err(|e| format!("{e}: {text}"))?;
    Ok(list
        .sessions
        .into_iter()
        .map(|s| (s.session, s.wal_seq, s.matrix_digest))
        .collect())
}

/// Poll until the follower lists exactly what the primary lists.
fn await_replica(primary: &mut Conn, follower: &mut Conn) -> Result<Duration, String> {
    let want = listing(primary)?;
    let t = Instant::now();
    while listing(follower)? != want {
        if t.elapsed() > Duration::from_secs(60) {
            return Err("follower did not catch up within 60 s".into());
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    Ok(t.elapsed())
}

/// Removes a temporary directory when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn new(scratch: &Path, tag: &str) -> Result<TempDir, String> {
        let dir = scratch.join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A labelled pool and each pair's in-process `score_pair` bits, with
/// the in-process session that produced them.
struct Pool {
    pairs: Vec<(CandidatePair, bool)>,
    expected: Vec<u64>,
    state: AppState,
    id: u64,
}

impl Pool {
    fn new(task: &Task, rng: &mut Rng) -> Result<Pool, String> {
        let (state, id) = reference_session(task)?;
        let (pairs, expected) = with_session(&state, id, |s| {
            let pairs = pair_pool(&task.tables, s.candidates(), POOL_NEGATIVES, rng);
            let expected = pairs
                .iter()
                .map(|(p, _)| s.score_pair(*p).map(f64::to_bits))
                .collect::<Result<Vec<u64>, _>>()?;
            Ok::<_, String>((pairs, expected))
        })?;
        Ok(Pool {
            pairs,
            expected,
            state,
            id,
        })
    }

    /// Per-pair layer times on the reference session (traced runs).
    fn layers(&self) -> Result<BTreeMap<&'static str, f64>, String> {
        let pairs: Vec<CandidatePair> = (0..crate::probes::PROBE_PAIRS)
            .map(|j| self.pairs[j % self.pairs.len()].0)
            .collect();
        crate::probes::pair_layers(&self.state, self.id, &pairs)
    }

    /// Pool indices of the request that starts at `pick`: the
    /// [`MATCH_BATCH`] pairs from there on, wrapping around.
    fn indices(&self, pick: usize) -> impl Iterator<Item = usize> + '_ {
        (pick..pick + MATCH_BATCH).map(|j| j % self.pairs.len())
    }

    /// The `/match` body of the request that starts at `pick`.
    fn body(&self, session: u64, pick: usize) -> Vec<u8> {
        let pairs: Vec<CandidatePair> = self.indices(pick).map(|j| self.pairs[j].0).collect();
        match_body(session, &pairs)
    }

    /// A served `/match` answer is correct when it is HTTP 200 and each of
    /// its scores has exactly the reference's f64 bits.
    fn check(&self, pick: usize, status: u16, body: &[u8]) -> bool {
        status == 200
            && match_scores(body).is_some_and(|s| {
                s.len() == MATCH_BATCH
                    && s.iter()
                        .zip(self.indices(pick))
                        .all(|(x, j)| x.to_bits() == self.expected[j])
            })
    }

    /// Reference score and gold label of each pair of request `pick`.
    fn outcomes(&self, pick: usize) -> impl Iterator<Item = (f64, bool)> + '_ {
        self.indices(pick)
            .map(|j| (f64::from_bits(self.expected[j]), self.pairs[j].1))
    }
}

/// F1 of the checked shots' scores (equal to the reference's, since
/// they passed the bit-for-bit check); `outcomes` maps a request index to
/// its pairs' scores and labels.
fn served_f1<I: Iterator<Item = (f64, bool)>>(
    shots: &[Shot],
    outcomes: impl Fn(usize) -> I,
) -> f64 {
    crate::inputs::f1(shots.iter().filter(|s| s.ok).flat_map(|s| outcomes(s.idx)))
}

fn record_latencies(out: &mut Outcome, shots: &[Shot]) {
    for s in shots {
        out.attempted += 1;
        if s.ok {
            out.latency.ok(s.latency_ms());
        } else {
            out.failed += 1;
            out.latency.failed();
        }
    }
}

fn median_latency(shots: &[Shot]) -> f64 {
    median(&shots.iter().map(Shot::latency_ms).collect::<Vec<_>>())
}

/// Traced runs record the spans of an open-loop phase's second half live
/// (from `traced_from_s` on) and leave its first half untraced; this is
/// the ratio of the halves' median latencies.
fn trace_overhead(shots: &[Shot], traced_from_s: f64) -> f64 {
    let (traced, untraced): (Vec<Shot>, Vec<Shot>) =
        shots.iter().partition(|s| s.start_s >= traced_from_s);
    median_latency(&traced) / median_latency(&untraced)
}

fn loadgen_note(out: &mut Outcome, phase: &str, shots: &[Shot]) {
    let c = PhaseCounts::of(shots);
    let late: Vec<f64> = shots.iter().map(|s| s.late_ms).collect();
    out.notes.push(format!(
        "loadgen {phase}: sent {} ok {} failed {} late_ms p50 {:.4} max {:.4}",
        c.sent,
        c.ok,
        c.failed,
        median(&late),
        late.iter().copied().fold(0.0, f64::max)
    ));
}

fn loadgen_layers(out: &mut Outcome, shots: &[Shot]) {
    let c = PhaseCounts::of(shots);
    let late: Vec<f64> = shots.iter().map(|s| s.late_ms).collect();
    out.layers.insert("loadgen.late_ms", median(&late));
    out.layers.insert("loadgen.sent", c.sent as f64);
    out.layers.insert("loadgen.failed", c.failed as f64);
}

/// `match_open`: open-loop [`MATCH_BATCH`]-pair `/match` at a fixed rate,
/// sliced with a saturating closed loop, against one `panda serve` (one
/// event-loop worker, no state dir).
pub fn match_open(ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome {
        limit_ms: 20.0,
        ..Default::default()
    };
    let mut rng = Rng::new(ctx.seed, 1);
    let tasks = served_tasks(ctx.seed);
    let t = Instant::now();
    let server = spawn(ctx, &[])?;
    let mut conn = Conn::connect(&server.addr).map_err(io)?;
    let spawn_s = t.elapsed().as_secs_f64();
    let mut ids = Vec::new();
    for task in &tasks {
        let t = Instant::now();
        ids.push(build_session(&mut conn, task)?);
        out.setups_s.push(spawn_s + t.elapsed().as_secs_f64());
    }
    let (id, task) = (ids[0], &tasks[0]);
    let pool = Pool::new(task, &mut rng)?;

    let slices = (ctx.secs / SLICE_S).round().max(1.0) as usize;
    let slice_s = ctx.secs / slices as f64;
    let open_part_s = slice_s * OPEN_SHARE;
    // Poisson arrivals over the open parts only, mapped onto the phase
    // clock: open time t falls in slice t / open_part_s.
    let sched: Vec<f64> = poisson_schedule(&mut rng, MATCH_RATE, open_part_s * slices as f64)
        .into_iter()
        .map(|t| {
            let j = (t / open_part_s).floor();
            j * slice_s + (t - j * open_part_s)
        })
        .collect();
    let picks: Vec<usize> = (0..sched.len())
        .map(|_| rng.below(pool.pairs.len()))
        .collect();
    let payload = |i: usize| -> Payload {
        (
            "POST",
            "/match".into(),
            pool.body(id, picks[i % picks.len()]),
        )
    };
    let check =
        |i: usize, status: u16, body: &[u8]| pool.check(picks[i % picks.len()], status, body);
    // Warm-up outside the timed phase.
    warm_up(&mut conn, &payload)?;

    let traced_from = ctx.secs / 2.0;
    let (mut open, mut closed, mut slice_rates) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    for j in 0..slices {
        let open_from = j as f64 * slice_s;
        let closed_from = open_from + open_part_s;
        let (a, b) = (
            sched.partition_point(|&t| t < open_from),
            sched.partition_point(|&t| t < closed_from),
        );
        tr.set_on(ctx.trace);
        open.extend(open_loop(
            &mut conn,
            start,
            &sched[a..b],
            a,
            &payload,
            &check,
            tr,
            traced_from,
        ));
        tr.set_on(false);
        // The closed part: saturating, from its start or from where the
        // open part ended, if later.
        wait_until(start + Duration::from_secs_f64(closed_from));
        let begin = start.elapsed().as_secs_f64();
        let shots = pipelined_loop(
            &mut conn,
            start,
            open_from + slice_s - SLICE_GUARD_S,
            sched.len() + closed.len(),
            PIPELINE_DEPTH,
            &payload,
            &check,
        );
        if let Some(end) = shots.last().map(|s| s.end_s).filter(|&e| e > begin) {
            slice_rates.push(shots.iter().filter(|s| s.ok).count() as f64 / (end - begin));
        }
        closed.extend(shots);
    }
    out.rss_mb = server.peak_rss_mb();
    server.stop();

    record_latencies(&mut out, &open);
    out.attempted += closed.len() as u64;
    out.failed += closed.iter().filter(|s| !s.ok).count() as u64;
    // Each slice's closed part is one of the equal windows.
    out.rate_per_s = median(&slice_rates);
    out.f1 = served_f1(&open, |i| pool.outcomes(picks[i]));
    out.notes.push(format!(
        "inputs: abt-buy {SERVE_ENTITIES} entities, {} LFs, pool {} pairs, {MATCH_BATCH} pairs \
         per /match; {slices} slices of {slice_s:.2} s on one connection, each open loop \
         {MATCH_RATE}/s for {open_part_s:.2} s then closed loop (pipeline depth \
         {PIPELINE_DEPTH}) to {SLICE_GUARD_S} s before the slice ends",
        task.specs.len(),
        pool.pairs.len()
    ));
    loadgen_note(&mut out, "open", &open);
    loadgen_note(&mut out, "closed", &closed);
    if ctx.trace {
        out.layers.insert("serve.client_ms", median_latency(&open));
        out.layers
            .insert("trace.overhead", trace_overhead(&open, traced_from));
        loadgen_layers(&mut out, &open);
        out.layers.extend(pool.layers()?);
    }
    Ok(out)
}

/// Think time between heavy rounds: the user reads the refreshed panels.
/// Basis: a heavy round takes about 35 ms on the seed, so the loop keeps
/// the primary's one event loop about a fifth busy with heavy work. Back
/// to back, the heavy rounds leave it no idle time and the cheap
/// requests' backlog grows with the run's length. At a third busy (75
/// ms) the cheap median sat near the blocked requests and spread 0.14
/// over ten seeds; at a fifth it spread 0.08 over five.
const HEAVY_THINK: Duration = Duration::from_millis(150);

/// The edit of heavy round `round`: a Levenshtein LF on the first curated
/// LF's attribute, its upper threshold cycling through the sweep.
pub fn heavy_spec(family: DatasetFamily, round: usize) -> LfSpec {
    let mut spec = swept_spec(family, round);
    spec.name = format!("{}_lev", spec.name);
    spec.measure = Some("lev".into());
    spec
}

/// One heavy round on session `id`: the round's edit, then a refit.
fn heavy_round(conn: &mut Conn, family: DatasetFamily, id: u64, round: usize) -> bool {
    let spec = heavy_spec(family, round);
    let edit = conn.call("POST", &format!("/sessions/{id}/lfs"), &spec_body(&spec));
    let mut fit = || conn.call("POST", &format!("/sessions/{id}/fit"), b"");
    matches!(edit, Ok((200, _))) && matches!(fit(), Ok((200, _)))
}

/// A heavy round's `(start_s, end_s, ok)` on the phase clock.
type Round = (f64, f64, bool);

/// Heavy rounds (closed loop with think time, rotating over `ids`) on
/// `heavy_conn` beside the open-loop `sched` on `cheap`, both for `secs`
/// from now. Requests and rounds from `traced_from_s` on are recorded in
/// `tr` (while it is on): the requests live, the rounds once they end.
#[allow(clippy::too_many_arguments)]
fn heavy_beside_cheap<F, C>(
    heavy_conn: &mut Conn,
    family: DatasetFamily,
    ids: &[u64],
    cheap: &mut Conn,
    secs: f64,
    sched: &[f64],
    payload: &F,
    check: &C,
    tr: &mut Tracer,
    traced_from_s: f64,
) -> (Vec<Shot>, Vec<Round>)
where
    F: Fn(usize) -> Payload + Sync,
    C: Fn(usize, u16, &[u8]) -> bool + Sync,
{
    let start = Instant::now();
    std::thread::scope(|s| {
        let heavy = s.spawn(move || {
            let mut rounds = Vec::new();
            let mut round = 1;
            loop {
                let begin = start.elapsed().as_secs_f64();
                if begin >= secs {
                    return rounds;
                }
                let n = ids.len();
                let ok = heavy_round(heavy_conn, family, ids[round % n], round / n);
                rounds.push((begin, start.elapsed().as_secs_f64(), ok));
                round += 1;
                std::thread::sleep(HEAVY_THINK);
            }
        });
        let shots = open_loop(cheap, start, sched, 0, payload, check, tr, traced_from_s);
        let rounds = heavy.join().expect("heavy client thread");
        let at = |s: f64| start + Duration::from_secs_f64(s);
        for r in rounds.iter().filter(|r| r.0 >= traced_from_s) {
            tr.record("serve.heavy_round", at(r.0), at(r.1));
        }
        (shots, rounds)
    })
}

/// Tail latency (ten samples beyond) of the cheap requests that overlapped
/// a heavy round: what a request caught behind heavy work waits for.
fn blocked_tail_ms(shots: &[Shot], rounds: &[Round]) -> f64 {
    let mut blocked = Samples::default();
    for s in shots
        .iter()
        .filter(|s| rounds.iter().any(|r| s.start_s < r.1 && s.end_s > r.0))
    {
        if s.ok {
            blocked.ok(s.latency_ms());
        } else {
            blocked.failed();
        }
    }
    blocked.summary().tail_ms
}

fn round_ms(rounds: &[Round]) -> f64 {
    median(&rounds.iter().map(|r| (r.1 - r.0) * 1e3).collect::<Vec<_>>())
}

/// The durable primary (state dir + replication listener) and its
/// follower, both one-worker `panda serve` children.
fn replicated_pair(ctx: &Ctx, dir: &TempDir) -> Result<(Served, Served), String> {
    let state_dir = dir.0.to_str().ok_or("state dir path is not UTF-8")?;
    let primary = spawn(
        ctx,
        &["--state-dir", state_dir, "--repl-addr", "127.0.0.1:0"],
    )?;
    let repl = primary
        .repl
        .clone()
        .ok_or("primary printed no replication address")?;
    let follower = spawn(ctx, &["--follow", &repl])?;
    Ok((primary, follower))
}

/// `mixed_heavy`: a closed loop of LF edit + refit on session A beside
/// open-loop `/match` on session B, on a durable replicated primary.
pub fn mixed_heavy(ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome {
        limit_ms: 1000.0,
        ..Default::default()
    };
    let mut rng = Rng::new(ctx.seed, 2);
    let family = DatasetFamily::AbtBuy;
    // Heavy rounds rotate over the first sessions; the cheap requests
    // alternate over the last ones (Panda model, like `match_open`). Every
    // session has the curated LFs only, and the heavy ones refit a
    // majority vote: the cost of a heavy round then follows the data's
    // size, not how many auto LFs one seed's grid kept or how far its EM
    // must travel, which swing it by half between seeds.
    let heavy_n = MIXED_SESSIONS - CHEAP_SESSIONS;
    let tasks: Vec<Task> = (0..MIXED_SESSIONS)
        .map(|k| {
            let model = if k < heavy_n { "majority" } else { "panda" };
            Task::new(family, MIXED_ENTITIES, sub_seed(ctx.seed, k), model).curated_only()
        })
        .collect();
    let dir = TempDir::new(&ctx.scratch, "state")?;
    let t = Instant::now();
    let (primary, follower) = replicated_pair(ctx, &dir)?;
    let mut heavy_conn = Conn::connect(&primary.addr).map_err(io)?;
    let mut fconn = Conn::connect(&follower.addr).map_err(io)?;
    let spawn_s = t.elapsed().as_secs_f64();
    let mut ids = Vec::new();
    for task in &tasks {
        let t = Instant::now();
        ids.push(build_session(&mut heavy_conn, task)?);
        out.setups_s.push(spawn_s + t.elapsed().as_secs_f64());
        // Replication of the create replays a full load on the follower;
        // let it finish so the next set-up is not timed beside it.
        await_replica(&mut heavy_conn, &mut fconn)?;
    }
    let (heavy_ids, cheap_ids) = ids.split_at(heavy_n);
    let pools = tasks[heavy_n..]
        .iter()
        .map(|t| Pool::new(t, &mut rng))
        .collect::<Result<Vec<_>, _>>()?;
    let sched = poisson_schedule(&mut rng, MIXED_RATE, ctx.secs);
    let picks: Vec<(usize, usize)> = (0..sched.len())
        .map(|i| {
            let k = i % pools.len();
            (k, rng.below(pools[k].pairs.len()))
        })
        .collect();
    let payload = |i: usize| -> Payload {
        let (k, j) = picks[i % picks.len()];
        ("POST", "/match".into(), pools[k].body(cheap_ids[k], j))
    };
    let check = |i: usize, status: u16, body: &[u8]| {
        let (k, j) = picks[i % picks.len()];
        pools[k].check(j, status, body)
    };
    let mut cheap = Conn::connect(&primary.addr).map_err(io)?;
    warm_up(&mut cheap, &payload)?;
    heavy_round(&mut heavy_conn, family, heavy_ids[0], 0);

    let traced_from = ctx.secs / 2.0;
    tr.set_on(ctx.trace);
    let (shots, heavy) = heavy_beside_cheap(
        &mut heavy_conn,
        family,
        heavy_ids,
        &mut cheap,
        ctx.secs,
        &sched,
        &payload,
        &check,
        tr,
        traced_from,
    );
    tr.set_on(false);
    out.rss_mb = primary.peak_rss_mb();

    record_latencies(&mut out, &shots);
    let heavy_failed = heavy.iter().filter(|r| !r.2).count() as u64;
    out.attempted += heavy.len() as u64;
    out.failed += heavy_failed;
    // Heavy rounds per second of heavy work: a clock that runs only
    // during rounds, so the think time does not dilute the rate.
    let mut busy = 0.0;
    let heavy_ops: Vec<Op> = heavy
        .iter()
        .filter(|r| r.2)
        .map(|&(s0, s1, _)| {
            busy += s1 - s0;
            Op {
                start_s: busy - (s1 - s0),
                end_s: busy,
                work: 1.0,
            }
        })
        .collect();
    // With no successful round there is no clock to rate against; the
    // failed rounds are already counted, so the run reports itself wrong.
    out.rate_per_s = if busy > 0.0 {
        window_median_rate(&heavy_ops, busy, RATE_WINDOWS)
    } else {
        0.0
    };
    out.f1 = served_f1(&shots, |i| {
        let (k, j) = picks[i];
        pools[k].outcomes(j)
    });

    // The follower must end byte-identical to the primary.
    await_replica(&mut heavy_conn, &mut fconn)?;
    // Rows below 20 exist in every generated table of this size.
    let mut differ = 0;
    for k in 0..50u32 {
        let session = ids[k as usize % ids.len()];
        let body = match_body(session, &[CandidatePair::new(k % 20, (k * 7) % 20)]);
        let p = heavy_conn.call("POST", "/match", &body).map_err(io)?;
        let f = fconn.call("POST", "/match", &body).map_err(io)?;
        if p.0 != 200 || p != f {
            differ += 1;
        }
    }
    out.mismatches += differ;
    primary.stop();
    follower.stop();
    out.notes.push(format!(
        "inputs: abt-buy {MIXED_ENTITIES} entities, open-loop /match ({MATCH_BATCH} pairs) \
         {MIXED_RATE}/s on \
         sessions {cheap_ids:?} beside a closed edit+fit loop ({} ms think) on sessions {heavy_ids:?}; {} heavy \
         rounds ({heavy_failed} failed), p50 {:.3} ms; follower /match bytes differ on \
         {differ} of 50 across all sessions",
        HEAVY_THINK.as_millis(),
        heavy.len(),
        round_ms(&heavy)
    ));
    loadgen_note(&mut out, "open", &shots);
    if ctx.trace {
        out.layers
            .insert("serve.blocked_tail_ms", blocked_tail_ms(&shots, &heavy));
        out.layers
            .insert("trace.overhead", trace_overhead(&shots, traced_from));
        out.layers.insert("serve.heavy_round_ms", round_ms(&heavy));
        out.layers.extend(pools[0].layers()?);
        let (state, id) = reference_session(&tasks[0])?;
        out.layers.insert(
            "serve.heavy_ms",
            crate::probes::heavy_ms(&state, id, family)?,
        );
        loadgen_layers(&mut out, &shots);
    }
    Ok(out)
}

/// The network side of the per-layer numbers, for traced runs of every
/// workload: uncontended `/match` latency, `/match` beside heavy rounds,
/// and replication lag after each heavy round, on a replicated pair
/// built from `task`.
pub fn serve_probe(ctx: &Ctx, task: &Task) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut rng = Rng::new(ctx.seed, 3);
    let mut untraced = Tracer::new(false);
    let dir = TempDir::new(&ctx.scratch, "probe")?;
    let (primary, follower) = replicated_pair(ctx, &dir)?;
    let mut heavy_conn = Conn::connect(&primary.addr).map_err(io)?;
    let mut fconn = Conn::connect(&follower.addr).map_err(io)?;
    let id = build_session(&mut heavy_conn, task)?;
    await_replica(&mut heavy_conn, &mut fconn)?;
    let pairs: Vec<CandidatePair> = task
        .tables
        .gold
        .as_ref()
        .map(|g| g.iter().copied().take(200).collect())
        .unwrap_or_default();
    if pairs.is_empty() {
        return Err("probe task has no gold pairs".into());
    }
    let payload = |i: usize| -> Payload {
        let batch: Vec<CandidatePair> = (0..MATCH_BATCH)
            .map(|k| pairs[(i * MATCH_BATCH + k) % pairs.len()])
            .collect();
        ("POST", "/match".into(), match_body(id, &batch))
    };
    let check = |_: usize, status: u16, _: &[u8]| status == 200;
    let mut cheap = Conn::connect(&primary.addr).map_err(io)?;
    warm_up(&mut cheap, &payload)?;
    // The first heavy round adds the re-tuned LF; until the refit after
    // it, `/match` on the session answers 422 (the fitted model has one
    // LF fewer than the registry). Later rounds only re-tune it.
    heavy_round(&mut heavy_conn, task.family, id, 0);
    await_replica(&mut heavy_conn, &mut fconn)?;

    let alone = open_loop(
        &mut cheap,
        Instant::now(),
        &poisson_schedule(&mut rng, MATCH_RATE, 2.0),
        0,
        &payload,
        &check,
        &mut untraced,
        f64::INFINITY,
    );
    let sched = poisson_schedule(&mut rng, MIXED_RATE, 3.0);
    let (beside, rounds) = heavy_beside_cheap(
        &mut heavy_conn,
        task.family,
        &[id],
        &mut cheap,
        3.0,
        &sched,
        &payload,
        &check,
        &mut untraced,
        f64::INFINITY,
    );
    let mut lags = Vec::new();
    for round in 0..5 {
        heavy_round(&mut heavy_conn, task.family, id, 100 + round);
        lags.push(await_replica(&mut heavy_conn, &mut fconn)?.as_secs_f64() * 1e3);
    }
    primary.stop();
    follower.stop();

    let all: Vec<Shot> = alone.iter().chain(&beside).copied().collect();
    let counts = PhaseCounts::of(&all);
    let late: Vec<f64> = all.iter().map(|s| s.late_ms).collect();
    let mut m = BTreeMap::new();
    m.insert("serve.client_ms", median_latency(&alone));
    m.insert("serve.blocked_tail_ms", blocked_tail_ms(&beside, &rounds));
    m.insert("serve.heavy_round_ms", round_ms(&rounds));
    m.insert("repl.lag_ms", median(&lags));
    m.insert("loadgen.late_ms", median(&late));
    m.insert("loadgen.sent", counts.sent as f64);
    m.insert("loadgen.failed", counts.failed as f64);
    Ok(m)
}
