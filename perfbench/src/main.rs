//! `perfbench`: the end-to-end and per-layer benchmark of panda.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ide_loop|match_open|mixed_heavy|deploy_batch> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in a fresh process. Untraced runs
//! (`--trace 0`) print the end-to-end metrics; traced runs (`--trace 1`)
//! record spans around every call into a layer and print the per-layer
//! metrics. The last line of standard output is the result as JSON.

mod client;
mod inprocess;
mod inputs;
mod loadgen;
mod probes;
mod served;
mod stats;
mod trace;
mod workload;

use inputs::Task;
use panda_datasets::DatasetFamily;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;
use workload::{Ctx, Outcome, EXEC_WORKERS, SERVE_EXEC_WORKERS, SERVE_WORKERS};

/// The end-to-end metrics every untraced run prints, with units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("rate_per_s", "1/s"),
    ("f1", "ratio"),
    ("rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints, with units.
const PER_LAYER: [(&str, &str); 37] = [
    ("embed.block_ms", "ms"),
    ("embed.candidates", "count"),
    ("embed.recall", "ratio"),
    ("autolf.grid_ms", "ms"),
    ("autolf.emitted", "count"),
    ("autolf.survivor_ratio", "ratio"),
    ("lf.apply_ms", "ms"),
    ("lf.apply_ns_per_vote", "ns"),
    ("lf.coverage", "ratio"),
    ("lf.add_column_ms", "ms"),
    ("lf.label_us", "us"),
    ("text.cache_hit_ratio", "ratio"),
    ("model.refit_ms", "ms"),
    ("model.em_iters", "count"),
    ("model.fit_ms", "ms"),
    ("model.transitivity_ms", "ms"),
    ("model.triangles", "count"),
    ("session.load_ms", "ms"),
    ("session.load_residual_ms", "ms"),
    ("session.panels_ms", "ms"),
    ("session.score_pair_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.handler_us", "us"),
    ("serve.overhead_us", "us"),
    ("serve.heavy_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("persist.append_ms", "ms"),
    ("persist.snapshot_ms", "ms"),
    ("repl.replay_ms", "ms"),
    ("repl.lag_ms", "ms"),
    ("loadgen.late_ms", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.failed", "count"),
    ("host.ref_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("op.residual_ms", "ms"),
    ("op.p50_ms", "ms"),
];

const WORKLOADS: [&str; 4] = ["ide_loop", "match_open", "mixed_heavy", "deploy_batch"];

struct Args {
    workload: String,
    seed: u64,
    secs: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let secs: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(secs > 0.0 && secs <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        secs,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
        },
    })
}

/// The repository root this benchmark was built in.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a directory of the repository")
        .to_path_buf()
}

/// Build `panda` (the CLI whose `serve` the served workloads run) from
/// this checkout and return its path.
fn build_panda(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = std::process::Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "panda-cli",
        ])
        .current_dir(root)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build -p panda-cli failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bin = root.join(target).join("release").join("panda");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("no panda binary at {}", bin.display()))
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")?
                    .split_once(':')
                    .map(|(_, v)| v.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The workload's set-up inputs, for the in-process probes of a traced run.
fn probe_task(workload: &str, seed: u64) -> Task {
    match workload {
        "deploy_batch" => Task::new(
            DatasetFamily::DblpScholar,
            inprocess::BATCH_ENTITIES,
            seed,
            "panda-transitive",
        ),
        "ide_loop" => Task::new(
            DatasetFamily::AbtBuy,
            inprocess::IDE_ENTITIES,
            seed,
            "panda",
        ),
        "mixed_heavy" => Task::new(DatasetFamily::AbtBuy, served::MIXED_ENTITIES, seed, "panda"),
        _ => Task::new(DatasetFamily::AbtBuy, served::SERVE_ENTITIES, seed, "panda"),
    }
}

/// Combine probes, the serve probe and the workload's own numbers into
/// the per-layer metrics, and print the dominant-layer shares.
fn per_layer(
    workload: &str,
    ctx: &Ctx,
    out: &Outcome,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let task = probe_task(workload, ctx.seed);
    let mut m = probes::layer_probes(ctx, &task)?;
    m.extend(served::serve_probe(ctx, &task)?);
    m.extend(out.layers.iter().map(|(k, v)| (*k, *v)));
    let handler_ms = m["serve.handler_us"] / 1e3;
    let client_ms = m.remove("serve.client_ms").ok_or("no client latency")?;
    let blocked_ms = m
        .remove("serve.blocked_tail_ms")
        .ok_or("no blocked latency")?;
    let heavy_round_ms = m.remove("serve.heavy_round_ms").ok_or("no heavy rounds")?;
    m.insert("serve.overhead_us", (client_ms - handler_ms) * 1e3);
    // What the requests at the tail of those caught behind a heavy round
    // spent waiting: their tail latency less their own handler time.
    m.insert("serve.wait_ms", blocked_ms - handler_ms);
    let op = out.latency.summary();
    m.insert("op.p50_ms", op.p50_ms);
    match workload {
        "match_open" => {
            let parse_ms = m["serve.parse_us"] / 1e3;
            m.insert("op.residual_ms", client_ms - parse_ms - handler_ms);
        }
        "mixed_heavy" => {
            let logged = m["serve.heavy_ms"] + 2.0 * m["persist.append_ms"];
            m.insert("op.residual_ms", heavy_round_ms - logged);
        }
        _ => {}
    }
    // Each part counts `times` times in the whole.
    let share = |parts: &[(&str, f64)], whole: f64| -> String {
        let sum: f64 = parts
            .iter()
            .map(|(p, times)| times * m[p] / if p.ends_with("_us") { 1e3 } else { 1.0 })
            .sum();
        let named: Vec<String> = parts
            .iter()
            .map(|&(p, times)| {
                if times == 1.0 {
                    p.to_string()
                } else {
                    format!("{times} x {p}")
                }
            })
            .collect();
        format!(
            "{} = {sum:.3} ms of {whole:.3} ms ({:.0}%)",
            named.join(" + "),
            100.0 * sum / whole
        )
    };
    let line = match workload {
        "ide_loop" => share(
            &[("lf.add_column_ms", 1.0), ("model.refit_ms", 1.0)],
            op.p50_ms,
        ),
        "match_open" => share(
            &[("session.score_pair_us", served::MATCH_BATCH as f64)],
            op.p50_ms,
        ),
        "mixed_heavy" => share(&[("serve.wait_ms", 1.0)], op.tail_ms),
        _ => share(&[("lf.apply_ms", 1.0), ("embed.block_ms", 1.0)], op.p50_ms),
    };
    println!("dominant layer: {line}");
    println!("{workload}.residual_ms {:.4}", m["op.residual_ms"]);
    Ok(m)
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#)
}

fn run(args: &Args) -> Result<bool, String> {
    let root = repo_root();
    let scratch = root.join(".perfbench");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let served_workload = matches!(args.workload.as_str(), "match_open" | "mixed_heavy");
    let panda_bin = if served_workload || args.trace {
        Some(build_panda(&root)?)
    } else {
        None
    };
    panda_exec::set_worker_override(Some(EXEC_WORKERS));
    panda_obs::set_enabled(false);
    let ctx = Ctx {
        seed: args.seed,
        secs: args.secs,
        trace: args.trace,
        panda_bin,
        scratch,
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} cpu=\"{}\" \
         exec_workers={EXEC_WORKERS} serve_exec_workers={SERVE_EXEC_WORKERS} \
         serve_workers={SERVE_WORKERS}",
        args.workload,
        args.seed,
        args.secs,
        u8::from(args.trace),
        cpu_model()
    );
    let mut tr = Tracer::new(false);
    let out = match args.workload.as_str() {
        "ide_loop" => inprocess::ide_loop(&ctx, &mut tr)?,
        "deploy_batch" => inprocess::deploy_batch(&ctx, &mut tr)?,
        "match_open" => served::match_open(&ctx, &mut tr)?,
        _ => served::mixed_heavy(&ctx, &mut tr)?,
    };
    for note in &out.notes {
        println!("{note}");
    }
    let lat = out.latency.summary();
    println!(
        "unit op: n {} failed {} over {} ms limit {}; p50 {:.4} ms; tail p{:.2} {:.4} ms{}",
        lat.n,
        lat.failed,
        out.limit_ms,
        out.latency.over_limit(out.limit_ms),
        lat.p50_ms,
        lat.tail_pct,
        lat.tail_ms,
        if lat.tail_supported {
            ""
        } else {
            " (fewer than 21 samples: maximum)"
        }
    );
    println!("set-up runs (s): {:?}", out.setups_s);
    println!(
        "attempted {} failed {} output-check mismatches {}",
        out.attempted, out.failed, out.mismatches
    );

    let (names, values): (Vec<(&str, &str)>, Vec<f64>) = if args.trace {
        let m = per_layer(&args.workload, &ctx, &out)?;
        let path = ctx
            .scratch
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        tr.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
        let values = PER_LAYER
            .iter()
            .map(|(n, _)| m.get(n).copied().ok_or(format!("no value for {n}")))
            .collect::<Result<_, _>>()?;
        (PER_LAYER.to_vec(), values)
    } else {
        let values = vec![
            stats::median(&out.setups_s),
            lat.p50_ms,
            lat.tail_ms,
            out.rate_per_s,
            out.f1,
            out.rss_mb,
        ];
        (END_TO_END.to_vec(), values)
    };
    let finite = values.iter().all(|v| v.is_finite());
    let correct = out.failed == 0 && out.mismatches == 0 && out.attempted > 0 && finite;
    let metrics: Vec<String> = names
        .iter()
        .zip(&values)
        .map(|(&(n, u), &v)| {
            println!("{n:<26} {v:>14.4} {u}");
            json_metric(n, if v.is_finite() { v } else { -1.0 }, u)
        })
        .collect();
    println!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        out.attempted.max(1),
        out.failed + out.mismatches,
        metrics.join(",")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}
