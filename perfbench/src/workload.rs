//! What every workload shares: its run context and its outcome.

use crate::stats::Samples;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Compute-pool workers of the benchmark process, fixed rather than
/// inherited. One: on a shared 2-vCPU host an op split over both vCPUs
/// waits for the slower one, and a process busy on both was charged
/// about three times the steal time of one busy on a single vCPU, run
/// alternately on the same seeds. `ide_loop` p50 spread 0.08 with one
/// worker against 0.23 with two over six seeds; `deploy_batch` p50 0.06
/// against 0.11 over five.
pub const EXEC_WORKERS: usize = 1;
/// Compute-pool workers of each `panda serve` (`PANDA_WORKERS`). One
/// each: a primary and its replaying follower then hold one core apiece
/// instead of four pools contending for two cores.
pub const SERVE_EXEC_WORKERS: usize = 1;
/// Event-loop workers per `panda serve` (`--workers`).
pub const SERVE_WORKERS: usize = 1;
/// Set-ups per run unless a workload needs more inputs; `setup_s` is
/// the median of a run's set-ups.
pub const SETUP_REPS: usize = 5;
/// Equal windows a rate's median is taken over.
pub const RATE_WINDOWS: usize = 10;

/// One run's settings.
pub struct Ctx {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Length of the timed phase.
    pub secs: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The `panda` binary, for workloads that run `panda serve`.
    pub panda_bin: Option<PathBuf>,
    /// Where temporary state and the trace file go (inside the checkout).
    pub scratch: PathBuf,
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Unit ops attempted in the timed phase.
    pub attempted: u64,
    /// Unit ops that failed, were refused, or answered wrong.
    pub failed: u64,
    /// Output checks outside the unit ops that did not match (follower
    /// bytes); each counts as one more failed op.
    pub mismatches: u64,
    /// Set-up times, one per repetition, in seconds.
    pub setups_s: Vec<f64>,
    /// Latency of the unit op.
    pub latency: Samples,
    /// Unit-op latency limit, in ms (failed ops count as over it).
    pub limit_ms: f64,
    /// Rate of the unit op, median over equal windows.
    pub rate_per_s: f64,
    /// Output quality against gold at threshold 0.5.
    pub f1: f64,
    /// Peak RSS of the process doing the work, in MB.
    pub rss_mb: f64,
    /// Per-layer values the workload measured itself (traced run only);
    /// they take precedence over the generic probes.
    pub layers: BTreeMap<&'static str, f64>,
    /// Facts printed before the result: inputs, counts, digests.
    pub notes: Vec<String>,
}

/// The seed of the `k`-th input of a run: each set-up draws its own
/// input, so a run's numbers average over several generated tasks
/// rather than hanging on one.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}
