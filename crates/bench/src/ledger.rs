//! The bench ledger: the one record shape of the six committed
//! `BENCH_*.json` files, their loader, the case table that measures every
//! line and the comparator `bench_gate` holds the lines with.
//!
//! A file's header holds what its lines share: the `benchmark`, the
//! `command` that re-takes it, the `hardware`, the compute `workers`, the
//! `base_rev` its `before` numbers ran on, the `method` and the `notes`. A
//! line holds its `case`, its `unit`, which way is `better` and one
//! measured `value`. The rest of a line (`before`, `ratio` = value ÷
//! before, `runs`, `layer`, a `base_rev` of its own, `note`) explains the
//! value, and nothing gates it.
//!
//! [`CASES`] gives every line the workload that measures it, in the line's
//! unit: library calls in ns per call (the `p2`–`p6` criterion targets time
//! their file's cases), request classes in requests per second (driven by
//! [`crate::serve`]).

use crate::serve::{self, Load, Mode, Request, Store};
use panda_autolf::{generate_auto_lfs, AutoLfConfig};
use panda_datasets::{generate, DatasetFamily, GeneratorConfig};
use panda_embed::{Blocker, EmbeddingLshBlocker};
use panda_lf::{BoxedLf, LabelMatrix, LfRegistry};
use panda_model::testutil::{plant, PlantedLf};
use panda_model::{LabelModel, PandaModel, SnorkelModel};
use panda_session::{sampling, DebugQuery, PandaSession, SessionConfig};
use panda_table::{CandidatePair, CandidateSet, Schema, Table, TablePair};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const AUTOLF: &str = "BENCH_autolf.json";
const EMFIT: &str = "BENCH_emfit.json";
const LFAPPLY: &str = "BENCH_lfapply.json";
const BLOCKING: &str = "BENCH_blocking.json";
const PANELS: &str = "BENCH_panels.json";
const SERVE: &str = "BENCH_serve.json";

/// The committed files, in the order `bench_gate` holds them.
pub const FILES: [&str; 6] = [AUTOLF, EMFIT, LFAPPLY, BLOCKING, PANELS, SERVE];

/// Timed calls of a library case per measurement, after one untimed
/// warm-up call.
const CALLS: u32 = 3;

/// Which way a line improves.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// Whether `measured` is within `limit`; a NaN never is.
    pub fn holds(self, measured: f64, limit: f64) -> bool {
        match self {
            Better::Lower => measured <= limit,
            Better::Higher => measured >= limit,
        }
    }
}

impl Serialize for Better {
    fn to_value(&self) -> Value {
        let word = match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        Value::Str(word.into())
    }
}

impl Deserialize for Better {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        match v {
            Value::Str(s) if s == "lower" => Ok(Better::Lower),
            Value::Str(s) if s == "higher" => Ok(Better::Higher),
            other => Err(serde::Error::msg(format!(
                "better must be \"lower\" or \"higher\", got {other:?}"
            ))),
        }
    }
}

/// One line: a case's measured value and what explains it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Line {
    pub case: String,
    pub layer: Option<String>,
    pub unit: String,
    pub better: Better,
    /// The one number `bench_gate` holds.
    pub value: f64,
    pub before: Option<f64>,
    /// `value ÷ before`, or the median per-round ratio when the two were
    /// taken in alternated rounds.
    pub ratio: Option<f64>,
    /// Every run behind `before` and `value`, by series: a series whose
    /// name ends in `_ms` is in milliseconds, one ending in `_us` in
    /// microseconds, any other in the line's unit.
    pub runs: Option<BTreeMap<String, Vec<f64>>>,
    /// The revision `before` ran on, when it is not the file's.
    pub base_rev: Option<String>,
    pub note: Option<String>,
}

/// One committed `BENCH_*.json` file.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Ledger {
    pub benchmark: String,
    pub command: String,
    pub hardware: String,
    pub workers: usize,
    pub base_rev: String,
    pub method: String,
    pub notes: Option<String>,
    pub lines: Vec<Line>,
}

fn path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file)
}

impl Ledger {
    /// Read `file` at the repository root and check it: a non-empty
    /// header, at least one worker, and lines with distinct cases whose
    /// values are finite and positive.
    pub fn load(file: &str) -> Result<Ledger, String> {
        let text = std::fs::read_to_string(path(file)).map_err(|e| format!("{file}: {e}"))?;
        let ledger: Ledger = serde_json::from_str(&text).map_err(|e| format!("{file}: {e}"))?;
        ledger.check().map_err(|e| format!("{file}: {e}"))?;
        Ok(ledger)
    }

    fn check(&self) -> Result<(), String> {
        let header = [
            ("benchmark", &self.benchmark),
            ("command", &self.command),
            ("hardware", &self.hardware),
            ("base_rev", &self.base_rev),
        ];
        if let Some((field, _)) = header.iter().find(|(_, text)| text.trim().is_empty()) {
            return Err(format!("empty {field}"));
        }
        if self.workers == 0 || self.lines.is_empty() {
            return Err("no workers or no lines".into());
        }
        for (i, line) in self.lines.iter().enumerate() {
            if !(line.value.is_finite() && line.value > 0.0) {
                return Err(format!(
                    "{}: value {} is not finite and > 0",
                    line.case, line.value
                ));
            }
            if self.lines[..i].iter().any(|other| other.case == line.case) {
                return Err(format!("{}: more than one line", line.case));
            }
        }
        Ok(())
    }

    /// Check the ledger as [`Ledger::load`] does and write it to `file` at
    /// the repository root.
    pub fn save(&self, file: &str) -> Result<(), String> {
        self.check().map_err(|e| format!("{file}: {e}"))?;
        let json = serde_json::to_string_pretty(self).map_err(|e| e.to_string())?;
        std::fs::write(path(file), json + "\n").map_err(|e| format!("{file}: {e}"))
    }
}

/// What `bench_gate` found for one line or one overhead ratio.
#[derive(Debug, Serialize)]
pub struct Verdict {
    pub file: String,
    pub case: String,
    pub unit: String,
    /// The line's value; for an overhead ratio, its limit before slack.
    pub value: f64,
    /// NaN when nothing could be measured.
    pub measured: f64,
    pub limit: f64,
    pub pass: bool,
    /// Why nothing was measured, or how a ratio spread.
    pub note: String,
}

/// Hold `line` of `file`: measure its case with `measure` and compare in
/// the case's direction. A lower-is-better case passes when the
/// measurement is at most value × `factor`, a higher-is-better one when it
/// is at least value ÷ `factor`. A line with no case, a line whose `better`
/// or `unit` is not its case's, a failed measurement and a NaN fail.
pub fn hold(
    file: &str,
    line: &Line,
    factor: f64,
    measure: impl FnOnce(&Case) -> Result<f64, String>,
) -> Verdict {
    let case = CASES
        .iter()
        .find(|case| case.file == file && case.name == line.case);
    let better = case.map_or(line.better, Case::better);
    let limit = match better {
        Better::Lower => line.value * factor,
        Better::Higher => line.value / factor,
    };
    let measured = match case {
        None => Err("no case in the table".to_string()),
        Some(case) if (case.better(), case.unit()) != (line.better, line.unit.as_str()) => {
            Err(format!(
                "the line is {:?} in {}, its case {:?} in {}",
                line.better,
                line.unit,
                case.better(),
                case.unit()
            ))
        }
        Some(case) => measure(case),
    };
    let (measured, note) = match measured {
        Ok(measured) => (measured, String::new()),
        Err(e) => (f64::NAN, e),
    };
    Verdict {
        file: file.into(),
        case: line.case.clone(),
        unit: line.unit.clone(),
        value: line.value,
        measured,
        limit,
        pass: better.holds(measured, limit),
        note,
    }
}

/// Wall time of `n` runs of a library case's call.
pub type Timer = Box<dyn FnMut(u64) -> Duration>;

/// A library case's input, built: the candidate pairs it holds and the
/// timer of the call on it.
pub struct Input {
    pub pairs: usize,
    pub time: Timer,
}

/// How a case measures itself.
pub(crate) enum Workload {
    /// A library call, in ns per call: builds the input off the clock.
    Call(fn() -> Input),
    /// A request class, in requests per second, against a fresh in-process
    /// server with the full observability plane on, as `panda serve` runs.
    Request(Request),
}

/// One case: the line it measures and the workload that measures it.
pub struct Case {
    /// The file holding the case's line.
    pub file: &'static str,
    /// The line's `case`.
    pub name: &'static str,
    workload: Workload,
}

impl Case {
    /// Which way the case's line improves: a call's time lower, a request
    /// class's throughput higher.
    pub fn better(&self) -> Better {
        match self.workload {
            Workload::Call(_) => Better::Lower,
            Workload::Request(_) => Better::Higher,
        }
    }

    /// The unit the case measures in.
    pub fn unit(&self) -> &'static str {
        match self.workload {
            Workload::Call(_) => "ns",
            Workload::Request(_) => "req/s",
        }
    }

    /// Measure the case at `workers` workers in its line's unit: the mean
    /// of `CALLS` timed calls after one untimed call, or the throughput of
    /// one closed-loop run of the request class.
    pub fn measure(&self, workers: usize) -> Result<f64, String> {
        match self.workload {
            Workload::Call(_) => at(workers, || {
                let mut input = self.input()?;
                (input.time)(1);
                let total = (input.time)(u64::from(CALLS));
                Ok(total.as_nanos() as f64 / f64::from(CALLS))
            }),
            Workload::Request(_) => self.serve(workers).map(|load| load.rps),
        }
    }

    /// A library case's input, built now. An input holding another number
    /// of pairs than the case's name states is an error, so a line is
    /// never held against an input that drifted from the one it was
    /// recorded on.
    pub fn input(&self) -> Result<Input, String> {
        let Workload::Call(build) = self.workload else {
            return Err(format!("{} is a request class, not a call", self.name));
        };
        let input = build();
        match stated_pairs(self.name) {
            Some(stated) if stated != input.pairs => Err(format!(
                "{}: the input holds {} pairs, the name states {stated}",
                self.name, input.pairs
            )),
            _ => Ok(input),
        }
    }

    /// One closed-loop run of a request class at `workers` workers, on a
    /// fresh in-process server with the full observability plane on.
    pub fn serve(&self, workers: usize) -> Result<Load, String> {
        let Workload::Request(request) = &self.workload else {
            return Err(format!(
                "{} is a library call, not a request class",
                self.name
            ));
        };
        at(workers, || {
            serve::run(request, workers, Store::Memory, true)
        })
    }
}

/// `f` with the compute pool held at `workers` workers.
fn at<T>(workers: usize, f: impl FnOnce() -> T) -> T {
    panda_exec::set_worker_override(Some(workers));
    let out = f();
    panda_exec::set_worker_override(None);
    out
}

/// The pair count a case's name states: the number before its `cands` or
/// `pairs` (`…_2616cands`, `…_8242pairs`, `20k_pairs` = 20,000), if any.
fn stated_pairs(name: &str) -> Option<usize> {
    let at = name.find("cands").or_else(|| name.find("pairs"))?;
    let head = name[..at].trim_end_matches('_');
    let (head, scale) = match head.strip_suffix('k') {
        Some(head) => (head, 1000),
        None => (head, 1),
    };
    let digits = head.trim_end_matches(|c: char| c.is_ascii_digit());
    head[digits.len()..]
        .parse::<usize>()
        .ok()
        .map(|n| n * scale)
}

/// The cases of `file`, in table order.
pub fn cases(file: &str) -> impl Iterator<Item = &'static Case> + '_ {
    CASES.iter().filter(move |case| case.file == file)
}

/// One case per committed line.
pub const CASES: &[Case] = &[
    // generate_auto_lfs: abt-buy 150 and walmart-amazon 150 (its
    // attribute pairs double the scored axes) with default blocker
    // settings, and abt-buy 300 as an ide_loop session loads it.
    call(AUTOLF, "abt_buy/150e_2616cands", || {
        grid(
            blocked(DatasetFamily::AbtBuy, 150, 77, 7),
            AutoLfConfig::default(),
        )
    }),
    call(AUTOLF, "walmart_amazon/150e_343cands", || {
        let cfg = AutoLfConfig {
            attribute_pairs: vec![
                ("title".into(), "name".into()),
                ("modelno".into(), "model".into()),
            ],
            ..AutoLfConfig::default()
        };
        grid(blocked(DatasetFamily::WalmartAmazon, 150, 55, 55), cfg)
    }),
    call(AUTOLF, "abt_buy/300e_8242cands", || {
        grid(
            blocked(DatasetFamily::AbtBuy, 300, 3, 3),
            AutoLfConfig::default(),
        )
    }),
    // Cold fits of the planted matrix, whose rows rarely repeat, and the
    // warm refit a Step-4 edit round runs.
    call(EMFIT, "em_fit/panda/20k_pairs_10lfs", || {
        fit(planted(), None, || Box::new(PandaModel::new()))
    }),
    call(EMFIT, "em_fit/snorkel/20k_pairs_10lfs", || {
        fit(planted(), None, || Box::new(SnorkelModel::new()))
    }),
    call(EMFIT, "em_fit/panda_refit/abt_buy_300e_8242pairs", || {
        let session = ide_session(3);
        let warm = session.posteriors().to_vec();
        fit(session.matrix().clone(), Some(warm), || {
            Box::new(PandaModel::new())
        })
    }),
    // The deployment phase's full apply, one edited LF's column, and the
    // Monge-Elkan authors_me alone on the deploy batch, on author lists
    // where no token repeats and on lists drawn from a 200-token pool.
    call(LFAPPLY, "apply/dblp_scholar_curated/200e_5516cands", || {
        let lfs = crate::curated_lfs(DatasetFamily::DblpScholar);
        apply(blocked(DatasetFamily::DblpScholar, 200, 11, 11), lfs)
    }),
    call(
        LFAPPLY,
        "add_column/abt_buy_name_overlap/300e_8242cands",
        || {
            let (tables, cands) = blocked(DatasetFamily::AbtBuy, 300, 3, 3);
            let lf = curated(DatasetFamily::AbtBuy, "name_overlap");
            Input {
                pairs: cands.len(),
                time: fresh(LabelMatrix::new, move |matrix| {
                    black_box(matrix.add_column(&lf, 1, &tables, &cands))
                        .expect("curated LF applies");
                }),
            }
        },
    ),
    call(
        LFAPPLY,
        "apply/dblp_scholar_authors_me/200e_5516cands",
        || {
            let lf = curated(DatasetFamily::DblpScholar, "authors_me");
            apply(blocked(DatasetFamily::DblpScholar, 200, 11, 11), vec![lf])
        },
    ),
    call(
        LFAPPLY,
        "apply/authors_me_distinct_tokens/250x300_5000cands",
        || {
            let lf = curated(DatasetFamily::DblpScholar, "authors_me");
            apply(author_lists(None), vec![lf])
        },
    ),
    call(
        LFAPPLY,
        "apply/authors_me_pool200_tokens/250x300_5000cands",
        || {
            let lf = curated(DatasetFamily::DblpScholar, "authors_me");
            apply(author_lists(Some(200)), vec![lf])
        },
    ),
    // The deployment phase's blocking, and session load's (and
    // rehydrate's): the candidates plus the sampler likelihood.
    call(BLOCKING, "deploy/dblp_scholar/200e_5516cands", || {
        let (tables, cands) = blocked(DatasetFamily::DblpScholar, 200, 11, 11);
        let blocker = EmbeddingLshBlocker::new(11);
        Input {
            pairs: cands.len(),
            time: each(move || {
                black_box(blocker.candidates(black_box(&tables)));
            }),
        }
    }),
    call(BLOCKING, "load/abt_buy/300e_8242cands", || {
        let (tables, cands) = blocked(DatasetFamily::AbtBuy, 300, 3, 3);
        let blocker = EmbeddingLshBlocker::new(3);
        Input {
            pairs: cands.len(),
            time: each(move || {
                black_box(blocker.candidates_with_cosines(black_box(&tables)));
            }),
        }
    }),
    // What perfbench's session.panels span refreshes after an ide_loop
    // edit: lf_stats, em_stats, one ten-row debugging query and a
    // smart_sample(10) click, run as the session runs it but over a fixed
    // empty shown mask, so every call ranks the same pairs.
    call(PANELS, "panels/abt_buy_300e", || {
        let session = ide_session(1);
        let likelihood: Vec<f64> = (0..session.candidates().len())
            .map(|i| {
                session
                    .viewer_row(i)
                    .likelihood
                    .expect("sampler likelihood")
            })
            .collect();
        let shown = vec![false; likelihood.len()];
        Input {
            pairs: likelihood.len(),
            time: each(move || {
                black_box(session.lf_stats());
                black_box(session.em_stats());
                let query = DebugQuery::LikelyFalsePositives;
                black_box(session.debug_pairs("name_overlap", query, 10));
                let picked = sampling::smart_sample(&likelihood, session.posteriors(), &shown, 10);
                let rows: Vec<_> = picked.into_iter().map(|i| session.viewer_row(i)).collect();
                black_box(rows);
            }),
        }
    }),
    // A warm fit with the journal recording, as every fit in panda serve
    // runs: EM, then one lf.stats event per LF.
    call(PANELS, "refit_journaled/abt_buy_300e", || {
        let mut session = ide_session(1);
        Input {
            pairs: session.candidates().len(),
            time: Box::new(move |n| {
                let was_on = panda_obs::journal_enabled();
                panda_obs::set_journal_enabled(true);
                let started = Instant::now();
                for _ in 0..n {
                    session.fit();
                }
                let elapsed = started.elapsed();
                panda_obs::set_journal_enabled(was_on);
                elapsed
            }),
        }
    }),
    // The interactive IDE's shape rides persistent connections; the
    // pipelined and connection-per-request shapes bound what the event
    // loop amortizes and what a fresh connection costs.
    request(SERVE, "healthz", serve::HEALTHZ),
    request(SERVE, "match_single_pair", serve::MATCH),
    request(SERVE, "query_debug", serve::QUERY),
    request(
        SERVE,
        "healthz_pipelined",
        Request {
            mode: Mode::Pipelined(125),
            ..serve::HEALTHZ
        },
    ),
    request(
        SERVE,
        "healthz_connclose",
        Request {
            mode: Mode::ConnClose(150),
            ..serve::HEALTHZ
        },
    ),
    request(
        SERVE,
        "match_single_pair_connclose",
        Request {
            mode: Mode::ConnClose(150),
            ..serve::MATCH
        },
    ),
];

const fn call(file: &'static str, name: &'static str, build: fn() -> Input) -> Case {
    Case {
        file,
        name,
        workload: Workload::Call(build),
    }
}

const fn request(file: &'static str, name: &'static str, request: Request) -> Case {
    Case {
        file,
        name,
        workload: Workload::Request(request),
    }
}

/// Wall time of `n` runs of `call`.
fn each(mut call: impl FnMut() + 'static) -> Timer {
    Box::new(move |n| {
        let started = Instant::now();
        for _ in 0..n {
            call();
        }
        started.elapsed()
    })
}

/// Wall time of `n` runs of `call`, each on a fresh `setup()` made and
/// dropped off the clock.
fn fresh<S>(
    mut setup: impl FnMut() -> S + 'static,
    mut call: impl FnMut(&mut S) + 'static,
) -> Timer {
    Box::new(move |n| {
        (0..n)
            .map(|_| {
                let mut state = setup();
                let started = Instant::now();
                call(&mut state);
                started.elapsed()
            })
            .sum()
    })
}

/// `generate_auto_lfs` over the candidates.
fn grid((tables, cands): (TablePair, CandidateSet), cfg: AutoLfConfig) -> Input {
    Input {
        pairs: cands.len(),
        time: each(move || {
            black_box(generate_auto_lfs(&tables, &cands, &cfg));
        }),
    }
}

/// `LabelMatrix::apply` of `lfs` on a fresh matrix and registry.
fn apply((tables, cands): (TablePair, CandidateSet), lfs: Vec<BoxedLf>) -> Input {
    let setup = move || {
        let mut registry = LfRegistry::new();
        for lf in &lfs {
            registry.upsert(lf.clone());
        }
        (LabelMatrix::new(), registry)
    };
    Input {
        pairs: cands.len(),
        time: fresh(setup, move |(matrix, registry)| {
            black_box(matrix.apply(registry, &tables, &cands));
        }),
    }
}

/// `fit_predict` of the matrix by a fresh `model()`, warm-started off the
/// clock when `warm` holds posteriors.
fn fit(matrix: LabelMatrix, warm: Option<Vec<f64>>, model: fn() -> Box<dyn LabelModel>) -> Input {
    let setup = move || {
        let mut model = model();
        if let Some(warm) = &warm {
            model.set_warm_start(warm);
        }
        model
    };
    Input {
        pairs: matrix.n_pairs(),
        time: fresh(setup, move |model| {
            black_box(model.fit_predict(black_box(&matrix), None));
        }),
    }
}

fn config(seed: u64, entities: usize) -> GeneratorConfig {
    GeneratorConfig::new(seed).with_entities(entities)
}

/// `family` at `entities` from `seed`, blocked with the default blocker
/// settings (those of `SessionConfig::default()`: cosine floor 0.25, 32
/// candidates per record) at `blocker_seed`. A session blocks its tables
/// at its own seed.
fn blocked(
    family: DatasetFamily,
    entities: usize,
    seed: u64,
    blocker_seed: u64,
) -> (TablePair, CandidateSet) {
    let tables = generate(family, &config(seed, entities));
    let cands = EmbeddingLshBlocker::new(blocker_seed).candidates(&tables);
    (tables, cands)
}

/// The curated LF `name` of `family`.
fn curated(family: DatasetFamily, name: &str) -> BoxedLf {
    crate::curated_lfs(family)
        .into_iter()
        .find(|lf| lf.name() == name)
        .expect("the curated set has the LF")
}

/// The planted 20k-pair, 10-LF matrix (`testutil::plant`, seed 4242,
/// prior 0.15). Its votes are drawn independently per pair, so few rows
/// repeat: the worst case for vote patterns.
fn planted() -> LabelMatrix {
    let lfs = [
        PlantedLf::symmetric(0.9, 0.85),
        PlantedLf::symmetric(0.8, 0.9),
        PlantedLf::symmetric(0.7, 0.75),
        PlantedLf::symmetric(0.5, 0.8),
        PlantedLf::symmetric(0.9, 0.7),
        PlantedLf::symmetric(0.3, 0.95),
        PlantedLf::symmetric(0.6, 0.65),
        PlantedLf::symmetric(0.8, 0.8),
        PlantedLf::symmetric(0.4, 0.7),
        PlantedLf::symmetric(0.7, 0.9),
    ];
    plant(20_000, 0.15, &lfs, 4242).matrix
}

/// An `ide_loop`-style session: abt-buy 300 at `seed`, auto LFs, then the
/// curated LFs and a refit.
fn ide_session(seed: u64) -> PandaSession {
    let tables = generate(DatasetFamily::AbtBuy, &config(seed, 300));
    let config = SessionConfig {
        seed,
        ..SessionConfig::default()
    };
    let mut session = PandaSession::load(tables, config);
    for lf in crate::curated_lfs(DatasetFamily::AbtBuy) {
        session.upsert_lf(lf);
    }
    session.apply();
    session
}

/// Synthetic author lists: 250 left and 300 right records of 2–8 random
/// 4–8-letter tokens, 20 distinct random candidates per left record. With
/// `pool`, every token comes from that many distinct tokens, so token
/// pairs repeat across candidates; without, no token appears twice.
fn author_lists(pool: Option<usize>) -> (TablePair, CandidateSet) {
    let mut rng = SmallRng::seed_from_u64(19);
    let mut seen = HashSet::new();
    let mut fresh = |rng: &mut SmallRng| loop {
        let len = rng.gen_range(4..=8);
        let token: String = (0..len)
            .map(|_| rng.gen_range(b'a'..=b'z') as char)
            .collect();
        if seen.insert(token.clone()) {
            return token;
        }
    };
    let pool: Vec<String> = (0..pool.unwrap_or(0)).map(|_| fresh(&mut rng)).collect();
    let mut table = |rows: usize, rng: &mut SmallRng| {
        let mut t = Table::new("authors", Schema::of_text(&["authors"]));
        for _ in 0..rows {
            let tokens: Vec<String> = (0..rng.gen_range(2..=8))
                .map(|_| match pool.len() {
                    0 => fresh(rng),
                    n => pool[rng.gen_range(0..n)].clone(),
                })
                .collect();
            t.push(vec![tokens.join(" ")]).expect("one text column");
        }
        t
    };
    let (left, right) = (table(250, &mut rng), table(300, &mut rng));
    let mut pairs = Vec::new();
    for l in 0..250u32 {
        let mut picked = HashSet::new();
        while picked.len() < 20 {
            let r = rng.gen_range(0..300u32);
            if picked.insert(r) {
                pairs.push(CandidatePair::new(l, r));
            }
        }
    }
    (TablePair::new(left, right), CandidateSet::from_pairs(pairs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_state_their_pair_counts() {
        assert_eq!(stated_pairs("abt_buy/150e_2616cands"), Some(2616));
        assert_eq!(stated_pairs("x/abt_buy_300e_8242pairs"), Some(8242));
        assert_eq!(stated_pairs("em_fit/panda/20k_pairs_10lfs"), Some(20_000));
        assert_eq!(stated_pairs("panels/abt_buy_300e"), None);
        for case in CASES {
            if case.name.contains("cands") || case.name.contains("pairs") {
                assert!(stated_pairs(case.name).is_some(), "{}", case.name);
            }
        }
    }

    #[test]
    fn an_input_that_drifted_from_its_name_is_an_error() {
        let name = "apply/authors_me_pool200_tokens/250x300_5000cands";
        let case = CASES.iter().find(|c| c.name == name).expect("the case");
        assert_eq!(case.input().map(|input| input.pairs).ok(), Some(5000));
        let Workload::Call(build) = case.workload else {
            panic!("{name} is a call");
        };
        let drifted = call(
            case.file,
            "apply/authors_me_pool200_tokens/250x300_4999cands",
            build,
        );
        let error = drifted.input().err().expect("a drifted input is an error");
        assert!(
            error.contains("holds 5000 pairs, the name states 4999"),
            "{error}"
        );
    }
}
