//! Workload inputs: generated tables, the create-session request, the
//! curated LF specs, and labelled pair pools, all drawn from the seed.

use crate::loadgen::Rng;
use panda_datasets::{generate, DatasetFamily, GeneratorConfig};
use panda_serve::api::{
    CreateSessionRequest, LfSpec, MatchResponse, SessionConfigDto, SessionResponse,
};
use panda_serve::http::Request;
use panda_serve::AppState;
use panda_session::{PandaSession, SessionConfig};
use panda_table::{CandidatePair, CandidateSet, TablePair};

/// One task: tables plus the request that builds a session over them.
pub struct Task {
    /// Dataset family.
    pub family: DatasetFamily,
    /// Generated tables with gold.
    pub tables: TablePair,
    /// `POST /sessions` request (CSVs, gold, seed, model, auto LFs on).
    pub request: CreateSessionRequest,
    /// The LFs a client adds after creating the session, as wire specs.
    pub specs: Vec<LfSpec>,
}

impl Task {
    /// Generate `family` at `entities` from `seed`; the session uses
    /// `model` (a wire model name) and the same seed.
    pub fn new(family: DatasetFamily, entities: usize, seed: u64, model: &str) -> Task {
        let tables = generate(family, &GeneratorConfig::new(seed).with_entities(entities));
        let gold = tables.gold.as_ref().map(|g| {
            let mut pairs: Vec<Vec<u32>> = g.iter().map(|p| vec![p.left.0, p.right.0]).collect();
            pairs.sort();
            pairs
        });
        let request = CreateSessionRequest {
            left_csv: tables.left.to_csv_string(),
            right_csv: tables.right.to_csv_string(),
            gold,
            config: Some(SessionConfigDto {
                seed: Some(seed),
                auto_lfs: Some(true),
                model: Some(model.to_string()),
                ..Default::default()
            }),
        };
        Task {
            family,
            tables,
            request,
            specs: curated_specs(family),
        }
    }

    /// The same task with auto-LF discovery off: the LF set is then the
    /// curated one, identical for every seed.
    pub fn curated_only(mut self) -> Task {
        if let Some(cfg) = self.request.config.as_mut() {
            cfg.auto_lfs = Some(false);
        }
        self
    }

    /// The session config the server resolves from the request.
    pub fn config(&self) -> SessionConfig {
        self.request
            .config
            .clone()
            .unwrap_or_default()
            .resolve()
            .expect("benchmark config resolves")
    }

    /// The request body.
    pub fn body(&self) -> Vec<u8> {
        serde_json::to_string(&self.request)
            .expect("request serializes")
            .into_bytes()
    }
}

/// A similarity LF spec.
fn sim(name: &str, attr: &str, measure: &str, upper: f64, lower: f64) -> LfSpec {
    LfSpec {
        name: name.into(),
        kind: "similarity".into(),
        attr: Some(attr.into()),
        measure: Some(measure.into()),
        upper: Some(upper),
        lower: Some(lower),
        ..Default::default()
    }
}

/// The curated LFs as wire specs (what a user adds over HTTP). The first
/// is the similarity LF the edit loops re-tune.
pub fn curated_specs(family: DatasetFamily) -> Vec<LfSpec> {
    match family {
        DatasetFamily::DblpScholar => vec![
            sim("title_overlap", "title", "jaccard", 0.75, 0.15),
            sim("title_cosine", "title", "cosine", 0.8, 0.2),
            sim("authors_me", "authors", "me", 0.9, 0.3),
            LfSpec {
                name: "year_eq".into(),
                kind: "attribute_equality".into(),
                attr: Some("year".into()),
                unmatch_on_differ: Some(true),
                ..Default::default()
            },
        ],
        _ => vec![
            sim("name_overlap", "name", "jaccard", 0.6, 0.1),
            sim("name_cosine", "name", "cosine", 0.55, 0.08),
            LfSpec {
                name: "size_unmatch".into(),
                kind: "size_unmatch".into(),
                attrs: Some(vec!["name".into(), "description".into()]),
                ..Default::default()
            },
            LfSpec {
                name: "price_close".into(),
                kind: "numeric_tolerance".into(),
                attr: Some("price".into()),
                match_tol: Some(0.15),
                unmatch_tol: Some(0.6),
                ..Default::default()
            },
        ],
    }
}

/// Upper thresholds the edit loops cycle the re-tuned LF through.
pub const SWEEP: [f64; 6] = [0.45, 0.5, 0.55, 0.6, 0.65, 0.7];

/// The re-tuned LF at edit round `round`.
pub fn swept_spec(family: DatasetFamily, round: usize) -> LfSpec {
    let mut spec = curated_specs(family).remove(0);
    spec.upper = Some(SWEEP[round % SWEEP.len()]);
    spec
}

/// JSON body of a spec.
pub fn spec_body(spec: &LfSpec) -> Vec<u8> {
    serde_json::to_string(spec)
        .expect("spec serializes")
        .into_bytes()
}

/// An in-process request for [`panda_serve::router::handle`].
pub fn request(method: &str, path: &str, body: &[u8]) -> Request {
    Request {
        method: method.into(),
        path: path.into(),
        query: String::new(),
        body: body.to_vec(),
    }
}

/// Build the served session in process, through the router, with the
/// same requests a client sends: create, the task's LFs, fit. Returns the
/// state and the session id.
pub fn reference_session(task: &Task) -> Result<(AppState, u64), String> {
    let state = AppState::new();
    let created = panda_serve::router::handle(&state, &request("POST", "/sessions", &task.body()));
    if created.status != 200 {
        return Err(format!("reference create: {}", created.body));
    }
    let id = session_id(created.body.as_bytes())?;
    for spec in &task.specs {
        let path = format!("/sessions/{id}/lfs");
        let r = panda_serve::router::handle(&state, &request("POST", &path, &spec_body(spec)));
        if r.status != 200 {
            return Err(format!("reference LF {}: {}", spec.name, r.body));
        }
    }
    let r = panda_serve::router::handle(
        &state,
        &request("POST", &format!("/sessions/{id}/fit"), b""),
    );
    if r.status != 200 {
        return Err(format!("reference fit: {}", r.body));
    }
    Ok((state, id))
}

/// Run `f` on session `id` of `state`.
pub fn with_session<T>(state: &AppState, id: u64, f: impl FnOnce(&PandaSession) -> T) -> T {
    let slot = state.get(id).expect("reference session exists");
    let guard = slot.lock().expect("reference session lock");
    f(&guard.session)
}

/// The `session` field of a session response.
pub fn session_id(body: &[u8]) -> Result<u64, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    serde_json::from_str::<SessionResponse>(text)
        .map(|r| r.session)
        .map_err(|e| format!("{e}: {text}"))
}

/// A labelled pair pool: every gold match among the candidates plus
/// `negatives` non-matching candidates, in seeded order.
pub fn pair_pool(
    tables: &TablePair,
    candidates: &CandidateSet,
    negatives: usize,
    rng: &mut Rng,
) -> Vec<(CandidatePair, bool)> {
    let gold = tables.gold.as_ref().expect("generated tasks carry gold");
    let (pos, neg): (Vec<CandidatePair>, Vec<CandidatePair>) =
        candidates.pairs().iter().partition(|p| gold.contains(p));
    let mut pool: Vec<(CandidatePair, bool)> = pos.into_iter().map(|p| (p, true)).collect();
    let mut neg = neg;
    for _ in 0..negatives.min(neg.len()) {
        let i = rng.below(neg.len());
        pool.push((neg.swap_remove(i), false));
    }
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.below(i + 1));
    }
    pool
}

/// F1 at threshold 0.5 of `(score, is_match)` outcomes.
pub fn f1(outcomes: impl IntoIterator<Item = (f64, bool)>) -> f64 {
    let (mut tp, mut fp, mut fneg) = (0.0, 0.0, 0.0);
    for (score, is_match) in outcomes {
        match (score >= 0.5, is_match) {
            (true, true) => tp += 1.0,
            (true, false) => fp += 1.0,
            (false, true) => fneg += 1.0,
            (false, false) => {}
        }
    }
    if tp == 0.0 {
        0.0
    } else {
        2.0 * tp / (2.0 * tp + fp + fneg)
    }
}

/// FNV-1a over the bits of a posterior vector.
pub fn digest(xs: &[f64]) -> u64 {
    panda_serve::repl::fnv1a(
        &xs.iter()
            .flat_map(|x| x.to_bits().to_le_bytes())
            .collect::<Vec<u8>>(),
    )
}

/// The `scores` array of a `/match` response.
pub fn match_scores(body: &[u8]) -> Option<Vec<f64>> {
    let text = std::str::from_utf8(body).ok()?;
    serde_json::from_str::<MatchResponse>(text)
        .ok()
        .map(|r| r.scores)
}

/// A `/match` body for `pairs`.
pub fn match_body(session: u64, pairs: &[CandidatePair]) -> Vec<u8> {
    let pairs: Vec<String> = pairs
        .iter()
        .map(|p| format!("[{},{}]", p.left.0, p.right.0))
        .collect();
    format!(r#"{{"session":{session},"pairs":[{}]}}"#, pairs.join(",")).into_bytes()
}
