//! The tentpole guarantee: driving the IDE loop over HTTP produces
//! results **bit-identical** to the same flow through the offline
//! [`PandaSession`] — the server adds transport, not semantics.

mod common;

use panda_serve::api::{
    CreateSessionRequest, LfSpec, MatchRequest, MatchResponse, SessionConfigDto, SessionResponse,
};
use panda_serve::client::request;
use panda_serve::{Server, ServerConfig};
use panda_session::{DebugQuery, PandaSession};
use panda_table::CandidatePair;

fn create_request() -> CreateSessionRequest {
    let (left_csv, right_csv, gold) = common::demo_csvs();
    CreateSessionRequest {
        left_csv,
        right_csv,
        gold: Some(gold),
        config: Some(SessionConfigDto {
            auto_lfs: Some(false),
            ..Default::default()
        }),
    }
}

fn lf_specs() -> Vec<LfSpec> {
    vec![
        LfSpec {
            name: "name_overlap".into(),
            kind: "similarity".into(),
            attr: Some("name".into()),
            upper: Some(0.5),
            lower: Some(0.1),
            ..Default::default()
        },
        LfSpec {
            name: "price_tol".into(),
            kind: "numeric_tolerance".into(),
            attr: Some("price".into()),
            match_tol: Some(0.05),
            unmatch_tol: Some(0.5),
            ..Default::default()
        },
    ]
}

#[test]
fn server_flow_is_bit_identical_to_offline_session() {
    let create = create_request();
    let probe_pairs: Vec<Vec<u32>> = vec![vec![0, 0], vec![1, 1], vec![2, 5], vec![7, 7]];

    // ---- Offline reference: the same flow through the library. ----
    let tables = panda_serve::api::build_tables(&create).unwrap();
    let config = create.config.clone().unwrap().resolve().unwrap();
    let mut offline = PandaSession::load(tables, config);
    for spec in lf_specs() {
        offline
            .upsert_lf_incremental(spec.build().unwrap())
            .unwrap();
    }
    offline.fit();
    let offline_rows = offline.debug_pairs("name_overlap", DebugQuery::VotedMatch, 10);
    let offline_scores: Vec<f64> = probe_pairs
        .iter()
        .map(|p| offline.score_pair(CandidatePair::new(p[0], p[1])).unwrap())
        .collect();

    // ---- The same flow over the wire. ----
    let handle = Server::start(ServerConfig {
        workers: 2,
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr();
    // Every step must answer 200; its body is what parity compares.
    let post = |path: &str, body: String| {
        let reply = request(addr, "POST", path, &body, None).unwrap();
        assert_eq!(reply.status, 200, "{path}: {}", reply.body);
        reply.body
    };

    let created = post("/sessions", serde_json::to_string(&create).unwrap());
    let id = serde_json::from_str::<SessionResponse>(&created)
        .unwrap()
        .session;
    for spec in lf_specs() {
        post(
            &format!("/sessions/{id}/lfs"),
            serde_json::to_string(&spec).unwrap(),
        );
    }
    let fit_body = post(&format!("/sessions/{id}/fit"), String::new());

    // Snapshot parity: EM stats, every LF stats row, event count — the
    // whole panel state serializes identically.
    let expected = serde_json::to_string(&SessionResponse {
        session: id,
        snapshot: offline.snapshot(),
    })
    .unwrap();
    assert_eq!(fit_body, expected, "server snapshot != offline snapshot");

    // Query parity: same rows, same order, same posteriors.
    let query = r#"{"lf":"name_overlap","query":"VotedMatch","limit":10}"#;
    let q_body = post(&format!("/sessions/{id}/query"), query.to_string());
    let expected_rows = format!(
        "{{\"rows\":{}}}",
        serde_json::to_string(&offline_rows).unwrap()
    );
    assert_eq!(q_body, expected_rows, "server query != offline debug_pairs");

    // Match parity: ad-hoc scores are the exact same f64s.
    let pairs = MatchRequest {
        session: id,
        pairs: probe_pairs,
    };
    let m_body = post("/match", serde_json::to_string(&pairs).unwrap());
    let scores: MatchResponse = serde_json::from_str(&m_body).unwrap();
    assert_eq!(scores.scores, offline_scores, "server scores != offline");

    // A pair that is also a candidate scores its fitted posterior exactly.
    let cand0 = offline.candidates().get(0).unwrap();
    let (l, r) = (cand0.left.0, cand0.right.0);
    let one = post(
        "/match",
        format!(r#"{{"session":{id},"pairs":[[{l},{r}]]}}"#),
    );
    let one: MatchResponse = serde_json::from_str(&one).unwrap();
    assert_eq!(one.scores[0], offline.posteriors()[0]);

    handle.shutdown();
    handle.join();
}
