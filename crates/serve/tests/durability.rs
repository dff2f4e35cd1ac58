//! The durability guarantee: a SIGKILL between requests loses at most
//! the in-flight request. Sessions rebuilt from snapshot + WAL replay
//! are **bit-identical** to the pre-crash session and to an offline
//! [`PandaSession`] replaying the same edits; corrupted state is
//! quarantined, never served wrong.
//!
//! A dropped [`AppState`] is exactly a SIGKILL from the store's point of
//! view: nothing flushes on drop, so whatever the WAL and snapshot files
//! hold at that moment is what recovery sees.

mod common;

use panda_serve::api::{CreateSessionRequest, SessionConfigDto};
use panda_serve::http::{Request, Response};
use panda_serve::persist::{self, SessionStore, WalRecord};
use panda_serve::router::handle;
use panda_serve::{AppState, StateOptions};
use panda_session::PandaSession;
use panda_table::CandidatePair;
use std::path::PathBuf;

fn req(method: &str, path: &str, body: &str) -> Request {
    Request {
        method: method.to_string(),
        path: path.to_string(),
        query: String::new(),
        body: body.as_bytes().to_vec(),
    }
}

/// A fresh per-test state directory (cleaned from any earlier run).
fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("panda-durability-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &std::path::Path, snapshot_every: u64, max_sessions: usize) -> AppState {
    AppState::open(StateOptions {
        state_dir: Some(dir.to_path_buf()),
        max_sessions,
        session_ttl: None,
        snapshot_every,
        ..Default::default()
    })
    .expect("open state dir")
}

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

fn create_body() -> String {
    serde_json::to_string(&create_request()).unwrap()
}

fn session_id(resp: &Response) -> u64 {
    let v = serde_json::parse_value(&resp.body).unwrap();
    match v.get_field("session") {
        Some(serde::Value::UInt(u)) => *u,
        Some(serde::Value::Int(i)) => *i as u64,
        other => panic!("no session id in {other:?}"),
    }
}

const LF1: &str =
    r#"{"name":"name_overlap","kind":"similarity","attr":"name","upper":0.5,"lower":0.1}"#;
const LF2: &str = r#"{"name":"price_tol","kind":"numeric_tolerance","attr":"price","match_tol":0.05,"unmatch_tol":0.5}"#;
const LABEL: &str = r#"{"candidate":0,"is_match":true}"#;

/// Drive the standard edit sequence: create, two LFs, fit, one label.
/// With `snapshot_every = 3` this leaves *both* a snapshot (covering the
/// create + LFs) and live WAL records (fit + label) on disk — the exact
/// "kill between WAL append and snapshot compaction" window.
fn drive_session(state: &AppState) -> u64 {
    let resp = handle(state, &req("POST", "/sessions", &create_body()));
    assert_eq!(resp.status, 200, "{}", resp.body);
    let id = session_id(&resp);
    for lf in [LF1, LF2] {
        let resp = handle(state, &req("POST", &format!("/sessions/{id}/lfs"), lf));
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    let resp = handle(state, &req("POST", &format!("/sessions/{id}/fit"), ""));
    assert_eq!(resp.status, 200, "{}", resp.body);
    let resp = handle(
        state,
        &req(
            "POST",
            &format!("/sessions/{id}/labels"),
            r#"{"candidate":0,"is_match":true}"#,
        ),
    );
    assert_eq!(resp.status, 200, "{}", resp.body);
    id
}

fn snapshot_body(state: &AppState, id: u64) -> String {
    handle(state, &req("GET", &format!("/sessions/{id}"), "")).body
}

fn match_body(state: &AppState, id: u64) -> String {
    let pairs = format!(r#"{{"session":{id},"pairs":[[0,0],[1,1],[2,5],[7,7]]}}"#);
    let resp = handle(state, &req("POST", "/match", &pairs));
    assert_eq!(resp.status, 200, "{}", resp.body);
    resp.body
}

fn matrix_digest(state: &AppState, id: u64) -> u64 {
    let slot = state.get(id).expect("session present");
    let slot = slot.lock().unwrap();
    slot.session.matrix().digest()
}

#[test]
fn kill_between_append_and_compaction_recovers_bit_identically() {
    let dir = state_dir("crash");
    let (pre_digest, pre_snapshot, pre_match) = {
        let state = open(&dir, 3, 0);
        let id = drive_session(&state);
        (
            matrix_digest(&state, id),
            snapshot_body(&state, id),
            match_body(&state, id),
        )
        // `state` dropped here without compact_all(): the SIGKILL.
    };

    // Snapshot AND uncompacted WAL records must both exist on disk —
    // otherwise this test is not exercising the interesting window.
    let session_dir = dir.join("sessions").join("1");
    assert!(session_dir.join("snapshot.json").exists(), "no snapshot");
    let wal = std::fs::read_to_string(session_dir.join("wal.jsonl")).unwrap();
    assert!(
        wal.lines().count() >= 2,
        "expected live WAL records past the snapshot, got {wal:?}"
    );

    let state = open(&dir, 3, 0);
    let listing = handle(&state, &req("GET", "/sessions", ""));
    assert_eq!(listing.status, 200);
    assert!(
        listing.body.contains("\"recovered\":true"),
        "{}",
        listing.body
    );

    assert_eq!(
        matrix_digest(&state, 1),
        pre_digest,
        "matrix digest drifted"
    );
    assert_eq!(
        snapshot_body(&state, 1),
        pre_snapshot,
        "snapshot body drifted"
    );
    assert_eq!(match_body(&state, 1), pre_match, "match scores drifted");

    // Offline reference: the same edits through the library, no server.
    let create = create_request();
    let tables = panda_serve::api::build_tables(&create).unwrap();
    let config = create.config.clone().unwrap().resolve().unwrap();
    let mut offline = PandaSession::load(tables, config);
    for lf in [LF1, LF2] {
        let spec: panda_serve::api::LfSpec = serde_json::from_str(lf).unwrap();
        offline
            .upsert_lf_incremental(spec.build().unwrap())
            .unwrap();
    }
    offline.fit();
    offline.label_pair(0, true);
    assert_eq!(
        offline.matrix().digest(),
        pre_digest,
        "offline digest differs"
    );
    let slot = state.get(1).unwrap();
    let slot = slot.lock().unwrap();
    for pair in [[0u32, 0], [1, 1], [2, 5], [7, 7]] {
        let offline_score = offline
            .score_pair(CandidatePair::new(pair[0], pair[1]))
            .unwrap();
        let recovered_score = slot
            .session
            .score_pair(CandidatePair::new(pair[0], pair[1]))
            .unwrap();
        assert_eq!(
            offline_score.to_bits(),
            recovered_score.to_bits(),
            "posterior for {pair:?} not bit-identical"
        );
    }
    drop(slot);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_is_dropped_not_fatal() {
    let dir = state_dir("torn");
    let (pre_digest, pre_snapshot) = {
        let state = open(&dir, 0, 0); // never compact: everything in the WAL
        let id = drive_session(&state);
        (matrix_digest(&state, id), snapshot_body(&state, id))
    };
    // Simulate a crash mid-append: half a record at the end of the WAL.
    // That op was never acknowledged, so recovery must drop it and land
    // on the pre-append state.
    let wal_path = dir.join("sessions").join("1").join("wal.jsonl");
    let mut wal = std::fs::read_to_string(&wal_path).unwrap();
    wal.push_str("{\"seq\":6,\"digest\":123,\"op\":{\"Fi");
    std::fs::write(&wal_path, wal).unwrap();

    let state = open(&dir, 0, 0);
    assert_eq!(matrix_digest(&state, 1), pre_digest);
    assert_eq!(snapshot_body(&state, 1), pre_snapshot);
    let _ = std::fs::remove_dir_all(&dir);

    // Now cut a driven WAL at every byte offset. The LF name is not
    // ASCII, so some cuts land inside a multi-byte character.
    let dir = state_dir("torn-every-byte");
    let lf = r#"{"name":"nom_ähnlich","kind":"similarity","attr":"name","upper":0.5,"lower":0.1}"#;
    {
        let state = open(&dir, 0, 0);
        for (method, path, body) in [
            ("POST", "/sessions", create_body()),
            ("POST", "/sessions/1/lfs", lf.to_string()),
            ("POST", "/sessions/1/fit", String::new()),
            ("POST", "/sessions/1/labels", LABEL.to_string()),
            ("DELETE", "/sessions/1/lfs/nom_ähnlich", String::new()),
        ] {
            let resp = handle(&state, &req(method, path, &body));
            assert_eq!(resp.status, 200, "{method} {path}: {}", resp.body);
        }
    }
    let wal_path = dir.join("sessions").join("1").join("wal.jsonl");
    let wal = std::fs::read(&wal_path).unwrap();
    // Each record with the offset where its JSON text ends.
    let mut records: Vec<(usize, WalRecord)> = Vec::new();
    let mut end = 0;
    for line in wal.split_inclusive(|&b| b == b'\n') {
        end += line.len();
        let text = std::str::from_utf8(&line[..line.len() - 1]).unwrap();
        records.push((
            end - 1,
            serde_json::from_str(text).map_err(|e| e.0).unwrap(),
        ));
    }
    assert_eq!(records.len(), 5, "create, LF upsert, fit, label, LF remove");
    for cut in 0..=wal.len() {
        std::fs::write(&wal_path, &wal[..cut]).unwrap();
        let state = open(&dir, 0, 0);
        let Some((_, last)) = records.iter().rev().find(|(end, _)| *end <= cut) else {
            assert!(
                state.is_empty(),
                "cut {cut}: a torn create recovers nothing"
            );
            continue;
        };
        let info = state.list()[0];
        assert_eq!(
            (info.wal_seq, info.matrix_digest),
            (last.seq, last.digest),
            "cut {cut}"
        );
        assert_eq!(matrix_digest(&state, 1), last.digest, "cut {cut}");
        drop(state);

        let (_, log) = SessionStore::open(&dir, 0).unwrap().recover(1).unwrap();
        let (snapshot, tail) = log.disk_parts().unwrap();
        let (rebuilt, rebuilt_log) = persist::rebuild(snapshot, &tail).unwrap();
        assert_eq!(
            (rebuilt_log.seq(), rebuilt.matrix().digest()),
            (last.seq, last.digest),
            "cut {cut}: handoff rebuild"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_state_is_quarantined_not_served() {
    // Mid-WAL corruption (not the tail) → the session must not come back.
    let dir = state_dir("corrupt-wal");
    {
        let state = open(&dir, 0, 0);
        drive_session(&state);
    }
    let wal_path = dir.join("sessions").join("1").join("wal.jsonl");
    let wal = std::fs::read_to_string(&wal_path).unwrap();
    let mut lines: Vec<String> = wal.lines().map(String::from).collect();
    assert!(lines.len() >= 3);
    lines[1] = "{\"seq\":2,\"garbage\":true}".to_string();
    std::fs::write(&wal_path, lines.join("\n") + "\n").unwrap();
    let state = open(&dir, 0, 0);
    assert!(state.is_empty(), "corrupted session must not be served");
    assert!(
        wal_path.exists(),
        "quarantined state is kept for inspection"
    );

    // Corrupted snapshot → same policy.
    let dir2 = state_dir("corrupt-snap");
    {
        let state = open(&dir2, 1, 0); // snapshot after every op
        drive_session(&state);
    }
    let snap_path = dir2.join("sessions").join("1").join("snapshot.json");
    let snap = std::fs::read_to_string(&snap_path).unwrap();
    std::fs::write(&snap_path, snap.replace("\"format\"", "\"fmt\"")).unwrap();
    let state = open(&dir2, 1, 0);
    assert!(state.is_empty(), "corrupted snapshot must not be served");
    assert!(snap_path.exists());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn lru_eviction_rehydrates_bit_identically() {
    let dir = state_dir("evict");
    let state = open(&dir, 4, 2);
    let a = drive_session(&state);
    let pre_a = snapshot_body(&state, a);
    let b = drive_session(&state);
    assert_eq!(state.live_len(), 2);
    // Touch `b` so `a` is the LRU victim, then push past capacity.
    let _ = snapshot_body(&state, b);
    let c = drive_session(&state);
    assert_eq!(state.live_len(), 2, "capacity bound respected");
    let listing = handle(&state, &req("GET", "/sessions", ""));
    assert!(
        listing.body.contains("\"status\":\"evicted\""),
        "{}",
        listing.body
    );
    assert_eq!(state.len(), 3, "evicted session still listed");

    // Touching the evicted session rehydrates it transparently, with a
    // byte-identical snapshot body.
    assert_eq!(snapshot_body(&state, a), pre_a, "rehydrated state drifted");
    let listing = handle(&state, &req("GET", "/sessions", ""));
    assert!(listing.body.contains(&format!("\"session\":{c}")));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn delete_removes_on_disk_state() {
    let dir = state_dir("delete");
    {
        let state = open(&dir, 4, 0);
        let id = drive_session(&state);
        let resp = handle(&state, &req("DELETE", &format!("/sessions/{id}"), ""));
        assert_eq!(resp.status, 200);
        assert!(!dir.join("sessions").join(id.to_string()).exists());
    }
    let state = open(&dir, 4, 0);
    assert!(state.is_empty(), "deleted session must not resurrect");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_compaction_leaves_an_empty_wal() {
    let dir = state_dir("compact");
    {
        let state = open(&dir, 0, 0); // no cadence: only compact_all writes
        drive_session(&state);
        state.compact_all();
    }
    let session_dir = dir.join("sessions").join("1");
    assert!(session_dir.join("snapshot.json").exists());
    let wal = std::fs::read_to_string(session_dir.join("wal.jsonl")).unwrap();
    assert!(wal.is_empty(), "graceful shutdown should reset the WAL");
    // Recovery replays zero records and still serves the session.
    let state = open(&dir, 0, 0);
    assert_eq!(state.len(), 1);
    assert!(handle(&state, &req("GET", "/sessions/1", "")).status == 200);
    let _ = std::fs::remove_dir_all(&dir);
}
