//! The replication plane, end to end: WAL shipping to live followers,
//! byte-identical follower reads, 421 mutation rejection, promotion,
//! drain-time tail shipping, rebalance handoff, and — mirroring
//! `durability.rs` — follower-side quarantine on corrupt or gapped
//! shipped records (quarantine, never crash, never serve wrong).

mod common;

use panda_serve::api::{CreateSessionRequest, SessionConfigDto};
use panda_serve::client::{request, Reply};
use panda_serve::http::{Request, Response};
use panda_serve::persist::{SnapshotFile, WalRecord};
use panda_serve::repl::{HandoffRequest, ReplMsg};
use panda_serve::router::handle;
use panda_serve::{AppState, Server, ServerConfig, StateOptions};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn req(method: &str, path: &str, body: &str) -> Request {
    Request {
        method: method.to_string(),
        path: path.to_string(),
        query: String::new(),
        body: body.as_bytes().to_vec(),
    }
}

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("panda-repl-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn create_body() -> String {
    let (left_csv, right_csv, gold) = common::demo_csvs();
    serde_json::to_string(&CreateSessionRequest {
        left_csv,
        right_csv,
        gold: Some(gold),
        config: Some(SessionConfigDto {
            auto_lfs: Some(false),
            ..Default::default()
        }),
    })
    .unwrap()
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

/// The standard edit sequence over the wire: create, two LFs, fit, one
/// label — WAL seqs 1..=5.
fn drive_over_http(addr: SocketAddr) -> u64 {
    let post = |path: &str, body: &str| {
        let Reply { status, body, .. } = request(addr, "POST", path, body, None).unwrap();
        assert_eq!(status, 200, "{path}: {body}");
        body
    };
    let body = post("/sessions", &create_body());
    let id: u64 = body
        .split("\"session\":")
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no session id in {body}"));
    let label = r#"{"candidate":0,"is_match":true}"#;
    for (route, body) in [("lfs", LF1), ("lfs", LF2), ("fit", ""), ("labels", label)] {
        post(&format!("/sessions/{id}/{route}"), body);
    }
    id
}

fn match_request(id: u64) -> String {
    format!(r#"{{"session":{id},"pairs":[[0,0],[1,1],[2,5],[7,7]]}}"#)
}

fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while Instant::now() < deadline {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(30));
    }
    panic!("timed out waiting for {what}");
}

/// Follower listing shows the session caught up to `seq`.
fn follower_caught_up(addr: SocketAddr, id: u64, seq: u64) -> bool {
    let Reply { status, body, .. } = request(addr, "GET", "/sessions", "", None).unwrap();
    status == 200 && body.contains(&format!("\"session\":{id}")) && {
        body.contains(&format!("\"wal_seq\":{seq}"))
    }
}

#[test]
fn follower_reads_are_byte_identical_and_mutations_answer_421() {
    let dir = state_dir("follow");
    let primary = Server::start(ServerConfig {
        workers: 2,
        state_dir: Some(dir.clone()),
        repl_addr: Some("127.0.0.1:0".to_string()),
        ..Default::default()
    })
    .unwrap();
    let repl = primary.repl_addr().expect("repl listener bound");
    let follower = Server::start(ServerConfig {
        workers: 2,
        follow: Some(repl.to_string()),
        ..Default::default()
    })
    .unwrap();
    let (p, f) = (primary.addr(), follower.addr());

    let id = drive_over_http(p);
    wait_for(|| follower_caught_up(f, id, 5), "follower to apply seq 5");

    // The listing agrees on cursor AND digest, and names the roles.
    let p_list = request(p, "GET", "/sessions", "", None).unwrap().body;
    let f_list = request(f, "GET", "/sessions", "", None).unwrap().body;
    let digest_of = |body: &str| {
        body.split("\"matrix_digest\":\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .map(str::to_string)
            .unwrap_or_else(|| panic!("no matrix_digest in {body}"))
    };
    assert_eq!(digest_of(&p_list), digest_of(&f_list));
    assert!(p_list.contains("\"role\":\"primary\""), "{p_list}");
    assert!(f_list.contains("\"role\":\"follower\""), "{f_list}");

    // Follower reads are byte-identical to the primary's.
    let [(ps, p_match), (fs, f_match)] = [p, f].map(|a| {
        let reply = request(a, "POST", "/match", &match_request(id), None).unwrap();
        (reply.status, reply.body)
    });
    assert_eq!((ps, fs), (200, 200), "{p_match} / {f_match}");
    assert_eq!(p_match, f_match, "follower /match must be byte-identical");
    let q = r#"{"lf":"name_overlap","query":"VotedMatch","limit":8}"#;
    let query = format!("/sessions/{id}/query");
    let [p_rows, f_rows] = [p, f].map(|a| request(a, "POST", &query, q, None).unwrap().body);
    assert_eq!(p_rows, f_rows, "follower query must be byte-identical");

    // Mutations on the follower answer 421 naming the primary.
    let lfs = format!("/sessions/{id}/lfs");
    let Reply { status, body, .. } = request(f, "POST", &lfs, LF1, None).unwrap();
    assert_eq!(status, 421, "{body}");
    assert!(body.contains("not_primary"), "{body}");
    assert!(
        body.contains(&p.to_string()),
        "421 must name the primary {p}: {body}"
    );

    // Promote: the follower becomes a primary and accepts writes.
    let Reply { status, body, .. } = request(f, "POST", "/promote", "", None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"promoted\":true"), "{body}");
    let Reply { status, body, .. } = request(f, "POST", "/promote", "", None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"promoted\":false"), "idempotent: {body}");
    let label = r#"{"candidate":1,"is_match":false}"#;
    let labels = format!("/sessions/{id}/labels");
    let Reply { status, body, .. } = request(f, "POST", &labels, label, None).unwrap();
    assert_eq!(status, 200, "promoted follower takes writes: {body}");

    primary.shutdown();
    primary.join();
    follower.shutdown();
    follower.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_drain_ships_the_unreplicated_tail() {
    let dir = state_dir("drain");
    let primary = Server::start(ServerConfig {
        workers: 1,
        state_dir: Some(dir.clone()),
        repl_addr: Some("127.0.0.1:0".to_string()),
        ..Default::default()
    })
    .unwrap();
    let repl = primary.repl_addr().unwrap();
    let follower = Server::start(ServerConfig {
        workers: 1,
        follow: Some(repl.to_string()),
        ..Default::default()
    })
    .unwrap();
    let (p, f) = (primary.addr(), follower.addr());

    // The follower must be subscribed before the burst, or the whole
    // session arrives as a sync instead of a shipped tail.
    let warm = drive_over_http(p);
    wait_for(|| follower_caught_up(f, warm, 5), "subscription warm-up");

    let pm = request(p, "POST", "/match", &match_request(warm), None).unwrap();
    // Shut down immediately after the last ack: join() must ship
    // whatever the hub still holds before the process lets go.
    primary.shutdown();
    primary.join();

    wait_for(|| follower_caught_up(f, warm, 5), "drain-shipped tail");
    let fm = request(f, "POST", "/match", &match_request(warm), None).unwrap();
    assert_eq!(fm.status, 200, "{}", fm.body);
    assert_eq!(pm.body, fm.body, "post-drain follower state must match");

    follower.shutdown();
    follower.join();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Follower-side quarantine (router-level, no sockets — durability.rs idiom)
// ---------------------------------------------------------------------------

/// Drive a durable session and return its id plus every fsynced WAL
/// record (snapshotting disabled so the full history stays in the log).
fn driven_wal(dir: &std::path::Path) -> (u64, Vec<WalRecord>) {
    let state = AppState::open(StateOptions {
        state_dir: Some(dir.to_path_buf()),
        snapshot_every: 0,
        ..Default::default()
    })
    .unwrap();
    let resp = handle(&state, &req("POST", "/sessions", &create_body()));
    assert_eq!(resp.status, 200, "{}", resp.body);
    let id = session_id(&resp);
    for lf in [LF1, LF2] {
        assert_eq!(
            handle(&state, &req("POST", &format!("/sessions/{id}/lfs"), lf)).status,
            200
        );
    }
    assert_eq!(
        handle(&state, &req("POST", &format!("/sessions/{id}/fit"), "")).status,
        200
    );
    assert_eq!(
        handle(
            &state,
            &req(
                "POST",
                &format!("/sessions/{id}/labels"),
                r#"{"candidate":0,"is_match":true}"#,
            ),
        )
        .status,
        200
    );
    let raw = std::fs::read_to_string(dir.join("sessions").join(id.to_string()).join("wal.jsonl"))
        .unwrap();
    let records: Vec<WalRecord> = raw
        .lines()
        .map(|line| serde_json::from_str(line).map_err(|e| e.0).unwrap())
        .collect();
    assert_eq!(records.len(), 5, "create + 2 LFs + fit + label");
    (id, records)
}

fn apply_records(state: &AppState, id: u64, records: &[WalRecord]) {
    for rec in records {
        state.apply_repl_frame(ReplMsg::Record {
            session: id,
            record: rec.clone(),
        });
    }
}

#[test]
fn shipped_records_rebuild_bit_identically_and_corruption_quarantines() {
    let dir = state_dir("quarantine");
    let (id, records) = driven_wal(&dir);

    // A clean replica of the full stream is byte-identical to the
    // durable original.
    let source = AppState::open(StateOptions {
        state_dir: Some(dir.clone()),
        snapshot_every: 0,
        ..Default::default()
    })
    .unwrap();
    let replica = AppState::new();
    apply_records(&replica, id, &records);
    let m = req("POST", "/match", &match_request(id));
    assert_eq!(
        handle(&source, &m).body,
        handle(&replica, &m).body,
        "replayed replica must be byte-identical"
    );

    // A digest-corrupted record quarantines the session: reads answer
    // 409, the listing says so, and nothing crashes.
    let torn = AppState::new();
    apply_records(&torn, id, &records[..4]);
    let mut bad = records[4].clone();
    bad.digest ^= 1;
    torn.apply_repl_frame(ReplMsg::Record {
        session: id,
        record: bad,
    });
    assert!(torn.quarantined(id), "digest mismatch must quarantine");
    let resp = handle(&torn, &m);
    assert_eq!(resp.status, 409, "{}", resp.body);
    assert!(resp.body.contains("session_quarantined"), "{}", resp.body);
    let listing = handle(&torn, &req("GET", "/sessions", ""));
    assert!(listing.body.contains("\"quarantined\""), "{}", listing.body);

    // A seq gap does the same.
    let gapped = AppState::new();
    gapped.apply_repl_frame(ReplMsg::Record {
        session: id,
        record: records[0].clone(),
    });
    gapped.apply_repl_frame(ReplMsg::Record {
        session: id,
        record: records[2].clone(),
    });
    assert!(gapped.quarantined(id), "seq gap must quarantine");

    // A full sync (what the primary sends for a session missing from
    // the subscribe cursors) replaces the quarantined state wholesale.
    source.compact_all();
    let raw = std::fs::read_to_string(
        dir.join("sessions")
            .join(id.to_string())
            .join("snapshot.json"),
    )
    .unwrap();
    let snapshot: SnapshotFile = serde_json::from_str(&raw).map_err(|e| e.0).unwrap();
    torn.apply_repl_frame(ReplMsg::Sync {
        session: id,
        snapshot,
    });
    assert!(!torn.quarantined(id), "sync clears the quarantine");
    assert_eq!(
        handle(&torn, &m).body,
        handle(&source, &m).body,
        "resynced replica must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn handoff_rejects_gapped_or_corrupt_tails_and_adopts_clean_ones() {
    let dir = state_dir("handoff");
    let (id, records) = driven_wal(&dir);
    let target = AppState::new();

    // A gapped tail rejects the whole handoff and installs nothing.
    let mut gapped = records.clone();
    gapped.remove(2);
    let body = serde_json::to_string(&HandoffRequest {
        session: id,
        snapshot: None,
        tail: gapped,
    })
    .unwrap();
    let resp = handle(&target, &req("POST", "/handoff", &body));
    assert_eq!(resp.status, 422, "{}", resp.body);
    assert!(resp.body.contains("handoff_invalid"), "{}", resp.body);
    assert!(!target.contains(id), "rejected handoff installs nothing");

    // So does a digest mismatch.
    let mut corrupt = records.clone();
    corrupt[3].digest ^= 1;
    let body = serde_json::to_string(&HandoffRequest {
        session: id,
        snapshot: None,
        tail: corrupt,
    })
    .unwrap();
    let resp = handle(&target, &req("POST", "/handoff", &body));
    assert_eq!(resp.status, 422, "{}", resp.body);
    assert!(!target.contains(id));

    // The clean tail adopts, byte-identical to the source.
    let body = serde_json::to_string(&HandoffRequest {
        session: id,
        snapshot: None,
        tail: records,
    })
    .unwrap();
    let resp = handle(&target, &req("POST", "/handoff", &body));
    assert_eq!(resp.status, 200, "{}", resp.body);
    let source = AppState::open(StateOptions {
        state_dir: Some(dir.clone()),
        snapshot_every: 0,
        ..Default::default()
    })
    .unwrap();
    let m = req("POST", "/match", &match_request(id));
    assert_eq!(handle(&source, &m).body, handle(&target, &m).body);

    // Adopting a second time is refused (the session already lives here).
    let resp = handle(&target, &req("POST", "/handoff", &body));
    assert_eq!(resp.status, 409, "{}", resp.body);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Rebalance and sharding over real sockets
// ---------------------------------------------------------------------------

#[test]
fn rebalance_moves_a_session_with_byte_parity() {
    let dir = state_dir("rebalance");
    let a = Server::start(ServerConfig {
        workers: 1,
        state_dir: Some(dir.clone()),
        ..Default::default()
    })
    .unwrap();
    let b = Server::start(ServerConfig {
        workers: 1,
        ..Default::default()
    })
    .unwrap();

    let id = drive_over_http(a.addr());
    let m = match_request(id);
    let pre = request(a.addr(), "POST", "/match", &m, None).unwrap().body;

    let body = format!(r#"{{"session":{id},"target":"{}"}}"#, b.addr());
    let Reply { status, body, .. } = request(a.addr(), "POST", "/rebalance", &body, None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"moved\""), "{body}");

    // Gone from the source, byte-identical on the target.
    let Reply { status, body, .. } = request(a.addr(), "POST", "/match", &m, None).unwrap();
    assert_eq!(status, 404, "moved session must leave the source: {body}");
    let Reply { status, body, .. } = request(b.addr(), "POST", "/match", &m, None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(pre, body, "moved session must answer byte-identically");

    a.shutdown();
    a.join();
    b.shutdown();
    b.join();
    let _ = std::fs::remove_dir_all(&dir);
}

const RETUNED_LF1: &str =
    r#"{"name":"name_overlap","kind":"similarity","attr":"name","upper":0.6,"lower":0.2}"#;
const SPOT_LABEL: &str = r#"{"candidate":2,"is_match":false}"#;

/// Edits a session takes after it changed hands: re-tune one LF, drop
/// the other, one spot label and a refit (WAL seqs 6..=9).
fn edits(id: u64) -> [(&'static str, String, &'static str); 4] {
    [
        ("POST", format!("/sessions/{id}/lfs"), RETUNED_LF1),
        ("DELETE", format!("/sessions/{id}/lfs/price_tol"), ""),
        ("POST", format!("/sessions/{id}/labels"), SPOT_LABEL),
        ("POST", format!("/sessions/{id}/fit"), ""),
    ]
}

/// `(wal_seq, matrix_digest)` of the one session a listing holds.
fn listed_cursor(listing: &str) -> (String, String) {
    let field = |name: &str| {
        listing
            .split(&format!("\"{name}\":"))
            .nth(1)
            .and_then(|s| s.split([',', '}']).next())
            .map(str::to_string)
            .unwrap_or_else(|| panic!("no {name} in {listing}"))
    };
    (field("wal_seq"), field("matrix_digest"))
}

#[test]
fn promoted_follower_edits_then_rebalances_to_a_storeless_shard() {
    let dir = state_dir("promote-move");
    let primary = Server::start(ServerConfig {
        workers: 1,
        state_dir: Some(dir.clone()),
        repl_addr: Some("127.0.0.1:0".to_string()),
        ..Default::default()
    })
    .unwrap();
    let follower = Server::start(ServerConfig {
        workers: 1,
        follow: Some(primary.repl_addr().unwrap().to_string()),
        ..Default::default()
    })
    .unwrap();
    let target = Server::start(ServerConfig {
        workers: 1,
        ..Default::default()
    })
    .unwrap();
    let (f, t) = (follower.addr(), target.addr());

    let id = drive_over_http(primary.addr());
    wait_for(|| follower_caught_up(f, id, 5), "follower to apply seq 5");
    let Reply { status, body, .. } = request(f, "POST", "/promote", "", None).unwrap();
    assert_eq!(status, 200, "{body}");
    for (method, path, body) in edits(id) {
        let Reply { status, body, .. } = request(f, method, &path, body, None).unwrap();
        assert_eq!(status, 200, "{method} {path}: {body}");
    }
    let session = format!("/sessions/{id}");
    let m = match_request(id);
    let pre_match = request(f, "POST", "/match", &m, None).unwrap().body;
    let pre_body = request(f, "GET", &session, "", None).unwrap().body;
    let pre_list = request(f, "GET", "/sessions", "", None).unwrap().body;
    assert_eq!(listed_cursor(&pre_list).0, "9", "{pre_list}");

    let move_body = format!(r#"{{"session":{id},"target":"{t}"}}"#);
    let Reply { status, body, .. } = request(f, "POST", "/rebalance", &move_body, None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"moved\""), "{body}");

    let Reply { status, body, .. } = request(t, "POST", "/match", &m, None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(pre_match, body, "moved /match must be byte-identical");
    let post_body = request(t, "GET", &session, "", None).unwrap().body;
    assert_eq!(pre_body, post_body, "moved session body must be identical");
    let post_list = request(t, "GET", "/sessions", "", None).unwrap().body;
    assert_eq!(listed_cursor(&pre_list), listed_cursor(&post_list));

    for server in [primary, follower, target] {
        server.shutdown();
        server.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn adopted_handoff_on_a_durable_shard_survives_a_kill() {
    let dir = state_dir("adopt-src");
    let (id, records) = driven_wal(&dir);
    let target_dir = state_dir("adopt-dst");
    let open_target = || {
        AppState::open(StateOptions {
            state_dir: Some(target_dir.clone()),
            snapshot_every: 3,
            ..Default::default()
        })
        .unwrap()
    };
    let m = req("POST", "/match", &match_request(id));
    let get = req("GET", &format!("/sessions/{id}"), "");
    let (pre_info, pre_match, pre_body) = {
        let target = open_target();
        let body = serde_json::to_string(&HandoffRequest {
            session: id,
            snapshot: None,
            tail: records,
        })
        .unwrap();
        let resp = handle(&target, &req("POST", "/handoff", &body));
        assert_eq!(resp.status, 200, "{}", resp.body);
        for (method, path, body) in edits(id) {
            let resp = handle(&target, &req(method, &path, body));
            assert_eq!(resp.status, 200, "{method} {path}: {}", resp.body);
        }
        let info = target.list()[0];
        assert_eq!(info.wal_seq, 9);
        (info, handle(&target, &m).body, handle(&target, &get).body)
        // `target` dropped here without compact_all(): the SIGKILL.
    };

    let target = open_target();
    let info = target.list()[0];
    assert!(info.recovered);
    assert_eq!(
        (info.wal_seq, info.matrix_digest),
        (pre_info.wal_seq, pre_info.matrix_digest)
    );
    assert_eq!(handle(&target, &m).body, pre_match, "match scores drifted");
    assert_eq!(
        handle(&target, &get).body,
        pre_body,
        "snapshot body drifted"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&target_dir);
}

/// Reserve two distinct loopback ports (bind-then-drop; raceable in
/// principle, fine in practice for a test).
fn two_free_ports() -> (SocketAddr, SocketAddr) {
    let l1 = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let l2 = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let (a, b) = (l1.local_addr().unwrap(), l2.local_addr().unwrap());
    drop((l1, l2));
    (a, b)
}

#[test]
fn shard_ring_misdirects_foreign_sessions_with_421() {
    let (addr_a, addr_b) = two_free_ports();
    let peers = vec![addr_a.to_string(), addr_b.to_string()];
    let a = Server::start(ServerConfig {
        addr: addr_a.to_string(),
        workers: 1,
        peers: peers.clone(),
        ..Default::default()
    })
    .unwrap();
    let b = Server::start(ServerConfig {
        addr: addr_b.to_string(),
        workers: 1,
        peers: peers.clone(),
        ..Default::default()
    })
    .unwrap();

    // Sessions minted on A are always A-owned: the listing proves it
    // and publishes the shard map.
    let id = drive_over_http(a.addr());
    let Reply { body: listing, .. } = request(a.addr(), "GET", "/sessions", "", None).unwrap();
    assert!(
        listing.contains(&format!("\"shard\":\"{addr_a}\"")),
        "{listing}"
    );
    assert!(listing.contains("\"self_addr\""), "{listing}");
    assert!(listing.contains(&addr_b.to_string()), "{listing}");

    // B refuses A's session, naming the owner.
    let session = format!("/sessions/{id}");
    let Reply { status, body, .. } = request(b.addr(), "GET", &session, "", None).unwrap();
    assert_eq!(status, 421, "{body}");
    assert!(body.contains("misdirected"), "{body}");
    assert!(body.contains(&addr_a.to_string()), "{body}");

    // A serves its own session normally despite the ring.
    let own = request(a.addr(), "POST", "/match", &match_request(id), None).unwrap();
    assert_eq!(own.status, 200);

    a.shutdown();
    a.join();
    b.shutdown();
    b.join();
}

#[test]
fn topology_flag_conflicts_name_the_offending_flag() {
    let err = Server::start(ServerConfig {
        follow: Some("127.0.0.1:1".to_string()),
        state_dir: Some(state_dir("conflict")),
        ..Default::default()
    })
    .map(|_| ())
    .unwrap_err();
    assert!(err.to_string().contains("--follow"), "{err}");
    assert!(err.to_string().contains("--state-dir"), "{err}");

    let err = Server::start(ServerConfig {
        repl_addr: Some("127.0.0.1:0".to_string()),
        ..Default::default()
    })
    .map(|_| ())
    .unwrap_err();
    assert!(err.to_string().contains("--repl-addr"), "{err}");
    assert!(err.to_string().contains("--state-dir"), "{err}");

    let err = Server::start(ServerConfig {
        peers: vec!["10.0.0.1:7700".to_string(), "10.0.0.2:7700".to_string()],
        advertise: Some("10.0.0.9:7700".to_string()),
        ..Default::default()
    })
    .map(|_| ())
    .unwrap_err();
    assert!(err.to_string().contains("10.0.0.9:7700"), "{err}");
}
