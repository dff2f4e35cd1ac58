//! Wire-level robustness: structured errors, body caps, load shedding,
//! and graceful drain — the behaviors a client can rely on under abuse.

use panda_serve::client::{request, Reply};
use panda_serve::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;

#[test]
fn malformed_json_and_unknown_routes_are_structured_errors() {
    let handle = Server::start(ServerConfig {
        workers: 2,
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr();

    let Reply { status, body, .. } = request(addr, "POST", "/sessions", "{not json", None).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("\"code\":\"bad_json\""), "{body}");

    let Reply { status, body, .. } = request(addr, "GET", "/no/such/route", "", None).unwrap();
    assert_eq!(status, 404);
    assert!(body.contains("\"code\":\"not_found\""), "{body}");

    let Reply { status, body, .. } = request(addr, "DELETE", "/metrics", "", None).unwrap();
    assert_eq!(status, 405);
    assert!(body.contains("\"code\":\"method_not_allowed\""), "{body}");

    let Reply { status, body, .. } = request(addr, "POST", "/sessions/999/fit", "", None).unwrap();
    assert_eq!(status, 404);
    assert!(body.contains("\"code\":\"unknown_session\""), "{body}");

    handle.shutdown();
    handle.join();
}

#[test]
fn oversized_bodies_get_413() {
    let handle = Server::start(ServerConfig {
        workers: 1,
        max_body: 128,
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr();
    let big = "x".repeat(4096);
    let Reply { status, body, .. } = request(addr, "POST", "/sessions", &big, None).unwrap();
    assert_eq!(status, 413);
    assert!(body.contains("\"code\":\"payload_too_large\""), "{body}");
    handle.shutdown();
    handle.join();
}

#[test]
fn zero_conn_budget_sheds_with_503() {
    // a 0-connection budget makes every request shed — a deterministic
    // probe of the overload path that normally needs a saturated shard.
    let handle = Server::start(ServerConfig {
        workers: 1,
        max_conns: 0,
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr();
    let Reply { status, body, .. } = request(addr, "GET", "/healthz", "", None).unwrap();
    assert_eq!(status, 503);
    assert!(body.contains("\"code\":\"overloaded\""), "{body}");
    handle.shutdown();
    handle.join();
}

#[test]
fn shutdown_drains_inflight_requests() {
    let handle = Server::start(ServerConfig {
        workers: 2,
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr();

    // Open a connection and send only half the request, then trigger
    // shutdown: the worker must still serve the straggler to completion.
    let mut slow = TcpStream::connect(addr).unwrap();
    write!(slow, "GET /healthz HTTP/1.1\r\n").unwrap();
    // Let the event loop read the partial head before the latch flips,
    // so the straggler is genuinely mid-request at shutdown.
    std::thread::sleep(std::time::Duration::from_millis(200));

    let status = request(addr, "POST", "/shutdown", "", None).unwrap().status;
    assert_eq!(status, 200);

    write!(slow, "Host: t\r\n\r\n").unwrap();
    let mut raw = String::new();
    slow.read_to_string(&mut raw).unwrap();
    assert!(
        raw.starts_with("HTTP/1.1 200"),
        "in-flight request dropped during drain: {raw:?}"
    );
    handle.join();
}
