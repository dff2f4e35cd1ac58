//! The connection state machine under realistic client behavior:
//! keep-alive reuse, pipelining, slowloris eviction, byte parity with
//! fresh connections, and prompt drain of idle persistent connections.

use panda_serve::client::{self, Client};
use panda_serve::{Server, ServerConfig};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

#[test]
fn keep_alive_serves_many_requests_on_one_socket() {
    let handle = Server::start(ServerConfig {
        workers: 2,
        ..Default::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr(), None).unwrap();
    for _ in 0..50 {
        let reply = client.roundtrip("GET", "/healthz", "").unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.body, r#"{"status":"ok"}"#);
    }
    handle.shutdown();
    handle.join();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let handle = Server::start(ServerConfig {
        workers: 1,
        ..Default::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr(), None).unwrap();
    // Write all requests back-to-back before reading any response: the
    // server must answer each, in order, on the same socket.
    const N: usize = 10;
    for _ in 0..N {
        client.send("GET", "/healthz", "");
    }
    client.send("GET", "/no/such/route", "");
    for _ in 0..N {
        let head = client.read_response().unwrap().head;
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("Connection: keep-alive"), "{head}");
    }
    let head = client.read_response().unwrap().head;
    assert!(head.starts_with("HTTP/1.1 404"), "order violated: {head}");
    handle.shutdown();
    handle.join();
}

#[test]
fn keep_alive_responses_match_fresh_connection_bytes() {
    // Wire-parity across connection reuse: request k on a persistent
    // connection must produce byte-identical responses to the same
    // request on a fresh connection, modulo only the Connection header.
    let handle = Server::start(ServerConfig {
        workers: 1,
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr();

    // Each response carries a unique X-Request-Id; strip it (and assert
    // presence) before comparing the remaining bytes.
    fn strip_rid(reply: client::Reply) -> String {
        let raw = reply.head + &reply.body;
        let start = raw.find("X-Request-Id: ").expect("correlation id present");
        let end = raw[start..].find("\r\n").unwrap() + start + 2;
        format!("{}{}", &raw[..start], &raw[end..])
    }

    let mut client = Client::connect(addr, None).unwrap();
    for path in ["/healthz", "/metrics-not-a-route", "/healthz"] {
        let reused = client.roundtrip("GET", path, "").unwrap();
        let once = client::request(addr, "GET", path, "", None).unwrap();
        assert_eq!(
            strip_rid(reused).replace("Connection: keep-alive", "Connection: close"),
            strip_rid(once),
            "byte parity violated for {path}"
        );
    }
    handle.shutdown();
    handle.join();
}

#[test]
fn slowloris_partial_head_is_evicted_with_408() {
    let handle = Server::start(ServerConfig {
        workers: 1,
        read_timeout: Duration::from_millis(300),
        ..Default::default()
    })
    .unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    // A dripped, never-completed head: the per-request deadline (anchored
    // at the first byte, NOT extended by later drips) must evict it.
    write!(stream, "GET /healthz HT").unwrap();
    std::thread::sleep(Duration::from_millis(150));
    write!(stream, "TP/1.1\r\nHos").unwrap(); // still no terminator
    let started = Instant::now();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 408"), "{raw}");
    assert!(raw.contains("\"code\":\"request_timeout\""), "{raw}");
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "eviction took {:?}",
        started.elapsed()
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn idle_keep_alive_connection_is_reaped_silently() {
    let handle = Server::start(ServerConfig {
        workers: 1,
        keep_alive_timeout: Duration::from_millis(300),
        ..Default::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr(), None).unwrap();
    let reply = client.roundtrip("GET", "/healthz", "").unwrap();
    assert_eq!(reply.status, 200);
    // Go idle past the keep-alive deadline: the server closes without
    // sending anything (no 408 — there is no request to time out).
    let rest = client.read_response().unwrap_err().kind();
    assert_eq!(rest, ErrorKind::UnexpectedEof, "idle reap must be silent");
    handle.shutdown();
    handle.join();
}

#[test]
fn max_requests_per_conn_forces_connection_close() {
    let handle = Server::start(ServerConfig {
        workers: 1,
        max_requests_per_conn: 3,
        ..Default::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr(), None).unwrap();
    for i in 1..=3 {
        let head = client.roundtrip("GET", "/healthz", "").unwrap().head;
        let expect = if i < 3 {
            "Connection: keep-alive"
        } else {
            "Connection: close"
        };
        assert!(head.contains(expect), "request {i}: {head}");
    }
    // The server closed the socket after the 3rd response.
    let rest = client.read_response().unwrap_err().kind();
    assert_eq!(rest, ErrorKind::UnexpectedEof);
    handle.shutdown();
    handle.join();
}

#[test]
fn shutdown_closes_idle_keep_alive_connections_promptly() {
    // The drain bugfix: an idle persistent connection must not stall
    // `join()` until the keep-alive deadline — shutdown wakes the event
    // loop and closes it immediately.
    let handle = Server::start(ServerConfig {
        workers: 2,
        keep_alive_timeout: Duration::from_secs(3600), // would stall forever
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr();

    // Park several idle keep-alive connections across the shards.
    let mut idlers: Vec<Client> = (0..4)
        .map(|_| {
            let mut c = Client::connect(addr, None).unwrap();
            let reply = c.roundtrip("GET", "/healthz", "").unwrap();
            assert_eq!(reply.status, 200);
            c
        })
        .collect();

    let started = Instant::now();
    let reply = client::request(addr, "POST", "/shutdown", "", None).unwrap();
    assert_eq!(reply.status, 200);
    handle.join();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "drain stalled on idle keep-alive connections: {:?}",
        started.elapsed()
    );

    // Every idler was closed by the server (EOF, no stray bytes).
    for c in &mut idlers {
        let rest = c.read_response().unwrap_err().kind();
        assert_eq!(rest, ErrorKind::UnexpectedEof);
    }
}

#[test]
fn half_closed_socket_does_not_stall_drain() {
    // A client that sends a request, shuts down its write side, but
    // never closes: drain must still complete under the deadline.
    let handle = Server::start(ServerConfig {
        workers: 1,
        keep_alive_timeout: Duration::from_secs(3600),
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr();

    let mut half = TcpStream::connect(addr).unwrap();
    write!(
        half,
        "GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n"
    )
    .unwrap();
    half.shutdown(std::net::Shutdown::Write).unwrap();
    // Read the response but keep the read side open (socket half-alive).
    let mut buf = [0u8; 4096];
    let n = half.read(&mut buf).unwrap();
    assert!(n > 0);

    let started = Instant::now();
    let reply = client::request(addr, "POST", "/shutdown", "", None).unwrap();
    assert_eq!(reply.status, 200);
    handle.join();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "drain stalled on a half-closed socket: {:?}",
        started.elapsed()
    );
}
