//! The replication & sharding plane: WAL shipping, follower apply, and
//! consistent-hash session routing.
//!
//! **Topology.** A primary started with `--state-dir` + `--repl-addr`
//! listens for followers on a dedicated replication port. A follower
//! started with `--follow <addr>` dials that port, subscribes with its
//! per-session cursors, and receives a length-prefixed frame stream:
//! full-state [`ReplMsg::Sync`] snapshots for sessions it is behind on,
//! then every acknowledged WAL record ([`ReplMsg::Record`]) verbatim —
//! the same JSONL line the session's [`crate::persist::OpLog`] fsynced,
//! carrying seq + post-op matrix digest. A follower's sessions keep op
//! logs without a WAL and apply records through the same digest-verified
//! replay crash recovery uses, so follower state is
//! bit-identical to the primary's — `/match` and debug-query responses
//! compare byte-for-byte. A record that fails the gap or digest check
//! quarantines the session (reads answer 409) instead of serving wrong
//! state.
//!
//! **Framing.** Each frame is a 4-byte big-endian length followed by
//! that many bytes of JSON (one externally tagged [`ReplMsg`]). An
//! undecodable frame poisons the link: the follower drops the
//! connection and resubscribes, and the cursor handshake resyncs only
//! the sessions that diverged.
//!
//! **Sharding.** With `--peers a,b,c` every session id maps to one
//! shard via an FNV-1a consistent-hash ring with virtual nodes
//! ([`ShardRing`]); requests for a session another shard owns answer
//! `421 Misdirected Request` naming the owner, and `POST /rebalance`
//! moves a session between shards by snapshot + WAL-tail handoff with
//! seq-gap rejection on the receiving side.

use crate::net::{self, Epoll, EpollEvent, Listener, WakePipe};
use crate::persist::{SnapshotFile, WalRecord};
use crate::state::AppState;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Upper bound on one frame (a full-session snapshot must fit).
pub const MAX_FRAME: usize = 256 * 1024 * 1024;
/// Virtual nodes per peer on the consistent-hash ring.
const VNODES: usize = 64;
/// A follower that falls further behind than this many buffered bytes
/// is dropped (it reconnects and full-syncs).
const FOLLOWER_OUT_CAP: usize = 512 * 1024 * 1024;
/// How long the hub keeps flushing the unreplicated tail after drain.
const FINISH_GRACE: Duration = Duration::from_secs(5);
/// Reconnect backoff bounds for the follower dial loop.
const BACKOFF_MIN: Duration = Duration::from_millis(250);
const BACKOFF_MAX: Duration = Duration::from_secs(2);

/// One replication protocol message. Externally tagged JSON, one per
/// length-prefixed frame.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ReplMsg {
    /// Follower → primary, first frame after connect: the sessions it
    /// already holds and their applied seqs, so the primary only syncs
    /// what diverged.
    Subscribe {
        /// Per-session replication cursors.
        cursors: Vec<SessionCursor>,
    },
    /// Primary → follower, first frame in reply: the primary's HTTP
    /// address, which the follower quotes in 421 mutation rejections.
    Hello {
        /// The primary's client-facing address.
        http_addr: String,
    },
    /// Primary → follower: full state for one session (subscribe-time
    /// catch-up, or a handed-off session).
    Sync {
        /// Session id.
        session: u64,
        /// The same snapshot `write_snapshot` persists.
        snapshot: SnapshotFile,
    },
    /// Primary → follower: one acknowledged WAL record, verbatim.
    Record {
        /// Session id.
        session: u64,
        /// The record, exactly as fsynced on the primary.
        record: WalRecord,
    },
    /// Primary → follower: the session was deleted (or rebalanced away).
    Delete {
        /// Session id.
        session: u64,
    },
    /// Follower → primary: cumulative count of frames applied on this
    /// connection, for the apply-lag gauge.
    Ack {
        /// Frames applied since subscribe.
        frames: u64,
    },
}

/// A follower's position in one session's record stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionCursor {
    /// Session id.
    pub session: u64,
    /// Highest applied sequence number.
    pub seq: u64,
}

/// `POST /handoff` body: the snapshot + WAL-tail parts of a session
/// being rebalanced from another shard.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HandoffRequest {
    /// Session id (kept across the move).
    pub session: u64,
    /// On-disk snapshot of the source, if one was written.
    pub snapshot: Option<SnapshotFile>,
    /// WAL records past the snapshot (may overlap it; duplicates are
    /// skipped by seq exactly as recovery does).
    pub tail: Vec<WalRecord>,
}

/// FNV-1a over arbitrary bytes — the same constants `config_digest`
/// uses, reused for ring placement.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Consistent-hash shard map: every peer contributes [`VNODES`] points
/// on a 64-bit ring; a session id is owned by the peer whose point is
/// the first at or clockwise of the id's hash.
#[derive(Debug, Clone)]
pub struct ShardRing {
    points: Vec<(u64, u32)>,
    peers: Vec<String>,
    self_idx: u32,
}

impl ShardRing {
    /// Build the ring. `self_addr` must appear in `peers` — a shard
    /// that is not in its own map would misroute every session.
    pub fn new(peers: Vec<String>, self_addr: &str) -> Result<ShardRing, String> {
        if peers.is_empty() {
            return Err("shard map is empty".into());
        }
        let self_idx = peers.iter().position(|p| p == self_addr).ok_or_else(|| {
            format!(
                "shard map {peers:?} does not include this server's advertised address \
                     {self_addr}"
            )
        })? as u32;
        let mut points = Vec::with_capacity(peers.len() * VNODES);
        for (i, peer) in peers.iter().enumerate() {
            for v in 0..VNODES {
                points.push((fnv1a(format!("{peer}#{v}").as_bytes()), i as u32));
            }
        }
        points.sort_unstable();
        Ok(ShardRing {
            points,
            peers,
            self_idx,
        })
    }

    /// The peer that owns `session`.
    pub fn owner_of(&self, session: u64) -> &str {
        let h = fnv1a(session.to_string().as_bytes());
        let i = match self.points.binary_search(&(h, u32::MAX)) {
            Ok(i) => i,
            Err(i) => i,
        };
        let (_, peer) = self.points[i % self.points.len()];
        &self.peers[peer as usize]
    }

    /// Does this shard own `session`?
    pub fn owns(&self, session: u64) -> bool {
        self.owner_of(session) == self.peers[self.self_idx as usize]
    }

    /// This shard's advertised address.
    pub fn self_addr(&self) -> &str {
        &self.peers[self.self_idx as usize]
    }

    /// Every peer in the map, in `--peers` order.
    pub fn peers(&self) -> &[String] {
        &self.peers
    }
}

/// Append one length-prefixed frame to an output buffer.
pub fn encode_frame(out: &mut Vec<u8>, payload: &str) {
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload.as_bytes());
}

/// Try to split one frame off the front of `buf`. `Ok(None)` means more
/// bytes are needed; errors are protocol violations that poison the
/// link.
pub fn decode_frame(buf: &mut Vec<u8>) -> Result<Option<String>, String> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME {
        return Err(format!("frame of {len} bytes exceeds the {MAX_FRAME} cap"));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let payload = String::from_utf8(buf[4..4 + len].to_vec())
        .map_err(|_| "frame payload is not UTF-8".to_string())?;
    buf.drain(..4 + len);
    Ok(Some(payload))
}

/// The primary side of WAL shipping: mutation paths enqueue serialized
/// frames here (under the session lock, so per-session seq order is
/// preserved), and a dedicated hub thread broadcasts them to every
/// subscribed follower.
pub struct ReplHub {
    queue: Mutex<VecDeque<String>>,
    wake_fd: AtomicI32,
    finish: AtomicBool,
    http_addr: String,
}

impl ReplHub {
    /// A hub advertising `http_addr` (quoted in follower 421s).
    pub fn new(http_addr: String) -> ReplHub {
        ReplHub {
            queue: Mutex::new(VecDeque::new()),
            wake_fd: AtomicI32::new(-1),
            finish: AtomicBool::new(false),
            http_addr,
        }
    }

    /// Attach the hub thread's wake pipe (called before the thread
    /// spawns, so no enqueue can miss its wake).
    pub fn set_wake_fd(&self, fd: i32) {
        self.wake_fd.store(fd, Ordering::SeqCst);
    }

    /// Ship one acknowledged WAL record. `line` is the exact JSONL line
    /// the WAL fsynced — it is spliced into the frame verbatim so the
    /// follower replays byte-identical records.
    pub fn ship_record(&self, session: u64, line: &str) {
        panda_obs::counter_add_labeled("repl.shipped", &[("kind", "record")], 1);
        self.enqueue(format!(
            "{{\"Record\":{{\"session\":{session},\"record\":{line}}}}}"
        ));
    }

    /// Ship a session deletion.
    pub fn ship_delete(&self, session: u64) {
        panda_obs::counter_add_labeled("repl.shipped", &[("kind", "delete")], 1);
        if let Ok(frame) = serde_json::to_string(&ReplMsg::Delete { session }) {
            self.enqueue(frame);
        }
    }

    /// Ship a pre-serialized `Sync` frame (handoff adoption pushes the
    /// moved session to this shard's followers immediately).
    pub fn ship_sync_frame(&self, frame: String) {
        panda_obs::counter_add_labeled("repl.shipped", &[("kind", "sync")], 1);
        self.enqueue(frame);
    }

    /// Tell the hub the workers are drained: flush the remaining queue
    /// to connected followers, then exit. Called from `join`.
    pub fn finish(&self) {
        self.finish.store(true, Ordering::SeqCst);
        self.wake();
    }

    fn enqueue(&self, frame: String) {
        self.queue
            .lock()
            .expect("repl queue poisoned")
            .push_back(frame);
        self.wake();
    }

    fn wake(&self) {
        let fd = self.wake_fd.load(Ordering::SeqCst);
        if fd >= 0 {
            net::notify_fd(fd);
        }
    }
}

/// One follower connection inside the hub.
struct FollowerConn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    out: OutBuf,
    synced: bool,
    sent: u64,
    acked: u64,
}

/// A partially flushed output buffer over a non-blocking stream.
struct OutBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl OutBuf {
    fn new() -> OutBuf {
        OutBuf {
            buf: Vec::new(),
            pos: 0,
        }
    }

    fn push_frame(&mut self, payload: &str) {
        encode_frame(&mut self.buf, payload);
    }

    fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Write as much as the socket accepts. `Ok(true)` when drained.
    fn flush(&mut self, stream: &mut TcpStream) -> std::io::Result<bool> {
        while self.pos < self.buf.len() {
            match stream.write(&self.buf[self.pos..]) {
                Ok(0) => return Err(std::io::Error::other("peer closed mid-write")),
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // Reclaim flushed space lazily so a slow follower
                    // does not pin the whole history in memory.
                    if self.pos > 1024 * 1024 {
                        self.buf.drain(..self.pos);
                        self.pos = 0;
                    }
                    return Ok(false);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.pos = 0;
        Ok(true)
    }
}

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKE: u64 = u64::MAX - 1;

/// The hub thread: accepts followers on the replication listener,
/// answers subscribes with per-session syncs, broadcasts queued record
/// frames, and tracks apply lag from follower acks. Single-threaded by
/// design — subscribe-time sync and queue broadcast are serialized, so
/// a freshly synced follower can never observe a seq gap (anything it
/// missed is covered by the snapshot it just received; anything resent
/// is skipped by the `seq <= cursor` duplicate rule).
pub fn run_hub(hub: Arc<ReplHub>, listener: Listener, state: Arc<AppState>, wake: WakePipe) {
    let epoll = match Epoll::new() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("panda-serve: repl hub epoll failed: {e}");
            return;
        }
    };
    let _ = epoll.add(listener.fd(), net::EPOLLIN, TOKEN_LISTENER);
    let _ = epoll.add(wake.read_fd(), net::EPOLLIN, TOKEN_WAKE);
    crate::signal::register_wake_fd(wake.write_fd());

    let mut conns: Vec<Option<FollowerConn>> = Vec::new();
    let mut events = [EpollEvent { events: 0, data: 0 }; 64];
    let mut finish_at: Option<Instant> = None;

    while let Ok(n) = epoll.wait(&mut events, 500) {
        for ev in events.iter().take(n) {
            let token = { ev.data };
            match token {
                TOKEN_WAKE => wake.drain(),
                TOKEN_LISTENER => {
                    // Stop admitting followers once drain began; the
                    // remaining work is shipping the tail to the ones
                    // already connected.
                    if state.shutdown_requested() {
                        continue;
                    }
                    while let Ok(Some(stream)) = listener.accept() {
                        let idx = conns.iter().position(|c| c.is_none()).unwrap_or_else(|| {
                            conns.push(None);
                            conns.len() - 1
                        });
                        if epoll
                            .add(stream.as_raw_fd(), net::EPOLLIN, idx as u64)
                            .is_ok()
                        {
                            conns[idx] = Some(FollowerConn {
                                stream,
                                inbuf: Vec::new(),
                                out: OutBuf::new(),
                                synced: false,
                                sent: 0,
                                acked: 0,
                            });
                        }
                    }
                }
                idx => {
                    let idx = idx as usize;
                    if hub_conn_event(&hub, &state, &mut conns, idx).is_err() {
                        drop_follower(&epoll, &mut conns, idx);
                    }
                }
            }
        }

        // Broadcast queued frames to every synced follower.
        let frames: Vec<String> = {
            let mut q = hub.queue.lock().expect("repl queue poisoned");
            q.drain(..).collect()
        };
        if !frames.is_empty() {
            for conn in conns.iter_mut().flatten() {
                if !conn.synced {
                    continue;
                }
                for frame in &frames {
                    conn.out.push_frame(frame);
                }
                conn.sent += frames.len() as u64;
            }
        }

        // Flush and set per-connection interest; drop slow followers.
        let mut dead = Vec::new();
        for (idx, slot) in conns.iter_mut().enumerate() {
            let Some(conn) = slot else { continue };
            match conn.out.flush(&mut conn.stream) {
                Ok(drained) => {
                    let interest = if drained {
                        net::EPOLLIN
                    } else {
                        net::EPOLLIN | net::EPOLLOUT
                    };
                    let _ = epoll.modify(conn.stream.as_raw_fd(), interest, idx as u64);
                    if conn.out.pending() > FOLLOWER_OUT_CAP {
                        dead.push(idx);
                    }
                }
                Err(_) => dead.push(idx),
            }
        }
        for idx in dead {
            drop_follower(&epoll, &mut conns, idx);
        }

        let live = conns.iter().flatten().count();
        panda_obs::gauge_set("repl.followers", live as f64);
        for (idx, conn) in conns.iter().enumerate() {
            if let Some(conn) = conn {
                panda_obs::gauge_set_labeled(
                    "repl.apply_lag",
                    &[("follower", &idx.to_string())],
                    conn.sent.saturating_sub(conn.acked) as f64,
                );
            }
        }

        if hub.finish.load(Ordering::SeqCst) {
            let deadline = *finish_at.get_or_insert_with(|| Instant::now() + FINISH_GRACE);
            let queue_empty = hub.queue.lock().expect("repl queue poisoned").is_empty();
            let flushed = conns.iter().flatten().all(|c| c.out.is_empty());
            if (queue_empty && flushed) || Instant::now() >= deadline {
                break;
            }
        }
    }
    panda_obs::gauge_set("repl.followers", 0.0);
}

/// Handle readability on one follower connection: consume `Subscribe`
/// (reply with `Hello` + per-session syncs) and `Ack` frames.
fn hub_conn_event(
    hub: &ReplHub,
    state: &AppState,
    conns: &mut [Option<FollowerConn>],
    idx: usize,
) -> Result<(), String> {
    let conn = conns
        .get_mut(idx)
        .and_then(|c| c.as_mut())
        .ok_or("stale token")?;
    read_available(&mut conn.stream, &mut conn.inbuf).map_err(|e| e.to_string())?;
    while let Some(payload) = decode_frame(&mut conn.inbuf)? {
        let msg: ReplMsg = serde_json::from_str(&payload).map_err(|e| e.0)?;
        match msg {
            ReplMsg::Subscribe { cursors } => {
                let hello = serde_json::to_string(&ReplMsg::Hello {
                    http_addr: hub.http_addr.clone(),
                })
                .map_err(|e| e.0)?;
                conn.out.push_frame(&hello);
                for frame in state.sync_frames(&cursors) {
                    conn.out.push_frame(&frame);
                    conn.sent += 1;
                }
                conn.synced = true;
            }
            ReplMsg::Ack { frames } => conn.acked = conn.acked.max(frames),
            _ => return Err("unexpected frame from follower".into()),
        }
    }
    Ok(())
}

fn drop_follower(epoll: &Epoll, conns: &mut [Option<FollowerConn>], idx: usize) {
    if let Some(Some(conn)) = conns.get(idx) {
        epoll.del(conn.stream.as_raw_fd());
    }
    if let Some(slot) = conns.get_mut(idx) {
        *slot = None;
    }
}

/// Drain everything currently readable from a non-blocking stream into
/// `buf`. An orderly EOF is an error for replication links — both ends
/// treat it as "reconnect and resync".
fn read_available(stream: &mut TcpStream, buf: &mut Vec<u8>) -> std::io::Result<()> {
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Err(std::io::Error::other("peer closed")),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn resolve(addr: &str) -> Result<SocketAddr, String> {
    addr.to_socket_addrs()
        .map_err(|e| format!("cannot resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr} resolves to no address"))
}

fn follower_should_exit(state: &AppState) -> bool {
    state.shutdown_requested() || !state.is_follower()
}

/// The follower's dial-and-apply loop: connect to the primary's
/// replication port (non-blocking connect resolved via `EPOLLOUT` +
/// `SO_ERROR`), subscribe with current cursors, then apply every frame
/// through the digest-verified replay path. Exits on shutdown or
/// promotion; reconnects with backoff on any link error.
pub fn run_follower(state: Arc<AppState>, primary: String) {
    let Ok(epoll) = Epoll::new() else { return };
    let Ok(wake) = WakePipe::new() else { return };
    if epoll.add(wake.read_fd(), net::EPOLLIN, TOKEN_WAKE).is_err() {
        return;
    }
    crate::signal::register_wake_fd(wake.write_fd());
    let mut events = [EpollEvent { events: 0, data: 0 }; 16];
    let mut backoff = BACKOFF_MIN;

    while !follower_should_exit(&state) {
        match follower_connect(&state, &epoll, &wake, &mut events, &primary) {
            Ok(Some(stream)) => {
                backoff = BACKOFF_MIN;
                panda_obs::counter_add("repl.follower.connects", 1);
                follower_apply_loop(&state, &epoll, &wake, &mut events, stream);
            }
            Ok(None) => {} // exit requested mid-connect
            Err(_) => {
                panda_obs::counter_add("repl.follower.connect_failures", 1);
                // Park on the wake pipe for the backoff interval so
                // shutdown/promotion still interrupts immediately.
                let _ = epoll.wait(&mut events, backoff.as_millis() as i32);
                wake.drain();
                backoff = (backoff * 2).min(BACKOFF_MAX);
            }
        }
    }
}

/// One connect attempt. `Ok(None)` means an exit was requested while
/// waiting for the handshake.
fn follower_connect(
    state: &AppState,
    epoll: &Epoll,
    wake: &WakePipe,
    events: &mut [EpollEvent],
    primary: &str,
) -> Result<Option<TcpStream>, String> {
    let addr = resolve(primary)?;
    let (stream, done) = net::connect_start(&addr).map_err(|e| e.to_string())?;
    if !done {
        epoll
            .add(stream.as_raw_fd(), net::EPOLLOUT, 1)
            .map_err(|e| e.to_string())?;
        let deadline = Instant::now() + Duration::from_secs(3);
        let connected = loop {
            if follower_should_exit(state) {
                epoll.del(stream.as_raw_fd());
                return Ok(None);
            }
            let n = epoll.wait(events, 250).map_err(|e| e.to_string())?;
            let mut writable = false;
            for ev in events.iter().take(n) {
                let token = { ev.data };
                match token {
                    TOKEN_WAKE => wake.drain(),
                    _ => writable = true,
                }
            }
            if writable {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
        };
        epoll.del(stream.as_raw_fd());
        if !connected {
            return Err(format!("connect to {primary} timed out"));
        }
    }
    net::take_connect_error(&stream).map_err(|e| e.to_string())?;
    Ok(Some(stream))
}

/// Subscribe, then apply frames until the link breaks or an exit is
/// requested.
fn follower_apply_loop(
    state: &Arc<AppState>,
    epoll: &Epoll,
    wake: &WakePipe,
    events: &mut [EpollEvent],
    mut stream: TcpStream,
) {
    let token = 1u64;
    if epoll.add(stream.as_raw_fd(), net::EPOLLIN, token).is_err() {
        return;
    }
    let mut out = OutBuf::new();
    let mut inbuf: Vec<u8> = Vec::new();
    let mut applied: u64 = 0;
    let mut acked: u64 = 0;

    let subscribe = ReplMsg::Subscribe {
        cursors: state.replica_cursors(),
    };
    match serde_json::to_string(&subscribe) {
        Ok(frame) => out.push_frame(&frame),
        Err(_) => {
            epoll.del(stream.as_raw_fd());
            return;
        }
    }

    loop {
        if follower_should_exit(state) {
            break;
        }
        // Flush pending output (subscribe/acks) and set interest.
        let interest = match out.flush(&mut stream) {
            Ok(true) => net::EPOLLIN,
            Ok(false) => net::EPOLLIN | net::EPOLLOUT,
            Err(_) => break,
        };
        if epoll.modify(stream.as_raw_fd(), interest, token).is_err() {
            break;
        }
        let Ok(n) = epoll.wait(events, 500) else {
            break;
        };
        let mut ready = false;
        for ev in events.iter().take(n) {
            let token = { ev.data };
            match token {
                TOKEN_WAKE => wake.drain(),
                _ => ready = true,
            }
        }
        if !ready {
            continue;
        }
        if read_available(&mut stream, &mut inbuf).is_err() {
            break;
        }
        let mut poisoned = false;
        loop {
            match decode_frame(&mut inbuf) {
                Ok(Some(payload)) => match serde_json::from_str::<ReplMsg>(&payload) {
                    Ok(msg) => {
                        state.apply_repl_frame(msg);
                        applied += 1;
                    }
                    Err(e) => {
                        panda_obs::counter_add("repl.follower.link_errors", 1);
                        eprintln!(
                            "panda-serve: follower dropped corrupt frame stream: {}",
                            e.0
                        );
                        poisoned = true;
                        break;
                    }
                },
                Ok(None) => break,
                Err(msg) => {
                    panda_obs::counter_add("repl.follower.link_errors", 1);
                    eprintln!("panda-serve: follower dropped corrupt frame stream: {msg}");
                    poisoned = true;
                    break;
                }
            }
        }
        if poisoned {
            break;
        }
        if applied > acked {
            if let Ok(frame) = serde_json::to_string(&ReplMsg::Ack { frames: applied }) {
                out.push_frame(&frame);
            }
            acked = applied;
        }
    }
    epoll.del(stream.as_raw_fd());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::feed;
    use proptest::prelude::*;

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut wire = Vec::new();
        encode_frame(&mut wire, "{\"a\":1}");
        encode_frame(&mut wire, "second");
        let mut buf = wire.clone();
        assert_eq!(decode_frame(&mut buf).unwrap().unwrap(), "{\"a\":1}");
        assert_eq!(decode_frame(&mut buf).unwrap().unwrap(), "second");
        assert!(decode_frame(&mut buf).unwrap().is_none());
        // A partial frame waits for more bytes.
        let mut partial = wire[..5].to_vec();
        assert!(decode_frame(&mut partial).unwrap().is_none());
        // A length past the cap poisons the link.
        let mut huge = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        huge.extend_from_slice(b"xx");
        assert!(decode_frame(&mut huge).is_err());
    }

    #[test]
    fn repl_msgs_serialize_round_trip_including_spliced_records() {
        let record_line = "{\"seq\":3,\"digest\":42,\"op\":\"Fit\"}";
        // The splice the hub ships must parse as a ReplMsg::Record.
        let frame = format!("{{\"Record\":{{\"session\":7,\"record\":{record_line}}}}}");
        match serde_json::from_str::<ReplMsg>(&frame) {
            Ok(ReplMsg::Record { session, record }) => {
                assert_eq!(session, 7);
                assert_eq!(record.seq, 3);
                assert_eq!(record.digest, 42);
            }
            other => panic!("bad decode: {other:?}"),
        }
        let sub = ReplMsg::Subscribe {
            cursors: vec![SessionCursor { session: 1, seq: 5 }],
        };
        let json = serde_json::to_string(&sub).unwrap();
        match serde_json::from_str::<ReplMsg>(&json).unwrap() {
            ReplMsg::Subscribe { cursors } => {
                assert_eq!(cursors.len(), 1);
                assert_eq!(cursors[0].seq, 5);
            }
            other => panic!("bad decode: {other:?}"),
        }
    }

    #[test]
    fn shard_ring_is_deterministic_covering_and_self_aware() {
        let peers = vec![
            "127.0.0.1:7001".to_string(),
            "127.0.0.1:7002".to_string(),
            "127.0.0.1:7003".to_string(),
        ];
        let ring_a = ShardRing::new(peers.clone(), "127.0.0.1:7001").unwrap();
        let ring_b = ShardRing::new(peers.clone(), "127.0.0.1:7002").unwrap();
        let mut counts = [0usize; 3];
        for id in 1..=600u64 {
            // Every member computes the same owner for every id.
            assert_eq!(ring_a.owner_of(id), ring_b.owner_of(id));
            let owner = ring_a.owner_of(id);
            counts[peers.iter().position(|p| p == owner).unwrap()] += 1;
            assert_eq!(ring_a.owns(id), owner == "127.0.0.1:7001");
        }
        // Virtual nodes keep the split roughly even: no shard is empty
        // or hoarding everything.
        for c in counts {
            assert!(c > 60, "unbalanced ring: {counts:?}");
        }
        // A ring that does not contain the advertised self address is a
        // configuration error.
        let err = ShardRing::new(peers, "127.0.0.1:9999").unwrap_err();
        assert!(err.contains("9999"), "{err}");
    }

    proptest! {
        /// Any split of an `encode_frame` stream, byte-at-a-time
        /// included, decodes to the same payloads.
        #[test]
        fn any_split_decodes_the_same_payloads(
            payloads in prop::collection::vec("[ -~é€😀]{0,24}", 0..6),
            cuts in prop::collection::vec(0usize..300, 0..8),
        ) {
            let mut wire = Vec::new();
            payloads.iter().for_each(|p| encode_frame(&mut wire, p));
            let drip: Vec<usize> = (0..wire.len()).collect();
            for cuts in [&cuts, &drip] {
                prop_assert_eq!(feed(&wire, cuts, decode_frame), (payloads.clone(), None));
            }
        }

        /// A length prefix above `MAX_FRAME` is an error whatever follows,
        /// and so is a payload that is not UTF-8.
        #[test]
        fn oversized_prefixes_and_non_utf8_payloads_are_errors(
            len in (MAX_FRAME as u32 + 1)..=u32::MAX,
            mut bytes in prop::collection::vec(any::<u8>(), 0..32),
            at in any::<usize>(),
        ) {
            let mut huge = [&len.to_be_bytes()[..], &bytes].concat();
            prop_assert!(decode_frame(&mut huge).is_err());
            bytes.insert(at % (bytes.len() + 1), 0xff);
            let mut bad = [&(bytes.len() as u32).to_be_bytes()[..], &bytes].concat();
            prop_assert!(decode_frame(&mut bad).is_err());
        }

        /// Arbitrary bytes never panic, and every frame drains exactly its
        /// 4-byte prefix plus the length the prefix declares: the frames
        /// taken, encoded again, are the bytes they were taken from.
        #[test]
        fn every_frame_drains_exactly_its_prefix_and_payload(
            frames in prop::collection::vec((0u32..24, prop::collection::vec(any::<u8>(), 0..24)), 0..6),
            noise in prop::collection::vec(any::<u8>(), 0..32),
        ) {
            let mut wire: Vec<u8> = noise;
            for (len, bytes) in frames.into_iter().rev() {
                wire = [&len.to_be_bytes()[..], &bytes, &wire].concat();
            }
            let mut taken = Vec::new();
            feed(&wire, &[], decode_frame).0.iter().for_each(|p| encode_frame(&mut taken, p));
            prop_assert!(wire.starts_with(&taken));
        }
    }
}
