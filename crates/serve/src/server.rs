//! The server core: per-worker epoll event loops over non-blocking
//! connection state machines, with `SO_REUSEPORT` accept sharding.
//!
//! Threading model (std-only, no async runtime):
//!
//! * **N workers**, each owning its *own* listener (bound with
//!   `SO_REUSEPORT`, so the kernel shards incoming connections across
//!   workers — no single accept thread serializes admission) and its own
//!   [`crate::net::Epoll`] instance. A worker accepts, reads, parses,
//!   routes (panics become a 500 via `catch_unwind`), and writes
//!   entirely on its event loop; connections never migrate between
//!   workers. N defaults to [`panda_exec::worker_count`], so
//!   `PANDA_WORKERS` governs serving parallelism exactly like batch
//!   parallelism.
//! * **Connections** are non-blocking state machines: reading (head +
//!   body, incrementally parsed), handling, writing, and — on close
//!   paths — draining (write side shut, unread request bytes discarded
//!   so the response is not destroyed by a TCP RST). Keep-alive and
//!   pipelining are native: a connection loops back to reading after
//!   each response, and back-to-back requests already buffered are
//!   answered in order without waiting for more readiness events.
//! * **Deadlines** replace blocking socket timeouts, per state: a
//!   partially received request must complete within `read_timeout`
//!   (slowloris eviction → 408), a queued response must drain within
//!   `write_timeout`, an *idle* persistent connection is closed
//!   silently after `keep_alive_timeout`, and the TTL session sweep
//!   rides shard 0's timer — there is no dedicated timer thread.
//! * **drain** — `/shutdown` or SIGTERM flips the latch and wakes every
//!   event loop via its self-pipe ([`crate::signal::wake_all`]). Each
//!   worker stops accepting, closes idle keep-alive connections
//!   immediately, lets in-flight requests finish (their responses are
//!   sent with `Connection: close`), and exits; [`ServerHandle::join`]
//!   then returns. Per-state deadlines bound the whole drain.

use crate::http::{ReadError, RequestParser, Response};
use crate::net::{Epoll, EpollEvent, Listener, WakePipe, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use crate::repl::{self, ReplHub, ShardRing};
use crate::router;
use crate::state::{AppState, StateOptions};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving knobs. `Default` is sensible for tests and local use.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7700` (`:0` for an ephemeral port).
    pub addr: String,
    /// Event-loop workers; `0` means [`panda_exec::worker_count`].
    pub workers: usize,
    /// Request body cap in bytes (larger → 413).
    pub max_body: usize,
    /// Open connections per worker shard; beyond it, new connections are
    /// answered 503 and closed (load shedding beats unbounded buffering).
    pub max_conns: usize,
    /// A partially received request must complete within this, measured
    /// from its first byte (expiry → 408 and close).
    pub read_timeout: Duration,
    /// A queued response must drain within this (expiry → close).
    pub write_timeout: Duration,
    /// Idle persistent connections are closed after this.
    pub keep_alive_timeout: Duration,
    /// Requests served per connection before the server forces
    /// `Connection: close` (0 = unbounded). Bounds per-client
    /// monopolization of a shard.
    pub max_requests_per_conn: u64,
    /// Bind one `SO_REUSEPORT` listener per worker (kernel accept
    /// sharding). With `false`, all workers poll one shared listener.
    pub reuseport: bool,
    /// Durable state directory (`None` = fully in-memory). With one set,
    /// startup recovers every persisted session before accepting.
    pub state_dir: Option<PathBuf>,
    /// Max sessions resident in memory (0 = unbounded); LRU entries
    /// beyond it are evicted to snapshot.
    pub max_sessions: usize,
    /// Idle time after which a session is evicted by the sweep.
    pub session_ttl: Option<Duration>,
    /// WAL appends between snapshot compactions.
    pub snapshot_every: u64,
    /// Requests slower than this emit a `serve.slow` journal event
    /// (route, status, duration, request id). 0 disables the check.
    pub slow_request_ms: u64,
    /// Replication listener address (primary side, `:0` for ephemeral).
    /// With one set, every acknowledged WAL record is shipped to
    /// subscribed followers. Requires `state_dir` — only fsynced records
    /// are shipped.
    pub repl_addr: Option<String>,
    /// Follow a primary's replication listener (follower mode): apply
    /// shipped records in memory, serve read-only routes, answer
    /// mutations 421 with the primary's address.
    pub follow: Option<String>,
    /// Shard peers (advertised HTTP addresses, must include this
    /// server's). Builds the consistent-hash ring for session routing;
    /// empty means unsharded.
    pub peers: Vec<String>,
    /// This server's advertised HTTP address in the shard map and
    /// follower `Hello` frames (defaults to the bound address — set it
    /// when clients reach the server through a different name).
    pub advertise: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            max_body: 8 * 1024 * 1024,
            max_conns: 256,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            keep_alive_timeout: Duration::from_secs(5),
            max_requests_per_conn: 0,
            reuseport: true,
            state_dir: None,
            max_sessions: 0,
            session_ttl: None,
            snapshot_every: crate::persist::DEFAULT_SNAPSHOT_EVERY,
            slow_request_ms: 0,
            repl_addr: None,
            follow: None,
            peers: Vec::new(),
            advertise: None,
        }
    }
}

/// The server. Construct via [`Server::start`].
pub struct Server;

impl Server {
    /// Bind, spawn the event-loop workers, and return a handle. Serving
    /// proceeds on background threads — the caller keeps its thread.
    pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
        let requested: SocketAddr =
            config.addr.to_socket_addrs()?.next().ok_or_else(|| {
                std::io::Error::other(format!("cannot resolve {:?}", config.addr))
            })?;
        let n_workers = if config.workers == 0 {
            panda_exec::worker_count()
        } else {
            config.workers
        };
        // Bind up front so `:0` resolves once and every shard shares the
        // port. Without reuseport a single listener is shared (each
        // worker's epoll watches the same fd — correct, just herd-prone).
        let first = Listener::bind(&requested, config.reuseport)?;
        let addr = first.addr();
        let mut listeners = vec![Arc::new(first)];
        if config.reuseport {
            for _ in 1..n_workers {
                listeners.push(Arc::new(Listener::bind(&addr, true)?));
            }
        } else {
            let shared = Arc::clone(&listeners[0]);
            listeners.extend((1..n_workers).map(|_| Arc::clone(&shared)));
        }

        // Replication topology checks — every rejection names the flag
        // that caused it.
        if config.follow.is_some() && config.state_dir.is_some() {
            return Err(std::io::Error::other(
                "--follow conflicts with --state-dir: a follower replicates the \
                 primary's WAL in memory instead of writing its own",
            ));
        }
        if config.follow.is_some() && config.repl_addr.is_some() {
            return Err(std::io::Error::other(
                "--follow conflicts with --repl-addr: a follower subscribes to a \
                 primary, it does not ship a WAL of its own",
            ));
        }
        if config.repl_addr.is_some() && config.state_dir.is_none() {
            return Err(std::io::Error::other(
                "--repl-addr requires --state-dir: only fsynced WAL records are \
                 shipped to followers",
            ));
        }
        let advertised = config.advertise.clone().unwrap_or_else(|| addr.to_string());
        let ring = if config.peers.is_empty() {
            None
        } else {
            Some(ShardRing::new(config.peers.clone(), &advertised).map_err(std::io::Error::other)?)
        };

        // Recovery happens here, before the first accept: every session
        // the state dir holds is replayed and digest-verified up front.
        let state = AppState::open(StateOptions {
            state_dir: config.state_dir.clone(),
            max_sessions: config.max_sessions,
            session_ttl: config.session_ttl,
            snapshot_every: config.snapshot_every,
            follower: config.follow.is_some(),
            ring,
        })
        .map_err(std::io::Error::other)?;
        let state = Arc::new(state);
        panda_obs::gauge_set("serve.workers", n_workers as f64);

        // Replication plane: the hub thread (primary) owns the repl
        // listener and ships queued WAL frames; the follower thread
        // dials the primary and applies what arrives. Both are single
        // background threads outside the HTTP event loops.
        let mut hub = None;
        let mut hub_thread = None;
        let mut follower_thread = None;
        let mut repl_addr = None;
        if let Some(raw) = &config.repl_addr {
            let want: SocketAddr = raw
                .to_socket_addrs()?
                .next()
                .ok_or_else(|| std::io::Error::other(format!("cannot resolve {raw:?}")))?;
            let listener = Listener::bind(&want, false)?;
            repl_addr = Some(listener.addr());
            let h = Arc::new(ReplHub::new(advertised.clone()));
            // The wake pipe exists before the thread: no enqueue can
            // miss its wake.
            let wake = WakePipe::new()?;
            h.set_wake_fd(wake.write_fd());
            state.set_hub(Arc::clone(&h));
            let (h2, state2) = (Arc::clone(&h), Arc::clone(&state));
            hub_thread = Some(
                std::thread::Builder::new()
                    .name("panda-repl-hub".to_string())
                    .spawn(move || repl::run_hub(h2, listener, state2, wake))
                    .expect("spawn repl hub"),
            );
            hub = Some(h);
        }
        if let Some(primary) = config.follow.clone() {
            let state2 = Arc::clone(&state);
            follower_thread = Some(
                std::thread::Builder::new()
                    .name("panda-repl-follow".to_string())
                    .spawn(move || repl::run_follower(state2, primary))
                    .expect("spawn repl follower"),
            );
        }

        let mut workers = Vec::with_capacity(n_workers);
        for (shard, listener) in listeners.into_iter().enumerate() {
            let state = Arc::clone(&state);
            let config = config.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("panda-serve-{shard}"))
                    .spawn(
                        move || match EventLoop::new(state, listener, config, shard) {
                            Ok(mut el) => el.run(),
                            Err(e) => eprintln!("panda-serve: worker {shard} failed to start: {e}"),
                        },
                    )
                    .expect("spawn worker"),
            );
        }

        Ok(ServerHandle {
            addr,
            state,
            workers,
            repl_addr,
            hub,
            hub_thread,
            follower_thread,
        })
    }
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

/// Token for "this worker's listener became readable".
const TOKEN_LISTENER: u64 = u64::MAX;
/// Token for "the wake pipe was poked" (shutdown latch changed).
const TOKEN_WAKE: u64 = u64::MAX - 1;

/// Queued-response cap: stop answering further pipelined requests until
/// the client drains what it already owes us.
const OUT_CAP: usize = 256 * 1024;
/// Bytes read per readiness event before yielding to other connections
/// (level-triggered epoll re-arms if more input is pending).
const READ_BURST: usize = 64 * 1024;
/// Accepts per readiness event before yielding (ditto).
const ACCEPT_BURST: usize = 256;
/// Close-path grace: how long a `Draining` connection may dribble
/// unread request bytes before the socket is dropped.
const DRAIN_GRACE: Duration = Duration::from_secs(1);
/// Slots beyond `max_conns` usable by shed (503) connections, so the
/// refusal itself is delivered politely; beyond this, drop outright.
const SHED_SLACK: usize = 64;
/// Default `/events` long-poll park time when the client names none.
const POLL_TIMEOUT_DEFAULT: Duration = Duration::from_secs(10);
/// Cap on the client-requested `/events` long-poll park time.
const POLL_TIMEOUT_MAX: Duration = Duration::from_secs(30);

/// Which deadline currently governs a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeadlineKind {
    /// Forces the next `settle` to recompute (fresh or just-transitioned).
    Invalid,
    /// Idle keep-alive connection: close silently at the deadline.
    Idle,
    /// Mid-request: 408 at the deadline (anchored at the request's first
    /// byte — receiving more bytes does not extend it, so a slowloris
    /// drip cannot hold the slot).
    Request,
    /// Response queued: close at the deadline.
    Write,
    /// Write side shut, discarding stragglers: close at the deadline.
    Drain,
    /// Parked `/events` long-poll: *answer* (empty tail) at the
    /// deadline — never close. New journal events resolve it earlier via
    /// [`EventLoop::resolve_pollers`], riding the ≤500ms epoll timeout.
    Poll,
}

/// A parked `GET /events` long-poll, waiting for the journal to move
/// past its cursor.
struct PollWait {
    /// The client's `since` cursor (respond once `next_seq` exceeds it).
    since: u64,
    /// Max events in the response.
    max: usize,
    /// Keep-alive decision captured at park time.
    keep: bool,
    /// Request id assigned at park time (the response echoes it).
    rid: String,
}

/// One non-blocking connection.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    /// Received-but-unparsed request bytes.
    buf: Vec<u8>,
    /// Queued response bytes (`out[out_pos..]` still unsent).
    out: Vec<u8>,
    out_pos: usize,
    /// Current epoll interest mask.
    interest: u32,
    deadline: Instant,
    deadline_kind: DeadlineKind,
    /// Requests served on this connection (keep-alive reuse count).
    served: u64,
    /// Close once `out` is flushed; no further requests are parsed.
    close_after_write: bool,
    /// Write side already shut; discarding reads until EOF or deadline.
    draining: bool,
    /// Peer sent EOF (no more requests will arrive).
    eof: bool,
    /// Parked `/events` long-poll (pipelined parsing pauses while set).
    poll: Option<PollWait>,
}

/// Slab slot: a generation counter guards against a readiness event
/// addressed to a closed connection hitting its slot's next tenant.
struct Slot {
    conn: Option<Conn>,
    gen: u32,
}

struct EventLoop {
    state: Arc<AppState>,
    listener: Arc<Listener>,
    config: ServerConfig,
    shard: usize,
    epoll: Epoll,
    wake: WakePipe,
    slots: Vec<Slot>,
    free: Vec<usize>,
    n_conns: usize,
    draining: bool,
    drain_deadline: Instant,
    last_sweep: Instant,
    /// Per-shard monotonic request counter; `X-Request-Id` is
    /// `{shard}-{n}`, unique process-wide by the shard prefix.
    next_request_id: u64,
    /// The shard number as a string, reused as a metric label.
    shard_label: String,
}

impl EventLoop {
    fn new(
        state: Arc<AppState>,
        listener: Arc<Listener>,
        config: ServerConfig,
        shard: usize,
    ) -> std::io::Result<EventLoop> {
        let epoll = Epoll::new()?;
        let wake = WakePipe::new()?;
        epoll.add(listener.fd(), EPOLLIN, TOKEN_LISTENER)?;
        epoll.add(wake.read_fd(), EPOLLIN, TOKEN_WAKE)?;
        crate::signal::register_wake_fd(wake.write_fd());
        let now = Instant::now();
        Ok(EventLoop {
            state,
            listener,
            config,
            shard,
            epoll,
            wake,
            slots: Vec::new(),
            free: Vec::new(),
            n_conns: 0,
            draining: false,
            drain_deadline: now,
            last_sweep: now,
            next_request_id: 0,
            shard_label: shard.to_string(),
        })
    }

    /// Mint the next request id on this shard.
    fn next_rid(&mut self) -> String {
        self.next_request_id += 1;
        format!("{}-{}", self.shard, self.next_request_id)
    }

    fn run(&mut self) {
        let mut events = vec![EpollEvent { events: 0, data: 0 }; 256];
        loop {
            if !self.draining && self.state.shutdown_requested() {
                self.begin_drain();
            }
            if self.draining && self.n_conns == 0 {
                break;
            }
            let timeout_ms = self.next_timeout_ms();
            let n = match self.epoll.wait(&mut events, timeout_ms) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("panda-serve: shard {} epoll_wait failed: {e}", self.shard);
                    break;
                }
            };
            for ev in &events[..n] {
                let (mask, token) = ({ ev.events }, { ev.data });
                match token {
                    TOKEN_WAKE => self.wake.drain(),
                    TOKEN_LISTENER => self.accept_burst(),
                    token => self.conn_event(token, mask),
                }
            }
            self.resolve_pollers();
            self.expire_deadlines();
            if self.shard == 0 && self.last_sweep.elapsed() >= Duration::from_secs(1) {
                // TTL sweep rides shard 0's event-loop timer (~1s cadence)
                // — no dedicated timer thread.
                self.state.sweep();
                self.last_sweep = Instant::now();
            }
            if self.draining && Instant::now() >= self.drain_deadline {
                // Hard stop: whatever is still open gets dropped.
                for idx in 0..self.slots.len() {
                    self.close(idx);
                }
                break;
            }
        }
    }

    /// First observation of the shutdown latch: stop accepting, close
    /// idle keep-alive connections promptly, let in-flight work finish.
    fn begin_drain(&mut self) {
        self.draining = true;
        self.epoll.del(self.listener.fd());
        // In-flight connections (mid-request, writing, or draining) are
        // left to finish under their per-state deadlines; `pump` forces
        // `Connection: close` on every response once the latch is up.
        let idle: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| {
                let conn = slot.conn.as_ref()?;
                let has_out = conn.out_pos < conn.out.len();
                let idle = !has_out
                    && !conn.draining
                    && conn.buf.is_empty()
                    && !conn.parser.mid_request()
                    && !conn.close_after_write
                    // A parked long-poll is not idle: resolve_pollers
                    // answers it (with Connection: close) next pass.
                    && conn.poll.is_none();
                idle.then_some(idx)
            })
            .collect();
        for idx in idle {
            self.close(idx);
        }
        self.drain_deadline = Instant::now()
            + self.config.read_timeout
            + self.config.write_timeout
            + DRAIN_GRACE
            + Duration::from_secs(1);
    }

    /// The epoll timeout: the nearest connection deadline (or sweep /
    /// drain timer), capped so latch flips are never missed for long.
    fn next_timeout_ms(&self) -> i32 {
        let now = Instant::now();
        let mut next: Option<Instant> = self
            .slots
            .iter()
            .filter_map(|s| s.conn.as_ref().map(|c| c.deadline))
            .min();
        if self.shard == 0 {
            let sweep_at = self.last_sweep + Duration::from_secs(1);
            next = Some(next.map_or(sweep_at, |n| n.min(sweep_at)));
        }
        if self.draining {
            next = Some(next.map_or(self.drain_deadline, |n| n.min(self.drain_deadline)));
        }
        let cap = Duration::from_millis(500);
        let until = next.map_or(cap, |t| t.saturating_duration_since(now).min(cap));
        // Round up: a deadline 0.4ms away must not busy-spin at 0ms.
        until.as_millis() as i32 + 1
    }

    fn accept_burst(&mut self) {
        for _ in 0..ACCEPT_BURST {
            let stream = match self.listener.accept() {
                Ok(Some(s)) => s,
                Ok(None) => break,
                Err(_) => break,
            };
            if self.draining {
                drop(stream); // raced the listener deregistration
                continue;
            }
            panda_obs::counter_add("serve.conns_accepted", 1);
            panda_obs::counter_add_labeled(
                "serve.loop.accepts",
                &[("shard", &self.shard_label)],
                1,
            );
            let shed = self.n_conns >= self.config.max_conns;
            if shed {
                panda_obs::counter_add("serve.shed_503", 1);
                panda_obs::counter_add_labeled(
                    "serve.loop.shed_503",
                    &[("shard", &self.shard_label)],
                    1,
                );
                if self.n_conns >= self.config.max_conns + SHED_SLACK {
                    drop(stream); // severe overload: refuse impolitely
                    continue;
                }
            }
            let idx = self.insert(stream);
            if shed {
                // Queue the 503 through the normal write/drain machinery
                // so the client reliably sees it (no RST clobbering).
                let rid = self.next_rid();
                let conn = self.conn_mut(idx);
                let mut resp = Response::json(
                    503,
                    crate::api::ApiError::new("overloaded", "connection table is full").to_json(),
                );
                resp.request_id = Some(rid);
                conn.out.extend_from_slice(&resp.to_bytes(false));
                conn.close_after_write = true;
                self.flush(idx);
                if self.slots[idx].conn.is_some() {
                    self.finish_or_settle(idx);
                }
            }
        }
    }

    /// Register a fresh connection in the slab and the epoll set.
    fn insert(&mut self, stream: TcpStream) -> usize {
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(Slot { conn: None, gen: 0 });
                self.slots.len() - 1
            }
        };
        let fd = stream.as_raw_fd();
        let conn = Conn {
            stream,
            parser: RequestParser::new(),
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            interest: EPOLLIN,
            // A fresh connection is "idle until its first byte": the
            // keep-alive deadline governs how long it may sit silent.
            deadline: Instant::now() + self.config.keep_alive_timeout,
            deadline_kind: DeadlineKind::Idle,
            served: 0,
            close_after_write: false,
            draining: false,
            eof: false,
            poll: None,
        };
        self.slots[idx].conn = Some(conn);
        self.n_conns += 1;
        panda_obs::gauge_add_labeled(
            "serve.loop.connections",
            &[("shard", &self.shard_label)],
            1.0,
        );
        let token = self.token(idx);
        if self.epoll.add(fd, EPOLLIN, token).is_err() {
            self.close(idx);
        }
        idx
    }

    fn token(&self, idx: usize) -> u64 {
        (u64::from(self.slots[idx].gen) << 32) | idx as u64
    }

    fn conn_mut(&mut self, idx: usize) -> &mut Conn {
        self.slots[idx].conn.as_mut().expect("live connection")
    }

    /// Tear down one connection (idempotent: a second close of the same
    /// slot is a no-op thanks to the `Option`).
    fn close(&mut self, idx: usize) {
        let Some(conn) = self.slots[idx].conn.take() else {
            return;
        };
        self.epoll.del(conn.stream.as_raw_fd());
        panda_obs::gauge_add_labeled(
            "serve.loop.connections",
            &[("shard", &self.shard_label)],
            -1.0,
        );
        // Keep-alive reuse depth: how many requests this connection
        // carried over its lifetime (0 = shed or never spoke).
        panda_obs::hist_record_labeled(
            "serve.loop.reuse_depth",
            &[("shard", &self.shard_label)],
            u128::from(conn.served),
        );
        drop(conn); // closes the fd
        self.slots[idx].gen = self.slots[idx].gen.wrapping_add(1);
        self.free.push(idx);
        self.n_conns -= 1;
    }

    /// Dispatch one readiness event to its connection, ignoring stale
    /// tokens (connection already closed, slot possibly reused).
    fn conn_event(&mut self, token: u64, mask: u32) {
        let idx = (token & 0xFFFF_FFFF) as usize;
        let gen = (token >> 32) as u32;
        if idx >= self.slots.len() || self.slots[idx].gen != gen || self.slots[idx].conn.is_none() {
            return;
        }
        let readable = mask & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0;
        let writable = mask & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0;
        if self.conn_mut(idx).draining {
            if readable && !self.discard(idx) {
                return; // closed
            }
            return;
        }
        if readable && !self.read_burst(idx) {
            return; // closed
        }
        if writable {
            self.flush(idx);
            if self.slots[idx].conn.is_none() {
                return;
            }
        }
        self.service(idx);
    }

    /// Read up to [`READ_BURST`] bytes into the connection buffer.
    /// Returns `false` if the connection was closed.
    fn read_burst(&mut self, idx: usize) -> bool {
        let max_buffered = self.config.max_body + crate::http::MAX_HEAD + 8 * 1024;
        let mut chunk = [0u8; 16 * 1024];
        let mut read_total = 0usize;
        loop {
            let conn = self.conn_mut(idx);
            if conn.eof || conn.buf.len() >= max_buffered || read_total >= READ_BURST {
                break;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    conn.buf.extend_from_slice(&chunk[..n]);
                    read_total += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(idx);
                    return false;
                }
            }
        }
        true
    }

    /// Discard straggler bytes on a draining connection. Returns `false`
    /// if it reached EOF and was closed.
    fn discard(&mut self, idx: usize) -> bool {
        let mut sink = [0u8; 16 * 1024];
        let mut total = 0usize;
        loop {
            let conn = self.conn_mut(idx);
            match conn.stream.read(&mut sink) {
                Ok(0) => {
                    self.close(idx);
                    return false;
                }
                Ok(n) => {
                    total += n;
                    if total >= READ_BURST {
                        return true; // level-triggered epoll will re-arm
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(idx);
                    return false;
                }
            }
        }
    }

    /// Parse-and-route every complete request currently buffered, then
    /// flush; repeat while pipelined requests keep completing. Ends by
    /// settling the connection's interest mask and deadline.
    fn service(&mut self, idx: usize) {
        loop {
            let processed = self.pump(idx);
            if self.slots[idx].conn.is_none() {
                return;
            }
            self.flush(idx);
            if self.slots[idx].conn.is_none() {
                return;
            }
            let conn = self.conn_mut(idx);
            let out_pending = conn.out_pos < conn.out.len();
            if processed == 0 || out_pending || conn.close_after_write {
                break;
            }
        }
        self.finish_or_settle(idx);
    }

    /// Process buffered complete requests into queued responses. Returns
    /// how many requests were handled. May close the connection (partial
    /// request at EOF).
    fn pump(&mut self, idx: usize) -> usize {
        let max_body = self.config.max_body;
        let max_requests = self.config.max_requests_per_conn;
        let state = Arc::clone(&self.state);
        let mut processed = 0usize;
        loop {
            let conn = self.conn_mut(idx);
            if conn.poll.is_some() {
                // A parked long-poll must answer before anything
                // pipelined behind it; stop parsing until it resolves.
                break;
            }
            if conn.close_after_write || conn.out.len() - conn.out_pos > OUT_CAP {
                break;
            }
            match conn.parser.parse(&conn.buf, max_body) {
                Ok(None) => {
                    if conn.eof {
                        if conn.parser.mid_request() {
                            // Peer vanished mid-request: nothing to answer.
                            self.close(idx);
                            return processed;
                        }
                        conn.close_after_write = true;
                    }
                    break;
                }
                Ok(Some(parsed)) => {
                    conn.buf.drain(..parsed.consumed);
                    conn.parser.reset();
                    // Each request gets its own read deadline.
                    conn.deadline_kind = DeadlineKind::Invalid;
                    conn.served += 1;
                    let served = conn.served;
                    let eof = conn.eof;
                    let rid = self.next_rid();
                    let mut keep = parsed.keep_alive && !eof;
                    if max_requests > 0 && served >= max_requests {
                        keep = false;
                    }
                    if state.shutdown_requested() {
                        keep = false; // drain: every response says close
                    }
                    if let Some(park) = self.try_park_events_poll(&parsed.request, keep, &rid) {
                        let conn = self.conn_mut(idx);
                        conn.deadline = Instant::now() + park.1;
                        conn.deadline_kind = DeadlineKind::Poll;
                        conn.poll = Some(park.0);
                        break;
                    }
                    let journal_on = panda_obs::journal_enabled();
                    if journal_on {
                        // Every journal event emitted while routing this
                        // request carries its id.
                        panda_obs::set_request_id(Some(rid.clone()));
                    }
                    let t0 = Instant::now();
                    let (route, mut response) = route_safely(&state, &parsed.request);
                    let dur = t0.elapsed();
                    let st = status_label(response.status);
                    panda_obs::counter_add_labeled(
                        "serve.http.requests",
                        &[
                            ("route", route),
                            ("status", st),
                            ("shard", &self.shard_label),
                        ],
                        1,
                    );
                    panda_obs::hist_record_labeled(
                        "serve.http.latency",
                        &[("route", route), ("status", st)],
                        dur.as_nanos(),
                    );
                    if journal_on
                        && self.config.slow_request_ms > 0
                        && dur >= Duration::from_millis(self.config.slow_request_ms)
                    {
                        panda_obs::event("serve.slow")
                            .field("route", route)
                            .field("status", i64::from(response.status))
                            .field("dur_us", dur.as_micros() as u64)
                            .emit();
                    }
                    if journal_on {
                        panda_obs::set_request_id(None);
                    }
                    if state.shutdown_requested() {
                        // The handler may have flipped the latch just now
                        // (`POST /shutdown`): its own response must
                        // already announce the close.
                        keep = false;
                    }
                    response.request_id = Some(rid);
                    let conn = self.conn_mut(idx); // re-borrow after routing
                    conn.out.extend_from_slice(&response.to_bytes(keep));
                    if !keep {
                        conn.close_after_write = true;
                    }
                    processed += 1;
                }
                Err(e) => {
                    let (status, response) = match e {
                        ReadError::Malformed(msg) => {
                            panda_obs::counter_add("serve.bad_request_400", 1);
                            (400, error_response(400, "bad_request", &msg))
                        }
                        ReadError::TooLarge { limit } => {
                            panda_obs::counter_add("serve.body_cap_413", 1);
                            panda_obs::counter_add_labeled(
                                "serve.loop.body_cap_413",
                                &[("shard", &self.shard_label)],
                                1,
                            );
                            (
                                413,
                                error_response(
                                    413,
                                    "payload_too_large",
                                    &format!("request body exceeds the {limit}-byte cap"),
                                ),
                            )
                        }
                    };
                    panda_obs::counter_add_labeled(
                        "serve.http.requests",
                        &[
                            ("route", "<wire>"),
                            ("status", status_label(status)),
                            ("shard", &self.shard_label),
                        ],
                        1,
                    );
                    let mut response = response;
                    response.request_id = Some(self.next_rid());
                    let conn = self.conn_mut(idx);
                    conn.out.extend_from_slice(&response.to_bytes(false));
                    conn.close_after_write = true;
                    break;
                }
            }
        }
        processed
    }

    /// Decide whether a `GET /events` request should park as a
    /// long-poll instead of routing: the journal must be enabled, the
    /// cursor at or past the journal head (nothing to return yet), the
    /// server not draining, and the client's timeout non-zero. Returns
    /// the park state and its deadline duration.
    fn try_park_events_poll(
        &self,
        request: &crate::http::Request,
        keep: bool,
        rid: &str,
    ) -> Option<(PollWait, Duration)> {
        if request.method != "GET"
            || request.path != "/events"
            || !panda_obs::journal_enabled()
            || self.draining
            || self.state.shutdown_requested()
        {
            return None;
        }
        let since = router::events_since(request).ok()?;
        if panda_obs::journal_next_seq() > since {
            return None; // events already waiting: answer immediately
        }
        let timeout = match request.query_param("timeout_ms") {
            Some(raw) => Duration::from_millis(raw.parse::<u64>().ok()?),
            None => POLL_TIMEOUT_DEFAULT,
        };
        if timeout.is_zero() {
            return None; // explicit non-blocking poll
        }
        let poll = PollWait {
            since,
            max: router::events_max(request),
            keep,
            rid: rid.to_string(),
        };
        Some((poll, timeout.min(POLL_TIMEOUT_MAX)))
    }

    /// Answer every parked long-poll whose journal cursor has been
    /// passed (or that must resolve because the server is draining).
    /// Rides the event loop's ≤500ms epoll timeout — no threads, no
    /// wakeup plumbing; worst-case notification latency is the cap.
    fn resolve_pollers(&mut self) {
        let force = self.draining || self.state.shutdown_requested();
        let next_seq = panda_obs::journal_next_seq();
        let ready: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| {
                let poll = slot.conn.as_ref()?.poll.as_ref()?;
                (force || next_seq > poll.since).then_some(idx)
            })
            .collect();
        for idx in ready {
            self.finish_poll(idx);
        }
    }

    /// Resolve one parked long-poll: respond with whatever the journal
    /// holds past the cursor (possibly nothing, at the poll deadline)
    /// and resume normal request processing on the connection.
    fn finish_poll(&mut self, idx: usize) {
        let force_close = self.draining || self.state.shutdown_requested();
        let conn = self.conn_mut(idx);
        let Some(poll) = conn.poll.take() else {
            return;
        };
        let tail = panda_obs::journal_tail(poll.since, poll.max);
        let mut resp = Response::json(200, router::render_events_body(&tail));
        resp.request_id = Some(poll.rid);
        let keep = poll.keep && !force_close;
        panda_obs::counter_add_labeled(
            "serve.http.requests",
            &[
                ("route", "/events"),
                ("status", "200"),
                ("shard", &self.shard_label),
            ],
            1,
        );
        let conn = self.conn_mut(idx);
        conn.out.extend_from_slice(&resp.to_bytes(keep));
        if !keep {
            conn.close_after_write = true;
        }
        conn.deadline_kind = DeadlineKind::Invalid;
        // Flush, answer anything pipelined behind the poll, settle.
        self.service(idx);
    }

    /// Write queued response bytes until done or `WouldBlock`. May close
    /// the connection (peer gone).
    fn flush(&mut self, idx: usize) {
        loop {
            let conn = self.conn_mut(idx);
            if conn.out_pos >= conn.out.len() {
                conn.out.clear();
                conn.out_pos = 0;
                return;
            }
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    self.close(idx);
                    return;
                }
                Ok(n) => self.conn_mut(idx).out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(idx);
                    return;
                }
            }
        }
    }

    /// After I/O: either finish a close-after-write connection (enter
    /// the draining state, or close outright at EOF) or settle its
    /// deadline and interest mask.
    fn finish_or_settle(&mut self, idx: usize) {
        let conn = self.conn_mut(idx);
        let out_pending = conn.out_pos < conn.out.len();
        if !out_pending && conn.close_after_write {
            if conn.eof {
                self.close(idx);
                return;
            }
            // Half-close politely: FIN the write side, then discard any
            // unread request bytes until the peer closes (or the grace
            // deadline passes) so the response is never RST-clobbered.
            let _ = conn.stream.shutdown(std::net::Shutdown::Write);
            conn.draining = true;
            conn.deadline = Instant::now() + DRAIN_GRACE;
            conn.deadline_kind = DeadlineKind::Drain;
            self.set_interest(idx, EPOLLIN);
            return;
        }
        self.settle(idx);
    }

    /// Recompute the governing deadline and epoll interest mask.
    fn settle(&mut self, idx: usize) {
        let write_timeout = self.config.write_timeout;
        let read_timeout = self.config.read_timeout;
        let keep_alive_timeout = self.config.keep_alive_timeout;
        let conn = self.conn_mut(idx);
        let out_pending = conn.out_pos < conn.out.len();
        if conn.poll.is_some() {
            // Parked long-poll: its deadline stands (set at park time);
            // only the interest mask is recomputed, so earlier pipelined
            // responses still drain and peer reads are still seen.
            let want = if out_pending { EPOLLOUT } else { EPOLLIN };
            self.set_interest(idx, want);
            return;
        }
        let kind = if out_pending {
            DeadlineKind::Write
        } else if conn.parser.mid_request() || !conn.buf.is_empty() {
            DeadlineKind::Request
        } else {
            DeadlineKind::Idle
        };
        if kind != conn.deadline_kind {
            conn.deadline_kind = kind;
            conn.deadline = Instant::now()
                + match kind {
                    DeadlineKind::Write => write_timeout,
                    DeadlineKind::Request => read_timeout,
                    _ => keep_alive_timeout,
                };
        }
        // Backpressure: while a response is queued, stop reading — the
        // client gets more answers when it drains what it owes.
        let want = if out_pending { EPOLLOUT } else { EPOLLIN };
        if want == EPOLLOUT && conn.interest == EPOLLIN {
            // The socket's send buffer filled mid-response: the loop now
            // waits on writability for this connection.
            panda_obs::counter_add_labeled(
                "serve.loop.backpressure_stalls",
                &[("shard", &self.shard_label)],
                1,
            );
        }
        self.set_interest(idx, want);
    }

    fn set_interest(&mut self, idx: usize, want: u32) {
        let token = self.token(idx);
        let conn = self.conn_mut(idx);
        if conn.interest != want {
            conn.interest = want;
            let fd = conn.stream.as_raw_fd();
            if self.epoll.modify(fd, want, token).is_err() {
                self.close(idx);
            }
        }
    }

    /// Enforce per-state deadlines across all connections.
    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        for idx in 0..self.slots.len() {
            let Some(conn) = self.slots[idx].conn.as_ref() else {
                continue;
            };
            if now < conn.deadline {
                continue;
            }
            // Loop lag: how far past the deadline this pass observed it.
            // Persistently fat buckets mean the loop is starved (slow
            // handlers or oversized bursts), not that clients are slow.
            panda_obs::hist_record_labeled(
                "serve.loop.lag",
                &[("shard", &self.shard_label)],
                (now - conn.deadline).as_nanos(),
            );
            match conn.deadline_kind {
                DeadlineKind::Poll => self.finish_poll(idx),
                DeadlineKind::Request => {
                    // Slowloris eviction: the request never completed.
                    panda_obs::counter_add("serve.request_timeout_408", 1);
                    panda_obs::counter_add_labeled(
                        "serve.loop.timeouts_408",
                        &[("shard", &self.shard_label)],
                        1,
                    );
                    let rid = self.next_rid();
                    let mut resp = error_response(
                        408,
                        "request_timeout",
                        "request did not complete within the read deadline",
                    );
                    resp.request_id = Some(rid);
                    let conn = self.conn_mut(idx);
                    conn.out.extend_from_slice(&resp.to_bytes(false));
                    conn.close_after_write = true;
                    self.flush(idx);
                    if self.slots[idx].conn.is_some() {
                        self.finish_or_settle(idx);
                    }
                }
                // Idle keep-alive, stuck write, stuck drain: just close.
                _ => self.close(idx),
            }
        }
    }
}

impl Drop for EventLoop {
    fn drop(&mut self) {
        crate::signal::unregister_wake_fd(self.wake.write_fd());
    }
}

/// Route with panic isolation: a handler bug answers 500 and the worker
/// lives on. Returns the matched route pattern for metric labels.
fn route_safely(state: &AppState, request: &crate::http::Request) -> (&'static str, Response) {
    catch_unwind(AssertUnwindSafe(|| router::handle_routed(state, request))).unwrap_or_else(
        |payload| {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "handler panicked (non-string payload)".to_string()
            };
            panda_obs::counter_add("serve.handler_panics", 1);
            ("<panic>", error_response(500, "internal_error", &msg))
        },
    )
}

/// Status code as a low-cardinality metric label: the statuses the API
/// actually emits get their own series, anything else folds to a class.
fn status_label(status: u16) -> &'static str {
    match status {
        200 => "200",
        400 => "400",
        404 => "404",
        405 => "405",
        408 => "408",
        409 => "409",
        413 => "413",
        421 => "421",
        422 => "422",
        500 => "500",
        503 => "503",
        s if s < 300 => "2xx",
        s if s < 400 => "3xx",
        s if s < 500 => "4xx",
        _ => "5xx",
    }
}

fn error_response(status: u16, code: &str, message: &str) -> Response {
    Response::json(status, crate::api::ApiError::new(code, message).to_json())
}

/// A running server: its address, its shared state, and its threads.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<AppState>,
    workers: Vec<JoinHandle<()>>,
    repl_addr: Option<SocketAddr>,
    hub: Option<Arc<ReplHub>>,
    hub_thread: Option<JoinHandle<()>>,
    follower_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound replication listener address, when `repl_addr` was
    /// configured (resolves `:0` to the actual port).
    pub fn repl_addr(&self) -> Option<SocketAddr> {
        self.repl_addr
    }

    /// The shared state (embedding servers may pre-register sessions).
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Request a graceful drain (same effect as `POST /shutdown`).
    pub fn shutdown(&self) {
        self.state.request_shutdown();
    }

    /// Block until every worker has exited. Call after
    /// [`ServerHandle::shutdown`] (or let a client hit `/shutdown`).
    pub fn join(mut self) {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // HTTP plane drained — now the replication plane: everything
        // the workers acknowledged is already queued on the hub, so
        // `finish` ships the unreplicated tail to connected followers
        // (bounded by a grace deadline) before the hub exits.
        if let Some(hub) = self.hub.take() {
            hub.finish();
        }
        if let Some(t) = self.hub_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.follower_thread.take() {
            let _ = t.join();
        }
        // Compact every dirty session so the next start replays zero
        // WAL records.
        self.state.compact_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{self, Client};

    #[test]
    fn serves_health_and_drains_on_shutdown() {
        let handle = Server::start(ServerConfig {
            workers: 2,
            ..Default::default()
        })
        .unwrap();
        let addr = handle.addr();
        let reply = client::request(addr, "GET", "/healthz", "", None).unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.body, r#"{"status":"ok"}"#);

        // POST /shutdown over a keep-alive connection, then join must return.
        let mut conn = Client::connect(addr, None).unwrap();
        let client::Reply { head, body, .. } = conn.roundtrip("POST", "/shutdown", "").unwrap();
        assert!(body.contains("draining"));
        assert!(
            head.contains("Connection: close"),
            "drain responses must announce the close: {head}"
        );
        handle.join();
    }

    #[test]
    fn oversized_body_gets_413_and_garbage_gets_400() {
        let handle = Server::start(ServerConfig {
            workers: 1,
            max_body: 64,
            ..Default::default()
        })
        .unwrap();
        let addr = handle.addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "POST /sessions HTTP/1.1\r\nHost: t\r\nContent-Length: 9999\r\n\r\n"
        )
        .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 413"), "{raw}");
        assert!(raw.contains("payload_too_large"));

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"THIS IS NOT HTTP\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");

        handle.shutdown();
        handle.join();
    }

    #[test]
    fn ephemeral_port_is_shared_across_reuseport_shards() {
        // 4 shards on one `:0` bind: every request must land somewhere
        // that answers, whichever shard the kernel hashes it to.
        let handle = Server::start(ServerConfig {
            workers: 4,
            ..Default::default()
        })
        .unwrap();
        let addr = handle.addr();
        for _ in 0..16 {
            let reply = client::request(addr, "GET", "/healthz", "", None).unwrap();
            assert_eq!(reply.status, 200);
        }
        handle.shutdown();
        handle.join();
    }
}
