//! Shared server state: the session table, the durable store, capacity
//! management, and the shutdown latch.
//!
//! Sessions sit behind individual mutexes so requests against *different*
//! sessions proceed in parallel; the outer map lock is held only for
//! lookup/insert/remove/eviction bookkeeping. Lock order is always map →
//! session (the evictor only `try_lock`s victims while holding the map
//! lock, so it can never deadlock against a worker that holds a session
//! and wants the map). A poisoned session lock (an LF panicked while a
//! worker held it) is recovered — the session rolls back failed edits
//! itself, so its state stays coherent.
//!
//! Every session built from a create request carries an [`OpLog`]. With
//! a [`SessionStore`] attached the log owns the session's WAL, startup
//! replays the state directory, LRU entries beyond `max_sessions` are
//! **evicted to snapshot** (the entry stays in the map with `slot: None`
//! and transparently rehydrates on the next touch), and a TTL sweep
//! evicts idle sessions.

use crate::api::CreateSessionRequest;
use crate::persist::{self, OpLog, SessionStore, SnapshotFile, WalOp, WalRecord};
use crate::repl::{ReplHub, ReplMsg, SessionCursor, ShardRing};
use panda_session::PandaSession;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, TryLockError};
use std::time::{Duration, Instant};

/// Lock-free per-session replication metadata, shared between the slot
/// (writers: `log_op`, the follower apply loop) and the session-table
/// entry (reader: `GET /sessions`), so listings report `wal_seq` +
/// `matrix_digest` without taking session locks behind a long fit.
pub struct SlotMeta {
    wal_seq: AtomicU64,
    digest: AtomicU64,
}

impl SlotMeta {
    fn new(wal_seq: u64, digest: u64) -> Arc<SlotMeta> {
        Arc::new(SlotMeta {
            wal_seq: AtomicU64::new(wal_seq),
            digest: AtomicU64::new(digest),
        })
    }

    fn set(&self, wal_seq: u64, digest: u64) {
        self.wal_seq.store(wal_seq, Ordering::SeqCst);
        self.digest.store(digest, Ordering::SeqCst);
    }
}

/// The hub handle shared by every slot: set once by `Server::start`
/// when `--repl-addr` is configured, read on every logged op.
type HubCell = Arc<OnceLock<Arc<ReplHub>>>;

/// A live session plus its op log (absent only for request-less library
/// inserts, which are never persisted or replicated).
pub struct SessionSlot {
    /// The session itself.
    pub session: PandaSession,
    log: Option<OpLog>,
    meta: Arc<SlotMeta>,
    id: u64,
    hub: HubCell,
}

impl SessionSlot {
    /// Log an already-applied op (durably, when the log has a WAL),
    /// update the listing metadata, and ship the fsynced record to
    /// followers. Called before the response is acknowledged; an error
    /// must surface as a 500 so the client knows the edit is not durable.
    pub fn log_op(&mut self, op: WalOp) -> Result<(), String> {
        let Some(log) = &mut self.log else {
            // A request-less insert logs nothing, but its listing still
            // counts its ops.
            self.meta
                .set(self.wal_seq() + 1, self.session.matrix().digest());
            return Ok(());
        };
        let appended = log.append(op, &self.session)?;
        self.meta.set(appended.seq, appended.digest);
        if let (Some(line), Some(hub)) = (&appended.line, self.hub.get()) {
            hub.ship_record(self.id, line);
        }
        Ok(())
    }

    /// The highest acknowledged sequence number for this session.
    pub fn wal_seq(&self) -> u64 {
        self.meta.wal_seq.load(Ordering::SeqCst)
    }

    /// Build the full-state snapshot replication ships to a follower.
    /// `Ok(None)` for request-less library inserts — they cannot be
    /// replicated.
    pub(crate) fn sync_snapshot(&self) -> Result<Option<SnapshotFile>, String> {
        self.log
            .as_ref()
            .map(|log| log.snapshot_file(&self.session))
            .transpose()
    }

    /// The snapshot + WAL-tail parts `/rebalance` ships to the target
    /// shard.
    pub(crate) fn handoff_parts(&self) -> Result<(Option<SnapshotFile>, Vec<WalRecord>), String> {
        self.log
            .as_ref()
            .ok_or(
                "session has no replay recipe (library insert without a create request); \
                 it cannot be rebalanced",
            )?
            .handoff_parts(&self.session)
    }

    /// Apply one shipped WAL record through the same digest-verified
    /// rules crash recovery uses. `Ok(false)` = duplicate skipped.
    fn apply_replica_record(&mut self, rec: &WalRecord) -> Result<bool, String> {
        let log = self
            .log
            .as_mut()
            .ok_or("session is not a replica (no replay recipe)")?;
        let applied = log.replay(&mut self.session, rec)?;
        if applied {
            self.meta.set(rec.seq, rec.digest);
        }
        Ok(applied)
    }
}

/// How [`AppState::install`] treats the table entry it fills.
enum Install {
    /// A new entry, replacing any earlier one under the id.
    New,
    /// A new entry for a session rebuilt from disk at server startup.
    Recovered,
    /// Refill an evicted entry, keeping its flags; install nothing if the
    /// entry was deleted meanwhile.
    Rehydrated,
}

/// One session-table entry. `slot: None` means evicted-to-snapshot (or
/// quarantined, when the flag is set).
struct Entry {
    slot: Option<Arc<Mutex<SessionSlot>>>,
    last_touch: Instant,
    recovered: bool,
    quarantined: bool,
    meta: Arc<SlotMeta>,
}

/// A `GET /sessions` listing row, pre-wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionInfo {
    /// Session handle.
    pub id: u64,
    /// In memory right now (vs evicted to snapshot).
    pub live: bool,
    /// Rebuilt from disk at server startup.
    pub recovered: bool,
    /// Replication apply failed (digest mismatch / seq gap); reads are
    /// refused until a full resync replaces the session.
    pub quarantined: bool,
    /// Highest acknowledged WAL sequence number.
    pub wal_seq: u64,
    /// Label-matrix digest after the last acknowledged op.
    pub matrix_digest: u64,
}

/// Durability and capacity knobs for [`AppState::open`].
#[derive(Debug, Clone, Default)]
pub struct StateOptions {
    /// State directory; `None` runs fully in-memory.
    pub state_dir: Option<PathBuf>,
    /// Max sessions held in memory (0 = unbounded). Beyond it, LRU
    /// entries are evicted to snapshot (with a store) or dropped
    /// entirely (without one).
    pub max_sessions: usize,
    /// Idle time after which a session is evicted by [`AppState::sweep`].
    pub session_ttl: Option<Duration>,
    /// Appended WAL ops between snapshot compactions (0 = never).
    pub snapshot_every: u64,
    /// Start as a read-only follower (`panda serve --follow`): mutations
    /// answer 421 and state arrives over the replication link.
    pub follower: bool,
    /// Consistent-hash shard map (`--peers`); `None` = unsharded.
    pub ring: Option<ShardRing>,
}

/// Everything the worker threads share.
pub struct AppState {
    entries: Mutex<HashMap<u64, Entry>>,
    store: Option<SessionStore>,
    max_live: usize,
    ttl: Option<Duration>,
    /// Serializes rehydration so N concurrent touches of one evicted
    /// session replay it once, and the map lock stays free meanwhile.
    rehydrate_lock: Mutex<()>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    /// True while this server is a read-only follower; `POST /promote`
    /// clears it.
    follower: AtomicBool,
    /// The primary's HTTP address (learned from its `Hello` frame),
    /// quoted in 421 mutation rejections.
    primary_http: Mutex<Option<String>>,
    ring: Option<ShardRing>,
    hub: HubCell,
}

impl Default for AppState {
    fn default() -> Self {
        AppState::open(StateOptions::default()).expect("in-memory state cannot fail")
    }
}

fn lock_map(state: &AppState) -> MutexGuard<'_, HashMap<u64, Entry>> {
    state.entries.lock().unwrap_or_else(|e| e.into_inner())
}

impl AppState {
    /// Fresh in-memory state with no sessions and no durability.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open state with durability/capacity options. With a state dir,
    /// every persisted session is recovered (WAL-on-top-of-snapshot,
    /// digest-verified) before this returns; sessions that fail to
    /// recover are quarantined on disk and skipped with a counter + a
    /// stderr note, never served wrong.
    pub fn open(options: StateOptions) -> Result<Self, String> {
        let store = match &options.state_dir {
            Some(dir) => Some(SessionStore::open(dir, options.snapshot_every)?),
            None => None,
        };
        let state = AppState {
            entries: Mutex::new(HashMap::new()),
            store,
            max_live: options.max_sessions,
            ttl: options.session_ttl,
            rehydrate_lock: Mutex::new(()),
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            follower: AtomicBool::new(options.follower),
            primary_http: Mutex::new(None),
            ring: options.ring,
            hub: Arc::new(OnceLock::new()),
        };
        if let Some(store) = &state.store {
            let _span = panda_obs::span("serve.recover");
            let mut ids = store.scan();
            ids.sort_unstable();
            for id in ids {
                // Ids of sessions that fail to recover stay taken: their
                // directories are kept for inspection.
                state.next_id.fetch_max(id + 1, Ordering::Relaxed);
                match store.recover(id) {
                    Ok((session, log)) => {
                        state.install(id, session, Some(log), Install::Recovered);
                        panda_obs::counter_add("serve.sessions.recovered", 1);
                    }
                    Err(msg) => {
                        panda_obs::counter_add("serve.sessions.recovery_failed", 1);
                        eprintln!("panda-serve: session {id} not recovered ({msg}); its state dir is kept for inspection");
                    }
                }
            }
            // Published even when nothing was recovered, so a durable
            // server's `/metrics` carries the gauge from the start.
            publish_live_gauge(&lock_map(&state));
        }
        state.enforce_capacity(None);
        Ok(state)
    }

    /// Register a session created from a wire request; with a store the
    /// create record is durably logged before this returns. Returns the
    /// wire handle.
    pub fn create(
        &self,
        session: PandaSession,
        request: Option<&CreateSessionRequest>,
    ) -> Result<u64, String> {
        // With a shard map, only ids this shard owns are handed out, so
        // the same id can never be minted on two shards. The ring mixes
        // peers evenly, so the expected number of skipped ids is the
        // peer count — cheap, and ids stay unique-per-shard forever.
        let id = loop {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            match &self.ring {
                Some(ring) if !ring.owns(id) => continue,
                _ => break id,
            }
        };
        // Durable sessions log their create as seq 1; store-less ones
        // start at seq 0.
        let (log, shipped_create) = match (request, &self.store) {
            (Some(req), Some(store)) => {
                let (log, appended) = store.create(id, req, &session)?;
                (Some(log), appended.line)
            }
            (Some(req), None) => (Some(OpLog::new(req.clone())), None),
            (None, _) => (None, None),
        };
        self.install(id, session, log, Install::New);
        if let (Some(line), Some(hub)) = (shipped_create, self.hub.get()) {
            hub.ship_record(id, &line);
        }
        self.enforce_capacity(Some(id));
        Ok(id)
    }

    /// Register a session with no backing request (library/test use —
    /// such sessions are never persisted); returns its wire handle.
    pub fn insert(&self, session: PandaSession) -> u64 {
        self.create(session, None).expect("no store I/O involved")
    }

    /// Look up a session by handle, rehydrating it from its snapshot if
    /// it was evicted. Touches the LRU clock.
    pub fn get(&self, id: u64) -> Option<Arc<Mutex<SessionSlot>>> {
        match self.probe(id) {
            Probe::Live(slot) => return Some(slot),
            Probe::Missing => return None,
            Probe::Evicted => {}
        }
        // Rehydrate outside the map lock, serialized so concurrent
        // touches of the same evicted session load it once.
        let guard = self
            .rehydrate_lock
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        match self.probe(id) {
            Probe::Live(slot) => return Some(slot),
            Probe::Missing => return None,
            Probe::Evicted => {}
        }
        let store = self.store.as_ref()?;
        let _span = panda_obs::span("serve.session.rehydrate");
        match store.recover(id) {
            Ok((session, log)) => {
                let slot = self.install(id, session, Some(log), Install::Rehydrated)?;
                panda_obs::counter_add("serve.sessions.rehydrated", 1);
                drop(guard);
                self.enforce_capacity(Some(id));
                Some(slot)
            }
            Err(msg) => {
                panda_obs::counter_add("serve.sessions.recovery_failed", 1);
                eprintln!("panda-serve: session {id} failed to rehydrate: {msg}");
                None
            }
        }
    }

    /// Put a live session into the table under `id`: the one place a
    /// slot and its table entry are built. `None` only when a
    /// [`Install::Rehydrated`] finds its entry deleted.
    fn install(
        &self,
        id: u64,
        session: PandaSession,
        log: Option<OpLog>,
        how: Install,
    ) -> Option<Arc<Mutex<SessionSlot>>> {
        let meta = SlotMeta::new(
            log.as_ref().map_or(0, OpLog::seq),
            session.matrix().digest(),
        );
        let slot = Arc::new(Mutex::new(SessionSlot {
            session,
            log,
            meta: Arc::clone(&meta),
            id,
            hub: Arc::clone(&self.hub),
        }));
        self.next_id.fetch_max(id + 1, Ordering::Relaxed);
        let mut map = lock_map(self);
        let recovered = match how {
            Install::New => false,
            Install::Recovered => true,
            Install::Rehydrated => map.get(&id)?.recovered,
        };
        map.insert(
            id,
            Entry {
                slot: Some(Arc::clone(&slot)),
                last_touch: Instant::now(),
                recovered,
                quarantined: false,
                meta,
            },
        );
        // Gauge published under the map lock: a concurrent insert
        // cannot interleave between the mutation and the publish.
        publish_live_gauge(&map);
        Some(slot)
    }

    fn probe(&self, id: u64) -> Probe {
        let mut map = lock_map(self);
        match map.get_mut(&id) {
            None => Probe::Missing,
            Some(entry) => {
                entry.last_touch = Instant::now();
                match &entry.slot {
                    Some(slot) => Probe::Live(Arc::clone(slot)),
                    None => Probe::Evicted,
                }
            }
        }
    }

    /// Drop a session (memory and disk). Returns whether it existed.
    pub fn remove(&self, id: u64) -> bool {
        let existed = {
            let mut map = lock_map(self);
            let existed = map.remove(&id).is_some();
            publish_live_gauge(&map);
            existed
        };
        if existed {
            if let Some(store) = &self.store {
                store.delete(id);
            }
            if let Some(hub) = self.hub.get() {
                hub.ship_delete(id);
            }
        }
        existed
    }

    /// Number of known sessions (live + evicted).
    pub fn len(&self) -> usize {
        lock_map(self).len()
    }

    /// Whether no sessions are known.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of sessions currently held in memory.
    pub fn live_len(&self) -> usize {
        lock_map(self).values().filter(|e| e.slot.is_some()).count()
    }

    /// Listing rows for `GET /sessions`, sorted by id. Sequence numbers
    /// and digests come from the shared per-entry metadata, so a long
    /// fit holding a session lock never blocks the listing.
    pub fn list(&self) -> Vec<SessionInfo> {
        let map = lock_map(self);
        let mut rows: Vec<SessionInfo> = map
            .iter()
            .map(|(&id, e)| SessionInfo {
                id,
                live: e.slot.is_some(),
                recovered: e.recovered,
                quarantined: e.quarantined,
                wal_seq: e.meta.wal_seq.load(Ordering::SeqCst),
                matrix_digest: e.meta.digest.load(Ordering::SeqCst),
            })
            .collect();
        drop(map);
        rows.sort_by_key(|r| r.id);
        rows
    }

    /// Is this session known (live, evicted, or quarantined)? Does not
    /// touch the LRU clock — used by the shard misdirect check.
    pub fn contains(&self, id: u64) -> bool {
        lock_map(self).contains_key(&id)
    }

    /// Is this session quarantined (replication apply failed)?
    pub fn quarantined(&self, id: u64) -> bool {
        lock_map(self).get(&id).is_some_and(|e| e.quarantined)
    }

    /// Evict LRU live sessions down to the `max_sessions` bound. Victims
    /// whose lock is currently held by a worker are skipped (soft
    /// overshoot rather than deadlock); the next enforcement catches
    /// them. `exempt` protects the entry that triggered enforcement.
    fn enforce_capacity(&self, exempt: Option<u64>) {
        if self.max_live == 0 {
            return;
        }
        let mut map = lock_map(self);
        loop {
            let live = map.values().filter(|e| e.slot.is_some()).count();
            if live <= self.max_live {
                return;
            }
            let mut victims: Vec<(Instant, u64)> = map
                .iter()
                .filter(|(id, e)| e.slot.is_some() && Some(**id) != exempt)
                .map(|(&id, e)| (e.last_touch, id))
                .collect();
            victims.sort_unstable();
            let evicted_one = victims
                .iter()
                .any(|&(_, id)| self.evict_locked(&mut map, id));
            if !evicted_one {
                return; // everyone busy or un-evictable right now
            }
        }
    }

    /// Evict idle sessions past the TTL. Driven from shard 0's
    /// event-loop timer (~1s cadence).
    pub fn sweep(&self) {
        let Some(ttl) = self.ttl else {
            return;
        };
        let now = Instant::now();
        let mut map = lock_map(self);
        let stale: Vec<u64> = map
            .iter()
            .filter(|(_, e)| e.slot.is_some() && now.duration_since(e.last_touch) >= ttl)
            .map(|(&id, _)| id)
            .collect();
        for id in stale {
            self.evict_locked(&mut map, id);
        }
    }

    /// Evict one live entry while holding the map lock. With a store the
    /// session is snapshotted and the entry kept (rehydratable); without
    /// one the entry is dropped entirely. Returns whether it evicted.
    fn evict_locked(&self, map: &mut HashMap<u64, Entry>, id: u64) -> bool {
        let Some(entry) = map.get(&id) else {
            return false;
        };
        let Some(slot) = entry.slot.clone() else {
            return false;
        };
        let mut locked = match slot.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return false, // a worker is in it
        };
        if self.store.is_some() {
            let SessionSlot { session, log, .. } = &mut *locked;
            let Some(log) = log.as_mut() else {
                return false; // request-less session: nothing to rehydrate from
            };
            if let Err(msg) = log.write_snapshot(session) {
                panda_obs::counter_add("serve.sessions.evict_failed", 1);
                eprintln!("panda-serve: session {id} not evicted: {msg}");
                return false;
            }
            drop(locked);
            map.get_mut(&id).expect("entry present").slot = None;
        } else {
            drop(locked);
            map.remove(&id);
        }
        panda_obs::counter_add("serve.sessions.evicted", 1);
        if panda_obs::journal_enabled() {
            panda_obs::event("serve.session.evicted")
                .field("session", id)
                .field("rehydratable", self.store.is_some())
                .emit();
        }
        publish_live_gauge(map);
        true
    }

    /// Snapshot every live persisted session — graceful-shutdown path,
    /// so a later restart replays zero WAL records. Failures are logged,
    /// never fatal: the WAL already holds everything.
    pub fn compact_all(&self) {
        if self.store.is_none() {
            return;
        }
        let slots: Vec<(u64, Arc<Mutex<SessionSlot>>)> = {
            let map = lock_map(self);
            map.iter()
                .filter_map(|(&id, e)| e.slot.clone().map(|s| (id, s)))
                .collect()
        };
        for (id, slot) in slots {
            let mut locked = slot.lock().unwrap_or_else(|e| e.into_inner());
            let SessionSlot { session, log, .. } = &mut *locked;
            if let Some(log) = log.as_mut() {
                if log.wal_depth() == 0 {
                    continue; // already compact
                }
                if let Err(msg) = log.write_snapshot(session) {
                    eprintln!("panda-serve: final snapshot of session {id} failed: {msg}");
                }
            }
        }
    }

    /// Is this server currently a read-only follower?
    pub fn is_follower(&self) -> bool {
        self.follower.load(Ordering::SeqCst)
    }

    /// Flip a follower to primary (`POST /promote`). Returns whether the
    /// role actually changed. Wakes the parked apply loop so it exits;
    /// everything already applied stays — at most the in-flight record
    /// is lost.
    pub fn promote(&self) -> bool {
        let was_follower = self.follower.swap(false, Ordering::SeqCst);
        if was_follower {
            panda_obs::counter_add("repl.promotions", 1);
            crate::signal::wake_all();
        }
        was_follower
    }

    /// The primary's HTTP address (learned from its `Hello` frame).
    pub fn primary_http(&self) -> Option<String> {
        self.primary_http
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Record the primary's HTTP address for 421 redirects.
    pub fn set_primary_http(&self, addr: String) {
        *self.primary_http.lock().unwrap_or_else(|e| e.into_inner()) = Some(addr);
    }

    /// The consistent-hash shard map, when `--peers` was configured.
    pub fn ring(&self) -> Option<&ShardRing> {
        self.ring.as_ref()
    }

    /// Attach the replication hub (primary with `--repl-addr`). Called
    /// once at server start, before any request is accepted.
    pub fn set_hub(&self, hub: Arc<ReplHub>) {
        let _ = self.hub.set(hub);
    }

    /// The replication hub, when WAL shipping is active.
    pub fn hub(&self) -> Option<Arc<ReplHub>> {
        self.hub.get().cloned()
    }

    /// Per-session cursors for the subscribe handshake. Quarantined
    /// sessions are omitted, so the primary answers with a full sync
    /// that replaces the quarantined state wholesale.
    pub fn replica_cursors(&self) -> Vec<SessionCursor> {
        let map = lock_map(self);
        let mut cursors: Vec<SessionCursor> = map
            .iter()
            .filter(|(_, e)| !e.quarantined)
            .map(|(&id, e)| SessionCursor {
                session: id,
                seq: e.meta.wal_seq.load(Ordering::SeqCst),
            })
            .collect();
        drop(map);
        cursors.sort_by_key(|c| c.session);
        cursors
    }

    /// Serialized `Sync` frames for every replicable session a fresh
    /// subscriber is behind on (runs on the hub thread). Sessions whose
    /// cursor already matches are skipped — a reconnect after a clean
    /// link drop resyncs nothing.
    pub fn sync_frames(&self, cursors: &[SessionCursor]) -> Vec<String> {
        let by_id: HashMap<u64, u64> = cursors.iter().map(|c| (c.session, c.seq)).collect();
        let mut ids: Vec<u64> = {
            let map = lock_map(self);
            map.keys().copied().collect()
        };
        ids.sort_unstable();
        let mut frames = Vec::new();
        for id in ids {
            let Some(slot) = self.get(id) else { continue };
            let locked = slot.lock().unwrap_or_else(|e| e.into_inner());
            if by_id.get(&id).copied() == Some(locked.wal_seq()) {
                continue;
            }
            match locked.sync_snapshot() {
                Ok(Some(snapshot)) => {
                    if let Ok(frame) = serde_json::to_string(&ReplMsg::Sync {
                        session: id,
                        snapshot,
                    }) {
                        panda_obs::counter_add_labeled("repl.shipped", &[("kind", "sync")], 1);
                        frames.push(frame);
                    }
                }
                Ok(None) => {} // request-less library insert: not replicable
                Err(msg) => {
                    eprintln!("panda-serve: session {id} sync snapshot failed: {msg}");
                }
            }
        }
        frames
    }

    /// Apply one replication frame (follower side). Failures quarantine
    /// the affected session — they never crash the apply loop.
    pub fn apply_repl_frame(&self, msg: ReplMsg) {
        match msg {
            ReplMsg::Hello { http_addr } => self.set_primary_http(http_addr),
            ReplMsg::Sync { session, snapshot } => match persist::restore(snapshot) {
                Ok((replica, log)) => {
                    self.install(session, replica, Some(log), Install::New);
                    panda_obs::counter_add_labeled("repl.applied", &[("kind", "sync")], 1);
                }
                Err(msg) => self.quarantine(session, &msg),
            },
            ReplMsg::Record { session, record } => self.apply_replica_record(session, &record),
            ReplMsg::Delete { session } => {
                if self.remove_replica(session) {
                    panda_obs::counter_add_labeled("repl.applied", &[("kind", "delete")], 1);
                }
            }
            // Primary-bound frames; nothing to do on this side.
            ReplMsg::Subscribe { .. } | ReplMsg::Ack { .. } => {}
        }
    }

    /// Apply one shipped WAL record to the replica it belongs to.
    fn apply_replica_record(&self, id: u64, rec: &WalRecord) {
        let slot = {
            let map = lock_map(self);
            map.get(&id).and_then(|e| e.slot.clone())
        };
        match slot {
            Some(slot) => {
                let mut locked = slot.lock().unwrap_or_else(|e| e.into_inner());
                match locked.apply_replica_record(rec) {
                    Ok(true) => {
                        panda_obs::counter_add_labeled("repl.applied", &[("kind", "record")], 1);
                    }
                    Ok(false) => {} // duplicate already covered by a sync
                    Err(msg) => {
                        drop(locked);
                        self.quarantine(id, &msg);
                    }
                }
            }
            None => {
                if self.quarantined(id) {
                    return; // awaiting the resync that clears it
                }
                // Unknown session: only a create record is
                // self-contained; anything else is a gap.
                match persist::replay_create(rec) {
                    Ok((replica, log)) => {
                        self.install(id, replica, Some(log), Install::New);
                        panda_obs::counter_add_labeled("repl.applied", &[("kind", "record")], 1);
                    }
                    Err(msg) => self.quarantine(id, &msg),
                }
            }
        }
    }

    /// Quarantine a session after a failed replication apply: the slot
    /// is dropped, reads answer 409, and a later full sync replaces it.
    fn quarantine(&self, id: u64, msg: &str) {
        let reason = if msg.contains("digest") {
            "digest"
        } else if msg.contains("gap") {
            "gap"
        } else {
            "apply"
        };
        panda_obs::counter_add_labeled("repl.quarantines", &[("reason", reason)], 1);
        eprintln!("panda-serve: session {id} quarantined ({msg}); awaiting full resync");
        let mut map = lock_map(self);
        let entry = map.entry(id).or_insert_with(|| Entry {
            slot: None,
            last_touch: Instant::now(),
            recovered: false,
            quarantined: true,
            meta: SlotMeta::new(0, 0),
        });
        entry.slot = None;
        entry.quarantined = true;
        publish_live_gauge(&map);
        if panda_obs::journal_enabled() {
            panda_obs::event("repl.session.quarantined")
                .field("session", id)
                .emit();
        }
    }

    /// Remove a replicated session (shipped delete) — memory only, no
    /// store involvement and no onward shipping.
    fn remove_replica(&self, id: u64) -> bool {
        let mut map = lock_map(self);
        let existed = map.remove(&id).is_some();
        publish_live_gauge(&map);
        existed
    }

    /// Install a handed-off session on this shard (the receiving side
    /// of `/rebalance`). With a store the moved state is snapshotted
    /// durably before this returns, and the session is announced to
    /// this shard's own followers as a full sync.
    pub fn adopt_handoff(
        &self,
        id: u64,
        session: PandaSession,
        mut log: OpLog,
    ) -> Result<(), String> {
        if self.contains(id) {
            return Err(format!("session {id} already exists on this shard"));
        }
        if let Some(store) = &self.store {
            store.adopt(id, &mut log, &session)?;
        }
        let slot = self.install(id, session, Some(log), Install::New);
        panda_obs::counter_add_labeled("repl.rebalance_moves", &[("direction", "in")], 1);
        if let (Some(hub), Some(slot)) = (self.hub.get(), slot) {
            let locked = slot.lock().unwrap_or_else(|e| e.into_inner());
            if let Ok(Some(snapshot)) = locked.sync_snapshot() {
                if let Ok(frame) = serde_json::to_string(&ReplMsg::Sync {
                    session: id,
                    snapshot,
                }) {
                    hub.ship_sync_frame(frame);
                }
            }
        }
        self.enforce_capacity(Some(id));
        Ok(())
    }

    /// Ask the server to stop accepting and drain. Wakes every parked
    /// event loop so idle keep-alive connections are closed promptly
    /// instead of at the next timer tick.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        crate::signal::wake_all();
    }

    /// Has shutdown been requested (by `/shutdown` or a signal)?
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || crate::signal::sigterm_received()
    }
}

enum Probe {
    Live(Arc<Mutex<SessionSlot>>),
    Evicted,
    Missing,
}

fn publish_live_gauge(map: &HashMap<u64, Entry>) {
    let live = map.values().filter(|e| e.slot.is_some()).count();
    panda_obs::gauge_set("serve.sessions.live", live as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_session::SessionConfig;
    use panda_table::{Table, TablePair};

    fn tiny_session() -> PandaSession {
        let left = Table::from_csv_str("l", "id,name\n1,acme corp\n2,zeta llc", true).unwrap();
        let right = Table::from_csv_str("r", "id,name\n1,acme corporation", true).unwrap();
        PandaSession::load(
            TablePair::new(left, right),
            SessionConfig {
                auto_lfs: false,
                ..Default::default()
            },
        )
    }

    #[test]
    fn insert_get_remove_lifecycle() {
        let state = AppState::new();
        assert!(state.is_empty());
        let a = state.insert(tiny_session());
        let b = state.insert(tiny_session());
        assert_ne!(a, b);
        assert_eq!(state.len(), 2);
        assert!(state.get(a).is_some());
        assert!(state.get(999).is_none());
        assert!(state.remove(a));
        assert!(!state.remove(a));
        assert_eq!(state.len(), 1);
    }

    #[test]
    fn shutdown_latch() {
        let state = AppState::new();
        assert!(!state.shutdown_requested());
        state.request_shutdown();
        assert!(state.shutdown_requested());
    }

    #[test]
    fn capacity_without_store_drops_lru() {
        let state = AppState::open(StateOptions {
            max_sessions: 2,
            ..Default::default()
        })
        .unwrap();
        let a = state.insert(tiny_session());
        let b = state.insert(tiny_session());
        // Touch `a` so `b` becomes the LRU victim when `c` arrives.
        assert!(state.get(a).is_some());
        let c = state.insert(tiny_session());
        assert_eq!(state.live_len(), 2);
        assert!(state.get(b).is_none(), "LRU dropped without a store");
        assert!(state.get(a).is_some());
        assert!(state.get(c).is_some());
    }

    #[test]
    fn sweep_without_ttl_is_a_noop() {
        let state = AppState::new();
        state.insert(tiny_session());
        state.sweep();
        assert_eq!(state.live_len(), 1);
    }

    #[test]
    fn ttl_sweep_drops_idle_sessions() {
        let state = AppState::open(StateOptions {
            session_ttl: Some(Duration::from_millis(10)),
            ..Default::default()
        })
        .unwrap();
        let id = state.insert(tiny_session());
        std::thread::sleep(Duration::from_millis(25));
        state.sweep();
        assert!(state.get(id).is_none(), "idle session swept");
        assert!(state.is_empty());
    }
}
