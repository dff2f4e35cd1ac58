//! The session op log: one [`OpLog`] per session, with an optional
//! write-ahead log and compacted snapshots behind it.
//!
//! An op log holds the create request, the LF-spec map (LF name →
//! wire-spec JSON, the recipe that dehydrates the session) and the seq of
//! the last logged op. Durable primaries and sessions adopted on a
//! durable shard own a WAL; follower replicas, promoted followers and
//! sessions on a store-less server do not. Appending, replaying and
//! snapshotting run the same code either way.
//!
//! Layout under the state directory (`panda serve --state-dir`):
//!
//! ```text
//! <state-dir>/sessions/<id>/wal.jsonl      append-only op log
//! <state-dir>/sessions/<id>/snapshot.json  compacted state (optional)
//! ```
//!
//! **WAL.** Every acknowledged session-mutating request appends exactly
//! one JSONL [`WalRecord`] — create (with the full table CSVs + a config
//! digest), LF upsert/remove, fit, spot label — and fsyncs it *before*
//! the HTTP response is written (the fsync runs under the
//! `persist.wal.fsync` span, so `/metrics` exposes its latency histogram
//! for free). Records carry a monotonically increasing `seq` and the
//! [`panda_lf::LabelMatrix::digest`] taken **after** applying the op, so
//! replay can verify every step. A torn final line (crash mid-append) is
//! dropped: its op was never acknowledged. Corruption anywhere else is
//! an error — the session is quarantined instead of served wrong.
//!
//! **Snapshots.** Every `snapshot_every` appended ops the session is
//! dehydrated ([`panda_session::PandaSession::dehydrate`]) into
//! `snapshot.json` (tmp + fsync + rename, then directory fsync) and the
//! WAL is reset, bounding replay cost. Recovery loads the snapshot (if
//! any), verifies its config digest, rehydrates — which re-runs
//! deterministic blocking and checks the persisted matrix digest — then
//! replays WAL records with `seq > snapshot.last_seq` through the same
//! session methods the live server uses, re-verifying the digest after
//! each op.
//!
//! **Failure policy.** A WAL append failure surfaces as an error *before*
//! the response is acknowledged (the op stays applied in memory but the
//! client sees a 500 and must retry), and the WAL latches `broken` so
//! later mutating ops fail fast instead of silently running undurable.
//! Reads keep working.

use crate::api::{build_tables, CreateSessionRequest, LfSpec};
use panda_lf::BoxedLf;
use panda_session::{PandaSession, SessionState};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Bumped when the snapshot encoding changes incompatibly.
pub const SNAPSHOT_FORMAT: u64 = 1;
/// Default appended ops between snapshot compactions.
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 16;

const WAL_FILE: &str = "wal.jsonl";
const SNAPSHOT_FILE: &str = "snapshot.json";
const SNAPSHOT_TMP: &str = "snapshot.json.tmp";
const BROKEN_MSG: &str =
    "session store is in a failed state (an earlier WAL or snapshot write failed); \
     mutating operations are rejected to avoid silent durability loss";
const NO_WAL_MSG: &str = "session op log has no WAL";

/// One session-mutating operation, as logged.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WalOp {
    /// Session creation: the full request (CSVs, gold, config DTO) plus
    /// a digest of its canonical JSON, re-verified at replay.
    Create {
        /// The original `POST /sessions` body.
        request: CreateSessionRequest,
        /// [`config_digest`] of `request` at log time.
        config_digest: u64,
    },
    /// `POST /sessions/{id}/lfs` — the declarative spec is the replay
    /// recipe.
    UpsertLf {
        /// The wire LF spec.
        spec: LfSpec,
    },
    /// `DELETE /sessions/{id}/lfs/{name}`.
    RemoveLf {
        /// Registry name removed.
        name: String,
    },
    /// `POST /sessions/{id}/fit` (warm-started refit).
    Fit,
    /// `POST /sessions/{id}/labels` (user spot label).
    Label {
        /// Candidate index.
        candidate: u64,
        /// The user's verdict.
        is_match: bool,
    },
}

/// One WAL line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WalRecord {
    /// Monotonic per-session sequence number, starting at 1.
    pub seq: u64,
    /// [`panda_lf::LabelMatrix::digest`] **after** applying `op`.
    pub digest: u64,
    /// The operation.
    pub op: WalOp,
}

/// The compacted snapshot file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnapshotFile {
    /// [`SNAPSHOT_FORMAT`] at write time.
    pub format: u64,
    /// WAL records with `seq <=` this are folded into `state`.
    pub last_seq: u64,
    /// [`config_digest`] of `request`, re-verified at load.
    pub config_digest: u64,
    /// The original create request (tables are rebuilt from it).
    pub request: CreateSessionRequest,
    /// The dehydrated session.
    pub state: SessionState,
}

/// FNV-1a digest of the canonical JSON of a create request — covers the
/// CSVs, gold pairs, and config DTO, so recovery refuses to rebuild a
/// session from a request that doesn't match what was logged.
pub fn config_digest(request: &CreateSessionRequest) -> u64 {
    let json = serde_json::to_string(request).unwrap_or_default();
    let mut h: u64 = 0xcbf29ce484222325;
    for b in json.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Rebuild an LF from its persisted wire-spec JSON — the `build_spec`
/// hook [`panda_session::PandaSession::rehydrate`] needs.
pub fn build_from_spec(name: &str, spec_json: &str) -> Result<BoxedLf, String> {
    let spec: LfSpec = serde_json::from_str(spec_json)
        .map_err(|e| format!("LF {name:?}: bad persisted spec: {}", e.0))?;
    spec.build()
}

/// Metadata of one logged op. A primary ships `line` verbatim so
/// followers replay byte-identical records.
#[derive(Debug, Clone)]
pub struct Appended {
    /// The record's sequence number.
    pub seq: u64,
    /// Post-op matrix digest logged with the record.
    pub digest: u64,
    /// The fsynced JSONL line (no trailing newline); `None` when the log
    /// has no WAL, so nothing durable exists to ship.
    pub line: Option<String>,
}

/// A session's op log: the create request, the LF-spec map and the seq
/// of the last logged op, plus the session's WAL when it has one. All
/// calls happen under the session's mutex, so WAL writes and the
/// snapshot-then-truncate sequence are never concurrent.
pub struct OpLog {
    request: CreateSessionRequest,
    /// LF name → wire-spec JSON for every spec-backed LF currently
    /// registered — the dehydration recipe map.
    specs: HashMap<String, String>,
    seq: u64,
    wal: Option<Wal>,
}

impl OpLog {
    /// The log of a session just created from `request`, at seq 0 and
    /// without a WAL.
    pub(crate) fn new(request: CreateSessionRequest) -> OpLog {
        OpLog {
            request,
            specs: HashMap::new(),
            seq: 0,
            wal: None,
        }
    }

    /// Log one applied op: with a WAL, serialize, append and fsync it,
    /// then compact when the snapshot cadence is due. Must be called
    /// *after* the op was applied to `session` (the record carries the
    /// resulting matrix digest) and *before* the response is
    /// acknowledged.
    pub fn append(&mut self, op: WalOp, session: &PandaSession) -> Result<Appended, String> {
        let rec = WalRecord {
            seq: self.seq + 1,
            digest: session.matrix().digest(),
            op,
        };
        let line = match &mut self.wal {
            Some(wal) => {
                let line = serde_json::to_string(&rec).map_err(|e| e.0)?;
                wal.append(&line)?;
                Some(line)
            }
            None => None,
        };
        self.track(&rec)?;
        if self.wal.as_ref().is_some_and(Wal::compaction_due) {
            if let Err(msg) = self.write_snapshot(session) {
                // The record itself is already durable; a failed
                // compaction only costs replay time now and blocks
                // *future* appends fast via `broken`.
                eprintln!("panda-serve: snapshot compaction failed: {msg}");
            }
        }
        Ok(Appended {
            seq: rec.seq,
            digest: rec.digest,
            line,
        })
    }

    /// Apply one logged non-create record to `session` under the
    /// recovery rules: a record the log already holds is skipped
    /// (`Ok(false)`), a gap or a second create is an error, and the
    /// post-op matrix digest must match. Crash recovery, handoff
    /// rebuilds and the follower apply loop all run this.
    pub(crate) fn replay(
        &mut self,
        session: &mut PandaSession,
        rec: &WalRecord,
    ) -> Result<bool, String> {
        if rec.seq <= self.seq {
            return Ok(false);
        }
        if rec.seq != self.seq + 1 {
            return Err(format!("seq gap: record {} follows {}", rec.seq, self.seq));
        }
        if matches!(rec.op, WalOp::Create { .. }) {
            return Err(format!("duplicate create record at seq {}", rec.seq));
        }
        apply_op(session, &rec.op).map_err(|e| format!("WAL seq {}: {e}", rec.seq))?;
        check_digest(session, rec)?;
        self.track(rec)?;
        Ok(true)
    }

    /// Follow one applied record: the single place the spec map and the
    /// seq move, for appended and replayed ops alike.
    fn track(&mut self, rec: &WalRecord) -> Result<(), String> {
        match &rec.op {
            WalOp::UpsertLf { spec } => {
                let json = serde_json::to_string(spec).map_err(|e| e.0)?;
                self.specs.insert(spec.name.clone(), json);
            }
            WalOp::RemoveLf { name } => {
                self.specs.remove(name);
            }
            WalOp::Create { .. } | WalOp::Fit | WalOp::Label { .. } => {}
        }
        self.seq = rec.seq;
        Ok(())
    }

    /// Build (without writing) the snapshot of `session` at this log's
    /// seq — what compaction persists and what replication ships to a
    /// freshly subscribed follower.
    pub fn snapshot_file(&self, session: &PandaSession) -> Result<SnapshotFile, String> {
        let specs = &self.specs;
        let state = session.dehydrate(&|name| specs.get(name).cloned())?;
        Ok(SnapshotFile {
            format: SNAPSHOT_FORMAT,
            last_seq: self.seq,
            config_digest: config_digest(&self.request),
            request: self.request.clone(),
            state,
        })
    }

    /// Dehydrate the session into `snapshot.json` beside the WAL and
    /// reset the WAL. Used by the compaction cadence, LRU eviction,
    /// graceful shutdown and handoff adoption.
    pub fn write_snapshot(&mut self, session: &PandaSession) -> Result<(), String> {
        self.wal.as_ref().ok_or(NO_WAL_MSG)?.check()?;
        let _span = panda_obs::span("persist.snapshot.write");
        let json = serde_json::to_string(&self.snapshot_file(session)?).map_err(|e| e.0)?;
        self.wal.as_mut().ok_or(NO_WAL_MSG)?.compact(&json)
    }

    /// Read this log's on-disk snapshot and WAL records under the
    /// recovery rules. Runs under the session lock, so the files are
    /// quiescent.
    pub fn disk_parts(&self) -> Result<(Option<SnapshotFile>, Vec<WalRecord>), String> {
        read_parts(&self.wal.as_ref().ok_or(NO_WAL_MSG)?.dir)
    }

    /// The snapshot + WAL-tail parts `/rebalance` ships: the on-disk
    /// pair when the log has a WAL, else a fresh snapshot.
    pub(crate) fn handoff_parts(
        &self,
        session: &PandaSession,
    ) -> Result<(Option<SnapshotFile>, Vec<WalRecord>), String> {
        match &self.wal {
            Some(_) => self.disk_parts(),
            None => Ok((Some(self.snapshot_file(session)?), Vec::new())),
        }
    }

    /// Records appended since the last snapshot (replay cost on crash);
    /// 0 without a WAL.
    pub fn wal_depth(&self) -> u64 {
        self.wal.as_ref().map_or(0, |wal| wal.ops_since_snapshot)
    }

    /// Sequence number of the last logged op.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// A session's open WAL file plus the bookkeeping to compact it.
struct Wal {
    dir: PathBuf,
    file: File,
    ops_since_snapshot: u64,
    snapshot_every: u64,
    broken: bool,
}

impl Wal {
    fn check(&self) -> Result<(), String> {
        if self.broken {
            return Err(BROKEN_MSG.into());
        }
        Ok(())
    }

    fn compaction_due(&self) -> bool {
        self.snapshot_every > 0 && self.ops_since_snapshot >= self.snapshot_every
    }

    /// Append one serialized record and fsync it. A failure latches
    /// `broken`.
    fn append(&mut self, line: &str) -> Result<(), String> {
        self.check()?;
        let written = (|| -> std::io::Result<()> {
            self.file.write_all(line.as_bytes())?;
            self.file.write_all(b"\n")?;
            let _fsync = panda_obs::span("persist.wal.fsync");
            self.file.sync_data()
        })();
        if let Err(e) = written {
            self.broken = true;
            panda_obs::counter_add("persist.wal.append_failed", 1);
            return Err(format!("WAL append failed: {e}"));
        }
        self.ops_since_snapshot += 1;
        panda_obs::counter_add("persist.wal.appends", 1);
        Ok(())
    }

    /// Write `snapshot_json` as the snapshot (tmp + fsync + rename, then
    /// dir fsync) and reset the WAL. A failure latches `broken`.
    fn compact(&mut self, snapshot_json: &str) -> Result<(), String> {
        let tmp = self.dir.join(SNAPSHOT_TMP);
        let result = (|| -> std::io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(snapshot_json.as_bytes())?;
            f.sync_data()?;
            fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
            // Make the rename itself durable, then reset the WAL (safe
            // under the session lock — no append can interleave). A
            // crash between rename and reset leaves stale WAL records
            // with seq <= last_seq, which replay skips.
            File::open(&self.dir).and_then(|d| d.sync_all())?;
            self.file.set_len(0)?;
            self.file.seek(SeekFrom::Start(0))?;
            self.file.sync_data()
        })();
        match result {
            Ok(()) => {
                self.ops_since_snapshot = 0;
                panda_obs::counter_add("persist.snapshots.written", 1);
                Ok(())
            }
            Err(e) => {
                self.broken = true;
                Err(format!("snapshot write failed: {e}"))
            }
        }
    }
}

/// Replays a run of WAL records into a session and its op log: the
/// first record must be a create unless a snapshot seeded the replayer,
/// and every later one goes through [`OpLog::replay`].
#[derive(Default)]
pub struct Replayer {
    state: Option<(PandaSession, OpLog)>,
}

impl Replayer {
    /// An empty replayer: the first record must be a create.
    pub fn new() -> Replayer {
        Replayer::default()
    }

    /// Apply one record. `Ok(false)` means the record was skipped as a
    /// duplicate already covered by the seeded snapshot (crash between
    /// snapshot rename and WAL reset, or a replication resend); any gap,
    /// digest mismatch, or misplaced create is an error — the caller
    /// quarantines instead of serving wrong state.
    pub fn apply(&mut self, rec: &WalRecord) -> Result<bool, String> {
        match &mut self.state {
            Some((session, log)) => log.replay(session, rec),
            None => {
                self.state = Some(replay_create(rec)?);
                Ok(true)
            }
        }
    }
}

/// Rebuild a session and its op log from a snapshot: verifies the
/// format and the config digest, then rehydrates (which re-runs
/// deterministic blocking and checks the persisted matrix digest).
pub(crate) fn restore(snap: SnapshotFile) -> Result<(PandaSession, OpLog), String> {
    if snap.format != SNAPSHOT_FORMAT {
        return Err(format!(
            "snapshot format {} unsupported (expected {SNAPSHOT_FORMAT})",
            snap.format
        ));
    }
    if snap.config_digest != config_digest(&snap.request) {
        return Err("snapshot create-request digest mismatch".into());
    }
    let config = snap.request.config.clone().unwrap_or_default().resolve()?;
    let tables = build_tables(&snap.request)?;
    let session = PandaSession::rehydrate(tables, config, &snap.state, &build_from_spec)?;
    let specs = snap
        .state
        .lfs
        .iter()
        .filter_map(|lf| Some((lf.name.clone(), lf.spec.clone()?)))
        .collect();
    let log = OpLog {
        request: snap.request,
        specs,
        seq: snap.last_seq,
        wal: None,
    };
    Ok((session, log))
}

/// Rebuild a session and its op log from its create record alone.
pub(crate) fn replay_create(rec: &WalRecord) -> Result<(PandaSession, OpLog), String> {
    let WalOp::Create {
        request,
        config_digest: logged,
    } = &rec.op
    else {
        return Err(format!("WAL op at seq {} before create", rec.seq));
    };
    if rec.seq != 1 {
        return Err(format!("seq gap: record {} follows 0", rec.seq));
    }
    if *logged != config_digest(request) {
        return Err("create record digest mismatch".into());
    }
    let config = request.config.clone().unwrap_or_default().resolve()?;
    let tables = build_tables(request)?;
    let session = PandaSession::load(tables, config);
    check_digest(&session, rec)?;
    let mut log = OpLog::new(request.clone());
    log.track(rec)?;
    Ok((session, log))
}

/// Seed from `snapshot` when there is one, then apply `tail`. Yields the
/// rebuilt session and log (`None` when there is neither a snapshot nor
/// a create record) and the number of records applied.
fn replay_parts(
    snapshot: Option<SnapshotFile>,
    tail: &[WalRecord],
) -> Result<(Option<(PandaSession, OpLog)>, u64), String> {
    let mut replayer = Replayer {
        state: snapshot.map(restore).transpose()?,
    };
    let mut applied = 0;
    for rec in tail {
        if replayer.apply(rec)? {
            applied += 1;
        }
    }
    Ok((replayer.state, applied))
}

/// Rebuild a session from handed-off parts (optional snapshot + WAL
/// tail), enforcing the same gap and digest rules as recovery. Strict:
/// an out-of-order or digest-mismatched record is an error — the
/// receiving shard refuses the handoff rather than installing a wrong
/// session.
pub fn rebuild(
    snapshot: Option<SnapshotFile>,
    tail: &[WalRecord],
) -> Result<(PandaSession, OpLog), String> {
    replay_parts(snapshot, tail)?
        .0
        .ok_or_else(|| "handoff carries no snapshot and no create record".into())
}

fn check_digest(session: &PandaSession, rec: &WalRecord) -> Result<(), String> {
    let got = session.matrix().digest();
    if got != rec.digest {
        return Err(format!(
            "matrix digest mismatch at WAL seq {}: logged {:#018x}, replayed {got:#018x}",
            rec.seq, rec.digest
        ));
    }
    Ok(())
}

/// Replay one non-create op through the same session methods the live
/// router uses.
fn apply_op(session: &mut PandaSession, op: &WalOp) -> Result<(), String> {
    match op {
        WalOp::UpsertLf { spec } => session.upsert_lf_incremental(spec.build()?)?,
        WalOp::RemoveLf { name } => {
            session.remove_lf_incremental(name);
        }
        WalOp::Fit => session.fit(),
        WalOp::Label {
            candidate,
            is_match,
        } => {
            let i = *candidate as usize;
            if i >= session.candidates().len() {
                return Err(format!("label index {i} out of range"));
            }
            session.label_pair(i, *is_match);
        }
        WalOp::Create { .. } => return Err("unexpected nested create".into()),
    }
    Ok(())
}

/// Read a session directory's snapshot and WAL records: the one reader
/// behind crash recovery and handoff. A torn final WAL line (a crash
/// mid-append, never acknowledged — possibly cut inside a multi-byte
/// character) is dropped and counted; any other undecodable line, or a
/// seq gap inside the file, is an error.
fn read_parts(dir: &Path) -> Result<(Option<SnapshotFile>, Vec<WalRecord>), String> {
    let snap_path = dir.join(SNAPSHOT_FILE);
    let snapshot = if snap_path.exists() {
        let text = fs::read_to_string(&snap_path)
            .map_err(|e| format!("read {}: {e}", snap_path.display()))?;
        Some(serde_json::from_str(&text).map_err(|e| format!("snapshot: {}", e.0))?)
    } else {
        None
    };
    let wal_path = dir.join(WAL_FILE);
    let mut records: Vec<WalRecord> = Vec::new();
    if wal_path.exists() {
        let bytes = fs::read(&wal_path).map_err(|e| format!("read {}: {e}", wal_path.display()))?;
        let lines: Vec<&[u8]> = bytes
            .strip_suffix(b"\n")
            .unwrap_or(&bytes)
            .split(|&b| b == b'\n')
            .collect();
        for (i, line) in lines.iter().enumerate() {
            let parsed = match std::str::from_utf8(line) {
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => serde_json::from_str::<WalRecord>(text).map_err(|e| e.0),
                Err(e) => Err(e.to_string()),
            };
            let rec = match parsed {
                Ok(rec) => rec,
                Err(_) if i + 1 == lines.len() => {
                    panda_obs::counter_add("persist.wal.torn_tail", 1);
                    break;
                }
                Err(e) => return Err(format!("WAL line {}: {e}", i + 1)),
            };
            // In-file contiguity: even records the snapshot already
            // covers must be gap-free, or the log is corrupt.
            if let Some(prev) = records.last() {
                if rec.seq != prev.seq + 1 {
                    return Err(format!("WAL gap: record {} follows {}", rec.seq, prev.seq));
                }
            }
            records.push(rec);
        }
    }
    Ok((snapshot, records))
}

/// The on-disk store: owns the state directory and gives op logs their
/// WALs.
#[derive(Debug, Clone)]
pub struct SessionStore {
    sessions_dir: PathBuf,
    snapshot_every: u64,
}

impl SessionStore {
    /// Open (creating if needed) a state directory.
    pub fn open(dir: &Path, snapshot_every: u64) -> Result<SessionStore, String> {
        let sessions_dir = dir.join("sessions");
        fs::create_dir_all(&sessions_dir)
            .map_err(|e| format!("cannot create state dir {}: {e}", sessions_dir.display()))?;
        Ok(SessionStore {
            sessions_dir,
            snapshot_every,
        })
    }

    /// Session ids present on disk (unordered).
    pub fn scan(&self) -> Vec<u64> {
        let Ok(entries) = fs::read_dir(&self.sessions_dir) else {
            return Vec::new();
        };
        entries
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_dir())
            .filter_map(|e| e.file_name().to_str().and_then(|s| s.parse().ok()))
            .collect()
    }

    fn session_dir(&self, id: u64) -> PathBuf {
        self.sessions_dir.join(id.to_string())
    }

    /// Remove a session's on-disk state (`DELETE /sessions/{id}`).
    pub fn delete(&self, id: u64) {
        let _ = fs::remove_dir_all(self.session_dir(id));
    }

    /// Start logging a freshly created session to a fresh WAL: the
    /// create record is fsynced before this returns, and returned too so
    /// a primary can ship it to followers.
    pub fn create(
        &self,
        id: u64,
        request: &CreateSessionRequest,
        session: &PandaSession,
    ) -> Result<(OpLog, Appended), String> {
        let mut log = OpLog::new(request.clone());
        self.attach_wal(id, &mut log, true, 0)?;
        let appended = log.append(
            WalOp::Create {
                request: request.clone(),
                config_digest: config_digest(request),
            },
            session,
        )?;
        Ok((log, appended))
    }

    /// Give a handed-off session's log a fresh WAL under this store,
    /// positioned at the log's seq, and snapshot it at once, so the
    /// moved state is durable before the handoff is acknowledged.
    pub fn adopt(&self, id: u64, log: &mut OpLog, session: &PandaSession) -> Result<(), String> {
        self.attach_wal(id, log, true, 0)?;
        log.write_snapshot(session)
    }

    /// Rebuild a session from disk: snapshot (verified) + WAL replay
    /// (digest-verified per record), with the WAL reopened to append
    /// after the last replayed record. Errors quarantine the session —
    /// its directory is left untouched for inspection.
    pub fn recover(&self, id: u64) -> Result<(PandaSession, OpLog), String> {
        let _span = panda_obs::span("persist.session.recover");
        let (snapshot, tail) = read_parts(&self.session_dir(id))?;
        let (rebuilt, replayed) = replay_parts(snapshot, &tail)?;
        let (session, mut log) =
            rebuilt.ok_or("no snapshot and no create record — nothing to recover")?;
        self.attach_wal(id, &mut log, false, replayed)?;
        Ok((session, log))
    }

    /// Open session `id`'s WAL for appending (emptied first when
    /// `fresh`) and hand it to `log`.
    fn attach_wal(
        &self,
        id: u64,
        log: &mut OpLog,
        fresh: bool,
        ops_since_snapshot: u64,
    ) -> Result<(), String> {
        let dir = self.session_dir(id);
        fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(WAL_FILE);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|f| {
                if fresh {
                    f.set_len(0).map(|()| f)
                } else {
                    Ok(f)
                }
            })
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        log.wal = Some(Wal {
            dir,
            file,
            ops_since_snapshot,
            snapshot_every: self.snapshot_every,
            broken: false,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_digest_is_stable_and_sensitive() {
        let req = CreateSessionRequest {
            left_csv: "id,name\n1,a".into(),
            right_csv: "id,name\n1,b".into(),
            gold: None,
            config: None,
        };
        assert_eq!(config_digest(&req), config_digest(&req.clone()));
        let mut other = req.clone();
        other.left_csv.push_str("\n2,c");
        assert_ne!(config_digest(&req), config_digest(&other));
    }

    #[test]
    fn build_from_spec_round_trips_wire_specs() {
        let spec = LfSpec {
            name: "name_overlap".into(),
            kind: "similarity".into(),
            attr: Some("name".into()),
            upper: Some(0.7),
            ..Default::default()
        };
        let json = serde_json::to_string(&spec).unwrap();
        let lf = build_from_spec("name_overlap", &json).unwrap();
        assert_eq!(lf.name(), "name_overlap");
        assert!(build_from_spec("x", "{not json").is_err());
    }
}
