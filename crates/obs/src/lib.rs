//! Lightweight observability: spans, counters, gauges, and a structured
//! run journal (std-only, zero external dependencies).
//!
//! Every hot path in the workspace reports *what it did* through this
//! crate — how long each stage took ([`span`]), how many items it
//! processed ([`counter_add`]), point-in-time measurements
//! ([`gauge_set`]), the same split by labels ([`hist_record_labeled`],
//! [`counter_add_labeled`], [`gauge_set_labeled`] /
//! [`gauge_add_labeled`]), and, when the journal is on, a
//! stream of structured provenance events ([`event`]) that records what
//! happened *during* the run (per-EM-iteration state, auto-LF grid
//! decisions, per-LF disagreement structure). The design constraints,
//! in order:
//!
//! 1. **True no-op when disabled.** Both recording layers are gated on
//!    one `AtomicU8` bitmask; every recording call starts with a single
//!    relaxed load and returns immediately when its bit is off. Hot
//!    loops never pay more than that load (verified against the
//!    `p2_autolf_grid` bench), and callers that would need to `format!`
//!    a dynamic name or compute a diagnostic (e.g. a log-likelihood)
//!    must guard on [`enabled`] / [`journal_enabled`] so the disabled
//!    path allocates and computes nothing.
//! 2. **Thread-safe aggregation.** Recording happens from the worker
//!    threads of `panda-exec` sections. Aggregates and the journal live
//!    behind plain `Mutex`es — instrumentation sites are per-stage or
//!    per-decision, not per-item, so lock traffic is negligible next to
//!    the work being measured. The journal is *bounded*
//!    ([`set_journal_capacity`]): a runaway loop fills it up and
//!    increments a drop counter instead of exhausting memory.
//! 3. **Machine- and human-readable exports.** [`snapshot`] freezes the
//!    aggregate registry into a [`Snapshot`] that serializes to JSON
//!    ([`Snapshot::to_json`]) for the CLI's `--metrics` flag and the
//!    bench trajectory, and renders as a text report
//!    ([`Snapshot::render`]) for `PANDA_LOG=summary|spans`.
//!    [`journal_drain`] hands the event stream to the CLI's `--journal`
//!    flag, which frames it as JSONL (one [`Event`] object per line,
//!    see [`Event::to_json_line`]) for `panda report` and offline
//!    triage.
//!
//! # Metric naming convention
//!
//! Every registered name — span, counter, gauge, and journal event kind
//! alike — is **dotted lower-case**: `<crate>.<stage>[.<variant>]`,
//! where each `.`-separated segment matches `[a-z0-9_]+` and there are
//! at least two segments. The first segment names the owning subsystem
//! (`exec`, `text`, `blocking`, `autolf`, `lf`, `model`, `session`),
//! the second the stage or object (`score_grid`, `matrix`, `panda`),
//! and further segments narrow to a variant (`em_iters.smoothed`).
//! [`is_valid_metric_name`] checks conformance; the workspace
//! integration test asserts it over every name a full pipeline run
//! registers, so misnamed metrics fail CI instead of polluting
//! dashboards.
//!
//! The registry is process-global: a session's stages (blocking, auto-LF
//! grid, matrix apply, EM fits) all land in one snapshot, keyed by
//! dotted names (`"autolf.score_grid"`, `"model.panda.em_iters.snorkel"`).
//! It is one map per kind — histograms (spans), counters, gauges — from
//! a name to that family's series, each keyed by its sorted label set;
//! an unlabelled metric is the series with the empty label set. Call
//! [`reset`] between runs that must not share aggregates — it also
//! clears the journal.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

pub mod prom;

/// Environment variable selecting the end-of-run report
/// (`summary` or `spans`). Any other value (or unset) means no report.
pub const LOG_ENV: &str = "PANDA_LOG";

/// Bit 0 of [`FLAGS`]: aggregate metrics (spans/counters/gauges) on.
const METRICS_BIT: u8 = 1;
/// Bit 1 of [`FLAGS`]: the structured event journal on.
const JOURNAL_BIT: u8 = 2;

/// One atomic carries both switches so the fully-disabled fast path —
/// the only path benchmarks ever see — is a single relaxed load.
static FLAGS: AtomicU8 = AtomicU8::new(0);

/// One series' identity inside a family: `(key, value)` pairs, sorted
/// by key (the recording APIs normalize, so `[("a","1"),("b","2")]` and
/// `[("b","2"),("a","1")]` are the same series). The empty set is the
/// family's unlabelled series.
pub type LabelSet = Vec<(String, String)>;

/// Every family of one metric kind: name → label set → value.
type Families<T> = BTreeMap<String, BTreeMap<LabelSet, T>>;

/// The aggregate registry. Each kind has its own map, so one name may be
/// a histogram, a counter and a gauge at once.
#[derive(Clone)]
struct Registry {
    hists: Families<SpanStats>,
    counters: Families<u64>,
    gauges: Families<f64>,
}

impl Registry {
    const fn new() -> Self {
        Registry {
            hists: BTreeMap::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
        }
    }
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry::new());

/// Normalize a call-site label slice into the canonical sorted form.
fn label_set(labels: &[(&str, &str)]) -> LabelSet {
    let mut set: LabelSet = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    set.sort();
    set
}

/// Apply `f` to the series `name{labels}` of the kind `kind` selects,
/// creating the series at its default value. The label set is built
/// before the lock is taken and, when the series exists, freed after it
/// is released.
fn update<T: Default>(
    kind: fn(&mut Registry) -> &mut Families<T>,
    name: &str,
    labels: &[(&str, &str)],
    f: impl FnOnce(&mut T),
) {
    let set = label_set(labels);
    let mut registry = lock(&REGISTRY);
    let families = kind(&mut registry);
    if let Some(series) = families
        .get_mut(name)
        .and_then(|family| family.get_mut(&set))
    {
        return f(series);
    }
    f(families
        .entry(name.to_string())
        .or_default()
        .entry(set)
        .or_default());
}

/// Recover the map even if a panic unwound through a recording call
/// (poisoning would otherwise turn one quarantined LF panic into a
/// process-wide metrics outage).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[inline]
fn flags() -> u8 {
    FLAGS.load(Ordering::Relaxed)
}

/// Turn aggregate metric recording on or off process-wide.
pub fn set_enabled(on: bool) {
    if on {
        FLAGS.fetch_or(METRICS_BIT, Ordering::SeqCst);
    } else {
        FLAGS.fetch_and(!METRICS_BIT, Ordering::SeqCst);
    }
}

/// Is aggregate metric recording currently on? Callers building dynamic
/// metric names (`format!`) must check this first so the disabled path
/// stays allocation-free.
#[inline]
pub fn enabled() -> bool {
    flags() & METRICS_BIT != 0
}

/// Turn the structured event journal on or off process-wide. The first
/// enable pins the journal epoch: event timestamps ([`Event::ts_us`])
/// count microseconds from that moment.
pub fn set_journal_enabled(on: bool) {
    if on {
        let mut j = lock(&JOURNAL);
        if j.epoch.is_none() {
            j.epoch = Some(Instant::now());
        }
        drop(j);
        FLAGS.fetch_or(JOURNAL_BIT, Ordering::SeqCst);
    } else {
        FLAGS.fetch_and(!JOURNAL_BIT, Ordering::SeqCst);
    }
}

/// Is the event journal currently on? Callers computing journal-only
/// diagnostics (log-likelihoods, per-cell summaries) must check this
/// first so the disabled path computes nothing.
#[inline]
pub fn journal_enabled() -> bool {
    flags() & JOURNAL_BIT != 0
}

/// Wipe every aggregate (spans, counters, gauges) AND the journal
/// (events, drop counter, sequence numbers). The enabled flags are left
/// as-is. Call between runs that must not share state — e.g. at the top
/// of each experiment binary, so back-to-back invocations in one
/// process cannot bleed into each other's `<id>.metrics.json`.
pub fn reset() {
    *lock(&REGISTRY) = Registry::new();
    let mut j = lock(&JOURNAL);
    j.events.clear();
    j.dropped = 0;
    j.next_seq = 0;
    j.epoch = None;
}

/// Check a metric/event name against the workspace convention:
/// `<crate>.<stage>[.<variant>]` — two or more non-empty
/// `.`-separated segments of `[a-z0-9_]+`.
pub fn is_valid_metric_name(name: &str) -> bool {
    let mut segments = 0usize;
    for seg in name.split('.') {
        if seg.is_empty()
            || !seg
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        {
            return false;
        }
        segments += 1;
    }
    segments >= 2
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Number of log₂ duration buckets per span histogram. Bucket `b` counts
/// runs with `ns ∈ [2^b, 2^(b+1))` (bucket 0 also holds 0 ns; the last
/// bucket holds everything ≥ 2^31 ns ≈ 2.1 s).
pub const HIST_BUCKETS: usize = 32;

/// The log₂ bucket index of a duration.
#[inline]
fn hist_bucket(ns: u128) -> usize {
    if ns == 0 {
        0
    } else {
        ((127 - ns.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Aggregated wall-time statistics of one named span.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpanStats {
    /// How many times the span ran.
    pub count: u64,
    /// Total wall time across runs, nanoseconds.
    pub total_ns: u128,
    /// Fastest single run, nanoseconds.
    pub min_ns: u128,
    /// Slowest single run, nanoseconds.
    pub max_ns: u128,
    /// Log₂-bucketed duration histogram: `hist[b]` counts runs with
    /// `ns ∈ [2^b, 2^(b+1))`. Together with min/max this shows the
    /// *shape* of a span's timing (bimodal cache hit/miss, one slow
    /// outlier vs uniformly slow) that aggregates alone hide.
    pub hist: [u64; HIST_BUCKETS],
}

impl SpanStats {
    /// Add one observation of `ns`, binned by the log₂ rule every
    /// histogram in the registry uses (see [`HIST_BUCKETS`]).
    pub fn record(&mut self, ns: u128) {
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.total_ns += ns;
        self.hist[hist_bucket(ns)] += 1;
    }

    /// Render the histogram as a sparkline over the occupied bucket
    /// range (`▁`–`█` scaled to the largest bucket), or an empty string
    /// for an empty histogram.
    pub fn sparkline(&self) -> String {
        sparkline(&self.hist)
    }
}

/// Sparkline over the non-empty range of a bucket vector.
pub fn sparkline(buckets: &[u64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let Some(first) = buckets.iter().position(|&c| c > 0) else {
        return String::new();
    };
    let last = buckets.iter().rposition(|&c| c > 0).unwrap_or(first);
    let peak = buckets[first..=last].iter().copied().max().unwrap_or(1);
    buckets[first..=last]
        .iter()
        .map(|&c| {
            if c == 0 {
                ' '
            } else {
                // Non-empty buckets always render at least `▁`.
                let level = (c * 8).div_ceil(peak).clamp(1, 8) as usize;
                BLOCKS[level - 1]
            }
        })
        .collect()
}

thread_local! {
    /// The stack of open journal span ids on this thread; the top is the
    /// parent of any span or event created next. Worker threads start
    /// with an empty stack, so their events parent to the root (id 0).
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Journal span ids, process-wide and never reused (0 = "no span").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// A scoped timer: created by [`span`], records its wall time into the
/// global registry on drop. When metrics are disabled the guard holds no
/// clock reading and drop does nothing. When the journal is on, the
/// guard also owns a span id (pushed on a thread-local parent stack) and
/// emits a `span` event with its name, duration, id, and parent id on
/// drop — the raw material `panda report` rebuilds the span tree from.
#[must_use = "a span records on drop; binding it to `_` drops immediately"]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
    /// Record into the aggregate registry on drop?
    metrics: bool,
    /// `(id, parent id)` when the journal was on at creation.
    journal: Option<(u64, u64)>,
}

impl Span {
    /// End the span explicitly (identical to dropping it).
    pub fn end(self) {}

    /// This span's journal id (0 when the journal is off).
    pub fn id(&self) -> u64 {
        self.journal.map(|(id, _)| id).unwrap_or(0)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let ns = start.elapsed().as_nanos();
        if self.metrics {
            update(|r| &mut r.hists, self.name, &[], |s| s.record(ns));
        }
        if let Some((id, parent)) = self.journal {
            SPAN_STACK.with(|s| {
                let mut s = s.borrow_mut();
                // Pop our own id; a panic unwinding through nested spans
                // drops them innermost-first, so the top is ours.
                if s.last() == Some(&id) {
                    s.pop();
                }
            });
            push_event(Event {
                seq: 0,
                ts_us: 0,
                kind: "span".to_string(),
                span: id,
                parent,
                fields: vec![
                    ("name".to_string(), FieldValue::from(self.name)),
                    ("dur_ns".to_string(), FieldValue::U64(ns as u64)),
                ],
            });
        }
    }
}

/// Start a scoped timer. `let _span = obs::span("stage.name");` — the
/// elapsed wall time is aggregated under `name` when the guard drops.
#[inline]
pub fn span(name: &'static str) -> Span {
    let f = flags();
    if f == 0 {
        return Span {
            name,
            start: None,
            metrics: false,
            journal: None,
        };
    }
    let journal = (f & JOURNAL_BIT != 0).then(|| {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        (id, parent)
    });
    Span {
        name,
        start: Some(Instant::now()),
        metrics: f & METRICS_BIT != 0,
        journal,
    }
}

// ---------------------------------------------------------------------------
// Counters, gauges and labelled series
// ---------------------------------------------------------------------------
//
// A family is one dotted name; its series are keyed by sorted
// `(key, value)` label sets. Label *keys* come from a small fixed
// vocabulary at each call site (`route`, `status`, `shard`); label
// *values* must be low-cardinality — route patterns, status codes, shard
// indices — never raw paths, session ids, or user input, or the registry
// becomes an unbounded memory leak. An empty label slice addresses the
// family's unlabelled series, the one the unlabelled calls and span
// guards record to; every `*_labeled` call site passes at least one
// label. Disabled, every call is one relaxed load.

/// Add `delta` to the monotonic counter `name`. No-op when disabled.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    counter_add_labeled(name, &[], delta);
}

/// Set the gauge `name` to `value` (last write wins). No-op when
/// disabled.
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    gauge_set_labeled(name, &[], value);
}

/// Add `delta` to the labeled counter series `name{labels}`. No-op when
/// disabled.
#[inline]
pub fn counter_add_labeled(name: &str, labels: &[(&str, &str)], delta: u64) {
    if enabled() {
        update(|r| &mut r.counters, name, labels, |v| *v += delta);
    }
}

/// Set the labeled gauge series `name{labels}` (last write wins). No-op
/// when disabled.
#[inline]
pub fn gauge_set_labeled(name: &str, labels: &[(&str, &str)], value: f64) {
    if enabled() {
        update(|r| &mut r.gauges, name, labels, |v| *v = value);
    }
}

/// Add `delta` to the labeled gauge series `name{labels}` (accumulating
/// float measurements, e.g. open connections per shard). No-op when
/// disabled.
#[inline]
pub fn gauge_add_labeled(name: &str, labels: &[(&str, &str)], delta: f64) {
    if enabled() {
        update(|r| &mut r.gauges, name, labels, |v| *v += delta);
    }
}

/// Record one observation into the labeled log₂ histogram series
/// `name{labels}`. The value is conventionally nanoseconds (latency
/// series), but any magnitude works — e.g. requests-served-per-connection
/// for the keep-alive reuse histogram. No-op when disabled.
#[inline]
pub fn hist_record_labeled(name: &str, labels: &[(&str, &str)], value: u128) {
    if enabled() {
        update(|r| &mut r.hists, name, labels, |s| s.record(value));
    }
}

// ---------------------------------------------------------------------------
// The event journal
// ---------------------------------------------------------------------------

/// Default journal bound: generous for real runs (a full pipeline run
/// emits a few thousand events) while capping a runaway loop's memory.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1 << 18;

/// One typed event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Boolean.
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer.
    U64(u64),
    /// Floating point (serialized as `null` when non-finite).
    F64(f64),
    /// String.
    Str(String),
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One structured journal event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotonic sequence number (process-wide order of emission; gaps
    /// mean events were dropped at the capacity bound).
    pub seq: u64,
    /// Microseconds since the journal epoch (first
    /// [`set_journal_enabled`]`(true)`).
    pub ts_us: u64,
    /// Event kind, dotted lower-case (`model.em.iter`, `autolf.cell`,
    /// `span`).
    pub kind: String,
    /// For `span` events: this span's id. 0 otherwise.
    pub span: u64,
    /// The enclosing span's id on the emitting thread (0 = root).
    pub parent: u64,
    /// Typed key-value payload, in emission order.
    pub fields: Vec<(String, FieldValue)>,
}

impl Event {
    /// Fetch a field by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Serialize as one JSONL line (no trailing newline):
    ///
    /// ```json
    /// {"seq":3,"ts_us":1042,"kind":"span","span":7,"parent":2,"fields":{"name":"autolf.select","dur_ns":81920}}
    /// ```
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str(&format!(
            "{{\"seq\":{},\"ts_us\":{},\"kind\":",
            self.seq, self.ts_us
        ));
        escape_json(&self.kind, &mut out);
        out.push_str(&format!(
            ",\"span\":{},\"parent\":{},\"fields\":{{",
            self.span, self.parent
        ));
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_json(k, &mut out);
            out.push(':');
            match v {
                FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                FieldValue::I64(x) => out.push_str(&x.to_string()),
                FieldValue::U64(x) => out.push_str(&x.to_string()),
                FieldValue::F64(x) => out.push_str(&json_f64(*x)),
                FieldValue::Str(s) => escape_json(s, &mut out),
            }
        }
        out.push_str("}}");
        out
    }
}

/// The journal is a **drop-oldest ring**: at the capacity bound the
/// oldest buffered event is evicted (and counted in `dropped`) to make
/// room for the new one. A long-running server therefore always holds
/// the *most recent* window of events — exactly what a live tail
/// ([`journal_tail`]) and post-incident triage want — and sequence
/// numbers keep counting, so a reader can tell how much history it
/// missed.
struct JournalBuf {
    events: VecDeque<Event>,
    dropped: u64,
    capacity: usize,
    next_seq: u64,
    epoch: Option<Instant>,
}

static JOURNAL: Mutex<JournalBuf> = Mutex::new(JournalBuf {
    events: VecDeque::new(),
    dropped: 0,
    capacity: DEFAULT_JOURNAL_CAPACITY,
    next_seq: 0,
    epoch: None,
});

thread_local! {
    /// The request id stamped onto every journal event emitted on this
    /// thread (as a trailing `rid` field) while set. The serve event
    /// loop sets it around routing so a response's `X-Request-Id` links
    /// to every event its handler emitted.
    static REQUEST_ID: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Stamp journal events emitted on this thread with `rid` (pass `None`
/// to clear). Callers should guard on [`journal_enabled`] — the stamp
/// only affects journal events.
pub fn set_request_id(rid: Option<String>) {
    REQUEST_ID.with(|r| *r.borrow_mut() = rid);
}

fn push_event(mut e: Event) {
    REQUEST_ID.with(|r| {
        if let Some(rid) = r.borrow().as_deref() {
            e.fields
                .push(("rid".to_string(), FieldValue::Str(rid.to_string())));
        }
    });
    let mut j = lock(&JOURNAL);
    e.seq = j.next_seq;
    j.next_seq += 1;
    e.ts_us = j.epoch.map(|t| t.elapsed().as_micros() as u64).unwrap_or(0);
    if j.capacity == 0 {
        j.dropped += 1;
        return;
    }
    while j.events.len() >= j.capacity {
        j.events.pop_front();
        j.dropped += 1;
    }
    j.events.push_back(e);
}

/// Builder for one journal event. Obtained from [`event`]; a no-op shell
/// when the journal is off, so call sites pay one relaxed load and
/// nothing else on the disabled path (don't compute expensive field
/// values without guarding on [`journal_enabled`] first).
#[must_use = "an event is only recorded when .emit() is called"]
pub struct EventBuilder {
    inner: Option<Event>,
}

impl EventBuilder {
    /// Attach a typed field.
    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        if let Some(e) = &mut self.inner {
            e.fields.push((key.to_string(), value.into()));
        }
        self
    }

    /// Record the event (assigns its sequence number and timestamp).
    pub fn emit(self) {
        if let Some(e) = self.inner {
            push_event(e);
        }
    }
}

/// Start building a journal event of the given kind. The enclosing span
/// on the current thread becomes its parent. No-op when the journal is
/// off.
#[inline]
pub fn event(kind: &'static str) -> EventBuilder {
    if !journal_enabled() {
        return EventBuilder { inner: None };
    }
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    EventBuilder {
        inner: Some(Event {
            seq: 0,
            ts_us: 0,
            kind: kind.to_string(),
            span: 0,
            parent,
            fields: Vec::new(),
        }),
    }
}

/// Everything [`journal_drain`] hands back.
#[derive(Debug, Default)]
pub struct JournalDump {
    /// The recorded events, in sequence order.
    pub events: Vec<Event>,
    /// Events discarded at the capacity bound since the last drain.
    pub dropped: u64,
}

impl JournalDump {
    /// Frame the dump as JSONL: one event object per line. A final
    /// `journal.dropped` meta line is appended when events were lost at
    /// the capacity bound, so readers can tell a complete journal from a
    /// truncated one.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96);
        for e in &self.events {
            out.push_str(&e.to_json_line());
            out.push('\n');
        }
        if self.dropped > 0 {
            let seq = self.events.last().map(|e| e.seq + 1).unwrap_or(0);
            out.push_str(&format!(
                "{{\"seq\":{seq},\"ts_us\":0,\"kind\":\"journal.dropped\",\"span\":0,\"parent\":0,\"fields\":{{\"dropped\":{}}}}}\n",
                self.dropped
            ));
        }
        out
    }
}

/// Take all recorded events out of the journal (and reset the drop
/// counter). Sequence numbers keep counting across drains.
pub fn journal_drain() -> JournalDump {
    let mut j = lock(&JOURNAL);
    JournalDump {
        events: std::mem::take(&mut j.events).into_iter().collect(),
        dropped: std::mem::take(&mut j.dropped),
    }
}

/// Number of events currently buffered.
pub fn journal_len() -> usize {
    lock(&JOURNAL).events.len()
}

/// The sequence number the *next* event will get. A cheap "anything new
/// past my cursor?" probe for live tails: `journal_next_seq() > since`
/// iff [`journal_tail`]`(since, ..)` would return events.
pub fn journal_next_seq() -> u64 {
    lock(&JOURNAL).next_seq
}

/// A non-destructive read of the journal from a client cursor — the
/// payload behind the server's `GET /events?since=<seq>` live tail.
#[derive(Debug, Default)]
pub struct JournalTail {
    /// Buffered events with `seq >= since`, oldest first, at most `max`.
    pub events: Vec<Event>,
    /// The resume cursor: pass this as the next `since` for no gaps and
    /// no duplicates (it is one past the last returned event, or the
    /// current head when nothing matched).
    pub next: u64,
    /// Events with `seq >= since` that were already evicted from the
    /// ring before this read (the client's cursor fell behind the
    /// drop-oldest bound). 0 means the tail is gap-free.
    pub missed: u64,
}

/// Copy out up to `max` events with `seq >= since`, without disturbing
/// the journal (drains and tails can interleave; a tail never resets the
/// drop counter). See [`JournalTail`] for the cursor contract.
pub fn journal_tail(since: u64, max: usize) -> JournalTail {
    let j = lock(&JOURNAL);
    let oldest = j.events.front().map(|e| e.seq).unwrap_or(j.next_seq);
    let missed = oldest
        .saturating_sub(since)
        .min(j.next_seq.saturating_sub(since));
    // The ring holds the contiguous range [oldest, next_seq): index the
    // cursor directly instead of scanning.
    let skip = since.saturating_sub(oldest) as usize;
    let events: Vec<Event> = j.events.iter().skip(skip).take(max).cloned().collect();
    let next = match events.last() {
        Some(last) => last.seq + 1,
        None => j.next_seq.max(since),
    };
    JournalTail {
        events,
        next,
        missed,
    }
}

/// Bound the journal ring (the oldest event is evicted — and counted as
/// dropped — when a push would exceed the bound).
pub fn set_journal_capacity(capacity: usize) {
    let mut j = lock(&JOURNAL);
    j.capacity = capacity;
    while j.events.len() > capacity {
        j.events.pop_front();
        j.dropped += 1;
    }
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// A frozen copy of the registry, for export. Maps are `BTreeMap`s so
/// JSON key order (and therefore diffs of snapshots) is deterministic.
/// The first three fields hold each family's unlabelled series, the
/// `labeled_*` fields its labelled ones.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Aggregated span timings by name.
    pub spans: BTreeMap<String, SpanStats>,
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Labeled counter families: name → series (sorted label set → value).
    pub labeled_counters: BTreeMap<String, BTreeMap<LabelSet, u64>>,
    /// Labeled gauge families.
    pub labeled_gauges: BTreeMap<String, BTreeMap<LabelSet, f64>>,
    /// Labeled log₂ histogram families.
    pub labeled_hists: BTreeMap<String, BTreeMap<LabelSet, SpanStats>>,
}

/// Freeze the current registry contents into a [`Snapshot`].
pub fn snapshot() -> Snapshot {
    let Registry {
        hists,
        counters,
        gauges,
    } = lock(&REGISTRY).clone();
    let (spans, labeled_hists) = split(hists);
    let (counters, labeled_counters) = split(counters);
    let (gauges, labeled_gauges) = split(gauges);
    Snapshot {
        spans,
        counters,
        gauges,
        labeled_counters,
        labeled_gauges,
        labeled_hists,
    }
}

/// Split one kind's families into the unlabelled series by name and the
/// families that have labelled series (without their unlabelled one).
fn split<T>(families: Families<T>) -> (BTreeMap<String, T>, Families<T>) {
    let mut unlabelled = BTreeMap::new();
    let mut labelled = BTreeMap::new();
    for (name, mut family) in families {
        if let Some(v) = family.remove(&LabelSet::new()) {
            unlabelled.insert(name.clone(), v);
        }
        if !family.is_empty() {
            labelled.insert(name, family);
        }
    }
    (unlabelled, labelled)
}

fn escape_json(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Render a sorted label set as a JSON object (`{"route": "/x", ...}`).
fn labels_json(labels: &[(String, String)], out: &mut String) {
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        escape_json(k, out);
        out.push_str(": ");
        escape_json(v, out);
    }
    out.push('}');
}

/// One JSON section: `"<name>": <value>` per entry, one per line in name
/// order, or `{}` when empty.
fn json_object<T>(entries: &BTreeMap<String, T>, value: impl Fn(&T) -> String) -> String {
    if entries.is_empty() {
        return "{}".to_string();
    }
    let mut out = String::from("{");
    for (i, (name, v)) in entries.iter().enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        escape_json(name, &mut out);
        out.push_str(": ");
        out.push_str(&value(v));
    }
    out.push_str("\n  }");
    out
}

/// A labelled family: `[{"labels": {...}, <fields>}, ...]` in label-set
/// order.
fn family_json<T>(family: &BTreeMap<LabelSet, T>, fields: impl Fn(&T) -> String) -> String {
    let mut out = String::from("[");
    for (i, (labels, v)) in family.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"labels\": ");
        labels_json(labels, &mut out);
        out.push_str(", ");
        out.push_str(&fields(v));
        out.push('}');
    }
    out.push(']');
    out
}

/// A histogram's fields: count, total/min/max ns and the occupied
/// `[bucket, count]` pairs.
fn stats_json(s: &SpanStats) -> String {
    let hist: Vec<String> = s
        .hist
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(b, c)| format!("[{b}, {c}]"))
        .collect();
    format!(
        "\"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"hist\": [{}]",
        s.count,
        s.total_ns,
        s.min_ns,
        s.max_ns,
        hist.join(", ")
    )
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Bare integers are valid JSON numbers, but keep floats obvious.
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        // JSON has no NaN/Inf; null is the conventional stand-in.
        "null".to_string()
    }
}

impl Snapshot {
    /// Serialize to a JSON object:
    ///
    /// ```json
    /// {
    ///   "spans":    { "<name>": { "count": N, "total_ns": N,
    ///                             "min_ns": N, "max_ns": N,
    ///                             "hist": [[bucket, count], ...] }, ... },
    ///   "counters": { "<name>": N, ... },
    ///   "gauges":   { "<name>": X, ... },
    ///   "labeled_counters": { "<name>": [{ "labels": { "<key>": "<value>", ... },
    ///                                      "value": N }, ...], ... },
    ///   "labeled_gauges":   { "<name>": [{ "labels": {...}, "value": X }, ...], ... },
    ///   "labeled_hists":    { "<name>": [{ "labels": {...}, "count": N, "total_ns": N,
    ///                                      "min_ns": N, "max_ns": N,
    ///                                      "hist": [[bucket, count], ...] }, ...], ... }
    /// }
    /// ```
    ///
    /// Durations are integer nanoseconds; `hist` is the sparse log₂
    /// duration histogram (`bucket` b counts runs in `[2^b, 2^(b+1))`
    /// ns; empty buckets are omitted); gauges are JSON numbers (or
    /// `null` for non-finite values). A family's unlabelled series sits
    /// in the first three sections, its labelled series in the
    /// `labeled_*` ones. Names and label sets appear in sorted order.
    pub fn to_json(&self) -> String {
        let value = |v: String| format!("\"value\": {v}");
        let sections = [
            (
                "spans",
                json_object(&self.spans, |s| format!("{{{}}}", stats_json(s))),
            ),
            ("counters", json_object(&self.counters, u64::to_string)),
            ("gauges", json_object(&self.gauges, |v| json_f64(*v))),
            (
                "labeled_counters",
                json_object(&self.labeled_counters, |f| {
                    family_json(f, |v| value(v.to_string()))
                }),
            ),
            (
                "labeled_gauges",
                json_object(&self.labeled_gauges, |f| {
                    family_json(f, |v| value(json_f64(*v)))
                }),
            ),
            (
                "labeled_hists",
                json_object(&self.labeled_hists, |f| family_json(f, stats_json)),
            ),
        ];
        let mut out = String::with_capacity(1024);
        out.push('{');
        for (i, (title, body)) in sections.iter().enumerate() {
            out.push_str(if i == 0 { "\n  \"" } else { ",\n  \"" });
            out.push_str(title);
            out.push_str("\": ");
            out.push_str(body);
        }
        out.push_str("\n}\n");
        out
    }

    /// Render this snapshot in the Prometheus text exposition format
    /// (version 0.0.4). See [`prom::render`] for the mapping.
    pub fn to_prometheus(&self) -> String {
        prom::render(self)
    }

    /// Render a human-readable report. [`LogMode::Summary`] prints
    /// counters, gauges, and each span's count + total; [`LogMode::Spans`]
    /// adds per-span min/mean/max columns and a duration-histogram
    /// sparkline.
    pub fn render(&self, mode: LogMode) -> String {
        let mut out = String::new();
        if mode == LogMode::Off {
            return out;
        }
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            let wide = self.spans.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, s) in &self.spans {
                let total_ms = s.total_ns as f64 / 1e6;
                match mode {
                    LogMode::Spans => {
                        let mean_ms = total_ms / s.count.max(1) as f64;
                        out.push_str(&format!(
                            "  {name:<wide$}  n={:<6} total={:>10.3}ms  min={:>9.3}ms  mean={:>9.3}ms  max={:>9.3}ms  {}\n",
                            s.count,
                            total_ms,
                            s.min_ns as f64 / 1e6,
                            mean_ms,
                            s.max_ns as f64 / 1e6,
                            s.sparkline(),
                        ));
                    }
                    _ => {
                        out.push_str(&format!(
                            "  {name:<wide$}  n={:<6} total={:>10.3}ms\n",
                            s.count, total_ms
                        ));
                    }
                }
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            let wide = self.counters.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<wide$}  {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            let wide = self.gauges.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, v) in &self.gauges {
                out.push_str(&format!("  {name:<wide$}  {v:.6}\n"));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// PANDA_LOG
// ---------------------------------------------------------------------------

/// The end-of-run report style requested via `PANDA_LOG`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogMode {
    /// No report.
    Off,
    /// Counters, gauges, and span counts/totals.
    Summary,
    /// Everything in `Summary` plus per-span min/mean/max.
    Spans,
}

/// Parse `PANDA_LOG` (read on every call — cheap, and tests can vary
/// it). Unknown values mean [`LogMode::Off`].
pub fn log_mode() -> LogMode {
    match std::env::var(LOG_ENV).as_deref() {
        Ok("summary") => LogMode::Summary,
        Ok("spans") => LogMode::Spans,
        _ => LogMode::Off,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; tests that assert exact contents
    /// serialize on this and reset() first.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn all_off() {
        set_enabled(false);
        set_journal_enabled(false);
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = lock(&TEST_LOCK);
        all_off();
        reset();
        {
            let _s = span("off.stage");
        }
        counter_add("off.count", 5);
        gauge_set("off.gauge", 1.0);
        gauge_add_labeled("off.gauge", &[], 1.0);
        hist_record_labeled("off.manual", &[], 1000);
        event("off.event").field("x", 1u64).emit();
        let snap = snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert_eq!(journal_len(), 0);
    }

    #[test]
    fn spans_aggregate_count_total_min_max_hist() {
        let _g = lock(&TEST_LOCK);
        set_enabled(true);
        reset();
        hist_record_labeled("stage.a", &[], 100);
        hist_record_labeled("stage.a", &[], 300);
        hist_record_labeled("stage.a", &[], 200);
        {
            let _s = span("stage.b"); // real timer: nonzero elapsed
        }
        let snap = snapshot();
        all_off();
        let a = &snap.spans["stage.a"];
        assert_eq!(a.count, 3);
        assert_eq!(a.total_ns, 600);
        assert_eq!(a.min_ns, 100);
        assert_eq!(a.max_ns, 300);
        // 100 → bucket 6 ([64,128)), 200 → 7, 300 → 8.
        assert_eq!(a.hist[6], 1);
        assert_eq!(a.hist[7], 1);
        assert_eq!(a.hist[8], 1);
        assert_eq!(a.hist.iter().sum::<u64>(), 3);
        assert!(!a.sparkline().is_empty());
        let b = &snap.spans["stage.b"];
        assert_eq!(b.count, 1);
        assert!(b.total_ns > 0);
        assert_eq!(b.min_ns, b.max_ns);
        assert_eq!(b.hist.iter().sum::<u64>(), 1);
    }

    #[test]
    fn hist_bucket_boundaries() {
        assert_eq!(hist_bucket(0), 0);
        assert_eq!(hist_bucket(1), 0);
        assert_eq!(hist_bucket(2), 1);
        assert_eq!(hist_bucket(3), 1);
        assert_eq!(hist_bucket(4), 2);
        assert_eq!(hist_bucket(1 << 31), HIST_BUCKETS - 1);
        assert_eq!(hist_bucket(u128::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let _g = lock(&TEST_LOCK);
        set_enabled(true);
        reset();
        counter_add("c.items", 3);
        counter_add("c.items", 4);
        gauge_set("g.last", 1.5);
        gauge_set("g.last", 2.5);
        gauge_add_labeled("g.sum", &[], 1.0);
        gauge_add_labeled("g.sum", &[], 0.25);
        let snap = snapshot();
        all_off();
        assert_eq!(snap.counters["c.items"], 7);
        assert_eq!(snap.gauges["g.last"], 2.5);
        assert_eq!(snap.gauges["g.sum"], 1.25);
    }

    #[test]
    fn recording_is_thread_safe() {
        let _g = lock(&TEST_LOCK);
        set_enabled(true);
        set_journal_enabled(true);
        reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        counter_add("t.hits", 1);
                        hist_record_labeled("t.span", &[], 10);
                        event("t.event").field("n", 1u64).emit();
                    }
                });
            }
        });
        let snap = snapshot();
        let dump = journal_drain();
        all_off();
        assert_eq!(snap.counters["t.hits"], 4000);
        assert_eq!(snap.spans["t.span"].count, 4000);
        assert_eq!(snap.spans["t.span"].total_ns, 40_000);
        assert_eq!(dump.events.len(), 4000);
        // Sequence numbers are unique and strictly increasing.
        for w in dump.events.windows(2) {
            assert!(w[1].seq > w[0].seq);
        }
    }

    #[test]
    fn json_shape_and_escaping() {
        let _g = lock(&TEST_LOCK);
        set_enabled(true);
        reset();
        hist_record_labeled("stage.grid", &[], 1_000_000);
        counter_add("em.iters", 42);
        gauge_set("score \"q\"", 0.5);
        gauge_set("bad", f64::NAN);
        let json = snapshot().to_json();
        all_off();
        assert!(json.contains("\"spans\""));
        assert!(json.contains("\"stage.grid\": {\"count\": 1, \"total_ns\": 1000000"));
        // 1_000_000 ns → bucket 19 ([2^19, 2^20)).
        assert!(json.contains("\"hist\": [[19, 1]]"), "{json}");
        assert!(json.contains("\"em.iters\": 42"));
        assert!(json.contains("\"score \\\"q\\\"\": 0.5"));
        assert!(json.contains("\"bad\": null"));
        // Balanced braces — the cheapest structural sanity check without
        // pulling a parser into a zero-dependency crate (the workspace
        // integration test round-trips it through serde_json).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }

    #[test]
    fn empty_snapshot_is_valid_json() {
        let snap = Snapshot::default();
        let json = snap.to_json();
        assert!(json.contains("\"spans\": {}"));
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"gauges\": {}"));
    }

    #[test]
    fn render_modes() {
        let mut snap = Snapshot::default();
        snap.spans.insert(
            "stage.x".into(),
            SpanStats {
                count: 2,
                total_ns: 3_000_000,
                min_ns: 1_000_000,
                max_ns: 2_000_000,
                ..SpanStats::default()
            },
        );
        snap.counters.insert("c".into(), 7);
        snap.gauges.insert("g".into(), 0.5);
        assert!(snap.render(LogMode::Off).is_empty());
        let summary = snap.render(LogMode::Summary);
        assert!(summary.contains("stage.x"));
        assert!(summary.contains("counters:"));
        assert!(!summary.contains("mean="));
        let spans = snap.render(LogMode::Spans);
        assert!(spans.contains("mean="));
        assert!(spans.contains("min="));
    }

    #[test]
    fn sparkline_spans_occupied_range() {
        assert_eq!(sparkline(&[0, 0, 0]), "");
        let line = sparkline(&[0, 8, 0, 1, 0]);
        // Range buckets 1..=3: peak, gap, small.
        assert_eq!(line.chars().count(), 3);
        assert_eq!(line.chars().next(), Some('█'));
        assert_eq!(line.chars().nth(1), Some(' '));
        assert_eq!(line.chars().nth(2), Some('▁'));
    }

    #[test]
    fn reset_clears_everything() {
        let _g = lock(&TEST_LOCK);
        set_enabled(true);
        set_journal_enabled(true);
        counter_add("will.vanish", 1);
        event("will.vanish").emit();
        reset();
        let snap = snapshot();
        all_off();
        assert!(snap.counters.is_empty());
        assert_eq!(journal_len(), 0);
    }

    #[test]
    fn journal_records_events_and_span_tree() {
        let _g = lock(&TEST_LOCK);
        set_journal_enabled(true);
        reset();
        {
            let outer = span("outer.stage");
            let outer_id = outer.id();
            assert!(outer_id > 0);
            {
                let _inner = span("inner.stage");
                event("point.event").field("k", "v").emit();
            }
        }
        let dump = journal_drain();
        all_off();
        // Drop order: point event, inner span, outer span.
        assert_eq!(dump.dropped, 0);
        let kinds: Vec<&str> = dump.events.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, vec!["point.event", "span", "span"]);
        let point = &dump.events[0];
        let inner = &dump.events[1];
        let outer = &dump.events[2];
        assert_eq!(
            inner.field("name"),
            Some(&FieldValue::Str("inner.stage".into()))
        );
        assert_eq!(
            outer.field("name"),
            Some(&FieldValue::Str("outer.stage".into()))
        );
        // The tree: outer is root, inner's parent is outer, the point
        // event's parent is inner.
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.span);
        assert_eq!(point.parent, inner.span);
        assert!(matches!(inner.field("dur_ns"), Some(FieldValue::U64(_))));
    }

    #[test]
    fn journal_capacity_bounds_and_counts_drops() {
        let _g = lock(&TEST_LOCK);
        set_journal_enabled(true);
        reset();
        set_journal_capacity(3);
        for i in 0..5u64 {
            event("cap.test").field("i", i).emit();
        }
        let dump = journal_drain();
        set_journal_capacity(DEFAULT_JOURNAL_CAPACITY);
        all_off();
        assert_eq!(dump.events.len(), 3);
        assert_eq!(dump.dropped, 2);
        // Drop-oldest ring: the survivors are the *newest* three.
        let kept: Vec<u64> = dump.events.iter().map(|e| e.seq).collect();
        assert_eq!(kept, vec![2, 3, 4]);
        let jsonl = dump.to_jsonl();
        assert_eq!(jsonl.lines().count(), 4, "3 events + dropped marker");
        assert!(jsonl.contains("\"journal.dropped\""));
        assert!(jsonl.contains("\"dropped\":2"));
    }

    #[test]
    fn journal_tail_resumes_without_gaps_or_duplicates() {
        let _g = lock(&TEST_LOCK);
        set_journal_enabled(true);
        reset();
        for i in 0..6u64 {
            event("tail.test").field("i", i).emit();
        }
        // Page through with max=4: two reads cover everything exactly once.
        let first = journal_tail(0, 4);
        assert_eq!(first.missed, 0);
        assert_eq!(
            first.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(first.next, 4);
        let second = journal_tail(first.next, 4);
        assert_eq!(
            second.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![4, 5]
        );
        assert_eq!(second.next, 6);
        // Caught up: an empty tail parks the cursor at the head.
        let third = journal_tail(second.next, 4);
        assert!(third.events.is_empty());
        assert_eq!(third.next, 6);
        // Tails are non-destructive: the events are all still there.
        assert_eq!(journal_len(), 6);
        let dump = journal_drain();
        all_off();
        assert_eq!(dump.events.len(), 6);
    }

    #[test]
    fn journal_tail_reports_missed_events_after_wraparound() {
        let _g = lock(&TEST_LOCK);
        set_journal_enabled(true);
        reset();
        set_journal_capacity(3);
        for i in 0..8u64 {
            event("wrap.test").field("i", i).emit();
        }
        // Ring holds seqs 5..=7; a cursor at 1 missed 4 events (1..=4).
        let tail = journal_tail(1, 100);
        set_journal_capacity(DEFAULT_JOURNAL_CAPACITY);
        all_off();
        assert_eq!(
            tail.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![5, 6, 7]
        );
        assert_eq!(tail.missed, 4);
        assert_eq!(tail.next, 8);
    }

    #[test]
    fn request_id_is_stamped_onto_journal_events() {
        let _g = lock(&TEST_LOCK);
        set_journal_enabled(true);
        reset();
        event("rid.none").emit();
        set_request_id(Some("3-42".to_string()));
        event("rid.some").field("k", 1u64).emit();
        {
            let _s = span("rid.span");
        }
        set_request_id(None);
        event("rid.cleared").emit();
        let dump = journal_drain();
        all_off();
        assert_eq!(dump.events[0].field("rid"), None);
        assert_eq!(
            dump.events[1].field("rid"),
            Some(&FieldValue::Str("3-42".into()))
        );
        // Span-close events inside the request window carry it too.
        assert_eq!(dump.events[2].kind, "span");
        assert_eq!(
            dump.events[2].field("rid"),
            Some(&FieldValue::Str("3-42".into()))
        );
        assert_eq!(dump.events[3].field("rid"), None);
    }

    #[test]
    fn labeled_metrics_aggregate_and_normalize_label_order() {
        let _g = lock(&TEST_LOCK);
        set_enabled(true);
        reset();
        counter_add_labeled(
            "serve.http.requests",
            &[("route", "/healthz"), ("status", "200")],
            2,
        );
        // Reversed label order is the same series.
        counter_add_labeled(
            "serve.http.requests",
            &[("status", "200"), ("route", "/healthz")],
            3,
        );
        counter_add_labeled(
            "serve.http.requests",
            &[("route", "/healthz"), ("status", "404")],
            1,
        );
        gauge_set_labeled("serve.loop.connections", &[("shard", "0")], 7.0);
        gauge_add_labeled("serve.loop.connections", &[("shard", "0")], -2.0);
        hist_record_labeled("serve.http.latency", &[("route", "/match")], 100);
        hist_record_labeled("serve.http.latency", &[("route", "/match")], 300);
        let snap = snapshot();
        all_off();
        let family = &snap.labeled_counters["serve.http.requests"];
        assert_eq!(family.len(), 2);
        let ok_series = vec![
            ("route".to_string(), "/healthz".to_string()),
            ("status".to_string(), "200".to_string()),
        ];
        assert_eq!(family[&ok_series], 5);
        let conns = &snap.labeled_gauges["serve.loop.connections"];
        assert_eq!(conns[&vec![("shard".to_string(), "0".to_string())]], 5.0);
        let lat = &snap.labeled_hists["serve.http.latency"]
            [&vec![("route".to_string(), "/match".to_string())]];
        assert_eq!(lat.count, 2);
        assert_eq!(lat.total_ns, 400);
        assert_eq!(lat.min_ns, 100);
        assert_eq!(lat.max_ns, 300);
        // And the JSON snapshot carries the labeled families.
        let json = snap.to_json();
        assert!(json.contains("\"labeled_counters\""), "{json}");
        assert!(
            json.contains(r#"{"labels": {"route": "/healthz", "status": "200"}, "value": 5}"#),
            "{json}"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn empty_label_set_is_the_unlabelled_series() {
        let _g = lock(&TEST_LOCK);
        set_enabled(true);
        reset();
        counter_add("both.kinds", 2);
        counter_add_labeled("both.kinds", &[], 3);
        counter_add_labeled("both.kinds", &[("shard", "0")], 4);
        gauge_set("both.kinds", 1.5);
        hist_record_labeled("both.kinds", &[], 100);
        let snap = snapshot();
        all_off();
        assert_eq!(snap.counters["both.kinds"], 5);
        let shard_0 = vec![("shard".to_string(), "0".to_string())];
        assert_eq!(
            snap.labeled_counters["both.kinds"],
            BTreeMap::from([(shard_0, 4)])
        );
        // One name may be a counter, a gauge and a histogram at once, and
        // a family with no labelled series has no `labeled_*` entry.
        assert_eq!(snap.gauges["both.kinds"], 1.5);
        assert_eq!(snap.spans["both.kinds"].count, 1);
        assert!(snap.labeled_gauges.is_empty());
        assert!(snap.labeled_hists.is_empty());
    }

    #[test]
    fn labeled_metrics_are_noops_when_disabled() {
        let _g = lock(&TEST_LOCK);
        all_off();
        reset();
        counter_add_labeled("off.counter", &[("a", "b")], 1);
        gauge_set_labeled("off.gauge", &[("a", "b")], 1.0);
        gauge_add_labeled("off.gauge", &[("a", "b")], 1.0);
        hist_record_labeled("off.hist", &[("a", "b")], 1);
        let snap = snapshot();
        assert!(snap.labeled_counters.is_empty());
        assert!(snap.labeled_gauges.is_empty());
        assert!(snap.labeled_hists.is_empty());
    }

    #[test]
    fn event_jsonl_shape() {
        let e = Event {
            seq: 7,
            ts_us: 1234,
            kind: "model.em.iter".into(),
            span: 0,
            parent: 3,
            fields: vec![
                ("iter".into(), FieldValue::U64(2)),
                ("ll".into(), FieldValue::F64(-15.25)),
                ("init".into(), FieldValue::Str("smo\"oth".into())),
                ("converged".into(), FieldValue::Bool(false)),
                ("bad".into(), FieldValue::F64(f64::INFINITY)),
                ("neg".into(), FieldValue::I64(-4)),
            ],
        };
        let line = e.to_json_line();
        assert!(line.starts_with("{\"seq\":7,\"ts_us\":1234,\"kind\":\"model.em.iter\""));
        assert!(line.contains("\"span\":0,\"parent\":3"));
        assert!(line.contains("\"iter\":2"));
        assert!(line.contains("\"ll\":-15.25"));
        assert!(line.contains("\"init\":\"smo\\\"oth\""));
        assert!(line.contains("\"converged\":false"));
        assert!(line.contains("\"bad\":null"));
        assert!(line.contains("\"neg\":-4"));
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }

    #[test]
    fn journal_off_metrics_on_is_independent() {
        let _g = lock(&TEST_LOCK);
        set_enabled(true);
        set_journal_enabled(false);
        reset();
        {
            let s = span("only.metrics");
            assert_eq!(s.id(), 0, "no journal id without the journal");
        }
        event("only.metrics").emit();
        let snap = snapshot();
        all_off();
        assert_eq!(snap.spans["only.metrics"].count, 1);
        assert_eq!(journal_len(), 0);
    }

    #[test]
    fn metric_name_convention() {
        for good in [
            "autolf.score_grid",
            "model.panda.em_iters.snorkel",
            "lf.matrix.apply",
            "text.token_cache.hits",
            "exec.sections",
        ] {
            assert!(is_valid_metric_name(good), "{good}");
        }
        for bad in [
            "single",
            "Upper.case",
            "trailing.",
            ".leading",
            "sp ace.x",
            "dash-ed.x",
            "a..b",
            "",
        ] {
            assert!(!is_valid_metric_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn log_mode_parses_env() {
        // Serialized with the registry lock: env is process-global too.
        let _g = lock(&TEST_LOCK);
        std::env::remove_var(LOG_ENV);
        assert_eq!(log_mode(), LogMode::Off);
        std::env::set_var(LOG_ENV, "summary");
        assert_eq!(log_mode(), LogMode::Summary);
        std::env::set_var(LOG_ENV, "spans");
        assert_eq!(log_mode(), LogMode::Spans);
        std::env::set_var(LOG_ENV, "nonsense");
        assert_eq!(log_mode(), LogMode::Off);
        std::env::remove_var(LOG_ENV);
    }
}
