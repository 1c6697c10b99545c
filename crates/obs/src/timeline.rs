//! The query timeline: the engine's one recorder.
//!
//! One of three observability layers, alongside the metrics registry
//! ([`crate::metrics`]) and query spans ([`crate::span`]): a per-thread
//! event timeline cheap enough to leave on in production. Every thread
//! that records gets its own *lane* — an `Arc`'d buffer it alone appends
//! to, so the hot path is an uncontended lock plus a `Vec` push, with no
//! cross-thread cache traffic. A process-wide registry keeps `Weak`
//! handles to every lane.
//!
//! **Query scopes.** [`query_begin`] opens a scope on the calling
//! thread (saving the enclosing one, so scopes nest) and every event
//! recorded on that thread carries the scope's id. The morsel scheduler
//! hands its scope to each worker ([`current_scope`] / [`enter_scope`]).
//! [`query_end`] drains the scope's own events plus unscoped background
//! events (a background compactor's, say) from every lane — and from the
//! orphan pool exited worker threads leave behind — into a
//! [`QueryTrace`], which lands in a bounded process-global ring. Events
//! of other live queries stay in their lanes, so concurrent queries do
//! not take each other's spans. A [`QueryToken`] dropped without
//! `query_end` discards its scope's events.
//!
//! Recorded events ([`TimelineKind`]):
//!
//! * operator spans (kind, rows, blocks, inclusive duration, tree
//!   position), emitted by the operator observer — EXPLAIN ANALYZE's
//!   operator tree is built from them;
//! * task executions of the morsel runtime, attributed to their worker
//!   index;
//! * every [`crate::Event`] reported through [`crate::emit`]: tactical
//!   decisions, re-encodings, conversions, kernel scans, segment loads,
//!   compactions, column builds, imports;
//! * buffer-pool evictions and delta merge snapshots;
//! * `tde-io` retry and injected-fault instants;
//! * query begin/end markers.
//!
//! **Whether a site records** is decided in one place, [`recording`]:
//! inside a query scope it records; outside one it follows the layer's
//! gate, one environment variable — `TDE_TRACE=0|off|false` disables it
//! — read once ([`enabled`]). `tde_core::Query` opens a scope when the
//! layer is enabled; EXPLAIN ANALYZE always opens one, so it reports
//! under `TDE_TRACE=0` too. The disabled, unscoped cost at every site is
//! a thread-local read plus a single relaxed atomic load.
//!
//! **Slow queries.** When `TDE_SLOW_QUERY_NS` is set, traces whose
//! `elapsed_ns` meets the threshold are marked slow and pinned in a
//! separate, longer-lived ring ([`slow_traces`]) so the slow tail
//! survives ring churn; `tde_core::Query` additionally appends a
//! structured JSONL record through the span-sink machinery.

use std::cell::{Cell, OnceCell};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, OnceLock, Weak};
use std::time::Instant;

/// Completed traces kept in the recent ring.
const RING_CAP: usize = 64;
/// Slow traces pinned beyond normal ring churn.
const SLOW_RING_CAP: usize = 16;
/// Per-lane event cap between drains; beyond it events are dropped and
/// counted in [`dropped_events`] rather than growing without bound.
const MAX_LANE_EVENTS: usize = 65_536;

// ---------------------------------------------------------------------
// Enable gate and clock
// ---------------------------------------------------------------------

static ENABLED: LazyLock<AtomicBool> = LazyLock::new(|| {
    AtomicBool::new(!matches!(
        std::env::var("TDE_TRACE").as_deref(),
        Ok("0") | Ok("off") | Ok("false")
    ))
});

/// Whether timeline tracing is on. One relaxed atomic load (plus the
/// one-time lazy env read) — safe on any engine path.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether a recording site on the calling thread records: always
/// inside a query scope, otherwise when the layer is [`enabled`]. Every
/// site asks this one question.
#[inline]
pub fn recording() -> bool {
    enabled() || SCOPE.with(Cell::get) != 0
}

/// Flip tracing on or off at runtime, returning the previous state.
/// Used by benches and embedders; the initial state comes from
/// `TDE_TRACE`.
pub fn set_enabled(on: bool) -> bool {
    ENABLED.swap(on, Ordering::Relaxed)
}

/// The `TDE_SLOW_QUERY_NS` threshold, parsed once. `None` when unset
/// or unparseable — slow-query handling is then off.
pub fn slow_threshold_ns() -> Option<u64> {
    static T: OnceLock<Option<u64>> = OnceLock::new();
    *T.get_or_init(|| {
        std::env::var("TDE_SLOW_QUERY_NS")
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
    })
}

static EPOCH: LazyLock<Instant> = LazyLock::new(Instant::now);

/// Nanoseconds since the process trace epoch (first use of the layer).
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/// One typed timeline entry. Spans carry their duration; instants have
/// `dur_ns`-free payloads. `ts_ns` is the *start* for spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimelineKind {
    /// A query entered an execution entry point.
    QueryBegin {
        /// The span-layer query id.
        query_id: u64,
    },
    /// A query finished (successfully or not).
    QueryEnd {
        /// The span-layer query id.
        query_id: u64,
    },
    /// One operator's whole lifetime, emitted by the operator observer
    /// when the operator is dropped. It starts at the entry to the first
    /// `next_block` call; `dur_ns` is the time spent inside `next_block`,
    /// inclusive of children (Volcano pull), so a parent's span contains
    /// its children's.
    OperatorSpan {
        /// Operator kind (first token of the plan label).
        op: String,
        /// The whole plan label, run-time detail included (an
        /// IndexedScan's `runs=… qualified=…`) — what EXPLAIN ANALYZE
        /// prints for the same operator.
        label: String,
        /// Per-query-tree operator id, for parent/child self-time math.
        op_id: u32,
        /// Parent operator id, `None` at the root.
        parent: Option<u32>,
        /// Blocks pulled through this operator.
        blocks: u64,
        /// Rows produced by this operator.
        rows: u64,
        /// Nanoseconds inside `next_block` (inclusive of children) — the
        /// figure EXPLAIN ANALYZE reports for the same operator.
        dur_ns: u64,
    },
    /// One morsel executed by a parallel worker.
    Morsel {
        /// Worker index within the query's worker pool.
        worker: u32,
        /// Morsel index.
        morsel: u32,
        /// Execution time in nanoseconds.
        dur_ns: u64,
    },
    /// An engine event reported through [`crate::emit`]. Recorded when
    /// it happened; a [`crate::Event::SegmentLoad`] or
    /// [`crate::Event::Compaction`] ends there and carries its duration.
    Event(crate::Event),
    /// The buffer pool evicted a segment to stay under budget.
    PoolEviction {
        /// Bytes released.
        bytes: u64,
    },
    /// A delta store froze its buffer into a merge snapshot.
    DeltaSnapshot {
        /// Table name.
        table: String,
        /// Live delta rows translated into the base's domain.
        delta_rows: u64,
        /// Tombstones in the snapshot.
        tombstones: u64,
        /// Whether this snapshot built the per-base index (first snapshot
        /// of a base).
        index_built: bool,
        /// Snapshot time in nanoseconds.
        dur_ns: u64,
    },
    /// `read_exact_at` retried a transient I/O error.
    IoRetry {
        /// Operation label ("stream", "heap", …).
        op: &'static str,
    },
    /// The fault-injection backend injected a fault.
    IoFault {
        /// Fault kind ("crash", "hard-read", …).
        kind: &'static str,
    },
}

/// A timestamped event on a lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEvent {
    /// Start time (spans) or occurrence time (instants), in
    /// nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// The lane (thread) that recorded the event.
    pub lane: u32,
    /// The query scope the recording thread was in (see [`query_begin`]),
    /// or 0 for an event made outside every scope.
    pub scope: u64,
    /// Payload.
    pub kind: TimelineKind,
}

// ---------------------------------------------------------------------
// Lanes
// ---------------------------------------------------------------------

struct LaneBuffer {
    lane: u32,
    name: String,
    events: Mutex<Vec<TimelineEvent>>,
}

impl LaneBuffer {
    fn push(&self, ev: TimelineEvent) {
        let mut events = self.events.lock().unwrap();
        if events.len() >= MAX_LANE_EVENTS {
            DROPPED.fetch_add(1, Ordering::Relaxed);
            return;
        }
        events.push(ev);
    }
}

impl Drop for LaneBuffer {
    fn drop(&mut self) {
        // The owning thread exited (morsel workers are scoped threads
        // that die before query_end). Park any undrained events in the
        // orphan pool so the finishing query still sees them.
        let events = std::mem::take(self.events.get_mut().unwrap());
        if !events.is_empty() {
            ORPHANS.lock().unwrap().extend(events);
        }
    }
}

static LANES: Mutex<Vec<Weak<LaneBuffer>>> = Mutex::new(Vec::new());
static ORPHANS: Mutex<Vec<TimelineEvent>> = Mutex::new(Vec::new());
static NEXT_LANE: AtomicU32 = AtomicU32::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LANE: OnceCell<Arc<LaneBuffer>> = const { OnceCell::new() };
    /// The calling thread's query scope; 0 outside every scope.
    static SCOPE: Cell<u64> = const { Cell::new(0) };
}

pub(crate) fn record(kind: TimelineKind) {
    record_at(now_ns(), kind);
}

fn record_at(ts_ns: u64, kind: TimelineKind) {
    LANE.with(|cell| {
        let lane = cell.get_or_init(|| {
            let lane = Arc::new(LaneBuffer {
                lane: NEXT_LANE.fetch_add(1, Ordering::Relaxed),
                name: std::thread::current()
                    .name()
                    .unwrap_or("worker")
                    .to_string(),
                events: Mutex::new(Vec::new()),
            });
            LANES.lock().unwrap().push(Arc::downgrade(&lane));
            lane
        });
        lane.push(TimelineEvent {
            ts_ns,
            lane: lane.lane,
            scope: SCOPE.with(Cell::get),
            kind,
        });
    });
}

/// Events discarded because a lane hit its between-drain cap.
pub fn dropped_events() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Recording helpers (each is a no-op unless the site is recording)
// ---------------------------------------------------------------------

static NEXT_OP_ID: AtomicU32 = AtomicU32::new(0);

/// Allocate an operator id for [`TimelineOp`] parent/child linkage.
/// Ids are process-unique, not per-query; uniqueness is all the
/// self-time math needs.
pub fn next_op_id() -> u32 {
    NEXT_OP_ID.fetch_add(1, Ordering::Relaxed)
}

/// An operator's kind: the first whitespace-delimited token of its plan
/// label (`"HashAggregate [strategy=…]"` → `"HashAggregate"`) — stable
/// and low-cardinality, unlike the full label.
pub fn op_kind(label: &str) -> &str {
    label.split_whitespace().next().unwrap_or("op")
}

/// Per-operator timeline state held by the operator observer.
///
/// The observer times every `next_block` call once and hands the
/// numbers to [`TimelineOp::on_call`]; the span emitted here — one
/// [`TimelineKind::OperatorSpan`], when the operator is dropped — is the
/// measurement EXPLAIN ANALYZE's operator tree and the slow-query log
/// both read.
#[derive(Debug)]
pub struct TimelineOp {
    label: String,
    op_id: u32,
    parent: Option<u32>,
    first_start_ns: Option<u64>,
    blocks: u64,
    rows: u64,
    dur_ns: u64,
    finished: bool,
}

impl TimelineOp {
    /// State for one wrapped operator labelled `label` (its kind is the
    /// first token, see [`op_kind`]). `op_id` comes from [`next_op_id`];
    /// `parent` is the enclosing operator's id.
    pub fn new(label: &str, op_id: u32, parent: Option<u32>) -> TimelineOp {
        TimelineOp {
            label: label.to_string(),
            op_id,
            parent,
            first_start_ns: None,
            blocks: 0,
            rows: 0,
            dur_ns: 0,
            finished: false,
        }
    }

    /// Account one `next_block` call that was entered at `start_ns`
    /// (see [`now_ns`]), ran for `nanos` and produced a block of `rows`
    /// rows (`None` at end of stream). The span starts at the entry to
    /// the first call — before a blocking operator does its work.
    #[inline]
    pub fn on_call(&mut self, start_ns: u64, nanos: u64, rows: Option<u64>) {
        self.first_start_ns.get_or_insert(start_ns);
        self.dur_ns += nanos;
        if let Some(rows) = rows {
            self.blocks += 1;
            self.rows += rows;
        }
    }

    /// Emit the operator span (idempotent; also called from `Drop`).
    /// The lowering that built this op already decided the operator
    /// records (see [`recording`]).
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        record_at(
            self.first_start_ns.unwrap_or_else(now_ns),
            TimelineKind::OperatorSpan {
                op: op_kind(&self.label).to_string(),
                label: std::mem::take(&mut self.label),
                op_id: self.op_id,
                parent: self.parent,
                blocks: self.blocks,
                rows: self.rows,
                dur_ns: self.dur_ns,
            },
        );
    }
}

impl Drop for TimelineOp {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Record one morsel execution. `started` is the instant just before
/// the morsel ran on worker `worker`.
pub fn morsel_span(worker: u32, morsel: u32, started: Instant) {
    if !recording() {
        return;
    }
    let end = now_ns();
    let dur_ns = started.elapsed().as_nanos() as u64;
    record_at(
        end.saturating_sub(dur_ns),
        TimelineKind::Morsel {
            worker,
            morsel,
            dur_ns,
        },
    );
}

/// Record a buffer-pool eviction instant.
pub fn pool_eviction(bytes: u64) {
    if !recording() {
        return;
    }
    record(TimelineKind::PoolEviction { bytes });
}

/// Record a delta merge snapshot that took `dur_ns`.
pub fn delta_snapshot(
    table: &str,
    delta_rows: u64,
    tombstones: u64,
    index_built: bool,
    dur_ns: u64,
) {
    if !recording() {
        return;
    }
    record_at(
        now_ns().saturating_sub(dur_ns),
        TimelineKind::DeltaSnapshot {
            table: table.to_string(),
            delta_rows,
            tombstones,
            index_built,
            dur_ns,
        },
    );
}

/// Record an I/O retry instant.
#[inline]
pub fn io_retry(op: &'static str) {
    if !recording() {
        return;
    }
    record(TimelineKind::IoRetry { op });
}

/// Record an injected-fault instant.
#[inline]
pub fn io_fault(kind: &'static str) {
    if !recording() {
        return;
    }
    record(TimelineKind::IoFault { kind });
}

// ---------------------------------------------------------------------
// Query lifecycle and the trace ring
// ---------------------------------------------------------------------

static NEXT_SCOPE: AtomicU64 = AtomicU64::new(1);
/// Scopes begun and not yet ended or dropped. An event whose scope is
/// not here (a worker's, parked in the orphan pool after its query
/// ended) drains as background rather than staying behind.
static LIVE: Mutex<Vec<u64>> = Mutex::new(Vec::new());

/// The open query scope of [`query_begin`]; pass it to [`query_end`].
/// Dropping it without `query_end` closes the scope and discards the
/// events recorded in it.
#[derive(Debug)]
pub struct QueryToken {
    query_id: u64,
    start_ns: u64,
    scope: u64,
    enclosing: u64,
    ended: bool,
}

impl QueryToken {
    /// The query id this token was begun with.
    pub fn query_id(&self) -> u64 {
        self.query_id
    }
}

impl Drop for QueryToken {
    fn drop(&mut self) {
        SCOPE.with(|s| {
            if s.get() == self.scope {
                s.set(self.enclosing);
            }
        });
        if !self.ended {
            drain(self.scope, false);
        }
        LIVE.lock().unwrap().retain(|&s| s != self.scope);
    }
}

/// The calling thread's query scope (0 outside every scope), for
/// [`enter_scope`] on a worker the query spawns.
pub fn current_scope() -> u64 {
    SCOPE.with(Cell::get)
}

/// Put the calling thread in `scope` until the guard drops (on unwind
/// too). A worker runs its share of a query this way, so what it records
/// is the query's.
pub fn enter_scope(scope: u64) -> ScopeGuard {
    ScopeGuard(SCOPE.with(|s| s.replace(scope)))
}

/// Puts a thread back in its own scope; see [`enter_scope`].
#[must_use]
pub struct ScopeGuard(u64);

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPE.with(|s| s.set(self.0));
    }
}

/// Take `scope`'s events out of every lane and the orphan pool — and,
/// with `background`, every event of no live scope too. Returns them
/// with the names of the lanes seen.
fn drain(scope: u64, background: bool) -> (Vec<TimelineEvent>, Vec<(u32, String)>) {
    let live = if background {
        LIVE.lock().unwrap().clone()
    } else {
        Vec::new()
    };
    let take = |e: &mut TimelineEvent| e.scope == scope || (background && !live.contains(&e.scope));
    let mut events = Vec::new();
    let mut lanes = Vec::new();
    LANES.lock().unwrap().retain(|weak| match weak.upgrade() {
        Some(lane) => {
            events.extend(lane.events.lock().unwrap().extract_if(.., take));
            lanes.push((lane.lane, lane.name.clone()));
            true
        }
        None => false,
    });
    // The pool is read after the lanes, so a worker lane dropped while
    // they were read has parked its events here by now.
    events.extend(ORPHANS.lock().unwrap().extract_if(.., take));
    (events, lanes)
}

/// A completed query's drained timeline.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// Span-layer query id.
    pub query_id: u64,
    /// FNV-1a digest of the physical plan's `explain()` text.
    pub plan_digest: String,
    /// Rows the query produced (0 on failure).
    pub rows_out: u64,
    /// End-to-end latency in nanoseconds.
    pub elapsed_ns: u64,
    /// The error message, when the query failed.
    pub error: Option<String>,
    /// Coarse phase timings, mirroring the span layer.
    pub phases: Vec<(&'static str, u64)>,
    /// Query start, nanoseconds since the process trace epoch.
    pub started_ns: u64,
    /// Did `elapsed_ns` meet the `TDE_SLOW_QUERY_NS` threshold?
    pub slow: bool,
    /// Lane names observed at drain time (orphaned worker lanes fall
    /// back to `lane-<id>` downstream).
    pub lanes: Vec<(u32, String)>,
    /// The scope the query ran in; its own events carry this id.
    pub scope: u64,
    /// The drained events, sorted by timestamp: the query's own and
    /// background ones (unscoped, or left by a scope already closed).
    pub events: Vec<TimelineEvent>,
}

impl QueryTrace {
    /// The [`crate::Event`]s the query itself recorded (its scope's, not
    /// background ones), in order.
    pub fn own_events(&self) -> impl Iterator<Item = &crate::Event> {
        self.events
            .iter()
            .filter(|e| e.scope == self.scope)
            .filter_map(|e| match &e.kind {
                TimelineKind::Event(event) => Some(event),
                _ => None,
            })
    }

    /// Top-`n` operators by *self* time: each span's wall duration
    /// minus its direct children's. Returns `(op, self_ns)` pairs,
    /// largest first.
    pub fn top_operators(&self, n: usize) -> Vec<(String, u64)> {
        let spans: Vec<(&String, u32, Option<u32>, u64)> = self
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                TimelineKind::OperatorSpan {
                    op,
                    op_id,
                    parent,
                    dur_ns,
                    ..
                } => Some((op, *op_id, *parent, *dur_ns)),
                _ => None,
            })
            .collect();
        let mut self_ns: Vec<(String, u64)> = spans
            .iter()
            .map(|(op, op_id, _, dur)| {
                let children: u64 = spans
                    .iter()
                    .filter(|(_, _, parent, _)| *parent == Some(*op_id))
                    .map(|(_, _, _, d)| *d)
                    .sum();
                ((*op).clone(), dur.saturating_sub(children))
            })
            .collect();
        self_ns.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        self_ns.truncate(n);
        self_ns
    }
}

static RING: Mutex<std::collections::VecDeque<Arc<QueryTrace>>> =
    Mutex::new(std::collections::VecDeque::new());
static SLOW_RING: Mutex<std::collections::VecDeque<Arc<QueryTrace>>> =
    Mutex::new(std::collections::VecDeque::new());

/// Open a query scope on the calling thread (nested inside whatever
/// scope it was in), record a [`TimelineKind::QueryBegin`] marker in it
/// and return the token [`query_end`] needs.
pub fn query_begin(query_id: u64) -> QueryToken {
    let scope = NEXT_SCOPE.fetch_add(1, Ordering::Relaxed);
    LIVE.lock().unwrap().push(scope);
    let enclosing = SCOPE.with(|s| s.replace(scope));
    let start_ns = now_ns();
    record_at(start_ns, TimelineKind::QueryBegin { query_id });
    QueryToken {
        query_id,
        start_ns,
        scope,
        enclosing,
        ended: false,
    }
}

/// Finish a query: close its scope, drain the scope's events plus the
/// background events of no live scope into a [`QueryTrace`], push it
/// into the recent ring (and the slow ring when past the
/// `TDE_SLOW_QUERY_NS` threshold), and return it.
pub fn query_end(
    mut token: QueryToken,
    plan_digest: &str,
    rows_out: u64,
    elapsed_ns: u64,
    error: Option<String>,
    phases: &[(&'static str, u64)],
) -> Arc<QueryTrace> {
    record(TimelineKind::QueryEnd {
        query_id: token.query_id,
    });
    token.ended = true;
    let (mut events, lanes) = drain(token.scope, true);
    events.sort_by_key(|e| e.ts_ns);
    let slow = slow_threshold_ns().is_some_and(|t| elapsed_ns >= t);
    let trace = Arc::new(QueryTrace {
        query_id: token.query_id,
        plan_digest: plan_digest.to_string(),
        rows_out,
        elapsed_ns,
        error,
        phases: phases.to_vec(),
        started_ns: token.start_ns,
        slow,
        lanes,
        scope: token.scope,
        events,
    });
    drop(token);
    {
        let mut ring = RING.lock().unwrap();
        if ring.len() >= RING_CAP {
            ring.pop_front();
        }
        ring.push_back(Arc::clone(&trace));
    }
    if slow {
        let mut ring = SLOW_RING.lock().unwrap();
        if ring.len() >= SLOW_RING_CAP {
            ring.pop_front();
        }
        ring.push_back(Arc::clone(&trace));
    }
    trace
}

/// The recent-trace ring, oldest first.
pub fn recent_traces() -> Vec<Arc<QueryTrace>> {
    RING.lock().unwrap().iter().cloned().collect()
}

/// The pinned slow-query ring, oldest first.
pub fn slow_traces() -> Vec<Arc<QueryTrace>> {
    SLOW_RING.lock().unwrap().iter().cloned().collect()
}

/// Look a trace up by query id (recent ring first, then slow ring).
pub fn find_trace(query_id: u64) -> Option<Arc<QueryTrace>> {
    let hit = RING
        .lock()
        .unwrap()
        .iter()
        .rev()
        .find(|t| t.query_id == query_id)
        .cloned();
    hit.or_else(|| {
        SLOW_RING
            .lock()
            .unwrap()
            .iter()
            .rev()
            .find(|t| t.query_id == query_id)
            .cloned()
    })
}

/// Drop both rings and any undrained events (tests and the
/// `tde-stats trace` subcommand use this to start from a clean slate).
pub fn clear() {
    RING.lock().unwrap().clear();
    SLOW_RING.lock().unwrap().clear();
    ORPHANS.lock().unwrap().clear();
    let registry = LANES.lock().unwrap();
    for weak in registry.iter() {
        if let Some(lane) = weak.upgrade() {
            lane.events.lock().unwrap().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Timeline state is process-global; tests that drain it must not
    // interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn segment_load_event(bytes: u64) -> crate::Event {
        crate::Event::SegmentLoad {
            table: "t".into(),
            column: "c".into(),
            segment: "stream",
            bytes,
            dur_ns: 1_000,
        }
    }

    fn decision(point: &'static str) -> crate::Event {
        crate::Event::Decision {
            point,
            choice: "a".into(),
            reason: "because".into(),
        }
    }

    /// The decision points among a trace's own events.
    fn points(trace: &QueryTrace) -> Vec<&'static str> {
        trace
            .own_events()
            .filter_map(|e| match e {
                crate::Event::Decision { point, .. } => Some(*point),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn query_end_drains_lanes_into_the_ring() {
        let _guard = lock();
        let prev = set_enabled(true);
        clear();
        let token = query_begin(4242);
        crate::emit(|| segment_load_event(512));
        pool_eviction(256);
        io_retry("stream");
        let trace = query_end(
            token,
            "feedfacecafebeef",
            10,
            5_000,
            None,
            &[("plan", 1_000)],
        );
        set_enabled(prev);
        assert_eq!(trace.query_id, 4242);
        assert_eq!(trace.plan_digest, "feedfacecafebeef");
        assert!(!trace.slow);
        let kinds: Vec<_> = trace
            .events
            .iter()
            .map(|e| std::mem::discriminant(&e.kind))
            .collect();
        assert_eq!(kinds.len(), 5, "begin + 3 events + end: {:?}", trace.events);
        assert!(find_trace(4242).is_some());
        assert!(trace.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn worker_thread_events_survive_thread_exit() {
        let _guard = lock();
        let prev = set_enabled(true);
        clear();
        let token = query_begin(4243);
        std::thread::scope(|scope| {
            for w in 0..3u32 {
                scope.spawn(move || {
                    morsel_span(w, w, Instant::now());
                });
            }
        });
        let trace = query_end(token, "d", 0, 1, None, &[]);
        set_enabled(prev);
        let workers: std::collections::BTreeSet<u32> = trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                TimelineKind::Morsel { worker, .. } => Some(worker),
                _ => None,
            })
            .collect();
        assert_eq!(workers.len(), 3, "orphaned worker events must drain");
    }

    #[test]
    fn operator_self_time_subtracts_children() {
        let _guard = lock();
        let prev = set_enabled(true);
        clear();
        let token = query_begin(4244);
        // Build parent/child spans by hand through the TimelineOp API.
        let root = next_op_id();
        let child = next_op_id();
        let mut child_op = TimelineOp::new("scan", child, Some(root));
        child_op.on_call(now_ns(), 1, Some(100));
        child_op.finish();
        let mut root_op = TimelineOp::new("filter", root, None);
        root_op.on_call(now_ns(), 1, Some(100));
        root_op.finish();
        let mut trace = (*query_end(token, "d", 100, 1, None, &[])).clone();
        set_enabled(prev);
        // Force a deterministic check: parent 10us inclusive, child 4us.
        for e in &mut trace.events {
            match &mut e.kind {
                TimelineKind::OperatorSpan { op, dur_ns, .. } if op == "filter" => {
                    *dur_ns = 10_000;
                }
                TimelineKind::OperatorSpan { op, dur_ns, .. } if op == "scan" => *dur_ns = 4_000,
                _ => {}
            }
        }
        let top = trace.top_operators(3);
        assert_eq!(top[0], ("filter".to_string(), 6_000));
        assert_eq!(top[1], ("scan".to_string(), 4_000));
    }

    #[test]
    fn ring_is_bounded() {
        let _guard = lock();
        let prev = set_enabled(true);
        clear();
        for i in 0..(RING_CAP as u64 + 10) {
            let token = query_begin(100_000 + i);
            query_end(token, "d", 0, 1, None, &[]);
        }
        set_enabled(prev);
        let ring = recent_traces();
        assert_eq!(ring.len(), RING_CAP);
        // Oldest entries were evicted.
        assert_eq!(ring[0].query_id, 100_010);
        assert!(find_trace(100_000).is_none());
    }

    #[test]
    fn disabled_layer_records_nothing() {
        let _guard = lock();
        let prev = set_enabled(false);
        clear();
        crate::emit(|| panic!("closure must not run outside a scope while disabled"));
        pool_eviction(1);
        io_retry("stream");
        io_fault("crash");
        morsel_span(0, 0, Instant::now());
        delta_snapshot("t", 1, 1, false, 1);
        let token = query_begin(4245);
        let trace = query_end(token, "d", 0, 1, None, &[]);
        set_enabled(prev);
        // The helpers above ran outside every scope, so the disabled
        // gate stopped them; query_begin/query_end record their markers.
        assert!(
            trace.events.iter().all(|e| matches!(
                e.kind,
                TimelineKind::QueryBegin { .. } | TimelineKind::QueryEnd { .. }
            )),
            "{:?}",
            trace.events
        );
    }

    #[test]
    fn nested_scopes_drain_their_own_events() {
        let _guard = lock();
        let prev = set_enabled(true);
        clear();
        let outer = query_begin(5001);
        crate::emit(|| decision("outer-before"));
        let inner = query_begin(5002);
        crate::emit(|| decision("inner"));
        let inner = query_end(inner, "d", 0, 1, None, &[]);
        crate::emit(|| decision("outer-after"));
        let outer = query_end(outer, "d", 0, 1, None, &[]);
        set_enabled(prev);
        assert_eq!(points(&inner), ["inner"]);
        assert_eq!(points(&outer), ["outer-before", "outer-after"]);
        // The thread left both scopes.
        assert_eq!(current_scope(), 0);
    }

    #[test]
    fn workers_record_in_their_parents_scope() {
        let _guard = lock();
        let prev = set_enabled(true);
        clear();
        let token = query_begin(5003);
        let scope = current_scope();
        std::thread::scope(|s| {
            for w in 0..3u32 {
                s.spawn(move || {
                    {
                        let _scope = enter_scope(scope);
                        morsel_span(w, w, Instant::now());
                    }
                    // Outside the handed-down scope the worker is unscoped.
                    assert_eq!(current_scope(), 0);
                });
            }
        });
        let trace = query_end(token, "d", 0, 1, None, &[]);
        set_enabled(prev);
        let morsels = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, TimelineKind::Morsel { .. }))
            .inspect(|e| assert_eq!(e.scope, trace.scope))
            .count();
        assert_eq!(morsels, 3);
    }

    #[test]
    fn a_scope_records_while_the_layer_is_disabled() {
        let _guard = lock();
        let prev = set_enabled(false);
        clear();
        assert!(!recording());
        let token = query_begin(5004);
        assert!(recording());
        crate::emit(|| decision("scoped-while-disabled"));
        io_retry("stream");
        let trace = query_end(token, "d", 0, 1, None, &[]);
        assert!(!recording(), "the scope closed with query_end");
        crate::emit(|| panic!("closure must not run after the scope closed"));
        set_enabled(prev);
        assert_eq!(points(&trace), ["scoped-while-disabled"]);
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e.kind, TimelineKind::IoRetry { .. })));
    }

    #[test]
    fn a_dropped_token_closes_its_scope_and_strands_nothing() {
        let _guard = lock();
        let prev = set_enabled(true);
        clear();
        let abandoned = query_begin(5005);
        crate::emit(|| decision("abandoned"));
        drop(abandoned);
        assert_eq!(current_scope(), 0);
        let token = query_begin(5006);
        crate::emit(|| decision("next"));
        let trace = query_end(token, "d", 0, 1, None, &[]);
        set_enabled(prev);
        // The abandoned query's events went with it: not in the next
        // query's trace, not left in any lane.
        assert_eq!(points(&trace), ["next"]);
        assert!(!trace
            .events
            .iter()
            .any(|e| matches!(&e.kind, TimelineKind::Event(crate::Event::Decision { point, .. }) if *point == "abandoned")));
        let left: usize = LANES
            .lock()
            .unwrap()
            .iter()
            .filter_map(Weak::upgrade)
            .map(|l| l.events.lock().unwrap().len())
            .sum();
        assert_eq!(left, 0, "nothing stranded in the lanes");
    }

    #[test]
    fn disabled_overhead_budget_10m_calls_under_a_second() {
        let _guard = lock();
        let prev = set_enabled(false);
        let t0 = Instant::now();
        for i in 0..10_000_000u64 {
            io_retry(if i % 2 == 0 { "stream" } else { "heap" });
            pool_eviction(i);
        }
        let elapsed = t0.elapsed();
        set_enabled(prev);
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "20M disabled timeline calls took {elapsed:?}; the gate must be one relaxed load"
        );
    }
}
