//! Observability core for the TDE reproduction.
//!
//! The engine makes most of its interesting choices at *run time* — the
//! tactical optimizer picks hash strategies and join implementations from
//! encoding metadata (§2.3.4–§2.3.5), the dynamic encoder re-encodes
//! columns mid-load (§3.2), and the §3.4.3 conversions reshape columns
//! through their headers. This crate records those choices, plus
//! per-operator block/row/time figures, without perturbing the engine.
//!
//! **One report per observation.** Instrumented code reports each
//! observation once, as an [`Event`] through [`emit`]. The views are
//! folds of that one report, so they cannot disagree:
//!
//! * [`timeline`] — the recorder: the event lands on the calling
//!   thread's lane, tagged with the query scope the thread is in, and a
//!   query's drained [`timeline::QueryTrace`] holds its own events and
//!   no other live query's. EXPLAIN ANALYZE is a view of that trace;
//!   `tde-stats` exports it as Chrome Trace Event Format;
//! * [`metrics`] — the process-wide registry of named counters, gauges
//!   and log-linear-bucket histograms (exported by `tde-stats` as
//!   Prometheus text and JSON). [`emit`] counts the event through one
//!   `match` (`metrics::fold`), the only code that knows which event
//!   moves which instrument;
//! * [`span`] — one JSON line per query for a pluggable sink: a
//!   rendering of the query's trace, whose `counters` are its own
//!   events put through the same fold.
//!
//! A few instruments have no event: per-operator block and row counts,
//! the task runner's, the delta store's, the buffer pool's hits and
//! misses (through [`CacheCounters`]), checksum failures and the query
//! counters. Their sites move them directly.
//!
//! **Overhead contract**: with the timeline off outside a query scope
//! and the registry off, [`emit`] is a thread-local read plus two
//! relaxed atomic loads and never runs its closure — instrumentation
//! points may sit on per-column or per-operator paths (never per-row).
//! Two tests hold the disabled cost to that budget:
//! `timeline::tests::disabled_overhead_budget_10m_calls_under_a_second`
//! and `metrics::tests::disabled_instrument_calls_stay_within_overhead_budget`.
//! With either layer on, [`emit`] builds the event.

pub mod metrics;
pub mod span;
pub mod timeline;

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// The on/off switch of the timeline and of a metrics registry. The
/// process-wide ones start from an environment variable (`0`, `off` or
/// `false` turn them off), read once, on first use; after that, reading
/// the switch is one relaxed atomic load.
#[derive(Debug)]
pub(crate) struct Switch {
    var: &'static str,
    state: AtomicU8,
}

const UNREAD: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

impl Default for Switch {
    /// Off: a default registry is a disabled one.
    fn default() -> Switch {
        Switch::fixed(false)
    }
}

impl Switch {
    /// A switch set from `var` on first use.
    pub(crate) const fn from_env(var: &'static str) -> Switch {
        Switch {
            var,
            state: AtomicU8::new(UNREAD),
        }
    }

    /// A switch that starts `on` (or off), whatever the environment says.
    pub(crate) const fn fixed(on: bool) -> Switch {
        Switch {
            var: "",
            state: AtomicU8::new(if on { ON } else { OFF }),
        }
    }

    #[inline(always)]
    pub(crate) fn get(&self) -> bool {
        match self.state.load(Ordering::Relaxed) {
            UNREAD => self.read_env(),
            state => state == ON,
        }
    }

    #[cold]
    fn read_env(&self) -> bool {
        let off = matches!(
            std::env::var(self.var).as_deref(),
            Ok("0") | Ok("off") | Ok("false")
        );
        let state = if off { OFF } else { ON };
        let _ = self
            .state
            .compare_exchange(UNREAD, state, Ordering::Relaxed, Ordering::Relaxed);
        self.get()
    }

    /// Set the switch, returning its previous state.
    pub(crate) fn set(&self, on: bool) -> bool {
        let prev = self.get();
        self.state
            .store(if on { ON } else { OFF }, Ordering::Relaxed);
        prev
    }
}

/// Why a dynamic-encoding transition happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReencodeKind {
    /// A block failed to insert mid-load; the stream was rewritten under
    /// a new encoding chosen from the covering statistics (§3.2).
    MidLoad,
    /// The end-of-load comparison against the optimal encoding fired and
    /// the stream was converted because it was physically smaller.
    FinalConvert,
}

impl ReencodeKind {
    fn as_str(self) -> &'static str {
        match self {
            ReencodeKind::MidLoad => "mid-load",
            ReencodeKind::FinalConvert => "final-convert",
        }
    }
}

/// One structured observation from inside the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A tactical (run-time) decision: which implementation was chosen
    /// at `point` and the metadata that justified it.
    Decision {
        /// Decision point, e.g. `"hash-strategy"`, `"join"`.
        point: &'static str,
        /// The alternative chosen, e.g. `"Direct64K"`.
        choice: String,
        /// Why, in terms of the metadata consulted.
        reason: String,
        /// The encoding of the column the choice was made for, where it
        /// was made for one: a kernel pushdown's (`"none"` for a
        /// residual over several columns).
        encoding: Option<&'static str>,
    },
    /// A dynamic-encoding transition on one column (§3.2).
    Reencode {
        /// Column label (empty when the encoder was built bare).
        column: String,
        /// Encoding before the transition (spec debug form).
        from: String,
        /// Encoding after the transition.
        to: String,
        /// Rows inserted when the transition happened.
        rows: u64,
        /// Mid-load rewrite or end-of-load optimal conversion.
        kind: ReencodeKind,
    },
    /// An encoding→compression conversion route (§3.4.3).
    Conversion {
        /// Column name.
        column: String,
        /// Route taken, e.g. `"dict-encoding->array-compression"`.
        route: &'static str,
        /// Route-specific detail (dictionary size, envelope, …).
        detail: String,
    },
    /// The buffer pool demand-loaded one column segment from a paged
    /// database file (cache miss → disk read).
    SegmentLoad {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
        /// Segment kind: `"stream"`, `"dictionary"` or `"heap"`.
        segment: &'static str,
        /// Bytes read from disk.
        bytes: u64,
        /// Load latency (read plus checksum), in nanoseconds.
        dur_ns: u64,
    },
    /// A scan finished running a pushed-down predicate through a
    /// compressed-domain kernel (or its decode-then-eval fallback).
    /// Emitted once per scan at end of stream — never per row.
    KernelScan {
        /// Predicate column name.
        column: String,
        /// Kernel kind (`"rle-run-skip"`, `"dict-domain"`,
        /// `"affine-closed-form"`, … or `"fallback"`).
        kernel: String,
        /// Rows the scan considered.
        rows_in: u64,
        /// Rows that matched the predicate.
        rows_out: u64,
        /// Rows eliminated in the compressed domain, without
        /// per-row decode-then-eval work.
        rows_skipped: u64,
    },
    /// A delta compaction drained one table's write-optimized buffer
    /// through the dynamic encoder into fresh compressed segments.
    Compaction {
        /// Table name.
        table: String,
        /// Delta rows drained into the rebuilt table.
        delta_rows: u64,
        /// Tombstoned base rows dropped by the rebuild.
        tombstones: u64,
        /// Rows in the rebuilt (compacted) table.
        rows_out: u64,
        /// Wall time of the compaction, in nanoseconds.
        nanos: u64,
        /// The part of `nanos` spent taking the merge snapshot (domain
        /// translation); the rest is the re-encode.
        snapshot_nanos: u64,
    },
    /// A FlowTable finished building one column (§3.3).
    ColumnBuilt {
        /// Destination table name.
        table: String,
        /// Column name.
        column: String,
        /// Final encoding algorithm.
        algorithm: String,
        /// Rows encoded.
        rows: u64,
        /// Mid-load re-encoding count.
        reencodings: u32,
        /// Whether the end-of-load optimal conversion fired.
        final_converted: bool,
        /// Whether a delta compaction re-encoded the column (rather
        /// than a FlowTable building it).
        compacted: bool,
    },
    /// A flat-file import finished (TextScan, §5.1). The three phase
    /// times add up to the call: `scan` finds record and field boundaries
    /// (schema inference included), `build` parses the fields and feeds
    /// the column builders, `finish` closes the columns.
    Import {
        /// Name of the produced table.
        table: String,
        /// Bytes of text read.
        bytes: u64,
        /// Rows imported.
        rows: u64,
        /// Columns in the file.
        columns: u64,
        /// Fields that did not parse and were stored as NULL.
        parse_errors: u64,
        /// Nanoseconds finding boundaries.
        scan_nanos: u64,
        /// Nanoseconds parsing fields and building columns.
        build_nanos: u64,
        /// Nanoseconds finishing the columns.
        finish_nanos: u64,
    },
    /// The buffer pool evicted a segment to stay under budget.
    PoolEviction {
        /// Bytes released.
        bytes: u64,
    },
    /// A delta store froze its buffer into a merge snapshot (for a scan
    /// or a compaction).
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
    /// The storage read path retried a transient I/O error.
    IoRetry {
        /// Operation label (`"stream"`, `"heap"`, …).
        op: &'static str,
    },
    /// The `FaultIo` testing backend injected a fault.
    IoFault {
        /// Fault kind (`"crash"`, `"hard-read"`, …).
        kind: &'static str,
    },
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Event::Decision {
                point,
                choice,
                reason,
                ..
            } => {
                write!(f, "[{point}] {choice}: {reason}")
            }
            Event::Reencode {
                column,
                from,
                to,
                rows,
                kind,
            } => {
                write!(
                    f,
                    "[reencode:{}] {column}: {from} -> {to} at {rows} rows",
                    kind.as_str()
                )
            }
            Event::Conversion {
                column,
                route,
                detail,
            } => {
                write!(f, "[convert] {column}: {route} ({detail})")
            }
            Event::SegmentLoad {
                table,
                column,
                segment,
                bytes,
                dur_ns,
            } => {
                write!(
                    f,
                    "[segment-load] {table}.{column}: {segment} ({bytes} bytes, {dur_ns} ns)"
                )
            }
            Event::KernelScan {
                column,
                kernel,
                rows_in,
                rows_out,
                rows_skipped,
            } => {
                write!(
                    f,
                    "[kernel-scan] {column}: {kernel}, {rows_in} in, {rows_out} out, \
                     {rows_skipped} skipped"
                )
            }
            Event::Compaction {
                table,
                delta_rows,
                tombstones,
                rows_out,
                nanos,
                snapshot_nanos,
            } => {
                write!(
                    f,
                    "[compaction] {table}: {delta_rows} delta row(s) drained, \
                     {tombstones} tombstone(s) dropped, {rows_out} rows out, {nanos} ns \
                     ({snapshot_nanos} ns snapshot)"
                )
            }
            Event::ColumnBuilt {
                table,
                column,
                algorithm,
                rows,
                reencodings,
                final_converted,
                ..
            } => {
                write!(
                    f,
                    "[flow-table] {table}.{column}: {algorithm}, {rows} rows, \
                     {reencodings} re-encoding(s){}",
                    if *final_converted {
                        ", final-converted"
                    } else {
                        ""
                    }
                )
            }
            Event::Import {
                table,
                bytes,
                rows,
                columns,
                parse_errors,
                scan_nanos,
                build_nanos,
                finish_nanos,
            } => {
                write!(
                    f,
                    "[import] {table}: {bytes} bytes, {rows} rows x {columns} columns, \
                     {parse_errors} parse error(s); scan {scan_nanos} ns, \
                     parse+build {build_nanos} ns, finish {finish_nanos} ns"
                )
            }
            Event::PoolEviction { bytes } => write!(f, "[pool-evict] {bytes} bytes"),
            Event::DeltaSnapshot {
                table,
                delta_rows,
                tombstones,
                index_built,
                dur_ns,
            } => write!(
                f,
                "[delta-snapshot] {table}: {delta_rows} delta row(s), {tombstones} \
                 tombstone(s){}, {dur_ns} ns",
                if *index_built { ", index built" } else { "" }
            ),
            Event::IoRetry { op } => write!(f, "[io-retry] {op}"),
            Event::IoFault { kind } => write!(f, "[io-fault] {kind}"),
        }
    }
}

impl Event {
    /// The event's kind, as its JSON `kind` field spells it.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Decision { .. } => "decision",
            Event::Reencode { .. } => "reencode",
            Event::Conversion { .. } => "conversion",
            Event::SegmentLoad { .. } => "segment_load",
            Event::KernelScan { .. } => "kernel_scan",
            Event::Compaction { .. } => "compaction",
            Event::ColumnBuilt { .. } => "column_built",
            Event::Import { .. } => "import",
            Event::PoolEviction { .. } => "pool_eviction",
            Event::DeltaSnapshot { .. } => "delta_snapshot",
            Event::IoRetry { .. } => "io_retry",
            Event::IoFault { .. } => "io_fault",
        }
    }

    /// The event as one JSON object (hand-rolled; the engine has no
    /// serialization dependency).
    pub fn to_json(&self) -> String {
        let fields = match self {
            Event::Decision {
                point,
                choice,
                reason,
                encoding,
            } => format!(
                "\"point\":\"{}\",\"choice\":\"{}\",\"reason\":\"{}\"{}",
                json_escape(point),
                json_escape(choice),
                json_escape(reason),
                encoding.map_or(String::new(), |e| format!(",\"encoding\":\"{e}\""))
            ),
            Event::Reencode {
                column,
                from,
                to,
                rows,
                kind,
            } => format!(
                "\"column\":\"{}\",\"from\":\"{}\",\"to\":\"{}\",\
                 \"rows\":{},\"phase\":\"{}\"",
                json_escape(column),
                json_escape(from),
                json_escape(to),
                rows,
                kind.as_str()
            ),
            Event::Conversion {
                column,
                route,
                detail,
            } => format!(
                "\"column\":\"{}\",\"route\":\"{}\",\"detail\":\"{}\"",
                json_escape(column),
                json_escape(route),
                json_escape(detail)
            ),
            Event::SegmentLoad {
                table,
                column,
                segment,
                bytes,
                dur_ns,
            } => format!(
                "\"table\":\"{}\",\"column\":\"{}\",\
                 \"segment\":\"{}\",\"bytes\":{},\"dur_ns\":{}",
                json_escape(table),
                json_escape(column),
                segment,
                bytes,
                dur_ns
            ),
            Event::KernelScan {
                column,
                kernel,
                rows_in,
                rows_out,
                rows_skipped,
            } => format!(
                "\"column\":\"{}\",\"kernel\":\"{}\",\
                 \"rows_in\":{},\"rows_out\":{},\"rows_skipped\":{}",
                json_escape(column),
                json_escape(kernel),
                rows_in,
                rows_out,
                rows_skipped
            ),
            Event::Compaction {
                table,
                delta_rows,
                tombstones,
                rows_out,
                nanos,
                snapshot_nanos,
            } => format!(
                "\"table\":\"{}\",\"delta_rows\":{},\
                 \"tombstones\":{},\"rows_out\":{},\"nanos\":{},\"snapshot_nanos\":{}",
                json_escape(table),
                delta_rows,
                tombstones,
                rows_out,
                nanos,
                snapshot_nanos
            ),
            Event::ColumnBuilt {
                table,
                column,
                algorithm,
                rows,
                reencodings,
                final_converted,
                compacted,
            } => {
                format!(
                    "\"table\":\"{}\",\"column\":\"{}\",\
                     \"algorithm\":\"{}\",\"rows\":{},\"reencodings\":{},\"final_converted\":{},\
                     \"compacted\":{}",
                    json_escape(table),
                    json_escape(column),
                    json_escape(algorithm),
                    rows,
                    reencodings,
                    final_converted,
                    compacted
                )
            }
            Event::Import {
                table,
                bytes,
                rows,
                columns,
                parse_errors,
                scan_nanos,
                build_nanos,
                finish_nanos,
            } => format!(
                "\"table\":\"{}\",\"bytes\":{bytes},\"rows\":{rows},\
                 \"columns\":{columns},\"parse_errors\":{parse_errors},\
                 \"scan_nanos\":{scan_nanos},\"build_nanos\":{build_nanos},\
                 \"finish_nanos\":{finish_nanos}",
                json_escape(table)
            ),
            Event::PoolEviction { bytes } => format!("\"bytes\":{bytes}"),
            Event::DeltaSnapshot {
                table,
                delta_rows,
                tombstones,
                index_built,
                dur_ns,
            } => format!(
                "\"table\":\"{}\",\"delta_rows\":{delta_rows},\"tombstones\":{tombstones},\
                 \"index_built\":{index_built},\"dur_ns\":{dur_ns}",
                json_escape(table)
            ),
            Event::IoRetry { op } => format!("\"op\":\"{}\"", json_escape(op)),
            Event::IoFault { kind } => format!("\"kind\":\"{}\"", json_escape(kind)),
        };
        format!("{{\"kind\":\"{}\",{fields}}}", self.kind())
    }
}

/// Cumulative counters for one segment cache (the pager's buffer pool).
/// Bumped with relaxed atomics on the per-segment path — never per row —
/// so they satisfy the crate's overhead contract. Shared `Arc`s let
/// EXPLAIN ANALYZE snapshot the pool while queries run.
///
/// Each record also moves the process-wide registry's `tde_pool_*`
/// instruments (see [`metrics::pool_metrics`]) when metrics are enabled,
/// so per-pool telemetry and the process-lifetime view stay in lockstep;
/// an eviction is also an [`Event::PoolEviction`] on the timeline. These
/// are the pool instruments' only path: the event fold leaves them
/// alone.
#[derive(Debug, Default)]
pub struct CacheCounters {
    /// Lookups served from cache.
    pub hits: AtomicU64,
    /// Lookups that went to disk.
    pub misses: AtomicU64,
    /// Entries evicted to stay inside the byte budget.
    pub evictions: AtomicU64,
    /// Bytes demand-loaded from disk.
    pub bytes_read: AtomicU64,
    /// Bytes released by eviction.
    pub bytes_evicted: AtomicU64,
}

impl CacheCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Arc<CacheCounters> {
        Arc::new(CacheCounters::default())
    }

    /// Record a cache hit.
    pub fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        if metrics::enabled() {
            metrics::pool_metrics().hits.inc();
        }
    }

    /// Record a miss that loaded `bytes` from disk.
    pub fn record_miss(&self, bytes: u64) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        if metrics::enabled() {
            let m = metrics::pool_metrics();
            m.misses.inc();
            m.read_bytes.add(bytes);
        }
    }

    /// Record an eviction that released `bytes`.
    pub fn record_eviction(&self, bytes: u64) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
        self.bytes_evicted.fetch_add(bytes, Ordering::Relaxed);
        if metrics::enabled() {
            let m = metrics::pool_metrics();
            m.evictions.inc();
            m.evicted_bytes.add(bytes);
        }
        emit(|| Event::PoolEviction { bytes });
    }

    /// Snapshot the counters, annotated with the pool's current residency
    /// and configured budget (which the counters themselves do not track).
    pub fn snapshot(&self, bytes_cached: u64, budget_bytes: u64) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_evicted: self.bytes_evicted.load(Ordering::Relaxed),
            bytes_cached,
            budget_bytes,
        }
    }
}

/// A point-in-time view of one segment cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Lookups served from cache.
    pub hits: u64,
    /// Lookups that went to disk.
    pub misses: u64,
    /// Entries evicted to stay inside the byte budget.
    pub evictions: u64,
    /// Bytes demand-loaded from disk.
    pub bytes_read: u64,
    /// Bytes released by eviction.
    pub bytes_evicted: u64,
    /// Bytes currently resident.
    pub bytes_cached: u64,
    /// Configured byte budget.
    pub budget_bytes: u64,
}

impl CacheSnapshot {
    /// Fraction of lookups served from cache (1.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The counters between two snapshots of the same pool (`self` after,
    /// `earlier` before). Residency and budget are taken from `self`.
    /// Saturating: if the counters were reset between the snapshots (a
    /// reopened pool), the delta clamps to zero instead of panicking.
    pub fn since(&self, earlier: &CacheSnapshot) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_evicted: self.bytes_evicted.saturating_sub(earlier.bytes_evicted),
            bytes_cached: self.bytes_cached,
            budget_bytes: self.budget_bytes,
        }
    }

    /// The snapshot as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"hits\":{},\"misses\":{},\"evictions\":{},\"bytes_read\":{},\
             \"bytes_evicted\":{},\"bytes_cached\":{},\"budget_bytes\":{},\
             \"hit_rate\":{:.3}}}",
            self.hits,
            self.misses,
            self.evictions,
            self.bytes_read,
            self.bytes_evicted,
            self.bytes_cached,
            self.budget_bytes,
            self.hit_rate()
        )
    }
}

impl std::fmt::Display for CacheSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits={} misses={} evictions={} read={}B evicted={}B \
             resident={}B budget={}B hit_rate={:.1}%",
            self.hits,
            self.misses,
            self.evictions,
            self.bytes_read,
            self.bytes_evicted,
            self.bytes_cached,
            self.budget_bytes,
            self.hit_rate() * 100.0
        )
    }
}

/// Report one observation: count the event in the metrics registry when
/// it is on (`metrics::fold`), and record it on the calling thread's
/// timeline lane, in its query scope, when the site records (see
/// [`timeline::recording`]). The closure only runs when one of the two
/// takes the event, so argument formatting costs nothing otherwise.
#[inline(always)]
pub fn emit(f: impl FnOnce() -> Event) {
    let record = timeline::recording();
    let count = metrics::enabled();
    if !(record || count) {
        return;
    }
    let event = f();
    if count {
        metrics::count(&event);
    }
    if record {
        timeline::record(timeline::TimelineKind::Event(event));
    }
}

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_counters_snapshot_and_delta() {
        let c = CacheCounters::new();
        c.record_miss(100);
        c.record_miss(50);
        c.record_hit();
        c.record_eviction(50);
        let before = c.snapshot(100, 1000);
        assert_eq!(before.hits, 1);
        assert_eq!(before.misses, 2);
        assert_eq!(before.evictions, 1);
        assert_eq!(before.bytes_read, 150);
        assert_eq!(before.bytes_evicted, 50);
        c.record_hit();
        c.record_hit();
        let after = c.snapshot(100, 1000);
        let delta = after.since(&before);
        assert_eq!(delta.hits, 2);
        assert_eq!(delta.misses, 0);
        assert!((after.hit_rate() - 0.6).abs() < 1e-9);
        assert!(after.to_json().contains("\"hits\":3"));
    }

    #[test]
    fn cache_snapshot_delta_saturates_on_counter_reset() {
        // A reopened pool starts its counters from zero; a consumer
        // holding a pre-reset snapshot must get a clamped delta, not an
        // underflow panic.
        let warm = CacheCounters::new();
        warm.record_miss(500);
        warm.record_hit();
        warm.record_hit();
        let before_reset = warm.snapshot(500, 1000);
        let fresh = CacheCounters::new();
        fresh.record_hit();
        let after_reset = fresh.snapshot(0, 1000);
        let delta = after_reset.since(&before_reset);
        assert_eq!(delta.hits, 0, "2 hits before reset, 1 after: clamps to 0");
        assert_eq!(delta.misses, 0);
        assert_eq!(delta.bytes_read, 0);
        // Residency/budget always come from the later snapshot.
        assert_eq!(delta.bytes_cached, 0);
        assert_eq!(delta.budget_bytes, 1000);
    }

    #[test]
    fn cache_snapshot_warm_scan_zero_delta() {
        // A fully warm re-scan: counters move only on the hit side, and
        // the delta of an untouched pool is exactly zero everywhere.
        let c = CacheCounters::new();
        c.record_miss(100);
        let cold = c.snapshot(100, 1000);
        let idle = c.snapshot(100, 1000).since(&cold);
        assert_eq!((idle.hits, idle.misses, idle.evictions), (0, 0, 0));
        assert_eq!((idle.bytes_read, idle.bytes_evicted), (0, 0));
        assert_eq!(idle.hit_rate(), 1.0, "idle delta reads as all-hits");
        c.record_hit();
        c.record_hit();
        let warm = c.snapshot(100, 1000).since(&cold);
        assert_eq!(warm.hits, 2);
        assert_eq!(warm.misses, 0);
        assert_eq!(warm.hit_rate(), 1.0);
    }

    #[test]
    fn cache_counters_fold_into_global_pool_metrics() {
        let _gate = metrics::TEST_GATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if !metrics::enabled() {
            return; // TDE_METRICS=0 in the environment
        }
        let g = metrics::pool_metrics();
        let (h0, m0, b0) = (g.hits.get(), g.misses.get(), g.read_bytes.get());
        let c = CacheCounters::new();
        c.record_miss(640);
        c.record_hit();
        c.record_eviction(64);
        assert!(g.hits.get() > h0);
        assert!(g.misses.get() > m0);
        assert!(g.read_bytes.get() >= b0 + 640);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let e = Event::Conversion {
            column: "c\"1".into(),
            route: "r",
            detail: "d".into(),
        };
        assert_eq!(
            e.to_json(),
            r#"{"kind":"conversion","column":"c\"1","route":"r","detail":"d"}"#
        );
    }
}
