//! Per-query span records: structured JSON lines through a pluggable
//! sink.
//!
//! A [`QuerySpan`] is the compact counterpart of a query's timeline
//! trace: one record per query — query id,
//! plan digest, phase timings, row count, and the registry counter
//! deltas the execution caused — cheap enough to emit for *every*
//! query when a sink is installed, and a no-op (one relaxed atomic
//! load) when none is.
//!
//! Sinks are process-wide and pluggable: [`JsonLinesSink`] appends one
//! JSON object per line to any writer (a span log file), [`MemorySink`]
//! collects spans for tests and embedded consumers.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json_escape;

/// One executed query, summarized.
#[derive(Debug, Clone)]
pub struct QuerySpan {
    /// Process-unique query id (monotonic).
    pub query_id: u64,
    /// FNV-1a 64 digest of the optimized plan's rendering, as 16 hex
    /// digits — stable across runs for the same plan shape, so span
    /// logs group by query template.
    pub plan_digest: String,
    /// Rows the query produced.
    pub rows_out: u64,
    /// End-to-end wall time in nanoseconds.
    pub elapsed_ns: u64,
    /// Phase timings, in order: `("plan", ns)`, `("execute", ns)`, ….
    pub phases: Vec<(&'static str, u64)>,
    /// Registry counter increments attributable to this query (keyed by
    /// `name{labels}`). Deltas are process-wide, so concurrent queries
    /// fold into each other's spans; the query's own events and
    /// operator spans are in its timeline trace (`timeline::find_trace`).
    pub counters: Vec<(String, u64)>,
    /// The error message when the query failed (`rows_out` is then 0);
    /// `None` on success. Failed queries emit spans too, so the slow
    /// and broken tails land in the same log.
    pub error: Option<String>,
}

impl QuerySpan {
    /// The span as one JSON object (one line; no trailing newline).
    pub fn to_json(&self) -> String {
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|(name, ns)| format!("\"{}\":{ns}", json_escape(name)))
            .collect();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(key, delta)| format!("\"{}\":{delta}", json_escape(key)))
            .collect();
        let error = match &self.error {
            Some(e) => format!(",\"error\":\"{}\"", json_escape(e)),
            None => String::new(),
        };
        format!(
            "{{\"query_id\":{},\"plan_digest\":\"{}\",\"rows_out\":{},\
             \"elapsed_ns\":{},\"phases\":{{{}}},\"counters\":{{{}}}{}}}",
            self.query_id,
            json_escape(&self.plan_digest),
            self.rows_out,
            self.elapsed_ns,
            phases.join(","),
            counters.join(","),
            error
        )
    }
}

/// One slow query, summarized for the slow-query log: emitted (as a
/// JSONL record through [`SpanSink::record_slow`]) when a query's
/// `elapsed_ns` meets the `TDE_SLOW_QUERY_NS` threshold. The full
/// timeline is retained in the slow-trace ring
/// ([`crate::timeline::slow_traces`]); this record is the compact
/// pointer into it.
#[derive(Debug, Clone)]
pub struct SlowQueryRecord {
    /// Span-layer query id (keys into the trace rings).
    pub query_id: u64,
    /// Plan digest, as in [`QuerySpan`].
    pub plan_digest: String,
    /// Rows produced.
    pub rows_out: u64,
    /// End-to-end wall time in nanoseconds.
    pub elapsed_ns: u64,
    /// The threshold that fired.
    pub threshold_ns: u64,
    /// Phase timings, as in [`QuerySpan`].
    pub phases: Vec<(&'static str, u64)>,
    /// Top operators by self time (`(op, self_ns)`, largest first),
    /// from the retained timeline; empty when tracing is disabled.
    pub top_ops: Vec<(String, u64)>,
}

impl SlowQueryRecord {
    /// The record as one JSON object (one line; no trailing newline).
    /// The `"kind":"slow_query"` discriminant lets slow records share a
    /// JSONL stream with plain spans.
    pub fn to_json(&self) -> String {
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|(name, ns)| format!("\"{}\":{ns}", json_escape(name)))
            .collect();
        let top_ops: Vec<String> = self
            .top_ops
            .iter()
            .map(|(op, ns)| format!("{{\"op\":\"{}\",\"self_ns\":{ns}}}", json_escape(op)))
            .collect();
        format!(
            "{{\"kind\":\"slow_query\",\"query_id\":{},\"plan_digest\":\"{}\",\
             \"rows_out\":{},\"elapsed_ns\":{},\"threshold_ns\":{},\
             \"phases\":{{{}}},\"top_ops\":[{}]}}",
            self.query_id,
            json_escape(&self.plan_digest),
            self.rows_out,
            self.elapsed_ns,
            self.threshold_ns,
            phases.join(","),
            top_ops.join(",")
        )
    }
}

/// Receives every emitted span. Implementations must tolerate
/// concurrent calls.
pub trait SpanSink: Send + Sync {
    /// Record one span.
    fn record(&self, span: &QuerySpan);

    /// Record one slow-query log entry. Default is a no-op so existing
    /// sinks keep compiling; the bundled sinks append/collect it.
    fn record_slow(&self, record: &SlowQueryRecord) {
        let _ = record;
    }
}

/// Collects spans in memory (tests, embedded consumers).
#[derive(Debug, Default)]
pub struct MemorySink {
    spans: Mutex<Vec<QuerySpan>>,
    slow: Mutex<Vec<SlowQueryRecord>>,
}

impl MemorySink {
    /// A fresh, empty sink.
    pub fn new() -> Arc<MemorySink> {
        Arc::new(MemorySink::default())
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<QuerySpan> {
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// A copy of every slow-query record recorded so far.
    pub fn slow_records(&self) -> Vec<SlowQueryRecord> {
        self.slow
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }
}

impl SpanSink for MemorySink {
    fn record(&self, span: &QuerySpan) {
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(span.clone());
    }

    fn record_slow(&self, record: &SlowQueryRecord) {
        self.slow
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(record.clone());
    }
}

/// Appends one JSON line per span to a writer (a span log file).
pub struct JsonLinesSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonLinesSink {
    /// Wrap any writer.
    pub fn new(out: Box<dyn Write + Send>) -> Arc<JsonLinesSink> {
        Arc::new(JsonLinesSink {
            out: Mutex::new(out),
        })
    }

    /// Append to (creating if absent) a span log file.
    pub fn append_to(path: impl AsRef<std::path::Path>) -> std::io::Result<Arc<JsonLinesSink>> {
        let f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(JsonLinesSink::new(Box::new(std::io::BufWriter::new(f))))
    }
}

impl JsonLinesSink {
    fn write_line(&self, line: &str) {
        let mut out = self
            .out
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Span logs are diagnostics: swallow write errors rather than
        // failing the query that triggered them.
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
}

impl SpanSink for JsonLinesSink {
    fn record(&self, span: &QuerySpan) {
        self.write_line(&span.to_json());
    }

    fn record_slow(&self, record: &SlowQueryRecord) {
        self.write_line(&record.to_json());
    }
}

// ---------------------------------------------------------------------
// The process-wide sink.
// ---------------------------------------------------------------------

static SINK_INSTALLED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<Arc<dyn SpanSink>>> = Mutex::new(None);
static NEXT_QUERY_ID: AtomicU64 = AtomicU64::new(1);

/// Install (or, with `None`, remove) the process-wide span sink.
/// Returns the previously installed sink so callers can restore it.
pub fn set_span_sink(sink: Option<Arc<dyn SpanSink>>) -> Option<Arc<dyn SpanSink>> {
    let mut slot = SINK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    SINK_INSTALLED.store(sink.is_some(), Ordering::Relaxed);
    std::mem::replace(&mut slot, sink)
}

/// Whether a span sink is installed. One relaxed atomic load — the
/// guard query execution checks before assembling a span.
#[inline]
pub fn span_sink_installed() -> bool {
    SINK_INSTALLED.load(Ordering::Relaxed)
}

/// Emit a span to the installed sink, if any. The closure only runs
/// when a sink is installed, so span assembly costs nothing otherwise.
#[inline]
pub fn emit_span(f: impl FnOnce() -> QuerySpan) {
    if !span_sink_installed() {
        return;
    }
    let sink = SINK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone();
    if let Some(sink) = sink {
        sink.record(&f());
    }
}

/// Emit a slow-query record to the installed sink, if any. Same
/// contract as [`emit_span`]: the closure only runs with a sink
/// installed.
#[inline]
pub fn emit_slow(f: impl FnOnce() -> SlowQueryRecord) {
    if !span_sink_installed() {
        return;
    }
    let sink = SINK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone();
    if let Some(sink) = sink {
        sink.record_slow(&f());
    }
}

/// The next process-unique query id.
pub fn next_query_id() -> u64 {
    NEXT_QUERY_ID.fetch_add(1, Ordering::Relaxed)
}

/// FNV-1a 64-bit hash (plan digests).
pub fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_span(id: u64) -> QuerySpan {
        QuerySpan {
            query_id: id,
            plan_digest: format!("{:016x}", fnv1a64("Scan t [a]")),
            rows_out: 3,
            elapsed_ns: 1234,
            phases: vec![("plan", 200), ("execute", 1034)],
            counters: vec![("tde_queries_total".into(), 1)],
            error: None,
        }
    }

    #[test]
    fn error_spans_and_slow_records_serialize() {
        let mut span = sample_span(9);
        span.error = Some("injected hard read failure".into());
        let json = span.to_json();
        assert!(json.contains("\"error\":\"injected hard read failure\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());

        let rec = SlowQueryRecord {
            query_id: 9,
            plan_digest: "feedfacecafebeef".into(),
            rows_out: 3,
            elapsed_ns: 2_000_000,
            threshold_ns: 1_000_000,
            phases: vec![("plan", 200), ("execute", 1_999_800)],
            top_ops: vec![("aggregate".into(), 1_500_000), ("scan".into(), 400_000)],
        };
        let json = rec.to_json();
        assert!(json.contains("\"kind\":\"slow_query\""));
        assert!(json.contains("\"threshold_ns\":1000000"));
        assert!(json.contains("{\"op\":\"aggregate\",\"self_ns\":1500000}"));

        let sink = MemorySink::new();
        sink.record_slow(&rec);
        assert_eq!(sink.slow_records().len(), 1);
    }

    #[test]
    fn emit_without_sink_is_a_noop() {
        // May run concurrently with the install test; only assert the
        // closure is skipped when we can see the uninstalled state.
        if !span_sink_installed() {
            emit_span(|| sample_span(0));
        }
    }

    #[test]
    fn memory_sink_records_and_restores() {
        let sink = MemorySink::new();
        let prev = set_span_sink(Some(sink.clone()));
        emit_span(|| sample_span(7));
        set_span_sink(prev);
        let spans = sink.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].query_id, 7);
        let json = spans[0].to_json();
        assert!(json.contains("\"plan_digest\""));
        assert!(json.contains("\"plan\":200"));
        assert!(json.contains("\"tde_queries_total\":1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonLinesSink::new(Box::new(Shared(buf.clone())));
        sink.record(&sample_span(1));
        sink.record(&sample_span(2));
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with('{') && lines[0].ends_with('}'));
        assert!(lines[1].contains("\"query_id\":2"));
    }

    #[test]
    fn query_ids_are_unique_and_increasing() {
        let a = next_query_id();
        let b = next_query_id();
        assert!(b > a);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a64(""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64("a"), 0xaf63dc4c8601ec8c);
        assert_ne!(fnv1a64("Scan a"), fnv1a64("Scan b"));
    }
}
