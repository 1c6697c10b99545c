//! Per-query span records: structured JSON lines through a pluggable
//! sink.
//!
//! A span is a rendering of a query's drained [`QueryTrace`]: query id,
//! plan digest, rows, elapsed time, phase timings, the error of a failed
//! query, and `counters` — the query's own events folded by the
//! registry's one `metrics::fold`, so a span counts what its
//! query did and nothing a concurrent query did. A slow query (see
//! [`crate::timeline::slow_threshold_ns`]) also renders as a slow-query
//! record: the same trace's top operators by self time.
//!
//! `tde_core::Query` opens a timeline scope for every query while a sink
//! is installed, and hands the sink the trace. With none installed the
//! check is one relaxed atomic load. Sinks are process-wide and
//! pluggable: [`JsonLinesSink`] appends one JSON object per line to any
//! writer (a span log file), [`MemorySink`] collects the traces for
//! tests and embedded consumers.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json_escape;
use crate::timeline::{slow_threshold_ns, QueryTrace};

impl QueryTrace {
    /// The registry counters the query's own events moved, keyed by
    /// `name{labels}` (the registry's one `metrics::fold` over them).
    pub fn counters(&self) -> Vec<(String, u64)> {
        crate::metrics::counter_totals(self.own_events())
    }

    /// The query's span: one JSON object (one line; no trailing
    /// newline).
    pub fn span_json(&self) -> String {
        let counters = self.counters();
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
            json_fields(self.phases.iter().map(|&(name, ns)| (name, ns))),
            json_fields(counters.iter().map(|(key, n)| (key.as_str(), *n))),
            error
        )
    }

    /// The query's slow-query record: one JSON object whose
    /// `"kind":"slow_query"` lets it share a JSONL stream with spans,
    /// with the threshold that fired and the top three operators by self
    /// time. The full trace stays in the slow ring
    /// ([`crate::timeline::slow_traces`]).
    pub fn slow_query_json(&self) -> String {
        let top_ops: Vec<String> = self
            .top_operators(3)
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
            slow_threshold_ns().unwrap_or(0),
            json_fields(self.phases.iter().map(|&(name, ns)| (name, ns))),
            top_ops.join(",")
        )
    }
}

/// `"name":n` members, comma-separated.
fn json_fields<'a>(fields: impl Iterator<Item = (&'a str, u64)>) -> String {
    let fields: Vec<String> = fields
        .map(|(name, n)| format!("\"{}\":{n}", json_escape(name)))
        .collect();
    fields.join(",")
}

/// Receives every spanned query's trace. Implementations must tolerate
/// concurrent calls.
pub trait SpanSink: Send + Sync {
    /// Record one finished query: its span, and its slow-query record
    /// when the trace is slow.
    fn record(&self, trace: &Arc<QueryTrace>);
}

/// Collects the traces in memory (tests, embedded consumers).
#[derive(Debug, Default)]
pub struct MemorySink {
    traces: Mutex<Vec<Arc<QueryTrace>>>,
}

impl MemorySink {
    /// A fresh, empty sink.
    pub fn new() -> Arc<MemorySink> {
        Arc::new(MemorySink::default())
    }

    /// Every trace recorded so far: one per span.
    pub fn spans(&self) -> Vec<Arc<QueryTrace>> {
        self.traces
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// The slow ones among them: one per slow-query record.
    pub fn slow_records(&self) -> Vec<Arc<QueryTrace>> {
        self.spans().into_iter().filter(|t| t.slow).collect()
    }
}

impl SpanSink for MemorySink {
    fn record(&self, trace: &Arc<QueryTrace>) {
        self.traces
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(Arc::clone(trace));
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
    fn record(&self, trace: &Arc<QueryTrace>) {
        self.write_line(&trace.span_json());
        if trace.slow {
            self.write_line(&trace.slow_query_json());
        }
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
/// guard query execution checks before opening a scope for the span.
#[inline]
pub fn span_sink_installed() -> bool {
    SINK_INSTALLED.load(Ordering::Relaxed)
}

/// Hand a finished query's trace to the installed sink, if any.
#[inline]
pub fn emit_span(trace: &Arc<QueryTrace>) {
    if !span_sink_installed() {
        return;
    }
    let sink = SINK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone();
    if let Some(sink) = sink {
        sink.record(trace);
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
    use crate::timeline::{TimelineEvent, TimelineKind};
    use crate::Event;

    fn sample_trace(id: u64) -> Arc<QueryTrace> {
        let event = |ts_ns, event| TimelineEvent {
            ts_ns,
            lane: 0,
            scope: 1,
            kind: TimelineKind::Event(event),
        };
        let scan = |ts_ns, rows_in| {
            event(
                ts_ns,
                Event::KernelScan {
                    column: "a".into(),
                    kernel: "rle-run-skip".into(),
                    rows_in,
                    rows_out: 3,
                    rows_skipped: 0,
                },
            )
        };
        let mut background = scan(300, 1_000);
        background.scope = 0;
        Arc::new(QueryTrace {
            query_id: id,
            plan_digest: format!("{:016x}", fnv1a64("Scan t [a]")),
            rows_out: 3,
            elapsed_ns: 1234,
            error: None,
            phases: vec![("plan", 200), ("execute", 1034)],
            started_ns: 0,
            slow: false,
            lanes: vec![(0, "main".into())],
            scope: 1,
            events: vec![
                event(
                    100,
                    Event::Decision {
                        point: "kernel-pushdown",
                        choice: "rle-run-skip".into(),
                        reason: "column 'a'".into(),
                        encoding: Some("rle"),
                    },
                ),
                scan(200, 10),
                background,
                scan(400, 10),
            ],
        })
    }

    #[test]
    fn span_counters_fold_the_querys_own_events() {
        // The background scan (scope 0) is not the query's; the zero
        // skipped-row total is left out.
        assert_eq!(
            sample_trace(1).counters(),
            [
                (
                    "tde_kernel_pushdown_total{encoding=\"rle\",kernel=\"rle-run-skip\"}"
                        .to_string(),
                    1
                ),
                ("tde_kernel_rows_in_total".to_string(), 20),
                ("tde_kernel_rows_out_total".to_string(), 6),
            ]
        );
    }

    #[test]
    fn error_spans_and_slow_records_serialize() {
        let mut trace = (*sample_trace(9)).clone();
        trace.error = Some("injected hard read failure".into());
        let json = trace.span_json();
        assert!(json.contains("\"error\":\"injected hard read failure\""));
        assert!(json.contains("\"tde_kernel_rows_in_total\":20"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());

        trace.slow = true;
        trace.events.push(TimelineEvent {
            ts_ns: 500,
            lane: 0,
            scope: 1,
            kind: TimelineKind::OperatorSpan {
                op: "Aggregate".into(),
                label: "Aggregate".into(),
                op_id: 1,
                parent: None,
                blocks: 1,
                rows: 3,
                dur_ns: 1_500_000,
            },
        });
        let json = trace.slow_query_json();
        assert!(json.contains("\"kind\":\"slow_query\""));
        assert!(json.contains("\"threshold_ns\":"));
        assert!(json.contains("{\"op\":\"Aggregate\",\"self_ns\":1500000}"));

        let sink = MemorySink::new();
        sink.record(&Arc::new(trace));
        sink.record(&sample_trace(10));
        assert_eq!(sink.spans().len(), 2);
        assert_eq!(sink.slow_records().len(), 1);
    }

    #[test]
    fn emit_without_sink_is_a_noop() {
        // May run concurrently with the install test; only check the
        // uninstalled state when we can see it.
        if !span_sink_installed() {
            emit_span(&sample_trace(0));
        }
    }

    #[test]
    fn memory_sink_records_and_restores() {
        let sink = MemorySink::new();
        let prev = set_span_sink(Some(sink.clone()));
        emit_span(&sample_trace(7));
        set_span_sink(prev);
        let spans = sink.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].query_id, 7);
        let json = spans[0].span_json();
        assert!(json.contains("\"plan_digest\""));
        assert!(json.contains("\"plan\":200"));
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
        sink.record(&sample_trace(1));
        let mut slow = (*sample_trace(2)).clone();
        slow.slow = true;
        sink.record(&Arc::new(slow));
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "a span each, then the slow record: {text}");
        assert!(lines[0].starts_with('{') && lines[0].ends_with('}'));
        assert!(lines[1].contains("\"query_id\":2"));
        assert!(lines[2].starts_with("{\"kind\":\"slow_query\",\"query_id\":2"));
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
