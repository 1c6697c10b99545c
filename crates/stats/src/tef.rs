//! Chrome Trace Event Format (TEF) rendering of query timelines.
//!
//! Turns [`QueryTrace`]s from the timeline ring into the JSON array
//! format Perfetto (`ui.perfetto.dev`) and `chrome://tracing` load
//! directly: `{"traceEvents":[...]}` with `"ph":"X"` complete events
//! (microsecond `ts`/`dur`), `"ph":"i"` instants, and `"ph":"M"`
//! process/thread-name metadata.
//!
//! Track layout: each query renders as its own *process* (`pid` =
//! query id), so multiple ring entries in one file stay separate in
//! the UI. Within a query, `tid 0` is the query track (the whole-query
//! span plus begin/end instants), engine threads map to `tid = lane+1`,
//! and morsel executions land on synthetic per-worker tracks
//! (`tid = 1000 + worker`, named `worker-N`) so a degree-`k` parallel
//! query shows `k` worker tracks regardless of which pool threads ran
//! the morsels.
//!
//! [`validate_tef`] is the strict self-check (built on [`minijson`])
//! the `tde-stats trace` subcommand and the test-suite run over every
//! rendered document before calling it loadable.

use crate::minijson;
use std::collections::BTreeMap;
use tde_obs::timeline::{QueryTrace, TimelineKind};
use tde_obs::{json_escape, Event};

/// Nanoseconds → the fractional-microsecond literal TEF wants.
fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1000.0)
}

fn meta_thread_name(pid: u64, tid: u64, name: &str) -> String {
    format!(
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
         \"args\":{{\"name\":\"{}\"}}}}",
        json_escape(name)
    )
}

/// Append one trace's events (as rendered JSON objects) to `out`.
fn push_trace(out: &mut Vec<String>, t: &QueryTrace) {
    let pid = t.query_id;
    let lane_names: BTreeMap<u32, &str> = t
        .lanes
        .iter()
        .map(|(lane, name)| (*lane, name.as_str()))
        .collect();
    out.push(format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
         \"args\":{{\"name\":\"query {pid} digest={}\"}}}}",
        json_escape(&t.plan_digest)
    ));
    out.push(meta_thread_name(pid, 0, "query"));
    let error = match &t.error {
        Some(e) => format!(",\"error\":\"{}\"", json_escape(e)),
        None => String::new(),
    };
    out.push(format!(
        "{{\"name\":\"query\",\"cat\":\"query\",\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\
         \"ts\":{},\"dur\":{},\"args\":{{\"query_id\":{pid},\"plan_digest\":\"{}\",\
         \"rows_out\":{},\"slow\":{}{error}}}}}",
        us(t.started_ns),
        us(t.elapsed_ns),
        json_escape(&t.plan_digest),
        t.rows_out,
        t.slow,
    ));
    // Name every track we are about to emit onto, exactly once.
    let mut named: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    let mut name_track = |out: &mut Vec<String>, tid: u64, name: &str| {
        if named.insert(tid) {
            out.push(meta_thread_name(pid, tid, name));
        }
    };
    for ev in &t.events {
        let ts = us(ev.ts_ns);
        let lane_tid = u64::from(ev.lane) + 1;
        match &ev.kind {
            TimelineKind::QueryBegin { .. } => out.push(format!(
                "{{\"name\":\"query-begin\",\"cat\":\"query\",\"ph\":\"i\",\"pid\":{pid},\
                 \"tid\":0,\"ts\":{ts},\"s\":\"t\"}}"
            )),
            TimelineKind::QueryEnd { .. } => out.push(format!(
                "{{\"name\":\"query-end\",\"cat\":\"query\",\"ph\":\"i\",\"pid\":{pid},\
                 \"tid\":0,\"ts\":{ts},\"s\":\"t\"}}"
            )),
            TimelineKind::OperatorSpan {
                op,
                label,
                op_id,
                parent,
                blocks,
                rows,
                dur_ns,
            } => {
                name_lane(&mut name_track, out, lane_tid, ev.lane, &lane_names);
                out.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"operator\",\"ph\":\"X\",\"pid\":{pid},\
                     \"tid\":{lane_tid},\"ts\":{ts},\"dur\":{},\"args\":{{\"op_id\":{op_id},\
                     \"parent\":{},\"blocks\":{blocks},\"rows\":{rows},\"label\":\"{}\"}}}}",
                    json_escape(op),
                    us(*dur_ns),
                    parent.map_or("null".to_string(), |p| p.to_string()),
                    json_escape(label),
                ));
            }
            TimelineKind::Morsel {
                worker,
                morsel,
                dur_ns,
            } => {
                let tid = 1000 + u64::from(*worker);
                name_track(out, tid, &format!("worker-{worker}"));
                out.push(format!(
                    "{{\"name\":\"morsel\",\"cat\":\"morsel\",\"ph\":\"X\",\"pid\":{pid},\
                     \"tid\":{tid},\"ts\":{ts},\"dur\":{},\"args\":{{\"worker\":{worker},\
                     \"morsel\":{morsel}}}}}",
                    us(*dur_ns),
                ));
            }
            TimelineKind::Event(event) => {
                name_lane(&mut name_track, out, lane_tid, ev.lane, &lane_names);
                out.push(render_event(pid, lane_tid, ev.ts_ns, event));
            }
        }
    }
}

/// One [`Event`]: a segment load, a compaction or a delta snapshot as a
/// span that ends where it was recorded; a pool eviction, an I/O retry
/// or an injected fault as a named instant on its track; anything else
/// as an instant whose args are the event's JSON.
fn render_event(pid: u64, tid: u64, ts_ns: u64, event: &Event) -> String {
    let span = |name: &str, cat: &str, dur_ns: u64, args: String| {
        format!(
            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":{pid},\
             \"tid\":{tid},\"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
            us(ts_ns.saturating_sub(dur_ns)),
            us(dur_ns),
        )
    };
    let instant = |name: &str, cat: &str, args: String| {
        format!(
            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"pid\":{pid},\
             \"tid\":{tid},\"ts\":{},\"s\":\"t\",\"args\":{{{args}}}}}",
            us(ts_ns),
        )
    };
    match event {
        Event::PoolEviction { bytes } => {
            instant("pool-evict", "pool", format!("\"bytes\":{bytes}"))
        }
        Event::DeltaSnapshot {
            table,
            delta_rows,
            tombstones,
            index_built,
            dur_ns,
        } => span(
            "snapshot",
            "delta",
            *dur_ns,
            format!(
                "\"table\":\"{}\",\"delta_rows\":{delta_rows},\"tombstones\":{tombstones},\
                 \"index_built\":{index_built}",
                json_escape(table),
            ),
        ),
        Event::IoRetry { op } => instant("io-retry", "io", format!("\"op\":\"{op}\"")),
        Event::IoFault { kind } => instant("io-fault", "io", format!("\"kind\":\"{kind}\"")),
        Event::SegmentLoad {
            table,
            column,
            segment,
            bytes,
            dur_ns,
        } => span(
            &format!("load {segment}"),
            "pool",
            *dur_ns,
            format!(
                "\"table\":\"{}\",\"column\":\"{}\",\"bytes\":{bytes}",
                json_escape(table),
                json_escape(column),
            ),
        ),
        Event::Compaction {
            table,
            delta_rows,
            tombstones,
            rows_out,
            nanos,
            snapshot_nanos,
        } => span(
            "compaction",
            "delta",
            *nanos,
            format!(
                "\"table\":\"{}\",\"delta_rows\":{delta_rows},\"tombstones\":{tombstones},\
                 \"rows_out\":{rows_out},\"snapshot_us\":{}",
                json_escape(table),
                us(*snapshot_nanos),
            ),
        ),
        _ => format!(
            "{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"pid\":{pid},\
             \"tid\":{tid},\"ts\":{},\"s\":\"t\",\"args\":{}}}",
            event.kind(),
            us(ts_ns),
            event.to_json(),
        ),
    }
}

fn name_lane(
    name_track: &mut impl FnMut(&mut Vec<String>, u64, &str),
    out: &mut Vec<String>,
    tid: u64,
    lane: u32,
    lane_names: &BTreeMap<u32, &str>,
) {
    match lane_names.get(&lane) {
        Some(name) => name_track(out, tid, name),
        None => name_track(out, tid, &format!("lane-{lane}")),
    }
}

/// Render one query trace as a complete TEF document.
pub fn render_trace(t: &QueryTrace) -> String {
    render_traces(std::slice::from_ref(t))
}

/// Render several traces (e.g. the whole ring) as one TEF document;
/// each query appears as its own process in the UI.
pub fn render_traces<T: std::borrow::Borrow<QueryTrace>>(traces: &[T]) -> String {
    let mut out = Vec::new();
    for t in traces {
        push_trace(&mut out, t.borrow());
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}",
        out.join(",")
    )
}

/// Strict structural validation of a TEF document: parseable JSON, a
/// `traceEvents` array, and every event carrying the fields its phase
/// requires (`X` → non-negative `ts`+`dur`; `i` → `ts` and a scope;
/// `M` → `args.name`). Returns the event count.
pub fn validate_tef(text: &str) -> Result<usize, String> {
    let doc = minijson::parse(text)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing traceEvents")?
        .as_array()
        .ok_or("traceEvents is not an array")?;
    for (i, ev) in events.iter().enumerate() {
        let err = |msg: &str| format!("event {i}: {msg}");
        if ev.as_object().is_none() {
            return Err(err("not an object"));
        }
        let name = ev
            .get("name")
            .and_then(minijson::Value::as_str)
            .ok_or_else(|| err("missing name"))?;
        if name.is_empty() {
            return Err(err("empty name"));
        }
        let ph = ev
            .get("ph")
            .and_then(minijson::Value::as_str)
            .ok_or_else(|| err("missing ph"))?;
        ev.get("pid")
            .and_then(minijson::Value::as_u64)
            .ok_or_else(|| err("missing pid"))?;
        ev.get("tid")
            .and_then(minijson::Value::as_u64)
            .ok_or_else(|| err("missing tid"))?;
        let ts = || {
            ev.get("ts")
                .and_then(minijson::Value::as_f64)
                .filter(|t| *t >= 0.0)
        };
        match ph {
            "X" => {
                ts().ok_or_else(|| err("X event without non-negative ts"))?;
                ev.get("dur")
                    .and_then(minijson::Value::as_f64)
                    .filter(|d| *d >= 0.0)
                    .ok_or_else(|| err("X event without non-negative dur"))?;
            }
            "i" => {
                ts().ok_or_else(|| err("i event without non-negative ts"))?;
                let scope = ev
                    .get("s")
                    .and_then(minijson::Value::as_str)
                    .ok_or_else(|| err("i event without scope"))?;
                if !matches!(scope, "t" | "p" | "g") {
                    return Err(err("i event with invalid scope"));
                }
            }
            "M" => {
                ev.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(minijson::Value::as_str)
                    .ok_or_else(|| err("M event without args.name"))?;
            }
            other => return Err(err(&format!("unsupported phase {other:?}"))),
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tde_obs::timeline::TimelineEvent;

    fn ev(ts_ns: u64, lane: u32, kind: TimelineKind) -> TimelineEvent {
        TimelineEvent {
            ts_ns,
            lane,
            scope: 1,
            kind,
        }
    }

    fn sample_trace() -> QueryTrace {
        QueryTrace {
            query_id: 42,
            plan_digest: "feedfacecafebeef".into(),
            rows_out: 100,
            elapsed_ns: 9_000,
            error: None,
            phases: vec![("plan", 1_000), ("execute", 8_000)],
            started_ns: 1_000,
            slow: false,
            lanes: vec![(0, "main".into())],
            scope: 1,
            events: vec![
                ev(1_000, 0, TimelineKind::QueryBegin { query_id: 42 }),
                ev(
                    1_200,
                    0,
                    TimelineKind::Event(Event::Decision {
                        point: "hash-strategy",
                        choice: "Direct64K".into(),
                        reason: "keys [\"k\"] pack into 7 bits".into(),
                        encoding: None,
                    }),
                ),
                ev(
                    1_800,
                    0,
                    TimelineKind::Event(Event::SegmentLoad {
                        table: "t".into(),
                        column: "c".into(),
                        segment: "stream",
                        bytes: 512,
                        dur_ns: 300,
                    }),
                ),
                ev(
                    2_000,
                    1,
                    TimelineKind::Morsel {
                        worker: 3,
                        morsel: 7,
                        dur_ns: 1_000,
                    },
                ),
                ev(
                    2_500,
                    0,
                    TimelineKind::OperatorSpan {
                        op: "HashAggregate".into(),
                        label: "HashAggregate [strategy=\"array\"]".into(),
                        op_id: 1,
                        parent: None,
                        blocks: 4,
                        rows: 100,
                        dur_ns: 6_000,
                    },
                ),
                ev(
                    3_000,
                    0,
                    TimelineKind::Event(Event::PoolEviction { bytes: 64 }),
                ),
                ev(
                    4_000,
                    0,
                    TimelineKind::Event(Event::IoRetry { op: "stream" }),
                ),
                ev(
                    5_000,
                    0,
                    TimelineKind::Event(Event::IoFault { kind: "hard-read" }),
                ),
                ev(
                    6_500,
                    2,
                    TimelineKind::Event(Event::Compaction {
                        table: "t".into(),
                        delta_rows: 10,
                        tombstones: 2,
                        rows_out: 1_000,
                        nanos: 500,
                        snapshot_nanos: 200,
                    }),
                ),
                ev(
                    7_000,
                    2,
                    TimelineKind::Event(Event::DeltaSnapshot {
                        table: "t".into(),
                        delta_rows: 10,
                        tombstones: 2,
                        index_built: true,
                        dur_ns: 300,
                    }),
                ),
                ev(10_000, 0, TimelineKind::QueryEnd { query_id: 42 }),
            ],
        }
    }

    #[test]
    fn renders_every_event_kind_and_validates() {
        let doc = render_trace(&sample_trace());
        let n = validate_tef(&doc).unwrap();
        // 11 events + query X + process/thread metadata.
        assert!(n >= 14, "{n} events in {doc}");
        assert!(doc.contains("\"name\":\"morsel\""));
        assert!(doc.contains("\"tid\":1003"));
        assert!(doc.contains("worker-3"));
        // A segment load and a compaction are spans that end where they
        // were recorded.
        assert!(doc.contains(
            "\"name\":\"load stream\",\"cat\":\"pool\",\"ph\":\"X\",\"pid\":42,\"tid\":1,\
             \"ts\":1.500,\"dur\":0.300"
        ));
        assert!(doc.contains("digest=feedfacecafebeef"));
        assert!(doc.contains("\"name\":\"compaction\",\"cat\":\"delta\",\"ph\":\"X\""));
        assert!(doc.contains("\"ts\":6.000,\"dur\":0.500"));
        // Any other event is an instant carrying the event's JSON.
        assert!(doc.contains(
            "\"name\":\"decision\",\"cat\":\"event\",\"ph\":\"i\",\"pid\":42,\"tid\":1,\
             \"ts\":1.200,\"s\":\"t\",\"args\":{\"kind\":\"decision\",\"point\":\"hash-strategy\""
        ));
        assert!(doc.contains("\"snapshot_us\":0.200"));
        assert!(doc.contains("\"index_built\":true"));
        // Operator spans carry the whole plan label, quotes escaped.
        assert!(doc.contains(r#""label":"HashAggregate [strategy=\"array\"]""#));
        // Fractional-microsecond timestamps.
        assert!(doc.contains("\"ts\":1.500"));
    }

    #[test]
    fn error_traces_carry_the_error() {
        let mut t = sample_trace();
        t.error = Some("injected hard read failure".into());
        t.rows_out = 0;
        let doc = render_trace(&t);
        validate_tef(&doc).unwrap();
        assert!(doc.contains("\"error\":\"injected hard read failure\""));
    }

    #[test]
    fn multi_trace_documents_use_one_process_per_query() {
        let mut b = sample_trace();
        b.query_id = 43;
        let doc = render_traces(&[sample_trace(), b]);
        validate_tef(&doc).unwrap();
        assert!(doc.contains("\"pid\":42"));
        assert!(doc.contains("\"pid\":43"));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_tef("{").is_err());
        assert!(validate_tef("{}").unwrap_err().contains("traceEvents"));
        assert!(validate_tef("{\"traceEvents\":1}").is_err());
        // Missing dur on an X event.
        let bad = "{\"traceEvents\":[{\"name\":\"q\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":1}]}";
        assert!(validate_tef(bad).unwrap_err().contains("dur"));
        // Unsupported phase.
        let bad = "{\"traceEvents\":[{\"name\":\"q\",\"ph\":\"Z\",\"pid\":1,\"tid\":0}]}";
        assert!(validate_tef(bad).unwrap_err().contains("phase"));
        // Instant without scope.
        let bad = "{\"traceEvents\":[{\"name\":\"q\",\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":1}]}";
        assert!(validate_tef(bad).unwrap_err().contains("scope"));
        // Metadata without args.name.
        let bad = "{\"traceEvents\":[{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0}]}";
        assert!(validate_tef(bad).unwrap_err().contains("args.name"));
    }
}
