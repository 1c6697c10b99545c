//! The benchmark's own spans: one per call into a layer, kept in memory
//! and written at exit as Chrome trace events. Off in the timed run.
//!
//! Spans use the engine's trace clock (`tde_obs::timeline::now_ns`), so
//! operator spans read back from the engine's `QueryTrace` land on the
//! same time axis as the spans recorded around them.

use std::fmt::Write as _;
use tde_obs::timeline::now_ns;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The benchmark operation the span belongs to.
    pub op_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Default)]
pub struct Spans {
    pub on: bool,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    pub op_id: u64,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            ..Spans::default()
        }
    }

    /// Open a span under the innermost open one. Returns a handle for
    /// [`Spans::end`]; `usize::MAX` when spans are off.
    pub fn begin(&mut self, name: &str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(id);
        id
    }

    /// Close a span; returns its duration in nanoseconds.
    pub fn end(&mut self, id: usize) -> u64 {
        if id == usize::MAX {
            return 0;
        }
        let end = now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        self.spans[id].end_ns = end;
        self.spans[id].dur_ns()
    }

    /// Record an already-measured interval (an engine operator span) as a
    /// child of `parent`.
    pub fn add_closed(&mut self, name: &str, start_ns: u64, dur_ns: u64, parent: usize) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: Some(parent),
            op_id: self.op_id,
        });
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
    pub fn to_trace_json(&self, workload: &str) -> String {
        let own = self.self_ns();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"workload\":\"{workload}\",\"op_id\":{},\
                 \"parent\":{},\"self_ns\":{}}}}}",
                tde_obs::json_escape(&s.name),
                s.name.split('.').next().unwrap_or(""),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op_id,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                own[i],
            )
            .expect("write to String");
        }
        out.push_str("]}");
        out
    }
}
