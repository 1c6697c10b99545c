//! # tde-stats — metrics export for the TDE engine
//!
//! Renders the process-wide [`tde_obs::metrics`] registry in two wire
//! formats:
//!
//! * **Prometheus text exposition** ([`prometheus_text`]): `# HELP` /
//!   `# TYPE` metadata, labeled samples, and histogram
//!   `_bucket`/`_sum`/`_count` series — scrapeable by any Prometheus-
//!   compatible collector. [`prometheus::validate`] is a strict parser
//!   used by tests and by the `tde-stats` binary's self-check.
//! * **JSON** ([`json_text`]): one object per instrument with its name,
//!   labels, kind, and value — readable by ad-hoc tooling via the
//!   bundled [`minijson`] parser.
//!
//! The [`tef`] module renders query timelines from
//! [`tde_obs::timeline`] as Chrome Trace Event Format documents that
//! Perfetto and `chrome://tracing` load directly, with a strict
//! self-validator.
//!
//! The [`http`] module serves all of it from a minimal blocking
//! endpoint (`GET /metrics`, `GET /metrics.json`, `GET /spans`,
//! `GET /trace/<query_id>`) with no external dependencies.

pub mod http;
pub mod minijson;
pub mod prometheus;
pub mod tef;

use tde_obs::metrics::{MetricsSnapshot, SampleValue};

/// The global registry in Prometheus text exposition format.
pub fn prometheus_text() -> String {
    prometheus::render(&tde_obs::metrics::global().snapshot())
}

/// The global registry as JSON.
pub fn json_text() -> String {
    render_json(&tde_obs::metrics::global().snapshot())
}

/// Render any snapshot as JSON: `{"metrics":[{...},...]}`, one object
/// per instrument, in registry (sorted) order.
pub fn render_json(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(snapshot.samples.len() * 96 + 16);
    out.push_str("{\"metrics\":[");
    for (i, s) in snapshot.samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        out.push_str(&tde_obs::json_escape(&s.name));
        out.push_str("\",\"labels\":{");
        for (j, (k, v)) in s.labels.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&tde_obs::json_escape(k));
            out.push_str("\":\"");
            out.push_str(&tde_obs::json_escape(v));
            out.push('"');
        }
        out.push_str("},\"help\":\"");
        out.push_str(&tde_obs::json_escape(s.help));
        out.push_str("\",");
        match &s.value {
            SampleValue::Counter(v) => {
                out.push_str(&format!("\"type\":\"counter\",\"value\":{v}"));
            }
            SampleValue::Gauge(v) => {
                out.push_str(&format!("\"type\":\"gauge\",\"value\":{v}"));
            }
            SampleValue::Histogram(h) => {
                out.push_str(&format!(
                    "\"type\":\"histogram\",\"count\":{},\"sum\":{},\"buckets\":[",
                    h.count, h.sum
                ));
                for (j, (bound, cum)) in h.buckets.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("[{bound},{cum}]"));
                }
                out.push(']');
            }
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tde_obs::metrics::MetricsRegistry;

    fn sample_registry() -> MetricsRegistry {
        let r = MetricsRegistry::new();
        r.counter("tde_queries_total", "Queries executed").add(3);
        r.counter_with("tde_op_rows_total", "Rows", &[("op", "Scan")])
            .add(100);
        r.counter_with("tde_op_rows_total", "Rows", &[("op", "Filter")])
            .add(40);
        r.gauge("tde_pool_resident_bytes", "Resident").set(4096);
        let h = r.histogram("tde_query_latency_ns", "Latency");
        for v in [300u64, 900, 40_000] {
            h.observe(v);
        }
        r
    }

    #[test]
    fn json_round_trips_through_minijson() {
        let text = render_json(&sample_registry().snapshot());
        let v = minijson::parse(&text).expect("render_json must emit valid JSON");
        let metrics = v.get("metrics").unwrap().as_array().unwrap();
        assert_eq!(metrics.len(), 5);
        let q = metrics
            .iter()
            .find(|m| m.get("name").unwrap().as_str() == Some("tde_queries_total"))
            .unwrap();
        assert_eq!(q.get("type").unwrap().as_str(), Some("counter"));
        assert_eq!(q.get("value").unwrap().as_u64(), Some(3));
        let h = metrics
            .iter()
            .find(|m| m.get("name").unwrap().as_str() == Some("tde_query_latency_ns"))
            .unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(3));
        assert!(!h.get("buckets").unwrap().as_array().unwrap().is_empty());
    }

    #[test]
    fn prometheus_text_validates() {
        let text = prometheus::render(&sample_registry().snapshot());
        prometheus::validate(&text).expect("rendered exposition must validate");
        assert!(text.contains("# TYPE tde_query_latency_ns histogram"));
        assert!(text.contains("tde_op_rows_total{op=\"Scan\"} 100"));
        assert!(text.contains("le=\"+Inf\""));
    }

    #[test]
    fn global_exports_are_consistent() {
        // The global registry may be disabled (TDE_METRICS=0) or already
        // populated by sibling tests; only shape is asserted.
        let text = prometheus_text();
        prometheus::validate(&text).unwrap();
        minijson::parse(&json_text()).unwrap();
    }
}
