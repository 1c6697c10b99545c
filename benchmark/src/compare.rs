//! `tde-benchmark compare <runA.json> <runB.json>`: one row per
//! (workload, end-to-end metric) with both sides' median and quartiles,
//! their ratio and a verdict against the bound in `BENCHMARK.json`.
//! A is the parent, B the change; exits non-zero on any `worse`.

use crate::stats::Summary;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use tde_stats::minijson::{self, Value};

fn invalid(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

fn load(path: &Path) -> io::Result<Value> {
    let text = std::fs::read_to_string(path)?;
    minijson::parse(&text).map_err(|e| invalid(format!("{}: {e}", path.display())))
}

/// (workload, metric) → the values of the timed (spans-off) runs.
fn timed_values(results: &Value) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let runs = results.get("runs").and_then(Value::as_array).unwrap_or(&[]);
    for run in runs {
        if run.get("trace").and_then(Value::as_u64) != Some(0) {
            continue;
        }
        let workload = run.get("workload").and_then(Value::as_str).unwrap_or("?");
        let metrics = run.get("metrics").and_then(Value::as_object).unwrap_or(&[]);
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                out.entry((workload.to_owned(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    out
}

/// Verdict of B against A for one metric.
pub fn verdict(a: &Summary, b: &Summary, higher_is_better: bool, bound: f64) -> &'static str {
    if a.spread().max(b.spread()) > bound {
        return "unresolved";
    }
    // > 1 means B is worse than A.
    let worsening = if higher_is_better {
        a.median / b.median
    } else {
        b.median / a.median
    };
    if worsening > 1.0 + bound {
        "worse"
    } else if worsening < 1.0 / (1.0 + bound) {
        "better"
    } else {
        "same"
    }
}

/// Print the comparison; `Ok(true)` when no metric is `worse`.
pub fn compare(benchmark_json: &Path, a: &Path, b: &Path) -> io::Result<bool> {
    let contract = load(benchmark_json)?;
    let (a, b) = (timed_values(&load(a)?), timed_values(&load(b)?));
    let metrics = contract
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or_else(|| invalid("BENCHMARK.json has no end_to_end list".into()))?;
    println!(
        "{:<16} {:<28} {:>12} {:>20} {:>12} {:>20} {:>7}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "B/A"
    );
    let mut ok = true;
    for ((workload, name), va) in &a {
        let Some(vb) = b.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let Some(m) = metrics
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some(name))
        else {
            continue;
        };
        let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
        let higher = m.get("better").and_then(Value::as_str) == Some("higher");
        let (sa, sb) = (Summary::of(va), Summary::of(vb));
        let v = verdict(&sa, &sb, higher, bound);
        ok &= v != "worse";
        println!(
            "{workload:<16} {name:<28} {:>12.4} {:>20} {:>12.4} {:>20} {:>7.3}  {v}",
            sa.median,
            format!("{:.4}..{:.4}", sa.q1, sa.q3),
            sb.median,
            format!("{:.4}..{:.4}", sb.q1, sb.q3),
            sb.median / sa.median,
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(values: &[f64]) -> Summary {
        Summary::of(values)
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let a = side(&[10.0, 10.1, 9.9, 10.0]);
        assert_eq!(
            verdict(&a, &side(&[10.2, 10.3, 10.1, 10.2]), false, 0.1),
            "same"
        );
        assert_eq!(
            verdict(&a, &side(&[12.0, 12.1, 11.9, 12.0]), false, 0.1),
            "worse"
        );
        assert_eq!(
            verdict(&a, &side(&[12.0, 12.1, 11.9, 12.0]), true, 0.1),
            "better"
        );
        assert_eq!(
            verdict(&a, &side(&[8.0, 8.1, 7.9, 8.0]), false, 0.1),
            "better"
        );
        // One side spread wider than the bound: no verdict either way.
        assert_eq!(
            verdict(&a, &side(&[8.0, 12.0, 10.0, 14.0]), false, 0.1),
            "unresolved"
        );
    }
}
