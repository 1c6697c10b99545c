//! Same seed ⇒ same operations and same exact counts; another seed ⇒
//! other operations over the same encodings. Runs at the `--smoke` sizes.
//!
//! Counts that come from the engine's process-wide registry are compared
//! across *processes* (the built binary, run twice), because the tests of
//! one binary share that registry.

use std::path::PathBuf;
use std::process::Command;
use tde_benchmark::driver::{self, Options};
use tde_benchmark::metrics::{END_TO_END, PER_LAYER};
use tde_benchmark::workloads::Workload;
use tde_stats::minijson::{self, Value};

const BIN: &str = env!("CARGO_BIN_EXE_tde-benchmark");

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Run the binary on one workload at smoke size; the parsed result line.
fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Value {
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seconds", "0.5", "--smoke"])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(scratch(&format!(
            "{workload}-{seed}-{trace}-{}",
            extra.len()
        )))
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} exited with {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    minijson::parse(stdout.lines().last().expect("a result line")).expect("a JSON result line")
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no metric {name}"))
}

fn options(workload: Workload, seed: u64, tag: &str) -> Options {
    Options {
        workload,
        seed,
        seconds: 0.0,
        smoke: true,
        inject_wrong_answer: false,
        dir: scratch(&format!("lib-{}-{seed}-{tag}", workload.name())),
        trace_out: None,
    }
}

#[test]
fn a_seed_fixes_the_operation_list_and_another_changes_it() {
    for w in Workload::ALL {
        let a = driver::setup(&options(w, 11, "a"), 0).expect("set-up");
        let b = driver::setup(&options(w, 11, "b"), 0).expect("set-up");
        let c = driver::setup(&options(w, 12, "c"), 0).expect("set-up");
        assert_eq!(a.op_list_digest(), b.op_list_digest(), "{}", w.name());
        assert_ne!(a.op_list_digest(), c.op_list_digest(), "{}", w.name());
        // Whatever the seed, the queried table keeps the encodings the
        // workload's description names.
        for ctx in [&a, &c] {
            for (column, algorithm) in w.promised_encodings() {
                let col = ctx
                    .main_table
                    .column(column)
                    .unwrap_or_else(|| panic!("{}: no column {column}", w.name()));
                assert_eq!(
                    col.data.algorithm().name(),
                    *algorithm,
                    "{}.{column}",
                    w.name()
                );
            }
        }
    }
}

#[test]
fn exact_counts_repeat_for_a_seed() {
    const EXACT: [&str; 9] = [
        "plan.scan_rows_per_source_row",
        "plan.kernel_pushdown_ratio",
        "encodings.kernel_rows_skipped_ratio",
        "encodings.reencodings_per_column",
        "delta.bytes_rewritten_per_user_byte",
        "delta.rows_reencoded_per_compaction",
        "pager.pool_hit_rate",
        "pager.pool_evictions",
        "pager.bytes_read_per_query",
    ];
    for w in Workload::ALL {
        let (a, b) = (run(w.name(), 21, true, &[]), run(w.name(), 21, true, &[]));
        for name in EXACT {
            assert_eq!(metric(&a, name), metric(&b, name), "{} {name}", w.name());
        }
        assert_eq!(a.get("failed").and_then(Value::as_u64), Some(0));
        for &(name, _, _) in &PER_LAYER {
            assert!(metric(&a, name).is_finite(), "{} {name}", w.name());
        }
        let (a, b) = (run(w.name(), 21, false, &[]), run(w.name(), 21, false, &[]));
        let stored = "stored_bytes_per_user_byte";
        assert_eq!(metric(&a, stored), metric(&b, stored), "{}", w.name());
        assert_eq!(a.get("correct").and_then(Value::as_bool), Some(true));
        for m in &END_TO_END {
            assert!(metric(&a, m.name) > 0.0, "{} {}", w.name(), m.name);
        }
    }
}

#[test]
fn an_injected_wrong_answer_is_caught() {
    let r = run("decode_scan", 5, false, &["--inject-wrong-answer"]);
    assert_eq!(r.get("correct").and_then(Value::as_bool), Some(false));
    assert!(r.get("failed").and_then(Value::as_u64).unwrap_or(0) > 0);
}

#[test]
fn the_traced_run_writes_a_valid_trace() {
    let dir = scratch("rle_dashboard-31-true-0");
    run("rle_dashboard", 31, true, &[]);
    let text =
        std::fs::read_to_string(dir.join("trace-rle_dashboard.json")).expect("trace.json written");
    let events = tde_stats::tef::validate_tef(&text).expect("valid trace events");
    assert!(events > 100, "only {events} spans");
    for span in [
        "core.query",
        "plan.optimize",
        "plan.lower",
        "exec.drain",
        "core.materialize",
    ] {
        assert!(
            text.contains(&format!("\"name\":\"{span}\"")),
            "no {span} span"
        );
    }
}

#[test]
fn benchmark_json_names_the_catalogue() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = minijson::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    let list = |key: &str| doc.get(key).and_then(Value::as_array).unwrap().to_vec();
    let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_owned();

    let workloads: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    let e2e = list("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (theirs, ours) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(text(theirs, "name"), ours.name);
        assert_eq!(text(theirs, "unit"), ours.unit);
        assert_eq!(text(theirs, "better"), ours.better);
        assert_eq!(
            theirs.get("bound").and_then(Value::as_f64),
            Some(ours.bound)
        );
    }
    let layers = list("per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (theirs, ours) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(
            (
                text(theirs, "name"),
                text(theirs, "unit"),
                text(theirs, "better")
            ),
            (ours.0.to_owned(), ours.1.to_owned(), ours.2.to_owned())
        );
    }
}
