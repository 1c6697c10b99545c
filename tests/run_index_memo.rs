//! Lifecycle of the run-structure memo: a resident table builds each
//! run-length column's IndexTable and run index once (`Table::run_index`)
//! and every query, morsel partition and §8 rollup partition over the
//! same `Arc<Table>` shares them.
//!
//! - Repeated queries — serial, degree 4, and the §8 rollup — leave the
//!   table's build counter at one per queried run-length column, and
//!   answer like the plan without IndexTables.
//! - A clone starts with an empty memo.
//! - Rewriting a clone's run-length column leaves the clone answering
//!   like a from-scratch build of the rewritten data, and the original's
//!   memo and answers untouched.

use std::sync::Arc;
use tde::encodings::{manipulate, EncodedStream, BLOCK_SIZE};
use tde::exec::aggregate::AggSpec;
use tde::exec::expr::{AggFunc, CmpOp, Expr};
use tde::exec::morsel::MorselExec;
use tde::exec::Operator;
use tde::plan::strategic::OptimizerOptions;
use tde::storage::{Column, ColumnBuilder, Table};
use tde::types::{DataType, Value, Width};
use tde::Query;

const ROWS: i64 = 40_000;

/// The §5.3 shape: `primary` sorted in 100 runs, `secondary` cycling
/// through 100 values in runs of 40 (both run-length), and a plain `id`.
fn keys() -> (Vec<i64>, Vec<i64>) {
    let primary = (0..ROWS).map(|i| i * 100 / ROWS).collect();
    let secondary = (0..ROWS).map(|i| (i / 40) % 100).collect();
    (primary, secondary)
}

fn rle(vals: &[i64]) -> EncodedStream {
    let mut s = EncodedStream::new_rle(Width::W8, true, Width::W4, Width::W2);
    for c in vals.chunks(BLOCK_SIZE) {
        s.append_block(c).unwrap();
    }
    s
}

fn table(primary: &[i64], secondary: &[i64]) -> Arc<Table> {
    let mut id = ColumnBuilder::new("id", DataType::Integer, Default::default());
    for i in 0..ROWS {
        id.append_i64(1_000 + 3 * i);
    }
    Arc::new(Table::new(
        "memo_t",
        vec![
            Column::scalar("primary", DataType::Integer, rle(primary)),
            Column::scalar("secondary", DataType::Integer, rle(secondary)),
            id.finish().column,
        ],
    ))
}

fn no_index_tables() -> OptimizerOptions {
    OptimizerOptions {
        index_tables: false,
        ordered_retrieval: false,
        ..OptimizerOptions::default()
    }
}

/// Fig 10 on both keys, a run aggregate, and a degree-4 query, each
/// answer's rows sorted (hash and ordered aggregation order groups
/// differently).
fn answers(t: &Arc<Table>, opts: OptimizerOptions) -> Vec<Vec<Vec<Value>>> {
    let fig10 = |key: &str, other: &str, at: i64| {
        Query::scan_columns(t, &[key, other])
            .filter(Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::int(at)))
            .aggregate(vec![0], vec![(AggFunc::Max, 1, "mx")])
            .with_optimizer(opts)
    };
    vec![
        fig10("primary", "secondary", 90).rows(),
        fig10("secondary", "primary", 95).rows(),
        fig10("secondary", "primary", 75).with_parallelism(4).rows(),
        Query::scan_columns(t, &["secondary", "primary"])
            .filter(Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::int(42)))
            .aggregate(
                vec![],
                vec![(AggFunc::Count, 0, "n"), (AggFunc::Sum, 1, "s")],
            )
            .with_optimizer(opts)
            .rows(),
        Query::scan_columns(t, &["id", "primary"])
            .filter(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(60_000)))
            .aggregate(vec![1], vec![(AggFunc::Count, 0, "n")])
            .with_optimizer(OptimizerOptions {
                parallelism: 4,
                ..opts
            })
            .rows(),
    ]
    .into_iter()
    .map(|mut rows| {
        rows.sort_by_key(|r| r.iter().map(Value::as_i64).collect::<Vec<_>>());
        rows
    })
    .collect()
}

/// The §8 rollup over the memoised IndexTable of `primary`, fetching
/// `secondary` through its memoised run index, at 1 and 4 workers.
fn rollups(t: &Arc<Table>) -> Vec<Vec<i64>> {
    let index = t.run_index(0).unwrap().0.index.unwrap();
    let aggs = vec![
        AggSpec::new(AggFunc::Count, 1, "n"),
        AggSpec::new(AggFunc::Max, 1, "mx"),
    ];
    let mut out = Vec::new();
    for workers in [1, 4] {
        let mut op = MorselExec::rollup(&index, t, &["secondary"], aggs.clone(), workers);
        while let Some(b) = op.next_block() {
            for r in 0..b.len {
                out.push(b.columns.iter().map(|c| c[r]).collect());
            }
        }
    }
    out
}

#[test]
fn repeated_queries_build_each_run_index_once() {
    let (primary, secondary) = keys();
    let t = table(&primary, &secondary);
    let control = answers(&Arc::new((*t).clone()), no_index_tables());
    for pass in 0..3 {
        assert_eq!(
            answers(&t, OptimizerOptions::default()),
            control,
            "pass {pass}"
        );
        let rolled = rollups(&t);
        assert_eq!(rolled.len(), 200, "100 primary values at 1 and 4 workers");
        assert_eq!(rolled[..100], rolled[100..], "pass {pass}");
        assert_eq!(rolled[0], vec![0, 400, 9]);
        assert_eq!(
            t.run_index_builds(),
            2,
            "pass {pass}: primary and secondary"
        );
    }
    assert!(t.run_index(2).is_none(), "id is not run-length");
    assert_eq!(t.run_index_builds(), 2);
}

#[test]
fn a_clone_starts_with_an_empty_memo() {
    let (primary, secondary) = keys();
    let t = table(&primary, &secondary);
    answers(&t, OptimizerOptions::default());
    assert_eq!(t.run_index_builds(), 2);
    let copy = (*t).clone();
    assert_eq!(copy.run_index_builds(), 0);
    let copy = Arc::new(copy);
    let (view, built) = copy.run_index(1).unwrap();
    assert!(built, "the clone builds its own");
    assert!(!Arc::ptr_eq(&view.runs, &t.run_index(1).unwrap().0.runs));
    assert_eq!(t.run_index_builds(), 2, "the original is untouched");
}

#[test]
fn rewriting_a_clones_runs_leaves_the_original_memo_alone() {
    let (primary, secondary) = keys();
    let t = table(&primary, &secondary);
    let before = answers(&t, OptimizerOptions::default());
    let original_runs = t.run_index(1).unwrap().0.runs;

    // Decompose the clone's `secondary` into runs and rebuild it with
    // new values, in place — as the fuzzer's re-encoding oracle does.
    let remap = |v: i64| (v * 37 + 11) % 100;
    let mut copy = (*t).clone();
    let col = &mut copy.columns[1];
    let (values, counts) = manipulate::rle_decompose(&col.data);
    let values: Vec<i64> = values.into_iter().map(remap).collect();
    col.data = manipulate::rle_rebuild(&values, &counts, true);
    let copy = Arc::new(copy);

    let rewritten: Vec<i64> = secondary.iter().map(|&v| remap(v)).collect();
    let scratch = table(&primary, &rewritten);
    let got = answers(&copy, OptimizerOptions::default());
    assert_eq!(got, answers(&scratch, OptimizerOptions::default()));
    assert_eq!(got, answers(&scratch, no_index_tables()));
    assert_ne!(got, before, "the rewrite changes the answers");

    assert_eq!(answers(&t, OptimizerOptions::default()), before);
    assert!(Arc::ptr_eq(&t.run_index(1).unwrap().0.runs, &original_runs));
    assert_eq!(t.run_index_builds(), 2);
}
