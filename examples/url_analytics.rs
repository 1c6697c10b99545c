//! The paper's §4.1.2 string scenario, end to end: a log of URL requests,
//! a computed file-extension column pushed onto the dictionary side of an
//! expansion join, and an aggregation that benefits from the narrow sorted
//! tokens FlowTable produced for the computed domain.
//!
//! "Consider the situation of a string column containing URL requests and
//! a calculation to extract the file extension of the request. … If the
//! query then aggregates on this computation the aggregation operator will
//! be able to use a faster hashing algorithm thanks to the narrower
//! representation."
//!
//! ```sh
//! cargo run --release --example url_analytics [rows]
//! ```

use std::sync::Arc;
use tde::exec::aggregate::{AggSpec, HashAggregate};
use tde::exec::expr::{AggFunc, Expr, Func};
use tde::exec::flow_table::{flow_table, FlowTableOptions};
use tde::exec::project::Project;
use tde::exec::scan::TableScan;
use tde::exec::{drain, Operator};
use tde::storage::{ColumnBuilder, Compression, EncodingPolicy, Table};
use tde::types::DataType;

fn main() {
    let rows: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(500_000);
    println!("building a {rows}-row request log ...");
    let exts = [
        "html", "css", "js", "png", "jpg", "svg", "ico", "woff2", "json", "map",
    ];
    let mut url = ColumnBuilder::new("url", DataType::Str, EncodingPolicy::default());
    let mut bytes = ColumnBuilder::new("bytes", DataType::Integer, EncodingPolicy::default());
    for i in 0..rows {
        url.append_str(Some(&format!(
            "/assets/v{}/page{}/resource{}.{}",
            i % 3,
            i % 97,
            i % 1009,
            exts[i % exts.len()]
        )));
        bytes.append_i64(((i * 7919) % 50_000) as i64);
    }
    let log = Arc::new(Table::new(
        "requests",
        vec![url.finish().column, bytes.finish().column],
    ));
    let url_col = &log.columns[0];
    println!(
        "  url column: {} distinct strings, heap {} KB, token width {}",
        url_col
            .metadata
            .cardinality
            .map_or("many".into(), |c| c.to_string()),
        url_col.heap().map_or(0, |h| h.byte_size() / 1024),
        url_col.metadata.width,
    );

    // Compute the extension per row and materialize through FlowTable:
    // the computed column starts with wide tokens in an unsorted compute
    // heap; FlowTable sorts and narrows it (§4.1.2).
    let project = Project::new(
        Box::new(TableScan::project(log.clone(), &["url", "bytes"], false)),
        vec![
            (
                "ext".into(),
                Expr::Func(Func::FileExtension, Box::new(Expr::col(0))),
            ),
            ("bytes".into(), Expr::col(1)),
        ],
    );
    let built = flow_table(Box::new(project), "by_ext", FlowTableOptions::default());
    let ext_col = &built.table.columns[0];
    match &ext_col.compression {
        Compression::Heap { heap, sorted } => println!(
            "\ncomputed ext column after FlowTable: {} distinct, sorted={}, token width {}",
            heap.len(),
            sorted,
            ext_col.metadata.width,
        ),
        _ => unreachable!(),
    }

    // Aggregate: requests and bytes per extension. The narrow token keys
    // let the tactical optimizer choose direct hashing.
    let scan = Box::new(TableScan::new(built.table.clone()));
    let agg = HashAggregate::new(
        scan,
        vec![0],
        vec![
            AggSpec::new(AggFunc::Count, 1, "requests"),
            AggSpec::new(AggFunc::Sum, 1, "bytes"),
        ],
    );
    println!(
        "aggregation hash strategy: {}\n",
        agg.strategy.expect("grouped by a key").name()
    );
    let schema = agg.schema().clone();
    let blocks = drain(Box::new(agg));
    println!("{:<8} {:>9} {:>13}", "ext", "requests", "bytes");
    let mut rows_out: Vec<(String, i64, i64)> = Vec::new();
    for b in &blocks {
        for r in 0..b.len {
            rows_out.push((
                schema.fields[0].value_of(b.columns[0][r]).to_string(),
                b.columns[1][r],
                b.columns[2][r],
            ));
        }
    }
    rows_out.sort_by_key(|r| std::cmp::Reverse(r.1));
    for (ext, n, total) in rows_out {
        println!("{ext:<8} {n:>9} {total:>13}");
    }
}
