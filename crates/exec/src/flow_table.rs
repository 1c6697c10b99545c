//! FlowTable: turn a stream of row blocks into a table (paper §3.3).
//!
//! The stop-and-go operator at the heart of the paper's import and
//! decompression-join machinery. Each column is encoded *independently*
//! with the dynamic encoder, so the per-column work is distributed across
//! the available cores (one task per column on the morsel runtime, once
//! the build is large enough to repay a worker) — substituting
//! processing power for memory and I/O bandwidth. The build
//! step finishes with the §3.4 post-processing manipulations (optimal
//! conversion, heap sorting, narrowing, metadata extraction), which is how a FlowTable on the inner side of an expansion
//! join hands the tactical optimizer the metadata it needs (§4.1.2): a
//! filtered dense token range re-asserts the *dense* property, a computed
//! string column gets a sorted minimal-width heap, and so on.

use crate::block::{Block, Field, Repr, Schema};
use crate::expr::token_str;
use crate::morsel::{build_degree, run_morsels};
use crate::{BoxOp, Operator};
use std::sync::Arc;
use tde_encodings::{ColumnStats, BLOCK_SIZE};
use tde_storage::builder::stats_metadata;
use tde_storage::{BuiltColumn, ColumnBuilder, Compression, EncodingPolicy, Table};
use tde_types::sentinel::NULL_I64;
use tde_types::DataType;

/// FlowTable configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowTableOptions {
    /// Column build policy (the strategic optimizer passes
    /// [`EncodingPolicy::inner_side`] for hash-join inners, §4.3).
    pub policy: EncodingPolicy,
}

/// The built table plus per-column build diagnostics.
#[derive(Debug)]
pub struct BuiltTable {
    /// The materialized table.
    pub table: Arc<Table>,
    /// Mid-load re-encoding count per column.
    pub reencodings: Vec<u32>,
}

/// Consume `input` entirely and build a table named `name`.
pub fn flow_table(input: BoxOp, name: &str, opts: FlowTableOptions) -> BuiltTable {
    let schema = input.schema().clone();
    let blocks = crate::drain(input);
    build_from_blocks(&schema, &blocks, name, opts)
}

/// Build a table from already-drained blocks.
pub fn build_from_blocks(
    schema: &Schema,
    blocks: &[Block],
    name: &str,
    opts: FlowTableOptions,
) -> BuiltTable {
    debug_assert!(
        blocks.iter().all(|b| b.weights.is_none()),
        "FlowTable got a run-carrying block"
    );
    let rows: usize = blocks.iter().map(|b| b.len).sum();
    let degree = build_workers(rows, schema.len());
    let order = heaviest_first((0..schema.len()).map(|i| build_cost(&schema.fields[i], blocks, i)));
    let built: Vec<BuiltColumn> = per_column(degree, &order, |i| {
        let chunks: Vec<&[i64]> = blocks.iter().map(|b| &b.columns[i][..]).collect();
        build_column(&schema.fields[i], &chunks, opts.policy)
    });
    let mut reencodings = Vec::with_capacity(built.len());
    let mut columns = Vec::with_capacity(built.len());
    for b in built {
        tde_obs::emit(|| tde_obs::Event::ColumnBuilt {
            table: name.to_owned(),
            column: b.column.name.clone(),
            algorithm: format!("{:?}", b.column.data.algorithm()),
            rows: b.column.data.len(),
            reencodings: b.reencodings,
            final_converted: b.final_converted,
            compacted: false,
        });
        reencodings.push(b.reencodings);
        columns.push(b.column);
    }
    BuiltTable {
        table: Arc::new(Table::new(name, columns)),
        reencodings,
    }
}

/// `f` of every column in `order`, one task per column on the shared
/// morsel runtime (§3.3: columns encode independently), on `degree`
/// workers, returned in column order. Workers claim the columns in
/// `order` — heaviest first ([`heaviest_first`]), so that the heaviest
/// column never starts last while the other workers idle.
pub fn per_column<T: Send>(
    degree: usize,
    order: &[usize],
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let mut done = run_morsels(degree, order.len(), |i| {
        let column = order[i as usize];
        (column, f(column))
    });
    done.sort_unstable_by_key(|&(column, _)| column);
    done.into_iter().map(|(_, out)| out).collect()
}

/// The column indexes by descending estimated `costs`, equal costs in
/// column order.
pub fn heaviest_first(costs: impl IntoIterator<Item = u64>) -> Vec<usize> {
    let costs: Vec<u64> = costs.into_iter().collect();
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&c| std::cmp::Reverse(costs[c]));
    order
}

/// What building column `i` of `blocks` will cost, roughly: the dynamic
/// encoder does the same work on every row, and more on each row that
/// breaks the column's step — a new run, a turn, a jump — where the
/// statistics count a distinct value and a frame or dictionary grows,
/// and what it stores grows with such rows too. Counted over the first
/// block; a column of strings to intern weighs four times as much.
fn build_cost(field: &Field, blocks: &[Block], i: usize) -> u64 {
    let sample = blocks.first().map_or(&[][..], |b| &b.columns[i][..]);
    let breaks = sample
        .windows(3)
        .filter(|w| w[2].wrapping_sub(w[1]) != w[1].wrapping_sub(w[0]))
        .count() as u64;
    let weight = if matches!(field.repr, Repr::TokenCell(_)) {
        4
    } else {
        1
    };
    weight * (1 + breaks)
}

/// Workers for building `ncols` columns of `rows` values each: the one
/// build rule, [`build_degree`], over their 8-byte values.
pub fn build_workers(rows: usize, ncols: usize) -> usize {
    build_degree(rows * ncols * 8)
}

/// Build the column `field` describes from its values, chunk by chunk,
/// through the dynamic encoder and the §3.4 post-processing.
pub fn build_column(field: &Field, chunks: &[&[i64]], policy: EncodingPolicy) -> BuiltColumn {
    match &field.repr {
        Repr::Scalar => {
            let mut b = ColumnBuilder::new(field.name.clone(), field.dtype, policy);
            chunks.iter().for_each(|c| b.append_raw(c));
            b.finish()
        }
        Repr::Token(heap) => {
            // Frozen heap: tokens must be *preserved* so they stay
            // join-compatible with the outer table's tokens (the invisible
            // join equates token values). The token stream is re-encoded
            // and narrowed; the heap is shared as-is, with the sortedness
            // the field claims for it.
            let sorted = field.metadata.sorted_heap_tokens.is_true();
            let mut b = ColumnBuilder::over_heap(field.name.clone(), heap.clone(), sorted, policy);
            chunks.iter().for_each(|c| b.append_raw(c));
            b.finish()
        }
        Repr::TokenCell(_) => {
            // Growing compute heap (§4.1.2): freeze it by re-interning into
            // a fresh heap, which the builder then sorts and narrows — the
            // computed string column ends up with a minimal sorted domain.
            let mut b = ColumnBuilder::new(field.name.clone(), DataType::Str, policy);
            for chunk in chunks {
                for &t in *chunk {
                    b.append_str(token_str(&field.repr, t).as_deref());
                }
            }
            b.finish()
        }
        Repr::DictIndex(dict, _) => {
            // Keep array compression: encode the index stream, clone the
            // dictionary. The claims describe the values the indexes
            // stand for (§3.4.3), at the index stream's width.
            let mut b = ColumnBuilder::new(field.name.clone(), field.dtype, policy);
            chunks.iter().for_each(|c| b.append_raw(c));
            let mut built = b.finish();
            if policy.encodings {
                let width = built.column.metadata.width;
                let stats = dictionary_stats(dict, chunks);
                built.column.metadata = stats_metadata(field.dtype, &stats, width);
            }
            let sorted = dict.windows(2).all(|w| w[0] <= w[1]);
            built.column.compression = Compression::Array {
                dictionary: dict.as_ref().clone(),
                sorted,
            };
            built
        }
    }
}

/// The statistics of the values a dictionary-compressed column's
/// indexes, chunk by chunk, stand for; a left join's NULL among the
/// indexes counts as NULL.
pub fn dictionary_stats(dict: &[i64], chunks: &[&[i64]]) -> ColumnStats {
    let mut stats = ColumnStats::new();
    let mut vals = Vec::with_capacity(BLOCK_SIZE);
    for block in chunks.iter().flat_map(|c| c.chunks(BLOCK_SIZE)) {
        vals.clear();
        vals.extend(
            block
                .iter()
                .map(|&c| if c == NULL_I64 { c } else { dict[c as usize] }),
        );
        stats.update(&vals);
    }
    stats
}

/// Operator wrapper: builds on first pull, then scans the result.
pub struct FlowTable {
    built: Option<BuiltTable>,
    scan: Option<crate::scan::TableScan>,
    schema: Schema,
    input: Option<BoxOp>,
    name: String,
    opts: FlowTableOptions,
}

impl FlowTable {
    /// A FlowTable over `input`.
    pub fn new(input: BoxOp, name: &str, opts: FlowTableOptions) -> FlowTable {
        let schema = input.schema().clone();
        FlowTable {
            built: None,
            scan: None,
            schema,
            input: Some(input),
            name: name.to_owned(),
            opts,
        }
    }

    /// Force the build and return the table.
    pub fn materialize(&mut self) -> Arc<Table> {
        if self.built.is_none() {
            let input = self.input.take().expect("FlowTable already built");
            let built = flow_table(input, &self.name, self.opts);
            // The scan exposes the *built* columns (with their extracted
            // metadata), not the input schema.
            let scan = crate::scan::TableScan::new(built.table.clone());
            self.schema = scan.schema().clone();
            self.scan = Some(scan);
            self.built = Some(built);
        }
        self.built.as_ref().unwrap().table.clone()
    }
}

impl Operator for FlowTable {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_block(&mut self) -> Option<Block> {
        self.materialize();
        self.scan.as_mut().unwrap().next_block()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Expr, Func};
    use crate::filter::Filter;
    use crate::project::Project;
    use crate::scan::TableScan;
    use tde_types::Value;

    fn strings_table() -> Arc<Table> {
        let mut url = ColumnBuilder::new("url", DataType::Str, EncodingPolicy::default());
        let mut hits = ColumnBuilder::new("hits", DataType::Integer, EncodingPolicy::default());
        for i in 0..5000usize {
            url.append_str(Some(&format!(
                "/p{}/f{}.{}",
                i % 7,
                i % 23,
                ["html", "css", "js", "png"][i % 4]
            )));
            hits.append_i64((i % 13) as i64);
        }
        Arc::new(Table::new(
            "requests",
            vec![url.finish().column, hits.finish().column],
        ))
    }

    #[test]
    fn rebuild_roundtrips_values() {
        let t = strings_table();
        let built = flow_table(
            Box::new(TableScan::new(t.clone())),
            "copy",
            FlowTableOptions::default(),
        );
        assert_eq!(built.table.row_count(), 5000);
        for row in (0..5000).step_by(613) {
            assert_eq!(built.table.columns[0].value(row), t.columns[0].value(row));
            assert_eq!(built.table.columns[1].value(row), t.columns[1].value(row));
        }
    }

    #[test]
    fn computed_string_column_gets_sorted_minimal_heap() {
        // The §4.1.2 scenario: extract the file extension; FlowTable must
        // produce a sorted small heap with narrowed tokens.
        let t = strings_table();
        let p = Project::new(
            Box::new(TableScan::project(t, &["url"], false)),
            vec![(
                "ext".into(),
                Expr::Func(Func::FileExtension, Box::new(Expr::col(0))),
            )],
        );
        let built = flow_table(Box::new(p), "exts", FlowTableOptions::default());
        let col = &built.table.columns[0];
        match &col.compression {
            Compression::Heap { heap, sorted } => {
                assert!(*sorted, "small computed heap must be sorted");
                assert_eq!(heap.len(), 4);
            }
            other => panic!("expected heap compression, got {other:?}"),
        }
        assert!(
            col.metadata.width < tde_types::Width::W8,
            "tokens must narrow"
        );
        assert_eq!(col.value(0), Value::Str("html".into()));
        assert_eq!(col.value(1), Value::Str("css".into()));
    }

    #[test]
    fn filtered_dense_range_reasserts_dense() {
        // A dense id column filtered to a contiguous range must come out
        // of FlowTable with the dense property re-asserted (§3.4.2).
        let mut id = ColumnBuilder::new("id", DataType::Integer, EncodingPolicy::default());
        for i in 0..10_000i64 {
            id.append_i64(i);
        }
        let t = Arc::new(Table::new("t", vec![id.finish().column]));
        let f = Filter::new(
            Box::new(TableScan::new(t)),
            Expr::And(
                Box::new(Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::int(2000))),
                Box::new(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(3000))),
            ),
        );
        let built = flow_table(Box::new(f), "sub", FlowTableOptions::default());
        let md = &built.table.columns[0].metadata;
        assert!(md.dense.is_true());
        assert!(md.unique.is_true());
        assert_eq!(md.min, Some(2000));
        assert_eq!(md.max, Some(2999));
    }

    /// The E8 table (§4.3): a dense ascending id — a tiny delta stream
    /// while its order holds — beside `val = i % 89`.
    fn e8_table(rows: i64) -> Arc<Table> {
        let mut id = ColumnBuilder::new("id", DataType::Integer, EncodingPolicy::default());
        let mut val = ColumnBuilder::new("val", DataType::Integer, EncodingPolicy::default());
        for i in 0..rows {
            id.append_i64(i);
            val.append_i64(i % 89);
        }
        Arc::new(Table::new(
            "t",
            vec![id.finish().column, val.finish().column],
        ))
    }

    #[test]
    fn disturbed_block_order_grows_the_encoding() {
        // Why order is preserved upstream of encoders: the same filtered
        // blocks, adjacent pairs swapped, encode much larger.
        let t = e8_table(200_000);
        let scan = TableScan::new(t);
        let schema = scan.schema().clone();
        let mut blocks = crate::drain(Box::new(scan));
        for b in &mut blocks {
            let mut sel = tde_encodings::Selection::all(b.len);
            let val = &b.columns[1];
            sel.retain(|r| val[r] % 89 < 60);
            b.select(&sel);
        }
        let size = |blocks: &[Block]| {
            build_from_blocks(&schema, blocks, "r", FlowTableOptions::default())
                .table
                .physical_size()
        };
        let in_order = size(&blocks);
        for pair in blocks.chunks_exact_mut(2) {
            pair.swap(0, 1);
        }
        let disturbed = size(&blocks);
        assert!(
            2 * disturbed >= 3 * in_order,
            "in order {in_order} B, disturbed {disturbed} B"
        );
    }

    #[test]
    fn morsel_output_encodes_like_serial_output() {
        // §4.3's guarantee, unconditional: a parallel pipeline feeding an
        // encoder delivers the serial order, so the encoder makes the
        // same choices and the table has the same physical size.
        use crate::morsel::{MorselExec, MorselPipeline};
        let t = e8_table(200_000);
        let pred = Expr::cmp(CmpOp::Lt, Expr::col(1), Expr::int(60));
        let serial = flow_table(
            Box::new(TableScan::new(t.clone()).with_pushed(pred.clone(), false)),
            "serial",
            FlowTableOptions::default(),
        );
        let source = crate::Source::from(&t).resolve(&["id", "val"]).unwrap();
        let morsels = MorselExec::new(source, false, Some((pred, false)), MorselPipeline::Emit, 4);
        let parallel = flow_table(Box::new(morsels), "parallel", FlowTableOptions::default());
        assert_eq!(parallel.table.physical_size(), serial.table.physical_size());
        for (p, s) in parallel.table.columns.iter().zip(&serial.table.columns) {
            assert_eq!(p.data.algorithm(), s.data.algorithm(), "column {}", s.name);
        }
    }

    #[test]
    fn heaviest_first_keeps_the_columns_and_their_bytes() {
        // A run-length key, an affine id and a random dictionary column:
        // the schedule starts the dictionary column, yet the table holds
        // what building each column in turn holds.
        let rows = 40_000i64;
        let mut cols = Vec::new();
        for (name, f) in [
            ("key", &(|i: i64| i / 5000) as &dyn Fn(i64) -> i64),
            ("id", &|i| 1000 + 3 * i),
            ("cat", &|i| {
                (i.wrapping_mul(0x9E37_79B9) >> 7) % 16 * 1_000_003
            }),
        ] {
            let mut b = ColumnBuilder::new(name, DataType::Integer, EncodingPolicy::default());
            (0..rows).for_each(|i| b.append_i64(f(i)));
            cols.push(b.finish().column);
        }
        let t = Arc::new(Table::new("t", cols));
        let scan = TableScan::new(t);
        let schema = scan.schema().clone();
        let blocks = crate::drain(Box::new(scan));
        let costs: Vec<u64> = (0..3)
            .map(|i| build_cost(&schema.fields[i], &blocks, i))
            .collect();
        assert_eq!(heaviest_first(costs), [2, 0, 1]);
        let built = build_from_blocks(&schema, &blocks, "r", FlowTableOptions::default());
        for (i, col) in built.table.columns.iter().enumerate() {
            let chunks: Vec<&[i64]> = blocks.iter().map(|b| &b.columns[i][..]).collect();
            let alone = build_column(&schema.fields[i], &chunks, EncodingPolicy::default());
            assert_eq!(col.name, alone.column.name);
            assert_eq!(
                col.data.as_bytes(),
                alone.column.data.as_bytes(),
                "{}",
                col.name
            );
        }
        // On two workers too, results come back in column order.
        let out = per_column(2, &[2, 0, 1], |c| c * 10);
        assert_eq!(out, [0, 10, 20]);
    }

    #[test]
    fn panicking_column_build_surfaces_its_message() {
        // A schema wider than the blocks: building column 1 indexes past
        // the block's columns. The panic must arrive with that message,
        // whichever worker hit it.
        let schema = Schema::new(vec![
            Field::scalar("a", DataType::Integer),
            Field::scalar("b", DataType::Integer),
        ]);
        let blocks = vec![Block::new(vec![vec![1, 2, 3]])];
        let panic = std::panic::catch_unwind(|| {
            build_from_blocks(&schema, &blocks, "bad", FlowTableOptions::default())
        })
        .expect_err("column 1 has no data");
        let msg = panic
            .downcast_ref::<String>()
            .expect("panic carries a message");
        assert!(msg.contains("index out of bounds"), "{msg}");
    }

    #[test]
    fn operator_wrapper_scans_built_table() {
        let t = strings_table();
        let mut ft = FlowTable::new(
            Box::new(TableScan::new(t)),
            "w",
            FlowTableOptions::default(),
        );
        let mut rows = 0;
        while let Some(b) = ft.next_block() {
            rows += b.len;
        }
        assert_eq!(rows, 5000);
    }
}
