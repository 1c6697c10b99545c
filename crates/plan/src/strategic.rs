//! The strategic optimizer (paper §2.3.1, §4).
//!
//! Rule-based rewrites applied before execution:
//!
//! 1. **Invisible-join pushdown** (§4.1.1): a filter or computation whose
//!    single column is dictionary-compressed moves onto a DictionaryTable
//!    expansion join's inner side. Computations on the compressed data are
//!    thereby expressed as part of a traditional query plan, without
//!    widening the inter-operator interfaces.
//! 2. **Rank-join pushdown** (§4.2.1): a filter whose single column is
//!    run-length encoded becomes an IndexTable scan — the predicate is
//!    evaluated per *run* and an IndexedScan turns the qualified ranges
//!    into block skips on the outer table.
//! 3. **Ordered retrieval** (§4.2.2): when the query then groups by the
//!    indexed value, the index can additionally be sorted by value so the
//!    downstream aggregation is ordered. This is a costed choice (short
//!    runs degrade it), exposed as an optimizer option so the Fig 10
//!    experiment can compare both.
//!
//! Rules 1 and 2 stand aside when the column's min/max metadata already
//! decides the predicate (§3.4.2): kernel pushdown answers it for free.
//!
//! The lowering in [`crate::physical`] completes the §4.3 hygiene: inner
//! FlowTables get [`tde_storage::EncodingPolicy::inner_side`]. Order
//! upstream of encoders needs no rule: morsel pipelines reassemble in
//! task order.

use crate::logical::{InnerOps, LogicalPlan};
use tde_encodings::kernel::metadata_selection;
use tde_exec::pushdown::{compile_value_set, raw_domain, split_conjuncts};
use tde_exec::Expr;
use tde_storage::Compression;
use tde_types::DataType;

/// Optimizer configuration. The defaults enable every rewrite; the figure
/// harnesses toggle them to build the paper's comparison plans.
#[derive(Debug, Clone, Copy)]
pub struct OptimizerOptions {
    /// Rewrite filters on dictionary-compressed columns to invisible
    /// joins with pushdown.
    pub invisible_joins: bool,
    /// Rewrite filters on run-length columns to IndexTable + IndexedScan.
    pub index_tables: bool,
    /// Sort qualified index rows by value when the query groups by that
    /// value (ordered retrieval).
    pub ordered_retrieval: bool,
    /// Fold compilable single-column filter predicates into the scan so
    /// the per-encoding kernels (§3.1) can answer them in the compressed
    /// domain — run skipping, dictionary-domain evaluation, closed-form
    /// affine ranges, min/max block elision. Applies after the invisible
    /// join and index-table rules decline.
    pub kernel_pushdown: bool,
    /// Morsel-parallel execution degree: with `parallelism >= 2` a
    /// top-level pipeline the morsel executor can run (scan → pushed
    /// filter → aggregate) is wrapped in a [`LogicalPlan::Morsel`] node.
    /// `1` (the default) keeps every pipeline serial.
    pub parallelism: usize,
}

impl Default for OptimizerOptions {
    fn default() -> OptimizerOptions {
        OptimizerOptions {
            invisible_joins: true,
            index_tables: true,
            ordered_retrieval: true,
            kernel_pushdown: true,
            parallelism: 1,
        }
    }
}

/// Apply the strategic rewrites bottom-up, then (root only) the
/// morsel-parallel wrap.
pub fn optimize(plan: LogicalPlan, opts: OptimizerOptions) -> LogicalPlan {
    rewrite_morsel(optimize_inner(plan, opts), opts)
}

/// The recursive rewrite pass (everything except the root-only morsel
/// wrap, which must not fire on interior nodes).
fn optimize_inner(plan: LogicalPlan, opts: OptimizerOptions) -> LogicalPlan {
    let plan = rewrite_children(plan, opts);
    let plan = rewrite_filter_pushdown(plan, opts);
    rewrite_ordered_retrieval(plan, opts)
}

fn rewrite_children(plan: LogicalPlan, opts: OptimizerOptions) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(optimize_inner(*input, opts)),
            predicate,
        },
        LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
            input: Box::new(optimize_inner(*input, opts)),
            exprs,
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => LogicalPlan::Aggregate {
            input: Box::new(optimize_inner(*input, opts)),
            group_by,
            aggs,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(optimize_inner(*input, opts)),
            keys,
        },
        other => other,
    }
}

/// A scan the morsel executor can range over block-by-block.
fn scan_like(plan: &LogicalPlan) -> bool {
    matches!(plan, LogicalPlan::Scan { .. })
}

/// Morsel-parallel wrap (§3.3/§8 generalized): with `parallelism >= 2`,
/// wrap a pipeline the morsel executor can run whole — a scan-like leaf
/// with a pushed predicate, a residual filter over one, or an aggregate
/// over either — in a [`LogicalPlan::Morsel`] node. Applied at the root
/// only, after the other rewrites have settled the pipeline's shape.
/// Lowering makes the final tactical call (merge-safety of the
/// aggregates, morsel count) and may still fall back to serial.
fn rewrite_morsel(plan: LogicalPlan, opts: OptimizerOptions) -> LogicalPlan {
    let eligible = match &plan {
        // A bare scan without a predicate gains nothing from
        // parallelism: the work is a copy, dominated by the merge.
        LogicalPlan::Scan { predicate, .. } => predicate.is_some(),
        LogicalPlan::Filter { input, .. } => scan_like(input),
        LogicalPlan::Aggregate { input, .. } => match input.as_ref() {
            LogicalPlan::Filter { input, .. } => scan_like(input),
            p => scan_like(p),
        },
        _ => false,
    };
    if opts.parallelism < 2 || !eligible {
        return plan;
    }
    LogicalPlan::Morsel {
        input: Box::new(plan),
        degree: opts.parallelism,
    }
}

/// Rule 1 & 2: `Filter(Scan)` with a single-column predicate over a
/// compressed column becomes a decompression join with the predicate on
/// the inner side.
fn rewrite_filter_pushdown(plan: LogicalPlan, opts: OptimizerOptions) -> LogicalPlan {
    let LogicalPlan::Filter { input, predicate } = plan else {
        return plan;
    };
    let LogicalPlan::Scan {
        source,
        columns,
        expand_dictionaries,
        predicate: scan_pred,
    } = input.as_ref()
    else {
        return rewrite_kernel_pushdown(input, predicate, opts);
    };
    // The resident-only guard, in one place: rules 1–3 read the column's
    // dictionary and run structure at plan time, so they fire only on a
    // source whose table is in memory (see `Source::resident`). Every
    // other source goes straight to kernel pushdown.
    let Some(table) = source.resident().cloned() else {
        return rewrite_kernel_pushdown(input, predicate, opts);
    };
    let (columns, expand_dictionaries, scan_pred) =
        (columns.clone(), *expand_dictionaries, scan_pred.clone());
    let Some(col_idx) = predicate.single_column() else {
        return rewrite_kernel_pushdown(input, predicate, opts);
    };
    let table_col = match table.column_index(&columns[col_idx]) {
        Some(i) => i,
        None => return rewrite_kernel_pushdown(input, predicate, opts),
    };
    let column = &table.columns[table_col];

    // Metadata that decides the predicate outright leaves a decompression
    // join nothing to do: kernel pushdown answers it without reading a
    // run or a code (`metadata-minmax`), while an IndexTable or a
    // DictionaryTable would still be built in full to qualify all or none.
    // Without kernel pushdown the join is still cheaper than a Filter.
    let decided = opts.kernel_pushdown
        && raw_domain(column.dtype, column.compression.is_heap())
        && compile_value_set(&predicate)
            .is_some_and(|set| metadata_selection(&column.metadata, &set).is_some());
    if decided {
        return rewrite_kernel_pushdown(input, predicate, opts);
    }

    // Rule 1: dictionary-compressed column → invisible join (§4.1).
    if opts.invisible_joins && !expand_dictionaries {
        if let Compression::Array { .. } = &column.compression {
            // Inner schema is (token, value): the predicate moves from the
            // outer column to the inner `value` column (index 1).
            let inner_pred = predicate.remap_columns(&|_| 1);
            return LogicalPlan::ExpandJoin {
                outer: input,
                column: col_idx,
                source: (table.clone(), table_col),
                inner: InnerOps {
                    filter: Some(inner_pred),
                    compute: None,
                },
            };
        }
        if let Compression::Heap { .. } = &column.compression {
            if column.dtype == DataType::Str {
                // Inner schema is (token): predicate applies to it.
                let inner_pred = predicate.remap_columns(&|_| 0);
                return LogicalPlan::ExpandJoin {
                    outer: input,
                    column: col_idx,
                    source: (table.clone(), table_col),
                    inner: InnerOps {
                        filter: Some(inner_pred),
                        compute: None,
                    },
                };
            }
        }
    }

    // Rule 2: run-length column → IndexTable + IndexedScan (§4.2).
    if opts.index_tables
        && matches!(column.compression, Compression::None)
        && column.data.algorithm() == tde_encodings::Algorithm::RunLength
    {
        // Inner schema is (value, count, start): predicate moves to value.
        let inner_pred = predicate.remap_columns(&|_| 0);
        let fetch: Vec<String> = columns
            .iter()
            .filter(|n| *n != &columns[col_idx])
            .cloned()
            .collect();
        let source = (table.clone(), table_col);
        let node = LogicalPlan::IndexScan {
            source,
            inner: InnerOps {
                filter: Some(inner_pred),
                compute: None,
            },
            sort_by_value: false,
            fetch,
        };
        // Restore the scan's column order (IndexScan puts value first).
        let node = reorder_to(node, &columns.clone());
        // The IndexScan reads the table directly, bypassing the scan it
        // replaces — a predicate an earlier stacked filter pushed into
        // that scan must be re-applied, not silently dropped. After the
        // reorder the column indexes match the scan's output again.
        return match scan_pred {
            Some(p) => LogicalPlan::Filter {
                input: Box::new(node),
                predicate: p,
            },
            None => node,
        };
    }

    rewrite_kernel_pushdown(input, predicate, opts)
}

/// Kernel pushdown (§3.1): when the dictionary and index-table rules
/// decline, every conjunct of the predicate that
/// [`split_conjuncts`] pushes — one column with a raw domain, compiling
/// to a value set — is folded into the scan itself, so the
/// per-encoding kernels can answer it without decompression — for every
/// source alike (under a merge overlay the base side keeps its kernels
/// with tombstones masked out of the selection, and the delta side
/// evaluates per block). The other conjuncts stay in a Filter above the
/// scan. A predicate already pushed (by a stacked filter) composes with
/// `AND`.
fn rewrite_kernel_pushdown(
    mut input: Box<LogicalPlan>,
    predicate: Expr,
    opts: OptimizerOptions,
) -> LogicalPlan {
    let LogicalPlan::Scan {
        source,
        columns,
        predicate: prior,
        ..
    } = input.as_mut()
    else {
        return LogicalPlan::Filter { input, predicate };
    };
    let split = split_conjuncts(&predicate, |c| {
        columns.get(c).is_some_and(|n| source.raw_domain(n))
    });
    let and = |parts: Vec<&Expr>| {
        parts
            .into_iter()
            .cloned()
            .reduce(|a, b| Expr::And(Box::new(a), Box::new(b)))
    };
    let (true, Some(pushed)) = (opts.kernel_pushdown, and(split.pushed)) else {
        return LogicalPlan::Filter { input, predicate };
    };
    *prior = Some(match prior.take() {
        Some(p) => Expr::And(Box::new(p), Box::new(pushed)),
        None => pushed,
    });
    match and(split.residual) {
        Some(rest) => LogicalPlan::Filter {
            input,
            predicate: rest,
        },
        None => *input,
    }
}

/// Wrap `plan` with a projection producing `wanted` column order.
fn reorder_to(plan: LogicalPlan, wanted: &[String]) -> LogicalPlan {
    let have = plan.output_columns();
    if have == wanted {
        return plan;
    }
    let exprs = wanted
        .iter()
        .map(|n| {
            let i = have
                .iter()
                .position(|h| h == n)
                .expect("column preserved by rewrite");
            (n.clone(), Expr::col(i))
        })
        .collect();
    LogicalPlan::Project {
        input: Box::new(plan),
        exprs,
    }
}

/// Rule 3: `Aggregate(… IndexScan …)` grouped by the indexed value turns
/// on value-sorted retrieval so the aggregation runs ordered (§4.2.2).
fn rewrite_ordered_retrieval(plan: LogicalPlan, opts: OptimizerOptions) -> LogicalPlan {
    if !opts.ordered_retrieval {
        return plan;
    }
    let LogicalPlan::Aggregate {
        input,
        group_by,
        aggs,
    } = plan
    else {
        return plan;
    };
    let input = *input;
    let rewritten = match input {
        LogicalPlan::IndexScan {
            source,
            inner,
            fetch,
            ..
        } if group_by == vec![0] => LogicalPlan::IndexScan {
            source,
            inner,
            sort_by_value: true,
            fetch,
        },
        // Look through a pure column-reorder projection.
        LogicalPlan::Project {
            input: pinput,
            exprs,
        } if matches!(*pinput, LogicalPlan::IndexScan { .. })
            && exprs.iter().all(|(_, e)| matches!(e, Expr::Col(_))) =>
        {
            // The grouped output column must map back to the index value
            // (inner column 0).
            let maps_to_value = group_by.len() == 1 && matches!(exprs[group_by[0]].1, Expr::Col(0));
            let LogicalPlan::IndexScan {
                source,
                inner,
                fetch,
                sort_by_value,
            } = *pinput
            else {
                unreachable!()
            };
            let node = LogicalPlan::IndexScan {
                source,
                inner,
                sort_by_value: sort_by_value || maps_to_value,
                fetch,
            };
            LogicalPlan::Project {
                input: Box::new(node),
                exprs,
            }
        }
        other => other,
    };
    LogicalPlan::Aggregate {
        input: Box::new(rewritten),
        group_by,
        aggs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::PlanBuilder;
    use std::sync::Arc;
    use tde_encodings::{EncodedStream, BLOCK_SIZE};
    use tde_exec::aggregate::AggSpec;
    use tde_exec::expr::{AggFunc, CmpOp};
    use tde_storage::{convert, Column, ColumnBuilder, EncodingPolicy, Table};
    use tde_types::Width;

    fn dict_compressed_table() -> Arc<Table> {
        let days: Vec<i64> = (0..5000).map(|i| 9000 + (i % 200)).collect();
        let mut stream = EncodedStream::new_dict(Width::W8, true, 8);
        for c in days.chunks(BLOCK_SIZE) {
            stream.append_block(c).unwrap();
        }
        let mut col = Column::scalar("d", DataType::Date, stream);
        convert::dict_encoding_to_compression(&mut col);
        let mut x = ColumnBuilder::new("x", DataType::Integer, EncodingPolicy::default());
        for i in 0..5000i64 {
            x.append_i64(i);
        }
        Arc::new(Table::new("facts", vec![col, x.finish().column]))
    }

    fn rle_table() -> Arc<Table> {
        let mut data = Vec::new();
        for v in 0..100i64 {
            data.extend(std::iter::repeat_n(v, 500));
        }
        let mut s = EncodedStream::new_rle(Width::W8, true, Width::W4, Width::W1);
        for c in data.chunks(BLOCK_SIZE) {
            s.append_block(c).unwrap();
        }
        let key = Column::scalar("k", DataType::Integer, s);
        let mut other = ColumnBuilder::new("o", DataType::Integer, EncodingPolicy::default());
        for i in 0..50_000i64 {
            other.append_i64(i % 31);
        }
        Arc::new(Table::new("runs", vec![key, other.finish().column]))
    }

    #[test]
    fn dictionary_filter_becomes_expand_join() {
        let t = dict_compressed_table();
        let plan = PlanBuilder::scan(&t)
            .filter(Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::int(9100)))
            .build();
        let opt = optimize(plan, OptimizerOptions::default());
        match &opt {
            LogicalPlan::ExpandJoin { column, inner, .. } => {
                assert_eq!(*column, 0);
                let f = inner.filter.as_ref().unwrap();
                // Predicate now references the inner `value` column.
                assert_eq!(f.single_column(), Some(1));
            }
            other => panic!("expected ExpandJoin, got {other:?}"),
        }
        assert_eq!(opt.output_columns(), vec!["d", "x"]);
    }

    #[test]
    fn metadata_decided_predicates_build_no_decompression_join() {
        // Built columns carry min/max: an RLE key over [0, 100) and an
        // array-compressed category over eight values in [0, 7_000_021].
        let mut k = ColumnBuilder::new("k", DataType::Integer, EncodingPolicy::default());
        let mut d = ColumnBuilder::new("d", DataType::Integer, EncodingPolicy::default());
        for i in 0..50_000i64 {
            k.append_i64(i / 500);
            d.append_i64(i * 7 % 8 * 1_000_003);
        }
        let k = k.finish().column;
        assert_eq!(k.data.algorithm(), tde_encodings::Algorithm::RunLength);
        let mut d = d.finish().column;
        convert::dict_encoding_to_compression(&mut d);
        assert!(matches!(d.compression, Compression::Array { .. }));
        let t = Arc::new(Table::new("meta", vec![k, d]));
        let cmp = |op, c, v| Expr::cmp(op, Expr::col(c), Expr::int(v));
        let plan_with = |pred, opts| optimize(PlanBuilder::scan(&t).filter(pred).build(), opts);
        let plan = |pred| plan_with(pred, OptimizerOptions::default());
        let no_pushdown = OptimizerOptions {
            kernel_pushdown: false,
            ..Default::default()
        };
        // Out of range (nothing qualifies) and covering (everything
        // does): the scan answers from metadata, no join is built —
        // unless kernel pushdown is off, when the join still beats a Filter.
        for (pred, join) in [
            (cmp(CmpOp::Gt, 0, 1000), "IndexedScan"),
            (cmp(CmpOp::Ge, 0, -5), "IndexedScan"),
            (cmp(CmpOp::Lt, 1, -5), "ExpandJoin"),
            (cmp(CmpOp::Le, 1, 8_000_000), "ExpandJoin"),
        ] {
            let opt = plan(pred.clone());
            assert!(
                matches!(
                    &opt,
                    LogicalPlan::Scan {
                        predicate: Some(_),
                        ..
                    }
                ),
                "{pred:?}:\n{}",
                opt.explain()
            );
            assert!(plan_with(pred, no_pushdown).explain().contains(join));
        }
        // Undecided predicates still earn their joins.
        assert!(plan(cmp(CmpOp::Gt, 0, 80))
            .explain()
            .contains("IndexedScan"));
        assert!(plan(cmp(CmpOp::Gt, 1, 3_000_000))
            .explain()
            .contains("ExpandJoin"));
    }

    #[test]
    fn rle_filter_becomes_index_scan() {
        let t = rle_table();
        let plan = PlanBuilder::scan(&t)
            .filter(Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(80)))
            .build();
        let opt = optimize(plan, OptimizerOptions::default());
        // Reordered to the scan's column order by a projection.
        assert_eq!(opt.output_columns(), vec!["k", "o"]);
        assert!(opt.explain().contains("IndexedScan"));
    }

    #[test]
    fn index_scan_rewrite_keeps_pushed_scan_predicate() {
        // A stacked filter on `o` is first folded into the scan by kernel
        // pushdown; the later filter on RLE column `k` then replaces that
        // scan with an IndexScan, which must re-apply the folded
        // predicate instead of dropping it (found by tde-fuzz seed 193).
        let t = rle_table();
        let plan = PlanBuilder::scan(&t)
            .filter(Expr::cmp(CmpOp::Eq, Expr::col(1), Expr::int(7)))
            .filter(Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(80)))
            .build();
        let opt = optimize(plan, OptimizerOptions::default());
        let text = opt.explain();
        assert!(text.contains("IndexedScan"), "{text}");
        assert!(text.contains("Filter"), "{text}");
    }

    #[test]
    fn aggregate_over_index_scan_goes_ordered() {
        let t = rle_table();
        let plan = PlanBuilder::scan(&t)
            .filter(Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(80)))
            .aggregate(vec![0], vec![AggSpec::new(AggFunc::Max, 1, "mx")])
            .build();
        let opt = optimize(plan, OptimizerOptions::default());
        assert!(opt.explain().contains("ordered"), "{}", opt.explain());
        // And not when the option is off.
        let t2 = rle_table();
        let plan = PlanBuilder::scan(&t2)
            .filter(Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(80)))
            .aggregate(vec![0], vec![AggSpec::new(AggFunc::Max, 1, "mx")])
            .build();
        let opt = optimize(
            plan,
            OptimizerOptions {
                ordered_retrieval: false,
                kernel_pushdown: false,
                ..Default::default()
            },
        );
        assert!(!opt.explain().contains("ordered"));
    }

    #[test]
    fn disabled_rewrites_keep_plan_shape() {
        let t = dict_compressed_table();
        let plan = PlanBuilder::scan(&t)
            .filter(Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::int(9100)))
            .build();
        let opt = optimize(
            plan,
            OptimizerOptions {
                invisible_joins: false,
                index_tables: false,
                ordered_retrieval: false,
                kernel_pushdown: false,
                parallelism: 1,
            },
        );
        assert!(matches!(opt, LogicalPlan::Filter { .. }));
    }

    #[test]
    fn parallelism_wraps_eligible_pipelines_in_morsel() {
        let t = rle_table();
        let opts = OptimizerOptions {
            parallelism: 4,
            ..Default::default()
        };
        // Aggregate over a kernel-pushed scan: wrapped.
        let plan = PlanBuilder::scan(&t)
            .filter(Expr::cmp(CmpOp::Eq, Expr::col(1), Expr::int(7)))
            .aggregate(vec![1], vec![AggSpec::new(AggFunc::Max, 0, "mx")])
            .build();
        let opt = optimize(plan, opts);
        match &opt {
            LogicalPlan::Morsel { input, degree } => {
                assert_eq!(*degree, 4);
                assert!(matches!(**input, LogicalPlan::Aggregate { .. }));
            }
            other => panic!("expected Morsel wrap, got {other:?}"),
        }
        assert!(
            opt.explain().contains("Morsel [parallel=4]"),
            "{}",
            opt.explain()
        );

        // A bare scan without a predicate is not worth parallelizing.
        let plan = PlanBuilder::scan(&t).build();
        assert!(!optimize(plan, opts).explain().contains("Morsel"));

        // Pipelines the morsel executor cannot run whole (here: the
        // filter becomes an IndexedScan join) stay serial.
        let plan = PlanBuilder::scan(&t)
            .filter(Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(80)))
            .build();
        let opt = optimize(plan, opts);
        assert!(!opt.explain().contains("Morsel"), "{}", opt.explain());

        // parallelism = 1 never wraps.
        let plan = PlanBuilder::scan(&t)
            .filter(Expr::cmp(CmpOp::Eq, Expr::col(1), Expr::int(7)))
            .build();
        let opt = optimize(plan, OptimizerOptions::default());
        assert!(!opt.explain().contains("Morsel"));
    }

    #[test]
    fn multi_column_predicate_is_not_pushed() {
        let t = rle_table();
        let plan = PlanBuilder::scan(&t)
            .filter(Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::col(1)))
            .build();
        let opt = optimize(plan, OptimizerOptions::default());
        assert!(matches!(opt, LogicalPlan::Filter { .. }));
    }

    #[test]
    fn every_single_column_conjunct_is_pushed_and_the_rest_stays() {
        let t = rle_table();
        let cmp = |op, c, v| Expr::cmp(op, Expr::col(c), Expr::int(v));
        let q6 = Expr::And(
            Box::new(Expr::And(
                Box::new(cmp(CmpOp::Ge, 1, 3)),
                Box::new(cmp(CmpOp::Lt, 0, 40)),
            )),
            Box::new(Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::col(1))),
        );
        let plan = PlanBuilder::scan(&t).filter(q6).build();
        let opt = optimize(plan, OptimizerOptions::default());
        let LogicalPlan::Filter { input, predicate } = &opt else {
            panic!("expected a residual Filter, got {opt:?}");
        };
        assert_eq!(predicate.referenced_columns(), vec![0, 1]);
        let LogicalPlan::Scan {
            predicate: Some(pushed),
            ..
        } = input.as_ref()
        else {
            panic!("expected a pushed scan, got {input:?}");
        };
        assert_eq!(tde_exec::pushdown::conjuncts(pushed).len(), 2);
    }

    #[test]
    fn real_and_heap_conjuncts_stay_in_the_filter() {
        // The planner pushes exactly what the scan can answer on stored
        // values: a Real or string-heap column has no raw domain, so its
        // conjunct stays above the scan even though it compiles.
        let mut o = ColumnBuilder::new("o", DataType::Integer, EncodingPolicy::default());
        let mut r = ColumnBuilder::new("r", DataType::Real, EncodingPolicy::default());
        let mut s = ColumnBuilder::new("s", DataType::Str, EncodingPolicy::default());
        for i in 0..1_000i64 {
            o.append_i64(i % 31);
            r.append_f64(i as f64 / 7.0);
            s.append_str(Some(["a", "b"][i as usize % 2]));
        }
        let t = Arc::new(Table::new(
            "mixed",
            vec![o.finish().column, r.finish().column, s.finish().column],
        ));
        let cmp = |c| Expr::cmp(CmpOp::Lt, Expr::col(c), Expr::int(5));
        let pred = Expr::And(
            Box::new(Expr::And(Box::new(cmp(0)), Box::new(cmp(1)))),
            Box::new(Expr::IsNull(Box::new(Expr::col(2)))),
        );
        let plan = PlanBuilder::scan(&t).filter(pred).build();
        let opt = optimize(plan, OptimizerOptions::default());
        let LogicalPlan::Filter { input, predicate } = &opt else {
            panic!("expected a residual Filter, got {opt:?}");
        };
        assert_eq!(predicate.referenced_columns(), vec![1, 2]);
        let LogicalPlan::Scan {
            predicate: Some(pushed),
            ..
        } = input.as_ref()
        else {
            panic!("expected a pushed scan, got {input:?}");
        };
        assert_eq!(pushed.referenced_columns(), vec![0]);
    }
}
