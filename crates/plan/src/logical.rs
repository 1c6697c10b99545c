//! Logical plans.
//!
//! A deliberately concrete IR: the generic relational nodes (scan, filter,
//! project, aggregate, sort) plus the two decompression-join nodes the
//! strategic optimizer introduces — [`LogicalPlan::ExpandJoin`] for
//! dictionary-compressed columns (§4.1) and [`LogicalPlan::IndexScan`]
//! for run-length columns (§4.2). Expressions reference input columns by
//! index into the child's output schema.

use std::io;
use std::sync::Arc;
use tde_exec::aggregate::AggSpec;
use tde_exec::sort::SortOrder;
use tde_exec::{Expr, Source};
use tde_storage::Table;

/// Operations pushed down onto a decompression join's inner side: a
/// filter and/or a computation over the dictionary *values*.
#[derive(Debug, Clone, Default)]
pub struct InnerOps {
    /// Predicate over the inner schema (dictionary: `token[, value]`;
    /// index: `value, count, start`).
    pub filter: Option<Expr>,
    /// A computed replacement for the value column (e.g. the §4.1.2 file
    /// extension), evaluated over the inner schema.
    pub compute: Option<(String, Expr)>,
}

impl InnerOps {
    /// No pushed-down work.
    pub fn none() -> InnerOps {
        InnerOps::default()
    }
}

/// A logical query plan.
#[derive(Debug, Clone)]
pub enum LogicalPlan {
    /// Scan named columns of a [`Source`] — the only scan leaf, whatever
    /// the source's residency. A paged source resolves its columns
    /// through the buffer pool at lowering time, so only the projected
    /// columns' segments are read from disk; a merged source presents
    /// base rows minus tombstones, then delta rows, as one table.
    /// `expand_dictionaries` materializes array-compressed columns at
    /// the scan — the baseline that forgoes invisible joins.
    Scan {
        /// What to read.
        source: Source,
        /// Column names to produce, in order.
        columns: Vec<String>,
        /// Expand array compression inline.
        expand_dictionaries: bool,
        /// A predicate (over the scan's output schema) pushed into the
        /// scan by the strategic optimizer; the scan answers it in the
        /// compressed domain where the column's encoding has a kernel.
        predicate: Option<Expr>,
    },
    /// Row filter.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Predicate over the input schema.
        predicate: Expr,
    },
    /// Expression projection.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Output columns as (name, expression).
        exprs: Vec<(String, Expr)>,
    },
    /// Grouped aggregation.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Group key column indexes.
        group_by: Vec<usize>,
        /// Aggregates.
        aggs: Vec<AggSpec>,
    },
    /// Total sort.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Keys (column, order), most significant first.
        keys: Vec<(usize, SortOrder)>,
    },
    /// Invisible join (§4.1): expand compressed column `column` of the
    /// outer scan through its DictionaryTable, with `inner` work pushed
    /// onto the dictionary. The output schema equals the outer schema
    /// with the column replaced by its (possibly computed) value; rows
    /// whose dictionary entry fails the inner filter are dropped.
    ExpandJoin {
        /// Outer plan: must expose the compressed column's tokens at
        /// `column`.
        outer: Box<LogicalPlan>,
        /// Index of the compressed column in the outer schema.
        column: usize,
        /// The table/column whose dictionary is joined.
        source: (Arc<Table>, usize),
        /// Pushed-down dictionary-side work.
        inner: InnerOps,
    },
    /// Morsel-driven parallel execution (§3.3/§8 generalized): run the
    /// input pipeline — a scan-like leaf with a pushed predicate, a
    /// residual filter over one, or an aggregate over either — as block
    /// ranges claimed by `degree` workers from one counter, followed by a
    /// deterministic merge. Inserted by the strategic optimizer when
    /// `OptimizerOptions::parallelism >= 2`; lowering makes the final
    /// tactical call and may still fall back to the serial pipeline
    /// (too few morsels, non-merge-safe aggregates).
    Morsel {
        /// The pipeline to parallelize.
        input: Box<LogicalPlan>,
        /// Worker count.
        degree: usize,
    },
    /// Rank join over an IndexTable (§4.2): scan `source`'s run-length
    /// column as (value, count, start) rows, apply the inner ops, then
    /// IndexedScan the qualified ranges fetching `fetch` columns. Output
    /// schema: the (possibly computed) value column, then `fetch`.
    IndexScan {
        /// The table and its RLE column.
        source: (Arc<Table>, usize),
        /// Pushed-down index-side work (filter on `value`).
        inner: InnerOps,
        /// Sort the index by value before scanning — the §4.2.2 ordered
        /// retrieval that enables sandwiched aggregation.
        sort_by_value: bool,
        /// Outer columns to fetch for qualified ranges.
        fetch: Vec<String>,
    },
}

impl LogicalPlan {
    /// The output column names, for rewrites and tests.
    pub fn output_columns(&self) -> Vec<String> {
        match self {
            LogicalPlan::Scan { columns, .. } => columns.clone(),
            LogicalPlan::Filter { input, .. } | LogicalPlan::Morsel { input, .. } => {
                input.output_columns()
            }
            LogicalPlan::Project { exprs, .. } => exprs.iter().map(|(n, _)| n.clone()).collect(),
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let inputs = input.output_columns();
                group_by
                    .iter()
                    .map(|&g| inputs[g].clone())
                    .chain(aggs.iter().map(|a| a.name.clone()))
                    .collect()
            }
            LogicalPlan::Sort { input, .. } => input.output_columns(),
            LogicalPlan::ExpandJoin {
                outer,
                column,
                inner,
                ..
            } => {
                let mut cols = outer.output_columns();
                if let Some((name, _)) = &inner.compute {
                    cols[*column] = name.clone();
                }
                cols
            }
            LogicalPlan::IndexScan {
                source,
                inner,
                fetch,
                ..
            } => {
                let vname = inner
                    .compute
                    .as_ref()
                    .map(|(n, _)| n.clone())
                    .unwrap_or_else(|| source.0.columns[source.1].name.clone());
                std::iter::once(vname)
                    .chain(fetch.iter().cloned())
                    .collect()
            }
        }
    }

    /// Check that every column index the plan names lies within the
    /// width of the input it indexes, and return the output width. A
    /// hand-built plan may name a column past it, where the optimizer or
    /// an operator would panic; that is `InvalidInput` naming the operator
    /// and the index.
    pub fn check_columns(&self) -> io::Result<usize> {
        fn within(op: &str, cols: impl IntoIterator<Item = usize>, width: usize) -> io::Result<()> {
            match cols.into_iter().find(|&c| c >= width) {
                Some(c) => Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("{op} names column {c} of a {width}-column input"),
                )),
                None => Ok(()),
            }
        }
        let read = |e: &Expr| e.referenced_columns();
        match self {
            LogicalPlan::Scan {
                columns, predicate, ..
            } => {
                within(
                    "scan predicate",
                    predicate.iter().flat_map(read),
                    columns.len(),
                )?;
                Ok(columns.len())
            }
            LogicalPlan::Filter { input, predicate } => {
                let width = input.check_columns()?;
                within("Filter", read(predicate), width)?;
                Ok(width)
            }
            LogicalPlan::Project { input, exprs } => {
                let width = input.check_columns()?;
                within("Project", exprs.iter().flat_map(|(_, e)| read(e)), width)?;
                Ok(exprs.len())
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let width = input.check_columns()?;
                within("Aggregate key", group_by.iter().copied(), width)?;
                within("Aggregate", aggs.iter().map(|a| a.col), width)?;
                Ok(group_by.len() + aggs.len())
            }
            LogicalPlan::Sort { input, keys } => {
                let width = input.check_columns()?;
                within("Sort", keys.iter().map(|k| k.0), width)?;
                Ok(width)
            }
            LogicalPlan::Morsel { input, .. } => input.check_columns(),
            LogicalPlan::ExpandJoin { outer, column, .. } => {
                let width = outer.check_columns()?;
                within("ExpandJoin", [*column], width)?;
                Ok(width)
            }
            LogicalPlan::IndexScan { fetch, .. } => Ok(1 + fetch.len()),
        }
    }

    /// Every source the plan reads — the scan leaf plus the tables behind
    /// decompression joins — each once. EXPLAIN ANALYZE reports
    /// compression and buffer-pool telemetry per source.
    pub fn sources(&self) -> Vec<Source> {
        fn push(out: &mut Vec<Source>, s: Source) {
            let seen = |x: &Source| match (x.resident(), s.resident()) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            };
            if !out.iter().any(seen) {
                out.push(s);
            }
        }
        fn collect(plan: &LogicalPlan, out: &mut Vec<Source>) {
            match plan {
                LogicalPlan::Scan { source, .. } => push(out, source.clone()),
                LogicalPlan::Filter { input, .. }
                | LogicalPlan::Project { input, .. }
                | LogicalPlan::Aggregate { input, .. }
                | LogicalPlan::Sort { input, .. }
                | LogicalPlan::Morsel { input, .. } => collect(input, out),
                LogicalPlan::ExpandJoin { outer, source, .. } => {
                    collect(outer, out);
                    push(out, (&source.0).into());
                }
                LogicalPlan::IndexScan { source, .. } => push(out, (&source.0).into()),
            }
        }
        let mut out = Vec::new();
        collect(self, &mut out);
        out
    }

    /// Render the plan tree (explain output).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(0, &mut out);
        out
    }

    fn explain_into(&self, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        match self {
            LogicalPlan::Scan {
                source,
                columns,
                expand_dictionaries,
                predicate,
            } => {
                out.push_str(&format!(
                    "{pad}{}{}\n",
                    scan_label(source, columns, *expand_dictionaries),
                    if predicate.is_some() { " +pred" } else { "" }
                ));
            }
            LogicalPlan::Filter { input, .. } => {
                out.push_str(&format!("{pad}Filter\n"));
                input.explain_into(depth + 1, out);
            }
            LogicalPlan::Morsel { input, degree } => {
                out.push_str(&format!("{pad}Morsel [parallel={degree}]\n"));
                input.explain_into(depth + 1, out);
            }
            LogicalPlan::Project { input, exprs } => {
                let names: Vec<&str> = exprs.iter().map(|(n, _)| n.as_str()).collect();
                out.push_str(&format!("{pad}Project [{}]\n", names.join(", ")));
                input.explain_into(depth + 1, out);
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                out.push_str(&format!(
                    "{pad}Aggregate group_by={group_by:?} aggs={}\n",
                    aggs.len()
                ));
                input.explain_into(depth + 1, out);
            }
            LogicalPlan::Sort { input, keys } => {
                out.push_str(&format!("{pad}Sort {keys:?}\n"));
                input.explain_into(depth + 1, out);
            }
            LogicalPlan::ExpandJoin {
                outer,
                column,
                inner,
                source,
            } => {
                out.push_str(&format!(
                    "{pad}ExpandJoin col={column} dict={}.{}{}{}\n",
                    source.0.name,
                    source.0.columns[source.1].name,
                    if inner.filter.is_some() {
                        " +filter"
                    } else {
                        ""
                    },
                    if inner.compute.is_some() {
                        " +compute"
                    } else {
                        ""
                    },
                ));
                outer.explain_into(depth + 1, out);
            }
            LogicalPlan::IndexScan {
                source,
                inner,
                sort_by_value,
                fetch,
            } => {
                out.push_str(&format!(
                    "{pad}IndexedScan {}.{} fetch=[{}]{}{}\n",
                    source.0.name,
                    source.0.columns[source.1].name,
                    fetch.join(", "),
                    if inner.filter.is_some() {
                        " +filter"
                    } else {
                        ""
                    },
                    if *sort_by_value { " ordered" } else { "" },
                ));
            }
        }
    }
}

/// The label of a scan over `source`, shared by EXPLAIN and the physical
/// operator tree: `Scan <table> [<columns>] residency=<tag>`. The first
/// token is the operator kind whatever the residency.
pub(crate) fn scan_label(source: &Source, columns: &[String], expand_dictionaries: bool) -> String {
    format!(
        "Scan {} [{}]{} residency={source}",
        source.name(),
        columns.join(", "),
        if expand_dictionaries {
            " (expanded)"
        } else {
            ""
        }
    )
}

/// Fluent builder for logical plans.
pub struct PlanBuilder {
    plan: LogicalPlan,
}

impl PlanBuilder {
    /// Start from a scan of every column of `source` (on a paged source
    /// that loads every column — prefer [`PlanBuilder::scan_columns`]).
    pub fn scan(source: impl Into<Source>) -> PlanBuilder {
        let source = source.into();
        let columns = source.column_names();
        PlanBuilder::scan_columns(source.clone(), &columns)
    }

    /// Start from a projection scan: only the named columns are read.
    pub fn scan_columns(source: impl Into<Source>, columns: &[&str]) -> PlanBuilder {
        PlanBuilder {
            plan: LogicalPlan::Scan {
                source: source.into(),
                columns: columns.iter().map(|s| (*s).to_owned()).collect(),
                expand_dictionaries: false,
                predicate: None,
            },
        }
    }

    // Exists only because the frozen benchmark package calls it.
    #[doc(hidden)]
    pub fn scan_paged_columns(table: &tde_pager::PagedTable, columns: &[&str]) -> PlanBuilder {
        PlanBuilder::scan_columns(table, columns)
    }

    // Exists only because the frozen benchmark package calls it.
    #[doc(hidden)]
    pub fn scan_merged_columns(
        source: &Arc<tde_exec::merged_scan::MergedSource>,
        columns: &[&str],
    ) -> PlanBuilder {
        PlanBuilder::scan_columns(source, columns)
    }

    /// Add a filter.
    pub fn filter(self, predicate: Expr) -> PlanBuilder {
        PlanBuilder {
            plan: LogicalPlan::Filter {
                input: Box::new(self.plan),
                predicate,
            },
        }
    }

    /// Add a projection.
    pub fn project(self, exprs: Vec<(String, Expr)>) -> PlanBuilder {
        PlanBuilder {
            plan: LogicalPlan::Project {
                input: Box::new(self.plan),
                exprs,
            },
        }
    }

    /// Add an aggregation.
    pub fn aggregate(self, group_by: Vec<usize>, aggs: Vec<AggSpec>) -> PlanBuilder {
        PlanBuilder {
            plan: LogicalPlan::Aggregate {
                input: Box::new(self.plan),
                group_by,
                aggs,
            },
        }
    }

    /// Add a sort.
    pub fn sort(self, keys: Vec<(usize, SortOrder)>) -> PlanBuilder {
        PlanBuilder {
            plan: LogicalPlan::Sort {
                input: Box::new(self.plan),
                keys,
            },
        }
    }

    /// The plan built so far.
    pub fn as_plan(&self) -> &LogicalPlan {
        &self.plan
    }

    /// Finish.
    pub fn build(self) -> LogicalPlan {
        self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tde_storage::{ColumnBuilder, EncodingPolicy};
    use tde_types::DataType;

    fn table() -> Arc<Table> {
        let mut a = ColumnBuilder::new("a", DataType::Integer, EncodingPolicy::default());
        let mut b = ColumnBuilder::new("b", DataType::Integer, EncodingPolicy::default());
        for i in 0..10i64 {
            a.append_i64(i);
            b.append_i64(i * 2);
        }
        Arc::new(Table::new("t", vec![a.finish().column, b.finish().column]))
    }

    #[test]
    fn builder_and_columns() {
        use tde_exec::expr::{AggFunc, CmpOp};
        let t = table();
        let plan = PlanBuilder::scan(&t)
            .filter(Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(3)))
            .aggregate(vec![0], vec![AggSpec::new(AggFunc::Max, 1, "mx")])
            .build();
        assert_eq!(plan.output_columns(), vec!["a", "mx"]);
        let text = plan.explain();
        assert!(text.contains("Aggregate"));
        assert!(text.contains("Filter"));
        assert!(text.contains("Scan t"));
    }
}
