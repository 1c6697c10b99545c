//! Query descriptions: one [`QuerySpec`] yields the engine `Query` that
//! is timed, the `PlanBuilder` the traced run decomposes, and the
//! parameters the oracle's row loop interprets.

use crate::data::Dataset;
use std::sync::Arc;
use tde_core::Query;
use tde_exec::aggregate::AggSpec;
use tde_exec::expr::{AggFunc, CmpOp, Expr};
use tde_exec::merged_scan::MergedSource;
use tde_pager::PagedTable;
use tde_plan::strategic::OptimizerOptions;
use tde_plan::PlanBuilder;
use tde_storage::Table;
use tde_types::{DataType, Value};

/// `lo <= column <= hi` on an integral column; `i64::MIN` / `i64::MAX`
/// leave a side open. `col` indexes the spec's projection.
#[derive(Debug, Clone, PartialEq)]
pub struct Pred {
    pub col: usize,
    pub lo: i64,
    pub hi: i64,
}

/// A filter + group-by + aggregate query over a projection.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Template name (`q6`, `fig10`, …) — groups samples in reports.
    pub template: &'static str,
    pub columns: Vec<String>,
    pub dtypes: Vec<DataType>,
    pub preds: Vec<Pred>,
    pub group_by: Vec<usize>,
    pub aggs: Vec<(AggFunc, usize)>,
}

/// What a query scans.
#[derive(Clone)]
pub enum Source {
    Eager(Arc<Table>),
    Paged(PagedTable),
    Merged(Arc<MergedSource>),
}

impl Source {
    pub fn rows(&self) -> u64 {
        match self {
            Source::Eager(t) => t.row_count(),
            Source::Paged(t) => t.row_count(),
            Source::Merged(m) => m.merged_rows(),
        }
    }
}

impl QuerySpec {
    pub fn new(template: &'static str, data: &Dataset, columns: &[&str]) -> QuerySpec {
        QuerySpec {
            template,
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
            dtypes: columns.iter().map(|c| data.col(c).dtype).collect(),
            preds: Vec::new(),
            group_by: Vec::new(),
            aggs: Vec::new(),
        }
    }

    pub fn pred(mut self, col: usize, lo: i64, hi: i64) -> QuerySpec {
        assert!(
            self.dtypes[col].is_integral(),
            "predicates are on integral columns"
        );
        self.preds.push(Pred { col, lo, hi });
        self
    }

    pub fn group(mut self, cols: &[usize]) -> QuerySpec {
        self.group_by = cols.to_vec();
        self
    }

    pub fn agg(mut self, func: AggFunc, col: usize) -> QuerySpec {
        self.aggs.push((func, col));
        self
    }

    /// The conjunction of the spec's range predicates.
    pub fn predicate(&self) -> Option<Expr> {
        let lit = |p: &Pred, v: i64| Expr::Lit(Value::from_i64(self.dtypes[p.col], v));
        let one = |p: &Pred| -> Expr {
            let c = || Expr::col(p.col);
            if p.lo == p.hi {
                Expr::cmp(CmpOp::Eq, c(), lit(p, p.lo))
            } else if p.lo == i64::MIN {
                Expr::cmp(CmpOp::Le, c(), lit(p, p.hi))
            } else if p.hi == i64::MAX {
                Expr::cmp(CmpOp::Ge, c(), lit(p, p.lo))
            } else {
                Expr::And(
                    Box::new(Expr::cmp(CmpOp::Ge, c(), lit(p, p.lo))),
                    Box::new(Expr::cmp(CmpOp::Le, c(), lit(p, p.hi))),
                )
            }
        };
        self.preds
            .iter()
            .map(one)
            .reduce(|a, b| Expr::And(Box::new(a), Box::new(b)))
    }

    fn names(&self) -> Vec<&str> {
        self.columns.iter().map(String::as_str).collect()
    }

    fn agg_names(&self) -> Vec<String> {
        (0..self.aggs.len()).map(|i| format!("a{i}")).collect()
    }

    /// The engine query, at its shipped optimizer defaults apart from the
    /// parallelism degree.
    pub fn query(&self, src: &Source, parallelism: usize) -> Query {
        let names = self.names();
        let mut q = match src {
            Source::Eager(t) => Query::scan_columns(t, &names),
            Source::Paged(t) => Query::scan_paged_columns(t, &names),
            Source::Merged(m) => Query::scan_delta_columns(m, &names),
        };
        if let Some(p) = self.predicate() {
            q = q.filter(p);
        }
        let agg_names = self.agg_names();
        let aggs = self
            .aggs
            .iter()
            .zip(&agg_names)
            .map(|(&(f, c), n)| (f, c, n.as_str()))
            .collect();
        q.aggregate(self.group_by.clone(), aggs)
            .with_parallelism(parallelism)
    }

    /// The same query as an un-optimized plan builder plus the options
    /// `Query` would optimize it with, so the traced run can time
    /// `optimize` and `try_execute` apart.
    pub fn plan(&self, src: &Source, parallelism: usize) -> (PlanBuilder, OptimizerOptions) {
        let names = self.names();
        let mut b = match src {
            Source::Eager(t) => PlanBuilder::scan_columns(t, &names),
            Source::Paged(t) => PlanBuilder::scan_paged_columns(t, &names),
            Source::Merged(m) => PlanBuilder::scan_merged_columns(m, &names),
        };
        if let Some(p) = self.predicate() {
            b = b.filter(p);
        }
        let aggs = self
            .aggs
            .iter()
            .zip(self.agg_names())
            .map(|(&(f, c), n)| AggSpec::new(f, c, n))
            .collect();
        let opts = OptimizerOptions {
            parallelism,
            ..OptimizerOptions::default()
        };
        (b.aggregate(self.group_by.clone(), aggs), opts)
    }
}
