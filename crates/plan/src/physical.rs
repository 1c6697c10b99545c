//! Physical lowering: logical plans → executable operator trees.
//!
//! This is where the tactical hand-off happens (paper §4.1.2): inner
//! sides of decompression joins are materialized with FlowTable *first*,
//! under the inner-side encoding policy (§4.3), and only then are the
//! join implementation (fetch vs hash) and the aggregation flavour
//! (ordered vs hash) chosen — from the metadata FlowTable just extracted.
//!
//! Lowering also decides how each scan column reaches the operators
//! above it (§2.3.1). Every operator states what it needs of each column
//! of its input — a [`Need`], handed down as the operator's child is
//! lowered — and the scan applies the demand
//! ([`tde_exec::Projection::with_needs`]): a column nothing reads is never
//! gathered; a group key whose stream is dictionary-encoded arrives as
//! the stream's codes, which the aggregate decodes once per group (see
//! [`tde_exec::aggregate::AggCore`]); and where only aggregates read
//! columns that are all stored run-length, the leaf hands over
//! run-carrying blocks, folded per segment instead of per row (see
//! [`tde_exec::Block`]). The choices follow from the plan and the
//! encodings alone; no option sets them.

use crate::logical::{scan_label, InnerOps, LogicalPlan};
use std::io;
use std::sync::Arc;
use tde_exec::aggregate::{merge_safe, AggSpec, HashAggregate, OrderedAggregate};
use tde_exec::dictionary_table::dictionary_table;
use tde_exec::filter::Filter;
use tde_exec::flow_table::{flow_table, FlowTableOptions};
use tde_exec::indexed_scan::IndexedScan;
use tde_exec::join::{Join, JoinKind};
use tde_exec::obs::Observed;
use tde_exec::project::Project;
use tde_exec::scan::TableScan;
use tde_exec::sort::{Sort, SortOrder};
use tde_exec::{AggFunc, BoxOp, Choices, Expr, Need, Operator, Source};
use tde_storage::EncodingPolicy;

/// Timeline context threaded through lowering: the operator id of the
/// parent of whatever operator gets lowered next.
#[derive(Clone, Copy)]
struct Tracer {
    parent: Option<u32>,
}

impl Tracer {
    /// Register an operator under the current parent; it gets a timeline
    /// id when the query is recording (see `timeline::recording`).
    fn node(&self, label: impl Into<String>) -> NodeCtx {
        NodeCtx {
            label: label.into(),
            id: tde_obs::timeline::recording().then(tde_obs::timeline::next_op_id),
            parent: self.parent,
        }
    }
}

/// One operator's place in the recorded operator tree.
struct NodeCtx {
    label: String,
    id: Option<u32>,
    parent: Option<u32>,
}

impl NodeCtx {
    /// Tracer for this operator's children.
    fn child(&self) -> Tracer {
        Tracer { parent: self.id }
    }

    /// Put the lowered operator under the one observer, handing it the
    /// views that are on: the per-kind metrics counters and the timeline
    /// operator span (which EXPLAIN ANALYZE reads). With both off the
    /// operator stays unwrapped. The operator kind — the label's first
    /// token — names the metrics counters; the timeline span carries the
    /// whole label.
    fn wrap(self, op: BoxOp) -> BoxOp {
        let kind = tde_obs::timeline::op_kind(&self.label);
        let counters = tde_obs::metrics::operator_counters(kind);
        let timeline = self
            .id
            .map(|id| tde_obs::timeline::TimelineOp::new(&self.label, id, self.parent));
        Observed::wrap(op, counters, timeline)
    }
}

/// What an operator needs of each column of its input.
#[derive(Clone)]
enum Demand {
    /// Values of every column: the root's, a `Sort`'s, a join's.
    All,
    /// A [`Need`] per column; a column past the end is not read.
    Each(Vec<Need>),
}

impl Demand {
    fn of(&self, c: usize) -> Need {
        match self {
            Demand::All => Need::Values,
            Demand::Each(needs) => needs.get(c).copied().unwrap_or(Need::None),
        }
    }

    /// Raise column `c`'s need to at least `need`.
    fn raise(&mut self, c: usize, need: Need) {
        if let Demand::Each(needs) = self {
            if needs.len() <= c {
                needs.resize(c + 1, Need::None);
            }
            needs[c] = needs[c].max(need);
        }
    }

    /// This demand with the values of every column `expr` reads: what a
    /// `Filter` needs of its input.
    fn reading(mut self, expr: &Expr) -> Demand {
        for c in expr.referenced_columns() {
            self.raise(c, Need::Values);
        }
        self
    }
}

/// What an aggregate needs of its input: codes of its keys, runs of the
/// columns it folds (of a summed one, where the sum is exact), and
/// nothing for `COUNT`, which counts rows.
fn aggregate_demand(group_by: &[usize], aggs: &[AggSpec]) -> Demand {
    let mut demand = Demand::Each(Vec::new());
    for &k in group_by {
        demand.raise(k, Need::Codes);
    }
    for a in aggs {
        let need = match a.func {
            AggFunc::Count => Need::None,
            AggFunc::Sum => Need::Sum,
            AggFunc::Min | AggFunc::Max => Need::Runs,
        };
        demand.raise(a.col, need);
    }
    demand
}

/// What a `Project` needs of its input: of a selected column, what its
/// output's consumer needs; of each column a computed one reads, values.
fn project_demand(exprs: &[(String, Expr)], demand: &Demand) -> Demand {
    let mut input = Demand::Each(Vec::new());
    for (i, (_, e)) in exprs.iter().enumerate() {
        match e {
            Expr::Col(c) => input.raise(*c, demand.of(i)),
            e => input = input.reading(e),
        }
    }
    input
}

/// Lower and instantiate a logical plan. I/O and corruption faults
/// (failed demand loads, checksum mismatches), projections naming a
/// column the source does not have and operators naming a column past
/// their input's width come back as errors. Inside a query scope (see
/// `tde_obs::timeline::query_begin`) every operator records its span,
/// and the decisions taken here and during execution land in the
/// scope's trace.
pub fn try_execute(plan: &LogicalPlan) -> io::Result<BoxOp> {
    plan.check_columns()?;
    lower(plan, Demand::All, Tracer { parent: None })
}

/// Lower `plan` for a consumer that needs `demand` of its output.
fn lower(plan: &LogicalPlan, demand: Demand, tr: Tracer) -> io::Result<BoxOp> {
    match plan {
        LogicalPlan::Scan {
            source,
            columns,
            expand_dictionaries,
            predicate,
        } => lower_scan(
            source,
            columns,
            *expand_dictionaries,
            predicate.as_ref(),
            &demand,
            tr,
        ),
        LogicalPlan::Filter { input, predicate } => {
            let node = tr.node("Filter");
            let input = lower(input, demand.reading(predicate), node.child())?;
            Ok(node.wrap(Box::new(Filter::new(input, predicate.clone()))))
        }
        LogicalPlan::Project { input, exprs } => {
            let names: Vec<&str> = exprs.iter().map(|(n, _)| n.as_str()).collect();
            let node = tr.node(format!("Project [{}]", names.join(", ")));
            let input = lower(input, project_demand(exprs, &demand), node.child())?;
            Ok(node.wrap(Box::new(Project::new(input, exprs.to_vec()))))
        }
        LogicalPlan::Sort { input, keys } => {
            let node = tr.node(format!("Sort {keys:?}"));
            let input = lower(input, Demand::All, node.child())?;
            Ok(node.wrap(Box::new(Sort::new(input, keys.clone()))))
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => lower_aggregate(input, group_by, aggs, tr),
        LogicalPlan::Morsel { input, degree } => lower_morsel(input, *degree, demand, tr),
        LogicalPlan::ExpandJoin {
            outer,
            column,
            source,
            inner,
        } => lower_expand_join(outer, *column, source, inner, tr),
        LogicalPlan::IndexScan {
            source,
            inner,
            sort_by_value,
            fetch,
        } => lower_index_scan(
            source,
            inner,
            *sort_by_value,
            fetch,
            &plan.output_columns(),
            &demand,
            tr,
        ),
    }
}

fn lower_scan(
    source: &Source,
    columns: &[String],
    expand_dictionaries: bool,
    predicate: Option<&Expr>,
    demand: &Demand,
    tr: Tracer,
) -> io::Result<BoxOp> {
    let names: Vec<&str> = columns.iter().map(String::as_str).collect();
    // Demand loads happen here: a failed or corrupt segment read
    // surfaces as an error, never as corrupt decoded data.
    let (projection, chose) =
        source
            .resolve(&names)?
            .with_needs(|c| demand.of(c), expand_dictionaries, predicate);
    let (scan, how) = projection.scan(
        expand_dictionaries,
        predicate.map(|p| (p, false)),
        chose.runs,
    );
    let mut label = scan_label(source, columns, expand_dictionaries);
    if let Some(how) = how {
        label = format!("{label} {how}");
    }
    label += &record_choices(&chose, columns);
    Ok(tr.node(runs_label(label, chose.runs)).wrap(scan))
}

/// Record a tactical decision: counted, and an event in the query's
/// trace.
fn decide(point: &'static str, choice: &str, reason: impl FnOnce() -> String) {
    tde_obs::emit(|| tde_obs::Event::Decision {
        point,
        choice: choice.to_string(),
        reason: reason(),
        encoding: None,
    });
}

/// Record what a scan of `columns` hands on in place of values — the
/// `scan` / `drop-columns` and `aggregate` / `group-codes` decisions —
/// and return the label suffixes that name the columns. A drop is an
/// event alone: a metrics-registry count takes a lock and builds its
/// label key on every call, which a dashboard query's lowering would pay.
fn record_choices(chose: &Choices, columns: &[String]) -> String {
    let names = |cols: &[usize]| {
        let names: Vec<&str> = cols.iter().map(|&c| columns[c].as_str()).collect();
        names.join(", ")
    };
    let mut label = String::new();
    if !chose.dropped.is_empty() {
        let names = names(&chose.dropped);
        tde_obs::emit(|| tde_obs::Event::Decision {
            point: "scan",
            choice: "drop-columns".to_string(),
            reason: format!("nothing above the scan reads [{names}]: never gathered"),
            encoding: None,
        });
        label += &format!(" [dropped: {names}]");
    }
    if !chose.codes.is_empty() {
        let names = names(&chose.codes);
        decide("aggregate", "group-codes", || {
            format!(
                "keys [{names}] are dictionary-encoded: the aggregate groups on their codes \
                 and decodes each group once"
            )
        });
        label += &format!(" [codes: {names}]");
    }
    label
}

/// A run-carrying leaf's label gains `[runs]`, and the choice is
/// recorded as the aggregate's `fold-runs` decision.
fn runs_label(label: String, runs: bool) -> String {
    if !runs {
        return label;
    }
    decide("aggregate", "fold-runs", || {
        format!("every column of {label} is run-length: the aggregate folds runs, not rows")
    });
    format!("{label} [runs]")
}

/// The one tactical aggregation choice, made for the serial and the
/// morsel lowering alike: ordered (sandwiched) aggregation when the
/// single group key is known sorted, hash aggregation otherwise (§4.2.2).
fn tactical_ordered(input: &tde_exec::Schema, group_by: &[usize]) -> bool {
    let [key] = group_by else { return false };
    tde_exec::tactical::can_aggregate_ordered(&[&input.fields[*key]])
}

fn lower_aggregate(
    input_plan: &LogicalPlan,
    group_by: &[usize],
    aggs: &[AggSpec],
    tr: Tracer,
) -> io::Result<BoxOp> {
    let mut node = tr.node("Aggregate");
    let input = lower(input_plan, aggregate_demand(group_by, aggs), node.child())?;
    if tactical_ordered(input.schema(), group_by) {
        node.label = format!("OrderedAggregate group_by={group_by:?}");
        Ok(node.wrap(Box::new(OrderedAggregate::new(
            input,
            group_by.to_vec(),
            aggs.to_vec(),
        ))))
    } else {
        let agg = HashAggregate::new(input, group_by.to_vec(), aggs.to_vec());
        node.label = match agg.strategy {
            Some(strategy) => {
                format!("HashAggregate [strategy={strategy:?}] group_by={group_by:?}")
            }
            None => format!("HashAggregate [total] group_by={group_by:?}"),
        };
        Ok(node.wrap(Box::new(agg)))
    }
}

/// Lower a morsel-parallel pipeline (§3.3/§8 generalized). The strategic
/// optimizer wrapped an eligible shape; this makes the tactical call:
/// decompose the pipeline into (ranged scan source, composed predicate,
/// optional aggregate), require merge-exact aggregates and enough
/// morsels to occupy the workers, and fall back to the serial lowering
/// — with a decision event either way — when it declines.
fn lower_morsel(
    input_plan: &LogicalPlan,
    degree: usize,
    demand: Demand,
    tr: Tracer,
) -> io::Result<BoxOp> {
    match build_morsel(input_plan, degree, &demand) {
        Ok((exec, what)) => {
            decide(
                "parallelism",
                &format!("morsel-parallel(degree={})", exec.degree()),
                || {
                    format!(
                        "{} morsel(s) across {} workers, deterministic merge",
                        exec.morsel_count(),
                        exec.degree()
                    )
                },
            );
            let node = tr.node(format!(
                "Morsel{what} [parallel={}] morsels={}",
                exec.degree(),
                exec.morsel_count()
            ));
            Ok(node.wrap(Box::new(exec)))
        }
        Err(reason) => {
            decide("parallelism", "serial", || reason);
            lower(input_plan, demand, tr)
        }
    }
}

/// Decompose a morsel-eligible pipeline and build its executor, its scan
/// applying the demand the serial lowering's would (`demand` is the
/// pipeline's own), or explain (in the `Err`) why it must stay serial.
fn build_morsel(
    input_plan: &LogicalPlan,
    degree: usize,
    demand: &Demand,
) -> Result<(tde_exec::morsel::MorselExec, &'static str), String> {
    use tde_exec::morsel::{morsel_count, MorselExec, MorselPipeline};

    let (scan, filter, agg) = match input_plan {
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => match input.as_ref() {
            LogicalPlan::Filter { input, predicate } => {
                (input.as_ref(), Some(predicate), Some((group_by, aggs)))
            }
            scan => (scan, None, Some((group_by, aggs))),
        },
        LogicalPlan::Filter { input, predicate } => (input.as_ref(), Some(predicate), None),
        scan => (scan, None, None),
    };
    let LogicalPlan::Scan {
        source,
        columns,
        expand_dictionaries,
        predicate: pushed,
    } = scan
    else {
        return Err("pipeline does not bottom out in a rangeable scan".to_string());
    };
    let names: Vec<&str> = columns.iter().map(String::as_str).collect();
    let source = source.resolve(&names).map_err(|e| e.to_string())?;
    let expand = *expand_dictionaries;
    // A residual filter composes with any predicate the kernel-pushdown
    // rewrite already folded into the scan: conjunction over the same
    // source schema, evaluated per block — row-identical to the stacked
    // Filter operator (which also drops fully-filtered blocks).
    let predicate = match (pushed, filter) {
        (Some(q), Some(p)) => Some(Expr::And(Box::new(q.clone()), Box::new(p.clone()))),
        (q, p) => q.as_ref().or(p).cloned(),
    };
    let demand = agg.map_or_else(
        || demand.clone(),
        |(keys, aggs)| aggregate_demand(keys, aggs),
    );
    let demand = filter.into_iter().fold(demand, Demand::reading);
    let (source, chose) = source.with_needs(|c| demand.of(c), expand, predicate.as_ref());
    if predicate
        .as_ref()
        .is_some_and(|p| source.keeps_nothing(expand, p))
    {
        return Err("the predicate keeps no row: nothing to spread across workers".to_string());
    }
    // A serial fold over the runs is O(runs); no split of the rows across
    // workers can beat it.
    if chose.runs {
        return Err("pipeline folds per run: one serial pass over the runs".to_string());
    }
    let morsels = morsel_count(&source);
    if morsels < 2 {
        return Err(format!(
            "{morsels} morsel(s): nothing to spread across workers"
        ));
    }
    let (pipeline, what) = match agg {
        None => (MorselPipeline::Emit, "Scan"),
        Some((group_cols, aggs)) => {
            let (group_cols, aggs) = (group_cols.clone(), aggs.clone());
            let schema = source.schema(expand);
            if !merge_safe(&schema, &aggs) {
                return Err(
                    "Sum over a Real column is order-dependent; partials do not merge exactly"
                        .to_string(),
                );
            }
            if tactical_ordered(&schema, &group_cols) {
                (
                    MorselPipeline::OrderedAgg { group_cols, aggs },
                    "OrderedAggregate",
                )
            } else {
                (
                    MorselPipeline::HashAgg { group_cols, aggs },
                    "HashAggregate",
                )
            }
        }
    };
    record_choices(&chose, columns);
    Ok((
        MorselExec::new(
            source,
            expand,
            predicate.map(|p| (p, false)),
            pipeline,
            degree,
        ),
        what,
    ))
}

fn apply_inner_ops(mut op: BoxOp, inner: &InnerOps, keep_cols: &[&str]) -> BoxOp {
    if let Some(pred) = &inner.filter {
        op = Box::new(Filter::new(op, pred.clone()));
    }
    if let Some((name, expr)) = &inner.compute {
        // Keep the structural columns, replace/append the computed value.
        let schema = op.schema().clone();
        let mut exprs: Vec<(String, Expr)> = keep_cols
            .iter()
            .filter_map(|n| schema.index_of(n).map(|i| ((*n).to_owned(), Expr::col(i))))
            .collect();
        exprs.push((name.clone(), expr.clone()));
        op = Box::new(Project::new(op, exprs));
    }
    op
}

fn lower_expand_join(
    outer_plan: &LogicalPlan,
    column: usize,
    source: &(Arc<tde_storage::Table>, usize),
    inner: &InnerOps,
    tr: Tracer,
) -> io::Result<BoxOp> {
    let src_col = &source.0.columns[source.1];
    let mut node = tr.node(format!("ExpandJoin {}.{}", source.0.name, src_col.name));
    let outer = lower(outer_plan, Demand::All, node.child())?;
    let (dict, _) = dictionary_table(src_col, &format!("{}_dict", src_col.name));
    // Inner pipeline over the dictionary, then materialize with FlowTable
    // under the inner-side policy (§4.3) so metadata is extracted and the
    // join can go tactical.
    let inner_op = apply_inner_ops(Box::new(TableScan::new(dict)), inner, &["token", "value"]);
    let built = flow_table(
        inner_op,
        "expand_inner",
        FlowTableOptions {
            policy: EncodingPolicy::inner_side(),
        },
    );
    let inner_table = built.table;
    let inner_schema = TableScan::new(inner_table.clone()).schema().clone();
    let token_idx = inner_schema
        .index_of("token")
        .expect("token column preserved");
    // Project the expanded value: the `value` column for scalar
    // dictionaries, the computed column when present, or nothing (pure
    // semi-join filter) for plain string dictionaries.
    let value_idx = inner
        .compute
        .as_ref()
        .and_then(|(n, _)| inner_schema.index_of(n))
        .or_else(|| inner_schema.index_of("value"));
    let project: Vec<usize> = value_idx.into_iter().collect();

    let nouter = outer.schema().len();
    let out_names: Vec<String> = outer
        .schema()
        .fields
        .iter()
        .map(|f| f.name.clone())
        .collect();
    let join = Join::new(
        outer,
        &inner_table,
        &inner_schema,
        column,
        token_idx,
        &project,
        JoinKind::Inner,
    );
    node.label = format!(
        "ExpandJoin {}.{} [{:?}]",
        source.0.name, src_col.name, join.choice
    );
    if value_idx.is_none() {
        // Semi-join: schema unchanged.
        return Ok(node.wrap(Box::new(join)));
    }
    // Splice the expanded value into the compressed column's position.
    let exprs: Vec<(String, Expr)> = (0..nouter)
        .map(|i| {
            if i == column {
                let name = inner
                    .compute
                    .as_ref()
                    .map(|(n, _)| n.clone())
                    .unwrap_or_else(|| out_names[i].clone());
                (name, Expr::col(nouter))
            } else {
                (out_names[i].clone(), Expr::col(i))
            }
        })
        .collect();
    Ok(node.wrap(Box::new(Project::new(Box::new(join), exprs))))
}

fn lower_index_scan(
    source: &(Arc<tde_storage::Table>, usize),
    inner: &InnerOps,
    sort_by_value: bool,
    fetch: &[String],
    output_columns: &[String],
    demand: &Demand,
    tr: Tracer,
) -> io::Result<BoxOp> {
    let src_col = &source.0.columns[source.1];
    // The table's memo: built by the first query that index-scans the
    // column, shared by every later one.
    let (view, built) = source
        .0
        .run_index(source.1)
        .expect("rule 2 index-scans run-length columns");
    let idx = view.index.expect("rule 2 index-scans scalar columns");
    let runs = idx.row_count();
    let mut inner_op: BoxOp =
        apply_inner_ops(Box::new(TableScan::new(idx)), inner, &["count", "start"]);
    if sort_by_value {
        // Value is whatever column isn't count/start; after inner ops it
        // sits wherever the projection put it — find it by exclusion.
        let schema = inner_op.schema();
        let vcol = (0..schema.len())
            .find(|&i| {
                let n = &schema.fields[i].name;
                n != "count" && n != "start"
            })
            .expect("index inner keeps a value column");
        inner_op = Box::new(Sort::new(inner_op, vec![(vcol, SortOrder::Asc)]));
    }
    let fetch_refs: Vec<&str> = fetch.iter().map(String::as_str).collect();
    let mut scan =
        IndexedScan::new(inner_op, source.0.clone(), &fetch_refs).with_names(output_columns);
    let fields = &scan.schema().fields;
    let carry =
        scan.fetches_runs() && (0..fields.len()).all(|c| demand.of(c).takes_runs(&fields[c]));
    // The label ends with how much of the run index the query used —
    // index rows, rows the inner filter kept — and whether this query
    // built the index and the fetched columns' run indexes or found them
    // built.
    let label = format!(
        "IndexedScan {}.{} fetch=[{}]{} runs={runs} qualified={} index={}",
        source.0.name,
        src_col.name,
        fetch.join(", "),
        if sort_by_value { " ordered" } else { "" },
        scan.index_rows(),
        if built || scan.built_run_index() {
            "built"
        } else {
            "cached"
        }
    );
    if carry {
        scan = scan.with_runs();
    }
    Ok(tr.node(runs_label(label, carry)).wrap(Box::new(scan)))
}

/// Run a plan to completion, returning the output schema and every
/// block; errors as [`try_execute`].
pub fn try_run(plan: &LogicalPlan) -> io::Result<(tde_exec::Schema, Vec<tde_exec::Block>)> {
    let op = try_execute(plan)?;
    let schema = op.schema().clone();
    Ok((schema, tde_exec::drain(op)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::PlanBuilder;
    use crate::strategic::{optimize, OptimizerOptions};
    use std::collections::HashMap;
    use std::sync::Arc;
    use tde_encodings::{EncodedStream, BLOCK_SIZE};
    use tde_exec::expr::{AggFunc, CmpOp, Func};
    use tde_storage::{convert, Column, ColumnBuilder, Table};
    use tde_types::{DataType, Width};

    fn rle_table(rows: i64, domain: i64) -> Arc<Table> {
        let per = rows / domain;
        let mut key_data = Vec::new();
        let mut other_data = Vec::new();
        for v in 0..domain {
            for j in 0..per {
                key_data.push(v);
                other_data.push((v * 37 + j) % 1000);
            }
        }
        let mut key = EncodedStream::new_rle(Width::W8, true, Width::W4, Width::W2);
        for c in key_data.chunks(BLOCK_SIZE) {
            key.append_block(c).unwrap();
        }
        let other = tde_encodings::dynamic::encode_all(&other_data, Width::W8, true).stream;
        Arc::new(Table::new(
            "t",
            vec![
                Column::scalar("k", DataType::Integer, key),
                Column::scalar("o", DataType::Integer, other),
            ],
        ))
    }

    /// Lower and drain `plan` in a query scope of its own: the operator
    /// labels (lowering order), the decisions and other events, and the
    /// rows produced.
    fn traced(plan: &LogicalPlan) -> (Vec<String>, Vec<tde_obs::Event>, u64) {
        use tde_obs::timeline::{self, TimelineKind};
        let token = timeline::query_begin(0);
        let rows = tde_exec::count_rows(try_execute(plan).unwrap());
        let trace = timeline::query_end(token, "", 0, 0, None, &[]);
        let mut spans: Vec<(u32, String)> = trace
            .events
            .iter()
            .filter(|e| e.scope == trace.scope)
            .filter_map(|e| match &e.kind {
                TimelineKind::OperatorSpan { op_id, label, .. } => Some((*op_id, label.clone())),
                _ => None,
            })
            .collect();
        spans.sort();
        let labels = spans.into_iter().map(|(_, label)| label).collect();
        (labels, trace.own_events().cloned().collect(), rows)
    }

    fn agg_results(plan: &LogicalPlan) -> HashMap<i64, i64> {
        let (_, blocks) = try_run(plan).unwrap();
        let mut m = HashMap::new();
        for b in &blocks {
            for r in 0..b.len {
                m.insert(b.columns[0][r], b.columns[1][r]);
            }
        }
        m
    }

    /// The paper's Fig 10 query under all three plans must agree.
    #[test]
    fn three_plans_agree_on_fig10_query() {
        let t = rle_table(100_000, 100);
        let query = |t: &Arc<Table>| {
            PlanBuilder::scan(t)
                .filter(Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(100 - 30)))
                .aggregate(vec![0], vec![AggSpec::new(AggFunc::Max, 1, "mx")])
                .build()
        };
        // Plan 1: control (no rewrites).
        let p1 = optimize(
            query(&t),
            OptimizerOptions {
                invisible_joins: false,
                index_tables: false,
                ordered_retrieval: false,
                kernel_pushdown: false,
                parallelism: 1,
            },
        );
        // Plan 2: indexed scan, hash aggregation.
        let p2 = optimize(
            query(&t),
            OptimizerOptions {
                ordered_retrieval: false,
                kernel_pushdown: false,
                ..Default::default()
            },
        );
        // Plan 3: indexed scan, sorted, ordered aggregation.
        let p3 = optimize(query(&t), OptimizerOptions::default());
        let (r1, r2, r3) = (agg_results(&p1), agg_results(&p2), agg_results(&p3));
        assert_eq!(r1.len(), 29);
        assert_eq!(r1, r2);
        assert_eq!(r1, r3);
    }

    #[test]
    fn ordered_plan_uses_ordered_aggregate() {
        let t = rle_table(50_000, 50);
        let plan = PlanBuilder::scan(&t)
            .filter(Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(25)))
            .aggregate(vec![0], vec![AggSpec::new(AggFunc::Count, 1, "n")])
            .build();
        let opt = optimize(plan, OptimizerOptions::default());
        assert!(opt.explain().contains("ordered"));
        // Execute: results must match the control.
        let control = PlanBuilder::scan(&t)
            .filter(Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(25)))
            .aggregate(vec![0], vec![AggSpec::new(AggFunc::Count, 1, "n")])
            .build();
        assert_eq!(agg_results(&opt), agg_results(&control));
    }

    #[test]
    fn morsel_plan_matches_serial_and_labels_parallelism() {
        let t = rle_table(100_000, 100);
        let query = |t: &Arc<Table>| {
            PlanBuilder::scan(t)
                .filter(Expr::cmp(CmpOp::Gt, Expr::col(1), Expr::int(500)))
                .aggregate(vec![0], vec![AggSpec::new(AggFunc::Max, 1, "mx")])
                .build()
        };
        let serial = optimize(query(&t), OptimizerOptions::default());
        let parallel = optimize(
            query(&t),
            OptimizerOptions {
                parallelism: 4,
                ..Default::default()
            },
        );
        assert!(
            parallel.explain().contains("Morsel"),
            "{}",
            parallel.explain()
        );
        let (ss, sb) = try_run(&serial).unwrap();
        let (ps, pb) = try_run(&parallel).unwrap();
        assert_eq!(ss.fields.len(), ps.fields.len());
        // Byte-identical: same blocks, same order.
        assert_eq!(sb.len(), pb.len());
        for (a, b) in sb.iter().zip(&pb) {
            assert_eq!(a.len, b.len);
            assert_eq!(a.columns, b.columns);
        }
        // The traced operator label carries the degree.
        let (labels, _, _) = traced(&parallel);
        assert!(
            labels.iter().any(|l| l.contains("[parallel=4]")),
            "{labels:?}"
        );
    }

    #[test]
    fn run_folding_pipeline_stays_serial() {
        // 100 000 rows in 100 runs: plenty of morsels, but a serial fold
        // over the runs beats any split of the rows.
        let t = rle_table(100_000, 100);
        let lowered = |opts: OptimizerOptions| {
            let plan = PlanBuilder::scan_columns(&t, &["k"])
                .filter(Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::int(40)))
                .aggregate(vec![0], vec![AggSpec::new(AggFunc::Count, 0, "n")])
                .build();
            let opt = optimize(
                plan,
                OptimizerOptions {
                    parallelism: 4,
                    ..opts
                },
            );
            assert!(opt.explain().contains("Morsel"), "{}", opt.explain());
            let (labels, events, rows) = traced(&opt);
            assert_eq!(rows, 60);
            let serial = events.iter().any(|e| {
                matches!(e, tde_obs::Event::Decision { point: "parallelism", choice, reason, .. }
                    if choice == "serial" && reason.contains("folds per run"))
            });
            (labels, serial)
        };
        let kernel_only = OptimizerOptions {
            index_tables: false,
            ordered_retrieval: false,
            ..Default::default()
        };
        let (labels, serial) = lowered(kernel_only);
        assert!(serial, "{labels:?}");
        assert!(labels.iter().any(|l| l.ends_with("[runs]")), "{labels:?}");
        assert!(
            !labels.iter().any(|l| l.contains("[parallel=")),
            "{labels:?}"
        );
        // A Filter between aggregate and scan reads rows: parallel.
        let (labels, serial) = lowered(OptimizerOptions {
            kernel_pushdown: false,
            ..kernel_only
        });
        assert!(!serial, "{labels:?}");
        assert!(
            labels.iter().any(|l| l.contains("[parallel=4]")),
            "{labels:?}"
        );
    }

    #[test]
    fn a_predicate_metadata_rules_out_reads_nothing() {
        // Built columns carry min/max: `k > 500` over k in [0, 100) keeps
        // no row, so no IndexTable is built, the scan walks no block and
        // no worker is started.
        let mut k = ColumnBuilder::new("k", DataType::Integer, Default::default());
        let mut x = ColumnBuilder::new("x", DataType::Integer, Default::default());
        for i in 0..100_000i64 {
            k.append_i64(i / 1000);
            x.append_i64(i % 977);
        }
        let t = Arc::new(Table::new("t", vec![k.finish().column, x.finish().column]));
        let plan = PlanBuilder::scan(&t)
            .filter(Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(500)))
            .aggregate(vec![1], vec![AggSpec::new(AggFunc::Count, 0, "n")])
            .build();
        let opt = optimize(
            plan,
            OptimizerOptions {
                parallelism: 4,
                ..Default::default()
            },
        );
        let text = opt.explain();
        assert!(
            text.contains("Morsel") && !text.contains("IndexedScan"),
            "{text}"
        );
        let (labels, events, rows) = traced(&opt);
        assert_eq!(rows, 0);
        assert!(
            !labels.iter().any(|l| l.contains("[parallel=")),
            "{labels:?}"
        );
        assert!(events.iter().any(|e| matches!(e,
            tde_obs::Event::Decision { point: "parallelism", reason, .. }
                if reason.contains("keeps no row"))));
        assert!(
            events.iter().any(|e| matches!(e,
            tde_obs::Event::KernelScan { kernel, rows_in: 100_000, rows_skipped: 100_000, .. }
                if kernel == "metadata-minmax")),
            "{events:?}"
        );
    }

    #[test]
    fn tiny_input_falls_back_to_serial() {
        // One morsel's worth of rows: lowering declines parallelism.
        let t = rle_table(1000, 10);
        let plan = PlanBuilder::scan(&t)
            .filter(Expr::cmp(CmpOp::Gt, Expr::col(1), Expr::int(100)))
            .build();
        let opt = optimize(
            plan,
            OptimizerOptions {
                parallelism: 8,
                ..Default::default()
            },
        );
        assert!(opt.explain().contains("Morsel"));
        let (labels, _, rows) = traced(&opt);
        assert!(rows > 0);
        assert!(
            !labels.iter().any(|l| l.contains("[parallel=")),
            "expected serial fallback, got {labels:?}"
        );
    }

    #[test]
    fn invisible_join_plan_executes() {
        // Dictionary-compressed date column with a range filter.
        let days: Vec<i64> = (0..30_000).map(|i| 9000 + (i % 300)).collect();
        let mut stream = EncodedStream::new_dict(Width::W8, true, 9);
        for c in days.chunks(BLOCK_SIZE) {
            stream.append_block(c).unwrap();
        }
        let mut col = Column::scalar("d", DataType::Date, stream);
        convert::dict_encoding_to_compression(&mut col);
        let mut x = ColumnBuilder::new("x", DataType::Integer, Default::default());
        for i in 0..30_000i64 {
            x.append_i64(i % 11);
        }
        let t = Arc::new(Table::new("facts", vec![col, x.finish().column]));

        let plan = PlanBuilder::scan(&t)
            .filter(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(9100)))
            .build();
        let opt = optimize(plan, OptimizerOptions::default());
        assert!(opt.explain().contains("ExpandJoin"), "{}", opt.explain());
        let (schema, blocks) = try_run(&opt).unwrap();
        let total: usize = blocks.iter().map(|b| b.len).sum();
        assert_eq!(total, 10_000); // 100 of 300 days qualify
                                   // The expanded column is a scalar date again.
        assert_eq!(schema.fields[0].dtype, DataType::Date);
        for b in &blocks {
            assert!(b.columns[0].iter().all(|&d| (9000..9100).contains(&d)));
        }
    }

    #[test]
    fn computed_dictionary_column() {
        // Push a month computation onto the dictionary (§3.4.3 rationale).
        let days: Vec<i64> = (0..10_000)
            .map(|i| tde_types::datetime::days_from_ymd(1995, 1, 1) + (i % 250))
            .collect();
        let mut stream = EncodedStream::new_dict(Width::W8, true, 8);
        for c in days.chunks(BLOCK_SIZE) {
            stream.append_block(c).unwrap();
        }
        let mut col = Column::scalar("d", DataType::Date, stream);
        convert::dict_encoding_to_compression(&mut col);
        let t = Arc::new(Table::new("facts", vec![col]));

        let plan = LogicalPlan::ExpandJoin {
            outer: Box::new(PlanBuilder::scan(&t).build()),
            column: 0,
            source: (t.clone(), 0),
            inner: crate::logical::InnerOps {
                filter: None,
                compute: Some((
                    "month".into(),
                    Expr::Func(Func::Month, Box::new(Expr::col(1))),
                )),
            },
        };
        let (schema, blocks) = try_run(&plan).unwrap();
        assert_eq!(schema.fields[0].name, "month");
        let total: usize = blocks.iter().map(|b| b.len).sum();
        assert_eq!(total, 10_000);
        for b in &blocks {
            assert!(b.columns[0].iter().all(|&m| (1..=12).contains(&m)));
        }
        // Spot-check against direct computation.
        let expect = tde_types::datetime::month_of(days[5]);
        assert_eq!(blocks[0].columns[0][5], expect);
    }
}
