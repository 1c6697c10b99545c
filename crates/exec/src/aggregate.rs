//! Aggregation: hash-based (with tactically chosen hash strategy) and
//! ordered ("sandwiched", paper §4.2.2).
//!
//! The hash aggregate picks direct/perfect/collision hashing from the key
//! columns' metadata (§2.3.4); the ordered aggregate exploits grouped
//! input — a sorted primary key, or the value-sorted IndexedScan output of
//! §4.2.2 — to aggregate in a single pass with no table at all.

use crate::block::{Block, Field, Repr, Schema};
use crate::expr::AggFunc;
use crate::hash::{GroupMap, HashStrategy, KeyPacking};
use crate::tactical;
use crate::{BoxOp, Operator, BLOCK_ROWS};
use tde_types::sentinel::{is_null_real, null_real, NULL_I64, NULL_TOKEN};
use tde_types::DataType;

/// One aggregate to compute.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// Input column index (ignored for `Count`).
    pub col: usize,
    /// Output column name.
    pub name: String,
}

impl AggSpec {
    /// Convenience constructor.
    pub fn new(func: AggFunc, col: usize, name: impl Into<String>) -> AggSpec {
        AggSpec {
            func,
            col,
            name: name.into(),
        }
    }
}

#[derive(Clone, PartialEq)]
enum Domain {
    Int,
    Real,
    Token,
    /// Dictionary-coded input: stored values are positions into the
    /// dictionary, not scalars — they must be translated before folding
    /// (a sum of codes is meaningless, and extrema of codes follow
    /// dictionary order, not value order).
    Dict(std::sync::Arc<Vec<i64>>),
}

fn domain_of(f: &Field) -> Domain {
    match (&f.repr, f.dtype) {
        (Repr::Token(_) | Repr::TokenCell(_), _) => Domain::Token,
        (Repr::DictIndex(dict), _) => Domain::Dict(dict.clone()),
        (_, DataType::Real) => Domain::Real,
        _ => Domain::Int,
    }
}

/// Whether `aggs` over `schema` merge exactly from partials computed
/// over consecutive slices of the input. Integer/token/dict folds are
/// associative and exact; Real sums are order-dependent (f64 addition),
/// so the planner must keep them serial.
pub fn merge_safe(schema: &Schema, aggs: &[AggSpec]) -> bool {
    !aggs
        .iter()
        .any(|a| a.func == AggFunc::Sum && domain_of(&schema.fields[a.col]) == Domain::Real)
}

/// Accumulator state for one (group, agg) cell.
#[derive(Clone, Copy)]
struct Acc {
    value: i64,
    count: u64,
}

const INIT_ACC: Acc = Acc { value: 0, count: 0 };

#[inline]
fn fold(acc: &mut Acc, func: AggFunc, domain: &Domain, raw: i64) {
    // NULL inputs are skipped (except COUNT counts rows).
    if func == AggFunc::Count {
        acc.count += 1;
        return;
    }
    // Translate dictionary codes to the scalars they stand for; joins can
    // inject the scalar sentinel directly, so it passes through.
    let raw = match domain {
        Domain::Dict(dict) if raw != NULL_I64 => dict[raw as usize],
        _ => raw,
    };
    let is_null = match domain {
        Domain::Int | Domain::Dict(_) => raw == NULL_I64,
        Domain::Real => is_null_real(f64::from_bits(raw as u64)),
        Domain::Token => raw as u64 == NULL_TOKEN,
    };
    if is_null {
        return;
    }
    if acc.count == 0 {
        acc.value = raw;
        acc.count = 1;
        return;
    }
    acc.count += 1;
    match (func, domain) {
        (AggFunc::Sum, Domain::Real) => {
            let s = f64::from_bits(acc.value as u64) + f64::from_bits(raw as u64);
            acc.value = s.to_bits() as i64;
        }
        (AggFunc::Sum, _) => acc.value = acc.value.wrapping_add(raw),
        (AggFunc::Min, Domain::Real) => {
            if f64::from_bits(raw as u64) < f64::from_bits(acc.value as u64) {
                acc.value = raw;
            }
        }
        (AggFunc::Max, Domain::Real) => {
            if f64::from_bits(raw as u64) > f64::from_bits(acc.value as u64) {
                acc.value = raw;
            }
        }
        // Token min/max compares tokens: correct when the heap is sorted —
        // the §3.4.3 payoff; otherwise it is heap order.
        (AggFunc::Min, _) => acc.value = acc.value.min(raw),
        (AggFunc::Max, _) => acc.value = acc.value.max(raw),
        (AggFunc::Count, _) => unreachable!(),
    }
}

/// Merge accumulator `b` (a partial computed over a later slice of the
/// input) into `a`. Exact for every merge-safe function: counts add,
/// wrapping integer sums add, extrema compare — the same results the
/// serial fold produces in any split, because those folds are
/// associative and commutative over the non-NULL inputs. Real sums are
/// NOT merge-safe (f64 addition is order-dependent); the morsel planner
/// declines parallelism for them rather than merge here.
fn merge_acc(a: &mut Acc, b: &Acc, func: AggFunc, domain: &Domain) {
    if func == AggFunc::Count {
        a.count += b.count;
        return;
    }
    if b.count == 0 {
        return;
    }
    if a.count == 0 {
        *a = *b;
        return;
    }
    a.count += b.count;
    match (func, domain) {
        (AggFunc::Sum, Domain::Real) => {
            let s = f64::from_bits(a.value as u64) + f64::from_bits(b.value as u64);
            a.value = s.to_bits() as i64;
        }
        (AggFunc::Sum, _) => a.value = a.value.wrapping_add(b.value),
        (AggFunc::Min, Domain::Real) => {
            if f64::from_bits(b.value as u64) < f64::from_bits(a.value as u64) {
                a.value = b.value;
            }
        }
        (AggFunc::Max, Domain::Real) => {
            if f64::from_bits(b.value as u64) > f64::from_bits(a.value as u64) {
                a.value = b.value;
            }
        }
        (AggFunc::Min, _) => a.value = a.value.min(b.value),
        (AggFunc::Max, _) => a.value = a.value.max(b.value),
        (AggFunc::Count, _) => unreachable!(),
    }
}

fn final_value(acc: &Acc, func: AggFunc, domain: &Domain) -> i64 {
    match func {
        AggFunc::Count => acc.count as i64,
        _ if acc.count == 0 => match domain {
            Domain::Real => null_real().to_bits() as i64,
            Domain::Token => NULL_TOKEN as i64,
            Domain::Int | Domain::Dict(_) => NULL_I64,
        },
        _ => acc.value,
    }
}

fn output_schema(input: &Schema, group_cols: &[usize], aggs: &[AggSpec]) -> Schema {
    let mut fields: Vec<Field> = group_cols
        .iter()
        .map(|&c| input.fields[c].clone())
        .collect();
    for a in aggs {
        let mut f = match a.func {
            AggFunc::Count => Field::scalar(a.name.clone(), DataType::Integer),
            _ => {
                let mut f = input.fields[a.col].clone();
                // Folding translated dictionary codes to scalars, so the
                // aggregate value is no longer a dictionary position.
                if matches!(f.repr, Repr::DictIndex(_)) {
                    f.repr = Repr::Scalar;
                }
                f.metadata = tde_encodings::ColumnMetadata::unknown();
                f
            }
        };
        f.name = a.name.clone();
        fields.push(f);
    }
    Schema::new(fields)
}

fn emit_blocks(rows: Vec<Vec<i64>>, ncols: usize) -> Vec<Block> {
    // rows is column-major already.
    let nrows = rows.first().map_or(0, Vec::len);
    let mut blocks = Vec::new();
    let mut at = 0;
    while at < nrows {
        let take = BLOCK_ROWS.min(nrows - at);
        let columns: Vec<Vec<i64>> = (0..ncols)
            .map(|c| rows[c][at..at + take].to_vec())
            .collect();
        blocks.push(Block { columns, len: take });
        at += take;
    }
    blocks
}

/// How rows find their group — the §4.2.2 tactical choice, fixed when
/// the core is built.
enum Grouping {
    /// A hash table on the key columns; groups come out in
    /// first-occurrence order.
    Hash(HashStrategy, Option<KeyPacking>),
    /// Groups arrive contiguously: a key unlike the last opens a new run.
    Ordered,
}

/// The groups of a [`Partial`], in output order.
enum Groups {
    /// Keys behind a hash index.
    Indexed(GroupMap),
    /// Keys alone: the runs of an ordered aggregation, or a hash partial
    /// whose index was dropped for the hand-over to a merge.
    Listed(Vec<Vec<i64>>),
}

impl Groups {
    fn keys(&self) -> &[Vec<i64>] {
        match self {
            Groups::Indexed(map) => map.keys(),
            Groups::Listed(keys) => keys,
        }
    }

    /// The group id for `key`: looked up or allocated in the index, or —
    /// listed — the last run when it has this key, else a new run.
    fn slot(&mut self, key: &[i64]) -> usize {
        match self {
            Groups::Indexed(map) => map.get_or_insert(key),
            Groups::Listed(keys) => run_slot(keys, key),
        }
    }
}

#[inline]
fn run_slot(keys: &mut Vec<Vec<i64>>, key: &[i64]) -> usize {
    if keys.last().map(Vec::as_slice) != Some(key) {
        keys.push(key.to_vec());
    }
    keys.len() - 1
}

/// Aggregation state over a contiguous slice of the input: its groups in
/// output order, each with one accumulator per aggregate.
pub(crate) struct Partial {
    groups: Groups,
    accs: Vec<Vec<Acc>>, // [group][agg]
    key: Vec<i64>,       // row-key scratch
}

impl Partial {
    /// Drop the hash index for the hand-over to [`AggCore::absorb`]: only
    /// the groups and their order travel from a morsel task to the merge
    /// (a direct-64K table per pending morsel would not be small).
    pub(crate) fn without_index(mut self) -> Partial {
        if let Groups::Indexed(map) = &self.groups {
            self.groups = Groups::Listed(map.keys().to_vec());
        }
        self
    }
}

/// The one partial-aggregation core. The serial operators, every morsel
/// task and the morsel merge phase all aggregate through it: fold blocks
/// into a [`Partial`], absorb later partials in input order, finish to
/// blocks. Absorbing in order is what makes a split run reproduce the
/// serial one byte for byte — hash groups keep first-occurrence order,
/// and an ordered run cut by a task boundary is rejoined.
pub(crate) struct AggCore {
    group_cols: Vec<usize>,
    aggs: Vec<AggSpec>,
    domains: Vec<Domain>,
    grouping: Grouping,
    schema: Schema,
}

impl AggCore {
    /// Hash aggregation of `input`-shaped blocks, the strategy chosen
    /// tactically from the key columns' metadata.
    pub(crate) fn hash(input: &Schema, group_cols: Vec<usize>, aggs: Vec<AggSpec>) -> AggCore {
        let keys: Vec<&Field> = group_cols.iter().map(|&c| &input.fields[c]).collect();
        let (strategy, packing) = tactical::choose_hash_strategy(&keys);
        AggCore::new(input, group_cols, aggs, Grouping::Hash(strategy, packing))
    }

    /// Ordered aggregation: `input`'s groups must arrive contiguously.
    pub(crate) fn ordered(input: &Schema, group_cols: Vec<usize>, aggs: Vec<AggSpec>) -> AggCore {
        AggCore::new(input, group_cols, aggs, Grouping::Ordered)
    }

    fn new(
        input: &Schema,
        group_cols: Vec<usize>,
        aggs: Vec<AggSpec>,
        grouping: Grouping,
    ) -> AggCore {
        AggCore {
            domains: aggs
                .iter()
                .map(|a| domain_of(&input.fields[a.col]))
                .collect(),
            schema: output_schema(input, &group_cols, &aggs),
            group_cols,
            aggs,
            grouping,
        }
    }

    /// The output schema: group keys, then aggregates.
    pub(crate) fn schema(&self) -> &Schema {
        &self.schema
    }

    /// An empty partial.
    pub(crate) fn start(&self) -> Partial {
        Partial {
            groups: match &self.grouping {
                Grouping::Hash(strategy, packing) => {
                    Groups::Indexed(GroupMap::new(*strategy, packing.clone()))
                }
                Grouping::Ordered => Groups::Listed(Vec::new()),
            },
            accs: Vec::new(),
            key: vec![0; self.group_cols.len()],
        }
    }

    /// Fold one block's rows into `p`.
    pub(crate) fn fold_block(&self, p: &mut Partial, block: &Block) {
        let Partial { groups, accs, key } = p;
        // The grouping is matched per block, not per row: each arm
        // instantiates its own copy of the row loop.
        match groups {
            Groups::Indexed(map) => self.fold_rows(block, accs, key, |k| map.get_or_insert(k)),
            Groups::Listed(keys) => self.fold_rows(block, accs, key, |k| run_slot(keys, k)),
        }
    }

    #[inline]
    fn fold_rows(
        &self,
        block: &Block,
        accs: &mut Vec<Vec<Acc>>,
        key: &mut [i64],
        mut slot: impl FnMut(&[i64]) -> usize,
    ) {
        for r in 0..block.len {
            for (k, &c) in self.group_cols.iter().enumerate() {
                key[k] = block.columns[c][r];
            }
            let g = slot(key);
            if g == accs.len() {
                accs.push(vec![INIT_ACC; self.aggs.len()]);
            }
            for (a, spec) in self.aggs.iter().enumerate() {
                fold(
                    &mut accs[g][a],
                    spec.func,
                    &self.domains[a],
                    block.columns[spec.col][r],
                );
            }
        }
    }

    /// Fold everything `input` produces into one partial.
    pub(crate) fn fold_all(&self, mut input: BoxOp) -> Partial {
        let mut p = self.start();
        while let Some(block) = input.next_block() {
            self.fold_block(&mut p, &block);
        }
        p
    }

    /// Absorb `later`, a partial over the slice of input that directly
    /// follows `p`'s. A group new to `p` is appended, so hash groups stay
    /// in first-occurrence order; an ordered run that `later` continues
    /// (its first key is `p`'s last) is merged back into one.
    pub(crate) fn absorb(&self, p: &mut Partial, later: Partial) {
        for (key, partial) in later.groups.keys().iter().zip(later.accs) {
            let g = p.groups.slot(key);
            if g == p.accs.len() {
                p.accs.push(partial);
                continue;
            }
            for (a, spec) in self.aggs.iter().enumerate() {
                merge_acc(&mut p.accs[g][a], &partial[a], spec.func, &self.domains[a]);
            }
        }
    }

    /// Append the final values of `keys`' groups to column-major `out`:
    /// group keys, then aggregates.
    fn finalize(&self, keys: &[Vec<i64>], accs: &[Vec<Acc>], out: &mut [Vec<i64>]) {
        for (gk, acc) in keys.iter().zip(accs) {
            for (k, &v) in gk.iter().enumerate() {
                out[k].push(v);
            }
            for (a, spec) in self.aggs.iter().enumerate() {
                out[self.group_cols.len() + a].push(final_value(
                    &acc[a],
                    spec.func,
                    &self.domains[a],
                ));
            }
        }
    }

    /// Finish `p` to output blocks.
    pub(crate) fn finish(&self, mut p: Partial) -> Vec<Block> {
        // A global hash aggregate (no group keys) over empty input still
        // produces one row of empty aggregates, SQL-style.
        if matches!(self.grouping, Grouping::Hash(..))
            && self.group_cols.is_empty()
            && p.accs.is_empty()
        {
            p.groups.slot(&[]);
            p.accs.push(vec![INIT_ACC; self.aggs.len()]);
        }
        let ncols = self.schema.len();
        let mut cols = vec![Vec::with_capacity(p.accs.len()); ncols];
        self.finalize(p.groups.keys(), &p.accs, &mut cols);
        emit_blocks(cols, ncols)
    }
}

/// Hash aggregation with a tactically chosen strategy.
pub struct HashAggregate {
    input: Option<BoxOp>,
    core: AggCore,
    output: Vec<Block>,
    next: usize,
    /// The strategy that was chosen (visible for tests and explain).
    pub strategy: HashStrategy,
}

impl HashAggregate {
    /// Aggregate `input` grouped by `group_cols`.
    pub fn new(input: BoxOp, group_cols: Vec<usize>, aggs: Vec<AggSpec>) -> HashAggregate {
        let core = AggCore::hash(input.schema(), group_cols, aggs);
        let Grouping::Hash(strategy, _) = core.grouping else {
            unreachable!("a hash core groups by hash")
        };
        HashAggregate {
            input: Some(input),
            core,
            output: Vec::new(),
            next: 0,
            strategy,
        }
    }
}

impl Operator for HashAggregate {
    fn schema(&self) -> &Schema {
        self.core.schema()
    }

    fn next_block(&mut self) -> Option<Block> {
        if let Some(input) = self.input.take() {
            self.output = self.core.finish(self.core.fold_all(input));
        }
        let b = self.output.get(self.next).cloned();
        self.next += 1;
        b
    }
}

/// Ordered (sandwiched) aggregation over grouped input: groups must arrive
/// contiguously. One pass, no hash table (paper §4.2.2), and streaming —
/// a run is emitted once the next one opens, not when the input ends.
pub struct OrderedAggregate {
    input: BoxOp,
    core: AggCore,
    /// The open run, preceded — between a fold and the flush that
    /// follows it — by the runs the last block closed.
    runs: Partial,
    pending: Vec<Vec<i64>>, // column-major finished groups
    done: bool,
}

impl OrderedAggregate {
    /// Aggregate grouped `input` by `group_cols`.
    pub fn new(input: BoxOp, group_cols: Vec<usize>, aggs: Vec<AggSpec>) -> OrderedAggregate {
        let core = AggCore::ordered(input.schema(), group_cols, aggs);
        OrderedAggregate {
            input,
            runs: core.start(),
            pending: vec![Vec::new(); core.schema().len()],
            core,
            done: false,
        }
    }

    /// Move every run but the last `keep` to `pending`.
    fn flush(&mut self, keep: usize) {
        let Groups::Listed(keys) = &mut self.runs.groups else {
            unreachable!("an ordered core lists its runs")
        };
        let closed = keys.len().saturating_sub(keep);
        self.core.finalize(
            &keys[..closed],
            &self.runs.accs[..closed],
            &mut self.pending,
        );
        keys.drain(..closed);
        self.runs.accs.drain(..closed);
    }

    fn pending_rows(&self) -> usize {
        self.pending.first().map_or(0, Vec::len)
    }

    fn take_pending(&mut self, n: usize) -> Block {
        let columns: Vec<Vec<i64>> = self
            .pending
            .iter_mut()
            .map(|c| {
                let rest = c.split_off(n.min(c.len()));
                std::mem::replace(c, rest)
            })
            .collect();
        Block::new(columns)
    }
}

impl Operator for OrderedAggregate {
    fn schema(&self) -> &Schema {
        self.core.schema()
    }

    fn next_block(&mut self) -> Option<Block> {
        while !self.done && self.pending_rows() < BLOCK_ROWS {
            match self.input.next_block() {
                Some(block) => {
                    self.core.fold_block(&mut self.runs, &block);
                    self.flush(1);
                }
                None => {
                    self.flush(0);
                    self.done = true;
                }
            }
        }
        let n = self.pending_rows().min(BLOCK_ROWS);
        if n == 0 {
            return None;
        }
        Some(self.take_pending(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::TableScan;
    use std::collections::HashMap;
    use std::sync::Arc;
    use tde_storage::{ColumnBuilder, EncodingPolicy, Table};
    use tde_types::{DataType, Value};

    fn table(n: i64, groups: i64) -> Arc<Table> {
        let mut g = ColumnBuilder::new("g", DataType::Integer, EncodingPolicy::default());
        let mut v = ColumnBuilder::new("v", DataType::Integer, EncodingPolicy::default());
        for i in 0..n {
            g.append_i64((i * groups) / n); // sorted groups
            v.append_i64(i % 97);
        }
        Arc::new(Table::new("t", vec![g.finish().column, v.finish().column]))
    }

    fn collect(mut op: BoxOp) -> HashMap<i64, (i64, i64, i64)> {
        let mut out = HashMap::new();
        while let Some(b) = op.next_block() {
            for r in 0..b.len {
                out.insert(
                    b.columns[0][r],
                    (b.columns[1][r], b.columns[2][r], b.columns[3][r]),
                );
            }
        }
        out
    }

    fn specs() -> Vec<AggSpec> {
        vec![
            AggSpec::new(AggFunc::Count, 1, "n"),
            AggSpec::new(AggFunc::Min, 1, "lo"),
            AggSpec::new(AggFunc::Max, 1, "hi"),
        ]
    }

    #[test]
    fn hash_and_ordered_agree() {
        let t = table(50_000, 20);
        let hash = collect(Box::new(HashAggregate::new(
            Box::new(TableScan::new(t.clone())),
            vec![0],
            specs(),
        )));
        let ordered = collect(Box::new(OrderedAggregate::new(
            Box::new(TableScan::new(t)),
            vec![0],
            specs(),
        )));
        assert_eq!(hash.len(), 20);
        assert_eq!(hash, ordered);
        let (n, lo, hi) = hash[&0];
        assert_eq!(n, 2500);
        assert_eq!(lo, 0);
        assert_eq!(hi, 96);
    }

    #[test]
    fn ordered_aggregate_emits_before_its_input_ends() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        /// Counts the blocks pulled through it.
        struct Counted(TableScan, Arc<AtomicUsize>);
        impl Operator for Counted {
            fn schema(&self) -> &Schema {
                self.0.schema()
            }
            fn next_block(&mut self) -> Option<Block> {
                self.1.fetch_add(1, Ordering::Relaxed);
                self.0.next_block()
            }
        }
        // Five rows per group: a full output block closes after about
        // five of the input's 49 blocks.
        let t = table(50_000, 10_000);
        let pulls = Arc::new(AtomicUsize::new(0));
        let mut agg = OrderedAggregate::new(
            Box::new(Counted(TableScan::new(t.clone()), pulls.clone())),
            vec![0],
            specs(),
        );
        let first = agg.next_block().unwrap();
        assert_eq!(first.len, BLOCK_ROWS);
        assert!(pulls.load(Ordering::Relaxed) < 10, "materialised its input");
        let mut streamed = vec![first];
        streamed.extend(std::iter::from_fn(|| agg.next_block()));
        let rows: usize = streamed.iter().map(|b| b.len).sum();
        assert_eq!(rows, 10_000);
        assert!(pulls.load(Ordering::Relaxed) >= 49);
    }

    #[test]
    fn direct_strategy_chosen_for_narrow_keys() {
        // The group column was built through FlowTable, so min/max are in
        // its metadata; 0..19 fits in one byte → direct hashing.
        let t = table(10_000, 20);
        let agg = HashAggregate::new(Box::new(TableScan::new(t)), vec![0], specs());
        assert_eq!(agg.strategy, crate::hash::HashStrategy::Direct64K);
    }

    #[test]
    fn nulls_are_skipped() {
        let mut g = ColumnBuilder::new("g", DataType::Integer, EncodingPolicy::default());
        let mut v = ColumnBuilder::new("v", DataType::Integer, EncodingPolicy::default());
        for (gi, vi) in [(1, 5), (1, NULL_I64), (2, NULL_I64)] {
            g.append_i64(gi);
            v.append_i64(vi);
        }
        let t = Arc::new(Table::new("t", vec![g.finish().column, v.finish().column]));
        let mut agg = HashAggregate::new(Box::new(TableScan::new(t)), vec![0], specs());
        let schema = agg.schema().clone();
        let b = agg.next_block().unwrap();
        // Group 1: count 2 rows, min/max skip the NULL.
        let row1 = (0..b.len).find(|&r| b.columns[0][r] == 1).unwrap();
        assert_eq!(b.columns[1][row1], 2);
        assert_eq!(b.columns[2][row1], 5);
        // Group 2: all-NULL min is NULL.
        let row2 = (0..b.len).find(|&r| b.columns[0][r] == 2).unwrap();
        assert_eq!(schema.fields[2].value_of(b.columns[2][row2]), Value::Null);
    }

    #[test]
    fn real_aggregation() {
        let mut g = ColumnBuilder::new("g", DataType::Integer, EncodingPolicy::default());
        let mut v = ColumnBuilder::new("v", DataType::Real, EncodingPolicy::default());
        for x in [1.5f64, 2.5, -3.0] {
            g.append_i64(0);
            v.append_f64(x);
        }
        let t = Arc::new(Table::new("t", vec![g.finish().column, v.finish().column]));
        let mut agg = HashAggregate::new(
            Box::new(TableScan::new(t)),
            vec![0],
            vec![
                AggSpec::new(AggFunc::Sum, 1, "s"),
                AggSpec::new(AggFunc::Min, 1, "lo"),
            ],
        );
        let b = agg.next_block().unwrap();
        assert_eq!(f64::from_bits(b.columns[1][0] as u64), 1.0);
        assert_eq!(f64::from_bits(b.columns[2][0] as u64), -3.0);
    }

    #[test]
    fn global_aggregate_no_groups() {
        let t = table(1000, 4);
        let mut agg = HashAggregate::new(
            Box::new(TableScan::new(t)),
            vec![],
            vec![AggSpec::new(AggFunc::Count, 0, "n")],
        );
        let b = agg.next_block().unwrap();
        assert_eq!(b.len, 1);
        assert_eq!(b.columns[0][0], 1000);
    }
}
