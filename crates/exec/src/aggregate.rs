//! Aggregation: hash-based (with tactically chosen hash strategy) and
//! ordered ("sandwiched", paper §4.2.2).
//!
//! The hash aggregate picks direct/perfect/collision hashing from the key
//! columns' metadata (§2.3.4); the ordered aggregate exploits grouped
//! input — a sorted primary key, or the value-sorted IndexedScan output of
//! §4.2.2 — to aggregate in a single pass with no table at all.

use crate::block::{Block, Field, Repr, Schema};
use crate::expr::AggFunc;
use crate::hash::{GroupMap, HashStrategy, KeyList, KeyPacking};
use crate::tactical;
use crate::{BoxOp, Operator, BLOCK_ROWS};
use std::iter::repeat_n;
use std::sync::Arc;
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
    Dict(Arc<Vec<i64>>),
}

fn domain_of(f: &Field) -> Domain {
    match (&f.repr, f.dtype) {
        (Repr::Token(_) | Repr::TokenCell(_), _) => Domain::Token,
        (Repr::DictIndex(dict, _), _) => Domain::Dict(dict.clone()),
        (_, DataType::Real) => Domain::Real,
        _ => Domain::Int,
    }
}

/// Whether `aggs` over `schema` merge exactly from partials computed
/// over consecutive slices of the input. Integer/token/dict folds are
/// associative and exact; Real sums are order-dependent (f64 addition),
/// so the planner must keep them serial.
pub fn merge_safe(schema: &Schema, aggs: &[AggSpec]) -> bool {
    aggs.iter()
        .all(|a| a.func != AggFunc::Sum || sums_exactly(&schema.fields[a.col]))
}

/// Whether `SUM` over `field` is exact in any grouping of its inputs:
/// anything but a real, whose f64 additions depend on their order.
pub fn sums_exactly(field: &Field) -> bool {
    domain_of(field) != Domain::Real
}

/// Accumulators for one aggregate, one slot per group: the running value
/// and the count of non-NULL inputs folded (every row, for `Count`).
/// `value` starts at the fold's identity — 0 for a sum, `i64::MAX` /
/// `i64::MIN` for an integer min / max — so a group's first value needs
/// no branch; a group with `count == 0` finalizes to NULL and merges as
/// empty, so the identity never shows.
#[derive(Clone, Default)]
struct AccCol {
    value: Vec<i64>,
    count: Vec<u64>,
}

impl AccCol {
    fn grow(&mut self, groups: usize, identity: i64) {
        self.value.resize(groups, identity);
        self.count.resize(groups, 0);
    }

    fn drain_front(&mut self, n: usize) {
        self.value.drain(..n);
        self.count.drain(..n);
    }
}

fn identity(func: AggFunc, domain: &Domain) -> i64 {
    match (func, domain) {
        (AggFunc::Min, Domain::Int | Domain::Token | Domain::Dict(_)) => i64::MAX,
        (AggFunc::Max, Domain::Int | Domain::Token | Domain::Dict(_)) => i64::MIN,
        _ => 0,
    }
}

/// Fold the non-NULL integer-domain `vals` into `acc` by `op`.
#[inline(always)]
fn fold_int(
    acc: &mut AccCol,
    gids: &[u32],
    vals: impl Iterator<Item = i64>,
    null: i64,
    op: impl Fn(i64, i64) -> i64,
) {
    for (&g, v) in gids.iter().zip(vals) {
        if v != null {
            let g = g as usize;
            acc.value[g] = op(acc.value[g], v);
            acc.count[g] += 1;
        }
    }
}

/// Fold the non-NULL reals (as bits) of `vals` into `acc`: the first
/// value of a group is taken as is (`0.0 + -0.0` would lose its sign),
/// later ones combine by `op`.
#[inline(always)]
fn fold_real(acc: &mut AccCol, gids: &[u32], vals: &[i64], op: impl Fn(f64, f64) -> f64) {
    for (&g, &v) in gids.iter().zip(vals) {
        let x = f64::from_bits(v as u64);
        if is_null_real(x) {
            continue;
        }
        let g = g as usize;
        acc.value[g] = if acc.count[g] == 0 {
            v
        } else {
            op(f64::from_bits(acc.value[g] as u64), x).to_bits() as i64
        };
        acc.count[g] += 1;
    }
}

/// Fold one aggregate's input column into `acc`: one loop per
/// (function, domain), over the block's group ids. `COUNT` counts the
/// ids alone, so its column may be a dropped one's empty vector.
fn fold_column(acc: &mut AccCol, func: AggFunc, domain: &Domain, gids: &[u32], vals: &[i64]) {
    let keep_min = |a: f64, x: f64| if x < a { x } else { a };
    let keep_max = |a: f64, x: f64| if x > a { x } else { a };
    match (func, domain) {
        (AggFunc::Count, _) => {
            for &g in gids {
                acc.count[g as usize] += 1;
            }
        }
        (AggFunc::Sum, Domain::Real) => fold_real(acc, gids, vals, |a, x| a + x),
        (AggFunc::Min, Domain::Real) => fold_real(acc, gids, vals, keep_min),
        (AggFunc::Max, Domain::Real) => fold_real(acc, gids, vals, keep_max),
        (func, Domain::Dict(dict)) => {
            // Codes translate to the scalars they stand for; joins can
            // inject the scalar sentinel directly, so it passes through.
            let vals = vals
                .iter()
                .map(|&c| if c == NULL_I64 { c } else { dict[c as usize] });
            fold_int_func(acc, func, gids, vals, NULL_I64);
        }
        (func, Domain::Token) => {
            // Token min/max compares tokens: correct when the heap is
            // sorted — the §3.4.3 payoff; otherwise it is heap order.
            fold_int_func(acc, func, gids, vals.iter().copied(), NULL_TOKEN as i64);
        }
        (func, Domain::Int) => fold_int_func(acc, func, gids, vals.iter().copied(), NULL_I64),
    }
}

/// Fold a run-carrying block's column, whose row `i` stands for
/// `weights[i]` identical rows, exactly like its expansion: `COUNT` adds
/// the weight; an integer (or token, or dictionary) `SUM` adds `v × w`,
/// which is `w` wrapping adds of `v` mod 2^64; `MIN` and `MAX` are
/// idempotent, so one fold per segment is the same (a group's count only
/// ever says whether it saw a value). A real sum has no closed form —
/// repeated f64 addition is not `v × w` — so it folds the expansion; the
/// planner never asks a leaf for runs under one.
fn fold_weighted(
    acc: &mut AccCol,
    func: AggFunc,
    domain: &Domain,
    gids: &[u32],
    vals: &[i64],
    weights: &[u64],
) {
    match (func, domain) {
        (AggFunc::Count, _) => {
            for (&g, &w) in gids.iter().zip(weights) {
                acc.count[g as usize] += w;
            }
        }
        (AggFunc::Sum, Domain::Real) => {
            for ((&g, &v), &w) in gids.iter().zip(vals).zip(weights) {
                for _ in 0..w {
                    fold_real(acc, &[g], &[v], |a, x| a + x);
                }
            }
        }
        (AggFunc::Sum, Domain::Dict(dict)) => {
            let vals = vals
                .iter()
                .map(|&c| if c == NULL_I64 { c } else { dict[c as usize] });
            sum_weighted(acc, gids, vals, weights, NULL_I64);
        }
        (AggFunc::Sum, Domain::Token) => {
            sum_weighted(acc, gids, vals.iter().copied(), weights, NULL_TOKEN as i64)
        }
        (AggFunc::Sum, Domain::Int) => {
            sum_weighted(acc, gids, vals.iter().copied(), weights, NULL_I64)
        }
        (AggFunc::Min | AggFunc::Max, _) => fold_column(acc, func, domain, gids, vals),
    }
}

/// Add each non-NULL `v`, standing for `w` rows, to its group.
#[inline(always)]
fn sum_weighted(
    acc: &mut AccCol,
    gids: &[u32],
    vals: impl Iterator<Item = i64>,
    weights: &[u64],
    null: i64,
) {
    for ((&g, v), &w) in gids.iter().zip(vals).zip(weights) {
        if v != null {
            let g = g as usize;
            acc.value[g] = acc.value[g].wrapping_add(v.wrapping_mul(w as i64));
            acc.count[g] += w;
        }
    }
}

#[inline(always)]
fn fold_int_func(
    acc: &mut AccCol,
    func: AggFunc,
    gids: &[u32],
    vals: impl Iterator<Item = i64>,
    null: i64,
) {
    match func {
        AggFunc::Sum => fold_int(acc, gids, vals, null, i64::wrapping_add),
        AggFunc::Min => fold_int(acc, gids, vals, null, i64::min),
        AggFunc::Max => fold_int(acc, gids, vals, null, i64::max),
        AggFunc::Count => unreachable!("counted above"),
    }
}

/// Fold one block column into a grand total's one group with its value
/// and count in locals: no group ids, no per-row read-modify-write.
/// Weights fold as in `fold_weighted`.
fn fold_total(acc: &mut AccCol, func: AggFunc, domain: &Domain, vals: &[i64], w: Option<&[u64]>) {
    let keep_min = |a: f64, x: f64| if x < a { x } else { a };
    let keep_max = |a: f64, x: f64| if x > a { x } else { a };
    let rows = vals.iter().copied();
    match (func, domain, w) {
        (AggFunc::Sum, Domain::Real, Some(w)) => {
            let expanded = rows.zip(w).flat_map(|(v, &w)| repeat_n(v, w as usize));
            total_real(acc, expanded, |a, x| a + x)
        }
        (AggFunc::Sum, Domain::Real, None) => total_real(acc, rows, |a, x| a + x),
        (AggFunc::Min, Domain::Real, _) => total_real(acc, rows, keep_min),
        (AggFunc::Max, Domain::Real, _) => total_real(acc, rows, keep_max),
        (func, Domain::Dict(dict), w) => {
            let vals = rows.map(|c| if c == NULL_I64 { c } else { dict[c as usize] });
            total_int(acc, func, vals, w, NULL_I64)
        }
        (func, Domain::Token, w) => total_int(acc, func, rows, w, NULL_TOKEN as i64),
        (func, _, w) => total_int(acc, func, rows, w, NULL_I64),
    }
}

/// `fold_real` into one group: sequential, the first value taken as is.
#[inline(always)]
fn total_real(acc: &mut AccCol, vals: impl Iterator<Item = i64>, op: impl Fn(f64, f64) -> f64) {
    let (mut a, mut n) = (acc.value[0], acc.count[0]);
    for v in vals {
        let x = f64::from_bits(v as u64);
        if !is_null_real(x) {
            a = if n == 0 {
                v
            } else {
                op(f64::from_bits(a as u64), x).to_bits() as i64
            };
            n += 1;
        }
    }
    (acc.value[0], acc.count[0]) = (a, n);
}

/// An integer-domain fold into one group; `MIN` and `MAX` ignore weights.
#[inline(always)]
fn total_int(
    acc: &mut AccCol,
    f: AggFunc,
    vals: impl Iterator<Item = i64>,
    w: Option<&[u64]>,
    null: i64,
) {
    let id = identity(f, &Domain::Int);
    let sum = |a: i64, v: i64, w| a.wrapping_add(v.wrapping_mul(w as i64));
    match f {
        AggFunc::Sum => total_loop(acc, vals, w, null, id, sum),
        AggFunc::Min => total_loop(acc, vals, None, null, id, |a, v, _| a.min(v)),
        AggFunc::Max => total_loop(acc, vals, None, null, id, |a, v, _| a.max(v)),
        AggFunc::Count => unreachable!("counted above"),
    }
}

/// Fold each value, standing for its weight in rows, by `op`: a NULL
/// selects the fold's `identity` and adds nothing to the count.
#[inline(always)]
fn total_loop(
    acc: &mut AccCol,
    vals: impl Iterator<Item = i64>,
    weights: Option<&[u64]>,
    null: i64,
    identity: i64,
    op: impl Fn(i64, i64, u64) -> i64,
) {
    let (mut a, mut n) = (acc.value[0], acc.count[0]);
    let mut fold = |v: i64, w: u64| {
        let keep = v != null;
        a = op(a, if keep { v } else { identity }, w);
        n += if keep { w } else { 0 };
    };
    match weights {
        None => vals.for_each(|v| fold(v, 1)),
        Some(w) => vals.zip(w).for_each(|(v, &w)| fold(v, w)),
    }
    (acc.value[0], acc.count[0]) = (a, n);
}

/// Merge group `b` of `from` (a partial over a later slice of the
/// input) into group `a` of `into`. Exact for every merge-safe function:
/// counts add, wrapping integer sums add, extrema compare — the same
/// results the serial fold produces in any split, because those folds
/// are associative and commutative over the non-NULL inputs. Real sums
/// are NOT merge-safe (f64 addition is order-dependent); the morsel
/// planner declines parallelism for them rather than merge here.
fn merge_acc(into: &mut AccCol, a: usize, from: &AccCol, b: usize, func: AggFunc, domain: &Domain) {
    let (bv, bc) = (from.value[b], from.count[b]);
    if bc == 0 {
        return;
    }
    if into.count[a] == 0 || func == AggFunc::Count {
        into.count[a] += bc;
        into.value[a] = bv;
        return;
    }
    into.count[a] += bc;
    let av = into.value[a];
    let real = |x: i64| f64::from_bits(x as u64);
    into.value[a] = match (func, domain) {
        (AggFunc::Sum, Domain::Real) => (real(av) + real(bv)).to_bits() as i64,
        (AggFunc::Sum, _) => av.wrapping_add(bv),
        (AggFunc::Min, Domain::Real) if real(bv) < real(av) => bv,
        (AggFunc::Max, Domain::Real) if real(bv) > real(av) => bv,
        (AggFunc::Min | AggFunc::Max, Domain::Real) => av,
        (AggFunc::Min, _) => av.min(bv),
        (AggFunc::Max, _) => av.max(bv),
        (AggFunc::Count, _) => unreachable!("counts merged above"),
    };
}

fn final_value(acc: &AccCol, g: usize, func: AggFunc, domain: &Domain) -> i64 {
    match func {
        AggFunc::Count => acc.count[g] as i64,
        _ if acc.count[g] == 0 => match domain {
            Domain::Real => null_real().to_bits() as i64,
            Domain::Token => NULL_TOKEN as i64,
            Domain::Int | Domain::Dict(_) => NULL_I64,
        },
        _ => acc.value[g],
    }
}

fn output_schema(input: &Schema, group_cols: &[usize], aggs: &[AggSpec]) -> Schema {
    // A key read as codes comes out as the values they stand for, under
    // the name a column selection may have given the codes.
    let mut fields: Vec<Field> = group_cols
        .iter()
        .map(|&c| {
            let f = &input.fields[c];
            f.decoded().map_or(f.clone(), |(_, values)| Field {
                name: f.name.clone(),
                ..values.clone()
            })
        })
        .collect();
    for a in aggs {
        let mut f = match a.func {
            AggFunc::Count => Field::scalar(a.name.clone(), DataType::Integer),
            _ => {
                let mut f = input.fields[a.col].clone();
                // Folding translated dictionary codes to scalars, so the
                // aggregate value is no longer a dictionary position.
                if matches!(f.repr, Repr::DictIndex(..)) {
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
        blocks.push(Block {
            columns,
            len: take,
            weights: None,
        });
        at += take;
    }
    blocks
}

/// How rows find their group — the §4.2.2 tactical choice, fixed when
/// the core is built.
enum Grouping {
    /// No keys: one group, so rows need no ids (see `fold_total`).
    Total,
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
    /// Keys alone: ordered runs, a grand total's one empty key, or a hash
    /// partial whose index was dropped for the hand-over to a merge.
    Listed(KeyList),
}

impl Groups {
    fn keys(&self) -> &KeyList {
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
            Groups::Listed(keys) => keys.run_slot(key),
        }
    }
}

/// Aggregation state over a contiguous slice of the input: its groups in
/// output order and, per aggregate, one accumulator slot per group.
pub struct Partial {
    groups: Groups,
    accs: Vec<AccCol>,
    /// The current block's group ids (reused block to block).
    gids: Vec<u32>,
}

impl Partial {
    /// Drop the hash index for the hand-over to [`AggCore::absorb`]: only
    /// the groups and their order travel from a morsel task to the merge
    /// (a direct-64K table per pending morsel would not be small).
    pub fn without_index(mut self) -> Partial {
        if let Groups::Indexed(map) = self.groups {
            self.groups = Groups::Listed(map.into_keys());
        }
        self
    }

    fn len(&self) -> usize {
        self.groups.keys().len()
    }
}

/// The one partial-aggregation core. The serial operators, every morsel
/// task and the morsel merge phase all aggregate through it: fold blocks
/// into a [`Partial`], absorb later partials in input order, finish to
/// blocks. Absorbing in order is what makes a split run reproduce the
/// serial one byte for byte — hash groups keep first-occurrence order,
/// and an ordered run cut by a task boundary is rejoined.
///
/// Folding is column-at-a-time: a block's group ids are computed in one
/// pass over its key columns, then each aggregate runs one loop,
/// specialised for its (function, domain), over its input column.
///
/// A key may arrive as the [codes](Field::codes) of a dictionary-encoded
/// stream: the core groups on the codes, whose narrow range the hash
/// strategy packs, and maps each group's code to its entry once, at
/// finish. Entries are distinct, so first sight over codes is first
/// sight over values and the output is what grouping on values gives.
/// Such a key is never an aggregate's input (a `COUNT` aside).
pub struct AggCore {
    group_cols: Vec<usize>,
    /// Per key, the entries its codes index, when it arrives as codes.
    key_entries: Vec<Option<Arc<Vec<i64>>>>,
    aggs: Vec<AggSpec>,
    domains: Vec<Domain>,
    grouping: Grouping,
    schema: Schema,
}

impl AggCore {
    /// Hash aggregation of `input`-shaped blocks, the strategy chosen
    /// tactically from the key columns' metadata (none without keys).
    pub fn hash(input: &Schema, group_cols: Vec<usize>, aggs: Vec<AggSpec>) -> AggCore {
        if group_cols.is_empty() {
            return AggCore::new(input, group_cols, aggs, Grouping::Total);
        }
        let keys: Vec<&Field> = group_cols.iter().map(|&c| &input.fields[c]).collect();
        let (strategy, packing) = tactical::choose_hash_strategy(&keys);
        AggCore::new(input, group_cols, aggs, Grouping::Hash(strategy, packing))
    }

    /// Ordered aggregation: `input`'s groups must arrive contiguously.
    pub fn ordered(input: &Schema, group_cols: Vec<usize>, aggs: Vec<AggSpec>) -> AggCore {
        AggCore::new(input, group_cols, aggs, Grouping::Ordered)
    }

    fn new(
        input: &Schema,
        group_cols: Vec<usize>,
        aggs: Vec<AggSpec>,
        grouping: Grouping,
    ) -> AggCore {
        debug_assert!(
            aggs.iter()
                .all(|a| a.func == AggFunc::Count || input.fields[a.col].decoded().is_none()),
            "an aggregate folds values, not codes"
        );
        AggCore {
            domains: aggs
                .iter()
                .map(|a| domain_of(&input.fields[a.col]))
                .collect(),
            key_entries: group_cols
                .iter()
                .map(|&c| {
                    input.fields[c]
                        .decoded()
                        .map(|(entries, _)| Arc::clone(entries))
                })
                .collect(),
            schema: output_schema(input, &group_cols, &aggs),
            group_cols,
            aggs,
            grouping,
        }
    }

    /// The output schema: group keys, then aggregates.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The hash strategy, when this core aggregates by hash.
    pub fn strategy(&self) -> Option<HashStrategy> {
        match self.grouping {
            Grouping::Hash(strategy, _) => Some(strategy),
            Grouping::Total | Grouping::Ordered => None,
        }
    }

    /// An empty partial. A grand total's holds its one group, so empty
    /// input still finishes to one row (`COUNT` 0, the rest NULL).
    pub fn start(&self) -> Partial {
        let width = self.group_cols.len();
        let mut p = Partial {
            groups: match &self.grouping {
                Grouping::Hash(strategy, packing) => {
                    Groups::Indexed(GroupMap::new(*strategy, packing.clone(), width))
                }
                Grouping::Total | Grouping::Ordered => Groups::Listed(KeyList::new(width)),
            },
            accs: vec![AccCol::default(); self.aggs.len()],
            gids: Vec::with_capacity(BLOCK_ROWS),
        };
        if let Grouping::Total = self.grouping {
            p.groups.slot(&[]);
            self.grow(&mut p);
        }
        p
    }

    /// Grow every aggregate's accumulators to `p`'s group count.
    fn grow(&self, p: &mut Partial) {
        let groups = p.len();
        for ((acc, spec), domain) in p.accs.iter_mut().zip(&self.aggs).zip(&self.domains) {
            acc.grow(groups, identity(spec.func, domain));
        }
    }

    /// Fold one block's rows into `p`: group ids first, then one pass per
    /// aggregate. A run-carrying block folds exactly like its expansion
    /// (see `fold_weighted`): its segments arrive in row order, so hash
    /// groups keep first-occurrence order and ordered runs stay runs.
    /// `COUNT` counts the block's rows and reads no column, so the scan
    /// may leave its column empty ([`crate::Need::None`]).
    pub fn fold_block(&self, p: &mut Partial, block: &Block) {
        if let Grouping::Total = self.grouping {
            let weights = block.weights.as_ref().map(|w| &w[..block.len]);
            for (a, spec) in self.aggs.iter().enumerate() {
                let (acc, vals) = (&mut p.accs[a], &block.columns[spec.col]);
                match spec.func {
                    AggFunc::Count => acc.count[0] += block.rows(),
                    f => fold_total(acc, f, &self.domains[a], vals, weights),
                }
            }
            return;
        }
        let keys: Vec<&[i64]> = self
            .group_cols
            .iter()
            .map(|&c| &block.columns[c][..block.len])
            .collect();
        p.gids.clear();
        match &mut p.groups {
            Groups::Indexed(map) => map.ids(&keys, block.len, &mut p.gids),
            Groups::Listed(list) => list.run_ids(&keys, block.len, &mut p.gids),
        }
        self.grow(p);
        for (a, spec) in self.aggs.iter().enumerate() {
            let (acc, domain) = (&mut p.accs[a], &self.domains[a]);
            let vals = &block.columns[spec.col];
            match &block.weights {
                None => fold_column(acc, spec.func, domain, &p.gids, vals),
                Some(w) => fold_weighted(acc, spec.func, domain, &p.gids, vals, w),
            }
        }
    }

    /// Fold everything `input` produces into one partial.
    pub fn fold_all(&self, mut input: BoxOp) -> Partial {
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
    pub fn absorb(&self, p: &mut Partial, later: Partial) {
        let keys = later.groups.keys();
        for b in 0..keys.len() {
            let a = p.groups.slot(keys.key(b));
            self.grow(p);
            for (i, spec) in self.aggs.iter().enumerate() {
                merge_acc(
                    &mut p.accs[i],
                    a,
                    &later.accs[i],
                    b,
                    spec.func,
                    &self.domains[i],
                );
            }
        }
    }

    /// Append the final values of groups `range` of `p` to column-major
    /// `out`: group keys (a code as its entry), then aggregates.
    fn finalize(&self, p: &Partial, range: std::ops::Range<usize>, out: &mut [Vec<i64>]) {
        let keys = p.groups.keys();
        let (key_cols, agg_cols) = out.split_at_mut(self.group_cols.len());
        for (k, (col, entries)) in key_cols.iter_mut().zip(&self.key_entries).enumerate() {
            let codes = range.clone().map(|g| keys.key(g)[k]);
            match entries {
                Some(entries) => col.extend(codes.map(|c| entries[c as usize])),
                None => col.extend(codes),
            }
        }
        for (a, col) in agg_cols.iter_mut().enumerate() {
            let (acc, func, domain) = (&p.accs[a], self.aggs[a].func, &self.domains[a]);
            col.extend(range.clone().map(|g| final_value(acc, g, func, domain)));
        }
    }

    /// Finish `p` to output blocks.
    pub fn finish(&self, p: Partial) -> Vec<Block> {
        let ncols = self.schema.len();
        let mut cols = vec![Vec::with_capacity(p.len()); ncols];
        self.finalize(&p, 0..p.len(), &mut cols);
        emit_blocks(cols, ncols)
    }
}

/// Hash aggregation with a tactically chosen strategy.
pub struct HashAggregate {
    input: Option<BoxOp>,
    core: AggCore,
    output: std::vec::IntoIter<Block>,
    /// The strategy that was chosen (visible for tests and explain).
    pub strategy: Option<HashStrategy>,
}

impl HashAggregate {
    /// Aggregate `input` grouped by `group_cols`.
    pub fn new(input: BoxOp, group_cols: Vec<usize>, aggs: Vec<AggSpec>) -> HashAggregate {
        let core = AggCore::hash(input.schema(), group_cols, aggs);
        HashAggregate {
            input: Some(input),
            strategy: core.strategy(),
            core,
            output: Vec::new().into_iter(),
        }
    }
}

impl Operator for HashAggregate {
    fn schema(&self) -> &Schema {
        self.core.schema()
    }

    fn next_block(&mut self) -> Option<Block> {
        if let Some(input) = self.input.take() {
            self.output = self.core.finish(self.core.fold_all(input)).into_iter();
        }
        self.output.next()
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
        let closed = self.runs.len().saturating_sub(keep);
        self.core.finalize(&self.runs, 0..closed, &mut self.pending);
        let Groups::Listed(keys) = &mut self.runs.groups else {
            unreachable!("an ordered core lists its runs")
        };
        keys.drain_front(closed);
        for acc in &mut self.runs.accs {
            acc.drain_front(closed);
        }
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
        assert_eq!(agg.strategy, Some(crate::hash::HashStrategy::Direct64K));
    }

    #[test]
    fn array_compressed_keys_hash_their_indexes() {
        // Values 1000..1012 behind indexes 0..12: the metadata describes
        // the values, the packed key is the index.
        let mut g = ColumnBuilder::new("g", DataType::Integer, EncodingPolicy::default());
        for i in 0..5000i64 {
            g.append_i64(1000 + (i * 7) % 13);
        }
        let mut col = g.finish().column;
        tde_storage::convert::for_encoding_to_compression(&mut col);
        let t = Arc::new(Table::new("t", vec![col]));
        let count = vec![AggSpec::new(AggFunc::Count, 0, "n")];
        let mut agg =
            HashAggregate::new(Box::new(TableScan::new(t.clone())), vec![0], count.clone());
        assert_eq!(agg.strategy, Some(crate::hash::HashStrategy::Direct64K));
        let b = agg.next_block().unwrap();
        let values: Vec<Value> = (0..b.len)
            .map(|r| agg.schema().fields[0].value_of(b.columns[0][r]))
            .collect();
        assert_eq!(values.len(), 13);
        assert_eq!(values[..2], [Value::Int(1000), Value::Int(1007)]);

        // A left join's NULL among the indexes: the metadata no longer
        // rules NULL out, so the key hashes as a tuple.
        let mut schema = TableScan::new(t.clone()).schema().clone();
        schema.fields[0].metadata.has_nulls = tde_encodings::metadata::Knowledge::Unknown;
        let block = Block::new(vec![vec![0, NULL_I64, 12, NULL_I64]]);
        struct One(Schema, Option<Block>);
        impl Operator for One {
            fn schema(&self) -> &Schema {
                &self.0
            }
            fn next_block(&mut self) -> Option<Block> {
                self.1.take()
            }
        }
        let mut agg = HashAggregate::new(Box::new(One(schema, Some(block))), vec![0], count);
        assert_eq!(agg.strategy, Some(crate::hash::HashStrategy::Collision));
        let b = agg.next_block().unwrap();
        assert_eq!(b.columns, vec![vec![0, NULL_I64, 12], vec![1, 2, 1]]);
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
