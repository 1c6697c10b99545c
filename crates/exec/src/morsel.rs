//! Morsel-driven parallel pipelines (paper §3.3/§8).
//!
//! The engine's earlier parallelism was two narrow shapes: the per-block
//! [`crate::exchange::Exchange`] map and the §8 partitioned index rollup.
//! This module generalizes both: a whole pipeline — scan →
//! kernel-pushed filter → partial aggregate — runs over *morsels*
//! (ranges of decompression blocks) claimed by a fixed pool of
//! work-stealing workers, followed by a deterministic merge phase.
//!
//! Determinism is the design constraint, not an afterthought: parallel
//! output must be **byte-identical** to the serial pipeline.
//!
//! * Pass-through pipelines reassemble blocks in morsel order. Morsels
//!   align on decompression-block boundaries, so each ranged scan emits
//!   exactly the blocks the whole scan would (see
//!   `block_ranges_partition_the_scan` in [`crate::scan`]).
//! * Hash-aggregate partials carry their groups in first-occurrence
//!   order; merging morsels in morsel order reproduces the serial
//!   insertion order exactly, and integer fold functions are
//!   associative and commutative so [`merge_acc`] is exact. Real sums
//!   are order-dependent — the planner declines parallelism for them.
//! * Ordered-aggregate partials are runs of contiguous groups,
//!   concatenated in morsel order with a boundary merge when the last
//!   group of one morsel continues into the next — the same contract
//!   `parallel_index` uses for the §8 rollup.
//!
//! The scheduler is deliberately simple: per-worker [`RangeDeque`]s of
//! contiguous morsel ids (one packed atomic word each — exhaustively
//! model-checked below), owner pops from the front, idle workers steal
//! from the back round-robin. No morsel is pushed after start, so
//! all-deques-empty is a safe termination condition. A panicking worker
//! poisons the run and drains every deque; the consumer then observes
//! the panic instead of a silent partial result.

use crate::aggregate::{
    domain_of, emit_blocks, final_value, fold, init_acc, merge_acc, output_schema, Acc, AggSpec,
    Domain,
};
use crate::block::{Block, Schema};
use crate::expr::{AggFunc, Expr};
use crate::hash::{GroupMap, HashStrategy, KeyPacking};
use crate::source::Projection;
use crate::tactical;
use crate::{Operator, BLOCK_ROWS};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Decompression blocks per morsel: large enough to amortize scheduling,
/// small enough to steal (~4 × 1024 rows at the default block size).
pub const MORSEL_BLOCKS: usize = 4;

/// A work-stealing deque over a contiguous range of morsel ids, packed
/// into one `AtomicU64` — `head` in the upper 32 bits, `tail` in the
/// lower; the pending morsels are `[head, tail)`.
///
/// Every operation is a single-word CAS, so the protocol is trivially
/// linearizable, and because ids are claimed monotonically (head only
/// grows, tail only shrinks toward it) there is no ABA window. The
/// exhaustive interleaving model in the tests walks every reachable
/// (head, tail) state under arbitrary pop/steal/drain orders and checks
/// each id is claimed exactly once.
pub struct RangeDeque {
    state: AtomicU64,
}

#[inline]
fn pack(head: u32, tail: u32) -> u64 {
    (u64::from(head)) << 32 | u64::from(tail)
}

#[inline]
fn unpack(s: u64) -> (u32, u32) {
    ((s >> 32) as u32, s as u32)
}

impl RangeDeque {
    /// A deque holding the pending ids `[lo, hi)`.
    pub fn new(lo: u32, hi: u32) -> RangeDeque {
        debug_assert!(lo <= hi);
        RangeDeque {
            state: AtomicU64::new(pack(lo, hi)),
        }
    }

    /// Owner end: claim the front id, or `None` when empty.
    pub fn pop_front(&self) -> Option<u32> {
        let mut s = self.state.load(Ordering::Acquire);
        loop {
            let (head, tail) = unpack(s);
            if head >= tail {
                return None;
            }
            match self.state.compare_exchange_weak(
                s,
                pack(head + 1, tail),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(head),
                Err(cur) => s = cur,
            }
        }
    }

    /// Thief end: claim the back id, or `None` when empty.
    pub fn steal_back(&self) -> Option<u32> {
        let mut s = self.state.load(Ordering::Acquire);
        loop {
            let (head, tail) = unpack(s);
            if head >= tail {
                return None;
            }
            match self.state.compare_exchange_weak(
                s,
                pack(head, tail - 1),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(tail - 1),
                Err(cur) => s = cur,
            }
        }
    }

    /// Claim everything that remains, returning the range `[lo, hi)`
    /// that was claimed (empty when nothing was pending). Used to shut
    /// a run down after a worker panic.
    pub fn drain(&self) -> (u32, u32) {
        let mut s = self.state.load(Ordering::Acquire);
        loop {
            let (head, tail) = unpack(s);
            if head >= tail {
                return (head, head);
            }
            match self.state.compare_exchange_weak(
                s,
                pack(tail, tail),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return (head, tail),
                Err(cur) => s = cur,
            }
        }
    }

    /// Owner end: extend the pending range by `n` ids past the current
    /// tail. Only meaningful before workers race on the deque (the
    /// scheduler seeds everything up front); still a CAS so the model
    /// can exercise push/steal interleavings.
    pub fn push_back(&self, n: u32) {
        let mut s = self.state.load(Ordering::Acquire);
        loop {
            let (head, tail) = unpack(s);
            match self.state.compare_exchange_weak(
                s,
                pack(head, tail + n),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(cur) => s = cur,
            }
        }
    }

    /// Pending ids.
    pub fn remaining(&self) -> u32 {
        let (head, tail) = unpack(self.state.load(Ordering::Acquire));
        tail.saturating_sub(head)
    }
}

/// Scheduler outcome for one morsel: which worker ran it, whether it was
/// stolen, and the payload the pipeline produced.
struct Done<T> {
    morsel: u32,
    out: T,
}

/// Run `nmorsels` tasks across `degree` workers with work stealing,
/// returning the per-morsel outputs in morsel order. `f` must be safe to
/// call from any worker. Propagates the first worker panic to the
/// caller after every worker has stopped.
pub(crate) fn run_morsels<T, F>(degree: usize, nmorsels: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u32) -> T + Sync,
{
    let workers = degree.min(nmorsels).max(1);
    let timeline_on = tde_obs::timeline::enabled();
    if workers == 1 {
        return (0..nmorsels as u32)
            .map(|m| {
                let t0 = timeline_on.then(Instant::now);
                let v = f(m);
                if let Some(t0) = t0 {
                    tde_obs::timeline::morsel_span(0, m, false, t0);
                }
                v
            })
            .collect();
    }
    // Contiguous per-worker ranges: worker w owns morsels
    // [w*chunk, min((w+1)*chunk, n)).
    let chunk = nmorsels.div_ceil(workers);
    let deques: Vec<RangeDeque> = (0..workers)
        .map(|w| {
            let lo = (w * chunk).min(nmorsels) as u32;
            let hi = ((w + 1) * chunk).min(nmorsels) as u32;
            RangeDeque::new(lo, hi)
        })
        .collect();
    let poison: Mutex<Option<String>> = Mutex::new(None);
    let mut results: Vec<Done<T>> = Vec::with_capacity(nmorsels);
    let mut dispatched = 0u64;
    let mut stolen = 0u64;
    let mut busy: Vec<u64> = Vec::with_capacity(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let deques = &deques;
                let poison = &poison;
                let f = &f;
                s.spawn(move || {
                    let mut out: Vec<Done<T>> = Vec::new();
                    let mut dispatched = 0u64;
                    let mut stolen = 0u64;
                    let started = Instant::now();
                    let caught = catch_unwind(AssertUnwindSafe(|| {
                        loop {
                            // Own front first; then steal round-robin
                            // from the other deques' backs.
                            let task = deques[w].pop_front().map(|m| (m, false)).or_else(|| {
                                (1..deques.len()).find_map(|d| {
                                    deques[(w + d) % deques.len()]
                                        .steal_back()
                                        .map(|m| (m, true))
                                })
                            });
                            let Some((m, was_stolen)) = task else { break };
                            dispatched += 1;
                            stolen += u64::from(was_stolen);
                            let t0 = timeline_on.then(Instant::now);
                            let v = f(m);
                            if let Some(t0) = t0 {
                                tde_obs::timeline::morsel_span(w as u32, m, was_stolen, t0);
                            }
                            out.push(Done { morsel: m, out: v });
                        }
                    }));
                    if let Err(p) = caught {
                        let msg = p
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
                            .unwrap_or_else(|| "worker panicked".to_string());
                        let mut slot = poison.lock().unwrap_or_else(|e| e.into_inner());
                        slot.get_or_insert(msg);
                        // Stop the run: claim everything still pending so
                        // the other workers exit their loops promptly.
                        for d in deques {
                            d.drain();
                        }
                    }
                    (out, dispatched, stolen, started.elapsed().as_nanos() as u64)
                })
            })
            .collect();
        for h in handles {
            let (out, d, st, ns) = h.join().expect("worker panic was caught in-thread");
            results.extend(out);
            dispatched += d;
            stolen += st;
            busy.push(ns);
        }
    });
    if tde_obs::metrics::enabled() {
        let m = tde_obs::metrics::morsel_metrics();
        m.dispatched.add(dispatched);
        m.stolen.add(stolen);
        for ns in &busy {
            m.worker_busy_ns.observe(*ns);
        }
    }
    if let Some(msg) = poison.into_inner().unwrap_or_else(|e| e.into_inner()) {
        panic!("morsel worker panicked: {msg}");
    }
    // Morsel ids are unique, so the sort restores serial order exactly.
    results.sort_by_key(|d| d.morsel);
    debug_assert_eq!(results.len(), nmorsels, "lost or duplicated morsels");
    results.into_iter().map(|d| d.out).collect()
}

/// Whether `aggs` over `schema` merge exactly from per-morsel partials.
/// Integer/token/dict folds are associative and exact; Real sums are
/// order-dependent (f64 addition), so the planner must keep them serial.
pub fn merge_safe(schema: &Schema, aggs: &[AggSpec]) -> bool {
    !aggs
        .iter()
        .any(|a| a.func == AggFunc::Sum && domain_of(&schema.fields[a.col]) == Domain::Real)
}

/// What the pipeline computes over each morsel (and how partials merge).
#[derive(Clone)]
pub enum MorselPipeline {
    /// Scan (+ pushed filter): blocks pass through, reassembled in
    /// morsel order.
    Emit,
    /// Hash aggregate: per-morsel partials merged by group key, group
    /// order = serial insertion order.
    HashAgg {
        /// Group-key column indices into the source schema.
        group_cols: Vec<usize>,
        /// Aggregates to compute.
        aggs: Vec<AggSpec>,
    },
    /// Ordered (sandwiched) aggregate over grouped input: per-morsel
    /// runs concatenated with a boundary merge.
    OrderedAgg {
        /// Group-key column indices into the source schema.
        group_cols: Vec<usize>,
        /// Aggregates to compute.
        aggs: Vec<AggSpec>,
    },
}

impl MorselPipeline {
    fn agg_parts(&self) -> Option<(&[usize], &[AggSpec])> {
        match self {
            MorselPipeline::Emit => None,
            MorselPipeline::HashAgg { group_cols, aggs }
            | MorselPipeline::OrderedAgg { group_cols, aggs } => Some((group_cols, aggs)),
        }
    }
}

/// One morsel: stored decompression blocks `[lo, hi)`, plus the delta
/// leg when `delta` (an overlaid source rides its delta with one morsel).
#[derive(Clone, Copy, Debug)]
struct MorselRange {
    lo: usize,
    hi: usize,
    delta: bool,
}

/// Per-morsel pipeline output.
enum MorselOut {
    Blocks(Vec<Block>),
    /// (group key, accumulators) in first-occurrence order within the
    /// morsel (hash) or contiguous-run order (ordered).
    Groups(Vec<(Vec<i64>, Vec<Acc>)>),
}

/// A full pipeline executed morsel-parallel: scan of a resolved
/// [`Projection`] → optional pushed predicate → optional partial aggregate,
/// with a deterministic merge phase. Output is byte-identical to the
/// serial pipeline; see the module docs for why.
pub struct MorselExec {
    source: Projection,
    expand: bool,
    predicate: Option<(Expr, bool)>,
    pipeline: MorselPipeline,
    degree: usize,
    schema: Schema,
    source_schema: Schema,
    domains: Vec<Domain>,
    strategy: HashStrategy,
    packing: Option<KeyPacking>,
    morsels: Vec<MorselRange>,
    output: Vec<Block>,
    next: usize,
    ran: bool,
}

impl MorselExec {
    /// Build a morsel pipeline over `source`, scanned with or without
    /// dictionary expansion (`expand`). `predicate` is `(expr,
    /// force_fallback)` pushed into every ranged scan; `degree` is the
    /// worker count (1 = run on the calling thread, still through the
    /// same merge path).
    pub fn new(
        source: Projection,
        expand: bool,
        predicate: Option<(Expr, bool)>,
        pipeline: MorselPipeline,
        degree: usize,
    ) -> MorselExec {
        let source_schema = source.schema(expand);
        let (schema, domains, strategy, packing) = match pipeline.agg_parts() {
            None => (
                source_schema.clone(),
                Vec::new(),
                HashStrategy::Collision,
                None,
            ),
            Some((group_cols, aggs)) => {
                let keys: Vec<_> = group_cols
                    .iter()
                    .map(|&c| &source_schema.fields[c])
                    .collect();
                let (strategy, packing) = tactical::choose_hash_strategy(&keys);
                let domains: Vec<Domain> = aggs
                    .iter()
                    .map(|a| domain_of(&source_schema.fields[a.col]))
                    .collect();
                // Real sums are not merge-safe (f64 addition is
                // order-dependent); the planner must decline these.
                debug_assert!(
                    !aggs
                        .iter()
                        .zip(&domains)
                        .any(|(a, d)| a.func == AggFunc::Sum && *d == Domain::Real),
                    "Sum over Real is not morsel-mergeable"
                );
                (
                    output_schema(&source_schema, group_cols, aggs),
                    domains,
                    strategy,
                    packing,
                )
            }
        };
        let morsels = Self::partition(&source);
        MorselExec {
            source,
            expand,
            predicate,
            pipeline,
            degree: degree.max(1),
            schema,
            source_schema,
            domains,
            strategy,
            packing,
            morsels,
            output: Vec::new(),
            next: 0,
            ran: false,
        }
    }

    /// Split the source into morsels of [`MORSEL_BLOCKS`] decompression
    /// blocks (a delta leg rides on one extra morsel).
    fn partition(source: &Projection) -> Vec<MorselRange> {
        let (rows, delta) = source.extent();
        let nblocks = (rows as usize).div_ceil(BLOCK_ROWS);
        let mut morsels = Vec::with_capacity(nblocks.div_ceil(MORSEL_BLOCKS) + 1);
        let mut at = 0;
        while at < nblocks {
            let hi = (at + MORSEL_BLOCKS).min(nblocks);
            morsels.push(MorselRange {
                lo: at,
                hi,
                delta: false,
            });
            at = hi;
        }
        if delta || morsels.is_empty() {
            morsels.push(MorselRange {
                lo: nblocks,
                hi: nblocks,
                delta: true,
            });
        }
        morsels
    }

    /// Morsel count (used by the planner's explain label and fallbacks).
    pub fn morsel_count(&self) -> usize {
        self.morsels.len()
    }

    /// The configured worker count.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Run the pipeline over one morsel on the calling worker.
    fn run_morsel(&self, m: MorselRange) -> MorselOut {
        let mut op =
            self.source
                .morsel_scan(self.expand, self.predicate.as_ref(), m.lo, m.hi, m.delta);
        match &self.pipeline {
            MorselPipeline::Emit => {
                let mut blocks = Vec::new();
                while let Some(b) = op.next_block() {
                    blocks.push(b);
                }
                MorselOut::Blocks(blocks)
            }
            MorselPipeline::HashAgg { group_cols, aggs } => {
                let mut groups = GroupMap::new(self.strategy, self.packing.clone());
                let mut accs: Vec<Vec<Acc>> = Vec::new();
                let mut key = vec![0i64; group_cols.len()];
                while let Some(block) = op.next_block() {
                    for r in 0..block.len {
                        for (k, &c) in group_cols.iter().enumerate() {
                            key[k] = block.columns[c][r];
                        }
                        let g = groups.get_or_insert(&key);
                        if g == accs.len() {
                            accs.push(vec![init_acc(); aggs.len()]);
                        }
                        for (a, spec) in aggs.iter().enumerate() {
                            fold(
                                &mut accs[g][a],
                                spec.func,
                                &self.domains[a],
                                block.columns[spec.col][r],
                            );
                        }
                    }
                }
                MorselOut::Groups(groups.keys().iter().cloned().zip(accs).collect())
            }
            MorselPipeline::OrderedAgg { group_cols, aggs } => {
                let mut runs: Vec<(Vec<i64>, Vec<Acc>)> = Vec::new();
                let mut key = Vec::with_capacity(group_cols.len());
                while let Some(block) = op.next_block() {
                    for r in 0..block.len {
                        key.clear();
                        for &c in group_cols {
                            key.push(block.columns[c][r]);
                        }
                        if runs.last().map(|(k, _)| k.as_slice()) != Some(&key[..]) {
                            runs.push((key.clone(), vec![init_acc(); aggs.len()]));
                        }
                        let accs = &mut runs.last_mut().expect("just pushed").1;
                        for (a, spec) in aggs.iter().enumerate() {
                            fold(
                                &mut accs[a],
                                spec.func,
                                &self.domains[a],
                                block.columns[spec.col][r],
                            );
                        }
                    }
                }
                MorselOut::Groups(runs)
            }
        }
    }

    /// The merge phase: deterministic, single-threaded, in morsel order.
    fn merge(&mut self, outs: Vec<MorselOut>) {
        match &self.pipeline {
            MorselPipeline::Emit => {
                self.output = outs
                    .into_iter()
                    .flat_map(|o| match o {
                        MorselOut::Blocks(bs) => bs,
                        MorselOut::Groups(_) => unreachable!("emit pipeline"),
                    })
                    .collect();
            }
            MorselPipeline::HashAgg { group_cols, aggs } => {
                let mut groups = GroupMap::new(self.strategy, self.packing.clone());
                let mut accs: Vec<Vec<Acc>> = Vec::new();
                for out in outs {
                    let MorselOut::Groups(pairs) = out else {
                        unreachable!("aggregate pipeline")
                    };
                    for (key, partial) in pairs {
                        let g = groups.get_or_insert(&key);
                        if g == accs.len() {
                            accs.push(vec![init_acc(); aggs.len()]);
                        }
                        for (a, spec) in aggs.iter().enumerate() {
                            merge_acc(&mut accs[g][a], &partial[a], spec.func, &self.domains[a]);
                        }
                    }
                }
                // A global aggregate over empty input still produces one
                // row of empty aggregates, SQL-style (as serial does).
                if group_cols.is_empty() && groups.is_empty() {
                    groups.get_or_insert(&[]);
                    accs.push(vec![init_acc(); aggs.len()]);
                }
                self.output = self.finish_groups(groups.keys(), &accs, group_cols, aggs);
            }
            MorselPipeline::OrderedAgg { group_cols, aggs } => {
                let mut runs: Vec<(Vec<i64>, Vec<Acc>)> = Vec::new();
                for out in outs {
                    let MorselOut::Groups(pairs) = out else {
                        unreachable!("aggregate pipeline")
                    };
                    for (key, partial) in pairs {
                        match runs.last_mut() {
                            // A group straddling the morsel boundary:
                            // fold the continuation into the open run.
                            Some((k, accs)) if *k == key => {
                                for (a, spec) in aggs.iter().enumerate() {
                                    merge_acc(
                                        &mut accs[a],
                                        &partial[a],
                                        spec.func,
                                        &self.domains[a],
                                    );
                                }
                            }
                            _ => runs.push((key, partial)),
                        }
                    }
                }
                let keys: Vec<Vec<i64>> = runs.iter().map(|(k, _)| k.clone()).collect();
                let accs: Vec<Vec<Acc>> = runs.into_iter().map(|(_, a)| a).collect();
                self.output = self.finish_groups(&keys, &accs, group_cols, aggs);
            }
        }
    }

    /// Finalize accumulators into column-major output blocks — the same
    /// assembly the serial aggregates perform.
    fn finish_groups(
        &self,
        keys: &[Vec<i64>],
        accs: &[Vec<Acc>],
        group_cols: &[usize],
        aggs: &[AggSpec],
    ) -> Vec<Block> {
        let ncols = group_cols.len() + aggs.len();
        let mut cols: Vec<Vec<i64>> = vec![Vec::with_capacity(keys.len()); ncols];
        for (gk, acc) in keys.iter().zip(accs) {
            for (k, &v) in gk.iter().enumerate() {
                cols[k].push(v);
            }
            for (a, spec) in aggs.iter().enumerate() {
                cols[group_cols.len() + a].push(final_value(&acc[a], spec.func, &self.domains[a]));
            }
        }
        emit_blocks(cols, ncols)
    }

    fn run(&mut self) {
        self.ran = true;
        let morsels = self.morsels.clone();
        if self.degree > 1 && tde_obs::metrics::enabled() {
            tde_obs::metrics::morsel_metrics().parallel_queries.inc();
        }
        let outs = run_morsels(self.degree, morsels.len(), |m| {
            self.run_morsel(morsels[m as usize])
        });
        self.merge(outs);
    }
}

impl Operator for MorselExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_block(&mut self) -> Option<Block> {
        if !self.ran {
            self.run();
        }
        let b = self.output.get(self.next).cloned();
        self.next += 1;
        b
    }
}

impl MorselExec {
    /// The source schema the pipeline scans (the planner needs it to
    /// resolve predicate/aggregate column indices).
    pub fn source_schema(&self) -> &Schema {
        &self.source_schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{HashAggregate, OrderedAggregate};
    use crate::expr::CmpOp;
    use crate::handle::ColumnHandle;
    use crate::merged_scan::{MergedScan, MergedSource};
    use crate::scan::TableScan;
    use crate::source::Source;
    use crate::{drain, BoxOp};
    use std::collections::BTreeSet;
    use std::sync::Arc;
    use tde_storage::{ColumnBuilder, EncodingPolicy, Table};
    use tde_types::DataType;

    // ---- RangeDeque protocol ----

    /// Exhaustive interleaving model of the claim protocol: from every
    /// reachable (head, tail) state, apply every operation; each id must
    /// be claimed exactly once across any operation sequence. Because
    /// each operation is one CAS on one word, operation-level
    /// interleaving is exactly thread-level interleaving.
    #[test]
    fn deque_claim_protocol_is_exact_under_all_interleavings() {
        fn walk(head: u32, tail: u32, hi: u32, claimed: &mut BTreeSet<u32>) {
            // Invariant: claimed = [0, head) ∪ [tail, hi).
            let expect: BTreeSet<u32> = (0..head).chain(tail..hi).collect();
            assert_eq!(*claimed, expect, "state ({head},{tail})");
            if head >= tail {
                return;
            }
            // pop_front claims `head`.
            assert!(claimed.insert(head), "double-claim {head}");
            walk(head + 1, tail, hi, claimed);
            claimed.remove(&head);
            // steal_back claims `tail - 1`.
            assert!(claimed.insert(tail - 1), "double-claim {}", tail - 1);
            walk(head, tail - 1, hi, claimed);
            claimed.remove(&(tail - 1));
            // drain claims [head, tail).
            for id in head..tail {
                assert!(claimed.insert(id), "double-claim {id}");
            }
            walk(tail, tail, hi, claimed);
            for id in head..tail {
                claimed.remove(&id);
            }
        }
        for n in 0..=6u32 {
            let mut claimed = BTreeSet::new();
            walk(0, n, n, &mut claimed);
        }
    }

    #[test]
    fn deque_concurrent_claims_are_exactly_once() {
        const N: u32 = 10_000;
        let d = RangeDeque::new(0, N);
        let claims: Vec<Mutex<Vec<u32>>> = (0..8).map(|_| Mutex::new(Vec::new())).collect();
        std::thread::scope(|s| {
            for (t, slot) in claims.iter().enumerate() {
                let d = &d;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        // Half the threads pop, half steal.
                        let got = if t % 2 == 0 {
                            d.pop_front()
                        } else {
                            d.steal_back()
                        };
                        match got {
                            Some(id) => mine.push(id),
                            None => break,
                        }
                    }
                    *slot.lock().unwrap() = mine;
                });
            }
        });
        let mut all: Vec<u32> = claims
            .iter()
            .flat_map(|m| m.lock().unwrap().clone())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..N).collect::<Vec<_>>());
        assert_eq!(d.remaining(), 0);
    }

    /// Loom model of the push/steal/drain protocol: an owner pops and
    /// pushes, a thief steals, a killer drains; every id must be claimed
    /// exactly once. Under the offline loom shim this is bounded
    /// stress; against real loom the same body explores interleavings
    /// exhaustively (the deque is one word, so each op is one atomic
    /// transition — exactly the granularity loom schedules at).
    #[test]
    fn deque_push_steal_drain_protocol_loom_model() {
        loom::model(|| {
            let d = loom::sync::Arc::new(RangeDeque::new(0, 3));
            let claims = loom::sync::Arc::new(Mutex::new(Vec::new()));
            let owner = {
                let (d, claims) = (d.clone(), claims.clone());
                loom::thread::spawn(move || {
                    let mut got = Vec::new();
                    got.extend(d.pop_front());
                    d.push_back(2); // ids 3, 4 join the pending range
                    got.extend(d.pop_front());
                    claims.lock().unwrap().extend(got);
                })
            };
            let thief = {
                let (d, claims) = (d.clone(), claims.clone());
                loom::thread::spawn(move || {
                    let mut got = Vec::new();
                    got.extend(d.steal_back());
                    got.extend(d.steal_back());
                    claims.lock().unwrap().extend(got);
                })
            };
            let killer = {
                let (d, claims) = (d.clone(), claims.clone());
                loom::thread::spawn(move || {
                    let (lo, hi) = d.drain();
                    claims.lock().unwrap().extend(lo..hi);
                })
            };
            owner.join().unwrap();
            thief.join().unwrap();
            killer.join().unwrap();
            // The killer may have drained before the owner's push_back,
            // so a late pop/steal can still claim the pushed ids — but
            // nothing is ever claimed twice or invented.
            let (_, _) = d.drain();
            let mut got = claims.lock().unwrap().clone();
            got.sort_unstable();
            let mut dedup = got.clone();
            dedup.dedup();
            assert_eq!(got, dedup, "double-claimed ids: {got:?}");
            assert!(got.iter().all(|&id| id < 5), "invented id: {got:?}");
        });
    }

    #[test]
    fn deque_push_back_extends_tail() {
        let d = RangeDeque::new(3, 3);
        assert_eq!(d.pop_front(), None);
        d.push_back(2);
        assert_eq!(d.remaining(), 2);
        assert_eq!(d.steal_back(), Some(4));
        assert_eq!(d.pop_front(), Some(3));
        assert_eq!(d.drain(), (4, 4));
    }

    // ---- scheduler ----

    #[test]
    fn scheduler_returns_results_in_morsel_order() {
        for degree in [1usize, 2, 3, 8] {
            let out = run_morsels(degree, 37, |m| m * 10);
            assert_eq!(out, (0..37).map(|m| m * 10).collect::<Vec<_>>(), "{degree}");
        }
    }

    #[test]
    fn scheduler_propagates_worker_panics() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            run_morsels(4, 64, |m| {
                if m == 13 {
                    panic!("boom at morsel {m}");
                }
                m
            })
        }));
        let msg = *r.expect_err("must panic").downcast::<String>().unwrap();
        assert!(msg.contains("boom at morsel 13"), "{msg}");
    }

    // ---- pipeline serial equivalence ----

    /// Every column of `source`, resolved.
    fn all(source: Source) -> Projection {
        source.resolve(&source.column_names()).unwrap()
    }

    fn table(rows: i64) -> Arc<Table> {
        let mut g = ColumnBuilder::new("g", DataType::Integer, EncodingPolicy::default());
        let mut v = ColumnBuilder::new("v", DataType::Integer, EncodingPolicy::default());
        let mut s = ColumnBuilder::new("s", DataType::Str, EncodingPolicy::default());
        for i in 0..rows {
            g.append_i64(i / 300); // sorted, RLE-friendly
            v.append_i64(i % 977);
            s.append_str(Some(["x", "y", "z"][i as usize % 3]));
        }
        Arc::new(Table::new(
            "t",
            vec![g.finish().column, v.finish().column, s.finish().column],
        ))
    }

    fn assert_blocks_identical(serial: Vec<Block>, parallel: Vec<Block>, what: &str) {
        assert_eq!(serial.len(), parallel.len(), "{what}: block count");
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(a.len, b.len, "{what}: block {i} len");
            assert_eq!(a.columns, b.columns, "{what}: block {i} columns");
        }
    }

    fn pred() -> Expr {
        Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(3))
    }

    #[test]
    fn emit_pipeline_is_byte_identical_to_serial_scan() {
        let t = table(9000);
        for predicate in [None, Some((pred(), false)), Some((pred(), true))] {
            let mut serial = TableScan::new(Arc::clone(&t));
            if let Some((p, ff)) = &predicate {
                serial = serial.with_pushed_quiet(p.clone(), *ff);
            }
            let want = drain(Box::new(serial));
            for degree in [1usize, 2, 4, 8] {
                let m = MorselExec::new(
                    all(Source::from(&t)),
                    false,
                    predicate.clone(),
                    MorselPipeline::Emit,
                    degree,
                );
                assert_blocks_identical(
                    want.clone(),
                    drain(Box::new(m)),
                    &format!("emit degree={degree} pred={}", predicate.is_some()),
                );
            }
        }
    }

    fn specs() -> Vec<AggSpec> {
        vec![
            AggSpec::new(AggFunc::Count, 1, "n"),
            AggSpec::new(AggFunc::Sum, 1, "s"),
            AggSpec::new(AggFunc::Min, 1, "lo"),
            AggSpec::new(AggFunc::Max, 2, "hi"),
        ]
    }

    #[test]
    fn hash_agg_pipeline_is_byte_identical_to_serial() {
        let t = table(20_000);
        // Group by a token column too: exercises non-trivial domains.
        for group_cols in [vec![0usize], vec![2, 0]] {
            let serial: BoxOp = Box::new(HashAggregate::new(
                Box::new(TableScan::new(Arc::clone(&t)).with_pushed_quiet(pred(), false)),
                group_cols.clone(),
                specs(),
            ));
            let want = drain(serial);
            for degree in [2usize, 4, 8] {
                let m = MorselExec::new(
                    all(Source::from(&t)),
                    false,
                    Some((pred(), false)),
                    MorselPipeline::HashAgg {
                        group_cols: group_cols.clone(),
                        aggs: specs(),
                    },
                    degree,
                );
                assert_eq!(m.schema().fields.len(), group_cols.len() + specs().len());
                assert_blocks_identical(
                    want.clone(),
                    drain(Box::new(m)),
                    &format!("hash degree={degree} groups={group_cols:?}"),
                );
            }
        }
    }

    #[test]
    fn ordered_agg_pipeline_is_byte_identical_to_serial() {
        // Groups of 300 rows straddle both block and morsel boundaries,
        // so the boundary merge is exercised heavily.
        let t = table(20_000);
        let serial: BoxOp = Box::new(OrderedAggregate::new(
            Box::new(TableScan::new(Arc::clone(&t))),
            vec![0],
            specs(),
        ));
        let want = drain(serial);
        for degree in [2usize, 4, 8] {
            let m = MorselExec::new(
                all(Source::from(&t)),
                false,
                None,
                MorselPipeline::OrderedAgg {
                    group_cols: vec![0],
                    aggs: specs(),
                },
                degree,
            );
            assert_blocks_identical(
                want.clone(),
                drain(Box::new(m)),
                &format!("ordered degree={degree}"),
            );
        }
    }

    #[test]
    fn global_aggregate_over_empty_input_emits_one_row() {
        let t = table(1000);
        // Predicate matching nothing → empty input to the aggregate.
        let none = Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(-1));
        let m = MorselExec::new(
            all(Source::from(&t)),
            false,
            Some((none, false)),
            MorselPipeline::HashAgg {
                group_cols: vec![],
                aggs: vec![AggSpec::new(AggFunc::Count, 0, "n")],
            },
            4,
        );
        let blocks = drain(Box::new(m));
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].len, 1);
        assert_eq!(blocks[0].columns[0][0], 0);
    }

    #[test]
    fn merged_source_pipelines_match_serial() {
        let t = table(7000);
        let handles = ColumnHandle::all(&t);
        let fields: Vec<_> = handles.iter().map(|h| h.field(false)).collect();
        // One delta block in the merged repr (integer cols + a token col
        // reusing an existing token).
        let tok = {
            let b = drain(Box::new(TableScan::new(Arc::clone(&t))));
            b[0].columns[2][0]
        };
        let delta = vec![Block::new(vec![vec![100, 200], vec![7, 8], vec![tok, tok]])];
        for tombstones in [vec![], vec![5u64, 2000, 6999]] {
            let src = Arc::new(MergedSource::new(
                "t",
                handles.clone(),
                fields.clone(),
                7000,
                Arc::new(tombstones.clone()),
                delta.clone(),
            ));
            // Emit with predicate.
            let want = drain(Box::new(
                MergedScan::all(Arc::clone(&src), false).with_pushed(pred(), false),
            ));
            for degree in [2usize, 4] {
                let m = MorselExec::new(
                    all(Source::from(&src)),
                    false,
                    Some((pred(), false)),
                    MorselPipeline::Emit,
                    degree,
                );
                assert_blocks_identical(
                    want.clone(),
                    drain(Box::new(m)),
                    &format!("merged emit degree={degree} tombstones={tombstones:?}"),
                );
            }
            // Hash aggregate over the merged scan.
            let want = drain(Box::new(HashAggregate::new(
                Box::new(MergedScan::all(Arc::clone(&src), false)),
                vec![0],
                specs(),
            )));
            let m = MorselExec::new(
                all(Source::from(&src)),
                false,
                None,
                MorselPipeline::HashAgg {
                    group_cols: vec![0],
                    aggs: specs(),
                },
                4,
            );
            assert_blocks_identical(
                want,
                drain(Box::new(m)),
                &format!("merged hash tombstones={tombstones:?}"),
            );
        }
    }

    #[test]
    fn empty_table_pipelines() {
        let t = Arc::new(Table::new("e", vec![]));
        let m = MorselExec::new(all(Source::from(&t)), false, None, MorselPipeline::Emit, 4);
        assert!(drain(Box::new(m)).is_empty());
    }
}
