//! Compressed-domain predicate kernels (paper §3.3–§3.4).
//!
//! A pushed-down conjunct over one column is first compiled (by the
//! execution layer) into a [`ValueSet`] — a normalized set of closed
//! `i64` intervals whose membership test is *exactly* the predicate's
//! truth value on a raw stored value, NULL sentinel included. Each
//! encoding then narrows a block's [`Selection`] against its compressed
//! form:
//!
//! * **run-length** (§3.1.5): test once per run, keep or drop the whole
//!   run — [`Strategy::Rle`];
//! * **dictionary** (§3.1.4): evaluate over the ≤2^15 dictionary entries
//!   once, then test each selected row's packed code against the result
//!   — [`Strategy::DictCodes`];
//! * **affine** (§3.1.3): solve `base + row·delta ∈ [lo, hi]` in closed
//!   form for the matching row interval — no decode at all;
//! * **delta** (§3.1.2) with a non-negative minimum delta (header-proved
//!   sorted): binary-search the interval boundaries into row ranges;
//! * **frame-of-reference** (§3.1.1): the header envelope
//!   `[frame, frame + 2^bits - 1]` decides all-match / none-match; on
//!   partial overlap the value set is shifted by the frame and the
//!   packed offsets are tested in the offset domain — [`Matcher`] over
//!   the unpacked block, never slower than decoding and testing the
//!   values.
//!
//! [`PredicateKernel::build`] returns `None` for the encodings with no
//! compressed-domain answer (raw, unsorted delta); the scan then decodes
//! and tests the values with the same [`Matcher`], and the decoded
//! evaluation remains the semantics oracle
//! (`tests/compressed_kernels_diff.rs`).

use crate::bitpack::{self, Packed};
use crate::header::HeaderView;
use crate::metadata::{ColumnMetadata, Knowledge};
use crate::selection::Selection;
use crate::{affine, dict, frame, manipulate, rle, Algorithm, EncodedStream};
use tde_types::sentinel::NULL_I64;

/// Smallest non-sentinel value: comparison predicates never match the
/// NULL sentinel, so their intervals start here.
const NON_NULL_MIN: i64 = i64::MIN + 1;

/// A set of `i64` values stored as sorted, disjoint, maximally-merged
/// closed intervals. Membership is the exact truth value of the compiled
/// predicate on a raw stored value (the NULL sentinel is an ordinary
/// domain point: comparison sets exclude it, `is_null` is exactly it,
/// and complement — `NOT` — re-includes it, matching expression
/// evaluation where `NOT (x = 5)` is true on NULL rows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueSet {
    ivs: Vec<(i64, i64)>,
}

impl ValueSet {
    /// The empty set: no value matches.
    pub fn empty() -> ValueSet {
        ValueSet { ivs: Vec::new() }
    }

    /// Every `i64`, sentinel included.
    pub fn full() -> ValueSet {
        ValueSet {
            ivs: vec![(i64::MIN, i64::MAX)],
        }
    }

    /// A single value.
    pub fn point(v: i64) -> ValueSet {
        ValueSet { ivs: vec![(v, v)] }
    }

    /// Normalize arbitrary closed intervals: drop empty ones, sort, and
    /// merge overlapping or adjacent neighbours.
    pub fn from_intervals(mut ivs: Vec<(i64, i64)>) -> ValueSet {
        ivs.retain(|&(lo, hi)| lo <= hi);
        ivs.sort_unstable();
        let mut merged: Vec<(i64, i64)> = Vec::with_capacity(ivs.len());
        for (lo, hi) in ivs {
            match merged.last_mut() {
                Some(last) if lo <= last.1.saturating_add(1) => last.1 = last.1.max(hi),
                _ => merged.push((lo, hi)),
            }
        }
        ValueSet { ivs: merged }
    }

    /// `x = lit` over raw values: NULL never matches, and a NULL literal
    /// matches nothing (SQL three-valued logic collapses to false).
    pub fn eq(lit: i64) -> ValueSet {
        if lit == NULL_I64 {
            ValueSet::empty()
        } else {
            ValueSet::point(lit)
        }
    }

    /// `x <> lit`: everything non-NULL except `lit`.
    pub fn ne(lit: i64) -> ValueSet {
        if lit == NULL_I64 {
            return ValueSet::empty();
        }
        let mut ivs = Vec::with_capacity(2);
        if lit > NON_NULL_MIN {
            ivs.push((NON_NULL_MIN, lit - 1));
        }
        if lit < i64::MAX {
            ivs.push((lit + 1, i64::MAX));
        }
        ValueSet::from_intervals(ivs)
    }

    /// `x < lit`.
    pub fn lt(lit: i64) -> ValueSet {
        if lit == NULL_I64 || lit == NON_NULL_MIN {
            return ValueSet::empty();
        }
        ValueSet::from_intervals(vec![(NON_NULL_MIN, lit - 1)])
    }

    /// `x <= lit`.
    pub fn le(lit: i64) -> ValueSet {
        if lit == NULL_I64 {
            return ValueSet::empty();
        }
        ValueSet::from_intervals(vec![(NON_NULL_MIN, lit)])
    }

    /// `x > lit`.
    pub fn gt(lit: i64) -> ValueSet {
        if lit == NULL_I64 || lit == i64::MAX {
            return ValueSet::empty();
        }
        ValueSet::from_intervals(vec![(lit + 1, i64::MAX)])
    }

    /// `x >= lit`.
    pub fn ge(lit: i64) -> ValueSet {
        if lit == NULL_I64 {
            return ValueSet::empty();
        }
        ValueSet::from_intervals(vec![(lit.max(NON_NULL_MIN), i64::MAX)])
    }

    /// `x IS NULL`: exactly the sentinel.
    pub fn is_null() -> ValueSet {
        ValueSet::point(NULL_I64)
    }

    /// Truthiness of a bare column used as a predicate: any raw value
    /// except 0 (the sentinel is nonzero, so NULL rows are kept — this
    /// mirrors block-wise evaluation exactly).
    pub fn truthy() -> ValueSet {
        ValueSet::point(0).complement()
    }

    /// Set union (predicate `OR`).
    pub fn union(&self, other: &ValueSet) -> ValueSet {
        let mut ivs = self.ivs.clone();
        ivs.extend_from_slice(&other.ivs);
        ValueSet::from_intervals(ivs)
    }

    /// Set intersection (predicate `AND`).
    pub fn intersect(&self, other: &ValueSet) -> ValueSet {
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::new();
        while i < self.ivs.len() && j < other.ivs.len() {
            let (alo, ahi) = self.ivs[i];
            let (blo, bhi) = other.ivs[j];
            let (lo, hi) = (alo.max(blo), ahi.min(bhi));
            if lo <= hi {
                out.push((lo, hi));
            }
            if ahi < bhi {
                i += 1;
            } else {
                j += 1;
            }
        }
        ValueSet { ivs: out }
    }

    /// Complement over the full `i64` domain (predicate `NOT`, which in
    /// block evaluation matches NULL rows of a comparison — the sentinel
    /// is deliberately inside the complemented domain).
    pub fn complement(&self) -> ValueSet {
        let mut out = Vec::with_capacity(self.ivs.len() + 1);
        let mut cursor = i64::MIN;
        for &(lo, hi) in &self.ivs {
            if lo > cursor {
                out.push((cursor, lo - 1));
            }
            if hi == i64::MAX {
                return ValueSet { ivs: out };
            }
            cursor = hi + 1;
        }
        out.push((cursor, i64::MAX));
        ValueSet { ivs: out }
    }

    /// Exact membership test.
    pub fn contains(&self, v: i64) -> bool {
        let idx = self.ivs.partition_point(|&(lo, _)| lo <= v);
        idx > 0 && self.ivs[idx - 1].1 >= v
    }

    /// Whether any value in `[lo, hi]` is in the set.
    pub fn overlaps(&self, lo: i64, hi: i64) -> bool {
        let idx = self.ivs.partition_point(|&(l, _)| l <= hi);
        idx > 0 && self.ivs[idx - 1].1 >= lo
    }

    /// Whether every value in `[lo, hi]` is in the set.
    pub fn covers(&self, lo: i64, hi: i64) -> bool {
        let idx = self.ivs.partition_point(|&(l, _)| l <= lo);
        idx > 0 && self.ivs[idx - 1].1 >= hi
    }

    /// True when no value matches.
    pub fn is_empty(&self) -> bool {
        self.ivs.is_empty()
    }

    /// The normalized intervals.
    pub fn intervals(&self) -> &[(i64, i64)] {
        &self.ivs
    }
}

/// What the column metadata alone decides about a pushed predicate:
/// `Some(true)` — every row matches; `Some(false)` — no row matches;
/// `None` — undecided, consult the stream kernel or fall back.
///
/// Metadata min/max exclude the NULL sentinel, so unless NULL absence is
/// proven the envelope is widened to include it — otherwise an
/// `IS NULL` predicate would be wrongly pruned.
pub fn metadata_selection(meta: &ColumnMetadata, set: &ValueSet) -> Option<bool> {
    let (mut lo, hi) = (meta.min?, meta.max?);
    if meta.has_nulls != Knowledge::False {
        lo = NULL_I64;
    }
    if !set.overlaps(lo, hi) {
        Some(false)
    } else if set.covers(lo, hi) {
        Some(true)
    } else {
        None
    }
}

/// A value set as the per-value test the selection loops run: closed
/// intervals over a `u64` key held as `(start, span)`, a key `k` matching
/// when `k.wrapping_sub(start) <= span` — one subtraction and one compare
/// per interval, whichever side of zero (or of the `u64` wrap) the
/// interval lies on. The key is a raw stored value (`v as u64`, see
/// [`Matcher::values`]) or a frame-of-reference offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matcher {
    arcs: Vec<(u64, u64)>,
}

impl Matcher {
    /// The test for raw stored values: `v as u64` matches exactly when
    /// `v` is in `set` (`v - lo <= hi - lo` is exact modulo 2^64).
    pub fn values(set: &ValueSet) -> Matcher {
        Matcher {
            arcs: set
                .ivs
                .iter()
                .map(|&(lo, hi)| (lo as u64, hi.wrapping_sub(lo) as u64))
                .collect(),
        }
    }

    /// The test for frame-of-reference offsets `p <= max`: `p` matches
    /// exactly when `frame.wrapping_add(p)` — the value decoding yields
    /// — is in `set`. Each value interval shifts by the frame into an arc
    /// of the offset circle, which is clipped to `[0, max]`.
    fn offsets(set: &ValueSet, frame: i64, max: u64) -> Matcher {
        let mut segs: Vec<(u64, u64)> = Vec::with_capacity(set.ivs.len() + 1);
        for &(lo, hi) in &set.ivs {
            let start = lo.wrapping_sub(frame) as u64;
            let span = hi.wrapping_sub(lo) as u64;
            let (head, tail) = match start.checked_add(span) {
                Some(end) => ((start, end), None),
                None => ((start, u64::MAX), Some((0, start.wrapping_add(span)))),
            };
            for (a, b) in std::iter::once(head).chain(tail) {
                if a <= max {
                    segs.push((a, b.min(max)));
                }
            }
        }
        segs.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(segs.len());
        for (a, b) in segs {
            match merged.last_mut() {
                Some(last) if a <= last.1.saturating_add(1) => last.1 = last.1.max(b),
                _ => merged.push((a, b)),
            }
        }
        Matcher {
            arcs: merged.into_iter().map(|(a, b)| (a, b - a)).collect(),
        }
    }

    /// Whether no key matches.
    pub fn is_empty(&self) -> bool {
        self.arcs.is_empty()
    }

    /// Whether `k` matches.
    #[inline]
    pub fn contains(&self, k: u64) -> bool {
        self.arcs.iter().any(|&(s, w)| k.wrapping_sub(s) <= w)
    }

    /// Narrow `sel` to the rows whose value in `values` (the block's
    /// column: raw stored values, or offsets as `i64` bits) matches;
    /// the loop is specialised for the common single-interval set.
    #[inline]
    pub fn narrow_values(&self, sel: &mut Selection, values: &[i64]) {
        match self.arcs.as_slice() {
            [] => sel.clear(),
            [(_, u64::MAX)] => {}
            &[(s, w)] => sel.retain_values(values, |v| (v as u64).wrapping_sub(s) <= w),
            _ => sel.retain_values(values, |v| self.contains(v as u64)),
        }
    }

    /// [`Matcher::narrow_values`] with each selected row's key read by
    /// `key(i)`.
    #[inline]
    pub fn narrow(&self, sel: &mut Selection, key: impl Fn(usize) -> u64) {
        match self.arcs.as_slice() {
            [] => sel.clear(),
            [(_, u64::MAX)] => {}
            &[(s, w)] => sel.retain(|i| key(i).wrapping_sub(s) <= w),
            _ => sel.retain(|i| self.contains(key(i))),
        }
    }
}

/// Per-encoding evaluation strategy, chosen once per stream.
enum Strategy {
    /// Global half-open row ranges, fully resolved at build time
    /// (affine closed form, sorted-delta binary search, envelope
    /// all/none answers).
    Ranges(Vec<(u64, u64)>),
    /// Sequential run walk: one membership test per run, whole runs
    /// kept or dropped. Blocks must be evaluated in order.
    Rle {
        set: ValueSet,
        run: usize,
        within: u64,
        pos: u64,
        /// The block's matching local row ranges (reused).
        kept: Vec<(usize, usize)>,
    },
    /// The predicate evaluated once over the dictionary entries; each
    /// selected row's packed code indexes the result (one flag per code
    /// the packing can hold: a code past the entries, never written by
    /// an append, matches nothing).
    DictCodes { keep: Vec<bool> },
    /// Frame-of-reference offsets tested against the value set shifted
    /// by the frame.
    Offsets(Matcher),
}

/// A compiled compressed-domain predicate evaluator for one stream.
pub struct PredicateKernel {
    strategy: Strategy,
    kind: &'static str,
    /// The selection [`PredicateKernel::eval_block`] answers into.
    scratch: Selection,
    /// The packed codes or offsets of a block narrowing unpacked whole.
    unpacked: Vec<i64>,
}

fn kernel(strategy: Strategy, kind: &'static str) -> PredicateKernel {
    PredicateKernel {
        strategy,
        kind,
        scratch: Selection::default(),
        unpacked: Vec::new(),
    }
}

/// The packed values of one block a kernel tests.
enum BlockValues<'a> {
    /// The block unpacked whole: the selection is dense enough
    /// ([`Selection::unpacks_block`]) to test every row branch-free.
    Unpacked(&'a [i64]),
    /// A sparser selection reads each selected value on its own.
    Packed(Packed<'a>),
}

/// The values of block `block_idx` of the bit-packed stream `buf` for
/// testing the rows of `sel`, unpacked into `unpacked` when the
/// selection is dense enough.
fn block_values<'a>(
    buf: &'a [u8],
    h: &HeaderView,
    block_idx: usize,
    sel: &Selection,
    unpacked: &'a mut Vec<i64>,
) -> BlockValues<'a> {
    let data = h.packed_block(buf, block_idx);
    if sel.unpacks_block() {
        unpacked.clear();
        bitpack::unpack_block(data, h.bits, h.block_size, unpacked, |v| v as i64);
        BlockValues::Unpacked(&unpacked[..sel.rows()])
    } else {
        BlockValues::Packed(Packed::new(data, h.bits))
    }
}

impl PredicateKernel {
    /// Compile `set` against the stream's encoding. `None` means the
    /// encoding has no compressed-domain answer (the caller decodes and
    /// tests the values).
    pub fn build(stream: &EncodedStream, set: &ValueSet) -> Option<PredicateKernel> {
        let h = stream.header();
        let buf = stream.as_bytes();
        let n = stream.len();
        match h.algorithm {
            Algorithm::Affine => Some(build_affine(buf, n, set)?),
            Algorithm::RunLength => Some(kernel(
                Strategy::Rle {
                    set: set.clone(),
                    run: 0,
                    within: 0,
                    pos: 0,
                    kept: Vec::new(),
                },
                "rle-run-skip",
            )),
            Algorithm::Dictionary => {
                let mut keep: Vec<bool> = dict::entries(buf, &h)
                    .into_iter()
                    .map(|v| set.contains(v))
                    .collect();
                let strategy = if keep.iter().all(|&k| !k) {
                    Strategy::Ranges(Vec::new())
                } else if keep.iter().all(|&k| k) {
                    Strategy::Ranges(vec![(0, n)])
                } else {
                    keep.resize(1 << h.bits, false);
                    Strategy::DictCodes { keep }
                };
                Some(kernel(strategy, "dict-domain"))
            }
            Algorithm::FrameOfReference => {
                let max = if h.bits >= 64 {
                    u64::MAX
                } else {
                    (1u64 << h.bits) - 1
                };
                let offsets = Matcher::offsets(set, frame::frame_value(buf), max);
                // The header envelope `[frame, frame + max]` decides the
                // whole stream when the set misses or covers it.
                Some(if offsets.is_empty() {
                    kernel(Strategy::Ranges(Vec::new()), "for-envelope")
                } else if offsets.arcs == [(0, max)] {
                    kernel(Strategy::Ranges(vec![(0, n)]), "for-envelope")
                } else {
                    kernel(Strategy::Offsets(offsets), "for-offset")
                })
            }
            Algorithm::Delta => {
                if !manipulate::header_proves_sorted(stream) {
                    return None;
                }
                let mut ranges = Vec::with_capacity(set.intervals().len());
                for &(lo, hi) in set.intervals() {
                    let start = lower_bound(stream, n, lo);
                    let end = upper_bound(stream, n, hi);
                    if start < end {
                        ranges.push((start, end));
                    }
                }
                Some(kernel(
                    Strategy::Ranges(merge_row_ranges(ranges)),
                    "delta-sorted-range",
                ))
            }
            Algorithm::None => None,
        }
    }

    /// The kernel's name, for decision traces and scan labels.
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// Position the kernel at absolute stream row `row` (a block
    /// boundary of a later decompression block), so ranged scans can
    /// start mid-stream. Only the RLE strategy carries position state —
    /// the others answer by `block_idx` — and it can only seek forward.
    pub fn seek(&mut self, stream: &EncodedStream, row: u64) {
        if let Strategy::Rle {
            run, within, pos, ..
        } = &mut self.strategy
        {
            debug_assert!(row >= *pos, "RLE kernel cannot seek backwards");
            let h = stream.header();
            let buf = stream.as_bytes();
            let mut remaining = row.saturating_sub(*pos);
            let mut runs = rle::run_iter_from(buf, &h, *run);
            while remaining > 0 {
                let Some((_, c)) = runs.next() else { break };
                let avail = c - *within;
                if remaining >= avail {
                    remaining -= avail;
                    *run += 1;
                    *within = 0;
                } else {
                    *within += remaining;
                    remaining = 0;
                }
            }
            *pos = row;
        }
    }

    /// Narrow `sel` — a selection over decompression block `block_idx`
    /// (`sel.rows()` logical rows) — to the rows the predicate accepts.
    /// The RLE strategy is stateful: every block must be presented, in
    /// stream order, even when `sel` is already empty.
    pub fn narrow(&mut self, stream: &EncodedStream, block_idx: usize, sel: &mut Selection) {
        let h = stream.header();
        let rows = sel.rows();
        let start = block_idx as u64 * h.block_size as u64;
        let PredicateKernel {
            strategy, unpacked, ..
        } = self;
        match strategy {
            Strategy::Ranges(rs) => {
                let end = start + rows as u64;
                let from = rs.partition_point(|&(_, rend)| rend <= start);
                sel.retain_ranges(rs[from..].iter().take_while(|r| r.0 < end).map(
                    |&(rlo, rhi)| {
                        (
                            (rlo.max(start) - start) as usize,
                            (rhi.min(end) - start) as usize,
                        )
                    },
                ));
            }
            Strategy::Rle {
                set,
                run,
                within,
                pos,
                kept,
            } => {
                debug_assert_eq!(*pos, start, "RLE kernel blocks must arrive in order");
                kept.clear();
                let mut at = 0usize;
                let mut runs = rle::run_iter_from(stream.as_bytes(), &h, *run);
                while at < rows {
                    let Some((v, c)) = runs.next() else { break };
                    let avail = (c - *within) as usize;
                    let take = avail.min(rows - at);
                    if set.contains(v) {
                        match kept.last_mut() {
                            Some(last) if last.1 == at => last.1 = at + take,
                            _ => kept.push((at, at + take)),
                        }
                    }
                    at += take;
                    if take == avail {
                        *run += 1;
                        *within = 0;
                    } else {
                        *within += take as u64;
                    }
                }
                *pos += rows as u64;
                sel.retain_ranges(kept.iter().copied());
            }
            Strategy::DictCodes { keep } => {
                let buf = stream.as_bytes();
                match block_values(buf, &h, block_idx, sel, unpacked) {
                    BlockValues::Unpacked(codes) => sel.retain_values(codes, |c| keep[c as usize]),
                    BlockValues::Packed(codes) => sel.retain(|i| keep[codes.get(i) as usize]),
                }
            }
            Strategy::Offsets(m) => {
                let buf = stream.as_bytes();
                match block_values(buf, &h, block_idx, sel, unpacked) {
                    BlockValues::Unpacked(offsets) => m.narrow_values(sel, offsets),
                    BlockValues::Packed(offsets) => m.narrow(sel, |i| offsets.get(i)),
                }
            }
        }
    }

    /// The kernel on its own: the rows of decompression block
    /// `block_idx` (`rows` logical rows) that match. Blocks must arrive
    /// in order, as for [`PredicateKernel::narrow`].
    pub fn eval_block(
        &mut self,
        stream: &EncodedStream,
        block_idx: usize,
        rows: usize,
    ) -> &Selection {
        let mut sel = std::mem::take(&mut self.scratch);
        sel.select_all(rows);
        self.narrow(stream, block_idx, &mut sel);
        self.scratch = sel;
        &self.scratch
    }
}

/// First row with value >= `target` in a sorted stream.
fn lower_bound(stream: &EncodedStream, n: u64, target: i64) -> u64 {
    let (mut lo, mut hi) = (0u64, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if stream.get(mid) < target {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// First row with value > `target` in a sorted stream.
fn upper_bound(stream: &EncodedStream, n: u64, target: i64) -> u64 {
    let (mut lo, mut hi) = (0u64, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if stream.get(mid) <= target {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

fn merge_row_ranges(mut ranges: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    ranges.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(ranges.len());
    for (lo, hi) in ranges {
        match merged.last_mut() {
            Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
            _ => merged.push((lo, hi)),
        }
    }
    merged
}

fn build_affine(buf: &[u8], n: u64, set: &ValueSet) -> Option<PredicateKernel> {
    let base = affine::base(buf);
    let delta = affine::delta(buf);
    if n == 0 {
        return Some(kernel(Strategy::Ranges(Vec::new()), "affine-closed-form"));
    }
    // The progression must be exact in i64 for the closed form to equal
    // the decoded values; a wrapped stream falls back.
    let last = (base as i128) + (delta as i128) * ((n - 1) as i128);
    if last < i64::MIN as i128 || last > i64::MAX as i128 {
        return None;
    }
    if delta == 0 {
        let ranges = if set.contains(base) {
            vec![(0, n)]
        } else {
            Vec::new()
        };
        return Some(kernel(Strategy::Ranges(ranges), "affine-const"));
    }
    let (b, d) = (base as i128, delta as i128);
    let mut ranges = Vec::with_capacity(set.intervals().len());
    for &(lo, hi) in set.intervals() {
        // Solve lo <= b + r*d <= hi for integer r in [0, n).
        let (lo, hi) = (lo as i128, hi as i128);
        let (rlo, rhi) = if d > 0 {
            (ceil_div(lo - b, d), floor_div(hi - b, d))
        } else {
            (ceil_div(hi - b, d), floor_div(lo - b, d))
        };
        let rlo = rlo.max(0);
        let rhi = rhi.min(n as i128 - 1);
        if rlo <= rhi {
            ranges.push((rlo as u64, rhi as u64 + 1));
        }
    }
    Some(kernel(
        Strategy::Ranges(merge_row_ranges(ranges)),
        "affine-closed-form",
    ))
}

fn floor_div(a: i128, b: i128) -> i128 {
    let q = a / b;
    if a % b != 0 && (a < 0) != (b < 0) {
        q - 1
    } else {
        q
    }
}

fn ceil_div(a: i128, b: i128) -> i128 {
    let q = a / b;
    if a % b != 0 && (a < 0) == (b < 0) {
        q + 1
    } else {
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BLOCK_SIZE;
    use tde_types::Width;

    fn append_all(s: &mut EncodedStream, data: &[i64]) {
        for chunk in data.chunks(BLOCK_SIZE) {
            s.append_block(chunk).unwrap();
        }
    }

    /// Reference evaluation: decode everything, test every row.
    fn oracle_rows(stream: &EncodedStream, set: &ValueSet) -> Vec<u64> {
        stream
            .decode_all()
            .iter()
            .enumerate()
            .filter(|(_, &v)| set.contains(v))
            .map(|(i, _)| i as u64)
            .collect()
    }

    fn picked(sel: &Selection, start: u64) -> Vec<u64> {
        match sel.positions() {
            None => (start..start + sel.rows() as u64).collect(),
            Some(p) => p.iter().map(|&p| start + u64::from(p)).collect(),
        }
    }

    fn kernel_rows(stream: &EncodedStream, set: &ValueSet) -> Option<Vec<u64>> {
        let mut k = PredicateKernel::build(stream, set)?;
        let h = stream.header();
        let n = stream.len() as usize;
        let mut out = Vec::new();
        let mut block = 0usize;
        let mut done = 0usize;
        while done < n {
            let rows = (n - done).min(h.block_size);
            out.extend(picked(k.eval_block(stream, block, rows), done as u64));
            done += rows;
            block += 1;
        }
        Some(out)
    }

    #[test]
    fn value_set_normalizes_and_tests() {
        let s = ValueSet::from_intervals(vec![(5, 9), (1, 3), (4, 4), (20, 25)]);
        assert_eq!(s.intervals(), &[(1, 9), (20, 25)]);
        assert!(s.contains(1) && s.contains(9) && s.contains(22));
        assert!(!s.contains(0) && !s.contains(10) && !s.contains(26));
        assert!(s.overlaps(10, 20) && !s.overlaps(10, 19));
        assert!(s.covers(2, 9) && !s.covers(2, 10));
    }

    #[test]
    fn value_set_logic_matches_expression_semantics() {
        // NOT (x = 5) is true on NULL rows: the complement contains the sentinel.
        let not_eq = ValueSet::eq(5).complement();
        assert!(not_eq.contains(NULL_I64));
        assert!(!not_eq.contains(5));
        // x <> 5 is false on NULL rows.
        assert!(!ValueSet::ne(5).contains(NULL_I64));
        // Comparisons against a NULL literal match nothing.
        assert!(ValueSet::ge(NULL_I64).is_empty());
        // AND / OR distribute as intersect / union.
        let between = ValueSet::ge(10).intersect(&ValueSet::le(20));
        assert_eq!(between.intervals(), &[(10, 20)]);
        let either = ValueSet::eq(1).union(&ValueSet::eq(2));
        assert_eq!(either.intervals(), &[(1, 2)]);
        // Domain-edge literals.
        assert!(ValueSet::lt(i64::MIN + 1).is_empty());
        assert!(ValueSet::gt(i64::MAX).is_empty());
        assert_eq!(
            ValueSet::le(i64::MAX).intervals(),
            &[(i64::MIN + 1, i64::MAX)]
        );
        assert!(ValueSet::truthy().contains(NULL_I64));
        assert!(!ValueSet::truthy().contains(0));
        assert_eq!(ValueSet::full().complement(), ValueSet::empty());
        assert_eq!(ValueSet::empty().complement(), ValueSet::full());
    }

    #[test]
    fn affine_closed_form_matches_oracle() {
        for (base, delta, n) in [
            (100i64, 3i64, 2500u64),
            (50, -7, 999),
            (42, 0, 10),
            (0, 1, 1),
        ] {
            let mut s = EncodedStream::new_affine(Width::W8, true, base, delta);
            let data: Vec<i64> = (0..n as i64).map(|i| base + i * delta).collect();
            append_all(&mut s, &data);
            for set in [
                ValueSet::ge(100).intersect(&ValueSet::le(400)),
                ValueSet::eq(base),
                ValueSet::lt(-1000),
                ValueSet::ne(103),
                ValueSet::eq(5), // not on the progression unless it is
            ] {
                assert_eq!(
                    kernel_rows(&s, &set).expect("affine kernel"),
                    oracle_rows(&s, &set),
                    "base={base} delta={delta} n={n}"
                );
            }
        }
    }

    #[test]
    fn rle_run_skip_matches_oracle() {
        let mut data = Vec::new();
        for v in 0..80i64 {
            data.extend(std::iter::repeat_n(v % 7, 29 + (v as usize % 13)));
        }
        data.push(NULL_I64);
        let mut s = EncodedStream::new_rle(Width::W8, true, Width::W4, Width::W8);
        append_all(&mut s, &data);
        for set in [
            ValueSet::eq(3),
            ValueSet::ne(3),
            ValueSet::is_null(),
            ValueSet::eq(3).complement(),
            ValueSet::gt(4),
        ] {
            assert_eq!(
                kernel_rows(&s, &set).expect("rle kernel"),
                oracle_rows(&s, &set)
            );
        }
    }

    #[test]
    fn kernel_seek_positions_mid_stream() {
        // Run lengths chosen so runs straddle block boundaries and a
        // seek regularly lands mid-run.
        let mut data = Vec::new();
        for v in 0..50i64 {
            data.extend(std::iter::repeat_n(v % 5, 37 + (v as usize % 11)));
        }
        let mut s = EncodedStream::new_rle(Width::W8, true, Width::W4, Width::W8);
        append_all(&mut s, &data);
        let set = ValueSet::eq(2).union(&ValueSet::eq(4));
        let h = s.header();
        let n = s.len() as usize;
        let nblocks = n.div_ceil(h.block_size);
        // Reference: one kernel walked in order from row zero.
        let mut reference = Vec::new();
        let mut k = PredicateKernel::build(&s, &set).unwrap();
        let mut done = 0usize;
        for b in 0..nblocks {
            let rows = (n - done).min(h.block_size);
            reference.push(picked(k.eval_block(&s, b, rows), 0));
            done += rows;
        }
        // From every start block: a fresh kernel seeked there must
        // continue exactly like the in-order walk.
        for start in 0..nblocks {
            let mut k = PredicateKernel::build(&s, &set).unwrap();
            k.seek(&s, (start * h.block_size) as u64);
            let mut done = start * h.block_size;
            for (b, expected) in reference.iter().enumerate().skip(start) {
                let rows = (n - done).min(h.block_size);
                assert_eq!(
                    &picked(k.eval_block(&s, b, rows), 0),
                    expected,
                    "start={start} block={b}"
                );
                done += rows;
            }
        }
        // Seek is a no-op on block-indexed strategies.
        let affine_data: Vec<i64> = (0..3000).map(|i| i * 3).collect();
        let mut aff = EncodedStream::new_affine(Width::W8, true, 0, 3);
        append_all(&mut aff, &affine_data);
        let mut k = PredicateKernel::build(&aff, &ValueSet::ge(0)).unwrap();
        k.seek(&aff, BLOCK_SIZE as u64);
        let rows = affine_data.len() - BLOCK_SIZE;
        assert!(k.eval_block(&aff, 1, rows).positions().is_none());
    }

    #[test]
    fn unpacked_and_per_row_tests_agree() {
        let data: Vec<i64> = (0..2500).map(|i| (i * 37 % 101) - 50).collect();
        let mut f = EncodedStream::new_frame(Width::W8, true, -50, 7);
        let mut d = EncodedStream::new_dict(Width::W8, true, 7);
        append_all(&mut f, &data);
        append_all(&mut d, &data);
        let set = ValueSet::ge(-10).intersect(&ValueSet::le(30));
        for s in [&f, &d] {
            let mut k = PredicateKernel::build(s, &set).expect("kernel");
            for (b, block) in data.chunks(BLOCK_SIZE).enumerate() {
                // Every row (unpacked), then every fifth (read per row).
                for step in [1, 5] {
                    let mut sel = Selection::all(block.len());
                    sel.retain(|i| i % step == 0);
                    assert_eq!(sel.unpacks_block(), step == 1);
                    k.narrow(s, b, &mut sel);
                    let want: Vec<u64> = (0..block.len())
                        .filter(|&i| i % step == 0 && set.contains(block[i]))
                        .map(|i| i as u64)
                        .collect();
                    assert_eq!(picked(&sel, 0), want, "{} block {b}", k.kind());
                }
            }
        }
    }

    #[test]
    fn dict_domain_matches_oracle() {
        let domain = [7i64, -4, 1_000_000, NULL_I64, 12];
        let data: Vec<i64> = (0..3000).map(|i| domain[i % domain.len()]).collect();
        let mut s = EncodedStream::new_dict(Width::W8, true, 3);
        append_all(&mut s, &data);
        for set in [
            ValueSet::eq(7),
            ValueSet::is_null(),
            ValueSet::ge(0),
            ValueSet::eq(7).complement(),
            ValueSet::lt(-100),
            ValueSet::full(),
        ] {
            let k = PredicateKernel::build(&s, &set).expect("dict kernel");
            assert_eq!(k.kind(), "dict-domain");
            assert_eq!(kernel_rows(&s, &set).unwrap(), oracle_rows(&s, &set));
        }
    }

    #[test]
    fn frame_envelope_decides_and_offsets_test_the_rest() {
        let data: Vec<i64> = (0..2000).map(|i| 500 + (i % 100)).collect();
        let mut s = EncodedStream::new_frame(Width::W8, true, 500, 7);
        append_all(&mut s, &data);
        // Envelope is [500, 627]; a disjoint set skips everything.
        let set = ValueSet::gt(10_000);
        let k = PredicateKernel::build(&s, &set).expect("skip");
        assert_eq!(k.kind(), "for-envelope");
        assert_eq!(kernel_rows(&s, &set).unwrap(), Vec::<u64>::new());
        // A covering set keeps everything.
        let set = ValueSet::ge(0);
        assert_eq!(
            kernel_rows(&s, &set).unwrap(),
            (0..2000u64).collect::<Vec<_>>()
        );
        // Partial overlap is answered on the packed offsets.
        for set in [
            ValueSet::eq(550),
            ValueSet::ge(590).intersect(&ValueSet::le(700)),
            ValueSet::ne(520),
            ValueSet::eq(550).complement(),
        ] {
            let k = PredicateKernel::build(&s, &set).expect("offset kernel");
            assert_eq!(k.kind(), "for-offset");
            assert_eq!(kernel_rows(&s, &set).unwrap(), oracle_rows(&s, &set));
        }
    }

    #[test]
    fn offset_matcher_clips_shifted_intervals_to_the_envelope() {
        // Frame at i64::MIN: the NULL sentinel is offset 0; a comparison
        // set (which excludes it) starts at offset 1.
        let m = Matcher::offsets(&ValueSet::le(i64::MIN + 9), i64::MIN, 15);
        assert_eq!(m.arcs, vec![(1, 8)]);
        let m = Matcher::offsets(&ValueSet::is_null(), i64::MIN, 15);
        assert_eq!(m.arcs, vec![(0, 0)]);
        // An interval straddling the top of the envelope is cut at it.
        let m = Matcher::offsets(&ValueSet::ge(10), 0, 15);
        assert_eq!(m.arcs, vec![(10, 5)]);
        // Zero bits: the envelope is the frame alone.
        assert!(Matcher::offsets(&ValueSet::ne(7), 7, 0).is_empty());
        assert_eq!(Matcher::offsets(&ValueSet::eq(7), 7, 0).arcs, vec![(0, 0)]);
        // 64 bits: values wrap past i64::MAX back to i64::MIN, and the
        // shifted arc wraps the offset circle with them.
        let m = Matcher::offsets(&ValueSet::le(-1), 5, u64::MAX);
        for p in [0u64, 1, 1 << 63, u64::MAX - 6, u64::MAX - 5, u64::MAX] {
            let v = 5i64.wrapping_add(p as i64);
            assert_eq!(m.contains(p), ValueSet::le(-1).contains(v), "p={p}");
        }
    }

    #[test]
    fn sorted_delta_binary_searches_ranges() {
        let data: Vec<i64> = (0..5000).map(|i| i / 3).collect();
        let mut s = EncodedStream::new_delta(Width::W8, true, 0, 1);
        append_all(&mut s, &data);
        for set in [
            ValueSet::ge(100).intersect(&ValueSet::lt(200)),
            ValueSet::eq(0),
            ValueSet::eq(1666),
            ValueSet::gt(1_000_000),
            ValueSet::eq(7).union(&ValueSet::eq(1000)),
        ] {
            let k = PredicateKernel::build(&s, &set).expect("delta kernel");
            assert_eq!(k.kind(), "delta-sorted-range");
            assert_eq!(kernel_rows(&s, &set).unwrap(), oracle_rows(&s, &set));
        }
    }

    #[test]
    fn metadata_envelope_respects_possible_nulls() {
        let mut meta = ColumnMetadata::unknown();
        meta.min = Some(10);
        meta.max = Some(20);
        // NULL presence unknown: IS NULL must not be pruned.
        assert_eq!(metadata_selection(&meta, &ValueSet::is_null()), None);
        assert_eq!(metadata_selection(&meta, &ValueSet::gt(100)), Some(false));
        // Proven no NULLs: the envelope tightens.
        meta.has_nulls = Knowledge::False;
        assert_eq!(metadata_selection(&meta, &ValueSet::is_null()), Some(false));
        assert_eq!(metadata_selection(&meta, &ValueSet::ge(0)), Some(true));
        assert_eq!(metadata_selection(&meta, &ValueSet::ge(15)), None);
    }
}
