//! Column builders: the storage half of the FlowTable operator
//! (paper §3.3–3.4).
//!
//! A [`ColumnBuilder`] accepts blocks of values, feeds them through the
//! dynamic encoder (and, for strings, through the heap accelerator), and
//! on `finish` applies the paper's post-processing manipulations:
//!
//! 1. optional conversion to the optimal encoding (§3.2),
//! 2. heap sorting through the encoding dictionary (§3.4.3 / §6.3),
//! 3. type narrowing via header edits (§3.4.1 / §6.5),
//! 4. metadata extraction (§3.4.2 / §6.4).
//!
//! Each builder is independent, which is what lets FlowTable distribute
//! column encoding across cores (§3.3).

use crate::accelerator::HeapAccelerator;
use crate::column::{Column, Compression};
use crate::convert;
use crate::heap::StringHeap;
use std::sync::Arc;
use tde_encodings::manipulate;
use tde_encodings::metadata::Knowledge;
use tde_encodings::stats::{choose_encoding, AllowedAlgorithms};
use tde_encodings::{
    Algorithm, ColumnMetadata, ColumnStats, DynamicEncoder, EncodingSpec, BLOCK_SIZE,
};
use tde_types::sentinel::{null_real, NULL_I64, NULL_TOKEN};
use tde_types::{Collation, DataType, Value, Width};

/// Knobs controlling how columns are built — the axes the paper's
/// experiments sweep (encoding on/off, acceleration on/off) plus the
/// strategic optimizer's restrictions (§4.3).
#[derive(Debug, Clone, Copy)]
pub struct EncodingPolicy {
    /// Whether lightweight encodings are applied at all.
    pub encodings: bool,
    /// Whether string columns use the heap accelerator.
    pub acceleration: bool,
    /// Which algorithms the dynamic encoder may choose.
    pub allow: AllowedAlgorithms,
    /// Whether to convert to the optimal encoding at the end of the load.
    pub convert_to_optimal: bool,
    /// Whether to sort small string heaps through the encoding dictionary.
    pub sort_heaps: bool,
    /// Whether to narrow column widths via header manipulation.
    pub narrow: bool,
    /// Collation for string columns.
    pub collation: Collation,
    /// Give-up threshold for the accelerator.
    pub accelerator_threshold: u64,
}

impl Default for EncodingPolicy {
    fn default() -> EncodingPolicy {
        EncodingPolicy {
            encodings: true,
            acceleration: true,
            allow: AllowedAlgorithms::all(),
            convert_to_optimal: true,
            sort_heaps: true,
            narrow: true,
            collation: Collation::Binary,
            accelerator_threshold: crate::accelerator::DEFAULT_GIVE_UP,
        }
    }
}

impl EncodingPolicy {
    /// Everything off: the paper's baseline configuration.
    pub fn baseline() -> EncodingPolicy {
        EncodingPolicy {
            encodings: false,
            acceleration: false,
            sort_heaps: false,
            narrow: false,
            ..EncodingPolicy::default()
        }
    }

    /// Inner-join-side policy: only cheap-random-access encodings
    /// (paper §4.3).
    pub fn inner_side() -> EncodingPolicy {
        EncodingPolicy {
            allow: AllowedAlgorithms::random_access(),
            ..EncodingPolicy::default()
        }
    }
}

/// A finished column plus everything learned while building it.
#[derive(Debug)]
pub struct BuiltColumn {
    /// The column.
    pub column: Column,
    /// Mid-load encoding changes (experiment E9).
    pub reencodings: u32,
    /// Whether the end-of-load optimal conversion fired.
    pub final_converted: bool,
}

/// Streaming builder for one column.
#[derive(Debug)]
pub struct ColumnBuilder {
    name: String,
    dtype: DataType,
    policy: EncodingPolicy,
    enc: DynamicEncoder,
    pending: Vec<i64>,
    heap: Option<StringHeap>,
    accel: Option<HeapAccelerator>,
    /// A frozen heap the tokens point into, and whether it is sorted.
    frozen: Option<(Arc<StringHeap>, bool)>,
}

/// Hand the staged values to the encoder once they make a whole block.
fn flush_full_block(pending: &mut Vec<i64>, enc: &mut DynamicEncoder) {
    if pending.len() == BLOCK_SIZE {
        enc.append_block(pending);
        pending.clear();
    }
}

impl ColumnBuilder {
    /// A builder for a column of `dtype` under `policy`.
    pub fn new(name: impl Into<String>, dtype: DataType, policy: EncodingPolicy) -> ColumnBuilder {
        let name = name.into();
        // Heap tokens are unsigned offsets; everything else is signed.
        let signed = !dtype.is_string();
        let mut enc = DynamicEncoder::new(Width::W8, signed, policy.allow, policy.encodings)
            .labeled(name.as_str());
        if dtype.is_string() {
            // Heap tokens are offsets, not dense indexes: small domains
            // should land on dictionary encoding (paper §6.3), which is
            // what makes heap sorting and token remapping possible.
            enc = enc.prefer_dictionary();
        }
        let (heap, accel) = if dtype.is_string() {
            let accel = policy.acceleration.then(|| {
                HeapAccelerator::with_threshold(policy.collation, policy.accelerator_threshold)
            });
            (Some(StringHeap::new()), accel)
        } else {
            (None, None)
        };
        ColumnBuilder {
            name,
            dtype,
            policy,
            enc,
            pending: Vec::with_capacity(BLOCK_SIZE),
            heap,
            accel,
            frozen: None,
        }
    }

    /// A builder for tokens into a frozen heap, which the column shares
    /// as it is: the tokens are kept — they stay join-compatible with
    /// every other column over the heap (the invisible join equates token
    /// values) — so the heap is never sorted or re-interned, and the
    /// column claims sorted tokens exactly when `sorted` says the heap
    /// is. Tokens arrive through [`ColumnBuilder::append_raw`].
    pub fn over_heap(
        name: impl Into<String>,
        heap: Arc<StringHeap>,
        sorted: bool,
        policy: EncodingPolicy,
    ) -> ColumnBuilder {
        ColumnBuilder {
            heap: None,
            accel: None,
            frozen: Some((heap, sorted)),
            ..ColumnBuilder::new(name, DataType::Str, policy)
        }
    }

    /// Rows appended so far.
    pub fn len(&self) -> u64 {
        self.enc.len() + self.pending.len() as u64
    }

    /// Whether nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn push_raw(&mut self, v: i64) {
        self.pending.push(v);
        flush_full_block(&mut self.pending, &mut self.enc);
    }

    /// Append already-storage-encoded values: scalars with sentinel NULLs,
    /// f64 bit patterns, or heap tokens (strings must instead go through
    /// [`ColumnBuilder::append_str`]). Whole blocks go to the encoder
    /// straight from `vals`; only a ragged head or tail is staged.
    pub fn append_raw(&mut self, mut vals: &[i64]) {
        if !self.pending.is_empty() {
            let take = vals.len().min(BLOCK_SIZE - self.pending.len());
            self.pending.extend_from_slice(&vals[..take]);
            vals = &vals[take..];
            flush_full_block(&mut self.pending, &mut self.enc);
        }
        let mut blocks = vals.chunks_exact(BLOCK_SIZE);
        for block in &mut blocks {
            self.enc.append_block(block);
        }
        self.pending.extend_from_slice(blocks.remainder());
    }

    /// Append one integral scalar (Integer/Date/Timestamp/Bool domain).
    pub fn append_i64(&mut self, v: i64) {
        debug_assert!(!self.dtype.is_string() && self.dtype != DataType::Real);
        self.push_raw(v);
    }

    /// Append one real as its bit pattern.
    pub fn append_f64(&mut self, v: f64) {
        debug_assert_eq!(self.dtype, DataType::Real);
        self.push_raw(v.to_bits() as i64);
    }

    /// Append one string (or NULL), interning through the accelerator
    /// when one is attached.
    pub fn append_str(&mut self, s: Option<&str>) {
        self.append_strs([s]);
    }

    /// Append a run of strings (or NULLs) — [`ColumnBuilder::append_str`]
    /// for a whole block of fields at a time.
    pub fn append_strs<'a>(&mut self, strs: impl IntoIterator<Item = Option<&'a str>>) {
        debug_assert!(self.dtype.is_string());
        let heap = self.heap.as_mut().expect("string builder has a heap");
        for s in strs {
            let token = match (s, &mut self.accel) {
                (None, _) => NULL_TOKEN,
                (Some(s), Some(acc)) => acc.intern(heap, s),
                (Some(s), None) => heap.append(s),
            };
            self.pending.push(token as i64);
            flush_full_block(&mut self.pending, &mut self.enc);
        }
    }

    /// Append a boxed value (slow path for convenience APIs).
    pub fn append_value(&mut self, v: &Value) {
        match (self.dtype, v) {
            (DataType::Str, Value::Str(s)) => self.append_str(Some(s)),
            (DataType::Str, Value::Null) => self.append_str(None),
            (DataType::Real, Value::Null) => self.append_f64(null_real()),
            (DataType::Real, _) => self.append_f64(
                v.as_f64()
                    .unwrap_or_else(|| panic!("type mismatch for {v}")),
            ),
            (_, Value::Null) => self.append_i64(NULL_I64),
            _ => self.append_i64(
                v.as_i64()
                    .unwrap_or_else(|| panic!("type mismatch for {v}")),
            ),
        }
    }

    /// Finish the column, applying the §3.4 post-processing manipulations.
    pub fn finish(mut self) -> BuiltColumn {
        if !self.pending.is_empty() {
            let tail = std::mem::take(&mut self.pending);
            self.enc.append_block(&tail);
        }
        let policy = self.policy;
        let result = self.enc.finish(policy.convert_to_optimal);
        let mut stream = result.stream;
        let mut metadata = if policy.encodings {
            // Full extraction from the encoding statistics (§3.4.2).
            stats_metadata(self.dtype, &result.stats, Width::W8)
        } else {
            ColumnMetadata::unknown()
        };

        let compression = if let Some((heap, sorted)) = self.frozen.take() {
            Compression::Heap { heap, sorted }
        } else if let Some(heap) = self.heap.take() {
            let mut sorted = heap.is_empty();
            // Fortuitous sortedness: the strings arrived in order
            // (the no-encoding bars of Fig 6).
            if let Some(acc) = &self.accel {
                if acc.is_active() {
                    metadata.merge(&ColumnMetadata {
                        cardinality: Some(heap.len()),
                        ..ColumnMetadata::unknown()
                    });
                    if acc.input_was_sorted() {
                        sorted = true;
                    }
                }
            }
            let mut heap = heap;
            if policy.sort_heaps
                && !sorted
                && stream.algorithm() == Algorithm::Dictionary
                && self.accel.as_ref().is_some_and(HeapAccelerator::is_active)
            {
                // The token stream is dictionary-encoded and the heap is
                // distinct: sort it through the dictionary (§3.4.3) in
                // time proportional to the domain, not the rows.
                heap = convert::sort_heap_via_dictionary(&mut stream, &heap, policy.collation);
                sorted = true;
                // The remap invalidates every token-domain claim derived
                // from the append-order statistics: order-dependent
                // properties are lost, the envelope is recomputed from the
                // remapped dictionary entries. Uniqueness survives (the
                // remap is a bijection on tokens).
                let entries = stream.dict_entries().expect("dictionary stream");
                metadata.sorted_asc = Knowledge::Unknown;
                metadata.dense = Knowledge::Unknown;
                metadata.min = entries.iter().min().copied();
                metadata.max = entries.iter().max().copied();
            }
            Compression::Heap {
                heap: Arc::new(heap),
                sorted,
            }
        } else {
            Compression::None
        };

        if policy.narrow && policy.encodings {
            let w = manipulate::narrow(&mut stream);
            // Delta streams carry no envelope in the header, but the load
            // statistics prove the range; record it in the width field.
            if stream.algorithm() == Algorithm::Delta && self.dtype != DataType::Real {
                let sw = Width::for_signed_range(result.stats.min, result.stats.max, true);
                if sw < w {
                    manipulate::set_width(&mut stream, sw);
                }
            }
            metadata.width = stream.width();
        }
        if let Compression::Heap { sorted, .. } = &compression {
            if *sorted {
                metadata.sorted_heap_tokens = Knowledge::True;
            }
        }

        BuiltColumn {
            column: Column {
                name: self.name,
                dtype: self.dtype,
                data: stream,
                compression,
                metadata,
            },
            reencodings: result.reencodings,
            final_converted: result.final_converted,
        }
    }
}

/// The claims [`ColumnBuilder::finish`] derives from a column's
/// statistics (§3.4.2), at `width`, before any heap manipulation: all a
/// column over a frozen heap or a dictionary claims, beside the heap's
/// sortedness.
pub fn stats_metadata(dtype: DataType, stats: &ColumnStats, width: Width) -> ColumnMetadata {
    if dtype == DataType::Real {
        // A real's values are bit patterns: it claims nothing but its
        // stream's width.
        return ColumnMetadata {
            width,
            ..ColumnMetadata::unknown()
        };
    }
    let mut metadata = ColumnMetadata::from_stats(stats, width);
    if dtype.is_string() {
        // String NULLs are stored as NULL_TOKEN (0), not NULL_I64, so
        // the sentinel count in the statistics never sees them. Real
        // tokens are heap offsets past the reserved null slot, so a
        // zero minimum is exactly "a NULL is present".
        metadata.has_nulls =
            Knowledge::from_bool(stats.count > 0 && stats.min == NULL_TOKEN as i64);
    }
    metadata
}

/// The metadata [`ColumnBuilder::finish`] records for a scalar
/// (non-string) column of `dtype` under the default policy, from the
/// statistics of its values alone: the extracted properties (§3.4.2) at
/// the width the end-of-load encoding narrows to (§3.4.1). A column
/// written straight into a fixed-width stream — the IndexTable's value
/// column — carries the claims the builder would have made for it.
///
/// The width is the one the encoding chosen by the final pass narrows
/// to: the builder converts to that encoding whenever it is smaller than
/// the one the load ended on.
pub fn scalar_metadata(dtype: DataType, stats: &ColumnStats) -> ColumnMetadata {
    debug_assert!(!dtype.is_string());
    let width = match choose_encoding(stats, Width::W8, AllowedAlgorithms::all(), true) {
        EncodingSpec::None | EncodingSpec::Rle { .. } => Width::W8,
        // The header envelope, as `manipulate::narrow` reads it.
        EncodingSpec::Frame { frame, bits } => (bits < 64)
            .then(|| frame.checked_add(((1u64 << bits) - 1) as i64))
            .flatten()
            .map_or(Width::W8, |hi| Width::for_signed_range(frame, hi, true)),
        // A delta stream has no envelope in its header; the builder
        // records the load statistics' range, except a real's.
        EncodingSpec::Delta { .. } if dtype == DataType::Real => Width::W8,
        // Exact envelopes: affine and dictionary headers, and the load
        // statistics for delta streams.
        EncodingSpec::Affine { .. } | EncodingSpec::Dict { .. } | EncodingSpec::Delta { .. } => {
            Width::for_signed_range(stats.min, stats.max, true)
        }
    };
    stats_metadata(dtype, stats, width)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_ints(vals: &[i64], policy: EncodingPolicy) -> BuiltColumn {
        let mut b = ColumnBuilder::new("x", DataType::Integer, policy);
        b.append_raw(vals);
        b.finish()
    }

    /// Value sequences that walk the dynamic encoder through its
    /// mid-load re-encodings and end-of-load conversions: small and
    /// growing domains, sorted gaps, runs, NULLs, extremes, broken
    /// progressions.
    fn encoder_shapes(n: usize, seed: u64) -> Vec<Vec<i64>> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut rnd = move |m: i64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % m as u64) as i64
        };
        let mut at = 0i64;
        let mut shapes: Vec<Vec<i64>> = vec![
            (0..n).map(|_| rnd(100)).collect(),
            (0..n)
                .map(|i| if i < 1024 { rnd(8) } else { rnd(40_000) })
                .collect(),
            (0..n)
                .map(|i| if i < 1500 { rnd(16) } else { rnd(1 << 20) })
                .collect(),
            (0..n)
                .map(|_| {
                    at += rnd(5);
                    at
                })
                .collect(),
            (0..n)
                .map(|i| i as i64 / (1 + rnd(3) as usize * 200) as i64)
                .collect(),
            (0..n).map(|i| (i / 300) as i64).collect(),
            (0..n)
                .map(|_| if rnd(9) == 0 { NULL_I64 } else { rnd(50) })
                .collect(),
            (0..n)
                .map(|i| if i % 1000 == 999 { 7 } else { 3 * i as i64 })
                .collect(),
            (0..n).map(|_| 1_000_000_007 * rnd(12)).collect(),
            (0..n)
                .map(|_| [i64::MAX, i64::MIN + 1, 0, -1][rnd(4) as usize])
                .collect(),
            (0..n).map(|i| 42 - (i as i64 % 3) * 127).collect(),
            vec![-5; n],
        ];
        for s in &mut shapes {
            s.truncate(n);
        }
        shapes
    }

    /// `scalar_metadata` predicts, from the statistics alone, exactly the
    /// metadata `finish` derives — the width of the encoding the builder
    /// ends on included.
    #[test]
    fn scalar_metadata_matches_finish() {
        let mut checked = 0;
        let mut ended_on = std::collections::BTreeSet::new();
        for n in [0usize, 1, 2, 5, 1023, 1024, 1025, 2049, 5000] {
            for seed in 0..4u64 {
                for vals in encoder_shapes(n, seed) {
                    for dtype in [DataType::Integer, DataType::Date, DataType::Real] {
                        let mut b = ColumnBuilder::new("v", dtype, EncodingPolicy::default());
                        b.append_raw(&vals);
                        let built = b.finish().column;
                        let mut stats = ColumnStats::new();
                        stats.update(&vals);
                        assert_eq!(
                            scalar_metadata(dtype, &stats),
                            built.metadata,
                            "{dtype:?}, {n} values, seed {seed}, {} encoded: {:?}",
                            built.data.algorithm(),
                            &vals[..n.min(12)]
                        );
                        checked += 1;
                        ended_on.insert(built.data.algorithm().name());
                    }
                }
            }
        }
        assert_eq!(checked, 9 * 4 * 12 * 3);
        assert_eq!(ended_on.len(), Algorithm::ALL.len(), "{ended_on:?}");
    }

    #[test]
    fn integer_column_narrows() {
        let vals: Vec<i64> = (0..10_000).map(|i| i % 100).collect();
        let built = build_ints(&vals, EncodingPolicy::default());
        assert_eq!(built.column.metadata.width, Width::W1);
        assert_eq!(built.column.data.decode_all(), vals);
    }

    #[test]
    fn baseline_stays_wide_and_unencoded() {
        let vals: Vec<i64> = (0..5000).map(|i| i % 100).collect();
        let built = build_ints(&vals, EncodingPolicy::baseline());
        assert_eq!(built.column.data.algorithm(), Algorithm::None);
        assert_eq!(built.column.metadata.width, Width::W8);
        assert_eq!(built.column.metadata.detected_count(), 0);
    }

    #[test]
    fn string_column_dedupes_and_sorts_heap() {
        let mut b = ColumnBuilder::new("s", DataType::Str, EncodingPolicy::default());
        let words = ["delta", "alpha", "charlie", "bravo"];
        for i in 0..4000 {
            b.append_str(Some(words[i % 4]));
        }
        let built = b.finish();
        let col = &built.column;
        match &col.compression {
            Compression::Heap { heap, sorted } => {
                assert!(*sorted);
                assert!(heap.is_sorted(Collation::Binary));
                assert_eq!(heap.len(), 4);
            }
            other => panic!("expected heap compression, got {other:?}"),
        }
        // Values survive the heap rebuild.
        assert_eq!(col.value(0), Value::Str("delta".into()));
        assert_eq!(col.value(1), Value::Str("alpha".into()));
        // Sorted heap means token order is string order.
        let ta = col.data.get(1); // alpha
        let tb = col.data.get(3); // bravo
        let tc = col.data.get(2); // charlie
        let td = col.data.get(0); // delta
        assert!(ta < tb && tb < tc && tc < td);
    }

    #[test]
    fn string_null_detection_uses_token_sentinel() {
        let mut b = ColumnBuilder::new("s", DataType::Str, EncodingPolicy::default());
        b.append_str(Some("x"));
        b.append_str(None);
        assert!(b.finish().column.metadata.has_nulls.is_true());
        let mut b = ColumnBuilder::new("s", DataType::Str, EncodingPolicy::default());
        b.append_str(Some("x"));
        b.append_str(Some("y"));
        assert_eq!(b.finish().column.metadata.has_nulls, Knowledge::False);
    }

    #[test]
    fn heap_sort_invalidates_append_order_token_claims() {
        // Strings arrive in reverse lexical order: append-order tokens
        // ascend, but the §3.4.3 heap sort remaps them to descending
        // ranks. Order-dependent claims must not survive the remap — a
        // stale sorted_asc would let the tactical optimizer run ordered
        // aggregation over unsorted tokens.
        let mut b = ColumnBuilder::new("s", DataType::Str, EncodingPolicy::default());
        for w in ["ccc", "bbb", "aaa"] {
            for _ in 0..10 {
                b.append_str(Some(w));
            }
        }
        let col = b.finish().column;
        assert!(col.metadata.sorted_heap_tokens.is_true());
        let raws = col.data.decode_all();
        assert!(raws.windows(2).any(|w| w[1] < w[0]));
        assert!(!col.metadata.sorted_asc.is_true());
        let (min, max) = (col.metadata.min.unwrap(), col.metadata.max.unwrap());
        assert!(raws.iter().all(|&t| min <= t && t <= max));
    }

    #[test]
    fn string_nulls_are_token_zero() {
        let mut b = ColumnBuilder::new("s", DataType::Str, EncodingPolicy::default());
        b.append_str(Some("x"));
        b.append_str(None);
        let built = b.finish();
        assert_eq!(built.column.value(0), Value::Str("x".into()));
        assert_eq!(built.column.value(1), Value::Null);
    }

    #[test]
    fn unaccelerated_strings_duplicate() {
        let policy = EncodingPolicy {
            acceleration: false,
            ..EncodingPolicy::default()
        };
        let mut b = ColumnBuilder::new("s", DataType::Str, policy);
        for _ in 0..10 {
            b.append_str(Some("dup"));
        }
        let built = b.finish();
        let heap = built.column.heap().unwrap();
        assert_eq!(heap.len(), 10); // no dedup without the accelerator
    }

    #[test]
    fn real_column_roundtrip() {
        let mut b = ColumnBuilder::new("r", DataType::Real, EncodingPolicy::default());
        for v in [1.0, 2.5, -3.75, 1.0] {
            b.append_f64(v);
        }
        b.append_value(&Value::Null);
        let built = b.finish();
        assert_eq!(built.column.value(1), Value::Real(2.5));
        assert_eq!(built.column.value(4), Value::Null);
    }

    #[test]
    fn date_column_dense_metadata() {
        let vals: Vec<i64> = (8000..9000).collect(); // 1000 consecutive days
        let mut b = ColumnBuilder::new("d", DataType::Date, EncodingPolicy::default());
        b.append_raw(&vals);
        let built = b.finish();
        assert!(built.column.metadata.dense.is_true());
        assert!(built.column.metadata.sorted_asc.is_true());
        assert_eq!(built.column.data.algorithm(), Algorithm::Affine);
    }

    #[test]
    fn pending_buffer_flushes_across_blocks() {
        // Appends of odd sizes must still produce whole + final partial
        // blocks in order.
        let mut b = ColumnBuilder::new("x", DataType::Integer, EncodingPolicy::default());
        let vals: Vec<i64> = (0..2500).collect();
        for chunk in vals.chunks(7) {
            b.append_raw(chunk);
        }
        let built = b.finish();
        assert_eq!(built.column.data.decode_all(), vals);
    }

    #[test]
    fn value_append_roundtrip() {
        let mut b = ColumnBuilder::new("d", DataType::Date, EncodingPolicy::default());
        b.append_value(&Value::date(1995, 6, 1));
        b.append_value(&Value::Null);
        let built = b.finish();
        assert_eq!(built.column.value(0), Value::date(1995, 6, 1));
        assert_eq!(built.column.value(1), Value::Null);
        assert!(built.column.metadata.has_nulls.is_true());
    }
}
