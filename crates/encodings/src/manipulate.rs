//! Encoding manipulations (paper §3.4).
//!
//! Once a column is encoded, a handful of fast header edits change the
//! semantics of the entire column independent of its row count:
//!
//! * **Type narrowing** (§3.4.1): frame-of-reference, dictionary and affine
//!   headers bound the value envelope, so the width field can be reduced in
//!   O(1) (FoR, affine) or O(2^bits) (dictionary — the entries are
//!   rewritten in place; the offset to the bit-packed data is stored in the
//!   header, so the packing itself never moves).
//! * **Run-length decomposition** (§3.4.1): an RLE column splits into a
//!   value stream and a count stream; the value stream can be narrowed or
//!   dictionary-compressed and a new RLE stream rebuilt with the original
//!   counts — all in time proportional to the number of *runs*.
//! * **Dictionary remapping** (§3.4.3): replacing the entry table (e.g.
//!   with tokens into a freshly sorted heap) takes O(2^bits) and leaves the
//!   packed indexes untouched, optimizing a string column in time
//!   proportional to its domain, never its rows.

use crate::header;
use crate::{affine, dict, frame, rle, Algorithm, EncodedStream};
use tde_types::Width;

/// The value envelope `[lo, hi]` that the *header alone* guarantees, when
/// the encoding provides one. For frame-of-reference the envelope can be
/// wider than the actual data (paper §3.4.3); for affine and dictionary it
/// is exact.
pub fn header_envelope(stream: &EncodedStream) -> Option<(i64, i64)> {
    let h = stream.header();
    let buf = stream.as_bytes();
    match h.algorithm {
        Algorithm::FrameOfReference => {
            let lo = frame::frame_value(buf);
            let span = if h.bits >= 64 {
                return None; // envelope covers (almost) everything
            } else {
                // In u64: at 63 bits `1i64 << bits` is already negative.
                ((1u64 << h.bits) - 1) as i64
            };
            Some((lo, lo.checked_add(span)?))
        }
        Algorithm::Affine => {
            if h.logical_size == 0 {
                return None;
            }
            let b = affine::base(buf);
            let last = b.checked_add(affine::delta(buf).checked_mul(h.logical_size as i64 - 1)?)?;
            Some((b.min(last), b.max(last)))
        }
        Algorithm::Dictionary => {
            let n = dict::entry_count(buf);
            if n == 0 {
                return None;
            }
            let mut lo = i64::MAX;
            let mut hi = i64::MIN;
            for i in 0..n {
                let e = dict::entry(buf, &h, i);
                lo = lo.min(e);
                hi = hi.max(e);
            }
            Some((lo, hi))
        }
        // Delta embeds running totals in each block and run-length holds
        // values inside each pair — no cheap envelope (paper §3.4.1).
        Algorithm::Delta | Algorithm::RunLength | Algorithm::None => None,
    }
}

/// The narrowest width that can represent the stream's header envelope,
/// reserving the NULL sentinel slot for signed streams. Returns the current
/// width when the encoding exposes no envelope.
pub fn narrowable_width(stream: &EncodedStream) -> Width {
    let h = stream.header();
    match header_envelope(stream) {
        None => h.width,
        Some((lo, hi)) => {
            let w = if h.signed {
                Width::for_signed_range(lo, hi, true)
            } else {
                Width::for_unsigned_max(hi.max(0) as u64)
            };
            w.min(h.width)
        }
    }
}

/// Narrow the stream's element width in place (paper §3.4.1). Returns the
/// new width. O(1) for frame-of-reference and affine; O(2^bits) for
/// dictionary (entries are rewritten; the data offset does not change, so
/// the bit-packed body is untouched). A no-op for other encodings.
pub fn narrow(stream: &mut EncodedStream) -> Width {
    let h = stream.header();
    let target = narrowable_width(stream);
    if target >= h.width {
        return h.width;
    }
    if h.algorithm == Algorithm::Dictionary {
        // Rewrite the entries at the narrower width, front to back (safe:
        // new slots never overlap not-yet-read old slots because the new
        // width is strictly smaller).
        let n = dict::entry_count(stream.as_bytes());
        let entries: Vec<i64> = (0..n)
            .map(|i| dict::entry(stream.as_bytes(), &h, i))
            .collect();
        stream.buf[header::OFF_WIDTH] = target.bytes() as u8;
        let nh = stream.header();
        for (i, &e) in entries.iter().enumerate() {
            dict::set_entry(&mut stream.buf, &nh, i, e);
        }
    } else {
        stream.buf[header::OFF_WIDTH] = target.bytes() as u8;
    }
    target
}

/// Force a stream's width field (used after an external proof that values
/// fit, e.g. stats-driven narrowing of a metadata-only width).
pub fn set_width(stream: &mut EncodedStream, width: Width) {
    let h = stream.header();
    assert!(
        matches!(
            h.algorithm,
            Algorithm::FrameOfReference | Algorithm::Affine | Algorithm::Delta
        ),
        "width is structural for {} streams",
        h.algorithm
    );
    stream.buf[header::OFF_WIDTH] = width.bytes() as u8;
}

/// Replace the entry table of a dictionary-encoded stream (paper §3.4.3):
/// entry `i` becomes `new_entries[i]`. The packed indexes — and therefore
/// every row of the column — are untouched; cost is O(2^bits).
pub fn remap_dict_entries(stream: &mut EncodedStream, new_entries: &[i64]) {
    let h = stream.header();
    assert_eq!(
        h.algorithm,
        Algorithm::Dictionary,
        "remap on non-dictionary stream"
    );
    assert_eq!(
        new_entries.len(),
        dict::entry_count(stream.as_bytes()),
        "entry count mismatch"
    );
    for (i, &e) in new_entries.iter().enumerate() {
        dict::set_entry(&mut stream.buf, &h, i, e);
    }
    stream.dict_index = None; // transient lookup no longer matches
}

/// Decompose a run-length stream into its value and count streams
/// (paper §3.4.1). Cost is proportional to the number of runs.
pub fn rle_decompose(stream: &EncodedStream) -> (Vec<i64>, Vec<u64>) {
    let runs = stream
        .rle_run_iter()
        .expect("rle_decompose on non-RLE stream");
    let mut values = Vec::with_capacity(runs.len());
    let mut counts = Vec::with_capacity(runs.len());
    for (v, c) in runs {
        values.push(v);
        counts.push(c);
    }
    (values, counts)
}

/// Rebuild a run-length stream from (possibly transformed) values and the
/// original counts, choosing minimal field widths. Cost is proportional to
/// the number of runs, not rows.
pub fn rle_rebuild(values: &[i64], counts: &[u64], signed: bool) -> EncodedStream {
    assert_eq!(values.len(), counts.len());
    let (mut lo, mut hi) = (0i64, 0i64);
    let mut max_count = 1u64;
    for (&v, &c) in values.iter().zip(counts) {
        lo = lo.min(v);
        hi = hi.max(v);
        max_count = max_count.max(c);
    }
    let vw = if signed {
        Width::for_signed_range(lo, hi, false)
    } else {
        Width::for_unsigned_max(hi.max(0) as u64)
    };
    let cw = Width::for_unsigned_max(max_count);
    let elem = vw; // narrow the element width along with the value field
    let mut buf = rle::new_stream(elem, crate::BLOCK_SIZE, signed, cw, vw);
    let mut logical = 0u64;
    for (&v, &c) in values.iter().zip(counts) {
        rle::push_run(&mut buf, v, c);
        logical += c;
    }
    header::put_u64(&mut buf, header::OFF_LOGICAL_SIZE, logical);
    EncodedStream::from_buf(buf)
}

/// Whether the header proves the stream is sorted ascending: a delta
/// stream with a non-negative minimum delta, or an affine stream with a
/// non-negative delta (paper §3.4.2).
pub fn header_proves_sorted(stream: &EncodedStream) -> bool {
    let h = stream.header();
    let buf = stream.as_bytes();
    match h.algorithm {
        Algorithm::Delta => crate::delta::min_delta(buf) >= 0,
        Algorithm::Affine => affine::delta(buf) >= 0,
        _ => false,
    }
}

/// Whether the header proves the stream is dense and unique — an affine
/// stream with delta exactly 1 (paper §3.4.2, the fetch-join enabler).
pub fn header_proves_dense_unique(stream: &EncodedStream) -> bool {
    let h = stream.header();
    h.algorithm == Algorithm::Affine && affine::delta(stream.as_bytes()) == 1
}

/// Check whether `HeaderView` widths changed without touching the packed
/// body: returns the byte range of the packed data for integrity tests.
pub fn packed_body(stream: &EncodedStream) -> &[u8] {
    let h = stream.header();
    &stream.as_bytes()[h.data_offset..]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::encode_all;
    use crate::BLOCK_SIZE;

    #[test]
    fn narrow_frame_is_o1_and_preserves_body() {
        // A large column whose values fit in 2 bytes once the frame is
        // accounted for.
        let vals: Vec<i64> = (0..200_000).map(|i| 1_000_000 + (i % 1000)).collect();
        let mut s = EncodedStream::new_frame(Width::W8, true, 1_000_000, 10);
        for c in vals.chunks(BLOCK_SIZE) {
            s.append_block(c).unwrap();
        }
        let body_before = packed_body(&s).to_vec();
        let w = narrow(&mut s);
        // Envelope is [1_000_000, 1_001_023]: needs 4 bytes signed.
        assert_eq!(w, Width::W4);
        assert_eq!(packed_body(&s), &body_before[..]);
        assert_eq!(s.decode_all(), vals);
    }

    #[test]
    fn narrow_frame_to_one_byte() {
        let vals: Vec<i64> = (0..5000).map(|i| 50 + (i % 20)).collect();
        let mut s = EncodedStream::new_frame(Width::W8, true, 50, 5);
        for c in vals.chunks(BLOCK_SIZE) {
            s.append_block(c).unwrap();
        }
        assert_eq!(narrow(&mut s), Width::W1);
        assert_eq!(s.width(), Width::W1);
        assert_eq!(s.decode_all(), vals);
    }

    #[test]
    fn narrow_respects_sentinel_reservation() {
        // Envelope [-128, 0]: -128 is the W1 NULL sentinel, so the column
        // must stay at W2.
        let mut s = EncodedStream::new_frame(Width::W8, true, -128, 8);
        s.append_block(&[-128, 0]).unwrap();
        assert_eq!(narrow(&mut s), Width::W2);
    }

    #[test]
    fn narrow_affine() {
        let vals: Vec<i64> = (0..100).collect();
        let mut s = EncodedStream::new_affine(Width::W8, true, 0, 1);
        s.append_block(&vals).unwrap();
        assert_eq!(narrow(&mut s), Width::W1);
        assert_eq!(s.decode_all(), vals);
    }

    #[test]
    fn narrow_dict_rewrites_entries_only() {
        let vals: Vec<i64> = (0..3000).map(|i| (i % 7) * 10).collect();
        let mut s = EncodedStream::new_dict(Width::W8, true, 3);
        for c in vals.chunks(BLOCK_SIZE) {
            s.append_block(c).unwrap();
        }
        let body_before = packed_body(&s).to_vec();
        assert_eq!(narrow(&mut s), Width::W1);
        assert_eq!(packed_body(&s), &body_before[..]);
        assert_eq!(s.decode_all(), vals);
        assert_eq!(s.dict_entries().unwrap(), vec![0, 10, 20, 30, 40, 50, 60]);
    }

    #[test]
    fn narrow_is_noop_for_delta_and_rle() {
        let vals: Vec<i64> = (0..100).map(|i| i * 3).collect();
        let r = encode_all(&vals, Width::W8, true);
        if r.stream.algorithm() == Algorithm::Delta {
            let mut s = r.stream;
            assert_eq!(narrow(&mut s), Width::W8);
        }
        let mut s = EncodedStream::new_rle(Width::W8, true, Width::W2, Width::W1);
        s.append_block(&[1, 1, 1, 2]).unwrap();
        assert_eq!(narrow(&mut s), Width::W8);
    }

    #[test]
    fn envelope_for_can_exceed_actual_values() {
        // FoR envelope is the representable range, not the observed one.
        let mut s = EncodedStream::new_frame(Width::W8, true, 0, 8);
        s.append_block(&[5]).unwrap();
        assert_eq!(header_envelope(&s), Some((0, 255)));
    }

    #[test]
    fn dict_remap_changes_values_without_touching_rows() {
        let mut s = EncodedStream::new_dict(Width::W8, true, 3);
        s.append_block(&[30, 10, 20, 10]).unwrap();
        let body_before = packed_body(&s).to_vec();
        // Entries are [30, 10, 20]; remap them to sorted ranks [2, 0, 1].
        remap_dict_entries(&mut s, &[2, 0, 1]);
        assert_eq!(packed_body(&s), &body_before[..]);
        assert_eq!(s.decode_all(), vec![2, 0, 1, 0]);
    }

    #[test]
    fn rle_decompose_and_rebuild_roundtrip() {
        let mut data = Vec::new();
        for v in [100i64, 500, 100, 900] {
            data.extend(std::iter::repeat_n(v, 700));
        }
        let mut s = EncodedStream::new_rle(Width::W8, true, Width::W4, Width::W2);
        for c in data.chunks(BLOCK_SIZE) {
            s.append_block(c).unwrap();
        }
        let (values, counts) = rle_decompose(&s);
        assert_eq!(values, vec![100, 500, 100, 900]);
        assert_eq!(counts, vec![700, 700, 700, 700]);
        // Narrow the value stream (e.g. divide by 100) and rebuild.
        let narrowed: Vec<i64> = values.iter().map(|v| v / 100).collect();
        let rebuilt = rle_rebuild(&narrowed, &counts, true);
        assert_eq!(rebuilt.len(), 2800);
        assert_eq!(rebuilt.width(), Width::W1);
        let expected: Vec<i64> = data.iter().map(|v| v / 100).collect();
        assert_eq!(rebuilt.decode_all(), expected);
    }

    #[test]
    fn rle_rebuild_splits_long_runs() {
        let rebuilt = rle_rebuild(&[7], &[100_000], true);
        assert_eq!(rebuilt.len(), 100_000);
        let runs = rebuilt.rle_runs().unwrap();
        assert!(!runs.is_empty());
        assert_eq!(runs.iter().map(|r| r.1).sum::<u64>(), 100_000);
    }

    #[test]
    fn sortedness_proofs() {
        let sorted: Vec<i64> = (0..5000).map(|i| i * 2 + (i % 3)).collect();
        let r = encode_all(&sorted, Width::W8, true);
        if matches!(r.stream.algorithm(), Algorithm::Delta | Algorithm::Affine) {
            assert!(header_proves_sorted(&r.stream));
        }
        let ids: Vec<i64> = (1..=4000).collect();
        let r = encode_all(&ids, Width::W8, true);
        assert_eq!(r.stream.algorithm(), Algorithm::Affine);
        assert!(header_proves_dense_unique(&r.stream));
        assert!(header_proves_sorted(&r.stream));
    }
}
