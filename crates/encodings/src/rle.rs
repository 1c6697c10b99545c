//! Run-length encoding (paper §3.1.5).
//!
//! Unlike the bit-packed encodings, the data is a sequence of fixed-size
//! (count, value) pairs; the header records the widths of the two fields,
//! which are fixed for the entire stream. Runs longer than the count field
//! can represent simply split into several pairs.
//!
//! Sequential access is cheap but *backward seeks require a scan from the
//! start of the stream* (paper §4.3), which is why the strategic optimizer
//! keeps RLE off the inner side of hash joins, and why the IndexTable of
//! §4.2 — (value, count, start) triples extracted from these runs — exists.
//!
//! Every reader goes through [`RunPairs`]: the (count width, value width,
//! signed) triple selects one monomorphic pair reader per stream, once, so
//! each pair afterwards costs two fixed-size loads — consumers that touch
//! every run (the IndexTable, the range reader's prefix, run aggregation)
//! pay word speed per run.

use crate::header::{self, HeaderView};
use crate::{Algorithm, EncodingFull};
use tde_types::Width;

/// Offset of the count-field width byte.
pub const OFF_COUNT_WIDTH: usize = header::COMMON_LEN;

/// Offset of the value-field width byte.
pub const OFF_VALUE_WIDTH: usize = header::COMMON_LEN + 1;

/// Header length (count/value width bytes padded to 8).
const HEADER_LEN: usize = header::COMMON_LEN + 8;

/// Create an empty run-length stream buffer.
pub fn new_stream(
    width: Width,
    block_size: usize,
    signed: bool,
    count_width: Width,
    value_width: Width,
) -> Vec<u8> {
    let mut buf = header::make_common(Algorithm::RunLength, width, 0, block_size, signed, 8);
    buf[OFF_COUNT_WIDTH] = count_width.bytes() as u8;
    buf[OFF_VALUE_WIDTH] = value_width.bytes() as u8;
    debug_assert_eq!(buf.len(), HEADER_LEN);
    buf
}

/// The two field widths (count, value) from the header. Panics on a width
/// byte the engine never writes; files from disk are checked first by
/// [`validate`].
pub fn field_widths(buf: &[u8]) -> (Width, Width) {
    (
        Width::from_bytes(buf[OFF_COUNT_WIDTH] as usize).expect("corrupt RLE count width"),
        Width::from_bytes(buf[OFF_VALUE_WIDTH] as usize).expect("corrupt RLE value width"),
    )
}

/// Check a run-length stream read from untrusted input, so the readers
/// below can trust its layout: both field widths are 1, 2, 4 or 8 bytes,
/// the pairs start past the RLE header, the body is a whole number of
/// pairs and the counts sum to the logical size.
pub fn validate(buf: &[u8], h: &HeaderView) -> Result<(), &'static str> {
    if h.data_offset < HEADER_LEN {
        return Err("RLE data offset inside the RLE header");
    }
    let width = |at: usize| Width::from_bytes(buf[at] as usize);
    let (Some(cw), Some(vw)) = (width(OFF_COUNT_WIDTH), width(OFF_VALUE_WIDTH)) else {
        return Err("bad RLE field width");
    };
    if !(buf.len() - h.data_offset).is_multiple_of(cw.bytes() + vw.bytes()) {
        return Err("RLE body is not a whole number of pairs");
    }
    let total = RunPairs::new(buf, h)
        .iter_from(0)
        .try_fold(0u64, |sum, (_, c)| sum.checked_add(c));
    if total != Some(h.logical_size) {
        return Err("RLE run counts do not sum to the stream length");
    }
    Ok(())
}

/// Largest count representable in the count field.
#[inline]
fn max_count(cw: Width) -> u64 {
    if cw == Width::W8 {
        u64::MAX
    } else {
        (1u64 << cw.bits()) - 1
    }
}

/// Whether `v` fits in the value field.
#[inline]
pub(crate) fn value_fits(v: i64, vw: Width, signed: bool) -> bool {
    if vw == Width::W8 {
        return true;
    }
    if signed {
        let lo = -(1i64 << (vw.bits() - 1));
        let hi = (1i64 << (vw.bits() - 1)) - 1;
        v >= lo && v <= hi
    } else {
        v >= 0 && (v as u64) < (1u64 << vw.bits())
    }
}

/// Reads the (value, count) pair at the front of a byte slice.
type ReadPair = fn(&[u8]) -> (i64, u64);

#[inline(always)]
fn read_pair<const CW: usize, const VW: usize, const SIGNED: bool>(pair: &[u8]) -> (i64, u64) {
    (
        header::load::<VW, SIGNED>(&pair[CW..]),
        header::load::<CW, false>(pair) as u64,
    )
}

/// The pair reader for one (count width, value width, signed) triple.
fn pair_reader(cw: Width, vw: Width, signed: bool) -> ReadPair {
    fn for_count<const CW: usize>(vw: Width, signed: bool) -> ReadPair {
        match (vw, signed) {
            (Width::W1, false) => read_pair::<CW, 1, false>,
            (Width::W1, true) => read_pair::<CW, 1, true>,
            (Width::W2, false) => read_pair::<CW, 2, false>,
            (Width::W2, true) => read_pair::<CW, 2, true>,
            (Width::W4, false) => read_pair::<CW, 4, false>,
            (Width::W4, true) => read_pair::<CW, 4, true>,
            (Width::W8, false) => read_pair::<CW, 8, false>,
            (Width::W8, true) => read_pair::<CW, 8, true>,
        }
    }
    match cw {
        Width::W1 => for_count::<1>(vw, signed),
        Width::W2 => for_count::<2>(vw, signed),
        Width::W4 => for_count::<4>(vw, signed),
        Width::W8 => for_count::<8>(vw, signed),
    }
}

/// The run pairs of one stream, read through the pair reader its field
/// widths and signedness select — chosen once here, not per pair.
#[derive(Debug, Clone, Copy)]
pub struct RunPairs<'a> {
    /// The pair bytes (whole pairs only).
    body: &'a [u8],
    pair: usize,
    runs: usize,
    read: ReadPair,
}

impl<'a> RunPairs<'a> {
    /// The pairs of run-length stream `buf`.
    pub fn new(buf: &'a [u8], h: &HeaderView) -> RunPairs<'a> {
        let (cw, vw) = field_widths(buf);
        let pair = cw.bytes() + vw.bytes();
        let runs = (buf.len() - h.data_offset) / pair;
        RunPairs {
            body: &buf[h.data_offset..h.data_offset + runs * pair],
            pair,
            runs,
            read: pair_reader(cw, vw, h.signed),
        }
    }

    /// Number of stored runs.
    pub fn len(&self) -> usize {
        self.runs
    }

    /// Whether the stream stores no runs.
    pub fn is_empty(&self) -> bool {
        self.runs == 0
    }

    /// Run `r` as (value, count).
    #[inline]
    pub fn get(&self, r: usize) -> (i64, u64) {
        (self.read)(&self.body[r * self.pair..])
    }

    /// Iterate the runs from run index `first` (pairs are fixed size, so
    /// positioning is O(1)); `first` past the end yields nothing.
    pub fn iter_from(self, first: usize) -> RunIter<'a> {
        RunIter {
            rest: self.body.get(first * self.pair..).unwrap_or_default(),
            pair: self.pair,
            read: self.read,
        }
    }
}

/// Number of stored runs.
pub fn run_count(buf: &[u8], h: &HeaderView) -> usize {
    RunPairs::new(buf, h).len()
}

/// Read run `r` as (value, count). One-off access: a loop over runs
/// should hold one [`RunPairs`] instead.
pub fn run_at(buf: &[u8], h: &HeaderView, r: usize) -> (i64, u64) {
    RunPairs::new(buf, h).get(r)
}

/// Lazy iterator over the (value, count) run pairs.
///
/// One fixed-size pair is read per step, so iterate-only consumers (the
/// run-skipping predicate kernel, `manipulate`'s RLE decomposition, run
/// aggregation) stay O(1) in space.
#[derive(Debug, Clone)]
pub struct RunIter<'a> {
    /// The pairs not yet read.
    rest: &'a [u8],
    pair: usize,
    read: ReadPair,
}

/// Iterate all runs of the stream from the first.
pub fn run_iter<'a>(buf: &'a [u8], h: &HeaderView) -> RunIter<'a> {
    run_iter_from(buf, h, 0)
}

/// Iterate runs starting at run index `first` (pairs are fixed size, so
/// positioning is O(1)). `first` past the end yields an empty iterator.
pub fn run_iter_from<'a>(buf: &'a [u8], h: &HeaderView, first: usize) -> RunIter<'a> {
    RunPairs::new(buf, h).iter_from(first)
}

impl Iterator for RunIter<'_> {
    type Item = (i64, u64);

    #[inline]
    fn next(&mut self) -> Option<(i64, u64)> {
        if self.rest.is_empty() {
            return None;
        }
        let run = (self.read)(self.rest);
        self.rest = &self.rest[self.pair..];
        Some(run)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.rest.len() / self.pair;
        (left, Some(left))
    }
}

impl ExactSizeIterator for RunIter<'_> {}

/// Append one block. The last stored run is extended in place when the
/// first new values continue it; count-field overflow starts a new pair.
pub fn append_block(buf: &mut Vec<u8>, h: &HeaderView, vals: &[i64]) -> Result<(), EncodingFull> {
    let (cw, vw) = field_widths(buf);
    // Validate the whole block before mutating anything.
    for &v in vals {
        if !value_fits(v, vw, h.signed) {
            return Err(EncodingFull::ValueOutOfRange);
        }
    }
    let pair = cw.bytes() + vw.bytes();
    let cap = max_count(cw);
    let mut i = 0usize;
    // Try to extend the final stored run.
    if buf.len() > h.data_offset {
        let last_off = buf.len() - pair;
        let (last_value, last_count) = pair_reader(cw, vw, h.signed)(&buf[last_off..]);
        if vals[0] == last_value && last_count < cap {
            let mut n = 0u64;
            while i < vals.len() && vals[i] == last_value && last_count + n < cap {
                n += 1;
                i += 1;
            }
            header::put_fixed(buf, last_off, cw, (last_count + n) as i64);
        }
    }
    // Emit the remaining values as new runs.
    while i < vals.len() {
        let v = vals[i];
        let mut n = 0u64;
        while i < vals.len() && vals[i] == v && n < cap {
            n += 1;
            i += 1;
        }
        let off = buf.len();
        buf.resize(off + pair, 0);
        header::put_fixed(buf, off, cw, n as i64);
        header::put_fixed(buf, off + cw.bytes(), vw, v);
    }
    Ok(())
}

/// Append the run of `n` copies of `value` as new pairs, split where `n`
/// exceeds what the count field carries. The value must fit the value
/// field.
pub(crate) fn push_run(buf: &mut Vec<u8>, value: i64, n: u64) {
    let (cw, vw) = field_widths(buf);
    let mut left = n;
    while left > 0 {
        let take = left.min(max_count(cw));
        let off = buf.len();
        buf.resize(off + cw.bytes() + vw.bytes(), 0);
        header::put_fixed(buf, off, cw, take as i64);
        header::put_fixed(buf, off + cw.bytes(), vw, value);
        left -= take;
    }
}

/// Decode one block by scanning runs from the start of the stream
/// (stateless; the sequential [`Cursor`] avoids the rescan). Unlike the
/// bit-packed encodings there is no physical padding to strip: the run
/// stream yields exactly the logical values.
pub fn decode_block(buf: &[u8], h: &HeaderView, block_idx: usize, out: &mut Vec<i64>) {
    let mut cursor = Cursor::new();
    cursor.skip_to(buf, h, (block_idx * h.block_size) as u64);
    cursor.take(buf, h, h.block_size, out);
}

/// Random access: a forward scan over the runs (paper §4.3).
pub fn get(buf: &[u8], h: &HeaderView, idx: u64) -> i64 {
    let mut seen = 0u64;
    for (v, c) in run_iter(buf, h) {
        seen += c;
        if idx < seen {
            return v;
        }
    }
    panic!("RLE index {idx} out of range");
}

/// A sequential decode cursor that remembers its run position, making a
/// full-stream scan linear in runs instead of runs × blocks.
#[derive(Debug, Clone, Default)]
pub struct Cursor {
    run: usize,
    within: u64,
    pos: u64,
}

impl Cursor {
    /// A cursor at the start of the stream.
    pub fn new() -> Cursor {
        Cursor::default()
    }

    /// Current logical position.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Advance (forward only) to logical position `target`.
    pub fn skip_to(&mut self, buf: &[u8], h: &HeaderView, target: u64) {
        assert!(target >= self.pos, "RLE cursors cannot seek backwards");
        let runs = RunPairs::new(buf, h);
        let mut remaining = target - self.pos;
        while remaining > 0 && self.run < runs.len() {
            let (_, c) = runs.get(self.run);
            let left = c - self.within;
            if remaining < left {
                self.within += remaining;
                remaining = 0;
            } else {
                remaining -= left;
                self.run += 1;
                self.within = 0;
            }
        }
        self.pos = target;
    }

    /// Decode up to `n` values (fewer at end of stream), appending to `out`.
    pub fn take(&mut self, buf: &[u8], h: &HeaderView, n: usize, out: &mut Vec<i64>) -> usize {
        let runs = RunPairs::new(buf, h);
        let mut produced = 0usize;
        while produced < n && self.run < runs.len() {
            let (v, c) = runs.get(self.run);
            let avail = (c - self.within) as usize;
            let take = avail.min(n - produced);
            out.extend(std::iter::repeat_n(v, take));
            produced += take;
            if take == avail {
                self.run += 1;
                self.within = 0;
            } else {
                self.within += take as u64;
            }
        }
        self.pos += produced as u64;
        produced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EncodedStream, BLOCK_SIZE};
    use tde_types::sentinel::NULL_I64;

    fn build(data: &[i64]) -> EncodedStream {
        let mut s = EncodedStream::new_rle(Width::W8, true, Width::W4, Width::W2);
        for c in data.chunks(BLOCK_SIZE) {
            s.append_block(c).unwrap();
        }
        s
    }

    /// The pair reader this module used before [`RunPairs`]: both fields
    /// through the variable-width [`header::get_fixed`], widths re-parsed
    /// per pair. Kept as the differential oracle for the fixed readers.
    fn reference_runs(buf: &[u8], h: &HeaderView) -> Vec<(i64, u64)> {
        let (cw, vw) = field_widths(buf);
        let pair = cw.bytes() + vw.bytes();
        let mut out = Vec::new();
        let mut off = h.data_offset;
        while off + pair <= buf.len() {
            let count = header::get_fixed(buf, off, cw, false) as u64;
            let value = header::get_fixed(buf, off + cw.bytes(), vw, h.signed);
            out.push((value, count));
            off += pair;
        }
        out
    }

    /// A deterministic byte generator (xorshift) for arbitrary pair bodies.
    fn noise(seed: u64, n: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// Every (count width, value width, signed) reader against the
    /// reference over arbitrary pair bytes: every bit pattern of both
    /// fields, sign bits included, and a ragged tail that is not a pair.
    #[test]
    fn pair_readers_match_the_reference_reader() {
        for cw in Width::ALL {
            for vw in Width::ALL {
                for signed in [false, true] {
                    let mut buf = new_stream(Width::W8, BLOCK_SIZE, signed, cw, vw);
                    let pair = cw.bytes() + vw.bytes();
                    let seed = (cw.bytes() * 16 + vw.bytes()) as u64 * 2 + u64::from(signed);
                    buf.extend(noise(seed, 97 * pair + pair / 2));
                    let h = HeaderView::parse(&buf);
                    let expect = reference_runs(&buf, &h);
                    assert_eq!(expect.len(), 97);
                    let what = format!("cw {cw} vw {vw} signed {signed}");
                    assert_eq!(run_iter(&buf, &h).collect::<Vec<_>>(), expect, "{what}");
                    let runs = RunPairs::new(&buf, &h);
                    assert_eq!(runs.len(), 97, "{what}");
                    for (r, &run) in expect.iter().enumerate() {
                        assert_eq!(runs.get(r), run, "{what} run {r}");
                        assert_eq!(run_at(&buf, &h, r), run, "{what} run {r}");
                    }
                    assert_eq!(
                        run_iter_from(&buf, &h, 40).collect::<Vec<_>>(),
                        expect[40..],
                        "{what}"
                    );
                }
            }
        }
    }

    /// Streams written by `append_block` at every width pair: the value
    /// field's extremes (the width's NULL sentinel among them), runs that
    /// overflow narrow count fields and split, decoded through the cursor
    /// and the iterator exactly as the reference reads them.
    #[test]
    fn written_streams_read_back_at_every_width_pair() {
        for cw in Width::ALL {
            for vw in Width::ALL {
                for signed in [false, true] {
                    let bits = vw.bits();
                    let (lo, hi) = match (signed, vw) {
                        (true, Width::W8) => (NULL_I64, i64::MAX),
                        (true, _) => (-(1i64 << (bits - 1)), (1i64 << (bits - 1)) - 1),
                        (false, Width::W8) => (0, -1), // u64::MAX as stored
                        (false, _) => (0, (1i64 << bits) - 1),
                    };
                    let mut data = Vec::new();
                    for (k, v) in [lo, hi, 1, lo, 0, hi].into_iter().enumerate() {
                        // 300 overflows a one-byte count field.
                        data.extend(std::iter::repeat_n(v, [300, 1, 7, 2, 1, 40][k]));
                    }
                    let mut s = EncodedStream::new_rle(Width::W8, signed, cw, vw);
                    for c in data.chunks(BLOCK_SIZE) {
                        s.append_block(c).unwrap();
                    }
                    let h = s.header();
                    let what = format!("cw {cw} vw {vw} signed {signed}");
                    let expect = reference_runs(s.as_bytes(), &h);
                    if cw == Width::W1 {
                        assert!(expect.iter().any(|&(v, c)| v == lo && c == 255), "{what}");
                    }
                    assert_eq!(run_iter(s.as_bytes(), &h).collect::<Vec<_>>(), expect);
                    assert_eq!(s.decode_all(), data, "{what}");
                    let mut cursor = Cursor::new();
                    cursor.skip_to(s.as_bytes(), &h, 250);
                    let mut out = Vec::new();
                    cursor.take(s.as_bytes(), &h, 60, &mut out);
                    assert_eq!(out, data[250..310], "{what}");
                    assert_eq!(validate(s.as_bytes(), &h), Ok(()), "{what}");
                }
            }
        }
    }

    #[test]
    fn validate_rejects_malformed_streams() {
        let s = build(&[5, 5, 5, 9, 9]);
        let ok = s.as_bytes().to_vec();
        let check = |bytes: &[u8]| validate(bytes, &HeaderView::parse(bytes));
        assert_eq!(check(&ok), Ok(()));
        for (at, byte) in [
            (OFF_COUNT_WIDTH, 3u8),
            (OFF_VALUE_WIDTH, 0),
            (OFF_VALUE_WIDTH, 16),
        ] {
            let mut bad = ok.clone();
            bad[at] = byte;
            assert_eq!(
                check(&bad),
                Err("bad RLE field width"),
                "byte {at} = {byte}"
            );
        }
        let mut bad = ok.clone();
        header::put_u64(&mut bad, header::OFF_DATA_OFFSET, header::COMMON_LEN as u64);
        assert!(check(&bad).is_err(), "data offset inside the RLE header");
        let mut bad = ok.clone();
        bad.pop();
        assert!(check(&bad).is_err(), "ragged last pair");
        let mut bad = ok.clone();
        header::put_u64(&mut bad, header::OFF_LOGICAL_SIZE, 6);
        assert!(check(&bad).is_err(), "counts short of the length");
        let mut bad = ok;
        let last = bad.len() - 6;
        header::put_fixed(&mut bad, last, Width::W4, u32::MAX as i64);
        assert!(check(&bad).is_err(), "counts past the length");
    }

    #[test]
    fn cursor_matches_decode_all() {
        let mut data = Vec::new();
        for v in 0..60i64 {
            data.extend(std::iter::repeat_n(v * 3, 37 + (v as usize % 11)));
        }
        let s = build(&data);
        let h = s.header();
        let mut cursor = Cursor::new();
        let mut out = Vec::new();
        while cursor.take(s.as_bytes(), &h, 100, &mut out) > 0 {}
        assert_eq!(out, data);
    }

    #[test]
    fn cursor_skip_and_take() {
        let mut data = Vec::new();
        for v in 0..50i64 {
            data.extend(std::iter::repeat_n(v, 20));
        }
        let s = build(&data);
        let h = s.header();
        let mut cursor = Cursor::new();
        cursor.skip_to(s.as_bytes(), &h, 333);
        let mut out = Vec::new();
        cursor.take(s.as_bytes(), &h, 10, &mut out);
        assert_eq!(out, data[333..343].to_vec());
    }

    #[test]
    fn unsigned_values() {
        let mut s = EncodedStream::new_rle(Width::W8, false, Width::W2, Width::W1);
        s.append_block(&[200, 200, 255]).unwrap();
        assert_eq!(s.decode_all(), vec![200, 200, 255]);
        assert_eq!(s.rle_runs().unwrap(), vec![(200, 2), (255, 1)]);
    }

    #[test]
    fn atomic_failure_on_bad_value() {
        let mut s = EncodedStream::new_rle(Width::W8, true, Width::W2, Width::W1);
        s.append_block(&[1, 1]).unwrap();
        let snap = s.as_bytes().to_vec();
        assert_eq!(
            s.append_block(&[1, 1000]),
            Err(EncodingFull::ValueOutOfRange)
        );
        assert_eq!(s.as_bytes(), &snap[..]);
    }

    #[test]
    fn run_iter_matches_runs_and_resumes_mid_stream() {
        let mut data = Vec::new();
        for v in 0..40i64 {
            data.extend(std::iter::repeat_n(v - 20, 13 + (v as usize % 5)));
        }
        let s = build(&data);
        let h = s.header();
        let eager = (0..run_count(s.as_bytes(), &h))
            .map(|r| run_at(s.as_bytes(), &h, r))
            .collect::<Vec<_>>();
        assert_eq!(run_iter(s.as_bytes(), &h).collect::<Vec<_>>(), eager);
        assert_eq!(run_iter(s.as_bytes(), &h).len(), eager.len());
        assert_eq!(
            run_iter_from(s.as_bytes(), &h, 7).collect::<Vec<_>>(),
            eager[7..].to_vec()
        );
        assert_eq!(
            run_iter_from(s.as_bytes(), &h, eager.len()).next(),
            None,
            "positioning past the end yields nothing"
        );
        assert_eq!(run_iter_from(s.as_bytes(), &h, eager.len() + 3).len(), 0);
    }

    #[test]
    fn alternating_values_worst_case() {
        let data: Vec<i64> = (0..500).map(|i| i % 2).collect();
        let s = build(&data);
        assert_eq!(s.decode_all(), data);
        assert_eq!(s.rle_runs().unwrap().len(), 500);
    }
}
