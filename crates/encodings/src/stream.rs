//! [`EncodedStream`]: a self-describing encoded column stream.
//!
//! Externally an encoding appears as a paged array of fixed-width values;
//! internally it is stored in a more compressed format (paper §2.3.2). The
//! stream is a single byte buffer — header plus complete decompression
//! blocks — so the single-file database writer can emit it verbatim, and
//! the header manipulations of §3.4 are literal byte edits on `buf`.
//!
//! Appends happen one block at a time (paper §3.2). A partial final block
//! is padded to a complete physical block (the logical-size header field
//! records the true length) and seals the stream.

use crate::cuckoo::CuckooMap;
use crate::header::{self, HeaderView};
use crate::{affine, delta, dict, frame, raw, rle};
use crate::{Algorithm, EncodingFull, BLOCK_SIZE};
use tde_types::Width;

/// An encoded column stream: header + packed blocks in one buffer.
#[derive(Debug, Clone)]
pub struct EncodedStream {
    pub(crate) buf: Vec<u8>,
    /// Rebuilt-on-demand builder state for dictionary appends.
    pub(crate) dict_index: Option<CuckooMap>,
    pub(crate) sealed: bool,
}

impl EncodedStream {
    /// Create an empty unencoded (raw) stream.
    pub fn new_raw(width: Width, signed: bool) -> EncodedStream {
        EncodedStream::from_buf(raw::new_stream(width, BLOCK_SIZE, signed))
    }

    /// Create an empty frame-of-reference stream. Values must satisfy
    /// `0 <= v - frame < 2^bits`.
    pub fn new_frame(width: Width, signed: bool, frame_value: i64, bits: u8) -> EncodedStream {
        EncodedStream::from_buf(frame::new_stream(
            width,
            BLOCK_SIZE,
            signed,
            frame_value,
            bits,
        ))
    }

    /// Create an empty delta stream. Successive deltas must satisfy
    /// `0 <= d - min_delta < 2^bits`.
    pub fn new_delta(width: Width, signed: bool, min_delta: i64, bits: u8) -> EncodedStream {
        EncodedStream::from_buf(delta::new_stream(
            width, BLOCK_SIZE, signed, min_delta, bits,
        ))
    }

    /// Create an empty dictionary stream with room for `2^bits` entries.
    pub fn new_dict(width: Width, signed: bool, bits: u8) -> EncodedStream {
        EncodedStream::from_buf(dict::new_stream(width, BLOCK_SIZE, signed, bits))
    }

    /// Create an empty affine stream: row `r` holds `base + r * delta`.
    pub fn new_affine(width: Width, signed: bool, base: i64, delta: i64) -> EncodedStream {
        EncodedStream::from_buf(affine::new_stream(width, BLOCK_SIZE, signed, base, delta))
    }

    /// Create an empty run-length stream with the given field widths.
    pub fn new_rle(
        width: Width,
        signed: bool,
        count_width: Width,
        value_width: Width,
    ) -> EncodedStream {
        EncodedStream::from_buf(rle::new_stream(
            width,
            BLOCK_SIZE,
            signed,
            count_width,
            value_width,
        ))
    }

    /// Wrap an existing buffer (e.g. read from a database file).
    pub fn from_buf(buf: Vec<u8>) -> EncodedStream {
        let h = HeaderView::parse(&buf);
        let pads_blocks = !matches!(h.algorithm, Algorithm::Affine | Algorithm::RunLength);
        let sealed = pads_blocks && !h.logical_size.is_multiple_of(h.block_size as u64);
        EncodedStream {
            buf,
            dict_index: None,
            sealed,
        }
    }

    /// The raw buffer, e.g. for writing to a database file.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Parsed header.
    pub fn header(&self) -> HeaderView {
        HeaderView::parse(&self.buf)
    }

    /// Number of logical values.
    pub fn len(&self) -> u64 {
        header::get_u64(&self.buf, header::OFF_LOGICAL_SIZE)
    }

    /// Whether the stream holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Physical size in bytes (header + packed blocks) — the number this
    /// stream contributes to the single database file (paper §2.3.3).
    pub fn physical_size(&self) -> usize {
        self.buf.len()
    }

    /// Logical (un-encoded) size in bytes: values × element width.
    pub fn logical_size(&self) -> u64 {
        self.len() * self.header().width.bytes() as u64
    }

    /// The encoding algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.header().algorithm
    }

    /// The element width.
    pub fn width(&self) -> Width {
        self.header().width
    }

    /// Number of decompression blocks currently stored.
    pub fn block_count(&self) -> usize {
        let h = self.header();
        (h.logical_size as usize).div_ceil(h.block_size)
    }

    /// Append one block of logical values. `vals.len()` must not exceed the
    /// block size; a short block seals the stream. On failure the stream is
    /// unchanged and the dynamic encoder may re-encode (paper §3.2).
    pub fn append_block(&mut self, vals: &[i64]) -> Result<(), EncodingFull> {
        if self.sealed {
            return Err(EncodingFull::Sealed);
        }
        let h = self.header();
        assert!(
            vals.len() <= h.block_size,
            "append_block got {} values for block size {}",
            vals.len(),
            h.block_size
        );
        if vals.is_empty() {
            return Ok(());
        }
        match h.algorithm {
            Algorithm::None => raw::append_block(&mut self.buf, &h, vals),
            Algorithm::FrameOfReference => frame::append_block(&mut self.buf, &h, vals)?,
            Algorithm::Delta => delta::append_block(&mut self.buf, &h, vals)?,
            Algorithm::Dictionary => {
                if self.dict_index.is_none() {
                    self.dict_index = Some(dict::rebuild_index(&self.buf, &h));
                }
                dict::append_block(&mut self.buf, &h, vals, self.dict_index.as_mut().unwrap())?
            }
            Algorithm::Affine => affine::append_block(&mut self.buf, &h, vals)?,
            Algorithm::RunLength => rle::append_block(&mut self.buf, &h, vals)?,
        }
        let new_len = h.logical_size + vals.len() as u64;
        header::put_u64(&mut self.buf, header::OFF_LOGICAL_SIZE, new_len);
        // Encodings with physical block padding cannot grow past a partial
        // block; affine (no packed data) and run-length (run pairs, not
        // blocks) keep accepting appends.
        let pads_blocks = !matches!(h.algorithm, Algorithm::Affine | Algorithm::RunLength);
        if vals.len() < h.block_size && pads_blocks {
            self.sealed = true;
        }
        Ok(())
    }

    /// Decode block `block_idx`, appending its logical values to `out`
    /// (the final block yields fewer than `block_size` values if the
    /// stream length is not a block multiple).
    pub fn decode_block(&self, block_idx: usize, out: &mut Vec<i64>) {
        let h = self.header();
        let start = block_idx * h.block_size;
        assert!(
            (start as u64) < h.logical_size,
            "block {block_idx} out of range"
        );
        let take = (h.logical_size as usize - start).min(h.block_size);
        let before = out.len();
        match h.algorithm {
            Algorithm::None => raw::decode_block(&self.buf, &h, block_idx, out),
            Algorithm::FrameOfReference => frame::decode_block(&self.buf, &h, block_idx, out),
            Algorithm::Delta => delta::decode_block(&self.buf, &h, block_idx, out),
            Algorithm::Dictionary => dict::decode_block(&self.buf, &h, block_idx, out),
            Algorithm::Affine => affine::decode_block(&self.buf, &h, block_idx, out),
            Algorithm::RunLength => rle::decode_block(&self.buf, &h, block_idx, out),
        }
        out.truncate(before + take);
    }

    /// Random access to one value. Cheap for every encoding except
    /// run-length, which scans its runs (paper §4.3).
    pub fn get(&self, idx: u64) -> i64 {
        let h = self.header();
        assert!(idx < h.logical_size, "index {idx} out of range");
        match h.algorithm {
            Algorithm::None => raw::get(&self.buf, &h, idx),
            Algorithm::FrameOfReference => frame::get(&self.buf, &h, idx),
            Algorithm::Delta => delta::get(&self.buf, &h, idx),
            Algorithm::Dictionary => dict::get(&self.buf, &h, idx),
            Algorithm::Affine => affine::get(&self.buf, &h, idx),
            Algorithm::RunLength => rle::get(&self.buf, &h, idx),
        }
    }

    /// Decode every logical value.
    pub fn decode_all(&self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.len() as usize);
        for b in 0..self.block_count() {
            self.decode_block(b, &mut out);
        }
        out
    }

    /// The dictionary entries of a dictionary-encoded stream, in insertion
    /// order (which the sorted-heap manipulation permutes in place).
    pub fn dict_entries(&self) -> Option<Vec<i64>> {
        let h = self.header();
        if h.algorithm != Algorithm::Dictionary {
            return None;
        }
        Some(dict::entries(&self.buf, &h))
    }

    /// The (value, count) runs of a run-length stream, collected.
    pub fn rle_runs(&self) -> Option<Vec<(i64, u64)>> {
        self.rle_run_iter().map(Iterator::collect)
    }

    /// Lazily iterate the (value, count) runs of a run-length stream —
    /// the raw material of an IndexTable (paper §4.2.1).
    pub fn rle_run_iter(&self) -> Option<rle::RunIter<'_>> {
        let h = self.header();
        if h.algorithm != Algorithm::RunLength {
            return None;
        }
        Some(rle::run_iter(&self.buf, &h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tde_types::Width;

    fn check_roundtrip(mut s: EncodedStream, data: &[i64]) {
        for chunk in data.chunks(BLOCK_SIZE) {
            s.append_block(chunk).unwrap();
        }
        assert_eq!(s.len(), data.len() as u64);
        assert_eq!(s.decode_all(), data);
        // Spot-check random access.
        let step = (data.len() / 7).max(1);
        for i in (0..data.len()).step_by(step) {
            assert_eq!(s.get(i as u64), data[i], "idx {i}");
        }
        if !data.is_empty() {
            assert_eq!(s.get(data.len() as u64 - 1), *data.last().unwrap());
        }
    }

    #[test]
    fn raw_roundtrip() {
        let data: Vec<i64> = (0..3000).map(|i| i * 7 - 100).collect();
        check_roundtrip(EncodedStream::new_raw(Width::W8, true), &data);
    }

    #[test]
    fn raw_narrow_width_signed() {
        let data: Vec<i64> = (-100..100).collect();
        check_roundtrip(EncodedStream::new_raw(Width::W1, true), &data);
    }

    #[test]
    fn frame_roundtrip() {
        let data: Vec<i64> = (0..2500).map(|i| 1000 + (i % 50)).collect();
        check_roundtrip(EncodedStream::new_frame(Width::W8, true, 1000, 6), &data);
    }

    #[test]
    fn frame_rejects_out_of_range() {
        let mut s = EncodedStream::new_frame(Width::W8, true, 0, 4);
        assert_eq!(s.append_block(&[16]), Err(EncodingFull::ValueOutOfRange));
        assert_eq!(s.append_block(&[-1]), Err(EncodingFull::ValueOutOfRange));
        assert_eq!(s.len(), 0); // unchanged after failure
        s.append_block(&[15, 0, 7]).unwrap();
        assert_eq!(s.decode_all(), vec![15, 0, 7]);
    }

    #[test]
    fn delta_roundtrip_sorted() {
        let data: Vec<i64> = (0..5000).map(|i| i * 3).collect();
        check_roundtrip(EncodedStream::new_delta(Width::W8, true, 3, 0), &data);
    }

    #[test]
    fn delta_roundtrip_jittered() {
        let data: Vec<i64> = (0..5000).map(|i| i * 3 + (i % 2)).collect();
        // deltas are in {2, 4}: min_delta 2, bits 2
        check_roundtrip(EncodedStream::new_delta(Width::W8, true, 2, 2), &data);
    }

    #[test]
    fn delta_block_boundary_random_access() {
        let data: Vec<i64> = (0..(BLOCK_SIZE as i64 * 3)).map(|i| i * 2).collect();
        let mut s = EncodedStream::new_delta(Width::W8, true, 2, 0);
        for chunk in data.chunks(BLOCK_SIZE) {
            s.append_block(chunk).unwrap();
        }
        // Access across the block boundary without decoding from the start.
        assert_eq!(s.get(BLOCK_SIZE as u64), data[BLOCK_SIZE]);
        assert_eq!(s.get(BLOCK_SIZE as u64 - 1), data[BLOCK_SIZE - 1]);
    }

    #[test]
    fn dict_roundtrip() {
        let data: Vec<i64> = (0..4000).map(|i| (i % 37) * 1_000_000).collect();
        check_roundtrip(EncodedStream::new_dict(Width::W8, true, 6), &data);
    }

    #[test]
    fn dict_full() {
        let mut s = EncodedStream::new_dict(Width::W8, true, 2); // 4 entries max
        let block: Vec<i64> = (0..BLOCK_SIZE as i64).map(|i| (i % 4) * 10).collect();
        s.append_block(&block).unwrap();
        assert_eq!(
            s.append_block(&vec![50; BLOCK_SIZE]),
            Err(EncodingFull::DictionaryFull)
        );
        s.append_block(&block).unwrap();
        // Sealed streams reject further appends.
        let mut s2 = EncodedStream::new_dict(Width::W8, true, 4);
        s2.append_block(&[1, 2]).unwrap(); // partial block seals
        assert_eq!(s2.append_block(&[3]), Err(EncodingFull::Sealed));
    }

    #[test]
    fn affine_roundtrip() {
        let data: Vec<i64> = (0..3000).map(|i| -7 + i * 5).collect();
        let s = EncodedStream::new_affine(Width::W8, true, -7, 5);
        check_roundtrip(s, &data);
    }

    #[test]
    fn affine_constant_column() {
        let data = vec![42i64; 2048];
        check_roundtrip(EncodedStream::new_affine(Width::W8, true, 42, 0), &data);
    }

    #[test]
    fn affine_has_no_packed_data() {
        let mut s = EncodedStream::new_affine(Width::W8, true, 0, 1);
        let before = s.physical_size();
        let data: Vec<i64> = (0..(BLOCK_SIZE as i64 * 4)).collect();
        for chunk in data.chunks(BLOCK_SIZE) {
            s.append_block(chunk).unwrap();
        }
        // Constant storage: only the logical-size header field changed.
        assert_eq!(s.physical_size(), before);
    }

    #[test]
    fn affine_rejects_break() {
        let mut s = EncodedStream::new_affine(Width::W8, true, 0, 1);
        assert_eq!(s.append_block(&[0, 1, 3]), Err(EncodingFull::NotAffine));
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn rle_roundtrip() {
        let mut data = Vec::new();
        for v in 0..40i64 {
            data.extend(std::iter::repeat_n(v, 97));
        }
        check_roundtrip(
            EncodedStream::new_rle(Width::W8, true, Width::W2, Width::W1),
            &data,
        );
    }

    #[test]
    fn rle_run_extension_across_blocks() {
        let mut s = EncodedStream::new_rle(Width::W8, true, Width::W4, Width::W1);
        let block = vec![5i64; BLOCK_SIZE];
        for _ in 0..4 {
            s.append_block(&block).unwrap();
        }
        assert_eq!(s.rle_runs().unwrap(), vec![(5, 4 * BLOCK_SIZE as u64)]);
    }

    #[test]
    fn rle_count_overflow_starts_new_run() {
        let mut s = EncodedStream::new_rle(Width::W8, true, Width::W1, Width::W1);
        // 600 repeats of one value exceed the 255 count limit of W1.
        let block = vec![9i64; 600];
        s.append_block(&block[..512]).unwrap();
        s.append_block(&block[512..]).unwrap();
        let runs = s.rle_runs().unwrap();
        assert_eq!(runs.iter().map(|r| r.1).sum::<u64>(), 600);
        assert!(runs.iter().all(|&(v, c)| v == 9 && c <= 255));
        assert_eq!(s.decode_all(), block);
    }

    #[test]
    fn rle_value_out_of_width() {
        let mut s = EncodedStream::new_rle(Width::W8, true, Width::W4, Width::W1);
        assert_eq!(s.append_block(&[128]), Err(EncodingFull::ValueOutOfRange));
        s.append_block(&[127, -128]).unwrap();
    }

    #[test]
    fn partial_block_pads_physically() {
        let mut s = EncodedStream::new_frame(Width::W8, true, 0, 8);
        s.append_block(&[1, 2, 3]).unwrap();
        assert_eq!(s.len(), 3);
        // Physical data covers a whole block.
        let h = s.header();
        assert_eq!(s.physical_size() - h.data_offset, BLOCK_SIZE);
        assert_eq!(s.decode_all(), vec![1, 2, 3]);
    }

    #[test]
    fn from_buf_roundtrip() {
        let mut s = EncodedStream::new_dict(Width::W8, true, 5);
        s.append_block(&[3, 1, 4, 1, 5, 9, 2, 6]).unwrap();
        let bytes = s.as_bytes().to_vec();
        let s2 = EncodedStream::from_buf(bytes);
        assert_eq!(s2.decode_all(), vec![3, 1, 4, 1, 5, 9, 2, 6]);
        assert!(s2.sealed);
    }

    #[test]
    fn dict_append_after_deserialize() {
        // The cuckoo index is transient; appending to a wrapped buffer must
        // rebuild it and keep entries consistent.
        let mut s = EncodedStream::new_dict(Width::W8, true, 5);
        let block: Vec<i64> = (0..BLOCK_SIZE as i64).map(|i| i % 20).collect();
        s.append_block(&block).unwrap();
        let mut s2 = EncodedStream::from_buf(s.as_bytes().to_vec());
        s2.append_block(&block).unwrap();
        assert_eq!(s2.len(), 2 * BLOCK_SIZE as u64);
        assert_eq!(s2.dict_entries().unwrap().len(), 20);
        let expected: Vec<i64> = block.iter().chain(block.iter()).copied().collect();
        assert_eq!(s2.decode_all(), expected);
    }
}
