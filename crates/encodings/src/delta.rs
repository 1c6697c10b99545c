//! Delta encoding (paper §3.1.2).
//!
//! The header holds the 8-byte minimum delta value. Each decompression
//! block starts with the running total for that block (its first value, as
//! an 8-byte integer) so the stream supports random as well as sequential
//! access. Within a block, packed value `i` is
//! `value[i] - value[i-1] - min_delta` (and packed value 0 is always zero,
//! the first value being carried by the block header).
//!
//! A non-negative minimum delta in the header proves the column is sorted —
//! the sortedness metadata extraction of §3.4.2.

use crate::bitpack;
use crate::header::{self, HeaderView};
use crate::{Algorithm, EncodingFull};
use tde_types::Width;

/// Offset of the minimum delta within the header.
pub const OFF_MIN_DELTA: usize = header::COMMON_LEN;

/// Create an empty delta stream buffer.
pub fn new_stream(
    width: Width,
    block_size: usize,
    signed: bool,
    min_delta: i64,
    bits: u8,
) -> Vec<u8> {
    let mut buf = header::make_common(Algorithm::Delta, width, bits, block_size, signed, 8);
    header::put_i64(&mut buf, OFF_MIN_DELTA, min_delta);
    buf
}

/// The minimum delta, read from the header.
pub fn min_delta(buf: &[u8]) -> i64 {
    header::get_i64(buf, OFF_MIN_DELTA)
}

/// Bytes per physical block: 8-byte base + packed deltas.
#[inline]
pub fn block_bytes(h: &HeaderView) -> usize {
    8 + bitpack::packed_bytes(h.block_size, h.bits)
}

/// `v1 - v0 - min_delta` when it lies in `[0, 2^bits)`, computed without
/// leaving 64-bit arithmetic: each of the two subtractions may wrap, and a
/// wrap moves the result by exactly 2^64 in a direction its sign gives
/// away, so the wraps are counted and the true value reconstructed.
fn packed_delta(v0: i64, v1: i64, min_delta: i64, bits: u8) -> Option<u64> {
    let (d1, wrapped1) = v1.overflowing_sub(v0);
    let (d2, wrapped2) = d1.overflowing_sub(min_delta);
    // A wrapped difference that came out negative lost 2^64; one that came
    // out non-negative gained it.
    let lost = |wrapped: bool, d: i64| match (wrapped, d < 0) {
        (false, _) => 0,
        (true, true) => 1,
        (true, false) => -1,
    };
    let fits = match lost(wrapped1, d1) + lost(wrapped2, d2) {
        // The true value is `d2`.
        0 => d2 >= 0 && d2 as u64 & bitpack::too_wide(bits) == 0,
        // The true value is `d2 + 2^64`, at least 2^63.
        1 => d2 < 0 && bits == 64,
        _ => false,
    };
    fits.then_some(d2 as u64)
}

/// Append one block. Fails without modifying the buffer if any
/// within-block delta falls outside `[min_delta, min_delta + 2^bits)`.
pub fn append_block(buf: &mut Vec<u8>, h: &HeaderView, vals: &[i64]) -> Result<(), EncodingFull> {
    let md = min_delta(buf);
    let start = buf.len();
    buf.reserve(block_bytes(h));
    buf.extend_from_slice(&vals[0].to_le_bytes());
    let too_wide = bitpack::too_wide(h.bits);
    let mut out_of_range = false;
    let mut wrapped = false;
    // Packed value 0 is zero: the block header carries the first value.
    let deltas = std::iter::once(0).chain(vals.windows(2).map(|w| {
        let (d1, wrapped1) = w[1].overflowing_sub(w[0]);
        let (d2, wrapped2) = d1.overflowing_sub(md);
        wrapped |= wrapped1 | wrapped2;
        out_of_range |= d2 as u64 & too_wide != 0;
        d2 as u64 & !too_wide
    }));
    bitpack::pack_block_from(deltas, vals.len(), h.block_size, h.bits, buf);
    if wrapped || h.bits == 64 {
        // Rare: a difference left the i64 range (or every bit pattern is
        // a legal packed value), so the masked test above proves nothing.
        // The packed bits are right whenever the exact test passes.
        out_of_range = vals
            .windows(2)
            .any(|w| packed_delta(w[0], w[1], md, h.bits).is_none());
    }
    if out_of_range {
        buf.truncate(start);
        return Err(EncodingFull::ValueOutOfRange);
    }
    Ok(())
}

/// Decode a full physical block: unpack its deltas, then sum them in
/// place from the block's base.
pub fn decode_block(buf: &[u8], h: &HeaderView, block_idx: usize, out: &mut Vec<i64>) {
    let md = min_delta(buf);
    let start = h.data_offset + block_idx * block_bytes(h);
    let base = header::get_i64(buf, start);
    let first = out.len();
    bitpack::unpack_block(&buf[start + 8..], h.bits, h.block_size, out, |d| d as i64);
    // The base stands in for packed value 0.
    out[first] = base;
    let mut v = base;
    for d in &mut out[first + 1..] {
        v = v.wrapping_add(md).wrapping_add(*d);
        *d = v;
    }
}

/// Random access: jump to the block base, then accumulate within the block.
pub fn get(buf: &[u8], h: &HeaderView, idx: u64) -> i64 {
    let md = min_delta(buf);
    let block_idx = idx as usize / h.block_size;
    let within = idx as usize % h.block_size;
    let start = h.data_offset + block_idx * block_bytes(h);
    let mut v = header::get_i64(buf, start);
    let packed = &buf[start + 8..];
    for i in 1..=within {
        let p = bitpack::get_one(packed, h.bits, i);
        v = v.wrapping_add(md).wrapping_add(p as i64);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EncodedStream, BLOCK_SIZE};

    #[test]
    fn descending_column_uses_negative_min_delta() {
        let data: Vec<i64> = (0..2000).map(|i| 10_000 - i * 4).collect();
        let mut s = EncodedStream::new_delta(Width::W8, true, -4, 0);
        for c in data.chunks(BLOCK_SIZE) {
            s.append_block(c).unwrap();
        }
        assert_eq!(s.decode_all(), data);
    }

    #[test]
    fn rejects_delta_out_of_range() {
        let mut s = EncodedStream::new_delta(Width::W8, true, 1, 2);
        // deltas must be in [1, 5): 1+2^2
        assert_eq!(s.append_block(&[0, 5]), Err(EncodingFull::ValueOutOfRange));
        assert_eq!(s.append_block(&[0, 0]), Err(EncodingFull::ValueOutOfRange));
        s.append_block(&[0, 4, 5, 9]).unwrap();
        assert_eq!(s.decode_all(), vec![0, 4, 5, 9]);
    }

    #[test]
    fn sortedness_visible_in_header() {
        let s = EncodedStream::new_delta(Width::W8, true, 0, 5);
        assert!(min_delta(s.as_bytes()) >= 0);
    }

    #[test]
    fn cross_block_deltas_do_not_constrain() {
        // Block boundaries reset via the stored base, so a big jump
        // *between* blocks is fine even when bits are small.
        let mut a: Vec<i64> = (0..BLOCK_SIZE as i64).collect();
        let b: Vec<i64> = (0..BLOCK_SIZE as i64).map(|i| 1_000_000 + i).collect();
        let mut s = EncodedStream::new_delta(Width::W8, true, 1, 0);
        s.append_block(&a).unwrap();
        s.append_block(&b).unwrap();
        a.extend_from_slice(&b);
        assert_eq!(s.decode_all(), a);
        assert_eq!(s.get(BLOCK_SIZE as u64), 1_000_000);
    }
}
