//! Unencoded storage: fixed-width values, no compression.
//!
//! This is both the `encodings off` baseline and the fallback when no
//! lightweight encoding pays for itself. It shares the common header so
//! the rest of the system is oblivious to whether a stream is encoded.

use crate::header::{self, HeaderView};
use tde_types::Width;

/// Create an empty raw stream buffer.
pub fn new_stream(width: Width, block_size: usize, signed: bool) -> Vec<u8> {
    header::make_common(crate::Algorithm::None, width, 0, block_size, signed, 0)
}

/// Append one block (padded to a full physical block with zero bytes).
pub fn append_block(buf: &mut Vec<u8>, h: &HeaderView, vals: &[i64]) {
    let at = buf.len();
    put_values(buf, h.width, vals);
    buf.resize(at + h.block_size * h.width.bytes(), 0);
}

/// Append `vals` at `width`, unpadded: a splice writes its rows one
/// block after another and pads only the last.
pub(crate) fn put_values(buf: &mut Vec<u8>, width: Width, vals: &[i64]) {
    fn store<const N: usize>(buf: &mut Vec<u8>, vals: &[i64]) {
        let at = buf.len();
        buf.resize(at + vals.len() * N, 0);
        for (dst, v) in buf[at..].chunks_exact_mut(N).zip(vals) {
            dst.copy_from_slice(&v.to_le_bytes()[..N]);
        }
    }
    match width {
        Width::W1 => store::<1>(buf, vals),
        Width::W2 => store::<2>(buf, vals),
        Width::W4 => store::<4>(buf, vals),
        Width::W8 => store::<8>(buf, vals),
    }
}

/// Decode a full physical block.
pub fn decode_block(buf: &[u8], h: &HeaderView, block_idx: usize, out: &mut Vec<i64>) {
    fn load_all<const N: usize, const SIGNED: bool>(bytes: &[u8], out: &mut Vec<i64>) {
        out.extend(bytes.chunks_exact(N).map(header::load::<N, SIGNED>));
    }
    let w = h.width.bytes();
    let start = h.data_offset + block_idx * h.block_size * w;
    let bytes = &buf[start..start + h.block_size * w];
    match (h.width, h.signed) {
        (Width::W1, false) => load_all::<1, false>(bytes, out),
        (Width::W1, true) => load_all::<1, true>(bytes, out),
        (Width::W2, false) => load_all::<2, false>(bytes, out),
        (Width::W2, true) => load_all::<2, true>(bytes, out),
        (Width::W4, false) => load_all::<4, false>(bytes, out),
        (Width::W4, true) => load_all::<4, true>(bytes, out),
        (Width::W8, false) => load_all::<8, false>(bytes, out),
        (Width::W8, true) => load_all::<8, true>(bytes, out),
    }
}

/// Random access.
pub fn get(buf: &[u8], h: &HeaderView, idx: u64) -> i64 {
    let w = h.width;
    let off = h.data_offset + idx as usize * w.bytes();
    header::get_fixed(buf, off, w, h.signed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EncodedStream;

    #[test]
    fn unsigned_raw_does_not_sign_extend() {
        let mut s = EncodedStream::new_raw(Width::W1, false);
        s.append_block(&[200, 255, 0]).unwrap();
        assert_eq!(s.decode_all(), vec![200, 255, 0]);
    }

    /// The width-specialised block paths write and read exactly what the
    /// variable-width field accessors do, at every width and signedness.
    #[test]
    fn fixed_width_blocks_match_field_accessors() {
        for w in Width::ALL {
            for signed in [false, true] {
                let vals: Vec<i64> = (0..700i64)
                    .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15u64 as i64) >> (i % 64))
                    .collect();
                let mut s = EncodedStream::new_raw(w, signed);
                s.append_block(&vals).unwrap();
                let (buf, h) = (s.as_bytes(), s.header());
                assert_eq!(buf.len(), h.data_offset + crate::BLOCK_SIZE * w.bytes());
                let mut expect = vec![0u8; buf.len()];
                expect[..h.data_offset].copy_from_slice(&buf[..h.data_offset]);
                for (i, &v) in vals.iter().enumerate() {
                    header::put_fixed(&mut expect, h.data_offset + i * w.bytes(), w, v);
                }
                assert_eq!(buf, &expect[..], "{w} signed {signed}");
                let decoded = s.decode_all();
                for (i, &got) in decoded.iter().enumerate() {
                    let at = h.data_offset + i * w.bytes();
                    assert_eq!(
                        got,
                        header::get_fixed(buf, at, w, signed),
                        "{w} {signed} {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn physical_size_is_width_times_blocks() {
        let mut s = EncodedStream::new_raw(Width::W2, true);
        let block: Vec<i64> = (0..crate::BLOCK_SIZE as i64).collect();
        s.append_block(&block).unwrap();
        let h = s.header();
        assert_eq!(s.physical_size() - h.data_offset, crate::BLOCK_SIZE * 2);
    }
}
