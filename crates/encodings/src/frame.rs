//! Frame-of-reference encoding (paper §3.1.1).
//!
//! The header holds an 8-byte frame value; the bit-packed values are added
//! to the frame to produce the uncompressed values. The frame plus the bit
//! width define the outer envelope of values present in the column, which
//! the narrowing manipulation (§3.4.1) and the FoR→dictionary conversion
//! (§3.4.3) read straight from the header.

use crate::bitpack;
use crate::header::{self, HeaderView};
use crate::splice::{Packer, Tally};
use crate::{Algorithm, EncodingFull};
use tde_types::Width;

/// Offset of the frame value within the header.
pub const OFF_FRAME: usize = header::COMMON_LEN;

/// Create an empty frame-of-reference stream buffer.
pub fn new_stream(width: Width, block_size: usize, signed: bool, frame: i64, bits: u8) -> Vec<u8> {
    let mut buf = header::make_common(
        Algorithm::FrameOfReference,
        width,
        bits,
        block_size,
        signed,
        8,
    );
    header::put_i64(&mut buf, OFF_FRAME, frame);
    buf
}

/// The frame value, read from the header.
pub fn frame_value(buf: &[u8]) -> i64 {
    header::get_i64(buf, OFF_FRAME)
}

/// Append one block. Fails without modifying the buffer if any value lies
/// outside `[frame, frame + 2^bits)`.
pub fn append_block(buf: &mut Vec<u8>, h: &HeaderView, vals: &[i64]) -> Result<(), EncodingFull> {
    let frame = frame_value(buf);
    let start = buf.len();
    let too_wide = bitpack::too_wide(h.bits);
    let mut out_of_range = false;
    // `v - frame` lies in `[0, 2^64)` exactly when `v >= frame`, and the
    // wrapping difference is then the true one.
    let offsets = vals.iter().map(|&v| {
        let off = v.wrapping_sub(frame) as u64;
        out_of_range |= v < frame || off & too_wide != 0;
        off & !too_wide
    });
    // The block's padding is the frame value (offset zero).
    bitpack::pack_block_from(offsets, vals.len(), h.block_size, h.bits, buf);
    if out_of_range {
        buf.truncate(start);
        return Err(EncodingFull::ValueOutOfRange);
    }
    Ok(())
}

/// Move the packed offsets of the frame-of-reference stream `old`,
/// without the rows at `dropped` (ascending positions), into `to`, a
/// stream with its own frame and width: each offset moves to the new
/// frame on its way from one packed stream to the other, no value is
/// materialized. `to` refuses, when it finishes, an offset its width
/// cannot hold.
pub(crate) fn repack<T: Tally>(old: &[u8], oh: &HeaderView, dropped: &[u64], to: &mut Packer<T>) {
    let shift = frame_value(old).wrapping_sub(frame_value(&to.out)) as u64;
    to.push_packed(old, oh, dropped, |offset| offset.wrapping_add(shift));
}

/// Decode a full physical block, adding the frame as each offset is
/// unpacked.
pub fn decode_block(buf: &[u8], h: &HeaderView, block_idx: usize, out: &mut Vec<i64>) {
    let frame = frame_value(buf);
    let data = h.packed_block(buf, block_idx);
    bitpack::unpack_block(data, h.bits, h.block_size, out, |o| {
        frame.wrapping_add(o as i64)
    });
}

/// Decode only the rows at `positions` (local to block `block_idx`), one
/// packed read each — for a selection too sparse to unpack the block.
pub fn gather_block(
    buf: &[u8],
    h: &HeaderView,
    block_idx: usize,
    positions: &[u32],
    out: &mut Vec<i64>,
) {
    let frame = frame_value(buf);
    let offsets = bitpack::Packed::new(h.packed_block(buf, block_idx), h.bits);
    out.extend(
        positions
            .iter()
            .map(|&i| frame.wrapping_add(offsets.get(i as usize) as i64)),
    );
}

/// Random access.
pub fn get(buf: &[u8], h: &HeaderView, idx: u64) -> i64 {
    let frame = frame_value(buf);
    let p = bitpack::get_one(&buf[h.data_offset..], h.bits, idx as usize);
    frame.wrapping_add(p as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EncodedStream;

    #[test]
    fn negative_frame() {
        let mut s = EncodedStream::new_frame(Width::W8, true, -1000, 11);
        let data: Vec<i64> = (0..100).map(|i| -1000 + i * 20).collect();
        s.append_block(&data).unwrap();
        assert_eq!(s.decode_all(), data);
    }

    #[test]
    fn frame_near_i64_min_does_not_overflow() {
        let frame = i64::MIN;
        let mut s = EncodedStream::new_frame(Width::W8, true, frame, 8);
        s.append_block(&[frame, frame + 255]).unwrap();
        assert_eq!(s.decode_all(), vec![frame, frame + 255]);
        // A value 2^8 above the frame is out of range.
        let mut s2 = EncodedStream::new_frame(Width::W8, true, frame, 8);
        assert_eq!(
            s2.append_block(&[frame + 256]),
            Err(EncodingFull::ValueOutOfRange)
        );
    }

    #[test]
    fn zero_bits_means_constant() {
        let mut s = EncodedStream::new_frame(Width::W8, true, 77, 0);
        s.append_block(&[77, 77, 77]).unwrap();
        assert_eq!(s.decode_all(), vec![77, 77, 77]);
        let mut s2 = EncodedStream::new_frame(Width::W8, true, 77, 0);
        assert_eq!(s2.append_block(&[78]), Err(EncodingFull::ValueOutOfRange));
    }

    #[test]
    fn physical_size_tracks_bits() {
        // 4-bit packing: one block of 1024 values = 512 bytes.
        let mut s = EncodedStream::new_frame(Width::W8, true, 0, 4);
        let block: Vec<i64> = (0..crate::BLOCK_SIZE as i64).map(|i| i % 16).collect();
        s.append_block(&block).unwrap();
        let h = s.header();
        assert_eq!(s.physical_size() - h.data_offset, crate::BLOCK_SIZE / 2);
    }
}
