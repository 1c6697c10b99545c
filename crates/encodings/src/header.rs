//! The bit-packed stream header (paper §3.1, Fig 1).
//!
//! Byte layout (all fields little-endian):
//!
//! ```text
//! offset size field
//! 0      8    logical size (number of logical values; the physical packed
//!             data may cover more because streams hold whole blocks)
//! 8      8    offset to the bit-packed data (lets the header be resized
//!             without disturbing the packing)
//! 16     4    decompression block size (values per block, multiple of 32)
//! 20     1    encoding algorithm tag
//! 21     1    element width in bytes (1/2/4/8)
//! 22     1    number of packing bits
//! 23     1    flags (bit 0: values are signed)
//! 24     ..   encoding-specific header data
//! ```
//!
//! Encoding-specific trailers:
//!
//! * frame-of-reference: 8 bytes frame value (i64)
//! * delta: 8 bytes minimum delta value (i64)
//! * dictionary: 8 bytes entry count, then `2^bits` entry slots of
//!   `width` bytes each (room for the dictionary to grow to its limit)
//! * affine: 8 bytes base + 8 bytes delta (both reserved at full width
//!   even when the actual values are narrower)
//! * run-length: 1 byte count-field width + 1 byte value-field width,
//!   padded to 8; the "packed data" is the stream of (count, value) pairs

use crate::Algorithm;
use tde_types::Width;

/// Size of the common header prefix.
pub const COMMON_LEN: usize = 24;

/// Offsets of the common fields.
pub const OFF_LOGICAL_SIZE: usize = 0;
pub const OFF_DATA_OFFSET: usize = 8;
pub const OFF_BLOCK_SIZE: usize = 16;
pub const OFF_ALGORITHM: usize = 20;
pub const OFF_WIDTH: usize = 21;
pub const OFF_BITS: usize = 22;
pub const OFF_FLAGS: usize = 23;

/// Flag bit: the logical values are signed integers (sign-extend on decode
/// of raw/dictionary-entry bytes). Unset for heap tokens and dictionary
/// indexes, which are unsigned (paper §3.1).
pub const FLAG_SIGNED: u8 = 0b0000_0001;

/// Read a `u64` field.
#[inline]
pub fn get_u64(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().unwrap())
}

/// Write a `u64` field.
#[inline]
pub fn put_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

/// Read an `i64` field.
#[inline]
pub fn get_i64(buf: &[u8], off: usize) -> i64 {
    i64::from_le_bytes(buf[off..off + 8].try_into().unwrap())
}

/// Write an `i64` field.
#[inline]
pub fn put_i64(buf: &mut [u8], off: usize, v: i64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

/// Read a `u32` field.
#[inline]
pub fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().unwrap())
}

/// Write a `u32` field.
#[inline]
pub fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// Write a fixed-width little-endian value of `width` bytes at `off`,
/// truncating the two's-complement representation.
#[inline]
pub fn put_fixed(buf: &mut [u8], off: usize, width: Width, v: i64) {
    let bytes = v.to_le_bytes();
    buf[off..off + width.bytes()].copy_from_slice(&bytes[..width.bytes()]);
}

/// Read a fixed-width little-endian value of `width` bytes at `off`,
/// sign-extending when `signed`.
#[inline]
pub fn get_fixed(buf: &[u8], off: usize, width: Width, signed: bool) -> i64 {
    let n = width.bytes();
    let mut bytes = [0u8; 8];
    bytes[..n].copy_from_slice(&buf[off..off + n]);
    let v = u64::from_le_bytes(bytes);
    if signed && n < 8 {
        let shift = 64 - width.bits();
        ((v << shift) as i64) >> shift
    } else {
        v as i64
    }
}

/// Read an `N`-byte little-endian value at the front of `bytes`,
/// sign-extending when `SIGNED`: [`get_fixed`] with the width and the
/// signedness fixed at compile time, so the read is one fixed-size load.
#[inline(always)]
pub(crate) fn load<const N: usize, const SIGNED: bool>(bytes: &[u8]) -> i64 {
    let mut word = [0u8; 8];
    word[..N].copy_from_slice(&bytes[..N]);
    let v = u64::from_le_bytes(word);
    if SIGNED && N < 8 {
        let shift = 64 - 8 * N as u32;
        ((v << shift) as i64) >> shift
    } else {
        v as i64
    }
}

/// Build the common 24-byte header prefix.
pub fn make_common(
    algorithm: Algorithm,
    width: Width,
    bits: u8,
    block_size: usize,
    signed: bool,
    extra_header_len: usize,
) -> Vec<u8> {
    debug_assert!(
        block_size.is_multiple_of(32),
        "block size must be a multiple of 32"
    );
    let mut buf = vec![0u8; COMMON_LEN + extra_header_len];
    put_u64(&mut buf, OFF_LOGICAL_SIZE, 0);
    put_u64(
        &mut buf,
        OFF_DATA_OFFSET,
        (COMMON_LEN + extra_header_len) as u64,
    );
    put_u32(&mut buf, OFF_BLOCK_SIZE, block_size as u32);
    buf[OFF_ALGORITHM] = algorithm as u8;
    buf[OFF_WIDTH] = width.bytes() as u8;
    buf[OFF_BITS] = bits;
    buf[OFF_FLAGS] = if signed { FLAG_SIGNED } else { 0 };
    buf
}

/// Typed read-only view of a stream header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeaderView {
    /// Number of logical values in the stream.
    pub logical_size: u64,
    /// Byte offset of the packed data within the buffer.
    pub data_offset: usize,
    /// Values per decompression block.
    pub block_size: usize,
    /// The encoding algorithm.
    pub algorithm: Algorithm,
    /// Element width of the decoded stream.
    pub width: Width,
    /// Packing bits per value.
    pub bits: u8,
    /// Whether decoded values are signed.
    pub signed: bool,
}

impl HeaderView {
    /// Parse the common prefix of `buf`. Panics on corrupt headers — the
    /// engine only reads buffers it wrote; the single-file reader validates
    /// separately with [`HeaderView::try_parse`].
    pub fn parse(buf: &[u8]) -> HeaderView {
        HeaderView::try_parse(buf).expect("corrupt encoded stream header")
    }

    /// Where each physical block of `block_bytes` bytes starts in the
    /// buffer, and how many logical values it holds (`block_size`, except
    /// a ragged last block).
    pub(crate) fn blocks(&self, block_bytes: usize) -> impl Iterator<Item = (usize, usize)> {
        let (rows, per_block, first) = (
            self.logical_size as usize,
            self.block_size,
            self.data_offset,
        );
        (0..rows.div_ceil(per_block))
            .map(move |b| (first + b * block_bytes, per_block.min(rows - b * per_block)))
    }

    /// The packed data of block `block_idx` of a frame-of-reference or
    /// dictionary stream (blocks of packed values only), from its first
    /// byte to the end of `buf`.
    pub(crate) fn packed_block<'a>(&self, buf: &'a [u8], block_idx: usize) -> &'a [u8] {
        let block_bytes = crate::bitpack::packed_bytes(self.block_size, self.bits);
        &buf[self.data_offset + block_idx * block_bytes..]
    }

    /// Fallible parse for untrusted input (e.g. files from disk).
    pub fn try_parse(buf: &[u8]) -> Option<HeaderView> {
        if buf.len() < COMMON_LEN {
            return None;
        }
        let algorithm = Algorithm::from_tag(buf[OFF_ALGORITHM])?;
        let width = Width::from_bytes(buf[OFF_WIDTH] as usize)?;
        let bits = buf[OFF_BITS];
        if bits > 64 {
            return None;
        }
        let data_offset = get_u64(buf, OFF_DATA_OFFSET) as usize;
        if data_offset > buf.len() || data_offset < COMMON_LEN {
            return None;
        }
        let block_size = get_u32(buf, OFF_BLOCK_SIZE) as usize;
        if block_size == 0 || !block_size.is_multiple_of(32) {
            return None;
        }
        Some(HeaderView {
            logical_size: get_u64(buf, OFF_LOGICAL_SIZE),
            data_offset,
            block_size,
            algorithm,
            width,
            bits,
            signed: buf[OFF_FLAGS] & FLAG_SIGNED != 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_header_roundtrip() {
        let buf = make_common(Algorithm::Delta, Width::W4, 13, 1024, true, 8);
        let h = HeaderView::parse(&buf);
        assert_eq!(h.algorithm, Algorithm::Delta);
        assert_eq!(h.width, Width::W4);
        assert_eq!(h.bits, 13);
        assert_eq!(h.block_size, 1024);
        assert!(h.signed);
        assert_eq!(h.data_offset, 32);
        assert_eq!(h.logical_size, 0);
    }

    #[test]
    fn try_parse_rejects_garbage() {
        assert!(HeaderView::try_parse(&[0u8; 10]).is_none());
        let mut buf = make_common(Algorithm::None, Width::W8, 0, 1024, false, 0);
        buf[OFF_ALGORITHM] = 200;
        assert!(HeaderView::try_parse(&buf).is_none());
        let mut buf = make_common(Algorithm::None, Width::W8, 0, 1024, false, 0);
        buf[OFF_WIDTH] = 3;
        assert!(HeaderView::try_parse(&buf).is_none());
        let mut buf = make_common(Algorithm::None, Width::W8, 0, 1024, false, 0);
        put_u32(&mut buf, OFF_BLOCK_SIZE, 33); // not a multiple of 32
        assert!(HeaderView::try_parse(&buf).is_none());
    }

    #[test]
    fn fixed_width_signed_roundtrip() {
        let mut buf = vec![0u8; 8];
        for (w, v) in [
            (Width::W1, -5i64),
            (Width::W2, -300),
            (Width::W4, -70_000),
            (Width::W8, i64::MIN + 1),
        ] {
            put_fixed(&mut buf, 0, w, v);
            assert_eq!(get_fixed(&buf, 0, w, true), v);
        }
    }

    #[test]
    fn fixed_width_unsigned_roundtrip() {
        let mut buf = vec![0u8; 8];
        put_fixed(&mut buf, 0, Width::W1, 200);
        assert_eq!(get_fixed(&buf, 0, Width::W1, false), 200);
        // The same bytes sign-extend differently.
        assert_eq!(get_fixed(&buf, 0, Width::W1, true), 200 - 256);
    }
}
