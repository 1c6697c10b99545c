//! Bit packing of unsigned values.
//!
//! The encodings treat packed values as unsigned (paper §3.1). Values are
//! packed LSB-first into a little-endian byte stream. Because decompression
//! block sizes are multiples of 32, every block's packing ends on a byte
//! boundary: `32 · bits` is always divisible by 8.

/// Number of bytes needed to pack `count` values of `bits` bits each.
/// `count` must be a multiple of 32 (or the result rounds up to whole bytes,
/// which callers relying on block alignment must not depend on).
#[inline]
pub fn packed_bytes(count: usize, bits: u8) -> usize {
    (count * bits as usize).div_ceil(8)
}

/// Number of bits needed to represent every value in `[0, max]`.
#[inline]
pub fn bits_for_max(max: u64) -> u8 {
    (64 - max.leading_zeros()) as u8
}

/// Pack `values` (each strictly less than `2^bits`, except `bits == 64`)
/// into `out`, appending. `bits == 0` packs nothing.
pub fn pack(values: &[u64], bits: u8, out: &mut Vec<u8>) {
    pack_from(values.iter().copied(), values.len(), bits, out);
}

/// [`pack`] over the first `count` values of an iterator, so an encoder can
/// compute each packed value on the way into the stream instead of staging
/// a block of them. The iterator is always drained to `count` values, even
/// when `bits == 0` stores none of them.
///
/// Values are assembled in a 64-bit word and stored a word at a time; a
/// value straddling two words carries its high bits into the next one.
pub(crate) fn pack_from(
    values: impl Iterator<Item = u64>,
    count: usize,
    bits: u8,
    out: &mut Vec<u8>,
) {
    debug_assert!(bits <= 64);
    let values = values.take(count);
    if bits == 0 {
        values.for_each(drop);
        return;
    }
    let start = out.len();
    out.resize(start + packed_bytes(count, bits), 0);
    let dst = &mut out[start..];
    if bits == 64 {
        for (word, v) in dst.chunks_exact_mut(8).zip(values) {
            word.copy_from_slice(&v.to_le_bytes());
        }
        return;
    }
    let mask = (1u64 << bits) - 1;
    let bits = u32::from(bits);
    let mut acc = 0u64;
    let mut fill = 0u32;
    let mut at = 0usize;
    for v in values {
        debug_assert!(v <= mask, "value {v} does not fit in {bits} bits");
        let v = v & mask;
        acc |= v << fill;
        fill += bits;
        if fill >= 64 {
            dst[at..at + 8].copy_from_slice(&acc.to_le_bytes());
            at += 8;
            fill -= 64;
            // The part of `v` that did not fit (nothing when `fill == 0`:
            // `v >> bits` is zero).
            acc = v >> (bits - fill);
        }
    }
    let tail = (fill as usize).div_ceil(8);
    dst[at..at + tail].copy_from_slice(&acc.to_le_bytes()[..tail]);
}

/// [`pack_from`] for one physical block: pack `count` values, then pad with
/// zero bits to the `block_size` values every stored block covers.
pub(crate) fn pack_block_from(
    values: impl Iterator<Item = u64>,
    count: usize,
    block_size: usize,
    bits: u8,
    out: &mut Vec<u8>,
) {
    let start = out.len();
    pack_from(values, count, bits, out);
    out.resize(start + packed_bytes(block_size, bits), 0);
}

/// The bits a packed value of `bits` bits must not have set.
#[inline]
pub(crate) fn too_wide(bits: u8) -> u64 {
    if bits >= 64 {
        0
    } else {
        u64::MAX << bits
    }
}

/// Random access into packed `bits`-bit values — how a selection too
/// sparse to unpack its block ([`crate::Selection::unpacks_block`]) reads
/// the rows it keeps. Whole blocks go through [`unpack_block`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Packed<'a> {
    data: &'a [u8],
    bits: u8,
    mask: u64,
}

impl<'a> Packed<'a> {
    /// The values packed at the start of `data`.
    pub(crate) fn new(data: &'a [u8], bits: u8) -> Packed<'a> {
        debug_assert!(bits <= 64);
        let mask = if bits >= 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        Packed { data, bits, mask }
    }

    /// Value `i`: one unaligned 8-byte load, a shift and a mask. A value
    /// within 8 bytes of the end of `data`, or wider than 57 bits (which
    /// can straddle nine bytes), takes the byte-wise path.
    #[inline(always)]
    pub(crate) fn get(&self, i: usize) -> u64 {
        let bit = i * self.bits as usize;
        let byte = bit >> 3;
        match self.data.get(byte..byte + 8) {
            Some(word) if self.bits <= 57 => {
                let word = u64::from_le_bytes(word.try_into().expect("an 8-byte slice"));
                (word >> (bit & 7)) & self.mask
            }
            _ => get_one(self.data, self.bits, i),
        }
    }
}

/// Unpack `count` values of `bits` bits each from `data` into `out`,
/// appending. `bits == 0` appends `count` zeros. Each whole
/// [`BLOCK_SIZE`](crate::BLOCK_SIZE)-value chunk goes through the
/// block unpack every decode runs, exactly as a stored block does.
pub fn unpack(data: &[u8], bits: u8, count: usize, out: &mut Vec<u64>) {
    let chunk_bytes = packed_bytes(crate::BLOCK_SIZE, bits);
    for (i, start) in (0..count).step_by(crate::BLOCK_SIZE).enumerate() {
        let n = (count - start).min(crate::BLOCK_SIZE);
        unpack_block(&data[i * chunk_bytes..], bits, n, out, |v| v);
    }
}

/// Unpack the `count` values of `bits` bits packed at the start of
/// `data`, each through `map` (a cast, a frame add) on its way into
/// `out`, appending — the one whole-block unpack under every decode,
/// kernel and dense gather.
///
/// It is specialised per width at compile time: eight values of `B` bits
/// are `B` whole bytes, and each value in such a group is one unaligned
/// load at a constant offset, a constant shift and a mask (a 16-byte load
/// for the widths over 57 bits but 64, whose values can straddle nine
/// bytes). The groups whose loads would run past the end of `data` are
/// unpacked from a zero-padded copy of the tail, so `data` may end at the
/// last packed byte.
pub(crate) fn unpack_block<T: Copy>(
    data: &[u8],
    bits: u8,
    count: usize,
    out: &mut Vec<T>,
    map: impl Fn(u64) -> T,
) {
    assert!(
        data.len() >= packed_bytes(count, bits),
        "{count} values of {bits} bits need {} bytes, not {}",
        packed_bytes(count, bits),
        data.len()
    );
    macro_rules! by_width {
        ($($b:literal)*) => {
            match bits {
                0 => out.extend(std::iter::repeat_n(map(0), count)),
                $($b => unpack_width::<$b, T>(data, count, out, &map),)*
                _ => panic!("{bits}-bit packing"),
            }
        };
    }
    by_width!(
        1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
        33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61 62
        63 64
    );
}

/// Whether a `B`-bit value at any bit phase fits one 8-byte load.
const fn one_word(b: usize) -> bool {
    b <= 57 || b == 64
}

/// Bytes the loads of one group of eight `B`-bit values read from the
/// group's first byte: the last value's byte offset plus one load.
const fn reach(b: usize) -> usize {
    7 * b / 8 + if one_word(b) { 8 } else { 16 }
}

/// The zero-padded tail copy: fewer than `reach` bytes of data remain
/// when the tail starts, and the last group in it reads `reach` more.
const TAIL_PAD: usize = 2 * reach(63);

/// [`unpack_block`] at `B` bits.
#[inline(never)]
fn unpack_width<const B: usize, T: Copy>(
    data: &[u8],
    count: usize,
    out: &mut Vec<T>,
    map: &impl Fn(u64) -> T,
) {
    let start = out.len();
    let groups = count.div_ceil(8);
    out.resize(start + groups * 8, map(0));
    let dst = &mut out[start..];
    // The groups whose loads stay inside `data`.
    let direct = match data.len().checked_sub(reach(B)) {
        Some(room) => (room / B + 1).min(groups),
        None => 0,
    };
    let (head, tail) = dst.split_at_mut(direct * 8);
    for (g, values) in head.chunks_exact_mut(8).enumerate() {
        unpack_group::<B, T>(&data[g * B..], values, map);
    }
    if !tail.is_empty() {
        let rest = &data[direct * B..];
        let mut pad = [0u8; TAIL_PAD];
        let n = rest.len().min(TAIL_PAD);
        pad[..n].copy_from_slice(&rest[..n]);
        for (g, values) in tail.chunks_exact_mut(8).enumerate() {
            unpack_group::<B, T>(&pad[g * B..], values, map);
        }
    }
    out.truncate(start + count);
}

/// Unpack the eight `B`-bit values at the start of `src` (at least
/// `reach(B)` bytes) through `map` into `values`.
#[inline(always)]
fn unpack_group<const B: usize, T: Copy>(src: &[u8], values: &mut [T], map: &impl Fn(u64) -> T) {
    let src = &src[..reach(B)];
    let mask = u64::MAX >> (64 - B);
    for (j, v) in values[..8].iter_mut().enumerate() {
        let (at, shift) = (j * B / 8, j * B % 8);
        let word = if one_word(B) {
            u64::from_le_bytes(src[at..at + 8].try_into().expect("8 bytes")) >> shift
        } else {
            (u128::from_le_bytes(src[at..at + 16].try_into().expect("16 bytes")) >> shift) as u64
        };
        *v = map(word & mask);
    }
}

/// Read the single value at index `idx` from a packed stream without
/// unpacking its neighbours. Used for random access (`get`).
pub fn get_one(data: &[u8], bits: u8, idx: usize) -> u64 {
    debug_assert!(bits <= 64);
    if bits == 0 {
        return 0;
    }
    let bit_pos = idx * bits as usize;
    let byte_pos = bit_pos / 8;
    let shift = (bit_pos % 8) as u32;
    // Gather up to 9 bytes covering the value (bits ≤ 64 may straddle 9).
    let mut acc: u128 = 0;
    let end = (bit_pos + bits as usize).div_ceil(8).min(data.len());
    for (i, &b) in data[byte_pos..end].iter().enumerate() {
        acc |= u128::from(b) << (8 * i);
    }
    let mask: u128 = if bits == 64 {
        u64::MAX as u128
    } else {
        (1u128 << bits) - 1
    };
    ((acc >> shift) & mask) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[u64], bits: u8) {
        let mut packed = Vec::new();
        pack(values, bits, &mut packed);
        assert_eq!(packed.len(), packed_bytes(values.len(), bits));
        let mut out = Vec::new();
        unpack(&packed, bits, values.len(), &mut out);
        assert_eq!(out, values);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(get_one(&packed, bits, i), v, "bits={bits} idx={i}");
        }
    }

    #[test]
    fn roundtrip_all_bit_widths() {
        for bits in 1..=64u8 {
            let max = if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
            let values: Vec<u64> = (0..64u64)
                .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) & max)
                .collect();
            roundtrip(&values, bits);
        }
    }

    #[test]
    fn word_level_pack_matches_the_byte_level_definition() {
        // The definition: value i occupies bits [i*bits, (i+1)*bits) of a
        // little-endian bit stream.
        for bits in 1..=64u8 {
            let max = if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
            for count in [1usize, 7, 31, 32, 33, 64, 100] {
                let values: Vec<u64> = (0..count as u64)
                    .map(|i| (i.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ (i << 17)) & max)
                    .collect();
                let mut expect = vec![0u8; packed_bytes(count, bits)];
                for (i, &v) in values.iter().enumerate() {
                    for b in 0..bits as usize {
                        if v >> b & 1 == 1 {
                            let pos = i * bits as usize + b;
                            expect[pos / 8] |= 1 << (pos % 8);
                        }
                    }
                }
                let mut packed = vec![0xAA]; // appends after existing bytes
                pack(&values, bits, &mut packed);
                assert_eq!(packed[0], 0xAA);
                assert_eq!(&packed[1..], &expect[..], "bits={bits} count={count}");
                let mut back: Vec<u64> = Vec::new();
                unpack_block(&expect, bits, count, &mut back, |v| v);
                assert_eq!(back, values, "bits={bits} count={count}");
            }
        }
    }

    #[test]
    fn unpack_block_matches_get_one_at_every_width() {
        for bits in 0..=64u8 {
            let max = u64::MAX >> (64 - u32::from(bits.max(1)));
            for count in [1usize, 63, 64, 1000, 1024] {
                let values: Vec<u64> = (0..count as u64)
                    .map(|i| {
                        i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .rotate_left(i as u32 % 64)
                    })
                    .map(|v| if bits == 0 { 0 } else { v & max })
                    .collect();
                let mut packed = Vec::new();
                pack(&values, bits, &mut packed);
                // The buffer ends at the last packed byte: the tail groups
                // read from the padded copy.
                assert_eq!(packed.len(), packed_bytes(count, bits));
                let mut out = vec![7u64]; // appends after existing values
                unpack_block(&packed, bits, count, &mut out, |v| v);
                assert_eq!(&out[1..], &values[..], "bits={bits} count={count}");
                for (i, &v) in out[1..].iter().enumerate() {
                    assert_eq!(
                        v,
                        get_one(&packed, bits, i),
                        "bits={bits} count={count} i={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn pack_from_drains_its_iterator_even_at_zero_bits() {
        let mut seen = 0;
        let mut out = Vec::new();
        pack_from((0..10).inspect(|_| seen += 1).map(|_| 0), 10, 0, &mut out);
        assert_eq!((seen, out.len()), (10, 0));
        let mut zeros: Vec<u64> = Vec::new();
        unpack_block(&[], 0, 3, &mut zeros, |v| v);
        assert_eq!(zeros, vec![0; 3]);
    }

    #[test]
    fn zero_bits_pack_nothing() {
        let mut packed = Vec::new();
        pack(&[0, 0, 0], 0, &mut packed);
        assert!(packed.is_empty());
        let mut out = Vec::new();
        unpack(&[], 0, 5, &mut out);
        assert_eq!(out, vec![0; 5]);
        assert_eq!(get_one(&[], 0, 3), 0);
    }

    #[test]
    fn block_of_32_is_byte_aligned() {
        for bits in 1..=64u8 {
            assert_eq!((32 * bits as usize) % 8, 0);
            let values = vec![0u64; 32];
            let mut packed = Vec::new();
            pack(&values, bits, &mut packed);
            assert_eq!(packed.len(), 32 * bits as usize / 8);
        }
    }

    #[test]
    fn bits_for_max_boundaries() {
        assert_eq!(bits_for_max(0), 0);
        assert_eq!(bits_for_max(1), 1);
        assert_eq!(bits_for_max(2), 2);
        assert_eq!(bits_for_max(255), 8);
        assert_eq!(bits_for_max(256), 9);
        assert_eq!(bits_for_max(u64::MAX), 64);
    }

    #[test]
    fn boundary_values() {
        roundtrip(&[0, 1, 0, 1], 1);
        roundtrip(&[(1 << 15) - 1, 0, 12345], 15);
        roundtrip(&[u64::MAX, 0, u64::MAX / 2], 64);
    }

    #[test]
    fn get_one_at_straddling_positions() {
        // 7-bit values straddle byte boundaries in every possible phase.
        let values: Vec<u64> = (0..128).map(|i| i % 128).collect();
        roundtrip(&values, 7);
    }
}
