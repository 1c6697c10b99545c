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

/// The values of a packed stream, read a word at a time — the inverse of
/// [`pack_from`], for re-packing a stream at another width without
/// materializing it.
pub(crate) fn unpack_iter(data: &[u8], bits: u8, count: usize) -> impl Iterator<Item = u64> + '_ {
    debug_assert!(bits <= 64);
    let mask = if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    let bits = u32::from(bits);
    let mut words = data.chunks(8).map(|w| {
        let mut word = [0u8; 8];
        word[..w.len()].copy_from_slice(w);
        u64::from_le_bytes(word)
    });
    let mut acc = 0u64;
    let mut have = 0u32;
    (0..count).map(move |_| {
        if bits == 0 {
            return 0;
        }
        if have >= bits {
            let v = acc & mask;
            acc = if bits == 64 { 0 } else { acc >> bits };
            have -= bits;
            return v;
        }
        // `have < bits <= 64`: finish the value from the next word.
        let next = words.next().expect("bitpack underflow");
        let v = (acc | (next << have)) & mask;
        let used = bits - have;
        acc = if used == 64 { 0 } else { next >> used };
        have = 64 - used;
        v
    })
}

/// Random access into packed `bits`-bit values — what every decode loop
/// and compressed-domain kernel reads packed data through, so a block is
/// unpacked straight into its consumer (a frame add, a dictionary
/// lookup, a predicate test) with no staging vector in between.
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
/// appending. `bits == 0` appends `count` zeros.
pub fn unpack(data: &[u8], bits: u8, count: usize, out: &mut Vec<u64>) {
    let packed = Packed::new(data, bits);
    out.extend((0..count).map(|i| packed.get(i)));
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
                let back: Vec<u64> = unpack_iter(&expect, bits, count).collect();
                assert_eq!(back, values, "bits={bits} count={count}");
            }
        }
    }

    #[test]
    fn pack_from_drains_its_iterator_even_at_zero_bits() {
        let mut seen = 0;
        let mut out = Vec::new();
        pack_from((0..10).inspect(|_| seen += 1).map(|_| 0), 10, 0, &mut out);
        assert_eq!((seen, out.len()), (10, 0));
        assert_eq!(unpack_iter(&[], 0, 3).collect::<Vec<_>>(), vec![0; 3]);
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
