//! Dictionary encoding (paper §3.1.3).
//!
//! The header starts with 8 bytes containing the number of dictionary
//! entries, followed by enough space to contain `2^bits` entries — which is
//! what allows the dictionary to grow up to its limit without moving the
//! packed index data. Entries are stored at the stream's element width, so
//! narrowing a dictionary-encoded column costs `O(2^bits)` (rewriting the
//! entries), independent of the number of rows (§3.4.1).
//!
//! Packed values are indexes into the entry table in order of first
//! appearance; the sorted-heap manipulation of §3.4.3 permutes the entry
//! *values* in place without touching the indexes.

use crate::bitpack;
use crate::cuckoo::CuckooMap;
use crate::header::{self, HeaderView};
use crate::splice::{kept_codes, Packer, Tally};
use crate::{Algorithm, EncodingFull, DICT_MAX_BITS};
use tde_types::Width;

/// Offset of the entry count within the header.
pub const OFF_ENTRY_COUNT: usize = header::COMMON_LEN;

/// Offset of the first entry slot.
pub const OFF_ENTRIES: usize = header::COMMON_LEN + 8;

/// Create an empty dictionary stream buffer with room for `2^bits` entries.
pub fn new_stream(width: Width, block_size: usize, signed: bool, bits: u8) -> Vec<u8> {
    assert!(
        bits <= DICT_MAX_BITS,
        "dictionary encodings are limited to 2^{DICT_MAX_BITS} values"
    );
    let slots = 1usize << bits;
    let extra = 8 + slots * width.bytes();
    let mut buf = header::make_common(
        Algorithm::Dictionary,
        width,
        bits,
        block_size,
        signed,
        extra,
    );
    header::put_u64(&mut buf, OFF_ENTRY_COUNT, 0);
    buf
}

/// Number of dictionary entries.
pub fn entry_count(buf: &[u8]) -> usize {
    header::get_u64(buf, OFF_ENTRY_COUNT) as usize
}

/// Read entry `i` at the stream's current element width.
#[inline]
pub fn entry(buf: &[u8], h: &HeaderView, i: usize) -> i64 {
    header::get_fixed(buf, OFF_ENTRIES + i * h.width.bytes(), h.width, h.signed)
}

/// All entries in insertion order.
pub fn entries(buf: &[u8], h: &HeaderView) -> Vec<i64> {
    (0..entry_count(buf)).map(|i| entry(buf, h, i)).collect()
}

/// Overwrite entry `i`. Used by the narrowing and heap-sorting
/// manipulations; the packed index data is untouched.
pub fn set_entry(buf: &mut [u8], h: &HeaderView, i: usize, v: i64) {
    header::put_fixed(buf, OFF_ENTRIES + i * h.width.bytes(), h.width, v);
}

/// Rebuild the transient value→index cuckoo map from the stored entries
/// (after deserializing a stream we want to append to).
pub fn rebuild_index(buf: &[u8], h: &HeaderView) -> CuckooMap {
    let n = entry_count(buf);
    let mut m = CuckooMap::with_capacity(n.max(1 << h.bits.min(8)));
    for i in 0..n {
        m.insert(entry(buf, h, i), i as u16);
    }
    m
}

/// Append one block. New distinct values are added to the dictionary; if
/// the block would push the entry count past `2^bits` the buffer is left
/// unchanged and the dynamic encoder re-encodes with more bits or a
/// different algorithm.
pub fn append_block(
    buf: &mut Vec<u8>,
    h: &HeaderView,
    vals: &[i64],
    index: &mut CuckooMap,
) -> Result<(), EncodingFull> {
    let capacity = 1usize << h.bits;
    let existing = entry_count(buf);
    let start = buf.len();
    // Values first seen in this block, in order of appearance. They enter
    // `index` at once (so a second occurrence finds them) and the header
    // only when the whole block is known to fit.
    let mut fresh: Vec<i64> = Vec::new();
    let mut full = false;
    let indexes = vals.iter().map(|&v| match index.get(v) {
        Some(i) => u64::from(i),
        None => {
            let i = existing + fresh.len();
            if i >= capacity {
                full = true;
                return 0;
            }
            fresh.push(v);
            index.insert(v, i as u16);
            i as u64
        }
    });
    bitpack::pack_block_from(indexes, vals.len(), h.block_size, h.bits, buf);
    if full {
        for &v in &fresh {
            index.remove(v);
        }
        buf.truncate(start);
        return Err(EncodingFull::DictionaryFull);
    }
    for (k, &v) in fresh.iter().enumerate() {
        set_entry(buf, h, existing + k, v);
    }
    header::put_u64(buf, OFF_ENTRY_COUNT, (existing + fresh.len()) as u64);
    Ok(())
}

/// Move the dictionary stream `old`, without the rows at `dropped`
/// (ascending positions), into `to`, an empty dictionary stream of
/// another index width: the entries are copied in order and the packed
/// indexes re-packed, nothing is looked up. When the entries outnumber
/// `to`'s slots, those no surviving row uses are dropped and the indexes
/// renumbered. Fails, leaving `to` without entries, if the entries the
/// rows use still do not fit.
pub(crate) fn repack<T: Tally>(
    old: &[u8],
    oh: &HeaderView,
    dropped: &[u64],
    to: &mut Packer<T>,
) -> Result<(), EncodingFull> {
    let th = HeaderView::parse(&to.out);
    let mut entries = entries(old, oh);
    let mut renumber = None;
    if entries.len() > 1 << th.bits {
        let mut used = vec![false; entries.len()];
        kept_codes(
            old,
            oh,
            dropped,
            |code| code,
            |codes| codes.iter().for_each(|&c| used[c as usize] = true),
        );
        let mut next = 0;
        let codes: Vec<u64> = used
            .iter()
            .map(|&u| {
                let code = next;
                next += u64::from(u);
                code
            })
            .collect();
        let mut used = used.into_iter();
        entries.retain(|_| used.next() == Some(true));
        if entries.len() > 1 << th.bits {
            return Err(EncodingFull::DictionaryFull);
        }
        renumber = Some(codes);
    }
    for (i, &e) in entries.iter().enumerate() {
        set_entry(&mut to.out, &th, i, e);
    }
    header::put_u64(&mut to.out, OFF_ENTRY_COUNT, entries.len() as u64);
    match renumber {
        Some(codes) => to.push_packed(old, oh, dropped, |code| codes[code as usize]),
        None => to.push_packed(old, oh, dropped, |code| code),
    }
    Ok(())
}

/// Replace each code in `vals` by its entry: one fixed-size load from
/// the header slot the code indexes, the width and signedness fixed
/// outside the loop. A code past the entries (never written by an
/// append) reads its slot, as [`entry`] does.
pub(crate) fn codes_to_values(buf: &[u8], h: &HeaderView, vals: &mut [i64]) {
    fn lookup<const N: usize, const SIGNED: bool>(slots: &[u8], vals: &mut [i64]) {
        // The header holds 2^bits slots and a code has `bits` bits, so
        // the clamp never moves a code; it lets each read go unchecked.
        let (slots, _) = slots.as_chunks::<N>();
        let last = slots.len().saturating_sub(1);
        for v in vals {
            *v = header::load::<N, SIGNED>(&slots[(*v as usize).min(last)]);
        }
    }
    let slots = &buf[OFF_ENTRIES..h.data_offset];
    match (h.width, h.signed) {
        (Width::W1, true) => lookup::<1, true>(slots, vals),
        (Width::W1, false) => lookup::<1, false>(slots, vals),
        (Width::W2, true) => lookup::<2, true>(slots, vals),
        (Width::W2, false) => lookup::<2, false>(slots, vals),
        (Width::W4, true) => lookup::<4, true>(slots, vals),
        (Width::W4, false) => lookup::<4, false>(slots, vals),
        (Width::W8, _) => lookup::<8, false>(slots, vals),
    }
}

/// Unpack a full physical block's codes — the entry indexes, not the
/// entries — for a consumer that works on codes.
pub fn unpack_codes(buf: &[u8], h: &HeaderView, block_idx: usize, out: &mut Vec<i64>) {
    bitpack::unpack_block(
        h.packed_block(buf, block_idx),
        h.bits,
        h.block_size,
        out,
        |c| c as i64,
    );
}

/// Read the codes of only the rows at `positions` (local to block
/// `block_idx`), one packed read each — for a selection too sparse to
/// unpack the block.
pub fn gather_codes(
    buf: &[u8],
    h: &HeaderView,
    block_idx: usize,
    positions: &[u32],
    out: &mut Vec<i64>,
) {
    let codes = bitpack::Packed::new(h.packed_block(buf, block_idx), h.bits);
    out.extend(positions.iter().map(|&i| codes.get(i as usize) as i64));
}

/// Decode a full physical block: unpack its codes, then look each up.
pub fn decode_block(buf: &[u8], h: &HeaderView, block_idx: usize, out: &mut Vec<i64>) {
    let start = out.len();
    unpack_codes(buf, h, block_idx, out);
    codes_to_values(buf, h, &mut out[start..]);
}

/// Decode only the rows at `positions` (local to block `block_idx`), one
/// packed read each.
pub fn gather_block(
    buf: &[u8],
    h: &HeaderView,
    block_idx: usize,
    positions: &[u32],
    out: &mut Vec<i64>,
) {
    let start = out.len();
    gather_codes(buf, h, block_idx, positions, out);
    codes_to_values(buf, h, &mut out[start..]);
}

/// Random access.
pub fn get(buf: &[u8], h: &HeaderView, idx: u64) -> i64 {
    let p = bitpack::get_one(&buf[h.data_offset..], h.bits, idx as usize);
    entry(buf, h, p as usize)
}

/// The packed index (not the value) at `idx` — used when converting a
/// dictionary *encoding* into dictionary *compression* (§3.4.3), where the
/// indexes become the new column data.
pub fn get_index(buf: &[u8], h: &HeaderView, idx: u64) -> u64 {
    bitpack::get_one(&buf[h.data_offset..], h.bits, idx as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EncodedStream, BLOCK_SIZE};

    #[test]
    fn entries_in_first_appearance_order() {
        let mut s = EncodedStream::new_dict(Width::W8, true, 4);
        s.append_block(&[30, 10, 20, 10, 30]).unwrap();
        assert_eq!(s.dict_entries().unwrap(), vec![30, 10, 20]);
    }

    #[test]
    fn failed_append_leaves_buffer_unchanged() {
        let mut s = EncodedStream::new_dict(Width::W8, true, 2);
        let block: Vec<i64> = (0..BLOCK_SIZE as i64).map(|i| i % 4).collect();
        s.append_block(&block).unwrap();
        let snapshot = s.as_bytes().to_vec();
        // 5 distinct values > 4 capacity: fails even though 0..3 exist.
        let bad: Vec<i64> = (0..BLOCK_SIZE as i64).map(|i| i % 5).collect();
        assert_eq!(s.append_block(&bad), Err(EncodingFull::DictionaryFull));
        assert_eq!(s.as_bytes(), &snapshot[..]);
        // And the stream still accepts valid appends afterwards.
        s.append_block(&block).unwrap();
        assert_eq!(s.len(), 2 * BLOCK_SIZE as u64);
    }

    #[test]
    fn negative_values_narrow_width() {
        let mut s = EncodedStream::new_dict(Width::W1, true, 3);
        s.append_block(&[-5, 3, -128, 127]).unwrap();
        assert_eq!(s.decode_all(), vec![-5, 3, -128, 127]);
    }

    #[test]
    fn index_stream_access() {
        let mut s = EncodedStream::new_dict(Width::W8, true, 4);
        s.append_block(&[100, 200, 100, 300]).unwrap();
        let h = s.header();
        assert_eq!(get_index(s.as_bytes(), &h, 0), 0);
        assert_eq!(get_index(s.as_bytes(), &h, 1), 1);
        assert_eq!(get_index(s.as_bytes(), &h, 2), 0);
        assert_eq!(get_index(s.as_bytes(), &h, 3), 2);
    }

    #[test]
    fn codes_read_alike_whole_and_per_row() {
        let vals: Vec<i64> = (0..3000i64).map(|i| (i * 37) % 11 * 1000).collect();
        let mut s = EncodedStream::new_dict(Width::W8, true, 4);
        for chunk in vals.chunks(BLOCK_SIZE) {
            s.append_block(chunk).unwrap();
        }
        let (buf, h) = (s.as_bytes(), s.header());
        let entries = entries(buf, &h);
        for (b, chunk) in vals.chunks(BLOCK_SIZE).enumerate() {
            let mut codes = Vec::new();
            unpack_codes(buf, &h, b, &mut codes);
            codes.truncate(chunk.len());
            let looked_up: Vec<i64> = codes.iter().map(|&c| entries[c as usize]).collect();
            assert_eq!(looked_up, chunk);
            let positions: Vec<u32> = (0..chunk.len() as u32).step_by(7).collect();
            let mut some = Vec::new();
            gather_codes(buf, &h, b, &positions, &mut some);
            let want: Vec<i64> = positions.iter().map(|&p| codes[p as usize]).collect();
            assert_eq!(some, want);
        }
    }

    #[test]
    fn max_bits_dictionary() {
        let mut s = EncodedStream::new_dict(Width::W8, true, DICT_MAX_BITS);
        let vals: Vec<i64> = (0..(1i64 << DICT_MAX_BITS)).collect();
        for chunk in vals.chunks(BLOCK_SIZE) {
            s.append_block(chunk).unwrap();
        }
        assert_eq!(s.dict_entries().unwrap().len(), 1 << DICT_MAX_BITS);
        assert_eq!(s.decode_all(), vals);
    }
}
