//! Grouping/join hash strategies (paper §2.3.4).
//!
//! Hashing performance is driven by key width: 1–2 bytes allows *direct*
//! hashing with a small 64K-element lookup table; 3–8 packed bytes admit a
//! *perfect* hash (the packed key is its own identity, so an open-addressed
//! table compares one word per probe, never the tuple); anything wider
//! needs full *collision* handling on the key tuple. Narrowing columns (§3.4.1) exists precisely to push keys down
//! this ladder.

use std::collections::HashMap;

/// The chosen grouping strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HashStrategy {
    /// Keys pack into ≤ 16 bits: the packed key indexes a 64K table.
    Direct64K,
    /// Keys pack into ≤ 64 bits: open addressing on the packed key, a
    /// probe compares one word, never the tuple.
    Perfect,
    /// Wide keys: a hash map on the key tuple.
    Collision,
}

impl HashStrategy {
    /// Human-readable name for explain output.
    pub fn name(self) -> &'static str {
        match self {
            HashStrategy::Direct64K => "direct-64k",
            HashStrategy::Perfect => "perfect",
            HashStrategy::Collision => "collision",
        }
    }
}

/// Packing plan for the direct/perfect strategies: per key column, a bias
/// (the column minimum) and a bit shift.
#[derive(Debug, Clone)]
pub struct KeyPacking {
    /// Per-column (bias, shift, bits).
    pub parts: Vec<(i64, u32, u32)>,
    /// Total packed bits.
    pub total_bits: u32,
}

impl KeyPacking {
    /// Plan a packing from per-column (min, max) ranges. Returns `None`
    /// when a range is unknown or the packed key exceeds 64 bits.
    pub fn plan(ranges: &[Option<(i64, i64)>]) -> Option<KeyPacking> {
        let mut parts = Vec::with_capacity(ranges.len());
        let mut shift = 0u32;
        for r in ranges {
            let (lo, hi) = (*r)?;
            let span = (hi as i128) - (lo as i128);
            debug_assert!(span >= 0);
            let bits = if span == 0 {
                0
            } else {
                128 - (span as u128).leading_zeros()
            };
            if shift + bits > 64 {
                return None;
            }
            parts.push((lo, shift, bits));
            shift += bits;
        }
        Some(KeyPacking {
            parts,
            total_bits: shift,
        })
    }

    /// Pack one key tuple.
    #[inline]
    pub fn pack(&self, key: &[i64]) -> u64 {
        let mut out = 0u64;
        for (v, (bias, shift, _)) in key.iter().zip(&self.parts) {
            out |= ((v.wrapping_sub(*bias)) as u64) << shift;
        }
        out
    }

    /// Pack `rows` rows of the key columns `cols` into `out` (replacing
    /// its contents), a column at a time.
    pub(crate) fn pack_rows(&self, cols: &[&[i64]], rows: usize, out: &mut Vec<u64>) {
        out.clear();
        out.resize(rows, 0);
        for (col, &(bias, shift, _)) in cols.iter().zip(&self.parts) {
            for (o, &v) in out.iter_mut().zip(&col[..rows]) {
                *o |= (v.wrapping_sub(bias) as u64) << shift;
            }
        }
    }
}

/// Group keys in group-id order, stored flat: group `g`'s key is
/// `keys[g * width..(g + 1) * width]`.
#[derive(Debug, Clone, Default)]
pub struct KeyList {
    width: usize,
    len: usize,
    keys: Vec<i64>,
}

impl KeyList {
    /// An empty list of `width`-column keys.
    pub fn new(width: usize) -> KeyList {
        KeyList {
            width,
            len: 0,
            keys: Vec::new(),
        }
    }

    /// Number of keys (groups).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Group `g`'s key.
    pub fn key(&self, g: usize) -> &[i64] {
        &self.keys[g * self.width..(g + 1) * self.width]
    }

    /// Append a key.
    pub(crate) fn push(&mut self, key: &[i64]) {
        debug_assert_eq!(key.len(), self.width);
        self.keys.extend_from_slice(key);
        self.len += 1;
    }

    /// Append row `r` of the key columns.
    fn push_row(&mut self, cols: &[&[i64]], r: usize) {
        self.keys.extend(cols.iter().map(|c| c[r]));
        self.len += 1;
    }

    /// Drop the first `n` keys.
    pub(crate) fn drain_front(&mut self, n: usize) {
        self.keys.drain(..n * self.width);
        self.len -= n;
    }

    /// The id of `key` when it is the last key, else a new id for it —
    /// grouping by runs of equal keys.
    pub(crate) fn run_slot(&mut self, key: &[i64]) -> usize {
        if self.len == 0 || self.key(self.len - 1) != key {
            self.push(key);
        }
        self.len - 1
    }

    /// [`KeyList::run_slot`] for every row of `cols` (`rows` rows),
    /// appending the ids to `gids`.
    pub(crate) fn run_ids(&mut self, cols: &[&[i64]], rows: usize, gids: &mut Vec<u32>) {
        for r in 0..rows {
            let same = self.len > 0 && {
                let last = self.key(self.len - 1);
                cols.iter().zip(last).all(|(c, &k)| c[r] == k)
            };
            if !same {
                self.push_row(cols, r);
            }
            gids.push((self.len - 1) as u32);
        }
    }
}

/// An open-addressed table from packed keys to group ids: linear
/// probing, Fibonacci hashing of the packed `u64`, at most 3/4 full.
/// Packed keys are their own identity, so a probe compares one word.
#[derive(Debug, Clone)]
struct PackedTable {
    /// `(packed key, group id)`; an id of [`EMPTY`] marks a free slot.
    slots: Vec<(u64, u32)>,
    /// `64 - log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
    len: usize,
}

/// The multiplier of Fibonacci hashing (2^64 / φ).
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// The slot a packed key hashes to in a table of `2^(64 - shift)`
/// slots — the start of its probe sequence.
#[inline]
pub fn packed_slot(packed: u64, shift: u32) -> usize {
    (packed.wrapping_mul(FIB) >> shift) as usize
}

impl PackedTable {
    const INITIAL_BITS: u32 = 10;

    fn new() -> PackedTable {
        PackedTable {
            slots: vec![(0, EMPTY); 1 << Self::INITIAL_BITS],
            shift: 64 - Self::INITIAL_BITS,
            len: 0,
        }
    }

    /// The id of `packed`, inserting `fresh` as its id when absent.
    #[inline]
    fn get_or_insert(&mut self, packed: u64, fresh: u32) -> u32 {
        let mask = self.slots.len() - 1;
        let mut i = packed_slot(packed, self.shift);
        loop {
            let (k, g) = self.slots[i];
            if g == EMPTY {
                self.slots[i] = (packed, fresh);
                self.len += 1;
                if self.len * 4 > self.slots.len() * 3 {
                    self.grow();
                }
                return fresh;
            }
            if k == packed {
                return g;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let doubled = vec![(0, EMPTY); self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        for (k, g) in old.into_iter().filter(|&(_, g)| g != EMPTY) {
            let mut i = packed_slot(k, self.shift);
            while self.slots[i].1 != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = (k, g);
        }
    }
}

/// A group map: key tuple → dense group id, ids assigned in order of
/// first sight.
pub struct GroupMap {
    index: Index,
    keys: KeyList,
    /// Per-block scratch: the packed keys.
    packed: Vec<u64>,
}

enum Index {
    /// A table on the packed key.
    Packed {
        packing: KeyPacking,
        table: PackedIndex,
    },
    /// Collision-checked tuple hash.
    Collision(HashMap<Vec<i64>, u32>),
}

enum PackedIndex {
    /// Direct 64K lookup table.
    Direct(Vec<u32>),
    /// Open addressing on the packed key.
    Perfect(PackedTable),
}

const EMPTY: u32 = u32::MAX;

/// The group id a lookup assigns: `lookup(fresh)` returns the key's id,
/// inserting `fresh` (the next id) when the key is absent, and a fresh
/// id appends the key's tuple via `push` — the one place first-sight
/// order is kept, for every strategy.
#[inline]
fn first_sight(
    keys: &mut KeyList,
    lookup: impl FnOnce(u32) -> u32,
    push: impl FnOnce(&mut KeyList),
) -> u32 {
    let fresh = keys.len() as u32;
    let g = lookup(fresh);
    if g == fresh {
        push(keys);
    }
    g
}

/// The direct table's lookup: the packed key is the slot.
#[inline]
fn direct_id(table: &mut [u32], p: u64, fresh: u32) -> u32 {
    let slot = &mut table[p as usize];
    if *slot == EMPTY {
        *slot = fresh;
    }
    *slot
}

impl GroupMap {
    /// Build a map for `width`-column keys under the chosen strategy
    /// (`packing` required for the packed strategies).
    pub fn new(strategy: HashStrategy, packing: Option<KeyPacking>, width: usize) -> GroupMap {
        let packed = |table| Index::Packed {
            packing: packing.expect("packed strategies need a packing"),
            table,
        };
        let index = match strategy {
            HashStrategy::Direct64K => packed(PackedIndex::Direct(vec![EMPTY; 1 << 16])),
            HashStrategy::Perfect => packed(PackedIndex::Perfect(PackedTable::new())),
            HashStrategy::Collision => Index::Collision(HashMap::new()),
        };
        GroupMap {
            index,
            keys: KeyList::new(width),
            packed: Vec::new(),
        }
    }

    /// The group id for `key`, allocating a new group on first sight.
    pub fn get_or_insert(&mut self, key: &[i64]) -> usize {
        let push = |k: &mut KeyList| k.push(key);
        let g = match &mut self.index {
            Index::Packed { packing, table } => {
                let p = packing.pack(key);
                match table {
                    PackedIndex::Direct(t) => {
                        first_sight(&mut self.keys, |f| direct_id(t, p, f), push)
                    }
                    PackedIndex::Perfect(t) => {
                        first_sight(&mut self.keys, |f| t.get_or_insert(p, f), push)
                    }
                }
            }
            Index::Collision(map) => first_sight(
                &mut self.keys,
                |f| match map.get(key) {
                    Some(&g) => g,
                    None => *map.entry(key.to_vec()).or_insert(f),
                },
                push,
            ),
        };
        g as usize
    }

    /// The group id of every row of the key columns `cols` (`rows`
    /// rows), appended to `gids` — new keys get new ids in row order.
    pub(crate) fn ids(&mut self, cols: &[&[i64]], rows: usize, gids: &mut Vec<u32>) {
        let Index::Packed { packing, table } = &mut self.index else {
            let mut key = Vec::with_capacity(cols.len());
            for r in 0..rows {
                key.clear();
                key.extend(cols.iter().map(|c| c[r]));
                gids.push(self.get_or_insert(&key) as u32);
            }
            return;
        };
        packing.pack_rows(cols, rows, &mut self.packed);
        let (keys, packed) = (&mut self.keys, self.packed.iter().enumerate());
        // One loop per table, so each inlines its own lookup.
        match table {
            PackedIndex::Direct(t) => {
                gids.extend(packed.map(|(r, &p)| {
                    first_sight(keys, |f| direct_id(t, p, f), |k| k.push_row(cols, r))
                }))
            }
            PackedIndex::Perfect(t) => gids.extend(packed.map(|(r, &p)| {
                first_sight(keys, |f| t.get_or_insert(p, f), |k| k.push_row(cols, r))
            })),
        }
    }

    /// The distinct keys in group-id order.
    pub fn keys(&self) -> &KeyList {
        &self.keys
    }

    /// The keys alone, dropping the index.
    pub(crate) fn into_keys(self) -> KeyList {
        self.keys
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no group has been seen.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(mut m: GroupMap) {
        let keys: Vec<Vec<i64>> = (0..50).map(|i| vec![i % 10, 100 + i % 5]).collect();
        let mut ids = Vec::new();
        for k in &keys {
            ids.push(m.get_or_insert(k));
        }
        // 10 × 5 combinations but correlated: i%10 and i%5 give 10 groups.
        assert_eq!(m.len(), 10);
        // Same key, same id.
        for (k, &id) in keys.iter().zip(&ids) {
            assert_eq!(m.get_or_insert(k), id);
            assert_eq!(m.keys().key(id), &k[..]);
        }
    }

    #[test]
    fn all_strategies_agree() {
        let ranges = [Some((0i64, 9)), Some((100, 104))];
        let packing = KeyPacking::plan(&ranges).unwrap();
        assert!(packing.total_bits <= 16);
        exercise(GroupMap::new(
            HashStrategy::Direct64K,
            Some(packing.clone()),
            2,
        ));
        exercise(GroupMap::new(HashStrategy::Perfect, Some(packing), 2));
        exercise(GroupMap::new(HashStrategy::Collision, None, 2));
    }

    #[test]
    fn open_addressing_survives_colliding_keys_and_growth() {
        // Keys chosen to share their first probe slot in the initial
        // table, then enough more to force several growths.
        let shift = 64 - PackedTable::INITIAL_BITS;
        let target = packed_slot(0, shift);
        let colliding: Vec<u64> = (0..1u64 << 24)
            .filter(|&k| packed_slot(k, shift) == target)
            .take(40)
            .collect();
        assert_eq!(colliding.len(), 40);
        let mut keys = colliding.clone();
        keys.extend(0..5000u64);
        let packing = KeyPacking::plan(&[Some((0, 1 << 24))]).unwrap();
        let mut m = GroupMap::new(HashStrategy::Perfect, Some(packing), 1);
        let mut first: std::collections::HashMap<u64, usize> = Default::default();
        for (i, &k) in keys.iter().chain(&keys).enumerate() {
            let g = m.get_or_insert(&[k as i64]);
            let next = first.len();
            let expect = *first.entry(k).or_insert(next);
            assert_eq!(g, expect, "key {k} at {i}");
        }
        assert_eq!(m.len(), first.len());
    }

    #[test]
    fn packing_plan_bounds() {
        // 2^32 span twice = 64 bits: fits exactly.
        let p =
            KeyPacking::plan(&[Some((0, (1i64 << 32) - 1)), Some((0, (1i64 << 32) - 1))]).unwrap();
        assert_eq!(p.total_bits, 64);
        // One more bit does not fit.
        assert!(KeyPacking::plan(&[Some((0, (1i64 << 32) - 1)), Some((0, 1i64 << 32)),]).is_none());
        // Unknown range defeats packing.
        assert!(KeyPacking::plan(&[None]).is_none());
    }

    #[test]
    fn packing_handles_negative_bias() {
        let p = KeyPacking::plan(&[Some((-50, 49))]).unwrap();
        assert_eq!(p.pack(&[-50]), 0);
        assert_eq!(p.pack(&[49]), 99);
    }

    #[test]
    fn constant_key_packs_to_zero_bits() {
        let p = KeyPacking::plan(&[Some((7, 7)), Some((0, 3))]).unwrap();
        assert_eq!(p.total_bits, 2);
        assert_eq!(p.pack(&[7, 2]), 2);
    }
}
