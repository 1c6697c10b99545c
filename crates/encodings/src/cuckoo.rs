//! A small cuckoo hash map from values to dictionary indexes.
//!
//! The dictionary encoding limits itself to 2¹⁵ values partly "to keep the
//! dictionary in cache and make the compression cuckoo hash table
//! implementation simple and fast" (paper §3.1.3). Two multiply-shift hash
//! functions over a single slot array; inserts evict along a bounded walk
//! and rehash into a doubled table when the walk fails.

/// Maps `i64` values to `u16` dictionary indexes.
#[derive(Debug, Clone)]
pub struct CuckooMap {
    slots: Vec<Option<(i64, u16)>>,
    shift: u32,
    len: usize,
}

const MAX_KICKS: usize = 64;
const H1_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
const H2_MUL: u64 = 0xC2B2_AE3D_27D4_EB4F;

impl CuckooMap {
    /// Create a map sized for roughly `expected` entries (the table keeps a
    /// load factor of at most ½, the regime where cuckoo insertion whp
    /// succeeds quickly).
    pub fn with_capacity(expected: usize) -> CuckooMap {
        let cap = (expected.max(8) * 2).next_power_of_two();
        CuckooMap {
            slots: vec![None; cap],
            shift: 64 - cap.trailing_zeros(),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn h1(&self, key: i64) -> usize {
        ((key as u64).wrapping_mul(H1_MUL) >> self.shift) as usize
    }

    #[inline]
    fn h2(&self, key: i64) -> usize {
        ((key as u64).wrapping_mul(H2_MUL) >> self.shift) as usize
    }

    /// Look up the index for `key`.
    #[inline]
    pub fn get(&self, key: i64) -> Option<u16> {
        if let Some((k, v)) = self.slots[self.h1(key)] {
            if k == key {
                return Some(v);
            }
        }
        if let Some((k, v)) = self.slots[self.h2(key)] {
            if k == key {
                return Some(v);
            }
        }
        None
    }

    /// Insert `key -> index`. The key must not already be present.
    pub fn insert(&mut self, key: i64, index: u16) {
        debug_assert!(self.get(key).is_none(), "duplicate cuckoo insert");
        self.len += 1;
        if self.len * 2 > self.slots.len() {
            self.grow();
        }
        let mut entry = (key, index);
        loop {
            match self.try_place(entry) {
                None => return,
                Some(evicted) => {
                    entry = evicted;
                    self.grow();
                }
            }
        }
    }

    /// Remove `key` if present (the dictionary append takes back the
    /// entries of a block that turned out not to fit).
    pub fn remove(&mut self, key: i64) {
        for slot in [self.h1(key), self.h2(key)] {
            if matches!(self.slots[slot], Some((k, _)) if k == key) {
                self.slots[slot] = None;
                self.len -= 1;
                return;
            }
        }
    }

    /// Attempt a bounded cuckoo walk; returns the homeless entry on failure.
    fn try_place(&mut self, mut entry: (i64, u16)) -> Option<(i64, u16)> {
        let mut slot = self.h1(entry.0);
        for kick in 0..MAX_KICKS {
            match self.slots[slot].replace(entry) {
                None => return None,
                Some(evicted) => {
                    entry = evicted;
                    // Move the evicted entry to its alternate slot.
                    let alt1 = self.h1(entry.0);
                    slot = if slot == alt1 { self.h2(entry.0) } else { alt1 };
                    let _ = kick;
                }
            }
        }
        Some(entry)
    }

    /// Double the table and re-place every entry.
    fn grow(&mut self) {
        loop {
            let old = std::mem::replace(&mut self.slots, vec![None; 0]);
            self.slots = vec![None; old.len() * 2];
            self.shift -= 1;
            let mut ok = true;
            for e in old.into_iter().flatten() {
                if self.try_place(e).is_some() {
                    ok = false;
                    break;
                }
            }
            if ok {
                return;
            }
            // Pathological collision set: double again.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut m = CuckooMap::with_capacity(16);
        for i in 0..100i64 {
            m.insert(i * 7919, i as u16);
        }
        assert_eq!(m.len(), 100);
        for i in 0..100i64 {
            assert_eq!(m.get(i * 7919), Some(i as u16));
        }
        assert_eq!(m.get(1), None);
    }

    #[test]
    fn full_dictionary_domain() {
        // The paper's worst case: 2^15 distinct values.
        let mut m = CuckooMap::with_capacity(1 << 15);
        for i in 0..(1u16 << 15) {
            m.insert(i64::from(i) * 1_000_003 - 5_000_000, i);
        }
        for i in 0..(1u16 << 15) {
            assert_eq!(m.get(i64::from(i) * 1_000_003 - 5_000_000), Some(i));
        }
    }

    #[test]
    fn negative_and_extreme_keys() {
        let mut m = CuckooMap::with_capacity(8);
        for (n, k) in [i64::MIN, i64::MAX, -1, 0, 1].into_iter().enumerate() {
            m.insert(k, n as u16);
        }
        assert_eq!(m.get(i64::MIN), Some(0));
        assert_eq!(m.get(i64::MAX), Some(1));
        assert_eq!(m.get(-1), Some(2));
        assert_eq!(m.get(2), None);
    }

    #[test]
    fn remove_forgets_only_that_key() {
        let mut m = CuckooMap::with_capacity(8);
        for i in 0..50i64 {
            m.insert(i * 31, i as u16);
        }
        m.remove(31 * 7);
        m.remove(12345); // absent: no effect
        assert_eq!(m.len(), 49);
        assert_eq!(m.get(31 * 7), None);
        assert_eq!(m.get(31 * 8), Some(8));
        m.insert(31 * 7, 99);
        assert_eq!(m.get(31 * 7), Some(99));
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m = CuckooMap::with_capacity(4);
        for i in 0..1000i64 {
            m.insert(i, (i % 65536) as u16);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(999), Some(999));
    }
}
