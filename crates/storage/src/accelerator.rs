//! The heap accelerator (paper §3.4.3, §5.1.4).
//!
//! An optional object attached to a string column during creation that
//! maintains a hash table of every string seen so far. It keeps the heap
//! *distinct* (each string stored once, so columns get unique tokens) and
//! tracks domain statistics as a side effect.
//!
//! The table is open-addressed and holds a 32-bit hash and a token per
//! slot, in two parallel arrays: the strings themselves live in the heap,
//! a probe walks the hash array alone, and only a slot whose stored hash
//! matches is confirmed by comparing the candidate's heap bytes — the
//! "heap collision comparisons" whose cost the paper weighs against the
//! I/O saved. Nothing is allocated per string; a repeat of the previous
//! string is answered from the remembered token before any hashing. The
//! accelerator gives up once the entry count passes its threshold (2³¹ in
//! the paper; configurable here so tests and benches can exercise the
//! give-up path).
//!
//! The same table maps strings to an existing heap's tokens: the delta
//! store seeds one per base heap ([`HeapAccelerator::from_heap`]) and
//! translates appended strings with read-only
//! [`HeapAccelerator::lookup`]s.

use crate::heap::StringHeap;
use tde_types::sentinel::NULL_TOKEN;
use tde_types::Collation;

/// Default give-up threshold (paper §5.1.4). Also the most the table can
/// hold: it is indexed by 32 hash bits and kept at most three-quarters full.
pub const DEFAULT_GIVE_UP: u64 = 1 << 31;

const INITIAL_SLOTS: usize = 64;

/// Stored hash of an empty slot; a computed hash of zero is stored as 1.
const EMPTY: u32 = 0;

/// Deduplicating accelerator over a [`StringHeap`].
#[derive(Debug)]
pub struct HeapAccelerator {
    /// Per slot, the low 32 bits of the entry's hash (`EMPTY` when free).
    hashes: Vec<u32>,
    /// Per slot, the entry's heap token. Read only on a hash match.
    tokens: Vec<u64>,
    distinct: u64,
    give_up_at: u64,
    active: bool,
    collation: Collation,
    inserts: u64,
    collisions: u64,
    sorted_so_far: bool,
    /// Token of the previous string (`NULL_TOKEN` before the first).
    last: u64,
    /// Keep only this many hash bits, so tests can make every probe collide.
    #[cfg(test)]
    hash_bits: u32,
}

/// Word-at-a-time hash of a byte string for [`Collation::Binary`]. Every
/// byte lands in some 8-byte word (the last word of a long string and the
/// halves of a short one overlap their neighbours rather than being
/// padded), the length seeds the state, and each word is folded in with a
/// 64×64→128-bit multiply.
#[inline]
fn hash_bytes(s: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    #[inline]
    fn fold(h: u64, word: u64) -> u64 {
        let m = u128::from(h ^ word) * u128::from(K);
        (m as u64) ^ (m >> 64) as u64
    }
    let n = s.len();
    let word = |at: usize| u64::from_le_bytes(s[at..at + 8].try_into().expect("8 bytes"));
    let half = |at: usize| {
        u64::from(u32::from_le_bytes(
            s[at..at + 4].try_into().expect("4 bytes"),
        ))
    };
    let mut h = (n as u64 ^ K).wrapping_mul(K);
    if n >= 8 {
        let mut at = 0;
        while at + 8 < n {
            h = fold(h, word(at));
            at += 8;
        }
        h = fold(h, word(n - 8));
    } else if n >= 4 {
        h = fold(h, half(0) | half(n - 4) << 32);
    } else if n > 0 {
        h = fold(
            h,
            u64::from(s[0]) | u64::from(s[n / 2]) << 8 | u64::from(s[n - 1]) << 16,
        );
    }
    fold(h, K)
}

impl HeapAccelerator {
    /// A new accelerator with the paper's give-up threshold.
    pub fn new(collation: Collation) -> HeapAccelerator {
        HeapAccelerator::with_threshold(collation, DEFAULT_GIVE_UP)
    }

    /// A new accelerator with a custom give-up threshold (at most
    /// [`DEFAULT_GIVE_UP`], what the table's 32 hash bits can index).
    pub fn with_threshold(collation: Collation, give_up_at: u64) -> HeapAccelerator {
        HeapAccelerator {
            hashes: vec![EMPTY; INITIAL_SLOTS],
            tokens: vec![NULL_TOKEN; INITIAL_SLOTS],
            distinct: 0,
            give_up_at: give_up_at.min(DEFAULT_GIVE_UP),
            active: true,
            collation,
            inserts: 0,
            collisions: 0,
            sorted_so_far: true,
            last: NULL_TOKEN,
            #[cfg(test)]
            hash_bits: 32,
        }
    }

    /// A [`Collation::Binary`] accelerator holding every entry `heap`
    /// already has, sized so seeding never grows the table. Where the heap
    /// repeats a string (built with the accelerator off) the *last* token
    /// wins. Strings interned afterwards must go into `heap` or a copy of
    /// it, since the seeded tokens address its bytes.
    pub fn from_heap(heap: &StringHeap) -> HeapAccelerator {
        let mut acc = HeapAccelerator::new(Collation::Binary);
        let slots = (heap.len() as usize * 4 / 3 + 1)
            .next_power_of_two()
            .max(INITIAL_SLOTS);
        acc.hashes = vec![EMPTY; slots];
        acc.tokens = vec![NULL_TOKEN; slots];
        for (token, s) in heap.entries() {
            let hash = acc.fold(hash_bytes(s));
            match acc.probe(heap, s, hash, &mut 0) {
                Ok(i) => acc.tokens[i] = token,
                Err(i) => {
                    acc.hashes[i] = hash;
                    acc.tokens[i] = token;
                    acc.distinct += 1;
                }
            }
        }
        acc
    }

    /// Whether the accelerator is still deduplicating.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Whether every string so far arrived in non-descending collation
    /// order (fortuitous sortedness, visible in Fig 6's no-encoding bars).
    pub fn input_was_sorted(&self) -> bool {
        self.sorted_so_far
    }

    /// Distinct strings in the table (zero once the accelerator gave up
    /// and released it).
    pub fn distinct_count(&self) -> u64 {
        self.distinct
    }

    /// Heap comparisons performed to confirm hash matches.
    pub fn collision_comparisons(&self) -> u64 {
        self.collisions
    }

    /// The 32 hash bits the table stores and indexes by; never `EMPTY`.
    #[inline]
    fn hash(&self, s: &str) -> u32 {
        self.fold(match self.collation {
            Collation::Binary => hash_bytes(s.as_bytes()),
            Collation::CaseFold => self.collation.hash(s),
        })
    }

    /// Fold a 64-bit hash into the stored 32 bits.
    #[inline]
    fn fold(&self, h: u64) -> u32 {
        // Fold the high half in: FNV's low bits alone are weak.
        let h = (h ^ (h >> 32)) as u32;
        #[cfg(test)]
        let h = if self.hash_bits < 32 {
            h & ((1 << self.hash_bits) - 1)
        } else {
            h
        };
        h.max(1)
    }

    /// Intern `s`: return the existing token when the heap already holds
    /// the string, otherwise append it. Once past the threshold the
    /// accelerator deactivates and every string is appended verbatim.
    pub fn intern(&mut self, heap: &mut StringHeap, s: &str) -> u64 {
        self.inserts += 1;
        if self.last != NULL_TOKEN {
            let prev = heap.entry_bytes(self.last);
            if prev == s.as_bytes() {
                if self.active {
                    self.collisions += 1;
                    return self.last;
                }
            } else if self.sorted_so_far {
                let descending = match self.collation {
                    Collation::Binary => prev > s.as_bytes(),
                    collation => {
                        collation.compare(heap.get_raw(self.last), s) == std::cmp::Ordering::Greater
                    }
                };
                if descending {
                    self.sorted_so_far = false;
                }
            }
        }
        if !self.active {
            self.last = heap.append(s);
            return self.last;
        }
        let hash = self.hash(s);
        let mut comparisons = 0;
        let found = self.probe(heap, s.as_bytes(), hash, &mut comparisons);
        self.collisions += comparisons;
        let i = match found {
            Ok(i) => {
                self.last = self.tokens[i];
                return self.last;
            }
            Err(free) => free,
        };
        let token = heap.append(s);
        self.last = token;
        self.hashes[i] = hash;
        self.tokens[i] = token;
        self.distinct += 1;
        if heap.len() >= self.give_up_at {
            self.active = false;
            // Release the memory.
            self.hashes = Vec::new();
            self.tokens = Vec::new();
            self.distinct = 0;
        } else if self.distinct as usize * 4 > self.hashes.len() * 3 {
            self.grow();
        }
        token
    }

    /// The token `heap` already holds for `s`, without inserting —
    /// `None` when the string is absent or the accelerator gave up.
    pub fn lookup(&self, heap: &StringHeap, s: &str) -> Option<u64> {
        if !self.active {
            return None;
        }
        let found = self.probe(heap, s.as_bytes(), self.hash(s), &mut 0);
        found.ok().map(|i| self.tokens[i])
    }

    /// Walk the probe sequence of `hash`: `Ok(slot)` holding the entry
    /// whose heap bytes equal `s`, or `Err(slot)` of the free slot that
    /// ends the walk. Counts the heap comparisons into `comparisons`.
    #[inline]
    fn probe(
        &self,
        heap: &StringHeap,
        s: &[u8],
        hash: u32,
        comparisons: &mut u64,
    ) -> Result<usize, usize> {
        let mask = self.hashes.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let stored = self.hashes[i];
            if stored == EMPTY {
                return Err(i);
            }
            if stored == hash {
                *comparisons += 1;
                if heap.entry_bytes(self.tokens[i]) == s {
                    return Ok(i);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Double the table. The stored hashes place every entry; the heap is
    /// not touched.
    fn grow(&mut self) {
        let slots = self.hashes.len() * 2;
        let hashes = std::mem::replace(&mut self.hashes, vec![EMPTY; slots]);
        let tokens = std::mem::replace(&mut self.tokens, vec![NULL_TOKEN; slots]);
        let mask = slots - 1;
        for (hash, token) in hashes.into_iter().zip(tokens) {
            if hash == EMPTY {
                continue;
            }
            let mut i = hash as usize & mask;
            while self.hashes[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.hashes[i] = hash;
            self.tokens[i] = token;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedupes() {
        let mut heap = StringHeap::new();
        let mut acc = HeapAccelerator::new(Collation::Binary);
        let a = acc.intern(&mut heap, "x");
        let b = acc.intern(&mut heap, "y");
        let c = acc.intern(&mut heap, "x");
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(heap.len(), 2);
        assert_eq!(acc.distinct_count(), 2);
    }

    #[test]
    fn gives_up_past_threshold() {
        let mut heap = StringHeap::new();
        let mut acc = HeapAccelerator::with_threshold(Collation::Binary, 3);
        for s in ["a", "b", "c"] {
            acc.intern(&mut heap, s);
        }
        assert!(!acc.is_active());
        // Duplicates are no longer caught, not even an immediate repeat.
        acc.intern(&mut heap, "a");
        acc.intern(&mut heap, "a");
        assert_eq!(heap.len(), 5);
    }

    #[test]
    fn tracks_input_order() {
        let mut heap = StringHeap::new();
        let mut acc = HeapAccelerator::new(Collation::Binary);
        for s in ["a", "b", "b", "c"] {
            acc.intern(&mut heap, s);
        }
        assert!(acc.input_was_sorted());
        acc.intern(&mut heap, "a");
        assert!(!acc.input_was_sorted());
    }

    #[test]
    fn input_order_follows_the_collation() {
        // 'C' < 'b' in bytes, but not case-folded.
        for (collation, sorted) in [(Collation::Binary, false), (Collation::CaseFold, true)] {
            let mut heap = StringHeap::new();
            let mut acc = HeapAccelerator::new(collation);
            for s in ["apple", "banana", "Cherry"] {
                acc.intern(&mut heap, s);
            }
            assert_eq!(acc.input_was_sorted(), sorted, "{collation:?}");
        }
    }

    #[test]
    fn collation_aware_dedup() {
        let mut heap = StringHeap::new();
        let mut acc = HeapAccelerator::new(Collation::Binary);
        let a = acc.intern(&mut heap, "Hello");
        let b = acc.intern(&mut heap, "hello");
        assert_ne!(a, b, "binary collation treats cases as distinct");
    }

    #[test]
    fn hash_collisions_resolved_by_heap_comparison() {
        // Force shared buckets by inserting many strings; dedup must stay
        // exact regardless of hash behaviour.
        let mut heap = StringHeap::new();
        let mut acc = HeapAccelerator::new(Collation::Binary);
        let mut tokens = Vec::new();
        for i in 0..1000 {
            tokens.push(acc.intern(&mut heap, &format!("s{i}")));
        }
        for (i, &expected) in tokens.iter().enumerate() {
            assert_eq!(acc.intern(&mut heap, &format!("s{i}")), expected);
        }
        assert_eq!(heap.len(), 1000);
        assert_eq!(acc.distinct_count(), 1000);
    }

    #[test]
    fn dedup_stays_exact_when_every_probe_collides() {
        // Sixteen hash values for two thousand strings: every lookup walks
        // slots whose stored hash matches and must be told apart by the
        // heap bytes alone, across several table growths.
        for collation in [Collation::Binary, Collation::CaseFold] {
            let mut heap = StringHeap::new();
            let mut acc = HeapAccelerator::new(collation);
            acc.hash_bits = 4;
            let words: Vec<String> = (0..2000).map(|i| format!("w{}", i * 7919 % 2000)).collect();
            let first: Vec<u64> = words.iter().map(|w| acc.intern(&mut heap, w)).collect();
            assert_eq!(heap.len(), 2000);
            assert!(acc.collision_comparisons() > 2000);
            let again: Vec<u64> = words
                .iter()
                .rev()
                .map(|w| acc.intern(&mut heap, w))
                .collect();
            assert_eq!(heap.len(), 2000, "a colliding probe appended a duplicate");
            assert!(first.iter().eq(again.iter().rev()));
            for (w, &t) in words.iter().zip(&first) {
                assert_eq!(heap.get(t), Some(w.as_str()));
            }
        }
    }

    #[test]
    fn seeded_lookup_finds_the_last_of_each_entry() {
        // A heap built without deduplication repeats entries; the seeded
        // table answers each string with its last token, stays at most
        // three-quarters full, and a lookup inserts nothing.
        let mut heap = StringHeap::new();
        let words: Vec<String> = (0..3000).map(|i| format!("w{}", i % 1000)).collect();
        let tokens: Vec<u64> = words.iter().map(|w| heap.append(w)).collect();
        heap.append("");
        let acc = HeapAccelerator::from_heap(&heap);
        assert_eq!(acc.distinct_count(), 1001);
        assert!(acc.hashes.len() * 3 >= acc.distinct_count() as usize * 4);
        for (i, w) in words.iter().enumerate().skip(2000) {
            assert_eq!(acc.lookup(&heap, w), Some(tokens[i]), "{w}");
        }
        assert!(acc.lookup(&heap, "").is_some(), "the empty entry is real");
        assert_eq!(acc.lookup(&heap, "w1000"), None);
        assert_eq!(acc.lookup(&heap, "W1"), None, "lookups are byte-exact");
        assert_eq!(acc.distinct_count(), 1001);
        assert_eq!(heap.len(), 3001);
    }

    #[test]
    fn binary_hash_tells_short_and_overlapping_strings_apart() {
        // Short strings share one word and long ones overlap their last
        // two; the length and every byte must still count.
        let strings = [
            "",
            "\0",
            "a",
            "a\0",
            "a\0\0",
            "ab",
            "ba",
            "abc",
            "abcd",
            "abcde",
            "abcdefg",
            "abcdefgh",
            "abcdefghi",
            "abcdefgh\0",
            "abcdefghabcdefgh",
            "abcdefghabcdefgi",
            "abcdefghabcdefghi",
        ];
        let h: Vec<u64> = strings.iter().map(|s| hash_bytes(s.as_bytes())).collect();
        for i in 0..h.len() {
            for j in 0..i {
                assert_ne!(h[i], h[j], "{:?} vs {:?}", strings[i], strings[j]);
            }
        }
    }
}
