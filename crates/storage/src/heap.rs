//! String heaps (paper §2.3.2, §5.1.4).
//!
//! A heap is a byte arena of string entries, each a 4-byte length header
//! followed by the character data. A column's *token* for a string is the
//! byte offset of its entry — tokens are therefore not dense, which is why
//! small-domain token streams typically end up dictionary-*encoded*
//! (paper §6.3), and why a freshly built heap can be re-ordered and the
//! tokens rewritten purely through the encoding dictionary.
//!
//! Token 0 is reserved for NULL (the heap starts with a zero-length
//! entry), matching the engine-wide sentinel convention.

use std::io;
use tde_types::sentinel::NULL_TOKEN;
use tde_types::Collation;

/// Size of the per-entry length header.
pub const ENTRY_HEADER: usize = 4;

/// A variable-width string arena addressed by byte-offset tokens.
#[derive(Debug, Clone, Default)]
pub struct StringHeap {
    bytes: Vec<u8>,
    entries: u64,
}

impl StringHeap {
    /// An empty heap containing only the NULL entry at token 0.
    pub fn new() -> StringHeap {
        let mut heap = StringHeap {
            bytes: Vec::new(),
            entries: 0,
        };
        let t = heap.push_entry("");
        debug_assert_eq!(t, NULL_TOKEN);
        heap
    }

    fn push_entry(&mut self, s: &str) -> u64 {
        let token = self.bytes.len() as u64;
        self.bytes
            .extend_from_slice(&(s.len() as u32).to_le_bytes());
        self.bytes.extend_from_slice(s.as_bytes());
        self.entries += 1;
        token
    }

    /// Append a string, returning its token. No deduplication — that is
    /// the accelerator's job.
    pub fn append(&mut self, s: &str) -> u64 {
        self.push_entry(s)
    }

    /// Fetch the string for a token. Token 0 (NULL) yields `None`.
    pub fn get(&self, token: u64) -> Option<&str> {
        if token == NULL_TOKEN {
            return None;
        }
        Some(self.get_raw(token))
    }

    /// Fetch any entry including the NULL entry (which is empty).
    pub fn get_raw(&self, token: u64) -> &str {
        std::str::from_utf8(self.entry_bytes(token)).expect("heap corruption: non-UTF-8 entry")
    }

    /// The bytes of an entry, unvalidated — what the accelerator compares
    /// a probe against.
    #[inline]
    pub fn entry_bytes(&self, token: u64) -> &[u8] {
        let at = token as usize;
        let len =
            u32::from_le_bytes(self.bytes[at..at + ENTRY_HEADER].try_into().unwrap()) as usize;
        &self.bytes[at + ENTRY_HEADER..at + ENTRY_HEADER + len]
    }

    /// Number of entries, excluding the reserved NULL entry.
    pub fn len(&self) -> u64 {
        self.entries - 1
    }

    /// Whether the heap holds no real entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total heap size in bytes.
    pub fn byte_size(&self) -> usize {
        self.bytes.len()
    }

    /// Iterate `(token, string)` over real entries in token (storage) order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &str)> {
        self.entries().map(|(token, s)| {
            let s = std::str::from_utf8(s).expect("heap corruption: non-UTF-8 entry");
            (token, s)
        })
    }

    /// `(token, bytes)` over real entries in token order, without the
    /// UTF-8 check [`StringHeap::iter`] makes.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u64, &[u8])> {
        // Skip the NULL entry.
        let mut at = ENTRY_HEADER;
        std::iter::from_fn(move || {
            if at >= self.bytes.len() {
                return None;
            }
            let token = at as u64;
            let s = self.entry_bytes(token);
            at += ENTRY_HEADER + s.len();
            Some((token, s))
        })
    }

    /// Whether the entries are in ascending collation order — sorted heaps
    /// make tokens directly comparable (paper §2.3.4).
    pub fn is_sorted(&self, collation: Collation) -> bool {
        let mut prev: Option<&str> = None;
        for (_, s) in self.iter() {
            if let Some(p) = prev {
                if collation.compare(p, s) == std::cmp::Ordering::Greater {
                    return false;
                }
            }
            prev = Some(s);
        }
        true
    }

    /// Raw heap bytes (for the single-file writer).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Rebuild from raw bytes (file readers). Bytes that do not walk as
    /// whole entries, starting with the empty NULL entry, are
    /// [`io::ErrorKind::InvalidData`]: heaps come from untrusted files.
    pub fn from_bytes(bytes: Vec<u8>) -> io::Result<StringHeap> {
        let corrupt = |what: String| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("heap bytes corrupt: {what}"),
            )
        };
        let mut entries = 0u64;
        let mut at = 0usize;
        while at + ENTRY_HEADER <= bytes.len() {
            let len = u32::from_le_bytes(bytes[at..at + ENTRY_HEADER].try_into().unwrap()) as usize;
            if entries == 0 && len != 0 {
                return Err(corrupt(format!("NULL entry has length {len}")));
            }
            at += ENTRY_HEADER + len;
            entries += 1;
        }
        if entries == 0 {
            return Err(corrupt("no NULL entry".into()));
        }
        if at != bytes.len() {
            return Err(corrupt(format!(
                "entry {entries} ends at byte {at}, past the heap's {}",
                bytes.len()
            )));
        }
        Ok(StringHeap { bytes, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_get() {
        let mut h = StringHeap::new();
        let a = h.append("hello");
        let b = h.append("world");
        assert_eq!(h.get(a), Some("hello"));
        assert_eq!(h.get(b), Some("world"));
        assert_eq!(h.get(NULL_TOKEN), None);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn tokens_are_offsets() {
        let mut h = StringHeap::new();
        let a = h.append("abc");
        let b = h.append("de");
        // NULL entry occupies 4 bytes; "abc" is 4 + 3.
        assert_eq!(a, 4);
        assert_eq!(b, 4 + 4 + 3);
    }

    #[test]
    fn fixed_width_strings_have_affine_tokens() {
        // The c_name phenomenon (paper §6.2): equal-length unique strings
        // produce equally spaced tokens.
        let mut h = StringHeap::new();
        let tokens: Vec<u64> = (0..100)
            .map(|i| h.append(&format!("Customer#{i:09}")))
            .collect();
        let deltas: Vec<u64> = tokens.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(deltas.iter().all(|&d| d == deltas[0]));
    }

    #[test]
    fn iteration_order_and_sortedness() {
        let mut h = StringHeap::new();
        h.append("b");
        h.append("a");
        let collected: Vec<&str> = h.iter().map(|(_, s)| s).collect();
        assert_eq!(collected, vec!["b", "a"]);
        assert!(!h.is_sorted(Collation::Binary));

        let mut s = StringHeap::new();
        s.append("a");
        s.append("b");
        assert!(s.is_sorted(Collation::Binary));
    }

    #[test]
    fn empty_heap_is_sorted() {
        assert!(StringHeap::new().is_sorted(Collation::Binary));
    }

    #[test]
    fn bytes_roundtrip() {
        let mut h = StringHeap::new();
        h.append("x");
        h.append("yy");
        h.append(""); // empty string is a real entry distinct from NULL
        let h2 = StringHeap::from_bytes(h.as_bytes().to_vec()).unwrap();
        assert_eq!(h2.len(), 3);
        let strings: Vec<&str> = h2.iter().map(|(_, s)| s).collect();
        assert_eq!(strings, vec!["x", "yy", ""]);
    }

    #[test]
    fn malformed_bytes_are_invalid_data() {
        let mut h = StringHeap::new();
        h.append("abc");
        h.append("de");
        let good = h.as_bytes().to_vec();
        let mut long_last = good.clone();
        let last = 4 + 4 + 3;
        long_last[last..last + 4].copy_from_slice(&3u32.to_le_bytes());
        let cases = [
            ("truncated entry", good[..good.len() - 1].to_vec()),
            ("truncated header", good[..good.len() - 5].to_vec()),
            ("entry past the end", long_last),
            ("empty", Vec::new()),
            ("no NULL entry", good[4..].to_vec()),
        ];
        for (what, bytes) in cases {
            let err = StringHeap::from_bytes(bytes).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
    }

    #[test]
    fn unicode_entries() {
        let mut h = StringHeap::new();
        let t = h.append("héllo wörld");
        assert_eq!(h.get(t), Some("héllo wörld"));
    }

    #[test]
    fn case_fold_sortedness() {
        let mut h = StringHeap::new();
        h.append("Apple");
        h.append("banana");
        h.append("Cherry");
        assert!(h.is_sorted(Collation::CaseFold));
        assert!(!h.is_sorted(Collation::Binary)); // 'C' < 'b' in bytes
    }
}
