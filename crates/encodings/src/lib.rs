//! Lightweight column encodings (paper §3).
//!
//! An [`EncodedStream`] is a self-describing byte buffer: a fixed header
//! (paper Fig 1) followed by complete *decompression blocks* of bit-packed
//! values. The header caches the logical size, the offset to the packed
//! data, the block size, the algorithm, the element width and the packing
//! bit count — exactly the fields the paper's header manipulations edit.
//!
//! Five algorithms are implemented (plus unencoded raw storage):
//!
//! * [`Algorithm::FrameOfReference`] — values packed relative to a frame (§3.1.1)
//! * [`Algorithm::Delta`] — per-block bases plus packed deltas (§3.1.2)
//! * [`Algorithm::Dictionary`] — ≤ 2¹⁵ distinct values, cuckoo-hashed (§3.1.3)
//! * [`Algorithm::Affine`] — `value = base + row · delta`, zero packing bits (§3.1.4)
//! * [`Algorithm::RunLength`] — length/value pairs with per-stream field widths (§3.1.5)
//!
//! The companion modules implement the paper's §3.2–3.4 machinery:
//! [`stats`] (streaming statistics + encoding choice), [`dynamic`] (the
//! dynamic re-encoder), [`manipulate`] (O(1)/O(2^bits) header edits such as
//! type narrowing and dictionary remapping), [`splice`] (compaction in a
//! stream's own encoding) and [`metadata`] (the extracted column
//! properties consumed by the tactical optimizer).

#![forbid(unsafe_code)]

pub mod affine;
pub mod bitpack;
pub mod cuckoo;
pub mod delta;
pub mod dict;
pub mod dynamic;
pub mod frame;
pub mod header;
pub mod kernel;
pub mod manipulate;
pub mod metadata;
pub mod raw;
pub mod rle;
pub mod selection;
pub mod splice;
pub mod stats;
pub mod stream;

pub use dynamic::DynamicEncoder;
pub use metadata::ColumnMetadata;
pub use selection::Selection;
pub use stats::{ColumnStats, EncodingSpec};
pub use stream::EncodedStream;

/// Number of values per decompression block. A multiple of 32 so the bit
/// packing of every block ends on a byte boundary (paper §3.1), and equal
/// to the engine's block iteration size so one decode call serves one
/// execution block.
pub const BLOCK_SIZE: usize = 1024;

/// Dictionary encodings are limited to 2¹⁵ values to keep the dictionary
/// in cache and the cuckoo hash simple and fast (paper §3.1.3).
pub const DICT_MAX_BITS: u8 = 15;

/// The encoding algorithm, stored as one byte in the stream header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Algorithm {
    /// Unencoded fixed-width values.
    None = 0,
    /// Frame-of-reference: packed values are offsets from a frame value.
    FrameOfReference = 1,
    /// Delta: packed values are successive differences minus the minimum
    /// delta; each block carries its starting value for random access.
    Delta = 2,
    /// Dictionary: packed values index a small table of distinct values.
    Dictionary = 3,
    /// Affine: `value = base + row * delta`; no packed data at all.
    Affine = 4,
    /// Run-length: (count, value) pairs.
    RunLength = 5,
}

impl Algorithm {
    /// Decode the header byte.
    pub fn from_tag(tag: u8) -> Option<Algorithm> {
        Some(match tag {
            0 => Algorithm::None,
            1 => Algorithm::FrameOfReference,
            2 => Algorithm::Delta,
            3 => Algorithm::Dictionary,
            4 => Algorithm::Affine,
            5 => Algorithm::RunLength,
            _ => return None,
        })
    }

    /// Short name used in explain output and the figure harnesses.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::None => "none",
            Algorithm::FrameOfReference => "for",
            Algorithm::Delta => "delta",
            Algorithm::Dictionary => "dict",
            Algorithm::Affine => "affine",
            Algorithm::RunLength => "rle",
        }
    }

    /// Whether random access into a stream of this encoding is cheap.
    /// Backward seeks in run-length data require a scan from the start
    /// (paper §4.3), so RLE is excluded from hash-join inner sides.
    pub fn cheap_random_access(self) -> bool {
        !matches!(self, Algorithm::RunLength)
    }

    /// All algorithms, for the figure harnesses.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::None,
        Algorithm::FrameOfReference,
        Algorithm::Delta,
        Algorithm::Dictionary,
        Algorithm::Affine,
        Algorithm::RunLength,
    ];
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why an append into an encoded stream failed; the dynamic encoder reacts
/// by consulting the column statistics and re-encoding (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodingFull {
    /// A value does not fit in the packing-bit range of the encoding.
    ValueOutOfRange,
    /// The dictionary has reached its 2^bits entry limit.
    DictionaryFull,
    /// The value breaks the affine progression.
    NotAffine,
    /// The stream was sealed by a partial final block; no further appends.
    Sealed,
}

impl std::fmt::Display for EncodingFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EncodingFull::ValueOutOfRange => "value out of encoding range",
            EncodingFull::DictionaryFull => "dictionary full",
            EncodingFull::NotAffine => "value breaks affine progression",
            EncodingFull::Sealed => "stream sealed by partial block",
        };
        f.write_str(s)
    }
}

impl std::error::Error for EncodingFull {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_tag_roundtrip() {
        for a in Algorithm::ALL {
            assert_eq!(Algorithm::from_tag(a as u8), Some(a));
        }
        assert_eq!(Algorithm::from_tag(99), None);
    }

    #[test]
    fn block_size_is_multiple_of_32() {
        assert_eq!(BLOCK_SIZE % 32, 0);
    }

    #[test]
    fn rle_random_access_is_expensive() {
        assert!(!Algorithm::RunLength.cheap_random_access());
        assert!(Algorithm::Dictionary.cheap_random_access());
    }
}
