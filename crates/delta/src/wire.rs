//! Wire format for the delta/tombstone aux payloads.
//!
//! The v2 paged format (crate `tde-pager`) stores these as opaque byte
//! extents in the footer directory; this module owns their contents.
//! Readers apply the same discipline as `tde_storage::wire`: every
//! length prefix is a bounded read, every tag is validated, counts must
//! reconcile, and trailing bytes are an error — a truncated or
//! bit-flipped payload yields a clean [`io::Error`], never a panic or
//! an over-allocation.
//!
//! Delta payload (all little-endian):
//!
//! ```text
//! u8  version (= 1)
//! u64 rows                      -- live rows only; tombstoned appends
//! u32 ncols                        are dropped at save time
//! per column:
//!   str  name                   -- must match the base schema
//!   u8   dtype tag (0..=5)
//!   rows values:
//!     Str:    u8 presence, then str when present
//!     others: i64 raw (Real as f64 bits)
//! ```
//!
//! Tombstone payload:
//!
//! ```text
//! u8  version (= 1)
//! u64 count
//! count u64 row ids             -- strictly increasing, < base rows
//! ```

use crate::store::{DeltaVals, StrVals};
use std::collections::BTreeSet;
use std::io::{self, Read};
use tde_storage::wire::{corrupt, read_str, read_u32, read_u64, write_str};
use tde_types::DataType;

const DELTA_VERSION: u8 = 1;
const TOMBSTONE_VERSION: u8 = 1;

fn dtype_tag(dtype: DataType) -> u8 {
    match dtype {
        DataType::Bool => 0,
        DataType::Integer => 1,
        DataType::Real => 2,
        DataType::Date => 3,
        DataType::Timestamp => 4,
        DataType::Str => 5,
    }
}

fn dtype_from_tag(tag: u8) -> io::Result<DataType> {
    Ok(match tag {
        0 => DataType::Bool,
        1 => DataType::Integer,
        2 => DataType::Real,
        3 => DataType::Date,
        4 => DataType::Timestamp,
        5 => DataType::Str,
        _ => return Err(corrupt("bad delta column dtype tag")),
    })
}

fn read_u8(r: &mut impl Read) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn read_i64(r: &mut impl Read) -> io::Result<i64> {
    Ok(read_u64(r)? as i64)
}

/// Reject unconsumed input — a payload with trailing bytes is corrupt
/// even if its prefix parses.
fn expect_drained(r: &mut &[u8], what: &str) -> io::Result<()> {
    if r.is_empty() {
        Ok(())
    } else {
        Err(corrupt(what))
    }
}

/// Serialize the live delta rows of `cols` (schema order; `live[i]`
/// gates row `i`).
pub(crate) fn encode_delta(
    schema: &[(String, DataType)],
    cols: &[DeltaVals],
    live: &[bool],
) -> Vec<u8> {
    let rows = live.iter().filter(|&&l| l).count() as u64;
    let mut out = vec![DELTA_VERSION];
    out.extend_from_slice(&rows.to_le_bytes());
    out.extend_from_slice(&(schema.len() as u32).to_le_bytes());
    for ((name, dtype), col) in schema.iter().zip(cols) {
        write_str(&mut out, name).expect("vec write");
        out.push(dtype_tag(*dtype));
        match col {
            DeltaVals::Ints(vals) => {
                for (i, v) in vals.iter().enumerate() {
                    if live[i] {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
            DeltaVals::Strs(vals) => {
                for (v, _) in vals.iter().zip(live).filter(|(_, &l)| l) {
                    match v {
                        None => out.push(0),
                        Some(s) => {
                            out.push(1);
                            write_str(&mut out, s).expect("vec write");
                        }
                    }
                }
            }
        }
    }
    out
}

/// Decode a delta payload, validating it against the base table's
/// schema: column count, names and types must all agree — a payload
/// saved against a different schema is corruption, not data.
pub(crate) fn decode_delta(
    bytes: &[u8],
    schema: &[(String, DataType)],
) -> io::Result<Vec<DeltaVals>> {
    let mut r = bytes;
    if read_u8(&mut r)? != DELTA_VERSION {
        return Err(corrupt("unsupported delta payload version"));
    }
    let rows = read_u64(&mut r)?;
    if rows > bytes.len() as u64 {
        // Each row costs at least one byte; an absurd count cannot fit.
        return Err(corrupt("delta payload row count exceeds payload size"));
    }
    let ncols = read_u32(&mut r)? as usize;
    if ncols != schema.len() {
        return Err(corrupt("delta payload column count mismatch"));
    }
    let mut cols = Vec::with_capacity(ncols);
    for (name, dtype) in schema {
        let got = read_str(&mut r)?;
        if got != *name {
            return Err(corrupt("delta payload column name mismatch"));
        }
        let got_dtype = dtype_from_tag(read_u8(&mut r)?)?;
        if got_dtype != *dtype {
            return Err(corrupt("delta payload column type mismatch"));
        }
        cols.push(match dtype {
            DataType::Str => {
                let mut vals = StrVals::default();
                for _ in 0..rows {
                    match read_u8(&mut r)? {
                        0 => vals.push(None),
                        1 => vals.push(Some(&read_str(&mut r)?)),
                        _ => return Err(corrupt("bad delta string presence byte")),
                    }
                }
                DeltaVals::Strs(vals)
            }
            _ => {
                let mut vals = Vec::with_capacity(rows as usize);
                for _ in 0..rows {
                    vals.push(read_i64(&mut r)?);
                }
                DeltaVals::Ints(vals)
            }
        });
    }
    expect_drained(&mut r, "trailing bytes after delta payload")?;
    Ok(cols)
}

/// Serialize a tombstone set (already sorted — it is a `BTreeSet`).
pub(crate) fn encode_tombstones(ts: &BTreeSet<u64>) -> Vec<u8> {
    let mut out = vec![TOMBSTONE_VERSION];
    out.extend_from_slice(&(ts.len() as u64).to_le_bytes());
    for &t in ts {
        out.extend_from_slice(&t.to_le_bytes());
    }
    out
}

/// Decode a tombstone payload; ids must be strictly increasing and
/// inside `0..base_rows`.
pub(crate) fn decode_tombstones(bytes: &[u8], base_rows: u64) -> io::Result<BTreeSet<u64>> {
    let mut r = bytes;
    if read_u8(&mut r)? != TOMBSTONE_VERSION {
        return Err(corrupt("unsupported tombstone payload version"));
    }
    let count = read_u64(&mut r)?;
    if count.checked_mul(8).is_none_or(|b| b > r.len() as u64) {
        return Err(corrupt("tombstone count exceeds payload size"));
    }
    let mut ts = BTreeSet::new();
    let mut prev: Option<u64> = None;
    for _ in 0..count {
        let id = read_u64(&mut r)?;
        if prev.is_some_and(|p| p >= id) {
            return Err(corrupt("tombstone ids not strictly increasing"));
        }
        if id >= base_rows {
            return Err(corrupt("tombstone id beyond base rows"));
        }
        prev = Some(id);
        ts.insert(id);
    }
    expect_drained(&mut r, "trailing bytes after tombstone payload")?;
    Ok(ts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Vec<(String, DataType)> {
        vec![
            ("id".to_owned(), DataType::Integer),
            ("name".to_owned(), DataType::Str),
            ("score".to_owned(), DataType::Real),
        ]
    }

    fn sample_cols() -> Vec<DeltaVals> {
        vec![
            DeltaVals::Ints(vec![1, 2, 3]),
            DeltaVals::Strs([Some("a"), None, Some("ccc")].into_iter().collect()),
            DeltaVals::Ints(vec![
                1.5f64.to_bits() as i64,
                tde_types::sentinel::null_real().to_bits() as i64,
                0,
            ]),
        ]
    }

    #[test]
    fn delta_roundtrip_drops_dead_rows() {
        let cols = sample_cols();
        let bytes = encode_delta(&schema(), &cols, &[true, false, true]);
        let back = decode_delta(&bytes, &schema()).unwrap();
        assert_eq!(back[0], DeltaVals::Ints(vec![1, 3]));
        assert_eq!(
            back[1],
            DeltaVals::Strs([Some("a"), Some("ccc")].into_iter().collect())
        );
    }

    #[test]
    fn delta_corruption_matrix() {
        let cols = sample_cols();
        let good = encode_delta(&schema(), &cols, &[true, true, true]);
        assert!(decode_delta(&good, &schema()).is_ok());
        // Truncations at every prefix length fail cleanly.
        for cut in 0..good.len() {
            assert!(
                decode_delta(&good[..cut], &schema()).is_err(),
                "truncation at {cut} accepted"
            );
        }
        // Bad version.
        let mut b = good.clone();
        b[0] = 9;
        assert!(decode_delta(&b, &schema()).is_err());
        // Absurd row count (u64::MAX) errors rather than allocating.
        let mut b = good.clone();
        b[1..9].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_delta(&b, &schema()).is_err());
        // Column count mismatch.
        let mut b = good.clone();
        b[9..13].copy_from_slice(&7u32.to_le_bytes());
        assert!(decode_delta(&b, &schema()).is_err());
        // Schema drift: same payload, different expected schema.
        let mut drifted = schema();
        drifted[0].0 = "renamed".into();
        assert!(decode_delta(&good, &drifted).is_err());
        let mut drifted = schema();
        drifted[0].1 = DataType::Date;
        assert!(decode_delta(&good, &drifted).is_err());
        // Trailing garbage.
        let mut b = good.clone();
        b.push(0);
        assert!(decode_delta(&b, &schema()).is_err());
        // Bad string presence byte: find the first one (after the
        // second column's header) and poke it.
        let bad_presence = good.len() - sample_cols_tail_len();
        let mut b = good.clone();
        b[bad_presence] = 7;
        assert!(decode_delta(&b, &schema()).is_err());
    }

    /// Bytes from the first string-presence byte to the payload end:
    /// the string column's data (3 presence bytes + "a" (8+1) + "ccc"
    /// (8+3)), then the `score` column's header (name 8+5, tag 1) and
    /// its 3 raw i64s.
    fn sample_cols_tail_len() -> usize {
        (3 + (8 + 1) + (8 + 3)) + (8 + 5 + 1) + 3 * 8
    }

    #[test]
    fn empty_delta_roundtrip() {
        let cols = vec![
            DeltaVals::Ints(vec![]),
            DeltaVals::Strs(StrVals::default()),
            DeltaVals::Ints(vec![]),
        ];
        let bytes = encode_delta(&schema(), &cols, &[]);
        let back = decode_delta(&bytes, &schema()).unwrap();
        assert!(back.iter().all(|c| c.len() == 0));
    }

    #[test]
    fn tombstone_roundtrip_and_corruption() {
        let ts: BTreeSet<u64> = [3u64, 17, 999].into_iter().collect();
        let bytes = encode_tombstones(&ts);
        assert_eq!(decode_tombstones(&bytes, 1000).unwrap(), ts);
        // Truncations.
        for cut in 0..bytes.len() {
            assert!(decode_tombstones(&bytes[..cut], 1000).is_err());
        }
        // Out of range for a smaller base.
        assert!(decode_tombstones(&bytes, 999).is_err());
        // Absurd count.
        let mut b = bytes.clone();
        b[1..9].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_tombstones(&b, 1000).is_err());
        // Not strictly increasing: duplicate the first id into the second.
        let mut b = bytes.clone();
        let first: [u8; 8] = b[9..17].try_into().unwrap();
        b[17..25].copy_from_slice(&first);
        assert!(decode_tombstones(&b, 1000).is_err());
        // Trailing garbage.
        let mut b = bytes.clone();
        b.extend_from_slice(&[1, 2, 3]);
        assert!(decode_tombstones(&b, 1000).is_err());
        // Bad version.
        let mut b = bytes;
        b[0] = 0;
        assert!(decode_tombstones(&b, 1000).is_err());
    }
}
