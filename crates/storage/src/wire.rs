//! Wire-format primitives of the paged file format (crate `tde-pager`)
//! and the delta-store payload (crate `tde-delta`): length-prefixed
//! strings, fixed-width integers, the per-column metadata record and the
//! encoded-stream validator.
//!
//! Everything here is written little-endian. The readers treat their
//! input as untrusted: length prefixes are bounded reads (a lying prefix
//! on a truncated file yields an [`io::Error`], never an over-allocation)
//! and enum tags are validated.

use std::io::{self, Read, Write};
use tde_encodings::metadata::Knowledge;
use tde_encodings::ColumnMetadata;
use tde_types::Width;

/// Upper bound on speculative pre-allocation while reading a
/// length-prefixed blob. A corrupt length prefix can claim any size; the
/// reader only ever reserves up to this much ahead of the bytes actually
/// arriving, so absurd prefixes fail with a clean error instead of OOM.
pub const MAX_PREALLOC: usize = 1 << 20;

/// An `InvalidData` error for corrupt database files.
pub fn corrupt(msg: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt database file: {msg}"),
    )
}

/// Write a u64-length-prefixed string.
pub fn write_str(w: &mut impl Write, s: &str) -> io::Result<()> {
    w.write_all(&(s.len() as u64).to_le_bytes())?;
    w.write_all(s.as_bytes())
}

/// Read a little-endian u32.
pub fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Read a little-endian u64.
pub fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Read a u64-length-prefixed byte blob, bounded: the buffer grows with
/// the bytes actually read, so a corrupt length prefix cannot trigger a
/// huge allocation — it fails with `UnexpectedEof` when the input ends.
pub fn read_bytes(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let len = read_u64(r)?;
    let mut b = Vec::with_capacity((len as usize).min(MAX_PREALLOC));
    let copied = r.take(len).read_to_end(&mut b)?;
    if copied as u64 != len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("corrupt database file: blob claims {len} bytes, got {copied}"),
        ));
    }
    Ok(b)
}

/// Read a u64-length-prefixed UTF-8 string (bounded like [`read_bytes`]).
pub fn read_str(r: &mut impl Read) -> io::Result<String> {
    String::from_utf8(read_bytes(r)?).map_err(|_| corrupt("non-UTF-8 string"))
}

/// Write a three-valued metadata fact as one byte.
pub fn write_knowledge(w: &mut impl Write, k: Knowledge) -> io::Result<()> {
    w.write_all(&[match k {
        Knowledge::Unknown => 0,
        Knowledge::True => 1,
        Knowledge::False => 2,
    }])
}

/// Read a three-valued metadata fact.
pub fn read_knowledge(r: &mut impl Read) -> io::Result<Knowledge> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(match b[0] {
        0 => Knowledge::Unknown,
        1 => Knowledge::True,
        2 => Knowledge::False,
        _ => return Err(corrupt("bad knowledge byte")),
    })
}

/// Write an optional i64 as a presence byte plus the value.
pub fn write_opt_i64(w: &mut impl Write, v: Option<i64>) -> io::Result<()> {
    match v {
        None => w.write_all(&[0]),
        Some(x) => {
            w.write_all(&[1])?;
            w.write_all(&x.to_le_bytes())
        }
    }
}

/// Read an optional i64.
pub fn read_opt_i64(r: &mut impl Read) -> io::Result<Option<i64>> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(match b[0] {
        0 => None,
        _ => Some(read_u64(r)? as i64),
    })
}

/// Write a column metadata record (33 bytes at most).
pub fn write_metadata(w: &mut impl Write, m: &ColumnMetadata) -> io::Result<()> {
    write_knowledge(w, m.sorted_asc)?;
    write_knowledge(w, m.dense)?;
    write_knowledge(w, m.unique)?;
    write_knowledge(w, m.has_nulls)?;
    write_knowledge(w, m.sorted_heap_tokens)?;
    write_opt_i64(w, m.min)?;
    write_opt_i64(w, m.max)?;
    write_opt_i64(w, m.cardinality.map(|c| c as i64))?;
    w.write_all(&[m.width.bytes() as u8])
}

/// Read a column metadata record.
pub fn read_metadata(r: &mut impl Read) -> io::Result<ColumnMetadata> {
    let sorted_asc = read_knowledge(r)?;
    let dense = read_knowledge(r)?;
    let unique = read_knowledge(r)?;
    let has_nulls = read_knowledge(r)?;
    let sorted_heap_tokens = read_knowledge(r)?;
    let min = read_opt_i64(r)?;
    let max = read_opt_i64(r)?;
    let cardinality = read_opt_i64(r)?.map(|c| c as u64);
    let mut wb = [0u8; 1];
    r.read_exact(&mut wb)?;
    let width = Width::from_bytes(wb[0] as usize).ok_or_else(|| corrupt("bad width"))?;
    Ok(ColumnMetadata {
        sorted_asc,
        dense,
        unique,
        min,
        max,
        cardinality,
        has_nulls,
        sorted_heap_tokens,
        width,
    })
}

/// Validate an encoded stream buffer read from untrusted input: the
/// header must parse, the logical length must match what the
/// surrounding directory claims for the column, and a run-length body
/// must be well-formed pairs whose counts sum to that length.
pub fn validate_stream(buf: &[u8], expected_rows: u64) -> io::Result<()> {
    let h = tde_encodings::header::HeaderView::try_parse(buf)
        .ok_or_else(|| corrupt("bad encoded stream header"))?;
    if h.logical_size != expected_rows {
        return Err(corrupt(&format!(
            "stream claims {} rows, table has {expected_rows}",
            h.logical_size
        )));
    }
    if h.algorithm == tde_encodings::Algorithm::RunLength {
        tde_encodings::rle::validate(buf, &h).map_err(corrupt)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_blob_read_rejects_lying_prefix() {
        // Claims u64::MAX bytes but carries four: clean error, no OOM.
        let mut buf = Vec::new();
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(b"abcd");
        let err = read_bytes(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn str_roundtrip() {
        let mut buf = Vec::new();
        write_str(&mut buf, "caf\u{e9}").unwrap();
        assert_eq!(read_str(&mut buf.as_slice()).unwrap(), "caf\u{e9}");
    }

    #[test]
    fn metadata_roundtrip() {
        use tde_encodings::metadata::Knowledge;
        let m = ColumnMetadata {
            sorted_asc: Knowledge::True,
            dense: Knowledge::False,
            unique: Knowledge::Unknown,
            min: Some(-3),
            max: Some(99),
            cardinality: Some(7),
            has_nulls: Knowledge::False,
            sorted_heap_tokens: Knowledge::True,
            width: Width::W2,
        };
        let mut buf = Vec::new();
        write_metadata(&mut buf, &m).unwrap();
        let m2 = read_metadata(&mut buf.as_slice()).unwrap();
        assert_eq!(format!("{m:?}"), format!("{m2:?}"));
    }
}
