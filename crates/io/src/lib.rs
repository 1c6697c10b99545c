//! Storage I/O abstraction for the paged engine.
//!
//! Every byte the pager reads or writes flows through a [`StorageIo`]
//! backend. The production backend ([`RealIo`]) is a thin veneer over the
//! filesystem: `pread` on unix, seek-under-mutex elsewhere, `fsync` and
//! atomic `rename` for the save path. The testing backend
//! ([`fault::FaultIo`]) wraps the same filesystem but injects seeded,
//! deterministic faults — short reads, transient `EINTR`-style errors,
//! `ENOSPC`, torn writes, dropped fsyncs, and a "crash at write boundary
//! k" mode — so the crash-consistency harness can replay a save with a
//! failure at every boundary and prove the reopen invariant (old state or
//! new state, never a hybrid).
//!
//! The crate also owns the segment [`checksum`] and the
//! [`ChecksumMismatch`] error the pager raises instead of handing
//! corrupted bytes to the decoders. The checksum runs four independent
//! 64-bit lanes over little-endian words, so it keeps pace with memory
//! rather than with a chain of per-byte multiplies. Its one step
//! `h ← rotl(h + w · P₂, 31) · P₁` (odd `P₁`, `P₂`) is a bijection in the
//! state for a fixed word and in the word for a fixed state, so two
//! equal-length inputs differing in any one byte *always* hash
//! differently: single-byte corruption detection is deterministic, not
//! probabilistic.
//!
//! Read retries are centralized in [`read_exact_at`]: short reads resume
//! where they left off, transient errors are retried with bounded
//! backoff, and every retry is counted in `tde_io_retries_total`.

#![forbid(unsafe_code)]

pub mod fault;

use std::fmt;
use std::io;
use std::path::Path;

pub use fault::{FaultIo, FaultPlan, FaultStats};

/// A read-only handle supporting positioned reads.
///
/// `read_at` has `pread` semantics: it may return fewer bytes than
/// requested and must not disturb any shared cursor. Callers that need
/// the whole range use [`read_exact_at`], which handles short reads and
/// transient errors.
#[allow(clippy::len_without_is_empty)] // fallible len: is_empty has no natural shape
pub trait IoFile: Send + Sync + fmt::Debug {
    /// One positioned read; may be short, may fail transiently with
    /// [`io::ErrorKind::Interrupted`].
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize>;
    /// Total file length in bytes.
    fn len(&self) -> io::Result<u64>;
}

/// A write handle for the save path: sequential writes plus a durability
/// barrier.
pub trait IoWriter: io::Write + Send + fmt::Debug {
    /// Flush file contents (and metadata) to stable storage.
    fn sync_all(&mut self) -> io::Result<()>;
}

/// A storage backend: opens files for positioned reads, creates files
/// for sequential writes, and performs the rename/unlink pair the atomic
/// save protocol needs.
pub trait StorageIo: Send + Sync + fmt::Debug {
    /// Open an existing file for positioned reads.
    fn open(&self, path: &Path) -> io::Result<Box<dyn IoFile>>;
    /// Create (truncate) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn IoWriter>>;
    /// Atomically replace `to` with `from` (same filesystem).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove a file (best-effort cleanup of temporaries).
    fn remove_file(&self, path: &Path) -> io::Result<()>;
}

// ---------------------------------------------------------------------------
// Real filesystem backend
// ---------------------------------------------------------------------------

/// The production backend: plain filesystem calls, no faults.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealIo;

#[derive(Debug)]
struct RealFile {
    #[cfg(unix)]
    file: std::fs::File,
    #[cfg(not(unix))]
    file: parking_lot::Mutex<std::fs::File>,
}

impl IoFile for RealFile {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_at(buf, offset)
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut f = self.file.lock();
            f.seek(SeekFrom::Start(offset))?;
            f.read(buf)
        }
    }

    fn len(&self) -> io::Result<u64> {
        #[cfg(unix)]
        {
            Ok(self.file.metadata()?.len())
        }
        #[cfg(not(unix))]
        {
            Ok(self.file.lock().metadata()?.len())
        }
    }
}

#[derive(Debug)]
struct RealWriter {
    file: std::fs::File,
}

impl io::Write for RealWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.file.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl IoWriter for RealWriter {
    fn sync_all(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }
}

impl StorageIo for RealIo {
    fn open(&self, path: &Path) -> io::Result<Box<dyn IoFile>> {
        let file = std::fs::File::open(path)?;
        #[cfg(unix)]
        {
            Ok(Box::new(RealFile { file }))
        }
        #[cfg(not(unix))]
        {
            Ok(Box::new(RealFile {
                file: parking_lot::Mutex::new(file),
            }))
        }
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn IoWriter>> {
        Ok(Box::new(RealWriter {
            file: std::fs::File::create(path)?,
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}

// ---------------------------------------------------------------------------
// Retrying reads
// ---------------------------------------------------------------------------

/// How many transient ([`io::ErrorKind::Interrupted`]) failures a single
/// [`read_exact_at`] call absorbs before giving up.
pub const MAX_READ_RETRIES: u32 = 8;

/// Fill `buf` from `offset`, resuming short reads and retrying transient
/// errors with bounded backoff. `op` labels the retry counter
/// (`tde_io_retries_total{op=...}`) and the error message.
pub fn read_exact_at(
    f: &dyn IoFile,
    buf: &mut [u8],
    offset: u64,
    op: &'static str,
) -> io::Result<()> {
    let mut pos = 0usize;
    let mut retries = 0u32;
    while pos < buf.len() {
        match f.read_at(&mut buf[pos..], offset + pos as u64) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("unexpected end of file reading {op} segment"),
                ))
            }
            Ok(n) => pos += n, // short reads just resume; progress resets nothing
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                retries += 1;
                if retries > MAX_READ_RETRIES {
                    return Err(io::Error::other(format!(
                        "{op} read failed after {MAX_READ_RETRIES} retries: {e}"
                    )));
                }
                tde_obs::metrics::io_retry(op);
                tde_obs::timeline::io_retry(op);
                if retries > 2 {
                    // Bounded exponential backoff, capped at ~1 ms.
                    std::thread::sleep(std::time::Duration::from_micros(1u64 << retries.min(10)));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Checksums
// ---------------------------------------------------------------------------

/// Multipliers of the checksum step (xxHash64's first two primes; both
/// odd, so multiplying by either inverts mod 2⁶⁴).
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// Starting states of the four lanes: hex digits of π, arbitrary but
/// distinct and nonzero.
const LANE_SEEDS: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

/// The one step of [`checksum`]: `rotl(h + w · P₂, 31) · P₁`, the
/// xxHash64 round. A multiply by an odd constant, an addition and a
/// rotation each invert, so for a fixed `h` the step is a bijection in
/// `w`, and for a fixed `w` a bijection in `h`.
///
/// The multiply after the rotation matters: without it, a flip of a
/// word's top bit (which the multiply leaves a lone top-bit flip) would
/// come out of the rotation as a lone bit the lane's next word could
/// flip back, so two bit flips 32 bytes apart would cancel whatever the
/// data. Multiplying spreads that bit over the upper state, and the
/// addition makes its sign depend on the data.
#[inline(always)]
fn step(h: u64, w: u64) -> u64 {
    h.wrapping_add(w.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// The segment checksum: 64 bits over a byte slice.
///
/// Four independent lanes step over the little-endian 8-byte words of
/// each 32-byte block (lane `i` takes word `i`); the lanes are then
/// folded, in order, into a state seeded with the input length, and the
/// tail of under 32 bytes is folded in one byte at a time — all with
/// the same [`step`]. A single-byte substitution changes exactly one
/// word of one lane (or one tail byte); that step's output changes
/// because the step is injective in the value it takes in, and every
/// later step is injective in the state, so the result changes. Any
/// single-byte substitution in equal-length inputs is therefore
/// detected deterministically. Other corruptions (several bytes, swapped
/// words, zeroed runs, shifts) are caught with high probability, not by
/// construction: the tests sweep every two-bit flip of a multi-block
/// input, and the pager's tests a seeded set of torn-write shapes.
///
/// The value is part of the paged file format: changing it needs a
/// format version bump.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let (blocks, tail) = bytes.as_chunks::<32>();
    for block in blocks {
        for (lane, word) in lanes.iter_mut().zip(block.as_chunks::<8>().0) {
            *lane = step(*lane, u64::from_le_bytes(*word));
        }
    }
    let mut h = bytes.len() as u64;
    for lane in lanes {
        h = step(h, lane);
    }
    for &b in tail {
        h = step(h, u64::from(b));
    }
    h
}

/// Typed payload of a checksum-verification failure, carried inside an
/// [`io::Error`] of kind [`io::ErrorKind::InvalidData`]. Recover it with
/// [`checksum_mismatch_details`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChecksumMismatch {
    /// Which segment kind failed ("stream", "dictionary", "heap",
    /// "delta", "tombstone", "directory").
    pub segment: &'static str,
    /// Checksum recorded in the directory.
    pub expected: u64,
    /// Checksum of the bytes actually read.
    pub actual: u64,
}

impl fmt::Display for ChecksumMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "checksum mismatch in {} segment: directory says {:#018x}, bytes hash to {:#018x}",
            self.segment, self.expected, self.actual
        )
    }
}

impl std::error::Error for ChecksumMismatch {}

/// Build the [`io::Error`] for a failed segment verification.
pub fn checksum_mismatch(segment: &'static str, expected: u64, actual: u64) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        ChecksumMismatch {
            segment,
            expected,
            actual,
        },
    )
}

/// Is this error a segment checksum failure?
pub fn is_checksum_mismatch(e: &io::Error) -> bool {
    checksum_mismatch_details(e).is_some()
}

/// The typed payload of a checksum failure, if this error carries one.
pub fn checksum_mismatch_details(e: &io::Error) -> Option<&ChecksumMismatch> {
    e.get_ref().and_then(|inner| inner.downcast_ref())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed byte pattern (period 251: no two words of a block alike).
    fn pattern(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(131) % 251) as u8)
            .collect()
    }

    /// Every single-byte substitution at every offset of every length
    /// up to five blocks changes the checksum: the sweep covers every
    /// lane, every tail length 0–31 and the fold.
    #[test]
    fn checksum_detects_every_single_byte_substitution() {
        for len in 1..=160 {
            let base = pattern(len);
            let h = checksum(&base);
            let mut mutated = base.clone();
            for at in 0..len {
                for delta in [1u8, 0x80, 0xFF] {
                    mutated[at] = base[at].wrapping_add(delta);
                    assert_ne!(
                        checksum(&mutated),
                        h,
                        "length {len}: substitution at byte {at} (+{delta}) must change the checksum"
                    );
                }
                mutated[at] = base[at];
            }
        }
    }

    /// Flips bit `bit` of `bytes`, counting little-endian within words.
    fn flip(bytes: &mut [u8], bit: usize) {
        bytes[bit / 8] ^= 1 << (bit % 8);
    }

    /// Every pair of bit flips in two blocks and a tail changes the
    /// checksum, over three fills. Unlike single bytes this is not
    /// guaranteed by construction; the sweep pins that no pair collides.
    /// It covers the pair a rotate-last step `rotl((h ⊕ w) · K, 31)` let
    /// through whatever the data: bit 63 of word `i` and bit 30 of word
    /// `i + 4`, the same lane's next word.
    #[test]
    fn checksum_detects_every_two_bit_flip() {
        const LEN: usize = 72;
        for base in [pattern(LEN), vec![0u8; LEN], vec![0xFF; LEN]] {
            let h = checksum(&base);
            let mut mutated = base.clone();
            for a in 0..LEN * 8 {
                for b in a + 1..LEN * 8 {
                    flip(&mut mutated, a);
                    flip(&mut mutated, b);
                    assert_ne!(checksum(&mutated), h, "bits {a} and {b} flipped");
                    mutated.copy_from_slice(&base);
                }
            }
        }
    }

    /// The checksum is stored in every paged file, so its values are
    /// part of the format.
    #[test]
    fn checksum_known_answers() {
        let pinned: [(usize, u64); 6] = [
            (0, 0xa3ab_1042_ac02_d9c9),
            (1, 0xf340_59c8_b13c_a74a),
            (31, 0x5da7_fe1c_6efa_b827),
            (32, 0x1d61_86c6_9b4c_f87c),
            (33, 0x150a_db21_7f59_afab),
            (4096, 0x511e_f8da_7611_49ff),
        ];
        for (len, want) in pinned {
            assert_eq!(
                checksum(&pattern(len)),
                want,
                "checksum of the {len}-byte pattern moved: a changed checksum changes \
                 every stored file, so it needs a tde_pager::format::VERSION bump"
            );
        }
    }

    /// The same bytes hash alike wherever they sit in memory.
    #[test]
    fn checksum_is_alignment_independent() {
        let bytes = pattern(200);
        let mut buf = vec![0u8; bytes.len() + 8];
        for shift in 0..8 {
            buf[shift..shift + bytes.len()].copy_from_slice(&bytes);
            for len in [0, 7, 31, 32, 33, 64, 200] {
                assert_eq!(
                    checksum(&buf[shift..shift + len]),
                    checksum(&bytes[..len]),
                    "{len} bytes at misalignment {shift}"
                );
            }
        }
    }

    #[test]
    fn checksum_error_is_typed_and_recoverable() {
        let e = checksum_mismatch("stream", 1, 2);
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(is_checksum_mismatch(&e));
        let d = checksum_mismatch_details(&e).unwrap();
        assert_eq!((d.segment, d.expected, d.actual), ("stream", 1, 2));
        assert!(e.to_string().contains("checksum mismatch in stream"));
        let other = io::Error::new(io::ErrorKind::InvalidData, "not a checksum error");
        assert!(!is_checksum_mismatch(&other));
    }

    #[test]
    fn real_io_roundtrip_and_positioned_reads() {
        let dir = std::env::temp_dir().join("tde_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("real.bin");
        let io = RealIo;
        {
            use std::io::Write;
            let mut w = io.create(&path).unwrap();
            w.write_all(b"hello, positioned world").unwrap();
            w.sync_all().unwrap();
        }
        let f = io.open(&path).unwrap();
        assert_eq!(f.len().unwrap(), 23);
        let mut buf = [0u8; 10];
        read_exact_at(&*f, &mut buf, 7, "test").unwrap();
        assert_eq!(&buf, b"positioned");
        // Reading past EOF is an UnexpectedEof, not a panic.
        let mut buf = [0u8; 8];
        let err = read_exact_at(&*f, &mut buf, 20, "test").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let renamed = dir.join("real2.bin");
        io.rename(&path, &renamed).unwrap();
        assert!(io.open(&path).is_err());
        io.remove_file(&renamed).unwrap();
    }
}
