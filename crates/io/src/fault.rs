//! Deterministic fault injection over the real filesystem.
//!
//! [`FaultIo`] wraps [`RealIo`](crate::RealIo) and injects faults from a
//! seeded [`FaultPlan`]. Everything is counter-driven, never wall-clock
//! or RNG-per-call, so a failing configuration replays identically from
//! its seed:
//!
//! * **Short reads** — every Nth `read_at` returns roughly half the
//!   requested bytes.
//! * **Transient errors** — every Nth `read_at` fails with
//!   [`io::ErrorKind::Interrupted`]; the retry discipline in
//!   [`read_exact_at`](crate::read_exact_at) must absorb these.
//! * **Hard read failures** — the next N reads fail outright
//!   (non-retryable), for poisoning buffer-pool load slots.
//! * **ENOSPC** — writes fail once cumulative bytes exceed a budget.
//! * **Rename failures** — the first N renames fail (transiently: the
//!   backend stays usable, so temp-file cleanup is exercised).
//! * **Dropped fsyncs** — `sync_all` silently does nothing.
//! * **Crash at write boundary k** — mutating operations (create, each
//!   buffered write, fsync, rename) are numbered; operation k tears
//!   (writes a seeded prefix, for writes) or is suppressed (for
//!   create/fsync/rename), and every later mutating operation fails as
//!   if the process were dead. Reads also fail post-crash; a harness
//!   reopens with a fresh backend to model recovery.
//!
//! Injected faults are counted locally ([`FaultStats`]) and reported as
//! [`tde_obs::Event::IoFault`]s: the process-wide metrics registry counts
//! them (`tde_io_faults_injected_total{kind}`) and they land on the
//! query timeline when tracing is on.

use crate::{IoFile, IoWriter, RealIo, StorageIo};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Seeded, deterministic fault schedule. `..Default::default()` disables
/// every fault; enable only what a test needs.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Mixed into torn-write prefix lengths so different seeds tear at
    /// different byte offsets.
    pub seed: u64,
    /// Every Nth `read_at` (1-based) returns a short read. Use N ≥ 2.
    pub short_read_period: Option<u64>,
    /// Every Nth `read_at` fails with `Interrupted`. Use N ≥ 2 so a
    /// bounded retry always succeeds.
    pub transient_read_period: Option<u64>,
    /// Cumulative write budget in bytes; writes beyond it fail with
    /// [`io::ErrorKind::StorageFull`].
    pub enospc_after_bytes: Option<u64>,
    /// Fail the first N renames with a transient error.
    pub fail_renames: u64,
    /// Turn `sync_all` into a silent no-op.
    pub drop_fsync: bool,
    /// Crash at mutating-operation index k (0-based). See module docs.
    pub crash_at_op: Option<u64>,
}

/// Snapshot of the faults a [`FaultIo`] has injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Total `read_at` calls observed.
    pub reads: u64,
    /// Short reads injected.
    pub short_reads: u64,
    /// Transient (`Interrupted`) read errors injected.
    pub transient_read_errors: u64,
    /// Hard (non-retryable) read errors injected.
    pub hard_read_errors: u64,
    /// Mutating operations observed (create / write / fsync / rename).
    pub mutating_ops: u64,
    /// Writes rejected with `StorageFull`.
    pub enospc_errors: u64,
    /// Renames failed.
    pub renames_failed: u64,
    /// Fsyncs silently dropped.
    pub fsyncs_dropped: u64,
    /// Did the crash fire?
    pub crashed: bool,
}

#[derive(Debug)]
struct State {
    plan: FaultPlan,
    inner: RealIo,
    reads: AtomicU64,
    short_reads: AtomicU64,
    transient_read_errors: AtomicU64,
    hard_read_errors: AtomicU64,
    /// Countdown of pending hard read failures (armed by tests).
    hard_reads_armed: AtomicU64,
    mut_ops: AtomicU64,
    bytes_written: AtomicU64,
    enospc_errors: AtomicU64,
    renames_failed: AtomicU64,
    fsyncs_dropped: AtomicU64,
    crashed: AtomicBool,
}

impl State {
    fn crash_error(&self) -> io::Error {
        io::Error::other("injected crash: backend is dead")
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.crashed.load(Ordering::SeqCst) {
            Err(self.crash_error())
        } else {
            Ok(())
        }
    }

    /// Number the next mutating operation; if it is the crash boundary,
    /// flip into the dead state and report it.
    fn next_mutating_op(&self) -> io::Result<(u64, bool)> {
        self.check_alive()?;
        let k = self.mut_ops.fetch_add(1, Ordering::SeqCst);
        let crash_here = self.plan.crash_at_op == Some(k);
        if crash_here {
            self.crashed.store(true, Ordering::SeqCst);
            tde_obs::emit(|| tde_obs::Event::IoFault { kind: "crash" });
        }
        Ok((k, crash_here))
    }
}

/// A fault-injecting [`StorageIo`] backend over the real filesystem.
/// Clones share state: fault counters and the crash flag span every file
/// opened through the same `FaultIo`.
#[derive(Debug, Clone)]
pub struct FaultIo {
    state: Arc<State>,
}

impl FaultIo {
    /// Wrap the real filesystem with the given fault plan.
    pub fn new(plan: FaultPlan) -> FaultIo {
        FaultIo {
            state: Arc::new(State {
                plan,
                inner: RealIo,
                reads: AtomicU64::new(0),
                short_reads: AtomicU64::new(0),
                transient_read_errors: AtomicU64::new(0),
                hard_read_errors: AtomicU64::new(0),
                hard_reads_armed: AtomicU64::new(0),
                mut_ops: AtomicU64::new(0),
                bytes_written: AtomicU64::new(0),
                enospc_errors: AtomicU64::new(0),
                renames_failed: AtomicU64::new(0),
                fsyncs_dropped: AtomicU64::new(0),
                crashed: AtomicBool::new(false),
            }),
        }
    }

    /// A fault-free instance that only counts operations — used to
    /// discover how many write boundaries a save performs before
    /// sweeping `crash_at_op` over them.
    pub fn counting() -> FaultIo {
        FaultIo::new(FaultPlan::default())
    }

    /// Arm the next `n` `read_at` calls to fail with a hard
    /// (non-retryable) error. Counted in
    /// [`FaultStats::hard_read_errors`].
    pub fn arm_hard_read_failures(&self, n: u64) {
        self.state.hard_reads_armed.store(n, Ordering::SeqCst);
    }

    /// Mutating operations observed so far (create / write / fsync /
    /// rename). After a fault-free save this is the boundary count to
    /// sweep `crash_at_op` over.
    pub fn ops_observed(&self) -> u64 {
        self.state.mut_ops.load(Ordering::SeqCst)
    }

    /// Did the planned crash boundary fire?
    pub fn crashed(&self) -> bool {
        self.state.crashed.load(Ordering::SeqCst)
    }

    /// Snapshot the injected-fault counters.
    pub fn stats(&self) -> FaultStats {
        let s = &self.state;
        FaultStats {
            reads: s.reads.load(Ordering::SeqCst),
            short_reads: s.short_reads.load(Ordering::SeqCst),
            transient_read_errors: s.transient_read_errors.load(Ordering::SeqCst),
            hard_read_errors: s.hard_read_errors.load(Ordering::SeqCst),
            mutating_ops: s.mut_ops.load(Ordering::SeqCst),
            enospc_errors: s.enospc_errors.load(Ordering::SeqCst),
            renames_failed: s.renames_failed.load(Ordering::SeqCst),
            fsyncs_dropped: s.fsyncs_dropped.load(Ordering::SeqCst),
            crashed: s.crashed.load(Ordering::SeqCst),
        }
    }
}

#[derive(Debug)]
struct FaultFile {
    inner: Box<dyn IoFile>,
    state: Arc<State>,
}

impl IoFile for FaultFile {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        let st = &self.state;
        st.check_alive()?;
        // 1-based read number, driving the counter-periodic faults below.
        let k = st.reads.fetch_add(1, Ordering::SeqCst) + 1;
        // Hard failures first: they model a genuinely bad sector, which
        // no retry discipline should paper over.
        if st
            .hard_reads_armed
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            st.hard_read_errors.fetch_add(1, Ordering::SeqCst);
            tde_obs::emit(|| tde_obs::Event::IoFault { kind: "hard-read" });
            return Err(io::Error::other("injected hard read failure"));
        }
        if let Some(p) = st.plan.transient_read_period {
            if p >= 1 && k.is_multiple_of(p) {
                st.transient_read_errors.fetch_add(1, Ordering::SeqCst);
                tde_obs::emit(|| tde_obs::Event::IoFault {
                    kind: "transient-read",
                });
                return Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "injected transient read error",
                ));
            }
        }
        if let Some(p) = st.plan.short_read_period {
            if p >= 1 && k.is_multiple_of(p) && buf.len() > 1 {
                st.short_reads.fetch_add(1, Ordering::SeqCst);
                tde_obs::emit(|| tde_obs::Event::IoFault { kind: "short-read" });
                let half = (buf.len() / 2).max(1);
                return self.inner.read_at(&mut buf[..half], offset);
            }
        }
        self.inner.read_at(buf, offset)
    }

    fn len(&self) -> io::Result<u64> {
        self.state.check_alive()?;
        self.inner.len()
    }
}

#[derive(Debug)]
struct FaultWriter {
    inner: Box<dyn IoWriter>,
    state: Arc<State>,
}

impl io::Write for FaultWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let st = Arc::clone(&self.state);
        if let Some(limit) = st.plan.enospc_after_bytes {
            st.check_alive()?;
            if st.bytes_written.load(Ordering::SeqCst) + buf.len() as u64 > limit {
                st.enospc_errors.fetch_add(1, Ordering::SeqCst);
                tde_obs::emit(|| tde_obs::Event::IoFault { kind: "enospc" });
                return Err(io::Error::new(
                    io::ErrorKind::StorageFull,
                    "injected ENOSPC: write budget exhausted",
                ));
            }
        }
        let (k, crash_here) = st.next_mutating_op()?;
        if crash_here {
            // Torn write: a seeded prefix of this buffer reaches the
            // file before the "power goes out".
            let keep = (splitmix(st.plan.seed ^ k) % (buf.len() as u64 + 1)) as usize;
            if keep > 0 {
                self.inner.write_all(&buf[..keep]).ok();
                self.inner.flush().ok();
            }
            return Err(st.crash_error());
        }
        self.inner.write_all(buf)?;
        st.bytes_written
            .fetch_add(buf.len() as u64, Ordering::SeqCst);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.state.check_alive()?;
        self.inner.flush()
    }
}

impl IoWriter for FaultWriter {
    fn sync_all(&mut self) -> io::Result<()> {
        let st = Arc::clone(&self.state);
        let (_, crash_here) = st.next_mutating_op()?;
        if crash_here {
            return Err(st.crash_error());
        }
        if st.plan.drop_fsync {
            st.fsyncs_dropped.fetch_add(1, Ordering::SeqCst);
            tde_obs::emit(|| tde_obs::Event::IoFault { kind: "fsync-drop" });
            return Ok(());
        }
        self.inner.sync_all()
    }
}

impl StorageIo for FaultIo {
    fn open(&self, path: &Path) -> io::Result<Box<dyn IoFile>> {
        self.state.check_alive()?;
        Ok(Box::new(FaultFile {
            inner: self.state.inner.open(path)?,
            state: Arc::clone(&self.state),
        }))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn IoWriter>> {
        let (_, crash_here) = self.state.next_mutating_op()?;
        if crash_here {
            return Err(self.state.crash_error());
        }
        Ok(Box::new(FaultWriter {
            inner: self.state.inner.create(path)?,
            state: Arc::clone(&self.state),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let (_, crash_here) = self.state.next_mutating_op()?;
        if crash_here {
            return Err(self.state.crash_error());
        }
        if self
            .state
            .renames_failed
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.state.plan.fail_renames).then_some(n + 1)
            })
            .is_ok()
        {
            tde_obs::emit(|| tde_obs::Event::IoFault { kind: "rename" });
            return Err(io::Error::other("injected rename failure"));
        }
        self.state.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        // Not a numbered boundary: cleanup only runs on error paths, and
        // numbering it would make boundary counts diverge between the
        // counting pass and the crash sweep. A dead backend still
        // refuses, so crash mode realistically strands the temp file.
        self.state.check_alive()?;
        self.state.inner.remove_file(path)
    }
}

/// splitmix64 — a tiny seeded mixer for torn-write prefix lengths.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read_exact_at;
    use std::io::Write;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tde_io_fault_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn write_file(io: &dyn StorageIo, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut w = io.create(path)?;
        w.write_all(bytes)?;
        w.flush()?;
        w.sync_all()
    }

    #[test]
    fn transient_and_short_reads_are_absorbed_by_retry() {
        let path = tmp("retry.bin");
        let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        write_file(&RealIo, &path, &payload).unwrap();
        let io = FaultIo::new(FaultPlan {
            transient_read_period: Some(2),
            short_read_period: Some(3),
            ..Default::default()
        });
        let f = io.open(&path).unwrap();
        let mut buf = vec![0u8; payload.len()];
        for (i, chunk) in buf.chunks_mut(1000).enumerate() {
            read_exact_at(&*f, chunk, (i * 1000) as u64, "test").unwrap();
        }
        assert_eq!(buf, payload);
        let stats = io.stats();
        assert!(stats.transient_read_errors > 0, "{stats:?}");
        assert!(stats.short_reads > 0, "{stats:?}");
    }

    #[test]
    fn hard_read_failures_are_not_retried() {
        let path = tmp("hard.bin");
        write_file(&RealIo, &path, &[7u8; 64]).unwrap();
        let io = FaultIo::new(FaultPlan::default());
        let f = io.open(&path).unwrap();
        io.arm_hard_read_failures(2);
        let mut buf = [0u8; 8];
        assert!(read_exact_at(&*f, &mut buf, 0, "test").is_err());
        assert!(read_exact_at(&*f, &mut buf, 0, "test").is_err());
        read_exact_at(&*f, &mut buf, 0, "test").unwrap();
        assert_eq!(io.stats().hard_read_errors, 2);
    }

    #[test]
    fn enospc_fires_at_the_budget() {
        let path = tmp("enospc.bin");
        let io = FaultIo::new(FaultPlan {
            enospc_after_bytes: Some(10),
            ..Default::default()
        });
        let mut w = io.create(&path).unwrap();
        w.write_all(&[0u8; 8]).unwrap();
        let err = w.write_all(&[0u8; 8]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(io.stats().enospc_errors, 1);
    }

    #[test]
    fn crash_boundary_kills_the_backend() {
        let path = tmp("crash.bin");
        // Boundary 0 is the create itself.
        let io = FaultIo::new(FaultPlan {
            crash_at_op: Some(0),
            ..Default::default()
        });
        assert!(io.create(&path).is_err());
        assert!(io.crashed());
        assert!(io.open(&path).is_err(), "dead backend must refuse reads");
        assert!(io.remove_file(&path).is_err());

        // Boundary 1 is the first write: the file exists but holds at
        // most a torn prefix.
        let io = FaultIo::new(FaultPlan {
            seed: 42,
            crash_at_op: Some(1),
            ..Default::default()
        });
        let mut w = io.create(&path).unwrap();
        assert!(w.write_all(&[9u8; 100]).is_err());
        assert!(io.crashed());
        let on_disk = std::fs::read(&path).unwrap();
        assert!(on_disk.len() < 100, "torn write must be a strict prefix");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn counting_mode_reports_boundaries_and_injects_nothing() {
        let path = tmp("count.bin");
        let io = FaultIo::counting();
        write_file(&io, &path, &[1u8; 32]).unwrap();
        // create + write + sync = 3 mutating ops (flush of a raw file
        // write is not numbered).
        assert_eq!(io.ops_observed(), 3);
        let stats = io.stats();
        assert_eq!(
            stats.short_reads + stats.transient_read_errors + stats.enospc_errors,
            0
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rename_failures_are_transient() {
        let a = tmp("ren_a.bin");
        let b = tmp("ren_b.bin");
        write_file(&RealIo, &a, &[3u8; 16]).unwrap();
        let io = FaultIo::new(FaultPlan {
            fail_renames: 1,
            ..Default::default()
        });
        assert!(io.rename(&a, &b).is_err());
        io.rename(&a, &b).unwrap();
        assert_eq!(io.stats().renames_failed, 1);
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn dropped_fsync_is_silent() {
        let path = tmp("fsync.bin");
        let io = FaultIo::new(FaultPlan {
            drop_fsync: true,
            ..Default::default()
        });
        write_file(&io, &path, &[5u8; 16]).unwrap();
        assert_eq!(io.stats().fsyncs_dropped, 1);
        std::fs::remove_file(&path).ok();
    }
}
