//! Sharded buffer pool for demand-loaded column segments.
//!
//! The pool caches *assembled* segments — a reconstructed
//! [`tde_storage::Column`] (stream plus dictionary) or a shared
//! [`tde_storage::StringHeap`] — keyed by [`SegmentKey`]. Keys hash to
//! one of N shards, each an independently locked map, so concurrent
//! scans of different columns rarely contend.
//!
//! Eviction is second-chance FIFO (a clock over insertion order): each
//! shard keeps its keys in arrival order with a referenced bit that a
//! cache hit sets; when the shard is over its byte budget the sweep pops
//! the front, re-queues it once if referenced, and otherwise evicts.
//! An entry is *pinned* while any `Arc` clone lives outside the cache
//! (`Arc::strong_count > 1`) — pinned entries are skipped, and a
//! rotation guard bounds the sweep so an all-pinned shard inserts over
//! budget rather than spinning forever.
//!
//! Hit/miss/eviction counts flow into a shared
//! [`tde_obs::CacheCounters`], surfaced by `explain_analyze`.

use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::io;
use std::sync::Arc;
use tde_obs::CacheCounters;
use tde_storage::{Column, StringHeap};

/// Identifies one cacheable segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentKey {
    /// An assembled column (stream + dictionary), by directory position.
    Column {
        /// Table index in the directory.
        table: u32,
        /// Column index within the table.
        col: u32,
    },
    /// A string heap, by file offset — columns sharing a heap extent
    /// share the cached heap.
    Heap {
        /// Absolute file offset of the heap segment.
        offset: u64,
    },
}

/// A cached segment payload.
#[derive(Debug, Clone)]
pub enum CachedSegment {
    /// An assembled column.
    Column(Arc<Column>),
    /// A shared string heap.
    Heap(Arc<StringHeap>),
}

impl CachedSegment {
    /// Pinned while any `Arc` clone lives outside the cache.
    fn is_pinned(&self) -> bool {
        match self {
            CachedSegment::Column(c) => Arc::strong_count(c) > 1,
            CachedSegment::Heap(h) => Arc::strong_count(h) > 1,
        }
    }
}

struct Entry {
    seg: CachedSegment,
    bytes: u64,
    referenced: bool,
}

#[derive(Default)]
struct Shard {
    map: HashMap<SegmentKey, Entry>,
    order: VecDeque<SegmentKey>,
    bytes: u64,
}

/// Buffer pool configuration.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Total byte budget across all shards.
    pub budget_bytes: u64,
    /// Number of shards (clamped to at least 1).
    pub shards: usize,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            budget_bytes: 64 << 20,
            shards: 8,
        }
    }
}

/// The sharded pool.
pub struct BufferPool {
    shards: Vec<Mutex<Shard>>,
    shard_budget: u64,
    budget: u64,
    counters: Arc<CacheCounters>,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("shards", &self.shards.len())
            .field("budget", &self.budget)
            .finish()
    }
}

impl BufferPool {
    /// A pool with the given configuration.
    pub fn new(cfg: PoolConfig) -> BufferPool {
        let n = cfg.shards.max(1);
        BufferPool {
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: (cfg.budget_bytes / n as u64).max(1),
            budget: cfg.budget_bytes,
            counters: CacheCounters::new(),
        }
    }

    /// Shared hit/miss/eviction counters.
    pub fn counters(&self) -> &Arc<CacheCounters> {
        &self.counters
    }

    /// Total configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// Bytes currently cached across all shards.
    pub fn bytes_cached(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }

    /// A point-in-time snapshot of the counters plus occupancy.
    pub fn snapshot(&self) -> tde_obs::CacheSnapshot {
        self.counters.snapshot(self.bytes_cached(), self.budget)
    }

    fn shard_for(&self, key: &SegmentKey) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Look up a segment without loading. A hit bumps the referenced bit
    /// and the hit counter.
    pub fn try_get(&self, key: SegmentKey) -> Option<CachedSegment> {
        let mut shard = self.shard_for(&key).lock();
        let entry = shard.map.get_mut(&key)?;
        entry.referenced = true;
        self.counters.record_hit();
        Some(entry.seg.clone())
    }

    /// Fetch a segment, invoking `load` on miss. `load` returns the
    /// payload and its cost in bytes; it runs under the shard lock, so it
    /// MUST NOT touch the pool (a same-shard re-entry would deadlock) —
    /// resolve any dependent segments (a column's heap) *before* calling.
    pub fn get_or_load(
        &self,
        key: SegmentKey,
        load: impl FnOnce() -> io::Result<(CachedSegment, u64)>,
    ) -> io::Result<CachedSegment> {
        let mut shard = self.shard_for(&key).lock();
        if let Some(entry) = shard.map.get_mut(&key) {
            entry.referenced = true;
            self.counters.record_hit();
            return Ok(entry.seg.clone());
        }
        let (seg, bytes) = load()?;
        self.counters.record_miss(bytes);
        shard.map.insert(
            key,
            Entry {
                seg: seg.clone(),
                bytes,
                referenced: false,
            },
        );
        shard.order.push_back(key);
        shard.bytes += bytes;
        if tde_obs::metrics::enabled() {
            tde_obs::metrics::pool_metrics()
                .resident_bytes
                .add(bytes as i64);
        }
        self.evict_over_budget(&mut shard);
        Ok(seg)
    }

    /// Second-chance sweep: evict until the shard fits its budget. The
    /// rotation guard (two full passes) stops the sweep when every
    /// surviving entry is referenced-then-pinned, accepting temporary
    /// over-budget occupancy instead of livelock.
    fn evict_over_budget(&self, shard: &mut Shard) {
        let mut rotations = 2 * shard.order.len();
        while shard.bytes > self.shard_budget && rotations > 0 {
            rotations -= 1;
            let Some(key) = shard.order.pop_front() else {
                break;
            };
            let Some(entry) = shard.map.get_mut(&key) else {
                continue;
            };
            if entry.referenced {
                entry.referenced = false;
                shard.order.push_back(key);
                continue;
            }
            if entry.seg.is_pinned() {
                shard.order.push_back(key);
                continue;
            }
            let evicted = shard.map.remove(&key).expect("entry just seen");
            shard.bytes -= evicted.bytes;
            if tde_obs::metrics::enabled() {
                tde_obs::metrics::pool_metrics()
                    .resident_bytes
                    .sub(evicted.bytes as i64);
            }
            self.counters.record_eviction(evicted.bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tde_encodings::dynamic::encode_all;
    use tde_types::{DataType, Width};

    fn col(name: &str, n: i64) -> (CachedSegment, u64) {
        let vals: Vec<i64> = (0..n).collect();
        let stream = encode_all(&vals, Width::W8, true).stream;
        let bytes = stream.as_bytes().len() as u64;
        let c = Column::scalar(name, DataType::Integer, stream);
        (CachedSegment::Column(Arc::new(c)), bytes)
    }

    fn key(i: u32) -> SegmentKey {
        SegmentKey::Column { table: 0, col: i }
    }

    #[test]
    fn hit_after_miss() {
        let pool = BufferPool::new(PoolConfig::default());
        assert!(pool.try_get(key(0)).is_none());
        pool.get_or_load(key(0), || Ok(col("a", 100))).unwrap();
        assert!(pool.try_get(key(0)).is_some());
        let snap = pool.snapshot();
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.hits, 1);
        assert!(snap.bytes_cached > 0);
    }

    #[test]
    fn eviction_respects_budget() {
        // One shard, budget for roughly two columns.
        let (_, one_cost) = col("probe", 4096);
        let pool = BufferPool::new(PoolConfig {
            budget_bytes: one_cost * 2 + 16,
            shards: 1,
        });
        for i in 0..8 {
            pool.get_or_load(key(i), || Ok(col("c", 4096))).unwrap();
        }
        let snap = pool.snapshot();
        assert!(snap.evictions >= 5, "expected evictions, got {snap:?}");
        assert!(
            snap.bytes_cached <= pool.budget_bytes(),
            "over budget: {snap:?}"
        );
    }

    #[test]
    fn referenced_entries_survive_one_sweep() {
        let (_, one_cost) = col("probe", 4096);
        let pool = BufferPool::new(PoolConfig {
            budget_bytes: one_cost * 2 + 16,
            shards: 1,
        });
        pool.get_or_load(key(0), || Ok(col("hot", 4096))).unwrap();
        // Touch it: the referenced bit gives it a second chance.
        pool.try_get(key(0)).unwrap();
        pool.get_or_load(key(1), || Ok(col("b", 4096))).unwrap();
        pool.get_or_load(key(2), || Ok(col("c", 4096))).unwrap();
        // The hot entry survived the sweep that evicted someone.
        let snap = pool.snapshot();
        assert!(snap.evictions >= 1);
        assert!(pool.try_get(key(0)).is_some(), "hot entry was evicted");
    }

    #[test]
    fn pinned_entries_are_not_evicted() {
        let (_, one_cost) = col("probe", 4096);
        let pool = BufferPool::new(PoolConfig {
            budget_bytes: one_cost,
            shards: 1,
        });
        let pinned = pool.get_or_load(key(0), || Ok(col("pin", 4096))).unwrap();
        // Way over budget, but the only candidate is pinned.
        for i in 1..4 {
            pool.get_or_load(key(i), || Ok(col("x", 4096))).unwrap();
        }
        assert!(
            pool.try_get(key(0)).is_some(),
            "pinned entry must survive eviction"
        );
        drop(pinned);
        // Unpinned now; further pressure evicts it.
        for i in 4..8 {
            pool.get_or_load(key(i), || Ok(col("y", 4096))).unwrap();
        }
        assert!(pool.bytes_cached() <= pool.budget_bytes() + one_cost);
    }

    #[test]
    fn load_error_propagates_and_caches_nothing() {
        let pool = BufferPool::new(PoolConfig::default());
        let err = pool
            .get_or_load(key(0), || {
                Err(io::Error::new(io::ErrorKind::InvalidData, "boom"))
            })
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(pool.try_get(key(0)).is_none());
        assert_eq!(pool.snapshot().misses, 0);
    }
}
