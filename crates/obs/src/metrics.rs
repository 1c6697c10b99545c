//! Always-on engine metrics: a process-wide registry of named
//! instruments.
//!
//! Where the [`crate::timeline`] records each query in its own scope,
//! the metrics registry is **always on**: counters, gauges and histograms accumulate over the
//! whole process lifetime, across every query, load and cache event.
//! `tde-stats` exports the registry in Prometheus text exposition format
//! and JSON.
//!
//! **Overhead contract** (the same one [`crate::emit`] documents): when
//! the registry is disabled (`TDE_METRICS=0`), every instrumentation
//! helper in this module is a single relaxed atomic load followed by an
//! early return. When enabled, hot-path call sites sit on per-block,
//! per-segment or per-operator paths — never per row — and bump relaxed
//! atomics through pre-resolved handles; only *registration* (first use
//! of a name/label pair) takes the registry lock.
//!
//! Naming follows Prometheus conventions: every instrument is prefixed
//! `tde_`, monotonic counters end in `_total`, byte counters in
//! `_bytes_total`, and duration histograms in `_ns` (nanosecond units).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, OnceLock};

// ---------------------------------------------------------------------
// Instruments.
// ---------------------------------------------------------------------

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh counter (detached unless registered).
    pub fn new() -> Arc<Counter> {
        Arc::new(Counter::default())
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (pool residency, open
/// files, …).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A fresh gauge (detached unless registered).
    pub fn new() -> Arc<Gauge> {
        Arc::new(Gauge::default())
    }

    /// Set the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Smallest finite bucket bound: `2^MIN_EXP`.
const MIN_EXP: u32 = 8;
/// Values at or above `2^MAX_EXP` fall into the implicit `+Inf` bucket.
const MAX_EXP: u32 = 38;
/// Linear sub-buckets per power-of-two group.
const SUB_BUCKETS: usize = 4;
/// Finite bucket count: one underflow bucket plus 4 per group.
const BUCKETS: usize = 1 + (MAX_EXP - MIN_EXP) as usize * SUB_BUCKETS;

/// A log-linear-bucket histogram for latency-shaped values.
///
/// Power-of-two groups between `2^8` and `2^38` (≈256 ns to ≈4.6 min
/// when observing nanoseconds), each split into 4 linear sub-buckets;
/// one underflow bucket below, an implicit `+Inf` bucket above. Bucket
/// placement is two shifts and a mask — no floating point, no search.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// A fresh histogram (detached unless registered).
    pub fn new() -> Arc<Histogram> {
        Arc::new(Histogram::default())
    }

    /// The finite bucket index for `v`, or `None` for the `+Inf` bucket.
    fn bucket_index(v: u64) -> Option<usize> {
        if v < (1u64 << MIN_EXP) {
            return Some(0);
        }
        if v >= (1u64 << MAX_EXP) {
            return None;
        }
        let group = 63 - v.leading_zeros(); // floor(log2 v), in MIN_EXP..MAX_EXP
        let sub = ((v >> (group - 2)) & 3) as usize;
        Some(1 + (group - MIN_EXP) as usize * SUB_BUCKETS + sub)
    }

    /// The inclusive upper bound of finite bucket `idx` (the Prometheus
    /// `le` value: every observation in the bucket is `<=` this).
    pub fn bucket_bound(idx: usize) -> u64 {
        if idx == 0 {
            return (1u64 << MIN_EXP) - 1;
        }
        let group = MIN_EXP + ((idx - 1) / SUB_BUCKETS) as u32;
        let sub = ((idx - 1) % SUB_BUCKETS) as u64;
        (1u64 << group) + (sub + 1) * (1u64 << (group - 2)) - 1
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        if let Some(idx) = Self::bucket_index(v) {
            self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut cumulative = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                cumulative += n;
                buckets.push((Self::bucket_bound(i), cumulative));
            }
        }
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }
}

/// A point-in-time view of one histogram: `(upper_bound, cumulative
/// count)` for every non-empty finite bucket, in increasing bound order.
/// `count - buckets.last().1` observations fell into `+Inf`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Non-empty finite buckets as `(upper_bound, cumulative_count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (0..=1) from the bucket bounds: the
    /// upper bound of the first bucket whose cumulative count covers the
    /// rank. Observations in `+Inf` report the largest finite bound.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        for &(bound, cum) in &self.buckets {
            if cum >= rank {
                return bound;
            }
        }
        self.buckets.last().map_or(0, |&(b, _)| b)
    }
}

// ---------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------

/// A registered instrument handle.
#[derive(Debug, Clone)]
pub enum Handle {
    /// A counter.
    Counter(Arc<Counter>),
    /// A gauge.
    Gauge(Arc<Gauge>),
    /// A histogram.
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
struct Instrument {
    help: &'static str,
    handle: Handle,
}

/// Identifies one instrument: name plus sorted label pairs.
pub type InstrumentKey = (String, Vec<(String, String)>);

/// A process-wide (or, in tests, local) registry of named instruments.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    enabled: AtomicBool,
    inner: Mutex<BTreeMap<InstrumentKey, Instrument>>,
}

fn lock_inner(
    m: &Mutex<BTreeMap<InstrumentKey, Instrument>>,
) -> std::sync::MutexGuard<'_, BTreeMap<InstrumentKey, Instrument>> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn key_of(name: &str, labels: &[(&str, &str)]) -> InstrumentKey {
    let mut l: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
        .collect();
    l.sort();
    (name.to_owned(), l)
}

impl MetricsRegistry {
    /// A fresh, enabled registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            enabled: AtomicBool::new(true),
            inner: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether instrumentation is on. One relaxed atomic load.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn instrumentation on.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turn instrumentation off. Registered instruments keep their
    /// values; guarded helpers become single-load no-ops.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Register (or fetch) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &'static str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Register (or fetch) a labeled counter.
    pub fn counter_with(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Counter> {
        let mut inner = lock_inner(&self.inner);
        match &inner
            .entry(key_of(name, labels))
            .or_insert_with(|| Instrument {
                help,
                handle: Handle::Counter(Counter::new()),
            })
            .handle
        {
            Handle::Counter(c) => c.clone(),
            // Kind clash: hand back a detached instrument rather than
            // panicking inside engine code.
            _ => Counter::new(),
        }
    }

    /// Register (or fetch) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &'static str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Register (or fetch) a labeled gauge.
    pub fn gauge_with(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Gauge> {
        let mut inner = lock_inner(&self.inner);
        match &inner
            .entry(key_of(name, labels))
            .or_insert_with(|| Instrument {
                help,
                handle: Handle::Gauge(Gauge::new()),
            })
            .handle
        {
            Handle::Gauge(g) => g.clone(),
            _ => Gauge::new(),
        }
    }

    /// Register (or fetch) an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &'static str) -> Arc<Histogram> {
        self.histogram_with(name, help, &[])
    }

    /// Register (or fetch) a labeled histogram.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        let mut inner = lock_inner(&self.inner);
        match &inner
            .entry(key_of(name, labels))
            .or_insert_with(|| Instrument {
                help,
                handle: Handle::Histogram(Histogram::new()),
            })
            .handle
        {
            Handle::Histogram(h) => h.clone(),
            _ => Histogram::new(),
        }
    }

    /// Bump a labeled counter if enabled; a single relaxed load when
    /// disabled. For per-operator/per-segment paths where caching the
    /// handle is impractical.
    #[inline]
    pub fn bump(&self, name: &str, help: &'static str, labels: &[(&str, &str)], n: u64) {
        if !self.is_enabled() {
            return;
        }
        self.counter_with(name, help, labels).add(n);
    }

    /// A point-in-time snapshot of every registered instrument, in
    /// sorted (name, labels) order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = lock_inner(&self.inner);
        let samples = inner
            .iter()
            .map(|((name, labels), inst)| Sample {
                name: name.clone(),
                labels: labels.clone(),
                help: inst.help,
                value: match &inst.handle {
                    Handle::Counter(c) => SampleValue::Counter(c.get()),
                    Handle::Gauge(g) => SampleValue::Gauge(g.get()),
                    Handle::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        MetricsSnapshot { samples }
    }
}

/// The value of one sampled instrument.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram distribution.
    Histogram(HistogramSnapshot),
}

/// One sampled instrument.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Instrument name (`tde_…`).
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Help text registered with the instrument.
    pub help: &'static str,
    /// Sampled value.
    pub value: SampleValue,
}

impl Sample {
    /// The sample's fully-qualified key, `name{k="v",…}` (bare name when
    /// unlabeled) — used for counter deltas and bench snapshots.
    pub fn key(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let labels: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", crate::json_escape(v)))
            .collect();
        format!("{}{{{}}}", self.name, labels.join(","))
    }
}

/// A point-in-time view of the whole registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Every registered instrument, sorted by (name, labels).
    pub samples: Vec<Sample>,
}

impl MetricsSnapshot {
    /// Counter increments between `earlier` and `self`, keyed by
    /// [`Sample::key`]. Counters absent earlier are reported whole;
    /// zero deltas are omitted. Saturating, so a counter reset (process
    /// restart mid-comparison) reads as zero, not a panic.
    pub fn counter_deltas(&self, earlier: &MetricsSnapshot) -> Vec<(String, u64)> {
        type SampleKey<'a> = (&'a String, &'a Vec<(String, String)>);
        let before: BTreeMap<SampleKey, u64> = earlier
            .samples
            .iter()
            .filter_map(|s| match s.value {
                SampleValue::Counter(v) => Some(((&s.name, &s.labels), v)),
                _ => None,
            })
            .collect();
        self.samples
            .iter()
            .filter_map(|s| match s.value {
                SampleValue::Counter(v) => {
                    let prev = before.get(&(&s.name, &s.labels)).copied().unwrap_or(0);
                    let delta = v.saturating_sub(prev);
                    (delta > 0).then(|| (s.key(), delta))
                }
                _ => None,
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// The process-wide registry and the engine's instrument catalog.
// ---------------------------------------------------------------------

static GLOBAL: LazyLock<MetricsRegistry> = LazyLock::new(|| {
    let r = MetricsRegistry::new();
    if matches!(
        std::env::var("TDE_METRICS").as_deref(),
        Ok("0") | Ok("off") | Ok("false")
    ) {
        r.disable();
    }
    r
});

/// The process-wide registry.
pub fn global() -> &'static MetricsRegistry {
    &GLOBAL
}

/// Whether the process-wide registry is enabled. One relaxed atomic
/// load (plus the one-time lazy init) — safe on any engine path.
#[inline]
pub fn enabled() -> bool {
    GLOBAL.is_enabled()
}

fn cached_counter<'a>(
    cell: &'a OnceLock<Arc<Counter>>,
    name: &'static str,
    help: &'static str,
) -> &'a Arc<Counter> {
    cell.get_or_init(|| GLOBAL.counter(name, help))
}

fn cached_histogram<'a>(
    cell: &'a OnceLock<Arc<Histogram>>,
    name: &'static str,
    help: &'static str,
) -> &'a Arc<Histogram> {
    cell.get_or_init(|| GLOBAL.histogram(name, help))
}

/// `tde_queries_total` — queries executed through `tde_core::Query`.
pub fn queries_total() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    cached_counter(&C, "tde_queries_total", "Queries executed")
}

/// `tde_queries_failed_total` — queries whose execution returned an
/// error (they bump this instead of vanishing from the counters).
pub fn queries_failed_total() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    cached_counter(&C, "tde_queries_failed_total", "Queries that failed")
}

/// `tde_slow_queries_total` — queries past the `TDE_SLOW_QUERY_NS`
/// threshold.
pub fn slow_queries_total() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    cached_counter(
        &C,
        "tde_slow_queries_total",
        "Queries slower than TDE_SLOW_QUERY_NS",
    )
}

/// `tde_query_rows_total` — rows produced by query roots.
pub fn query_rows_total() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    cached_counter(&C, "tde_query_rows_total", "Rows produced by queries")
}

/// `tde_query_latency_ns` — end-to-end query latency (plan + execute).
pub fn query_latency_ns() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    cached_histogram(
        &H,
        "tde_query_latency_ns",
        "End-to-end query latency in nanoseconds (plan + execute)",
    )
}

/// `tde_segment_load_ns` — v2 segment demand-load latency.
pub fn segment_load_ns() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    cached_histogram(
        &H,
        "tde_segment_load_ns",
        "Paged (v2) segment demand-load latency in nanoseconds",
    )
}

/// Per-operator-kind counters, pre-resolved at lowering time so the
/// per-block path is two relaxed `fetch_add`s.
#[derive(Debug, Clone)]
pub struct OperatorCounters {
    /// `tde_operator_blocks_total{op=…}`.
    pub blocks: Arc<Counter>,
    /// `tde_operator_rows_total{op=…}`.
    pub rows: Arc<Counter>,
}

/// Resolve the per-operator-kind counters, or `None` when the registry
/// is disabled (callers then skip wrapping entirely).
pub fn operator_counters(op: &str) -> Option<OperatorCounters> {
    if !enabled() {
        return None;
    }
    Some(OperatorCounters {
        blocks: GLOBAL.counter_with(
            "tde_operator_blocks_total",
            "Blocks produced, by operator kind",
            &[("op", op)],
        ),
        rows: GLOBAL.counter_with(
            "tde_operator_rows_total",
            "Rows produced, by operator kind",
            &[("op", op)],
        ),
    })
}

/// Tally one tactical decision: `tde_tactical_decisions_total{point,choice}`.
/// `choice` must be a *stable, low-cardinality* label (the strategy
/// name, not the reason string).
#[inline]
pub fn decision(point: &'static str, choice: &str) {
    GLOBAL.bump(
        "tde_tactical_decisions_total",
        "Tactical (run-time) decisions, by decision point and choice",
        &[("point", point), ("choice", choice)],
        1,
    );
}

/// Tally one kernel-pushdown resolution:
/// `tde_kernel_pushdown_total{encoding,kernel}`. `kernel` is the chosen
/// kernel kind or `fallback`/`forced-fallback`.
#[inline]
pub fn kernel_pushdown(encoding: &str, kernel: &str) {
    GLOBAL.bump(
        "tde_kernel_pushdown_total",
        "Predicate pushdown resolutions, by column encoding and chosen kernel",
        &[("encoding", encoding), ("kernel", kernel)],
        1,
    );
}

/// Record the end-of-scan kernel row accounting.
#[inline]
pub fn kernel_scan_rows(rows_in: u64, rows_out: u64, rows_skipped: u64) {
    if !enabled() {
        return;
    }
    static IN: OnceLock<Arc<Counter>> = OnceLock::new();
    static OUT: OnceLock<Arc<Counter>> = OnceLock::new();
    static SKIP: OnceLock<Arc<Counter>> = OnceLock::new();
    cached_counter(
        &IN,
        "tde_kernel_rows_in_total",
        "Rows considered by pushed-predicate scans",
    )
    .add(rows_in);
    cached_counter(
        &OUT,
        "tde_kernel_rows_out_total",
        "Rows matched by pushed-predicate scans",
    )
    .add(rows_out);
    cached_counter(
        &SKIP,
        "tde_kernel_rows_skipped_total",
        "Rows eliminated in the compressed domain without decode",
    )
    .add(rows_skipped);
}

/// Tally one dynamic-encoding transition: `tde_reencodings_total{phase}`
/// (`phase` is `mid-load` or `final-convert`).
#[inline]
pub fn reencode(phase: &'static str) {
    GLOBAL.bump(
        "tde_reencodings_total",
        "Dynamic-encoding transitions, by phase",
        &[("phase", phase)],
        1,
    );
}

/// Tally one §3.4.3 encoding→compression conversion:
/// `tde_conversions_total{route}`.
#[inline]
pub fn conversion(route: &'static str) {
    GLOBAL.bump(
        "tde_conversions_total",
        "Encoding/compression conversions, by route",
        &[("route", route)],
        1,
    );
}

/// Record one FlowTable column build.
#[inline]
pub fn column_built(rows: u64) {
    if !enabled() {
        return;
    }
    static COLS: OnceLock<Arc<Counter>> = OnceLock::new();
    static ROWS: OnceLock<Arc<Counter>> = OnceLock::new();
    cached_counter(
        &COLS,
        "tde_columns_built_total",
        "Columns built by FlowTable",
    )
    .inc();
    cached_counter(
        &ROWS,
        "tde_rows_encoded_total",
        "Rows encoded by FlowTable column builds",
    )
    .add(rows);
}

/// Record one v2 segment demand-load: per-segment-kind count and bytes,
/// plus the load-latency histogram.
#[inline]
pub fn segment_load(segment: &'static str, bytes: u64, nanos: u64) {
    if !enabled() {
        return;
    }
    GLOBAL.bump(
        "tde_segment_loads_total",
        "Paged (v2) segment demand-loads, by segment kind",
        &[("segment", segment)],
        1,
    );
    GLOBAL.bump(
        "tde_segment_load_bytes_total",
        "Bytes demand-loaded from paged (v2) files, by segment kind",
        &[("segment", segment)],
        bytes,
    );
    segment_load_ns().observe(nanos);
}

/// Record one segment checksum-verification failure. Fires just before
/// the pager surfaces a `ChecksumMismatch` instead of handing corrupt
/// bytes to the decoders.
#[inline]
pub fn checksum_failure(segment: &'static str) {
    GLOBAL.bump(
        "tde_segment_checksum_failures_total",
        "Segment checksum verification failures, by segment kind",
        &[("segment", segment)],
        1,
    );
}

/// Record one transient-I/O retry absorbed by the storage read path.
#[inline]
pub fn io_retry(op: &'static str) {
    GLOBAL.bump(
        "tde_io_retries_total",
        "Transient I/O errors retried by the storage read path, by operation",
        &[("op", op)],
        1,
    );
}

/// Record one injected fault from the `FaultIo` testing backend.
#[inline]
pub fn io_fault_injected(kind: &'static str) {
    GLOBAL.bump(
        "tde_io_faults_injected_total",
        "Faults injected by the FaultIo testing backend, by kind",
        &[("kind", kind)],
        1,
    );
}

/// Pre-resolved delta-store instruments (tde-delta). Gauges track the
/// *live* write-optimized state across every open store; counters
/// accumulate mutation traffic over the process lifetime.
#[derive(Debug, Clone)]
pub struct DeltaMetrics {
    /// `tde_delta_rows` (gauge) — live uncompacted delta rows.
    pub rows: Arc<Gauge>,
    /// `tde_delta_bytes` (gauge) — approximate bytes held by delta buffers.
    pub bytes: Arc<Gauge>,
    /// `tde_delta_tombstones` (gauge) — live tombstoned base rows.
    pub tombstones: Arc<Gauge>,
    /// `tde_delta_appends_total` — rows appended to delta stores.
    pub appends: Arc<Counter>,
    /// `tde_delta_deletes_total` — rows deleted through delta stores.
    pub deletes: Arc<Counter>,
}

/// The process-wide delta-store instruments.
pub fn delta_metrics() -> &'static DeltaMetrics {
    static D: OnceLock<DeltaMetrics> = OnceLock::new();
    D.get_or_init(|| DeltaMetrics {
        rows: GLOBAL.gauge("tde_delta_rows", "Live uncompacted delta rows"),
        bytes: GLOBAL.gauge(
            "tde_delta_bytes",
            "Approximate bytes held by delta-store buffers",
        ),
        tombstones: GLOBAL.gauge("tde_delta_tombstones", "Live tombstoned base rows"),
        appends: GLOBAL.counter("tde_delta_appends_total", "Rows appended to delta stores"),
        deletes: GLOBAL.counter(
            "tde_delta_deletes_total",
            "Rows deleted through delta stores",
        ),
    })
}

/// Record one flat-file import: `tde_import_bytes_total`,
/// `tde_import_rows_total`, `tde_import_parse_errors_total`.
#[inline]
pub fn import(bytes: u64, rows: u64, parse_errors: u64) {
    if !enabled() {
        return;
    }
    static BYTES: OnceLock<Arc<Counter>> = OnceLock::new();
    static ROWS: OnceLock<Arc<Counter>> = OnceLock::new();
    static ERRORS: OnceLock<Arc<Counter>> = OnceLock::new();
    cached_counter(
        &BYTES,
        "tde_import_bytes_total",
        "Bytes of flat-file text imported",
    )
    .add(bytes);
    cached_counter(
        &ROWS,
        "tde_import_rows_total",
        "Rows imported from flat files",
    )
    .add(rows);
    cached_counter(
        &ERRORS,
        "tde_import_parse_errors_total",
        "Imported fields that failed to parse and were stored as NULL",
    )
    .add(parse_errors);
}

/// Record one delta compaction: count plus duration histogram.
#[inline]
pub fn compaction(nanos: u64) {
    if !enabled() {
        return;
    }
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    cached_counter(&C, "tde_compactions_total", "Delta compactions run").inc();
    cached_histogram(
        &H,
        "tde_compaction_duration_ns",
        "Delta compaction duration in nanoseconds",
    )
    .observe(nanos);
}

/// Record one delta merge snapshot: `tde_delta_snapshot_duration_ns`.
#[inline]
pub fn delta_snapshot(nanos: u64) {
    if !enabled() {
        return;
    }
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    cached_histogram(
        &H,
        "tde_delta_snapshot_duration_ns",
        "Delta merge-snapshot duration in nanoseconds",
    )
    .observe(nanos);
}

/// Tally rows a compaction sent through the dynamic encoder, by the
/// encoding they landed in: `tde_compaction_rows_reencoded_total{encoding}`.
/// Columns spliced in their own encoding are not re-encoded.
#[inline]
pub fn compaction_rows_reencoded(encoding: &str, rows: u64) {
    GLOBAL.bump(
        "tde_compaction_rows_reencoded_total",
        "Rows re-encoded by delta compaction, by final encoding",
        &[("encoding", encoding)],
        rows,
    );
}

/// Pre-resolved buffer-pool instruments, folded into by
/// [`crate::CacheCounters`] so per-pool counters and the process-wide
/// registry stay in lockstep.
#[derive(Debug, Clone)]
pub struct PoolMetrics {
    /// `tde_pool_hits_total`.
    pub hits: Arc<Counter>,
    /// `tde_pool_misses_total`.
    pub misses: Arc<Counter>,
    /// `tde_pool_evictions_total`.
    pub evictions: Arc<Counter>,
    /// `tde_pool_read_bytes_total`.
    pub read_bytes: Arc<Counter>,
    /// `tde_pool_evicted_bytes_total`.
    pub evicted_bytes: Arc<Counter>,
    /// `tde_pool_resident_bytes` (gauge, summed over pools).
    pub resident_bytes: Arc<Gauge>,
}

/// The process-wide buffer-pool instruments.
pub fn pool_metrics() -> &'static PoolMetrics {
    static P: OnceLock<PoolMetrics> = OnceLock::new();
    P.get_or_init(|| PoolMetrics {
        hits: GLOBAL.counter(
            "tde_pool_hits_total",
            "Buffer-pool lookups served from cache",
        ),
        misses: GLOBAL.counter(
            "tde_pool_misses_total",
            "Buffer-pool lookups that went to disk",
        ),
        evictions: GLOBAL.counter("tde_pool_evictions_total", "Buffer-pool evictions"),
        read_bytes: GLOBAL.counter(
            "tde_pool_read_bytes_total",
            "Bytes demand-loaded through buffer pools",
        ),
        evicted_bytes: GLOBAL.counter(
            "tde_pool_evicted_bytes_total",
            "Bytes released by buffer-pool eviction",
        ),
        resident_bytes: GLOBAL.gauge(
            "tde_pool_resident_bytes",
            "Bytes currently resident across buffer pools",
        ),
    })
}

/// Pre-resolved instruments of the engine's one task runner
/// (tde-exec::morsel), recorded for runs on more than one worker. One
/// resolution per process. A "morsel" here is any task of that runner: a
/// query's block range, a §8 rollup partition, a FlowTable or compaction
/// column build, an import's column parse.
#[derive(Debug, Clone)]
pub struct MorselMetrics {
    /// `tde_morsels_dispatched_total` — morsels executed by workers.
    pub dispatched: Arc<Counter>,
    /// `tde_morsel_worker_busy_ns` — per-morsel worker busy time.
    pub worker_busy_ns: Arc<Histogram>,
    /// `tde_parallel_queries_total` — queries that ran a morsel pipeline.
    pub parallel_queries: Arc<Counter>,
}

/// The process-wide morsel-scheduler instruments.
pub fn morsel_metrics() -> &'static MorselMetrics {
    static M: OnceLock<MorselMetrics> = OnceLock::new();
    M.get_or_init(|| MorselMetrics {
        dispatched: GLOBAL.counter(
            "tde_morsels_dispatched_total",
            "Morsels executed by parallel pipeline workers",
        ),
        worker_busy_ns: GLOBAL.histogram(
            "tde_morsel_worker_busy_ns",
            "Per-morsel worker busy time in nanoseconds",
        ),
        parallel_queries: GLOBAL.counter(
            "tde_parallel_queries_total",
            "Queries executed through a morsel-parallel pipeline",
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_basics() {
        let r = MetricsRegistry::new();
        let c = r.counter("t_c_total", "test");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name → same instrument.
        assert_eq!(r.counter("t_c_total", "test").get(), 5);
        let g = r.gauge("t_g", "test");
        g.set(10);
        g.add(5);
        g.sub(3);
        assert_eq!(g.get(), 12);
        // Different labels → different instruments.
        let a = r.counter_with("t_l_total", "test", &[("k", "a")]);
        let b = r.counter_with("t_l_total", "test", &[("k", "b")]);
        a.inc();
        assert_eq!(b.get(), 0);
        // Label order is normalized.
        let ab = r.counter_with("t_m_total", "t", &[("x", "1"), ("y", "2")]);
        let ba = r.counter_with("t_m_total", "t", &[("y", "2"), ("x", "1")]);
        ab.inc();
        assert_eq!(ba.get(), 1);
    }

    #[test]
    fn kind_clash_returns_detached_instrument() {
        let r = MetricsRegistry::new();
        r.counter("t_kind", "test").inc();
        // Asking for the same name as a gauge must not panic or corrupt.
        let g = r.gauge("t_kind", "test");
        g.set(99);
        match &r.snapshot().samples[0].value {
            SampleValue::Counter(v) => assert_eq!(*v, 1),
            other => panic!("expected counter, got {other:?}"),
        }
    }

    #[test]
    fn histogram_bucket_bounds_are_monotonic_and_contiguous() {
        let mut prev = 0;
        for i in 0..BUCKETS {
            let b = Histogram::bucket_bound(i);
            assert!(b > prev, "bound {i} not increasing: {b} <= {prev}");
            prev = b;
        }
        // Last finite bound closes the last group exactly (inclusive).
        assert_eq!(Histogram::bucket_bound(BUCKETS - 1), (1u64 << MAX_EXP) - 1);
        // Every value lands in the bucket whose bound covers it.
        for v in [
            0,
            1,
            255,
            256,
            257,
            1023,
            1024,
            5000,
            1 << 20,
            (1 << 38) - 1,
        ] {
            if let Some(idx) = Histogram::bucket_index(v) {
                assert!(v <= Histogram::bucket_bound(idx), "v={v} idx={idx}");
                if idx > 0 {
                    assert!(v > Histogram::bucket_bound(idx - 1), "v={v} idx={idx}");
                }
            }
        }
        assert_eq!(Histogram::bucket_index(1u64 << MAX_EXP), None);
    }

    #[test]
    fn histogram_observe_snapshot_quantile() {
        let h = Histogram::new();
        for v in [100u64, 300, 1000, 1000, 1_000_000] {
            h.observe(v);
        }
        h.observe(1u64 << 40); // +Inf
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 100 + 300 + 1000 + 1000 + 1_000_000 + (1u64 << 40));
        // Cumulative counts are monotone and end at count-minus-overflow.
        let mut prev = 0;
        for &(_, cum) in &s.buckets {
            assert!(cum >= prev);
            prev = cum;
        }
        assert_eq!(prev, 5);
        // Median sits around the 1000-observations.
        let p50 = s.quantile(0.5);
        assert!((256..=2048).contains(&p50), "p50={p50}");
        assert!(s.mean() > 0.0);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn snapshot_and_counter_deltas() {
        let r = MetricsRegistry::new();
        let c = r.counter("t_d_total", "test");
        c.add(5);
        let before = r.snapshot();
        c.add(7);
        r.counter_with("t_new_total", "test", &[("op", "Scan")])
            .add(2);
        let after = r.snapshot();
        let deltas = after.counter_deltas(&before);
        assert_eq!(deltas.len(), 2);
        assert!(deltas.contains(&("t_d_total".to_string(), 7)));
        assert!(deltas.contains(&("t_new_total{op=\"Scan\"}".to_string(), 2)));
        // Saturating: comparing in the wrong order yields empty, not a panic.
        assert!(before.counter_deltas(&after).is_empty());
    }

    #[test]
    fn disabled_registry_bump_is_a_noop() {
        let r = MetricsRegistry::new();
        r.disable();
        r.bump("t_off_total", "test", &[], 5);
        assert!(r.snapshot().samples.is_empty(), "disabled bump registered");
        r.enable();
        r.bump("t_off_total", "test", &[], 5);
        assert_eq!(r.snapshot().samples.len(), 1);
    }

    /// The documented overhead contract: a disabled-registry instrument
    /// call is a single relaxed load and early return. Budget: 10 M
    /// guarded calls in under one second (100 ns/call — a ~50× margin
    /// over the actual cost of a relaxed load on any modern core).
    #[test]
    fn disabled_instrument_calls_stay_within_overhead_budget() {
        let r = MetricsRegistry::new();
        r.disable();
        let t0 = std::time::Instant::now();
        for i in 0..10_000_000u64 {
            r.bump(
                "t_budget_total",
                "test",
                &[("k", if i & 1 == 0 { "a" } else { "b" })],
                1,
            );
        }
        let elapsed = t0.elapsed();
        assert!(r.snapshot().samples.is_empty());
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "10M disabled instrument calls took {elapsed:?} (budget 1s)"
        );
    }
}
