//! The one operator observer.
//!
//! [`Observed`] wraps an operator and takes a single measurement per
//! `next_block` call — the clock is read on entry and on return, so the
//! first call's timestamp precedes whatever a blocking operator does in
//! it — and hands that one measurement to every view that is on:
//!
//! * [`OpStats`] — the per-query EXPLAIN ANALYZE node (traced lowering
//!   only);
//! * [`OperatorCounters`] — the process-wide
//!   `tde_operator_{blocks,rows}_total{op=…}` metrics;
//! * [`TimelineOp`] — the always-on timeline's operator span, from which
//!   the slow-query log takes its top operators.
//!
//! Times are inclusive, Volcano-style: a call's nanoseconds include the
//! time spent pulling from children, like PostgreSQL's EXPLAIN ANALYZE.
//! Because every view is fed the same rows, blocks and nanoseconds, they
//! cannot disagree. With only the metrics view on no clock is read; with
//! every view off [`Observed::wrap`] returns the operator unwrapped.

use crate::block::{Block, Schema};
use crate::{BoxOp, Operator};
use std::sync::Arc;
use tde_obs::metrics::OperatorCounters;
use tde_obs::timeline::{now_ns, TimelineOp};
use tde_obs::OpStats;

/// An operator adapter feeding every enabled observability view from
/// one measurement per `next_block` call.
pub struct Observed {
    inner: BoxOp,
    stats: Option<Arc<OpStats>>,
    counters: Option<OperatorCounters>,
    timeline: Option<TimelineOp>,
}

impl Observed {
    /// Wrap `inner` for whichever views are on; with none, `inner` comes
    /// back as it is.
    pub fn wrap(
        inner: BoxOp,
        stats: Option<Arc<OpStats>>,
        counters: Option<OperatorCounters>,
        timeline: Option<TimelineOp>,
    ) -> BoxOp {
        if stats.is_none() && counters.is_none() && timeline.is_none() {
            return inner;
        }
        Box::new(Observed {
            inner,
            stats,
            counters,
            timeline,
        })
    }
}

impl Operator for Observed {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next_block(&mut self) -> Option<Block> {
        let timed = self.stats.is_some() || self.timeline.is_some();
        let start_ns = if timed { now_ns() } else { 0 };
        let block = self.inner.next_block();
        let nanos = if timed { now_ns() - start_ns } else { 0 };
        // The rows a block stands for: a run-carrying block counts its
        // weights, so every view reports the same rows in both modes.
        let rows = block.as_ref().map(Block::rows);
        if let Some(stats) = &self.stats {
            stats.on_call(nanos, rows);
        }
        if let (Some(counters), Some(rows)) = (&self.counters, rows) {
            counters.blocks.inc();
            counters.rows.add(rows);
        }
        if let Some(timeline) = &mut self.timeline {
            timeline.on_call(start_ns, nanos, rows);
        }
        block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::TableScan;
    use tde_obs::metrics::Counter;
    use tde_storage::{ColumnBuilder, EncodingPolicy, Table};
    use tde_types::DataType;

    fn scan() -> BoxOp {
        let mut b = ColumnBuilder::new("x", DataType::Integer, EncodingPolicy::default());
        for i in 0..2500i64 {
            b.append_i64(i);
        }
        let t = Arc::new(Table::new("t", vec![b.finish().column]));
        Box::new(TableScan::new(t))
    }

    #[test]
    fn one_measurement_feeds_stats_and_counters_alike() {
        let stats = OpStats::new();
        let counters = OperatorCounters {
            blocks: Counter::new(),
            rows: Counter::new(),
        };
        let op = Observed::wrap(scan(), Some(stats.clone()), Some(counters.clone()), None);
        assert_eq!(crate::count_rows(op), 2500);
        let (blocks, rows, elapsed) = stats.snapshot();
        assert_eq!(rows, 2500);
        assert!(blocks >= 2); // 2500 rows span multiple 1024-row blocks
        assert!(elapsed.as_nanos() > 0);
        assert_eq!(counters.rows.get(), rows);
        assert_eq!(counters.blocks.get(), blocks);
    }

    #[test]
    fn nothing_to_feed_means_no_wrapper() {
        let inner = scan();
        let addr = &*inner as *const dyn Operator as *const u8;
        let op = Observed::wrap(inner, None, None, None);
        assert_eq!(&*op as *const dyn Operator as *const u8, addr);
    }
}
