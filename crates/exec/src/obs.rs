//! The one operator observer.
//!
//! [`Observed`] wraps an operator and takes a single measurement per
//! `next_block` call — the clock is read on entry and on return, so the
//! first call's timestamp precedes whatever a blocking operator does in
//! it — and hands it to the views that are on:
//!
//! * [`OperatorCounters`] — the process-wide
//!   `tde_operator_{blocks,rows}_total{op=…}` metrics;
//! * [`TimelineOp`] — the query timeline's operator span, the one
//!   measurement EXPLAIN ANALYZE's operator tree and the slow-query
//!   log's top operators are both read from.
//!
//! Times are inclusive, Volcano-style: a call's nanoseconds include the
//! time spent pulling from children, like PostgreSQL's EXPLAIN ANALYZE.
//! With only the metrics view on no clock is read; with both views off
//! [`Observed::wrap`] returns the operator unwrapped.

use crate::block::{Block, Schema};
use crate::{BoxOp, Operator};
use tde_obs::metrics::OperatorCounters;
use tde_obs::timeline::{now_ns, TimelineOp};

/// An operator adapter feeding every enabled observability view from
/// one measurement per `next_block` call.
pub struct Observed {
    inner: BoxOp,
    counters: Option<OperatorCounters>,
    timeline: Option<TimelineOp>,
}

impl Observed {
    /// Wrap `inner` for whichever views are on; with none, `inner` comes
    /// back as it is.
    pub fn wrap(
        inner: BoxOp,
        counters: Option<OperatorCounters>,
        timeline: Option<TimelineOp>,
    ) -> BoxOp {
        if counters.is_none() && timeline.is_none() {
            return inner;
        }
        Box::new(Observed {
            inner,
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
        let start_ns = if self.timeline.is_some() { now_ns() } else { 0 };
        let block = self.inner.next_block();
        // The rows a block stands for: a run-carrying block counts its
        // weights, so every view reports the same rows in both modes.
        let rows = block.as_ref().map(Block::rows);
        if let Some(timeline) = &mut self.timeline {
            timeline.on_call(start_ns, now_ns() - start_ns, rows);
        }
        if let (Some(counters), Some(rows)) = (&self.counters, rows) {
            counters.blocks.inc();
            counters.rows.add(rows);
        }
        block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::TableScan;
    use std::sync::Arc;
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
    fn one_measurement_feeds_the_timeline_and_counters_alike() {
        use tde_obs::timeline::{self, TimelineKind};
        let counters = OperatorCounters {
            blocks: Counter::new(),
            rows: Counter::new(),
        };
        let token = timeline::query_begin(u64::MAX);
        let span = TimelineOp::new("Scan t", timeline::next_op_id(), None);
        let op = Observed::wrap(scan(), Some(counters.clone()), Some(span));
        assert_eq!(crate::count_rows(op), 2500);
        let trace = timeline::query_end(token, "", 2500, 1, None, &[]);
        let (blocks, rows, dur_ns) = trace
            .events
            .iter()
            .filter(|e| e.scope == trace.scope)
            .find_map(|e| match e.kind {
                TimelineKind::OperatorSpan {
                    blocks,
                    rows,
                    dur_ns,
                    ..
                } => Some((blocks, rows, dur_ns)),
                _ => None,
            })
            .expect("the operator span");
        assert_eq!(rows, 2500);
        assert!(blocks >= 2); // 2500 rows span multiple 1024-row blocks
        assert!(dur_ns > 0);
        assert_eq!(counters.rows.get(), rows);
        assert_eq!(counters.blocks.get(), blocks);
    }

    #[test]
    fn nothing_to_feed_means_no_wrapper() {
        let inner = scan();
        let addr = &*inner as *const dyn Operator as *const u8;
        let op = Observed::wrap(inner, None, None);
        assert_eq!(&*op as *const dyn Operator as *const u8, addr);
    }
}
