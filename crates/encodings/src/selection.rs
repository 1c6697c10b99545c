//! The one row-selection type of the read path.
//!
//! A [`Selection`] names the rows of one block that are still in play:
//! all of them, or an ascending list of positions. The scan starts each
//! block with every row selected (minus tombstones), each pushed
//! conjunct's kernel narrows it in place, and the surviving positions
//! are all that get decoded and gathered — position lists as the
//! currency between operators, as in MorphStore. `Filter` narrows the
//! same type over decoded blocks and compacts each column once.
//!
//! Narrowing reuses the position buffer, so a selection that lives as
//! long as its scan allocates only for its first block.

/// A selection that keeps at least one row in `UNPACK_DENSITY` of its
/// block reads a bit-packed block whole — one width-specialised unpack,
/// then a gather — instead of one packed read per kept row. Measured on
/// 1024-row blocks (12-bit frame-of-reference, 10-bit dictionary, random
/// positions): the two cost the same at about half the block for the
/// frame and two thirds for the dictionary.
pub const UNPACK_DENSITY: usize = 2;

/// The selected rows of one block of `rows` rows.
#[derive(Debug, Clone, Default)]
pub struct Selection {
    rows: usize,
    /// Every row is selected; `pos` is unused.
    dense: bool,
    /// The selected rows, ascending, when not `dense`.
    pos: Vec<u32>,
}

impl Selection {
    /// Every row of a `rows`-row block.
    pub fn all(rows: usize) -> Selection {
        let mut s = Selection::default();
        s.select_all(rows);
        s
    }

    /// Reset to every row of a `rows`-row block, keeping the buffer.
    pub fn select_all(&mut self, rows: usize) {
        debug_assert!(u32::try_from(rows).is_ok(), "block of {rows} rows");
        self.rows = rows;
        self.dense = true;
        self.pos.clear();
    }

    /// Deselect every row.
    pub fn clear(&mut self) {
        self.dense = false;
        self.pos.clear();
    }

    /// Rows in the block the selection is over.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        if self.dense {
            self.rows
        } else {
            self.pos.len()
        }
    }

    /// Whether no row is selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The selected positions, or `None` when every row is selected.
    pub fn positions(&self) -> Option<&[u32]> {
        (!self.dense).then_some(self.pos.as_slice())
    }

    /// Whether the selection keeps enough of its block
    /// ([`UNPACK_DENSITY`]) to read a bit-packed block whole.
    pub fn unpacks_block(&self) -> bool {
        self.len() * UNPACK_DENSITY >= self.rows
    }

    /// Selected rows among the block's first `rows` — what a standalone
    /// kernel evaluation over a `rows`-row block matched.
    pub fn selected(&self, rows: usize) -> usize {
        if self.dense {
            self.rows.min(rows)
        } else {
            self.pos.partition_point(|&p| (p as usize) < rows)
        }
    }

    /// Keep the selected rows `i` for which `keep(i)` holds. `keep` is
    /// called once per selected row, in ascending order.
    #[inline]
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        if self.dense {
            // Branch-free: every position is written, the count only
            // advances past the kept ones.
            let rows = self.rows;
            self.pos.resize(rows, 0);
            let pos = &mut self.pos[..rows];
            let mut n = 0;
            for i in 0..rows {
                pos[n] = i as u32;
                n += usize::from(keep(i));
            }
            self.pos.truncate(n);
            if n == self.rows {
                self.select_all(self.rows);
            } else {
                self.dense = false;
            }
        } else {
            let mut n = 0;
            for r in 0..self.pos.len() {
                let p = self.pos[r];
                self.pos[n] = p;
                n += usize::from(keep(p as usize));
            }
            self.pos.truncate(n);
        }
    }

    /// [`Selection::retain`] over this block's column `values`: keep
    /// the selected rows whose value passes `keep`.
    #[inline]
    pub(crate) fn retain_values(&mut self, values: &[i64], keep: impl Fn(i64) -> bool) {
        let rows = self.rows;
        if self.dense {
            self.pos.resize(rows, 0);
            let pos = &mut self.pos[..rows];
            let mut n = 0;
            for (i, &v) in values[..rows].iter().enumerate() {
                pos[n] = i as u32;
                n += usize::from(keep(v));
            }
            self.pos.truncate(n);
            if n == rows {
                self.select_all(rows);
            } else {
                self.dense = false;
            }
        } else {
            self.retain(|i| keep(values[i]));
        }
    }

    /// Keep only the selected rows inside the ascending, disjoint,
    /// half-open local `ranges`.
    pub fn retain_ranges(&mut self, ranges: impl IntoIterator<Item = (usize, usize)>) {
        let mut ranges = ranges.into_iter().map(|(lo, hi)| (lo, hi.min(self.rows)));
        if self.dense {
            self.pos.clear();
            for (lo, hi) in ranges {
                self.pos.extend(lo as u32..hi.max(lo) as u32);
            }
            if self.pos.len() == self.rows {
                self.select_all(self.rows);
            } else {
                self.dense = false;
            }
            return;
        }
        let mut current = ranges.next();
        let mut n = 0;
        for r in 0..self.pos.len() {
            let p = self.pos[r] as usize;
            while let Some((_, hi)) = current {
                if p < hi {
                    break;
                }
                current = ranges.next();
            }
            let Some((lo, _)) = current else { break };
            self.pos[n] = p as u32;
            n += usize::from(p >= lo);
        }
        self.pos.truncate(n);
    }

    /// Append the selected rows of `src` (a column of this block) to
    /// `out`.
    pub fn gather(&self, src: &[i64], out: &mut Vec<i64>) {
        match self.positions() {
            None => out.extend_from_slice(&src[..self.rows]),
            Some(pos) => out.extend(pos.iter().map(|&p| src[p as usize])),
        }
    }

    /// Compact `column` (of this block) in place to its selected rows.
    pub fn compact<T: Copy>(&self, column: &mut Vec<T>) {
        match self.positions() {
            None => column.truncate(self.rows),
            Some(pos) => {
                // Positions ascend, so each write lands at or before its
                // read.
                for (w, &p) in pos.iter().enumerate() {
                    column[w] = column[p as usize];
                }
                column.truncate(pos.len());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn picked(s: &Selection) -> Vec<usize> {
        match s.positions() {
            None => (0..s.rows()).collect(),
            Some(p) => p.iter().map(|&p| p as usize).collect(),
        }
    }

    #[test]
    fn retain_narrows_and_stays_dense_when_nothing_drops() {
        let mut s = Selection::all(10);
        s.retain(|_| true);
        assert!(s.positions().is_none());
        s.retain(|i| i % 3 != 0);
        assert_eq!(picked(&s), vec![1, 2, 4, 5, 7, 8]);
        s.retain(|i| i > 4);
        assert_eq!(picked(&s), vec![5, 7, 8]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.selected(8), 2);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn retain_ranges_intersects() {
        let mut s = Selection::all(10);
        s.retain_ranges([(0, 10)]);
        assert!(s.positions().is_none());
        s.retain_ranges([(1, 4), (6, 9)]);
        assert_eq!(picked(&s), vec![1, 2, 3, 6, 7, 8]);
        s.retain_ranges([(0, 2), (3, 7), (8, 20)]);
        assert_eq!(picked(&s), vec![1, 3, 6, 8]);
        s.retain_ranges([]);
        assert!(s.is_empty());
    }

    #[test]
    fn gather_and_compact_take_the_selected_rows() {
        let col: Vec<i64> = (100..110).collect();
        let mut s = Selection::all(10);
        let mut out = Vec::new();
        s.gather(&col, &mut out);
        assert_eq!(out, col);
        s.retain(|i| i % 4 == 1);
        out.clear();
        s.gather(&col, &mut out);
        assert_eq!(out, vec![101, 105, 109]);
        let mut c = col.clone();
        s.compact(&mut c);
        assert_eq!(c, out);
    }
}
