//! Column readers: sequential and ranged access over encoded streams.
//!
//! Sequential scans use a per-encoding cursor so run-length streams decode
//! in time linear in their runs. Ranged access (IndexedScan translating
//! (start, count) pairs into reads, §4.2.1) binary-searches the prefix-sum
//! index over the runs ([`RunIndex`]) of a resident RLE column and falls
//! back to block decoding for the bit-packed encodings.

use std::sync::Arc;
use tde_encodings::{affine, dict, frame, raw, rle};
use tde_encodings::{Algorithm, EncodedStream, Selection};
use tde_storage::RunIndex;

/// Sequential block-at-a-time reader state over one stream. The stream is
/// passed to each call (not borrowed), so operators can hold the state
/// alongside an owned table without self-references.
pub struct StreamCursor {
    next_block: usize,
    rle: Option<rle::Cursor>,
    remaining: u64,
    /// Read a dictionary-encoded stream's codes, not its entries.
    codes: bool,
}

impl StreamCursor {
    /// A cursor at the start of the stream.
    pub fn new(stream: &EncodedStream) -> StreamCursor {
        let rle = (stream.algorithm() == Algorithm::RunLength).then(rle::Cursor::new);
        StreamCursor {
            next_block: 0,
            rle,
            remaining: stream.len(),
            codes: false,
        }
    }

    /// A cursor at the start of a dictionary-encoded stream that reads
    /// each row's code — the index of its entry — instead of the entry.
    pub fn codes(stream: &EncodedStream) -> StreamCursor {
        debug_assert_eq!(stream.algorithm(), Algorithm::Dictionary);
        StreamCursor {
            codes: true,
            ..StreamCursor::new(stream)
        }
    }

    /// Decode up to `n` values of `stream` (which must be the stream the
    /// cursor was created for), appending to `out`; returns the count
    /// (0 at end of stream). `n` must equal the stream block size except
    /// possibly at the end of the stream.
    pub fn next(&mut self, stream: &EncodedStream, n: usize, out: &mut Vec<i64>) -> usize {
        if self.remaining == 0 {
            return 0;
        }
        let take = (self.remaining as usize).min(n);
        let h = stream.header();
        match &mut self.rle {
            Some(cursor) => {
                cursor.take(stream.as_bytes(), &h, take, out);
            }
            None => {
                let before = out.len();
                if self.codes {
                    dict::unpack_codes(stream.as_bytes(), &h, self.next_block, out);
                } else {
                    stream.decode_block(self.next_block, out);
                }
                out.truncate(before + take);
                self.next_block += 1;
            }
        }
        self.remaining -= take as u64;
        take
    }

    /// Decode the rows `sel` selects from the next block (of `sel.rows()`
    /// rows), appending them to `out`. Raw and affine streams read just
    /// the selected rows; a bit-packed one does too unless the selection
    /// is dense enough to [unpack the block](Selection::unpacks_block),
    /// when it decodes the block into `scratch` and gathers from it, as
    /// delta and run-length always do.
    pub fn next_selected(
        &mut self,
        stream: &EncodedStream,
        n: usize,
        sel: &Selection,
        scratch: &mut Vec<i64>,
        out: &mut Vec<i64>,
    ) {
        let Some(positions) = sel.positions() else {
            let before = out.len();
            self.next(stream, n, out);
            out.truncate(before + sel.rows());
            return;
        };
        if self.remaining > 0 && self.gather(stream, sel, positions, out) {
            self.skip(stream, n);
            return;
        }
        scratch.clear();
        self.next(stream, n, scratch);
        sel.gather(scratch, out);
    }

    /// Decode the rows at `positions` (those of `sel`) of the next block
    /// without advancing; `false` (nothing appended) when the encoding
    /// needs each row's predecessors or `sel` unpacks a bit-packed block.
    fn gather(
        &self,
        stream: &EncodedStream,
        sel: &Selection,
        positions: &[u32],
        out: &mut Vec<i64>,
    ) -> bool {
        let h = stream.header();
        let buf = stream.as_bytes();
        let block = self.next_block;
        let row = |p: u32| (block * h.block_size) as u64 + u64::from(p);
        match h.algorithm {
            Algorithm::FrameOfReference | Algorithm::Dictionary if sel.unpacks_block() => {
                return false
            }
            Algorithm::FrameOfReference => frame::gather_block(buf, &h, block, positions, out),
            Algorithm::Dictionary if self.codes => {
                dict::gather_codes(buf, &h, block, positions, out)
            }
            Algorithm::Dictionary => dict::gather_block(buf, &h, block, positions, out),
            Algorithm::None => out.extend(positions.iter().map(|&p| raw::get(buf, &h, row(p)))),
            Algorithm::Affine => {
                out.extend(positions.iter().map(|&p| affine::get(buf, &h, row(p))))
            }
            Algorithm::Delta | Algorithm::RunLength => return false,
        }
        true
    }

    /// Advance past up to `n` values without decoding them — a kernel
    /// decided the whole block cannot match. Returns the count skipped
    /// (0 at end of stream). Like [`StreamCursor::next`], `n` must equal
    /// the stream block size except possibly at the end of the stream.
    pub fn skip(&mut self, stream: &EncodedStream, n: usize) -> usize {
        if self.remaining == 0 {
            return 0;
        }
        let take = (self.remaining as usize).min(n);
        match &mut self.rle {
            Some(cursor) => {
                let h = stream.header();
                let target = cursor.position() + take as u64;
                cursor.skip_to(stream.as_bytes(), &h, target);
            }
            None => self.next_block += 1,
        }
        self.remaining -= take as u64;
        take
    }

    /// Position the cursor `blocks` whole decompression blocks into the
    /// stream in one step, without decoding — used by ranged (morsel)
    /// scans to start mid-stream. Must be called before any read.
    pub fn skip_blocks(&mut self, stream: &EncodedStream, blocks: usize) {
        if blocks == 0 {
            return;
        }
        let take = (self.remaining as usize).min(blocks * stream.header().block_size);
        match &mut self.rle {
            Some(cursor) => {
                let h = stream.header();
                let target = cursor.position() + take as u64;
                cursor.skip_to(stream.as_bytes(), &h, target);
            }
            None => self.next_block += blocks,
        }
        self.remaining -= take as u64;
    }
}

/// Random-range reader state over one stream, used by IndexedScan. Like
/// [`StreamCursor`], the stream is passed per call rather than borrowed,
/// so operators can cache readers alongside the owned table.
pub struct RangeReader {
    /// The stream's run index, when it has one: a range read is then a
    /// binary search plus a sequential sweep over the runs.
    runs: Option<Arc<RunIndex>>,
    /// Scratch for decoded blocks of bit-packed streams.
    scratch: Vec<i64>,
    scratch_block: Option<usize>,
}

impl RangeReader {
    /// A reader that ranges through `runs`, a run-length stream's shared
    /// run index ([`tde_storage::Table::run_index`]), or decodes whole
    /// blocks without one.
    pub fn new(runs: Option<Arc<RunIndex>>) -> RangeReader {
        RangeReader {
            runs,
            scratch: Vec::new(),
            scratch_block: None,
        }
    }

    /// The run index the reader ranges through.
    pub fn runs(&self) -> Option<&Arc<RunIndex>> {
        self.runs.as_ref()
    }

    /// Append the values of rows `[start, start + count)` of `stream`
    /// (which must be the stream the reader was created for) to `out`.
    pub fn read_range(
        &mut self,
        stream: &EncodedStream,
        start: u64,
        count: u64,
        out: &mut Vec<i64>,
    ) {
        match &self.runs {
            Some(_) if count == 0 => {}
            Some(index) => {
                let end = start + count;
                let mut at = start;
                let mut run = index.find(start);
                while at < end {
                    let take = index.end(run).min(end) - at;
                    out.extend(std::iter::repeat_n(index.value(run), take as usize));
                    at += take;
                    run += 1;
                }
            }
            None => {
                let bs = stream.header().block_size as u64;
                let mut at = start;
                let end = start + count;
                while at < end {
                    let block = (at / bs) as usize;
                    if self.scratch_block != Some(block) {
                        self.scratch.clear();
                        stream.decode_block(block, &mut self.scratch);
                        self.scratch_block = Some(block);
                    }
                    let lo = (at % bs) as usize;
                    let hi = self.scratch.len().min(lo + (end - at) as usize);
                    out.extend_from_slice(&self.scratch[lo..hi]);
                    at += (hi - lo) as u64;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tde_encodings::dynamic::encode_all;
    use tde_encodings::BLOCK_SIZE;
    use tde_types::Width;

    fn rle_stream(data: &[i64]) -> EncodedStream {
        let mut s = EncodedStream::new_rle(Width::W8, true, Width::W4, Width::W2);
        for c in data.chunks(BLOCK_SIZE) {
            s.append_block(c).unwrap();
        }
        s
    }

    #[test]
    fn sequential_cursor_matches_decode_all() {
        let data: Vec<i64> = (0..5000).map(|i| i / 700).collect();
        for stream in [rle_stream(&data), encode_all(&data, Width::W8, true).stream] {
            let mut cur = StreamCursor::new(&stream);
            let mut out = Vec::new();
            while cur.next(&stream, BLOCK_SIZE, &mut out) > 0 {}
            assert_eq!(out, data, "algorithm {}", stream.algorithm());
        }
    }

    #[test]
    fn skip_blocks_positions_like_a_sequential_walk() {
        let data: Vec<i64> = (0..5000).map(|i| i / 700).collect();
        for stream in [rle_stream(&data), encode_all(&data, Width::W8, true).stream] {
            let nblocks = data.len().div_ceil(BLOCK_SIZE);
            for start in 0..=nblocks {
                let mut cur = StreamCursor::new(&stream);
                cur.skip_blocks(&stream, start);
                let mut out = Vec::new();
                while cur.next(&stream, BLOCK_SIZE, &mut out) > 0 {}
                assert_eq!(
                    out,
                    data[(start * BLOCK_SIZE).min(data.len())..],
                    "algorithm {} start {start}",
                    stream.algorithm()
                );
            }
        }
    }

    #[test]
    fn selected_rows_read_alike_at_every_density() {
        let data: Vec<i64> = (0..3000).map(|i| (i * 7919) % 613).collect();
        let streams = [
            EncodedStream::new_frame(Width::W8, true, 0, 10),
            EncodedStream::new_dict(Width::W8, true, 10),
            EncodedStream::new_delta(Width::W8, true, -613, 11),
            EncodedStream::new_raw(Width::W2, true),
        ];
        for mut stream in streams {
            for c in data.chunks(BLOCK_SIZE) {
                stream.append_block(c).unwrap();
            }
            // Every row, dense enough to unpack the block, and sparse
            // enough to read each kept row on its own.
            let keeps: [fn(usize) -> bool; 4] =
                [|_| true, |i| i % 7 != 3, |i| i % 3 == 1, |i| i % 7 == 1];
            for (k, keep) in keeps.into_iter().enumerate() {
                let mut cur = StreamCursor::new(&stream);
                let (mut scratch, mut out) = (Vec::new(), Vec::new());
                let mut want = Vec::new();
                for block in data.chunks(BLOCK_SIZE) {
                    let mut sel = Selection::all(block.len());
                    sel.retain(keep);
                    assert_eq!(sel.unpacks_block(), k < 2);
                    cur.next_selected(&stream, BLOCK_SIZE, &sel, &mut scratch, &mut out);
                    want.extend((0..block.len()).filter(|&i| keep(i)).map(|i| block[i]));
                }
                assert_eq!(out, want, "algorithm {} selection {k}", stream.algorithm());
            }
        }
    }

    #[test]
    fn a_codes_cursor_reads_entry_indexes_at_every_density() {
        let data: Vec<i64> = (0..3000).map(|i| (i * 7919) % 613 * 3).collect();
        let mut stream = EncodedStream::new_dict(Width::W8, true, 10);
        for c in data.chunks(BLOCK_SIZE) {
            stream.append_block(c).unwrap();
        }
        let entries = stream.dict_entries().unwrap();
        let keeps: [fn(usize) -> bool; 3] = [|_| true, |i| i % 7 != 3, |i| i % 7 == 1];
        for (k, keep) in keeps.into_iter().enumerate() {
            let mut cur = StreamCursor::codes(&stream);
            let (mut scratch, mut out) = (Vec::new(), Vec::new());
            let mut want = Vec::new();
            for block in data.chunks(BLOCK_SIZE) {
                let mut sel = Selection::all(block.len());
                sel.retain(keep);
                cur.next_selected(&stream, BLOCK_SIZE, &sel, &mut scratch, &mut out);
                want.extend((0..block.len()).filter(|&i| keep(i)).map(|i| block[i]));
            }
            let values: Vec<i64> = out.iter().map(|&c| entries[c as usize]).collect();
            assert_eq!(values, want, "selection {k}");
            assert!(out.iter().all(|&c| (c as usize) < entries.len()));
        }
    }

    #[test]
    fn range_reader_on_rle() {
        let mut data = Vec::new();
        for v in 0..30i64 {
            data.extend(std::iter::repeat_n(v, 150));
        }
        let stream = rle_stream(&data);
        // Through the run index, and by block decode without one.
        for runs in [RunIndex::new(&stream).map(Arc::new), None] {
            let mut r = RangeReader::new(runs);
            let mut out = Vec::new();
            r.read_range(&stream, 100, 120, &mut out); // straddles the 150 boundary
            assert_eq!(out, data[100..220].to_vec());
            out.clear();
            r.read_range(&stream, 0, 1, &mut out);
            assert_eq!(out, vec![0]);
            out.clear();
            r.read_range(&stream, data.len() as u64 - 5, 5, &mut out);
            assert_eq!(out, data[data.len() - 5..].to_vec());
        }
    }

    #[test]
    fn range_reader_on_bitpacked() {
        let data: Vec<i64> = (0..4000).map(|i| i % 997).collect();
        let stream = encode_all(&data, Width::W8, true).stream;
        let mut r = RangeReader::new(RunIndex::new(&stream).map(Arc::new));
        let mut out = Vec::new();
        r.read_range(&stream, 1000, 1100, &mut out); // crosses a block boundary
        assert_eq!(out, data[1000..2100].to_vec());
    }

    #[test]
    fn backwards_ranges_are_allowed_via_index() {
        // Ordered retrieval (§4.2.2) reads ranges out of order; the prefix
        // index makes that possible on RLE streams.
        let mut data = Vec::new();
        for v in [5i64, 2, 9, 2] {
            data.extend(std::iter::repeat_n(v, 100));
        }
        let stream = rle_stream(&data);
        let mut r = RangeReader::new(RunIndex::new(&stream).map(Arc::new));
        let mut out = Vec::new();
        r.read_range(&stream, 300, 50, &mut out);
        r.read_range(&stream, 0, 50, &mut out); // backwards
        assert_eq!(out[..50], data[300..350]);
        assert_eq!(out[50..], data[0..50]);
    }
}
