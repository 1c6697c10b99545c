//! Compaction in a stream's own encoding (paper §3.2, §3.4.1).
//!
//! A compaction keeps a stream's surviving rows and appends new ones.
//! The dynamic encoder would decode every value, re-derive every
//! statistic and re-encode; the paper re-encodes only when the statistics
//! say the encoding must change, and edits headers rather than data.
//! [`splice`] does the former's work the latter's way: the survivors'
//! packed codes — frame-of-reference offsets, dictionary indexes, raw
//! values, runs — move straight into a stream of the same encoding, the
//! new rows are appended behind them, and the statistics of the result
//! are taken on the way. Moving packed codes is one primitive,
//! `Packer::push_packed`, shared with the dynamic encoder's re-packs
//! (`frame::repack`, `dict::repack`): a re-pack is a splice with no
//! dropped rows and no new ones. Dictionary survivors never go back
//! through the cuckoo map; only new values do. [`conform`] narrows a
//! spliced frame or dictionary whose rows no longer need its bits.
//!
//! What a splice costs: each block of a frame, dictionary or raw stream
//! is unpacked once and its survivors close up in place; one pass over
//! them takes every statistic — envelope, NULLs, neighbour deltas, runs
//! and a bitmap of the codes seen — and the packer writes them straight
//! behind the codes before them. The bitmap is the distinct count: each
//! code stands for a value of its own, so over codes of at most
//! [`BITMAP_BITS`] bits its population count is exact. Wider codes are
//! hashed into it, which gives a lower bound; past the dictionary limit
//! that settles the count, below it the stream's values are counted
//! again in a set sized from that bound, so the set never grows from
//! empty.

use crate::header::{self, HeaderView};
use crate::stats::{key, value, ColumnStats, DistinctSet, EncodingSpec, DISTINCT_LIMIT};
use crate::{affine, bitpack, dict, dynamic, frame, manipulate, raw, rle};
use crate::{Algorithm, EncodedStream, EncodingFull, BLOCK_SIZE, DICT_MAX_BITS};
use tde_types::Width;

/// Distinct codes are counted in a bitmap over patterns of at most this
/// many bits (128 KiB) instead of a set of values: marking a bit costs a
/// fraction of a hash-set insert, and the bitmap stays small enough to
/// sit in cache.
const BITMAP_BITS: u8 = 20;

/// A spliced stream and the statistics of every value it holds.
#[derive(Debug)]
pub struct Spliced {
    /// The stream: survivors in row order, then the new rows.
    pub stream: EncodedStream,
    /// What the dynamic encoder's statistics would say of those values.
    pub stats: ColumnStats,
}

/// `stream` without the rows at `dropped` (ascending positions), followed
/// by `tail` (values in the stream's domain), in the stream's own
/// encoding; narrowed like a built column (§3.4.1).
///
/// `None` when the encoding cannot carry the result without re-encoding:
/// a delta stream (its per-block bases and packed differences would have
/// to be recomputed), an affine stream that loses rows or whose tail
/// breaks the progression, and a dictionary that would pass 2¹⁵ entries.
pub fn splice(stream: &EncodedStream, dropped: &[u64], tail: &[i64]) -> Option<Spliced> {
    let h = stream.header();
    debug_assert!(dropped.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(dropped.last().is_none_or(|&d| d < h.logical_size));
    let buf = stream.as_bytes();
    match h.algorithm {
        Algorithm::None => Some(splice_raw(stream, dropped, tail)),
        Algorithm::FrameOfReference => Some(splice_frame(buf, &h, dropped, tail)),
        Algorithm::Dictionary => splice_dict(buf, &h, dropped, tail),
        Algorithm::RunLength => Some(splice_runs(buf, &h, dropped, tail)),
        Algorithm::Affine if dropped.is_empty() => splice_affine(buf, &h, tail),
        Algorithm::Affine | Algorithm::Delta => None,
    }
}

/// `spliced` re-packed under `spec`, an encoding of its algorithm that
/// its statistics choose, when `spec` needs fewer bits: a splice keeps
/// the frame and index width its base had, and rows it dropped may have
/// been all that needed them — a frame's extremes, or dictionary entries
/// no surviving row uses, which the re-pack drops (§3.2: convert when
/// the optimal encoding is smaller). Any other difference is kept.
pub fn conform(spliced: Spliced, spec: EncodingSpec) -> Spliced {
    let h = spliced.stream.header();
    debug_assert_eq!(spec.algorithm(), h.algorithm);
    let narrower = match spec {
        EncodingSpec::Frame { bits, .. } | EncodingSpec::Dict { bits } => bits < h.bits,
        _ => false,
    };
    if !narrower {
        return spliced;
    }
    let mut stream = dynamic::rewritten(&spliced.stream, spec, Width::W8, h.signed)
        .expect("an encoding chosen from the statistics holds their values");
    manipulate::narrow(&mut stream);
    Spliced {
        stream,
        stats: spliced.stats,
    }
}

/// The values of `stream` at the rows `dropped` (ascending positions)
/// does not name, in row order — what a compaction that re-encodes
/// starts from.
pub fn survivors(stream: &EncodedStream, mut dropped: &[u64]) -> Vec<i64> {
    let h = stream.header();
    if h.algorithm == Algorithm::RunLength {
        // Run by run: a block decode would rescan the runs from the start.
        let runs = surviving_runs(stream.as_bytes(), &h, dropped);
        return runs
            .into_iter()
            .flat_map(|(v, n)| std::iter::repeat_n(v, n as usize))
            .collect();
    }
    let mut out = Vec::with_capacity(h.logical_size as usize - dropped.len());
    let mut block = Vec::with_capacity(h.block_size);
    for b in 0..stream.block_count() {
        block.clear();
        stream.decode_block(b, &mut block);
        close_up(&mut block, (b * h.block_size) as u64, &mut dropped);
        out.extend_from_slice(&block);
    }
    out
}

/// Take the rows `dropped` names out of `block` — rows `first..` — the
/// survivors closing up in place; `dropped` is consumed from the front.
fn close_up<T: Copy>(block: &mut Vec<T>, first: u64, dropped: &mut &[u64]) {
    let end = first + block.len() as u64;
    let (here, rest) = dropped.split_at(dropped.partition_point(|&d| d < end));
    *dropped = rest;
    let Some(&gone) = here.first() else {
        return;
    };
    let mut to = (gone - first) as usize;
    for (i, &d) in here.iter().enumerate() {
        let from = (d - first) as usize + 1;
        let till = here
            .get(i + 1)
            .map_or(block.len(), |&e| (e - first) as usize);
        block.copy_within(from..till, to);
        to += till - from;
    }
    block.truncate(to);
}

/// The packed codes of the bit-packed stream `buf` — frame offsets or
/// dictionary indexes — each through `map`, handed to `f` a block at a
/// time without the rows `dropped` (ascending positions) names.
pub(crate) fn kept_codes(
    buf: &[u8],
    h: &HeaderView,
    mut dropped: &[u64],
    map: impl Fn(u64) -> u64,
    mut f: impl FnMut(&[u64]),
) {
    let mut block = Vec::with_capacity(h.block_size);
    let block_bytes = bitpack::packed_bytes(h.block_size, h.bits);
    for (b, (at, n)) in h.blocks(block_bytes).enumerate() {
        block.clear();
        bitpack::unpack_block(&buf[at..], h.bits, n, &mut block, &map);
        close_up(&mut block, (b * h.block_size) as u64, &mut dropped);
        f(&block);
    }
}

/// What sees a packer's codes on their way into the stream: a splice
/// takes its statistics there, a re-pack nothing.
pub(crate) trait Tally {
    /// The next codes, in row order.
    fn codes(&mut self, codes: &[u64]);
}

impl Tally for () {
    fn codes(&mut self, _: &[u64]) {}
}

/// Packs codes into the data of an empty bit-packed stream. They arrive
/// in row order, any number at a time, pass the tally, and are written
/// straight behind the codes before them: a block holds a multiple of 32
/// codes, so its packing ends on a byte and blocks packed one after the
/// other are the bits of the blocks packed apart. Only the last block is
/// padded, by [`Packer::finish`].
pub(crate) struct Packer<T: Tally> {
    /// The stream: its header, then the codes packed so far.
    pub(crate) out: Vec<u8>,
    /// Where the packed codes start in `out`.
    data: usize,
    bits: u8,
    block_size: usize,
    /// Packed bits not yet written to `out`, and how many there are.
    acc: u64,
    fill: u32,
    rows: u64,
    /// Every code pushed, or-ed: whether one needs more than `bits`.
    union: u64,
    tally: T,
}

impl<T: Tally> Packer<T> {
    /// A packer behind the empty stream `out`, sized for `rows` rows.
    pub(crate) fn new(mut out: Vec<u8>, rows: usize, tally: T) -> Packer<T> {
        let h = HeaderView::parse(&out);
        out.reserve(rows.div_ceil(h.block_size) * bitpack::packed_bytes(h.block_size, h.bits));
        Packer {
            data: out.len(),
            out,
            bits: h.bits,
            block_size: h.block_size,
            acc: 0,
            fill: 0,
            rows: 0,
            union: 0,
            tally,
        }
    }

    /// The next codes, in row order.
    pub(crate) fn push(&mut self, codes: &[u64]) {
        self.tally.codes(codes);
        self.rows += codes.len() as u64;
        let bits = u32::from(self.bits);
        if bits == 0 {
            self.union = codes.iter().fold(self.union, |u, &c| u | c);
            return;
        }
        let keep = !bitpack::too_wide(self.bits);
        let (mut acc, mut fill, mut union) = (self.acc, self.fill, self.union);
        for &c in codes {
            union |= c;
            let v = c & keep;
            acc |= v << fill;
            fill += bits;
            if fill >= 64 {
                self.out.extend_from_slice(&acc.to_le_bytes());
                fill -= 64;
                // The bits of `v` that did not fit: `fill` of them, fewer
                // than `bits`.
                acc = (v >> 1) >> (bits - 1 - fill);
            }
        }
        (self.acc, self.fill, self.union) = (acc, fill, union);
    }

    /// The packed codes of the bit-packed stream `buf`, without the rows
    /// `dropped` (ascending positions) names, each through `map`: codes
    /// move from one packed stream to the other, no value is decoded.
    pub(crate) fn push_packed(
        &mut self,
        buf: &[u8],
        h: &HeaderView,
        dropped: &[u64],
        map: impl Fn(u64) -> u64,
    ) {
        kept_codes(buf, h, dropped, map, |codes| self.push(codes));
    }

    /// The stream of every code pushed, and the tally that saw them.
    /// Fails when a code needs more bits than the stream packs.
    pub(crate) fn finish(mut self) -> Result<(Vec<u8>, T), EncodingFull> {
        if self.union & bitpack::too_wide(self.bits) != 0 {
            return Err(EncodingFull::ValueOutOfRange);
        }
        let tail = (self.fill as usize).div_ceil(8);
        self.out.extend_from_slice(&self.acc.to_le_bytes()[..tail]);
        let blocks = (self.rows as usize).div_ceil(self.block_size);
        let end = self.data + blocks * bitpack::packed_bytes(self.block_size, self.bits);
        self.out.resize(end, 0);
        header::put_u64(&mut self.out, header::OFF_LOGICAL_SIZE, self.rows);
        Ok((self.out, self.tally))
    }
}

/// The runs of a run-length stream without the rows `dropped` names:
/// counts shrink, emptied runs drop out, equal neighbours merge.
fn surviving_runs(buf: &[u8], h: &HeaderView, dropped: &[u64]) -> Vec<(i64, u64)> {
    let mut runs = Vec::new();
    let (mut end, mut gone) = (0u64, 0usize);
    for (v, n) in rle::run_iter(buf, h) {
        end += n;
        let first_gone = gone;
        while dropped.get(gone).is_some_and(|&d| d < end) {
            gone += 1;
        }
        push_run(&mut runs, v, n - (gone - first_gone) as u64);
    }
    runs
}

/// Append `n` copies of `v` to `runs`, merging with an equal last run.
fn push_run(runs: &mut Vec<(i64, u64)>, v: i64, n: u64) {
    match runs.last_mut() {
        _ if n == 0 => {}
        Some((last, count)) if *last == v => *count += n,
        _ => runs.push((v, n)),
    }
}

/// How a code stands for its value.
enum Domain {
    /// `frame + code`.
    Frame(i64),
    /// The dictionary entry at `code`, as its key.
    Entries(Vec<u64>),
    /// The code is the value.
    Raw,
}

/// The distinct codes a splice has seen, as a bitmap — each code stands
/// for a value of its own, so distinct codes are distinct values.
enum Seen {
    /// Codes of at most [`BITMAP_BITS`] bits, each a bit of its own.
    Codes(Vec<u64>),
    /// Wider codes, a multiplicative hash of each as its bit: a function
    /// of the code, so the bits set never outnumber the distinct codes,
    /// and a hash, so codes that differ only in a few bits still spread.
    /// A lower bound.
    Hashed(Vec<u64>),
}

/// The statistics of the values a splice's codes stand for, taken in one
/// pass over each batch of codes on its way into the stream: the pass of
/// [`ColumnStats::update`] over the values' keys, with the codes marked
/// for the distinct count. An exact bitmap also gives the envelope, so
/// the pass leaves that out.
struct CodeStats {
    domain: Domain,
    stats: ColumnStats,
    seen: Seen,
}

impl CodeStats {
    /// For codes of `bits` bits in `domain`.
    fn new(domain: Domain, bits: u8) -> CodeStats {
        let bitmap = vec![0; (1usize << bits.min(BITMAP_BITS)).div_ceil(64)];
        let seen = match bits <= BITMAP_BITS {
            true => Seen::Codes(bitmap),
            false => Seen::Hashed(bitmap),
        };
        CodeStats {
            domain,
            stats: ColumnStats::uncounted(),
            seen,
        }
    }

    /// The stream `buf` of every code folded, sealed and narrowed like a
    /// built column, with its statistics.
    fn seal(self, buf: Vec<u8>) -> Spliced {
        let mut stream = EncodedStream::from_buf(buf);
        manipulate::narrow(&mut stream);
        let mut stats = self.stats;
        let count =
            |words: &[u64]| -> u64 { words.iter().map(|w| u64::from(w.count_ones())).sum() };
        let distinct = match &self.seen {
            Seen::Codes(words) => {
                if stats.count > 0 {
                    let (lo, hi) = envelope(&self.domain, words);
                    (stats.min, stats.max) = (value(lo), value(hi));
                }
                count(words)
            }
            // Codes that share a bit may still differ: past the dictionary
            // limit the bound settles it, below it the values are counted.
            Seen::Hashed(words) => match count(words) {
                bound if bound > DISTINCT_LIMIT as u64 => bound,
                bound => recount(&stream, bound as usize),
            },
        };
        stats.set_distinct(distinct);
        Spliced { stream, stats }
    }
}

/// The least and greatest key among the codes set in `words`.
fn envelope(domain: &Domain, words: &[u64]) -> (u64, u64) {
    match domain {
        // Keys rise with frame offsets: the least and greatest code.
        &Domain::Frame(at) => {
            let first = words.iter().position(|&w| w != 0).unwrap_or(0);
            let last = words.iter().rposition(|&w| w != 0).unwrap_or(0);
            let lo = first as u64 * 64 + u64::from(words[first].trailing_zeros());
            let hi = last as u64 * 64 + 63 - u64::from(words[last].leading_zeros());
            (key(at).wrapping_add(lo), key(at).wrapping_add(hi))
        }
        Domain::Entries(keys) => set_bits(words)
            .map(|c| keys[c as usize])
            .fold((u64::MAX, 0), |(lo, hi), k| (lo.min(k), hi.max(k))),
        Domain::Raw => unreachable!("raw codes are hashed"),
    }
}

impl Seen {
    /// Fold `codes` into `stats`, each standing for the value of key
    /// `key(c)`, and mark `code(c)`; `WRAPS` as for [`ColumnStats::fold`].
    #[inline(always)]
    fn take<C: Copy, const WRAPS: bool>(
        &mut self,
        stats: &mut ColumnStats,
        codes: &[C],
        key: impl Fn(C) -> u64,
        code: impl Fn(C) -> u64,
    ) {
        match self {
            // Codes of at most 6 bits: one word, marked in a register.
            Seen::Codes(words) if words.len() == 1 => {
                let mut word = words[0];
                stats.fold::<C, WRAPS, false>(codes, key, |c| word |= 1 << code(c));
                words[0] = word;
            }
            Seen::Codes(words) => stats.fold::<C, WRAPS, false>(codes, key, |c| {
                let p = code(c) as usize;
                words[p >> 6] |= 1 << (p & 63);
            }),
            Seen::Hashed(words) => stats.fold::<C, WRAPS, true>(codes, key, |c| {
                let shift = 64 - u32::from(BITMAP_BITS);
                let p = (code(c).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
                words[p >> 6] |= 1 << (p & 63);
            }),
        }
    }
}

impl Tally for CodeStats {
    fn codes(&mut self, codes: &[u64]) {
        let CodeStats {
            domain,
            stats,
            seen,
        } = self;
        match domain {
            &mut Domain::Frame(at) => {
                let at = key(at);
                match seen {
                    // A frame's deltas can overflow only at 64 bits.
                    Seen::Codes(_) => {
                        seen.take::<u64, false>(stats, codes, |c| c.wrapping_add(at), |c| c)
                    }
                    Seen::Hashed(_) => {
                        seen.take::<u64, true>(stats, codes, |c| c.wrapping_add(at), |c| c)
                    }
                }
            }
            Domain::Entries(keys) => {
                seen.take::<u64, true>(stats, codes, |c| keys[c as usize], |c| c)
            }
            Domain::Raw => seen.take::<u64, true>(stats, codes, |c| key(c as i64), |c| c),
        }
    }
}

/// The positions of the set bits of `words`, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = u64> + '_ {
    words.iter().enumerate().flat_map(|(i, &w)| {
        let rest = std::iter::successors(Some(w), |&w| Some(w & w.wrapping_sub(1)));
        rest.take_while(|&w| w != 0)
            .map(move |w| i as u64 * 64 + u64::from(w.trailing_zeros()))
    })
}

/// The distinct values of `stream`, at least `at_least` of them, counted
/// in a set sized for that many, up to one past the dictionary limit.
fn recount(stream: &EncodedStream, at_least: usize) -> u64 {
    let mut set = DistinctSet::with_capacity(at_least);
    let mut block = Vec::with_capacity(BLOCK_SIZE);
    for b in 0..stream.block_count() {
        block.clear();
        stream.decode_block(b, &mut block);
        let mut prev = None;
        for &v in &block {
            if prev != Some(v) && set.insert(v) && set.len() > DISTINCT_LIMIT {
                return set.len() as u64;
            }
            prev = Some(v);
        }
    }
    set.len() as u64
}

/// Raw values move as they are, at the stream's width unless a new row
/// needs more.
fn splice_raw(stream: &EncodedStream, mut dropped: &[u64], tail: &[i64]) -> Spliced {
    let h = stream.header();
    let width = if tail.iter().all(|&v| rle::value_fits(v, h.width, h.signed)) {
        h.width
    } else {
        Width::W8
    };
    let mut out = raw::new_stream(width, h.block_size, h.signed);
    let data = out.len();
    let rows = h.logical_size as usize - dropped.len() + tail.len();
    let block_bytes = h.block_size * width.bytes();
    out.reserve(rows.div_ceil(h.block_size) * block_bytes);
    let mut stats = CodeStats::new(Domain::Raw, 64);
    let mut put = |vals: &[i64]| {
        stats
            .seen
            .take::<i64, true>(&mut stats.stats, vals, key, |v| v as u64);
        raw::put_values(&mut out, width, vals);
    };
    let mut block = Vec::with_capacity(h.block_size);
    for b in 0..stream.block_count() {
        block.clear();
        stream.decode_block(b, &mut block);
        close_up(&mut block, (b * h.block_size) as u64, &mut dropped);
        put(&block);
    }
    put(tail);
    // Every block is stored whole.
    out.resize(data + rows.div_ceil(h.block_size) * block_bytes, 0);
    header::put_u64(&mut out, header::OFF_LOGICAL_SIZE, rows as u64);
    stats.seal(out)
}

/// Offsets move as they are when every new row lies inside the frame's
/// envelope. Otherwise the frame and width grow to cover the envelope
/// and the new rows, and the survivors' offsets move to the new frame
/// (`frame::repack`).
fn splice_frame(buf: &[u8], h: &HeaderView, dropped: &[u64], tail: &[i64]) -> Spliced {
    let old = frame::frame_value(buf);
    let span = !bitpack::too_wide(h.bits);
    let inside = |v: i64| v >= old && v.wrapping_sub(old) as u64 <= span;
    let (at, bits) = if tail.iter().all(|&v| inside(v)) {
        (old, h.bits)
    } else {
        let lo = tail.iter().fold(old, |lo, &v| lo.min(v));
        let top = old.checked_add_unsigned(span).unwrap_or(i64::MAX);
        let hi = tail.iter().fold(top, |hi, &v| hi.max(v));
        (lo, bitpack::bits_for_max(hi.wrapping_sub(lo) as u64))
    };
    let rows = h.logical_size as usize - dropped.len() + tail.len();
    let out = frame::new_stream(Width::W8, h.block_size, h.signed, at, bits);
    let mut to = Packer::new(out, rows, CodeStats::new(Domain::Frame(at), bits));
    frame::repack(buf, h, dropped, &mut to);
    let codes: Vec<u64> = tail.iter().map(|&v| v.wrapping_sub(at) as u64).collect();
    to.push(&codes);
    let (out, stats) = to.finish().expect("the frame covers every row");
    stats.seal(out)
}

/// Indexes move as they are (`dict::repack`); a new value gets the next
/// entry, and the index width grows when the entries outgrow it.
fn splice_dict(buf: &[u8], h: &HeaderView, dropped: &[u64], tail: &[i64]) -> Option<Spliced> {
    let mut entries = dict::entries(buf, h);
    let kept = entries.len();
    let mut codes = Vec::with_capacity(tail.len());
    if !tail.is_empty() {
        let mut index = dict::rebuild_index(buf, h);
        for &v in tail {
            let code = match index.get(v) {
                Some(code) => code,
                None if entries.len() < 1 << DICT_MAX_BITS => {
                    let code = entries.len() as u16;
                    index.insert(v, code);
                    entries.push(v);
                    code
                }
                None => return None,
            };
            codes.push(u64::from(code));
        }
    }
    let need = bitpack::bits_for_max(entries.len().saturating_sub(1) as u64);
    let bits = h.bits.max(need);
    let rows = h.logical_size as usize - dropped.len() + tail.len();
    let out = dict::new_stream(Width::W8, h.block_size, h.signed, bits);
    let keys = entries.iter().map(|&e| key(e)).collect();
    let stats = CodeStats::new(Domain::Entries(keys), bits);
    let mut to = Packer::new(out, rows, stats);
    // The stream has room for every entry: the survivors keep theirs.
    dict::repack(buf, h, dropped, &mut to).expect("room for every entry");
    let oh = HeaderView::parse(&to.out);
    for (i, &e) in entries.iter().enumerate().skip(kept) {
        dict::set_entry(&mut to.out, &oh, i, e);
    }
    header::put_u64(&mut to.out, dict::OFF_ENTRY_COUNT, entries.len() as u64);
    to.push(&codes);
    let (out, stats) = to.finish().expect("every index has its entry");
    Some(stats.seal(out))
}

/// Tombstones come off the run counts, emptied runs drop out and equal
/// neighbours merge; the new rows append as runs, merging at the
/// boundary. The field widths stay unless a value needs a wider one.
fn splice_runs(buf: &[u8], h: &HeaderView, dropped: &[u64], tail: &[i64]) -> Spliced {
    let mut runs = surviving_runs(buf, h, dropped);
    for &v in tail {
        push_run(&mut runs, v, 1);
    }
    let mut stats = ColumnStats::new();
    stats.update_runs(&runs);
    let (cw, vw) = rle::field_widths(buf);
    let vw = if runs.iter().all(|&(v, _)| rle::value_fits(v, vw, h.signed)) {
        vw
    } else {
        Width::W8
    };
    let mut out = rle::new_stream(h.width.max(vw), h.block_size, h.signed, cw, vw);
    for &(v, n) in &runs {
        rle::push_run(&mut out, v, n);
    }
    seal(out, stats.count as usize, stats)
}

/// The header stays; the tail must continue the progression.
fn splice_affine(buf: &[u8], h: &HeaderView, tail: &[i64]) -> Option<Spliced> {
    let mut out = buf.to_vec();
    affine::append_block(&mut out, h, tail).ok()?;
    let rows = h.logical_size as usize + tail.len();
    let (base, delta) = (affine::base(buf), affine::delta(buf));
    let mut stats = ColumnStats::uncounted();
    let mut block = Vec::with_capacity(BLOCK_SIZE);
    for first in (0..rows).step_by(BLOCK_SIZE) {
        block.clear();
        let n = BLOCK_SIZE.min(rows - first);
        block.extend((first..first + n).map(|r| base.wrapping_add((r as i64).wrapping_mul(delta))));
        stats.update(&block);
    }
    if stats.delta_overflow {
        // A progression that wraps around is no longer one-to-one.
        return None;
    }
    stats.set_distinct(if delta == 0 { 1 } else { rows as u64 });
    out[header::OFF_WIDTH] = Width::W8.bytes() as u8;
    Some(seal(out, rows, stats))
}

/// Seal `buf` at `rows` logical values and narrow it like a built column.
fn seal(mut buf: Vec<u8>, rows: usize, stats: ColumnStats) -> Spliced {
    header::put_u64(&mut buf, header::OFF_LOGICAL_SIZE, rows as u64);
    let mut stream = EncodedStream::from_buf(buf);
    manipulate::narrow(&mut stream);
    Spliced { stream, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::EncodingSpec;
    use tde_types::sentinel::NULL_I64;

    fn encode(spec: EncodingSpec, signed: bool, vals: &[i64]) -> EncodedStream {
        let mut s = spec.build(Width::W8, signed);
        for chunk in vals.chunks(BLOCK_SIZE) {
            s.append_block(chunk).unwrap();
        }
        manipulate::narrow(&mut s);
        s
    }

    /// Splice and check the rows and every statistic against the
    /// dynamic encoder's over the same values.
    fn check(stream: &EncodedStream, dropped: &[u64], tail: &[i64]) -> Option<Spliced> {
        let mut want: Vec<i64> = stream
            .decode_all()
            .into_iter()
            .enumerate()
            .filter(|(r, _)| dropped.binary_search(&(*r as u64)).is_err())
            .map(|(_, v)| v)
            .collect();
        assert_eq!(survivors(stream, dropped), want);
        let spliced = splice(stream, dropped, tail)?;
        want.extend_from_slice(tail);
        assert_eq!(spliced.stream.decode_all(), want);
        assert_eq!(spliced.stream.algorithm(), stream.algorithm());
        let mut stats = ColumnStats::new();
        for chunk in want.chunks(BLOCK_SIZE) {
            stats.update(chunk);
        }
        let s = &spliced.stats;
        assert_eq!(
            (s.count, s.min, s.max, s.null_count),
            (stats.count, stats.min, stats.max, stats.null_count)
        );
        let all = crate::stats::AllowedAlgorithms::all();
        assert_eq!(
            crate::stats::choose_encoding(s, Width::W8, all, true),
            crate::stats::choose_encoding(&stats, Width::W8, all, true)
        );
        assert_eq!(
            (s.min_delta, s.max_delta, s.delta_overflow),
            (stats.min_delta, stats.max_delta, stats.delta_overflow)
        );
        assert_eq!((s.runs, s.max_run), (stats.runs, stats.max_run));
        assert_eq!(s.cardinality(), stats.cardinality());
        Some(spliced)
    }

    #[test]
    fn every_packed_encoding_keeps_its_algorithm() {
        let vals: Vec<i64> = (0..3000).map(|i| 100 + (i * 7) % 90).collect();
        let dropped: Vec<u64> = (0..3000).step_by(13).chain(1024..2048).collect();
        let mut dropped = dropped;
        dropped.sort_unstable();
        dropped.dedup();
        let specs = [
            EncodingSpec::None,
            EncodingSpec::Frame {
                frame: 100,
                bits: 7,
            },
            EncodingSpec::Dict { bits: 7 },
        ];
        // Wide domains: a few distinct codes, and more distinct codes than
        // the dictionary limit that differ only in their high bits.
        let shared: Vec<i64> = (0..3000).map(|i| (i % 3) << 40).collect();
        let many: Vec<i64> = (0..40_000).map(|i| i << 30).collect();
        let frame = |bits| EncodingSpec::Frame { frame: 0, bits };
        let streams = specs
            .iter()
            .map(|&spec| encode(spec, true, &vals))
            .chain([
                encode(frame(42), true, &shared),
                encode(frame(56), true, &many),
            ])
            .chain([encode(EncodingSpec::None, true, &shared)]);
        for s in streams {
            for tail in [&[][..], &[101, 150][..], &[NULL_I64, 7_000_000_000][..]] {
                check(&s, &dropped, tail).unwrap();
                check(&s, &[], tail).unwrap();
            }
        }
    }

    #[test]
    fn a_frame_widens_over_its_envelope_and_the_new_rows() {
        let spec = EncodingSpec::Frame { frame: 10, bits: 4 };
        let s = encode(spec, true, &[10, 25, 12]);
        let spliced = check(&s, &[1], &[-3]).unwrap();
        assert_eq!(frame::frame_value(spliced.stream.as_bytes()), -3);
        assert_eq!(spliced.stream.header().bits, 5); // -3..=25
        let spliced = check(&s, &[], &[40, 11]).unwrap();
        assert_eq!(frame::frame_value(spliced.stream.as_bytes()), 10);
        assert_eq!(spliced.stream.header().bits, 5); // 10..=40
    }

    #[test]
    fn a_frame_wider_than_the_bitmap_counts_every_distinct_value() {
        // A 20-bit base whose new rows widen it: a lower bound, then a
        // recount.
        let vals: Vec<i64> = (0..5000).map(|i| (i * 7919) % (1 << 20)).collect();
        let s = encode(EncodingSpec::Frame { frame: 0, bits: 20 }, true, &vals);
        let dropped: Vec<u64> = (0..5000).step_by(3).collect();
        for tail in [&[1 << 21, 5, 1 << 21][..], &[-7, 3 << 20, 11][..]] {
            let spliced = check(&s, &dropped, tail).unwrap();
            assert!(spliced.stream.header().bits > BITMAP_BITS);
        }
        // A base wider than the bitmap.
        let vals: Vec<i64> = (0..5000).map(|i| (i % 1500) << 22).collect();
        let s = encode(EncodingSpec::Frame { frame: 0, bits: 33 }, true, &vals);
        let spliced = check(&s, &dropped, &[1 << 22, 7 << 30]).unwrap();
        assert_eq!(spliced.stats.cardinality(), Some(1001));
    }

    #[test]
    fn splices_store_the_bytes_a_block_by_block_build_stores() {
        // The packer writes blocks one after another; a stream built a
        // block at a time under the spliced header holds the same bytes.
        let vals: Vec<i64> = (0..5000).map(|i| (i * 37) % 3001 - 7).collect();
        let dropped: Vec<u64> = (0..5000).step_by(5).chain(2048..3072).collect();
        let mut dropped = dropped;
        dropped.sort_unstable();
        dropped.dedup();
        let s = encode(
            EncodingSpec::Frame {
                frame: -7,
                bits: 12,
            },
            true,
            &vals,
        );
        for tail in [&[][..], &[9, 40][..], &[-100, 5000, 3][..]] {
            let spliced = check(&s, &dropped, tail).unwrap();
            let h = spliced.stream.header();
            let frame = frame::frame_value(spliced.stream.as_bytes());
            let mut built = EncodingSpec::Frame {
                frame,
                bits: h.bits,
            }
            .build(Width::W8, true);
            for chunk in spliced.stream.decode_all().chunks(BLOCK_SIZE) {
                built.append_block(chunk).unwrap();
            }
            manipulate::narrow(&mut built);
            assert_eq!(spliced.stream.as_bytes(), built.as_bytes(), "tail {tail:?}");
        }
        let s = encode(EncodingSpec::None, true, &vals);
        let spliced = check(&s, &dropped, &[1, 2]).unwrap();
        let mut built = EncodingSpec::None.build(Width::W8, true);
        for chunk in spliced.stream.decode_all().chunks(BLOCK_SIZE) {
            built.append_block(chunk).unwrap();
        }
        manipulate::narrow(&mut built);
        assert_eq!(spliced.stream.as_bytes(), built.as_bytes());
    }

    #[test]
    fn a_dictionary_grows_its_index_width() {
        let vals: Vec<i64> = (0..2000).map(|i| (i % 4) * 1000).collect();
        let s = encode(EncodingSpec::Dict { bits: 2 }, true, &vals);
        let tail: Vec<i64> = (0..40).map(|i| i * 77).collect();
        let spliced = check(&s, &[0, 5, 1999], &tail).unwrap();
        assert_eq!(spliced.stream.header().bits, 6);
        assert_eq!(
            spliced.stream.dict_entries().unwrap()[..4],
            [0, 1000, 2000, 3000]
        );
    }

    #[test]
    fn conform_narrows_what_dropped_rows_needed() {
        // The one row that needed the frame's top bits goes.
        let s = encode(
            EncodingSpec::Frame { frame: 0, bits: 10 },
            true,
            &[0, 5, 1000, 7],
        );
        let spliced = check(&s, &[2], &[]).unwrap();
        assert_eq!(spliced.stream.header().bits, 10);
        let narrowed = conform(spliced, EncodingSpec::Frame { frame: 0, bits: 3 });
        assert_eq!(narrowed.stream.header().bits, 3);
        assert_eq!(narrowed.stream.decode_all(), [0, 5, 7]);
        // Entries only dropped rows used go, the rest keep their order.
        let vals: Vec<i64> = (0..2000).map(|i| (i % 16) * 1000).collect();
        let s = encode(EncodingSpec::Dict { bits: 4 }, true, &vals);
        let dropped: Vec<u64> = (0..2000).filter(|i| i % 16 >= 4 && i % 16 != 9).collect();
        let spliced = check(&s, &dropped, &[]).unwrap();
        let want = spliced.stream.decode_all();
        let narrowed = conform(spliced, EncodingSpec::Dict { bits: 3 });
        assert_eq!(narrowed.stream.header().bits, 3);
        assert_eq!(
            narrowed.stream.dict_entries().unwrap(),
            [0, 1000, 2000, 3000, 9000]
        );
        assert_eq!(narrowed.stream.decode_all(), want);
        // Same bits: nothing to gain, the stream stays.
        let s = encode(EncodingSpec::Dict { bits: 4 }, true, &vals);
        let spliced = check(&s, &[3], &[]).unwrap();
        let before = spliced.stream.as_bytes().to_vec();
        let kept = conform(spliced, EncodingSpec::Dict { bits: 4 });
        assert_eq!(kept.stream.as_bytes(), before);
    }

    #[test]
    fn runs_lose_tombstones_and_merge() {
        let mut vals = vec![5i64; 300];
        vals.extend([6; 2]);
        vals.extend([5; 400]);
        let s = encode(
            EncodingSpec::Rle {
                count_width: Width::W1,
                value_width: Width::W1,
            },
            true,
            &vals,
        );
        let spliced = check(&s, &[300, 301], &[5, 5, 9, 300]).unwrap();
        let runs = spliced.stream.rle_runs().unwrap();
        assert!(runs.iter().all(|&(_, n)| n <= 255), "{runs:?}");
        assert_eq!(spliced.stats.runs, 3);
    }

    #[test]
    fn affine_appends_only_a_continuation() {
        let vals: Vec<i64> = (0..1500).map(|i| 7 + 3 * i).collect();
        let s = encode(EncodingSpec::Affine { base: 7, delta: 3 }, true, &vals);
        check(&s, &[], &[4507, 4510]).unwrap();
        assert!(splice(&s, &[], &[4508]).is_none());
        assert!(splice(&s, &[3], &[]).is_none());
        let d = encode(
            EncodingSpec::Delta {
                min_delta: 3,
                bits: 0,
            },
            true,
            &vals,
        );
        assert!(splice(&d, &[], &[]).is_none());
    }
}
