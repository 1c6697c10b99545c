//! Dynamic encoding (paper §3.2).
//!
//! Columns are encoded one block at a time. Block values update the
//! column's statistics *before* the block is inserted into the encoding
//! stream; if the insert fails (a value outside the representable range,
//! a full dictionary, a broken affine progression) the encoder consults
//! the statistics, chooses a new encoding, and rewrites the stream. When
//! all rows have been processed the current encoding can be compared with
//! the optimal one and converted if that saves space.
//!
//! The paper reports that encodings stabilize quickly — loading TPC-H
//! lineitem at SF-1 caused only two encoding changes — which experiment E9
//! (`dynamic_stability` bench) reproduces on our generator.

use crate::splice::Packer;
use crate::stats::{choose_encoding_with, AllowedAlgorithms, ColumnStats, EncodingSpec};
use crate::{dict, frame, Algorithm, EncodedStream, EncodingFull, BLOCK_SIZE};
use tde_types::Width;

/// Streaming encoder that adapts its encoding to the data (paper §3.2).
#[derive(Debug)]
pub struct DynamicEncoder {
    stats: ColumnStats,
    stream: Option<EncodedStream>,
    spec: EncodingSpec,
    width: Width,
    signed: bool,
    allow: AllowedAlgorithms,
    reencodings: u32,
    enabled: bool,
    prefer_dictionary: bool,
    label: String,
}

/// The finished column stream plus everything learned while building it.
#[derive(Debug)]
pub struct EncodeResult {
    /// The encoded stream.
    pub stream: EncodedStream,
    /// Final statistics over every inserted value.
    pub stats: ColumnStats,
    /// How many mid-load encoding changes occurred.
    pub reencodings: u32,
    /// Whether the end-of-load conversion to the optimal format fired.
    pub final_converted: bool,
}

impl DynamicEncoder {
    /// A new encoder for a column of `width`-byte values. `enabled = false`
    /// gives the "encodings off" baseline: raw storage, statistics still
    /// tracked (they come almost for free and the figures compare both).
    pub fn new(width: Width, signed: bool, allow: AllowedAlgorithms, enabled: bool) -> Self {
        DynamicEncoder {
            stats: ColumnStats::new(),
            stream: None,
            spec: EncodingSpec::None,
            width,
            signed,
            allow,
            reencodings: 0,
            enabled,
            prefer_dictionary: false,
            label: String::new(),
        }
    }

    /// Prefer dictionary encoding whenever the domain fits — used for
    /// string heap token streams (paper §6.3).
    pub fn prefer_dictionary(mut self) -> Self {
        self.prefer_dictionary = true;
        self
    }

    /// Label re-encoding events with a column name (observability only;
    /// encoding behaviour is unchanged).
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Convenience: encoder with every algorithm allowed.
    pub fn with_defaults(width: Width, signed: bool) -> Self {
        DynamicEncoder::new(width, signed, AllowedAlgorithms::all(), true)
    }

    /// Values inserted so far.
    pub fn len(&self) -> u64 {
        self.stats.count
    }

    /// Whether nothing has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.stats.count == 0
    }

    /// Mid-load encoding changes so far.
    pub fn reencodings(&self) -> u32 {
        self.reencodings
    }

    /// Current statistics.
    pub fn stats(&self) -> &ColumnStats {
        &self.stats
    }

    /// Current encoding spec.
    pub fn current_spec(&self) -> EncodingSpec {
        self.spec
    }

    /// Insert one block of values (at most [`BLOCK_SIZE`]; a short block
    /// must be the last).
    pub fn append_block(&mut self, vals: &[i64]) {
        if vals.is_empty() {
            return;
        }
        if !self.enabled {
            // "Encodings off" baseline: raw storage, no statistics work
            // beyond the row count (the statistics *are* part of the
            // encoding machinery whose cost Fig 4 measures).
            self.stats.count += vals.len() as u64;
            let stream = self
                .stream
                .get_or_insert_with(|| EncodingSpec::None.build(self.width, self.signed));
            stream.append_block(vals).expect("raw append cannot fail");
            return;
        }
        self.stats.update(vals);
        if self.stream.is_none() {
            // First block: pick the initial encoding from its statistics.
            self.spec = if self.enabled {
                choose_encoding_with(
                    &self.stats,
                    self.width,
                    self.allow,
                    false,
                    self.prefer_dictionary,
                )
            } else {
                EncodingSpec::None
            };
            self.stream = Some(self.spec.build(self.width, self.signed));
        }
        let stream = self.stream.as_mut().expect("stream initialized above");
        match stream.append_block(vals) {
            Ok(()) => {}
            Err(EncodingFull::Sealed) => panic!("append after a partial (sealing) block"),
            Err(_) => self.reencode_with(vals),
        }
    }

    /// The insert failed: choose a new encoding from the statistics (which
    /// already include the failed block) and rewrite the stream.
    fn reencode_with(&mut self, vals: &[i64]) {
        self.reencodings += 1;
        let from = self.spec;
        self.spec = choose_encoding_with(
            &self.stats,
            self.width,
            self.allow,
            false,
            self.prefer_dictionary,
        );
        tde_obs::emit(|| tde_obs::Event::Reencode {
            column: self.label.clone(),
            from: format!("{from:?}"),
            to: format!("{:?}", self.spec),
            rows: self.stats.count,
            kind: tde_obs::ReencodeKind::MidLoad,
        });
        let existing = self.stream.take().expect("reencode without stream");
        let mut fresh = self.rewritten(&existing, self.spec);
        fresh
            .append_block(vals)
            .expect("encoding chosen from covering statistics must accept all values");
        self.stream = Some(fresh);
    }

    /// The values of `stream` under the encoding `to` ([`rewritten`]).
    fn rewritten(&self, stream: &EncodedStream, to: EncodingSpec) -> EncodedStream {
        rewritten(stream, to, self.width, self.signed)
            .expect("encoding chosen from covering statistics must accept all values")
    }

    /// Finish the column. With `convert_to_optimal`, compare the current
    /// encoding with the optimal one for the final statistics and convert
    /// if it is physically smaller (paper §3.2).
    pub fn finish(mut self, convert_to_optimal: bool) -> EncodeResult {
        let mut stream = self
            .stream
            .take()
            .unwrap_or_else(|| EncodedStream::new_raw(self.width, self.signed));
        let mut final_converted = false;
        if convert_to_optimal && self.enabled && !stream.is_empty() {
            let optimal = choose_encoding_with(
                &self.stats,
                self.width,
                self.allow,
                true,
                self.prefer_dictionary,
            );
            if optimal != self.spec {
                let fresh = self.rewritten(&stream, optimal);
                if fresh.physical_size() < stream.physical_size() {
                    tde_obs::emit(|| tde_obs::Event::Reencode {
                        column: self.label.clone(),
                        from: format!("{:?}", self.spec),
                        to: format!("{optimal:?}"),
                        rows: self.stats.count,
                        kind: tde_obs::ReencodeKind::FinalConvert,
                    });
                    stream = fresh;
                    self.spec = optimal;
                    final_converted = true;
                }
            }
        }
        EncodeResult {
            stream,
            stats: self.stats,
            reencodings: self.reencodings,
            final_converted,
        }
    }
}

/// The values of `stream` under the encoding `to`, built at `width`. A
/// frame-of-reference stream moving to another frame or width, and a
/// dictionary stream moving to another index width, are re-packed block
/// by block — the common mid-load widening; any other change decodes and
/// re-appends. Both routes produce the same bytes. Fails when `to`
/// cannot hold the values.
pub(crate) fn rewritten(
    stream: &EncodedStream,
    to: EncodingSpec,
    width: Width,
    signed: bool,
) -> Result<EncodedStream, EncodingFull> {
    let mut fresh = to.build(width, signed);
    let h = stream.header();
    let rows = h.logical_size as usize;
    match (h.algorithm, to) {
        (Algorithm::FrameOfReference, EncodingSpec::Frame { .. }) => {
            let mut to = Packer::new(fresh.buf, rows, ());
            frame::repack(stream.as_bytes(), &h, &[], &mut to);
            Ok(EncodedStream::from_buf(to.finish()?.0))
        }
        (Algorithm::Dictionary, EncodingSpec::Dict { .. }) => {
            let mut to = Packer::new(fresh.buf, rows, ());
            dict::repack(stream.as_bytes(), &h, &[], &mut to)?;
            Ok(EncodedStream::from_buf(to.finish()?.0))
        }
        _ => {
            for chunk in stream.decode_all().chunks(BLOCK_SIZE) {
                fresh.append_block(chunk)?;
            }
            Ok(fresh)
        }
    }
}

/// Encode a whole slice in one call (tests, small columns, AlterColumn).
pub fn encode_all(vals: &[i64], width: Width, signed: bool) -> EncodeResult {
    let mut enc = DynamicEncoder::with_defaults(width, signed);
    for chunk in vals.chunks(BLOCK_SIZE) {
        enc.append_block(chunk);
    }
    enc.finish(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_arbitrary_data() {
        let vals: Vec<i64> = (0..10_000)
            .map(|i| if i % 100 == 0 { i * 1_000_003 } else { i % 50 })
            .collect();
        let r = encode_all(&vals, Width::W8, true);
        assert_eq!(r.stream.decode_all(), vals);
        assert_eq!(r.stats.count, 10_000);
    }

    #[test]
    fn sequence_lands_on_affine() {
        let vals: Vec<i64> = (0..5000).collect();
        let r = encode_all(&vals, Width::W8, true);
        assert_eq!(r.stream.algorithm(), Algorithm::Affine);
        assert_eq!(r.reencodings, 0);
        assert_eq!(r.stream.decode_all(), vals);
    }

    #[test]
    fn affine_broken_mid_load_reencodes() {
        // The first blocks look affine; a later block breaks it.
        let mut vals: Vec<i64> = (0..4096).collect();
        vals.extend([9999i64, 4097, 4098]);
        let mut enc = DynamicEncoder::with_defaults(Width::W8, true);
        for chunk in vals.chunks(BLOCK_SIZE) {
            enc.append_block(chunk);
        }
        assert!(enc.reencodings() >= 1);
        let r = enc.finish(true);
        assert_eq!(r.stream.decode_all(), vals);
    }

    #[test]
    fn dictionary_growth_then_overflow() {
        // First block has 8 distinct wide values (dict, ~4 bits with
        // headroom); later blocks add thousands of distinct values, forcing
        // re-encodes and eventually a non-dictionary format.
        let mut vals: Vec<i64> = (0..1024).map(|i| (i % 8) * 1_000_000_007).collect();
        vals.extend((0..60_000).map(|i| i * 1_000_003));
        let mut enc = DynamicEncoder::with_defaults(Width::W8, true);
        for chunk in vals.chunks(BLOCK_SIZE) {
            enc.append_block(chunk);
        }
        let r = enc.finish(true);
        assert_eq!(r.stream.decode_all(), vals);
        assert_ne!(r.stream.algorithm(), Algorithm::Dictionary);
    }

    #[test]
    fn encodings_disabled_stays_raw() {
        let vals: Vec<i64> = (0..3000).collect(); // would be affine
        let mut enc = DynamicEncoder::new(Width::W8, true, AllowedAlgorithms::all(), false);
        for chunk in vals.chunks(BLOCK_SIZE) {
            enc.append_block(chunk);
        }
        let r = enc.finish(true);
        assert_eq!(r.stream.algorithm(), Algorithm::None);
        assert_eq!(r.stream.decode_all(), vals);
        // With encodings off, no statistics beyond the count are gathered
        // (that work is part of the encoding path Fig 4 measures).
        assert_eq!(r.stats.count, 3000);
        assert!(r.stats.cardinality().is_none_or(|c| c == 0));
    }

    #[test]
    fn final_conversion_shrinks_stream() {
        // Growth-pass dictionary keeps a headroom bit; the final pass drops
        // it (or moves to FoR) and must only convert when smaller.
        let vals: Vec<i64> = (0..50_000).map(|i| (i % 1000) * 12_345_678_901).collect();
        let mut enc = DynamicEncoder::with_defaults(Width::W8, true);
        for chunk in vals.chunks(BLOCK_SIZE) {
            enc.append_block(chunk);
        }
        let before = enc.stream.as_ref().unwrap().physical_size();
        let r = enc.finish(true);
        assert!(r.stream.physical_size() <= before);
        assert_eq!(r.stream.decode_all(), vals);
    }

    #[test]
    fn repacking_equals_decoding_and_reappending() {
        // Frame -> frame and dictionary -> dictionary rewrites take the
        // re-pack route; it must produce the bytes of the generic one,
        // with whole blocks and with a ragged (sealed) last block.
        let enc = DynamicEncoder::with_defaults(Width::W8, true);
        let reappended = |stream: &EncodedStream, to: EncodingSpec| {
            let mut fresh = to.build(Width::W8, true);
            for chunk in stream.decode_all().chunks(BLOCK_SIZE) {
                fresh.append_block(chunk).unwrap();
            }
            fresh
        };
        for rows in [BLOCK_SIZE, 3 * BLOCK_SIZE, 3 * BLOCK_SIZE + 77, 5] {
            let vals: Vec<i64> = (0..rows as i64).map(|i| 1000 + (i * 37) % 200).collect();
            let frame = |frame, bits| EncodingSpec::Frame { frame, bits };
            let dict = |bits| EncodingSpec::Dict { bits };
            for (from, to) in [
                (frame(1000, 8), frame(-5, 13)),
                (frame(1000, 8), frame(1000, 8)),
                (frame(900, 20), frame(1000, 8)),
                (frame(0, 64), frame(i64::MIN, 64)),
                (dict(8), dict(9)),
                (dict(9), dict(8)),
                (dict(8), dict(15)),
            ] {
                let mut stream = from.build(Width::W8, true);
                for chunk in vals.chunks(BLOCK_SIZE) {
                    stream.append_block(chunk).unwrap();
                }
                let fast = enc.rewritten(&stream, to);
                let slow = reappended(&stream, to);
                assert_eq!(
                    fast.as_bytes(),
                    slow.as_bytes(),
                    "{from:?} -> {to:?}, {rows} rows"
                );
                assert_eq!(fast.sealed, slow.sealed);
                assert_eq!(fast.decode_all(), vals);
                // The re-packed stream keeps accepting blocks like the other.
                if !fast.sealed {
                    let (mut fast, mut slow) = (fast, slow);
                    fast.append_block(&vals[..BLOCK_SIZE.min(rows)]).unwrap();
                    slow.append_block(&vals[..BLOCK_SIZE.min(rows)]).unwrap();
                    assert_eq!(fast.as_bytes(), slow.as_bytes());
                }
            }
        }
    }

    #[test]
    fn restricted_algorithms_respected() {
        let mut vals = Vec::new();
        for v in 0..5i64 {
            vals.extend(std::iter::repeat_n(v, 10_000));
        }
        let mut enc =
            DynamicEncoder::new(Width::W8, true, AllowedAlgorithms::random_access(), true);
        for chunk in vals.chunks(BLOCK_SIZE) {
            enc.append_block(chunk);
        }
        let r = enc.finish(true);
        assert_ne!(r.stream.algorithm(), Algorithm::RunLength);
        assert_eq!(r.stream.decode_all(), vals);
    }

    #[test]
    fn empty_encoder_finishes() {
        let enc = DynamicEncoder::with_defaults(Width::W8, true);
        let r = enc.finish(true);
        assert!(r.stream.is_empty());
    }

    #[test]
    fn partial_final_block() {
        let vals: Vec<i64> = (0..1500).collect();
        let r = encode_all(&vals, Width::W8, true);
        assert_eq!(r.stream.len(), 1500);
        assert_eq!(r.stream.decode_all(), vals);
    }
}
