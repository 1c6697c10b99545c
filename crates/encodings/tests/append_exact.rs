//! The append paths against their definitions in unbounded arithmetic.
//!
//! Frame-of-reference and delta appends decide "does this value fit" in
//! 64-bit wrapping arithmetic with the wraps accounted for; the paper's
//! definition is over the integers. These tests state the definition with
//! `i128` and require the same accept/reject decision and, on accept, the
//! same decoded values — including the operands chosen to wrap — plus the
//! statistics' block-wise passes against a value-at-a-time fold.

include!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/common/proptest_env.rs"
));

use proptest::collection::vec;
use proptest::prelude::*;
use tde_encodings::{ColumnStats, EncodedStream, EncodingFull, BLOCK_SIZE};
use tde_types::sentinel::NULL_I64;
use tde_types::Width;

/// Values that sit on every edge of the i64 range, mixed with small ones.
fn edgy(seed: u64, spread: u8, n: usize) -> Vec<i64> {
    let anchors = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let jitter = (s >> 8) as i64 % (1i64 << (spread % 40));
            match s % 4 {
                0 => anchors[(s >> 40) as usize % anchors.len()].wrapping_add(jitter),
                1 => (s >> 3) as i64,
                _ => jitter,
            }
        })
        .collect()
}

fn fits(x: i128, bits: u8) -> bool {
    x >= 0 && x < (1i128 << bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases(256)))]

    #[test]
    fn frame_append_is_the_integer_definition(
        seed in any::<u64>(),
        spread in any::<u8>(),
        bits in 0u8..=64,
        pick in any::<u16>(),
        n in 1usize..200,
    ) {
        let vals = edgy(seed, spread, n);
        // A frame near the data, so both outcomes occur.
        let frame = vals[pick as usize % n].wrapping_sub((seed >> 50) as i64);
        let expect = vals.iter().all(|&v| fits(v as i128 - frame as i128, bits));
        let mut s = EncodedStream::new_frame(Width::W8, true, frame, bits);
        let before = s.as_bytes().to_vec();
        match s.append_block(&vals) {
            Ok(()) => {
                prop_assert!(expect, "accepted a value outside the frame");
                prop_assert_eq!(s.decode_all(), vals);
            }
            Err(e) => {
                prop_assert_eq!(e, EncodingFull::ValueOutOfRange);
                prop_assert!(!expect, "rejected values inside the frame");
                prop_assert_eq!(s.as_bytes(), &before[..]);
            }
        }
    }

    #[test]
    fn delta_append_is_the_integer_definition(
        seed in any::<u64>(),
        spread in any::<u8>(),
        bits in 0u8..=64,
        pick in any::<u16>(),
        n in 1usize..200,
    ) {
        let vals = edgy(seed, spread, n);
        let deltas: Vec<i128> = vals.windows(2).map(|w| w[1] as i128 - w[0] as i128).collect();
        // A minimum delta near a real one (clamped into i64).
        let near = deltas.get(pick as usize % n.max(2) % deltas.len().max(1)).copied().unwrap_or(0);
        let min_delta = (near - (seed >> 52) as i128).clamp(i64::MIN as i128, i64::MAX as i128) as i64;
        let expect = deltas.iter().all(|&d| fits(d - min_delta as i128, bits));
        let mut s = EncodedStream::new_delta(Width::W8, true, min_delta, bits);
        let before = s.as_bytes().to_vec();
        match s.append_block(&vals) {
            Ok(()) => {
                prop_assert!(expect, "accepted a delta outside the range");
                prop_assert_eq!(s.decode_all(), vals);
            }
            Err(e) => {
                prop_assert_eq!(e, EncodingFull::ValueOutOfRange);
                prop_assert!(!expect, "rejected deltas inside the range");
                prop_assert_eq!(s.as_bytes(), &before[..]);
            }
        }
    }

    #[test]
    fn dictionary_append_fills_exactly_to_capacity(
        bits in 1u8..=6,
        domain in 1i64..100,
        seed in any::<u64>(),
    ) {
        let block = |salt: u64| -> Vec<i64> {
            (0..BLOCK_SIZE as u64)
                .map(|i| ((seed ^ salt).wrapping_mul(i | 1) >> 20) as i64 % domain * 1_000_003)
                .collect()
        };
        let mut s = EncodedStream::new_dict(Width::W8, true, bits);
        let mut model: Vec<i64> = Vec::new();
        let mut decoded: Vec<i64> = Vec::new();
        for salt in 0..4 {
            let vals = block(salt);
            let mut grown = model.clone();
            for &v in &vals {
                if !grown.contains(&v) {
                    grown.push(v);
                }
            }
            let before = s.as_bytes().to_vec();
            match s.append_block(&vals) {
                Ok(()) => {
                    prop_assert!(grown.len() <= 1 << bits);
                    model = grown;
                    decoded.extend_from_slice(&vals);
                }
                Err(e) => {
                    prop_assert_eq!(e, EncodingFull::DictionaryFull);
                    prop_assert!(grown.len() > 1 << bits);
                    prop_assert_eq!(s.as_bytes(), &before[..]);
                }
            }
            // Entries are in first-appearance order whatever failed before.
            prop_assert_eq!(s.dict_entries().unwrap(), model.clone());
            prop_assert_eq!(s.decode_all(), decoded.clone());
        }
    }

    #[test]
    fn block_wise_statistics_equal_the_value_wise_fold(
        seed in any::<u64>(),
        spread in any::<u8>(),
        cuts in vec(1usize..300, 1..8),
    ) {
        let n: usize = cuts.iter().sum();
        let mut vals = edgy(seed, spread, n);
        // Runs and NULLs, so every statistic moves.
        for i in 1..n {
            if (seed >> (i % 60)) & 3 == 0 {
                vals[i] = vals[i - 1];
            } else if (seed >> (i % 59)) & 31 == 0 {
                vals[i] = NULL_I64;
            }
        }
        let mut stats = ColumnStats::new();
        let mut at = 0;
        for &c in &cuts {
            stats.update(&vals[at..at + c]);
            at += c;
        }
        // The definition, one value at a time.
        let (mut min, mut max) = (i64::MAX, i64::MIN);
        let (mut min_d, mut max_d, mut overflow) = (i64::MAX, i64::MIN, false);
        let (mut runs, mut run, mut max_run, mut nulls) = (0u64, 0u64, 0u64, 0u64);
        let mut distinct = std::collections::BTreeSet::new();
        for (i, &v) in vals.iter().enumerate() {
            min = min.min(v);
            max = max.max(v);
            nulls += u64::from(v == NULL_I64);
            distinct.insert(v);
            if i == 0 || vals[i - 1] != v {
                runs += 1;
                run = 1;
            } else {
                run += 1;
            }
            max_run = max_run.max(run);
            if i > 0 {
                let d = v as i128 - vals[i - 1] as i128;
                overflow |= d < i64::MIN as i128 || d > i64::MAX as i128;
                min_d = min_d.min(d as i64);
                max_d = max_d.max(d as i64);
            }
        }
        prop_assert_eq!(stats.count, n as u64);
        prop_assert_eq!((stats.min, stats.max), (min, max));
        prop_assert_eq!((stats.min_delta, stats.max_delta), (min_d, max_d));
        prop_assert_eq!(stats.delta_overflow, overflow);
        prop_assert_eq!((stats.runs, stats.max_run, stats.null_count), (runs, max_run, nulls));
        prop_assert_eq!(stats.cardinality(), Some(distinct.len() as u64));
    }
}

#[test]
fn delta_wraps_that_cancel_are_accepted() {
    // v1 - v0 = 2^63 wraps; subtracting min_delta = 1 wraps back: the true
    // packed value 2^63 - 1 fits 63 bits.
    let vals = [-(1i64 << 62), 1i64 << 62];
    let mut s = EncodedStream::new_delta(Width::W8, true, 1, 63);
    s.append_block(&vals).unwrap();
    assert_eq!(s.decode_all(), vals);
    // One bit narrower it does not fit.
    let mut s = EncodedStream::new_delta(Width::W8, true, 1, 62);
    assert_eq!(s.append_block(&vals), Err(EncodingFull::ValueOutOfRange));
    // A true value of 2^64 - 1 needs all 64 bits.
    let vals = [i64::MIN, i64::MAX];
    let mut s = EncodedStream::new_delta(Width::W8, true, 0, 64);
    s.append_block(&vals).unwrap();
    assert_eq!(s.decode_all(), vals);
    // And a negative true value never fits, however it wraps.
    let mut s = EncodedStream::new_delta(Width::W8, true, 0, 64);
    assert_eq!(
        s.append_block(&[i64::MAX, i64::MIN]),
        Err(EncodingFull::ValueOutOfRange)
    );
}
