//! The streaming statistics against a reference model.
//!
//! `ColumnStats` folds a column block by block (`update`) or run by run
//! (`update_runs`) and keeps its distinct values the cheapest way it can.
//! Whatever it does inside, every statistic must be what a value-at-a-time
//! definition says of the whole column: a `BTreeSet` of the values and a
//! loop over neighbouring pairs. The shapes aim at the places where a
//! cheaper representation of the distinct values could go wrong —
//! ascending and descending prefixes that stop being ordered inside a
//! block or exactly at a block boundary, runs of duplicates, the NULL
//! sentinel first, the distinct set's free-slot marker as a value, and
//! the dictionary limit of 2¹⁵ distinct values met exactly and passed by
//! one.

include!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/common/proptest_env.rs"
));

use proptest::prelude::*;
use std::collections::BTreeSet;
use tde_encodings::ColumnStats;
use tde_types::sentinel::NULL_I64;

const LIMIT: usize = 1 << 15;

/// The value the distinct set marks its free slots with.
const FREE: i64 = 0x5A5A_5A5A_A5A5_A5A5_u64 as i64;

/// A small xorshift stream: the shapes below are functions of a seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// `n` values that never fall (`step` ≥ 0) or never rise, from `start`,
/// each repeated 1..=`dup` times.
fn ordered(rng: &mut Rng, start: i64, n: usize, dup: u64, rising: bool) -> Vec<i64> {
    let mut out = Vec::with_capacity(n);
    let mut v = start;
    while out.len() < n {
        for _ in 0..=rng.below(dup) {
            out.push(v);
        }
        let step = 1 + rng.below(5) as i64;
        v = if rising {
            v.saturating_add(step)
        } else {
            v.saturating_sub(step)
        };
    }
    out.truncate(n);
    out
}

/// The column of shape `shape`, and the row its blocks must break at
/// (when the shape asks for a boundary there).
fn column(shape: u8, rng: &mut Rng) -> (Vec<i64>, Option<usize>) {
    let n = 1 + rng.below(3000) as usize;
    let start = rng.next() as i64 >> rng.below(60);
    let dup = rng.below(4);
    match shape % 12 {
        // An ascending prefix that falls back somewhere in the middle.
        0 => {
            let mut v = ordered(rng, start, n, dup, true);
            v.truncate(1 + rng.below(n as u64) as usize);
            let back = v[v.len() - 1].saturating_sub(1 + rng.below(10) as i64);
            v.extend(ordered(rng, back, 1 + n / 2, dup, true));
            (v, None)
        }
        // A descending prefix that rises again exactly at a block cut.
        1 => {
            let mut v = ordered(rng, start, n, dup, false);
            let cut = v.len();
            v.extend(ordered(rng, start.wrapping_add(3), 1 + n / 3, dup, true));
            (v, Some(cut))
        }
        // An ascending prefix broken exactly at a block cut by a repeat
        // of an earlier value, then ascending again.
        2 => {
            let mut v = ordered(rng, start, n, dup, true);
            let cut = v.len();
            let again = v[rng.below(n as u64) as usize];
            v.extend(ordered(rng, again, 1 + n / 2, dup, true));
            (v, Some(cut))
        }
        // Runs of duplicates in no order.
        3 => {
            let mut v = Vec::new();
            while v.len() < n {
                let x = (rng.below(40) as i64 - 20) * 1_000_003;
                v.extend(std::iter::repeat_n(x, 1 + rng.below(30) as usize));
            }
            (v, None)
        }
        // NULL first, then ascending; then NULL first, then descending.
        4 => {
            let mut v = vec![NULL_I64; 1 + dup as usize];
            v.extend(ordered(rng, start, n, dup, true));
            (v, None)
        }
        5 => {
            let mut v = vec![NULL_I64; 1 + dup as usize];
            v.extend(ordered(rng, start, n, dup, false));
            (v, None)
        }
        // The set's free-slot marker as a value, inside an ordered
        // column and among unordered ones.
        6 => {
            let mut v = ordered(rng, FREE - 40, n, dup, true);
            v.retain(|&x| x <= FREE + 40);
            v.push(FREE);
            (v, None)
        }
        7 => {
            let v = (0..n)
                .map(|i| match rng.below(4) {
                    0 => FREE,
                    _ => (i % 97) as i64 - 48,
                })
                .collect();
            (v, None)
        }
        // The dictionary limit: exactly 2¹⁵ and 2¹⁵ + 1 distinct values,
        // ascending, descending, or ascending and then one earlier value.
        8..=10 => {
            let distinct = LIMIT + (rng.below(2) as usize);
            let rising = shape % 12 != 9;
            let start = start >> 20;
            let mut v = Vec::with_capacity(distinct + 64);
            for i in 0..distinct as i64 {
                let x = start.wrapping_add(if rising { i } else { -i } * 3);
                v.push(x);
                if rng.below(512) == 0 {
                    v.push(x);
                }
            }
            if shape % 12 == 10 {
                v.push(v[rng.below(v.len() as u64) as usize]);
            }
            (v, None)
        }
        // Anything at all.
        _ => {
            let v = (0..n).map(|_| rng.next() as i64 >> rng.below(64)).collect();
            (v, None)
        }
    }
}

/// Where the column's blocks end: random lengths, one cut at `forced`.
fn cuts(rng: &mut Rng, len: usize, forced: Option<usize>) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut at = 0;
    while at < len {
        at = (at + 1 + rng.below(1500) as usize).min(len);
        ends.push(at);
    }
    if let Some(f) = forced.filter(|&f| f < len) {
        ends.push(f);
    }
    ends.sort_unstable();
    ends.dedup();
    ends
}

/// `vals` as `(value, count)` runs, some split in two, with empty runs
/// mixed in.
fn as_runs(rng: &mut Rng, vals: &[i64]) -> Vec<(i64, u64)> {
    let mut runs: Vec<(i64, u64)> = Vec::new();
    for &v in vals {
        match runs.last_mut() {
            Some((last, n)) if *last == v && rng.below(4) != 0 => *n += 1,
            _ => runs.push((v, 1)),
        }
        if rng.below(50) == 0 {
            runs.push((rng.next() as i64, 0));
        }
    }
    runs
}

/// The statistics the definition gives, value by value.
#[derive(Debug, PartialEq)]
struct Model {
    count: u64,
    min: i64,
    max: i64,
    null_count: u64,
    min_delta: i64,
    max_delta: i64,
    delta_overflow: bool,
    runs: u64,
    max_run: u64,
    cardinality: Option<u64>,
}

fn model(vals: &[i64]) -> Model {
    let mut m = Model {
        count: vals.len() as u64,
        min: i64::MAX,
        max: i64::MIN,
        null_count: 0,
        min_delta: i64::MAX,
        max_delta: i64::MIN,
        delta_overflow: false,
        runs: 0,
        max_run: 0,
        cardinality: None,
    };
    let mut run = 0;
    for (i, &v) in vals.iter().enumerate() {
        m.min = m.min.min(v);
        m.max = m.max.max(v);
        m.null_count += u64::from(v == NULL_I64);
        if i > 0 {
            let d = v as i128 - vals[i - 1] as i128;
            m.delta_overflow |= d < i64::MIN as i128 || d > i64::MAX as i128;
            m.min_delta = m.min_delta.min(d as i64);
            m.max_delta = m.max_delta.max(d as i64);
        }
        if i == 0 || vals[i - 1] != v {
            m.runs += 1;
            run = 0;
        }
        run += 1;
        m.max_run = m.max_run.max(run);
    }
    let distinct: BTreeSet<i64> = vals.iter().copied().collect();
    m.cardinality = (distinct.len() <= LIMIT).then_some(distinct.len() as u64);
    m
}

fn observed(s: &ColumnStats) -> Model {
    Model {
        count: s.count,
        min: s.min,
        max: s.max,
        null_count: s.null_count,
        min_delta: s.min_delta,
        max_delta: s.max_delta,
        delta_overflow: s.delta_overflow,
        runs: s.runs,
        max_run: s.max_run,
        cardinality: s.cardinality(),
    }
}

/// Fold `vals` block by block, each block by `update` or — when `mix`
/// says so — as runs through `update_runs`.
fn fold(rng: &mut Rng, vals: &[i64], ends: &[usize], mix: u8) -> ColumnStats {
    let mut s = ColumnStats::new();
    let mut from = 0;
    for &end in ends {
        let block = &vals[from..end];
        let by_runs = match mix % 3 {
            0 => false,
            1 => true,
            _ => rng.below(2) == 0,
        };
        if by_runs {
            s.update_runs(&as_runs(rng, block));
        } else {
            s.update(block);
        }
        from = end;
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases(256)))]

    #[test]
    fn statistics_match_the_value_by_value_definition(
        shape in any::<u8>(),
        seed in any::<u64>(),
        mix in any::<u8>(),
    ) {
        let mut rng = Rng(seed | 1);
        let (vals, forced) = column(shape, &mut rng);
        let ends = cuts(&mut rng, vals.len(), forced);
        let stats = fold(&mut rng, &vals, &ends, mix);
        prop_assert_eq!(observed(&stats), model(&vals));
    }
}

/// Every limit shape, every fold, in one block and in many.
#[test]
fn the_dictionary_limit_is_met_exactly_and_passed_by_one() {
    for shape in 8..=10u8 {
        for seed in 1..4u64 {
            let mut rng = Rng((seed * 0x9E37_79B9_7F4A_7C15) | 1);
            let (vals, _) = column(shape, &mut rng);
            let want = model(&vals);
            let whole = [vals.len()];
            let blocks: Vec<usize> = (1024..vals.len())
                .step_by(1024)
                .chain([vals.len()])
                .collect();
            for ends in [&whole[..], &blocks[..]] {
                for mix in 0..3 {
                    let got = observed(&fold(&mut rng, &vals, ends, mix));
                    assert_eq!(got, want, "shape {shape}, seed {seed}, mix {mix}");
                }
            }
        }
    }
}

/// An empty fold and empty blocks change nothing.
#[test]
fn empty_blocks_are_no_ops() {
    let mut s = ColumnStats::new();
    s.update(&[]);
    s.update_runs(&[]);
    s.update_runs(&[(5, 0)]);
    assert_eq!(s.count, 0);
    assert_eq!(s.cardinality(), Some(0));
    s.update(&[3, 3]);
    s.update(&[]);
    s.update_runs(&[(3, 0), (3, 2)]);
    assert_eq!(observed(&s), model(&[3, 3, 3, 3]));
}
