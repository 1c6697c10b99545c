//! Seeded case generation.
//!
//! `generate(seed)` deterministically produces one [`CaseSpec`]. Data
//! distributions are biased toward the shapes that pick each encoder —
//! runs (RLE), dense ascending ranges (affine, the fetch-join triple),
//! affine sequences with stride, small domains (dictionary), wide random
//! values (raw), NULL-heavy columns (sentinel paths) — and string columns
//! exercise the heap accelerator, §3.4.3 heap sorting and token-0 NULLs.
//! Plans stack filter/project/aggregate/sort with nested predicates; the
//! strategic optimizer turns eligible shapes into invisible joins,
//! IndexTable scans and kernel pushdowns, which is where the differential
//! oracles do their work.

use crate::spec::{
    AggKind, CaseSpec, ColDtype, ColumnData, ColumnSpec, DeltaOpSpec, LitSpec, PlanOpSpec, Policy,
    PredSpec,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use tde_exec::expr::CmpOp;

pub(crate) const WORDS: &[&str] = &[
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliet",
    "kilo", "lima", "mike", "november", "oscar", "papa", "quebec", "romeo", "sierra", "tango",
];

/// Generate the case for `seed`. Always produces a spec that passes
/// [`CaseSpec::validate`].
pub fn generate(seed: u64) -> CaseSpec {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7de_f022);
    // A share of seeds, drawn from a stream of their own so the others
    // generate unchanged: every column in long runs and an aggregate on
    // top — the shape whose scan hands the aggregate run-carrying blocks.
    let runs_only = StdRng::seed_from_u64(seed ^ 0x5e9_4a11).gen_bool(0.3);
    let rows = if runs_only {
        rng.gen_range(200..=3000)
    } else {
        pick_rows(&mut rng)
    };
    let ncols = rng.gen_range(1..=4usize);
    let columns: Vec<ColumnSpec> = (0..ncols)
        .map(|i| {
            if runs_only {
                gen_run_column(&mut rng, i, rows)
            } else {
                gen_column(&mut rng, i, rows)
            }
        })
        .collect();
    let mut schema: Vec<ColDtype> = columns.iter().map(ColumnSpec::dtype).collect();

    let mut plan = Vec::new();
    // 0–2 leading row-level operators.
    for _ in 0..rng.gen_range(0..=2usize) {
        if rng.gen_bool(0.7) {
            plan.push(PlanOpSpec::Filter(gen_pred(&mut rng, &columns, &schema, 0)));
        } else {
            let keep = rng.gen_range(1..=schema.len());
            let mut cols: Vec<usize> = (0..schema.len()).collect();
            shuffle(&mut rng, &mut cols);
            cols.truncate(keep);
            schema = cols.iter().map(|&c| schema[c]).collect();
            plan.push(PlanOpSpec::Project(cols));
        }
    }
    if runs_only || rng.gen_bool(0.55) {
        let ints: Vec<usize> = (0..schema.len())
            .filter(|&c| schema[c] == ColDtype::Int)
            .collect();
        let mut group_by = Vec::new();
        for _ in 0..rng.gen_range(0..=2usize) {
            let g = rng.gen_range(0..schema.len());
            if !group_by.contains(&g) {
                group_by.push(g);
            }
        }
        let mut aggs = Vec::new();
        for k in 0..rng.gen_range(1..=3usize) {
            let name = format!("a{k}");
            if ints.is_empty() || rng.gen_bool(0.3) {
                aggs.push((AggKind::Count, rng.gen_range(0..schema.len()), name));
            } else {
                let kind = [AggKind::Sum, AggKind::Min, AggKind::Max][rng.gen_range(0..3usize)];
                aggs.push((kind, ints[rng.gen_range(0..ints.len())], name));
            }
        }
        let nout = group_by.len() + aggs.len();
        let mut next: Vec<ColDtype> = group_by.iter().map(|&g| schema[g]).collect();
        next.extend(std::iter::repeat_n(ColDtype::Int, aggs.len()));
        plan.push(PlanOpSpec::Aggregate { group_by, aggs });
        schema = next;
        debug_assert_eq!(schema.len(), nout);
    }
    if rng.gen_bool(0.45) {
        let mut keys = Vec::new();
        for _ in 0..rng.gen_range(1..=2usize) {
            let c = rng.gen_range(0..schema.len());
            if !keys.iter().any(|&(k, _)| k == c) {
                keys.push((c, rng.gen_bool(0.7)));
            }
        }
        plan.push(PlanOpSpec::Sort(keys));
    }

    let base_schema: Vec<ColDtype> = columns.iter().map(ColumnSpec::dtype).collect();
    let tlp = Some(gen_pred(&mut rng, &columns, &base_schema, 0));
    let delta = gen_delta(&mut rng);

    let spec = CaseSpec {
        seed,
        columns,
        plan,
        delta,
        tlp,
        inject: None,
    };
    debug_assert!(spec.validate().is_ok(), "{:?}", spec.validate());
    spec
}

/// ~45% of cases get a 1–4 op buffered-mutation interleaving for the
/// delta oracle. Appends are mostly small but occasionally large enough
/// to straddle the execution block boundary inside the delta itself;
/// deletes hit both sides of the base/delta id split (ids wrap modulo
/// the live id space at replay time); a compaction mid-sequence
/// exercises re-encoding and row-id renumbering under later ops.
fn gen_delta(rng: &mut StdRng) -> Vec<DeltaOpSpec> {
    if !rng.gen_bool(0.45) {
        return Vec::new();
    }
    (0..rng.gen_range(1..=4usize))
        .map(|_| match rng.gen_range(0..10u32) {
            0..=4 => DeltaOpSpec::Append {
                count: if rng.gen_bool(0.85) {
                    rng.gen_range(1..=30)
                } else {
                    rng.gen_range(900..=1300)
                },
                salt: rng.gen_range(0..1_000_000u64),
            },
            5..=7 => DeltaOpSpec::Delete {
                start: rng.gen_range(0..2000u64),
                step: rng.gen_range(1..=7u64),
                count: rng.gen_range(1..=40usize),
            },
            _ => DeltaOpSpec::Compact,
        })
        .collect()
}

fn pick_rows(rng: &mut StdRng) -> usize {
    match rng.gen_range(0..100u32) {
        0..=1 => 0,
        2..=4 => 1,
        5..=29 => rng.gen_range(2..=40),
        30..=69 => rng.gen_range(41..=400),
        // Straddle the encoding/execution block boundary.
        _ => rng.gen_range(900..=1400),
    }
}

fn gen_column(rng: &mut StdRng, i: usize, rows: usize) -> ColumnSpec {
    let name = format!("c{i}");
    let is_str = rng.gen_bool(0.35);
    let null_p = match rng.gen_range(0..10u32) {
        0..=4 => 0.0,
        5..=7 => 0.05,
        _ => 0.35,
    };
    if is_str {
        let data = gen_strs(rng, rows, null_p);
        let policy = if rng.gen_bool(0.8) {
            Policy::Default
        } else {
            [Policy::NoSortHeaps, Policy::NoConvert, Policy::InnerSide][rng.gen_range(0..3usize)]
        };
        ColumnSpec {
            name,
            policy,
            array: false,
            data: ColumnData::Strs(data),
        }
    } else {
        let (data, small_domain) = gen_ints(rng, rows, null_p);
        let policy = match rng.gen_range(0..10u32) {
            0 => Policy::Baseline,
            1 => Policy::NoConvert,
            2 => Policy::InnerSide,
            _ => Policy::Default,
        };
        // Array conversion only fires on dictionary-encoded results;
        // request it mostly where a small domain makes that likely.
        let array = policy != Policy::Baseline && small_domain && rng.gen_bool(0.5);
        ColumnSpec {
            name,
            policy,
            array,
            data: ColumnData::Ints(data),
        }
    }
}

/// A column in runs long enough that the encoder stores it run-length:
/// integers over a small domain (sometimes with NULL runs, sometimes near
/// `i64::MAX` so sums wrap), or strings over a few words. Runs of 50 and
/// more, some straddling the 1024-row block, in different lengths per
/// column so their boundaries rarely meet — and at least three of them
/// (one run would be stored affine).
fn gen_run_column(rng: &mut StdRng, i: usize, rows: usize) -> ColumnSpec {
    let max_run = [120, 600, 2500][rng.gen_range(0..3usize)]
        .min(rows / 3)
        .max(50);
    let run = |rng: &mut StdRng, out_len: usize| rng.gen_range(50..=max_run).min(rows - out_len);
    let data = if rng.gen_bool(0.15) {
        let domain = rng.gen_range(1..=4usize);
        let mut out: Vec<Option<String>> = Vec::with_capacity(rows);
        while out.len() < rows {
            let w = WORDS[rng.gen_range(0..domain)];
            let n = run(rng, out.len());
            out.extend(std::iter::repeat_n(Some(w.to_string()), n));
        }
        ColumnData::Strs(out)
    } else {
        let base = if rng.gen_bool(0.2) {
            i64::MAX - 8
        } else {
            rng.gen_range(-50..=50i64)
        };
        let null_p = [0.0, 0.0, 0.2][rng.gen_range(0..3usize)];
        let mut out = Vec::with_capacity(rows);
        while out.len() < rows {
            let v = (!rng.gen_bool(null_p)).then(|| base + rng.gen_range(0..=5i64));
            let n = run(rng, out.len());
            out.extend(std::iter::repeat_n(v, n));
        }
        ColumnData::Ints(out)
    };
    ColumnSpec {
        name: format!("c{i}"),
        policy: Policy::Default,
        array: false,
        data,
    }
}

fn gen_ints(rng: &mut StdRng, rows: usize, null_p: f64) -> (Vec<Option<i64>>, bool) {
    let pattern = rng.gen_range(0..7u32);
    let mut out = Vec::with_capacity(rows);
    let mut small_domain = false;
    match pattern {
        // Runs: few values held for long stretches (RLE / IndexTable).
        0 => {
            let domain = rng.gen_range(1..=6i64);
            let base = rng.gen_range(-50..=50i64);
            let mut v = base + rng.gen_range(0..domain);
            while out.len() < rows {
                let run = rng.gen_range(1..=60usize).min(rows - out.len());
                for _ in 0..run {
                    out.push(Some(v));
                }
                v = base + rng.gen_range(0..domain);
            }
            small_domain = true;
        }
        // Dense ascending: the fetch-join triple (dense, unique, sorted).
        1 => {
            let base = rng.gen_range(-100..=1000i64);
            out.extend((0..rows as i64).map(|i| Some(base + i)));
        }
        // Affine with stride.
        2 => {
            let base = rng.gen_range(-1000..=1000i64);
            let delta = rng.gen_range(-9..=9i64);
            out.extend((0..rows as i64).map(|i| Some(base + delta * i)));
        }
        // Small uniform domain (dictionary / array compression).
        3 => {
            let domain = rng.gen_range(1..=16i64);
            let base = rng.gen_range(-20..=20i64);
            out.extend((0..rows).map(|_| Some(base + rng.gen_range(0..domain))));
            small_domain = true;
        }
        // Wide random values (raw encoding, negative extremes).
        4 => {
            out.extend((0..rows).map(|_| Some(rng.gen_range(i64::MIN + 1..=i64::MAX))));
        }
        // Sorted with repeats (ordered aggregation, delta encoding).
        5 => {
            let mut v = rng.gen_range(-100..=100i64);
            for _ in 0..rows {
                out.push(Some(v));
                if rng.gen_bool(0.4) {
                    v += rng.gen_range(0..=5i64);
                }
            }
        }
        // Mostly NULL.
        _ => {
            out.extend((0..rows).map(|_| {
                if rng.gen_bool(0.8) {
                    None
                } else {
                    Some(rng.gen_range(-5..=5i64))
                }
            }));
            small_domain = true;
        }
    }
    if null_p > 0.0 {
        for v in &mut out {
            if rng.gen_bool(null_p) {
                *v = None;
            }
        }
    }
    (out, small_domain)
}

fn gen_strs(rng: &mut StdRng, rows: usize, null_p: f64) -> Vec<Option<String>> {
    let pattern = rng.gen_range(0..4u32);
    let mut out = Vec::with_capacity(rows);
    match pattern {
        // Runs of a few words.
        0 => {
            let domain = rng.gen_range(1..=5usize);
            while out.len() < rows {
                let w = WORDS[rng.gen_range(0..domain)];
                let run = rng.gen_range(1..=40usize).min(rows - out.len());
                for _ in 0..run {
                    out.push(Some(w.to_string()));
                }
            }
        }
        // Small uniform domain — arrives unsorted, so §3.4.3 heap
        // sorting remaps the tokens.
        1 => {
            let domain = rng.gen_range(2..=WORDS.len());
            out.extend((0..rows).map(|_| Some(WORDS[rng.gen_range(0..domain)].to_string())));
        }
        // Many distinct values (suffixed words): large unsorted heap.
        2 => {
            out.extend(
                (0..rows)
                    .map(|i| Some(format!("{}{}", WORDS[rng.gen_range(0..WORDS.len())], i / 2))),
            );
        }
        // Already sorted (fortuitous sortedness path).
        _ => {
            let domain = rng.gen_range(1..=WORDS.len());
            let mut picks: Vec<&str> = (0..rows).map(|_| WORDS[rng.gen_range(0..domain)]).collect();
            picks.sort_unstable();
            out.extend(picks.into_iter().map(|w| Some(w.to_string())));
        }
    }
    if null_p > 0.0 {
        for v in &mut out {
            if rng.gen_bool(null_p) {
                *v = None;
            }
        }
    }
    out
}

/// A literal drawn from the column's own data (so predicates hit), with
/// occasional off-by-noise and NULL literals.
fn gen_lit(rng: &mut StdRng, col: &ColumnSpec) -> LitSpec {
    if rng.gen_bool(0.06) {
        return LitSpec::Null;
    }
    match &col.data {
        ColumnData::Ints(v) => {
            let present: Vec<i64> = v.iter().filter_map(|x| *x).collect();
            if present.is_empty() || rng.gen_bool(0.15) {
                LitSpec::Int(rng.gen_range(-100..=100))
            } else {
                let x = present[rng.gen_range(0..present.len())];
                LitSpec::Int(x.saturating_add(rng.gen_range(-2..=2)))
            }
        }
        ColumnData::Strs(v) => {
            let present: Vec<&String> = v.iter().filter_map(|x| x.as_ref()).collect();
            if present.is_empty() || rng.gen_bool(0.15) {
                LitSpec::Str(WORDS[rng.gen_range(0..WORDS.len())].to_string())
            } else {
                LitSpec::Str(present[rng.gen_range(0..present.len())].clone())
            }
        }
    }
}

/// Generate a predicate over `schema`. Plan-level schemas past a project
/// no longer line up with base columns, so literal sampling falls back to
/// the base column with the same index when one exists.
fn gen_pred(rng: &mut StdRng, columns: &[ColumnSpec], schema: &[ColDtype], depth: u32) -> PredSpec {
    if depth < 2 && rng.gen_bool(0.35) {
        let a = Box::new(gen_pred(rng, columns, schema, depth + 1));
        let b = Box::new(gen_pred(rng, columns, schema, depth + 1));
        return match rng.gen_range(0..3u32) {
            0 => PredSpec::And(a, b),
            1 => PredSpec::Or(a, b),
            _ => PredSpec::Not(a),
        };
    }
    let col = rng.gen_range(0..schema.len());
    if rng.gen_bool(0.12) {
        return PredSpec::IsNull(col);
    }
    let op = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ][rng.gen_range(0..6usize)];
    // Sample a type-compatible literal: from the matching base column if
    // its type lines up, else a constant of the right type.
    let lit = match columns.get(col) {
        Some(c) if c.dtype() == schema[col] => gen_lit(rng, c),
        _ => match schema[col] {
            ColDtype::Int => LitSpec::Int(rng.gen_range(-100..=100)),
            ColDtype::Str => LitSpec::Str(WORDS[rng.gen_range(0..WORDS.len())].to_string()),
        },
    };
    PredSpec::Cmp(op, col, lit)
}

fn shuffle(rng: &mut StdRng, v: &mut [usize]) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_valid() {
        for seed in 0..50 {
            let a = generate(seed);
            let b = generate(seed);
            assert_eq!(a, b);
            a.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            // And survives a text roundtrip.
            let back = CaseSpec::parse(&a.to_text()).unwrap();
            assert_eq!(a, back);
        }
    }

    #[test]
    fn generation_covers_the_interesting_shapes() {
        let mut str_cols = 0;
        let mut with_agg = 0;
        let mut with_nulls = 0;
        let mut empty = 0;
        let mut with_delta = 0;
        let mut with_compact = 0;
        for seed in 0..200 {
            let s = generate(seed);
            with_delta += (!s.delta.is_empty()) as usize;
            with_compact += s.delta.iter().any(|op| matches!(op, DeltaOpSpec::Compact)) as usize;
            str_cols += s
                .columns
                .iter()
                .filter(|c| c.dtype() == ColDtype::Str)
                .count();
            with_agg +=
                s.plan
                    .iter()
                    .any(|op| matches!(op, PlanOpSpec::Aggregate { .. })) as usize;
            with_nulls += s.columns.iter().any(|c| match &c.data {
                ColumnData::Ints(v) => v.iter().any(Option::is_none),
                ColumnData::Strs(v) => v.iter().any(Option::is_none),
            }) as usize;
            empty += (s.rows() == 0) as usize;
        }
        assert!(str_cols > 30, "string columns: {str_cols}");
        assert!(with_agg > 50, "plans with aggregate: {with_agg}");
        assert!(with_nulls > 40, "cases with NULLs: {with_nulls}");
        assert!(empty >= 1, "empty tables: {empty}");
        assert!(with_delta > 50, "cases with delta ops: {with_delta}");
        assert!(with_compact > 5, "cases with a compaction: {with_compact}");
    }
}
