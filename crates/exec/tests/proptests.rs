//! Property tests for the execution engine: operators must agree with
//! naive reference implementations on arbitrary inputs, and the
//! decompression-join operators must be exact row-level equivalents of
//! their scan-based counterparts.

include!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/common/proptest_env.rs"
));

use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;
use tde_exec::aggregate::{AggSpec, HashAggregate, OrderedAggregate};
use tde_exec::expr::{AggFunc, CmpOp, Expr};
use tde_exec::filter::Filter;
use tde_exec::index_table::index_table;
use tde_exec::indexed_scan::IndexedScan;
use tde_exec::scan::TableScan;
use tde_exec::sort::{Sort, SortOrder};
use tde_exec::topn::TopN;
use tde_exec::{drain, BoxOp};
use tde_storage::{Column, ColumnBuilder, EncodingPolicy, Table};
use tde_types::{DataType, Width};

fn table_of(cols: Vec<(&str, Vec<i64>)>) -> Arc<Table> {
    let built = cols
        .into_iter()
        .map(|(name, vals)| {
            let mut b = ColumnBuilder::new(name, DataType::Integer, EncodingPolicy::default());
            b.append_raw(&vals);
            b.finish().column
        })
        .collect();
    Arc::new(Table::new("t", built))
}

fn rle_table_of(
    runs: &[(i64, u64)],
    payload: impl Fn(usize) -> i64,
) -> (Arc<Table>, Vec<i64>, Vec<i64>) {
    let mut key_data = Vec::new();
    for &(v, c) in runs {
        key_data.extend(std::iter::repeat_n(v.rem_euclid(100), c as usize));
    }
    let pay: Vec<i64> = (0..key_data.len()).map(payload).collect();
    let mut key = tde_encodings::EncodedStream::new_rle(Width::W8, true, Width::W4, Width::W1);
    for c in key_data.chunks(tde_encodings::BLOCK_SIZE) {
        key.append_block(c).unwrap();
    }
    let pay_stream = tde_encodings::dynamic::encode_all(&pay, Width::W8, true).stream;
    let t = Arc::new(Table::new(
        "t",
        vec![
            Column::scalar("key", DataType::Integer, key),
            Column::scalar("pay", DataType::Integer, pay_stream),
        ],
    ));
    (t, key_data, pay)
}

fn rows_of(op: BoxOp) -> Vec<Vec<i64>> {
    let mut out = Vec::new();
    for b in drain(op) {
        for r in 0..b.len {
            out.push(b.columns.iter().map(|c| c[r]).collect());
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases(24)))]

    #[test]
    fn scan_emits_exact_values(data in vec(any::<i64>(), 1..3000)) {
        let t = table_of(vec![("a", data.clone())]);
        let rows = rows_of(Box::new(TableScan::new(t)));
        let got: Vec<i64> = rows.iter().map(|r| r[0]).collect();
        prop_assert_eq!(got, data);
    }

    #[test]
    fn sort_is_a_permutation_in_order(data in vec(-500i64..500, 1..3000)) {
        let t = table_of(vec![("a", data.clone())]);
        let rows = rows_of(Box::new(Sort::new(
            Box::new(TableScan::new(t)),
            vec![(0, SortOrder::Asc)],
        )));
        let got: Vec<i64> = rows.iter().map(|r| r[0]).collect();
        let mut expect = data;
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn topn_equals_sort_head(data in vec(-500i64..500, 1..2000), n in 1usize..50) {
        let t = table_of(vec![("a", data.clone())]);
        let top = rows_of(Box::new(TopN::new(
            Box::new(TableScan::new(t)),
            vec![(0, SortOrder::Asc)],
            n,
        )));
        let mut expect = data;
        expect.sort_unstable();
        expect.truncate(n);
        let got: Vec<i64> = top.iter().map(|r| r[0]).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn filter_conjunction_matches_reference(
        data in vec(-50i64..50, 1..2500),
        lo in -50i64..0,
        hi in 0i64..50,
    ) {
        let t = table_of(vec![("a", data.clone())]);
        let pred = Expr::And(
            Box::new(Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::int(lo))),
            Box::new(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(hi))),
        );
        let rows = rows_of(Box::new(Filter::new(Box::new(TableScan::new(t)), pred)));
        let expect: Vec<i64> = data.into_iter().filter(|&v| v >= lo && v < hi).collect();
        let got: Vec<i64> = rows.iter().map(|r| r[0]).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn hash_and_ordered_aggregate_agree_on_grouped_input(
        runs in vec((0i64..30, 1u64..100), 1..40),
    ) {
        // Grouped (sorted) input: both aggregation flavours must agree.
        let mut sorted_runs: Vec<(i64, u64)> = runs;
        sorted_runs.sort_by_key(|r| r.0);
        let (t, _, _) = rle_table_of(&sorted_runs, |i| (i as i64 * 37) % 1000);
        let specs = vec![
            AggSpec::new(AggFunc::Count, 1, "n"),
            AggSpec::new(AggFunc::Sum, 1, "s"),
            AggSpec::new(AggFunc::Min, 1, "lo"),
            AggSpec::new(AggFunc::Max, 1, "hi"),
        ];
        let mut hashed = rows_of(Box::new(HashAggregate::new(
            Box::new(TableScan::new(t.clone())),
            vec![0],
            specs.clone(),
        )));
        hashed.sort_by_key(|r| r[0]);
        let ordered = rows_of(Box::new(OrderedAggregate::new(
            Box::new(TableScan::new(t)),
            vec![0],
            specs,
        )));
        prop_assert_eq!(hashed, ordered);
    }

    #[test]
    fn indexed_scan_equals_row_filter(
        runs in vec((0i64..100, 1u64..300), 1..30),
        threshold in 0i64..100,
    ) {
        let mut sorted_runs: Vec<(i64, u64)> = runs;
        sorted_runs.sort_by_key(|r| r.0);
        let (t, key_data, pay) = rle_table_of(&sorted_runs, |i| (i as i64).wrapping_mul(31) % 777);
        let (idx, _) = index_table(&t.columns[0], "idx");
        let inner = Filter::new(
            Box::new(TableScan::new(idx)),
            Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(threshold)),
        );
        let scan = IndexedScan::new(Box::new(inner), t, &["pay"]);
        let got = rows_of(Box::new(scan));
        let expect: Vec<(i64, i64)> = key_data
            .iter()
            .zip(&pay)
            .filter(|(&k, _)| k > threshold)
            .map(|(&k, &p)| (k, p))
            .collect();
        prop_assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(&expect) {
            prop_assert_eq!((g[0], g[1]), *e);
        }
    }

    #[test]
    fn value_sorted_indexed_scan_is_sorted_and_complete(
        runs in vec((0i64..40, 1u64..200), 1..30),
    ) {
        let (t, key_data, _) = rle_table_of(&runs, |_| 0);
        let (idx, _) = index_table(&t.columns[0], "idx");
        let sorted = Sort::new(Box::new(TableScan::new(idx)), vec![(0, SortOrder::Asc)]);
        let scan = IndexedScan::new(Box::new(sorted), t, &[]);
        let got: Vec<i64> = rows_of(Box::new(scan)).iter().map(|r| r[0]).collect();
        let mut expect = key_data;
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }
}

// ---------------------------------------------------------------------
// The aggregation core against a row loop
// ---------------------------------------------------------------------

mod agg_core {
    use std::collections::HashMap;
    use std::sync::Arc;
    use tde_encodings::ColumnMetadata;
    use tde_exec::aggregate::{AggCore, AggSpec};
    use tde_exec::expr::AggFunc;
    use tde_exec::hash::{packed_slot, HashStrategy};
    use tde_exec::{Block, Field, Repr, Schema, BLOCK_ROWS};
    use tde_types::sentinel::{is_null_real, null_real, NULL_I64};
    use tde_types::DataType;

    /// The dictionary behind the dictionary-domain value column.
    pub const DICT: [i64; 5] = [5, -3, NULL_I64, 40, 7];

    /// Packed keys that start their probe at the same slot in every
    /// open-addressed table of up to 2^12 slots.
    pub fn colliding_keys() -> Vec<i64> {
        let target = packed_slot(0, 64 - 12);
        (0..1i64 << 20)
            .filter(|&k| packed_slot(k as u64, 64 - 12) == target)
            .take(64)
            .collect()
    }

    fn field(name: &str, dtype: DataType, repr: Repr, range: Option<(i64, i64)>) -> Field {
        let mut metadata = ColumnMetadata::unknown();
        if let Some((lo, hi)) = range {
            metadata.min = Some(lo);
            metadata.max = Some(hi);
        }
        Field {
            name: name.into(),
            dtype,
            repr,
            metadata,
        }
    }

    /// Two key columns whose metadata picks `strategy`, then integer,
    /// real and dictionary-coded value columns.
    pub fn schema(strategy: HashStrategy) -> Schema {
        let key_range = match strategy {
            HashStrategy::Direct64K => Some((0, 255)),
            HashStrategy::Perfect => Some((0, 1 << 20)),
            HashStrategy::Collision => None,
        };
        Schema::new(vec![
            field("k0", DataType::Integer, Repr::Scalar, key_range),
            field("k1", DataType::Integer, Repr::Scalar, Some((0, 3))),
            field("vi", DataType::Integer, Repr::Scalar, None),
            field("vr", DataType::Real, Repr::Scalar, None),
            field(
                "vd",
                DataType::Integer,
                Repr::DictIndex(Arc::new(DICT.to_vec()), None),
                None,
            ),
        ])
    }

    /// Every function over every value column; `real_sum` keeps the
    /// order-dependent Real sum, which partials cannot merge exactly.
    pub fn aggs(real_sum: bool) -> Vec<AggSpec> {
        let mut out = vec![AggSpec::new(AggFunc::Count, 2, "n")];
        for col in 2..5 {
            for func in [AggFunc::Sum, AggFunc::Min, AggFunc::Max] {
                if real_sum || (func, col) != (AggFunc::Sum, 3) {
                    out.push(AggSpec::new(func, col, format!("{func:?}{col}")));
                }
            }
        }
        out
    }

    pub fn blocks(rows: &[[i64; 5]]) -> Vec<Block> {
        rows.chunks(BLOCK_ROWS)
            .map(|chunk| {
                Block::new(
                    (0..5)
                        .map(|c| chunk.iter().map(|r| r[c]).collect())
                        .collect(),
                )
            })
            .collect()
    }

    pub fn rows_of(blocks: Vec<Block>) -> Vec<Vec<i64>> {
        blocks
            .iter()
            .flat_map(|b| (0..b.len).map(move |r| b.columns.iter().map(|c| c[r]).collect()))
            .collect()
    }

    /// Fold every block into one partial and finish it.
    pub fn serial(core: &AggCore, blocks: &[Block]) -> Vec<Vec<i64>> {
        let mut p = core.start();
        for b in blocks {
            core.fold_block(&mut p, b);
        }
        rows_of(core.finish(p))
    }

    /// The row loop: groups on the first `width` columns in
    /// first-occurrence order, every aggregate folded a row at a time
    /// with the engine's NULL and Real rules. Without keys every row is
    /// in the one group, which exists even when there are no rows.
    pub fn reference(rows: &[[i64; 5]], width: usize, aggs: &[AggSpec]) -> Vec<Vec<i64>> {
        let mut ids: HashMap<&[i64], usize> = HashMap::new();
        let mut keys: Vec<&[i64]> = Vec::new();
        // Per group, per aggregate: (value, non-NULL count).
        let mut accs: Vec<Vec<(i64, i64)>> = Vec::new();
        if width == 0 {
            ids.insert(&[], 0);
            keys.push(&[]);
            accs.push(vec![(0, 0); aggs.len()]);
        }
        for row in rows {
            let key = &row[..width];
            let g = *ids.entry(key).or_insert_with(|| {
                keys.push(key);
                accs.push(vec![(0, 0); aggs.len()]);
                keys.len() - 1
            });
            for (a, spec) in aggs.iter().enumerate() {
                let acc = &mut accs[g][a];
                let raw = row[spec.col];
                if spec.func == AggFunc::Count {
                    acc.1 += 1;
                    continue;
                }
                let raw = if spec.col == 4 && raw != NULL_I64 {
                    DICT[raw as usize]
                } else {
                    raw
                };
                if spec.col == 3 {
                    let x = f64::from_bits(raw as u64);
                    if is_null_real(x) {
                        continue;
                    }
                    let a = f64::from_bits(acc.0 as u64);
                    let keep = match spec.func {
                        _ if acc.1 == 0 => x,
                        AggFunc::Sum => a + x,
                        AggFunc::Min if x < a => x,
                        AggFunc::Max if x > a => x,
                        _ => a,
                    };
                    *acc = (keep.to_bits() as i64, acc.1 + 1);
                } else if raw != NULL_I64 {
                    let v = match spec.func {
                        _ if acc.1 == 0 => raw,
                        AggFunc::Sum => acc.0.wrapping_add(raw),
                        AggFunc::Min => acc.0.min(raw),
                        _ => acc.0.max(raw),
                    };
                    *acc = (v, acc.1 + 1);
                }
            }
        }
        keys.iter()
            .zip(&accs)
            .map(|(key, acc)| {
                let mut out = key.to_vec();
                out.extend(aggs.iter().zip(acc).map(|(spec, &(v, n))| match spec.func {
                    AggFunc::Count => n,
                    _ if n > 0 => v,
                    _ if spec.col == 3 => null_real().to_bits() as i64,
                    _ => NULL_I64,
                }));
                out
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases(24)))]

    #[test]
    fn agg_core_folds_columns_like_the_row_loop(
        strategy in 0usize..3,
        rows in vec(((0usize..400, 0i64..4), (-60i64..50, -60i64..50, 0i64..6)), 0..3000),
        cuts in vec(0usize..3000, 0..4),
    ) {
        use agg_core::*;
        use tde_exec::aggregate::AggCore;
        use tde_exec::hash::HashStrategy;
        use tde_types::sentinel::{null_real, NULL_I64};

        let strategy = [HashStrategy::Direct64K, HashStrategy::Perfect, HashStrategy::Collision][strategy];
        let crafted = colliding_keys();
        let rows: Vec<[i64; 5]> = rows
            .iter()
            .map(|&((k, k1), (vi, vr, vd))| {
                let k0 = match strategy {
                    HashStrategy::Direct64K => (k % 200) as i64,
                    // Half the keys probe from one shared slot.
                    HashStrategy::Perfect if k < 200 => crafted[k % crafted.len()],
                    HashStrategy::Perfect => (k as i64 * 7919) % (1 << 20),
                    HashStrategy::Collision => (k as i64).wrapping_mul(1_000_000_007),
                };
                // Near both ends of the range, so sums wrap.
                let vi = match vi {
                    v if v < -50 => NULL_I64,
                    49 => i64::MAX - 1,
                    48 => i64::MIN + 1,
                    v => v,
                };
                let vr = match vr {
                    v if v < -50 => null_real().to_bits() as i64,
                    // Both zeros: equal as reals, different as bits.
                    0 => (-0.0f64).to_bits() as i64,
                    1 => 0.0f64.to_bits() as i64,
                    v => (v as f64 / 4.0).to_bits() as i64,
                };
                // Code 5 is past the dictionary: a join's injected NULL.
                let vd = if vd == 5 { NULL_I64 } else { vd };
                [k0, k1, vi, vr, vd]
            })
            .collect();
        let schema = schema(strategy);
        // Grouped on both keys, and the grand total, which hashes nothing.
        for (keys, real_sum) in [(2, true), (2, false), (0, true), (0, false)] {
            let aggs = aggs(real_sum);
            let core = AggCore::hash(&schema, (0..keys).collect(), aggs.clone());
            prop_assert_eq!(core.strategy(), (keys > 0).then_some(strategy));
            let expect = reference(&rows, keys, &aggs);
            let got = serial(&core, &blocks(&rows));
            prop_assert_eq!(&got, &expect);
            // The shortest inputs: a total's group exists before its
            // first row and takes that row's value as is.
            for n in 0..3 {
                let head = &rows[..n.min(rows.len())];
                prop_assert_eq!(serial(&core, &blocks(head)), reference(head, keys, &aggs));
            }
            // Value columns NULL throughout: only `COUNT` sees a row.
            let nulls: Vec<[i64; 5]> = rows
                .iter()
                .map(|r| [r[0], r[1], NULL_I64, null_real().to_bits() as i64, NULL_I64])
                .collect();
            prop_assert_eq!(serial(&core, &blocks(&nulls)), reference(&nulls, keys, &aggs));
            if real_sum {
                continue;
            }
            // Morsel split: fold each slice alone, hand over without the
            // index, absorb in input order.
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(rows.len())).collect();
            cuts.push(0);
            cuts.push(rows.len());
            cuts.sort_unstable();
            let mut merged = core.start();
            for w in cuts.windows(2) {
                let mut p = core.start();
                for b in blocks(&rows[w[0]..w[1]]) {
                    core.fold_block(&mut p, &b);
                }
                core.absorb(&mut merged, p.without_index());
            }
            prop_assert_eq!(rows_of(core.finish(merged)), expect);
        }
    }
}
