//! The layer ladder: each rung times calls into one layer's public
//! functions and reports rows (or bytes) per second of busy time.
//!
//! Kernel-level rungs (bit-unpack, per-encoding decode and predicate
//! kernels, encode, builders, checksum, hash aggregation, index scans)
//! run over a seeded [`Fixture`] with one column per encoding, the same
//! construction in every workload, because no single workload holds every
//! encoding. Scan, pipeline, import and pager rungs run over the
//! workload's own table, predicate and files.

use crate::driver::Ctx;
use crate::spec::QuerySpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::sync::Arc;
use std::time::Instant;
use tde_encodings::kernel::{PredicateKernel, ValueSet};
use tde_encodings::{bitpack, EncodedStream, BLOCK_SIZE};
use tde_exec::aggregate::{AggSpec, HashAggregate, OrderedAggregate};
use tde_exec::expr::AggFunc;
use tde_exec::filter::Filter;
use tde_exec::flow_table::{build_from_blocks, FlowTableOptions};
use tde_exec::index_table::index_table;
use tde_exec::indexed_scan::IndexedScan;
use tde_exec::scan::TableScan;
use tde_exec::{count_rows, BoxOp, Operator};
use tde_pager::{PagedDatabase, PoolConfig};
use tde_storage::{ColumnBuilder, EncodingPolicy, Table};
use tde_textscan::{ImportOptions, ScanMode};
use tde_types::{DataType, Width};

const WIDTHS: [(u8, &str); 5] = [
    (4, "encodings.unpack_w04_gb_per_s"),
    (6, "encodings.unpack_w06_gb_per_s"),
    (12, "encodings.unpack_w12_gb_per_s"),
    (20, "encodings.unpack_w20_gb_per_s"),
    (32, "encodings.unpack_w32_gb_per_s"),
];

/// (`Algorithm::name`, decode rung, kernel rung) of every encoding.
const ENCODINGS: [(&str, &str, &str); 5] = [
    (
        "for",
        "encodings.decode_for_mrows_per_s",
        "encodings.kernel_for_mrows_per_s",
    ),
    (
        "delta",
        "encodings.decode_delta_mrows_per_s",
        "encodings.kernel_delta_mrows_per_s",
    ),
    (
        "dict",
        "encodings.decode_dict_mrows_per_s",
        "encodings.kernel_dict_mrows_per_s",
    ),
    (
        "rle",
        "encodings.decode_rle_mrows_per_s",
        "encodings.kernel_rle_mrows_per_s",
    ),
    (
        "affine",
        "encodings.decode_affine_mrows_per_s",
        "encodings.kernel_affine_mrows_per_s",
    ),
];

/// One column per encoding, plus grouping keys of 6 and 10 k values.
pub struct Fixture {
    rows: usize,
    /// (encoding, raw values, encoded stream, a ~10 % selective set).
    encoded: Vec<(&'static str, Vec<i64>, EncodedStream, ValueSet)>,
    /// (bits, values, packed bytes).
    packed: Vec<(u8, Vec<u64>, Vec<u8>)>,
    table: Arc<Table>,
    strings: Vec<String>,
    bytes: Vec<u8>,
}

fn secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

fn per_s(amount: f64, scale: f64, f: impl FnOnce()) -> f64 {
    amount / scale / secs(f)
}

impl Fixture {
    pub fn new(seed: u64, smoke: bool) -> Fixture {
        let rows = if smoke { 32 * 1024 } else { 256 * 1024 };
        let rng = &mut StdRng::seed_from_u64(seed ^ 0x001a_dde2);
        let mut draw = |f: &mut dyn FnMut(&mut StdRng) -> i64| -> Vec<i64> {
            (0..rows).map(|_| f(rng)).collect()
        };
        let mut key = 0i64;
        let raws: Vec<(&'static str, Vec<i64>, ValueSet)> = vec![
            (
                "for",
                draw(&mut |r| 1000 + r.gen_range(0..64)),
                ValueSet::from_intervals(vec![(1000, 1005)]),
            ),
            (
                "delta",
                draw(&mut |r| {
                    key += r.gen_range(1..6);
                    key
                }),
                ValueSet::from_intervals(vec![(rows as i64 / 4, rows as i64 / 2)]),
            ),
            (
                "dict",
                draw(&mut |r| r.gen_range(0..1000) * 1_000_003),
                ValueSet::from_intervals(vec![(0, 99 * 1_000_003)]),
            ),
            (
                "rle",
                (0..rows as i64).map(|i| i / 1500).collect(),
                ValueSet::from_intervals(vec![(10, 10 + rows as i64 / 15_000)]),
            ),
            (
                "affine",
                (0..rows as i64).map(|i| 1000 + 3 * i).collect(),
                ValueSet::from_intervals(vec![(1000, 1000 + 3 * rows as i64 / 10)]),
            ),
        ];
        let encoded: Vec<_> = raws
            .into_iter()
            .map(|(name, raw, set)| {
                let stream = tde_encodings::dynamic::encode_all(&raw, Width::W8, true).stream;
                assert_eq!(
                    stream.algorithm().name(),
                    name,
                    "fixture column {name} must encode as {name}"
                );
                (name, raw, stream, set)
            })
            .collect();
        let packed = WIDTHS
            .iter()
            .map(|&(bits, _)| {
                let values: Vec<u64> = (0..rows).map(|_| rng.gen_range(0..1u64 << bits)).collect();
                let mut bytes = Vec::new();
                bitpack::pack(&values, bits, &mut bytes);
                (bits, values, bytes)
            })
            .collect();
        let column = |name: &str, vals: &[i64]| {
            let mut b = ColumnBuilder::new(name, DataType::Integer, EncodingPolicy::default());
            b.append_raw(vals);
            b.finish().column
        };
        let g6: Vec<i64> = (0..rows).map(|_| rng.gen_range(0..6)).collect();
        let g10k: Vec<i64> = (0..rows).map(|_| rng.gen_range(0..10_000) * 7919).collect();
        let v: Vec<i64> = (0..rows).map(|_| rng.gen_range(0..1 << 20)).collect();
        let table = Arc::new(Table::new(
            "fixture",
            vec![
                column("rle", &encoded[3].1),
                column("g6", &g6),
                column("g10k", &g10k),
                column("v", &v),
            ],
        ));
        let strings = (0..rows)
            .map(|_| format!("string-{:05}", rng.gen_range(0..5000)))
            .collect();
        let bytes = (0..if smoke { 4 << 20 } else { 32 << 20 })
            .map(|i: usize| (i * 31 % 251) as u8)
            .collect();
        Fixture {
            rows,
            encoded,
            packed,
            table,
            strings,
            bytes,
        }
    }

    /// One pass over the fixture rungs: (metric, value).
    pub fn pass(&self, out: &mut Vec<(&'static str, f64)>) {
        let rows = self.rows as f64;
        // A touched destination: the rung is the copy, not the page faults.
        let mut dst = self.bytes.clone();
        out.push((
            "host.memcpy_gb_per_s",
            per_s(self.bytes.len() as f64, 1e9, || {
                dst.copy_from_slice(&self.bytes);
                std::hint::black_box(&dst);
            }),
        ));
        out.push((
            "io.checksum_gb_per_s",
            per_s(self.bytes.len() as f64, 1e9, || {
                std::hint::black_box(tde_io::checksum(&self.bytes));
            }),
        ));

        let mut unpacked: Vec<u64> = Vec::with_capacity(self.rows);
        for ((bits, _, bytes), (_, name)) in self.packed.iter().zip(WIDTHS) {
            unpacked.clear();
            // Stated in bytes of unpacked output, the side that dominates
            // the memory traffic and is the same for every width.
            out.push((
                name,
                per_s(rows * 8.0, 1e9, || {
                    bitpack::unpack(bytes, *bits, self.rows, &mut unpacked);
                    std::hint::black_box(&unpacked);
                }),
            ));
        }
        let (_, values, _) = &self.packed[2];
        let mut packed = Vec::new();
        out.push((
            "encodings.pack_gb_per_s",
            per_s(rows * 8.0, 1e9, || {
                bitpack::pack(values, 12, &mut packed);
                std::hint::black_box(&packed);
            }),
        ));

        let mut decoded: Vec<i64> = Vec::with_capacity(BLOCK_SIZE);
        for (name, _, stream, set) in &self.encoded {
            let decode = secs(|| {
                for b in 0..stream.block_count() {
                    decoded.clear();
                    stream.decode_block(b, &mut decoded);
                    std::hint::black_box(&decoded);
                }
            });
            let kernel = secs(|| {
                let mut selected = 0usize;
                match PredicateKernel::build(stream, set) {
                    Some(mut k) => {
                        for b in 0..stream.block_count() {
                            let n = BLOCK_SIZE.min(self.rows - b * BLOCK_SIZE);
                            selected += k.eval_block(stream, b, n).selected(n);
                        }
                    }
                    // No compressed-domain answer for this shape: what a
                    // scan then does is decode and test every value.
                    None => {
                        for b in 0..stream.block_count() {
                            decoded.clear();
                            stream.decode_block(b, &mut decoded);
                            selected += decoded.iter().filter(|v| set.contains(**v)).count();
                        }
                    }
                }
                std::hint::black_box(selected);
            });
            let (_, d, k) = ENCODINGS
                .iter()
                .find(|e| e.0 == *name)
                .expect("every fixture column is a ladder encoding");
            out.push((*d, rows / 1e6 / decode));
            out.push((*k, rows / 1e6 / kernel));
        }

        let encode = secs(|| {
            for (_, raw, _, _) in &self.encoded {
                std::hint::black_box(tde_encodings::dynamic::encode_all(raw, Width::W8, true));
            }
        });
        out.push((
            "encodings.encode_mrows_per_s",
            rows * self.encoded.len() as f64 / 1e6 / encode,
        ));
        let build = secs(|| {
            for (name, raw, _, _) in &self.encoded {
                let mut b = ColumnBuilder::new(*name, DataType::Integer, EncodingPolicy::default());
                b.append_raw(raw);
                std::hint::black_box(b.finish());
            }
        });
        out.push((
            "storage.column_build_mrows_per_s",
            rows * self.encoded.len() as f64 / 1e6 / build,
        ));
        out.push((
            "storage.string_build_mrows_per_s",
            per_s(rows, 1e6, || {
                let mut b = ColumnBuilder::new("s", DataType::Str, EncodingPolicy::default());
                for s in &self.strings {
                    b.append_str(Some(s));
                }
                std::hint::black_box(b.finish());
            }),
        ));

        let scan = |cols: &[&str]| -> BoxOp {
            Box::new(TableScan::project(Arc::clone(&self.table), cols, false))
        };
        let sum = || vec![AggSpec::new(AggFunc::Sum, 1, "s")];
        for (name, key) in [
            ("exec.hash_agg_small_mrows_per_s", "g6"),
            ("exec.hash_agg_large_mrows_per_s", "g10k"),
        ] {
            out.push((
                name,
                per_s(rows, 1e6, || {
                    let agg = HashAggregate::new(scan(&[key, "v"]), vec![0], sum());
                    std::hint::black_box(count_rows(Box::new(agg)));
                }),
            ));
        }
        out.push((
            "exec.ordered_agg_mrows_per_s",
            per_s(rows, 1e6, || {
                let agg = OrderedAggregate::new(scan(&["rle", "v"]), vec![0], sum());
                std::hint::black_box(count_rows(Box::new(agg)));
            }),
        ));
        out.push((
            "exec.indexed_scan_mrows_per_s",
            per_s(rows, 1e6, || {
                let rle = self.table.column("rle").expect("fixture column");
                let (index, _) = index_table(rle, "rle_index");
                let scan = IndexedScan::new(
                    Box::new(TableScan::new(index)),
                    Arc::clone(&self.table),
                    &["v"],
                );
                std::hint::black_box(count_rows(Box::new(scan)));
            }),
        ));
    }
}

/// The workload's single-column predicate query: its projection and
/// predicate drive the scan and pipeline rungs.
fn probe(ctx: &Ctx) -> &QuerySpec {
    &ctx.batches[0].queries[1].spec
}

fn drain_rows(mut op: impl Operator) -> u64 {
    let mut n = 0;
    while let Some(b) = op.next_block() {
        n += b.len as u64;
    }
    n
}

/// One pass over the rungs that run on the workload's own data.
pub fn workload_pass(ctx: &Ctx, out: &mut Vec<(&'static str, f64)>) -> io::Result<()> {
    let table = &ctx.main_table;
    let rows = table.row_count() as f64;
    out.push((
        "exec.scan_eager_mrows_per_s",
        per_s(rows, 1e6, || {
            std::hint::black_box(drain_rows(TableScan::new(Arc::clone(table))));
        }),
    ));
    let spec = probe(ctx);
    let names: Vec<&str> = spec.columns.iter().map(String::as_str).collect();
    let pred = spec.predicate().expect("the probe query has a predicate");
    let project = || TableScan::project(Arc::clone(table), &names, false);
    for (name, fallback) in [
        ("exec.scan_pushed_mrows_per_s", false),
        ("exec.scan_fallback_mrows_per_s", true),
    ] {
        out.push((
            name,
            per_s(rows, 1e6, || {
                std::hint::black_box(drain_rows(project().with_pushed(pred.clone(), fallback)));
            }),
        ));
    }
    out.push((
        "exec.filter_agg_mrows_per_s",
        per_s(rows, 1e6, || {
            let filter = Filter::new(Box::new(project()), pred.clone());
            let aggs = vec![
                AggSpec::new(AggFunc::Count, 0, "n"),
                AggSpec::new(AggFunc::Sum, 1, "s"),
            ];
            std::hint::black_box(drain_rows(HashAggregate::new(
                Box::new(filter),
                vec![],
                aggs,
            )));
        }),
    ));

    let cold_names: Vec<&str> = ctx
        .cold_query
        .spec
        .columns
        .iter()
        .map(String::as_str)
        .collect();
    let db = PagedDatabase::open_with(&ctx.main_file, PoolConfig::default())?;
    let paged = db
        .table(&table.name)
        .ok_or_else(|| io::Error::other("table missing from the directory"))?;
    for name in [
        "exec.scan_paged_cold_mrows_per_s",
        "exec.scan_paged_warm_mrows_per_s",
    ] {
        let t0 = Instant::now();
        let n = drain_rows(TableScan::paged(&paged, &cold_names, false)?);
        out.push((name, n as f64 / 1e6 / t0.elapsed().as_secs_f64()));
    }

    let mut all = TableScan::new(Arc::clone(table));
    let schema = all.schema().clone();
    let mut blocks = Vec::new();
    while let Some(b) = all.next_block() {
        blocks.push(b);
    }
    out.push((
        "exec.flow_table_mrows_per_s",
        per_s(rows, 1e6, || {
            std::hint::black_box(build_from_blocks(
                &schema,
                &blocks,
                "rebuilt",
                FlowTableOptions::default(),
            ));
        }),
    ));
    drop(blocks);

    // The Fig-4 ladder over the workload's own flat file.
    let text = &ctx.text_path;
    let mb = ctx.text_bytes as f64 / 1e6;
    let t0 = Instant::now();
    tde_textscan::read_bandwidth(text)?;
    out.push((
        "textscan.read_gb_per_s",
        mb / 1e3 / t0.elapsed().as_secs_f64(),
    ));
    let t0 = Instant::now();
    tde_textscan::tokenize(text)?;
    out.push((
        "textscan.tokenize_mb_per_s",
        mb / t0.elapsed().as_secs_f64(),
    ));
    let split_dir = ctx.dir.join("split");
    let t0 = Instant::now();
    tde_textscan::split(text, &split_dir)?;
    out.push(("textscan.split_mb_per_s", mb / t0.elapsed().as_secs_f64()));
    std::fs::remove_dir_all(&split_dir)?;
    for (name, mode) in [
        ("textscan.import_scalars_mb_per_s", ScanMode::Scalars),
        ("textscan.import_all_mb_per_s", ScanMode::All),
    ] {
        let options = ImportOptions {
            mode,
            ..ImportOptions::default()
        };
        let t0 = Instant::now();
        let text = std::fs::read(text)?;
        let imported = tde_textscan::import_bytes(&text, &options)?;
        out.push((name, mb / t0.elapsed().as_secs_f64()));
        if mode == ScanMode::All {
            let total: u32 = imported.reencodings.iter().map(|r| r.1).sum();
            out.push((
                "encodings.reencodings_per_column",
                total as f64 / imported.reencodings.len().max(1) as f64,
            ));
        }
    }
    Ok(())
}
