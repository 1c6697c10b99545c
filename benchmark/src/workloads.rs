//! The four analyst workloads: sizes, seeded data and seeded query lists.
//!
//! Every workload runs the same lifecycle (import → save → cold open →
//! queries → refresh → compact, see `driver`); they differ in the shape
//! of the data, the query mix and the cache sizing, and so in which layer
//! does the work. Sizes are constants, never tuned to the host.

use crate::data::{ColData, Dataset};
use crate::spec::QuerySpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::path::{Path, PathBuf};
use tde_datagen::tpch::TpchTable;
use tde_exec::expr::AggFunc::{Count, Max, Sum};
use tde_types::DataType;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DecodeScan,
    RleDashboard,
    PagedCold,
    ImportRefresh,
}

/// How much data a workload holds and how many operations one round of
/// its lifecycle issues.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Rows of the table the main queries scan.
    pub main_rows: usize,
    /// Rows of the flat file imported (and then refreshed) each round.
    pub life_rows: usize,
    /// Refresh batches per cycle, rows appended and ids deleted per batch.
    pub batches: usize,
    pub batch_rows: usize,
    pub batch_deletes: usize,
    /// Passes over the main query list per round.
    pub main_passes: usize,
    /// Import → save → cold open → refresh → compact cycles per round.
    pub cycles: usize,
    /// Fresh `open_with` + first query operations per cycle.
    pub cold_opens: usize,
}

/// The flat files of one round and the raw rows behind them.
pub struct Life {
    /// Base rows `0..life_rows`, then the rows the refresh appends.
    pub data: Dataset,
    /// The file holding the base rows, imported as table `data.name`.
    pub text_path: PathBuf,
    pub text_bytes: u64,
    /// Text bytes of the appended rows (the refresh's user bytes).
    pub appended_bytes: u64,
    /// Further files imported into the same extract.
    pub extra: Vec<ExtraFile>,
}

/// A flat file imported beside the refreshed table.
pub struct ExtraFile {
    pub table: String,
    pub path: PathBuf,
    pub bytes: u64,
    pub rows: u64,
}

const PAGED_COLS: usize = 48;
/// Distinct queries in the `paged_cold` mix.
const PAGED_QUERIES: usize = 40;
const SHIP_START: i64 = 8036; // 1992-01-02
const SHIP_DAYS: i64 = 2526;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DecodeScan,
        Workload::RleDashboard,
        Workload::PagedCold,
        Workload::ImportRefresh,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DecodeScan => "decode_scan",
            Workload::RleDashboard => "rle_dashboard",
            Workload::PagedCold => "paged_cold",
            Workload::ImportRefresh => "import_refresh",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn sizes(self, smoke: bool) -> Sizes {
        let full = match self {
            Workload::DecodeScan => Sizes {
                main_rows: 256 * 1024,
                life_rows: 64 * 1024,
                batches: 10,
                batch_rows: 2000,
                batch_deletes: 500,
                main_passes: 2,
                cycles: 3,
                cold_opens: 2,
            },
            Workload::RleDashboard => Sizes {
                main_rows: 4_000_000,
                life_rows: 64 * 1024,
                batches: 10,
                batch_rows: 2000,
                batch_deletes: 500,
                main_passes: 6,
                cycles: 5,
                cold_opens: 2,
            },
            Workload::PagedCold => Sizes {
                main_rows: 128 * 1024,
                life_rows: 16 * 1024,
                batches: 10,
                batch_rows: 500,
                batch_deletes: 100,
                main_passes: 2,
                cycles: 2,
                cold_opens: 4,
            },
            Workload::ImportRefresh => Sizes {
                main_rows: 40_000,
                life_rows: 40_000,
                batches: 6,
                batch_rows: 2000,
                batch_deletes: 500,
                main_passes: 0,
                cycles: 1,
                cold_opens: 2,
            },
        };
        if !smoke {
            return full;
        }
        Sizes {
            main_rows: (full.main_rows / 16).max(8 * 1024),
            life_rows: (full.life_rows / 8).max(4 * 1024),
            batches: 3,
            batch_rows: full.batch_rows / 4,
            batch_deletes: full.batch_deletes / 4,
            main_passes: full.main_passes.min(1),
            cycles: 1,
            cold_opens: 2,
        }
    }

    /// Whether the main queries go through a long-lived paged database
    /// whose pool holds a quarter of what they touch.
    pub fn main_is_paged(self) -> bool {
        self == Workload::PagedCold
    }

    /// The table the main queries scan; `None` when the workload queries
    /// the refreshed extract itself.
    pub fn main_data(self, seed: u64, sizes: &Sizes) -> Option<Dataset> {
        match self {
            Workload::DecodeScan => Some(lineitem_shape(seed, sizes.main_rows)),
            Workload::RleDashboard => Some(rle_shape(seed, sizes.main_rows, 0)),
            Workload::PagedCold => Some(wide_shape(seed, sizes.main_rows)),
            Workload::ImportRefresh => None,
        }
    }

    /// Write this round's flat files under `dir` and return their rows.
    pub fn life(self, seed: u64, sizes: &Sizes, dir: &Path) -> io::Result<Life> {
        let pool = sizes.batches * sizes.batch_rows;
        let total = sizes.life_rows + pool;
        let seed = seed ^ 0x5eed_11fe;
        let data = match self {
            Workload::DecodeScan => lineitem_shape(seed, total),
            Workload::RleDashboard => rle_shape(seed, sizes.life_rows, pool),
            Workload::PagedCold => wide_shape(seed, total),
            Workload::ImportRefresh => return tpch_life(seed, sizes, dir),
        };
        let text = data.csv(0..sizes.life_rows);
        let header = text.find('\n').map_or(0, |i| i + 1);
        let appended_bytes = (data.csv(sizes.life_rows..total).len() - header) as u64;
        let text_path = dir.join(format!("{}.csv", data.name));
        std::fs::write(&text_path, &text)?;
        Ok(Life {
            data,
            text_path,
            text_bytes: text.len() as u64,
            appended_bytes,
            extra: Vec::new(),
        })
    }

    /// The seeded main query list over `data` (the main table).
    pub fn main_queries(self, data: &Dataset, seed: u64) -> Vec<QuerySpec> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        match self {
            Workload::DecodeScan => decode_scan_queries(data, &mut rng),
            Workload::RleDashboard => rle_dashboard_queries(data, &mut rng),
            Workload::PagedCold => paged_cold_queries(data, &mut rng),
            Workload::ImportRefresh => Vec::new(),
        }
    }

    /// The two queries issued after every refresh batch and again after
    /// compaction, over the refreshed table. The first, over the main
    /// table, is also the query a cold open answers first.
    pub fn refresh_queries(self, life: &Dataset) -> [QuerySpec; 2] {
        match self {
            Workload::DecodeScan => [
                QuerySpec::new("by_flag", life, &["returnflag", "quantity"])
                    .group(&[0])
                    .agg(Sum, 1)
                    .agg(Count, 0),
                QuerySpec::new("ship_range", life, &["shipdate", "extendedprice"])
                    .pred(0, SHIP_START + 400, SHIP_START + 1400)
                    .agg(Count, 0)
                    .agg(Sum, 1),
            ],
            Workload::RleDashboard => [
                QuerySpec::new("fig10", life, &["primary", "secondary"])
                    .pred(0, 90, i64::MAX)
                    .group(&[0])
                    .agg(Max, 1),
                QuerySpec::new("run_agg", life, &["secondary", "primary"])
                    .pred(0, 17, 17)
                    .agg(Count, 0)
                    .agg(Sum, 1),
            ],
            Workload::PagedCold => [
                QuerySpec::new("by_word", life, &["c05", "c00"])
                    .group(&[0])
                    .agg(Sum, 1)
                    .agg(Count, 0),
                QuerySpec::new("range", life, &["c06", "c04"])
                    .pred(0, 2048, i64::MAX)
                    .agg(Count, 0)
                    .agg(Sum, 1),
            ],
            Workload::ImportRefresh => [
                QuerySpec::new("by_flag", life, &["col_8", "col_4"])
                    .group(&[0])
                    .agg(Sum, 1)
                    .agg(Count, 0),
                QuerySpec::new("ship_range", life, &["col_10", "col_5"])
                    .pred(0, SHIP_START + 400, SHIP_START + 1400)
                    .agg(Count, 0)
                    .agg(Sum, 1),
            ],
        }
    }

    /// The encodings the workload description promises for columns of the
    /// queried table, as (column, `Algorithm::name`); the determinism tests
    /// assert them so a workload cannot silently stop exercising its layer.
    pub fn promised_encodings(self) -> &'static [(&'static str, &'static str)] {
        match self {
            Workload::DecodeScan => &[
                ("orderkey", "delta"),
                ("quantity", "for"),
                ("discount", "for"),
                ("shipdate", "for"),
                ("extendedprice", "for"),
                ("suppkey", "dict"),
                ("returnflag", "dict"),
                ("linestatus", "dict"),
            ],
            Workload::RleDashboard => &[
                ("primary", "rle"),
                ("secondary", "rle"),
                ("id", "affine"),
                ("cat", "dict"),
            ],
            Workload::PagedCold => &[
                ("c00", "for"),
                ("c01", "delta"),
                ("c02", "dict"),
                ("c03", "rle"),
                ("c04", "for"),
                ("c05", "dict"),
            ],
            Workload::ImportRefresh => &[
                ("col_0", "delta"),
                ("col_4", "for"),
                ("col_8", "dict"),
                ("col_10", "for"),
            ],
        }
    }
}

fn draw(rng: &mut StdRng, rows: usize, mut f: impl FnMut(&mut StdRng) -> i64) -> Vec<i64> {
    (0..rows).map(|_| f(rng)).collect()
}

fn words(prefix: &str, n: usize) -> Vec<String> {
    (0..n).map(|i| format!("{prefix}{i}")).collect()
}

fn suppkey(i: i64) -> i64 {
    i * 7919 + 13
}

/// Distinct supplier keys of a lineitem-shaped table: 10 k at the full
/// 256 k rows, and in proportion at other sizes so the column stays
/// dictionary-encoded.
fn suppkeys(rows: usize) -> i64 {
    (rows as i64 / 25).max(16)
}

/// `decode_scan`: lineitem-shaped rows in random order apart from the
/// sorted-gap key, so nothing can be skipped and every encoding's decode
/// runs: delta, FoR at 6/4/12/24 bits, a 10 k-entry dictionary and two
/// heap-token columns.
fn lineitem_shape(seed: u64, rows: usize) -> Dataset {
    let rng = &mut StdRng::seed_from_u64(seed);
    let mut key = 0i64;
    let orderkey = draw(rng, rows, |r| {
        key += r.gen_range(0..4);
        key
    });
    Dataset::new(
        "lineitem",
        vec![
            ColData::scalar("orderkey", DataType::Integer, orderkey),
            ColData::scalar(
                "quantity",
                DataType::Integer,
                draw(rng, rows, |r| r.gen_range(1..=50)),
            ),
            ColData::scalar(
                "discount",
                DataType::Integer,
                draw(rng, rows, |r| r.gen_range(0..=10)),
            ),
            ColData::scalar(
                "shipdate",
                DataType::Date,
                draw(rng, rows, |r| SHIP_START + r.gen_range(0..SHIP_DAYS)),
            ),
            ColData::scalar(
                "extendedprice",
                DataType::Integer,
                draw(rng, rows, |r| r.gen_range(90_000..10_500_000)),
            ),
            ColData::scalar(
                "suppkey",
                DataType::Integer,
                draw(rng, rows, |r| suppkey(r.gen_range(0..suppkeys(rows)))),
            ),
            ColData::strs(
                "returnflag",
                draw(rng, rows, |r| r.gen_range(0..3)),
                vec!["A".into(), "N".into(), "R".into()],
            ),
            ColData::strs(
                "linestatus",
                draw(rng, rows, |r| r.gen_range(0..2)),
                vec!["F".into(), "O".into()],
            ),
        ],
    )
}

/// `rle_dashboard`: the paper's §5.3 table (two keys in `[0, 100)`, sorted
/// on both) plus an affine id and a 16-value dictionary column; `pool`
/// unsorted rows follow for the refresh to append.
fn rle_shape(seed: u64, rows: usize, pool: usize) -> Dataset {
    let runs = tde_datagen::rle::RleTable::generate(rows as u64, seed);
    let expand = |runs: Vec<(i64, u64)>| -> Vec<i64> {
        let mut out = Vec::with_capacity(rows + pool);
        for (v, c) in runs {
            out.extend(std::iter::repeat_n(v, c as usize));
        }
        out
    };
    let mut primary = expand(runs.primary_runs());
    let mut secondary = expand(runs.secondary_runs());
    let rng = &mut StdRng::seed_from_u64(seed ^ 0xca7);
    primary.extend(draw(rng, pool, |r| r.gen_range(0..100)));
    secondary.extend(draw(rng, pool, |r| r.gen_range(0..100)));
    let total = rows + pool;
    Dataset::new(
        "rle",
        vec![
            ColData::scalar("primary", DataType::Integer, primary),
            ColData::scalar("secondary", DataType::Integer, secondary),
            ColData::scalar(
                "id",
                DataType::Integer,
                (0..total as i64).map(|i| 1000 + 3 * i).collect(),
            ),
            ColData::scalar(
                "cat",
                DataType::Integer,
                draw(rng, total, |r| r.gen_range(0..16) * 1_000_003),
            ),
        ],
    )
}

/// `paged_cold`: 48 columns cycling through eight shapes (narrow FoR,
/// sorted-gap delta, sparse dictionary, runs, wide FoR, a 50-word string
/// heap, 12-bit FoR, dates), so a projection loads a mix of segment kinds.
fn wide_shape(seed: u64, rows: usize) -> Dataset {
    let rng = &mut StdRng::seed_from_u64(seed);
    let cols = (0..PAGED_COLS)
        .map(|i| {
            let name = format!("c{i:02}");
            let salt = i as i64;
            match i % 8 {
                0 => ColData::scalar(
                    &name,
                    DataType::Integer,
                    draw(rng, rows, |r| 100 * salt + r.gen_range(0..64)),
                ),
                1 => {
                    let mut k = salt;
                    ColData::scalar(
                        &name,
                        DataType::Integer,
                        draw(rng, rows, |r| {
                            k += r.gen_range(1..6);
                            k
                        }),
                    )
                }
                2 => ColData::scalar(
                    &name,
                    DataType::Integer,
                    draw(rng, rows, |r| r.gen_range(0..200) * 1_000_003 + salt),
                ),
                3 => ColData::scalar(
                    &name,
                    DataType::Integer,
                    (0..rows as i64).map(|r| (r / (48 + salt)) % 500).collect(),
                ),
                4 => ColData::scalar(
                    &name,
                    DataType::Integer,
                    draw(rng, rows, |r| r.gen_range(0..1 << 20)),
                ),
                5 => ColData::strs(
                    &name,
                    draw(rng, rows, |r| r.gen_range(0..50)),
                    words(&format!("w{i}_"), 50),
                ),
                6 => ColData::scalar(
                    &name,
                    DataType::Integer,
                    draw(rng, rows, |r| r.gen_range(0..4096)),
                ),
                _ => ColData::scalar(
                    &name,
                    DataType::Date,
                    draw(rng, rows, |r| 8000 + r.gen_range(0..3000)),
                ),
            }
        })
        .collect();
    Dataset::new("wide", cols)
}

/// `import_refresh`: `tde-datagen`'s TPC-H lineitem text — the base rows
/// go to the imported file, the following rows are what the refresh
/// appends — plus a Flights file imported into the same extract.
fn tpch_life(seed: u64, sizes: &Sizes, dir: &Path) -> io::Result<Life> {
    let total = sizes.life_rows + sizes.batches * sizes.batch_rows;
    // An order carries four lines on average and a scale factor 1.5 M
    // orders; a fifth more leaves room for the seed's luck.
    let sf = total as f64 * 1.2 / 6_000_000.0;
    let raw = tde_datagen::tpch::write_table(dir, TpchTable::Lineitem, sf, seed)?;
    let all = std::fs::read_to_string(&raw)?;
    std::fs::remove_file(&raw)?;
    let line_end = |n: usize| -> usize {
        all.match_indices('\n')
            .nth(n - 1)
            .map(|(i, _)| i + 1)
            .unwrap_or_else(|| panic!("lineitem at sf {sf} has fewer than {n} lines"))
    };
    let (base_end, total_end) = (line_end(sizes.life_rows), line_end(total));
    let schema: Vec<(String, DataType)> = TpchTable::Lineitem
        .schema()
        .iter()
        .enumerate()
        .map(|(i, (_, t))| (format!("col_{i}"), *t))
        .collect();
    let data = Dataset::parse("lineitem", &all[..total_end], '|', &schema);
    let text_path = dir.join("lineitem.tbl");
    std::fs::write(&text_path, &all[..base_end])?;
    let flights_rows = (sizes.life_rows / 3) as u64;
    let flights = tde_datagen::flights::write_file(dir.join("flights.csv"), flights_rows, seed)?;
    let flights_bytes = std::fs::metadata(&flights)?.len();
    Ok(Life {
        data,
        text_path,
        text_bytes: base_end as u64,
        appended_bytes: (total_end - base_end) as u64,
        extra: vec![ExtraFile {
            table: "flights".into(),
            path: flights,
            bytes: flights_bytes,
            rows: flights_rows,
        }],
    })
}

/// Q6-shape, Q1-shape, dictionary equality and a wide rollup, three
/// seeded instances each.
fn decode_scan_queries(data: &Dataset, rng: &mut StdRng) -> Vec<QuerySpec> {
    let mut out = Vec::new();
    for measure in ["quantity", "discount", "extendedprice"] {
        let d0 = SHIP_START + rng.gen_range(0..SHIP_DAYS - 400);
        let disc = rng.gen_range(2..=8);
        out.push(
            QuerySpec::new(
                "q6",
                data,
                &["shipdate", "discount", "quantity", "extendedprice"],
            )
            .pred(0, d0, d0 + 364)
            .pred(1, disc - 1, disc + 1)
            .pred(2, i64::MIN, 24)
            .agg(Sum, 3)
            .agg(Count, 0),
        );
        out.push(
            QuerySpec::new(
                "q1",
                data,
                &[
                    "returnflag",
                    "linestatus",
                    "quantity",
                    "extendedprice",
                    "discount",
                    "shipdate",
                ],
            )
            .pred(
                5,
                i64::MIN,
                SHIP_START + SHIP_DAYS - rng.gen_range(60..=120),
            )
            .group(&[0, 1])
            .agg(Sum, 2)
            .agg(Sum, 3)
            .agg(Max, 4)
            .agg(Count, 0),
        );
        let k = suppkey(rng.gen_range(0..suppkeys(data.rows)));
        out.push(
            QuerySpec::new("dict_eq", data, &["suppkey", "extendedprice"])
                .pred(0, k, k)
                .agg(Count, 0)
                .agg(Sum, 1),
        );
        out.push(
            QuerySpec::new("rollup", data, &["suppkey", measure])
                .group(&[0])
                .agg(Sum, 1),
        );
    }
    out
}

/// The Fig-10 query at four selectivities on both keys, run aggregates,
/// out-of-range filters the metadata answers, and closed-form ranges on
/// the affine id.
fn rle_dashboard_queries(data: &Dataset, rng: &mut StdRng) -> Vec<QuerySpec> {
    let mut out = Vec::new();
    for (key, other) in [("primary", "secondary"), ("secondary", "primary")] {
        for sel in [1, 5, 10, 25] {
            out.push(
                QuerySpec::new("fig10", data, &[key, other])
                    .pred(0, 100 - sel, i64::MAX)
                    .group(&[0])
                    .agg(Max, 1),
            );
        }
    }
    for _ in 0..3 {
        let v = rng.gen_range(0..100);
        out.push(
            QuerySpec::new("run_agg", data, &["secondary", "primary"])
                .pred(0, v, v)
                .agg(Count, 0)
                .agg(Sum, 1),
        );
        let lo = rng.gen_range(0..data.rows as i64 * 9 / 10);
        let span = 50_000;
        out.push(
            QuerySpec::new("affine_range", data, &["id", "cat"])
                .pred(0, 1000 + 3 * lo, 1000 + 3 * (lo + span))
                .group(&[1])
                .agg(Count, 0),
        );
    }
    out.push(
        QuerySpec::new("out_of_range", data, &["primary", "cat"])
            .pred(0, 500, i64::MAX)
            .group(&[1])
            .agg(Count, 0),
    );
    out.push(
        QuerySpec::new("out_of_range", data, &["secondary", "cat"])
            .pred(0, i64::MIN, -5)
            .group(&[1])
            .agg(Count, 0),
    );
    out
}

/// Forty queries, each projecting two or three columns drawn zipf(1.0)
/// over a ranking of the 48, so a few columns stay hot and the tail keeps
/// evicting them. The ranks drawn are the same for every seed and rank r
/// holds a column of shape r % 8, so the cost profile of the mix does
/// not depend on the seed; the seed picks which column of that shape
/// sits at the rank, and with it the data.
fn paged_cold_queries(data: &Dataset, seeded: &mut StdRng) -> Vec<QuerySpec> {
    let per_shape = PAGED_COLS / 8;
    let mut by_shape: Vec<Vec<usize>> = (0..8)
        .map(|k| (0..per_shape).map(|j| k + 8 * j).collect())
        .collect();
    for shape in &mut by_shape {
        for i in (1..per_shape).rev() {
            shape.swap(i, seeded.gen_range(0..=i));
        }
    }
    let ranking: Vec<usize> = (0..PAGED_COLS).map(|r| by_shape[r % 8][r / 8]).collect();
    let rng = &mut StdRng::seed_from_u64(0x21bf);
    let weights: Vec<f64> = (1..=PAGED_COLS).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    let zipf = |rng: &mut StdRng| -> usize {
        let mut x = rng.gen_range(0..1_000_000) as f64 / 1e6 * total;
        for (rank, w) in weights.iter().enumerate() {
            if x < *w {
                return ranking[rank];
            }
            x -= w;
        }
        ranking[PAGED_COLS - 1]
    };
    let is_str = |c: usize| data.cols[c].dtype == DataType::Str;
    (0..PAGED_QUERIES)
        .map(|q| {
            let a = zipf(rng);
            // Strings are only grouped by, never summed.
            let measure = |rng: &mut StdRng| loop {
                let c = zipf(rng);
                if c != a && !is_str(c) {
                    return c;
                }
            };
            let b = measure(rng);
            let third = (q % 2 == 0).then(|| measure(rng)).filter(|&c| c != b);
            let mut names = vec![data.cols[a].name.as_str(), data.cols[b].name.as_str()];
            names.extend(third.map(|c| data.cols[c].name.as_str()));
            let mut spec = if is_str(a) {
                QuerySpec::new("by_word", data, &names)
                    .group(&[0])
                    .agg(Sum, 1)
            } else {
                // Keep roughly the upper half of the column's values.
                let mut sample: Vec<i64> = data.cols[a].vals.iter().step_by(97).copied().collect();
                sample.sort_unstable();
                QuerySpec::new("half_range", data, &names)
                    .pred(0, sample[sample.len() / 2], i64::MAX)
                    .agg(Count, 0)
                    .agg(Sum, 1)
            };
            if third.is_some() {
                spec = spec.agg(Max, 2);
            }
            spec
        })
        .collect()
}
