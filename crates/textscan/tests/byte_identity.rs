//! Byte identity of the import path.
//!
//! Import speed work must not move a single encoding decision or output
//! byte. The table at the bottom pins, per column of five seeded imports,
//! the algorithm, the physical size, the mid-load re-encoding count and the
//! FNV-1a-64 of the encoded stream plus the string heap. `Real` columns are
//! pinned on algorithm, size and re-encodings only: their payload depends on
//! the rounding of the decimal parser, not on the encoder.
//!
//! When an encoding *policy* change moves these on purpose, the failure
//! message prints the whole actual table as source; paste it over `PINNED`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use tde_datagen::tpch::TpchTable;
use tde_textscan::{import_bytes, ImportOptions};
use tde_types::datetime::ymd_from_days;
use tde_types::DataType;

fn fnv1a64(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The first `rows` lines of `text`.
fn head_lines(text: &[u8], rows: usize) -> &[u8] {
    let end = text
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .nth(rows - 1)
        .map(|(i, _)| i + 1)
        .expect("generated file is long enough");
    &text[..end]
}

fn scratch_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tde_byte_identity_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tpch_lineitem() -> Vec<u8> {
    let dir = scratch_dir();
    // The scale the repo benchmark uses for 40 000 base + 12 000 refresh rows.
    let sf = 52_000.0 * 1.2 / 6_000_000.0;
    let path = tde_datagen::tpch::write_table(&dir, TpchTable::Lineitem, sf, 1).unwrap();
    let all = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    head_lines(&all, 40_000).to_vec()
}

fn flights() -> Vec<u8> {
    let path = scratch_dir().join("flights.csv");
    tde_datagen::flights::write_file(&path, 13_333, 1).unwrap();
    let all = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    all
}

enum Col {
    Int(Vec<i64>),
    Date(Vec<i64>),
    Str(Vec<i64>, Vec<String>),
}

/// Comma-separated text with a header line.
fn csv(cols: &[(String, Col)]) -> Vec<u8> {
    let rows = match &cols[0].1 {
        Col::Int(v) | Col::Date(v) | Col::Str(v, _) => v.len(),
    };
    let mut out = String::new();
    let names: Vec<&str> = cols.iter().map(|(n, _)| n.as_str()).collect();
    out.push_str(&names.join(","));
    out.push('\n');
    for r in 0..rows {
        for (i, (_, c)) in cols.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match c {
                Col::Int(v) => write!(out, "{}", v[r]).unwrap(),
                Col::Date(v) => {
                    let (y, m, d) = ymd_from_days(v[r]);
                    write!(out, "{y:04}-{m:02}-{d:02}").unwrap();
                }
                Col::Str(v, domain) => out.push_str(&domain[v[r] as usize]),
            }
        }
        out.push('\n');
    }
    out.into_bytes()
}

fn draw(rng: &mut StdRng, rows: usize, mut f: impl FnMut(&mut StdRng) -> i64) -> Vec<i64> {
    (0..rows).map(|_| f(rng)).collect()
}

/// The benchmark's `decode_scan` shape: sorted-gap key, FoR at four
/// widths, a wide dictionary and two tiny string domains.
fn lineitem_shape(rows: usize) -> Vec<u8> {
    let rng = &mut StdRng::seed_from_u64(1);
    let mut key = 0i64;
    let orderkey = draw(rng, rows, |r| {
        key += r.gen_range(0..4);
        key
    });
    let suppkeys = (rows as i64 / 25).max(16);
    csv(&[
        ("orderkey".into(), Col::Int(orderkey)),
        (
            "quantity".into(),
            Col::Int(draw(rng, rows, |r| r.gen_range(1..=50))),
        ),
        (
            "discount".into(),
            Col::Int(draw(rng, rows, |r| r.gen_range(0..=10))),
        ),
        (
            "shipdate".into(),
            Col::Date(draw(rng, rows, |r| 8036 + r.gen_range(0..2526))),
        ),
        (
            "extendedprice".into(),
            Col::Int(draw(rng, rows, |r| r.gen_range(90_000..10_500_000))),
        ),
        (
            "suppkey".into(),
            Col::Int(draw(rng, rows, |r| r.gen_range(0..suppkeys) * 7919 + 13)),
        ),
        (
            "returnflag".into(),
            Col::Str(
                draw(rng, rows, |r| r.gen_range(0..3)),
                vec!["A".into(), "N".into(), "R".into()],
            ),
        ),
        (
            "linestatus".into(),
            Col::Str(
                draw(rng, rows, |r| r.gen_range(0..2)),
                vec!["F".into(), "O".into()],
            ),
        ),
    ])
}

/// The benchmark's `rle_dashboard` shape: two sorted run-length keys, an
/// affine id and a sparse 16-value dictionary column.
fn rle_shape(rows: usize) -> Vec<u8> {
    let runs = tde_datagen::rle::RleTable::generate(rows as u64, 2);
    let expand = |runs: Vec<(i64, u64)>| -> Vec<i64> {
        runs.into_iter()
            .flat_map(|(v, c)| std::iter::repeat_n(v, c as usize))
            .collect()
    };
    let rng = &mut StdRng::seed_from_u64(2 ^ 0xca7);
    csv(&[
        ("primary".into(), Col::Int(expand(runs.primary_runs()))),
        ("secondary".into(), Col::Int(expand(runs.secondary_runs()))),
        (
            "id".into(),
            Col::Int((0..rows as i64).map(|i| 1000 + 3 * i).collect()),
        ),
        (
            "cat".into(),
            Col::Int(draw(rng, rows, |r| r.gen_range(0..16) * 1_000_003)),
        ),
    ])
}

/// The benchmark's `paged_cold` shape: 48 columns cycling through eight
/// kinds of segment.
fn wide_shape(rows: usize) -> Vec<u8> {
    let rng = &mut StdRng::seed_from_u64(3);
    let cols: Vec<(String, Col)> = (0..48)
        .map(|i| {
            let salt = i as i64;
            let col = match i % 8 {
                0 => Col::Int(draw(rng, rows, |r| 100 * salt + r.gen_range(0..64))),
                1 => {
                    let mut k = salt;
                    Col::Int(draw(rng, rows, |r| {
                        k += r.gen_range(1..6);
                        k
                    }))
                }
                2 => Col::Int(draw(rng, rows, |r| r.gen_range(0..200) * 1_000_003 + salt)),
                3 => Col::Int((0..rows as i64).map(|r| (r / (48 + salt)) % 500).collect()),
                4 => Col::Int(draw(rng, rows, |r| r.gen_range(0..1 << 20))),
                5 => Col::Str(
                    draw(rng, rows, |r| r.gen_range(0..50)),
                    (0..50).map(|w| format!("w{i}_{w}")).collect(),
                ),
                6 => Col::Int(draw(rng, rows, |r| r.gen_range(0..4096))),
                _ => Col::Date(draw(rng, rows, |r| 8000 + r.gen_range(0..3000))),
            };
            (format!("c{i:02}"), col)
        })
        .collect();
    csv(&cols)
}

/// One column's pinned facts.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Pin {
    dataset: &'static str,
    column: String,
    real: bool,
    algorithm: &'static str,
    physical_size: usize,
    reencodings: u32,
    digest: u64,
}

fn observe(dataset: &'static str, text: &[u8], parallel: bool) -> Vec<Pin> {
    let options = ImportOptions {
        parallel,
        ..ImportOptions::default()
    };
    let r = import_bytes(text, &options).unwrap();
    assert_eq!(r.parse_errors, 0, "{dataset}");
    r.table
        .columns
        .iter()
        .zip(&r.reencodings)
        .map(|(c, (name, re))| {
            assert_eq!(&c.name, name);
            let real = c.dtype == DataType::Real;
            let mut digest = fnv1a64(c.data.as_bytes(), FNV_OFFSET);
            if let Some(heap) = c.heap() {
                digest = fnv1a64(heap.as_bytes(), digest);
            }
            Pin {
                dataset,
                column: c.name.clone(),
                real,
                algorithm: c.data.algorithm().name(),
                physical_size: c.data.physical_size(),
                reencodings: *re,
                // A Real column's payload is pinned by size only.
                digest: if real { 0 } else { digest },
            }
        })
        .collect()
}

fn as_source(pins: &[Pin]) -> String {
    let mut out = String::new();
    for p in pins {
        writeln!(
            out,
            "    (\"{}\", \"{}\", {}, \"{}\", {}, {}, 0x{:016x}),",
            p.dataset, p.column, p.real, p.algorithm, p.physical_size, p.reencodings, p.digest
        )
        .unwrap();
    }
    out
}

#[test]
fn imports_match_the_pinned_bytes() {
    let datasets: [(&'static str, Vec<u8>); 5] = [
        ("tpch_lineitem", tpch_lineitem()),
        ("flights", flights()),
        ("lineitem_shape", lineitem_shape(40_000)),
        ("rle_shape", rle_shape(40_000)),
        ("wide_shape", wide_shape(16_384)),
    ];
    let pinned: Vec<Pin> = PINNED
        .iter()
        .map(
            |&(dataset, column, real, algorithm, physical_size, reencodings, digest)| Pin {
                dataset,
                column: column.to_owned(),
                real,
                algorithm,
                physical_size,
                reencodings,
                digest,
            },
        )
        .collect();
    // Both settings of the option; imports this small run on the calling
    // thread either way, and `scan::tests::the_worker_count_does_not_show`
    // holds the bytes fixed across worker counts.
    for parallel in [false, true] {
        let actual: Vec<Pin> = datasets
            .iter()
            .flat_map(|(name, text)| observe(name, text, parallel))
            .collect();
        if actual != pinned {
            let moved: Vec<String> = actual
                .iter()
                .zip(&pinned)
                .filter(|(a, p)| a != p)
                .map(|(a, p)| format!("{}.{}: {p:?} -> {a:?}", a.dataset, a.column))
                .collect();
            panic!(
                "import output moved (parallel={parallel}), {} of {} columns:\n{}\n\nactual table:\n{}",
                moved.len().max(actual.len().abs_diff(pinned.len())),
                pinned.len(),
                moved.join("\n"),
                as_source(&actual)
            );
        }
    }
}

/// (dataset, column, is Real, algorithm, physical size, mid-load
/// re-encodings, FNV-1a-64 of stream + heap bytes; 0 for Real columns).
#[rustfmt::skip]
const PINNED: &[(&str, &str, bool, &str, usize, u32, u64)] = &[
    ("tpch_lineitem", "col_0", false, "delta", 15712, 0, 0x90f19cda06eb0d6c),
    ("tpch_lineitem", "col_1", false, "for", 61472, 2, 0x211adc2b395d338c),
    ("tpch_lineitem", "col_2", false, "for", 35872, 0, 0x282f54aebe7067f1),
    ("tpch_lineitem", "col_3", false, "for", 15392, 0, 0x820e5811b5c99596),
    ("tpch_lineitem", "col_4", false, "for", 30752, 0, 0xd047178e52ea1a13),
    ("tpch_lineitem", "col_5", true, "for", 281632, 3, 0x0000000000000000),
    ("tpch_lineitem", "col_6", true, "dict", 20640, 0, 0x0000000000000000),
    ("tpch_lineitem", "col_7", true, "dict", 20640, 0, 0x0000000000000000),
    ("tpch_lineitem", "col_8", false, "dict", 10304, 0, 0xa5ae4a4f83b4f1a0),
    ("tpch_lineitem", "col_9", false, "dict", 5168, 0, 0x525f517360ebfb29),
    ("tpch_lineitem", "col_10", false, "for", 61472, 3, 0x18e8b8d8d720d348),
    ("tpch_lineitem", "col_11", false, "for", 61472, 4, 0x0743e1be29e5d134),
    ("tpch_lineitem", "col_12", false, "for", 61472, 2, 0x13260bc11c551279),
    ("tpch_lineitem", "col_13", false, "dict", 10304, 0, 0x633300055cdcc058),
    ("tpch_lineitem", "col_14", false, "dict", 15456, 0, 0xe491d8918580b5ef),
    ("tpch_lineitem", "col_15", false, "for", 107552, 6, 0x5d9eb5ad59dfd6ce),
    ("flights", "flight_date", false, "delta", 1936, 0, 0xd9e8b89ab63f2bd7),
    ("flights", "carrier", false, "dict", 7328, 0, 0x42944fa7fb34720b),
    ("flights", "flight_num", false, "for", 23328, 3, 0xc8fcdf822b4f8367),
    ("flights", "tail_num", false, "for", 28704, 2, 0x2bc28fb9b766f4d6),
    ("flights", "origin", false, "dict", 11296, 0, 0xaae0cff47036c413),
    ("flights", "dest", false, "dict", 11296, 0, 0x531a8f8c0b59b8bf),
    ("flights", "crs_dep_time", false, "for", 19744, 0, 0x5ca63fd2a488905b),
    ("flights", "dep_delay", false, "for", 14368, 0, 0x2da57a723fca30c4),
    ("flights", "arr_delay", false, "for", 14368, 2, 0x8be27caaa7e14115),
    ("flights", "distance", false, "for", 21536, 1, 0xc072115af9b5c02f),
    ("flights", "cancelled", false, "rle", 1601, 0, 0x11db3f6afe28ab03),
    ("lineitem_shape", "orderkey", false, "delta", 10592, 0, 0xe32890ac53d8575f),
    ("lineitem_shape", "quantity", false, "for", 30752, 0, 0xaf28b5ddb85aef88),
    ("lineitem_shape", "discount", false, "for", 20512, 0, 0x0d6f8395bb65609e),
    ("lineitem_shape", "shipdate", false, "for", 61472, 2, 0x987a46e160f8e636),
    ("lineitem_shape", "extendedprice", false, "for", 122912, 4, 0x041d48abce4f378c),
    ("lineitem_shape", "suppkey", false, "dict", 72736, 0, 0x9cc986f27558bbdd),
    ("lineitem_shape", "returnflag", false, "dict", 10304, 0, 0x2ee4f27f0b57e77e),
    ("lineitem_shape", "linestatus", false, "dict", 5168, 0, 0xb918bf65bb5e2abd),
    ("rle_shape", "primary", false, "rle", 332, 0, 0x2cadaae634540086),
    ("rle_shape", "secondary", false, "rle", 20032, 0, 0xff5293d566cd615d),
    ("rle_shape", "id", false, "affine", 40, 0, 0x9255ee8b68cbefd4),
    ("rle_shape", "cat", false, "dict", 20640, 0, 0x555dd03d4762634e),
    ("wide_shape", "c00", false, "for", 12320, 0, 0x1f19093963174279),
    ("wide_shape", "c01", false, "delta", 6304, 0, 0x90693f53ab84f3d2),
    ("wide_shape", "c02", false, "dict", 18464, 0, 0x91d09a2029c74c5d),
    ("wide_shape", "c03", false, "rle", 998, 1, 0xf71654c7eb6e69bb),
    ("wide_shape", "c04", false, "for", 40992, 2, 0x1ead1dcbdf9cb28d),
    ("wide_shape", "c05", false, "dict", 12832, 0, 0x560947d0ff9dd32f),
    ("wide_shape", "c06", false, "for", 24608, 1, 0x82aaacf8219ca90f),
    ("wide_shape", "c07", false, "for", 24608, 1, 0xf0a135fd5a3b99d7),
    ("wide_shape", "c08", false, "for", 12320, 0, 0xd0343cfdb2d43e61),
    ("wide_shape", "c09", false, "delta", 6304, 0, 0x658c69d6244ee74e),
    ("wide_shape", "c10", false, "dict", 18464, 0, 0x6038303aa1a66afd),
    ("wide_shape", "c11", false, "rle", 866, 1, 0xa5a2fe6c015a782b),
    ("wide_shape", "c12", false, "for", 40992, 2, 0x74a1cbea4171b749),
    ("wide_shape", "c13", false, "dict", 12832, 0, 0xa0e1aa8129312f2c),
    ("wide_shape", "c14", false, "for", 24608, 4, 0xbae90708e78d99dc),
    ("wide_shape", "c15", false, "for", 24608, 1, 0xe76783afdfa5dd57),
    ("wide_shape", "c16", false, "for", 12320, 0, 0x16c93d0e27331e09),
    ("wide_shape", "c17", false, "delta", 6304, 0, 0x08dc698898b20631),
    ("wide_shape", "c18", false, "dict", 18464, 0, 0xaef54a45e631d56f),
    ("wide_shape", "c19", false, "rle", 767, 1, 0xc6bd49da6f63279c),
    ("wide_shape", "c20", false, "for", 40992, 3, 0x240b0cfd10fade82),
    ("wide_shape", "c21", false, "dict", 12832, 0, 0x51ecbf72f4ce2cdf),
    ("wide_shape", "c22", false, "for", 24608, 2, 0xe37f8ecf4555e25f),
    ("wide_shape", "c23", false, "for", 24608, 2, 0xad07bcb972644e87),
    ("wide_shape", "c24", false, "for", 12320, 0, 0x74e9f48010b97d87),
    ("wide_shape", "c25", false, "delta", 6304, 0, 0x9875d462413d1ff3),
    ("wide_shape", "c26", false, "dict", 18464, 0, 0x6734c103dc423062),
    ("wide_shape", "c27", false, "rle", 689, 1, 0x6a1173b421ee62c5),
    ("wide_shape", "c28", false, "for", 40992, 3, 0x6e9870311e7697eb),
    ("wide_shape", "c29", false, "dict", 12832, 0, 0x772d15f39fcfd808),
    ("wide_shape", "c30", false, "for", 24608, 3, 0xde9cf20622627fe6),
    ("wide_shape", "c31", false, "for", 24608, 1, 0x8965e4ebabb13076),
    ("wide_shape", "c32", false, "for", 12320, 0, 0x43a9c382e4a35429),
    ("wide_shape", "c33", false, "delta", 6304, 0, 0xe228153b60dad68c),
    ("wide_shape", "c34", false, "dict", 18464, 0, 0xeefa647b2b38033e),
    ("wide_shape", "c35", false, "rle", 626, 1, 0x76b6821e82062fcd),
    ("wide_shape", "c36", false, "for", 40992, 2, 0x7804c246557442ef),
    ("wide_shape", "c37", false, "dict", 12832, 0, 0xf530b0344ae8858f),
    ("wide_shape", "c38", false, "for", 24608, 0, 0xaf73bab51d14408e),
    ("wide_shape", "c39", false, "for", 24608, 2, 0xdd4d72fbe6304f22),
    ("wide_shape", "c40", false, "for", 12320, 0, 0xaaa7485e40a5013d),
    ("wide_shape", "c41", false, "delta", 6304, 0, 0xa07ed79ab8f40865),
    ("wide_shape", "c42", false, "dict", 18464, 0, 0x76db39e691dd62ef),
    ("wide_shape", "c43", false, "rle", 575, 1, 0x36db382d33001dac),
    ("wide_shape", "c44", false, "for", 40992, 4, 0xa8c44e8a57bade65),
    ("wide_shape", "c45", false, "dict", 12832, 0, 0x9905678dee97288f),
    ("wide_shape", "c46", false, "for", 24608, 1, 0x99f38da098cda95e),
    ("wide_shape", "c47", false, "for", 24608, 1, 0xd933e6db58913496),
];
