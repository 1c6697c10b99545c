//! The import leg: TextScan under two oracles.
//!
//! 1. **Structured.** A seeded table is rendered as flat text with the
//!    variations real files show — any of the four separators, header or
//!    not, CRLF or LF, a trailing separator, short rows, empty fields,
//!    space-padded numbers, unparsable cells, a missing final newline, a
//!    single line, a string column carrying invalid UTF-8 — and imported
//!    with `parallel` on and off under both parser families. A row-loop
//!    reference importer (split the line, `str::parse` the field; NULL on
//!    empty; NULL and an error on unparsable) must agree cell for cell
//!    and on the error count. The reference takes separator, header and
//!    column types from the import's own inference: what is under test is
//!    the scan, not the sniffing heuristics. (Inputs this small run on
//!    the calling thread under either `parallel` setting, so the toggle
//!    covers the option's plumbing; that the worker count does not show
//!    in the output is `tde_textscan::scan`'s own unit test.)
//! 2. **Arbitrary bytes.** `import_bytes` returns a table or an
//!    `io::Error`, never panics, and every column has `row_count` values.
//!
//! Failing inputs are deterministic in the seed; raw inputs worth keeping
//! live under `tests/fuzz_corpus/import/`.

use crate::oracle::{panic_message, Discrepancy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tde_textscan::{import_bytes, ImportOptions, ImportResult, ParserKind, ScanMode};
use tde_types::datetime::{days_from_ymd, days_in_month, ymd_from_days};
use tde_types::{DataType, Value};

// ---------------------------------------------------------------------
// The reference importer.
// ---------------------------------------------------------------------

/// The lines of `data`: terminated by `\n` (a `\r` before it dropped), a
/// final unterminated line kept as it is.
fn reference_lines(data: &[u8]) -> Vec<&[u8]> {
    let mut lines: Vec<&[u8]> = data.split(|&b| b == b'\n').collect();
    let unterminated = lines.pop().filter(|l| !l.is_empty());
    for line in &mut lines {
        if let [head @ .., b'\r'] = *line {
            *line = head;
        }
    }
    lines.extend(unterminated);
    lines
}

fn trim_spaces(field: &[u8]) -> &[u8] {
    let from = field.iter().position(|&b| b != b' ').unwrap_or(field.len());
    let to = field
        .iter()
        .rposition(|&b| b != b' ')
        .map_or(from, |p| p + 1);
    &field[from..to]
}

fn reference_date(text: &str) -> Option<i64> {
    let sep = if text.contains('/') { '/' } else { '-' };
    let parts: Vec<&str> = text.split(sep).collect();
    let [y, m, d] = parts[..] else { return None };
    if (y.len(), m.len(), d.len()) != (4, 2, 2)
        || !text.bytes().all(|b| b.is_ascii_digit() || b == sep as u8)
    {
        return None;
    }
    let (y, m, d): (i32, u32, u32) = (y.parse().ok()?, m.parse().ok()?, d.parse().ok()?);
    ((1..=12).contains(&m) && d >= 1 && d <= days_in_month(y, m)).then(|| days_from_ymd(y, m, d))
}

/// One cell the way the paper's row-at-a-time baseline would read it:
/// `Ok(Null)` for an empty field, `Err` for an unparsable one.
fn reference_cell(field: &[u8], dtype: DataType) -> Result<Value, ()> {
    if dtype == DataType::Str {
        return match field {
            [] => Ok(Value::Null),
            _ => std::str::from_utf8(field)
                .map(|s| Value::Str(s.to_owned()))
                .map_err(|_| ()),
        };
    }
    let field = trim_spaces(field);
    if field.is_empty() {
        return Ok(Value::Null);
    }
    let text = std::str::from_utf8(field).map_err(|_| ())?;
    match dtype {
        DataType::Integer => text.parse().map(Value::Int).map_err(|_| ()),
        DataType::Real => text.parse().map(Value::Real).map_err(|_| ()),
        DataType::Date => reference_date(text).map(Value::Date).ok_or(()),
        DataType::Bool => match text {
            "true" | "TRUE" | "True" | "t" | "T" => Ok(Value::Bool(true)),
            "false" | "FALSE" | "False" | "f" | "F" => Ok(Value::Bool(false)),
            _ => Err(()),
        },
        DataType::Timestamp => {
            let (date, time) = text.split_once([' ', 'T']).ok_or(())?;
            let days = reference_date(date).ok_or(())?;
            let hms: Vec<&str> = time.split(':').collect();
            let [h, m, s] = hms[..] else { return Err(()) };
            if time.len() != 8 || !time.bytes().all(|b| b.is_ascii_digit() || b == b':') {
                return Err(());
            }
            let num = |t: &str| t.parse::<i64>().map_err(|_| ());
            let (h, m, s) = (num(h)?, num(m)?, num(s)?);
            if h > 23 || m > 59 || s > 59 {
                return Err(());
            }
            Ok(Value::Timestamp(
                days * 86_400_000_000 + (h * 3600 + m * 60 + s) * 1_000_000,
            ))
        }
        DataType::Str => unreachable!("handled above"),
    }
}

/// Import `data` one row at a time under the schema `imported` settled on:
/// the expected columns and the expected error count.
fn reference_import(data: &[u8], imported: &ImportResult) -> (Vec<Vec<Value>>, u64) {
    let schema = &imported.schema;
    let mut columns: Vec<Vec<Value>> = vec![Vec::new(); schema.types.len()];
    let mut errors = 0u64;
    for line in reference_lines(data)
        .into_iter()
        .skip(usize::from(schema.has_header))
    {
        let line = line.strip_suffix(&[schema.separator]).unwrap_or(line);
        let mut fields = line.split(|&b| b == schema.separator);
        for (column, &dtype) in columns.iter_mut().zip(&schema.types) {
            // A short row's missing fields are NULL.
            let cell = reference_cell(fields.next().unwrap_or(b""), dtype);
            errors += u64::from(cell.is_err());
            column.push(cell.unwrap_or(Value::Null));
        }
    }
    (columns, errors)
}

// ---------------------------------------------------------------------
// The structured generator.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Int,
    Real,
    Date,
    Bool,
    Str,
}

/// How one seed's table is rendered.
#[derive(Debug)]
struct Shape {
    sep: u8,
    header: bool,
    crlf: bool,
    trailing_sep: bool,
    final_newline: bool,
    /// Per-mille rates.
    empty: u32,
    garbage: u32,
    padded: u32,
    short_row: u32,
    bad_utf8: u32,
}

const GARBAGE: [&str; 10] = [
    "oops",
    "12x",
    "--1",
    "1.2.3",
    "1e",
    "1995-13-01",
    "1995-02-30",
    "maybe",
    "0x10",
    "1e99999999999x",
];

const WORDS: [&str; 12] = [
    "alpha",
    "beta",
    "gamma",
    "delta",
    "caf\u{e9}",
    "\u{65e5}\u{672c}",
    "x",
    "New York",
    "a b  c",
    "Z\u{fc}rich",
    "q",
    "omega-9",
];

fn render_cell(rng: &mut StdRng, kind: Kind, row: usize, shape: &Shape, out: &mut Vec<u8>) {
    let roll = rng.gen_range(0..1000u32);
    if roll < shape.empty {
        return;
    }
    if roll < shape.empty + shape.garbage {
        out.extend_from_slice(GARBAGE[rng.gen_range(0..GARBAGE.len())].as_bytes());
        return;
    }
    if kind == Kind::Str {
        if rng.gen_range(0..1000u32) < shape.bad_utf8 {
            out.extend_from_slice(b"bad\xFF\xFEbytes");
            return;
        }
        // A small domain for some rows, near-unique strings for others.
        match rng.gen_range(0..3u8) {
            0 => out.extend_from_slice(
                format!("row {row} {}", rng.gen_range(0..1u64 << 40)).as_bytes(),
            ),
            _ => out.extend_from_slice(WORDS[rng.gen_range(0..WORDS.len())].as_bytes()),
        }
        return;
    }
    let padded = rng.gen_range(0..1000u32) < shape.padded;
    if padded {
        out.extend_from_slice(b"  ");
    }
    let text = match kind {
        Kind::Int => match rng.gen_range(0..4u8) {
            0 => format!("{}", rng.gen_range(-50i64..50)),
            1 => format!("{}", row as i64 * 3 + 7),
            2 => format!("+{}", rng.gen_range(0..1_000_000i64)),
            _ => format!("{}", rng.gen_range(-(1i64 << 62)..1i64 << 62)),
        },
        Kind::Real => match rng.gen_range(0..4u8) {
            0 => format!("{}.{:02}", rng.gen_range(0..2000), rng.gen_range(0..100)),
            1 => format!(
                "-{}.{}",
                rng.gen_range(0..1_000_000u32),
                rng.gen_range(0..1_000_000u32)
            ),
            2 => format!("{}e{}", rng.gen_range(1..99_999u32), rng.gen_range(-30..30)),
            _ => format!("{}", rng.gen_range(0..1u64 << 60)),
        },
        Kind::Date => {
            let (y, m, d) = ymd_from_days(rng.gen_range(-20_000i64..30_000));
            let sep = if rng.gen_range(0..8u8) == 0 { '/' } else { '-' };
            format!("{y:04}{sep}{m:02}{sep}{d:02}")
        }
        Kind::Bool => ["true", "false", "TRUE", "False", "t", "F"][rng.gen_range(0..6)].to_owned(),
        Kind::Str => unreachable!("handled above"),
    };
    out.extend_from_slice(text.as_bytes());
    if padded {
        out.push(b' ');
    }
}

/// The structured input of one seed.
pub fn structured_input(seed: u64) -> Vec<u8> {
    let rng = &mut StdRng::seed_from_u64(seed ^ 0x1_4907);
    // Mostly small; now and then past a block and past a chunk, which is
    // where the block hand-off and the chunk restart come into play.
    let rows = match rng.gen_range(0..16u8) {
        0 => 1,
        1 => 2,
        2..=8 => rng.gen_range(3..300),
        9..=13 => rng.gen_range(1000..2500),
        _ => rng.gen_range(8100..9500),
    };
    let kinds: Vec<Kind> = (0..rng.gen_range(1..7))
        .map(|_| [Kind::Int, Kind::Real, Kind::Date, Kind::Bool, Kind::Str][rng.gen_range(0..5)])
        .collect();
    let dirty = rng.gen_range(0..3u8) > 0;
    let rate = |rng: &mut StdRng, max: u32| if dirty { rng.gen_range(0..max) } else { 0 };
    let shape = Shape {
        sep: [b'|', b',', b'\t', b';'][rng.gen_range(0..4)],
        header: rng.gen_range(0..2u8) == 0,
        crlf: rng.gen_range(0..3u8) == 0,
        trailing_sep: rng.gen_range(0..3u8) == 0,
        final_newline: rng.gen_range(0..4u8) > 0,
        empty: rate(rng, 120),
        garbage: rate(rng, 30),
        padded: rate(rng, 60),
        short_row: rate(rng, 40),
        bad_utf8: rate(rng, 30),
    };
    let mut out = Vec::new();
    let end_line = |out: &mut Vec<u8>| {
        if shape.trailing_sep {
            out.push(shape.sep);
        }
        out.extend_from_slice(if shape.crlf { b"\r\n" } else { b"\n" });
    };
    if shape.header {
        let names: Vec<String> = (0..kinds.len()).map(|c| format!("name_{c}")).collect();
        out.extend_from_slice(names.join(&(shape.sep as char).to_string()).as_bytes());
        end_line(&mut out);
    }
    for row in 0..rows {
        let fields = if rng.gen_range(0..1000u32) < shape.short_row {
            rng.gen_range(0..kinds.len()).max(1)
        } else {
            kinds.len()
        };
        for (c, &kind) in kinds.iter().take(fields).enumerate() {
            if c > 0 {
                out.push(shape.sep);
            }
            render_cell(rng, kind, row, &shape, &mut out);
        }
        end_line(&mut out);
    }
    if !shape.final_newline {
        while matches!(out.last(), Some(b'\n' | b'\r')) {
            out.pop();
        }
    }
    out
}

/// The arbitrary-bytes input of one seed: raw noise, or noise over the
/// alphabet flat files are made of, salted with tokens that sit on the
/// parsers' edges.
pub fn arbitrary_input(seed: u64) -> Vec<u8> {
    const ALPHABET: &[u8] = b"0123456789|,;\t\n\r-+.eE: /ax\xFF\xC3\"";
    const TOKENS: [&[u8]; 12] = [
        b"1e99999999999",
        b"-9223372036854775808",
        b"99999999999999999999",
        b"0000-00-00",
        b"9999-12-31",
        b"1970-01-01 23:59:59",
        b"1970-01-01T24:00:00",
        b"\xEF\xBB\xBF",
        b"||||||||",
        b"\r\r\n",
        b".",
        b"true",
    ];
    let rng = &mut StdRng::seed_from_u64(seed ^ 0xB17E5);
    let len = match rng.gen_range(0..8u8) {
        0 => rng.gen_range(0..4),
        1..=5 => rng.gen_range(4..400),
        _ => rng.gen_range(400..6000),
    };
    let raw = rng.gen_range(0..4u8) == 0;
    let mut out = Vec::with_capacity(len + 32);
    while out.len() < len {
        if raw {
            out.push(rng.gen_range(0..=255u8));
        } else if rng.gen_range(0..24u8) == 0 {
            out.extend_from_slice(TOKENS[rng.gen_range(0..TOKENS.len())]);
        } else {
            out.push(ALPHABET[rng.gen_range(0..ALPHABET.len())]);
        }
    }
    out
}

// ---------------------------------------------------------------------
// The oracles.
// ---------------------------------------------------------------------

fn options(parallel: bool, parser: ParserKind, mode: ScanMode) -> ImportOptions {
    ImportOptions {
        parallel,
        parser,
        mode,
        ..ImportOptions::default()
    }
}

/// `import_bytes`, with a panic turned into a finding.
fn import_catching(
    data: &[u8],
    options: &ImportOptions,
) -> Result<std::io::Result<ImportResult>, Discrepancy> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| import_bytes(data, options))).map_err(
        |p| Discrepancy {
            oracle: "import-panic",
            detail: format!(
                "import_bytes panicked (parallel={}, {:?}, {:?}): {}",
                options.parallel,
                options.parser,
                options.mode,
                panic_message(p.as_ref())
            ),
        },
    )
}

/// Oracle 2 on any input: a table or an error, never a panic, and a table
/// whose columns all have `row_count` values.
pub fn check_never_panics(data: &[u8]) -> Vec<Discrepancy> {
    let mut found = Vec::new();
    for (parallel, mode) in [
        (true, ScanMode::All),
        (false, ScanMode::All),
        (true, ScanMode::Scalars),
    ] {
        let options = options(parallel, ParserKind::Buffer, mode);
        let imported = match import_catching(data, &options) {
            Ok(Ok(imported)) => imported,
            Ok(Err(_)) => continue,
            Err(d) => {
                found.push(d);
                continue;
            }
        };
        let table = &imported.table;
        let rows = table.row_count();
        let ragged = table.columns.iter().any(|c| c.data.len() != rows);
        let expected_columns = match mode {
            ScanMode::All => imported.schema.types.len(),
            ScanMode::Scalars => imported
                .schema
                .types
                .iter()
                .filter(|&&t| t != DataType::Str)
                .count(),
        };
        if ragged
            || table.columns.len() != expected_columns
            || imported.reencodings.len() != expected_columns
        {
            found.push(Discrepancy {
                oracle: "import-shape",
                detail: format!(
                    "parallel={parallel} {mode:?}: {} column(s) for a schema of {}, lengths {:?}, \
                     row_count {rows}",
                    table.columns.len(),
                    imported.schema.types.len(),
                    table
                        .columns
                        .iter()
                        .map(|c| c.data.len())
                        .collect::<Vec<_>>(),
                ),
            });
        }
    }
    found
}

/// Oracle 1 on a rendered table: every import configuration against the
/// row-loop reference.
pub fn check_against_reference(data: &[u8]) -> Vec<Discrepancy> {
    let mut found = Vec::new();
    for parallel in [false, true] {
        for parser in [ParserKind::Buffer, ParserKind::LocaleLocking] {
            let options = options(parallel, parser, ScanMode::All);
            let imported = match import_catching(data, &options) {
                Ok(Ok(imported)) => imported,
                Ok(Err(e)) => {
                    found.push(Discrepancy {
                        oracle: "import-reference",
                        detail: format!(
                            "parallel={parallel} {parser:?}: refused a valid file: {e}"
                        ),
                    });
                    continue;
                }
                Err(d) => {
                    found.push(d);
                    continue;
                }
            };
            let (expected, errors) = reference_import(data, &imported);
            let what = format!("parallel={parallel} {parser:?}");
            if imported.parse_errors != errors {
                found.push(Discrepancy {
                    oracle: "import-reference",
                    detail: format!(
                        "{what}: {} parse error(s), the row loop counts {errors}",
                        imported.parse_errors
                    ),
                });
            }
            let rows = expected.first().map_or(0, Vec::len) as u64;
            if imported.table.row_count() != rows {
                found.push(Discrepancy {
                    oracle: "import-reference",
                    detail: format!(
                        "{what}: {} row(s), the row loop reads {rows}",
                        imported.table.row_count()
                    ),
                });
                continue;
            }
            'columns: for (c, (column, expected)) in
                imported.table.columns.iter().zip(&expected).enumerate()
            {
                for (row, want) in expected.iter().enumerate() {
                    let got = column.value(row as u64);
                    if &got != want {
                        found.push(Discrepancy {
                            oracle: "import-reference",
                            detail: format!(
                                "{what}: column {c} ({:?}) row {row}: imported {got:?}, \
                                 the row loop reads {want:?}",
                                column.dtype
                            ),
                        });
                        break 'columns;
                    }
                }
            }
        }
    }
    found
}

/// Both oracles for one seed.
pub fn run_import_seed(seed: u64) -> Vec<Discrepancy> {
    let structured = structured_input(seed);
    let mut found = check_against_reference(&structured);
    found.extend(check_never_panics(&structured));
    found.extend(check_never_panics(&arbitrary_input(seed)));
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_import_seed_sweep_is_clean() {
        for seed in 0..24 {
            let found = run_import_seed(seed);
            assert!(found.is_empty(), "seed {seed}: {found:?}");
        }
    }

    #[test]
    fn the_reference_reads_the_documented_line_rules() {
        assert_eq!(
            reference_lines(b"a\r\nb\n\nc\r"),
            vec![&b"a"[..], b"b", b"", b"c\r"]
        );
        assert!(reference_lines(b"").is_empty());
        assert_eq!(reference_lines(b"\n"), vec![&b""[..]]);
        assert_eq!(
            reference_cell(b" 42 ", DataType::Integer),
            Ok(Value::Int(42))
        );
        assert_eq!(reference_cell(b"", DataType::Real), Ok(Value::Null));
        assert_eq!(reference_cell(b"1995-02-30", DataType::Date), Err(()));
        assert_eq!(
            reference_cell(b"1970/01/02", DataType::Date),
            Ok(Value::Date(1))
        );
        assert_eq!(reference_cell(b"\xFF", DataType::Str), Err(()));
    }

    #[test]
    fn the_oracle_notices_a_wrong_cell() {
        // The reference against an import of *different* text must fire:
        // a reference that agreed with anything would prove nothing.
        let imported = import_bytes(b"1|x|\n2|y|\n", &ImportOptions::default()).unwrap();
        let (expected, errors) = reference_import(b"1|x|\n3|y|\n", &imported);
        assert_eq!(errors, 0);
        assert_ne!(imported.table.columns[0].value(1), expected[0][1]);
    }

    #[test]
    fn structured_inputs_cover_the_variations() {
        // Over a few hundred seeds every rendering switch must occur.
        let inputs: Vec<Vec<u8>> = (0..300).map(structured_input).collect();
        let any = |f: &dyn Fn(&[u8]) -> bool| inputs.iter().any(|i| f(i));
        assert!(any(&|i| i.windows(2).any(|w| w == b"\r\n")));
        assert!(any(&|i| !i.ends_with(b"\n")));
        assert!(any(&|i| i.contains(&0xFF)));
        assert!(any(&|i| !i.contains(&b'\n')), "a single line");
        for sep in [b'|', b',', b'\t', b';'] {
            assert!(any(&|i| i.contains(&sep)));
        }
        assert!(any(&|i| i.iter().filter(|&&b| b == b'\n').count() > 8192));
    }
}
