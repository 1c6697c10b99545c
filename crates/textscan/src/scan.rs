//! The TextScan operator: tokenization, column cracking and the parallel
//! per-column parse (paper §5.1, Fig 4).
//!
//! Each of Fig 4's measurement levels is a function here:
//!
//! * [`read_bandwidth`] — sum all the bytes of the text file;
//! * [`tokenize`] — find record and field boundaries;
//! * [`split`] — crack the file into per-column text files without parsing;
//! * [`import_file`] with [`ScanMode::Scalars`] — parse numbers and dates,
//!   split the string columns for later parsing;
//! * [`import_file`] with [`ScanMode::All`] — parse every column into a
//!   [`Table`] through [`ColumnBuilder`]s (the TextScan + FlowTable
//!   combined system of §5.2).
//!
//! All three tokenizing levels run the one scanner,
//! [`crate::sniff::scan_records`], and differ only in the sink they hand
//! it. The import sink writes each field's chunk-relative `(start, end)`
//! into a column-major range table; when a chunk of rows is full, every
//! column parses its own slice of the table — a typed loop chosen once per
//! chunk that fills 1024-value blocks and hands them whole to the column's
//! builder.
//!
//! Column parsers produce independent output from shared read-only state,
//! so a chunk's columns are parsed as tasks on the engine's one task
//! runner, [`tde_exec::flow_table::per_column`], heaviest first, on as
//! many workers as the import's text repays (§5.1.2). With the
//! buffer-oriented parsers this scales; with [`ParserKind::LocaleLocking`]
//! it reproduces the order-of-magnitude collapse the paper describes.

use crate::infer::{infer_schema, InferredSchema};
use crate::locale;
use crate::parsers;
use crate::sniff::{scan_records, RecordSink};
use parking_lot::Mutex;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;
use tde_encodings::BLOCK_SIZE;
use tde_exec::flow_table::per_column;
use tde_exec::morsel::build_degree;
use tde_storage::{BuiltColumn, ColumnBuilder, EncodingPolicy, Table};
use tde_types::sentinel::{NULL_I64, NULL_REAL_BITS};
use tde_types::DataType;

/// Rows tokenized per processing chunk.
const ROWS_PER_CHUNK: usize = 8 * BLOCK_SIZE;

/// How much of the file to parse (the Fig 4 levels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// Parse every column.
    All,
    /// Parse scalar columns (numbers, dates, booleans); split string
    /// columns into text buffers for later parsing.
    Scalars,
}

/// Which parser family to use (§5.1.2 vs §5.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParserKind {
    /// Buffer-oriented parsers relying on no external state.
    #[default]
    Buffer,
    /// Parsers that lock a global locale singleton per field — the
    /// baseline whose contention defeats parallelism.
    LocaleLocking,
}

/// Import configuration.
#[derive(Debug, Clone)]
pub struct ImportOptions {
    /// Encoding/acceleration policy for the produced columns.
    pub policy: EncodingPolicy,
    /// Explicit schema (names and types); inferred when absent.
    pub schema: Option<Vec<(String, DataType)>>,
    /// Force header presence; inferred when absent.
    pub has_header: Option<bool>,
    /// Parse a chunk's columns on more than one worker, when the input is
    /// large enough to repay them (one per 8 MiB of text, at most one per
    /// core); `false` keeps the import on the calling thread.
    pub parallel: bool,
    /// Parser family.
    pub parser: ParserKind,
    /// What to parse.
    pub mode: ScanMode,
    /// Name for the produced table.
    pub table_name: String,
}

impl Default for ImportOptions {
    fn default() -> ImportOptions {
        ImportOptions {
            policy: EncodingPolicy::default(),
            schema: None,
            has_header: None,
            parallel: true,
            parser: ParserKind::Buffer,
            mode: ScanMode::All,
            table_name: "imported".to_owned(),
        }
    }
}

/// What an import produced.
#[derive(Debug)]
pub struct ImportResult {
    /// The table (string columns are empty/absent under
    /// [`ScanMode::Scalars`]).
    pub table: Table,
    /// Per-column mid-load re-encoding counts (experiment E9).
    pub reencodings: Vec<(String, u32)>,
    /// Fields that failed to parse and were stored as NULL.
    pub parse_errors: u64,
    /// Bytes of input processed.
    pub bytes_read: u64,
    /// Bytes of split string text produced under [`ScanMode::Scalars`].
    pub split_bytes: u64,
    /// The schema that was used.
    pub schema: InferredSchema,
}

/// Fig 4 level 1: read the file and sum its bytes.
pub fn read_bandwidth(path: impl AsRef<Path>) -> io::Result<(u64, u64)> {
    let data = std::fs::read(path)?;
    let sum = data
        .iter()
        .fold(0u64, |acc, &b| acc.wrapping_add(u64::from(b)));
    Ok((data.len() as u64, sum))
}

/// Fig 4 level 2: find record and field boundaries; returns
/// `(bytes, rows, fields)`.
pub fn tokenize(path: impl AsRef<Path>) -> io::Result<(u64, u64, u64)> {
    struct Count {
        rows: u64,
        fields: u64,
    }
    impl RecordSink for Count {
        fn field(&mut self, _start: usize, _end: usize) {
            self.fields += 1;
        }
        fn end_record(&mut self, _end: usize, _next: usize) -> bool {
            self.rows += 1;
            true
        }
    }
    let data = std::fs::read(path)?;
    let schema = infer_schema(&data);
    let mut count = Count { rows: 0, fields: 0 };
    scan_records(&data, schema.separator, &mut count);
    Ok((data.len() as u64, count.rows, count.fields))
}

/// Fig 4 level 3: crack the file into one text file per column, without
/// parsing. Strings are written quoted with end-of-line separators —
/// approximately the same I/O as writing heap entries (§5.1.4). Returns
/// `(bytes_read, bytes_written)`.
pub fn split(path: impl AsRef<Path>, out_dir: impl AsRef<Path>) -> io::Result<(u64, u64)> {
    struct Crack<'a> {
        data: &'a [u8],
        writers: Vec<io::BufWriter<std::fs::File>>,
        col: usize,
        in_header: bool,
        written: u64,
        failed: io::Result<()>,
    }
    impl RecordSink for Crack<'_> {
        fn field(&mut self, start: usize, end: usize) {
            let col = self.col;
            self.col += 1;
            if self.in_header || self.failed.is_err() {
                return;
            }
            if let Some(w) = self.writers.get_mut(col) {
                self.failed = w
                    .write_all(b"\"")
                    .and_then(|()| w.write_all(&self.data[start..end]))
                    .and_then(|()| w.write_all(b"\"\n"));
                self.written += (end - start) as u64 + 3;
            }
        }
        fn end_record(&mut self, _end: usize, _next: usize) -> bool {
            self.col = 0;
            self.in_header = false;
            self.failed.is_ok()
        }
    }
    let data = std::fs::read(&path)?;
    let schema = infer_schema(&data);
    std::fs::create_dir_all(&out_dir)?;
    let writers = (0..schema.names.len())
        .map(|c| {
            let p = out_dir.as_ref().join(format!("col_{c}.txt"));
            Ok(io::BufWriter::with_capacity(
                1 << 16,
                std::fs::File::create(p)?,
            ))
        })
        .collect::<io::Result<_>>()?;
    let mut crack = Crack {
        data: &data,
        writers,
        col: 0,
        in_header: schema.has_header,
        written: 0,
        failed: Ok(()),
    };
    scan_records(&data, schema.separator, &mut crack);
    crack.failed?;
    for mut w in crack.writers {
        w.flush()?;
    }
    Ok((data.len() as u64, crack.written))
}

/// The field ranges of one chunk of rows, column-major: column `c`'s
/// ranges are `cells[c * stride..][..rows]`, each relative to `base`, the
/// chunk's offset in the input. Offsets relative to the chunk keep 32-bit
/// ranges valid for inputs of any size; a single chunk past 4 GiB is
/// refused rather than wrapped.
struct ChunkRanges {
    cells: Vec<(u32, u32)>,
    ncols: usize,
    stride: usize,
    base: usize,
    rows: usize,
    col: usize,
}

impl ChunkRanges {
    fn new(ncols: usize) -> ChunkRanges {
        // A cache line of slack between columns, so the sixteen-odd write
        // cursors the tokenizer advances together do not all map to the
        // same cache sets.
        let stride = ROWS_PER_CHUNK + 8;
        ChunkRanges {
            cells: vec![(0, 0); ncols * stride],
            ncols,
            stride,
            base: 0,
            rows: 0,
            col: 0,
        }
    }

    /// Start an empty chunk at input offset `base`.
    fn restart(&mut self, base: usize) {
        self.base = base;
        self.rows = 0;
        self.col = 0;
    }

    /// The next field of the current row: input bytes `start..end`.
    /// Fields past the last column are dropped.
    #[inline]
    fn field(&mut self, start: usize, end: usize) {
        if self.col < self.ncols {
            // Truncation is caught per row, by `end_row`.
            self.cells[self.col * self.stride + self.rows] =
                ((start - self.base) as u32, (end - self.base) as u32);
        }
        self.col += 1;
    }

    /// Close the current row, whose text ends at input offset `end`.
    /// Columns the row did not reach read as empty (NULL).
    fn end_row(&mut self, end: usize) -> io::Result<()> {
        if u32::try_from(end - self.base).is_err() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "{ROWS_PER_CHUNK} consecutive rows span more than 4 GiB (at byte {})",
                    self.base
                ),
            ));
        }
        for col in self.col..self.ncols {
            self.cells[col * self.stride + self.rows] = (0, 0);
        }
        self.col = 0;
        self.rows += 1;
        Ok(())
    }

    fn column(&self, col: usize) -> &[(u32, u32)] {
        &self.cells[col * self.stride..][..self.rows]
    }
}

/// The text of one chunk, as the column parsers see it.
struct ChunkText<'a> {
    bytes: &'a [u8],
    /// The same bytes as a string when the whole chunk is valid UTF-8
    /// (checked once): separators are ASCII, so every field then is too.
    text: Option<&'a str>,
}

/// One column's parse state across the chunks of an import.
struct ColumnTask {
    dtype: DataType,
    builder: Option<ColumnBuilder>,
    built: Option<BuiltColumn>,
    split_buf: Vec<u8>,
    errors: u64,
}

/// Parse one column of a chunk with `parse`, a block at a time; returns
/// the number of fields that did not parse (stored as `null`).
fn parse_blocks<T>(
    bytes: &[u8],
    ranges: &[(u32, u32)],
    builder: &mut ColumnBuilder,
    null: i64,
    parse: impl Fn(&[u8]) -> Result<Option<T>, ()>,
    raw: impl Fn(T) -> i64,
) -> u64 {
    let mut errors = 0;
    let mut block = [0i64; BLOCK_SIZE];
    for ranges in ranges.chunks(BLOCK_SIZE) {
        for (slot, &(a, b)) in block.iter_mut().zip(ranges) {
            *slot = match parse(&bytes[a as usize..b as usize]) {
                Ok(Some(v)) => raw(v),
                Ok(None) => null,
                Err(()) => {
                    errors += 1;
                    null
                }
            };
        }
        builder.append_raw(&block[..ranges.len()]);
    }
    errors
}

/// The scalar parse of one column of a chunk: [`parse_blocks`] compiled
/// once per (type, parser family), the family picked here, outside the
/// loop.
fn parse_scalars<T>(
    chunk: &ChunkText,
    ranges: &[(u32, u32)],
    builder: &mut ColumnBuilder,
    kind: ParserKind,
    (buffer, locale): (
        impl Fn(&[u8]) -> Result<Option<T>, ()>,
        impl Fn(&[u8]) -> Result<Option<T>, ()>,
    ),
    null: i64,
    raw: impl Fn(T) -> i64,
) -> u64 {
    match kind {
        ParserKind::Buffer => parse_blocks(chunk.bytes, ranges, builder, null, buffer, raw),
        ParserKind::LocaleLocking => parse_blocks(chunk.bytes, ranges, builder, null, locale, raw),
    }
}

impl ColumnTask {
    /// Parse this column's fields of one chunk. The loop is picked here,
    /// once per chunk, so the per-field work carries no type dispatch.
    fn parse_chunk(&mut self, chunk: &ChunkText, ranges: &[(u32, u32)], kind: ParserKind) {
        let Some(builder) = self.builder.as_mut() else {
            // Scalars mode string column: split into a text buffer.
            for &(a, b) in ranges {
                self.split_buf.push(b'"');
                self.split_buf
                    .extend_from_slice(&chunk.bytes[a as usize..b as usize]);
                self.split_buf.extend_from_slice(b"\"\n");
            }
            return;
        };
        let int = |v: i64| v;
        self.errors += match self.dtype {
            DataType::Integer => {
                let parsers = (parsers::parse_i64, locale::parse_i64_locale);
                parse_scalars(chunk, ranges, builder, kind, parsers, NULL_I64, int)
            }
            DataType::Date => {
                let parsers = (parsers::parse_date, locale::parse_date_locale);
                parse_scalars(chunk, ranges, builder, kind, parsers, NULL_I64, int)
            }
            DataType::Timestamp => {
                let parsers = (parsers::parse_timestamp, locale::parse_timestamp_locale);
                parse_scalars(chunk, ranges, builder, kind, parsers, NULL_I64, int)
            }
            DataType::Bool => {
                let parsers = (parsers::parse_bool, locale::parse_bool_locale);
                parse_scalars(chunk, ranges, builder, kind, parsers, NULL_I64, i64::from)
            }
            DataType::Real => {
                let parsers = (parsers::parse_f64, locale::parse_f64_locale);
                let bits = |v: f64| v.to_bits() as i64;
                parse_scalars(
                    chunk,
                    ranges,
                    builder,
                    kind,
                    parsers,
                    NULL_REAL_BITS as i64,
                    bits,
                )
            }
            DataType::Str => {
                let mut errors = 0;
                builder.append_strs(ranges.iter().map(|&(a, b)| {
                    let (a, b) = (a as usize, b as usize);
                    if a == b {
                        return None;
                    }
                    let field = match chunk.text {
                        Some(text) => text.get(a..b),
                        // Some field of the chunk is not UTF-8: find out
                        // which ones.
                        None => std::str::from_utf8(&chunk.bytes[a..b]).ok(),
                    };
                    errors += u64::from(field.is_none());
                    field
                }));
                errors
            }
        };
    }

    fn finish(&mut self) {
        self.built = self.builder.take().map(ColumnBuilder::finish);
    }
}

/// The import sink: collects a chunk of field ranges, then has the column
/// tasks parse it.
struct Importer<'a> {
    data: &'a [u8],
    ranges: ChunkRanges,
    tasks: Vec<Mutex<ColumnTask>>,
    heaviest_first: Vec<usize>,
    workers: usize,
    parser: ParserKind,
    /// Whether any column takes its fields as strings.
    wants_text: bool,
    in_header: bool,
    rows: u64,
    failed: io::Result<()>,
    build_time: std::time::Duration,
}

impl Importer<'_> {
    /// Parse the collected chunk, which ends where the record at `next`
    /// begins.
    fn flush(&mut self, next: usize) {
        let rows = self.ranges.rows;
        if rows == 0 {
            return;
        }
        let started = Instant::now();
        let bytes = &self.data[self.ranges.base..next];
        let chunk = ChunkText {
            bytes,
            text: self
                .wants_text
                .then(|| std::str::from_utf8(bytes).ok())
                .flatten(),
        };
        let (ranges, parser) = (&self.ranges, self.parser);
        let (tasks, order) = (&self.tasks, &self.heaviest_first);
        per_column(self.workers, tasks.len(), |i| {
            let col = order[i];
            tasks[col]
                .lock()
                .parse_chunk(&chunk, ranges.column(col), parser);
        });
        self.rows += rows as u64;
        self.ranges.restart(next);
        self.build_time += started.elapsed();
    }
}

impl RecordSink for Importer<'_> {
    #[inline]
    fn field(&mut self, start: usize, end: usize) {
        self.ranges.field(start, end);
    }

    fn end_record(&mut self, end: usize, next: usize) -> bool {
        if self.in_header {
            self.in_header = false;
            self.ranges.restart(next);
            return true;
        }
        if let Err(refused) = self.ranges.end_row(end) {
            self.failed = Err(refused);
            return false;
        }
        if self.ranges.rows == ROWS_PER_CHUNK {
            self.flush(next);
        }
        true
    }
}

/// Relative parse + build cost of a column, for claiming the heaviest
/// first: strings intern, reals and dates parse, integers barely do.
fn weight(task: &ColumnTask) -> u32 {
    match (task.dtype, task.builder.is_some()) {
        (DataType::Str, true) => 5,
        (DataType::Real, _) => 3,
        (DataType::Date | DataType::Timestamp, _) => 2,
        _ => 1,
    }
}

/// Import a flat file into a [`Table`] (the TextScan + FlowTable pipeline).
pub fn import_file(path: impl AsRef<Path>, options: &ImportOptions) -> io::Result<ImportResult> {
    let data = std::fs::read(&path)?;
    import_bytes(&data, options)
}

/// Import from an in-memory byte stream (the operator reads from a
/// memory-mapped byte stream in the paper; a slice models that).
pub fn import_bytes(data: &[u8], options: &ImportOptions) -> io::Result<ImportResult> {
    let workers = if options.parallel {
        build_degree(data.len())
    } else {
        1
    };
    import_on(data, options, workers)
}

/// [`import_bytes`] on `workers` workers.
fn import_on(data: &[u8], options: &ImportOptions, workers: usize) -> io::Result<ImportResult> {
    let started = Instant::now();
    let mut schema = infer_schema(data);
    if let Some(explicit) = &options.schema {
        schema.names = explicit.iter().map(|(n, _)| n.clone()).collect();
        schema.types = explicit.iter().map(|(_, t)| *t).collect();
    }
    if let Some(h) = options.has_header {
        schema.has_header = h;
    }
    let ncols = schema.names.len();

    let tasks: Vec<ColumnTask> = schema
        .names
        .iter()
        .zip(&schema.types)
        .map(|(name, &dtype)| {
            let wants_builder = options.mode == ScanMode::All || dtype != DataType::Str;
            ColumnTask {
                dtype,
                builder: wants_builder
                    .then(|| ColumnBuilder::new(name.clone(), dtype, options.policy)),
                built: None,
                split_buf: Vec::new(),
                errors: 0,
            }
        })
        .collect();
    let mut heaviest_first: Vec<usize> = (0..ncols).collect();
    heaviest_first.sort_by_key(|&c| std::cmp::Reverse(weight(&tasks[c])));

    let mut importer = Importer {
        data,
        ranges: ChunkRanges::new(ncols),
        wants_text: tasks
            .iter()
            .any(|t| t.dtype == DataType::Str && t.builder.is_some()),
        tasks: tasks.into_iter().map(Mutex::new).collect(),
        heaviest_first,
        workers,
        parser: options.parser,
        in_header: schema.has_header,
        rows: 0,
        failed: Ok(()),
        build_time: std::time::Duration::ZERO,
    };
    scan_records(data, schema.separator, &mut importer);
    std::mem::replace(&mut importer.failed, Ok(()))?;
    importer.flush(data.len());
    let scanned = Instant::now();

    let (tasks, order) = (&importer.tasks, &importer.heaviest_first);
    per_column(importer.workers, ncols, |i| tasks[order[i]].lock().finish());
    let mut columns = Vec::with_capacity(ncols);
    let mut reencodings = Vec::with_capacity(ncols);
    let mut parse_errors = 0u64;
    let mut split_bytes = 0u64;
    for (task, name) in importer.tasks.into_iter().zip(&schema.names) {
        let task = task.into_inner();
        parse_errors += task.errors;
        split_bytes += task.split_buf.len() as u64;
        if let Some(built) = task.built {
            reencodings.push((name.clone(), built.reencodings));
            columns.push(built.column);
        }
    }
    let result = ImportResult {
        table: Table::new(options.table_name.clone(), columns),
        reencodings,
        parse_errors,
        bytes_read: data.len() as u64,
        split_bytes,
        schema,
    };

    tde_obs::emit(|| {
        let build = importer.build_time;
        tde_obs::Event::Import {
            table: options.table_name.clone(),
            bytes: result.bytes_read,
            rows: importer.rows,
            columns: ncols as u64,
            parse_errors,
            scan_nanos: ((scanned - started).saturating_sub(build)).as_nanos() as u64,
            build_nanos: build.as_nanos() as u64,
            finish_nanos: scanned.elapsed().as_nanos() as u64,
        }
    });
    Ok(result)
}

/// Convenience: split-column output paths for a given table path.
pub fn split_dir_for(path: impl AsRef<Path>) -> PathBuf {
    let mut p = path.as_ref().to_path_buf();
    let name = p
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    p.set_file_name(format!("{name}_split"));
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use tde_types::Value;

    const SAMPLE: &[u8] = b"1|alpha|2.5|1995-01-01|\n\
                            2|beta|3.5|1995-01-02|\n\
                            3|alpha||1995-01-03|\n\
                            4|gamma|9.25|1995-01-04|\n";

    #[test]
    fn import_all_columns() {
        let r = import_bytes(SAMPLE, &ImportOptions::default()).unwrap();
        let t = &r.table;
        assert_eq!(t.row_count(), 4);
        assert_eq!(t.columns.len(), 4);
        assert_eq!(t.columns[0].value(0), Value::Int(1));
        assert_eq!(t.columns[1].value(1), Value::Str("beta".into()));
        assert_eq!(t.columns[2].value(2), Value::Null); // empty field
        assert_eq!(t.columns[3].value(3), Value::date(1995, 1, 4));
        assert_eq!(r.parse_errors, 0);
    }

    #[test]
    fn scalars_mode_splits_strings() {
        let opts = ImportOptions {
            mode: ScanMode::Scalars,
            ..ImportOptions::default()
        };
        let r = import_bytes(SAMPLE, &opts).unwrap();
        // Only the three scalar columns are materialized.
        assert_eq!(r.table.columns.len(), 3);
        assert!(r.split_bytes > 0);
    }

    #[test]
    fn header_file_with_types() {
        let data = b"id,when,ok\n1,1999-05-05,true\n2,1999-05-06,false\n";
        let r = import_bytes(data, &ImportOptions::default()).unwrap();
        assert_eq!(r.table.row_count(), 2);
        assert_eq!(
            r.table.column("when").unwrap().value(0),
            Value::date(1999, 5, 5)
        );
        assert_eq!(r.table.column("ok").unwrap().value(1), Value::Bool(false));
    }

    #[test]
    fn explicit_schema_overrides_inference() {
        // Force the integer column to be read as Real.
        let opts = ImportOptions {
            schema: Some(vec![
                ("a".to_owned(), DataType::Real),
                ("b".to_owned(), DataType::Str),
                ("c".to_owned(), DataType::Real),
                ("d".to_owned(), DataType::Str),
            ]),
            has_header: Some(false),
            ..ImportOptions::default()
        };
        let r = import_bytes(SAMPLE, &opts).unwrap();
        assert_eq!(r.table.column("a").unwrap().value(0), Value::Real(1.0));
        assert_eq!(
            r.table.column("d").unwrap().value(0),
            Value::Str("1995-01-01".into())
        );
    }

    #[test]
    fn parse_errors_become_nulls() {
        // A clean sample infers Integer; a dirty value past the sample
        // window (100 lines) parses as NULL and is counted.
        let mut data = Vec::new();
        for i in 0..150 {
            if i == 140 {
                data.extend_from_slice(b"oops|z|\n");
            } else {
                data.extend_from_slice(format!("{i}|z|\n").as_bytes());
            }
        }
        let r = import_bytes(&data, &ImportOptions::default()).unwrap();
        assert_eq!(r.parse_errors, 1);
        assert_eq!(r.table.columns[0].value(140), Value::Null);
        assert_eq!(r.table.columns[0].value(141), Value::Int(141));
    }

    #[test]
    fn the_worker_count_does_not_show() {
        // Several chunks of every type, with NULLs, unparsable fields and
        // short rows; more workers than columns is clamped.
        let mut data = Vec::new();
        for i in 0..3 * ROWS_PER_CHUNK + 100 {
            let line = match i % 101 {
                0 => format!("{i}|\n"),
                1 => format!("x|s{}|oops|1995-13-40|\n", i % 7),
                _ => format!(
                    "{i}|s{}|{}.25|1995-01-{:02}|\n",
                    i % 977,
                    i % 50,
                    1 + i % 28
                ),
            };
            data.extend_from_slice(line.as_bytes());
        }
        let bytes = |r: &ImportResult| -> Vec<Vec<u8>> {
            r.table
                .columns
                .iter()
                .map(|c| {
                    let mut b = c.data.as_bytes().to_vec();
                    b.extend_from_slice(c.heap().map_or(&[][..], |h| h.as_bytes()));
                    b
                })
                .collect()
        };
        let options = ImportOptions::default();
        let one = import_on(&data, &options, 1).unwrap();
        assert!(one.parse_errors > 0);
        for workers in [2, 3, 9] {
            let many = import_on(&data, &options, workers).unwrap();
            assert_eq!(bytes(&many), bytes(&one), "{workers} workers");
            assert_eq!(many.parse_errors, one.parse_errors);
            assert_eq!(many.reencodings, one.reencodings);
        }
    }

    #[test]
    fn locale_parsers_agree_with_buffer_parsers() {
        let with_locale = import_bytes(
            SAMPLE,
            &ImportOptions {
                parser: ParserKind::LocaleLocking,
                ..ImportOptions::default()
            },
        )
        .unwrap();
        let buffer = import_bytes(SAMPLE, &ImportOptions::default()).unwrap();
        for (a, b) in with_locale.table.columns.iter().zip(&buffer.table.columns) {
            for row in 0..buffer.table.row_count() {
                assert_eq!(a.value(row), b.value(row));
            }
        }
    }

    #[test]
    fn tokenize_and_bandwidth() {
        let dir = std::env::temp_dir().join("tde_textscan_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("s.tbl");
        std::fs::write(&p, SAMPLE).unwrap();
        let (bytes, _sum) = read_bandwidth(&p).unwrap();
        assert_eq!(bytes, SAMPLE.len() as u64);
        let (_, rows, fields) = tokenize(&p).unwrap();
        assert_eq!(rows, 4);
        assert_eq!(fields, 16);
    }

    #[test]
    fn split_writes_column_files() {
        let dir = std::env::temp_dir().join("tde_textscan_split");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("s.tbl");
        std::fs::write(&p, SAMPLE).unwrap();
        let out = dir.join("out");
        let (read, written) = split(&p, &out).unwrap();
        assert_eq!(read, SAMPLE.len() as u64);
        assert!(written > 0);
        let col1 = std::fs::read_to_string(out.join("col_1.txt")).unwrap();
        assert_eq!(col1, "\"alpha\"\n\"beta\"\n\"alpha\"\n\"gamma\"\n");
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn ranges_are_relative_to_a_chunk_anywhere_in_the_input() {
        // A chunk that starts past 4 GiB: the stored ranges are offsets
        // into the chunk, not into the file.
        let base = (5usize << 32) + 17;
        let mut ranges = ChunkRanges::new(2);
        ranges.restart(base);
        ranges.field(base, base + 3);
        ranges.field(base + 4, base + 9);
        ranges.field(base + 10, base + 11); // past the last column: dropped
        ranges.end_row(base + 11).unwrap();
        ranges.field(base + 12, base + 12);
        ranges.end_row(base + 12).unwrap(); // short row: NULL-padded
        assert_eq!(ranges.column(0), &[(0, 3), (12, 12)]);
        assert_eq!(ranges.column(1), &[(4, 9), (0, 0)]);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_chunk_past_four_gib_is_refused_not_wrapped() {
        let mut ranges = ChunkRanges::new(1);
        ranges.restart(100);
        ranges.field(100, 107);
        ranges.end_row(107).unwrap();
        // The next row ends 4 GiB + 5 bytes into the chunk.
        let far = 100 + (1usize << 32) + 5;
        ranges.field(108, far);
        let err = ranges.end_row(far).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(ranges.rows, 1, "the refused row is not recorded");
    }

    #[test]
    fn chunk_boundaries_do_not_show() {
        // Three chunks and a ragged tail, on one worker and on two, with
        // a multi-byte string so whole-chunk UTF-8 validation is on the
        // path.
        let rows = 2 * ROWS_PER_CHUNK + 777;
        let mut data = Vec::new();
        for i in 0..rows {
            data.extend_from_slice(format!("{i}|é{}|{}.5|\n", i % 97, i % 13).as_bytes());
        }
        for workers in [1, 2] {
            let r = import_on(&data, &ImportOptions::default(), workers).unwrap();
            assert_eq!(r.table.row_count(), rows as u64);
            assert_eq!(r.parse_errors, 0);
            for i in [
                0,
                ROWS_PER_CHUNK - 1,
                ROWS_PER_CHUNK,
                2 * ROWS_PER_CHUNK,
                rows - 1,
            ] {
                assert_eq!(r.table.columns[0].value(i as u64), Value::Int(i as i64));
                assert_eq!(
                    r.table.columns[1].value(i as u64),
                    Value::Str(format!("é{}", i % 97))
                );
                assert_eq!(
                    r.table.columns[2].value(i as u64),
                    Value::Real((i % 13) as f64 + 0.5)
                );
            }
        }
    }

    #[test]
    fn invalid_utf8_nulls_only_its_own_field() {
        // One bad field fails the chunk's whole-text validation; the
        // per-field fallback must keep every other string.
        let mut data = Vec::new();
        for i in 0..200 {
            if i == 150 {
                data.extend_from_slice(b"150|bad\xFFbytes|x|\n");
            } else {
                data.extend_from_slice(format!("{i}|name{i}|x|\n").as_bytes());
            }
        }
        let r = import_bytes(&data, &ImportOptions::default()).unwrap();
        assert_eq!(r.parse_errors, 1);
        assert_eq!(r.table.columns[1].value(150), Value::Null);
        assert_eq!(r.table.columns[1].value(149), Value::Str("name149".into()));
        assert_eq!(r.table.columns[1].value(151), Value::Str("name151".into()));
        assert_eq!(r.table.columns[2].value(150), Value::Str("x".into()));
    }

    #[test]
    fn short_rows_pad_with_nulls() {
        let data = b"1|a|\n2|\n3|c|\n";
        let r = import_bytes(data, &ImportOptions::default()).unwrap();
        assert_eq!(r.table.row_count(), 3);
        assert_eq!(r.table.columns[1].value(1), Value::Null);
    }
}
