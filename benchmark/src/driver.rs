//! Set-up and the closed loop: one client issues the next operation when
//! the previous one returns.
//!
//! Every workload runs the same *round* until the clock runs out:
//!
//! 1. the main query list;
//! 2. `Extract::import` of the flat file(s) and `save_paged`;
//! 3. fresh `PagedDatabase::open_with` + first query, several times;
//! 4. `DeltaExtract::open`, then per batch append rows, delete ids and
//!    two merged-scan queries; `compact` (+ save); two more queries.
//!
//! Every round starts from the same files, so its exact counts repeat
//! whatever the number of rounds the host manages in the time given.

use crate::oracle::{self, Answer, RowSet};
use crate::spans::Spans;
use crate::spec::{QuerySpec, Source};
use crate::workloads::{ExtraFile, Sizes, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use tde_core::Extract;
use tde_delta::{DeltaExtract, ScanSource};
use tde_pager::{PagedDatabase, PoolConfig};
use tde_storage::Table;
use tde_textscan::ImportOptions;
use tde_types::{DataType, Value};

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub inject_wrong_answer: bool,
    /// Scratch directory for generated files; removed at exit.
    pub dir: PathBuf,
    /// Where the traced run writes `trace-<workload>.json`, if anywhere.
    pub trace_out: Option<PathBuf>,
}

/// A query with the answer the oracle computed for it.
#[derive(Clone)]
pub struct Checked {
    pub spec: QuerySpec,
    pub expected: Answer,
}

pub struct Batch {
    pub rows: Vec<Vec<Value>>,
    pub deletes: Vec<u64>,
    /// The two refresh queries with their answers after this batch.
    pub queries: [Checked; 2],
    /// base + appended − deleted.
    pub merged_rows: u64,
}

/// Everything set-up produces; a round only reads it.
pub struct Ctx {
    pub w: Workload,
    pub sizes: Sizes,
    pub parallelism: usize,
    pub dir: PathBuf,
    /// The queried table, eager.
    pub main_table: Arc<Table>,
    /// The same table (for `import_refresh`: the imported extract) in the
    /// paged format — what cold opens open.
    pub main_file: PathBuf,
    /// `paged_cold`: the long-lived database over `main_file` whose pool
    /// holds a quarter of the bytes the query mix touches.
    pub main_db: Option<PagedDatabase>,
    pub main_source: Option<Source>,
    pub main_queries: Vec<Checked>,
    pub cold_query: Checked,
    pub life_name: String,
    pub life_schema: Vec<(String, DataType)>,
    pub life_rows: u64,
    pub text_path: PathBuf,
    pub text_bytes: u64,
    pub appended_bytes: u64,
    pub extra: Vec<ExtraFile>,
    pub life_file: PathBuf,
    pub batches: Vec<Batch>,
}

impl Ctx {
    /// Text bytes one import operation reads.
    pub fn import_bytes(&self) -> u64 {
        self.text_bytes + self.extra.iter().map(|e| e.bytes).sum::<u64>()
    }

    /// A digest of the operation list: equal seeds must give equal lists.
    pub fn op_list_digest(&self) -> u64 {
        let mut text = format!("{:?}", self.cold_query.spec);
        for q in &self.main_queries {
            text.push_str(&format!("{:?}", q.spec));
        }
        for b in &self.batches {
            let specs = [&b.queries[0].spec, &b.queries[1].spec];
            text.push_str(&format!("{specs:?}{:?}{:?}", b.rows.first(), b.deletes));
        }
        tde_obs::span::fnv1a64(&text)
    }
}

/// The samples of one position of the round script.
#[derive(Default)]
pub struct Site {
    /// Wall milliseconds, one per round (or cycle) that reached it.
    pub ms: Vec<f64>,
    /// Source-table rows under the operation, for queries.
    pub rows: u64,
}

/// Timed samples and the failure count of a run.
///
/// Samples are kept per *site*: an operation kind and its position in
/// the round script. Every round starts from the same files and pool
/// state, so the samples of one site time exactly the same work and
/// differ only by what else the host was doing.
pub struct Recorder {
    pub attempted: u64,
    pub failed: u64,
    pub sites: BTreeMap<(&'static str, usize), Site>,
    /// Bytes of the extract file `save_paged` wrote; must repeat exactly.
    pub stored_bytes: u64,
    pub spans: Spans,
    complaints: usize,
}

impl Recorder {
    pub fn new(traced: bool) -> Recorder {
        Recorder {
            attempted: 0,
            failed: 0,
            sites: BTreeMap::new(),
            stored_bytes: 0,
            spans: Spans::new(traced),
            complaints: 0,
        }
    }

    fn complain(&mut self, what: &str, why: &str) {
        self.failed += 1;
        self.complaints += 1;
        if self.complaints <= 5 {
            eprintln!("FAILED {what}: {why}");
        }
    }

    /// Run one operation: count it, time it, catch its panic. A failure
    /// (error or panic) counts once and yields `None`.
    pub fn op<R>(
        &mut self,
        kind: &'static str,
        position: usize,
        f: impl FnOnce() -> io::Result<R>,
    ) -> Option<R> {
        self.begin_op();
        let span = self.spans.begin(kind);
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(f));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.spans.end(span);
        self.settle(kind, position, ms, result)
    }

    /// Count an operation about to run.
    pub fn begin_op(&mut self) {
        self.attempted += 1;
        self.spans.op_id += 1;
    }

    /// Book the outcome of an operation: its sample, or its failure.
    pub fn settle<R>(
        &mut self,
        kind: &'static str,
        position: usize,
        ms: f64,
        result: std::thread::Result<io::Result<R>>,
    ) -> Option<R> {
        match result {
            Ok(Ok(r)) => {
                self.sites.entry((kind, position)).or_default().ms.push(ms);
                Some(r)
            }
            Ok(Err(e)) => {
                self.complain(kind, &e.to_string());
                None
            }
            Err(_) => {
                self.complain(kind, "panicked");
                None
            }
        }
    }

    /// Fail the operation just run when its output is wrong.
    pub fn verify(&mut self, what: &str, ok: bool) {
        if !ok {
            self.complain(what, "differs from what the oracle expects");
        }
    }

    /// One timed query through `Query::try_rows`, checked against the
    /// oracle.
    pub fn query(
        &mut self,
        kind: &'static str,
        position: usize,
        q: &Checked,
        src: &Source,
        parallelism: usize,
    ) {
        let query = q.spec.query(src, parallelism);
        if let Some(rows) = self.op(kind, position, || query.try_rows()) {
            self.verify(q.spec.template, answers(rows, q));
            if let Some(site) = self.sites.get_mut(&(kind, position)) {
                site.rows = src.rows();
            }
        }
    }
}

/// Import options naming the table and nothing else.
pub fn import_options(table: &str) -> ImportOptions {
    // Shipped defaults: encodings on, acceleration on, schema inferred.
    ImportOptions {
        table_name: table.to_owned(),
        ..ImportOptions::default()
    }
}

/// `Extract::import` of the round's flat files into one extract.
fn import_all(text: &std::path::Path, name: &str, extra: &[ExtraFile]) -> io::Result<Extract> {
    let mut ex = Extract::new();
    ex.import(text, &import_options(name))?;
    for file in extra {
        ex.import(&file.path, &import_options(&file.table))?;
    }
    Ok(ex)
}

fn import_is_right(ctx: &Ctx, ex: &Extract) -> bool {
    let tables = ex.tables();
    let schema: Vec<(String, DataType)> = tables[0]
        .columns
        .iter()
        .map(|c| (c.name.clone(), c.dtype))
        .collect();
    tables.len() == 1 + ctx.extra.len()
        && tables[0].row_count() == ctx.life_rows
        && schema == ctx.life_schema
        && tables[1..]
            .iter()
            .zip(&ctx.extra)
            .all(|(t, e)| t.row_count() == e.rows)
}

/// Data generation, table build and save, oracle answers and one
/// untimed warm-up round: everything before the first timed operation.
pub fn setup(opts: &Options, attempt: usize) -> io::Result<Ctx> {
    let w = opts.workload;
    let sizes = w.sizes(opts.smoke);
    let dir = opts.dir.join(format!("setup-{attempt}"));
    std::fs::create_dir_all(&dir)?;
    let life = w.life(opts.seed, &sizes, &dir)?;
    let refresh_specs = w.refresh_queries(&life.data);
    let base_rows = RowSet::Prefix(sizes.life_rows);

    let main_file = dir.join("main.tde");
    let (main_table, main_queries, mut cold_query) = match w.main_data(opts.seed, &sizes) {
        Some(data) => {
            let table = Arc::new(data.to_table(data.rows));
            let mut ex = Extract::new();
            ex.add_table((*table).clone());
            ex.save_paged(&main_file)?;
            let all = RowSet::Prefix(data.rows);
            let queries = w
                .main_queries(&data, opts.seed)
                .into_iter()
                .map(|spec| Checked {
                    expected: oracle::expected(&data, &all, &spec),
                    spec,
                })
                .collect::<Vec<_>>();
            let [spec, _] = w.refresh_queries(&data);
            let cold = Checked {
                expected: oracle::expected(&data, &all, &spec),
                spec,
            };
            (table, queries, cold)
        }
        None => {
            let ex = import_all(&life.text_path, &life.data.name, &life.extra)?;
            ex.save_paged(&main_file)?;
            let cold = Checked {
                expected: oracle::expected(&life.data, &base_rows, &refresh_specs[0]),
                spec: refresh_specs[0].clone(),
            };
            (Arc::new(ex.tables()[0].clone()), Vec::new(), cold)
        }
    };

    // The refresh script and a row-list model of the table it mutates.
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0xde1e7e);
    let mut ids: Vec<u64> = (0..sizes.life_rows as u64).collect();
    let mut deleted = vec![false; sizes.life_rows];
    let mut batches = Vec::with_capacity(sizes.batches);
    for b in 0..sizes.batches {
        let deletes: Vec<u64> = (0..sizes.batch_deletes)
            .map(|_| ids.swap_remove(rng.gen_range(0..ids.len())))
            .collect();
        for &d in &deletes {
            deleted[d as usize] = true;
        }
        let appended_end = sizes.life_rows + (b + 1) * sizes.batch_rows;
        let live: Vec<u32> = (0..sizes.life_rows)
            .filter(|&r| !deleted[r])
            .chain(sizes.life_rows..appended_end)
            .map(|r| r as u32)
            .collect();
        let rows = RowSet::List(&live);
        batches.push(Batch {
            rows: life
                .data
                .value_rows(appended_end - sizes.batch_rows..appended_end),
            deletes,
            queries: refresh_specs.clone().map(|spec| Checked {
                expected: oracle::expected(&life.data, &rows, &spec),
                spec,
            }),
            merged_rows: live.len() as u64,
        });
    }

    let mut main_queries = main_queries;
    if opts.inject_wrong_answer {
        oracle::corrupt(&mut cold_query.expected);
        if let Some(q) = main_queries.first_mut() {
            oracle::corrupt(&mut q.expected);
        }
        if let Some(b) = batches.first_mut() {
            oracle::corrupt(&mut b.queries[0].expected);
        }
    }

    let (main_db, main_source) = if w.main_is_paged() {
        let touched: u64 = {
            let mut names: Vec<&str> = main_queries
                .iter()
                .flat_map(|q| q.spec.columns.iter().map(String::as_str))
                .collect();
            names.sort_unstable();
            names.dedup();
            names
                .iter()
                .map(|n| main_table.column(n).map_or(0, |c| c.physical_size()))
                .sum()
        };
        let db = PagedDatabase::open_with(
            &main_file,
            PoolConfig {
                budget_bytes: touched / 4,
                ..PoolConfig::default()
            },
        )?;
        let table = db.table(&main_table.name).expect("saved table opens");
        (Some(db), Some(Source::Paged(table)))
    } else if main_queries.is_empty() {
        (None, None)
    } else {
        (None, Some(Source::Eager(Arc::clone(&main_table))))
    };

    let ctx = Ctx {
        w,
        sizes,
        parallelism: parallelism(),
        life_file: dir.join("life.tde"),
        dir,
        main_table,
        main_file,
        main_db,
        main_source,
        main_queries,
        cold_query,
        life_name: life.data.name.clone(),
        life_schema: life.data.schema(),
        life_rows: sizes.life_rows as u64,
        text_path: life.text_path,
        text_bytes: life.text_bytes,
        appended_bytes: life.appended_bytes,
        extra: life.extra,
        batches,
    };
    // Warm-up: every operation of the script once with nothing recorded,
    // so caches are filled and lazy initialisation is done before the
    // first timed operation.
    let mut scratch = Recorder::new(false);
    main_pass(&ctx, &mut scratch, 0);
    cycle(&ctx, &mut scratch);
    if scratch.failed > 0 && !opts.inject_wrong_answer {
        eprintln!("warm-up round: {} operation(s) failed", scratch.failed);
    }
    Ok(ctx)
}

/// The engine's parallel degree where the traced run issues the query
/// set in parallel: at most one thread per core, at most four.
pub fn parallelism() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// Whether the engine's `rows` are the oracle's answer to `q`.
pub fn answers(rows: Vec<Vec<Value>>, q: &Checked) -> bool {
    oracle::matches(&oracle::canonical(rows, q.spec.group_by.len()), &q.expected)
}

/// One round of the script. See the module comment.
pub fn round(ctx: &Ctx, rec: &mut Recorder) {
    for pass in 0..ctx.sizes.main_passes {
        main_pass(ctx, rec, pass);
    }
    for _ in 0..ctx.sizes.cycles {
        cycle(ctx, rec);
    }
}

/// The main query list once. Through the undersized pool a query finds
/// a different pool state in every pass of the round, so there each pass
/// has sites of its own.
fn main_pass(ctx: &Ctx, rec: &mut Recorder, pass: usize) {
    let Some(src) = &ctx.main_source else { return };
    let first = if ctx.w.main_is_paged() {
        pass * ctx.main_queries.len()
    } else {
        0
    };
    for (id, q) in ctx.main_queries.iter().enumerate() {
        rec.query("query", first + id, q, src, 1);
    }
}

/// Import → save → cold opens → refresh → compact. Every cycle starts
/// from the same flat files, so its sites pool over cycles and rounds.
fn cycle(ctx: &Ctx, rec: &mut Recorder) {
    let imported = rec.op("import", 0, || {
        import_all(&ctx.text_path, &ctx.life_name, &ctx.extra)
    });
    let Some(extract) = imported else { return };
    rec.verify("import", import_is_right(ctx, &extract));
    if rec
        .op("save", 0, || extract.save_paged(&ctx.life_file))
        .is_none()
    {
        return;
    }
    drop(extract);
    let stored = std::fs::metadata(&ctx.life_file).map_or(0, |m| m.len());
    rec.verify(
        "stored bytes repeat",
        rec.stored_bytes == 0 || rec.stored_bytes == stored,
    );
    rec.stored_bytes = stored;

    // Fresh opens: directory parse + first query on an empty pool.
    for k in 0..ctx.sizes.cold_opens {
        let opened = rec.op("cold_open", k, || {
            let db = PagedDatabase::open_with(&ctx.main_file, PoolConfig::default())?;
            let table = db
                .table(&ctx.main_table.name)
                .ok_or_else(|| io::Error::other("table missing from the directory"))?;
            ctx.cold_query
                .spec
                .query(&Source::Paged(table), 1)
                .try_rows()
        });
        if let Some(rows) = opened {
            rec.verify("cold_open", answers(rows, &ctx.cold_query));
        }
    }

    refresh(ctx, rec);
}

fn refresh(ctx: &Ctx, rec: &mut Recorder) {
    let name = ctx.life_name.as_str();
    let Some(mut dx) = rec.op("delta_open", 0, || DeltaExtract::open(&ctx.life_file)) else {
        return;
    };
    // The refresh queries are the workload's query set when it has no
    // separate main table, and only a check on the merged view otherwise.
    let kind = if ctx.main_source.is_none() {
        "query"
    } else {
        "query_refresh"
    };
    for (b, batch) in ctx.batches.iter().enumerate() {
        rec.op("append", b, || dx.delta_mut(name)?.append_rows(&batch.rows));
        if let Some(n) = rec.op("delete", b, || dx.delta_mut(name)?.delete(&batch.deletes)) {
            rec.verify("delete", n == batch.deletes.len() as u64);
        }
        let Some(ScanSource::Merged(merged)) = rec.op("snapshot", b, || dx.source(name)) else {
            rec.verify("snapshot", false);
            continue;
        };
        rec.verify("merged rows", merged.merged_rows() == batch.merged_rows);
        let src = Source::Merged(merged);
        for (j, q) in batch.queries.iter().enumerate() {
            rec.query(kind, 2 * b + j, q, &src, 1);
        }
    }
    if rec.spans.on {
        // The same two steps `DeltaExtract::compact` takes, timed apart.
        rec.op("delta.compact", 0, || {
            dx.delta_mut(name)?.compact().map(|t| t.row_count())
        });
        rec.op("delta.save", 0, || dx.save());
    } else if rec.op("compact", 0, || dx.compact(name)).is_none() {
        return;
    }
    let Some(last) = ctx.batches.last() else {
        return;
    };
    let Ok(ScanSource::Clean(table)) = dx.source(name) else {
        rec.verify("compaction leaves a clean table", false);
        return;
    };
    rec.verify("compacted rows", table.row_count() == last.merged_rows);
    let src = Source::Paged(table);
    for (j, q) in last.queries.iter().enumerate() {
        rec.query(kind, 2 * ctx.batches.len() + j, q, &src, 1);
    }
    let pool = dx.database().cache_snapshot();
    rec.verify(
        "the refreshed base stays resident",
        ctx.w != Workload::ImportRefresh || pool.evictions == 0,
    );
}

/// Set-ups per run; `setup_s` is the fastest of them.
pub const SETUPS: usize = 4;

/// The timed run: rounds with the benchmark's spans off until `seconds`
/// of rounds have passed.
///
/// Set-up runs `SETUPS` times, at the start and after each further
/// quarter of the rounds — the context is dropped and rebuilt from the
/// same seed, so the rounds go on over identical files — because the
/// neighbours' interference comes in phases of many seconds and set-ups
/// run back to back would all fall into the same one.
pub fn run_timed(opts: &Options) -> io::Result<()> {
    let timed_setup = |setups_s: &mut Vec<f64>| -> io::Result<Ctx> {
        let t0 = Instant::now();
        let ctx = setup(opts, setups_s.len())?;
        setups_s.push(t0.elapsed().as_secs_f64());
        Ok(ctx)
    };
    let mut setups_s = Vec::new();
    let mut ctx = timed_setup(&mut setups_s)?;
    let mut rec = Recorder::new(false);
    let (mut rounds, mut measured) = (0, 0.0);
    loop {
        let t0 = Instant::now();
        round(&ctx, &mut rec);
        measured += t0.elapsed().as_secs_f64();
        rounds += 1;
        if measured >= opts.seconds {
            break;
        }
        let done = setups_s.len();
        if done < SETUPS && measured >= opts.seconds * done as f64 / SETUPS as f64 {
            let old = ctx.dir.clone();
            drop(ctx);
            std::fs::remove_dir_all(old)?;
            ctx = timed_setup(&mut setups_s)?;
        }
    }
    eprintln!(
        "{}: {rounds} round(s) in {measured:.1} s, {} set-up(s), parallelism {}, nproc {}, \
         TDE_TRACE {:?}, TDE_METRICS {:?}",
        ctx.w.name(),
        setups_s.len(),
        ctx.parallelism,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        std::env::var("TDE_TRACE").ok(),
        std::env::var("TDE_METRICS").ok(),
    );
    if let Some(db) = &ctx.main_db {
        let pool = db.cache_snapshot();
        eprintln!(
            "{}: long-lived pool since the last set-up: {pool}",
            ctx.w.name()
        );
        if pool.evictions == 0 || !(0.3..=0.8).contains(&pool.hit_rate()) {
            eprintln!("{}: the pool is mis-sized for the query mix", ctx.w.name());
        }
    }
    let metrics = crate::report::end_to_end(&ctx, &rec, &setups_s);
    crate::report::print(ctx.w.name(), rec.attempted, rec.failed, &metrics);
    Ok(())
}
