//! Fuzz case specification.
//!
//! A [`CaseSpec`] is a self-contained description of one fuzz case: the
//! schema and concrete data, per-column build policies, the logical plan,
//! the metamorphic-partitioning predicate, and an optional metadata-bug
//! injection. Specs serialize to a small s-expression text format so a
//! failing case can be pinned verbatim into `tests/fuzz_corpus/` and
//! replayed without the generator.

use std::fmt::Write as _;
use std::sync::Arc;
use tde_core::Query;
use tde_encodings::metadata::Knowledge;
use tde_encodings::Algorithm;
use tde_exec::expr::CmpOp;
use tde_exec::sort::SortOrder;
use tde_exec::{AggFunc, Expr};
use tde_storage::{convert, Column, ColumnBuilder, Compression, EncodingPolicy, Table};
use tde_types::Value;

/// Column type. The fuzzer drives the two storage domains that matter:
/// sentinel-NULL scalars and heap-token strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColDtype {
    /// Integer scalars (sentinel NULLs).
    Int,
    /// Strings (heap tokens, token-0 NULLs).
    Str,
}

/// Named build-policy variants — the re-encoding axes of the metamorphic
/// oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Everything on (the production path).
    Default,
    /// Everything off (the paper's baseline). Integer columns only: an
    /// unaccelerated heap assigns duplicate tokens, which legitimately
    /// changes group identities.
    Baseline,
    /// No §3.4.3 heap sorting (tokens stay in append order).
    NoSortHeaps,
    /// No end-of-load conversion to the optimal encoding.
    NoConvert,
    /// Inner-join-side policy: random-access encodings only.
    InnerSide,
}

impl Policy {
    /// The storage-layer policy this variant names.
    pub fn encoding_policy(self) -> EncodingPolicy {
        match self {
            Policy::Default => EncodingPolicy::default(),
            Policy::Baseline => EncodingPolicy::baseline(),
            Policy::NoSortHeaps => EncodingPolicy {
                sort_heaps: false,
                ..EncodingPolicy::default()
            },
            Policy::NoConvert => EncodingPolicy {
                convert_to_optimal: false,
                ..EncodingPolicy::default()
            },
            Policy::InnerSide => EncodingPolicy::inner_side(),
        }
    }

    /// Stable text name (serialization, oracle labels).
    pub fn name(self) -> &'static str {
        match self {
            Policy::Default => "default",
            Policy::Baseline => "baseline",
            Policy::NoSortHeaps => "nosort",
            Policy::NoConvert => "noconvert",
            Policy::InnerSide => "inner",
        }
    }

    fn from_name(s: &str) -> Option<Policy> {
        Some(match s {
            "default" => Policy::Default,
            "baseline" => Policy::Baseline,
            "nosort" => Policy::NoSortHeaps,
            "noconvert" => Policy::NoConvert,
            "inner" => Policy::InnerSide,
            _ => return None,
        })
    }
}

/// The concrete values of one column. `None` entries are NULLs.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Integer values (`None` = NULL).
    Ints(Vec<Option<i64>>),
    /// String values (`None` = NULL).
    Strs(Vec<Option<String>>),
}

impl ColumnData {
    /// Row count.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Ints(v) => v.len(),
            ColumnData::Strs(v) => v.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keep only the rows whose index passes `keep` (shrinking).
    pub fn retain_rows(&mut self, keep: &dyn Fn(usize) -> bool) {
        match self {
            ColumnData::Ints(v) => {
                let mut i = 0;
                v.retain(|_| {
                    let k = keep(i);
                    i += 1;
                    k
                });
            }
            ColumnData::Strs(v) => {
                let mut i = 0;
                v.retain(|_| {
                    let k = keep(i);
                    i += 1;
                    k
                });
            }
        }
    }
}

/// One column: name, build policy, whether to attempt array
/// (dictionary-compression) conversion after the build, and the data.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSpec {
    /// Column name.
    pub name: String,
    /// Build-policy variant.
    pub policy: Policy,
    /// Convert a dictionary-*encoded* result to dictionary-*compressed*
    /// (`Compression::Array`) — the invisible-join enabler.
    pub array: bool,
    /// The values.
    pub data: ColumnData,
}

impl ColumnSpec {
    /// The column's type.
    pub fn dtype(&self) -> ColDtype {
        match self.data {
            ColumnData::Ints(_) => ColDtype::Int,
            ColumnData::Strs(_) => ColDtype::Str,
        }
    }

    /// Build the physical column under `policy` (or the spec's own).
    pub fn build(&self, policy: Policy) -> Column {
        let dtype = match self.dtype() {
            ColDtype::Int => tde_types::DataType::Integer,
            ColDtype::Str => tde_types::DataType::Str,
        };
        let mut b = ColumnBuilder::new(self.name.clone(), dtype, policy.encoding_policy());
        match &self.data {
            ColumnData::Ints(v) => {
                for x in v {
                    match x {
                        Some(x) => b.append_i64(*x),
                        None => b.append_value(&Value::Null),
                    }
                }
            }
            ColumnData::Strs(v) => {
                for s in v {
                    b.append_str(s.as_deref());
                }
            }
        }
        let mut col = b.finish().column;
        if self.array
            && matches!(col.compression, Compression::None)
            && col.data.algorithm() == Algorithm::Dictionary
        {
            convert::dict_encoding_to_compression(&mut col);
        }
        col
    }
}

/// One step of a buffered-mutation interleaving replayed against a
/// `tde-delta` [`DeltaTable`](tde_delta::DeltaTable) over the case's
/// base table. Appends derive their rows deterministically from the
/// salt, so the op list alone reproduces the exact mutation history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOpSpec {
    /// Append `count` rows derived from `salt`.
    Append {
        /// Rows to append.
        count: usize,
        /// Seed for the deterministic row derivation.
        salt: u64,
    },
    /// Delete the `count` row ids `start + k·step`, each wrapped modulo
    /// the addressable id space at execution time (so the op is valid
    /// whatever the interleaving did before it).
    Delete {
        /// First id in the arithmetic progression.
        start: u64,
        /// Progression stride (≥ 1).
        step: u64,
        /// Ids to delete.
        count: usize,
    },
    /// Drain the buffer through the dynamic encoder into a fresh base,
    /// renumbering the row-id space.
    Compact,
}

/// A predicate literal.
#[derive(Debug, Clone, PartialEq)]
pub enum LitSpec {
    /// Integer literal.
    Int(i64),
    /// String literal.
    Str(String),
    /// NULL literal.
    Null,
}

/// A serializable predicate over the current schema's columns.
#[derive(Debug, Clone, PartialEq)]
pub enum PredSpec {
    /// `col <op> lit`.
    Cmp(CmpOp, usize, LitSpec),
    /// Conjunction.
    And(Box<PredSpec>, Box<PredSpec>),
    /// Disjunction.
    Or(Box<PredSpec>, Box<PredSpec>),
    /// Negation (two-valued: negates the 0/1 result).
    Not(Box<PredSpec>),
    /// NULL test.
    IsNull(usize),
}

impl PredSpec {
    /// Lower to the executor's expression tree.
    pub fn expr(&self) -> Expr {
        match self {
            PredSpec::Cmp(op, col, lit) => {
                let lit = match lit {
                    LitSpec::Int(v) => Expr::Lit(Value::Int(*v)),
                    LitSpec::Str(s) => Expr::Lit(Value::Str(s.clone())),
                    LitSpec::Null => Expr::Lit(Value::Null),
                };
                Expr::cmp(*op, Expr::col(*col), lit)
            }
            PredSpec::And(a, b) => Expr::And(Box::new(a.expr()), Box::new(b.expr())),
            PredSpec::Or(a, b) => Expr::Or(Box::new(a.expr()), Box::new(b.expr())),
            PredSpec::Not(a) => Expr::Not(Box::new(a.expr())),
            PredSpec::IsNull(col) => Expr::IsNull(Box::new(Expr::col(*col))),
        }
    }

    /// Collect the column indexes the predicate references.
    pub fn referenced(&self, out: &mut Vec<usize>) {
        match self {
            PredSpec::Cmp(_, col, _) | PredSpec::IsNull(col) => out.push(*col),
            PredSpec::And(a, b) | PredSpec::Or(a, b) => {
                a.referenced(out);
                b.referenced(out);
            }
            PredSpec::Not(a) => a.referenced(out),
        }
    }
}

/// An aggregate function in a plan spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// Row count (NULLs included — `count(*)` semantics).
    Count,
    /// Wrapping integer sum, NULLs skipped.
    Sum,
    /// Minimum, NULLs skipped.
    Min,
    /// Maximum, NULLs skipped.
    Max,
}

impl AggKind {
    /// The executor's aggregate function.
    pub fn func(self) -> AggFunc {
        match self {
            AggKind::Count => AggFunc::Count,
            AggKind::Sum => AggFunc::Sum,
            AggKind::Min => AggFunc::Min,
            AggKind::Max => AggFunc::Max,
        }
    }

    fn name(self) -> &'static str {
        match self {
            AggKind::Count => "count",
            AggKind::Sum => "sum",
            AggKind::Min => "min",
            AggKind::Max => "max",
        }
    }

    fn from_name(s: &str) -> Option<AggKind> {
        Some(match s {
            "count" => AggKind::Count,
            "sum" => AggKind::Sum,
            "min" => AggKind::Min,
            "max" => AggKind::Max,
            _ => return None,
        })
    }
}

/// One logical plan operator above the scan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOpSpec {
    /// Row filter.
    Filter(PredSpec),
    /// Column subset / reorder.
    Project(Vec<usize>),
    /// Group + aggregate. Output schema: group columns, then one integer
    /// column per aggregate.
    Aggregate {
        /// Grouping key columns.
        group_by: Vec<usize>,
        /// `(function, input column, output name)`.
        aggs: Vec<(AggKind, usize, String)>,
    },
    /// Sort by `(column, ascending)` keys.
    Sort(Vec<(usize, bool)>),
}

/// Which metadata claim the injection corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectKind {
    /// Claim the column is sorted ascending.
    SortedClaim,
    /// Claim the column is dense + unique (+ sorted — the fetch-join
    /// enabling triple).
    DenseUnique,
    /// Claim a minimum above the true minimum (corrupt envelope).
    MinMax,
    /// Flip one byte of one of the column's on-disk segments — its
    /// stream, or the dictionary or heap beside it, as the seed picks.
    /// Unlike the metadata kinds this corrupts nothing in memory: the
    /// storage oracle saves the case, flips the byte, and the
    /// per-segment checksum must refuse the reload.
    SegmentByte,
}

impl InjectKind {
    fn name(self) -> &'static str {
        match self {
            InjectKind::SortedClaim => "sorted",
            InjectKind::DenseUnique => "dense-unique",
            InjectKind::MinMax => "min-max",
            InjectKind::SegmentByte => "segment-byte",
        }
    }

    /// Parse a CLI / corpus spelling.
    pub fn from_name(s: &str) -> Option<InjectKind> {
        Some(match s {
            "sorted" | "sorted-claim" => InjectKind::SortedClaim,
            "dense-unique" | "dense" => InjectKind::DenseUnique,
            "min-max" | "minmax" => InjectKind::MinMax,
            "segment-byte" | "segment" => InjectKind::SegmentByte,
            _ => return None,
        })
    }
}

/// A deliberate metadata bug applied after the build — the harness's
/// self-test that the invariant oracle actually bites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// Target column index.
    pub column: usize,
    /// Which claim to corrupt.
    pub kind: InjectKind,
}

/// A complete fuzz case.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseSpec {
    /// The generator seed (0 for handcrafted cases).
    pub seed: u64,
    /// The table's columns.
    pub columns: Vec<ColumnSpec>,
    /// Plan operators above the scan, bottom-up.
    pub plan: Vec<PlanOpSpec>,
    /// Buffered-mutation interleaving for the delta oracle (empty =
    /// the case never touches `tde-delta`).
    pub delta: Vec<DeltaOpSpec>,
    /// Predicate for the ternary-partitioning metamorphic oracle, over
    /// the *base* columns.
    pub tlp: Option<PredSpec>,
    /// Optional metadata-bug injection.
    pub inject: Option<Injection>,
}

impl CaseSpec {
    /// Row count of the base table.
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.data.len())
    }

    /// The schema (column types) after each plan operator, starting from
    /// the base table. Errors describe the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        let rows = self.rows();
        for c in &self.columns {
            if c.data.len() != rows {
                return Err(format!("column {} has ragged length", c.name));
            }
            if c.policy == Policy::Baseline && c.dtype() == ColDtype::Str {
                return Err(format!(
                    "column {}: baseline policy on a string column changes group identities",
                    c.name
                ));
            }
        }
        if self.columns.is_empty() {
            return Err("no columns".into());
        }
        let mut schema: Vec<ColDtype> = self.columns.iter().map(ColumnSpec::dtype).collect();
        if let Some(p) = &self.tlp {
            check_pred(p, &schema)?;
        }
        if let Some(inj) = &self.inject {
            if inj.column >= self.columns.len() {
                return Err("injection column out of range".into());
            }
        }
        for op in &self.delta {
            match op {
                DeltaOpSpec::Append { count: 0, .. } => {
                    return Err("delta append of zero rows".into())
                }
                DeltaOpSpec::Delete { step, count, .. } if *step == 0 || *count == 0 => {
                    return Err("delta delete wants a nonzero step and count".into())
                }
                _ => {}
            }
        }
        for op in &self.plan {
            match op {
                PlanOpSpec::Filter(p) => check_pred(p, &schema)?,
                PlanOpSpec::Project(cols) => {
                    if cols.is_empty() {
                        return Err("empty projection".into());
                    }
                    for &c in cols {
                        if c >= schema.len() {
                            return Err("projection column out of range".into());
                        }
                    }
                    schema = cols.iter().map(|&c| schema[c]).collect();
                }
                PlanOpSpec::Aggregate { group_by, aggs } => {
                    if aggs.is_empty() {
                        return Err("aggregate without aggregates".into());
                    }
                    for &g in group_by {
                        if g >= schema.len() {
                            return Err("group column out of range".into());
                        }
                    }
                    for (kind, col, _) in aggs {
                        if *col >= schema.len() {
                            return Err("aggregate column out of range".into());
                        }
                        if *kind != AggKind::Count && schema[*col] != ColDtype::Int {
                            // Sum/Min/Max over heap tokens aggregate in
                            // the token domain — only meaningful for
                            // integer columns.
                            return Err(format!("{} over a string column", kind.name()));
                        }
                    }
                    let mut next: Vec<ColDtype> = group_by.iter().map(|&g| schema[g]).collect();
                    next.extend(std::iter::repeat_n(ColDtype::Int, aggs.len()));
                    schema = next;
                }
                PlanOpSpec::Sort(keys) => {
                    if keys.is_empty() {
                        return Err("sort without keys".into());
                    }
                    for &(c, _) in keys {
                        if c >= schema.len() {
                            return Err("sort key out of range".into());
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Build the base table (spec policies, array conversions, injection).
    pub fn build_table(&self) -> Arc<Table> {
        self.build_table_with(None)
    }

    /// Build the base table, overriding every column's policy when
    /// `policy` is given (the re-encoding oracle's variants). The
    /// injection, when present, is re-applied after every build so
    /// shrinking preserves the failure.
    pub fn build_table_with(&self, policy: Option<Policy>) -> Arc<Table> {
        Arc::new(self.build_raw(policy))
    }

    /// As [`CaseSpec::build_table_with`], but returns the table unshared
    /// (the re-encoding oracle mutates column streams in place).
    pub fn build_raw(&self, policy: Option<Policy>) -> Table {
        let cols: Vec<Column> = self
            .columns
            .iter()
            .map(|c| c.build(policy.unwrap_or(c.policy)))
            .collect();
        let mut table = Table::new("t", cols);
        if let Some(inj) = self.inject {
            apply_injection(&mut table.columns[inj.column], inj.kind);
        }
        table
    }

    /// Apply the plan operators to a query rooted at some scan.
    pub fn apply_plan(&self, q: Query) -> Query {
        self.apply_plan_ops(q, &self.plan)
    }

    /// Apply a subset of plan operators (the metamorphic oracle uses the
    /// row-level prefix).
    pub fn apply_plan_ops(&self, mut q: Query, ops: &[PlanOpSpec]) -> Query {
        for op in ops {
            q = match op {
                PlanOpSpec::Filter(p) => q.filter(p.expr()),
                PlanOpSpec::Project(cols) => q.project(
                    cols.iter()
                        .enumerate()
                        .map(|(k, &c)| (format!("p{k}"), Expr::col(c)))
                        .collect(),
                ),
                PlanOpSpec::Aggregate { group_by, aggs } => q.aggregate(
                    group_by.clone(),
                    aggs.iter()
                        .map(|(kind, col, name)| (kind.func(), *col, name.as_str()))
                        .collect(),
                ),
                PlanOpSpec::Sort(keys) => q.sort(
                    keys.iter()
                        .map(|&(c, asc)| (c, if asc { SortOrder::Asc } else { SortOrder::Desc }))
                        .collect(),
                ),
            };
        }
        q
    }

    /// The row-level prefix of the plan: the operators before the first
    /// aggregate/sort, over which row-partitioning is exact.
    pub fn row_level_prefix(&self) -> &[PlanOpSpec] {
        let end = self
            .plan
            .iter()
            .position(|op| !matches!(op, PlanOpSpec::Filter(_) | PlanOpSpec::Project(_)))
            .unwrap_or(self.plan.len());
        &self.plan[..end]
    }
}

fn check_pred(p: &PredSpec, schema: &[ColDtype]) -> Result<(), String> {
    match p {
        PredSpec::Cmp(_, col, lit) => {
            let Some(dtype) = schema.get(*col) else {
                return Err("predicate column out of range".into());
            };
            match (dtype, lit) {
                (ColDtype::Int, LitSpec::Str(_)) | (ColDtype::Str, LitSpec::Int(_)) => {
                    Err("predicate literal type mismatch".into())
                }
                _ => Ok(()),
            }
        }
        PredSpec::And(a, b) | PredSpec::Or(a, b) => {
            check_pred(a, schema)?;
            check_pred(b, schema)
        }
        PredSpec::Not(a) => check_pred(a, schema),
        PredSpec::IsNull(col) => {
            if *col >= schema.len() {
                return Err("predicate column out of range".into());
            }
            Ok(())
        }
    }
}

fn apply_injection(col: &mut Column, kind: InjectKind) {
    match kind {
        InjectKind::SortedClaim => col.metadata.sorted_asc = Knowledge::True,
        InjectKind::DenseUnique => {
            col.metadata.sorted_asc = Knowledge::True;
            col.metadata.dense = Knowledge::True;
            col.metadata.unique = Knowledge::True;
            if col.metadata.min.is_none() {
                col.metadata.min = Some(0);
            }
        }
        InjectKind::MinMax => {
            let lo = col.data.decode_all().into_iter().min().unwrap_or(0);
            col.metadata.min = Some(lo.saturating_add(1));
        }
        // The corruption happens on disk, applied by the segment-byte
        // oracle after the save; the in-memory build stays pristine.
        InjectKind::SegmentByte => {}
    }
}

// ---------------------------------------------------------------------
// Text serialization: a small s-expression format.
// ---------------------------------------------------------------------

/// A parsed s-expression node.
#[derive(Debug, Clone, PartialEq)]
enum Sexp {
    Atom(String),
    Str(String),
    List(Vec<Sexp>),
}

impl Sexp {
    fn list(&self) -> Result<&[Sexp], String> {
        match self {
            Sexp::List(items) => Ok(items),
            other => Err(format!("expected list, got {other:?}")),
        }
    }

    fn atom(&self) -> Result<&str, String> {
        match self {
            Sexp::Atom(s) => Ok(s),
            other => Err(format!("expected atom, got {other:?}")),
        }
    }

    fn string(&self) -> Result<&str, String> {
        match self {
            Sexp::Str(s) => Ok(s),
            other => Err(format!("expected string, got {other:?}")),
        }
    }

    fn int(&self) -> Result<i64, String> {
        self.atom()?
            .parse()
            .map_err(|_| format!("expected integer, got {self:?}"))
    }

    fn index(&self) -> Result<usize, String> {
        self.atom()?
            .parse()
            .map_err(|_| format!("expected index, got {self:?}"))
    }

    fn uint(&self) -> Result<u64, String> {
        self.atom()?
            .parse()
            .map_err(|_| format!("expected unsigned integer, got {self:?}"))
    }
}

fn tokenize(text: &str) -> Result<Vec<Sexp>, String> {
    // A tiny recursive-descent reader over the char stream.
    struct Reader<'a> {
        chars: std::iter::Peekable<std::str::Chars<'a>>,
    }
    impl Reader<'_> {
        fn skip_ws(&mut self) {
            while let Some(&c) = self.chars.peek() {
                if c == ';' {
                    for c in self.chars.by_ref() {
                        if c == '\n' {
                            break;
                        }
                    }
                } else if c.is_whitespace() {
                    self.chars.next();
                } else {
                    break;
                }
            }
        }

        fn read(&mut self) -> Result<Option<Sexp>, String> {
            self.skip_ws();
            let Some(&c) = self.chars.peek() else {
                return Ok(None);
            };
            match c {
                '(' => {
                    self.chars.next();
                    let mut items = Vec::new();
                    loop {
                        self.skip_ws();
                        match self.chars.peek() {
                            Some(')') => {
                                self.chars.next();
                                return Ok(Some(Sexp::List(items)));
                            }
                            Some(_) => match self.read()? {
                                Some(s) => items.push(s),
                                None => return Err("unterminated list".into()),
                            },
                            None => return Err("unterminated list".into()),
                        }
                    }
                }
                ')' => Err("unbalanced ')'".into()),
                '"' => {
                    self.chars.next();
                    let mut s = String::new();
                    loop {
                        match self.chars.next() {
                            Some('"') => return Ok(Some(Sexp::Str(s))),
                            Some('\\') => match self.chars.next() {
                                Some(c @ ('"' | '\\')) => s.push(c),
                                Some('n') => s.push('\n'),
                                _ => return Err("bad escape".into()),
                            },
                            Some(c) => s.push(c),
                            None => return Err("unterminated string".into()),
                        }
                    }
                }
                _ => {
                    let mut s = String::new();
                    while let Some(&c) = self.chars.peek() {
                        if c.is_whitespace() || c == '(' || c == ')' || c == '"' || c == ';' {
                            break;
                        }
                        s.push(c);
                        self.chars.next();
                    }
                    Ok(Some(Sexp::Atom(s)))
                }
            }
        }
    }
    let mut r = Reader {
        chars: text.chars().peekable(),
    };
    let mut out = Vec::new();
    while let Some(s) = r.read()? {
        out.push(s);
    }
    Ok(out)
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cmp_name(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "eq",
        CmpOp::Ne => "ne",
        CmpOp::Lt => "lt",
        CmpOp::Le => "le",
        CmpOp::Gt => "gt",
        CmpOp::Ge => "ge",
    }
}

fn cmp_from_name(s: &str) -> Option<CmpOp> {
    Some(match s {
        "eq" => CmpOp::Eq,
        "ne" => CmpOp::Ne,
        "lt" => CmpOp::Lt,
        "le" => CmpOp::Le,
        "gt" => CmpOp::Gt,
        "ge" => CmpOp::Ge,
        _ => return None,
    })
}

fn write_pred(out: &mut String, p: &PredSpec) {
    match p {
        PredSpec::Cmp(op, col, lit) => {
            let lit = match lit {
                LitSpec::Int(v) => format!("(int {v})"),
                LitSpec::Str(s) => format!("(str {})", quote(s)),
                LitSpec::Null => "null".to_string(),
            };
            let _ = write!(out, "({} {col} {lit})", cmp_name(*op));
        }
        PredSpec::And(a, b) | PredSpec::Or(a, b) => {
            let name = if matches!(p, PredSpec::And(..)) {
                "and"
            } else {
                "or"
            };
            let _ = write!(out, "({name} ");
            write_pred(out, a);
            out.push(' ');
            write_pred(out, b);
            out.push(')');
        }
        PredSpec::Not(a) => {
            out.push_str("(not ");
            write_pred(out, a);
            out.push(')');
        }
        PredSpec::IsNull(col) => {
            let _ = write!(out, "(isnull {col})");
        }
    }
}

fn parse_pred(s: &Sexp) -> Result<PredSpec, String> {
    let items = s.list()?;
    let head = items
        .first()
        .ok_or_else(|| "empty predicate".to_string())?
        .atom()?;
    match head {
        "and" | "or" => {
            if items.len() != 3 {
                return Err(format!("{head} wants 2 operands"));
            }
            let a = Box::new(parse_pred(&items[1])?);
            let b = Box::new(parse_pred(&items[2])?);
            Ok(if head == "and" {
                PredSpec::And(a, b)
            } else {
                PredSpec::Or(a, b)
            })
        }
        "not" => {
            if items.len() != 2 {
                return Err("not wants 1 operand".into());
            }
            Ok(PredSpec::Not(Box::new(parse_pred(&items[1])?)))
        }
        "isnull" => {
            if items.len() != 2 {
                return Err("isnull wants a column".into());
            }
            Ok(PredSpec::IsNull(items[1].index()?))
        }
        op => {
            let op = cmp_from_name(op).ok_or_else(|| format!("unknown predicate head {op}"))?;
            if items.len() != 3 {
                return Err("comparison wants column and literal".into());
            }
            let col = items[1].index()?;
            let lit = match &items[2] {
                Sexp::Atom(a) if a == "null" => LitSpec::Null,
                Sexp::List(l) if l.len() == 2 && l[0] == Sexp::Atom("int".into()) => {
                    LitSpec::Int(l[1].int()?)
                }
                Sexp::List(l) if l.len() == 2 && l[0] == Sexp::Atom("str".into()) => {
                    LitSpec::Str(l[1].string()?.to_owned())
                }
                other => return Err(format!("bad literal {other:?}")),
            };
            Ok(PredSpec::Cmp(op, col, lit))
        }
    }
}

impl CaseSpec {
    /// Serialize to the corpus text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("; tde-fuzz case (replay: cargo run -p tde-fuzz -- --replay <file>)\n");
        out.push_str("(case\n");
        let _ = writeln!(out, "  (seed {})", self.seed);
        for c in &self.columns {
            let _ = write!(
                out,
                "  (col {} {} {} {} (",
                quote(&c.name),
                match c.dtype() {
                    ColDtype::Int => "int",
                    ColDtype::Str => "str",
                },
                c.policy.name(),
                if c.array { "array" } else { "plain" }
            );
            match &c.data {
                ColumnData::Ints(v) => {
                    for (i, x) in v.iter().enumerate() {
                        if i > 0 {
                            out.push(' ');
                        }
                        match x {
                            Some(x) => {
                                let _ = write!(out, "{x}");
                            }
                            None => out.push('?'),
                        }
                    }
                }
                ColumnData::Strs(v) => {
                    for (i, x) in v.iter().enumerate() {
                        if i > 0 {
                            out.push(' ');
                        }
                        match x {
                            Some(x) => out.push_str(&quote(x)),
                            None => out.push('?'),
                        }
                    }
                }
            }
            out.push_str("))\n");
        }
        out.push_str("  (plan");
        for op in &self.plan {
            out.push_str("\n    ");
            match op {
                PlanOpSpec::Filter(p) => {
                    out.push_str("(filter ");
                    write_pred(&mut out, p);
                    out.push(')');
                }
                PlanOpSpec::Project(cols) => {
                    out.push_str("(project");
                    for c in cols {
                        let _ = write!(out, " {c}");
                    }
                    out.push(')');
                }
                PlanOpSpec::Aggregate { group_by, aggs } => {
                    out.push_str("(aggregate (group");
                    for g in group_by {
                        let _ = write!(out, " {g}");
                    }
                    out.push_str(") (aggs");
                    for (kind, col, name) in aggs {
                        let _ = write!(out, " ({} {col} {})", kind.name(), quote(name));
                    }
                    out.push_str("))");
                }
                PlanOpSpec::Sort(keys) => {
                    out.push_str("(sort");
                    for &(c, asc) in keys {
                        let _ = write!(out, " ({c} {})", if asc { "asc" } else { "desc" });
                    }
                    out.push(')');
                }
            }
        }
        out.push_str(")\n");
        if !self.delta.is_empty() {
            out.push_str("  (delta");
            for op in &self.delta {
                out.push_str("\n    ");
                match op {
                    DeltaOpSpec::Append { count, salt } => {
                        let _ = write!(out, "(append {count} {salt})");
                    }
                    DeltaOpSpec::Delete { start, step, count } => {
                        let _ = write!(out, "(delete {start} {step} {count})");
                    }
                    DeltaOpSpec::Compact => out.push_str("(compact)"),
                }
            }
            out.push_str(")\n");
        }
        if let Some(p) = &self.tlp {
            out.push_str("  (tlp ");
            write_pred(&mut out, p);
            out.push_str(")\n");
        }
        if let Some(inj) = &self.inject {
            let _ = writeln!(out, "  (inject {} {})", inj.kind.name(), inj.column);
        }
        out.push_str(")\n");
        out
    }

    /// Parse the corpus text format.
    pub fn parse(text: &str) -> Result<CaseSpec, String> {
        let top = tokenize(text)?;
        let [case] = top.as_slice() else {
            return Err("expected one (case …) form".into());
        };
        let items = case.list()?;
        if items.first().map(|s| s.atom()) != Some(Ok("case")) {
            return Err("expected (case …)".into());
        }
        let mut spec = CaseSpec {
            seed: 0,
            columns: Vec::new(),
            plan: Vec::new(),
            delta: Vec::new(),
            tlp: None,
            inject: None,
        };
        for item in &items[1..] {
            let parts = item.list()?;
            let head = parts
                .first()
                .ok_or_else(|| "empty form".to_string())?
                .atom()?;
            match head {
                "seed" => {
                    spec.seed = parts
                        .get(1)
                        .ok_or("seed wants a value")?
                        .atom()?
                        .parse()
                        .map_err(|_| "bad seed")?;
                }
                "col" => {
                    if parts.len() != 6 {
                        return Err("col wants name/type/policy/compression/values".into());
                    }
                    let name = parts[1].string()?.to_owned();
                    let dtype = parts[2].atom()?;
                    let policy = Policy::from_name(parts[3].atom()?)
                        .ok_or_else(|| format!("unknown policy {:?}", parts[3]))?;
                    let array = match parts[4].atom()? {
                        "array" => true,
                        "plain" => false,
                        other => return Err(format!("unknown compression {other}")),
                    };
                    let vals = parts[5].list()?;
                    let data = match dtype {
                        "int" => ColumnData::Ints(
                            vals.iter()
                                .map(|v| match v {
                                    Sexp::Atom(a) if a == "?" => Ok(None),
                                    v => v.int().map(Some),
                                })
                                .collect::<Result<_, String>>()?,
                        ),
                        "str" => ColumnData::Strs(
                            vals.iter()
                                .map(|v| match v {
                                    Sexp::Atom(a) if a == "?" => Ok(None),
                                    v => v.string().map(|s| Some(s.to_owned())),
                                })
                                .collect::<Result<_, String>>()?,
                        ),
                        other => return Err(format!("unknown column type {other}")),
                    };
                    spec.columns.push(ColumnSpec {
                        name,
                        policy,
                        array,
                        data,
                    });
                }
                "plan" => {
                    for op in &parts[1..] {
                        let op_parts = op.list()?;
                        let op_head = op_parts
                            .first()
                            .ok_or_else(|| "empty plan op".to_string())?
                            .atom()?;
                        let op = match op_head {
                            "filter" => {
                                if op_parts.len() != 2 {
                                    return Err("filter wants a predicate".into());
                                }
                                PlanOpSpec::Filter(parse_pred(&op_parts[1])?)
                            }
                            "project" => PlanOpSpec::Project(
                                op_parts[1..]
                                    .iter()
                                    .map(Sexp::index)
                                    .collect::<Result<_, String>>()?,
                            ),
                            "aggregate" => {
                                if op_parts.len() != 3 {
                                    return Err("aggregate wants (group …) (aggs …)".into());
                                }
                                let group = op_parts[1].list()?;
                                if group.first().map(|s| s.atom()) != Some(Ok("group")) {
                                    return Err("expected (group …)".into());
                                }
                                let aggs_form = op_parts[2].list()?;
                                if aggs_form.first().map(|s| s.atom()) != Some(Ok("aggs")) {
                                    return Err("expected (aggs …)".into());
                                }
                                let group_by = group[1..]
                                    .iter()
                                    .map(Sexp::index)
                                    .collect::<Result<_, String>>()?;
                                let aggs = aggs_form[1..]
                                    .iter()
                                    .map(|a| {
                                        let a = a.list()?;
                                        if a.len() != 3 {
                                            return Err("agg wants (func col name)".to_string());
                                        }
                                        let kind =
                                            AggKind::from_name(a[0].atom()?).ok_or_else(|| {
                                                format!("unknown aggregate {:?}", a[0])
                                            })?;
                                        Ok((kind, a[1].index()?, a[2].string()?.to_owned()))
                                    })
                                    .collect::<Result<_, String>>()?;
                                PlanOpSpec::Aggregate { group_by, aggs }
                            }
                            "sort" => PlanOpSpec::Sort(
                                op_parts[1..]
                                    .iter()
                                    .map(|k| {
                                        let k = k.list()?;
                                        if k.len() != 2 {
                                            return Err("sort key wants (col dir)".to_string());
                                        }
                                        let asc = match k[1].atom()? {
                                            "asc" => true,
                                            "desc" => false,
                                            other => {
                                                return Err(format!("unknown direction {other}"))
                                            }
                                        };
                                        Ok((k[0].index()?, asc))
                                    })
                                    .collect::<Result<_, String>>()?,
                            ),
                            other => return Err(format!("unknown plan op {other}")),
                        };
                        spec.plan.push(op);
                    }
                }
                "delta" => {
                    for op in &parts[1..] {
                        let op_parts = op.list()?;
                        let op_head = op_parts
                            .first()
                            .ok_or_else(|| "empty delta op".to_string())?
                            .atom()?;
                        let op = match op_head {
                            "append" => {
                                if op_parts.len() != 3 {
                                    return Err("append wants count and salt".into());
                                }
                                DeltaOpSpec::Append {
                                    count: op_parts[1].index()?,
                                    salt: op_parts[2].uint()?,
                                }
                            }
                            "delete" => {
                                if op_parts.len() != 4 {
                                    return Err("delete wants start, step and count".into());
                                }
                                DeltaOpSpec::Delete {
                                    start: op_parts[1].uint()?,
                                    step: op_parts[2].uint()?,
                                    count: op_parts[3].index()?,
                                }
                            }
                            "compact" => {
                                if op_parts.len() != 1 {
                                    return Err("compact takes no operands".into());
                                }
                                DeltaOpSpec::Compact
                            }
                            other => return Err(format!("unknown delta op {other}")),
                        };
                        spec.delta.push(op);
                    }
                }
                "tlp" => {
                    if parts.len() != 2 {
                        return Err("tlp wants a predicate".into());
                    }
                    spec.tlp = Some(parse_pred(&parts[1])?);
                }
                "inject" => {
                    if parts.len() != 3 {
                        return Err("inject wants kind and column".into());
                    }
                    let kind = InjectKind::from_name(parts[1].atom()?)
                        .ok_or_else(|| format!("unknown injection {:?}", parts[1]))?;
                    spec.inject = Some(Injection {
                        column: parts[2].index()?,
                        kind,
                    });
                }
                other => return Err(format!("unknown form {other}")),
            }
        }
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CaseSpec {
        CaseSpec {
            seed: 42,
            columns: vec![
                ColumnSpec {
                    name: "c0".into(),
                    policy: Policy::Default,
                    array: true,
                    data: ColumnData::Ints(vec![Some(1), Some(1), None, Some(4)]),
                },
                ColumnSpec {
                    name: "c1".into(),
                    policy: Policy::NoSortHeaps,
                    array: false,
                    data: ColumnData::Strs(vec![
                        Some("b ravo".into()),
                        Some("alpha".into()),
                        None,
                        Some("alpha".into()),
                    ]),
                },
            ],
            plan: vec![
                PlanOpSpec::Filter(PredSpec::Or(
                    Box::new(PredSpec::Cmp(CmpOp::Ge, 0, LitSpec::Int(1))),
                    Box::new(PredSpec::Not(Box::new(PredSpec::IsNull(1)))),
                )),
                PlanOpSpec::Project(vec![1, 0]),
                PlanOpSpec::Aggregate {
                    group_by: vec![0],
                    aggs: vec![
                        (AggKind::Count, 1, "n".into()),
                        (AggKind::Sum, 1, "s".into()),
                    ],
                },
                PlanOpSpec::Sort(vec![(1, false), (0, true)]),
            ],
            delta: vec![
                DeltaOpSpec::Append {
                    count: 3,
                    salt: u64::MAX,
                },
                DeltaOpSpec::Delete {
                    start: 1,
                    step: 2,
                    count: 2,
                },
                DeltaOpSpec::Compact,
            ],
            tlp: Some(PredSpec::Cmp(CmpOp::Eq, 1, LitSpec::Str("alpha".into()))),
            inject: Some(Injection {
                column: 0,
                kind: InjectKind::SortedClaim,
            }),
        }
    }

    #[test]
    fn text_roundtrip_is_identity() {
        let spec = sample();
        spec.validate().unwrap();
        let text = spec.to_text();
        let back = CaseSpec::parse(&text).unwrap();
        assert_eq!(spec, back);
        // Idempotent: a reserialized parse is byte-identical.
        assert_eq!(text, back.to_text());
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut spec = sample();
        spec.plan.push(PlanOpSpec::Sort(vec![(9, true)]));
        assert!(spec.validate().is_err());
        let mut spec = sample();
        spec.delta.push(DeltaOpSpec::Delete {
            start: 0,
            step: 0,
            count: 1,
        });
        assert!(spec.validate().is_err());
        let mut spec = sample();
        spec.columns[1].data = ColumnData::Strs(vec![None]);
        assert!(spec.validate().is_err());
        let mut spec = sample();
        spec.tlp = Some(PredSpec::Cmp(CmpOp::Eq, 1, LitSpec::Int(3)));
        assert!(spec.validate().is_err());
    }

    #[test]
    fn build_applies_injection() {
        let spec = sample();
        let t = spec.build_table();
        assert!(t.columns[0].metadata.sorted_asc.is_true());
        assert_eq!(t.row_count(), 4);
    }
}
