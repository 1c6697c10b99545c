//! Execution blocks and schemas.
//!
//! Inside the engine every column is a vector of `i64` in one of three
//! *representations*: plain scalars (with `Real` as bit patterns), heap
//! tokens, or dictionary indexes. The representation travels in the
//! schema, not the block, so blocks stay plain buffers. Keeping
//! compressed representations flowing between operators — instead of
//! widening the inter-operator interfaces — is exactly what the invisible
//! join formulation buys (paper §4.1.1).

use std::sync::Arc;
use tde_encodings::{ColumnMetadata, Selection};
use tde_storage::StringHeap;
use tde_types::sentinel::{NULL_I64, NULL_TOKEN};
use tde_types::{DataType, Value};

/// How a column's `i64` values map to logical values.
#[derive(Debug, Clone)]
pub enum Repr {
    /// Scalar of the field's data type (`Real` travels as `f64` bits).
    Scalar,
    /// Byte-offset token into a frozen string heap.
    Token(Arc<StringHeap>),
    /// Byte-offset token into a *growing* compute heap — produced by
    /// string functions mid-query (§4.1.2); FlowTable freezes it.
    TokenCell(Arc<parking_lot::RwLock<StringHeap>>),
    /// Index into a dictionary. An array-compressed column's indexes
    /// point into its scalar dictionary (§2.3.2), and the field is `None`;
    /// a left join may put the scalar NULL sentinel among them. A
    /// dictionary-encoded stream's codes, which a scan hands an aggregate
    /// undecoded, point into the stream's entries — stored values of the
    /// field given, scalars or heap tokens (see [`Field::codes`]).
    DictIndex(Arc<Vec<i64>>, Option<Arc<Field>>),
}

impl Repr {
    /// Whether this is the scalar representation.
    pub fn is_scalar(&self) -> bool {
        matches!(self, Repr::Scalar)
    }
}

/// One column of an operator's output.
#[derive(Debug, Clone)]
pub struct Field {
    /// Column name.
    pub name: String,
    /// Logical type.
    pub dtype: DataType,
    /// Value representation.
    pub repr: Repr,
    /// Metadata the upstream operator can assert about this column — the
    /// carrier of the tactical optimizer's knowledge (§3.4.2).
    pub metadata: ColumnMetadata,
}

impl Field {
    /// A scalar field with unknown metadata.
    pub fn scalar(name: impl Into<String>, dtype: DataType) -> Field {
        Field {
            name: name.into(),
            dtype,
            repr: Repr::Scalar,
            metadata: ColumnMetadata::unknown(),
        }
    }

    /// Materialize a stored `i64` as a boxed [`Value`].
    pub fn value_of(&self, raw: i64) -> Value {
        match &self.repr {
            Repr::Scalar => match self.dtype {
                DataType::Real => {
                    let f = f64::from_bits(raw as u64);
                    if tde_types::is_null_real(f) {
                        Value::Null
                    } else {
                        Value::Real(f)
                    }
                }
                dt => Value::from_i64(dt, raw),
            },
            Repr::Token(heap) => {
                if raw as u64 == NULL_TOKEN {
                    Value::Null
                } else {
                    Value::Str(heap.get_raw(raw as u64).to_owned())
                }
            }
            Repr::TokenCell(cell) => {
                if raw as u64 == NULL_TOKEN {
                    Value::Null
                } else {
                    Value::Str(cell.read().get_raw(raw as u64).to_owned())
                }
            }
            Repr::DictIndex(_, None) if raw == NULL_I64 => Value::Null,
            Repr::DictIndex(dict, None) => Value::from_i64(self.dtype, dict[raw as usize]),
            Repr::DictIndex(entries, Some(values)) => values.value_of(entries[raw as usize]),
        }
    }

    /// The field of this one's codes, when its stored stream is
    /// dictionary-encoded with `entries`: each row holds the index of its
    /// stored value among the entries. Entries are distinct, so grouping
    /// on codes groups exactly as on values, and the codes span
    /// `[0, entries)` — what the hash strategy packs (§2.3.4).
    pub fn codes(&self, entries: Vec<i64>) -> Field {
        let max = entries.len() as i64 - 1;
        Field {
            name: self.name.clone(),
            dtype: self.dtype,
            metadata: ColumnMetadata {
                min: (max >= 0).then_some(0),
                max: (max >= 0).then_some(max),
                ..ColumnMetadata::unknown()
            },
            repr: Repr::DictIndex(Arc::new(entries), Some(Arc::new(self.clone()))),
        }
    }

    /// The field whose stored values a [codes](Field::codes) field's
    /// entries are, or `None` for any other field.
    pub fn decoded(&self) -> Option<(&Arc<Vec<i64>>, &Field)> {
        match &self.repr {
            Repr::DictIndex(entries, Some(values)) => Some((entries, values)),
            _ => None,
        }
    }
}

/// The NULL sentinel in a field's stored `i64` domain.
pub fn null_raw(field: &Field) -> i64 {
    match (&field.repr, field.dtype) {
        (Repr::Token(_) | Repr::TokenCell(_), _) => NULL_TOKEN as i64,
        (Repr::Scalar, DataType::Real) => tde_types::sentinel::null_real().to_bits() as i64,
        // Dictionary indexes have no NULL slot; NULLs surface as the
        // scalar sentinel after expansion.
        _ => tde_types::sentinel::NULL_I64,
    }
}

/// An operator's output shape.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    /// The fields.
    pub fields: Vec<Field>,
}

impl Schema {
    /// Build from fields.
    pub fn new(fields: Vec<Field>) -> Schema {
        Schema { fields }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether there are no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of a field by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }
}

/// A block of rows: one `i64` vector per column, each `len` long — or
/// empty, for a column nothing above the scan reads
/// ([`crate::Need::None`]): the scan never gathers it, but carries it at
/// its position so no column index above changes.
///
/// A *run-carrying* block also has `weights`: its row `i` stands for
/// `weights[i]` identical consecutive rows — a segment over which every
/// column of a run-length scan holds one value (paper §4.2, RLE as a
/// (value, length) pair of columns). Only a scan asked for runs
/// ([`crate::scan::TableScan::with_runs`],
/// [`crate::indexed_scan::IndexedScan::with_runs`]) produces one, a
/// column-reorder [`crate::project::Project`] passes it on, and
/// [`crate::aggregate::AggCore`] is its only consumer; every other
/// operator reads rows.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Column vectors.
    pub columns: Vec<Vec<i64>>,
    /// Row count (segments, in a run-carrying block).
    pub len: usize,
    /// Rows each row stands for, in a run-carrying block.
    pub weights: Option<Vec<u64>>,
}

impl Block {
    /// An empty block shaped for `ncols` columns.
    pub fn empty(ncols: usize) -> Block {
        Block::new(vec![Vec::new(); ncols])
    }

    /// Build from column vectors: as many rows as the longest holds.
    pub fn new(columns: Vec<Vec<i64>>) -> Block {
        let len = columns.iter().map(Vec::len).max().unwrap_or(0);
        debug_assert!(columns
            .iter()
            .all(|c| Block::carries(c, len) || c.is_empty()));
        Block {
            columns,
            len,
            weights: None,
        }
    }

    /// Whether `column` holds the `len` rows of its block; one that does
    /// not is a dropped column's empty vector.
    fn carries(column: &[i64], len: usize) -> bool {
        column.len() == len
    }

    /// The rows the block stands for: `len`, or the sum of its weights.
    pub fn rows(&self) -> u64 {
        match &self.weights {
            Some(w) => w.iter().sum(),
            None => self.len as u64,
        }
    }

    /// Keep only the rows `sel` (a selection over this block) selects,
    /// compacting each carried column (and the weights) once.
    pub fn select(&mut self, sel: &Selection) {
        debug_assert_eq!(sel.rows(), self.len);
        if sel.positions().is_none() {
            return;
        }
        for col in &mut self.columns {
            if Block::carries(col, self.len) {
                sel.compact(col);
            }
        }
        if let Some(w) = &mut self.weights {
            sel.compact(w);
        }
        self.len = sel.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_select() {
        let mut b = Block::new(vec![vec![1, 2, 3, 4], vec![10, 20, 30, 40]]);
        let mut sel = Selection::all(4);
        sel.retain(|r| r % 2 == 0);
        b.select(&sel);
        assert_eq!(b.len, 2);
        assert_eq!(b.columns[0], vec![1, 3]);
        assert_eq!(b.columns[1], vec![10, 30]);
        assert_eq!(b.rows(), 2);

        let mut runs = Block::new(vec![vec![1, 2, 3]]);
        runs.weights = Some(vec![5, 1, 7]);
        assert_eq!(runs.rows(), 13);
        let mut sel = Selection::all(3);
        sel.retain(|r| r != 1);
        runs.select(&sel);
        assert_eq!(runs.columns[0], vec![1, 3]);
        assert_eq!(runs.weights, Some(vec![5, 7]));
        assert_eq!(runs.rows(), 12);

        // A dropped column stays empty, wherever it sits.
        let mut b = Block::new(vec![vec![], vec![1, 2, 3]]);
        assert_eq!(b.len, 3);
        let mut sel = Selection::all(3);
        sel.retain(|r| r != 0);
        b.select(&sel);
        assert_eq!((b.len, b.columns), (2, vec![vec![], vec![2, 3]]));
    }

    #[test]
    fn field_value_materialization() {
        let f = Field::scalar("x", DataType::Integer);
        assert_eq!(f.value_of(5), Value::Int(5));

        let mut heap = StringHeap::new();
        let t = heap.append("hi") as i64;
        let f = Field {
            name: "s".into(),
            dtype: DataType::Str,
            repr: Repr::Token(Arc::new(heap)),
            metadata: ColumnMetadata::unknown(),
        };
        assert_eq!(f.value_of(t), Value::Str("hi".into()));
        assert_eq!(f.value_of(0), Value::Null);

        let f = Field {
            name: "d".into(),
            dtype: DataType::Integer,
            repr: Repr::DictIndex(Arc::new(vec![100, 200]), None),
            metadata: ColumnMetadata::unknown(),
        };
        assert_eq!(f.value_of(1), Value::Int(200));
        // A left join's NULL among the indexes.
        assert_eq!(f.value_of(NULL_I64), Value::Null);

        // Codes over a stream's entries: scalars, or heap tokens.
        let mut heap = StringHeap::new();
        let (a, b) = (heap.append("a") as i64, heap.append("b") as i64);
        let s = Field {
            name: "s".into(),
            dtype: DataType::Str,
            repr: Repr::Token(Arc::new(heap)),
            metadata: ColumnMetadata::unknown(),
        };
        let codes = s.codes(vec![b, a]);
        assert_eq!(codes.value_of(0), Value::Str("b".into()));
        assert_eq!((codes.metadata.min, codes.metadata.max), (Some(0), Some(1)));
        assert_eq!(codes.decoded().unwrap().1.name, "s");
        let n = Field::scalar("n", DataType::Integer).codes(vec![7, NULL_I64]);
        assert_eq!(n.value_of(0), Value::Int(7));
        assert_eq!(n.value_of(1), Value::Null);
        assert!(f.decoded().is_none());
    }

    #[test]
    fn schema_lookup() {
        let s = Schema::new(vec![
            Field::scalar("a", DataType::Integer),
            Field::scalar("b", DataType::Real),
        ]);
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("z"), None);
    }
}
