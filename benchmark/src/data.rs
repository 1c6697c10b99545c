//! Seeded raw data: the source of truth the oracle loops over, and the
//! input of every table, text file and append batch the engine sees.
//!
//! A [`Dataset`] is column-major and NULL-free. Every column stores
//! `i64`s: the value itself (Integer, Date as days since the epoch), the
//! `f64` bit pattern (Real), or an index into `domain` (Str).

use std::fmt::Write as _;
use std::ops::Range;
use tde_storage::{ColumnBuilder, EncodingPolicy, Table};
use tde_types::datetime::{days_from_ymd, ymd_from_days};
use tde_types::{DataType, Value};

/// One raw column.
#[derive(Debug, Clone)]
pub struct ColData {
    pub name: String,
    pub dtype: DataType,
    pub vals: Vec<i64>,
    /// Distinct strings of a `Str` column; empty otherwise.
    pub domain: Vec<String>,
}

impl ColData {
    pub fn scalar(name: &str, dtype: DataType, vals: Vec<i64>) -> ColData {
        ColData {
            name: name.to_owned(),
            dtype,
            vals,
            domain: Vec::new(),
        }
    }

    pub fn strs(name: &str, codes: Vec<i64>, domain: Vec<String>) -> ColData {
        ColData {
            name: name.to_owned(),
            dtype: DataType::Str,
            vals: codes,
            domain,
        }
    }

    pub fn value(&self, row: usize) -> Value {
        let v = self.vals[row];
        match self.dtype {
            DataType::Str => Value::Str(self.domain[v as usize].clone()),
            DataType::Real => Value::Real(f64::from_bits(v as u64)),
            dtype => Value::from_i64(dtype, v),
        }
    }

    fn write_field(&self, row: usize, out: &mut String) {
        let v = self.vals[row];
        match self.dtype {
            DataType::Str => out.push_str(&self.domain[v as usize]),
            DataType::Date => {
                let (y, m, d) = ymd_from_days(v);
                write!(out, "{y:04}-{m:02}-{d:02}").expect("write to String");
            }
            DataType::Real => write!(out, "{}", f64::from_bits(v as u64)).expect("write to String"),
            _ => write!(out, "{v}").expect("write to String"),
        }
    }
}

/// A raw table.
#[derive(Debug, Clone)]
pub struct Dataset {
    pub name: String,
    pub cols: Vec<ColData>,
    pub rows: usize,
}

impl Dataset {
    pub fn new(name: &str, cols: Vec<ColData>) -> Dataset {
        let rows = cols.first().map_or(0, |c| c.vals.len());
        assert!(cols.iter().all(|c| c.vals.len() == rows), "ragged dataset");
        Dataset {
            name: name.to_owned(),
            cols,
            rows,
        }
    }

    pub fn col(&self, name: &str) -> &ColData {
        self.cols
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("no column {name} in dataset {}", self.name))
    }

    pub fn schema(&self) -> Vec<(String, DataType)> {
        self.cols
            .iter()
            .map(|c| (c.name.clone(), c.dtype))
            .collect()
    }

    /// Build the first `rows` rows into a table through `ColumnBuilder`
    /// with the engine's default policy — the same path FlowTable takes.
    pub fn to_table(&self, rows: usize) -> Table {
        let columns = self
            .cols
            .iter()
            .map(|c| {
                let mut b = ColumnBuilder::new(&c.name, c.dtype, EncodingPolicy::default());
                if c.dtype == DataType::Str {
                    for &code in &c.vals[..rows] {
                        b.append_str(Some(&c.domain[code as usize]));
                    }
                } else {
                    b.append_raw(&c.vals[..rows]);
                }
                b.finish().column
            })
            .collect();
        Table::new(&self.name, columns)
    }

    /// Render rows as comma-separated text with a header line.
    pub fn csv(&self, rows: Range<usize>) -> String {
        let mut out = String::with_capacity(rows.len() * self.cols.len() * 8);
        let names: Vec<&str> = self.cols.iter().map(|c| c.name.as_str()).collect();
        out.push_str(&names.join(","));
        out.push('\n');
        for r in rows {
            for (i, c) in self.cols.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                c.write_field(r, &mut out);
            }
            out.push('\n');
        }
        out
    }

    /// Rows as engine values, the shape `DeltaTable::append_rows` takes.
    pub fn value_rows(&self, rows: Range<usize>) -> Vec<Vec<Value>> {
        rows.map(|r| self.cols.iter().map(|c| c.value(r)).collect())
            .collect()
    }

    /// The benchmark's own parse of a headerless separated text (the
    /// TPC-H files): independent of `tde-textscan`, so an import bug
    /// cannot hide in the oracle.
    pub fn parse(name: &str, text: &str, sep: char, schema: &[(String, DataType)]) -> Dataset {
        let mut cols: Vec<ColData> = schema
            .iter()
            .map(|(n, t)| ColData::scalar(n, *t, Vec::new()))
            .collect();
        let mut interned: Vec<std::collections::HashMap<String, i64>> =
            vec![Default::default(); schema.len()];
        for line in text.lines() {
            let mut fields = line.split(sep);
            for (i, c) in cols.iter_mut().enumerate() {
                let f = fields
                    .next()
                    .unwrap_or_else(|| panic!("short line in {name}: {line}"));
                let v = match c.dtype {
                    DataType::Str => {
                        let next = interned[i].len() as i64;
                        *interned[i].entry(f.to_owned()).or_insert_with(|| {
                            c.domain.push(f.to_owned());
                            next
                        })
                    }
                    DataType::Real => f
                        .parse::<f64>()
                        .unwrap_or_else(|_| panic!("bad real {f}"))
                        .to_bits() as i64,
                    DataType::Date => {
                        let mut p = f.split('-').map(|x| x.parse::<i64>().expect("date part"));
                        let (y, m, d) = (p.next(), p.next(), p.next());
                        days_from_ymd(
                            y.expect("year") as i32,
                            m.expect("month") as u32,
                            d.expect("day") as u32,
                        )
                    }
                    _ => f.parse::<i64>().unwrap_or_else(|_| panic!("bad int {f}")),
                };
                c.vals.push(v);
            }
        }
        Dataset::new(name, cols)
    }
}
