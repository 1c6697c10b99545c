//! Extracts: single-file databases of imported tables (paper §2.2–2.3.3),
//! plus the §8 external flat-file references: an extract can remember the
//! files its tables came from and rebuild itself when they change,
//! trading a repackaging cost for up-to-date data.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tde_storage::{Database, Table};
use tde_textscan::{import_file, ImportOptions};

/// A remembered link between a table and the flat file it was imported
/// from (paper §8).
#[derive(Debug, Clone)]
struct LinkedSource {
    table: String,
    path: PathBuf,
    fingerprint: u64,
    options: ImportOptions,
}

fn fingerprint(path: &Path) -> io::Result<u64> {
    let meta = std::fs::metadata(path)?;
    let mtime = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos() as u64);
    Ok(meta.len().rotate_left(17) ^ mtime)
}

/// An extract: a set of read-only tables that lives in one file.
#[derive(Debug, Default)]
pub struct Extract {
    db: Database,
    sources: Vec<LinkedSource>,
}

impl Extract {
    /// An empty extract.
    pub fn new() -> Extract {
        Extract::default()
    }

    /// Import a flat file as a table, replacing any table of the same
    /// name. Separator, header and column types are inferred unless
    /// `options` overrides them; the columns are dynamically encoded,
    /// narrowed and annotated with metadata during the load (paper §3).
    pub fn import(
        &mut self,
        path: impl AsRef<Path>,
        options: &ImportOptions,
    ) -> io::Result<&Table> {
        let result = import_file(path, options)?;
        Ok(self.db.add_table(result.table))
    }

    /// Add an already-built table, replacing any table of the same name.
    pub fn add_table(&mut self, table: Table) {
        self.db.add_table(table);
    }

    /// The tables.
    pub fn tables(&self) -> &[Table] {
        &self.db.tables
    }

    /// Find a table by name (shared, ready for scanning).
    pub fn table(&self, name: &str) -> Option<Arc<Table>> {
        self.db.table(name).map(|t| Arc::new(t.clone()))
    }

    /// Write the whole extract to a single paged file (paper §2.3.3: the
    /// user must be able to pick the database in a file dialog), openable
    /// lazily with [`Extract::open_paged`]. Crash-safe: the file is
    /// written to a temporary sibling and atomically renamed into place,
    /// so a reader (or a crash mid-save) never observes a half-written
    /// extract.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        tde_pager::save_v2(&self.db, path)
    }

    /// As [`Extract::save`], with every filesystem operation routed
    /// through an explicit [`tde_io::StorageIo`] backend — the seam the
    /// crash-consistency harness uses to inject faults into saves.
    pub fn save_with_io(
        &self,
        path: impl AsRef<Path>,
        storage: &dyn tde_io::StorageIo,
    ) -> io::Result<()> {
        tde_pager::save_v2_with_io(&self.db, &HashMap::new(), path, storage)
    }

    /// Forward to [`Extract::save`], kept for the frozen benchmark.
    #[doc(hidden)]
    pub fn save_paged(&self, path: impl AsRef<Path>) -> io::Result<()> {
        self.save(path)
    }

    /// Load an extract from a file, materialising every table. (Source
    /// links are a runtime notion and do not persist in the file.)
    pub fn load(path: impl AsRef<Path>) -> io::Result<Extract> {
        let paged = tde_pager::PagedDatabase::open(path)?;
        let mut db = Database::new();
        for name in paged.table_names() {
            db.add_table(paged.table(name).expect("listed table").load_all()?);
        }
        Ok(Extract {
            db,
            sources: Vec::new(),
        })
    }

    /// Open an extract file lazily: only the directory is read now;
    /// column segments load on first touch through the buffer pool.
    pub fn open_paged(path: impl AsRef<Path>) -> io::Result<tde_pager::PagedDatabase> {
        tde_pager::PagedDatabase::open(path)
    }

    /// Import a flat file and remember it as the table's source, so
    /// [`Extract::refresh`] can rebuild the table when the file changes
    /// (paper §8: referencing external flat files).
    pub fn import_linked(
        &mut self,
        path: impl AsRef<Path>,
        options: &ImportOptions,
    ) -> io::Result<&Table> {
        let path = path.as_ref().to_path_buf();
        let fp = fingerprint(&path)?;
        let table = self.import(&path, options)?;
        let name = table.name.clone();
        self.sources.retain(|s| s.table != name);
        self.sources.push(LinkedSource {
            table: name.clone(),
            path,
            fingerprint: fp,
            options: options.clone(),
        });
        Ok(self.db.table(&name).expect("just imported"))
    }

    /// Re-import every linked table whose source file changed since it was
    /// last imported. Returns the names of the rebuilt tables. The
    /// repackaging cost is paid only for changed sources.
    pub fn refresh(&mut self) -> io::Result<Vec<String>> {
        let mut rebuilt = Vec::new();
        let sources = self.sources.clone();
        for src in sources {
            let fp = fingerprint(&src.path)?;
            if fp == src.fingerprint {
                continue;
            }
            let result = import_file(&src.path, &src.options)?;
            self.db.add_table(result.table);
            if let Some(s) = self.sources.iter_mut().find(|s| s.table == src.table) {
                s.fingerprint = fp;
            }
            rebuilt.push(src.table);
        }
        Ok(rebuilt)
    }

    /// Whether any linked source has changed on disk.
    pub fn is_stale(&self) -> bool {
        self.sources
            .iter()
            .any(|s| fingerprint(&s.path).map_or(true, |fp| fp != s.fingerprint))
    }

    /// Total physical size of the stored columns.
    pub fn physical_size(&self) -> u64 {
        self.db.tables.iter().map(Table::physical_size).sum()
    }

    /// Total logical (un-encoded) size.
    pub fn logical_size(&self) -> u64 {
        self.db.tables.iter().map(Table::logical_size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn import_save_load_roundtrip() {
        let dir = std::env::temp_dir().join("tde_core_extract");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("people.csv");
        std::fs::write(
            &csv,
            "name,age,joined\nada,36,1851-07-02\ngrace,40,1946-07-01\n",
        )
        .unwrap();

        let mut ex = Extract::new();
        let opts = ImportOptions {
            table_name: "people".into(),
            ..Default::default()
        };
        ex.import(&csv, &opts).unwrap();
        assert_eq!(ex.tables().len(), 1);
        assert_eq!(ex.table("people").unwrap().row_count(), 2);

        let file = dir.join("people.tde");
        ex.save(&file).unwrap();
        let loaded = Extract::load(&file).unwrap();
        let t = loaded.table("people").unwrap();
        assert_eq!(t.column("age").unwrap().value(0), tde_types::Value::Int(36));
        assert_eq!(
            t.column("joined").unwrap().value(1),
            tde_types::Value::date(1946, 7, 1)
        );
    }

    /// Two imports under the default table name leave one table, the
    /// second file's, reachable by name in memory and after a save.
    #[test]
    fn a_second_import_of_one_name_replaces_the_first() {
        let dir = std::env::temp_dir().join("tde_core_same_name");
        std::fs::create_dir_all(&dir).unwrap();
        let (first, second) = (dir.join("first.csv"), dir.join("second.csv"));
        std::fs::write(&first, "v\n1\n2\n").unwrap();
        std::fs::write(&second, "v\n7\n8\n9\n").unwrap();
        let mut ex = Extract::new();
        let opts = ImportOptions::default();
        ex.import(&first, &opts).unwrap();
        assert_eq!(ex.import(&second, &opts).unwrap().row_count(), 3);
        assert_eq!(ex.tables().len(), 1);
        let t = ex.table(&opts.table_name).unwrap();
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.column("v").unwrap().value(0), tde_types::Value::Int(7));

        let file = dir.join("same_name.tde");
        ex.save(&file).unwrap();
        let paged = Extract::open_paged(&file).unwrap();
        assert_eq!(paged.table_names(), [opts.table_name.as_str()]);
        let back = paged.table(&opts.table_name).unwrap();
        assert_eq!(back.row_count(), 3);
        assert_eq!(back.column("v").unwrap().value(2), tde_types::Value::Int(9));
        assert_eq!(Extract::load(&file).unwrap().tables().len(), 1);
    }

    #[test]
    fn linked_refresh_rebuilds_on_change() {
        let dir = std::env::temp_dir().join("tde_core_linked");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("live.csv");
        std::fs::write(&csv, "v\n1\n2\n").unwrap();
        let mut ex = Extract::new();
        let opts = ImportOptions {
            table_name: "live".into(),
            ..Default::default()
        };
        ex.import_linked(&csv, &opts).unwrap();
        assert_eq!(ex.table("live").unwrap().row_count(), 2);
        assert!(!ex.is_stale());
        assert!(ex.refresh().unwrap().is_empty());

        // Change the file (force a different mtime/len fingerprint).
        std::fs::write(&csv, "v\n1\n2\n3\n4\n").unwrap();
        assert!(ex.is_stale());
        assert_eq!(ex.refresh().unwrap(), vec!["live".to_owned()]);
        assert_eq!(ex.table("live").unwrap().row_count(), 4);
        assert!(!ex.is_stale());
    }

    #[test]
    fn sizes_reflect_compression() {
        let dir = std::env::temp_dir().join("tde_core_sizes");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("seq.csv");
        let mut text = String::from("id\n");
        for i in 0..50_000 {
            text.push_str(&format!("{i}\n"));
        }
        std::fs::write(&csv, text).unwrap();
        let mut ex = Extract::new();
        ex.import(&csv, &ImportOptions::default()).unwrap();
        // A sequential id column is affine: physical ≪ logical.
        assert!(ex.physical_size() * 100 < ex.logical_size());
    }
}
