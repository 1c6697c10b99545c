//! Tier-1 replay of the import leg of tde-fuzz.
//!
//! Every file under `tests/fuzz_corpus/import/` is a flat file that once
//! made `import_bytes` panic or read a wrong value (`README` there names
//! each bug). Replaying one runs both import oracles: every import
//! configuration against the row-loop reference importer, and "a table or
//! an error, never a panic". A handful of seeds of the generator ride
//! along so tier-1 exercises the leg itself, not only its past findings.

use tde_fuzz::import_oracle::{check_against_reference, check_never_panics, run_import_seed};

#[test]
fn import_corpus_replays_clean() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fuzz_corpus/import");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/fuzz_corpus/import missing")
        .map(|e| e.expect("readdir").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("txt"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 2, "import corpus thinned out");
    for path in paths {
        let data = std::fs::read(&path).expect("read corpus input");
        let mut found = check_against_reference(&data);
        found.extend(check_never_panics(&data));
        assert!(
            found.is_empty(),
            "{}: pinned input regressed:\n{found:#?}",
            path.display()
        );
    }
}

#[test]
fn a_few_import_seeds_are_clean() {
    for seed in 0..6 {
        let found = run_import_seed(seed);
        assert!(found.is_empty(), "import seed {seed}: {found:#?}");
    }
}
