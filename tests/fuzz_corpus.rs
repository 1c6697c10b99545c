//! Tier-1 replay of the pinned fuzz corpus.
//!
//! Every `.case` file under `tests/fuzz_corpus/` is a shrunk repro of a
//! bug the tde-fuzz sweep found (the header comment in each file names
//! the bug and the fix). Replaying a case runs the *full* oracle stack —
//! differential (optimizer on/off, kernel vs fallback, paged vs
//! resident, parallel vs serial), metamorphic (TLP partitioning,
//! re-encoding invariance) and metadata-invariant — so a regression in
//! any of the fixed code paths fails here without needing the nightly
//! sweep. Add new files by copying the `.case` a failing sweep writes to
//! its corpus dir; never edit a pinned case to make it pass.

use tde_fuzz::{run_case_catching, CaseSpec};

#[test]
fn corpus_replays_clean() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fuzz_corpus");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/fuzz_corpus missing")
        .map(|e| e.expect("readdir").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("case"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 6,
        "corpus thinned out: only {} case file(s)",
        paths.len()
    );
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("read case");
        let spec = CaseSpec::parse(&text)
            .unwrap_or_else(|e| panic!("{}: parse error: {e}", path.display()));
        spec.validate()
            .unwrap_or_else(|e| panic!("{}: invalid case: {e}", path.display()));
        let report = run_case_catching(&spec);
        assert!(
            report.clean(),
            "{}: pinned repro regressed:\n{:#?}",
            path.display(),
            report.discrepancies
        );
    }
}

#[test]
fn corpus_cases_round_trip_through_the_text_format() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fuzz_corpus");
    for entry in std::fs::read_dir(dir).expect("tests/fuzz_corpus missing") {
        let path = entry.expect("readdir").path();
        if path.extension().and_then(|e| e.to_str()) != Some("case") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read case");
        let spec = CaseSpec::parse(&text).expect("parse");
        let reparsed = CaseSpec::parse(&spec.to_text()).expect("reparse");
        assert_eq!(
            spec.to_text(),
            reparsed.to_text(),
            "{}: serialization not a fixpoint",
            path.display()
        );
    }
}
