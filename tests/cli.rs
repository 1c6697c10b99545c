//! Black-box tests for the two binaries, `tde_cli` and `tde-stats`: each
//! test runs the built executable in its own scratch directory and checks
//! stdout, stderr and the exit code (0 success, 1 a typed `error:`,
//! 2 usage).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const TDE_CLI: &str = env!("CARGO_BIN_EXE_tde_cli");
const TDE_STATS: &str = env!("CARGO_BIN_EXE_tde-stats");

/// A scratch directory per test, removed when the test ends.
struct Workdir {
    dir: PathBuf,
}

impl Workdir {
    fn new(name: &str) -> Workdir {
        let dir = std::env::temp_dir().join(format!("tde_cli_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Workdir { dir }
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    fn create(&self, name: &str, contents: impl AsRef<[u8]>) {
        std::fs::write(self.path(name), contents).unwrap();
    }

    /// Run `bin` with `args` from inside the directory.
    fn run(&self, bin: &str, args: &[&str]) -> Output {
        Command::new(bin)
            .args(args)
            .current_dir(&self.dir)
            .output()
            .unwrap()
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

/// Exit 1 with one `error:` line: a typed failure, not a panic (101).
fn assert_typed_error(o: &Output) {
    assert_eq!(o.status.code(), Some(1), "stderr: {}", stderr(o));
    assert!(stderr(o).starts_with("error: "), "stderr: {}", stderr(o));
    assert!(!stderr(o).contains("panicked"), "stderr: {}", stderr(o));
}

fn assert_usage(o: &Output) {
    assert_eq!(o.status.code(), Some(2), "stderr: {}", stderr(o));
    assert!(stderr(o).starts_with("usage:"), "stderr: {}", stderr(o));
    assert!(o.stdout.is_empty(), "stdout: {}", stdout(o));
}

#[test]
fn gen_import_info_head_round_trip() {
    let wrk = Workdir::new("round_trip");
    let gen = wrk.run(TDE_CLI, &["gen", "rle", "data", "0.002"]);
    assert!(gen.status.success(), "{}", stderr(&gen));
    assert!(stdout(&gen).contains("(2000 rows)"), "{}", stdout(&gen));

    let import = wrk.run(TDE_CLI, &["import", "data/rle.csv", "rle.tde"]);
    assert!(import.status.success(), "{}", stderr(&import));
    assert!(
        stdout(&import).starts_with("imported 2000 rows × 2 columns"),
        "{}",
        stdout(&import)
    );
    assert!(wrk.path("rle.tde").is_file());

    let info = wrk.run(TDE_CLI, &["info", "rle.tde"]);
    assert!(info.status.success(), "{}", stderr(&info));
    let info = stdout(&info);
    assert!(info.starts_with("table rle (2000 rows)"), "{info}");
    for col in ["primary", "secondary"] {
        assert!(
            info.lines().any(|l| l.trim_start().starts_with(col)),
            "{info}"
        );
    }

    let head = wrk.run(TDE_CLI, &["head", "rle.tde", "rle", "3"]);
    assert!(head.status.success(), "{}", stderr(&head));
    let lines: Vec<String> = stdout(&head).lines().map(str::to_owned).collect();
    assert_eq!(lines.len(), 4, "header plus three rows: {lines:?}");
    assert_eq!(lines[0], "primary | secondary");
    // The generator's primary key is sorted, starting at its first run.
    assert!(lines[1].starts_with("0 | "), "{lines:?}");

    let all = wrk.run(TDE_CLI, &["head", "rle.tde", "rle"]);
    assert_eq!(stdout(&all).lines().count(), 11, "default is ten rows");
}

/// The importer reads malformed text leniently: a short row is padded
/// with NULLs and a stray quote stays part of its field. Whatever the
/// input, the outcome is a written extract or a typed error, never a
/// panic.
#[test]
fn malformed_csv_imports_leniently_or_fails_typed() {
    let wrk = Workdir::new("malformed");
    wrk.create("ragged.csv", "a,b\n1,2\n3\n4,5\n");
    let import = wrk.run(TDE_CLI, &["import", "ragged.csv", "ragged.tde"]);
    assert!(import.status.success(), "{}", stderr(&import));
    let head = wrk.run(TDE_CLI, &["head", "ragged.tde", "ragged"]);
    assert_eq!(stdout(&head), "a | b\n1 | 2\n3 | NULL\n4 | 5\n");

    wrk.create("quote.csv", "a,b\n1,x\"y\n2,3\n");
    let import = wrk.run(TDE_CLI, &["import", "quote.csv", "quote.tde"]);
    assert!(import.status.success(), "{}", stderr(&import));
    let head = wrk.run(TDE_CLI, &["head", "quote.tde", "quote"]);
    assert_eq!(stdout(&head), "a | b\n1 | x\"y\n2 | 3\n");

    // Arbitrary bytes: no panic either way.
    wrk.create("bytes.csv", b"\"\xff\x00,\n\"\",\r\r\n\xfe");
    let o = wrk.run(TDE_CLI, &["import", "bytes.csv", "bytes.tde"]);
    assert!(matches!(o.status.code(), Some(0 | 1)), "{}", stderr(&o));
    assert!(!stderr(&o).contains("panicked"), "{}", stderr(&o));

    assert_typed_error(&wrk.run(TDE_CLI, &["import", "missing.csv", "x.tde"]));
    // The output's parent is a file, so the save fails.
    assert_typed_error(&wrk.run(TDE_CLI, &["import", "ragged.csv", "ragged.csv/x.tde"]));
    assert_typed_error(&wrk.run(TDE_CLI, &["head", "ragged.tde", "nosuch"]));
}

#[test]
fn truncated_extract_is_a_typed_error() {
    let wrk = Workdir::new("truncated");
    wrk.create("t.csv", "k,v\n1,a\n2,b\n3,c\n");
    assert!(wrk
        .run(TDE_CLI, &["import", "t.csv", "t.tde"])
        .status
        .success());
    let bytes = std::fs::read(wrk.path("t.tde")).unwrap();
    for keep in [0, 4, bytes.len() / 2, bytes.len() - 1] {
        wrk.create("cut.tde", &bytes[..keep]);
        assert_typed_error(&wrk.run(TDE_CLI, &["info", "cut.tde"]));
        assert_typed_error(&wrk.run(TDE_CLI, &["head", "cut.tde", "t"]));
    }
}

/// A file in the retired v1 format is a typed error that says so, for
/// `info` and `head` alike.
#[test]
fn v1_extract_is_a_typed_error() {
    let wrk = Workdir::new("v1");
    let mut v1 = tde::pager::paged::V1_MAGIC.to_vec();
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&0u32.to_le_bytes());
    wrk.create("old.tde", v1);
    for args in [&["info", "old.tde"][..], &["head", "old.tde", "t"]] {
        let o = wrk.run(TDE_CLI, args);
        assert_typed_error(&o);
        assert!(stderr(&o).contains("re-import"), "stderr: {}", stderr(&o));
    }
}

#[test]
fn bad_arguments_print_usage_and_exit_2() {
    let wrk = Workdir::new("bad_args");
    wrk.create("t.csv", "k\n1\n");
    assert!(wrk
        .run(TDE_CLI, &["import", "t.csv", "t.tde"])
        .status
        .success());
    for args in [
        &[][..],
        &["frob"],
        &["info"],
        &["head", "t.tde"],
        &["head", "t.tde", "t", "abc"],
        &["head", "t.tde", "t", "-1"],
        &["gen", "rle", "out", "abc"],
        &["gen", "rle", "out", "0"],
        &["gen", "rle", "out", "-0.5"],
        &["gen", "rle", "out", "inf"],
        &["gen", "rle", "out", "NaN"],
    ] {
        assert_usage(&wrk.run(TDE_CLI, args));
    }
    assert!(!wrk.path("out").exists(), "a rejected gen writes nothing");

    for args in [
        &[][..],
        &["frob"],
        &["dump", "--format", "xml"],
        &["dump", "--format"],
        &["trace", "--out"],
        &["dump", "--bogus"],
    ] {
        assert_usage(&wrk.run(TDE_STATS, args));
    }
}

#[test]
fn stats_dump_json_parses() {
    let wrk = Workdir::new("stats_dump");
    let o = wrk.run(TDE_STATS, &["dump", "--format", "json", "--no-workload"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let doc = tde_stats::minijson::parse(&stdout(&o)).expect("dump is JSON");
    assert!(doc.as_object().is_some(), "{}", stdout(&o));
}

#[test]
fn stats_trace_writes_the_file() {
    let wrk = Workdir::new("stats_trace");
    let out = wrk.path("q.trace.json");
    let o = wrk.run(TDE_STATS, &["trace", "--out", path_str(&out)]);
    assert!(o.status.success(), "{}", stderr(&o));
    let tef = std::fs::read_to_string(&out).expect("trace file written");
    let n = tde_stats::tef::validate_tef(&tef).expect("valid trace document");
    assert!(n > 0, "the demo workload puts events on the timeline");
    assert!(
        tef.contains("\"name\":\"decision\",\"cat\":\"event\",\"ph\":\"i\""),
        "no decision instant in the trace"
    );
}

fn path_str(p: &Path) -> &str {
    p.to_str().unwrap()
}
