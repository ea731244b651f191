//! End-to-end tests for the `dclab` binary: guard failures must exit
//! non-zero with the `GuardError` message on stderr, successes must print
//! a JSON `SolveReport`, and `--help` must document the thread precedence.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use dclab_graph::generators::classic;
use dclab_graph::io as graph_io;

fn dclab(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dclab"))
        .args(args)
        .output()
        .expect("run dclab binary")
}

/// A test-unique scratch directory, removed when the test ends (a failed
/// assertion included).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("dclab-cli-e2e-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    /// Write an instance file into the directory.
    fn write_instance(&self, name: &str, contents: &str) -> PathBuf {
        let path = self.join(name);
        std::fs::write(&path, contents).expect("write instance");
        path
    }
}

impl std::ops::Deref for Scratch {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn oversized_exact_instance_fails_with_guard_error_on_stderr() {
    // n = 30 > EXACT_MAX_N with an explicit exact request → GuardError.
    let dir = Scratch::new("oversized");
    let path = dir.write_instance(
        "oversized.edges",
        &graph_io::write_edge_list(&classic::complete(30)),
    );
    let out = dclab(&["solve", path.to_str().unwrap(), "--strategy", "exact"]);
    assert!(!out.status.success(), "guard failure must exit non-zero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("exceeds the exact-solver guard"),
        "GuardError message surfaces on stderr, got: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "no report on stdout for a failed solve"
    );
}

#[test]
fn degenerate_instance_fails_with_reduction_error_on_stderr() {
    // Diameter > 2: the Theorem 2 reduction refuses the instance.
    let dir = Scratch::new("degenerate");
    let path = dir.write_instance(
        "degenerate.edges",
        &graph_io::write_edge_list(&classic::path(9)),
    );
    let out = dclab(&["solve", path.to_str().unwrap(), "--strategy", "exact"]);
    assert!(!out.status.success(), "degenerate instance exits non-zero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "stderr explains: {stderr}");
}

#[test]
fn solve_succeeds_and_prints_json_report() {
    let dir = Scratch::new("solve");
    let path = dir.write_instance(
        "petersen.edges",
        &graph_io::write_edge_list(&classic::petersen()),
    );
    let out = dclab(&["solve", path.to_str().unwrap(), "--p", "2,1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"span\":9"),
        "λ_2,1(Petersen) = 9: {stdout}"
    );
}

#[test]
fn threads_flag_accepted_and_zero_rejected() {
    let dir = Scratch::new("threads");
    let path = dir.write_instance(
        "k5.edges",
        &graph_io::write_edge_list(&classic::complete(5)),
    );
    let ok = dclab(&["solve", path.to_str().unwrap(), "--threads", "2"]);
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    let bad = dclab(&["solve", path.to_str().unwrap(), "--threads", "0"]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("--threads"));
}

#[test]
fn help_documents_thread_precedence_and_serve() {
    let out = dclab(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("--threads beats the DCLAB_THREADS"),
        "help states the precedence contract: {stdout}"
    );
    assert!(
        stdout.contains("dclab serve"),
        "help covers serve: {stdout}"
    );
    assert!(stdout.contains("dclab gen"), "help covers gen: {stdout}");
    assert!(
        stdout.contains("--store"),
        "help covers the archive flags: {stdout}"
    );
}

#[test]
fn subcommand_help_prints_that_subcommands_usage() {
    for (sub, usage) in [
        ("bench-gate", "usage: dclab bench-gate --baseline"),
        ("gen", "usage: dclab gen <family>"),
        ("store", "usage: dclab store <subcommand>"),
    ] {
        let out = dclab(&[sub, "--help"]);
        assert!(out.status.success(), "{sub} --help exits 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with(usage),
            "{sub} --help prints its own usage: {stdout}"
        );
    }
}

#[test]
fn gen_writes_seeded_corpora_and_is_deterministic() {
    let dir = Scratch::new("gen");
    let corpus = dir.join("corpus");
    let out = dclab(&[
        "gen",
        "gnp",
        "--n",
        "10",
        "--prob",
        "0.6",
        "--max-diameter",
        "2",
        "--seed",
        "11",
        "--count",
        "3",
        "--out",
        corpus.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut names: Vec<String> = std::fs::read_dir(&corpus)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(
        names,
        vec!["gnp-s11-0.edges", "gnp-s11-1.edges", "gnp-s11-2.edges"]
    );
    // Single instance to stdout, deterministic under the seed.
    let a = dclab(&["gen", "tree", "--n", "9", "--seed", "4"]);
    let b = dclab(&["gen", "tree", "--n", "9", "--seed", "4"]);
    assert!(a.status.success());
    assert_eq!(a.stdout, b.stdout, "same seed → same bytes");
    assert_eq!(
        String::from_utf8_lossy(&a.stdout).lines().count(),
        9,
        "`n 9` header plus the 8 edges of a 9-vertex tree"
    );
    // DIMACS output honors --format.
    let d = dclab(&["gen", "petersen", "--format", "dimacs"]);
    assert!(String::from_utf8_lossy(&d.stdout).contains("p edge 10 15"));
    // Unknown family is a hard error.
    let bad = dclab(&["gen", "frobnicate"]);
    assert!(!bad.status.success());
}

#[test]
fn solve_and_batch_populate_and_reuse_the_same_archive() {
    let dir = Scratch::new("store");
    let corpus = dir.join("corpus");
    let archive = dir.join("archive.dcst");
    let archive_s = archive.to_str().unwrap();
    let gen = dclab(&[
        "gen",
        "gnp",
        "--n",
        "11",
        "--prob",
        "0.6",
        "--max-diameter",
        "2",
        "--seed",
        "21",
        "--count",
        "3",
        "--out",
        corpus.to_str().unwrap(),
    ]);
    assert!(gen.status.success());

    // Batch populates the archive (all misses)…
    let cold = dclab(&[
        "batch",
        corpus.to_str().unwrap(),
        "--strategy",
        "greedy",
        "--store",
        archive_s,
    ]);
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let cold_out = String::from_utf8_lossy(&cold.stdout);
    assert_eq!(
        cold_out.matches("\"store\":\"miss\"").count(),
        3,
        "{cold_out}"
    );

    // …a second batch run is pure lookups with identical reports…
    let warm = dclab(&[
        "batch",
        corpus.to_str().unwrap(),
        "--strategy",
        "greedy",
        "--store",
        archive_s,
    ]);
    let warm_out = String::from_utf8_lossy(&warm.stdout);
    assert_eq!(
        warm_out.matches("\"store\":\"hit\"").count(),
        3,
        "{warm_out}"
    );
    assert_eq!(
        cold_out.replace("miss", "hit"),
        warm_out,
        "bit-identical reports"
    );

    // …and `solve` of one member hits the same archive.
    let one = corpus.join("gnp-s21-0.edges");
    let solo = dclab(&[
        "solve",
        one.to_str().unwrap(),
        "--strategy",
        "greedy",
        "--store",
        archive_s,
    ]);
    assert!(String::from_utf8_lossy(&solo.stdout).contains("\"store\":\"hit\""));

    // stats / export / import / compact manage the archive.
    let stats = dclab(&["store", "stats", archive_s]);
    let stats_out = String::from_utf8_lossy(&stats.stdout);
    assert!(stats_out.contains("\"records\":3"), "{stats_out}");
    assert!(stats_out.contains("\"clean_footer\":true"), "{stats_out}");
    assert!(stats_out.contains("\"greedy\":3"), "{stats_out}");

    let dump = dir.join("dump.dcst");
    let exp = dclab(&["store", "export", archive_s, dump.to_str().unwrap()]);
    assert!(String::from_utf8_lossy(&exp.stdout).contains("\"exported\":3"));
    let fresh = dir.join("fresh.dcst");
    let imp = dclab(&[
        "store",
        "import",
        fresh.to_str().unwrap(),
        dump.to_str().unwrap(),
    ]);
    let imp_out = String::from_utf8_lossy(&imp.stdout);
    assert!(imp_out.contains("\"added\":3"), "{imp_out}");
    let comp = dclab(&["store", "compact", archive_s]);
    assert!(String::from_utf8_lossy(&comp.stdout).contains("\"generation\":1"));

    // Unknown subcommand fails loudly.
    let bad = dclab(&["store", "frobnicate", archive_s]);
    assert!(!bad.status.success());

    // Inspection of a nonexistent archive is an error, not a silently
    // created empty file.
    let typo = dir.join("no-such.dcst");
    let missing = dclab(&["store", "stats", typo.to_str().unwrap()]);
    assert!(!missing.status.success());
    assert!(String::from_utf8_lossy(&missing.stderr).contains("no such archive"));
    assert!(!typo.exists(), "stats must not create the archive");
}
