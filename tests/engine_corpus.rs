//! Engine regression corpus: every (graph, p, strategy) cell of a small,
//! seeded, deadline-free corpus is solved through `engine::solve`, and the
//! FNV-1a digest of the report's JSON (or of the error text) must match the
//! committed fixture `tests/fixtures/engine_corpus.txt`.
//!
//! Any change that moves a report byte fails here and names the changed
//! cells. The test then writes the digests it computed to
//! `target/tmp/engine_corpus.txt`; when the change is intended, copy that
//! file over the fixture. Each fixture line also records the cell's span
//! and lower bound (`-` for an error), so a diff of the fixture shows what
//! moved.
//!
//! Solves without a deadline read no clock, so the digests are the same on
//! every machine and at every `DCLAB_THREADS` setting.

use dclab::core::pvec::PVec;
use dclab::engine::{solve, Budget, SolveRequest, Strategy};
use dclab::graph::generators::{classic, random};
use dclab::graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

const FIXTURE: &str = "tests/fixtures/engine_corpus.txt";

/// Every strategy the engine names, in wire-code order.
const STRATEGIES: [Strategy; 10] = [
    Strategy::Exact,
    Strategy::BranchBound,
    Strategy::Approx15,
    Strategy::Heuristic,
    Strategy::Greedy,
    Strategy::Diam2Pip,
    Strategy::L1Coloring,
    Strategy::Auto,
    Strategy::Race,
    Strategy::OraclePath,
];

/// The corpus graphs, drawn from one seeded stream. Sizes straddle the
/// exact guard (n = 24) so `Auto` takes its Held–Karp, PIP and chained-LK
/// legs; the diameter-3 graphs meet both reducible (|p| = 3) and refused
/// (|p| = 2) vectors.
fn graphs() -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(0xC0FF_EE17);
    vec![
        (
            "gnp-d2-n10",
            random::gnp_with_diameter_at_most(&mut rng, 10, 0.5, 2),
        ),
        (
            "gnp-d2-n30",
            random::gnp_with_diameter_at_most(&mut rng, 30, 0.5, 2),
        ),
        (
            "gnp-d3-n12",
            random::gnp_with_diameter_at_most(&mut rng, 12, 0.35, 3),
        ),
        (
            "gnp-d3-n40",
            random::gnp_with_diameter_at_most(&mut rng, 40, 0.2, 3),
        ),
        (
            "gnp-d3-n64",
            random::gnp_with_diameter_at_most(&mut rng, 64, 0.2, 3),
        ),
        (
            "core-periphery-n28",
            random::core_periphery(&mut rng, 28, 4, 0.1),
        ),
        ("star-n9", classic::star(9)),
        ("complete-n8", classic::complete(8)),
    ]
}

fn pvecs() -> Vec<PVec> {
    [
        vec![2, 1],
        vec![3, 2],
        vec![4, 3, 2],
        vec![1, 1],
        vec![5, 2],
    ]
    .into_iter()
    .map(|e| PVec::new(e).unwrap())
    .collect()
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One fixture line per cell: `graph p strategy digest span lower_bound`.
fn corpus_lines() -> Vec<String> {
    // A node budget keeps branch and bound's hopeless cells short; it is a
    // logical budget, so the outcome is still the same on every machine.
    let budget = Budget {
        node_budget: Some(20_000),
        ..Budget::default()
    };
    let mut lines = Vec::new();
    for (name, g) in graphs() {
        for p in pvecs() {
            for strategy in STRATEGIES {
                let req = SolveRequest::new(g.clone(), p.clone())
                    .with_strategy(strategy)
                    .with_budget(budget);
                let (text, span, lb) = match solve(&req) {
                    Ok(report) => (
                        report.to_json(),
                        report.solution.span.to_string(),
                        report.lower_bound.to_string(),
                    ),
                    Err(e) => (format!("error: {e}"), "-".into(), "-".into()),
                };
                lines.push(format!(
                    "{name} {p} {strategy} {:016x} {span} {lb}",
                    fnv1a(text.as_bytes())
                ));
            }
        }
    }
    lines
}

/// The cell key of a fixture line: its first three fields.
fn cell(line: &str) -> String {
    line.split(' ').take(3).collect::<Vec<_>>().join(" ")
}

#[test]
fn engine_reports_match_committed_digests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let fixture = std::fs::read_to_string(root.join(FIXTURE)).unwrap_or_default();
    let want: Vec<&str> = fixture
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let got = corpus_lines();
    if want == got {
        return;
    }
    let mut report = Vec::new();
    for line in &got {
        match want.iter().find(|w| cell(w) == cell(line)) {
            Some(w) if w == line => {}
            Some(w) => report.push(format!("  changed {line}  (was {w})")),
            None => report.push(format!("  new     {line}")),
        }
    }
    for w in &want {
        if !got.iter().any(|line| cell(line) == cell(w)) {
            report.push(format!("  gone    {w}"));
        }
    }
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("engine_corpus.txt");
    let header = "# graph p strategy fnv1a(report-json | error-text) span lower_bound";
    std::fs::write(&out, format!("{header}\n{}\n", got.join("\n"))).unwrap();
    panic!(
        "{} engine corpus cells differ from {FIXTURE}:\n{}\nthe digests computed now are in \
         {}; copy that file over the fixture if the change is intended",
        report.len(),
        report.join("\n"),
        out.display()
    );
}
