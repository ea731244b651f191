//! Label digests at benchmark shape: the hub labels of a few seeded
//! graphs of thousands of vertices — `core_periphery(n, 48, 3e-4)` as in
//! the oracle-large workload, a 64-vertex universal core with no extra
//! edges as in e16, plus a grid and a preferential-attachment graph whose
//! pruned searches run deeper — must match the committed fixture
//! `tests/fixtures/label_digests.txt` byte for byte.
//!
//! Each fixture line is `graph n m label_entries fnv1a(to_bytes)`. Any
//! change that moves a label byte fails here and names the graphs. The
//! test then writes the lines it computed to `target/tmp/label_digests.txt`;
//! when the change is intended, copy that file over the fixture.

use dclab_graph::generators::{classic, random};
use dclab_graph::Graph;
use dclab_oracle::HubLabels;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

const FIXTURE: &str = "tests/fixtures/label_digests.txt";

/// The digest graphs, each from its own seed.
fn graphs() -> Vec<(&'static str, Graph)> {
    let rng = |seed: u64| StdRng::seed_from_u64(0x0D1C_0000 + seed);
    vec![
        (
            "cp-2000-48-extra",
            random::core_periphery(&mut rng(1), 2000, 48, 3e-4),
        ),
        (
            "cp-3000-48-extra",
            random::core_periphery(&mut rng(2), 3000, 48, 3e-4),
        ),
        (
            "cp-4000-48-extra",
            random::core_periphery(&mut rng(3), 4000, 48, 3e-4),
        ),
        (
            "cp-6000-64",
            random::core_periphery(&mut rng(4), 6000, 64, 0.0),
        ),
        ("grid-30x40", classic::grid(30, 40)),
        ("ba-3000-3", random::barabasi_albert(&mut rng(5), 3000, 3)),
    ]
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One fixture line per graph: `graph n m label_entries digest`, with the
/// error text's digest and `-` entries when the build fails.
fn digest_lines() -> Vec<String> {
    graphs()
        .into_iter()
        .map(|(name, g)| {
            let (entries, digest) = match HubLabels::build(&g) {
                Ok(labels) => (
                    labels.label_entries().to_string(),
                    fnv1a(&labels.to_bytes()),
                ),
                Err(e) => ("-".into(), fnv1a(format!("error: {e}").as_bytes())),
            };
            format!("{name} {} {} {entries} {digest:016x}", g.n(), g.m())
        })
        .collect()
}

/// The graph name of a fixture line.
fn graph_name(line: &str) -> &str {
    line.split(' ').next().unwrap_or("")
}

#[test]
fn labels_match_committed_digests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let fixture = std::fs::read_to_string(root.join(FIXTURE)).unwrap_or_default();
    let want: Vec<&str> = fixture
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let got = digest_lines();
    if want == got {
        return;
    }
    let mut report = Vec::new();
    for line in &got {
        match want.iter().find(|w| graph_name(w) == graph_name(line)) {
            Some(w) if w == line => {}
            Some(w) => report.push(format!("  changed {line}  (was {w})")),
            None => report.push(format!("  new     {line}")),
        }
    }
    for w in &want {
        if !got.iter().any(|line| graph_name(line) == graph_name(w)) {
            report.push(format!("  gone    {w}"));
        }
    }
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("label_digests.txt");
    let header = "# graph n m label_entries fnv1a(to_bytes | error-text)";
    std::fs::write(&out, format!("{header}\n{}\n", got.join("\n"))).unwrap();
    panic!(
        "{} label digests differ from {FIXTURE}:\n{}\nthe digests computed now are in {}; \
         copy that file over the fixture if the change is intended",
        report.len(),
        report.join("\n"),
        out.display()
    );
}
