//! Canonical-form digests: the `CanonicalForm` of a fixed set of seeded
//! graphs must match the committed fixture `tests/fixtures/canon_digests.txt`
//! byte for byte. The archive stores canonical edges in every `StoreKey`,
//! and the report cache and the cluster ring key on the hash, so a change
//! that moves one of these bytes orphans archived records and reroutes
//! requests: this fixture is the archive-compatibility check.
//!
//! The graphs cover the serve-relabel bases (`core_periphery(256 + i, 64,
//! 0)`) and relabelings of them, serve-cold's `gnp_with_diameter_at_most(
//! 250, 0.13, 3)`, a larger twin-only core–periphery graph, and two graphs
//! whose canonical relabeling individualizes: `core_periphery(1024, 48,
//! 3e-4)` and `random_cograph(512)`.
//!
//! Each fixture line is `graph n m hash fnv1a(perm) fnv1a(edges)`, with
//! `perm` and `edges` fed as little-endian `u32` words. On a mismatch the
//! test names the graphs and writes the lines it computed to
//! `target/tmp/canon_digests.txt`; copy that file over the fixture only
//! when a format change is intended.

use dclab_graph::generators::random;
use dclab_graph::{CanonicalForm, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

const FIXTURE: &str = "tests/fixtures/canon_digests.txt";

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(0xCA40_0000 + seed)
}

/// The digest graphs, each from its own seed.
fn graphs() -> Vec<(String, Graph)> {
    let mut out = Vec::new();
    for i in 0..8 {
        let base = random::core_periphery(&mut StdRng::seed_from_u64(0), 256 + i, 64, 0.0);
        let perm = random::random_permutation(&mut rng(100 + i as u64), base.n());
        let relabeled = base.relabeled(&perm);
        out.push((format!("relabel-{}", 256 + i), base));
        out.push((format!("relabel-{}-relabeled", 256 + i), relabeled));
    }
    for i in 0..8 {
        let g = random::gnp_with_diameter_at_most(&mut rng(200 + i), 250, 0.13, 3);
        out.push((format!("cold-250-{i}"), g));
    }
    out.push((
        "cp-2048-64".into(),
        random::core_periphery(&mut rng(300), 2048, 64, 0.0),
    ));
    out.push((
        "cp-1024-48-extra".into(),
        random::core_periphery(&mut rng(301), 1024, 48, 3e-4),
    ));
    out.push((
        "cograph-512".into(),
        random::random_cograph(&mut rng(302), 512, 0.5),
    ));
    out
}

/// 64-bit FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    words
        .into_iter()
        .flat_map(u32::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// One fixture line per graph: `graph n m hash perm-digest edges-digest`.
fn digest_lines() -> Vec<String> {
    graphs()
        .into_iter()
        .map(|(name, g)| {
            let c = CanonicalForm::of(&g);
            let perm = fnv1a(c.perm.iter().copied());
            let edges = fnv1a(c.edges.iter().flat_map(|&(u, v)| [u, v]));
            format!(
                "{name} {} {} {:016x} {perm:016x} {edges:016x}",
                c.n,
                c.edges.len(),
                c.hash
            )
        })
        .collect()
}

/// The graph name of a fixture line.
fn graph_name(line: &str) -> &str {
    line.split(' ').next().unwrap_or("")
}

#[test]
fn canonical_forms_match_committed_digests() {
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
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("canon_digests.txt");
    let header = "# graph n m hash fnv1a(perm) fnv1a(edges)";
    std::fs::write(&out, format!("{header}\n{}\n", got.join("\n"))).unwrap();
    panic!(
        "{} canonical-form digests differ from {FIXTURE}:\n{}\nthe digests computed now are \
         in {}; copy that file over the fixture only if the format change is intended",
        report.len(),
        report.join("\n"),
        out.display()
    );
}
