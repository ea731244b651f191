//! Deterministic mutation fuzzer for the archive key decoder,
//! [`StoreKey::decode`]. The corpus is the encodings of keys built from
//! real canonical forms (`graph::canon` edges of small seeded graphs)
//! under several p-vectors, strategies and budgets, with and without the
//! deadline and oracle-policy tails. Each iteration applies one to three
//! seeded mutations: byte flips, splices from another corpus key,
//! truncations, appended bytes, and varint rewrites (a neighbouring value,
//! an extreme one, or the same value in an overlong encoding). The decoder
//! must never panic, and every buffer it accepts must re-encode to exactly
//! the same bytes.
//!
//! Tier-1 runs 10⁴ iterations; the ignored 10⁶-iteration run is
//! `cargo test --release -p dclab-store -- --ignored`.

use dclab_engine::{Budget, OraclePolicy, Strategy};
use dclab_graph::generators::{classic, random};
use dclab_graph::{CanonicalForm, Graph};
use dclab_store::StoreKey;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Encoded keys: each corpus graph's canonical form under a few request
/// shapes, covering every tail layer.
fn corpus() -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(0x4E7F);
    let graphs = [
        Graph::new(0),
        Graph::new(1),
        classic::path(5),
        classic::star(9),
        classic::petersen(),
        random::gnp(&mut rng, 20, 0.3),
        random::core_periphery(&mut rng, 40, 4, 0.05),
        random::gnp(&mut rng, 150, 0.05),
    ];
    let shapes = [
        (
            vec![2, 1],
            Strategy::Auto,
            Budget::default(),
            OraclePolicy::Auto,
        ),
        (
            vec![3, 2, 1],
            Strategy::Exact,
            Budget {
                node_budget: Some(1000),
                lb_iters: Some(0),
                ..Budget::default()
            },
            OraclePolicy::Auto,
        ),
        (
            vec![2, 1],
            Strategy::Race,
            Budget {
                restarts: Some(8),
                deadline_ms: Some(50),
                ..Budget::default()
            },
            OraclePolicy::Auto,
        ),
        (
            vec![2, 1],
            Strategy::OraclePath,
            Budget::default(),
            OraclePolicy::Hub,
        ),
        (
            vec![300, 200],
            Strategy::Heuristic,
            Budget {
                deadline_ms: Some(1 << 40),
                ..Budget::default()
            },
            OraclePolicy::Dense,
        ),
    ];
    let mut keys = Vec::new();
    for (i, g) in graphs.iter().enumerate() {
        let canon = CanonicalForm::of(g);
        for shape in [i, i + 1] {
            let (pvec, strategy, budget, oracle) = shapes[shape % shapes.len()].clone();
            let key = StoreKey {
                n: canon.n as u32,
                edges: canon.edges.clone(),
                pvec,
                strategy,
                budget,
                oracle,
            };
            let bytes = key.encode();
            assert_eq!(StoreKey::decode(&bytes).as_ref(), Ok(&key), "corpus key");
            keys.push(bytes);
        }
    }
    keys
}

/// Append `v` as LEB128 padded to at least `len` bytes (overlong when
/// `len` exceeds the minimal length).
fn put_varint(out: &mut Vec<u8>, mut v: u64, len: usize) {
    let mut written = 0;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        written += 1;
        if v == 0 && written >= len {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// The value and length of the LEB128 varint at `at`, if one ends in the
/// buffer within ten bytes.
fn read_varint(buf: &[u8], at: usize) -> Option<(u64, usize)> {
    let mut v = 0u64;
    for (i, &byte) in buf[at..].iter().take(10).enumerate() {
        v |= ((byte & 0x7f) as u64)
            .checked_shl(7 * i as u32)
            .unwrap_or(0);
        if byte & 0x80 == 0 {
            return Some((v, i + 1));
        }
    }
    None
}

/// One seeded mutation of `buf`; splices draw from `corpus`.
fn mutate(rng: &mut StdRng, buf: &mut Vec<u8>, corpus: &[Vec<u8>]) {
    match rng.random_range(0..10) {
        0..=2 if !buf.is_empty() => {
            for _ in 0..rng.random_range(1..4) {
                let at = rng.random_range(0..buf.len());
                buf[at] ^= rng.random_range(1..256u32) as u8;
            }
        }
        3 => {
            // Splice a slice of a corpus key in: inserted over a cut of any
            // length, or overwriting in place.
            let other = &corpus[rng.random_range(0..corpus.len())];
            let at = rng.random_range(0..buf.len() + 1);
            let from = rng.random_range(0..other.len() + 1);
            let mut take = rng.random_range(0..other.len() - from + 1);
            let cut = if rng.random_bool(0.5) {
                rng.random_range(0..buf.len() - at + 1)
            } else {
                take = take.min(buf.len() - at);
                take
            };
            buf.splice(at..at + cut, other[from..from + take].iter().copied());
        }
        4 => {
            let len = rng.random_range(0..buf.len() + 1);
            buf.truncate(len);
        }
        5 => {
            for _ in 0..rng.random_range(1..6) {
                buf.push(rng.next_u32() as u8);
            }
        }
        _ if !buf.is_empty() => {
            // Rewrite the varint that starts at a varint boundary (the
            // first byte, or one after a byte that ends a varint).
            let starts: Vec<usize> = (0..buf.len())
                .filter(|&i| i == 0 || buf[i - 1] & 0x80 == 0)
                .collect();
            let at = starts[rng.random_range(0..starts.len())];
            let Some((old, len)) = read_varint(buf, at) else {
                return;
            };
            let (value, pad) = match rng.random_range(0..7) {
                0 => (old.wrapping_add(1), 0),
                1 => (old.wrapping_sub(1), 0),
                2 => (old, len + rng.random_range(1..3)),
                3 => (u64::MAX, 0),
                4 => (u32::MAX as u64 + rng.random_range(0..2u64), 0),
                5 => (1 << rng.random_range(0..64u32), 0),
                _ => (rng.next_u64() >> rng.random_range(0..64u32), 0),
            };
            let mut encoded = Vec::new();
            put_varint(&mut encoded, value, pad);
            buf.splice(at..at + len, encoded);
        }
        _ => {}
    }
}

/// Decode `buf`; an accepted buffer must re-encode to itself. Returns
/// whether the decoder accepted it.
fn decode_and_check(buf: &[u8]) -> bool {
    let Ok(key) = StoreKey::decode(buf) else {
        return false;
    };
    assert!(key.encode() == buf, "accepted key does not re-encode");
    true
}

/// Run `iterations` mutated decodes from `seed`; panics with the iteration
/// and input on the first decoder panic or re-encoding mismatch.
fn fuzz(iterations: u64, seed: u64) {
    let corpus = corpus();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut accepted, mut rejected) = (0u64, 0u64);
    for it in 0..iterations {
        let mut buf = corpus[rng.random_range(0..corpus.len())].clone();
        for _ in 0..rng.random_range(1..4) {
            mutate(&mut rng, &mut buf, &corpus);
        }
        match catch_unwind(AssertUnwindSafe(|| decode_and_check(&buf))) {
            Ok(true) => accepted += 1,
            Ok(false) => rejected += 1,
            Err(_) => panic!(
                "iteration {it} (seed {seed:#x}): {} bytes, starting {:02x?}",
                buf.len(),
                &buf[..buf.len().min(48)]
            ),
        }
    }
    // Both outcomes must occur, or the mutations are not probing the
    // decoder's checks.
    assert!(
        accepted > 0 && rejected > 0,
        "accepted {accepted}, rejected {rejected}"
    );
}

#[test]
fn overlong_vertex_count_is_refused() {
    // `85 00` would read as n = 5, which encodes as `05`.
    let mut bytes = corpus()[4].clone();
    let (n, len) = read_varint(&bytes, 0).expect("a vertex count");
    let mut overlong = Vec::new();
    put_varint(&mut overlong, n, len + 1);
    bytes.splice(0..len, overlong);
    assert!(StoreKey::decode(&bytes).is_err());
}

#[test]
fn decoder_survives_mutated_keys() {
    fuzz(10_000, 0x4E7F_0001);
}

#[test]
#[ignore = "10⁶ iterations; run with cargo test --release -p dclab-store -- --ignored"]
fn decoder_survives_a_million_mutated_keys() {
    fuzz(1_000_000, 0x4E7F_0002);
}
