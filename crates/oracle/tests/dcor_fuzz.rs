//! Deterministic mutation fuzzer for the `.dcor` decoder,
//! [`HubLabels::from_bytes`]. Each iteration takes the encoding of a small
//! corpus labeling and applies one to three seeded mutations: byte flips,
//! splices from another corpus buffer, truncations, appended bytes, and
//! rewrites of the `n` / `entries` header words (some of them balanced so
//! the length check still passes and the offset and hub checks must do the
//! work). The decoder must never panic, and every buffer it accepts must
//! re-encode to exactly the same bytes and answer queries.
//!
//! Tier-1 runs 10⁴ iterations; the ignored 10⁶-iteration run is
//! `cargo test --release -p dclab-oracle -- --ignored`.

use dclab_graph::generators::{classic, random};
use dclab_graph::ops::disjoint_union;
use dclab_graph::Graph;
use dclab_oracle::HubLabels;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Byte offsets of the little-endian `u64` header words after
/// `"DCLO" | version`.
const N_WORD: usize = 5;
const ENTRIES_WORD: usize = 13;

/// Encoded labels of a small corpus: degenerate sizes, classic families,
/// a disconnected union and two seeded random graphs.
fn corpus() -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(0xDC0F);
    let graphs = [
        Graph::new(0),
        Graph::new(1),
        Graph::new(3),
        classic::path(6),
        classic::cycle(9),
        classic::star(12),
        classic::petersen(),
        disjoint_union(&classic::complete(4), &classic::path(3)),
        random::gnp(&mut rng, 24, 0.2),
        random::core_periphery(&mut rng, 40, 4, 0.05),
    ];
    graphs
        .iter()
        .map(|g| HubLabels::build(g).expect("corpus builds").to_bytes())
        .collect()
}

fn read_word(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
}

fn write_word(buf: &mut [u8], at: usize, word: u64) {
    buf[at..at + 8].copy_from_slice(&word.to_le_bytes());
}

/// One seeded mutation of `buf`; splices draw from `corpus`. Most kinds
/// keep the length, so the decoder's checks past the length test run too.
fn mutate(rng: &mut StdRng, buf: &mut Vec<u8>, corpus: &[Vec<u8>]) {
    match rng.random_range(0..10) {
        0..=3 if !buf.is_empty() => {
            for _ in 0..rng.random_range(1..5) {
                let at = rng.random_range(0..buf.len());
                buf[at] ^= rng.random_range(1..256u32) as u8;
            }
        }
        4 | 5 => {
            // Splice a slice of a corpus buffer in: inserted over a cut of
            // any length, or overwriting in place.
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
        6 => {
            let len = rng.random_range(0..buf.len() + 1);
            buf.truncate(len);
        }
        7 => {
            for _ in 0..rng.random_range(1..16) {
                buf.push(rng.next_u32() as u8);
            }
        }
        8 if buf.len() >= ENTRIES_WORD + 8 => {
            let at = if rng.random_bool(0.5) {
                N_WORD
            } else {
                ENTRIES_WORD
            };
            let old = read_word(buf, at);
            let word = match rng.random_range(0..6) {
                0 => old.wrapping_add(1),
                1 => old.wrapping_sub(1),
                2 => u64::MAX,
                3 => 0,
                4 => 1 << rng.random_range(0..64u32),
                _ => rng.next_u64(),
            };
            write_word(buf, at, word);
        }
        9 if buf.len() >= ENTRIES_WORD + 8 => {
            // Balanced rewrite: 3k more offsets cost the 12k bytes of 2k
            // fewer entries (or the reverse), so the length still matches.
            let k = rng.random_range(1..4u64);
            let (n, entries) = (read_word(buf, N_WORD), read_word(buf, ENTRIES_WORD));
            let (n, entries) = if rng.random_bool(0.5) {
                (n.wrapping_add(3 * k), entries.wrapping_sub(2 * k))
            } else {
                (n.wrapping_sub(3 * k), entries.wrapping_add(2 * k))
            };
            write_word(buf, N_WORD, n);
            write_word(buf, ENTRIES_WORD, entries);
        }
        _ => {}
    }
}

/// Decode `buf`; an accepted buffer must re-encode to itself and answer
/// queries. Returns whether the decoder accepted it.
fn decode_and_check(buf: &[u8]) -> bool {
    let Ok(labels) = HubLabels::from_bytes(buf) else {
        return false;
    };
    assert!(
        labels.to_bytes() == buf,
        "accepted buffer does not re-encode"
    );
    let n = labels.n();
    for u in 0..n.min(6) {
        for v in (0..n.min(6)).chain([n - 1]) {
            labels.query(u, v);
        }
    }
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
fn decoder_survives_mutated_buffers() {
    fuzz(10_000, 0xF022);
}

#[test]
#[ignore = "10⁶ iterations; run with cargo test --release -p dclab-oracle -- --ignored"]
fn decoder_survives_a_million_mutated_buffers() {
    fuzz(1_000_000, 0xF022_0001);
}
