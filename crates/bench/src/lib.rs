//! The e9–e17 perf benches: their shared fixtures, and the [`ledger`]
//! that writes their `BENCH_*.json` files and reads them back for
//! `dclab bench-gate`. The paper's experiment tables are `dclab e1..e8`.

pub mod ledger;

use dclab_core::pvec::PVec;
use dclab_graph::generators::random;
use dclab_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic diameter-2 G(n, p) fixture. Density sits comfortably
/// above the diameter-2 threshold `√(2·ln n / n)`.
pub fn diam2_graph(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let density = (2.8 * (n as f64).ln() / n as f64).sqrt().clamp(0.0, 0.6);
    random::gnp_with_diameter_at_most(&mut rng, n, density.max(0.45), 2)
}

/// Deterministic `n`-vertex hardness-corpus instance: the Theorem 3
/// (Griggs–Yeh) reduction — complement of a random `G(n−1, ½)` plus a
/// universal vertex. Always connected with diameter ≤ 2, and adversarial
/// for exact search (its optimum encodes a Hamiltonian-path question), so
/// it is the natural stress corpus for anytime/deadline solving.
pub fn hardness_diam2(n: usize, seed: u64) -> Graph {
    assert!(n >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let g = random::gnp(&mut rng, n - 1, 0.5);
    dclab_core::hardness::griggs_yeh_reduction(&g)
}

/// The classic constraint vector.
pub fn l21() -> PVec {
    PVec::l21()
}
