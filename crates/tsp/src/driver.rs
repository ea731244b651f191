//! Multi-start Path TSP heuristic: parallel chained LK over the
//! zero-weight dummy-city extension, where a cycle is a path with both
//! endpoints free.

use crate::lk::{chained_lk_with_candidates, ChainedLkConfig};
use crate::localsearch::CandidateLists;
use crate::tour::{cycle_with_dummy_to_path, path_weight};
use crate::{TspInstance, Weight};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of the multi-start heuristic driver.
#[derive(Clone, Debug)]
pub struct HeuristicConfig {
    /// Independent chained-LK restarts (run in parallel).
    pub restarts: usize,
    /// Per-restart chained-LK settings.
    pub chained: ChainedLkConfig,
    /// Base RNG seed; restart `i` uses `seed + i`.
    pub seed: u64,
}

impl Default for HeuristicConfig {
    fn default() -> Self {
        HeuristicConfig {
            restarts: 4,
            chained: ChainedLkConfig::default(),
            seed: 0xDC1AB,
        }
    }
}

/// Multi-start chained LK for **path** TSP (both endpoints free).
///
/// Restart `i` runs cycle LK on the dummy-city extension from city
/// `i mod (n+1)` with seed `seed + i`. Restarts run in parallel via
/// `dclab-par`; the result is deterministic for a fixed config (the
/// lightest tour, ties to the lowest restart). Once the deadline has fired,
/// every restart after the first returns without building a tour, so an
/// expired solve pays for one construction, not `restarts` of them.
pub fn solve_path_heuristic(inst: &TspInstance, cfg: &HeuristicConfig) -> (Vec<u32>, Weight) {
    let n = inst.n();
    assert!(n >= 1, "empty instance");
    if n == 1 {
        return (vec![0], 0);
    }
    let ext = inst.with_dummy_city();
    let deadline = &cfg.chained.local.deadline;
    // One candidate-list build shared (read-only) by every restart — the
    // build is the same for all of them, and under a tight deadline an
    // already-expired run shouldn't pay for lists it cannot use.
    let cands = if ext.n() > 3 && !deadline.expired() {
        CandidateLists::build(&ext, cfg.chained.local.neighbor_k)
    } else {
        CandidateLists::empty(ext.n())
    };
    let runs = dclab_par::par_map_indexed(cfg.restarts.max(1), |i| {
        if i > 0 && deadline.expired() {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(i as u64));
        let run = chained_lk_with_candidates(&ext, i % ext.n(), &cfg.chained, &cands, &mut rng);
        Some(run)
    });
    let (cycle, _) = runs
        .into_iter()
        .flatten()
        .min_by_key(|(_, w)| *w)
        .expect("restart 0 always runs");
    let path = cycle_with_dummy_to_path(n, &cycle);
    let w = path_weight(inst, &path);
    (path, w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{brute_force_path, held_karp_path};
    use crate::tour::is_permutation;

    fn random_instance(n: usize, salt: u64) -> TspInstance {
        TspInstance::from_fn(n, move |u, v| {
            let (a, b) = (u.min(v) as u64, u.max(v) as u64);
            (a.wrapping_mul(6151) ^ b.wrapping_mul(3079) ^ salt.wrapping_mul(389)) % 100 + 1
        })
    }

    #[test]
    fn path_heuristic_matches_exact_on_small() {
        for salt in 0..5 {
            let t = random_instance(8, salt);
            let (_, opt) = brute_force_path(&t);
            let (path, w) = solve_path_heuristic(&t, &HeuristicConfig::default());
            assert!(is_permutation(8, &path));
            assert_eq!(path_weight(&t, &path), w);
            assert!(w >= opt);
            assert!(w <= opt + opt / 4, "salt={salt}: {w} vs {opt}");
        }
    }

    #[test]
    fn path_heuristic_reasonable_at_medium_size() {
        let t = random_instance(60, 3);
        let (_, w) = solve_path_heuristic(&t, &HeuristicConfig::default());
        // Sanity: heuristic at least beats the naive identity order.
        let identity: Vec<u32> = (0..60).collect();
        assert!(w <= path_weight(&t, &identity));
    }

    #[test]
    fn deterministic_given_config() {
        let t = random_instance(30, 11);
        let cfg = HeuristicConfig::default();
        assert_eq!(
            solve_path_heuristic(&t, &cfg),
            solve_path_heuristic(&t, &cfg)
        );
    }

    #[test]
    fn heuristic_upper_bounds_held_karp() {
        for salt in 0..3 {
            let t = random_instance(12, salt);
            let (_, exact) = held_karp_path(&t);
            let (_, heur) = solve_path_heuristic(&t, &HeuristicConfig::default());
            assert!(heur >= exact);
        }
    }

    #[test]
    fn single_city() {
        let t = TspInstance::from_matrix(1, vec![0]);
        assert_eq!(
            solve_path_heuristic(&t, &HeuristicConfig::default()).0,
            vec![0]
        );
    }
}
