//! Instance feature extraction — the signals `Strategy::Auto` dispatches
//! on, kept in the report so a dispatch decision is always explainable.

use dclab_core::pvec::PVec;
use dclab_graph::diameter::diameter;
use dclab_graph::params::cotree::is_cograph;
use dclab_graph::Graph;

use crate::json::Obj;

/// Largest `n` at which feature extraction runs cograph recognition.
/// Recognition costs `O(n + m)` per cotree level, and a cotree can be `n`
/// levels deep, so the flag is not free. Oracle-scale instances (50k–100k
/// vertices) skip it: every route that consumes the flag is
/// dense-pipeline-only, so `false` is both safe and what dispatch would
/// conclude anyway.
const COGRAPH_CHECK_MAX_N: usize = 4096;

/// Cheap structural summary of a `(G, p)` instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstanceFeatures {
    pub n: usize,
    pub m: usize,
    pub max_degree: usize,
    /// `None` when disconnected.
    pub diameter: Option<u32>,
    /// `|p|`: the number of constrained distances.
    pub k: usize,
    /// `p_max ≤ 2·p_min` — Theorem 2's hypothesis.
    pub smooth: bool,
    /// All entries equal 1 (the `L(1^k)` coloring case).
    pub all_ones: bool,
    /// Diameter ≤ 2 with `k = 2`: the two-valued-weights regime of
    /// Corollaries 2, where PIP and branch-and-bound shine.
    pub two_valued: bool,
    /// Cograph (polynomial PIP via the cotree DP; closed under complement).
    pub cograph: bool,
}

impl InstanceFeatures {
    /// Extract features. Two of them carry the cost:
    ///
    /// - The exact diameter (`dclab_graph::diameter`). A universal vertex
    ///   settles it with one `O(n)` degree scan. Any other graph pays the
    ///   streaming bit-parallel sweep from every source: `O(n)` memory, but
    ///   `n` BFS waves of work — hundreds of milliseconds at n = 12 000 —
    ///   with no deadline check.
    /// - The cograph flag, `O(n + m)` per cotree level, for
    ///   `n ≤ COGRAPH_CHECK_MAX_N`.
    ///
    /// The full distance matrix lives in the reduction, which the engine
    /// computes separately (and once).
    pub fn extract(g: &Graph, p: &PVec) -> InstanceFeatures {
        let diam = diameter(g);
        let k = p.k();
        let two_valued = k == 2 && matches!(diam, Some(d) if d <= 2);
        InstanceFeatures {
            n: g.n(),
            m: g.m(),
            max_degree: g.max_degree(),
            diameter: diam,
            k,
            smooth: p.is_smooth(),
            all_ones: p.entries().iter().all(|&e| e == 1),
            two_valued,
            // Modular-decomposition recognition is quadratic-ish; above
            // the dense-pipeline scale the cotree route is never taken
            // anyway, so report `false` instead of paying for it.
            cograph: g.n() <= COGRAPH_CHECK_MAX_N && is_cograph(g),
        }
    }

    /// Eligible for the Theorem 2 reduction at all (connected, small
    /// diameter).
    pub fn reducible(&self) -> bool {
        matches!(self.diameter, Some(d) if d as usize <= self.k)
    }

    pub fn to_json(&self) -> String {
        Obj::new()
            .usize("n", self.n)
            .usize("m", self.m)
            .usize("max_degree", self.max_degree)
            .opt_u64("diameter", self.diameter.map(u64::from))
            .usize("k", self.k)
            .bool("smooth", self.smooth)
            .bool("all_ones", self.all_ones)
            .bool("two_valued", self.two_valued)
            .bool("cograph", self.cograph)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dclab_graph::generators::classic;

    #[test]
    fn petersen_features() {
        let f = InstanceFeatures::extract(&classic::petersen(), &PVec::l21());
        assert_eq!((f.n, f.m, f.max_degree), (10, 15, 3));
        assert_eq!(f.diameter, Some(2));
        assert!(f.smooth && f.two_valued && !f.all_ones && !f.cograph);
        assert!(f.reducible());
    }

    #[test]
    fn path_not_reducible_for_l21() {
        let f = InstanceFeatures::extract(&classic::path(6), &PVec::l21());
        assert_eq!(f.diameter, Some(5));
        assert!(!f.reducible() && !f.two_valued);
    }

    #[test]
    fn disconnected_has_no_diameter() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let f = InstanceFeatures::extract(&g, &PVec::l21());
        assert_eq!(f.diameter, None);
        assert!(!f.reducible());
    }

    #[test]
    fn json_is_stable() {
        let f = InstanceFeatures::extract(&classic::complete(3), &PVec::ones(2));
        let j = f.to_json();
        assert!(j.contains("\"all_ones\":true"));
        assert!(j.contains("\"diameter\":1"));
    }
}
