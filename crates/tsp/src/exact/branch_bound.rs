//! Branch-and-bound exact Path TSP.
//!
//! A second exact engine besides Held–Karp: depth-first extension of a
//! partial path with an admissible lower bound
//! `partial weight + MST(remaining ∪ {tip})`. Exponential worst case but
//! no `2^n` memory, and dramatically faster than Held–Karp on structured
//! instances (e.g. the two-valued weight matrices the Theorem 2 reduction
//! produces for diameter-2 graphs); also handles `n > 24` when the
//! instance is benign. Used in tests as a third independent exact oracle.

use crate::mst::{prim, PrimScratch};
use crate::tour::path_weight;
use crate::{TspInstance, Weight};
use dclab_par::Deadline;
use std::sync::atomic::{AtomicU64, Ordering};

/// How an anytime branch-and-bound run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BbStatus {
    /// The search tree was exhausted: the incumbent is a proven optimum
    /// (relative to any shared incumbent bound — see
    /// [`branch_bound_path_anytime`]).
    Proved,
    /// The node budget ran out first.
    BudgetExhausted,
    /// The wall-clock deadline (or its cancel token) fired first.
    Cancelled,
}

/// Result of an anytime branch-and-bound run: always a full valid path —
/// the best incumbent found — plus how the search ended.
#[derive(Clone, Debug)]
pub struct BbResult {
    /// Best incumbent path (a full permutation of the cities).
    pub order: Vec<u32>,
    /// Weight of `order`.
    pub weight: Weight,
    /// How the search ended (proved, exhausted, cancelled, …).
    pub status: BbStatus,
}

/// Exact minimum-weight Hamiltonian path (free endpoints) by DFS
/// branch-and-bound with MST lower bounds.
///
/// `node_budget` caps the number of search nodes (returns `None` when
/// exceeded, so callers can fall back to Held–Karp).
pub fn branch_bound_path(inst: &TspInstance, node_budget: u64) -> Option<(Vec<u32>, Weight)> {
    let r = branch_bound_path_anytime(inst, node_budget, &Deadline::none(), None, None);
    match r.status {
        BbStatus::Proved => Some((r.order, r.weight)),
        // With Deadline::none() only the budget can stop the search; the
        // legacy contract reports that as None.
        BbStatus::BudgetExhausted | BbStatus::Cancelled => None,
    }
}

/// Anytime variant: always returns the best incumbent found, never aborts
/// empty-handed. The `deadline` is checked once per search node (a node
/// already pays for an MST bound, so the clock read is noise) and once per
/// nearest-neighbor construction start.
///
/// `shared_bound`, when present, is a cross-worker incumbent *value* (a
/// racing portfolio publishes each member's best span there): the search
/// additionally prunes any branch whose lower bound cannot beat it. The
/// returned incumbent is still this run's own best path; on
/// [`BbStatus::Proved`] the exhausted search certifies that no path is
/// strictly cheaper than `min(returned weight, shared bound)` — since the
/// shared bound only ever holds weights achieved elsewhere, the racing
/// harvest's minimum is then a proven optimum.
///
/// `root_bound`, when present, must be a *proven* lower bound on the
/// optimal path weight (e.g. a Held–Karp ascent certificate). The run then
/// stops with [`BbStatus::Proved`] as soon as
/// `min(own incumbent, shared bound) ≤ root_bound` — the incumbent (or the
/// portfolio minimum) has met a valid lower bound, so it is optimal and no
/// search is needed. On bound-tight instances this turns the construction
/// sweep itself into a proof: the first nearest-neighbor start that
/// matches the root bound ends the run in `O(n²)` total.
pub fn branch_bound_path_anytime(
    inst: &TspInstance,
    node_budget: u64,
    deadline: &Deadline,
    shared_bound: Option<&AtomicU64>,
    root_bound: Option<Weight>,
) -> BbResult {
    let n = inst.n();
    assert!(n >= 1);
    if n == 1 {
        return BbResult {
            order: vec![0],
            weight: 0,
            status: BbStatus::Proved,
        };
    }
    // `min(own best, shared) ≤ root` — the incumbent pool met a proven
    // lower bound, nothing cheaper can exist.
    let proved_by_root = |w: Weight| -> bool {
        match root_bound {
            Some(root) => {
                let pool = match shared_bound {
                    Some(s) => w.min(s.load(Ordering::Relaxed)),
                    None => w,
                };
                pool <= root
            }
            None => false,
        }
    };
    // Initial incumbent: nearest-neighbor path from every start, improved
    // by the cheapest construction available here (NN only — callers who
    // want tighter incumbents can pre-seed via local search). Deadline
    // checked per start so a 1 ms budget at n = 512 cannot hide in the
    // O(n²)-per-start construction sweep.
    let mut best_order: Vec<u32> = (0..n as u32).collect();
    let mut best_w = path_weight(inst, &best_order);
    let mut constructed_all = true;
    for s in 0..n {
        if proved_by_root(best_w) {
            if let Some(shared) = shared_bound {
                shared.fetch_min(best_w, Ordering::Relaxed);
            }
            return BbResult {
                order: best_order,
                weight: best_w,
                status: BbStatus::Proved,
            };
        }
        if deadline.expired() {
            constructed_all = false;
            break;
        }
        let order = nn_path(inst, s);
        let w = path_weight(inst, &order);
        if w < best_w {
            best_w = w;
            best_order = order;
        }
    }
    if let Some(shared) = shared_bound {
        shared.fetch_min(best_w, Ordering::Relaxed);
    }
    if proved_by_root(best_w) {
        return BbResult {
            order: best_order,
            weight: best_w,
            status: BbStatus::Proved,
        };
    }
    if !constructed_all {
        return BbResult {
            order: best_order,
            weight: best_w,
            status: BbStatus::Cancelled,
        };
    }
    // One handle per search; the disabled mode reduces every per-node
    // checkpoint to a dead branch on a hoisted bool (no clock reads).
    let trace = dclab_trace::current();
    let mut span = trace.span("bb");
    let mut search = Search {
        inst,
        best_w,
        best_order,
        nodes: 0,
        budget: node_budget,
        deadline,
        shared_bound,
        root_bound,
        traced: trace.is_enabled(),
        trace: &trace,
        prim: PrimScratch::default(),
    };
    let mut path = Vec::with_capacity(n);
    let mut used = vec![false; n];
    let mut stopped = None;
    // Branch on the start vertex (symmetric pairs pruned by index order:
    // a path and its reverse are equal, so force start < end).
    for s in 0..n {
        path.push(s as u32);
        used[s] = true;
        let outcome = search.dfs(&mut path, &mut used, 0);
        used[s] = false;
        path.pop();
        if let Err(stop) = outcome {
            stopped = Some(stop);
            break;
        }
    }
    let status = stopped.unwrap_or(BbStatus::Proved);
    if span.is_enabled() {
        span.set_detail(format!("n={n} nodes={} status={status:?}", search.nodes));
    }
    BbResult {
        order: search.best_order,
        weight: search.best_w,
        status,
    }
}

/// Node interval between flight-recorder checkpoints (power of two so the
/// cadence test is a mask). ~65k nodes of MST-bounded DFS is a few
/// milliseconds — fine-grained enough to see where a budget went.
const BB_CHECKPOINT_NODES: u64 = 1 << 16;

/// DFS state bundle (keeps the recursion signature tractable).
struct Search<'a> {
    inst: &'a TspInstance,
    best_w: Weight,
    best_order: Vec<u32>,
    nodes: u64,
    budget: u64,
    deadline: &'a Deadline,
    shared_bound: Option<&'a AtomicU64>,
    root_bound: Option<Weight>,
    /// Hoisted `trace.is_enabled()` so the per-node checkpoint test is a
    /// single predictable branch when tracing is off.
    traced: bool,
    trace: &'a dclab_trace::Trace,
    /// Buffers of the per-node completion bound.
    prim: PrimScratch<Weight>,
}

impl Search<'_> {
    /// `Err` carries why the search stopped early; the incumbent stays on
    /// `self` either way.
    fn dfs(
        &mut self,
        path: &mut Vec<u32>,
        used: &mut Vec<bool>,
        acc: Weight,
    ) -> Result<(), BbStatus> {
        self.nodes += 1;
        if self.nodes > self.budget {
            return Err(BbStatus::BudgetExhausted);
        }
        if self.deadline.expired() {
            return Err(BbStatus::Cancelled);
        }
        if self.traced && self.nodes.is_multiple_of(BB_CHECKPOINT_NODES) {
            let (nodes, best_w) = (self.nodes, self.best_w);
            self.trace
                .instant("bb_checkpoint", || format!("nodes={nodes} best={best_w}"));
        }
        let inst = self.inst;
        let n = inst.n();
        if path.len() == n {
            // Symmetry break: canonical orientation only.
            if path[0] <= path[n - 1] && acc < self.best_w {
                self.best_w = acc;
                self.best_order = path.clone();
                if let Some(shared) = self.shared_bound {
                    shared.fetch_min(acc, Ordering::Relaxed);
                }
                if self.root_bound.is_some_and(|root| acc <= root) {
                    // The new incumbent met a proven lower bound: optimal.
                    return Err(BbStatus::Proved);
                }
            }
            return Ok(());
        }
        let tip = *path.last().unwrap() as usize;
        // Admissible bound: MST over {tip} ∪ remaining. The prune threshold
        // also consults the shared cross-worker incumbent — both thresholds
        // only ever shrink, so every pruned branch provably holds nothing
        // cheaper than the final min(best_w, shared).
        let prune_at = match self.shared_bound {
            Some(shared) => self.best_w.min(shared.load(Ordering::Relaxed)),
            None => self.best_w,
        };
        if self.root_bound.is_some_and(|root| prune_at <= root) {
            // Some member of the incumbent pool (this run or a racing
            // sibling publishing into `shared_bound`) already met a proven
            // lower bound — the remaining search cannot improve on it.
            return Err(BbStatus::Proved);
        }
        let bound = acc + mst_over_remaining(inst, used, tip, &mut self.prim);
        if bound >= prune_at {
            return Ok(()); // prune
        }
        // Order children by edge weight (cheapest-first finds incumbents early).
        let mut children: Vec<(Weight, usize)> = (0..n)
            .filter(|&v| !used[v])
            .map(|v| (inst.weight(tip, v), v))
            .collect();
        children.sort_unstable();
        for (w, v) in children {
            path.push(v as u32);
            used[v] = true;
            let outcome = self.dfs(path, used, acc + w);
            used[v] = false;
            path.pop();
            outcome?;
        }
        Ok(())
    }
}

/// Prim MST over the tip vertex plus all unused vertices — an admissible
/// completion bound (any Hamiltonian completion spans exactly that set).
pub(crate) fn mst_over_remaining(
    inst: &TspInstance,
    used: &[bool],
    tip: usize,
    scratch: &mut PrimScratch<Weight>,
) -> Weight {
    let mut total = 0;
    prim(
        inst,
        tip,
        (0..inst.n()).filter(|&v| !used[v]),
        scratch,
        |_, _, w| w,
        |_, _, w| total += w,
    );
    total
}

fn nn_path(inst: &TspInstance, start: usize) -> Vec<u32> {
    crate::construct::nearest_neighbor(inst, start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::held_karp_path;
    use crate::tour::is_permutation;

    fn random_instance(n: usize, salt: u64) -> TspInstance {
        TspInstance::from_fn(n, move |u, v| {
            let (a, b) = (u.min(v) as u64, u.max(v) as u64);
            (a.wrapping_mul(7919) ^ b.wrapping_mul(104729) ^ salt.wrapping_mul(31)) % 90 + 1
        })
    }

    #[test]
    fn matches_held_karp() {
        for n in [4usize, 6, 8, 10, 12] {
            for salt in 0..3 {
                let t = random_instance(n, salt);
                let (order, w) = branch_bound_path(&t, u64::MAX).unwrap();
                let (_, hk) = held_karp_path(&t);
                assert_eq!(w, hk, "n={n} salt={salt}");
                assert!(is_permutation(n, &order));
                assert_eq!(path_weight(&t, &order), w);
            }
        }
    }

    #[test]
    fn two_valued_weights_are_fast() {
        // The Theorem 2 shape for diameter-2 graphs: weights ∈ {1, 2},
        // with a guaranteed weight-1 Hamiltonian path (the identity order).
        let t = TspInstance::from_fn(26, |u, v| if u.abs_diff(v) == 1 { 1 } else { 2 });
        // Held–Karp would refuse (n > 24); B&B solves it in a tiny budget.
        let (order, w) = branch_bound_path(&t, 3_000_000).expect("budget large enough");
        assert!(is_permutation(26, &order));
        assert_eq!(w, 25); // a weight-1 Hamiltonian path exists here
    }

    #[test]
    fn budget_exhaustion_reports_none() {
        let t = random_instance(12, 9);
        assert!(branch_bound_path(&t, 5).is_none());
    }

    #[test]
    fn anytime_budget_exhaustion_keeps_a_full_incumbent() {
        let t = random_instance(12, 9);
        let r = branch_bound_path_anytime(&t, 5, &Deadline::none(), None, None);
        assert_eq!(r.status, BbStatus::BudgetExhausted);
        assert!(is_permutation(12, &r.order));
        assert_eq!(path_weight(&t, &r.order), r.weight);
        // The incumbent is at least as good as the best NN construction.
        let nn_best = (0..12)
            .map(|s| path_weight(&t, &nn_path(&t, s)))
            .min()
            .unwrap();
        assert!(r.weight <= nn_best);
    }

    #[test]
    fn anytime_cancellation_keeps_a_full_incumbent() {
        use dclab_par::CancelToken;
        let t = random_instance(14, 3);
        let token = CancelToken::new();
        token.cancel(); // expired before the search starts
        let deadline = Deadline::none().with_token(token);
        let r = branch_bound_path_anytime(&t, u64::MAX, &deadline, None, None);
        assert_eq!(r.status, BbStatus::Cancelled);
        assert!(is_permutation(14, &r.order));
        assert_eq!(path_weight(&t, &r.order), r.weight);
    }

    #[test]
    fn shared_bound_prunes_without_losing_the_optimum() {
        use std::sync::atomic::AtomicU64;
        for salt in 0..4 {
            let t = random_instance(10, salt);
            let (_, opt) = held_karp_path(&t);
            // A shared bound strictly above the optimum must not hide it:
            // the search still proves and returns the true optimum.
            let shared = AtomicU64::new(opt + 1);
            let r = branch_bound_path_anytime(&t, u64::MAX, &Deadline::none(), Some(&shared), None);
            assert_eq!(r.status, BbStatus::Proved);
            assert_eq!(r.weight, opt, "salt {salt}");
            // A shared bound at the optimum may prune the optimal branch,
            // but Proved then certifies "nothing cheaper than the shared
            // value exists" — the incumbent can never beat it.
            let shared = AtomicU64::new(opt);
            let r = branch_bound_path_anytime(&t, u64::MAX, &Deadline::none(), Some(&shared), None);
            assert_eq!(r.status, BbStatus::Proved);
            assert!(r.weight >= opt);
        }
    }

    #[test]
    fn trivial_sizes() {
        let t = TspInstance::from_matrix(1, vec![0]);
        assert_eq!(branch_bound_path(&t, 10).unwrap(), (vec![0], 0));
        let t2 = TspInstance::from_matrix(2, vec![0, 7, 7, 0]);
        assert_eq!(branch_bound_path(&t2, 100).unwrap().1, 7);
    }
}
