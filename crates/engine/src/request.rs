//! The engine's request vocabulary: [`Strategy`], [`Budget`],
//! [`SolveRequest`].

use dclab_core::guard::DEFAULT_NODE_BUDGET;
use dclab_core::pvec::PVec;
use dclab_graph::Graph;
use dclab_par::Deadline;

/// Which solve route to run. `Auto` is the portfolio dispatcher: it
/// inspects instance features (n, diameter, p-vector shape) and picks a
/// route, computing the Theorem 2 reduction once and sharing it across
/// candidate routes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Held–Karp exact (Corollary 1a); guarded at `EXACT_MAX_N`.
    Exact,
    /// MST-bounded branch and bound with a node budget.
    BranchBound,
    /// Hoogeveen/Christofides 1.5-approximation (Corollary 1b).
    Approx15,
    /// Multi-start chained-LK heuristic (§I-A practical route).
    Heuristic,
    /// Greedy first-fit baseline (any graph, any p).
    Greedy,
    /// Diameter-2 `L(p,q)` via Partition into Paths (Corollary 2).
    Diam2Pip,
    /// `L(1^k)` / `p_max`-approximation via coloring `G^k` (Thm 4 / Cor 3).
    L1Coloring,
    /// Portfolio dispatch over the above.
    Auto,
    /// Racing portfolio: 2–4 members run concurrently sharing an atomic
    /// incumbent bound; the first proof of optimality cancels the rest,
    /// and a wall-clock deadline (`Budget::deadline_ms`) harvests the best
    /// incumbent. Without a deadline the race is bit-identical to the best
    /// single member.
    Race,
    /// Matrix-free labeling route for large small-diameter instances:
    /// complement-greedy order + clamped Claim 1 prefix labels over a
    /// point distance oracle ([`OraclePolicy`] picks dense vs hub-label
    /// backing). Requires smooth `p`; valid on any graph.
    OraclePath,
}

impl Strategy {
    /// Stable lowercase name (used in JSON reports and CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Exact => "exact",
            Strategy::BranchBound => "branch-bound",
            Strategy::Approx15 => "approx15",
            Strategy::Heuristic => "heuristic",
            Strategy::Greedy => "greedy",
            Strategy::Diam2Pip => "diam2-pip",
            Strategy::L1Coloring => "l1-coloring",
            Strategy::Auto => "auto",
            Strategy::Race => "race",
            Strategy::OraclePath => "oracle-path",
        }
    }

    /// Stable one-byte code for the binary codec and the store key format.
    /// Codes are append-only: never renumber an existing strategy.
    pub fn code(self) -> u8 {
        match self {
            Strategy::Exact => 0,
            Strategy::BranchBound => 1,
            Strategy::Approx15 => 2,
            Strategy::Heuristic => 3,
            Strategy::Greedy => 4,
            Strategy::Diam2Pip => 5,
            Strategy::L1Coloring => 6,
            Strategy::Auto => 7,
            Strategy::Race => 8,
            Strategy::OraclePath => 9,
        }
    }

    /// Inverse of [`Strategy::code`]; `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<Strategy> {
        match code {
            0 => Some(Strategy::Exact),
            1 => Some(Strategy::BranchBound),
            2 => Some(Strategy::Approx15),
            3 => Some(Strategy::Heuristic),
            4 => Some(Strategy::Greedy),
            5 => Some(Strategy::Diam2Pip),
            6 => Some(Strategy::L1Coloring),
            7 => Some(Strategy::Auto),
            8 => Some(Strategy::Race),
            9 => Some(Strategy::OraclePath),
            _ => None,
        }
    }

    /// All concrete (non-`Auto`) strategies.
    pub const CONCRETE: [Strategy; 8] = [
        Strategy::Exact,
        Strategy::BranchBound,
        Strategy::Approx15,
        Strategy::Heuristic,
        Strategy::Greedy,
        Strategy::Diam2Pip,
        Strategy::L1Coloring,
        Strategy::OraclePath,
    ];
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Strategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "exact" | "held-karp" | "hk" => Ok(Strategy::Exact),
            "branch-bound" | "branchbound" | "bb" => Ok(Strategy::BranchBound),
            "approx15" | "approx" | "christofides" => Ok(Strategy::Approx15),
            "heuristic" | "lk" => Ok(Strategy::Heuristic),
            "greedy" => Ok(Strategy::Greedy),
            "diam2-pip" | "diam2" | "pip" => Ok(Strategy::Diam2Pip),
            "l1-coloring" | "l1" | "coloring" => Ok(Strategy::L1Coloring),
            "oracle-path" | "oracle" | "pll" => Ok(Strategy::OraclePath),
            "auto" => Ok(Strategy::Auto),
            "race" => Ok(Strategy::Race),
            other => Err(format!(
                "unknown strategy '{other}' (expected one of: exact, branch-bound, \
                 approx15, heuristic, greedy, diam2-pip, l1-coloring, oracle-path, \
                 auto, race)"
            )),
        }
    }
}

/// Which distance backend an oracle-routed solve should use. `Auto` picks
/// by estimated footprint: the dense matrix below the memory threshold,
/// hub labels above it. Explicit `Dense`/`Hub` pin the backend — both are
/// exact, so the choice affects cost, never answers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum OraclePolicy {
    /// Footprint-driven: dense when the full pipeline fits comfortably in
    /// memory, hub labels beyond that.
    #[default]
    Auto,
    /// Always the dense `n × n` matrix.
    Dense,
    /// Always hub (2-hop / PLL) labels.
    Hub,
}

impl OraclePolicy {
    /// Stable lowercase name (JSON reports, CLI flags, query params).
    pub fn name(self) -> &'static str {
        match self {
            OraclePolicy::Auto => "auto",
            OraclePolicy::Dense => "dense",
            OraclePolicy::Hub => "hub",
        }
    }

    /// Stable one-byte code for key encodings. Append-only.
    pub fn code(self) -> u8 {
        match self {
            OraclePolicy::Auto => 0,
            OraclePolicy::Dense => 1,
            OraclePolicy::Hub => 2,
        }
    }

    /// Inverse of [`OraclePolicy::code`]; `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<OraclePolicy> {
        match code {
            0 => Some(OraclePolicy::Auto),
            1 => Some(OraclePolicy::Dense),
            2 => Some(OraclePolicy::Hub),
            _ => None,
        }
    }
}

impl std::fmt::Display for OraclePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for OraclePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Ok(OraclePolicy::Auto),
            "dense" | "matrix" => Ok(OraclePolicy::Dense),
            "hub" | "pll" | "labels" => Ok(OraclePolicy::Hub),
            other => Err(format!(
                "unknown oracle policy '{other}' (expected one of: auto, dense, hub)"
            )),
        }
    }
}

/// Per-request resource budget. `Default` gives the engine's standard
/// budgets; `solve_batch` callers can tighten per request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Budget {
    /// Branch-and-bound node budget (`None` → [`DEFAULT_NODE_BUDGET`]).
    pub node_budget: Option<u64>,
    /// Chained-LK restarts (`None` → 4; more than
    /// [`dclab_core::guard::MAX_RESTARTS`] is a guard error).
    pub restarts: Option<usize>,
    /// Held–Karp ascent iterations for the lower-bound certificate
    /// (`None` → 50; `Some(0)` skips the ascent).
    pub lb_iters: Option<usize>,
    /// Wall-clock budget in milliseconds, measured from solve entry.
    /// `None` (the default) keeps the solve purely logical — bit-identical
    /// reports regardless of machine speed or thread count. `Some(ms)`
    /// makes every route *anytime*: local search, chained-LK kicks, and
    /// branch and bound check the deadline at checkpoint granularity and
    /// surrender their best incumbent (`stats.timed_out = true`) instead
    /// of aborting empty-handed.
    pub deadline_ms: Option<u64>,
}

impl Budget {
    pub fn node_budget(&self) -> u64 {
        self.node_budget.unwrap_or(DEFAULT_NODE_BUDGET)
    }

    pub fn lb_iters(&self) -> usize {
        self.lb_iters.unwrap_or(50)
    }

    /// Start the wall clock on this budget: a live [`Deadline`] when
    /// `deadline_ms` is set, [`Deadline::none`] (free of clock reads)
    /// otherwise.
    pub fn deadline(&self) -> Deadline {
        match self.deadline_ms {
            Some(ms) => Deadline::in_millis(ms),
            None => Deadline::none(),
        }
    }
}

/// One unit of work for the engine: an instance plus how to attack it.
#[derive(Clone, Debug)]
pub struct SolveRequest {
    pub graph: Graph,
    pub pvec: PVec,
    pub strategy: Strategy,
    pub budget: Budget,
    /// Distance backend policy for oracle-routed solves (ignored by the
    /// matrix-bound legacy routes). `Auto` is the footprint-driven pick.
    pub oracle: OraclePolicy,
}

impl SolveRequest {
    /// `Auto` strategy, default budget.
    pub fn new(graph: Graph, pvec: PVec) -> SolveRequest {
        SolveRequest {
            graph,
            pvec,
            strategy: Strategy::Auto,
            budget: Budget::default(),
            oracle: OraclePolicy::Auto,
        }
    }

    pub fn with_strategy(mut self, strategy: Strategy) -> SolveRequest {
        self.strategy = strategy;
        self
    }

    pub fn with_budget(mut self, budget: Budget) -> SolveRequest {
        self.budget = budget;
        self
    }

    pub fn with_oracle(mut self, oracle: OraclePolicy) -> SolveRequest {
        self.oracle = oracle;
        self
    }
}

// The serve layer moves requests and reports across worker threads and
// caches reports behind shared state; keep thread-safety a compile-time
// contract rather than an accident of field types.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SolveRequest>();
    assert_send_sync::<Strategy>();
    assert_send_sync::<Budget>();
    assert_send_sync::<OraclePolicy>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_names_round_trip() {
        for s in Strategy::CONCRETE
            .iter()
            .chain([Strategy::Auto, Strategy::Race].iter())
        {
            assert_eq!(s.name().parse::<Strategy>().unwrap(), *s);
        }
        assert!("frobnicate".parse::<Strategy>().is_err());
    }

    #[test]
    fn strategy_codes_round_trip_and_are_dense() {
        for s in Strategy::CONCRETE
            .iter()
            .chain([Strategy::Auto, Strategy::Race].iter())
        {
            assert_eq!(Strategy::from_code(s.code()), Some(*s));
        }
        assert_eq!(Strategy::from_code(10), None);
    }

    #[test]
    fn oracle_policy_round_trips_and_defaults_to_auto() {
        assert_eq!(OraclePolicy::default(), OraclePolicy::Auto);
        for p in [OraclePolicy::Auto, OraclePolicy::Dense, OraclePolicy::Hub] {
            assert_eq!(p.name().parse::<OraclePolicy>().unwrap(), p);
            assert_eq!(OraclePolicy::from_code(p.code()), Some(p));
        }
        assert_eq!(OraclePolicy::from_code(3), None);
        assert!("frobnicate".parse::<OraclePolicy>().is_err());
        let req = SolveRequest::new(Graph::from_edges(2, &[(0, 1)]), PVec::l21());
        assert_eq!(req.oracle, OraclePolicy::Auto);
        assert_eq!(req.with_oracle(OraclePolicy::Hub).oracle, OraclePolicy::Hub);
    }

    #[test]
    fn budget_defaults() {
        let b = Budget::default();
        assert_eq!(b.node_budget(), DEFAULT_NODE_BUDGET);
        assert_eq!(b.lb_iters(), 50);
        assert_eq!(b.deadline_ms, None);
        assert!(b.deadline().is_unlimited());
        let tight = Budget {
            node_budget: Some(10),
            lb_iters: Some(0),
            ..Budget::default()
        };
        assert_eq!(tight.node_budget(), 10);
        assert_eq!(tight.lb_iters(), 0);
    }

    #[test]
    fn deadline_budget_arms_the_clock() {
        let b = Budget {
            deadline_ms: Some(60_000),
            ..Budget::default()
        };
        let d = b.deadline();
        assert!(!d.is_unlimited());
        assert!(!d.expired());
        let expired = Budget {
            deadline_ms: Some(0),
            ..Budget::default()
        };
        assert!(expired.deadline().expired());
    }
}
