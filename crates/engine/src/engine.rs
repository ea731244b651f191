//! The dispatcher: one [`solve`] entry point over every route, with the
//! Theorem 2 reduction computed **once** per request and shared across
//! candidate routes.
//!
//! **Anytime semantics** — when the request arms `Budget::deadline_ms`,
//! every long-running route becomes interruptible: chained LK checks the
//! deadline between local-search rounds and kicks, branch and bound checks
//! it per search node, and both surrender their best incumbent (a full,
//! valid labeling) instead of aborting. The harvested report carries
//! `stats.timed_out = true` unless optimality was proved anyway.
//!
//! **Racing** — [`Strategy::Race`] runs 2–4 portfolio members concurrently
//! over `dclab-par`, sharing an atomic incumbent bound (branch and bound
//! prunes against everyone's best span) and a cancel token (the first
//! member to *prove* optimality stops the rest). Without a deadline the
//! race runs every member to completion fully independently, which keeps
//! the result bit-identical to the best single member regardless of thread
//! count.

use dclab_core::bounds::{
    degree_bound, span_bound_with_reduction, span_lower_bound_cheap, BoundKind, SpanBound,
};
use dclab_core::diam2::{solve_diam2_lpq_with_witness, Diam2Error, PipSolver};
use dclab_core::distance::DistanceSource;
use dclab_core::guard::{check_exact_size, check_restarts, GuardError, EXACT_MAX_N};
use dclab_core::l1::{solve_pmax_approx, L1Engine};
use dclab_core::labeling::Labeling;
use dclab_core::oracle_route::oracle_path_route;
use dclab_core::pvec::PVec;
use dclab_core::reduction::{
    reduce_to_path_tsp, reduce_unchecked, tight_labeling_for_order, ReducedInstance, ReductionError,
};
use dclab_core::routes::{self, Solution};
use dclab_graph::Graph;
use dclab_oracle::dense_pipeline_bytes;
use dclab_par::{CancelToken, Deadline};
use dclab_tsp::driver::HeuristicConfig;
use dclab_tsp::exact::BbStatus;
use dclab_tsp::matching::MatchingBackend;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::features::InstanceFeatures;
use crate::report::{BoundStats, EngineStats, OracleStats, SolveReport};
use crate::request::{OraclePolicy, SolveRequest, Strategy};

/// Exact-coloring size guard for the `L1Coloring` route's `Exact` engine.
const L1_EXACT_MAX_N: usize = 28;

/// Seed stride between racing LK members: far enough apart that their kick
/// streams never overlap the per-restart `seed + i` offsets of the driver.
const RACE_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// `Auto` dispatch (and `OraclePolicy::Auto` backend resolution) switch to
/// the hub-label oracle path when the dense pipeline — `u32` distance
/// matrix plus `u64` TSP weights, `12·n²` bytes — would exceed this.
/// 1 GiB ⇒ the crossover sits near n ≈ 9.5k; past it the matrix walk to
/// tens of gigabytes is what the oracle subsystem exists to avoid.
const AUTO_HUB_THRESHOLD_BYTES: u64 = 1 << 30;

/// What a route hands to [`finish`]: the solution, the concrete strategy
/// that produced it, its lower-bound certificate, and whether optimality
/// was proved.
type Routed = (Solution, Strategy, SpanBound, bool);

/// Why the engine could not produce a solution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The requested route needs the Theorem 2 reduction and the instance
    /// is outside its scope.
    Reduction(ReductionError),
    /// A size/budget guard refused the requested route (single shared
    /// guard path — see `dclab_core::guard`).
    Guard(GuardError),
    /// The requested route does not apply to this instance shape.
    Unsupported { strategy: Strategy, reason: String },
    /// A route produced an invalid labeling — a bug, surfaced loudly.
    Internal(String),
}

impl From<ReductionError> for EngineError {
    fn from(e: ReductionError) -> Self {
        EngineError::Reduction(e)
    }
}

impl From<GuardError> for EngineError {
    fn from(e: GuardError) -> Self {
        EngineError::Guard(e)
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Reduction(e) => write!(f, "reduction failed: {e}"),
            EngineError::Guard(e) => write!(f, "guard refused: {e}"),
            EngineError::Unsupported { strategy, reason } => {
                write!(f, "strategy '{strategy}' unsupported here: {reason}")
            }
            EngineError::Internal(msg) => write!(f, "engine invariant broken: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Per-request working state: owns the at-most-one reduction and the
/// dispatch trace.
struct Ctx<'a> {
    g: &'a Graph,
    p: &'a PVec,
    reduced: Option<ReducedInstance>,
    reductions_computed: usize,
    /// The request's at-most-one distance source (oracle-routed solves).
    source: Option<DistanceSource>,
    oracle_builds: usize,
    /// An `OraclePolicy::Auto` request resolved to the dense matrix.
    oracle_dense_fallback: bool,
    routes_tried: Vec<Strategy>,
    notes: Vec<String>,
    /// The wall-clock deadline fired before the chosen route finished
    /// proving anything (the report's `stats.timed_out`, cleared by
    /// `finish` when optimality was established regardless).
    timed_out: bool,
    /// Wall-clock µs spent computing lower-bound certificates. Measured
    /// only on deadline-armed solves (`stats.bound.time_us`); deadline-free
    /// solves keep it 0 so their reports stay clock-free and bit-identical.
    bound_time_us: u64,
}

impl<'a> Ctx<'a> {
    fn new(g: &'a Graph, p: &'a PVec) -> Ctx<'a> {
        Ctx {
            g,
            p,
            reduced: None,
            reductions_computed: 0,
            source: None,
            oracle_builds: 0,
            oracle_dense_fallback: false,
            routes_tried: Vec::new(),
            notes: Vec::new(),
            timed_out: false,
            bound_time_us: 0,
        }
    }

    /// The request's single reduction (smoothness-checked), computed on
    /// first use.
    fn reduced(&mut self) -> Result<&ReducedInstance, ReductionError> {
        if self.reduced.is_none() {
            let _span = dclab_trace::current().span("reduce");
            self.reduced = Some(reduce_to_path_tsp(self.g, self.p)?);
            self.reductions_computed += 1;
        }
        Ok(self.reduced.as_ref().expect("just computed"))
    }

    /// The request's single reduction *without* the smoothness check (the
    /// weight matrix is well-defined whenever `diam ≤ k`; routes using it
    /// construct labelings via the always-valid tight recovery).
    fn reduced_unchecked(&mut self) -> Result<&ReducedInstance, ReductionError> {
        if self.reduced.is_none() {
            let _span = dclab_trace::current().span("reduce");
            self.reduced = Some(reduce_unchecked(self.g, self.p)?);
            self.reductions_computed += 1;
        }
        Ok(self.reduced.as_ref().expect("just computed"))
    }

    /// The request's single distance source, built on first use under the
    /// `oracle_build` span. `policy` resolves here: explicit backends are
    /// honored; `Auto` picks hub labels exactly when the dense pipeline
    /// would cross [`AUTO_HUB_THRESHOLD_BYTES`].
    fn source(&mut self, policy: OraclePolicy) -> Result<&DistanceSource, EngineError> {
        if self.source.is_none() {
            let trace = dclab_trace::current();
            let mut span = trace.span("oracle_build");
            let n = self.g.n();
            let use_hub = match policy {
                OraclePolicy::Dense => false,
                OraclePolicy::Hub => true,
                OraclePolicy::Auto => dense_pipeline_bytes(n) > AUTO_HUB_THRESHOLD_BYTES,
            };
            if policy == OraclePolicy::Auto && !use_hub {
                self.oracle_dense_fallback = true;
            }
            let src = if use_hub {
                DistanceSource::build_hub(self.g).map_err(|e| EngineError::Unsupported {
                    strategy: Strategy::OraclePath,
                    reason: format!("hub-label build failed: {e}"),
                })?
            } else {
                DistanceSource::build_dense(self.g)
            };
            if span.is_enabled() {
                span.set_detail(format!(
                    "backend={} n={n} entries={}",
                    src.backend_name(),
                    src.label_entries()
                ));
            }
            self.source = Some(src);
            self.oracle_builds += 1;
        }
        Ok(self.source.as_ref().expect("just built"))
    }

    fn note(&mut self, msg: impl Into<String>) {
        self.notes.push(msg.into());
    }

    /// Record a deadline overrun after a route returns: if the clock fired
    /// meanwhile, mark the report timed out and say where (`msg`).
    fn overrun(&mut self, deadline: &Deadline, msg: &str) {
        if deadline.expired() {
            self.timed_out = true;
            self.note(msg);
        }
    }
}

/// Solve one request. The single front door: every strategy, including the
/// `Auto` and `Race` portfolios, goes through here. The wall clock (when
/// `Budget::deadline_ms` is set) starts here, so reduction and feature
/// extraction spend from the same budget as the search.
///
/// When the caller has a live [`dclab_trace::Trace`] installed, the solve
/// runs under a `"solve"` span and the finished report carries the trace's
/// per-phase µs attribution in `stats.phases`. With no trace installed
/// (the default) this wrapper is a single thread-local read and the report
/// is bit-identical to a pre-trace build — timings never enter
/// deterministic output.
///
/// A request for more restarts than [`dclab_core::guard::MAX_RESTARTS`] is
/// refused with a guard error before any work, whatever its strategy.
pub fn solve(req: &SolveRequest) -> Result<SolveReport, EngineError> {
    if let Some(restarts) = req.budget.restarts {
        check_restarts(restarts)?;
    }
    let trace = dclab_trace::current();
    if !trace.is_enabled() {
        return solve_impl(req);
    }
    let mut span = trace.span("solve");
    let first = span.id();
    let mut report = solve_impl(req)?;
    span.set_detail(format!(
        "strategy={} span={}",
        report.strategy_used.name(),
        report.solution.span
    ));
    // Snapshot after the solve span closed so it is part of its own
    // attribution (one trace per solve: the caller installs a fresh
    // `Trace` per request, and spans it opened first stay out).
    drop(span);
    report.stats.phases = trace
        .phase_totals_since(first)
        .into_iter()
        .map(|t| crate::report::PhaseStat {
            name: t.name,
            calls: t.calls,
            total_us: t.total_us,
        })
        .collect();
    Ok(report)
}

fn solve_impl(req: &SolveRequest) -> Result<SolveReport, EngineError> {
    let deadline = req.budget.deadline();
    let g = &req.graph;
    let p = &req.pvec;
    let features = InstanceFeatures::extract(g, p);
    let mut ctx = Ctx::new(g, p);

    if g.n() <= 1 {
        // Trivial instances short-circuit before any route machinery.
        let solution = Solution::from_labeling(Labeling::new(vec![0; g.n()]));
        ctx.note("trivial instance (n ≤ 1)");
        ctx.routes_tried.push(Strategy::Greedy);
        return finish(
            req,
            ctx,
            features,
            solution,
            Strategy::Greedy,
            SpanBound::degree(0),
            true,
        );
    }

    let (solution, used, bound, proved_optimal) = match req.strategy {
        Strategy::Exact => {
            check_exact_size(g.n())?;
            let reduced = ctx.reduced()?;
            let sol = routes::exact_route(reduced)?;
            ctx.routes_tried.push(Strategy::Exact);
            let lb = SpanBound::proved(sol.span);
            (sol, Strategy::Exact, lb, true)
        }
        // The logical budget running out stays an error (the pre-deadline
        // contract); only the wall clock harvests.
        Strategy::BranchBound => {
            branch_bound_strategy(&mut ctx, req, &deadline)?.ok_or(GuardError::BudgetExhausted {
                node_budget: req.budget.node_budget(),
            })?
        }
        Strategy::Approx15 => {
            // Christofides has no interior checkpoint; it runs to
            // completion, and an overrun is reported as a timeout so the
            // degraded (degree-bound) certificate is never silent.
            let sol = routes::approx15_route(ctx.reduced()?, MatchingBackend::Auto);
            ctx.routes_tried.push(Strategy::Approx15);
            ctx.overrun(
                &deadline,
                "deadline fired during christofides (not interruptible)",
            );
            let lb = certificate(&mut ctx, req, true, &deadline);
            (sol, Strategy::Approx15, lb, false)
        }
        Strategy::Heuristic => heuristic_strategy(&mut ctx, req, &deadline)?,
        Strategy::Greedy => {
            let sol = routes::greedy_route(g, p, &deadline);
            ctx.routes_tried.push(Strategy::Greedy);
            ctx.overrun(
                &deadline,
                "deadline fired between greedy orders → best order so far",
            );
            (
                sol,
                Strategy::Greedy,
                SpanBound::degree(degree_bound(g, p)),
                false,
            )
        }
        Strategy::L1Coloring => {
            let engine = l1_engine(g);
            ctx.note(format!("coloring G^{} with {engine:?}", p.k()));
            let sol = solve_pmax_approx(g, p, engine);
            ctx.routes_tried.push(Strategy::L1Coloring);
            ctx.overrun(
                &deadline,
                "deadline fired during coloring (not interruptible)",
            );
            let proved = features.all_ones && engine == L1Engine::Exact;
            let lb = if proved {
                SpanBound::proved(sol.span)
            } else {
                SpanBound::degree(degree_bound(g, p))
            };
            (sol, Strategy::L1Coloring, lb, proved)
        }
        Strategy::OraclePath => oracle_path_strategy(&mut ctx, req, &features, &deadline)?,
        Strategy::Diam2Pip => diam2_route(&mut ctx, &features, true)?,
        Strategy::Auto => auto_route(&mut ctx, req, &features, &deadline)?,
        Strategy::Race => race_route(&mut ctx, req, &features, &deadline)?,
    };

    finish(req, ctx, features, solution, used, bound, proved_optimal)
}

/// The `OraclePath` strategy body: one distance source per request
/// (dense or hub per the request's [`OraclePolicy`]), the matrix-free
/// clamped Claim 1 route over it, and the reduction-free cheap
/// certificate. Every piece is backend-agnostic, so dense- and
/// hub-backed solves of one instance report identical solutions, bounds,
/// and optimality flags.
fn oracle_path_strategy(
    ctx: &mut Ctx<'_>,
    req: &SolveRequest,
    features: &InstanceFeatures,
    deadline: &Deadline,
) -> Result<Routed, EngineError> {
    let g = ctx.g;
    let p = ctx.p;
    if !features.smooth {
        return Err(EngineError::Unsupported {
            strategy: Strategy::OraclePath,
            reason: format!("clamped Claim 1 labeling needs smooth p (p_max ≤ 2·p_min), got {p}"),
        });
    }
    let src = ctx.source(req.oracle)?;
    let sol = oracle_path_route(g, p, src);
    ctx.routes_tried.push(Strategy::OraclePath);
    ctx.overrun(
        deadline,
        "deadline fired during oracle path construction (not interruptible)",
    );
    // Cheap, O(n)-memory certificate: never touches the reduction, and
    // never depends on the distance backend.
    let lb = span_lower_bound_cheap(g, p, features.diameter);
    let proved = sol.span == lb;
    Ok((sol, Strategy::OraclePath, SpanBound::degree(lb), proved))
}

/// The portfolio dispatcher behind `Strategy::Auto`.
fn auto_route(
    ctx: &mut Ctx<'_>,
    req: &SolveRequest,
    features: &InstanceFeatures,
    deadline: &Deadline,
) -> Result<Routed, EngineError> {
    let n = ctx.g.n();

    if features.smooth && dense_pipeline_bytes(n) > AUTO_HUB_THRESHOLD_BYTES {
        // Past the memory wall the matrix-bound routes are off the table;
        // the oracle path is the only pipeline that scales, and it does
        // not need the Theorem 2 preconditions beyond smoothness.
        ctx.note(format!(
            "n={n}: dense pipeline ≈ {} MiB > {} MiB threshold → oracle path",
            dense_pipeline_bytes(n) >> 20,
            AUTO_HUB_THRESHOLD_BYTES >> 20
        ));
        return oracle_path_strategy(ctx, req, features, deadline);
    }

    if !features.reducible() {
        // Disconnected or diameter > k: outside Theorem 2 entirely.
        ctx.note(match features.diameter {
            None => "disconnected → reduction-free fallback".to_string(),
            Some(d) => format!("diameter {d} > k={} → reduction-free fallback", features.k),
        });
        return Ok(fallback_portfolio(ctx, deadline));
    }

    if !features.smooth {
        // Claim 1's equality needs p_max ≤ 2·p_min. Without it, prefer the
        // certified diameter-2 PIP route when it applies, else the best of
        // the reduction-free upper bounds, certified by the (still sound)
        // TSP lower bound.
        ctx.note("p not smooth → TSP equality unavailable");
        if features.two_valued && diam2_applicable(ctx, features) {
            return diam2_route(ctx, features, false);
        }
        let (sol, used, _, _) = fallback_portfolio(ctx, deadline);
        let lb = certificate(ctx, req, false, deadline);
        let proved = sol.span == lb.value;
        return Ok((sol, used, lb, proved));
    }

    if n <= EXACT_MAX_N {
        ctx.note(format!("n={n} ≤ exact guard {EXACT_MAX_N} → Held–Karp"));
        let sol = routes::exact_route(ctx.reduced()?)?;
        ctx.routes_tried.push(Strategy::Exact);
        let lb = SpanBound::proved(sol.span);
        return Ok((sol, Strategy::Exact, lb, true));
    }

    if features.two_valued {
        // Benign regime: two-valued weight matrix. Poly PIP route first
        // when available, else budgeted branch and bound.
        if diam2_applicable(ctx, features) {
            ctx.note("diameter-2 L(p,q) with PIP solver available → Corollary 2");
            return diam2_route(ctx, features, false);
        }
        ctx.note(format!(
            "two-valued weights → branch and bound (budget {})",
            req.budget.node_budget()
        ));
        if let Some(out) = branch_bound_strategy(ctx, req, deadline)? {
            return Ok(out);
        }
        ctx.note(format!(
            "BB budget {} exhausted → heuristic",
            req.budget.node_budget()
        ));
    } else {
        ctx.note("general smooth instance → heuristic portfolio");
    }
    heuristic_strategy(ctx, req, deadline)
}

/// Chained LK over the request's reduction, certified from the same
/// reduction: `Strategy::Heuristic`, and `Auto`'s last leg.
fn heuristic_strategy(
    ctx: &mut Ctx<'_>,
    req: &SolveRequest,
    deadline: &Deadline,
) -> Result<Routed, EngineError> {
    let cfg = heuristic_config(req, deadline);
    let sol = routes::heuristic_route(ctx.reduced()?, &cfg);
    ctx.routes_tried.push(Strategy::Heuristic);
    ctx.overrun(
        deadline,
        "deadline fired during local search → best incumbent",
    );
    let lb = certificate(ctx, req, true, deadline);
    Ok((sol, Strategy::Heuristic, lb, false))
}

/// Branch and bound over the request's reduction: `Strategy::BranchBound`,
/// and `Auto`'s two-valued leg. Armed solves buy a Held–Karp root bound
/// first (a small slice of the budget): the search stops with a proof the
/// moment its incumbent meets it, and a harvested timeout still certifies
/// the strongest bound instead of the degree floor. `None` means the node
/// budget ran out, which the callers read differently: an error for the
/// explicit strategy, the LK leg for `Auto`.
fn branch_bound_strategy(
    ctx: &mut Ctx<'_>,
    req: &SolveRequest,
    deadline: &Deadline,
) -> Result<Option<Routed>, EngineError> {
    ctx.reduced()?;
    let root = root_bound(ctx, req, deadline);
    let reduced = ctx.reduced.as_ref().expect("just computed");
    let (sol, status) = routes::branch_bound_route_anytime(
        reduced,
        req.budget.node_budget(),
        deadline,
        None,
        root.map(|b| b.value),
    );
    ctx.routes_tried.push(Strategy::BranchBound);
    Ok(match status {
        BbStatus::Proved => {
            let lb = SpanBound::proved(sol.span);
            Some((sol, Strategy::BranchBound, lb, true))
        }
        BbStatus::Cancelled => {
            // No wall-clock left for anything else: harvest the incumbent,
            // certified by the root bound when one was bought, else by the
            // cheap degree floor.
            ctx.timed_out = true;
            ctx.note("deadline fired mid-search → best incumbent");
            let lb = root.unwrap_or_else(|| SpanBound::degree(degree_bound(ctx.g, ctx.p)));
            Some((sol, Strategy::BranchBound, lb, false))
        }
        BbStatus::BudgetExhausted => None,
    })
}

/// One member of the racing portfolio.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RaceMember {
    /// First-fit greedy: near-instant on any graph — the member that
    /// guarantees even a 1 ms deadline harvests *something* valid.
    Greedy,
    /// Chained LK with a salted kick seed (salt 0 is the stock heuristic;
    /// other salts explore different kick trajectories).
    Lk { seed_salt: u64 },
    /// Anytime branch and bound, pruning against the shared incumbent
    /// bound; the only member that can *prove* optimality and cancel the
    /// rest.
    Bb,
    /// `p_max`-scaled coloring of `G^k` (reduction-free).
    L1,
}

impl RaceMember {
    fn strategy(self) -> Strategy {
        match self {
            RaceMember::Greedy => Strategy::Greedy,
            RaceMember::Lk { .. } => Strategy::Heuristic,
            RaceMember::Bb => Strategy::BranchBound,
            RaceMember::L1 => Strategy::L1Coloring,
        }
    }
}

/// The deterministic portfolio for an instance: on the Theorem 2 smooth
/// path, greedy + two differently-seeded LK members + anytime branch and
/// bound; outside it, the two reduction-free upper bounds.
///
/// Member order is the fan-out order, which matters two ways: deadline-free
/// ties go to the earliest member (so the deadline-free order is frozen for
/// bit-compatibility), and on small worker pools an armed race degenerates
/// to sequential execution — there branch and bound runs *first*, because
/// with a Held–Karp root bound its construction sweep can *prove*
/// bound-tight instances in milliseconds, while greedy alone at racing
/// sizes can consume the whole remaining budget and leave the proof
/// attempt an already-expired clock. Its budget slice (see
/// [`run_race_member`]) keeps the later members' wall-clock share.
fn race_members(features: &InstanceFeatures, armed: bool) -> Vec<RaceMember> {
    if features.reducible() && features.smooth {
        if armed {
            vec![
                RaceMember::Bb,
                RaceMember::Greedy,
                RaceMember::Lk { seed_salt: 0 },
                RaceMember::Lk { seed_salt: 1 },
            ]
        } else {
            vec![
                RaceMember::Greedy,
                RaceMember::Lk { seed_salt: 0 },
                RaceMember::Lk { seed_salt: 1 },
                RaceMember::Bb,
            ]
        }
    } else {
        vec![RaceMember::Greedy, RaceMember::L1]
    }
}

/// Cross-member pruning state only the branch-and-bound member consumes:
/// the racing incumbent pool and the root Held–Karp bound it proves
/// against. Default (both `None`) is the deadline-free configuration.
#[derive(Clone, Copy, Default)]
struct BbArms<'a> {
    shared_bound: Option<&'a AtomicU64>,
    root_bound: Option<u64>,
}

/// A finished member: its best solution and whether it proved optimality.
struct MemberRun {
    solution: Solution,
    strategy: Strategy,
    proved: bool,
}

/// Run one portfolio member to completion (or to the shared deadline).
///
/// `root_bound` is the race's proven span lower bound (armed solves only);
/// only the branch-and-bound member consumes it, both for early-proof and
/// to justify its bounded budget slice: under an armed deadline BB is
/// capped at a third of the remaining wall-clock, so on a sequential
/// worker pool it cannot starve the LK members that follow it. Proofs
/// come from the root-bound check (cheap, early) or not at all at racing
/// sizes — the slice costs nothing real.
fn run_race_member(
    member: RaceMember,
    g: &Graph,
    p: &PVec,
    reduced: Option<&ReducedInstance>,
    req: &SolveRequest,
    deadline: &Deadline,
    arms: BbArms<'_>,
) -> MemberRun {
    let strategy = member.strategy();
    // Each member gets its own span on its worker thread; the parent link
    // (the race span) rode across the fan-out with the installed trace.
    let trace = dclab_trace::current();
    let mut span = trace.span("member");
    if span.is_enabled() {
        span.set_detail(format!("{member:?}"));
    }
    match member {
        RaceMember::Greedy => MemberRun {
            // Order-granular anytime greedy: the first vertex order always
            // completes, so even an expired deadline harvests a labeling.
            solution: routes::greedy_route(g, p, deadline),
            strategy,
            proved: false,
        },
        RaceMember::L1 => MemberRun {
            solution: solve_pmax_approx(g, p, l1_engine(g)),
            strategy,
            proved: false,
        },
        RaceMember::Lk { seed_salt } => {
            let reduced = reduced.expect("LK members race only with a reduction");
            // Exactly the Strategy::Heuristic configuration (one shared
            // helper, so budget knobs can never drift between the single
            // route and the race members) plus this member's kick salt.
            let mut cfg = heuristic_config(req, deadline);
            cfg.seed = cfg
                .seed
                .wrapping_add(seed_salt.wrapping_mul(RACE_SEED_STRIDE));
            MemberRun {
                solution: routes::heuristic_route(reduced, &cfg),
                strategy,
                proved: false,
            }
        }
        RaceMember::Bb => {
            let reduced = reduced.expect("BB members race only with a reduction");
            // Armed: a bounded slice of the remaining budget (see the
            // function docs). Deadline-free: the full, untouched deadline,
            // keeping the member byte-identical to Strategy::BranchBound.
            let bb_deadline = if deadline.is_unlimited() {
                deadline.clone()
            } else {
                deadline_slice(deadline, 3)
            };
            let (solution, status) = routes::branch_bound_route_anytime(
                reduced,
                req.budget.node_budget(),
                &bb_deadline,
                arms.shared_bound,
                arms.root_bound,
            );
            MemberRun {
                solution,
                strategy,
                proved: status == BbStatus::Proved,
            }
        }
    }
}

/// The racing portfolio behind `Strategy::Race`: members run on the
/// `dclab-par` fan-out; with a deadline armed they share an atomic
/// incumbent bound (branch and bound prunes against everyone's best span)
/// and a cancel token (the first *proof* of optimality stops the rest),
/// and the deadline harvests the best incumbent. Without a deadline the
/// members run fully independently, so the winner — smallest span, ties to
/// the earliest member — is bit-identical to running that member alone,
/// regardless of thread count.
///
/// The members, and the restart fan-out inside each LK member, share the
/// process's compute-thread budget: members run concurrently only on idle
/// slots (one after another on the calling thread when there are none),
/// and an LK member's restarts run inline once the members hold every
/// slot, so a race never adds threads past the budget. Each member stays
/// byte-for-byte the same computation as its standalone strategy (the
/// bit-identity contract above) whichever thread runs it.
fn race_route(
    ctx: &mut Ctx<'_>,
    req: &SolveRequest,
    features: &InstanceFeatures,
    deadline: &Deadline,
) -> Result<Routed, EngineError> {
    // Sharing (incumbent bound + first-proof cancellation) is armed only
    // under a wall-clock deadline: cross-member effects depend on timing,
    // and the deadline-free contract is bit-identical reports across
    // thread counts.
    let armed = !deadline.is_unlimited();
    let members = race_members(features, armed);
    let needs_reduction = members
        .iter()
        .any(|m| matches!(m, RaceMember::Lk { .. } | RaceMember::Bb));
    if needs_reduction {
        // The request's single reduction, computed before the fan-out and
        // shared read-only by every member.
        ctx.reduced()?;
        ctx.note(format!(
            "race: {} members over one reduction",
            members.len()
        ));
    } else {
        ctx.note("race: reduction-free members (outside Theorem 2 scope)");
    }

    // Armed races buy a Held–Karp root bound before the fan-out (an eighth
    // of the remaining budget): branch and bound stops with a proof as
    // soon as any member's published span meets it, and a harvested
    // timeout reports this certificate instead of the degree floor.
    let root = if needs_reduction {
        root_bound(ctx, req, deadline)
    } else {
        None
    };
    if let Some(b) = root {
        ctx.note(format!(
            "root bound {} ({}, {} ascent iters)",
            b.value, b.kind, b.ascent_iters
        ));
    }

    let shared_token = CancelToken::new();
    let member_deadline = if armed {
        deadline.clone().with_token(shared_token.clone())
    } else {
        Deadline::none()
    };
    let shared_bound = AtomicU64::new(u64::MAX);
    let shared = if armed { Some(&shared_bound) } else { None };

    let g = ctx.g;
    let p = ctx.p;
    let reduced = ctx.reduced.as_ref();
    let root_value = root.map(|b| b.value);
    let race_span = dclab_trace::current().span("race");
    let runs: Vec<MemberRun> = dclab_par::par_map(&members, |&member| {
        let run = run_race_member(
            member,
            g,
            p,
            reduced,
            req,
            &member_deadline,
            BbArms {
                shared_bound: shared,
                root_bound: root_value,
            },
        );
        if armed {
            shared_bound.fetch_min(run.solution.span, Ordering::Relaxed);
            if run.proved {
                shared_token.cancel();
            }
        }
        run
    });
    drop(race_span);

    let any_proved = runs.iter().any(|r| r.proved);
    // `deadline` carries no token, so this is a pure clock check — a race
    // decided by an optimality proof is not a timeout.
    let timed_out = deadline.expired() && !any_proved;
    let win_idx = runs
        .iter()
        .enumerate()
        .min_by_key(|(i, r)| (r.solution.span, *i))
        .map(|(i, _)| i)
        .expect("portfolio has at least one member");
    for r in &runs {
        ctx.routes_tried.push(r.strategy);
    }
    let winner = &runs[win_idx];
    ctx.note(format!(
        "race winner: {} (span {}{})",
        winner.strategy,
        winner.solution.span,
        if any_proved { ", proved optimal" } else { "" }
    ));
    if timed_out {
        ctx.timed_out = true;
        ctx.note("deadline harvested the best incumbent");
    }
    let lb = if any_proved {
        // An exhausted (or root-bound-stopped) branch-and-bound search
        // certifies that nothing is cheaper than min(its incumbent, the
        // shared bound); every shared value is a span some member
        // achieved, so the harvest minimum is exactly that certified
        // floor.
        SpanBound::proved(winner.solution.span)
    } else if timed_out {
        // The armed race already paid for the root certificate — it
        // dominates the degree floor (the ladder folds degree in).
        root.unwrap_or_else(|| SpanBound::degree(span_lower_bound_cheap(g, p, features.diameter)))
    } else {
        certificate(ctx, req, needs_reduction, deadline)
    };
    let strategy = members[win_idx].strategy();
    let solution = runs
        .into_iter()
        .nth(win_idx)
        .expect("index in range")
        .solution;
    Ok((solution, strategy, lb, any_proved))
}

/// Can Corollary 2 run here in polynomial/bounded time? (k = 2, diam ≤ 2,
/// and either the subset DP fits or the PIP target is a cograph.)
fn diam2_applicable(ctx: &Ctx<'_>, features: &InstanceFeatures) -> bool {
    features.two_valued && (ctx.g.n() <= 20 || features.cograph)
}

/// Corollary 2: diameter-2 `L(p,q)` via Partition into Paths. The PIP
/// formula's lower-bound direction holds for any `p, q` (sorted labelings
/// decompose into PIP runs), so it is always reported as `lower_bound`;
/// achieving it needs the smooth regime, where the witness labeling lands
/// exactly on it. The labeling is rebuilt from a PIP witness through the
/// request's single (unchecked) reduction via the always-valid tight
/// recovery.
fn diam2_route(
    ctx: &mut Ctx<'_>,
    features: &InstanceFeatures,
    explicit: bool,
) -> Result<Routed, EngineError> {
    let g = ctx.g;
    let p = ctx.p;
    if features.k != 2 {
        return Err(EngineError::Unsupported {
            strategy: Strategy::Diam2Pip,
            reason: format!("needs |p| = 2, got {}", features.k),
        });
    }
    let (pv, qv) = (p.at_distance(1), p.at_distance(2));
    let solver = if g.n() <= 20 {
        PipSolver::SubsetDp
    } else if features.cograph {
        // Cographs are closed under complement, so the cotree DP covers
        // both PIP targets.
        PipSolver::Cotree
    } else if explicit {
        return Err(EngineError::Unsupported {
            strategy: Strategy::Diam2Pip,
            reason: "needs n ≤ 20 (subset DP) or a cograph (cotree DP)".into(),
        });
    } else {
        unreachable!("auto dispatch checks diam2_applicable first");
    };
    // One call computes the eligibility checks, the PIP target (complement
    // included), the certified value, and the witness partition.
    let (d2, paths) = solve_diam2_lpq_with_witness(g, pv, qv, solver).map_err(|e| match e {
        Diam2Error::NotDiameter2 => EngineError::Unsupported {
            strategy: Strategy::Diam2Pip,
            reason: "graph is not connected with diameter ≤ 2".into(),
        },
        Diam2Error::TooLarge | Diam2Error::NotCograph => EngineError::Unsupported {
            strategy: Strategy::Diam2Pip,
            reason: format!("PIP solver rejected the instance: {e:?}"),
        },
    })?;
    ctx.routes_tried.push(Strategy::Diam2Pip);
    ctx.note(format!(
        "PIP: {} paths on {} ({:?})",
        d2.partition_size,
        if d2.on_complement { "complement" } else { "G" },
        solver
    ));

    // Rebuild a labeling from the witness: concatenate the partition's
    // paths and take the tightest labeling realizing that order.
    let order: Vec<u32> = paths.iter().flatten().map(|&v| v as u32).collect();
    let reduced = ctx.reduced_unchecked()?;
    let labeling = tight_labeling_for_order(reduced, &order);
    let span = labeling.span();
    if span != d2.span {
        // Witness did not land on the PIP value (greedy partition on a
        // big cograph, or non-smooth p where the formula is only a lower
        // bound): keep the valid labeling, report the PIP value as the
        // certificate.
        ctx.note(format!(
            "witness labeling span {span} above PIP bound {}",
            d2.span
        ));
    }
    let solution = Solution {
        span,
        order,
        labeling,
    };
    let optimal = span == d2.span;
    // The degree bound can beat a degenerate PIP value (e.g. q = 0); both
    // are sound, so report the max. The PIP value has no rung of its own
    // on the BoundKind ladder: a non-optimal witness reports the degree
    // kind (the notes carry the PIP provenance), an optimal one is
    // upgraded to proved-optimal by `finish`.
    let lb = d2.span.max(degree_bound(g, p));
    Ok((solution, Strategy::Diam2Pip, SpanBound::degree(lb), optimal))
}

/// Reduction-free upper bounds: greedy first-fit vs. the `p_max`-scaled
/// coloring (Corollary 3), both valid on any graph. Deterministic pick:
/// smaller span wins, ties to greedy.
fn fallback_portfolio(ctx: &mut Ctx<'_>, deadline: &Deadline) -> Routed {
    let g = ctx.g;
    let p = ctx.p;
    let greedy = routes::greedy_route(g, p, &Deadline::none());
    ctx.routes_tried.push(Strategy::Greedy);
    let pmax = solve_pmax_approx(g, p, l1_engine(g));
    ctx.routes_tried.push(Strategy::L1Coloring);
    let lb = degree_bound(g, p);
    let out = if pmax.span < greedy.span {
        ctx.note(format!(
            "p_max-coloring {} beat greedy {}",
            pmax.span, greedy.span
        ));
        let proved = pmax.span == lb;
        (pmax, Strategy::L1Coloring, SpanBound::degree(lb), proved)
    } else {
        let proved = greedy.span == lb;
        (greedy, Strategy::Greedy, SpanBound::degree(lb), proved)
    };
    // Neither bound is interruptible; an overrun is reported rather than
    // hidden behind whatever certificate the caller settles for.
    ctx.overrun(deadline, "deadline fired during reduction-free fallback");
    out
}

/// The coloring engine for `G^k`: exact up to [`L1_EXACT_MAX_N`], DSATUR
/// past it.
fn l1_engine(g: &Graph) -> L1Engine {
    if g.n() <= L1_EXACT_MAX_N {
        L1Engine::Exact
    } else {
        L1Engine::Dsatur
    }
}

/// Lower-bound certificate from the request's single reduction (checked
/// when the caller is on a smooth path, unchecked otherwise — both yield
/// sound bounds; the unchecked one works without smoothness). An expired
/// deadline downgrades to the O(n)-cheap degree bound: the Held–Karp
/// ascent would spend wall-clock the caller no longer has.
fn certificate(
    ctx: &mut Ctx<'_>,
    req: &SolveRequest,
    checked: bool,
    deadline: &Deadline,
) -> SpanBound {
    if deadline.expired() {
        return SpanBound::degree(degree_bound(ctx.g, ctx.p));
    }
    let _span = dclab_trace::current().span("lower_bound");
    let ensured = if checked {
        ctx.reduced().is_ok()
    } else {
        ctx.reduced_unchecked().is_ok()
    };
    if !ensured {
        return SpanBound::degree(degree_bound(ctx.g, ctx.p));
    }
    let reduced = ctx.reduced.as_ref().expect("just ensured");
    // Armed solves meter the certificate's wall-clock (stats.bound.time_us)
    // and cap the ascent with the live deadline; deadline-free solves pass
    // Deadline::none() through, keeping the computation clock-free.
    let started = (!deadline.is_unlimited()).then(Instant::now);
    let bound = span_bound_with_reduction(ctx.g, ctx.p, reduced, req.budget.lb_iters(), deadline);
    if let Some(t0) = started {
        ctx.bound_time_us += t0.elapsed().as_micros() as u64;
    }
    bound
}

/// Deadline-capped Held–Karp root bound for search-backed routes — armed
/// solves only (`None` otherwise, so deadline-free behavior is untouched).
/// The ascent gets an eighth of the remaining budget: its first iteration
/// (always run) already certifies the MST-level bound, so even a thin
/// slice yields an `hk-ascent`-kind certificate, while the cap keeps the
/// bulk of the budget for the search or the racing members.
///
/// The caller must have computed `ctx.reduced` already.
fn root_bound(ctx: &mut Ctx<'_>, req: &SolveRequest, deadline: &Deadline) -> Option<SpanBound> {
    if deadline.is_unlimited() {
        return None;
    }
    let reduced = ctx.reduced.as_ref()?;
    let _span = dclab_trace::current().span("lower_bound");
    let started = Instant::now();
    let slice = deadline_slice(deadline, 8);
    let bound = span_bound_with_reduction(ctx.g, ctx.p, reduced, req.budget.lb_iters(), &slice);
    ctx.bound_time_us += started.elapsed().as_micros() as u64;
    Some(bound)
}

/// A deadline covering `1/denom` of `deadline`'s remaining wall-clock,
/// sharing its cancel token (so a race proof still stops the sliced work).
/// Pure-token or unlimited deadlines pass through unchanged.
fn deadline_slice(deadline: &Deadline, denom: u32) -> Deadline {
    match deadline.remaining() {
        Some(rem) => {
            let sliced = Deadline::at(Instant::now() + rem / denom);
            match deadline.token() {
                Some(token) => sliced.with_token(token.clone()),
                None => sliced,
            }
        }
        None => deadline.clone(),
    }
}

fn heuristic_config(req: &SolveRequest, deadline: &Deadline) -> HeuristicConfig {
    let mut cfg = HeuristicConfig::default();
    if let Some(r) = req.budget.restarts {
        cfg.restarts = r.max(1);
    }
    cfg.chained.local.deadline = deadline.clone();
    cfg
}

/// Validate, assemble the report, and enforce the engine's invariants
/// (≤ 1 reduction; strategy_used is concrete).
fn finish(
    req: &SolveRequest,
    ctx: Ctx<'_>,
    features: InstanceFeatures,
    solution: Solution,
    used: Strategy,
    mut bound: SpanBound,
    proved_optimal: bool,
) -> Result<SolveReport, EngineError> {
    debug_assert_ne!(used, Strategy::Auto);
    debug_assert_ne!(used, Strategy::Race);
    if ctx.reductions_computed > 1 {
        return Err(EngineError::Internal(format!(
            "reduction computed {} times for one request",
            ctx.reductions_computed
        )));
    }
    if ctx.oracle_builds > 1 {
        return Err(EngineError::Internal(format!(
            "distance oracle built {} times for one request",
            ctx.oracle_builds
        )));
    }
    let valid = {
        let _span = dclab_trace::current().span("validate");
        // Every arm runs the labeling's one windowed check. Oracle-routed
        // solves read distances through the source the route used, so its
        // query count covers validation.
        match (&ctx.reduced, &ctx.source) {
            (Some(r), _) => solution
                .labeling
                .validate_with_distances(&r.dist, &req.pvec),
            (None, Some(src)) => solution.labeling.validate_with_source(src, &req.pvec),
            (None, None) => solution.labeling.validate(&req.graph, &req.pvec),
        }
    };
    if let Err(v) = valid {
        return Err(EngineError::Internal(format!(
            "route {used} produced an invalid labeling: {v:?}"
        )));
    }
    if solution.span < bound.value {
        return Err(EngineError::Internal(format!(
            "span {} below its own lower bound {}",
            solution.span, bound.value
        )));
    }
    // Snapshot oracle usage after validation so the query count covers
    // the whole request (route + windowed validation).
    let oracle = ctx.source.as_ref().map(|src| OracleStats {
        backend: src.backend_name().to_string(),
        builds: ctx.oracle_builds,
        label_entries: src.label_entries(),
        footprint_bytes: src.footprint_bytes(),
        queries: src.queries(),
        dense_fallback: ctx.oracle_dense_fallback,
    });
    let optimal = proved_optimal || solution.span == bound.value;
    if optimal {
        // The span is the proved optimum, which is itself a valid lower
        // bound — promote the certificate to the ladder's top rung.
        bound.raise(solution.span, BoundKind::ProvedOptimal);
    }
    Ok(SolveReport {
        solution,
        strategy_requested: req.strategy,
        strategy_used: used,
        lower_bound: bound.value,
        optimal,
        stats: EngineStats {
            reductions_computed: ctx.reductions_computed,
            routes_tried: ctx.routes_tried,
            notes: ctx.notes,
            // "Timed out" means the clock beat the proof: a harvest that
            // still landed on the optimum is not a timeout.
            timed_out: ctx.timed_out && !optimal,
            bound: BoundStats {
                kind: bound.kind,
                value: bound.value,
                ascent_iters: bound.ascent_iters,
                time_us: ctx.bound_time_us,
            },
            features,
            // Filled by the traced `solve` wrapper; empty (and absent from
            // JSON) for untraced solves.
            phases: Vec::new(),
            oracle,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Budget;
    use dclab_graph::generators::{classic, random};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn diam2_instance(n: usize, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        random::gnp_with_diameter_at_most(&mut rng, n, 0.5, 2)
    }

    /// The satellite contract: `Strategy::Race` with `deadline_ms: None`
    /// is bit-identical to the best single member — here established by
    /// running every member alone (no sharing, no token) and applying the
    /// race's own pick rule.
    #[test]
    fn race_without_deadline_equals_best_single_member() {
        for (g, seed_tag) in [
            (classic::petersen(), 0u64),
            (diam2_instance(40, 5), 1),
            (classic::complete_multipartite(&[8, 6, 5]), 2),
        ] {
            let p = PVec::l21();
            let req = SolveRequest::new(g.clone(), p.clone()).with_strategy(Strategy::Race);
            let features = InstanceFeatures::extract(&g, &p);
            let members = race_members(&features, false);
            let reduced = if features.reducible() && features.smooth {
                Some(reduce_to_path_tsp(&g, &p).expect("smooth reducible"))
            } else {
                None
            };
            let solo: Vec<MemberRun> = members
                .iter()
                .map(|&m| {
                    run_race_member(
                        m,
                        &g,
                        &p,
                        reduced.as_ref(),
                        &req,
                        &Deadline::none(),
                        BbArms::default(),
                    )
                })
                .collect();
            let best = solo
                .iter()
                .enumerate()
                .min_by_key(|(i, r)| (r.solution.span, *i))
                .map(|(i, _)| i)
                .unwrap();
            let report =
                solve(&req).unwrap_or_else(|e| panic!("race solve failed (tag {seed_tag}): {e}"));
            assert_eq!(report.solution, solo[best].solution, "tag {seed_tag}");
            assert_eq!(report.strategy_used, solo[best].strategy, "tag {seed_tag}");
            assert!(!report.stats.timed_out);
            // And the race is self-deterministic.
            let again = solve(&req).expect("race solves again");
            assert_eq!(again, report, "tag {seed_tag}");
        }
    }

    #[test]
    fn race_lk_members_use_distinct_kick_seeds() {
        let f = InstanceFeatures::extract(&classic::petersen(), &PVec::l21());
        let members = race_members(&f, false);
        assert_eq!(members.len(), 4, "smooth reducible portfolio is 2–4 wide");
        let salts: Vec<u64> = members
            .iter()
            .filter_map(|m| match m {
                RaceMember::Lk { seed_salt } => Some(*seed_salt),
                _ => None,
            })
            .collect();
        assert_eq!(salts.len(), 2);
        assert_ne!(salts[0], salts[1]);
    }

    #[test]
    fn race_proves_optimality_on_small_instances() {
        // Petersen: branch and bound exhausts its tree, so the race is
        // proved optimal even though no lower-bound ascent ran.
        let req = SolveRequest::new(classic::petersen(), PVec::l21()).with_strategy(Strategy::Race);
        let report = solve(&req).expect("solves");
        assert_eq!(report.solution.span, 9);
        assert!(report.optimal);
        assert_eq!(report.lower_bound, 9);
        assert!(!report.stats.timed_out);
        assert!(report.stats.routes_tried.contains(&Strategy::BranchBound));
    }

    #[test]
    fn race_with_expired_deadline_harvests_a_valid_incumbent() {
        // deadline_ms: 0 expires before any member starts; every member
        // still surrenders a full labeling, and the engine validates the
        // winner before the report exists.
        let g = diam2_instance(60, 9);
        let p = PVec::l21();
        let req = SolveRequest::new(g.clone(), p.clone())
            .with_strategy(Strategy::Race)
            .with_budget(Budget {
                deadline_ms: Some(0),
                ..Budget::default()
            });
        let report = solve(&req).expect("harvest, not an error");
        assert!(report.solution.labeling.validate(&g, &p).is_ok());
        assert!(report.stats.timed_out || report.optimal);
        assert!(report.solution.span >= report.lower_bound);
    }

    #[test]
    fn race_outside_theorem2_scope_uses_reduction_free_members() {
        // Path(8) has diameter 7 > k = 2: the race falls back to the
        // reduction-free portfolio and must not touch the reduction.
        let req = SolveRequest::new(classic::path(8), PVec::l21()).with_strategy(Strategy::Race);
        let report = solve(&req).expect("solves");
        assert_eq!(report.stats.reductions_computed, 0);
        for s in &report.stats.routes_tried {
            assert!(matches!(s, Strategy::Greedy | Strategy::L1Coloring));
        }
    }

    #[test]
    fn single_strategy_deadline_zero_harvests_not_errors() {
        let g = diam2_instance(48, 3);
        let p = PVec::l21();
        for strategy in [Strategy::Heuristic, Strategy::BranchBound, Strategy::Auto] {
            let req = SolveRequest::new(g.clone(), p.clone())
                .with_strategy(strategy)
                .with_budget(Budget {
                    deadline_ms: Some(0),
                    ..Budget::default()
                });
            let report = solve(&req).expect("anytime harvest");
            assert!(
                report.solution.labeling.validate(&g, &p).is_ok(),
                "{strategy}: invalid labeling"
            );
            assert!(
                report.stats.timed_out || report.optimal,
                "{strategy}: neither timed out nor optimal"
            );
        }
    }

    /// The `Trace::disabled()` contract at engine level: a traced solve is
    /// identical to an untraced one except for `stats.phases`, and the
    /// untraced JSON carries no phases key at all (byte-stability with
    /// pre-trace builds).
    #[test]
    fn tracing_changes_nothing_but_phases() {
        for strategy in [
            Strategy::Auto,
            Strategy::Race,
            Strategy::Heuristic,
            Strategy::Greedy,
        ] {
            let req =
                SolveRequest::new(diam2_instance(40, 17), PVec::l21()).with_strategy(strategy);
            let untraced = solve(&req).expect("solves");
            assert!(untraced.stats.phases.is_empty());
            assert!(!untraced.to_json().contains("\"phases\""));

            let trace = dclab_trace::Trace::enabled();
            let traced = {
                let _g = trace.install();
                solve(&req).expect("solves traced")
            };
            assert!(!traced.stats.phases.is_empty(), "{strategy}: no phases");
            let mut stripped = traced.clone();
            stripped.stats.phases.clear();
            assert_eq!(
                stripped, untraced,
                "{strategy}: tracing perturbed the solve"
            );

            // The attribution is coherent: a solve span exists and every
            // phase the pipeline must run is attributed.
            let names: Vec<&str> = traced
                .stats
                .phases
                .iter()
                .map(|p| p.name.as_str())
                .collect();
            assert!(names.contains(&"solve"), "{strategy}: {names:?}");
            assert!(names.contains(&"apsp"), "{strategy}: {names:?}");
            if strategy == Strategy::Greedy {
                // Greedy validates through APSP but never reduces.
                assert!(names.contains(&"greedy"), "{names:?}");
                assert!(!names.contains(&"reduce"), "{names:?}");
            } else {
                assert!(names.contains(&"reduce"), "{strategy}: {names:?}");
            }
            if strategy == Strategy::Race {
                assert!(names.contains(&"race"), "{names:?}");
                assert!(names.contains(&"member"), "{names:?}");
            }
            let solve_total = traced
                .stats
                .phases
                .iter()
                .find(|p| p.name == "solve")
                .unwrap();
            assert_eq!(solve_total.calls, 1);
            // Single-threaded child phases cannot exceed the solve span.
            let apsp = traced
                .stats
                .phases
                .iter()
                .find(|p| p.name == "apsp")
                .unwrap();
            assert!(apsp.total_us <= solve_total.total_us);
        }
    }

    /// A cancelled heuristic solve is never worse than its construction
    /// heuristic (the satellite's cancellation property, at engine level).
    /// Once the deadline has fired no restart after the first starts, so
    /// the expired 64-restart solve runs exactly one chained LK.
    #[test]
    fn cancelled_heuristic_no_worse_than_construction() {
        let g = diam2_instance(64, 11);
        let p = PVec::l21();
        let reduced = reduce_to_path_tsp(&g, &p).expect("reducible");
        // Construction floor: nearest-neighbor path from the driver's
        // deterministic start, with local search disabled by an already-
        // expired deadline.
        let token = CancelToken::new();
        token.cancel();
        let mut floor_cfg = HeuristicConfig {
            restarts: 1,
            ..Default::default()
        };
        floor_cfg.chained.local.deadline = Deadline::none().with_token(token);
        let floor = routes::heuristic_route(&reduced, &floor_cfg);

        let req = SolveRequest::new(g.clone(), p.clone())
            .with_strategy(Strategy::Heuristic)
            .with_budget(Budget {
                restarts: Some(64),
                deadline_ms: Some(0),
                ..Budget::default()
            });
        let trace = dclab_trace::Trace::enabled();
        let report = {
            let _g = trace.install();
            solve(&req).expect("harvest")
        };
        assert!(
            report.solution.span <= floor.span,
            "cancelled solve ({}) worse than construction ({})",
            report.solution.span,
            floor.span
        );
        let lk = report.stats.phases.iter().find(|p| p.name == "lk");
        assert_eq!(lk.map(|p| p.calls), Some(1), "{:?}", report.stats.phases);
    }

    /// The one-build contract: an oracle-routed solve builds exactly one
    /// distance source, and the whole request (route + windowed
    /// validation) is served through it.
    #[test]
    fn oracle_path_builds_exactly_one_source() {
        for policy in [OraclePolicy::Auto, OraclePolicy::Dense, OraclePolicy::Hub] {
            let req = SolveRequest::new(diam2_instance(48, 21), PVec::l21())
                .with_strategy(Strategy::OraclePath)
                .with_oracle(policy);
            let report = solve(&req).expect("oracle path solves");
            let o = report.stats.oracle.as_ref().expect("oracle stats");
            assert_eq!(o.builds, 1, "{policy}");
            assert!(o.queries > 0, "{policy}: route + validation never queried");
            assert_eq!(report.stats.reductions_computed, 0, "{policy}");
            assert_eq!(report.strategy_used, Strategy::OraclePath);
        }
        // Matrix-path strategies never touch the oracle.
        let req = SolveRequest::new(diam2_instance(48, 21), PVec::l21());
        assert!(solve(&req).expect("auto solves").stats.oracle.is_none());
    }

    /// Dense- and hub-backed oracle solves of one instance are
    /// interchangeable: identical solution, bound, optimality flag, and
    /// even query count — only the backend-shape fields differ.
    #[test]
    fn oracle_path_dense_and_hub_reports_match() {
        for (g, tag) in [
            (diam2_instance(64, 33), "diam2"),
            (classic::petersen(), "petersen"),
            (classic::path(40), "path"),
        ] {
            let base = SolveRequest::new(g, PVec::l21()).with_strategy(Strategy::OraclePath);
            let dense = solve(&base.clone().with_oracle(OraclePolicy::Dense)).expect(tag);
            let hub = solve(&base.with_oracle(OraclePolicy::Hub)).expect(tag);
            assert_eq!(dense.solution, hub.solution, "{tag}");
            assert_eq!(dense.lower_bound, hub.lower_bound, "{tag}");
            assert_eq!(dense.optimal, hub.optimal, "{tag}");
            let (od, oh) = (
                dense.stats.oracle.as_ref().unwrap(),
                hub.stats.oracle.as_ref().unwrap(),
            );
            assert_eq!(od.backend, "dense", "{tag}");
            assert_eq!(oh.backend, "hub", "{tag}");
            assert_eq!(od.queries, oh.queries, "{tag}: query counts diverged");
            assert_eq!(od.label_entries, 0, "{tag}");
            assert!(oh.label_entries > 0, "{tag}");
            assert!(!od.dense_fallback && !oh.dense_fallback, "{tag}");
        }
    }

    /// `OraclePolicy::Auto` below the footprint threshold resolves to the
    /// dense matrix and says so in the stats.
    #[test]
    fn auto_policy_small_instance_reports_dense_fallback() {
        let req =
            SolveRequest::new(classic::petersen(), PVec::l21()).with_strategy(Strategy::OraclePath);
        assert_eq!(req.oracle, OraclePolicy::Auto);
        let report = solve(&req).expect("solves");
        let o = report.stats.oracle.as_ref().expect("oracle stats");
        assert_eq!(o.backend, "dense");
        assert!(o.dense_fallback);
        // The JSON carries the oracle object exactly when the stats do.
        assert!(report
            .to_json()
            .contains("\"oracle\":{\"backend\":\"dense\""));
    }

    /// The Auto-dispatch memory wall sits where the dense pipeline
    /// (u32 matrix + u64 TSP weights) crosses 1 GiB: n = 9460.
    #[test]
    fn auto_hub_threshold_crossover() {
        assert!(dense_pipeline_bytes(9459) <= AUTO_HUB_THRESHOLD_BYTES);
        assert!(dense_pipeline_bytes(9460) > AUTO_HUB_THRESHOLD_BYTES);
    }

    /// The clamped route needs smooth `p`; the engine refuses rather than
    /// emitting an invalid labeling.
    #[test]
    fn oracle_path_rejects_non_smooth_p() {
        let p = PVec::new(vec![5, 2]).unwrap();
        assert!(!p.is_smooth());
        let req = SolveRequest::new(classic::petersen(), p).with_strategy(Strategy::OraclePath);
        match solve(&req) {
            Err(EngineError::Unsupported { strategy, .. }) => {
                assert_eq!(strategy, Strategy::OraclePath);
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }
}
