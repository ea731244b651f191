//! # dclab-engine — the single front door to every solver.
//!
//! The seed exposed six disconnected solve routes; this crate unifies them
//! behind one request/report API:
//!
//! ```
//! use dclab_engine::{solve, SolveRequest, Strategy};
//! use dclab_core::pvec::PVec;
//! use dclab_graph::generators::classic;
//!
//! let req = SolveRequest::new(classic::petersen(), PVec::l21());
//! let report = solve(&req).unwrap();
//! assert_eq!(report.solution.span, 9); // λ_{2,1}(Petersen)
//! assert!(report.optimal);
//! assert_eq!(report.stats.reductions_computed, 1);
//! ```
//!
//! * [`Strategy`] names every route (`Exact`, `BranchBound`, `Approx15`,
//!   `Heuristic`, `Greedy`, `Diam2Pip`, `L1Coloring`) plus [`Strategy::Auto`],
//!   the portfolio dispatcher: small → Held–Karp, benign (two-valued
//!   diameter-2) → PIP or budgeted branch-and-bound, else chained LK —
//!   with the Theorem 2 reduction computed **once** per request and
//!   shared across candidate routes — and
//!   [`Strategy::Race`], the concurrent portfolio with a shared incumbent
//!   bound and first-proof cancellation.
//! * [`Budget::deadline_ms`] makes any solve *anytime*: routes check the
//!   wall clock at checkpoint granularity and surrender their best
//!   incumbent (`stats.timed_out`) instead of aborting; without it solves
//!   are purely logical and bit-reproducible.
//! * [`SolveReport`] carries the solution, the concrete route used, a
//!   lower-bound certificate, and deterministic dispatch stats
//!   ([`EngineStats`]); [`SolveReport::to_json`] emits a stable JSON line.
//! * [`solve_batch`] fans a request slice out over `dclab-par` with
//!   deterministic, thread-count-independent output.
//! * [`binary`] is the compact on-disk twin of the JSON report form: the
//!   persistent solution archive (`dclab-store`) frames these bytes in its
//!   write-ahead log ([`SolveReport::to_bytes`] / [`SolveReport::from_bytes`]).

pub mod batch;
pub mod binary;
pub mod engine;
pub mod features;
pub mod json;
pub mod report;
pub mod request;

pub use batch::solve_batch;
pub use engine::{solve, EngineError};
pub use features::InstanceFeatures;
pub use report::{EngineStats, OracleStats, SolveReport};
pub use request::{Budget, OraclePolicy, SolveRequest, Strategy};
