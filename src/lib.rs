//! # dclab — Distance-Constrained Labeling via TSP
//!
//! Umbrella crate re-exporting the whole workspace: a faithful, from-scratch
//! reproduction of *"Solving Distance-constrained Labeling Problems for
//! Small Diameter Graphs via TSP"* (Hanaka, Ono, Sugiyama — IPDPS 2023).
//!
//! ```
//! use dclab::prelude::*;
//!
//! // A diameter-2 graph and the classic L(2,1) constraint vector.
//! let g = dclab::graph::generators::classic::petersen();
//! let p = PVec::new(vec![2, 1]).unwrap();
//!
//! // Theorem 2: reduce to Metric Path TSP and solve exactly (Held–Karp).
//! let req = SolveRequest::new(g.clone(), p.clone()).with_strategy(Strategy::Exact);
//! let solution = solve(&req).unwrap().solution;
//! assert_eq!(solution.span, 9); // λ_{2,1}(Petersen) = 9
//! assert!(solution.labeling.validate(&g, &p).is_ok());
//! ```

pub use dclab_core as core;
pub use dclab_engine as engine;
pub use dclab_graph as graph;
pub use dclab_par as par;
pub use dclab_store as store;
pub use dclab_tsp as tsp;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use dclab_core::labeling::Labeling;
    pub use dclab_core::pvec::PVec;
    pub use dclab_core::reduction::reduce_to_path_tsp;
    pub use dclab_core::routes::Solution;
    pub use dclab_engine::{
        solve, solve_batch, Budget, EngineError, SolveReport, SolveRequest, Strategy,
    };
    pub use dclab_graph::Graph;
}
