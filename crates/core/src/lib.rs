//! # dclab-core — Distance-constrained labeling via TSP
//!
//! Faithful implementation of *"Solving Distance-constrained Labeling
//! Problems for Small Diameter Graphs via TSP"* (Hanaka, Ono, Sugiyama —
//! IPDPS 2023):
//!
//! * [`pvec`] / [`labeling`] — the `L(p)` problem objects;
//! * [`reduction`] — **Theorem 2**: the `O(nm)` reduction to Metric Path
//!   TSP and the Claim 1 labeling recovery;
//! * [`routes`] — **Corollary 1**: exact `O(2^n n²)` (Held–Karp),
//!   1.5-approximate (Hoogeveen/Christofides) and heuristic (chained LK)
//!   routes over one precomputed reduction, plus the greedy baseline;
//! * [`baseline`] — reduction-independent oracles (exhaustive sorted-order
//!   search, label DFS) and greedy first-fit;
//! * [`partition_paths`] / [`diam2`] — **Corollary 2**: diameter-2
//!   `L(p,q)` via Partition into Paths, with the polynomial cotree DP on
//!   cographs standing in for the modular-width FPT algorithm;
//! * [`coloring`] / [`l1`] — **Theorem 4 / Corollary 3**: `L(1,…,1)` via
//!   coloring of `G^k`, the neighborhood-diversity FPT coloring engine and
//!   the `p_max`-approximation;
//! * [`hardness`] — executable Theorem 1 / Theorem 3 gadget constructions
//!   with Hamiltonicity oracles.

// Every public item in this crate is API surface for the workspace's
// other eight crates: undocumented exports fail the build.
#![warn(missing_docs)]
// Index-based loops are the clearer idiom for the dense matrix/bitmask
// kernels in this crate.
#![allow(clippy::needless_range_loop)]

pub mod baseline;
pub mod bounds;
pub mod coloring;
pub mod diam2;
pub mod distance;
pub mod guard;
pub mod hardness;
pub mod l1;
pub mod labeling;
pub mod oracle_route;
pub mod partition_paths;
pub mod pvec;
pub mod reduction;
pub mod routes;

pub use labeling::Labeling;
pub use pvec::PVec;
pub use routes::Solution;
