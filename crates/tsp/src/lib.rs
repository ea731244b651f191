//! From-scratch (Metric) TSP / Path-TSP engine.
//!
//! This crate is the algorithmic substrate behind the paper's Theorem 2:
//! once an `L(p)`-labeling instance is reduced to a dense symmetric
//! [`TspInstance`], everything here applies —
//!
//! * **exact**: permutation brute force ([`exact::brute`]) and Held–Karp
//!   dynamic programming in `O(2^n n²)` ([`exact::held_karp`]), both in cycle
//!   and *path* (free endpoints) variants;
//! * **approximation**: Christofides for metric cycle TSP and Hoogeveen's
//!   3/2 variant for metric path TSP ([`christofides`]), on top of a Prim
//!   MST, Hierholzer Eulerian traversal, and a minimum-weight perfect
//!   matching toolbox ([`matching`]);
//! * **heuristics**: nearest-neighbor / greedy-edge construction
//!   ([`construct`]), 2-opt and Or-opt local search with neighbor lists and
//!   don't-look bits ([`localsearch`]), and a chained Lin–Kernighan-style
//!   metaheuristic with double-bridge kicks ([`lk`]);
//! * **driver**: parallel multi-start orchestration and the dummy-city
//!   path↔cycle equivalence ([`driver`]);
//! * **certificates**: the path-form Held–Karp lower bound with subgradient
//!   ascent ([`lowerbound`]) for bounding heuristic gaps at scale;
//! * **one Prim kernel** ([`mst`]) under the MST, branch and bound's
//!   completion bound and every ascent iteration.

// Every public item in this crate is API surface for the workspace's
// other eight crates: undocumented exports fail the build.
#![warn(missing_docs)]
// Index-based loops are the clearer idiom for the dense matrix/bitmask
// kernels in this crate.
#![allow(clippy::needless_range_loop)]

pub mod christofides;
pub mod construct;
pub mod driver;
pub mod exact;
pub mod instance;
pub mod lk;
pub mod localsearch;
pub mod lowerbound;
pub mod matching;
pub mod mst;
#[cfg(test)]
mod prim_reference;
pub mod tour;

pub use instance::TspInstance;
pub use tour::{cycle_weight, path_weight};

/// Weight type used throughout: label spans are sums of `p`-entries, which
/// comfortably fit `u64` for any realistic instance.
pub type Weight = u64;
