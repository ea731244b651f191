//! From-scratch Metric **Path** TSP engine.
//!
//! This crate is the algorithmic substrate behind the paper's Theorem 2:
//! once an `L(p)`-labeling instance is reduced to a dense symmetric
//! [`TspInstance`], everything here solves Path TSP with both endpoints
//! free —
//!
//! * **exact**: Held–Karp dynamic programming in `O(2^n n²)`
//!   ([`exact::held_karp`]) and MST-bounded branch and bound, checked
//!   against permutation brute force ([`exact::brute`]);
//! * **approximation**: Hoogeveen's 3/2 variant of Christofides
//!   ([`christofides`]), on top of a Prim MST, Hierholzer Eulerian
//!   traversal, and a minimum-weight matching toolbox ([`matching`]);
//! * **heuristics**: nearest-neighbor construction ([`construct`]), 2-opt
//!   and Or-opt local search with neighbor lists and don't-look bits
//!   ([`localsearch`]), and a chained Lin–Kernighan-style metaheuristic
//!   with double-bridge kicks ([`lk`]);
//! * **multi-start heuristic**: parallel chained LK on the zero-weight
//!   dummy-city extension, where a cycle is a path ([`driver`]);
//! * **certificates**: the path-form Held–Karp lower bound with subgradient
//!   ascent ([`lowerbound`]) for bounding heuristic gaps at scale;
//! * **one Prim kernel** ([`mst`]) under the MST, branch and bound's
//!   completion bound and every ascent iteration, except that on x86-64
//!   CPUs with AVX2 the ascent runs a dense AVX2 step instead: it scans
//!   all cities per step, four to a register, with the kernel's strict
//!   comparisons and lowest-id tie rule, so every certificate is the same
//!   bit for bit on every CPU.

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
