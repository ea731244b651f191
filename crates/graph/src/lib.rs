//! Graph substrate for the `dclab` workspace.
//!
//! Everything the L(p)-labeling pipeline needs from graph theory is built
//! here from scratch: a compact undirected [`Graph`] type with a CSR view,
//! BFS / parallel all-pairs shortest paths, diameter, complement and graph
//! powers, a catalogue of deterministic and random [`generators`], and the
//! structural parameters used by the paper's FPT results
//! (neighborhood diversity, cotrees/cographs, modules) in [`params`].

// Index-based loops are the clearer idiom for the dense matrix/bitmask
// kernels in this crate.
#![allow(clippy::needless_range_loop)]

pub mod apsp;
pub mod bitset;
pub mod canon;
pub mod csr;
pub mod diameter;
pub mod generators;
pub mod graph;
pub mod io;
pub mod ops;
pub mod params;
pub mod traversal;
pub mod unionfind;

pub use apsp::DistanceMatrix;
pub use bitset::BitRows;
pub use canon::CanonicalForm;
pub use csr::Csr;
pub use graph::Graph;
pub use unionfind::UnionFind;

/// Infinite distance sentinel used by BFS/APSP for unreachable pairs.
pub const INF: u32 = u32::MAX;
