//! Exact Path TSP solvers: Held–Karp and branch and bound, plus brute
//! force as the reference oracle.

pub mod branch_bound;
pub mod brute;
pub mod held_karp;

pub use branch_bound::{branch_bound_path, branch_bound_path_anytime, BbResult, BbStatus};
pub use brute::{brute_force_cycle, brute_force_path};
pub use held_karp::held_karp_path;
