//! Graph generators: deterministic families in [`classic`], seeded random
//! families in [`random`]. These provide the workloads of the paper's
//! experiment tables (`dclab e1`..`e8`), the perf benches e9–e17 and
//! perfbench (small-diameter random graphs, split graphs, cographs,
//! scale-free graphs, …).

pub mod classic;
pub mod random;
