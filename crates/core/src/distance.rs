//! One query interface over the two exact distance backends.
//!
//! The Theorem 2 pipeline historically assumed a dense
//! [`DistanceMatrix`] — `n² · 4` bytes, fine to a few thousand vertices
//! and a wall past ~30k. [`DistanceSource`] abstracts the point query so
//! the validation, bound, and large-`n` labeling paths can run against
//! either the matrix or a [`HubLabels`] 2-hop oracle, whose footprint on
//! small-diameter graphs is a tiny fraction of `n²`.
//!
//! Both backends are *exact* (the oracle's differential suite pins
//! `query` to the matrix bit-for-bit, `INF` sentinel included), so a
//! caller's result may depend on the backend's *cost*, never its
//! answers.
//!
//! Queries are counted with a relaxed atomic so per-solve stats (and the
//! engine's build-at-most-once invariant) can be asserted without
//! threading `&mut` through the read paths.

use std::sync::atomic::{AtomicU64, Ordering};

use dclab_graph::{DistanceMatrix, Graph};
use dclab_oracle::{dense_matrix_bytes, HubLabels, OracleError};

/// The backing store of a [`DistanceSource`].
#[derive(Debug)]
pub enum DistanceBackend {
    /// Dense all-pairs matrix: `O(1)` queries, `n² · 4` bytes.
    Dense(DistanceMatrix),
    /// Hub labels: `O(|L(u)| + |L(v)|)` merge queries, footprint
    /// proportional to total label entries.
    Hub(HubLabels),
}

/// An exact point-to-point distance oracle with a query counter.
#[derive(Debug)]
pub struct DistanceSource {
    backend: DistanceBackend,
    queries: AtomicU64,
}

impl DistanceSource {
    /// Wrap a precomputed dense matrix.
    pub fn dense(matrix: DistanceMatrix) -> Self {
        DistanceSource {
            backend: DistanceBackend::Dense(matrix),
            queries: AtomicU64::new(0),
        }
    }

    /// Wrap prebuilt hub labels.
    pub fn hub(labels: HubLabels) -> Self {
        DistanceSource {
            backend: DistanceBackend::Hub(labels),
            queries: AtomicU64::new(0),
        }
    }

    /// Build hub labels for `g` and wrap them.
    pub fn build_hub(g: &Graph) -> Result<Self, OracleError> {
        Ok(DistanceSource::hub(HubLabels::build(g)?))
    }

    /// Number of vertices covered.
    pub fn n(&self) -> usize {
        match &self.backend {
            DistanceBackend::Dense(m) => m.n(),
            DistanceBackend::Hub(h) => h.n(),
        }
    }

    /// Exact distance `d(u, v)`; `dclab_graph::INF` when unreachable.
    #[inline]
    pub fn query(&self, u: usize, v: usize) -> u32 {
        self.queries.fetch_add(1, Ordering::Relaxed);
        match &self.backend {
            DistanceBackend::Dense(m) => m.get(u, v),
            DistanceBackend::Hub(h) => h.query(u, v),
        }
    }

    /// Total queries answered so far.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Stable backend name for stats and metrics.
    pub fn backend_name(&self) -> &'static str {
        match self.backend {
            DistanceBackend::Dense(_) => "dense",
            DistanceBackend::Hub(_) => "hub",
        }
    }

    /// Resident bytes of the backing store.
    pub fn footprint_bytes(&self) -> u64 {
        match &self.backend {
            DistanceBackend::Dense(m) => dense_matrix_bytes(m.n()),
            DistanceBackend::Hub(h) => h.footprint_bytes(),
        }
    }

    /// Total label entries (0 for the dense backend).
    pub fn label_entries(&self) -> u64 {
        match &self.backend {
            DistanceBackend::Dense(_) => 0,
            DistanceBackend::Hub(h) => h.label_entries() as u64,
        }
    }

    /// The raw backend (dense matrix callers use this to keep their
    /// row-sliced fast paths).
    pub fn backend(&self) -> &DistanceBackend {
        &self.backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dclab_graph::generators::classic;
    use dclab_graph::INF;

    #[test]
    fn both_backends_answer_identically_and_count() {
        let g = classic::petersen();
        let dense = DistanceSource::dense(DistanceMatrix::compute(&g));
        let hub = DistanceSource::build_hub(&g).unwrap();
        assert_eq!(dense.backend_name(), "dense");
        assert_eq!(hub.backend_name(), "hub");
        let mut pairs = 0;
        for u in 0..g.n() {
            for v in 0..g.n() {
                assert_eq!(dense.query(u, v), hub.query(u, v));
                pairs += 1;
            }
        }
        assert_eq!(dense.queries(), pairs);
        assert_eq!(hub.queries(), pairs);
    }

    #[test]
    fn disconnected_pairs_share_the_inf_sentinel() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let dense = DistanceSource::dense(DistanceMatrix::compute(&g));
        let hub = DistanceSource::build_hub(&g).unwrap();
        assert_eq!(dense.query(0, 2), INF);
        assert_eq!(hub.query(0, 2), INF);
    }

    #[test]
    fn footprints_reflect_the_backend() {
        let g = classic::complete(16);
        let dense = DistanceSource::dense(DistanceMatrix::compute(&g));
        let hub = DistanceSource::build_hub(&g).unwrap();
        assert_eq!(dense.footprint_bytes(), 16 * 16 * 4);
        assert_eq!(dense.label_entries(), 0);
        assert!(hub.footprint_bytes() > 0);
        assert!(hub.label_entries() > 0);
    }
}
