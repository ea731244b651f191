//! Flat, cache-friendly candidate neighbor lists — the SoA backbone of the
//! vectorized local-search kernels.
//!
//! [`TspInstance::neighbor_lists`] returns `Vec<Vec<u32>>`: one heap
//! allocation per city, ids only, weights re-read from the matrix on every
//! gain evaluation. [`CandidateLists`] replaces that with a CSR-style
//! layout: one flat id array and one flat weight array sharing a per-city
//! offset table, rows padded to the chunk width so the gain scan runs in
//! fixed-size, branch-free blocks with no tail loop. The candidate edge
//! weights `w(u, cand)` are precomputed at build time, so the hot 2-opt
//! scan reads one contiguous `i64` lane per city and never touches the
//! `n × n` matrix for the removed-edge side of the gain.
//!
//! Ids and weights live in two parallel arrays (split SoA rather than
//! byte-interleaved pairs) so the weight lane stays densely packed for
//! autovectorization; both are indexed by the same offsets.
//!
//! The build uses partial selection (`select_nth_unstable`) + a sort of
//! the `k` survivors — `O(n + k log k)` per city instead of the full
//! `O(n log n)` sort `neighbor_lists` pays — and produces the *same* list
//! contents and order (ascending `(weight, id)`), which is what makes the
//! scalar kernels exact differential oracles for the vectorized ones.

use crate::TspInstance;

/// Fixed chunk width of the vectorized gain scan. Rows are padded to a
/// multiple of this so the scan needs no tail handling.
pub const CHUNK: usize = 8;

/// Sentinel weight for padding lanes: large enough that a padded lane can
/// never qualify (`w_ac < w_ab` is false), small enough that the gain
/// arithmetic stays far from `i64` overflow.
pub(crate) const PAD_WEIGHT: i64 = i64::MAX / 4;

/// `k`-nearest-neighbor candidate lists in flat CSR layout, rows sorted by
/// ascending `(weight, id)` and padded to [`CHUNK`].
#[derive(Clone, Debug)]
pub struct CandidateLists {
    n: usize,
    k: usize,
    /// Padded row width (`k` rounded up to a multiple of [`CHUNK`]).
    stride: usize,
    /// `n + 1` CSR offsets into `ids`/`wts` (uniformly strided today, but
    /// kept explicit so sparse candidate sets can reuse the layout).
    offsets: Vec<u32>,
    /// Flat candidate ids; padding lanes hold the owning city itself (a
    /// valid index, so masked lanes still load safely).
    ids: Vec<u32>,
    /// `w(u, ids[i])` as `i64`, parallel to `ids`; [`PAD_WEIGHT`] on
    /// padding lanes.
    wts: Vec<i64>,
}

impl CandidateLists {
    /// Build the `k`-nearest candidate lists of `inst` by partial
    /// selection. Row contents and order match
    /// [`TspInstance::neighbor_lists`] exactly.
    pub fn build(inst: &TspInstance, k: usize) -> CandidateLists {
        Self::build_rows(inst.n(), k, "", |u, scratch| {
            for (v, &w) in inst.row(u).iter().enumerate() {
                if v != u {
                    scratch.push((w as i64, v as u32));
                }
            }
        })
    }

    /// Build the `k`-nearest candidate lists from a weight *function*
    /// instead of a materialised matrix — same row contents, order
    /// (ascending `(weight, id)`) and padding as [`Self::build`] whenever
    /// `f(u, v) == inst.weight(u, v)`. This is the entry point for the
    /// oracle route, which works at sizes where no `n × n` matrix exists.
    pub fn build_from_fn(
        n: usize,
        k: usize,
        mut f: impl FnMut(usize, usize) -> u64,
    ) -> CandidateLists {
        Self::build_rows(n, k, " from_fn", |u, scratch| {
            for v in 0..n {
                if v != u {
                    scratch.push((f(u, v) as i64, v as u32));
                }
            }
        })
    }

    /// The body both builds share. `fill_row(u, scratch)` pushes
    /// `(w(u, v), v)` for every `v ≠ u` in ascending `v`; `detail` tags the
    /// trace span.
    fn build_rows(
        n: usize,
        k: usize,
        detail: &str,
        mut fill_row: impl FnMut(usize, &mut Vec<(i64, u32)>),
    ) -> CandidateLists {
        let trace = dclab_trace::current();
        let mut span = trace.span("candidates");
        if span.is_enabled() {
            span.set_detail(format!("n={n} k={k}{detail}"));
        }
        let k = k.min(n.saturating_sub(1));
        let stride = if k == 0 { 0 } else { k.div_ceil(CHUNK) * CHUNK };
        let mut offsets = Vec::with_capacity(n + 1);
        let mut ids = Vec::with_capacity(n * stride);
        let mut wts = Vec::with_capacity(n * stride);
        let mut scratch: Vec<(i64, u32)> = Vec::with_capacity(n.saturating_sub(1));
        for u in 0..n {
            offsets.push((u * stride) as u32);
            scratch.clear();
            fill_row(u, &mut scratch);
            debug_assert!(
                scratch.iter().all(|&(w, _)| w < PAD_WEIGHT),
                "weight too large for gain arithmetic"
            );
            if k < scratch.len() {
                // Partial selection: the k smallest (by (weight, id)) land
                // in front, unordered; only those get sorted.
                scratch.select_nth_unstable(k);
                scratch.truncate(k);
            }
            scratch.sort_unstable();
            for &(w, v) in &scratch {
                ids.push(v);
                wts.push(w);
            }
            for _ in scratch.len()..stride {
                ids.push(u as u32);
                wts.push(PAD_WEIGHT);
            }
        }
        offsets.push((n * stride) as u32);
        CandidateLists {
            n,
            k,
            stride,
            offsets,
            ids,
            wts,
        }
    }

    /// A candidate-free list (used when a deadline pre-expired and paying
    /// for the build would be wasted: every scan sees zero candidates).
    pub fn empty(n: usize) -> CandidateLists {
        CandidateLists {
            n,
            k: 0,
            stride: 0,
            offsets: vec![0; n + 1],
            ids: Vec::new(),
            wts: Vec::new(),
        }
    }

    /// Number of cities the lists were built for.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Real (unpadded) candidates per city.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The real candidate ids of `u`, ascending by `(weight, id)`.
    #[inline]
    pub fn ids(&self, u: usize) -> &[u32] {
        let s = self.offsets[u] as usize;
        &self.ids[s..s + self.k]
    }

    /// The real candidate weights of `u`, parallel to [`Self::ids`].
    #[inline]
    pub fn weights(&self, u: usize) -> &[i64] {
        let s = self.offsets[u] as usize;
        &self.wts[s..s + self.k]
    }

    /// The padded `(ids, weights)` row of `u`: length is a multiple of
    /// [`CHUNK`]; padding lanes hold `(u, PAD_WEIGHT)`.
    #[inline]
    pub(crate) fn padded(&self, u: usize) -> (&[u32], &[i64]) {
        let s = self.offsets[u] as usize;
        (&self.ids[s..s + self.stride], &self.wts[s..s + self.stride])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_instance(n: usize, salt: u64) -> TspInstance {
        TspInstance::from_fn(n, move |u, v| {
            let (a, b) = (u.min(v) as u64, u.max(v) as u64);
            (a.wrapping_mul(7919) ^ b.wrapping_mul(104729) ^ salt.wrapping_mul(97)) % 100 + 1
        })
    }

    #[test]
    fn matches_neighbor_lists_exactly() {
        for (n, k, salt) in [(1, 4, 0), (2, 1, 1), (7, 3, 2), (30, 10, 3), (30, 64, 4)] {
            let t = random_instance(n, salt);
            let nl = t.neighbor_lists(k);
            let cl = CandidateLists::build(&t, k);
            for u in 0..n {
                assert_eq!(cl.ids(u), nl[u].as_slice(), "n={n} k={k} u={u}");
                let ws: Vec<i64> = nl[u]
                    .iter()
                    .map(|&v| t.weight(u, v as usize) as i64)
                    .collect();
                assert_eq!(cl.weights(u), ws.as_slice());
            }
        }
    }

    #[test]
    fn rows_padded_to_chunk_with_sentinels() {
        let t = random_instance(20, 5);
        let cl = CandidateLists::build(&t, 10);
        for u in 0..20 {
            let (ids, wts) = cl.padded(u);
            assert_eq!(ids.len() % CHUNK, 0);
            assert_eq!(ids.len(), 16);
            for l in cl.k()..ids.len() {
                assert_eq!(ids[l] as usize, u);
                assert_eq!(wts[l], PAD_WEIGHT);
            }
            // Sorted ascending over the real prefix.
            for w in cl.weights(u).windows(2) {
                assert!(w[0] <= w[1]);
            }
        }
    }

    #[test]
    fn build_from_fn_is_byte_identical_to_build() {
        for (n, k, salt) in [(1, 4, 0), (2, 1, 1), (7, 3, 2), (30, 10, 3), (30, 64, 4)] {
            let t = random_instance(n, salt);
            let by_matrix = CandidateLists::build(&t, k);
            let by_fn = CandidateLists::build_from_fn(n, k, |u, v| t.weight(u, v));
            for u in 0..n {
                assert_eq!(by_fn.ids(u), by_matrix.ids(u), "n={n} k={k} u={u}");
                assert_eq!(by_fn.weights(u), by_matrix.weights(u));
                assert_eq!(by_fn.padded(u), by_matrix.padded(u));
            }
        }
    }

    #[test]
    fn empty_lists_have_no_candidates() {
        let cl = CandidateLists::empty(5);
        for u in 0..5 {
            assert!(cl.ids(u).is_empty());
            assert!(cl.padded(u).0.is_empty());
        }
    }
}
