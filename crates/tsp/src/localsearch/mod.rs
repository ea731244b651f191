//! Tour-improvement local search: a combined 2-opt + Or-opt descent over
//! cycle tours, with flat SoA candidate lists ([`CandidateLists`]),
//! don't-look bits shared across the two move families, and chunked,
//! branch-free 2-opt gain scans.
//!
//! Two interchangeable kernels implement the *same* descent semantics:
//!
//! * [`local_opt`] / [`two_opt`] / [`or_opt`] — the fast path: CSR
//!   candidate lists with precomputed edge weights, gain evaluation in
//!   fixed chunks of [`candidates::CHUNK`] with a branch-free best-gain
//!   reduction (`vector`);
//! * [`local_opt_scalar`] / [`two_opt_scalar`] / [`or_opt_scalar`] — the
//!   scalar oracle: plain `Vec<Vec<u32>>` neighbor lists, weights re-read
//!   from the matrix, one candidate at a time (`scalar`).
//!
//! The two paths pick identical moves in identical order (best 2-opt gain
//! over the sorted candidate prefix with lowest-index ties, then
//! first-improvement Or-opt), so from the same start they produce the same
//! tour *array*, not just the same weight — which is what the differential
//! property suite pins, exactly like `DistanceMatrix::compute_sequential`
//! does for the bit-parallel APSP.
//!
//! All moves operate on *cycles*; Path TSP is handled by the dummy-city
//! equivalence (see [`crate::instance::TspInstance::with_dummy_city`]).

use crate::{TspInstance, Weight};
use dclab_par::Deadline;

pub mod candidates;
mod scalar;
mod vector;

pub use candidates::CandidateLists;

/// Deadline checkpoint period: the descent polls `cfg.deadline` every this
/// many city scans (a power of two so the test is one mask). One scan is
/// `O(neighbor_k)` work, so a 5 ms budget overshoots by microseconds, not
/// by a whole improvement round (the pre-PR-6 behavior overshot a 5 ms
/// deadline by ~50 ms at n = 512).
const DEADLINE_SCAN_MASK: u64 = 63;

/// Tunables for the local-search kernels; the ablation experiment (E8)
/// sweeps these.
#[derive(Clone, Debug)]
pub struct LocalSearchConfig {
    /// Candidate-list size (nearest neighbors per city).
    pub neighbor_k: usize,
    /// Enable don't-look bits (skip cities whose neighborhood was
    /// unchanged since their last failed scan). Bits are shared by the
    /// 2-opt and Or-opt move families: a city is only marked once both
    /// failed to improve it, and any successful move wakes the cities it
    /// touched.
    pub dont_look: bool,
    /// Enable the Or-opt arm (segment relocation, lengths 1–3, including
    /// segments that wrap the array boundary).
    pub or_opt: bool,
    /// Safety cap on full improvement rounds.
    pub max_rounds: usize,
    /// Cooperative wall-clock budget, checked every
    /// `DEADLINE_SCAN_MASK + 1` city scans (and between chained-LK
    /// kicks upstream). The default [`Deadline::none`] never fires and
    /// costs an amortized branch, keeping deadline-free runs bit-identical
    /// to the pre-deadline code.
    pub deadline: Deadline,
}

impl Default for LocalSearchConfig {
    fn default() -> Self {
        LocalSearchConfig {
            neighbor_k: 10,
            dont_look: true,
            or_opt: true,
            max_rounds: 200,
            deadline: Deadline::none(),
        }
    }
}

/// A cycle tour with a position index, the mutable state local search works
/// on. Both move applications are `O(moved segment)`: reversals flip the
/// shorter arc of the cycle, Or-opt splices rotate the shorter of the two
/// regions between the segment and its insertion point — never a full
/// `pos` rebuild.
pub struct TourState {
    /// Current visiting order (a permutation of the cities).
    pub order: Vec<u32>,
    pos: Vec<u32>,
    /// Reusable gather buffer for [`Self::splice_after`].
    scratch: Vec<u32>,
}

impl TourState {
    /// Wrap a tour (must be a permutation of `0..n`).
    pub fn new(order: Vec<u32>) -> Self {
        let mut pos = vec![0u32; order.len()];
        for (i, &c) in order.iter().enumerate() {
            pos[c as usize] = i as u32;
        }
        TourState {
            order,
            pos,
            scratch: Vec::new(),
        }
    }

    #[inline]
    pub(crate) fn n(&self) -> usize {
        self.order.len()
    }

    #[inline]
    pub(crate) fn succ_pos(&self, i: usize) -> usize {
        if i + 1 == self.n() {
            0
        } else {
            i + 1
        }
    }

    #[inline]
    pub(crate) fn pred_pos(&self, i: usize) -> usize {
        if i == 0 {
            self.n() - 1
        } else {
            i - 1
        }
    }

    #[inline]
    pub(crate) fn city_at(&self, i: usize) -> usize {
        self.order[i] as usize
    }

    #[inline]
    pub(crate) fn position(&self, c: usize) -> usize {
        self.pos[c] as usize
    }

    /// `true` iff `pos` is the exact inverse of `order` and `order` is a
    /// permutation — the invariant every move must preserve. Test/debug
    /// helper; `O(n)`.
    pub fn check_consistent(&self) -> bool {
        let n = self.n();
        crate::tour::is_permutation(n, &self.order)
            && self.pos.len() == n
            && self
                .order
                .iter()
                .enumerate()
                .all(|(i, &c)| self.pos[c as usize] as usize == i)
    }

    /// Reverse the cycle arc whose linear span is `lo..=hi`, flipping
    /// whichever side of the cycle is shorter (the linear segment or its
    /// cyclic complement — both yield the same cycle). Positions are
    /// patched inline; cost is `O(min(|segment|, n − |segment|))`.
    pub fn reverse_arc(&mut self, lo: usize, hi: usize) {
        let n = self.n();
        debug_assert!(lo <= hi && hi < n);
        let inner = hi - lo + 1;
        if inner * 2 <= n {
            let (mut i, mut j) = (lo, hi);
            while i < j {
                self.order.swap(i, j);
                self.pos[self.order[i] as usize] = i as u32;
                self.pos[self.order[j] as usize] = j as u32;
                i += 1;
                j -= 1;
            }
        } else {
            // Reverse the cyclic complement (hi+1 .. lo-1, wrapping): same
            // cycle, fewer swaps, and no pos rebuild.
            let len = n - inner;
            let mut i = if hi + 1 == n { 0 } else { hi + 1 };
            let mut j = if lo == 0 { n - 1 } else { lo - 1 };
            for _ in 0..len / 2 {
                self.order.swap(i, j);
                self.pos[self.order[i] as usize] = i as u32;
                self.pos[self.order[j] as usize] = j as u32;
                i = if i + 1 == n { 0 } else { i + 1 };
                j = if j == 0 { n - 1 } else { j - 1 };
            }
        }
    }

    /// Splice the `seg_len` cities starting at position `i` (cyclically —
    /// the segment may wrap the array boundary) to directly after the city
    /// at position `anchor`, optionally reversed.
    ///
    /// Only the cyclic region between the segment and the anchor moves —
    /// whichever of the two directions is shorter — and `pos` is patched
    /// for exactly that region, so the cost is `O(cyclic distance)`, not
    /// `O(n)`. The anchor must lie outside the segment and must not be the
    /// segment's predecessor (a no-op the caller should skip).
    pub fn splice_after(&mut self, i: usize, seg_len: usize, anchor: usize, reversed: bool) {
        let n = self.n();
        debug_assert!(seg_len >= 1 && seg_len < n);
        debug_assert!(
            (anchor + n - i) % n >= seg_len,
            "anchor inside the spliced segment"
        );
        debug_assert_ne!((anchor + 1) % n, i, "no-op splice (anchor is pred)");
        let j = (i + seg_len - 1) % n;
        // Region A: i ..= anchor going forward (segment, mid cities,
        // anchor). Region B: anchor+1 ..= j going forward (succ(anchor),
        // mid cities, segment). Rotating either by seg_len lands the
        // segment right after the anchor; pick the shorter.
        let fwd = (anchor + n - i) % n + 1;
        let start_b = if anchor + 1 == n { 0 } else { anchor + 1 };
        let bwd = (j + n - start_b) % n + 1;
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        let (start, len) = if fwd <= bwd { (i, fwd) } else { (start_b, bwd) };
        let mut idx = start;
        for _ in 0..len {
            scratch.push(self.order[idx]);
            idx = if idx + 1 == n { 0 } else { idx + 1 };
        }
        if fwd <= bwd {
            scratch.rotate_left(seg_len);
            if reversed {
                scratch[len - seg_len..].reverse();
            }
        } else {
            scratch.rotate_right(seg_len);
            if reversed {
                scratch[..seg_len].reverse();
            }
        }
        let mut idx = start;
        for &c in &scratch {
            self.order[idx] = c;
            self.pos[c as usize] = idx as u32;
            idx = if idx + 1 == n { 0 } else { idx + 1 };
        }
        self.scratch = scratch;
    }
}

/// Apply the 2-opt move that removes tour edges `(a,b)`/`(c,d)` (dir 0,
/// where `b = succ(a)`, `d = succ(c)`) or `(b,a)`/`(d,c)` (dir 1, preds)
/// and reconnects `(a,c)`/`(b,d)`, reversing the shorter arc. Returns `d`
/// so callers can wake its don't-look bit. Shared by both kernels so their
/// tour arrays stay identical, not just weight-equal.
pub(crate) fn apply_two_opt(
    state: &mut TourState,
    dir: usize,
    a: usize,
    b: usize,
    c: usize,
) -> usize {
    let ic = state.position(c);
    let id = if dir == 0 {
        state.succ_pos(ic)
    } else {
        state.pred_pos(ic)
    };
    let d = state.city_at(id);
    // Removing tour edges (x1,x2),(y1,y2) with x2 = succ(x1), y2 = succ(y1)
    // and adding (x1,y1),(x2,y2) reverses the directed segment x2..y1.
    // dir 0: (a,b),(c,d); dir 1: (b,a),(d,c).
    let (px2, py1) = if dir == 0 {
        (state.position(b), state.position(c))
    } else {
        (state.position(a), id)
    };
    let (lo, hi) = if px2 <= py1 {
        (px2, py1)
    } else {
        // Segment wraps; its linear complement (y2..x1) yields the same
        // cycle when reversed.
        (py1 + 1, px2 - 1)
    };
    state.reverse_arc(lo, hi);
    d
}

/// One improving Or-opt insertion found by a candidate scan, in the form
/// [`TourState::splice_after`] consumes.
pub(crate) struct OrOptMove {
    pub gain: i64,
    pub seg_len: usize,
    /// Position of the insertion anchor city.
    pub anchor: usize,
    pub reversed: bool,
    /// Cities whose incident tour edges change — their don't-look bits
    /// must be cleared: segment predecessor/successor, segment head/tail,
    /// anchor and anchor's old successor.
    pub wake: [usize; 6],
}

/// Run the combined 2-opt + Or-opt descent to a local optimum over `cands`
/// (the fast SoA path) with a caller-provided don't-look state: bits
/// already set are trusted, so chained LK can seed all-but-the-kick-sites
/// set and pay only for the perturbed neighborhood. Returns the total
/// improvement in tour weight.
pub fn local_opt_with_dlb(
    inst: &TspInstance,
    state: &mut TourState,
    cands: &CandidateLists,
    cfg: &LocalSearchConfig,
    dlb: &mut [bool],
) -> Weight {
    vector::descent(inst, state, cands, cfg, dlb, true, cfg.or_opt)
}

/// Run 2-opt and Or-opt (per `cfg.or_opt`) to a combined local optimum.
/// Returns the total improvement in tour weight.
pub fn local_opt(
    inst: &TspInstance,
    state: &mut TourState,
    cands: &CandidateLists,
    cfg: &LocalSearchConfig,
) -> Weight {
    let mut dlb = vec![false; state.n()];
    vector::descent(inst, state, cands, cfg, &mut dlb, true, cfg.or_opt)
}

/// Run 2-opt alone to a local optimum (chunked vectorized scan). Returns
/// the total improvement.
pub fn two_opt(
    inst: &TspInstance,
    state: &mut TourState,
    cands: &CandidateLists,
    cfg: &LocalSearchConfig,
) -> Weight {
    let mut dlb = vec![false; state.n()];
    vector::descent(inst, state, cands, cfg, &mut dlb, true, false)
}

/// Run Or-opt alone to a local optimum. Returns the total improvement.
pub fn or_opt(
    inst: &TspInstance,
    state: &mut TourState,
    cands: &CandidateLists,
    cfg: &LocalSearchConfig,
) -> Weight {
    let mut dlb = vec![false; state.n()];
    vector::descent(inst, state, cands, cfg, &mut dlb, false, true)
}

/// The scalar oracle twin of [`local_opt`]: identical descent semantics
/// over plain sorted neighbor lists, weights read from the matrix. Kept
/// simple on purpose — it is the reference the differential property
/// suite compares the vectorized path against, and the baseline the
/// `e14_localsearch` speedup is measured over.
pub fn local_opt_scalar(
    inst: &TspInstance,
    state: &mut TourState,
    neighbors: &[Vec<u32>],
    cfg: &LocalSearchConfig,
) -> Weight {
    let mut dlb = vec![false; state.n()];
    scalar::descent(inst, state, neighbors, cfg, &mut dlb, true, cfg.or_opt)
}

/// Scalar oracle twin of [`two_opt`].
pub fn two_opt_scalar(
    inst: &TspInstance,
    state: &mut TourState,
    neighbors: &[Vec<u32>],
    cfg: &LocalSearchConfig,
) -> Weight {
    let mut dlb = vec![false; state.n()];
    scalar::descent(inst, state, neighbors, cfg, &mut dlb, true, false)
}

/// Scalar oracle twin of [`or_opt`].
pub fn or_opt_scalar(
    inst: &TspInstance,
    state: &mut TourState,
    neighbors: &[Vec<u32>],
    cfg: &LocalSearchConfig,
) -> Weight {
    let mut dlb = vec![false; state.n()];
    scalar::descent(inst, state, neighbors, cfg, &mut dlb, false, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::nearest_neighbor;
    use crate::exact::brute_force_cycle;
    use crate::tour::cycle_weight;
    use crate::tour::is_permutation;

    fn random_instance(n: usize, salt: u64) -> TspInstance {
        TspInstance::from_fn(n, move |u, v| {
            let (a, b) = (u.min(v) as u64, u.max(v) as u64);
            (a.wrapping_mul(7919) ^ b.wrapping_mul(104729) ^ salt.wrapping_mul(97)) % 100 + 1
        })
    }

    #[test]
    fn two_opt_improves_and_preserves_permutation() {
        for salt in 0..5 {
            let t = random_instance(30, salt);
            let start = nearest_neighbor(&t, 0);
            let before = cycle_weight(&t, &start);
            let mut state = TourState::new(start);
            let cl = t.candidate_lists(10);
            let gain = two_opt(&t, &mut state, &cl, &LocalSearchConfig::default());
            assert!(is_permutation(30, &state.order));
            assert!(state.check_consistent());
            assert_eq!(cycle_weight(&t, &state.order) + gain, before);
        }
    }

    #[test]
    fn or_opt_improves_and_preserves_permutation() {
        for salt in 5..10 {
            let t = random_instance(25, salt);
            let start = nearest_neighbor(&t, 0);
            let before = cycle_weight(&t, &start);
            let mut state = TourState::new(start);
            let cl = t.candidate_lists(8);
            let gain = or_opt(&t, &mut state, &cl, &LocalSearchConfig::default());
            assert!(is_permutation(25, &state.order));
            assert!(state.check_consistent());
            assert_eq!(cycle_weight(&t, &state.order) + gain, before);
        }
    }

    #[test]
    fn local_opt_close_to_optimal_small() {
        for salt in 0..5 {
            let t = random_instance(9, salt);
            let (_, opt) = brute_force_cycle(&t);
            let mut state = TourState::new(nearest_neighbor(&t, 0));
            let cl = t.candidate_lists(8);
            local_opt(&t, &mut state, &cl, &LocalSearchConfig::default());
            let w = cycle_weight(&t, &state.order);
            assert!(w >= opt);
            assert!(w <= opt * 3 / 2 + 20, "salt={salt}: {w} vs {opt}");
        }
    }

    #[test]
    fn two_opt_fixes_a_crossing() {
        // Four points on a square; the crossing tour 0-2-1-3 must be fixed.
        let pts = [(0i64, 0i64), (10, 0), (10, 10), (0, 10)];
        let t = TspInstance::from_fn(4, |u, v| {
            let dx = pts[u].0 - pts[v].0;
            let dy = pts[u].1 - pts[v].1;
            ((dx * dx + dy * dy) as f64).sqrt() as u64
        });
        let mut state = TourState::new(vec![0, 2, 1, 3]);
        let cl = t.candidate_lists(3);
        two_opt(&t, &mut state, &cl, &LocalSearchConfig::default());
        let w = cycle_weight(&t, &state.order);
        assert_eq!(w, 40);
    }

    #[test]
    fn tiny_tours_untouched() {
        let t = random_instance(3, 0);
        let mut state = TourState::new(vec![0, 1, 2]);
        let cl = t.candidate_lists(2);
        assert_eq!(
            two_opt(&t, &mut state, &cl, &LocalSearchConfig::default()),
            0
        );
        assert_eq!(
            or_opt(&t, &mut state, &cl, &LocalSearchConfig::default()),
            0
        );
        assert_eq!(state.order, vec![0, 1, 2]);
    }

    #[test]
    fn scalar_oracle_agrees_with_vectorized_path() {
        // The by-construction contract, spot-checked here and hammered by
        // the differential property suite in tests/localsearch_props.rs:
        // same start → same final *array*.
        for salt in 0..8 {
            let t = random_instance(40, salt);
            let start = nearest_neighbor(&t, (salt as usize) % 40);
            let cfg = LocalSearchConfig::default();
            let cl = t.candidate_lists(cfg.neighbor_k);
            let nl = t.neighbor_lists(cfg.neighbor_k);
            let mut fast = TourState::new(start.clone());
            let mut oracle = TourState::new(start);
            let gf = local_opt(&t, &mut fast, &cl, &cfg);
            let go = local_opt_scalar(&t, &mut oracle, &nl, &cfg);
            assert_eq!(fast.order, oracle.order, "salt={salt}");
            assert_eq!(gf, go);
        }
    }

    #[test]
    fn or_opt_gain_is_rotation_invariant() {
        // The wrap-around fix: Or-opt segments crossing the array boundary
        // used to be skipped ("rotation covers them" — nothing rotated), so
        // the gain found depended on where position 0 happened to fall.
        // Gains over a cycle are rotation-invariant, so every rotation of
        // the same starting tour must reach the same improvement.
        let t = random_instance(14, 3);
        let start = nearest_neighbor(&t, 0);
        let cfg = LocalSearchConfig::default();
        let cl = t.candidate_lists(6);
        let mut gains = Vec::new();
        for r in 0..14 {
            let mut rotated = start.clone();
            rotated.rotate_left(r);
            let mut state = TourState::new(rotated);
            let g = or_opt(&t, &mut state, &cl, &cfg);
            assert!(state.check_consistent());
            gains.push(g);
        }
        assert!(gains[0] > 0, "fixture must have an improving Or-opt move");
        assert!(
            gains.iter().all(|&g| g == gains[0]),
            "gain varies with rotation: {gains:?}"
        );
    }

    #[test]
    fn or_opt_finds_wraparound_segment_move() {
        // A direct exhibit: cities on a line, optimal cycle is the sweep
        // 0-1-2-...-n-1. Start from the sweep with the pair (0, 1) cut out
        // and parked between 4 and 5, then rotate so that the misplaced
        // pair spans the array boundary. The only improving Or-opt move
        // relocates exactly that wrapped pair; the old kernel's `j < i`
        // skip returned gain 0 here.
        let coords = [0i64, 2, 10, 12, 14, 16, 18, 20];
        let t = TspInstance::from_fn(8, |u, v| coords[u].abs_diff(coords[v]));
        // Sweep with [0, 1] parked between 4 and 5: 2-3-4-0-1-5-6-7.
        // Rotated so the pair (0, 1) sits at positions 7 and 0.
        let tour: Vec<u32> = vec![1, 5, 6, 7, 2, 3, 4, 0];
        let mut state = TourState::new(tour);
        let before = cycle_weight(&t, &state.order);
        let cl = t.candidate_lists(7);
        let gain = or_opt(&t, &mut state, &cl, &LocalSearchConfig::default());
        assert!(gain > 0, "wrapped segment move not found");
        assert!(state.check_consistent());
        assert_eq!(cycle_weight(&t, &state.order) + gain, before);
    }

    #[test]
    fn splice_and_reverse_keep_pos_consistent() {
        // Directed exercise of the O(moved) move applications across wrap
        // boundaries and both rotation directions.
        let n = 11;
        let mut state = TourState::new((0..n as u32).collect());
        for (i, len, anchor, rev) in [
            (0usize, 3usize, 6usize, false),
            (9, 2, 4, true),   // segment wraps the boundary
            (10, 3, 5, false), // wraps with length 3
            (4, 1, 0, true),
            (7, 3, 2, true), // backward region shorter
        ] {
            state.splice_after(i, len, anchor, rev);
            assert!(state.check_consistent(), "splice({i},{len},{anchor},{rev})");
        }
        for (lo, hi) in [(0usize, 10usize), (2, 3), (1, 9), (5, 5)] {
            state.reverse_arc(lo, hi);
            assert!(state.check_consistent(), "reverse_arc({lo},{hi})");
        }
    }
}
