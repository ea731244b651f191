//! Held–Karp **lower bound for Path TSP** by subgradient ascent on the
//! path form of the tree relaxation.
//!
//! A Hamiltonian path is a spanning tree whose two endpoints have degree
//! 1, so for any node potentials `π`
//!
//! ```text
//! w(P) = w^π(P) − 2·Σπ + π_s + π_t ≥ MST(w^π) − 2·Σπ + (two smallest π)
//! ```
//!
//! where `w^π(u,v) = w(u,v) + π_u + π_v`. At `π = 0` this is exactly the
//! MST bound, and the ascent only climbs from there (Held & Karp 1970).
//! The classical dummy-city reduction is *equivalent at the LP optimum*
//! but is a much worse place to run a subgradient method: the dummy's
//! all-zero edges let every city attach to it for free, the un-ascended
//! 1-tree collapses toward 0, and on the two-valued reduction-shaped
//! instances this workspace produces the ascent measurably stalls one unit
//! short of the bound the plain MST already certifies.
//!
//! **One Prim pass per iteration.** Each subgradient iteration evaluates
//! `MST(w^π)` priced as `(w(u,v) as f64 + π_u) + π_v` straight from the
//! instance's `u64` rows (no `f64` copy of the matrix), with one of two
//! Prim steps ([`crate::mst`]), chosen once per ascent:
//!
//! * on x86-64 CPUs with AVX2, the **dense step**: keys and parents indexed
//!   by city id, a NaN key on every city in the tree, and a branch-free
//!   pass over all `n` cities per step, four to a register, that relaxes
//!   with strict `<` and then takes the lowest id holding the minimum key;
//! * on every other CPU, the crate's **compacted kernel**, which relaxes
//!   and selects in one pass over the out-of-tree cities in ascending id
//!   order, strict `<` in both comparisons, `n²/2` steps per iteration.
//!
//! Both resolve ties the same way (the earlier parent, the lowest id),
//! convert each weight exactly as `w as f64` and sum the tree in join
//! order, so they build the same tree from bitwise the same keys: every
//! L(π), gradient and [`AscentOutcome`] is the same on every CPU. The key,
//! parent, degree and gradient buffers are allocated once per ascent.
//!
//! The ascent uses the classical step rule
//! `t_k = α·(UB − L(π_k)) / ‖g_k‖²` with `α` halved after stretches
//! without improvement, `UB` seeded by nearest neighbor.
//!
//! **Integrality rounding** — every weight in a [`TspInstance`] is an
//! integer, so every path weight is an integer, and a real-valued
//! Lagrangian value `L` certifies `opt ≥ ⌈L − ε⌉`. The bound rounds *up*
//! (with a small epsilon so floating error can never push a bound past a
//! value it did not certify); on two-valued reduction-shaped instances
//! this one step is frequently the difference between a bound one unit shy
//! of the optimum and a proof.
//!
//! **Anytime** — [`path_lower_bound_anytime`] polls a [`Deadline`] before
//! every subgradient iteration after the first (each iteration already
//! pays for a Prim pass, so the clock read is noise) and reports how many
//! iterations actually ran. The first iteration always runs: a caller that
//! reached the ascent at all has committed to one Prim pass, and the
//! certificate it yields (the MST-level bound) is what every later
//! consumer keys on. With [`Deadline::none`] the loop is purely logical:
//! zero clock reads, the same iteration count on every machine.

use crate::construct::nearest_neighbor;
use crate::mst::{prim, PrimScratch, PrimStep};
use crate::tour::path_weight;
use crate::{TspInstance, Weight};
use dclab_par::Deadline;

/// What an ascent run produced: the certified bound and how many
/// subgradient iterations actually executed (deadline-free runs always
/// execute the same deterministic count for a given instance and budget).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AscentOutcome {
    /// The certified lower bound (0 when the instance admits none).
    pub bound: Weight,
    /// Subgradient iterations executed (0 for degenerate sizes where the
    /// bound is closed-form).
    pub iters: u64,
}

/// Lower bound for **path** TSP (both endpoints free): Held–Karp ascent
/// in path form (see the module docs). Deadline-free wrapper around
/// [`path_lower_bound_anytime`].
pub fn path_lower_bound(inst: &TspInstance, iters: usize) -> Weight {
    path_lower_bound_anytime(inst, iters, &Deadline::none()).bound
}

/// [`path_lower_bound`] with a wall-clock budget and iteration reporting.
///
/// The first subgradient iteration evaluates the relaxation at `π = 0`,
/// which is exactly the MST bound — so a single iteration already
/// certifies at least as much as a Prim pass, and every further iteration
/// only climbs. The deadline is polled before every iteration *after the
/// first*, so a [`Deadline::none`] run performs zero clock reads. `n = 2`
/// closes the bound in constant time (`w(0,1)`); `n < 2` is the vacuous 0.
pub fn path_lower_bound_anytime(
    inst: &TspInstance,
    iters: usize,
    deadline: &Deadline,
) -> AscentOutcome {
    ascend(inst, iters, deadline, PrimStep::detect())
}

/// The ascent of [`path_lower_bound_anytime`], evaluating every tree with
/// `step`.
pub(crate) fn ascend(
    inst: &TspInstance,
    iters: usize,
    deadline: &Deadline,
    step: PrimStep,
) -> AscentOutcome {
    let n = inst.n();
    if n <= 1 {
        return AscentOutcome { bound: 0, iters: 0 };
    }
    if n == 2 {
        return AscentOutcome {
            bound: inst.weight(0, 1),
            iters: 0,
        };
    }
    let ub = path_weight(inst, &nearest_neighbor(inst, 0)) as f64;
    let mut form = PathForm::new(n, step);
    let mut pi = vec![0.0f64; n];
    let mut best = f64::NEG_INFINITY;
    let mut alpha = 2.0f64;
    let mut since_improved = 0usize;
    let mut ran = 0u64;
    for k in 0..iters {
        if k > 0 && deadline.expired() {
            break;
        }
        ran += 1;
        let value = form.eval(inst, &pi);
        let grad = &form.grad;
        if value > best {
            best = value;
            since_improved = 0;
        } else {
            since_improved += 1;
            if since_improved >= 5 {
                alpha *= 0.5;
                since_improved = 0;
            }
        }
        let norm2: f64 = grad.iter().map(|g| g * g).sum();
        if norm2 < 0.5 {
            break; // the relaxation is a feasible path: bound is exact
        }
        let gap = (ub - value).max(1.0);
        let step = alpha * gap / norm2;
        for v in 0..n {
            pi[v] += step * grad[v];
        }
        if alpha < 1e-3 {
            break;
        }
    }
    AscentOutcome {
        bound: round_up_bound(best),
        iters: ran,
    }
}

/// Integer-weight rounding of a real-valued Lagrangian bound: path weights
/// are integers, so `opt ≥ L` implies `opt ≥ ⌈L⌉`. The epsilon keeps a
/// floating value that is really an exact integer `K` (computed as
/// `K + δ`, `δ` a few ulps) from unsoundly rounding to `K + 1`.
pub(crate) fn round_up_bound(value: f64) -> Weight {
    if value <= 0.0 {
        0
    } else {
        (value - 1e-6).ceil().max(0.0) as Weight
    }
}

/// The path-form Lagrangian evaluation with its buffers, reused across the
/// iterations of one ascent.
pub(crate) struct PathForm {
    step: PrimStep,
    prim: PrimScratch<f64>,
    #[cfg(target_arch = "x86_64")]
    dense: crate::mst::DenseScratch,
    degrees: Vec<u32>,
    /// The supergradient at the last evaluated potentials.
    pub(crate) grad: Vec<f64>,
}

impl PathForm {
    pub(crate) fn new(n: usize, step: PrimStep) -> Self {
        Self {
            step,
            prim: PrimScratch::default(),
            #[cfg(target_arch = "x86_64")]
            dense: Default::default(),
            degrees: vec![0; n],
            grad: vec![0.0; n],
        }
    }

    /// Path-form Lagrangian value under potentials (see the module docs):
    /// `L(π) = MST(w^π) − 2·Σπ + (two smallest π)`. Leaves the
    /// supergradient `g_v = deg_v(T) − 2 + [v is one of the two argmin-π
    /// vertices]` in `self.grad`.
    pub(crate) fn eval(&mut self, inst: &TspInstance, pi: &[f64]) -> f64 {
        let n = inst.n();
        debug_assert!(n >= 3);
        let degrees = &mut self.degrees;
        degrees.fill(0);
        // Prim MST over all n cities under the priced weights, its total
        // summed in the order the cities join the tree.
        let mut total = 0.0f64;
        let visit = |parent: usize, v: usize, w: f64| {
            total += w;
            degrees[v] += 1;
            degrees[parent] += 1;
        };
        match self.step {
            PrimStep::Compacted => prim(
                inst,
                0,
                1..n,
                &mut self.prim,
                |u, v, w| w as f64 + pi[u] + pi[v],
                visit,
            ),
            #[cfg(target_arch = "x86_64")]
            PrimStep::DenseAvx2(avx2) => {
                crate::mst::prim_dense(avx2, inst, pi, &mut self.dense, visit)
            }
        }
        // The two smallest potentials price the path's free endpoints
        // (deterministic: ties go to the lowest index).
        let (mut i1, mut i2) = (usize::MAX, usize::MAX);
        for v in 0..n {
            if i1 == usize::MAX || pi[v] < pi[i1] {
                i2 = i1;
                i1 = v;
            } else if i2 == usize::MAX || pi[v] < pi[i2] {
                i2 = v;
            }
        }
        let sum_pi: f64 = pi.iter().sum();
        let value = total - 2.0 * sum_pi + pi[i1] + pi[i2];
        for (g, &d) in self.grad.iter_mut().zip(degrees.iter()) {
            *g = d as f64 - 2.0;
        }
        self.grad[i1] += 1.0;
        self.grad[i2] += 1.0;
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{brute_force_path, held_karp_path};
    use crate::mst::prim_mst;

    fn random_instance(n: usize, salt: u64) -> TspInstance {
        TspInstance::from_fn(n, move |u, v| {
            let (a, b) = (u.min(v) as u64, u.max(v) as u64);
            (a.wrapping_mul(7919) ^ b.wrapping_mul(104729) ^ salt.wrapping_mul(977)) % 80 + 1
        })
    }

    #[test]
    fn ascent_improves_or_ties_plain_bound() {
        // The plain path-form bound is the MST (the π = 0 evaluation).
        for salt in 0..5 {
            let t = random_instance(9, salt);
            assert!(path_lower_bound(&t, 100) >= prim_mst(&t).1);
        }
    }

    #[test]
    fn path_bound_sandwiched() {
        for salt in 0..5 {
            let t = random_instance(8, salt);
            let lb = path_lower_bound(&t, 100);
            let (_, opt) = brute_force_path(&t);
            assert!(lb <= opt, "salt={salt}: {lb} > {opt}");
            // The ascent should land within 35% on these small instances.
            assert!(3 * lb >= 2 * opt, "salt={salt}: weak bound {lb} vs {opt}");
        }
    }

    #[test]
    fn near_exact_on_two_valued_reduction_shape() {
        // Weights 1 on the line, 2 elsewhere (diameter-2 reduction shape):
        // the path optimum is n-1. The path-form relaxation at π = 0 is the
        // MST bound — the line itself — so the ascent certifies it exactly,
        // and a single iteration suffices.
        let t = TspInstance::from_fn(20, |u, v| if u.abs_diff(v) == 1 { 1 } else { 2 });
        let (_, opt) = held_karp_path(&t);
        assert_eq!(opt, 19);
        assert_eq!(path_lower_bound(&t, 200), 19);
        let one = path_lower_bound_anytime(&t, 1, &Deadline::none());
        assert_eq!(one.bound, 19);
        assert_eq!(one.iters, 1);
    }

    #[test]
    fn degenerate_sizes() {
        // n < 2 has no edge to price: the vacuous 0, with no iterations.
        let none = AscentOutcome { bound: 0, iters: 0 };
        let t0 = TspInstance::from_matrix(0, vec![]);
        let t1 = TspInstance::from_matrix(1, vec![0]);
        assert_eq!(path_lower_bound_anytime(&t0, 10, &Deadline::none()), none);
        assert_eq!(path_lower_bound_anytime(&t1, 10, &Deadline::none()), none);
        // n = 2: the lone edge is the only path, closed without an ascent.
        let t2 = TspInstance::from_matrix(2, vec![0, 5, 5, 0]);
        let two = path_lower_bound_anytime(&t2, 10, &Deadline::none());
        assert_eq!(two, AscentOutcome { bound: 5, iters: 0 });
        assert_eq!(path_lower_bound(&t2, 10), 5);
        // n = 3 is the smallest instance that runs the ascent.
        let t3 = TspInstance::from_matrix(3, vec![0, 1, 4, 1, 0, 2, 4, 2, 0]);
        let three = path_lower_bound_anytime(&t3, 10, &Deadline::none());
        assert_eq!(three.bound, 3);
        assert!(three.iters >= 1);
    }

    #[test]
    fn anytime_reports_iterations_and_respects_cancellation() {
        let t = random_instance(10, 3);
        let full = path_lower_bound_anytime(&t, 40, &Deadline::none());
        assert!(full.iters >= 1 && full.iters <= 40);
        // Deterministic: the deadline-free loop runs the same count again.
        assert_eq!(path_lower_bound_anytime(&t, 40, &Deadline::none()), full);
        // A pre-cancelled deadline still runs the first iteration (the
        // caller committed to one Prim pass), then stops: the result is the
        // un-ascended MST bound, never the vacuous 0.
        let token = dclab_par::CancelToken::new();
        token.cancel();
        let dl = Deadline::none().with_token(token);
        let cancelled = path_lower_bound_anytime(&t, 40, &dl);
        assert_eq!(cancelled.iters, 1);
        assert_eq!(cancelled.bound, prim_mst(&t).1);
        assert!(cancelled.bound > 0);
    }
}
