//! The dense Prim loops that [`crate::mst::prim`] replaced, kept verbatim
//! as references, and the differential tests that hold both Prim steps of
//! the ascent (the compacted kernel and, on AVX2 CPUs, the dense step) to
//! them: the same trees, the same keys, the same gradients bit for bit,
//! and the same ascent outcome.

use crate::construct::nearest_neighbor;
use crate::exact::branch_bound::mst_over_remaining;
use crate::lowerbound::{
    ascend, path_lower_bound_anytime, round_up_bound, AscentOutcome, PathForm,
};
use crate::mst::{prim_mst, PrimScratch, PrimStep};
use crate::{TspInstance, Weight};
use dclab_par::Deadline;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// Scan-then-relax `prim_mst`.
fn prim_mst_reference(inst: &TspInstance) -> (Vec<(u32, u32)>, Weight) {
    let n = inst.n();
    if n == 0 {
        return (vec![], 0);
    }
    let mut in_tree = vec![false; n];
    let mut best_w = vec![Weight::MAX; n];
    let mut best_to = vec![0u32; n];
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    let mut total = 0;
    in_tree[0] = true;
    for v in 1..n {
        best_w[v] = inst.weight(0, v);
        best_to[v] = 0;
    }
    for _ in 1..n {
        let mut pick = usize::MAX;
        let mut pick_w = Weight::MAX;
        for v in 0..n {
            if !in_tree[v] && best_w[v] < pick_w {
                pick_w = best_w[v];
                pick = v;
            }
        }
        debug_assert_ne!(pick, usize::MAX);
        in_tree[pick] = true;
        edges.push((best_to[pick], pick as u32));
        total += pick_w;
        for v in 0..n {
            if !in_tree[v] {
                let w = inst.weight(pick, v);
                if w < best_w[v] {
                    best_w[v] = w;
                    best_to[v] = pick as u32;
                }
            }
        }
    }
    (edges, total)
}

/// Scan-then-relax path-form evaluation through a per-pair closure.
fn path_tree_with_subgradient(inst: &TspInstance, pi: &[f64]) -> (f64, Vec<f64>) {
    let n = inst.n();
    debug_assert!(n >= 3);
    let w = |u: usize, v: usize| inst.weight(u, v) as f64 + pi[u] + pi[v];
    // Prim MST over all n cities under the priced weights.
    let mut in_tree = vec![false; n];
    let mut key = vec![f64::INFINITY; n];
    let mut parent = vec![usize::MAX; n];
    let mut degrees = vec![0u32; n];
    key[0] = 0.0;
    let mut total = 0.0f64;
    for _ in 0..n {
        let mut pick = usize::MAX;
        let mut pick_w = f64::INFINITY;
        for v in 0..n {
            if !in_tree[v] && key[v] < pick_w {
                pick_w = key[v];
                pick = v;
            }
        }
        in_tree[pick] = true;
        if parent[pick] != usize::MAX {
            total += w(parent[pick], pick);
            degrees[pick] += 1;
            degrees[parent[pick]] += 1;
        }
        for v in 0..n {
            if !in_tree[v] {
                let cand = w(pick, v);
                if cand < key[v] {
                    key[v] = cand;
                    parent[v] = pick;
                }
            }
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
    let mut grad: Vec<f64> = degrees.iter().map(|&d| d as f64 - 2.0).collect();
    grad[i1] += 1.0;
    grad[i2] += 1.0;
    (value, grad)
}

/// The path-form ascent with a fresh evaluation per iteration.
fn path_lower_bound_reference(
    inst: &TspInstance,
    iters: usize,
    deadline: &Deadline,
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
    let ub = crate::tour::path_weight(inst, &nearest_neighbor(inst, 0)) as f64;
    ascent_loop(n, iters, deadline, ub, |pi| {
        path_tree_with_subgradient(inst, pi)
    })
}

fn ascent_loop(
    n: usize,
    iters: usize,
    deadline: &Deadline,
    ub: f64,
    eval: impl Fn(&[f64]) -> (f64, Vec<f64>),
) -> AscentOutcome {
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
        let (value, grad) = eval(&pi);
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
            break; // the relaxation is a feasible tour/path: bound is exact
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

/// Branch and bound's completion bound with per-call buffers.
fn mst_over_remaining_reference(inst: &TspInstance, used: &[bool], tip: usize) -> Weight {
    let n = inst.n();
    let mut in_tree = vec![false; n];
    let mut key = vec![Weight::MAX; n];
    let members: Vec<usize> = std::iter::once(tip)
        .chain((0..n).filter(|&v| !used[v]))
        .collect();
    if members.len() <= 1 {
        return 0;
    }
    key[members[0]] = 0;
    let mut total = 0;
    for _ in 0..members.len() {
        let mut pick = usize::MAX;
        let mut pick_w = Weight::MAX;
        for &v in &members {
            if !in_tree[v] && key[v] < pick_w {
                pick_w = key[v];
                pick = v;
            }
        }
        in_tree[pick] = true;
        total += pick_w;
        for &v in &members {
            if !in_tree[v] {
                let w = inst.weight(pick, v);
                if w < key[v] {
                    key[v] = w;
                }
            }
        }
    }
    total
}

/// Case `case` of the differential corpus: `n` in 3..=64, weights
/// two-valued {1, 2} (diameter-2 L(2,1) shape), three-valued {2, 3, 4}
/// (diameter-3 L(4,3,2) shape) or uniform 1–50.
fn generated_instance(case: usize, rng: &mut StdRng) -> TspInstance {
    let n = rng.random_range(3..65usize);
    let weights: &[Weight] = match case % 3 {
        0 => &[1, 2],
        1 => &[2, 3, 4],
        _ => &[],
    };
    let mut w = vec![0; n * n];
    for u in 0..n {
        for v in (u + 1)..n {
            let x = if weights.is_empty() {
                rng.random_range(1..51)
            } else {
                weights[rng.random_range(0..weights.len())]
            };
            w[u * n + v] = x;
            w[v * n + u] = x;
        }
    }
    TspInstance::from_matrix(n, w)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn kernel_matches_the_scan_then_relax_loops() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0017);
    let mut bb_scratch = PrimScratch::default();
    for case in 0..1000 {
        let inst = generated_instance(case, &mut rng);
        let n = inst.n();

        // prim_mst: the same edges in the same order, the same total.
        assert_eq!(prim_mst(&inst), prim_mst_reference(&inst), "case {case}");

        // Path-form evaluation at π = 0, at potentials with many ties,
        // and at continuous potentials: value and gradient bit for bit.
        let mut form = PathForm::new(n, PrimStep::detect());
        let tied: Vec<f64> = (0..n)
            .map(|_| rng.random_range(0..4u64) as f64 * 0.5 - 0.5)
            .collect();
        let smooth: Vec<f64> = (0..n)
            .map(|_| rng.random_range(0..1_000_000u64) as f64 / 1e5 - 5.0)
            .collect();
        for pi in [vec![0.0; n], tied, smooth] {
            let (want, want_grad) = path_tree_with_subgradient(&inst, &pi);
            let got = form.eval(&inst, &pi);
            assert_eq!(got.to_bits(), want.to_bits(), "case {case}: value");
            assert_eq!(bits(&form.grad), bits(&want_grad), "case {case}: gradient");
        }

        // The whole ascent: the same bound after the same iterations.
        assert_eq!(
            path_lower_bound_anytime(&inst, 50, &Deadline::none()),
            path_lower_bound_reference(&inst, 50, &Deadline::none()),
            "case {case}: ascent"
        );

        // Completion bounds along a random partial path, tip last.
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        let mut used = vec![false; n];
        for &tip in &order {
            used[tip] = true;
            assert_eq!(
                mst_over_remaining(&inst, &used, tip, &mut bb_scratch),
                mst_over_remaining_reference(&inst, &used, tip),
                "case {case}: completion bound at tip {tip}"
            );
        }
    }
}

/// An `n`-city instance whose weights are drawn from `family`: two-valued
/// {1, 2} and three-valued {2, 3, 4} (exact ties everywhere), {0, 1, 2}
/// (zero weights), weights of 2⁵³ and above (`w as f64` rounds, so
/// distinct weights tie as keys), or uniform 1–50.
fn family_instance(n: usize, family: usize, rng: &mut StdRng) -> TspInstance {
    const HUGE: [Weight; 6] = [
        1 << 53,
        (1 << 53) + 1,
        (1 << 53) + 3,
        (1 << 63) + (1 << 11) - 1,
        u64::MAX - 1,
        u64::MAX,
    ];
    let mut w = vec![0; n * n];
    for u in 0..n {
        for v in (u + 1)..n {
            let x = match family {
                0 => rng.random_range(1..3),
                1 => rng.random_range(2..5),
                2 => rng.random_range(0..3),
                3 => HUGE[rng.random_range(0..HUGE.len())],
                _ => rng.random_range(1..51),
            };
            w[u * n + v] = x;
            w[v * n + u] = x;
        }
    }
    TspInstance::from_matrix(n, w)
}

#[test]
fn both_steps_match_the_scan_then_relax_loops() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0027);
    // The compacted kernel everywhere, and the dense AVX2 step where the
    // CPU has AVX2.
    let mut steps = vec![PrimStep::Compacted, PrimStep::detect()];
    steps.dedup();
    // Every residue mod 8, at small sizes and up to 300.
    let sizes = (3..=24).chain(61..=68).chain(293..=300);
    for (case, n) in sizes.enumerate() {
        let inst = family_instance(n, case % 5, &mut rng);
        // Potentials at zero, tied (with both zeros) and continuous.
        let tied: Vec<f64> = (0..n)
            .map(|_| [-0.5, -0.0, 0.0, 0.5, 1.0][rng.random_range(0..5usize)])
            .collect();
        let smooth: Vec<f64> = (0..n)
            .map(|_| rng.random_range(0..1_000_000u64) as f64 / 1e5 - 5.0)
            .collect();
        for pi in [vec![0.0; n], tied, smooth] {
            let (want, want_grad) = path_tree_with_subgradient(&inst, &pi);
            for &step in &steps {
                let mut form = PathForm::new(n, step);
                let got = form.eval(&inst, &pi);
                assert_eq!(got.to_bits(), want.to_bits(), "n {n}, {step:?}: value");
                assert_eq!(
                    bits(&form.grad),
                    bits(&want_grad),
                    "n {n}, {step:?}: gradient"
                );
            }
        }
        // The whole ascent, where the reference loops stay quick.
        if n <= 68 {
            let want = path_lower_bound_reference(&inst, 50, &Deadline::none());
            for &step in &steps {
                let got = ascend(&inst, 50, &Deadline::none(), step);
                assert_eq!(got, want, "n {n}, {step:?}: ascent");
            }
        }
    }
}
