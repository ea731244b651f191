//! The dense AVX2 Prim step under the Held–Karp path-form ascent.
//!
//! Keys and parents live in arrays indexed by city id. A city already in
//! the tree holds a NaN key, which fails every ordered comparison, so each
//! step runs the same branch-free pass over all `n` cities, eight to a
//! block of two four-lane registers:
//!
//! * **relax** — the candidate `(w(last, v) as f64 + π_last) + π_v`, in
//!   exactly that order, replaces the key when it is strictly smaller:
//!   `MINPD` is `if cand < key { cand } else { key }`, and the same strict
//!   comparison masks the parent store, so a tie keeps the earlier parent;
//! * **select** — each lane keeps the smallest key it has seen (`MINPD`
//!   again, which passes over NaN keys). The step reduces the lanes to the
//!   minimum and then scans the keys from id 0 for the first one equal to
//!   it, so a tie goes to the lowest id. The picked key is added to the
//!   total, and the city's key becomes NaN.
//!
//! These are the compacted kernel's rules ([`super::prim`]: strict `<`,
//! ties to the earlier parent and to the lowest id, the total summed in
//! join order), so both build the same tree in the same order from
//! bitwise the same keys. A `u64` weight is converted in registers in two
//! 32-bit halves; the conversion rounds once, so it equals `w as f64` for
//! every `u64`. The step scans all `n` cities where the compacted kernel
//! scans the `n − s` outside the tree, and still wins on four lanes.

use crate::TspInstance;
use std::arch::x86_64::*;

/// Proof that the running CPU has AVX2: [`Avx2::detect`] is the only way
/// to make one, so holding one makes [`prim_dense`] sound to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Avx2(());

impl Avx2 {
    /// `Some` exactly when the CPU has AVX2.
    pub(crate) fn detect() -> Option<Self> {
        std::is_x86_feature_detected!("avx2").then_some(Avx2(()))
    }
}

/// Cities per block: two registers of four `f64` lanes.
const BLOCK: usize = 8;

/// Reusable buffers for [`prim_dense`]: a key and a parent per city id,
/// padded with in-tree (NaN) cities to whole blocks.
#[derive(Default)]
pub(crate) struct DenseScratch {
    keys: Vec<f64>,
    parents: Vec<u64>,
}

/// Prim's algorithm from city 0 over all cities of `inst`, under the
/// priced weights `(w(u, v) as f64 + pi[u]) + pi[v]` with `u` the city just
/// added. `visit(parent, v, key)` is called once per city other than 0, in
/// the order the cities join the tree, exactly as [`super::prim`] calls it
/// with the same pricing.
pub(crate) fn prim_dense(
    _avx2: Avx2,
    inst: &TspInstance,
    pi: &[f64],
    scratch: &mut DenseScratch,
    visit: impl FnMut(usize, usize, f64),
) {
    let padded = inst.n().next_multiple_of(BLOCK);
    let DenseScratch { keys, parents } = scratch;
    keys.clear();
    keys.resize(padded, f64::NAN);
    parents.clear();
    parents.resize(padded, 0);
    // SAFETY: the `Avx2` token exists only when the CPU has AVX2, the one
    // feature `dense_tree` is compiled for.
    unsafe { dense_tree(inst, pi, keys, parents, visit) }
}

/// The step itself, `n − 1` times, over buffers [`prim_dense`] sized.
#[target_feature(enable = "avx2")]
fn dense_tree(
    inst: &TspInstance,
    pi: &[f64],
    keys: &mut [f64],
    parents: &mut [u64],
    mut visit: impl FnMut(usize, usize, f64),
) {
    let n = inst.n();
    let padded = n.next_multiple_of(BLOCK);
    // Every pointer offset below is bounded by these lengths.
    assert_eq!(pi.len(), n, "one potential per city");
    assert_eq!(keys.len(), padded, "one key per city, padded to blocks");
    assert_eq!(
        parents.len(),
        padded,
        "one parent per city, padded to blocks"
    );
    if n == 0 {
        return;
    }
    keys[0] = f64::NAN;
    keys[1..n].fill(f64::INFINITY);
    let full = n / BLOCK * BLOCK;
    // The lanes of the last, partial block that hold cities.
    let lane = _mm256_set_epi64x(3, 2, 1, 0);
    let rest = _mm256_set1_epi64x((n - full) as i64);
    let tail0 = _mm256_cmpgt_epi64(rest, lane);
    let tail1 = _mm256_cmpgt_epi64(rest, _mm256_add_epi64(lane, _mm256_set1_epi64x(4)));
    // u64 → f64 in two 32-bit halves: hi·2³² + 2⁸⁴ and lo + 2⁵² are exact
    // doubles, (hi part − (2⁸⁴ + 2⁵²)) is exact, and the final add rounds
    // hi·2³² + lo once, as `w as f64` does.
    let hi_magic = _mm256_set1_epi64x(0x4530_0000_0000_0000); // 2⁸⁴
    let lo_magic = _mm256_set1_epi64x(0x4330_0000_0000_0000); // 2⁵²
    let both_magic = _mm256_set1_pd(19342813118337666422669312.0); // 2⁸⁴ + 2⁵²
    macro_rules! to_f64 {
        ($w:expr) => {{
            let w: __m256i = $w;
            let hi = _mm256_or_si256(_mm256_srli_epi64::<32>(w), hi_magic);
            let lo = _mm256_blend_epi32::<0b1010_1010>(w, lo_magic);
            _mm256_add_pd(
                _mm256_sub_pd(_mm256_castsi256_pd(hi), both_magic),
                _mm256_castsi256_pd(lo),
            )
        }};
    }
    let inf = _mm256_set1_pd(f64::INFINITY);
    let mut last = 0usize;
    for _ in 1..n {
        let row = inst.row(last);
        let pi_last = _mm256_set1_pd(pi[last]);
        let last_id = _mm256_set1_epi64x(last as i64);
        let keys_at = keys.as_mut_ptr();
        let parents_at = parents.as_mut_ptr();
        // Per lane, the smallest key seen.
        let (mut min0, mut min1) = (inf, inf);
        // Relaxes the block of 8 cities from id `i`, given their weights
        // and potentials, and folds its keys into the lane minima.
        macro_rules! relax {
            ($i:expr, $w0:expr, $w1:expr, $p0:expr, $p1:expr) => {{
                let i: usize = $i;
                let c0 = _mm256_add_pd(_mm256_add_pd(to_f64!($w0), pi_last), $p0);
                let c1 = _mm256_add_pd(_mm256_add_pd(to_f64!($w1), pi_last), $p1);
                // SAFETY (each relax! below): i + BLOCK ≤ padded, the length
                // of `keys` and `parents`.
                let (k0, k1) = unsafe {
                    (
                        _mm256_loadu_pd(keys_at.add(i)),
                        _mm256_loadu_pd(keys_at.add(i + 4)),
                    )
                };
                let lt0 = _mm256_castpd_si256(_mm256_cmp_pd::<_CMP_LT_OQ>(c0, k0));
                let lt1 = _mm256_castpd_si256(_mm256_cmp_pd::<_CMP_LT_OQ>(c1, k1));
                let k0 = _mm256_min_pd(c0, k0);
                let k1 = _mm256_min_pd(c1, k1);
                // SAFETY: as for the loads above.
                unsafe {
                    _mm256_storeu_pd(keys_at.add(i), k0);
                    _mm256_storeu_pd(keys_at.add(i + 4), k1);
                    _mm256_maskstore_epi64(parents_at.add(i).cast(), lt0, last_id);
                    _mm256_maskstore_epi64(parents_at.add(i + 4).cast(), lt1, last_id);
                }
                min0 = _mm256_min_pd(k0, min0);
                min1 = _mm256_min_pd(k1, min1);
            }};
        }
        let (w, p) = (row.as_ptr(), pi.as_ptr());
        let mut i = 0;
        while i < full {
            // SAFETY: i + BLOCK ≤ full ≤ n = row.len() = pi.len().
            let (w0, w1, p0, p1) = unsafe {
                (
                    _mm256_loadu_si256(w.add(i).cast()),
                    _mm256_loadu_si256(w.add(i + 4).cast()),
                    _mm256_loadu_pd(p.add(i)),
                    _mm256_loadu_pd(p.add(i + 4)),
                )
            };
            relax!(i, w0, w1, p0, p1);
            i += BLOCK;
        }
        if full < n {
            // SAFETY: the masks admit only the lanes of ids below n, so
            // every element read lies in `row` and `pi`. The others read as
            // zero; their cities are padding with NaN keys, which never
            // relax or win.
            let (w0, w1, p0, p1) = unsafe {
                (
                    _mm256_maskload_epi64(w.wrapping_add(full).cast(), tail0),
                    _mm256_maskload_epi64(w.wrapping_add(full + 4).cast(), tail1),
                    _mm256_maskload_pd(p.wrapping_add(full), tail0),
                    _mm256_maskload_pd(p.wrapping_add(full + 4), tail1),
                )
            };
            relax!(full, w0, w1, p0, p1);
        }
        // The smallest key, then the lowest id holding it.
        let m = _mm256_min_pd(min0, min1);
        let m = _mm256_min_pd(m, _mm256_permute2f128_pd::<1>(m, m));
        let m = _mm256_min_pd(m, _mm256_permute_pd::<0b0101>(m));
        assert!(
            _mm256_cvtsd_f64(m) < f64::INFINITY,
            "a city outside the tree has a finite key"
        );
        let mut pick = 0;
        while pick < n {
            // SAFETY: pick is a multiple of BLOCK below n, so pick + BLOCK ≤
            // padded, the length of `keys`.
            let (k0, k1) = unsafe {
                (
                    _mm256_loadu_pd(keys_at.add(pick)),
                    _mm256_loadu_pd(keys_at.add(pick + 4)),
                )
            };
            let eq0 = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_EQ_OQ>(k0, m)) as u32;
            let eq1 = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_EQ_OQ>(k1, m)) as u32;
            let eq = eq0 | eq1 << 4;
            if eq != 0 {
                pick += eq.trailing_zeros() as usize;
                break;
            }
            pick += BLOCK;
        }
        let key = keys[pick];
        keys[pick] = f64::NAN;
        visit(parents[pick] as usize, pick, key);
        last = pick;
    }
}
