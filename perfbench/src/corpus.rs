//! Seeded inputs for the three workloads. Every item draws from its own
//! stream derived from `(seed, corpus, index)`, so the same seed gives
//! byte-identical corpora, a longer run extends a shorter one, and items
//! can be generated in parallel. The program under test only ever sees
//! the serialized bytes built here.

use dclab_graph::generators::random;
use dclab_graph::{io, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `serve-relabel`: base instances `core_periphery(256 + i, 64, 0)`.
pub const RELABEL_BASES: usize = 8;
const RELABEL_FIRST_N: usize = 256;
const RELABEL_CORE: usize = 64;

/// Shape of a `core_periphery` instance.
#[derive(Clone, Copy, Debug)]
pub struct CorePeriphery {
    pub n: usize,
    pub core: usize,
    pub extra: f64,
}

/// `oracle-large`: past the 1 GiB dense-pipeline threshold, so `Auto`
/// resolves to the hub-label oracle path.
pub const LARGE: CorePeriphery = CorePeriphery {
    n: 12_000,
    core: 48,
    extra: 3e-4,
};

/// `serve-cold`: `gnp_with_diameter_at_most(250, 0.13, 3)`.
const COLD_N: usize = 250;
const COLD_P: f64 = 0.13;
const COLD_K: u32 = 3;

/// Corpus tags that keep the per-item streams of different workloads
/// apart.
const TAG_RELABEL: u64 = 1;
const TAG_COLD: u64 = 2;
const TAG_LARGE: u64 = 3;

/// SplitMix64 finalizer: decorrelates nearby `(seed, tag, index)` triples.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn item_rng(seed: u64, tag: u64, index: usize) -> StdRng {
    StdRng::seed_from_u64(mix(mix(seed ^ tag.rotate_left(48)) ^ index as u64))
}

/// The eight `serve-relabel` bases, in generator order. With no extra
/// edges the generator draws nothing, so the bases do not depend on the
/// seed; their vertex counts differ, so they are pairwise non-isomorphic.
pub fn relabel_bases() -> Vec<Graph> {
    (0..RELABEL_BASES)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(0);
            random::core_periphery(&mut rng, RELABEL_FIRST_N + i, RELABEL_CORE, 0.0)
        })
        .collect()
}

/// One timed `serve-relabel` request: a fresh relabeled copy of a base.
pub struct RelabelRequest {
    pub base: usize,
    pub body: String,
}

/// `count` requests cycling through the bases, each under its own seeded
/// random permutation.
pub fn relabel_requests(seed: u64, count: usize, bases: &[Graph]) -> Vec<RelabelRequest> {
    (0..count)
        .map(|i| {
            let base = i % bases.len();
            let g = &bases[base];
            let perm = random::random_permutation(&mut item_rng(seed, TAG_RELABEL, i), g.n());
            RelabelRequest {
                base,
                body: io::write_edge_list(&g.relabeled(&perm)),
            }
        })
        .collect()
}

/// `count` distinct `serve-cold` instances as edge-list bodies.
pub fn cold_instances(seed: u64, count: usize) -> Vec<String> {
    (0..count)
        .map(|i| {
            let mut rng = item_rng(seed, TAG_COLD, i);
            io::write_edge_list(&random::gnp_with_diameter_at_most(
                &mut rng, COLD_N, COLD_P, COLD_K,
            ))
        })
        .collect()
}

/// `count` distinct `core_periphery` instances of one shape as edge-list
/// texts, generated on two threads.
pub fn large_instances(seed: u64, count: usize, shape: CorePeriphery) -> Vec<String> {
    let one = |i: usize| {
        let mut rng = item_rng(seed, TAG_LARGE, i);
        io::write_edge_list(&random::core_periphery(
            &mut rng,
            shape.n,
            shape.core,
            shape.extra,
        ))
    };
    let mut out: Vec<Option<String>> = vec![None; count];
    let (even, odd): (Vec<_>, Vec<_>) = out.iter_mut().enumerate().partition(|(i, _)| i % 2 == 0);
    std::thread::scope(|s| {
        for half in [even, odd] {
            s.spawn(move || {
                for (i, slot) in half {
                    *slot = Some(one(i));
                }
            });
        }
    });
    out.into_iter()
        .map(|t| t.expect("every slot generated"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dclab_graph::canon::CanonicalForm;

    const SMALL: CorePeriphery = CorePeriphery {
        n: 400,
        core: 12,
        extra: 0.01,
    };

    #[test]
    fn same_seed_gives_byte_identical_corpora() {
        let bases = relabel_bases();
        let bodies = |seed| -> Vec<String> {
            relabel_requests(seed, 9, &bases)
                .into_iter()
                .map(|r| format!("{}:{}", r.base, r.body))
                .collect()
        };
        assert_eq!(bodies(7), bodies(7));
        assert_ne!(bodies(7), bodies(8));
        assert_eq!(cold_instances(7, 4), cold_instances(7, 4));
        assert_ne!(cold_instances(7, 4), cold_instances(8, 4));
        assert_eq!(large_instances(7, 3, SMALL), large_instances(7, 3, SMALL));
        assert_ne!(large_instances(7, 3, SMALL), large_instances(8, 3, SMALL));
        // A longer run extends a shorter one.
        assert_eq!(cold_instances(7, 4)[..2], cold_instances(7, 2)[..]);
    }

    #[test]
    fn corpus_items_are_distinct() {
        let cold = cold_instances(3, 6);
        let large = large_instances(3, 4, SMALL);
        for items in [&cold, &large] {
            for (i, a) in items.iter().enumerate() {
                assert!(items[i + 1..].iter().all(|b| a != b), "item {i} repeats");
            }
        }
    }

    #[test]
    fn relabel_bases_are_pairwise_non_isomorphic() {
        let bases = relabel_bases();
        assert_eq!(bases.len(), RELABEL_BASES);
        let forms: Vec<CanonicalForm> = bases.iter().map(CanonicalForm::of).collect();
        for i in 0..bases.len() {
            for j in (i + 1)..bases.len() {
                assert_ne!(bases[i].n(), bases[j].n(), "bases {i} and {j}");
                assert!(
                    !forms[i].same_canonical_graph(&forms[j]),
                    "bases {i} and {j} share a canonical form"
                );
            }
        }
    }
}
