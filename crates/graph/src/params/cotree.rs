//! Cotree construction / cograph recognition.
//!
//! Cographs are the graphs obtained from single vertices by disjoint union
//! and join; equivalently, graphs of clique-width ≤ 2 and the canonical
//! family of bounded modular-width. The cotree drives the polynomial
//! Partition-into-Paths DP that realises Corollary 2's FPT claim
//! (see `dclab-core::partition_paths::cograph`).

use crate::graph::Graph;

/// A node of the cotree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CotreeNode {
    /// A single original vertex.
    Leaf(usize),
    /// Disjoint union of the children (parallel node).
    Union(Vec<usize>),
    /// Join of the children (series node).
    Join(Vec<usize>),
}

/// Cotree of a cograph: nodes in post-order, `root` is the last index.
#[derive(Clone, Debug)]
pub struct Cotree {
    /// All nodes; children indices always precede their parent.
    pub nodes: Vec<CotreeNode>,
    /// Index of the root node.
    pub root: usize,
    /// Number of leaves under each node.
    pub size: Vec<usize>,
}

impl Cotree {
    /// Build the cotree of `g`, or `None` if `g` is not a cograph.
    ///
    /// Recognition is by the classic complement-reduction characterisation:
    /// a graph with ≥ 2 vertices is a cograph iff it or its complement is
    /// disconnected, recursively. Both component searches run over `g`'s
    /// own adjacency — the complement is never built — so each level of
    /// the recursion costs `O(n + m)` (Tedder et al.'s linear algorithm is
    /// out of scope).
    pub fn build(g: &Graph) -> Option<Cotree> {
        let mut nodes = Vec::new();
        let mut size = Vec::new();
        let vertices: Vec<usize> = (0..g.n()).collect();
        if g.n() == 0 {
            // Empty graph: represent with an empty union node.
            nodes.push(CotreeNode::Union(vec![]));
            size.push(0);
            return Some(Cotree {
                nodes,
                root: 0,
                size,
            });
        }
        let mut pos = vec![usize::MAX; g.n()];
        let root = build_rec(g, &vertices, &mut pos, &mut nodes, &mut size)?;
        Some(Cotree { nodes, root, size })
    }
}

/// Append the cotree of `G[vertices]` (`vertices` ascending) to `nodes`,
/// returning its root, or `None` if the subgraph is not a cograph.
///
/// `pos` maps every vertex to its index in the current set and is
/// `usize::MAX` outside it; each level fills it for its own set and clears
/// it again before recursing, so one array serves the whole recursion.
fn build_rec(
    g: &Graph,
    vertices: &[usize],
    pos: &mut [usize],
    nodes: &mut Vec<CotreeNode>,
    size: &mut Vec<usize>,
) -> Option<usize> {
    if vertices.len() == 1 {
        nodes.push(CotreeNode::Leaf(vertices[0]));
        size.push(1);
        return Some(nodes.len() - 1);
    }
    for (i, &v) in vertices.iter().enumerate() {
        pos[v] = i;
    }
    let comps = components(g, vertices, pos);
    let (join, comps) = if comps.len() > 1 {
        (false, comps)
    } else {
        (true, co_components(g, vertices, pos))
    };
    for &v in vertices {
        pos[v] = usize::MAX;
    }
    if comps.len() == 1 {
        // Both G[S] and its complement connected with |S| ≥ 2 ⇒ not a cograph.
        return None;
    }
    let mut children = Vec::with_capacity(comps.len());
    let mut total = 0;
    for comp in comps {
        let c = build_rec(g, &comp, pos, nodes, size)?;
        total += size[c];
        children.push(c);
    }
    nodes.push(if join {
        CotreeNode::Join(children)
    } else {
        CotreeNode::Union(children)
    });
    size.push(total);
    Some(nodes.len() - 1)
}

/// Components of `G[vertices]`, by DFS over `g`'s adjacency restricted to
/// the set through `pos`.
fn components(g: &Graph, vertices: &[usize], pos: &[usize]) -> Vec<Vec<usize>> {
    let mut comp = vec![usize::MAX; vertices.len()];
    let mut count = 0;
    let mut stack = Vec::new();
    for s in 0..vertices.len() {
        if comp[s] != usize::MAX {
            continue;
        }
        comp[s] = count;
        stack.push(s);
        while let Some(i) = stack.pop() {
            for &w in g.neighbors(vertices[i]) {
                let j = pos[w as usize];
                if j != usize::MAX && comp[j] == usize::MAX {
                    comp[j] = count;
                    stack.push(j);
                }
            }
        }
        count += 1;
    }
    group(vertices, &comp, count)
}

/// Components of the complement of `G[vertices]`, without building it: a
/// search over the list of unvisited vertices, where each step moves the
/// unvisited non-neighbours of the current vertex into its component.
/// Every vertex that stays in the list is charged to an edge of `G`, so a
/// call costs `O(|S| + Σ deg)` where the complement would cost `O(|S|²)`.
fn co_components(g: &Graph, vertices: &[usize], pos: &[usize]) -> Vec<Vec<usize>> {
    let len = vertices.len();
    let mut comp = vec![usize::MAX; len];
    let mut count = 0;
    let mut stack = Vec::new();
    let mut adjacent = vec![false; len];
    // Unvisited positions, ascending, so each component starts at the
    // smallest vertex no earlier component took.
    let mut rest: Vec<usize> = (0..len).collect();
    let mut kept = Vec::with_capacity(len);
    while let Some(&s) = rest.first() {
        comp[s] = count;
        stack.push(s);
        while let Some(i) = stack.pop() {
            let nbrs = g.neighbors(vertices[i]);
            let in_set = || {
                nbrs.iter()
                    .map(|&w| pos[w as usize])
                    .filter(|&j| j != usize::MAX)
            };
            for j in in_set() {
                adjacent[j] = true;
            }
            kept.clear();
            for &j in &rest {
                if adjacent[j] {
                    kept.push(j);
                } else if comp[j] == usize::MAX {
                    comp[j] = count;
                    stack.push(j);
                }
            }
            std::mem::swap(&mut rest, &mut kept);
            for j in in_set() {
                adjacent[j] = false;
            }
        }
        count += 1;
    }
    group(vertices, &comp, count)
}

/// Vertex sets of `count` components from per-position ids: components by
/// smallest vertex, each ascending — the order
/// [`crate::traversal::component_vertex_sets`] gives, which keeps
/// [`Cotree::build`] node-for-node stable.
fn group(vertices: &[usize], comp: &[usize], count: usize) -> Vec<Vec<usize>> {
    let mut sets = vec![Vec::new(); count];
    for (&v, &c) in vertices.iter().zip(comp) {
        sets[c].push(v);
    }
    sets
}

/// Cograph test.
pub fn is_cograph(g: &Graph) -> bool {
    Cotree::build(g).is_some()
}

/// The recursion [`Cotree::build`] ran before it searched the complement
/// in place: it materializes `G[S]` and its complement at every level.
/// Kept verbatim as the reference the differential tests pin the new
/// recursion to.
#[cfg(test)]
mod reference {
    use super::{Cotree, CotreeNode};
    use crate::graph::Graph;
    use crate::ops::induced_subgraph;
    use crate::traversal::component_vertex_sets;

    /// [`Cotree::build`] over the materializing recursion.
    pub fn build(g: &Graph) -> Option<Cotree> {
        let mut nodes = Vec::new();
        let mut size = Vec::new();
        let vertices: Vec<usize> = (0..g.n()).collect();
        if g.n() == 0 {
            nodes.push(CotreeNode::Union(vec![]));
            size.push(0);
            return Some(Cotree {
                nodes,
                root: 0,
                size,
            });
        }
        let root = build_rec(g, &vertices, &mut nodes, &mut size)?;
        Some(Cotree { nodes, root, size })
    }

    fn build_rec(
        g: &Graph,
        vertices: &[usize],
        nodes: &mut Vec<CotreeNode>,
        size: &mut Vec<usize>,
    ) -> Option<usize> {
        if vertices.len() == 1 {
            nodes.push(CotreeNode::Leaf(vertices[0]));
            size.push(1);
            return Some(nodes.len() - 1);
        }
        let sub = induced_subgraph(g, vertices);
        let comps = component_vertex_sets(&sub);
        if comps.len() > 1 {
            let mut children = Vec::with_capacity(comps.len());
            let mut total = 0;
            for comp in comps {
                let orig: Vec<usize> = comp.iter().map(|&i| vertices[i]).collect();
                let c = build_rec(g, &orig, nodes, size)?;
                total += size[c];
                children.push(c);
            }
            nodes.push(CotreeNode::Union(children));
            size.push(total);
            return Some(nodes.len() - 1);
        }
        let co = crate::ops::complement(&sub);
        let co_comps = component_vertex_sets(&co);
        if co_comps.len() > 1 {
            let mut children = Vec::with_capacity(co_comps.len());
            let mut total = 0;
            for comp in co_comps {
                let orig: Vec<usize> = comp.iter().map(|&i| vertices[i]).collect();
                let c = build_rec(g, &orig, nodes, size)?;
                total += size[c];
                children.push(c);
            }
            nodes.push(CotreeNode::Join(children));
            size.push(total);
            return Some(nodes.len() - 1);
        }
        None // both G[S] and its complement connected with |S| ≥ 2 ⇒ not a cograph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{classic, random};
    use crate::ops::{complement, disjoint_union, join};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn complete_and_edgeless_are_cographs() {
        assert!(is_cograph(&classic::complete(5)));
        assert!(is_cograph(&Graph::new(5)));
        assert!(is_cograph(&Graph::new(1)));
        assert!(is_cograph(&Graph::new(0)));
    }

    #[test]
    fn p4_is_not_a_cograph() {
        assert!(!is_cograph(&classic::path(4)));
    }

    #[test]
    fn p3_is_a_cograph() {
        assert!(is_cograph(&classic::path(3)));
    }

    #[test]
    fn c5_is_not_a_cograph() {
        assert!(!is_cograph(&classic::cycle(5)));
    }

    #[test]
    fn union_join_closure() {
        let a = classic::complete(3);
        let b = classic::path(3);
        assert!(is_cograph(&disjoint_union(&a, &b)));
        assert!(is_cograph(&join(&a, &b)));
    }

    #[test]
    fn cograph_complement_closure() {
        let g = join(&classic::complete(2), &Graph::new(3));
        assert!(is_cograph(&g));
        assert!(is_cograph(&complement(&g)));
    }

    #[test]
    fn cotree_leaf_partition_is_exact() {
        let g = join(&classic::complete(2), &Graph::new(3));
        let t = Cotree::build(&g).unwrap();
        let mut leaves = Vec::new();
        let mut stack = vec![t.root];
        while let Some(i) = stack.pop() {
            match &t.nodes[i] {
                CotreeNode::Leaf(v) => leaves.push(*v),
                CotreeNode::Union(ch) | CotreeNode::Join(ch) => stack.extend(ch),
            }
        }
        leaves.sort_unstable();
        assert_eq!(leaves, vec![0, 1, 2, 3, 4]);
        assert_eq!(t.size[t.root], 5);
        assert!(matches!(t.nodes[t.root], CotreeNode::Join(_)));
    }

    #[test]
    fn cotree_root_of_disconnected_is_union() {
        let g = disjoint_union(&classic::complete(2), &classic::complete(2));
        let t = Cotree::build(&g).unwrap();
        assert!(matches!(t.nodes[t.root], CotreeNode::Union(_)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        // The in-place complement search against the materializing
        // reference, on cographs, near-cographs and non-cographs and on
        // the complement of each: the same cotree node for node, and the
        // same verdict.
        #[test]
        fn cotree_matches_materializing_reference(
            kind in 0usize..6,
            n in 0usize..65,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = match kind % 3 {
                0 => random::gnp(&mut rng, n, [0.05, 0.2, 0.5, 0.9][(seed % 4) as usize]),
                1 => random::random_cograph(&mut rng, n, [0.2, 0.5, 0.8][(seed % 3) as usize]),
                _ => {
                    let core = 1 + (seed % 8) as usize;
                    random::core_periphery(&mut rng, n, core, [0.0, 0.02, 0.2][(seed % 3) as usize])
                }
            };
            let g = if kind >= 3 { complement(&g) } else { g };
            let fast = Cotree::build(&g);
            let slow = reference::build(&g);
            prop_assert_eq!(is_cograph(&g), slow.is_some());
            let key = |t: Option<Cotree>| t.map(|t| (t.nodes, t.root, t.size));
            prop_assert_eq!(key(fast), key(slow));
        }
    }
}
