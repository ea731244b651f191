//! Graph operations: complement, powers, induced subgraphs, disjoint union
//! and join (the cotree building blocks).

use crate::apsp::DistanceMatrix;
use crate::graph::Graph;

/// Complement graph `Ḡ`: same vertices, exactly the missing edges.
pub fn complement(g: &Graph) -> Graph {
    let n = g.n();
    let mut c = Graph::new(n);
    for u in 0..n {
        let nbrs = g.neighbors(u);
        let mut it = nbrs.iter().peekable();
        for v in (u + 1)..n {
            while let Some(&&w) = it.peek() {
                if (w as usize) < v {
                    it.next();
                } else {
                    break;
                }
            }
            let adjacent = matches!(it.peek(), Some(&&w) if w as usize == v);
            if !adjacent {
                c.add_edge(u, v);
            }
        }
    }
    c
}

/// `k`-th power `G^k`, read off `G`'s distance matrix `d`: edge `{u,v}`
/// iff `1 ≤ dist_G(u,v) ≤ k`.
pub fn power(d: &DistanceMatrix, k: u32) -> Graph {
    assert!(k >= 1, "graph power requires k >= 1");
    let n = d.n();
    let mut p = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            let duv = d.get(u, v);
            if duv >= 1 && duv <= k {
                p.add_edge(u, v);
            }
        }
    }
    p
}

/// Subgraph induced by `vertices` (relabelled `0..vertices.len()` in the
/// given order). Returns the new graph and the old→position mapping implied
/// by `vertices`.
pub fn induced_subgraph(g: &Graph, vertices: &[usize]) -> Graph {
    let mut pos = vec![usize::MAX; g.n()];
    for (i, &v) in vertices.iter().enumerate() {
        assert!(v < g.n(), "vertex out of range");
        assert!(pos[v] == usize::MAX, "duplicate vertex in induced set");
        pos[v] = i;
    }
    let mut h = Graph::new(vertices.len());
    for (i, &v) in vertices.iter().enumerate() {
        for &w in g.neighbors(v) {
            let w = w as usize;
            if pos[w] != usize::MAX && pos[w] > i {
                h.add_edge(i, pos[w]);
            }
        }
    }
    h
}

/// Disjoint union: vertices of `b` are shifted by `a.n()`.
pub fn disjoint_union(a: &Graph, b: &Graph) -> Graph {
    let mut g = Graph::new(a.n() + b.n());
    for (u, v) in a.edges() {
        g.add_edge(u, v);
    }
    for (u, v) in b.edges() {
        g.add_edge(u + a.n(), v + a.n());
    }
    g
}

/// Join: disjoint union plus all cross edges (the cotree "series" node).
pub fn join(a: &Graph, b: &Graph) -> Graph {
    let mut g = disjoint_union(a, b);
    for u in 0..a.n() {
        for v in 0..b.n() {
            g.add_edge(u, a.n() + v);
        }
    }
    g
}

/// Add a universal vertex adjacent to everything (the Griggs–Yeh / Theorem 3
/// construction step); the new vertex gets index `g.n()`.
pub fn add_universal_vertex(g: &Graph) -> Graph {
    let n = g.n();
    let mut h = Graph::new(n + 1);
    for (u, v) in g.edges() {
        h.add_edge(u, v);
    }
    for v in 0..n {
        h.add_edge(v, n);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diameter::diameter;
    use crate::generators::classic;

    #[test]
    fn complement_involution() {
        let g = classic::cycle(7);
        assert_eq!(complement(&complement(&g)), g);
    }

    #[test]
    fn complement_edge_counts_sum() {
        let g = classic::path(6);
        let c = complement(&g);
        assert_eq!(g.m() + c.m(), 6 * 5 / 2);
        c.validate().unwrap();
    }

    #[test]
    fn square_of_path() {
        let p2 = power(&DistanceMatrix::compute(&classic::path(5)), 2);
        assert!(p2.has_edge(0, 2));
        assert!(p2.has_edge(0, 1));
        assert!(!p2.has_edge(0, 3));
        assert_eq!(p2.m(), 4 + 3);
    }

    #[test]
    fn power_with_large_k_is_complete_for_connected() {
        let d = DistanceMatrix::compute(&classic::path(6));
        assert!(power(&d, 5).is_complete());
    }

    #[test]
    fn induced_subgraph_relabels() {
        let g = classic::cycle(5);
        let h = induced_subgraph(&g, &[1, 2, 4]);
        assert_eq!(h.n(), 3);
        assert!(h.has_edge(0, 1)); // 1-2 edge survives
        assert!(!h.has_edge(0, 2)); // 1-4 not an edge in C5
        h.validate().unwrap();
    }

    #[test]
    fn union_and_join_counts() {
        let a = classic::complete(3);
        let b = classic::path(4);
        let u = disjoint_union(&a, &b);
        assert_eq!(u.n(), 7);
        assert_eq!(u.m(), 3 + 3);
        let j = join(&a, &b);
        assert_eq!(j.m(), 3 + 3 + 12);
        j.validate().unwrap();
    }

    #[test]
    fn universal_vertex_gives_diameter_two() {
        let g = Graph::new(5); // edgeless
        let h = add_universal_vertex(&g);
        assert_eq!(diameter(&h), Some(2));
        assert_eq!(h.degree(5), 5);
    }
}
