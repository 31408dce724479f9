//! Elementary graph families: paths, cycles, stars, wheels, trees, cliques.

use rand::{Rng, RngExt};

use crate::graph::{Graph, GraphBuilder, NodeId};

/// Path with `n` nodes (`n ≥ 1`), edges `i — i+1`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn path(n: usize) -> Graph {
    assert!(n >= 1, "path needs at least one node");
    Graph::from_edges(n, (0..n.saturating_sub(1)).map(|i| (i, i + 1)))
        .expect("path edges are valid")
}

/// Cycle with `n ≥ 3` nodes.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least three nodes");
    Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n))).expect("cycle edges are valid")
}

/// Star with `n ≥ 2` nodes; node `0` is the hub.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn star(n: usize) -> Graph {
    assert!(n >= 2, "star needs at least two nodes");
    Graph::from_edges(n, (1..n).map(|i| (0, i))).expect("star edges are valid")
}

/// Wheel with `n ≥ 4` nodes: nodes `0..n-1` form a rim cycle and node `n-1`
/// is the hub adjacent to every rim node.
///
/// This is the paper's running example (Section 1.3.3): constant diameter,
/// but a part consisting of the rim has `Θ(n)` diameter in isolation.
///
/// # Panics
///
/// Panics if `n < 4`.
pub fn wheel(n: usize) -> Graph {
    assert!(n >= 4, "wheel needs at least four nodes");
    let rim = n - 1;
    let hub = n - 1;
    let mut b = GraphBuilder::new(n);
    for i in 0..rim {
        b.add_edge(i, (i + 1) % rim).expect("rim edge valid");
        b.add_edge(i, hub).expect("spoke valid");
    }
    b.build()
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u, v).expect("clique edge valid");
        }
    }
    b.build()
}

/// Complete bipartite graph `K_{a,b}`; the first `a` nodes form one side.
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let mut builder = GraphBuilder::new(a + b);
    for u in 0..a {
        for v in 0..b {
            builder.add_edge(u, a + v).expect("bipartite edge valid");
        }
    }
    builder.build()
}

/// Hypercube of dimension `dim` (`2^dim` nodes).
pub fn hypercube(dim: u32) -> Graph {
    let n = 1usize << dim;
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        for bit in 0..dim {
            let w = v ^ (1 << bit);
            if w > v {
                b.add_edge(v, w).expect("hypercube edge valid");
            }
        }
    }
    b.build()
}

/// Complete binary tree with `n` nodes (heap indexing: parent of `v` is
/// `(v-1)/2`).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn binary_tree(n: usize) -> Graph {
    assert!(n >= 1, "tree needs at least one node");
    Graph::from_edges(n, (1..n).map(|v| (v, (v - 1) / 2))).expect("tree edges valid")
}

/// Uniform random attachment tree: node `i` attaches to a uniformly random
/// earlier node.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_tree<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Graph {
    assert!(n >= 1, "tree needs at least one node");
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        let p = rng.random_range(0..v);
        b.add_edge(v, p).expect("tree edge valid");
    }
    b.build()
}

/// Spider: `legs` paths of length `leg_len` sharing a common center
/// (node 0). Total nodes: `1 + legs * leg_len`.
pub fn spider(legs: usize, leg_len: usize) -> Graph {
    let n = 1 + legs * leg_len;
    let mut b = GraphBuilder::new(n);
    let mut next = 1;
    for _ in 0..legs {
        let mut prev: NodeId = 0;
        for _ in 0..leg_len {
            b.add_edge(prev, next).expect("leg edge valid");
            prev = next;
            next += 1;
        }
    }
    b.build()
}

/// Comb: a spine path of `teeth` nodes, each growing a pendant path
/// ("tooth") of `tooth_len` nodes. Node ids: spine is `0..teeth`, tooth `i`
/// occupies `teeth + i*tooth_len ..` outward from the spine.
///
/// A planar (indeed outerplanar) path-heavy family for the shortest-path
/// workloads: distances are dominated by long induced paths, so each tooth
/// makes a natural long-and-skinny part.
///
/// # Panics
///
/// Panics if `teeth == 0`.
pub fn comb(teeth: usize, tooth_len: usize) -> Graph {
    assert!(teeth >= 1, "comb needs at least one spine node");
    let n = teeth * (1 + tooth_len);
    // Streamed in sorted canonical order, so the stream constructor's sort
    // is one linear pass: spine node `i` links to `i+1` and to its tooth
    // root `teeth + i*tooth_len`; tooth nodes chain to their successor.
    // Ascending in the lower endpoint, and `i + 1 < teeth + i*tooth_len`
    // whenever both edges exist.
    Graph::from_edge_stream(n, || {
        (0..n).flat_map(move |v| {
            let (spine, tooth) = if v < teeth {
                (
                    (v + 1 < teeth).then_some((v, v + 1)),
                    (tooth_len > 0).then_some((v, teeth + v * tooth_len)),
                )
            } else {
                let j = (v - teeth) % tooth_len;
                (None, (j + 1 < tooth_len).then_some((v, v + 1)))
            };
            spine.into_iter().chain(tooth)
        })
    })
    .expect("comb stream is canonical and unique")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::{diameter_exact, is_connected};

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!((g.n(), g.m()), (5, 4));
        assert_eq!(diameter_exact(&g), Some(4));
        assert_eq!(path(1).m(), 0);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(7);
        assert_eq!((g.n(), g.m()), (7, 7));
        assert!(g.nodes().all(|v| g.degree(v) == 2));
    }

    #[test]
    fn star_and_wheel() {
        let s = star(6);
        assert_eq!(s.degree(0), 5);
        let w = wheel(8);
        assert_eq!((w.n(), w.m()), (8, 14));
        assert_eq!(w.degree(7), 7);
        assert_eq!(diameter_exact(&w), Some(2));
    }

    #[test]
    fn complete_graphs() {
        let k5 = complete(5);
        assert_eq!(k5.m(), 10);
        let k23 = complete_bipartite(2, 3);
        assert_eq!(k23.m(), 6);
        assert!(!k23.has_edge(0, 1));
        assert!(k23.has_edge(0, 2));
    }

    #[test]
    fn hypercube_shape() {
        let h = hypercube(4);
        assert_eq!((h.n(), h.m()), (16, 32));
        assert_eq!(diameter_exact(&h), Some(4));
    }

    #[test]
    fn trees_are_trees() {
        use rand::{rngs::StdRng, SeedableRng};
        let b = binary_tree(15);
        assert_eq!(b.m(), 14);
        assert!(is_connected(&b));
        let mut rng = StdRng::seed_from_u64(3);
        let t = random_tree(50, &mut rng);
        assert_eq!(t.m(), 49);
        assert!(is_connected(&t));
        assert!(crate::minor::is_forest(&t));
    }

    #[test]
    fn spider_shape() {
        let g = spider(3, 4);
        assert_eq!(g.n(), 13);
        assert_eq!(g.degree(0), 3);
        assert_eq!(diameter_exact(&g), Some(8));
    }

    #[test]
    fn comb_shape() {
        let g = comb(5, 3);
        assert_eq!((g.n(), g.m()), (20, 19));
        assert!(is_connected(&g));
        // Tree: m = n - 1. Diameter: tooth + spine + tooth = 3 + 4 + 3.
        assert_eq!(diameter_exact(&g), Some(10));
        // Spine interior nodes have degree 3 (two spine, one tooth).
        assert_eq!(g.degree(2), 3);
        // Tooth tips have degree 1.
        assert_eq!(g.degree(5 + 2), 1);
    }

    #[test]
    fn comb_degenerate() {
        let g = comb(1, 0);
        assert_eq!((g.n(), g.m()), (1, 0));
        let g = comb(4, 0);
        assert_eq!((g.n(), g.m()), (4, 3));
    }

    #[test]
    #[should_panic(expected = "cycle needs")]
    fn cycle_rejects_small() {
        let _ = cycle(2);
    }
}
