//! Bounded-treewidth families: k-trees, partial k-trees, series-parallel.
//!
//! The treewidth-based shortcut construction (Theorem 5, [HIZ16b]) consumes
//! the construction records these generators emit.

use rand::seq::IndexedRandom;
use rand::{Rng, RngExt};

use crate::graph::{Graph, GraphBuilder, NodeId};

/// Construction record of a k-tree: a perfect elimination order.
///
/// Node `v` (for `v > k`) was attached to the clique `attach_clique[v - k - 1]`
/// of `k` earlier nodes; nodes `0..=k` form the initial `(k+1)`-clique.
/// This record is a direct witness of treewidth `≤ k` and converts to a tree
/// decomposition in `minex-decomp`.
#[derive(Debug, Clone)]
pub struct KTreeRecord {
    /// Width parameter `k`.
    pub k: usize,
    /// For each node `v` in `k+1..n` (in order), the k-clique it attached to.
    pub attach_clique: Vec<Vec<NodeId>>,
}

/// Random k-tree with `n` nodes: start from `K_{k+1}`, then attach each new
/// node to a uniformly random k-clique among those created so far.
///
/// The elimination-order record is drawn first (one RNG pass), then the
/// graph is streamed into CSR from the record via
/// [`Graph::from_edge_stream`] — a k-tree's edge set is exactly the seed
/// clique plus one `(u, v)` per attachment entry, so the only edge list is
/// the graph's own, and million-node instances pay only for the final
/// arrays (plus the record itself).
///
/// # Panics
///
/// Panics if `n < k + 1` or `k == 0`.
pub fn k_tree<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R) -> (Graph, KTreeRecord) {
    assert!(k >= 1, "k must be positive");
    assert!(n > k, "k-tree needs at least k+1 nodes");
    // All k-subsets of the seed clique are available k-cliques.
    let mut cliques: Vec<Vec<NodeId>> = k_subsets(&(0..=k).collect::<Vec<_>>(), k);
    let mut attach = Vec::new();
    for v in (k + 1)..n {
        let c = cliques.choose(rng).expect("non-empty clique pool").clone();
        // New k-cliques: v together with each (k-1)-subset of c.
        for sub in k_subsets(&c, k - 1) {
            let mut nc = sub;
            nc.push(v);
            cliques.push(nc);
        }
        attach.push(c);
    }
    let rec = KTreeRecord {
        k,
        attach_clique: attach,
    };
    (graph_of_k_tree(n, &rec), rec)
}

/// Materializes the graph a [`KTreeRecord`] describes, streaming the seed
/// clique and the attachment edges into CSR.
fn graph_of_k_tree(n: usize, rec: &KTreeRecord) -> Graph {
    let k = rec.k;
    Graph::from_edge_stream(n, || {
        let seed = (0..=k).flat_map(move |u| ((u + 1)..=k).map(move |v| (u, v)));
        let attachments = rec
            .attach_clique
            .iter()
            .enumerate()
            .flat_map(move |(i, clique)| {
                let v = k + 1 + i;
                clique.iter().map(move |&u| (u, v))
            });
        seed.chain(attachments)
    })
    .expect("k-tree edges are valid and unique")
}

/// Partial k-tree: a random k-tree with each non-seed edge kept with
/// probability `keep`. The [`KTreeRecord`] remains a valid treewidth witness.
/// The graph is re-connected afterwards by restoring one attachment edge per
/// node if deletion disconnected it.
pub fn partial_k_tree<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    keep: f64,
    rng: &mut R,
) -> (Graph, KTreeRecord) {
    assert!((0.0..=1.0).contains(&keep), "keep must be a probability");
    let (full, rec) = k_tree(n, k, rng);
    let mut b = GraphBuilder::new(n);
    // Keep the seed clique intact.
    for u in 0..=k {
        for v in (u + 1)..=k {
            b.add_edge(u, v).expect("seed edge");
        }
    }
    for (v, clique) in rec.attach_clique.iter().enumerate() {
        let v = v + k + 1;
        let mut kept_any = false;
        for &u in clique {
            if rng.random_bool(keep) {
                b.add_edge(v, u).expect("kept edge");
                kept_any = true;
            }
        }
        if !kept_any {
            // Guarantee connectivity: keep one attachment edge.
            b.add_edge(v, clique[0]).expect("restored edge");
        }
    }
    // Other (non-attachment) edges of the k-tree: between seed nodes handled;
    // every k-tree edge is either a seed edge or an attachment edge, so we
    // are done.
    let _ = full;
    (b.build(), rec)
}

/// Random series-parallel graph with `n ≥ 2` nodes, grown from a single edge
/// by random series subdivisions and parallel 2-paths. `K4`-minor-free by
/// construction.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn series_parallel<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Graph {
    assert!(n >= 2, "series-parallel graph needs at least two nodes");
    // Maintain the current edge list; both operations add one node.
    let mut edges: Vec<(NodeId, NodeId)> = vec![(0, 1)];
    let mut next: NodeId = 2;
    while next < n {
        let i = rng.random_range(0..edges.len());
        let (u, v) = edges[i];
        let w = next;
        next += 1;
        if rng.random_bool(0.5) {
            // Series: subdivide (u, v) into u - w - v.
            edges.swap_remove(i);
            edges.push((u, w));
            edges.push((w, v));
        } else {
            // Parallel: add a 2-path u - w - v alongside (u, v).
            edges.push((u, w));
            edges.push((w, v));
        }
    }
    Graph::from_edges(n, edges).expect("series-parallel edges valid")
}

/// All `size`-subsets of `items` (small `size` only; used for k ≤ 8).
fn k_subsets(items: &[NodeId], size: usize) -> Vec<Vec<NodeId>> {
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(size);
    fn rec(
        items: &[NodeId],
        size: usize,
        start: usize,
        cur: &mut Vec<NodeId>,
        out: &mut Vec<Vec<NodeId>>,
    ) {
        if cur.len() == size {
            out.push(cur.clone());
            return;
        }
        for i in start..items.len() {
            cur.push(items[i]);
            rec(items, size, i + 1, cur, out);
            cur.pop();
        }
    }
    rec(items, size, 0, &mut cur, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minor::is_k4_minor_free;
    use crate::traversal::is_connected;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn k_tree_structure() {
        let mut rng = StdRng::seed_from_u64(21);
        let (g, rec) = k_tree(30, 3, &mut rng);
        assert!(is_connected(&g));
        assert_eq!(rec.attach_clique.len(), 30 - 4);
        // Every attachment set is a clique and the new node joins it fully.
        for (i, clique) in rec.attach_clique.iter().enumerate() {
            let v = i + 4;
            assert_eq!(clique.len(), 3);
            for &u in clique {
                assert!(g.has_edge(v, u));
                assert!(u < v, "attachment must be to earlier nodes");
            }
            for a in 0..clique.len() {
                for b in (a + 1)..clique.len() {
                    assert!(g.has_edge(clique[a], clique[b]));
                }
            }
        }
        // Edge count of a k-tree: k(k+1)/2 + k(n-k-1).
        assert_eq!(g.m(), 6 + 3 * (30 - 4));
    }

    #[test]
    fn two_tree_is_k4_minor_free() {
        let mut rng = StdRng::seed_from_u64(8);
        let (g, _) = k_tree(40, 2, &mut rng);
        assert!(is_k4_minor_free(&g));
        let (g3, _) = k_tree(40, 3, &mut rng);
        assert!(!is_k4_minor_free(&g3));
    }

    #[test]
    fn partial_k_tree_connected_and_sparser() {
        let mut rng = StdRng::seed_from_u64(13);
        let (g, rec) = partial_k_tree(60, 4, 0.5, &mut rng);
        assert!(is_connected(&g));
        assert_eq!(rec.k, 4);
        let (full, _) = k_tree(60, 4, &mut StdRng::seed_from_u64(13));
        assert!(g.m() <= full.m());
    }

    #[test]
    fn series_parallel_is_k4_free_and_connected() {
        let mut rng = StdRng::seed_from_u64(34);
        for n in [2, 3, 10, 100] {
            let g = series_parallel(n, &mut rng);
            assert_eq!(g.n(), n);
            assert!(is_connected(&g), "n={n}");
            assert!(is_k4_minor_free(&g), "n={n}");
        }
    }

    #[test]
    fn subsets_enumeration() {
        let s = k_subsets(&[0, 1, 2, 3], 2);
        assert_eq!(s.len(), 6);
        let s1 = k_subsets(&[5], 1);
        assert_eq!(s1, vec![vec![5]]);
        let s0 = k_subsets(&[1, 2], 0);
        assert_eq!(s0, vec![Vec::<NodeId>::new()]);
    }
}
