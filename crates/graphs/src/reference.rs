//! The nested-`Vec` adjacency-list graph the CSR core replaced, kept as an
//! executable specification, and the binary-heap Dijkstra.
//!
//! [`AdjListGraph`] is (a minimal cut of) the representation `minex`
//! shipped before the CSR rewrite: one heap-allocated `Vec<(node, edge)>`
//! per node plus an endpoint list. It exists for two jobs only:
//!
//! * the **differential property-test battery**
//!   (`crates/graphs/tests/proptest_csr.rs`) checks every [`Graph`]
//!   accessor against this implementation on random edge lists;
//! * the **E15 scale experiment** uses it as the memory/throughput baseline
//!   the CSR core is measured against.
//!
//! It is deliberately naive — per-node allocations, `usize` ids, no
//! streaming construction — and must stay that way: its value is being
//! obviously correct and representative of the pre-CSR cost model, not
//! being fast.
//!
//! [`dijkstra_heap`] is the workspace's one sequential Dijkstra, on a
//! `BinaryHeap`; [`traversal::dijkstra`](crate::traversal::dijkstra) calls
//! it. It is the weighted-distance reference every distributed SSSP tier is
//! checked against, and it lives here because this module is the *only*
//! place in the result-affecting crates where `BinaryHeap` is allowed
//! (minex-lint rule D007 enforces that).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::dist::{dist_add, UNREACHED};
use crate::graph::{EdgeId, Graph, GraphError, NodeId, WeightedGraph};
use crate::traversal::DijkstraResult;

/// Sequential Dijkstra on a binary heap, with the shared
/// [`dist`](crate::dist) sentinel arithmetic; call it as
/// [`traversal::dijkstra`](crate::traversal::dijkstra).
///
/// `crates/graphs/tests/proptest_dijkstra.rs` checks it against a naive
/// Bellman–Ford on zero, small and overflow-adjacent weights. Ties are
/// broken by node id: the heap pops the smallest `(distance, node)` pair.
///
/// # Panics
///
/// Panics if `src >= g.n()`.
pub fn dijkstra_heap(wg: &WeightedGraph, src: NodeId) -> DijkstraResult {
    let g = wg.graph();
    assert!(src < g.n(), "source {src} out of range");
    let mut dist = vec![UNREACHED; g.n()];
    let mut parent = vec![None; g.n()];
    let mut heap: BinaryHeap<Reverse<(u64, NodeId)>> = BinaryHeap::new();
    dist[src] = 0;
    heap.push(Reverse((0, src)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v] {
            continue;
        }
        for (&w, &e) in g.neighbor_targets(v).iter().zip(g.neighbor_edge_ids(v)) {
            let w = w as NodeId;
            let cand = dist_add(d, wg.weight(e as usize));
            if cand < dist[w] {
                dist[w] = cand;
                parent[w] = Some(v);
                heap.push(Reverse((cand, w)));
            }
        }
    }
    DijkstraResult { dist, parent }
}

/// A simple undirected graph stored as one sorted `Vec<(neighbor, edge)>`
/// per node — the pre-CSR representation, preserved as a differential
/// baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdjListGraph {
    /// `adj[v]` lists `(neighbor, edge id)` pairs, sorted by neighbor.
    adj: Vec<Vec<(NodeId, EdgeId)>>,
    /// `edges[e] = (u, v)` with `u < v`, sorted lexicographically.
    edges: Vec<(NodeId, NodeId)>,
}

impl AdjListGraph {
    /// Builds from an edge list with the same contract as
    /// [`Graph::from_edges`]: endpoints canonicalized, duplicates
    /// deduplicated, edge ids assigned by lexicographic rank.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] or [`GraphError::SelfLoop`]
    /// exactly when [`Graph::from_edges`] would.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let mut list: Vec<(NodeId, NodeId)> = Vec::new();
        for (u, v) in edges {
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
            for w in [u, v] {
                if w >= n {
                    return Err(GraphError::NodeOutOfRange { node: w, n });
                }
            }
            list.push((u.min(v), u.max(v)));
        }
        list.sort_unstable();
        list.dedup();
        let mut adj: Vec<Vec<(NodeId, EdgeId)>> = vec![Vec::new(); n];
        for (e, &(u, v)) in list.iter().enumerate() {
            adj[u].push((v, e));
            adj[v].push((u, e));
        }
        for row in &mut adj {
            row.sort_unstable();
        }
        Ok(AdjListGraph { adj, edges: list })
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Degree of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v].len()
    }

    /// `(neighbor, edge id)` pairs of `v`, sorted by neighbor.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        self.adj[v].iter().copied()
    }

    /// The endpoints `(u, v)` of edge `e`, with `u < v`.
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.edges[e]
    }

    /// The edge id between `u` and `v`, if any.
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        if u >= self.n() || v >= self.n() {
            return None;
        }
        self.adj[u].iter().find(|&&(w, _)| w == v).map(|&(_, e)| e)
    }

    /// Whether an edge `{u, v}` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_between(u, v).is_some()
    }

    /// The subgraph induced by `keep` with the same contract as
    /// [`Graph::induced_subgraph`].
    ///
    /// # Panics
    ///
    /// Panics if a kept node is out of range.
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> (AdjListGraph, Vec<Option<NodeId>>) {
        let mut map: Vec<Option<NodeId>> = vec![None; self.n()];
        let mut sorted: Vec<NodeId> = keep.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for (next, &v) in sorted.iter().enumerate() {
            assert!(v < self.n(), "node {v} out of range");
            map[v] = Some(next);
        }
        let edges = self.edges.iter().filter_map(|&(u, v)| {
            if let (Some(nu), Some(nv)) = (map[u], map[v]) {
                Some((nu, nv))
            } else {
                None
            }
        });
        let sub = AdjListGraph::from_edges(sorted.len(), edges).expect("mapped edges are valid");
        (sub, map)
    }

    /// Heap bytes of the nested representation: the per-node `Vec` headers
    /// plus `(usize, usize)` adjacency entries plus the endpoint list —
    /// the pre-CSR memory model E15 compares against. Capacity slack is
    /// excluded, so this is a *lower bound* on what the old layout paid.
    pub fn heap_bytes(&self) -> usize {
        let vec_header = std::mem::size_of::<Vec<(NodeId, EdgeId)>>();
        let entry = std::mem::size_of::<(NodeId, EdgeId)>();
        self.adj.len() * vec_header
            + self.adj.iter().map(|row| row.len() * entry).sum::<usize>()
            + self.edges.len() * std::mem::size_of::<(NodeId, NodeId)>()
    }
}

/// Converts a CSR [`Graph`] into the reference representation (used by the
/// E15 baseline so both sides describe the *same* graph).
impl From<&Graph> for AdjListGraph {
    fn from(g: &Graph) -> Self {
        AdjListGraph::from_edges(g.n(), g.edges().map(|(_, u, v)| (u, v)))
            .expect("a valid Graph converts losslessly")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_small_example() {
        let edges = [(0, 1), (2, 1), (0, 3)];
        let r = AdjListGraph::from_edges(4, edges).unwrap();
        let g = Graph::from_edges(4, edges).unwrap();
        assert_eq!((r.n(), r.m()), (g.n(), g.m()));
        for v in 0..4 {
            assert_eq!(
                r.neighbors(v).collect::<Vec<_>>(),
                g.neighbors(v).collect::<Vec<_>>()
            );
        }
        assert_eq!(r.endpoints(1), g.endpoints(1));
        assert_eq!(r.edge_between(1, 2), g.edge_between(1, 2));
    }

    #[test]
    fn reference_rejects_bad_input_like_graph() {
        assert_eq!(
            AdjListGraph::from_edges(2, [(1, 1)]),
            Err(GraphError::SelfLoop(1))
        );
        assert_eq!(
            AdjListGraph::from_edges(2, [(0, 7)]),
            Err(GraphError::NodeOutOfRange { node: 7, n: 2 })
        );
    }

    #[test]
    fn heap_bytes_dwarf_csr() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]).unwrap();
        let r = AdjListGraph::from(&g);
        assert!(r.heap_bytes() > g.heap_bytes());
    }
}
