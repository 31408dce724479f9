//! Breadth-first search, connectivity, and distance utilities.
//!
//! The unweighted traversals walk the raw CSR rows of a [`Graph`].
//! [`dijkstra`] runs on [`WeightedGraph`] (weights are indexed by dense CSR
//! edge ids) through the binary heap of
//! [`reference::dijkstra_heap`](crate::reference::dijkstra_heap).

use std::collections::VecDeque;

use crate::dist::UNREACHED;
use crate::graph::{Graph, NodeId, WeightedGraph};

/// The result of a (multi-source) BFS: distances and BFS-tree parents.
#[derive(Debug, Clone)]
pub struct BfsResult {
    /// `dist[v]` is the hop distance from the nearest source, or `usize::MAX`
    /// if `v` is unreachable.
    pub dist: Vec<usize>,
    /// `parent[v]` is the BFS-tree parent, `None` for sources and unreachable
    /// nodes.
    pub parent: Vec<Option<NodeId>>,
    /// `parent_edge[v]` is the edge id used to reach `v`, aligned with
    /// `parent`.
    pub parent_edge: Vec<Option<usize>>,
    /// `source_of[v]` is the source that reached `v` first (ties broken by
    /// queue order, i.e. by source order then node id), or `usize::MAX` when
    /// unreachable. This realizes the “concurrent BFS” cell partition used in
    /// Section 2.3.3 of the paper.
    pub source_of: Vec<usize>,
    /// Nodes in visit order (sources first).
    pub order: Vec<NodeId>,
}

impl BfsResult {
    /// Whether node `v` was reached.
    pub fn reached(&self, v: NodeId) -> bool {
        self.dist[v] != usize::MAX
    }

    /// The largest finite distance.
    pub fn eccentricity(&self) -> usize {
        self.dist
            .iter()
            .copied()
            .filter(|&d| d != usize::MAX)
            .max()
            .unwrap_or(0)
    }
}

/// BFS from a single source.
///
/// # Panics
///
/// Panics if `src >= g.n()`.
///
/// # Examples
///
/// ```
/// use minex_graphs::{generators, traversal};
/// let g = generators::path(5);
/// let bfs = traversal::bfs(&g, 0);
/// assert_eq!(bfs.dist[4], 4);
/// ```
pub fn bfs(g: &Graph, src: NodeId) -> BfsResult {
    multi_source_bfs(g, &[src])
}

/// BFS from several sources simultaneously.
///
/// Each node is labelled with the source whose wavefront reaches it first,
/// which yields the concurrent-BFS *cell partition* of Section 2.3.3.
///
/// # Panics
///
/// Panics if any source is out of range or `sources` is empty while the graph
/// is non-empty (an empty graph with no sources is fine).
pub fn multi_source_bfs(g: &Graph, sources: &[NodeId]) -> BfsResult {
    let n = g.n();
    let mut dist = vec![usize::MAX; n];
    let mut parent = vec![None; n];
    let mut parent_edge = vec![None; n];
    let mut source_of = vec![usize::MAX; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = VecDeque::new();
    for (i, &s) in sources.iter().enumerate() {
        assert!(s < n, "source {s} out of range");
        if dist[s] == usize::MAX {
            dist[s] = 0;
            source_of[s] = i;
            queue.push_back(s);
            order.push(s);
        }
    }
    while let Some(v) = queue.pop_front() {
        // Walk the raw CSR row: the hot loop of every BFS in the workspace.
        for (&w, &e) in g.neighbor_targets(v).iter().zip(g.neighbor_edge_ids(v)) {
            let w = w as NodeId;
            if dist[w] == usize::MAX {
                dist[w] = dist[v] + 1;
                parent[w] = Some(v);
                parent_edge[w] = Some(e as usize);
                source_of[w] = source_of[v];
                queue.push_back(w);
                order.push(w);
            }
        }
    }
    BfsResult {
        dist,
        parent,
        parent_edge,
        source_of,
        order,
    }
}

/// Whether the graph is connected. Empty graphs count as connected.
pub fn is_connected(g: &Graph) -> bool {
    if g.n() == 0 {
        return true;
    }
    bfs(g, 0).order.len() == g.n()
}

/// Connected components: returns `(component_of, component_count)`.
pub fn components(g: &Graph) -> (Vec<usize>, usize) {
    let n = g.n();
    let mut comp = vec![usize::MAX; n];
    let mut count = 0;
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        let mut queue = VecDeque::from([start]);
        comp[start] = count;
        while let Some(v) = queue.pop_front() {
            for &w in g.neighbor_targets(v) {
                let w = w as NodeId;
                if comp[w] == usize::MAX {
                    comp[w] = count;
                    queue.push_back(w);
                }
            }
        }
        count += 1;
    }
    (comp, count)
}

/// Whether the node set `set` induces a connected subgraph of `g`.
///
/// An empty set is considered connected (matching the convention that parts
/// are non-empty anyway and keeping the check total).
pub fn is_connected_subset(g: &Graph, set: &[NodeId]) -> bool {
    if set.is_empty() {
        return true;
    }
    let mut member = vec![false; g.n()];
    let mut distinct = 0;
    for &v in set {
        assert!(v < g.n(), "node {v} out of range");
        if !member[v] {
            member[v] = true;
            distinct += 1;
        }
    }
    let mut seen = vec![false; g.n()];
    let mut queue = VecDeque::from([set[0]]);
    seen[set[0]] = true;
    let mut reached = 1;
    while let Some(v) = queue.pop_front() {
        for &w in g.neighbor_targets(v) {
            let w = w as NodeId;
            if member[w] && !seen[w] {
                seen[w] = true;
                reached += 1;
                queue.push_back(w);
            }
        }
    }
    reached == distinct
}

/// Exact diameter by running a BFS from every node. `O(n·m)` — fine up to a
/// few tens of thousands of edges; use [`diameter_double_sweep`] beyond that.
///
/// # Errors-like behaviour
///
/// Returns `None` for an empty or disconnected graph.
pub fn diameter_exact(g: &Graph) -> Option<usize> {
    if g.n() == 0 {
        return None;
    }
    let mut best = 0;
    for v in 0..g.n() {
        let r = bfs(g, v);
        if r.order.len() != g.n() {
            return None;
        }
        best = best.max(r.eccentricity());
    }
    Some(best)
}

/// Double-sweep lower bound on the diameter (exact on trees, and a very good
/// estimate on the mesh-like graphs used here). Returns `None` when the graph
/// is empty or disconnected.
pub fn diameter_double_sweep(g: &Graph) -> Option<usize> {
    if g.n() == 0 {
        return None;
    }
    let first = bfs(g, 0);
    if first.order.len() != g.n() {
        return None;
    }
    let far = *first.order.last().expect("non-empty BFS order");
    let second = bfs(g, far);
    Some(second.eccentricity())
}

/// The result of a sequential Dijkstra run: the weighted-distance reference
/// for every distributed SSSP tier in `minex-algo`.
#[derive(Debug, Clone)]
pub struct DijkstraResult {
    /// `dist[v]` is the weighted distance from the source, or
    /// [`UNREACHED`] (`u64::MAX`) if `v` is
    /// unreachable. Finite distances saturate at
    /// [`DIST_MAX`](crate::dist::DIST_MAX), one below the sentinel.
    pub dist: Vec<u64>,
    /// `parent[v]` is the shortest-path-tree parent, `None` for the source
    /// and unreachable nodes.
    pub parent: Vec<Option<NodeId>>,
}

impl DijkstraResult {
    /// Whether node `v` was reached.
    pub fn reached(&self, v: NodeId) -> bool {
        self.dist[v] != UNREACHED
    }
}

/// Sequential Dijkstra from `src` — the centralized correctness reference
/// for the distributed SSSP algorithms.
///
/// Runs the binary-heap implementation
/// [`reference::dijkstra_heap`](crate::reference::dijkstra_heap), which
/// lives in that module because lint rule D007 admits a binary heap in no
/// other file of the result-affecting crates. Weights may be zero; ties are
/// broken deterministically by node id (the heap pops the smallest
/// `(distance, node)` pair).
///
/// # Panics
///
/// Panics if `src >= g.n()`.
///
/// # Examples
///
/// ```
/// use minex_graphs::{traversal, Graph, WeightedGraph};
/// let g = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap();
/// // Edge ids are sorted by endpoints: (0,1)=0, (0,2)=1, (1,2)=2.
/// let wg = WeightedGraph::new(g, vec![1, 10, 2]);
/// let d = traversal::dijkstra(&wg, 0);
/// assert_eq!(d.dist, vec![0, 1, 3]);
/// assert_eq!(d.parent[2], Some(1));
/// ```
pub fn dijkstra(wg: &WeightedGraph, src: NodeId) -> DijkstraResult {
    crate::reference::dijkstra_heap(wg, src)
}

/// Single-source shortest path distances restricted to a subgraph given by an
/// edge mask: only edges `e` with `allowed[e] == true` may be traversed.
pub fn bfs_masked(g: &Graph, src: NodeId, allowed: &[bool]) -> Vec<usize> {
    assert_eq!(allowed.len(), g.m(), "edge mask length mismatch");
    let n = g.n();
    let mut dist = vec![usize::MAX; n];
    dist[src] = 0;
    let mut queue = VecDeque::from([src]);
    while let Some(v) = queue.pop_front() {
        for (&w, &e) in g.neighbor_targets(v).iter().zip(g.neighbor_edge_ids(v)) {
            let w = w as NodeId;
            if allowed[e as usize] && dist[w] == usize::MAX {
                dist[w] = dist[v] + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_on_path() {
        let g = generators::path(6);
        let r = bfs(&g, 0);
        assert_eq!(r.dist, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(r.parent[3], Some(2));
        assert!(r.reached(5));
    }

    #[test]
    fn bfs_unreachable() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let r = bfs(&g, 0);
        assert!(!r.reached(2));
        assert_eq!(r.dist[2], usize::MAX);
        assert_eq!(r.eccentricity(), 1);
    }

    #[test]
    fn multi_source_labels() {
        let g = generators::path(7);
        let r = multi_source_bfs(&g, &[0, 6]);
        assert_eq!(r.source_of[1], 0);
        assert_eq!(r.source_of[5], 1);
        // Middle node distance 3 from both; source 0 enqueued first wins.
        assert_eq!(r.dist[3], 3);
    }

    #[test]
    fn connectivity_checks() {
        assert!(is_connected(&generators::cycle(5)));
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(!is_connected(&g));
        let (comp, k) = components(&g);
        assert_eq!(k, 2);
        assert_eq!(comp[0], comp[1]);
        assert_ne!(comp[0], comp[2]);
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = Graph::from_edges(0, []).unwrap();
        assert!(is_connected(&g));
        assert_eq!(diameter_exact(&g), None);
    }

    #[test]
    fn connected_subset() {
        let g = generators::path(5);
        assert!(is_connected_subset(&g, &[1, 2, 3]));
        assert!(!is_connected_subset(&g, &[0, 2]));
        assert!(is_connected_subset(&g, &[]));
        assert!(is_connected_subset(&g, &[4]));
        // Repeated members count once.
        assert!(is_connected_subset(&g, &[3, 2, 3]));
        assert!(!is_connected_subset(&g, &[0, 0, 2]));
    }

    #[test]
    fn diameters() {
        let g = generators::path(10);
        assert_eq!(diameter_exact(&g), Some(9));
        assert_eq!(diameter_double_sweep(&g), Some(9));
        let c = generators::cycle(8);
        assert_eq!(diameter_exact(&c), Some(4));
        let disc = Graph::from_edges(3, [(0, 1)]).unwrap();
        assert_eq!(diameter_exact(&disc), None);
        assert_eq!(diameter_double_sweep(&disc), None);
    }

    #[test]
    fn dijkstra_on_weighted_cycle() {
        let g = generators::cycle(5);
        // Edges sorted: (0,1)=0, (0,4)=1, (1,2)=2, (2,3)=3, (3,4)=4.
        let wg = WeightedGraph::new(g, vec![1, 10, 1, 1, 1]);
        let r = dijkstra(&wg, 0);
        // Going the long way round (total 4) beats the weight-10 edge.
        assert_eq!(r.dist, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.parent[4], Some(3));
        assert_eq!(r.parent[0], None);
    }

    #[test]
    fn dijkstra_unreachable_and_unit_matches_bfs() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let wg = WeightedGraph::unit(g.clone());
        let r = dijkstra(&wg, 0);
        assert!(!r.reached(2));
        assert_eq!(r.dist[2], u64::MAX);
        assert_eq!(r.parent[2], None);
        let grid = generators::triangulated_grid(5, 6);
        let r2 = dijkstra(&WeightedGraph::unit(grid.clone()), 3);
        let b = bfs(&grid, 3);
        for v in 0..grid.n() {
            assert_eq!(r2.dist[v], b.dist[v] as u64);
        }
    }

    #[test]
    fn dijkstra_tree_edges_realize_distances() {
        let g = generators::triangulated_grid(4, 5);
        let weights: Vec<u64> = (0..g.m() as u64).map(|e| 1 + (e * 7) % 13).collect();
        let wg = WeightedGraph::new(g.clone(), weights);
        let r = dijkstra(&wg, 0);
        for v in 1..g.n() {
            let p = r.parent[v].expect("connected");
            let e = g.edge_between(p, v).expect("tree edge exists");
            assert_eq!(r.dist[p] + wg.weight(e), r.dist[v]);
        }
    }

    #[test]
    fn dijkstra_zero_weights_use_heap_fallback() {
        let g = generators::cycle(5);
        // Edges sorted: (0,1)=0, (0,4)=1, (1,2)=2, (2,3)=3, (3,4)=4.
        let wg = WeightedGraph::new(g, vec![1, 10, 0, 1, 1]);
        let r = dijkstra(&wg, 0);
        assert_eq!(r.dist, vec![0, 1, 1, 2, 3]);
        assert_eq!(r.parent[2], Some(1));
    }

    #[test]
    fn dijkstra_saturated_paths_stay_reached() {
        // Overflow-adjacent weights: the sum over the path saturates at
        // DIST_MAX (one below the UNREACHED sentinel), so node 2 is
        // reachable-with-huge-distance, not silently unreached.
        let g = generators::path(3);
        let wg = WeightedGraph::new(g, vec![u64::MAX / 2 + 10, u64::MAX / 2 + 10]);
        let r = dijkstra(&wg, 0);
        assert_eq!(r.dist[2], crate::dist::DIST_MAX);
        assert!(r.reached(2));
        assert_eq!(r.parent[2], Some(1));
    }

    #[test]
    fn masked_bfs_respects_mask() {
        let g = generators::cycle(6);
        // Forbid the edge between 0 and 5 (the wrap-around edge).
        let wrap = g.edge_between(0, 5).unwrap();
        let mut allowed = vec![true; g.m()];
        allowed[wrap] = false;
        let dist = bfs_masked(&g, 0, &allowed);
        assert_eq!(dist[5], 5);
    }
}
