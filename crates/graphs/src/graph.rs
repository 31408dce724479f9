//! Core graph representation.
//!
//! [`Graph`] is a simple, undirected, immutable graph over dense node ids
//! `0..n`. Edges carry dense ids `0..m` so that parallel structures (weights,
//! shortcut assignments, congestion counters) can be stored in flat vectors.
//!
//! # CSR layout
//!
//! Adjacency is stored in **compressed sparse row** form — three flat `u32`
//! arrays instead of one `Vec` per node:
//!
//! ```text
//! offsets:  [ 0 | 2 | 5 | ... | 2m ]          (n + 1 entries)
//! targets:  [ v v | v v v | ......... ]       (2m entries, sorted per node)
//! edge_ids: [ e e | e e e | ......... ]       (2m entries, aligned)
//! edges:    [ (u,v) (u,v) ... ]               (m entries, u < v, sorted)
//! ```
//!
//! Node `v`'s neighbors live in `targets[offsets[v]..offsets[v+1]]`, sorted
//! ascending, with the incident edge ids in the aligned `edge_ids` slice, so
//! [`neighbors`](Graph::neighbors), [`degree`](Graph::degree), and the raw
//! [`neighbor_targets`](Graph::neighbor_targets) /
//! [`neighbor_edge_ids`](Graph::neighbor_edge_ids) slice accessors are
//! allocation-free pointer walks. Edge ids are the lexicographic rank of the
//! canonical `(u, v)` pair (`u < v`), which keeps every id stable across
//! construction paths.
//!
//! The whole structure costs `24m + 4n + O(1)` heap bytes (`≈ 24` bytes per
//! edge on mesh-like graphs) versus `≥ 48m + 24n` for the nested-`Vec`
//! representation it replaced (kept as [`crate::reference::AdjListGraph`]
//! for differential testing). The `u32` ids bound graphs at `n < 2³²` nodes
//! and `m ≤ 2³¹` edges (~4.2 billion directed adjacency entries); both
//! limits are asserted at construction.
//!
//! Graphs are built through [`GraphBuilder`], which validates input
//! (self-loops rejected, duplicate edges deduplicated) so that every
//! constructed [`Graph`] upholds its invariants for its whole lifetime.
//! Million-node generators can skip the intermediate edge list entirely via
//! the two-pass streaming constructors
//! [`Graph::from_sorted_edge_stream`] / [`Graph::from_edge_stream`].

use std::error::Error;
use std::fmt;

/// Dense node identifier in `0..n`.
pub type NodeId = usize;
/// Dense edge identifier in `0..m`.
pub type EdgeId = usize;

/// Largest supported node count: node ids are stored as `u32`.
pub const MAX_NODES: usize = u32::MAX as usize;
/// Largest supported edge count: CSR offsets address `2m` `u32` entries.
pub const MAX_EDGES: usize = (u32::MAX / 2) as usize;

/// Error produced when constructing or combining graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint was `>= n`.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// The number of nodes in the graph under construction.
        n: usize,
    },
    /// A self-loop `(v, v)` was supplied; the CONGEST model ignores these.
    SelfLoop(NodeId),
    /// A streaming constructor received the same undirected edge twice
    /// (the buffered [`GraphBuilder`] path deduplicates instead).
    DuplicateEdge {
        /// Lower endpoint of the duplicated edge.
        u: NodeId,
        /// Higher endpoint of the duplicated edge.
        v: NodeId,
    },
    /// An operation required a non-empty graph.
    Empty,
    /// A constructor was asked for more than [`MAX_NODES`] nodes.
    TooManyNodes {
        /// The node-count limit.
        limit: usize,
    },
    /// A mutation would push the edge count past the `u32` CSR capacity
    /// ([`MAX_EDGES`]) or a configured lower cap.
    TooManyEdges {
        /// The edge-count limit that would have been exceeded.
        limit: usize,
    },
    /// A deletion named an edge `{u, v}` that does not exist (or no longer
    /// exists) in the graph.
    EdgeNotFound {
        /// One endpoint as supplied.
        u: NodeId,
        /// The other endpoint as supplied.
        v: NodeId,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for graph with {n} nodes")
            }
            GraphError::SelfLoop(v) => write!(f, "self-loop at node {v} is not allowed"),
            GraphError::DuplicateEdge { u, v } => {
                write!(f, "edge {{{u}, {v}}} was streamed twice")
            }
            GraphError::Empty => write!(f, "graph must be non-empty"),
            GraphError::TooManyNodes { limit } => {
                write!(f, "node count exceeds the limit of {limit} nodes")
            }
            GraphError::TooManyEdges { limit } => {
                write!(f, "edge count would exceed the limit of {limit} edges")
            }
            GraphError::EdgeNotFound { u, v } => {
                write!(f, "edge {{{u}, {v}}} does not exist")
            }
        }
    }
}

impl Error for GraphError {}

/// An immutable, simple, undirected graph in CSR (compressed sparse row)
/// form — see the [crate docs](crate) for the memory layout.
///
/// # Examples
///
/// ```
/// use minex_graphs::{Graph, GraphBuilder};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1)?;
/// b.add_edge(1, 2)?;
/// let g: Graph = b.build();
/// assert_eq!(g.n(), 3);
/// assert_eq!(g.m(), 2);
/// assert!(g.has_edge(0, 1));
/// assert!(!g.has_edge(0, 2));
/// // Allocation-free slice access to node 1's row:
/// assert_eq!(g.neighbor_targets(1), &[0, 2]);
/// assert_eq!(g.neighbor_edge_ids(1), &[0, 1]);
/// # Ok::<(), minex_graphs::GraphError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// CSR row starts: node `v`'s adjacency occupies
    /// `targets[offsets[v] as usize .. offsets[v+1] as usize]`.
    offsets: Vec<u32>,
    /// Flattened neighbor lists, sorted ascending within each node's row.
    targets: Vec<u32>,
    /// Incident edge ids, aligned with `targets`.
    edge_ids: Vec<u32>,
    /// `edges[e] = (u, v)` with `u < v`, sorted lexicographically (edge ids
    /// are exactly the ranks in this order).
    edges: Vec<(u32, u32)>,
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.n())
            .field("m", &self.m())
            .finish()
    }
}

/// Validates one endpoint pair, returning the canonical `(min, max)` form.
#[inline]
pub(crate) fn canonical(u: NodeId, v: NodeId, n: usize) -> Result<(u32, u32), GraphError> {
    if u == v {
        return Err(GraphError::SelfLoop(u));
    }
    for w in [u, v] {
        if w >= n {
            return Err(GraphError::NodeOutOfRange { node: w, n });
        }
    }
    Ok((u.min(v) as u32, u.max(v) as u32))
}

/// Rejects a node count past [`MAX_NODES`] before a constructor allocates
/// its `n + 1` row offsets.
fn check_nodes(n: usize) -> Result<(), GraphError> {
    if n > MAX_NODES {
        return Err(GraphError::TooManyNodes { limit: MAX_NODES });
    }
    Ok(())
}

/// Asserts the `u32` capacity limits documented on [`MAX_NODES`] /
/// [`MAX_EDGES`].
fn assert_capacity(n: usize, m: usize) {
    assert!(n <= MAX_NODES, "graph node count {n} exceeds u32 ids");
    assert!(
        m <= MAX_EDGES,
        "graph edge count {m} exceeds the 2^31 CSR limit"
    );
}

impl Graph {
    /// Builds a graph with `n` nodes from an edge list, deduplicating
    /// duplicates and canonicalizing endpoint order.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] or [`GraphError::SelfLoop`]
    /// when the edge list is invalid, and [`GraphError::TooManyNodes`] when
    /// `n > MAX_NODES`.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        check_nodes(n)?;
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u, v)?;
        }
        Ok(b.build())
    }

    /// Assembles the CSR arrays from a canonical edge list that is already
    /// **sorted and deduplicated**. This is the single point every
    /// construction path funnels through.
    ///
    /// One scatter pass in lexicographic edge order yields per-node rows
    /// that are already sorted: node `w`'s row receives first the edges
    /// `(u, w)` with `u < w` (ascending `u`, because the list is sorted by
    /// first endpoint), then the edges `(w, v)` (ascending `v`) — and every
    /// `(·, w)` pair precedes every `(w, ·)` pair in the lexicographic
    /// order.
    fn from_canonical_sorted(n: usize, edges: Vec<(u32, u32)>) -> Self {
        let m = edges.len();
        assert_capacity(n, m);
        let mut offsets = vec![0u32; n + 1];
        for &(u, v) in &edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut targets = vec![0u32; 2 * m];
        let mut edge_ids = vec![0u32; 2 * m];
        let mut cursor = offsets.clone();
        for (e, &(u, v)) in edges.iter().enumerate() {
            let cu = cursor[u as usize] as usize;
            targets[cu] = v;
            edge_ids[cu] = e as u32;
            cursor[u as usize] += 1;
            let cv = cursor[v as usize] as usize;
            targets[cv] = u;
            edge_ids[cv] = e as u32;
            cursor[v as usize] += 1;
        }
        Graph {
            offsets,
            targets,
            edge_ids,
            edges,
        }
    }

    /// Builds directly into CSR from a **restartable** stream of canonical
    /// edges in strictly increasing lexicographic order (`u < v`, pairs
    /// strictly ascending). The stream is consumed twice — once to count
    /// degrees, once to fill the arrays — so no intermediate edge list is
    /// ever materialized beyond the graph's own storage.
    ///
    /// This is the fast path for the deterministic large-`n` generators
    /// (grids, triangulated grids, combs): peak memory is the final graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] / [`GraphError::NodeOutOfRange`] for
    /// invalid endpoints, [`GraphError::DuplicateEdge`] if a pair repeats,
    /// and [`GraphError::TooManyNodes`] when `n > MAX_NODES`.
    ///
    /// # Panics
    ///
    /// Panics if the stream is not sorted, or if the two passes disagree.
    pub fn from_sorted_edge_stream<I, F>(n: usize, stream: F) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
        F: Fn() -> I,
    {
        check_nodes(n)?;
        // Pass 1: validate, count degrees and edges.
        let mut offsets = vec![0u32; n + 1];
        let mut m = 0usize;
        let mut prev: Option<(u32, u32)> = None;
        for (u, v) in stream() {
            let (cu, cv) = canonical(u, v, n)?;
            // Canonical order is part of the sortedness contract.
            assert!(
                u < v,
                "stream edge ({u}, {v}) is not in canonical u < v form"
            );
            match prev {
                Some(p) if p == (cu, cv) => {
                    return Err(GraphError::DuplicateEdge {
                        u: cu as NodeId,
                        v: cv as NodeId,
                    })
                }
                Some(p) => assert!(
                    p < (cu, cv),
                    "stream must be strictly increasing: ({}, {}) after ({}, {})",
                    cu,
                    cv,
                    p.0,
                    p.1
                ),
                None => {}
            }
            prev = Some((cu, cv));
            offsets[cu as usize + 1] += 1;
            offsets[cv as usize + 1] += 1;
            m += 1;
        }
        assert_capacity(n, m);
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // Pass 2: scatter (sortedness per row follows exactly as in
        // `from_canonical_sorted`).
        let mut targets = vec![0u32; 2 * m];
        let mut edge_ids = vec![0u32; 2 * m];
        let mut edges = Vec::with_capacity(m);
        let mut cursor = offsets.clone();
        for (u, v) in stream() {
            let (u, v) = (u as u32, v as u32);
            let e = edges.len();
            assert!(e < m, "stream yielded more edges on the second pass");
            edges.push((u, v));
            let cu = cursor[u as usize] as usize;
            targets[cu] = v;
            edge_ids[cu] = e as u32;
            cursor[u as usize] += 1;
            let cv = cursor[v as usize] as usize;
            targets[cv] = u;
            edge_ids[cv] = e as u32;
            cursor[v as usize] += 1;
        }
        assert_eq!(edges.len(), m, "stream yielded fewer edges on pass two");
        Ok(Graph {
            offsets,
            targets,
            edge_ids,
            edges,
        })
    }

    /// Builds directly into CSR from a **restartable** stream of unique
    /// edges in *any* order (endpoints need not be canonical). Two counting
    /// passes plus one per-row sort replace the intermediate edge list;
    /// edge ids still come out as the lexicographic rank of the canonical
    /// pair, identical to every other construction path.
    ///
    /// This is the fast path for generators whose natural emission order is
    /// not sorted (e.g. random k-trees, whose attachment edges `(u, v)` run
    /// backwards in `u`).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] / [`GraphError::NodeOutOfRange`] for
    /// invalid endpoints, [`GraphError::DuplicateEdge`] if the same
    /// undirected edge appears twice, and [`GraphError::TooManyNodes`] when
    /// `n > MAX_NODES`.
    ///
    /// # Panics
    ///
    /// Panics if the two passes disagree on the edge multiset.
    pub fn from_edge_stream<I, F>(n: usize, stream: F) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
        F: Fn() -> I,
    {
        check_nodes(n)?;
        // Pass 1: validate, count degrees and edges.
        let mut offsets = vec![0u32; n + 1];
        let mut m = 0usize;
        for (u, v) in stream() {
            let (cu, cv) = canonical(u, v, n)?;
            offsets[cu as usize + 1] += 1;
            offsets[cv as usize + 1] += 1;
            m += 1;
        }
        assert_capacity(n, m);
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // Pass 2: scatter neighbors only (ids are unknown until sorted).
        let mut targets = vec![0u32; 2 * m];
        let mut cursor = offsets.clone();
        let mut seen = 0usize;
        for (u, v) in stream() {
            let (cu, cv) = canonical(u, v, n).expect("pass one validated this edge");
            seen += 1;
            assert!(seen <= m, "stream yielded more edges on the second pass");
            let pu = cursor[cu as usize] as usize;
            targets[pu] = cv;
            cursor[cu as usize] += 1;
            let pv = cursor[cv as usize] as usize;
            targets[pv] = cu;
            cursor[cv as usize] += 1;
        }
        assert_eq!(seen, m, "stream yielded fewer edges on pass two");
        // Sort each row; a duplicate edge shows up as equal adjacent targets.
        let mut lower = vec![0u32; n];
        for v in 0..n {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            let row = &mut targets[lo..hi];
            row.sort_unstable();
            if let Some(w) = row.windows(2).find(|w| w[0] == w[1]) {
                let (a, b) = (v.min(w[0] as usize), v.max(w[0] as usize));
                return Err(GraphError::DuplicateEdge { u: a, v: b });
            }
            lower[v] = row.partition_point(|&t| (t as usize) < v) as u32;
        }
        // Edge ids are lexicographic ranks: node u owns the id range
        // `base[u] ..` for its higher neighbors, in ascending target order.
        let mut base = vec![0u32; n + 1];
        for v in 0..n {
            let hi_deg = (offsets[v + 1] - offsets[v]) - lower[v];
            base[v + 1] = base[v] + hi_deg;
        }
        let mut edge_ids = vec![0u32; 2 * m];
        let mut edges = vec![(0u32, 0u32); m];
        for v in 0..n {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            let split = lo + lower[v] as usize;
            // Higher neighbors: ids are consecutive from base[v].
            for (rank, i) in (split..hi).enumerate() {
                let e = base[v] + rank as u32;
                edge_ids[i] = e;
                edges[e as usize] = (v as u32, targets[i]);
            }
            // Lower neighbors: locate this node in the neighbor's row.
            for i in lo..split {
                let w = targets[i] as usize;
                let (wlo, whi) = (offsets[w] as usize, offsets[w + 1] as usize);
                let wsplit = wlo + lower[w] as usize;
                let rank = targets[wsplit..whi]
                    .binary_search(&(v as u32))
                    .expect("symmetric entry exists");
                edge_ids[i] = base[w] + rank as u32;
            }
        }
        Ok(Graph {
            offsets,
            targets,
            edge_ids,
            edges,
        })
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// The neighbors of `v` as a raw sorted `u32` slice — the zero-cost CSR
    /// row, aligned with [`neighbor_edge_ids`](Self::neighbor_edge_ids).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn neighbor_targets(&self, v: NodeId) -> &[u32] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// The edge ids incident to `v`, aligned with
    /// [`neighbor_targets`](Self::neighbor_targets).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn neighbor_edge_ids(&self, v: NodeId) -> &[u32] {
        &self.edge_ids[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Iterates over `(neighbor, edge id)` pairs of `v`, sorted by neighbor.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        self.neighbor_targets(v)
            .iter()
            .zip(self.neighbor_edge_ids(v))
            .map(|(&w, &e)| (w as NodeId, e as EdgeId))
    }

    /// The endpoints `(u, v)` of edge `e`, with `u < v`.
    ///
    /// # Panics
    ///
    /// Panics if `e >= m`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let (u, v) = self.edges[e];
        (u as NodeId, v as NodeId)
    }

    /// Given edge `e` incident to `v`, returns the other endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `e >= m` or `v` is not an endpoint of `e`.
    #[inline]
    pub fn other_endpoint(&self, e: EdgeId, v: NodeId) -> NodeId {
        let (a, b) = self.endpoints(e);
        if v == a {
            b
        } else {
            assert_eq!(v, b, "node {v} is not an endpoint of edge {e}");
            a
        }
    }

    /// Returns the edge id between `u` and `v`, if any.
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        if u >= self.n() || v >= self.n() {
            return None;
        }
        // Search from the lower-degree endpoint.
        let (from, to) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbor_targets(from)
            .binary_search(&(to as u32))
            .ok()
            .map(|i| self.neighbor_edge_ids(from)[i] as EdgeId)
    }

    /// Whether an edge `{u, v}` exists.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_between(u, v).is_some()
    }

    /// Iterates over all edges as `(edge id, u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(e, &(u, v))| (e, u as NodeId, v as NodeId))
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.n()
    }

    /// The subgraph induced by `keep`, together with the mapping from old
    /// node ids to new node ids (dense, in increasing old-id order).
    ///
    /// Nodes not in `keep` and edges with an endpoint outside `keep` are
    /// dropped. `keep` may contain duplicates; they are ignored.
    ///
    /// The node map is monotone, so the surviving canonical edges stay in
    /// lexicographic order and the CSR arrays are assembled in one pass —
    /// no re-sort, no intermediate builder.
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> (Graph, Vec<Option<NodeId>>) {
        let mut map: Vec<Option<NodeId>> = vec![None; self.n()];
        let mut sorted: Vec<NodeId> = keep.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for (next, &v) in sorted.iter().enumerate() {
            assert!(v < self.n(), "node {v} out of range");
            map[v] = Some(next);
        }
        let edges: Vec<(u32, u32)> = self
            .edges
            .iter()
            .filter_map(|&(u, v)| match (map[u as usize], map[v as usize]) {
                (Some(nu), Some(nv)) => Some((nu as u32, nv as u32)),
                _ => None,
            })
            .collect();
        (Graph::from_canonical_sorted(sorted.len(), edges), map)
    }

    /// Total degree sum (`2m`).
    pub fn degree_sum(&self) -> usize {
        2 * self.m()
    }

    /// Heap bytes held by the CSR arrays (`4(n+1) + 24m`): the number the
    /// E15 scale experiment reports as "graph memory". Capacity slack is
    /// excluded — every array is built exactly-sized.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * 4
            + self.targets.len() * 4
            + self.edge_ids.len() * 4
            + self.edges.len() * 8
    }
}

/// Incremental builder for [`Graph`].
///
/// Duplicate edges are silently deduplicated at [`build`](Self::build) time,
/// which keeps generator code simple (grids and clique-sums naturally try to
/// add the same edge twice). The duplicate-heavy worst case is a single
/// `sort_unstable + dedup` over the buffered pairs — `O(m log m)` time and
/// 8 bytes per buffered pair, regardless of how skewed the duplication is —
/// followed by the linear counting-sort CSR assembly.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    /// Buffered edges, canonicalized to `(min, max)` on insertion.
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Creates a builder expecting about `m` edges, reserving the buffer up
    /// front so large generators do not pay for repeated regrowth.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Grows the node count to at least `n`.
    pub fn ensure_nodes(&mut self, n: usize) {
        self.n = self.n.max(n);
    }

    /// Adds a fresh node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.n += 1;
        self.n - 1
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] if `u == v` and
    /// [`GraphError::NodeOutOfRange`] if an endpoint is `>= n`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        self.edges.push(canonical(u, v, self.n)?);
        Ok(())
    }

    /// Finalizes the builder into an immutable [`Graph`].
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        Graph::from_canonical_sorted(self.n, self.edges)
    }
}

/// An undirected graph with `u64` edge weights.
///
/// # Examples
///
/// ```
/// use minex_graphs::{Graph, WeightedGraph};
///
/// let g = Graph::from_edges(3, [(0, 1), (1, 2)])?;
/// let wg = WeightedGraph::new(g, vec![5, 7]);
/// assert_eq!(wg.weight(0), 5);
/// assert_eq!(wg.total_weight(), 12);
/// # Ok::<(), minex_graphs::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedGraph {
    graph: Graph,
    weights: Vec<u64>,
}

impl WeightedGraph {
    /// Wraps `graph` with per-edge `weights`.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != graph.m()`.
    pub fn new(graph: Graph, weights: Vec<u64>) -> Self {
        assert_eq!(
            weights.len(),
            graph.m(),
            "weight vector length must equal edge count"
        );
        WeightedGraph { graph, weights }
    }

    /// Wraps `graph` with all weights equal to 1.
    pub fn unit(graph: Graph) -> Self {
        let m = graph.m();
        WeightedGraph {
            graph,
            weights: vec![1; m],
        }
    }

    /// The underlying unweighted graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Weight of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e >= m`.
    #[inline]
    pub fn weight(&self, e: EdgeId) -> u64 {
        self.weights[e]
    }

    /// All weights, indexed by edge id.
    #[inline]
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// Sum of all edge weights, saturating at `u64::MAX` (the total is used
    /// as an a-priori distance bound, so clamping is the right overflow
    /// behaviour on overflow-adjacent weight sets).
    pub fn total_weight(&self) -> u64 {
        self.weights
            .iter()
            .fold(0u64, |acc, &w| acc.saturating_add(w))
    }

    /// Consumes the pair back into `(graph, weights)`.
    pub fn into_parts(self) -> (Graph, Vec<u64>) {
        (self.graph, self.weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, []).unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn single_node() {
        let g = Graph::from_edges(1, []).unwrap();
        assert_eq!(g.n(), 1);
        assert_eq!(g.degree(0), 0);
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(Graph::from_edges(2, [(1, 1)]), Err(GraphError::SelfLoop(1)));
    }

    #[test]
    fn rejects_out_of_range() {
        assert_eq!(
            Graph::from_edges(2, [(0, 5)]),
            Err(GraphError::NodeOutOfRange { node: 5, n: 2 })
        );
    }

    #[test]
    fn deduplicates_parallel_edges() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 1), (1, 2)]).unwrap();
        assert_eq!(g.m(), 2);
        assert_eq!(g.degree(1), 2);
    }

    /// The dedup-path regression: a pathological duplicate blow-up (every
    /// edge of a small cycle added thousands of times, in alternating
    /// endpoint orders) must collapse to the simple graph in one
    /// `O(m log m)` sort+dedup — no quadratic scan, no duplicate survivors.
    #[test]
    fn duplicate_blowup_collapses() {
        let cycle = 64usize;
        let mut b = GraphBuilder::with_capacity(cycle, cycle * 2_000);
        for rep in 0..2_000 {
            for i in 0..cycle {
                let (u, v) = (i, (i + 1) % cycle);
                // Alternate endpoint order so canonicalization is exercised.
                if rep % 2 == 0 {
                    b.add_edge(u, v).unwrap();
                } else {
                    b.add_edge(v, u).unwrap();
                }
            }
        }
        let g = b.build();
        assert_eq!(g.n(), cycle);
        assert_eq!(g.m(), cycle);
        assert!(g.nodes().all(|v| g.degree(v) == 2));
        // Edge ids stay the lexicographic ranks of the deduped list.
        assert_eq!(g.endpoints(0), (0, 1));
        assert_eq!(g.endpoints(1), (0, 63));
        assert_eq!(g.endpoints(cycle - 1), (62, 63));
    }

    #[test]
    fn endpoints_are_canonical() {
        let g = Graph::from_edges(3, [(2, 0)]).unwrap();
        assert_eq!(g.endpoints(0), (0, 2));
        assert_eq!(g.other_endpoint(0, 0), 2);
        assert_eq!(g.other_endpoint(0, 2), 0);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_endpoint_panics_for_non_endpoint() {
        let g = Graph::from_edges(3, [(0, 2)]).unwrap();
        g.other_endpoint(0, 1);
    }

    #[test]
    fn edge_between_finds_edges_both_ways() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(g.edge_between(2, 1), Some(1));
        assert_eq!(g.edge_between(1, 2), Some(1));
        assert_eq!(g.edge_between(0, 3), None);
        assert_eq!(g.edge_between(0, 99), None);
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::from_edges(5, [(2, 4), (2, 0), (2, 3), (2, 1)]).unwrap();
        let ns: Vec<NodeId> = g.neighbors(2).map(|(v, _)| v).collect();
        assert_eq!(ns, vec![0, 1, 3, 4]);
        assert_eq!(g.neighbor_targets(2), &[0, 1, 3, 4]);
        assert_eq!(g.neighbor_edge_ids(2).len(), 4);
    }

    #[test]
    fn csr_rows_match_iterator_everywhere() {
        let g = Graph::from_edges(
            7,
            [
                (0, 1),
                (0, 6),
                (1, 2),
                (2, 6),
                (3, 4),
                (4, 5),
                (5, 6),
                (1, 5),
            ],
        )
        .unwrap();
        for v in g.nodes() {
            let from_iter: Vec<(NodeId, EdgeId)> = g.neighbors(v).collect();
            let from_slices: Vec<(NodeId, EdgeId)> = g
                .neighbor_targets(v)
                .iter()
                .zip(g.neighbor_edge_ids(v))
                .map(|(&w, &e)| (w as NodeId, e as EdgeId))
                .collect();
            assert_eq!(from_iter, from_slices);
            assert_eq!(g.degree(v), from_iter.len());
            // Rows are sorted and consistent with `endpoints`.
            for (w, e) in from_iter {
                assert_eq!(g.other_endpoint(e, v), w);
            }
        }
    }

    #[test]
    fn sorted_stream_matches_builder() {
        let edges = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)];
        let a = Graph::from_sorted_edge_stream(5, || edges.iter().copied()).unwrap();
        let b = Graph::from_edges(5, edges).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sorted_stream_rejects_duplicates() {
        let edges = [(0, 1), (0, 1)];
        assert_eq!(
            Graph::from_sorted_edge_stream(2, || edges.iter().copied()),
            Err(GraphError::DuplicateEdge { u: 0, v: 1 })
        );
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn sorted_stream_rejects_disorder() {
        let edges = [(1, 2), (0, 1)];
        let _ = Graph::from_sorted_edge_stream(3, || edges.iter().copied());
    }

    #[test]
    fn unsorted_stream_matches_builder() {
        // Backwards, interleaved, non-canonical endpoint order.
        let edges = [(4, 3), (3, 1), (2, 0), (3, 2), (1, 0), (4, 0)];
        let a = Graph::from_edge_stream(5, || edges.iter().copied()).unwrap();
        let b = Graph::from_edges(5, edges).unwrap();
        assert_eq!(a, b);
        // Edge ids are lexicographic ranks on both paths.
        assert_eq!(a.endpoints(0), (0, 1));
        assert_eq!(a.endpoints(5), (3, 4));
    }

    #[test]
    fn unsorted_stream_rejects_duplicates_and_loops() {
        let dup = [(0, 1), (2, 1), (1, 0)];
        assert_eq!(
            Graph::from_edge_stream(3, || dup.iter().copied()),
            Err(GraphError::DuplicateEdge { u: 0, v: 1 })
        );
        let looped = [(0, 1), (2, 2)];
        assert_eq!(
            Graph::from_edge_stream(3, || looped.iter().copied()),
            Err(GraphError::SelfLoop(2))
        );
    }

    #[test]
    fn induced_subgraph_maps_ids() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]).unwrap();
        let (sub, map) = g.induced_subgraph(&[1, 3, 4]);
        assert_eq!(sub.n(), 3);
        // Edges kept: (1,3) -> (0,1), (3,4) -> (1,2).
        assert_eq!(sub.m(), 2);
        assert_eq!(map[1], Some(0));
        assert_eq!(map[3], Some(1));
        assert_eq!(map[4], Some(2));
        assert_eq!(map[0], None);
        assert!(sub.has_edge(0, 1));
        assert!(sub.has_edge(1, 2));
        assert!(!sub.has_edge(0, 2));
    }

    #[test]
    fn induced_subgraph_ignores_duplicates() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let (sub, _) = g.induced_subgraph(&[0, 1, 1, 0]);
        assert_eq!(sub.n(), 2);
        assert_eq!(sub.m(), 1);
    }

    #[test]
    fn builder_add_node() {
        let mut b = GraphBuilder::new(1);
        let v = b.add_node();
        assert_eq!(v, 1);
        b.add_edge(0, 1).unwrap();
        let g = b.build();
        assert_eq!(g.n(), 2);
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn heap_bytes_tracks_csr_arrays() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        // 4·(n+1) offsets + 4·2m targets + 4·2m edge ids + 8·m endpoints.
        assert_eq!(g.heap_bytes(), 4 * 5 + 4 * 6 + 4 * 6 + 8 * 3);
    }

    #[test]
    fn weighted_graph_basics() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let wg = WeightedGraph::new(g.clone(), vec![3, 9]);
        assert_eq!(wg.weight(1), 9);
        assert_eq!(wg.total_weight(), 12);
        let unit = WeightedGraph::unit(g);
        assert_eq!(unit.total_weight(), 2);
    }

    #[test]
    #[should_panic(expected = "weight vector length")]
    fn weighted_graph_length_mismatch_panics() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let _ = WeightedGraph::new(g, vec![1]);
    }

    #[test]
    fn node_counts_past_max_nodes_are_errors_before_any_allocation() {
        // 2^40 nodes would ask for 4 TiB of row offsets and abort.
        let too_many = Err(GraphError::TooManyNodes { limit: MAX_NODES });
        for n in [MAX_NODES + 1, 1 << 40, usize::MAX] {
            assert_eq!(Graph::from_edges(n, []), too_many);
            assert_eq!(Graph::from_sorted_edge_stream(n, || []), too_many);
            assert_eq!(Graph::from_edge_stream(n, || []), too_many);
        }
        assert_eq!(
            GraphError::TooManyNodes { limit: 9 }.to_string(),
            "node count exceeds the limit of 9 nodes"
        );
    }

    #[test]
    fn error_display() {
        assert_eq!(
            GraphError::SelfLoop(3).to_string(),
            "self-loop at node 3 is not allowed"
        );
        assert_eq!(
            GraphError::NodeOutOfRange { node: 9, n: 4 }.to_string(),
            "node 9 out of range for graph with 4 nodes"
        );
        assert_eq!(
            GraphError::DuplicateEdge { u: 1, v: 2 }.to_string(),
            "edge {1, 2} was streamed twice"
        );
        assert_eq!(
            GraphError::TooManyEdges { limit: 7 }.to_string(),
            "edge count would exceed the limit of 7 edges"
        );
        assert_eq!(
            GraphError::EdgeNotFound { u: 4, v: 0 }.to_string(),
            "edge {4, 0} does not exist"
        );
    }
}
