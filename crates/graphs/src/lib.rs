//! # minex-graphs
//!
//! Graph substrate for the `minex` reproduction of *“Minor Excluded Network
//! Families Admit Fast Distributed Algorithms”* (Haeupler, Li, Zuzic;
//! PODC 2018).
//!
//! The crate provides:
//!
//! * [`Graph`] / [`WeightedGraph`] — immutable simple graphs with dense node
//!   and edge ids, stored in flat CSR arrays (`u32` offsets/targets/edge
//!   ids, ≈24 bytes per edge) so million-node instances stay cache-resident;
//! * [`DeltaGraph`] / [`EdgeMutation`] — a staging set for edge churn: a
//!   tombstone bitmap over base edge ids plus a sorted buffer of inserted
//!   pairs, checked mutation by mutation and merged into a fresh CSR
//!   [`Graph`] by [`DeltaGraph::snapshot`];
//! * [`mod@reference`] — the pre-CSR nested-`Vec` adjacency list, kept as a
//!   differential-testing and benchmarking baseline, and the binary-heap
//!   Dijkstra behind [`traversal::dijkstra`];
//! * [`mod@dist`] — the workspace-wide `u64` distance sentinel contract
//!   ([`dist::UNREACHED`] is the only "no path" value; finite math
//!   saturates at [`dist::DIST_MAX`]);
//! * [`generators`] — every graph family the paper names (planar, bounded
//!   genus, apex, vortex, clique-sums, series-parallel, k-trees, the
//!   `Ω̃(√n)` lower-bound family), each emitting a structure witness;
//! * [`embedding`] — rotation systems and straight-line lattice embeddings,
//!   with face tracing and Euler-genus computation;
//! * [`geometry`] — exact integer polygon primitives for the Lemma 7
//!   combinatorial-gate construction;
//! * [`ParentTree`] — one layout of a rooted tree given by parent pointers
//!   (children, depths, a DFS pre-order with contiguous subtrees, subtree
//!   sizes, LCA), shared by spanning, decomposition and packed trees;
//! * [`traversal`], [`UnionFind`], [`minor`], [`weights`] — supporting
//!   algorithms.
//!
//! ## Example
//!
//! ```
//! use minex_graphs::{generators, traversal};
//!
//! let g = generators::triangulated_grid(8, 8);
//! assert!(traversal::is_connected(&g));
//! let d = traversal::diameter_exact(&g).expect("connected");
//! assert!(d <= 14);
//! ```
//!
//! ## CSR access
//!
//! Adjacency is compressed sparse row: a node's neighbors and incident edge
//! ids are two aligned `u32` slices, so hot loops walk raw memory instead
//! of chasing per-node `Vec`s. The iterator API sits on top of the same
//! slices.
//!
//! ```text
//! offsets:  [ 0 | 2 | 5 | ... | 2m ]      (n + 1 row starts)
//! targets:  [ v v | v v v | ...... ]      (2m entries, sorted per row)
//! edge_ids: [ e e | e e e | ...... ]      (2m entries, aligned)
//! edges:    [ (u,v) (u,v) ........ ]      (m canonical pairs, u < v, sorted)
//! ```
//!
//! The whole graph costs `24m + 4n + O(1)` heap bytes (≈ 24 bytes/edge on
//! meshes); `u32` ids cap instances at `n < 2³²` nodes, `m ≤ 2³¹` edges.
//! Edge ids are the lexicographic rank of the canonical endpoint pair, on
//! every construction path.
//!
//! ```
//! use minex_graphs::{Graph, NodeId};
//!
//! let g = Graph::from_edges(4, [(0, 1), (0, 2), (2, 3)])?;
//! // Zero-allocation slice access…
//! assert_eq!(g.neighbor_targets(0), &[1, 2]);
//! assert_eq!(g.neighbor_edge_ids(0), &[0, 1]);
//! // …agrees with the iterator view.
//! let via_iter: Vec<NodeId> = g.neighbors(0).map(|(w, _)| w).collect();
//! assert_eq!(via_iter, vec![1, 2]);
//! // Edge ids are the lexicographic rank of the canonical endpoint pair.
//! assert_eq!(g.endpoints(2), (2, 3));
//! assert_eq!(g.heap_bytes(), 4 * 5 + 4 * 6 + 4 * 6 + 8 * 3);
//! # Ok::<(), minex_graphs::GraphError>(())
//! ```
//!
//! Large generators build through [`Graph::from_edge_stream`]: two passes
//! over a restartable edge stream in any order, collecting the canonical
//! pairs into the graph's own `edges` array, so peak memory is the final
//! graph's. Deterministic families (grids, combs) emit sorted streams,
//! whose sort is one linear pass; RNG-driven ones (k-trees) need not.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod delta;
pub mod dist;
pub mod embedding;
pub mod generators;
pub mod geometry;
mod graph;
pub mod minor;
pub mod reference;
pub mod traversal;
mod tree;
mod union_find;
pub mod weights;

pub use delta::{DeltaGraph, EdgeMutation};
pub use graph::{
    EdgeId, Graph, GraphBuilder, GraphError, NodeId, WeightedGraph, MAX_EDGES, MAX_NODES,
};
pub use tree::{ParentTree, TreeError};
pub use union_find::UnionFind;
pub use weights::WeightModel;
