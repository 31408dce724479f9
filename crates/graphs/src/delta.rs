//! [`DeltaGraph`]: a staging set of edge mutations over a frozen CSR
//! [`Graph`].
//!
//! The CSR core is immutable by design — edge ids are lexicographic ranks
//! and every array is packed — so edge churn cannot be applied in place.
//! `DeltaGraph` stages mutations against a frozen base instead and builds
//! the mutated graph once, at [`snapshot`](DeltaGraph::snapshot):
//!
//! ```text
//!   base edges      (0,1) (0,3) (1,2) (1,3) (2,3)
//!   tombstones        ·     ·     ✗     ·     ·    ← delete {1,2}
//!   insert buffer   (0,2)                          ← insert {0,2}
//!                   └──── one sorted merge ─────┘
//!   snapshot()      (0,1) (0,2) (0,3) (1,3) (2,3)
//! ```
//!
//! * [`delete_edge`](DeltaGraph::delete_edge) sets one bit in a tombstone
//!   bitmap over base edge ids, or drops a pair from the insert buffer.
//! * [`insert_edge`](DeltaGraph::insert_edge) clears a tombstone bit, or
//!   adds the pair to a sorted buffer of pairs absent from the base.
//! * Each mutation is checked against the edge set as mutated so far, so a
//!   rejected one leaves the staged set unchanged.
//!
//! The node set is fixed at construction; only the edge set churns.

use std::fmt;

use crate::graph::{canonical, EdgeId, Graph, GraphError, NodeId, MAX_EDGES};

/// One edge mutation, the unit of churn streams fed to
/// [`DeltaGraph::apply_mutation`] and `Solver::apply` downstream.
///
/// The `weight` on [`Insert`](EdgeMutation::Insert) is carried for weighted
/// consumers (the solver layer); the graph layer itself is unweighted and
/// ignores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeMutation {
    /// Insert edge `{u, v}` (with the given weight, where weights apply).
    Insert {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
        /// Weight for weighted consumers; ignored at the graph layer.
        weight: u64,
    },
    /// Delete edge `{u, v}`.
    Delete {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
}

/// A staging set of edge mutations over a frozen CSR [`Graph`]: a
/// tombstone bitmap over base edge ids plus a sorted buffer of inserted
/// pairs (see the diagram at the top of `delta.rs`).
///
/// # Examples
///
/// ```
/// use minex_graphs::{DeltaGraph, Graph, GraphError};
///
/// let base = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
/// let mut dg = DeltaGraph::new(base);
/// dg.delete_edge(1, 2)?;
/// dg.insert_edge(0, 3)?;
/// assert_eq!(dg.m(), 3);
/// // Every mutation is checked against the edge set as mutated so far.
/// assert_eq!(
///     dg.insert_edge(3, 0),
///     Err(GraphError::DuplicateEdge { u: 0, v: 3 })
/// );
/// // One merge freezes the staged edge set into a flat CSR.
/// let flat = dg.snapshot();
/// assert_eq!(flat, Graph::from_edges(4, [(0, 1), (0, 3), (2, 3)])?);
/// # Ok::<(), GraphError>(())
/// ```
#[derive(Clone)]
pub struct DeltaGraph {
    base: Graph,
    /// One bit per base edge id; set = deleted.
    tombstones: Vec<u64>,
    /// Number of set tombstone bits.
    dead: usize,
    /// Inserted pairs absent from the base, canonical and sorted.
    inserts: Vec<(u32, u32)>,
    /// Structured-error edge cap enforced on the insert path.
    max_edges: usize,
}

impl fmt::Debug for DeltaGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeltaGraph")
            .field("n", &self.n())
            .field("m", &self.m())
            .field("deleted", &self.dead)
            .field("inserted", &self.inserts.len())
            .finish()
    }
}

impl DeltaGraph {
    /// Stages mutations over a frozen base graph, capped at [`MAX_EDGES`].
    pub fn new(base: Graph) -> Self {
        Self::with_max_edges(base, MAX_EDGES)
    }

    /// Stages mutations over a base graph with an explicit `max_edges` cap
    /// (clamped to [`MAX_EDGES`]). The cap makes the structured
    /// [`GraphError::TooManyEdges`] boundary testable without building a
    /// 2³¹-edge graph.
    pub fn with_max_edges(base: Graph, max_edges: usize) -> Self {
        DeltaGraph {
            tombstones: vec![0; base.m().div_ceil(64)],
            dead: 0,
            inserts: Vec::new(),
            max_edges: max_edges.min(MAX_EDGES),
            base,
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.base.n()
    }

    /// Number of live edges: surviving base edges plus buffered inserts.
    pub fn m(&self) -> usize {
        self.base.m() - self.dead + self.inserts.len()
    }

    /// The structured-error edge cap enforced by
    /// [`insert_edge`](Self::insert_edge).
    pub fn max_edges(&self) -> usize {
        self.max_edges
    }

    #[inline]
    fn is_tombstoned(&self, e: EdgeId) -> bool {
        (self.tombstones[e >> 6] >> (e & 63)) & 1 == 1
    }

    /// Flips the tombstone bit of base edge `e`.
    #[inline]
    fn toggle_tombstone(&mut self, e: EdgeId) {
        self.tombstones[e >> 6] ^= 1u64 << (e & 63);
    }

    fn check_room(&self) -> Result<(), GraphError> {
        if self.m() >= self.max_edges {
            return Err(GraphError::TooManyEdges {
                limit: self.max_edges,
            });
        }
        Ok(())
    }

    /// Inserts edge `{u, v}`: clears its tombstone if it is a deleted base
    /// edge, else buffers the pair.
    ///
    /// # Errors
    ///
    /// [`GraphError::SelfLoop`] / [`GraphError::NodeOutOfRange`] for invalid
    /// endpoints, [`GraphError::DuplicateEdge`] if the edge is already
    /// live, and [`GraphError::TooManyEdges`] if the insert would push the
    /// live edge count past [`max_edges`](Self::max_edges) — checked in
    /// that order.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        let (cu, cv) = canonical(u, v, self.n())?;
        let duplicate = GraphError::DuplicateEdge {
            u: cu as NodeId,
            v: cv as NodeId,
        };
        match self.base.edge_between(cu as NodeId, cv as NodeId) {
            Some(e) if self.is_tombstoned(e) => {
                self.check_room()?;
                self.toggle_tombstone(e);
                self.dead -= 1;
            }
            Some(_) => return Err(duplicate),
            None => {
                let Err(at) = self.inserts.binary_search(&(cu, cv)) else {
                    return Err(duplicate);
                };
                self.check_room()?;
                self.inserts.insert(at, (cu, cv));
            }
        }
        Ok(())
    }

    /// Deletes edge `{u, v}`: tombstones it if it is a base edge, else
    /// drops the pair from the insert buffer.
    ///
    /// # Errors
    ///
    /// [`GraphError::EdgeNotFound`] if no live edge `{u, v}` exists — this
    /// covers self-loops and out-of-range endpoints too, since such edges
    /// can never exist.
    pub fn delete_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        let not_found = GraphError::EdgeNotFound { u, v };
        let Ok((cu, cv)) = canonical(u, v, self.n()) else {
            return Err(not_found);
        };
        match self.base.edge_between(cu as NodeId, cv as NodeId) {
            Some(e) if self.is_tombstoned(e) => return Err(not_found),
            Some(e) => {
                self.toggle_tombstone(e);
                self.dead += 1;
            }
            None => {
                let Ok(at) = self.inserts.binary_search(&(cu, cv)) else {
                    return Err(not_found);
                };
                self.inserts.remove(at);
            }
        }
        Ok(())
    }

    /// Applies one [`EdgeMutation`]. The weight on inserts is ignored here
    /// (the graph layer is unweighted).
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`insert_edge`](Self::insert_edge) /
    /// [`delete_edge`](Self::delete_edge).
    pub fn apply_mutation(&mut self, mutation: &EdgeMutation) -> Result<(), GraphError> {
        match *mutation {
            EdgeMutation::Insert { u, v, .. } => self.insert_edge(u, v),
            EdgeMutation::Delete { u, v } => self.delete_edge(u, v),
        }
    }

    /// Freezes the staged edge set into a flat CSR [`Graph`]: one merge of
    /// the (sorted) surviving base edges with the (sorted) insert buffer,
    /// streamed twice through [`Graph::from_edge_stream`], whose sort of an
    /// already sorted stream is one linear pass. Edge ids in the snapshot
    /// are dense lexicographic ranks.
    pub fn snapshot(&self) -> Graph {
        Graph::from_edge_stream(self.n(), || {
            let mut live = self
                .base
                .edges()
                .filter(|&(e, _, _)| !self.is_tombstoned(e))
                .map(|(_, u, v)| (u, v))
                .peekable();
            let mut ins = self
                .inserts
                .iter()
                .map(|&(u, v)| (u as NodeId, v as NodeId))
                .peekable();
            std::iter::from_fn(move || match (live.peek(), ins.peek()) {
                (Some(&a), Some(&b)) => {
                    if a < b {
                        live.next()
                    } else {
                        ins.next()
                    }
                }
                (Some(_), None) => live.next(),
                (None, _) => ins.next(),
            })
        })
        .expect("staged mutations keep the live edge set a valid simple graph")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Graph {
        // A 4-cycle with one chord: {0,1} {0,3} {1,2} {1,3} {2,3}.
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]).unwrap()
    }

    #[test]
    fn insert_delete_roundtrip() {
        let mut dg = DeltaGraph::new(base());
        assert_eq!(dg.m(), 5);
        dg.delete_edge(1, 2).unwrap();
        assert_eq!(dg.m(), 4);
        assert!(!dg.snapshot().has_edge(1, 2));
        assert_eq!(dg.snapshot().neighbor_targets(1), &[0, 3]);
        // Re-inserting a deleted base edge clears its tombstone.
        dg.insert_edge(2, 1).unwrap();
        assert_eq!(dg.m(), 5);
        assert_eq!(dg.snapshot(), base());
        // A buffered insert deleted again leaves nothing behind.
        dg.insert_edge(0, 2).unwrap();
        dg.delete_edge(2, 0).unwrap();
        assert_eq!(dg.m(), 5);
        assert_eq!(dg.snapshot(), base());
    }

    #[test]
    fn duplicate_and_missing_edges_are_structured_errors() {
        let mut dg = DeltaGraph::new(base());
        assert_eq!(
            dg.insert_edge(3, 1).unwrap_err(),
            GraphError::DuplicateEdge { u: 1, v: 3 }
        );
        dg.insert_edge(0, 2).unwrap();
        assert_eq!(
            dg.insert_edge(2, 0).unwrap_err(),
            GraphError::DuplicateEdge { u: 0, v: 2 }
        );
        assert_eq!(
            dg.delete_edge(0, 9).unwrap_err(),
            GraphError::EdgeNotFound { u: 0, v: 9 }
        );
        assert_eq!(
            dg.delete_edge(2, 2).unwrap_err(),
            GraphError::EdgeNotFound { u: 2, v: 2 }
        );
        assert_eq!(dg.insert_edge(1, 1).unwrap_err(), GraphError::SelfLoop(1));
        assert_eq!(
            dg.insert_edge(1, 7).unwrap_err(),
            GraphError::NodeOutOfRange { node: 7, n: 4 }
        );
        // Deleting a tombstoned edge twice fails the second time.
        dg.delete_edge(0, 1).unwrap();
        assert_eq!(
            dg.delete_edge(0, 1).unwrap_err(),
            GraphError::EdgeNotFound { u: 0, v: 1 }
        );
    }

    #[test]
    fn edge_cap_is_a_structured_error_at_the_boundary() {
        // An injected cap stands in for the untestable 2³¹ CSR limit; the
        // default cap is asserted to be exactly MAX_EDGES below.
        let mut dg = DeltaGraph::with_max_edges(base(), 6);
        dg.insert_edge(0, 2).unwrap(); // m reaches the cap of 6
        assert_eq!(
            dg.insert_edge(1, 3),
            Err(GraphError::DuplicateEdge { u: 1, v: 3 }),
            "duplicate detection outranks the cap"
        );
        let err = dg.insert_edge(0, 2).unwrap_err();
        assert_eq!(err, GraphError::DuplicateEdge { u: 0, v: 2 });
        // A genuinely new edge at the boundary: structured error, no panic.
        // (4 nodes are full; grow via a larger base.)
        let g = Graph::from_edges(5, [(0, 1), (1, 2)]).unwrap();
        let mut capped = DeltaGraph::with_max_edges(g, 2);
        assert_eq!(
            capped.insert_edge(3, 4),
            Err(GraphError::TooManyEdges { limit: 2 })
        );
        // Deleting first makes room again.
        capped.delete_edge(0, 1).unwrap();
        capped.insert_edge(3, 4).unwrap();
        assert_eq!(
            capped.insert_edge(0, 1),
            Err(GraphError::TooManyEdges { limit: 2 }),
            "resurrection is capped too"
        );
        assert_eq!(DeltaGraph::new(base()).max_edges(), MAX_EDGES);
    }

    #[test]
    fn snapshot_matches_from_edges_rebuild() {
        let mut dg = DeltaGraph::new(base());
        dg.delete_edge(2, 3).unwrap();
        dg.insert_edge(0, 2).unwrap();
        dg.delete_edge(0, 1).unwrap();
        let expect = Graph::from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)]).unwrap();
        assert_eq!(dg.snapshot(), expect);
    }
}
