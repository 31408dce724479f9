//! Parts (Definition 9): pairwise disjoint, individually connected node sets.

use std::error::Error;
use std::fmt;

use minex_graphs::{Graph, NodeId};

/// Error produced when a partition violates Definition 9.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// A node id was `>= n`.
    NodeOutOfRange(NodeId),
    /// A node appears in two parts.
    Overlap(NodeId),
    /// A part does not induce a connected subgraph.
    PartDisconnected {
        /// The offending part's index.
        part: usize,
    },
    /// A part is empty.
    EmptyPart {
        /// The offending part's index.
        part: usize,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::NodeOutOfRange(v) => write!(f, "node {v} out of range"),
            PartitionError::Overlap(v) => write!(f, "node {v} belongs to two parts"),
            PartitionError::PartDisconnected { part } => {
                write!(f, "part {part} does not induce a connected subgraph")
            }
            PartitionError::EmptyPart { part } => write!(f, "part {part} is empty"),
        }
    }
}

impl Error for PartitionError {}

/// A family of parts `P = (P_1, …, P_N)` per Definition 9: disjoint and each
/// inducing a connected subgraph. Parts need not cover every node.
///
/// # Examples
///
/// ```
/// use minex_core::Partition;
/// use minex_graphs::generators;
///
/// let g = generators::path(6);
/// let parts = Partition::new(&g, vec![vec![0, 1], vec![3, 4, 5]])?;
/// assert_eq!(parts.len(), 2);
/// assert_eq!(parts.part_of(4), Some(1));
/// assert_eq!(parts.part_of(2), None);
/// # Ok::<(), minex_core::PartitionError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Partition {
    parts: Vec<Vec<NodeId>>,
    part_of: Vec<Option<usize>>,
}

impl Partition {
    /// Validates and wraps the given parts.
    ///
    /// # Errors
    ///
    /// Returns a [`PartitionError`] describing the first violated condition.
    pub fn new(g: &Graph, mut parts: Vec<Vec<NodeId>>) -> Result<Self, PartitionError> {
        let mut part_of: Vec<Option<usize>> = vec![None; g.n()];
        // Parts are disjoint, so one visited column serves every part's
        // connectivity search and the whole check costs O(n + m).
        let mut seen = vec![false; g.n()];
        let mut stack = Vec::new();
        for (i, part) in parts.iter_mut().enumerate() {
            if part.is_empty() {
                return Err(PartitionError::EmptyPart { part: i });
            }
            part.sort_unstable();
            part.dedup();
            for &v in part.iter() {
                if v >= g.n() {
                    return Err(PartitionError::NodeOutOfRange(v));
                }
                if part_of[v].is_some() {
                    return Err(PartitionError::Overlap(v));
                }
                part_of[v] = Some(i);
            }
            seen[part[0]] = true;
            stack.push(part[0]);
            let mut reached = 1;
            while let Some(v) = stack.pop() {
                for &w in g.neighbor_targets(v) {
                    let w = w as NodeId;
                    if part_of[w] == Some(i) && !seen[w] {
                        seen[w] = true;
                        reached += 1;
                        stack.push(w);
                    }
                }
            }
            if reached != part.len() {
                return Err(PartitionError::PartDisconnected { part: i });
            }
        }
        Ok(Partition { parts, part_of })
    }

    /// Wraps parts that already pass [`new`](Self::new)'s checks and are
    /// sorted, without checking them again: the sub-problems of
    /// [`crate::construct`] are such parts by construction. Debug builds
    /// still check.
    pub(crate) fn new_unchecked(g: &Graph, parts: Vec<Vec<NodeId>>) -> Self {
        debug_assert!(Partition::new(g, parts.clone()).is_ok_and(|p| p.parts == parts));
        let mut part_of: Vec<Option<usize>> = vec![None; g.n()];
        for (i, part) in parts.iter().enumerate() {
            for &v in part {
                part_of[v] = Some(i);
            }
        }
        Partition { parts, part_of }
    }

    /// Builds a partition from per-node labels (`None` = unassigned).
    /// Labels are compacted to dense part indices by first appearance.
    ///
    /// # Errors
    ///
    /// Same as [`new`](Self::new).
    pub fn from_labels(g: &Graph, labels: &[Option<usize>]) -> Result<Self, PartitionError> {
        assert_eq!(labels.len(), g.n(), "one label per node required");
        let mut remap: std::collections::HashMap<usize, usize> = Default::default();
        let mut parts: Vec<Vec<NodeId>> = Vec::new();
        for (v, &label) in labels.iter().enumerate() {
            if let Some(l) = label {
                let next = parts.len();
                let idx = *remap.entry(l).or_insert(next);
                if idx == parts.len() {
                    parts.push(Vec::new());
                }
                parts[idx].push(v);
            }
        }
        Partition::new(g, parts)
    }

    /// Number of parts.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Whether there are no parts.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// The parts, each sorted.
    pub fn parts(&self) -> &[Vec<NodeId>] {
        &self.parts
    }

    /// Nodes of part `i`.
    pub fn part(&self, i: usize) -> &[NodeId] {
        &self.parts[i]
    }

    /// The part containing `v`, if any.
    pub fn part_of(&self, v: NodeId) -> Option<usize> {
        self.part_of[v]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minex_graphs::generators;

    #[test]
    fn valid_partition() {
        let g = generators::cycle(8);
        let p = Partition::new(&g, vec![vec![0, 1, 2], vec![4, 5]]).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.part_of(1), Some(0));
        assert_eq!(p.part_of(6), None);
        assert_eq!(p.part(1), &[4, 5]);
    }

    #[test]
    fn rejects_overlap() {
        let g = generators::path(4);
        assert_eq!(
            Partition::new(&g, vec![vec![0, 1], vec![1, 2]]).unwrap_err(),
            PartitionError::Overlap(1)
        );
    }

    #[test]
    fn rejects_disconnected_part() {
        let g = generators::path(5);
        assert_eq!(
            Partition::new(&g, vec![vec![0, 2]]).unwrap_err(),
            PartitionError::PartDisconnected { part: 0 }
        );
        // Another part's node never connects a part, before or after it.
        assert_eq!(
            Partition::new(&g, vec![vec![1], vec![0, 2]]).unwrap_err(),
            PartitionError::PartDisconnected { part: 1 }
        );
        assert_eq!(
            Partition::new(&g, vec![vec![0, 2], vec![1]]).unwrap_err(),
            PartitionError::PartDisconnected { part: 0 }
        );
    }

    #[test]
    fn rejects_empty_and_out_of_range() {
        let g = generators::path(3);
        assert_eq!(
            Partition::new(&g, vec![vec![]]).unwrap_err(),
            PartitionError::EmptyPart { part: 0 }
        );
        assert_eq!(
            Partition::new(&g, vec![vec![7]]).unwrap_err(),
            PartitionError::NodeOutOfRange(7)
        );
    }

    #[test]
    fn from_labels_compacts() {
        let g = generators::path(6);
        let labels = vec![Some(9), Some(9), None, None, Some(4), Some(4)];
        let p = Partition::from_labels(&g, &labels).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.part(0), &[0, 1]);
        assert_eq!(p.part(1), &[4, 5]);
    }

    #[test]
    fn duplicate_nodes_within_part_ok() {
        let g = generators::path(3);
        let p = Partition::new(&g, vec![vec![1, 1, 2]]).unwrap();
        assert_eq!(p.part(0), &[1, 2]);
    }
}
