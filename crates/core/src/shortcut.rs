//! Shortcuts and their quality measures (Definitions 10–13).
//!
//! A shortcut assigns each part a set of extra edges `H_i`. The framework's
//! promise (Theorem 1) is parameterized by three numbers measured here:
//!
//! * **congestion** `c` — the maximum, over edges, of how many parts use the
//!   edge (Definition 11);
//! * **block parameter** `b` — the maximum, over parts, of how many
//!   connected components of `(V, H_i)` contain a `P_i`-node
//!   (Definition 12);
//! * **quality** `q = b·d_T + c` (Definition 13).

use std::error::Error;
use std::fmt;

use minex_graphs::{EdgeId, Graph, NodeId, UnionFind};

use crate::parts::Partition;
use crate::spanning::RootedTree;

/// A shortcut: for each part `P_i`, a set of assigned edges `H_i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shortcut {
    per_part: Vec<Vec<EdgeId>>,
}

impl Shortcut {
    /// Wraps per-part edge sets; each is sorted and deduplicated.
    pub fn new(mut per_part: Vec<Vec<EdgeId>>) -> Self {
        for h in &mut per_part {
            h.sort_unstable();
            h.dedup();
        }
        Shortcut { per_part }
    }

    /// An empty shortcut for `parts` parts.
    pub fn empty(parts: usize) -> Self {
        Shortcut {
            per_part: vec![Vec::new(); parts],
        }
    }

    /// Number of parts covered.
    pub fn len(&self) -> usize {
        self.per_part.len()
    }

    /// Whether no parts are covered.
    pub fn is_empty(&self) -> bool {
        self.per_part.is_empty()
    }

    /// The edges `H_i` assigned to part `i`, sorted.
    pub fn edges(&self, i: usize) -> &[EdgeId] {
        &self.per_part[i]
    }

    /// Iterates over all `(part, edge)` assignments.
    pub fn assignments(&self) -> impl Iterator<Item = (usize, EdgeId)> + '_ {
        self.per_part
            .iter()
            .enumerate()
            .flat_map(|(i, h)| h.iter().map(move |&e| (i, e)))
    }
}

/// Violations of the tree-restriction requirement (Definition 10).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotTreeRestricted {
    /// The offending part.
    pub part: usize,
    /// The offending non-tree edge.
    pub edge: EdgeId,
}

impl fmt::Display for NotTreeRestricted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shortcut of part {} uses non-tree edge {}",
            self.part, self.edge
        )
    }
}

impl Error for NotTreeRestricted {}

/// Checks that every assigned edge lies on the tree `T` (Definition 10).
///
/// # Errors
///
/// Returns the first violation found.
pub fn validate_tree_restricted(
    shortcut: &Shortcut,
    tree: &RootedTree,
) -> Result<(), NotTreeRestricted> {
    for (part, edge) in shortcut.assignments() {
        if !tree.is_tree_edge(edge) {
            return Err(NotTreeRestricted { part, edge });
        }
    }
    Ok(())
}

/// The measured quality report of a shortcut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QualityReport {
    /// Block parameter `b` (Definition 12).
    pub block: usize,
    /// Congestion `c` (Definition 11).
    pub congestion: usize,
    /// The tree diameter `d_T` that enters the quality formula.
    pub tree_diameter: usize,
    /// Quality `q = b·d_T + c` (Definition 13).
    pub quality: usize,
    /// Per-part block counts (for distribution plots).
    pub per_part_blocks: Vec<usize>,
    /// Per-edge congestion, indexed by edge id (zero for unused edges).
    pub per_edge_congestion: Vec<usize>,
}

impl QualityReport {
    /// The analytic round budget the framework charges one part-wise
    /// aggregation served by a shortcut of this quality: `q · ⌈log₂ n⌉`
    /// (Theorem 1's `Õ(q)`, with the polylog written out) — the same
    /// figure the solver reports as charged construction rounds per
    /// quality unit. `n` is the network size; `n ≤ 2` charges one round
    /// per quality unit.
    pub fn round_budget(&self, n: usize) -> usize {
        let log_n = if n <= 2 {
            1
        } else {
            (usize::BITS - (n - 1).leading_zeros()) as usize
        };
        self.quality * log_n
    }

    /// The analytic cap on messages any single edge can carry while one
    /// part-wise aggregation runs within [`round_budget`]: the CONGEST
    /// model admits one message per direction per round, so a q-quality
    /// plan bounds observed per-edge congestion by `2 · q · ⌈log₂ n⌉`.
    /// This is the bound E17 validates against measured telemetry
    /// (`CongestionProfile::max_edge_messages` in `minex-congest`).
    ///
    /// [`round_budget`]: Self::round_budget
    pub fn edge_congestion_bound(&self, n: usize) -> usize {
        2 * self.round_budget(n)
    }
}

/// Measures congestion, block parameter, and quality of `shortcut` on
/// `(g, tree, parts)` exactly per Definitions 11–13.
///
/// # Examples
///
/// ```
/// use minex_core::{measure_quality, Partition, RootedTree, Shortcut};
/// use minex_graphs::generators;
///
/// let g = generators::path(5);
/// let t = RootedTree::bfs(&g, 0);
/// let parts = Partition::new(&g, vec![vec![0], vec![4]])?;
/// // Both parts get the middle edge (2,3): congestion 2.
/// let e = g.edge_between(2, 3).unwrap();
/// let s = Shortcut::new(vec![vec![e], vec![e]]);
/// let q = measure_quality(&g, &t, &parts, &s);
/// assert_eq!(q.congestion, 2);
/// // Part {0} has components {2,3} (no P-node) and {0}: one block.
/// assert_eq!(q.block, 1);
/// # Ok::<(), minex_core::PartitionError>(())
/// ```
pub fn measure_quality(
    g: &Graph,
    tree: &RootedTree,
    parts: &Partition,
    shortcut: &Shortcut,
) -> QualityReport {
    assert_eq!(
        shortcut.len(),
        parts.len(),
        "shortcut must cover every part"
    );
    // Congestion (Definition 11).
    let mut per_edge = vec![0usize; g.m()];
    for (_, e) in shortcut.assignments() {
        per_edge[e] += 1;
    }
    let congestion = per_edge.iter().copied().max().unwrap_or(0);
    // Block parameter (Definition 12): per part, components of (V, H_i)
    // containing at least one part node. The induced subgraph G[P_i] is NOT
    // part of (V, H_i) — only the shortcut edges are.
    //
    // Computed *sparsely*: only the part's nodes and the shortcut edges'
    // endpoints participate, so one part costs `O(|P_i| + |H_i|)` instead
    // of the `O(n)` a whole-graph union-find would charge. That difference
    // is what keeps Borůvka-style drivers (one re-plan per fragmentation,
    // with up to `n` fragments) usable on million-node graphs. Isolated
    // nodes of `(V, H_i)` outside `P_i` never affect the count, so the
    // sparse view is exact.
    let mut local_id: Vec<usize> = vec![usize::MAX; g.n()];
    let mut touched: Vec<NodeId> = Vec::new();
    let mut per_part_blocks = Vec::with_capacity(parts.len());
    for (i, part) in parts.parts().iter().enumerate() {
        let assign = |v: NodeId, local_id: &mut Vec<usize>, touched: &mut Vec<NodeId>| {
            if local_id[v] == usize::MAX {
                local_id[v] = touched.len();
                touched.push(v);
            }
        };
        for &v in part {
            assign(v, &mut local_id, &mut touched);
        }
        for &e in shortcut.edges(i) {
            let (u, v) = g.endpoints(e);
            assign(u, &mut local_id, &mut touched);
            assign(v, &mut local_id, &mut touched);
        }
        let mut uf = UnionFind::new(touched.len());
        for &e in shortcut.edges(i) {
            let (u, v) = g.endpoints(e);
            uf.union(local_id[u], local_id[v]);
        }
        let mut roots: Vec<usize> = part.iter().map(|&v| uf.find(local_id[v])).collect();
        roots.sort_unstable();
        roots.dedup();
        per_part_blocks.push(roots.len());
        for &v in &touched {
            local_id[v] = usize::MAX;
        }
        touched.clear();
    }
    let block = per_part_blocks.iter().copied().max().unwrap_or(0);
    let tree_diameter = tree.diameter();
    QualityReport {
        block,
        congestion,
        tree_diameter,
        quality: block * tree_diameter + congestion,
        per_part_blocks,
        per_edge_congestion: per_edge,
    }
}

/// The effective diameter of the augmented part `G[P_i] + H_i` (Section
/// 1.3.3): the eccentricity bound used to reason about how fast information
/// spreads inside one part. Returns the maximum over parts of the diameter
/// of `G[P_i] + H_i` (including shortcut endpoints outside `P_i`).
///
/// Expensive (`O(Σ |component| · |edges|)`); intended for tests and
/// experiments, not inner loops.
pub fn augmented_part_diameter(g: &Graph, parts: &Partition, shortcut: &Shortcut) -> usize {
    let mut worst = 0;
    for (i, part) in parts.parts().iter().enumerate() {
        // Collect the node set and allowed edges of G[P_i] + H_i.
        let mut in_part = vec![false; g.n()];
        for &v in part {
            in_part[v] = true;
        }
        let mut allowed = vec![false; g.m()];
        let mut nodes: Vec<usize> = part.clone();
        for (_, u, v) in g.edges() {
            // G[P_i] edges.
            let e = g.edge_between(u, v).expect("edge exists");
            if in_part[u] && in_part[v] {
                allowed[e] = true;
            }
        }
        for &e in shortcut.edges(i) {
            allowed[e] = true;
            let (u, v) = g.endpoints(e);
            nodes.push(u);
            nodes.push(v);
        }
        nodes.sort_unstable();
        nodes.dedup();
        // BFS from each node of the augmented subgraph.
        for &s in &nodes {
            let dist = minex_graphs::traversal::bfs_masked(g, s, &allowed);
            for &t in &nodes {
                if dist[t] != usize::MAX {
                    worst = worst.max(dist[t]);
                }
            }
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use minex_graphs::generators;

    #[test]
    fn analytic_budgets_follow_quality_and_log_n() {
        let g = generators::path(6);
        let t = RootedTree::bfs(&g, 0);
        let parts = Partition::new(&g, vec![vec![0, 1, 2], vec![4, 5]]).unwrap();
        let s = Shortcut::empty(2);
        let q = measure_quality(&g, &t, &parts, &s);
        // ⌈log₂ 6⌉ = 3; tiny n collapses to one round per quality unit.
        assert_eq!(q.round_budget(6), q.quality * 3);
        assert_eq!(q.round_budget(2), q.quality);
        assert_eq!(q.round_budget(0), q.quality);
        assert_eq!(q.round_budget(1025), q.quality * 11);
        assert_eq!(q.edge_congestion_bound(6), 2 * q.round_budget(6));
    }

    #[test]
    fn empty_shortcut_blocks_are_part_counts() {
        // With H_i = ∅, every part node is its own component: block = |P_i|.
        let g = generators::path(6);
        let t = RootedTree::bfs(&g, 0);
        let parts = Partition::new(&g, vec![vec![0, 1, 2], vec![4, 5]]).unwrap();
        let s = Shortcut::empty(2);
        let q = measure_quality(&g, &t, &parts, &s);
        assert_eq!(q.per_part_blocks, vec![3, 2]);
        assert_eq!(q.block, 3);
        assert_eq!(q.congestion, 0);
        assert_eq!(q.quality, 3 * t.diameter());
    }

    #[test]
    fn whole_tree_shortcut_has_one_block() {
        let g = generators::cycle(8);
        let t = RootedTree::bfs(&g, 0);
        let parts = Partition::new(&g, vec![vec![2, 3], vec![6, 7]]).unwrap();
        let tree_edges: Vec<EdgeId> = (0..g.m()).filter(|&e| t.is_tree_edge(e)).collect();
        let s = Shortcut::new(vec![tree_edges.clone(), tree_edges]);
        let q = measure_quality(&g, &t, &parts, &s);
        assert_eq!(q.block, 1);
        assert_eq!(q.congestion, 2);
        validate_tree_restricted(&s, &t).unwrap();
    }

    #[test]
    fn tree_restriction_catches_non_tree_edges() {
        let g = generators::cycle(5);
        let t = RootedTree::bfs(&g, 0);
        let non_tree = (0..g.m()).find(|&e| !t.is_tree_edge(e)).unwrap();
        let s = Shortcut::new(vec![vec![non_tree]]);
        assert_eq!(
            validate_tree_restricted(&s, &t),
            Err(NotTreeRestricted {
                part: 0,
                edge: non_tree
            })
        );
    }

    #[test]
    fn congestion_counts_parts_not_duplicates() {
        let g = generators::path(4);
        let t = RootedTree::bfs(&g, 0);
        let parts = Partition::new(&g, vec![vec![0], vec![3]]).unwrap();
        // Duplicate edges within one part are deduplicated by construction.
        let s = Shortcut::new(vec![vec![1, 1, 1], vec![1]]);
        let q = measure_quality(&g, &t, &parts, &s);
        assert_eq!(q.congestion, 2);
        assert_eq!(q.per_edge_congestion[1], 2);
        assert_eq!(q.per_edge_congestion[0], 0);
    }

    #[test]
    fn blocks_ignore_components_without_part_nodes() {
        let g = generators::path(8);
        let t = RootedTree::bfs(&g, 0);
        let parts = Partition::new(&g, vec![vec![0, 1]]).unwrap();
        // Shortcut edges far away from the part: the component {5,6,7}
        // contains no part node, so it is not a block component.
        let e56 = g.edge_between(5, 6).unwrap();
        let e67 = g.edge_between(6, 7).unwrap();
        let e01 = g.edge_between(0, 1).unwrap();
        let s = Shortcut::new(vec![vec![e56, e67, e01]]);
        let q = measure_quality(&g, &t, &parts, &s);
        assert_eq!(q.block, 1);
    }

    #[test]
    fn augmented_diameter_shrinks_with_shortcuts() {
        let g = generators::wheel(12);
        let hub = 11;
        let t = RootedTree::bfs(&g, hub);
        // One part: the whole rim (diameter Θ(n) in isolation).
        let rim: Vec<usize> = (0..11).collect();
        let parts = Partition::new(&g, vec![rim]).unwrap();
        let empty = Shortcut::empty(1);
        let lonely = augmented_part_diameter(&g, &parts, &empty);
        assert!(lonely >= 5, "rim alone is long: {lonely}");
        // Give the part all spokes (tree edges): diameter collapses to 2.
        let spokes: Vec<EdgeId> = (0..g.m()).filter(|&e| t.is_tree_edge(e)).collect();
        let s = Shortcut::new(vec![spokes]);
        let with = augmented_part_diameter(&g, &parts, &s);
        assert!(with <= 2, "with spokes: {with}");
    }

    #[test]
    #[should_panic(expected = "shortcut must cover every part")]
    fn measure_requires_matching_lengths() {
        let g = generators::path(3);
        let t = RootedTree::bfs(&g, 0);
        let parts = Partition::new(&g, vec![vec![0]]).unwrap();
        let s = Shortcut::empty(2);
        let _ = measure_quality(&g, &t, &parts, &s);
    }
}
