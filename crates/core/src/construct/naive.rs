//! Baseline constructions: whole-tree and per-part Steiner subtrees.
//!
//! These bracket the design space. [`WholeTreeBuilder`] achieves block
//! parameter 1 at congestion `N` (the number of parts); [`SteinerBuilder`]
//! also achieves block parameter 1 but only pays congestion where part
//! Steiner trees overlap. On pathological inputs (the wheel's rim parts)
//! Steiner congestion degenerates, which is exactly what the capped
//! construction then repairs.

use minex_graphs::{EdgeId, Graph, NodeId};

use crate::construct::ShortcutBuilder;
use crate::parts::Partition;
use crate::shortcut::Shortcut;
use crate::spanning::RootedTree;

/// Assigns every part the entire spanning tree.
#[derive(Debug, Clone, Copy, Default)]
pub struct WholeTreeBuilder;

impl ShortcutBuilder for WholeTreeBuilder {
    fn name(&self) -> &'static str {
        "whole-tree"
    }

    fn build(&self, g: &Graph, tree: &RootedTree, parts: &Partition) -> Shortcut {
        let tree_edges: Vec<EdgeId> = (0..g.m()).filter(|&e| tree.is_tree_edge(e)).collect();
        Shortcut::new(vec![tree_edges; parts.len()])
    }
}

/// Assigns each part the minimal subtree of `T` spanning it (the union of
/// tree paths from each part node to the part's LCA).
#[derive(Debug, Clone, Copy, Default)]
pub struct SteinerBuilder;

impl SteinerBuilder {
    /// The Steiner-subtree edges of one node set (public so other builders
    /// can reuse the primitive on local problems).
    pub fn steiner_edges(tree: &RootedTree, nodes: &[NodeId]) -> Vec<EdgeId> {
        steiner_edges_stamped(tree, nodes, &mut vec![usize::MAX; tree.n()], 0)
    }
}

/// Computes Steiner edges using a caller-provided stamp array (so repeated
/// calls avoid reallocation). `stamp` must hold values `!= stamp_value` on
/// entry for all nodes.
///
/// The edges come in climbs: from each node of `nodes` in turn, up the
/// tree until an earlier climb or the LCA, each climb from its bottom.
pub(crate) fn steiner_edges_stamped(
    tree: &RootedTree,
    nodes: &[NodeId],
    stamp: &mut [usize],
    stamp_value: usize,
) -> Vec<EdgeId> {
    if nodes.len() <= 1 {
        return Vec::new();
    }
    // LCA of the set by iterated pairwise LCA.
    let mut l = nodes[0];
    for &v in &nodes[1..] {
        l = tree.lca(l, v);
    }
    let mut out = Vec::new();
    for &v in nodes {
        let mut cur = v;
        while cur != l && stamp[cur] != stamp_value {
            stamp[cur] = stamp_value;
            out.push(tree.parent_edge(cur).expect("below the LCA"));
            cur = tree.parent(cur).expect("below the LCA");
        }
    }
    out
}

impl ShortcutBuilder for SteinerBuilder {
    fn name(&self) -> &'static str {
        "steiner"
    }

    fn build(&self, _g: &Graph, tree: &RootedTree, parts: &Partition) -> Shortcut {
        let mut stamp = vec![usize::MAX; tree.n()];
        let per_part = parts
            .parts()
            .iter()
            .enumerate()
            .map(|(i, p)| steiner_edges_stamped(tree, p, &mut stamp, i))
            .collect();
        Shortcut::new(per_part)
    }

    /// The Steiner subtree of a part depends only on the part's nodes and
    /// the tree parents on the walk up to their iterated LCA, so `build`
    /// on any sub-partition returns exactly those parts' edges.
    fn part_local(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shortcut::{measure_quality, validate_tree_restricted};
    use minex_graphs::generators;

    #[test]
    fn whole_tree_block_one_congestion_n() {
        let g = generators::grid(5, 5);
        let t = RootedTree::bfs(&g, 0);
        let parts =
            Partition::new(&g, vec![vec![0, 1], vec![3, 4], vec![20, 21], vec![23, 24]]).unwrap();
        let s = WholeTreeBuilder.build(&g, &t, &parts);
        validate_tree_restricted(&s, &t).unwrap();
        let q = measure_quality(&g, &t, &parts, &s);
        assert_eq!(q.block, 1);
        assert_eq!(q.congestion, 4);
    }

    #[test]
    fn steiner_block_one() {
        let g = generators::grid(6, 6);
        let t = RootedTree::bfs(&g, 0);
        // Two distant snake-shaped parts.
        let parts = Partition::new(&g, vec![vec![0, 1, 2, 8, 14], vec![33, 34, 35]]).unwrap();
        let s = SteinerBuilder.build(&g, &t, &parts);
        validate_tree_restricted(&s, &t).unwrap();
        let q = measure_quality(&g, &t, &parts, &s);
        assert_eq!(q.block, 1);
        // Distant parts with disjoint Steiner trees may still overlap near
        // the root; congestion stays ≤ 2 parts trivially.
        assert!(q.congestion <= 2);
    }

    #[test]
    fn steiner_of_singleton_part_is_empty() {
        let g = generators::path(5);
        let t = RootedTree::bfs(&g, 0);
        let parts = Partition::new(&g, vec![vec![3]]).unwrap();
        let s = SteinerBuilder.build(&g, &t, &parts);
        assert!(s.edges(0).is_empty());
        let q = measure_quality(&g, &t, &parts, &s);
        assert_eq!(q.block, 1);
        assert_eq!(q.congestion, 0);
    }

    #[test]
    fn steiner_connects_part_through_lca() {
        let g = generators::binary_tree(15);
        let t = RootedTree::bfs(&g, 0);
        // Nodes 7 and 8 are siblings under 3: Steiner tree = {7-3, 8-3}.
        let parts = Partition::new(&g, vec![vec![3, 7, 8]]).unwrap();
        let s = SteinerBuilder.build(&g, &t, &parts);
        assert_eq!(s.edges(0).len(), 2);
        // Nodes 7 and 14: path through the root, 3 + 3 edges.
        let edges = SteinerBuilder::steiner_edges(&t, &[7, 14]);
        assert_eq!(edges.len(), 6);
    }

    #[test]
    fn steiner_wheel_rim_congestion_degenerates() {
        // The Section 1.3.3 example: on a wheel rooted at the hub, a single
        // rim part's Steiner tree uses every spoke — congestion is fine, but
        // split the rim into many parts and the hub edges get shared.
        let n = 32;
        let g = generators::wheel(n);
        let hub = n - 1;
        let t = RootedTree::bfs(&g, hub);
        let rim_parts: Vec<Vec<NodeId>> = (0..(n - 1) / 4)
            .map(|i| (4 * i..4 * i + 4).collect())
            .collect();
        let count = rim_parts.len();
        let parts = Partition::new(&g, rim_parts).unwrap();
        let s = SteinerBuilder.build(&g, &t, &parts);
        let q = measure_quality(&g, &t, &parts, &s);
        assert_eq!(q.block, 1);
        // Every part uses its spokes only — congestion 1 on a wheel rooted
        // at the hub (BFS tree = spokes), quality is excellent.
        assert!(q.congestion <= 2);
        assert_eq!(parts.len(), count);
    }
}
