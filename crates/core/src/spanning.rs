//! Rooted spanning trees: the `T` of tree-restricted shortcuts.
//!
//! Theorem 1 instantiates `T` as a BFS tree of the network (so its diameter
//! is at most `2D`); the constructions work for any spanning tree.

use minex_graphs::{traversal, EdgeId, Graph, NodeId, ParentTree};

/// A rooted spanning tree of a connected graph, with the bookkeeping the
/// shortcut constructions need: the [`ParentTree`] layout (parents,
/// children, depths, pre-order, LCA), each node's parent edge, the
/// tree-edge mask, and the tree's own diameter `d_T`.
#[derive(Debug, Clone)]
pub struct RootedTree {
    layout: ParentTree,
    parent_edge: Vec<Option<EdgeId>>,
    tree_edge: Vec<bool>,
    diameter: usize,
}

impl RootedTree {
    /// Builds the BFS spanning tree of `g` rooted at `root`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not connected or `root` is out of range.
    pub fn bfs(g: &Graph, root: NodeId) -> Self {
        assert!(root < g.n(), "root out of range");
        let bfs = traversal::bfs(g, root);
        assert_eq!(bfs.order.len(), g.n(), "graph must be connected");
        let layout = ParentTree::new(bfs.parent).expect("a BFS of a connected graph is one tree");
        Self::with_layout(g, layout, bfs.parent_edge)
    }

    /// Wraps explicit parent pointers (`parent[root] = None`); each parent
    /// must be a graph neighbor of its child.
    ///
    /// # Panics
    ///
    /// Panics if the pointers do not encode a spanning tree of `g`.
    pub fn from_parent_pointers(g: &Graph, root: NodeId, parent: Vec<Option<NodeId>>) -> Self {
        assert_eq!(parent.len(), g.n(), "one parent entry per node");
        let layout = ParentTree::new(parent)
            .unwrap_or_else(|e| panic!("parent pointers must span the graph: {e}"));
        assert_eq!(layout.root(), root, "only the root may lack a parent");
        let parent_edge = layout
            .parents()
            .iter()
            .enumerate()
            .map(|(v, p)| {
                p.map(|p| {
                    g.edge_between(v, p)
                        .expect("tree parent must be a graph neighbor")
                })
            })
            .collect();
        Self::with_layout(g, layout, parent_edge)
    }

    fn with_layout(g: &Graph, layout: ParentTree, parent_edge: Vec<Option<EdgeId>>) -> Self {
        let mut tree_edge = vec![false; g.m()];
        for &e in parent_edge.iter().flatten() {
            tree_edge[e] = true;
        }
        // The longest path hangs below its highest node: in reverse
        // pre-order, `down[v]` is final when `v` is reached, and joins the
        // longest branch its parent has seen so far.
        let mut down = vec![0usize; layout.n()];
        let mut diameter = 0;
        for &v in layout.preorder().iter().rev() {
            if let Some(p) = layout.parent(v) {
                diameter = diameter.max(down[p] + down[v] + 1);
                down[p] = down[p].max(down[v] + 1);
            }
        }
        RootedTree {
            layout,
            parent_edge,
            tree_edge,
            diameter,
        }
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.layout.root()
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.layout.n()
    }

    /// Parent of `v` (`None` for the root).
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.layout.parent(v)
    }

    /// The edge to `v`'s parent.
    pub fn parent_edge(&self, v: NodeId) -> Option<EdgeId> {
        self.parent_edge[v]
    }

    /// Children of `v`, in ascending id.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        self.layout.children(v)
    }

    /// Depth of `v` below the root.
    pub fn depth(&self, v: NodeId) -> usize {
        self.layout.depth(v)
    }

    /// Nodes in DFS pre-order: each parent before its children, and every
    /// subtree a contiguous range ([`ParentTree::preorder`]).
    pub fn preorder(&self) -> &[NodeId] {
        self.layout.preorder()
    }

    /// Whether graph edge `e` belongs to the tree.
    pub fn is_tree_edge(&self, e: EdgeId) -> bool {
        self.tree_edge[e]
    }

    /// The tree-edge mask, indexed by graph edge id.
    pub fn tree_edge_mask(&self) -> &[bool] {
        &self.tree_edge
    }

    /// The diameter `d_T` of the tree itself (not of the host graph).
    pub fn diameter(&self) -> usize {
        self.diameter
    }

    /// Height: maximum depth.
    pub fn height(&self) -> usize {
        self.layout.height()
    }

    /// Walks from `v` to `ancestor`, yielding the parent edges used.
    ///
    /// # Panics
    ///
    /// Panics if `ancestor` is not actually an ancestor of `v`.
    pub fn path_edges_to_ancestor(&self, v: NodeId, ancestor: NodeId) -> Vec<EdgeId> {
        let mut out = Vec::new();
        let mut cur = v;
        while cur != ancestor {
            let e = self
                .parent_edge(cur)
                .expect("must reach ancestor before the root");
            out.push(e);
            cur = self
                .parent(cur)
                .expect("must reach ancestor before the root");
        }
        out
    }

    /// Lowest common ancestor of `a` and `b` by depth walking.
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        self.layout.lca(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minex_graphs::generators;

    #[test]
    fn bfs_tree_of_grid() {
        let g = generators::grid(4, 4);
        let t = RootedTree::bfs(&g, 0);
        assert_eq!(t.root(), 0);
        assert_eq!(t.preorder().len(), 16);
        assert_eq!(t.preorder()[0], 0);
        // Exactly n-1 tree edges.
        assert_eq!(t.tree_edge_mask().iter().filter(|&&b| b).count(), 15);
        // BFS tree of a grid from a corner has diameter ≤ 2·(grid diameter).
        assert!(
            t.diameter() >= 6 && t.diameter() <= 12,
            "d={}",
            t.diameter()
        );
        assert_eq!(t.depth(15), 6);
    }

    #[test]
    fn path_tree_diameter() {
        let g = generators::path(10);
        let t = RootedTree::bfs(&g, 0);
        assert_eq!(t.diameter(), 9);
        assert_eq!(t.height(), 9);
        let mid = RootedTree::bfs(&g, 5);
        assert_eq!(mid.diameter(), 9);
        assert_eq!(mid.height(), 5);
    }

    #[test]
    fn lca_and_paths() {
        let g = generators::binary_tree(15);
        let t = RootedTree::bfs(&g, 0);
        assert_eq!(t.lca(7, 8), 3);
        assert_eq!(t.lca(7, 14), 0);
        let edges = t.path_edges_to_ancestor(7, 1);
        assert_eq!(edges.len(), 2);
        assert!(t.path_edges_to_ancestor(5, 5).is_empty());
    }

    #[test]
    fn from_parent_pointers_roundtrip() {
        let g = generators::cycle(6);
        // Spanning path 0-1-2-3-4-5 (skip the wrap edge).
        let parent = vec![None, Some(0), Some(1), Some(2), Some(3), Some(4)];
        let t = RootedTree::from_parent_pointers(&g, 0, parent);
        assert_eq!(t.diameter(), 5);
        assert!(!t.is_tree_edge(g.edge_between(0, 5).unwrap()));
    }

    #[test]
    #[should_panic(expected = "must be connected")]
    fn bfs_rejects_disconnected() {
        let g = minex_graphs::Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let _ = RootedTree::bfs(&g, 0);
    }

    #[test]
    fn singleton() {
        let g = generators::path(1);
        let t = RootedTree::bfs(&g, 0);
        assert_eq!(t.diameter(), 0);
        assert_eq!(t.children(0), &[] as &[NodeId]);
    }
}
