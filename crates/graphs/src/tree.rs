//! One layout for every rooted tree the workspace walks: the BFS spanning
//! tree `T` of shortcuts (Definitions 10–13), the clique-sum decomposition
//! tree Theorem 7 folds along heavy-light chains, and the packed spanning
//! trees of the min-cut, each given by parent pointers alone.

use std::error::Error;
use std::fmt;

/// Why parent pointers do not encode exactly one tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeError {
    /// No node lacks a parent: the pointers are empty or close a cycle.
    NoRoot,
    /// Two nodes lack a parent: a forest, not a tree.
    TwoRoots(usize, usize),
    /// The node's parent is not a node.
    ParentOutOfRange(usize),
    /// The node does not hang below the root: its parent chain runs into a
    /// cycle.
    Unreachable(usize),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::NoRoot => write!(f, "no node lacks a parent, but a tree has one root"),
            TreeError::TwoRoots(a, b) => {
                write!(f, "nodes {a} and {b} are roots; a tree has one root")
            }
            TreeError::ParentOutOfRange(v) => write!(f, "node {v} has an out-of-range parent"),
            TreeError::Unreachable(v) => write!(f, "node {v} does not hang below the root"),
        }
    }
}

impl Error for TreeError {}

/// A rooted tree over the nodes `0..n`, built from parent pointers.
///
/// Children are listed in ascending id. The pre-order is the DFS that
/// pushes a node's children in ascending id and pops the last one first,
/// so every subtree is the contiguous range of [`ParentTree::subtree_size`]
/// entries that starts at its root.
#[derive(Debug, Clone)]
pub struct ParentTree {
    parent: Vec<Option<usize>>,
    root: usize,
    /// `children[child_start[v]..child_start[v + 1]]` are `v`'s children.
    child_start: Vec<usize>,
    children: Vec<usize>,
    depth: Vec<usize>,
    preorder: Vec<usize>,
    size: Vec<usize>,
}

impl ParentTree {
    /// Lays out the tree whose node `v` hangs below `parent[v]`; the root is
    /// the one node whose entry is `None`.
    ///
    /// # Errors
    ///
    /// A [`TreeError`] unless `parent` encodes exactly one tree: one root,
    /// every parent in range, and every node below the root.
    pub fn new(parent: Vec<Option<usize>>) -> Result<Self, TreeError> {
        let n = parent.len();
        let mut root = None;
        // `child_start[p]` counts `p`'s children, then (inclusive prefix
        // sums) ends `p`'s range, and after the scatter starts it.
        let mut child_start = vec![0usize; n + 1];
        for (v, &p) in parent.iter().enumerate() {
            match p {
                Some(p) if p >= n => return Err(TreeError::ParentOutOfRange(v)),
                Some(p) => child_start[p] += 1,
                None => match root {
                    Some(r) => return Err(TreeError::TwoRoots(r, v)),
                    None => root = Some(v),
                },
            }
        }
        let root = root.ok_or(TreeError::NoRoot)?;
        for v in 1..=n {
            child_start[v] += child_start[v - 1];
        }
        let mut children = vec![0usize; n - 1];
        for (v, &p) in parent.iter().enumerate().rev() {
            if let Some(p) = p {
                child_start[p] -= 1;
                children[child_start[p]] = v;
            }
        }
        let mut depth = vec![usize::MAX; n];
        depth[root] = 0;
        let mut preorder = Vec::with_capacity(n);
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            preorder.push(v);
            let kids = &children[child_start[v]..child_start[v + 1]];
            for &c in kids {
                depth[c] = depth[v] + 1;
            }
            stack.extend_from_slice(kids);
        }
        if let Some(v) = depth.iter().position(|&d| d == usize::MAX) {
            return Err(TreeError::Unreachable(v));
        }
        let mut size = vec![1usize; n];
        for &v in preorder.iter().rev() {
            if let Some(p) = parent[v] {
                size[p] += size[v];
            }
        }
        Ok(ParentTree {
            parent,
            root,
            child_start,
            children,
            depth,
            preorder,
            size,
        })
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.parent.len()
    }

    /// The root.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Parent of `v` (`None` for the root).
    pub fn parent(&self, v: usize) -> Option<usize> {
        self.parent[v]
    }

    /// Every node's parent, indexed by node.
    pub fn parents(&self) -> &[Option<usize>] {
        &self.parent
    }

    /// Children of `v`, in ascending id.
    pub fn children(&self, v: usize) -> &[usize] {
        &self.children[self.child_start[v]..self.child_start[v + 1]]
    }

    /// Depth of `v` below the root (the root has depth 0).
    pub fn depth(&self, v: usize) -> usize {
        self.depth[v]
    }

    /// The largest depth.
    pub fn height(&self) -> usize {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Every node in DFS pre-order from the root: the subtree of the node
    /// at position `i` is `preorder()[i..i + subtree_size(node)]`.
    pub fn preorder(&self) -> &[usize] {
        &self.preorder
    }

    /// Number of nodes in the subtree of `v`, `v` included.
    pub fn subtree_size(&self, v: usize) -> usize {
        self.size[v]
    }

    /// Lowest common ancestor of `a` and `b`, by walking both up to equal
    /// depth and then together.
    pub fn lca(&self, mut a: usize, mut b: usize) -> usize {
        while self.depth[a] > self.depth[b] {
            a = self.parent[a].expect("a deeper node has a parent");
        }
        while self.depth[b] > self.depth[a] {
            b = self.parent[b].expect("a deeper node has a parent");
        }
        while a != b {
            a = self.parent[a].expect("distinct nodes at one depth are not the root");
            b = self.parent[b].expect("distinct nodes at one depth are not the root");
        }
        a
    }
}
