//! Lowest common ancestors by binary lifting.
//!
//! The clique-sum shortcut construction needs, per part, the lowest common
//! ancestor `h_P` of the bags that part touches (Lemma 1), and the tree
//! machinery here serves both the decomposition tree and spanning trees.

use minex_graphs::ParentTree;

/// Binary-lifting LCA structure over a rooted tree.
#[derive(Debug, Clone)]
pub struct Lca {
    tree: ParentTree,
    /// `up[j][v]` — the `2^j`-th ancestor of `v` (root maps to itself).
    up: Vec<Vec<usize>>,
}

impl Lca {
    /// Preprocesses the tree given by `parent` pointers (one `None` root).
    ///
    /// # Panics
    ///
    /// Panics if `parent` does not encode exactly one tree.
    pub fn new(parent: &[Option<usize>]) -> Self {
        let tree = ParentTree::new(parent.to_vec()).unwrap_or_else(|e| panic!("{e}"));
        let n = tree.n();
        let root = tree.root();
        let levels = usize::BITS as usize - n.leading_zeros() as usize;
        let levels = levels.max(1);
        let mut up: Vec<Vec<usize>> = Vec::with_capacity(levels);
        up.push(tree.parents().iter().map(|p| p.unwrap_or(root)).collect());
        for j in 1..levels {
            let half = &up[j - 1];
            let next = half.iter().map(|&a| half[a]).collect();
            up.push(next);
        }
        Lca { tree, up }
    }

    /// Depth of `v` (root has depth 0).
    pub fn depth(&self, v: usize) -> usize {
        self.tree.depth(v)
    }

    /// The root node.
    pub fn root(&self) -> usize {
        self.tree.root()
    }

    /// The ancestor of `v` at distance `k` (saturating at the root).
    pub fn ancestor(&self, mut v: usize, mut k: usize) -> usize {
        let mut j = 0;
        while k > 0 {
            if k & 1 == 1 {
                v = self.up[j.min(self.up.len() - 1)][v];
            }
            k >>= 1;
            j += 1;
        }
        v
    }

    /// Lowest common ancestor of `a` and `b`.
    pub fn lca(&self, mut a: usize, mut b: usize) -> usize {
        if self.depth(a) < self.depth(b) {
            std::mem::swap(&mut a, &mut b);
        }
        a = self.ancestor(a, self.depth(a) - self.depth(b));
        if a == b {
            return a;
        }
        for j in (0..self.up.len()).rev() {
            if self.up[j][a] != self.up[j][b] {
                a = self.up[j][a];
                b = self.up[j][b];
            }
        }
        self.up[0][a]
    }

    /// LCA of a non-empty set of nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn lca_of_set(&self, nodes: &[usize]) -> usize {
        let mut acc = *nodes.first().expect("non-empty set");
        for &v in &nodes[1..] {
            acc = self.lca(acc, v);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minex_graphs::{generators, traversal};
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    #[test]
    fn lca_on_binary_tree() {
        let g = generators::binary_tree(15);
        let parent = traversal::bfs(&g, 0).parent;
        let lca = Lca::new(&parent);
        assert_eq!(lca.lca(7, 8), 3);
        assert_eq!(lca.lca(7, 9), 1);
        assert_eq!(lca.lca(7, 14), 0);
        assert_eq!(lca.lca(5, 5), 5);
        assert_eq!(lca.lca(0, 12), 0);
        assert_eq!(lca.depth(14), 3);
        assert_eq!(lca.ancestor(14, 2), 2);
        assert_eq!(lca.ancestor(14, 10), 0);
    }

    #[test]
    fn lca_matches_naive_on_random_trees() {
        let mut rng = StdRng::seed_from_u64(64);
        let g = generators::random_tree(300, &mut rng);
        let bfs = traversal::bfs(&g, 0);
        let lca = Lca::new(&bfs.parent);
        let naive = |mut a: usize, mut b: usize| -> usize {
            while a != b {
                if bfs.dist[a] >= bfs.dist[b] {
                    a = bfs.parent[a].unwrap();
                } else {
                    b = bfs.parent[b].unwrap();
                }
            }
            a
        };
        for _ in 0..500 {
            let a = rng.random_range(0..300);
            let b = rng.random_range(0..300);
            assert_eq!(lca.lca(a, b), naive(a, b), "lca({a},{b})");
        }
    }

    #[test]
    fn lca_of_set() {
        let g = generators::binary_tree(15);
        let parent = traversal::bfs(&g, 0).parent;
        let lca = Lca::new(&parent);
        assert_eq!(lca.lca_of_set(&[7, 8, 9]), 1);
        assert_eq!(lca.lca_of_set(&[14]), 14);
        assert_eq!(lca.lca_of_set(&[7, 8, 13]), 0);
    }

    #[test]
    fn singleton() {
        let lca = Lca::new(&[None]);
        assert_eq!(lca.lca(0, 0), 0);
        assert_eq!(lca.root(), 0);
    }
}
