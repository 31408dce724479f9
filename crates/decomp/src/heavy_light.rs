//! Heavy-light decomposition of rooted trees \[HT84\], exactly as used in the
//! Theorem 7 compression: the decomposition tree is split into vertex-disjoint
//! *heavy chains* such that any root-to-leaf path meets `O(log n)` chains;
//! each chain is then folded independently.

use minex_graphs::ParentTree;

/// Heavy-light decomposition of a rooted tree given by parent pointers.
#[derive(Debug, Clone)]
pub struct HeavyLight {
    /// `chain_of[v]` — index of the chain containing `v`.
    chain_of: Vec<usize>,
    /// `chains[c]` — nodes of chain `c`, from its top (closest to the root)
    /// downward.
    chains: Vec<Vec<usize>>,
    tree: ParentTree,
}

impl HeavyLight {
    /// Decomposes the rooted tree encoded by `parent` (exactly one `None`).
    ///
    /// # Panics
    ///
    /// Panics if `parent` does not encode a tree with exactly one root.
    pub fn new(parent: &[Option<usize>]) -> Self {
        let tree = ParentTree::new(parent.to_vec()).unwrap_or_else(|e| panic!("{e}"));
        let n = tree.n();
        // Heavy child of each node: the child with the largest subtree (the
        // last such in ascending id).
        let heavy: Vec<Option<usize>> = (0..n)
            .map(|v| {
                tree.children(v)
                    .iter()
                    .copied()
                    .max_by_key(|&c| tree.subtree_size(c))
            })
            .collect();
        // Build chains in pre-order: each chain starts at a node whose
        // parent's heavy child is not itself (or the root).
        let mut chain_of = vec![usize::MAX; n];
        let mut chains = Vec::new();
        for &v in tree.preorder() {
            let is_chain_top = match tree.parent(v) {
                None => true,
                Some(p) => heavy[p] != Some(v),
            };
            if is_chain_top {
                let c = chains.len();
                let mut chain = Vec::new();
                let mut cur = Some(v);
                while let Some(x) = cur {
                    chain_of[x] = c;
                    chain.push(x);
                    cur = heavy[x];
                }
                chains.push(chain);
            }
        }
        HeavyLight {
            chain_of,
            chains,
            tree,
        }
    }

    /// The chains, each listed from top to bottom.
    pub fn chains(&self) -> &[Vec<usize>] {
        &self.chains
    }

    /// Chain index of `v`.
    pub fn chain_of(&self, v: usize) -> usize {
        self.chain_of[v]
    }

    /// Number of distinct chains met on the path from `v` to the root —
    /// `O(log n)` by the heavy-light property.
    pub fn chains_to_root(&self, v: usize) -> usize {
        let mut count = 1;
        let mut cur = v;
        loop {
            let top = self.chains[self.chain_of[cur]][0];
            match self.tree.parent(top) {
                Some(p) => {
                    count += 1;
                    cur = p;
                }
                None => return count,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minex_graphs::{generators, traversal};
    use rand::{rngs::StdRng, SeedableRng};

    fn tree_parents(n: usize, seed: u64) -> Vec<Option<usize>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_tree(n, &mut rng);
        traversal::bfs(&g, 0).parent
    }

    #[test]
    fn chains_partition_nodes() {
        let parent = tree_parents(200, 3);
        let hl = HeavyLight::new(&parent);
        let mut seen = vec![false; 200];
        for chain in hl.chains() {
            for &v in chain {
                assert!(!seen[v], "node {v} in two chains");
                seen[v] = true;
            }
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn chains_are_descending_paths() {
        let parent = tree_parents(150, 9);
        let hl = HeavyLight::new(&parent);
        for chain in hl.chains() {
            for w in chain.windows(2) {
                assert_eq!(parent[w[1]], Some(w[0]), "chain must follow parent links");
            }
        }
    }

    #[test]
    fn log_many_chains_to_root() {
        for seed in 0..5 {
            let n = 1 << 12;
            let parent = tree_parents(n, seed);
            let hl = HeavyLight::new(&parent);
            let bound = (n as f64).log2() as usize + 1;
            for v in 0..n {
                assert!(
                    hl.chains_to_root(v) <= bound,
                    "node {v}: {} chains > log bound {bound}",
                    hl.chains_to_root(v)
                );
            }
        }
    }

    #[test]
    fn path_tree_is_one_chain() {
        // A path rooted at its end has a single heavy chain.
        let parent: Vec<Option<usize>> = (0..50)
            .map(|v| if v == 0 { None } else { Some(v - 1) })
            .collect();
        let hl = HeavyLight::new(&parent);
        assert_eq!(hl.chains().len(), 1);
        assert_eq!(hl.chains()[0].len(), 50);
        assert_eq!(hl.chains_to_root(49), 1);
    }

    #[test]
    fn star_tree_has_leaf_chains() {
        let parent: Vec<Option<usize>> = (0..10)
            .map(|v| if v == 0 { None } else { Some(0) })
            .collect();
        let hl = HeavyLight::new(&parent);
        // Root chain has two nodes (root + heavy child); 8 singleton chains.
        assert_eq!(hl.chains().len(), 9);
        assert_eq!(hl.chains_to_root(5), 2);
    }

    #[test]
    fn singleton_tree() {
        let hl = HeavyLight::new(&[None]);
        assert_eq!(hl.chains().len(), 1);
        assert_eq!(hl.chains_to_root(0), 1);
    }
}
