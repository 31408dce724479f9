//! Property battery for [`ParentTree`]: on random trees under random node
//! labels, every part of the layout must match a naive derivation from the
//! parent pointers alone:
//!
//! * children ascending, each naming its parent;
//! * depths counted by walking to the root;
//! * the pre-order of a recursive DFS that visits children last id first,
//!   with every subtree the contiguous range of its size;
//! * LCA as the deepest node both ancestor sets share.
//!
//! Pointer sets that are not exactly one tree (two roots, a cycle through
//! every node, an out-of-range parent, a cycle below the root) are
//! rejected with the matching [`TreeError`].

use proptest::prelude::*;

use minex_graphs::{ParentTree, TreeError};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// A random tree on `n` nodes: a random recursive tree (each node hangs
/// below an earlier one) whose labels are then shuffled.
fn random_parents(n: usize, rng: &mut StdRng) -> Vec<Option<usize>> {
    let mut label: Vec<usize> = (0..n).collect();
    label.shuffle(rng);
    let mut parent = vec![None; n];
    for i in 1..n {
        parent[label[i]] = Some(label[rng.random_range(0..i)]);
    }
    parent
}

/// `v` and its ancestors, from `v` up to the root.
fn ancestors(parent: &[Option<usize>], mut v: usize) -> Vec<usize> {
    let mut out = vec![v];
    while let Some(p) = parent[v] {
        out.push(p);
        v = p;
    }
    out
}

/// The recursive DFS the layout documents: children in descending id.
fn naive_preorder(parent: &[Option<usize>], v: usize, out: &mut Vec<usize>) {
    out.push(v);
    for c in (0..parent.len()).rev() {
        if parent[c] == Some(v) {
            naive_preorder(parent, c, out);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn layout_matches_naive_derivations(n in 1usize..80, seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let parent = random_parents(n, &mut rng);
        let t = ParentTree::new(parent.clone()).unwrap();
        let root = parent.iter().position(Option::is_none).unwrap();
        prop_assert_eq!((t.n(), t.root()), (n, root));
        prop_assert_eq!(t.parents(), &parent[..]);
        let mut child_count = 0;
        for v in 0..n {
            let kids = t.children(v);
            prop_assert!(kids.windows(2).all(|w| w[0] < w[1]), "children of {} ascend", v);
            for &c in kids {
                prop_assert_eq!(parent[c], Some(v));
            }
            child_count += kids.len();
            prop_assert_eq!(t.depth(v), ancestors(&parent, v).len() - 1, "depth of {}", v);
        }
        prop_assert_eq!(child_count, n - 1);
        prop_assert_eq!(t.height(), (0..n).map(|v| t.depth(v)).max().unwrap());

        let mut naive = Vec::new();
        naive_preorder(&parent, root, &mut naive);
        prop_assert_eq!(t.preorder(), &naive[..]);
        let mut pos = vec![0; n];
        for (i, &v) in t.preorder().iter().enumerate() {
            pos[v] = i;
        }
        for (v, &at) in pos.iter().enumerate() {
            let mut below: Vec<usize> =
                (0..n).filter(|&x| ancestors(&parent, x).contains(&v)).collect();
            prop_assert_eq!(t.subtree_size(v), below.len());
            let mut range = t.preorder()[at..at + below.len()].to_vec();
            below.sort_unstable();
            range.sort_unstable();
            prop_assert_eq!(range, below, "subtree of {} is one range", v);
        }

        for _ in 0..4 * n {
            let a = rng.random_range(0..n);
            let b = rng.random_range(0..n);
            let of_b = ancestors(&parent, b);
            let naive_lca = ancestors(&parent, a)
                .into_iter()
                .find(|x| of_b.contains(x))
                .unwrap();
            prop_assert_eq!(t.lca(a, b), naive_lca, "lca({}, {})", a, b);
        }
    }

    #[test]
    fn pointers_that_are_not_one_tree_are_rejected(n in 2usize..60, seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let parent = random_parents(n, &mut rng);
        let root = parent.iter().position(Option::is_none).unwrap();
        let other = (root + rng.random_range(1..n)) % n;

        let mut two_roots = parent.clone();
        two_roots[other] = None;
        prop_assert_eq!(
            ParentTree::new(two_roots).unwrap_err(),
            TreeError::TwoRoots(root.min(other), root.max(other))
        );

        // The root hangs below another node: a cycle, and no root.
        let mut cycle = parent.clone();
        cycle[root] = Some(other);
        prop_assert_eq!(ParentTree::new(cycle).unwrap_err(), TreeError::NoRoot);

        let mut out_of_range = parent.clone();
        out_of_range[other] = Some(n + rng.random_range(0..n));
        prop_assert_eq!(
            ParentTree::new(out_of_range).unwrap_err(),
            TreeError::ParentOutOfRange(other)
        );

        // `other` hangs below a node of its own subtree (itself included):
        // that subtree is cut off from the root.
        let subtree: Vec<usize> = (0..n)
            .filter(|&x| ancestors(&parent, x).contains(&other))
            .collect();
        let mut unreachable = parent.clone();
        unreachable[other] = Some(subtree[rng.random_range(0..subtree.len())]);
        prop_assert_eq!(
            ParentTree::new(unreachable).unwrap_err(),
            TreeError::Unreachable(subtree[0])
        );
    }
}
