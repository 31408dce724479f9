//! Clique-sum decomposition trees (Definition 8) and the depth-compression
//! ("folding") machinery of Theorem 7.
//!
//! Lemma 1 gives clique-sum shortcuts whose congestion scales with the
//! *depth* `d_DT` of the decomposition tree. Theorem 7 removes that
//! dependence by folding every heavy-light chain of the tree into a balanced
//! binary tree of bag-triples, at the price of *double edges*: a folded tree
//! edge may carry up to two partial cliques. [`FoldedCliqueSumTree`]
//! implements exactly that transformation and machine-checks its guarantees.

use minex_graphs::generators::CliqueSumRecord;
use minex_graphs::{Graph, NodeId, ParentTree};

use crate::error::DecompError;
use crate::heavy_light::HeavyLight;

/// A validated, rooted clique-sum decomposition tree.
#[derive(Debug, Clone)]
pub struct CliqueSumTree {
    record: CliqueSumRecord,
    tree: ParentTree,
    /// For bag `b != root`: index into `record.links` of its parent link.
    parent_link: Vec<Option<usize>>,
}

impl CliqueSumTree {
    /// Wraps a construction record, rooting the bag tree at bag 0.
    ///
    /// # Errors
    ///
    /// Returns [`DecompError::BagGraphNotATree`] if the links do not form a
    /// tree over the bags, or [`DecompError::BagOutOfRange`] on bad indices.
    pub fn new(record: CliqueSumRecord) -> Result<Self, DecompError> {
        let b = record.bags.len();
        if b == 0 {
            return Err(DecompError::BagGraphNotATree);
        }
        if record.links.len() != b - 1 {
            return Err(DecompError::BagGraphNotATree);
        }
        let mut parent: Vec<Option<usize>> = vec![None; b];
        let mut parent_link: Vec<Option<usize>> = vec![None; b];
        for (li, &(p, c, _)) in record.links.iter().enumerate() {
            if p >= b {
                return Err(DecompError::BagOutOfRange(p));
            }
            if c >= b {
                return Err(DecompError::BagOutOfRange(c));
            }
            if parent[c].is_some() || c == 0 {
                return Err(DecompError::BagGraphNotATree);
            }
            parent[c] = Some(p);
            parent_link[c] = Some(li);
        }
        // Bag 0 is now the only bag without a parent, so the layout rejects
        // exactly the links that close a cycle.
        let tree = ParentTree::new(parent).map_err(|_| DecompError::BagGraphNotATree)?;
        Ok(CliqueSumTree {
            record,
            tree,
            parent_link,
        })
    }

    /// The underlying record.
    pub fn record(&self) -> &CliqueSumRecord {
        &self.record
    }

    /// Number of bags.
    pub fn len(&self) -> usize {
        self.record.bags.len()
    }

    /// Whether the tree has no bags (never true for a validated tree).
    pub fn is_empty(&self) -> bool {
        self.record.bags.is_empty()
    }

    /// Bag `i`'s sorted node set.
    pub fn bag(&self, i: usize) -> &[NodeId] {
        &self.record.bags[i]
    }

    /// Parent of bag `i` (`None` for the root, bag 0).
    pub fn parent(&self, i: usize) -> Option<usize> {
        self.tree.parent(i)
    }

    /// Children of bag `i`, in ascending index.
    pub fn children(&self, i: usize) -> &[usize] {
        self.tree.children(i)
    }

    /// Depth of bag `i` (root = 0).
    pub fn depth(&self, i: usize) -> usize {
        self.tree.depth(i)
    }

    /// Maximum bag depth — the `d_DT` of Lemma 1.
    pub fn max_depth(&self) -> usize {
        self.tree.height()
    }

    /// The separator (partial clique `C_f`) between bag `i` and its parent.
    pub fn separator_to_parent(&self, i: usize) -> Option<&[NodeId]> {
        self.parent_link[i].map(|li| &self.record.links[li].2[..])
    }

    /// Index (into the record's links) of bag `i`'s parent link.
    pub fn parent_link_index(&self, i: usize) -> Option<usize> {
        self.parent_link[i]
    }

    /// For each node of `g`, the sorted list of bags containing it.
    pub fn bags_of_nodes(&self, n: usize) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); n];
        for (i, bag) in self.record.bags.iter().enumerate() {
            for &v in bag {
                out[v].push(i);
            }
        }
        out
    }

    /// Checks the five properties of Definition 8 against `g`.
    ///
    /// # Errors
    ///
    /// Returns the first violated property.
    pub fn validate(&self, g: &Graph) -> Result<(), DecompError> {
        // (1) Bags cover all nodes; (2) bag contents are nodes of G.
        let mut covered = vec![false; g.n()];
        for bag in &self.record.bags {
            for &v in bag {
                if v >= g.n() {
                    return Err(DecompError::NodeNotCovered(v));
                }
                covered[v] = true;
            }
        }
        if let Some(v) = covered.iter().position(|&c| !c) {
            return Err(DecompError::NodeNotCovered(v));
        }
        // (3) B_i ∩ B_j = C_f for every link.
        for (li, (p, c, sep)) in self.record.links.iter().enumerate() {
            let mut inter: Vec<NodeId> = self.record.bags[*p]
                .iter()
                .copied()
                .filter(|v| self.record.bags[*c].binary_search(v).is_ok())
                .collect();
            inter.sort_unstable();
            let mut sep_sorted = sep.clone();
            sep_sorted.sort_unstable();
            if inter != sep_sorted {
                return Err(DecompError::SeparatorMismatch { link: li });
            }
        }
        // (4) Bags containing each node are connected in the tree.
        let bags_of = self.bags_of_nodes(g.n());
        for (v, bags) in bags_of.iter().enumerate() {
            if bags.is_empty() {
                continue;
            }
            // Count bags in the set whose parent is also in the set; for a
            // connected subtree this must be exactly |bags| - 1.
            let in_set = |b: usize| bags.binary_search(&b).is_ok();
            let with_parent_in_set = bags
                .iter()
                .filter(|&&b| self.parent(b).is_some_and(in_set))
                .count();
            if with_parent_in_set != bags.len() - 1 {
                return Err(DecompError::NodeBagsDisconnected(v));
            }
        }
        // (5) Every edge lives in some bag.
        for (_, u, v) in g.edges() {
            let ok = bags_of[u]
                .iter()
                .any(|b| bags_of[v].binary_search(b).is_ok());
            if !ok {
                return Err(DecompError::EdgeNotCovered(u, v));
            }
        }
        Ok(())
    }

    /// Folds the tree to depth `O(log² n)` following Theorem 7: heavy-light
    /// decomposition, then balanced folding of each chain.
    pub fn fold(&self) -> FoldedCliqueSumTree {
        let hl = HeavyLight::new(self.tree.parents());
        let b = self.len();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut group_of: Vec<usize> = vec![usize::MAX; b];
        let mut fparent: Vec<Option<usize>> = Vec::new();
        let mut links_to_parent: Vec<Vec<usize>> = Vec::new();
        // Fold each chain into the arena; connect chains afterwards.
        let mut chain_folded_root: Vec<usize> = Vec::with_capacity(hl.chains().len());
        for chain in hl.chains() {
            let root = fold_segment(
                chain,
                0,
                chain.len() - 1,
                &mut groups,
                &mut group_of,
                &mut fparent,
                &mut links_to_parent,
                &self.parent_link,
            );
            chain_folded_root.push(root);
        }
        for (ci, chain) in hl.chains().iter().enumerate() {
            let top = chain[0];
            if let Some(p) = self.parent(top) {
                let f = chain_folded_root[ci];
                fparent[f] = Some(group_of[p]);
                links_to_parent[f] = vec![self.parent_link[top].expect("non-root bag has a link")];
            }
        }
        let folded = ParentTree::new(fparent).expect("the folded chains hang below one root");
        let fn_count = groups.len();
        FoldedCliqueSumTree {
            groups,
            group_of,
            parent: folded.parents().to_vec(),
            children: (0..fn_count).map(|f| folded.children(f).to_vec()).collect(),
            depth: (0..fn_count).map(|f| folded.depth(f)).collect(),
            links_to_parent,
            root: folded.root(),
        }
    }
}

/// Recursively folds `chain[lo..=hi]` into balanced groups of ≤ 3 bags.
/// Returns the folded node covering the segment's endpoints.
#[allow(clippy::too_many_arguments)]
fn fold_segment(
    chain: &[usize],
    lo: usize,
    hi: usize,
    groups: &mut Vec<Vec<usize>>,
    group_of: &mut [usize],
    fparent: &mut Vec<Option<usize>>,
    links_to_parent: &mut Vec<Vec<usize>>,
    parent_link: &[Option<usize>],
) -> usize {
    let mid = lo + (hi - lo) / 2;
    let mut group = vec![chain[lo], chain[mid], chain[hi]];
    group.sort_unstable();
    group.dedup();
    let f = groups.len();
    for &b in &group {
        group_of[b] = f;
    }
    groups.push(group);
    fparent.push(None);
    links_to_parent.push(Vec::new());
    // Left sub-segment (lo+1 ..= mid-1).
    if mid >= lo + 2 {
        let child = fold_segment(
            chain,
            lo + 1,
            mid - 1,
            groups,
            group_of,
            fparent,
            links_to_parent,
            parent_link,
        );
        fparent[child] = Some(f);
        links_to_parent[child] = vec![
            parent_link[chain[lo + 1]].expect("chain bag has parent link"),
            parent_link[chain[mid]].expect("chain bag has parent link"),
        ];
    }
    // Right sub-segment (mid+1 ..= hi-1).
    if hi >= mid + 2 {
        let child = fold_segment(
            chain,
            mid + 1,
            hi - 1,
            groups,
            group_of,
            fparent,
            links_to_parent,
            parent_link,
        );
        fparent[child] = Some(f);
        links_to_parent[child] = vec![
            parent_link[chain[mid + 1]].expect("chain bag has parent link"),
            parent_link[chain[hi]].expect("chain bag has parent link"),
        ];
    }
    f
}

/// The Theorem 7 folded decomposition tree: depth `O(log² n)`, each folded
/// edge carrying at most two partial cliques ("double edges").
#[derive(Debug, Clone)]
pub struct FoldedCliqueSumTree {
    /// `groups[f]` — the original bags merged into folded node `f` (≤ 3).
    pub groups: Vec<Vec<usize>>,
    /// `group_of[b]` — the folded node containing original bag `b`.
    pub group_of: Vec<usize>,
    /// Folded-tree parents.
    pub parent: Vec<Option<usize>>,
    /// Folded-tree children.
    pub children: Vec<Vec<usize>>,
    /// Folded-tree depths.
    pub depth: Vec<usize>,
    /// `links_to_parent[f]` — indices (into the record's links) of the
    /// original partial cliques crossing the folded edge `f → parent(f)`;
    /// at most two (a "double edge").
    pub links_to_parent: Vec<Vec<usize>>,
    /// The folded root.
    pub root: usize,
}

impl FoldedCliqueSumTree {
    /// Maximum folded depth.
    pub fn max_depth(&self) -> usize {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Checks the structural guarantees of the folding against its source
    /// tree: groups partition the bags, group size ≤ 3, each folded edge
    /// carries ≤ 2 links, every original link is accounted for exactly once
    /// (internal to a group or on the folded edge between the two incident
    /// groups), and the depth is `O(log² b)`.
    ///
    /// # Errors
    ///
    /// Returns a [`DecompError`] naming the violated guarantee.
    pub fn validate(&self, source: &CliqueSumTree) -> Result<(), DecompError> {
        let b = source.len();
        // Partition + size bound.
        let mut seen = vec![false; b];
        for (f, group) in self.groups.iter().enumerate() {
            if group.is_empty() || group.len() > 3 {
                return Err(DecompError::BagGraphNotATree);
            }
            for &bag in group {
                if bag >= b || seen[bag] || self.group_of[bag] != f {
                    return Err(DecompError::BagOutOfRange(bag));
                }
                seen[bag] = true;
            }
        }
        if seen.iter().any(|&s| !s) {
            return Err(DecompError::BagGraphNotATree);
        }
        // Double-edge bound and link accounting.
        let mut link_seen = vec![false; source.record().links.len()];
        for (f, links) in self.links_to_parent.iter().enumerate() {
            if links.len() > 2 {
                return Err(DecompError::BagGraphNotATree);
            }
            let p = match self.parent[f] {
                Some(p) => p,
                None => {
                    if !links.is_empty() {
                        return Err(DecompError::BagGraphNotATree);
                    }
                    continue;
                }
            };
            for &li in links {
                let (lp, lc, _) = &source.record().links[li];
                // The link must connect these two folded nodes.
                let gp = self.group_of[*lp];
                let gc = self.group_of[*lc];
                if !(gp == p && gc == f || gp == f && gc == p) {
                    return Err(DecompError::SeparatorMismatch { link: li });
                }
                if link_seen[li] {
                    return Err(DecompError::SeparatorMismatch { link: li });
                }
                link_seen[li] = true;
            }
        }
        for (li, (lp, lc, _)) in source.record().links.iter().enumerate() {
            if !link_seen[li] && self.group_of[*lp] != self.group_of[*lc] {
                return Err(DecompError::SeparatorMismatch { link: li });
            }
        }
        // Depth bound: (log2 b + 1)^2 + 1, a concrete O(log² b).
        let logb = (usize::BITS - b.leading_zeros()) as usize;
        if self.max_depth() > (logb + 1) * (logb + 1) + 1 {
            return Err(DecompError::BagGraphNotATree);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minex_graphs::generators::{self, CliqueSumBuilder};
    use rand::{rngs::StdRng, SeedableRng};

    fn path_clique_sum(len: usize) -> (minex_graphs::Graph, CliqueSumRecord) {
        // Chain of triangulated grids glued edge-to-edge: DT is a path.
        let comp = generators::triangulated_grid(3, 3);
        let mut builder = CliqueSumBuilder::new(&comp, 2);
        let mut last_map: Vec<NodeId> = (0..comp.n()).collect();
        for _ in 1..len {
            // Glue onto the last component's bottom-right edge (7, 8).
            let host = vec![last_map[7], last_map[8]];
            last_map = builder.glue(&comp, &host, &[0, 1]).unwrap();
        }
        builder.build()
    }

    #[test]
    fn path_record_validates() {
        let (g, rec) = path_clique_sum(10);
        let tree = CliqueSumTree::new(rec).unwrap();
        tree.validate(&g).unwrap();
        assert_eq!(tree.max_depth(), 9);
        assert_eq!(tree.len(), 10);
        assert_eq!(tree.separator_to_parent(1).unwrap().len(), 2);
    }

    #[test]
    fn random_clique_sum_validates() {
        let comps = vec![
            generators::triangulated_grid(3, 3),
            generators::complete(4),
            generators::cycle(6),
        ];
        let mut rng = StdRng::seed_from_u64(5);
        let (g, rec) = generators::random_clique_sum(&comps, 20, 3, &mut rng);
        let tree = CliqueSumTree::new(rec).unwrap();
        tree.validate(&g).unwrap();
    }

    #[test]
    fn folding_compresses_paths() {
        let (_, rec) = path_clique_sum(64);
        let tree = CliqueSumTree::new(rec).unwrap();
        assert_eq!(tree.max_depth(), 63);
        let folded = tree.fold();
        folded.validate(&tree).unwrap();
        // A path of 64 bags folds to depth ~log2(64).
        assert!(folded.max_depth() <= 7, "depth={}", folded.max_depth());
    }

    #[test]
    fn folding_preserves_structure_on_random_trees() {
        let comps = vec![generators::triangulated_grid(3, 3), generators::complete(4)];
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (g, rec) = generators::random_clique_sum(&comps, 40, 3, &mut rng);
            let tree = CliqueSumTree::new(rec).unwrap();
            tree.validate(&g).unwrap();
            let folded = tree.fold();
            folded.validate(&tree).unwrap();
        }
    }

    #[test]
    fn folded_depth_beats_original_on_deep_trees() {
        let (_, rec) = path_clique_sum(200);
        let tree = CliqueSumTree::new(rec).unwrap();
        let folded = tree.fold();
        folded.validate(&tree).unwrap();
        assert!(folded.max_depth() < tree.max_depth() / 4);
    }

    #[test]
    fn singleton_tree_folds() {
        let comp = generators::complete(3);
        let builder = CliqueSumBuilder::new(&comp, 2);
        let (g, rec) = builder.build();
        let tree = CliqueSumTree::new(rec).unwrap();
        tree.validate(&g).unwrap();
        let folded = tree.fold();
        folded.validate(&tree).unwrap();
        assert_eq!(folded.max_depth(), 0);
        assert_eq!(folded.groups.len(), 1);
    }

    #[test]
    fn rejects_malformed_records() {
        // Two bags, no links.
        let rec = CliqueSumRecord {
            k: 2,
            bags: vec![vec![0], vec![1]],
            links: vec![],
        };
        assert!(CliqueSumTree::new(rec).is_err());
        // Link to out-of-range bag.
        let rec = CliqueSumRecord {
            k: 2,
            bags: vec![vec![0], vec![1]],
            links: vec![(0, 5, vec![0])],
        };
        assert!(CliqueSumTree::new(rec).is_err());
        // Separator mismatch.
        let rec = CliqueSumRecord {
            k: 2,
            bags: vec![vec![0, 1], vec![1, 2]],
            links: vec![(0, 1, vec![0, 1])],
        };
        let g = generators::path(3);
        let tree = CliqueSumTree::new(rec).unwrap();
        assert_eq!(
            tree.validate(&g),
            Err(DecompError::SeparatorMismatch { link: 0 })
        );
    }
}
