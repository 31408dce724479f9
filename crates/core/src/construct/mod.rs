//! Shortcut constructions.
//!
//! Two kinds of constructors exist, mirroring the paper's split between
//! algorithm and analysis:
//!
//! * **Structure-oblivious** ([`WholeTreeBuilder`], [`SteinerBuilder`],
//!   [`CappedBuilder`], [`AutoCappedBuilder`]) — run on any network without
//!   a witness, like the actual distributed algorithm of \[HIZ16a\] that
//!   Theorem 1 invokes.
//! * **Witness-based** ([`CliqueSumShortcutBuilder`],
//!   [`TreewidthBuilder`], [`ApexBuilder`]) — consume the structure records
//!   produced by the generators and realize the existence proofs of
//!   Theorems 5, 7, and 8 so their promised parameters can be measured.

mod apex;
mod capped;
mod clique_sum;
mod naive;
mod treewidth;

pub use apex::ApexBuilder;
pub use capped::{AutoCappedBuilder, CappedBuilder};
pub use clique_sum::CliqueSumShortcutBuilder;
pub use naive::{SteinerBuilder, WholeTreeBuilder};
pub use treewidth::TreewidthBuilder;

use minex_graphs::{EdgeId, Graph, NodeId};

use crate::parts::Partition;
use crate::shortcut::{measure_quality, QualityReport, Shortcut};
use crate::spanning::RootedTree;

/// A tree-restricted shortcut construction: given the network, a spanning
/// tree, and the parts, produce one edge set per part (all on the tree).
///
/// The trait is **object safe** end to end: references and boxes to erased
/// builders (`&dyn ShortcutBuilder`, `Box<dyn ShortcutBuilder>`) implement
/// the trait themselves, so session types like `minex::Solver` and plan
/// types like [`crate::ShortcutPlan`] can hold heterogeneous builders
/// behind one pointer without generics.
///
/// Callers that need the shortcut's quality as well (plans, the MST
/// charge, the shortcut SSSP tier) call
/// [`build_measured`](Self::build_measured). Its default builds and then
/// runs [`measure_quality`]; a builder that already knows its output's
/// quality — one that picks among candidates by quality, like
/// [`AutoCappedBuilder`] — overrides it to hand that report back instead
/// of having it measured twice.
pub trait ShortcutBuilder: std::fmt::Debug {
    /// Short identifier for reports.
    fn name(&self) -> &'static str;

    /// Builds the shortcut. Implementations must return tree-restricted
    /// assignments covering exactly `parts.len()` parts.
    fn build(&self, g: &Graph, tree: &RootedTree, parts: &Partition) -> Shortcut;

    /// Builds the shortcut together with its [`QualityReport`]. An override
    /// must return what [`build`](Self::build) returns, paired with exactly
    /// `measure_quality(g, tree, parts, &shortcut)`.
    fn build_measured(
        &self,
        g: &Graph,
        tree: &RootedTree,
        parts: &Partition,
    ) -> (Shortcut, QualityReport) {
        let shortcut = self.build(g, tree, parts);
        let quality = measure_quality(g, tree, parts, &shortcut);
        (shortcut, quality)
    }

    /// Whether each part's edges depend on nothing but that part's nodes
    /// and the tree they hang on, so that [`build`](Self::build) on any
    /// sub-partition returns exactly those parts' edges of the full build.
    /// [`ShortcutPlan::repair_parts`](crate::ShortcutPlan::repair_parts)
    /// then rebuilds only the parts a mutation reached. The default is
    /// `false`, which builders with cross-part coupling (capped congestion
    /// balancing, global quality sweeps) must keep.
    fn part_local(&self) -> bool {
        false
    }
}

impl<B: ShortcutBuilder + ?Sized> ShortcutBuilder for &B {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn build(&self, g: &Graph, tree: &RootedTree, parts: &Partition) -> Shortcut {
        (**self).build(g, tree, parts)
    }
    fn build_measured(
        &self,
        g: &Graph,
        tree: &RootedTree,
        parts: &Partition,
    ) -> (Shortcut, QualityReport) {
        (**self).build_measured(g, tree, parts)
    }
    fn part_local(&self) -> bool {
        (**self).part_local()
    }
}

impl<B: ShortcutBuilder + ?Sized> ShortcutBuilder for Box<B> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn build(&self, g: &Graph, tree: &RootedTree, parts: &Partition) -> Shortcut {
        (**self).build(g, tree, parts)
    }
    fn build_measured(
        &self,
        g: &Graph,
        tree: &RootedTree,
        parts: &Partition,
    ) -> (Shortcut, QualityReport) {
        (**self).build_measured(g, tree, parts)
    }
    fn part_local(&self) -> bool {
        (**self).part_local()
    }
}

/// The connected components, within `g`, of each part's nodes as `owner`
/// assigns them: each sorted and paired with its part, in part order, and
/// a part's pieces in order of their least node.
pub(crate) fn owned_pieces(
    g: &Graph,
    owner: impl Fn(NodeId) -> Option<usize>,
) -> Vec<(usize, Vec<NodeId>)> {
    let owner: Vec<Option<usize>> = (0..g.n()).map(owner).collect();
    let mut seen = vec![false; g.n()];
    let mut pieces = Vec::new();
    for start in 0..g.n() {
        let Some(p) = owner[start] else { continue };
        if seen[start] {
            continue;
        }
        seen[start] = true;
        let mut piece = vec![start];
        let mut next = 0;
        while let Some(&v) = piece.get(next) {
            next += 1;
            for &w in g.neighbor_targets(v) {
                let w = w as NodeId;
                if owner[w] == Some(p) && !seen[w] {
                    seen[w] = true;
                    piece.push(w);
                }
            }
        }
        piece.sort_unstable();
        pieces.push((p, piece));
    }
    pieces.sort_unstable_by_key(|(p, piece)| (*p, piece[0]));
    pieces
}

/// Runs `builder` on `g` and `tree` with one part per piece — disjoint,
/// connected and sorted node sets of `g`, each paired with its owner part
/// — and appends each piece's edges to its owner's slot of `per_part`, as
/// `splice` maps them (`None` drops an edge).
///
/// This is how a construction solves a sub-problem: plan repair on the
/// dirty parts, the apex builder on the [`owned_pieces`] of each cell, and
/// the clique-sum builder on those of each repaired bag component.
pub(crate) fn build_on_pieces<B: ShortcutBuilder + ?Sized>(
    builder: &B,
    g: &Graph,
    tree: &RootedTree,
    pieces: Vec<(usize, Vec<NodeId>)>,
    mut splice: impl FnMut(EdgeId) -> Option<EdgeId>,
    per_part: &mut [Vec<EdgeId>],
) {
    if pieces.is_empty() {
        return;
    }
    let (owners, pieces): (Vec<usize>, Vec<Vec<NodeId>>) = pieces.into_iter().unzip();
    let parts = Partition::new_unchecked(g, pieces);
    let shortcut = builder.build(g, tree, &parts);
    for (piece, &p) in owners.iter().enumerate() {
        per_part[p].extend(shortcut.edges(piece).iter().filter_map(|&e| splice(e)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minex_graphs::generators;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// On a random connected graph with random labels (some nodes
        /// unlabelled): the pieces are the connected components of each
        /// label's nodes, in part order; and on a random dirty subset of
        /// the resulting parts, Steiner's `build` — directly and through
        /// `build_on_pieces`, as plan repair calls it — returns exactly
        /// their edges of the full build.
        #[test]
        fn steiner_builds_any_sub_partition_as_the_full_build_does(
            n in 1usize..60, extra in 0usize..90, labels in 1usize..8,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::random_connected(n, extra, &mut rng);
            let tree = RootedTree::bfs(&g, rng.random_range(0..n));
            let label: Vec<Option<usize>> = (0..n)
                .map(|_| Some(rng.random_range(0..=labels)).filter(|&l| l < labels))
                .collect();

            let pieces = owned_pieces(&g, |v| label[v]);
            let mut piece_of = vec![usize::MAX; n];
            for (i, (owner, piece)) in pieces.iter().enumerate() {
                proptest::prop_assert!(piece.windows(2).all(|w| w[0] < w[1]));
                for &v in piece {
                    proptest::prop_assert_eq!(label[v], Some(*owner));
                    piece_of[v] = i;
                }
            }
            // Exactly the labelled nodes, each in one piece.
            let covered: usize = pieces.iter().map(|(_, p)| p.len()).sum();
            proptest::prop_assert_eq!(covered, label.iter().flatten().count());
            for v in 0..n {
                proptest::prop_assert_eq!(piece_of[v] != usize::MAX, label[v].is_some());
            }
            // Part order, then least node.
            proptest::prop_assert!(pieces
                .windows(2)
                .all(|w| (w[0].0, w[0].1[0]) < (w[1].0, w[1].1[0])));
            // Maximal: an edge inside one label stays inside one piece.
            for (_, u, v) in g.edges() {
                if label[u].is_some() && label[u] == label[v] {
                    proptest::prop_assert_eq!(piece_of[u], piece_of[v]);
                }
            }
            // Connected and disjoint: the pieces form a partition.
            let parts = Partition::new(&g, pieces.into_iter().map(|(_, p)| p).collect())
                .expect("pieces are disjoint and connected");

            let full = SteinerBuilder.build(&g, &tree, &parts);
            let dirty: Vec<usize> = (0..parts.len()).filter(|_| rng.random_bool(0.5)).collect();
            let sub = Partition::new(&g, dirty.iter().map(|&i| parts.part(i).to_vec()).collect())
                .expect("parts of a partition");
            let rebuilt = SteinerBuilder.build(&g, &tree, &sub);
            for (j, &i) in dirty.iter().enumerate() {
                proptest::prop_assert_eq!(rebuilt.edges(j), full.edges(i));
            }
            let mut per_part = vec![Vec::new(); parts.len()];
            let pieces = dirty.iter().map(|&i| (i, parts.part(i).to_vec())).collect();
            build_on_pieces(&SteinerBuilder, &g, &tree, pieces, Some, &mut per_part);
            for (i, edges) in per_part.iter().enumerate() {
                let expected: &[EdgeId] = if dirty.contains(&i) { full.edges(i) } else { &[] };
                proptest::prop_assert_eq!(edges.as_slice(), expected);
            }
        }
    }

    fn part_local<B: ShortcutBuilder>(builder: B) -> bool {
        builder.part_local()
    }

    #[test]
    fn references_and_boxes_forward_part_locality() {
        let (steiner, capped) = (&SteinerBuilder, &AutoCappedBuilder);
        let boxed_steiner: Box<dyn ShortcutBuilder> = Box::new(SteinerBuilder);
        let boxed_capped: Box<dyn ShortcutBuilder> = Box::new(AutoCappedBuilder);
        assert!(part_local(steiner));
        assert!(part_local(&*boxed_steiner));
        assert!(part_local(&boxed_steiner));
        assert!(part_local(boxed_steiner));
        assert!(!part_local(capped));
        assert!(!part_local(&*boxed_capped));
        assert!(!part_local(boxed_capped));
        assert!(!part_local(WholeTreeBuilder));
    }
}
