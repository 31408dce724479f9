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

use minex_graphs::Graph;

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

    /// Incrementally rebuilds only the `dirty` parts of `prev`, reusing
    /// every other part's edges unchanged — the hook
    /// [`ShortcutPlan::repair`](crate::ShortcutPlan::repair) calls after
    /// edge churn.
    ///
    /// `prev` already has clean parts' edge ids remapped to `g`'s ids;
    /// dirty slots hold stale data and must be recomputed against
    /// `(g, tree, parts)`. An implementation may only override this if its
    /// per-part output depends on nothing outside that part's nodes and
    /// the tree structure they hang on — builders with cross-part coupling
    /// (capped congestion balancing, global quality sweeps) must keep the
    /// default, which returns `None` to request a full
    /// [`build`](Self::build).
    fn rebuild_parts(
        &self,
        _g: &Graph,
        _tree: &RootedTree,
        _parts: &Partition,
        _prev: &Shortcut,
        _dirty: &[usize],
    ) -> Option<Shortcut> {
        None
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
    fn rebuild_parts(
        &self,
        g: &Graph,
        tree: &RootedTree,
        parts: &Partition,
        prev: &Shortcut,
        dirty: &[usize],
    ) -> Option<Shortcut> {
        (**self).rebuild_parts(g, tree, parts, prev, dirty)
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
    fn rebuild_parts(
        &self,
        g: &Graph,
        tree: &RootedTree,
        parts: &Partition,
        prev: &Shortcut,
        dirty: &[usize],
    ) -> Option<Shortcut> {
        (**self).rebuild_parts(g, tree, parts, prev, dirty)
    }
}

/// Splits `nodes` into connected components within `g`: one sorted piece
/// per component, in the order of each piece's first node in `nodes`.
pub(crate) fn split_connected(g: &Graph, nodes: &[usize]) -> Vec<Vec<usize>> {
    let member: std::collections::HashSet<usize> = nodes.iter().copied().collect();
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for &start in nodes {
        if seen.contains(&start) {
            continue;
        }
        let mut piece = Vec::new();
        let mut stack = vec![start];
        seen.insert(start);
        while let Some(v) = stack.pop() {
            piece.push(v);
            for (w, _) in g.neighbors(v) {
                if member.contains(&w) && !seen.contains(&w) {
                    seen.insert(w);
                    stack.push(w);
                }
            }
        }
        piece.sort_unstable();
        out.push(piece);
    }
    out
}
