//! The plan-once / query-many seam: a [`ShortcutPlan`] bundles everything a
//! shortcut-driven algorithm needs about one `(network, tree, parts)`
//! configuration — the rooted spanning tree, the partition, the constructed
//! shortcut, and its measured [`QualityReport`] — computed **once** and then
//! served to arbitrarily many queries.
//!
//! The paper's central observation is that this one structural object
//! simultaneously accelerates MST, min-cut, SSSP, and any other part-wise
//! aggregation problem; follow-up work (Ghaffari–Haeupler, Chang) reuses the
//! same decomposition across many queries. `ShortcutPlan` is the type that
//! makes this reuse explicit: build it with any [`ShortcutBuilder`]
//! (dyn-erased, so sessions can carry heterogeneous builders behind one
//! pointer) and hand out cheap references to its pieces.
//!
//! The `minex-algo` crate's `Solver` session API caches one `ShortcutPlan`
//! per session, built on the first query that reads it (`partwise_min`).
//! Queries that need shortcuts over other partitions (the Borůvka
//! fragments of MST and `components`, the source-rooted clusters of
//! shortcut SSSP) build their own per query. An edge batch goes through
//! [`ShortcutPlan::repair_parts`] while the session partition holds and
//! the builder is [part-local](ShortcutBuilder::part_local); any other
//! batch drops the cached plan for a lazy rebuild.

use minex_graphs::{EdgeId, Graph, NodeId};

use crate::construct::{build_on_pieces, ShortcutBuilder};
use crate::parts::Partition;
use crate::shortcut::{measure_quality, QualityReport, Shortcut};
use crate::spanning::RootedTree;

/// What [`ShortcutPlan::repair`] did, for callers that surface repair
/// telemetry (the solver's `RepairStats` embeds this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanRepairStats {
    /// The partition differed from the previous plan's, forcing a full
    /// rebuild regardless of dirty-region analysis.
    pub partition_changed: bool,
    /// The builder is not part-local (or the partition changed), so
    /// `build` ran over every part.
    pub full_rebuild: bool,
    /// Total number of parts in the repaired plan.
    pub parts_total: usize,
    /// Parts whose shortcut edges were recomputed.
    pub parts_rebuilt: usize,
    /// Parts whose previous edges were reused (remapped to new edge ids).
    pub parts_reused: usize,
    /// Nodes whose spanning-tree parent changed under the mutation batch.
    pub tree_changed_nodes: usize,
}

/// A fully materialized shortcut plan: spanning tree, partition, shortcut,
/// and measured quality, ready to serve queries.
///
/// Construction is deterministic: the same `(graph, root, parts, builder)`
/// always produces the same plan, so caching a plan and replaying queries
/// against it is observationally identical to rebuilding it per query.
#[derive(Debug, Clone)]
pub struct ShortcutPlan {
    tree: RootedTree,
    parts: Partition,
    shortcut: Shortcut,
    quality: QualityReport,
}

impl ShortcutPlan {
    /// Builds the plan for `g` with a BFS spanning tree rooted at `root`:
    /// runs `builder` once, through
    /// [`ShortcutBuilder::build_measured`], for the shortcut and its
    /// quality.
    ///
    /// # Panics
    ///
    /// Panics if `g` is empty or disconnected, or `root` is out of range
    /// (the panics of [`RootedTree::bfs`]).
    pub fn build(g: &Graph, root: NodeId, parts: Partition, builder: &dyn ShortcutBuilder) -> Self {
        let tree = RootedTree::bfs(g, root);
        Self::with_tree(g, tree, parts, builder)
    }

    /// Like [`ShortcutPlan::build`], but reuses an already constructed
    /// spanning tree instead of running BFS again.
    pub fn with_tree(
        g: &Graph,
        tree: RootedTree,
        parts: Partition,
        builder: &dyn ShortcutBuilder,
    ) -> Self {
        let (shortcut, quality) = builder.build_measured(g, &tree, &parts);
        ShortcutPlan {
            tree,
            parts,
            shortcut,
            quality,
        }
    }

    /// The rooted spanning tree the shortcut is restricted to.
    pub fn tree(&self) -> &RootedTree {
        &self.tree
    }

    /// The partition the plan serves.
    pub fn parts(&self) -> &Partition {
        &self.parts
    }

    /// The constructed shortcut (one tree-restricted edge set per part).
    pub fn shortcut(&self) -> &Shortcut {
        &self.shortcut
    }

    /// The measured Definitions 11–13 parameters of [`Self::shortcut`].
    pub fn quality(&self) -> &QualityReport {
        &self.quality
    }

    /// Repairs this plan after edge churn, recomputing only the dirty
    /// region when it can. The result is **byte-identical** to
    /// `ShortcutPlan::build(g, root, parts, builder)` on the mutated graph
    /// — repair is an optimization, never a semantic fork.
    ///
    /// Inputs describe the mutation batch:
    ///
    /// * `g` is the *mutated* (compacted) graph; `root` the plan anchor;
    ///   `parts` a partition of `g`.
    /// * `edge_remap[old_id]` is the edge's id in `g`, or `None` if the
    ///   edge was deleted (mutations renumber ids — they are lexicographic
    ///   ranks).
    /// * `touched` lists the endpoints of every mutated edge.
    ///
    /// This is [`ShortcutPlan::repair_parts`], falling back to a full
    /// [`ShortcutBuilder::build_measured`] on the new tree where that
    /// answers `None`. Quality always describes the mutated graph:
    /// measured after a partial rebuild, handed back by the builder after
    /// a full one.
    ///
    /// # Panics
    ///
    /// Panics if `g` is empty or disconnected, `root` is out of range, or
    /// the node count changed (churn mutates edges, never nodes).
    pub fn repair(
        &self,
        g: &Graph,
        root: NodeId,
        parts: Partition,
        builder: &dyn ShortcutBuilder,
        edge_remap: &[Option<EdgeId>],
        touched: &[NodeId],
    ) -> (ShortcutPlan, PlanRepairStats) {
        self.repair_or_build(g, root, parts, builder, edge_remap, touched, true)
            .expect("a full build always answers")
    }

    /// The part-local half of [`ShortcutPlan::repair`]: the same inputs
    /// and, when it answers, the same panics and result. It answers
    /// `None`, before it derives a tree, when the partition changed or
    /// `builder` is not [part-local](ShortcutBuilder::part_local): a
    /// repair would then be a full build, which a caller can defer until
    /// the plan is read.
    ///
    /// A repair re-derives the spanning tree (BFS is one `O(n + m)` pass;
    /// byte-identity demands it). A part is **dirty** when a mutation can
    /// reach its shortcut: one of its nodes was a mutation endpoint or
    /// changed tree parent, one of its previous shortcut edges vanished or
    /// left the tree, or such an edge's endpoint changed parent / was
    /// touched. Clean parts keep their previous edges, remapped to the new
    /// ids; the builder's own [`build`](ShortcutBuilder::build) runs on the
    /// dirty parts alone.
    pub fn repair_parts(
        &self,
        g: &Graph,
        root: NodeId,
        parts: Partition,
        builder: &dyn ShortcutBuilder,
        edge_remap: &[Option<EdgeId>],
        touched: &[NodeId],
    ) -> Option<(ShortcutPlan, PlanRepairStats)> {
        self.repair_or_build(g, root, parts, builder, edge_remap, touched, false)
    }

    /// [`ShortcutPlan::repair_parts`], falling back to a full build when
    /// `build` is set and [`ShortcutPlan::repair`] wants one.
    #[allow(clippy::too_many_arguments)]
    fn repair_or_build(
        &self,
        g: &Graph,
        root: NodeId,
        parts: Partition,
        builder: &dyn ShortcutBuilder,
        edge_remap: &[Option<EdgeId>],
        touched: &[NodeId],
        build: bool,
    ) -> Option<(ShortcutPlan, PlanRepairStats)> {
        assert_eq!(
            g.n(),
            self.tree.n(),
            "edge churn cannot change the node count"
        );
        let partition_changed = parts.parts() != self.parts.parts();
        let part_local = builder.part_local() && !partition_changed;
        if !part_local && !build {
            return None;
        }
        let tree = RootedTree::bfs(g, root);
        let mut stats = PlanRepairStats {
            partition_changed,
            parts_total: parts.len(),
            ..PlanRepairStats::default()
        };
        // `moved` marks nodes whose tree parent pointer changed; `unstable`
        // additionally marks mutation endpoints. A part is dirty if it
        // *contains* an unstable node (a part-local construction may look at
        // the graph around its own nodes), but a remapped shortcut edge only
        // goes stale if one of its endpoints *moved*: a part-local builder's
        // edges for a part depend on nothing outside the part's nodes and
        // the tree, and an old tree path whose nodes all kept their parent
        // pointers is the same parent chain in the new tree. Churn at a hub
        // (k-trees!) would otherwise dirty every part whose Steiner paths
        // route through it.
        let mut moved = vec![false; g.n()];
        for (v, m) in moved.iter_mut().enumerate() {
            if self.tree.parent(v) != tree.parent(v) {
                *m = true;
                stats.tree_changed_nodes += 1;
            }
        }
        let (shortcut, quality) = if part_local {
            let mut unstable = moved.clone();
            for &v in touched {
                unstable[v] = true;
            }
            // Remap each part's previous edges; collect the dirty parts.
            let mut per_part: Vec<Vec<EdgeId>> = Vec::with_capacity(parts.len());
            let mut dirty = Vec::new();
            for (i, part) in parts.parts().iter().enumerate() {
                let old = self.shortcut.edges(i);
                let mut mapped = Vec::with_capacity(old.len());
                let clean = !part.iter().any(|&v| unstable[v])
                    && old
                        .iter()
                        .all(|&e| match edge_remap.get(e).copied().flatten() {
                            Some(ne) if tree.is_tree_edge(ne) => {
                                let (u, v) = g.endpoints(ne);
                                mapped.push(ne);
                                !moved[u] && !moved[v]
                            }
                            _ => false,
                        });
                if !clean {
                    dirty.push((i, part.clone()));
                    mapped.clear();
                }
                per_part.push(mapped);
            }
            stats.parts_rebuilt = dirty.len();
            stats.parts_reused = parts.len() - dirty.len();
            build_on_pieces(builder, g, &tree, dirty, Some, &mut per_part);
            let shortcut = Shortcut::new(per_part);
            let quality = measure_quality(g, &tree, &parts, &shortcut);
            (shortcut, quality)
        } else {
            stats.full_rebuild = true;
            stats.parts_rebuilt = parts.len();
            builder.build_measured(g, &tree, &parts)
        };
        Some((
            ShortcutPlan {
                tree,
                parts,
                shortcut,
                quality,
            },
            stats,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{AutoCappedBuilder, SteinerBuilder};
    use minex_graphs::generators;

    #[test]
    fn plan_matches_manual_construction() {
        let g = generators::triangulated_grid(5, 5);
        let parts = Partition::new(&g, vec![(0..5).collect(), (5..10).collect()]).unwrap();
        let plan = ShortcutPlan::build(&g, 0, parts.clone(), &SteinerBuilder);
        let tree = RootedTree::bfs(&g, 0);
        let manual = SteinerBuilder.build(&g, &tree, &parts);
        assert_eq!(plan.shortcut(), &manual);
        assert_eq!(plan.quality(), &measure_quality(&g, &tree, &parts, &manual));
        assert_eq!(plan.parts().len(), 2);
    }

    #[test]
    fn plan_is_deterministic_and_cheap_to_share() {
        let g = generators::wheel(17);
        let parts = Partition::new(&g, vec![(0..8).collect()]).unwrap();
        let a = ShortcutPlan::build(&g, 16, parts.clone(), &AutoCappedBuilder);
        let b = ShortcutPlan::build(&g, 16, parts, &AutoCappedBuilder);
        assert_eq!(a.shortcut(), b.shortcut());
        assert_eq!(a.quality(), b.quality());
    }

    #[test]
    fn boxed_builders_build_plans() {
        // The dyn-erased path a Solver session uses.
        let g = generators::grid(4, 4);
        let parts = Partition::new(&g, vec![vec![0, 1], vec![14, 15]]).unwrap();
        let boxed: Box<dyn ShortcutBuilder> = Box::new(SteinerBuilder);
        let plan = ShortcutPlan::build(&g, 0, parts.clone(), &*boxed);
        let via_impl = ShortcutPlan::build(&g, 0, parts, &boxed);
        assert_eq!(plan.shortcut(), via_impl.shortcut());
        assert_eq!(boxed.name(), "steiner");
    }

    /// Old → new edge-id remap for two graphs over the same node set: a
    /// merge of the two sorted canonical edge lists.
    fn remap(old: &Graph, new: &Graph) -> Vec<Option<usize>> {
        old.edges()
            .map(|(_, u, v)| new.edge_between(u, v))
            .collect()
    }

    /// Repairing after a batch must reproduce a from-scratch build exactly.
    fn assert_repair_matches_fresh(
        old: &Graph,
        new: &Graph,
        root: usize,
        parts: &Partition,
        builder: &dyn ShortcutBuilder,
        touched: &[usize],
    ) -> PlanRepairStats {
        let prev = ShortcutPlan::build(old, root, parts.clone(), builder);
        let (repaired, stats) =
            prev.repair(new, root, parts.clone(), builder, &remap(old, new), touched);
        // The part-local half answers exactly when no full build ran, and
        // then with the same plan and statistics.
        match prev.repair_parts(new, root, parts.clone(), builder, &remap(old, new), touched) {
            Some((plan, part_stats)) => {
                assert!(!stats.full_rebuild);
                assert_eq!(part_stats, stats);
                assert_eq!(plan.shortcut(), repaired.shortcut());
                assert_eq!(plan.quality(), repaired.quality());
            }
            None => assert!(stats.full_rebuild),
        }
        let fresh = ShortcutPlan::build(new, root, parts.clone(), builder);
        assert_eq!(repaired.shortcut(), fresh.shortcut());
        assert_eq!(repaired.quality(), fresh.quality());
        assert_eq!(repaired.tree().root(), fresh.tree().root());
        for v in 0..new.n() {
            assert_eq!(repaired.tree().parent(v), fresh.tree().parent(v));
        }
        stats
    }

    #[test]
    fn steiner_repair_reuses_untouched_parts() {
        let old = generators::triangulated_grid(6, 6);
        // Delete a diagonal far from both parts: the BFS tree is unchanged
        // and every part stays clean.
        let victim = {
            let t = RootedTree::bfs(&old, 0);
            old.edges()
                .find(|&(e, u, v)| !t.is_tree_edge(e) && u >= 24 && v >= 24)
                .map(|(_, u, v)| (u, v))
                .expect("a non-tree edge in the last rows")
        };
        let new = Graph::from_edges(
            old.n(),
            old.edges()
                .filter(|&(_, u, v)| (u, v) != victim)
                .map(|(_, u, v)| (u, v)),
        )
        .unwrap();
        let parts = Partition::new(&old, vec![(0..6).collect(), (6..12).collect()]).unwrap();
        let stats = assert_repair_matches_fresh(
            &old,
            &new,
            0,
            &parts,
            &SteinerBuilder,
            &[victim.0, victim.1],
        );
        assert!(!stats.full_rebuild);
        assert!(!stats.partition_changed);
        assert_eq!(stats.parts_reused, 2);
        assert_eq!(stats.parts_rebuilt, 0);
    }

    #[test]
    fn steiner_repair_rebuilds_dirty_parts_only() {
        let old = generators::triangulated_grid(6, 6);
        // Insert an edge incident to part 0's region.
        let new = Graph::from_edges(
            old.n(),
            old.edges().map(|(_, u, v)| (u, v)).chain([(0, 13)]),
        )
        .unwrap();
        let parts = Partition::new(&old, vec![(0..6).collect(), (24..30).collect()]).unwrap();
        let stats = assert_repair_matches_fresh(&old, &new, 35, &parts, &SteinerBuilder, &[0, 13]);
        assert!(!stats.full_rebuild);
        assert_eq!(stats.parts_rebuilt, 1, "only the touched part rebuilds");
        assert_eq!(stats.parts_reused, 1);
    }

    #[test]
    fn coupled_builders_fall_back_to_full_rebuild() {
        // AutoCappedBuilder's quality sweep couples parts globally, so it
        // is not part-local — repair must do a full build and still agree
        // with fresh construction.
        let old = generators::wheel(17);
        let new = Graph::from_edges(old.n(), old.edges().map(|(_, u, v)| (u, v)).chain([(0, 8)]))
            .unwrap();
        let parts = Partition::new(&old, vec![(0..4).collect(), (8..12).collect()]).unwrap();
        let stats =
            assert_repair_matches_fresh(&old, &new, 16, &parts, &AutoCappedBuilder, &[0, 8]);
        assert!(stats.full_rebuild);
        assert_eq!(stats.parts_rebuilt, 2);
        assert_eq!(stats.parts_reused, 0);
    }

    #[test]
    fn repair_parts_answers_none_before_deriving_a_tree() {
        // Node 0 loses its edges, so a BFS of the batch's graph would
        // panic: an answer shows that no tree was derived.
        let g = generators::grid(4, 4);
        let split = Graph::from_edges(
            g.n(),
            g.edges()
                .filter(|&(_, u, _)| u != 0)
                .map(|(_, u, v)| (u, v)),
        )
        .unwrap();
        let touched = [0, 1, 4];
        let parts = Partition::new(&g, vec![vec![14, 15]]).unwrap();
        let capped = ShortcutPlan::build(&g, 15, parts.clone(), &AutoCappedBuilder);
        let remap = remap(&g, &split);
        assert!(capped
            .repair_parts(&split, 15, parts, &AutoCappedBuilder, &remap, &touched)
            .is_none());
        let steiner = ShortcutPlan::build(
            &g,
            15,
            Partition::new(&g, vec![vec![14]]).unwrap(),
            &SteinerBuilder,
        );
        let moved = Partition::new(&split, vec![vec![15]]).unwrap();
        assert!(steiner
            .repair_parts(&split, 15, moved, &SteinerBuilder, &remap, &touched)
            .is_none());
    }

    #[test]
    fn partition_change_forces_full_rebuild() {
        let g = generators::grid(4, 4);
        let parts_a = Partition::new(&g, vec![vec![0, 1]]).unwrap();
        let parts_b = Partition::new(&g, vec![vec![14, 15]]).unwrap();
        let prev = ShortcutPlan::build(&g, 0, parts_a, &SteinerBuilder);
        let identity: Vec<Option<usize>> = (0..g.m()).map(Some).collect();
        let (repaired, stats) =
            prev.repair(&g, 0, parts_b.clone(), &SteinerBuilder, &identity, &[]);
        assert!(stats.partition_changed);
        assert!(stats.full_rebuild);
        assert!(prev
            .repair_parts(&g, 0, parts_b.clone(), &SteinerBuilder, &identity, &[])
            .is_none());
        let fresh = ShortcutPlan::build(&g, 0, parts_b, &SteinerBuilder);
        assert_eq!(repaired.shortcut(), fresh.shortcut());
        assert_eq!(repaired.quality(), fresh.quality());
    }
}
