//! The structure-oblivious congestion-capped construction.
//!
//! This is the algorithmic side of the paper: Theorem 1 invokes the
//! \[HIZ16a\] result that near-optimal tree-restricted shortcuts can be
//! constructed distributively *without looking at any structure*. Our
//! implementation mirrors that construction's cap-and-prune shape
//! deterministically:
//!
//! 1. start from each part's Steiner subtree (block 1, unbounded
//!    congestion);
//! 2. on every tree edge whose load exceeds the cap `c`, keep the `c` parts
//!    with the largest *demand* (number of part nodes whose root path uses
//!    the edge) and evict the rest — eviction splits a part's subtree into
//!    more blocks but never hurts other parts;
//! 3. [`AutoCappedBuilder`] sweeps caps in powers of two and keeps the
//!    measured-quality winner, standing in for the binary search of the
//!    distributed construction. The sweep stops below the largest edge
//!    load: caps at or above it evict nothing and reproduce the Steiner
//!    candidate, which the sweep considers first and which wins ties.
//!
//! Both builders read one demand table, built in one pass: the Steiner
//! shortcut, every part's Steiner edges with their demands (one bottom-up
//! pass per part), and each edge's users sorted once by
//! `(demand desc, part)`. Cap `c` evicts the suffix `users[c..]` of every
//! edge, so each cap is a filter over the same table, and the sweep counts
//! a cap's blocks without building its shortcut.
//!
//! On families that admit good shortcuts the sweep finds them; on hard
//! instances (E7) every cap is bad — exactly the dichotomy the paper needs.

use std::cmp::Reverse;

use minex_graphs::{EdgeId, Graph, NodeId};

use crate::construct::naive::steiner_edges_stamped;
use crate::construct::ShortcutBuilder;
use crate::parts::Partition;
use crate::shortcut::{QualityReport, Shortcut};
use crate::spanning::RootedTree;

/// Congestion-capped pruning of Steiner-tree shortcuts at a fixed cap.
#[derive(Debug, Clone, Copy)]
pub struct CappedBuilder {
    /// Maximum number of parts allowed to keep any single tree edge.
    pub cap: usize,
}

impl CappedBuilder {
    /// Creates a builder with the given congestion cap (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "congestion cap must be positive");
        CappedBuilder { cap }
    }
}

impl ShortcutBuilder for CappedBuilder {
    fn name(&self) -> &'static str {
        "capped"
    }

    fn build(&self, g: &Graph, tree: &RootedTree, parts: &Partition) -> Shortcut {
        DemandTable::new(g, tree, parts).into_shortcut(self.cap)
    }
}

/// Sweeps congestion caps in powers of two (plus the uncapped Steiner
/// shortcut) and returns the measured-quality winner — the centralized
/// stand-in for the \[HIZ16a\] distributed search over qualities.
///
/// One demand table serves the whole sweep (see the module docs): the
/// Steiner candidate comes first, then caps 1, 2, 4, … below the largest
/// edge load, each scored by its quality without building its shortcut; a
/// cap replaces the best only if strictly better. Only the winner is
/// built, and [`build_measured`](ShortcutBuilder::build_measured) hands
/// back its quality report, so callers need not measure it again.
#[derive(Debug, Clone, Copy, Default)]
pub struct AutoCappedBuilder;

impl AutoCappedBuilder {
    /// The cap whose candidate wins the sweep; the table's largest load
    /// stands for the Steiner candidate.
    fn winning_cap(table: &mut DemandTable<'_>) -> usize {
        let steiner = table.max_load;
        let mut best = (table.quality(steiner), steiner);
        let mut cap = 1;
        while cap < steiner {
            let q = table.quality(cap);
            if q < best.0 {
                best = (q, cap);
            }
            cap *= 2;
        }
        best.1
    }
}

impl ShortcutBuilder for AutoCappedBuilder {
    fn name(&self) -> &'static str {
        "auto-capped"
    }

    fn build(&self, g: &Graph, tree: &RootedTree, parts: &Partition) -> Shortcut {
        let mut table = DemandTable::new(g, tree, parts);
        let cap = Self::winning_cap(&mut table);
        table.into_shortcut(cap)
    }

    fn build_measured(
        &self,
        g: &Graph,
        tree: &RootedTree,
        parts: &Partition,
    ) -> (Shortcut, QualityReport) {
        let mut table = DemandTable::new(g, tree, parts);
        let cap = Self::winning_cap(&mut table);
        let report = table.report(cap);
        (table.into_shortcut(cap), report)
    }
}

/// One part's use of one tree edge `(child, parent)` of its Steiner
/// subtree.
#[derive(Debug, Clone, Copy)]
struct EdgeUse {
    edge: EdgeId,
    child: NodeId,
    parent: NodeId,
    /// The part's nodes below the edge.
    demand: usize,
    /// The part's position among the edge's users in `(demand desc, part)`
    /// order: cap `c` keeps the use iff `rank < c`.
    rank: usize,
}

/// The Steiner shortcut with every `(part, edge)` use ranked among the
/// edge's users, from which any cap's shortcut and quality are read.
struct DemandTable<'a> {
    tree: &'a RootedTree,
    parts: &'a Partition,
    steiner: Shortcut,
    /// Part `i`'s uses are `uses[starts[i]..starts[i + 1]]`, each after the
    /// uses below it.
    uses: Vec<EdgeUse>,
    starts: Vec<usize>,
    /// `whole_at[i]`: the smallest cap that evicts none of part `i`'s uses.
    whole_at: Vec<usize>,
    /// `load[e]`: how many parts' Steiner subtrees use edge `e`.
    load: Vec<usize>,
    /// The largest load; caps at or above it evict nothing.
    max_load: usize,
    /// Block-counting scratch, all `false` between calls.
    open: Vec<bool>,
}

impl<'a> DemandTable<'a> {
    fn new(g: &Graph, tree: &'a RootedTree, parts: &'a Partition) -> Self {
        let mut steiner = Vec::with_capacity(parts.len());
        let mut stamp = vec![usize::MAX; g.n()];
        let mut uses = Vec::new();
        let mut starts = Vec::with_capacity(parts.len() + 1);
        starts.push(0);
        // Demands accumulate bottom-up over each part's Steiner edges.
        let mut below = vec![0usize; g.n()];
        for (i, part) in parts.parts().iter().enumerate() {
            // The Steiner walk climbs from each part node in turn until it
            // meets an earlier climb or the LCA, so the edges below a
            // climb's edges belong to it or to later climbs. Reversing the
            // walk and then each climb lists every edge after the edges
            // below it, and ends with the first climb's top edge, which
            // hangs from the LCA.
            let walk = steiner_edges_stamped(tree, part, &mut stamp, i);
            let first = uses.len();
            uses.extend(walk.iter().rev().map(|&edge| {
                let (u, v) = g.endpoints(edge);
                let (child, parent) = if tree.depth(u) > tree.depth(v) {
                    (u, v)
                } else {
                    (v, u)
                };
                EdgeUse {
                    edge,
                    child,
                    parent,
                    demand: 0,
                    rank: 0,
                }
            }));
            steiner.push(walk);
            let mine = &mut uses[first..];
            let mut climb = 0;
            for k in 1..=mine.len() {
                if k == mine.len() || mine[k].parent != mine[k - 1].child {
                    mine[climb..k].reverse();
                    climb = k;
                }
            }
            for &v in part {
                below[v] = 1;
            }
            for u in mine.iter_mut() {
                u.demand = below[u.child];
                below[u.parent] += u.demand;
            }
            for &v in part {
                below[v] = 0;
            }
            for u in mine.iter() {
                below[u.child] = 0;
                below[u.parent] = 0;
            }
            starts.push(uses.len());
        }
        // Bucket the uses by edge in part order, then order each bucket by
        // demand, descending: the sort is stable, so ties stay in part
        // order, and a use's rank is its place in the bucket.
        let mut load = vec![0usize; g.m()];
        for u in &uses {
            load[u.edge] += 1;
        }
        let mut bucket_end: Vec<usize> = load
            .iter()
            .scan(0, |end, &l| {
                *end += l;
                Some(*end)
            })
            .collect();
        let mut users = vec![0usize; uses.len()];
        for (j, u) in uses.iter().enumerate().rev() {
            bucket_end[u.edge] -= 1;
            users[bucket_end[u.edge]] = j;
        }
        let mut bucket_start = 0;
        for &l in &load {
            let bucket = &mut users[bucket_start..bucket_start + l];
            bucket_start += l;
            bucket.sort_by_key(|&j| Reverse(uses[j].demand));
            for (rank, &j) in bucket.iter().enumerate() {
                uses[j].rank = rank;
            }
        }
        let whole_at: Vec<usize> = starts
            .windows(2)
            .map(|w| {
                uses[w[0]..w[1]]
                    .iter()
                    .map(|u| u.rank + 1)
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let max_load = whole_at.iter().copied().max().unwrap_or(0);
        DemandTable {
            tree,
            parts,
            steiner: Shortcut::new(steiner),
            uses,
            starts,
            whole_at,
            load,
            max_load,
            open: vec![false; g.n()],
        }
    }

    /// The blocks of part `i` at `cap` (Definition 12): components of its
    /// kept Steiner edges that hold a part node.
    fn blocks(&mut self, i: usize, cap: usize) -> usize {
        if cap >= self.whole_at[i] {
            return 1;
        }
        let uses = &self.uses[self.starts[i]..self.starts[i + 1]];
        let open = &mut self.open;
        // `open[v]`: a part node reaches v through kept edges below it.
        for &v in self.parts.part(i) {
            open[v] = true;
        }
        let mut blocks = 0;
        for u in uses {
            if u.rank < cap {
                open[u.parent] |= open[u.child];
            } else if open[u.child] {
                // The evicted edge closes the block below it.
                blocks += 1;
            }
        }
        // The last use hangs from the part's LCA, the top block's root.
        let top = uses.last().expect("an evicting cap has uses").parent;
        blocks += usize::from(open[top]);
        for u in uses {
            open[u.child] = false;
            open[u.parent] = false;
        }
        blocks
    }

    /// The quality `b·d_T + c` of the shortcut at `cap`.
    fn quality(&mut self, cap: usize) -> usize {
        let block = (0..self.parts.len())
            .map(|i| self.blocks(i, cap))
            .max()
            .unwrap_or(0);
        block * self.tree.diameter() + cap.min(self.max_load)
    }

    /// The shortcut at `cap`'s [`QualityReport`], equal to
    /// [`measure_quality`](crate::measure_quality) of
    /// [`into_shortcut(cap)`](Self::into_shortcut).
    fn report(&mut self, cap: usize) -> QualityReport {
        let per_part_blocks: Vec<usize> =
            (0..self.parts.len()).map(|i| self.blocks(i, cap)).collect();
        let block = per_part_blocks.iter().copied().max().unwrap_or(0);
        let congestion = cap.min(self.max_load);
        let tree_diameter = self.tree.diameter();
        QualityReport {
            block,
            congestion,
            tree_diameter,
            quality: block * tree_diameter + congestion,
            per_part_blocks,
            per_edge_congestion: self.load.iter().map(|&l| l.min(cap)).collect(),
        }
    }

    /// The shortcut at `cap`: every part's Steiner edges minus the uses
    /// ranked `cap` or later.
    fn into_shortcut(self, cap: usize) -> Shortcut {
        if cap >= self.max_load {
            return self.steiner;
        }
        let per_part = self
            .starts
            .windows(2)
            .map(|w| {
                self.uses[w[0]..w[1]]
                    .iter()
                    .filter(|u| u.rank < cap)
                    .map(|u| u.edge)
                    .collect()
            })
            .collect();
        Shortcut::new(per_part)
    }
}

/// The per-cap construction the demand table replaced, kept as the
/// reference the one-pass builders are tested against.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::construct::SteinerBuilder;
    use crate::shortcut::measure_quality;

    /// One cap, rebuilt from scratch: Steiner build, load table, depth
    /// sort, and eviction through `banned.contains`.
    pub(super) fn capped(g: &Graph, tree: &RootedTree, parts: &Partition, cap: usize) -> Shortcut {
        let base = SteinerBuilder.build(g, tree, parts);
        let mut loads: Vec<Vec<(usize, u32)>> = vec![Vec::new(); g.m()];
        let mut cnt = vec![0u32; g.n()];
        for (i, part) in parts.parts().iter().enumerate() {
            let edges = base.edges(i);
            if edges.is_empty() {
                continue;
            }
            for &v in part {
                cnt[v] = 1;
            }
            let mut by_depth: Vec<EdgeId> = edges.to_vec();
            by_depth.sort_by_key(|&e| {
                let (u, v) = g.endpoints(e);
                Reverse(tree.depth(u).max(tree.depth(v)))
            });
            for &e in &by_depth {
                let (u, v) = g.endpoints(e);
                let (child, parent) = if tree.depth(u) > tree.depth(v) {
                    (u, v)
                } else {
                    (v, u)
                };
                loads[e].push((i, cnt[child]));
                cnt[parent] += cnt[child];
            }
            for &v in part {
                cnt[v] = 0;
            }
            for &e in edges {
                let (u, v) = g.endpoints(e);
                cnt[u] = 0;
                cnt[v] = 0;
            }
        }
        let mut evict: Vec<Vec<EdgeId>> = vec![Vec::new(); parts.len()];
        for (e, users) in loads.iter_mut().enumerate() {
            if users.len() > cap {
                users.sort_by_key(|&(part, demand)| (Reverse(demand), part));
                for &(part, _) in users.iter().skip(cap) {
                    evict[part].push(e);
                }
            }
        }
        let per_part = (0..parts.len())
            .map(|i| {
                let banned = &evict[i];
                base.edges(i)
                    .iter()
                    .copied()
                    .filter(|e| !banned.contains(e))
                    .collect()
            })
            .collect();
        Shortcut::new(per_part)
    }

    /// The full sweep: Steiner, then every power-of-two cap up to the part
    /// count, each built and measured.
    pub(super) fn auto_capped(g: &Graph, tree: &RootedTree, parts: &Partition) -> Shortcut {
        let mut best: Option<(usize, Shortcut)> = None;
        let mut consider = |s: Shortcut| {
            let q = measure_quality(g, tree, parts, &s).quality;
            if best.as_ref().map_or(true, |(bq, _)| q < *bq) {
                best = Some((q, s));
            }
        };
        consider(SteinerBuilder.build(g, tree, parts));
        let mut cap = 1;
        while cap <= parts.len().max(1) {
            consider(capped(g, tree, parts, cap));
            cap *= 2;
        }
        best.expect("at least one candidate").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::SteinerBuilder;
    use crate::shortcut::{measure_quality, validate_tree_restricted};
    use minex_graphs::{generators, UnionFind};
    use rand::seq::SliceRandom;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    /// Adversarial workload for Steiner shortcuts: parts on one long path,
    /// all of whose Steiner trees share the path edges near the root.
    fn path_with_interval_parts(n: usize, k: usize) -> (Graph, RootedTree, Partition) {
        let g = generators::path(n);
        let t = RootedTree::bfs(&g, 0);
        let size = n / k;
        let parts: Vec<Vec<usize>> = (0..k)
            .map(|i| (i * size..(i + 1) * size).collect())
            .collect();
        let p = Partition::new(&g, parts).unwrap();
        (g, t, p)
    }

    #[test]
    fn cap_bounds_congestion() {
        let (g, t, parts) = path_with_interval_parts(64, 8);
        for cap in [1, 2, 4] {
            let s = CappedBuilder::new(cap).build(&g, &t, &parts);
            validate_tree_restricted(&s, &t).unwrap();
            let q = measure_quality(&g, &t, &parts, &s);
            assert!(
                q.congestion <= cap,
                "cap {cap}: congestion {}",
                q.congestion
            );
        }
    }

    #[test]
    fn capping_trades_blocks_for_congestion() {
        let (g, t, parts) = path_with_interval_parts(64, 8);
        let steiner = SteinerBuilder.build(&g, &t, &parts);
        let qs = measure_quality(&g, &t, &parts, &steiner);
        let capped = CappedBuilder::new(1).build(&g, &t, &parts);
        let qc = measure_quality(&g, &t, &parts, &capped);
        assert_eq!(qs.block, 1);
        assert!(qc.congestion <= 1);
        assert!(qc.block >= qs.block, "eviction can only split blocks");
    }

    #[test]
    fn high_cap_equals_steiner() {
        let (g, t, parts) = path_with_interval_parts(40, 4);
        let s1 = CappedBuilder::new(100).build(&g, &t, &parts);
        let s2 = SteinerBuilder.build(&g, &t, &parts);
        assert_eq!(s1, s2);
    }

    #[test]
    fn auto_capped_never_worse_than_steiner() {
        let workloads = [
            path_with_interval_parts(64, 8),
            path_with_interval_parts(60, 3),
        ];
        for (g, t, parts) in workloads {
            let auto = AutoCappedBuilder.build(&g, &t, &parts);
            validate_tree_restricted(&auto, &t).unwrap();
            let qa = measure_quality(&g, &t, &parts, &auto);
            let qs = measure_quality(&g, &t, &parts, &SteinerBuilder.build(&g, &t, &parts));
            assert!(qa.quality <= qs.quality);
        }
    }

    #[test]
    fn auto_capped_on_grid_voronoi() {
        let g = generators::triangulated_grid(12, 12);
        let t = RootedTree::bfs(&g, 0);
        let mut rng = StdRng::seed_from_u64(5);
        let seeds: Vec<usize> = (0..12).map(|_| rng.random_range(0..g.n())).collect();
        let parts = voronoi(&g, &seeds);
        let s = AutoCappedBuilder.build(&g, &t, &parts);
        validate_tree_restricted(&s, &t).unwrap();
        let q = measure_quality(&g, &t, &parts, &s);
        // Sanity: quality must beat the trivial per-part-diameter bound by a
        // wide margin on a planar mesh.
        assert!(q.quality <= 6 * t.diameter(), "quality {}", q.quality);
    }

    #[test]
    #[should_panic(expected = "cap must be positive")]
    fn rejects_zero_cap() {
        let _ = CappedBuilder::new(0);
    }

    /// Nodes of [`broom`].
    const BROOM_NODES: usize = 58;

    /// A depth-2 broom whose sweep winner is cap 8, the last cap below its
    /// largest load 16, with node `v` renamed `label[v]`; returns the graph,
    /// its root and its parts. Root 0 has hubs 1 (the heavy hub) and 2..=5;
    /// every other node is a leaf under one hub. Part X has one leaf under
    /// each of hubs 2..=5, chained by non-tree edges. Each of the 16 parts
    /// Q has two leaves under a hub `j` in 2..=5 and one under hub 1, so
    /// the Qs all share edge (0, 1) with demand 1, and on each (0, j) four
    /// Qs (demand 2) outrank X (demand 1). With `d_T = 4`:
    /// - Steiner has quality 4 + 16 = 20;
    /// - cap 8 splits eight Qs in two, for 2·4 + 8 = 16;
    /// - caps 4, 2 and 1 also cut X off all four hubs (4 blocks), for 20,
    ///   18 and 17.
    fn broom(label: &[usize]) -> (Graph, usize, Vec<Vec<usize>>) {
        let mut edges: Vec<(usize, usize)> = (1..=5).map(|h| (0, h)).collect();
        let mut next = 6;
        let mut leaf = |hub: usize, edges: &mut Vec<(usize, usize)>| {
            edges.push((hub, next));
            next += 1;
            next - 1
        };
        let x: Vec<usize> = (2..=5).map(|h| leaf(h, &mut edges)).collect();
        edges.extend(x.windows(2).map(|w| (w[0], w[1])));
        let mut parts = vec![x];
        for hub in 2..=5 {
            for _ in 0..4 {
                let (q, q2, r) = (
                    leaf(hub, &mut edges),
                    leaf(hub, &mut edges),
                    leaf(1, &mut edges),
                );
                edges.extend([(q, q2), (q2, r)]);
                parts.push(vec![q, q2, r]);
            }
        }
        assert_eq!(next, BROOM_NODES);
        let g = Graph::from_edges(
            BROOM_NODES,
            edges.into_iter().map(|(u, v)| (label[u], label[v])),
        )
        .unwrap();
        for part in &mut parts {
            for v in part.iter_mut() {
                *v = label[*v];
            }
        }
        (g, label[0], parts)
    }

    #[test]
    fn sweep_reaches_the_last_cap_below_the_largest_load() {
        let identity: Vec<usize> = (0..BROOM_NODES).collect();
        let (g, root, parts) = broom(&identity);
        let t = RootedTree::bfs(&g, root);
        let parts = Partition::new(&g, parts).unwrap();
        assert_eq!(t.diameter(), 4);
        let (auto, report) = AutoCappedBuilder.build_measured(&g, &t, &parts);
        assert_eq!(auto, CappedBuilder::new(8).build(&g, &t, &parts));
        assert_eq!(auto, reference::auto_capped(&g, &t, &parts));
        assert_eq!((report.block, report.congestion), (2, 8));
        let steiner = SteinerBuilder.build(&g, &t, &parts);
        assert_eq!(measure_quality(&g, &t, &parts, &steiner).quality, 20);
        let qualities: Vec<usize> = [1, 2, 4]
            .map(|cap| {
                let s = CappedBuilder::new(cap).build(&g, &t, &parts);
                measure_quality(&g, &t, &parts, &s).quality
            })
            .to_vec();
        assert_eq!(qualities, [17, 18, 20]);
    }

    fn voronoi(g: &Graph, seeds: &[usize]) -> Partition {
        let bfs = minex_graphs::traversal::multi_source_bfs(g, seeds);
        let labels: Vec<Option<usize>> = bfs.source_of.iter().map(|&s| Some(s)).collect();
        Partition::from_labels(g, &labels).unwrap()
    }

    /// The pieces left after merging along a random subset of the edges.
    fn random_fragments(g: &Graph, keep_permille: u64, rng: &mut StdRng) -> Partition {
        let mut uf = UnionFind::new(g.n());
        for (_, u, v) in g.edges() {
            if rng.random_range(0..1000) < keep_permille {
                uf.union(u, v);
            }
        }
        let labels: Vec<Option<usize>> = uf.labels().0.into_iter().map(Some).collect();
        Partition::from_labels(g, &labels).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(160))]

        /// The one-pass builders against the per-cap reference: the same
        /// AutoCapped winner, the same shortcut at every cap in
        /// `1..=parts`, and every handed-back report equal to
        /// `measure_quality` of the returned shortcut. Families: random
        /// connected graphs, k-trees (k = 2..8), tri-grids and wheels, with
        /// Voronoi, random-fragment and singleton partitions and a BFS tree
        /// from a random root; and the [`broom`] with its own parts, under
        /// random node labels and part order, whose winner is the last cap
        /// of the sweep.
        #[test]
        fn one_pass_builders_match_the_per_cap_reference(
            family in 0usize..5,
            n in 6usize..72,
            k in 2usize..9,
            partition in 0usize..3,
            cells in 1usize..24,
            keep_permille in 0u64..1000,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            if family == 4 {
                let mut label: Vec<usize> = (0..BROOM_NODES).collect();
                label.shuffle(&mut rng);
                let (g, root, mut parts) = broom(&label);
                parts.shuffle(&mut rng);
                let tree = RootedTree::bfs(&g, root);
                let parts = Partition::new(&g, parts).unwrap();
                check_against_reference(&g, &tree, &parts);
                continue;
            }
            let g = match family {
                0 => generators::random_connected(n, n / 2, &mut rng),
                1 => generators::k_tree(n.max(k + 1), k, &mut rng).0,
                2 => generators::triangulated_grid(n / 8 + 1, 8),
                _ => generators::wheel(n),
            };
            let tree = RootedTree::bfs(&g, rng.random_range(0..g.n()));
            let parts = match partition {
                0 => {
                    let seeds: Vec<usize> =
                        (0..cells).map(|_| rng.random_range(0..g.n())).collect();
                    voronoi(&g, &seeds)
                }
                1 => random_fragments(&g, keep_permille, &mut rng),
                _ => Partition::new(&g, (0..g.n()).map(|v| vec![v]).collect()).unwrap(),
            };
            check_against_reference(&g, &tree, &parts);
        }
    }

    /// Both builders against the reference, and the table's quality and
    /// report at every cap against `measure_quality` of its shortcut.
    fn check_against_reference(g: &Graph, tree: &RootedTree, parts: &Partition) {
        let (auto, report) = AutoCappedBuilder.build_measured(g, tree, parts);
        assert_eq!(auto, reference::auto_capped(g, tree, parts));
        assert_eq!(AutoCappedBuilder.build(g, tree, parts), auto);
        assert_eq!(report, measure_quality(g, tree, parts, &auto));
        let mut table = DemandTable::new(g, tree, parts);
        for cap in 1..=parts.len() {
            let (capped, report) = CappedBuilder::new(cap).build_measured(g, tree, parts);
            assert_eq!(capped, reference::capped(g, tree, parts, cap), "cap {cap}");
            assert_eq!(
                report,
                measure_quality(g, tree, parts, &capped),
                "cap {cap}"
            );
            assert_eq!(table.report(cap), report, "cap {cap}");
            assert_eq!(table.quality(cap), report.quality, "cap {cap}");
        }
        let (steiner, report) = SteinerBuilder.build_measured(g, tree, parts);
        assert_eq!(report, measure_quality(g, tree, parts, &steiner));
    }
}
