//! The Theorem 7 construction: shortcuts for k-clique-sums of graphs from a
//! family with good shortcuts.
//!
//! For every part the construction builds
//!
//! * a **global shortcut**: with `h_P` the lowest-common-ancestor bag group
//!   of the part, the part may use every tree edge lying in a bag strictly
//!   below a qualifying child of `h_P` (Figure 2 of the paper); and
//! * **local shortcuts**: inside each bag group, the bag is *repaired* —
//!   partial cliques are completed (`B⁰_h`) and the spanning tree is
//!   re-connected through contracted outside components (`T²_h`) — an inner
//!   builder runs on the repaired instance, and only real tree edges that do
//!   not lie inside a parent separator survive (Figure 3).
//!
//! Run with [`CliqueSumTree`] depth directly (Lemma 1: congestion
//! `k · d_DT + c_F`) or with Theorem 7's folded tree (congestion
//! `O(k log² n) + c_F` at the price of double edges). Both variants are
//! exposed so experiment E10 can ablate the folding.

use minex_decomp::{CliqueSumTree, Lca};
use minex_graphs::{EdgeId, Graph, GraphBuilder, NodeId, ParentTree};

use crate::construct::{build_on_pieces, owned_pieces, ShortcutBuilder};
use crate::parts::Partition;
use crate::shortcut::Shortcut;
use crate::spanning::RootedTree;

/// Shortcut construction over a clique-sum decomposition tree.
#[derive(Debug)]
pub struct CliqueSumShortcutBuilder<B> {
    tree: CliqueSumTree,
    fold: bool,
    inner: B,
}

impl<B: ShortcutBuilder> CliqueSumShortcutBuilder<B> {
    /// Uses the decomposition tree as-is (the Lemma 1 construction, whose
    /// congestion scales with the tree depth `d_DT`).
    pub fn unfolded(tree: CliqueSumTree, inner: B) -> Self {
        CliqueSumShortcutBuilder {
            tree,
            fold: false,
            inner,
        }
    }

    /// Applies the Theorem 7 folding first (depth `O(log² n)`, double
    /// edges).
    pub fn folded(tree: CliqueSumTree, inner: B) -> Self {
        CliqueSumShortcutBuilder {
            tree,
            fold: true,
            inner,
        }
    }

    /// The decomposition tree in use.
    pub fn decomposition(&self) -> &CliqueSumTree {
        &self.tree
    }
}

/// A uniform view over the grouped (possibly folded) decomposition tree.
struct GroupedView {
    /// `groups[f]` — original bag indices merged into grouped node `f`.
    groups: Vec<Vec<usize>>,
    group_of: Vec<usize>,
    tree: ParentTree,
    /// Links (indices into the record) crossing `f → parent(f)`.
    links_to_parent: Vec<Vec<usize>>,
}

impl GroupedView {
    fn identity(tree: &CliqueSumTree) -> Self {
        let b = tree.len();
        GroupedView {
            groups: (0..b).map(|i| vec![i]).collect(),
            group_of: (0..b).collect(),
            tree: ParentTree::new((0..b).map(|i| tree.parent(i)).collect())
                .expect("a clique-sum tree is one tree"),
            links_to_parent: (0..b)
                .map(|i| tree.parent_link_index(i).into_iter().collect())
                .collect(),
        }
    }

    fn folded(tree: &CliqueSumTree) -> Self {
        let f = tree.fold();
        GroupedView {
            groups: f.groups,
            group_of: f.group_of,
            tree: ParentTree::new(f.parent).expect("a folded tree is one tree"),
            links_to_parent: f.links_to_parent,
        }
    }

    /// The child of `ancestor` on the path toward `descendant`.
    fn child_toward(&self, ancestor: usize, descendant: usize) -> usize {
        let mut cur = descendant;
        while self.tree.depth(cur) > self.tree.depth(ancestor) + 1 {
            cur = self.tree.parent(cur).expect("above the root");
        }
        debug_assert_eq!(self.tree.parent(cur), Some(ancestor));
        cur
    }
}

impl<B: ShortcutBuilder> ShortcutBuilder for CliqueSumShortcutBuilder<B> {
    fn name(&self) -> &'static str {
        if self.fold {
            "clique-sum(folded)"
        } else {
            "clique-sum(unfolded)"
        }
    }

    fn build(&self, g: &Graph, tree: &RootedTree, parts: &Partition) -> Shortcut {
        let view = if self.fold {
            GroupedView::folded(&self.tree)
        } else {
            GroupedView::identity(&self.tree)
        };
        let mut per_part: Vec<Vec<EdgeId>> = vec![Vec::new(); parts.len()];
        let bags_of_node = self.tree.bags_of_nodes(g.n());
        global_shortcuts(g, tree, parts, &view, &bags_of_node, &mut per_part);
        local_shortcuts(
            g,
            tree,
            parts,
            &self.tree,
            &view,
            &bags_of_node,
            &self.inner,
            &mut per_part,
        );
        Shortcut::new(per_part)
    }
}

/// Global shortcuts per Figure 2 (grouped-tree version).
fn global_shortcuts(
    g: &Graph,
    tree: &RootedTree,
    parts: &Partition,
    view: &GroupedView,
    bags_of_node: &[Vec<usize>],
    per_part: &mut [Vec<EdgeId>],
) {
    let lca = Lca::new(view.tree.parents());
    // Per part: LCA group h_P and qualifying children.
    // qual[(child)] buckets parts by (parent = h_P, child on path).
    let mut qual: std::collections::HashMap<(usize, usize), Vec<usize>> = Default::default();
    for (i, part) in parts.parts().iter().enumerate() {
        let mut touched: Vec<usize> = part
            .iter()
            .flat_map(|&v| bags_of_node[v].iter().map(|&b| view.group_of[b]))
            .collect();
        touched.sort_unstable();
        touched.dedup();
        if touched.is_empty() {
            continue;
        }
        let h = lca.lca_of_set(&touched);
        for &x in &touched {
            if x != h {
                let child = view.child_toward(h, x);
                qual.entry((h, child)).or_default().push(i);
            }
        }
    }
    // minex-lint: allow(D001) each bucket is sorted+deduped independently; visit order cannot reach any result
    for bucket in qual.values_mut() {
        bucket.sort_unstable();
        bucket.dedup();
    }
    // Per tree edge: walk up from every group containing the edge; hand the
    // edge to parts bucketed at each (ancestor, path-child), unless the edge
    // also lies in a bag of the ancestor group.
    for (e, u, v) in g.edges() {
        if !tree.is_tree_edge(e) {
            continue;
        }
        let bags_e = intersect_sorted(&bags_of_node[u], &bags_of_node[v]);
        if bags_e.is_empty() {
            continue;
        }
        let mut groups_e: Vec<usize> = bags_e.iter().map(|&b| view.group_of[b]).collect();
        groups_e.sort_unstable();
        groups_e.dedup();
        let in_group = |f: usize| -> bool {
            view.groups[f]
                .iter()
                .any(|&b| bags_e.binary_search(&b).is_ok())
        };
        let mut visited: std::collections::HashSet<(usize, usize)> = Default::default();
        for &f in &groups_e {
            let mut cur = f;
            while let Some(a) = view.tree.parent(cur) {
                if !visited.insert((a, cur)) {
                    break;
                }
                if let Some(bucket) = qual.get(&(a, cur)) {
                    if !in_group(a) {
                        for &part in bucket {
                            per_part[part].push(e);
                        }
                    }
                }
                cur = a;
            }
        }
    }
}

/// Local shortcuts per Figure 3 (grouped-tree version with double edges).
#[allow(clippy::too_many_arguments)]
fn local_shortcuts<B: ShortcutBuilder>(
    g: &Graph,
    tree: &RootedTree,
    parts: &Partition,
    cst: &CliqueSumTree,
    view: &GroupedView,
    bags_of_node: &[Vec<usize>],
    inner: &B,
    per_part: &mut [Vec<EdgeId>],
) {
    let links = &cst.record().links;
    // stamp arrays reused across groups.
    let n = g.n();
    let mut in_vg_stamp = vec![usize::MAX; n];
    let mut comp_stamp = vec![usize::MAX; n];
    for (a, group) in view.groups.iter().enumerate() {
        // ---- The group's node set Vg.
        let mut vg: Vec<NodeId> = group
            .iter()
            .flat_map(|&b| cst.bag(b).iter().copied())
            .collect();
        vg.sort_unstable();
        vg.dedup();
        if vg.len() <= 1 {
            continue;
        }
        for &x in &vg {
            in_vg_stamp[x] = a;
        }
        let in_vg = |x: NodeId| in_vg_stamp[x] == a;
        let mut local_of: std::collections::HashMap<NodeId, usize> = Default::default();
        for (li, &x) in vg.iter().enumerate() {
            local_of.insert(x, li);
        }
        // ---- Incident links: to parent, to grouped children, internal.
        let mut incident_links: Vec<usize> = view.links_to_parent[a].clone();
        for &c in view.tree.children(a) {
            incident_links.extend_from_slice(&view.links_to_parent[c]);
        }
        for (li, (p, c, _)) in links.iter().enumerate() {
            if view.group_of[*p] == a && view.group_of[*c] == a {
                incident_links.push(li);
            }
        }
        incident_links.sort_unstable();
        incident_links.dedup();
        // ---- B⁰: induced subgraph + completed partial cliques.
        let mut lb = GraphBuilder::new(vg.len());
        for &x in &vg {
            for (w, _) in g.neighbors(x) {
                if x < w && in_vg(w) {
                    lb.add_edge(local_of[&x], local_of[&w])
                        .expect("induced edge");
                }
            }
        }
        for &li in &incident_links {
            let sep = &links[li].2;
            for (i1, &s) in sep.iter().enumerate() {
                for &t in sep.iter().skip(i1 + 1) {
                    if in_vg(s) && in_vg(t) {
                        lb.add_edge(local_of[&s], local_of[&t])
                            .expect("clique fill");
                    }
                }
            }
        }
        let local_graph = lb.build();
        // ---- T² forest: real tree edges inside Vg, then star edges through
        // outside components, cycle-free via union-find.
        let mut uf = minex_graphs::UnionFind::new(vg.len());
        let mut forest_adj: Vec<Vec<usize>> = vec![Vec::new(); vg.len()];
        let add_forest_edge = |uf: &mut minex_graphs::UnionFind,
                               forest_adj: &mut Vec<Vec<usize>>,
                               x: usize,
                               y: usize|
         -> bool {
            if uf.union(x, y) {
                forest_adj[x].push(y);
                forest_adj[y].push(x);
                true
            } else {
                false
            }
        };
        for &x in &vg {
            if let (Some(p), Some(_)) = (tree.parent(x), tree.parent_edge(x)) {
                if in_vg(p) {
                    add_forest_edge(&mut uf, &mut forest_adj, local_of[&x], local_of[&p]);
                }
            }
        }
        // Outside components of T \ Vg adjacent to Vg.
        let tree_neighbors = |x: NodeId| -> Vec<NodeId> {
            let mut out: Vec<NodeId> = tree.children(x).to_vec();
            if let Some(p) = tree.parent(x) {
                out.push(p);
            }
            out
        };
        for &x in &vg {
            for w in tree_neighbors(x) {
                if in_vg(w) || comp_stamp[w] == a {
                    continue;
                }
                // Flood the component of w in T \ Vg; collect attachments.
                let mut attachments: Vec<NodeId> = Vec::new();
                let mut stack = vec![w];
                comp_stamp[w] = a;
                let mut sample = w;
                while let Some(y) = stack.pop() {
                    sample = y;
                    for z in tree_neighbors(y) {
                        if in_vg(z) {
                            attachments.push(z);
                        } else if comp_stamp[z] != a {
                            comp_stamp[z] = a;
                            stack.push(z);
                        }
                    }
                }
                attachments.sort_unstable();
                attachments.dedup();
                if attachments.len() < 2 {
                    continue;
                }
                // Which side of the group does the component live on?
                let side_links: &[usize] = side_links_of(view, a, sample, bags_of_node);
                // Star the attachments within each side clique.
                for &li in side_links {
                    let sep = &links[li].2;
                    let att: Vec<usize> = attachments
                        .iter()
                        .filter(|x2| sep.contains(x2))
                        .map(|x2| local_of[x2])
                        .collect();
                    if att.len() >= 2 {
                        let center = att[0];
                        for &other in &att[1..] {
                            add_forest_edge(&mut uf, &mut forest_adj, center, other);
                        }
                    }
                }
            }
        }
        // ---- Forest components → per-component local problems.
        let (comp_of, comp_count) = uf.labels();
        let mut comp_nodes: Vec<Vec<usize>> = vec![Vec::new(); comp_count];
        for (li, &c) in comp_of.iter().enumerate() {
            comp_nodes[c].push(li);
        }
        // Parent separators for the discard rule.
        let parent_seps: Vec<&Vec<NodeId>> = view.links_to_parent[a]
            .iter()
            .map(|&li| &links[li].2)
            .collect();
        for nodes in comp_nodes.iter().filter(|ns| ns.len() >= 2) {
            run_component(
                g,
                tree,
                parts,
                inner,
                &vg,
                &local_graph,
                &forest_adj,
                nodes,
                &parent_seps,
                per_part,
            );
        }
    }
}

/// Determines which grouped-tree edge an outside component hangs off, and
/// returns the link indices of that edge (≤ 2 partial cliques).
fn side_links_of<'a>(
    view: &'a GroupedView,
    a: usize,
    sample_node: NodeId,
    bags_of_node: &[Vec<usize>],
) -> &'a [usize] {
    // Any bag containing the sample determines the side.
    let Some(&b) = bags_of_node[sample_node].first() else {
        return &[];
    };
    let fx = view.group_of[b];
    if fx == a {
        // Sample also lives in this group's bags (possible when the node
        // set overlaps another bag of the same group but is not in Vg —
        // cannot happen since Vg is the full union; be safe).
        return &[];
    }
    // Climb: if a is an ancestor of fx, the side is the child toward fx;
    // otherwise the component hangs on the parent side.
    let mut cur = fx;
    while view.tree.depth(cur) > view.tree.depth(a) {
        let p = view.tree.parent(cur).expect("above root");
        if p == a {
            return &view.links_to_parent[cur];
        }
        cur = p;
    }
    &view.links_to_parent[a]
}

/// Runs the inner builder on one repaired forest component and merges the
/// surviving edges back into the global answer.
#[allow(clippy::too_many_arguments)]
fn run_component<B: ShortcutBuilder>(
    g: &Graph,
    tree: &RootedTree,
    parts: &Partition,
    inner: &B,
    vg: &[NodeId],
    local_graph: &Graph,
    forest_adj: &[Vec<usize>],
    nodes: &[usize],
    parent_seps: &[&Vec<NodeId>],
    per_part: &mut [Vec<EdgeId>],
) {
    // Component-induced subgraph of B⁰.
    let (comp_graph, comp_map) = local_graph.induced_subgraph(nodes);
    let to_comp = |li: usize| comp_map[li].expect("component node mapped");
    // Spanning tree of the component from the forest adjacency.
    let root_local = nodes[0];
    let mut parent_comp: Vec<Option<usize>> = vec![None; nodes.len()];
    let mut seen = vec![false; nodes.len()];
    seen[to_comp(root_local)] = true;
    let mut queue = std::collections::VecDeque::from([root_local]);
    while let Some(x) = queue.pop_front() {
        for &y in &forest_adj[x] {
            let cy = to_comp(y);
            if !seen[cy] {
                seen[cy] = true;
                parent_comp[cy] = Some(to_comp(x));
                queue.push_back(y);
            }
        }
    }
    if seen.iter().any(|&s| !s) {
        // The forest component did not span its union-find class (cannot
        // happen — labels come from the same forest); bail out defensively.
        return;
    }
    let comp_tree = RootedTree::from_parent_pointers(&comp_graph, to_comp(root_local), parent_comp);
    let mut comp_to_global = vec![0usize; comp_graph.n()];
    for &li in nodes {
        comp_to_global[to_comp(li)] = vg[li];
    }
    // Pieces: the connected components of P ∩ comp within the component
    // graph. Only real global tree edges outside parent cliques survive.
    build_on_pieces(
        inner,
        &comp_graph,
        &comp_tree,
        owned_pieces(&comp_graph, |c| parts.part_of(comp_to_global[c])),
        |le| {
            let (lu, lv) = comp_graph.endpoints(le);
            let (gu, gv) = (comp_to_global[lu], comp_to_global[lv]);
            // Filled clique and star edges are not edges of `g`.
            let ge = g.edge_between(gu, gv)?;
            // An edge inside a parent separator is handled at the parent
            // group.
            (tree.is_tree_edge(ge)
                && !parent_seps
                    .iter()
                    .any(|sep| sep.contains(&gu) && sep.contains(&gv)))
            .then_some(ge)
        },
        per_part,
    );
}

/// Intersection of two sorted slices.
fn intersect_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::SteinerBuilder;
    use crate::shortcut::{measure_quality, validate_tree_restricted};
    use minex_graphs::generators::{self, CliqueSumBuilder};
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    /// Chain of triangulated grids glued along edges: DT is a path.
    fn grid_chain(len: usize) -> (Graph, CliqueSumTree) {
        let comp = generators::triangulated_grid(4, 4);
        let mut builder = CliqueSumBuilder::new(&comp, 2);
        let mut last: Vec<NodeId> = (0..comp.n()).collect();
        for _ in 1..len {
            let host = vec![last[14], last[15]];
            last = builder.glue(&comp, &host, &[0, 1]).unwrap();
        }
        let (g, rec) = builder.build();
        let tree = CliqueSumTree::new(rec).unwrap();
        tree.validate(&g).unwrap();
        (g, tree)
    }

    fn voronoi_parts(g: &Graph, k: usize, seed: u64) -> Partition {
        let mut rng = StdRng::seed_from_u64(seed);
        let seeds: Vec<usize> = (0..k).map(|_| rng.random_range(0..g.n())).collect();
        let bfs = minex_graphs::traversal::multi_source_bfs(g, &seeds);
        let labels: Vec<Option<usize>> = bfs.source_of.iter().map(|&s| Some(s)).collect();
        Partition::from_labels(g, &labels).unwrap()
    }

    #[test]
    fn unfolded_and_folded_are_tree_restricted_and_low_block() {
        let (g, cst) = grid_chain(8);
        let t = RootedTree::bfs(&g, 0);
        let parts = voronoi_parts(&g, 10, 3);
        for fold in [false, true] {
            let b = if fold {
                CliqueSumShortcutBuilder::folded(cst.clone(), SteinerBuilder)
            } else {
                CliqueSumShortcutBuilder::unfolded(cst.clone(), SteinerBuilder)
            };
            let s = b.build(&g, &t, &parts);
            validate_tree_restricted(&s, &t).unwrap();
            let q = measure_quality(&g, &t, &parts, &s);
            // Theorem 7: block ≤ 2k + O(b_F); here k=2, b_F=1 per piece, so
            // a small constant bound must hold.
            assert!(q.block <= 12, "fold={fold}: block={}", q.block);
            assert!(q.congestion >= 1);
        }
    }

    #[test]
    fn parts_spanning_many_bags_get_global_edges() {
        let (g, cst) = grid_chain(6);
        let t = RootedTree::bfs(&g, 0);
        // One giant part: everything.
        let parts = Partition::new(&g, vec![(0..g.n()).collect()]).unwrap();
        let b = CliqueSumShortcutBuilder::unfolded(cst, SteinerBuilder);
        let s = b.build(&g, &t, &parts);
        validate_tree_restricted(&s, &t).unwrap();
        let q = measure_quality(&g, &t, &parts, &s);
        assert!(q.block <= 4, "block={}", q.block);
    }

    #[test]
    fn single_bag_degenerates_to_local() {
        let comp = generators::triangulated_grid(4, 4);
        let builder = CliqueSumBuilder::new(&comp, 2);
        let (g, rec) = builder.build();
        let cst = CliqueSumTree::new(rec).unwrap();
        let t = RootedTree::bfs(&g, 0);
        let parts = voronoi_parts(&g, 4, 1);
        let b = CliqueSumShortcutBuilder::folded(cst, SteinerBuilder);
        let s = b.build(&g, &t, &parts);
        validate_tree_restricted(&s, &t).unwrap();
        let q = measure_quality(&g, &t, &parts, &s);
        assert!(q.block <= 3, "block={}", q.block);
    }

    #[test]
    fn folded_congestion_beats_unfolded_on_deep_chains() {
        // E10's shape, in miniature: deep path decomposition tree, one part
        // per bag region — unfolded global congestion grows with depth.
        let (g, cst) = grid_chain(24);
        let t = RootedTree::bfs(&g, 0);
        let parts = voronoi_parts(&g, 24, 7);
        let unfolded =
            CliqueSumShortcutBuilder::unfolded(cst.clone(), SteinerBuilder).build(&g, &t, &parts);
        let folded = CliqueSumShortcutBuilder::folded(cst, SteinerBuilder).build(&g, &t, &parts);
        let qu = measure_quality(&g, &t, &parts, &unfolded);
        let qf = measure_quality(&g, &t, &parts, &folded);
        // The folded variant must not be dramatically worse; on deep chains
        // it should win or tie on congestion.
        assert!(
            qf.congestion <= qu.congestion.max(8) * 2,
            "folded {} vs unfolded {}",
            qf.congestion,
            qu.congestion
        );
    }

    #[test]
    fn random_clique_sums_work() {
        let comps = vec![
            generators::triangulated_grid(3, 3),
            generators::complete(4),
            generators::cycle(6),
        ];
        for seed in 0..3 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (g, rec) = generators::random_clique_sum(&comps, 15, 3, &mut rng);
            let cst = CliqueSumTree::new(rec).unwrap();
            cst.validate(&g).unwrap();
            let t = RootedTree::bfs(&g, 0);
            let parts = voronoi_parts(&g, 8, seed);
            for fold in [false, true] {
                let b = if fold {
                    CliqueSumShortcutBuilder::folded(cst.clone(), SteinerBuilder)
                } else {
                    CliqueSumShortcutBuilder::unfolded(cst.clone(), SteinerBuilder)
                };
                let s = b.build(&g, &t, &parts);
                validate_tree_restricted(&s, &t).unwrap();
            }
        }
    }
}
