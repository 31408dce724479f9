//! Distributed connected components / spanning forest — the unweighted
//! specialization of the Borůvka driver, another of the "such problems"
//! Theorem 1 serves (component identification is exactly part-wise minimum
//! of node ids).

use minex_core::construct::ShortcutBuilder;
use minex_core::{Partition, RootedTree, Shortcut};
use minex_graphs::{EdgeId, Graph, NodeId};

/// Builds shortcuts per connected component and merges them (builders
/// require a connected spanning tree, so run them component-wise).
///
/// Nodes and parts are bucketed by component in one pass, and each
/// component's induced subgraph is read off its nodes' own adjacency rows,
/// so a call costs `O(n + m)` plus the builder's work, however many
/// components there are. When one component holds every node, its induced
/// subgraph is `g` itself (local ids are global ids, and edge ids are
/// lexicographic ranks either way), so the builder runs on `g` directly.
pub(crate) fn build_per_component(
    g: &Graph,
    comp_of: &[usize],
    comp_count: usize,
    builder: &dyn ShortcutBuilder,
    parts: &Partition,
) -> Shortcut {
    if comp_count == 1 && g.n() > 1 {
        return builder.build(g, &RootedTree::bfs(g, 0), parts);
    }
    // `local[v]`: v's index among its component's nodes in increasing id
    // order — the node map of the component's induced subgraph.
    let mut nodes_of: Vec<Vec<NodeId>> = vec![Vec::new(); comp_count];
    let mut local = vec![0usize; g.n()];
    for v in 0..g.n() {
        let nodes = &mut nodes_of[comp_of[v]];
        local[v] = nodes.len();
        nodes.push(v);
    }
    // Fragments never straddle components, so each part maps wholesale.
    let mut owners_of: Vec<Vec<usize>> = vec![Vec::new(); comp_count];
    for (i, part) in parts.parts().iter().enumerate() {
        owners_of[comp_of[part[0]]].push(i);
    }
    let mut per_part: Vec<Vec<EdgeId>> = vec![Vec::new(); parts.len()];
    for (nodes, owners) in nodes_of.iter().zip(&owners_of) {
        if nodes.len() <= 1 || owners.is_empty() {
            continue;
        }
        // The node map is monotone, so scanning rows in id order lists the
        // induced edges in lexicographic order: local edge `le` is the
        // global edge `back[le]`.
        let mut edges = Vec::new();
        let mut back: Vec<EdgeId> = Vec::new();
        for &u in nodes {
            for (w, e) in g.neighbors(u).filter(|&(w, _)| w > u) {
                edges.push((local[u], local[w]));
                back.push(e);
            }
        }
        let sub = Graph::from_edges(nodes.len(), edges).expect("induced edges are valid");
        let tree = RootedTree::bfs(&sub, 0);
        let local_parts = owners
            .iter()
            .map(|&i| parts.part(i).iter().map(|&v| local[v]).collect())
            .collect();
        let lp = Partition::new(&sub, local_parts).expect("fragments connected");
        let shortcut = builder.build(&sub, &tree, &lp);
        for (li, &owner) in owners.iter().enumerate() {
            per_part[owner].extend(shortcut.edges(li).iter().map(|&le| back[le]));
        }
    }
    Shortcut::new(per_part)
}

/// The reference [`build_per_component`]: rescans all nodes and all parts
/// once per component.
#[cfg(test)]
fn build_per_component_reference(
    g: &Graph,
    comp_of: &[usize],
    comp_count: usize,
    builder: &dyn ShortcutBuilder,
    parts: &Partition,
) -> Shortcut {
    let mut per_part: Vec<Vec<EdgeId>> = vec![Vec::new(); parts.len()];
    for comp in 0..comp_count {
        let nodes: Vec<usize> = (0..g.n()).filter(|&v| comp_of[v] == comp).collect();
        let (sub, map) = g.induced_subgraph(&nodes);
        if sub.n() <= 1 {
            continue;
        }
        let tree = RootedTree::bfs(&sub, 0);
        // Restrict parts to this component (fragments never straddle
        // components, so each part maps wholesale or not at all).
        let mut local_parts: Vec<Vec<usize>> = Vec::new();
        let mut owners: Vec<usize> = Vec::new();
        for (i, part) in parts.parts().iter().enumerate() {
            if comp_of[part[0]] == comp {
                local_parts.push(part.iter().map(|&v| map[v].expect("in comp")).collect());
                owners.push(i);
            }
        }
        if local_parts.is_empty() {
            continue;
        }
        let lp = Partition::new(&sub, local_parts).expect("fragments connected");
        let local = builder.build(&sub, &tree, &lp);
        // Map local edges back to global ids.
        let mut back = vec![0usize; sub.m()];
        for (le, lu, lv) in sub.edges() {
            back[le] = g.edge_between(nodes[lu], nodes[lv]).expect("induced edge");
        }
        for (li, &owner) in owners.iter().enumerate() {
            per_part[owner].extend(local.edges(li).iter().map(|&le| back[le]));
        }
    }
    Shortcut::new(per_part)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{Components, Solver};
    use minex_congest::CongestConfig;
    use minex_core::construct::{AutoCappedBuilder, SteinerBuilder, WholeTreeBuilder};
    use minex_graphs::{generators, GraphBuilder, UnionFind};
    use rand::seq::SliceRandom;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    fn cfg(n: usize) -> CongestConfig {
        CongestConfig::for_nodes(n)
            .with_bandwidth(160)
            .with_max_rounds(200_000)
    }

    /// One-shot session components: a fresh Solver per call, mirroring
    /// what the removed `connected_components` shim used to do.
    fn session_components(g: &Graph) -> Components {
        Solver::for_graph(g)
            .shortcut_builder(SteinerBuilder)
            .config(cfg(g.n()))
            .build()
            .unwrap()
            .components()
            .unwrap()
            .value
    }

    #[test]
    fn single_component() {
        let g = generators::triangulated_grid(5, 5);
        let out = session_components(&g);
        assert!(out.label.iter().all(|&l| l == 0));
        assert_eq!(out.forest_edges.len(), g.n() - 1);
    }

    #[test]
    fn multiple_components() {
        // Two disjoint cycles and an isolated node.
        let mut b = GraphBuilder::new(11);
        for i in 0..5 {
            b.add_edge(i, (i + 1) % 5).unwrap();
        }
        for i in 0..5 {
            b.add_edge(5 + i, 5 + (i + 1) % 5).unwrap();
        }
        let g = b.build();
        let out = session_components(&g);
        assert!(out.label[..5].iter().all(|&l| l == 0));
        assert!(out.label[5..10].iter().all(|&l| l == 5));
        assert_eq!(out.label[10], 10);
        assert_eq!(out.forest_edges.len(), 8);
        // Agrees with the centralized component labelling.
        let (comp, _) = minex_graphs::traversal::components(&g);
        for v in 0..11 {
            for w in 0..11 {
                assert_eq!(comp[v] == comp[w], out.label[v] == out.label[w]);
            }
        }
    }

    #[test]
    // Components is the one query an empty graph is a *value* for — the
    // session answers with empty labels instead of `AlgoError::EmptyGraph`.
    fn empty_graph() {
        let g = Graph::from_edges(0, []).unwrap();
        let out = session_components(&g);
        assert!(out.label.is_empty());
        assert_eq!(out.boruvka_phases, 0);
    }

    #[test]
    fn forest_edges_span_without_cycles() {
        let g = generators::cylinder(4, 8);
        let out = session_components(&g);
        assert_eq!(out.forest_edges.len(), g.n() - 1);
        let forest =
            Graph::from_edges(g.n(), out.forest_edges.iter().map(|&e| g.endpoints(e))).unwrap();
        assert!(minex_graphs::minor::is_forest(&forest));
        assert!(minex_graphs::traversal::is_connected(&forest));
    }

    /// Random connected components of the given sizes, with node ids
    /// shuffled so that the components interleave in id space.
    fn interleaved_components(sizes: &[usize], extra: usize, rng: &mut StdRng) -> Graph {
        let mut ids: Vec<NodeId> = (0..sizes.iter().sum()).collect();
        ids.shuffle(rng);
        let mut b = GraphBuilder::new(ids.len());
        let mut next = 0;
        for &size in sizes {
            let comp = generators::random_connected(size, extra, rng);
            for (_, u, v) in comp.edges() {
                b.add_edge(ids[next + u], ids[next + v]).unwrap();
            }
            next += size;
        }
        b.build()
    }

    /// Fragments: the pieces left after merging along a random subset of
    /// the edges, so every part is connected and inside one component.
    fn random_fragments(g: &Graph, keep_permille: u64, rng: &mut StdRng) -> Partition {
        let mut uf = UnionFind::new(g.n());
        for (_, u, v) in g.edges() {
            if rng.random_range(0..1000) < keep_permille {
                uf.union(u, v);
            }
        }
        let (labels, _) = uf.labels();
        let labels: Vec<Option<usize>> = labels.into_iter().map(Some).collect();
        Partition::from_labels(g, &labels).unwrap()
    }

    #[test]
    fn connected_build_matches_reference() {
        // One component holding every node: the builder runs on `g` itself.
        let g = generators::triangulated_grid(9, 7);
        let (comp_of, comp_count) = minex_graphs::traversal::components(&g);
        assert_eq!(comp_count, 1);
        let mut rng = StdRng::seed_from_u64(11);
        let singletons = Partition::new(&g, (0..g.n()).map(|v| vec![v]).collect()).unwrap();
        let fragments = random_fragments(&g, 600, &mut rng);
        for parts in [&singletons, &fragments] {
            for builder in [&SteinerBuilder as &dyn ShortcutBuilder, &AutoCappedBuilder] {
                assert_eq!(
                    build_per_component(&g, &comp_of, comp_count, builder, parts),
                    build_per_component_reference(&g, &comp_of, comp_count, builder, parts),
                    "{}",
                    builder.name()
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The bucketed construction against the per-component rescan:
        /// identical shortcuts on random multi-component graphs (isolated
        /// nodes included) with random fragment partitions, for three
        /// builders.
        #[test]
        fn bucketed_build_matches_reference(
            sizes in proptest::collection::vec(1usize..12, 1..6),
            extra in 0usize..8,
            keep_permille in 0u64..1000,
            which in 0usize..3,
            seed in 0u64..10_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = interleaved_components(&sizes, extra, &mut rng);
            let parts = random_fragments(&g, keep_permille, &mut rng);
            let (comp_of, comp_count) = minex_graphs::traversal::components(&g);
            let builder: &dyn ShortcutBuilder = match which {
                0 => &SteinerBuilder,
                1 => &AutoCappedBuilder,
                _ => &WholeTreeBuilder,
            };
            proptest::prop_assert_eq!(
                build_per_component(&g, &comp_of, comp_count, builder, &parts),
                build_per_component_reference(&g, &comp_of, comp_count, builder, &parts)
            );
        }
    }
}
