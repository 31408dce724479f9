//! Distributed connected components / spanning forest — the unweighted
//! specialization of the Borůvka driver, another of the "such problems"
//! Theorem 1 serves (component identification is exactly part-wise minimum
//! of node ids).

use minex_core::construct::ShortcutBuilder;
use minex_core::{Partition, RootedTree, Shortcut};
use minex_graphs::{EdgeId, Graph};

/// Builds shortcuts per connected component and merges them (builders
/// require a connected spanning tree, so run them component-wise).
pub(crate) fn build_per_component(
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
    use minex_core::construct::SteinerBuilder;
    use minex_graphs::{generators, GraphBuilder};

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
}
