//! The apex construction (Lemma 9 / Theorem 8).
//!
//! Adding an apex can collapse the network diameter while the underlying
//! planar part stays "long", so per-part Steiner subtrees (whose quality
//! scales with the *tree* diameter) remain fine — but a naive construction
//! on the apex-free graph would not be competitive with the new diameter.
//! The Lemma 9 construction:
//!
//! 1. parts containing an apex get the entire spanning tree;
//! 2. removing the apices splits the BFS tree into low-diameter *cells*;
//! 3. a β-cell-assignment `R` (Lemma 5 peeling over the cell/part incidence)
//!    hands each part the cell subtrees `T[C]` of its related cells plus the
//!    *uplink* edges connecting those cells to the apices — global
//!    shortcuts;
//! 4. inside each cell, an inner builder serves the part fragments — local
//!    shortcuts.
//!
//! Block parameter: `1 + 2·b_inner` (≤ 2 unrelated cells per part, one
//! merged global block); congestion: `β + c_inner + q` — both measured.

use minex_graphs::{EdgeId, Graph, NodeId};

use crate::cells::{assign_cells, CellPartition};
use crate::construct::{build_on_pieces, owned_pieces, ShortcutBuilder};
use crate::parts::Partition;
use crate::shortcut::Shortcut;
use crate::spanning::RootedTree;

/// Lemma 9 / Theorem 8 shortcut construction for apex graphs.
#[derive(Debug)]
pub struct ApexBuilder<B> {
    apices: Vec<NodeId>,
    inner: B,
}

impl<B: ShortcutBuilder> ApexBuilder<B> {
    /// Creates the builder for a graph whose apices are `apices`; `inner`
    /// serves the per-cell local problems (the planar / genus+vortex family
    /// builder in the paper; any structure-oblivious builder here).
    pub fn new(apices: Vec<NodeId>, inner: B) -> Self {
        assert!(!apices.is_empty(), "apex builder needs at least one apex");
        ApexBuilder { apices, inner }
    }
}

impl<B: ShortcutBuilder> ShortcutBuilder for ApexBuilder<B> {
    fn name(&self) -> &'static str {
        "apex"
    }

    fn build(&self, g: &Graph, tree: &RootedTree, parts: &Partition) -> Shortcut {
        let mut per_part: Vec<Vec<EdgeId>> = vec![Vec::new(); parts.len()];
        let all_tree_edges: Vec<EdgeId> = (0..g.m()).filter(|&e| tree.is_tree_edge(e)).collect();
        let mut is_apex = vec![false; g.n()];
        for &a in &self.apices {
            is_apex[a] = true;
        }
        // (1) Parts containing an apex use the whole tree.
        let mut handled = vec![false; parts.len()];
        for (i, part) in parts.parts().iter().enumerate() {
            if part.iter().any(|&v| is_apex[v]) {
                per_part[i] = all_tree_edges.clone();
                handled[i] = true;
            }
        }
        // (2) Cells = components of T - apices.
        let cells = CellPartition::from_tree_removal(g, tree, &self.apices);
        if cells.is_empty() {
            return Shortcut::new(per_part);
        }
        // Restrict the assignment to unhandled parts by giving handled parts
        // no cell incidence: build a filtered view of parts. Simplest: run
        // the peeling on all parts, then ignore handled ones.
        let assignment = assign_cells(&cells, parts);
        // Precompute per-cell: subtree edges T[C] and apex uplink edges.
        let mut cell_tree_edges: Vec<Vec<EdgeId>> = Vec::with_capacity(cells.len());
        let mut cell_uplinks: Vec<Vec<EdgeId>> = Vec::with_capacity(cells.len());
        for cell in cells.cells() {
            let mut inside = Vec::new();
            let mut uplinks = Vec::new();
            for &v in cell {
                if let (Some(p), Some(e)) = (tree.parent(v), tree.parent_edge(v)) {
                    if cells.cell_of(p) == cells.cell_of(v) {
                        inside.push(e);
                    } else if is_apex[p] {
                        uplinks.push(e);
                    }
                }
                // Tree edges to apex children of v are that child's uplink
                // from the other side; collect them here too so the cell
                // reaches every adjacent apex.
                for &c in tree.children(v) {
                    if is_apex[c] {
                        uplinks.push(tree.parent_edge(c).expect("child edge"));
                    }
                }
            }
            cell_tree_edges.push(inside);
            cell_uplinks.push(uplinks);
        }
        // (3) Global shortcuts from the assignment.
        for (p, related) in assignment.related.iter().enumerate() {
            if handled[p] {
                continue;
            }
            for &c in related {
                per_part[p].extend_from_slice(&cell_tree_edges[c]);
                per_part[p].extend_from_slice(&cell_uplinks[c]);
            }
        }
        // (4) Local shortcuts inside every cell (related or not — the ≤ 2
        // unrelated cells per part are exactly why local shortcuts exist).
        for (ci, cell) in cells.cells().iter().enumerate() {
            let (sub, map) = g.induced_subgraph(cell);
            if sub.n() <= 1 {
                continue;
            }
            // Root the cell tree at its topmost node.
            let root_global = *cell
                .iter()
                .min_by_key(|&&v| tree.depth(v))
                .expect("cell non-empty");
            let parent_local: Vec<Option<usize>> = cell
                .iter()
                .map(|&v| {
                    tree.parent(v).and_then(|p| {
                        if cells.cell_of(p) == Some(ci) {
                            map[p]
                        } else {
                            None
                        }
                    })
                })
                .collect();
            // Cell subtrees of T are connected, so this spans `sub` iff the
            // induced subgraph is connected — which it is (cells come from
            // tree components).
            let local_tree = RootedTree::from_parent_pointers(
                &sub,
                map[root_global].expect("root in cell"),
                parent_local,
            );
            // Part fragments within the cell, split into connected pieces;
            // every local tree edge is a real tree edge of T.
            build_on_pieces(
                &self.inner,
                &sub,
                &local_tree,
                owned_pieces(&sub, |lv| parts.part_of(cell[lv]).filter(|&p| !handled[p])),
                |le| {
                    let (lu, lv) = sub.endpoints(le);
                    let ge = g
                        .edge_between(cell[lu], cell[lv])
                        .expect("induced edge exists");
                    tree.is_tree_edge(ge).then_some(ge)
                },
                &mut per_part,
            );
        }
        Shortcut::new(per_part)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::SteinerBuilder;
    use crate::shortcut::{measure_quality, validate_tree_restricted};
    use minex_graphs::generators;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    #[test]
    fn wheel_rim_parts_get_constant_quality() {
        // The motivating example: wheel = cycle + apex. Rim parts would have
        // Θ(n) diameter alone; with apex shortcuts the quality is O(1)-ish.
        let n = 64;
        let g = generators::wheel(n);
        let hub = n - 1;
        let t = RootedTree::bfs(&g, hub);
        let rim_parts: Vec<Vec<NodeId>> = (0..(n - 1) / 8)
            .map(|i| (8 * i..8 * i + 8).collect())
            .collect();
        let parts = Partition::new(&g, rim_parts).unwrap();
        let b = ApexBuilder::new(vec![hub], SteinerBuilder);
        let s = b.build(&g, &t, &parts);
        validate_tree_restricted(&s, &t).unwrap();
        let q = measure_quality(&g, &t, &parts, &s);
        // The BFS tree from the hub has diameter 2, cells are singletons:
        // blocks stay small and congestion is bounded by β + O(1).
        assert!(q.block <= 12, "block={}", q.block);
        assert!(q.quality <= 64, "quality={}", q.quality);
    }

    #[test]
    fn apex_grid_with_column_parts() {
        let (g, apex) = generators::apex_grid(10, 10, 4);
        let t = RootedTree::bfs(&g, apex);
        let cols: Vec<Vec<NodeId>> = (0..10)
            .map(|c| (0..10).map(|r| r * 10 + c).collect())
            .collect();
        let parts = Partition::new(&g, cols).unwrap();
        let b = ApexBuilder::new(vec![apex], SteinerBuilder);
        let s = b.build(&g, &t, &parts);
        validate_tree_restricted(&s, &t).unwrap();
        let q = measure_quality(&g, &t, &parts, &s);
        assert!(q.block <= 2 + 2 * 3, "block={}", q.block);
    }

    #[test]
    fn part_containing_apex_gets_whole_tree() {
        let (g, apex) = generators::apex_grid(4, 4, 1);
        let t = RootedTree::bfs(&g, 0);
        let parts = Partition::new(&g, vec![vec![apex, 0], vec![5, 6]]).unwrap();
        let b = ApexBuilder::new(vec![apex], SteinerBuilder);
        let s = b.build(&g, &t, &parts);
        assert_eq!(s.edges(0).len(), g.n() - 1);
        let q = measure_quality(&g, &t, &parts, &s);
        assert_eq!(q.per_part_blocks[0], 1);
    }

    #[test]
    fn multiple_apices() {
        let base = generators::grid(8, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let (g, apices) = generators::add_random_apices(&base, 3, 0.15, &mut rng);
        let t = RootedTree::bfs(&g, apices[0]);
        let seeds: Vec<usize> = (0..6).map(|_| rng.random_range(0..base.n())).collect();
        let bfs = minex_graphs::traversal::multi_source_bfs(&g, &seeds);
        let labels: Vec<Option<usize>> = (0..g.n())
            .map(|v| {
                if apices.contains(&v) {
                    None
                } else {
                    Some(bfs.source_of[v])
                }
            })
            .collect();
        // Labels may induce disconnected "parts" (apices removed): split.
        let pieces = owned_pieces(&g, |v| labels[v]);
        let parts = Partition::new(&g, pieces.into_iter().map(|(_, p)| p).collect()).unwrap();
        let b = ApexBuilder::new(apices, SteinerBuilder);
        let s = b.build(&g, &t, &parts);
        validate_tree_restricted(&s, &t).unwrap();
    }
}
