//! Planar graph generators, with straight-line lattice embeddings where the
//! construction affords them.
//!
//! Planar graphs are the `(0,0,0,0)`-almost-embeddable graphs of the paper;
//! the gate construction (Lemma 7) and the planar shortcut experiments (E1)
//! run on these families.

use rand::{Rng, RngExt};

use crate::embedding::StraightLineEmbedding;
use crate::graph::{Graph, GraphBuilder, NodeId};

/// `rows × cols` grid. Node `(r, c)` has id `r * cols + c`.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn grid(rows: usize, cols: usize) -> Graph {
    grid_embedded(rows, cols).0
}

/// `rows × cols` grid together with its lattice embedding (`(x, y) = (c, r)`).
///
/// The edge stream `(v, v+1)` / `(v, v+cols)` in ascending `v` goes
/// through [`Graph::from_edge_stream`]; it is already canonical and sorted,
/// so the sort is one linear pass, and peak memory is the final graph —
/// which is what lets the E15 scale experiment reach `10⁶` nodes.
pub fn grid_embedded(rows: usize, cols: usize) -> (Graph, StraightLineEmbedding) {
    assert!(rows >= 1 && cols >= 1, "grid dimensions must be positive");
    let g = Graph::from_edge_stream(rows * cols, || {
        (0..rows * cols).flat_map(move |v| {
            let (r, c) = (v / cols, v % cols);
            let right = (c + 1 < cols).then_some((v, v + 1));
            let down = (r + 1 < rows).then_some((v, v + cols));
            right.into_iter().chain(down)
        })
    })
    .expect("grid stream is canonical and unique");
    let coords = (0..rows)
        .flat_map(|r| (0..cols).map(move |c| (c as i64, r as i64)))
        .collect();
    (g, StraightLineEmbedding::new(coords))
}

/// Grid with one diagonal per unit cell (all in the same direction), a
/// maximal-ish planar mesh. Keeps the lattice embedding plane because unit
/// square diagonals do not cross grid edges.
pub fn triangulated_grid(rows: usize, cols: usize) -> Graph {
    triangulated_grid_embedded(rows, cols).0
}

/// [`triangulated_grid`] together with its embedding.
///
/// Streams into CSR like [`grid_embedded`]: per node `v` the candidate
/// edges `(v, v+1)`, `(v, v+cols)`, `(v, v+cols+1)` are emitted in
/// increasing order, so the whole stream is sorted, and the million-node
/// instances of the E15 scale experiment hold no edge list beyond the
/// graph's own.
pub fn triangulated_grid_embedded(rows: usize, cols: usize) -> (Graph, StraightLineEmbedding) {
    assert!(rows >= 1 && cols >= 1, "grid dimensions must be positive");
    let g = Graph::from_edge_stream(rows * cols, || {
        (0..rows * cols).flat_map(move |v| {
            let (r, c) = (v / cols, v % cols);
            let right = (c + 1 < cols).then_some((v, v + 1));
            let down = (r + 1 < rows).then_some((v, v + cols));
            let diag = (r + 1 < rows && c + 1 < cols).then_some((v, v + cols + 1));
            right.into_iter().chain(down).chain(diag)
        })
    })
    .expect("triangulated grid stream is canonical and unique");
    let coords = (0..rows)
        .flat_map(|r| (0..cols).map(move |c| (c as i64, r as i64)))
        .collect();
    (g, StraightLineEmbedding::new(coords))
}

/// Grid whose unit cells get a diagonal in a random orientation.
pub fn random_triangulated_grid<R: Rng + ?Sized>(
    rows: usize,
    cols: usize,
    rng: &mut R,
) -> (Graph, StraightLineEmbedding) {
    let (g, emb) = grid_embedded(rows, cols);
    let id = |r: usize, c: usize| r * cols + c;
    let mut b = GraphBuilder::new(rows * cols);
    for (_, u, v) in g.edges() {
        b.add_edge(u, v).expect("grid edge");
    }
    for r in 0..rows.saturating_sub(1) {
        for c in 0..cols.saturating_sub(1) {
            if rng.random_bool(0.5) {
                b.add_edge(id(r, c), id(r + 1, c + 1)).expect("diagonal");
            } else {
                b.add_edge(id(r, c + 1), id(r + 1, c)).expect("diagonal");
            }
        }
    }
    (b.build(), emb)
}

/// Cylinder: a grid whose columns wrap around (`cols ≥ 3`). Planar (embed as
/// an annulus) but with no straight-line lattice embedding, so only the graph
/// is returned.
pub fn cylinder(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 1 && cols >= 3, "cylinder needs cols >= 3");
    let id = |r: usize, c: usize| r * cols + c;
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            b.add_edge(id(r, c), id(r, (c + 1) % cols))
                .expect("ring edge");
            if r + 1 < rows {
                b.add_edge(id(r, c), id(r + 1, c)).expect("rung edge");
            }
        }
    }
    b.build()
}

/// The record of an Apollonian (planar 3-tree) construction: each entry is
/// `(new node, the triangle it was inserted into)`. This is a perfect
/// elimination order witnessing treewidth 3.
#[derive(Debug, Clone)]
pub struct ApollonianRecord {
    /// `(v, [a, b, c])` — node `v` was connected to triangle `{a, b, c}`.
    pub insertions: Vec<(NodeId, [NodeId; 3])>,
}

/// Random Apollonian network with `n ≥ 3` nodes: start from a triangle and
/// repeatedly insert a node into a uniformly random existing face.
///
/// These graphs are simultaneously planar and of treewidth 3 — ideal for
/// cross-checking the planar and treewidth shortcut constructions against
/// each other.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn apollonian<R: Rng + ?Sized>(n: usize, rng: &mut R) -> (Graph, ApollonianRecord) {
    assert!(n >= 3, "apollonian needs at least the initial triangle");
    let mut b = GraphBuilder::new(n);
    b.add_edge(0, 1).expect("triangle");
    b.add_edge(1, 2).expect("triangle");
    b.add_edge(0, 2).expect("triangle");
    let mut faces: Vec<[NodeId; 3]> = vec![[0, 1, 2]];
    let mut insertions = Vec::new();
    for v in 3..n {
        let fi = rng.random_range(0..faces.len());
        let [a, b3, c] = faces[fi];
        b.add_edge(v, a).expect("fan edge");
        b.add_edge(v, b3).expect("fan edge");
        b.add_edge(v, c).expect("fan edge");
        insertions.push((v, [a, b3, c]));
        faces.swap_remove(fi);
        faces.push([a, b3, v]);
        faces.push([a, c, v]);
        faces.push([b3, c, v]);
    }
    (b.build(), ApollonianRecord { insertions })
}

/// Maximal outerplanar graph: a cycle `0..n` plus a fan triangulation from
/// node 0. Treewidth 2, planar, Hamiltonian outer face.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn outerplanar_fan(n: usize) -> Graph {
    assert!(n >= 3, "outerplanar graph needs at least three nodes");
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        b.add_edge(i, (i + 1) % n).expect("cycle edge");
    }
    for i in 2..n - 1 {
        b.add_edge(0, i).expect("chord");
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minor::{is_k4_minor_free, satisfies_planar_edge_bound};
    use crate::traversal::{diameter_exact, is_connected};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!((g.n(), g.m()), (12, 17));
        assert!(is_connected(&g));
        assert_eq!(diameter_exact(&g), Some(5));
    }

    #[test]
    fn one_by_one_grid() {
        let g = grid(1, 1);
        assert_eq!((g.n(), g.m()), (1, 0));
    }

    #[test]
    fn triangulated_grid_shape() {
        let g = triangulated_grid(3, 3);
        // 12 grid edges + 4 diagonals.
        assert_eq!((g.n(), g.m()), (9, 16));
        assert!(satisfies_planar_edge_bound(&g));
    }

    #[test]
    fn random_triangulation_planar_bound() {
        let mut rng = StdRng::seed_from_u64(5);
        let (g, _) = random_triangulated_grid(6, 6, &mut rng);
        assert!(satisfies_planar_edge_bound(&g));
        assert!(is_connected(&g));
    }

    #[test]
    fn cylinder_shape() {
        let g = cylinder(3, 5);
        assert_eq!(g.n(), 15);
        assert_eq!(g.m(), 15 + 10);
        assert!(is_connected(&g));
    }

    #[test]
    fn apollonian_is_planar_bound_and_connected() {
        let mut rng = StdRng::seed_from_u64(11);
        let (g, rec) = apollonian(40, &mut rng);
        assert!(is_connected(&g));
        assert!(satisfies_planar_edge_bound(&g));
        // Maximal planar: m = 3n - 6 exactly.
        assert_eq!(g.m(), 3 * g.n() - 6);
        assert_eq!(rec.insertions.len(), 37);
        // Each inserted node's triangle really is a triangle.
        for &(v, [a, b, c]) in &rec.insertions {
            assert!(g.has_edge(v, a) && g.has_edge(v, b) && g.has_edge(v, c));
            assert!(g.has_edge(a, b) && g.has_edge(b, c) && g.has_edge(a, c));
        }
    }

    #[test]
    fn outerplanar_is_series_parallel() {
        let g = outerplanar_fan(10);
        assert!(is_k4_minor_free(&g));
        assert_eq!(g.m(), 2 * 10 - 3);
    }
}
