//! `(1+ε)`-approximate minimum cut (Corollary 1).
//!
//! The paper invokes min-cut via the shortcut framework as a black box
//! ([NS14, GK13]); we realize the standard tree-packing route those results
//! build on \[Karger, Thorup\]:
//!
//! 1. greedily pack spanning trees — tree `t` is an MST under edge keys
//!    `(load so far, weight)`. [`greedy_tree_packing`] computes them
//!    centrally by Kruskal, and
//!    [`Solver::min_cut`](crate::solver::Solver::min_cut) charges each tree
//!    the rounds of the session's Borůvka MST (`Õ(q(D))` per tree), which
//!    it simulates once;
//! 2. for each packed tree, evaluate every *1-respecting* cut (one tree
//!    edge removed) via subtree aggregation — `O(depth)` rounds per tree —
//!    and, optionally, every *2-respecting* cut centrally (the distributed
//!    2-respecting evaluation of later work is out of scope; ratios are
//!    reported against the exact value of [`exact_min_cut`] either way).
//!
//! [`stoer_wagner`] is the independent reference the exact value is tested
//! against; no query path calls it.

use std::cmp::Reverse;
use std::collections::BTreeSet;

use minex_graphs::{traversal, NodeId, ParentTree, UnionFind, WeightedGraph};

/// Exact global minimum cut by Nagamochi–Ono–Ibaraki contraction, in
/// `O(n + m)` memory.
///
/// Each pass builds the adjacency of the current (contracted) graph and
/// lowers the best cut `λ̂` to its smallest weighted degree. It then runs
/// one maximum-adjacency scan from node 0, largest scan value first and
/// ties to the smaller id. Each prefix `S ≠ V` of the scan is a cut, and
/// `λ̂` takes its weight. When scanning `x` raises a neighbour's scan
/// value `r(y)` to `λ̂` or more, no cut lighter than `λ̂` separates `x`
/// and `y` (Nagamochi–Ibaraki: their edge connectivity is at least
/// `r(y)`), so the pass merges them. The node scanned last ends with
/// `r = deg ≥ λ̂`, so every pass contracts at least one edge.
///
/// A pass costs `O(m log n)`. The worst case is `n − 1` passes, which a
/// unit-weight cycle takes: its scan contracts one edge a pass. Measured:
/// 1–4 passes on the tri-grids, k-trees and mazes of `serve-mixed`
/// (n ≤ 196), 2 on unit tri-grids up to 212 × 212 (n = 44,944), and at
/// most 9 on every graph but the cycles of a 20,000-graph run against
/// [`stoer_wagner`] (random, k-tree, grid and cycle graphs, n < 60).
/// Every running sum is a cut or degree weight, so it stays at most the
/// total weight.
///
/// # Panics
///
/// Panics if the graph has fewer than 2 nodes, is disconnected, or its
/// total weight overflows `u64`.
pub fn exact_min_cut(wg: &WeightedGraph) -> u64 {
    let g = wg.graph();
    assert!(g.n() >= 2, "min cut needs at least two nodes");
    assert!(traversal::is_connected(g), "graph must be connected");
    wg.weights()
        .iter()
        .try_fold(0u64, |sum, &w| sum.checked_add(w))
        .expect("the total edge weight must fit in u64");
    let mut edges: Vec<(NodeId, NodeId, u64)> =
        g.edges().map(|(e, u, v)| (u, v, wg.weight(e))).collect();
    let mut n = g.n();
    let mut best = u64::MAX;
    while n > 1 {
        let mut start = vec![0usize; n + 1];
        for &(u, v, _) in &edges {
            start[u + 1] += 1;
            start[v + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut adj = vec![(0, 0); 2 * edges.len()];
        let mut deg = vec![0u64; n];
        for &(u, v, w) in &edges {
            adj[fill[u]] = (v, w);
            adj[fill[v]] = (u, w);
            fill[u] += 1;
            fill[v] += 1;
            deg[u] += w;
            deg[v] += w;
        }
        best = best.min(deg.iter().copied().min().expect("n > 1"));

        let mut r = vec![0u64; n];
        let mut scanned = vec![false; n];
        let mut queue: BTreeSet<(Reverse<u64>, NodeId)> = (0..n).map(|v| (Reverse(0), v)).collect();
        let mut merged = UnionFind::new(n);
        // w(S, V ∖ S) for the scanned set S.
        let mut alpha = 0u64;
        while let Some((_, x)) = queue.pop_first() {
            scanned[x] = true;
            alpha = alpha - r[x] + (deg[x] - r[x]);
            if !queue.is_empty() {
                best = best.min(alpha);
            }
            for &(y, w) in &adj[start[x]..start[x + 1]] {
                if scanned[y] {
                    continue;
                }
                queue.remove(&(Reverse(r[y]), y));
                r[y] += w;
                queue.insert((Reverse(r[y]), y));
                if r[y] >= best {
                    merged.union(x, y);
                }
            }
        }

        // Contract: relabel, drop self-loops, sum parallel edges.
        let (label, k) = merged.labels();
        for (u, v, _) in &mut edges {
            let (a, b) = (label[*u], label[*v]);
            (*u, *v) = (a.min(b), a.max(b));
        }
        edges.retain(|&(u, v, _)| u != v);
        edges.sort_unstable();
        edges.dedup_by(|next, kept| {
            let parallel = (next.0, next.1) == (kept.0, kept.1);
            if parallel {
                kept.2 += next.2;
            }
            parallel
        });
        n = k;
    }
    best
}

/// Exact global minimum cut by Stoer–Wagner (`O(n³)` time over a dense
/// `n × n` matrix): the independent reference that tests and benchmark
/// oracles check [`exact_min_cut`] and the solver's exact value against.
///
/// # Panics
///
/// Panics if the graph has fewer than 2 nodes or is disconnected.
pub fn stoer_wagner(wg: &WeightedGraph) -> u64 {
    let g = wg.graph();
    let n = g.n();
    assert!(n >= 2, "min cut needs at least two nodes");
    assert!(traversal::is_connected(g), "graph must be connected");
    // Dense weight matrix.
    let mut w = vec![vec![0u64; n]; n];
    for (e, u, v) in g.edges() {
        w[u][v] += wg.weight(e);
        w[v][u] += wg.weight(e);
    }
    let mut active: Vec<usize> = (0..n).collect();
    let mut best = u64::MAX;
    while active.len() > 1 {
        // Maximum adjacency (minimum cut phase).
        let k = active.len();
        let mut in_a = vec![false; k];
        let mut score: Vec<u64> = vec![0; k];
        let mut order = Vec::with_capacity(k);
        for _ in 0..k {
            let next = (0..k)
                .filter(|&i| !in_a[i])
                .max_by_key(|&i| score[i])
                .expect("some vertex remains");
            in_a[next] = true;
            order.push(next);
            for i in 0..k {
                if !in_a[i] {
                    score[i] += w[active[next]][active[i]];
                }
            }
        }
        let t = order[k - 1];
        let s = order[k - 2];
        // Cut of the phase: weight of t's connections.
        let cut_of_phase: u64 = (0..k)
            .filter(|&i| i != t)
            .map(|i| w[active[t]][active[i]])
            .sum();
        best = best.min(cut_of_phase);
        // Merge t into s.
        let (vs, vt) = (active[s], active[t]);
        for &vi in &active {
            if vi != vs && vi != vt {
                w[vs][vi] += w[vt][vi];
                w[vi][vs] = w[vs][vi];
            }
        }
        active.swap_remove(t);
    }
    best
}

/// A packed spanning tree: its layout plus the edges used.
#[derive(Debug, Clone)]
pub struct PackedTree {
    /// The tree rooted at node 0; its pre-order holds every subtree as
    /// the contiguous range that starts at its root.
    pub tree: ParentTree,
    /// The tree's edges.
    pub edges: Vec<usize>,
}

/// Greedy tree packing: `count` spanning trees, each an MST under
/// `(load, weight)` keys, incrementing loads of used edges.
///
/// # Panics
///
/// Panics if the graph is empty or disconnected.
pub fn greedy_tree_packing(wg: &WeightedGraph, count: usize) -> Vec<PackedTree> {
    let g = wg.graph();
    let mut load = vec![0u64; g.m()];
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        // Kruskal under (load, weight, id).
        let mut order: Vec<usize> = (0..g.m()).collect();
        order.sort_by_key(|&e| (load[e], wg.weight(e), e));
        let mut uf = minex_graphs::UnionFind::new(g.n());
        let mut edges = Vec::with_capacity(g.n().saturating_sub(1));
        for e in order {
            let (u, v) = g.endpoints(e);
            if uf.union(u, v) {
                edges.push(e);
            }
        }
        for &e in &edges {
            load[e] += 1;
        }
        // Parent pointers by BFS over tree edges.
        let mut allowed = vec![false; g.m()];
        for &e in &edges {
            allowed[e] = true;
        }
        let mut parent = vec![None; g.n()];
        let mut seen = vec![false; g.n()];
        seen[0] = true;
        let mut queue = std::collections::VecDeque::from([0usize]);
        while let Some(x) = queue.pop_front() {
            for (y, e) in g.neighbors(x) {
                if allowed[e] && !seen[y] {
                    seen[y] = true;
                    parent[y] = Some(x);
                    queue.push_back(y);
                }
            }
        }
        let tree = ParentTree::new(parent)
            .unwrap_or_else(|e| panic!("a packed tree must span the graph: {e}"));
        out.push(PackedTree { tree, edges });
    }
    out
}

/// All 1-respecting cut values of a spanning tree: for each non-root `v`,
/// the weight of edges crossing `subtree(v)`.
///
/// Uses the classic identity `cut(v) = A(v) − B(v)` where `A` sums, over
/// the subtree, the weighted degrees, and `B` twice the weight of edges
/// whose tree-LCA lies in the subtree. The sums are exact in `u128`, so
/// every value is exact whenever it fits in `u64` (a heavier cut reads
/// `u64::MAX`).
///
/// # Panics
///
/// Panics unless `tree` has one node per node of `wg`'s graph.
pub fn one_respecting_cuts(wg: &WeightedGraph, tree: &PackedTree) -> Vec<(NodeId, u64)> {
    let g = wg.graph();
    let n = g.n();
    assert_eq!(tree.tree.n(), n, "a packed tree must span the graph");
    let layout = &tree.tree;
    let mut a_sub = vec![0u128; n];
    let mut b_sub = vec![0u128; n];
    for (e, u, v) in g.edges() {
        let wt = u128::from(wg.weight(e));
        a_sub[u] += wt;
        a_sub[v] += wt;
        b_sub[layout.lca(u, v)] += 2 * wt;
    }
    // Subtree sums bottom-up.
    for &v in layout.preorder().iter().rev() {
        if let Some(p) = layout.parent(v) {
            a_sub[p] += a_sub[v];
            b_sub[p] += b_sub[v];
        }
    }
    (0..n)
        .filter(|&v| layout.parent(v).is_some())
        .map(|v| (v, u64::try_from(a_sub[v] - b_sub[v]).unwrap_or(u64::MAX)))
        .collect()
}

/// Minimum 2-respecting cut of a spanning tree: over every pair of
/// non-root nodes `a ≠ b`, the cut that crosses exactly the tree edges
/// above `a` and `b`, whose side is `sub(a) ∪ sub(b)` (disjoint subtrees)
/// or `sub(a) ∖ sub(b)` (`b` below `a`). Cuts of weight 0 are skipped, and
/// a tree with fewer than two non-root nodes yields `u64::MAX`.
///
/// With `C(v)` the 1-respecting cut of `v`'s subtree, a disjoint pair cuts
/// `C(a) + C(b) − 2·w(sub a, sub b)` and a nested pair cuts
/// `C(a) − C(b) + 2·w(sub b, sub a ∖ sub b)`. One length-`n` row holds the
/// weights from `sub(a)` to every subtree: each edge at a node of `sub(a)`
/// adds its weight at its other endpoint, and a reverse pre-order pass sums
/// the row up the tree. That is `O(n² + m · depth)` time and `O(n)` extra
/// memory. Sums are exact in `u128`, so every value equals the plain
/// per-pair edge scan whenever the total weight fits in `u64`.
///
/// # Panics
///
/// Panics unless `tree` has one node per node of `wg`'s graph.
pub fn min_two_respecting_cut(wg: &WeightedGraph, tree: &PackedTree) -> u64 {
    let g = wg.graph();
    let n = g.n();
    assert_eq!(tree.tree.n(), n, "a packed tree must span the graph");
    let layout = &tree.tree;
    let order = layout.preorder();
    // Filled in reverse pre-order, so a row only reads nodes already done:
    // `cut[v]` = C(v), `inner[v]` = twice the weight inside sub(v).
    let mut cut = vec![0u128; n];
    let mut inner = vec![0u128; n];
    let mut row = vec![0u128; n];
    let mut best = u128::MAX;
    // order[0] is the root, which cuts nothing.
    for i in (1..n).rev() {
        let a = order[i];
        let end = i + layout.subtree_size(a);
        row.fill(0);
        let mut degrees = 0u128;
        for &y in &order[i..end] {
            for (x, e) in g.neighbors(y) {
                let w = u128::from(wg.weight(e));
                row[x] += w;
                degrees += w;
            }
        }
        // row[v] becomes the weight from sub(a) into sub(v) for every v
        // from a on in pre-order.
        for &v in order[i + 1..].iter().rev() {
            let p = layout.parent(v).expect("only the root lacks a parent");
            row[p] += row[v];
        }
        inner[a] = row[a];
        cut[a] = degrees - row[a];
        for (j, &b) in order.iter().enumerate().skip(i + 1) {
            let value = if j < end {
                // row[b] counts the edges inside sub(b) from both ends.
                cut[a] + 2 * (row[b] - inner[b]) - cut[b]
            } else {
                cut[a] + cut[b] - 2 * row[b]
            };
            if value > 0 {
                best = best.min(value);
            }
        }
    }
    u64::try_from(best).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minex_congest::CongestConfig;
    use minex_core::construct::SteinerBuilder;
    use minex_graphs::{generators, Graph, GraphBuilder, WeightModel};
    use rand::seq::SliceRandom;
    use rand::{rngs::StdRng, SeedableRng};

    fn cfg(n: usize) -> CongestConfig {
        CongestConfig::for_nodes(n)
            .with_bandwidth(192)
            .with_max_rounds(500_000)
    }

    #[test]
    fn stoer_wagner_known_cuts() {
        // Two triangles joined by one edge: min cut 1.
        let g =
            Graph::from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]).unwrap();
        let wg = WeightedGraph::unit(g);
        assert_eq!(stoer_wagner(&wg), 1);
        assert_eq!(exact_min_cut(&wg), 1);
        // Cycle: min cut 2.
        let wg = WeightedGraph::unit(generators::cycle(7));
        assert_eq!(stoer_wagner(&wg), 2);
        assert_eq!(exact_min_cut(&wg), 2);
        // Complete graph K5: min cut 4.
        let wg = WeightedGraph::unit(generators::complete(5));
        assert_eq!(stoer_wagner(&wg), 4);
        assert_eq!(exact_min_cut(&wg), 4);
    }

    #[test]
    fn stoer_wagner_weighted() {
        // Path with weights: min cut = lightest edge.
        let g = generators::path(4);
        let wg = WeightedGraph::new(g, vec![5, 2, 9]);
        assert_eq!(stoer_wagner(&wg), 2);
        assert_eq!(exact_min_cut(&wg), 2);
        // 2 × 3 grid: cutting off the right column {2, 5} weighs 2, one
        // below every weighted degree, so no pass may merge across it.
        let edges = [(0, 1), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (4, 5)];
        let wg = WeightedGraph::new(
            Graph::from_edges(6, edges).unwrap(),
            vec![2, 1, 1, 1, 3, 2, 1],
        );
        assert_eq!(stoer_wagner(&wg), 2);
        assert_eq!(exact_min_cut(&wg), 2);
    }

    #[test]
    fn packing_produces_spanning_trees() {
        let g = generators::triangulated_grid(5, 5);
        let wg = WeightedGraph::unit(g.clone());
        let packing = greedy_tree_packing(&wg, 4);
        assert_eq!(packing.len(), 4);
        for tree in &packing {
            assert_eq!(tree.edges.len(), g.n() - 1);
            assert_eq!(tree.tree.n(), g.n());
        }
        // Greedy packing spreads load: the union of the trees is larger
        // than one tree.
        let mut used: Vec<usize> = packing.iter().flat_map(|t| t.edges.clone()).collect();
        used.sort_unstable();
        used.dedup();
        assert!(used.len() > g.n() - 1);
    }

    #[test]
    fn one_respecting_matches_exact_on_cycle() {
        // On a cycle every 1-respecting cut has value 2 = exact min cut.
        let g = generators::cycle(8);
        let wg = WeightedGraph::unit(g);
        let packing = greedy_tree_packing(&wg, 1);
        let cuts = one_respecting_cuts(&wg, &packing[0]);
        assert!(cuts.iter().all(|&(_, c)| c == 2));
    }

    #[test]
    fn one_respecting_brute_force_check() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = generators::random_connected(16, 14, &mut rng);
        let wg = WeightModel::Uniform { lo: 1, hi: 9 }.apply(&g, &mut rng);
        let packing = greedy_tree_packing(&wg, 1);
        let tree = &packing[0];
        // Brute force each subtree cut.
        let n = g.n();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for v in 0..n {
            if let Some(p) = tree.tree.parent(v) {
                children[p].push(v);
            }
        }
        let collect_subtree = |v: usize| -> Vec<usize> {
            let mut out = vec![v];
            let mut stack = vec![v];
            while let Some(x) = stack.pop() {
                for &c in &children[x] {
                    out.push(c);
                    stack.push(c);
                }
            }
            out
        };
        for (v, cut) in one_respecting_cuts(&wg, tree) {
            let sub: std::collections::HashSet<usize> = collect_subtree(v).into_iter().collect();
            let brute: u64 = g
                .edges()
                .filter(|&(_, u, w2)| sub.contains(&u) != sub.contains(&w2))
                .map(|(e, _, _)| wg.weight(e))
                .sum();
            assert_eq!(cut, brute, "node {v}");
        }
    }

    #[test]
    fn approx_cut_close_to_exact_on_planar() {
        let g = generators::triangulated_grid(5, 5);
        let mut rng = StdRng::seed_from_u64(9);
        let wg = WeightModel::Uniform { lo: 1, hi: 4 }.apply(&g, &mut rng);
        let report = crate::solver::Solver::builder(&wg)
            .shortcut_builder(SteinerBuilder)
            .config(cfg(g.n()))
            .build()
            .unwrap()
            .min_cut_with(6, true)
            .unwrap();
        let out = &report.value;
        assert!(out.approx_value >= out.exact_value);
        assert!(out.ratio <= 1.5, "ratio={}", out.ratio);
        assert!(report.stats.simulated_rounds > 0);
    }

    #[test]
    fn two_respecting_improves_on_crossing_cuts() {
        // A cycle's min cut needs two tree edges when the tree is a path.
        let g = generators::cycle(10);
        let wg = WeightedGraph::unit(g);
        let packing = greedy_tree_packing(&wg, 1);
        let two = min_two_respecting_cut(&wg, &packing[0]);
        assert_eq!(two, 2);
    }

    /// The reference: every pair of tree edges, every graph edge tested
    /// against the pair's side (`O(n² · m)`).
    fn brute_two_respecting_cut(wg: &WeightedGraph, tree: &PackedTree) -> u64 {
        let g = wg.graph();
        let n = g.n();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut root = 0;
        for v in 0..n {
            match tree.tree.parent(v) {
                Some(p) => children[p].push(v),
                None => root = v,
            }
        }
        // Euler intervals.
        let mut tin = vec![0usize; n];
        let mut tout = vec![0usize; n];
        let mut timer = 0;
        let mut stack = vec![(root, false)];
        while let Some((v, processed)) = stack.pop() {
            if processed {
                tout[v] = timer;
                continue;
            }
            tin[v] = timer;
            timer += 1;
            stack.push((v, true));
            for &c in &children[v] {
                stack.push((c, false));
            }
        }
        let in_sub = |v: usize, x: usize| tin[x] >= tin[v] && tout[x] <= tout[v];
        let cut_nodes: Vec<usize> = (0..n).filter(|&v| tree.tree.parent(v).is_some()).collect();
        let mut best = u64::MAX;
        for (i, &a) in cut_nodes.iter().enumerate() {
            for &b in cut_nodes.iter().skip(i + 1) {
                // Side = sub(a) Δ sub(b) for nested, sub(a) ∪ sub(b) otherwise.
                let nested_ab = in_sub(a, b);
                let nested_ba = in_sub(b, a);
                let mut value = 0u64;
                for (e, u, v) in g.edges() {
                    let side = |x: usize| -> bool {
                        if nested_ab {
                            in_sub(a, x) && !in_sub(b, x)
                        } else if nested_ba {
                            in_sub(b, x) && !in_sub(a, x)
                        } else {
                            in_sub(a, x) || in_sub(b, x)
                        }
                    };
                    if side(u) != side(v) {
                        value += wg.weight(e);
                    }
                }
                // Skip degenerate sides (empty or everything).
                if value > 0 {
                    best = best.min(value);
                }
            }
        }
        best
    }

    /// A seeded connected graph: a random tree plus `extra` random edges
    /// plus every edge of `spine`, under weights `1..=max_weight`.
    fn seeded_graph(
        n: usize,
        extra: usize,
        spine: &[(usize, usize)],
        max_weight: u64,
        rng: &mut StdRng,
    ) -> WeightedGraph {
        let base = generators::random_connected(n, extra, rng);
        let mut b = GraphBuilder::new(n);
        for (u, v) in base
            .edges()
            .map(|(_, u, v)| (u, v))
            .chain(spine.iter().copied())
        {
            b.add_edge(u, v).expect("edges join distinct nodes");
        }
        WeightModel::Uniform {
            lo: 1,
            hi: max_weight,
        }
        .apply(&b.build(), rng)
    }

    /// The spanning tree with the given parent pointers.
    fn tree_of(wg: &WeightedGraph, parent: Vec<Option<NodeId>>) -> PackedTree {
        let g = wg.graph();
        let edges = (0..g.n())
            .filter_map(|v| parent[v].map(|p| g.edge_between(p, v).expect("tree edge")))
            .collect();
        let tree = ParentTree::new(parent).expect("one tree");
        PackedTree { tree, edges }
    }

    /// Checks the kernel against the reference on three kinds of tree:
    /// every tree of a 3-tree packing, a path rooted at one end (every
    /// pair nested), and a star (every pair disjoint).
    fn check_against_brute_force(n: usize, extra: usize, seed: u64, max_weight: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut perm: Vec<NodeId> = (0..n).collect();
        perm.shuffle(&mut rng);

        let wg = seeded_graph(n, extra, &[], max_weight, &mut rng);
        for tree in greedy_tree_packing(&wg, 3) {
            assert_eq!(
                min_two_respecting_cut(&wg, &tree),
                brute_two_respecting_cut(&wg, &tree)
            );
        }

        let path: Vec<(usize, usize)> = perm.windows(2).map(|w| (w[0], w[1])).collect();
        let wg = seeded_graph(n, extra, &path, max_weight, &mut rng);
        let mut parent = vec![None; n];
        for &(p, v) in &path {
            parent[v] = Some(p);
        }
        let tree = tree_of(&wg, parent);
        assert_eq!(
            min_two_respecting_cut(&wg, &tree),
            brute_two_respecting_cut(&wg, &tree)
        );

        let hub = perm[0];
        let star: Vec<(usize, usize)> = perm[1..].iter().map(|&v| (hub, v)).collect();
        let wg = seeded_graph(n, extra, &star, max_weight, &mut rng);
        let parent = (0..n).map(|v| (v != hub).then_some(hub)).collect();
        let tree = tree_of(&wg, parent);
        assert_eq!(
            min_two_respecting_cut(&wg, &tree),
            brute_two_respecting_cut(&wg, &tree)
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn two_respecting_matches_brute_force(
            n in 3usize..64, extra in 0usize..96, seed in 0u64..1_000_000,
        ) {
            check_against_brute_force(n, extra, seed, 1 << 16);
        }

        /// Weights up to 2⁴⁰: large sums through the `u128` rows that
        /// still fit the reference's `u64` arithmetic.
        #[test]
        fn two_respecting_matches_brute_force_on_wide_weights(
            n in 3usize..64, extra in 0usize..96, seed in 0u64..1_000_000,
        ) {
            check_against_brute_force(n, extra, seed, 1 << 40);
        }
    }
}
