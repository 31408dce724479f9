//! Output oracles. They run outside the timed phase; a wrong answer counts
//! as a failed operation.

use minex_algo::solver::{MinCut, Mst};
use minex_graphs::{traversal, Graph, NodeId, WeightedGraph};

use crate::stats::fnv64;

/// Result of one oracle: `Err` names what was wrong.
pub type Verdict = Result<(), String>;

/// Exact-tier SSSP equals the sequential Dijkstra distances.
pub fn sssp_exact(wg: &WeightedGraph, source: NodeId, dist: &[u64]) -> Verdict {
    let exact = traversal::dijkstra(wg, source).dist;
    if dist == exact.as_slice() {
        return Ok(());
    }
    let v = (0..exact.len())
        .find(|&v| dist.get(v) != Some(&exact[v]))
        .unwrap_or(exact.len());
    Err(format!(
        "exact sssp from {source}: node {v} has {:?}, Dijkstra says {:?}",
        dist.get(v),
        exact.get(v)
    ))
}

/// Scaled and shortcut tiers: every estimate lies in `[d, (1+ε)·d]`.
pub fn sssp_approx(wg: &WeightedGraph, source: NodeId, dist: &[u64], epsilon: f64) -> Verdict {
    let exact = traversal::dijkstra(wg, source).dist;
    if dist.len() != exact.len() {
        return Err(format!(
            "{} distances for {} nodes",
            dist.len(),
            exact.len()
        ));
    }
    for (v, (&est, &d)) in dist.iter().zip(&exact).enumerate() {
        let ok = if d == u64::MAX {
            est == u64::MAX
        } else {
            est >= d && est as f64 <= (1.0 + epsilon) * d as f64
        };
        if !ok {
            return Err(format!(
                "(1+{epsilon}) sssp from {source}: node {v} has {est}, Dijkstra says {d}"
            ));
        }
    }
    Ok(())
}

/// Sequential Kruskal, written here so the oracle shares no code with the
/// library's MST.
pub fn kruskal_weight(wg: &WeightedGraph) -> u64 {
    let g = wg.graph();
    let mut edges: Vec<(u64, NodeId, NodeId)> =
        g.edges().map(|(e, u, v)| (wg.weight(e), u, v)).collect();
    edges.sort_unstable();
    let mut root: Vec<usize> = (0..g.n()).collect();
    let mut total = 0;
    for (w, u, v) in edges {
        let (a, b) = (find(&mut root, u), find(&mut root, v));
        if a != b {
            root[a] = b;
            total += w;
        }
    }
    total
}

fn find(root: &mut [usize], mut v: usize) -> usize {
    while root[v] != v {
        root[v] = root[root[v]];
        v = root[v];
    }
    v
}

/// The MST answer is a spanning tree whose weight equals Kruskal's.
pub fn mst(wg: &WeightedGraph, answer: &Mst) -> Verdict {
    let g = wg.graph();
    if answer.edges.len() + 1 != g.n() {
        return Err(format!(
            "mst has {} edges for {} nodes",
            answer.edges.len(),
            g.n()
        ));
    }
    let mut root: Vec<usize> = (0..g.n()).collect();
    let mut sum = 0;
    for &e in &answer.edges {
        if e >= g.m() {
            return Err(format!("mst edge {e} out of range"));
        }
        let (u, v) = g.endpoints(e);
        let (a, b) = (find(&mut root, u), find(&mut root, v));
        if a == b {
            return Err(format!("mst edge {e} closes a cycle"));
        }
        root[a] = b;
        sum += wg.weight(e);
    }
    let want = kruskal_weight(wg);
    if sum != answer.total_weight || sum != want {
        return Err(format!(
            "mst weight {} (edges sum to {sum}), Kruskal says {want}",
            answer.total_weight
        ));
    }
    Ok(())
}

/// Component labels match `traversal::components` (label = the smallest
/// node id of the component).
pub fn components(g: &Graph, label: &[usize]) -> Verdict {
    let (comp, count) = traversal::components(g);
    let mut min_of = vec![usize::MAX; count];
    for (v, &c) in comp.iter().enumerate() {
        min_of[c] = min_of[c].min(v);
    }
    if label.len() != g.n() {
        return Err(format!("{} labels for {} nodes", label.len(), g.n()));
    }
    match (0..g.n()).find(|&v| label[v] != min_of[comp[v]]) {
        None => Ok(()),
        Some(v) => Err(format!(
            "node {v} labelled {}, its component's smallest id is {}",
            label[v], min_of[comp[v]]
        )),
    }
}

/// Part-wise minima equal the direct minimum of each part.
pub fn partwise_min(parts: &[Vec<NodeId>], values: &[u64], minima: &[u64]) -> Verdict {
    if minima.len() != parts.len() {
        return Err(format!("{} minima for {} parts", minima.len(), parts.len()));
    }
    for (i, part) in parts.iter().enumerate() {
        let want = part.iter().map(|&v| values[v]).min().unwrap_or(u64::MAX);
        if minima[i] != want {
            return Err(format!(
                "part {i}: minimum {} but direct minimum {want}",
                minima[i]
            ));
        }
    }
    Ok(())
}

/// The reported exact value is the Stoer–Wagner value and the approximate
/// cut is never below it.
pub fn min_cut(stoer_wagner: u64, answer: &MinCut) -> Verdict {
    if answer.exact_value != stoer_wagner {
        return Err(format!(
            "min-cut exact value {} but Stoer-Wagner says {stoer_wagner}",
            answer.exact_value
        ));
    }
    if answer.approx_value < stoer_wagner {
        return Err(format!(
            "approximate cut {} below the exact min cut {stoer_wagner}",
            answer.approx_value
        ));
    }
    Ok(())
}

/// A served body is byte-identical to the in-process twin's.
pub fn same_body(served_hash: u64, twin_body: &str) -> Verdict {
    if served_hash == fnv64(twin_body.as_bytes()) {
        Ok(())
    } else {
        Err("served body differs from the in-process twin's".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minex_algo::solver::{Solver, Tier};
    use minex_graphs::{generators, WeightModel};
    use rand::{rngs::StdRng, SeedableRng};

    fn graph() -> WeightedGraph {
        let g = generators::triangulated_grid(6, 6);
        WeightModel::Uniform { lo: 1, hi: 50 }.apply(&g, &mut StdRng::seed_from_u64(3))
    }

    fn solver(wg: &WeightedGraph) -> Solver {
        Solver::builder(wg)
            .threads(1)
            .build()
            .expect("valid session")
    }

    #[test]
    fn exact_sssp_oracle_flags_a_wrong_distance() {
        let wg = graph();
        let mut dist = solver(&wg).sssp(4, Tier::Exact).unwrap().value.dist;
        assert!(sssp_exact(&wg, 4, &dist).is_ok());
        dist[7] += 1;
        assert!(sssp_exact(&wg, 4, &dist).is_err());
    }

    #[test]
    fn approx_sssp_oracle_flags_stretch_and_underestimate() {
        let wg = graph();
        let mut s = solver(&wg);
        let dist = s
            .sssp(2, Tier::Scaled { epsilon: 0.25 })
            .unwrap()
            .value
            .dist;
        assert!(sssp_approx(&wg, 2, &dist, 0.25).is_ok());
        let exact = traversal::dijkstra(&wg, 2).dist;
        let mut over = dist.clone();
        over[9] = exact[9] * 2;
        assert!(sssp_approx(&wg, 2, &over, 0.25).is_err());
        let mut under = dist;
        under[9] = exact[9] - 1;
        assert!(sssp_approx(&wg, 2, &under, 0.25).is_err());
    }

    #[test]
    fn mst_oracle_flags_weight_and_structure() {
        let wg = graph();
        let answer = solver(&wg).mst().unwrap().value;
        assert!(mst(&wg, &answer).is_ok());
        let mut heavy = answer.clone();
        heavy.total_weight += 1;
        assert!(mst(&wg, &heavy).is_err());
        let mut cyclic = answer.clone();
        cyclic.edges[1] = cyclic.edges[0];
        assert!(mst(&wg, &cyclic).is_err());
        let mut short = answer;
        short.edges.pop();
        assert!(mst(&wg, &short).is_err());
    }

    #[test]
    fn components_oracle_flags_a_wrong_label() {
        let g = generators::grid(3, 4);
        let mut label = solver(&WeightedGraph::unit(g.clone()))
            .components()
            .unwrap()
            .value
            .label;
        assert!(components(&g, &label).is_ok());
        label[5] = 5;
        assert!(components(&g, &label).is_err());
    }

    #[test]
    fn partwise_oracle_flags_a_wrong_minimum() {
        let parts = vec![vec![0, 1], vec![2, 3, 4]];
        let values = [9, 4, 7, 3, 8];
        assert!(partwise_min(&parts, &values, &[4, 3]).is_ok());
        assert!(partwise_min(&parts, &values, &[4, 7]).is_err());
        assert!(partwise_min(&parts, &values, &[4]).is_err());
    }

    #[test]
    fn min_cut_oracle_flags_a_cut_below_exact() {
        let wg = graph();
        let answer = solver(&wg).min_cut(1).unwrap().value;
        let exact = minex_algo::mincut::stoer_wagner(&wg);
        assert!(min_cut(exact, &answer).is_ok());
        let mut low = answer.clone();
        low.approx_value = exact - 1;
        assert!(min_cut(exact, &low).is_err());
        let mut wrong_exact = answer;
        wrong_exact.exact_value += 1;
        assert!(min_cut(exact, &wrong_exact).is_err());
    }

    #[test]
    fn body_oracle_flags_one_changed_byte() {
        let body = "{\"value\":{\"minima\":[1,2]}}";
        assert!(same_body(fnv64(body.as_bytes()), body).is_ok());
        assert!(same_body(fnv64(body.as_bytes()), "{\"value\":{\"minima\":[1,3]}}").is_err());
    }

    #[test]
    fn kruskal_on_a_triangle() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap();
        let wg = WeightedGraph::new(g, vec![5, 20, 7]);
        // Edge ids are lexicographic: (0,1)=5, (0,2)=20, (1,2)=7.
        assert_eq!(kruskal_weight(&wg), 12);
    }
}
