//! Reusable distributed building blocks: BFS-tree construction, distance
//! floods and relax rounds, and tree convergecast.
//!
//! Each primitive is both a usable subroutine for the higher-level
//! algorithms and a validation workload for the simulator: the expected
//! round counts (`≈ eccentricity`, `≈ depth`) are asserted in tests.

use minex_graphs::dist::dist_add;
use minex_graphs::{Graph, NodeId, WeightedGraph};

use crate::message::Payload;
use crate::program::{Ctx, NodeProgram};
use crate::runtime::{run, CongestConfig, RunStats, SimError, Simulator};

/// Result of the distributed BFS-tree construction.
///
/// # Unreached-node contract
///
/// On a disconnected graph the flood only covers the root's component:
/// every node outside it ends with `dist[v] == usize::MAX` and
/// `parent[v] == None`, and the run still quiesces normally (unreached
/// programs never wake up, so they cost no rounds or messages beyond the
/// reached component's).
#[derive(Debug, Clone)]
pub struct BfsTreeResult {
    /// The root used.
    pub root: NodeId,
    /// `parent[v]` — BFS parent, `None` for the root (and unreachable nodes).
    pub parent: Vec<Option<NodeId>>,
    /// `dist[v]` — hop distance from the root (`usize::MAX` if unreached).
    pub dist: Vec<usize>,
    /// Simulation statistics.
    pub stats: RunStats,
}

#[derive(Debug, Clone)]
struct BfsProgram {
    root: NodeId,
    dist: Option<usize>,
    parent: Option<NodeId>,
    announce: bool,
}

impl NodeProgram for BfsProgram {
    type Msg = usize;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        if ctx.round() == 0 && ctx.node() == self.root {
            self.dist = Some(0);
            self.announce = true;
        }
        for &(from, d) in ctx.inbox() {
            if self.dist.map_or(true, |mine| d + 1 < mine) {
                self.dist = Some(d + 1);
                self.parent = Some(from);
                self.announce = true;
            }
        }
        if self.announce {
            self.announce = false;
            let d = self.dist.expect("announce implies dist");
            ctx.broadcast(d);
        }
    }

    fn is_done(&self) -> bool {
        !self.announce
    }
}

/// Builds a BFS tree rooted at `root` by distributed flooding.
///
/// Takes `eccentricity(root) + O(1)` rounds.
///
/// # Errors
///
/// Propagates [`SimError`] from the runtime.
pub fn build_bfs_tree(
    g: &Graph,
    root: NodeId,
    config: CongestConfig,
) -> Result<BfsTreeResult, SimError> {
    assert!(root < g.n(), "root out of range");
    let mut programs: Vec<BfsProgram> = (0..g.n())
        .map(|_| BfsProgram {
            root,
            dist: None,
            parent: None,
            announce: false,
        })
        .collect();
    let stats = run(g, &mut programs, config)?;
    Ok(BfsTreeResult {
        root,
        parent: programs.iter().map(|p| p.parent).collect(),
        dist: programs
            .iter()
            .map(|p| p.dist.unwrap_or(usize::MAX))
            .collect(),
        stats,
    })
}

/// A distance announcement with an honest, caller-declared bit width
/// (`bits_for(max_distance + 1)` — node ids travel implicitly as the sender
/// port, so only the value is charged).
#[derive(Debug, Clone)]
pub struct DistMsg {
    /// The announced distance value.
    pub value: u64,
    /// Declared encoding width in bits.
    pub bits: usize,
}

impl Payload for DistMsg {
    fn bit_size(&self) -> usize {
        self.bits
    }
}

/// Result of a weighted distance flood (distributed Bellman–Ford).
///
/// The same unreached-node contract as [`BfsTreeResult`] applies:
/// `dist[v] == u64::MAX` and `parent[v] == None` for nodes the flood never
/// reached.
#[derive(Debug, Clone)]
pub struct DistanceFloodResult {
    /// The source used.
    pub root: NodeId,
    /// `dist[v]` — weighted distance from the source (`u64::MAX` unreached).
    pub dist: Vec<u64>,
    /// `parent[v]` — shortest-path-tree parent, `None` for the source and
    /// unreachable nodes.
    pub parent: Vec<Option<NodeId>>,
    /// Simulation statistics. `stats.rounds` tracks the maximum hop count of
    /// a shortest path — the quantity the scaled/shortcut SSSP tiers attack.
    pub stats: RunStats,
}

#[derive(Debug, Clone)]
struct WeightedFloodProgram<'w> {
    root: NodeId,
    /// The graph's edge weights, indexed by edge id.
    weights: &'w [u64],
    dist: u64,
    parent: Option<NodeId>,
    announce: bool,
    value_bits: usize,
}

/// The weight of the edge a message from `from` arrived over. The node's
/// CSR row is sorted, so one binary search finds the sender's port, and
/// the row's edge id at that port indexes the flat weight column.
fn arrival_weight(ctx: &Ctx<'_, DistMsg>, weights: &[u64], from: NodeId) -> u64 {
    let port = ctx
        .neighbor_targets()
        .binary_search(&(from as u32))
        .expect("sender is a neighbor");
    weights[ctx.neighbor_edge_ids()[port] as usize]
}

impl NodeProgram for WeightedFloodProgram<'_> {
    type Msg = DistMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        if ctx.round() == 0 && ctx.node() == self.root {
            self.dist = 0;
            self.announce = true;
        }
        // Read the inbox by reference — the broadcast below happens after
        // every read, so the hot loop allocates nothing.
        for &(from, ref msg) in ctx.inbox() {
            let cand = dist_add(msg.value, arrival_weight(ctx, self.weights, from));
            if cand < self.dist {
                self.dist = cand;
                self.parent = Some(from);
                self.announce = true;
            }
        }
        if self.announce {
            self.announce = false;
            let msg = DistMsg {
                value: self.dist,
                bits: self.value_bits,
            };
            ctx.broadcast(msg);
        }
    }

    fn is_done(&self) -> bool {
        !self.announce
    }
}

/// Floods weighted distances from `root` until quiescence — the distributed
/// Bellman–Ford that serves as the exact SSSP baseline.
///
/// After `r` rounds every node knows its exact distance among paths of at
/// most `r` hops, so the total round count is (up to a constant) the maximum
/// hop length of a shortest path from `root` — which can far exceed the hop
/// eccentricity when weights make shortest paths snake.
///
/// `value_bits` declares the honest width of a distance announcement; pick
/// `bits_for(W + 1)` for a known upper bound `W` on distances (e.g. total
/// graph weight).
///
/// A node relaxes through the weight of the edge each announcement arrived
/// over, which it reads from `wg`'s weight column through its own CSR row:
/// no per-node link table is built.
///
/// # Errors
///
/// Propagates [`SimError`] from the runtime; in particular the round guard
/// fires if `config.max_rounds` under-estimates the hop length of the
/// shortest-path tree.
///
/// # Panics
///
/// Panics if `root >= g.n()`.
pub fn weighted_distance_flood(
    wg: &WeightedGraph,
    root: NodeId,
    value_bits: usize,
    config: CongestConfig,
) -> Result<DistanceFloodResult, SimError> {
    let g = wg.graph();
    assert!(root < g.n(), "root out of range");
    let mut programs: Vec<WeightedFloodProgram<'_>> = (0..g.n())
        .map(|_| WeightedFloodProgram {
            root,
            weights: wg.weights(),
            dist: u64::MAX,
            parent: None,
            announce: false,
            value_bits,
        })
        .collect();
    let stats = run(g, &mut programs, config)?;
    Ok(DistanceFloodResult {
        root,
        dist: programs.iter().map(|p| p.dist).collect(),
        parent: programs.iter().map(|p| p.parent).collect(),
        stats,
    })
}

#[derive(Debug, Clone)]
struct RelaxOnceProgram<'w> {
    /// The graph's edge weights, indexed by edge id.
    weights: &'w [u64],
    dist: u64,
    value_bits: usize,
}

impl NodeProgram for RelaxOnceProgram<'_> {
    type Msg = DistMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        if ctx.round() == 0 && self.dist != u64::MAX {
            let msg = DistMsg {
                value: self.dist,
                bits: self.value_bits,
            };
            ctx.broadcast(msg);
        }
        // All sends happened above (round 0 broadcast); reading the inbox
        // by reference keeps the relax round allocation-free.
        for &(from, ref msg) in ctx.inbox() {
            let w = arrival_weight(ctx, self.weights, from);
            self.dist = self.dist.min(dist_add(msg.value, w));
        }
    }

    fn is_done(&self) -> bool {
        true
    }
}

/// The distance-broadcast helper: one synchronous round in which every node
/// with a finite estimate announces it to all neighbors, and every receiver
/// relaxes through the connecting edge. Returns the improved estimates.
///
/// This is the single-round building block the phased shortcut SSSP uses to
/// stitch part-local floods together. It runs on the caller's `sim`, so a
/// driver that relaxes once per phase reuses one engine's buffers across
/// the phases; a receiver reads the connecting edge's weight from `wg`'s
/// weight column through its own CSR row, so a call builds no per-node
/// link table either.
///
/// # Errors
///
/// Propagates [`SimError`].
///
/// # Panics
///
/// Panics if `dist.len() != g.n()`.
pub fn distance_broadcast_round(
    sim: &mut Simulator<DistMsg>,
    wg: &WeightedGraph,
    dist: &[u64],
    value_bits: usize,
    config: CongestConfig,
) -> Result<(Vec<u64>, RunStats), SimError> {
    let g = wg.graph();
    assert_eq!(dist.len(), g.n(), "one estimate per node required");
    let mut programs: Vec<RelaxOnceProgram<'_>> = dist
        .iter()
        .map(|&d| RelaxOnceProgram {
            weights: wg.weights(),
            dist: d,
            value_bits,
        })
        .collect();
    let stats = sim.run(g, &mut programs, config)?;
    Ok((programs.iter().map(|p| p.dist).collect(), stats))
}

#[derive(Debug, Clone)]
struct ConvergecastProgram {
    parent: Option<NodeId>,
    pending_children: usize,
    acc: u64,
    sent: bool,
    is_root: bool,
}

impl NodeProgram for ConvergecastProgram {
    type Msg = u64;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        for &(_, value) in ctx.inbox() {
            self.acc = combine(self.acc, value);
            self.pending_children -= 1;
        }
        if !self.sent && self.pending_children == 0 && !self.is_root {
            self.sent = true;
            if let Some(p) = self.parent {
                ctx.send(p, self.acc);
            }
        }
    }

    fn is_done(&self) -> bool {
        self.sent || (self.is_root && self.pending_children == 0)
    }
}

/// The (fixed) aggregation operator used by [`convergecast_sum`]. Kept as a
/// named function so the tests and the doc can point at it.
fn combine(a: u64, b: u64) -> u64 {
    a.wrapping_add(b)
}

/// Sums `values` up a rooted spanning tree given by `parent` pointers;
/// returns the total at the root. Takes `depth(tree)` rounds.
///
/// # Errors
///
/// Propagates [`SimError`].
///
/// # Panics
///
/// Panics if `parent` encodes anything other than one tree spanning all of
/// `g` with exactly one root.
pub fn convergecast_sum(
    g: &Graph,
    parent: &[Option<NodeId>],
    values: &[u64],
    config: CongestConfig,
) -> Result<(u64, RunStats), SimError> {
    assert_eq!(parent.len(), g.n(), "parent vector must cover all nodes");
    assert_eq!(values.len(), g.n(), "value vector must cover all nodes");
    let mut child_count = vec![0usize; g.n()];
    let mut roots = 0;
    for (v, pv) in parent.iter().enumerate() {
        match *pv {
            Some(p) => {
                assert!(
                    g.has_edge(v, p),
                    "tree parent {p} of {v} must be a neighbor"
                );
                child_count[p] += 1;
            }
            None => roots += 1,
        }
    }
    assert_eq!(roots, 1, "exactly one root required");
    let mut programs: Vec<ConvergecastProgram> = (0..g.n())
        .map(|v| ConvergecastProgram {
            parent: parent[v],
            pending_children: child_count[v],
            acc: values[v],
            sent: false,
            is_root: parent[v].is_none(),
        })
        .collect();
    let stats = run(g, &mut programs, config)?;
    let root = (0..g.n()).find(|&v| parent[v].is_none()).expect("one root");
    Ok((programs[root].acc, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use minex_graphs::{generators, traversal};

    fn cfg(n: usize) -> CongestConfig {
        CongestConfig::for_nodes(n)
    }

    #[test]
    fn bfs_tree_matches_central_bfs() {
        let g = generators::triangulated_grid(5, 7);
        let result = build_bfs_tree(&g, 0, cfg(g.n())).unwrap();
        let central = traversal::bfs(&g, 0);
        assert_eq!(result.dist, central.dist);
        // Parents realize the same distances (parents themselves may differ).
        for v in 1..g.n() {
            let p = result.parent[v].expect("reached");
            assert_eq!(result.dist[p] + 1, result.dist[v]);
            assert!(g.has_edge(p, v));
        }
        // Rounds ≈ eccentricity.
        let ecc = central.eccentricity();
        assert!(
            result.stats.rounds >= ecc && result.stats.rounds <= ecc + 3,
            "rounds {} vs ecc {ecc}",
            result.stats.rounds
        );
    }

    #[test]
    fn convergecast_counts_nodes() {
        let g = generators::binary_tree(31);
        let central = traversal::bfs(&g, 0);
        let (total, stats) = convergecast_sum(&g, &central.parent, &vec![1; 31], cfg(31)).unwrap();
        assert_eq!(total, 31);
        // Depth of a 31-node complete binary tree is 4.
        assert!(
            stats.rounds >= 4 && stats.rounds <= 6,
            "rounds={}",
            stats.rounds
        );
    }

    #[test]
    fn convergecast_weighted() {
        let g = generators::path(5);
        let central = traversal::bfs(&g, 2);
        let values = vec![10, 20, 1, 30, 40];
        let (total, _) = convergecast_sum(&g, &central.parent, &values, cfg(5)).unwrap();
        assert_eq!(total, 101);
    }

    #[test]
    #[should_panic(expected = "exactly one root")]
    fn convergecast_rejects_forests() {
        let g = generators::path(4);
        let parent = vec![None, Some(0), None, Some(2)];
        let _ = convergecast_sum(&g, &parent, &[1; 4], cfg(4));
    }

    #[test]
    fn singleton_graph_primitives() {
        let g = generators::path(1);
        let r = build_bfs_tree(&g, 0, cfg(1)).unwrap();
        assert_eq!(r.dist, vec![0]);
        assert_eq!(r.parent, vec![None]);
        let (total, _) = convergecast_sum(&g, &[None], &[7], cfg(1)).unwrap();
        assert_eq!(total, 7);
        let flood =
            weighted_distance_flood(&minex_graphs::WeightedGraph::unit(g), 0, 8, cfg(1)).unwrap();
        assert_eq!(flood.dist, vec![0]);
        assert_eq!(flood.stats.rounds, 0);
    }

    #[test]
    fn bfs_tree_on_disconnected_graph_leaves_max_dist() {
        // Two components: a path 0-1-2 and an edge 3-4, plus isolated node 5.
        let g = minex_graphs::Graph::from_edges(6, [(0, 1), (1, 2), (3, 4)]).unwrap();
        let r = build_bfs_tree(&g, 0, cfg(6)).unwrap();
        assert_eq!(r.dist[..3], [0, 1, 2]);
        // The unreached-node contract: usize::MAX dist, None parent.
        for v in 3..6 {
            assert_eq!(r.dist[v], usize::MAX, "node {v} must stay unreached");
            assert_eq!(r.parent[v], None);
        }
        // The run quiesces (no livelock waiting for the other component) and
        // only the root component exchanges messages: 2 tree hops do not
        // need more than a handful of rounds.
        assert!(r.stats.rounds <= 4, "rounds={}", r.stats.rounds);
        // Rooting inside the small component reaches only it.
        let r = build_bfs_tree(&g, 4, cfg(6)).unwrap();
        assert_eq!(r.dist[3], 1);
        assert_eq!(r.dist[4], 0);
        for v in [0, 1, 2, 5] {
            assert_eq!(r.dist[v], usize::MAX);
            assert_eq!(r.parent[v], None);
        }
    }

    #[test]
    fn weighted_flood_matches_dijkstra() {
        let g = generators::triangulated_grid(6, 7);
        let weights: Vec<u64> = (0..g.m() as u64).map(|e| 1 + (e * 11) % 29).collect();
        let wg = minex_graphs::WeightedGraph::new(g.clone(), weights);
        let flood = weighted_distance_flood(&wg, 0, 32, cfg(g.n())).unwrap();
        let reference = traversal::dijkstra(&wg, 0);
        assert_eq!(flood.dist, reference.dist);
        // Parents realize the distances over real edges.
        for v in 1..g.n() {
            let p = flood.parent[v].expect("reached");
            let e = g.edge_between(p, v).expect("edge");
            assert_eq!(flood.dist[p] + wg.weight(e), flood.dist[v]);
        }
        assert!(flood.stats.rounds > 0);
    }

    #[test]
    fn weighted_flood_on_disconnected_graph() {
        let g = minex_graphs::Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let wg = minex_graphs::WeightedGraph::new(g, vec![5, 7]);
        let flood = weighted_distance_flood(&wg, 0, 8, cfg(4)).unwrap();
        assert_eq!(flood.dist, vec![0, 5, u64::MAX, u64::MAX]);
        assert_eq!(flood.parent[2], None);
    }

    #[test]
    fn weighted_flood_rounds_track_hops_not_weight() {
        // A heavy path: distances are large but hop count (and thus rounds)
        // is the path length.
        let g = generators::path(12);
        let wg = minex_graphs::WeightedGraph::new(g, vec![1_000_000; 11]);
        let flood = weighted_distance_flood(&wg, 0, 40, cfg(12)).unwrap();
        assert_eq!(flood.dist[11], 11_000_000);
        assert!(
            flood.stats.rounds >= 11 && flood.stats.rounds <= 13,
            "rounds={}",
            flood.stats.rounds
        );
    }

    #[test]
    fn distance_broadcast_round_relaxes_one_hop() {
        let g = generators::path(5);
        let wg = minex_graphs::WeightedGraph::new(g, vec![2, 3, 4, 5]);
        let dist = vec![0, u64::MAX, 9, u64::MAX, u64::MAX];
        let (out, stats) =
            distance_broadcast_round(&mut Simulator::new(), &wg, &dist, 16, cfg(5)).unwrap();
        // Node 1 hears 0+2 from node 0 and 9+3 from node 2; node 3 hears
        // 9+4; node 4 hears nothing (its only neighbor was infinite).
        assert_eq!(out, vec![0, 2, 9, 13, u64::MAX]);
        assert_eq!(stats.rounds, 1);
    }

    #[test]
    fn distance_broadcast_round_is_silent_on_all_infinite() {
        let g = generators::path(3);
        let wg = minex_graphs::WeightedGraph::unit(g);
        let dist = vec![u64::MAX; 3];
        let (out, stats) =
            distance_broadcast_round(&mut Simulator::new(), &wg, &dist, 8, cfg(3)).unwrap();
        assert_eq!(out, dist);
        assert_eq!(stats.rounds, 0);
        assert_eq!(stats.messages, 0);
    }
}
