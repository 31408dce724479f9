//! Part-wise aggregation — the primitive that turns shortcuts into
//! algorithms (Section 1.3.3).
//!
//! Every node of a part `P_i` starts with a value `x_v`; all of them must
//! learn `min` over the part. The subgraph available to part `i` is
//! `G[P_i] + H_i` (its induced edges plus its shortcut edges), and the
//! CONGEST constraint is global: one `O(log n)`-bit message per edge
//! direction per round *across all parts*, so parts sharing an edge —
//! congestion, Definition 11 — queue behind each other. The measured round
//! count is therefore governed by `O(block·d_T + congestion)`, i.e. by the
//! shortcut's quality, which is exactly Theorem 1's mechanism.
//!
//! The implementation floods values with per-edge queues: an update
//! supersedes a queued message of the same part rather than occupying a new
//! slot, which realizes the standard aggregation-merging argument. Each
//! round a node pops, per link, the smallest queued `(value, part)`; if it
//! already knows a better value for that part, it sends nothing on that
//! link this round.
//!
//! # Engine
//!
//! One flat engine runs every aggregation. A topology is compiled once per
//! `(graph, partition, shortcut)` in `O(n + m + Σ|H_i|)` time plus a sort
//! of each node's part list. It holds, per node, the CSR links whose edge
//! carries a part (with the edge id and the port the neighbor uses for the
//! same edge), the sorted parts each link carries, the node's *slots* (one
//! per part it can hear of), and each slot's fan-out to the `(link, part)`
//! queues. A run keeps all node state in flat arrays: a best value per slot
//! and a pending value per queue, each with a presence flag (`u64::MAX` is
//! a legal value — MST floods "no candidate"), and pending counts per link
//! and per node, so `is_done` is O(1). Sends name their edge through
//! `Ctx::send_via`, so the simulator's validator skips the edge lookup.
//!
//! The same topology serves two value rules: the part-wise minimum, and the
//! weighted distance flood behind the shortcut SSSP tier's center
//! potentials, where a value grows by the weight of the edge it arrives
//! over. Loops that aggregate repeatedly over one partition compile once: a
//! shortcut-SSSP query shares one topology between its center-potential
//! flood and all its phases, and MST's relabel flood of one phase shares
//! its compile with the next phase's candidate flood. Every run goes
//! through a caller-held [`Simulator`], so a query that aggregates once per
//! phase sets up the round loop's mailboxes once. Nothing is cached across
//! queries.

use minex_congest::{
    bits_for, CongestConfig, Ctx, NodeProgram, Payload, RunStats, SimError, Simulator,
};
use minex_core::{Partition, Shortcut};
use minex_graphs::dist::dist_add;
use minex_graphs::{Graph, NodeId, WeightedGraph};

/// "No slot": the own-slot entry of a node outside every part.
const NO_SLOT: u32 = u32::MAX;

/// "No port": the arrival port of a seed, which skips no link.
const NO_PORT: usize = usize::MAX;

/// A `(part, value)` flood message with honest bit accounting: part ids
/// cost `⌈log₂ N⌉` bits and values cost `value_bits`.
///
/// The part id travels pre-decoded as the receiver's slot for that part,
/// together with the receiver's port for the edge: the two lookups a
/// receiving node makes locally, done once when the topology is compiled.
/// Only the part id and the value are charged.
#[derive(Debug, Clone)]
pub struct PartMsg {
    value: u64,
    bits: usize,
    slot: u32,
    port: u32,
}

impl Payload for PartMsg {
    fn bit_size(&self) -> usize {
        self.bits
    }
}

/// One link of a node: an incident edge that carries at least one part.
#[derive(Debug, Clone, Copy)]
struct Link {
    to: u32,
    edge: u32,
    /// The neighbor's port (its local link index) for the same edge.
    back: u32,
    /// End of this link's queues in the node's queue range; the range
    /// starts where the previous link's ends.
    queue_end: u32,
}

/// One `(link, part)` queue: the part's slot at this node and at the
/// neighbor.
#[derive(Debug, Clone, Copy)]
struct Queue {
    slot: u32,
    peer_slot: u32,
}

/// One fan-out entry of a slot: the part's queue on one link.
#[derive(Debug, Clone, Copy)]
struct Fan {
    port: u32,
    queue: u32,
}

/// The compiled shape of one `(graph, partition, shortcut)`: what every
/// node needs to aggregate, in flat arrays. Node `v` owns the link range
/// `link_off[v]..link_off[v + 1]`, the queue and fan range
/// `queue_off[v]..queue_off[v + 1]` (one fan entry per queue), and the slot
/// range `slot_off[v]..slot_off[v + 1]`; the indices stored inside a
/// node's ranges are node-local.
#[derive(Debug, Clone)]
pub(crate) struct AggTopology {
    n: usize,
    m: usize,
    parts: usize,
    part_bits: usize,
    link_off: Vec<usize>,
    links: Vec<Link>,
    queue_off: Vec<usize>,
    queues: Vec<Queue>,
    /// Each slot's fan-out, grouped by slot in slot order.
    fans: Vec<Fan>,
    slot_off: Vec<usize>,
    /// The part of each slot, ascending within a node.
    slot_part: Vec<u32>,
    /// Per slot: the end of its fan-out group within the node's range.
    fan_end: Vec<u32>,
    /// Per node: the slot of its own part, or [`NO_SLOT`].
    own_slot: Vec<u32>,
}

/// Calls `f(edge, part)` for every edge of `G[P_i] + H_i`, part by part in
/// ascending order (an edge that is both in `H_i` and inside `P_i` comes
/// twice in a row).
fn for_each_carried(
    g: &Graph,
    parts: &Partition,
    shortcut: &Shortcut,
    mut f: impl FnMut(usize, u32),
) {
    for (i, part) in parts.parts().iter().enumerate() {
        for &e in shortcut.edges(i) {
            f(e, i as u32);
        }
        for &v in part {
            for (w, e) in g.neighbors(v) {
                if v < w && parts.part_of(w) == Some(i) {
                    f(e, i as u32);
                }
            }
        }
    }
}

/// The node-local index of `part` among a node's sorted slot parts.
fn local_slot(slots: &[u32], part: u32) -> u32 {
    slots
        .binary_search(&part)
        .expect("a carried part has a slot at both ends") as u32
}

/// Splits the first `len` items off `rest`.
fn split_off<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    head
}

impl AggTopology {
    /// Compiles the aggregation topology of `parts` and `shortcut` on `g`:
    /// edge `e` carries part `i` if `e ∈ H_i` or both endpoints lie in
    /// `P_i`.
    ///
    /// # Panics
    ///
    /// Panics if the shortcut does not match the partition.
    pub(crate) fn compile(g: &Graph, parts: &Partition, shortcut: &Shortcut) -> Self {
        assert_eq!(shortcut.len(), parts.len(), "shortcut/partition mismatch");
        let (n, m) = (g.n(), g.m());
        // Parts carried per edge, as a CSR over edge ids. Parts arrive in
        // ascending order, so every list comes out sorted; `last` drops the
        // repeat of an edge that is both in H_i and inside P_i.
        let mut edge_off = vec![0usize; m + 1];
        let mut last = vec![u32::MAX; m];
        for_each_carried(g, parts, shortcut, |e, i| {
            if last[e] != i {
                last[e] = i;
                edge_off[e + 1] += 1;
            }
        });
        for e in 0..m {
            edge_off[e + 1] += edge_off[e];
        }
        let mut edge_parts = vec![0u32; edge_off[m]];
        let mut cursor = edge_off[..m].to_vec();
        last.fill(u32::MAX);
        for_each_carried(g, parts, shortcut, |e, i| {
            if last[e] != i {
                last[e] = i;
                edge_parts[cursor[e]] = i;
                cursor[e] += 1;
            }
        });
        let carried = |e: usize| &edge_parts[edge_off[e]..edge_off[e + 1]];

        // Slots (the parts each node can hear of) and links.
        let mut slot_off = Vec::with_capacity(n + 1);
        let mut slot_part: Vec<u32> = Vec::new();
        let mut own_slot = Vec::with_capacity(n);
        let mut link_off = Vec::with_capacity(n + 1);
        let mut links: Vec<Link> = Vec::new();
        slot_off.push(0);
        link_off.push(0);
        let mut heard: Vec<u32> = Vec::new();
        for v in 0..n {
            heard.clear();
            heard.extend(parts.part_of(v).map(|i| i as u32));
            for (w, e) in g.neighbors(v) {
                let on_edge = carried(e);
                if !on_edge.is_empty() {
                    heard.extend_from_slice(on_edge);
                    links.push(Link {
                        to: w as u32,
                        edge: e as u32,
                        back: 0,
                        queue_end: 0,
                    });
                }
            }
            heard.sort_unstable();
            heard.dedup();
            own_slot.push(
                parts
                    .part_of(v)
                    .map_or(NO_SLOT, |i| local_slot(&heard, i as u32)),
            );
            slot_part.extend_from_slice(&heard);
            slot_off.push(slot_part.len());
            link_off.push(links.len());
        }

        // Queues, one per (link, carried part), and the back ports.
        let mut queue_off = Vec::with_capacity(n + 1);
        let mut queues: Vec<Queue> = Vec::new();
        queue_off.push(0);
        for v in 0..n {
            let slots = &slot_part[slot_off[v]..slot_off[v + 1]];
            for l in link_off[v]..link_off[v + 1] {
                let w = links[l].to as usize;
                let back = links[link_off[w]..link_off[w + 1]]
                    .binary_search_by_key(&(v as u32), |link| link.to)
                    .expect("links are symmetric");
                let peer_slots = &slot_part[slot_off[w]..slot_off[w + 1]];
                for &part in carried(links[l].edge as usize) {
                    queues.push(Queue {
                        slot: local_slot(slots, part),
                        peer_slot: local_slot(peer_slots, part),
                    });
                }
                links[l].back = back as u32;
                links[l].queue_end = (queues.len() - queue_off[v]) as u32;
            }
            queue_off.push(queues.len());
        }

        // Fan-out: each node's queues grouped by slot (a counting sort that
        // keeps link order within a group).
        let mut fan_end = vec![0u32; slot_part.len()];
        let mut fans = vec![Fan { port: 0, queue: 0 }; queues.len()];
        let mut next: Vec<u32> = Vec::new();
        for v in 0..n {
            let (q0, q1) = (queue_off[v], queue_off[v + 1]);
            let ends = &mut fan_end[slot_off[v]..slot_off[v + 1]];
            for q in &queues[q0..q1] {
                ends[q.slot as usize] += 1;
            }
            next.clear();
            let mut total = 0;
            for end in ends.iter_mut() {
                next.push(total);
                total += *end;
                *end = total;
            }
            let mut start = 0;
            for (port, link) in links[link_off[v]..link_off[v + 1]].iter().enumerate() {
                for q in start..link.queue_end {
                    let slot = queues[q0 + q as usize].slot as usize;
                    fans[q0 + next[slot] as usize] = Fan {
                        port: port as u32,
                        queue: q,
                    };
                    next[slot] += 1;
                }
                start = link.queue_end;
            }
        }

        AggTopology {
            n,
            m,
            parts: parts.len(),
            part_bits: bits_for(parts.len().max(2)),
            link_off,
            links,
            queue_off,
            queues,
            fans,
            slot_off,
            slot_part,
            fan_end,
            own_slot,
        }
    }

    /// The global slot index of `part` at `v`, if `v` can hear of it.
    fn slot_of(&self, v: NodeId, part: u32) -> Option<usize> {
        let (s0, s1) = (self.slot_off[v], self.slot_off[v + 1]);
        self.slot_part[s0..s1]
            .binary_search(&part)
            .ok()
            .map(|s| s0 + s)
    }

    /// Part-wise minimum: every part learns the minimum of `values` over its
    /// nodes.
    ///
    /// `value_bits` is the honest encoding width of the values (e.g.
    /// `bits_for(max_weight) + bits_for(m)` for Borůvka's weight/edge
    /// pairs).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`]; in particular, bandwidth violations if
    /// `value_bits` exceeds what the configured `B` allows.
    ///
    /// # Panics
    ///
    /// Panics if `g` or `values` does not match the topology, or a part does
    /// not converge (its nodes are not connected in `G[P_i] + H_i`).
    pub(crate) fn partwise_min(
        &self,
        sim: &mut Simulator<PartMsg>,
        g: &Graph,
        values: &[u64],
        value_bits: usize,
        config: CongestConfig,
    ) -> Result<AggregationResult, SimError> {
        let out = self.min_run(sim, g, values, value_bits, config)?;
        Ok(AggregationResult {
            minima: out.minima(),
            stats: out.stats,
        })
    }

    /// The run behind [`partwise_min`](Self::partwise_min): every node of a
    /// part starts with its value for the part.
    fn min_run(
        &self,
        sim: &mut Simulator<PartMsg>,
        g: &Graph,
        values: &[u64],
        value_bits: usize,
        config: CongestConfig,
    ) -> Result<AggRun<'_>, SimError> {
        assert_eq!(values.len(), self.n, "one value per node required");
        let seeds = (0..self.n)
            .filter(|&v| self.own_slot[v] != NO_SLOT)
            .map(|v| (v, self.own_slot[v] as usize, values[v]));
        self.run(sim, g, None, seeds, value_bits, config)
    }

    /// Weighted distance flood: from per-part seeds `(node, part, value)`,
    /// every part's values spread over `G[P_i] + H_i`, growing by the
    /// weight of each edge they cross, so part `i` converges to distances
    /// from its seeds inside its augmented subgraph. All parts run
    /// concurrently under the global CONGEST budget.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`].
    ///
    /// # Panics
    ///
    /// Panics if `wg` does not match the topology, or a seed's node can not
    /// hear of its part (it is neither in the part nor on one of its
    /// edges).
    pub(crate) fn distance_flood(
        &self,
        sim: &mut Simulator<PartMsg>,
        wg: &WeightedGraph,
        seeds: &[(NodeId, u32, u64)],
        value_bits: usize,
        config: CongestConfig,
    ) -> Result<AggRun<'_>, SimError> {
        let seeds = seeds.iter().map(|&(v, part, value)| {
            let slot = self
                .slot_of(v, part)
                .expect("a seed's node hears of its part");
            (v, slot - self.slot_off[v], value)
        });
        self.run(
            sim,
            wg.graph(),
            Some(wg.weights()),
            seeds,
            value_bits,
            config,
        )
    }

    /// Runs one aggregation from `seeds` (`(node, node-local slot, value)`)
    /// on `sim`: plain minima without `weights`, weighted distances with
    /// them.
    fn run(
        &self,
        sim: &mut Simulator<PartMsg>,
        g: &Graph,
        weights: Option<&[u64]>,
        seeds: impl Iterator<Item = (NodeId, usize, u64)>,
        value_bits: usize,
        config: CongestConfig,
    ) -> Result<AggRun<'_>, SimError> {
        assert_eq!(
            (g.n(), g.m()),
            (self.n, self.m),
            "topology compiled for another graph"
        );
        let slots = self.slot_part.len();
        let mut best = vec![0u64; slots];
        let mut known = vec![false; slots];
        let mut pend = vec![0u64; self.queues.len()];
        let mut queued = vec![false; self.queues.len()];
        let mut link_queued = vec![0u32; self.links.len()];
        let stats = {
            let (mut best, mut known) = (&mut best[..], &mut known[..]);
            let (mut pend, mut queued) = (&mut pend[..], &mut queued[..]);
            let mut link_queued = &mut link_queued[..];
            let mut programs: Vec<AggNode<'_>> = (0..self.n)
                .map(|v| {
                    let (l0, l1) = (self.link_off[v], self.link_off[v + 1]);
                    let (q0, q1) = (self.queue_off[v], self.queue_off[v + 1]);
                    let (s0, s1) = (self.slot_off[v], self.slot_off[v + 1]);
                    AggNode {
                        links: &self.links[l0..l1],
                        queues: &self.queues[q0..q1],
                        fans: &self.fans[q0..q1],
                        fan_end: &self.fan_end[s0..s1],
                        weights,
                        best: split_off(&mut best, s1 - s0),
                        known: split_off(&mut known, s1 - s0),
                        pend: split_off(&mut pend, q1 - q0),
                        queued: split_off(&mut queued, q1 - q0),
                        link_queued: split_off(&mut link_queued, l1 - l0),
                        queued_total: 0,
                        bits: self.part_bits.saturating_add(value_bits),
                    }
                })
                .collect();
            for (v, slot, value) in seeds {
                programs[v].absorb(slot, value, NO_PORT);
            }
            sim.run(g, &mut programs, config)?
        };
        Ok(AggRun {
            topo: self,
            best,
            known,
            stats,
        })
    }
}

/// Every node's final values after one run of the engine.
#[derive(Debug)]
pub(crate) struct AggRun<'t> {
    topo: &'t AggTopology,
    /// Per global slot: the best value the node learned for the part.
    best: Vec<u64>,
    /// Per global slot: whether the node learned any value for the part.
    known: Vec<bool>,
    /// Simulation statistics.
    pub(crate) stats: RunStats,
}

impl AggRun<'_> {
    /// `v`'s final value for `part`, if it learned one.
    pub(crate) fn value(&self, v: NodeId, part: usize) -> Option<u64> {
        let slot = self.topo.slot_of(v, part as u32)?;
        self.known[slot].then_some(self.best[slot])
    }

    /// The value each part's nodes hold for their own part, cross-checked:
    /// all nodes of a part must agree.
    fn minima(&self) -> Vec<u64> {
        let topo = self.topo;
        let mut minima: Vec<Option<u64>> = vec![None; topo.parts];
        for v in 0..topo.n {
            let own = topo.own_slot[v];
            if own == NO_SLOT {
                continue;
            }
            let slot = topo.slot_off[v] + own as usize;
            let part = topo.slot_part[slot] as usize;
            let value = self.best[slot];
            match minima[part] {
                None => minima[part] = Some(value),
                Some(m0) => assert_eq!(
                    value, m0,
                    "part {part} did not converge (shortcut leaves it disconnected?)"
                ),
            }
        }
        minima
            .into_iter()
            .map(|m| m.expect("parts are non-empty"))
            .collect()
    }
}

/// One node's view of a run: its slices of the topology and of the flat
/// state arrays.
#[derive(Debug)]
struct AggNode<'a> {
    links: &'a [Link],
    queues: &'a [Queue],
    fans: &'a [Fan],
    fan_end: &'a [u32],
    /// Edge weights of the distance rule (`None`: plain minimum).
    weights: Option<&'a [u64]>,
    best: &'a mut [u64],
    known: &'a mut [bool],
    pend: &'a mut [u64],
    queued: &'a mut [bool],
    link_queued: &'a mut [u32],
    queued_total: usize,
    bits: usize,
}

impl AggNode<'_> {
    /// Takes `value` for `slot` if it beats the best known value, and then
    /// queues it on every other link that carries the part (`skip` is the
    /// port it arrived on).
    fn absorb(&mut self, slot: usize, value: u64, skip: usize) {
        if self.known[slot] && self.best[slot] <= value {
            return;
        }
        self.known[slot] = true;
        self.best[slot] = value;
        let start = if slot == 0 {
            0
        } else {
            self.fan_end[slot - 1] as usize
        };
        for fan in &self.fans[start..self.fan_end[slot] as usize] {
            let port = fan.port as usize;
            if port == skip {
                continue;
            }
            let q = fan.queue as usize;
            if !self.queued[q] {
                self.queued[q] = true;
                self.pend[q] = value;
                self.link_queued[port] += 1;
                self.queued_total += 1;
            } else if value < self.pend[q] {
                self.pend[q] = value;
            }
        }
    }
}

impl NodeProgram for AggNode<'_> {
    type Msg = PartMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        for (_, msg) in ctx.inbox() {
            let port = msg.port as usize;
            let value = match self.weights {
                Some(w) => dist_add(msg.value, w[self.links[port].edge as usize]),
                None => msg.value,
            };
            self.absorb(msg.slot as usize, value, port);
        }
        if self.queued_total == 0 {
            return;
        }
        // One message per link per round: the queued update with the
        // smallest (value, part). Queues are in part order, so the first
        // minimum breaks ties by part.
        let mut start = 0;
        for (port, link) in self.links.iter().enumerate() {
            let end = link.queue_end as usize;
            if self.link_queued[port] > 0 {
                let q = (start..end)
                    .filter(|&q| self.queued[q])
                    .min_by_key(|&q| self.pend[q])
                    .expect("a link with a queued update");
                self.queued[q] = false;
                self.link_queued[port] -= 1;
                self.queued_total -= 1;
                let value = self.pend[q];
                let Queue { slot, peer_slot } = self.queues[q];
                // A better flood already passed: the link idles this round.
                if value <= self.best[slot as usize] {
                    ctx.send_via(
                        link.to as NodeId,
                        link.edge as usize,
                        PartMsg {
                            value,
                            bits: self.bits,
                            slot: peer_slot,
                            port: link.back,
                        },
                    );
                }
            }
            start = end;
        }
    }

    fn is_done(&self) -> bool {
        self.queued_total == 0
    }
}

/// The outcome of a part-wise aggregation.
#[derive(Debug, Clone)]
pub struct AggregationResult {
    /// The aggregated minimum per part.
    pub minima: Vec<u64>,
    /// Simulation statistics (rounds = the Theorem 1 cost).
    pub stats: RunStats,
}

/// One-shot part-wise minimum: compiles the topology and aggregates once.
///
/// Crate-private on purpose: the public surface is
/// [`crate::solver::Solver::partwise_min`], which builds the shortcut
/// **once** per session plan and serves repeated aggregations from it.
/// This seam stays because it accepts an arbitrary caller-supplied
/// shortcut (sessions always build their own) and tolerates disconnected
/// inputs — `Solver::components` aggregates with hand-made per-component
/// shortcuts through exactly this entry point, and the tests below inject
/// hand-built or empty shortcuts to pin the machinery itself. Loops that
/// aggregate repeatedly over one partition compile an `AggTopology` once
/// instead.
///
/// # Errors
///
/// As `AggTopology::partwise_min`.
///
/// # Panics
///
/// Panics if `values.len() != g.n()` or the shortcut does not match the
/// partition.
pub(crate) fn partwise_min_impl(
    g: &Graph,
    parts: &Partition,
    shortcut: &Shortcut,
    values: &[u64],
    value_bits: usize,
    config: CongestConfig,
) -> Result<AggregationResult, SimError> {
    assert_eq!(values.len(), g.n(), "one value per node required");
    AggTopology::compile(g, parts, shortcut).partwise_min(
        &mut Simulator::new(),
        g,
        values,
        value_bits,
        config,
    )
}

/// Centralized reference for the part-wise MIN aggregation.
pub fn partwise_min_reference(parts: &Partition, values: &[u64]) -> Vec<u64> {
    parts
        .parts()
        .iter()
        .map(|p| p.iter().map(|&v| values[v]).min().expect("non-empty part"))
        .collect()
}

#[cfg(test)]
// Most of this suite injects hand-built or empty shortcuts to pin the
// aggregation machinery itself — behaviour only reachable through the
// crate-private `partwise_min_impl` seam (a `Solver` session always
// builds its own shortcut).
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use minex_core::construct::{ShortcutBuilder, SteinerBuilder, WholeTreeBuilder};
    use minex_core::RootedTree;
    use minex_graphs::generators;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    fn config(n: usize) -> CongestConfig {
        CongestConfig::for_nodes(n).with_bandwidth(96)
    }

    fn random_values(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.random_range(0..1_000_000)).collect()
    }

    /// The reference message: the part id itself, no pre-decoded slots.
    #[derive(Debug, Clone)]
    struct RefMsg {
        part: u32,
        value: u64,
        bits: usize,
    }

    impl Payload for RefMsg {
        fn bit_size(&self) -> usize {
            self.bits
        }
    }

    /// The reference node program: per-link per-part queues on ordered
    /// maps, the same selection rule, and plain `send`s, so the validator
    /// looks up every edge.
    #[derive(Debug, Clone)]
    struct RefNode {
        /// Sorted `(neighbor, edge weight, parts carried by the edge)`.
        links: Vec<(NodeId, u64, Vec<u32>)>,
        best: BTreeMap<u32, u64>,
        pending: Vec<BTreeMap<u32, u64>>,
        weighted: bool,
        bits: usize,
    }

    impl RefNode {
        fn absorb(&mut self, part: u32, value: u64, skip: Option<NodeId>) {
            if self.best.get(&part).is_some_and(|&cur| cur <= value) {
                return;
            }
            self.best.insert(part, value);
            for (li, (nb, _, parts)) in self.links.iter().enumerate() {
                if Some(*nb) != skip && parts.binary_search(&part).is_ok() {
                    let entry = self.pending[li].entry(part).or_insert(u64::MAX);
                    *entry = (*entry).min(value);
                }
            }
        }
    }

    impl NodeProgram for RefNode {
        type Msg = RefMsg;

        fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
            for (from, msg) in ctx.inbox() {
                let li = self
                    .links
                    .binary_search_by_key(from, |link| link.0)
                    .expect("sender is a neighbor");
                let value = if self.weighted {
                    dist_add(msg.value, self.links[li].1)
                } else {
                    msg.value
                };
                self.absorb(msg.part, value, Some(*from));
            }
            for li in 0..self.links.len() {
                let Some((&part, &value)) = self.pending[li].iter().min_by_key(|(&p, &v)| (v, p))
                else {
                    continue;
                };
                self.pending[li].remove(&part);
                if self.best[&part] < value {
                    continue;
                }
                let bits = self.bits;
                ctx.send(self.links[li].0, RefMsg { part, value, bits });
            }
        }

        fn is_done(&self) -> bool {
            self.pending.iter().all(BTreeMap::is_empty)
        }
    }

    /// Runs the reference from `seeds` and returns every node's values.
    fn run_reference(
        wg: &WeightedGraph,
        parts: &Partition,
        shortcut: &Shortcut,
        weighted: bool,
        seeds: &[(NodeId, u32, u64)],
        value_bits: usize,
        config: CongestConfig,
    ) -> Result<(Vec<BTreeMap<u32, u64>>, RunStats), SimError> {
        let g = wg.graph();
        let mut carried: Vec<Vec<u32>> = vec![Vec::new(); g.m()];
        for (i, e) in shortcut.assignments() {
            carried[e].push(i as u32);
        }
        for (e, u, v) in g.edges() {
            if let (Some(a), Some(b)) = (parts.part_of(u), parts.part_of(v)) {
                if a == b {
                    carried[e].push(a as u32);
                }
            }
        }
        for list in &mut carried {
            list.sort_unstable();
            list.dedup();
        }
        let bits = bits_for(parts.len().max(2)) + value_bits;
        let mut programs: Vec<RefNode> = (0..g.n())
            .map(|v| {
                let links: Vec<(NodeId, u64, Vec<u32>)> = g
                    .neighbors(v)
                    .filter(|&(_, e)| !carried[e].is_empty())
                    .map(|(w, e)| (w, wg.weight(e), carried[e].clone()))
                    .collect();
                RefNode {
                    pending: vec![BTreeMap::new(); links.len()],
                    links,
                    best: BTreeMap::new(),
                    weighted,
                    bits,
                }
            })
            .collect();
        for &(v, part, value) in seeds {
            programs[v].absorb(part, value, None);
        }
        let stats = minex_congest::run(g, &mut programs, config)?;
        Ok((programs.into_iter().map(|p| p.best).collect(), stats))
    }

    /// Every node's values after a flat-engine run, as ordered maps.
    fn flat_values(run: &AggRun<'_>) -> Vec<BTreeMap<u32, u64>> {
        let topo = run.topo;
        (0..topo.n)
            .map(|v| {
                (topo.slot_off[v]..topo.slot_off[v + 1])
                    .filter(|&s| run.known[s])
                    .map(|s| (topo.slot_part[s], run.best[s]))
                    .collect()
            })
            .collect()
    }

    /// Random connected parts: BFS cells around `k` seeds, each cut to the
    /// nodes within `radius` hops of its seed when `radius` is given (a
    /// partial cover).
    fn random_parts(g: &Graph, k: usize, radius: Option<usize>, rng: &mut StdRng) -> Partition {
        let seeds: Vec<NodeId> = (0..k).map(|_| rng.random_range(0..g.n())).collect();
        let bfs = minex_graphs::traversal::multi_source_bfs(g, &seeds);
        let labels: Vec<Option<usize>> = (0..g.n())
            .map(|v| (radius.map_or(true, |r| bfs.dist[v] <= r)).then_some(bfs.source_of[v]))
            .collect();
        Partition::from_labels(g, &labels).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The flat engine against the ordered-map reference: identical
        /// per-node values, minima, `RunStats` and errors, for both value
        /// rules, on random graphs, partitions (singletons,
        /// one part, Voronoi cells, partial covers) and shortcuts (empty,
        /// random overlapping edge sets, or the whole BFS tree for every
        /// part), so links carry several parts.
        #[test]
        fn flat_engine_matches_reference(
            n in 2usize..40,
            extra in 0usize..40,
            shape in 0usize..4,
            k in 1usize..8,
            shortcut_edges in 0usize..12,
            weighted in proptest::bool::ANY,
            wide in proptest::bool::ANY,
            seed in 0u64..10_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::random_connected(n, extra, &mut rng);
            let parts = match shape {
                0 => Partition::new(&g, (0..n).map(|v| vec![v]).collect()).unwrap(),
                1 => Partition::new(&g, vec![(0..n).collect()]).unwrap(),
                2 => random_parts(&g, k, None, &mut rng),
                _ => random_parts(&g, k, Some(rng.random_range(0..3)), &mut rng),
            };
            // The whole BFS tree for every part makes every tree link carry
            // every part, so equal values tie on one link.
            let shortcut = match shortcut_edges {
                0 => WholeTreeBuilder.build(&g, &RootedTree::bfs(&g, 0), &parts),
                1 => Shortcut::empty(parts.len()),
                k => Shortcut::new(
                    (0..parts.len())
                        .map(|_| {
                            (0..rng.random_range(0..=k))
                                .map(|_| rng.random_range(0..g.m()))
                                .collect()
                        })
                        .collect(),
                ),
            };
            let weights: Vec<u64> = (0..g.m()).map(|_| rng.random_range(1..20)).collect();
            let wg = WeightedGraph::new(g.clone(), weights);
            // Few distinct values, so ties between parts and duplicates
            // inside one are common; u64::MAX is a legal value.
            let value = |rng: &mut StdRng| match rng.random_range(0..6) {
                0 => u64::MAX,
                x => x,
            };
            let seeds: Vec<(NodeId, u32, u64)> = if weighted {
                // Distance rule: a few seeds per part, inside the part.
                parts
                    .parts()
                    .iter()
                    .enumerate()
                    .flat_map(|(i, part)| {
                        (0..1 + part.len() / 4)
                            .map(|_| (part[rng.random_range(0..part.len())], i as u32, value(&mut rng)))
                            .collect::<Vec<_>>()
                    })
                    .collect()
            } else {
                (0..n)
                    .filter_map(|v| parts.part_of(v).map(|i| (v, i as u32, value(&mut rng))))
                    .collect()
            };
            // 12-bit values fit the 32-bit budget; 40-bit ones never do.
            let value_bits = if wide { 40 } else { 12 };
            let topo = AggTopology::compile(&g, &parts, &shortcut);
            let config = CongestConfig::for_nodes(n).with_bandwidth(32);
            let reference =
                run_reference(&wg, &parts, &shortcut, weighted, &seeds, value_bits, config);
            if weighted {
                let flat = topo.distance_flood(&mut Simulator::new(), &wg, &seeds, value_bits, config);
                match (reference, flat) {
                    (Ok((values, stats)), Ok(flat)) => {
                        proptest::prop_assert_eq!(stats, flat.stats);
                        proptest::prop_assert_eq!(values, flat_values(&flat));
                    }
                    (Err(a), Err(b)) => proptest::prop_assert_eq!(a, b),
                    (a, b) => proptest::prop_assert!(
                        false, "outcomes differ: {:?} vs {:?}", a.map(|r| r.1), b.map(|r| r.stats)
                    ),
                }
            } else {
                let mut values = vec![0u64; n];
                for &(v, _, x) in &seeds {
                    values[v] = x;
                }
                let flat = topo.min_run(&mut Simulator::new(), &g, &values, value_bits, config);
                match (reference, flat) {
                    (Ok((per_node, stats)), Ok(flat)) => {
                        proptest::prop_assert_eq!(stats, flat.stats);
                        proptest::prop_assert_eq!(per_node, flat_values(&flat));
                        proptest::prop_assert_eq!(
                            flat.minima(),
                            partwise_min_reference(&parts, &values)
                        );
                    }
                    (Err(a), Err(b)) => proptest::prop_assert_eq!(a, b),
                    (a, b) => proptest::prop_assert!(
                        false, "outcomes differ: {:?} vs {:?}", a.map(|r| r.1), b.map(|r| r.stats)
                    ),
                }
            }
        }
    }

    #[test]
    fn matches_reference_on_grid_voronoi() {
        let g = generators::triangulated_grid(8, 8);
        let mut rng = StdRng::seed_from_u64(3);
        let seeds: Vec<usize> = (0..6).map(|_| rng.random_range(0..g.n())).collect();
        let bfs = minex_graphs::traversal::multi_source_bfs(&g, &seeds);
        let labels: Vec<Option<usize>> = bfs.source_of.iter().map(|&s| Some(s)).collect();
        let parts = Partition::from_labels(&g, &labels).unwrap();
        let values = random_values(g.n(), 5);
        let out = crate::solver::Solver::for_graph(&g)
            .parts(crate::solver::PartsStrategy::Explicit(parts.clone()))
            .shortcut_builder(SteinerBuilder)
            .config(config(g.n()))
            .build()
            .unwrap()
            .partwise_min(&values, 20)
            .unwrap();
        assert_eq!(out.value.minima, partwise_min_reference(&parts, &values));
        assert!(out.stats.simulated_rounds > 0);
    }

    #[test]
    fn works_without_any_shortcut() {
        // Empty shortcut: aggregation runs over G[P_i] alone — the "naive
        // solution" of Section 1.3.3.
        let g = generators::cycle(24);
        let parts = Partition::new(
            &g,
            vec![(0..8).collect(), (8..16).collect(), (16..24).collect()],
        )
        .unwrap();
        let shortcut = minex_core::Shortcut::empty(3);
        let values = random_values(24, 7);
        let out = partwise_min_impl(&g, &parts, &shortcut, &values, 20, config(24)).unwrap();
        assert_eq!(out.minima, partwise_min_reference(&parts, &values));
        // Rounds ≈ part diameter.
        assert!(out.stats.rounds >= 5, "rounds={}", out.stats.rounds);
    }

    #[test]
    fn shortcuts_speed_up_the_wheel() {
        // The paper's motivating example, measured: rim parts aggregate
        // slowly alone, fast with spoke shortcuts.
        let n = 128;
        let g = generators::wheel(n);
        let hub = n - 1;
        let t = RootedTree::bfs(&g, hub);
        let rim: Vec<Vec<NodeId>> = vec![(0..n - 1).collect()];
        let parts = Partition::new(&g, rim).unwrap();
        let values = random_values(n, 11);
        let slow = partwise_min_impl(
            &g,
            &parts,
            &minex_core::Shortcut::empty(1),
            &values,
            20,
            config(n),
        )
        .unwrap();
        let fast_shortcut = WholeTreeBuilder.build(&g, &t, &parts);
        let fast = partwise_min_impl(&g, &parts, &fast_shortcut, &values, 20, config(n)).unwrap();
        assert_eq!(slow.minima, fast.minima);
        assert!(
            fast.stats.rounds * 4 < slow.stats.rounds,
            "fast={} slow={}",
            fast.stats.rounds,
            slow.stats.rounds
        );
    }

    #[test]
    fn congestion_serializes_shared_edges() {
        // Many single-node parts all given the same tree path: the shared
        // edges must serialize the floods, so rounds grow with part count.
        let g = generators::path(40);
        let t = RootedTree::bfs(&g, 0);
        let k = 10;
        let parts = Partition::new(&g, (0..k).map(|i| vec![4 * i]).collect::<Vec<_>>()).unwrap();
        let shortcut = WholeTreeBuilder.build(&g, &t, &parts);
        let values = random_values(40, 13);
        let out = partwise_min_impl(&g, &parts, &shortcut, &values, 20, config(40)).unwrap();
        assert_eq!(out.minima, partwise_min_reference(&parts, &values));
        // With congestion k on path edges, rounds must exceed the dilation.
        assert!(out.stats.rounds >= 39, "rounds={}", out.stats.rounds);
    }

    #[test]
    fn ties_on_a_link_go_to_the_smaller_part() {
        // a=0 and b=1 both reach c=3 in round 1 with value 5, so parts 0
        // and 1 tie on the link c–d. Part 0 goes first; part 1's better
        // value (1, from b2=2 via b) then supersedes its queued 5. Sending
        // part 1 first would cost one more message and one more round.
        let g = Graph::from_edges(5, [(0, 3), (1, 2), (1, 3), (3, 4)]).unwrap();
        let parts = Partition::new(&g, vec![vec![0], vec![1, 2]]).unwrap();
        let e = |u, v| g.edge_between(u, v).unwrap();
        let shortcut = Shortcut::new(vec![vec![e(0, 3), e(3, 4)], vec![e(1, 3), e(3, 4)]]);
        let out =
            partwise_min_impl(&g, &parts, &shortcut, &[5, 5, 1, 9, 9], 10, config(5)).unwrap();
        assert_eq!(out.minima, vec![5, 1]);
        assert_eq!((out.stats.rounds, out.stats.messages), (3, 7));
    }

    #[test]
    fn single_node_parts_finish_immediately() {
        let g = generators::path(5);
        let parts = Partition::new(&g, vec![vec![2]]).unwrap();
        let shortcut = minex_core::Shortcut::empty(1);
        let values = vec![9, 8, 7, 6, 5];
        let out = partwise_min_impl(&g, &parts, &shortcut, &values, 10, config(5)).unwrap();
        assert_eq!(out.minima, vec![7]);
        assert_eq!(out.stats.rounds, 0);
    }

    #[test]
    fn bandwidth_violation_reported() {
        let g = generators::path(4);
        let parts = Partition::new(&g, vec![vec![0, 1, 2, 3]]).unwrap();
        let shortcut = minex_core::Shortcut::empty(1);
        let values = vec![1, 2, 3, 4];
        let err = partwise_min_impl(
            &g,
            &parts,
            &shortcut,
            &values,
            200,
            CongestConfig::for_nodes(4).with_bandwidth(64),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::BandwidthExceeded { .. }));
    }
}
