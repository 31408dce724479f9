//! The synchronous round loop.

use std::error::Error;
use std::fmt;

use minex_graphs::{EdgeId, Graph, NodeId};

use crate::message::{bits_for, Payload};
use crate::program::{Ctx, NodeProgram};
use crate::soa::{Outbox, NO_HINT};
use crate::telemetry::{self, NoopSink, Sink};

/// Simulator configuration.
#[derive(Debug, Clone, Copy)]
pub struct CongestConfig {
    /// Per-edge, per-direction, per-round bandwidth in bits.
    pub bandwidth_bits: usize,
    /// Abort the run after this many rounds (guards against livelock).
    pub max_rounds: usize,
}

impl CongestConfig {
    /// The standard model parameters for an `n`-node network:
    /// `B = 8·⌈log₂(n+1)⌉` bits (a generous constant, enough for a tagged
    /// id/weight pair) and a `64·n + 1024` round guard.
    ///
    /// `n = 0` (an empty network) is clamped to `n = 1` so degenerate inputs
    /// still produce the same well-formed budgets as a singleton network
    /// instead of a `bits_for(1)`-derived artifact. At the other extreme the
    /// round guard saturates instead of wrapping, so absurd `n` (e.g.
    /// `usize::MAX`) yields a maximal guard rather than a tiny one.
    pub fn for_nodes(n: usize) -> Self {
        let n = n.max(1);
        CongestConfig {
            bandwidth_bits: 8 * bits_for(n.saturating_add(1)).max(8),
            max_rounds: n.saturating_mul(64).saturating_add(1024),
        }
    }

    /// Overrides the bandwidth.
    pub fn with_bandwidth(mut self, bits: usize) -> Self {
        self.bandwidth_bits = bits;
        self
    }

    /// Overrides the round guard.
    pub fn with_max_rounds(mut self, rounds: usize) -> Self {
        self.max_rounds = rounds;
        self
    }

    /// A no-op, kept so that callers written against the former
    /// multi-threaded engine still compile: there is one engine, and it
    /// runs on the calling thread. Returns `self` unchanged.
    pub fn with_threads(self, threads: usize) -> Self {
        let _ = threads;
        self
    }
}

/// Cost and volume statistics of a completed run: the model's cost
/// measure (rounds, messages, bits), never wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Number of synchronous rounds executed until global quiescence.
    pub rounds: usize,
    /// Total messages delivered.
    pub messages: u64,
    /// Largest single message, in bits.
    pub max_message_bits: usize,
    /// Sum of message sizes, in bits.
    pub total_bits: u64,
}

impl RunStats {
    /// Accumulates `other` into `self`: rounds, messages, and bits add up;
    /// the maximum message size takes the max. This is how multi-phase
    /// drivers (and the `minex::Solver` session reports) aggregate the cost
    /// of several sequential simulator runs into one figure.
    pub fn absorb(&mut self, other: RunStats) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.max_message_bits = self.max_message_bits.max(other.max_message_bits);
        self.total_bits += other.total_bits;
    }

    /// The cost of running the same simulation `k` times in sequence:
    /// rounds, messages, and bits scale by `k`; the maximum message size is
    /// unchanged. Used for analytically charged repetitions (e.g. tree
    /// packing charges one Borůvka profile per packed tree).
    #[must_use]
    pub fn repeated(mut self, k: usize) -> RunStats {
        self.rounds *= k;
        self.messages *= k as u64;
        self.total_bits *= k as u64;
        self
    }
}

/// Errors from a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A message exceeded the per-edge bandwidth.
    BandwidthExceeded {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Offending message size.
        bits: usize,
        /// Configured budget.
        budget: usize,
    },
    /// A node sent two messages over one edge in one round.
    DuplicateSend {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
    },
    /// A node tried to message a non-neighbor.
    NotANeighbor {
        /// Sending node.
        from: NodeId,
        /// Intended recipient.
        to: NodeId,
    },
    /// The round guard fired before quiescence.
    MaxRoundsExceeded {
        /// The configured guard.
        limit: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BandwidthExceeded {
                from,
                to,
                bits,
                budget,
            } => write!(
                f,
                "message {from}->{to} of {bits} bits exceeds the {budget}-bit budget"
            ),
            SimError::DuplicateSend { from, to } => {
                write!(f, "node {from} sent two messages to {to} in one round")
            }
            SimError::NotANeighbor { from, to } => {
                write!(f, "node {from} attempted to message non-neighbor {to}")
            }
            SimError::MaxRoundsExceeded { limit } => {
                write!(f, "simulation did not quiesce within {limit} rounds")
            }
        }
    }
}

impl Error for SimError {}

/// Per-sender send validation: the CONGEST constraints are checked in a
/// fixed order (neighborship, then per-edge-per-round uniqueness, then
/// bandwidth).
#[derive(Debug)]
struct SendValidator {
    /// Destinations already used by the current sender this round.
    seen_dest: Vec<bool>,
    /// The set bits of `seen_dest`, for O(degree) reset.
    used: Vec<NodeId>,
}

impl SendValidator {
    fn new() -> Self {
        SendValidator {
            seen_dest: Vec::new(),
            used: Vec::new(),
        }
    }

    /// Sizes the (cleared) validator for destinations `0..n`.
    fn resize(&mut self, n: usize) {
        self.seen_dest.resize(n, false);
    }

    /// Validates one queued send of `bits` bits from `from` to `to`,
    /// returning the id of the edge it crosses (the neighborship lookup
    /// already pays for it, and telemetry sinks key per-link load by it).
    ///
    /// `hint` is the outbox's edge-id hint column entry: broadcasts record
    /// the CSR edge id at queue time and `send_via` records the id its
    /// caller read from its port list, so the `edge_between` binary search
    /// is skipped for them; [`NO_HINT`] (plain `send`) pays the lookup.
    /// Hints originate from the graph's own CSR row, so taking them at
    /// face value cannot change which sends are accepted — the check order
    /// (neighborship, duplicate, bandwidth) is observably identical either
    /// way.
    #[inline]
    fn check(
        &mut self,
        graph: &Graph,
        config: &CongestConfig,
        from: NodeId,
        to: NodeId,
        hint: u32,
        bits: usize,
    ) -> Result<EdgeId, SimError> {
        let edge = if hint == NO_HINT {
            match graph.edge_between(from, to) {
                Some(edge) => edge,
                None => return Err(SimError::NotANeighbor { from, to }),
            }
        } else {
            debug_assert_eq!(graph.edge_between(from, to), Some(hint as EdgeId));
            hint as EdgeId
        };
        if self.seen_dest[to] {
            return Err(SimError::DuplicateSend { from, to });
        }
        self.seen_dest[to] = true;
        self.used.push(to);
        if bits > config.bandwidth_bits {
            return Err(SimError::BandwidthExceeded {
                from,
                to,
                bits,
                budget: config.bandwidth_bits,
            });
        }
        Ok(edge)
    }

    /// Clears the per-sender state; call once the sender's outbox is drained.
    #[inline]
    fn finish_sender(&mut self) {
        for &to in &self.used {
            self.seen_dest[to] = false;
        }
        self.used.clear();
    }
}

/// A set of node ids as a two-level bitmap: one bit per node, plus one
/// summary bit per 64-node word. Walking it costs O(n/4096 + members) and
/// yields members in ascending id order.
#[derive(Debug)]
struct ActiveSet {
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl ActiveSet {
    fn new() -> Self {
        ActiveSet {
            words: Vec::new(),
            summary: Vec::new(),
        }
    }

    /// Sizes the (empty) set for ids `0..n`.
    fn resize(&mut self, n: usize) {
        let words = n.div_ceil(64);
        self.words.resize(words, 0);
        self.summary.resize(words.div_ceil(64), 0);
    }

    #[inline]
    fn insert(&mut self, v: NodeId) {
        let w = v / 64;
        self.words[w] |= 1 << (v % 64);
        self.summary[w / 64] |= 1 << (w % 64);
    }

    #[cfg(debug_assertions)]
    fn contains(&self, v: NodeId) -> bool {
        self.words[v / 64] & (1 << (v % 64)) != 0
    }

    /// Calls `visit` on every member in ascending id order, stopping at
    /// the first error.
    #[inline]
    fn try_for_each<E>(&self, mut visit: impl FnMut(NodeId) -> Result<(), E>) -> Result<(), E> {
        for (s, &summary) in self.summary.iter().enumerate() {
            let mut marked = summary;
            while marked != 0 {
                let w = s * 64 + marked.trailing_zeros() as usize;
                marked &= marked - 1;
                let mut members = self.words[w];
                while members != 0 {
                    visit(w * 64 + members.trailing_zeros() as usize)?;
                    members &= members - 1;
                }
            }
        }
        Ok(())
    }

    /// Empties the set, touching only the words that hold members.
    fn clear(&mut self) {
        for (i, summary) in self.summary.iter_mut().enumerate() {
            let mut bits = std::mem::take(summary);
            while bits != 0 {
                self.words[i * 64 + bits.trailing_zeros() as usize] = 0;
                bits &= bits - 1;
            }
        }
    }
}

/// Runs one node program per node until global quiescence: every program
/// reports [`NodeProgram::is_done`] and no messages are in flight.
///
/// Returns the run statistics. Programs can be inspected afterwards to
/// extract their outputs.
///
/// Round 0 runs every node's [`on_round`](NodeProgram::on_round). After
/// that a round visits only the *active* nodes, in ascending id order: a
/// node is active if it was not done after its last `on_round` or if it
/// has mail. A round therefore costs O(n/4096 + active nodes + messages),
/// the work the model counts, not O(n). This rests on the contract that
/// [`NodeProgram::is_done`] changes only inside `on_round`; debug builds
/// check it at the end of every round.
///
/// `run` is a one-shot engine: it sets up a fresh [`Simulator`], runs it
/// once and drops it. A driver that runs many simulations on one graph
/// holds one `Simulator` instead and pays the set-up once.
///
/// # Errors
///
/// Returns a [`SimError`] if a program violates the CONGEST constraints or
/// the round guard fires. Error selection is deterministic: the violation
/// with the smallest sender id (and, within one sender, the earliest queued
/// message) is the one reported, and the run stops there, mid-round.
///
/// # Panics
///
/// Panics if `programs.len() != graph.n()`.
pub fn run<P: NodeProgram>(
    graph: &Graph,
    programs: &mut [P],
    config: CongestConfig,
) -> Result<RunStats, SimError> {
    Simulator::new().run(graph, programs, config)
}

/// [`run`] with an explicit telemetry [`Sink`] receiving every engine
/// event. Semantics, determinism, and error selection are identical to
/// `run`; see the [`telemetry`](crate::telemetry) module docs for the
/// hook order.
///
/// # Panics
///
/// Panics if `programs.len() != graph.n()`.
pub fn run_with_sink<P: NodeProgram, S: Sink>(
    graph: &Graph,
    programs: &mut [P],
    config: CongestConfig,
    sink: &mut S,
) -> Result<RunStats, SimError> {
    Simulator::new().run_with_sink(graph, programs, config, sink)
}

/// The CONGEST engine: the round loop and the buffers it runs on — the two
/// inbox arrays, the two active sets, the outbox and the send validator.
///
/// An engine keeps those buffers, and their capacity, from one run to the
/// next, so a driver that simulates many short runs on one graph (an
/// aggregation and a relax round per phase) sets them up once instead of
/// once per run. Each run sizes them to its graph and starts from empty
/// mailboxes: nothing a run leaves behind, such as the mail of a run that
/// stopped on a [`SimError`] mid-round, reaches the next one. A warm
/// engine therefore returns exactly what [`run`] does. One engine serves
/// every program whose message type is `M`.
///
/// # Examples
///
/// ```
/// use minex_congest::{primitives, CongestConfig, Simulator};
/// use minex_graphs::{generators, WeightedGraph};
///
/// let wg = WeightedGraph::unit(generators::path(4));
/// let config = CongestConfig::for_nodes(4);
/// let mut sim = Simulator::new();
/// let mut dist = vec![0, u64::MAX, u64::MAX, u64::MAX];
/// for _ in 0..3 {
///     (dist, _) = primitives::distance_broadcast_round(&mut sim, &wg, &dist, 8, config)?;
/// }
/// assert_eq!(dist, [0, 1, 2, 3]);
/// # Ok::<(), minex_congest::SimError>(())
/// ```
#[derive(Debug)]
pub struct Simulator<M> {
    /// Batched delivery via double-buffered inboxes: `inboxes[v]` holds the
    /// messages delivered to `v` this round, `next_inboxes[v]` collects the
    /// sends for the next one. Each round consumes in place and swaps the
    /// two, so the steady-state loop performs no allocation.
    inboxes: Vec<Vec<(NodeId, M)>>,
    next_inboxes: Vec<Vec<(NodeId, M)>>,
    /// The nodes this round visits, and the ones the next round will: every
    /// node still not done after its `on_round`, and every mail recipient.
    /// Only their inboxes can hold mail.
    active: ActiveSet,
    next_active: ActiveSet,
    outbox: Outbox<M>,
    validator: SendValidator,
}

impl<M: Payload> Default for Simulator<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Payload> Simulator<M> {
    /// An engine with no buffers yet; the first run sizes them.
    pub fn new() -> Self {
        Simulator {
            inboxes: Vec::new(),
            next_inboxes: Vec::new(),
            active: ActiveSet::new(),
            next_active: ActiveSet::new(),
            outbox: Outbox::new(),
            validator: SendValidator::new(),
        }
    }

    /// [`run`] on this engine's buffers.
    ///
    /// # Errors
    ///
    /// As [`run`].
    ///
    /// # Panics
    ///
    /// Panics if `programs.len() != graph.n()`.
    pub fn run<P: NodeProgram<Msg = M>>(
        &mut self,
        graph: &Graph,
        programs: &mut [P],
        config: CongestConfig,
    ) -> Result<RunStats, SimError> {
        // One branch per run decides between the recording and the no-op
        // monomorphization; the no-op leg compiles to the uninstrumented
        // round loop (every `NoopSink` hook is an empty inline default).
        match telemetry::take_active() {
            Some(mut profile) => {
                let result = self.run_with_sink(graph, programs, config, &mut profile);
                telemetry::put_active(profile);
                result
            }
            None => self.run_with_sink(graph, programs, config, &mut NoopSink),
        }
    }

    /// [`run_with_sink`] on this engine's buffers.
    fn run_with_sink<P: NodeProgram<Msg = M>, S: Sink>(
        &mut self,
        graph: &Graph,
        programs: &mut [P],
        config: CongestConfig,
        sink: &mut S,
    ) -> Result<RunStats, SimError> {
        assert_eq!(
            programs.len(),
            graph.n(),
            "one program per node is required"
        );
        self.reset(graph.n());
        let result = run_rounds(self, graph, programs, config, sink);
        if let Err(ref err) = result {
            sink.on_reject(err);
        }
        result
    }

    /// Drops whatever the previous run left behind and sizes the buffers
    /// for `n` nodes. A run that stopped mid-round (on a [`SimError`], the
    /// round guard or a panicking program) leaves mail in the inboxes of
    /// its active sets' members, the offender's outbox and its validator
    /// marks; a run that quiesced leaves nothing. Either way this touches
    /// only the sets' members, not every node.
    fn reset(&mut self, n: usize) {
        let Simulator {
            inboxes,
            next_inboxes,
            active,
            next_active,
            outbox,
            validator,
        } = self;
        for (set, boxes) in [(active, inboxes), (next_active, next_inboxes)] {
            let _ = set.try_for_each(|v| {
                boxes[v].clear();
                Ok::<(), ()>(())
            });
            set.clear();
            set.resize(n);
            boxes.resize_with(n, Vec::new);
        }
        outbox.clear();
        validator.finish_sender();
        validator.resize(n);
    }
}

/// The round loop.
fn run_rounds<P: NodeProgram, S: Sink>(
    sim: &mut Simulator<P::Msg>,
    graph: &Graph,
    programs: &mut [P],
    config: CongestConfig,
    sink: &mut S,
) -> Result<RunStats, SimError> {
    let Simulator {
        inboxes,
        next_inboxes,
        active,
        next_active,
        outbox,
        validator,
    } = sim;
    let mut stats = RunStats::default();
    for v in 0..graph.n() {
        active.insert(v);
    }
    for round in 0..config.max_rounds {
        sink.on_round_start(round);
        let mut any_message = false;
        let mut all_done = true;
        active.try_for_each(|v| {
            for (from, msg) in &inboxes[v] {
                sink.on_deliver(round, *from, v, msg.bit_size());
            }
            outbox.clear();
            {
                let mut ctx = Ctx::new(graph, v, round, &inboxes[v], outbox);
                programs[v].on_round(&mut ctx);
            }
            if !programs[v].is_done() {
                all_done = false;
                next_active.insert(v);
            }
            // The inbox is consumed; empty it in place, keeping its capacity
            // for the swap two rounds from now.
            inboxes[v].clear();
            // Validation sweep: a branch-light pass over just the id/hint
            // columns (payloads untouched — only `bit_size` is read).
            for i in 0..outbox.len() {
                let to = outbox.dsts[i] as NodeId;
                let bits = outbox.payloads[i].bit_size();
                let edge = validator.check(graph, &config, v, to, outbox.hints[i], bits)?;
                sink.on_send(round, v, to, edge, bits);
                stats.messages += 1;
                stats.total_bits += bits as u64;
                stats.max_message_bits = stats.max_message_bits.max(bits);
                any_message = true;
            }
            validator.finish_sender();
            // Every send validated: move the payload column into the
            // destination inboxes. Deferring the moves past the sweep is
            // unobservable — an `Err` above ends the run, and the next run
            // drops what it left. A recipient joins the next round's
            // active set with its first message.
            for (&to, msg) in outbox.dsts.iter().zip(outbox.payloads.drain(..)) {
                let inbox = &mut next_inboxes[to as usize];
                if inbox.is_empty() {
                    next_active.insert(to as usize);
                }
                inbox.push((v, msg));
            }
            outbox.clear();
            Ok(())
        })?;
        // The `is_done` contract: a node not visited this round was done
        // after its last `on_round`, and still is — so `all_done`, taken
        // over the visited nodes only, holds for every node.
        #[cfg(debug_assertions)]
        for (v, program) in programs.iter().enumerate() {
            assert!(
                active.contains(v) || program.is_done(),
                "node {v} turned not done outside on_round (NodeProgram::is_done contract)"
            );
        }
        // Every visited slot of `inboxes` was cleared above and the
        // others were already empty, so after the swap `next_inboxes` is
        // all empty (but warm) for the round after next.
        std::mem::swap(inboxes, next_inboxes);
        active.clear();
        std::mem::swap(active, next_active);
        sink.on_round_end(round);
        if all_done && !any_message {
            stats.rounds = round;
            return Ok(stats);
        }
        stats.rounds = round + 1;
    }
    Err(SimError::MaxRoundsExceeded {
        limit: config.max_rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Ctx, NodeProgram};
    use minex_graphs::generators;

    /// Floods the minimum id seen so far; classic leader election.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct MinFlood {
        best: usize,
        dirty: bool,
    }

    impl NodeProgram for MinFlood {
        type Msg = usize;
        fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
            if ctx.round() == 0 {
                self.best = ctx.node();
                self.dirty = true;
            }
            for &(_, msg) in ctx.inbox() {
                if msg < self.best {
                    self.best = msg;
                    self.dirty = true;
                }
            }
            if self.dirty {
                self.dirty = false;
                ctx.broadcast(self.best);
            }
        }
        fn is_done(&self) -> bool {
            !self.dirty
        }
    }

    #[test]
    fn min_flood_elects_node_zero() {
        let g = generators::cycle(16);
        let mut programs = vec![
            MinFlood {
                best: usize::MAX,
                dirty: true
            };
            16
        ];
        let stats = run(&g, &mut programs, CongestConfig::for_nodes(16)).unwrap();
        assert!(programs.iter().all(|p| p.best == 0));
        // Flooding a cycle of 16 takes about half the cycle.
        assert!(
            stats.rounds >= 8 && stats.rounds <= 10,
            "rounds={}",
            stats.rounds
        );
        assert!(stats.messages > 0);
    }

    /// A program that violates bandwidth on purpose.
    #[derive(Debug, Clone)]
    struct Blaster;
    impl NodeProgram for Blaster {
        type Msg = (u64, u64);
        fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
            if ctx.round() == 0 && ctx.node() == 0 {
                ctx.broadcast((1, 2));
            }
        }
        fn is_done(&self) -> bool {
            true
        }
    }

    #[test]
    fn bandwidth_is_enforced() {
        let g = generators::path(4);
        let mut programs = vec![Blaster; 4];
        let err = run(
            &g,
            &mut programs,
            CongestConfig::for_nodes(4).with_bandwidth(64),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::BandwidthExceeded { bits: 128, .. }));
    }

    /// Sends twice to the same neighbor.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct DoubleSend;
    impl NodeProgram for DoubleSend {
        type Msg = u32;
        fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
            if ctx.round() == 0 && ctx.node() == 0 {
                ctx.send(1, 5);
                ctx.send(1, 6);
            }
        }
        fn is_done(&self) -> bool {
            true
        }
    }

    #[test]
    fn duplicate_sends_rejected() {
        let g = generators::path(2);
        let mut programs = vec![DoubleSend; 2];
        let err = run(&g, &mut programs, CongestConfig::for_nodes(2)).unwrap_err();
        assert_eq!(err, SimError::DuplicateSend { from: 0, to: 1 });
    }

    /// Messages a non-neighbor.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Teleporter;
    impl NodeProgram for Teleporter {
        type Msg = u32;
        fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
            if ctx.round() == 0 && ctx.node() == 0 {
                ctx.send(3, 1);
            }
        }
        fn is_done(&self) -> bool {
            true
        }
    }

    #[test]
    fn non_neighbor_rejected() {
        let g = generators::path(4);
        let mut programs = vec![Teleporter; 4];
        let err = run(&g, &mut programs, CongestConfig::for_nodes(4)).unwrap_err();
        assert_eq!(err, SimError::NotANeighbor { from: 0, to: 3 });
    }

    /// Never finishes.
    #[derive(Debug, Clone)]
    struct Livelock;
    impl NodeProgram for Livelock {
        type Msg = u32;
        fn on_round(&mut self, _ctx: &mut Ctx<'_, Self::Msg>) {}
        fn is_done(&self) -> bool {
            false
        }
    }

    #[test]
    fn round_guard_fires() {
        let g = generators::path(2);
        let mut programs = vec![Livelock; 2];
        let err = run(
            &g,
            &mut programs,
            CongestConfig::for_nodes(2).with_max_rounds(10),
        )
        .unwrap_err();
        assert_eq!(err, SimError::MaxRoundsExceeded { limit: 10 });
    }

    /// The full-scan reference: the seed's per-round-allocating delivery
    /// loop, which polls every node every round. The active-set loop must
    /// reproduce it exactly: stats, program states, and the error chosen.
    fn run_naive<P: NodeProgram>(
        graph: &Graph,
        programs: &mut [P],
        config: CongestConfig,
    ) -> Result<RunStats, SimError> {
        let n = graph.n();
        let mut stats = RunStats::default();
        let mut inboxes: Vec<Vec<(NodeId, P::Msg)>> = vec![Vec::new(); n];
        let mut outbox: Outbox<P::Msg> = Outbox::new();
        let mut seen_dest: Vec<bool> = vec![false; n];
        for round in 0..config.max_rounds {
            let mut next_inboxes: Vec<Vec<(NodeId, P::Msg)>> = vec![Vec::new(); n];
            let mut any_message = false;
            for v in 0..n {
                let inbox = std::mem::take(&mut inboxes[v]);
                if round > 0 && inbox.is_empty() && programs[v].is_done() {
                    continue;
                }
                outbox.clear();
                {
                    let mut ctx = Ctx::new(graph, v, round, &inbox, &mut outbox);
                    programs[v].on_round(&mut ctx);
                }
                let mut used: Vec<NodeId> = Vec::with_capacity(outbox.len());
                let hints = std::mem::take(&mut outbox.hints);
                for (i, (&to32, msg)) in outbox
                    .dsts
                    .iter()
                    .zip(outbox.payloads.drain(..))
                    .enumerate()
                {
                    let to = to32 as NodeId;
                    // Validate every message from scratch — the reference
                    // never trusts the hint column, it *audits* it.
                    match graph.edge_between(v, to) {
                        None => return Err(SimError::NotANeighbor { from: v, to }),
                        Some(edge) => {
                            if hints[i] != NO_HINT {
                                assert_eq!(
                                    hints[i] as EdgeId, edge,
                                    "outbox hint disagrees with edge_between for {v}->{to}"
                                );
                            }
                        }
                    }
                    if seen_dest[to] {
                        return Err(SimError::DuplicateSend { from: v, to });
                    }
                    seen_dest[to] = true;
                    used.push(to);
                    let bits = msg.bit_size();
                    if bits > config.bandwidth_bits {
                        return Err(SimError::BandwidthExceeded {
                            from: v,
                            to,
                            bits,
                            budget: config.bandwidth_bits,
                        });
                    }
                    stats.messages += 1;
                    stats.total_bits += bits as u64;
                    stats.max_message_bits = stats.max_message_bits.max(bits);
                    next_inboxes[to].push((v, msg));
                    any_message = true;
                }
                for to in used {
                    seen_dest[to] = false;
                }
            }
            let all_done = (0..n).all(|v| programs[v].is_done());
            inboxes = next_inboxes;
            if all_done && !any_message {
                stats.rounds = round;
                return Ok(stats);
            }
            stats.rounds = round + 1;
        }
        Err(SimError::MaxRoundsExceeded {
            limit: config.max_rounds,
        })
    }

    /// Runs fresh copies of `fresh` on `engine` and on `run_naive` and
    /// checks they agree on the outcome (stats or the error chosen) and on
    /// every final program state; returns the outcome.
    fn assert_engine_matches_naive<P: NodeProgram + Clone + PartialEq + std::fmt::Debug>(
        engine: impl FnOnce(&mut [P]) -> Result<RunStats, SimError>,
        graph: &Graph,
        fresh: &[P],
        config: CongestConfig,
    ) -> Result<RunStats, SimError> {
        let mut active = fresh.to_vec();
        let mut naive = fresh.to_vec();
        let a = engine(&mut active);
        let b = run_naive(graph, &mut naive, config);
        assert_eq!(a, b, "outcomes diverge from the full-scan reference");
        assert_eq!(
            active, naive,
            "program states diverge from the full-scan reference"
        );
        a
    }

    /// [`assert_engine_matches_naive`] on the one-shot [`run`].
    fn assert_matches_naive<P: NodeProgram + Clone + PartialEq + std::fmt::Debug>(
        graph: &Graph,
        fresh: &[P],
        config: CongestConfig,
    ) -> Result<RunStats, SimError> {
        assert_engine_matches_naive(|p| run(graph, p, config), graph, fresh, config)
    }

    /// Leaves an engine dirty: every node broadcasts `msg` in rounds 0 and
    /// 1, and in round 1 node `offender` first sends `extra` to its
    /// smallest neighbor. An `extra` over the bandwidth budget is rejected
    /// at once; any other makes the broadcast that follows a second send
    /// over the same edge. Either way the run stops mid-round, with mail
    /// still queued for the nodes after the offender and for the next
    /// round, an outbox half validated, and the validator's marks set.
    #[derive(Debug, Clone)]
    struct Spam<M> {
        msg: M,
        extra: M,
        offender: NodeId,
        rounds_left: usize,
    }

    impl<M: Payload> NodeProgram for Spam<M> {
        type Msg = M;
        fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
            if self.rounds_left == 0 {
                return;
            }
            self.rounds_left -= 1;
            if ctx.round() == 1 && ctx.node() == self.offender {
                let to = ctx.neighbor_targets()[0] as NodeId;
                ctx.send(to, self.extra.clone());
            }
            ctx.broadcast(self.msg.clone());
        }
        fn is_done(&self) -> bool {
            self.rounds_left == 0
        }
    }

    /// [`assert_matches_naive`], then the same check on one engine reused
    /// right after two other runs on it: a run that quiesced on a larger
    /// graph, and a [`Spam`] run on `graph` that stopped mid-round on a
    /// bandwidth (`extra` oversized for `config`) or duplicate-send error.
    /// A warm engine must be invisible: its outcome and program states are
    /// the full-scan reference's.
    fn assert_warm_matches_naive<P: NodeProgram + Clone + PartialEq + std::fmt::Debug>(
        graph: &Graph,
        fresh: &[P],
        config: CongestConfig,
        msg: P::Msg,
        extra: P::Msg,
        seed: u64,
    ) -> Result<RunStats, SimError> {
        let cold = assert_matches_naive(graph, fresh, config);
        let n = graph.n();
        let spam = |offender: NodeId, n: usize| {
            vec![
                Spam {
                    msg: msg.clone(),
                    extra: extra.clone(),
                    offender,
                    rounds_left: 2,
                };
                n
            ]
        };
        let mut sim = Simulator::new();
        let other = random_graph(n + 1 + (seed % 16) as usize, n, seed ^ 0x5EED);
        let other_config = CongestConfig::for_nodes(other.n());
        sim.run(&other, &mut spam(NodeId::MAX, other.n()), other_config)
            .expect("the larger graph's run quiesces");
        let err = sim.run(graph, &mut spam(n / 2, n), config).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::BandwidthExceeded { .. } | SimError::DuplicateSend { .. }
            ),
            "{err:?}"
        );
        let warm = assert_engine_matches_naive(|p| sim.run(graph, p, config), graph, fresh, config);
        assert_eq!(
            warm, cold,
            "a warm engine's outcome differs from a fresh one's"
        );
        warm
    }

    #[test]
    fn batched_delivery_matches_naive_reference() {
        for g in [
            generators::cycle(16),
            generators::path(12),
            generators::grid(6, 9),
            generators::complete(9),
            generators::wheel(17),
        ] {
            let n = g.n();
            let config = CongestConfig::for_nodes(n);
            let min_flood = vec![
                MinFlood {
                    best: usize::MAX,
                    dirty: true
                };
                n
            ];
            assert_matches_naive(&g, &min_flood, config).unwrap();
            assert_matches_naive(&g, &vec![Pinger3 { rounds_left: 3 }; n], config).unwrap();
        }
    }

    /// Broadcasts for three rounds (used by the equivalence test).
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Pinger3 {
        rounds_left: usize,
    }

    impl NodeProgram for Pinger3 {
        type Msg = u32;
        fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
            if self.rounds_left > 0 {
                self.rounds_left -= 1;
                ctx.broadcast(7);
            }
        }
        fn is_done(&self) -> bool {
            self.rounds_left == 0
        }
    }

    /// Sends one oversized message from a configurable node — used to plant
    /// violations at several places in one round.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct BlastFrom {
        active: bool,
    }
    impl NodeProgram for BlastFrom {
        type Msg = (u64, u64);
        fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
            if ctx.round() == 0 && self.active {
                ctx.broadcast((1, 2));
            }
        }
        fn is_done(&self) -> bool {
            true
        }
    }

    /// Mixes hinted broadcasts, hinted targeted sends (`send_via`) and
    /// unhinted targeted sends, data-dependently, so the SoA engine drives
    /// every validator path against the AoS reference in one run.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Mixer {
        acc: u64,
        bursts_left: usize,
    }

    impl NodeProgram for Mixer {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
            for &(from, msg) in ctx.inbox() {
                self.acc = self
                    .acc
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(msg ^ from as u64);
            }
            if self.bursts_left > 0 {
                self.bursts_left -= 1;
                if self.acc % 2 == 0 {
                    ctx.broadcast(self.acc);
                } else {
                    let targets: Vec<(NodeId, EdgeId)> = ctx
                        .neighbors()
                        .filter(|&(w, _)| (self.acc ^ w as u64) % 3 != 0)
                        .collect();
                    let hinted = self.acc % 4 == 1;
                    for (w, e) in targets {
                        if hinted {
                            ctx.send_via(w, e, self.acc ^ w as u64);
                        } else {
                            ctx.send(w, self.acc ^ w as u64);
                        }
                    }
                }
            }
        }
        fn is_done(&self) -> bool {
            self.bursts_left == 0
        }
    }

    /// A deliberately irregular gossip: every node accumulates a rolling
    /// hash of `(sender, payload)` pairs (so its state depends on inbox
    /// order) and keeps chattering to a data-dependent subset of neighbors
    /// for a node-dependent number of bursts. A done node that gets mail
    /// echoes to a few neighbors, a bounded number of times, so the round
    /// loop's order among woken and not-done nodes shows in every inbox.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Gossip {
        acc: u64,
        bursts_left: usize,
        echoes_left: usize,
    }

    impl NodeProgram for Gossip {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
            for &(from, msg) in ctx.inbox() {
                self.acc = self
                    .acc
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(msg ^ from as u64);
            }
            if self.bursts_left > 0 {
                self.bursts_left -= 1;
            } else if !ctx.inbox().is_empty() && self.echoes_left > 0 {
                self.echoes_left -= 1;
            } else {
                return;
            }
            let v = ctx.node() as u64;
            let targets: Vec<NodeId> = ctx
                .neighbors()
                .filter(|&(w, _)| (self.acc ^ w as u64 ^ v) % 3 != 0)
                .map(|(w, _)| w)
                .collect();
            for w in targets {
                ctx.send(w, self.acc ^ w as u64);
            }
        }
        fn is_done(&self) -> bool {
            self.bursts_left == 0
        }
    }

    /// A message of a given size in bits.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct BitsMsg(usize);

    impl Payload for BitsMsg {
        fn bit_size(&self) -> usize {
            self.0
        }
    }

    /// Before `blast_round`, odd nodes stay awake and ping their
    /// neighbors, so later rounds visit both not-done nodes and nodes woken
    /// by mail. In `blast_round`, every visited node whose id is
    /// `node_mod - 1 (mod node_mod)` blasts an oversized broadcast: many
    /// nodes of both kinds break the bandwidth budget in the same round,
    /// and only the first in id order may be reported.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Offender {
        node_mod: usize,
        blast_round: usize,
        awake: bool,
    }

    impl NodeProgram for Offender {
        type Msg = BitsMsg;
        fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
            let v = ctx.node();
            if ctx.round() == 0 {
                self.awake = v % 2 == 1;
            }
            if ctx.round() < self.blast_round {
                if self.awake {
                    ctx.broadcast(BitsMsg(8));
                }
            } else {
                if v % self.node_mod == self.node_mod - 1 {
                    ctx.broadcast(BitsMsg(128));
                }
                self.awake = false;
            }
        }
        fn is_done(&self) -> bool {
            !self.awake
        }
    }

    fn random_graph(n: usize, extra: usize, seed: u64) -> Graph {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        generators::random_connected(n, extra, &mut rng)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// SoA-vs-AoS byte identity: the column-based engine must match the
        /// tuple-based `run_naive` reference — stats and final program
        /// states — on irregular traffic.
        #[test]
        fn soa_engines_match_aos_reference(
            n in 4usize..48, extra in 0usize..32, seed in 0u64..1000,
        ) {
            let g = random_graph(n, extra, seed);
            let fresh: Vec<Mixer> = (0..n)
                .map(|v| Mixer { acc: v as u64 ^ seed, bursts_left: 1 + v % 4 })
                .collect();
            assert_matches_naive(&g, &fresh, CongestConfig::for_nodes(n)).unwrap();
        }
    }

    // Each case runs on a fresh engine and on a warm one that just ran a
    // larger graph and a run that failed mid-round (`Spam`).
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn min_flood_matches_full_scan_reference(
            n in 4usize..80, extra in 0usize..60, seed in 0u64..1000,
        ) {
            let g = random_graph(n, extra, seed);
            let fresh = vec![MinFlood { best: usize::MAX, dirty: true }; n];
            let config = CongestConfig::for_nodes(n);
            let stats = assert_warm_matches_naive(&g, &fresh, config, 1, 2, seed).unwrap();
            proptest::prop_assert!(stats.messages > 0);
        }

        #[test]
        fn gossip_matches_full_scan_reference(
            n in 4usize..60, extra in 0usize..40, seed in 0u64..1000,
        ) {
            let g = random_graph(n, extra, seed);
            let fresh: Vec<Gossip> = (0..n)
                .map(|v| Gossip { acc: v as u64, bursts_left: 1 + v % 5, echoes_left: v % 3 })
                .collect();
            let config = CongestConfig::for_nodes(n);
            assert_warm_matches_naive(&g, &fresh, config, 3, 4, seed).unwrap();
        }

        #[test]
        fn error_selection_matches_full_scan_reference(
            n in 4usize..60, extra in 0usize..40, seed in 0u64..1000,
            node_mod in 2usize..5, blast_round in 0usize..3,
            oversized in proptest::bool::ANY,
        ) {
            let g = random_graph(n, extra, seed);
            let fresh = vec![Offender { node_mod, blast_round, awake: false }; n];
            // 64-bit budget: the 128-bit blast is twice over it.
            let config = CongestConfig::for_nodes(n).with_bandwidth(64);
            // The dirtying run breaks the budget, or sends twice.
            let extra = BitsMsg(if oversized { 128 } else { 8 });
            match assert_warm_matches_naive(&g, &fresh, config, BitsMsg(8), extra, seed) {
                // In round 0 every node runs, so the reported offender is
                // the smallest violating node id.
                Err(SimError::BandwidthExceeded { from, .. }) if blast_round == 0 => {
                    proptest::prop_assert_eq!(from, node_mod - 1);
                }
                Err(SimError::BandwidthExceeded { from, .. }) => {
                    proptest::prop_assert_eq!(from % node_mod, node_mod - 1);
                }
                // Later, an offender runs only if it is awake or was
                // pinged; on a few small graphs none is.
                Ok(_) if blast_round > 0 => {}
                other => panic!("expected a bandwidth violation, got {other:?}"),
            }
        }
    }

    #[test]
    fn error_selection_is_deterministic_across_engines() {
        // Nodes 2 and 14 both blast oversized broadcasts in round 0: the
        // active-set loop and the full-scan reference must both report
        // node 2's first send.
        let g = generators::cycle(16);
        let fresh: Vec<BlastFrom> = (0..16)
            .map(|v| BlastFrom {
                active: v == 2 || v == 14,
            })
            .collect();
        let config = CongestConfig::for_nodes(16).with_bandwidth(64);
        let err = assert_matches_naive(&g, &fresh, config).unwrap_err();
        assert!(
            matches!(err, SimError::BandwidthExceeded { from: 2, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn duplicate_and_non_neighbor_errors_match_across_engines() {
        let g = generators::path(8);
        let err = assert_matches_naive(&g, &[DoubleSend; 8], CongestConfig::for_nodes(8));
        assert_eq!(err, Err(SimError::DuplicateSend { from: 0, to: 1 }));
        let err = assert_matches_naive(&g, &[Teleporter; 8], CongestConfig::for_nodes(8));
        assert_eq!(err, Err(SimError::NotANeighbor { from: 0, to: 3 }));
    }

    /// Node 0 raises a shared flag in round 1; every other node reports
    /// not done once the flag is up, without running — an `is_done` that
    /// changes outside the node's own `on_round`.
    #[derive(Debug, Clone)]
    struct SharedFlag {
        flag: std::rc::Rc<std::cell::Cell<bool>>,
        waker: bool,
        raised: bool,
    }

    impl NodeProgram for SharedFlag {
        type Msg = u32;
        fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
            if self.waker && ctx.round() == 1 {
                self.flag.set(true);
                self.raised = true;
            }
        }
        fn is_done(&self) -> bool {
            if self.waker {
                self.raised
            } else {
                !self.flag.get()
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is_done contract")]
    fn is_done_contract_is_checked_in_debug_builds() {
        let g = generators::path(3);
        let flag = std::rc::Rc::new(std::cell::Cell::new(false));
        let mut programs: Vec<SharedFlag> = (0..3)
            .map(|v| SharedFlag {
                flag: flag.clone(),
                waker: v == 0,
                raised: false,
            })
            .collect();
        let _ = run(&g, &mut programs, CongestConfig::for_nodes(3));
    }

    #[test]
    fn for_nodes_small_n_is_pinned() {
        // n = 0 clamps to the singleton configuration.
        let c0 = CongestConfig::for_nodes(0);
        let c1 = CongestConfig::for_nodes(1);
        assert_eq!((c0.bandwidth_bits, c0.max_rounds), (64, 1088));
        assert_eq!((c1.bandwidth_bits, c1.max_rounds), (64, 1088));
        // n = 2: bits_for(3) = 2, floored to the 8-bit minimum word.
        let c2 = CongestConfig::for_nodes(2);
        assert_eq!((c2.bandwidth_bits, c2.max_rounds), (64, 1152));
    }

    #[test]
    fn for_nodes_huge_n_saturates_instead_of_wrapping() {
        // 64·n + 1024 would wrap for n near usize::MAX and leave a tiny (or
        // zero) round guard; the saturating form pins it to the maximum.
        for n in [usize::MAX, usize::MAX / 2, usize::MAX / 64 + 1] {
            let c = CongestConfig::for_nodes(n);
            assert_eq!(c.max_rounds, usize::MAX, "n={n}");
            assert!(c.bandwidth_bits >= 64);
        }
        // Just below the saturation point the exact formula still applies.
        let n = (usize::MAX - 1024) / 64;
        let c = CongestConfig::for_nodes(n);
        assert_eq!(c.max_rounds, n * 64 + 1024);
    }

    #[test]
    fn empty_network_quiesces_immediately() {
        let g = minex_graphs::Graph::from_edges(0, std::iter::empty()).unwrap();
        let mut programs: Vec<MinFlood> = Vec::new();
        let stats = run(&g, &mut programs, CongestConfig::for_nodes(0)).unwrap();
        assert_eq!(stats, RunStats::default());
    }

    #[test]
    fn immediate_quiescence_costs_zero_rounds() {
        #[derive(Debug, Clone)]
        struct Noop;
        impl NodeProgram for Noop {
            type Msg = u32;
            fn on_round(&mut self, _ctx: &mut Ctx<'_, Self::Msg>) {}
            fn is_done(&self) -> bool {
                true
            }
        }
        let g = generators::path(3);
        let mut programs = vec![Noop; 3];
        let stats = run(&g, &mut programs, CongestConfig::for_nodes(3)).unwrap();
        assert_eq!(stats.rounds, 0);
        assert_eq!(stats.messages, 0);
    }
}
