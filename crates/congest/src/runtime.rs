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
    /// Worker threads for the execution engine: `1` runs the sequential
    /// engine, larger values shard each round across that many workers, and
    /// `0` resolves to the machine's available parallelism. Both engines
    /// produce byte-identical [`RunStats`], program outputs, and errors.
    pub threads: usize,
}

/// The process-wide default thread count used by
/// [`CongestConfig::for_nodes`]: the `MINEX_THREADS` environment variable if
/// set to a parseable integer (read once, at first use), else `1`.
fn default_threads() -> usize {
    static ENV_DEFAULT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *ENV_DEFAULT.get_or_init(|| {
        std::env::var("MINEX_THREADS")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(1)
    })
}

impl CongestConfig {
    /// The standard model parameters for an `n`-node network:
    /// `B = 8·⌈log₂(n+1)⌉` bits (a generous constant, enough for a tagged
    /// id/weight pair) and a `64·n + 1024` round guard. The engine thread
    /// count defaults to the `MINEX_THREADS` environment variable (else 1),
    /// so a test matrix can exercise the parallel engine without touching
    /// call sites.
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
            threads: default_threads(),
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

    /// Overrides the engine thread count (`1` = sequential engine, `0` =
    /// available parallelism). Results are identical either way; threads only
    /// trade wall-clock time.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The worker count the engine will actually use: `0` resolves to
    /// [`std::thread::available_parallelism`] (or 1 if that is unknowable).
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            self.threads
        }
    }
}

/// Cost and volume statistics of a completed run.
///
/// Every counter is **engine-independent**: the sequential and the
/// multi-threaded engine produce byte-identical `RunStats` for the same
/// graph, programs, and config — [`threads`](CongestConfig::threads) only
/// changes wall-clock time, never what is measured.
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

/// Per-sender send validation shared by both engines, so the CONGEST
/// constraints are checked in exactly the same order (neighborship, then
/// per-edge-per-round uniqueness, then bandwidth) regardless of engine.
#[derive(Debug)]
pub(crate) struct SendValidator {
    /// Destinations already used by the current sender this round.
    seen_dest: Vec<bool>,
    /// The set bits of `seen_dest`, for O(degree) reset.
    used: Vec<NodeId>,
}

impl SendValidator {
    pub(crate) fn new(n: usize) -> Self {
        SendValidator {
            seen_dest: vec![false; n],
            used: Vec::new(),
        }
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
    pub(crate) fn check(
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
    pub(crate) fn finish_sender(&mut self) {
        for &to in &self.used {
            self.seen_dest[to] = false;
        }
        self.used.clear();
    }
}

/// Runs one node program per node until global quiescence: every program
/// reports [`NodeProgram::is_done`] and no messages are in flight.
///
/// Returns the run statistics. Programs can be inspected afterwards to
/// extract their outputs.
///
/// [`CongestConfig::threads`] selects the execution engine: `1` (the
/// default) is the sequential round loop, anything larger shards each round
/// across that many worker threads. On every successful run the engines are
/// observationally identical — same `RunStats`, same program states — because
/// CONGEST rounds are embarrassingly parallel: every node reads only its own
/// inbox and writes only its own outbox, and the parallel engine merges
/// outboxes into the next round's inboxes in node-id order.
///
/// # Errors
///
/// Returns a [`SimError`] if a program violates the CONGEST constraints or
/// the round guard fires. Error selection is deterministic on both engines:
/// the violation with the smallest sender id (and, within one sender, the
/// earliest queued message) is the one reported. After an `Err`, though,
/// the *program states* are engine-dependent (the sequential engine stops
/// mid-round at the offender; a parallel run's other shards finish their
/// nodes first) — only inspect `programs` after an `Ok`.
///
/// # Panics
///
/// Panics if `programs.len() != graph.n()`.
pub fn run<P>(
    graph: &Graph,
    programs: &mut [P],
    config: CongestConfig,
) -> Result<RunStats, SimError>
where
    P: NodeProgram + Send,
    P::Msg: Send,
{
    // One branch per run decides between the recording and the no-op
    // monomorphization; the no-op leg compiles to the uninstrumented round
    // loop (every `NoopSink` hook is an empty inline default).
    match telemetry::take_active() {
        Some(mut profile) => {
            let result = run_with_sink(graph, programs, config, &mut profile);
            telemetry::put_active(profile);
            result
        }
        None => run_with_sink(graph, programs, config, &mut NoopSink),
    }
}

/// [`run`] with an explicit telemetry [`Sink`] receiving every engine
/// event. Semantics, determinism, and error selection are identical to
/// `run`; see the [`telemetry`](crate::telemetry) module docs for the
/// hook order and the recorder determinism contract.
///
/// # Panics
///
/// Panics if `programs.len() != graph.n()`.
pub fn run_with_sink<P, S>(
    graph: &Graph,
    programs: &mut [P],
    config: CongestConfig,
    sink: &mut S,
) -> Result<RunStats, SimError>
where
    P: NodeProgram + Send,
    P::Msg: Send,
    S: Sink,
{
    assert_eq!(
        programs.len(),
        graph.n(),
        "one program per node is required"
    );
    // More workers than nodes cannot help; empty networks and singletons
    // always take the sequential path.
    let threads = config.resolved_threads().min(graph.n().max(1));
    let result = if threads <= 1 {
        run_sequential(graph, programs, config, sink)
    } else {
        crate::parallel::run_parallel(graph, programs, config, threads, sink)
    };
    // Rejections are reported here, after the parallel engine has merged
    // its shard sinks, so both engines fire exactly one deterministic
    // rejection event on the root sink.
    if let Err(ref err) = result {
        sink.on_reject(err);
    }
    result
}

/// The single-threaded engine: the reference semantics.
fn run_sequential<P: NodeProgram, S: Sink>(
    graph: &Graph,
    programs: &mut [P],
    config: CongestConfig,
    sink: &mut S,
) -> Result<RunStats, SimError> {
    let n = graph.n();
    let mut stats = RunStats::default();
    // Batched delivery via double-buffered inboxes: `inboxes[v]` holds the
    // messages delivered to `v` this round, `next_inboxes[v]` collects the
    // sends for the next one. Both sides (and the scratch buffers below) are
    // allocated once; each round consumes in place and swaps the buffers, so
    // the steady-state loop performs no allocation.
    let mut inboxes: Vec<Vec<(NodeId, P::Msg)>> = vec![Vec::new(); n];
    let mut next_inboxes: Vec<Vec<(NodeId, P::Msg)>> = vec![Vec::new(); n];
    let mut outbox: Outbox<P::Msg> = Outbox::new();
    let mut validator = SendValidator::new(n);
    for round in 0..config.max_rounds {
        sink.on_round_start(round);
        let mut any_message = false;
        for v in 0..n {
            // Quiescence fast path: a done node with no mail does not act.
            // Round 0 always runs so programs can initialize.
            if round > 0 && inboxes[v].is_empty() && programs[v].is_done() {
                continue;
            }
            for (from, msg) in &inboxes[v] {
                sink.on_deliver(round, *from, v, msg.bit_size());
            }
            outbox.clear();
            {
                let mut ctx = Ctx::new(graph, v, round, &inboxes[v], &mut outbox);
                programs[v].on_round(&mut ctx);
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
            // unobservable — an `Err` above returns immediately and all
            // engine state is discarded.
            for (&to, msg) in outbox.dsts.iter().zip(outbox.payloads.drain(..)) {
                next_inboxes[to as usize].push((v, msg));
            }
            outbox.clear();
        }
        let all_done = (0..n).all(|v| programs[v].is_done());
        // Every processed slot of `inboxes` was cleared above and skipped
        // slots were already empty, so after the swap `next_inboxes` is all
        // empty (but warm) for the round after next.
        std::mem::swap(&mut inboxes, &mut next_inboxes);
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
    #[derive(Debug, Clone)]
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
    #[derive(Debug, Clone)]
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
    #[derive(Debug, Clone)]
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

    /// The seed's per-round-allocating delivery loop, kept verbatim as the
    /// reference semantics the batched runtime must reproduce exactly.
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
            let mut batched = vec![
                MinFlood {
                    best: usize::MAX,
                    dirty: true
                };
                n
            ];
            let mut naive = batched.clone();
            let a = run(&g, &mut batched, CongestConfig::for_nodes(n)).unwrap();
            let b = run_naive(&g, &mut naive, CongestConfig::for_nodes(n)).unwrap();
            assert_eq!(a, b, "MinFlood stats diverge on n={n}");

            let mut batched = vec![Pinger3 { rounds_left: 3 }; n];
            let mut naive = batched.clone();
            let a = run(&g, &mut batched, CongestConfig::for_nodes(n)).unwrap();
            let b = run_naive(&g, &mut naive, CongestConfig::for_nodes(n)).unwrap();
            assert_eq!(a, b, "Pinger stats diverge on n={n}");
        }
    }

    /// Broadcasts for three rounds (used by the equivalence test).
    #[derive(Debug, Clone)]
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
    #[derive(Debug, Clone)]
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
    /// unhinted targeted sends, data-dependently, so the SoA engines drive
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// SoA-vs-AoS byte identity: the column-based engines (sequential
        /// and 4-thread) must match the tuple-based `run_naive` reference —
        /// stats and final program states — on irregular traffic.
        #[test]
        fn soa_engines_match_aos_reference(
            n in 4usize..48, extra in 0usize..32, seed in 0u64..1000,
        ) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let g = generators::random_connected(n, extra, &mut rng);
            let fresh: Vec<Mixer> = (0..n)
                .map(|v| Mixer { acc: v as u64 ^ seed, bursts_left: 1 + v % 4 })
                .collect();
            let mut naive = fresh.clone();
            let a = run_naive(&g, &mut naive, CongestConfig::for_nodes(n)).unwrap();
            for threads in [1usize, 4] {
                let mut soa = fresh.clone();
                let b = run(
                    &g,
                    &mut soa,
                    CongestConfig::for_nodes(n).with_threads(threads),
                )
                .unwrap();
                proptest::prop_assert_eq!(a, b, "stats diverge (threads={})", threads);
                proptest::prop_assert_eq!(
                    &naive, &soa,
                    "program states diverge (threads={})", threads
                );
            }
        }
    }

    #[test]
    fn parallel_engine_matches_sequential() {
        for g in [
            generators::cycle(16),
            generators::path(12),
            generators::grid(6, 9),
            generators::complete(9),
            generators::wheel(17),
        ] {
            let n = g.n();
            for threads in [2usize, 3, 4, 7, 0] {
                let mut seq = vec![
                    MinFlood {
                        best: usize::MAX,
                        dirty: true
                    };
                    n
                ];
                let mut par = seq.clone();
                let a = run(&g, &mut seq, CongestConfig::for_nodes(n).with_threads(1)).unwrap();
                let b = run(
                    &g,
                    &mut par,
                    CongestConfig::for_nodes(n).with_threads(threads),
                )
                .unwrap();
                assert_eq!(a, b, "MinFlood stats diverge on n={n}, threads={threads}");
                assert!(
                    seq.iter().zip(&par).all(|(x, y)| x.best == y.best),
                    "MinFlood outputs diverge on n={n}, threads={threads}"
                );
            }
        }
    }

    #[test]
    fn parallel_engine_handles_more_threads_than_nodes() {
        let g = generators::path(3);
        let mut programs = vec![
            MinFlood {
                best: usize::MAX,
                dirty: true
            };
            3
        ];
        let stats = run(
            &g,
            &mut programs,
            CongestConfig::for_nodes(3).with_threads(64),
        )
        .unwrap();
        assert!(programs.iter().all(|p| p.best == 0));
        assert!(stats.messages > 0);
    }

    #[test]
    fn error_selection_is_deterministic_across_engines() {
        // Nodes 2 and 14 both blast oversized broadcasts in round 0. The
        // sequential engine reports node 2's first send; any sharding of the
        // parallel engine must report the identical (from, to) pair even
        // though node 14 lives in a later shard that may finish first.
        let g = generators::cycle(16);
        let make = || {
            (0..16)
                .map(|v| BlastFrom {
                    active: v == 2 || v == 14,
                })
                .collect::<Vec<_>>()
        };
        let config = CongestConfig::for_nodes(16).with_bandwidth(64);
        let seq_err = run(&g, &mut make(), config.with_threads(1)).unwrap_err();
        for threads in [2usize, 3, 4, 8, 16] {
            let par_err = run(&g, &mut make(), config.with_threads(threads)).unwrap_err();
            assert_eq!(seq_err, par_err, "threads={threads}");
        }
        assert!(
            matches!(seq_err, SimError::BandwidthExceeded { from: 2, .. }),
            "{seq_err:?}"
        );
    }

    #[test]
    fn duplicate_and_non_neighbor_errors_match_across_engines() {
        let g = generators::path(8);
        let mut seq = vec![DoubleSend; 8];
        let seq_err = run(&g, &mut seq, CongestConfig::for_nodes(8).with_threads(1)).unwrap_err();
        let mut par = vec![DoubleSend; 8];
        let par_err = run(&g, &mut par, CongestConfig::for_nodes(8).with_threads(4)).unwrap_err();
        assert_eq!(seq_err, par_err);

        let mut seq = vec![Teleporter; 8];
        let seq_err = run(&g, &mut seq, CongestConfig::for_nodes(8).with_threads(1)).unwrap_err();
        let mut par = vec![Teleporter; 8];
        let par_err = run(&g, &mut par, CongestConfig::for_nodes(8).with_threads(4)).unwrap_err();
        assert_eq!(seq_err, par_err);
    }

    #[test]
    fn round_guard_fires_on_parallel_engine() {
        let g = generators::path(4);
        let mut programs = vec![Livelock; 4];
        let err = run(
            &g,
            &mut programs,
            CongestConfig::for_nodes(4)
                .with_max_rounds(10)
                .with_threads(2),
        )
        .unwrap_err();
        assert_eq!(err, SimError::MaxRoundsExceeded { limit: 10 });
    }

    #[test]
    fn with_threads_and_resolution() {
        let c = CongestConfig::for_nodes(8);
        assert_eq!(c.with_threads(3).threads, 3);
        assert_eq!(c.with_threads(3).resolved_threads(), 3);
        // `0` resolves to the machine's parallelism, which is at least 1.
        assert!(c.with_threads(0).resolved_threads() >= 1);
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
