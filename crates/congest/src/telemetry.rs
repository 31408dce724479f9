//! Congestion telemetry: an event-sink instrumentation layer for the
//! round loop.
//!
//! The CONGEST cost model is *about* congestion, yet [`RunStats`] only
//! reports end-of-run aggregates. This module adds a zero-cost-when-off
//! observability layer: the [`Sink`] trait receives events from the
//! round loop (round boundaries, every validated send, every delivery,
//! validator rejections) and from phase-structured drivers
//! (phase span enter/exit), and [`CongestionProfile`] is the recorder
//! implementation that accumulates per-edge congestion, per-round message
//! histograms, and per-phase attribution.
//!
//! ## Zero cost when off
//!
//! [`crate::run`] is instrumented with [`NoopSink`], whose hooks are empty
//! `#[inline]` defaults — the round loop monomorphizes to exactly the
//! uninstrumented code (a timing guard in `tests/sink_overhead.rs` holds
//! the observable overhead under 2%). Recording is opt-in per call: either
//! pass a sink explicitly to [`crate::run_with_sink`], or scope a profile
//! over unmodified `run` call sites with [`record`].
//!
//! ## Determinism contract
//!
//! A [`CongestionProfile`] is a function of the graph, the programs and
//! the config alone: the round loop fires its events in a fixed order
//! (see [`Sink`]), and every counter is a sum, max, or round-indexed sum
//! of per-event contributions. [`CongestionProfile::render`] is the
//! canonical byte-comparable form. A failing run records the events up to
//! the offending send, then the one deterministically chosen rejection.

use std::cell::RefCell;
use std::fmt;

use minex_graphs::{EdgeId, NodeId};

use crate::runtime::{RunStats, SimError};

/// A structured phase identity: what the display label `"mst phase 3:
/// candidate"` encodes, without string splitting.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct PhaseLabel {
    /// The algorithm or driver (`"mst"`, `"sssp-shortcut"`, `"partwise"`).
    pub phase: String,
    /// The step within it (`"candidate"`, `"relax"`, `"flood"`).
    pub subphase: String,
    /// The iteration number for phased drivers (Borůvka phase, overlay
    /// phase), if any.
    pub attempt: Option<usize>,
}

impl PhaseLabel {
    /// A label with no iteration counter.
    pub fn new(phase: impl Into<String>, subphase: impl Into<String>) -> Self {
        PhaseLabel {
            phase: phase.into(),
            subphase: subphase.into(),
            attempt: None,
        }
    }

    /// Attaches an iteration counter.
    #[must_use]
    pub fn with_attempt(mut self, attempt: usize) -> Self {
        self.attempt = Some(attempt);
        self
    }
}

impl fmt::Display for PhaseLabel {
    /// Canonical compact form: `phase/subphase` or `phase/subphase#attempt`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.phase, self.subphase)?;
        if let Some(a) = self.attempt {
            write!(f, "#{a}")?;
        }
        Ok(())
    }
}

/// An event sink wired into the round loop.
///
/// All event hooks default to no-ops, so a sink implements only what it
/// cares about.
///
/// Hook order on a successful run, per round `r`: `on_round_start(r)`,
/// then per visited node in ascending id order `on_deliver` for each inbox
/// message followed by `on_send` for each validated outbox message, then
/// `on_round_end(r)`. A round visits every node in round 0 and afterwards
/// only the active ones (see [`crate::run`]); a node that is skipped has no
/// mail and sends nothing, so it would fire no event anyway.
pub trait Sink: Sized {
    /// A synchronous round is starting.
    #[inline]
    fn on_round_start(&mut self, round: usize) {
        let _ = round;
    }

    /// The round's node loop has completed (fires even for the final,
    /// quiescent round that [`RunStats::rounds`] does not count).
    #[inline]
    fn on_round_end(&mut self, round: usize) {
        let _ = round;
    }

    /// A message passed validation and was enqueued on edge `edge`.
    #[inline]
    fn on_send(&mut self, round: usize, from: NodeId, to: NodeId, edge: EdgeId, bits: usize) {
        let _ = (round, from, to, edge, bits);
    }

    /// A message from the previous round is being consumed by `to`.
    #[inline]
    fn on_deliver(&mut self, round: usize, from: NodeId, to: NodeId, bits: usize) {
        let _ = (round, from, to, bits);
    }

    /// The run failed; `error` is the deterministically selected violation.
    #[inline]
    fn on_reject(&mut self, error: &SimError) {
        let _ = error;
    }

    /// A driver-level phase span opened (fired by phase-structured callers
    /// such as `minex-algo`'s `Solver`, not by the round loop).
    #[inline]
    fn on_phase_enter(&mut self, label: &PhaseLabel) {
        let _ = label;
    }

    /// The phase span closed; `stats` is the span's simulator cost and
    /// `repeats` its analytic repetition charge.
    #[inline]
    fn on_phase_exit(&mut self, label: &PhaseLabel, stats: RunStats, repeats: usize) {
        let _ = (label, stats, repeats);
    }
}

/// The default sink: every hook is an empty inline no-op, so the round
/// loop instrumented with it compiles to the uninstrumented one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl Sink for NoopSink {}

/// Load carried by one edge (both directions pooled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeLoad {
    /// Messages that crossed the edge.
    pub messages: u64,
    /// Total bits that crossed the edge.
    pub bits: u64,
}

/// Messages sent in one round (summed across recorded runs by round index).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundLoad {
    /// Messages enqueued during the round.
    pub messages: u64,
    /// Bits enqueued during the round.
    pub bits: u64,
}

/// One closed phase span, with wire-level attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpan {
    /// The structured label.
    pub label: PhaseLabel,
    /// The span's simulator cost as reported by the driver.
    pub stats: RunStats,
    /// Analytic repetition charge (see `RunStats::repeated`).
    pub repeats: usize,
    /// Messages recorded by this profile while the span was open.
    pub wire_messages: u64,
    /// Bits recorded by this profile while the span was open.
    pub wire_bits: u64,
}

/// The recorder: accumulates per-edge congestion, per-round histograms,
/// totals, phase spans, and rejections across one or more runs.
///
/// Install it over unmodified [`crate::run`] call sites with [`record`],
/// or pass it to [`crate::run_with_sink`] directly. See the module docs
/// for the determinism contract.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CongestionProfile {
    edges: Vec<EdgeLoad>,
    rounds: Vec<RoundLoad>,
    phases: Vec<PhaseSpan>,
    /// Open phase spans: (label, wire messages at enter, wire bits at enter).
    open: Vec<(PhaseLabel, u64, u64)>,
    rejections: Vec<String>,
    messages: u64,
    total_bits: u64,
    max_message_bits: usize,
    delivered: u64,
    rounds_started: u64,
}

impl CongestionProfile {
    /// An empty profile.
    pub fn new() -> Self {
        CongestionProfile::default()
    }

    /// Total messages recorded (reconciles with summed `RunStats::messages`).
    pub fn total_messages(&self) -> u64 {
        self.messages
    }

    /// Total bits recorded (reconciles with summed `RunStats::total_bits`).
    pub fn total_bits(&self) -> u64 {
        self.total_bits
    }

    /// Largest single recorded message, in bits.
    pub fn max_message_bits(&self) -> usize {
        self.max_message_bits
    }

    /// Messages consumed by their recipients. On a successful run every
    /// sent message is delivered in the next round, so this equals
    /// [`total_messages`](Self::total_messages).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Rounds started across all recorded runs (counts the final quiescent
    /// round that `RunStats::rounds` excludes).
    pub fn rounds_started(&self) -> u64 {
        self.rounds_started
    }

    /// Per-edge load, indexed by [`EdgeId`]. Edges past the last one that
    /// carried a message are not materialized.
    pub fn edge_loads(&self) -> &[EdgeLoad] {
        &self.edges
    }

    /// Per-round send histogram, indexed by round (summed across runs).
    pub fn round_loads(&self) -> &[RoundLoad] {
        &self.rounds
    }

    /// Closed phase spans, in close order.
    pub fn phases(&self) -> &[PhaseSpan] {
        &self.phases
    }

    /// Rendered rejection events, in occurrence order.
    pub fn rejections(&self) -> &[String] {
        &self.rejections
    }

    /// The maximum number of messages any single edge carried — the
    /// *observed* congestion that E17 checks against the plan's analytic
    /// quality bound.
    pub fn max_edge_messages(&self) -> u64 {
        self.edges.iter().map(|e| e.messages).max().unwrap_or(0)
    }

    /// The `k` busiest links as `(edge, load)`, ordered by descending
    /// message count with edge id as the deterministic tie-break.
    pub fn hot_links(&self, k: usize) -> Vec<(EdgeId, EdgeLoad)> {
        let mut loaded: Vec<(EdgeId, EdgeLoad)> = self
            .edges
            .iter()
            .enumerate()
            .filter(|(_, l)| l.messages > 0)
            .map(|(e, &l)| (e, l))
            .collect();
        loaded.sort_by(|a, b| b.1.messages.cmp(&a.1.messages).then(a.0.cmp(&b.0)));
        loaded.truncate(k);
        loaded
    }

    /// The canonical byte-comparable rendering: one line per counter, edge,
    /// round, phase, and rejection, in a fixed order. Two profiles render
    /// identically iff they are equal, so this is what the determinism
    /// tests compare.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "totals messages={} bits={} max_bits={} delivered={} rounds_started={}",
            self.messages,
            self.total_bits,
            self.max_message_bits,
            self.delivered,
            self.rounds_started
        );
        for (e, load) in self.edges.iter().enumerate() {
            if load.messages > 0 {
                let _ = writeln!(
                    out,
                    "edge {e} messages={} bits={}",
                    load.messages, load.bits
                );
            }
        }
        for (r, load) in self.rounds.iter().enumerate() {
            if load.messages > 0 {
                let _ = writeln!(
                    out,
                    "round {r} messages={} bits={}",
                    load.messages, load.bits
                );
            }
        }
        for span in &self.phases {
            let _ = writeln!(
                out,
                "phase {} repeats={} rounds={} messages={} bits={} wire_messages={} wire_bits={}",
                span.label,
                span.repeats,
                span.stats.rounds,
                span.stats.messages,
                span.stats.total_bits,
                span.wire_messages,
                span.wire_bits
            );
        }
        for r in &self.rejections {
            let _ = writeln!(out, "reject {r}");
        }
        out
    }

    /// Folds another profile's counters into this one (used by session
    /// aggregation).
    pub fn absorb(&mut self, other: &CongestionProfile) {
        if self.edges.len() < other.edges.len() {
            self.edges.resize(other.edges.len(), EdgeLoad::default());
        }
        for (mine, theirs) in self.edges.iter_mut().zip(&other.edges) {
            mine.messages += theirs.messages;
            mine.bits += theirs.bits;
        }
        if self.rounds.len() < other.rounds.len() {
            self.rounds.resize(other.rounds.len(), RoundLoad::default());
        }
        for (mine, theirs) in self.rounds.iter_mut().zip(&other.rounds) {
            mine.messages += theirs.messages;
            mine.bits += theirs.bits;
        }
        self.phases.extend(other.phases.iter().cloned());
        self.rejections.extend(other.rejections.iter().cloned());
        self.messages += other.messages;
        self.total_bits += other.total_bits;
        self.max_message_bits = self.max_message_bits.max(other.max_message_bits);
        self.delivered += other.delivered;
        self.rounds_started += other.rounds_started;
    }

    fn edge_slot(&mut self, edge: EdgeId) -> &mut EdgeLoad {
        if edge >= self.edges.len() {
            self.edges.resize(edge + 1, EdgeLoad::default());
        }
        &mut self.edges[edge]
    }

    fn round_slot(&mut self, round: usize) -> &mut RoundLoad {
        if round >= self.rounds.len() {
            self.rounds.resize(round + 1, RoundLoad::default());
        }
        &mut self.rounds[round]
    }
}

impl Sink for CongestionProfile {
    #[inline]
    fn on_round_start(&mut self, _round: usize) {
        self.rounds_started += 1;
    }

    #[inline]
    fn on_send(&mut self, round: usize, _from: NodeId, _to: NodeId, edge: EdgeId, bits: usize) {
        self.messages += 1;
        self.total_bits += bits as u64;
        self.max_message_bits = self.max_message_bits.max(bits);
        let slot = self.edge_slot(edge);
        slot.messages += 1;
        slot.bits += bits as u64;
        let slot = self.round_slot(round);
        slot.messages += 1;
        slot.bits += bits as u64;
    }

    #[inline]
    fn on_deliver(&mut self, _round: usize, _from: NodeId, _to: NodeId, _bits: usize) {
        self.delivered += 1;
    }

    fn on_reject(&mut self, error: &SimError) {
        self.rejections.push(error.to_string());
    }

    fn on_phase_enter(&mut self, label: &PhaseLabel) {
        self.open
            .push((label.clone(), self.messages, self.total_bits));
    }

    fn on_phase_exit(&mut self, label: &PhaseLabel, stats: RunStats, repeats: usize) {
        // Unmatched exits (no open span) still record, with zero wire delta.
        let (open_label, msgs0, bits0) = self
            .open
            .pop()
            .unwrap_or_else(|| (label.clone(), self.messages, self.total_bits));
        debug_assert_eq!(open_label, *label, "phase spans must nest");
        self.phases.push(PhaseSpan {
            label: label.clone(),
            stats,
            repeats,
            wire_messages: self.messages - msgs0,
            wire_bits: self.total_bits - bits0,
        });
    }
}

thread_local! {
    /// The profile installed by [`record`], taken by each run (see
    /// [`crate::Simulator::run`]) for the duration of the simulation.
    static ACTIVE: RefCell<Option<CongestionProfile>> = const { RefCell::new(None) };
}

/// Records every [`crate::run`] and [`Simulator::run`](crate::Simulator::run)
/// call made by `f` on this thread into `profile`, without touching the
/// call sites — each run checks for an installed profile once and
/// dispatches to its instrumented monomorphization.
///
/// Nested `record` scopes shadow the outer profile for their extent. If
/// `f` panics, events recorded during `f` are lost (the profile is left as
/// it was on entry); the panic propagates.
///
/// # Examples
///
/// ```
/// use minex_congest::telemetry::{self, CongestionProfile};
/// use minex_congest::{primitives, CongestConfig};
/// use minex_graphs::generators;
///
/// let g = generators::grid(4, 4);
/// let mut profile = CongestionProfile::new();
/// let tree = telemetry::record(&mut profile, || {
///     primitives::build_bfs_tree(&g, 0, CongestConfig::for_nodes(g.n()))
/// })?;
/// assert_eq!(tree.stats.messages, profile.total_messages());
/// assert!(profile.max_edge_messages() > 0);
/// # Ok::<(), minex_congest::SimError>(())
/// ```
pub fn record<R>(profile: &mut CongestionProfile, f: impl FnOnce() -> R) -> R {
    let prev = ACTIVE.with(|cell| cell.borrow_mut().replace(std::mem::take(profile)));
    let out = f();
    let current = ACTIVE.with(|cell| std::mem::replace(&mut *cell.borrow_mut(), prev));
    *profile = current.unwrap_or_default();
    out
}

/// Takes the installed profile (if any) out of the thread-local slot; the
/// engine holds it for the duration of one run.
pub(crate) fn take_active() -> Option<CongestionProfile> {
    ACTIVE.with(|cell| cell.borrow_mut().take())
}

/// Returns the profile after a run. A nested `record` inside a node
/// program cannot observe the slot mid-run (the engine holds the profile),
/// which keeps re-entrancy well-defined.
pub(crate) fn put_active(profile: CongestionProfile) {
    ACTIVE.with(|cell| *cell.borrow_mut() = Some(profile));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_label_renders_compactly() {
        assert_eq!(
            PhaseLabel::new("mst", "candidate").to_string(),
            "mst/candidate"
        );
        assert_eq!(
            PhaseLabel::new("mst", "candidate")
                .with_attempt(3)
                .to_string(),
            "mst/candidate#3"
        );
    }

    #[test]
    fn profile_accumulates_sends() {
        let mut p = CongestionProfile::new();
        p.on_round_start(0);
        p.on_send(0, 0, 1, 7, 32);
        p.on_send(0, 1, 0, 7, 16);
        p.on_send(0, 2, 3, 2, 64);
        p.on_round_end(0);
        p.on_round_start(1);
        p.on_deliver(1, 0, 1, 32);
        p.on_round_end(1);
        assert_eq!(p.total_messages(), 3);
        assert_eq!(p.total_bits(), 112);
        assert_eq!(p.max_message_bits(), 64);
        assert_eq!(p.delivered(), 1);
        assert_eq!(p.rounds_started(), 2);
        assert_eq!(p.max_edge_messages(), 2);
        assert_eq!(
            p.hot_links(1),
            vec![(
                7,
                EdgeLoad {
                    messages: 2,
                    bits: 48
                }
            )]
        );
        assert_eq!(p.round_loads()[0].messages, 3);
    }

    #[test]
    fn hot_links_tie_breaks_by_edge_id() {
        let mut p = CongestionProfile::new();
        p.on_send(0, 0, 1, 9, 8);
        p.on_send(0, 1, 2, 4, 8);
        let hot = p.hot_links(8);
        assert_eq!(hot.iter().map(|&(e, _)| e).collect::<Vec<_>>(), vec![4, 9]);
    }

    #[test]
    fn phase_spans_attribute_wire_deltas() {
        let mut p = CongestionProfile::new();
        let label = PhaseLabel::new("demo", "flood").with_attempt(1);
        p.on_phase_enter(&label);
        p.on_send(0, 0, 1, 0, 8);
        p.on_send(1, 1, 0, 0, 8);
        let stats = RunStats {
            rounds: 2,
            messages: 2,
            max_message_bits: 8,
            total_bits: 16,
        };
        p.on_phase_exit(&label, stats, 3);
        assert_eq!(p.phases().len(), 1);
        let span = &p.phases()[0];
        assert_eq!(span.label, label);
        assert_eq!(span.repeats, 3);
        assert_eq!(span.wire_messages, 2);
        assert_eq!(span.wire_bits, 16);
    }

    #[test]
    fn render_is_canonical() {
        let mut p = CongestionProfile::new();
        p.on_round_start(0);
        p.on_send(0, 0, 1, 1, 8);
        let mut q = p.clone();
        assert_eq!(p.render(), q.render());
        q.on_send(1, 1, 0, 1, 8);
        assert_ne!(p.render(), q.render());
        assert!(p.render().starts_with("totals messages=1"));
    }

    #[test]
    fn record_restores_nested_scopes() {
        let mut outer = CongestionProfile::new();
        let mut inner = CongestionProfile::new();
        record(&mut outer, || {
            assert!(take_active().is_some());
            put_active(CongestionProfile::new());
            record(&mut inner, || {
                let p = take_active().expect("inner installed");
                let mut p2 = p;
                p2.on_send(0, 0, 1, 0, 8);
                put_active(p2);
            });
        });
        assert_eq!(inner.total_messages(), 1);
        assert_eq!(outer.total_messages(), 0);
        assert!(take_active().is_none());
    }
}
