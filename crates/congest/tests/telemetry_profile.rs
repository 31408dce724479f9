//! The telemetry reconciliation contract: a [`CongestionProfile`]'s
//! aggregates exactly reconcile with the [`RunStats`] of the run it
//! recorded (Σ per-edge messages == `stats.messages`, Σ per-edge bits ==
//! `stats.total_bits`, the max recorded message == `max_message_bits`),
//! property-tested over random graphs × programs, plus directed coverage
//! of the rejection path and the per-edge validator bound that E17's
//! analytic check leans on (≤ 2 messages per edge per round).

use proptest::prelude::*;

use minex_congest::telemetry::{self, CongestionProfile};
use minex_congest::{run, run_with_sink, CongestConfig, Ctx, NodeProgram, SimError};
use minex_graphs::{generators, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Floods the minimum id seen so far (leader election).
#[derive(Debug, Clone, PartialEq, Eq)]
struct MinFlood {
    best: usize,
    dirty: bool,
}

impl MinFlood {
    fn fresh() -> Self {
        MinFlood {
            best: usize::MAX,
            dirty: true,
        }
    }
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

/// Irregular data-dependent gossip: uneven per-node work, selective sends,
/// reawakening of done nodes — a sparse, shifting active set.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Gossip {
    acc: u64,
    bursts_left: usize,
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
    }
    fn is_done(&self) -> bool {
        self.bursts_left == 0
    }
}

/// Records one run of `fresh.clone()`; returns the profile and stats.
fn profile_run<P>(
    graph: &minex_graphs::Graph,
    fresh: &[P],
    config: CongestConfig,
) -> (CongestionProfile, minex_congest::RunStats)
where
    P: NodeProgram + Clone,
{
    let mut programs = fresh.to_vec();
    let mut profile = CongestionProfile::new();
    let stats = telemetry::record(&mut profile, || run(graph, &mut programs, config))
        .expect("run succeeds");
    (profile, stats)
}

/// The satellite reconciliation contract between a profile and the
/// `RunStats` of the runs it recorded.
fn assert_reconciles(
    profile: &CongestionProfile,
    stats: minex_congest::RunStats,
    graph: &minex_graphs::Graph,
) {
    assert_eq!(profile.total_messages(), stats.messages);
    assert_eq!(profile.total_bits(), stats.total_bits);
    assert_eq!(profile.max_message_bits(), stats.max_message_bits);
    // Per-edge and per-round decompositions re-sum to the totals.
    let edge_msgs: u64 = profile.edge_loads().iter().map(|l| l.messages).sum();
    let edge_bits: u64 = profile.edge_loads().iter().map(|l| l.bits).sum();
    assert_eq!(edge_msgs, stats.messages);
    assert_eq!(edge_bits, stats.total_bits);
    let round_msgs: u64 = profile.round_loads().iter().map(|l| l.messages).sum();
    assert_eq!(round_msgs, stats.messages);
    // Every sent message was delivered (successful runs quiesce empty).
    assert_eq!(profile.delivered(), stats.messages);
    // The profile saw the final, uncounted quiescent round too.
    assert_eq!(profile.rounds_started(), stats.rounds as u64 + 1);
    // Recorded edge ids are real, and the validator's one-message-per
    // (sender, dest)-per-round rule caps each edge at two messages (one
    // per direction) per started round — the hard bound under E17's
    // analytic quality check.
    assert!(profile.edge_loads().len() <= graph.m());
    assert!(profile.max_edge_messages() <= 2 * profile.rounds_started());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn min_flood_profile_is_engine_independent_and_reconciles(
        n in 4usize..80, extra in 0usize..60, seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_connected(n, extra, &mut rng);
        let fresh = vec![MinFlood::fresh(); n];
        let (profile, stats) = profile_run(&g, &fresh, CongestConfig::for_nodes(n));
        assert_reconciles(&profile, stats, &g);
    }

    #[test]
    fn gossip_profile_is_engine_independent_and_reconciles(
        n in 4usize..60, extra in 0usize..40, seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_connected(n, extra, &mut rng);
        let fresh: Vec<Gossip> = (0..n)
            .map(|v| Gossip { acc: v as u64, bursts_left: 1 + v % 5 })
            .collect();
        let (profile, stats) = profile_run(&g, &fresh, CongestConfig::for_nodes(n));
        assert_reconciles(&profile, stats, &g);
    }
}

/// One oversized blast from node 0 in round 0.
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
fn rejections_are_recorded_identically_on_both_engines() {
    // The scoped recorder and an explicit sink see the same failing run:
    // one rejection, and nothing after the offending send.
    let g = generators::cycle(16);
    let config = CongestConfig::for_nodes(16).with_bandwidth(64);
    let mut scoped = CongestionProfile::new();
    let mut programs = vec![Blaster; 16];
    let err = telemetry::record(&mut scoped, || run(&g, &mut programs, config))
        .expect_err("the blast must be rejected");
    assert!(matches!(err, SimError::BandwidthExceeded { from: 0, .. }));
    assert_eq!(scoped.rejections(), [err.to_string()]);
    assert_eq!(scoped.total_messages(), 0);
    assert_eq!(scoped.rounds_started(), 1);
    let mut explicit = CongestionProfile::new();
    let mut programs = vec![Blaster; 16];
    let again = run_with_sink(&g, &mut programs, config, &mut explicit).unwrap_err();
    assert_eq!(err, again);
    assert_eq!(scoped.render(), explicit.render());
}

#[test]
fn explicit_sink_matches_scoped_recording() {
    let g = generators::grid(5, 7);
    let n = g.n();
    let config = CongestConfig::for_nodes(n);
    let mut scoped = CongestionProfile::new();
    let mut programs = vec![MinFlood::fresh(); n];
    let a = telemetry::record(&mut scoped, || run(&g, &mut programs, config)).unwrap();
    let mut explicit = CongestionProfile::new();
    let mut programs = vec![MinFlood::fresh(); n];
    let b = run_with_sink(&g, &mut programs, config, &mut explicit).unwrap();
    assert_eq!(a, b);
    assert_eq!(scoped, explicit);
    assert_eq!(scoped.render(), explicit.render());
}

#[test]
fn profile_accumulates_across_runs_in_one_scope() {
    let g = generators::path(6);
    let config = CongestConfig::for_nodes(6);
    let mut profile = CongestionProfile::new();
    let (a, b) = telemetry::record(&mut profile, || {
        let mut programs = vec![MinFlood::fresh(); 6];
        let a = run(&g, &mut programs, config).unwrap();
        let mut programs = vec![MinFlood::fresh(); 6];
        let b = run(&g, &mut programs, config).unwrap();
        (a, b)
    });
    assert_eq!(profile.total_messages(), a.messages + b.messages);
    assert_eq!(
        profile.rounds_started(),
        (a.rounds + b.rounds) as u64 + 2,
        "both runs' quiescent rounds are counted"
    );
}
