//! Node programs: the per-node state machines executed by the runtime.

use minex_graphs::{EdgeId, Graph, NodeId};

use crate::message::Payload;
use crate::soa::Outbox;

/// The per-round view a node program gets of its surroundings.
///
/// A node knows: its own id, the current round number, its incident edges
/// (ids and the neighbor on the other side — "ports" in the CONGEST model),
/// and the messages that arrived this round. It acts by calling
/// [`send`](Ctx::send) / [`send_via`](Ctx::send_via) /
/// [`broadcast`](Ctx::broadcast).
#[derive(Debug)]
pub struct Ctx<'a, M: Payload> {
    graph: &'a Graph,
    node: NodeId,
    round: usize,
    inbox: &'a [(NodeId, M)],
    outbox: &'a mut Outbox<M>,
}

impl<'a, M: Payload> Ctx<'a, M> {
    pub(crate) fn new(
        graph: &'a Graph,
        node: NodeId,
        round: usize,
        inbox: &'a [(NodeId, M)],
        outbox: &'a mut Outbox<M>,
    ) -> Self {
        Ctx {
            graph,
            node,
            round,
            inbox,
            outbox,
        }
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The current round (starting from 0).
    pub fn round(&self) -> usize {
        self.round
    }

    /// Messages delivered this round, as `(sender, message)` pairs.
    pub fn inbox(&self) -> &[(NodeId, M)] {
        self.inbox
    }

    /// This node's neighbors, as `(neighbor, edge id)` pairs.
    pub fn neighbors(&self) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        self.graph
            .neighbor_targets(self.node)
            .iter()
            .zip(self.graph.neighbor_edge_ids(self.node))
            .map(|(&w, &e)| (w as NodeId, e as EdgeId))
    }

    /// This node's neighbors as the raw sorted CSR slice — the
    /// allocation-free "port list" for hot per-round loops.
    pub fn neighbor_targets(&self) -> &[u32] {
        self.graph.neighbor_targets(self.node)
    }

    /// Degree of this node.
    pub fn degree(&self) -> usize {
        self.graph.degree(self.node)
    }

    /// Queues `msg` for delivery to `to` next round. The runtime validates
    /// neighborship, per-edge uniqueness, and bandwidth after the callback
    /// returns.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push(to, msg);
    }

    /// [`send`](Self::send) over a known edge: `edge` is the id of the edge
    /// between this node and `to`, as [`neighbors`](Self::neighbors)
    /// reports it. The unicast twin of [`broadcast`](Self::broadcast)'s
    /// hint — the validator takes the id instead of looking the edge up, so
    /// a hot per-link loop skips one `edge_between` search per message.
    /// Per-edge uniqueness and bandwidth are checked as for `send`, but
    /// neighborship rests on the id: a wrong `edge` is a program bug, which
    /// debug builds catch by asserting it against `edge_between`.
    pub fn send_via(&mut self, to: NodeId, edge: EdgeId, msg: M) {
        self.outbox.push_via(to, edge, msg);
    }

    /// Sends `msg` to every neighbor, walking the CSR row directly (no
    /// intermediate target buffer). The row's targets and edge ids memcpy
    /// straight into the outbox id columns; the edge ids double as
    /// validation hints, so broadcast messages skip the per-message
    /// `edge_between` lookup in the validation sweep.
    pub fn broadcast(&mut self, msg: M) {
        let targets = self.graph.neighbor_targets(self.node);
        self.outbox.dsts.extend_from_slice(targets);
        self.outbox
            .hints
            .extend_from_slice(self.graph.neighbor_edge_ids(self.node));
        self.outbox
            .payloads
            .extend(std::iter::repeat_with(|| msg.clone()).take(targets.len()));
    }
}

/// A distributed algorithm, from one node's point of view.
///
/// The runtime calls [`on_round`](Self::on_round) every round (round 0 acts
/// as initialization; the inbox is empty then). A node that is
/// [`is_done`](Self::is_done) *and* has an empty inbox is skipped — it can be
/// reawakened by incoming messages. The run terminates when every node is
/// done and no messages are in flight.
pub trait NodeProgram {
    /// The message type exchanged by this algorithm.
    type Msg: Payload;

    /// One synchronous round: read `ctx.inbox()`, update local state, send.
    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>);

    /// Whether this node currently has nothing more to do.
    fn is_done(&self) -> bool;
}
