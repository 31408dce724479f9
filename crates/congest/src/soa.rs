//! Struct-of-arrays message buffers for the round-loop hot paths.
//!
//! The engines used to move `Vec<(NodeId, M)>` (and triples of the same
//! shape) between the outbox, the shard send buffers, and the delivery
//! buckets. For small payloads the tuple layout interleaves ids and
//! payloads, so the validation sweep and the shard merge — which only look
//! at the *ids* — stride over payload bytes they never read. These types
//! split every buffer into parallel columns: the id columns are dense
//! `u32` arrays the sweeps can walk branch-light (and the compiler can
//! vectorize), and the payload column is only touched by the final move
//! into the per-node inboxes.
//!
//! Per-node *inboxes* deliberately stay `Vec<(NodeId, M)>`: `Ctx::inbox()`
//! exposes `&[(NodeId, M)]` publicly, and per-node fan-in is small — the
//! SoA win is in the per-round aggregate buffers, which see every message
//! of the round.
//!
//! [`Outbox`] additionally carries an *edge-id hint* column:
//! `Ctx::broadcast` walks the CSR row, so it knows the edge id of every
//! target already, and `Ctx::send_via` passes the id a program read from
//! its port list; either way the validator can skip the per-message
//! `edge_between` binary search ([`NO_HINT`] marks plain `send`s, which
//! still pay the lookup). Hints never change observable behaviour — a hint
//! is only ever the edge id `edge_between` would have found — and the
//! naive AoS reference in the runtime tests re-validates them against
//! `edge_between` on every message.
//!
//! Node ids in columns are `u32` (the graph core caps `n < 2^32`); a
//! destination id that does not even fit `u32` is clamped to `u32::MAX`,
//! which no graph can have as a node, so it still fails validation as the
//! not-a-neighbor it is.

use minex_graphs::{EdgeId, NodeId};

/// Hint-column sentinel: "sender did not know the edge id, look it up".
pub(crate) const NO_HINT: u32 = u32::MAX;

/// Clamps a program-supplied destination into the `u32` id column.
#[inline]
fn clamp_id(v: NodeId) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

/// One node's queued sends for the current round, as parallel columns.
#[derive(Debug)]
pub(crate) struct Outbox<M> {
    /// Destination node ids.
    pub(crate) dsts: Vec<u32>,
    /// CSR edge-id hints aligned with `dsts` ([`NO_HINT`] = unknown).
    pub(crate) hints: Vec<u32>,
    /// Payloads aligned with `dsts`.
    pub(crate) payloads: Vec<M>,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Outbox<M> {
    pub(crate) fn new() -> Self {
        Outbox {
            dsts: Vec::new(),
            hints: Vec::new(),
            payloads: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.dsts.len()
    }

    /// Empties the id columns (payloads are drained by the consumer, but
    /// clearing is idempotent and keeps the buffers warm).
    pub(crate) fn clear(&mut self) {
        self.dsts.clear();
        self.hints.clear();
        self.payloads.clear();
    }

    /// Queues one targeted send with no edge hint.
    #[inline]
    pub(crate) fn push(&mut self, to: NodeId, msg: M) {
        self.push_hinted(to, NO_HINT, msg);
    }

    /// Queues one targeted send whose edge id the sender already knows
    /// (an id that does not fit the `u32` column degrades to [`NO_HINT`]).
    #[inline]
    pub(crate) fn push_via(&mut self, to: NodeId, edge: EdgeId, msg: M) {
        self.push_hinted(to, u32::try_from(edge).unwrap_or(NO_HINT), msg);
    }

    #[inline]
    fn push_hinted(&mut self, to: NodeId, hint: u32, msg: M) {
        self.dsts.push(clamp_id(to));
        self.hints.push(hint);
        self.payloads.push(msg);
    }
}

/// A shard's validated sends of one round: `(src, dst, payload)` columns in
/// (sender id, outbox position) order — ready for the coordinator's
/// id-order merge sweep.
#[derive(Debug)]
pub(crate) struct SendColumns<M> {
    pub(crate) srcs: Vec<u32>,
    pub(crate) dsts: Vec<u32>,
    pub(crate) payloads: Vec<M>,
}

impl<M> Default for SendColumns<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> SendColumns<M> {
    pub(crate) fn new() -> Self {
        SendColumns {
            srcs: Vec::new(),
            dsts: Vec::new(),
            payloads: Vec::new(),
        }
    }

    pub(crate) fn clear(&mut self) {
        self.srcs.clear();
        self.dsts.clear();
        self.payloads.clear();
    }
}

/// One shard's incoming mail for a round: `(local index, sender, payload)`
/// columns in global ascending-sender order.
#[derive(Debug)]
pub(crate) struct DeliveryColumns<M> {
    pub(crate) locals: Vec<u32>,
    pub(crate) srcs: Vec<u32>,
    pub(crate) payloads: Vec<M>,
}

impl<M> Default for DeliveryColumns<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> DeliveryColumns<M> {
    pub(crate) fn new() -> Self {
        DeliveryColumns {
            locals: Vec::new(),
            srcs: Vec::new(),
            payloads: Vec::new(),
        }
    }

    pub(crate) fn clear(&mut self) {
        self.locals.clear();
        self.srcs.clear();
        self.payloads.clear();
    }

    #[inline]
    pub(crate) fn push(&mut self, local: usize, src: NodeId, msg: M) {
        self.locals.push(local as u32);
        self.srcs.push(src as u32);
        self.payloads.push(msg);
    }
}
