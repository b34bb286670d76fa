//! Gossip mirroring for simulation runs.
//!
//! When a [`crate::runner::NodeRunConfig`] enables gossip, the run's
//! gateway records every accepted transaction in its broadcast outbox
//! ([`biot_core::node::Gateway::take_broadcasts`]); a [`GossipMirror`]
//! drains that outbox into a primary [`GossipNode`] and syncs it to a
//! replica over a jittered in-memory link on the run's virtual clock.
//! The gateway's credit events ride the same link as `CreditEvents`
//! frames; the replica folds them into its own [`CreditLedger`]. The run
//! then reports whether the replica converged to the identical DAG —
//! tips and cumulative weights — **and** to the identical credit state
//! (hence identical difficulty) in its [`GossipSummary`].
//!
//! Everything is seeded and driven by virtual time, so gossip-enabled
//! runs stay exactly as deterministic as plain ones.

use biot_credit::{CreditEvent, CreditLedger, CreditParams};
use biot_gossip::node::{GossipConfig, GossipNode};
use biot_gossip::transport::{JitterTransport, MemTransport, VirtualClock};
use biot_net::latency::UniformLatency;
use biot_net::time::SimTime;
use biot_tangle::graph::Tangle;
use biot_tangle::tx::Transaction;
use serde::{Deserialize, Serialize};

/// Gossip settings for a simulation run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GossipSimConfig {
    /// Uniform one-way link latency range `(min_ms, max_ms)`.
    pub jitter_ms: (u64, u64),
    /// Seed for the link jitter (independent of the run seed so the two
    /// can be varied separately).
    pub seed: u64,
    /// Anti-entropy interval for both gossip nodes, ms.
    pub anti_entropy_ms: u64,
}

impl Default for GossipSimConfig {
    fn default() -> Self {
        Self {
            jitter_ms: (5, 60),
            seed: 7,
            anti_entropy_ms: 500,
        }
    }
}

/// What the gossip layer achieved during a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GossipSummary {
    /// Transactions held by the primary (mirror of the gateway ledger).
    pub primary_len: usize,
    /// Transactions the replica converged to.
    pub replica_len: usize,
    /// Replica tip set identical to the gateway's.
    pub tips_match: bool,
    /// Replica cumulative weights identical for every transaction.
    pub weights_match: bool,
    /// Replica credit ledger agrees with the gateway's on every node's
    /// `(CrP, CrN, Cr)` breakdown at run end — and therefore on the
    /// difficulty any deterministic policy derives from it.
    pub credit_match: bool,
    /// Credit events the replica folded into its ledger.
    pub replica_credit_events: u64,
    /// Gossip poll rounds executed (run + settle phases).
    pub rounds: u64,
    /// Outbox transactions the mirror failed to attach (always 0 in a
    /// healthy run).
    pub mirror_rejects: u64,
}

/// Drives a primary/replica gossip pair alongside a simulation run.
#[derive(Debug)]
pub struct GossipMirror {
    primary: GossipNode,
    replica: GossipNode,
    /// The replica's view of credit, rebuilt purely from gossiped events.
    replica_ledger: CreditLedger,
    /// Credit events broadcast so far (settle target for the replica).
    events_sent: u64,
    clock: VirtualClock,
    rounds: u64,
    mirror_rejects: u64,
}

impl GossipMirror {
    /// Builds the pair, joined by a jittered in-memory link. The replica
    /// ledger uses `credit_params` — pass the gateway's, or the two sides
    /// would disagree by construction.
    pub fn new(cfg: &GossipSimConfig, credit_params: CreditParams) -> Self {
        let clock = VirtualClock::new();
        let node_cfg = GossipConfig {
            anti_entropy_ms: cfg.anti_entropy_ms,
            ..GossipConfig::default()
        };
        let mut primary = GossipNode::with_empty_tangle(node_cfg.clone());
        let mut replica = GossipNode::with_empty_tangle(node_cfg);
        let (end_a, end_b, _link) = MemTransport::pair();
        let model = UniformLatency::new(cfg.jitter_ms.0, cfg.jitter_ms.1);
        primary.add_transport(
            Box::new(JitterTransport::new(
                Box::new(end_a),
                Box::new(model),
                cfg.seed,
                clock.clone(),
            )),
            0,
        );
        replica.add_transport(
            Box::new(JitterTransport::new(
                Box::new(end_b),
                Box::new(model),
                cfg.seed ^ 0x5A5A_5A5A,
                clock.clone(),
            )),
            0,
        );
        Self {
            primary,
            replica,
            replica_ledger: CreditLedger::new(credit_params),
            events_sent: 0,
            clock,
            rounds: 0,
            mirror_rejects: 0,
        }
    }

    /// Mirrors freshly accepted gateway transactions onto the primary
    /// (relaying them to the replica), relays the gateway's credit
    /// events the same way, and advances both nodes to `now_ms`.
    pub fn step(&mut self, broadcasts: Vec<Transaction>, credit_events: &[CreditEvent], now_ms: u64) {
        self.clock.set(now_ms);
        for tx in broadcasts {
            if self.primary.attach_local(tx, now_ms).is_err() {
                self.mirror_rejects += 1;
            }
        }
        self.primary.broadcast_credit_events(credit_events, now_ms);
        self.events_sent += credit_events.len() as u64;
        self.primary.poll(now_ms);
        self.replica.poll(now_ms);
        self.drain_replica_credit();
        self.rounds += 1;
    }

    /// Folds everything the replica has received into its credit ledger.
    /// The ledger accepts events in any arrival order, so link jitter
    /// cannot change the resulting credit state.
    fn drain_replica_credit(&mut self) {
        for ev in self.replica.take_credit_events() {
            self.replica_ledger.apply(&ev);
        }
    }

    /// Lets in-flight gossip settle, then scores the replica against the
    /// gateway's authoritative tangle and credit ledger.
    pub fn finish(mut self, authoritative: &Tangle, credit: &CreditLedger, mut now_ms: u64) -> GossipSummary {
        let target = self.primary.tangle().lock().unwrap().len();
        for _ in 0..20_000u32 {
            let done = self.replica.tangle().lock().unwrap().len() == target
                && self.replica.pending_len() == 0
                && self.replica_ledger.events_applied() == self.events_sent;
            if done {
                break;
            }
            now_ms += 25;
            self.clock.set(now_ms);
            self.primary.poll(now_ms);
            self.replica.poll(now_ms);
            self.drain_replica_credit();
            self.rounds += 1;
        }
        let primary = self.primary.tangle().lock().unwrap();
        let replica = self.replica.tangle().lock().unwrap();
        let tips_match =
            replica.tips() == authoritative.tips() && primary.tips() == authoritative.tips();
        let weights_match = authoritative.iter().all(|tx| {
            let id = tx.id();
            replica.cumulative_weight(&id) == authoritative.cumulative_weight(&id)
        });
        // Exact equality is intentional: gossiped weights are whole
        // numbers, so both ledgers compute bit-identical breakdowns no
        // matter what order the events arrived in.
        let probe = SimTime::from_millis(now_ms);
        let mut nodes: Vec<_> = credit.known_nodes().copied().collect();
        nodes.extend(self.replica_ledger.known_nodes().copied());
        nodes.sort();
        nodes.dedup();
        let credit_match = nodes.iter().all(|&n| {
            let a = credit.credit_of(n, probe);
            let b = self.replica_ledger.credit_of(n, probe);
            a.positive == b.positive && a.negative == b.negative && a.combined == b.combined
        });
        GossipSummary {
            primary_len: primary.len(),
            replica_len: replica.len(),
            tips_match,
            weights_match,
            credit_match,
            replica_credit_events: self.replica_ledger.events_applied(),
            rounds: self.rounds,
            mirror_rejects: self.mirror_rejects,
        }
    }
}
