//! Networked multi-gateway simulation: the full §IV-A architecture on the
//! discrete-event kernel.
//!
//! Several gateways replicate the tangle by gossiping transactions over
//! `biot-net`'s lossy, partitionable links; light nodes submit to their
//! nearest gateway and fail over when it dies. This is the layer the
//! single-node runner (Figs 8–9) deliberately omits, and what backs the
//! resilience experiments: messages can be lost, delayed, or blocked, and
//! replicas must still converge.

use biot_credit::Misbehavior;
use biot_core::difficulty::InverseProportionalPolicy;
use biot_core::identity::Account;
use biot_core::node::{Gateway, GatewayConfig, LightNode, Manager, SubmitError};
use biot_tangle::graph::TangleError;
use biot_tangle::tx::NodeId;
use biot_net::latency::UniformLatency;
use biot_net::network::{Envelope, Network, NodeAddr};
use biot_net::queue::EventQueue;
use biot_net::time::SimTime;
use biot_tangle::tx::{Transaction, TxId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Messages exchanged in the cluster.
#[derive(Clone, Debug)]
pub enum ClusterMsg {
    /// A light node submits a mined transaction to a gateway.
    Submit(Transaction),
    /// A gateway gossips an accepted transaction to a peer gateway.
    Gossip(Transaction),
    /// A device asks its gateway to process a reading at this instant
    /// (driver-internal tick).
    DeviceTick {
        /// Index into the cluster's device list.
        device: usize,
    },
    /// Periodic anti-entropy: every gateway pushes transactions its peers
    /// are missing (driver-internal tick).
    SyncTick,
    /// A gateway tells its peers about detected misbehaviour, so
    /// punishment follows the attacker to every replica (otherwise an
    /// attacker escapes its difficulty penalty by switching gateways).
    MisbehaviorReport {
        /// The offending node.
        node: NodeId,
        /// What it did.
        kind: Misbehavior,
    },
}

/// Configuration of a cluster run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of gateways (full nodes).
    pub n_gateways: usize,
    /// Number of light nodes.
    pub n_devices: usize,
    /// Virtual run length.
    pub duration: SimTime,
    /// Mean interval between readings per device, ms.
    pub report_interval_ms: u64,
    /// Message loss probability on every link.
    pub loss: f64,
    /// Gateway to kill halfway through the run (tests failover), if any.
    pub kill_gateway_at: Option<(usize, SimTime)>,
    /// Anti-entropy interval: how often gateways reconcile ledgers, ms.
    /// Repeated sync rounds recover from gossip loss.
    pub sync_interval_ms: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            n_gateways: 3,
            n_devices: 4,
            duration: SimTime::from_secs(60),
            report_interval_ms: 4_000,
            loss: 0.0,
            kill_gateway_at: None,
            sync_interval_ms: 5_000,
            seed: 17,
        }
    }
}

/// Result of a cluster run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ClusterResult {
    /// Transactions accepted at each gateway (by submission, not gossip).
    pub accepted_per_gateway: Vec<u64>,
    /// Ledger length per gateway at the end.
    pub ledger_len_per_gateway: Vec<usize>,
    /// Submissions that failed because the target gateway was down or the
    /// message was lost.
    pub failed_submissions: u64,
    /// Gossip messages delivered.
    pub gossip_delivered: u64,
    /// Fraction of transactions present on *all* live gateways at the end.
    pub convergence: f64,
    /// Misbehaviour reports gossiped between gateways.
    pub misbehavior_reports: u64,
}

/// Runs a cluster scenario.
///
/// Devices are assigned to gateways round-robin; every accepted submission
/// is gossiped to all peer gateways; devices whose home gateway is down
/// fail over to the next live one.
pub fn run_cluster(config: &ClusterConfig) -> ClusterResult {
    assert!(config.n_gateways >= 1, "need at least one gateway");
    let mut rng = StdRng::seed_from_u64(config.seed);

    // --- Boot: manager key pinned in every gateway's genesis config ------
    let mut manager = Manager::new(Account::generate(&mut rng));
    let mut gateways: Vec<Option<Gateway>> = (0..config.n_gateways)
        .map(|_| {
            let mut g = Gateway::new(
                manager.public_key().clone(),
                Box::new(InverseProportionalPolicy::default()),
                GatewayConfig::default(),
            );
            g.init_genesis(SimTime::ZERO);
            Some(g)
        })
        .collect();
    let genesis = gateways[0].as_ref().unwrap().tangle().genesis().unwrap();

    let devices: Vec<LightNode> = (0..config.n_devices)
        .map(|_| LightNode::new(Account::generate(&mut rng)))
        .collect();
    for d in &devices {
        let id = manager.register_device(d.public_key().clone());
        manager.authorize(id);
        for g in gateways.iter_mut().flatten() {
            g.register_pubkey(d.public_key().clone());
        }
    }
    // Publish the list on every replica.
    {
        let g0 = gateways[0].as_mut().unwrap();
        let d = g0.difficulty_for(manager.id(), SimTime::ZERO);
        let list = manager.prepare_auth_list((genesis, genesis), SimTime::ZERO, d);
        for g in gateways.iter_mut().flatten() {
            g.apply_auth_list(list.tx.clone(), SimTime::ZERO)
                .expect("auth list applies");
        }
    }

    // --- Network ----------------------------------------------------------
    // Addresses: gateways are 0..n_gateways, devices follow.
    let gw_addr = |i: usize| NodeAddr(i as u32);
    let dev_addr = |i: usize| NodeAddr((config.n_gateways + i) as u32);
    let mut net: Network<ClusterMsg> = Network::new();
    net.set_latency(Box::new(UniformLatency::new(2, 15)));
    net.set_loss(config.loss);
    let mut queue: EventQueue<Envelope<ClusterMsg>> = EventQueue::new();

    // Schedule first ticks.
    for (i, _) in devices.iter().enumerate() {
        queue.schedule_in(
            (i as u64 + 1) * 250,
            Envelope {
                from: dev_addr(i),
                to: dev_addr(i),
                msg: ClusterMsg::DeviceTick { device: i },
            },
        );
    }

    // First anti-entropy round.
    queue.schedule_in(
        config.sync_interval_ms,
        Envelope {
            from: gw_addr(0),
            to: gw_addr(0),
            msg: ClusterMsg::SyncTick,
        },
    );

    let mut result = ClusterResult {
        accepted_per_gateway: vec![0; config.n_gateways],
        ..ClusterResult::default()
    };
    let mut home: HashMap<usize, usize> = (0..config.n_devices)
        .map(|i| (i, i % config.n_gateways))
        .collect();
    let mut killed: Option<usize> = None;
    let duration_ms = config.duration.as_millis();
    let mut reading_no = 0u64;

    while let Some((now, env)) = queue.pop() {
        if now.as_millis() > duration_ms {
            break;
        }
        // Kill a gateway when its time comes.
        if let Some((victim, at)) = config.kill_gateway_at {
            if killed.is_none() && now >= at {
                killed = Some(victim);
                net.fail_node(gw_addr(victim));
                gateways[victim] = None;
            }
        }
        match env.msg {
            ClusterMsg::DeviceTick { device } => {
                // Pick the home gateway; fail over if it is down.
                let mut target = home[&device];
                if gateways[target].is_none() {
                    if let Some(alt) = gateways.iter().position(|g| g.is_some()) {
                        target = alt;
                        home.insert(device, alt);
                    } else {
                        break; // no gateways left
                    }
                }
                // Query tips and difficulty from the (live) gateway, mine,
                // and send the submission over the network.
                let gw = gateways[target].as_ref().unwrap();
                if let Some(tips) = gw.random_tips(&mut rng) {
                    let d = gw.difficulty_for(devices[device].id(), now);
                    reading_no += 1;
                    let prepared = devices[device].prepare_reading(
                        format!("r{reading_no}").as_bytes(),
                        tips,
                        now,
                        d,
                        &mut rng,
                    );
                    if !net.send(
                        &mut queue,
                        dev_addr(device),
                        gw_addr(target),
                        ClusterMsg::Submit(prepared.tx),
                        &mut rng,
                    ) {
                        result.failed_submissions += 1;
                    }
                }
                // Next tick.
                queue.schedule_in(
                    config.report_interval_ms,
                    Envelope {
                        from: dev_addr(device),
                        to: dev_addr(device),
                        msg: ClusterMsg::DeviceTick { device },
                    },
                );
            }
            ClusterMsg::Submit(tx) => {
                let gw_idx = env.to.0 as usize;
                let peers: Vec<NodeAddr> = (0..config.n_gateways)
                    .filter(|&j| j != gw_idx && gateways[j].is_some())
                    .map(gw_addr)
                    .collect();
                let Some(gw) = gateways.get_mut(gw_idx).and_then(|g| g.as_mut()) else {
                    result.failed_submissions += 1;
                    continue;
                };
                match gw.submit(tx.clone(), now) {
                    Ok(_) => {
                        result.accepted_per_gateway[gw_idx] += 1;
                        net.broadcast(
                            &mut queue,
                            gw_addr(gw_idx),
                            &peers,
                            ClusterMsg::Gossip(tx),
                            &mut rng,
                        );
                    }
                    Err(SubmitError::Tangle(TangleError::DoubleSpend { .. })) => {
                        // Local punishment already recorded; tell peers so
                        // the attacker cannot gateway-hop out of it.
                        result.failed_submissions += 1;
                        net.broadcast(
                            &mut queue,
                            gw_addr(gw_idx),
                            &peers,
                            ClusterMsg::MisbehaviorReport {
                                node: tx.issuer,
                                kind: Misbehavior::DoubleSpend,
                            },
                            &mut rng,
                        );
                    }
                    Err(_) => {
                        result.failed_submissions += 1;
                    }
                }
            }
            ClusterMsg::MisbehaviorReport { node, kind } => {
                let gw_idx = env.to.0 as usize;
                if let Some(gw) = gateways.get_mut(gw_idx).and_then(|g| g.as_mut()) {
                    gw.report_misbehavior(node, kind, now);
                    result.misbehavior_reports += 1;
                }
            }
            ClusterMsg::SyncTick => {
                // Each live gateway pushes up to a bounded batch of
                // transactions each peer is missing. Loss on these pushes
                // is recovered by the next round.
                const BATCH: usize = 64;
                for a in 0..config.n_gateways {
                    let Some(src) = gateways[a].as_ref() else { continue };
                    for (b, peer) in gateways.iter().enumerate().take(config.n_gateways) {
                        if a == b {
                            continue;
                        }
                        let Some(dst) = peer.as_ref() else { continue };
                        let missing: Vec<Transaction> = src
                            .tangle()
                            .iter()
                            .filter(|tx| !dst.tangle().contains(&tx.id()))
                            .take(BATCH)
                            .cloned()
                            .collect();
                        for tx in missing {
                            net.send(
                                &mut queue,
                                gw_addr(a),
                                gw_addr(b),
                                ClusterMsg::Gossip(tx),
                                &mut rng,
                            );
                        }
                    }
                }
                queue.schedule_in(
                    config.sync_interval_ms,
                    Envelope {
                        from: gw_addr(0),
                        to: gw_addr(0),
                        msg: ClusterMsg::SyncTick,
                    },
                );
            }
            ClusterMsg::Gossip(tx) => {
                let gw_idx = env.to.0 as usize;
                if let Some(gw) = gateways.get_mut(gw_idx).and_then(|g| g.as_mut()) {
                    // Unknown parents can happen when gossip overtakes its
                    // ancestors or a copy was lost; re-request by retrying
                    // later (simple anti-entropy: reschedule once).
                    if gw.receive_broadcast(tx.clone(), now).is_err() {
                        queue.schedule_in(
                            200,
                            Envelope {
                                from: env.from,
                                to: env.to,
                                msg: ClusterMsg::Gossip(tx),
                            },
                        );
                    } else {
                        result.gossip_delivered += 1;
                    }
                }
            }
        }
    }

    // --- Convergence ------------------------------------------------------
    let live: Vec<&Gateway> = gateways.iter().flatten().collect();
    result.ledger_len_per_gateway = gateways
        .iter()
        .map(|g| g.as_ref().map(|g| g.tangle().len()).unwrap_or(0))
        .collect();
    if !live.is_empty() {
        // Union of all tx ids across live replicas.
        let mut union: HashMap<TxId, usize> = HashMap::new();
        for g in &live {
            for tx in g.tangle().iter() {
                *union.entry(tx.id()).or_insert(0) += 1;
            }
        }
        let everywhere = union.values().filter(|&&c| c == live.len()).count();
        result.convergence = everywhere as f64 / union.len().max(1) as f64;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use biot_net::time::SimTime as T;

    /// Misbehaviour reports follow the attacker across gateways: after a
    /// double-spend is rejected at gateway 0 and reported, gateway 1 also
    /// raises the attacker's difficulty.
    #[test]
    fn punishment_propagates_across_gateways() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut manager = Manager::new(Account::generate(&mut rng));
        let mk = |m: &Manager| {
            Gateway::new(
                m.public_key().clone(),
                Box::new(InverseProportionalPolicy::default()),
                GatewayConfig::default(),
            )
        };
        let mut g0 = mk(&manager);
        let mut g1 = mk(&manager);
        let genesis = g0.init_genesis(T::ZERO);
        g1.init_genesis(T::ZERO);
        let attacker = LightNode::new(Account::generate(&mut rng));
        let id = manager.register_device(attacker.public_key().clone());
        manager.authorize(id);
        for g in [&mut g0, &mut g1] {
            g.register_pubkey(attacker.public_key().clone());
        }
        let d = g0.difficulty_for(manager.id(), T::ZERO);
        let list = manager.prepare_auth_list((genesis, genesis), T::ZERO, d);
        g0.apply_auth_list(list.tx.clone(), T::ZERO).unwrap();
        g1.apply_auth_list(list.tx, T::ZERO).unwrap();

        // Double-spend at g0.
        let token = [7u8; 32];
        let now = T::from_secs(1);
        let tips = g0.random_tips(&mut rng).unwrap();
        let d = g0.difficulty_for(id, now);
        let spend = attacker.prepare_spend(token, manager.id(), tips, now, d);
        g0.submit(spend.tx.clone(), now).unwrap();
        g1.receive_broadcast(spend.tx, now).unwrap();
        let tips = g0.random_tips(&mut rng).unwrap();
        let respend = attacker.prepare_spend(token, id, tips, now, d);
        assert!(g0.submit(respend.tx, now).is_err());

        // Without the report, g1 would still serve the attacker cheaply.
        let later = T::from_secs(2);
        assert!(g1.difficulty_for(id, later) <= biot_core::Difficulty::INITIAL);
        // The report lands; g1 punishes too.
        g1.report_misbehavior(id, Misbehavior::DoubleSpend, now);
        assert_eq!(g1.difficulty_for(id, later), biot_core::Difficulty::MAX);
    }

    #[test]
    fn lossless_cluster_converges_fully() {
        let r = run_cluster(&ClusterConfig::default());
        let total: u64 = r.accepted_per_gateway.iter().sum();
        assert!(total >= 20, "accepted {total}");
        assert_eq!(r.failed_submissions, 0);
        assert!(
            r.convergence > 0.99,
            "replicas must converge, got {}",
            r.convergence
        );
        // All replicas end with the same ledger length.
        let lens = &r.ledger_len_per_gateway;
        assert!(lens.windows(2).all(|w| w[0] == w[1]), "{lens:?}");
    }

    #[test]
    fn lossy_cluster_still_mostly_converges() {
        let r = run_cluster(&ClusterConfig {
            loss: 0.1,
            ..ClusterConfig::default()
        });
        let total: u64 = r.accepted_per_gateway.iter().sum();
        assert!(total > 10);
        // Anti-entropy retries recover most gossip; some loss is expected.
        assert!(
            r.convergence > 0.6,
            "lossy convergence too low: {}",
            r.convergence
        );
    }

    #[test]
    fn gateway_failure_does_not_stop_service() {
        let r = run_cluster(&ClusterConfig {
            kill_gateway_at: Some((0, SimTime::from_secs(20))),
            ..ClusterConfig::default()
        });
        // The dead gateway's devices failed over; survivors kept accepting.
        let survivors: u64 = r.accepted_per_gateway[1..].iter().sum();
        assert!(survivors > 10, "survivors accepted {survivors}");
        // Dead gateway's ledger reads 0 (dropped), survivors agree.
        assert_eq!(r.ledger_len_per_gateway[0], 0);
        assert_eq!(
            r.ledger_len_per_gateway[1],
            r.ledger_len_per_gateway[2]
        );
    }

    #[test]
    fn single_gateway_cluster_works() {
        let r = run_cluster(&ClusterConfig {
            n_gateways: 1,
            n_devices: 2,
            ..ClusterConfig::default()
        });
        assert!(r.accepted_per_gateway[0] > 5);
        assert_eq!(r.convergence, 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_cluster(&ClusterConfig::default());
        let b = run_cluster(&ClusterConfig::default());
        assert_eq!(a.accepted_per_gateway, b.accepted_per_gateway);
        assert_eq!(a.gossip_delivered, b.gossip_delivered);
    }
}
