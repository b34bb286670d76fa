//! Five-node gossip mesh over real TCP loopback sockets, bootstrapped
//! from a single seed and driven by one blocking [`EventLoop`].
//!
//! One seed node holds a DAG of sensor readings plus a batch of credit
//! events. Four joiners boot cold knowing ONLY the seed's address: they
//! dial it, learn each other's addresses through peer exchange, open
//! direct links, and converge — identical tips, identical cumulative
//! weights, identical `(CrP, CrN, Cr)` per device — with transaction
//! payloads spreading by digest-and-pull rather than flood. Each joiner
//! then issues a live reading and the mesh re-converges. All five nodes
//! and their acceptors share a single event loop that blocks until a
//! socket is readable or a gossip timer is due, instead of the old
//! poll-everything-every-millisecond spin.
//!
//! Run with: `cargo run --release --example mesh`

use biot::credit::event::CreditEvent;
use biot::gossip::node::{GossipConfig, GossipNode};
use biot::gossip::tcp::{TcpAcceptor, TcpConnector, TcpDialer};
use biot::net::time::SimTime;
use biot::node::{EventLoop, MemberId};
use biot::tangle::graph::Tangle;
use biot::tangle::tx::{NodeId, Payload, TransactionBuilder, TxId};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::{Arc, Mutex};

const NODES: usize = 5;
const SEED_TXS: u32 = 120;
const DEVICES: usize = 4;

fn mesh_config(node_id: u64, listen: String) -> GossipConfig {
    GossipConfig {
        node_id,
        listen_addr: Some(listen),
        digest_ms: 25,
        peer_exchange_ms: 250,
        anti_entropy_ms: 500,
        ..GossipConfig::default()
    }
}

fn device(n: usize) -> NodeId {
    NodeId([0xD0 + n as u8; 32])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- The seed: an established gateway with history to share. ------
    let seed_tangle = Arc::new(Mutex::new(Tangle::new()));
    let mut credit_events = Vec::new();
    {
        let mut t = seed_tangle.lock().unwrap();
        t.attach_genesis(NodeId([0xAA; 32]), 0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut now = 0u64;
        for n in 0..SEED_TXS {
            now += 10;
            let tips = t.tips();
            let trunk = tips[rng.next_u64() as usize % tips.len()];
            let branch = tips[rng.next_u64() as usize % tips.len()];
            let tx = TransactionBuilder::new(device(n as usize % DEVICES))
                .parents(trunk, branch)
                .payload(Payload::Data(n.to_be_bytes().to_vec()))
                .timestamp_ms(now)
                .build();
            t.attach(tx, now)?;
            credit_events.push(CreditEvent::validated(
                device(n as usize % DEVICES),
                1.0,
                SimTime::from_millis(now),
            ));
        }
        println!(
            "seed: established DAG with {} transactions, {} tips, {} credit events",
            t.len(),
            t.tips().len(),
            credit_events.len()
        );
    }

    // --- Five nodes, each listening; joiners know only the seed. ------
    // Every node and its acceptor goes into the one event loop, which
    // folds each node's received mesh credit events into a per-member
    // ledger projection.
    let mut acceptors = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..NODES {
        let a = TcpAcceptor::bind("127.0.0.1:0")?;
        addrs.push(a.local_addr()?.to_string());
        acceptors.push(a);
    }
    let mut el = EventLoop::new()?;
    let mut ids: Vec<MemberId> = Vec::new();
    for (i, acceptor) in acceptors.into_iter().enumerate() {
        let cfg = mesh_config(i as u64 + 1, addrs[i].clone());
        let mut node = if i == 0 {
            GossipNode::new(Arc::clone(&seed_tangle), cfg)
        } else {
            GossipNode::with_empty_tangle(cfg)
        };
        node.set_dialer(Box::new(TcpDialer));
        if i > 0 {
            node.connect(Box::new(TcpConnector { addr: addrs[0].parse()? }));
        }
        let id = el.add_gossip(node);
        el.add_acceptor(acceptor, id);
        ids.push(id);
    }
    println!("seed listening on {}; 4 joiners dialing it cold", addrs[0]);

    let target = seed_tangle.lock().unwrap().len();

    // --- Phase 1a: block until the seed's first link is up, then share
    // its credit history. (The broadcast does not loop back, so the
    // seed's own projection folds the events locally.)
    if !el.run_until(60_000, |el| el.gossip(ids[0]).expect("seed").ready_peers() > 0)? {
        return Err("no joiner reached the seed in 60s".into());
    }
    let now = el.now_ms();
    el.gossip_mut(ids[0]).expect("seed").broadcast_credit_events(&credit_events, now);
    for ev in &credit_events {
        el.ledger_mut(ids[0]).expect("seed ledger").apply(ev);
    }

    // --- Phase 1b: bootstrap + peer discovery + full sync. -------------
    let synced = el.run_until(60_000, |el| {
        let synced = ids.iter().all(|&id| {
            let n = el.gossip(id).expect("member");
            n.tangle().lock().unwrap().len() == target && n.pending_len() == 0
        });
        // Peer exchange must have opened links beyond the seed star:
        // every joiner directly connected to at least 3 of the other 4.
        let meshed = ids.iter().all(|&id| el.gossip(id).expect("member").ready_peers() >= 3);
        let credit_done = ids
            .iter()
            .all(|&id| el.ledger(id).expect("ledger").events_applied() == SEED_TXS as u64);
        synced && meshed && credit_done
    })?;
    if !synced {
        return Err(format!(
            "mesh did not converge in 60s: sizes {:?}, ready {:?}, credit {:?}",
            ids.iter()
                .map(|&id| el.gossip(id).expect("member").tangle().lock().unwrap().len())
                .collect::<Vec<_>>(),
            ids.iter().map(|&id| el.gossip(id).expect("member").ready_peers()).collect::<Vec<_>>(),
            ids.iter()
                .map(|&id| el.ledger(id).expect("ledger").events_applied())
                .collect::<Vec<_>>(),
        )
        .into());
    }
    println!(
        "mesh converged after {}ms in {} event-loop wakeups: every node holds {} \
         transactions, direct links per node: {:?}",
        el.now_ms(),
        el.wakeups(),
        target,
        ids.iter().map(|&id| el.gossip(id).expect("member").ready_peers()).collect::<Vec<_>>()
    );

    // --- Phase 2: every joiner issues a live reading. ------------------
    let mut live_ids: Vec<TxId> = Vec::new();
    for (i, &id) in ids.iter().enumerate().skip(1) {
        let now = el.now_ms();
        let node = el.gossip_mut(id).expect("member");
        let (trunk, branch) = {
            let t = node.tangle().lock().unwrap();
            let tips = t.tips();
            (tips[0], tips[tips.len() - 1])
        };
        let tx = TransactionBuilder::new(device(i - 1))
            .parents(trunk, branch)
            .payload(Payload::Data(format!("live from node {}", i + 1).into_bytes()))
            .timestamp_ms(now)
            .build();
        live_ids.push(node.attach_local(tx, now)?);
    }
    let relived = el.run_until(el.now_ms() + 60_000, |el| {
        ids.iter().all(|&id| {
            let n = el.gossip(id).expect("member");
            let t = n.tangle().lock().unwrap();
            live_ids.iter().all(|id| t.contains(id)) && n.pending_len() == 0
        })
    })?;
    if !relived {
        return Err("live readings never reached the whole mesh".into());
    }

    // --- Final agreement: tips, weights, credit. -----------------------
    let reference = el.gossip(ids[0]).expect("seed").tangle();
    let ta = reference.lock().unwrap();
    for &id in ids.iter().skip(1) {
        let tangle = el.gossip(id).expect("member").tangle();
        let tb = tangle.lock().unwrap();
        assert_eq!(ta.len(), tb.len());
        assert_eq!(ta.tips(), tb.tips());
        assert!(ta.iter().all(|tx| {
            let id = tx.id();
            ta.cumulative_weight(&id) == tb.cumulative_weight(&id)
        }));
    }
    let now = SimTime::from_millis(el.now_ms());
    for d in 0..DEVICES {
        let reference = el.ledger(ids[0]).expect("ledger").credit_of(device(d), now);
        for &id in ids.iter().skip(1) {
            let b = el.ledger(id).expect("ledger").credit_of(device(d), now);
            assert_eq!(reference.positive.to_bits(), b.positive.to_bits());
            assert_eq!(reference.negative.to_bits(), b.negative.to_bits());
            assert_eq!(reference.combined.to_bits(), b.combined.to_bits());
        }
        println!(
            "device {d}: CrP={:.3} CrN={:.3} Cr={:.3} (identical on all {NODES} nodes)",
            reference.positive, reference.negative, reference.combined
        );
    }
    println!(
        "all {} nodes agree: {} transactions, {} tips, bit-identical credit",
        NODES,
        ta.len(),
        ta.tips().len()
    );
    Ok(())
}
