//! A restarted archival node must neither apply the mesh's credit replay
//! a second time nor hand its recovered events back to the mesh.
//!
//! The node folds the credit events recovered from its store into its
//! ledger at boot. When it re-joins, its peer replays the credit events it
//! holds in the handshake; the node must count the recovered ones as
//! processed, or it applies them (and appends them to its WAL) twice. It
//! must not replay them to the peer either: a checkpoint merges
//! same-instant grants into one event whose content key the peer does not
//! know, so the peer would apply it as new.

use biot_credit::{CreditEvent, CreditLedger, CreditParams};
use biot_gossip::node::{GossipConfig, GossipNode};
use biot_gossip::transport::{MemLink, MemTransport};
use biot_net::time::SimTime;
use biot_node::{ArchivalNode, Role, RoleConfig};
use biot_tangle::tx::NodeId;
use std::path::{Path, PathBuf};

const DEVICES: [NodeId; 4] = [NodeId([1; 32]), NodeId([2; 32]), NodeId([3; 32]), NodeId([4; 32])];
/// The gossip layer's replay store cap: past it, a handshake replays only
/// the newest events.
const CREDIT_REPLAY: usize = 8_192;

/// `n` grants spread over the devices, one per instant.
fn schedule(n: usize) -> Vec<CreditEvent> {
    (0..n as u64)
        .map(|k| {
            let at = SimTime::from_millis(1_000 + k * 7);
            CreditEvent::validated(DEVICES[k as usize % DEVICES.len()], 1.0, at)
        })
        .collect()
}

fn archival(dir: &Path) -> ArchivalNode {
    ArchivalNode::new(RoleConfig {
        role: Role::Archival,
        gossip: GossipConfig { node_id: 2, ..GossipConfig::default() },
        store_dir: Some(dir.to_path_buf()),
        ..RoleConfig::default()
    })
    .expect("archival boots")
}

/// Pumps both nodes in 10 ms steps until `done` holds or a minute of
/// virtual time passes. Returns the clock.
fn pump(
    o: &mut GossipNode,
    a: &mut ArchivalNode,
    mut now: u64,
    done: impl Fn(&ArchivalNode) -> bool,
) -> u64 {
    let deadline = now + 60_000;
    while !done(a) && now < deadline {
        now += 10;
        o.poll(now);
        a.poll(now).expect("archival poll");
    }
    now
}

/// Links the two over a fresh in-memory pair and pumps until the
/// handshake completes.
fn join(o: &mut GossipNode, a: &mut ArchivalNode, now: u64) -> (MemLink, u64) {
    let (x, y, link) = MemTransport::pair();
    o.add_transport(Box::new(x), now);
    a.gossip_mut().add_transport(Box::new(y), now);
    let now = pump(o, a, now, |a| a.gossip().ready_peers() > 0);
    assert!(a.gossip().ready_peers() > 0, "joined");
    (link, now)
}

/// Syncs `events` into a fresh archival node in 512-event batches and
/// persists them (checkpointing when asked), then restarts the node,
/// re-joins the same origin, whose handshake replays its credit store,
/// and lets the mesh settle. Returns the store, the restarted node and
/// the events the origin took from it.
fn restart(
    name: &str,
    events: &[CreditEvent],
    checkpoint: bool,
) -> (PathBuf, ArchivalNode, Vec<CreditEvent>) {
    let dir = std::env::temp_dir()
        .join(format!("biot-archival-restart-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut origin =
        GossipNode::with_empty_tangle(GossipConfig { node_id: 1, ..GossipConfig::default() });
    origin.tangle().lock().unwrap().attach_genesis(NodeId([9; 32]), 0);

    let mut node = archival(&dir);
    let (link, mut now) = join(&mut origin, &mut node, 0);
    let mut synced = 0;
    for batch in events.chunks(512) {
        origin.broadcast_credit_events(batch, now);
        synced += batch.len() as u64;
        now = pump(&mut origin, &mut node, now, |a| a.credits().events_applied() == synced);
    }
    assert_eq!(node.credits().events_applied(), events.len() as u64);
    assert!(origin.take_credit_events().is_empty());
    if checkpoint {
        node.checkpoint().unwrap();
    }
    drop(node);
    link.kill();

    let mut node = archival(&dir);
    let (_link, now) = join(&mut origin, &mut node, now + 1_000);
    pump(&mut origin, &mut node, now, |_| false);
    (dir, node, origin.take_credit_events())
}

/// The restarted node applied each event once, matches the oracle's
/// credit, persisted nothing twice, and sent the origin nothing.
fn assert_applied_once(name: &str, events: &[CreditEvent], checkpoint: bool) {
    let (dir, node, sent_to_origin) = restart(name, events, checkpoint);
    let n = events.len() as u64;
    assert!(sent_to_origin.is_empty(), "recovered events were replayed to the origin");
    assert_eq!(node.credits().events_applied(), n, "the replay was applied again");
    let oracle = CreditLedger::from_events(CreditParams::default(), events);
    let last = events.iter().map(CreditEvent::at).max().unwrap();
    for (d, at) in DEVICES.iter().flat_map(|&d| [(d, SimTime::from_millis(30_000)), (d, last)]) {
        assert_eq!(node.credits().credit_of(d, at), oracle.credit_of(d, at), "{d:?} at {at:?}");
    }
    drop(node);
    let node = archival(&dir);
    assert_eq!(node.credits().events_applied(), n, "the WAL gained the replay");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restarted_archival_applies_recovered_credit_once() {
    assert_applied_once("wal", &schedule(11), false);
}

#[test]
fn restarted_archival_applies_checkpointed_credit_once() {
    assert_applied_once("checkpoint", &schedule(11), true);
}

/// More recovered events than the replay store holds: the origin's
/// replay of its newest events must still find every one processed.
#[test]
fn restarted_archival_dedups_past_the_replay_cap() {
    assert_applied_once("large", &schedule(CREDIT_REPLAY + 1_000), true);
}

/// Two grants to one device at one instant (different weights, so two
/// events), which the checkpoint merges into one. The node must not
/// replay the merged event to the origin. (The node itself still
/// re-applies the two originals, whose keys differ from the merged one;
/// see ROADMAP item 1.)
#[test]
fn restarted_archival_does_not_replay_merged_events() {
    let at = SimTime::from_millis(50_000);
    let mut events = schedule(11);
    events.extend([1.0, 2.0].map(|w| CreditEvent::validated(DEVICES[0], w, at)));
    let (dir, _node, sent_to_origin) = restart("merged", &events, true);
    assert!(sent_to_origin.is_empty(), "merged events reached the origin: {sent_to_origin:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
