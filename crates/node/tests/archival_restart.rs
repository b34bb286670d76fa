//! A restarted archival node must neither apply the mesh's credit a
//! second time nor hand its recovered events back to the mesh.
//!
//! The node folds the credit events recovered from its store into its
//! ledger at boot, and starts each origin's log at the recovered
//! watermark. When it re-joins, its peer advertises the watermarks it
//! holds in the handshake; the node must pull only what lies past its
//! own, or it applies the recovered events (and appends them to its WAL)
//! twice. That holds after a checkpoint too, whose snapshot merges
//! same-instant grants and carries the watermarks beside them, and after
//! a crash that leaves the pre-checkpoint WAL beside the new snapshot.

use biot_credit::{CreditEvent, CreditId, CreditLedger, CreditParams};
use biot_gossip::node::{GossipConfig, GossipNode};
use biot_gossip::transport::{MemLink, MemTransport};
use biot_net::time::SimTime;
use biot_node::{ArchivalNode, Role, RoleConfig};
use biot_tangle::tx::NodeId;
use std::path::{Path, PathBuf};

const DEVICES: [NodeId; 4] = [NodeId([1; 32]), NodeId([2; 32]), NodeId([3; 32]), NodeId([4; 32])];
/// The gossip layer's per-origin log cap: past it, a peer serves only the
/// newest events.
const CREDIT_LOG: usize = 8_192;

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

/// A fresh origin and, in a fresh store directory, an archival node
/// that has synced and persisted `events` from it in 512-event batches.
fn synced(
    name: &str,
    events: &[CreditEvent],
) -> (PathBuf, GossipNode, ArchivalNode, MemLink, u64) {
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
    (dir, origin, node, link, now)
}

/// Syncs `events` into a fresh archival node and persists them
/// (checkpointing when asked), then restarts the node, re-joins the same
/// origin, whose handshake advertises its credit watermark, and lets the
/// mesh settle. Returns the store, the restarted node and the events the
/// origin took from it.
fn restart(
    name: &str,
    events: &[CreditEvent],
    checkpoint: bool,
) -> (PathBuf, ArchivalNode, Vec<(CreditId, CreditEvent)>) {
    let (dir, mut origin, mut node, link, now) = synced(name, events);
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
    assert_eq!(node.credits().events_applied(), n, "recovered events were applied again");
    let oracle = CreditLedger::from_events(CreditParams::default(), events);
    let last = events.iter().map(CreditEvent::at).max().unwrap();
    for (d, at) in DEVICES.iter().flat_map(|&d| [(d, SimTime::from_millis(30_000)), (d, last)]) {
        assert_eq!(node.credits().credit_of(d, at), oracle.credit_of(d, at), "{d:?} at {at:?}");
    }
    drop(node);
    let node = archival(&dir);
    assert_eq!(node.credits().events_applied(), n, "the WAL gained a second copy");
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

/// More recovered events than an origin's log holds: the origin's
/// watermark still covers every one.
#[test]
fn restarted_archival_dedups_past_the_replay_cap() {
    assert_applied_once("large", &schedule(CREDIT_LOG + 1_000), true);
}

/// `schedule(11)` plus two grants to one device at one instant (different
/// weights, so two events), which a checkpoint merges into one.
fn with_same_instant_pair() -> Vec<CreditEvent> {
    let at = SimTime::from_millis(50_000);
    let mut events = schedule(11);
    events.extend([1.0, 2.0].map(|w| CreditEvent::validated(DEVICES[0], w, at)));
    events
}

/// The merged event is neither replayed to the origin nor re-applied by
/// the node: the snapshot's watermark covers both originals.
#[test]
fn restarted_archival_does_not_replay_merged_events() {
    let events = with_same_instant_pair();
    let (dir, node, sent_to_origin) = restart("merged", &events, true);
    assert!(sent_to_origin.is_empty(), "merged events reached the origin: {sent_to_origin:?}");
    assert_eq!(node.credits().events_applied(), events.len() as u64, "re-applied after restart");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every device's `(CrP, CrN)` bit patterns at instants inside and past
/// the ΔT window of the schedule.
fn credit_bits(ledger: &CreditLedger) -> Vec<(u64, u64)> {
    let probes = [1_000, 30_000, 50_000, 79_000, 600_000].map(SimTime::from_millis);
    DEVICES
        .iter()
        .flat_map(|&d| probes.map(|at| ledger.credit_of(d, at)))
        .map(|c| (c.positive.to_bits(), c.negative.to_bits()))
        .collect()
}

/// A crash between a checkpoint's snapshot rename and its WAL reset
/// leaves the pre-checkpoint WAL beside the new snapshot. Recovery skips
/// the WAL's credit records, which the snapshot already holds (merged),
/// by their `(origin, seq)`.
#[test]
fn crash_after_the_snapshot_rename_applies_wal_credit_once() {
    let events = with_same_instant_pair();
    let (dir, _origin, mut node, _link, _) = synced("crash", &events);
    let wal = dir.join("wal.biot");
    let old_wal = std::fs::read(&wal).unwrap();
    let (applied, bits) = (node.credits().events_applied(), credit_bits(node.credits()));
    node.checkpoint().unwrap();
    drop(node);
    std::fs::write(&wal, old_wal).unwrap();

    let node = archival(&dir);
    assert_eq!(node.credits().events_applied(), applied, "WAL credit replayed over the snapshot");
    assert_eq!(credit_bits(node.credits()), bits);
    let _ = std::fs::remove_dir_all(&dir);
}
