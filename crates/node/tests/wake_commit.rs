//! An archival node makes one wake durable with one WAL commit: the
//! credit events and transactions the wake delivered go to disk in one
//! write and one `sync_data`, a restart recovers them, and a crash that
//! tears the commit anywhere recovers a prefix of both.

use biot_credit::CreditEvent;
use biot_gossip::node::{GossipConfig, GossipNode, RelayMode};
use biot_gossip::transport::MemTransport;
use biot_net::time::SimTime;
use biot_node::{ArchivalNode, Role, RoleConfig};
use biot_store::LedgerStore;
use biot_tangle::tx::{NodeId, Payload, TransactionBuilder, TxId};
use std::path::{Path, PathBuf};

fn archival(dir: &Path) -> ArchivalNode {
    ArchivalNode::new(RoleConfig {
        role: Role::Archival,
        gossip: GossipConfig { node_id: 2, ..GossipConfig::default() },
        store_dir: Some(dir.to_path_buf()),
        ..RoleConfig::default()
    })
    .expect("archival boots")
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("biot-wake-commit-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn attach_order(node: &ArchivalNode) -> Vec<TxId> {
    node.gossip().tangle().lock().unwrap().attach_order().to_vec()
}

fn is_prefix<T: PartialEq>(short: &[T], long: &[T]) -> bool {
    short.len() <= long.len() && long[..short.len()] == *short
}

#[test]
fn one_wake_is_one_commit_that_recovers_whole_or_as_a_prefix() {
    let dir = temp_dir("sweep");
    // The origin floods payloads, so everything it originates in one step
    // reaches the archival node's next wake.
    let mut origin = GossipNode::with_empty_tangle(GossipConfig {
        node_id: 1,
        relay_mode: RelayMode::Flood,
        ..GossipConfig::default()
    });
    let genesis = origin.tangle().lock().unwrap().attach_genesis(NodeId([9; 32]), 0);
    let mut node = archival(&dir);
    let (x, y, _link) = MemTransport::pair();
    origin.add_transport(Box::new(x), 0);
    node.gossip_mut().add_transport(Box::new(y), 0);
    let mut now = 0;
    while attach_order(&node).is_empty() || origin.ready_peers() == 0 {
        now += 10;
        origin.poll(now);
        node.poll(now).expect("archival poll");
        assert!(now < 60_000, "the archival node adopts the origin's genesis");
    }

    // One origin step: two credit events and three chained transactions.
    // Credit travels by pull, so the archival node first takes the
    // origin's watermark advert and asks for the events (a wake with
    // nothing to commit); the origin then serves them beside the flooded
    // payloads.
    now += 10;
    let events = [
        CreditEvent::validated(NodeId([1; 32]), 1.0, SimTime::from_millis(now)),
        CreditEvent::validated(NodeId([2; 32]), 1.0, SimTime::from_millis(now)),
    ];
    origin.broadcast_credit_events(&events, now);
    now += GossipConfig::default().digest_ms;
    origin.poll(now);
    let syncs = node.store().expect("store").syncs();
    node.poll(now).expect("archival wake");
    assert_eq!(node.store().unwrap().syncs(), syncs, "nothing to commit yet");
    let mut parent = genesis;
    for k in 0..3u8 {
        let tx = TransactionBuilder::new(NodeId([k + 1; 32]))
            .parents(parent, parent)
            .payload(Payload::Data(vec![k]))
            .timestamp_ms(now)
            .build();
        parent = origin.attach_local(tx, now).expect("parents stored");
    }
    origin.poll(now);

    // The archival node's one wake.
    let wal = dir.join("wal.biot");
    let wal_before = std::fs::read(&wal).unwrap();
    let syncs = node.store().expect("store").syncs();
    let (order_before, events_before) = (attach_order(&node), node.credits().events_applied());
    node.poll(now + 1).expect("archival wake");
    let live_order = attach_order(&node);
    assert_eq!(live_order.len(), order_before.len() + 3, "the wake delivered three transactions");
    assert_eq!(node.credits().events_applied(), events_before + 2, "and two credit events");
    assert_eq!(node.store().unwrap().syncs(), syncs + 1, "one sync_data for the whole wake");
    let wal_after = std::fs::read(&wal).unwrap();
    assert!(is_prefix(&wal_before, &wal_after), "the commit only appends");

    // A restart recovers the live attach order and the credit events.
    drop(node);
    let node = archival(&dir);
    assert_eq!(attach_order(&node), live_order);
    assert_eq!(node.credits().events_applied(), events_before + 2);
    let recovered = LedgerStore::open_read_only(&dir).unwrap().recover_full().unwrap();
    assert_eq!(recovered.credit_events, events);
    drop(node);

    // A crash at every byte inside the commit recovers a prefix of both.
    let cut_dir = temp_dir("cut");
    std::fs::create_dir_all(&cut_dir).unwrap();
    for cut in wal_before.len()..=wal_after.len() {
        std::fs::write(cut_dir.join("wal.biot"), &wal_after[..cut]).unwrap();
        let state = LedgerStore::open_read_only(&cut_dir)
            .unwrap()
            .recover_full()
            .unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        let order = state.tangle.map(|t| t.attach_order().to_vec()).unwrap_or_default();
        assert!(is_prefix(&order_before, &order), "cut at {cut}: lost committed transactions");
        assert!(is_prefix(&order, &live_order), "cut at {cut}: order is not a prefix");
        assert!(is_prefix(&state.credit_events, &events), "cut at {cut}: events not a prefix");
        if cut == wal_after.len() {
            assert_eq!((order, state.credit_events), (live_order.clone(), events.to_vec()));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&cut_dir);
}
