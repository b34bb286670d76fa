use super::credit::{CREDIT_EVENTS_PER_FRAME, CREDIT_LOG, MAX_CREDIT_INBOX};
use super::*;
use crate::transport::MemTransport;
use crate::wire::{PeerEntry, PROTOCOL_VERSION};
use biot_tangle::tx::{NodeId, Payload, TransactionBuilder};

fn data_tx(n: u8, trunk: TxId, branch: TxId, ts: u64) -> Transaction {
    TransactionBuilder::new(NodeId([n; 32]))
        .parents(trunk, branch)
        .payload(Payload::Data(vec![n, ts as u8]))
        .timestamp_ms(ts)
        .build()
}

/// A hand-driven fake peer: the test speaks raw wire frames.
struct FakePeer {
    transport: MemTransport,
}

impl FakePeer {
    fn send(&mut self, msg: &Message) {
        use crate::transport::Transport;
        self.transport.send(&encode_msg(msg)).unwrap();
    }

    fn drain(&mut self) -> Vec<Message> {
        use crate::transport::Transport;
        let mut out = Vec::new();
        while let Ok(Some(f)) = self.transport.try_recv() {
            out.push(decode_msg(&f).unwrap());
        }
        out
    }

    fn hello(genesis: Option<TxId>) -> Message {
        Message::Hello {
            version: PROTOCOL_VERSION,
            node_id: 0,
            genesis,
            listen_addr: None,
        }
    }

    fn hello_as(node_id: u64, addr: &str, genesis: Option<TxId>) -> Message {
        Message::Hello {
            version: PROTOCOL_VERSION,
            node_id,
            genesis,
            listen_addr: Some(addr.to_string()),
        }
    }
}

fn node_with_genesis() -> (GossipNode, TxId) {
    let node = GossipNode::with_empty_tangle(GossipConfig::default());
    let g = node.tangle().lock().unwrap().attach_genesis(NodeId([0; 32]), 0);
    (node, g)
}

fn wire_fake_peer(node: &mut GossipNode) -> FakePeer {
    let (ours, theirs, _link) = MemTransport::pair();
    node.add_transport(Box::new(ours), 0);
    FakePeer { transport: theirs }
}

#[test]
fn version_mismatch_demotes_peer() {
    let (mut node, g) = node_with_genesis();
    let mut peer = wire_fake_peer(&mut node);
    peer.send(&Message::Hello {
        version: PROTOCOL_VERSION + 1,
        node_id: 0,
        genesis: Some(g),
        listen_addr: None,
    });
    node.poll(0);
    assert_eq!(node.peer_info(0).state, PeerState::Dead);
    assert_eq!(node.stats().incompatible, 1);
}

#[test]
fn genesis_mismatch_demotes_peer() {
    let (mut node, _g) = node_with_genesis();
    let mut peer = wire_fake_peer(&mut node);
    peer.send(&FakePeer::hello(Some(TxId([0xBB; 32]))));
    node.poll(0);
    assert_eq!(node.peer_info(0).state, PeerState::Dead);
}

#[test]
fn out_of_order_arrival_solidifies_in_cascade() {
    let (mut node, g) = node_with_genesis();
    let mut peer = wire_fake_peer(&mut node);
    peer.send(&FakePeer::hello(Some(g)));
    node.poll(0);
    peer.drain();

    // Build child → grandchild remotely; deliver grandchild FIRST.
    let child = data_tx(1, g, g, 10);
    let grand = data_tx(2, child.id(), child.id(), 20);
    let grand_id = grand.id();
    peer.send(&Message::TxPayload { attach_ms: 20, tx: grand });
    node.poll(30);
    assert_eq!(node.pending_len(), 1, "grandchild buffered");
    let asks = peer.drain();
    assert!(
        asks.contains(&Message::GetTxs(vec![child.id()])),
        "missing parent must be requested, got {asks:?}"
    );

    peer.send(&Message::TxPayload { attach_ms: 10, tx: child.clone() });
    node.poll(40);
    assert_eq!(node.pending_len(), 0, "cascade drained the queue");
    let t = node.tangle().lock().unwrap();
    assert!(t.contains(&child.id()));
    assert!(t.contains(&grand_id));
    assert_eq!(t.tips(), vec![grand_id]);
}

/// A cold node (no genesis, nothing stored) syncs like a warm one: the
/// tips exchange names what it lacks, parent pulls chase the cone, and
/// the genesis itself arrives through `GetTxs` and is rebuilt locally.
/// No retired frame (the v5 baseline tags 7 and 8) ever goes out.
#[test]
fn cold_node_pulls_the_genesis_through_gettxs() {
    use crate::transport::Transport;
    let mut source = Tangle::new();
    let g = source.attach_genesis(NodeId([0; 32]), 0);
    let genesis = source.get(&g).unwrap().clone();
    let child = data_tx(1, g, g, 10);
    let mut node = GossipNode::with_empty_tangle(GossipConfig::default());
    let mut peer = wire_fake_peer(&mut node);
    let mut sent = Vec::new();
    let mut exchange = |node: &mut GossipNode, peer: &mut FakePeer, msg: Message, now: u64| {
        peer.send(&msg);
        node.poll(now);
        let mut out = Vec::new();
        while let Ok(Some(frame)) = peer.transport.try_recv() {
            assert!(!matches!(frame[0], 7 | 8), "retired tag {} sent", frame[0]);
            out.push(decode_msg(&frame).unwrap());
        }
        sent.extend(out.iter().cloned());
        out
    };

    let out = exchange(&mut node, &mut peer, FakePeer::hello(Some(g)), 0);
    assert!(out.contains(&Message::GetTips), "a cold node asks for tips: {out:?}");
    let out = exchange(&mut node, &mut peer, Message::Tips(vec![child.id()]), 10);
    assert!(out.contains(&Message::GetTxs(vec![child.id()])), "{out:?}");
    let child_payload = Message::TxPayload { attach_ms: 10, tx: child.clone() };
    let out = exchange(&mut node, &mut peer, child_payload, 20);
    assert!(out.contains(&Message::GetTxs(vec![g])), "the genesis is pulled: {out:?}");
    assert_eq!(node.pending_len(), 1);
    exchange(&mut node, &mut peer, Message::TxPayload { attach_ms: 0, tx: genesis }, 30);
    // Anti-entropy rounds after the sync send nothing retired either.
    node.poll(5_000);
    exchange(&mut node, &mut peer, Message::Heartbeat(5_000), 10_000);

    let t = node.tangle().lock().unwrap();
    assert_eq!(t.genesis(), Some(g), "the genesis was rebuilt with the peer's id");
    assert!(t.contains(&child.id()));
    assert_eq!(t.tips(), vec![child.id()]);
    assert_eq!(node.pending_len(), 0);
    assert_eq!(node.stats().rejected, 0);
    assert!(sent.iter().any(|m| matches!(m, Message::GetTips)));
}

#[test]
fn solidification_queue_evicts_oldest_when_full() {
    let cfg = GossipConfig { max_pending: 3, ..GossipConfig::default() };
    let mut node = GossipNode::new(
        Arc::new(Mutex::new(Tangle::new())),
        cfg,
    );
    let g = node.tangle().lock().unwrap().attach_genesis(NodeId([0; 32]), 0);
    let mut peer = wire_fake_peer(&mut node);
    peer.send(&FakePeer::hello(Some(g)));
    node.poll(0);
    peer.drain();

    // Five orphans, each waiting on a distinct unknown parent.
    for n in 0..5u8 {
        let phantom = TxId([0xF0 + n; 32]);
        peer.send(&Message::TxPayload {
            attach_ms: 10,
            tx: data_tx(n, phantom, phantom, 10 + n as u64),
        });
    }
    node.poll(20);
    assert_eq!(node.pending_len(), 3, "bounded queue");
    assert_eq!(node.stats().evicted, 2, "oldest two evicted");
}

#[test]
fn serves_gettx_and_tips() {
    let (mut node, g) = node_with_genesis();
    let id = node.attach_local(data_tx(1, g, g, 5), 5).unwrap();
    let mut peer = wire_fake_peer(&mut node);
    peer.send(&FakePeer::hello(Some(g)));
    node.poll(0);
    peer.drain();

    // Each pull gets its own copy of a held payload, and every unheld
    // id is a miss.
    let unknown = TxId([0xEE; 32]);
    peer.send(&Message::GetTxs(vec![id]));
    peer.send(&Message::GetTips);
    peer.send(&Message::GetTxs(vec![id, unknown]));
    peer.send(&Message::GetTxs(vec![unknown]));
    node.poll(10);
    let msgs = peer.drain();
    let served = msgs
        .iter()
        .filter(|m| matches!(m, Message::TxPayload { tx, .. } if tx.id() == id))
        .count();
    assert_eq!(served, 2, "one copy per request, got {msgs:?}");
    assert!(msgs.contains(&Message::Tips(vec![id])));
    assert_eq!(node.stats().tx_sent, 2);
    assert_eq!(node.stats().gettx_misses, 2);
}

#[test]
fn frames_before_hello_are_buffered_not_lost() {
    let (mut node, g) = node_with_genesis();
    let mut peer = wire_fake_peer(&mut node);
    // A digest, a payload and a tips frame arrive before the handshake
    // (a reordering transport can do this); all are processed once
    // Hello lands.
    let child = data_tx(1, g, g, 10);
    let (digested, tipped) = (TxId([0xD1; 32]), TxId([0xD2; 32]));
    peer.send(&Message::Digest(vec![digested]));
    peer.send(&Message::TxPayload { attach_ms: 10, tx: child.clone() });
    peer.send(&Message::Tips(vec![tipped]));
    peer.send(&FakePeer::hello(Some(g)));
    node.poll(0);
    assert!(node.tangle().lock().unwrap().contains(&child.id()));
    let msgs = peer.drain();
    assert!(msgs.contains(&Message::GetTxs(vec![digested])), "got {msgs:?}");
    assert!(msgs.contains(&Message::GetTxs(vec![tipped])), "got {msgs:?}");
}

/// Undecodable frames drop the connection — including tag 1, the
/// per-tx `Announce` frame retired in protocol v3.
#[test]
fn garbage_frame_drops_connection() {
    use crate::transport::Transport;
    let mut retired_announce = vec![1u8];
    retired_announce.extend_from_slice(&[0xAB; 32]);
    for frame in [vec![0xDE, 0xAD, 0xBE, 0xEF], retired_announce] {
        let (mut node, g) = node_with_genesis();
        let mut peer = wire_fake_peer(&mut node);
        peer.send(&FakePeer::hello(Some(g)));
        node.poll(0);
        assert_eq!(node.ready_peers(), 1);
        peer.transport.send(&frame).unwrap();
        node.poll(10);
        assert_eq!(node.stats().invalid_frames, 1, "{frame:?}");
        assert!(node.peers[0].conn.is_none(), "{frame:?}");
    }
}

/// A local broadcast reaches ready peers as a watermark advert at the
/// next flush, served on pull; a peer still awaiting its handshake gets
/// nothing on the wire (its handshake advert covers it).
#[test]
fn credit_events_broadcast_to_ready_peers_only() {
    use biot_credit::Misbehavior;
    use biot_net::time::SimTime;
    let (mut node, g) = node_with_genesis();
    let mut ready = wire_fake_peer(&mut node);
    let mut silent = wire_fake_peer(&mut node);
    ready.send(&FakePeer::hello(Some(g)));
    node.poll(0);
    ready.drain();
    silent.drain(); // only our Hello; never completes the handshake

    let events = vec![
        CreditEvent::validated(NodeId([1; 32]), 1.0, SimTime::from_secs(1)),
        CreditEvent::misbehaved(NodeId([2; 32]), Misbehavior::DoubleSpend, SimTime::from_secs(2)),
    ];
    let origin = node.credit_origin();
    node.broadcast_credit_events(&events, 10);
    node.poll(10 + GossipConfig::default().digest_ms);
    let msgs = ready.drain();
    assert!(
        msgs.contains(&Message::CreditVersions(vec![(origin, 2)])),
        "ready peer gets the watermark, got {msgs:?}"
    );
    ready.send(&Message::GetCredit(vec![(origin, 0)]));
    node.poll(200);
    assert!(
        ready.drain().contains(&Message::CreditEvents { origin, first: 0, events }),
        "pull is served"
    );
    assert_eq!(node.stats().credit_events_sent, 2);
    assert!(silent.drain().is_empty(), "unhandshaken peer gets nothing");
}

#[test]
fn received_credit_events_land_in_the_inbox() {
    use biot_credit::Misbehavior;
    use biot_net::time::SimTime;
    let (mut node, g) = node_with_genesis();
    let mut peer = wire_fake_peer(&mut node);
    peer.send(&FakePeer::hello(Some(g)));
    node.poll(0);
    peer.drain();

    let ev = CreditEvent::misbehaved(NodeId([9; 32]), Misbehavior::LazyTips, SimTime::from_secs(3));
    peer.send(&Message::CreditEvents { origin: 77, first: 0, events: vec![ev] });
    node.poll(10);
    assert_eq!(node.credit_inbox_len(), 1);
    assert_eq!(node.stats().credit_events_received, 1);
    assert_eq!(node.take_credit_events(), vec![(CreditId { origin: 77, seq: 0 }, ev)]);
    assert_eq!(node.credit_inbox_len(), 0, "take drains the inbox");
    assert_eq!(node.credit_watermarks(), BTreeMap::from([(77, 1)]));
}

/// `(first seq, event count)` of every `CreditEvents` frame in `msgs`.
fn credit_frames(msgs: Vec<Message>) -> Vec<(u64, usize)> {
    msgs.into_iter()
        .filter_map(|m| match m {
            Message::CreditEvents { first, events, .. } => Some((first, events.len())),
            _ => None,
        })
        .collect()
}

#[test]
fn large_credit_batches_are_chunked_and_the_inbox_is_capped() {
    use biot_net::time::SimTime;
    let (mut a, g) = node_with_genesis();
    let origin = a.credit_origin();
    let events: Vec<CreditEvent> = (0..1_500u64)
        .map(|i| CreditEvent::validated(NodeId([(i % 7) as u8; 32]), 1.0, SimTime::from_millis(i)))
        .collect();
    a.broadcast_credit_events(&events, 0);

    // The handshake advertises the watermark, and each pull is answered
    // with one frame under the cap.
    let mut peer = wire_fake_peer(&mut a);
    peer.send(&FakePeer::hello(Some(g)));
    a.poll(10);
    assert!(peer.drain().contains(&Message::CreditVersions(vec![(origin, 1_500)])));
    for (k, (from, len)) in [(0u64, 512usize), (512, 512), (1_024, 476)].into_iter().enumerate() {
        peer.send(&Message::GetCredit(vec![(origin, from)]));
        a.poll(20 + k as u64);
        assert_eq!(credit_frames(peer.drain()), vec![(from, len)], "pull from {from}");
    }

    // A peer sending far more events than the inbox cap: the overflow is
    // counted, not kept, and the watermark stops where the inbox filled,
    // so the rest is pulled again later.
    let (mut b, g2) = node_with_genesis();
    let mut flooder = wire_fake_peer(&mut b);
    flooder.send(&FakePeer::hello(Some(g2)));
    b.poll(0);
    flooder.drain();
    let total = MAX_CREDIT_INBOX as u64 + 1_000;
    let flood: Vec<CreditEvent> = (0..total)
        .map(|i| CreditEvent::validated(NodeId([3; 32]), 1.0, SimTime::from_millis(i)))
        .collect();
    for (k, burst) in flood.chunks(CREDIT_EVENTS_PER_FRAME).enumerate() {
        let first = (k * CREDIT_EVENTS_PER_FRAME) as u64;
        flooder.send(&Message::CreditEvents { origin: 77, first, events: burst.to_vec() });
    }
    b.poll(10);
    assert_eq!(b.credit_inbox_len(), MAX_CREDIT_INBOX, "inbox bounded");
    assert_eq!(b.stats().credit_events_dropped, 1_000, "overflow accounted");
    assert_eq!(b.credit_watermarks()[&77], MAX_CREDIT_INBOX as u64);
}

#[test]
fn dead_peer_demoted_after_max_failures() {
    use crate::transport::{FnConnector, TransportError};
    let cfg = GossipConfig {
        backoff_base_ms: 100,
        backoff_max_ms: 800,
        max_connect_failures: 4,
        backoff_jitter_pct: 0,
        ..GossipConfig::default()
    };
    let mut node = GossipNode::with_empty_tangle(cfg);
    let i = node.connect(Box::new(FnConnector(|| Err(TransportError::Closed))));
    let mut now = 0u64;
    let mut seen_backoffs = Vec::new();
    for _ in 0..200 {
        node.poll(now);
        let info = node.peer_info(i);
        if info.state == PeerState::Dead {
            break;
        }
        seen_backoffs.push(info.backoff_ms);
        now += 50;
    }
    assert_eq!(node.peer_info(i).state, PeerState::Dead);
    // Exponential: 100, 200, 400, then capped at 800.
    seen_backoffs.dedup();
    assert_eq!(seen_backoffs, vec![100, 200, 400, 800]);
    let dials_before_death = node.stats().disconnects;
    node.poll(now + 10_000);
    assert_eq!(node.stats().disconnects, dials_before_death, "dead peers are left alone");
}

/// Satellite: backoff jitter is drawn from the node's seeded RNG —
/// same seed, same delays; the jittered delays differ from the bare
/// exponential sequence.
#[test]
fn backoff_jitter_is_seeded_and_deterministic() {
    use crate::transport::{FnConnector, TransportError};
    let run = |seed: u64, jitter: u64| -> Vec<u64> {
        let cfg = GossipConfig {
            backoff_base_ms: 100,
            backoff_max_ms: 10_000,
            max_connect_failures: 6,
            backoff_jitter_pct: jitter,
            seed,
            ..GossipConfig::default()
        };
        let mut node = GossipNode::with_empty_tangle(cfg);
        let i = node.connect(Box::new(FnConnector(|| Err(TransportError::Closed))));
        let mut now = 0u64;
        let mut backoffs = Vec::new();
        for _ in 0..400 {
            node.poll(now);
            let info = node.peer_info(i);
            if info.state == PeerState::Dead {
                break;
            }
            backoffs.push(info.backoff_ms);
            now += 25;
        }
        backoffs.dedup();
        backoffs
    };
    let a = run(42, 25);
    let b = run(42, 25);
    assert_eq!(a, b, "two seeded runs agree");
    let exact = run(42, 0);
    assert_ne!(a, exact, "jitter actually perturbs the delays");
    assert_eq!(exact, vec![100, 200, 400, 800, 1600, 3200]);
    // Every jittered delay stays within ±25% of its exponential rung.
    for (got, want) in a.iter().zip(exact.iter()) {
        let spread = want / 4;
        assert!(
            *got >= want - spread && *got <= want + spread,
            "{got} outside {want}±{spread}"
        );
    }
}

/// Satellite: a missing parent is re-requested from a *different*
/// peer after the retry window, not hammered at the stalled one.
#[test]
fn stale_rerequest_rotates_to_a_different_peer() {
    let cfg = GossipConfig {
        request_retry_ms: 100,
        anti_entropy_ms: 200,
        ..GossipConfig::default()
    };
    let mut node = GossipNode::new(Arc::new(Mutex::new(Tangle::new())), cfg);
    let g = node.tangle().lock().unwrap().attach_genesis(NodeId([0; 32]), 0);
    let mut stalled = wire_fake_peer(&mut node);
    let mut healthy = wire_fake_peer(&mut node);
    stalled.send(&FakePeer::hello(Some(g)));
    healthy.send(&FakePeer::hello(Some(g)));
    node.poll(0);
    stalled.drain();
    healthy.drain();

    // A child referencing an unknown parent arrives from the stalled
    // peer; the first pull goes back to it (it claimed to hold the
    // cone) — and then it never answers.
    let parent = data_tx(1, g, g, 10);
    let child = data_tx(2, parent.id(), parent.id(), 20);
    stalled.send(&Message::TxPayload { attach_ms: 20, tx: child });
    node.poll(10);
    let first: Vec<Message> = stalled.drain();
    assert!(
        first.contains(&Message::GetTxs(vec![parent.id()])),
        "initial request goes to the source, got {first:?}"
    );
    assert!(
        !healthy.drain().contains(&Message::GetTxs(vec![parent.id()])),
        "no shotgun to every peer on first request"
    );

    // Past the retry window the re-request must rotate away from the
    // stalled source.
    node.poll(250);
    let retried = healthy.drain();
    assert!(
        retried.contains(&Message::GetTxs(vec![parent.id()])),
        "stale request rotates to the other peer, got {retried:?}"
    );
    assert!(
        !stalled.drain().contains(&Message::GetTxs(vec![parent.id()])),
        "the stalled peer is not asked again while an alternative exists"
    );
}

/// Digest relay is eager/lazy: each attach pushes the payload to
/// exactly one fresh peer, the other peers get a batched id digest
/// at the flush tick, and pulls are served in batches.
#[test]
fn digest_mode_pushes_one_copy_and_digests_the_rest() {
    let cfg = GossipConfig {
        digest_ms: 100,
        heartbeat_ms: 0,
        anti_entropy_ms: 1_000_000, // keep tips exchange out of frame
        peer_exchange_ms: 0,
        ..GossipConfig::default()
    };
    let mut node = GossipNode::with_empty_tangle(cfg);
    let g = node.tangle().lock().unwrap().attach_genesis(NodeId([0; 32]), 0);
    let mut p0 = wire_fake_peer(&mut node);
    let mut p1 = wire_fake_peer(&mut node);
    p0.send(&FakePeer::hello(Some(g)));
    p1.send(&FakePeer::hello(Some(g)));
    node.poll(0);
    p0.drain();
    p1.drain();

    let a = node.attach_local(data_tx(1, g, g, 10), 10).unwrap();
    node.poll(150); // past the flush tick
    let (m0, m1) = (p0.drain(), p1.drain());
    let payload_in =
        |ms: &[Message]| ms.iter().any(|m| matches!(m, Message::TxPayload { tx, .. } if tx.id() == a));
    let digest_in =
        |ms: &[Message]| ms.iter().any(|m| matches!(m, Message::Digest(ids) if ids.contains(&a)));
    assert_eq!(
        payload_in(&m0) as u8 + payload_in(&m1) as u8,
        1,
        "exactly one eager payload copy: {m0:?} / {m1:?}"
    );
    assert_eq!(
        digest_in(&m0) as u8 + digest_in(&m1) as u8,
        1,
        "the other peer gets the id digest: {m0:?} / {m1:?}"
    );
    assert!(
!(payload_in(&m0) && digest_in(&m0) || payload_in(&m1) && digest_in(&m1)),
        "no peer gets both copies"
    );
    assert_eq!(node.stats().eager_pushes, 1);

    // Batched pulls are served in order.
    let b = node.attach_local(data_tx(2, a, g, 11), 11).unwrap();
    let c = node.attach_local(data_tx(3, b, a, 12), 12).unwrap();
    p0.drain();
    p1.drain();
    p0.send(&Message::GetTxs(vec![b, c]));
    node.poll(200);
    let served: Vec<TxId> = p0
        .drain()
        .into_iter()
        .filter_map(|m| match m {
            Message::TxPayload { tx, .. } => Some(tx.id()),
            _ => None,
        })
        .collect();
    assert_eq!(served, vec![b, c]);
}

#[test]
fn digest_receiver_pulls_only_unknown_ids() {
    let cfg = GossipConfig {
        heartbeat_ms: 0,
        anti_entropy_ms: 1_000_000,
        peer_exchange_ms: 0,
        ..GossipConfig::default()
    };
    let mut node = GossipNode::with_empty_tangle(cfg);
    let g = node.tangle().lock().unwrap().attach_genesis(NodeId([0; 32]), 0);
    let held = node.attach_local(data_tx(1, g, g, 5), 5).unwrap();
    let mut peer = wire_fake_peer(&mut node);
    peer.send(&FakePeer::hello(Some(g)));
    node.poll(0);
    peer.drain();

    let phantom = TxId([0xAB; 32]);
    peer.send(&Message::Digest(vec![held, phantom]));
    node.poll(10);
    let msgs = peer.drain();
    assert!(
        msgs.contains(&Message::GetTxs(vec![phantom])),
        "only the unknown id is pulled, got {msgs:?}"
    );
}

/// Duplicate suppression: a transaction digest-announced by a peer is
/// never digest-announced back to it, and a second delivery of the
/// same payload is dropped as a duplicate.
#[test]
fn digest_relay_never_echoes_to_a_known_holder() {
    let cfg = GossipConfig {
        digest_ms: 100,
        heartbeat_ms: 0,
        anti_entropy_ms: 1_000_000,
        peer_exchange_ms: 0,
        ..GossipConfig::default()
    };
    let mut node = GossipNode::with_empty_tangle(cfg);
    let g = node.tangle().lock().unwrap().attach_genesis(NodeId([0; 32]), 0);
    let mut src = wire_fake_peer(&mut node);
    let mut other = wire_fake_peer(&mut node);
    src.send(&FakePeer::hello(Some(g)));
    other.send(&FakePeer::hello(Some(g)));
    node.poll(0);
    src.drain();
    other.drain();

    let tx = data_tx(1, g, g, 10);
    let id = tx.id();
    src.send(&Message::TxPayload { attach_ms: 10, tx: tx.clone() });
    node.poll(10);
    node.poll(150); // digest flush
    let to_src = src.drain();
    assert!(
        !to_src.iter().any(|m| matches!(m, Message::Digest(ids) if ids.contains(&id))
            || matches!(m, Message::TxPayload { tx, .. } if tx.id() == id)),
        "no echo back to the sender, got {to_src:?}"
    );
    // A relayed (non-local) attach stays lazy: the other peer is
    // told by digest, not handed an unsolicited payload copy.
    let to_other = other.drain();
    assert!(
        to_other
            .iter()
            .any(|m| matches!(m, Message::Digest(ids) if ids.contains(&id))),
        "the other peer is told by digest, got {to_other:?}"
    );
    assert!(
        !to_other
            .iter()
            .any(|m| matches!(m, Message::TxPayload { tx, .. } if tx.id() == id)),
        "relayed attaches are not eager-pushed, got {to_other:?}"
    );

    // Redundant second delivery: counted, not re-attached.
    let dups_before = node.stats().duplicates;
    other.send(&Message::TxPayload { attach_ms: 10, tx });
    node.poll(200);
    assert_eq!(node.stats().duplicates, dups_before + 1);
}

/// Peer exchange: a node with one seed link discovers a third peer's
/// address and dials it through its `Dialer`.
#[test]
fn peer_exchange_discovers_and_dials_new_peers() {
    use crate::transport::FnDialer;
    use std::sync::mpsc;

    let cfg = GossipConfig {
        node_id: 1,
        listen_addr: Some("sim:1".into()),
        peer_exchange_ms: 500,
        heartbeat_ms: 0,
        ..GossipConfig::default()
    };
    let mut node = GossipNode::with_empty_tangle(cfg);
    let g = node.tangle().lock().unwrap().attach_genesis(NodeId([0; 32]), 0);
    let (dialed_tx, dialed_rx) = mpsc::channel::<String>();
    node.set_dialer(Box::new(FnDialer(move |addr: &str| {
        dialed_tx.send(addr.to_string()).unwrap();
        let (ours, _theirs, link) = MemTransport::pair();
        std::mem::forget(link); // keep the pair alive for the test
        Ok(Box::new(ours) as Box<dyn Transport>)
    })));
    let mut seed = wire_fake_peer(&mut node);
    seed.send(&FakePeer::hello_as(2, "sim:2", Some(g)));
    node.poll(0);
    seed.drain();
    assert_eq!(node.known_addr_count(), 1, "seed's address learned from its hello");

    // The seed gossips a third peer; the node must open a slot for it
    // and dial on the next poll.
    seed.send(&Message::PeerExchange(vec![PeerEntry {
        node_id: 3,
        addr: "sim:3".into(),
    }]));
    node.poll(10);
    node.poll(20);
    assert_eq!(node.stats().peers_discovered, 1);
    assert_eq!(dialed_rx.try_recv().unwrap(), "sim:3");
    assert_eq!(node.known_addr_count(), 2);

    // Entries for ourselves are ignored.
    seed.send(&Message::PeerExchange(vec![PeerEntry {
        node_id: 1,
        addr: "sim:1".into(),
    }]));
    node.poll(30);
    assert_eq!(node.stats().peers_discovered, 1, "own id never dialed");
}

fn quiet_cfg() -> GossipConfig {
    GossipConfig {
        digest_ms: 25,
        heartbeat_ms: 0,
        anti_entropy_ms: 1_000_000,
        peer_exchange_ms: 0,
        ..GossipConfig::default()
    }
}

/// A node with three handshaken fake peers.
fn node_with_three_peers() -> (GossipNode, [FakePeer; 3]) {
    let mut node = GossipNode::with_empty_tangle(quiet_cfg());
    let g = node.tangle().lock().unwrap().attach_genesis(NodeId([0; 32]), 0);
    let mut peers = [0, 1, 2].map(|_| wire_fake_peer(&mut node));
    for p in &mut peers {
        p.send(&FakePeer::hello(Some(g)));
    }
    node.poll(0);
    for p in &mut peers {
        p.drain();
    }
    (node, peers)
}

fn is_credit(m: &Message) -> bool {
    matches!(m, Message::CreditVersions(_) | Message::CreditEvents { .. } | Message::GetCredit(_))
}

/// Mesh credit relay: the same event arriving twice (two peers) lands
/// in the inbox exactly once — the ledger would otherwise double-count
/// it — by its seq alone, and its watermark is advertised onward to the
/// peer that lacks it only.
#[test]
fn mesh_credit_events_are_deduped_and_relayed_once() {
    use biot_net::time::SimTime;
    let (mut node, [mut a, mut b, mut c]) = node_with_three_peers();
    let ev = CreditEvent::validated(NodeId([7; 32]), 2.0, SimTime::from_secs(9));
    a.send(&Message::CreditVersions(vec![(77, 1)]));
    b.send(&Message::CreditVersions(vec![(77, 1)]));
    node.poll(10);
    // One pull, to the first advertiser; the second advert rides it.
    assert!(a.drain().contains(&Message::GetCredit(vec![(77, 0)])));
    assert!(!b.drain().iter().any(is_credit), "one pull in flight per origin");
    a.send(&Message::CreditEvents { origin: 77, first: 0, events: vec![ev] });
    node.poll(20);
    assert_eq!(node.credit_inbox_len(), 1);

    // A redundant copy is deduped.
    b.send(&Message::CreditEvents { origin: 77, first: 0, events: vec![ev] });
    node.poll(30);
    assert_eq!(node.credit_inbox_len(), 1, "second copy deduped");
    assert_eq!(node.stats().credit_events_deduped, 1);

    // The flush advertises the new watermark to `c` only.
    node.poll(60);
    assert_eq!(c.drain(), vec![Message::CreditVersions(vec![(77, 1)])]);
    assert!(!a.drain().iter().chain(b.drain().iter()).any(is_credit));
}

/// A pull continues where the log still falls short of the highest
/// advertised watermark, at the peer that advertised it, and a pull is
/// served from the log; pulls for unknown origins are skipped.
#[test]
fn mesh_credit_spreads_by_watermark_and_pull() {
    use biot_net::time::SimTime;
    let (mut node, [mut src, mut lacking, mut holding]) = node_with_three_peers();
    let evs: Vec<CreditEvent> = (0..3)
        .map(|k| CreditEvent::validated(NodeId([7; 32]), 2.0, SimTime::from_secs(9 + k)))
        .collect();
    holding.send(&Message::CreditVersions(vec![(77, 2)]));
    node.poll(10);
    assert!(
        holding.drain().contains(&Message::GetCredit(vec![(77, 0)])),
        "node pulls what it lacks from the advertiser"
    );
    src.send(&Message::CreditVersions(vec![(77, 3)]));
    node.poll(15);
    assert!(!src.drain().iter().any(is_credit), "one pull in flight per origin");
    holding.send(&Message::CreditEvents { origin: 77, first: 0, events: evs[..2].to_vec() });
    node.poll(20);
    assert!(
        src.drain().contains(&Message::GetCredit(vec![(77, 2)])),
        "the pull continues at the peer that advertised more"
    );
    src.send(&Message::CreditEvents { origin: 77, first: 2, events: evs[2..].to_vec() });
    node.poll(25);
    let got: Vec<(u64, CreditEvent)> =
        node.take_credit_events().into_iter().map(|(id, ev)| (id.seq, ev)).collect();
    assert_eq!(got, (0..).zip(evs.iter().copied()).collect::<Vec<_>>());

    // The flush advertises to the peers that lack seq 2.
    node.poll(60);
    assert!(lacking.drain().contains(&Message::CreditVersions(vec![(77, 3)])));
    assert!(holding.drain().contains(&Message::CreditVersions(vec![(77, 3)])));
    assert!(!src.drain().iter().any(is_credit));
    lacking.send(&Message::GetCredit(vec![(77, 0), (0xEE, 0)]));
    node.poll(70);
    assert_eq!(lacking.drain(), vec![Message::CreditEvents { origin: 77, first: 0, events: evs }]);
}

/// Credit events a peer receives, flattened across frames.
fn credit_events_in(msgs: Vec<Message>) -> Vec<CreditEvent> {
    msgs.into_iter()
        .filter_map(|m| match m {
            Message::CreditEvents { events, .. } => Some(events),
            _ => None,
        })
        .flatten()
        .collect()
}

/// The handshake advertises held credit to late joiners: to a peer with
/// no slot at broadcast time, and to one whose transport was attached
/// but whose Hello had not landed. Nothing is pushed: a peer gets the
/// events only by pulling them.
#[test]
fn credit_replay_covers_late_handshakes() {
    use biot_net::time::SimTime;
    let cfg = GossipConfig {
        digest_ms: 50,
        heartbeat_ms: 0,
        peer_exchange_ms: 0,
        ..GossipConfig::default()
    };
    let mut node = GossipNode::with_empty_tangle(cfg);
    let origin = node.credit_origin();
    let g = node.tangle().lock().unwrap().attach_genesis(NodeId([0; 32]), 0);
    let ev = CreditEvent::validated(NodeId([5; 32]), 1.5, SimTime::from_secs(4));
    node.broadcast_credit_events(&[ev], 0); // no peers yet

    let mut late = wire_fake_peer(&mut node);
    late.send(&FakePeer::hello(Some(g)));
    node.poll(10);
    let msgs = late.drain();
    assert!(
        msgs.contains(&Message::CreditVersions(vec![(origin, 1)])),
        "late joiner gets the watermark, got {msgs:?}"
    );

    // Attached but not yet handshaken when the next event goes out.
    let mut midway = wire_fake_peer(&mut node);
    node.poll(20);
    let ev2 = CreditEvent::validated(NodeId([6; 32]), 2.5, SimTime::from_secs(5));
    node.broadcast_credit_events(&[ev2], 20);
    assert!(!midway.drain().iter().any(is_credit), "nothing before Hello");
    midway.send(&FakePeer::hello(Some(g)));
    node.poll(30);
    assert!(midway.drain().contains(&Message::CreditVersions(vec![(origin, 2)])));
    midway.send(&Message::GetCredit(vec![(origin, 0)]));
    node.poll(40);
    assert_eq!(credit_events_in(midway.drain()), vec![ev, ev2], "served after Hello");
    node.poll(200); // past the flush armed by the broadcast
    let after = midway.drain();
    assert!(credit_events_in(after.clone()).is_empty(), "no second copy, got {after:?}");
}

/// An origin's log keeps the newest `CREDIT_LOG` events: a pull from
/// before them starts at the oldest held, and a replica behind by more
/// than the log counts the gap, then applies the rest exactly once.
#[test]
fn credit_replay_cap_evicts_oldest_first() {
    use biot_net::time::SimTime;
    let (mut node, g) = node_with_genesis();
    let origin = node.credit_origin();
    let events: Vec<CreditEvent> = (0..CREDIT_LOG as u64 + 3)
        .map(|i| CreditEvent::validated(NodeId([1; 32]), 1.0, SimTime::from_millis(i)))
        .collect();
    for ev in &events {
        node.broadcast_credit_events(&[*ev], 0);
    }
    let mut late = wire_fake_peer(&mut node);
    late.send(&FakePeer::hello(Some(g)));
    node.poll(10);
    late.drain();
    late.send(&Message::GetCredit(vec![(origin, 0)]));
    node.poll(20);
    assert_eq!(credit_frames(late.drain()), vec![(3, CREDIT_EVENTS_PER_FRAME)]);

    let mut replica =
        GossipNode::with_empty_tangle(GossipConfig { node_id: 2, ..GossipConfig::default() });
    let (x, y, _link) = MemTransport::pair();
    node.add_transport(Box::new(x), 20);
    replica.add_transport(Box::new(y), 20);
    for t in 3..100 {
        node.poll(t * 10);
        replica.poll(t * 10);
    }
    assert_eq!(replica.stats().credit_gaps, 3);
    let got = replica.take_credit_events();
    assert_eq!(got.iter().map(|(_, ev)| *ev).collect::<Vec<_>>(), events[3..].to_vec());
    assert!(got.iter().zip(3..).all(|((id, _), seq)| *id == CreditId { origin, seq }));
}

/// The digest flush timer runs only while a buffer holds work: an
/// idle node with ready peers has no flush deadline, a local attach
/// arms one `digest_ms` out, and the flush disarms it.
#[test]
fn digest_flush_is_armed_only_while_buffers_hold_work() {
    let cfg = GossipConfig {
        digest_ms: 100,
        heartbeat_ms: 0,
        anti_entropy_ms: 1_000_000,
        peer_exchange_ms: 0,
        ..GossipConfig::default()
    };
    let mut node = GossipNode::with_empty_tangle(cfg);
    let g = node.tangle().lock().unwrap().attach_genesis(NodeId([0; 32]), 0);
    let mut p0 = wire_fake_peer(&mut node);
    let mut p1 = wire_fake_peer(&mut node);
    p0.send(&FakePeer::hello(Some(g)));
    p1.send(&FakePeer::hello(Some(g)));
    node.poll(0);
    node.poll(5);
    assert_eq!(node.ready_peers(), 2);
    let flush = |n: &GossipNode| n.timers.deadline_of(&GossipTimer::DigestFlush);
    assert_eq!(flush(&node), None, "idle: no flush armed");
    assert_eq!(node.next_deadline(), Some(1_000_000), "only anti-entropy is due");

    node.attach_local(data_tx(1, g, g, 10), 10).unwrap();
    assert_eq!(flush(&node), Some(110), "first enqueue arms the flush");
    node.attach_local(data_tx(2, g, g, 40), 40).unwrap();
    assert_eq!(flush(&node), Some(110), "later enqueues ride the same window");
    assert_eq!(node.next_deadline(), Some(110));

    node.poll(110);
    assert!(
        p0.drain().iter().chain(p1.drain().iter()).any(|m| matches!(m, Message::Digest(_))),
        "the flush sent the digests"
    );
    assert_eq!(flush(&node), None, "the flush disarms itself");
    assert_eq!(node.next_deadline(), Some(1_000_000));
}

/// A node dialing itself (its own address echoed back through peer
/// exchange) recognizes its own id in the hello and kills the link.
#[test]
fn self_connection_is_refused() {
    let cfg = GossipConfig { node_id: 7, ..GossipConfig::default() };
    let mut node = GossipNode::with_empty_tangle(cfg);
    let g = node.tangle().lock().unwrap().attach_genesis(NodeId([0; 32]), 0);
    let mut peer = wire_fake_peer(&mut node);
    peer.send(&FakePeer::hello_as(7, "sim:7", Some(g)));
    node.poll(0);
    assert_eq!(node.peer_info(0).state, PeerState::Dead);
    assert_eq!(node.ready_peers(), 0);
}

/// Two identified nodes with links in both directions keep exactly
/// one: the surviving slot inherits the loser's redial ability.
#[test]
fn duplicate_links_collapse_to_one() {
    let cfg = GossipConfig { node_id: 1, ..GossipConfig::default() };
    let mut node = GossipNode::with_empty_tangle(cfg);
    let g = node.tangle().lock().unwrap().attach_genesis(NodeId([0; 32]), 0);
    let mut first = wire_fake_peer(&mut node);
    first.send(&FakePeer::hello_as(9, "sim:9", Some(g)));
    node.poll(0);
    first.drain();
    assert_eq!(node.ready_peers(), 1);

    let mut second = wire_fake_peer(&mut node);
    second.send(&FakePeer::hello_as(9, "sim:9", Some(g)));
    node.poll(10);
    assert_eq!(node.ready_peers(), 1, "duplicate link resolved");
    let states: Vec<PeerState> =
        (0..2).map(|i| node.peer_info(i).state).collect();
    assert!(states.contains(&PeerState::Ready));
    assert!(states.contains(&PeerState::Dead));
}

/// Frames past the pre-handshake buffer are dropped and counted; the
/// buffered ones still run once Hello lands.
#[test]
fn prehello_overflow_is_counted() {
    let (mut node, g) = node_with_genesis();
    let mut peer = wire_fake_peer(&mut node);
    let excess = 7;
    for n in 0..(MAX_PREHELLO + excess) as u64 {
        let mut id = [0u8; 32];
        id[..8].copy_from_slice(&n.to_be_bytes());
        peer.send(&Message::Tips(vec![TxId(id)]));
    }
    node.poll(0);
    assert_eq!(node.stats().prehello_dropped, excess as u64);
    peer.send(&FakePeer::hello(Some(g)));
    node.poll(10);
    let asked = peer.drain().iter().filter(|m| matches!(m, Message::GetTxs(_))).count();
    assert_eq!(asked, MAX_PREHELLO, "every buffered tip is pulled");
    assert_eq!(node.stats().prehello_dropped, excess as u64);
}

/// Adverts of more origins than a node tracks are refused origin by
/// origin, and counted.
#[test]
fn credit_origin_flood_past_the_origin_cap_is_counted() {
    use crate::wire::MAX_CREDIT_ORIGINS;
    let (mut node, g) = node_with_genesis();
    let mut peer = wire_fake_peer(&mut node);
    peer.send(&FakePeer::hello(Some(g)));
    node.poll(0);
    peer.drain();
    let excess = 5;
    let adverts: Vec<(u64, u64)> =
        (1..=(MAX_CREDIT_ORIGINS + excess) as u64).map(|o| (o, 1)).collect();
    for chunk in adverts.chunks(MAX_CREDIT_ORIGINS) {
        peer.send(&Message::CreditVersions(chunk.to_vec()));
    }
    node.poll(10);
    assert_eq!(node.stats().credit_origins_refused, excess as u64);
    assert_eq!(node.stats().requests_sent, MAX_CREDIT_ORIGINS as u64);
}

/// A credit pull whose answer dies with the link is served again on the
/// redialed link: the new handshake advertises the watermark afresh.
#[test]
fn failed_credit_serve_is_replayed_after_redial() {
    use crate::transport::{FnConnector, MemLink};
    use biot_net::time::SimTime;
    use std::sync::mpsc;
    let cfg = GossipConfig {
        heartbeat_ms: 0,
        anti_entropy_ms: 1_000_000,
        peer_exchange_ms: 0,
        backoff_jitter_pct: 0,
        ..GossipConfig::default()
    };
    let mut node = GossipNode::with_empty_tangle(cfg);
    let origin = node.credit_origin();
    let g = node.tangle().lock().unwrap().attach_genesis(NodeId([0; 32]), 0);
    let (far_tx, far_rx) = mpsc::channel::<(MemTransport, MemLink)>();
    let i = node.connect(Box::new(FnConnector(move || {
        let (ours, theirs, link) = MemTransport::pair();
        far_tx.send((theirs, link)).unwrap();
        Ok(Box::new(ours) as Box<dyn Transport>)
    })));
    node.poll(0);
    let (theirs, link) = far_rx.try_recv().expect("first dial");
    let mut peer = FakePeer { transport: theirs };
    peer.send(&FakePeer::hello(Some(g)));
    node.poll(10);
    assert_eq!(node.ready_peers(), 1);
    peer.drain();

    let ev = CreditEvent::validated(NodeId([4; 32]), 1.0, SimTime::from_secs(2));
    node.broadcast_credit_events(&[ev], 20);
    peer.send(&Message::GetCredit(vec![(origin, 0)]));
    link.kill();
    node.poll(30); // reads the pull, then fails to answer it
    assert_eq!(node.peer_info(i).state, PeerState::Backoff);
    assert_eq!(node.stats().credit_events_sent, 0);

    let redial_at = node.peer_info(i).next_retry_ms;
    node.poll(redial_at);
    let (theirs, _link) = far_rx.try_recv().expect("redial");
    let mut peer = FakePeer { transport: theirs };
    peer.send(&FakePeer::hello(Some(g)));
    node.poll(redial_at + 10);
    assert!(peer.drain().contains(&Message::CreditVersions(vec![(origin, 1)])));
    peer.send(&Message::GetCredit(vec![(origin, 0)]));
    node.poll(redial_at + 20);
    assert_eq!(credit_events_in(peer.drain()), vec![ev], "served on the new link");
}
