//! Cold-start convergence over real TCP loopback sockets — the CI smoke
//! test for the socket layer. Unlike the in-memory suite this runs on
//! wall time, so it polls in a sleep loop under a hard deadline instead
//! of asserting exact round counts.

mod common;

use biot_gossip::node::{GossipConfig, GossipNode};
use biot_gossip::tcp::{TcpAcceptor, TcpConnector, TcpTransport};
use std::time::{Duration, Instant};

#[test]
fn tcp_cold_start_converges_on_loopback() {
    let established = common::build_established_tangle(5, 260);
    let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().unwrap();

    let mut a = GossipNode::new(std::sync::Arc::clone(&established), GossipConfig::default());
    let mut b = GossipNode::with_empty_tangle(GossipConfig::default());
    b.connect(Box::new(TcpConnector { addr }));

    let target = established.lock().unwrap().len();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(60);
    loop {
        let now = start.elapsed().as_millis() as u64;
        for stream in acceptor.accept_burst(now, 1, 1) {
            a.add_transport(Box::new(TcpTransport::accepted(stream)), now);
        }
        a.poll(now);
        b.poll(now);
        if b.tangle().lock().unwrap().len() == target && b.pending_len() == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "TCP sync did not converge in 60s: replica {} of {target}, pending {}",
            b.tangle().lock().unwrap().len(),
            b.pending_len()
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    common::assert_converged(&established, b.tangle());
    assert!(b.stats().handshakes >= 1);
    assert_eq!(b.stats().rejected, 0);
}

/// A peer that stops reading while its partner keeps sending is not
/// dropped: once its send queue passes the 4 MiB cap the sender sheds
/// frames instead, and when the reader resumes the repair paths — the
/// tips exchange and the credit watermarks — bring it to the identical
/// ledger and credit log.
#[test]
fn stalled_reader_is_shed_to_and_catches_up() {
    use biot_credit::{CreditEvent, CreditId};
    use biot_net::time::SimTime;
    use biot_tangle::tx::{NodeId, Payload, TransactionBuilder};

    let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().unwrap();
    let cfg = |node_id| GossipConfig { node_id, anti_entropy_ms: 100, ..GossipConfig::default() };
    let mut a = GossipNode::with_empty_tangle(cfg(1));
    let genesis = a.tangle().lock().unwrap().attach_genesis(NodeId([0xAA; 32]), 0);
    let mut b = GossipNode::with_empty_tangle(cfg(2));
    b.connect(Box::new(TcpConnector { addr }));
    let start = Instant::now();
    let now = || start.elapsed().as_millis() as u64;
    let deadline = start + Duration::from_secs(60);
    let mut taken: Vec<(CreditId, CreditEvent)> = Vec::new();
    let mut pump = |a: &mut GossipNode, b: &mut GossipNode, done: &dyn Fn(&GossipNode, &GossipNode) -> bool| {
        while !done(a, b) {
            for stream in acceptor.accept_burst(now(), 1, 1) {
                a.add_transport(Box::new(TcpTransport::accepted(stream)), now());
            }
            a.poll(now());
            b.poll(now());
            taken.extend(b.take_credit_events());
            assert!(Instant::now() < deadline, "no progress in 60 s: {:?}", b.stats());
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    pump(&mut a, &mut b, &|a, b| a.ready_peers() == 1 && b.ready_peers() == 1);

    // `b` stops reading; `a` attaches 32 KiB transactions, each
    // eager-pushed to `b`, with a credit event each, until the socket
    // buffers and the 4 MiB queue are full and frames are shed, then 100
    // more.
    let mut parent = genesis;
    let mut events = Vec::new();
    let (mut k, mut after_shed) = (0u32, 0);
    while after_shed < 100 {
        assert!(k < 4_000, "no frame shed after {k} transactions: {:?}", a.stats());
        let mut issuer = [0u8; 32];
        issuer[..4].copy_from_slice(&k.to_be_bytes());
        let tx = TransactionBuilder::new(NodeId(issuer))
            .parents(parent, genesis)
            .payload(Payload::Data(vec![k as u8; 32 * 1024]))
            .timestamp_ms(now())
            .build();
        parent = a.attach_local(tx, now()).unwrap();
        let ev = CreditEvent::validated(NodeId([7; 32]), 1.0, SimTime::from_millis(u64::from(k)));
        a.broadcast_credit_events(&[ev], now());
        events.push(ev);
        a.poll(now());
        k += 1;
        after_shed += u32::from(a.stats().frames_shed > 0);
    }

    let target = a.tangle().lock().unwrap().len();
    pump(&mut a, &mut b, &|a, b| {
        b.tangle().lock().unwrap().len() == target
            && b.pending_len() == 0
            && b.credit_watermarks() == a.credit_watermarks()
    });
    taken.extend(b.take_credit_events());
    assert_eq!((a.stats().disconnects, b.stats().disconnects), (0, 0), "the link stayed up");
    assert_eq!((a.ready_peers(), b.ready_peers()), (1, 1));
    {
        let (ta, tb) = (a.tangle().lock().unwrap(), b.tangle().lock().unwrap());
        assert_eq!(ta.tips(), tb.tips());
        for tx in ta.iter() {
            let id = tx.id();
            assert_eq!(tb.get(&id), Some(tx), "replica differs at {id:?}");
            assert_eq!(ta.cumulative_weight(&id), tb.cumulative_weight(&id));
        }
    }
    let origin = a.credit_origin();
    let want: Vec<(CreditId, CreditEvent)> =
        (0..).zip(events).map(|(seq, ev)| (CreditId { origin, seq }, ev)).collect();
    assert_eq!(taken, want, "every credit event exactly once, in seq order");
}
