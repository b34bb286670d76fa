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
