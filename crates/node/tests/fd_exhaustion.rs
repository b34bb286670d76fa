//! Every listener survives a full fd table.
//!
//! The fd table is process-wide and the tests of one binary run in
//! parallel, so this binary holds a single test: one that fills the
//! table would starve any neighbour of sockets.
//!
//! A full table makes `accept(2)` fail with `EMFILE` before it even looks
//! at the backlog. That must be a counted drop that parks the listener
//! for a short backoff — never an error that stops the event loop, and
//! never a reason to close connections already accepted.

use biot_gossip::tcp::{TcpAcceptor, ACCEPT_BACKOFF_MS};
use biot_node::role::{ArchivalNode, Role, RoleConfig};
use biot_node::EventLoop;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// `EMFILE`: the process is at its fd limit.
const EMFILE: i32 = 24;

/// Opens `/dev/null` until the process hits its fd limit. Dropping the
/// result frees the table again.
fn hoard_fds() -> Vec<File> {
    let mut hoard = Vec::new();
    loop {
        match File::open("/dev/null") {
            Ok(f) => hoard.push(f),
            Err(e) if e.raw_os_error() == Some(EMFILE) => return hoard,
            Err(e) => panic!("filling the fd table failed with {e}"),
        }
        assert!(
            hoard.len() < 1 << 20,
            "fd limit too high to exhaust here; lower `ulimit -n`"
        );
    }
}

#[test]
fn every_listener_survives_fd_exhaustion() {
    event_loop_turn_survives_a_full_fd_table();
    burst_keeps_the_streams_it_accepted_before_exhaustion();
}

/// An archival member with HTTP bound and a gossip acceptor, one dial
/// pending on each: a turn with the fd table full returns `Ok`, and both
/// dials are served once the table frees and the backoff has passed.
fn event_loop_turn_survives_a_full_fd_table() {
    let archival = ArchivalNode::new(RoleConfig {
        role: Role::Archival,
        http_addr: Some("127.0.0.1:0".into()),
        ..RoleConfig::default()
    })
    .unwrap();
    let http_addr = archival.http_addr().unwrap().unwrap();
    let mut el = EventLoop::new().unwrap();
    let member = el.add_archival(archival);
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let gossip_addr = acceptor.local_addr().unwrap();
    el.add_acceptor(acceptor, member);
    let mut http = TcpStream::connect(http_addr).unwrap();
    let _gossip = TcpStream::connect(gossip_addr).unwrap();

    let hoard = hoard_fds();
    let turned = el.turn();
    drop(hoard);
    turned.expect("a full fd table must not stop the loop");

    let (gossip_acceptor, _) = el.acceptors().next().unwrap();
    assert_eq!(
        gossip_acceptor.stats().listener_errors,
        1,
        "gossip accept failure counted"
    );
    let http_stats = el.archival(member).unwrap().http_stats().unwrap();
    assert_eq!(
        http_stats.accept_errors, 1,
        "HTTP accept failure counted: {http_stats:?}"
    );
    assert_eq!(http_stats.accepted, 0);

    http.write_all(b"GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    http.set_nonblocking(true).unwrap();
    let mut response = Vec::new();
    let mut closed = false;
    let deadline = Instant::now() + Duration::from_secs(10);
    while !closed || el.gossip(member).unwrap().transport_fds().is_empty() {
        assert!(
            Instant::now() < deadline,
            "dials not served after the backoff"
        );
        el.turn().expect("turn after release");
        let mut buf = [0u8; 4096];
        match http.read(&mut buf) {
            Ok(0) => closed = true,
            Ok(n) => response.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) => panic!("HTTP client read failed: {e}"),
        }
    }
    let text = String::from_utf8(response).unwrap();
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
}

/// Three dials pending and two fds free: the burst keeps the two streams
/// it got, counts the failure and parks; after release the third dial is
/// accepted.
fn burst_keeps_the_streams_it_accepted_before_exhaustion() {
    let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().unwrap();
    let clients: Vec<TcpStream> = (0..3).map(|_| TcpStream::connect(addr).unwrap()).collect();

    let mut hoard = hoard_fds();
    hoard.truncate(hoard.len() - 2);
    let accepted = acceptor.accept_burst(0, 64, usize::MAX);
    let stats = acceptor.stats();
    drop(hoard);

    assert_eq!(
        accepted.len(),
        2,
        "both streams accepted before EMFILE are kept"
    );
    assert_eq!(stats.listener_errors, 1);
    assert_eq!(acceptor.resume_at(), Some(ACCEPT_BACKOFF_MS));
    // Kept means open: bytes written on each stream reach its client.
    for mut stream in &accepted {
        let peer = stream.peer_addr().unwrap();
        let mut client = clients
            .iter()
            .find(|c| c.local_addr().unwrap() == peer)
            .unwrap();
        stream.write_all(b"hi").unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut got = [0u8; 2];
        client
            .read_exact(&mut got)
            .expect("client reads the server's bytes, not EOF");
        assert_eq!(&got, b"hi");
    }

    assert!(
        acceptor
            .accept_burst(ACCEPT_BACKOFF_MS - 1, 64, usize::MAX)
            .is_empty(),
        "parked"
    );
    let third = acceptor.accept_burst(ACCEPT_BACKOFF_MS, 64, usize::MAX);
    assert_eq!(
        third.len(),
        1,
        "the third dial is accepted after the backoff"
    );
    assert_eq!(acceptor.stats().listener_errors, 1);
}
