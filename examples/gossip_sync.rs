//! Two-node tangle synchronization over real TCP loopback sockets.
//!
//! Node A plays an established gateway: it grows a DAG of sensor
//! readings, confirms, and seals the confirmed cone — exactly what a
//! long-lived B-IoT gateway looks like. Node B boots cold, dials A over
//! TCP, pulls the whole DAG out of order from the tips down to the
//! genesis, solidifies it, and converges to the identical tip set and
//! cumulative weights. Both nodes then keep exchanging live traffic.
//!
//! Run with: `cargo run --example gossip_sync`

use biot::gossip::node::{GossipConfig, GossipNode};
use biot::gossip::tcp::{TcpAcceptor, TcpConnector, TcpTransport};
use biot::tangle::graph::Tangle;
use biot::tangle::tx::{NodeId, Payload, TransactionBuilder};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const GROW: u32 = 300;
const CONFIRM_THRESHOLD: u64 = 8;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Node A: an established gateway with a sealed history. --------
    let established = Arc::new(Mutex::new(Tangle::new()));
    {
        let mut t = established.lock().unwrap();
        t.attach_genesis(NodeId([0xAA; 32]), 0);
        let mut rng = StdRng::seed_from_u64(2024);
        let mut now = 0u64;
        for n in 0..GROW {
            now += 10;
            let tips = t.tips();
            let trunk = tips[rng.next_u64() as usize % tips.len()];
            let branch = tips[rng.next_u64() as usize % tips.len()];
            let mut issuer = [0u8; 32];
            issuer[..4].copy_from_slice(&n.to_be_bytes());
            let tx = TransactionBuilder::new(NodeId(issuer))
                .parents(trunk, branch)
                .payload(Payload::Data(n.to_be_bytes().to_vec()))
                .timestamp_ms(now)
                .build();
            t.attach(tx, now)?;
            if n == GROW / 2 {
                t.confirm_with_threshold(CONFIRM_THRESHOLD);
                t.seal_frontier(16);
                println!("node A: sealed {} confirmed transactions", t.sealed_len());
            }
        }
        t.confirm_with_threshold(CONFIRM_THRESHOLD);
        println!(
            "node A: established DAG with {} stored transactions, {} tips",
            t.len(),
            t.tips().len()
        );
    }

    // --- Wire the two nodes together over TCP loopback. ---------------
    let mut acceptor = TcpAcceptor::bind("127.0.0.1:0")?;
    let addr = acceptor.local_addr()?;
    println!("node A: listening on {addr}");

    let mut a = GossipNode::new(Arc::clone(&established), GossipConfig::default());
    let mut b = GossipNode::with_empty_tangle(GossipConfig::default());
    b.connect(Box::new(TcpConnector { addr }));
    println!("node B: cold start, dialing {addr}");

    // --- Poll both nodes until B catches up. ---------------------------
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
        if Instant::now() >= deadline {
            return Err(format!(
                "sync did not converge in 60s: replica holds {} of {target}",
                b.tangle().lock().unwrap().len()
            )
            .into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    println!(
        "node B: converged after {:?} — {} transactions, stats: {:?}",
        start.elapsed(),
        target,
        b.stats()
    );

    // --- Live traffic: B issues a reading, A learns it via gossip. ----
    let (trunk, branch) = {
        let t = b.tangle().lock().unwrap();
        let tips = t.tips();
        (tips[0], tips[tips.len() - 1])
    };
    let live = TransactionBuilder::new(NodeId([0xBB; 32]))
        .parents(trunk, branch)
        .payload(Payload::Data(b"hello from B".to_vec()))
        .timestamp_ms(start.elapsed().as_millis() as u64)
        .build();
    let live_id = b.attach_local(live, start.elapsed().as_millis() as u64)?;
    loop {
        let now = start.elapsed().as_millis() as u64;
        a.poll(now);
        b.poll(now);
        if a.tangle().lock().unwrap().contains(&live_id) {
            break;
        }
        if Instant::now() >= deadline {
            return Err("live transaction never reached node A".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    println!("node A: received B's live transaction {live_id:?}");

    // --- Final agreement check. ----------------------------------------
    let ta = established.lock().unwrap();
    let tb = b.tangle().lock().unwrap();
    assert_eq!(ta.len(), tb.len());
    assert_eq!(ta.tips(), tb.tips());
    let weights_ok = ta.iter().all(|tx| {
        let id = tx.id();
        ta.cumulative_weight(&id) == tb.cumulative_weight(&id)
    });
    assert!(weights_ok);
    println!(
        "both nodes agree: {} transactions, {} tips, identical cumulative weights",
        ta.len(),
        ta.tips().len()
    );
    Ok(())
}
