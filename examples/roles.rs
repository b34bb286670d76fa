//! All three node roles on one machine, over real sockets, driven by a
//! single blocking [`EventLoop`].
//!
//! * A **validation node** wraps a gateway and listens on two TCP ports:
//!   the ingest protocol for light clients and gossip for peers.
//! * Two **light clients** mine and sign readings, then submit them as
//!   length-prefixed ingest frames over TCP and check their acks.
//! * An **archival node** dials the validation node's gossip port, syncs
//!   everything, and serves the HTTP/1.1 query API.
//!
//! Both server roles and the gossip acceptor sit in one event loop that
//! sleeps in `epoll_pwait` until a socket is ready or a timer is due —
//! no 1ms spin loop. The finale ties the roles together: the validation
//! node replays its entire credit-event log from scratch
//! ([`ValidationNode::verify_replay`]), and the archival node's HTTP
//! answer for each light client's credit is checked against that
//! independently replayed ledger.
//!
//! Run with: `cargo run --example roles`

use biot::core::node::Manager;
use biot::core::{Account, Difficulty};
use biot::credit::{CreditLedger, CreditParams};
use biot::crypto::sha256::to_hex;
use biot::gossip::node::GossipConfig;
use biot::gossip::tcp::{TcpAcceptor, TcpConnector};
use biot::net::time::SimTime;
use biot::node::role::{ArchivalNode, LightClient, Role, RoleConfig, ValidationNode};
use biot::node::EventLoop;
use biot::sim::roles::validation_gateway;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};

const LIGHTS: usize = 2;
const TXS_EACH: usize = 5;
// Inside the ΔT=30s credit window of the just-submitted readings, so
// the compared credit values are live, not decayed-to-zero.
const PROBE_MS: u64 = 10_000;

// Default digest relay: payloads spread digest-and-pull, and each node
// keeps a per-origin credit log it advertises in every handshake, so a
// role whose handshake lands after a credit event still pulls it.
fn gossip_cfg(node_id: u64) -> GossipConfig {
    GossipConfig {
        node_id,
        digest_ms: 5,
        anti_entropy_ms: 200,
        ..GossipConfig::default()
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Identities: one manager, two authorized light clients. --------
    let mut rng = StdRng::seed_from_u64(7);
    let mut manager = Manager::new(Account::generate(&mut rng));
    let lights: Vec<LightClient> =
        (0..LIGHTS).map(|_| LightClient::new(Account::generate(&mut rng))).collect();

    let (gateway, genesis) = validation_gateway(&mut manager, &lights);

    // --- Validation node: ingest TCP for clients, gossip TCP for peers.
    let validation = ValidationNode::new(
        gateway,
        RoleConfig {
            role: Role::Validation,
            gossip: gossip_cfg(1),
            ingest_addr: Some("127.0.0.1:0".into()),
            ..RoleConfig::default()
        },
    )?;
    let ingest_addr = validation.ingest_addr()?.expect("ingest enabled");
    let gossip_acceptor = TcpAcceptor::bind("127.0.0.1:0")?;
    let gossip_addr = gossip_acceptor.local_addr()?;
    println!("validation: ingest on {ingest_addr}, gossip on {gossip_addr}");

    // --- Archival node: dials the gossip port, serves HTTP. ------------
    let mut archival = ArchivalNode::new(RoleConfig {
        role: Role::Archival,
        gossip: gossip_cfg(2),
        http_addr: Some("127.0.0.1:0".into()),
        ..RoleConfig::default()
    })?;
    archival.gossip_mut().connect(Box::new(TcpConnector { addr: gossip_addr }));
    let http_addr = archival.http_addr()?.expect("http enabled");
    println!("archival:   http on {http_addr}, dialing gossip {gossip_addr}");

    // --- One event loop runs both server roles. ------------------------
    let mut el = EventLoop::new()?;
    let vid = el.add_validation(validation);
    let aid = el.add_archival(archival);
    el.add_acceptor(gossip_acceptor, vid);

    // --- Light clients: mine, sign, frame, submit over TCP, check acks.
    let mut client_threads = Vec::new();
    for (c, light) in lights.into_iter().enumerate() {
        let mut light = light;
        let frames: Vec<Vec<u8>> = (0..TXS_EACH)
            .map(|k| {
                let tx = light
                    .prepare(
                        format!("reading {c}/{k}").into_bytes(),
                        (genesis, genesis),
                        SimTime::from_millis(100 + (c * TXS_EACH + k) as u64 * 10),
                        Difficulty::MIN,
                    )
                    .tx;
                light.encode_submit(vec![tx])
            })
            .collect();
        let light_id = light.id();
        client_threads.push(std::thread::spawn(move || -> Result<usize, String> {
            let mut stream =
                std::net::TcpStream::connect(ingest_addr).map_err(|e| e.to_string())?;
            let mut accepted = 0usize;
            for frame in frames {
                // Pace submissions a few ms apart, like a real device.
                // Credit grants are stamped at validation time and the
                // mesh dedups bit-identical events, so two grants to the
                // same device in the same millisecond would collapse
                // into one — and the event loop is fast enough to admit
                // every unpaced reading inside a single millisecond.
                std::thread::sleep(std::time::Duration::from_millis(3));
                stream.write_all(&frame).map_err(|e| e.to_string())?;
                let mut len = [0u8; 4];
                stream.read_exact(&mut len).map_err(|e| e.to_string())?;
                let mut body = vec![0u8; u32::from_be_bytes(len) as usize];
                stream.read_exact(&mut body).map_err(|e| e.to_string())?;
                let biot::ingest::protocol::ServerMsg::Ack(results) =
                    LightClient::decode_ack(&body).map_err(|e| format!("{e:?}"))?;
                accepted += results.iter().filter(|r| r.id.is_some()).count();
            }
            println!(
                "light {}…: submitted {TXS_EACH}, accepted {accepted}",
                &to_hex(light_id.as_bytes())[..8]
            );
            Ok(accepted)
        }));
    }

    // --- Block in the loop until everything has synced everywhere. -----
    // Target: genesis + auth list + every light transaction, and an
    // archival credit breakdown equal to the gateway's for every device.
    // (Event *counts* can legitimately differ: same-instant admission
    // grants collapse into identical events the mesh dedups.)
    let want_txs = 2 + LIGHTS * TXS_EACH;
    let probe = SimTime::from_millis(PROBE_MS);
    let converged = el.run_until(60_000, |el| {
        let validation = el.validation(vid).expect("validation member");
        let archival = el.archival(aid).expect("archival member");
        let txs_synced = {
            let t = archival.gossip().tangle().lock().unwrap();
            t.len() == want_txs && archival.gossip().pending_len() == 0
        };
        let credit_synced = {
            let live = validation.gateway().credits();
            live.known_nodes().all(|&n| {
                let a = archival.credits().credit_of(n, probe);
                let b = live.credit_of(n, probe);
                a.positive == b.positive
                    && a.negative == b.negative
                    && a.combined == b.combined
            })
        };
        txs_synced && credit_synced && client_threads.iter().all(|t| t.is_finished())
    })?;
    if !converged {
        let validation = el.validation(vid).expect("validation member");
        let archival = el.archival(aid).expect("archival member");
        for ev in validation.credit_log() {
            eprintln!("  log: {ev:?}");
        }
        eprintln!(
            "  validation stats: {:?}\n  archival stats: {:?}",
            validation.gossip().stats(),
            archival.gossip().stats()
        );
        for &n in validation.gateway().credits().known_nodes().collect::<Vec<_>>() {
            let a = archival.credits().credit_of(n, probe);
            let b = validation.gateway().credits().credit_of(n, probe);
            eprintln!(
                "  {}…: archival ({}, {}, {}) vs gateway ({}, {}, {})",
                &to_hex(n.as_bytes())[..8],
                a.positive, a.negative, a.combined,
                b.positive, b.negative, b.combined
            );
        }
        return Err(format!(
            "no convergence in 60s: archival holds {} of {want_txs} txs, {} credit events",
            archival.gossip().tangle().lock().unwrap().len(),
            archival.credits().events_applied(),
        )
        .into());
    }
    let mut accepted_total = 0;
    for t in client_threads {
        accepted_total += t.join().expect("client thread")?;
    }
    assert_eq!(accepted_total, LIGHTS * TXS_EACH, "every submission must be acked accepted");
    println!(
        "synced: {} transactions and {} credit events on the archival node \
         in {} wakeups over {}ms (the old tick loop would have spun ~once per ms)",
        want_txs,
        el.archival(aid).expect("archival member").credits().events_applied(),
        el.wakeups(),
        el.now_ms(),
    );

    // --- Validation role: replay the event log from scratch. -----------
    let devices = el
        .validation(vid)
        .expect("validation member")
        .verify_replay(SimTime::from_millis(PROBE_MS))?;
    println!("validation: event-log replay matches the live ledger for {devices} devices");
    let replayed = CreditLedger::from_events(
        CreditParams::default(),
        el.validation(vid).expect("validation member").credit_log().iter(),
    );

    // --- Archival role: HTTP credit answers vs the replayed ledger. ----
    let light_ids: Vec<_> = replayed
        .known_nodes()
        .filter(|n| **n != manager.id())
        .copied()
        .collect();
    assert_eq!(light_ids.len(), LIGHTS);
    let paths: Vec<String> = light_ids
        .iter()
        .map(|id| format!("/v1/credit/{}?at_ms={PROBE_MS}", to_hex(id.as_bytes())))
        .collect();
    let probe_thread = std::thread::spawn(move || -> Result<Vec<String>, String> {
        paths
            .iter()
            .map(|path| {
                let mut stream =
                    std::net::TcpStream::connect(http_addr).map_err(|e| e.to_string())?;
                stream
                    .write_all(
                        format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes(),
                    )
                    .map_err(|e| e.to_string())?;
                let mut response = String::new();
                stream.read_to_string(&mut response).map_err(|e| e.to_string())?;
                Ok(response)
            })
            .collect()
    });
    let served = el.run_until(el.now_ms() + 30_000, |_| probe_thread.is_finished())?;
    assert!(served, "HTTP probes did not complete in 30s");
    let answers = probe_thread.join().expect("probe thread")?;
    for (id, response) in light_ids.iter().zip(answers.iter()) {
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "bad response: {response}");
        let body = response.split("\r\n\r\n").nth(1).expect("response has a body");
        let combined = body
            .split("\"combined\":")
            .nth(1)
            .and_then(|rest| rest.trim_end_matches('}').parse::<f64>().ok())
            .expect("credit response carries a combined value");
        let expected = replayed.credit_of(*id, SimTime::from_millis(PROBE_MS)).combined;
        assert_eq!(
            combined,
            expected,
            "HTTP credit for {} must equal the replayed ledger",
            to_hex(id.as_bytes())
        );
        println!(
            "archival http: credit of {}… = {combined} — matches the replayed ledger",
            &to_hex(id.as_bytes())[..8]
        );
    }

    println!("all three roles agree: ingest → gossip → archive → query, end to end");
    Ok(())
}
