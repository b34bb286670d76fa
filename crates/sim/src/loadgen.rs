//! Light-node load generation for the ingest front end.
//!
//! Drives an [`IngestServer`] with hundreds to thousands of concurrent
//! light-node connections **over real sockets**, and reports sustained
//! admission throughput plus ack round-trip latency percentiles. One
//! process, two threads: the server thread runs the reactor against a
//! live [`Gateway`] at the instants a [`WallClock`] reports (its
//! milliseconds are the `SimTime` the rate limiter and credit ledger
//! see), the driver thread multiplexes every client connection
//! (non-blocking, same framing the devices would use).
//!
//! PoW is real but pre-mined: the world builder mines and signs every
//! transaction up front at [`Difficulty::MIN`] under a
//! [`FixedPolicy`], so the measurement isolates the ingestion path —
//! socket readiness, framing, admission, acking — from nonce-search
//! cost, which `BENCH_pow.json` already characterizes.

use biot_core::difficulty::FixedPolicy;
use biot_core::identity::Account;
use biot_core::node::{Gateway, GatewayConfig, LightNode, Manager, VerifyConfig};
use biot_core::pow::Difficulty;
use biot_gossip::tcp::TcpTransport;
use biot_gossip::transport::Transport;
use biot_ingest::protocol::{
    decode_server, encode_client, AckCode, ClientMsg, ServerMsg,
};
use biot_ingest::server::{IngestConfig, IngestServer, IngestStats};
use biot_net::time::SimTime;
use biot_reactor::{Clock, WallClock};
use biot_tangle::conflict::LazyTipPolicy;
use biot_tangle::tx::{Payload, Transaction, TxId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A deterministic world for ingestion experiments: a gateway that
/// admits at fixed minimum difficulty, plus a pool of pre-mined,
/// pre-signed transactions anchored at the genesis.
pub struct IngestWorld {
    /// The gateway, genesis attached and device keys registered.
    pub gateway: Gateway,
    /// The genesis transaction id.
    pub genesis: TxId,
    /// Pre-mined transactions, all unique, all admissible in any order.
    pub pool: Vec<Transaction>,
}

/// Builds an [`IngestWorld`] deterministically from `seed`: same seed,
/// same accounts, same transactions, bit-identical gateway — which is
/// what lets the equivalence test replay one server's admission stream
/// through a twin.
pub fn build_world(seed: u64, devices: usize, pool_size: usize) -> IngestWorld {
    assert!(devices > 0, "need at least one device");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut manager = Manager::new(Account::generate(&mut rng));
    let mut gateway = Gateway::new(
        manager.public_key().clone(),
        Box::new(FixedPolicy(Difficulty::MIN)),
        GatewayConfig {
            // Parents stay (genesis, genesis) for the whole run; don't
            // punish that as lazy — this harness measures ingestion, not
            // tip hygiene.
            lazy_policy: LazyTipPolicy {
                max_parent_age_ms: u64::MAX,
                max_parent_approvers: usize::MAX,
            },
            ..GatewayConfig::default()
        },
    );
    let genesis = gateway.init_genesis(SimTime::ZERO);

    let nodes: Vec<LightNode> = (0..devices)
        .map(|_| LightNode::new(Account::generate(&mut rng)))
        .collect();
    for node in &nodes {
        let id = manager.register_device(node.public_key().clone());
        manager.authorize(id);
        gateway.register_pubkey(node.public_key().clone());
    }
    let d0 = gateway.difficulty_for(manager.id(), SimTime::ZERO);
    let list = manager.prepare_auth_list((genesis, genesis), SimTime::ZERO, d0);
    gateway
        .apply_auth_list(list.tx, SimTime::ZERO)
        .expect("auth list applies at boot");

    // Unique payload per transaction → unique id; MIN difficulty makes
    // the nonce search a handful of hashes.
    let mut pool = Vec::with_capacity(pool_size);
    for i in 0..pool_size {
        let node = &nodes[i % devices];
        let payload = Payload::Data((i as u64).to_be_bytes().to_vec());
        let prepared = node.prepare_payload(
            payload,
            (genesis, genesis),
            SimTime::from_millis(i as u64),
            Difficulty::MIN,
        );
        pool.push(prepared.tx);
    }
    IngestWorld { gateway, genesis, pool }
}

/// Loadgen knobs.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// World seed (accounts and pre-mined pool).
    pub seed: u64,
    /// Concurrent client connections that actually send transactions.
    pub connections: usize,
    /// Additional connections that register with the reactor but never
    /// send a byte — the mostly-idle device fleet, which costs epoll
    /// nothing per tick.
    pub idle_connections: usize,
    /// Distinct device accounts shared by the connections (RSA keygen is
    /// the expensive part of setup; a handful is plenty).
    pub devices: usize,
    /// Frames each connection sends.
    pub frames_per_conn: usize,
    /// Transactions per frame (`1` sends `SubmitTx`, else `SubmitBatch`).
    pub batch_size: usize,
    /// Gap between one connection's frames — the arrival rate knob: each
    /// connection offers `batch_size / arrival_interval` tx/s.
    pub arrival_interval: Duration,
    /// Abort the run after this long even if acks are missing.
    pub deadline: Duration,
    /// Server-side configuration.
    pub ingest: IngestConfig,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            seed: 0xB107,
            connections: 64,
            idle_connections: 0,
            devices: 4,
            frames_per_conn: 4,
            batch_size: 8,
            arrival_interval: Duration::from_millis(20),
            deadline: Duration::from_secs(60),
            ingest: IngestConfig::default(),
        }
    }
}

/// What a loadgen run measured.
#[derive(Clone, Debug)]
pub struct LoadgenReport {
    /// Connections that completed their schedule.
    pub connections: usize,
    /// Transactions sent across all connections.
    pub sent_txs: usize,
    /// Per-ack-code transaction counts, indexed by [`AckCode`] order.
    pub acked: AckTally,
    /// Wall time from first frame to last ack, milliseconds.
    pub elapsed_ms: u64,
    /// Sustained admitted transactions per second.
    pub admitted_per_sec: f64,
    /// Median ack round-trip, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile ack round-trip, milliseconds.
    pub p99_ms: f64,
    /// Server-side counters at shutdown.
    pub server: IngestStats,
}

/// Transaction counts by ack outcome.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AckTally {
    /// `Accepted` acks.
    pub accepted: usize,
    /// `RateLimited` acks.
    pub rate_limited: usize,
    /// `Busy` acks.
    pub busy: usize,
    /// Everything else (gateway rejections).
    pub rejected: usize,
}

impl AckTally {
    fn count(&mut self, code: AckCode) {
        match code {
            AckCode::Accepted => self.accepted += 1,
            AckCode::RateLimited => self.rate_limited += 1,
            AckCode::Busy => self.busy += 1,
            _ => self.rejected += 1,
        }
    }

    /// Total acked transactions.
    pub fn total(&self) -> usize {
        self.accepted + self.rate_limited + self.busy + self.rejected
    }
}

/// One multiplexed client connection and its send schedule.
struct Client {
    transport: TcpTransport,
    /// Frames not yet sent (each already encoded).
    to_send: VecDeque<(Vec<u8>, usize)>,
    /// Send instants of frames whose acks are outstanding (FIFO — the
    /// server acks in frame order).
    awaiting: VecDeque<Instant>,
    next_send: Instant,
    acked_frames: usize,
    sent_frames: usize,
}

/// Runs the full experiment: boots the server on an ephemeral port,
/// connects `config.connections` clients, drives the schedule, and
/// collects both sides' numbers.
///
/// # Panics
///
/// Panics on socket failures (bind/connect) — a loadgen that cannot set
/// up its sockets has no meaningful partial result.
pub fn run_loadgen(config: &LoadgenConfig) -> LoadgenReport {
    let world = build_world(
        config.seed,
        config.devices,
        config.connections * config.frames_per_conn * config.batch_size,
    );
    let mut gateway = world.gateway;
    gateway.set_verify_config(VerifyConfig::default());

    let mut server =
        IngestServer::bind("127.0.0.1:0", config.ingest).expect("bind ingest server");
    let addr = server.local_addr().expect("server addr");

    let stop = Arc::new(AtomicBool::new(false));
    let server_stop = Arc::clone(&stop);
    let server_thread = std::thread::spawn(move || {
        let clock = WallClock::new();
        while !server_stop.load(Ordering::Relaxed) {
            server
                .poll(&mut gateway, SimTime::from_millis(clock.now_ms()), 10)
                .expect("server poll");
        }
        server.stats()
    });

    let report = drive_clients(config, addr, &world.pool);
    stop.store(true, Ordering::Relaxed);
    let server_stats = server_thread.join().expect("server thread");

    LoadgenReport {
        server: server_stats,
        ..report
    }
}

/// Multiplexes every client on the calling thread until the schedule
/// completes or the deadline passes.
fn drive_clients(config: &LoadgenConfig, addr: SocketAddr, pool: &[Transaction]) -> LoadgenReport {
    let start = Instant::now();
    // The idle fleet connects first: it must already be registered with
    // the reactor while the active connections run their schedules.
    let idle: Vec<TcpTransport> = (0..config.idle_connections)
        .map(|_| TcpTransport::connect(addr).expect("idle connect"))
        .collect();
    let mut clients = Vec::with_capacity(config.connections);
    let mut next_tx = 0usize;
    for c in 0..config.connections {
        let mut to_send = VecDeque::with_capacity(config.frames_per_conn);
        for _ in 0..config.frames_per_conn {
            let txs: Vec<Transaction> =
                pool[next_tx..next_tx + config.batch_size].to_vec();
            next_tx += config.batch_size;
            let count = txs.len();
            let msg = if count == 1 {
                ClientMsg::SubmitTx(txs.into_iter().next().expect("one tx"))
            } else {
                ClientMsg::SubmitBatch(txs)
            };
            to_send.push_back((encode_client(&msg), count));
        }
        let transport = TcpTransport::connect(addr).expect("client connect");
        clients.push(Client {
            transport,
            to_send,
            awaiting: VecDeque::new(),
            // Stagger first sends across one arrival interval so the
            // fleet doesn't fire in lockstep.
            next_send: start + config.arrival_interval * (c as u32) / (config.connections as u32),
            acked_frames: 0,
            sent_frames: 0,
        });
    }

    let total_frames = config.connections * config.frames_per_conn;
    let mut sent_txs = 0usize;
    let mut tally = AckTally::default();
    let mut latencies: Vec<f64> = Vec::with_capacity(total_frames);
    let mut done_frames = 0usize;
    let mut completed_conns = 0usize;

    while done_frames < total_frames && start.elapsed() < config.deadline {
        let mut progressed = false;
        let now = Instant::now();
        for client in &mut clients {
            if !client.transport.is_open()
                || (client.to_send.is_empty() && client.awaiting.is_empty())
            {
                // Closed, or schedule complete: stop spending driver
                // syscalls on it (the server side stays registered).
                continue;
            }
            // Send phase: at most one frame per pass per connection.
            if now >= client.next_send {
                if let Some((frame, count)) = client.to_send.pop_front() {
                    match client.transport.send(&frame) {
                        Ok(()) => {
                            client.awaiting.push_back(Instant::now());
                            client.next_send = now + config.arrival_interval;
                            client.sent_frames += 1;
                            sent_txs += count;
                            progressed = true;
                        }
                        Err(_) => {
                            // Transport backpressure or closed: retry the
                            // frame next pass (closed conns are skipped).
                            client.to_send.push_front((frame, count));
                        }
                    }
                }
            }
            // Receive phase: drain every ack currently buffered.
            while let Ok(Some(frame)) = client.transport.try_recv() {
                let ServerMsg::Ack(results) =
                    decode_server(&frame).expect("well-formed ack");
                let sent_at = client
                    .awaiting
                    .pop_front()
                    .expect("one outstanding frame per ack");
                latencies.push(sent_at.elapsed().as_secs_f64() * 1e3);
                for r in &results {
                    tally.count(r.code);
                }
                client.acked_frames += 1;
                done_frames += 1;
                progressed = true;
                if client.acked_frames == config.frames_per_conn {
                    completed_conns += 1;
                }
            }
        }
        if !progressed {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    let elapsed = start.elapsed();
    drop(idle);

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let pct = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[idx]
    };

    LoadgenReport {
        connections: completed_conns,
        sent_txs,
        acked: tally,
        elapsed_ms: elapsed.as_millis() as u64,
        admitted_per_sec: tally.accepted as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
        server: IngestStats::default(), // filled by run_loadgen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_building_is_deterministic() {
        let a = build_world(7, 2, 6);
        let b = build_world(7, 2, 6);
        let ids_a: Vec<TxId> = a.pool.iter().map(|t| t.id()).collect();
        let ids_b: Vec<TxId> = b.pool.iter().map(|t| t.id()).collect();
        assert_eq!(ids_a, ids_b);
        assert_eq!(a.genesis, b.genesis);
        // All pool entries unique.
        let mut dedup = ids_a.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids_a.len());
    }

    #[test]
    fn pool_txs_admit_directly() {
        let world = build_world(11, 2, 8);
        let mut gateway = world.gateway;
        let results = gateway.submit_batch(world.pool, SimTime::from_secs(1));
        assert!(results.iter().all(|r| r.is_ok()), "{results:?}");
    }

    #[test]
    fn small_loadgen_round_trips_over_sockets() {
        let config = LoadgenConfig {
            connections: 8,
            frames_per_conn: 3,
            batch_size: 4,
            arrival_interval: Duration::from_millis(1),
            deadline: Duration::from_secs(30),
            ..LoadgenConfig::default()
        };
        let report = run_loadgen(&config);
        assert_eq!(report.connections, 8, "all clients complete");
        assert_eq!(report.sent_txs, 8 * 3 * 4);
        assert_eq!(report.acked.total(), report.sent_txs);
        assert_eq!(report.acked.accepted, report.sent_txs, "{report:?}");
        assert_eq!(report.server.txs_admitted as usize, report.sent_txs);
    }
}
