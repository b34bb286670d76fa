//! End-to-end tests of the ingest reactor over real sockets.
//!
//! Three properties the issue demands proof of:
//!
//! 1. **Equivalence** — what a live server admits is bit-identical to
//!    feeding the same stream into [`Gateway::submit_batch`] directly
//!    (front-end rejections accounted separately, since the gateway
//!    never sees them).
//! 2. **Bounded backpressure** — a client that floods and never reads
//!    its acks cannot grow any server buffer past its cap, and healthy
//!    clients keep admitting while it misbehaves.
//! 3. **Clock agreement** — the virtual-time and wall-clock paths into
//!    the rate limiter make identical decisions.

use biot_core::node::Gateway;
use biot_core::ratelimit::{RateLimitConfig, RateLimiter};
use biot_gossip::tcp::MAX_TX_BUFFER_BYTES;
use biot_ingest::protocol::{
    decode_server, encode_client, AckCode, AckResult, ClientMsg, ServerMsg,
};
use biot_ingest::{IngestConfig, IngestServer};
use biot_net::time::SimTime;
use biot_reactor::{Clock, WallClock};
use biot_sim::loadgen::build_world;
use biot_tangle::tx::{NodeId, Transaction};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

// --- Minimal blocking client (independent of the server's transport) ----

fn write_frame(stream: &mut TcpStream, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("frame fits u32");
    stream.write_all(&len.to_be_bytes()).expect("write len");
    stream.write_all(payload).expect("write payload");
}

fn read_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("read len");
    let mut payload = vec![0u8; u32::from_be_bytes(len) as usize];
    stream.read_exact(&mut payload).expect("read payload");
    payload
}

fn read_ack(stream: &mut TcpStream) -> Vec<AckResult> {
    let ServerMsg::Ack(results) =
        decode_server(&read_frame(stream)).expect("well-formed ack");
    results
}

/// Sends each transaction as its own `SubmitTx` frame and returns the
/// acks, in frame order.
fn submit_one_by_one(addr: SocketAddr, txs: Vec<Transaction>) -> Vec<AckResult> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut acks = Vec::with_capacity(txs.len());
    for tx in txs {
        write_frame(&mut stream, &encode_client(&ClientMsg::SubmitTx(tx)));
        let mut results = read_ack(&mut stream);
        assert_eq!(results.len(), 1, "one result per SubmitTx");
        acks.push(results.remove(0));
    }
    acks
}

/// Polls the server until `done` says every client finished.
fn serve_until_done(
    server: &mut IngestServer,
    gateway: &mut Gateway,
    done: &AtomicUsize,
    clients: usize,
) {
    let clock = WallClock::new();
    while done.load(Ordering::Acquire) < clients {
        server
            .poll(gateway, SimTime::from_millis(clock.now_ms()), 1)
            .expect("server poll");
        assert!(
            clock.now_ms() < 60_000,
            "e2e run wedged: {:?}",
            server.stats()
        );
    }
}

// --- 1. Equivalence ------------------------------------------------------

#[test]
fn server_admissions_bit_identical_to_direct_submit_batch() {
    const CLIENTS: usize = 6;
    const TXS_PER_CLIENT: usize = 5;
    const SEED: u64 = 0xE0_1234;

    let world = build_world(SEED, 3, CLIENTS * TXS_PER_CLIENT);
    let mut gateway = world.gateway;
    let mut server = IngestServer::bind(
        "127.0.0.1:0",
        IngestConfig {
            record_admissions: true,
            // Burst of 2 with (effectively) no refill: deterministically,
            // each connection's first two transactions reach the gateway
            // and the rest bounce at the front end — regardless of
            // scheduling, which is the point.
            rate_limit: Some(RateLimitConfig {
                burst: 2.0,
                per_second: 0.001,
            }),
            ..IngestConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");

    let done = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let txs =
                world.pool[c * TXS_PER_CLIENT..(c + 1) * TXS_PER_CLIENT].to_vec();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let acks = submit_one_by_one(addr, txs);
                done.fetch_add(1, Ordering::Release);
                acks
            })
        })
        .collect();
    serve_until_done(&mut server, &mut gateway, &done, CLIENTS);
    let client_acks: Vec<Vec<AckResult>> =
        handles.into_iter().map(|h| h.join().expect("client")).collect();

    // Front-end accounting: per connection, exactly burst-many got
    // through; the rest were refused without ever reaching the gateway.
    for acks in &client_acks {
        let codes: Vec<AckCode> = acks.iter().map(|a| a.code).collect();
        assert_eq!(
            codes,
            vec![
                AckCode::Accepted,
                AckCode::Accepted,
                AckCode::RateLimited,
                AckCode::RateLimited,
                AckCode::RateLimited,
            ],
            "token bucket admits exactly the burst"
        );
    }
    let log = server.take_admission_log();
    assert_eq!(log.len(), CLIENTS * 2, "only allowed txs reach the gateway");
    let stats = server.stats();
    assert_eq!(stats.txs_rate_limited as usize, CLIENTS * 3);
    assert_eq!(stats.txs_admitted as usize, CLIENTS * 2);

    // Replay the recorded stream through a twin gateway, batched exactly
    // as the server batched it (consecutive entries sharing an instant).
    let mut twin = build_world(SEED, 3, CLIENTS * TXS_PER_CLIENT).gateway;
    let mut i = 0;
    while i < log.len() {
        let now = log[i].1;
        let mut batch = Vec::new();
        let mut j = i;
        while j < log.len() && log[j].1 == now {
            batch.push(log[j].0.clone());
            j += 1;
        }
        let results = twin.submit_batch(batch, now);
        for (k, result) in results.into_iter().enumerate() {
            assert_eq!(
                result,
                log[i + k].2,
                "replayed admission #{} diverged",
                i + k
            );
        }
        i = j;
    }
    assert_eq!(
        twin.stats(),
        gateway.stats(),
        "twin gateway ends in the same state"
    );

    // The accepted ack ids are exactly the logged admissions.
    let mut acked_ids: Vec<_> = client_acks
        .iter()
        .flatten()
        .filter_map(|a| a.id)
        .collect();
    let mut logged_ids: Vec<_> = log
        .iter()
        .map(|(_, _, r)| *r.as_ref().expect("pre-mined txs admit"))
        .collect();
    acked_ids.sort();
    logged_ids.sort();
    assert_eq!(acked_ids, logged_ids);
}

/// One batch frame whose entries are decided in two places: the front
/// end's token bucket refuses the tail at once, and the gateway judges
/// the rest, one of them a forged signature. The ack carries every
/// verdict at its transaction's position in the frame, and the accepted
/// ids are the transactions' own.
#[test]
fn mixed_front_end_and_gateway_verdicts_ack_in_frame_order() {
    let world = build_world(0xAC_0DE5, 2, 6);
    let mut gateway = world.gateway;
    let mut txs = world.pool;
    txs[1].signature[0] ^= 0xFF;
    let ids: Vec<_> = txs.iter().map(Transaction::id).collect();
    let mut server = IngestServer::bind(
        "127.0.0.1:0",
        IngestConfig {
            // The first three entries reach the gateway, the rest bounce.
            rate_limit: Some(RateLimitConfig {
                burst: 3.0,
                per_second: 0.001,
            }),
            ..IngestConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");

    let done = Arc::new(AtomicUsize::new(0));
    let client_done = Arc::clone(&done);
    let client = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let last = txs.pop().expect("six transactions");
        write_frame(&mut stream, &encode_client(&ClientMsg::SubmitBatch(txs)));
        write_frame(&mut stream, &encode_client(&ClientMsg::SubmitTx(last)));
        let acks = (read_ack(&mut stream), read_ack(&mut stream));
        client_done.fetch_add(1, Ordering::Release);
        acks
    });
    serve_until_done(&mut server, &mut gateway, &done, 1);
    let (batch, single) = client.join().expect("client");

    assert_eq!(
        batch,
        vec![
            AckResult::accepted(ids[0]),
            AckResult::rejected(AckCode::BadSignature),
            AckResult::accepted(ids[2]),
            AckResult::rejected(AckCode::RateLimited),
            AckResult::rejected(AckCode::RateLimited),
        ]
    );
    assert_eq!(single, vec![AckResult::rejected(AckCode::RateLimited)]);
    assert!(gateway.tangle().contains(&ids[0]) && gateway.tangle().contains(&ids[2]));
    assert_eq!(server.inflight(), 0, "every queued entry was answered");
}

/// A client that pipelines far more frames than `frames_per_tick` and
/// only then starts reading acks. The transport drains the whole kernel
/// buffer into userspace on first contact, so every frame past the
/// budget is invisible to a level-triggered poller — serving them
/// requires the reactor's resume list. Before that fix this deadlocked:
/// the server went silent after the first budget's worth of acks and the
/// client was eventually reaped by the idle sweep.
#[test]
fn pipelined_frames_beyond_tick_budget_all_acked() {
    const FRAMES: usize = 40;
    let world = build_world(0xB1D6E7, 3, FRAMES);
    let mut gateway = world.gateway;
    let mut server = IngestServer::bind(
        "127.0.0.1:0",
        IngestConfig {
            frames_per_tick: 4,
            ..IngestConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");

    let done = Arc::new(AtomicUsize::new(0));
    let txs = world.pool.clone();
    let client_done = Arc::clone(&done);
    let client = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        for tx in &txs {
            write_frame(&mut stream, &encode_client(&ClientMsg::SubmitTx(tx.clone())));
        }
        let mut acks = Vec::with_capacity(FRAMES);
        for _ in 0..FRAMES {
            let mut results = read_ack(&mut stream);
            assert_eq!(results.len(), 1, "one result per SubmitTx");
            acks.push(results.remove(0));
        }
        client_done.fetch_add(1, Ordering::Release);
        acks
    });
    serve_until_done(&mut server, &mut gateway, &done, 1);
    let acks = client.join().expect("pipelining client");

    assert!(
        acks.iter().all(|a| a.code == AckCode::Accepted),
        "every pipelined frame acked: {acks:?}"
    );
    let stats = server.stats();
    assert_eq!(stats.frames_in as usize, FRAMES);
    assert_eq!(stats.txs_admitted as usize, FRAMES);
    assert_eq!(stats.conns_timed_out, 0, "nobody starved into the idle sweep");
}

/// Connection churn with rate limiting on: bucket state is keyed by
/// never-reused connection tokens, so without the idle sweep's limiter
/// compaction it would grow with total arrivals, not live connections.
/// Virtual time is driven explicitly so the sweep horizon elapses
/// without wall-clock waits.
#[test]
fn connection_churn_compacts_limiter_buckets() {
    const WAVES: usize = 8;
    const CLIENTS_PER_WAVE: usize = 4;
    let world = build_world(0x11317E6, 3, WAVES * CLIENTS_PER_WAVE);
    let mut gateway = world.gateway;
    let mut server = IngestServer::bind(
        "127.0.0.1:0",
        IngestConfig {
            rate_limit: Some(RateLimitConfig::default()),
            idle_timeout_ms: 200,
            ..IngestConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");

    for wave in 0..WAVES {
        let now = SimTime::from_millis(wave as u64 * 1_000);
        let done = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..CLIENTS_PER_WAVE)
            .map(|c| {
                let txs = vec![world.pool[wave * CLIENTS_PER_WAVE + c].clone()];
                let client_done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let acks = submit_one_by_one(addr, txs);
                    client_done.fetch_add(1, Ordering::Release);
                    acks
                })
            })
            .collect();
        while done.load(Ordering::Acquire) < CLIENTS_PER_WAVE {
            server.poll(&mut gateway, now, 1).expect("server poll");
        }
        for handle in handles {
            let acks = handle.join().expect("wave client");
            assert!(
                acks.iter().all(|a| a.code == AckCode::Accepted),
                "wave {wave} admitted: {acks:?}"
            );
        }
        // One more tick well past the idle horizon: the sweep's cutoff
        // trails the timeout, so earlier waves' buckets must be gone.
        server
            .poll(&mut gateway, SimTime::from_millis(wave as u64 * 1_000 + 900), 1)
            .expect("sweep poll");
        assert!(
            server.rate_buckets() <= CLIENTS_PER_WAVE,
            "wave {wave}: {} buckets survived — state grows with arrivals",
            server.rate_buckets()
        );
    }
    assert_eq!(
        server.stats().conns_accepted as usize,
        WAVES * CLIENTS_PER_WAVE,
        "every wave actually churned a fresh connection"
    );
}

// --- 2. Bounded backpressure ---------------------------------------------

#[test]
fn stalled_client_keeps_backpressure_bounded_while_others_admit() {
    const STALLED_FRAMES: usize = 50;
    const STALLED_BATCH: usize = 8;
    const HEALTHY: usize = 4;
    const HEALTHY_TXS: usize = 12;
    let stalled_txs = STALLED_FRAMES * STALLED_BATCH;
    let pool_size = stalled_txs + HEALTHY * HEALTHY_TXS;

    let world = build_world(0xBACC, 3, pool_size);
    let mut gateway = world.gateway;
    let config = IngestConfig {
        per_conn_inflight: 8,
        global_inflight: 64,
        frames_per_tick: 256,
        ..IngestConfig::default()
    };
    let mut server = IngestServer::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("addr");

    // The stalled client: floods its whole schedule, never reads a single
    // ack, and keeps the socket open until the test ends.
    let release = Arc::new(AtomicBool::new(false));
    let stalled_release = Arc::clone(&release);
    let stalled_pool = world.pool[..stalled_txs].to_vec();
    let stalled = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        for chunk in stalled_pool.chunks(STALLED_BATCH) {
            write_frame(
                &mut stream,
                &encode_client(&ClientMsg::SubmitBatch(chunk.to_vec())),
            );
        }
        while !stalled_release.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(5));
        }
    });

    // Healthy clients run their full request/response schedule while the
    // flood is in progress.
    let done = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..HEALTHY)
        .map(|c| {
            let lo = stalled_txs + c * HEALTHY_TXS;
            let txs = world.pool[lo..lo + HEALTHY_TXS].to_vec();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let acks = submit_one_by_one(addr, txs);
                done.fetch_add(1, Ordering::Release);
                acks
            })
        })
        .collect();
    serve_until_done(&mut server, &mut gateway, &done, HEALTHY);

    // Let the server finish consuming whatever the stalled client queued
    // (its frames are all written; drain until quiescent).
    let clock = WallClock::new();
    loop {
        let progress = server
            .poll(&mut gateway, SimTime::from_millis(clock.now_ms()), 1)
            .expect("server poll");
        if progress.frames == 0 && progress.submitted == 0 && server.inflight() == 0 {
            break;
        }
        assert!(clock.now_ms() < 30_000, "drain wedged");
    }
    release.store(true, Ordering::Release);
    stalled.join().expect("stalled client");

    for handle in handles {
        let acks = handle.join().expect("healthy client");
        assert!(
            acks.iter().all(|a| a.code == AckCode::Accepted),
            "healthy clients admit during the flood: {acks:?}"
        );
    }

    let stats = server.stats();
    assert!(stats.txs_busy > 0, "the flood did hit the caps: {stats:?}");
    assert!(
        stats.high_water_conn_inflight <= config.per_conn_inflight,
        "per-connection queue stayed bounded: {stats:?}"
    );
    assert!(
        stats.high_water_global_inflight <= config.global_inflight,
        "global queue stayed bounded: {stats:?}"
    );
    assert!(
        stats.high_water_tx_buffer <= MAX_TX_BUFFER_BYTES,
        "ack buffer stayed under the transport cap: {stats:?}"
    );
    // Every transaction was decided: admitted or refused-busy, none lost.
    assert_eq!(
        stats.txs_admitted + stats.txs_busy,
        (stalled_txs + HEALTHY * HEALTHY_TXS) as u64,
        "{stats:?}"
    );
}

// --- 3. Clock agreement --------------------------------------------------

#[test]
fn virtual_and_monotonic_clock_paths_agree() {
    let config = RateLimitConfig {
        burst: 3.0,
        per_second: 4.0,
    };
    let node = NodeId([7; 32]);
    // A schedule mixing bursts, sub-refill gaps, and long idles.
    let schedule_ms: Vec<u64> = vec![
        0, 0, 0, 0, 1, 100, 250, 251, 252, 400, 900, 901, 902, 1_500, 1_501,
        3_000, 3_001, 3_002, 3_003, 10_000,
    ];
    let mut virtual_path = RateLimiter::new(config);
    let mut monotonic_path = RateLimiter::new(config);
    for &ms in &schedule_ms {
        let v = virtual_path.allow(node, SimTime::from_millis(ms));
        // The wall-clock path sees the same elapsed time plus sub-ms
        // jitter a real clock would add; `WallClock`'s truncation to
        // whole milliseconds must erase it.
        let wall = Duration::from_millis(ms) + Duration::from_micros(499);
        let m = monotonic_path.allow(node, SimTime::from_millis(WallClock::millis_of(wall)));
        assert_eq!(v, m, "decisions diverged at {ms} ms");
    }

    // And the live clock is sane: strictly non-decreasing, starting at 0.
    let clock = WallClock::new();
    let first = clock.now_ms();
    assert!(first <= 1_000);
    std::thread::sleep(Duration::from_millis(5));
    assert!(clock.now_ms() >= first);
}
