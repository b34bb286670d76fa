//! Emits `results/BENCH_api.json`: the archival query endpoint under
//! load, measured while the node is *also* syncing fresh transactions
//! off the mesh — the serving-while-growing regime an archival node
//! actually lives in — plus the boot-time payoff of snapshot
//! checkpoints.
//!
//! Two measurements:
//!
//! * **query load under concurrent sync** — a validation node admits a
//!   steady trickle of signed light-node transactions while concurrent
//!   HTTP clients hammer the archival node's keep-alive API with a mix
//!   of every endpoint (health, stats, tips, tx, weight, credit). All
//!   responses must be `200 OK`; the report records sustained queries/s
//!   and p50/p99 request latency, and the archival node must still have
//!   fully synced the trickle by the end.
//! * **snapshot boot vs full replay** — the same store directory booted
//!   twice through `ArchivalNode::new`: once with only a WAL on disk
//!   (recovery replays every transaction through the tangle) and once
//!   after `checkpoint()` (recovery adopts the sealed snapshot cone).
//!   Snapshot boot must be faster.
//!
//! Run with: `cargo run -p biot-bench --release --bin api_report`
//!
//! CI shrinks the scale via `BIOT_API_CONNS`, `BIOT_API_SECS`,
//! `BIOT_API_LOAD`, `BIOT_API_BOOT_TXS`.

use biot_core::node::Manager;
use biot_core::{Account, Difficulty};
use biot_credit::{CreditEvent, CreditId, CreditLedger, CreditParams};
use biot_gossip::node::GossipConfig;
use biot_gossip::tcp::{TcpAcceptor, TcpConnector, TcpTransport};
use biot_net::time::SimTime;
use biot_node::role::{ArchivalNode, BootSource, LightClient, Role, RoleConfig, ValidationNode};
use biot_sim::roles::validation_gateway;
use biot_tangle::tips::{TipSelector, UniformRandomSelector};
use biot_tangle::tx::{NodeId, Payload, Transaction, TransactionBuilder};
use biot_tangle::Tangle;
use biot_crypto::sha256::to_hex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::io::{Read, Write};
use std::time::{Duration, Instant};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn gossip_cfg(node_id: u64) -> GossipConfig {
    GossipConfig {
        node_id,
        digest_ms: 5,
        anti_entropy_ms: 200,
        ..GossipConfig::default()
    }
}

fn percentile_ms(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx] as f64 / 1e6
}

/// One keep-alive HTTP exchange: write the request, read status line +
/// headers, then exactly `Content-Length` body bytes. Returns the
/// status code.
fn roundtrip(stream: &mut std::net::TcpStream, request: &[u8]) -> std::io::Result<u16> {
    stream.write_all(request)?;
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
        })?;
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "no content length")
        })?;
    let mut body_have = buf.len() - head_end;
    while body_have < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        body_have += n;
    }
    Ok(status)
}

struct LoadReport {
    requests: usize,
    not_ok: usize,
    elapsed_ms: u64,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    synced_under_load: bool,
    load_txs: usize,
}

/// Serves concurrent HTTP clients from an archival node that is
/// simultaneously syncing `load` fresh transactions off the mesh.
fn run_query_load(conns: usize, secs: u64, load: usize) -> LoadReport {
    const WARM: usize = 32;
    let mut rng = StdRng::seed_from_u64(11);
    let mut manager = Manager::new(Account::generate(&mut rng));
    let lights: Vec<LightClient> =
        (0..2).map(|_| LightClient::new(Account::generate(&mut rng))).collect();

    let (gateway, genesis) = validation_gateway(&mut manager, &lights);

    let mut validation = ValidationNode::new(
        gateway,
        RoleConfig { role: Role::Validation, gossip: gossip_cfg(1), ..RoleConfig::default() },
    )
    .expect("validation boots");
    let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("gossip bind");
    let gossip_addr = acceptor.local_addr().expect("gossip addr");
    let mut archival = ArchivalNode::new(RoleConfig {
        role: Role::Archival,
        gossip: gossip_cfg(2),
        http_addr: Some("127.0.0.1:0".into()),
        ..RoleConfig::default()
    })
    .expect("archival boots");
    archival.gossip_mut().connect(Box::new(TcpConnector { addr: gossip_addr }));
    let http_addr = archival.http_addr().expect("http addr").expect("http on");

    // Pre-mine every transaction (signing cost must not pollute the
    // serving measurement). Unique millisecond timestamps keep every
    // emitted credit event bit-unique for the mesh.
    let total = WARM + load;
    let txs: Vec<(u64, Transaction)> = (0..total)
        .map(|i| {
            let at = 100 + i as u64;
            let tx = lights[i % 2]
                .prepare(
                    format!("reading {i}").into_bytes(),
                    (genesis, genesis),
                    SimTime::from_millis(at),
                    Difficulty::MIN,
                )
                .tx;
            (at, tx)
        })
        .collect();
    let mut txs = txs.into_iter();

    // Warmup: admit and fully sync WARM transactions so every queried
    // tx id is guaranteed present on the archival side.
    let mut warm_ids = Vec::new();
    for _ in 0..WARM {
        let (at, tx) = txs.next().expect("warmup tx");
        warm_ids.push(tx.id());
        validation
            .gateway_mut()
            .submit(tx, SimTime::from_millis(at))
            .expect("warmup admit");
    }
    let start = Instant::now();
    let warm_deadline = start + Duration::from_secs(30);
    loop {
        let now = start.elapsed().as_millis() as u64;
        for stream in acceptor.accept_burst(now, 16, usize::MAX) {
            validation.gossip_mut().add_transport(Box::new(TcpTransport::accepted(stream)), now);
        }
        validation.poll(now).expect("validation poll");
        archival.poll(now).expect("archival poll");
        if archival.gossip().tangle().lock().unwrap().len() == 2 + WARM {
            break;
        }
        assert!(Instant::now() < warm_deadline, "warmup never synced");
        std::thread::sleep(Duration::from_millis(1));
    }

    // The query mix: every endpoint, all expected to answer 200.
    let mut paths: Vec<String> = vec![
        "/v1/health".into(),
        "/v1/stats".into(),
        "/v1/tips".into(),
        "/v1/credit".into(),
    ];
    for id in warm_ids.iter().take(6) {
        paths.push(format!("/v1/tx/{}", to_hex(id.as_bytes())));
        paths.push(format!("/v1/weight/{}", to_hex(id.as_bytes())));
    }
    for light in &lights {
        paths.push(format!("/v1/credit/{}?at_ms=2000", to_hex(light.id().as_bytes())));
    }

    let stop_at = Instant::now() + Duration::from_secs(secs);
    let clients: Vec<_> = (0..conns)
        .map(|c| {
            let paths = paths.clone();
            std::thread::spawn(move || -> Result<(Vec<u64>, usize), String> {
                let mut stream =
                    std::net::TcpStream::connect(http_addr).map_err(|e| e.to_string())?;
                stream.set_nodelay(true).ok();
                let mut latencies_ns = Vec::new();
                let mut not_ok = 0usize;
                let mut i = c; // offset so threads interleave the mix
                while Instant::now() < stop_at {
                    let path = &paths[i % paths.len()];
                    i += 1;
                    let req = format!("GET {path} HTTP/1.1\r\n\r\n");
                    let t0 = Instant::now();
                    let status =
                        roundtrip(&mut stream, req.as_bytes()).map_err(|e| e.to_string())?;
                    latencies_ns.push(t0.elapsed().as_nanos() as u64);
                    if status != 200 {
                        not_ok += 1;
                    }
                }
                Ok((latencies_ns, not_ok))
            })
        })
        .collect();

    // Trickle the remaining transactions in while the clients hammer:
    // the endpoint is measured mid-sync, not against a frozen tangle.
    let measure_start = Instant::now();
    let interval_ms = secs as f64 * 1e3 / (load as f64 + 1.0);
    let mut submitted = 0usize;
    while clients.iter().any(|c| !c.is_finished()) {
        let now = start.elapsed().as_millis() as u64;
        while submitted < load
            && measure_start.elapsed().as_millis() as f64 >= interval_ms * (submitted as f64 + 1.0)
        {
            let (at, tx) = txs.next().expect("load tx");
            validation
                .gateway_mut()
                .submit(tx, SimTime::from_millis(at))
                .expect("load admit");
            submitted += 1;
        }
        validation.poll(now).expect("validation poll");
        archival.poll(now).expect("archival poll");
    }
    let measured_ms = measure_start.elapsed().as_millis() as u64;

    let mut latencies_ns = Vec::new();
    let mut not_ok = 0usize;
    for c in clients {
        let (lat, bad) = c.join().expect("client thread").expect("client io");
        latencies_ns.extend(lat);
        not_ok += bad;
    }
    latencies_ns.sort_unstable();

    // Finish the trickle and require full convergence: serving load must
    // not have starved the sync path.
    let sync_deadline = Instant::now() + Duration::from_secs(30);
    let synced_under_load = loop {
        let now = start.elapsed().as_millis() as u64;
        while submitted < load {
            let (at, tx) = txs.next().expect("load tx");
            validation
                .gateway_mut()
                .submit(tx, SimTime::from_millis(at))
                .expect("load admit");
            submitted += 1;
        }
        validation.poll(now).expect("validation poll");
        archival.poll(now).expect("archival poll");
        if archival.gossip().tangle().lock().unwrap().len() == 2 + total {
            break true;
        }
        if Instant::now() >= sync_deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(1));
    };

    let requests = latencies_ns.len();
    LoadReport {
        requests,
        not_ok,
        elapsed_ms: measured_ms,
        qps: requests as f64 / (measured_ms.max(1) as f64 / 1e3),
        p50_ms: percentile_ms(&latencies_ns, 0.50),
        p99_ms: percentile_ms(&latencies_ns, 0.99),
        synced_under_load,
        load_txs: load,
    }
}

struct BootReport {
    txs: usize,
    replay_boot_ms: f64,
    snapshot_boot_ms: f64,
    speedup: f64,
}

/// Builds a WAL-only store of `n` transactions mirroring a live
/// archival node (periodic confirmation + cone sealing), then times
/// `ArchivalNode::new` twice: against the raw WAL — whose records carry
/// no confirmation state, so recovery re-attaches every transaction
/// through an unsealed index — and against a checkpoint of the live
/// tangle, whose snapshot rows let recovery seal as it restores.
fn run_boot_comparison(n: usize) -> BootReport {
    let dir = std::env::temp_dir()
        .join(format!("biot_api_report_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);

    let mut events = Vec::new();
    let tangle = {
        let mut store = biot_store::LedgerStore::open(&dir).expect("store opens");
        let mut rng = StdRng::seed_from_u64(17);
        let mut tangle = Tangle::new();
        let genesis = tangle.attach_genesis(NodeId([0; 32]), 0);
        let gtx = tangle.get(&genesis).expect("genesis exists").clone();
        store.append(&gtx, 0).expect("append genesis");
        for i in 0..n {
            let (a, b) = UniformRandomSelector
                .select_tips(&tangle, &mut rng)
                .expect("tangle never empties");
            let ts = i as u64 + 1;
            let tx = TransactionBuilder::new(NodeId([(i % 251) as u8; 32]))
                .parents(a, b)
                .payload(Payload::Data((i as u64).to_be_bytes().to_vec()))
                .timestamp_ms(ts)
                .nonce(i as u64)
                .build();
            store.append(&tx, ts).expect("append");
            tangle.attach(tx, ts).expect("parents are tips");
            let id = CreditId { origin: 1, seq: i as u64 };
            events.push((
                id,
                CreditEvent::validated(NodeId([(i % 251) as u8; 32]), 1.0, SimTime::from_millis(ts)),
            ));
            if events.len() % 64 == 0 {
                store
                    .write_records(&events[events.len() - 64..], [])
                    .expect("append events");
            }
            if i % 256 == 255 {
                tangle.confirm_with_threshold(2);
            }
            if i % 512 == 511 {
                tangle.seal_frontier(128);
            }
        }
        store
            .write_records(&events[events.len() - events.len() % 64..], [])
            .expect("append events");
        tangle
    };

    let boot_cfg = || RoleConfig {
        role: Role::Archival,
        gossip: GossipConfig { node_id: 9, ..GossipConfig::default() },
        store_dir: Some(dir.clone()),
        ..RoleConfig::default()
    };

    let t0 = Instant::now();
    let node = ArchivalNode::new(boot_cfg()).expect("replay boot");
    let replay_boot_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(node.boot_source(), BootSource::Snapshot, "state was on disk");
    assert_eq!(node.gossip().tangle().lock().unwrap().len(), n + 1);
    drop(node);

    // Checkpoint from the *live* tangle, the way `ArchivalNode::checkpoint`
    // does on a running node: its confirmation state reaches the snapshot.
    {
        let mut store = biot_store::LedgerStore::open(&dir).expect("store reopens");
        let ledger = CreditLedger::from_events(
            CreditParams::default(),
            events.iter().map(|(_, ev)| ev),
        );
        let marks = std::collections::BTreeMap::from([(1, events.len() as u64)]);
        store.checkpoint_with_credit(&tangle, &ledger, &marks).expect("checkpoint");
    }

    let t0 = Instant::now();
    let node = ArchivalNode::new(boot_cfg()).expect("snapshot boot");
    let snapshot_boot_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(node.gossip().tangle().lock().unwrap().len(), n + 1);
    drop(node);

    let _ = fs::remove_dir_all(&dir);
    BootReport {
        txs: n,
        replay_boot_ms,
        snapshot_boot_ms,
        speedup: replay_boot_ms / snapshot_boot_ms.max(1e-9),
    }
}

fn main() -> std::io::Result<()> {
    let conns = env_usize("BIOT_API_CONNS", 4);
    let secs = env_u64("BIOT_API_SECS", 3);
    let load = env_usize("BIOT_API_LOAD", 120);
    let boot_txs = env_usize("BIOT_API_BOOT_TXS", 10_000);

    println!("query load: {conns} connections for {secs}s over {load} trickled txs");
    let q = run_query_load(conns, secs, load);
    println!(
        "  {} requests in {} ms -> {:.0} queries/s, p50 {:.3} ms p99 {:.3} ms, \
         {} non-200, synced under load: {}",
        q.requests, q.elapsed_ms, q.qps, q.p50_ms, q.p99_ms, q.not_ok, q.synced_under_load
    );

    println!("boot comparison: {boot_txs} transactions");
    let b = run_boot_comparison(boot_txs);
    println!(
        "  full replay {:.1} ms vs snapshot {:.1} ms -> {:.1}x",
        b.replay_boot_ms, b.snapshot_boot_ms, b.speedup
    );

    let all_ok = q.not_ok == 0 && q.requests > 0;
    let snapshot_faster = b.snapshot_boot_ms < b.replay_boot_ms;
    fs::create_dir_all("results")?;
    let mut f = fs::File::create("results/BENCH_api.json")?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"connections\": {conns},")?;
    writeln!(f, "  \"duration_secs\": {secs},")?;
    writeln!(
        f,
        "  \"query_load\": {{\"requests\": {}, \"non_200\": {}, \"elapsed_ms\": {}, \
         \"queries_per_sec\": {:.1}, \"latency_p50_ms\": {:.3}, \"latency_p99_ms\": {:.3}, \
         \"trickled_txs\": {}, \"synced_under_load\": {}}},",
        q.requests, q.not_ok, q.elapsed_ms, q.qps, q.p50_ms, q.p99_ms, q.load_txs,
        q.synced_under_load
    )?;
    writeln!(
        f,
        "  \"boot\": {{\"txs\": {}, \"full_replay_ms\": {:.2}, \"snapshot_ms\": {:.2}, \
         \"speedup\": {:.2}}},",
        b.txs, b.replay_boot_ms, b.snapshot_boot_ms, b.speedup
    )?;
    writeln!(f, "  \"acceptance\": {{")?;
    writeln!(f, "    \"all_responses_ok\": {all_ok},")?;
    writeln!(f, "    \"queries_per_sec\": {:.1},", q.qps)?;
    writeln!(f, "    \"qps_floor_ok\": {},", q.qps >= 500.0)?;
    writeln!(f, "    \"latency_p99_ms\": {:.3},", q.p99_ms)?;
    writeln!(f, "    \"p99_under_50ms\": {},", q.p99_ms < 50.0)?;
    writeln!(f, "    \"synced_under_load\": {},", q.synced_under_load)?;
    writeln!(f, "    \"snapshot_boot_faster\": {snapshot_faster},")?;
    writeln!(f, "    \"snapshot_speedup\": {:.2}", b.speedup)?;
    writeln!(f, "  }}")?;
    writeln!(f, "}}")?;
    println!("wrote results/BENCH_api.json");
    Ok(())
}
