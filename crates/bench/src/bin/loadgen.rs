//! Drives an ingest reactor with concurrent light-node connections over
//! real sockets and prints a throughput/latency summary.
//!
//! Run with: `cargo run -p biot-bench --release --bin loadgen`
//!
//! Knobs (environment variables, all optional):
//!
//! | variable                 | default | meaning                                  |
//! |--------------------------|---------|------------------------------------------|
//! | `BIOT_INGEST_CONNS`      | 256     | concurrent sending connections           |
//! | `BIOT_INGEST_IDLE`       | 0       | additional never-sending connections     |
//! | `BIOT_INGEST_FRAMES`     | 4       | frames each connection sends             |
//! | `BIOT_INGEST_BATCH`      | 8       | transactions per frame                   |
//! | `BIOT_INGEST_INTERVAL_MS`| 5       | per-connection gap between frames        |
//! | `BIOT_INGEST_POLLER`     | epoll   | `epoll` or `scan` (the naive baseline)   |
//! | `BIOT_INGEST_DEADLINE_S` | 120     | abort threshold                          |
//!
//! Exits nonzero if any transaction went unacked — the loadgen doubles
//! as a smoke test of the full socket → reactor → gateway → ack path.

use biot_reactor::PollerKind;
use biot_ingest::server::IngestConfig;
use biot_sim::loadgen::{run_loadgen, LoadgenConfig};
use std::time::Duration;

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

fn main() {
    let poller = match std::env::var("BIOT_INGEST_POLLER").as_deref() {
        Ok("scan") => PollerKind::Scan,
        _ => PollerKind::Epoll,
    };
    let config = LoadgenConfig {
        connections: env_usize("BIOT_INGEST_CONNS", 256),
        idle_connections: env_usize("BIOT_INGEST_IDLE", 0),
        frames_per_conn: env_usize("BIOT_INGEST_FRAMES", 4),
        batch_size: env_usize("BIOT_INGEST_BATCH", 8),
        arrival_interval: Duration::from_millis(env_u64("BIOT_INGEST_INTERVAL_MS", 5)),
        deadline: Duration::from_secs(env_u64("BIOT_INGEST_DEADLINE_S", 120)),
        ingest: IngestConfig {
            poller,
            ..IngestConfig::default()
        },
        ..LoadgenConfig::default()
    };

    println!(
        "loadgen: {} conns (+{} idle) x {} frames x {} txs, {:?} interval, {:?} poller",
        config.connections,
        config.idle_connections,
        config.frames_per_conn,
        config.batch_size,
        config.arrival_interval,
        poller,
    );
    let report = run_loadgen(&config);
    println!(
        "  completed conns : {}/{}",
        report.connections, config.connections
    );
    println!("  sent txs        : {}", report.sent_txs);
    println!(
        "  acked           : {} (accepted {}, rate-limited {}, busy {}, rejected {})",
        report.acked.total(),
        report.acked.accepted,
        report.acked.rate_limited,
        report.acked.busy,
        report.acked.rejected,
    );
    println!("  elapsed         : {} ms", report.elapsed_ms);
    println!("  admitted/s      : {:.0}", report.admitted_per_sec);
    println!(
        "  ack RTT         : p50 {:.2} ms, p99 {:.2} ms",
        report.p50_ms, report.p99_ms
    );
    println!(
        "  server          : {:?} poller, {:?}",
        report.poller,
        report.server
    );

    if report.acked.total() != report.sent_txs {
        eprintln!(
            "FAIL: {} of {} txs unacked",
            report.sent_txs - report.acked.total(),
            report.sent_txs
        );
        std::process::exit(1);
    }
}
