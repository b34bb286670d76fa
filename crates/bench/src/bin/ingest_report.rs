//! Emits `results/BENCH_ingest.json`: sustained admission throughput and
//! ack round-trip latency for the event-loop ingest front end serving
//! concurrent light-node connections over real sockets — the epoll
//! reactor against the naive per-connection-poll baseline (the same
//! server code under the `scan` poller, which "readies" every
//! registered socket each tick and pays a syscall per connection to
//! discover most have nothing).
//!
//! Two scenarios at the same total connection count:
//!
//! * **saturated** — every connection sends as fast as its schedule
//!   allows. Nearly all sockets are ready every tick, so readiness
//!   notification buys little; this records the regime where the two
//!   pollers should roughly tie.
//! * **sparse** — the realistic IoT fleet: a few percent of the
//!   connections are active, the rest sit connected and silent. The scan
//!   baseline still pays one syscall per idle socket per tick; the
//!   reactor pays only for the active ones. This is where the event
//!   loop earns its keep.
//!
//! Run with: `cargo run -p biot-bench --release --bin ingest_report`
//!
//! The default scale is 1000 concurrent connections; CI shrinks it via
//! the same environment knobs the `loadgen` bin reads
//! (`BIOT_INGEST_CONNS`, `BIOT_INGEST_FRAMES`, `BIOT_INGEST_BATCH`,
//! `BIOT_INGEST_INTERVAL_MS`, `BIOT_INGEST_DEADLINE_S`).

use biot_reactor::PollerKind;
use biot_ingest::server::IngestConfig;
use biot_sim::loadgen::{run_loadgen, LoadgenConfig, LoadgenReport};
use std::fs;
use std::io::Write;
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

fn poller_name(kind: PollerKind) -> &'static str {
    match kind {
        PollerKind::Epoll => "epoll",
        PollerKind::Scan => "scan",
    }
}

struct Scenario {
    name: &'static str,
    config: LoadgenConfig,
}

fn row(requested: PollerKind, r: &LoadgenReport) -> String {
    format!(
        "      {{\"requested\": \"{}\", \"ran\": \"{}\", \"completed_conns\": {}, \
         \"sent_txs\": {}, \"admitted\": {}, \"busy\": {}, \"rate_limited\": {}, \
         \"rejected\": {}, \"elapsed_ms\": {}, \"admitted_per_sec\": {:.1}, \
         \"ack_rtt_p50_ms\": {:.3}, \"ack_rtt_p99_ms\": {:.3}}}",
        poller_name(requested),
        poller_name(r.poller),
        r.connections,
        r.sent_txs,
        r.acked.accepted,
        r.acked.busy,
        r.acked.rate_limited,
        r.acked.rejected,
        r.elapsed_ms,
        r.admitted_per_sec,
        r.p50_ms,
        r.p99_ms,
    )
}

fn main() -> std::io::Result<()> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let total_conns = env_usize("BIOT_INGEST_CONNS", 1000);
    let frames = env_usize("BIOT_INGEST_FRAMES", 4);
    let batch = env_usize("BIOT_INGEST_BATCH", 8);
    let interval_ms = env_u64("BIOT_INGEST_INTERVAL_MS", 5);
    let deadline = Duration::from_secs(env_u64("BIOT_INGEST_DEADLINE_S", 120));
    println!("host cores: {cores}; {total_conns} total connections");

    // Sparse: ~1/16th of the fleet active (at least 8), the rest idle.
    let sparse_active = (total_conns / 16).max(8).min(total_conns);
    let scenarios = [
        Scenario {
            name: "saturated",
            config: LoadgenConfig {
                connections: total_conns,
                idle_connections: 0,
                frames_per_conn: frames,
                batch_size: batch,
                arrival_interval: Duration::from_millis(interval_ms),
                deadline,
                ..LoadgenConfig::default()
            },
        },
        Scenario {
            name: "sparse",
            config: LoadgenConfig {
                connections: sparse_active,
                idle_connections: total_conns - sparse_active,
                frames_per_conn: frames * 8,
                batch_size: batch,
                arrival_interval: Duration::from_millis(interval_ms),
                deadline,
                ..LoadgenConfig::default()
            },
        },
    ];

    let mut blocks = Vec::new();
    for scenario in &scenarios {
        let mut rows = Vec::new();
        let mut throughput = Vec::new();
        let mut p99 = Vec::new();
        for requested in [PollerKind::Epoll, PollerKind::Scan] {
            let config = LoadgenConfig {
                ingest: IngestConfig {
                    poller: requested,
                    ..IngestConfig::default()
                },
                ..scenario.config.clone()
            };
            let report = run_loadgen(&config);
            println!(
                "{:>9}/{:>5}: {} active (+{} idle), {} admitted in {} ms -> {:>8.0} tx/s, \
                 ack RTT p50 {:.2} ms p99 {:.2} ms",
                scenario.name,
                poller_name(report.poller),
                report.connections,
                config.idle_connections,
                report.acked.accepted,
                report.elapsed_ms,
                report.admitted_per_sec,
                report.p50_ms,
                report.p99_ms,
            );
            assert_eq!(
                report.acked.total(),
                report.sent_txs,
                "every transaction must be acked ({requested:?})"
            );
            throughput.push(report.admitted_per_sec);
            p99.push(report.p99_ms);
            rows.push(row(requested, &report));
        }
        let speedup = throughput[0] / throughput[1].max(1e-9);
        let p99_ratio = p99[1] / p99[0].max(1e-9);
        println!(
            "{:>9}: reactor vs scan {speedup:.2}x throughput, {p99_ratio:.2}x p99 latency",
            scenario.name
        );
        blocks.push(format!(
            "    {{\"name\": \"{}\", \"connections\": {}, \"idle_connections\": {}, \
             \"frames_per_conn\": {}, \"batch_size\": {}, \"arrival_interval_ms\": {},\n\
             \"pollers\": [\n{}\n    ],\n\
             \"reactor_vs_scan_throughput\": {:.3}, \"scan_vs_reactor_p99\": {:.3}}}",
            scenario.name,
            scenario.config.connections,
            scenario.config.idle_connections,
            scenario.config.frames_per_conn,
            scenario.config.batch_size,
            scenario.config.arrival_interval.as_millis(),
            rows.join(",\n"),
            speedup,
            p99_ratio,
        ));
    }

    fs::create_dir_all("results")?;
    let mut f = fs::File::create("results/BENCH_ingest.json")?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"host_cores\": {cores},")?;
    writeln!(f, "  \"total_connections\": {total_conns},")?;
    writeln!(f, "  \"scenarios\": [")?;
    writeln!(f, "{}", blocks.join(",\n"))?;
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    println!("wrote results/BENCH_ingest.json");
    Ok(())
}
