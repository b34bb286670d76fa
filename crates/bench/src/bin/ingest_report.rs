//! Emits `results/BENCH_ingest.json`: sustained admission throughput and
//! ack round-trip latency for the event-loop ingest front end serving
//! concurrent light-node connections over real sockets.
//!
//! Two scenarios at the same total connection count:
//!
//! * **saturated** — every connection sends as fast as its schedule
//!   allows, so nearly every socket is ready every tick and admission
//!   work dominates.
//! * **sparse** — the realistic IoT fleet: a few percent of the
//!   connections are active, the rest sit connected and silent. The
//!   reactor pays only for the active ones.
//!
//! The committed JSON also carries `scan` rows and reactor-vs-scan
//! ratios from when the level-triggered scan poller was still a config
//! choice; they record why epoll runs in production. The scan poller is
//! now only the fallback on platforms without epoll, so a fresh run of
//! this bin reports the one poller the platform builds.
//!
//! Run with: `cargo run -p biot-bench --release --bin ingest_report`
//!
//! The default scale is 1000 concurrent connections; CI shrinks it via
//! the same environment knobs the `loadgen` bin reads
//! (`BIOT_INGEST_CONNS`, `BIOT_INGEST_FRAMES`, `BIOT_INGEST_BATCH`,
//! `BIOT_INGEST_INTERVAL_MS`, `BIOT_INGEST_DEADLINE_S`).

use biot_sim::loadgen::{run_loadgen, LoadgenConfig};
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
        ("saturated", LoadgenConfig {
            connections: total_conns,
            idle_connections: 0,
            frames_per_conn: frames,
            batch_size: batch,
            arrival_interval: Duration::from_millis(interval_ms),
            deadline,
            ..LoadgenConfig::default()
        }),
        ("sparse", LoadgenConfig {
            connections: sparse_active,
            idle_connections: total_conns - sparse_active,
            frames_per_conn: frames * 8,
            batch_size: batch,
            arrival_interval: Duration::from_millis(interval_ms),
            deadline,
            ..LoadgenConfig::default()
        }),
    ];

    let mut blocks = Vec::new();
    for (name, config) in &scenarios {
        let r = run_loadgen(config);
        println!(
            "{name:>9}: {} active (+{} idle), {} admitted in {} ms -> {:>8.0} tx/s, \
             ack RTT p50 {:.2} ms p99 {:.2} ms",
            r.connections,
            config.idle_connections,
            r.acked.accepted,
            r.elapsed_ms,
            r.admitted_per_sec,
            r.p50_ms,
            r.p99_ms,
        );
        assert_eq!(r.acked.total(), r.sent_txs, "every transaction must be acked");
        blocks.push(format!(
            "    {{\"name\": \"{name}\", \"connections\": {}, \"idle_connections\": {}, \
             \"frames_per_conn\": {}, \"batch_size\": {}, \"arrival_interval_ms\": {},\n\
             \"completed_conns\": {}, \"sent_txs\": {}, \"admitted\": {}, \"busy\": {}, \
             \"rate_limited\": {}, \"rejected\": {}, \"elapsed_ms\": {}, \
             \"admitted_per_sec\": {:.1}, \"ack_rtt_p50_ms\": {:.3}, \"ack_rtt_p99_ms\": {:.3}}}",
            config.connections,
            config.idle_connections,
            config.frames_per_conn,
            config.batch_size,
            config.arrival_interval.as_millis(),
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
