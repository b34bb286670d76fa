//! Emits `results/BENCH_mesh.json`: gossip mesh convergence and wire
//! cost at fleet scale (ISSUE 8).
//!
//! For each fleet size (default 16 / 50 / 100) the same seeded oracle
//! workload — a 200-transaction DAG plus a credit-event schedule, items
//! surfacing at seeded origin nodes — is gossiped across a random
//! bounded-degree topology twice: once with digest-batched
//! duplicate-suppressed relay ([`RelayMode::Digest`]) and once with the
//! naive payload flood baseline ([`RelayMode::Flood`]). Convergence is
//! *bit-for-bit* against a single-node oracle: identical tips, identical
//! cumulative weight for every transaction, identical `(CrP, CrN, Cr)`
//! for every node the credit ledger knows.
//!
//! The embedded `acceptance` block asserts the issue's claims: every
//! fleet converges, digest relay moves ≥ 3× fewer bytes per node than
//! flood at the largest fleet, bytes-per-node-per-tx does not grow from
//! the smallest to the largest fleet, a partitioned fleet heals and
//! still converges, and two seeded runs produce identical reports.
//!
//! `bytes_per_node_per_tx` counts *wire-delivered* transactions in its
//! denominator (`txs × (N−1)/N`): a node's own submissions arrive
//! locally, and that free fraction shrinks as the fleet grows, so
//! dividing by raw `txs` would grow with N for every protocol — even
//! one delivering each payload exactly once. The raw figure is kept
//! alongside as `bytes_per_node_per_tx_raw`.
//!
//! Run with: `cargo run -p biot-bench --release --bin mesh_report`
//!
//! CI shrinks the scale via `BIOT_MESH_SIZES` (comma-separated fleet
//! sizes) and `BIOT_MESH_TXS`.

use biot_gossip::RelayMode;
use biot_sim::mesh::{run_mesh, MeshConfig, MeshOutcome, Partition, ANTI_ENTROPY_MS, DIGEST_MS};
use std::fs;
use std::io::Write;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_sizes(name: &str, default: &[usize]) -> Vec<usize> {
    std::env::var(name)
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse().ok())
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

fn base_cfg(nodes: usize, txs: usize, relay_mode: RelayMode) -> MeshConfig {
    MeshConfig {
        nodes,
        txs,
        relay_mode,
        ..MeshConfig::default()
    }
}

fn fmt_outcome(o: &MeshOutcome) -> String {
    let kinds: Vec<String> = o
        .frames_by_kind
        .iter()
        .map(|(kind, c)| format!("\"{kind}\": {{\"frames\": {}, \"bytes\": {}}}", c.frames, c.bytes))
        .collect();
    format!(
        "{{\"nodes\": {}, \"txs\": {}, \"converged\": {}, \"converged_ms\": {}, \
         \"rounds\": {}, \"total_bytes_sent\": {}, \"total_frames_sent\": {}, \
         \"bytes_per_node\": {}, \"bytes_per_node_per_tx\": {:.1}, \
         \"bytes_per_node_per_tx_raw\": {:.1}, \
         \"redundant_deliveries\": {}, \"redundancy_ratio\": {:.3}, \
         \"dup_suppressed\": {}, \"digests_sent\": {}, \"digest_ids_sent\": {}, \
         \"peer_exchanges_sent\": {}, \"credit_events_deduped\": {}, \"handshakes\": {}, \
         \"tx_payloads_sent\": {}, \"requests_sent\": {}, \"credit_events_sent\": {}, \
         \"credit_versions_sent\": {}, \"frames_by_kind\": {{{}}}}}",
        o.nodes,
        o.txs,
        o.converged,
        o.converged_ms,
        o.rounds,
        o.total_bytes_sent,
        o.total_frames_sent,
        o.bytes_per_node,
        o.bytes_per_node_per_tx,
        o.bytes_per_node_per_tx_raw,
        o.redundant_deliveries,
        o.redundancy_ratio,
        o.dup_suppressed,
        o.digests_sent,
        o.digest_ids_sent,
        o.peer_exchanges_sent,
        o.credit_events_deduped,
        o.handshakes,
        o.tx_payloads_sent,
        o.requests_sent,
        o.credit_events_sent,
        o.credit_versions_sent,
        kinds.join(", "),
    )
}

fn main() -> std::io::Result<()> {
    let sizes = env_sizes("BIOT_MESH_SIZES", &[16, 50, 100]);
    let txs = env_usize("BIOT_MESH_TXS", 200);

    biot_bench::header(
        "mesh: N-node gossip convergence and bytes-on-wire",
        "ISSUE 8 — digest-batched dedup relay vs flood, bit-for-bit vs single-node oracle",
    );

    let mut digest_runs = Vec::new();
    let mut flood_runs = Vec::new();
    for &n in &sizes {
        println!("fleet of {n}: digest relay...");
        let d = run_mesh(&base_cfg(n, txs, RelayMode::Digest));
        println!(
            "  converged={} at {} ms virtual; {} B/node ({:.0} B/node/tx), redundancy {:.3}",
            d.converged, d.converged_ms, d.bytes_per_node, d.bytes_per_node_per_tx,
            d.redundancy_ratio,
        );
        println!("fleet of {n}: flood baseline...");
        let f = run_mesh(&base_cfg(n, txs, RelayMode::Flood));
        println!(
            "  converged={} at {} ms virtual; {} B/node ({:.0} B/node/tx), redundancy {:.3}",
            f.converged, f.converged_ms, f.bytes_per_node, f.bytes_per_node_per_tx,
            f.redundancy_ratio,
        );
        digest_runs.push(d);
        flood_runs.push(f);
    }

    // Partition/heal at the smallest fleet: the cut severs the halves
    // mid-injection; the heal must still reach bit-for-bit convergence.
    let part_nodes = *sizes.first().expect("at least one fleet size");
    println!("fleet of {part_nodes}: digest relay with partition 0.5s→3.0s...");
    let partitioned = run_mesh(&MeshConfig {
        partition: Some(Partition { start_ms: 500, heal_ms: 3_000 }),
        ..base_cfg(part_nodes, txs, RelayMode::Digest)
    });
    println!(
        "  converged={} at {} ms virtual; {} handshakes (redials included)",
        partitioned.converged, partitioned.converged_ms, partitioned.handshakes,
    );

    // Determinism: the largest digest fleet, re-run bit-identically.
    let max_n = *sizes.last().expect("at least one fleet size");
    println!("fleet of {max_n}: seeded re-run for determinism...");
    let rerun = run_mesh(&base_cfg(max_n, txs, RelayMode::Digest));
    let deterministic = rerun == digest_runs[sizes.len() - 1];
    println!("  identical outcome: {deterministic}");

    let all_converged = digest_runs.iter().chain(flood_runs.iter()).all(|o| o.converged)
        && partitioned.converged;
    let d_last = &digest_runs[sizes.len() - 1];
    let f_last = &flood_runs[sizes.len() - 1];
    let flood_ratio = f_last.bytes_per_node as f64 / d_last.bytes_per_node.max(1) as f64;
    let beats_3x = flood_ratio >= 3.0;
    let first_bpt = digest_runs[0].bytes_per_node_per_tx;
    let last_bpt = d_last.bytes_per_node_per_tx;
    let flat = last_bpt <= first_bpt;
    println!(
        "flood/digest bytes-per-node at N={max_n}: {flood_ratio:.2}x ({})",
        if beats_3x { ">=3x, pass" } else { "BELOW 3x" }
    );
    println!(
        "bytes/node/tx {}→{}: {first_bpt:.1} → {last_bpt:.1} ({})",
        sizes[0],
        max_n,
        if flat { "non-increasing" } else { "GROWING" }
    );

    fs::create_dir_all("results")?;
    let mut f = fs::File::create("results/BENCH_mesh.json")?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"sizes\": {sizes:?},")?;
    writeln!(f, "  \"txs\": {txs},")?;
    let knobs = MeshConfig::default();
    writeln!(f, "  \"payload_bytes\": {},", knobs.payload_bytes)?;
    writeln!(f, "  \"degree\": {},", knobs.degree)?;
    writeln!(f, "  \"fanout\": {},", knobs.fanout)?;
    writeln!(f, "  \"digest_ms\": {DIGEST_MS},")?;
    writeln!(f, "  \"anti_entropy_ms\": {ANTI_ENTROPY_MS},")?;
    writeln!(f, "  \"seed\": {},", knobs.seed)?;
    let cells: Vec<String> = digest_runs.iter().map(fmt_outcome).collect();
    writeln!(f, "  \"digest\": [\n    {}\n  ],", cells.join(",\n    "))?;
    let cells: Vec<String> = flood_runs.iter().map(fmt_outcome).collect();
    writeln!(f, "  \"flood\": [\n    {}\n  ],", cells.join(",\n    "))?;
    writeln!(f, "  \"partitioned\": {},", fmt_outcome(&partitioned))?;
    writeln!(f, "  \"acceptance\": {{")?;
    writeln!(f, "    \"all_converged_bit_for_bit\": {all_converged},")?;
    writeln!(f, "    \"flood_over_digest_bytes_per_node\": {flood_ratio:.2},")?;
    writeln!(f, "    \"digest_beats_flood_3x\": {beats_3x},")?;
    writeln!(f, "    \"bytes_per_node_per_tx_first\": {first_bpt:.1},")?;
    writeln!(f, "    \"bytes_per_node_per_tx_last\": {last_bpt:.1},")?;
    writeln!(f, "    \"bytes_per_node_per_tx_non_increasing\": {flat},")?;
    writeln!(f, "    \"partition_heals\": {},", partitioned.converged)?;
    writeln!(f, "    \"deterministic\": {deterministic}")?;
    writeln!(f, "  }}")?;
    writeln!(f, "}}")?;
    println!("wrote results/BENCH_mesh.json");
    Ok(())
}
