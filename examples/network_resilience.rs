//! Network resilience on the real gossip stack: a healthy gateway mesh, the
//! same mesh cut in half and healed, and a replicated gateway pair that
//! loses its primary mid-run.
//!
//! Shows the §VI-C availability story at the *network* level. The mesh runs
//! `biot-gossip` nodes over jittered links on a virtual clock; a partition
//! severs every link crossing a half/half cut, and after the heal reconnect
//! backoff plus anti-entropy bring every node back to the oracle
//! bit-for-bit (tips, weights, credit). Devices whose home gateway dies
//! fail over to its replica.
//!
//! Exits non-zero unless all three scenarios succeed.
//!
//! Run with: `cargo run --release --example network_resilience`

use biot::sim::attack::failover_experiment;
use biot::sim::mesh::{run_mesh, MeshConfig, MeshOutcome, Partition};
use std::process::ExitCode;

fn main() -> ExitCode {
    let healthy_cfg = MeshConfig::default();
    println!(
        "== Healthy mesh ({} gateways, degree {}, {} txs, {} credit events) ==",
        healthy_cfg.nodes, healthy_cfg.degree, healthy_cfg.txs, healthy_cfg.credit_events
    );
    let healthy = run_mesh(&healthy_cfg);
    report(&healthy);

    let cut = Partition { start_ms: 1_000, heal_ms: 4_000 };
    println!(
        "\n== Partitioned mesh (half/half cut from {} ms, healed at {} ms) ==",
        cut.start_ms, cut.heal_ms
    );
    let partitioned = run_mesh(&MeshConfig {
        partition: Some(cut),
        ..healthy_cfg
    });
    report(&partitioned);

    println!("\n== Primary gateway killed mid-run ==");
    let failover = failover_experiment(4);
    println!(
        "  accepted before failure: {}  after failover: {}  survivor ledger: {} txs",
        failover.before_failure, failover.after_failure, failover.survivor_ledger_len
    );

    let failover_ok = failover.before_failure > 0 && failover.after_failure == failover.before_failure;
    if healthy.converged && partitioned.converged && failover_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "resilience check failed: healthy converged {}, partitioned converged {}, failover ok {}",
            healthy.converged, partitioned.converged, failover_ok
        );
        ExitCode::FAILURE
    }
}

fn report(r: &MeshOutcome) {
    if r.converged {
        println!(
            "  converged bit-for-bit at {} ms ({} event-loop wakeups)",
            r.converged_ms, r.rounds
        );
    } else {
        println!("  DID NOT converge within the run ({} event-loop wakeups)", r.rounds);
    }
    println!(
        "  handshakes: {}  wire: {} B/node  redundant deliveries: {}",
        r.handshakes, r.bytes_per_node, r.redundant_deliveries
    );
}
