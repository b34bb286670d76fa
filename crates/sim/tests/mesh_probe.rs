//! Knob-sweep probe for the mesh runner. `#[ignore]`d: run on demand
//! with `cargo test -p biot-sim --release probe -- --ignored --nocapture`
//! when retuning [`MeshConfig`] defaults.

use biot_sim::mesh::{run_mesh, MeshConfig};

#[test]
#[ignore]
fn probe() {
    for fanout in [0usize, 6, 5, 4] {
        for nodes in [16usize, 100] {
            let out = run_mesh(&MeshConfig {
                nodes,
                fanout,
                peer_exchange_ms: 30_000,
                ..MeshConfig::default()
            });
            let per = |v: u64| v as f64 / nodes as f64 / out.txs as f64;
            println!(
                "fanout={fanout} nodes={nodes}: {:.0} B/node/tx conv={}@{}ms | \
                 payloads/ntx={:.2} ids/ntx={:.2} digests/ntx={:.2} reqs/ntx={:.2} credit/ntx={:.2} cvers/ntx={:.2}",
                out.bytes_per_node_per_tx,
                out.converged,
                out.converged_ms,
                per(out.tx_payloads_sent),
                per(out.digest_ids_sent),
                per(out.digests_sent),
                per(out.requests_sent),
                per(out.credit_events_sent),
                per(out.credit_versions_sent),
            );
        }
    }
}
