//! A1 — DAG-structured vs chain-structured throughput (paper §II claim).
//!
//! The same Poisson workload is driven through the tangle and the
//! satoshi-style baseline; effective committed tx/s and latency are
//! compared across offered loads. Expected shape: the chain saturates at
//! `block_capacity / block_interval` and suffers fork waste; the tangle
//! tracks the offered load until gateway validation capacity.
//!
//! Runs `biot_sim::experiments::a1` (300 s per load) and writes
//! `results/throughput.csv`.

use biot_bench::{header, row, write_csv};
use biot_sim::experiments::a1;

fn main() -> std::io::Result<()> {
    header(
        "A1: tangle vs chain effective throughput",
        "Huang et al., ICDCS'19, §II (DAG motivation)",
    );
    let base = a1::base();
    println!(
        "\n  chain cap = {:.0} tx/s (block {} txs / {}s interval); \
         tangle cap = {:.0} tx/s (1 / {} ms validation)\n",
        base.block_capacity as f64 / base.block_interval_s,
        base.block_capacity,
        base.block_interval_s,
        1000.0 / base.tangle_validate_ms as f64,
        base.tangle_validate_ms
    );

    let rows = a1::run();
    for r in &rows {
        row(&[
            ("offered_tps", format!("{:>6.0}", r.offered_tps)),
            ("tangle_tps", format!("{:>7.1}", r.tangle.effective_tps)),
            ("chain_tps", format!("{:>6.1}", r.chain.effective_tps)),
            (
                "tangle_lat",
                format!("{:>7.3}s", r.tangle.mean_latency_s),
            ),
            ("chain_lat", format!("{:>6.1}s", r.chain.mean_latency_s)),
            ("chain_fork_waste", format!("{:>5}", r.chain.wasted)),
            (
                "dag_advantage",
                format!(
                    "{:>5.1}x",
                    r.tangle.effective_tps / r.chain.effective_tps.max(0.01)
                ),
            ),
        ]);
    }
    println!(
        "\n  crossover: below the chain's block cap both keep up (latency still\n  \
         favours the tangle); past it the DAG advantage grows with offered load."
    );

    write_csv(
        "throughput",
        "offered_tps,tangle_tps,chain_tps,tangle_latency_s,chain_latency_s,chain_fork_waste",
        rows.iter().map(|r| {
            format!(
                "{},{:.2},{:.2},{:.4},{:.2},{}",
                r.offered_tps,
                r.tangle.effective_tps,
                r.chain.effective_tps,
                r.tangle.mean_latency_s,
                r.chain.mean_latency_s,
                r.chain.wasted
            )
        }),
    )
}
