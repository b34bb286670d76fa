//! Fig 7 — Running time of the PoW algorithm with increasing difficulty.
//!
//! Paper anchors (Raspberry Pi 3B): D=1 → 0.162 s, D=12 → 10.98 s,
//! D=14 → 245.3 s, with exponential growth past D≈11.
//!
//! Two series are reported:
//! 1. **Pi-calibrated (virtual)** — the model used by all virtual-time
//!    experiments, which reproduces the paper's anchors exactly.
//! 2. **Host CPU (measured)** — a real nonce search on this machine,
//!    averaged over several preimages, demonstrating the exponential
//!    *shape* with real hashing. Absolute values differ (this is not a
//!    Pi); the per-bit growth factor is the comparable quantity.
//!
//! Runs `biot_sim::experiments::fig7` and writes `results/fig7.csv`
//! (difficulty, pi_model_secs, host_secs, host_avg_trials).

use biot_bench::{header, row, secs, sparkline, write_csv};
use biot_sim::experiments::fig7::{self, DIFFICULTIES, PAPER_ANCHORS};

fn main() -> std::io::Result<()> {
    header(
        "Fig 7: PoW running time vs difficulty",
        "Huang et al., ICDCS'19, Fig. 7",
    );
    let anchors: Vec<String> = PAPER_ANCHORS.iter().map(|(d, t)| format!("D{d}={t}s")).collect();
    println!("\n  paper anchors: {}\n", anchors.join("  "));

    let rows: Vec<fig7::Row> = DIFFICULTIES.map(fig7::row).collect();
    for r in &rows {
        row(&[
            ("D", format!("{:>2}", r.difficulty)),
            ("pi_virtual", secs(r.pi_model_secs)),
            ("host_measured", secs(r.host_secs)),
            ("host_avg_trials", format!("{:>8.0}", r.host_avg_trials)),
        ]);
    }
    let virtual_series: Vec<f64> = rows.iter().map(|r| r.pi_model_secs).collect();
    let measured_series: Vec<f64> = rows.iter().map(|r| r.host_secs).collect();
    println!("\n  shape (pi virtual):    {}", sparkline(&virtual_series));
    println!("  shape (host measured): {}", sparkline(&measured_series));

    // Growth factors over the exponential tail.
    let tail_growth = measured_series[13] / measured_series[9].max(1e-12);
    println!(
        "\n  host growth D10→D14: {tail_growth:.0}x (ideal 2^4 = 16x; \
         paper's tail grows even faster in its own difficulty unit)"
    );
    let [_, (_, d12), (_, d14)] = PAPER_ANCHORS;
    println!(
        "  paper-anchor check: D14/D12 = {:.1}x (paper: {:.1}x)",
        rows[13].pi_model_secs / rows[11].pi_model_secs,
        d14 / d12
    );

    write_csv(
        "fig7",
        "difficulty,pi_model_secs,host_secs,host_avg_trials",
        rows.iter().map(|r| {
            format!(
                "{},{:.6},{:.9},{:.1}",
                r.difficulty, r.pi_model_secs, r.host_secs, r.host_avg_trials
            )
        }),
    )
}
