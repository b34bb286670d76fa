//! Fig 10 — Impact of the symmetric encryption algorithm on transaction
//! efficiency: AES encryption time vs message length (64 B → 1 MiB,
//! log₂ scale).
//!
//! Paper anchors (Raspberry Pi 3B, AES in C): 64 B → 0.205 ms,
//! 64 KiB → 93.22 ms, 256 KiB → 0.373 s, 1 MiB → 1.491 s.
//!
//! Reported series:
//! 1. **Pi model** — the calibrated linear model used in virtual time
//!    (hits the paper's anchors).
//! 2. **Host CPU** — our from-scratch AES-CBC measured on this machine;
//!    shape (linear in message size) is the comparable quantity.
//!
//! Runs `biot_sim::experiments::fig10` and writes `results/fig10.csv`
//! (bytes, pi_model_secs, host_secs).

use biot_bench::{header, row, secs, sparkline, write_csv};
use biot_sim::experiments::fig10::{self, LOG2_SIZES};
use biot_sim::AesTiming;

fn main() -> std::io::Result<()> {
    header(
        "Fig 10: AES encryption time vs message length",
        "Huang et al., ICDCS'19, Fig. 10",
    );
    println!("\n  paper anchors: 2^6B=0.205ms  2^16B=93.22ms  2^18B=0.373s  2^20B=1.491s\n");

    let rows: Vec<fig10::Row> = LOG2_SIZES.map(fig10::row).collect();
    for (log2, r) in LOG2_SIZES.zip(&rows) {
        row(&[
            ("len", format!("2^{log2:<2} ({:>8} B)", r.bytes)),
            ("pi_model", secs(r.pi_model_secs)),
            ("host_measured", secs(r.host_secs)),
        ]);
    }
    let model_series: Vec<f64> = rows.iter().map(|r| r.pi_model_secs).collect();
    let host_series: Vec<f64> = rows.iter().map(|r| r.host_secs).collect();
    println!("\n  shape (pi model):   {}", sparkline(&model_series));
    println!("  shape (host):       {}", sparkline(&host_series));

    // Linearity check: time per byte should be roughly constant at scale.
    let per_byte = |bytes: usize| {
        let r = rows.iter().find(|r| r.bytes == bytes).expect("size is swept");
        r.host_secs / bytes as f64
    };
    let (per_byte_small, per_byte_large) = (per_byte(1 << 12), per_byte(1 << 20));
    println!(
        "\n  host linearity: {:.2} ns/B @4KiB vs {:.2} ns/B @1MiB (ratio {:.2}, ~1.0 = linear)",
        per_byte_small * 1e9,
        per_byte_large * 1e9,
        per_byte_small / per_byte_large
    );
    println!(
        "  paper's takeaway: a 256 KiB packet costs {} on the Pi — \"tiny impact\"",
        secs(AesTiming::default().expected_secs(256 * 1024))
    );

    write_csv(
        "fig10",
        "bytes,pi_model_secs,host_secs",
        rows.iter().map(|r| format!("{},{:.6},{:.9}", r.bytes, r.pi_model_secs, r.host_secs)),
    )
}
