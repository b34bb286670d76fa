//! Fig 9 — Performance of the credit-based PoW mechanism: four control
//! experiments over a 90-second (3·ΔT) window.
//!
//! Paper values (average PoW time per transaction, initial difficulty 11):
//!
//! | control | paper |
//! |---|---|
//! | original PoW                        | 0.700 s |
//! | credit-based, normal behaviour      | 0.118 s |
//! | credit-based, one malicious attack  | 1.667 s |
//! | credit-based, two malicious attacks | 3.750 s |
//!
//! Runs `biot_sim::experiments::fig9`, each control averaged over its
//! seeds, and writes `results/fig9.csv` (control, paper_secs,
//! measured_secs).

use biot_bench::{header, row, secs, write_csv};
use biot_sim::experiments::averaged;
use biot_sim::experiments::fig9::{controls, SEEDS};

fn main() -> std::io::Result<()> {
    header(
        "Fig 9: credit-based PoW — four control experiments",
        "Huang et al., ICDCS'19, Fig. 9",
    );
    let controls = controls();

    println!();
    let mut measured = Vec::new();
    for c in &controls {
        let m = averaged(c.policy, c.attacks_s, &SEEDS);
        measured.push(m.avg_pow_secs);
        row(&[
            ("control", format!("{:<28}", c.name)),
            ("paper", secs(c.paper_secs)),
            ("measured", secs(m.avg_pow_secs)),
            ("ratio_vs_paper", format!("{:.2}", m.avg_pow_secs / c.paper_secs)),
            ("txs/run", format!("{:.0}", m.attempts_per_run)),
        ]);
    }

    println!("\n  ordering check (who wins):");
    println!(
        "    normal < original:        {} (paper: yes)",
        measured[1] < measured[0]
    );
    println!(
        "    1 attack > original:      {} (paper: yes)",
        measured[2] > measured[0]
    );
    println!(
        "    2 attacks > 1 attack:     {} (paper: yes)",
        measured[3] > measured[2]
    );
    println!(
        "    speedup normal vs orig:   {:.1}x (paper: {:.1}x)",
        measured[0] / measured[1],
        controls[0].paper_secs / controls[1].paper_secs
    );

    write_csv(
        "fig9",
        "control,paper_secs,measured_secs",
        controls
            .iter()
            .zip(&measured)
            .map(|(c, m)| format!("{},{},{m:.4}", c.key, c.paper_secs)),
    )
}
