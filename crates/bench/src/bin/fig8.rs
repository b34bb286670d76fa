//! Fig 8 — Credit value changes based on node behaviour.
//!
//! Panel (a): one malicious attack at t = 24 s; the paper shows Cr
//! collapsing, a ~37 s transaction gap, and gradual recovery.
//! Panel (b): two attacks (≈24 s and ≈50 s) with a longer recovery.
//!
//! Runs `biot_sim::experiments::fig8::PANELS`, prints each panel and
//! writes `results/fig8a.csv` / `fig8b.csv` (t_secs, cr, crp, crn,
//! difficulty, tx_mark).

use biot_bench::{header, row, sparkline, write_csv};
use biot_sim::experiments::fig8::{Panel, PANELS};
use biot_sim::RunResult;

fn print_panel(panel: &Panel, result: &RunResult) {
    let attacks = panel.attacks_s;
    println!("\n--- Fig 8({}): attacks at {attacks:?} s ---", panel.label);
    println!("  t(s)   Cr        CrP      CrN        D   txs");
    let mut cr_series = Vec::new();
    for s in result.samples.iter().step_by(3) {
        cr_series.push(s.cr);
        let bars: String = result
            .outcomes
            .iter()
            .filter(|o| o.submitted_at_secs >= s.t_secs && o.submitted_at_secs < s.t_secs + 3.0)
            .map(|o| if o.was_attack { '!' } else { '|' })
            .collect();
        println!(
            "  {:>4.0}  {:>8.2}  {:>7.3}  {:>8.2}  {:>3}  {}",
            s.t_secs, s.cr, s.crp, s.crn, s.difficulty, bars
        );
    }
    println!("  Cr shape: {}", sparkline(&cr_series));
    let gap = result.longest_gap_secs();
    row(&[
        ("longest_tx_gap", format!("{gap:.1}s")),
        ("paper_gap", panel.paper_gap.into()),
        ("accepted_txs", result.accepted_count().to_string()),
        (
            "attacks_cancelled",
            result
                .outcomes
                .iter()
                .filter(|o| o.was_attack && !o.accepted)
                .count()
                .to_string(),
        ),
    ]);
}

/// One CSV row per credit sample. `tx_mark` is the final weight of the
/// first transaction submitted in that second, −1 for an attack, 0 for
/// none.
fn csv_rows(result: &RunResult) -> Vec<String> {
    result
        .samples
        .iter()
        .map(|s| {
            let mark = result
                .outcomes
                .iter()
                .find(|o| o.submitted_at_secs >= s.t_secs && o.submitted_at_secs < s.t_secs + 1.0)
                .map(|o| if o.was_attack { -1.0 } else { o.final_weight as f64 })
                .unwrap_or(0.0);
            format!(
                "{:.0},{:.4},{:.4},{:.4},{},{mark}",
                s.t_secs, s.cr, s.crp, s.crn, s.difficulty
            )
        })
        .collect()
}

fn main() -> std::io::Result<()> {
    header(
        "Fig 8: credit value vs node behaviour",
        "Huang et al., ICDCS'19, Fig. 8(a)/(b)",
    );
    let results: Vec<RunResult> = PANELS.iter().map(Panel::run).collect();
    for (panel, result) in PANELS.iter().zip(&results) {
        print_panel(panel, result);
    }
    for (panel, result) in PANELS.iter().zip(&results) {
        write_csv(
            &format!("fig8{}", panel.label),
            "t_secs,cr,crp,crn,difficulty,tx_mark",
            csv_rows(result),
        )?;
    }
    Ok(())
}
