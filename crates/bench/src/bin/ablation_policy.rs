//! A2 — difficulty-policy ablation: the paper's inverse-proportional
//! `Cr ∝ 1/D` mapping vs a linear mapping vs fixed difficulty, under
//! normal behaviour, one attack and two attacks (A2's own schedule, at
//! 30 s and 55 s; see `biot_sim::experiments::a2`).
//!
//! What to look for: the inverse policy punishes hard immediately after
//! an attack (clamps to D=14) yet recovers as CrN decays; the linear
//! policy's punishment scales differently with credit depth; fixed
//! difficulty neither rewards nor punishes.

use biot_bench::{header, row, secs};
use biot_sim::experiments::a2::{policies, SCENARIOS, SEEDS};
use biot_sim::experiments::averaged;

fn main() {
    header(
        "A2: difficulty-policy ablation",
        "DESIGN.md §4.1 (the paper fixes Cr ∝ 1/D but not the exact map)",
    );

    println!();
    for (pname, policy) in policies() {
        for (sname, attacks) in SCENARIOS {
            let c = averaged(policy, attacks, &SEEDS);
            row(&[
                ("policy", format!("{pname:<16}")),
                ("scenario", format!("{sname:<10}")),
                ("avg_pow", secs(c.avg_pow_secs)),
                ("txs/run", format!("{:>5.1}", c.accepted_per_run)),
                ("max_gap", format!("{:>6.1}s", c.max_gap_secs)),
            ]);
        }
        println!();
    }
    println!(
        "  takeaway: both adaptive policies reward honest activity and punish\n  \
         attacks; the inverse map (paper) reacts more sharply to deep negative\n  \
         credit because D multiplies with |Cr| instead of adding to it."
    );
}
