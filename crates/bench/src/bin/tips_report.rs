//! Emits `results/BENCH_tips.json`: tip-selection throughput (selections
//! per second) on 1k / 10k / 50k-transaction tangles, indexed fast path
//! vs the legacy `select_tips_recount` rebuild, for the weighted and
//! depth-constrained selectors.
//!
//! Run with: `cargo run -p biot-bench --release --bin tips_report`
//!
//! Every tangle is grown with a gateway's confirm + seal cadence (the
//! weight index's attach cost is O(unsealed ancestor cone), so an
//! unsealed 50k build would be quadratic in the full history). The tangle
//! is append-only: `stored` is `attached` plus the genesis.
//! `scripts/check_reports.py tips` checks that, and that depth-constrained
//! selection stays O(walk) as the tangle grows.

use biot_tangle::graph::Tangle;
use biot_tangle::tips::{
    DepthConstrainedSelector, TipSelector, UniformRandomSelector, WeightedMcmcSelector,
};
use biot_tangle::tx::{NodeId, Payload, TransactionBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::io::Write;
use std::time::Instant;

/// Confirm and seal every this many attaches, as a gateway's refresh does.
const REFRESH_EVERY: usize = 256;
/// Recency lag handed to `seal_frontier`.
const SEAL_LAG: usize = 128;

/// Grows an `n`-transaction tangle, confirming at the gateway's default
/// threshold and sealing on the [`REFRESH_EVERY`] cadence so the unsealed
/// frontier (and thus attach cost) stays bounded, as on a long-lived
/// gateway.
fn build_tangle(n: usize) -> Tangle {
    let mut rng = StdRng::seed_from_u64(11);
    let mut tangle = Tangle::new();
    tangle.attach_genesis(NodeId([0; 32]), 0);
    for i in 0..n {
        let (a, b) = UniformRandomSelector
            .select_tips(&tangle, &mut rng)
            .unwrap();
        let tx = TransactionBuilder::new(NodeId([(i % 250) as u8; 32]))
            .parents(a, b)
            .payload(Payload::Data((i as u64).to_be_bytes().to_vec()))
            .timestamp_ms(i as u64 + 1)
            .build();
        tangle.attach(tx, i as u64 + 1).unwrap();
        if i % REFRESH_EVERY == REFRESH_EVERY - 1 {
            tangle.confirm_with_threshold(3);
            tangle.seal_frontier(SEAL_LAG);
        }
    }
    tangle
}

/// Selections per second: runs `select` repeatedly for ~`budget_s` of
/// wall clock (at least 3 reps) and divides.
fn selections_per_sec(mut select: impl FnMut(), budget_s: f64) -> f64 {
    let start = Instant::now();
    let mut reps = 0u64;
    while reps < 3 || start.elapsed().as_secs_f64() < budget_s {
        select();
        reps += 1;
    }
    reps as f64 / start.elapsed().as_secs_f64()
}

struct Row {
    attached: usize,
    stored: usize,
    dc_new: f64,
    dc_old: f64,
    w_new: f64,
    w_old: f64,
}

fn main() -> std::io::Result<()> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host cores: {cores}");

    let mut rows = Vec::new();
    for n in [1_000usize, 10_000, 50_000] {
        let tangle = build_tangle(n);
        let stored = tangle.len();
        let dc = DepthConstrainedSelector::new(0.3, 100);
        let weighted = WeightedMcmcSelector::new(0.3);

        let mut rng = StdRng::seed_from_u64(23);
        let dc_new = selections_per_sec(
            || std::hint::black_box(dc.select_tips(&tangle, &mut rng)).map(|_| ()).unwrap(),
            0.4,
        );
        let mut rng = StdRng::seed_from_u64(23);
        let dc_old = selections_per_sec(
            || {
                std::hint::black_box(dc.select_tips_recount(&tangle, &mut rng))
                    .map(|_| ())
                    .unwrap()
            },
            0.4,
        );
        let mut rng = StdRng::seed_from_u64(29);
        let w_new = selections_per_sec(
            || {
                std::hint::black_box(weighted.select_tips(&tangle, &mut rng))
                    .map(|_| ())
                    .unwrap()
            },
            0.4,
        );
        let mut rng = StdRng::seed_from_u64(29);
        let w_old = selections_per_sec(
            || {
                std::hint::black_box(weighted.select_tips_recount(&tangle, &mut rng))
                    .map(|_| ())
                    .unwrap()
            },
            0.4,
        );

        println!(
            "n={n:>6} stored={stored:>6}  depth-constrained {dc_old:>10.0}/s -> {dc_new:>10.0}/s \
             ({:>6.1}x)  weighted {w_old:>9.0}/s -> {w_new:>9.0}/s ({:>5.1}x)",
            dc_new / dc_old.max(1e-9),
            w_new / w_old.max(1e-9),
        );
        rows.push(Row {
            attached: n,
            stored,
            dc_new,
            dc_old,
            w_new,
            w_old,
        });
    }

    fs::create_dir_all("results")?;
    let mut f = fs::File::create("results/BENCH_tips.json")?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"host_cores\": {cores},")?;
    writeln!(f, "  \"selector\": {{\"alpha\": 0.3, \"window\": 100}},")?;
    writeln!(f, "  \"tangles\": [")?;
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"attached\": {}, \"stored\": {}, \
                 \"depth_constrained\": {{\"recount_per_sec\": {:.1}, \"indexed_per_sec\": {:.1}, \
                 \"speedup\": {:.1}}}, \
                 \"weighted\": {{\"recount_per_sec\": {:.1}, \"indexed_per_sec\": {:.1}, \
                 \"speedup\": {:.1}}}}}",
                r.attached,
                r.stored,
                r.dc_old,
                r.dc_new,
                r.dc_new / r.dc_old.max(1e-9),
                r.w_old,
                r.w_new,
                r.w_new / r.w_old.max(1e-9),
            )
        })
        .collect();
    writeln!(f, "{}", body.join(",\n"))?;
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    println!("wrote results/BENCH_tips.json");
    Ok(())
}
