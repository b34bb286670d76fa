//! Emits `results/BENCH_tangle_scale.json`: the million-transaction
//! ingest run for the sealed-cone weight index.
//!
//! Three measurements, all on the same seeded graph:
//!
//! * **sealed ingest** — attach 1M transactions with the gateway's
//!   steady-state confirm/seal cadence, recording per-attach pause
//!   percentiles, a log2 pause histogram, per-window throughput (flat
//!   windows = per-attach cost bounded by the frontier, not ledger
//!   depth), resident sealed vs frontier sizes, and
//!   sampled recount-oracle checks (the run aborts on any mismatch).
//! * **probe at depth** — a fresh attach batch against the finished
//!   1M-tx tangle, once with the seal in place and once on an unsealed
//!   clone whose every attach walks toward genesis. The unsealed *full*
//!   run is quadratic (hours), so this probes the exact per-attach cost
//!   the index changes, at identical depth, instead.
//! * **acceptance** — bounded-pause and ≥5× speedup checks, embedded in
//!   the JSON so CI can assert on them.
//!
//! Run with: `cargo run -p biot-bench --release --bin tangle_scale_report`
//!
//! CI shrinks the scale via `BIOT_SCALE_TXS` and `BIOT_SCALE_PROBES`.

use biot_bench::scale::{probe_attach, run_sealed_ingest, ProbeStats, ScaleConfig, ScaleReport};
use std::fs;
use std::io::Write;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn fmt_probe(p: &ProbeStats) -> String {
    format!(
        "{{\"probes\": {}, \"mean_ns\": {:.1}, \"p99_ns\": {}, \"max_ns\": {}, \
         \"tx_per_sec\": {:.1}}}",
        p.probes, p.mean_ns, p.p99_ns, p.max_ns, p.tx_per_sec
    )
}

fn fmt_f64s(xs: &[f64]) -> String {
    let cells: Vec<String> = xs.iter().map(|x| format!("{x:.1}")).collect();
    format!("[{}]", cells.join(", "))
}

fn fmt_u64s(xs: &[u64]) -> String {
    let cells: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", cells.join(", "))
}

fn fmt_sealed(r: &ScaleReport) -> String {
    let hist: Vec<String> = r
        .histogram
        .iter()
        .map(|(lo, c)| format!("[{lo}, {c}]"))
        .collect();
    format!(
        "{{\n    \"txs\": {},\n    \"elapsed_ms\": {:.1},\n    \"tx_per_sec\": {:.1},\n    \
         \"attach_ns_p50\": {},\n    \"attach_ns_p99\": {},\n    \"attach_ns_max\": {},\n    \
         \"pause_histogram_ns\": [{}],\n    \"window_tx_per_sec\": {},\n    \
         \"window_p99_ns\": {},\n    \"frontier_len\": {},\n    \"sealed_len\": {},\n    \
         \"seals\": {},\n    \"boundary_passes\": {},\n    \"stray_walks\": {},\n    \
         \"oracle_checks\": {},\n    \"oracle_failures\": {}\n  }}",
        r.txs,
        r.elapsed_ms,
        r.tx_per_sec,
        r.attach_ns_p50,
        r.attach_ns_p99,
        r.attach_ns_max,
        hist.join(", "),
        fmt_f64s(&r.window_tx_per_sec),
        fmt_u64s(&r.window_p99_ns),
        r.frontier_len,
        r.sealed_len,
        r.seals,
        r.passes,
        r.strays,
        r.oracle_checks,
        r.oracle_failures,
    )
}

fn main() -> std::io::Result<()> {
    let txs = env_usize("BIOT_SCALE_TXS", 1_000_000);
    let probes = env_usize("BIOT_SCALE_PROBES", 500);
    let cfg = ScaleConfig {
        txs,
        ..ScaleConfig::default()
    };

    biot_bench::header(
        "tangle_scale: sealed-cone weight index at 1M transactions",
        "ROADMAP item 3 — storage/indexing proportional to the frontier (cf. DLedger)",
    );
    println!("sealed ingest of {txs} txs (confirm every {}, seal every {}, lag {})...",
        cfg.confirm_every, cfg.seal_every, cfg.seal_lag);
    let (tangle, sealed) = run_sealed_ingest(&cfg);
    println!(
        "  {:.0} tx/s, attach p50 {} ns, p99 {} ns, max {} ns; {} sealed / {} frontier",
        sealed.tx_per_sec,
        sealed.attach_ns_p50,
        sealed.attach_ns_p99,
        sealed.attach_ns_max,
        sealed.sealed_len,
        sealed.frontier_len,
    );
    println!(
        "  oracle: {} checks, {} failures; seals {}, passes {}, strays {}",
        sealed.oracle_checks, sealed.oracle_failures, sealed.seals, sealed.passes, sealed.strays,
    );

    println!("probing {probes} fresh attaches at depth {txs}, sealed index...");
    let probe_sealed = probe_attach(&tangle, probes, 0xCAFE);
    println!("  mean {:.0} ns, p99 {} ns", probe_sealed.mean_ns, probe_sealed.p99_ns);

    println!("unsealing the clone (weights folded back) and re-probing...");
    let mut unsealed = tangle.clone();
    unsealed.unseal_all();
    let probe_unsealed = probe_attach(&unsealed, probes, 0xCAFE);
    println!(
        "  mean {:.0} ns, p99 {} ns",
        probe_unsealed.mean_ns, probe_unsealed.p99_ns
    );
    let speedup = probe_unsealed.mean_ns / probe_sealed.mean_ns.max(1.0);
    println!("sealed vs unsealed per-attach speedup at depth: {speedup:.1}x");

    // Bounded-pause criterion: per-attach p99 in the deepest tenth of the
    // run must not have grown materially over the shallowest tenth.
    let first_p99 = *sealed.window_p99_ns.first().unwrap_or(&1) as f64;
    let last_p99 = *sealed.window_p99_ns.last().unwrap_or(&1) as f64;
    let growth = last_p99 / first_p99.max(1.0);
    let bounded = growth < 3.0;
    let fast_enough = speedup >= 5.0;
    println!(
        "window p99 growth first→last: {growth:.2}x ({})",
        if bounded { "bounded" } else { "GROWING" }
    );

    fs::create_dir_all("results")?;
    let mut f = fs::File::create("results/BENCH_tangle_scale.json")?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"txs\": {txs},")?;
    writeln!(f, "  \"seed\": {},", cfg.seed)?;
    writeln!(f, "  \"confirm_every\": {},", cfg.confirm_every)?;
    writeln!(f, "  \"confirm_threshold\": {},", cfg.confirm_threshold)?;
    writeln!(f, "  \"seal_every\": {},", cfg.seal_every)?;
    writeln!(f, "  \"seal_lag\": {},", cfg.seal_lag)?;
    writeln!(f, "  \"sealed_ingest\": {},", fmt_sealed(&sealed))?;
    writeln!(f, "  \"probe_at_depth\": {{")?;
    writeln!(f, "    \"sealed\": {},", fmt_probe(&probe_sealed))?;
    writeln!(f, "    \"unsealed\": {},", fmt_probe(&probe_unsealed))?;
    writeln!(f, "    \"speedup\": {speedup:.2}")?;
    writeln!(f, "  }},")?;
    writeln!(f, "  \"acceptance\": {{")?;
    writeln!(f, "    \"window_p99_growth\": {growth:.3},")?;
    writeln!(f, "    \"per_attach_bounded\": {bounded},")?;
    writeln!(f, "    \"speedup_at_least_5x\": {fast_enough},")?;
    writeln!(
        f,
        "    \"oracle_exact\": {}",
        sealed.oracle_failures == 0
    )?;
    writeln!(f, "  }}")?;
    writeln!(f, "}}")?;
    println!("wrote results/BENCH_tangle_scale.json");
    Ok(())
}
