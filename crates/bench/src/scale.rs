//! Million-transaction ingest harness for the sealed-cone weight index.
//!
//! Drives a single tangle through a long attach run with periodic
//! confirmation and sealing — the gateway's steady-state loop with the
//! mining and networking stripped away, so what is measured is exactly
//! the ledger's per-attach cost. Sampled recount-oracle checks run inside
//! the loop, so the numbers are only reported if the index stayed exact.
//!
//! The baseline comparison deliberately does **not** re-run the full
//! ingest with sealing off: an unsealed 1M-tx run walks ever-deeper
//! cones on every attach and is quadratic — hours, not minutes. Instead
//! the finished sealed tangle is cloned, unsealed in place (folding every
//! sealed weight back into a plain entry), and both clones take the same
//! probe batch of fresh attaches *at full ledger depth*. That measures
//! precisely the quantity the index changes — per-attach cost at depth —
//! on identical graphs.

use biot_tangle::graph::Tangle;
use biot_tangle::tips::{TipSelector, UniformRandomSelector};
use biot_tangle::tx::{NodeId, Payload, TransactionBuilder, TxId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Knobs for a sealed ingest run.
#[derive(Clone, Copy, Debug)]
pub struct ScaleConfig {
    /// Transactions to attach.
    pub txs: usize,
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
    /// Run `confirm_with_threshold` every this many attaches.
    pub confirm_every: usize,
    /// Weight at which a transaction counts as confirmed.
    pub confirm_threshold: u64,
    /// Seal the confirmed cone every this many attaches.
    pub seal_every: usize,
    /// Recency lag handed to `seal_frontier`: how many recent
    /// transactions stay outside the seal.
    pub seal_lag: usize,
    /// Verify `cumulative_weight == cumulative_weight_recount` on a
    /// recently attached transaction every this many attaches (0 = off).
    pub oracle_every: usize,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        Self {
            txs: 1_000_000,
            seed: 42,
            confirm_every: 256,
            confirm_threshold: 2,
            seal_every: 512,
            seal_lag: 128,
            oracle_every: 10_000,
        }
    }
}

/// Everything a sealed ingest run measured.
#[derive(Clone, Debug)]
pub struct ScaleReport {
    /// Transactions attached.
    pub txs: usize,
    /// Wall-clock for the whole run, milliseconds.
    pub elapsed_ms: f64,
    /// Sustained attach throughput over the run.
    pub tx_per_sec: f64,
    /// Median per-attach time, nanoseconds.
    pub attach_ns_p50: u64,
    /// 99th-percentile per-attach time, nanoseconds.
    pub attach_ns_p99: u64,
    /// Worst single attach pause, nanoseconds.
    pub attach_ns_max: u64,
    /// Log2 pause histogram: `(bucket_floor_ns, count)` with
    /// `bucket_floor_ns = 2^k`, covering every attach of the run.
    pub histogram: Vec<(u64, u64)>,
    /// Attach throughput per tenth-of-run window — flat windows mean
    /// per-attach cost did not grow with ledger depth.
    pub window_tx_per_sec: Vec<f64>,
    /// p99 per-attach nanoseconds per tenth-of-run window.
    pub window_p99_ns: Vec<u64>,
    /// Frontier entries at the end of the run, counted entry by entry
    /// rather than derived from the tangle's sealed-entry counter, so
    /// `sealed_len + frontier_len == txs + 1` checks that counter.
    pub frontier_len: usize,
    /// Sealed entries at the end of the run (the tangle's counter).
    pub sealed_len: usize,
    /// Seals performed / boundary passes / stray walks (see `SealStats`).
    pub seals: u64,
    /// Attaches whose whole sealed increment was one pass-counter bump.
    pub passes: u64,
    /// Attaches that needed an exact walk inside the sealed region.
    pub strays: u64,
    /// Recount-oracle comparisons performed during the run.
    pub oracle_checks: u64,
    /// Oracle comparisons that disagreed (must be 0).
    pub oracle_failures: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn log2_histogram(samples: &[u64]) -> Vec<(u64, u64)> {
    let mut buckets = [0u64; 64];
    for &s in samples {
        buckets[64 - (s.max(1)).leading_zeros() as usize - 1] += 1;
    }
    buckets
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(k, &c)| (1u64 << k, c))
        .collect()
}

/// Builds one transaction on the given parents; payload/nonce vary with
/// `i` so ids never collide.
fn make_tx(i: usize, a: TxId, b: TxId, ts: u64) -> biot_tangle::tx::Transaction {
    TransactionBuilder::new(NodeId([(i % 251) as u8; 32]))
        .parents(a, b)
        .payload(Payload::Data((i as u64).to_be_bytes().to_vec()))
        .timestamp_ms(ts)
        .nonce(i as u64)
        .build()
}

/// Runs the sealed ingest loop and returns the grown tangle plus its
/// measurements. Panics if any recount-oracle check fails — a report must
/// never be produced from a drifted index.
pub fn run_sealed_ingest(cfg: &ScaleConfig) -> (Tangle, ScaleReport) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut tangle = Tangle::new();
    tangle.attach_genesis(NodeId([0; 32]), 0);

    let mut attach_ns: Vec<u64> = Vec::with_capacity(cfg.txs);
    let mut oracle_checks = 0u64;
    let mut oracle_failures = 0u64;
    let mut recent: Vec<TxId> = Vec::with_capacity(64);
    let started = Instant::now();

    for i in 0..cfg.txs {
        let (a, b) = UniformRandomSelector
            .select_tips(&tangle, &mut rng)
            .expect("tangle never empties");
        let ts = i as u64 + 1;
        let tx = make_tx(i, a, b, ts);
        let t0 = Instant::now();
        let id = tangle.attach(tx, ts).expect("parents are tips");
        attach_ns.push(t0.elapsed().as_nanos() as u64);

        recent.push(id);
        if recent.len() > 64 {
            recent.remove(0);
        }
        if cfg.confirm_every > 0 && i % cfg.confirm_every == cfg.confirm_every - 1 {
            tangle.confirm_with_threshold(cfg.confirm_threshold);
        }
        if cfg.seal_every > 0 && i % cfg.seal_every == cfg.seal_every - 1 {
            tangle.seal_frontier(cfg.seal_lag);
        }
        if cfg.oracle_every > 0 && i % cfg.oracle_every == cfg.oracle_every - 1 {
            // A recent transaction: its cone is small, so the recount
            // walk stays cheap even at depth.
            let probe = recent[rng.gen_range(0..recent.len())];
            oracle_checks += 1;
            if tangle.cumulative_weight(&probe) != tangle.cumulative_weight_recount(&probe) {
                oracle_failures += 1;
            }
        }
    }
    let elapsed = started.elapsed();

    // Final full-depth oracle audit: the genesis cone is the whole
    // ledger, so one recount here exercises every sealed entry.
    let genesis = tangle.genesis().expect("genesis attached");
    oracle_checks += 1;
    if tangle.cumulative_weight(&genesis) != tangle.cumulative_weight_recount(&genesis) {
        oracle_failures += 1;
    }
    assert_eq!(oracle_failures, 0, "sealed index drifted from recount oracle");

    let window = (cfg.txs / 10).max(1);
    let window_tx_per_sec: Vec<f64> = attach_ns
        .chunks(window)
        .map(|w| {
            let total_ns: u64 = w.iter().sum();
            w.len() as f64 / (total_ns.max(1) as f64 / 1e9)
        })
        .collect();
    let window_p99_ns: Vec<u64> = attach_ns
        .chunks(window)
        .map(|w| {
            let mut s = w.to_vec();
            s.sort_unstable();
            percentile(&s, 0.99)
        })
        .collect();
    let histogram = log2_histogram(&attach_ns);
    let mut sorted = attach_ns;
    sorted.sort_unstable();

    let stats = tangle.seal_stats();
    let report = ScaleReport {
        txs: cfg.txs,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        tx_per_sec: cfg.txs as f64 / elapsed.as_secs_f64(),
        attach_ns_p50: percentile(&sorted, 0.5),
        attach_ns_p99: percentile(&sorted, 0.99),
        attach_ns_max: sorted.last().copied().unwrap_or(0),
        histogram,
        window_tx_per_sec,
        window_p99_ns,
        frontier_len: tangle.attach_order().iter().filter(|id| !tangle.is_sealed(id)).count(),
        sealed_len: tangle.sealed_len(),
        seals: stats.seals,
        passes: stats.passes,
        strays: stats.strays,
        oracle_checks,
        oracle_failures,
    };
    (tangle, report)
}

/// Per-attach cost of a probe batch at full ledger depth.
#[derive(Clone, Copy, Debug)]
pub struct ProbeStats {
    /// Probes attached.
    pub probes: usize,
    /// Mean per-attach time, nanoseconds.
    pub mean_ns: f64,
    /// 99th-percentile per-attach time, nanoseconds.
    pub p99_ns: u64,
    /// Worst probe attach, nanoseconds.
    pub max_ns: u64,
    /// Probe attach throughput.
    pub tx_per_sec: f64,
}

/// Attaches `probes` fresh transactions to a clone of `base`, timing each
/// attach. `base` itself is untouched, so the same depth-1M graph can be
/// probed sealed and unsealed.
pub fn probe_attach(base: &Tangle, probes: usize, seed: u64) -> ProbeStats {
    let mut tangle = base.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let base_ts = tangle.len() as u64 + 1_000_000;
    let mut ns: Vec<u64> = Vec::with_capacity(probes);
    for i in 0..probes {
        let (a, b) = UniformRandomSelector
            .select_tips(&tangle, &mut rng)
            .expect("tangle never empties");
        let ts = base_ts + i as u64;
        let tx = make_tx(usize::MAX - i, a, b, ts);
        let t0 = Instant::now();
        tangle.attach(tx, ts).expect("parents are tips");
        ns.push(t0.elapsed().as_nanos() as u64);
    }
    let total: u64 = ns.iter().sum();
    ns.sort_unstable();
    ProbeStats {
        probes,
        mean_ns: total as f64 / probes.max(1) as f64,
        p99_ns: percentile(&ns, 0.99),
        max_ns: ns.last().copied().unwrap_or(0),
        tx_per_sec: probes as f64 / (total.max(1) as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sealed_run_is_exact_and_bounded() {
        let cfg = ScaleConfig {
            txs: 4_000,
            confirm_every: 64,
            seal_every: 128,
            seal_lag: 32,
            oracle_every: 500,
            ..ScaleConfig::default()
        };
        let (tangle, report) = run_sealed_ingest(&cfg);
        assert_eq!(report.txs, 4_000);
        assert_eq!(report.oracle_failures, 0);
        assert!(report.oracle_checks > 5);
        assert!(report.seals > 0, "sealing must have engaged");
        assert_eq!(report.sealed_len + report.frontier_len, cfg.txs + 1, "every entry counted once");
        assert!(
            report.sealed_len > report.frontier_len,
            "most of the ledger should be sealed: {} sealed vs {} frontier",
            report.sealed_len,
            report.frontier_len
        );
        let total: u64 = report.histogram.iter().map(|(_, c)| c).sum();
        assert_eq!(total as usize, cfg.txs, "histogram covers every attach");

        // Probing the same graph sealed vs unsealed must agree on the
        // resulting ledger shape (the index is invisible), while the
        // sealed probe does strictly bounded work.
        let sealed_probe = probe_attach(&tangle, 200, 7);
        let mut unsealed = tangle.clone();
        unsealed.unseal_all();
        let unsealed_probe = probe_attach(&unsealed, 200, 7);
        assert_eq!(sealed_probe.probes, unsealed_probe.probes);
        assert!(sealed_probe.mean_ns < unsealed_probe.mean_ns * 2.0 + 1e9);
    }
}
