//! DAG vs chain throughput comparison (DESIGN.md experiment A1).
//!
//! The paper's §II claims DAG-structured blockchains beat chain-structured
//! ones on throughput for IoT workloads because consensus is asynchronous:
//! transactions validate each other continuously instead of queueing for
//! the next block. This module drives the *same* Poisson workload through
//! `biot_tangle::Tangle` and `biot_chain::Blockchain` on the discrete-event
//! kernel and measures effective committed transactions per second.

use biot_chain::{Block, BlockId, Blockchain, ChainTransaction};
use biot_net::queue::EventQueue;
use biot_net::time::SimTime;
use biot_tangle::graph::Tangle;
use biot_tangle::tips::SelectorConfig;
use biot_tangle::tx::{NodeId, Payload, TransactionBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Workload and system parameters for one comparison point.
#[derive(Clone, Debug, PartialEq)]
pub struct ThroughputConfig {
    /// Offered load: transaction arrivals per second (Poisson).
    pub offered_tps: f64,
    /// Virtual run length.
    pub duration: SimTime,
    /// Per-transaction validation cost at a gateway, ms (tangle side).
    pub tangle_validate_ms: u64,
    /// Mean block interval, seconds (chain side).
    pub block_interval_s: f64,
    /// Maximum transactions per block (chain side).
    pub block_capacity: usize,
    /// Block propagation delay, ms — two blocks mined within this window
    /// fork, and one side's work is wasted (chain side).
    pub propagation_ms: u64,
    /// Tip-selection strategy for the tangle side (default uniform — the
    /// A1 baseline; weighted/depth-constrained configs shift where the
    /// 2 ms validation budget goes, see EXPERIMENTS.md).
    pub selector: SelectorConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ThroughputConfig {
    fn default() -> Self {
        Self {
            offered_tps: 50.0,
            duration: SimTime::from_secs(300),
            tangle_validate_ms: 2,
            block_interval_s: 10.0,
            block_capacity: 100,
            propagation_ms: 500,
            selector: SelectorConfig::default(),
            seed: 7,
        }
    }
}

/// Measured result for one ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ThroughputResult {
    /// Transactions offered by the workload.
    pub offered: u64,
    /// Transactions effectively committed.
    pub committed: u64,
    /// Committed transactions per second.
    pub effective_tps: f64,
    /// Mean commit latency (arrival → commit), seconds.
    pub mean_latency_s: f64,
    /// Work wasted on fork losers (chain) or dropped by backlog (tangle).
    pub wasted: u64,
}

#[derive(Clone, Copy, Debug)]
enum WorkloadEvent {
    Arrival(u64),
    Mine,
}

/// Poisson inter-arrival sample in milliseconds.
fn next_arrival_ms<R: Rng + ?Sized>(tps: f64, rng: &mut R) -> u64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    ((-u.ln() / tps) * 1000.0).max(1.0) as u64
}

/// Runs the Poisson workload through the tangle: each arrival waits for
/// gateway validation capacity (a single busy server), then attaches and
/// is immediately usable; asynchronous approvals confirm it later.
pub fn run_tangle(config: &ThroughputConfig) -> ThroughputResult {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut tangle = Tangle::new();
    let issuer = NodeId([1; 32]);
    tangle.attach_genesis(issuer, 0);
    let selector = config.selector.build();

    let mut queue: EventQueue<WorkloadEvent> = EventQueue::new();
    queue.schedule_in(next_arrival_ms(config.offered_tps, &mut rng), WorkloadEvent::Arrival(0));

    let mut offered = 0u64;
    let mut committed = 0u64;
    let mut wasted = 0u64;
    let mut latency_total_s = 0.0;
    // The gateway is a single server: validation serializes.
    let mut server_free_at = SimTime::ZERO;
    let duration_ms = config.duration.as_millis();
    let mut seq = 0u64;

    while let Some((now, ev)) = queue.pop() {
        if now.as_millis() > duration_ms {
            break;
        }
        match ev {
            WorkloadEvent::Arrival(n) => {
                offered += 1;
                // Next arrival.
                seq += 1;
                queue.schedule_in(
                    next_arrival_ms(config.offered_tps, &mut rng),
                    WorkloadEvent::Arrival(seq),
                );
                // Validation occupies the server.
                let start = now.max(server_free_at);
                let finish = start + config.tangle_validate_ms;
                server_free_at = finish;
                if finish.as_millis() > duration_ms {
                    wasted += 1; // backlog past the horizon
                    continue;
                }
                let (trunk, branch) = selector
                    .select_tips(&tangle, &mut rng)
                    .expect("genesis present");
                let tx = TransactionBuilder::new(issuer)
                    .parents(trunk, branch)
                    .payload(Payload::Data(n.to_be_bytes().to_vec()))
                    .timestamp_ms(now.as_millis())
                    .nonce(n)
                    .build();
                if tangle.attach(tx, finish.as_millis()).is_ok() {
                    committed += 1;
                    latency_total_s += (finish.as_millis() - now.as_millis()) as f64 / 1000.0;
                } else {
                    wasted += 1;
                }
            }
            WorkloadEvent::Mine => unreachable!("tangle has no mining events"),
        }
    }

    ThroughputResult {
        offered,
        committed,
        effective_tps: committed as f64 / config.duration.as_secs_f64(),
        mean_latency_s: if committed > 0 {
            latency_total_s / committed as f64
        } else {
            0.0
        },
        wasted,
    }
}

/// Runs the same workload through the chain baseline: arrivals queue in a
/// mempool; blocks are mined at exponential intervals; two blocks inside
/// the propagation window fork and the loser's transactions are wasted.
pub fn run_chain(config: &ThroughputConfig) -> ThroughputResult {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut chain = Blockchain::new();
    let miner = NodeId([9; 32]);
    chain
        .add_block(
            Block {
                prev: BlockId::GENESIS_PARENT,
                miner,
                timestamp_ms: 0,
                nonce: 0,
                txs: vec![],
            },
            0,
        )
        .expect("genesis");

    let mut queue: EventQueue<WorkloadEvent> = EventQueue::new();
    queue.schedule_in(next_arrival_ms(config.offered_tps, &mut rng), WorkloadEvent::Arrival(0));
    let mine_delay = |rng: &mut StdRng| {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        ((-u.ln() * config.block_interval_s) * 1000.0).max(1.0) as u64
    };
    queue.schedule_in(mine_delay(&mut rng), WorkloadEvent::Mine);

    let mut offered = 0u64;
    let mut committed = 0u64;
    let mut wasted = 0u64;
    let mut latency_total_s = 0.0;
    let mut arrival_times: std::collections::VecDeque<u64> = Default::default();
    let mut last_block_at: Option<u64> = None;
    let duration_ms = config.duration.as_millis();
    let mut nonce = 1u64;
    let mut seq = 0u64;

    while let Some((now, ev)) = queue.pop() {
        if now.as_millis() > duration_ms {
            break;
        }
        match ev {
            WorkloadEvent::Arrival(n) => {
                offered += 1;
                seq += 1;
                queue.schedule_in(
                    next_arrival_ms(config.offered_tps, &mut rng),
                    WorkloadEvent::Arrival(seq),
                );
                chain.submit_tx(ChainTransaction {
                    issuer: NodeId([2; 32]),
                    payload: Payload::Data(n.to_be_bytes().to_vec()),
                    timestamp_ms: now.as_millis(),
                });
                arrival_times.push_back(now.as_millis());
            }
            WorkloadEvent::Mine => {
                queue.schedule_in(mine_delay(&mut rng), WorkloadEvent::Mine);
                // Fork: a block mined within the propagation window of the
                // previous one races it; one side loses. We model the loss
                // by discarding this block's transactions.
                let forked = last_block_at
                    .map(|t| now.as_millis().saturating_sub(t) < config.propagation_ms)
                    .unwrap_or(false);
                last_block_at = Some(now.as_millis());
                let txs = chain.take_mempool(config.block_capacity);
                let n_txs = txs.len() as u64;
                if forked {
                    wasted += n_txs;
                    for _ in 0..n_txs {
                        arrival_times.pop_front();
                    }
                    continue;
                }
                let head = chain.head().expect("head exists");
                let block = Block {
                    prev: head,
                    miner,
                    timestamp_ms: now.as_millis(),
                    nonce,
                    txs,
                };
                nonce += 1;
                if chain.add_block(block, now.as_millis()).is_ok() {
                    committed += n_txs;
                    for _ in 0..n_txs {
                        if let Some(arrived) = arrival_times.pop_front() {
                            latency_total_s +=
                                (now.as_millis().saturating_sub(arrived)) as f64 / 1000.0;
                        }
                    }
                }
            }
        }
    }

    ThroughputResult {
        offered,
        committed,
        effective_tps: committed as f64 / config.duration.as_secs_f64(),
        mean_latency_s: if committed > 0 {
            latency_total_s / committed as f64
        } else {
            0.0
        },
        wasted,
    }
}

/// A row of the A1 sweep: one offered load, both systems.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ComparisonRow {
    /// Offered load in tx/s.
    pub offered_tps: f64,
    /// Tangle result.
    pub tangle: ThroughputResult,
    /// Chain result.
    pub chain: ThroughputResult,
}

/// Sweeps offered load and returns one row per point.
pub fn sweep(offered: &[f64], base: &ThroughputConfig) -> Vec<ComparisonRow> {
    offered
        .iter()
        .map(|&tps| {
            let cfg = ThroughputConfig {
                offered_tps: tps,
                ..base.clone()
            };
            ComparisonRow {
                offered_tps: tps,
                tangle: run_tangle(&cfg),
                chain: run_chain(&cfg),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ThroughputConfig {
        ThroughputConfig {
            duration: SimTime::from_secs(60),
            ..ThroughputConfig::default()
        }
    }

    #[test]
    fn tangle_keeps_up_at_moderate_load() {
        let r = run_tangle(&quick());
        assert!(r.offered > 2000, "offered {}", r.offered);
        let ratio = r.committed as f64 / r.offered as f64;
        assert!(ratio > 0.95, "tangle commits {ratio}");
        assert!(r.mean_latency_s < 0.1);
    }

    #[test]
    fn chain_is_capped_by_block_capacity() {
        // Offered 50 tps, capacity 100 tx / 10 s = 10 tps → chain saturates.
        let r = run_chain(&quick());
        let cap = 100.0 / 10.0;
        assert!(
            r.effective_tps < cap * 1.3,
            "chain tps {} must hug the {cap} cap",
            r.effective_tps
        );
        assert!(r.committed < r.offered / 2);
    }

    #[test]
    fn tangle_beats_chain_at_high_load() {
        let cfg = quick();
        let t = run_tangle(&cfg);
        let c = run_chain(&cfg);
        assert!(
            t.effective_tps > c.effective_tps * 3.0,
            "tangle {} vs chain {}",
            t.effective_tps,
            c.effective_tps
        );
        assert!(t.mean_latency_s < c.mean_latency_s);
    }

    #[test]
    fn chain_wastes_work_on_forks() {
        let cfg = ThroughputConfig {
            // Aggressive blocks + slow propagation → frequent forks.
            block_interval_s: 1.0,
            propagation_ms: 600,
            ..quick()
        };
        let r = run_chain(&cfg);
        assert!(r.wasted > 0, "expected fork losses");
    }

    #[test]
    fn low_load_is_easy_for_both() {
        let cfg = ThroughputConfig {
            offered_tps: 2.0,
            ..quick()
        };
        let t = run_tangle(&cfg);
        let c = run_chain(&cfg);
        assert!(t.committed as f64 / t.offered as f64 > 0.95);
        // The chain commits most arrivals too (latency is its weakness).
        assert!(c.committed as f64 / c.offered as f64 > 0.7, "chain ratio");
        assert!(c.mean_latency_s > t.mean_latency_s);
    }

    #[test]
    fn sweep_produces_rows_in_order() {
        let rows = sweep(&[1.0, 10.0], &quick());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].offered_tps, 1.0);
        assert!(rows[1].tangle.offered > rows[0].tangle.offered);
    }
}
