//! Fleet experiment: many honest sensors and a few attackers sharing one
//! gateway — does punishing the attackers slow anyone else down?
//!
//! The paper evaluates a single node (Figs 8–9); this extends the same
//! machinery to a fleet and measures *isolation*: credit is per-node, so
//! an attacker's difficulty spike must not leak onto honest peers.

use crate::pi::PiCalibration;
use biot_core::difficulty::InverseProportionalPolicy;
use biot_core::identity::Account;
use biot_core::node::{Gateway, GatewayConfig, LightNode, Manager};
use biot_tangle::tips::SelectorConfig;
use biot_net::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Configuration of a fleet run.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of honest sensors.
    pub n_honest: usize,
    /// Number of attackers (each attempts a double-spend periodically).
    pub n_malicious: usize,
    /// Seconds between an attacker's double-spend attempts.
    pub attack_every_s: u64,
    /// Virtual run length.
    pub duration: SimTime,
    /// Idle time between transactions per node, ms.
    pub think_time_ms: u64,
    /// Pi timing calibration.
    pub calibration: PiCalibration,
    /// Tip-selection strategy the shared gateway serves (default
    /// uniform, keeping seeded traces stable).
    pub selector: SelectorConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            n_honest: 4,
            n_malicious: 1,
            attack_every_s: 25,
            duration: SimTime::from_secs(90),
            think_time_ms: 2_000,
            calibration: PiCalibration::fig9(),
            selector: SelectorConfig::default(),
            seed: 7,
        }
    }
}

/// Per-class aggregates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ClassStats {
    /// Transactions submitted (accepted or not).
    pub attempts: u64,
    /// Transactions accepted.
    pub accepted: u64,
    /// Mean PoW seconds per attempt.
    pub avg_pow_secs: f64,
    /// Mean final credit across the class.
    pub avg_final_credit: f64,
}

/// Result of a fleet run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetResult {
    /// Honest-class aggregates.
    pub honest: ClassStats,
    /// Malicious-class aggregates.
    pub malicious: ClassStats,
}

/// Runs the fleet scenario.
pub fn run_fleet(config: &FleetConfig) -> FleetResult {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut manager = Manager::new(Account::generate(&mut rng));
    let n_total = config.n_honest + config.n_malicious;
    let nodes: Vec<LightNode> = (0..n_total)
        .map(|_| LightNode::new(Account::generate(&mut rng)))
        .collect();
    let (mut gateway, _) = Gateway::bootstrap(
        &mut manager,
        Box::new(InverseProportionalPolicy::default()),
        GatewayConfig {
            tip_selector: config.selector,
            ..GatewayConfig::default()
        },
        nodes.iter().map(LightNode::public_key),
    );

    // Seed one spendable token per attacker.
    let mut tokens = Vec::new();
    for m in 0..config.n_malicious {
        let idx = config.n_honest + m;
        let mut token = [0xD0u8; 32];
        token[0] = m as u8;
        let tips = gateway.random_tips(&mut rng).unwrap();
        let d = gateway.difficulty_for(nodes[idx].id(), SimTime::ZERO);
        let p = nodes[idx].prepare_spend(token, manager.id(), tips, SimTime::ZERO, d);
        gateway.submit(p.tx, SimTime::ZERO).unwrap();
        tokens.push(token);
    }

    // Per-node schedule: (next action time, node index).
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..n_total)
        .map(|i| Reverse(((i as u64 + 1) * 137, i)))
        .collect();
    let mut next_attack_at: Vec<u64> = (0..config.n_malicious)
        .map(|m| (config.attack_every_s + m as u64 * 7) * 1000)
        .collect();
    let duration_ms = config.duration.as_millis();
    let mut pow_total = vec![0.0f64; n_total];
    let mut attempts = vec![0u64; n_total];
    let mut accepted = vec![0u64; n_total];
    let mut counter = 0u64;

    while let Some(Reverse((t_ms, idx))) = heap.pop() {
        if t_ms > duration_ms {
            continue;
        }
        let now = SimTime::from_millis(t_ms);
        let node_id = nodes[idx].id();
        // Mine at the node's current difficulty with a virtual duration.
        let d = gateway.difficulty_for(node_id, now);
        let pow_secs = config.calibration.sample_pow_secs(d, &mut rng);
        let finish = now + (pow_secs * 1000.0).round() as u64;
        if finish.as_millis() > duration_ms {
            continue;
        }
        pow_total[idx] += pow_secs;
        attempts[idx] += 1;
        counter += 1;

        // Attackers re-spend their token when the clock says so.
        let malicious_idx = idx.checked_sub(config.n_honest);
        let is_attack = malicious_idx
            .map(|m| finish.as_millis() >= next_attack_at[m])
            .unwrap_or(false);
        let tips = match gateway.random_tips(&mut rng) {
            Some(t) => t,
            None => continue,
        };
        let d_final = gateway.difficulty_for(node_id, finish);
        let prepared = if is_attack {
            let m = malicious_idx.unwrap();
            next_attack_at[m] = finish.as_millis() + config.attack_every_s * 1000;
            nodes[idx].prepare_spend(tokens[m], node_id, tips, finish, d_final)
        } else {
            nodes[idx].prepare_reading(
                format!("n{idx}-{counter}").as_bytes(),
                tips,
                finish,
                d_final,
                &mut rng,
            )
        };
        // The virtual mining time was sampled at the *start* difficulty; if
        // punishment landed mid-flight the submit may fail PoW — retry next
        // round, which is exactly the stall the mechanism intends.
        if gateway.submit(prepared.tx, finish).is_ok() {
            accepted[idx] += 1;
        }
        let jitter = rng.gen_range(0..500u64);
        heap.push(Reverse((
            finish.as_millis() + config.think_time_ms + jitter,
            idx,
        )));
    }

    let end = config.duration;
    let class = |range: std::ops::Range<usize>| -> ClassStats {
        let n = range.len().max(1) as f64;
        let attempts_sum: u64 = range.clone().map(|i| attempts[i]).sum();
        ClassStats {
            attempts: attempts_sum,
            accepted: range.clone().map(|i| accepted[i]).sum(),
            avg_pow_secs: if attempts_sum > 0 {
                range.clone().map(|i| pow_total[i]).sum::<f64>() / attempts_sum as f64
            } else {
                0.0
            },
            avg_final_credit: range
                .map(|i| gateway.credit_of(nodes[i].id(), end).combined)
                .sum::<f64>()
                / n,
        }
    };
    FleetResult {
        honest: class(0..config.n_honest),
        malicious: class(config.n_honest..n_total),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attackers_suffer_honest_nodes_do_not() {
        let r = run_fleet(&FleetConfig::default());
        assert!(r.honest.accepted > 50, "honest accepted {}", r.honest.accepted);
        // Isolation: honest PoW stays cheap despite a punished peer.
        assert!(
            r.honest.avg_pow_secs < 0.3,
            "honest avg {}",
            r.honest.avg_pow_secs
        );
        assert!(
            r.malicious.avg_pow_secs > r.honest.avg_pow_secs * 3.0,
            "malicious {} vs honest {}",
            r.malicious.avg_pow_secs,
            r.honest.avg_pow_secs
        );
        assert!(r.honest.avg_final_credit > 0.0);
        assert!(r.malicious.avg_final_credit < 0.0);
    }

    #[test]
    fn all_honest_fleet_behaves_like_fig9_normal() {
        let r = run_fleet(&FleetConfig {
            n_malicious: 0,
            ..FleetConfig::default()
        });
        assert_eq!(r.malicious.attempts, 0);
        assert!(r.honest.avg_pow_secs < 0.3);
        assert_eq!(r.honest.attempts, r.honest.accepted);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_fleet(&FleetConfig::default());
        let b = run_fleet(&FleetConfig::default());
        assert_eq!(a, b);
    }
}
