//! Attack scenarios for the security analysis (paper §VI-C, experiment A3
//! in DESIGN.md): Sybil admission, DDoS flooding, lazy tips, and
//! double-spending, each measured rather than merely asserted.

use biot_core::identity::Account;
use biot_core::node::{Gateway, GatewayConfig, LightNode, Manager, SubmitError};
use biot_core::InverseProportionalPolicy;
use biot_net::time::SimTime;
use biot_tangle::graph::TangleError;
use biot_tangle::tips::{FixedPairSelector, TipSelector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Fig 6 steps 1–3 for the §VI-C experiments: a manager, a
/// credit-policed gateway with default settings, and `N` authorized
/// devices, their accounts drawn from `rng` after the manager's.
fn boot<const N: usize>(rng: &mut StdRng) -> (Manager, Gateway, [LightNode; N]) {
    let mut manager = Manager::new(Account::generate(rng));
    let devices: [LightNode; N] = std::array::from_fn(|_| LightNode::new(Account::generate(rng)));
    let (gateway, _) = Gateway::bootstrap(
        &mut manager,
        Box::new(InverseProportionalPolicy::default()),
        GatewayConfig::default(),
        devices.iter().map(LightNode::public_key),
    );
    (manager, gateway, devices)
}

/// Outcome of the Sybil / DDoS admission experiment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionReport {
    /// Submissions from authorized devices that were accepted.
    pub legit_accepted: u32,
    /// Submissions from authorized devices that were rejected.
    pub legit_rejected: u32,
    /// Submissions from Sybil identities that were accepted (should be 0).
    pub sybil_accepted: u32,
    /// Submissions from Sybil identities that were blocked.
    pub sybil_blocked: u32,
}

/// Floods a gateway with `n_sybil` unauthorized identities (each sending
/// one valid-PoW transaction) alongside one authorized device, and counts
/// who got through.
///
/// This is the §VI-C claim "full nodes can decline to provide services for
/// unauthorized IoT devices", measured.
pub fn sybil_admission_experiment(n_sybil: usize, seed: u64) -> AdmissionReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let (_, mut gateway, [legit]) = boot(&mut rng);

    let mut report = AdmissionReport::default();
    let now = SimTime::from_secs(1);

    // The legitimate device posts one reading.
    let tips = gateway.random_tips(&mut rng).unwrap();
    let d = gateway.difficulty_for(legit.id(), now);
    let p = legit.prepare_reading(b"legit", tips, now, d, &mut rng);
    match gateway.submit(p.tx, now) {
        Ok(_) => report.legit_accepted += 1,
        Err(_) => report.legit_rejected += 1,
    }

    // Sybils mint fresh identities and flood. They even do honest PoW —
    // admission control blocks them regardless.
    for _ in 0..n_sybil {
        let sybil = LightNode::new(Account::generate_with_bits(512, &mut rng));
        let tips = gateway.random_tips(&mut rng).unwrap();
        let d = gateway.difficulty_for(sybil.id(), now);
        let p = sybil.prepare_reading(b"sybil spam", tips, now, d, &mut rng);
        match gateway.submit(p.tx, now) {
            Ok(_) => report.sybil_accepted += 1,
            Err(SubmitError::Unauthorized(_)) => report.sybil_blocked += 1,
            Err(_) => report.sybil_blocked += 1,
        }
    }
    report
}

/// Outcome of the lazy-tips experiment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LazyTipsReport {
    /// Transactions the lazy node got accepted.
    pub lazy_accepted: u32,
    /// Misbehaviours recorded against the lazy node.
    pub lazy_punished: u32,
    /// The lazy node's difficulty at the end of the run.
    pub lazy_final_difficulty: u32,
    /// The honest node's difficulty at the end of the run.
    pub honest_final_difficulty: u32,
    /// The lazy node's final credit.
    pub lazy_final_credit: f64,
}

/// Runs an honest node and a lazy node (always approving the same stale
/// pair) side by side and reports the divergence in credit and
/// difficulty.
pub fn lazy_tips_experiment(rounds: usize, seed: u64) -> LazyTipsReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let (_, mut gateway, [honest, lazy]) = boot(&mut rng);

    // Seed two early transactions that the lazy node will keep approving.
    let mut now = SimTime::from_secs(1);
    let tips = gateway.random_tips(&mut rng).unwrap();
    let d = gateway.difficulty_for(honest.id(), now);
    let a = gateway
        .submit(honest.prepare_reading(b"seed a", tips, now, d, &mut rng).tx, now)
        .unwrap();
    now += 1_000;
    let tips = gateway.random_tips(&mut rng).unwrap();
    let d = gateway.difficulty_for(honest.id(), now);
    let b = gateway
        .submit(honest.prepare_reading(b"seed b", tips, now, d, &mut rng).tx, now)
        .unwrap();
    let stale_selector = FixedPairSelector { pair: (a, b) };

    let mut report = LazyTipsReport::default();
    for i in 0..rounds {
        now += 5_000;
        // Honest node: fresh tips.
        let tips = gateway.random_tips(&mut rng).unwrap();
        let d = gateway.difficulty_for(honest.id(), now);
        let p = honest.prepare_reading(format!("h{i}").as_bytes(), tips, now, d, &mut rng);
        let _ = gateway.submit(p.tx, now);
        // Lazy node: the same stale pair, every time.
        let stale = stale_selector
            .select_tips(gateway.tangle(), &mut rng)
            .expect("stale pair still attached");
        let d = gateway.difficulty_for(lazy.id(), now);
        let p = lazy.prepare_reading(format!("l{i}").as_bytes(), stale, now, d, &mut rng);
        if gateway.submit(p.tx, now).is_ok() {
            report.lazy_accepted += 1;
        }
    }
    let end = now + 1_000;
    report.lazy_punished = gateway.credits().misbehavior_count(lazy.id()) as u32;
    report.lazy_final_difficulty = gateway.difficulty_for(lazy.id(), end).bits();
    report.honest_final_difficulty = gateway.difficulty_for(honest.id(), end).bits();
    report.lazy_final_credit = gateway.credit_of(lazy.id(), end).combined;
    report
}

/// Outcome of the double-spend experiment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DoubleSpendReport {
    /// First spends that were accepted.
    pub first_spends_accepted: u32,
    /// Conflicting re-spends that were cancelled.
    pub double_spends_cancelled: u32,
    /// Conflicting re-spends that slipped through (must be 0).
    pub double_spends_accepted: u32,
    /// Misbehaviours recorded against the attacker.
    pub punishments: u32,
}

/// An attacker spends `n_tokens` tokens once (legitimately) and then tries
/// to re-spend each of them.
pub fn double_spend_experiment(n_tokens: usize, seed: u64) -> DoubleSpendReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let (manager, mut gateway, [attacker]) = boot(&mut rng);

    let mut report = DoubleSpendReport::default();
    let mut now = SimTime::from_secs(1);
    let mut tokens = Vec::new();
    for i in 0..n_tokens {
        let mut token = [0u8; 32];
        token[0] = i as u8;
        token[1] = (i >> 8) as u8;
        let tips = gateway.random_tips(&mut rng).unwrap();
        let d = gateway.difficulty_for(attacker.id(), now);
        let p = attacker.prepare_spend(token, manager.id(), tips, now, d);
        if gateway.submit(p.tx, now).is_ok() {
            report.first_spends_accepted += 1;
            tokens.push(token);
        }
        now += 500;
    }
    for token in tokens {
        let tips = gateway.random_tips(&mut rng).unwrap();
        let d = gateway.difficulty_for(attacker.id(), now);
        let p = attacker.prepare_spend(token, attacker.id(), tips, now, d);
        match gateway.submit(p.tx, now) {
            Ok(_) => report.double_spends_accepted += 1,
            Err(SubmitError::Tangle(TangleError::DoubleSpend { .. })) => {
                report.double_spends_cancelled += 1
            }
            Err(SubmitError::InsufficientPow { .. }) => {
                // Punishment already so harsh the attacker cannot even mine;
                // count it as cancelled (the spend did not land).
                report.double_spends_cancelled += 1;
            }
            Err(_) => report.double_spends_cancelled += 1,
        }
        now += 500;
    }
    report.punishments = gateway.credits().misbehavior_count(attacker.id()) as u32;
    report
}

/// Outcome of the single-point-of-failure experiment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailoverReport {
    /// Transactions accepted before the primary gateway failed.
    pub before_failure: u32,
    /// Transactions accepted by the surviving replica afterwards.
    pub after_failure: u32,
    /// Ledger length on the surviving replica at the end.
    pub survivor_ledger_len: usize,
}

/// Runs two replicated gateways, kills the primary mid-run, and shows the
/// service stays available through the replica (§VI-C "single point of
/// failure").
pub fn failover_experiment(seed: u64) -> FailoverReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut manager, mut primary, [device]) = boot(&mut rng);
    // The replica boots the same genesis state: the list is mined and
    // signed deterministically, so both hold the identical transaction.
    let (mut replica, _) = Gateway::bootstrap(
        &mut manager,
        Box::new(InverseProportionalPolicy::default()),
        GatewayConfig::default(),
        [device.public_key()],
    );

    let mut report = FailoverReport::default();
    let mut now = SimTime::from_secs(1);
    // Phase 1: device talks to the primary, which gossips to the replica.
    for i in 0..5 {
        let tips = primary.random_tips(&mut rng).unwrap();
        let d = primary.difficulty_for(device.id(), now);
        let p = device.prepare_reading(format!("p{i}").as_bytes(), tips, now, d, &mut rng);
        if let Ok(_id) = primary.submit(p.tx.clone(), now) {
            report.before_failure += 1;
            replica.receive_broadcast(p.tx, now).unwrap();
        }
        now += 1_000;
    }
    // Primary dies. Phase 2: device fails over to the replica.
    drop(primary);
    for i in 0..5 {
        let tips = replica.random_tips(&mut rng).unwrap();
        let d = replica.difficulty_for(device.id(), now);
        let p = device.prepare_reading(format!("r{i}").as_bytes(), tips, now, d, &mut rng);
        if replica.submit(p.tx, now).is_ok() {
            report.after_failure += 1;
        }
        now += 1_000;
    }
    report.survivor_ledger_len = replica.tangle().len();
    report
}

/// Outcome of the parasite-chain experiment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ParasiteChainReport {
    /// Honest transactions attached to the main tangle.
    pub honest_txs: u32,
    /// Parasite transactions the attacker attached.
    pub parasite_txs: u32,
    /// Tip selections (out of `samples`) that landed on a parasite tip
    /// under **uniform random** selection.
    pub uniform_hits: u32,
    /// Tip selections that landed on a parasite tip under the **weighted
    /// MCMC walk**.
    pub mcmc_hits: u32,
    /// Total selections sampled per strategy.
    pub samples: u32,
}

/// Builds a tangle with a heavy honest subtangle and a light "parasite"
/// side-chain hanging off an old transaction, then measures how often each
/// tip-selection strategy would endorse the parasite.
///
/// This is the classic tangle attack Popov's weighted walk defends
/// against: the paper inherits the defense by adopting MCMC selection
/// (§II-B); uniform random selection is the vulnerable baseline.
pub fn parasite_chain_experiment(
    honest: usize,
    parasite: usize,
    samples: u32,
    seed: u64,
) -> ParasiteChainReport {
    use biot_tangle::graph::Tangle;
    use biot_tangle::tips::{UniformRandomSelector, WeightedMcmcSelector};
    use biot_tangle::tx::{Payload, TransactionBuilder};

    let mut rng = StdRng::seed_from_u64(seed);
    let mut tangle = Tangle::new();
    let genesis = tangle.attach_genesis(biot_tangle::tx::NodeId([0; 32]), 0);

    // Honest growth: random tips, many issuers.
    let honest_sel = UniformRandomSelector;
    let mut honest_count = 0u32;
    let mut anchor = genesis; // an early honest tx the parasite forks from
    for i in 0..honest {
        let (a, b) = honest_sel.select_tips(&tangle, &mut rng).unwrap();
        let tx = TransactionBuilder::new(biot_tangle::tx::NodeId([(i % 50) as u8 + 1; 32]))
            .parents(a, b)
            .payload(Payload::Data(vec![i as u8]))
            .timestamp_ms(i as u64 + 1)
            .build();
        let id = tangle.attach(tx, i as u64 + 1).unwrap();
        if i == 2 {
            anchor = id;
        }
        honest_count += 1;
    }

    // Parasite: a private chain rooted at the old anchor, never approving
    // recent honest transactions.
    let attacker = biot_tangle::tx::NodeId([0xEE; 32]);
    let mut parasite_ids = Vec::new();
    let mut prev = anchor;
    for i in 0..parasite {
        let tx = TransactionBuilder::new(attacker)
            .parents(prev, anchor)
            .payload(Payload::Data(vec![0xEE, i as u8]))
            .timestamp_ms((honest + i) as u64 + 1)
            .build();
        prev = tangle.attach(tx, (honest + i) as u64 + 1).unwrap();
        parasite_ids.push(prev);
    }
    let parasite_set: std::collections::HashSet<_> = parasite_ids.into_iter().collect();

    let mut report = ParasiteChainReport {
        honest_txs: honest_count,
        parasite_txs: parasite as u32,
        samples,
        ..ParasiteChainReport::default()
    };
    let mcmc = WeightedMcmcSelector::new(0.8);
    for _ in 0..samples {
        if let Some((a, b)) = honest_sel.select_tips(&tangle, &mut rng) {
            if parasite_set.contains(&a) || parasite_set.contains(&b) {
                report.uniform_hits += 1;
            }
        }
        if let Some((a, b)) = mcmc.select_tips(&tangle, &mut rng) {
            if parasite_set.contains(&a) || parasite_set.contains(&b) {
                report.mcmc_hits += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sybils_are_fully_blocked() {
        let r = sybil_admission_experiment(10, 1);
        assert_eq!(r.sybil_accepted, 0);
        assert_eq!(r.sybil_blocked, 10);
        assert_eq!(r.legit_accepted, 1);
    }

    #[test]
    fn lazy_node_diverges_from_honest() {
        let r = lazy_tips_experiment(8, 2);
        assert!(r.lazy_punished > 0, "lazy behaviour must be recorded");
        assert!(
            r.lazy_final_difficulty > r.honest_final_difficulty,
            "lazy D{} vs honest D{}",
            r.lazy_final_difficulty,
            r.honest_final_difficulty
        );
        assert!(r.lazy_final_credit < 0.0);
    }

    #[test]
    fn double_spends_never_land() {
        let r = double_spend_experiment(5, 3);
        assert_eq!(r.first_spends_accepted, 5);
        assert_eq!(r.double_spends_accepted, 0);
        assert_eq!(r.double_spends_cancelled, 5);
        assert!(r.punishments >= 1);
    }

    #[test]
    fn mcmc_resists_parasite_chain_better_than_uniform() {
        let r = parasite_chain_experiment(60, 12, 200, 5);
        assert_eq!(r.honest_txs, 60);
        assert_eq!(r.parasite_txs, 12);
        // The heavy honest subtangle should dominate the weighted walk;
        // uniform selection endorses the parasite roughly in proportion to
        // its share of the tip pool.
        assert!(
            r.mcmc_hits * 3 < r.uniform_hits.max(1) * 2,
            "mcmc {} should be well below uniform {}",
            r.mcmc_hits,
            r.uniform_hits
        );
        assert!(r.uniform_hits > 0, "the parasite tip is selectable at all");
    }

    #[test]
    fn service_survives_gateway_failure() {
        let r = failover_experiment(4);
        assert_eq!(r.before_failure, 5);
        assert_eq!(r.after_failure, 5);
        // Replica holds genesis + auth list + all 10 readings + gossip.
        assert!(r.survivor_ledger_len >= 12);
    }
}
