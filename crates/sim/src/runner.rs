//! End-to-end single-node scenario runner — the engine behind Figs 8–9.
//!
//! Simulates one light node talking to a gateway over a 90-second
//! (3·ΔT) window in virtual time, with optional double-spend attacks at
//! scheduled instants. PoW durations come from a [`PiCalibration`]; the
//! miner re-evaluates its credit-based difficulty periodically while
//! mining (difficulty is *self-adaptive*, §IV-B), which is what lets a
//! punished node recover as its negative credit decays.

use crate::pi::PiCalibration;
use biot_credit::{CreditEvent, CreditLedger};
use biot_core::difficulty::{DifficultyPolicy, FixedPolicy, InverseProportionalPolicy, LinearPolicy};
use biot_core::identity::Account;
use biot_core::node::{Gateway, GatewayConfig, LightNode, Manager, SubmitError};
use biot_tangle::tips::SelectorConfig;
use biot_core::pow::Difficulty;
use biot_net::time::SimTime;
use biot_tangle::graph::TangleError;
use biot_tangle::tx::TxId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Which difficulty policy a run uses (cloneable stand-in for a boxed
/// policy).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PolicyChoice {
    /// The paper's credit-based policy.
    Inverse(InverseProportionalPolicy),
    /// The linear ablation policy.
    Linear(LinearPolicy),
    /// Constant difficulty — the "original PoW" control.
    Fixed(Difficulty),
}

impl PolicyChoice {
    /// The default credit-based policy.
    pub fn credit_based() -> Self {
        PolicyChoice::Inverse(InverseProportionalPolicy::default())
    }

    /// The original-PoW control at the paper's initial difficulty.
    pub fn original_pow() -> Self {
        PolicyChoice::Fixed(Difficulty::INITIAL)
    }

    fn to_boxed(self) -> Box<dyn DifficultyPolicy + Send + Sync> {
        match self {
            PolicyChoice::Inverse(p) => Box::new(p),
            PolicyChoice::Linear(p) => Box::new(p),
            PolicyChoice::Fixed(d) => Box::new(FixedPolicy(d)),
        }
    }
}

/// Configuration of a single-node run.
#[derive(Clone, Debug)]
pub struct NodeRunConfig {
    /// Virtual run length. Paper: 90 s (three ΔT).
    pub duration: SimTime,
    /// Idle time between transactions (sensor cadence), ms.
    pub think_time_ms: u64,
    /// Instants at which the node attempts a double-spend.
    pub attack_times: Vec<SimTime>,
    /// Difficulty policy.
    pub policy: PolicyChoice,
    /// Pi timing calibration.
    pub calibration: PiCalibration,
    /// How often the miner re-evaluates its difficulty while mining, ms.
    pub reassess_ms: u64,
    /// Tip-selection strategy the gateway serves (default uniform — the
    /// historical behaviour, keeping seeded traces stable).
    pub selector: SelectorConfig,
    /// Seal confirmed cones after each gateway refresh with this recency
    /// lag (see [`GatewayConfig::seal_lag`]). Default `None` — never
    /// seal, keeping the historical weight-walk behaviour.
    pub seal_lag: Option<usize>,
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
}

impl Default for NodeRunConfig {
    fn default() -> Self {
        Self {
            duration: SimTime::from_secs(90),
            think_time_ms: 2_000,
            attack_times: Vec::new(),
            policy: PolicyChoice::credit_based(),
            calibration: PiCalibration::fig9(),
            reassess_ms: 250,
            selector: SelectorConfig::default(),
            seal_lag: None,
            seed: 42,
        }
    }
}

/// One transaction attempt in a run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TxOutcome {
    /// When mining started.
    pub started_at_secs: f64,
    /// When the transaction was submitted (mining finished).
    pub submitted_at_secs: f64,
    /// Virtual PoW time spent.
    pub pow_secs: f64,
    /// Difficulty in force when mining finished.
    pub final_difficulty: u32,
    /// Whether the gateway accepted it.
    pub accepted: bool,
    /// Whether this was a double-spend attempt.
    pub was_attack: bool,
    /// Ledger id when accepted.
    #[serde(skip)]
    pub tx_id: Option<TxId>,
    /// Cumulative weight at the end of the run (fig 8's `w` bars).
    pub final_weight: u64,
}

/// A point on the credit trace (Fig 8's curves).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CreditSample {
    /// Sample time in seconds.
    pub t_secs: f64,
    /// Combined credit Cr.
    pub cr: f64,
    /// Positive component CrP.
    pub crp: f64,
    /// Negative component CrN.
    pub crn: f64,
    /// Difficulty the node would face at this instant.
    pub difficulty: u32,
}

/// The full result of a run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RunResult {
    /// Every transaction attempt, in time order.
    pub outcomes: Vec<TxOutcome>,
    /// Credit trace sampled once per second — computed by replaying
    /// [`credit_events`](Self::credit_events) into a fresh ledger, so a
    /// stored event log reproduces Fig 8 exactly.
    pub samples: Vec<CreditSample>,
    /// The run's full credit event log, in emission order.
    pub credit_events: Vec<CreditEvent>,
}

impl RunResult {
    /// Average PoW seconds per *completed* transaction (the Fig 9 metric).
    pub fn avg_pow_secs(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().map(|o| o.pow_secs).sum::<f64>() / self.outcomes.len() as f64
    }

    /// Number of accepted transactions.
    pub fn accepted_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.accepted).count()
    }

    /// Longest gap between consecutive submissions, in seconds — the
    /// "recovery time" visible in Fig 8(a).
    pub fn longest_gap_secs(&self) -> f64 {
        let times: Vec<f64> = self.outcomes.iter().map(|o| o.submitted_at_secs).collect();
        times
            .windows(2)
            .map(|w| w[1] - w[0])
            .fold(0.0, f64::max)
    }
}

/// Runs a single-node scenario and returns its trace.
///
/// # Examples
///
/// ```
/// use biot_sim::runner::{run_single_node, NodeRunConfig};
/// use biot_net::time::SimTime;
///
/// let mut cfg = NodeRunConfig::default();
/// cfg.duration = SimTime::from_secs(30);
/// let result = run_single_node(&cfg);
/// assert!(result.accepted_count() > 0);
/// ```
pub fn run_single_node(config: &NodeRunConfig) -> RunResult {
    let mut rng = StdRng::seed_from_u64(config.seed);

    // --- World setup (Fig 6 steps 1–3) -----------------------------------
    let mut manager = Manager::new(Account::generate(&mut rng));
    let device = LightNode::new(Account::generate(&mut rng));
    let dev_id = device.id();
    let (mut gateway, _) = Gateway::bootstrap(
        &mut manager,
        config.policy.to_boxed(),
        GatewayConfig {
            tip_selector: config.selector,
            // The event log feeds the Fig 8 replay trace.
            record_credit_events: true,
            seal_lag: config.seal_lag,
            ..GatewayConfig::default()
        },
        [device.public_key()],
    );
    let mut event_log: Vec<CreditEvent> = Vec::new();

    // Pre-spend a token so later double-spends have something to conflict
    // with. (Virtual cost not counted — setup happens before t = 0.)
    let token = [0xD5u8; 32];
    let tips = gateway.random_tips(&mut rng).expect("tips exist");
    let d = gateway.difficulty_for(dev_id, SimTime::ZERO);
    let spend = device.prepare_spend(token, manager.id(), tips, SimTime::ZERO, d);
    gateway
        .submit(spend.tx, SimTime::ZERO)
        .expect("initial spend accepted");

    // --- Main loop --------------------------------------------------------
    let mut attacks: Vec<SimTime> = config.attack_times.clone();
    attacks.sort();
    let mut next_attack = 0usize;
    let mut outcomes: Vec<TxOutcome> = Vec::new();
    let mut now = SimTime::ZERO + config.think_time_ms;
    let duration_ms = config.duration.as_millis();
    let mut reading_no = 0u64;

    while now.as_millis() < duration_ms {
        let is_attack = next_attack < attacks.len() && attacks[next_attack] <= now;
        if is_attack {
            next_attack += 1;
        }

        // Mine with periodic difficulty reassessment (adaptive miner).
        let started = now;
        let Some((finish, final_d, pow_secs)) =
            mine_adaptive(&gateway, dev_id, started, config, &mut rng)
        else {
            break; // could not finish within the window
        };
        now = finish;
        if now.as_millis() > duration_ms {
            break;
        }

        // Build and submit at the completion-time difficulty.
        let tips = match gateway.random_tips(&mut rng) {
            Some(t) => t,
            None => break,
        };
        let prepared = if is_attack {
            device.prepare_spend(token, dev_id, tips, now, final_d)
        } else {
            reading_no += 1;
            device.prepare_reading(
                format!("temp_c={:.2}", 20.0 + (reading_no % 7) as f64 * 0.3).as_bytes(),
                tips,
                now,
                final_d,
                &mut rng,
            )
        };
        let result = gateway.submit(prepared.tx, now);
        let (accepted, tx_id) = match result {
            Ok(id) => (true, Some(id)),
            Err(SubmitError::Tangle(TangleError::DoubleSpend { .. })) => (false, None),
            Err(_) => (false, None),
        };
        outcomes.push(TxOutcome {
            started_at_secs: started.as_secs_f64(),
            submitted_at_secs: now.as_secs_f64(),
            pow_secs,
            final_difficulty: final_d.bits(),
            accepted,
            was_attack: is_attack,
            tx_id,
            final_weight: 0,
        });

        event_log.extend(gateway.take_credit_events());
        now += config.think_time_ms;
    }

    // Fill in final weights (Fig 8's bars).
    for o in &mut outcomes {
        if let Some(id) = o.tx_id {
            o.final_weight = gateway.tangle().cumulative_weight(&id);
        }
    }

    // Drain events accrued since the last loop iteration so the log is
    // the complete history.
    event_log.extend(gateway.take_credit_events());

    // Sample the credit trace once per second — from a *replay* of the
    // event log, not the live ledger. Credit is a pure projection of the
    // log, so this is exact (the runner tests assert it matches the
    // gateway bit-for-bit), and it proves a stored log alone reproduces
    // Fig 8.
    let replay = CreditLedger::from_events(*gateway.credits().params(), &event_log);
    let mut samples = Vec::new();
    let mut t = 0u64;
    while t <= duration_ms {
        let at = SimTime::from_millis(t);
        let b = replay.credit_of(dev_id, at);
        samples.push(CreditSample {
            t_secs: at.as_secs_f64(),
            cr: b.combined,
            crp: b.positive,
            crn: b.negative,
            difficulty: gateway.difficulty_for(dev_id, at).bits(),
        });
        t += 1_000;
    }

    RunResult { outcomes, samples, credit_events: event_log }
}

/// Simulates mining with periodic difficulty reassessment.
///
/// The nonce search is memoryless, so restarting at a new difficulty
/// loses no progress. We draw a unit-rate exponential "work" requirement
/// and integrate the hash rate implied by the (changing) difficulty until
/// the work is consumed.
///
/// Returns `(finish_time, difficulty_at_finish, pow_seconds)`, or `None`
/// if the search would not finish within 10× the run duration (a fully
/// punished node at an impossible difficulty).
fn mine_adaptive(
    gateway: &Gateway,
    node: biot_tangle::tx::NodeId,
    start: SimTime,
    config: &NodeRunConfig,
    rng: &mut StdRng,
) -> Option<(SimTime, Difficulty, f64)> {
    let mut work: f64 = {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        -u.ln()
    };
    let mut t = start;
    let horizon = config.duration.as_millis() * 10;
    loop {
        if t.as_millis() > horizon {
            return None;
        }
        let d = gateway.difficulty_for(node, t);
        let rate = 1.0 / config.calibration.expected_pow_secs(d); // work/sec
        let step_secs = config.reassess_ms as f64 / 1000.0;
        let consumed = rate * step_secs;
        if consumed >= work {
            let finish_in = work / rate;
            let finish = t + (finish_in * 1000.0).round() as u64;
            let pow_secs = finish.millis_since(start) as f64 / 1000.0;
            return Some((finish, d, pow_secs));
        }
        work -= consumed;
        t += config.reassess_ms;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> NodeRunConfig {
        NodeRunConfig {
            duration: SimTime::from_secs(90),
            ..NodeRunConfig::default()
        }
    }

    #[test]
    fn normal_run_produces_steady_transactions() {
        let result = run_single_node(&quick_config());
        assert!(result.accepted_count() >= 10, "got {}", result.accepted_count());
        assert!(result.outcomes.iter().all(|o| o.accepted));
        // Credit becomes positive once activity registers.
        let late = result.samples.last().unwrap();
        assert!(late.cr > 0.0, "steady-state credit {}", late.cr);
    }

    #[test]
    fn credit_based_beats_original_pow_for_honest_node() {
        let credit = run_single_node(&quick_config());
        let fixed = run_single_node(&NodeRunConfig {
            policy: PolicyChoice::original_pow(),
            ..quick_config()
        });
        assert!(
            credit.avg_pow_secs() < fixed.avg_pow_secs() / 2.0,
            "credit {} vs fixed {}",
            credit.avg_pow_secs(),
            fixed.avg_pow_secs()
        );
    }

    #[test]
    fn original_pow_average_near_point_seven() {
        let fixed = run_single_node(&NodeRunConfig {
            policy: PolicyChoice::original_pow(),
            ..quick_config()
        });
        let avg = fixed.avg_pow_secs();
        assert!((0.35..1.4).contains(&avg), "avg {avg} should be ≈0.7 s");
    }

    #[test]
    fn attack_is_rejected_and_punished() {
        let result = run_single_node(&NodeRunConfig {
            attack_times: vec![SimTime::from_secs(30)],
            ..quick_config()
        });
        let attack = result
            .outcomes
            .iter()
            .find(|o| o.was_attack)
            .expect("attack attempt present");
        assert!(!attack.accepted, "double-spend must be cancelled");
        // Credit right after the attack is deeply negative.
        let after = result
            .samples
            .iter()
            .find(|s| s.t_secs > attack.submitted_at_secs)
            .expect("sample after attack");
        assert!(after.cr < -1.0, "credit after attack: {}", after.cr);
        assert_eq!(after.difficulty, 14, "difficulty pinned at the clamp");
    }

    #[test]
    fn attack_slows_down_subsequent_transactions() {
        let clean = run_single_node(&quick_config());
        let attacked = run_single_node(&NodeRunConfig {
            attack_times: vec![SimTime::from_secs(30)],
            ..quick_config()
        });
        assert!(
            attacked.avg_pow_secs() > clean.avg_pow_secs() * 2.0,
            "attacked {} vs clean {}",
            attacked.avg_pow_secs(),
            clean.avg_pow_secs()
        );
        assert!(attacked.longest_gap_secs() > clean.longest_gap_secs());
    }

    #[test]
    fn two_attacks_slower_than_one() {
        let one = run_single_node(&NodeRunConfig {
            attack_times: vec![SimTime::from_secs(30)],
            ..quick_config()
        });
        let two = run_single_node(&NodeRunConfig {
            attack_times: vec![SimTime::from_secs(30), SimTime::from_secs(55)],
            ..quick_config()
        });
        assert!(
            two.avg_pow_secs() > one.avg_pow_secs(),
            "two {} vs one {}",
            two.avg_pow_secs(),
            one.avg_pow_secs()
        );
    }

    #[test]
    fn runs_are_deterministic_given_seed() {
        let a = run_single_node(&quick_config());
        let b = run_single_node(&quick_config());
        assert_eq!(a.accepted_count(), b.accepted_count());
        assert_eq!(a.avg_pow_secs(), b.avg_pow_secs());
        let c = run_single_node(&NodeRunConfig {
            seed: 43,
            ..quick_config()
        });
        // Different seed nearly surely differs somewhere.
        assert!(
            a.avg_pow_secs() != c.avg_pow_secs() || a.accepted_count() != c.accepted_count()
        );
    }

    #[test]
    fn sealing_does_not_perturb_the_run() {
        // The sealed-cone index is a pure acceleration: weights, credit,
        // and every RNG draw must be byte-identical with sealing on.
        let plain = run_single_node(&quick_config());
        let sealed = run_single_node(&NodeRunConfig {
            seal_lag: Some(16),
            ..quick_config()
        });
        assert_eq!(plain.accepted_count(), sealed.accepted_count());
        assert_eq!(plain.avg_pow_secs(), sealed.avg_pow_secs());
        assert_eq!(plain.samples.len(), sealed.samples.len());
        for (a, b) in plain.samples.iter().zip(&sealed.samples) {
            assert_eq!(a.cr, b.cr);
        }
    }

    /// Relays a run's credit event log from a primary to a replica gossip
    /// node over a jittered in-memory link on a virtual clock, folding what
    /// the replica receives into a fresh ledger. Returns that ledger and
    /// the virtual time (ms) at which it caught up with the log.
    fn relay_credit_log(events: &[CreditEvent], jitter_seed: u64) -> (CreditLedger, u64) {
        use biot_credit::CreditParams;
        use biot_gossip::node::{GossipConfig, GossipNode};
        use biot_gossip::transport::{JitterTransport, MemTransport, Transport, VirtualClock};
        use biot_net::latency::UniformLatency;

        let clock = VirtualClock::new();
        let jittered = |end: MemTransport, seed: u64| -> Box<dyn Transport> {
            Box::new(JitterTransport::new(
                Box::new(end),
                Box::new(UniformLatency::new(5, 40)),
                seed,
                clock.clone(),
            ))
        };
        let (end_a, end_b, _link) = MemTransport::pair();
        // Distinct ids: each node's credit origin derives from its own.
        let mut primary =
            GossipNode::with_empty_tangle(GossipConfig { node_id: 1, ..GossipConfig::default() });
        let mut replica =
            GossipNode::with_empty_tangle(GossipConfig { node_id: 2, ..GossipConfig::default() });
        primary.add_transport(jittered(end_a, jitter_seed), 0);
        replica.add_transport(jittered(end_b, jitter_seed + 1), 0);
        primary.broadcast_credit_events(events, 0);

        let mut ledger = CreditLedger::new(CreditParams::default());
        let mut now_ms = 0;
        while ledger.events_applied() < events.len() as u64 && now_ms < 60_000 {
            now_ms += 25;
            clock.set(now_ms);
            primary.poll(now_ms);
            replica.poll(now_ms);
            for (_, ev) in replica.take_credit_events() {
                ledger.apply(&ev);
            }
        }
        (ledger, now_ms)
    }

    /// Asserts `replica` agrees with a direct replay of `result`'s event
    /// log on every node's credit at every sampled instant.
    fn assert_replica_matches_run(replica: &CreditLedger, result: &RunResult) {
        use biot_credit::CreditParams;
        let oracle = CreditLedger::from_events(CreditParams::default(), &result.credit_events);
        assert_eq!(replica.events_applied(), oracle.events_applied());
        let mut nodes: Vec<_> = oracle.known_nodes().chain(replica.known_nodes()).copied().collect();
        nodes.sort();
        nodes.dedup();
        assert!(!nodes.is_empty());
        for s in &result.samples {
            let at = SimTime::from_millis((s.t_secs * 1000.0).round() as u64);
            for &node in &nodes {
                assert_eq!(replica.credit_of(node, at), oracle.credit_of(node, at), "{node:?} at {at}");
            }
        }
    }

    #[test]
    fn gossip_mirror_converges_and_is_deterministic() {
        // A clean run's credit log, relayed over the real gossip stack,
        // converges on the replica — and the same seeds give the same log
        // and the same relay trace.
        let first = run_single_node(&quick_config());
        assert!(!first.credit_events.is_empty());
        let (replica, settled_ms) = relay_credit_log(&first.credit_events, 7);
        assert!(settled_ms < 60_000, "replica never caught up");
        assert_replica_matches_run(&replica, &first);

        let second = run_single_node(&quick_config());
        assert_eq!(second.credit_events, first.credit_events);
        let (again, again_ms) = relay_credit_log(&second.credit_events, 7);
        assert_eq!(again_ms, settled_ms);
        assert_eq!(again.events_applied(), replica.events_applied());
        assert_replica_matches_run(&again, &second);
    }

    #[test]
    fn gossip_replica_agrees_on_credit_even_after_an_attack() {
        // The punished node's deeply negative credit — and the clamped
        // difficulty it implies — must reach a replica purely from the
        // run's credit evidence, relayed over the real gossip stack.
        let result = run_single_node(&NodeRunConfig {
            attack_times: vec![SimTime::from_secs(30)],
            ..quick_config()
        });
        assert!(
            result
                .credit_events
                .iter()
                .any(|e| matches!(e, CreditEvent::Misbehaved { .. })),
            "attack evidence must be in the event log"
        );
        let (replica, settled_ms) = relay_credit_log(&result.credit_events, 1);
        assert!(settled_ms < 60_000, "replica never caught up");
        assert_replica_matches_run(&replica, &result);
    }

    #[test]
    fn credit_trace_is_a_pure_replay_of_the_event_log() {
        use biot_credit::CreditParams;
        let result = run_single_node(&NodeRunConfig {
            attack_times: vec![SimTime::from_secs(30)],
            ..quick_config()
        });
        assert!(!result.credit_events.is_empty());
        // The attacked device is the one node with misbehaviour evidence.
        let dev = result
            .credit_events
            .iter()
            .find_map(|e| match e {
                CreditEvent::Misbehaved { node, .. } => Some(*node),
                _ => None,
            })
            .expect("attack run records misbehaviour");
        // Replaying the published log through a fresh ledger reproduces
        // the published Fig 8 samples bit-for-bit.
        let replay = CreditLedger::from_events(CreditParams::default(), &result.credit_events);
        for s in &result.samples {
            let b = replay.credit_of(dev, SimTime::from_millis((s.t_secs * 1000.0).round() as u64));
            assert_eq!(b.combined, s.cr, "at t={}", s.t_secs);
            assert_eq!(b.positive, s.crp, "at t={}", s.t_secs);
            assert_eq!(b.negative, s.crn, "at t={}", s.t_secs);
        }
    }

    #[test]
    fn credit_trace_recovers_after_attack() {
        let result = run_single_node(&NodeRunConfig {
            attack_times: vec![SimTime::from_secs(24)],
            ..quick_config()
        });
        let worst = result
            .samples
            .iter()
            .cloned()
            .fold(f64::INFINITY, |acc, s| acc.min(s.cr));
        let last = result.samples.last().unwrap().cr;
        assert!(worst < -2.0, "trough {worst}");
        assert!(last > worst, "credit must climb back: {last} vs {worst}");
    }
}
