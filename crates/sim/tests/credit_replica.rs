//! Property: a replica fed by credit relay holds exactly the origin
//! gateway's credit ledger.
//!
//! Random admission schedules put several transactions per instant
//! through a validation gateway, devices interleaved, with confirmation
//! refreshes between instants (same-instant grants of larger weights).
//! The gateway's credit outbox is broadcast from its gossip node after
//! every instant and relayed to a replica over in-memory or jittered
//! links, through one partition and heal. At every sample instant —
//! inside the 30 s ΔT window and past it — every device's
//! `(CrP, CrN, Cr)` on the replica must equal the origin's as f64 bit
//! patterns. Content-equal grants (one device, one instant, one weight)
//! are distinct events here; a relay that keys events by content drops
//! them.

use biot_core::identity::Account;
use biot_core::node::{Gateway, Manager};
use biot_core::Difficulty;
use biot_credit::{CreditLedger, CreditParams};
use biot_gossip::node::{GossipConfig, GossipNode};
use biot_gossip::transport::{
    FnConnector, JitterTransport, MemLink, MemTransport, Transport, TransportError, VirtualClock,
};
use biot_net::latency::UniformLatency;
use biot_net::time::SimTime;
use biot_node::role::LightClient;
use biot_sim::roles::validation_gateway;
use biot_tangle::tx::{NodeId, TxId};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};

const DEVICES: usize = 3;
/// Virtual time between scheduled instants, ms.
const STEP_MS: u64 = 700;

/// Manager and device accounts, generated once: RSA key generation is
/// the slow part, and the property is about the schedule.
fn accounts() -> &'static [Account] {
    static ACCOUNTS: OnceLock<Vec<Account>> = OnceLock::new();
    ACCOUNTS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x00C4_ED17);
        (0..=DEVICES).map(|_| Account::generate(&mut rng)).collect()
    })
}

/// One admission instant: the devices submitting, in order, and whether
/// the gateway refreshes (grants confirmation weights) afterwards.
type Step = (Vec<usize>, bool);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (proptest::collection::vec(0..DEVICES, 2..7), any::<bool>()),
        2..6,
    )
}

/// The replica's end of a link that can be cut: dials fail while `cut`
/// is set, and each dial hands the origin its end over `ends`.
struct Wiring {
    cut: Arc<AtomicBool>,
    live: Arc<Mutex<Option<MemLink>>>,
    ends: mpsc::Receiver<MemTransport>,
}

fn wire(replica: &mut GossipNode, jitter: Option<(VirtualClock, u64)>) -> Wiring {
    let cut = Arc::new(AtomicBool::new(false));
    let live = Arc::new(Mutex::new(None));
    let (tx, ends) = mpsc::channel();
    let (c, l) = (Arc::clone(&cut), Arc::clone(&live));
    let mut dials = 0u64;
    replica.connect(Box::new(FnConnector(move || {
        if c.load(Ordering::SeqCst) {
            return Err(TransportError::Closed);
        }
        let (ours, theirs, link) = MemTransport::pair();
        *l.lock().unwrap() = Some(link);
        tx.send(theirs).unwrap();
        dials += 1;
        Ok(match &jitter {
            Some((clock, seed)) => jittered(ours, clock, seed + dials),
            None => Box::new(ours) as Box<dyn Transport>,
        })
    })));
    Wiring { cut, live, ends }
}

fn jittered(end: MemTransport, clock: &VirtualClock, seed: u64) -> Box<dyn Transport> {
    Box::new(JitterTransport::new(
        Box::new(end),
        Box::new(UniformLatency::new(5, 40)),
        seed,
        clock.clone(),
    ))
}

/// Every device's credit bit patterns at instants inside and past ΔT.
fn credit_bits(ledger: &CreditLedger, devices: &[NodeId], last_ms: u64) -> Vec<[u64; 3]> {
    let mut probes: Vec<u64> = (0..=last_ms / STEP_MS)
        .map(|k| 1_000 + k * STEP_MS)
        .collect();
    probes.extend([
        last_ms + 1,
        15_000,
        29_999,
        30_000,
        31_000,
        last_ms + 30_000,
        600_000,
    ]);
    probes
        .iter()
        .flat_map(|&at| devices.iter().map(move |&d| (d, at)))
        .map(|(d, at)| {
            let c = ledger.credit_of(d, SimTime::from_millis(at));
            [
                c.positive.to_bits(),
                c.negative.to_bits(),
                c.combined.to_bits(),
            ]
        })
        .collect()
}

fn relay(steps: &[Step], jitter: bool, seed: u64) -> Result<(), TestCaseError> {
    let accounts = accounts();
    let mut manager = Manager::new(accounts[0].clone());
    let lights: Vec<LightClient> = accounts[1..]
        .iter()
        .cloned()
        .map(LightClient::new)
        .collect();
    let (mut gateway, genesis): (Gateway, TxId) = validation_gateway(&mut manager, &lights);
    let devices: Vec<NodeId> = lights.iter().map(LightClient::id).collect();

    let clock = VirtualClock::new();
    let mut origin = GossipNode::with_empty_tangle(GossipConfig {
        node_id: 1,
        seed,
        ..GossipConfig::default()
    });
    let mut replica = GossipNode::with_empty_tangle(GossipConfig {
        node_id: 2,
        seed,
        backoff_jitter_pct: 0,
        ..GossipConfig::default()
    });
    let wiring = wire(&mut replica, jitter.then(|| (clock.clone(), seed)));
    // The bootstrap's own credit (the manager's authorization list).
    origin.broadcast_credit_events(&gateway.take_credit_events(), 0);
    let mut ledger = CreditLedger::new(CreditParams::default());
    let mut now = 0u64;
    let mut pump =
        |origin: &mut GossipNode, replica: &mut GossipNode, until: u64, now: &mut u64| {
            while *now < until {
                *now += 10;
                clock.set(*now);
                while let Ok(end) = wiring.ends.try_recv() {
                    let end = if jitter {
                        jittered(end, &clock, seed ^ *now)
                    } else {
                        Box::new(end)
                    };
                    origin.add_transport(end, *now);
                }
                origin.poll(*now);
                replica.poll(*now);
                for (_, ev) in replica.take_credit_events() {
                    ledger.apply(&ev);
                }
            }
        };

    let (mut parents, mut k) = ((genesis, genesis), 0u8);
    let cut_at = steps.len() / 2;
    for (i, (subs, refresh)) in steps.iter().enumerate() {
        let at = 1_000 + i as u64 * STEP_MS;
        if i == cut_at {
            // Partition: the link dies, and dials fail until this step.
            wiring.cut.store(true, Ordering::SeqCst);
            if let Some(link) = wiring.live.lock().unwrap().take() {
                link.kill();
            }
            pump(&mut origin, &mut replica, at, &mut now);
            wiring.cut.store(false, Ordering::SeqCst);
        }
        pump(&mut origin, &mut replica, at, &mut now);
        let t = SimTime::from_millis(at);
        for &d in subs {
            k = k.wrapping_add(1);
            let tx = lights[d]
                .prepare(vec![d as u8, k], parents, t, Difficulty::MIN)
                .tx;
            let id = gateway.submit(tx, t).expect("light submission admits");
            parents = (id, parents.0);
        }
        if *refresh {
            gateway.refresh(t);
        }
        origin.broadcast_credit_events(&gateway.take_credit_events(), at);
    }
    let last_ms = 1_000 + (steps.len() as u64 - 1) * STEP_MS;
    pump(&mut origin, &mut replica, now + 15_000, &mut now);

    prop_assert!(
        replica.stats().handshakes >= 2,
        "the partition healed by a redial"
    );
    prop_assert_eq!(replica.credit_watermarks(), origin.credit_watermarks());
    let live = gateway.credits();
    prop_assert_eq!(ledger.events_applied(), live.events_applied());
    prop_assert_eq!(
        credit_bits(&ledger, &devices, last_ms),
        credit_bits(live, &devices, last_ms)
    );
    Ok(())
}

proptest! {
    // Each case signs and relays up to 30 transactions' credit.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn replica_credit_equals_origin_credit_bit_for_bit(
        steps in steps(),
        jitter in any::<bool>(),
        seed in any::<u64>(),
    ) {
        relay(&steps, jitter, seed)?;
    }
}
