//! The Fig 4 key-distribution handshake driven over a virtual-time link:
//! three messages, three one-way latencies, replay protection under
//! delay.

use biot::core::identity::Account;
use biot::core::keydist::{DeviceSession, KeyDistConfig, ManagerSession, Message1, Message2, Message3};
use biot::net::queue::EventQueue;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Clone, Debug)]
enum Msg {
    M1(Message1),
    M2(Message2),
    M3(Message3),
}

/// One-way link latency between manager and device, ms.
const LINK_MS: u64 = 20;

#[test]
fn handshake_over_network_takes_three_hops() {
    let mut rng = StdRng::seed_from_u64(1);
    let manager = Account::generate(&mut rng);
    let device = Account::generate(&mut rng);
    let cfg = KeyDistConfig::default();
    let mut queue: EventQueue<Msg> = EventQueue::new();

    // Manager initiates at t=0.
    let (mut ms, m1) = ManagerSession::initiate(&manager, device.public_key(), 0, &mut rng);
    queue.schedule_in(LINK_MS, Msg::M1(m1));

    let mut ds: Option<DeviceSession> = None;
    let mut completed_at = None;
    while let Some((now, msg)) = queue.pop() {
        match msg {
            Msg::M1(m1) => {
                let (session, m2) = DeviceSession::handle_m1(
                    &device,
                    manager.public_key(),
                    &m1,
                    now.as_millis(),
                    &cfg,
                    &mut rng,
                )
                .expect("M1 verifies within the freshness window");
                ds = Some(session);
                queue.schedule_in(LINK_MS, Msg::M2(m2));
            }
            Msg::M2(m2) => {
                let m3 = ms
                    .handle_m2(
                        &manager,
                        device.public_key(),
                        &m2,
                        now.as_millis(),
                        &cfg,
                        &mut rng,
                    )
                    .expect("M2 verifies");
                queue.schedule_in(LINK_MS, Msg::M3(m3));
            }
            Msg::M3(m3) => {
                ds.as_mut()
                    .unwrap()
                    .handle_m3(manager.public_key(), &m3, now.as_millis(), &cfg)
                    .expect("M3 verifies");
                completed_at = Some(now);
            }
        }
    }
    // 3 one-way messages × 20 ms.
    assert_eq!(completed_at.unwrap().as_millis(), 60);
    assert_eq!(
        ms.session_key().unwrap().as_bytes(),
        ds.unwrap().session_key().unwrap().as_bytes()
    );
}

#[test]
fn excessive_network_delay_triggers_replay_protection() {
    let mut rng = StdRng::seed_from_u64(2);
    let manager = Account::generate(&mut rng);
    let device = Account::generate(&mut rng);
    let cfg = KeyDistConfig::default(); // 5 s freshness window
    let mut queue: EventQueue<Msg> = EventQueue::new();

    let (_ms, m1) = ManagerSession::initiate(&manager, device.public_key(), 0, &mut rng);
    // A pathological 10-second delivery delay (e.g. a replayed capture).
    queue.schedule_in(10_000, Msg::M1(m1));
    let (now, Msg::M1(m1)) = queue.pop().unwrap() else { panic!() };
    let err = DeviceSession::handle_m1(
        &device,
        manager.public_key(),
        &m1,
        now.as_millis(),
        &cfg,
        &mut rng,
    )
    .unwrap_err();
    assert!(matches!(
        err,
        biot::core::keydist::KeyDistError::StaleTimestamp { .. }
    ));
}
