//! Cross-crate integration tests: the full Fig 6 workflow, multi-gateway
//! replication, and confidentiality end to end.

use biot::core::difficulty::InverseProportionalPolicy;
use biot::core::identity::Account;
use biot::core::keydist::DeviceSession;
use biot::core::node::{Gateway, GatewayConfig, LightNode, Manager};
use biot::core::access::DataProtector;
use biot::net::time::SimTime;
use biot::tangle::tx::{Payload, TxId};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Factory {
    manager: Manager,
    gateway: Gateway,
    devices: Vec<LightNode>,
    rng: StdRng,
    genesis: TxId,
}

/// Boots a factory with `n` authorized devices.
fn boot_factory(n: usize, seed: u64) -> Factory {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut manager = Manager::new(Account::generate(&mut rng));
    let devices: Vec<LightNode> = (0..n)
        .map(|_| LightNode::new(Account::generate(&mut rng)))
        .collect();
    let (gateway, genesis) = boot_gateway(&mut manager, &devices);
    Factory {
        manager,
        gateway,
        devices,
        rng,
        genesis,
    }
}

/// A credit-policed gateway with `devices` authorized.
fn boot_gateway(manager: &mut Manager, devices: &[LightNode]) -> (Gateway, TxId) {
    Gateway::bootstrap(
        manager,
        Box::new(InverseProportionalPolicy::default()),
        GatewayConfig::default(),
        devices.iter().map(LightNode::public_key),
    )
}

#[test]
fn full_workflow_three_devices() {
    let mut f = boot_factory(3, 1);
    let mut now = SimTime::from_secs(1);
    for round in 0..4 {
        for i in 0..f.devices.len() {
            let tips = f.gateway.random_tips(&mut f.rng).unwrap();
            let d = f.gateway.difficulty_for(f.devices[i].id(), now);
            let p = f.devices[i].prepare_reading(
                format!("r{round}-{i}").as_bytes(),
                tips,
                now,
                d,
                &mut f.rng,
            );
            f.gateway.submit(p.tx, now).unwrap();
            now += 700;
        }
    }
    // genesis + auth list + 12 readings
    assert_eq!(f.gateway.tangle().len(), 14);
    let confirmed = f.gateway.refresh(now);
    assert!(!confirmed.is_empty());
    // All three devices earned credit.
    for dev in &f.devices {
        assert!(f.gateway.credit_of(dev.id(), now).combined > 0.0);
    }
}

#[test]
fn replicated_gateways_converge() {
    let mut f = boot_factory(2, 2);
    // Second gateway bootstrapped from the same genesis configuration.
    let (mut replica, genesis) = boot_gateway(&mut f.manager, &f.devices);
    assert_eq!(genesis, f.genesis);

    let mut now = SimTime::from_secs(1);
    for i in 0..6 {
        let dev = &f.devices[i % 2];
        let tips = f.gateway.random_tips(&mut f.rng).unwrap();
        let d = f.gateway.difficulty_for(dev.id(), now);
        let p = dev.prepare_reading(format!("x{i}").as_bytes(), tips, now, d, &mut f.rng);
        f.gateway.submit(p.tx.clone(), now).unwrap();
        // Gossip to the replica.
        replica.receive_broadcast(p.tx, now).unwrap();
        now += 1_000;
    }
    assert_eq!(f.gateway.tangle().len(), replica.tangle().len());
    // Every transaction on the primary exists on the replica.
    for tx in f.gateway.tangle().iter() {
        assert!(replica.tangle().contains(&tx.id()), "replica missing {:?}", tx.id());
    }
}

#[test]
fn sensitive_data_is_confidential_on_the_ledger() {
    let mut f = boot_factory(1, 3);
    let dev_id = f.devices[0].id();
    // Fig 4 handshake.
    let cfg = *f.manager.keydist_config();
    let m1 = f
        .manager
        .start_key_distribution(dev_id, SimTime::from_millis(10), &mut f.rng);
    let (mut ds, m2) = DeviceSession::handle_m1(
        f.devices[0].account(),
        f.manager.public_key(),
        &m1,
        10,
        &cfg,
        &mut f.rng,
    )
    .unwrap();
    let m3 = f
        .manager
        .handle_m2(dev_id, &m2, SimTime::from_millis(20), &mut f.rng)
        .unwrap();
    ds.handle_m3(f.manager.public_key(), &m3, 30, &cfg).unwrap();
    let key = ds.session_key().unwrap().clone();
    f.devices[0].install_session_key(key.clone());

    // Post a secret reading.
    let now = SimTime::from_secs(1);
    let tips = f.gateway.random_tips(&mut f.rng).unwrap();
    let d = f.gateway.difficulty_for(dev_id, now);
    let secret = b"recipe:speed=1100;temp=205";
    let p = f.devices[0].prepare_reading(secret, tips, now, d, &mut f.rng);
    let id = f.gateway.submit(p.tx, now).unwrap();

    // On-ledger bytes never contain the plaintext.
    let payload = &f.gateway.tangle().get(&id).unwrap().payload;
    match payload {
        Payload::EncryptedData { ciphertext, .. } => {
            assert!(!ciphertext
                .windows(b"recipe".len())
                .any(|w| w == b"recipe"));
        }
        other => panic!("expected ciphertext on ledger, got {other:?}"),
    }
    // Key holder decrypts; outsider cannot.
    let reader = DataProtector::sensitive(key);
    assert_eq!(reader.open(payload).unwrap(), secret);
    assert!(DataProtector::public().open(payload).is_err());
}

#[test]
fn credit_history_survives_across_submissions() {
    let mut f = boot_factory(1, 4);
    let dev = &f.devices[0];
    let mut now = SimTime::from_secs(1);
    let d_start = f.gateway.difficulty_for(dev.id(), now);
    for i in 0..5 {
        let tips = f.gateway.random_tips(&mut f.rng).unwrap();
        let d = f.gateway.difficulty_for(dev.id(), now);
        let p = dev.prepare_reading(format!("{i}").as_bytes(), tips, now, d, &mut f.rng);
        f.gateway.submit(p.tx, now).unwrap();
        now += 1_500;
    }
    let d_active = f.gateway.difficulty_for(dev.id(), now);
    assert!(d_active < d_start);
    // After a long silence the positive window empties and difficulty
    // returns to the base (but not above — no punishment for idling).
    let much_later = now + 120_000;
    let d_idle = f.gateway.difficulty_for(dev.id(), much_later);
    assert_eq!(d_idle, d_start);
}
