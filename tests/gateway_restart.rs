//! Full gateway restart: persist the ledger AND the credit event log
//! with `biot-store`, crash, recover, and rebuild both admission state
//! (by replaying on-ledger authorization lists) and credit state (by
//! replaying persisted credit events) — then keep serving devices.

use biot::core::difficulty::InverseProportionalPolicy;
use biot::core::identity::Account;
use biot::core::node::{Gateway, GatewayConfig, LightNode, Manager, SubmitError};
use biot::net::time::SimTime;
use biot::store::LedgerStore;
use biot::credit::{CreditEvent, CreditId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// The gateway's outbox as one origin's sequence from 0 (each test
/// persists it in one append).
fn stamped(events: Vec<CreditEvent>) -> Vec<(CreditId, CreditEvent)> {
    (0..).zip(events).map(|(seq, ev)| (CreditId { origin: 0, seq }, ev)).collect()
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("biot-restart-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Boots a credit-recording gateway with `devices` authorized and
/// persists its genesis and auth list.
fn boot<const N: usize>(
    manager: &mut Manager,
    devices: [&LightNode; N],
    store: &mut LedgerStore,
) -> Gateway {
    let (mut gateway, _) = Gateway::bootstrap(
        manager,
        Box::new(InverseProportionalPolicy::default()),
        GatewayConfig {
            record_broadcasts: true,
            record_credit_events: true,
            ..GatewayConfig::default()
        },
        devices.map(LightNode::public_key),
    );
    for tx in gateway.take_broadcasts() {
        store.append(&tx, 0).unwrap();
    }
    gateway
}

#[test]
fn gateway_survives_restart_with_admission_state() {
    let dir = TempDir::new("full");
    let mut rng = StdRng::seed_from_u64(1);
    let mut manager = Manager::new(Account::generate(&mut rng));
    let authorized = LightNode::new(Account::generate(&mut rng));
    let revoked = LightNode::new(Account::generate(&mut rng));

    // --- Life before the crash -------------------------------------------
    let mut store = LedgerStore::open(&dir.0).unwrap();
    {
        let mut gateway = boot(&mut manager, [&authorized, &revoked], &mut store);

        // Both devices post; then the manager revokes one on-ledger.
        let mut now = SimTime::from_secs(1);
        for dev in [&authorized, &revoked] {
            let tips = gateway.random_tips(&mut rng).unwrap();
            let d = gateway.difficulty_for(dev.id(), now);
            let p = dev.prepare_reading(b"pre-crash", tips, now, d, &mut rng);
            let tx = p.tx.clone();
            gateway.submit(p.tx, now).unwrap();
            store.append(&tx, now.as_millis()).unwrap();
            now += 1_000;
        }
        manager.deauthorize(revoked.id());
        let tips = gateway.random_tips(&mut rng).unwrap();
        let d = gateway.difficulty_for(manager.id(), now);
        let list2 = manager.prepare_auth_list(tips, now, d);
        let list2_tx = list2.tx.clone();
        gateway.apply_auth_list(list2.tx, now).unwrap();
        store.append(&list2_tx, now.as_millis()).unwrap();
        store.write_records(&stamped(gateway.take_credit_events()), []).unwrap();
        // gateway dropped here: the crash.
    }

    // --- Restart -----------------------------------------------------------
    let recovered = LedgerStore::open(&dir.0).unwrap().recover_full().unwrap();
    let mut gateway = Gateway::new(
        manager.public_key().clone(),
        Box::new(InverseProportionalPolicy::default()),
        GatewayConfig::default(),
    );
    gateway.restore(
        recovered.tangle.expect("ledger on disk"),
        &recovered.credit_events,
    );
    gateway.register_pubkey(authorized.public_key().clone());
    gateway.register_pubkey(revoked.public_key().clone());

    // Admission state came back from the ledger: the authorized device
    // serves, the revoked one is refused.
    assert!(gateway.authz().is_authorized(&authorized.id()));
    assert!(!gateway.authz().is_authorized(&revoked.id()));

    // Credit state came back from the event log: the pre-crash activity
    // is visible at a probe inside its ΔT window...
    assert!(
        gateway.credit_of(authorized.id(), SimTime::from_secs(5)).combined > 0.0,
        "pre-crash validations must survive the restart"
    );

    let now = SimTime::from_secs(60);
    let tips = gateway.random_tips(&mut rng).unwrap();
    let d = gateway.difficulty_for(authorized.id(), now);
    // ...and at t = 60 s the difficulty is back to INITIAL because the
    // 30 s activity window has genuinely expired — not because the
    // restart forgot the history.
    assert_eq!(
        d,
        biot::core::Difficulty::INITIAL,
        "activity window expired by t=60s"
    );
    let p = authorized.prepare_reading(b"post-crash", tips, now, d, &mut rng);
    gateway.submit(p.tx, now).unwrap();

    let tips = gateway.random_tips(&mut rng).unwrap();
    let d = gateway.difficulty_for(revoked.id(), now);
    let p = revoked.prepare_reading(b"rejected", tips, now, d, &mut rng);
    assert!(matches!(
        gateway.submit(p.tx, now),
        Err(SubmitError::Unauthorized(_))
    ));
}

#[test]
fn double_spender_stays_punished_across_restart() {
    let dir = TempDir::new("punish");
    let mut rng = StdRng::seed_from_u64(7);
    let mut manager = Manager::new(Account::generate(&mut rng));
    let attacker = LightNode::new(Account::generate(&mut rng));
    let probe = SimTime::from_secs(3);

    // --- Attack, punishment, crash -----------------------------------------
    let mut store = LedgerStore::open(&dir.0).unwrap();
    let before = {
        let mut gateway = boot(&mut manager, [&attacker], &mut store);

        // Spend a token, then try to spend it again: the double-spend is
        // cancelled and the attacker's credit collapses.
        let token = [0xAB; 32];
        let now = SimTime::from_secs(1);
        let tips = gateway.random_tips(&mut rng).unwrap();
        let d = gateway.difficulty_for(attacker.id(), now);
        let spend = attacker.prepare_spend(token, manager.id(), tips, now, d);
        let spend_tx = spend.tx.clone();
        gateway.submit(spend.tx, now).unwrap();
        store.append(&spend_tx, now.as_millis()).unwrap();

        let now = SimTime::from_secs(2);
        let tips = gateway.random_tips(&mut rng).unwrap();
        let d = gateway.difficulty_for(attacker.id(), now);
        let double = attacker.prepare_spend(token, attacker.id(), tips, now, d);
        assert!(gateway.submit(double.tx, now).is_err(), "double-spend must be cancelled");

        store.write_records(&stamped(gateway.take_credit_events()), []).unwrap();
        let before = gateway.credit_of(attacker.id(), probe);
        assert!(before.combined < -1.0, "punished pre-crash: {}", before.combined);
        assert_eq!(gateway.difficulty_for(attacker.id(), probe), biot::core::Difficulty::MAX);
        before
        // gateway dropped here: the crash.
    };

    // --- Restart: the punishment must NOT be amnestied ---------------------
    let recovered = LedgerStore::open(&dir.0).unwrap().recover_full().unwrap();
    assert!(!recovered.credit_events.is_empty(), "credit events persisted");
    let mut gateway = Gateway::new(
        manager.public_key().clone(),
        Box::new(InverseProportionalPolicy::default()),
        GatewayConfig::default(),
    );
    gateway.restore(
        recovered.tangle.expect("ledger on disk"),
        &recovered.credit_events,
    );
    gateway.register_pubkey(attacker.public_key().clone());

    let after = gateway.credit_of(attacker.id(), probe);
    assert_eq!(after.positive, before.positive, "CrP replayed bit-for-bit");
    assert_eq!(after.negative, before.negative, "CrN replayed bit-for-bit");
    assert_eq!(after.combined, before.combined, "Cr replayed bit-for-bit");
    assert!(after.combined < -1.0, "still deeply negative: {}", after.combined);
    assert_eq!(
        gateway.difficulty_for(attacker.id(), probe),
        biot::core::Difficulty::MAX,
        "difficulty still pinned at the clamp after recovery"
    );
}
