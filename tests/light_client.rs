//! Light-client verification: a storage-constrained sensor confirms its
//! reading is being approved without storing any ledger state, using
//! approval proofs served by a gateway.

use biot::core::difficulty::InverseProportionalPolicy;
use biot::core::identity::Account;
use biot::core::node::{Gateway, GatewayConfig, LightNode, Manager};
use biot::net::time::SimTime;
use biot::tangle::proof::ProofError;
use biot::tangle::tx::Payload;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct World {
    gateway: Gateway,
    device: LightNode,
    rng: StdRng,
}

fn boot(seed: u64) -> World {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut manager = Manager::new(Account::generate(&mut rng));
    let device = LightNode::new(Account::generate(&mut rng));
    let (gateway, _) = Gateway::bootstrap(
        &mut manager,
        Box::new(InverseProportionalPolicy::default()),
        GatewayConfig::default(),
        [device.public_key()],
    );
    World {
        gateway,
        device,
        rng,
    }
}

#[test]
fn sensor_verifies_its_reading_is_approved() {
    let mut w = boot(1);
    // The sensor posts a reading and remembers only its id.
    let now = SimTime::from_secs(1);
    let tips = w.gateway.random_tips(&mut w.rng).unwrap();
    let d = w.gateway.difficulty_for(w.device.id(), now);
    let p = w.device.prepare_reading(b"mine", tips, now, d, &mut w.rng);
    let my_tx = w.gateway.submit(p.tx, now).unwrap();

    // Other traffic approves it over time.
    let mut t = now;
    for i in 0..6 {
        t += 1_000;
        let tips = w.gateway.random_tips(&mut w.rng).unwrap();
        let d = w.gateway.difficulty_for(w.device.id(), t);
        let p = w
            .device
            .prepare_reading(format!("other {i}").as_bytes(), tips, t, d, &mut w.rng);
        w.gateway.submit(p.tx, t).unwrap();
    }

    // The sensor asks for a proof from a current tip down to its tx.
    let head = w.gateway.tangle().tips()[0];
    let proof = w
        .gateway
        .prove_approval(head, my_tx)
        .expect("the chain of approvals reaches the reading");
    // Local verification: no ledger, just hashing.
    proof.verify(head).unwrap();
    assert!(proof.depth() >= 1);
}

#[test]
fn forged_proof_is_rejected_by_the_sensor() {
    let mut w = boot(2);
    let now = SimTime::from_secs(1);
    let tips = w.gateway.random_tips(&mut w.rng).unwrap();
    let d = w.gateway.difficulty_for(w.device.id(), now);
    let p = w.device.prepare_reading(b"mine", tips, now, d, &mut w.rng);
    let my_tx = w.gateway.submit(p.tx, now).unwrap();
    let mut t = now;
    for i in 0..3 {
        t += 1_000;
        let tips = w.gateway.random_tips(&mut w.rng).unwrap();
        let d = w.gateway.difficulty_for(w.device.id(), t);
        let p = w
            .device
            .prepare_reading(format!("x{i}").as_bytes(), tips, t, d, &mut w.rng);
        w.gateway.submit(p.tx, t).unwrap();
    }
    let head = w.gateway.tangle().tips()[0];
    let mut proof = w.gateway.prove_approval(head, my_tx).unwrap();

    // A malicious gateway swaps a payload inside the path.
    let last = proof.path.len() - 1;
    proof.path[last].payload = Payload::Data(b"swapped".to_vec());
    let err = proof.verify(head).unwrap_err();
    assert!(
        matches!(
            err,
            ProofError::BrokenLink { .. } | ProofError::WrongHead { .. } | ProofError::WrongTarget(_)
        ),
        "forgery must fail: {err:?}"
    );
}

#[test]
fn unapproved_transaction_has_no_proof() {
    let mut w = boot(3);
    let now = SimTime::from_secs(1);
    let tips = w.gateway.random_tips(&mut w.rng).unwrap();
    let d = w.gateway.difficulty_for(w.device.id(), now);
    let p = w.device.prepare_reading(b"fresh tip", tips, now, d, &mut w.rng);
    let my_tx = w.gateway.submit(p.tx, now).unwrap();
    // The reading IS the tip — nothing approves it yet.
    assert!(w.gateway.prove_approval(my_tx, my_tx).is_none());
}
