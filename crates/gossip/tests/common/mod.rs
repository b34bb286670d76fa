//! Shared scenario builder for the gossip integration tests: an
//! "established" gateway tangle a cold replica has to catch up to.

use biot_gossip::node::SharedTangle;
use biot_tangle::graph::Tangle;
use biot_tangle::tx::{NodeId, Payload, TransactionBuilder, TxId};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::{Arc, Mutex};

/// Cumulative-weight threshold used when confirming the scenario DAG.
pub const CONFIRM_THRESHOLD: u64 = 8;

/// Grows a tangle the way a live gateway would: genesis, `grow` data
/// transactions on seeded-random tip pairs, and a mid-life confirmation
/// that seals the confirmed cone. The sealing matters: the replica's
/// weights must match an established ledger whose weight index changed
/// shape halfway, while it pulls the whole history, genesis included,
/// through the tips exchange and parent requests.
pub fn build_established_tangle(seed: u64, grow: u32) -> SharedTangle {
    let tangle = Arc::new(Mutex::new(Tangle::new()));
    {
        let mut t = tangle.lock().unwrap();
        t.attach_genesis(NodeId([0xAA; 32]), 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut now = 0u64;
        for n in 0..grow {
            now += 10;
            let tips = t.tips();
            let trunk = tips[rng.next_u64() as usize % tips.len()];
            let branch = tips[rng.next_u64() as usize % tips.len()];
            let mut issuer = [0u8; 32];
            issuer[..4].copy_from_slice(&n.to_be_bytes());
            let tx = TransactionBuilder::new(NodeId(issuer))
                .parents(trunk, branch)
                .payload(Payload::Data(n.to_be_bytes().to_vec()))
                .timestamp_ms(now)
                .build();
            t.attach(tx, now).unwrap();
            if n == grow / 2 {
                t.confirm_with_threshold(CONFIRM_THRESHOLD);
                assert!(t.seal_frontier(16).is_some(), "scenario must exercise sealing");
            }
        }
        t.confirm_with_threshold(CONFIRM_THRESHOLD);
    }
    tangle
}

/// Every stored transaction id, sorted.
pub fn all_ids(t: &Tangle) -> Vec<TxId> {
    let mut ids: Vec<TxId> = t.iter().map(|tx| tx.id()).collect();
    ids.sort();
    ids
}

/// The acceptance check: the replica holds the identical DAG — same
/// size (≥ 200 per the scenario contract), same tip set, and the same
/// cumulative weight for every transaction.
pub fn assert_converged(established: &SharedTangle, replica: &SharedTangle) {
    let ta = established.lock().unwrap();
    let tb = replica.lock().unwrap();
    assert!(ta.len() >= 200, "scenario too small: {} stored", ta.len());
    assert_eq!(ta.len(), tb.len(), "replica transaction count");
    assert_eq!(ta.tips(), tb.tips(), "tip sets differ");
    for id in all_ids(&ta) {
        assert!(tb.contains(&id), "replica missing {id:?}");
        assert_eq!(
            ta.cumulative_weight(&id),
            tb.cumulative_weight(&id),
            "cumulative weight of {id:?}"
        );
    }
}
