//! Seeded oracle suite: across randomized seeds, one mixed-role fleet on
//! the event loop must converge bit-for-bit to its oracle twin — the
//! single gateway fed the same light submissions up front. Each case
//! checks the archival fingerprint against the twin's (`run_roles`
//! panics on a mismatch), convergence, the validation node's replay, the
//! HTTP socket bytes, and that deadline-hopping stays within four
//! wakeups per scripted step.

use biot_sim::mesh::STEP_MS;
use biot_sim::roles::{run_roles, RolesConfig};
use proptest::prelude::*;

fn small(seed: u64) -> RolesConfig {
    RolesConfig {
        nodes: 8,
        degree: 4,
        txs: 30,
        payload_bytes: 32,
        credit_events: 10,
        light_clients: 1,
        light_txs_each: 3,
        light_batch: 1,
        seed,
    }
}

proptest! {
    // Each case is one full fleet run, TCP probes included.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fleets_match_the_oracle_twin(seed in 0u64..10_000) {
        let out = run_roles(&small(seed));
        prop_assert!(out.converged, "fleet must converge (seed {seed})");
        prop_assert!(!out.fingerprint.is_empty());
        prop_assert!(out.replay_ok, "replay diverged (seed {seed})");
        prop_assert_eq!(out.http_mismatches, 0);
        let steps = out.converged_ms / STEP_MS + 1;
        prop_assert!(out.rounds < 4 * steps,
            "{} wakeups over {} steps (seed {})", out.rounds, steps, seed);
    }
}
