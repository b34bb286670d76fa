//! Randomized-DAG equivalence suite for the O(walk)-cost tip selection.
//!
//! The indexed fast paths (weights from [`Tangle::cumulative_weight`],
//! starts from the attach order) must be **bit-for-bit** identical to the
//! legacy `select_tips_recount` oracles (full weight-map rebuild plus
//! collect-and-sort per selection): both run the same walk code and
//! consume the caller's RNG identically, so with equal seeds they must
//! return the exact same tip pair — across attach, confirm and seal
//! cycles. A divergence means the maintained indices drifted from the
//! ground truth.

use biot_tangle::graph::Tangle;
use biot_tangle::tips::{DepthConstrainedSelector, TipSelector, WeightedMcmcSelector};
use biot_tangle::tx::{NodeId, Payload, TransactionBuilder, TxId};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Attaches `n` random transactions: parents drawn from current tips
/// (usually) or any stored transaction (sometimes), timestamps advancing
/// from `t0`. Mirrors the growth model of the graph-internal index tests.
fn grow_random(tangle: &mut Tangle, rng: &mut StdRng, n: usize, t0: u64) {
    for i in 0..n {
        let stored: Vec<TxId> = tangle.iter().map(|tx| tx.id()).collect();
        let tips = tangle.tips();
        let pick = |rng: &mut StdRng| -> TxId {
            if rng.gen_range(0..4u32) == 0 {
                stored[rng.gen_range(0..stored.len())]
            } else {
                tips[rng.gen_range(0..tips.len())]
            }
        };
        let (a, b) = (pick(rng), pick(rng));
        let ts = t0 + i as u64 + 1;
        let tx = TransactionBuilder::new(NodeId([(i % 23) as u8 + 1; 32]))
            .parents(a, b)
            .payload(Payload::Data(vec![i as u8, (t0 % 251) as u8]))
            .timestamp_ms(ts)
            .nonce(t0 + i as u64)
            .build();
        tangle.attach(tx, ts).expect("parents are stored");
    }
}

/// Runs `checkpoint` against a tangle at several points of an
/// attach → confirm → seal life cycle.
fn with_lifecycle_checkpoints(seed: u64, mut checkpoint: impl FnMut(&Tangle, u64)) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tangle = Tangle::new();
    tangle.attach_genesis(NodeId([0; 32]), 0);
    let mut clock = 0u64;
    for round in 0..3u64 {
        grow_random(&mut tangle, &mut rng, 40, clock);
        clock += 41;
        checkpoint(&tangle, seed * 100 + round);
        tangle.confirm_with_threshold(3);
        tangle.seal_frontier(8);
        checkpoint(&tangle, seed * 100 + round + 50);
    }
}

#[test]
fn weighted_indexed_path_matches_recount_oracle() {
    for seed in 0..6u64 {
        with_lifecycle_checkpoints(seed, |tangle, tag| {
            for alpha in [0.0, 0.3, 5.0] {
                let sel = WeightedMcmcSelector::new(alpha);
                let mut fast_rng = StdRng::seed_from_u64(tag ^ 0xABCD);
                let mut slow_rng = StdRng::seed_from_u64(tag ^ 0xABCD);
                for draw in 0..5 {
                    let fast = sel.select_tips(tangle, &mut fast_rng);
                    let slow = sel.select_tips_recount(tangle, &mut slow_rng);
                    assert_eq!(
                        fast, slow,
                        "weighted divergence: seed tag {tag}, alpha {alpha}, draw {draw}"
                    );
                    // Identical RNG consumption too, not just identical pairs.
                    assert_eq!(fast_rng.next_u64(), slow_rng.next_u64());
                }
            }
        });
    }
}

#[test]
fn depth_constrained_indexed_path_matches_recount_oracle() {
    for seed in 0..6u64 {
        with_lifecycle_checkpoints(seed, |tangle, tag| {
            for window in [1usize, 8, 64] {
                let sel = DepthConstrainedSelector::new(0.4, window);
                let mut fast_rng = StdRng::seed_from_u64(tag ^ 0x5EED);
                let mut slow_rng = StdRng::seed_from_u64(tag ^ 0x5EED);
                for draw in 0..5 {
                    let fast = sel.select_tips(tangle, &mut fast_rng);
                    let slow = sel.select_tips_recount(tangle, &mut slow_rng);
                    assert_eq!(
                        fast, slow,
                        "depth-constrained divergence: tag {tag}, window {window}, draw {draw}"
                    );
                    assert_eq!(fast_rng.next_u64(), slow_rng.next_u64());
                }
            }
        });
    }
}
