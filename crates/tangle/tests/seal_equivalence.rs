//! Property suite for the sealed-cone weight index.
//!
//! **Sealing is invisible.** Driving a sealed tangle and a never-sealed
//! mirror through identical attach/confirm/restore cycles must leave
//! them bit-for-bit identical on every observable — cumulative weights
//! (checked against the `cumulative_weight_recount` oracle), tips,
//! statuses, lengths, attach order — no matter where seals land in the
//! interleaving. The sealed entries are exactly the anchor's stored cone,
//! and a clone taken mid-schedule is a deep copy the original's later
//! mutations never reach.

use biot_tangle::graph::Tangle;
use biot_tangle::tx::{NodeId, Payload, TransactionBuilder, TxId};
use biot_tangle::TangleSnapshot;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// One step of the randomized life cycle.
#[derive(Clone, Debug)]
enum Op {
    /// Attach a transaction whose parents are drawn (by index) from
    /// everything attached so far.
    Attach(usize, usize, u8),
    /// Attach a transaction whose parents are drawn (by index) from the
    /// wide pool of recent transactions with fewer than two approvers —
    /// the shape honest light clients produce, whose ancestor cones stay
    /// wide and mostly unsealed.
    AttachWide(usize, usize, u8),
    /// Confirm everything at or above the weight threshold.
    Confirm(u64),
    /// Seal the confirmed cone behind a recency lag (sealed tangle only —
    /// the mirror never seals; that is the point).
    Seal(usize),
    /// Round-trip the sealed tangle through capture/restore (which
    /// deliberately drops seal state — restore replays attaches).
    Restore,
    /// Fold the sealed tangle's sealed region back into its frontier.
    Unseal,
    /// Clone both tangles; later ops mutate only the originals, and the
    /// sealed clone must keep matching its own unsealed mirror.
    Clone,
}

/// How many recent transactions the wide pool draws from.
const POOL_WIDTH: usize = 64;

/// The newest `POOL_WIDTH` stored transactions with fewer than two
/// approvers, newest first.
fn wide_pool(t: &Tangle) -> Vec<TxId> {
    t.attach_order()
        .iter()
        .rev()
        .filter(|id| t.approvers(id).len() < 2)
        .take(POOL_WIDTH)
        .copied()
        .collect()
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            4 => (0usize..200, 0usize..200, any::<u8>())
                .prop_map(|(a, b, p)| Op::Attach(a, b, p)),
            6 => (0usize..POOL_WIDTH, 0usize..POOL_WIDTH, any::<u8>())
                .prop_map(|(a, b, p)| Op::AttachWide(a, b, p)),
            2 => (2u64..6).prop_map(Op::Confirm),
            3 => (0usize..24).prop_map(Op::Seal),
            1 => Just(Op::Restore),
            1 => Just(Op::Unseal),
            1 => Just(Op::Clone),
        ],
        1..90,
    )
}

/// Every observable of `sealed` equals the never-sealed `plain`, and the
/// maintained weight index equals the recount oracle on both.
fn assert_equivalent(sealed: &Tangle, plain: &Tangle, at: &str) {
    assert_eq!(sealed.len(), plain.len(), "{at}: len");
    assert_eq!(sealed.attach_order(), plain.attach_order(), "{at}: attach order");
    assert_eq!(sealed.tips(), plain.tips(), "{at}: tips");
    for tx in plain.iter() {
        let id = tx.id();
        let fast = sealed.cumulative_weight(&id);
        assert_eq!(
            fast,
            sealed.cumulative_weight_recount(&id),
            "{at}: sealed index drifted from its own recount oracle on {id:?}"
        );
        assert_eq!(
            fast,
            plain.cumulative_weight(&id),
            "{at}: sealed weight diverged from the unsealed mirror on {id:?}"
        );
        assert_eq!(sealed.status(&id), plain.status(&id), "{at}: status of {id:?}");
    }
    assert_sealed_set(sealed, at);
}

/// The sealed and frontier counts partition the stored entries, and the
/// entries `is_sealed` reports are exactly the seal anchor and its stored
/// ancestors (none without an anchor).
fn assert_sealed_set(t: &Tangle, at: &str) {
    assert_eq!(t.sealed_len() + t.frontier_len(), t.len(), "{at}: sealed + frontier");
    let expect: HashSet<TxId> = t
        .seal_anchor()
        .map(|a| t.ancestors(&a).into_iter().chain([a]).collect())
        .unwrap_or_default();
    assert_eq!(t.sealed_len(), expect.len(), "{at}: sealed_len");
    for tx in t.iter() {
        let id = tx.id();
        assert_eq!(t.is_sealed(&id), expect.contains(&id), "{at}: is_sealed({id:?})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sealed_lifecycle_is_bit_identical_to_unsealed_mirror(ops in ops_strategy()) {
        let mut sealed = Tangle::new();
        let mut plain = Tangle::new();
        let genesis = sealed.attach_genesis(NodeId([0; 32]), 0);
        plain.attach_genesis(NodeId([0; 32]), 0);
        let mut attached = vec![genesis];
        // The last `Op::Clone`'s copies of (sealed, plain).
        let mut frozen: Option<(Tangle, Tangle)> = None;

        for (i, op) in ops.iter().enumerate() {
            let clock = i as u64 + 1;
            match op {
                Op::Attach(a, b, payload) | Op::AttachWide(a, b, payload) => {
                    let (trunk, branch) = if matches!(op, Op::AttachWide(..)) {
                        let pool = wide_pool(&plain);
                        (pool[a % pool.len()], pool[b % pool.len()])
                    } else {
                        (attached[a % attached.len()], attached[b % attached.len()])
                    };
                    let tx = TransactionBuilder::new(NodeId([(i % 13) as u8 + 1; 32]))
                        .parents(trunk, branch)
                        .payload(Payload::Data(vec![*payload, i as u8]))
                        .timestamp_ms(clock)
                        .build();
                    let r_sealed = sealed.attach(tx.clone(), clock);
                    let r_plain = plain.attach(tx, clock);
                    prop_assert_eq!(
                        r_sealed.is_ok(),
                        r_plain.is_ok(),
                        "op {}: admission must not depend on sealing", i
                    );
                    if let Ok(id) = r_sealed {
                        attached.push(id);
                    }
                }
                Op::Confirm(threshold) => {
                    let a = sealed.confirm_with_threshold(*threshold);
                    let b = plain.confirm_with_threshold(*threshold);
                    // Attach order is random against id order, and restores
                    // confirm row by row: neither may reorder the output.
                    prop_assert!(
                        a.windows(2).all(|w| w[0] < w[1]),
                        "op {}: confirmations not in ascending id order", i
                    );
                    prop_assert_eq!(a, b, "op {}: confirmation sets differ", i);
                }
                Op::Seal(lag) => {
                    sealed.seal_frontier(*lag);
                }
                Op::Restore => {
                    sealed = TangleSnapshot::capture(&sealed)
                        .restore()
                        .expect("captured state restores");
                }
                Op::Unseal => sealed.unseal_all(),
                Op::Clone => frozen = Some((sealed.clone(), plain.clone())),
            }
            let at = format!("after op {i} ({op:?})");
            assert_equivalent(&sealed, &plain, &at);
            if let Some((sealed_clone, plain_clone)) = &frozen {
                assert_equivalent(sealed_clone, plain_clone, &format!("clone, {at}"));
            }
        }
        // Ending with a full seal of whatever is confirmed, then a final
        // audit, catches drift that only a trailing seal would expose.
        sealed.seal_frontier(0);
        assert_equivalent(&sealed, &plain, "after trailing seal");
    }
}

/// `confirm_with_threshold` answers in ascending id order through the
/// two things that reorder its pending list: attaches in an order
/// unrelated to id order, and a restore that confirms rows as it
/// re-attaches them. A never-sealed mirror built by plain attaches must
/// agree at each step.
#[test]
fn confirmations_stay_in_id_order_across_restore() {
    let mut rng = StdRng::seed_from_u64(0xC0F1);
    let mut t = Tangle::new();
    let mut mirror = Tangle::new();
    t.attach_genesis(NodeId([0; 32]), 0);
    mirror.attach_genesis(NodeId([0; 32]), 0);
    let mut clock = 0u64;
    for round in 0..12 {
        for _ in 0..20 {
            clock += 1;
            let pool = wide_pool(&t);
            let tx = TransactionBuilder::new(NodeId([(clock % 7) as u8 + 1; 32]))
                .parents(pool[rng.gen_range(0..pool.len())], pool[rng.gen_range(0..pool.len())])
                .payload(Payload::Data(clock.to_be_bytes().to_vec()))
                .timestamp_ms(clock)
                .build();
            t.attach(tx.clone(), clock).expect("parents stored");
            mirror.attach(tx, clock).expect("parents stored");
        }
        let a = t.confirm_with_threshold(3);
        let b = mirror.confirm_with_threshold(3);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "round {round}: not ascending");
        assert_eq!(a, b, "round {round}: confirmation sets differ");
        if round % 3 == 1 {
            // Restore confirms row by row, then the next round confirms
            // what was still pending.
            t = TangleSnapshot::capture(&t).restore().expect("captured state restores");
        }
    }
}
