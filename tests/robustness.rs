//! Adversarial-input robustness: a gateway exposed to arbitrary
//! transactions (random fields, garbage signatures, phantom parents) must
//! reject them with errors — never panic, never corrupt its ledger.

use biot::core::difficulty::InverseProportionalPolicy;
use biot::core::identity::Account;
use biot::core::node::{Gateway, GatewayConfig, LightNode, Manager};
use biot::net::time::SimTime;
use biot::tangle::codec::decode_tx;
use biot::tangle::tx::{NodeId, Payload, Transaction, TxId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, OnceLock};

/// A booted gateway world, built once (RSA keygen is slow) and reused
/// behind a mutex across proptest cases.
struct World {
    gateway: Gateway,
    device_id: NodeId,
    baseline_len: usize,
}

fn world() -> &'static Mutex<World> {
    static WORLD: OnceLock<Mutex<World>> = OnceLock::new();
    WORLD.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xF00D);
        let mut manager = Manager::new(Account::generate(&mut rng));
        let device = LightNode::new(Account::generate(&mut rng));
        let (gateway, _) = Gateway::bootstrap(
            &mut manager,
            Box::new(InverseProportionalPolicy::default()),
            GatewayConfig::default(),
            [device.public_key()],
        );
        let baseline_len = gateway.tangle().len();
        Mutex::new(World {
            gateway,
            device_id: device.id(),
            baseline_len,
        })
    })
}

fn arbitrary_payload() -> impl Strategy<Value = Payload> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Payload::Data),
        (proptest::array::uniform16(any::<u8>()), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(iv, ciphertext)| Payload::EncryptedData { iv, ciphertext }),
        (proptest::array::uniform32(any::<u8>()), proptest::array::uniform32(any::<u8>()))
            .prop_map(|(token, to)| Payload::Spend { token, to: NodeId(to) }),
        (
            proptest::collection::vec(proptest::array::uniform32(any::<u8>()), 0..4),
            proptest::collection::vec(any::<u8>(), 0..64)
        )
            .prop_map(|(devs, signature)| Payload::AuthList {
                devices: devs.into_iter().map(NodeId).collect(),
                signature,
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary transactions never panic the gateway and never land on
    /// the ledger (they fail admission, signature, or PoW first).
    #[test]
    fn garbage_submissions_are_rejected_not_fatal(
        issuer in proptest::array::uniform32(any::<u8>()),
        trunk in proptest::array::uniform32(any::<u8>()),
        branch in proptest::array::uniform32(any::<u8>()),
        payload in arbitrary_payload(),
        ts in any::<u64>(),
        nonce in any::<u64>(),
        sig in proptest::collection::vec(any::<u8>(), 0..96),
        use_real_issuer in any::<bool>(),
    ) {
        let mut w = world().lock().unwrap();
        let issuer = if use_real_issuer {
            w.device_id // authorized, but the signature is garbage
        } else {
            NodeId(issuer)
        };
        let tx = Transaction {
            issuer,
            trunk: TxId(trunk),
            branch: TxId(branch),
            payload,
            timestamp_ms: ts,
            nonce,
            signature: sig,
        };
        let before = w.gateway.tangle().len();
        let result = w.gateway.submit(tx, SimTime::from_secs(1));
        prop_assert!(result.is_err(), "garbage must never be accepted");
        prop_assert_eq!(w.gateway.tangle().len(), before, "ledger unchanged");
        prop_assert_eq!(before, w.baseline_len);
    }

    /// Random bytes fed to the wire decoder and then (when they parse) to
    /// the gateway still cannot corrupt anything.
    #[test]
    fn wire_garbage_cannot_reach_the_ledger(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        if let Ok(tx) = decode_tx(&bytes) {
            let mut w = world().lock().unwrap();
            let before = w.gateway.tangle().len();
            let _ = w.gateway.submit(tx, SimTime::from_secs(1));
            prop_assert_eq!(w.gateway.tangle().len(), before);
        }
    }
}
