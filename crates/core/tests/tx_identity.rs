//! A transaction's id, its Eqn 6 PoW hash and the digest its issuer signs
//! are one SHA-256. Admission checks the PoW and the signature against
//! the id, so these identities must hold for every payload kind and nonce.

use biot_core::pow::pow_hash;
use biot_crypto::sha256::sha256;
use biot_tangle::tx::{IdentifiedTx, NodeId, Payload, Transaction, TransactionBuilder, TxId};
use proptest::prelude::*;
use std::sync::Arc;

/// A payload of kind `kind % 4` built from `bytes`, so lengths straddle
/// the SHA-256 block boundaries.
fn payload(kind: u8, bytes: Vec<u8>) -> Payload {
    let fill = |b: u8| [b; 32];
    match kind % 4 {
        0 => Payload::Data(bytes),
        1 => Payload::EncryptedData {
            iv: [kind; 16],
            ciphertext: bytes,
        },
        2 => Payload::Spend {
            token: fill(bytes.len() as u8),
            to: NodeId(fill(kind)),
        },
        _ => Payload::AuthList {
            devices: bytes.iter().take(5).map(|&b| NodeId(fill(b))).collect(),
            signature: bytes,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn id_is_the_pow_hash_and_the_signed_digest(
        kind in any::<u8>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
        parents in (any::<u8>(), any::<u8>(), any::<u8>()),
        timestamp_ms in any::<u64>(),
        nonce in any::<u64>(),
    ) {
        let (issuer, trunk, branch) = parents;
        let tx: Transaction = TransactionBuilder::new(NodeId([issuer; 32]))
            .parents(TxId([trunk; 32]), TxId([branch; 32]))
            .payload(payload(kind, bytes))
            .timestamp_ms(timestamp_ms)
            .nonce(nonce)
            .signature(vec![kind; 64])
            .build();
        let id = tx.id();
        prop_assert_eq!(pow_hash(&tx.pow_preimage(), tx.nonce), id.0);
        prop_assert_eq!(sha256(&tx.signing_bytes()), id.0);
        prop_assert_eq!(tx.payload.len(), tx.payload.canonical_bytes().len());
        prop_assert_eq!(IdentifiedTx::from(Arc::new(tx.clone())).id(), id);
        prop_assert_eq!(IdentifiedTx::from(tx).id(), id);
    }
}
