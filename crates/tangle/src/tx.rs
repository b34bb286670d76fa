//! Transactions: the unit of the DAG-structured ledger.
//!
//! In a tangle (paper §II-B) there are no blocks: every transaction is an
//! individual vertex that approves exactly two earlier transactions (its
//! *parents*, called trunk and branch). A transaction's identifier is the
//! SHA-256 hash of its canonical encoding, so any mutation changes the id
//! and detaches it from its approvers — the tamper-evidence the paper
//! relies on.

use biot_crypto::sha256::{to_hex, Sha256};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A 32-byte transaction identifier (SHA-256 of the canonical encoding).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TxId(pub [u8; 32]);

impl TxId {
    /// The all-zero id, reserved for the genesis transaction's parents.
    pub const GENESIS_PARENT: TxId = TxId([0u8; 32]);

    /// Returns the raw bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Short hex form (first 8 bytes) for logs and reports.
    pub fn short_hex(&self) -> String {
        to_hex(&self.0[..8])
    }
}

impl fmt::Debug for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TxId({})", self.short_hex())
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", to_hex(&self.0))
    }
}

/// A 32-byte node identifier (public-key fingerprint).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub [u8; 32]);

impl NodeId {
    /// Short hex form (first 8 bytes) for logs and reports.
    pub fn short_hex(&self) -> String {
        to_hex(&self.0[..8])
    }

    /// Returns the raw bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({})", self.short_hex())
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.short_hex())
    }
}

/// What a transaction carries.
///
/// The smart-factory case study needs plain sensor readings (possibly
/// encrypted), manager control messages, and token spends (the
/// double-spending threat model).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Payload {
    /// A sensor reading or other opaque application data.
    Data(Vec<u8>),
    /// AES-encrypted sensitive data (ciphertext plus IV), from the data
    /// authority management method (§IV-C).
    EncryptedData {
        /// CBC initialization vector.
        iv: [u8; 16],
        /// AES-CBC ciphertext.
        ciphertext: Vec<u8>,
    },
    /// Spend of a token — the conflict unit for double-spend detection.
    Spend {
        /// Identifier of the token being spent.
        token: [u8; 32],
        /// Recipient of the token.
        to: NodeId,
    },
    /// Manager-signed authorization list update (Eqn 1): the set of device
    /// public-key fingerprints currently authorized.
    AuthList {
        /// Authorized device identities.
        devices: Vec<NodeId>,
        /// Signature by the manager's secret key over the device list.
        signature: Vec<u8>,
    },
}

impl Payload {
    /// Hands the canonical bytes to `sink` piece by piece, without
    /// joining them: the one definition of the encoding that
    /// [`canonical_bytes`](Self::canonical_bytes), [`len`](Self::len) and
    /// the transaction id all read.
    fn canonical_pieces(&self, mut sink: impl FnMut(&[u8])) {
        match self {
            Payload::Data(d) => {
                sink(&[0]);
                sink(d);
            }
            Payload::EncryptedData { iv, ciphertext } => {
                sink(&[1]);
                sink(iv);
                sink(ciphertext);
            }
            Payload::Spend { token, to } => {
                sink(&[2]);
                sink(token);
                sink(&to.0);
            }
            Payload::AuthList { devices, signature } => {
                sink(&[3]);
                for d in devices {
                    sink(&d.0);
                }
                sink(&[0xFF]);
                sink(signature);
            }
        }
    }

    /// Canonical bytes hashed into the transaction id.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        self.canonical_pieces(|piece| out.extend_from_slice(piece));
        out
    }

    /// SHA-256 of [`canonical_bytes`](Self::canonical_bytes), streamed.
    fn digest(&self) -> [u8; 32] {
        let mut h = Sha256::new();
        self.canonical_pieces(|piece| {
            h.update(piece);
        });
        h.finalize()
    }

    /// Approximate serialized size in bytes (for throughput accounting).
    pub fn len(&self) -> usize {
        let mut n = 0;
        self.canonical_pieces(|piece| n += piece.len());
        n
    }

    /// Returns true for zero-length data payloads.
    pub fn is_empty(&self) -> bool {
        matches!(self, Payload::Data(d) if d.is_empty())
    }
}

/// A transaction vertex in the tangle.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transaction {
    /// Issuing node (public-key fingerprint).
    pub issuer: NodeId,
    /// First approved parent (trunk).
    pub trunk: TxId,
    /// Second approved parent (branch). May equal `trunk` only for lazy /
    /// degenerate issuers; honest nodes select distinct tips when possible.
    pub branch: TxId,
    /// Application payload.
    pub payload: Payload,
    /// Issue time in virtual milliseconds.
    pub timestamp_ms: u64,
    /// PoW nonce satisfying the issuer's current difficulty (Eqn 6).
    pub nonce: u64,
    /// Issuer's signature over [`Transaction::signing_bytes`]; empty in
    /// unit tests that don't exercise identity.
    pub signature: Vec<u8>,
}

/// Length of [`Transaction::pow_preimage`]: issuer, trunk, branch, payload
/// digest and the 8-byte timestamp.
const POW_PREIMAGE_LEN: usize = 4 * 32 + 8;

impl Transaction {
    /// Hands the PoW pre-image to `sink` piece by piece: the one
    /// definition of the encoding that [`pow_preimage`](Self::pow_preimage),
    /// [`signing_bytes`](Self::signing_bytes) and [`id`](Self::id) read.
    fn preimage_pieces(&self, mut sink: impl FnMut(&[u8])) {
        sink(&self.issuer.0);
        sink(&self.trunk.0);
        sink(&self.branch.0);
        sink(&self.payload.digest());
        sink(&self.timestamp_ms.to_be_bytes());
    }

    /// Canonical encoding of everything except the nonce and signature —
    /// the PoW pre-image per Eqn 6 hashes this together with the nonce.
    pub fn pow_preimage(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(POW_PREIMAGE_LEN);
        self.preimage_pieces(|piece| out.extend_from_slice(piece));
        out
    }

    /// Bytes covered by the issuer's signature (everything except the
    /// signature itself).
    pub fn signing_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(POW_PREIMAGE_LEN + 8);
        self.preimage_pieces(|piece| out.extend_from_slice(piece));
        out.extend_from_slice(&self.nonce.to_be_bytes());
        out
    }

    /// Computes the transaction id: SHA-256 over the signed encoding, fed
    /// to the hasher field by field. The same digest is the Eqn 6 PoW
    /// hash and the digest the issuer signs.
    pub fn id(&self) -> TxId {
        let mut h = Sha256::new();
        self.preimage_pieces(|piece| {
            h.update(piece);
        });
        h.update(&self.nonce.to_be_bytes());
        TxId(h.finalize())
    }

    /// The two parents as an array `[trunk, branch]`.
    pub fn parents(&self) -> [TxId; 2] {
        [self.trunk, self.branch]
    }

    /// True when this transaction is its own genesis (both parents zero).
    pub fn is_genesis(&self) -> bool {
        self.trunk == TxId::GENESIS_PARENT && self.branch == TxId::GENESIS_PARENT
    }
}

/// A shared transaction body together with its id.
///
/// The id is the SHA-256 that admission checks the PoW and the signature
/// against and every attach stores the body under, so a node derives it
/// once, when the transaction reaches it, and hands this value along.
/// Only two things build one: hashing the body (`From<Transaction>`,
/// `From<Arc<Transaction>>`) and a tangle pairing a stored body with the
/// id it is stored under. No caller can supply a stale or forged id.
#[derive(Clone, Debug)]
pub struct IdentifiedTx {
    id: TxId,
    tx: Arc<Transaction>,
}

impl IdentifiedTx {
    /// Pairs a body with the id a tangle stores it under.
    pub(crate) fn stored(id: TxId, tx: Arc<Transaction>) -> Self {
        Self { id, tx }
    }

    /// The transaction id.
    pub fn id(&self) -> TxId {
        self.id
    }

    /// Splits into the id and the shared body.
    pub fn into_parts(self) -> (TxId, Arc<Transaction>) {
        (self.id, self.tx)
    }
}

impl std::ops::Deref for IdentifiedTx {
    type Target = Transaction;

    fn deref(&self) -> &Transaction {
        &self.tx
    }
}

impl From<Arc<Transaction>> for IdentifiedTx {
    fn from(tx: Arc<Transaction>) -> Self {
        Self { id: tx.id(), tx }
    }
}

impl From<Transaction> for IdentifiedTx {
    fn from(tx: Transaction) -> Self {
        Arc::new(tx).into()
    }
}

/// Builder for [`Transaction`] values.
///
/// # Examples
///
/// ```
/// use biot_tangle::tx::{NodeId, Payload, TransactionBuilder, TxId};
///
/// let tx = TransactionBuilder::new(NodeId([1; 32]))
///     .parents(TxId([2; 32]), TxId([3; 32]))
///     .payload(Payload::Data(b"reading".to_vec()))
///     .timestamp_ms(1000)
///     .nonce(42)
///     .build();
/// assert_eq!(tx.timestamp_ms, 1000);
/// ```
#[derive(Debug, Clone)]
pub struct TransactionBuilder {
    issuer: NodeId,
    trunk: TxId,
    branch: TxId,
    payload: Payload,
    timestamp_ms: u64,
    nonce: u64,
    signature: Vec<u8>,
}

impl TransactionBuilder {
    /// Starts a builder for a transaction issued by `issuer`.
    pub fn new(issuer: NodeId) -> Self {
        Self {
            issuer,
            trunk: TxId::GENESIS_PARENT,
            branch: TxId::GENESIS_PARENT,
            payload: Payload::Data(Vec::new()),
            timestamp_ms: 0,
            nonce: 0,
            signature: Vec::new(),
        }
    }

    /// Sets the approved parents (trunk, branch).
    pub fn parents(mut self, trunk: TxId, branch: TxId) -> Self {
        self.trunk = trunk;
        self.branch = branch;
        self
    }

    /// Sets the payload.
    pub fn payload(mut self, payload: Payload) -> Self {
        self.payload = payload;
        self
    }

    /// Sets the issue timestamp in virtual milliseconds.
    pub fn timestamp_ms(mut self, ts: u64) -> Self {
        self.timestamp_ms = ts;
        self
    }

    /// Sets the PoW nonce.
    pub fn nonce(mut self, nonce: u64) -> Self {
        self.nonce = nonce;
        self
    }

    /// Sets the issuer signature.
    pub fn signature(mut self, sig: Vec<u8>) -> Self {
        self.signature = sig;
        self
    }

    /// Finishes the transaction.
    pub fn build(self) -> Transaction {
        Transaction {
            issuer: self.issuer,
            trunk: self.trunk,
            branch: self.branch,
            payload: self.payload,
            timestamp_ms: self.timestamp_ms,
            nonce: self.nonce,
            signature: self.signature,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tx() -> Transaction {
        TransactionBuilder::new(NodeId([1; 32]))
            .parents(TxId([2; 32]), TxId([3; 32]))
            .payload(Payload::Data(b"hello".to_vec()))
            .timestamp_ms(123)
            .nonce(7)
            .build()
    }

    #[test]
    fn id_is_deterministic() {
        assert_eq!(sample_tx().id(), sample_tx().id());
    }

    #[test]
    fn id_changes_with_every_field() {
        let base = sample_tx();
        let mut variants = Vec::new();
        let mut t = base.clone();
        t.issuer = NodeId([9; 32]);
        variants.push(t);
        let mut t = base.clone();
        t.trunk = TxId([9; 32]);
        variants.push(t);
        let mut t = base.clone();
        t.branch = TxId([9; 32]);
        variants.push(t);
        let mut t = base.clone();
        t.payload = Payload::Data(b"tampered".to_vec());
        variants.push(t);
        let mut t = base.clone();
        t.timestamp_ms = 124;
        variants.push(t);
        let mut t = base.clone();
        t.nonce = 8;
        variants.push(t);
        for v in variants {
            assert_ne!(v.id(), base.id());
        }
    }

    #[test]
    fn signature_not_part_of_id() {
        let mut t = sample_tx();
        let id = t.id();
        t.signature = vec![1, 2, 3];
        assert_eq!(t.id(), id, "signature must not affect the id");
    }

    #[test]
    fn genesis_detection() {
        let g = TransactionBuilder::new(NodeId([0; 32])).build();
        assert!(g.is_genesis());
        assert!(!sample_tx().is_genesis());
    }

    #[test]
    fn payload_canonical_bytes_distinguish_variants() {
        let a = Payload::Data(vec![1, 2, 3]).canonical_bytes();
        let b = Payload::Spend {
            token: [0; 32],
            to: NodeId([0; 32]),
        }
        .canonical_bytes();
        assert_ne!(a, b);
        assert_ne!(a[0], b[0], "variant tags differ");
    }

    #[test]
    fn payload_len_and_empty() {
        assert!(Payload::Data(vec![]).is_empty());
        assert!(!Payload::Data(vec![1]).is_empty());
        assert_eq!(Payload::Data(vec![1, 2, 3]).len(), 4); // tag + 3
    }

    #[test]
    fn display_and_debug_forms() {
        let id = sample_tx().id();
        assert_eq!(format!("{id}").len(), 64);
        assert!(format!("{id:?}").starts_with("TxId("));
        let n = NodeId([0xAB; 32]);
        assert_eq!(n.short_hex(), "abababababababab");
    }

    /// One fixed transaction of each payload kind and the id it has
    /// always had: the id is the ledger's key, the PoW hash and the signed
    /// digest, so its input bytes may never change.
    #[test]
    fn ids_of_each_payload_kind_are_pinned() {
        let base = TransactionBuilder::new(NodeId([0x11; 32]))
            .parents(TxId([0x22; 32]), TxId([0x33; 32]))
            .timestamp_ms(1_700_000_000_123)
            .nonce(0x0102_0304_0506_0708)
            .signature(vec![0xEE; 64]);
        let cases = [
            (
                Payload::Data(b"temperature=21.5".to_vec()),
                "1035ffd6cf92baae1661df39b018cee1e1bf4bdbccd812703502b0288113e7b6",
            ),
            (
                Payload::Data(Vec::new()),
                "4fa8207fd1e4ddc2b589abe120d30808bcfee33b92a64e7444a0f6f88426a61f",
            ),
            (
                Payload::EncryptedData {
                    iv: [0x44; 16],
                    ciphertext: vec![0x55; 48],
                },
                "d6fdb97c7ecc1adbb8f88f39ae97ef5e908b73804f8fa4bb142255687bb38e17",
            ),
            (
                Payload::Spend {
                    token: [0x66; 32],
                    to: NodeId([0x77; 32]),
                },
                "8f88978d69c1f21edfc8c3c7a904300799b7078efd86e7030ab8a82a55e07681",
            ),
            (
                Payload::AuthList {
                    devices: vec![NodeId([0x88; 32]), NodeId([0x99; 32])],
                    signature: vec![0xAA; 64],
                },
                "926a68ae69c1c63f11aa21af5927a005b87d182a9b0c9d00b3de18cce978e2fa",
            ),
        ];
        for (payload, want) in cases {
            let tx = base.clone().payload(payload.clone()).build();
            assert_eq!(tx.id().to_string(), want, "{payload:?}");
        }
    }

    #[test]
    fn pow_preimage_excludes_nonce() {
        let mut t = sample_tx();
        let pre = t.pow_preimage();
        t.nonce = 999;
        assert_eq!(t.pow_preimage(), pre);
        assert_ne!(t.signing_bytes(), pre);
    }
}
