//! Binary wire format for transactions.
//!
//! Gateways gossip transactions between replicas and checkpoint them to
//! disk; both need a compact, versioned, checksummed encoding that does
//! not depend on a self-describing format. The layout is:
//!
//! ```text
//! u8    format version (currently 1)
//! u8    payload tag
//! [u8]  issuer (32), trunk (32), branch (32)
//! varint timestamp_ms, varint nonce
//! varint-length-prefixed payload fields (tag-specific)
//! varint-length-prefixed signature
//! [u8;4] checksum: first 4 bytes of SHA-256 over everything before it
//! ```
//!
//! Varints are LEB128 (7 bits per byte, high bit = continuation).
//! [`write_varint`] and [`read_varint`] are the one varint codec every
//! B-IoT format uses: this one, the gossip wire, the ingest protocol, the
//! credit-event codec and the store files.

use crate::tx::{NodeId, Payload, Transaction, TxId};
use biot_crypto::sha256::sha256;
use std::fmt;

/// Current format version.
pub const VERSION: u8 = 1;

/// Hard cap on any single declared field length (payload bytes, signature
/// bytes, auth-list device count). Checked **before** any allocation, so a
/// forged length in adversarial input — e.g. bytes arriving from a gossip
/// socket — can never drive `Vec::with_capacity` beyond this bound even if
/// the declared length happens to pass the structural checks.
pub const MAX_FIELD_BYTES: u64 = 1 << 24;

/// Errors from decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the structure was complete.
    UnexpectedEnd,
    /// Unknown format version byte.
    BadVersion(u8),
    /// Unknown payload tag.
    BadTag(u8),
    /// A varint encodes more than 64 bits.
    BadVarint,
    /// Checksum mismatch — corruption in transit or at rest.
    BadChecksum,
    /// Trailing bytes after a complete transaction.
    TrailingBytes(usize),
    /// A declared length exceeds the remaining input.
    BadLength(u64),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEnd => write!(f, "unexpected end of input"),
            CodecError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::BadTag(t) => write!(f, "unknown payload tag {t}"),
            CodecError::BadVarint => write!(f, "malformed varint"),
            CodecError::BadChecksum => write!(f, "checksum mismatch"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after transaction"),
            CodecError::BadLength(n) => write!(f, "declared length {n} exceeds input"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<VarintError> for CodecError {
    fn from(e: VarintError) -> Self {
        match e {
            VarintError::UnexpectedEnd => CodecError::UnexpectedEnd,
            VarintError::Overlong => CodecError::BadVarint,
        }
    }
}

// --- Varints ---------------------------------------------------------------

/// Why [`read_varint`] failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarintError {
    /// The input ended inside the varint.
    UnexpectedEnd,
    /// The varint encodes more than 64 bits: a tenth byte above 1.
    Overlong,
}

/// Appends `v` as an LEB128 varint (1–10 bytes).
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint at `*pos` and advances past it. Strict: a
/// tenth byte above 1 would carry bits past `u64`, so it is
/// [`VarintError::Overlong`] rather than silently truncated.
///
/// # Errors
///
/// See [`VarintError`].
pub fn read_varint(input: &[u8], pos: &mut usize) -> Result<u64, VarintError> {
    let mut value = 0u64;
    for i in 0..10 {
        let byte = *input.get(*pos).ok_or(VarintError::UnexpectedEnd)?;
        *pos += 1;
        if i == 9 && byte > 1 {
            return Err(VarintError::Overlong);
        }
        value |= u64::from(byte & 0x7F) << (7 * i);
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(VarintError::Overlong)
}

// --- Writer ----------------------------------------------------------------

/// Append-only byte writer with varint support.
#[derive(Debug, Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    fn varint(&mut self, v: u64) {
        write_varint(&mut self.buf, v);
    }

    fn len_prefixed(&mut self, v: &[u8]) {
        self.varint(v.len() as u64);
        self.bytes(v);
    }
}

// --- Reader ----------------------------------------------------------------

/// Cursor-based byte reader mirroring [`Writer`].
#[derive(Debug)]
struct Reader<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(input: &'a [u8]) -> Self {
        Self { input, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        let b = *self.input.get(self.pos).ok_or(CodecError::UnexpectedEnd)?;
        self.pos += 1;
        Ok(b)
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::UnexpectedEnd)?;
        let slice = self.input.get(self.pos..end).ok_or(CodecError::UnexpectedEnd)?;
        self.pos = end;
        Ok(slice)
    }

    fn array32(&mut self) -> Result<[u8; 32], CodecError> {
        let mut out = [0u8; 32];
        out.copy_from_slice(self.bytes(32)?);
        Ok(out)
    }

    fn array16(&mut self) -> Result<[u8; 16], CodecError> {
        let mut out = [0u8; 16];
        out.copy_from_slice(self.bytes(16)?);
        Ok(out)
    }

    fn varint(&mut self) -> Result<u64, CodecError> {
        Ok(read_varint(self.input, &mut self.pos)?)
    }

    fn len_prefixed(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.varint()?;
        // Cap first: `n as usize` must never feed an allocation or index
        // computation before this bound check (adversarial-input hardening).
        if n > MAX_FIELD_BYTES || n as usize > self.input.len() - self.pos {
            return Err(CodecError::BadLength(n));
        }
        self.bytes(n as usize)
    }

    fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }
}

// --- Encode / decode ---------------------------------------------------------

fn payload_tag(p: &Payload) -> u8 {
    match p {
        Payload::Data(_) => 0,
        Payload::EncryptedData { .. } => 1,
        Payload::Spend { .. } => 2,
        Payload::AuthList { .. } => 3,
    }
}

/// Encodes a transaction into the versioned, checksummed wire format.
///
/// # Examples
///
/// ```
/// use biot_tangle::codec::{decode_tx, encode_tx};
/// use biot_tangle::tx::{NodeId, Payload, TransactionBuilder};
///
/// let tx = TransactionBuilder::new(NodeId([1; 32]))
///     .payload(Payload::Data(b"reading".to_vec()))
///     .build();
/// let wire = encode_tx(&tx);
/// assert_eq!(decode_tx(&wire).unwrap(), tx);
/// ```
pub fn encode_tx(tx: &Transaction) -> Vec<u8> {
    let mut w = Writer::default();
    w.u8(VERSION);
    w.u8(payload_tag(&tx.payload));
    w.bytes(&tx.issuer.0);
    w.bytes(&tx.trunk.0);
    w.bytes(&tx.branch.0);
    w.varint(tx.timestamp_ms);
    w.varint(tx.nonce);
    match &tx.payload {
        Payload::Data(d) => w.len_prefixed(d),
        Payload::EncryptedData { iv, ciphertext } => {
            w.bytes(iv);
            w.len_prefixed(ciphertext);
        }
        Payload::Spend { token, to } => {
            w.bytes(token);
            w.bytes(&to.0);
        }
        Payload::AuthList { devices, signature } => {
            w.varint(devices.len() as u64);
            for d in devices {
                w.bytes(&d.0);
            }
            w.len_prefixed(signature);
        }
    }
    w.len_prefixed(&tx.signature);
    let checksum = sha256(&w.buf);
    w.bytes(&checksum[..4]);
    w.buf
}

/// Decodes a transaction, validating version, structure, and checksum.
///
/// # Errors
///
/// Any [`CodecError`]; corrupted or truncated input never panics.
pub fn decode_tx(input: &[u8]) -> Result<Transaction, CodecError> {
    if input.len() < 4 {
        return Err(CodecError::UnexpectedEnd);
    }
    let (body, checksum) = input.split_at(input.len() - 4);
    if &sha256(body)[..4] != checksum {
        return Err(CodecError::BadChecksum);
    }
    let mut r = Reader::new(body);
    let version = r.u8()?;
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let tag = r.u8()?;
    let issuer = NodeId(r.array32()?);
    let trunk = TxId(r.array32()?);
    let branch = TxId(r.array32()?);
    let timestamp_ms = r.varint()?;
    let nonce = r.varint()?;
    let payload = match tag {
        0 => Payload::Data(r.len_prefixed()?.to_vec()),
        1 => Payload::EncryptedData {
            iv: r.array16()?,
            ciphertext: r.len_prefixed()?.to_vec(),
        },
        2 => Payload::Spend {
            token: r.array32()?,
            to: NodeId(r.array32()?),
        },
        3 => {
            let n = r.varint()?;
            if n > MAX_FIELD_BYTES || n > (r.remaining() / 32) as u64 {
                return Err(CodecError::BadLength(n));
            }
            let mut devices = Vec::with_capacity(n as usize);
            for _ in 0..n {
                devices.push(NodeId(r.array32()?));
            }
            Payload::AuthList {
                devices,
                signature: r.len_prefixed()?.to_vec(),
            }
        }
        t => return Err(CodecError::BadTag(t)),
    };
    let signature = r.len_prefixed()?.to_vec();
    if r.remaining() != 0 {
        return Err(CodecError::TrailingBytes(r.remaining()));
    }
    Ok(Transaction {
        issuer,
        trunk,
        branch,
        payload,
        timestamp_ms,
        nonce,
        signature,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::TransactionBuilder;
    use proptest::prelude::*;

    fn sample(payload: Payload) -> Transaction {
        TransactionBuilder::new(NodeId([7; 32]))
            .parents(TxId([1; 32]), TxId([2; 32]))
            .payload(payload)
            .timestamp_ms(123_456_789)
            .nonce(987_654_321)
            .signature(vec![9; 64])
            .build()
    }

    #[test]
    fn roundtrip_all_payload_kinds() {
        let payloads = [
            Payload::Data(b"temp=21".to_vec()),
            Payload::Data(Vec::new()),
            Payload::EncryptedData {
                iv: [3; 16],
                ciphertext: vec![0xAB; 48],
            },
            Payload::Spend {
                token: [5; 32],
                to: NodeId([6; 32]),
            },
            Payload::AuthList {
                devices: vec![NodeId([1; 32]), NodeId([2; 32])],
                signature: vec![4; 64],
            },
            Payload::AuthList {
                devices: Vec::new(),
                signature: Vec::new(),
            },
        ];
        for p in payloads {
            let tx = sample(p);
            let wire = encode_tx(&tx);
            assert_eq!(decode_tx(&wire).unwrap(), tx);
        }
    }

    #[test]
    fn corruption_is_detected() {
        let tx = sample(Payload::Data(b"x".to_vec()));
        let wire = encode_tx(&tx);
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x01;
            assert!(
                decode_tx(&bad).is_err(),
                "single-bit flip at byte {i} must be detected"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let tx = sample(Payload::Data(b"hello world".to_vec()));
        let wire = encode_tx(&tx);
        for n in 0..wire.len() {
            assert!(decode_tx(&wire[..n]).is_err(), "truncation to {n} bytes");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let tx = sample(Payload::Data(b"x".to_vec()));
        let mut wire = encode_tx(&tx);
        wire.push(0);
        // The checksum catches it first; either way it must fail.
        assert!(decode_tx(&wire).is_err());
    }

    #[test]
    fn wrong_version_rejected() {
        let tx = sample(Payload::Data(b"x".to_vec()));
        let mut wire = encode_tx(&tx);
        wire[0] = 99;
        // Re-stamp the checksum so the version check itself is exercised.
        let body_len = wire.len() - 4;
        let sum = sha256(&wire[..body_len]);
        wire[body_len..].copy_from_slice(&sum[..4]);
        assert_eq!(decode_tx(&wire), Err(CodecError::BadVersion(99)));
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let tx = TransactionBuilder::new(NodeId([1; 32]))
                .parents(TxId([2; 32]), TxId([3; 32]))
                .timestamp_ms(v)
                .nonce(v)
                .build();
            let decoded = decode_tx(&encode_tx(&tx)).unwrap();
            assert_eq!(decoded.timestamp_ms, v);
            assert_eq!(decoded.nonce, v);
        }
    }

    #[test]
    fn absurd_declared_length_rejected_without_allocation() {
        // Hand-build: version, tag 0 (Data), headers, then a varint length
        // of u64::MAX. Must fail fast with BadLength/BadChecksum, not OOM.
        let tx = sample(Payload::Data(vec![1]));
        let wire = encode_tx(&tx);
        let mut bad = wire[..wire.len() - 4].to_vec();
        // Overwrite the data length varint region crudely; whatever parses,
        // it must not panic or allocate unboundedly.
        let idx = 2 + 32 * 3 + 1; // in the varint area after headers
        bad[idx] = 0xFF;
        let sum = sha256(&bad);
        bad.extend_from_slice(&sum[..4]);
        // The mutation may still parse as a (different) valid transaction —
        // what matters is: no panic, no unbounded allocation, and never a
        // silent equality with the original.
        if let Ok(decoded) = decode_tx(&bad) { assert_ne!(decoded, tx) }
    }

    #[test]
    fn encoding_preserves_tx_id() {
        let tx = sample(Payload::Data(b"id stability".to_vec()));
        let decoded = decode_tx(&encode_tx(&tx)).unwrap();
        assert_eq!(decoded.id(), tx.id());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn prop_roundtrip_data(
            issuer in proptest::array::uniform32(any::<u8>()),
            data in proptest::collection::vec(any::<u8>(), 0..300),
            sig in proptest::collection::vec(any::<u8>(), 0..80),
            ts in any::<u64>(),
            nonce in any::<u64>(),
        ) {
            let tx = TransactionBuilder::new(NodeId(issuer))
                .parents(TxId([1; 32]), TxId([2; 32]))
                .payload(Payload::Data(data))
                .timestamp_ms(ts)
                .nonce(nonce)
                .signature(sig)
                .build();
            prop_assert_eq!(decode_tx(&encode_tx(&tx)).unwrap(), tx);
        }

        #[test]
        fn prop_random_bytes_never_panic(garbage in proptest::collection::vec(any::<u8>(), 0..400)) {
            // Decoding arbitrary input must return an error or a valid
            // transaction, never panic.
            let _ = decode_tx(&garbage);
        }

        #[test]
        fn prop_truncated_encoding_always_errors(
            data in proptest::collection::vec(any::<u8>(), 0..200),
            sig in proptest::collection::vec(any::<u8>(), 0..80),
            cut_frac in 0u32..1000,
        ) {
            // Any strict prefix of a valid encoding must come back as a
            // CodecError — never a panic, never a transaction.
            let tx = TransactionBuilder::new(NodeId([7; 32]))
                .parents(TxId([1; 32]), TxId([2; 32]))
                .payload(Payload::Data(data))
                .timestamp_ms(123)
                .signature(sig)
                .build();
            let wire = encode_tx(&tx);
            let cut = (cut_frac as usize * wire.len()) / 1000; // < wire.len()
            prop_assert!(decode_tx(&wire[..cut]).is_err(), "truncation to {} bytes", cut);
        }

        #[test]
        fn prop_bit_flip_always_errors(
            payload_kind in 0u8..4,
            data in proptest::collection::vec(any::<u8>(), 0..120),
            byte_frac in 0u32..1000,
            bit in 0u8..8,
        ) {
            // A single flipped bit anywhere in the encoding must be
            // rejected (the trailing checksum covers every body byte, and
            // a flip inside the checksum itself mismatches the body).
            let payload = match payload_kind {
                0 => Payload::Data(data),
                1 => Payload::EncryptedData { iv: [9; 16], ciphertext: data },
                2 => Payload::Spend { token: [5; 32], to: NodeId([6; 32]) },
                _ => Payload::AuthList {
                    devices: vec![NodeId([1; 32]); data.len() % 5],
                    signature: data,
                },
            };
            let tx = sample(payload);
            let mut wire = encode_tx(&tx);
            let idx = (byte_frac as usize * wire.len()) / 1000;
            wire[idx] ^= 1 << bit;
            prop_assert!(decode_tx(&wire).is_err(), "flip at byte {} bit {}", idx, bit);
        }
    }

    /// Re-stamps the 4-byte trailing checksum over `body` and returns the
    /// full adversarial encoding — lets tests forge structurally invalid
    /// bodies that still pass the checksum gate.
    fn with_valid_checksum(body: &[u8]) -> Vec<u8> {
        let mut out = body.to_vec();
        let sum = sha256(body);
        out.extend_from_slice(&sum[..4]);
        out
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // `[0xFF; 9] ++ [0x7F]` carries six bits past u64; `0x01` as the
        // tenth byte is u64::MAX, the longest valid form.
        let mut overlong = vec![0xFF; 9];
        overlong.push(0x7F);
        assert_eq!(read_varint(&overlong, &mut 0), Err(VarintError::Overlong));
        let mut max = vec![0xFF; 9];
        max.push(0x01);
        assert_eq!(read_varint(&max, &mut 0), Ok(u64::MAX));
        assert_eq!(read_varint(&max[..9], &mut 0), Err(VarintError::UnexpectedEnd));

        // Through the transaction decoder: an overlong timestamp.
        let mut body = vec![VERSION, 0];
        body.extend_from_slice(&[7u8; 32 * 3]);
        body.extend_from_slice(&overlong);
        assert_eq!(decode_tx(&with_valid_checksum(&body)), Err(CodecError::BadVarint));
    }

    #[test]
    fn forged_huge_data_length_is_capped_before_allocation() {
        // version, tag 0 (Data), headers, then a varint declaring a
        // ~u64::MAX-byte payload. The checksum is valid, so parsing
        // proceeds — and must stop at the length cap without allocating.
        let mut body = vec![VERSION, 0];
        body.extend_from_slice(&[7u8; 32]); // issuer
        body.extend_from_slice(&[1u8; 32]); // trunk
        body.extend_from_slice(&[2u8; 32]); // branch
        body.push(0); // timestamp varint
        body.push(0); // nonce varint
        body.extend_from_slice(&[0xFF; 9]); // varint continuation bytes…
        body.push(0x01); // …terminated: a declared length of u64::MAX
        let wire = with_valid_checksum(&body);
        match decode_tx(&wire) {
            Err(CodecError::BadLength(n)) => assert!(n > MAX_FIELD_BYTES),
            other => panic!("expected BadLength, got {other:?}"),
        }
    }

    #[test]
    fn forged_huge_device_count_is_capped_before_allocation() {
        // Same attack through the AuthList device-count varint.
        let mut body = vec![VERSION, 3];
        body.extend_from_slice(&[7u8; 32]);
        body.extend_from_slice(&[1u8; 32]);
        body.extend_from_slice(&[2u8; 32]);
        body.push(0);
        body.push(0);
        body.extend_from_slice(&[0xFF; 9]);
        body.push(0x01); // device count = u64::MAX
        let wire = with_valid_checksum(&body);
        match decode_tx(&wire) {
            Err(CodecError::BadLength(n)) => assert!(n > MAX_FIELD_BYTES),
            other => panic!("expected BadLength, got {other:?}"),
        }
    }
}
