//! The light-node ingestion protocol: what a sensor speaks to a gateway.
//!
//! Deliberately minimal — constrained devices should not need the full
//! gossip vocabulary just to hand in a reading. One frame (4-byte BE
//! length prefix on the wire, handled by the transport) carries exactly
//! one message:
//!
//! ```text
//! client → server
//!   tag 0x01  SubmitTx     varint len, codec-encoded transaction
//!   tag 0x02  SubmitBatch  varint count (≤ 1024), count ×
//!                          (varint len, codec-encoded transaction)
//! server → client
//!   tag 0x81  Ack          varint count, count × result
//!                          result = u8 code; code 0 is followed by the
//!                          32-byte id of the accepted transaction
//! ```
//!
//! The server answers every submission with exactly one `Ack`, in the
//! order submissions arrived on that connection, carrying one result per
//! transaction. Transaction bodies reuse the checksummed
//! [`biot_tangle::codec`] encoding — a reading that crossed a socket gets
//! the same corruption detection as one read from disk.
//!
//! Every declared count is validated against the remaining frame length
//! **before** any allocation, mirroring the hardening of the gossip wire
//! codec.

use biot_core::node::SubmitError;
use biot_tangle::codec::{decode_tx, encode_tx, CodecError};
use biot_tangle::tx::{Transaction, TxId};
use std::fmt;

/// Cap on transactions in one `SubmitBatch` frame.
pub const MAX_BATCH_TXS: usize = 1024;

const TAG_SUBMIT_TX: u8 = 0x01;
const TAG_SUBMIT_BATCH: u8 = 0x02;
const TAG_ACK: u8 = 0x81;

/// Why a client frame failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// Frame ended before the message was complete.
    UnexpectedEnd,
    /// Unknown message tag.
    BadTag(u8),
    /// A varint ran past 10 bytes.
    BadVarint,
    /// A declared count/length exceeds the frame or a protocol cap.
    BadLength(u64),
    /// Bytes left over after a complete message.
    TrailingBytes(usize),
    /// An embedded transaction failed to decode.
    Codec(CodecError),
    /// An ack carried an unknown result code.
    BadCode(u8),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::UnexpectedEnd => write!(f, "unexpected end of frame"),
            ProtocolError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            ProtocolError::BadVarint => write!(f, "malformed varint"),
            ProtocolError::BadLength(n) => write!(f, "declared length {n} exceeds frame or cap"),
            ProtocolError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            ProtocolError::Codec(e) => write!(f, "embedded transaction corrupt: {e}"),
            ProtocolError::BadCode(c) => write!(f, "unknown ack code {c}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<CodecError> for ProtocolError {
    fn from(e: CodecError) -> Self {
        ProtocolError::Codec(e)
    }
}

/// Per-transaction admission outcome, as carried on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum AckCode {
    /// Attached to the ledger.
    Accepted = 0,
    /// Issuer not on the authorization list (Eqn 1).
    Unauthorized = 1,
    /// Signature failed against the registered key.
    BadSignature = 2,
    /// PoW below the issuer's credit-scaled difficulty.
    InsufficientPow = 3,
    /// Refused by a token bucket — the gateway's per-device limiter or
    /// the front end's per-connection one.
    RateLimited = 4,
    /// Token-ownership violation.
    TokenViolation = 5,
    /// The tangle refused it (double-spend, unknown parents, duplicate).
    LedgerRejected = 6,
    /// The front end's inflight queues are full — backpressure, retry
    /// after the acks drain.
    Busy = 7,
}

impl AckCode {
    /// Maps a gateway refusal to its wire code.
    pub fn from_submit_error(e: &SubmitError) -> AckCode {
        match e {
            SubmitError::Unauthorized(_) => AckCode::Unauthorized,
            SubmitError::BadSignature(_) => AckCode::BadSignature,
            SubmitError::InsufficientPow { .. } => AckCode::InsufficientPow,
            SubmitError::RateLimited(_) => AckCode::RateLimited,
            SubmitError::Token(_) => AckCode::TokenViolation,
            SubmitError::Tangle(_) => AckCode::LedgerRejected,
        }
    }

    fn from_u8(c: u8) -> Result<AckCode, ProtocolError> {
        Ok(match c {
            0 => AckCode::Accepted,
            1 => AckCode::Unauthorized,
            2 => AckCode::BadSignature,
            3 => AckCode::InsufficientPow,
            4 => AckCode::RateLimited,
            5 => AckCode::TokenViolation,
            6 => AckCode::LedgerRejected,
            7 => AckCode::Busy,
            other => return Err(ProtocolError::BadCode(other)),
        })
    }
}

/// One per-transaction result inside an [`ServerMsg::Ack`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AckResult {
    /// Outcome code.
    pub code: AckCode,
    /// The attached transaction's id, present iff `code` is
    /// [`AckCode::Accepted`].
    pub id: Option<TxId>,
}

impl AckResult {
    /// An accepted result carrying the attached id.
    pub fn accepted(id: TxId) -> Self {
        Self { code: AckCode::Accepted, id: Some(id) }
    }

    /// A refusal.
    pub fn rejected(code: AckCode) -> Self {
        Self { code, id: None }
    }
}

/// A client → server message.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientMsg {
    /// One transaction for admission.
    SubmitTx(Transaction),
    /// Several transactions for admission, acked together.
    SubmitBatch(Vec<Transaction>),
}

/// A server → client message.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerMsg {
    /// Results for one submission, transaction order preserved.
    Ack(Vec<AckResult>),
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(input: &[u8], pos: &mut usize) -> Result<u64, ProtocolError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    for _ in 0..10 {
        let byte = *input.get(*pos).ok_or(ProtocolError::UnexpectedEnd)?;
        *pos += 1;
        let bits = u64::from(byte & 0x7f);
        v = bits
            .checked_shl(shift)
            .and_then(|b| v.checked_add(b))
            .ok_or(ProtocolError::BadVarint)?;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
    Err(ProtocolError::BadVarint)
}

fn write_tx(out: &mut Vec<u8>, tx: &Transaction) {
    let body = encode_tx(tx);
    write_varint(out, body.len() as u64);
    out.extend_from_slice(&body);
}

fn read_tx(input: &[u8], pos: &mut usize) -> Result<Transaction, ProtocolError> {
    let len = read_varint(input, pos)?;
    let remaining = (input.len() - *pos) as u64;
    if len > remaining {
        return Err(ProtocolError::BadLength(len));
    }
    let body = &input[*pos..*pos + len as usize];
    *pos += len as usize;
    Ok(decode_tx(body)?)
}

/// Encodes a client message into one frame body.
pub fn encode_client(msg: &ClientMsg) -> Vec<u8> {
    let mut out = Vec::new();
    match msg {
        ClientMsg::SubmitTx(tx) => {
            out.push(TAG_SUBMIT_TX);
            write_tx(&mut out, tx);
        }
        ClientMsg::SubmitBatch(txs) => {
            out.push(TAG_SUBMIT_BATCH);
            write_varint(&mut out, txs.len() as u64);
            for tx in txs {
                write_tx(&mut out, tx);
            }
        }
    }
    out
}

/// Decodes a client frame body.
///
/// # Errors
///
/// [`ProtocolError`] on any malformation; the server treats that as a
/// protocol violation and drops the connection.
pub fn decode_client(input: &[u8]) -> Result<ClientMsg, ProtocolError> {
    let mut pos = 0usize;
    let tag = *input.get(pos).ok_or(ProtocolError::UnexpectedEnd)?;
    pos += 1;
    let msg = match tag {
        TAG_SUBMIT_TX => ClientMsg::SubmitTx(read_tx(input, &mut pos)?),
        TAG_SUBMIT_BATCH => {
            let count = read_varint(input, &mut pos)?;
            // Each transaction needs at least its length varint, so a
            // forged count cannot exceed the remaining bytes — checked
            // before the Vec allocation.
            if count > MAX_BATCH_TXS as u64 || count > (input.len() - pos) as u64 {
                return Err(ProtocolError::BadLength(count));
            }
            let mut txs = Vec::with_capacity(count as usize);
            for _ in 0..count {
                txs.push(read_tx(input, &mut pos)?);
            }
            ClientMsg::SubmitBatch(txs)
        }
        other => return Err(ProtocolError::BadTag(other)),
    };
    if pos != input.len() {
        return Err(ProtocolError::TrailingBytes(input.len() - pos));
    }
    Ok(msg)
}

/// Encodes a server message into one frame body.
pub fn encode_server(msg: &ServerMsg) -> Vec<u8> {
    let mut out = Vec::new();
    match msg {
        ServerMsg::Ack(results) => {
            out.push(TAG_ACK);
            write_varint(&mut out, results.len() as u64);
            for r in results {
                out.push(r.code as u8);
                if let Some(id) = r.id {
                    debug_assert_eq!(r.code, AckCode::Accepted);
                    out.extend_from_slice(&id.0);
                }
            }
        }
    }
    out
}

/// Decodes a server frame body (the client side of the protocol).
///
/// # Errors
///
/// [`ProtocolError`] on any malformation.
pub fn decode_server(input: &[u8]) -> Result<ServerMsg, ProtocolError> {
    let mut pos = 0usize;
    let tag = *input.get(pos).ok_or(ProtocolError::UnexpectedEnd)?;
    pos += 1;
    if tag != TAG_ACK {
        return Err(ProtocolError::BadTag(tag));
    }
    let count = read_varint(input, &mut pos)?;
    // One byte minimum per result bounds a forged count.
    if count > (input.len() - pos) as u64 {
        return Err(ProtocolError::BadLength(count));
    }
    let mut results = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let code = *input.get(pos).ok_or(ProtocolError::UnexpectedEnd)?;
        pos += 1;
        let code = AckCode::from_u8(code)?;
        let id = if code == AckCode::Accepted {
            let bytes = input
                .get(pos..pos + 32)
                .ok_or(ProtocolError::UnexpectedEnd)?;
            pos += 32;
            let mut id = [0u8; 32];
            id.copy_from_slice(bytes);
            Some(TxId(id))
        } else {
            None
        };
        results.push(AckResult { code, id });
    }
    if pos != input.len() {
        return Err(ProtocolError::TrailingBytes(input.len() - pos));
    }
    Ok(ServerMsg::Ack(results))
}

#[cfg(test)]
mod tests {
    use super::*;
    use biot_tangle::tx::{NodeId, Payload, TransactionBuilder};

    fn tx(n: u8) -> Transaction {
        TransactionBuilder::new(NodeId([n; 32]))
            .parents(TxId([1; 32]), TxId([2; 32]))
            .payload(Payload::Data(vec![n; 8]))
            .timestamp_ms(u64::from(n))
            .build()
    }

    #[test]
    fn client_roundtrip() {
        for msg in [
            ClientMsg::SubmitTx(tx(1)),
            ClientMsg::SubmitBatch(vec![tx(2), tx(3), tx(4)]),
            ClientMsg::SubmitBatch(Vec::new()),
        ] {
            let bytes = encode_client(&msg);
            assert_eq!(decode_client(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn server_roundtrip() {
        let msg = ServerMsg::Ack(vec![
            AckResult::accepted(TxId([9; 32])),
            AckResult::rejected(AckCode::RateLimited),
            AckResult::rejected(AckCode::Busy),
        ]);
        let bytes = encode_server(&msg);
        assert_eq!(decode_server(&bytes).unwrap(), msg);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let frames = [
            encode_client(&ClientMsg::SubmitBatch(vec![tx(5), tx(6)])),
            encode_server(&ServerMsg::Ack(vec![AckResult::accepted(TxId([7; 32]))])),
        ];
        for (i, frame) in frames.iter().enumerate() {
            for cut in 0..frame.len() {
                let part = &frame[..cut];
                let refused = if i == 0 {
                    decode_client(part).is_err()
                } else {
                    decode_server(part).is_err()
                };
                assert!(refused, "frame {i} truncated at {cut} must be refused");
            }
        }
    }

    #[test]
    fn forged_counts_refused_before_allocation() {
        // SubmitBatch declaring 2^40 transactions in a 16-byte frame.
        let mut frame = vec![TAG_SUBMIT_BATCH];
        write_varint(&mut frame, 1 << 40);
        frame.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            decode_client(&frame),
            Err(ProtocolError::BadLength(_))
        ));

        let mut ack = vec![TAG_ACK];
        write_varint(&mut ack, u64::MAX);
        assert!(matches!(decode_server(&ack), Err(ProtocolError::BadLength(_))));
    }

    #[test]
    fn trailing_bytes_refused() {
        let mut frame = encode_client(&ClientMsg::SubmitTx(tx(8)));
        frame.push(0x00);
        assert!(matches!(
            decode_client(&frame),
            Err(ProtocolError::TrailingBytes(1))
        ));
    }

    #[test]
    fn bad_tags_and_codes_refused() {
        assert!(matches!(decode_client(&[0x55]), Err(ProtocolError::BadTag(0x55))));
        assert!(matches!(decode_server(&[0x01]), Err(ProtocolError::BadTag(0x01))));
        // Ack with an out-of-range result code.
        let frame = vec![TAG_ACK, 1, 99];
        assert!(matches!(decode_server(&frame), Err(ProtocolError::BadCode(99))));
    }

    #[test]
    fn submit_error_mapping_is_total() {
        use biot_core::pow::Difficulty;
        use biot_core::tokens::TokenError;
        use biot_tangle::graph::TangleError;
        let n = NodeId([1; 32]);
        let cases = [
            (SubmitError::Unauthorized(n), AckCode::Unauthorized),
            (SubmitError::BadSignature(n), AckCode::BadSignature),
            (
                SubmitError::InsufficientPow { required: Difficulty::INITIAL },
                AckCode::InsufficientPow,
            ),
            (SubmitError::RateLimited(n), AckCode::RateLimited),
            (
                SubmitError::Token(TokenError::UnknownToken([0; 32])),
                AckCode::TokenViolation,
            ),
            (
                SubmitError::Tangle(TangleError::Duplicate(TxId([2; 32]))),
                AckCode::LedgerRejected,
            ),
        ];
        for (err, code) in cases {
            assert_eq!(AckCode::from_submit_error(&err), code);
        }
    }
}
