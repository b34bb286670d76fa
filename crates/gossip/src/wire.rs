//! The gossip wire protocol: versioned, length-aware message encoding.
//!
//! One frame (as delivered by a [`crate::transport::Transport`]) carries
//! exactly one message. The first byte is the message tag; the remainder
//! is tag-specific. Transaction bodies reuse the checksummed
//! [`biot_tangle::codec`] encoding, so a transaction that crossed a
//! socket gets the same corruption detection as one read from disk.
//!
//! ```text
//! tag 0  Hello      u16-BE protocol version, u64-BE node id,
//!                   u8 has-genesis flag, [32-byte genesis id],
//!                   u8 has-addr flag,
//!                   [varint len, UTF-8 listen address]
//! tag 1  (retired: v1/v2 per-tx Announce; now an unknown tag)
//! tag 2  (retired: v4 single-id pull; `GetTxs` carries one id too)
//! tag 3  TxPayload  varint attach_ms, varint len, codec-encoded tx
//! tag 4  GetTips    (empty)
//! tag 5  Tips       varint count, count × 32-byte tx ids
//! tag 6  Heartbeat  varint sender clock (ms)
//! tag 7, 8 (retired: v5 cold-start baseline and its request)
//! tag 9  CreditEvents u64-BE origin, varint first seq, 4-byte checksum
//!                   over both, varint count, count × (varint len,
//!                   checksummed biot_credit event bytes)
//! tag 10 PeerExchange varint count, count × (u64-BE node id,
//!                   varint addr len, UTF-8 address, 4-byte checksum)
//! tag 11 Digest     varint count, count × 32-byte tx ids,
//!                   4-byte checksum over the ids
//! tag 12 GetTxs     varint count, count × 32-byte tx ids
//! tag 13, 14 (retired: v4 credit-event keys and their pulls)
//! tag 15 CreditVersions varint count, count × (u64-BE origin,
//!                   varint next seq), 4-byte checksum over the entries
//! tag 16 GetCredit  as tag 15, each seq the first one wanted
//! ```
//!
//! Varints are LEB128, identical to the tangle codec. Every declared
//! count is validated against the remaining frame length **before** any
//! allocation, mirroring the hardening in `tangle::codec`. `PeerExchange`
//! entries, `Digest` id lists, credit version lists and credit-event
//! identities carry truncated-SHA-256 checksums (like the per-event
//! checksums of tag 9), so a single flipped bit in them is rejected
//! rather than silently becoming a different address, id or sequence.

use biot_credit::event::{decode_event, encode_event, CreditCodecError, CreditEvent};
use biot_crypto::sha256::sha256;
use biot_tangle::codec::{
    decode_tx, encode_tx, read_varint, write_varint, CodecError, VarintError,
};
use biot_tangle::tx::{Transaction, TxId};
use std::fmt;

/// Version negotiated in [`Message::Hello`]; peers speaking a different
/// version are refused. v2 added node identity + listen address to the
/// handshake and the mesh frames (tags 10–14); v3 retired the per-tx
/// `Announce` frame (tag 1), so a v2 peer is refused at the handshake
/// rather than dropped mid-stream on its first announce; v4 dropped the
/// never-read 32-byte baseline hash from `Hello`; v5 gave every credit
/// event an `(origin, seq)` identity and replaced the credit-key digests
/// (tags 13/14) with version vectors (tags 15/16); v6 retired the
/// cold-start baseline (tags 7/8): the tangle keeps every transaction, so
/// a cold replica syncs by the tips exchange and parent pulls alone.
pub const PROTOCOL_VERSION: u16 = 6;

/// Hard cap on one frame. Anything larger is a protocol violation — the
/// TCP transport refuses to even buffer it.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Cap on entries in one [`Message::PeerExchange`] frame.
pub const MAX_PEER_ENTRIES: usize = 64;

/// Cap on one peer address string, bytes.
pub const MAX_ADDR_BYTES: usize = 256;

/// Cap on 32-byte items in one [`Message::Digest`] or [`Message::GetTxs`]
/// frame.
pub const MAX_IDS_PER_DIGEST: usize = 4_096;

/// Cap on credit origins a node tracks, and on the entries of one
/// [`Message::CreditVersions`] or [`Message::GetCredit`] frame.
pub const MAX_CREDIT_ORIGINS: usize = 1_024;

/// Smallest possible encoded [`PeerEntry`]: 8-byte id, 1-byte length,
/// empty address, 4-byte checksum.
const MIN_PEER_ENTRY: usize = 8 + 1 + 4;

/// Errors from decoding a frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Frame ended before the message was complete.
    UnexpectedEnd,
    /// Unknown message tag.
    BadTag(u8),
    /// A varint encodes more than 64 bits.
    BadVarint,
    /// A declared count/length exceeds the frame or the protocol cap.
    BadLength(u64),
    /// Bytes left over after a complete message.
    TrailingBytes(usize),
    /// The embedded transaction failed to decode.
    Codec(CodecError),
    /// An embedded credit event failed to decode.
    CreditCodec(CreditCodecError),
    /// An embedded checksum (peer entry, digest id list) did not match.
    ChecksumMismatch,
    /// A peer address was over the cap or not valid UTF-8.
    BadAddr,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEnd => write!(f, "unexpected end of frame"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::BadVarint => write!(f, "malformed varint"),
            WireError::BadLength(n) => write!(f, "declared length {n} exceeds frame"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::Codec(e) => write!(f, "embedded transaction corrupt: {e}"),
            WireError::CreditCodec(e) => write!(f, "embedded credit event corrupt: {e}"),
            WireError::ChecksumMismatch => write!(f, "embedded checksum mismatch"),
            WireError::BadAddr => write!(f, "peer address over cap or not UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Codec(e)
    }
}

impl From<CreditCodecError> for WireError {
    fn from(e: CreditCodecError) -> Self {
        WireError::CreditCodec(e)
    }
}

/// One gossip protocol message.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Handshake: first message on every connection, both directions.
    Hello {
        /// Speaker's protocol version (must match to proceed).
        version: u16,
        /// Speaker's node id (`0` = anonymous; nonzero ids let peers
        /// detect self-connections and duplicate links, and key the peer
        /// table for peer exchange).
        node_id: u64,
        /// Speaker's genesis id, if it has one. Two peers with different
        /// genesis ids are on different ledgers — incompatible.
        genesis: Option<TxId>,
        /// Where the speaker accepts inbound connections, if anywhere —
        /// gossiped onward in [`Message::PeerExchange`] frames so the
        /// fleet discovers it.
        listen_addr: Option<String>,
    },
    /// A full transaction plus the sender's attach time.
    TxPayload {
        /// Attach time on the sending replica.
        attach_ms: u64,
        /// The transaction itself.
        tx: Transaction,
    },
    /// "Send me your current tip set" (anti-entropy probe).
    GetTips,
    /// The responder's current tips.
    Tips(Vec<TxId>),
    /// Liveness signal carrying the sender's clock.
    Heartbeat(u64),
    /// Credit-ledger events (validations and misbehaviour evidence)
    /// `first..` of one origin's sequence, answering a
    /// [`Message::GetCredit`], so replicas converge on the same credit —
    /// and therefore the same difficulty — for every node. Each event
    /// carries its own version byte and checksum (the
    /// [`biot_credit::event`] codec), so corruption is caught per event.
    CreditEvents {
        /// The node that first broadcast these events.
        origin: u64,
        /// Sequence number of `events[0]`.
        first: u64,
        /// Consecutive events of the origin.
        events: Vec<CreditEvent>,
    },
    /// "Here are peers I know about" — each entry is `(node id, dial
    /// address)` with its own checksum, capped at [`MAX_PEER_ENTRIES`].
    /// A node joining with one seed address discovers the fleet through
    /// these.
    PeerExchange(Vec<PeerEntry>),
    /// Digest-batched announce: "I hold these transactions", one
    /// periodic frame per peer instead of a frame per transaction; the
    /// receiver answers with [`Message::GetTxs`] for only the ids it
    /// lacks. Checksummed so a flipped bit cannot turn
    /// into a request for a phantom transaction.
    Digest(Vec<TxId>),
    /// Batch fetch: "send me these transactions" (the pull half of the
    /// digest exchange).
    GetTxs(Vec<TxId>),
    /// Credit watermarks: `(origin, next seq)`, the sender has applied
    /// that origin's events below `next`.
    CreditVersions(Vec<(u64, u64)>),
    /// Credit pull: `(origin, first seq wanted)`.
    GetCredit(Vec<(u64, u64)>),
}

/// One known peer, as gossiped in [`Message::PeerExchange`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerEntry {
    /// The peer's nonzero node id.
    pub node_id: u64,
    /// An address its listener can be dialed at (transport-specific;
    /// interpreted by the receiving node's `Dialer`).
    pub addr: String,
}

/// Truncated SHA-256, the checksum of every checksummed frame part.
fn checksum(bytes: &[u8]) -> [u8; 4] {
    let h = sha256(bytes);
    [h[0], h[1], h[2], h[3]]
}

/// Appends a checksummed `(origin, seq)` list (tags 15 and 16).
fn put_versions(out: &mut Vec<u8>, entries: &[(u64, u64)]) {
    write_varint(out, entries.len() as u64);
    let start = out.len();
    for &(origin, seq) in entries {
        out.extend_from_slice(&origin.to_be_bytes());
        write_varint(out, seq);
    }
    let sum = checksum(&out[start..]);
    out.extend_from_slice(&sum);
}

struct Reader<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.input.get(self.pos).ok_or(WireError::UnexpectedEnd)?;
        self.pos += 1;
        Ok(b)
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::UnexpectedEnd)?;
        let s = self.input.get(self.pos..end).ok_or(WireError::UnexpectedEnd)?;
        self.pos = end;
        Ok(s)
    }

    fn id(&mut self) -> Result<TxId, WireError> {
        let mut out = [0u8; 32];
        out.copy_from_slice(self.bytes(32)?);
        Ok(TxId(out))
    }

    fn varint(&mut self) -> Result<u64, WireError> {
        read_varint(self.input, &mut self.pos).map_err(|e| match e {
            VarintError::UnexpectedEnd => WireError::UnexpectedEnd,
            VarintError::Overlong => WireError::BadVarint,
        })
    }

    fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    /// A declared 32-byte-id count, bounds-checked against `cap` and the
    /// remaining frame before any allocation.
    fn id_vec(&mut self, cap: usize) -> Result<Vec<TxId>, WireError> {
        let n = self.varint()?;
        if n > cap as u64 || n > (self.remaining() / 32) as u64 {
            return Err(WireError::BadLength(n));
        }
        let mut ids = Vec::with_capacity(n as usize);
        for _ in 0..n {
            ids.push(self.id()?);
        }
        Ok(ids)
    }

    fn u64_be(&mut self) -> Result<u64, WireError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.bytes(8)?);
        Ok(u64::from_be_bytes(b))
    }

    /// Reads a 4-byte checksum over the bytes from `start` and checks it.
    fn check_sum(&mut self, start: usize) -> Result<(), WireError> {
        let covered = checksum(&self.input[start..self.pos]);
        if self.bytes(4)? != covered {
            return Err(WireError::ChecksumMismatch);
        }
        Ok(())
    }

    /// A checksummed `(origin, seq)` list, its count checked before any
    /// allocation.
    fn versions(&mut self) -> Result<Vec<(u64, u64)>, WireError> {
        let n = self.varint()?;
        // An entry is at least an 8-byte origin and a 1-byte varint.
        if n > MAX_CREDIT_ORIGINS as u64 || n > (self.remaining() / 9) as u64 {
            return Err(WireError::BadLength(n));
        }
        let start = self.pos;
        let mut entries = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let origin = self.u64_be()?;
            entries.push((origin, self.varint()?));
        }
        self.check_sum(start)?;
        Ok(entries)
    }

    /// A varint-length-prefixed, codec-encoded transaction.
    fn tx(&mut self) -> Result<Transaction, WireError> {
        let len = self.varint()?;
        if len > self.remaining() as u64 {
            return Err(WireError::BadLength(len));
        }
        Ok(decode_tx(self.bytes(len as usize)?)?)
    }
}

fn put_tx(out: &mut Vec<u8>, tx: &Transaction) {
    let body = encode_tx(tx);
    write_varint(out, body.len() as u64);
    out.extend_from_slice(&body);
}

/// Encodes a message into one frame.
pub fn encode_msg(msg: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    match msg {
        Message::Hello { version, node_id, genesis, listen_addr } => {
            out.push(0);
            out.extend_from_slice(&version.to_be_bytes());
            out.extend_from_slice(&node_id.to_be_bytes());
            match genesis {
                Some(g) => {
                    out.push(1);
                    out.extend_from_slice(&g.0);
                }
                None => out.push(0),
            }
            match listen_addr {
                Some(addr) => {
                    out.push(1);
                    write_varint(&mut out, addr.len() as u64);
                    out.extend_from_slice(addr.as_bytes());
                }
                None => out.push(0),
            }
        }
        Message::TxPayload { attach_ms, tx } => {
            out.push(3);
            write_varint(&mut out, *attach_ms);
            put_tx(&mut out, tx);
        }
        Message::GetTips => out.push(4),
        Message::Tips(ids) => {
            out.push(5);
            write_varint(&mut out, ids.len() as u64);
            for id in ids {
                out.extend_from_slice(&id.0);
            }
        }
        Message::Heartbeat(now_ms) => {
            out.push(6);
            write_varint(&mut out, *now_ms);
        }
        Message::CreditEvents { origin, first, events } => {
            out.push(9);
            out.extend_from_slice(&origin.to_be_bytes());
            write_varint(&mut out, *first);
            let sum = checksum(&out[1..]);
            out.extend_from_slice(&sum);
            write_varint(&mut out, events.len() as u64);
            for ev in events {
                let body = encode_event(ev);
                write_varint(&mut out, body.len() as u64);
                out.extend_from_slice(&body);
            }
        }
        Message::PeerExchange(entries) => {
            out.push(10);
            write_varint(&mut out, entries.len() as u64);
            for e in entries {
                let start = out.len();
                out.extend_from_slice(&e.node_id.to_be_bytes());
                write_varint(&mut out, e.addr.len() as u64);
                out.extend_from_slice(e.addr.as_bytes());
                let sum = checksum(&out[start..]);
                out.extend_from_slice(&sum);
            }
        }
        Message::Digest(ids) => {
            out.push(11);
            write_varint(&mut out, ids.len() as u64);
            let start = out.len();
            for id in ids {
                out.extend_from_slice(&id.0);
            }
            let sum = checksum(&out[start..]);
            out.extend_from_slice(&sum);
        }
        Message::GetTxs(ids) => {
            out.push(12);
            write_varint(&mut out, ids.len() as u64);
            for id in ids {
                out.extend_from_slice(&id.0);
            }
        }
        Message::CreditVersions(entries) => {
            out.push(15);
            put_versions(&mut out, entries);
        }
        Message::GetCredit(entries) => {
            out.push(16);
            put_versions(&mut out, entries);
        }
    }
    out
}

/// Decodes one frame into a message, rejecting trailing bytes.
///
/// # Errors
///
/// Any [`WireError`]; adversarial input never panics or over-allocates.
pub fn decode_msg(frame: &[u8]) -> Result<Message, WireError> {
    let mut r = Reader { input: frame, pos: 0 };
    let msg = match r.u8()? {
        0 => {
            let hi = r.u8()?;
            let lo = r.u8()?;
            let version = u16::from_be_bytes([hi, lo]);
            let node_id = r.u64_be()?;
            let genesis = if r.u8()? != 0 { Some(r.id()?) } else { None };
            let listen_addr = if r.u8()? != 0 {
                let len = r.varint()?;
                if len > MAX_ADDR_BYTES as u64 || len > r.remaining() as u64 {
                    return Err(WireError::BadAddr);
                }
                let bytes = r.bytes(len as usize)?;
                Some(String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadAddr)?)
            } else {
                None
            };
            Message::Hello { version, node_id, genesis, listen_addr }
        }
        3 => {
            let attach_ms = r.varint()?;
            Message::TxPayload { attach_ms, tx: r.tx()? }
        }
        4 => Message::GetTips,
        5 => Message::Tips(r.id_vec(usize::MAX)?),
        6 => Message::Heartbeat(r.varint()?),
        9 => {
            let origin = r.u64_be()?;
            let first = r.varint()?;
            r.check_sum(1)?;
            let n = r.varint()?;
            // Every credit event record costs at least its 1-byte length
            // prefix plus MIN_ENCODED_LEN bytes of body, so a declared
            // count beyond remaining/MIN is forged — reject before
            // allocating.
            if n > (r.remaining() / biot_credit::event::MIN_ENCODED_LEN) as u64 {
                return Err(WireError::BadLength(n));
            }
            let mut events = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let len = r.varint()?;
                if len > r.remaining() as u64 {
                    return Err(WireError::BadLength(len));
                }
                events.push(decode_event(r.bytes(len as usize)?)?);
            }
            Message::CreditEvents { origin, first, events }
        }
        10 => {
            let n = r.varint()?;
            // Each entry is at least MIN_PEER_ENTRY bytes, so a count past
            // remaining/MIN is forged; the protocol cap bounds it further.
            if n > MAX_PEER_ENTRIES as u64 || n > (r.remaining() / MIN_PEER_ENTRY) as u64 {
                return Err(WireError::BadLength(n));
            }
            let mut entries = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let start = r.pos;
                let node_id = r.u64_be()?;
                let len = r.varint()?;
                if len > MAX_ADDR_BYTES as u64 || len > r.remaining() as u64 {
                    return Err(WireError::BadAddr);
                }
                let addr_bytes = r.bytes(len as usize)?.to_vec();
                r.check_sum(start)?;
                let addr = String::from_utf8(addr_bytes).map_err(|_| WireError::BadAddr)?;
                entries.push(PeerEntry { node_id, addr });
            }
            Message::PeerExchange(entries)
        }
        11 => {
            let ids = r.id_vec(MAX_IDS_PER_DIGEST)?;
            r.check_sum(r.pos - 32 * ids.len())?;
            Message::Digest(ids)
        }
        12 => Message::GetTxs(r.id_vec(MAX_IDS_PER_DIGEST)?),
        15 => Message::CreditVersions(r.versions()?),
        16 => Message::GetCredit(r.versions()?),
        t => return Err(WireError::BadTag(t)),
    };
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use biot_credit::Misbehavior;
    use biot_net::time::SimTime;
    use biot_tangle::tx::{NodeId, Payload, TransactionBuilder};
    use proptest::prelude::*;

    fn sample_tx(data: Vec<u8>) -> Transaction {
        TransactionBuilder::new(NodeId([7; 32]))
            .parents(TxId([1; 32]), TxId([2; 32]))
            .payload(Payload::Data(data))
            .timestamp_ms(42)
            .signature(vec![9; 16])
            .build()
    }

    fn sample_events() -> Vec<CreditEvent> {
        vec![
            CreditEvent::validated(NodeId([0x11; 32]), 3.0, SimTime::from_millis(1_234)),
            CreditEvent::misbehaved(NodeId([0x22; 32]), Misbehavior::DoubleSpend, SimTime::from_secs(60)),
            CreditEvent::misbehaved(NodeId([0x33; 32]), Misbehavior::LazyTips, SimTime::ZERO),
        ]
    }

    fn samples() -> Vec<Message> {
        vec![
            Message::Hello {
                version: PROTOCOL_VERSION,
                node_id: 0,
                genesis: None,
                listen_addr: None,
            },
            Message::Hello {
                version: 7,
                node_id: 0xDEAD_BEEF_0042,
                genesis: Some(TxId([0xAA; 32])),
                listen_addr: Some("127.0.0.1:9000".to_string()),
            },
            Message::TxPayload { attach_ms: 12_345, tx: sample_tx(b"reading".to_vec()) },
            Message::GetTips,
            Message::Tips(vec![]),
            Message::Tips(vec![TxId([1; 32]), TxId([2; 32]), TxId([3; 32])]),
            Message::Heartbeat(u64::MAX),
            Message::CreditEvents { origin: 0, first: 0, events: vec![] },
            Message::CreditEvents { origin: u64::MAX, first: 9_000, events: sample_events() },
            Message::PeerExchange(vec![]),
            Message::PeerExchange(vec![
                PeerEntry { node_id: 1, addr: "mem:1".to_string() },
                PeerEntry { node_id: 99, addr: "10.0.0.9:7777".to_string() },
            ]),
            Message::Digest(vec![]),
            Message::Digest(vec![TxId([8; 32]), TxId([9; 32])]),
            Message::GetTxs(vec![]),
            Message::GetTxs(vec![TxId([0xCC; 32])]),
            Message::CreditVersions(vec![]),
            Message::CreditVersions(vec![(1, 0), (u64::MAX, 12_345)]),
            Message::GetCredit(vec![]),
            Message::GetCredit(vec![(0x9E37_79B9, 3)]),
        ]
    }

    #[test]
    fn roundtrip_every_message_kind() {
        for msg in samples() {
            let frame = encode_msg(&msg);
            assert!(frame.len() <= MAX_FRAME_BYTES);
            assert_eq!(decode_msg(&frame).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn truncation_always_errors() {
        for msg in samples() {
            let frame = encode_msg(&msg);
            for n in 0..frame.len() {
                assert!(decode_msg(&frame[..n]).is_err(), "{msg:?} cut to {n}");
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut frame = encode_msg(&Message::GetTips);
        frame.push(0);
        assert_eq!(decode_msg(&frame), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn bad_tag_rejected() {
        assert_eq!(decode_msg(&[200]), Err(WireError::BadTag(200)));
        // Tag 1 (the retired per-tx Announce) is unknown, id or not, as
        // are tag 2 (the retired single-id pull), tags 7 and 8 (the
        // retired v5 baseline request and baseline) and tags 13 and 14
        // (the retired v4 credit keys and their pulls).
        assert_eq!(decode_msg(&[1; 33]), Err(WireError::BadTag(1)));
        assert_eq!(decode_msg(&[2; 33]), Err(WireError::BadTag(2)));
        assert_eq!(decode_msg(&[7]), Err(WireError::BadTag(7)));
        assert_eq!(decode_msg(&[8, 0, 0]), Err(WireError::BadTag(8)));
        for tag in [13u8, 14] {
            let mut frame = vec![tag, 1];
            frame.extend_from_slice(&[0xAB; 36]);
            assert_eq!(decode_msg(&frame), Err(WireError::BadTag(tag)));
        }
        assert_eq!(decode_msg(&[]), Err(WireError::UnexpectedEnd));
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // A Heartbeat clock of `[0xFF; 9] ++ [0x7F]`: six bits past u64.
        let mut frame = vec![6u8];
        frame.extend_from_slice(&[0xFF; 9]);
        frame.push(0x7F);
        assert_eq!(decode_msg(&frame), Err(WireError::BadVarint));
        frame[10] = 0x01;
        assert_eq!(decode_msg(&frame), Ok(Message::Heartbeat(u64::MAX)));
    }

    #[test]
    fn forged_tip_count_is_capped() {
        // Tips frame declaring u64::MAX ids with an empty body: the count
        // check must fire before any allocation.
        let mut frame = vec![5u8];
        frame.extend_from_slice(&[0xFF; 9]);
        frame.push(0x01);
        assert!(matches!(decode_msg(&frame), Err(WireError::BadLength(_))));
    }

    #[test]
    fn forged_credit_event_count_is_capped() {
        // A CreditEvents frame with an honest identity header declaring
        // u64::MAX events and an empty body: rejected before any
        // allocation, same as forged tip counts.
        let header = encode_msg(&Message::CreditEvents { origin: 7, first: 3, events: vec![] });
        let mut frame = header[..header.len() - 1].to_vec();
        frame.extend_from_slice(&[0xFF; 9]);
        frame.push(0x01);
        assert!(matches!(decode_msg(&frame), Err(WireError::BadLength(_))));
    }

    #[test]
    fn corrupt_embedded_credit_event_is_a_credit_codec_error() {
        let msg = Message::CreditEvents {
            origin: 1,
            first: 0,
            events: vec![CreditEvent::validated(NodeId([1; 32]), 1.0, SimTime::from_secs(5))],
        };
        let mut frame = encode_msg(&msg);
        let last = frame.len() - 1;
        frame[last] ^= 0xFF; // inside the event's own checksum
        assert!(matches!(decode_msg(&frame), Err(WireError::CreditCodec(_))));
        // A flipped sequence number is caught by the header checksum.
        let mut frame = encode_msg(&msg);
        frame[9] ^= 1;
        assert_eq!(decode_msg(&frame), Err(WireError::ChecksumMismatch));
    }

    #[test]
    fn corrupt_embedded_tx_is_a_codec_error() {
        let msg = Message::TxPayload { attach_ms: 1, tx: sample_tx(b"x".to_vec()) };
        let mut frame = encode_msg(&msg);
        let last = frame.len() - 1;
        frame[last] ^= 0xFF; // inside the embedded tx checksum
        assert!(matches!(decode_msg(&frame), Err(WireError::Codec(_))));
    }

    #[test]
    fn forged_peer_exchange_count_is_capped() {
        // A PeerExchange frame declaring u64::MAX entries with an empty
        // body must be rejected before any allocation.
        let mut frame = vec![10u8];
        frame.extend_from_slice(&[0xFF; 9]);
        frame.push(0x01);
        assert!(matches!(decode_msg(&frame), Err(WireError::BadLength(_))));
        // Even a plausible count over the protocol cap is refused, no
        // matter how much padding backs it.
        let mut frame = vec![10u8];
        frame.extend_from_slice(&encode_varint((MAX_PEER_ENTRIES + 1) as u64));
        frame.extend_from_slice(&vec![0u8; (MAX_PEER_ENTRIES + 1) * MIN_PEER_ENTRY]);
        assert_eq!(
            decode_msg(&frame),
            Err(WireError::BadLength((MAX_PEER_ENTRIES + 1) as u64))
        );
    }

    #[test]
    fn forged_digest_count_is_capped() {
        for tag in [11u8, 12u8] {
            let mut frame = vec![tag];
            frame.extend_from_slice(&[0xFF; 9]);
            frame.push(0x01);
            assert!(matches!(decode_msg(&frame), Err(WireError::BadLength(_))), "tag {tag}");
            let mut frame = vec![tag];
            frame.extend_from_slice(&encode_varint((MAX_IDS_PER_DIGEST + 1) as u64));
            frame.extend_from_slice(&vec![0u8; (MAX_IDS_PER_DIGEST + 1) * 32 + 4]);
            assert_eq!(
                decode_msg(&frame),
                Err(WireError::BadLength((MAX_IDS_PER_DIGEST + 1) as u64)),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn forged_credit_version_count_is_capped() {
        for tag in [15u8, 16u8] {
            let mut frame = vec![tag];
            frame.extend_from_slice(&[0xFF; 9]);
            frame.push(0x01);
            assert!(matches!(decode_msg(&frame), Err(WireError::BadLength(_))), "tag {tag}");
            // A count over the origin cap is refused however much
            // padding backs it.
            let over = MAX_CREDIT_ORIGINS + 1;
            let mut frame = vec![tag];
            frame.extend_from_slice(&encode_varint(over as u64));
            frame.extend_from_slice(&vec![0u8; over * 9 + 4]);
            assert_eq!(decode_msg(&frame), Err(WireError::BadLength(over as u64)), "tag {tag}");
        }
    }

    #[test]
    fn oversized_peer_addr_rejected() {
        let msg = Message::PeerExchange(vec![PeerEntry {
            node_id: 1,
            addr: "x".repeat(MAX_ADDR_BYTES + 1),
        }]);
        assert_eq!(decode_msg(&encode_msg(&msg)), Err(WireError::BadAddr));
        let hello = Message::Hello {
            version: PROTOCOL_VERSION,
            node_id: 1,
            genesis: None,
            listen_addr: Some("y".repeat(MAX_ADDR_BYTES + 1)),
        };
        assert_eq!(decode_msg(&encode_msg(&hello)), Err(WireError::BadAddr));
    }

    #[test]
    fn non_utf8_peer_addr_rejected() {
        // Hand-build a tag-10 frame whose address bytes are invalid UTF-8
        // but whose checksum is honest: the UTF-8 check still fires.
        let bad = [0xFFu8, 0xFE];
        let mut frame = vec![10u8, 1];
        frame.extend_from_slice(&7u64.to_be_bytes());
        frame.push(bad.len() as u8);
        frame.extend_from_slice(&bad);
        let sum = checksum(&frame[2..]);
        frame.extend_from_slice(&sum);
        assert_eq!(decode_msg(&frame), Err(WireError::BadAddr));
    }

    fn encode_varint(v: u64) -> Vec<u8> {
        let mut out = Vec::new();
        write_varint(&mut out, v);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_garbage_frames_never_panic(
            garbage in proptest::collection::vec(any::<u8>(), 0..600),
        ) {
            let _ = decode_msg(&garbage);
        }

        #[test]
        fn prop_peer_exchange_bit_flip_rejected(
            ids in proptest::collection::vec(1u64..u64::MAX, 1..6),
            byte_frac in 0u32..1000,
            bit in 0u8..8,
        ) {
            // Every entry carries a truncated-SHA-256 checksum over its id
            // and address bytes, so any single flipped bit in the frame is
            // rejected (structurally, or by a checksum) rather than
            // becoming a different peer.
            let entries: Vec<PeerEntry> = ids
                .iter()
                .map(|&n| PeerEntry { node_id: n, addr: format!("10.0.0.{}:7000", n % 250) })
                .collect();
            let mut frame = encode_msg(&Message::PeerExchange(entries));
            let idx = (byte_frac as usize * frame.len()) / 1000;
            frame[idx] ^= 1 << bit;
            prop_assert!(decode_msg(&frame).is_err());
        }

        #[test]
        fn prop_digest_bit_flip_rejected(
            seeds in proptest::collection::vec(any::<u8>(), 1..20),
            byte_frac in 0u32..1000,
            bit in 0u8..8,
        ) {
            // The id list is checksummed as a whole: a flipped bit cannot
            // silently become a request for a phantom transaction.
            let ids: Vec<TxId> = seeds.iter().map(|&b| TxId([b; 32])).collect();
            let mut frame = encode_msg(&Message::Digest(ids));
            let idx = (byte_frac as usize * frame.len()) / 1000;
            frame[idx] ^= 1 << bit;
            prop_assert!(decode_msg(&frame).is_err());
        }

        #[test]
        fn prop_credit_versions_bit_flip_rejected(
            entries in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..20),
            first in any::<u64>(),
            byte_frac in 0u32..1000,
            bit in 0u8..8,
        ) {
            // Version lists, pulls and the credit-event identity header
            // are checksummed: a flipped bit cannot silently become a
            // different origin or sequence number.
            let events = sample_events();
            for msg in [
                Message::CreditVersions(entries.clone()),
                Message::GetCredit(entries.clone()),
                Message::CreditEvents { origin: entries[0].0, first, events },
            ] {
                let mut frame = encode_msg(&msg);
                let idx = (byte_frac as usize * frame.len()) / 1000;
                frame[idx] ^= 1 << bit;
                prop_assert!(decode_msg(&frame).is_err(), "{msg:?}");
            }
        }

        #[test]
        fn prop_new_frame_truncation_rejected(
            cut_frac in 0u32..1000,
        ) {
            let msgs = vec![
                Message::PeerExchange(vec![
                    PeerEntry { node_id: 3, addr: "a:1".into() },
                    PeerEntry { node_id: 4, addr: "b:2".into() },
                ]),
                Message::Digest(vec![TxId([1; 32]), TxId([2; 32])]),
                Message::GetTxs(vec![TxId([3; 32])]),
                Message::CreditVersions(vec![(5, 6), (7, 8)]),
                Message::GetCredit(vec![(9, 10)]),
                Message::CreditEvents { origin: 11, first: 12, events: sample_events() },
            ];
            for msg in msgs {
                let frame = encode_msg(&msg);
                let cut = (cut_frac as usize * frame.len()) / 1000;
                prop_assert!(decode_msg(&frame[..cut]).is_err());
            }
        }

        #[test]
        fn prop_bit_flips_never_panic(
            data in proptest::collection::vec(any::<u8>(), 0..100),
            byte_frac in 0u32..1000,
            bit in 0u8..8,
        ) {
            // Flipped frames either decode to some other valid message or
            // error — they never panic. (Unlike the tx codec there is no
            // frame-level checksum; TCP and the tx-body checksum cover
            // integrity.)
            let msg = Message::TxPayload { attach_ms: 77, tx: sample_tx(data) };
            let mut frame = encode_msg(&msg);
            let idx = (byte_frac as usize * frame.len()) / 1000;
            frame[idx] ^= 1 << bit;
            let _ = decode_msg(&frame);
        }
    }
}
