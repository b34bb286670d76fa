//! The credit event stream and its canonical byte codec.
//!
//! A [`CreditEvent`] is one append-only fact about a node's behaviour:
//! either a validated transaction (weight flowing into CrP, Eqn 3) or a
//! detected misbehaviour (a permanent CrN liability, Eqn 4). Everything
//! downstream — the in-memory [`crate::ledger::CreditLedger`], the
//! `biot-store` WAL, the `biot-gossip` `CreditEvents` wire message, the
//! Fig 8 traces — speaks this one type.
//!
//! ## Wire format (version 1)
//!
//! ```text
//! [u8 version = 1]
//! [u8 tag]              0 = Validated, 1 = Misbehaved
//! [32 B node id]
//! [varint at_ms]        LEB128, ≤ 10 bytes
//! tag 0: [8 B weight]   f64 bits, big-endian; must be finite
//! tag 1: [u8 kind]      0 = LazyTips, 1 = DoubleSpend
//! [4 B checksum]        low 32 bits of FNV-1a 64 over all prior bytes
//! ```
//!
//! The codec is hardened like the PR-4 tangle/wire codecs: decoding
//! consumes the whole slice (trailing bytes rejected), every truncated
//! prefix fails, and the trailing checksum makes any single bit-flip a
//! decode error rather than a silently different event.

use crate::params::Misbehavior;
use biot_net::time::SimTime;
use biot_tangle::codec::{read_varint, write_varint, VarintError};
use biot_tangle::tx::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Current (and only) codec version byte.
pub const CODEC_VERSION: u8 = 1;

/// Smallest possible encoding: version + tag + node + 1-byte varint +
/// 1-byte kind + checksum. Used by framing layers to bound allocations.
pub const MIN_ENCODED_LEN: usize = 1 + 1 + 32 + 1 + 1 + 4;

/// One append-only credit fact (the paper's "on-ledger facts" of §IV-B).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum CreditEvent {
    /// `node` issued a transaction that was validated with `weight`
    /// (attach-time weight 1, or the cumulative weight granted at
    /// confirmation).
    Validated {
        /// The issuing node.
        node: NodeId,
        /// Validation weight credited (Eqn 3's `w_k`).
        weight: f64,
        /// Virtual time the weight was granted.
        at: SimTime,
    },
    /// `node` was caught misbehaving (Eqn 5's `B_k`).
    Misbehaved {
        /// The offending node.
        node: NodeId,
        /// Which misbehaviour was detected.
        kind: Misbehavior,
        /// Virtual time of detection.
        at: SimTime,
    },
}

impl CreditEvent {
    /// Convenience constructor for a [`CreditEvent::Validated`] event.
    pub fn validated(node: NodeId, weight: f64, at: SimTime) -> Self {
        Self::Validated { node, weight, at }
    }

    /// Convenience constructor for a [`CreditEvent::Misbehaved`] event.
    pub fn misbehaved(node: NodeId, kind: Misbehavior, at: SimTime) -> Self {
        Self::Misbehaved { node, kind, at }
    }

    /// The node the event concerns.
    pub fn node(&self) -> NodeId {
        match self {
            Self::Validated { node, .. } | Self::Misbehaved { node, .. } => *node,
        }
    }

    /// The virtual time the event happened.
    pub fn at(&self) -> SimTime {
        match self {
            Self::Validated { at, .. } | Self::Misbehaved { at, .. } => *at,
        }
    }
}

/// A relayed credit event's identity: the node that first broadcast it
/// and its place in that node's sequence. It travels beside the event,
/// so the ledger's projection never sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CreditId {
    /// The originating node (`biot_gossip::GossipNode::credit_origin`).
    pub origin: u64,
    /// Position in the origin's sequence, from 0.
    pub seq: u64,
}

/// Why a byte slice failed to decode as a [`CreditEvent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CreditCodecError {
    /// The slice ended before the event did (truncation).
    UnexpectedEnd,
    /// Unknown codec version byte.
    BadVersion(u8),
    /// Unknown event tag byte.
    BadTag(u8),
    /// Unknown misbehaviour kind byte.
    BadKind(u8),
    /// A varint was malformed (too long or overflowing).
    BadVarint,
    /// The weight decoded to NaN or an infinity.
    NonFiniteWeight,
    /// The trailing checksum did not match (corruption / bit-flip).
    BadChecksum,
    /// Bytes remained after a complete event (framing error).
    TrailingBytes,
}

impl fmt::Display for CreditCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnexpectedEnd => write!(f, "credit event truncated"),
            Self::BadVersion(v) => write!(f, "unknown credit codec version {v}"),
            Self::BadTag(t) => write!(f, "unknown credit event tag {t}"),
            Self::BadKind(k) => write!(f, "unknown misbehaviour kind {k}"),
            Self::BadVarint => write!(f, "malformed varint in credit event"),
            Self::NonFiniteWeight => write!(f, "non-finite weight in credit event"),
            Self::BadChecksum => write!(f, "credit event checksum mismatch"),
            Self::TrailingBytes => write!(f, "trailing bytes after credit event"),
        }
    }
}

impl std::error::Error for CreditCodecError {}

impl From<VarintError> for CreditCodecError {
    fn from(e: VarintError) -> Self {
        match e {
            VarintError::UnexpectedEnd => Self::UnexpectedEnd,
            VarintError::Overlong => Self::BadVarint,
        }
    }
}

/// The 4-byte checksum that ends every encoded event: the low 32 bits of
/// FNV-1a 64 over `bytes`, big-endian. Any single corrupted byte changes
/// it. The `biot-store` WAL reuses it for its record heads.
pub fn checksum(bytes: &[u8]) -> [u8; 4] {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash as u32).to_be_bytes()
}

/// Encodes an event in the canonical versioned format.
pub fn encode_event(ev: &CreditEvent) -> Vec<u8> {
    let mut out = Vec::with_capacity(MIN_ENCODED_LEN + 16);
    out.push(CODEC_VERSION);
    match ev {
        CreditEvent::Validated { node, weight, at } => {
            out.push(0);
            out.extend_from_slice(&node.0);
            write_varint(&mut out, at.as_millis());
            out.extend_from_slice(&weight.to_bits().to_be_bytes());
        }
        CreditEvent::Misbehaved { node, kind, at } => {
            out.push(1);
            out.extend_from_slice(&node.0);
            write_varint(&mut out, at.as_millis());
            out.push(match kind {
                Misbehavior::LazyTips => 0,
                Misbehavior::DoubleSpend => 1,
            });
        }
    }
    let sum = checksum(&out);
    out.extend_from_slice(&sum);
    out
}

/// Decodes an event, requiring the slice to contain exactly one event.
pub fn decode_event(buf: &[u8]) -> Result<CreditEvent, CreditCodecError> {
    let mut pos = 0usize;
    let &version = buf.get(pos).ok_or(CreditCodecError::UnexpectedEnd)?;
    pos += 1;
    if version != CODEC_VERSION {
        return Err(CreditCodecError::BadVersion(version));
    }
    let &tag = buf.get(pos).ok_or(CreditCodecError::UnexpectedEnd)?;
    pos += 1;
    let node_bytes = buf
        .get(pos..pos + 32)
        .ok_or(CreditCodecError::UnexpectedEnd)?;
    let mut node = [0u8; 32];
    node.copy_from_slice(node_bytes);
    pos += 32;
    let at_ms = read_varint(buf, &mut pos)?;
    let event = match tag {
        0 => {
            let bits = buf
                .get(pos..pos + 8)
                .ok_or(CreditCodecError::UnexpectedEnd)?;
            pos += 8;
            let weight = f64::from_bits(u64::from_be_bytes(bits.try_into().unwrap()));
            if !weight.is_finite() {
                return Err(CreditCodecError::NonFiniteWeight);
            }
            CreditEvent::Validated {
                node: NodeId(node),
                weight,
                at: SimTime::from_millis(at_ms),
            }
        }
        1 => {
            let &kind = buf.get(pos).ok_or(CreditCodecError::UnexpectedEnd)?;
            pos += 1;
            let kind = match kind {
                0 => Misbehavior::LazyTips,
                1 => Misbehavior::DoubleSpend,
                other => return Err(CreditCodecError::BadKind(other)),
            };
            CreditEvent::Misbehaved {
                node: NodeId(node),
                kind,
                at: SimTime::from_millis(at_ms),
            }
        }
        other => return Err(CreditCodecError::BadTag(other)),
    };
    let body = &buf[..pos];
    let sum = buf
        .get(pos..pos + 4)
        .ok_or(CreditCodecError::UnexpectedEnd)?;
    pos += 4;
    if sum != checksum(body) {
        return Err(CreditCodecError::BadChecksum);
    }
    if pos != buf.len() {
        return Err(CreditCodecError::TrailingBytes);
    }
    Ok(event)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn samples() -> Vec<CreditEvent> {
        vec![
            CreditEvent::validated(NodeId([0; 32]), 1.0, SimTime::ZERO),
            CreditEvent::validated(NodeId([7; 32]), 1234.0, SimTime::from_millis(u64::MAX / 2)),
            CreditEvent::validated(NodeId([0xff; 32]), -3.5, SimTime::from_secs(90)),
            CreditEvent::misbehaved(NodeId([1; 32]), Misbehavior::LazyTips, SimTime::from_secs(1)),
            CreditEvent::misbehaved(
                NodeId([0xab; 32]),
                Misbehavior::DoubleSpend,
                SimTime::from_millis(123_456_789),
            ),
        ]
    }

    #[test]
    fn roundtrip_every_sample() {
        for ev in samples() {
            let bytes = encode_event(&ev);
            assert_eq!(decode_event(&bytes), Ok(ev), "{ev:?}");
        }
    }

    #[test]
    fn truncation_always_errors() {
        for ev in samples() {
            let bytes = encode_event(&ev);
            for cut in 0..bytes.len() {
                assert!(
                    decode_event(&bytes[..cut]).is_err(),
                    "prefix of {cut} bytes decoded for {ev:?}"
                );
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        for ev in samples() {
            let bytes = encode_event(&ev);
            for byte in 0..bytes.len() {
                for bit in 0..8 {
                    let mut bad = bytes.clone();
                    bad[byte] ^= 1 << bit;
                    assert!(
                        decode_event(&bad).is_err(),
                        "bit {bit} of byte {byte} slipped through for {ev:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // An `at_ms` of `[0xFF; 9] ++ [0x7F]` (six bits past u64) behind
        // a valid checksum.
        let mut buf = vec![CODEC_VERSION, 1];
        buf.extend_from_slice(&[3; 32]);
        buf.extend_from_slice(&[0xFF; 9]);
        buf.push(0x7F);
        buf.push(0);
        let sum = checksum(&buf);
        buf.extend_from_slice(&sum);
        assert_eq!(decode_event(&buf), Err(CreditCodecError::BadVarint));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_event(&samples()[0]);
        bytes.push(0);
        assert_eq!(decode_event(&bytes), Err(CreditCodecError::TrailingBytes));
    }

    #[test]
    fn bad_version_and_tag_rejected() {
        let mut bytes = encode_event(&samples()[0]);
        bytes[0] = 9;
        assert_eq!(decode_event(&bytes), Err(CreditCodecError::BadVersion(9)));
        let mut bytes = encode_event(&samples()[0]);
        bytes[1] = 7;
        // Checksum trips first on a tampered tag; both are rejections.
        assert!(decode_event(&bytes).is_err());
    }

    #[test]
    fn non_finite_weight_rejected() {
        // Hand-build a Validated event with a NaN weight and a *valid*
        // checksum, so the weight check itself is exercised.
        let mut out = vec![CODEC_VERSION, 0];
        out.extend_from_slice(&[2u8; 32]);
        out.push(5); // at_ms = 5
        out.extend_from_slice(&f64::NAN.to_bits().to_be_bytes());
        let sum = super::checksum(&out);
        out.extend_from_slice(&sum);
        assert_eq!(decode_event(&out), Err(CreditCodecError::NonFiniteWeight));
    }

    #[test]
    fn min_encoded_len_is_tight() {
        let ev = CreditEvent::misbehaved(NodeId([0; 32]), Misbehavior::LazyTips, SimTime::ZERO);
        assert_eq!(encode_event(&ev).len(), MIN_ENCODED_LEN);
        for ev in samples() {
            assert!(encode_event(&ev).len() >= MIN_ENCODED_LEN);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn random_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = decode_event(&bytes);
        }

        #[test]
        fn random_events_roundtrip(
            seed in any::<u8>(),
            weight in 0u32..1_000_000,
            at_ms in any::<u64>(),
            kind in 0u8..2,
            is_tx in any::<bool>(),
        ) {
            let node = NodeId([seed; 32]);
            let at = SimTime::from_millis(at_ms);
            let ev = if is_tx {
                CreditEvent::validated(node, weight as f64, at)
            } else {
                let kind = if kind == 0 { Misbehavior::LazyTips } else { Misbehavior::DoubleSpend };
                CreditEvent::misbehaved(node, kind, at)
            };
            let bytes = encode_event(&ev);
            prop_assert_eq!(decode_event(&bytes), Ok(ev));
        }
    }
}
