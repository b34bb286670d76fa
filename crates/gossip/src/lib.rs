//! # biot-gossip
//!
//! Peer-to-peer tangle synchronization for B-IoT nodes: a versioned wire
//! protocol, pluggable transports (in-memory loopback for deterministic
//! tests, jittered loopback for network-realism, real non-blocking TCP
//! for deployments), and a poll-driven [`node::GossipNode`] that keeps a
//! replica's DAG converged with its peers.
//!
//! The paper's architecture (§III) has gateways maintain a common tangle;
//! this crate supplies the missing distribution layer: digest/pull
//! broadcast of new transactions, a solidification queue for out-of-order
//! arrival, periodic anti-entropy tip exchange (which also brings a
//! cold-started replica the whole ledger, down to the genesis), and
//! reconnect with capped, jittered exponential backoff.
//!
//! [`node::GossipNode`] runs N-node meshes: identified peers (a
//! `node_id` and an advertised listen address), peer-exchange discovery
//! from a single seed, bounded-fanout relay with a fixed-memory
//! duplicate-suppression cache, and digest-batched announces
//! ([`node::RelayMode::Digest`], the default) that coalesce
//! per-transaction frames into id digests pulled on demand.
//!
//! ## Layering
//!
//! * [`wire`] — message enum + canonical byte encoding (reuses
//!   `biot_tangle::codec` for transaction bodies).
//! * [`transport`] — the byte-frame [`transport::Transport`] trait,
//!   [`transport::MemTransport`] pairs, and the deterministic
//!   [`transport::JitterTransport`] wrapper.
//! * [`tcp`] — `std::net` non-blocking sockets with 4-byte length-prefix
//!   framing (no async runtime), and the connection table the ingest and
//!   HTTP servers share.
//! * [`node`] — the protocol state machine.
//!
//! ## Example
//!
//! ```
//! use biot_gossip::node::{GossipConfig, GossipNode};
//! use biot_gossip::transport::MemTransport;
//! use biot_tangle::tx::NodeId;
//!
//! // Two nodes joined by an in-memory pipe.
//! let mut a = GossipNode::with_empty_tangle(GossipConfig::default());
//! let mut b = GossipNode::with_empty_tangle(GossipConfig::default());
//! let genesis = a.tangle().lock().unwrap().attach_genesis(NodeId([0; 32]), 0);
//!
//! let (ta, tb, _link) = MemTransport::pair();
//! a.add_transport(Box::new(ta), 0);
//! b.add_transport(Box::new(tb), 0);
//!
//! // A few polls of virtual time and B has learned A's ledger.
//! for step in 0..20u64 {
//!     a.poll(step * 100);
//!     b.poll(step * 100);
//! }
//! assert!(b.tangle().lock().unwrap().contains(&genesis));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod node;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use node::{
    GossipConfig, GossipNode, GossipStats, PeerInfo, PeerState, RelayMode, SharedTangle,
};
pub use transport::{
    ByteCounter, Connector, CountingTransport, Dialer, MemTransport, Transport, TransportError,
};
pub use wire::{Message, PeerEntry, PROTOCOL_VERSION};
