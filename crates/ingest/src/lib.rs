//! # biot-ingest
//!
//! The admission front end of a B-IoT gateway: a single-threaded
//! readiness reactor serving thousands of concurrent light-node
//! connections over real TCP sockets, feeding the gateway's
//! `submit_batch`.
//!
//! The paper's gateway is the chokepoint every IoT device goes through
//! (authorization list of Eqn 1, signature check, credit-scaled PoW).
//! Serving "heavy traffic from millions of users" therefore starts here:
//! the per-connection poll loop that was fine for two gossiping replicas
//! (`biot-gossip`) burns one read syscall per connection per tick whether
//! or not the device said anything. This crate replaces that with a
//! mio-style event loop — the kernel tells us *which* sockets are ready
//! and only those are touched.
//!
//! ## Layering
//!
//! * [`biot_gossip::tcp::ConnTable`] — the connection lifecycle, shared
//!   with `biot-node`'s HTTP query endpoint: the listener and its bounded
//!   accept bursts, a nested epoll poller (O(ready) per tick), interest
//!   diffing, the hang-up reap, the resume list and the idle sweep.
//!   Callers pass the instant as a [`biot_net::time::SimTime`] — a
//!   wall clock's milliseconds in production, virtual time in tests — so
//!   both share every code path.
//! * [`protocol`] — the minimal length-prefixed client protocol:
//!   `SubmitTx` / `SubmitBatch` in, `Ack` with per-transaction result
//!   codes out.
//! * [`server`] — the [`server::IngestServer`]: bounded per-connection
//!   and global inflight queues, per-connection token buckets
//!   ([`biot_core::ratelimit`]), explicit `Busy` backpressure with
//!   deferred read interest, and admission counters.
//!
//! Admission results are **bit-identical** to calling
//! [`biot_core::node::Gateway::submit_batch`] directly on the same
//! transaction stream: the reactor only changes *who reads the bytes*,
//! never the admission decision (see `tests/ingest_e2e.rs`).

#![warn(missing_docs)]

pub mod protocol;
pub mod server;

pub use protocol::{AckCode, ClientMsg, ProtocolError, ServerMsg};
pub use server::{IngestConfig, IngestServer, IngestStats, PollProgress};
