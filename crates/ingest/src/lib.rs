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
//! * [`biot_reactor`] (a dependency, shared with `biot-node`'s HTTP
//!   query endpoint) — the [`biot_reactor::Poller`] abstraction:
//!   [`biot_reactor::EpollPoller`] (readiness from the kernel, O(ready)
//!   per tick), with a level-triggered [`biot_reactor::ScanPoller`]
//!   compiled in only where epoll is not; and its wall
//!   [`biot_reactor::WallClock`], whose milliseconds become the virtual
//!   [`biot_net::time::SimTime`] instants the rate limiter and credit
//!   ledger run on, so production sockets and deterministic tests share
//!   every code path.
//! * [`biot_gossip::tcp::TcpAcceptor`] — the accept path (bounded
//!   bursts, per-connection failures skipped, fd exhaustion parks the
//!   listener), shared with the gossip acceptors and the HTTP endpoint.
//! * [`protocol`] — the minimal length-prefixed client protocol:
//!   `SubmitTx` / `SubmitBatch` in, `Ack` with per-transaction result
//!   codes out.
//! * [`server`] — the [`server::IngestServer`]: accept bursts, bounded
//!   per-connection and global inflight queues, per-connection token
//!   buckets ([`biot_core::ratelimit`]), explicit `Busy` backpressure
//!   with deferred read interest, idle timeouts, and lifecycle counters.
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
