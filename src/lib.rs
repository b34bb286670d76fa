//! # B-IoT
//!
//! A from-scratch Rust reproduction of *"B-IoT: Blockchain Driven
//! Internet of Things with Credit-Based Consensus Mechanism"* (Huang,
//! Kong, Chen, Cheng, Wu, Liu — ICDCS 2019).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`crypto`] (`biot-crypto`) — SHA-256, AES, bignum, RSA, all from
//!   scratch.
//! * [`tangle`] (`biot-tangle`) — the DAG-structured ledger.
//! * [`chain`] (`biot-chain`) — the satoshi-style baseline.
//! * [`net`] (`biot-net`) — virtual time: clock, event queue, latency
//!   models.
//! * [`gossip`] (`biot-gossip`) — peer-to-peer tangle synchronization
//!   over in-memory or real TCP transports.
//! * [`credit`] (`biot-credit`) — the event-sourced credit ledger
//!   (Eqns 2–5 as a projection over an append-only event log).
//! * [`core`] (`biot-core`) — credit-based PoW, device management, data
//!   authority management, node roles.
//! * [`sim`] (`biot-sim`) — Pi calibration, workloads, attack and
//!   throughput experiments.
//! * [`store`] (`biot-store`) — file-backed WAL + snapshot persistence.
//! * [`node`] (`biot-node`) — archival / validation / light role
//!   runtimes with the HTTP/1.1 query API.
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! `crates/bench` for the figure-regeneration harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use biot_chain as chain;
pub use biot_core as core;
pub use biot_credit as credit;
pub use biot_crypto as crypto;
pub use biot_gossip as gossip;
pub use biot_ingest as ingest;
pub use biot_net as net;
pub use biot_node as node;
pub use biot_sim as sim;
pub use biot_store as store;
pub use biot_tangle as tangle;
