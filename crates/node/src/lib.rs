//! biot-node: role runtimes for the B-IoT network.
//!
//! The workspace's other crates each own one mechanism — the tangle,
//! the credit ledger, admission, gossip, storage, the reactor. This
//! crate owns *composition*: which of those a real participant actually
//! runs. Three shapes exist ([`role::Role`]):
//!
//! - **archival** ([`role::ArchivalNode`]): full history, snapshot
//!   boot from `biot-store`, mesh sync, and a from-scratch HTTP/1.1
//!   query endpoint ([`query::QueryServer`] serving [`api`]) driven by
//!   the shared `biot-reactor` poller;
//! - **validation** ([`role::ValidationNode`]): a `biot-core`
//!   [`Gateway`](biot_core::node::Gateway) bridged onto the mesh, with
//!   an ingest front end for light clients and a hard
//!   replay-the-event-log credit cross-check;
//! - **light** ([`role::LightClient`]): keys, mining, signing, and the
//!   ingest wire protocol — nothing else.
//!
//! The HTTP stack is deliberately dependency-free and deterministic:
//! [`http`] is an incremental parser with hard caps and no allocation
//! games, and [`api`] renders every response as a pure function of
//! `(state, request)` — no `Date` header, no randomness — so a test can
//! demand byte equality between a socket and an in-process oracle.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod event_loop;
pub mod http;
pub mod query;
pub mod role;

pub use api::{ApiState, HealthInfo};
pub use event_loop::{EventLoop, EventLoopError, MemberId};
pub use http::{HttpError, Request, RequestParser};
pub use query::{QueryServer, QueryStats};
pub use role::{
    ArchivalBootError, ArchivalNode, BootSource, LightClient, ReplayDivergence, Role, RoleConfig,
    ValidationNode,
};
