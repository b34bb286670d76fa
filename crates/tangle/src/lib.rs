//! # biot-tangle
//!
//! A from-scratch DAG-structured ledger ("tangle") — the substrate B-IoT
//! builds on (paper §II-B, §IV-A). Every transaction approves two earlier
//! transactions; validity accumulates asynchronously as later transactions
//! approve earlier ones, replacing the synchronous longest-chain rule of
//! satoshi-style blockchains.
//!
//! ## Modules
//!
//! * [`tx`] — transactions, ids, payloads, builder, and
//!   [`tx::IdentifiedTx`], a body paired with the id derived from it.
//! * [`graph`] — the [`graph::Tangle`] store: attach, tips, cumulative
//!   weight, confirmation, double-spend rejection, snapshots.
//! * [`tips`] — tip-selection strategies (uniform, weighted MCMC,
//!   depth-constrained MCMC, and the malicious fixed-pair selector).
//! * [`conflict`] — lazy-tip detection policy.
//!
//! ## Example
//!
//! ```
//! use biot_tangle::graph::Tangle;
//! use biot_tangle::tips::{TipSelector, UniformRandomSelector};
//! use biot_tangle::tx::{NodeId, Payload, TransactionBuilder};
//!
//! let mut tangle = Tangle::new();
//! let genesis = tangle.attach_genesis(NodeId([0; 32]), 0);
//!
//! let mut rng = rand::thread_rng();
//! let (trunk, branch) = UniformRandomSelector
//!     .select_tips(&tangle, &mut rng)
//!     .expect("genesis is a tip");
//! let tx = TransactionBuilder::new(NodeId([1; 32]))
//!     .parents(trunk, branch)
//!     .payload(Payload::Data(b"temp=21.5".to_vec()))
//!     .timestamp_ms(100)
//!     .build();
//! tangle.attach(tx, 100)?;
//! assert_eq!(tangle.len(), 2);
//! # Ok::<(), biot_tangle::graph::TangleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod conflict;
pub mod proof;
mod slots;
pub mod snapshot;
pub mod stats;
pub mod graph;
pub mod tips;
pub mod viz;
pub mod tx;

pub use graph::{SealError, SealStats, Tangle, TangleError, TxStatus};
pub use snapshot::TangleSnapshot;
pub use tx::{IdentifiedTx, NodeId, Payload, Transaction, TransactionBuilder, TxId};
