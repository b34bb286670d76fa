//! # biot-credit
//!
//! The credit model of the paper (§IV-B, Eqns 2–5), refactored as an
//! **event-sourced subsystem**: every credit-relevant fact is a
//! [`event::CreditEvent`] — a validated transaction or a detected
//! misbehaviour — and a node's credit is a *projection* over the
//! append-only stream of those events.
//!
//! ```text
//! Cr_i = λ1·CrP_i + λ2·CrN_i                       (Eqn 2)
//! CrP_i = Σ_{k=1..n_i} w_k / ΔT                    (Eqn 3)
//! CrN_i = − Σ_{k=1..m_i} α(B_k) · ΔT / (t − t_k)   (Eqn 4)
//! α(B)  = α_l for lazy tips, α_d for double-spend  (Eqn 5)
//! ```
//!
//! The paper states that credit "cannot be forged or tampered" because it
//! is a pure function of on-ledger facts. Making the facts first-class
//! events delivers on that: the same event stream can be persisted to a
//! WAL (`biot-store`), relayed to replicas (`biot-gossip`), and replayed
//! into a fresh [`ledger::CreditLedger`] to reproduce the identical
//! credit — so misbehaviour survives restarts and replicas converge on
//! Cr, and therefore on PoW difficulty.
//!
//! ## Layering
//!
//! * [`event`] — [`event::CreditEvent`] and its canonical, versioned,
//!   checksummed byte codec (hardened like the tangle/wire codecs:
//!   truncation and bit-flips are rejected).
//! * [`ledger`] — [`ledger::CreditLedger`], the projection. Queries are
//!   incremental (per-node sliding-window prefix sums for CrP, an
//!   epoch-cached CrN) while the naive Eqn 2–5 scan survives as
//!   [`ledger::CreditLedger::credit_of_recount`], the bit-for-bit test
//!   oracle — the same indexed-vs-recount pattern as the tangle's weight
//!   index and tip selection.
//!
//! ## Example
//!
//! ```
//! use biot_credit::{CreditEvent, CreditLedger, CreditParams, Misbehavior};
//! use biot_net::time::SimTime;
//! use biot_tangle::tx::NodeId;
//!
//! let mut ledger = CreditLedger::new(CreditParams::default());
//! let node = NodeId([1; 32]);
//! ledger.apply(&CreditEvent::validated(node, 2.0, SimTime::from_secs(1)));
//! let good = ledger.credit_of(node, SimTime::from_secs(2)).combined;
//! ledger.apply(&CreditEvent::misbehaved(
//!     node,
//!     Misbehavior::DoubleSpend,
//!     SimTime::from_secs(3),
//! ));
//! let bad = ledger.credit_of(node, SimTime::from_secs(4)).combined;
//! assert!(bad < good);
//!
//! // The projection is replayable: the same events rebuild the same credit.
//! let events = ledger.snapshot_events();
//! let replayed = CreditLedger::from_events(CreditParams::default(), &events);
//! assert_eq!(
//!     replayed.credit_of(node, SimTime::from_secs(4)),
//!     ledger.credit_of(node, SimTime::from_secs(4)),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod ledger;
pub mod params;

pub use event::{decode_event, encode_event, CreditCodecError, CreditEvent, CreditId};
pub use ledger::CreditLedger;
pub use params::{CreditBreakdown, CreditParams, Misbehavior};
