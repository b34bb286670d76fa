//! # biot-core
//!
//! The primary contribution of *B-IoT: Blockchain Driven Internet of
//! Things with Credit-Based Consensus Mechanism* (ICDCS 2019): a
//! credit-based proof-of-work consensus mechanism and a data authority
//! management method, layered on the DAG ledger of `biot-tangle`.
//!
//! ## Modules
//!
//! * [`pow`] — hash-prefix PoW (Eqn 6): solve, verify, virtual-time trial
//!   sampling.
//! * The credit model (Eqns 2–5: positive activity credit,
//!   hyperbolically decaying punishment) lives in [`biot_credit`].
//! * [`difficulty`] — `Cr ∝ 1/D` policies mapping credit to difficulty.
//! * [`identity`] — RSA-backed node accounts.
//! * [`authz`] — manager-signed authorization lists (Eqn 1).
//! * [`keydist`] — the 3-message symmetric-key distribution of Fig 4.
//! * [`access`] — sealing/opening sensor data per sensitivity class,
//!   plus HKDF-based epoch key rotation.
//! * [`ratelimit`] — per-device token buckets metering request rates.
//! * [`node`] — the LightNode / Gateway / Manager state machines and the
//!   Fig 6 workflow.
//!
//! ## Example: the Fig 6 workflow in miniature
//!
//! ```
//! use biot_core::difficulty::InverseProportionalPolicy;
//! use biot_core::identity::Account;
//! use biot_core::node::{Gateway, GatewayConfig, LightNode, Manager};
//! use biot_net::time::SimTime;
//!
//! let mut rng = rand::thread_rng();
//! // 1–3. The manager initializes the gateway and the tangle, and
//! // authorizes an IoT device on-ledger.
//! let mut manager = Manager::new(Account::generate(&mut rng));
//! let device = LightNode::new(Account::generate(&mut rng));
//! let (mut gateway, _genesis) = Gateway::bootstrap(
//!     &mut manager,
//!     Box::new(InverseProportionalPolicy::default()),
//!     GatewayConfig::default(),
//!     [device.public_key()],
//! );
//!
//! // 4–5. Device fetches tips, mines at its credit-based difficulty, submits.
//! let now = SimTime::from_secs(1);
//! let tips = gateway.random_tips(&mut rng).expect("tangle has tips");
//! let difficulty = gateway.difficulty_for(device.id(), now);
//! let prepared = device.prepare_reading(b"temp=21C", tips, now, difficulty, &mut rng);
//! gateway.submit(prepared.tx, now)?;
//! # Ok::<(), biot_core::node::SubmitError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod authz;
pub mod difficulty;
pub mod identity;
pub mod keydist;
pub mod node;
pub mod pow;
pub mod ratelimit;

pub use difficulty::{DifficultyPolicy, FixedPolicy, InverseProportionalPolicy, LinearPolicy};
pub use identity::Account;
pub use node::{Gateway, GatewayConfig, LightNode, Manager, PreparedTx, SubmitError};
pub use pow::Difficulty;
pub use ratelimit::{RateLimitConfig, RateLimiter};
