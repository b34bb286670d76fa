//! # biot-sim
//!
//! Smart-factory simulation harness for the B-IoT reproduction: the
//! Raspberry-Pi timing calibration, sensor workload generators, attack
//! injectors, the single-node scenario runner behind Figs 8–9, and the
//! DAG-vs-chain throughput comparison.
//!
//! ## Modules
//!
//! * [`pi`] — Pi 3B PoW/AES timing models calibrated to the paper's
//!   measured anchors.
//! * [`factory`] — sensors, cadences, and reading generators.
//! * [`runner`] — the virtual-time single-node runner (credit traces,
//!   per-transaction PoW cost).
//! * [`attack`] — measured Sybil / lazy-tips / double-spend / failover /
//!   parasite-chain experiments (§VI-C).
//! * [`loadgen`] — concurrent light-node load generation against the
//!   `biot-ingest` reactor over real sockets.
//! * [`mesh`] — N-node gossip fleet runner on one virtual-clock
//!   `EventLoop`: seeded topology, oracle workload, partition/heal,
//!   bytes-on-wire accounting. Its harness is the only fleet driver.
//! * [`roles`] — the mesh fleet with an archival and a validation node
//!   in it, fed light-client submissions: bit-for-bit convergence to an
//!   oracle twin gateway plus HTTP-vs-oracle byte equality.
//! * [`fleet`] — many honest nodes + attackers on one gateway (isolation).
//! * [`throughput`] — tangle vs chain effective-TPS comparison (§II).
//! * [`experiments`] — the one definition of Figs 7–10 and A1–A2 that
//!   their `biot-bench` binaries and the integration tests run.
//!
//! ## Example: reproduce the headline Fig 9 contrast in one call
//!
//! ```
//! use biot_sim::experiments::{averaged, fig9};
//!
//! let [original, normal, ..] = fig9::controls();
//! let seeds = &fig9::SEEDS[..1];
//! let honest = averaged(normal.policy, normal.attacks_s, seeds).avg_pow_secs;
//! let fixed = averaged(original.policy, original.attacks_s, seeds).avg_pow_secs;
//! assert!(honest < fixed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod experiments;
pub mod factory;
pub mod fleet;
pub mod loadgen;
pub mod mesh;
pub mod pi;
pub mod roles;
pub mod runner;
pub mod throughput;

pub use pi::{AesTiming, PiCalibration};
pub use runner::{run_single_node, NodeRunConfig, PolicyChoice, RunResult};
