//! # biot-net
//!
//! Virtual time for the B-IoT reproduction. The paper evaluated on a live
//! IOTA network plus a Raspberry Pi; the experiments here run on a virtual
//! clock instead, so they are reproducible and independent of host speed.
//! Message loss and partitions are not modelled here: they live on the real
//! gossip transports (`biot-gossip`), where a cut is a severed link.
//!
//! ## Modules
//!
//! * [`time`] — [`time::SimTime`], virtual milliseconds.
//! * [`queue`] — [`queue::EventQueue`], the deterministic event heap.
//! * [`latency`] — pluggable link latency models (sampled by
//!   `biot-gossip`'s jittered transport).
//!
//! ## Example: two events delivered in virtual-time order
//!
//! ```
//! use biot_net::queue::EventQueue;
//!
//! let mut queue = EventQueue::new();
//! queue.schedule_in(20, "pong");
//! queue.schedule_in(10, "ping");
//! while let Some((time, msg)) = queue.pop() {
//!     println!("{time}: {msg}");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod latency;
pub mod queue;
pub mod time;

pub use queue::EventQueue;
pub use time::SimTime;
