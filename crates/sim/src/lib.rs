//! Deterministic discrete-event simulation engine.
//!
//! The paper evaluated its designs on the Wisconsin Wind Tunnel II, a
//! direct-execution parallel simulator. This crate provides the
//! repo-local substitute: a small, fully deterministic, single-threaded
//! discrete-event engine with
//!
//! * a [`Cycle`] time axis,
//! * an [`EventQueue`] — a calendar queue (bucketed timing wheel with
//!   an overflow heap) with strict FIFO ordering among same-cycle
//!   events, so runs are reproducible bit-for-bit; the protocol
//!   simulator's one event loop runs on it,
//! * [`FifoResource`] for occupancy-based contention modeling (memory
//!   banks, network interfaces),
//! * a tiny, stable [`Xorshift64Star`] PRNG used to generate the timing
//!   jitter that stands in for real-system load imbalance.
//!
//! # Example
//!
//! ```
//! use specdsm_sim::{Cycle, EventQueue};
//!
//! let mut q = EventQueue::new();
//! q.schedule(Cycle(10), "b");
//! q.schedule(Cycle(5), "a");
//! q.schedule(Cycle(10), "c");
//! let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
//! assert_eq!(order, vec!["a", "b", "c"]); // FIFO among equal cycles
//! ```
//!
//! How the engine fits into the whole simulator — the message
//! lifecycle and the scheduler design rationale — is documented in
//! `docs/ARCHITECTURE.md` at the repository root.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod clock;
mod queue;
mod resource;
mod rng;

pub use clock::Cycle;
pub use queue::EventQueue;
pub use resource::FifoResource;
pub use rng::Xorshift64Star;
