//! # simclock — deterministic simulation time
//!
//! Foundations shared by every simulator in the smart-city cyberinfrastructure:
//!
//! - [`SimTime`] / [`SimDuration`]: microsecond-resolution virtual time.
//! - [`VirtualClock`]: a monotonically advancing clock.
//! - [`EventQueue`]: a stable priority queue of timestamped events (ties break
//!   by insertion order so simulations are reproducible).
//! - [`SeededRng`]: a tiny, fast, fully deterministic xorshift* PRNG used
//!   wherever cross-platform bit-for-bit reproducibility matters.
//! - [`hash`]: the one FNV-1a / splitmix64 implementation every routing
//!   key, checksum and fingerprint in the workspace goes through.
//!
//! # Examples
//!
//! ```
//! use simclock::{EventQueue, SimTime, SimDuration};
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_millis(5), "b");
//! q.schedule(SimTime::from_millis(1), "a");
//! let (t, e) = q.pop().unwrap();
//! assert_eq!(t, SimTime::from_millis(1));
//! assert_eq!(e, "a");
//! ```

mod event_queue;
pub mod hash;
mod rng;
mod time;

pub use event_queue::EventQueue;
pub use rng::SeededRng;
pub use time::{SimDuration, SimTime, VirtualClock};
