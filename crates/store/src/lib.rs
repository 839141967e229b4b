//! `mfhls-store` — a crash-safe, zero-dependency, on-disk solution store.
//!
//! The `mfhls serve` service memoizes per-layer scheduling solutions in a
//! bounded in-memory [`SharedLayerCache`](mfhls_core::SharedLayerCache);
//! this crate persists those entries across process restarts, so a
//! restarted service warms instantly instead of re-solving its whole
//! working set. The store is strictly a **pure accelerator**: it can only
//! ever hand back solutions it was previously handed for exactly the same
//! `(context, key)` pair, and every storage fault — short write, torn
//! tail, bit rot, full disk, unreadable file, crash mid-append — degrades
//! it gracefully to memory-only operation. A response byte never depends
//! on the store's health.
//!
//! Three layers:
//!
//! * [`io`] — the [`StoreIo`] seam every file access goes through, with a
//!   real filesystem implementation ([`RealIo`]), an in-memory one for
//!   hermetic tests ([`MemIo`]), and a seeded deterministic
//!   fault-injecting decorator ([`FaultyIo`]) covering the five fault
//!   classes of [`FaultKind`].
//! * [`format`] — the `mfhls-store/v2` segment format (v1 segments and
//!   every record kind since are still read): magic-headed append-only
//!   segments of `kind ‖ len ‖ checksum ‖ payload` records, with a
//!   scanner that quarantines corrupt records and detects torn tails
//!   without ever panicking.
//! * [`store`] — [`SolutionStore`]: open/scan/quarantine, bulk warm-load
//!   into a `SharedLayerCache`, deduplicated appends with atomic segment
//!   rotation, read-through fetch, and the degradation state machine,
//!   all surfaced through [`StoreStats`] and `store_*` obs counters.
//!
//! ```
//! use mfhls_store::{MemIo, SolutionStore, StoreConfig};
//! use std::sync::Arc;
//!
//! let io = Arc::new(MemIo::new());
//! let store = SolutionStore::open("/store", StoreConfig::default(), io);
//! assert!(!store.is_degraded());
//! assert_eq!(store.stats().loaded, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod codec;
pub mod error;
pub mod format;
pub mod io;
pub mod store;

pub use error::{CorruptKind, StoreError, StoreOp};
pub use format::{SegmentScan, SolutionRecord};
pub use io::{FaultKind, FaultPlan, FaultyIo, MemIo, RealIo, StoreIo};
pub use store::{SolutionStore, StoreConfig, StoreStats};
