//! Typed stage boundaries of the pipelined serve plane.
//!
//! The serve loop is a pipeline of three concurrent stages over admission
//! windows, each handing the next a *typed* window value (no shared
//! mutable state crosses a stage boundary, only these structs moving
//! through bounded channels):
//!
//! ```text
//! ingest/parse ──AdmittedWindow──▶ shard dispatch + solve
//!                                  + ordered merge + serialize
//!                                         │
//!                                   SolvedWindow
//!                                         ▼
//!                                      write/flush
//! ```
//!
//! * **Ingest/parse** (the calling thread) reads NDJSON lines, admits
//!   requests, serializes admission-time rejections into the window's
//!   scratch buffer, and assigns each admitted request a shard by the
//!   stable FNV hash of its canonical bytes (see [`crate::shard`]).
//! * **Solve** (one worker thread) dispatches the batch to per-shard
//!   `mfhls-par` pools, merges the per-request results back in admission
//!   order, and appends the serialized responses to the same buffer.
//! * **Write** (one worker thread) writes the whole window with a single
//!   `write_all` + `flush`, then recycles the scratch `String` back to
//!   the ingest stage so steady-state serving allocates nothing per
//!   window.
//!
//! Stage N of window *k* runs concurrently with stage N−1 of window
//! *k+1*; the channels are bounded by `pipeline_windows − 1`, so a slow
//! writer backpressures admission instead of buffering without limit.
//! Because each window's bytes are fixed before the next window's solve
//! can publish — and windows flow through FIFO channels — the output
//! stream is byte-identical to the sequential drain loop.

use crate::service::{Pending, ShardStats};
use mfhls_store::StoreStats;

/// Ingest → solve boundary: one closed admission window.
///
/// `buf` already holds the serialized admission-time rejections (in
/// input order); the solve stage appends the batch responses (in
/// admission order) behind them.
pub(crate) struct AdmittedWindow {
    /// Response scratch for this window, recycled across windows.
    pub buf: String,
    /// Admitted requests, in admission order, each carrying its shard.
    pub batch: Vec<Pending>,
}

/// Solve → write boundary: a fully serialized window.
pub(crate) struct SolvedWindow {
    /// The window's complete response bytes: rejections then responses.
    pub buf: String,
}

/// Deterministic per-window accounting produced by the solve stage.
#[derive(Debug, Clone, Default)]
pub(crate) struct WindowStats {
    /// Requests solved successfully.
    pub solved: u64,
    /// Requests rejected at solve time (cancel/deadline/synthesis).
    pub rejected: u64,
    /// Of the rejected, how many by cancellation.
    pub cancelled: u64,
    /// Shared-cache hits (any class) drained from the per-window
    /// counters.
    pub window_hits: u64,
    /// Of `window_hits`, those filled by store read-through.
    pub window_store_hits: u64,
    /// Shared-cache misses drained from the per-window counters.
    pub window_misses: u64,
    /// Whole-request delta-cache replays in this window.
    pub delta_hits: u64,
    /// Per-shard request/hit/miss counters (length = configured shards).
    pub shards: Vec<ShardStats>,
    /// Store snapshot after this window (when a store is attached).
    pub store: Option<StoreStats>,
}

impl WindowStats {
    /// An empty record sized for `shards` worker-groups.
    pub fn new(shards: usize) -> WindowStats {
        WindowStats {
            shards: vec![ShardStats::default(); shards],
            ..WindowStats::default()
        }
    }

    /// Folds another window's counters into this one (the pipelined
    /// solve stage accumulates its totals here).
    pub fn add(&mut self, other: &WindowStats) {
        self.solved += other.solved;
        self.rejected += other.rejected;
        self.cancelled += other.cancelled;
        self.window_hits += other.window_hits;
        self.window_store_hits += other.window_store_hits;
        self.window_misses += other.window_misses;
        self.delta_hits += other.delta_hits;
        merge_shards(&mut self.shards, &other.shards);
        if other.store.is_some() {
            self.store = other.store.clone();
        }
    }
}

/// Element-wise shard-counter merge, growing `into` as needed.
pub(crate) fn merge_shards(into: &mut Vec<ShardStats>, from: &[ShardStats]) {
    if into.len() < from.len() {
        into.resize(from.len(), ShardStats::default());
    }
    for (a, b) in into.iter_mut().zip(from) {
        a.requests += b.requests;
        a.exact_hits += b.exact_hits;
        a.store_hits += b.store_hits;
        a.delta_hits += b.delta_hits;
        a.misses += b.misses;
    }
}
