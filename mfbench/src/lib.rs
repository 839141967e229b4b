//! End-to-end and per-layer benchmark suite for `mfhls`.
//!
//! Four workloads ([`WORKLOADS`]) drive the program from one process
//! with its `mfhls-par` pool pinned to [`THREADS`] threads:
//! `Synthesizer::run` on fixed assays under the heuristic and the
//! portfolio solver, and `SynthesisService::serve` on duplicate-heavy
//! and all-distinct NDJSON streams. An untraced run reports the
//! end-to-end metrics; a traced run replays the same inputs through the
//! program's public per-layer functions and reports where the time went.
//! Every run checks the program's outputs; see `README.md` for the
//! command line, the metrics and their bounds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod diff;
pub mod load;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod synth;
pub mod workload;

/// The workloads, in the order the suite runs them.
pub const WORKLOADS: [&str; 4] = [
    "synth-heuristic",
    "synth-portfolio",
    "serve-replay",
    "serve-unique",
];

/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 0x5EED_10AD;

/// Size of the program's `mfhls-par` pool in every workload.
pub const THREADS: usize = 2;
