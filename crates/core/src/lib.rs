//! Component-oriented high-level synthesis for continuous-flow microfluidic
//! biochips with hybrid scheduling.
//!
//! This crate is the primary contribution of the DAC'17 paper this workspace
//! reproduces. Given a bioassay described as a DAG of component-oriented
//! operations (container + accessory [`Requirements`](mfhls_chip::Requirements),
//! fixed or *indeterminate* durations), it produces a **hybrid schedule**: a
//! sequence of per-layer sub-schedules where every indeterminate operation
//! sits at the end of its layer, so cyberphysical (real-time) termination
//! control is needed only at layer boundaries.
//!
//! Pipeline (paper section in parentheses):
//!
//! 1. [`layering`] — split the assay into layers (§3.1, Algorithm 1:
//!    dependency-based allocation + min-cut resource-based eviction).
//! 2. [`solver`] — per-layer scheduling & binding, via the faithful ILP
//!    model ([`ilp_model`], §4) and/or a scalable list-scheduling heuristic
//!    ([`heuristic`]).
//! 3. [`synth`] — the driver: device inheritance across layers, progressive
//!    re-synthesis (§3.2), transport-time refinement ([`transport`], §4.1).
//! 4. [`conventional`] — the *modified conventional* baseline of §5
//!    (signature-class matching) used for Table 2 comparisons.
//! 5. [`validate`] — checks every paper constraint on a produced schedule;
//!    used pervasively by tests and after each solver call.
//!
//! # Quickstart
//!
//! ```
//! use mfhls_chip::{Accessory, ContainerKind, Capacity};
//! use mfhls_core::{Assay, Duration, Operation, SynthConfig, Synthesizer};
//!
//! let mut assay = Assay::new("demo");
//! let mix = assay.add_op(
//!     Operation::new("mix")
//!         .container(ContainerKind::Ring)
//!         .capacity(Capacity::Medium)
//!         .accessory(Accessory::Pump)
//!         .with_duration(Duration::fixed(10)),
//! );
//! let detect = assay.add_op(
//!     Operation::new("detect")
//!         .accessory(Accessory::OpticalSystem)
//!         .with_duration(Duration::fixed(5)),
//! );
//! assay.add_dependency(mix, detect)?;
//!
//! let result = Synthesizer::new(SynthConfig::default()).run(&assay)?;
//! assert!(result.schedule.validate(&assay).is_ok());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Fallible paths must surface `CoreError`, not panic. Test code (compiled
// with the `test` cfg for the whole crate) may still unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod analysis;
mod assay;
pub mod cache;
pub mod conventional;
pub mod delta;
pub mod export;
pub mod heuristic;
pub mod ilp_model;
pub mod layering;
mod op;
mod problem;
pub mod recovery;
pub mod render;
mod schedule;
pub mod sdc_model;
pub mod solver;
pub mod synth;
pub mod transport;
pub mod validate;

pub use assay::Assay;
pub use cache::{
    structural_op_colours, CacheBacking, CacheContext, CacheCounters, CanonicalLayerKey, LayerKey,
    LayerKeyParts, SharedLayerCache,
};
pub use delta::{AssayShape, DeltaCache};
pub use layering::{layer_assay, Layering};
pub use op::{Duration, OpId, Operation};
pub use problem::{LayerProblem, Weights};
pub use recovery::{resynthesize_suffix, Degradation, RecoveryPlan, RetryPolicy};
pub use schedule::{ExecTime, HybridSchedule, LayerSchedule, ScheduledOp};
pub use sdc_model::{skeleton_makespan, SdcLayerSolver};
pub use solver::{
    LayerSolution, LayerSolver, SolverKind, SolverStats, PORTFOLIO_ILP_OP_LIMIT,
    PORTFOLIO_ILP_PIVOT_WORK,
};
pub use synth::{IterationStats, SynthConfig, SynthConfigBuilder, SynthesisResult, Synthesizer};
pub use transport::{Progression, TransportConfig, TransportTimes};

/// Errors produced by the synthesis pipeline.
///
/// `#[non_exhaustive]`: downstream matches need a wildcard arm so future
/// variants are not breaking changes.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A configuration failed validation (see
    /// [`SynthConfig::validate`]).
    Config(String),
    /// The assay dependency graph is cyclic.
    CyclicAssay,
    /// An operation id does not belong to the assay.
    UnknownOp(usize),
    /// An indeterminate operation has a child in the same layer, or another
    /// structural layering invariant failed.
    Layering(String),
    /// No device can satisfy an operation's requirements within the device
    /// budget.
    DeviceBudgetExhausted {
        /// Operation that could not be bound.
        op: usize,
        /// Configured maximum number of devices.
        max_devices: usize,
    },
    /// The exact solver failed (propagated from `mfhls-ilp`).
    Ilp(String),
    /// A produced schedule violated a paper constraint (validator message).
    InvalidSchedule(String),
    /// An internal pipeline invariant failed — always a bug, but surfaced
    /// as an error so callers (the CLI, the recovery loop) degrade
    /// gracefully instead of unwinding.
    Internal(String),
    /// Recovery re-synthesis could not produce a usable suffix schedule.
    Recovery(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Config(m) => write!(f, "invalid configuration: {m}"),
            CoreError::CyclicAssay => write!(f, "assay dependency graph contains a cycle"),
            CoreError::UnknownOp(i) => write!(f, "unknown operation id {i}"),
            CoreError::Layering(m) => write!(f, "layering failed: {m}"),
            CoreError::DeviceBudgetExhausted { op, max_devices } => write!(
                f,
                "operation {op} cannot be bound within the budget of {max_devices} devices"
            ),
            CoreError::Ilp(m) => write!(f, "ilp solver: {m}"),
            CoreError::InvalidSchedule(m) => write!(f, "invalid schedule: {m}"),
            CoreError::Internal(m) => write!(f, "internal invariant violated: {m}"),
            CoreError::Recovery(m) => write!(f, "recovery failed: {m}"),
        }
    }
}

impl std::error::Error for CoreError {}
