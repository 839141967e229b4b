//! # mfhls — component-oriented HLS for continuous-flow microfluidics
//!
//! A from-scratch Rust reproduction of *"Component-Oriented High-level
//! Synthesis for Continuous-Flow Microfluidics Considering
//! Hybrid-Scheduling"* (Li, Tseng, Li, Ho, Schlichtmann — DAC 2017).
//!
//! Given a bioassay described as a DAG of component-oriented operations,
//! `mfhls` produces a **hybrid schedule**: a sequence of fixed per-layer
//! sub-schedules in which every operation with an *indeterminate* duration
//! (single-cell capture, manual observation, …) runs last in its layer, so
//! cyberphysical control is needed only at layer boundaries.
//!
//! The facade re-exports the workspace crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`chip`] | `mfhls-chip` | containers, accessories, general devices, costs, netlists, layout estimation |
//! | [`core`] | `mfhls-core` | assays, layering, ILP + heuristic solvers, progressive re-synthesis, validation |
//! | [`assays`] | `mfhls-assays` | the paper's three benchmark assays + a random generator |
//! | [`sim`] | `mfhls-sim` | discrete-event execution and control-policy comparison |
//! | [`dsl`] | `mfhls-dsl` | text format for assay descriptions |
//! | [`graph`] | `mfhls-graph` | DAG utilities, max-flow/min-cut |
//! | [`ilp`] | `mfhls-ilp` | the MILP solver substrate (simplex + branch-and-bound) |
//! | [`obs`] | `mfhls-obs` | deterministic structured tracing (spans, events, counters, exporters) |
//! | [`par`] | `mfhls-par` | deterministic scoped thread pool (`par_map`, thread-count control) |
//! | [`store`] | `mfhls-store` | crash-safe on-disk solution store, the one layer tier shared across runs (`mfhls-store/v2` segments, v1 still read, fault injection, graceful degradation) |
//! | [`svc`] | `mfhls-svc` | batched synthesis service: `mfhls-api/v1` NDJSON requests over stdin/stdout or TCP, delta-cache replay, per-run layer memos reading through an optional store |
//! | [`bench`] | `mfhls-bench` | benchmark harness, seeded assay generation (`mfhls gen`) and metamorphic oracles |
//!
//! The most common items are re-exported at the top level.
//!
//! # Quickstart
//!
//! ```
//! use mfhls::{Assay, Duration, Operation, SynthConfig, Synthesizer};
//! use mfhls::chip::{Accessory, Capacity, ContainerKind};
//!
//! // A three-step protocol with an indeterminate single-cell capture.
//! let mut assay = Assay::new("quickstart");
//! let mix = assay.add_op(
//!     Operation::new("mix")
//!         .container(ContainerKind::Ring)
//!         .capacity(Capacity::Medium)
//!         .accessory(Accessory::Pump)
//!         .with_duration(Duration::fixed(10)),
//! );
//! let capture = assay.add_op(
//!     Operation::new("capture")
//!         .accessory(Accessory::CellTrap)
//!         .with_duration(Duration::at_least(3)),
//! );
//! assay.add_dependency(mix, capture)?;
//!
//! let result = Synthesizer::new(SynthConfig::default()).run(&assay)?;
//! println!("exec time: {}", result.schedule.exec_time(&assay));
//! assert_eq!(result.layering.num_layers(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mfhls_assays as assays;
pub use mfhls_bench as bench;
pub use mfhls_chip as chip;
pub use mfhls_core as core;
pub use mfhls_dsl as dsl;
pub use mfhls_graph as graph;
pub use mfhls_ilp as ilp;
pub use mfhls_obs as obs;
pub use mfhls_par as par;
pub use mfhls_sim as sim;
pub use mfhls_store as store;
pub use mfhls_svc as svc;

pub use mfhls_core::{
    layer_assay, Assay, CoreError, Duration, ExecTime, HybridSchedule, Layering, OpId, Operation,
    SolverKind, SynthConfig, SynthesisResult, Synthesizer, Weights,
};
