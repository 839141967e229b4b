//! The `mfhls` batched synthesis service and its versioned wire API.
//!
//! Three layers, bottom-up:
//!
//! * [`json`] — a dependency-free JSON value with a strict parser and a
//!   deterministic writer (objects keep entry order).
//! * [`api`] — the `mfhls-api/v1` NDJSON schema: [`SynthesisRequest`]
//!   (inline DSL or named benchmark, config overrides through the
//!   validating [`SynthConfig`](mfhls_core::SynthConfig) builder,
//!   requested artifacts, optional deadline), control lines
//!   (`flush`/`cancel`/`shutdown`), typed error kinds, and the response
//!   builders the CLI's `--format json` mode reuses.
//! * [`service`] — [`SynthesisService`]: deterministic admission windows,
//!   each read, solved in admission order and written on the calling
//!   thread before the next is read; a bounded whole-request
//!   [`DeltaCache`](mfhls_core::DeltaCache), an optional persistent layer
//!   store every run reads through, typed overload rejection, and
//!   byte-identical responses with the caches on or off.
//!   Runs over any `BufRead`/`Write` pair (the CLI wires up
//!   stdin/stdout) or a local TCP listener.
//!
//! ```
//! use mfhls_svc::{ServiceConfig, SynthesisService};
//! let service = SynthesisService::new(ServiceConfig::default());
//! let input = concat!(
//!     r#"{"version":"mfhls-api/v1","type":"synthesize","id":"r1","#,
//!     r#""assay":{"benchmark":"kinase"}}"#,
//!     "\n",
//! );
//! let mut out = Vec::new();
//! let summary = service.serve(std::io::BufReader::new(input.as_bytes()), &mut out)?;
//! assert_eq!(summary.solved, 1);
//! assert!(String::from_utf8(out)?.contains("\"status\":\"ok\""));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod api;
pub mod json;
pub mod netlist;
pub mod service;
pub mod shard;
pub mod spec;

pub use api::{
    benchmark_assay, parse_incoming, Artifacts, AssaySource, ErrorKind, Incoming, RequestError,
    SynthesisRequest, VERSION,
};
pub use json::{Json, JsonError};
pub use netlist::{assay_from_json, NETLIST_VERSION};
pub use service::{ServiceConfig, ServiceSummary, SynthesisService};
pub use spec::{backend_names, parse_spec, spec_from_json, spec_json, BackendInfo, BACKENDS};
