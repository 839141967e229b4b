//! The versioned `mfhls-api/v1` request/response schema.
//!
//! Every wire object — request, control, response — is one JSON object
//! per line (NDJSON) carrying an explicit `"version"` field, so clients
//! and servers can detect mismatches instead of misparsing each other.
//!
//! # Requests
//!
//! ```json
//! {"version":"mfhls-api/v1","type":"synthesize","id":"r1",
//!  "assay":{"dsl":"assay \"x\"\nop a { duration: 1m }"},
//!  "config":{"max_devices":12,"solver":"hybrid"},
//!  "artifacts":["stats","schedule"],"deadline_ms":60000}
//! ```
//!
//! The assay is inline DSL (`{"dsl":"..."}`), a named generator
//! (`{"benchmark":"kinase","scale":2}` — see [`benchmark_assay`]), or an
//! inline `mfhls-netlist/v1` object (`{"netlist":{...}}` — see
//! [`crate::netlist`]).
//! `config` entries override [`SynthConfig::default`] through the
//! validating builder; unknown keys are rejected (the service equivalent
//! of the CLI's unknown-flag errors). `artifacts` selects response
//! payloads: `stats` (default), `schedule`, `gantt`, `trace`
//! (deterministic logical fingerprint of the synthesis trace), and
//! `diagnostics` (runtime and cache split — **not** covered by the
//! byte-identity guarantee, which is why it is opt-in).
//!
//! Control lines share the envelope: `{"type":"flush"}` forces the
//! pending batch to execute, `{"type":"cancel","id":"r1"}` cancels a
//! pending request, `{"type":"shutdown"}` flushes and stops the service.
//! (A `version` field is optional on controls but checked if present.)
//!
//! # Responses
//!
//! ```json
//! {"version":"mfhls-api/v1","type":"response","id":"r1","status":"ok",
//!  "stats":{"ops":16,"layers":1,"exec_time":{"fixed":107,"indeterminate_layers":[]},...}}
//! {"version":"mfhls-api/v1","type":"response","id":"r9","status":"error",
//!  "error":{"kind":"overloaded","message":"queue full (capacity 128)"}}
//! ```
//!
//! Everything outside `diagnostics` is deterministic: identical requests
//! produce byte-identical response lines at any worker count.

use crate::json::{obj, Json};
use mfhls_core::{
    Assay, CoreError, IterationStats, SolverKind, SynthConfig, SynthesisResult, Weights,
};
use mfhls_sim::trials::{SurvivalStats, TrialStats};

/// The wire-protocol version tag carried by every request and response.
pub const VERSION: &str = "mfhls-api/v1";

/// Typed rejection categories of the `mfhls-api/v1` protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorKind {
    /// The line is not valid JSON or misses required envelope fields.
    MalformedRequest,
    /// The `version` field does not match [`VERSION`].
    UnsupportedVersion,
    /// The admission queue is full; retry after the current batch.
    Overloaded,
    /// The request's deadline had already passed when a worker picked it
    /// up.
    DeadlineExceeded,
    /// The request was cancelled before it ran.
    Cancelled,
    /// The inline DSL failed to parse (or exceeded the op limit).
    ParseError,
    /// The configuration overrides failed validation.
    ConfigError,
    /// Synthesis itself failed ([`CoreError`] text in the message).
    SynthesisError,
}

impl ErrorKind {
    /// The wire encoding of the kind (snake_case).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::MalformedRequest => "malformed_request",
            ErrorKind::UnsupportedVersion => "unsupported_version",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::Cancelled => "cancelled",
            ErrorKind::ParseError => "parse_error",
            ErrorKind::ConfigError => "config_error",
            ErrorKind::SynthesisError => "synthesis_error",
        }
    }
}

/// A typed request rejection: the kind selects the wire `error.kind`,
/// the message is surfaced verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// Rejection category.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl RequestError {
    fn new(kind: ErrorKind, message: impl Into<String>) -> RequestError {
        RequestError {
            kind,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.message)
    }
}

impl std::error::Error for RequestError {}

/// Where the request's assay comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum AssaySource {
    /// Inline DSL text (see `mfhls-dsl`).
    Dsl(String),
    /// A named generator from `mfhls-assays`.
    Benchmark {
        /// Generator name (see [`benchmark_assay`]).
        name: String,
        /// Optional scale parameter (samples / cells); generator default
        /// when absent.
        scale: Option<usize>,
    },
    /// An inline `mfhls-netlist/v1` object (see [`crate::netlist`]);
    /// validated field-by-field at resolution time.
    Netlist(Json),
}

/// Which payloads the response should carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Artifacts {
    /// Deterministic synthesis statistics (`stats`; on by default).
    pub stats: bool,
    /// The full schedule (`schedule`).
    pub schedule: bool,
    /// ASCII Gantt chart (`gantt`).
    pub gantt: bool,
    /// Logical fingerprint of the synthesis trace (`trace`).
    pub trace: bool,
    /// Runtime + cache split (`diagnostics`; excluded from the
    /// byte-identity guarantee).
    pub diagnostics: bool,
}

impl Default for Artifacts {
    fn default() -> Self {
        Artifacts {
            stats: true,
            schedule: false,
            gantt: false,
            trace: false,
            diagnostics: false,
        }
    }
}

/// A parsed, not-yet-validated synthesis request.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisRequest {
    /// Client-chosen identifier, echoed on the response.
    pub id: String,
    /// Assay source.
    pub assay: AssaySource,
    /// Configuration overrides (raw JSON; resolved by
    /// [`SynthesisRequest::resolve_config`]).
    pub config: Option<Json>,
    /// Requested response payloads.
    pub artifacts: Artifacts,
    /// Optional deadline in milliseconds from admission. `0` means
    /// "already expired" — useful for deterministic cancellation tests.
    pub deadline_ms: Option<u64>,
}

/// One parsed wire line.
#[derive(Debug, Clone, PartialEq)]
pub enum Incoming {
    /// A synthesis request.
    Synthesize(Box<SynthesisRequest>),
    /// Execute the pending batch now.
    Flush,
    /// Cancel the pending request with this id.
    Cancel(String),
    /// Flush, then stop serving.
    Shutdown,
}

/// Parses one NDJSON line into a request or control.
///
/// # Errors
///
/// [`RequestError`] with kind [`ErrorKind::MalformedRequest`] for JSON or
/// envelope problems, [`ErrorKind::UnsupportedVersion`] for a version
/// mismatch.
pub fn parse_incoming(line: &str) -> Result<Incoming, RequestError> {
    let value = Json::parse(line).map_err(|e| {
        RequestError::new(ErrorKind::MalformedRequest, format!("invalid JSON: {e}"))
    })?;
    if value.as_object().is_none() {
        return Err(RequestError::new(
            ErrorKind::MalformedRequest,
            "expected a JSON object",
        ));
    }
    let kind = value
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| RequestError::new(ErrorKind::MalformedRequest, "missing 'type' field"))?;
    // Controls may omit the version; requests must carry it.
    if let Some(v) = value.get("version") {
        match v.as_str() {
            Some(VERSION) => {}
            Some(other) => {
                return Err(RequestError::new(
                    ErrorKind::UnsupportedVersion,
                    format!("version '{other}' is not supported (want '{VERSION}')"),
                ))
            }
            None => {
                return Err(RequestError::new(
                    ErrorKind::MalformedRequest,
                    "'version' must be a string",
                ))
            }
        }
    }
    match kind {
        "flush" => return Ok(Incoming::Flush),
        "shutdown" => return Ok(Incoming::Shutdown),
        "cancel" => {
            let id = value.get("id").and_then(Json::as_str).ok_or_else(|| {
                RequestError::new(ErrorKind::MalformedRequest, "cancel needs a string 'id'")
            })?;
            return Ok(Incoming::Cancel(id.to_owned()));
        }
        "synthesize" => {}
        other => {
            return Err(RequestError::new(
                ErrorKind::MalformedRequest,
                format!("unknown type '{other}' (synthesize|flush|cancel|shutdown)"),
            ))
        }
    }
    if value.get("version").is_none() {
        return Err(RequestError::new(
            ErrorKind::MalformedRequest,
            format!("synthesize requests must carry \"version\":\"{VERSION}\""),
        ));
    }
    let id = value
        .get("id")
        .and_then(Json::as_str)
        .filter(|s| !s.is_empty())
        .ok_or_else(|| {
            RequestError::new(
                ErrorKind::MalformedRequest,
                "synthesize needs a non-empty string 'id'",
            )
        })?
        .to_owned();
    let assay_field = value
        .get("assay")
        .ok_or_else(|| RequestError::new(ErrorKind::MalformedRequest, "missing 'assay' field"))?;
    let assay = if let Some(dsl) = assay_field.get("dsl").and_then(Json::as_str) {
        AssaySource::Dsl(dsl.to_owned())
    } else if let Some(name) = assay_field.get("benchmark").and_then(Json::as_str) {
        let scale = match assay_field.get("scale") {
            None => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| {
                RequestError::new(
                    ErrorKind::MalformedRequest,
                    "'scale' must be a non-negative integer",
                )
            })? as usize),
        };
        AssaySource::Benchmark {
            name: name.to_owned(),
            scale,
        }
    } else if let Some(net) = assay_field.get("netlist") {
        if net.as_object().is_none() {
            return Err(RequestError::new(
                ErrorKind::MalformedRequest,
                "'assay.netlist' must be an object (mfhls-netlist/v1)",
            ));
        }
        AssaySource::Netlist(net.clone())
    } else {
        return Err(RequestError::new(
            ErrorKind::MalformedRequest,
            "'assay' needs {\"dsl\":\"...\"}, {\"benchmark\":\"name\"}, or {\"netlist\":{...}}",
        ));
    };
    let artifacts = match value.get("artifacts") {
        None => Artifacts::default(),
        Some(list) => {
            let items = list.as_array().ok_or_else(|| {
                RequestError::new(ErrorKind::MalformedRequest, "'artifacts' must be an array")
            })?;
            let mut a = Artifacts {
                stats: false,
                ..Artifacts::default()
            };
            for item in items {
                match item.as_str() {
                    Some("stats") => a.stats = true,
                    Some("schedule") => a.schedule = true,
                    Some("gantt") => a.gantt = true,
                    Some("trace") => a.trace = true,
                    Some("diagnostics") => a.diagnostics = true,
                    other => {
                        return Err(RequestError::new(
                            ErrorKind::MalformedRequest,
                            format!(
                                "unknown artifact {other:?} \
                                 (stats|schedule|gantt|trace|diagnostics)"
                            ),
                        ))
                    }
                }
            }
            a
        }
    };
    let deadline_ms = match value.get("deadline_ms") {
        None => None,
        Some(v) => Some(v.as_u64().ok_or_else(|| {
            RequestError::new(
                ErrorKind::MalformedRequest,
                "'deadline_ms' must be a non-negative integer",
            )
        })?),
    };
    Ok(Incoming::Synthesize(Box::new(SynthesisRequest {
        id,
        assay,
        config: value.get("config").cloned(),
        artifacts,
        deadline_ms,
    })))
}

/// Maps a solver spec in flag syntax to the [`SolverKind`] the CLI and
/// the service both use — a bare backend name (`heuristic`, `sdc`, `ilp`,
/// `hybrid`, `portfolio`), a parameterized form
/// (`hybrid:max_nodes=20000`), or a portfolio leg list
/// (`portfolio:heuristic+sdc+ilp`). The backend registry lives in
/// [`crate::spec`]; this is a thin alias for [`crate::spec::parse_spec`].
///
/// # Errors
///
/// A targeted message naming the unknown solver (with the registered
/// names) or the offending field/value.
pub fn solver_from_str(name: &str) -> Result<SolverKind, String> {
    crate::spec::parse_spec(name)
}

/// Instantiates a named benchmark assay: `kinase` (scale = samples,
/// default 2), `gene` (cells, default 10), `rtqpcr` (cells, default 20),
/// `cell-culture` (chambers, default 4).
///
/// # Errors
///
/// A message naming the unknown benchmark.
pub fn benchmark_assay(name: &str, scale: Option<usize>) -> Result<Assay, String> {
    match name {
        "kinase" | "kinase_activity" => Ok(mfhls_assays::kinase_activity(scale.unwrap_or(2))),
        "gene" | "gene_expression" => Ok(mfhls_assays::gene_expression(scale.unwrap_or(10))),
        "rtqpcr" => Ok(mfhls_assays::rtqpcr(scale.unwrap_or(20))),
        "cell-culture" | "cell_culture" => Ok(mfhls_assays::cell_culture(scale.unwrap_or(4), 2)),
        other => Err(format!(
            "unknown benchmark '{other}' (kinase|gene|rtqpcr|cell-culture)"
        )),
    }
}

impl SynthesisRequest {
    /// Re-serializes the request into its canonical byte form: the same
    /// fields a client sent, written through the deterministic [`Json`]
    /// writer in a fixed field order, independent of the wire line's
    /// whitespace, key order, or escaping choices. This is the input to
    /// shard routing ([`crate::shard::shard_of`]) — two requests with
    /// identical content always land on the same shard, on any process.
    pub fn canonical_request_bytes(&self) -> Vec<u8> {
        let assay = match &self.assay {
            AssaySource::Dsl(text) => obj(vec![("dsl", Json::Str(text.clone()))]),
            AssaySource::Benchmark { name, scale } => {
                let mut entries = vec![("benchmark", Json::Str(name.clone()))];
                if let Some(scale) = scale {
                    entries.push(("scale", Json::Int(*scale as i64)));
                }
                obj(entries)
            }
            AssaySource::Netlist(value) => obj(vec![("netlist", value.clone())]),
        };
        let mut artifacts = Vec::new();
        for (on, name) in [
            (self.artifacts.stats, "stats"),
            (self.artifacts.schedule, "schedule"),
            (self.artifacts.gantt, "gantt"),
            (self.artifacts.trace, "trace"),
            (self.artifacts.diagnostics, "diagnostics"),
        ] {
            if on {
                artifacts.push(Json::Str(name.to_owned()));
            }
        }
        let mut entries = vec![("id", Json::Str(self.id.clone())), ("assay", assay)];
        if let Some(config) = &self.config {
            entries.push(("config", config.clone()));
        }
        entries.push(("artifacts", Json::Array(artifacts)));
        if let Some(ms) = self.deadline_ms {
            entries.push(("deadline_ms", Json::Int(ms as i64)));
        }
        let mut out = String::new();
        obj(entries).write(&mut out);
        out.into_bytes()
    }

    /// Materializes the assay (parsing inline DSL or an
    /// `mfhls-netlist/v1` object with `max_ops` as the admission bound,
    /// or instantiating a named benchmark).
    ///
    /// # Errors
    ///
    /// [`ErrorKind::ParseError`] with the DSL error, the netlist error
    /// naming the offending field, or the op-limit / unknown-benchmark
    /// message.
    pub fn resolve_assay(&self, max_ops: usize) -> Result<Assay, RequestError> {
        match &self.assay {
            AssaySource::Dsl(text) => mfhls_dsl::parse_with_limit(text, max_ops)
                .map_err(|e| RequestError::new(ErrorKind::ParseError, e.to_string())),
            AssaySource::Netlist(value) => crate::netlist::assay_from_json(value, max_ops)
                .map_err(|m| RequestError::new(ErrorKind::ParseError, m)),
            AssaySource::Benchmark { name, scale } => {
                let assay = benchmark_assay(name, *scale)
                    .map_err(|m| RequestError::new(ErrorKind::ParseError, m))?;
                if assay.len() > max_ops {
                    return Err(RequestError::new(
                        ErrorKind::ParseError,
                        format!(
                            "benchmark '{name}' defines {} operations, exceeding the limit of {max_ops}",
                            assay.len()
                        ),
                    ));
                }
                Ok(assay)
            }
        }
    }

    /// Applies the request's `config` overrides onto
    /// [`SynthConfig::default`] through the validating builder.
    ///
    /// Recognized keys: `max_devices`, `threshold`, `weights` (array of
    /// four), `solver` (flag-syntax string or structured object, see
    /// [`crate::spec`]), `conventional` (bool),
    /// `component_oriented` (bool), `min_improvement`, `max_iterations`,
    /// `layer_cache` (bool). Unknown keys are rejected.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::ConfigError`] naming the offending key or the
    /// validation failure.
    pub fn resolve_config(&self) -> Result<SynthConfig, RequestError> {
        let bad = |m: String| RequestError::new(ErrorKind::ConfigError, m);
        let Some(overrides) = &self.config else {
            return Ok(SynthConfig::default());
        };
        let entries = overrides
            .as_object()
            .ok_or_else(|| bad("'config' must be an object".to_owned()))?;
        let mut builder = SynthConfig::builder();
        let mut conventional = false;
        for (key, value) in entries {
            match key.as_str() {
                "max_devices" => {
                    let n = value
                        .as_u64()
                        .ok_or_else(|| bad("'max_devices' must be a non-negative integer".to_owned()))?;
                    builder = builder.max_devices(n as usize);
                }
                "threshold" => {
                    let n = value
                        .as_u64()
                        .ok_or_else(|| bad("'threshold' must be a non-negative integer".to_owned()))?;
                    builder = builder.indeterminate_threshold(n as usize);
                }
                "weights" => {
                    let items = value
                        .as_array()
                        .ok_or_else(|| bad("'weights' must be an array".to_owned()))?;
                    let nums: Vec<u64> = items
                        .iter()
                        .map(|v| v.as_u64())
                        .collect::<Option<_>>()
                        .ok_or_else(|| bad("'weights' entries must be integers".to_owned()))?;
                    let [time, area, processing, paths] = nums[..] else {
                        return Err(bad(
                            "'weights' wants exactly four numbers: Ct,Ca,Cpr,Cp".to_owned()
                        ));
                    };
                    builder = builder.weights(Weights {
                        time,
                        area,
                        processing,
                        paths,
                    });
                }
                "solver" => {
                    // Bare string (flag syntax, pre-0.11 compatible) or a
                    // structured object — one parser for both.
                    builder = builder.solver(crate::spec::spec_from_json(value).map_err(bad)?);
                }
                "conventional" => {
                    conventional = value
                        .as_bool()
                        .ok_or_else(|| bad("'conventional' must be a boolean".to_owned()))?;
                }
                "component_oriented" => {
                    let on = value
                        .as_bool()
                        .ok_or_else(|| bad("'component_oriented' must be a boolean".to_owned()))?;
                    builder = builder.component_oriented(on);
                }
                "min_improvement" => {
                    let f = value
                        .as_f64()
                        .ok_or_else(|| bad("'min_improvement' must be a number".to_owned()))?;
                    builder = builder.min_improvement(f);
                }
                "max_iterations" => {
                    let n = value
                        .as_u64()
                        .ok_or_else(|| bad("'max_iterations' must be a non-negative integer".to_owned()))?;
                    builder = builder.max_iterations(n as usize);
                }
                "layer_cache" => {
                    let on = value
                        .as_bool()
                        .ok_or_else(|| bad("'layer_cache' must be a boolean".to_owned()))?;
                    builder = builder.layer_cache(on);
                }
                other => {
                    return Err(bad(format!(
                        "unknown config key '{other}' (max_devices|threshold|weights|solver|\
                         conventional|component_oriented|min_improvement|max_iterations|layer_cache)"
                    )))
                }
            }
        }
        let mut config = builder.build().map_err(|e| match e {
            CoreError::Config(m) => bad(m),
            other => bad(other.to_string()),
        })?;
        if conventional {
            config = mfhls_core::conventional::conventional_config(config);
        }
        Ok(config)
    }
}

/// The deterministic `stats` payload of an ok response.
///
/// Runtime and the cache hit/miss split are deliberately excluded — they
/// vary across machines and thread counts. They live in the opt-in
/// `diagnostics` artifact instead.
pub fn stats_json(assay: &Assay, result: &SynthesisResult) -> Json {
    let exec = result.schedule.exec_time(assay);
    let iterations: Vec<Json> = result.iterations.iter().map(iteration_json).collect();
    let mut solver = mfhls_core::SolverStats::default();
    for it in &result.iterations {
        solver.merge(&it.solver);
    }
    obj(vec![
        ("ops", Json::Int(assay.len() as i64)),
        (
            "indeterminate_ops",
            Json::Int(assay.indeterminate_ops().len() as i64),
        ),
        ("layers", Json::Int(result.layering.num_layers() as i64)),
        (
            "exec_time",
            obj(vec![
                ("fixed", Json::Int(exec.fixed as i64)),
                (
                    "indeterminate_layers",
                    Json::Array(
                        exec.indeterminate_layers
                            .iter()
                            .map(|&k| Json::Int(k as i64))
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "devices",
            Json::Int(result.schedule.used_device_count() as i64),
        ),
        ("paths", Json::Int(result.schedule.path_count() as i64)),
        (
            "objective",
            Json::Int(result.final_stats().objective as i64),
        ),
        ("iterations", Json::Array(iterations)),
        ("solver", solver_stats_json(&solver)),
    ])
}

fn iteration_json(it: &IterationStats) -> Json {
    obj(vec![
        ("exec_fixed", Json::Int(it.exec_time.fixed as i64)),
        ("devices", Json::Int(it.device_count as i64)),
        ("paths", Json::Int(it.path_count as i64)),
        ("objective", Json::Int(it.objective as i64)),
    ])
}

/// Serializes the deterministic solver work counters.
pub fn solver_stats_json(s: &mfhls_core::SolverStats) -> Json {
    obj(vec![
        ("ilp_solves", Json::Int(s.ilp_solves as i64)),
        ("proven_optimal", Json::Int(s.proven_optimal as i64)),
        ("nodes", Json::Int(s.nodes as i64)),
        ("pivots", Json::Int(s.pivots as i64)),
        ("warm_solves", Json::Int(s.warm_solves as i64)),
        ("cold_solves", Json::Int(s.cold_solves as i64)),
        ("heuristic_rounds", Json::Int(s.heuristic_rounds as i64)),
        ("rebind_adoptions", Json::Int(s.rebind_adoptions as i64)),
        ("sdc_solves", Json::Int(s.sdc_solves as i64)),
        ("sdc_constraints", Json::Int(s.sdc_constraints as i64)),
        ("sdc_retracts", Json::Int(s.sdc_retracts as i64)),
        ("sdc_relaxations", Json::Int(s.sdc_relaxations as i64)),
        ("portfolio_races", Json::Int(s.portfolio_races as i64)),
        ("wins_heuristic", Json::Int(s.wins_heuristic as i64)),
        ("wins_sdc", Json::Int(s.wins_sdc as i64)),
        ("wins_ilp", Json::Int(s.wins_ilp as i64)),
    ])
}

/// The `schedule` payload: per-layer slots, device descriptions, paths.
pub fn schedule_json(assay: &Assay, result: &SynthesisResult) -> Json {
    let layers: Vec<Json> = result
        .schedule
        .layers
        .iter()
        .map(|layer| {
            Json::Array(
                layer
                    .ops
                    .iter()
                    .map(|slot| {
                        obj(vec![
                            ("op", Json::Int(slot.op.index() as i64)),
                            ("name", Json::Str(assay.op(slot.op).name().to_owned())),
                            ("device", Json::Int(slot.device as i64)),
                            ("start", Json::Int(slot.start as i64)),
                            ("duration", Json::Int(slot.duration as i64)),
                        ])
                    })
                    .collect(),
            )
        })
        .collect();
    let devices: Vec<Json> = result
        .schedule
        .devices
        .iter()
        .map(|d| Json::Str(d.to_string()))
        .collect();
    let paths: Vec<Json> = result
        .schedule
        .paths
        .iter()
        .map(|&(a, b)| Json::Array(vec![Json::Int(a as i64), Json::Int(b as i64)]))
        .collect();
    obj(vec![
        ("layers", Json::Array(layers)),
        ("devices", Json::Array(devices)),
        ("paths", Json::Array(paths)),
    ])
}

/// Builds a complete ok response line for `id`.
///
/// `trace_fingerprint` carries the `trace` artifact when requested;
/// `diagnostics` payloads come from [`diagnostics_json`].
pub fn response_ok(
    id: &str,
    assay: &Assay,
    result: &SynthesisResult,
    artifacts: Artifacts,
    trace_fingerprint: Option<String>,
    delta_hit: bool,
    solver: &SolverKind,
) -> Json {
    let mut entries = vec![
        ("version", Json::Str(VERSION.to_owned())),
        ("type", Json::Str("response".to_owned())),
        ("id", Json::Str(id.to_owned())),
        ("status", Json::Str("ok".to_owned())),
    ];
    if artifacts.stats {
        entries.push(("stats", stats_json(assay, result)));
    }
    if artifacts.schedule {
        entries.push(("schedule", schedule_json(assay, result)));
    }
    if artifacts.gantt {
        entries.push((
            "gantt",
            Json::Str(mfhls_core::render::gantt(assay, &result.schedule, 90)),
        ));
    }
    if let Some(fp) = trace_fingerprint {
        entries.push(("trace_fingerprint", Json::Str(fp)));
    }
    if artifacts.diagnostics {
        entries.push(("diagnostics", diagnostics_json(result, delta_hit, solver)));
    }
    obj(entries)
}

/// The nondeterministic `diagnostics` payload: wall-clock runtime and the
/// per-run layer-cache split (which may vary with the thread count and,
/// for the shared cache, with cross-request interleaving). `cache_hits`
/// is the total; `cache_store_hits` (read-through fills from a persistent
/// store) is its classified subset, the remainder being exact in-memory
/// hits. `delta_hit` marks a response replayed whole from
/// the service's delta cache — its other counters then describe the run
/// that originally produced the result. `solver` is echoed back as the
/// fully-resolved structured spec ([`crate::spec::spec_json`]) so clients
/// see exactly which strategy — defaults filled in — served the request.
pub fn diagnostics_json(result: &SynthesisResult, delta_hit: bool, solver: &SolverKind) -> Json {
    let hits: u64 = result.iterations.iter().map(|it| it.cache_hits).sum();
    let store: u64 = result.iterations.iter().map(|it| it.cache_store_hits).sum();
    let misses: u64 = result.iterations.iter().map(|it| it.cache_misses).sum();
    obj(vec![
        (
            "runtime_us",
            Json::Int(result.runtime.as_micros().min(i64::MAX as u128) as i64),
        ),
        ("cache_hits", Json::Int(hits as i64)),
        ("cache_store_hits", Json::Int(store as i64)),
        ("cache_misses", Json::Int(misses as i64)),
        ("delta_hit", Json::Bool(delta_hit)),
        ("solver", crate::spec::spec_json(solver)),
    ])
}

/// Builds an error response line. `id` is `null` when the failure
/// prevented reading one (malformed JSON).
pub fn response_error(id: Option<&str>, kind: ErrorKind, message: &str) -> Json {
    obj(vec![
        ("version", Json::Str(VERSION.to_owned())),
        ("type", Json::Str("response".to_owned())),
        (
            "id",
            match id {
                Some(id) => Json::Str(id.to_owned()),
                None => Json::Null,
            },
        ),
        ("status", Json::Str("error".to_owned())),
        (
            "error",
            obj(vec![
                ("kind", Json::Str(kind.as_str().to_owned())),
                ("message", Json::Str(message.to_owned())),
            ]),
        ),
    ])
}

/// `mfhls synth --format json` payload: the versioned stats + schedule
/// of a one-shot synthesis, on the same schema as service responses.
pub fn synth_json(assay: &Assay, result: &SynthesisResult) -> Json {
    obj(vec![
        ("version", Json::Str(VERSION.to_owned())),
        ("type", Json::Str("synthesis".to_owned())),
        ("assay", Json::Str(assay.name().to_owned())),
        ("stats", stats_json(assay, result)),
        ("schedule", schedule_json(assay, result)),
    ])
}

/// `mfhls simulate --format json` payload.
pub fn trial_stats_json(assay_name: &str, policy: &str, s: &TrialStats) -> Json {
    obj(vec![
        ("version", Json::Str(VERSION.to_owned())),
        ("type", Json::Str("simulation".to_owned())),
        ("assay", Json::Str(assay_name.to_owned())),
        ("policy", Json::Str(policy.to_owned())),
        ("trials", Json::Int(s.trials as i64)),
        (
            "makespan",
            obj(vec![
                ("min", Json::Int(s.min as i64)),
                ("median", Json::Int(s.median as i64)),
                ("p95", Json::Int(s.p95 as i64)),
                ("max", Json::Int(s.max as i64)),
                ("mean", Json::Int(s.mean as i64)),
            ]),
        ),
        ("decisions", Json::Int(s.decisions as i64)),
    ])
}

/// `mfhls faultsim --format json` payload: one survivability record per
/// policy.
pub fn survival_stats_json(assay_name: &str, stats: &[SurvivalStats]) -> Json {
    let policies: Vec<Json> = stats
        .iter()
        .map(|st| {
            obj(vec![
                ("policy", Json::Str(st.policy.to_owned())),
                ("trials", Json::Int(st.trials as i64)),
                ("completed_runs", Json::Int(st.completed_runs as i64)),
                ("completion_rate", Json::Float(st.completion_rate)),
                (
                    "mean_completed_fraction",
                    Json::Float(st.mean_completed_fraction),
                ),
                (
                    "mean_makespan_success",
                    match st.mean_makespan_success {
                        Some(m) => Json::Int(m as i64),
                        None => Json::Null,
                    },
                ),
                ("mean_resyntheses", Json::Float(st.mean_resyntheses)),
            ])
        })
        .collect();
    obj(vec![
        ("version", Json::Str(VERSION.to_owned())),
        ("type", Json::Str("faultsim".to_owned())),
        ("assay", Json::Str(assay_name.to_owned())),
        ("policies", Json::Array(policies)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth_req(extra: &str) -> String {
        format!(
            r#"{{"version":"mfhls-api/v1","type":"synthesize","id":"r1",
               "assay":{{"dsl":"assay \"t\"\nop a {{ duration: 1m }}"}}{extra}}}"#
        )
        .replace('\n', " ")
    }

    #[test]
    fn parses_minimal_request() {
        let Incoming::Synthesize(req) = parse_incoming(&synth_req("")).unwrap() else {
            panic!("expected a synthesize request");
        };
        assert_eq!(req.id, "r1");
        assert_eq!(req.artifacts, Artifacts::default());
        assert!(req.artifacts.stats);
        assert!(req.deadline_ms.is_none());
        let assay = req.resolve_assay(64).unwrap();
        assert_eq!(assay.len(), 1);
        let config = req.resolve_config().unwrap();
        assert_eq!(config.max_devices, SynthConfig::default().max_devices);
    }

    #[test]
    fn parses_controls() {
        assert_eq!(
            parse_incoming(r#"{"type":"flush"}"#).unwrap(),
            Incoming::Flush
        );
        assert_eq!(
            parse_incoming(r#"{"type":"shutdown"}"#).unwrap(),
            Incoming::Shutdown
        );
        assert_eq!(
            parse_incoming(r#"{"type":"cancel","id":"r7"}"#).unwrap(),
            Incoming::Cancel("r7".to_owned())
        );
    }

    #[test]
    fn rejects_bad_envelopes() {
        let cases = [
            ("not json", ErrorKind::MalformedRequest),
            (r#"{"id":"x"}"#, ErrorKind::MalformedRequest),
            (r#"{"type":"teleport"}"#, ErrorKind::MalformedRequest),
            (
                r#"{"version":"mfhls-api/v2","type":"flush"}"#,
                ErrorKind::UnsupportedVersion,
            ),
            (
                r#"{"type":"synthesize","id":"r1","assay":{"dsl":"x"}}"#,
                ErrorKind::MalformedRequest, // missing version
            ),
            (
                r#"{"version":"mfhls-api/v1","type":"synthesize","id":"","assay":{"dsl":"x"}}"#,
                ErrorKind::MalformedRequest, // empty id
            ),
            (
                r#"{"version":"mfhls-api/v1","type":"synthesize","id":"r1","assay":{}}"#,
                ErrorKind::MalformedRequest,
            ),
        ];
        for (line, want) in cases {
            let e = parse_incoming(line).unwrap_err();
            assert_eq!(e.kind, want, "line {line}: {e}");
        }
    }

    #[test]
    fn artifacts_and_config_overrides() {
        let Incoming::Synthesize(req) = parse_incoming(&synth_req(
            r#","artifacts":["schedule","gantt"],
               "config":{"max_devices":9,"solver":"hybrid","min_improvement":0.2},
               "deadline_ms":0"#,
        ))
        .unwrap() else {
            panic!("expected a synthesize request");
        };
        assert!(!req.artifacts.stats);
        assert!(req.artifacts.schedule && req.artifacts.gantt);
        assert_eq!(req.deadline_ms, Some(0));
        let config = req.resolve_config().unwrap();
        assert_eq!(config.max_devices, 9);
        assert_eq!(config.min_improvement, 0.2);
        assert!(matches!(config.solver, SolverKind::Hybrid { .. }));
    }

    #[test]
    fn config_errors_are_typed() {
        for (overrides, needle) in [
            (r#"{"max_devices":0}"#, "max_devices"),
            (r#"{"min_improvement":1.5}"#, "min_improvement"),
            (r#"{"solver":"quantum"}"#, "quantum"),
            (r#"{"warp":9}"#, "warp"),
            (r#"{"weights":[1,2]}"#, "four"),
        ] {
            let line = synth_req(&format!(r#","config":{overrides}"#));
            let Incoming::Synthesize(req) = parse_incoming(&line).unwrap() else {
                panic!("expected a synthesize request");
            };
            let e = req.resolve_config().unwrap_err();
            assert_eq!(e.kind, ErrorKind::ConfigError, "{e}");
            assert!(e.message.contains(needle), "{e}");
        }
    }

    #[test]
    fn dsl_and_benchmark_resolution() {
        let Incoming::Synthesize(req) = parse_incoming(
            r#"{"version":"mfhls-api/v1","type":"synthesize","id":"b1",
               "assay":{"benchmark":"kinase","scale":2}}"#
                .replace('\n', " ")
                .as_str(),
        )
        .unwrap() else {
            panic!("expected a synthesize request");
        };
        let assay = req.resolve_assay(64).unwrap();
        assert_eq!(assay.len(), 16); // the paper's case 1
        let e = req.resolve_assay(4).unwrap_err();
        assert_eq!(e.kind, ErrorKind::ParseError);

        let Incoming::Synthesize(bad) = parse_incoming(
            r#"{"version":"mfhls-api/v1","type":"synthesize","id":"b2",
               "assay":{"benchmark":"mystery"}}"#
                .replace('\n', " ")
                .as_str(),
        )
        .unwrap() else {
            panic!("expected a synthesize request");
        };
        assert_eq!(
            bad.resolve_assay(64).unwrap_err().kind,
            ErrorKind::ParseError
        );
    }

    #[test]
    fn netlist_requests_resolve_and_reject() {
        let line = r#"{"version":"mfhls-api/v1","type":"synthesize","id":"n1",
            "assay":{"netlist":{"version":"mfhls-netlist/v1","name":"net",
            "ops":[{"id":0,"name":"mix","duration":{"fixed":4}},
                   {"id":1,"name":"read","accessories":["optical-system"],
                    "duration":{"min":2}}],
            "edges":[[0,1]]}}}"#
            .replace('\n', " ");
        let Incoming::Synthesize(req) = parse_incoming(&line).unwrap() else {
            panic!("expected a synthesize request");
        };
        assert!(matches!(req.assay, AssaySource::Netlist(_)));
        let assay = req.resolve_assay(64).unwrap();
        assert_eq!(assay.len(), 2);
        assert_eq!(assay.name(), "net");
        assert!(assay.op(mfhls_core::OpId(1)).is_indeterminate());
        // The op limit applies to netlists too.
        let e = req.resolve_assay(1).unwrap_err();
        assert_eq!(e.kind, ErrorKind::ParseError);
        assert!(e.message.contains("limit of 1"), "{e}");
        // A dangling edge is a ParseError naming the field.
        let bad = line.replace("[0,1]", "[0,5]");
        let Incoming::Synthesize(req) = parse_incoming(&bad).unwrap() else {
            panic!("expected a synthesize request");
        };
        let e = req.resolve_assay(64).unwrap_err();
        assert_eq!(e.kind, ErrorKind::ParseError);
        assert!(e.message.contains("netlist.edges[0][1]"), "{e}");
        // A non-object netlist is malformed at parse time.
        let e = parse_incoming(
            r#"{"version":"mfhls-api/v1","type":"synthesize","id":"n2","assay":{"netlist":7}}"#,
        )
        .unwrap_err();
        assert_eq!(e.kind, ErrorKind::MalformedRequest);
        assert!(e.message.contains("netlist"), "{e}");
    }

    #[test]
    fn canonical_bytes_ignore_wire_formatting() {
        // Same content, different whitespace and field order on the wire.
        let a = parse_incoming(
            r#"{"version":"mfhls-api/v1","type":"synthesize","id":"r1","assay":{"dsl":"assay \"t\"\nop a { duration: 1m }"},"deadline_ms":5}"#,
        )
        .unwrap();
        let b = parse_incoming(
            r#"{ "deadline_ms": 5, "id": "r1", "type": "synthesize", "assay": { "dsl": "assay \"t\"\nop a { duration: 1m }" }, "version": "mfhls-api/v1" }"#,
        )
        .unwrap();
        let (Incoming::Synthesize(a), Incoming::Synthesize(b)) = (a, b) else {
            panic!("expected synthesize requests");
        };
        assert_eq!(a.canonical_request_bytes(), b.canonical_request_bytes());
        // Different content diverges.
        let Incoming::Synthesize(c) = parse_incoming(&synth_req(r#","deadline_ms":6"#)).unwrap()
        else {
            panic!("expected a synthesize request");
        };
        assert_ne!(a.canonical_request_bytes(), c.canonical_request_bytes());
    }

    #[test]
    fn responses_carry_version_and_kind() {
        let text = response_error(Some("r1"), ErrorKind::Overloaded, "queue full").to_string();
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.get("version").and_then(Json::as_str), Some(VERSION));
        assert_eq!(v.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("overloaded")
        );
        let anon = response_error(None, ErrorKind::MalformedRequest, "bad line");
        assert_eq!(anon.get("id"), Some(&Json::Null));
    }

    #[test]
    fn ok_response_excludes_nondeterministic_fields_by_default() {
        use mfhls_core::Synthesizer;
        let assay = mfhls_assays::kinase_activity(1);
        let result = Synthesizer::new(SynthConfig::default())
            .run(&assay)
            .unwrap();
        let solver = SolverKind::default();
        let text = response_ok(
            "r1",
            &assay,
            &result,
            Artifacts::default(),
            None,
            false,
            &solver,
        )
        .to_string();
        assert!(!text.contains("runtime"), "{text}");
        assert!(!text.contains("cache_"), "{text}");
        let v = Json::parse(&text).unwrap();
        let stats = v.get("stats").unwrap();
        assert!(stats.get("exec_time").is_some());
        assert!(stats.get("solver").is_some());
        // diagnostics artifact opts in, and echoes the resolved spec.
        let with = response_ok(
            "r1",
            &assay,
            &result,
            Artifacts {
                diagnostics: true,
                ..Artifacts::default()
            },
            None,
            false,
            &solver,
        )
        .to_string();
        assert!(with.contains("runtime_us"), "{with}");
        assert!(!with.contains("canonical"), "{with}");
        assert!(with.contains("cache_store_hits"), "{with}");
        assert!(with.contains("\"delta_hit\":false"), "{with}");
        assert!(
            with.contains("\"solver\":{\"kind\":\"heuristic\""),
            "{with}"
        );
    }
}
