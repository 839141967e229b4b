//! The batched synthesis service: deterministic admission windows, each
//! solved to completion on the serving thread, with a whole-request delta
//! cache and an optional persistent layer store.
//!
//! # Determinism model
//!
//! A long-lived service with backpressure sounds inherently racy — queue
//! occupancy would depend on how fast requests drain, and so would
//! which request gets the `overloaded` rejection. This service avoids
//! that with **synchronous admission windows**:
//!
//! * The loop reads NDJSON lines one at a time and only *admits*
//!   requests (parse, resolve the assay, validate the config). Nothing
//!   solves yet.
//! * A blank line, a `{"type":"flush"}` control, EOF, or
//!   `{"type":"shutdown"}` closes the window: the pending batch is solved
//!   in admission order on the calling thread, and the window is written
//!   with one `write_all` + `flush` before the next line is read.
//! * Admission-time failures — malformed lines, version mismatches,
//!   parse/config errors, and `overloaded` rejections when the window
//!   already holds `queue_capacity` requests — are serialized into the
//!   window's buffer ahead of the batch responses, so each window's
//!   bytes are `[rejections in input order] ++ [responses in admission
//!   order]`.
//!
//! Queue occupancy is therefore a pure function of the input stream, and
//! so is the rest of the loop's work: one thread meets the delta cache
//! with the same lookups in the same order on every run, so the summary's
//! hit/miss split and delta-replay count repeat along with the response
//! bytes (`tests/service.rs` pins both; the CI `serve-smoke` job diffs two
//! runs end to end). Only positive `deadline_ms` values read a clock.
//! Serving across cores is a matter of running more processes.
//!
//! # Reuse across requests
//!
//! A request whose positional shape matches an earlier one replays that
//! result from the bounded [`DeltaCache`]. Every other request runs
//! synthesis with its own per-run layer memo; with a [`SolutionStore`]
//! attached ([`SynthesisService::with_store`]) the memo reads through to
//! the store and writes behind to it, so the store is the one layer tier
//! shared across requests. Both are pure accelerators — `mfhls-core` pins
//! that schedules are identical with any cache arrangement — so neither
//! changes a response byte. The summary's window hit/miss split sums the
//! layer-cache split of every run the loop synthesized (replays excluded)
//! and is reported as diagnostics.

use crate::api::{
    parse_incoming, response_error, response_ok, Artifacts, ErrorKind, Incoming, RequestError,
    SynthesisRequest,
};
use crate::json::Json;
use mfhls_core::{
    Assay, AssayShape, CacheCounters, DeltaCache, RetryPolicy, SynthConfig, Synthesizer,
};
use mfhls_obs as obs;
use mfhls_store::{SolutionStore, StoreStats};
use std::io::{self, BufRead, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs of a [`SynthesisService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum requests admitted per window; further requests are
    /// rejected with `overloaded` until the window flushes.
    pub queue_capacity: usize,
    /// Bound on the delta cache (whole results; FIFO eviction).
    pub cache_entries: usize,
    /// Admission bound on operations per assay (inline DSL `repeat`
    /// blocks can multiply a small request into a huge one).
    pub max_ops: usize,
    /// Keep a whole-request delta cache: a request whose positional
    /// [`AssayShape`] (structure + config, names excluded) matches an
    /// earlier request replays that result without synthesizing. A pure
    /// accelerator — replayed results are the byte-exact value the full
    /// pipeline would deterministically recompute — so responses are
    /// identical on or off. Requests carrying the `trace` artifact bypass
    /// it (their fingerprint must come from a live run).
    pub delta_cache: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 128,
            cache_entries: 256,
            max_ops: 512,
            delta_cache: true,
        }
    }
}

/// Lifetime totals of a serve loop, reported when it ends.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceSummary {
    /// Requests admitted into a window.
    pub accepted: u64,
    /// Requests solved successfully.
    pub solved: u64,
    /// Requests rejected (admission- or solve-time, any [`ErrorKind`]).
    pub rejected: u64,
    /// Of the rejected, how many by cancellation.
    pub cancelled: u64,
    /// Windows flushed (batches executed).
    pub batches: u64,
    /// Whether a `shutdown` control ended the loop.
    pub shutdown: bool,
    /// Layer-cache hits (any class) of the runs this loop synthesized.
    pub window_hits: u64,
    /// Of `window_hits`, how many were read-through fills from the
    /// persistent store.
    pub window_store_hits: u64,
    /// Layer-cache misses of the runs this loop synthesized.
    pub window_misses: u64,
    /// Whole-request delta-cache replays by this loop's windows.
    pub delta_hits: u64,
    /// Transient TCP `accept` failures that were retried with backoff.
    pub accept_retries: u64,
    /// Persistent-store statistics, when the service runs with one.
    pub store: Option<StoreStats>,
}

impl ServiceSummary {
    /// Folds another loop's totals into this one (TCP mode serves one
    /// summary per connection).
    pub fn merge(&mut self, other: &ServiceSummary) {
        self.accepted += other.accepted;
        self.solved += other.solved;
        self.rejected += other.rejected;
        self.cancelled += other.cancelled;
        self.batches += other.batches;
        self.shutdown |= other.shutdown;
        self.window_hits += other.window_hits;
        self.window_store_hits += other.window_store_hits;
        self.window_misses += other.window_misses;
        self.delta_hits += other.delta_hits;
        self.accept_retries += other.accept_retries;
        if other.store.is_some() {
            self.store = other.store.clone();
        }
    }

    /// Hit rate over the windows this loop actually served (not process
    /// lifetime): hits / (hits + misses), or 0 when no lookups happened.
    pub fn window_hit_rate(&self) -> f64 {
        let total = self.window_hits + self.window_misses;
        if total == 0 {
            0.0
        } else {
            self.window_hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for ServiceSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} accepted, {} solved, {} rejected ({} cancelled) over {} batch(es); \
             {:.1}% window hit rate",
            self.accepted,
            self.solved,
            self.rejected,
            self.cancelled,
            self.batches,
            self.window_hit_rate() * 100.0
        )?;
        if self.window_store_hits > 0 {
            write!(f, " ({} store)", self.window_store_hits)?;
        }
        if self.delta_hits > 0 {
            write!(f, "; {} delta replays", self.delta_hits)?;
        }
        if self.accept_retries > 0 {
            write!(f, "; {} accept retries", self.accept_retries)?;
        }
        if let Some(store) = &self.store {
            write!(f, "; store {store}")?;
        }
        Ok(())
    }
}

/// A request admitted into the current window.
struct Pending {
    id: String,
    assay: Assay,
    config: SynthConfig,
    artifacts: Artifacts,
    deadline_ms: Option<u64>,
    admitted_at: Instant,
    cancelled: bool,
}

/// How one request left the service (drives obs events and the summary).
enum Outcome {
    Solved,
    Rejected(ErrorKind),
}

/// One request's solved result before serialization into the window
/// buffer: the response value plus its accounting.
struct SolvedOne {
    line: Json,
    outcome: Outcome,
    delta_hit: bool,
    /// The layer-cache split of a fresh run; zero for replays and
    /// rejections.
    cache: CacheCounters,
}

/// The long-lived batched synthesis service. See the [module
/// docs](self) for the determinism model.
pub struct SynthesisService {
    config: ServiceConfig,
    delta: Option<DeltaCache>,
    store: Option<Arc<SolutionStore>>,
}

impl SynthesisService {
    /// Creates a service whose delta cache holds `config.cache_entries`
    /// results.
    pub fn new(config: ServiceConfig) -> SynthesisService {
        let delta = config
            .delta_cache
            .then(|| DeltaCache::new(config.cache_entries));
        SynthesisService {
            config,
            delta,
            store: None,
        }
    }

    /// Creates a service backed by a persistent [`SolutionStore`]: every
    /// run reads the layers it has not solved itself through from the
    /// store and writes its fresh solves behind to it. The store is a pure
    /// accelerator — a degraded or faulted store changes diagnostics,
    /// never a response byte — so this constructor is infallible.
    pub fn with_store(config: ServiceConfig, store: Arc<SolutionStore>) -> SynthesisService {
        SynthesisService {
            store: Some(store),
            ..SynthesisService::new(config)
        }
    }

    /// Serves NDJSON requests from `input`, writing NDJSON responses to
    /// `output`, until EOF or a `shutdown` control.
    ///
    /// One loop on the calling thread: read lines and admit requests
    /// until the window closes, solve its batch in admission order, write
    /// the window with one `write_all` + `flush`, then read the next
    /// line. An active `mfhls-obs` capture on this thread records the
    /// loop's events.
    ///
    /// # Errors
    ///
    /// Only I/O errors on `input`/`output`; protocol problems become
    /// error *responses*, never an early return.
    pub fn serve<R: BufRead, W: Write>(
        &self,
        input: R,
        mut output: W,
    ) -> io::Result<ServiceSummary> {
        // The summary starts with a store snapshot so each window can
        // report per-window deltas even when this is not the store's
        // first loop.
        let mut summary = ServiceSummary {
            store: self.store.as_ref().map(|s| s.stats()),
            ..ServiceSummary::default()
        };
        // Both buffers are reused for every window.
        let mut pending: Vec<Pending> = Vec::new();
        let mut buf = String::new();
        for line in input.lines() {
            let line = line?;
            if line.trim().is_empty() {
                self.flush_window(&mut pending, &mut buf, &mut output, &mut summary)?;
                continue;
            }
            match parse_incoming(&line) {
                Err(e) => {
                    // Salvage the id when the envelope parsed far enough
                    // to carry one, so the client can correlate.
                    let id = Json::parse(&line)
                        .ok()
                        .and_then(|v| v.get("id").and_then(Json::as_str).map(str::to_owned));
                    self.reject(id.as_deref(), &e, &mut buf, &mut summary);
                }
                Ok(Incoming::Flush) => {
                    self.flush_window(&mut pending, &mut buf, &mut output, &mut summary)?;
                }
                Ok(Incoming::Shutdown) => {
                    // The open window flushes below; nothing after the
                    // shutdown line is read.
                    summary.shutdown = true;
                    break;
                }
                Ok(Incoming::Cancel(id)) => {
                    let mut found = false;
                    for p in pending.iter_mut().filter(|p| p.id == id) {
                        p.cancelled = true;
                        found = true;
                    }
                    if !found {
                        let e = RequestError {
                            kind: ErrorKind::MalformedRequest,
                            message: format!("no pending request '{id}' to cancel"),
                        };
                        self.reject(Some(&id), &e, &mut buf, &mut summary);
                    }
                }
                Ok(Incoming::Synthesize(req)) => {
                    self.admit(*req, &mut pending, &mut buf, &mut summary);
                }
            }
        }
        self.flush_window(&mut pending, &mut buf, &mut output, &mut summary)?;
        summary.store = self.store.as_ref().map(|s| s.stats());
        Ok(summary)
    }

    /// Closes the current window: solves its batch behind the rejections
    /// already in `buf`, writes the window's bytes with one `write_all` +
    /// `flush`, and empties both buffers for the next window. A window
    /// with nothing in it writes nothing.
    fn flush_window<W: Write>(
        &self,
        pending: &mut Vec<Pending>,
        buf: &mut String,
        output: &mut W,
        summary: &mut ServiceSummary,
    ) -> io::Result<()> {
        if !pending.is_empty() {
            summary.batches += 1;
            self.run_window(pending, buf, summary);
            pending.clear();
        }
        if !buf.is_empty() {
            output.write_all(buf.as_bytes())?;
            output.flush()?;
            buf.clear();
        }
        Ok(())
    }

    /// Serves connections from a bound TCP listener, one at a time (so
    /// batches from different connections never interleave and output
    /// stays deterministic per connection). Stops after the first
    /// connection when `once`, or when any connection sends `shutdown`.
    ///
    /// Transient `accept` failures (`EINTR`, fd exhaustion, a connection
    /// aborted in the backlog) get a bounded backoff-retry via
    /// [`RetryPolicy`] instead of tearing the listener down; only a
    /// persistent or non-transient error returns. The retries taken are
    /// surfaced in [`ServiceSummary::accept_retries`].
    ///
    /// # Errors
    ///
    /// Stream I/O errors, and accept errors that are non-transient or
    /// outlast the retry budget.
    pub fn serve_listener(
        &self,
        listener: &std::net::TcpListener,
        once: bool,
    ) -> io::Result<ServiceSummary> {
        let mut total = ServiceSummary::default();
        let mut backoff = AcceptBackoff::new(RetryPolicy::default());
        loop {
            let (stream, _peer) = match listener.accept() {
                Ok(conn) => {
                    backoff.reset();
                    conn
                }
                Err(e) => match backoff.on_error(&e) {
                    Some(delay) => {
                        obs::event(
                            obs::Level::Warn,
                            "svc.accept_retry",
                            &[
                                ("kind", obs::Value::Str(&format!("{:?}", e.kind()))),
                                ("delay_ms", obs::Value::U64(delay.as_millis() as u64)),
                            ],
                        );
                        obs::diagnostic_counter("svc.accept_retries", 1);
                        total.accept_retries += 1;
                        std::thread::sleep(delay);
                        continue;
                    }
                    None => return Err(e),
                },
            };
            let reader = io::BufReader::new(stream.try_clone()?);
            let summary = self.serve(reader, stream)?;
            total.merge(&summary);
            if once || total.shutdown {
                return Ok(total);
            }
        }
    }

    /// Serializes an immediate rejection response into the window buffer
    /// and records it.
    fn reject(
        &self,
        id: Option<&str>,
        e: &RequestError,
        buf: &mut String,
        summary: &mut ServiceSummary,
    ) {
        obs::event(
            obs::Level::Warn,
            "svc.request_rejected",
            &[
                ("id", obs::Value::Str(id.unwrap_or(""))),
                ("kind", obs::Value::Str(e.kind.as_str())),
            ],
        );
        obs::counter("svc.rejected", 1);
        summary.rejected += 1;
        if e.kind == ErrorKind::Cancelled {
            summary.cancelled += 1;
        }
        response_error(id, e.kind, &e.message).write(buf);
        buf.push('\n');
    }

    /// Admission: reject over capacity, resolve the assay and config,
    /// then queue.
    fn admit(
        &self,
        req: SynthesisRequest,
        pending: &mut Vec<Pending>,
        buf: &mut String,
        summary: &mut ServiceSummary,
    ) {
        if pending.len() >= self.config.queue_capacity {
            let e = RequestError {
                kind: ErrorKind::Overloaded,
                message: format!(
                    "queue full (capacity {}); flush or wait for the current window",
                    self.config.queue_capacity
                ),
            };
            return self.reject(Some(&req.id), &e, buf, summary);
        }
        let assay = match req.resolve_assay(self.config.max_ops) {
            Ok(a) => a,
            Err(e) => return self.reject(Some(&req.id), &e, buf, summary),
        };
        let config = match req.resolve_config() {
            Ok(c) => c,
            Err(e) => return self.reject(Some(&req.id), &e, buf, summary),
        };
        obs::event(
            obs::Level::Info,
            "svc.request_accepted",
            &[("id", obs::Value::Str(&req.id))],
        );
        obs::event(
            obs::Level::Debug,
            "svc.request_queued",
            &[("depth", obs::Value::U64(pending.len() as u64 + 1))],
        );
        obs::counter("svc.accepted", 1);
        summary.accepted += 1;
        pending.push(Pending {
            id: req.id,
            assay,
            config,
            artifacts: req.artifacts,
            deadline_ms: req.deadline_ms,
            admitted_at: Instant::now(),
            cancelled: false,
        });
    }

    /// Solves the batch in admission order, appends the serialized
    /// responses to `buf`, and counts the window into `summary`.
    fn run_window(&self, batch: &[Pending], buf: &mut String, summary: &mut ServiceSummary) {
        obs::event(
            obs::Level::Info,
            "svc.batch_flush",
            &[("size", obs::Value::U64(batch.len() as u64))],
        );
        let mut delta_hits = 0u64;
        let mut window = CacheCounters::default();
        for p in batch {
            let solved = self.solve_one(p);
            match &solved.outcome {
                Outcome::Solved => {
                    obs::event(
                        obs::Level::Info,
                        "svc.request_solved",
                        &[("id", obs::Value::Str(&p.id))],
                    );
                    obs::counter("svc.solved", 1);
                    summary.solved += 1;
                }
                Outcome::Rejected(kind) => {
                    obs::event(
                        obs::Level::Warn,
                        "svc.request_rejected",
                        &[
                            ("id", obs::Value::Str(&p.id)),
                            ("kind", obs::Value::Str(kind.as_str())),
                        ],
                    );
                    obs::counter("svc.rejected", 1);
                    summary.rejected += 1;
                    if *kind == ErrorKind::Cancelled {
                        summary.cancelled += 1;
                    }
                }
            }
            if solved.delta_hit {
                delta_hits += 1;
            }
            window.absorb(&solved.cache);
            solved.line.write(buf);
            buf.push('\n');
        }
        // Cache movement depends on what earlier requests left in the store,
        // so it goes to the diagnostic class (excluded from determinism
        // comparisons), like the per-run split in IterationStats.
        obs::diagnostic_counter("svc.cache_hits", window.hits() as i64);
        obs::diagnostic_counter("svc.cache_exact_hits", window.exact_hits as i64);
        obs::diagnostic_counter("svc.cache_store_hits", window.store_hits as i64);
        obs::diagnostic_counter("svc.cache_misses", window.misses as i64);
        obs::diagnostic_counter("svc.delta_hits", delta_hits as i64);
        summary.window_hits += window.hits();
        summary.window_store_hits += window.store_hits;
        summary.window_misses += window.misses;
        summary.delta_hits += delta_hits;
        // The store moves while solve_one runs muted, so its counters are
        // re-emitted here as this window's deltas against the previous
        // window's snapshot.
        if let Some(store) = &self.store {
            let now = store.stats();
            let prev = summary.store.take().unwrap_or_default();
            obs::diagnostic_counter("store_hit", (now.hits - prev.hits) as i64);
            obs::diagnostic_counter("store_miss", (now.misses - prev.misses) as i64);
            obs::diagnostic_counter("store_appended", (now.appended - prev.appended) as i64);
            if now.dropped > prev.dropped {
                obs::diagnostic_counter("store_dropped", (now.dropped - prev.dropped) as i64);
            }
            if now.degraded && !prev.degraded {
                obs::diagnostic_counter("store_degraded", 1);
            }
            summary.store = Some(now);
        }
    }

    /// Solves one admitted request. Muted: a request's synthesis records
    /// must not leak into the service's own capture on this thread. The
    /// `trace` artifact gets its own scoped capture instead.
    fn solve_one(&self, p: &Pending) -> SolvedOne {
        let _mute = obs::muted();
        let rejected = |kind: ErrorKind, message: &str| SolvedOne {
            line: response_error(Some(&p.id), kind, message),
            outcome: Outcome::Rejected(kind),
            delta_hit: false,
            cache: CacheCounters::default(),
        };
        if p.cancelled {
            return rejected(ErrorKind::Cancelled, "cancelled before execution");
        }
        if let Some(ms) = p.deadline_ms {
            // `0` is deterministically expired; positive deadlines are
            // wall-clock (best effort, like any timeout).
            let expired = ms == 0 || u128::from(ms) <= p.admitted_at.elapsed().as_millis();
            if expired {
                return rejected(
                    ErrorKind::DeadlineExceeded,
                    &format!("deadline of {ms}ms passed before execution"),
                );
            }
        }
        // The whole-request delta cache: a positional-shape match means a
        // structurally identical assay under the same config already ran,
        // and the pipeline is deterministic, so its result is the exact
        // value a fresh run would recompute. Requests wanting a `trace`
        // fingerprint must actually run, so they bypass the cache both
        // ways.
        let shape = match &self.delta {
            Some(_) if !p.artifacts.trace => AssayShape::of(&p.assay, &p.config).ok(),
            _ => None,
        };
        if let (Some(delta), Some(shape)) = (&self.delta, &shape) {
            if let Some(result) = delta.lookup_full(shape) {
                return SolvedOne {
                    line: response_ok(
                        &p.id,
                        &p.assay,
                        &result,
                        p.artifacts,
                        None,
                        true,
                        &p.config.solver,
                    ),
                    outcome: Outcome::Solved,
                    delta_hit: true,
                    cache: CacheCounters::default(),
                };
            }
        }
        let mut synthesizer = Synthesizer::new(p.config.clone());
        if let Some(store) = &self.store {
            synthesizer = synthesizer.with_shared_cache(store.clone());
        }
        let (outcome, fingerprint) = if p.artifacts.trace {
            let (r, trace) = obs::with_capture(
                obs::CaptureConfig {
                    wall_clock: false,
                    echo: None,
                },
                || synthesizer.run(&p.assay),
            );
            (r, Some(trace.logical_fingerprint()))
        } else {
            (synthesizer.run(&p.assay), None)
        };
        match outcome {
            Ok(result) => {
                if let (Some(delta), Some(shape)) = (&self.delta, &shape) {
                    delta.insert(shape, &result);
                }
                SolvedOne {
                    line: response_ok(
                        &p.id,
                        &p.assay,
                        &result,
                        p.artifacts,
                        fingerprint,
                        false,
                        &p.config.solver,
                    ),
                    outcome: Outcome::Solved,
                    delta_hit: false,
                    cache: result.cache_counters(),
                }
            }
            Err(e) => rejected(ErrorKind::SynthesisError, &e.to_string()),
        }
    }
}

/// Bounded retry state for the TCP accept loop: transient errors sleep
/// and retry (backoff from a [`RetryPolicy`], interpreted as
/// milliseconds); non-transient errors or an exhausted budget give up.
/// A successful accept resets the budget.
#[derive(Debug)]
struct AcceptBackoff {
    policy: RetryPolicy,
    consecutive: usize,
}

impl AcceptBackoff {
    fn new(policy: RetryPolicy) -> AcceptBackoff {
        AcceptBackoff {
            policy,
            consecutive: 0,
        }
    }

    fn reset(&mut self) {
        self.consecutive = 0;
    }

    /// `Some(delay)` if the caller should sleep and retry the accept,
    /// `None` if the error should propagate.
    fn on_error(&mut self, e: &io::Error) -> Option<Duration> {
        if !is_transient_accept_error(e) || self.consecutive >= self.policy.max_retries {
            return None;
        }
        let delay = Duration::from_millis(self.policy.backoff_for(self.consecutive));
        self.consecutive += 1;
        Some(delay)
    }
}

/// Accept errors worth retrying: signal interruption, a peer that reset
/// before we accepted, spurious readiness, and file-descriptor
/// exhaustion (`EMFILE`/`ENFILE`, which clears as connections close).
fn is_transient_accept_error(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::TimedOut
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionReset
    ) || matches!(e.raw_os_error(), Some(23 | 24)) // ENFILE | EMFILE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: &str, dsl_ops: usize) -> String {
        let mut dsl = "assay \\\"t\\\"".to_owned();
        for k in 0..dsl_ops {
            dsl.push_str(&format!("\\nop x{k} {{ duration: {}m }}", k + 1));
        }
        format!(
            r#"{{"version":"mfhls-api/v1","type":"synthesize","id":"{id}","assay":{{"dsl":"{dsl}"}}}}"#
        )
    }

    fn run(service: &SynthesisService, input: &str) -> (String, ServiceSummary) {
        let mut out = Vec::new();
        let summary = service
            .serve(io::BufReader::new(input.as_bytes()), &mut out)
            .expect("in-memory serve cannot fail");
        (
            String::from_utf8(out).expect("responses are UTF-8"),
            summary,
        )
    }

    #[test]
    fn batch_solves_in_admission_order() {
        let service = SynthesisService::new(ServiceConfig::default());
        let input = format!("{}\n{}\n{}\n", req("a", 2), req("b", 3), req("c", 1));
        let (out, summary) = run(&service, &input);
        let ids: Vec<&str> = out
            .lines()
            .map(|l| {
                let v = Json::parse(l).unwrap();
                assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
                "abc" // placeholder replaced below
            })
            .collect();
        assert_eq!(ids.len(), 3);
        let got: Vec<String> = out
            .lines()
            .map(|l| {
                Json::parse(l)
                    .unwrap()
                    .get("id")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_owned()
            })
            .collect();
        assert_eq!(got, ["a", "b", "c"]);
        assert_eq!(summary.solved, 3);
        assert_eq!(summary.batches, 1);
    }

    #[test]
    fn overload_rejects_immediately_and_deterministically() {
        let service = SynthesisService::new(ServiceConfig {
            queue_capacity: 2,
            ..ServiceConfig::default()
        });
        let input = format!(
            "{}\n{}\n{}\n\n{}\n",
            req("a", 1),
            req("b", 1),
            req("c", 1), // over capacity -> rejected
            req("d", 1)  // new window -> fine
        );
        let (out, summary) = run(&service, &input);
        let lines: Vec<Json> = out.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 4);
        // The rejection is written before the batch's responses.
        assert_eq!(lines[0].get("id").and_then(Json::as_str), Some("c"));
        assert_eq!(
            lines[0]
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("overloaded")
        );
        assert_eq!(lines[1].get("id").and_then(Json::as_str), Some("a"));
        assert_eq!(lines[3].get("id").and_then(Json::as_str), Some("d"));
        assert_eq!(summary.rejected, 1);
        assert_eq!(summary.solved, 3);
        assert_eq!(summary.batches, 2);
    }

    #[test]
    fn cancel_and_zero_deadline_reject_typed() {
        let service = SynthesisService::new(ServiceConfig::default());
        let deadline = r#"{"version":"mfhls-api/v1","type":"synthesize","id":"dl","assay":{"dsl":"assay \"t\"\nop a { duration: 1m }"},"deadline_ms":0}"#;
        let input = format!(
            "{}\n{}\n{deadline}\n{}\n",
            req("keep", 1),
            req("drop", 1),
            r#"{"type":"cancel","id":"drop"}"#
        );
        let (out, summary) = run(&service, &input);
        let by_id: std::collections::BTreeMap<String, Json> = out
            .lines()
            .map(|l| {
                let v = Json::parse(l).unwrap();
                (v.get("id").and_then(Json::as_str).unwrap().to_owned(), v)
            })
            .collect();
        let kind = |id: &str| {
            by_id[id]
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str)
                .map(str::to_owned)
        };
        assert_eq!(
            by_id["keep"].get("status").and_then(Json::as_str),
            Some("ok")
        );
        assert_eq!(kind("drop").as_deref(), Some("cancelled"));
        assert_eq!(kind("dl").as_deref(), Some("deadline_exceeded"));
        assert_eq!(summary.cancelled, 1);
        assert_eq!(summary.rejected, 2);
    }

    #[test]
    fn malformed_lines_get_immediate_errors_with_salvaged_id() {
        let service = SynthesisService::new(ServiceConfig::default());
        let input = "this is not json\n{\"type\":\"synthesize\",\"id\":\"noversion\",\"assay\":{\"dsl\":\"x\"}}\n";
        let (out, summary) = run(&service, input);
        let lines: Vec<Json> = out.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("id"), Some(&Json::Null));
        assert_eq!(lines[1].get("id").and_then(Json::as_str), Some("noversion"));
        for l in &lines {
            assert_eq!(
                l.get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str),
                Some("malformed_request")
            );
        }
        assert_eq!(summary.rejected, 2);
        assert_eq!(summary.accepted, 0);
    }

    #[test]
    fn shutdown_flushes_then_stops() {
        let service = SynthesisService::new(ServiceConfig::default());
        let input = format!(
            "{}\n{}\n{}\n",
            req("a", 1),
            r#"{"type":"shutdown"}"#,
            req("ignored", 1)
        );
        let (out, summary) = run(&service, &input);
        assert_eq!(out.lines().count(), 1);
        assert!(summary.shutdown);
        assert_eq!(summary.solved, 1);
    }

    /// The `diagnostics` cache split of one response line.
    fn split(line: &str) -> (i64, i64, i64) {
        let v = Json::parse(line).unwrap();
        let d = v.get("diagnostics").expect("diagnostics artifact");
        let count = |k: &str| d.get(k).and_then(Json::as_i64).unwrap();
        (
            count("cache_hits"),
            count("cache_store_hits"),
            count("cache_misses"),
        )
    }

    #[test]
    fn identical_requests_report_the_same_cache_split() {
        // `trace` makes both requests bypass the delta cache, so each one
        // runs synthesis. No layer tier is shared across requests, so the
        // second run memoizes exactly what the first one did.
        let traced = |id: &str| {
            req(id, 4).replace(
                r#","assay""#,
                r#","artifacts":["trace","diagnostics"],"assay""#,
            )
        };
        let service = SynthesisService::new(ServiceConfig::default());
        let (out, summary) = run(&service, &format!("{}\n\n{}\n", traced("a"), traced("b")));
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        let (first, second) = (split(lines[0]), split(lines[1]));
        assert!(first.2 > 0, "{first:?}");
        assert_eq!(first, second);
        assert_eq!(summary.delta_hits, 0, "{summary:?}");
        // The summary sums both runs' splits.
        let window = (
            summary.window_hits,
            summary.window_store_hits,
            summary.window_misses,
        );
        let twice = |n: i64| 2 * n as u64;
        assert_eq!(window, (twice(first.0), twice(first.1), twice(first.2)));
    }

    #[test]
    fn window_counters_reset_between_serve_loops() {
        // Each loop counts only the runs it synthesized itself. (Delta
        // cache off so the duplicate actually runs instead of being
        // replayed whole.)
        let config = ServiceConfig {
            delta_cache: false,
            ..ServiceConfig::default()
        };
        let service = SynthesisService::new(config.clone());
        let warm = format!("{}\n\n{}\n", req("a", 4), req("b", 4));
        let (_, first) = run(&service, &warm);
        let window = |s: &ServiceSummary| (s.window_hits, s.window_store_hits, s.window_misses);
        // Two identical requests count twice what one counts.
        let (_, one) = run(&SynthesisService::new(config.clone()), &req("a", 4));
        assert!(one.window_misses > 0, "{one:?}");
        assert_eq!(
            window(&first),
            (2 * one.window_hits, 0, 2 * one.window_misses)
        );
        // A loop over a disjoint assay counts exactly what the same loop
        // counts on a fresh service, whatever the first loop racked up.
        // That need not be zero hits: a run can meet one of its own layer
        // problems again in a later re-synthesis pass.
        let (_, second) = run(&service, &req("fresh", 7));
        let (_, alone) = run(&SynthesisService::new(config), &req("fresh", 7));
        assert_eq!(window(&second), window(&alone), "{second:?}");
        assert!(second.window_misses > 0, "{second:?}");
    }

    /// The config a caches-off control run serves under.
    fn caches_off() -> ServiceConfig {
        ServiceConfig {
            delta_cache: false,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn mixed_windows_repeat_byte_for_byte_and_match_caches_off() {
        // Three windows mixing solved requests, a malformed line, an
        // overload rejection, and a cancel.
        let mut input = String::new();
        for w in 0..3 {
            for k in 0..4 {
                input.push_str(&req(&format!("w{w}k{k}"), 1 + (w + k) % 3));
                input.push('\n');
            }
            input.push_str("not json at all\n");
            if w == 1 {
                input.push_str("{\"type\":\"cancel\",\"id\":\"w1k2\"}\n");
            }
            input.push('\n');
        }
        let cached = ServiceConfig {
            queue_capacity: 3,
            ..ServiceConfig::default()
        };
        let runs = [
            ("first", cached.clone()),
            ("second", cached),
            (
                "caches off",
                ServiceConfig {
                    queue_capacity: 3,
                    ..caches_off()
                },
            ),
        ];
        let mut streams = Vec::new();
        for (name, config) in runs {
            let (out, summary) = run(&SynthesisService::new(config), &input);
            assert_eq!(summary.batches, 3, "{name}");
            assert_eq!(summary.cancelled, 1, "{name}");
            // 12 requests, 3 over capacity, 3 malformed lines.
            assert_eq!(out.lines().count(), 15, "{name}");
            streams.push(out);
        }
        assert_eq!(streams[0], streams[1], "a second run changed a byte");
        assert_eq!(streams[0], streams[2], "the caches changed a byte");
    }

    #[test]
    fn writer_error_surfaces_after_the_windows_already_written() {
        /// Accepts `after` writes, keeping their bytes, then fails.
        struct FailingWriter {
            after: usize,
            accepted: Vec<u8>,
        }
        impl Write for FailingWriter {
            fn write(&mut self, data: &[u8]) -> io::Result<usize> {
                if self.after == 0 {
                    return Err(io::Error::new(io::ErrorKind::BrokenPipe, "sink closed"));
                }
                self.after -= 1;
                self.accepted.extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        // Eight one-request windows: the first is written whole, the
        // second write fails, and serving stops there.
        let mut input = String::new();
        for k in 0..8 {
            input.push_str(&req(&format!("r{k}"), 1));
            input.push_str("\n\n");
        }
        let mut written = Vec::new();
        for config in [
            ServiceConfig::default(),
            ServiceConfig::default(),
            caches_off(),
        ] {
            let mut sink = FailingWriter {
                after: 1,
                accepted: Vec::new(),
            };
            let err = SynthesisService::new(config)
                .serve(io::BufReader::new(input.as_bytes()), &mut sink)
                .expect_err("writer failure must propagate");
            assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
            written.push(String::from_utf8(sink.accepted).expect("responses are UTF-8"));
        }
        assert_eq!(written[0].lines().count(), 1, "{}", written[0]);
        assert!(written[0].contains("\"id\":\"r0\""), "{}", written[0]);
        assert_eq!(written[0], written[1]);
        assert_eq!(written[0], written[2]);
    }

    #[test]
    fn summary_display_surfaces_store_delta_and_retries() {
        let mut summary = ServiceSummary {
            accepted: 4,
            solved: 4,
            batches: 1,
            window_hits: 5,
            window_store_hits: 1,
            window_misses: 2,
            delta_hits: 3,
            accept_retries: 2,
            ..ServiceSummary::default()
        };
        let line = summary.to_string();
        assert!(line.contains("; 71.4% window hit rate (1 store)"), "{line}");
        assert!(line.contains("3 delta replays"), "{line}");
        assert!(line.contains("2 accept retries"), "{line}");
        // merge() adds another loop's replays and retries.
        let other = ServiceSummary {
            delta_hits: 2,
            accept_retries: 1,
            ..ServiceSummary::default()
        };
        summary.merge(&other);
        assert_eq!(summary.delta_hits, 5);
        assert_eq!(summary.accept_retries, 3);
        // An idle summary keeps the line free of the optional clauses.
        let quiet = ServiceSummary::default().to_string();
        assert!(!quiet.contains("retries"), "{quiet}");
        assert!(!quiet.contains("delta"), "{quiet}");
        assert!(!quiet.contains("store"), "{quiet}");
    }

    #[test]
    fn delta_cache_replays_structural_duplicates_byte_identically() {
        // `req` generates name-bearing DSL; a renamed twin is the same
        // positional shape, so with the delta cache on the second request
        // replays the first result without synthesizing.
        let renamed = |id: &str, dsl_ops: usize| {
            let mut dsl = "assay \\\"other\\\"".to_owned();
            for k in 0..dsl_ops {
                dsl.push_str(&format!("\\nop y{k} {{ duration: {}m }}", k + 1));
            }
            format!(
                r#"{{"version":"mfhls-api/v1","type":"synthesize","id":"{id}","assay":{{"dsl":"{dsl}"}}}}"#
            )
        };
        let input = format!("{}\n\n{}\n", req("orig", 4), renamed("twin", 4));
        let with = SynthesisService::new(ServiceConfig::default());
        let (out_on, on) = run(&with, &input);
        assert_eq!(on.delta_hits, 1, "{on:?}");
        let without = SynthesisService::new(ServiceConfig {
            delta_cache: false,
            ..ServiceConfig::default()
        });
        let (out_off, off) = run(&without, &input);
        assert_eq!(off.delta_hits, 0, "{off:?}");
        // Ids differ per line but each line is byte-identical to the
        // cache-off run of the same stream.
        assert_eq!(out_on, out_off);
    }

    #[test]
    fn accept_backoff_retries_transient_until_budget() {
        let emfile = io::Error::from_raw_os_error(24);
        assert!(is_transient_accept_error(&emfile));
        assert!(is_transient_accept_error(&io::Error::from(
            io::ErrorKind::Interrupted
        )));
        assert!(!is_transient_accept_error(&io::Error::from(
            io::ErrorKind::PermissionDenied
        )));

        let policy = RetryPolicy::default();
        let mut backoff = AcceptBackoff::new(policy);
        let mut delays = Vec::new();
        while let Some(d) = backoff.on_error(&emfile) {
            delays.push(d.as_millis() as u64);
        }
        assert_eq!(delays.len(), policy.max_retries);
        let expected: Vec<u64> = (0..policy.max_retries)
            .map(|k| policy.backoff_for(k))
            .collect();
        assert_eq!(delays, expected);
        // A successful accept resets the budget.
        backoff.reset();
        assert!(backoff.on_error(&emfile).is_some());
        // Non-transient errors propagate immediately even with budget.
        backoff.reset();
        assert!(backoff
            .on_error(&io::Error::from(io::ErrorKind::PermissionDenied))
            .is_none());
    }
}
