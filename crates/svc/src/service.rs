//! The batched synthesis service: deterministic admission windows solved
//! on a worker pool, pipelined across windows, with a cross-request
//! shared layer cache.
//!
//! # Determinism model
//!
//! A long-lived service with backpressure sounds inherently racy — queue
//! occupancy would depend on how fast workers drain it, and so would
//! which request gets the `overloaded` rejection. This service avoids
//! that with **synchronous admission windows**:
//!
//! * The ingest stage reads NDJSON lines one at a time and only *admits*
//!   requests (parse, resolve the assay, validate the config). Nothing
//!   solves yet.
//! * A blank line, a `{"type":"flush"}` control, EOF, or
//!   `{"type":"shutdown"}` closes the window: the pending batch runs on
//!   the worker pool ([`mfhls_par::par_map`], whose ordered reduction is
//!   bitwise-deterministic at any thread count), and the responses are
//!   written in admission order.
//! * Admission-time failures — malformed lines, version mismatches,
//!   parse/config errors, and `overloaded` rejections when the window
//!   already holds `queue_capacity` requests — are serialized into the
//!   window's buffer ahead of the batch responses, so each window's
//!   bytes are `[rejections in input order] ++ [responses in admission
//!   order]`, written with one buffered flush at the window boundary.
//!
//! Queue occupancy is therefore a pure function of the input stream, not
//! of worker timing: the same NDJSON input produces byte-identical output
//! at 1 worker and at 16, with pipelining on or off (`tests/service.rs`
//! pins the matrix, and the CI `serve-smoke` job diffs the streams
//! end-to-end).
//!
//! # Pipelining
//!
//! With [`ServiceConfig::pipeline_windows`] > 1 the loop runs as a
//! three-stage pipeline (see [`crate::pipeline`]): window *k+1* is
//! admitted while window *k* solves and window *k−1* drains to the
//! client. Overlap is a pure throughput feature: per-request responses
//! depend only on the request itself plus the shared cache, and the cache
//! is a pure accelerator, so overlap cannot change a response byte.
//!
//! When an `mfhls-obs` capture is active on the serving thread the loop
//! falls back to the sequential in-line path (captures are thread-local,
//! and a deterministic trace of a concurrent pipeline would interleave);
//! the byte-identity pins guarantee this fallback is observationally
//! equivalent.
//!
//! # The shared cache
//!
//! All requests served by one [`SynthesisService`] share a bounded
//! [`SharedLayerCache`]: request *N* re-solving a layer that request *M*
//! already solved gets a cache hit. The cache is a pure accelerator —
//! `mfhls-core` pins that schedules are identical with the cache on or
//! off — so cross-request interleaving may change the hit/miss split
//! (reported as diagnostics) but never a response byte.

use crate::api::{
    parse_incoming, response_error, response_ok, Artifacts, ErrorKind, Incoming, RequestError,
    SynthesisRequest,
};
use crate::json::Json;
use crate::pipeline::{AdmittedWindow, SolvedWindow, WindowStats};
use mfhls_core::{
    Assay, AssayShape, CacheStats, DeltaCache, RetryPolicy, SharedLayerCache, SynthConfig,
    Synthesizer,
};
use mfhls_obs as obs;
use mfhls_store::{SolutionStore, StoreStats};
use std::io::{self, BufRead, Write};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Tuning knobs of a [`SynthesisService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads solving each window (`0` = the `mfhls-par` default,
    /// i.e. the `MFHLS_THREADS` env var, then the CPU count). Responses
    /// are byte-identical at any setting.
    pub workers: usize,
    /// Maximum requests admitted per window; further requests are
    /// rejected with `overloaded` until the window flushes.
    pub queue_capacity: usize,
    /// Bound on the shared layer cache (entries; FIFO eviction).
    pub cache_entries: usize,
    /// Share the layer cache across requests. Off = every request gets
    /// its own per-run cache (responses identical either way).
    pub shared_cache: bool,
    /// Admission bound on operations per assay (inline DSL `repeat`
    /// blocks can multiply a small request into a huge one).
    pub max_ops: usize,
    /// Windows in flight across the ingest → solve → write pipeline
    /// (`1` = the sequential drain loop, i.e. pipelining off). Responses
    /// are byte-identical at any setting.
    pub pipeline_windows: usize,
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
            workers: 0,
            queue_capacity: 128,
            cache_entries: 256,
            shared_cache: true,
            max_ops: 512,
            pipeline_windows: 2,
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
    /// Shared-cache statistics at the end of the loop.
    pub cache: CacheStats,
    /// Cache hits (any class) observed by this loop's own admission
    /// windows (the per-window counters are drained at every flush, so
    /// TCP-mode connections don't inherit each other's rates).
    pub window_hits: u64,
    /// Of `window_hits`, how many were read-through fills from the
    /// persistent store (previously misreported as plain hits).
    pub window_store_hits: u64,
    /// Cache misses observed by this loop's own admission windows.
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
        self.cache = other.cache;
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

    /// Folds one window's deterministic counters into the lifetime
    /// totals (everything but `batches`, which the caller owns).
    fn absorb_window(&mut self, w: &WindowStats) {
        self.solved += w.solved;
        self.rejected += w.rejected;
        self.cancelled += w.cancelled;
        self.window_hits += w.window_hits;
        self.window_store_hits += w.window_store_hits;
        self.window_misses += w.window_misses;
        self.delta_hits += w.delta_hits;
        if w.store.is_some() {
            self.store = w.store.clone();
        }
    }
}

impl std::fmt::Display for ServiceSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} accepted, {} solved, {} rejected ({} cancelled) over {} batch(es); \
             cache {}/{} entries, {:.1}% window hit rate",
            self.accepted,
            self.solved,
            self.rejected,
            self.cancelled,
            self.batches,
            self.cache.entries,
            self.cache.capacity,
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
pub(crate) struct Pending {
    pub(crate) id: String,
    pub(crate) assay: Assay,
    pub(crate) config: SynthConfig,
    pub(crate) artifacts: Artifacts,
    pub(crate) deadline_ms: Option<u64>,
    pub(crate) admitted_at: Instant,
    pub(crate) cancelled: bool,
}

/// How one request left the service (drives obs events and the summary).
enum Outcome {
    Solved,
    Rejected(ErrorKind),
}

/// One request's solved result before serialization into the window
/// buffer: the response value plus its deterministic accounting.
struct SolvedOne {
    line: Json,
    outcome: Outcome,
    delta_hit: bool,
}

/// The long-lived batched synthesis service. See the [module
/// docs](self) for the determinism model.
pub struct SynthesisService {
    config: ServiceConfig,
    cache: Arc<SharedLayerCache>,
    delta: Option<Arc<DeltaCache>>,
    store: Option<Arc<SolutionStore>>,
}

impl SynthesisService {
    /// Creates a service with a fresh shared cache of
    /// `config.cache_entries` entries.
    pub fn new(config: ServiceConfig) -> SynthesisService {
        let cache = Arc::new(SharedLayerCache::new(config.cache_entries));
        let delta = config
            .delta_cache
            .then(|| Arc::new(DeltaCache::new(config.cache_entries)));
        SynthesisService {
            config,
            cache,
            delta,
            store: None,
        }
    }

    /// Creates a service backed by a persistent [`SolutionStore`]: the
    /// shared cache is warm-loaded from the store's surviving records,
    /// then attached read-through/write-behind. The store is a pure
    /// accelerator — a degraded or faulted store changes diagnostics,
    /// never a response byte — so this constructor is infallible.
    pub fn with_store(config: ServiceConfig, store: Arc<SolutionStore>) -> SynthesisService {
        let cache = Arc::new(SharedLayerCache::new(config.cache_entries));
        let warmed = store.warm_into(&cache);
        obs::event(
            obs::Level::Info,
            "svc.store_attached",
            &[("warmed", obs::Value::U64(warmed))],
        );
        cache.set_backing(store.clone());
        let delta = config
            .delta_cache
            .then(|| Arc::new(DeltaCache::new(config.cache_entries)));
        SynthesisService {
            config,
            cache,
            delta,
            store: Some(store),
        }
    }

    /// The cross-request shared layer cache (for inspection in tests and
    /// the CLI summary).
    pub fn cache(&self) -> &Arc<SharedLayerCache> {
        &self.cache
    }

    /// The whole-request delta cache, when enabled.
    pub fn delta(&self) -> Option<&Arc<DeltaCache>> {
        self.delta.as_ref()
    }

    /// The persistent store backing the cache, if one was attached.
    pub fn store(&self) -> Option<&Arc<SolutionStore>> {
        self.store.as_ref()
    }

    /// Serves NDJSON requests from `input`, writing NDJSON responses to
    /// `output`, until EOF or a `shutdown` control.
    ///
    /// With [`ServiceConfig::pipeline_windows`] > 1 this runs the typed
    /// three-stage pipeline (ingest → solve → write); with an
    /// active `mfhls-obs` capture on this thread, or `pipeline_windows
    /// == 1`, it runs the sequential in-line loop. Output bytes are
    /// identical either way.
    ///
    /// # Errors
    ///
    /// Only I/O errors on `input`/`output`; protocol problems become
    /// error *responses*, never an early return.
    pub fn serve<R: BufRead, W: Write + Send>(
        &self,
        input: R,
        output: W,
    ) -> io::Result<ServiceSummary> {
        if self.config.pipeline_windows > 1 && !obs::is_enabled() {
            self.serve_pipelined(input, output)
        } else {
            self.serve_inline(input, output)
        }
    }

    /// The sequential drain loop: each window is admitted, solved, and
    /// written before the next line is read.
    fn serve_inline<R: BufRead, W: Write>(
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
        self.admission_loop(input, &mut summary, |mut window, summary| {
            if !window.batch.is_empty() {
                summary.batches += 1;
                let prev_store = summary.store.take();
                let stats = self.run_window(&window.batch, &mut window.buf, prev_store);
                summary.absorb_window(&stats);
            }
            output.write_all(window.buf.as_bytes())?;
            output.flush()?;
            let mut scratch = window.buf;
            scratch.clear();
            Ok(scratch)
        })?;
        summary.cache = self.cache.stats();
        summary.store = self.store.as_ref().map(|s| s.stats());
        Ok(summary)
    }

    /// The pipelined loop: ingest on the calling thread, solve and write
    /// on their own stage threads, windows flowing through bounded
    /// channels (see [`crate::pipeline`]).
    fn serve_pipelined<R: BufRead, W: Write + Send>(
        &self,
        input: R,
        output: W,
    ) -> io::Result<ServiceSummary> {
        let depth = self.config.pipeline_windows - 1;
        let (solve_tx, solve_rx) = mpsc::sync_channel::<AdmittedWindow>(depth);
        let (write_tx, write_rx) = mpsc::sync_channel::<SolvedWindow>(depth);
        let (recycle_tx, recycle_rx) = mpsc::channel::<io::Result<String>>();
        let mut summary = ServiceSummary::default();
        let (read_result, solve_totals, batches, write_result) = std::thread::scope(|scope| {
            let solver = scope.spawn(move || {
                let mut totals = WindowStats::default();
                let mut batches = 0u64;
                let mut prev_store = self.store.as_ref().map(|s| s.stats());
                while let Ok(mut window) = solve_rx.recv() {
                    if !window.batch.is_empty() {
                        batches += 1;
                        let stats =
                            self.run_window(&window.batch, &mut window.buf, prev_store.take());
                        prev_store = stats.store.clone();
                        totals.add(&stats);
                    }
                    if write_tx.send(SolvedWindow { buf: window.buf }).is_err() {
                        break; // writer gone; teardown in progress
                    }
                }
                (totals, batches)
            });
            let writer = scope.spawn(move || {
                let mut output = output;
                let mut failed: Option<io::Error> = None;
                while let Ok(window) = write_rx.recv() {
                    if failed.is_some() {
                        continue; // keep draining so earlier stages never block
                    }
                    match output
                        .write_all(window.buf.as_bytes())
                        .and_then(|()| output.flush())
                    {
                        Ok(()) => {
                            let mut scratch = window.buf;
                            scratch.clear();
                            let _ = recycle_tx.send(Ok(scratch));
                        }
                        Err(e) => {
                            let _ = recycle_tx.send(Err(io::Error::new(e.kind(), e.to_string())));
                            failed = Some(e);
                        }
                    }
                }
                match failed {
                    Some(e) => Err(e),
                    None => Ok(()),
                }
            });
            let read_result = self.admission_loop(input, &mut summary, |window, _summary| {
                if solve_tx.send(window).is_err() {
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "solve stage stopped",
                    ));
                }
                // Pick up a recycled scratch buffer (or the writer's
                // error) without blocking; a fresh String otherwise.
                match recycle_rx.try_recv() {
                    Ok(Ok(scratch)) => Ok(scratch),
                    Ok(Err(e)) => Err(e),
                    Err(_) => Ok(String::new()),
                }
            });
            drop(solve_tx);
            let (totals, batches) = match solver.join() {
                Ok(v) => v,
                Err(panic) => std::panic::resume_unwind(panic),
            };
            let write_result = match writer.join() {
                Ok(v) => v,
                Err(panic) => std::panic::resume_unwind(panic),
            };
            (read_result, totals, batches, write_result)
        });
        summary.batches += batches;
        summary.absorb_window(&solve_totals);
        write_result?;
        read_result?;
        summary.cache = self.cache.stats();
        summary.store = self.store.as_ref().map(|s| s.stats());
        Ok(summary)
    }

    /// The shared ingest/parse stage: reads lines, admits requests, and
    /// hands each closed window to `on_window` (which must return a —
    /// possibly recycled — scratch `String` for the next window).
    fn admission_loop<R: BufRead, F>(
        &self,
        input: R,
        summary: &mut ServiceSummary,
        mut on_window: F,
    ) -> io::Result<()>
    where
        F: FnMut(AdmittedWindow, &mut ServiceSummary) -> io::Result<String>,
    {
        let mut pending: Vec<Pending> = Vec::new();
        let mut buf = String::new();
        for line in input.lines() {
            let line = line?;
            if line.trim().is_empty() {
                if !pending.is_empty() || !buf.is_empty() {
                    let window = AdmittedWindow {
                        buf: std::mem::take(&mut buf),
                        batch: std::mem::take(&mut pending),
                    };
                    buf = on_window(window, summary)?;
                }
                continue;
            }
            match parse_incoming(&line) {
                Err(e) => {
                    // Salvage the id when the envelope parsed far enough
                    // to carry one, so the client can correlate.
                    let id = Json::parse(&line)
                        .ok()
                        .and_then(|v| v.get("id").and_then(Json::as_str).map(str::to_owned));
                    self.reject(id.as_deref(), &e, &mut buf, summary);
                }
                Ok(Incoming::Flush) => {
                    if !pending.is_empty() || !buf.is_empty() {
                        let window = AdmittedWindow {
                            buf: std::mem::take(&mut buf),
                            batch: std::mem::take(&mut pending),
                        };
                        buf = on_window(window, summary)?;
                    }
                }
                Ok(Incoming::Shutdown) => {
                    if !pending.is_empty() || !buf.is_empty() {
                        let window = AdmittedWindow {
                            buf: std::mem::take(&mut buf),
                            batch: std::mem::take(&mut pending),
                        };
                        on_window(window, summary)?;
                    }
                    summary.shutdown = true;
                    return Ok(());
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
                        self.reject(Some(&id), &e, &mut buf, summary);
                    }
                }
                Ok(Incoming::Synthesize(req)) => {
                    self.admit(*req, &mut pending, &mut buf, summary);
                }
            }
        }
        if !pending.is_empty() || !buf.is_empty() {
            let window = AdmittedWindow {
                buf: std::mem::take(&mut buf),
                batch: std::mem::take(&mut pending),
            };
            on_window(window, summary)?;
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

    /// The solve stage: solves the batch and appends the serialized
    /// responses to `buf` in admission order. Returns the window's
    /// deterministic counters.
    fn run_window(
        &self,
        batch: &[Pending],
        buf: &mut String,
        prev_store: Option<StoreStats>,
    ) -> WindowStats {
        obs::event(
            obs::Level::Info,
            "svc.batch_flush",
            &[("size", obs::Value::U64(batch.len() as u64))],
        );
        let mut stats = WindowStats::default();
        let results = self.solve_batch(batch);
        for (p, solved) in batch.iter().zip(&results) {
            match &solved.outcome {
                Outcome::Solved => {
                    obs::event(
                        obs::Level::Info,
                        "svc.request_solved",
                        &[("id", obs::Value::Str(&p.id))],
                    );
                    obs::counter("svc.solved", 1);
                    stats.solved += 1;
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
                    stats.rejected += 1;
                    if *kind == ErrorKind::Cancelled {
                        stats.cancelled += 1;
                    }
                }
            }
            if solved.delta_hit {
                stats.delta_hits += 1;
            }
            solved.line.write(buf);
            buf.push('\n');
        }
        // Cache movement is timing-dependent under the shared cache, so
        // it goes to the diagnostic class (excluded from determinism
        // comparisons), mirroring the per-run split in IterationStats.
        // Draining the per-window counters here (rather than diffing
        // lifetime stats) keeps each window's — and each connection's —
        // rate independent of what ran before it.
        let window = self.cache.take_window_counters();
        obs::diagnostic_counter("svc.cache_hits", window.hits() as i64);
        obs::diagnostic_counter("svc.cache_exact_hits", window.exact_hits as i64);
        obs::diagnostic_counter("svc.cache_store_hits", window.store_hits as i64);
        obs::diagnostic_counter("svc.cache_misses", window.misses as i64);
        obs::diagnostic_counter("svc.delta_hits", stats.delta_hits as i64);
        stats.window_hits = window.hits();
        stats.window_store_hits = window.store_hits;
        stats.window_misses = window.misses;
        // The store moves while solve_one runs muted, so its counters are
        // re-emitted here as this window's deltas against the previous
        // window's snapshot.
        if let Some(store) = &self.store {
            let now = store.stats();
            let prev = prev_store.unwrap_or_default();
            obs::diagnostic_counter("store_hit", (now.hits - prev.hits) as i64);
            obs::diagnostic_counter("store_miss", (now.misses - prev.misses) as i64);
            obs::diagnostic_counter("store_appended", (now.appended - prev.appended) as i64);
            if now.dropped > prev.dropped {
                obs::diagnostic_counter("store_dropped", (now.dropped - prev.dropped) as i64);
            }
            if now.degraded && !prev.degraded {
                obs::diagnostic_counter("store_degraded", 1);
            }
            stats.store = Some(now);
        }
        stats
    }

    /// Solves the batch on an `mfhls-par` pool (the configured worker
    /// count, or the pool default at 0), results in admission order.
    fn solve_batch(&self, batch: &[Pending]) -> Vec<SolvedOne> {
        if self.config.workers == 0 {
            mfhls_par::par_map(batch, |p| self.solve_one(p))
        } else {
            mfhls_par::with_threads(self.config.workers, || {
                mfhls_par::par_map(batch, |p| self.solve_one(p))
            })
        }
    }

    /// Solves one admitted request on a worker thread. Muted: a request's
    /// synthesis records must not leak into the service's own capture
    /// (par_map runs inline on the serve thread at 1 worker). The `trace`
    /// artifact gets its own scoped capture instead.
    fn solve_one(&self, p: &Pending) -> SolvedOne {
        let _mute = obs::muted();
        let rejected = |kind: ErrorKind, message: &str| SolvedOne {
            line: response_error(Some(&p.id), kind, message),
            outcome: Outcome::Rejected(kind),
            delta_hit: false,
        };
        if p.cancelled {
            return rejected(ErrorKind::Cancelled, "cancelled before execution");
        }
        if let Some(ms) = p.deadline_ms {
            // `0` is deterministically expired; positive deadlines are
            // wall-clock (best effort, like any timeout — under
            // pipelining a window may wait behind its predecessor).
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
                };
            }
        }
        let mut synthesizer = Synthesizer::new(p.config.clone());
        if self.config.shared_cache {
            synthesizer = synthesizer.with_shared_cache(self.cache.clone());
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

    #[test]
    fn shared_cache_hits_across_requests() {
        // Delta cache off: it would replay the duplicate whole and leave
        // the layer cache — the thing under test — untouched.
        let service = SynthesisService::new(ServiceConfig {
            delta_cache: false,
            ..ServiceConfig::default()
        });
        let input = format!("{}\n\n{}\n", req("first", 4), req("second", 4));
        let (_, summary) = run(&service, &input);
        assert_eq!(summary.solved, 2);
        assert!(
            summary.cache.hits > 0,
            "identical request should hit the shared cache: {:?}",
            summary.cache
        );
        assert!(
            summary.window_hits > 0,
            "window counters should see the same hits: {summary:?}"
        );
    }

    #[test]
    fn window_counters_reset_between_serve_loops() {
        // The bug this pins: the summary previously diffed lifetime cache
        // stats, so a second connection inherited the first one's rate.
        // (Delta cache off so the duplicate actually reaches the layer
        // cache instead of being replayed whole.)
        let config = ServiceConfig {
            delta_cache: false,
            ..ServiceConfig::default()
        };
        let service = SynthesisService::new(config.clone());
        let warm = format!("{}\n\n{}\n", req("a", 4), req("b", 4));
        let (_, first) = run(&service, &warm);
        assert!(first.window_hits > 0);
        // A loop over a disjoint assay counts exactly what the same loop
        // counts on a fresh service, whatever the first loop racked up.
        // That need not be zero hits: a run can meet one of its own layer
        // problems again in a later re-synthesis pass.
        let (_, second) = run(&service, &req("fresh", 7));
        let (_, alone) = run(&SynthesisService::new(config), &req("fresh", 7));
        let window = |s: &ServiceSummary| (s.window_hits, s.window_store_hits, s.window_misses);
        assert_eq!(window(&second), window(&alone), "{second:?}");
        assert!(second.window_misses > 0, "{second:?}");
        // Lifetime stats still accumulate for capacity accounting.
        assert!(second.cache.hits >= first.window_hits + second.window_hits);
    }

    #[test]
    fn pipelined_and_inline_streams_are_byte_identical() {
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
        let mut streams = Vec::new();
        for pipeline_windows in [1, 2, 4] {
            let service = SynthesisService::new(ServiceConfig {
                pipeline_windows,
                queue_capacity: 3,
                ..ServiceConfig::default()
            });
            let (out, summary) = run(&service, &input);
            assert_eq!(summary.batches, 3, "windows at depth {pipeline_windows}");
            assert_eq!(summary.cancelled, 1);
            streams.push(out);
        }
        assert_eq!(streams[0], streams[1]);
        assert_eq!(streams[0], streams[2]);
    }

    #[test]
    fn pipelined_writer_error_surfaces() {
        struct FailingWriter {
            after: usize,
        }
        impl Write for FailingWriter {
            fn write(&mut self, data: &[u8]) -> io::Result<usize> {
                if self.after == 0 {
                    return Err(io::Error::new(io::ErrorKind::BrokenPipe, "sink closed"));
                }
                self.after -= 1;
                Ok(data.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let service = SynthesisService::new(ServiceConfig::default());
        // Many windows so the reader is guaranteed to observe the
        // writer's failure (or finish input, either way the error must
        // surface from serve()).
        let mut input = String::new();
        for k in 0..8 {
            input.push_str(&req(&format!("r{k}"), 1));
            input.push_str("\n\n");
        }
        let err = service
            .serve(
                io::BufReader::new(input.as_bytes()),
                FailingWriter { after: 1 },
            )
            .expect_err("writer failure must propagate");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn summary_display_surfaces_shards_and_retries() {
        let mut summary = ServiceSummary {
            accepted: 4,
            solved: 4,
            batches: 1,
            window_hits: 5,
            window_store_hits: 1,
            delta_hits: 3,
            accept_retries: 2,
            ..ServiceSummary::default()
        };
        let line = summary.to_string();
        assert!(line.contains("(1 store)"), "{line}");
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
