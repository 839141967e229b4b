//! Deterministic structured observability for the mfhls workspace.
//!
//! The pipeline (layering → per-layer solves → progressive re-synthesis →
//! fault simulation) is multi-pass and multi-threaded, yet its results are
//! bitwise-identical at any thread count. This crate extends that contract
//! to its *traces*: every record carries a **logical sequence number**
//! assigned on the recording thread, and the logical portion of a trace is
//! identical no matter how many workers `mfhls-par` spins up. Wall-clock
//! timestamps are an opt-in side channel ([`CaptureConfig::wall_clock`])
//! and are excluded from determinism comparisons.
//!
//! # Design
//!
//! * **Thread-local recording.** [`start_capture`] installs a recorder on
//!   the *calling* thread only. Pool workers spawned by `mfhls-par` never
//!   have one, so anything they emit is dropped. Synthesis runs entirely
//!   on the calling thread, so a whole synthesis trace is identical at any
//!   pool size; the fan-outs that remain (simulation trials, the serve
//!   pool) keep their per-item work silent.
//! * **Logical vs. diagnostic.** Records are classed [`Class::Logical`]
//!   (pinned by determinism tests: same at 1 or N threads, cache on or
//!   off) or [`Class::Diagnostic`] (best-effort insight such as cache
//!   hit/miss splits, which differ with the cache off and, behind a cache
//!   shared across requests, with what earlier requests left in it).
//!   [`Trace::logical_fingerprint`] sees only the former.
//! * **Zero cost when disabled.** Every emit checks a thread-local
//!   `Cell<bool>` first and takes field slices by reference, so a
//!   disabled call allocates nothing (pinned by `tests/zero_alloc.rs`).
//! * **Inline fan-outs must mute.** With one thread `mfhls-par` runs
//!   closures inline on the caller — i.e. on the recording thread. Code
//!   that fans out work whose *per-item* events must not depend on the
//!   thread count wraps the closure body in [`muted`].
//!
//! # Example
//!
//! ```
//! use mfhls_obs as obs;
//!
//! obs::start_capture(obs::CaptureConfig::default());
//! {
//!     let _span = obs::span(obs::Level::Info, "solve", &[("ops", 3u64.into())]);
//!     obs::event(obs::Level::Debug, "round", &[("adopted", true.into())]);
//!     obs::counter("rounds", 1);
//! }
//! let trace = obs::finish_capture().expect("capture was active");
//! assert_eq!(trace.records.len(), 4); // span start/end, event, counter
//! assert!(trace.to_jsonl().starts_with("{\"schema\":\"mfhls-obs/v1\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Severity / verbosity of a record. Orders from most to least severe, so
/// `record.level <= verbosity` selects everything at or above a cutoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// A failure the pipeline could not hide.
    Error,
    /// Something suspicious that did not stop the run.
    Warn,
    /// Coarse progress: one record per pass / layer / decision.
    Info,
    /// Fine-grained decisions (keep/defer/evict, adopt/reject detail).
    Debug,
    /// Firehose; nothing in the workspace emits at this level yet.
    Trace,
}

impl Level {
    /// Stable lowercase name used by the exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

impl std::str::FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "error" => Ok(Level::Error),
            "warn" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            "trace" => Ok(Level::Trace),
            other => Err(format!(
                "unknown log level '{other}' (expected error|warn|info|debug|trace)"
            )),
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Determinism class of a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Pinned by the determinism suite: identical at any thread count and
    /// with the layer cache on or off.
    Logical,
    /// Best-effort insight that may legitimately vary with the cache
    /// setting or a shared cache's history (e.g. cache hit/miss splits).
    Diagnostic,
}

impl Class {
    /// Stable lowercase name used by the exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            Class::Logical => "logical",
            Class::Diagnostic => "diagnostic",
        }
    }
}

/// A borrowed field value. Constructing one never allocates, so building
/// the `&[(&str, Value)]` slice for a disabled emit is free.
#[derive(Debug, Clone, Copy)]
pub enum Value<'a> {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (must be finite to round-trip through JSON).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Borrowed string.
    Str(&'a str),
}

impl From<u64> for Value<'_> {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value<'_> {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<u32> for Value<'_> {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}

impl From<i64> for Value<'_> {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value<'_> {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value<'_> {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl<'a> From<&'a str> for Value<'a> {
    fn from(v: &'a str) -> Self {
        Value::Str(v)
    }
}

/// An owned field value as stored in a [`Record`].
#[derive(Debug, Clone, PartialEq)]
pub enum OwnedValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Owned string.
    Str(String),
}

impl Value<'_> {
    fn to_owned_value(self) -> OwnedValue {
        match self {
            Value::U64(v) => OwnedValue::U64(v),
            Value::I64(v) => OwnedValue::I64(v),
            Value::F64(v) => OwnedValue::F64(v),
            Value::Bool(v) => OwnedValue::Bool(v),
            Value::Str(v) => OwnedValue::Str(v.to_owned()),
        }
    }
}

impl std::fmt::Display for OwnedValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OwnedValue::U64(v) => write!(f, "{v}"),
            OwnedValue::I64(v) => write!(f, "{v}"),
            OwnedValue::F64(v) => write!(f, "{v:?}"),
            OwnedValue::Bool(v) => write!(f, "{v}"),
            OwnedValue::Str(v) => f.write_str(v),
        }
    }
}

/// What a [`Record`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A span opened; `id` identifies it, `parent` its enclosing span.
    SpanStart,
    /// The span `id` closed.
    SpanEnd,
    /// A point-in-time event.
    Event,
    /// A counter total, flushed at [`finish_capture`].
    Counter,
    /// A histogram summary, flushed at [`finish_capture`].
    Histogram,
}

impl RecordKind {
    /// Stable snake_case name used by the exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            RecordKind::SpanStart => "span_start",
            RecordKind::SpanEnd => "span_end",
            RecordKind::Event => "event",
            RecordKind::Counter => "counter",
            RecordKind::Histogram => "histogram",
        }
    }
}

/// One trace record. `seq` is the logical sequence number: assigned in
/// emission order on the recording thread, dense from zero.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Logical sequence number (dense, from 0, in emission order).
    pub seq: u64,
    /// What happened.
    pub kind: RecordKind,
    /// Determinism class.
    pub class: Class,
    /// Severity.
    pub level: Level,
    /// Record name (span/event/counter/histogram name).
    pub name: String,
    /// Span id for `SpanStart`/`SpanEnd` records.
    pub id: Option<u64>,
    /// Enclosing span id, when emitted inside an open span.
    pub parent: Option<u64>,
    /// Structured payload.
    pub fields: Vec<(String, OwnedValue)>,
    /// Nanoseconds since capture start; `None` unless
    /// [`CaptureConfig::wall_clock`] was set. Excluded from
    /// [`Trace::logical_fingerprint`].
    pub wall_ns: Option<u64>,
}

/// Options for [`start_capture`].
#[derive(Debug, Clone, Default)]
pub struct CaptureConfig {
    /// Stamp records with nanoseconds since capture start. Off by default
    /// so traces are byte-identical across runs.
    pub wall_clock: bool,
    /// Echo records at or above this severity to stderr as they happen
    /// (the CLI's `--log <level>`).
    pub echo: Option<Level>,
}

struct Recorder {
    config: CaptureConfig,
    records: Vec<Record>,
    stack: Vec<u64>,
    next_span: u64,
    next_seq: u64,
    counters: BTreeMap<(Class, String), i64>,
    histograms: BTreeMap<String, Log2Histogram>,
    epoch: Instant,
}

/// A standalone log2-bucketed histogram over `u64` values.
///
/// This is the same structure the capture recorder aggregates behind
/// [`observe`], exposed as a value type so harnesses (the serve load
/// bench, for one) can accumulate latency distributions without an
/// active capture and estimate quantiles from the buckets. Bucket `k`
/// counts values whose bit length is `k` (bucket 0 holds the value 0),
/// so any quantile is resolved to within a factor of two — plenty for
/// p50/p99 reporting — while the whole histogram is 65 counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// log2 buckets: index `k` counts values with `bit_length == k`.
    buckets: [u64; 65],
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; 65],
        }
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Log2Histogram {
        Log2Histogram::default()
    }

    /// Records one value.
    pub fn observe(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[(u64::BITS - value.leading_zeros()) as usize] += 1;
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observed value (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest observed value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the observed values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) from the log2
    /// buckets: the upper bound of the bucket holding the `⌈q·count⌉`-th
    /// smallest observation, clamped to the observed `[min, max]`. The
    /// estimate therefore never overshoots the true quantile by more
    /// than 2× (and is exact at the extremes). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Bucket k holds values in [2^(k-1), 2^k - 1] (k = 0: just 0).
                let upper = if k == 0 {
                    0
                } else if k >= 64 {
                    u64::MAX
                } else {
                    (1u64 << k) - 1
                };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The raw bucket counts (`buckets()[k]` = observations of bit
    /// length `k`).
    pub fn buckets(&self) -> &[u64; 65] {
        &self.buckets
    }
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on the **calling thread**. Replaces any capture
/// already active on this thread (its records are discarded).
pub fn start_capture(config: CaptureConfig) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            config,
            records: Vec::new(),
            stack: Vec::new(),
            next_span: 0,
            next_seq: 0,
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            epoch: Instant::now(),
        });
    });
    ACTIVE.with(|a| a.set(true));
}

/// Stops recording on the calling thread, flushes counter and histogram
/// summaries (in name order, logical before diagnostic), and returns the
/// trace. `None` if no capture was active.
pub fn finish_capture() -> Option<Trace> {
    ACTIVE.with(|a| a.set(false));
    let recorder = RECORDER.with(|r| r.borrow_mut().take())?;
    let mut records = recorder.records;
    let mut seq = recorder.next_seq;
    let wall = recorder
        .config
        .wall_clock
        .then(|| recorder.epoch.elapsed().as_nanos() as u64);
    for ((class, name), total) in recorder.counters {
        records.push(Record {
            seq,
            kind: RecordKind::Counter,
            class,
            level: Level::Info,
            name,
            id: None,
            parent: None,
            fields: vec![("total".to_owned(), OwnedValue::I64(total))],
            wall_ns: wall,
        });
        seq += 1;
    }
    for (name, h) in recorder.histograms {
        let mut fields = vec![
            ("count".to_owned(), OwnedValue::U64(h.count)),
            ("sum".to_owned(), OwnedValue::U64(h.sum)),
            ("min".to_owned(), OwnedValue::U64(h.min)),
            ("max".to_owned(), OwnedValue::U64(h.max)),
        ];
        for (k, &n) in h.buckets.iter().enumerate() {
            if n > 0 {
                fields.push((format!("p2_{k}"), OwnedValue::U64(n)));
            }
        }
        records.push(Record {
            seq,
            kind: RecordKind::Histogram,
            class: Class::Logical,
            level: Level::Info,
            name,
            id: None,
            parent: None,
            fields,
            wall_ns: wall,
        });
        seq += 1;
    }
    Some(Trace {
        records,
        wall_clock: recorder.config.wall_clock,
    })
}

/// Whether the calling thread is currently recording (and not [`muted`]).
/// Guard expensive field computation behind this.
pub fn is_enabled() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Runs `f` under its own capture and returns its trace, preserving any
/// capture already active on the calling thread.
///
/// [`start_capture`] *replaces* the thread's recorder, which is wrong for
/// code that needs a scoped trace inside a larger one — e.g. the
/// `mfhls-svc` service tracing its own request lifecycle while a request
/// asks for a per-synthesis trace artifact. This helper parks the current
/// recorder (no records are added to it while `f` runs), installs a fresh
/// one for `f`, and restores the outer capture afterwards.
///
/// ```
/// use mfhls_obs as obs;
/// obs::start_capture(obs::CaptureConfig::default());
/// obs::event(obs::Level::Info, "outer", &[]);
/// let ((), inner) = obs::with_capture(obs::CaptureConfig::default(), || {
///     obs::event(obs::Level::Info, "inner", &[]);
/// });
/// obs::event(obs::Level::Info, "outer2", &[]);
/// let outer = obs::finish_capture().expect("outer capture still active");
/// assert_eq!(inner.records.len(), 1);
/// assert_eq!(outer.records.len(), 2);
/// ```
pub fn with_capture<R>(config: CaptureConfig, f: impl FnOnce() -> R) -> (R, Trace) {
    let saved_recorder = RECORDER.with(|r| r.borrow_mut().take());
    let saved_active = ACTIVE.with(|a| a.get());
    start_capture(config);
    let result = f();
    let trace = finish_capture().unwrap_or(Trace {
        records: Vec::new(),
        wall_clock: false,
    });
    RECORDER.with(|r| *r.borrow_mut() = saved_recorder);
    ACTIVE.with(|a| a.set(saved_active));
    (result, trace)
}

fn with_recorder(f: impl FnOnce(&mut Recorder)) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            f(rec);
        }
    });
}

impl Recorder {
    fn push(
        &mut self,
        kind: RecordKind,
        class: Class,
        level: Level,
        name: &str,
        id: Option<u64>,
        fields: &[(&str, Value<'_>)],
    ) {
        let record = Record {
            seq: self.next_seq,
            kind,
            class,
            level,
            name: name.to_owned(),
            id,
            parent: self.stack.last().copied(),
            fields: fields
                .iter()
                .map(|&(k, v)| (k.to_owned(), v.to_owned_value()))
                .collect(),
            wall_ns: self
                .config
                .wall_clock
                .then(|| self.epoch.elapsed().as_nanos() as u64),
        };
        self.next_seq += 1;
        if let Some(verbosity) = self.config.echo {
            if record.level <= verbosity && kind != RecordKind::SpanEnd {
                let mut line = format!("[{}] {}", record.level, record.name);
                for (k, v) in &record.fields {
                    let _ = write!(line, " {k}={v}");
                }
                eprintln!("{line}");
            }
        }
        self.records.push(record);
    }
}

fn emit(kind: RecordKind, class: Class, level: Level, name: &str, fields: &[(&str, Value<'_>)]) {
    if !is_enabled() {
        return;
    }
    with_recorder(|rec| rec.push(kind, class, level, name, None, fields));
}

/// Records a logical event. No-op (and allocation-free) when disabled.
pub fn event(level: Level, name: &str, fields: &[(&str, Value<'_>)]) {
    emit(RecordKind::Event, Class::Logical, level, name, fields);
}

/// Records a diagnostic event (excluded from determinism comparisons).
pub fn diagnostic(level: Level, name: &str, fields: &[(&str, Value<'_>)]) {
    emit(RecordKind::Event, Class::Diagnostic, level, name, fields);
}

/// Adds `delta` to the logical counter `name`; totals are flushed as one
/// record per counter at [`finish_capture`].
pub fn counter(name: &str, delta: i64) {
    if !is_enabled() {
        return;
    }
    with_recorder(|rec| {
        *rec.counters
            .entry((Class::Logical, name.to_owned()))
            .or_insert(0) += delta;
    });
}

/// Adds `delta` to the diagnostic counter `name` (excluded from
/// determinism comparisons).
pub fn diagnostic_counter(name: &str, delta: i64) {
    if !is_enabled() {
        return;
    }
    with_recorder(|rec| {
        *rec.counters
            .entry((Class::Diagnostic, name.to_owned()))
            .or_insert(0) += delta;
    });
}

/// Records `value` into the log2-bucketed logical histogram `name`;
/// summaries are flushed at [`finish_capture`].
pub fn observe(name: &str, value: u64) {
    if !is_enabled() {
        return;
    }
    with_recorder(|rec| {
        rec.histograms
            .entry(name.to_owned())
            .or_default()
            .observe(value);
    });
}

/// RAII guard for a logical span; closes it on drop. Obtained from
/// [`span`].
#[must_use = "dropping the guard immediately closes the span"]
pub struct Span {
    id: Option<u64>,
}

/// Opens a logical span; records emitted before the returned guard drops
/// carry it as their parent. No-op (and allocation-free) when disabled.
pub fn span(level: Level, name: &str, fields: &[(&str, Value<'_>)]) -> Span {
    if !is_enabled() {
        return Span { id: None };
    }
    let mut id = None;
    with_recorder(|rec| {
        let span_id = rec.next_span;
        rec.next_span += 1;
        rec.push(
            RecordKind::SpanStart,
            Class::Logical,
            level,
            name,
            Some(span_id),
            fields,
        );
        rec.stack.push(span_id);
        id = Some(span_id);
    });
    Span { id }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        if !is_enabled() {
            return;
        }
        with_recorder(|rec| {
            if rec.stack.last() == Some(&id) {
                rec.stack.pop();
            }
            rec.push(
                RecordKind::SpanEnd,
                Class::Logical,
                Level::Trace,
                "",
                Some(id),
                &[],
            );
        });
    }
}

/// RAII guard that suppresses recording on the current thread until
/// dropped. Obtained from [`muted`].
#[must_use = "recording is only muted while the guard is alive"]
pub struct Muted {
    prev: bool,
}

/// Suppresses recording on the calling thread until the guard drops.
///
/// Wrap the closure body of any `mfhls-par` fan-out whose per-item events
/// must not depend on the thread count: with one thread the closures run
/// inline on the recording thread and would otherwise record.
pub fn muted() -> Muted {
    Muted {
        prev: ACTIVE.with(|a| a.replace(false)),
    }
}

impl Drop for Muted {
    fn drop(&mut self) {
        let prev = self.prev;
        ACTIVE.with(|a| a.set(prev));
    }
}

/// A finished capture: the records of one recording thread, in logical
/// sequence order, counter/histogram summaries last.
#[derive(Debug, Clone)]
pub struct Trace {
    /// All records, ordered by `seq`.
    pub records: Vec<Record>,
    /// Whether wall-clock stamping was enabled for this capture.
    pub wall_clock: bool,
}

impl Trace {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// A canonical text rendering of the **logical** records only, with
    /// sequence numbers and span ids renumbered densely over the logical
    /// subset. Two runs are "logically identical" iff these strings are
    /// byte-equal: diagnostic records (whose count varies with the thread
    /// pool and cache) and wall-clock stamps never influence it.
    pub fn logical_fingerprint(&self) -> String {
        let mut out = String::new();
        let mut span_ids: BTreeMap<u64, u64> = BTreeMap::new();
        let logical = self.records.iter().filter(|r| r.class == Class::Logical);
        for (seq, r) in logical.enumerate() {
            let id = r.id.map(|raw| {
                let next = span_ids.len() as u64;
                *span_ids.entry(raw).or_insert(next)
            });
            let parent = r.parent.and_then(|raw| span_ids.get(&raw).copied());
            let _ = write!(out, "{seq} {} {} {}", r.kind.as_str(), r.level, r.name);
            if let Some(id) = id {
                let _ = write!(out, " id={id}");
            }
            if let Some(parent) = parent {
                let _ = write!(out, " parent={parent}");
            }
            for (k, v) in &r.fields {
                let _ = write!(out, " {k}={v}");
            }
            out.push('\n');
        }
        out
    }

    /// Serializes the trace as JSON Lines: a `mfhls-obs/v1` header object
    /// followed by one object per record. See DESIGN.md §10 for the
    /// schema.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"mfhls-obs/v1\",\"records\":{},\"wall_clock\":{}}}",
            self.records.len(),
            self.wall_clock
        );
        out.push('\n');
        for r in &self.records {
            let _ = write!(
                out,
                "{{\"seq\":{},\"kind\":\"{}\",\"class\":\"{}\",\"level\":\"{}\",\"name\":",
                r.seq,
                r.kind.as_str(),
                r.class.as_str(),
                r.level.as_str()
            );
            write_json_string(&mut out, &r.name);
            if let Some(id) = r.id {
                let _ = write!(out, ",\"id\":{id}");
            }
            if let Some(parent) = r.parent {
                let _ = write!(out, ",\"parent\":{parent}");
            }
            out.push_str(",\"fields\":{");
            for (k, (key, value)) in r.fields.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                write_json_string(&mut out, key);
                out.push(':');
                write_json_value(&mut out, value);
            }
            out.push('}');
            if let Some(t) = r.wall_ns {
                let _ = write!(out, ",\"t_ns\":{t}");
            }
            out.push('}');
            out.push('\n');
        }
        out
    }

    /// Serializes the trace in Chrome `trace_event` format (load it at
    /// `chrome://tracing` or <https://ui.perfetto.dev>). Spans become
    /// `B`/`E` pairs, events instants, counters/histograms `C` samples.
    /// Timestamps use wall-clock microseconds when stamped, else the
    /// logical sequence number.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (k, r) in self.records.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let ph = match r.kind {
                RecordKind::SpanStart => "B",
                RecordKind::SpanEnd => "E",
                RecordKind::Event => "i",
                RecordKind::Counter | RecordKind::Histogram => "C",
            };
            let ts = match r.wall_ns {
                Some(t) => t as f64 / 1000.0,
                None => r.seq as f64,
            };
            out.push_str("{\"name\":");
            // `E` events close the most recent `B` of the same tid, so the
            // span name is looked up from the start record.
            let name: &str = if r.kind == RecordKind::SpanEnd {
                self.records
                    .iter()
                    .find(|s| s.kind == RecordKind::SpanStart && s.id == r.id)
                    .map_or("", |s| &s.name)
            } else {
                &r.name
            };
            write_json_string(&mut out, name);
            let _ = write!(out, ",\"ph\":\"{ph}\",\"ts\":{ts:?},\"pid\":0,\"tid\":0");
            if r.kind == RecordKind::Event {
                out.push_str(",\"s\":\"t\"");
            }
            if !r.fields.is_empty() && r.kind != RecordKind::SpanEnd {
                out.push_str(",\"args\":{");
                for (j, (key, value)) in r.fields.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    write_json_string(&mut out, key);
                    out.push(':');
                    write_json_value(&mut out, value);
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_json_value(out: &mut String, v: &OwnedValue) {
    match v {
        OwnedValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        OwnedValue::I64(n) => {
            let _ = write!(out, "{n}");
        }
        OwnedValue::F64(x) if x.is_finite() => {
            let _ = write!(out, "{x:?}");
        }
        OwnedValue::F64(_) => out.push_str("null"),
        OwnedValue::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        OwnedValue::Str(s) => write_json_string(out, s),
    }
}

/// Validates a JSONL trace produced by [`Trace::to_jsonl`]: the header
/// schema tag, one object per line, dense strictly-increasing sequence
/// numbers, known record kinds, and balanced span start/end pairs.
/// Returns the record count.
///
/// # Errors
///
/// A human-readable description of the first violation, prefixed with the
/// 1-based line number.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| "empty trace".to_owned())?;
    if !header.starts_with("{\"schema\":\"mfhls-obs/v1\"") {
        return Err("line 1: missing mfhls-obs/v1 schema header".to_owned());
    }
    let mut expected_seq = 0u64;
    let mut open_spans = 0i64;
    let mut count = 0usize;
    for (idx, line) in lines {
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        if !line.starts_with('{') || !line.ends_with('}') {
            return Err(format!("line {lineno}: not a JSON object"));
        }
        let seq = extract_u64(line, "\"seq\":")
            .ok_or_else(|| format!("line {lineno}: missing \"seq\""))?;
        if seq != expected_seq {
            return Err(format!(
                "line {lineno}: sequence gap (got {seq}, expected {expected_seq})"
            ));
        }
        expected_seq += 1;
        let kind = extract_str(line, "\"kind\":\"")
            .ok_or_else(|| format!("line {lineno}: missing \"kind\""))?;
        match kind {
            "span_start" => open_spans += 1,
            "span_end" => {
                open_spans -= 1;
                if open_spans < 0 {
                    return Err(format!(
                        "line {lineno}: span_end without matching span_start"
                    ));
                }
            }
            "event" | "counter" | "histogram" => {}
            other => return Err(format!("line {lineno}: unknown kind '{other}'")),
        }
        let class = extract_str(line, "\"class\":\"")
            .ok_or_else(|| format!("line {lineno}: missing \"class\""))?;
        if class != "logical" && class != "diagnostic" {
            return Err(format!("line {lineno}: unknown class '{class}'"));
        }
        count += 1;
    }
    if open_spans != 0 {
        return Err(format!("{open_spans} span(s) left open at end of trace"));
    }
    Ok(count)
}

fn extract_u64(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn extract_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(key)? + key.len()..];
    Some(&rest[..rest.find('"')?])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capture<R>(config: CaptureConfig, f: impl FnOnce() -> R) -> (R, Trace) {
        start_capture(config);
        let r = f();
        let trace = finish_capture().expect("capture was started");
        (r, trace)
    }

    #[test]
    fn disabled_by_default() {
        assert!(!is_enabled());
        event(Level::Info, "dropped", &[]);
        let _span = span(Level::Info, "dropped", &[]);
        counter("dropped", 1);
        observe("dropped", 1);
        assert!(finish_capture().is_none());
    }

    #[test]
    fn records_spans_events_and_summaries_in_order() {
        let (_, trace) = capture(CaptureConfig::default(), || {
            let _outer = span(Level::Info, "outer", &[("n", 2u64.into())]);
            event(Level::Debug, "step", &[("ok", true.into())]);
            {
                let _inner = span(Level::Debug, "inner", &[]);
                counter("steps", 1);
            }
            counter("steps", 2);
            observe("latency", 5);
        });
        let kinds: Vec<_> = trace.records.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![
                RecordKind::SpanStart,
                RecordKind::Event,
                RecordKind::SpanStart,
                RecordKind::SpanEnd,
                RecordKind::SpanEnd,
                RecordKind::Counter,
                RecordKind::Histogram,
            ]
        );
        // Dense sequence numbers, nesting via parent pointers.
        assert!(trace
            .records
            .iter()
            .enumerate()
            .all(|(k, r)| r.seq == k as u64));
        assert_eq!(trace.records[1].parent, Some(0));
        assert_eq!(trace.records[2].parent, Some(0));
        assert_eq!(trace.records[5].fields[0].1, OwnedValue::I64(3));
        assert!(trace.records.iter().all(|r| r.wall_ns.is_none()));
    }

    #[test]
    fn fingerprint_ignores_diagnostics_and_renumbers() {
        let (_, noisy) = capture(CaptureConfig::default(), || {
            diagnostic(Level::Debug, "cache_hit", &[]);
            let _s = span(Level::Info, "work", &[]);
            diagnostic(Level::Debug, "cache_miss", &[]);
            event(Level::Info, "done", &[("x", 1u64.into())]);
            diagnostic_counter("hits", 3);
        });
        let (_, quiet) = capture(CaptureConfig::default(), || {
            let _s = span(Level::Info, "work", &[]);
            event(Level::Info, "done", &[("x", 1u64.into())]);
        });
        assert_ne!(noisy.records.len(), quiet.records.len());
        assert_eq!(noisy.logical_fingerprint(), quiet.logical_fingerprint());
        assert!(!quiet.logical_fingerprint().is_empty());
    }

    #[test]
    fn muted_suppresses_and_restores() {
        let (_, trace) = capture(CaptureConfig::default(), || {
            event(Level::Info, "before", &[]);
            {
                let _m = muted();
                assert!(!is_enabled());
                event(Level::Info, "suppressed", &[]);
            }
            event(Level::Info, "after", &[]);
        });
        let names: Vec<_> = trace.records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["before", "after"]);
    }

    #[test]
    fn jsonl_round_trip_validates() {
        let (_, trace) = capture(CaptureConfig::default(), || {
            let _s = span(Level::Info, "solve \"x\"\n", &[("f", 0.5f64.into())]);
            event(Level::Warn, "odd", &[("why", "drift".into())]);
            counter("rounds", 2);
        });
        let jsonl = trace.to_jsonl();
        assert_eq!(validate_jsonl(&jsonl), Ok(trace.records.len()));
        // Determinism: serializing twice is byte-identical.
        assert_eq!(jsonl, trace.to_jsonl());
    }

    #[test]
    fn validate_rejects_corruption() {
        let (_, trace) = capture(CaptureConfig::default(), || {
            event(Level::Info, "a", &[]);
            event(Level::Info, "b", &[]);
        });
        let good = trace.to_jsonl();
        assert!(validate_jsonl("").is_err());
        assert!(validate_jsonl("{\"schema\":\"other\"}\n").is_err());
        let gap = good.replace("\"seq\":1", "\"seq\":7");
        assert!(validate_jsonl(&gap).unwrap_err().contains("sequence gap"));
        let unbalanced = format!(
            "{}{{\"seq\":2,\"kind\":\"span_end\",\"class\":\"logical\",\"level\":\"trace\",\"name\":\"\",\"fields\":{{}}}}\n",
            good
        );
        assert!(validate_jsonl(&unbalanced)
            .unwrap_err()
            .contains("span_end"));
    }

    #[test]
    fn chrome_trace_shape() {
        let (_, trace) = capture(
            CaptureConfig {
                wall_clock: true,
                echo: None,
            },
            || {
                let _s = span(Level::Info, "outer", &[("k", "v".into())]);
                event(Level::Info, "tick", &[]);
            },
        );
        let chrome = trace.to_chrome_trace();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"B\""));
        assert!(chrome.contains("\"ph\":\"E\""));
        assert!(chrome.contains("\"ph\":\"i\""));
        // The E event re-states the span name for chrome://tracing.
        assert_eq!(chrome.matches("\"outer\"").count(), 2);
        assert!(trace.records.iter().all(|r| r.wall_ns.is_some()));
    }

    #[test]
    fn level_parsing() {
        assert_eq!("debug".parse::<Level>(), Ok(Level::Debug));
        assert!("verbose".parse::<Level>().is_err());
        assert!(Level::Error < Level::Trace);
    }

    #[test]
    fn log2_histogram_quantiles_bound_the_truth() {
        let mut h = Log2Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in 1..=1000u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.sum(), 500_500);
        // The estimate is the bucket upper bound: at least the true
        // quantile, at most 2x it (clamped to the observed max).
        for (q, truth) in [(0.5, 500u64), (0.9, 900), (0.99, 990)] {
            let est = h.quantile(q);
            assert!(est >= truth, "q={q}: {est} < {truth}");
            assert!(est <= (2 * truth).min(1000), "q={q}: {est} > 2x{truth}");
        }
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn log2_histogram_merge_matches_combined_stream() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        let mut combined = Log2Histogram::new();
        for v in [3u64, 17, 900, 0, 5] {
            a.observe(v);
            combined.observe(v);
        }
        for v in [1u64, 250_000, 8] {
            b.observe(v);
            combined.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, combined);
        // Merging an empty histogram is a no-op.
        let before = a.clone();
        a.merge(&Log2Histogram::new());
        assert_eq!(a, before);
    }
}
