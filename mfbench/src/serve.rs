//! The serving workloads: seeded NDJSON windows fed through
//! `SynthesisService::serve`, checked response by response, and the
//! replay of one request's stages through the public API functions.

use std::collections::HashMap;
use std::io::{self, BufRead, Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mfhls_core::{AssayShape, DeltaCache, SharedLayerCache, Synthesizer};
use mfhls_svc::api::{response_error, response_ok};
use mfhls_svc::json::write_json_string;
use mfhls_svc::{parse_incoming, ErrorKind, Incoming, Json, ServiceConfig, ServiceSummary};

use crate::load::{Expected, Line};
use crate::spans::Spans;
use crate::synth::{breakdown, ReplayCounts, RunCounters};

/// One admission window: request lines plus the blank line closing it.
pub struct Window {
    /// The bytes offered to the service.
    pub bytes: Vec<u8>,
    /// Index of the window's first line in the stream.
    pub first: usize,
    /// Request lines in the window.
    pub len: usize,
}

/// Cuts `lines` into windows of `per_window` request lines.
pub fn windows(lines: &[Line], per_window: usize) -> Vec<Window> {
    lines
        .chunks(per_window)
        .enumerate()
        .map(|(k, chunk)| {
            let mut bytes = Vec::new();
            for line in chunk {
                bytes.extend_from_slice(line.text.as_bytes());
                bytes.push(b'\n');
            }
            bytes.push(b'\n');
            Window {
                bytes,
                first: k * per_window,
                len: chunk.len(),
            }
        })
        .collect()
}

/// FNV-1a over `bytes`; response lines are compared by this hash.
fn fnv(bytes: &[u8]) -> u64 {
    mfhls_svc::shard::fnv1a64(bytes)
}

/// Offers windows to the service one at a time, from window `first` on,
/// cycling through the stream, as `mfhls serve < file` reads a file: the
/// service pulls the next window when it is ready for it. Stops (EOF)
/// after `limit` windows or, at a window boundary, once the deadline has
/// passed.
struct Feeder<'a> {
    windows: &'a [Window],
    first: usize,
    limit: usize,
    deadline: Option<Instant>,
    started: usize,
    pos: usize,
    open: bool,
    /// When each window's first byte was offered.
    offered: &'a mut Vec<Instant>,
    /// When each window's last byte was consumed.
    consumed: &'a mut Vec<Instant>,
}

impl Feeder<'_> {
    fn current(&self) -> &Window {
        &self.windows[(self.first + self.started - 1) % self.windows.len()]
    }
}

impl Read for Feeder<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let chunk = self.fill_buf()?;
        let n = chunk.len().min(buf.len());
        buf[..n].copy_from_slice(&chunk[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Feeder<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.open && self.pos >= self.current().bytes.len() {
            self.open = false;
        }
        if !self.open {
            let expired = self.deadline.is_some_and(|d| Instant::now() >= d);
            if self.started >= self.limit || expired {
                return Ok(&[]);
            }
            self.started += 1;
            self.pos = 0;
            self.open = true;
            self.offered.push(Instant::now());
        }
        let pos = self.pos;
        Ok(&self.current().bytes[pos..])
    }

    fn consume(&mut self, amt: usize) {
        if !self.open || amt == 0 {
            return;
        }
        self.pos += amt;
        if self.pos >= self.current().bytes.len() {
            self.consumed.push(Instant::now());
        }
    }
}

/// One response line as the writer saw it.
#[derive(Debug, Clone, Copy)]
pub struct Response {
    /// FNV-1a hash of the line, without its newline.
    pub hash: u64,
    /// Whether the line reports `"status":"ok"`.
    pub ok: bool,
}

/// Records the response stream: a timestamp and line count per write
/// (the service writes each window's responses in one call) and a hash
/// per line, so checking needs no copy of the stream.
#[derive(Default)]
struct Sink {
    writes: Vec<(Instant, usize)>,
    lines: Vec<Response>,
    partial: Vec<u8>,
}

struct Writer<'a>(&'a mut Sink);

impl Write for Writer<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let at = Instant::now();
        let sink = &mut *self.0;
        let mut count = 0;
        for piece in buf.split_inclusive(|&b| b == b'\n') {
            let Some(line) = piece.strip_suffix(b"\n") else {
                sink.partial.extend_from_slice(piece);
                continue;
            };
            let line = if sink.partial.is_empty() {
                line.to_vec()
            } else {
                let mut whole = std::mem::take(&mut sink.partial);
                whole.extend_from_slice(line);
                whole
            };
            sink.lines.push(Response {
                hash: fnv(&line),
                ok: is_ok(&line),
            });
            count += 1;
        }
        sink.writes.push((at, count));
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn is_ok(line: &[u8]) -> bool {
    const OK: &[u8] = br#""status":"ok""#;
    line.windows(OK.len()).any(|w| w == OK)
}

/// What one serve loop did.
pub struct Served {
    /// Wall time of the `serve` call.
    pub wall: Duration,
    /// The loop's summary.
    pub summary: ServiceSummary,
    /// Stream index of the first window offered.
    pub first: usize,
    /// Windows offered.
    pub windows: usize,
    /// Per window: offered, fully consumed, responses written.
    pub stamps: Vec<(Instant, Instant, Instant)>,
    /// Response lines in output order.
    pub responses: Vec<Response>,
    /// Lines per write, in write order.
    pub write_lines: Vec<usize>,
}

impl Served {
    /// Per-window latency from first byte offered to responses written,
    /// milliseconds.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.stamps
            .iter()
            .map(|&(o, _, w)| w.saturating_duration_since(o).as_secs_f64() * 1e3)
            .collect()
    }
}

/// Serves up to `limit` windows from window `first` on (cycling through
/// `windows`), stopping early at `deadline`.
///
/// # Errors
///
/// I/O errors of the serve loop; a loop that loses a window's stamps or
/// responses is reported as [`io::ErrorKind::InvalidData`].
pub fn serve(
    service: &mfhls_svc::SynthesisService,
    windows: &[Window],
    first: usize,
    limit: usize,
    deadline: Option<Instant>,
) -> io::Result<Served> {
    let mut offered = Vec::new();
    let mut consumed = Vec::new();
    let mut sink = Sink::default();
    let feeder = Feeder {
        windows,
        first,
        limit,
        deadline,
        started: 0,
        pos: 0,
        open: false,
        offered: &mut offered,
        consumed: &mut consumed,
    };
    let start = Instant::now();
    let summary = service.serve(feeder, Writer(&mut sink))?;
    let wall = start.elapsed();
    let started = offered.len();
    if consumed.len() != started || sink.writes.len() != started {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{started} windows offered, {} consumed, {} written",
                consumed.len(),
                sink.writes.len()
            ),
        ));
    }
    let stamps = offered
        .iter()
        .zip(&consumed)
        .zip(&sink.writes)
        .map(|((&o, &c), &(w, _))| (o, c, w))
        .collect();
    Ok(Served {
        wall,
        summary,
        first,
        windows: started,
        stamps,
        write_lines: sink.writes.iter().map(|&(_, n)| n).collect(),
        responses: sink.lines,
    })
}

/// The expected response of a request content, independent of its id.
enum Memo {
    /// An ok response: the bytes around the id string.
    Ok(String, String),
    /// Rejected while read: kind and message.
    Rejected(ErrorKind, String),
    /// Admitted, then failed to synthesize: the message.
    SolveError(String),
}

const SENTINEL_ID: &str = "\u{1}id\u{1}";

/// Expected response lines, computed the way the service must answer:
/// the admission functions for rejections and an independent
/// `Synthesizer::run` (no shared or delta cache) encoded by `response_ok`
/// for everything else. Memoised per request content.
pub struct Reference {
    max_ops: usize,
    memo: HashMap<Vec<u8>, Memo>,
}

impl Reference {
    /// A reference for a service admitting at most `max_ops` operations.
    pub fn new(max_ops: usize) -> Reference {
        Reference {
            max_ops,
            memo: HashMap::new(),
        }
    }

    /// The exact response line `line` must draw, and its outcome: an ok
    /// response, a rejection while the line is read, or (rarely, for a
    /// generated assay that exhausts its device budget) a synthesis
    /// error, which the service reports in the window's solved order.
    pub fn expected(&mut self, line: &str) -> (String, Expected) {
        let req = match parse_incoming(line) {
            Ok(Incoming::Synthesize(req)) => req,
            Ok(_) => unreachable!("generated streams carry no control lines"),
            Err(e) => {
                let text = encode_error(salvage_id(line).as_deref(), e.kind, &e.message);
                return (text, Expected::Rejected(e.kind));
            }
        };
        let mut blank = (*req).clone();
        blank.id.clear();
        let key = blank.canonical_request_bytes();
        let max_ops = self.max_ops;
        let memo = self.memo.entry(key).or_insert_with(|| {
            let resolved = req
                .resolve_assay(max_ops)
                .and_then(|assay| Ok((assay, req.resolve_config()?)));
            match resolved {
                Err(e) => Memo::Rejected(e.kind, e.message),
                Ok((assay, config)) => match Synthesizer::new(config.clone()).run(&assay) {
                    Ok(result) => {
                        let mut out = String::new();
                        response_ok(
                            SENTINEL_ID,
                            &assay,
                            &result,
                            req.artifacts,
                            None,
                            false,
                            &config.solver,
                        )
                        .write(&mut out);
                        let mut quoted = String::new();
                        write_json_string(SENTINEL_ID, &mut quoted);
                        let (before, after) = out.split_once(&quoted).expect("the id appears once");
                        Memo::Ok(before.to_owned(), after.to_owned())
                    }
                    Err(e) => Memo::SolveError(e.to_string()),
                },
            }
        });
        match memo {
            Memo::Ok(before, after) => {
                let mut out = before.clone();
                write_json_string(&req.id, &mut out);
                out.push_str(after);
                (out, Expected::Ok)
            }
            Memo::Rejected(kind, message) => (
                encode_error(Some(&req.id), *kind, message),
                Expected::Rejected(*kind),
            ),
            Memo::SolveError(message) => (
                encode_error(Some(&req.id), ErrorKind::SynthesisError, message),
                Expected::Ok,
            ),
        }
    }
}

fn encode_error(id: Option<&str>, kind: ErrorKind, message: &str) -> String {
    let mut out = String::new();
    response_error(id, kind, message).write(&mut out);
    out
}

/// The id of a line `parse_incoming` rejected, when the line parses far
/// enough to carry one (the service echoes it the same way).
fn salvage_id(line: &str) -> Option<String> {
    let v = Json::parse(line).ok()?;
    v.get("id").and_then(Json::as_str).map(str::to_owned)
}

/// Checks every response of `served` against the stream it answered.
///
/// A line is checked byte for byte against the [`Reference`] when
/// `full(line_index)` holds, when it is a rejection, or when its response
/// is not ok; otherwise an ok status suffices. The reference must also
/// agree with the outcome the generator expected. Returns the failed
/// operations and notes on the first few failures.
pub fn check(
    served: &Served,
    lines: &[Line],
    windows: &[Window],
    reference: &mut Reference,
    full: impl Fn(usize) -> bool,
) -> (u64, Vec<String>) {
    let mut expected_hash: Vec<Option<(u64, Expected)>> = vec![None; lines.len()];
    let mut failed = 0;
    let mut notes = Vec::new();
    let mut cursor = 0;
    for (k, &written) in served.write_lines.iter().enumerate() {
        let window = &windows[(served.first + k) % windows.len()];
        let got = &served.responses[cursor..(cursor + written).min(served.responses.len())];
        cursor += written;
        if written != window.len {
            failed += window.len as u64;
            note(
                &mut notes,
                format!(
                    "window {k}: {written} responses for {} requests",
                    window.len
                ),
            );
            continue;
        }
        // Rejections are written while the window is read, ahead of the
        // window's solved responses.
        let idx: Vec<usize> = (window.first..window.first + window.len).collect();
        let order = idx
            .iter()
            .filter(|&&i| lines[i].expected != Expected::Ok)
            .chain(idx.iter().filter(|&&i| lines[i].expected == Expected::Ok));
        for (&i, response) in order.zip(got) {
            let line = &lines[i];
            let cheap = line.expected == Expected::Ok && response.ok && !full(i);
            if cheap {
                continue;
            }
            let (hash, outcome) = *expected_hash[i].get_or_insert_with(|| {
                let (text, outcome) = reference.expected(&line.text);
                (fnv(text.as_bytes()), outcome)
            });
            if outcome != line.expected {
                failed += 1;
                note(
                    &mut notes,
                    format!(
                        "line {i}: reference gives {outcome:?}, generator {:?}",
                        line.expected
                    ),
                );
            } else if hash != response.hash {
                failed += 1;
                note(
                    &mut notes,
                    format!("line {i}: response differs from the reference"),
                );
            }
        }
    }
    (failed, notes)
}

fn note(notes: &mut Vec<String>, msg: String) {
    if notes.len() < 8 {
        notes.push(msg);
    }
}

/// Work counters of a stage replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageCounts {
    /// Lines `parse_incoming` rejected.
    pub parse_failed: u64,
    /// Requests `resolve_assay`/`resolve_config` rejected.
    pub resolve_rejected: u64,
    /// Delta-cache lookups answered whole.
    pub delta_hits: u64,
    /// Response bytes encoded.
    pub encode_bytes: u64,
    /// The program's counters of the synthesis runs on misses.
    pub runs: RunCounters,
    /// Counters of the first-pass replays of those runs.
    pub replay: ReplayCounts,
}

/// Span names of the stages a request passes through.
pub const STAGES: [&str; 7] = [
    "svc.api.parse",
    "svc.api.resolve",
    "core.delta.shape",
    "core.delta.lookup",
    "core.delta.insert",
    "core.synth",
    "svc.api.encode",
];

/// Replays requests through the stages the service runs on each:
/// `parse_incoming`, `resolve_assay`/`resolve_config`, `AssayShape::of`,
/// `DeltaCache::lookup_full`, `Synthesizer::run` on a miss (with the
/// shared layer cache) and `DeltaCache::insert`, then `response_ok` or
/// `response_error` and `Json::write` — the order `solve_one` uses, on
/// caches sized like the service's.
pub struct StageReplay {
    max_ops: usize,
    cache: Arc<SharedLayerCache>,
    delta: DeltaCache,
    /// Counters of every line replayed so far.
    pub counts: StageCounts,
}

impl StageReplay {
    /// Fresh caches sized by `config`.
    pub fn new(config: &ServiceConfig) -> StageReplay {
        StageReplay {
            max_ops: config.max_ops,
            cache: Arc::new(SharedLayerCache::new(config.cache_entries)),
            delta: DeltaCache::new(config.cache_entries),
            counts: StageCounts::default(),
        }
    }

    /// Replays one request line and returns its response line. Misses
    /// also go through [`breakdown`], outside the stage spans, so their
    /// layers show up by name.
    pub fn line(&mut self, text: &str, spans: &mut Spans) -> String {
        let parsed = spans.time("svc.api.parse", |_| {
            parse_incoming(text).map_err(|e| (salvage_id(text), e))
        });
        let req = match parsed {
            Ok(Incoming::Synthesize(req)) => req,
            Ok(_) => return String::new(),
            Err((id, e)) => {
                self.counts.parse_failed += 1;
                return self.encode(spans, || encode_error(id.as_deref(), e.kind, &e.message));
            }
        };
        let max_ops = self.max_ops;
        let resolved = spans.time("svc.api.resolve", |_| {
            req.resolve_assay(max_ops)
                .and_then(|assay| Ok((assay, req.resolve_config()?)))
        });
        let (assay, config) = match resolved {
            Ok(pair) => pair,
            Err(e) => {
                self.counts.resolve_rejected += 1;
                return self.encode(spans, || encode_error(Some(&req.id), e.kind, &e.message));
            }
        };
        let shape = spans.time("core.delta.shape", |_| AssayShape::of(&assay, &config).ok());
        let hit = shape
            .as_ref()
            .and_then(|shape| spans.time("core.delta.lookup", |_| self.delta.lookup_full(shape)));
        let delta_hit = hit.is_some();
        let result = match hit {
            Some(result) => Ok(result),
            None => {
                let synthesizer =
                    Synthesizer::new(config.clone()).with_shared_cache(self.cache.clone());
                let run = spans.time("core.synth", |_| synthesizer.run(&assay));
                if let Ok(result) = &run {
                    if let Some(shape) = &shape {
                        spans.time("core.delta.insert", |_| self.delta.insert(shape, result));
                    }
                    self.counts.runs.add(result);
                    if let Ok(pass) = breakdown(&assay, &config, result, spans) {
                        self.counts.replay.add(&pass.counts);
                    }
                }
                run
            }
        };
        self.counts.delta_hits += u64::from(delta_hit);
        self.encode(spans, || match &result {
            Ok(result) => {
                let mut out = String::new();
                response_ok(
                    &req.id,
                    &assay,
                    result,
                    req.artifacts,
                    None,
                    delta_hit,
                    &config.solver,
                )
                .write(&mut out);
                out
            }
            Err(e) => encode_error(Some(&req.id), ErrorKind::SynthesisError, &e.to_string()),
        })
    }

    /// Runs the encode stage and counts its bytes.
    fn encode(&mut self, spans: &mut Spans, encode: impl FnOnce() -> String) -> String {
        let out = spans.time("svc.api.encode", |_| encode());
        self.counts.encode_bytes += out.len() as u64;
        out
    }
}
