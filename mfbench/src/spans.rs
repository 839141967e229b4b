//! Wall-clock spans recorded around the benchmark's own calls into the
//! program's public functions.
//!
//! A span's *self* time is its duration minus the time its child spans
//! cover, so nested spans never count twice. Per name the recorder keeps
//! the call count, the total self time and every self-time sample (for
//! exact percentiles); the first [`MAX_EVENTS`] spans are also kept with
//! their start times and written out as a Chrome trace at the end.
//!
//! The recorder is the benchmark's own rather than an `mfhls-obs` capture:
//! an active capture on the serving thread switches
//! `SynthesisService::serve` to its sequential loop, records every
//! program event next to the benchmark's spans, and its Chrome exporter
//! looks span names up by a linear scan per span end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept for the Chrome trace; later spans still count in the
/// per-name totals.
pub const MAX_EVENTS: usize = 100_000;

/// Totals of all spans sharing one name.
#[derive(Debug, Clone, Default)]
pub struct Agg {
    /// Spans closed.
    pub calls: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Self time of each span, nanoseconds, in closing order.
    pub samples_ns: Vec<u64>,
}

impl Agg {
    /// Summed self time in milliseconds.
    pub fn busy_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }

    /// Nearest-rank percentile of the per-span self times, microseconds
    /// (0 without samples).
    pub fn percentile_us(&self, p: f64) -> f64 {
        let us: Vec<f64> = self.samples_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        crate::stats::percentile(&us, p).unwrap_or(0.0)
    }
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

struct Event {
    name: &'static str,
    track: u32,
    start_ns: u64,
    dur_ns: u64,
    id: Option<u64>,
}

/// An in-memory span recorder for one thread of the benchmark.
pub struct Spans {
    epoch: Instant,
    stack: Vec<Open>,
    aggs: BTreeMap<&'static str, Agg>,
    events: Vec<Event>,
}

impl Spans {
    /// An empty recorder; trace timestamps count from now.
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            stack: Vec::new(),
            aggs: BTreeMap::new(),
            events: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; spans `f` opens on the
    /// recorder it is handed become this span's children.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        self.time_with_id(name, None, f)
    }

    /// Like [`Spans::time`], tagging the trace event with `id` (the
    /// request or input the span belongs to).
    pub fn time_with_id<R>(
        &mut self,
        name: &'static str,
        id: Option<u64>,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> R {
        self.stack.push(Open {
            name,
            start: Instant::now(),
            child_ns: 0,
        });
        let out = f(self);
        let end = Instant::now();
        let open = self.stack.pop().expect("span stack is balanced by time()");
        debug_assert_eq!(open.name, name);
        let dur = nanos(end.duration_since(open.start));
        self.close(name, open.start, dur, open.child_ns, id, 0);
        out
    }

    /// Records an interval measured elsewhere (for example on another
    /// thread) as a top-level span on trace track `track`.
    pub fn record(
        &mut self,
        name: &'static str,
        track: u32,
        start: Instant,
        end: Instant,
        id: Option<u64>,
    ) {
        let dur = nanos(end.saturating_duration_since(start));
        self.close(name, start, dur, 0, id, track);
    }

    fn close(
        &mut self,
        name: &'static str,
        start: Instant,
        dur_ns: u64,
        child_ns: u64,
        id: Option<u64>,
        track: u32,
    ) {
        let self_ns = dur_ns.saturating_sub(child_ns);
        if track == 0 {
            if let Some(parent) = self.stack.last_mut() {
                parent.child_ns += dur_ns;
            }
        }
        let agg = self.aggs.entry(name).or_default();
        agg.calls += 1;
        agg.self_ns += self_ns;
        agg.samples_ns.push(self_ns);
        if self.events.len() < MAX_EVENTS {
            self.events.push(Event {
                name,
                track,
                start_ns: nanos(start.saturating_duration_since(self.epoch)),
                dur_ns,
                id,
            });
        }
    }

    /// The totals of spans named `name` (empty when none closed).
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).cloned().unwrap_or_default()
    }

    /// Summed self time of spans named `name`, milliseconds.
    pub fn busy_ms(&self, name: &str) -> f64 {
        self.aggs.get(name).map_or(0.0, Agg::busy_ms)
    }

    /// Spans closed under `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.aggs.get(name).map_or(0, |a| a.calls)
    }

    /// The recorded spans in Chrome `trace_event` format (complete `X`
    /// events, microsecond timestamps; one trace track per `track`).
    /// Open it at <https://ui.perfetto.dev>.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (k, e) in self.events.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}",
                e.name,
                e.track + 1,
                e.start_ns as f64 / 1e3,
                e.dur_ns as f64 / 1e3
            );
            if let Some(id) = e.id {
                let _ = write!(out, ",\"args\":{{\"id\":{id}}}");
            }
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new();
        s.time("outer", |s| {
            spin(200);
            s.time("inner", |_| spin(2_000));
            s.time("inner", |_| spin(2_000));
        });
        let outer = s.agg("outer");
        let inner = s.agg("inner");
        assert_eq!((outer.calls, inner.calls), (1, 2));
        assert!(inner.self_ns >= 4_000_000);
        // The outer span's self time is its own 200 us plus bookkeeping,
        // far below the 4 ms its children took.
        assert!(outer.self_ns < 2_000_000, "{outer:?}");
        assert_eq!(s.calls("missing"), 0);
    }

    #[test]
    fn chrome_trace_is_json_with_one_event_per_span() {
        let mut s = Spans::new();
        s.time_with_id("a", Some(7), |s| s.time("b", |_| ()));
        let t0 = Instant::now();
        s.record("w", 2, t0, Instant::now(), None);
        let trace = s.to_chrome_trace();
        let v = mfhls_svc::Json::parse(&trace).expect("valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[1].get("name").and_then(|n| n.as_str()), Some("a"));
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("id"))
                .and_then(|i| i.as_u64()),
            Some(7)
        );
        assert_eq!(events[2].get("tid").and_then(|t| t.as_u64()), Some(3));
    }
}
