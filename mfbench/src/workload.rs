//! One workload run: set-up, the timed phases, the output checks and the
//! metrics.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use mfhls_core::{SynthConfig, Synthesizer};
use mfhls_graph::rng::SplitMix64;
use mfhls_svc::{ServiceConfig, SynthesisService};

use crate::calib;
use crate::load::{self, Line};
use crate::report::{peak_rss_kb, Outcome};
use crate::serve::{self, Reference, Served, StageReplay, Window};
use crate::spans::Spans;
use crate::stats::{geomean, median, percentile};
use crate::synth::{self, Input, Quality, RunCounters, Timed};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Timed cycles every synthesis run completes, however long they take.
const MIN_CYCLES: usize = 3;

/// Quality sums (fixed exec minutes, devices, paths) of the
/// `synth-heuristic` inputs at the 0.11.0 baseline; a run whose sums
/// are worse fails its check.
const HEURISTIC_QUALITY: Quality = (2799, 135, 228);

/// Quality sums of the `synth-portfolio` inputs at the 0.11.0 baseline.
const PORTFOLIO_QUALITY: Quality = (689, 60, 73);

/// Request lines per admission window of `serve-replay`.
const REPLAY_WINDOW: usize = 8;
/// Lines of the `serve-replay` stream; the timed phase cycles through it.
const REPLAY_LINES: usize = 24_000;
/// Lines the traced `serve-replay` run replays stage by stage.
const REPLAY_STAGE_LINES: usize = 20_000;

/// Request lines per admission window of `serve-unique`: two, so a run
/// holds over a thousand windows and the p99 has ten samples beyond it.
const UNIQUE_WINDOW: usize = 2;
/// `serve-unique` lines generated per second of the timed phase, well
/// above what two threads serve, so the stream outlasts the phase.
const UNIQUE_LINES_PER_S: f64 = 350.0;
/// Every this many `serve-unique` lines is checked byte for byte.
const UNIQUE_CHECK_EVERY: usize = 8;
/// Lines the traced `serve-unique` run replays stage by stage.
const UNIQUE_STAGE_LINES: usize = 120;

/// Run parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Where a traced run writes its Chrome trace.
    pub trace_dir: PathBuf,
}

/// Runs `workload`.
///
/// # Errors
///
/// An unknown workload name, or an I/O failure of the serve loop.
pub fn run(workload: &str, params: &Params) -> Result<Outcome, String> {
    mfhls_par::set_default_threads(Some(crate::THREADS));
    let mut spans = Spans::new();
    let mut outcome = match workload {
        "synth-heuristic" => run_synth(false, params, &mut spans)?,
        "synth-portfolio" => run_synth(true, params, &mut spans)?,
        "serve-replay" => run_serve(false, params, &mut spans)?,
        "serve-unique" => run_serve(true, params, &mut spans)?,
        other => {
            return Err(format!(
                "unknown workload '{other}' ({})",
                crate::WORKLOADS.join("|")
            ))
        }
    };
    if params.trace {
        let path = params.trace_dir.join(format!("{workload}.trace.json"));
        std::fs::create_dir_all(&params.trace_dir)
            .and_then(|()| std::fs::write(&path, spans.to_chrome_trace()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("mfbench: chrome trace written to {}", path.display());
    } else {
        let peak_kb = peak_rss_kb().unwrap_or(0);
        outcome.push("peak_rss_mb", "MB", peak_kb as f64 / 1024.0);
    }
    Ok(outcome)
}

/// Builds the workload's state [`SETUPS`] times, dropping the previous
/// build first, and returns the last build with the median set-up time
/// in seconds at the reference speed.
fn set_up<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut state = None;
    let mut seconds = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        drop(state.take());
        let kernel_ms = calib::measure();
        let t0 = Instant::now();
        state = Some(build()?);
        seconds.push(t0.elapsed().as_secs_f64() * calib::factor(kernel_ms));
    }
    let state = state.expect("SETUPS is positive");
    Ok((state, median(&seconds).unwrap_or(0.0)))
}

fn run_synth(portfolio: bool, params: &Params, spans: &mut Spans) -> Result<Outcome, String> {
    let config = synth::config(portfolio, true);
    let (inputs, setup_s) = set_up(|| {
        let inputs = if portfolio {
            synth::portfolio_inputs(params.seed)
        } else {
            synth::heuristic_inputs(params.seed)
        };
        let synthesizer = Synthesizer::new(config.clone());
        for input in &inputs {
            let _ = std::hint::black_box(synthesizer.run(&input.assay));
        }
        Ok(inputs)
    })?;
    let mut rng = SplitMix64::seed_from_u64(params.seed).split(0x7379_6e74);
    let mut outcome = Outcome::default();
    let mut timed = Timed::new(inputs.len());
    if params.trace {
        let seconds = params.seconds / 2.0;
        synth::run_timed(
            &inputs, &config, seconds, MIN_CYCLES, &mut rng, &mut timed, None,
        );
        let plain = geomean(&timed.medians_ms()).unwrap_or(0.0);
        let mut traced = Timed::new(inputs.len());
        synth::run_timed(
            &inputs,
            &config,
            seconds,
            MIN_CYCLES,
            &mut rng,
            &mut traced,
            Some(spans),
        );
        let overhead = geomean(&traced.medians_ms()).unwrap_or(0.0) / plain;
        merge_timed(&mut timed, traced);
        let (replay, runs) = replay_synth(&inputs, &config, spans);
        let layers = Layers {
            replay,
            runs,
            delta: (0, 0.0),
            stages: None,
            kernel_ms: timed.kernel_ms.clone(),
        };
        per_layer(&mut outcome, spans, &layers, overhead);
    } else {
        synth::run_timed(
            &inputs,
            &config,
            params.seconds,
            MIN_CYCLES,
            &mut rng,
            &mut timed,
            None,
        );
        let medians = timed.medians_ms();
        let samples = timed.samples_ms.iter().map(Vec::len).min().unwrap_or(0);
        outcome.push("setup_s", "s", setup_s);
        outcome.push("throughput_ops", "1/s", timed.throughput());
        outcome.push("latency_ms", "ms", geomean(&medians).unwrap_or(0.0));
        outcome.push(
            "tail_latency_ms",
            "ms",
            medians.iter().copied().fold(0.0, f64::max),
        );
        outcome.notes.push(format!(
            "{} inputs, >= {samples} runs each; latency_ms is the geomean of per-input \
             medians, tail_latency_ms the slowest input's median; calibration kernel {:.3} ms",
            inputs.len(),
            median(&timed.kernel_ms).unwrap_or(0.0)
        ));
    }
    let expected = if portfolio {
        PORTFOLIO_QUALITY
    } else {
        HEURISTIC_QUALITY
    };
    let (check_failed, notes) = synth::check(&inputs, portfolio, &timed, expected);
    outcome.attempted = timed.attempted;
    outcome.failed = timed.failed;
    outcome.correct = timed.failed == 0 && check_failed == 0;
    outcome.notes.extend(notes);
    Ok(outcome)
}

fn merge_timed(into: &mut Timed, other: Timed) {
    into.attempted += other.attempted;
    into.failed += other.failed;
    into.kernel_ms.extend(other.kernel_ms);
    for ((samples, first), (more, other_first)) in into
        .samples_ms
        .iter_mut()
        .zip(into.first.iter_mut())
        .zip(other.samples_ms.into_iter().zip(other.first))
    {
        samples.extend(more);
        match (&*first, other_first) {
            (Some(a), Some(b)) if a.schedule != b.schedule => into.failed += 1,
            (None, b) => *first = b,
            _ => {}
        }
    }
}

/// One spanned `Synthesizer::run` per input, then its breakdown.
fn replay_synth(
    inputs: &[Input],
    config: &SynthConfig,
    spans: &mut Spans,
) -> (synth::ReplayCounts, RunCounters) {
    let synthesizer = Synthesizer::new(config.clone());
    let mut replay = synth::ReplayCounts::default();
    let mut runs = RunCounters::default();
    for (i, input) in inputs.iter().enumerate() {
        let run = spans.time_with_id("core.synth", Some(i as u64), |_| {
            synthesizer.run(&input.assay)
        });
        let Ok(result) = run else { continue };
        if let Ok(pass) = synth::breakdown(&input.assay, config, &result, spans) {
            replay.add(&pass.counts);
        }
        runs.add(&result);
    }
    (replay, runs)
}

/// Per-layer inputs that do not come from spans.
struct Layers {
    replay: synth::ReplayCounts,
    runs: RunCounters,
    /// Delta hits of the replay and the timed phase's delta hit rate.
    delta: (u64, f64),
    /// Serving only: what the traced phase and the stage replay saw.
    stages: Option<StageLayers>,
    /// Calibration points of the timed phases.
    kernel_ms: Vec<f64>,
}

struct StageLayers {
    counts: serve::StageCounts,
    /// Replayed responses that differ from the reference.
    mismatches: u64,
    lines: usize,
    ingest_us: Vec<f64>,
    service_us: Vec<f64>,
    wall_per_response_ms: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Appends every per-layer metric, in the order `BENCHMARK.json` lists
/// them. Metrics a workload never exercises read 0. Span times are raw
/// (not scaled); `bench.calibration_ms` gives the run's speed.
fn per_layer(outcome: &mut Outcome, spans: &Spans, l: &Layers, overhead: f64) {
    let busy = |name: &str| spans.busy_ms(name);
    let calls = |name: &str| spans.calls(name) as f64;
    let synth_busy = busy("core.synth");
    let attributed: f64 = [
        "core.layering",
        "core.transport",
        "core.cache.key",
        "core.sdc_model.skeleton",
        "core.heuristic",
        "core.sdc_model",
        "core.ilp_model",
        "core.validate",
    ]
    .iter()
    .map(|n| busy(n))
    .sum();
    let (hits, misses) = (l.runs.cache_hits, l.runs.cache_misses);
    let o = outcome;
    o.push("core.layering.calls", "count", calls("core.layering"));
    o.push("core.layering.busy_ms", "ms", busy("core.layering"));
    o.push("core.heuristic.calls", "count", calls("core.heuristic"));
    o.push("core.heuristic.busy_ms", "ms", busy("core.heuristic"));
    o.push(
        "core.heuristic.p50_us",
        "us",
        spans.agg("core.heuristic").percentile_us(50.0),
    );
    o.push("core.sdc_model.calls", "count", calls("core.sdc_model"));
    o.push("core.sdc_model.busy_ms", "ms", busy("core.sdc_model"));
    o.push(
        "core.sdc_model.skeleton_busy_ms",
        "ms",
        busy("core.sdc_model.skeleton"),
    );
    o.push("core.ilp_model.calls", "count", calls("core.ilp_model"));
    o.push("core.ilp_model.busy_ms", "ms", busy("core.ilp_model"));
    o.push(
        "core.ilp_model.lp_pivots",
        "count",
        l.replay.lp_pivots as f64,
    );
    o.push(
        "core.ilp_model.adopted",
        "count",
        l.replay.ilp_adopted as f64,
    );
    o.push("core.solver.layers", "count", l.replay.layers as f64);
    o.push(
        "core.solver.certifiable_layers",
        "count",
        l.replay.certifiable_layers as f64,
    );
    o.push(
        "core.solver.portfolio_races",
        "count",
        l.runs.solver.portfolio_races as f64,
    );
    o.push(
        "core.solver.wins_heuristic",
        "count",
        l.runs.solver.wins_heuristic as f64,
    );
    o.push(
        "core.solver.wins_sdc",
        "count",
        l.runs.solver.wins_sdc as f64,
    );
    o.push(
        "core.solver.wins_ilp",
        "count",
        l.runs.solver.wins_ilp as f64,
    );
    o.push("core.transport.calls", "count", calls("core.transport"));
    o.push("core.transport.busy_ms", "ms", busy("core.transport"));
    o.push("core.validate.busy_ms", "ms", busy("core.validate"));
    o.push("core.cache.key_busy_ms", "ms", busy("core.cache.key"));
    o.push("core.cache.hits", "count", hits as f64);
    o.push(
        "core.cache.canonical_hits",
        "count",
        l.runs.cache_canonical_hits as f64,
    );
    o.push("core.cache.misses", "count", misses as f64);
    o.push(
        "core.cache.hit_rate",
        "ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    o.push("core.delta.shape_busy_ms", "ms", busy("core.delta.shape"));
    o.push("core.delta.lookup_busy_ms", "ms", busy("core.delta.lookup"));
    o.push("core.delta.insert_busy_ms", "ms", busy("core.delta.insert"));
    o.push("core.delta.hits", "count", l.delta.0 as f64);
    o.push("core.delta.hit_rate", "ratio", l.delta.1);
    o.push("core.synth.calls", "count", calls("core.synth"));
    o.push("core.synth.busy_ms", "ms", synth_busy);
    o.push("core.synth.passes", "count", l.runs.passes as f64);
    o.push(
        "core.synth.attributed_share",
        "ratio",
        ratio(attributed, synth_busy),
    );
    let stage_sum: f64 = serve::STAGES.iter().map(|n| busy(n)).sum();
    let s = l.stages.as_ref();
    let stage = |f: fn(&StageLayers) -> f64| s.map_or(0.0, f);
    o.push("svc.api.parse_busy_ms", "ms", busy("svc.api.parse"));
    o.push(
        "svc.api.parse_failed",
        "count",
        stage(|s| s.counts.parse_failed as f64),
    );
    o.push("svc.api.resolve_busy_ms", "ms", busy("svc.api.resolve"));
    o.push(
        "svc.api.resolve_max_us",
        "us",
        spans.agg("svc.api.resolve").percentile_us(100.0),
    );
    o.push(
        "svc.api.resolve_rejected",
        "count",
        stage(|s| s.counts.resolve_rejected as f64),
    );
    o.push("svc.api.encode_busy_ms", "ms", busy("svc.api.encode"));
    o.push(
        "svc.api.encode_bytes",
        "bytes",
        stage(|s| s.counts.encode_bytes as f64),
    );
    o.push(
        "svc.service.window_ingest_p50_us",
        "us",
        stage(|s| percentile(&s.ingest_us, 50.0).unwrap_or(0.0)),
    );
    o.push(
        "svc.service.window_service_p50_us",
        "us",
        stage(|s| percentile(&s.service_us, 50.0).unwrap_or(0.0)),
    );
    o.push(
        "svc.service.stage_sum_ms",
        "ms",
        if s.is_some() { stage_sum } else { 0.0 },
    );
    o.push(
        "svc.service.wall_over_stage_sum",
        "ratio",
        s.map_or(0.0, |s| {
            ratio(s.wall_per_response_ms, ratio(stage_sum, s.lines as f64))
        }),
    );
    o.push("bench.trace_overhead_ratio", "ratio", overhead);
    o.push(
        "bench.calibration_ms",
        "ms",
        median(&l.kernel_ms).unwrap_or(0.0),
    );
}

struct ServeSetup {
    lines: Vec<Line>,
    windows: Vec<Window>,
    service: SynthesisService,
}

/// Generates the stream and starts a service warmed with
/// [`warm_lines`].
fn serve_setup(unique: bool, params: &Params) -> Result<ServeSetup, String> {
    let lines = if unique {
        let n = (UNIQUE_LINES_PER_S * params.seconds).ceil() as usize;
        load::unique_stream(params.seed, n.max(UNIQUE_WINDOW))
    } else {
        load::replay_stream(params.seed, REPLAY_LINES, load::REPLAY_MIX)
    };
    let windows = serve::windows(&lines, if unique { UNIQUE_WINDOW } else { REPLAY_WINDOW });
    let service = SynthesisService::new(ServiceConfig::default());
    let warm = serve::windows(&warm_lines(unique, params.seed), REPLAY_WINDOW);
    serve::serve(&service, &warm, 0, warm.len(), None)
        .map_err(|e| format!("warm-up serve failed: {e}"))?;
    Ok(ServeSetup {
        lines,
        windows,
        service,
    })
}

/// The set-up's warm-up requests: every distinct replay assay once
/// (filling the caches the replay workload then reads), or a few unique
/// assays drawn away from the timed stream's seed.
fn warm_lines(unique: bool, seed: u64) -> Vec<Line> {
    if unique {
        load::unique_stream(seed ^ 0x7761_726d, 8 * REPLAY_WINDOW)
    } else {
        load::replay_pool()
    }
}

/// One serving segment and the calibration point taken before it.
struct Segment {
    served: Served,
    kernel_ms: f64,
}

/// Serves for `seconds` in segments of [`calib::POINT_SPAN`], each after
/// a calibration point, from window `*next` on; the replay stream
/// cycles, the unique stream ends.
fn serve_segments(
    setup: &ServeSetup,
    unique: bool,
    seconds: f64,
    next: &mut usize,
) -> Result<Vec<Segment>, String> {
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut segments = Vec::new();
    loop {
        let now = Instant::now();
        let remaining = if unique {
            setup.windows.len().saturating_sub(*next)
        } else {
            usize::MAX
        };
        if now >= end || remaining == 0 {
            break;
        }
        let kernel_ms = calib::measure();
        let deadline = (Instant::now() + calib::POINT_SPAN).min(end);
        let served = serve::serve(
            &setup.service,
            &setup.windows,
            *next,
            remaining,
            Some(deadline),
        )
        .map_err(|e| format!("serve failed: {e}"))?;
        *next += served.windows;
        segments.push(Segment { served, kernel_ms });
    }
    Ok(segments)
}

/// Responses per second of scaled wall time.
fn throughput(segments: &[Segment]) -> f64 {
    let responses: usize = segments.iter().map(|s| s.served.responses.len()).sum();
    let scaled_s: f64 = segments
        .iter()
        .map(|s| s.served.wall.as_secs_f64() * calib::factor(s.kernel_ms))
        .sum();
    responses as f64 / scaled_s
}

/// Window latencies at the reference speed, milliseconds.
fn latencies(segments: &[Segment]) -> Vec<f64> {
    segments
        .iter()
        .flat_map(|s| {
            let f = calib::factor(s.kernel_ms);
            s.served.latencies_ms().into_iter().map(move |ms| ms * f)
        })
        .collect()
}

fn run_serve(unique: bool, params: &Params, spans: &mut Spans) -> Result<Outcome, String> {
    let (setup, setup_s) = set_up(|| serve_setup(unique, params))?;
    let mut outcome = Outcome::default();
    let mut next = 0;
    let mut segments = Vec::new();
    if params.trace {
        let plain = serve_segments(&setup, unique, params.seconds / 2.0, &mut next)?;
        let traced = serve_segments(&setup, unique, params.seconds / 2.0, &mut next)?;
        let overhead = ratio(throughput(&plain), throughput(&traced));
        let stages = replay_serve(unique, params, &setup, &traced, spans);
        if stages.mismatches > 0 {
            outcome.failed += stages.mismatches;
            outcome.notes.push(format!(
                "{} replayed responses differ from the reference",
                stages.mismatches
            ));
        }
        let (delta_hits, solved) = plain.iter().fold((0, 0), |(d, s), seg| {
            (
                d + seg.served.summary.delta_hits,
                s + seg.served.summary.solved,
            )
        });
        let mut kernel_ms: Vec<f64> = plain.iter().map(|s| s.kernel_ms).collect();
        kernel_ms.extend(traced.iter().map(|s| s.kernel_ms));
        let layers = Layers {
            replay: stages.counts.replay,
            runs: stages.counts.runs,
            delta: (
                stages.counts.delta_hits,
                ratio(delta_hits as f64, solved as f64),
            ),
            stages: Some(stages),
            kernel_ms,
        };
        per_layer(&mut outcome, spans, &layers, overhead);
        segments.extend(plain);
        segments.extend(traced);
    } else {
        segments = serve_segments(&setup, unique, params.seconds, &mut next)?;
        let latencies = latencies(&segments);
        outcome.push("setup_s", "s", setup_s);
        outcome.push("throughput_ops", "1/s", throughput(&segments));
        outcome.push("latency_ms", "ms", median(&latencies).unwrap_or(0.0));
        outcome.push(
            "tail_latency_ms",
            "ms",
            percentile(&latencies, 99.0).unwrap_or(0.0),
        );
        let kernel: Vec<f64> = segments.iter().map(|s| s.kernel_ms).collect();
        outcome.notes.push(format!(
            "{} responses in {} windows; latency_ms is the median window latency, \
             tail_latency_ms its p99; calibration kernel {:.3} ms",
            segments
                .iter()
                .map(|s| s.served.responses.len())
                .sum::<usize>(),
            latencies.len(),
            median(&kernel).unwrap_or(0.0)
        ));
    }
    let mut reference = Reference::new(ServiceConfig::default().max_ops);
    for Segment { served, .. } in &segments {
        outcome.attempted += served.responses.len() as u64;
        let (failed, notes) =
            serve::check(served, &setup.lines, &setup.windows, &mut reference, |i| {
                !unique || i % UNIQUE_CHECK_EVERY == 0
            });
        outcome.failed += failed;
        outcome.notes.extend(notes);
        let answered = served.summary.solved + served.summary.rejected;
        if answered != served.responses.len() as u64 {
            outcome.failed += 1;
            outcome.notes.push(format!(
                "summary counts {answered} answered requests, {} responses written",
                served.responses.len()
            ));
        }
    }
    outcome.correct = outcome.failed == 0;
    Ok(outcome)
}

/// The traced serving run's per-layer inputs: the window spans of the
/// traced phase, and a stage replay of the stream's first lines on
/// caches warmed as the set-up warmed the service's.
fn replay_serve(
    unique: bool,
    params: &Params,
    setup: &ServeSetup,
    traced: &[Segment],
    spans: &mut Spans,
) -> StageLayers {
    let mut ingest_us = Vec::new();
    let mut service_us = Vec::new();
    let (mut wall_s, mut responses) = (0.0, 0);
    for Segment { served, .. } in traced {
        wall_s += served.wall.as_secs_f64();
        responses += served.responses.len();
        for (k, &(offered, consumed, written)) in served.stamps.iter().enumerate() {
            let track = 1 + (k % 2) as u32;
            spans.record(
                "svc.window",
                track,
                offered,
                written,
                Some((served.first + k) as u64),
            );
            spans.record("svc.window.ingest", track, offered, consumed, None);
            spans.record("svc.window.service", track, consumed, written, None);
            ingest_us.push(consumed.saturating_duration_since(offered).as_secs_f64() * 1e6);
            service_us.push(written.saturating_duration_since(consumed).as_secs_f64() * 1e6);
        }
    }
    let mut replay = StageReplay::new(&ServiceConfig::default());
    let mut scratch = Spans::new();
    for line in warm_lines(unique, params.seed) {
        replay.line(&line.text, &mut scratch);
    }
    replay.counts = serve::StageCounts::default();
    let n = if unique {
        UNIQUE_STAGE_LINES
    } else {
        REPLAY_STAGE_LINES
    };
    let mut reference = Reference::new(ServiceConfig::default().max_ops);
    let mut mismatches = 0;
    for (i, line) in setup.lines.iter().cycle().take(n).enumerate() {
        let out = spans.time_with_id("svc.request", Some(i as u64), |s| {
            replay.line(&line.text, s)
        });
        if i % UNIQUE_CHECK_EVERY == 0 && out != reference.expected(&line.text).0 {
            mismatches += 1;
        }
    }
    StageLayers {
        counts: replay.counts,
        mismatches,
        lines: n,
        ingest_us,
        service_us,
        wall_per_response_ms: ratio(wall_s * 1e3, responses as f64),
    }
}
