//! Seeded load generator for the sharded, pipelined serve plane.
//!
//! Drives thousands of mixed NDJSON requests — duplicates,
//! near-duplicates, parse errors, oversized assays — through
//! `mfhls-svc` in stdin (in-process) or TCP (loopback) mode, measuring
//! end-to-end wall clock and per-response latency (admission-to-flush)
//! in `mfhls-obs` log2 histograms. Every invocation also runs the
//! sequential drain baseline (`--shards 1 --window 1`) so the report
//! carries a `speedup_vs_drain` field; the ≥2× goal is pinned as data,
//! not as a flaky assert.
//!
//! ```text
//! cargo run --release -p mfhls-bench --bin serve_load -- \
//!     --requests 2000 --shards 4 --mode stdin --out BENCH_serve.json
//! ```
//!
//! The workload is a pure function of `--seed` and `--mix`:
//! `--responses FILE` dumps the response stream so two invocations at
//! different `--shards`/`--window`/`--no-cache` settings can be diffed
//! byte-for-byte (CI's `serve-bench-smoke` and `delta-cache-smoke` jobs
//! do exactly that). `--mix dup,neardup,err,oversized` sets the workload
//! composition as whole percentages summing to 100; the near-duplicate
//! arm mixes re-labelled and op-renamed variants, which the delta cache
//! replays whole, with op-permuted ones, which no cache tier matches.

use std::collections::VecDeque;
use std::io::{self, BufRead, Read, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mfhls_bench::report::{LatencyReport, MixReport, ServeReport, ServeRun};
use mfhls_graph::rng::SplitMix64;
use mfhls_obs::Log2Histogram;
use mfhls_svc::{Json, ServiceConfig, SynthesisService};

/// Target the serve rework aims for, stamped into the report.
const TARGET_SPEEDUP: f64 = 2.0;

struct Args {
    requests: usize,
    batch: usize,
    shards: usize,
    workers: usize,
    window: usize,
    seed: u64,
    mix: MixReport,
    no_cache: bool,
    mode: String,
    out: String,
    responses: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        requests: 2000,
        batch: 16,
        shards: 4,
        workers: 0,
        window: 2,
        seed: 0x5EED_10AD,
        mix: MixReport {
            dup: 60,
            neardup: 25,
            err: 10,
            oversized: 5,
        },
        no_cache: false,
        mode: "stdin".into(),
        out: "BENCH_serve.json".into(),
        responses: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("flag '{flag}' wants a value"))
        };
        match flag.as_str() {
            "--requests" => args.requests = parse_num(&flag, &value(&flag)?)?,
            "--batch" => args.batch = parse_num(&flag, &value(&flag)?)?,
            "--shards" => args.shards = parse_num(&flag, &value(&flag)?)?,
            "--workers" => args.workers = value(&flag)?.parse().map_err(|e| format!("{e}"))?,
            "--window" => args.window = parse_num(&flag, &value(&flag)?)?,
            "--seed" => args.seed = value(&flag)?.parse().map_err(|e| format!("{e}"))?,
            "--mix" => args.mix = parse_mix(&value(&flag)?)?,
            "--no-cache" => args.no_cache = true,
            "--mode" => args.mode = value(&flag)?,
            "--out" => args.out = value(&flag)?,
            "--responses" => args.responses = Some(value(&flag)?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.mode != "stdin" && args.mode != "tcp" {
        return Err(format!(
            "--mode wants 'stdin' or 'tcp', got '{}'",
            args.mode
        ));
    }
    Ok(args)
}

/// Parses `--mix dup,neardup,err,oversized`: four whole percentages
/// summing to exactly 100 (e.g. the default `60,25,10,5`).
fn parse_mix(value: &str) -> Result<MixReport, String> {
    let parts: Vec<&str> = value.split(',').collect();
    if parts.len() != 4 {
        return Err(format!(
            "flag '--mix' wants 4 comma-separated percentages \
             (dup,neardup,err,oversized), got {} in '{value}'",
            parts.len()
        ));
    }
    let mut pct = [0u64; 4];
    for (slot, part) in pct.iter_mut().zip(&parts) {
        *slot = part.trim().parse().map_err(|_| {
            format!("flag '--mix' wants whole percentages, got '{part}' in '{value}'")
        })?;
    }
    let total: u64 = pct.iter().sum();
    if total != 100 {
        return Err(format!(
            "flag '--mix' wants percentages summing to 100, got {total} in '{value}'"
        ));
    }
    Ok(MixReport {
        dup: pct[0],
        neardup: pct[1],
        err: pct[2],
        oversized: pct[3],
    })
}

fn parse_num(flag: &str, value: &str) -> Result<usize, String> {
    let n: usize = value
        .parse()
        .map_err(|_| format!("flag '{flag}' wants a positive integer, got '{value}'"))?;
    if n == 0 {
        return Err(format!("flag '{flag}' wants at least 1"));
    }
    Ok(n)
}

/// One admission window of the generated workload: the raw bytes fed to
/// the serve plane (request lines plus the closing blank line) and the
/// number of response lines it must produce (one per request line —
/// parse errors and oversized assays get typed rejections).
struct Window {
    bytes: Vec<u8>,
    responses: usize,
}

/// The seeded workload, composed per `--mix` (default 60/25/10/5):
/// exact duplicates from a small base pool (exercising the shared layer
/// cache), near-duplicates (re-labelled, op-renamed, and op-permuted
/// variants — see [`neardup_line`]), parse errors, and oversized assays
/// rejected at admission.
fn generate_workload(requests: usize, batch: usize, seed: u64, mix: MixReport) -> Vec<Window> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let pool = base_pool();
    let mut windows = Vec::new();
    let mut current = Window {
        bytes: Vec::new(),
        responses: 0,
    };
    for k in 0..requests {
        let roll = rng.next_f64() * 100.0;
        let line = if roll < mix.dup as f64 {
            // Exact duplicate: same id, same content, same shard.
            pool[rng.gen_index(0, pool.len())].clone()
        } else if roll < (mix.dup + mix.neardup) as f64 {
            neardup_line(k, &pool, &mut rng)
        } else if roll < (mix.dup + mix.neardup + mix.err) as f64 {
            // Parse errors: malformed framing the admitter must reject
            // without disturbing the rest of the window.
            match rng.gen_index(0, 3) {
                0 => format!("not json at all ({k})"),
                1 => r#"{"version":"mfhls-api/v1","type":"synthesize","#.to_string(),
                _ => format!(r#"{{"version":"mfhls-api/v0","type":"synthesize","id":"old{k}"}}"#),
            }
        } else {
            // Oversized: a benchmark instantiation past the admission
            // `max_ops` bound.
            format!(
                r#"{{"version":"mfhls-api/v1","type":"synthesize","id":"big{k}","assay":{{"benchmark":"rtqpcr","scale":200}}}}"#
            )
        };
        current.bytes.extend_from_slice(line.as_bytes());
        current.bytes.push(b'\n');
        current.responses += 1;
        if current.responses == batch {
            current.bytes.push(b'\n'); // blank line closes the window
            windows.push(std::mem::replace(
                &mut current,
                Window {
                    bytes: Vec::new(),
                    responses: 0,
                },
            ));
        }
    }
    if current.responses > 0 {
        current.bytes.push(b'\n');
        windows.push(current);
    }
    windows
}

/// The (ops, fan) shapes of the inline-DSL pool assays: a chain of `ops`
/// operations, the last `fan` of which hang off the first operation.
/// Near-duplicate variants are cut from the same list so their shapes
/// (and per-layer structures) match something the pool already solved.
const DSL_SHAPES: &[(usize, usize)] = &[(2, 1), (3, 1), (4, 2), (5, 2), (6, 3), (3, 3)];

/// The distinct requests duplicates are drawn from: small inline-DSL
/// chains/fans plus the named benchmark assays at bench-scale sizes.
fn base_pool() -> Vec<String> {
    let mut pool = Vec::new();
    for (k, (ops, fan)) in DSL_SHAPES.iter().enumerate() {
        pool.push(request_line(
            &format!("dsl{k}"),
            Json::Object(vec![(
                "dsl".to_owned(),
                Json::Str(dsl_chain(*ops, *fan, "p", 0)),
            )]),
        ));
    }
    for (k, (name, scale)) in [
        ("kinase", 1),
        ("kinase", 2),
        ("gene", 4),
        ("cell-culture", 2),
    ]
    .iter()
    .enumerate()
    {
        pool.push(request_line(
            &format!("bench{k}"),
            Json::Object(vec![
                ("benchmark".to_owned(), Json::Str((*name).to_owned())),
                ("scale".to_owned(), Json::Int(*scale)),
            ]),
        ));
    }
    pool
}

/// A small deterministic DSL assay: a chain of `ops` operations, the
/// last `fan` of which hang off the first operation instead.
///
/// `prefix` renames every operation (op names never influence solving,
/// so a renamed chain is byte-different on the wire yet structurally
/// identical — the delta cache's case). `rotate` shifts the
/// *declaration order* of the independent fan operations while keeping
/// names, durations, and edges: the graph is unchanged but operations
/// get different ids, so neither the exact layer keys nor the
/// whole-request shape match the original.
fn dsl_chain(ops: usize, fan: usize, prefix: &str, rotate: usize) -> String {
    let mut s = String::from("assay \"load\"\n");
    let op_line = |k: usize| {
        let dur = 2 + (k * 3) % 7;
        if k == 0 {
            format!("op {prefix}0 {{ duration: {dur}m }}\n")
        } else if k + fan >= ops {
            format!("op {prefix}{k} {{ duration: {dur}m after: [{prefix}0] }}\n")
        } else {
            format!(
                "op {prefix}{k} {{ duration: >= {dur}m after: [{prefix}{}] }}\n",
                k - 1
            )
        }
    };
    // Op 0 is always the root even when `fan == ops` claims it, so the
    // rotatable set starts no earlier than index 1.
    let first_fan = (ops - fan).max(1);
    let nfan = ops - first_fan;
    for k in 0..first_fan {
        s.push_str(&op_line(k));
    }
    for j in 0..nfan {
        s.push_str(&op_line(first_fan + (j + rotate) % nfan));
    }
    s
}

/// One near-duplicate request: a variant of a pool assay that should be
/// answered from prior work without a from-scratch synthesis.
///
/// Three flavors, uniformly mixed:
/// * *re-labelled* — a pool request under a fresh id (byte-different
///   line, identical assay: the delta cache replays it whole);
/// * *op-renamed* — a pool DSL chain with every op renamed (names are
///   excluded from the structural shape: still a whole-request replay);
/// * *op-permuted* — a pool DSL chain with its independent fan ops
///   declared in rotated order (different op ids defeat the exact layer
///   keys and the whole-request shape, so it is solved afresh).
fn neardup_line(k: usize, pool: &[String], rng: &mut SplitMix64) -> String {
    match rng.gen_index(0, 3) {
        0 => {
            let (name, assay) = pool_assay(pool, rng);
            request_line(&format!("{name}-dup{k}"), assay)
        }
        1 => {
            let (ops, fan) = DSL_SHAPES[rng.gen_index(0, DSL_SHAPES.len())];
            request_line(
                &format!("ren{k}"),
                Json::Object(vec![(
                    "dsl".to_owned(),
                    Json::Str(dsl_chain(ops, fan, "q", 0)),
                )]),
            )
        }
        _ => {
            // Only shapes with ≥ 2 independent fan ops (excluding the
            // root) have a non-trivial declaration-order rotation.
            let wide: Vec<(usize, usize)> = DSL_SHAPES
                .iter()
                .copied()
                .filter(|&(o, f)| o - (o - f).max(1) >= 2)
                .collect();
            let (ops, fan) = wide[rng.gen_index(0, wide.len())];
            let nfan = ops - (ops - fan).max(1);
            let rotate = 1 + rng.gen_index(0, nfan - 1);
            request_line(
                &format!("perm{k}"),
                Json::Object(vec![(
                    "dsl".to_owned(),
                    Json::Str(dsl_chain(ops, fan, "p", rotate)),
                )]),
            )
        }
    }
}

/// Re-parses a pool line and returns its assay object for re-labelling.
fn pool_assay(pool: &[String], rng: &mut SplitMix64) -> (String, Json) {
    let line = &pool[rng.gen_index(0, pool.len())];
    let v = Json::parse(line).expect("pool lines are valid JSON");
    let id = v
        .get("id")
        .and_then(Json::as_str)
        .expect("pool lines carry ids")
        .to_owned();
    let assay = v.get("assay").expect("pool lines carry assays").clone();
    (id, assay)
}

fn request_line(id: &str, assay: Json) -> String {
    let v = Json::Object(vec![
        ("version".to_owned(), Json::Str("mfhls-api/v1".to_owned())),
        ("type".to_owned(), Json::Str("synthesize".to_owned())),
        ("id".to_owned(), Json::Str(id.to_owned())),
        ("assay".to_owned(), assay),
    ]);
    let mut out = String::new();
    v.write(&mut out);
    out
}

/// Feeds one admission window at a time to the serve loop, stamping the
/// instant each window's first byte is offered — the moment a client
/// would have finished sending it.
struct WindowFeeder {
    windows: Vec<Vec<u8>>,
    idx: usize,
    pos: usize,
    stamped: bool,
    feed_times: Arc<Mutex<VecDeque<Instant>>>,
}

impl Read for WindowFeeder {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let chunk = self.fill_buf()?;
        let n = chunk.len().min(buf.len());
        buf[..n].copy_from_slice(&chunk[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for WindowFeeder {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        while self.idx < self.windows.len() && self.pos >= self.windows[self.idx].len() {
            self.idx += 1;
            self.pos = 0;
            self.stamped = false;
        }
        if self.idx >= self.windows.len() {
            return Ok(&[]);
        }
        if !self.stamped {
            self.stamped = true;
            self.feed_times
                .lock()
                .expect("feed-time queue poisoned")
                .push_back(Instant::now());
        }
        Ok(&self.windows[self.idx][self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

/// Collects the response stream and converts each window flush (the
/// serve plane writes exactly one chunk per window) into per-response
/// latency observations against the matching feed time.
#[derive(Clone)]
struct TimingWriter {
    state: Arc<Mutex<SinkState>>,
    feed_times: Arc<Mutex<VecDeque<Instant>>>,
}

struct SinkState {
    bytes: Vec<u8>,
    hist: Log2Histogram,
}

impl Write for TimingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let fed = self
            .feed_times
            .lock()
            .expect("feed-time queue poisoned")
            .pop_front();
        let mut state = self.state.lock().expect("sink poisoned");
        if let Some(t0) = fed {
            let us = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            for _ in 0..buf.iter().filter(|b| **b == b'\n').count() {
                state.hist.observe(us);
            }
        }
        state.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

struct RunOutcome {
    wall: std::time::Duration,
    solved: u64,
    rejected: u64,
    exact_hits: u64,
    store_hits: u64,
    misses: u64,
    delta_hits: u64,
    bytes: Vec<u8>,
    hist: Log2Histogram,
}

/// Extracts the cache-counter quadruple from a loop summary (the window
/// counters classify store hits; exact is the remainder).
fn counters(summary: &mfhls_svc::ServiceSummary) -> (u64, u64, u64, u64) {
    let exact = summary
        .window_hits
        .saturating_sub(summary.window_store_hits);
    (
        exact,
        summary.window_store_hits,
        summary.window_misses,
        summary.delta_hits,
    )
}

fn run_stdin(config: ServiceConfig, windows: &[Window]) -> io::Result<RunOutcome> {
    let service = SynthesisService::new(config);
    let feed_times = Arc::new(Mutex::new(VecDeque::new()));
    let feeder = WindowFeeder {
        windows: windows.iter().map(|w| w.bytes.clone()).collect(),
        idx: 0,
        pos: 0,
        stamped: false,
        feed_times: Arc::clone(&feed_times),
    };
    let writer = TimingWriter {
        state: Arc::new(Mutex::new(SinkState {
            bytes: Vec::new(),
            hist: Log2Histogram::new(),
        })),
        feed_times,
    };
    let start = Instant::now();
    let summary = service.serve(feeder, writer.clone())?;
    let wall = start.elapsed();
    let state = Arc::try_unwrap(writer.state)
        .map(|m| m.into_inner().expect("sink poisoned"))
        .unwrap_or_else(|arc| {
            let s = arc.lock().expect("sink poisoned");
            SinkState {
                bytes: s.bytes.clone(),
                hist: s.hist.clone(),
            }
        });
    let (exact_hits, store_hits, misses, delta_hits) = counters(&summary);
    Ok(RunOutcome {
        wall,
        solved: summary.solved,
        rejected: summary.rejected,
        exact_hits,
        store_hits,
        misses,
        delta_hits,
        bytes: state.bytes,
        hist: state.hist,
    })
}

fn run_tcp(config: ServiceConfig, windows: &[Window]) -> io::Result<RunOutcome> {
    let service = SynthesisService::new(config);
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let start = Instant::now();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| service.serve_listener(&listener, true));

        let stream = std::net::TcpStream::connect(addr)?;
        let mut reader = io::BufReader::new(stream.try_clone()?);
        let send_times: Arc<Mutex<Vec<Instant>>> = Arc::new(Mutex::new(Vec::new()));
        let writer_times = Arc::clone(&send_times);
        let writer = scope.spawn(move || -> io::Result<()> {
            let mut stream = stream;
            for w in windows {
                writer_times
                    .lock()
                    .expect("send-time list poisoned")
                    .push(Instant::now());
                stream.write_all(&w.bytes)?;
                stream.flush()?;
            }
            stream.write_all(b"{\"version\":\"mfhls-api/v1\",\"type\":\"shutdown\"}\n")?;
            stream.flush()?;
            Ok(())
        });

        // Read back exactly the response count each window owes; the
        // stream is ordered, so the k-th group answers the k-th window.
        let mut hist = Log2Histogram::new();
        let mut bytes = Vec::new();
        for (k, w) in windows.iter().enumerate() {
            let mut line = String::new();
            let mut latencies = Vec::with_capacity(w.responses);
            for _ in 0..w.responses {
                line.clear();
                if reader.read_line(&mut line)? == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed mid-window",
                    ));
                }
                bytes.extend_from_slice(line.as_bytes());
                latencies.push(Instant::now());
            }
            // A response to window k can only arrive after the writer
            // thread stamped and sent window k, so the index is in range.
            let sent = send_times.lock().expect("send-time list poisoned")[k];
            for t in latencies {
                let us = t.duration_since(sent).as_micros().min(u128::from(u64::MAX)) as u64;
                hist.observe(us);
            }
        }
        writer.join().expect("client writer panicked")?;
        let summary = server.join().expect("server panicked")?;
        let wall = start.elapsed();
        let (exact_hits, store_hits, misses, delta_hits) = counters(&summary);
        Ok(RunOutcome {
            wall,
            solved: summary.solved,
            rejected: summary.rejected,
            exact_hits,
            store_hits,
            misses,
            delta_hits,
            bytes,
            hist,
        })
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("serve_load: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("serve_load: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> io::Result<()> {
    let windows = generate_workload(args.requests, args.batch, args.seed, args.mix);
    let total_responses: usize = windows.iter().map(|w| w.responses).sum();
    eprintln!(
        "serve_load: {} requests over {} windows (batch {}), seed {:#x}, \
         mix {}/{}/{}/{}, mode {}{}",
        args.requests,
        windows.len(),
        args.batch,
        args.seed,
        args.mix.dup,
        args.mix.neardup,
        args.mix.err,
        args.mix.oversized,
        args.mode,
        if args.no_cache { ", caches OFF" } else { "" },
    );

    let drive = |shards: usize, pipeline_windows: usize| -> io::Result<RunOutcome> {
        let config = ServiceConfig {
            workers: args.workers,
            shards,
            pipeline_windows,
            queue_capacity: args.batch.max(ServiceConfig::default().queue_capacity),
            shared_cache: !args.no_cache,
            delta_cache: !args.no_cache,
            ..ServiceConfig::default()
        };
        if args.mode == "tcp" {
            run_tcp(config, &windows)
        } else {
            run_stdin(config, &windows)
        }
    };

    let baseline = drive(1, 1)?;
    let pipelined = drive(args.shards, args.window)?;
    if baseline.bytes != pipelined.bytes {
        eprintln!(
            "serve_load: FATAL: response stream differs between drain and pipelined runs \
             ({} vs {} bytes)",
            baseline.bytes.len(),
            pipelined.bytes.len()
        );
        std::process::exit(1);
    }

    let rps = |o: &RunOutcome| total_responses as f64 / o.wall.as_secs_f64().max(1e-9);
    let speedup = rps(&pipelined) / rps(&baseline).max(1e-9);
    let run_report = |name: &str, shards: usize, pw: usize, o: &RunOutcome| ServeRun {
        name: name.to_owned(),
        mode: args.mode.clone(),
        shards,
        pipeline_windows: pw,
        workers: args.workers,
        wall: o.wall,
        throughput_rps: rps(o),
        solved: o.solved,
        rejected: o.rejected,
        responses_total: o.hist.count(),
        cache_exact_hits: o.exact_hits,
        cache_store_hits: o.store_hits,
        cache_misses: o.misses,
        delta_hits: o.delta_hits,
        latency: LatencyReport::from_histogram(&o.hist),
    };
    let report = ServeReport {
        threads: mfhls_par::max_threads(),
        requests: args.requests,
        window: args.batch,
        seed: args.seed,
        mix: args.mix,
        speedup_vs_drain: speedup,
        target_speedup: TARGET_SPEEDUP,
        runs: vec![
            run_report("drain_baseline", 1, 1, &baseline),
            run_report(
                &format!("pipelined_s{}w{}", args.shards, args.window),
                args.shards,
                args.window,
                &pipelined,
            ),
        ],
    };
    report.write(std::path::Path::new(&args.out))?;
    eprintln!(
        "serve_load: drain {:.1} rps, pipelined {:.1} rps ({speedup:.2}x, target {TARGET_SPEEDUP}x); \
         p50 {}us p99 {}us; report {}",
        rps(&baseline),
        rps(&pipelined),
        report.runs[1].latency.p50_us,
        report.runs[1].latency.p99_us,
        args.out
    );
    eprintln!(
        "serve_load: pipelined cache: {} exact, {} store, {} miss; \
         {} delta replays; reuse rate {:.3}",
        pipelined.exact_hits,
        pipelined.store_hits,
        pipelined.misses,
        pipelined.delta_hits,
        report.runs[1].reuse_rate(),
    );
    if let Some(path) = &args.responses {
        std::fs::write(path, &pipelined.bytes)?;
        eprintln!(
            "serve_load: {} response bytes written to {path}",
            pipelined.bytes.len()
        );
    }
    Ok(())
}
