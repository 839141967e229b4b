//! Integration tests of the batched synthesis service (`mfhls-svc`).
//!
//! The service's determinism contract extends the workspace-wide one
//! pinned in `tests/determinism.rs`: NDJSON responses must be
//! **byte-identical** from run to run and with the whole-request delta
//! cache on or off — because the caches are pure accelerators and one
//! thread solves each window in admission order. With no thread timing in
//! the loop, a second run repeats the whole summary too, cache hit/miss
//! split and delta replays included. These tests drive a large in-flight
//! window (the ≥64-request acceptance criterion), mixed traffic, a seeded
//! near-duplicate stream, typed rejection paths, the delta cache's
//! eviction bound, and the observability counters, each against a second
//! run and a caches-off run.

use mfhls::svc::{Json, ServiceConfig, ServiceSummary, SynthesisService, VERSION};
use std::io::BufReader;

/// A small synthetic protocol: `ops` operations in a dependency chain
/// with varied containers/accessories, every third duration
/// indeterminate (`>=`) so hybrid scheduling and re-synthesis actually
/// run. `seed` varies names and durations so distinct requests produce
/// distinct cache keys.
fn dsl(seed: usize, ops: usize) -> String {
    let mut s = format!("assay \"svc {seed}\"\n");
    for k in 0..ops {
        let dur = 2 + (seed + k) % 5;
        let extras = match k % 4 {
            0 => "container: chamber capacity: medium accessories: [pump]",
            1 => "accessories: [sieve-valve]",
            2 => "container: ring accessories: [heating-pad]",
            _ => "accessories: [optical-system]",
        };
        let duration = if k % 3 == 2 {
            format!("duration: >= {dur}m")
        } else {
            format!("duration: {dur}m")
        };
        let after = if k == 0 {
            String::new()
        } else {
            format!(" after: [s{}]", k - 1)
        };
        s.push_str(&format!("op s{k} {{ {extras} {duration}{after} }}\n"));
    }
    s
}

/// Builds one `synthesize` request line; `extra` appends fields such as
/// `"artifacts"` or `"config"` (JSON escaping handled by [`Json::write`]).
fn request(id: &str, seed: usize, ops: usize, extra: Vec<(&str, Json)>) -> String {
    dsl_request(id, dsl(seed, ops), extra)
}

/// [`request`] over an arbitrary DSL text.
fn dsl_request(id: &str, text: String, extra: Vec<(&str, Json)>) -> String {
    let mut fields = vec![
        ("version".to_owned(), Json::Str(VERSION.to_owned())),
        ("type".to_owned(), Json::Str("synthesize".to_owned())),
        ("id".to_owned(), Json::Str(id.to_owned())),
        (
            "assay".to_owned(),
            Json::Object(vec![("dsl".to_owned(), Json::Str(text))]),
        ),
    ];
    for (k, v) in extra {
        fields.push((k.to_owned(), v));
    }
    let mut line = String::new();
    Json::Object(fields).write(&mut line);
    line
}

/// Serves `input` under `config`, again on a fresh service, and once more
/// with the delta cache off. Asserts that the three response streams are
/// byte-identical and the first two summaries equal; returns the first
/// run.
fn serve_thrice(config: ServiceConfig, input: &str) -> (String, ServiceSummary) {
    let control = ServiceConfig {
        delta_cache: false,
        ..config.clone()
    };
    let (out, summary) = serve(config.clone(), input);
    let (again, summary_again) = serve(config, input);
    assert_eq!(out, again, "a second run changed a response byte");
    assert_eq!(summary, summary_again, "a second run changed the summary");
    let (cold, _) = serve(control, input);
    assert_eq!(out, cold, "the caches changed a response byte");
    (out, summary)
}

fn serve(config: ServiceConfig, input: &str) -> (String, ServiceSummary) {
    let service = SynthesisService::new(config);
    let mut out = Vec::new();
    let summary = service
        .serve(BufReader::new(input.as_bytes()), &mut out)
        .expect("in-memory serve cannot fail");
    (
        String::from_utf8(out).expect("responses are UTF-8"),
        summary,
    )
}

/// One window holding 64 varied requests (sizes 1..=6 ops, schedule and
/// trace artifacts sprinkled in, a few explicit solver overrides),
/// flushed by a blank line.
fn batch_of_64() -> String {
    let mut input = String::new();
    for i in 0..64 {
        let ops = 1 + i % 6;
        let mut extra = Vec::new();
        if i % 8 == 0 {
            extra.push((
                "artifacts",
                Json::Array(vec![
                    Json::Str("stats".to_owned()),
                    Json::Str("schedule".to_owned()),
                    Json::Str("trace".to_owned()),
                ]),
            ));
        }
        if i % 16 == 5 {
            extra.push((
                "config",
                Json::Object(vec![
                    ("solver".to_owned(), Json::Str("ilp".to_owned())),
                    ("max_devices".to_owned(), Json::Int(8)),
                ]),
            ));
        }
        input.push_str(&request(&format!("r{i:02}"), i, ops, extra));
        input.push('\n');
    }
    input.push('\n'); // close the window
    input
}

#[test]
fn sixty_four_in_flight_requests_repeat_and_match_caches_off() {
    let (out, summary) = serve_thrice(ServiceConfig::default(), &batch_of_64());
    assert_eq!(summary.solved, 64);
    assert_eq!(summary.rejected, 0);
    assert_eq!(summary.batches, 1);

    // Responses come back in admission order, every one solved.
    let lines: Vec<Json> = out.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(lines.len(), 64);
    for (i, line) in lines.iter().enumerate() {
        assert_eq!(
            line.get("id").and_then(Json::as_str),
            Some(format!("r{i:02}").as_str())
        );
        assert_eq!(line.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(line.get("version").and_then(Json::as_str), Some(VERSION));
    }
    // Requested artifacts are present; unrequested ones are absent.
    assert!(lines[0].get("schedule").is_some());
    assert!(lines[0].get("trace_fingerprint").is_some());
    assert!(lines[1].get("schedule").is_none());
}

#[test]
fn repeated_windows_are_identical_with_the_delta_cache_on_and_off() {
    // Two windows with repeated protocols: the second window replays the
    // first's assays from the delta cache — which must not change a
    // single response byte. With it off every request runs, and each
    // repeat memoizes exactly what its first run did.
    let mut input = String::new();
    for window in 0..2 {
        for i in 0..8 {
            input.push_str(&request(&format!("w{window}-{i}"), i, 1 + i % 4, vec![]));
            input.push('\n');
        }
        input.push('\n');
    }
    let (out_on, on) = serve(ServiceConfig::default(), &input);
    let off_config = ServiceConfig {
        delta_cache: false,
        ..ServiceConfig::default()
    };
    let (out_off, off) = serve(off_config.clone(), &input);
    assert_eq!(out_on, out_off, "the delta cache changed a response");
    assert_eq!(on.delta_hits, 8, "{on:?}");
    assert_eq!(off.delta_hits, 0, "{off:?}");
    assert!(on.window_misses > 0, "{on:?}");
    let window = |s: &ServiceSummary| (s.window_hits, s.window_store_hits, s.window_misses);
    assert_eq!(
        window(&off),
        (2 * on.window_hits, 0, 2 * on.window_misses),
        "{off:?}"
    );
    let first_window = input.split("\n\n").next().unwrap_or_default();
    assert_eq!(window(&serve(off_config, first_window).1), window(&on));
}

#[test]
fn eviction_bound_is_respected_across_requests() {
    // A 4-result delta cache over 12 distinct protocols, then the last
    // and first four again: the late ones are still held and replay, the
    // early ones were evicted and run afresh.
    let config = ServiceConfig {
        cache_entries: 4,
        ..ServiceConfig::default()
    };
    let mut input = String::new();
    for i in (0..12).chain(8..12).chain(0..4) {
        input.push_str(&request(&format!("d{i}"), 100, 1 + i, vec![]));
        input.push_str("\n\n");
    }
    let (_, summary) = serve_thrice(config, &input);
    assert_eq!(summary.solved, 20);
    assert_eq!(summary.delta_hits, 4, "{summary:?}");
}

#[test]
fn cache_and_admission_counters_flow_through_obs() {
    // The service narrates itself through `mfhls-obs`: admission and
    // solve events in the logical class, cache movement as diagnostics.
    // The second request asks for a trace, so it runs instead of
    // replaying the first.
    let traced = vec![(
        "artifacts",
        Json::Array(vec![Json::Str("trace".to_owned())]),
    )];
    let input = format!(
        "{r}\n\n{r2}\n\n",
        r = request("first", 7, 4, vec![]),
        r2 = request("second", 7, 4, traced)
    );
    mfhls::obs::start_capture(mfhls::obs::CaptureConfig::default());
    let (out, summary) = serve(ServiceConfig::default(), &input);
    let trace = mfhls::obs::finish_capture().expect("capture was active");
    let jsonl = trace.to_jsonl();
    // Traced serving is the production loop: the same bytes as an
    // uncaptured run, and one batch flush recorded per window.
    let (uncaptured, _) = serve(ServiceConfig::default(), &input);
    assert_eq!(out, uncaptured, "a capture changed a response byte");
    assert_eq!(
        jsonl.matches("\"name\":\"svc.batch_flush\"").count(),
        2,
        "one svc.batch_flush per window: {jsonl}"
    );
    for name in [
        "svc.request_accepted",
        "svc.batch_flush",
        "svc.request_solved",
        "svc.cache_hits",
        "svc.cache_misses",
    ] {
        assert!(jsonl.contains(name), "trace is missing '{name}'");
    }
    // Counters aggregate into one record per name at capture end, and
    // the totals agree with the summary.
    assert!(summary.window_misses > 0, "{summary:?}");
    assert_eq!(summary.delta_hits, 0, "{summary:?}");
    for (name, expected) in [
        ("svc.cache_hits", summary.window_hits),
        ("svc.cache_misses", summary.window_misses),
    ] {
        let lines: Vec<&str> = jsonl
            .lines()
            .filter(|l| l.contains(&format!("\"{name}\"")))
            .collect();
        assert_eq!(lines.len(), 1, "one aggregated record per counter");
        let record = mfhls::svc::Json::parse(lines[0]).expect("counter record is JSON");
        let total = record
            .get("fields")
            .and_then(|f| f.get("total"))
            .and_then(mfhls::svc::Json::as_i64)
            .expect("counter record carries a total");
        assert_eq!(total, expected as i64, "{name}");
    }
}

#[test]
fn rejection_paths_are_typed_and_repeatable() {
    // One window over capacity, one malformed line, one unsupported
    // version, one zero deadline, one cancel: every rejection is typed,
    // and the whole stream is byte-identical on a second run and with the
    // caches off.
    let mut input = String::new();
    for i in 0..4 {
        let extra = if i == 3 {
            vec![("deadline_ms", Json::Int(0))]
        } else {
            vec![]
        };
        input.push_str(&request(&format!("q{i}"), i, 1, extra));
        input.push('\n');
    }
    input.push_str("not json at all\n");
    input.push_str(
        r#"{"version":"mfhls-api/v9","type":"synthesize","id":"vx","assay":{"dsl":"x"}}"#,
    );
    input.push('\n');
    input.push_str(r#"{"type":"cancel","id":"q2"}"#);
    input.push('\n');
    // A fifth synthesize request overflows the 4-slot window.
    input.push_str(&request("q4", 4, 1, vec![]));
    input.push('\n');
    input.push('\n');
    let (out, summary) = serve_thrice(
        ServiceConfig {
            queue_capacity: 4,
            ..ServiceConfig::default()
        },
        &input,
    );

    let kinds: Vec<(Option<String>, Option<String>)> = out
        .lines()
        .map(|l| {
            let v = Json::parse(l).unwrap();
            (
                v.get("id").and_then(Json::as_str).map(str::to_owned),
                v.get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str)
                    .map(str::to_owned),
            )
        })
        .collect();
    // Admission-time failures come first (in input order), then the
    // flushed batch in admission order.
    assert_eq!(kinds.len(), 7);
    assert_eq!(kinds[0], (None, Some("malformed_request".to_owned())));
    assert_eq!(
        kinds[1],
        (
            Some("vx".to_owned()),
            Some("unsupported_version".to_owned())
        )
    );
    assert_eq!(
        kinds[2],
        (Some("q4".to_owned()), Some("overloaded".to_owned()))
    );
    assert_eq!(kinds[3], (Some("q0".to_owned()), None));
    assert_eq!(kinds[4], (Some("q1".to_owned()), None));
    assert_eq!(
        kinds[5],
        (Some("q2".to_owned()), Some("cancelled".to_owned()))
    );
    assert_eq!(
        kinds[6],
        (Some("q3".to_owned()), Some("deadline_exceeded".to_owned()))
    );
    assert_eq!(summary.rejected, 5);
    assert_eq!(summary.cancelled, 1);
    assert_eq!(summary.solved, 2);
}

#[test]
fn mixed_traffic_stream_repeats_and_matches_caches_off() {
    // Three windows of mixed traffic (varied protocols, artifacts, a
    // malformed line, a cancel, a zero deadline), so admission- and
    // solve-time rejections both engage, served twice and with the caches
    // off.
    let mut input = String::new();
    for window in 0..3 {
        for i in 0..8 {
            let mut extra = Vec::new();
            if i % 4 == 1 {
                extra.push((
                    "artifacts",
                    Json::Array(vec![
                        Json::Str("stats".to_owned()),
                        Json::Str("schedule".to_owned()),
                    ]),
                ));
            }
            if window == 2 && i == 6 {
                extra.push(("deadline_ms", Json::Int(0)));
            }
            input.push_str(&request(
                &format!("w{window}r{i}"),
                window * 8 + i,
                1 + i % 4,
                extra,
            ));
            input.push('\n');
        }
        if window == 0 {
            input.push_str("definitely not json\n");
        }
        if window == 1 {
            input.push_str("{\"type\":\"cancel\",\"id\":\"w1r3\"}\n");
        }
        input.push('\n');
    }
    let (out, summary) = serve_thrice(ServiceConfig::default(), &input);
    assert_eq!(summary.batches, 3);
    assert_eq!(out.lines().count(), 25);
    // Every admitted request is solved or rejected once; the malformed
    // line is rejected without being admitted.
    assert_eq!(summary.accepted, 24);
    assert_eq!(summary.accepted, summary.solved + summary.rejected - 1);
    assert_eq!((summary.cancelled, summary.rejected), (1, 3));
}

#[test]
fn tcp_and_stdin_serve_the_same_bytes() {
    // `serve_listener` runs each connection through the same loop `serve`
    // runs over stdin, so one connection's response bytes must equal a
    // stdin run over the same window stream, shutdown included.
    use std::io::{Read, Write};
    let mut input = String::new();
    for window in 0..2 {
        for i in 0..4 {
            let id = format!("w{window}r{i}");
            input.push_str(&request(&id, window * 4 + i, 1 + i % 3, Vec::new()));
            input.push('\n');
        }
        if window == 0 {
            input.push_str("definitely not json\n");
        }
        input.push('\n');
    }
    input.push_str(&format!(
        "{{\"version\":\"{VERSION}\",\"type\":\"shutdown\"}}\n"
    ));
    let (expected, stdin_summary) = serve(ServiceConfig::default(), &input);
    assert!(stdin_summary.shutdown);

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let service = SynthesisService::new(ServiceConfig::default());
    let (got, summary) = std::thread::scope(|scope| {
        let server = scope.spawn(|| service.serve_listener(&listener, true));
        let mut conn = std::net::TcpStream::connect(addr).expect("connect");
        let mut writer = conn.try_clone().expect("clone the client stream");
        let bytes = input.as_bytes();
        // Send from a second thread so responses are read while the
        // stream is still being written.
        scope.spawn(move || writer.write_all(bytes).expect("send the stream"));
        let mut got = String::new();
        conn.read_to_string(&mut got)
            .expect("read until the server closes");
        let summary = server
            .join()
            .expect("server thread")
            .expect("serve_listener");
        (got, summary)
    });
    assert_eq!(got, expected);
    assert!(summary.shutdown);
    assert_eq!(summary.solved, stdin_summary.solved);
    assert_eq!(summary.solved, 8);
}

/// A chain of `ops` operations whose last `fan` hang off the first one
/// instead, each op named `{prefix}{k}`, with the fan ops declared in an
/// order rotated by `rotate`. Names are excluded from the delta cache's
/// positional shape, so a renamed chain replays the original. A rotation
/// keeps the graph but moves durations between op ids, so no cache tier
/// matches the rotated chain.
fn fan_chain(ops: usize, fan: usize, prefix: &str, rotate: usize) -> String {
    let op_line = |k: usize| {
        let dur = 2 + (k * 3) % 7;
        if k == 0 {
            format!("op {prefix}0 {{ duration: {dur}m }}\n")
        } else if k + fan >= ops {
            format!("op {prefix}{k} {{ duration: {dur}m after: [{prefix}0] }}\n")
        } else {
            let parent = k - 1;
            format!("op {prefix}{k} {{ duration: >= {dur}m after: [{prefix}{parent}] }}\n")
        }
    };
    // Op 0 stays the root even when `fan == ops` claims it.
    let first_fan = (ops - fan).max(1);
    let nfan = ops - first_fan;
    let mut s = String::from("assay \"mixed\"\n");
    for k in 0..first_fan {
        s.push_str(&op_line(k));
    }
    for j in 0..nfan {
        s.push_str(&op_line(first_fan + (j + rotate) % nfan));
    }
    s
}

/// `(ops, fan)` of the [`fan_chain`]s a near-duplicate stream draws from.
const FAN_SHAPES: &[(usize, usize)] = &[(2, 1), (3, 1), (4, 2), (5, 2), (6, 3), (3, 3)];

/// Admission bound of the near-duplicate stream: every [`FAN_SHAPES`]
/// chain fits, the 9-op oversized requests do not.
const MIXED_MAX_OPS: usize = 6;

/// A seeded stream of 96 request lines in windows of 16: exact
/// duplicates of a six-request pool, relabelled twins (a pool assay
/// under a fresh id), op-renamed twins, op-permuted variants, malformed
/// and wrong-version lines, and requests over [`MIXED_MAX_OPS`].
fn near_duplicate_stream() -> (String, usize) {
    const LINES: usize = 96;
    // Only shapes with two or more fan ops besides the root have a
    // rotation that changes the declaration order.
    let wide: Vec<(usize, usize)> = FAN_SHAPES
        .iter()
        .copied()
        .filter(|&(o, f)| o - (o - f).max(1) >= 2)
        .collect();
    let mut rng = mfhls::graph::rng::SplitMix64::seed_from_u64(0x5EED_10AD);
    let mut input = String::new();
    let mut arms = [0usize; 6];
    for k in 0..LINES {
        let arm = match rng.gen_index(0, 100) {
            0..=29 => 0,
            30..=44 => 1,
            45..=59 => 2,
            60..=74 => 3,
            75..=87 => 4,
            _ => 5,
        };
        arms[arm] += 1;
        let shape = rng.gen_index(0, FAN_SHAPES.len());
        let (ops, fan) = FAN_SHAPES[shape];
        let line = match arm {
            0 => dsl_request(&format!("pool{shape}"), fan_chain(ops, fan, "p", 0), vec![]),
            1 => dsl_request(&format!("twin{k}"), fan_chain(ops, fan, "p", 0), vec![]),
            2 => dsl_request(&format!("ren{k}"), fan_chain(ops, fan, "q", 0), vec![]),
            3 => {
                let (ops, fan) = wide[shape % wide.len()];
                let nfan = ops - (ops - fan).max(1);
                let rotate = 1 + rng.gen_index(0, nfan - 1);
                dsl_request(
                    &format!("perm{k}"),
                    fan_chain(ops, fan, "p", rotate),
                    vec![],
                )
            }
            4 => match k % 3 {
                0 => format!("not json ({k})"),
                1 => format!(r#"{{"version":"{VERSION}","type":"synthesize","#),
                _ => format!(r#"{{"version":"mfhls-api/v0","type":"synthesize","id":"old{k}"}}"#),
            },
            _ => dsl_request(&format!("big{k}"), fan_chain(9, 2, "o", 0), vec![]),
        };
        input.push_str(&line);
        input.push('\n');
        if (k + 1) % 16 == 0 {
            input.push('\n');
        }
    }
    assert!(
        arms.iter().all(|&n| n > 0),
        "every arm drew lines: {arms:?}"
    );
    (input, LINES)
}

#[test]
fn near_duplicate_stream_is_byte_identical_across_configs_and_caches() {
    let (input, lines) = near_duplicate_stream();
    let base = ServiceConfig {
        max_ops: MIXED_MAX_OPS,
        ..ServiceConfig::default()
    };
    let configs = [
        ("default", base.clone()),
        ("second run", base.clone()),
        (
            "caches off",
            ServiceConfig {
                delta_cache: false,
                ..base.clone()
            },
        ),
    ];
    let mut baseline: Option<(String, ServiceSummary)> = None;
    for (name, config) in configs {
        let (out, summary) = serve(config, &input);
        // Every request line, malformed or oversized ones included, draws
        // exactly one response line.
        assert_eq!(out.lines().count(), lines, "{name}");
        assert_eq!(summary.solved + summary.rejected, lines as u64, "{name}");
        // One thread admits each window's requests to the delta cache in
        // order, so the replay count is a function of the stream, and so
        // is the layer-cache split of the runs it leaves.
        let counts = (
            summary.delta_hits,
            summary.window_hits,
            summary.window_store_hits,
            summary.window_misses,
        );
        match name {
            "caches off" => assert_eq!(counts, (0, 52, 0, 192), "{summary:?}"),
            _ => assert_eq!(counts, (63, 6, 0, 32), "{name}: {summary:?}"),
        }
        match &baseline {
            None => baseline = Some((out, summary)),
            Some((bytes, first)) => {
                assert_eq!(&out, bytes, "stream diverged under {name}");
                if name == "second run" {
                    assert_eq!(&summary, first, "a second run changed the summary");
                }
            }
        }
    }
}

#[test]
fn op_permuted_variant_draws_no_delta_replay() {
    // Two windows: an original, then the same chain with its fan ops
    // declared in rotated order. A renamed twin in the second window is
    // the control: it replays the original.
    let original = dsl_request("orig", fan_chain(5, 2, "p", 0), vec![]);
    let permuted = dsl_request("perm", fan_chain(5, 2, "p", 1), vec![]);
    let renamed = dsl_request("ren", fan_chain(5, 2, "q", 0), vec![]);
    let (_, summary) = serve(
        ServiceConfig::default(),
        &format!("{original}\n\n{permuted}\n"),
    );
    assert_eq!(summary.solved, 2);
    assert_eq!(summary.delta_hits, 0, "{summary:?}");
    let (_, control) = serve(
        ServiceConfig::default(),
        &format!("{original}\n\n{renamed}\n"),
    );
    assert_eq!(control.delta_hits, 1, "{control:?}");
}

#[test]
fn hybrid_is_answered_as_the_heuristic_ilp_portfolio() {
    let under = |id: &str, solver: &str| {
        let artifacts = ["schedule", "stats"].map(|a| Json::Str(a.to_owned()));
        let config = vec![("solver".to_owned(), Json::Str(solver.to_owned()))];
        let extra = vec![
            ("artifacts", Json::Array(artifacts.to_vec())),
            ("config", Json::Object(config)),
        ];
        request(id, 3, 6, extra)
    };
    let input = format!(
        "{}\n{}\n\n",
        under("alias", "hybrid"),
        under("plain", "portfolio:heuristic+ilp")
    );
    let (out, _) = serve_thrice(ServiceConfig::default(), &input);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(
        lines[0].replace(r#""id":"alias""#, r#""id":"plain""#),
        lines[1]
    );
    // Both were solved, and the exact leg raced.
    assert!(lines[1].contains(r#""status":"ok""#), "{}", lines[1]);
    let raced = lines[1].contains(r#""ilp_solves":"#) && !lines[1].contains(r#""ilp_solves":0"#);
    assert!(raced, "{}", lines[1]);
}

/// A solver object's field is checked by name before its value is
/// converted, so an unknown field is refused as unknown whatever its
/// value, and only a known field's value draws the integer error.
#[test]
fn solver_objects_refuse_unknown_fields_by_name() {
    let under = |id: &str, solver: &str| {
        format!(
            r#"{{"version":"{VERSION}","type":"synthesize","id":"{id}","assay":{{"benchmark":"kinase","scale":1}},"config":{{"solver":{solver}}}}}"#
        )
    };
    let input = format!(
        "{}\n{}\n{}\n\n",
        under("foo", r#"{"kind":"ilp","foo":"x"}"#),
        under("legs", r#"{"kind":"hybrid","backends":["sdc"]}"#),
        under("typed", r#"{"kind":"ilp","max_nodes":"x"}"#),
    );
    let (out, _) = serve(ServiceConfig::default(), &input);
    let errors: Vec<(String, String)> = out
        .lines()
        .map(|line| {
            let v = Json::parse(line).unwrap();
            let error = v.get("error").expect("an error response");
            let text = |k: &str| error.get(k).and_then(Json::as_str).unwrap().to_owned();
            (text("kind"), text("message"))
        })
        .collect();
    let config_error = |m: &str| ("config_error".to_owned(), m.to_owned());
    assert_eq!(
        errors,
        [
            config_error("solver 'ilp' has no field 'foo' (max_nodes)"),
            config_error("solver 'hybrid' has no field 'backends' (no fields)"),
            config_error("solver 'ilp': field 'max_nodes' wants a non-negative integer"),
        ]
    );
}

#[test]
fn oversized_assay_is_rejected_at_admission() {
    let input = format!(
        "{}\n\n",
        request("big", 0, 9, vec![]) // 9 ops > max_ops 8
    );
    let (out, summary) = serve(
        ServiceConfig {
            max_ops: 8,
            ..ServiceConfig::default()
        },
        &input,
    );
    let v = Json::parse(out.lines().next().unwrap()).unwrap();
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("parse_error")
    );
    assert_eq!(summary.rejected, 1);
    assert_eq!(summary.accepted, 0);
}

/// `mfhls-netlist/v1` ingestion end to end: a well-formed netlist source
/// solves exactly like its DSL twin, and each malformed shape is rejected
/// with a typed `parse_error` naming the offending field.
#[test]
fn netlist_sources_solve_and_reject_with_field_names() {
    let netlist_request = |id: &str, body: &str| {
        format!(
            r#"{{"version":"{VERSION}","type":"synthesize","id":"{id}","assay":{{"netlist":{body}}}}}"#
        )
    };
    let good = r#"{"version":"mfhls-netlist/v1","name":"net","ops":[
        {"id":0,"name":"mix","duration":{"fixed":3}},
        {"id":1,"name":"detect","accessories":["optical-system"],"duration":{"min":2}}],
        "edges":[[0,1]]}"#
        .replace(['\n', ' '], " ");
    let bad_kind = r#"{"version":"mfhls-netlist/v1","ops":[
        {"id":0,"container":"tube","duration":{"fixed":3}}],"edges":[]}"#
        .replace(['\n', ' '], " ");
    let dangling = r#"{"version":"mfhls-netlist/v1","ops":[
        {"id":0,"duration":{"fixed":3}}],"edges":[[0,4]]}"#
        .replace(['\n', ' '], " ");
    let oversized = r#"{"version":"mfhls-netlist/v1","ops":[
        {"id":0,"duration":{"fixed":1}},{"id":1,"duration":{"fixed":1}},
        {"id":2,"duration":{"fixed":1}}],"edges":[]}"#
        .replace(['\n', ' '], " ");
    let input = format!(
        "{}\n{}\n{}\n{}\n\n",
        netlist_request("good", &good),
        netlist_request("kind", &bad_kind),
        netlist_request("edge", &dangling),
        netlist_request("size", &oversized),
    );
    let (out, summary) = serve(
        ServiceConfig {
            max_ops: 2,
            ..ServiceConfig::default()
        },
        &input,
    );
    assert_eq!(summary.solved, 1);
    assert_eq!(summary.rejected, 3);

    let mut by_id = std::collections::HashMap::new();
    for line in out.lines() {
        let v = Json::parse(line).unwrap();
        let id = v.get("id").and_then(Json::as_str).unwrap().to_owned();
        by_id.insert(id, v);
    }
    assert_eq!(
        by_id["good"].get("status").and_then(Json::as_str),
        Some("ok")
    );
    for (id, field) in [
        ("kind", ".container: unknown kind 'tube'"),
        ("edge", "netlist.edges[0][1]: op index 4 is dangling"),
        (
            "size",
            "netlist.ops: defines 3 operations, exceeding the limit of 2",
        ),
    ] {
        let err = by_id[id].get("error").expect("typed rejection");
        assert_eq!(
            err.get("kind").and_then(Json::as_str),
            Some("parse_error"),
            "{id}"
        );
        let msg = err.get("message").and_then(Json::as_str).unwrap();
        assert!(msg.contains(field), "{id}: {msg}");
    }
}

#[test]
fn trace_artifact_fingerprint_repeats_and_matches_caches_off() {
    // The per-request `trace` artifact is the logical fingerprint of the
    // request's own synthesis — cache movement is diagnostic by the
    // mfhls-obs contract, so it is safe to include in byte-compared
    // responses.
    let input = format!(
        "{}\n\n",
        request(
            "tr",
            3,
            5,
            vec![(
                "artifacts",
                Json::Array(vec![
                    Json::Str("stats".to_owned()),
                    Json::Str("trace".to_owned()),
                ])
            )]
        )
    );
    let (out, _) = serve_thrice(ServiceConfig::default(), &input);
    let v = Json::parse(out.lines().next().unwrap()).unwrap();
    let fp = v
        .get("trace_fingerprint")
        .and_then(Json::as_str)
        .expect("trace artifact present");
    assert!(fp.contains("layer_solved"), "{fp}");
}
