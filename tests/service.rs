//! Integration tests of the batched synthesis service (`mfhls-svc`).
//!
//! The service's determinism contract extends the workspace-wide one
//! pinned in `tests/determinism.rs`: NDJSON responses must be
//! **byte-identical** at any worker count, at any shard count, with the
//! window pipeline on or off, and with the shared cross-request layer
//! cache on or off — because the cache is a pure accelerator, shard
//! results merge in admission order, and windows flow through the
//! pipeline in FIFO order. These tests drive a large in-flight window
//! (the ≥64-request acceptance criterion), the full shards × workers ×
//! pipelining matrix, typed rejection paths, the cache eviction bound,
//! and the observability counters.

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
    let mut fields = vec![
        ("version".to_owned(), Json::Str(VERSION.to_owned())),
        ("type".to_owned(), Json::Str("synthesize".to_owned())),
        ("id".to_owned(), Json::Str(id.to_owned())),
        (
            "assay".to_owned(),
            Json::Object(vec![("dsl".to_owned(), Json::Str(dsl(seed, ops)))]),
        ),
    ];
    for (k, v) in extra {
        fields.push((k.to_owned(), v));
    }
    let mut line = String::new();
    Json::Object(fields).write(&mut line);
    line
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
fn sixty_four_in_flight_requests_are_byte_identical_at_1_and_4_workers() {
    let input = batch_of_64();
    let at = |workers: usize| {
        serve(
            ServiceConfig {
                workers,
                ..ServiceConfig::default()
            },
            &input,
        )
    };
    let (out_1, summary_1) = at(1);
    let (out_4, summary_4) = at(4);
    assert_eq!(
        out_1, out_4,
        "service responses differ between 1 and 4 workers"
    );
    assert_eq!(summary_1.solved, 64);
    assert_eq!(summary_1.rejected, 0);
    assert_eq!(summary_4.solved, 64);

    // Responses come back in admission order, every one solved.
    let lines: Vec<Json> = out_1.lines().map(|l| Json::parse(l).unwrap()).collect();
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
fn responses_are_identical_with_shared_cache_on_and_off() {
    // Two windows with repeated protocols: the second window replays the
    // first's assays, so the shared cache serves hits — which must not
    // change a single response byte.
    let mut input = String::new();
    for window in 0..2 {
        for i in 0..8 {
            input.push_str(&request(&format!("w{window}-{i}"), i, 1 + i % 4, vec![]));
            input.push('\n');
        }
        input.push('\n');
    }
    let (out_on, summary_on) = serve(
        ServiceConfig {
            shared_cache: true,
            ..ServiceConfig::default()
        },
        &input,
    );
    let (out_off, summary_off) = serve(
        ServiceConfig {
            shared_cache: false,
            ..ServiceConfig::default()
        },
        &input,
    );
    assert_eq!(out_on, out_off, "shared cache changed a response");
    assert!(
        summary_on.cache.hits > 0,
        "replayed window should hit the shared cache: {:?}",
        summary_on.cache
    );
    assert_eq!(
        summary_off.cache.hits + summary_off.cache.misses,
        0,
        "disabled shared cache must stay untouched: {:?}",
        summary_off.cache
    );
}

#[test]
fn eviction_bound_is_respected_across_requests() {
    let config = ServiceConfig {
        cache_entries: 4,
        ..ServiceConfig::default()
    };
    let service = SynthesisService::new(config);
    // 12 distinct protocols, one window each: far more layer solutions
    // than the bound allows.
    let mut input = String::new();
    for i in 0..12 {
        input.push_str(&request(&format!("d{i}"), 100 + i, 3, vec![]));
        input.push_str("\n\n");
    }
    let mut out = Vec::new();
    let summary = service
        .serve(BufReader::new(input.as_bytes()), &mut out)
        .expect("in-memory serve cannot fail");
    assert_eq!(summary.solved, 12);
    let stats = service.cache().stats();
    assert!(
        stats.entries <= 4,
        "bounded cache exceeded its capacity: {stats:?}"
    );
    assert!(
        stats.misses > 4,
        "distinct protocols should miss more often than the bound: {stats:?}"
    );
}

#[test]
fn cache_and_admission_counters_flow_through_obs() {
    // The service narrates itself through `mfhls-obs`: admission and
    // solve events in the logical class, cache movement as diagnostics.
    let input = format!(
        "{r}\n\n{r2}\n\n",
        r = request("first", 7, 4, vec![]),
        r2 = request("second", 7, 4, vec![])
    );
    mfhls::obs::start_capture(mfhls::obs::CaptureConfig::default());
    let (_, summary) = serve(ServiceConfig::default(), &input);
    let trace = mfhls::obs::finish_capture().expect("capture was active");
    let jsonl = trace.to_jsonl();
    for name in [
        "svc.request_accepted",
        "svc.batch_flush",
        "svc.request_solved",
        "svc.cache_hits",
        "svc.cache_misses",
    ] {
        assert!(jsonl.contains(name), "trace is missing '{name}'");
    }
    // The identical second request replayed the first's layer solutions;
    // counters aggregate into one record per name at capture end, and
    // the hit total agrees with the summary.
    assert!(summary.cache.hits > 0, "{:?}", summary.cache);
    let hit_lines: Vec<&str> = jsonl
        .lines()
        .filter(|l| l.contains("svc.cache_hits"))
        .collect();
    assert_eq!(hit_lines.len(), 1, "one aggregated record per counter");
    let record = mfhls::svc::Json::parse(hit_lines[0]).expect("counter record is JSON");
    let total = record
        .get("fields")
        .and_then(|f| f.get("total"))
        .and_then(mfhls::svc::Json::as_i64)
        .expect("counter record carries a total");
    assert_eq!(total, summary.cache.hits as i64);
}

#[test]
fn rejection_paths_are_typed_and_worker_invariant() {
    // One window over capacity, one malformed line, one unsupported
    // version, one zero deadline, one cancel: every rejection is typed,
    // and the whole stream is byte-identical at any worker count.
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
    let at = |workers: usize| {
        serve(
            ServiceConfig {
                workers,
                queue_capacity: 4,
                ..ServiceConfig::default()
            },
            &input,
        )
    };
    let (out_1, summary) = at(1);
    let (out_4, _) = at(4);
    assert_eq!(out_1, out_4, "rejections differ between 1 and 4 workers");

    let kinds: Vec<(Option<String>, Option<String>)> = out_1
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
fn response_stream_is_byte_identical_across_shard_worker_pipeline_matrix() {
    // The acceptance matrix of the sharded, pipelined serve plane:
    // --shards {1,2,4} × --workers {0,1,4} × pipelining on/off must all
    // produce the same bytes. Three windows of mixed traffic (varied
    // protocols, artifacts, a malformed line, a cancel, a zero deadline)
    // so shard routing, solve-time rejections, and the window pipeline
    // all engage.
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
    let mut baseline: Option<(String, u64)> = None;
    for shards in [1usize, 2, 4] {
        for workers in [0usize, 1, 4] {
            for pipeline_windows in [1usize, 2] {
                let (out, summary) = serve(
                    ServiceConfig {
                        shards,
                        workers,
                        pipeline_windows,
                        ..ServiceConfig::default()
                    },
                    &input,
                );
                assert_eq!(summary.batches, 3);
                match &baseline {
                    None => baseline = Some((out, summary.solved)),
                    Some((bytes, solved)) => {
                        assert_eq!(
                            &out, bytes,
                            "stream diverged at shards={shards} workers={workers} \
                             pipeline_windows={pipeline_windows}"
                        );
                        assert_eq!(summary.solved, *solved);
                    }
                }
                // Every request is accounted to exactly one shard.
                let routed: u64 = summary.shards.iter().map(|s| s.requests).sum();
                assert_eq!(routed, summary.solved + (summary.rejected - 1)); // -1: the malformed line never reaches a shard
            }
        }
    }
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
fn trace_artifact_fingerprint_is_worker_invariant() {
    // The per-request `trace` artifact is the logical fingerprint of the
    // request's own synthesis — invariant by the mfhls-obs contract, so
    // it is safe to include in byte-compared responses.
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
    let fp = |workers: usize| {
        let (out, _) = serve(
            ServiceConfig {
                workers,
                ..ServiceConfig::default()
            },
            &input,
        );
        let v = Json::parse(out.lines().next().unwrap()).unwrap();
        v.get("trace_fingerprint")
            .and_then(Json::as_str)
            .expect("trace artifact present")
            .to_owned()
    };
    let fp_1 = fp(1);
    assert!(fp_1.contains("layer_solved"), "{fp_1}");
    assert_eq!(fp_1, fp(4));
}
