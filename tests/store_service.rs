//! Integration tests of the persistent solution store (`mfhls-store`)
//! attached to the batched synthesis service (`mfhls-svc`).
//!
//! The acceptance criterion these tests pin: under **every** injected
//! storage fault class, and under a crash-mid-write restart, the service
//! response stream is **byte-identical** to a store-less run. The store
//! may only ever change diagnostics (`StoreStats`, `store_*` counters) —
//! a fault must degrade it to memory-only operation, never fail or alter
//! a response.

use mfhls::store::{FaultKind, FaultPlan, FaultyIo, MemIo, SolutionStore, StoreConfig};
use mfhls::svc::{Json, ServiceConfig, ServiceSummary, SynthesisService, VERSION};
use std::io::BufReader;
use std::path::Path;
use std::sync::Arc;

fn request(id: &str, seed: usize, ops: usize) -> String {
    let mut dsl = format!("assay \"store {seed}\"\n");
    for k in 0..ops {
        let dur = 2 + (seed + k) % 5;
        let extras = match k % 3 {
            0 => "container: chamber capacity: medium accessories: [pump]",
            1 => "accessories: [heating-pad]",
            _ => "accessories: [sieve-valve]",
        };
        let after = if k == 0 {
            String::new()
        } else {
            format!(" after: [s{}]", k - 1)
        };
        dsl.push_str(&format!("op s{k} {{ {extras} duration: {dur}m{after} }}\n"));
    }
    let mut line = String::new();
    Json::Object(vec![
        ("version".to_owned(), Json::Str(VERSION.to_owned())),
        ("type".to_owned(), Json::Str("synthesize".to_owned())),
        ("id".to_owned(), Json::Str(id.to_owned())),
        (
            "assay".to_owned(),
            Json::Object(vec![("dsl".to_owned(), Json::Str(dsl))]),
        ),
    ])
    .write(&mut line);
    line
}

/// Two admission windows over six protocols; the second window replays
/// half of the first, so both the cache and the store see hits.
fn workload() -> String {
    let mut input = String::new();
    for i in 0..4 {
        input.push_str(&request(&format!("a{i}"), i, 2 + i % 3));
        input.push('\n');
    }
    input.push('\n');
    for i in 0..4 {
        input.push_str(&request(&format!("b{i}"), i % 2, 2 + (i % 2) % 3));
        input.push('\n');
    }
    input.push('\n');
    input
}

fn serve(service: &SynthesisService, input: &str) -> (String, ServiceSummary) {
    let mut out = Vec::new();
    let summary = service
        .serve(BufReader::new(input.as_bytes()), &mut out)
        .expect("in-memory serve cannot fail");
    (
        String::from_utf8(out).expect("responses are UTF-8"),
        summary,
    )
}

fn baseline(input: &str) -> String {
    serve(&SynthesisService::new(ServiceConfig::default()), input).0
}

const DIR: &str = "/mem/store";

fn segment_path() -> std::path::PathBuf {
    Path::new(DIR).join("segment-00001.mfs")
}

/// Runs the workload against a pristine MemIo store and returns the
/// resulting segment image (the "disk" a later scenario reopens).
fn seeded_image(input: &str) -> Vec<u8> {
    let io = Arc::new(MemIo::new());
    let store = SolutionStore::open(DIR, StoreConfig::default(), io.clone());
    let service = SynthesisService::with_store(ServiceConfig::default(), Arc::new(store));
    let _ = serve(&service, input);
    io.contents(&segment_path()).expect("segment written")
}

#[test]
fn every_write_fault_class_degrades_without_changing_a_response_byte() {
    let input = workload();
    let expected = baseline(&input);
    for kind in [FaultKind::ShortWrite, FaultKind::Enospc] {
        let io = Arc::new(FaultyIo::new(MemIo::new(), FaultPlan::only(kind, 1.0, 7)));
        let store = Arc::new(SolutionStore::open(DIR, StoreConfig::default(), io.clone()));
        let service = SynthesisService::with_store(ServiceConfig::default(), store.clone());
        let (out, summary) = serve(&service, &input);
        assert_eq!(out, expected, "{kind:?} changed a response");
        assert!(io.injected_total() > 0, "{kind:?} never fired");
        let stats = store.stats();
        assert!(stats.degraded, "{kind:?} should degrade: {stats}");
        assert!(stats.dropped > 0, "{kind:?} drops later appends: {stats}");
        assert_eq!(stats.appended, 0, "{kind:?}: {stats}");
        let svc_stats = summary.store.expect("store stats in summary");
        assert!(svc_stats.degraded);
        assert!(svc_stats.last_error.is_some());
    }
}

#[test]
fn torn_tail_writes_surface_only_at_the_next_restart() {
    // TornTail reports success while persisting a prefix — exactly a
    // SIGKILL landing mid-write. The writing process never notices; the
    // *next* open quarantines the tail and keeps everything before it.
    let input = workload();
    let expected = baseline(&input);
    let io = Arc::new(FaultyIo::new(
        MemIo::new(),
        // Arm after a few clean ops so some records land intact first.
        FaultPlan {
            arm_after: 6,
            ..FaultPlan::only(FaultKind::TornTail, 1.0, 11)
        },
    ));
    let store = Arc::new(SolutionStore::open(DIR, StoreConfig::default(), io.clone()));
    let service = SynthesisService::with_store(ServiceConfig::default(), store.clone());
    let (out, _) = serve(&service, &input);
    assert_eq!(out, expected, "torn writes changed a response");
    assert!(io.injected_total() > 0, "no tear injected");
    assert!(!store.stats().degraded, "tears are silent in-process");

    // "Restart": reopen the torn image with clean I/O.
    let image = io.inner().contents(&segment_path()).expect("segment");
    let io2 = Arc::new(MemIo::new());
    io2.set_contents(&segment_path(), image);
    let reopened = Arc::new(SolutionStore::open(DIR, StoreConfig::default(), io2));
    let stats = reopened.stats();
    assert!(stats.quarantined > 0, "tail not quarantined: {stats}");
    assert!(!stats.degraded, "a torn tail must not degrade: {stats}");
    let service = SynthesisService::with_store(ServiceConfig::default(), reopened);
    let (out, _) = serve(&service, &input);
    assert_eq!(out, expected, "restart over torn image changed a response");
}

#[test]
fn every_read_fault_class_quarantines_without_changing_a_response_byte() {
    let input = workload();
    let expected = baseline(&input);
    let image = seeded_image(&input);
    for kind in [FaultKind::BitFlip, FaultKind::ReadError] {
        let mem = MemIo::new();
        mem.set_contents(&segment_path(), image.clone());
        let io = Arc::new(FaultyIo::new(mem, FaultPlan::only(kind, 1.0, 13)));
        let store = Arc::new(SolutionStore::open(DIR, StoreConfig::default(), io.clone()));
        assert!(io.injected_total() > 0, "{kind:?} never fired at load");
        let stats = store.stats();
        assert!(
            stats.quarantined + stats.quarantined_segments > 0,
            "{kind:?} not quarantined: {stats}"
        );
        let service = SynthesisService::with_store(ServiceConfig::default(), store);
        let (out, _) = serve(&service, &input);
        assert_eq!(out, expected, "{kind:?} changed a response");
    }
}

#[test]
fn sigkill_mid_write_restart_is_byte_identical_and_warm() {
    let input = workload();
    let expected = baseline(&input);
    let image = seeded_image(&input);

    // Warm restart over the intact image: byte-identical and mostly hits.
    let io = Arc::new(MemIo::new());
    io.set_contents(&segment_path(), image.clone());
    let store = Arc::new(SolutionStore::open(DIR, StoreConfig::default(), io));
    let loaded = store.stats().loaded;
    assert!(loaded > 0, "seeded image should load records");
    let service = SynthesisService::with_store(ServiceConfig::default(), store.clone());
    let (out, summary) = serve(&service, &input);
    assert_eq!(out, expected, "warm restart changed a response");
    assert!(
        summary.window_store_hits > 0,
        "stored entries should serve hits: {summary:?}"
    );
    assert_eq!(
        store.stats().appended,
        0,
        "replayed workload should re-persist nothing"
    );

    // Crash restart: chop the tail mid-record ("SIGKILL landed here"),
    // reopen, replay — the missing solutions are simply re-solved and
    // re-persisted, and the stream still matches byte for byte.
    let cut = image.len() - image.len() / 3;
    let io = Arc::new(MemIo::new());
    io.set_contents(&segment_path(), image[..cut].to_vec());
    let store = Arc::new(SolutionStore::open(DIR, StoreConfig::default(), io));
    let stats = store.stats();
    assert!(
        stats.loaded < loaded,
        "the cut should cost records: {stats}"
    );
    let service = SynthesisService::with_store(ServiceConfig::default(), store.clone());
    let (out, _) = serve(&service, &input);
    assert_eq!(out, expected, "crash restart changed a response");
    assert!(
        store.stats().appended > 0,
        "lost records should be re-persisted"
    );
}

#[test]
fn each_layer_miss_reads_through_the_store_once() {
    // A cold store answers nothing, so every layer miss costs exactly one
    // store fetch: the store's miss count is the service's.
    let input = workload();
    let io = Arc::new(MemIo::new());
    let store = Arc::new(SolutionStore::open(DIR, StoreConfig::default(), io));
    let service = SynthesisService::with_store(ServiceConfig::default(), store.clone());
    let (_, summary) = serve(&service, &input);
    let stats = store.stats();
    assert!(summary.window_misses > 0, "{summary:?}");
    assert_eq!(stats.hits, 0, "{stats}");
    assert_eq!(
        stats.misses, summary.window_misses,
        "{stats} vs {summary:?}"
    );
}

#[test]
fn a_store_of_kind_4_records_opens_warm_and_serves_the_same_bytes() {
    // 0.11.0–0.15.0 persisted every layer as kind 4, with the canonical
    // index's bytes between key and solution. This build reads past them.
    use mfhls::store::format::{
        empty_segment, encode_record_as, scan_segment, KIND_CANONICAL_SOLUTION_V3,
    };
    let input = workload();
    let expected = baseline(&input);
    let scan = scan_segment(&seeded_image(&input)).expect("seeded image scans");
    assert!(!scan.records.is_empty());
    let mut image = empty_segment();
    for rec in &scan.records {
        let canon = format!("clk2|canon|{}", rec.key.layer);
        let positional = format!("clk2|positional|{}", rec.key.layer);
        image.extend_from_slice(&encode_record_as(
            rec,
            KIND_CANONICAL_SOLUTION_V3,
            [canon.as_bytes(), positional.as_bytes()],
        ));
    }
    let io = Arc::new(MemIo::new());
    io.set_contents(&segment_path(), image);
    let store = Arc::new(SolutionStore::open(DIR, StoreConfig::default(), io));
    let stats = store.stats();
    assert_eq!(stats.loaded, scan.records.len() as u64, "{stats}");
    assert_eq!(stats.quarantined + stats.quarantined_segments, 0, "{stats}");
    let service = SynthesisService::with_store(ServiceConfig::default(), store.clone());
    let (out, summary) = serve(&service, &input);
    assert_eq!(out, expected, "kind-4 records changed a response");
    assert!(summary.window_hits > 0, "{summary:?}");
    assert_eq!(summary.window_misses, 0, "{summary:?}");
    assert_eq!(store.stats().appended, 0, "{}", store.stats());
}

#[test]
fn an_evicting_cache_reads_back_through_the_store() {
    // A 2-result delta cache cannot hold window 1's four results, so
    // window 2's repeats of the evicted ones run again, and their fresh
    // runs read every layer back through the store — still
    // byte-identically.
    let input = workload();
    let expected = baseline(&input);
    let config = ServiceConfig {
        cache_entries: 2,
        ..ServiceConfig::default()
    };
    mfhls::obs::start_capture(mfhls::obs::CaptureConfig::default());
    let io = Arc::new(MemIo::new());
    let store = Arc::new(SolutionStore::open(DIR, StoreConfig::default(), io));
    let service = SynthesisService::with_store(config, store.clone());
    let (out, _) = serve(&service, &input);
    let trace = mfhls::obs::finish_capture().expect("capture was active");
    assert_eq!(out, expected, "read-through changed a response");
    let stats = store.stats();
    assert!(stats.hits > 0, "evicted results should re-read: {stats}");
    let jsonl = trace.to_jsonl();
    for name in ["store_appended", "store_hit", "store_miss"] {
        assert!(jsonl.contains(name), "trace is missing '{name}'");
    }
    // Store movement is environment-dependent, so the counters must stay
    // out of the deterministic logical fingerprint.
    let fingerprint = trace.logical_fingerprint();
    for name in ["store_appended", "store_hit", "store_miss", "store_loaded"] {
        assert!(
            !fingerprint.contains(name),
            "'{name}' leaked into the logical fingerprint"
        );
    }
}

/// The `diagnostics` cache split (hits, store hits, misses) of one
/// response line.
fn split(line: &str) -> (u64, u64, u64) {
    let v = Json::parse(line).expect("response is JSON");
    let d = v.get("diagnostics").expect("diagnostics artifact");
    let count = |k: &str| d.get(k).and_then(Json::as_i64).expect("a count") as u64;
    (
        count("cache_hits"),
        count("cache_store_hits"),
        count("cache_misses"),
    )
}

#[test]
fn a_repeat_request_reads_every_layer_back_through_a_cold_store() {
    // `trace` makes both identical requests bypass the delta cache, so
    // both run synthesis. The first solves its layers and appends them;
    // the second, with no warm-load in between, reads each of them back
    // through the store.
    let traced = |id: &str| {
        request(id, 3, 5).replacen(
            r#","assay""#,
            r#","artifacts":["trace","diagnostics"],"assay""#,
            1,
        )
    };
    let input = format!("{}\n\n{}\n", traced("first"), traced("second"));
    let io = Arc::new(MemIo::new());
    let store = Arc::new(SolutionStore::open(DIR, StoreConfig::default(), io));
    let service = SynthesisService::with_store(ServiceConfig::default(), store.clone());
    let (out, summary) = serve(&service, &input);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 2, "{out}");
    let ((hits, store_hits, misses), second) = (split(lines[0]), split(lines[1]));
    assert!(misses > 0, "{out}");
    assert_eq!(store_hits, 0, "a cold store answered: {out}");
    // Every fresh layer is read back once; the second run's own repeats
    // stay its own hits, as in the first run.
    assert_eq!(second, (hits + misses, misses, 0), "{out}");
    let stats = store.stats();
    assert_eq!((stats.appended, stats.hits), (misses, misses), "{stats}");
    assert_eq!(summary.window_store_hits, misses, "{summary:?}");
}

/// A portfolio request on paper case 1 (kinase, scale 2): one whose exact
/// legs earlier solvers raced and reported work for.
fn portfolio_request(id: &str) -> String {
    let mut line = String::new();
    Json::Object(vec![
        ("version".to_owned(), Json::Str(VERSION.to_owned())),
        ("type".to_owned(), Json::Str("synthesize".to_owned())),
        ("id".to_owned(), Json::Str(id.to_owned())),
        (
            "assay".to_owned(),
            Json::Object(vec![
                ("benchmark".to_owned(), Json::Str("kinase".to_owned())),
                ("scale".to_owned(), Json::Int(2)),
            ]),
        ),
        (
            "config".to_owned(),
            Json::Object(vec![(
                "solver".to_owned(),
                Json::Str("portfolio:heuristic+sdc+ilp".to_owned()),
            )]),
        ),
    ])
    .write(&mut line);
    line
}

/// Re-tags every record of a segment image with `epoch`, the way a build
/// at that solver epoch would have keyed it, and inflates the ILP counters
/// so any replay of the record shows in the response bytes.
fn retagged_image(image: &[u8], epoch: u32) -> Vec<u8> {
    use mfhls::core::cache::SOLVER_EPOCH;
    use mfhls::store::format::{empty_segment, encode_record, scan_segment};
    let scan = scan_segment(image).expect("seeded image scans");
    assert!(scan.quarantined.is_empty() && scan.torn_tail_at.is_none());
    let context_tag = format!("epoch{SOLVER_EPOCH}|");
    let mut out = empty_segment();
    for mut rec in scan.records {
        let bare = rec
            .context
            .strip_prefix(&context_tag)
            .expect("contexts carry the solver epoch");
        // Epoch 1 contexts carried no epoch component at all.
        rec.context = if epoch == 1 {
            bare.to_owned()
        } else {
            format!("epoch{epoch}|{bare}")
        };
        rec.solution.stats.ilp_solves += 3;
        rec.solution.stats.pivots += 75;
        out.extend_from_slice(&encode_record(&rec));
    }
    out
}

#[test]
fn records_from_an_earlier_solver_epoch_load_but_never_answer() {
    use mfhls::core::cache::SOLVER_EPOCH;
    let mut input = workload();
    input.push_str(&portfolio_request("k"));
    input.push('\n');
    let cold = baseline(&input);
    let image = seeded_image(&input);
    let persisted = SolutionStore::open(DIR, StoreConfig::default(), {
        let io = Arc::new(MemIo::new());
        io.set_contents(&segment_path(), image.clone());
        io
    })
    .stats()
    .loaded;
    assert!(persisted > 0);

    let serve_over = |image: Vec<u8>| {
        let io = Arc::new(MemIo::new());
        io.set_contents(&segment_path(), image);
        let store = Arc::new(SolutionStore::open(DIR, StoreConfig::default(), io));
        let service = SynthesisService::with_store(ServiceConfig::default(), store.clone());
        let loaded = store.stats().loaded;
        (serve(&service, &input).0, loaded, store.stats())
    };

    // Control: under this build's epoch the inflated records are served,
    // and the inflated counters reach the response bytes.
    let (out, _, _) = serve_over(retagged_image(&image, SOLVER_EPOCH));
    assert_ne!(out, cold, "inflated records never reached a response");

    // Under the previous epoch every record still loads, none answers,
    // and every layer is solved and persisted afresh.
    let (out, loaded, stats) = serve_over(retagged_image(&image, SOLVER_EPOCH - 1));
    assert_eq!(loaded, persisted, "{stats}");
    assert_eq!(stats.quarantined, 0, "{stats}");
    assert_eq!(stats.hits, 0, "an old-epoch record answered: {stats}");
    assert_eq!(stats.appended, persisted, "{stats}");
    assert_eq!(out, cold, "an old-epoch record changed a response");
}
