//! Thread-count invariance: the determinism contract of `mfhls-par`.
//!
//! Synthesis runs sequentially on the calling thread, and every parallel
//! site that remains in the workspace (simulation trials, survivability
//! studies) must produce **bitwise-identical** results at any thread
//! count. These tests pin that contract by running the same work pinned
//! to 1 and 4 workers and comparing full result structures, and check
//! that the layer-solution memo cache is a pure accelerator (cache on ≡
//! cache off). The `mfhls-obs` trace is held to the same standard: a
//! synthesis trace is identical at any thread count, diagnostics
//! included, and its logical records are identical with the cache on or
//! off.

use mfhls::bench::gen::{self, Profile};
use mfhls::core::recovery::RetryPolicy;
use mfhls::core::{SolverKind, SynthesisResult};
use mfhls::par::with_threads;
use mfhls::sim::{run_with_recovery, trials, DurationModel, FaultModel, SimConfig};
use mfhls::{SynthConfig, Synthesizer};

fn cases() -> Vec<mfhls::Assay> {
    // Cases 1 and 2 of Table 2 — big enough to exercise multi-layer
    // synthesis and re-synthesis, small enough for a debug test run.
    vec![
        mfhls::assays::kinase_activity(2),
        mfhls::assays::gene_expression(10),
    ]
}

/// The heuristic default and the spec-default race of
/// `--solver portfolio:heuristic+sdc+ilp`.
fn solvers() -> [SolverKind; 2] {
    [
        SolverKind::default(),
        SolverKind::Portfolio {
            backends: vec![
                SolverKind::Heuristic {
                    improvement_passes: 2,
                },
                SolverKind::Sdc {
                    improvement_passes: 2,
                },
                SolverKind::Ilp { max_nodes: 20_000 },
            ],
        },
    ]
}

fn synthesize(assay: &mfhls::Assay, solver: &SolverKind, cache: bool) -> SynthesisResult {
    Synthesizer::new(
        SynthConfig::builder()
            .solver(solver.clone())
            .layer_cache(cache)
            .build()
            .expect("valid config"),
    )
    .run(assay)
    .expect("benchmark assay must synthesize")
}

#[test]
fn synthesis_is_thread_count_invariant() {
    // Cases 1-2 plus `gen-small-1`, where the portfolio's exact leg is
    // admitted and wins.
    let mut assays = cases();
    assays.push(gen::generate(Profile::Small, 1));
    for solver in solvers() {
        for assay in &assays {
            let run = || synthesize(assay, &solver, true);
            let seq = with_threads(1, run);
            let par = with_threads(4, run);
            assert_eq!(
                seq.schedule,
                par.schedule,
                "schedule differs between 1 and 4 threads for '{}' under {solver:?}",
                assay.name()
            );
            // Every iteration metric matches, the cache hit/miss split
            // included: nothing in a synthesis run depends on the pool.
            assert_eq!(
                seq.iterations,
                par.iterations,
                "iteration stats differ between 1 and 4 threads for '{}' under {solver:?}",
                assay.name()
            );
        }
    }
}

/// The (hits, misses) of one synthesis run's own layer cache, summed over
/// its re-synthesis passes.
fn cache_split(result: &SynthesisResult) -> (u64, u64) {
    result.iterations.iter().fold((0, 0), |(h, m), it| {
        (h + it.cache_hits, m + it.cache_misses)
    })
}

#[test]
fn layer_cache_hits_layers_that_repeat_within_a_run() {
    // The corpus assays on which a later re-synthesis pass poses a layer
    // problem an earlier pass already solved, so the in-run cache serves
    // it. Pinned at both pool sizes: the split is a function of the run.
    let [heuristic, portfolio] = solvers();
    let pins = [
        (2, &heuristic, (1, 2)),
        (1, &portfolio, (3, 6)),
        (2, &portfolio, (1, 2)),
    ];
    for (seed, solver, expected) in pins {
        let assay = gen::generate(Profile::Small, seed);
        for threads in [1, 4] {
            let result = with_threads(threads, || synthesize(&assay, solver, true));
            assert_eq!(
                cache_split(&result),
                expected,
                "(hits, misses) of '{}' under {solver:?} at {threads} threads",
                assay.name()
            );
        }
    }
}

#[test]
fn ilp_solver_is_thread_count_invariant() {
    // The exact §4 path must honour the same contract as the heuristic:
    // identical schedules AND identical solver work counters at any thread
    // count. The counters live inside cached layer solutions, so cache hits
    // replay the original solve's numbers. Hand-built two-layer assay:
    // small enough for debug-mode exact solves, with an indeterminate op
    // so re-synthesis actually runs.
    use mfhls::chip::{Accessory, Capacity, ContainerKind};
    use mfhls::{Duration, Operation};
    let mut assay = mfhls::Assay::new("ilp-determinism");
    let mix = assay.add_op(
        Operation::new("mix")
            .container(ContainerKind::Ring)
            .capacity(Capacity::Medium)
            .accessory(Accessory::Pump)
            .with_duration(Duration::fixed(6)),
    );
    let heat = assay.add_op(
        Operation::new("heat")
            .container(ContainerKind::Chamber)
            .capacity(Capacity::Small)
            .accessory(Accessory::HeatingPad)
            .with_duration(Duration::fixed(4)),
    );
    let capture = assay.add_op(
        Operation::new("capture")
            .container(ContainerKind::Chamber)
            .capacity(Capacity::Small)
            .with_duration(Duration::at_least(3)),
    );
    let wash = assay.add_op(
        Operation::new("wash")
            .container(ContainerKind::Ring)
            .capacity(Capacity::Medium)
            .accessory(Accessory::Pump)
            .with_duration(Duration::fixed(5)),
    );
    let detect = assay.add_op(
        Operation::new("detect")
            .accessory(Accessory::OpticalSystem)
            .with_duration(Duration::fixed(2)),
    );
    assay.add_dependency(mix, capture).unwrap();
    assay.add_dependency(heat, capture).unwrap();
    assay.add_dependency(capture, wash).unwrap();
    assay.add_dependency(wash, detect).unwrap();
    let run = || {
        Synthesizer::new(
            SynthConfig::builder()
                .solver(mfhls::core::SolverKind::Ilp { max_nodes: 100_000 })
                .build()
                .expect("valid config"),
        )
        .run(&assay)
        .expect("small assay must synthesize with the exact solver")
    };
    let seq = with_threads(1, run);
    let par = with_threads(4, run);
    assert_eq!(
        seq.schedule, par.schedule,
        "ILP schedule differs between 1 and 4 threads"
    );
    assert_eq!(seq.iterations.len(), par.iterations.len());
    for (s, p) in seq.iterations.iter().zip(&par.iterations) {
        assert_eq!(s.exec_time, p.exec_time);
        assert_eq!(s.objective, p.objective);
        assert_eq!(
            s.solver, p.solver,
            "ILP solver stats differ between 1 and 4 threads"
        );
    }
    // The exact path actually ran: every iteration carries ILP work.
    assert!(seq.iterations.iter().all(|it| it.solver.ilp_solves > 0));
    assert!(seq.iterations.iter().all(|it| it.solver.pivots > 0));
}

#[test]
fn layer_cache_is_a_pure_accelerator() {
    for assay in cases() {
        let run = |cache: bool| synthesize(&assay, &SolverKind::default(), cache);
        let cold = run(false);
        let warm = run(true);
        assert_eq!(
            cold.schedule,
            warm.schedule,
            "layer cache changed the schedule for '{}'",
            assay.name()
        );
        assert!(cold.iterations.iter().all(|it| it.cache_hits == 0));
    }
}

#[test]
fn logical_trace_is_thread_count_and_cache_invariant() {
    // The observability layer's determinism contract: the *logical* record
    // stream (spans, layer/iteration events — everything except diagnostics
    // like cache hit/miss records) is identical at any thread count and
    // with the layer cache on or off.
    let assay = mfhls::assays::gene_expression(10);
    let traced = |threads: usize, cache: bool| {
        with_threads(threads, || {
            mfhls::obs::start_capture(mfhls::obs::CaptureConfig::default());
            let result = synthesize(&assay, &SolverKind::default(), cache);
            let trace = mfhls::obs::finish_capture().expect("capture was active");
            (result.schedule, trace)
        })
    };
    let (schedule_1, trace_1) = traced(1, true);
    let (schedule_4, trace_4) = traced(4, true);
    let (schedule_nc, trace_nc) = traced(1, false);
    assert_eq!(schedule_1, schedule_4);
    assert_eq!(schedule_1, schedule_nc);

    let fp_1 = trace_1.logical_fingerprint();
    assert!(
        fp_1.contains("layer_solved") && fp_1.contains("synthesis"),
        "logical fingerprint must cover the pipeline: {fp_1}"
    );
    assert_eq!(
        fp_1,
        trace_4.logical_fingerprint(),
        "logical trace differs between 1 and 4 threads"
    );
    assert_eq!(
        fp_1,
        trace_nc.logical_fingerprint(),
        "logical trace differs between cache on and cache off"
    );
    // With capture active the full JSONL export round-trips the validator.
    let n = mfhls::obs::validate_jsonl(&trace_1.to_jsonl()).expect("exported trace validates");
    assert_eq!(n, trace_1.len());
}

#[test]
fn whole_synthesis_trace_is_thread_count_invariant() {
    // Synthesis runs on the calling thread, so its whole trace — the
    // diagnostic cache hit/miss records included — is identical at any
    // pool size, under the heuristic and the portfolio alike.
    for solver in solvers() {
        for assay in cases() {
            let traced = |threads: usize| {
                with_threads(threads, || {
                    mfhls::obs::start_capture(mfhls::obs::CaptureConfig::default());
                    synthesize(&assay, &solver, true);
                    mfhls::obs::finish_capture()
                        .expect("capture was active")
                        .to_jsonl()
                })
            };
            let (one, four) = (traced(1), traced(4));
            let tag = format!("'{}' under {solver:?}", assay.name());
            assert!(
                one.contains("\"class\":\"diagnostic\""),
                "{tag}: the trace must carry diagnostics"
            );
            assert_eq!(one, four, "{tag}: trace differs between 1 and 4 threads");
        }
    }
}

#[test]
fn fault_run_trace_is_thread_count_invariant() {
    // Fault injection and recovery re-synthesis emit logical events too;
    // the whole narrated run must trace identically at any pool size.
    let assay = mfhls::assays::gene_expression(10);
    let config = SynthConfig::default();
    let result = Synthesizer::new(config.clone())
        .run(&assay)
        .expect("benchmark assay must synthesize");
    let model = DurationModel::GeometricRetry {
        success_probability: 0.53,
        max_attempts: 20,
    };
    let faults = FaultModel::uniform(0.02);
    let policy = RetryPolicy::default();
    let traced = |threads: usize| {
        with_threads(threads, || {
            mfhls::obs::start_capture(mfhls::obs::CaptureConfig::default());
            let run = run_with_recovery(
                &assay,
                &result.schedule,
                &SimConfig { model, seed: 7 },
                &faults,
                &policy,
                &config,
            )
            .expect("fault-injected run must not error");
            let trace = mfhls::obs::finish_capture().expect("capture was active");
            (run.makespan, trace)
        })
    };
    let (makespan_1, trace_1) = traced(1);
    let (makespan_4, trace_4) = traced(4);
    assert_eq!(makespan_1, makespan_4);
    let fp = trace_1.logical_fingerprint();
    assert!(!fp.is_empty(), "fault run must record logical events");
    assert_eq!(fp, trace_4.logical_fingerprint());
}

#[test]
fn simulation_trials_are_thread_count_invariant() {
    let assay = mfhls::assays::gene_expression(10);
    let result = Synthesizer::new(SynthConfig::default())
        .run(&assay)
        .expect("benchmark assay must synthesize");
    let model = DurationModel::GeometricRetry {
        success_probability: 0.53,
        max_attempts: 20,
    };
    let hybrid = |_| trials::run_hybrid_trials(&assay, &result.schedule, model, 32).unwrap();
    assert_eq!(
        with_threads(1, || hybrid(())),
        with_threads(4, || hybrid(()))
    );
    let online =
        |_| trials::run_online_trials(&assay, &result.schedule, model, 32, 2, true).unwrap();
    assert_eq!(
        with_threads(1, || online(())),
        with_threads(4, || online(()))
    );
}

#[test]
fn fault_events_and_survivability_are_thread_count_invariant() {
    let assay = mfhls::assays::gene_expression(10);
    let config = SynthConfig::default();
    let result = Synthesizer::new(config.clone())
        .run(&assay)
        .expect("benchmark assay must synthesize");
    let model = DurationModel::GeometricRetry {
        success_probability: 0.53,
        max_attempts: 20,
    };
    let faults = FaultModel::uniform(0.02);
    let policy = RetryPolicy::default();

    // A single fault-injected run with recovery re-synthesis: the exact
    // fault event sequence must not depend on the pool size.
    let one_run = || {
        run_with_recovery(
            &assay,
            &result.schedule,
            &SimConfig { model, seed: 7 },
            &faults,
            &policy,
            &config,
        )
        .expect("fault-injected run must not error")
    };
    let seq = with_threads(1, one_run);
    let par = with_threads(4, one_run);
    assert_eq!(seq.fault_events, par.fault_events);
    assert_eq!(seq.makespan, par.makespan);
    assert_eq!(seq.completed, par.completed);

    // Monte-Carlo survivability: per-policy statistics (f64 means
    // included) must be bitwise identical — the ordered reduction folds
    // trial records in seed order.
    let survive = || {
        trials::survivability_trials(
            &assay,
            &result.schedule,
            model,
            &faults,
            &policy,
            &config,
            24,
            3.0,
            2,
        )
        .expect("survivability trials must not error")
    };
    assert_eq!(with_threads(1, survive), with_threads(4, survive));
}
