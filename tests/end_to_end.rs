//! Cross-crate integration tests: the full pipeline on the paper's
//! benchmark assays, checking both hard invariants (validation) and the
//! qualitative shape of Table 2.

use mfhls::core::conventional;
use mfhls::sim::{simulate_hybrid, SimConfig};
use mfhls::{SolverKind, SynthConfig, Synthesizer};

#[test]
fn table2_shape_holds() {
    for (case, _, assay) in mfhls::assays::benchmarks() {
        let ours = Synthesizer::new(SynthConfig::default())
            .run(&assay)
            .unwrap_or_else(|e| panic!("case {case} ours: {e}"));
        let conv = conventional::run(&assay, SynthConfig::default())
            .unwrap_or_else(|e| panic!("case {case} conv: {e}"));
        ours.schedule.validate(&assay).unwrap();
        conv.schedule.validate(&assay).unwrap();

        let ours_t = ours.schedule.exec_time(&assay);
        let conv_t = conv.schedule.exec_time(&assay);
        // Same symbolic extras (the layering is duration-driven, identical
        // for both methods).
        assert_eq!(
            ours_t.indeterminate_layers, conv_t.indeterminate_layers,
            "case {case}"
        );
        // Our method is at least as fast...
        assert!(
            ours_t.fixed <= conv_t.fixed,
            "case {case}: ours {} vs conv {}",
            ours_t,
            conv_t
        );
        // ...with no more devices than the budget and no more paths than
        // the baseline (component-oriented consolidation).
        assert!(ours.schedule.used_device_count() <= 25, "case {case}");
        assert!(conv.schedule.used_device_count() <= 25, "case {case}");
        assert!(
            ours.schedule.path_count() <= conv.schedule.path_count(),
            "case {case}: ours {} paths vs conv {}",
            ours.schedule.path_count(),
            conv.schedule.path_count()
        );
    }
}

#[test]
fn layering_matches_paper_structure() {
    // Case 1: no indeterminate ops -> single layer, no I extras.
    let a1 = mfhls::assays::kinase_activity(2);
    let r1 = Synthesizer::new(SynthConfig::default()).run(&a1).unwrap();
    assert_eq!(r1.layering.num_layers(), 1);
    assert!(r1.schedule.exec_time(&a1).indeterminate_layers.is_empty());

    // Case 2: 10 indeterminate (= threshold) -> 2 layers, I1.
    let a2 = mfhls::assays::gene_expression(10);
    let r2 = Synthesizer::new(SynthConfig::default()).run(&a2).unwrap();
    assert_eq!(r2.layering.num_layers(), 2);
    assert_eq!(r2.schedule.exec_time(&a2).indeterminate_layers, vec![1]);

    // Case 3: 20 indeterminate -> 3 layers, I1 + I2.
    let a3 = mfhls::assays::rtqpcr(20);
    let r3 = Synthesizer::new(SynthConfig::default()).run(&a3).unwrap();
    assert_eq!(r3.layering.num_layers(), 3);
    assert_eq!(r3.schedule.exec_time(&a3).indeterminate_layers, vec![1, 2]);
}

#[test]
fn progressive_resynthesis_reports_improvements() {
    let assay = mfhls::assays::rtqpcr(20);
    let r = Synthesizer::new(SynthConfig::default())
        .run(&assay)
        .unwrap();
    assert!(r.iterations.len() >= 2, "re-synthesis should iterate");
    let first = r.iterations[0].exec_time.fixed;
    let best = r.schedule.exec_time(&assay).fixed;
    assert!(best < first, "re-synthesis should improve case 3");
    // The kept schedule is the best of all iterations.
    for it in &r.iterations {
        assert!(best <= it.exec_time.fixed);
    }
}

#[test]
fn dsl_round_trip_synthesises_identically() {
    let assay = mfhls::assays::gene_expression(3);
    let text = mfhls::dsl::to_text(&assay);
    let reparsed = mfhls::dsl::parse(&text).unwrap();
    let a = Synthesizer::new(SynthConfig::default())
        .run(&assay)
        .unwrap();
    let b = Synthesizer::new(SynthConfig::default())
        .run(&reparsed)
        .unwrap();
    assert_eq!(
        a.schedule.exec_time(&assay),
        b.schedule.exec_time(&reparsed)
    );
    assert_eq!(
        a.schedule.used_device_count(),
        b.schedule.used_device_count()
    );
}

#[test]
fn schedules_execute_without_runtime_conflicts() {
    for (case, _, assay) in mfhls::assays::benchmarks() {
        let r = Synthesizer::new(SynthConfig::default())
            .run(&assay)
            .unwrap();
        for seed in 0..5 {
            let sim = simulate_hybrid(
                &assay,
                &r.schedule,
                &SimConfig {
                    seed,
                    ..SimConfig::default()
                },
            )
            .unwrap_or_else(|e| panic!("case {case} seed {seed}: {e}"));
            // Realized makespan is never below the fixed accounting.
            assert!(sim.makespan >= r.schedule.exec_time(&assay).fixed);
        }
    }
}

/// `hybrid` is the `portfolio:heuristic+ilp` race built here.
#[test]
fn hybrid_solver_never_loses_to_heuristic() {
    let mut assay = mfhls::Assay::new("tiny");
    use mfhls::{Duration, Operation};
    let a = assay.add_op(Operation::new("a").with_duration(Duration::fixed(5)));
    let b = assay.add_op(Operation::new("b").with_duration(Duration::fixed(7)));
    let c = assay.add_op(Operation::new("c").with_duration(Duration::fixed(3)));
    assay.add_dependency(a, c).unwrap();
    assay.add_dependency(b, c).unwrap();

    let heur = Synthesizer::new(
        SynthConfig::builder()
            .solver(SolverKind::Heuristic {
                improvement_passes: 2,
            })
            .max_devices(4)
            .build()
            .unwrap(),
    )
    .run(&assay)
    .unwrap();
    let hybrid = Synthesizer::new(
        SynthConfig::builder()
            .solver(SolverKind::Portfolio {
                backends: vec![
                    SolverKind::Heuristic {
                        improvement_passes: 2,
                    },
                    SolverKind::Ilp { max_nodes: 100_000 },
                ],
            })
            .max_devices(4)
            .build()
            .unwrap(),
    )
    .run(&assay)
    .unwrap();
    hybrid.schedule.validate(&assay).unwrap();
    assert!(
        hybrid.final_stats().objective <= heur.final_stats().objective,
        "hybrid {} vs heuristic {}",
        hybrid.final_stats().objective,
        heur.final_stats().objective
    );
}

#[test]
fn netlist_and_layout_are_consistent_with_schedule() {
    let assay = mfhls::assays::kinase_activity(2);
    let r = Synthesizer::new(SynthConfig::default())
        .run(&assay)
        .unwrap();
    let netlist = r.schedule.to_netlist(&assay);
    assert_eq!(netlist.devices().len(), r.schedule.devices.len());
    assert_eq!(netlist.path_count(), r.schedule.path_count());
    let layout = mfhls::chip::layout::place(&netlist);
    for (key, _) in netlist.paths() {
        assert!(layout.path_length(key).is_some(), "path {key} unplaced");
    }
}

#[test]
fn benchmark_chips_fit_a_large_die() {
    use mfhls::chip::{control::ControlModel, floorplan, CostModel};
    // |D| = 25 worst case: 25 medium rings with all accessories is the
    // upper envelope; the synthesized chips must stay well under a large
    // die spec.
    let spec = floorplan::ChipSpec {
        max_area: 1500,
        max_ports: 220,
        ..floorplan::ChipSpec::default()
    };
    for (case, _, assay) in mfhls::assays::benchmarks() {
        let r = Synthesizer::new(SynthConfig::default())
            .run(&assay)
            .unwrap();
        let netlist = r.schedule.to_netlist(&assay);
        let report = floorplan::check(
            &netlist,
            &spec,
            &CostModel::default(),
            &ControlModel::default(),
        );
        assert!(report.fits, "case {case}: {report}");
        // Sanity: area accounting matches the device list.
        let sum: u64 = r
            .schedule
            .devices
            .iter()
            .map(|d| CostModel::default().device_area(d))
            .sum();
        assert_eq!(report.device_area, sum, "case {case}");
    }
}

#[test]
fn committed_protocol_files_match_generators() {
    // protocols/benchmarks/*.mfa are generated artifacts
    // (`cargo run -p mfhls-bench --bin gen_protocols`); they must stay in
    // sync with the canonical assay generators.
    for (file, assay) in [
        ("case1_kinase.mfa", mfhls::assays::kinase_activity(2)),
        (
            "case2_gene_expression.mfa",
            mfhls::assays::gene_expression(10),
        ),
        ("case3_rtqpcr.mfa", mfhls::assays::rtqpcr(20)),
        ("bonus_cell_culture.mfa", mfhls::assays::cell_culture(4, 3)),
    ] {
        let path = format!("protocols/benchmarks/{file}");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{path}: {e} (run gen_protocols)"));
        assert_eq!(
            text,
            mfhls::dsl::to_text(&assay),
            "{path} is stale; regenerate with gen_protocols"
        );
        let parsed = mfhls::dsl::parse(&text).unwrap();
        assert_eq!(parsed.len(), assay.len());
        assert_eq!(
            parsed.dependencies().collect::<Vec<_>>().len(),
            assay.dependencies().collect::<Vec<_>>().len()
        );
    }
}

#[test]
fn conventional_schedules_also_validate_component_rules() {
    // Signature-class binding is strictly more restrictive, so conventional
    // schedules must pass the component-oriented validator too.
    for (_, _, assay) in mfhls::assays::benchmarks() {
        let conv = conventional::run(&assay, SynthConfig::default()).unwrap();
        conv.schedule.validate(&assay).unwrap();
    }
}

#[test]
fn faultsim_recovers_from_seeded_device_failures() {
    use mfhls::core::recovery::{resynthesize_suffix, RetryPolicy};
    use mfhls::sim::{run_with_recovery, DurationModel, FaultModel, ForcedFailure, RunOutcome};
    use std::collections::BTreeSet;

    let text = std::fs::read_to_string("protocols/single_cell_screen.mfa").unwrap();
    let assay = mfhls::dsl::parse(&text).unwrap();
    let config = SynthConfig::default();
    let result = Synthesizer::new(config.clone()).run(&assay).unwrap();
    let schedule = &result.schedule;
    schedule.validate(&assay).unwrap();
    let cfg = SimConfig {
        model: DurationModel::GeometricRetry {
            success_probability: 0.53,
            max_attempts: 20,
        },
        seed: 42,
    };
    let policy = RetryPolicy::default();

    // Faults disabled: the fault-aware engine reproduces the plain hybrid
    // simulation exactly.
    let base = simulate_hybrid(&assay, schedule, &cfg).unwrap();
    let clean = run_with_recovery(
        &assay,
        schedule,
        &cfg,
        &FaultModel::none(),
        &policy,
        &config,
    )
    .unwrap();
    assert_eq!(clean.makespan, base.makespan);
    assert!(matches!(clean.outcome, RunOutcome::Completed));
    assert_eq!(clean.resyntheses, 0);
    assert!(clean.fault_events.is_empty());

    // Force each device to fail at the first boundary in turn: every run
    // either recovers (completing all ops without ever using the dead
    // device) or degrades gracefully because the sole host of a device
    // class was lost. At least one device must be survivable.
    let mut survived = 0usize;
    for dead in 0..schedule.devices.len() {
        let faults = FaultModel {
            forced_failures: vec![ForcedFailure {
                device: dead,
                layer: 0,
            }],
            ..FaultModel::none()
        };
        let run = run_with_recovery(&assay, schedule, &cfg, &faults, &policy, &config).unwrap();
        match run.outcome {
            RunOutcome::Completed => {
                assert!(run.resyntheses >= 1, "d{dead}: recovery must re-synthesize");
                assert!(
                    run.events.iter().all(|e| e.device != dead),
                    "d{dead}: a completed op ran on the quarantined device"
                );
                assert_eq!(run.completed.len(), assay.len());
                survived += 1;
            }
            RunOutcome::Degraded(report) => {
                assert!(!report.reason.is_empty());
            }
        }
    }
    assert!(survived > 0, "no single-device failure is survivable");

    // The recovered schedule itself validates and avoids the quarantine.
    let dead: BTreeSet<usize> = [8].into_iter().collect();
    let plan = resynthesize_suffix(&assay, schedule, &BTreeSet::new(), &dead, &config).unwrap();
    plan.schedule.validate(&plan.assay).unwrap();
    assert!(!plan.uses_quarantined());
    assert_eq!(plan.schedule.devices, schedule.devices, "no renumbering");
}

#[test]
fn faultsim_survivability_ranks_recovery_above_offline() {
    use mfhls::core::recovery::RetryPolicy;
    use mfhls::sim::{trials, DurationModel, FaultModel};

    let text = std::fs::read_to_string("protocols/single_cell_screen.mfa").unwrap();
    let assay = mfhls::dsl::parse(&text).unwrap();
    let config = SynthConfig::default();
    let result = Synthesizer::new(config.clone()).run(&assay).unwrap();
    let stats = trials::survivability_trials(
        &assay,
        &result.schedule,
        DurationModel::Exact,
        &FaultModel::uniform(0.01),
        &RetryPolicy::default(),
        &config,
        100,
        3.0,
        2,
    )
    .unwrap();
    assert_eq!(stats.len(), 3, "three policies reported");
    let hybrid = &stats[0];
    let padded = &stats[1];
    assert_eq!(hybrid.policy, "hybrid+recovery");
    assert!(hybrid.completion_rate >= padded.completion_rate);
    for st in &stats {
        assert_eq!(st.trials, 100);
        assert!(st.mean_completed_fraction >= st.completion_rate);
    }
}
