//! Golden regression tests: the whole pipeline is deterministic, so the
//! benchmark metrics are pinned exactly. If an intentional algorithm
//! change shifts these numbers, update them *and* re-check the Table 2/3
//! shape in `EXPERIMENTS.md` (ours faster than conventional, fewer paths,
//! same layering structure).

use mfhls::core::conventional;
use mfhls::{SynthConfig, Synthesizer};

struct Golden {
    case: usize,
    ours_exec: &'static str,
    ours_devices: usize,
    ours_paths: usize,
    conv_exec: &'static str,
    conv_devices: usize,
    conv_paths: usize,
    /// Per-iteration `(heuristic_rounds, rebind_adoptions)` of the default
    /// synthesis: the heuristic's search path, which reaches response
    /// bytes, store records and `layer_solved` events.
    ours_rebinding: &'static [(u64, u64)],
}

const GOLDEN: &[Golden] = &[
    Golden {
        case: 1,
        ours_exec: "110m",
        ours_devices: 5,
        ours_paths: 5,
        conv_exec: "119m",
        conv_devices: 13,
        conv_paths: 12,
        ours_rebinding: &[(1, 0), (1, 0), (1, 0)],
    },
    Golden {
        case: 2,
        ours_exec: "118m+I1",
        ours_devices: 25,
        ours_paths: 31,
        conv_exec: "145m+I1",
        conv_devices: 25,
        conv_paths: 37,
        ours_rebinding: &[(3, 5), (3, 3), (2, 0)],
    },
    Golden {
        case: 3,
        ours_exec: "274m+I1+I2",
        ours_devices: 25,
        ours_paths: 32,
        conv_exec: "332m+I1+I2",
        conv_devices: 25,
        conv_paths: 37,
        ours_rebinding: &[(5, 15), (5, 14), (5, 6)],
    },
];

#[test]
fn benchmark_metrics_are_pinned() {
    let cases = mfhls::assays::benchmarks();
    for golden in GOLDEN {
        let (_, _, assay) = cases
            .iter()
            .find(|(c, _, _)| *c == golden.case)
            .expect("case exists");
        let ours = Synthesizer::new(SynthConfig::default()).run(assay).unwrap();
        let conv = conventional::run(assay, SynthConfig::default()).unwrap();
        assert_eq!(
            ours.schedule.exec_time(assay).to_string(),
            golden.ours_exec,
            "case {} ours exec",
            golden.case
        );
        assert_eq!(
            ours.schedule.used_device_count(),
            golden.ours_devices,
            "case {} ours devices",
            golden.case
        );
        assert_eq!(
            ours.schedule.path_count(),
            golden.ours_paths,
            "case {} ours paths",
            golden.case
        );
        let rebinding: Vec<(u64, u64)> = ours
            .iterations
            .iter()
            .map(|it| (it.solver.heuristic_rounds, it.solver.rebind_adoptions))
            .collect();
        assert_eq!(
            rebinding, golden.ours_rebinding,
            "case {} ours per-iteration (heuristic_rounds, rebind_adoptions)",
            golden.case
        );
        assert_eq!(
            conv.schedule.exec_time(assay).to_string(),
            golden.conv_exec,
            "case {} conv exec",
            golden.case
        );
        assert_eq!(
            conv.schedule.used_device_count(),
            golden.conv_devices,
            "case {} conv devices",
            golden.case
        );
        assert_eq!(
            conv.schedule.path_count(),
            golden.conv_paths,
            "case {} conv paths",
            golden.case
        );
    }
}

#[test]
fn table3_trajectory_is_pinned() {
    // Case 2's iteration trail: a >10% first-iteration gain triggers a
    // second iteration, which gains <10% and stops the loop.
    let assay = mfhls::assays::gene_expression(10);
    let r = Synthesizer::new(SynthConfig::default())
        .run(&assay)
        .unwrap();
    let execs: Vec<u64> = r.iterations.iter().map(|it| it.exec_time.fixed).collect();
    assert_eq!(execs, vec![148, 118, 119]);
    // The adopted schedule is the best iteration, not the last.
    assert_eq!(r.schedule.exec_time(&assay).fixed, 118);
}

#[test]
fn dsl_printer_output_is_pinned() {
    use mfhls::{Duration, Operation};
    let mut a = mfhls::Assay::new("golden");
    let x = a.add_op(
        Operation::new("mix")
            .container(mfhls::chip::ContainerKind::Ring)
            .capacity(mfhls::chip::Capacity::Medium)
            .accessory(mfhls::chip::Accessory::Pump)
            .with_duration(Duration::fixed(10)),
    );
    let y = a.add_op(Operation::new("capture").with_duration(Duration::at_least(3)));
    a.add_dependency(x, y).unwrap();
    let expected = r#"assay "golden"

op o0 "mix" {
    container: ring
    capacity: medium
    accessories: [pump]
    duration: 10m
}

op o1 "capture" {
    duration: >= 3m
    after: [o0]
}
"#;
    assert_eq!(mfhls::dsl::to_text(&a), expected);
}
