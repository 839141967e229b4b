//! Ablation C: the exact ILP back-end vs the heuristic layer solver on
//! small random single-layer problems — optimality gap and runtime.
//!
//! ```text
//! cargo run --release -p mfhls-bench --bin ablation_ilp
//! ```
//!
//! Expectation: the heuristic's objective matches or stays within a small
//! factor of the exact back-end's (the `portfolio:heuristic+ilp` race: the
//! heuristic, then branch-and-bound cut off at its objective under the
//! `PORTFOLIO_ILP_PIVOT_WORK` budget), while exact runtimes grow quickly
//! with layer size — which is why large layers run the heuristic.

use mfhls_assays::{random_assay, RandomAssayParams};
use mfhls_bench::print_table;
use mfhls_core::{SolverKind, SynthConfig, Synthesizer};

fn main() {
    println!("Ablation C: exact ILP vs heuristic on small layers\n");
    let mut rows = Vec::new();
    for ops in [3usize, 4, 5, 6, 7] {
        let mut gap_sum = 0.0;
        let mut worst_gap: f64 = 0.0;
        let mut ilp_time = std::time::Duration::ZERO;
        let mut heur_time = std::time::Duration::ZERO;
        let mut samples = 0u32;
        for seed in 0..6u64 {
            let assay = random_assay(
                seed,
                RandomAssayParams {
                    ops,
                    edge_probability: 0.2,
                    indeterminate_fraction: 0.0, // single-layer problems
                    max_duration: 20,
                },
            );
            let ilp = Synthesizer::new(
                SynthConfig::builder()
                    .solver(SolverKind::Portfolio {
                        backends: vec![
                            SolverKind::Heuristic {
                                improvement_passes: 2,
                            },
                            SolverKind::Ilp { max_nodes: 400_000 },
                        ],
                    })
                    .max_devices(6)
                    .max_iterations(1)
                    .build()
                    .expect("valid config"),
            )
            .run(&assay);
            let heur = Synthesizer::new(
                SynthConfig::builder()
                    .solver(SolverKind::Heuristic {
                        improvement_passes: 2,
                    })
                    .max_devices(6)
                    .max_iterations(1)
                    .build()
                    .expect("valid config"),
            )
            .run(&assay)
            .expect("heuristic always succeeds");
            let Ok(ilp) = ilp else {
                continue; // solver budget exceeded; skip the sample
            };
            let exact = ilp.iterations[0].objective as f64;
            let approx = heur.iterations[0].objective as f64;
            let gap = if exact > 0.0 {
                (approx - exact) / exact * 100.0
            } else {
                0.0
            };
            gap_sum += gap.max(0.0);
            worst_gap = worst_gap.max(gap);
            ilp_time += ilp.runtime;
            heur_time += heur.runtime;
            samples += 1;
        }
        if samples == 0 {
            continue;
        }
        rows.push(vec![
            ops.to_string(),
            samples.to_string(),
            format!("{:.1}%", gap_sum / samples as f64),
            format!("{:.1}%", worst_gap),
            format!("{:.1?}", ilp_time / samples),
            format!("{:.1?}", heur_time / samples),
        ]);
    }
    print_table(
        &[
            "layer ops",
            "samples",
            "avg gap",
            "worst gap",
            "ILP time",
            "heuristic time",
        ],
        &rows,
    );
    println!(
        "\n(gap = heuristic objective vs the portfolio:heuristic+ilp race; same weights, |D| = 6)"
    );
}
