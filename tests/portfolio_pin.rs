//! The paper-scale portfolio pins: `portfolio:heuristic+sdc+ilp` on the
//! 120-op single-cell RT-qPCR assay (case 3 of Table 2), and on the two
//! generated assays whose layers admit the exact leg (it wins on one).
//!
//! A whole-assay `--solver ilp` synthesis is intractable on case 3 — on
//! the assay's 40-60-op layers branch-and-bound exhausts any budget
//! without an integer-feasible incumbent (measured: a 2 000-node budget
//! burns minutes and then errors) — so the exec-time pin is taken against
//! the heuristic baseline the race can only improve on, and exactness is
//! covered per layer by `sdc_parity` (the race returns the
//! proven-optimal solution wherever one is computable). What this file
//! pins:
//!
//! 1. the race completes on the 120-op assay and never regresses the
//!    heuristic's execution time (golden value from the committed
//!    `bench/trajectory/` points);
//! 2. the exact legs sit out every case-3 layer: the big layers exceed
//!    the op limit, and the pivot-work budget affords the remaining
//!    models fewer pivots than they have rows, so no leg is even built;
//! 3. on `gen-small-1` an exact leg is admitted and adopted, improving
//!    the heuristic's quality, and on `gen-small-2` every layer's exact
//!    leg runs and loses; on both, the exact legs' node, pivot and
//!    warm/cold solve counts are pinned, because they repeat only if
//!    every simplex pivot does;
//! 4. schedules and solver counters are byte-identical at 1 vs 4
//!    threads — the ILP legs' deterministic pivot-work budget is what
//!    makes bounded exact racing reproducible — and the race accounting
//!    (`portfolio_races`, `wins_*`) balances over a whole synthesis.

use mfhls::bench::gen::{self, Profile};
use mfhls::core::{Assay, SolverKind, SolverStats, SynthConfig, SynthesisResult, Synthesizer};
use mfhls::par::with_threads;

/// The spec-default race: what `--solver portfolio:heuristic+sdc+ilp`
/// resolves to (the ILP leg gets the bounded in-race node budget).
fn race() -> SolverKind {
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
    }
}

fn run(assay: &Assay, solver: SolverKind) -> SynthesisResult {
    Synthesizer::new(
        SynthConfig::builder()
            .solver(solver)
            .build()
            .expect("valid config"),
    )
    .run(assay)
    .expect("the assay must synthesize")
}

/// Fixed exec time, used devices and paths: the paper's Table 2 columns.
fn quality(assay: &Assay, result: &SynthesisResult) -> (u64, usize, usize) {
    (
        result.schedule.exec_time(assay).fixed,
        result.schedule.used_device_count(),
        result.schedule.path_count(),
    )
}

/// Solver counters summed over every re-synthesis iteration.
fn all_iterations(result: &SynthesisResult) -> SolverStats {
    let mut total = SolverStats::default();
    for it in &result.iterations {
        total.merge(&it.solver);
    }
    total
}

/// The exact legs' search effort: (`nodes`, `pivots`, `warm_solves`,
/// `cold_solves`). These repeat only if every simplex pivot does, so a
/// pin on them witnesses that a change to the LP engine's arithmetic
/// layout left each pivot bit-identical.
fn exact_work(total: &SolverStats) -> (u64, u64, u64, u64) {
    (
        total.nodes,
        total.pivots,
        total.warm_solves,
        total.cold_solves,
    )
}

/// The race is byte-identical at 1 vs 4 threads, schedule and counters.
fn assert_thread_invariant(assay: &Assay, one: &SynthesisResult) {
    let four = with_threads(4, || run(assay, race()));
    assert_eq!(
        one.schedule, four.schedule,
        "portfolio schedule differs between 1 and 4 threads"
    );
    let solver = |r: &SynthesisResult| r.iterations.iter().map(|it| it.solver).collect::<Vec<_>>();
    assert_eq!(
        solver(one),
        solver(&four),
        "portfolio solver counters differ between 1 and 4 threads"
    );
}

#[test]
fn portfolio_race_matches_heuristic_exec_on_the_120_op_assay() {
    let assay = mfhls::assays::rtqpcr(20);
    assert_eq!(assay.len(), 120, "case 3 changed size");
    let run = |solver: SolverKind| run(&assay, solver);
    let heur = run(SolverKind::Heuristic {
        improvement_passes: 2,
    });
    let port = with_threads(1, || run(race()));

    port.schedule
        .validate(&assay)
        .expect("portfolio schedule must satisfy every paper constraint");
    let heur_exec = heur.schedule.exec_time(&assay);
    let port_exec = port.schedule.exec_time(&assay);
    // The race adopts a non-heuristic leg only when it strictly improves
    // the layer objective, so the portfolio can never lose to the
    // heuristic baseline; today the two coincide (274 min fixed, the
    // committed trajectory value).
    assert!(
        port_exec.fixed <= heur_exec.fixed,
        "race regressed the heuristic: {} > {}",
        port_exec.fixed,
        heur_exec.fixed
    );
    assert_eq!(port_exec.fixed, 274, "golden case-3 exec time moved");

    // Whole-synthesis race accounting: every layer of every iteration
    // raced once, and the adopted counters absorbed the work of every leg
    // that ran. No exact leg ran: the layers past the op limit sit out,
    // and the pivot-work budget affords each remaining layer's model
    // fewer pivots than it has rows, so none is even built.
    let total = all_iterations(&port);
    assert!(total.portfolio_races > 0, "no races recorded");
    assert_eq!(
        total.wins_heuristic + total.wins_sdc + total.wins_ilp,
        total.portfolio_races,
        "race accounting out of balance"
    );
    assert!(total.sdc_solves > 0, "sdc leg never ran");
    assert_eq!(total.ilp_solves, 0, "an exact leg ran past the size gates");
    assert_eq!(total.pivots, 0, "a skipped exact leg reported pivot work");

    // Thread-count invariance at paper scale.
    assert_thread_invariant(&assay, &port);
}

/// Races `gen-small-<seed>`, whose small layers pass both size gates,
/// and pins its quality, its summed (`portfolio_races`, `wins_ilp`,
/// `ilp_solves`) and its exact legs' search effort; the race must be
/// thread-count invariant.
fn assert_gen_small_race(
    seed: u64,
    expected_quality: (u64, usize, usize),
    races: (u64, u64, u64),
    work: (u64, u64, u64, u64),
) {
    let assay = gen::generate(Profile::Small, seed);
    let port = with_threads(1, || run(&assay, race()));
    port.schedule
        .validate(&assay)
        .expect("portfolio schedule must satisfy every paper constraint");
    assert_eq!(
        quality(&assay, &port),
        expected_quality,
        "the portfolio's result on gen-small-{seed} moved"
    );
    let total = all_iterations(&port);
    assert_eq!(
        total.wins_heuristic + total.wins_sdc + total.wins_ilp,
        total.portfolio_races,
        "race accounting out of balance"
    );
    assert_eq!(
        (total.portfolio_races, total.wins_ilp, total.ilp_solves),
        races,
        "exact-leg admission or adoption on gen-small-{seed} moved"
    );
    assert_eq!(
        exact_work(&total),
        work,
        "the exact legs' search on gen-small-{seed} moved"
    );
    assert_thread_invariant(&assay, &port);
}

#[test]
fn the_exact_leg_races_and_wins_on_gen_small_1() {
    let assay = gen::generate(Profile::Small, 1);
    let heur = run(
        &assay,
        SolverKind::Heuristic {
            improvement_passes: 2,
        },
    );
    assert_eq!(
        quality(&assay, &heur),
        (128, 4, 5),
        "heuristic baseline moved"
    );
    // The exact legs run on every race, and one of them is adopted,
    // improving on the heuristic.
    assert_gen_small_race(1, (123, 3, 3), (9, 1, 9), (13, 218, 27, 9));
}

#[test]
fn the_exact_legs_race_and_lose_on_gen_small_2() {
    // Every layer admits an exact leg, and none of them beats the cheap
    // legs: the exact work is spent without an adoption.
    assert_gen_small_race(2, (63, 2, 1), (3, 0, 3), (13, 348, 20, 3));
}
