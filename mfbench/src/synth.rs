//! The synthesis workloads: `Synthesizer::run` on fixed assays, and the
//! replay of its first pass through the public per-layer functions.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use mfhls_bench::gen::{generate, Profile};
use mfhls_core::ilp_model::IlpLayerSolver;
use mfhls_core::{
    layer_assay, skeleton_makespan, Assay, CanonicalLayerKey, CoreError, LayerKey, LayerProblem,
    LayerSolution, LayerSolver, Operation, SolverKind, SolverStats, SynthConfig, SynthesisResult,
    Synthesizer, TransportTimes, PORTFOLIO_ILP_OP_LIMIT, PORTFOLIO_ILP_PIVOT_WORK,
};
use mfhls_graph::rng::SplitMix64;

use crate::calib;
use crate::spans::Spans;

/// One benchmark input.
pub struct Input {
    /// Stable name, used in rows and quality tables.
    pub name: &'static str,
    /// The assay, with op names relabelled by the seed.
    pub assay: Assay,
}

/// Fixed exec time (minutes), used devices and transport paths of one
/// input's synthesized schedule.
pub type Quality = (u64, usize, usize);

/// The `synth-heuristic` inputs: the paper's three cases and six
/// generator assays at fixed generator seeds (the committed corpus's).
///
/// Per-assay cost varies tenfold across generator seeds, which would
/// swamp any regression bound, so the assays are fixed and `seed` only
/// relabels operations (names never reach the solver) and orders runs.
pub fn heuristic_inputs(seed: u64) -> Vec<Input> {
    let mut inputs = paper_cases(seed);
    for (name, profile, gen_seed) in [
        ("gen-large-1", Profile::Large, 1),
        ("gen-large-2", Profile::Large, 2),
        ("gen-medium-1", Profile::Medium, 1),
        ("gen-deep-chain-1", Profile::DeepChain, 1),
        ("gen-wide-fanout-1", Profile::WideFanout, 1),
        ("gen-indeterminate-heavy-1", Profile::IndeterminateHeavy, 1),
    ] {
        inputs.push(Input {
            name,
            assay: relabel(&generate(profile, gen_seed), seed),
        });
    }
    inputs
}

/// The `synth-portfolio` inputs: the paper's three cases and two small
/// generator assays, fixed for the same reason as [`heuristic_inputs`].
pub fn portfolio_inputs(seed: u64) -> Vec<Input> {
    let mut inputs = paper_cases(seed);
    for (name, gen_seed) in [("gen-small-1", 1), ("gen-small-2", 2)] {
        inputs.push(Input {
            name,
            assay: relabel(&generate(Profile::Small, gen_seed), seed),
        });
    }
    inputs
}

fn paper_cases(seed: u64) -> Vec<Input> {
    mfhls_assays::benchmarks()
        .into_iter()
        .zip(["case1", "case2", "case3"])
        .map(|((_, _, assay), name)| Input {
            name,
            assay: relabel(&assay, seed),
        })
        .collect()
}

/// The portfolio `mfhls synth --solver portfolio:heuristic+sdc+ilp` runs.
pub fn portfolio_solver() -> SolverKind {
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

/// The configuration of a synthesis workload.
pub fn config(portfolio: bool, layer_cache: bool) -> SynthConfig {
    let mut builder = SynthConfig::builder().layer_cache(layer_cache);
    if portfolio {
        builder = builder.solver(portfolio_solver());
    }
    builder.build().expect("benchmark configurations are valid")
}

/// The same assay with every op name (and the assay name) tagged by
/// `seed`; structure, requirements and durations are untouched.
fn relabel(assay: &Assay, seed: u64) -> Assay {
    let tag = format!(
        "{:04x}",
        SplitMix64::seed_from_u64(seed).next_u64() & 0xffff
    );
    let mut out = Assay::new(&format!("{}@{tag}", assay.name()));
    for (_, op) in assay.iter() {
        out.add_op(
            Operation::new(&format!("{}@{tag}", op.name()))
                .requirements_from(*op.requirements())
                .with_duration(op.duration()),
        );
    }
    for (p, c) in assay.dependencies() {
        out.add_dependency(p, c).expect("same DAG");
    }
    out
}

/// Quality of a result: the paper's Table 2 columns.
fn quality(assay: &Assay, result: &SynthesisResult) -> Quality {
    (
        result.schedule.exec_time(assay).fixed,
        result.schedule.used_device_count(),
        result.schedule.path_count(),
    )
}

/// Samples of the timed phase.
pub struct Timed {
    /// Wall time of each run scaled to the reference speed (see
    /// [`crate::calib`]), milliseconds, per input.
    pub samples_ms: Vec<Vec<f64>>,
    /// The first result of each input; every later sample must equal it.
    pub first: Vec<Option<SynthesisResult>>,
    /// Runs started.
    pub attempted: u64,
    /// Runs that errored or whose schedule differed from the input's
    /// first.
    pub failed: u64,
    /// Calibration points taken, one per cycle, milliseconds.
    pub kernel_ms: Vec<f64>,
}

impl Timed {
    /// An empty phase for `n` inputs.
    pub fn new(n: usize) -> Timed {
        Timed {
            samples_ms: vec![Vec::new(); n],
            first: vec![None; n],
            attempted: 0,
            failed: 0,
            kernel_ms: Vec::new(),
        }
    }

    /// Successful runs per second of scaled run time.
    pub fn throughput(&self) -> f64 {
        let runs: usize = self.samples_ms.iter().map(Vec::len).sum();
        let busy_ms: f64 = self.samples_ms.iter().flatten().sum();
        runs as f64 * 1e3 / busy_ms
    }

    /// Median run time of each input, milliseconds.
    pub fn medians_ms(&self) -> Vec<f64> {
        self.samples_ms
            .iter()
            .map(|s| crate::stats::median(s).unwrap_or(0.0))
            .collect()
    }
}

/// Runs every input once per cycle, in a seeded order, until `seconds`
/// have passed and at least `min_cycles` cycles completed; the phase
/// always ends on a cycle boundary, so every input weighs the same. A run
/// is scaled by a calibration point at most [`calib::POINT_SPAN`] old,
/// taken before it. With `spans`, each run is wrapped in a `synth.run`
/// span.
pub fn run_timed(
    inputs: &[Input],
    config: &SynthConfig,
    seconds: f64,
    min_cycles: usize,
    rng: &mut SplitMix64,
    timed: &mut Timed,
    mut spans: Option<&mut Spans>,
) {
    let synthesizer = Synthesizer::new(config.clone());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    let mut cycles = 0;
    let mut point: Option<(Instant, f64)> = None;
    while cycles < min_cycles || Instant::now() < deadline {
        shuffle(&mut order, rng);
        for &i in &order {
            let kernel_ms = match point {
                Some((at, kernel_ms)) if at.elapsed() < calib::POINT_SPAN => kernel_ms,
                _ => {
                    let kernel_ms = calib::measure();
                    timed.kernel_ms.push(kernel_ms);
                    point = Some((Instant::now(), kernel_ms));
                    kernel_ms
                }
            };
            timed.attempted += 1;
            let t0 = Instant::now();
            let outcome = match spans.as_deref_mut() {
                Some(s) => s.time_with_id("synth.run", Some(i as u64), |_| {
                    synthesizer.run(&inputs[i].assay)
                }),
                None => synthesizer.run(&inputs[i].assay),
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let Ok(result) = std::hint::black_box(outcome) else {
                timed.failed += 1;
                continue;
            };
            timed.samples_ms[i].push(ms * calib::factor(kernel_ms));
            match &timed.first[i] {
                Some(first) if first.schedule != result.schedule => timed.failed += 1,
                Some(_) => {}
                None => timed.first[i] = Some(result),
            }
        }
        cycles += 1;
    }
}

fn shuffle(v: &mut [usize], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_index(0, i + 1));
    }
}

/// The untimed output checks: every input has a result, a cache-off run
/// reproduces it exactly, and the quality sums are no worse than
/// `expected`. Returns the number of failed checks and notes: one per
/// failure, and the quality sums.
pub fn check(
    inputs: &[Input],
    portfolio: bool,
    timed: &Timed,
    expected: Quality,
) -> (u64, Vec<String>) {
    let cache_off = Synthesizer::new(config(portfolio, false));
    let mut failed = 0;
    let mut notes = Vec::new();
    let mut sums = (0, 0, 0);
    for (input, first) in inputs.iter().zip(&timed.first) {
        let Some(first) = first else {
            failed += 1;
            notes.push(format!("{}: no successful run", input.name));
            continue;
        };
        let (exec, devices, paths) = quality(&input.assay, first);
        sums = (sums.0 + exec, sums.1 + devices, sums.2 + paths);
        match cache_off.run(&input.assay) {
            Ok(r) if r.schedule == first.schedule => {}
            Ok(_) => {
                failed += 1;
                notes.push(format!("{}: cache-off schedule differs", input.name));
            }
            Err(e) => {
                failed += 1;
                notes.push(format!("{}: cache-off run failed: {e}", input.name));
            }
        }
    }
    let worse = sums.0 > expected.0 || sums.1 > expected.1 || sums.2 > expected.2;
    failed += u64::from(worse);
    notes.push(format!(
        "quality sums (exec, devices, paths) {sums:?}{}",
        if worse {
            format!(", worse than {expected:?}")
        } else {
            String::new()
        }
    ));
    (failed, notes)
}

/// The program's own counters, summed over finished runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunCounters {
    /// Solver work of every pass (`IterationStats::solver`).
    pub solver: SolverStats,
    /// Layer-cache hits of any class.
    pub cache_hits: u64,
    /// The canonical-index share of `cache_hits`.
    pub cache_canonical_hits: u64,
    /// Layer-cache misses.
    pub cache_misses: u64,
    /// Re-synthesis passes.
    pub passes: u64,
}

impl RunCounters {
    /// Adds one run's counters.
    pub fn add(&mut self, result: &SynthesisResult) {
        for it in &result.iterations {
            self.solver.merge(&it.solver);
            self.cache_hits += it.cache_hits;
            self.cache_canonical_hits += it.cache_canonical_hits;
            self.cache_misses += it.cache_misses;
        }
        self.passes += result.iterations.len() as u64;
    }
}

/// Work counters of a first-pass replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Layers replayed.
    pub layers: u64,
    /// Layers where the first cheap backend's makespan equals the SDC
    /// skeleton's lower bound, so a certificate could skip the others.
    pub certifiable_layers: u64,
    /// ILP legs whose solution the race adopted.
    pub ilp_adopted: u64,
    /// Simplex pivots of the ILP legs, adopted or not.
    pub lp_pivots: u64,
}

impl ReplayCounts {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &ReplayCounts) {
        self.layers += other.layers;
        self.certifiable_layers += other.certifiable_layers;
        self.ilp_adopted += other.ilp_adopted;
        self.lp_pivots += other.lp_pivots;
    }
}

/// A replayed first pass: each layer's `(op, start, duration)` slots in
/// the order `LayerSchedule` keeps them, and the work it counted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pass1 {
    /// Slots per layer.
    pub layers: Vec<Vec<(usize, u64, u64)>>,
    /// Work counters.
    pub counts: ReplayCounts,
}

/// Rebuilds `Synthesizer::run`'s first pass from outside, the way
/// `synthesize_once` runs it with no previous pass, no seed devices and
/// no cache: it
/// layers the assay, estimates transport, and solves each layer's
/// `LayerProblem` with every backend the configured solver races,
/// adopting results by the portfolio's rule (first strictly improving in
/// listed order; ILP legs last, gated by [`PORTFOLIO_ILP_OP_LIMIT`] and
/// [`PORTFOLIO_ILP_PIVOT_WORK`], cut off at the best cheap objective).
/// Each call into the program runs inside a span named after its layer.
///
/// # Errors
///
/// Whatever the program's functions return, and [`CoreError::Config`]
/// for solvers other than the heuristic and the portfolio.
pub fn replay_pass1(
    assay: &Assay,
    config: &SynthConfig,
    spans: &mut Spans,
) -> Result<Pass1, CoreError> {
    let backends: Vec<SolverKind> = match &config.solver {
        SolverKind::Portfolio { backends } => backends.clone(),
        heuristic @ SolverKind::Heuristic { .. } => vec![heuristic.clone()],
        other => {
            return Err(CoreError::Config(format!(
                "the replay covers the heuristic and portfolio solvers, not {other:?}"
            )))
        }
    };
    let solver_fp = format!("{:?}", config.solver);
    let layering = spans.time("core.layering", |_| {
        layer_assay(assay, config.indeterminate_threshold)
    })?;
    let transport = spans.time("core.transport", |_| {
        TransportTimes::initial(assay, &config.transport)
    });
    let mut devices = Vec::new();
    let mut paths = BTreeSet::new();
    let mut device_of: Vec<Option<usize>> = vec![None; assay.len()];
    let mut pass = Pass1 {
        layers: Vec::with_capacity(layering.num_layers()),
        counts: ReplayCounts::default(),
    };
    for (li, layer_ops) in layering.layers().iter().enumerate() {
        let mut cross_inputs = Vec::new();
        for (p, c) in assay.dependencies() {
            if layering.layer_of(c) == li && layering.layer_of(p) < li {
                let pd = device_of[p.index()].ok_or_else(|| {
                    CoreError::Internal(format!("parent o{} not yet placed", p.index()))
                })?;
                cross_inputs.push((c, pd));
            }
        }
        let problem = LayerProblem {
            assay,
            ops: layer_ops.clone(),
            bindable: vec![true; devices.len()],
            devices: devices.clone(),
            max_devices: config.max_devices,
            transport: &transport,
            weights: config.weights,
            costs: &config.costs,
            existing_paths: paths.clone(),
            cross_inputs,
            component_oriented: config.component_oriented,
        };
        spans.time("core.cache.key", |_| {
            std::hint::black_box((
                LayerKey::of(&problem, li),
                CanonicalLayerKey::of(&problem, &solver_fp),
            ))
        });
        let bound = spans.time("core.sdc_model.skeleton", |_| skeleton_makespan(&problem))?;
        let sol = race(&backends, &problem, bound, spans, &mut pass.counts)?;
        pass.counts.layers += 1;
        let mut slots: Vec<(usize, u64, u64)> = sol
            .slots
            .iter()
            .map(|s| (s.op.index(), s.start, s.duration))
            .collect();
        slots.sort_by_key(|&(op, start, _)| (start, op));
        pass.layers.push(slots);
        for s in &sol.slots {
            device_of[s.op.index()] = Some(s.device);
        }
        devices = sol.devices;
        paths.extend(sol.new_paths);
    }
    Ok(pass)
}

/// One layer's race, replayed leg by leg (sequentially; the program
/// races the cheap legs on its pool).
fn race(
    backends: &[SolverKind],
    problem: &LayerProblem<'_>,
    bound: u64,
    spans: &mut Spans,
    counts: &mut ReplayCounts,
) -> Result<LayerSolution, CoreError> {
    let mut best: Option<LayerSolution> = None;
    let mut first_err = None;
    let mut first_cheap = true;
    for backend in backends {
        let result = match backend {
            SolverKind::Heuristic { .. } => {
                spans.time("core.heuristic", |_| backend.solve(problem))
            }
            SolverKind::Sdc { .. } => spans.time("core.sdc_model", |_| backend.solve(problem)),
            _ => continue,
        };
        if first_cheap {
            first_cheap = false;
            if result.as_ref().is_ok_and(|s| s.makespan() == bound) {
                counts.certifiable_layers += 1;
            }
        }
        match result {
            Ok(sol) if best.as_ref().is_none_or(|b| sol.objective < b.objective) => {
                best = Some(sol);
            }
            Ok(_) => {}
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    for backend in backends {
        let &SolverKind::Ilp { max_nodes } = backend else {
            continue;
        };
        if problem.ops.len() > PORTFOLIO_ILP_OP_LIMIT {
            continue;
        }
        let leg = IlpLayerSolver {
            max_nodes,
            cutoff: best.as_ref().map(|b| b.objective),
            pivot_work: Some(PORTFOLIO_ILP_PIVOT_WORK),
            ..IlpLayerSolver::default()
        };
        let (exact, work) = spans.time("core.ilp_model", |_| leg.solve_with_stats(problem));
        counts.lp_pivots += work.pivots;
        match exact {
            Ok(sol) if best.as_ref().is_none_or(|b| sol.objective < b.objective) => {
                counts.ilp_adopted += 1;
                best = Some(sol);
            }
            Ok(_) => {}
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    best.ok_or_else(|| {
        first_err.unwrap_or_else(|| CoreError::Internal("no backend produced a result".to_owned()))
    })
}

/// The per-layer breakdown of a finished run, timed from outside: the
/// validation of its schedule, one transport refinement from its binding
/// (the step between passes) and the replay of its first pass.
///
/// # Errors
///
/// A schedule the validator rejects, or the replay's errors.
pub fn breakdown(
    assay: &Assay,
    config: &SynthConfig,
    result: &SynthesisResult,
    spans: &mut Spans,
) -> Result<Pass1, CoreError> {
    spans.time("core.validate", |_| result.schedule.validate(assay))?;
    let binding = result.schedule.device_of(assay);
    spans.time("core.transport", |_| {
        std::hint::black_box(TransportTimes::refined(assay, &config.transport, &binding))
    });
    replay_pass1(assay, config, spans)
}

/// The layer slots of a finished run, in the [`Pass1`] layout.
pub fn result_slots(result: &SynthesisResult) -> Vec<Vec<(usize, u64, u64)>> {
    result
        .schedule
        .layers
        .iter()
        .map(|l| {
            l.ops
                .iter()
                .map(|s| (s.op.index(), s.start, s.duration))
                .collect()
        })
        .collect()
}
