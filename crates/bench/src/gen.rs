//! Seeded random assay generation and the metamorphic check harness.
//!
//! `mfhls gen` (and `tests/metamorphic.rs` at the workspace root) drive
//! this module: [`generate`] derives a whole assay deterministically from
//! a `(profile, seed)` pair using the vendored SplitMix64, and [`check`]
//! pushes a generated assay through synth → validate → analyse → simulate
//! under a battery of *metamorphic oracles* — properties that need no
//! golden outputs:
//!
//! * every produced schedule passes the paper-constraint validator and
//!   the coverage-audited analyser;
//! * renaming every operation changes neither the execution time nor the
//!   [`AssayShape`](mfhls_core::AssayShape) bytes;
//! * permuting op IDs leaves the multiset of the layers' renumbering
//!   signatures (WL-refined
//!   [`CanonicalLayerKey`](mfhls_core::CanonicalLayerKey) bytes)
//!   untouched;
//! * granting a larger device budget never worsens the fixed execution
//!   time;
//! * on single-layer assays the heuristic never beats a proven-optimal
//!   ILP objective;
//! * the layer cache is a pure accelerator: cache-on and cache-off runs
//!   produce bitwise identical schedules;
//! * DSL and `mfhls-netlist/v1` exports are fixed points: export → parse
//!   → export reproduces the exact bytes.
//!
//! Everything here is a pure function of `(profile, seed)` — no clocks,
//! no global RNG — so `mfhls gen --seed S --count N` is byte-identical
//! across runs, machines and thread counts.

use mfhls_chip::{Accessory, ContainerKind};
use mfhls_core::{
    analysis, export, layer_assay, Assay, AssayShape, CanonicalLayerKey, CoreError, Duration,
    LayerProblem, OpId, Operation, SolverKind, SynthConfig, Synthesizer, TransportTimes, Weights,
};
use mfhls_graph::rng::SplitMix64;
use std::collections::BTreeSet;

/// A generation profile: one region of the assay parameter space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Profile {
    /// 0–4 operations — degenerate and near-degenerate shapes.
    Tiny,
    /// 5–12 operations, moderate edge density.
    Small,
    /// 13–40 operations.
    Medium,
    /// 41–120 operations.
    Large,
    /// Long dependency chains (depth stress: many sequential layers).
    DeepChain,
    /// Few roots with many children (fan-out stress: wide layers).
    WideFanout,
    /// A high fraction of indeterminate operations (layer-barrier
    /// stress: hybrid layering splits at every other op).
    IndeterminateHeavy,
    /// Densely constrained requirements checked under a tight device
    /// budget (typed `DeviceBudgetExhausted` is an accepted outcome).
    ResourceStarved,
    /// Hostile display names: quotes, backslashes, newlines, tabs and
    /// deliberate duplicates (escaping / round-trip stress).
    Adversarial,
    /// One of the other profiles, chosen by the seed.
    Mixed,
}

impl Profile {
    /// Every profile, in the order `mfhls gen --profile all` sweeps them.
    pub const ALL: [Profile; 10] = [
        Profile::Tiny,
        Profile::Small,
        Profile::Medium,
        Profile::Large,
        Profile::DeepChain,
        Profile::WideFanout,
        Profile::IndeterminateHeavy,
        Profile::ResourceStarved,
        Profile::Adversarial,
        Profile::Mixed,
    ];

    /// Parses a profile name as spelled by [`Profile::name`].
    pub fn parse(s: &str) -> Option<Profile> {
        Profile::ALL.into_iter().find(|p| p.name() == s)
    }

    /// The CLI spelling of the profile.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Tiny => "tiny",
            Profile::Small => "small",
            Profile::Medium => "medium",
            Profile::Large => "large",
            Profile::DeepChain => "deep-chain",
            Profile::WideFanout => "wide-fanout",
            Profile::IndeterminateHeavy => "indeterminate-heavy",
            Profile::ResourceStarved => "resource-starved",
            Profile::Adversarial => "adversarial",
            Profile::Mixed => "mixed",
        }
    }
}

impl std::fmt::Display for Profile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Resolved knobs for one generated assay.
struct Knobs {
    min_ops: usize,
    max_ops: usize,
    /// Probability that op `i` chains directly on op `i-1`.
    chain_p: f64,
    /// Maximum extra parents per op beyond the chain edge.
    max_fanin: usize,
    /// Parents drawn from the `fanout_window` earliest ops instead of the
    /// whole prefix (wide-fanout stress); `usize::MAX` = whole prefix.
    fanout_window: usize,
    indeterminate_p: f64,
    /// Probability that an op carries a container/capacity constraint.
    constrained_p: f64,
    accessory_p: f64,
    /// Probability of a hostile display name.
    hostile_name_p: f64,
    max_duration: u64,
}

fn knobs(profile: Profile) -> Knobs {
    let base = Knobs {
        min_ops: 5,
        max_ops: 12,
        chain_p: 0.55,
        max_fanin: 2,
        fanout_window: usize::MAX,
        indeterminate_p: 0.15,
        constrained_p: 0.5,
        accessory_p: 0.18,
        hostile_name_p: 0.04,
        max_duration: 30,
    };
    match profile {
        Profile::Tiny => Knobs {
            min_ops: 0,
            max_ops: 4,
            ..base
        },
        Profile::Small => base,
        Profile::Medium => Knobs {
            min_ops: 13,
            max_ops: 40,
            ..base
        },
        Profile::Large => Knobs {
            min_ops: 41,
            max_ops: 120,
            max_fanin: 3,
            ..base
        },
        Profile::DeepChain => Knobs {
            min_ops: 10,
            max_ops: 60,
            chain_p: 1.0,
            max_fanin: 1,
            ..base
        },
        Profile::WideFanout => Knobs {
            min_ops: 10,
            max_ops: 60,
            chain_p: 0.05,
            max_fanin: 2,
            fanout_window: 3,
            ..base
        },
        Profile::IndeterminateHeavy => Knobs {
            min_ops: 6,
            max_ops: 30,
            indeterminate_p: 0.6,
            ..base
        },
        Profile::ResourceStarved => Knobs {
            min_ops: 6,
            max_ops: 24,
            constrained_p: 1.0,
            accessory_p: 0.5,
            ..base
        },
        Profile::Adversarial => Knobs {
            min_ops: 3,
            max_ops: 16,
            hostile_name_p: 0.5,
            ..base
        },
        Profile::Mixed => base, // resolved by `generate` before use
    }
}

const VERBS: [&str; 10] = [
    "mix", "incubate", "wash", "heat", "detect", "lyse", "capture", "elute", "stain", "split",
];

/// Generates one assay, deterministically, from `(profile, seed)`.
///
/// Generated assays are acyclic by construction (edges only point
/// forward), use only fabricable container/capacity combinations, and are
/// always expressible in both the DSL and the `mfhls-netlist/v1` format.
pub fn generate(profile: Profile, seed: u64) -> Assay {
    let mut rng = SplitMix64::seed_from_u64(seed).split(0x6E67 ^ profile as u64);
    // The assay is named after the *requested* profile, not the resolved
    // one: `generate(Mixed, s)` delegating to Small must never claim the
    // name of `generate(Small, s)` — names are a bijection on
    // `(profile, seed)`, and corpus files are keyed by them.
    let requested = profile;
    let profile = if profile == Profile::Mixed {
        // Any concrete profile; `ALL` ends with Mixed itself, so skip it.
        Profile::ALL[rng.gen_index(0, Profile::ALL.len() - 1)]
    } else {
        profile
    };
    let k = knobs(profile);
    let n = if k.max_ops == 0 {
        0
    } else if k.min_ops == k.max_ops {
        k.min_ops
    } else {
        k.min_ops + rng.gen_index(0, k.max_ops - k.min_ops + 1)
    };
    let mut assay = Assay::new(&format!("gen-{requested}-{seed:#018x}"));
    let mut names: Vec<String> = Vec::with_capacity(n);
    for i in 0..n {
        let mut name = format!("{}-{i}", VERBS[rng.gen_index(0, VERBS.len())]);
        if rng.gen_bool(k.hostile_name_p) {
            name = match rng.gen_index(0, 5) {
                0 => format!("{name} \"q\""),
                1 => format!("{name}\\esc"),
                2 => format!("{name}\nnl"),
                3 => format!("{name}\ttab"),
                // A deliberate duplicate of an earlier display name.
                _ if i > 0 => names[rng.gen_index(0, i)].clone(),
                _ => name,
            };
        }
        names.push(name.clone());
        let mut op = Operation::new(&name);
        if rng.gen_bool(k.constrained_p) {
            let kind = if rng.gen_bool(0.5) {
                ContainerKind::Ring
            } else {
                ContainerKind::Chamber
            };
            op = op.container(kind);
            let caps = kind.valid_capacities();
            op = op.capacity(caps[rng.gen_index(0, caps.len())]);
        }
        for a in Accessory::ALL {
            if rng.gen_bool(k.accessory_p) {
                op = op.accessory(a);
            }
        }
        let minutes = rng.gen_range_u64(0, k.max_duration);
        op = if rng.gen_bool(k.indeterminate_p) {
            op.with_duration(Duration::at_least(minutes.max(1)))
        } else {
            op.with_duration(Duration::fixed(minutes))
        };
        let id = assay.add_op(op);
        debug_assert_eq!(id.index(), i);
    }
    for c in 1..n {
        let mut parents = BTreeSet::new();
        if rng.gen_bool(k.chain_p) {
            parents.insert(c - 1);
        }
        let extra = rng.gen_index(0, k.max_fanin + 1);
        let window = k.fanout_window.min(c);
        for _ in 0..extra {
            parents.insert(rng.gen_index(0, window));
        }
        for p in parents {
            assay
                .add_dependency(OpId(p), OpId(c))
                .expect("forward edges are acyclic");
        }
    }
    assay
}

/// The same assay with every display name (and the assay name) replaced —
/// structure, requirements and durations untouched. Execution time and
/// [`AssayShape`] must be invariant under this map.
pub fn rename(assay: &Assay) -> Assay {
    let mut out = Assay::new(&format!("{}-renamed", assay.name()));
    for (id, op) in assay.iter() {
        out.add_op(
            Operation::new(&format!("renamed-{}", id.index()))
                .requirements_from(*op.requirements())
                .with_duration(op.duration()),
        );
    }
    for (p, c) in assay.dependencies() {
        out.add_dependency(p, c).expect("same DAG");
    }
    out
}

/// The same assay with op IDs permuted by a seeded shuffle: new position
/// `j` holds old op `sigma[j]`. Returns the permuted assay and `sigma`.
pub fn permute(assay: &Assay, seed: u64) -> (Assay, Vec<usize>) {
    let mut rng = SplitMix64::seed_from_u64(seed).split(0x7065);
    let n = assay.len();
    let mut sigma: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_index(0, i + 1);
        sigma.swap(i, j);
    }
    let mut new_pos = vec![0usize; n];
    for (j, &old) in sigma.iter().enumerate() {
        new_pos[old] = j;
    }
    let mut out = Assay::new(&format!("{}-permuted", assay.name()));
    for &old in &sigma {
        out.add_op(assay.op(OpId(old)).clone());
    }
    for (p, c) in assay.dependencies() {
        out.add_dependency(OpId(new_pos[p.index()]), OpId(new_pos[c.index()]))
            .expect("permuted DAG stays acyclic");
    }
    (out, sigma)
}

/// Outcome of [`check`] for one `(profile, seed)` pair.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// The generated assay's name (`gen-<profile>-<seed>`).
    pub name: String,
    /// Operation count.
    pub ops: usize,
    /// Dependency edge count.
    pub edges: usize,
    /// Execution time of the synthesized schedule, when synthesis ran
    /// (`None` when a tight budget legitimately exhausted the device
    /// budget).
    pub exec: Option<String>,
    /// Every violated oracle, with the property and witness spelled out.
    /// Empty = all oracles hold.
    pub violations: Vec<String>,
}

impl CheckOutcome {
    /// Whether every oracle held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs the full metamorphic battery on `generate(profile, seed)`.
pub fn check(profile: Profile, seed: u64) -> CheckOutcome {
    let assay = generate(profile, seed);
    let mut out = CheckOutcome {
        name: assay.name().to_owned(),
        ops: assay.len(),
        edges: assay.dependencies().count(),
        exec: None,
        violations: Vec::new(),
    };
    let fail = |v: String, out: &mut CheckOutcome| out.violations.push(v);

    // Oracle G: generation is deterministic (same seed, same bytes).
    let again = generate(profile, seed);
    if export::netlist_json(&assay) != export::netlist_json(&again) {
        fail("gen: two generations from one seed differ".into(), &mut out);
    }

    // Oracle R1: DSL export is a fixed point of export→parse→export and
    // preserves the structure.
    let text = mfhls_dsl::to_text(&assay);
    match mfhls_dsl::parse(&text) {
        Err(e) => fail(format!("dsl: exported text does not parse: {e}"), &mut out),
        Ok(reparsed) => {
            let text2 = mfhls_dsl::to_text(&reparsed);
            if text2 != text {
                fail(
                    "dsl: export→parse→export is not a fixed point".into(),
                    &mut out,
                );
            }
            if let Err(e) = same_structure(&assay, &reparsed) {
                fail(format!("dsl: round trip changed the assay: {e}"), &mut out);
            }
        }
    }

    // Oracle R2: netlist export is a fixed point through the service-side
    // importer, byte for byte.
    let netlist = export::netlist_json(&assay);
    match mfhls_svc::Json::parse(&netlist) {
        Err(e) => fail(format!("netlist: export is not valid JSON: {e}"), &mut out),
        Ok(value) => match mfhls_svc::assay_from_json(&value, assay.len().max(1)) {
            Err(e) => fail(format!("netlist: export does not import: {e}"), &mut out),
            Ok(imported) => {
                if export::netlist_json(&imported) != netlist {
                    fail(
                        "netlist: export→import→export is not a fixed point".into(),
                        &mut out,
                    );
                }
            }
        },
    }

    // Synthesis. A tight budget may legitimately exhaust the device
    // budget on the resource-starved profile — that is a typed, accepted
    // outcome; every other error is a violation.
    let config = check_config(profile);
    let result = match Synthesizer::new(config.clone()).run(&assay) {
        Ok(r) => r,
        Err(CoreError::DeviceBudgetExhausted { .. }) if profile == Profile::ResourceStarved => {
            return out;
        }
        Err(e) => {
            fail(format!("synth: {e}"), &mut out);
            return out;
        }
    };
    let exec = result.schedule.exec_time(&assay);
    out.exec = Some(exec.to_string());

    // Oracle V: the schedule passes the paper validator and the
    // coverage-audited analyser, and both agree on the fixed makespan.
    if let Err(e) = result.schedule.validate(&assay) {
        fail(format!("validate: {e}"), &mut out);
    }
    match analysis::try_analyse(&assay, &result.schedule) {
        Err(e) => fail(format!("analyse: {e}"), &mut out),
        Ok(report) => {
            if report.fixed_makespan != exec.fixed {
                fail(
                    format!(
                        "analyse: fixed makespan {} != exec time {}",
                        report.fixed_makespan, exec.fixed
                    ),
                    &mut out,
                );
            }
        }
    }

    // Oracle S: the exact-duration simulator accepts the schedule.
    let sim_config = mfhls_sim::SimConfig {
        model: mfhls_sim::DurationModel::Exact,
        seed,
    };
    match mfhls_sim::simulate_hybrid(&assay, &result.schedule, &sim_config) {
        Err(e) => fail(format!("simulate: {e}"), &mut out),
        Ok(sim) => {
            if sim.makespan < exec.fixed {
                fail(
                    format!(
                        "simulate: exact-duration makespan {} beats the fixed bound {}",
                        sim.makespan, exec.fixed
                    ),
                    &mut out,
                );
            }
        }
    }

    // Oracle D: synthesis is deterministic (same input, same schedule).
    match Synthesizer::new(config.clone()).run(&assay) {
        Err(e) => fail(format!("determinism: re-run failed: {e}"), &mut out),
        Ok(r2) => {
            if r2.schedule != result.schedule {
                fail(
                    "determinism: two runs produced different schedules".into(),
                    &mut out,
                );
            }
        }
    }

    // Oracle N: renaming every op changes neither the execution time nor
    // the assay shape.
    let renamed = rename(&assay);
    match Synthesizer::new(config.clone()).run(&renamed) {
        Err(e) => fail(format!("rename: renamed twin failed: {e}"), &mut out),
        Ok(r2) => {
            let exec2 = r2.schedule.exec_time(&renamed);
            if exec2 != exec {
                fail(
                    format!("rename: exec time moved from {exec} to {exec2}"),
                    &mut out,
                );
            }
        }
    }
    match (
        AssayShape::of(&assay, &config),
        AssayShape::of(&renamed, &config),
    ) {
        (Ok(s1), Ok(s2)) => {
            if s1.bytes() != s2.bytes() {
                fail(
                    "rename: AssayShape bytes moved under renaming".into(),
                    &mut out,
                );
            }
        }
        (Err(e), _) | (_, Err(e)) => fail(format!("rename: shape failed: {e}"), &mut out),
    }

    // Oracle P: permuting op IDs leaves the multiset of canonical layer
    // keys untouched (the WL-refined canon bytes see structure, not IDs).
    let (permuted, sigma) = permute(&assay, seed);
    match (
        canon_multiset(&assay, &config),
        canon_multiset(&permuted, &config),
    ) {
        (Ok(k1), Ok(k2)) => {
            if k1 != k2 {
                fail(
                    format!("permute: canonical layer keys moved under sigma={sigma:?}"),
                    &mut out,
                );
            }
        }
        (Err(e), _) | (_, Err(e)) => fail(format!("permute: layering failed: {e}"), &mut out),
    }

    // Oracle C: the layer cache is a pure accelerator — cache-off
    // synthesis produces the bitwise identical schedule.
    let mut uncached = config.clone();
    uncached.layer_cache = false;
    match Synthesizer::new(uncached).run(&assay) {
        Err(e) => fail(format!("cache: uncached run failed: {e}"), &mut out),
        Ok(r2) => {
            if r2.schedule != result.schedule {
                fail(
                    "cache: cache-on and cache-off schedules differ".into(),
                    &mut out,
                );
            }
        }
    }

    // Oracle M: a larger device budget keeps synthesis sound. Exec time
    // alone is deliberately *not* asserted monotone here: the objective
    // trades execution time against device and path costs, so even an
    // optimal solver may spend extra budget on a cheaper-but-slower
    // schedule, and the greedy heuristic demonstrably regresses (witness:
    // profile `large`, seed 1 — 554m at 25 devices, 557m at 35, the extra
    // devices buying extra transport paths). The sound monotonicity
    // theorem — the *weighted objective* never worsens when the feasible
    // set grows — is asserted below under proven-optimal ILP (oracle I).
    let mut larger = config.clone();
    larger.max_devices += 10;
    match Synthesizer::new(larger.clone()).run(&assay) {
        Err(e) => fail(format!("monotonicity: larger budget failed: {e}"), &mut out),
        Ok(r2) => {
            if let Err(e) = r2.schedule.validate(&assay) {
                fail(
                    format!("monotonicity: larger-budget schedule invalid: {e}"),
                    &mut out,
                );
            }
        }
    }

    // Oracle I: on single-layer assays small enough for the exact solver,
    // a proven-optimal ILP objective is never beaten by the heuristic,
    // and never worsens when the device budget grows.
    if (2..=8).contains(&assay.len()) && assay.indeterminate_ops().is_empty() {
        let mut heuristic = config.clone();
        heuristic.solver = SolverKind::Heuristic {
            improvement_passes: 2,
        };
        heuristic.max_iterations = 1;
        let mut ilp = config.clone();
        ilp.solver = SolverKind::Ilp { max_nodes: 500_000 };
        ilp.max_iterations = 1;
        let mut ilp_larger = ilp.clone();
        ilp_larger.max_devices += 10;
        let all_proven = |r: &mfhls_core::SynthesisResult| {
            r.final_stats().solver.proven_optimal as usize >= r.layering.num_layers()
        };
        match (
            Synthesizer::new(heuristic).run(&assay),
            Synthesizer::new(ilp).run(&assay),
            Synthesizer::new(ilp_larger).run(&assay),
        ) {
            (Ok(h), Ok(x), Ok(xl)) => {
                if all_proven(&x) && h.final_stats().objective < x.final_stats().objective {
                    fail(
                        format!(
                            "ilp: heuristic objective {} beats proven-optimal ILP {}",
                            h.final_stats().objective,
                            x.final_stats().objective
                        ),
                        &mut out,
                    );
                }
                if all_proven(&x)
                    && all_proven(&xl)
                    && xl.final_stats().objective > x.final_stats().objective
                {
                    fail(
                        format!(
                            "ilp: +10 devices worsened the proven-optimal objective {} -> {}",
                            x.final_stats().objective,
                            xl.final_stats().objective
                        ),
                        &mut out,
                    );
                }
            }
            (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
                fail(format!("ilp: solver run failed: {e}"), &mut out)
            }
        }
    }

    // Oracle T: the deterministic portfolio racer is sound. The cheap
    // heuristic+sdc race runs on every profile; the ILP leg joins only on
    // assays small enough for the exact solver (oracle I's gate). The
    // race accounting must balance — the final pass races each layer once
    // and every race is won by exactly one backend — and on
    // single-iteration runs the per-layer adoption rule can never lose to
    // the heuristic leg alone.
    {
        let small = (2..=8).contains(&assay.len()) && assay.indeterminate_ops().is_empty();
        let mut backends = vec![
            SolverKind::Heuristic {
                improvement_passes: 2,
            },
            SolverKind::Sdc {
                improvement_passes: 2,
            },
        ];
        if small {
            backends.push(SolverKind::Ilp { max_nodes: 20_000 });
        }
        let mut race = config.clone();
        race.solver = SolverKind::Portfolio { backends };
        match Synthesizer::new(race.clone()).run(&assay) {
            Err(e) => fail(format!("portfolio: run failed: {e}"), &mut out),
            Ok(r2) => {
                if let Err(e) = r2.schedule.validate(&assay) {
                    fail(format!("portfolio: schedule invalid: {e}"), &mut out);
                }
                // An assay without operations has no layer to race.
                let s = &r2.final_stats().solver;
                let layers = r2.layering.num_layers() as u64;
                if s.portfolio_races != layers {
                    fail(
                        format!(
                            "portfolio: {} races recorded over {layers} layers",
                            s.portfolio_races
                        ),
                        &mut out,
                    );
                }
                let wins = s.wins_heuristic + s.wins_sdc + s.wins_ilp;
                if wins != s.portfolio_races {
                    fail(
                        format!(
                            "portfolio: {} races but {} wins ({} heuristic / {} sdc / {} ilp)",
                            s.portfolio_races, wins, s.wins_heuristic, s.wins_sdc, s.wins_ilp
                        ),
                        &mut out,
                    );
                }
                if small {
                    let mut heuristic = config.clone();
                    heuristic.solver = SolverKind::Heuristic {
                        improvement_passes: 2,
                    };
                    heuristic.max_iterations = 1;
                    let mut race1 = race;
                    race1.max_iterations = 1;
                    match (
                        Synthesizer::new(heuristic).run(&assay),
                        Synthesizer::new(race1).run(&assay),
                    ) {
                        (Ok(h), Ok(p)) => {
                            if p.final_stats().objective > h.final_stats().objective {
                                fail(
                                    format!(
                                        "portfolio: race objective {} loses to its own \
                                         heuristic leg {}",
                                        p.final_stats().objective,
                                        h.final_stats().objective
                                    ),
                                    &mut out,
                                );
                            }
                        }
                        (Err(e), _) | (_, Err(e)) => {
                            fail(format!("portfolio: 1-iteration run failed: {e}"), &mut out)
                        }
                    }
                }
            }
        }
    }

    out
}

/// The synthesis configuration [`check`] uses for `profile`.
pub fn check_config(profile: Profile) -> SynthConfig {
    match profile {
        Profile::ResourceStarved => SynthConfig::builder()
            .max_devices(4)
            .build()
            .expect("small budget is valid"),
        _ => SynthConfig::default(),
    }
}

/// Structural equality without display names or the assay name: op count,
/// per-op requirements and durations, and the dependency edge set.
fn same_structure(a: &Assay, b: &Assay) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} ops became {}", a.len(), b.len()));
    }
    for (id, op) in a.iter() {
        let other = b.op(id);
        if op.duration() != other.duration() {
            return Err(format!("{id} duration changed"));
        }
        if op.requirements() != other.requirements() {
            return Err(format!("{id} requirements changed"));
        }
    }
    let e1: BTreeSet<_> = a.dependencies().collect();
    let e2: BTreeSet<_> = b.dependencies().collect();
    if e1 != e2 {
        return Err("edge set changed".into());
    }
    Ok(())
}

/// The sorted list of canonical (WL-refined) layer-key bytes of `assay`
/// under `config`'s layering — the ID-independent signature oracle P
/// compares across permutations.
fn canon_multiset(assay: &Assay, config: &SynthConfig) -> Result<Vec<Vec<u8>>, CoreError> {
    let layering = layer_assay(assay, config.indeterminate_threshold)?;
    let transport = TransportTimes::initial(assay, &config.transport);
    let mut keys: Vec<Vec<u8>> = layering
        .layers()
        .iter()
        .map(|ops| {
            let problem = LayerProblem {
                assay,
                ops: ops.clone(),
                devices: Vec::new(),
                bindable: Vec::new(),
                max_devices: config.max_devices,
                transport: &transport,
                weights: Weights::default(),
                costs: &config.costs,
                existing_paths: BTreeSet::new(),
                cross_inputs: Vec::new(),
                component_oriented: config.component_oriented,
            };
            CanonicalLayerKey::of(&problem, "h").canon_bytes().to_vec()
        })
        .collect();
    keys.sort();
    Ok(keys)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_acyclic() {
        for profile in Profile::ALL {
            let a = generate(profile, 7);
            let b = generate(profile, 7);
            assert_eq!(export::netlist_json(&a), export::netlist_json(&b));
            // Different seeds move the structure (collision here would
            // mean the seed is ignored).
            let c = generate(profile, 8);
            assert_ne!(
                export::netlist_json(&a),
                export::netlist_json(&c),
                "{profile}: seeds 7 and 8 collided"
            );
        }
    }

    #[test]
    fn profiles_hit_their_regions() {
        let deep = generate(Profile::DeepChain, 3);
        // A pure chain: every non-root op depends on its predecessor.
        assert!(deep.dependencies().any(|(p, c)| c.index() == p.index() + 1));
        let ind = generate(Profile::IndeterminateHeavy, 3);
        assert!(
            !ind.indeterminate_ops().is_empty(),
            "indeterminate-heavy assay has no indeterminate ops"
        );
        let adv: Vec<String> = (0..32)
            .map(|s| {
                let a = generate(Profile::Adversarial, s);
                a.iter()
                    .map(|(_, op)| op.name().to_owned())
                    .collect::<Vec<_>>()
                    .join("|")
            })
            .collect();
        assert!(
            adv.iter()
                .any(|names| names.contains('"') || names.contains('\\')),
            "32 adversarial seeds produced no hostile names"
        );
    }

    #[test]
    fn rename_and_permute_preserve_structure() {
        let a = generate(Profile::Medium, 11);
        let r = rename(&a);
        assert!(same_structure(&a, &r).is_ok());
        let (p, sigma) = permute(&a, 11);
        assert_eq!(p.len(), a.len());
        assert_eq!(sigma.len(), a.len());
        assert_eq!(a.dependencies().count(), p.dependencies().count());
    }

    #[test]
    fn heuristic_exec_time_is_not_monotone_in_budget() {
        // The witness that scoped oracle M: on this generated assay the
        // greedy heuristic produces a *worse* fixed exec time when handed
        // ten more devices (it spreads ops across them and pays extra
        // transport). Both schedules stay valid — non-monotonicity is a
        // property of the weighted-objective heuristic, not a constraint
        // violation. If this assertion ever flips, the heuristic changed
        // character and oracle M can be revisited.
        let assay = generate(Profile::Large, 1);
        let base = check_config(Profile::Large);
        let mut larger = base.clone();
        larger.max_devices += 10;
        let r1 = Synthesizer::new(base).run(&assay).expect("base budget");
        let r2 = Synthesizer::new(larger).run(&assay).expect("larger budget");
        r1.schedule.validate(&assay).expect("base valid");
        r2.schedule.validate(&assay).expect("larger valid");
        assert!(
            r2.schedule.exec_time(&assay).fixed > r1.schedule.exec_time(&assay).fixed,
            "witness evaporated: {} vs {} — oracle M may be strengthenable",
            r1.schedule.exec_time(&assay),
            r2.schedule.exec_time(&assay)
        );
    }

    /// Regression: oracle T demanded at least one portfolio race, so
    /// every operation-free `gen-tiny` assay (no layer to race) failed
    /// `--check`, 13 of them at `--seed 0 --count 50`.
    #[test]
    fn operation_free_assays_pass_the_race_count_oracle() {
        for seed in [5, 11, 12] {
            assert!(generate(Profile::Tiny, seed).is_empty(), "seed {seed}");
            let outcome = check(Profile::Tiny, seed);
            assert!(outcome.passed(), "seed {seed}: {:?}", outcome.violations);
        }
    }

    #[test]
    fn check_passes_on_a_seed_per_profile() {
        for profile in Profile::ALL {
            let outcome = check(profile, 1);
            assert!(
                outcome.passed(),
                "{profile} seed 1: {:?}",
                outcome.violations
            );
        }
    }

    /// Regression: these five `(profile, seed)` pairs violated the
    /// permutation oracle before the layering eviction tie-break became
    /// structural (see `crates/core/tests/canonical.rs::
    /// eviction_ties_break_structurally_not_by_id`). Each has a layer
    /// pinned at exactly `indeterminate_threshold` indeterminate ops, so
    /// resource-based eviction ran and its old id tie-break moved layer
    /// membership — and every canonical layer key — under renumbering.
    #[test]
    fn eviction_tie_break_witnesses_stay_permutation_invariant() {
        for (profile, seed) in [
            (Profile::WideFanout, 0x28),
            (Profile::WideFanout, 0x2d),
            (Profile::WideFanout, 0x34),
            (Profile::WideFanout, 0x37),
            (Profile::Large, 0x31),
        ] {
            let outcome = check(profile, seed);
            assert!(
                outcome.passed(),
                "{profile} seed {seed:#x}: {:?}",
                outcome.violations
            );
        }
    }

    /// Regression: `generate(Mixed, s)` used to name its assay after the
    /// concrete profile it delegated to, so e.g. `generate(Mixed, 2)`
    /// claimed `gen-small-0x…02` while carrying different content than
    /// `generate(Small, 2)` — corpus files keyed by name silently
    /// overwrote each other. Names must be a bijection on
    /// `(profile, seed)`.
    #[test]
    fn assay_names_are_injective_over_profile_and_seed() {
        let mut seen = std::collections::BTreeMap::new();
        for profile in Profile::ALL {
            for seed in 0..8u64 {
                let name = generate(profile, seed).name().to_owned();
                assert_eq!(name, format!("gen-{profile}-{seed:#018x}"));
                if let Some(prev) = seen.insert(name.clone(), (profile, seed)) {
                    panic!("{name} claimed by both {prev:?} and {:?}", (profile, seed));
                }
            }
        }
    }
}
