//! The layer-solver abstraction: exact ILP, scalable heuristic, or hybrid.

use crate::{CoreError, LayerProblem, ScheduledOp};
use mfhls_chip::DeviceConfig;
use std::collections::BTreeSet;

/// Work counters of the layer solvers (exact MILP path plus the heuristic
/// improvement loop), aggregated per layer solution, per re-synthesis
/// iteration and per benchmark case.
///
/// All fields are exact integers so the type stays `Eq`-comparable and the
/// determinism contract extends to solver diagnostics: the counters are
/// stored inside [`LayerSolution`], so a layer-cache hit replays exactly the
/// counters of the original solve and per-iteration sums are identical at
/// any thread count. Heuristic-only solutions carry zero ILP counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverStats {
    /// Exact MILP layer solves attempted (0 for pure-heuristic solutions).
    pub ilp_solves: u64,
    /// Of those, how many terminated with proven optimality.
    pub proven_optimal: u64,
    /// Branch-and-bound nodes explored.
    pub nodes: u64,
    /// Simplex pivots across all LP solves (nodes, probes, dives).
    pub pivots: u64,
    /// LP solves that reused the carried (warm) basis.
    pub warm_solves: u64,
    /// LP solves started from the cold all-slack basis.
    pub cold_solves: u64,
    /// Searches whose final incumbent was the caller-supplied warm start.
    pub incumbents_supplied: u64,
    /// Searches whose final incumbent came from the diving heuristic.
    pub incumbents_diving: u64,
    /// Searches whose final incumbent came from the tree search.
    pub incumbents_search: u64,
    /// Heuristic re-binding improvement rounds actually executed (bounded
    /// by `improvement_passes`; the loop exits early on a fixpoint).
    pub heuristic_rounds: u64,
    /// Re-binding candidates adopted across those rounds.
    pub rebind_adoptions: u64,
    /// SDC skeleton solves performed (0 unless the SDC backend ran).
    pub sdc_solves: u64,
    /// Difference constraints added to SDC systems (skeleton + feedback).
    pub sdc_constraints: u64,
    /// Constraints retracted from SDC systems between feedback passes.
    pub sdc_retracts: u64,
    /// Queue-Bellman-Ford value raises across all incremental SDC updates
    /// (the SDC analogue of `pivots`).
    pub sdc_relaxations: u64,
    /// Portfolio races run (one per layer solved by
    /// [`SolverKind::Portfolio`]).
    pub portfolio_races: u64,
    /// Races adopted from a heuristic backend.
    pub wins_heuristic: u64,
    /// Races adopted from an SDC backend.
    pub wins_sdc: u64,
    /// Races adopted from an ILP backend.
    pub wins_ilp: u64,
}

impl SolverStats {
    /// Adds `other`'s counters into `self`.
    pub fn merge(&mut self, other: &SolverStats) {
        self.ilp_solves += other.ilp_solves;
        self.proven_optimal += other.proven_optimal;
        self.nodes += other.nodes;
        self.pivots += other.pivots;
        self.warm_solves += other.warm_solves;
        self.cold_solves += other.cold_solves;
        self.incumbents_supplied += other.incumbents_supplied;
        self.incumbents_diving += other.incumbents_diving;
        self.incumbents_search += other.incumbents_search;
        self.heuristic_rounds += other.heuristic_rounds;
        self.rebind_adoptions += other.rebind_adoptions;
        self.sdc_solves += other.sdc_solves;
        self.sdc_constraints += other.sdc_constraints;
        self.sdc_retracts += other.sdc_retracts;
        self.sdc_relaxations += other.sdc_relaxations;
        self.portfolio_races += other.portfolio_races;
        self.wins_heuristic += other.wins_heuristic;
        self.wins_sdc += other.wins_sdc;
        self.wins_ilp += other.wins_ilp;
    }

    /// Fraction of LP solves that reused a carried basis (0.0 when no LP
    /// was solved).
    pub fn warm_start_rate(&self) -> f64 {
        let total = self.warm_solves + self.cold_solves;
        if total == 0 {
            0.0
        } else {
            self.warm_solves as f64 / total as f64
        }
    }
}

/// Solution of one layer's scheduling & binding problem.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSolution {
    /// One slot per operation of the layer.
    pub slots: Vec<ScheduledOp>,
    /// The complete device list after this layer (existing devices first,
    /// with unchanged configs; devices created by this layer appended).
    pub devices: Vec<DeviceConfig>,
    /// Indices (into `devices`) of the devices created by this layer.
    pub new_devices: Vec<usize>,
    /// Paths introduced by this layer's transfers (unordered index pairs),
    /// including paths to cross-layer parent devices.
    pub new_paths: BTreeSet<(usize, usize)>,
    /// The weighted objective value this solution was costed at.
    pub objective: u64,
    /// Solver work counters behind this solution (ILP counters are all
    /// zero when the heuristic produced it without an ILP attempt).
    pub stats: SolverStats,
}

impl LayerSolution {
    /// Fixed makespan of the layer (indeterminate ops at minimum duration).
    pub fn makespan(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.start + s.duration)
            .max()
            .unwrap_or(0)
    }
}

/// A strategy for solving one layer.
pub trait LayerSolver {
    /// Solves the layer problem.
    ///
    /// # Errors
    ///
    /// Implementations return [`CoreError::DeviceBudgetExhausted`] when an
    /// operation cannot be bound within `problem.max_devices`, and solver
    /// back-end errors as [`CoreError::Ilp`].
    fn solve(&self, problem: &LayerProblem<'_>) -> Result<LayerSolution, CoreError>;
}

/// Built-in solver strategies.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum SolverKind {
    /// Priority list scheduling + greedy binding + re-binding improvement.
    /// Scales to the paper's 120-operation cases.
    Heuristic {
        /// Number of re-binding improvement passes (0 = construction only).
        improvement_passes: usize,
    },
    /// The faithful ILP model of §4, solved exactly by `mfhls-ilp`. The
    /// warm-started dual simplex makes this practical for paper-scale
    /// layers (~25 operations with a small device budget); very large
    /// layers should still prefer [`SolverKind::Hybrid`].
    Ilp {
        /// Branch-and-bound node budget.
        max_nodes: usize,
    },
    /// Run the heuristic, then attempt the ILP within the given node budget
    /// (only when the layer is small enough), and keep the better solution.
    Hybrid {
        /// Node budget for the ILP attempt.
        max_nodes: usize,
        /// Only attempt the ILP when the layer has at most this many ops.
        ilp_op_limit: usize,
        /// Heuristic improvement passes.
        improvement_passes: usize,
    },
    /// Incremental system-of-difference-constraints scheduling: the layer's
    /// dependency skeleton is solved by incremental shortest-path
    /// relaxation, then resource/device bindings are legalized in skeleton
    /// order (see [`crate::sdc_model`]).
    Sdc {
        /// Legalize-and-feed-back passes after the initial skeleton order.
        improvement_passes: usize,
    },
    /// Deterministic portfolio racing: run every listed backend on the
    /// layer and adopt the first strictly-improving result *in listed
    /// order*. Non-ILP backends run first, in listed order, on the calling
    /// thread; ILP backends run last, warm-bounded by the best objective
    /// found so far (`cutoff`), so the exact search only pays for layers
    /// the cheap backends left slack on. The adopted solution's counters
    /// absorb the losers' work, and the race itself is tallied in
    /// `portfolio_races` / `wins_*`.
    ///
    /// Backends must be leaf strategies (`heuristic`, `sdc`, `ilp`) —
    /// nesting `portfolio` or `hybrid` is a configuration error. ILP legs
    /// pass two size gates before they race. Layers larger than
    /// [`PORTFOLIO_ILP_OP_LIMIT`] ops are skipped outright (past paper
    /// scale, branch-and-bound reliably exhausts any budget without an
    /// integer-feasible incumbent, so racing it buys nothing). The rest
    /// run under the deterministic [`PORTFOLIO_ILP_PIVOT_WORK`] work
    /// budget, which also skips — before building anything — every model
    /// it affords fewer pivots than rows (see
    /// [`IlpLayerSolver::pivot_work`](crate::ilp_model::IlpLayerSolver)).
    /// Both gates depend only on the problem, never the clock, so a race
    /// is byte-identical across machines. A skipped leg adds no counters;
    /// it shows in traces as an `ilp_leg_skipped` diagnostic.
    Portfolio {
        /// The backends to race, in adoption-priority order.
        backends: Vec<SolverKind>,
    },
}

/// Largest layer (in ops) an ILP leg will race inside a
/// [`SolverKind::Portfolio`]. Mirrors the reasoning behind
/// [`SolverKind::Hybrid`]'s `ilp_op_limit`: the warm-started simplex is
/// practical for paper-scale layers (~25 operations); beyond that the
/// exact search burns its whole budget without producing an incumbent,
/// even cutoff-bounded.
pub const PORTFOLIO_ILP_OP_LIMIT: usize = 25;

/// Deterministic work budget (in tableau cells, see
/// [`IlpLayerSolver::pivot_work`](crate::ilp_model::IlpLayerSolver)) of
/// each ILP leg raced inside a [`SolverKind::Portfolio`]. A node budget
/// cannot bound a race's wall-clock — on the 120-op assay's densest
/// layer a *single* root LP costs ~8 200 pivots at milliseconds each, so
/// 20 000 nodes would run for hours — and a wall-clock limit would trade
/// the hang for nondeterminism; a work budget is both time-proportional
/// and machine-independent, so the race stays fast *and* byte-identical
/// everywhere. A model of `m` rows and `n` columns gets
/// `10⁹ / (m·(n+m))` pivots — the budget stays denominated in dense
/// cells, an upper bound on what a sparse pivot touches — and a leg
/// whose model would get fewer than `m` is skipped before it is built.
/// That skips the 10-op layers of cases 2 and 3 (~1 200–1 600 rows,
/// ~320–540 pivots) and the 5 300–6 300-row layers of case 1 (22–31
/// pivots): none of them ever produced an adopted solution. It admits
/// the small layers of a few hundred rows, which get thousands of
/// pivots; every adopted leg measured on the paper cases and
/// `bench/corpus/` affords at least 22 pivots per row.
pub const PORTFOLIO_ILP_PIVOT_WORK: u64 = 1_000_000_000;

impl Default for SolverKind {
    fn default() -> Self {
        SolverKind::Heuristic {
            improvement_passes: 2,
        }
    }
}

impl SolverKind {
    /// Whether this strategy may appear inside a
    /// [`SolverKind::Portfolio`]'s backend list.
    pub fn is_portfolio_leaf(&self) -> bool {
        matches!(
            self,
            SolverKind::Heuristic { .. } | SolverKind::Sdc { .. } | SolverKind::Ilp { .. }
        )
    }
}

impl LayerSolver for SolverKind {
    fn solve(&self, problem: &LayerProblem<'_>) -> Result<LayerSolution, CoreError> {
        match self {
            SolverKind::Heuristic { improvement_passes } => {
                crate::heuristic::HeuristicLayerSolver {
                    improvement_passes: *improvement_passes,
                }
                .solve(problem)
            }
            SolverKind::Sdc { improvement_passes } => crate::sdc_model::SdcLayerSolver {
                improvement_passes: *improvement_passes,
            }
            .solve(problem),
            SolverKind::Ilp { max_nodes } => crate::ilp_model::IlpLayerSolver {
                max_nodes: *max_nodes,
                ..crate::ilp_model::IlpLayerSolver::default()
            }
            .solve(problem),
            SolverKind::Portfolio { backends } => solve_portfolio(backends, problem),
            &SolverKind::Hybrid {
                max_nodes,
                ilp_op_limit,
                improvement_passes,
            } => {
                let mut heur =
                    crate::heuristic::HeuristicLayerSolver { improvement_passes }.solve(problem)?;
                if problem.ops.len() > ilp_op_limit {
                    return Ok(heur);
                }
                let (exact, stats) = crate::ilp_model::IlpLayerSolver {
                    max_nodes,
                    time_limit: Some(std::time::Duration::from_secs(10)),
                    cutoff: Some(heur.objective),
                    ..crate::ilp_model::IlpLayerSolver::default()
                }
                .solve_with_stats(problem);
                match exact {
                    Ok(exact) if exact.objective < heur.objective => Ok(exact),
                    _ => {
                        // Keep the heuristic solution but record the work the
                        // (pruned or unlucky) exact attempt performed.
                        heur.stats.merge(&stats);
                        Ok(heur)
                    }
                }
            }
        }
    }
}

/// The deterministic portfolio race (see [`SolverKind::Portfolio`]).
fn solve_portfolio(
    backends: &[SolverKind],
    problem: &LayerProblem<'_>,
) -> Result<LayerSolution, CoreError> {
    if backends.is_empty() {
        return Err(CoreError::Config(
            "portfolio requires at least one backend".to_owned(),
        ));
    }
    if let Some(bad) = backends.iter().find(|b| !b.is_portfolio_leaf()) {
        return Err(CoreError::Config(format!(
            "portfolio backends must be leaf strategies (heuristic|sdc|ilp), got {bad:?}"
        )));
    }
    let mut best: Option<(usize, LayerSolution)> = None;
    let mut losers = SolverStats {
        portfolio_races: 1,
        ..SolverStats::default()
    };
    let mut first_err: Option<CoreError> = None;
    // The cheap (non-ILP) backends run first, in listed order.
    for (idx, backend) in backends.iter().enumerate() {
        if matches!(backend, SolverKind::Ilp { .. }) {
            continue;
        }
        match backend.solve(problem) {
            Ok(sol) => match &best {
                Some((_, b)) if sol.objective >= b.objective => losers.merge(&sol.stats),
                _ => {
                    if let Some((_, prev)) = best.take() {
                        losers.merge(&prev.stats);
                    }
                    best = Some((idx, sol));
                }
            },
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    // ILP backends run last, sequentially, bounded by the incumbent: with
    // `cutoff` set they only return solutions strictly better than the
    // best cheap result, so "Ok" here always means adoption-worthy.
    for (idx, backend) in backends.iter().enumerate() {
        let &SolverKind::Ilp { max_nodes } = backend else {
            continue;
        };
        if problem.ops.len() > PORTFOLIO_ILP_OP_LIMIT {
            crate::ilp_model::leg_skipped("op_limit", problem.ops.len(), 0, 0, 0);
            continue;
        }
        let (exact, work) = crate::ilp_model::IlpLayerSolver {
            max_nodes,
            cutoff: best.as_ref().map(|(_, b)| b.objective),
            pivot_work: Some(PORTFOLIO_ILP_PIVOT_WORK),
            ..crate::ilp_model::IlpLayerSolver::default()
        }
        .solve_with_stats(problem);
        match exact {
            Ok(sol)
                if best
                    .as_ref()
                    .is_none_or(|(_, b)| sol.objective < b.objective) =>
            {
                if let Some((_, prev)) = best.take() {
                    losers.merge(&prev.stats);
                }
                best = Some((idx, sol));
            }
            Ok(sol) => losers.merge(&sol.stats),
            Err(e) => {
                losers.merge(&work);
                first_err.get_or_insert(e);
            }
        }
    }
    let Some((winner, mut sol)) = best else {
        return Err(first_err.unwrap_or_else(|| {
            CoreError::Internal("portfolio race produced no result".to_owned())
        }));
    };
    match backends.get(winner) {
        Some(SolverKind::Sdc { .. }) => losers.wins_sdc += 1,
        Some(SolverKind::Ilp { .. }) => losers.wins_ilp += 1,
        _ => losers.wins_heuristic += 1,
    }
    sol.stats.merge(&losers);
    Ok(sol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Assay, Duration, Operation, TransportConfig, TransportTimes, Weights};
    use mfhls_chip::{Accessory, Capacity, ContainerKind, CostModel};

    fn diamond_assay() -> Assay {
        let mut a = Assay::new("diamond");
        let src = a.add_op(
            Operation::new("src")
                .container(ContainerKind::Ring)
                .capacity(Capacity::Medium)
                .accessory(Accessory::Pump)
                .with_duration(Duration::fixed(4)),
        );
        let l = a.add_op(
            Operation::new("l")
                .accessory(Accessory::HeatingPad)
                .with_duration(Duration::fixed(6)),
        );
        let r = a.add_op(
            Operation::new("r")
                .accessory(Accessory::HeatingPad)
                .with_duration(Duration::fixed(5)),
        );
        let sink = a.add_op(
            Operation::new("sink")
                .accessory(Accessory::OpticalSystem)
                .with_duration(Duration::fixed(3)),
        );
        a.add_dependency(src, l).unwrap();
        a.add_dependency(src, r).unwrap();
        a.add_dependency(l, sink).unwrap();
        a.add_dependency(r, sink).unwrap();
        a
    }

    fn problem<'a>(
        assay: &'a Assay,
        transport: &'a TransportTimes,
        costs: &'a CostModel,
    ) -> LayerProblem<'a> {
        LayerProblem {
            assay,
            ops: assay.op_ids().collect(),
            devices: vec![],
            bindable: vec![],
            max_devices: 6,
            transport,
            weights: Weights::default(),
            costs,
            existing_paths: BTreeSet::new(),
            cross_inputs: vec![],
            component_oriented: true,
        }
    }

    #[test]
    fn portfolio_equals_best_individual_backend() {
        let assay = diamond_assay();
        let transport = TransportTimes::initial(&assay, &TransportConfig::default());
        let costs = CostModel::default();
        let p = problem(&assay, &transport, &costs);
        let backends = vec![
            SolverKind::Heuristic {
                improvement_passes: 2,
            },
            SolverKind::Sdc {
                improvement_passes: 2,
            },
            SolverKind::Ilp { max_nodes: 50_000 },
        ];
        let individual_best = backends
            .iter()
            .map(|b| b.solve(&p).unwrap().objective)
            .min()
            .unwrap();
        let raced = SolverKind::Portfolio { backends }.solve(&p).unwrap();
        assert_eq!(raced.objective, individual_best);
        assert_eq!(raced.stats.portfolio_races, 1);
        assert_eq!(
            raced.stats.wins_heuristic + raced.stats.wins_sdc + raced.stats.wins_ilp,
            1
        );
        // The race absorbed the work of every backend that actually ran.
        assert_eq!(raced.stats.sdc_solves, 1);
        assert!(raced.stats.heuristic_rounds > 0 || raced.stats.rebind_adoptions == 0);
    }

    #[test]
    fn portfolio_is_thread_count_invariant() {
        let assay = diamond_assay();
        let transport = TransportTimes::initial(&assay, &TransportConfig::default());
        let costs = CostModel::default();
        let p = problem(&assay, &transport, &costs);
        let spec = SolverKind::Portfolio {
            backends: vec![
                SolverKind::Heuristic {
                    improvement_passes: 2,
                },
                SolverKind::Sdc {
                    improvement_passes: 2,
                },
            ],
        };
        let one = mfhls_par::with_threads(1, || spec.solve(&p).unwrap());
        let four = mfhls_par::with_threads(4, || spec.solve(&p).unwrap());
        assert_eq!(one, four);
    }

    #[test]
    fn empty_and_nested_portfolios_are_config_errors() {
        let assay = diamond_assay();
        let transport = TransportTimes::initial(&assay, &TransportConfig::default());
        let costs = CostModel::default();
        let p = problem(&assay, &transport, &costs);
        let empty = SolverKind::Portfolio { backends: vec![] };
        assert!(matches!(empty.solve(&p), Err(CoreError::Config(_))));
        let nested = SolverKind::Portfolio {
            backends: vec![SolverKind::Portfolio { backends: vec![] }],
        };
        assert!(matches!(nested.solve(&p), Err(CoreError::Config(_))));
        let hybrid = SolverKind::Portfolio {
            backends: vec![SolverKind::Hybrid {
                max_nodes: 1,
                ilp_op_limit: 1,
                improvement_passes: 0,
            }],
        };
        assert!(matches!(hybrid.solve(&p), Err(CoreError::Config(_))));
    }

    #[test]
    fn ilp_legs_past_the_op_limit_sit_out_with_a_diagnostic() {
        let mut assay = Assay::new("wide");
        for k in 0..=PORTFOLIO_ILP_OP_LIMIT {
            assay.add_op(Operation::new(&format!("o{k}")).with_duration(Duration::fixed(2)));
        }
        let transport = TransportTimes::initial(&assay, &TransportConfig::default());
        let costs = CostModel::default();
        let p = problem(&assay, &transport, &costs);
        let spec = SolverKind::Portfolio {
            backends: vec![
                SolverKind::Heuristic {
                    improvement_passes: 0,
                },
                SolverKind::Ilp { max_nodes: 1 },
            ],
        };
        let (sol, trace) = mfhls_obs::with_capture(mfhls_obs::CaptureConfig::default(), || {
            spec.solve(&p).unwrap()
        });
        assert_eq!(sol.stats.ilp_solves, 0);
        assert_eq!(sol.stats.wins_heuristic, 1);
        let skipped: Vec<_> = trace
            .records
            .iter()
            .filter(|r| r.name == "ilp_leg_skipped")
            .collect();
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].class, mfhls_obs::Class::Diagnostic);
        assert_eq!(
            skipped[0].fields[..2],
            [
                (
                    "reason".to_owned(),
                    mfhls_obs::OwnedValue::Str("op_limit".to_owned())
                ),
                (
                    "ops".to_owned(),
                    mfhls_obs::OwnedValue::U64(PORTFOLIO_ILP_OP_LIMIT as u64 + 1)
                ),
            ]
        );
    }

    #[test]
    fn ilp_cutoff_failures_still_count_their_work() {
        let assay = diamond_assay();
        let transport = TransportTimes::initial(&assay, &TransportConfig::default());
        let costs = CostModel::default();
        let p = problem(&assay, &transport, &costs);
        // A 1-node budget can't finish the exact search; the heuristic
        // result must survive with the pruned attempt's counters merged.
        let spec = SolverKind::Portfolio {
            backends: vec![
                SolverKind::Heuristic {
                    improvement_passes: 2,
                },
                SolverKind::Ilp { max_nodes: 1 },
            ],
        };
        let sol = spec.solve(&p).unwrap();
        assert_eq!(sol.stats.portfolio_races, 1);
        assert_eq!(sol.stats.ilp_solves, 1);
    }
}
