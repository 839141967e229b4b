//! Warm-started branch-and-bound over the bounded-variable dual simplex.
//!
//! The search keeps **one** [`BoundedSimplex`] alive for its whole lifetime:
//! branching only ever changes variable bounds, and bound changes preserve
//! dual feasibility of whatever basis the previous node left behind, so an
//! interior node costs a handful of dual pivots instead of a full solve.
//! Branching variables are chosen by reliability-initialized pseudo-costs
//! (binaries first), and a deterministic rounding/diving pass at the root
//! produces an early incumbent for pruning. Everything is sequential and
//! deterministic: same model + config ⇒ same pivots, nodes and solution.

use crate::model::{Model, VarId};
use crate::presolve;
use crate::simplex::{BoundedSimplex, LpProblem, LpRow, SimplexOutcome};
use crate::IlpError;
use std::time::{Duration, Instant};

/// Pivot cap for a single node re-solve (backstop, not a tuning knob).
const NODE_PIVOTS: u64 = 200_000;
/// Pivot cap for one strong-branching probe.
const PROBE_PIVOTS: u64 = 2_000;
/// Pivot cap for one diving step.
const DIVE_PIVOTS: u64 = 20_000;
/// Observations per direction before a variable's pseudo-cost is trusted.
const RELIABILITY: u32 = 1;
/// Total strong-branching probes allowed per search.
const STRONG_BUDGET: u64 = 48;
/// Pseudo-cost gain recorded when a probe proves a child infeasible.
const INFEASIBLE_GAIN: f64 = 1e6;

/// Configuration of the MILP search.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Maximum number of branch-and-bound nodes to explore.
    pub max_nodes: usize,
    /// Optional wall-clock limit.
    pub time_limit: Option<Duration>,
    /// Integrality tolerance.
    pub int_tol: f64,
    /// Optional warm-start assignment. If it is feasible for the model it
    /// becomes the initial incumbent, which lets the search prune early and
    /// guarantees a `Feasible` answer even when limits are hit.
    pub incumbent: Option<Vec<f64>>,
    /// Run activity-based presolve before the search (default: true).
    pub presolve: bool,
    /// Prune any node whose LP bound reaches this objective value, even
    /// before an incumbent exists. Lets a caller inject the objective of an
    /// externally-known solution (e.g. a heuristic) without encoding the
    /// full assignment.
    pub cutoff: Option<f64>,
    /// Carry the simplex basis between nodes (default: true). `false` resets
    /// to the cold all-slack basis before every LP solve — the scratch-solve
    /// baseline used to benchmark the warm-start win.
    pub warm_start: bool,
    /// Deterministic work budget: total simplex pivots across every LP
    /// solve of the search (node re-solves, strong-branching probes,
    /// dives). Unlike `time_limit`, exhaustion is machine-independent —
    /// the same model and config stop at exactly the same pivot, so a
    /// budgeted search stays reproducible. Node budgets cannot play this
    /// role: a node's LP re-solve costs anywhere from a handful of warm
    /// pivots to tens of thousands of cold ones, so `max_nodes` bounds
    /// work only to within several orders of magnitude.
    pub max_pivots: Option<u64>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_nodes: 200_000,
            time_limit: None,
            int_tol: 1e-6,
            incumbent: None,
            presolve: true,
            cutoff: None,
            warm_start: true,
            max_pivots: None,
        }
    }
}

/// How the search concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// The returned solution is proven optimal.
    Optimal,
    /// A feasible solution was found, but a node or time limit stopped the
    /// search before optimality was proven.
    Feasible,
}

/// Where the final incumbent of a search came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IncumbentSource {
    /// No incumbent was produced (only possible on error paths).
    #[default]
    None,
    /// The caller-supplied [`SolverConfig::incumbent`] was never improved.
    Supplied,
    /// The root diving heuristic found it.
    Diving,
    /// The tree search found it at an integral node.
    Search,
}

/// Work counters of one branch-and-bound search. All fields are exact
/// integers so downstream aggregates stay `Eq`-comparable; derived rates
/// (e.g. warm-start reuse) are computed by consumers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveStats {
    /// Branch-and-bound nodes explored.
    pub nodes: u64,
    /// Total simplex pivots across all LP solves (nodes, probes, dives).
    pub pivots: u64,
    /// LP solves that reused the carried basis.
    pub warm_solves: u64,
    /// LP solves started from the cold all-slack basis.
    pub cold_solves: u64,
    /// Strong-branching probes spent initializing pseudo-costs.
    pub strong_branches: u64,
    /// Diving passes attempted.
    pub dives: u64,
    /// Provenance of the returned incumbent.
    pub incumbent_source: IncumbentSource,
}

/// An integer-feasible solution returned by [`solve`].
#[derive(Debug, Clone)]
pub struct MilpSolution {
    values: Vec<f64>,
    /// Objective value of the solution.
    pub objective: f64,
    /// Whether optimality was proven.
    pub status: SolveStatus,
    /// Number of branch-and-bound nodes explored.
    pub nodes: usize,
    /// Work counters of the search that produced this solution.
    pub stats: SolveStats,
}

impl MilpSolution {
    /// Value assigned to `var`. Integer variables are exactly integral.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to the solved model.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }

    /// The dense assignment, indexed by [`VarId::index`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Convenience: `true` iff the binary/integer `var` rounds to 1.
    pub fn is_one(&self, var: VarId) -> bool {
        self.value(var).round() == 1.0
    }
}

/// Solves `model` to integer feasibility/optimality.
///
/// # Errors
///
/// * [`IlpError::Infeasible`] — the search space was exhausted with no
///   integer-feasible point.
/// * [`IlpError::LimitWithoutSolution`] — a limit was hit before any
///   integer-feasible point was found (supply an incumbent to avoid this).
/// * [`IlpError::UnboundedVariable`] — some variable lacks finite bounds.
///
/// # Example
///
/// ```
/// use mfhls_ilp::{Model, Sense, SolverConfig, solve};
///
/// // Knapsack: max 3a + 4b + 5c, weight 2a + 3b + 4c <= 5.
/// let mut m = Model::minimize();
/// let items: Vec<_> = ["a", "b", "c"].iter().map(|n| m.binary(n)).collect();
/// m.add_con(2.0 * items[0] + 3.0 * items[1] + 4.0 * items[2], Sense::Le, 5.0);
/// m.set_objective(-(3.0 * items[0] + 4.0 * items[1] + 5.0 * items[2]));
/// let sol = solve(&m, &SolverConfig::default())?;
/// assert_eq!(sol.objective, -7.0); // picks a and b (weight 5, value 7)
/// # Ok::<(), mfhls_ilp::IlpError>(())
/// ```
pub fn solve(model: &Model, config: &SolverConfig) -> Result<MilpSolution, IlpError> {
    let solution = BranchAndBound::new(model, config)?.run()?;
    // Diagnostic, not logical: under a `time_limit` the search stops on
    // the wall clock, so these counters need not repeat between runs.
    mfhls_obs::diagnostic(
        mfhls_obs::Level::Debug,
        "ilp_solve",
        &[
            ("nodes", solution.stats.nodes.into()),
            ("pivots", solution.stats.pivots.into()),
            ("optimal", (solution.status == SolveStatus::Optimal).into()),
        ],
    );
    Ok(solution)
}

/// Outcome of one LP solve inside the search.
enum NodeLp {
    Optimal(Vec<f64>, f64),
    Infeasible,
    Limit,
}

/// One open node: a bound box plus, for pseudo-cost learning, the branching
/// decision that created it (`variable`, `went up?`, `fractionality at the
/// parent`, `parent LP objective`).
struct Node {
    lb: Vec<f64>,
    ub: Vec<f64>,
    parent: Option<(usize, bool, f64, f64)>,
}

/// The branch-and-bound engine behind [`solve`], exposed for callers that
/// want to inspect work counters (also available after a failed [`run`],
/// unlike [`MilpSolution::stats`]) or reuse a configured instance.
///
/// [`run`]: BranchAndBound::run
pub struct BranchAndBound<'a> {
    model: &'a Model,
    config: &'a SolverConfig,
    sx: BoundedSimplex,
    int_vars: Vec<usize>,
    /// Per-variable flag: true for 0/1 variables (branched first).
    is_binary: Vec<bool>,
    lb0: Vec<f64>,
    ub0: Vec<f64>,
    /// Pseudo-cost sums / observation counts, per variable and direction.
    pc_dn: Vec<f64>,
    pc_up: Vec<f64>,
    n_dn: Vec<u32>,
    n_up: Vec<u32>,
    /// The very first solve uses the basis fresh from construction; it is
    /// counted as a cold solve even in warm-start mode.
    fresh_basis: bool,
    stats: SolveStats,
}

impl<'a> BranchAndBound<'a> {
    /// Prepares the search (validates bounds, applies presolve, builds the
    /// persistent simplex tableau).
    ///
    /// # Errors
    ///
    /// Returns [`IlpError::Infeasible`] if presolve proves infeasibility and
    /// [`IlpError::UnboundedVariable`] for non-finite bounds.
    pub fn new(model: &'a Model, config: &'a SolverConfig) -> Result<Self, IlpError> {
        for (j, v) in model.vars().iter().enumerate() {
            if !v.lb.is_finite() || !v.ub.is_finite() {
                return Err(IlpError::UnboundedVariable { var: j });
            }
        }
        let (lb0, ub0) = if config.presolve {
            match presolve::tighten_bounds(model, 10) {
                presolve::PresolveOutcome::Feasible { lb, ub } => (lb, ub),
                presolve::PresolveOutcome::Infeasible => return Err(IlpError::Infeasible),
            }
        } else {
            (
                model.vars().iter().map(|v| v.lb).collect(),
                model.vars().iter().map(|v| v.ub).collect(),
            )
        };
        let n = model.num_vars();
        let mut objective = vec![0.0; n];
        for (v, c) in model.objective().terms() {
            objective[v.index()] = c;
        }
        let rows = model
            .cons()
            .iter()
            .map(|c| LpRow {
                coeffs: c.expr.terms().map(|(v, co)| (v.index(), co)).collect(),
                sense: c.sense,
                rhs: c.rhs,
            })
            .collect();
        let base = LpProblem {
            ncols: n,
            rows,
            objective,
            lb: lb0.clone(),
            ub: ub0.clone(),
        };
        let sx = BoundedSimplex::new(&base)?;
        let int_vars: Vec<usize> = model.integer_vars().iter().map(|v| v.index()).collect();
        let is_binary = model
            .vars()
            .iter()
            .map(|v| v.kind == crate::model::VarKind::Binary)
            .collect();
        Ok(BranchAndBound {
            model,
            config,
            sx,
            int_vars,
            is_binary,
            lb0,
            ub0,
            pc_dn: vec![0.0; n],
            pc_up: vec![0.0; n],
            n_dn: vec![0; n],
            n_up: vec![0; n],
            fresh_basis: true,
            stats: SolveStats::default(),
        })
    }

    /// Work counters accumulated so far. Valid after [`BranchAndBound::run`]
    /// even when it returned an error (e.g. a cutoff pruned every node).
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Runs the search to completion or to a limit.
    ///
    /// # Errors
    ///
    /// See [`solve`].
    pub fn run(&mut self) -> Result<MilpSolution, IlpError> {
        let start = Instant::now();
        let obj_const = self.model.objective().constant();
        let cutoff = self.config.cutoff;
        // An incumbent is accepted only when it beats the current best AND
        // clears the external cutoff — a cutoff at (or below) a solution's
        // objective means the caller already has something at least as good.
        let accepts = |best: &Option<(f64, Vec<f64>, IncumbentSource)>, obj: f64| {
            best.as_ref().is_none_or(|(b, _, _)| obj < *b - 1e-9)
                && cutoff.is_none_or(|c| obj < c - 1e-9)
        };

        let mut best: Option<(f64, Vec<f64>, IncumbentSource)> = None;
        if let Some(seed) = &self.config.incumbent {
            if self.model.is_feasible(seed, 1e-6) {
                let rounded = self.round_ints(seed.clone());
                let obj = self.model.objective().eval(&rounded);
                if accepts(&best, obj) {
                    best = Some((obj, rounded, IncumbentSource::Supplied));
                }
            }
        }

        let mut stack: Vec<Node> = vec![Node {
            lb: self.lb0.clone(),
            ub: self.ub0.clone(),
            parent: None,
        }];
        let mut limit_hit = false;

        while let Some(node) = stack.pop() {
            if self.stats.nodes >= self.config.max_nodes as u64 {
                limit_hit = true;
                break;
            }
            if let Some(mp) = self.config.max_pivots {
                if self.sx.pivots() >= mp {
                    limit_hit = true;
                    break;
                }
            }
            if let Some(tl) = self.config.time_limit {
                if start.elapsed() >= tl {
                    limit_hit = true;
                    break;
                }
            }
            self.stats.nodes += 1;
            let at_root = self.stats.nodes == 1;

            let (x, obj) = match self.solve_node(&node.lb, &node.ub, NODE_PIVOTS) {
                NodeLp::Optimal(x, obj) => (x, obj),
                NodeLp::Infeasible => continue,
                NodeLp::Limit => {
                    limit_hit = true;
                    break;
                }
            };
            // Pseudo-cost learning: the LP degradation per unit of the
            // fractionality the branch removed.
            if let Some((j, up, frac, parent_obj)) = node.parent {
                let gain = ((obj - parent_obj) / frac.max(1e-6)).max(0.0);
                if up {
                    self.pc_up[j] += gain;
                    self.n_up[j] += 1;
                } else {
                    self.pc_dn[j] += gain;
                    self.n_dn[j] += 1;
                }
            }
            let bound = match (&best, cutoff) {
                (Some((b, _, _)), Some(c)) => Some(b.min(c)),
                (Some((b, _, _)), None) => Some(*b),
                (None, c) => c,
            };
            if let Some(bound) = bound {
                // LP objective excludes the model's objective constant; the
                // incumbent/cutoff objective includes it.
                if obj + obj_const >= bound - 1e-9 {
                    continue;
                }
            }

            // Fractional integer variables of this node's LP optimum.
            let mut cands: Vec<(usize, f64)> = Vec::new();
            for &j in &self.int_vars {
                if (x[j] - x[j].round()).abs() > self.config.int_tol {
                    cands.push((j, x[j]));
                }
            }
            if cands.is_empty() {
                let rounded = self.round_ints(x);
                if self.model.is_feasible(&rounded, 1e-5) {
                    let robj = self.model.objective().eval(&rounded);
                    if accepts(&best, robj) {
                        best = Some((robj, rounded, IncumbentSource::Search));
                    }
                }
                continue;
            }

            // Root diving: chase an early incumbent before growing the tree.
            if at_root {
                if let Some((dobj, dx)) = self.dive(&node.lb, &node.ub, &x) {
                    if accepts(&best, dobj) {
                        best = Some((dobj, dx, IncumbentSource::Diving));
                    }
                }
            }

            let (j, xj) = self.choose_branch(&node.lb, &node.ub, &cands);
            let floor = xj.floor();
            let f_dn = xj - floor;
            // Explore the nearer branch first (pushed last).
            let mut down = Node {
                lb: node.lb.clone(),
                ub: node.ub.clone(),
                parent: Some((j, false, f_dn, obj)),
            };
            down.ub[j] = floor.min(node.ub[j]);
            let mut up = Node {
                lb: node.lb,
                ub: node.ub,
                parent: Some((j, true, 1.0 - f_dn, obj)),
            };
            up.lb[j] = (floor + 1.0).max(up.lb[j]);
            let down_feasible = down.lb[j] <= down.ub[j] + 1e-12;
            let up_feasible = up.lb[j] <= up.ub[j] + 1e-12;
            if f_dn <= 0.5 {
                if up_feasible {
                    stack.push(up);
                }
                if down_feasible {
                    stack.push(down);
                }
            } else {
                if down_feasible {
                    stack.push(down);
                }
                if up_feasible {
                    stack.push(up);
                }
            }
        }

        match best {
            Some((objective, values, source)) => {
                self.stats.incumbent_source = source;
                Ok(MilpSolution {
                    values,
                    objective,
                    status: if limit_hit {
                        SolveStatus::Feasible
                    } else {
                        SolveStatus::Optimal
                    },
                    nodes: self.stats.nodes as usize,
                    stats: self.stats,
                })
            }
            None if limit_hit => Err(IlpError::LimitWithoutSolution),
            None => Err(IlpError::Infeasible),
        }
    }

    /// One LP solve over the persistent simplex. In warm-start mode the
    /// carried basis is reused (it is dual feasible for any bounds); in
    /// scratch mode the tableau is reset to the cold basis first.
    fn solve_node(&mut self, lb: &[f64], ub: &[f64], cap: u64) -> NodeLp {
        // Clamp every per-call cap to the remaining global pivot budget,
        // so probes and dives cannot overrun it either. An exhausted
        // budget (cap 0) still returns `Optimal` when the carried basis
        // needs no pivots — only actual work is rationed.
        let cap = match self.config.max_pivots {
            Some(mp) => cap.min(mp.saturating_sub(self.sx.pivots())),
            None => cap,
        };
        if !self.config.warm_start || self.fresh_basis {
            if !self.fresh_basis {
                self.sx.cold_reset();
            }
            self.stats.cold_solves += 1;
        } else {
            self.stats.warm_solves += 1;
        }
        self.fresh_basis = false;
        self.sx.set_bounds(lb, ub);
        let out = self.sx.solve(cap);
        self.stats.pivots = self.sx.pivots();
        match out {
            SimplexOutcome::Optimal => {
                let (x, obj) = self.sx.extract();
                NodeLp::Optimal(x, obj)
            }
            SimplexOutcome::Infeasible => NodeLp::Infeasible,
            SimplexOutcome::PivotLimit => NodeLp::Limit,
        }
    }

    /// Deterministic rounding/diving heuristic: repeatedly fix the most
    /// fractional integer variable to its nearest integer and repair the LP
    /// with a warm dual-simplex pass. Returns a model-feasible point (and its
    /// true objective, constant included) or `None` if the dive dead-ends.
    fn dive(&mut self, lb0: &[f64], ub0: &[f64], x0: &[f64]) -> Option<(f64, Vec<f64>)> {
        self.stats.dives += 1;
        let mut lb = lb0.to_vec();
        let mut ub = ub0.to_vec();
        let mut x = x0.to_vec();
        for _ in 0..self.int_vars.len() {
            let mut pick: Option<usize> = None;
            let mut worst = self.config.int_tol;
            for &j in &self.int_vars {
                let f = (x[j] - x[j].round()).abs();
                if f > worst {
                    worst = f;
                    pick = Some(j);
                }
            }
            let Some(j) = pick else { break };
            let v = x[j].round().clamp(lb[j], ub[j]);
            lb[j] = v;
            ub[j] = v;
            match self.solve_node(&lb, &ub, DIVE_PIVOTS) {
                NodeLp::Optimal(nx, _) => x = nx,
                _ => return None,
            }
        }
        let rounded = self.round_ints(x);
        if self.model.is_feasible(&rounded, 1e-5) {
            Some((self.model.objective().eval(&rounded), rounded))
        } else {
            None
        }
    }

    /// Picks the branching variable among `cands` (fractional integers):
    /// binaries are preferred outright — fixing structural 0/1 decisions
    /// (bindings, configurations, conflict selectors) collapses the big-M
    /// disjunctions much faster than squeezing start-time integers — then
    /// the pseudo-cost product rule decides, with unreliable pseudo-costs
    /// initialized by bounded strong-branching probes.
    fn choose_branch(&mut self, lb: &[f64], ub: &[f64], cands: &[(usize, f64)]) -> (usize, f64) {
        let nbins = cands.iter().filter(|&&(j, _)| self.is_binary[j]).count();
        let pool: Vec<(usize, f64)> = if nbins > 0 {
            cands
                .iter()
                .copied()
                .filter(|&(j, _)| self.is_binary[j])
                .collect()
        } else {
            cands.to_vec()
        };
        if pool.len() == 1 {
            return pool[0];
        }

        // Reliability initialization: probe unobserved directions with a
        // bounded warm dual solve, in ascending variable order.
        for &(j, xj) in &pool {
            let floor = xj.floor();
            if self.n_dn[j] < RELIABILITY && self.stats.strong_branches < STRONG_BUDGET {
                self.probe(lb, ub, j, floor, false, xj - floor);
            }
            if self.n_up[j] < RELIABILITY && self.stats.strong_branches < STRONG_BUDGET {
                self.probe(lb, ub, j, floor, true, (floor + 1.0) - xj);
            }
        }

        let mut best = pool[0];
        let mut best_score = f64::NEG_INFINITY;
        for &(j, xj) in &pool {
            let f_dn = xj - xj.floor();
            let f_up = 1.0 - f_dn;
            let avg_dn = if self.n_dn[j] > 0 {
                self.pc_dn[j] / f64::from(self.n_dn[j])
            } else {
                1.0
            };
            let avg_up = if self.n_up[j] > 0 {
                self.pc_up[j] / f64::from(self.n_up[j])
            } else {
                1.0
            };
            let score = (avg_dn * f_dn).max(1e-6) * (avg_up * f_up).max(1e-6);
            if score > best_score + 1e-12 {
                best_score = score;
                best = (j, xj);
            }
        }
        best
    }

    /// One strong-branching probe: solve the would-be child LP under a pivot
    /// cap and record the observed degradation as a pseudo-cost observation.
    fn probe(&mut self, lb: &[f64], ub: &[f64], j: usize, floor: f64, up: bool, frac: f64) {
        self.stats.strong_branches += 1;
        let base = self.sx.extract().1;
        let mut clb = lb.to_vec();
        let mut cub = ub.to_vec();
        if up {
            clb[j] = (floor + 1.0).max(clb[j]);
        } else {
            cub[j] = floor.min(cub[j]);
        }
        if clb[j] > cub[j] + 1e-12 {
            // Empty child: branching this way closes the subtree outright.
            let (pc, n) = if up {
                (&mut self.pc_up[j], &mut self.n_up[j])
            } else {
                (&mut self.pc_dn[j], &mut self.n_dn[j])
            };
            *pc += INFEASIBLE_GAIN;
            *n += 1;
            return;
        }
        let gain = match self.solve_node(&clb, &cub, PROBE_PIVOTS) {
            NodeLp::Optimal(_, child_obj) => ((child_obj - base) / frac.max(1e-6)).max(0.0),
            NodeLp::Infeasible => INFEASIBLE_GAIN,
            NodeLp::Limit => return, // unobserved; budget still consumed
        };
        if up {
            self.pc_up[j] += gain;
            self.n_up[j] += 1;
        } else {
            self.pc_dn[j] += gain;
            self.n_dn[j] += 1;
        }
    }

    fn round_ints(&self, mut x: Vec<f64>) -> Vec<f64> {
        for &j in &self.int_vars {
            x[j] = x[j].round();
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Model, Sense};

    fn cfg() -> SolverConfig {
        SolverConfig::default()
    }

    #[test]
    fn knapsack_small() {
        let mut m = Model::minimize();
        let a = m.binary("a");
        let b = m.binary("b");
        let c = m.binary("c");
        m.add_con(2.0 * a + 3.0 * b + 4.0 * c, Sense::Le, 5.0);
        m.set_objective(-(3.0 * a + 4.0 * b + 5.0 * c));
        let sol = solve(&m, &cfg()).unwrap();
        assert_eq!(sol.objective, -7.0);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!(sol.is_one(a) && sol.is_one(b) && !sol.is_one(c));
    }

    #[test]
    fn integer_rounding_matters() {
        // LP optimum is fractional; ILP must branch.
        // max x + y s.t. 2x + 2y <= 3, integers -> best 1.
        let mut m = Model::minimize();
        let x = m.integer("x", 0.0, 5.0);
        let y = m.integer("y", 0.0, 5.0);
        m.add_con(2.0 * x + 2.0 * y, Sense::Le, 3.0);
        m.set_objective(-(x + y));
        let sol = solve(&m, &cfg()).unwrap();
        assert_eq!(sol.objective, -1.0);
    }

    #[test]
    fn infeasible_integer_program() {
        // 2x == 1 with x integer.
        let mut m = Model::minimize();
        let x = m.integer("x", 0.0, 5.0);
        m.add_con(2.0 * x, Sense::Eq, 1.0);
        assert!(matches!(solve(&m, &cfg()), Err(IlpError::Infeasible)));
    }

    #[test]
    fn equality_with_integers() {
        // x + y == 4, minimize |x - 3| proxy: minimize (3 - x) with x <= 3.
        let mut m = Model::minimize();
        let x = m.integer("x", 0.0, 3.0);
        let y = m.integer("y", 0.0, 10.0);
        m.add_con(x + y, Sense::Eq, 4.0);
        m.set_objective(-(1.0 * x));
        let sol = solve(&m, &cfg()).unwrap();
        assert_eq!(sol.value(x), 3.0);
        assert_eq!(sol.value(y), 1.0);
    }

    #[test]
    fn objective_constant_is_respected() {
        let mut m = Model::minimize();
        let x = m.binary("x");
        m.set_objective(x + 10.0);
        let sol = solve(&m, &cfg()).unwrap();
        assert_eq!(sol.objective, 10.0);
        assert_eq!(sol.value(x), 0.0);
    }

    #[test]
    fn warm_incumbent_is_used_under_zero_node_limit() {
        let mut m = Model::minimize();
        let x = m.binary("x");
        m.set_objective(1.0 * x);
        let config = SolverConfig {
            max_nodes: 0,
            incumbent: Some(vec![1.0]),
            ..SolverConfig::default()
        };
        let sol = solve(&m, &config).unwrap();
        assert_eq!(sol.status, SolveStatus::Feasible);
        assert_eq!(sol.objective, 1.0);
        assert_eq!(sol.stats.incumbent_source, IncumbentSource::Supplied);
    }

    #[test]
    fn limit_without_incumbent_errors() {
        let mut m = Model::minimize();
        let x = m.binary("x");
        m.set_objective(1.0 * x);
        let config = SolverConfig {
            max_nodes: 0,
            ..SolverConfig::default()
        };
        assert!(matches!(
            solve(&m, &config),
            Err(IlpError::LimitWithoutSolution)
        ));
    }

    #[test]
    fn infeasible_incumbent_is_ignored() {
        let mut m = Model::minimize();
        let x = m.binary("x");
        m.add_con(1.0 * x, Sense::Ge, 1.0);
        m.set_objective(1.0 * x);
        let config = SolverConfig {
            incumbent: Some(vec![0.0]), // violates x >= 1
            ..SolverConfig::default()
        };
        let sol = solve(&m, &config).unwrap();
        assert_eq!(sol.objective, 1.0);
    }

    #[test]
    fn big_m_disjunction() {
        // Either x >= 5 or y >= 5 via big-M with binary selector.
        let mut m = Model::minimize();
        let x = m.integer("x", 0.0, 10.0);
        let y = m.integer("y", 0.0, 10.0);
        let q = m.binary("q");
        let big = 100.0;
        // x >= 5 - M q ; y >= 5 - M (1 - q)
        m.add_con(1.0 * x + big * q, Sense::Ge, 5.0);
        m.add_con(1.0 * y - big * q, Sense::Ge, 5.0 - big);
        m.set_objective(x + y);
        let sol = solve(&m, &cfg()).unwrap();
        assert_eq!(sol.objective, 5.0);
    }

    #[test]
    fn scratch_mode_agrees_with_warm_start() {
        // Same optimum either way; scratch mode must report zero warm solves.
        let mut m = Model::minimize();
        let x = m.integer("x", 0.0, 7.0);
        let y = m.integer("y", 0.0, 7.0);
        let q = m.binary("q");
        m.add_con(3.0 * x + 5.0 * y, Sense::Le, 19.0);
        m.add_con(1.0 * x + 1.0 * y - 4.0 * q, Sense::Ge, -1.0);
        m.set_objective(-(2.0 * x + 3.0 * y) + 1.0 * q);
        let warm = solve(&m, &cfg()).unwrap();
        let scratch = solve(
            &m,
            &SolverConfig {
                warm_start: false,
                ..cfg()
            },
        )
        .unwrap();
        assert_eq!(warm.objective, scratch.objective);
        assert_eq!(scratch.stats.warm_solves, 0);
        assert!(warm.stats.warm_solves > 0 || warm.stats.nodes <= 1);
        assert!(warm.stats.pivots > 0 && scratch.stats.pivots > 0);
    }

    #[test]
    fn stats_survive_failed_runs() {
        // A cutoff at the optimum prunes everything; the counters must still
        // be readable from the engine.
        let mut m = Model::minimize();
        let x = m.binary("x");
        m.add_con(1.0 * x, Sense::Ge, 1.0);
        m.set_objective(1.0 * x);
        let config = SolverConfig {
            cutoff: Some(1.0),
            ..SolverConfig::default()
        };
        let mut bb = BranchAndBound::new(&m, &config).unwrap();
        assert!(bb.run().is_err());
        assert!(bb.stats().nodes >= 1);
        assert_eq!(bb.stats().incumbent_source, IncumbentSource::None);
    }

    /// The knapsack model of `knapsack_small`, shared by the pivot-budget
    /// tests: its cold root LP needs at least one pivot, so a zero budget
    /// is guaranteed to starve the search.
    fn knapsack() -> Model {
        let mut m = Model::minimize();
        let a = m.binary("a");
        let b = m.binary("b");
        let c = m.binary("c");
        m.add_con(2.0 * a + 3.0 * b + 4.0 * c, Sense::Le, 5.0);
        m.set_objective(-(3.0 * a + 4.0 * b + 5.0 * c));
        m
    }

    #[test]
    fn pivot_budget_starves_the_search() {
        let m = knapsack();
        // No budget to pivot and nothing in hand: the search must report
        // the limit, not fabricate a solution.
        let starved = SolverConfig {
            max_pivots: Some(0),
            ..SolverConfig::default()
        };
        assert!(matches!(
            solve(&m, &starved),
            Err(IlpError::LimitWithoutSolution)
        ));
        // A supplied incumbent survives budget exhaustion as `Feasible`.
        let seeded = SolverConfig {
            max_pivots: Some(0),
            incumbent: Some(vec![1.0, 1.0, 0.0]),
            ..SolverConfig::default()
        };
        let sol = solve(&m, &seeded).unwrap();
        assert_eq!(sol.status, SolveStatus::Feasible);
        assert_eq!(sol.objective, -7.0);
        assert_eq!(sol.stats.incumbent_source, IncumbentSource::Supplied);
    }

    #[test]
    fn pivot_budget_is_deterministic_and_roomy_budgets_stay_optimal() {
        let m = knapsack();
        // A generous budget changes nothing about the answer.
        let roomy = solve(
            &m,
            &SolverConfig {
                max_pivots: Some(10_000),
                ..SolverConfig::default()
            },
        )
        .unwrap();
        assert_eq!(roomy.status, SolveStatus::Optimal);
        assert_eq!(roomy.objective, -7.0);
        // A tight budget stops at exactly the same pivot every run — the
        // property the portfolio racer's determinism rests on.
        let tight = || {
            let config = SolverConfig {
                max_pivots: Some(3),
                incumbent: Some(vec![1.0, 0.0, 0.0]),
                ..SolverConfig::default()
            };
            solve(&m, &config).unwrap()
        };
        let (one, two) = (tight(), tight());
        assert_eq!(one.status, two.status);
        assert_eq!(one.objective, two.objective);
        assert_eq!(one.stats.nodes, two.stats.nodes);
        assert_eq!(one.stats.pivots, two.stats.pivots);
        // The clamp in `solve_node` makes the budget a hard ceiling.
        assert!(one.stats.pivots <= 3);
    }

    /// Exhaustive cross-check on random small pure-integer programs.
    #[test]
    fn randomised_against_enumeration() {
        let mut rng = mfhls_graph::rng::SplitMix64::seed_from_u64(99);
        for trial in 0..60 {
            let n = rng.gen_index(1, 4);
            let m_rows = rng.gen_index(0, 4);
            let ubs: Vec<i64> = (0..n).map(|_| rng.gen_range_i64(0, 4)).collect();
            let mut model = Model::minimize();
            let vars: Vec<VarId> = (0..n)
                .map(|j| model.integer(&format!("v{j}"), 0.0, ubs[j] as f64))
                .collect();
            let rows: Vec<(Vec<i64>, Sense, i64)> = (0..m_rows)
                .map(|_| {
                    let coeffs: Vec<i64> = (0..n).map(|_| rng.gen_range_i64(-3, 4)).collect();
                    let sense = match rng.gen_index(0, 3) {
                        0 => Sense::Le,
                        1 => Sense::Ge,
                        _ => Sense::Eq,
                    };
                    (coeffs, sense, rng.gen_range_i64(-4, 8))
                })
                .collect();
            for (coeffs, sense, rhs) in &rows {
                let expr = crate::LinExpr::weighted_sum(
                    vars.iter().zip(coeffs).map(|(&v, &c)| (v, c as f64)),
                );
                model.add_con(expr, *sense, *rhs as f64);
            }
            let obj_coeffs: Vec<i64> = (0..n).map(|_| rng.gen_range_i64(-3, 4)).collect();
            model.set_objective(crate::LinExpr::weighted_sum(
                vars.iter().zip(&obj_coeffs).map(|(&v, &c)| (v, c as f64)),
            ));

            // Enumerate.
            let mut best: Option<f64> = None;
            let mut assign = vec![0i64; n];
            loop {
                let xs: Vec<f64> = assign.iter().map(|&v| v as f64).collect();
                if model.is_feasible(&xs, 1e-9) {
                    let o = model.objective().eval(&xs);
                    best = Some(best.map_or(o, |b: f64| b.min(o)));
                }
                // increment odometer
                let mut k = 0;
                loop {
                    if k == n {
                        break;
                    }
                    assign[k] += 1;
                    if assign[k] <= ubs[k] {
                        break;
                    }
                    assign[k] = 0;
                    k += 1;
                }
                if k == n {
                    break;
                }
            }

            match (solve(&model, &cfg()), best) {
                (Ok(sol), Some(b)) => {
                    assert!(
                        (sol.objective - b).abs() < 1e-6,
                        "trial {trial}: solver {} vs enumeration {b}",
                        sol.objective
                    );
                }
                (Err(IlpError::Infeasible), None) => {}
                (got, want) => panic!("trial {trial}: solver {got:?} vs enumeration {want:?}"),
            }
        }
    }
}
