//! The faithful per-layer ILP model of §4, solved with `mfhls-ilp`.
//!
//! Variables follow Table 1 of the paper, with the encoding notes from
//! `DESIGN.md` §5:
//!
//! * device configuration (eqs. 1–4) is encoded as six (container,
//!   capacity) *configuration binaries* per new device — exactly the six
//!   fabricable pairs — whose sum is the device's *used* indicator; this
//!   linearises the per-kind capacity pricing of eqs. 16–17 exactly;
//! * component-oriented consistence (eqs. 5–8) links binding variables to
//!   configuration/accessory binaries;
//! * dependencies (eq. 9), big-M device-conflict disjunctions (eqs. 10–13),
//!   indeterminate-at-end (eq. 14), makespan (eq. 15) and path counting
//!   (eq. 21) are transcribed directly;
//! * the objective is `C_t·sum_t + C_a·sum_a + C_pr·sum_pr + C_p·sum_p`.
//!
//! Devices inherited from other layers have fixed configurations and zero
//! marginal cost; new devices are priced by their chosen configuration.
//! Exactness is cross-checked against exhaustive search and the heuristic
//! solver in the test-suite. The model grows as
//! `O(|ops|² · |devices|)`; with the warm-started bounded-variable simplex
//! behind `mfhls-ilp` (DESIGN.md §9) it is practical for paper-scale layers
//! of ~25 operations. Beyond that a [`SolverKind::Portfolio`](crate::SolverKind)
//! races the heuristic first and gates the exact leg by layer size and by a
//! deterministic pivot-work budget ([`IlpLayerSolver::pivot_work`]), so the
//! search is bounded by its problem, never by a clock.

use crate::problem::path_key;
use crate::{CoreError, LayerProblem, LayerSolution, LayerSolver, OpId, ScheduledOp};
use mfhls_chip::{Accessory, Capacity, ContainerKind, DeviceConfig};
use mfhls_ilp::{LinExpr, Model, Sense, SolverConfig, VarId};
use std::collections::{BTreeMap, BTreeSet};

/// The six fabricable (container, capacity) configurations.
const CONFIGS: [(ContainerKind, Capacity); 6] = [
    (ContainerKind::Ring, Capacity::Large),
    (ContainerKind::Ring, Capacity::Medium),
    (ContainerKind::Ring, Capacity::Small),
    (ContainerKind::Chamber, Capacity::Medium),
    (ContainerKind::Chamber, Capacity::Small),
    (ContainerKind::Chamber, Capacity::Tiny),
];

/// Exact layer solver backed by the branch-and-bound MILP engine.
#[derive(Debug, Clone, Copy)]
pub struct IlpLayerSolver {
    /// Branch-and-bound node budget.
    pub max_nodes: usize,
    /// Optional objective cutoff (e.g. a heuristic solution's objective):
    /// the search only explores strictly better nodes.
    pub cutoff: Option<u64>,
    /// Carry the simplex basis across branch-and-bound nodes (default:
    /// true). `false` cold-solves every node — the scratch baseline used to
    /// benchmark the warm-start win.
    pub warm_start: bool,
    /// Deterministic work budget in *tableau cells*: a simplex pivot
    /// updates at most rows × columns cells (it touches only the pivot
    /// row's nonzero columns in the rows it changes, so that is an upper
    /// bound), and dividing this by the model's dimensions yields a pivot
    /// budget that scales with the work across model sizes — a
    /// paper-scale layer's tableau holds hundreds of times the cells of a
    /// small corpus layer's, which no flat pivot (let alone node) budget
    /// can bound evenly. The budget counts cells, not time, so a faster
    /// pivot leaves it and every gate derived from it unchanged. The
    /// dimensions are counted before the model is built. When the budget
    /// affords fewer pivots than the model has rows — less than one basis
    /// change per row, so the root LP seldom even finishes — the solve is
    /// skipped without allocating anything: it returns [`CoreError::Ilp`]
    /// with zero counters and emits an `ilp_leg_skipped` diagnostic.
    /// Otherwise the budget becomes the search's total-pivot cap
    /// ([`mfhls_ilp::SolverConfig::max_pivots`]). The portfolio racer keys
    /// its ILP legs on this.
    pub pivot_work: Option<u64>,
}

impl Default for IlpLayerSolver {
    fn default() -> Self {
        IlpLayerSolver {
            max_nodes: 200_000,
            cutoff: None,
            warm_start: true,
            pivot_work: None,
        }
    }
}

impl IlpLayerSolver {
    /// Like [`LayerSolver::solve`], but also returns the solver work
    /// counters — populated even when the solve *fails* (e.g. the cutoff
    /// pruned every node, as routinely happens to a portfolio's exact leg
    /// behind a good heuristic result), which `solve` cannot report.
    pub fn solve_with_stats(
        &self,
        p: &LayerProblem<'_>,
    ) -> (Result<LayerSolution, CoreError>, crate::SolverStats) {
        if !p.component_oriented {
            return (
                Err(CoreError::Ilp(
                    "the exact back-end only implements the component-oriented model; \
                     use the heuristic solver for the conventional baseline"
                        .to_owned(),
                )),
                crate::SolverStats::default(),
            );
        }
        let facts = ModelFacts::of(p);
        // `pivot_work` is denominated in tableau cells; the simplex works
        // on an m × (n + m) tableau, so one pivot costs at most m·(n+m)
        // cells. Decided from the counted dimensions, before the model or
        // its tableau is allocated.
        let max_pivots = match self.pivot_work {
            None => None,
            Some(work) => {
                let (rows, cols) = facts.dims(p);
                let m = rows as u64;
                let affordable = work / m.saturating_mul(m + cols as u64).max(1);
                if affordable < m {
                    leg_skipped("budget", p.ops.len(), rows, cols, affordable);
                    return (
                        Err(CoreError::Ilp(format!(
                            "work budget affords {affordable} pivots on a {rows}-row model; \
                             exact leg skipped"
                        ))),
                        crate::SolverStats::default(),
                    );
                }
                Some(affordable.max(1))
            }
        };
        let built = build_model(p, &facts);
        let config = SolverConfig {
            max_nodes: self.max_nodes,
            cutoff: self.cutoff.map(|c| c as f64),
            warm_start: self.warm_start,
            max_pivots,
            ..SolverConfig::default()
        };
        let mut bb = match mfhls_ilp::BranchAndBound::new(&built.model, &config) {
            Ok(bb) => bb,
            // Presolve proved infeasibility (or a malformed bound): no
            // search ran, so there are no counters to report.
            Err(e) => {
                return (
                    Err(CoreError::Ilp(e.to_string())),
                    crate::SolverStats {
                        ilp_solves: 1,
                        ..crate::SolverStats::default()
                    },
                )
            }
        };
        match bb.run() {
            Ok(sol) => {
                let stats = core_stats(bb.stats(), sol.status == mfhls_ilp::SolveStatus::Optimal);
                (Ok(decode(p, &built, &sol, stats)), stats)
            }
            Err(e) => (
                Err(CoreError::Ilp(e.to_string())),
                core_stats(bb.stats(), false),
            ),
        }
    }
}

/// Records an exact leg that sat out: `reason` is `op_limit` (the
/// portfolio's size pre-check, decided before counting, so `rows`, `cols`
/// and `pivots_affordable` are 0) or `budget` (the pivot-work gate in
/// [`IlpLayerSolver::solve_with_stats`]). Diagnostic, not logical: a layer
/// served from the cache runs no race, so how many skips a trace shows
/// depends on the cache setting and, behind a shared cache, on its
/// history.
pub(crate) fn leg_skipped(
    reason: &str,
    ops: usize,
    rows: usize,
    cols: usize,
    pivots_affordable: u64,
) {
    mfhls_obs::diagnostic(
        mfhls_obs::Level::Debug,
        "ilp_leg_skipped",
        &[
            ("reason", reason.into()),
            ("ops", ops.into()),
            ("rows", rows.into()),
            ("cols", cols.into()),
            ("pivots_affordable", pivots_affordable.into()),
        ],
    );
}

/// Converts the `mfhls-ilp` counters into the aggregate-friendly core type.
fn core_stats(s: mfhls_ilp::SolveStats, optimal: bool) -> crate::SolverStats {
    crate::SolverStats {
        ilp_solves: 1,
        proven_optimal: u64::from(optimal),
        nodes: s.nodes,
        pivots: s.pivots,
        warm_solves: s.warm_solves,
        cold_solves: s.cold_solves,
        incumbents_supplied: u64::from(s.incumbent_source == mfhls_ilp::IncumbentSource::Supplied),
        incumbents_diving: u64::from(s.incumbent_source == mfhls_ilp::IncumbentSource::Diving),
        incumbents_search: u64::from(s.incumbent_source == mfhls_ilp::IncumbentSource::Search),
        heuristic_rounds: 0,
        rebind_adoptions: 0,
        ..crate::SolverStats::default()
    }
}

impl LayerSolver for IlpLayerSolver {
    fn solve(&self, p: &LayerProblem<'_>) -> Result<LayerSolution, CoreError> {
        self.solve_with_stats(p).0
    }
}

/// Builds the layer's MILP and serialises it in CPLEX LP format, e.g. to
/// cross-check our solver against an external one (the paper used Gurobi,
/// which reads this format directly).
///
/// # Example
///
/// ```
/// use mfhls_core::{ilp_model, Assay, Duration, LayerProblem, Operation, TransportConfig, TransportTimes, Weights};
///
/// let mut assay = Assay::new("demo");
/// assay.add_op(Operation::new("mix").with_duration(Duration::fixed(5)));
/// let costs = mfhls_chip::CostModel::default();
/// let transport = TransportTimes::initial(&assay, &TransportConfig::default());
/// let problem = LayerProblem {
///     assay: &assay,
///     ops: assay.op_ids().collect(),
///     devices: vec![],
///     bindable: vec![],
///     max_devices: 3,
///     transport: &transport,
///     weights: Weights::default(),
///     costs: &costs,
///     existing_paths: Default::default(),
///     cross_inputs: vec![],
///     component_oriented: true,
/// };
/// let lp = ilp_model::export_lp(&problem);
/// assert!(lp.contains("Minimize"));
/// ```
pub fn export_lp(p: &LayerProblem<'_>) -> String {
    mfhls_ilp::write::to_lp_format(&build_model(p, &ModelFacts::of(p)).model)
}

struct BuiltModel {
    model: Model,
    /// start variable per op (parallel to `problem.ops`).
    start: Vec<VarId>,
    /// binding variable per (op index, device index); absent = forbidden.
    bind: BTreeMap<(usize, usize), VarId>,
    /// configuration binaries per new device (device index -> 6 vars).
    conf: BTreeMap<usize, [VarId; 6]>,
    /// accessory binaries per new device.
    acc: BTreeMap<usize, [VarId; 5]>,
    n_devices: usize,
}

/// The index sets [`build_model`] walks, gathered once per problem: the
/// device slots, which slots each op may bind to, the in-layer
/// dependencies, the op pairs that need a device-conflict disjunction and
/// the indeterminate ops. [`ModelFacts::dims`] counts the model from them
/// before anything is built, and `build_model` emits its rows and columns
/// from the same sets — the eq.-21 path rows through one shared walker —
/// so the count cannot drift from the build.
struct ModelFacts {
    /// Inherited devices; slots `n_existing..n_devices` are new devices.
    n_existing: usize,
    n_devices: usize,
    /// Row-major `ops × n_devices` mask: op `i` may bind to slot `j`
    /// (the model has a `bind_i_j` variable).
    candidate: Vec<bool>,
    /// In-layer dependencies as (parent, child) op indices.
    internal: Vec<(usize, usize)>,
    /// Cross-layer inputs as (child op index, parent's device).
    cross: Vec<(usize, usize)>,
    /// Op pairs `a < b` not ordered by an in-layer dependency path.
    free_pairs: Vec<(usize, usize)>,
    /// Indices of the indeterminate ops.
    indeterminate: Vec<usize>,
    /// Side of the square path-key matrices: every device slot and every
    /// cross-layer parent's device.
    path_dim: usize,
    /// Row-major `path_dim × path_dim` mask over path keys `(a, b)`,
    /// `a <= b`: the path was inherited from an earlier layer.
    existing: Vec<bool>,
}

impl ModelFacts {
    fn of(p: &LayerProblem<'_>) -> ModelFacts {
        let ops = &p.ops;
        let n = ops.len();
        let n_existing = p.devices.len();
        let bindable = |d: usize| p.bindable.get(d).copied().unwrap_or(false);
        // New-device slots: the budget counts only *bindable* inherited
        // devices (masked-out D'_i slots are free for reconfiguration,
        // §3.2), and never exceeds what the layer's ops could use.
        let n_bindable = (0..n_existing).filter(|&d| bindable(d)).count();
        let n_new = p.max_devices.saturating_sub(n_bindable).min(n);
        let n_devices = n_existing + n_new;
        let mut candidate = Vec::with_capacity(n * n_devices);
        for &op in ops {
            let req = p.assay.op(op).requirements();
            // Existing devices: compatibility is a constant. New devices
            // may take any configuration.
            candidate.extend(
                (0..n_devices)
                    .map(|j| j >= n_existing || (bindable(j) && p.devices[j].satisfies(req))),
            );
        }
        let idx_of: BTreeMap<OpId, usize> = ops.iter().enumerate().map(|(i, &o)| (o, i)).collect();
        let internal: Vec<(usize, usize)> = p
            .internal_deps()
            .iter()
            .map(|(a, b)| (idx_of[a], idx_of[b]))
            .collect();
        let cross = p
            .cross_inputs
            .iter()
            .map(|(child, pd)| (idx_of[child], *pd))
            .collect();
        // Pairs already ordered by a dependency path within the layer need
        // no conflict disjunction.
        let mut g = mfhls_graph::Digraph::new(n);
        for &(a, b) in &internal {
            g.add_edge(a, b).expect("layer edge");
        }
        let desc = mfhls_graph::reach::all_descendants(&g);
        let free_pairs = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .filter(|&(a, b)| !desc[a].contains(b) && !desc[b].contains(a))
            .collect();
        let indeterminate = (0..n)
            .filter(|&i| p.assay.op(ops[i]).is_indeterminate())
            .collect();
        let path_dim = p
            .cross_inputs
            .iter()
            .map(|&(_, pd)| pd + 1)
            .fold(n_devices, usize::max);
        let mut existing = vec![false; path_dim * path_dim];
        for &(a, b) in &p.existing_paths {
            if a <= b && b < path_dim {
                existing[a * path_dim + b] = true;
            }
        }
        ModelFacts {
            n_existing,
            n_devices,
            candidate,
            internal,
            cross,
            free_pairs,
            indeterminate,
            path_dim,
            existing,
        }
    }

    /// Index of the path key `(a, b)`, `a <= b`, in the path-key matrices.
    fn path_index(&self, (a, b): (usize, usize)) -> usize {
        a * self.path_dim + b
    }

    fn can_bind(&self, op: usize, slot: usize) -> bool {
        self.candidate[op * self.n_devices + slot]
    }

    /// Device slots both ops may bind to: one eq.-12 (or exclusivity) row
    /// each.
    fn shared_slots(&self, a: usize, b: usize) -> usize {
        (0..self.n_devices)
            .filter(|&j| self.can_bind(a, j) && self.can_bind(b, j))
            .count()
    }

    /// Visits every eq.-21 path row in build order with the binding of the
    /// sending op (`None` for a cross-layer parent, already placed), the
    /// binding of the receiving op and the path key the transfer would pay
    /// for. Paths inherited from earlier layers are already paid for and
    /// get no row.
    fn for_each_path_row(
        &self,
        mut row: impl FnMut(Option<(usize, usize)>, (usize, usize), (usize, usize)),
    ) {
        for &(a, b) in &self.internal {
            for d1 in 0..self.n_devices {
                for d2 in 0..self.n_devices {
                    if d1 == d2 || !self.can_bind(a, d1) || !self.can_bind(b, d2) {
                        continue;
                    }
                    let key = path_key(d1, d2);
                    if !self.existing[self.path_index(key)] {
                        row(Some((a, d1)), (b, d2), key);
                    }
                }
            }
        }
        for &(child, pd) in &self.cross {
            for d in 0..self.n_devices {
                if d == pd || !self.can_bind(child, d) {
                    continue;
                }
                let key = path_key(pd, d);
                if !self.existing[self.path_index(key)] {
                    row(None, (child, d), key);
                }
            }
        }
    }

    /// The eq.-21 path rows and the distinct path keys they pay for (one
    /// column each).
    fn path_counts(&self) -> (usize, usize) {
        let (mut rows, mut keys) = (0, 0);
        let mut seen = vec![false; self.existing.len()];
        self.for_each_path_row(|_, _, key| {
            rows += 1;
            let k = self.path_index(key);
            if !seen[k] {
                seen[k] = true;
                keys += 1;
            }
        });
        (rows, keys)
    }

    /// `(rows, columns)` of the model [`build_model`] makes from these
    /// facts, counted without building it.
    fn dims(&self, p: &LayerProblem<'_>) -> (usize, usize) {
        let n = p.ops.len();
        let n_new = self.n_devices - self.n_existing;
        let binds = self.candidate.iter().filter(|&&c| c).count();
        let kind_and_accessory_rows: usize = p
            .ops
            .iter()
            .map(|&op| 1 + p.assay.op(op).requirements().accessories.len())
            .sum();
        let conflict_rows: usize = self
            .free_pairs
            .iter()
            .map(|&(a, b)| 3 + self.shared_slots(a, b))
            .sum();
        let ind = &self.indeterminate;
        let exclusive_rows: usize = ind
            .iter()
            .enumerate()
            .flat_map(|(x, &a)| ind[x + 1..].iter().map(move |&b| (a, b)))
            .map(|(a, b)| self.shared_slots(a, b))
            .sum();
        let (path_rows, path_keys) = self.path_counts();
        let rows = 6 * n_new // used <= 1, accessories only on used devices
            + n_new.saturating_sub(1) // symmetry breaking
            + n_new * kind_and_accessory_rows + n // eqs. 6-7, eq. 5
            + self.internal.len() // eq. 9
            + conflict_rows // eqs. 10-13
            + ind.len() * n.saturating_sub(1) + exclusive_rows // eq. 14
            + n // eq. 15
            + path_rows; // eq. 21
        let cols = 11 * n_new + binds + n + 3 * self.free_pairs.len() + 1 + path_keys;
        (rows, cols)
    }
}

fn build_model(p: &LayerProblem<'_>, facts: &ModelFacts) -> BuiltModel {
    let mut m = Model::minimize();
    let ops = &p.ops;
    let n = ops.len();
    let (n_existing, n_devices) = (facts.n_existing, facts.n_devices);
    let horizon = p.horizon() as f64;
    // Eq. 10 with q0 = 1 must hold for every feasible assignment:
    // st_a + M >= st_b + dur_b + t_b, worst case st_a = 0, st_b = horizon,
    // so M must exceed horizon + max(dur + t). Twice the horizon is a safe
    // and still reasonably tight choice.
    let big_m = horizon * 2.0;

    let dur = |i: usize| p.assay.op(ops[i]).duration().min_duration() as f64;
    let inside: BTreeSet<OpId> = ops.iter().copied().collect();
    // Effective transport: reserved only when the op has an in-layer child
    // (cross-layer transfers ride the barrier), mirroring the heuristic.
    let t_eff = |i: usize| {
        if p.assay.children(ops[i]).iter().any(|c| inside.contains(c)) {
            p.transport.of(ops[i]) as f64
        } else {
            0.0
        }
    };

    // ---- Device configuration (eqs. 1-4 via configuration binaries) ------
    let mut conf = BTreeMap::new();
    let mut acc = BTreeMap::new();
    for j in n_existing..n_devices {
        let c: [VarId; 6] = std::array::from_fn(|k| {
            m.binary(&format!("conf_{j}_{}{}", CONFIGS[k].0, CONFIGS[k].1))
        });
        let a: [VarId; 5] =
            std::array::from_fn(|y| m.binary(&format!("acc_{j}_{}", Accessory::ALL[y])));
        // used_j = sum conf <= 1 (a slot may stay unused).
        m.add_con(LinExpr::sum(c), Sense::Le, 1.0);
        // Accessories only on used devices.
        for &av in &a {
            m.add_con(av - LinExpr::sum(c), Sense::Le, 0.0);
        }
        conf.insert(j, c);
        acc.insert(j, a);
    }
    // Symmetry breaking: used_j >= used_{j+1}.
    for j in n_existing..n_devices.saturating_sub(1) {
        let expr = LinExpr::sum(conf[&j]) - LinExpr::sum(conf[&(j + 1)]);
        m.add_con(expr, Sense::Ge, 0.0);
    }

    // ---- Binding variables + consistence (eqs. 5-8) ----------------------
    let mut bind = BTreeMap::new();
    for (i, &op) in ops.iter().enumerate() {
        let req = p.assay.op(op).requirements();
        let mut choices = LinExpr::new();
        for j in (0..n_devices).filter(|&j| facts.can_bind(i, j)) {
            let v = m.binary(&format!("bind_{i}_{j}"));
            bind.insert((i, j), v);
            choices.add_term(v, 1.0);
            if j < n_existing {
                continue;
            }
            // Container kind (eq. 6).
            let kind_set: Vec<VarId> = CONFIGS
                .iter()
                .enumerate()
                .filter(|(_, (k, cap))| {
                    req.container.is_none_or(|rk| rk == *k)
                        && req.capacity.is_none_or(|rc| rc == *cap)
                })
                .map(|(k, _)| conf[&j][k])
                .collect();
            // bind <= sum of allowed configs (also enforces "used").
            m.add_con(v - LinExpr::sum(kind_set), Sense::Le, 0.0);
            // Accessories (eq. 7).
            for a_req in req.accessories.iter() {
                m.add_con(v - acc[&j][a_req.index()], Sense::Le, 0.0);
            }
        }
        // Eq. 5: exactly one device.
        m.add_con(choices, Sense::Eq, 1.0);
    }

    // ---- Start times + dependencies (eq. 9) ------------------------------
    let start: Vec<VarId> = (0..n)
        .map(|i| m.integer(&format!("st_{i}"), 0.0, horizon))
        .collect();
    for &(a, b) in &facts.internal {
        // st_b >= st_a + dur_a + t_a.
        m.add_con(start[b] - start[a], Sense::Ge, dur(a) + t_eff(a));
    }

    // ---- Device conflicts (eqs. 10-13) ------------------------------------
    for &(a, b) in &facts.free_pairs {
        let q0 = m.binary(&format!("q0_{a}_{b}"));
        let q1 = m.binary(&format!("q1_{a}_{b}"));
        let q2 = m.binary(&format!("q2_{a}_{b}"));
        // (10) st_a + q0 M >= st_b + dur_b + t_b.
        m.add_con(
            start[a] - start[b] + big_m * q0,
            Sense::Ge,
            dur(b) + t_eff(b),
        );
        // (11) st_a + dur_a + t_a - q1 M <= st_b.
        m.add_con(
            start[a] - start[b] - big_m * q1,
            Sense::Le,
            -(dur(a) + t_eff(a)),
        );
        // (12) per device.
        for j in 0..n_devices {
            if let (Some(&va), Some(&vb)) = (bind.get(&(a, j)), bind.get(&(b, j))) {
                m.add_con(va + vb - q2, Sense::Le, 1.0);
            }
        }
        // (13).
        m.add_con(q0 + q1 + q2, Sense::Le, 2.0);
    }

    // ---- Indeterminate-at-end (eq. 14) + exclusive devices ----------------
    let ind_idx = &facts.indeterminate;
    for &i in ind_idx {
        for a in 0..n {
            if a != i {
                // st_a <= st_i + dur_i.
                m.add_con(start[a] - start[i], Sense::Le, dur(i));
            }
        }
    }
    for (x, &i1) in ind_idx.iter().enumerate() {
        for &i2 in &ind_idx[x + 1..] {
            for j in 0..n_devices {
                if let (Some(&v1), Some(&v2)) = (bind.get(&(i1, j)), bind.get(&(i2, j))) {
                    m.add_con(v1 + v2, Sense::Le, 1.0);
                }
            }
        }
    }

    // ---- Makespan (eq. 15) -------------------------------------------------
    let makespan = m.integer("sum_t", 0.0, horizon);
    for (i, &st) in start.iter().enumerate() {
        m.add_con(makespan - st, Sense::Ge, dur(i));
    }

    // ---- Paths (eq. 21) ----------------------------------------------------
    // One variable per device pair that could newly carry a transfer.
    let mut path_vars: BTreeMap<(usize, usize), VarId> = BTreeMap::new();
    facts.for_each_path_row(|from, to, key| {
        let pv = *path_vars
            .entry(key)
            .or_insert_with(|| m.binary(&format!("path_{}_{}", key.0, key.1)));
        let vc = bind[&to];
        match from {
            Some(from) => m.add_con(bind[&from] + vc - pv, Sense::Le, 1.0),
            None => m.add_con(vc - pv, Sense::Le, 0.0),
        }
    });

    // ---- Objective ---------------------------------------------------------
    let w = p.weights;
    let mut obj = LinExpr::new();
    obj.add_term(makespan, w.time as f64);
    for j in n_existing..n_devices {
        for (k, &(kind, cap)) in CONFIGS.iter().enumerate() {
            let area = p.costs.container_area(kind, cap) as f64;
            let proc = p.costs.container_processing(kind, cap) as f64;
            obj.add_term(
                conf[&j][k],
                w.area as f64 * area + w.processing as f64 * proc,
            );
        }
        for (y, &a) in Accessory::ALL.iter().enumerate() {
            obj.add_term(
                acc[&j][y],
                w.processing as f64 * p.costs.accessory_processing(a) as f64,
            );
        }
    }
    for &pv in path_vars.values() {
        obj.add_term(pv, w.paths as f64);
    }
    m.set_objective(obj);

    BuiltModel {
        model: m,
        start,
        bind,
        conf,
        acc,
        n_devices,
    }
}

fn decode(
    p: &LayerProblem<'_>,
    built: &BuiltModel,
    sol: &mfhls_ilp::MilpSolution,
    stats: crate::SolverStats,
) -> LayerSolution {
    let n_existing = p.devices.len();
    // Realised new-device configs.
    let mut devices: Vec<DeviceConfig> = p.devices.clone();
    let mut created: Vec<usize> = Vec::new();
    let mut slot_to_global: BTreeMap<usize, usize> = (0..n_existing).map(|j| (j, j)).collect();
    for j in n_existing..built.n_devices {
        let Some(k) = (0..6).find(|&k| sol.is_one(built.conf[&j][k])) else {
            continue; // unused slot
        };
        let (kind, cap) = CONFIGS[k];
        let accessories = Accessory::ALL
            .into_iter()
            .filter(|a| sol.is_one(built.acc[&j][a.index()]))
            .collect();
        let cfg = DeviceConfig::new(kind, cap, accessories).expect("CONFIGS are fabricable");
        let g = devices.len();
        devices.push(cfg);
        created.push(g);
        slot_to_global.insert(j, g);
    }

    let inside: BTreeSet<OpId> = p.ops.iter().copied().collect();
    let slots: Vec<ScheduledOp> = p
        .ops
        .iter()
        .enumerate()
        .map(|(i, &op)| {
            let j = (0..built.n_devices)
                .find(|&j| built.bind.get(&(i, j)).is_some_and(|&v| sol.is_one(v)))
                .expect("eq. 5 guarantees one binding");
            let device = slot_to_global[&j];
            let has_internal_child = p.assay.children(op).iter().any(|c| inside.contains(c));
            ScheduledOp {
                op,
                device,
                start: sol.value(built.start[i]).round() as u64,
                duration: p.assay.op(op).duration().min_duration(),
                transport: if has_internal_child {
                    p.transport.of(op)
                } else {
                    0
                },
            }
        })
        .collect();

    // Recompute paths from the realised binding (robust against slack in
    // the path variables, which the objective pushes to 0 anyway).
    let device_of: BTreeMap<OpId, usize> = slots.iter().map(|s| (s.op, s.device)).collect();
    let mut new_paths = BTreeSet::new();
    for (a, b) in p.internal_deps() {
        let (da, db) = (device_of[&a], device_of[&b]);
        if da != db {
            let k = path_key(da, db);
            if !p.existing_paths.contains(&k) {
                new_paths.insert(k);
            }
        }
    }
    for &(child, pd) in &p.cross_inputs {
        let dc = device_of[&child];
        if dc != pd {
            let k = path_key(pd, dc);
            if !p.existing_paths.contains(&k) {
                new_paths.insert(k);
            }
        }
    }

    // Cost the solution with the same formula as the heuristic, so a
    // portfolio's comparisons are apples-to-apples.
    let makespan = slots
        .iter()
        .map(|s| s.start + s.duration)
        .max()
        .unwrap_or(0);
    let w = p.weights;
    let mut area = 0u64;
    let mut proc = 0u64;
    for &d in &created {
        area += p.costs.device_area(&devices[d]);
        proc += p.costs.device_processing(&devices[d]);
    }
    let objective =
        w.time * makespan + w.area * area + w.processing * proc + w.paths * new_paths.len() as u64;

    LayerSolution {
        slots,
        devices,
        new_devices: created,
        new_paths,
        objective,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Assay, Duration, HybridSchedule, LayerSchedule, Operation, TransportConfig, TransportTimes,
        Weights,
    };
    use mfhls_chip::CostModel;

    fn problem_for<'a>(
        assay: &'a Assay,
        costs: &'a CostModel,
        transport: &'a TransportTimes,
        max_devices: usize,
    ) -> LayerProblem<'a> {
        LayerProblem {
            assay,
            ops: assay.op_ids().collect(),
            devices: vec![],
            bindable: vec![],
            max_devices,
            transport,
            weights: Weights::default(),
            costs,
            existing_paths: BTreeSet::new(),
            cross_inputs: vec![],
            component_oriented: true,
        }
    }

    fn as_schedule(sol: &LayerSolution) -> HybridSchedule {
        HybridSchedule {
            layers: vec![LayerSchedule::new(sol.slots.clone())],
            devices: sol.devices.clone(),
            paths: sol.new_paths.clone(),
        }
    }

    #[test]
    fn single_op_exact() {
        let mut a = Assay::new("t");
        a.add_op(Operation::new("x").with_duration(Duration::fixed(5)));
        let costs = CostModel::default();
        let tr = TransportTimes::initial(&a, &TransportConfig::default());
        let p = problem_for(&a, &costs, &tr, 3);
        let sol = IlpLayerSolver::default().solve(&p).unwrap();
        assert_eq!(sol.makespan(), 5);
        assert_eq!(sol.devices.len(), 1);
        as_schedule(&sol).validate(&a).unwrap();
    }

    #[test]
    fn two_parallel_ops_share_or_split_optimally() {
        // Two independent 5-minute ops. One chamber: makespan 10; two
        // chambers: makespan 5 but extra capex. With default weights
        // (time 20 * 5 saved = 100 > chamber capex 2*4+1*3 = 11), the solver
        // should parallelise.
        let mut a = Assay::new("t");
        a.add_op(Operation::new("x").with_duration(Duration::fixed(5)));
        a.add_op(Operation::new("y").with_duration(Duration::fixed(5)));
        let costs = CostModel::default();
        let tr = TransportTimes::initial(&a, &TransportConfig::default());
        let p = problem_for(&a, &costs, &tr, 4);
        let sol = IlpLayerSolver::default().solve(&p).unwrap();
        assert_eq!(sol.makespan(), 5);
        assert_eq!(sol.devices.len(), 2);
        as_schedule(&sol).validate(&a).unwrap();
    }

    #[test]
    fn chain_on_one_device_avoids_transport() {
        let mut a = Assay::new("t");
        let x = a.add_op(Operation::new("x").with_duration(Duration::fixed(5)));
        let y = a.add_op(Operation::new("y").with_duration(Duration::fixed(5)));
        a.add_dependency(x, y).unwrap();
        let costs = CostModel::default();
        let tr = TransportTimes::initial(&a, &TransportConfig::default());
        let p = problem_for(&a, &costs, &tr, 4);
        let sol = IlpLayerSolver::default().solve(&p).unwrap();
        // Same device avoids a second device and a path. Eq. 9 still
        // charges the initial per-op transport estimate (3), which only a
        // later refinement pass can zero out: makespan = 5 + 3 + 5.
        assert_eq!(sol.devices.len(), 1);
        assert_eq!(sol.makespan(), 13);
        assert!(sol.new_paths.is_empty());
        as_schedule(&sol).validate(&a).unwrap();
    }

    #[test]
    fn indeterminate_scheduled_last() {
        let mut a = Assay::new("t");
        let prep = a.add_op(Operation::new("prep").with_duration(Duration::fixed(4)));
        let cap = a.add_op(Operation::new("capture").with_duration(Duration::at_least(3)));
        a.add_dependency(prep, cap).unwrap();
        let costs = CostModel::default();
        let tr = TransportTimes::initial(&a, &TransportConfig::default());
        let p = problem_for(&a, &costs, &tr, 4);
        let sol = IlpLayerSolver::default().solve(&p).unwrap();
        as_schedule(&sol).validate(&a).unwrap();
        let sc = sol.slots.iter().find(|s| s.op == cap).unwrap();
        let sp = sol.slots.iter().find(|s| s.op == prep).unwrap();
        assert!(sc.start >= sp.start + 4);
    }

    #[test]
    fn conventional_mode_is_rejected() {
        let mut a = Assay::new("t");
        a.add_op(Operation::new("x").with_duration(Duration::fixed(1)));
        let costs = CostModel::default();
        let tr = TransportTimes::initial(&a, &TransportConfig::default());
        let mut p = problem_for(&a, &costs, &tr, 2);
        p.component_oriented = false;
        assert!(matches!(
            IlpLayerSolver::default().solve(&p),
            Err(CoreError::Ilp(_))
        ));
    }

    #[test]
    fn infeasible_budget_errors() {
        let mut a = Assay::new("t");
        a.add_op(Operation::new("x").with_duration(Duration::fixed(1)));
        let costs = CostModel::default();
        let tr = TransportTimes::initial(&a, &TransportConfig::default());
        let p = problem_for(&a, &costs, &tr, 0);
        assert!(IlpLayerSolver::default().solve(&p).is_err());
    }

    #[test]
    fn inherited_device_is_reused_for_free() {
        use mfhls_chip::{Accessory, AccessorySet};
        // One op needing a pump; an inherited pump chamber exists. Creating
        // a new device would cost area+processing, so the ILP must reuse.
        let mut a = Assay::new("t");
        a.add_op(
            Operation::new("x")
                .accessory(Accessory::Pump)
                .with_duration(Duration::fixed(5)),
        );
        let costs = CostModel::default();
        let tr = TransportTimes::initial(&a, &TransportConfig::default());
        let inherited = mfhls_chip::DeviceConfig::new(
            mfhls_chip::ContainerKind::Chamber,
            mfhls_chip::Capacity::Small,
            AccessorySet::from_iter([Accessory::Pump]),
        )
        .unwrap();
        let mut p = problem_for(&a, &costs, &tr, 5);
        p.devices = vec![inherited];
        p.bindable = vec![true];
        let sol = IlpLayerSolver::default().solve(&p).unwrap();
        assert_eq!(sol.slots[0].device, 0);
        assert!(sol.new_devices.is_empty());
        // Masked out, the same device must not be used.
        p.bindable = vec![false];
        let sol = IlpLayerSolver::default().solve(&p).unwrap();
        assert_eq!(sol.new_devices.len(), 1);
        assert_ne!(sol.slots[0].device, 0);
    }

    #[test]
    fn cross_input_pulls_child_onto_parent_device() {
        // The child's only constraint is a cross-layer parent on device 0;
        // binding to device 0 avoids a path (and a new device).
        let mut a = Assay::new("t");
        a.add_op(Operation::new("child").with_duration(Duration::fixed(4)));
        let costs = CostModel::default();
        let tr = TransportTimes::initial(&a, &TransportConfig::default());
        let parent_dev = mfhls_chip::DeviceConfig::new(
            mfhls_chip::ContainerKind::Chamber,
            mfhls_chip::Capacity::Small,
            Default::default(),
        )
        .unwrap();
        let mut p = problem_for(&a, &costs, &tr, 5);
        p.devices = vec![parent_dev];
        p.bindable = vec![true];
        p.cross_inputs = vec![(OpId(0), 0)];
        let sol = IlpLayerSolver::default().solve(&p).unwrap();
        assert_eq!(sol.slots[0].device, 0);
        assert!(sol.new_paths.is_empty());
    }

    #[test]
    fn existing_paths_are_free_to_reuse() {
        // Two chained ops that must use different devices (different
        // capacity classes). If the path between the two inherited devices
        // already exists, the solution reports no new paths.
        use mfhls_chip::Capacity;
        let mut a = Assay::new("t");
        let x = a.add_op(
            Operation::new("x")
                .capacity(Capacity::Medium)
                .with_duration(Duration::fixed(3)),
        );
        let y = a.add_op(
            Operation::new("y")
                .capacity(Capacity::Tiny)
                .with_duration(Duration::fixed(3)),
        );
        a.add_dependency(x, y).unwrap();
        let costs = CostModel::default();
        let tr = TransportTimes::initial(&a, &TransportConfig::default());
        let d0 = mfhls_chip::DeviceConfig::new(
            mfhls_chip::ContainerKind::Chamber,
            Capacity::Medium,
            Default::default(),
        )
        .unwrap();
        let d1 = mfhls_chip::DeviceConfig::new(
            mfhls_chip::ContainerKind::Chamber,
            Capacity::Tiny,
            Default::default(),
        )
        .unwrap();
        let mut p = problem_for(&a, &costs, &tr, 4);
        p.devices = vec![d0, d1];
        p.bindable = vec![true, true];
        p.existing_paths = [(0usize, 1usize)].into_iter().collect();
        let sol = IlpLayerSolver::default().solve(&p).unwrap();
        assert!(sol.new_paths.is_empty(), "{:?}", sol.new_paths);
        as_schedule(&sol);
    }

    #[test]
    fn cutoff_below_optimum_errors() {
        let mut a = Assay::new("t");
        a.add_op(Operation::new("x").with_duration(Duration::fixed(5)));
        let costs = CostModel::default();
        let tr = TransportTimes::initial(&a, &TransportConfig::default());
        let p = problem_for(&a, &costs, &tr, 3);
        let optimal = IlpLayerSolver::default().solve(&p).unwrap();
        let bounded = IlpLayerSolver {
            cutoff: Some(optimal.objective), // must beat it strictly
            ..IlpLayerSolver::default()
        };
        assert!(bounded.solve(&p).is_err());
        let loose = IlpLayerSolver {
            cutoff: Some(optimal.objective + 1),
            ..IlpLayerSolver::default()
        };
        assert_eq!(loose.solve(&p).unwrap().objective, optimal.objective);
    }

    /// Every layer of paper cases 1-3 and of the committed corpus, posed
    /// twice: fresh, and over an inherited pool with a partial
    /// bindability mask, inherited paths and cross-layer inputs, so every
    /// branch of the model (masked and unfit inherited devices, free
    /// paths, cross-input path rows) is exercised.
    fn for_each_layer_problem(mut visit: impl FnMut(&str, &LayerProblem<'_>)) {
        use crate::heuristic::tests::rehome;
        let mut cases: Vec<(String, Assay, usize, usize)> = mfhls_assays::benchmarks()
            .into_iter()
            .map(|(case, _, a)| (format!("case {case}"), rehome!(a), 25, 10))
            .collect();
        for profile in mfhls_bench::gen::Profile::ALL {
            for seed in 1..=2 {
                let config = mfhls_bench::gen::check_config(profile);
                let assay = rehome!(mfhls_bench::gen::generate(profile, seed));
                cases.push((
                    format!("{profile}/{seed}"),
                    assay,
                    config.max_devices,
                    config.indeterminate_threshold,
                ));
            }
        }
        let inherited: Vec<DeviceConfig> = CONFIGS
            .iter()
            .enumerate()
            .map(|(k, &(kind, cap))| {
                let accessories = Accessory::ALL.into_iter().skip(k % 5).take(k % 3);
                DeviceConfig::new(kind, cap, accessories.collect()).expect("fabricable")
            })
            .collect();
        let costs = CostModel::default();
        for (tag, assay, max_devices, threshold) in &cases {
            let layering = crate::layer_assay(assay, *threshold).expect("layers");
            let transport = TransportTimes::initial(assay, &TransportConfig::default());
            for (li, ops) in layering.layers().iter().enumerate() {
                let fresh = LayerProblem {
                    assay,
                    ops: ops.clone(),
                    devices: vec![],
                    bindable: vec![],
                    max_devices: *max_devices,
                    transport: &transport,
                    weights: Weights::default(),
                    costs: &costs,
                    existing_paths: BTreeSet::new(),
                    cross_inputs: vec![],
                    component_oriented: true,
                };
                visit(&format!("{tag} layer {li} fresh"), &fresh);
                let cross_inputs = assay
                    .dependencies()
                    .filter(|&(p, c)| layering.layer_of(c) == li && layering.layer_of(p) < li)
                    .map(|(p, c)| (c, p.index() % inherited.len()))
                    .collect();
                let warm = LayerProblem {
                    devices: inherited.clone(),
                    bindable: (0..inherited.len()).map(|j| j % 3 != 2).collect(),
                    existing_paths: [(0, 1), (1, 3), (2, 4)].into_iter().collect(),
                    cross_inputs,
                    ..fresh
                };
                visit(&format!("{tag} layer {li} inherited"), &warm);
            }
        }
    }

    /// A path row: the sending op's binding (`None` for a cross-layer
    /// parent), the receiving op's binding and the path key.
    type PathRow = (Option<(usize, usize)>, (usize, usize), (usize, usize));

    /// The eq.-21 path rows enumerated by looking every key up in
    /// `existing_paths`, as the walker did before the dense matrices: the
    /// reference [`ModelFacts::for_each_path_row`] is checked against.
    /// Also returns how many rows the inherited paths removed.
    fn path_rows_by_set_lookup(facts: &ModelFacts, p: &LayerProblem<'_>) -> (Vec<PathRow>, usize) {
        let (mut rows, mut inherited) = (Vec::new(), 0);
        let mut visit = |row: PathRow| {
            if p.existing_paths.contains(&row.2) {
                inherited += 1;
            } else {
                rows.push(row);
            }
        };
        for &(a, b) in &facts.internal {
            for d1 in 0..facts.n_devices {
                for d2 in 0..facts.n_devices {
                    if d1 != d2 && facts.can_bind(a, d1) && facts.can_bind(b, d2) {
                        visit((Some((a, d1)), (b, d2), path_key(d1, d2)));
                    }
                }
            }
        }
        for &(child, pd) in &facts.cross {
            for d in 0..facts.n_devices {
                if d != pd && facts.can_bind(child, d) {
                    visit((None, (child, d), path_key(pd, d)));
                }
            }
        }
        (rows, inherited)
    }

    #[test]
    fn path_rows_and_counts_match_the_set_lookups() {
        let (mut checked, mut inherited) = (0, 0);
        for_each_layer_problem(|tag, p| {
            let facts = ModelFacts::of(p);
            let mut rows = Vec::new();
            facts.for_each_path_row(|from, to, key| rows.push((from, to, key)));
            let (reference, removed) = path_rows_by_set_lookup(&facts, p);
            assert_eq!(rows, reference, "{tag}: path rows differ");
            let keys: BTreeSet<_> = reference.iter().map(|row| row.2).collect();
            assert_eq!(
                facts.path_counts(),
                (reference.len(), keys.len()),
                "{tag}: (path rows, path keys)"
            );
            checked += 1;
            inherited += removed;
        });
        assert!(checked >= 100, "layer walk degenerated: {checked} problems");
        assert!(inherited > 0, "no inherited path removed a row");
    }

    #[test]
    fn counted_dims_equal_the_built_model() {
        let mut checked = 0;
        for_each_layer_problem(|tag, p| {
            let facts = ModelFacts::of(p);
            let model = build_model(p, &facts).model;
            assert_eq!(
                facts.dims(p),
                (model.num_cons(), model.num_vars()),
                "{tag}: counted (rows, cols) differ from the built model"
            );
            checked += 1;
        });
        assert!(checked >= 100, "layer walk degenerated: {checked} problems");
    }

    fn diamond() -> Assay {
        let mut a = Assay::new("diamond");
        let src = a.add_op(Operation::new("src").with_duration(Duration::fixed(4)));
        let l = a.add_op(
            Operation::new("l")
                .accessory(Accessory::HeatingPad)
                .with_duration(Duration::fixed(6)),
        );
        let r = a.add_op(Operation::new("r").with_duration(Duration::fixed(5)));
        let sink = a.add_op(Operation::new("sink").with_duration(Duration::at_least(3)));
        for (x, y) in [(src, l), (src, r), (l, sink), (r, sink)] {
            a.add_dependency(x, y).unwrap();
        }
        a
    }

    #[test]
    fn pivot_work_gate_admits_exactly_one_pivot_per_row() {
        let a = diamond();
        let costs = CostModel::default();
        let tr = TransportTimes::initial(&a, &TransportConfig::default());
        let p = problem_for(&a, &costs, &tr, 4);
        let (rows, cols) = ModelFacts::of(&p).dims(&p);
        let m = rows as u64;
        let per_pivot = m * (m + cols as u64);
        let budgeted = |work: u64| IlpLayerSolver {
            pivot_work: Some(work),
            ..IlpLayerSolver::default()
        };

        // Exactly `m` pivots affordable: the leg runs.
        let (_, stats) = budgeted(m * per_pivot).solve_with_stats(&p);
        assert_eq!(stats.ilp_solves, 1);
        assert!(stats.pivots > 0);

        // One cell less: skipped before building, with zero counters and
        // a diagnostic (never logical) trace record.
        let ((gated, stats), trace) =
            mfhls_obs::with_capture(mfhls_obs::CaptureConfig::default(), || {
                budgeted(m * per_pivot - 1).solve_with_stats(&p)
            });
        assert!(matches!(gated, Err(CoreError::Ilp(_))), "{gated:?}");
        assert_eq!(stats, crate::SolverStats::default());
        let skipped: Vec<_> = trace
            .records
            .iter()
            .filter(|r| r.name == "ilp_leg_skipped")
            .collect();
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].class, mfhls_obs::Class::Diagnostic);
        use mfhls_obs::OwnedValue::{Str, U64};
        let expected = vec![
            ("reason".to_owned(), Str("budget".to_owned())),
            ("ops".to_owned(), U64(4)),
            ("rows".to_owned(), U64(m)),
            ("cols".to_owned(), U64(cols as u64)),
            ("pivots_affordable".to_owned(), U64(m - 1)),
        ];
        assert_eq!(skipped[0].fields, expected);
        assert!(!trace.logical_fingerprint().contains("ilp_leg_skipped"));
    }

    #[test]
    fn matches_heuristic_or_better_on_small_layers() {
        use crate::heuristic::HeuristicLayerSolver;
        use crate::LayerSolver as _;
        // A few hand-rolled small layers; ILP must never be worse.
        for seed in 0..4u64 {
            let mut a = Assay::new("t");
            let n = 3 + (seed as usize % 2);
            let ids: Vec<_> = (0..n)
                .map(|k| {
                    a.add_op(
                        Operation::new(&format!("o{k}"))
                            .with_duration(Duration::fixed(2 + (k as u64 * seed) % 5)),
                    )
                })
                .collect();
            for k in 1..n {
                if (k + seed as usize).is_multiple_of(2) {
                    a.add_dependency(ids[k - 1], ids[k]).unwrap();
                }
            }
            let costs = CostModel::default();
            let tr = TransportTimes::initial(&a, &TransportConfig::default());
            let p = problem_for(&a, &costs, &tr, 6);
            let exact = IlpLayerSolver::default().solve(&p).unwrap();
            let heur = HeuristicLayerSolver::default().solve(&p).unwrap();
            assert!(
                exact.objective <= heur.objective,
                "seed {seed}: exact {} > heuristic {}",
                exact.objective,
                heur.objective
            );
            as_schedule(&exact).validate(&a).unwrap();
        }
    }
}
