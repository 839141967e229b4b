//! Scalable heuristic layer solver: priority list scheduling with greedy
//! component-oriented binding and re-binding improvement.
//!
//! The faithful ILP model (see [`crate::ilp_model`]) is exact but only
//! practical for small layers; this solver handles the paper's 70/120-op
//! benchmarks. It optimises the same objective
//! (`C_t·sum_t + C_a·sum_a + C_pr·sum_pr + C_p·sum_p`) and its output
//! passes the same validator.
//!
//! Construction:
//!
//! 1. Determinate ops are list-scheduled in critical-path (bottom-level)
//!    priority order; each op picks the device minimising
//!    `C_t·(projected release) + capex + path cost`, where candidates are
//!    compatible existing devices, retrofittable devices created by this
//!    layer (component-oriented mode only), or a fresh cheapest device.
//! 2. Indeterminate ops are placed last on pairwise-distinct devices and
//!    their starts are aligned at the latest earliest-start, which
//!    satisfies eq. 14 by construction.
//!
//! Improvement: a configurable number of passes that try re-binding every
//! operation to every alternative device and keep strict improvements.
//! Candidates are pruned exactly: moves the re-scheduler would reject are
//! filtered before any schedule is built, and a re-schedule aborts as soon
//! as its running objective lower bound reaches the incumbent's objective.

use crate::problem::path_key;
use crate::{CoreError, LayerProblem, LayerSolution, LayerSolver, OpId, ScheduledOp};
use mfhls_chip::{DeviceConfig, Requirements};
use mfhls_graph::BitSet;
use std::collections::{BTreeMap, BTreeSet};

/// The heuristic solver; see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct HeuristicLayerSolver {
    /// Number of re-binding improvement passes.
    pub improvement_passes: usize,
}

impl Default for HeuristicLayerSolver {
    fn default() -> Self {
        HeuristicLayerSolver {
            improvement_passes: 2,
        }
    }
}

impl LayerSolver for HeuristicLayerSolver {
    fn solve(&self, p: &LayerProblem<'_>) -> Result<LayerSolution, CoreError> {
        let ctx = Ctx::new(p);
        let (det_order, ind_order) = priority_orders(p)?;
        let mut best = construct(p, &ctx, &det_order, &ind_order)?;

        let mut rounds = 0u64;
        let mut adoptions = 0u64;
        for _ in 0..self.improvement_passes {
            rounds += 1;
            let mut improved_any = false;
            for &op in p.ops.iter() {
                // Re-derive the binding after every adoption: device indices
                // may have been renumbered by pruning.
                let mut binding: BTreeMap<OpId, usize> =
                    best.slots.iter().map(|s| (s.op, s.device)).collect();
                let Some(&current) = binding.get(&op) else {
                    return Err(CoreError::Internal(format!(
                        "layer solution lost operation o{}",
                        op.index()
                    )));
                };
                let mut ind_held = vec![false; best.devices.len()];
                for s in &best.slots {
                    ind_held[s.device] |= p.assay.op(s.op).is_indeterminate();
                }
                // Adoption rule: the first improving device in ascending
                // order. Pruned candidates could not have improved, so the
                // adopted device is the one an unpruned search finds.
                let mut adopted = None;
                for d in (0..best.devices.len()).filter(|&d| d != current) {
                    if !may_rebind(p, &best, &ind_held, op, d) {
                        continue;
                    }
                    binding.insert(op, d);
                    adopted = schedule_with_binding(
                        p,
                        &ctx,
                        &det_order,
                        &ind_order,
                        &binding,
                        &best,
                        best.objective,
                    )
                    .filter(|sol| sol.objective < best.objective);
                    if adopted.is_some() {
                        break; // next op, with a fresh binding map
                    }
                }
                if let Some(sol) = adopted {
                    best = sol;
                    improved_any = true;
                    adoptions += 1;
                }
            }
            if !improved_any {
                break;
            }
        }
        best.stats.heuristic_rounds = rounds;
        best.stats.rebind_adoptions = adoptions;
        #[cfg(test)]
        tests::assert_matches_unpruned(self, p, &best);
        Ok(best)
    }
}

/// A set of unordered device-index pairs `(a, b)` with `a <= b` (the shape
/// produced by [`path_key`]), backed by a fixed-capacity bitset over
/// `a * cap + b`. Replaces the per-candidate `BTreeSet<(usize, usize)>`
/// allocations on the binding hot path.
#[derive(Clone)]
struct PairSet {
    bits: BitSet,
    cap: usize,
}

impl PairSet {
    /// Capacity for device indices `0..cap`.
    fn new(cap: usize) -> PairSet {
        PairSet {
            bits: BitSet::new(cap * cap),
            cap,
        }
    }

    fn encode(&self, (a, b): (usize, usize)) -> usize {
        debug_assert!(a <= b, "pair keys are ordered");
        a * self.cap + b
    }

    fn contains(&self, key: (usize, usize)) -> bool {
        self.bits.contains(self.encode(key))
    }

    fn insert(&mut self, key: (usize, usize)) -> bool {
        let k = self.encode(key);
        self.bits.insert(k)
    }

    fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let cap = self.cap;
        self.bits.iter().map(move |k| (k / cap, k % cap))
    }
}

/// Immutable per-problem context computed once per [`HeuristicLayerSolver::solve`]
/// call: in-layer parent lists, internal-child flags, fresh-device configs,
/// and the existing-path bitset. Hoists the per-candidate `assay.parents`
/// edge scans and `BTreeSet` rebuilds out of the hot scheduling loops.
/// `pub(crate)`: the SDC legalizer (`crate::sdc_model`) drives the same
/// binding machinery under its own construction order.
pub(crate) struct Ctx {
    /// In-layer parents per *global* op index. Ops outside the layer never
    /// hold slots, so only in-layer parents can constrain ready times or
    /// contribute paths.
    parents: Vec<Vec<OpId>>,
    /// Whether the (layer) op has at least one child inside the layer.
    internal_child: Vec<bool>,
    /// Fresh-device config per global op index (layer ops only).
    fresh: Vec<Option<DeviceConfig>>,
    /// Paths that already exist on the chip.
    existing: PairSet,
    /// Device-index capacity of every [`PairSet`] of this problem: the
    /// inherited pool plus at most one created device per layer op.
    pair_cap: usize,
}

impl Ctx {
    pub(crate) fn new(p: &LayerProblem<'_>) -> Ctx {
        let n = p.assay.len();
        let mut in_layer = vec![false; n];
        for &o in &p.ops {
            in_layer[o.index()] = true;
        }
        let mut parents: Vec<Vec<OpId>> = vec![Vec::new(); n];
        let mut internal_child = vec![false; n];
        for (q, c) in p.assay.dependencies() {
            if in_layer[q.index()] && in_layer[c.index()] {
                parents[c.index()].push(q);
                internal_child[q.index()] = true;
            }
        }
        let mut fresh = vec![None; n];
        for &o in &p.ops {
            fresh[o.index()] = fresh_config(p, o);
        }
        let pair_cap = p.devices.len() + p.ops.len() + 1;
        let mut existing = PairSet::new(pair_cap);
        for &k in &p.existing_paths {
            existing.insert(k);
        }
        Ctx {
            parents,
            internal_child,
            fresh,
            existing,
            pair_cap,
        }
    }
}

/// Splits the layer's ops into a list-scheduling order for determinate ops
/// and a priority order for indeterminate ones.
pub(crate) fn priority_orders(p: &LayerProblem<'_>) -> Result<(Vec<OpId>, Vec<OpId>), CoreError> {
    let idx_of: BTreeMap<OpId, usize> = p.ops.iter().enumerate().map(|(i, &o)| (o, i)).collect();
    let n = p.ops.len();
    let mut g = mfhls_graph::Digraph::new(n);
    for (a, b) in p.internal_deps() {
        let (Some(&ia), Some(&ib)) = (idx_of.get(&a), idx_of.get(&b)) else {
            return Err(CoreError::Internal(format!(
                "internal dependency o{}->o{} references an op outside the layer",
                a.index(),
                b.index()
            )));
        };
        g.add_edge(ia, ib)
            .map_err(|e| CoreError::Internal(format!("layer DAG edge: {e}")))?;
    }
    let weights: Vec<u64> = p
        .ops
        .iter()
        .map(|&o| p.assay.op(o).duration().min_duration() + p.transport.of(o))
        .collect();
    let bl = mfhls_graph::topo::bottom_levels(&g, &weights)
        .map_err(|e| CoreError::Internal(format!("layer DAG is cyclic: {e}")))?;

    // List order: repeatedly emit the ready determinate op with the highest
    // bottom level (ties: smaller id).
    let det: BTreeSet<usize> = (0..n)
        .filter(|&i| !p.assay.op(p.ops[i]).is_indeterminate())
        .collect();
    let mut remaining_parents: Vec<usize> = (0..n)
        .map(|i| {
            g.predecessors(i)
                .iter()
                .filter(|&&q| det.contains(&q))
                .count()
        })
        .collect();
    let mut emitted = vec![false; n];
    let mut det_order = Vec::with_capacity(det.len());
    while det_order.len() < det.len() {
        let Some(next) = det
            .iter()
            .copied()
            .filter(|&i| !emitted[i] && remaining_parents[i] == 0)
            .max_by_key(|&i| (bl[i], std::cmp::Reverse(i)))
        else {
            return Err(CoreError::Internal(
                "no ready determinate op in an acyclic layer".to_owned(),
            ));
        };
        emitted[next] = true;
        det_order.push(p.ops[next]);
        for &c in g.successors(next) {
            if det.contains(&next) {
                remaining_parents[c] = remaining_parents[c].saturating_sub(1);
            }
        }
    }
    let mut ind_order: Vec<usize> = (0..n).filter(|i| !det.contains(i)).collect();
    ind_order.sort_by_key(|&i| (std::cmp::Reverse(bl[i]), i));
    Ok((det_order, ind_order.into_iter().map(|i| p.ops[i]).collect()))
}

/// Mutable scheduling state shared by construction and re-evaluation.
struct State<'p, 'a> {
    p: &'p LayerProblem<'a>,
    ctx: &'p Ctx,
    devices: Vec<DeviceConfig>,
    /// Device indices created by this layer.
    created: BTreeSet<usize>,
    avail: Vec<u64>,
    slots: BTreeMap<OpId, ScheduledOp>,
    new_paths: PairSet,
    /// Running makespan of the committed slots.
    span: u64,
    /// Number of entries in `new_paths`.
    path_count: u64,
    /// Creation quotas per fresh config (see [`provision_quotas`]); empty
    /// when quotas are not enforced (re-evaluation never creates devices).
    quotas: BTreeMap<DeviceConfig, usize>,
    /// Devices created so far per fresh config.
    created_of: BTreeMap<DeviceConfig, usize>,
    /// `compat_any[op]` — some current device can host `op`. Maintained
    /// incrementally by [`apply_decision`] (devices are only appended or
    /// gain accessories, so compatibility never regresses). Empty until
    /// [`State::init_compat`] runs; only `construct` needs it.
    compat_any: Vec<bool>,
}

impl<'p, 'a> State<'p, 'a> {
    fn new(p: &'p LayerProblem<'a>, ctx: &'p Ctx) -> Self {
        State {
            p,
            ctx,
            devices: p.devices.clone(),
            created: BTreeSet::new(),
            avail: vec![0; p.devices.len()],
            slots: BTreeMap::new(),
            new_paths: PairSet::new(ctx.pair_cap),
            span: 0,
            path_count: 0,
            quotas: BTreeMap::new(),
            created_of: BTreeMap::new(),
            compat_any: Vec::new(),
        }
    }

    /// Earliest start of `op` given its already-scheduled in-layer parents.
    fn ready_time(&self, op: OpId) -> u64 {
        self.ctx.parents[op.index()]
            .iter()
            .filter_map(|q| self.slots.get(q))
            .map(|s| s.start + s.duration + self.p.transport.of(s.op))
            .max()
            .unwrap_or(0)
    }

    /// Populates `compat_any` from the current device pool.
    fn init_compat(&mut self) {
        let mut compat = vec![false; self.p.assay.len()];
        for &op in &self.p.ops {
            compat[op.index()] = (0..self.devices.len()).any(|d| device_compatible(self, op, d));
        }
        self.compat_any = compat;
    }

    /// Re-checks still-unsatisfiable ops against device `d` after it was
    /// created or retrofitted.
    fn refresh_compat_for(&mut self, d: usize) {
        if self.compat_any.is_empty() {
            return;
        }
        for i in 0..self.p.ops.len() {
            let op = self.p.ops[i];
            if !self.compat_any[op.index()] && device_compatible(self, op, d) {
                self.compat_any[op.index()] = true;
            }
        }
    }

    /// Number of distinct *new* paths that binding `op` to `device` would
    /// create.
    fn added_path_count(&self, op: OpId, device: usize) -> u64 {
        let mut added: Vec<(usize, usize)> = Vec::new();
        for q in &self.ctx.parents[op.index()] {
            if let Some(s) = self.slots.get(q) {
                if s.device != device {
                    let k = path_key(s.device, device);
                    if !self.ctx.existing.contains(k)
                        && !self.new_paths.contains(k)
                        && !added.contains(&k)
                    {
                        added.push(k);
                    }
                }
            }
        }
        for &(child, pd) in &self.p.cross_inputs {
            if child == op && pd != device {
                let k = path_key(pd, device);
                if !self.ctx.existing.contains(k)
                    && !self.new_paths.contains(k)
                    && !added.contains(&k)
                {
                    added.push(k);
                }
            }
        }
        added.len() as u64
    }

    /// Inserts the new paths that binding `op` to `device` creates.
    fn commit_paths(&mut self, op: OpId, device: usize) {
        for qi in 0..self.ctx.parents[op.index()].len() {
            let q = self.ctx.parents[op.index()][qi];
            if let Some(s) = self.slots.get(&q) {
                if s.device != device {
                    self.add_path(path_key(s.device, device));
                }
            }
        }
        for ci in 0..self.p.cross_inputs.len() {
            let (child, pd) = self.p.cross_inputs[ci];
            if child == op && pd != device {
                self.add_path(path_key(pd, device));
            }
        }
    }

    fn add_path(&mut self, k: (usize, usize)) {
        if !self.ctx.existing.contains(k) && self.new_paths.insert(k) {
            self.path_count += 1;
        }
    }

    /// Lower bound on the objective of any completion of this state, given
    /// the exact `capex` of the created devices the final binding uses:
    /// makespan and new paths only grow as slots commit.
    fn lower_bound(&self, capex: u64) -> u64 {
        let w = self.p.weights;
        capex + w.time * self.span + w.paths * self.path_count
    }

    /// Records a slot and its induced paths.
    fn commit(&mut self, op: OpId, device: usize, start: u64) {
        let dur = self.p.assay.op(op).duration().min_duration();
        let transport = if self.ctx.internal_child[op.index()] {
            self.p.transport.of(op)
        } else {
            0
        };
        self.commit_paths(op, device);
        self.slots.insert(
            op,
            ScheduledOp {
                op,
                device,
                start,
                duration: dur,
                transport,
            },
        );
        self.avail[device] = self.avail[device].max(start + dur + transport);
        self.span = self.span.max(start + dur);
    }

    /// Capex of creating / retrofitting relative to the current configs.
    fn capex(&self, decision: &Decision) -> u64 {
        let w = self.p.weights;
        match decision {
            Decision::Existing(_) => 0,
            Decision::Retrofit { device, union } => {
                let extra: u64 = union
                    .iter()
                    .filter(|a| !self.devices[*device].accessories().contains(*a))
                    .map(|a| self.p.costs.accessory_processing(a))
                    .sum();
                w.processing * extra
            }
            Decision::New(cfg) => {
                w.area * self.p.costs.device_area(cfg)
                    + w.processing * self.p.costs.device_processing(cfg)
            }
        }
    }

    /// Finalises into a [`LayerSolution`], pruning created-but-unused
    /// devices and renumbering.
    fn finish(mut self) -> LayerSolution {
        let used: BTreeSet<usize> = self.slots.values().map(|s| s.device).collect();
        let keep: Vec<usize> = (0..self.devices.len())
            .filter(|d| !self.created.contains(d) || used.contains(d))
            .collect();
        let remap: BTreeMap<usize, usize> = keep.iter().enumerate().map(|(n, &o)| (o, n)).collect();
        self.devices = keep.iter().map(|&o| self.devices[o]).collect();
        let slots: Vec<ScheduledOp> = self
            .slots
            .into_values()
            .map(|mut s| {
                s.device = remap[&s.device];
                s
            })
            .collect();
        let new_paths: BTreeSet<(usize, usize)> = self
            .new_paths
            .iter()
            .map(|(a, b)| path_key(remap[&a], remap[&b]))
            .collect();
        let new_devices: Vec<usize> = self
            .created
            .iter()
            .filter_map(|o| remap.get(o).copied())
            .collect();

        let makespan = slots
            .iter()
            .map(|s| s.start + s.duration)
            .max()
            .unwrap_or(0);
        let w = self.p.weights;
        let mut area = 0u64;
        let mut proc = 0u64;
        for &d in &new_devices {
            area += self.p.costs.device_area(&self.devices[d]);
            proc += self.p.costs.device_processing(&self.devices[d]);
        }
        let objective = w.time * makespan
            + w.area * area
            + w.processing * proc
            + w.paths * new_paths.len() as u64;
        LayerSolution {
            slots,
            devices: self.devices,
            new_devices,
            new_paths,
            objective,
            stats: crate::SolverStats::default(),
        }
    }
}

/// A binding decision for one operation.
enum Decision {
    Existing(usize),
    Retrofit {
        device: usize,
        union: mfhls_chip::AccessorySet,
    },
    New(DeviceConfig),
}

impl Decision {
    fn device(&self, next_new: usize) -> usize {
        match self {
            Decision::Existing(d) | Decision::Retrofit { device: d, .. } => *d,
            Decision::New(_) => next_new,
        }
    }
}

/// Whether `op` may run on the (current) config of device `d`, honouring
/// the binding mode and the visibility mask.
fn device_compatible(state: &State<'_, '_>, op: OpId, d: usize) -> bool {
    let p = state.p;
    let inherited = !state.created.contains(&d);
    if inherited && !p.bindable.get(d).copied().unwrap_or(false) {
        return false;
    }
    config_fits(p, &state.devices[d], p.assay.op(op).requirements())
}

/// Whether config `cfg` can host `req` under the problem's binding mode:
/// a superset in component-oriented mode, the exact signature otherwise.
fn config_fits(p: &LayerProblem<'_>, cfg: &DeviceConfig, req: &Requirements) -> bool {
    if p.component_oriented {
        cfg.satisfies(req)
    } else {
        let (kind, cap, acc) = req.signature();
        cfg.container() == kind && cfg.capacity() == cap && cfg.accessories() == acc
    }
}

/// Allocation-free prefilter for re-binding `op` onto device `d` of `best`.
/// `false` only where [`schedule_with_binding`] would reject the move:
/// an invisible or unfit inherited device (inherited configs never
/// change), a created device whose container or capacity conflicts (only
/// its accessories are re-unioned), or an indeterminate op joining a
/// device that `ind_held` marks as hosting another indeterminate op.
fn may_rebind(
    p: &LayerProblem<'_>,
    best: &LayerSolution,
    ind_held: &[bool],
    op: OpId,
    d: usize,
) -> bool {
    let o = p.assay.op(op);
    if o.is_indeterminate() && ind_held[d] {
        return false;
    }
    let req = o.requirements();
    match p.devices.get(d) {
        Some(cfg) => p.bindable.get(d).copied().unwrap_or(false) && config_fits(p, cfg, req),
        None => shape_fits(&best.devices[d], req),
    }
}

/// Whether `req` accepts `cfg`'s container and capacity, the part of a
/// created device's config that retrofits and re-binding never change.
fn shape_fits(cfg: &DeviceConfig, req: &Requirements) -> bool {
    req.container.is_none_or(|k| k == cfg.container())
        && req.capacity.is_none_or(|c| c == cfg.capacity())
}

/// The configuration a fresh device for `op` would get, or `None` for
/// unfabricable requirements (e.g. a large chamber).
fn fresh_config(p: &LayerProblem<'_>, op: OpId) -> Option<DeviceConfig> {
    let req = p.assay.op(op).requirements();
    if p.component_oriented {
        DeviceConfig::cheapest_for(req, p.costs)
    } else {
        let (kind, cap, acc) = req.signature();
        DeviceConfig::new(kind, cap, acc).ok()
    }
}

/// Devices counted against the budget `|D|`: devices created by this layer
/// plus bindable inherited ones. Masked-out inherited devices (the previous
/// iteration's D'_i, which this layer is re-deciding) do not count — their
/// slots are conceptually free for reconfiguration (§3.2).
fn active_device_count(state: &State<'_, '_>) -> usize {
    (0..state.devices.len())
        .filter(|&d| {
            state.created.contains(&d) || state.p.bindable.get(d).copied().unwrap_or(false)
        })
        .count()
}

/// Budget that must stay in reserve for operations not yet scheduled:
/// one slot per distinct fresh config among remaining determinate ops that
/// no current device can host, plus one slot per remaining indeterminate op
/// that cannot claim an untaken compatible device. Without this reserve the
/// greedy can spend the whole budget on parallelism and strand a later
/// operation kind.
fn forced_reserve(
    state: &State<'_, '_>,
    remaining_det: &[OpId],
    remaining_ind: &[OpId],
    taken: &BTreeSet<usize>,
) -> usize {
    let mut configs: BTreeSet<DeviceConfig> = BTreeSet::new();
    for &op in remaining_det {
        if !state.compat_any[op.index()] {
            if let Some(cfg) = state.ctx.fresh[op.index()] {
                configs.insert(cfg);
            }
        }
    }
    let mut virtually_taken = taken.clone();
    let mut ind_extra = 0;
    for &op in remaining_ind {
        let claim = (0..state.devices.len())
            .find(|&d| !virtually_taken.contains(&d) && device_compatible(state, op, d));
        match claim {
            Some(d) => {
                virtually_taken.insert(d);
            }
            None => ind_extra += 1,
        }
    }
    configs.len() + ind_extra
}

/// Enumerates binding candidates for `op`. `exclude` filters devices taken
/// by other indeterminate ops; `reserve` is the budget that must remain for
/// later forced creations (0 when this op itself has no compatible device).
fn candidates(
    state: &State<'_, '_>,
    op: OpId,
    exclude: &BTreeSet<usize>,
    reserve: usize,
) -> Vec<Decision> {
    let p = state.p;
    let req = p.assay.op(op).requirements();
    let mut out = Vec::new();
    for d in 0..state.devices.len() {
        if exclude.contains(&d) {
            continue;
        }
        if device_compatible(state, op, d) {
            out.push(Decision::Existing(d));
            continue;
        }
        let inherited = !state.created.contains(&d);
        let visible = !inherited || p.bindable.get(d).copied().unwrap_or(false);
        if p.component_oriented && !inherited && visible {
            // Retrofit: same container/capacity, add missing accessories.
            let cfg = &state.devices[d];
            if shape_fits(cfg, req) && !req.accessories.is_subset(&cfg.accessories()) {
                out.push(Decision::Retrofit {
                    device: d,
                    union: cfg.accessories().union(req.accessories),
                });
            }
        }
    }
    // A creation is *forced* when nothing above matched; forced creations
    // ignore the reserve and quota (they are what the reserve saved room
    // for). Optional creations respect both.
    let forced = out.is_empty();
    let effective_reserve = if forced { 0 } else { reserve };
    if active_device_count(state) + effective_reserve < p.max_devices {
        if let Some(cfg) = state.ctx.fresh[op.index()] {
            let within_quota = state
                .quotas
                .get(&cfg)
                .is_none_or(|&q| state.created_of.get(&cfg).copied().unwrap_or(0) < q);
            if forced || within_quota {
                out.push(Decision::New(cfg));
            }
        }
    }
    out
}

/// Work-proportional creation quotas per fresh-device configuration.
///
/// Without quotas the greedy hands the whole budget to whichever stage of
/// the assay becomes ready first, starving later stages into full
/// serialisation. Each configuration needed by the layer gets at least one
/// slot; the remaining budget is split by total workload (largest
/// remainder), capped at the number of ops wanting that configuration.
fn provision_quotas(
    state: &State<'_, '_>,
    det_order: &[OpId],
    ind_order: &[OpId],
) -> BTreeMap<DeviceConfig, usize> {
    let p = state.p;
    let budget = p.max_devices.saturating_sub(active_device_count(state));
    let mut work: BTreeMap<DeviceConfig, u64> = BTreeMap::new();
    let mut ops_count: BTreeMap<DeviceConfig, usize> = BTreeMap::new();
    for &op in det_order.iter().chain(ind_order) {
        if let Some(cfg) = state.ctx.fresh[op.index()] {
            *work.entry(cfg).or_insert(0) += p.assay.op(op).duration().min_duration().max(1);
            *ops_count.entry(cfg).or_insert(0) += 1;
        }
    }
    if work.is_empty() || budget == 0 {
        return work.keys().map(|&c| (c, 0)).collect();
    }
    let total: u64 = work.values().sum();
    // Base: one slot each (as far as the budget goes, biggest work first).
    let mut quotas: BTreeMap<DeviceConfig, usize> = work.keys().map(|&c| (c, 0)).collect();
    let mut order: Vec<DeviceConfig> = work.keys().copied().collect();
    order.sort_by_key(|c| std::cmp::Reverse(work[c]));
    let mut left = budget;
    for &c in &order {
        if left == 0 {
            break;
        }
        quotas.insert(c, 1);
        left -= 1;
    }
    // Proportional shares of the remainder, capped by ops_count.
    if left > 0 {
        let mut shares: Vec<(DeviceConfig, u64, u64)> = order
            .iter()
            .map(|&c| {
                let exact = left as u64 * work[&c];
                (c, exact / total, exact % total)
            })
            .collect();
        let mut used: usize = 0;
        for &(c, whole, _) in &shares {
            let cap = ops_count[&c].saturating_sub(quotas[&c]);
            let add = (whole as usize).min(cap).min(left - used);
            *quotas.entry(c).or_insert(0) += add;
            used += add;
        }
        // Largest remainders take any leftover slots.
        shares.sort_by_key(|&(_, _, rem)| std::cmp::Reverse(rem));
        for &(c, _, _) in &shares {
            if used >= left {
                break;
            }
            if quotas[&c] < ops_count[&c] {
                *quotas.entry(c).or_insert(0) += 1;
                used += 1;
            }
        }
    }
    quotas
}

/// Greedy construction. `det_order` must schedule every in-layer parent
/// before its children (any topological order of the layer's determinate
/// ops works — the priority order, or the SDC-derived order of
/// [`crate::sdc_model`]).
pub(crate) fn construct(
    p: &LayerProblem<'_>,
    ctx: &Ctx,
    det_order: &[OpId],
    ind_order: &[OpId],
) -> Result<LayerSolution, CoreError> {
    let mut state = State::new(p, ctx);
    state.init_compat();
    state.quotas = provision_quotas(&state, det_order, ind_order);
    let no_exclusions = BTreeSet::new();
    for (pos, &op) in det_order.iter().enumerate() {
        let ready = state.ready_time(op);
        let dur = p.assay.op(op).duration().min_duration();
        let t_out = p.transport.of(op);
        let reserve = forced_reserve(&state, &det_order[pos + 1..], ind_order, &no_exclusions);
        let mut best: Option<(u64, u64, usize, Decision)> = None; // (cost, start, rank)
        for dec in candidates(&state, op, &no_exclusions, reserve) {
            let d = dec.device(state.devices.len());
            let avail = state.avail.get(d).copied().unwrap_or(0);
            let start = ready.max(avail);
            let paths = match &dec {
                Decision::New(_) => {
                    // Paths to a fresh device: count parents on other devices.
                    state.added_paths_to_new(op, d)
                }
                _ => state.added_path_count(op, d),
            };
            let cost = p.weights.time * (start + dur + t_out)
                + state.capex(&dec)
                + p.weights.paths * paths;
            let rank = match &dec {
                Decision::Existing(_) => 0,
                Decision::Retrofit { .. } => 1,
                Decision::New(_) => 2,
            };
            if best
                .as_ref()
                .is_none_or(|(c, _, r, _)| (cost, rank) < (*c, *r))
            {
                best = Some((cost, start, rank, dec));
            }
        }
        let Some((_, start, _, dec)) = best else {
            return Err(CoreError::DeviceBudgetExhausted {
                op: op.index(),
                max_devices: p.max_devices,
            });
        };
        let d = apply_decision(&mut state, dec);
        state.commit(op, d, start);
    }

    // Indeterminate ops: distinct devices, aligned starts.
    let mut taken: BTreeSet<usize> = BTreeSet::new();
    let mut placed: Vec<(OpId, usize, u64)> = Vec::new();
    for (pos, &op) in ind_order.iter().enumerate() {
        let ready = state.ready_time(op);
        let reserve = forced_reserve(&state, &[], &ind_order[pos + 1..], &taken);
        let mut best: Option<(u64, u64, usize, Decision)> = None;
        for dec in candidates(&state, op, &taken, reserve) {
            let d = dec.device(state.devices.len());
            let avail = state.avail.get(d).copied().unwrap_or(0);
            let start = ready.max(avail);
            let paths = match &dec {
                Decision::New(_) => state.added_paths_to_new(op, d),
                _ => state.added_path_count(op, d),
            };
            let cost = p.weights.time * start + state.capex(&dec) + p.weights.paths * paths;
            let rank = match &dec {
                Decision::Existing(_) => 0,
                Decision::Retrofit { .. } => 1,
                Decision::New(_) => 2,
            };
            if best
                .as_ref()
                .is_none_or(|(c, _, r, _)| (cost, rank) < (*c, *r))
            {
                best = Some((cost, start, rank, dec));
            }
        }
        let Some((_, start, _, dec)) = best else {
            return Err(CoreError::DeviceBudgetExhausted {
                op: op.index(),
                max_devices: p.max_devices,
            });
        };
        let d = apply_decision(&mut state, dec);
        taken.insert(d);
        placed.push((op, d, start));
    }
    align_and_commit_indeterminate(&mut state, &placed);
    Ok(state.finish())
}

impl State<'_, '_> {
    /// Path count to a not-yet-created device index (all parent devices
    /// differ by definition).
    fn added_paths_to_new(&self, op: OpId, new_d: usize) -> u64 {
        let mut keys: Vec<(usize, usize)> = Vec::new();
        for q in &self.ctx.parents[op.index()] {
            if let Some(s) = self.slots.get(q) {
                let k = path_key(s.device, new_d);
                if !keys.contains(&k) {
                    keys.push(k);
                }
            }
        }
        for &(child, pd) in &self.p.cross_inputs {
            if child == op {
                let k = path_key(pd, new_d);
                if !keys.contains(&k) {
                    keys.push(k);
                }
            }
        }
        keys.len() as u64
    }
}

fn apply_decision(state: &mut State<'_, '_>, dec: Decision) -> usize {
    match dec {
        Decision::Existing(d) => d,
        Decision::Retrofit { device, union } => {
            let cfg = &mut state.devices[device];
            let mut updated = *cfg;
            updated.add_accessories(union);
            *cfg = updated;
            state.refresh_compat_for(device);
            device
        }
        Decision::New(cfg) => {
            state.devices.push(cfg);
            state.avail.push(0);
            let d = state.devices.len() - 1;
            state.created.insert(d);
            *state.created_of.entry(cfg).or_insert(0) += 1;
            state.refresh_compat_for(d);
            d
        }
    }
}

/// Aligns indeterminate starts at `max(latest earliest-start, latest
/// determinate start)` and commits them (this satisfies eq. 14: every start
/// in the layer is `<=` every indeterminate start).
fn align_and_commit_indeterminate(state: &mut State<'_, '_>, placed: &[(OpId, usize, u64)]) {
    if placed.is_empty() {
        return;
    }
    let max_det_start = state.slots.values().map(|s| s.start).max().unwrap_or(0);
    let t_star = placed
        .iter()
        .map(|&(_, _, e)| e)
        .max()
        .unwrap_or(0)
        .max(max_det_start);
    for &(op, d, _) in placed {
        state.commit(op, d, t_star);
    }
}

/// Re-schedules with a *pinned* binding (op -> device index in
/// `reference.devices`), preserving the construction order. Used by the
/// improvement passes. Returns `None` if the binding is incompatible,
/// violates indeterminate exclusivity, or cannot beat `bound`: the
/// re-scheduling aborts once its running objective lower bound reaches
/// `bound`, which is exact for callers that adopt only objectives below
/// `bound`.
fn schedule_with_binding(
    p: &LayerProblem<'_>,
    ctx: &Ctx,
    det_order: &[OpId],
    ind_order: &[OpId],
    binding: &BTreeMap<OpId, usize>,
    reference: &LayerSolution,
    bound: u64,
) -> Option<LayerSolution> {
    let mut state = State::new(p, ctx);
    // Recreate the reference's created devices with their *base* (cheapest)
    // configs; retrofits re-derive from the ops actually bound there.
    let base = p.devices.len();
    for cfg in &reference.devices[base.min(reference.devices.len())..] {
        // Start each created device from the container only; accessories are
        // re-unioned from bound ops below.
        let bare = DeviceConfig::new(cfg.container(), cfg.capacity(), Default::default()).ok()?;
        state.devices.push(bare);
        state.avail.push(0);
        let d = state.devices.len() - 1;
        state.created.insert(d);
    }
    // Re-derive accessory unions for created devices.
    for (&op, &d) in binding {
        if d >= state.devices.len() {
            return None;
        }
        if state.created.contains(&d) {
            let req = p.assay.op(op).requirements();
            if !shape_fits(&state.devices[d], req) {
                return None;
            }
            let mut cfg = state.devices[d];
            cfg.add_accessories(req.accessories);
            state.devices[d] = cfg;
        }
    }
    // Compatibility check for every binding.
    for (&op, &d) in binding {
        let inherited = !state.created.contains(&d);
        if inherited && !p.bindable.get(d).copied().unwrap_or(false) {
            return None;
        }
        if !config_fits(p, &state.devices[d], p.assay.op(op).requirements()) {
            return None;
        }
    }
    // Indeterminate exclusivity.
    let ind_devs: Vec<usize> = ind_order
        .iter()
        .map(|o| binding.get(o).copied())
        .collect::<Option<_>>()?;
    let distinct: BTreeSet<usize> = ind_devs.iter().copied().collect();
    if distinct.len() != ind_devs.len() {
        return None;
    }

    // The binding already fixes which created devices stay in use and
    // their configs, so their capex is exact before any slot commits.
    let mut in_use = vec![false; state.devices.len()];
    for &d in binding.values() {
        in_use[d] = true;
    }
    let w = p.weights;
    let capex: u64 = state
        .created
        .iter()
        .filter(|&&d| in_use[d])
        .map(|&d| {
            let cfg = &state.devices[d];
            w.area * p.costs.device_area(cfg) + w.processing * p.costs.device_processing(cfg)
        })
        .sum();
    if state.lower_bound(capex) >= bound {
        return None;
    }
    for &op in det_order {
        let &d = binding.get(&op)?;
        let start = state.ready_time(op).max(state.avail[d]);
        state.commit(op, d, start);
        if state.lower_bound(capex) >= bound {
            return None;
        }
    }
    let mut placed: Vec<(OpId, usize, u64)> = Vec::with_capacity(ind_order.len());
    for (&op, &d) in ind_order.iter().zip(&ind_devs) {
        let e = state.ready_time(op).max(state.avail[d]);
        placed.push((op, d, e));
    }
    align_and_commit_indeterminate(&mut state, &placed);
    let lower = state.lower_bound(capex);
    if lower >= bound {
        return None;
    }
    let sol = state.finish();
    debug_assert!(
        lower <= sol.objective,
        "re-binding lower bound {lower} exceeds the objective {}",
        sol.objective
    );
    Some(sol)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{
        Assay, Duration, HybridSchedule, LayerSchedule, Operation, TransportConfig, TransportTimes,
        Weights,
    };
    use mfhls_chip::{Accessory, Capacity, ContainerKind, CostModel};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Heuristic solves cross-checked by [`assert_matches_unpruned`].
    static CROSS_CHECKED: AtomicUsize = AtomicUsize::new(0);

    /// The re-binding search without pruning: every alternative device is
    /// re-scheduled in full, and the first strict improvement in ascending
    /// device order is adopted.
    fn solve_unpruned(
        solver: &HeuristicLayerSolver,
        p: &LayerProblem<'_>,
    ) -> Result<LayerSolution, CoreError> {
        let ctx = Ctx::new(p);
        let (det_order, ind_order) = priority_orders(p)?;
        let mut best = construct(p, &ctx, &det_order, &ind_order)?;
        let (mut rounds, mut adoptions) = (0u64, 0u64);
        for _ in 0..solver.improvement_passes {
            rounds += 1;
            let mut improved_any = false;
            for &op in &p.ops {
                let binding: BTreeMap<OpId, usize> =
                    best.slots.iter().map(|s| (s.op, s.device)).collect();
                let current = binding[&op];
                let adopted = (0..best.devices.len())
                    .filter(|&d| d != current)
                    .find_map(|d| {
                        let mut cand = binding.clone();
                        cand.insert(op, d);
                        schedule_with_binding(
                            p,
                            &ctx,
                            &det_order,
                            &ind_order,
                            &cand,
                            &best,
                            u64::MAX,
                        )
                        .filter(|sol| sol.objective < best.objective)
                    });
                if let Some(sol) = adopted {
                    best = sol;
                    improved_any = true;
                    adoptions += 1;
                }
            }
            if !improved_any {
                break;
            }
        }
        best.stats.heuristic_rounds = rounds;
        best.stats.rebind_adoptions = adoptions;
        Ok(best)
    }

    /// Run by every heuristic solve in this crate's tests: the pruned
    /// search must adopt exactly what the unpruned reference adopts —
    /// slots, devices, new devices, paths, objective and counters.
    pub(super) fn assert_matches_unpruned(
        solver: &HeuristicLayerSolver,
        p: &LayerProblem<'_>,
        pruned: &LayerSolution,
    ) {
        let reference = solve_unpruned(solver, p).expect("reference solves what pruning solves");
        assert_eq!(
            *pruned, reference,
            "pruned re-binding diverged from the unpruned reference"
        );
        CROSS_CHECKED.fetch_add(1, Ordering::Relaxed);
    }

    /// Re-homes an assay built by a dependent crate, which links the
    /// library build of this crate (a distinct type), into this test build.
    macro_rules! rehome {
        ($assay:expr) => {{
            let src = $assay;
            let mut out = Assay::new(src.name());
            for (_, op) in src.iter() {
                let min = op.duration().min_duration();
                let duration = if op.is_indeterminate() {
                    Duration::at_least(min)
                } else {
                    Duration::fixed(min)
                };
                out.add_op(
                    Operation::new(op.name())
                        .requirements_from(op.requirements().clone())
                        .with_duration(duration),
                );
            }
            for (parent, child) in src.dependencies() {
                out.add_dependency(OpId(parent.index()), OpId(child.index()))
                    .expect("a DAG stays a DAG");
            }
            out
        }};
    }
    pub(crate) use rehome;

    #[test]
    fn pruning_adopts_what_the_unpruned_search_adopts() {
        // Paper cases 1-3 at the default configuration, then the committed
        // corpus (`bench/corpus/` is `gen --seed 1 --count 2`) at its check
        // configuration. Every layer solve of every re-synthesis pass goes
        // through `assert_matches_unpruned`.
        let mut cases: Vec<(String, Assay, usize)> = mfhls_assays::benchmarks()
            .into_iter()
            .map(|(case, _, a)| (format!("case {case}"), rehome!(a), 25))
            .collect();
        for profile in mfhls_bench::gen::Profile::ALL {
            for seed in 1..=2 {
                let budget = mfhls_bench::gen::check_config(profile).max_devices;
                let assay = rehome!(mfhls_bench::gen::generate(profile, seed));
                cases.push((format!("{profile}/{seed}"), assay, budget));
            }
        }
        for (tag, assay, budget) in &cases {
            let layers = crate::layer_assay(assay, 10).expect("layers").num_layers();
            for threads in [1, 4] {
                let before = CROSS_CHECKED.load(Ordering::Relaxed);
                let config = crate::SynthConfig::builder()
                    .max_devices(*budget)
                    .build()
                    .expect("valid config");
                let run =
                    mfhls_par::with_threads(threads, || crate::Synthesizer::new(config).run(assay));
                let checked = CROSS_CHECKED.load(Ordering::Relaxed) - before;
                match run {
                    Ok(_) => assert!(checked >= layers, "{tag}: {checked} of {layers} checked"),
                    // Starved budgets may strand an op; the layers solved
                    // before that were still cross-checked.
                    Err(CoreError::DeviceBudgetExhausted { .. }) => {}
                    Err(e) => panic!("{tag}: {e}"),
                }
            }
        }
    }

    fn solve_single_layer(assay: &Assay, max_devices: usize) -> LayerSolution {
        let costs = CostModel::default();
        let transport = TransportTimes::initial(assay, &TransportConfig::default());
        let p = LayerProblem {
            assay,
            ops: assay.op_ids().collect(),
            devices: vec![],
            bindable: vec![],
            max_devices,
            transport: &transport,
            weights: Weights::default(),
            costs: &costs,
            existing_paths: BTreeSet::new(),
            cross_inputs: vec![],
            component_oriented: true,
        };
        HeuristicLayerSolver::default().solve(&p).expect("solvable")
    }

    fn as_schedule(sol: &LayerSolution) -> HybridSchedule {
        HybridSchedule {
            layers: vec![LayerSchedule::new(sol.slots.clone())],
            devices: sol.devices.clone(),
            paths: sol.new_paths.clone(),
        }
    }

    #[test]
    fn single_op() {
        let mut a = Assay::new("t");
        a.add_op(Operation::new("x").with_duration(Duration::fixed(5)));
        let sol = solve_single_layer(&a, 4);
        assert_eq!(sol.slots.len(), 1);
        assert_eq!(sol.devices.len(), 1);
        assert_eq!(sol.makespan(), 5);
        as_schedule(&sol).validate(&a).unwrap();
    }

    #[test]
    fn independent_ops_parallelise_with_budget() {
        let mut a = Assay::new("t");
        for k in 0..4 {
            a.add_op(Operation::new(&format!("x{k}")).with_duration(Duration::fixed(10)));
        }
        let sol = solve_single_layer(&a, 8);
        assert_eq!(sol.makespan(), 10, "all four should run in parallel");
        as_schedule(&sol).validate(&a).unwrap();
    }

    #[test]
    fn budget_forces_serialisation() {
        let mut a = Assay::new("t");
        for k in 0..3 {
            a.add_op(Operation::new(&format!("x{k}")).with_duration(Duration::fixed(10)));
        }
        let sol = solve_single_layer(&a, 1);
        assert_eq!(sol.devices.len(), 1);
        assert_eq!(sol.makespan(), 30);
        as_schedule(&sol).validate(&a).unwrap();
    }

    #[test]
    fn chain_respects_transport() {
        let mut a = Assay::new("t");
        let x = a.add_op(Operation::new("x").with_duration(Duration::fixed(5)));
        let y = a.add_op(Operation::new("y").with_duration(Duration::fixed(5)));
        a.add_dependency(x, y).unwrap();
        let sol = solve_single_layer(&a, 4);
        let sx = sol.slots.iter().find(|s| s.op == x).unwrap();
        let sy = sol.slots.iter().find(|s| s.op == y).unwrap();
        if sx.device == sy.device {
            assert!(sy.start >= sx.start + 5);
        } else {
            assert!(sy.start >= sx.start + 5 + 3, "initial transport is 3");
        }
        as_schedule(&sol).validate(&a).unwrap();
    }

    #[test]
    fn reuses_device_for_sequential_compatible_ops() {
        // Two sequential ops with identical needs should share one device
        // (zero transport on the same device beats a second chamber).
        let mut a = Assay::new("t");
        let x = a.add_op(Operation::new("x").with_duration(Duration::fixed(5)));
        let y = a.add_op(Operation::new("y").with_duration(Duration::fixed(5)));
        a.add_dependency(x, y).unwrap();
        let sol = solve_single_layer(&a, 10);
        assert_eq!(sol.devices.len(), 1, "no reason for a second device");
    }

    #[test]
    fn indeterminate_ops_get_distinct_devices_and_aligned_starts() {
        let mut a = Assay::new("t");
        let i1 = a.add_op(Operation::new("i1").with_duration(Duration::at_least(4)));
        let i2 = a.add_op(Operation::new("i2").with_duration(Duration::at_least(6)));
        let d = a.add_op(Operation::new("prep").with_duration(Duration::fixed(3)));
        a.add_dependency(d, i1).unwrap();
        let sol = solve_single_layer(&a, 5);
        let s1 = sol.slots.iter().find(|s| s.op == i1).unwrap();
        let s2 = sol.slots.iter().find(|s| s.op == i2).unwrap();
        assert_ne!(s1.device, s2.device);
        assert_eq!(s1.start, s2.start);
        as_schedule(&sol).validate(&a).unwrap();
    }

    #[test]
    fn accessory_superset_binding() {
        // op1 needs ring+pump+sieve; op2 needs just a sieve on any
        // container: op2 should reuse op1's device (component-oriented).
        let mut a = Assay::new("t");
        let o1 = a.add_op(
            Operation::new("o1")
                .container(ContainerKind::Ring)
                .capacity(Capacity::Medium)
                .accessory(Accessory::SieveValve)
                .accessory(Accessory::Pump)
                .with_duration(Duration::fixed(5)),
        );
        let o2 = a.add_op(
            Operation::new("o2")
                .accessory(Accessory::SieveValve)
                .with_duration(Duration::fixed(5)),
        );
        a.add_dependency(o1, o2).unwrap();
        let sol = solve_single_layer(&a, 10);
        assert_eq!(sol.devices.len(), 1);
        as_schedule(&sol).validate(&a).unwrap();
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let mut a = Assay::new("t");
        a.add_op(Operation::new("x").with_duration(Duration::fixed(1)));
        let costs = CostModel::default();
        let transport = TransportTimes::initial(&a, &TransportConfig::default());
        let p = LayerProblem {
            assay: &a,
            ops: vec![OpId(0)],
            devices: vec![],
            bindable: vec![],
            max_devices: 0,
            transport: &transport,
            weights: Weights::default(),
            costs: &costs,
            existing_paths: BTreeSet::new(),
            cross_inputs: vec![],
            component_oriented: true,
        };
        assert!(matches!(
            HeuristicLayerSolver::default().solve(&p),
            Err(CoreError::DeviceBudgetExhausted { .. })
        ));
    }

    #[test]
    fn conventional_mode_partitions_by_signature() {
        // Two ops with different signatures cannot share a device in
        // conventional mode even though a superset device would fit both.
        let mut a = Assay::new("t");
        let o1 = a.add_op(
            Operation::new("o1")
                .accessory(Accessory::SieveValve)
                .accessory(Accessory::Pump)
                .with_duration(Duration::fixed(5)),
        );
        let o2 = a.add_op(
            Operation::new("o2")
                .accessory(Accessory::SieveValve)
                .with_duration(Duration::fixed(5)),
        );
        a.add_dependency(o1, o2).unwrap();
        let costs = CostModel::default();
        let transport = TransportTimes::initial(&a, &TransportConfig::default());
        let p = LayerProblem {
            assay: &a,
            ops: vec![o1, o2],
            devices: vec![],
            bindable: vec![],
            max_devices: 10,
            transport: &transport,
            weights: Weights::default(),
            costs: &costs,
            existing_paths: BTreeSet::new(),
            cross_inputs: vec![],
            component_oriented: false,
        };
        let sol = HeuristicLayerSolver::default().solve(&p).unwrap();
        assert_eq!(sol.devices.len(), 2, "signatures differ -> two devices");
    }

    #[test]
    fn cross_inputs_count_paths() {
        let mut a = Assay::new("t");
        a.add_op(Operation::new("x").with_duration(Duration::fixed(1)));
        let costs = CostModel::default();
        let transport = TransportTimes::initial(&a, &TransportConfig::default());
        let parent_dev_cfg =
            DeviceConfig::new(ContainerKind::Chamber, Capacity::Small, Default::default()).unwrap();
        let p = LayerProblem {
            assay: &a,
            ops: vec![OpId(0)],
            devices: vec![parent_dev_cfg],
            bindable: vec![true],
            max_devices: 10,
            transport: &transport,
            weights: Weights::default(),
            costs: &costs,
            existing_paths: BTreeSet::new(),
            cross_inputs: vec![(OpId(0), 0)],
            component_oriented: true,
        };
        let sol = HeuristicLayerSolver::default().solve(&p).unwrap();
        // Cheapest: bind to the parent's device -> no path at all.
        assert_eq!(sol.new_paths.len(), 0);
        assert_eq!(sol.slots[0].device, 0);
    }

    #[test]
    fn quota_prevents_stage_starvation() {
        // Two stages with very different readiness: 8 short "early" ops and
        // 8 long "late" ops each fed by one early op. A small budget must
        // still leave the long stage several devices, or it serialises.
        let mut a = Assay::new("t");
        for k in 0..8 {
            let early = a.add_op(
                Operation::new(&format!("early{k}"))
                    .capacity(Capacity::Tiny)
                    .with_duration(Duration::fixed(2)),
            );
            let late = a.add_op(
                Operation::new(&format!("late{k}"))
                    .capacity(Capacity::Small)
                    .accessory(Accessory::HeatingPad)
                    .with_duration(Duration::fixed(40)),
            );
            a.add_dependency(early, late).unwrap();
        }
        let sol = solve_single_layer(&a, 8);
        // The heavy stage must get the lion's share of the 8 devices:
        // makespan far below full serialisation (8 * 40 = 320).
        assert!(sol.makespan() <= 120, "makespan {}", sol.makespan());
        as_schedule(&sol).validate(&a).unwrap();
    }

    #[test]
    fn reserve_prevents_stranded_op_kinds() {
        // Many parallel tiny ops would gladly eat the whole budget; the one
        // late op with a unique requirement must still get a device.
        let mut a = Assay::new("t");
        let gate = a.add_op(
            Operation::new("gate")
                .capacity(Capacity::Tiny)
                .with_duration(Duration::fixed(1)),
        );
        for k in 0..12 {
            let op = a.add_op(
                Operation::new(&format!("bulk{k}"))
                    .capacity(Capacity::Tiny)
                    .with_duration(Duration::fixed(10)),
            );
            a.add_dependency(gate, op).unwrap();
        }
        let special = a.add_op(
            Operation::new("special")
                .container(ContainerKind::Ring)
                .capacity(Capacity::Medium)
                .accessory(Accessory::Pump)
                .with_duration(Duration::fixed(5)),
        );
        a.add_dependency(gate, special).unwrap();
        // Budget 4: bulk could want 4 chambers, but one slot must stay
        // reserved for the ring.
        let sol = solve_single_layer(&a, 4);
        as_schedule(&sol).validate(&a).unwrap();
        assert!(sol
            .devices
            .iter()
            .any(|d| d.container() == ContainerKind::Ring));
    }

    #[test]
    fn conventional_large_capacity_defaults_to_ring() {
        // An op demanding Large capacity without a container: the
        // conventional signature cannot be a chamber (eqs. 3-4).
        let mut a = Assay::new("t");
        a.add_op(
            Operation::new("big")
                .capacity(Capacity::Large)
                .with_duration(Duration::fixed(5)),
        );
        let costs = CostModel::default();
        let transport = TransportTimes::initial(&a, &TransportConfig::default());
        let p = LayerProblem {
            assay: &a,
            ops: vec![OpId(0)],
            devices: vec![],
            bindable: vec![],
            max_devices: 3,
            transport: &transport,
            weights: Weights::default(),
            costs: &costs,
            existing_paths: BTreeSet::new(),
            cross_inputs: vec![],
            component_oriented: false,
        };
        let sol = HeuristicLayerSolver::default().solve(&p).unwrap();
        assert_eq!(sol.devices[0].container(), ContainerKind::Ring);
        assert_eq!(sol.devices[0].capacity(), Capacity::Large);
    }

    #[test]
    fn unfabricable_requirement_reports_budget_error() {
        // Chamber + Large cannot be built; with no compatible device the
        // solver must fail cleanly rather than panic.
        let mut a = Assay::new("t");
        a.add_op(
            Operation::new("impossible")
                .container(ContainerKind::Chamber)
                .capacity(Capacity::Large)
                .with_duration(Duration::fixed(5)),
        );
        let costs = CostModel::default();
        let transport = TransportTimes::initial(&a, &TransportConfig::default());
        let p = LayerProblem {
            assay: &a,
            ops: vec![OpId(0)],
            devices: vec![],
            bindable: vec![],
            max_devices: 5,
            transport: &transport,
            weights: Weights::default(),
            costs: &costs,
            existing_paths: BTreeSet::new(),
            cross_inputs: vec![],
            component_oriented: true,
        };
        assert!(matches!(
            HeuristicLayerSolver::default().solve(&p),
            Err(CoreError::DeviceBudgetExhausted { .. })
        ));
    }

    #[test]
    fn retrofit_unifies_accessories_on_new_devices() {
        // Sequential ops with disjoint accessory needs but the same
        // container class: one retrofitted device beats two devices + a
        // path + transport.
        let mut a = Assay::new("t");
        let o1 = a.add_op(
            Operation::new("heat")
                .capacity(Capacity::Small)
                .accessory(Accessory::HeatingPad)
                .with_duration(Duration::fixed(5)),
        );
        let o2 = a.add_op(
            Operation::new("image")
                .capacity(Capacity::Small)
                .accessory(Accessory::OpticalSystem)
                .with_duration(Duration::fixed(5)),
        );
        a.add_dependency(o1, o2).unwrap();
        let sol = solve_single_layer(&a, 6);
        assert_eq!(sol.devices.len(), 1);
        let acc = sol.devices[0].accessories();
        assert!(acc.contains(Accessory::HeatingPad));
        assert!(acc.contains(Accessory::OpticalSystem));
        as_schedule(&sol).validate(&a).unwrap();
    }

    #[test]
    fn improvement_never_worsens() {
        let mut a = Assay::new("t");
        let mut prev = None;
        for k in 0..6 {
            let o = a.add_op(Operation::new(&format!("o{k}")).with_duration(Duration::fixed(3)));
            if let Some(p) = prev {
                a.add_dependency(p, o).unwrap();
            }
            if k % 2 == 0 {
                prev = Some(o);
            }
        }
        let costs = CostModel::default();
        let transport = TransportTimes::initial(&a, &TransportConfig::default());
        let mk = |passes| {
            let p = LayerProblem {
                assay: &a,
                ops: a.op_ids().collect(),
                devices: vec![],
                bindable: vec![],
                max_devices: 6,
                transport: &transport,
                weights: Weights::default(),
                costs: &costs,
                existing_paths: BTreeSet::new(),
                cross_inputs: vec![],
                component_oriented: true,
            };
            HeuristicLayerSolver {
                improvement_passes: passes,
            }
            .solve(&p)
            .unwrap()
        };
        let base = mk(0);
        let improved = mk(3);
        assert!(improved.objective <= base.objective);
    }
}
