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
//! The passes stop early at a fixpoint: once every op has been tried
//! against the current incumbent without an adoption, no later op can
//! adopt either. Candidates are pruned exactly: moves the re-scheduler
//! would reject are filtered before any schedule is built, and a
//! re-schedule aborts as soon as its running objective lower bound, which
//! counts the indeterminate ops' coming alignment, reaches the incumbent's
//! objective. Every candidate for one op resumes from the same checkpoint:
//! the incumbent binding committed over the determinate ops that precede
//! the op in construction order, which no move of that op can change. The
//! checkpoint also holds what the other ops fix for every candidate: the
//! created devices' accessory unions, which devices they use and which of
//! those hold an indeterminate op, the capex of the created devices they
//! use, and whether they can be placed at all. These are tallied once per
//! incumbent and adjusted for the moved op, and a candidate then checks
//! and prices only the moved op on its new device.

use crate::problem::path_key;
use crate::{CoreError, LayerProblem, LayerSolution, LayerSolver, OpId, ScheduledOp};
use mfhls_chip::{DeviceConfig, Requirements};
use mfhls_graph::BitSet;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

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
        let (det_order, ind_order) = priority_orders(p, &ctx)?;
        let mut best = construct(p, &ctx, &det_order, &ind_order)?;

        // Where each op's candidates resume: its position in `det_order`,
        // or the whole determinate order for an indeterminate op.
        let mut resume_at = vec![det_order.len(); ctx.ops.len()];
        for (k, &op) in det_order.iter().enumerate() {
            resume_at[ctx.rank(op)] = k;
        }
        let mut re = Rescheduler::new(p, &ctx);
        re.derive(&best);
        let mut rounds = 0u64;
        let mut adoptions = 0u64;
        // Ops tried in a row against `best` without an adoption. Trying an
        // op depends only on the op and the incumbent, so once every op has
        // been tried against this one, no later op can adopt.
        let mut quiet = 0;
        for _ in 0..self.improvement_passes {
            rounds += 1;
            for &op in p.ops.iter() {
                if quiet == p.ops.len() {
                    break;
                }
                let r = ctx.rank(op);
                let current = re.binding[r];
                if current == UNBOUND {
                    return Err(CoreError::Internal(format!(
                        "layer solution lost operation o{}",
                        op.index()
                    )));
                }
                let (prefix, suffix) = det_order.split_at(resume_at[r]);
                // Whether `re` holds the incumbent committed over `prefix`:
                // shared by every candidate of this op, built for the first
                // one that passes the prefilter.
                let mut checkpoint = None;
                // Adoption rule: the first improving device in ascending
                // order. Pruned candidates could not have improved, so the
                // adopted device is the one an unpruned search finds.
                let mut adopted = None;
                for d in (0..best.devices.len()).filter(|&d| d != current) {
                    if !may_rebind(p, &best, &re.tally.ind_count, op, d) {
                        continue;
                    }
                    if !*checkpoint.get_or_insert_with(|| re.checkpoint(prefix, r)) {
                        break; // no candidate of this op can be re-scheduled
                    }
                    let resumed = re.resume(suffix, &ind_order, d, best.objective);
                    #[cfg(test)]
                    tests::assert_resume_matches_from_scratch(
                        &re,
                        (&det_order, &ind_order),
                        d,
                        &best,
                        &resumed,
                    );
                    adopted = resumed.filter(|sol| sol.objective < best.objective);
                    if adopted.is_some() {
                        break; // next op, with a fresh binding
                    }
                }
                match adopted {
                    Some(sol) => {
                        best = sol;
                        // Device indices may have been renumbered by pruning.
                        re.derive(&best);
                        adoptions += 1;
                        quiet = 0;
                    }
                    None => quiet += 1,
                }
            }
            if quiet == p.ops.len() {
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
struct PairSet {
    bits: BitSet,
    cap: usize,
}

impl Clone for PairSet {
    fn clone(&self) -> Self {
        PairSet {
            bits: self.bits.clone(),
            cap: self.cap,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.bits.clone_from(&source.bits);
        self.cap = source.cap;
    }
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

    fn clear(&mut self) {
        self.bits.clear();
    }

    fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let cap = self.cap;
        self.bits.iter().map(move |k| (k / cap, k % cap))
    }
}

/// Binding entry of an op that a solution does not place.
const UNBOUND: usize = usize::MAX;

/// Immutable per-problem context computed once per [`HeuristicLayerSolver::solve`]
/// call. Every per-op vector here and in [`State`] is indexed by the op's
/// *rank*: its position among the layer's ops in ascending id, so walking
/// ranks in order lists slots the way a [`LayerSolution`] holds them.
/// `pub(crate)`: the SDC legalizer (`crate::sdc_model`) drives the same
/// binding machinery under its own construction order.
pub(crate) struct Ctx {
    /// The layer's ops in ascending id (rank → op).
    ops: Vec<OpId>,
    /// Position in `p.ops` per rank: the construction orders' tie-break.
    pub(crate) pos: Vec<usize>,
    /// Rank per *global* op index; [`UNBOUND`] for ops outside the layer.
    rank: Vec<usize>,
    /// In-layer parents per op, as ranks. Ops outside the layer never hold
    /// slots, so only in-layer parents can constrain ready times or
    /// contribute paths.
    parents: Vec<Vec<usize>>,
    /// Devices of the op's cross-layer parents (its `cross_inputs`).
    cross: Vec<Vec<usize>>,
    /// Whether the op has at least one child inside the layer.
    internal_child: Vec<bool>,
    /// The distinct fresh-device configs of the layer's ops, ascending.
    configs: Vec<DeviceConfig>,
    /// Index into `configs` of the op's fresh-device config; `None` for
    /// unfabricable requirements.
    fresh: Vec<Option<usize>>,
    /// Paths that already exist on the chip.
    existing: PairSet,
    /// Device-index capacity of every [`PairSet`] of this problem: the
    /// inherited pool plus at most one created device per layer op.
    pair_cap: usize,
}

impl Ctx {
    pub(crate) fn new(p: &LayerProblem<'_>) -> Ctx {
        let mut ops = p.ops.clone();
        ops.sort_unstable();
        let mut rank = vec![UNBOUND; p.assay.len()];
        for (r, &o) in ops.iter().enumerate() {
            rank[o.index()] = r;
        }
        let mut pos = vec![0; ops.len()];
        for (i, &o) in p.ops.iter().enumerate() {
            pos[rank[o.index()]] = i;
        }
        let mut parents: Vec<Vec<usize>> = vec![Vec::new(); ops.len()];
        let mut internal_child = vec![false; ops.len()];
        for (q, c) in p.assay.dependencies() {
            let (rq, rc) = (rank[q.index()], rank[c.index()]);
            if rq != UNBOUND && rc != UNBOUND {
                parents[rc].push(rq);
                internal_child[rq] = true;
            }
        }
        let mut cross: Vec<Vec<usize>> = vec![Vec::new(); ops.len()];
        for &(child, pd) in &p.cross_inputs {
            if let Some(devices) = cross.get_mut(rank[child.index()]) {
                devices.push(pd);
            }
        }
        let fresh_configs: Vec<Option<DeviceConfig>> =
            ops.iter().map(|&o| fresh_config(p, o)).collect();
        let mut configs: Vec<DeviceConfig> = fresh_configs.iter().flatten().copied().collect();
        configs.sort_unstable();
        configs.dedup();
        let fresh = fresh_configs
            .iter()
            .map(|cfg| cfg.and_then(|c| configs.binary_search(&c).ok()))
            .collect();
        let pair_cap = p.devices.len() + p.ops.len() + 1;
        let mut existing = PairSet::new(pair_cap);
        for &k in &p.existing_paths {
            existing.insert(k);
        }
        Ctx {
            ops,
            pos,
            rank,
            parents,
            cross,
            internal_child,
            configs,
            fresh,
            existing,
            pair_cap,
        }
    }

    fn rank(&self, op: OpId) -> usize {
        self.rank[op.index()]
    }

    /// Writes `sol`'s device per op rank into `binding`; [`UNBOUND`] for
    /// an op it does not place.
    fn binding_into(&self, sol: &LayerSolution, binding: &mut Vec<usize>) {
        binding.clear();
        binding.resize(self.ops.len(), UNBOUND);
        for s in &sol.slots {
            binding[self.rank(s.op)] = s.device;
        }
    }

    /// The in-layer children per op rank, flattened: the children of rank
    /// `r` are `list[start[r]..start[r + 1]]`, one entry per dependency.
    fn children(&self) -> (Vec<usize>, Vec<usize>) {
        let n = self.ops.len();
        let mut start = vec![0; n + 1];
        for ps in &self.parents {
            for &q in ps {
                start[q + 1] += 1;
            }
        }
        for r in 0..n {
            start[r + 1] += start[r];
        }
        let mut next = start.clone();
        let mut list = vec![0; start[n]];
        for (c, ps) in self.parents.iter().enumerate() {
            for &q in ps {
                list[next[q]] = c;
                next[q] += 1;
            }
        }
        (start, list)
    }
}

/// Emits the layer's determinate ops, as ranks, in list order: repeatedly
/// the ready op (every determinate in-layer parent emitted) with the
/// largest `key`. Keys must be distinct. A ready heap makes this
/// `O((n + e) log n)`; the construction orders of the heuristic and of
/// the SDC legalizer ([`crate::sdc_model`]) both come from here.
pub(crate) fn list_order<K: Ord>(
    p: &LayerProblem<'_>,
    ctx: &Ctx,
    key: impl Fn(usize) -> K,
) -> Result<Vec<usize>, CoreError> {
    let n = ctx.ops.len();
    let det: Vec<bool> = ctx
        .ops
        .iter()
        .map(|&o| !p.assay.op(o).is_indeterminate())
        .collect();
    let (start, list) = ctx.children();
    let mut pending: Vec<usize> = ctx
        .parents
        .iter()
        .map(|ps| ps.iter().filter(|&&q| det[q]).count())
        .collect();
    let mut ready: BinaryHeap<(K, usize)> = (0..n)
        .filter(|&r| det[r] && pending[r] == 0)
        .map(|r| (key(r), r))
        .collect();
    let det_count = det.iter().filter(|&&d| d).count();
    let mut order = Vec::with_capacity(det_count);
    while let Some((_, r)) = ready.pop() {
        order.push(r);
        for &c in &list[start[r]..start[r + 1]] {
            pending[c] -= 1;
            if pending[c] == 0 && det[c] {
                ready.push((key(c), c));
            }
        }
    }
    if order.len() < det_count {
        return Err(CoreError::Internal(
            "no ready determinate op in an acyclic layer".to_owned(),
        ));
    }
    Ok(order)
}

/// Splits the layer's ops into a list-scheduling order for determinate ops
/// (ready op with the highest bottom level first, ties: earlier in
/// `p.ops`) and a priority order for indeterminate ones (highest bottom
/// level first, same ties). Bottom levels weigh each op by its minimum
/// duration plus its transport estimate.
pub(crate) fn priority_orders(
    p: &LayerProblem<'_>,
    ctx: &Ctx,
) -> Result<(Vec<OpId>, Vec<OpId>), CoreError> {
    let n = ctx.ops.len();
    let pos = &ctx.pos;
    // Bottom levels, children before parents (Kahn's order, reversed).
    let (start, list) = ctx.children();
    let mut parents_left: Vec<usize> = ctx.parents.iter().map(Vec::len).collect();
    let mut topo: Vec<usize> = (0..n).filter(|&r| parents_left[r] == 0).collect();
    let mut k = 0;
    while let Some(&r) = topo.get(k) {
        k += 1;
        for &c in &list[start[r]..start[r + 1]] {
            parents_left[c] -= 1;
            if parents_left[c] == 0 {
                topo.push(c);
            }
        }
    }
    if topo.len() < n {
        return Err(CoreError::Internal("layer DAG is cyclic".to_owned()));
    }
    let mut bl = vec![0u64; n];
    for &r in topo.iter().rev() {
        let op = ctx.ops[r];
        let below = list[start[r]..start[r + 1]]
            .iter()
            .map(|&c| bl[c])
            .max()
            .unwrap_or(0);
        bl[r] = p.assay.op(op).duration().min_duration() + p.transport.of(op) + below;
    }
    let det_order: Vec<OpId> = list_order(p, ctx, |r| (bl[r], Reverse(pos[r])))?
        .into_iter()
        .map(|r| ctx.ops[r])
        .collect();
    let mut ind_ranks: Vec<usize> = (0..n)
        .filter(|&r| p.assay.op(ctx.ops[r]).is_indeterminate())
        .collect();
    ind_ranks.sort_unstable_by_key(|&r| (Reverse(bl[r]), pos[r]));
    let ind_order: Vec<OpId> = ind_ranks.into_iter().map(|r| ctx.ops[r]).collect();
    #[cfg(test)]
    tests::assert_orders_match_reference(p, &det_order, &ind_order);
    Ok((det_order, ind_order))
}

/// Mutable scheduling state shared by construction and re-scheduling, in
/// flat storage: per-op vectors by rank (see [`Ctx`]) and per-device
/// vectors by device index. A device is created by this layer iff its
/// index is at least `p.devices.len()`: construction appends created
/// devices to the inherited pool, and re-scheduling recreates a
/// solution's created devices in the same place.
struct State<'p, 'a> {
    p: &'p LayerProblem<'a>,
    ctx: &'p Ctx,
    devices: Vec<DeviceConfig>,
    avail: Vec<u64>,
    /// The committed slot of each op, `None` until it commits.
    slots: Vec<Option<ScheduledOp>>,
    new_paths: PairSet,
    /// Running makespan of the committed slots.
    span: u64,
    /// Latest start among the committed slots.
    last_start: u64,
    /// Number of entries in `new_paths`.
    path_count: u64,
    /// Creation quotas per fresh config (see [`provision_quotas`]), indexed
    /// like `Ctx::configs`. Construction only: re-scheduling never
    /// creates devices, and leaves this and `created_of` empty.
    quotas: Vec<usize>,
    /// Devices created so far per fresh config.
    created_of: Vec<usize>,
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
            avail: vec![0; p.devices.len()],
            slots: vec![None; ctx.ops.len()],
            new_paths: PairSet::new(ctx.pair_cap),
            span: 0,
            last_start: 0,
            path_count: 0,
            quotas: Vec::new(),
            created_of: Vec::new(),
            compat_any: Vec::new(),
        }
    }

    /// Empties the state onto the device pool of `reference`: the
    /// inherited devices, then `reference`'s created devices stripped to
    /// their container and capacity (re-scheduling re-unions their
    /// accessories from the binding). `false` when a stripped config is
    /// invalid.
    fn reset(&mut self, reference: &LayerSolution) -> bool {
        let base = self.p.devices.len();
        self.devices.clear();
        self.devices.extend_from_slice(&self.p.devices);
        for cfg in &reference.devices[base.min(reference.devices.len())..] {
            let Ok(bare) = DeviceConfig::new(cfg.container(), cfg.capacity(), Default::default())
            else {
                return false;
            };
            self.devices.push(bare);
        }
        self.clear_slots();
        true
    }

    /// Uncommits every slot, keeping the device pool.
    fn clear_slots(&mut self) {
        self.avail.clear();
        self.avail.resize(self.devices.len(), 0);
        self.slots.fill(None);
        self.new_paths.clear();
        self.span = 0;
        self.last_start = 0;
        self.path_count = 0;
    }

    /// Takes `from`'s committed slots, paths and running figures.
    fn copy_slots(&mut self, from: &State<'_, '_>) {
        self.avail.clone_from(&from.avail);
        self.slots.clone_from(&from.slots);
        self.new_paths.clone_from(&from.new_paths);
        self.span = from.span;
        self.last_start = from.last_start;
        self.path_count = from.path_count;
    }

    /// Whether device `d` was created by this layer.
    fn is_created(&self, d: usize) -> bool {
        d >= self.p.devices.len()
    }

    /// Earliest start of `op` given its already-scheduled in-layer parents.
    fn ready_time(&self, op: OpId) -> u64 {
        self.ctx.parents[self.ctx.rank(op)]
            .iter()
            .filter_map(|&q| self.slots[q])
            .map(|s| s.start + s.duration + self.p.transport.of(s.op))
            .max()
            .unwrap_or(0)
    }

    /// Populates `compat_any` from the current device pool.
    fn init_compat(&mut self) {
        self.compat_any = self
            .ctx
            .ops
            .iter()
            .map(|&op| (0..self.devices.len()).any(|d| device_compatible(self, op, d)))
            .collect();
    }

    /// Re-checks still-unsatisfiable ops against device `d` after it was
    /// created or retrofitted.
    fn refresh_compat_for(&mut self, d: usize) {
        if self.compat_any.is_empty() {
            return;
        }
        let ctx = self.ctx;
        for (r, &op) in ctx.ops.iter().enumerate() {
            if !self.compat_any[r] && device_compatible(self, op, d) {
                self.compat_any[r] = true;
            }
        }
    }

    /// Number of distinct *new* paths that binding `op` to `device` would
    /// create. For a device index not created yet this counts every
    /// distinct parent device: no path reaches that index so far.
    fn added_path_count(&self, op: OpId, device: usize) -> u64 {
        let r = self.ctx.rank(op);
        let parent_devices = self.ctx.parents[r]
            .iter()
            .filter_map(|&q| self.slots[q].map(|s| s.device));
        let mut added: Vec<(usize, usize)> = Vec::new();
        for pd in parent_devices.chain(self.ctx.cross[r].iter().copied()) {
            if pd != device {
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
        let ctx = self.ctx;
        let r = ctx.rank(op);
        for &q in &ctx.parents[r] {
            if let Some(s) = self.slots[q] {
                if s.device != device {
                    self.add_path(path_key(s.device, device));
                }
            }
        }
        for &pd in &ctx.cross[r] {
            if pd != device {
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
    /// the exact `capex` of the created devices the final binding uses,
    /// a lower bound `ind_ready` on the indeterminate ops' earliest
    /// starts, and `tau`, the longest indeterminate minimum duration (0
    /// in a layer without indeterminate ops). Makespan, new paths and the
    /// latest start only grow as slots commit, and the indeterminate ops
    /// align no earlier than the latest start and `ind_ready`, then run
    /// for at least `tau`.
    fn lower_bound(&self, capex: u64, ind_ready: u64, tau: u64) -> u64 {
        let w = self.p.weights;
        let span = self.span.max(self.last_start.max(ind_ready) + tau);
        capex + w.time * span + w.paths * self.path_count
    }

    /// Records a slot and its induced paths.
    fn commit(&mut self, op: OpId, device: usize, start: u64) {
        let r = self.ctx.rank(op);
        let dur = self.p.assay.op(op).duration().min_duration();
        let transport = if self.ctx.internal_child[r] {
            self.p.transport.of(op)
        } else {
            0
        };
        self.commit_paths(op, device);
        self.slots[r] = Some(ScheduledOp {
            op,
            device,
            start,
            duration: dur,
            transport,
        });
        self.avail[device] = self.avail[device].max(start + dur + transport);
        self.span = self.span.max(start + dur);
        self.last_start = self.last_start.max(start);
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
            Decision::New(class) => {
                let cfg = &self.ctx.configs[*class];
                w.area * self.p.costs.device_area(cfg)
                    + w.processing * self.p.costs.device_processing(cfg)
            }
        }
    }

    /// Finalises into a [`LayerSolution`], pruning created-but-unused
    /// devices and renumbering.
    fn finish(&self) -> LayerSolution {
        let base = self.p.devices.len();
        let mut used = vec![false; self.devices.len()];
        for s in self.slots.iter().flatten() {
            used[s.device] = true;
        }
        let mut remap = vec![UNBOUND; self.devices.len()];
        let mut devices = Vec::with_capacity(self.devices.len());
        for (d, cfg) in self.devices.iter().enumerate() {
            if d < base || used[d] {
                remap[d] = devices.len();
                devices.push(*cfg);
            }
        }
        let slots: Vec<ScheduledOp> = self
            .slots
            .iter()
            .flatten()
            .map(|&s| ScheduledOp {
                device: remap[s.device],
                ..s
            })
            .collect();
        let new_paths: BTreeSet<(usize, usize)> = self
            .new_paths
            .iter()
            .map(|(a, b)| path_key(remap[a], remap[b]))
            .collect();
        // Inherited devices keep their indices, so the surviving created
        // devices are exactly the indices from `base` on.
        let new_devices: Vec<usize> = (base..devices.len()).collect();

        let w = self.p.weights;
        let mut area = 0u64;
        let mut proc = 0u64;
        for &d in &new_devices {
            area += self.p.costs.device_area(&devices[d]);
            proc += self.p.costs.device_processing(&devices[d]);
        }
        let objective = w.time * self.span
            + w.area * area
            + w.processing * proc
            + w.paths * new_paths.len() as u64;
        LayerSolution {
            slots,
            devices,
            new_devices,
            new_paths,
            objective,
            stats: crate::SolverStats::default(),
        }
    }
}

/// The incumbent's binding as every candidate sees it, tallied once per
/// incumbent by [`Rescheduler::derive`]: per device index of the
/// incumbent, what the ops bound to it fix. [`Rescheduler::checkpoint`]
/// takes the moved op out of these figures.
#[derive(Default)]
struct Tally {
    /// Whether every created device could be stripped (see
    /// [`State::reset`]).
    valid: bool,
    /// The incumbent's pool, created devices stripped to their container
    /// and capacity.
    bare: Vec<DeviceConfig>,
    /// `bare` with each created device's accessories re-unioned over the
    /// ops bound to it.
    pool: Vec<DeviceConfig>,
    /// The ranks of the ops bound to each device.
    ops_on: Vec<Vec<usize>>,
    /// Indeterminate ops bound to each device.
    ind_count: Vec<usize>,
    /// Devices holding more than one indeterminate op.
    clashes: usize,
    /// Ops bound to no device of the pool.
    strays: usize,
    /// Per device: the ops bound to it that cannot be placed on it as
    /// `pool` stands (see [`placeable`]); `broken` is their sum.
    broken_on: Vec<usize>,
    broken: usize,
    /// Capex of the created devices in use, priced on `pool`.
    capex: u64,
}

/// The improvement passes' re-scheduling buffers, reused across ops and
/// candidates: re-binding allocates only the solutions it returns.
struct Rescheduler<'p, 'a> {
    /// The incumbent committed over the current op's prefix, its created
    /// devices re-unioned over every op but the moved one.
    checkpoint: State<'p, 'a>,
    /// The candidate being resumed, overwritten from `checkpoint`.
    resumed: State<'p, 'a>,
    /// The incumbent's device per op rank.
    binding: Vec<usize>,
    /// What `binding` fixes; see [`Tally`].
    tally: Tally,
    /// Rank of the op whose candidates resume from `checkpoint`.
    moved: usize,
    /// Capex of the created devices that the other ops use.
    others_capex: u64,
    /// Lower bound on the other indeterminate ops' earliest starts at the
    /// checkpoint: their devices' `avail` and their committed parents'
    /// release.
    ind_ready: u64,
    /// Ranks of the layer's indeterminate ops.
    ind_ranks: Vec<usize>,
    /// Per op rank: the op has an indeterminate in-layer child.
    ind_child: Vec<bool>,
    /// The longest minimum duration among the indeterminate ops (0 if the
    /// layer has none).
    tau: u64,
    /// The indeterminate ops' devices and earliest starts.
    placed: Vec<(OpId, usize, u64)>,
}

impl<'p, 'a> Rescheduler<'p, 'a> {
    fn new(p: &'p LayerProblem<'a>, ctx: &'p Ctx) -> Self {
        let mut ind_ranks = Vec::new();
        let mut ind_child = vec![false; ctx.ops.len()];
        let mut tau = 0;
        for (r, &o) in ctx.ops.iter().enumerate() {
            let op = p.assay.op(o);
            if op.is_indeterminate() {
                ind_ranks.push(r);
                tau = tau.max(op.duration().min_duration());
                for &q in &ctx.parents[r] {
                    ind_child[q] = true;
                }
            }
        }
        Rescheduler {
            checkpoint: State::new(p, ctx),
            resumed: State::new(p, ctx),
            binding: Vec::new(),
            tally: Tally::default(),
            moved: UNBOUND,
            others_capex: 0,
            ind_ready: 0,
            ind_ranks,
            ind_child,
            tau,
            placed: Vec::new(),
        }
    }

    /// Takes `reference` as the incumbent: its binding, and the tally of
    /// that binding over its device pool.
    fn derive(&mut self, reference: &LayerSolution) {
        self.checkpoint
            .ctx
            .binding_into(reference, &mut self.binding);
        self.tally_binding(reference);
    }

    /// Tallies `self.binding` over `reference`'s device pool, created
    /// devices stripped and re-unioned over the ops bound to them.
    fn tally_binding(&mut self, reference: &LayerSolution) {
        let state = &mut self.checkpoint;
        let (p, ctx) = (state.p, state.ctx);
        let t = &mut self.tally;
        t.valid = state.reset(reference);
        if !t.valid {
            return;
        }
        t.bare.clone_from(&state.devices);
        t.pool.clone_from(&state.devices);
        let n = t.pool.len();
        t.ops_on.iter_mut().for_each(Vec::clear);
        t.ops_on.resize_with(n, Vec::new);
        t.ind_count.clear();
        t.ind_count.resize(n, 0);
        t.strays = 0;
        for (r, &d) in self.binding.iter().enumerate() {
            if d >= n {
                t.strays += 1;
                continue;
            }
            t.ops_on[d].push(r);
            let op = p.assay.op(ctx.ops[r]);
            if state.is_created(d) {
                t.pool[d].add_accessories(op.requirements().accessories);
            }
            t.ind_count[d] += usize::from(op.is_indeterminate());
        }
        t.clashes = t.ind_count.iter().filter(|&&c| c > 1).count();
        t.broken_on.clear();
        t.capex = 0;
        let req = |r: usize| p.assay.op(ctx.ops[r]).requirements();
        for (d, on) in t.ops_on.iter().enumerate() {
            let cfg = &t.pool[d];
            let broken = on.iter().filter(|&&r| !placeable(p, d, cfg, req(r)));
            t.broken_on.push(broken.count());
            if state.is_created(d) && !on.is_empty() {
                t.capex += device_capex(p, cfg);
            }
        }
        t.broken = t.broken_on.iter().sum();
    }

    /// Prepares the candidates that move the op of rank `moved` away from
    /// the incumbent. The checkpoint becomes the incumbent's device pool
    /// with the created devices' accessories re-unioned over every other
    /// op, committed over `prefix`, a prefix of the construction order
    /// without the moved op. `false` when the other ops cannot be placed
    /// at all (a device out of range, a conflicting shape, a masked or
    /// unfit device, two indeterminate ops on one device): no candidate
    /// can then be re-scheduled, since the moved op only adds accessories
    /// and conflicts.
    ///
    /// Only the moved op's own device sees the other ops differently from
    /// the tally, so only the ops left on it are re-unioned and re-checked.
    ///
    /// A prefix op starts at the later of its in-layer parents' release
    /// and its device's `avail`, and its new paths depend on its parents'
    /// slots and its cross inputs. All of these come from earlier commits
    /// (the order is topological), never from configs or capex, so the
    /// checkpoint serves every binding that agrees with the incumbent on
    /// the prefix.
    fn checkpoint(&mut self, prefix: &[OpId], moved: usize) -> bool {
        let state = &mut self.checkpoint;
        let (p, ctx) = (state.p, state.ctx);
        let t = &self.tally;
        if !t.valid {
            return false;
        }
        let own = self.binding[moved];
        let own = (own < t.pool.len()).then_some(own);
        let op = p.assay.op(ctx.ops[moved]);
        let strays = t.strays - usize::from(own.is_none());
        let broken_elsewhere = t.broken - own.map_or(0, |d| t.broken_on[d]);
        let clashes = t.clashes
            - usize::from(op.is_indeterminate() && own.is_some_and(|d| t.ind_count[d] == 2));
        if strays + broken_elsewhere + clashes > 0 {
            return false;
        }
        self.moved = moved;
        state.devices.clone_from(&t.pool);
        state.clear_slots();
        self.others_capex = t.capex;
        if let Some(d) = own {
            let req = |r: usize| p.assay.op(ctx.ops[r]).requirements();
            let others = t.ops_on[d].iter().filter(|&&r| r != moved);
            let mut cfg = t.bare[d];
            if state.is_created(d) {
                for &r in others.clone() {
                    cfg.add_accessories(req(r).accessories);
                }
            }
            if others.clone().any(|&r| !placeable(p, d, &cfg, req(r))) {
                return false;
            }
            if state.is_created(d) {
                state.devices[d] = cfg;
                self.others_capex -= device_capex(p, &t.pool[d]);
                if others.count() > 0 {
                    self.others_capex += device_capex(p, &cfg);
                }
            }
        }
        for &op in prefix {
            debug_assert_ne!(ctx.rank(op), moved, "the moved op is not in the prefix");
            let d = self.binding[ctx.rank(op)];
            let start = state.ready_time(op).max(state.avail[d]);
            state.commit(op, d, start);
        }
        self.ind_ready = self
            .ind_ranks
            .iter()
            .filter(|&&r| r != moved)
            .map(|&r| state.avail[self.binding[r]].max(state.ready_time(ctx.ops[r])))
            .max()
            .unwrap_or(0);
        true
    }

    /// Re-schedules the incumbent with the moved op on device `d`, from
    /// the checkpoint. Checks the moved op on its device alone and prices
    /// capex as the other ops' capex plus the device's cost change, then
    /// [completes](Rescheduler::complete) the schedule. Returns `None` if
    /// the move is incompatible, violates indeterminate exclusivity, or
    /// cannot beat `bound`.
    ///
    /// In conventional mode the moved op must not grow the accessories of
    /// a created device that other ops use: their exact signatures would
    /// no longer match. Component mode's superset fit only gains from a
    /// larger union. A created device that no other op uses costs nothing
    /// until the moved op joins it, so moving the last op off a device
    /// drops its capex (and [`State::finish`] prunes it).
    fn resume(
        &mut self,
        suffix: &[OpId],
        ind_order: &[OpId],
        d: usize,
        bound: u64,
    ) -> Option<LayerSolution> {
        let (p, ctx) = (self.checkpoint.p, self.checkpoint.ctx);
        let (moved, own) = (self.moved, self.binding[self.moved]);
        let op = p.assay.op(ctx.ops[moved]);
        let req = op.requirements();
        let t = &self.tally;
        let mut cfg = *self.checkpoint.devices.get(d)?;
        if op.is_indeterminate() && t.ind_count[d] > usize::from(d == own) {
            return None;
        }
        let mut capex = self.others_capex;
        if self.checkpoint.is_created(d) {
            if !shape_fits(&cfg, req) {
                return None;
            }
            let before = cfg;
            cfg.add_accessories(req.accessories);
            let shared = t.ops_on[d].len() > usize::from(d == own);
            if shared && !p.component_oriented && cfg != before {
                return None;
            }
            let replaced = if shared { device_capex(p, &before) } else { 0 };
            capex += device_capex(p, &cfg) - replaced;
        } else if !p.bindable.get(d).copied().unwrap_or(false) {
            return None;
        }
        if !config_fits(p, &cfg, req) {
            return None;
        }
        self.resumed.devices.clone_from(&self.checkpoint.devices);
        self.resumed.devices[d] = cfg;
        let mut ind_ready = self.ind_ready;
        if op.is_indeterminate() {
            // The suffix is empty: the moved op's earliest start is final.
            let ready = self.checkpoint.ready_time(ctx.ops[moved]);
            ind_ready = ind_ready.max(ready).max(self.checkpoint.avail[d]);
        }
        self.binding[moved] = d;
        let resumed = self.complete(suffix, ind_order, capex, ind_ready, bound);
        self.binding[moved] = own;
        resumed
    }

    /// Continues the checkpoint under `self.binding`: copies its slots and
    /// paths, commits `suffix` (the rest of the construction order) and
    /// then the indeterminate ops, and finishes. The resumed state's
    /// devices must already hold the binding's configs, `capex` their
    /// exact cost, `ind_ready` a lower bound on the indeterminate ops'
    /// earliest starts at the checkpoint, and `self.tally.ind_count` must
    /// mark the devices that hold an indeterminate op. Returns `None` once
    /// the running objective lower bound ([`State::lower_bound`]) reaches
    /// `bound`, which is exact for callers that adopt only objectives
    /// below `bound`. The bound only grows as slots commit, so the one
    /// check at the checkpoint fires exactly when a check after some
    /// prefix commit would have.
    fn complete(
        &mut self,
        suffix: &[OpId],
        ind_order: &[OpId],
        capex: u64,
        mut ind_ready: u64,
        bound: u64,
    ) -> Option<LayerSolution> {
        let Rescheduler {
            checkpoint: from,
            resumed: state,
            binding,
            tally,
            ind_child,
            tau,
            placed,
            ..
        } = self;
        let (p, ctx, tau) = (from.p, from.ctx, *tau);
        if from.lower_bound(capex, ind_ready, tau) >= bound {
            return None;
        }
        state.copy_slots(from);
        for &op in suffix {
            let r = ctx.rank(op);
            let d = binding[r];
            let start = state.ready_time(op).max(state.avail[d]);
            state.commit(op, d, start);
            // An indeterminate op starts no earlier than its device frees
            // up and its parents release.
            if tally.ind_count[d] > 0 {
                ind_ready = ind_ready.max(state.avail[d]);
            }
            if ind_child[r] {
                let release = start + p.assay.op(op).duration().min_duration() + p.transport.of(op);
                ind_ready = ind_ready.max(release);
            }
            if state.lower_bound(capex, ind_ready, tau) >= bound {
                return None;
            }
        }
        placed.clear();
        placed.extend(ind_order.iter().map(|&op| {
            let d = binding[ctx.rank(op)];
            (op, d, state.ready_time(op).max(state.avail[d]))
        }));
        align_and_commit_indeterminate(state, placed);
        let lower = state.lower_bound(capex, ind_ready, tau);
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
}

/// Whether an op with `req` can run on device `d` configured as `cfg`:
/// a visible inherited device, or a created device of its shape, and a
/// config that fits it.
fn placeable(p: &LayerProblem<'_>, d: usize, cfg: &DeviceConfig, req: &Requirements) -> bool {
    let visible = if d >= p.devices.len() {
        shape_fits(cfg, req)
    } else {
        p.bindable.get(d).copied().unwrap_or(false)
    };
    visible && config_fits(p, cfg, req)
}

/// Area and processing cost of a created device with config `cfg`.
fn device_capex(p: &LayerProblem<'_>, cfg: &DeviceConfig) -> u64 {
    p.weights.area * p.costs.device_area(cfg)
        + p.weights.processing * p.costs.device_processing(cfg)
}

/// A binding decision for one operation.
enum Decision {
    Existing(usize),
    Retrofit {
        device: usize,
        union: mfhls_chip::AccessorySet,
    },
    /// A fresh device with `Ctx::configs[class]`.
    New(usize),
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
    if !state.is_created(d) && !p.bindable.get(d).copied().unwrap_or(false) {
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
/// `false` only where [`Rescheduler::resume`] would reject the move: an
/// invisible or unfit inherited device (inherited configs never change), a
/// created device whose container or capacity conflicts (only its
/// accessories are re-unioned), or an indeterminate op joining a device
/// to which `ind_count` binds another indeterminate op.
fn may_rebind(
    p: &LayerProblem<'_>,
    best: &LayerSolution,
    ind_count: &[usize],
    op: OpId,
    d: usize,
) -> bool {
    let o = p.assay.op(op);
    if o.is_indeterminate() && ind_count[d] > 0 {
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
        .filter(|&d| state.is_created(d) || state.p.bindable.get(d).copied().unwrap_or(false))
        .count()
}

/// Budget that must stay in reserve for operations not yet scheduled is
/// the sum of two parts. Without it the greedy can spend the whole budget
/// on parallelism and strand a later operation kind.
///
/// This part: one slot per distinct fresh config among the remaining
/// determinate ops that no current device can host.
fn det_reserve(state: &State<'_, '_>, remaining_det: &[OpId]) -> usize {
    let ctx = state.ctx;
    let mut forced = vec![false; ctx.configs.len()];
    for &op in remaining_det {
        let r = ctx.rank(op);
        if !state.compat_any[r] {
            if let Some(class) = ctx.fresh[r] {
                forced[class] = true;
            }
        }
    }
    forced.iter().filter(|&&f| f).count()
}

/// The other part of the reserve (see [`det_reserve`]): one slot per
/// remaining indeterminate op that cannot claim a compatible device left
/// untaken by `taken` and the claims before it. Depends on nothing but
/// the device pool and `taken`.
fn ind_reserve(state: &State<'_, '_>, remaining_ind: &[OpId], taken: &[bool]) -> usize {
    let mut virtually_taken = taken.to_vec();
    virtually_taken.resize(state.devices.len(), false);
    let mut ind_extra = 0;
    for &op in remaining_ind {
        let claim = (0..state.devices.len())
            .find(|&d| !virtually_taken[d] && device_compatible(state, op, d));
        match claim {
            Some(d) => virtually_taken[d] = true,
            None => ind_extra += 1,
        }
    }
    ind_extra
}

/// Enumerates binding candidates for `op`. `exclude` flags devices taken
/// by other indeterminate ops; `reserve` is the budget that must remain for
/// later forced creations (0 when this op itself has no compatible device).
fn candidates(state: &State<'_, '_>, op: OpId, exclude: &[bool], reserve: usize) -> Vec<Decision> {
    let p = state.p;
    let req = p.assay.op(op).requirements();
    let mut out = Vec::new();
    for d in 0..state.devices.len() {
        if exclude.get(d).copied().unwrap_or(false) {
            continue;
        }
        if device_compatible(state, op, d) {
            out.push(Decision::Existing(d));
            continue;
        }
        if p.component_oriented && state.is_created(d) {
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
        if let Some(class) = state.ctx.fresh[state.ctx.rank(op)] {
            if forced || state.created_of[class] < state.quotas[class] {
                out.push(Decision::New(class));
            }
        }
    }
    out
}

/// Work-proportional creation quotas per fresh-device configuration,
/// indexed like `Ctx::configs`.
///
/// Without quotas the greedy hands the whole budget to whichever stage of
/// the assay becomes ready first, starving later stages into full
/// serialisation. Each configuration needed by the layer gets at least one
/// slot; the remaining budget is split by total workload (largest
/// remainder), capped at the number of ops wanting that configuration.
fn provision_quotas(state: &State<'_, '_>, det_order: &[OpId], ind_order: &[OpId]) -> Vec<usize> {
    let (p, ctx) = (state.p, state.ctx);
    let budget = p.max_devices.saturating_sub(active_device_count(state));
    let mut work = vec![0u64; ctx.configs.len()];
    let mut ops_count = vec![0usize; ctx.configs.len()];
    for &op in det_order.iter().chain(ind_order) {
        if let Some(class) = ctx.fresh[ctx.rank(op)] {
            work[class] += p.assay.op(op).duration().min_duration().max(1);
            ops_count[class] += 1;
        }
    }
    let mut quotas = vec![0usize; ctx.configs.len()];
    // The configurations the ops want, biggest work first (ties: ascending
    // config).
    let mut order: Vec<usize> = (0..ctx.configs.len())
        .filter(|&c| ops_count[c] > 0)
        .collect();
    if order.is_empty() || budget == 0 {
        return quotas;
    }
    let total: u64 = work.iter().sum();
    order.sort_by_key(|&c| std::cmp::Reverse(work[c]));
    // Base: one slot each (as far as the budget goes, biggest work first).
    let mut left = budget;
    for &c in &order {
        if left == 0 {
            break;
        }
        quotas[c] = 1;
        left -= 1;
    }
    // Proportional shares of the remainder, capped by ops_count.
    if left > 0 {
        let mut shares: Vec<(usize, u64, u64)> = order
            .iter()
            .map(|&c| {
                let exact = left as u64 * work[c];
                (c, exact / total, exact % total)
            })
            .collect();
        let mut used: usize = 0;
        for &(c, whole, _) in &shares {
            let cap = ops_count[c].saturating_sub(quotas[c]);
            let add = (whole as usize).min(cap).min(left - used);
            quotas[c] += add;
            used += add;
        }
        // Largest remainders take any leftover slots.
        shares.sort_by_key(|&(_, _, rem)| std::cmp::Reverse(rem));
        for &(c, _, _) in &shares {
            if used >= left {
                break;
            }
            if quotas[c] < ops_count[c] {
                quotas[c] += 1;
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
    state.created_of = vec![0; ctx.configs.len()];
    // The indeterminate ops' reserve while determinate ops are placed: it
    // holds until a retrofit or a creation changes the device pool.
    let mut ind_held_back = None;
    for (pos, &op) in det_order.iter().enumerate() {
        let ready = state.ready_time(op);
        let dur = p.assay.op(op).duration().min_duration();
        let t_out = p.transport.of(op);
        let held_back = *ind_held_back.get_or_insert_with(|| ind_reserve(&state, ind_order, &[]));
        #[cfg(test)]
        assert_eq!(
            held_back,
            ind_reserve(&state, ind_order, &[]),
            "stale reserve"
        );
        let reserve = det_reserve(&state, &det_order[pos + 1..]) + held_back;
        let mut best: Option<(u64, u64, usize, Decision)> = None; // (cost, start, rank)
        for dec in candidates(&state, op, &[], reserve) {
            let d = dec.device(state.devices.len());
            let avail = state.avail.get(d).copied().unwrap_or(0);
            let start = ready.max(avail);
            let paths = state.added_path_count(op, d);
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
        if !matches!(dec, Decision::Existing(_)) {
            ind_held_back = None;
        }
        let d = apply_decision(&mut state, dec);
        state.commit(op, d, start);
    }

    // Indeterminate ops: distinct devices, aligned starts.
    let mut taken: Vec<bool> = Vec::new();
    let mut placed: Vec<(OpId, usize, u64)> = Vec::new();
    for (pos, &op) in ind_order.iter().enumerate() {
        let ready = state.ready_time(op);
        let reserve = ind_reserve(&state, &ind_order[pos + 1..], &taken);
        let mut best: Option<(u64, u64, usize, Decision)> = None;
        for dec in candidates(&state, op, &taken, reserve) {
            let d = dec.device(state.devices.len());
            let avail = state.avail.get(d).copied().unwrap_or(0);
            let start = ready.max(avail);
            let paths = state.added_path_count(op, d);
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
        taken.resize(state.devices.len(), false);
        taken[d] = true;
        placed.push((op, d, start));
    }
    align_and_commit_indeterminate(&mut state, &placed);
    Ok(state.finish())
}

fn apply_decision(state: &mut State<'_, '_>, dec: Decision) -> usize {
    match dec {
        Decision::Existing(d) => d,
        Decision::Retrofit { device, union } => {
            state.devices[device].add_accessories(union);
            state.refresh_compat_for(device);
            device
        }
        Decision::New(class) => {
            state.devices.push(state.ctx.configs[class]);
            state.avail.push(0);
            let d = state.devices.len() - 1;
            state.created_of[class] += 1;
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
    let t_star = placed
        .iter()
        .map(|&(_, _, e)| e)
        .max()
        .unwrap_or(0)
        .max(state.last_start);
    for &(op, d, _) in placed {
        state.commit(op, d, t_star);
    }
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

    /// Re-schedules `binding` against `reference` from an empty prefix:
    /// every op of the layer commits, none is taken from a checkpoint, and
    /// feasibility and capex are derived over the whole binding, not from
    /// the moved op alone as [`Rescheduler::resume`] does.
    fn schedule_from_scratch(
        p: &LayerProblem<'_>,
        ctx: &Ctx,
        det_order: &[OpId],
        ind_order: &[OpId],
        binding: &[usize],
        reference: &LayerSolution,
        bound: u64,
    ) -> Option<LayerSolution> {
        let mut re = Rescheduler::new(p, ctx);
        if !re.checkpoint.reset(reference) {
            return None;
        }
        re.binding = binding.to_vec();
        let state = &mut re.resumed;
        // Re-derive accessory unions for created devices.
        state.devices.clone_from(&re.checkpoint.devices);
        for (r, &d) in binding.iter().enumerate() {
            if d >= state.devices.len() {
                return None;
            }
            if state.is_created(d) {
                let req = p.assay.op(ctx.ops[r]).requirements();
                if !shape_fits(&state.devices[d], req) {
                    return None;
                }
                state.devices[d].add_accessories(req.accessories);
            }
        }
        // Compatibility check for every binding.
        for (r, &d) in binding.iter().enumerate() {
            if !state.is_created(d) && !p.bindable.get(d).copied().unwrap_or(false) {
                return None;
            }
            if !config_fits(p, &state.devices[d], p.assay.op(ctx.ops[r]).requirements()) {
                return None;
            }
        }
        // Indeterminate exclusivity.
        let mut held = vec![false; state.devices.len()];
        for &op in ind_order {
            if std::mem::replace(&mut held[binding[ctx.rank(op)]], true) {
                return None;
            }
        }
        re.tally.ind_count = held.iter().map(|&h| usize::from(h)).collect();
        // Capex of the created devices in use.
        held.fill(false);
        for &d in binding {
            held[d] = true;
        }
        let w = p.weights;
        let capex: u64 = (p.devices.len()..state.devices.len())
            .filter(|&d| held[d])
            .map(|d| {
                let cfg = &state.devices[d];
                w.area * p.costs.device_area(cfg) + w.processing * p.costs.device_processing(cfg)
            })
            .sum();
        re.complete(det_order, ind_order, capex, 0, bound)
    }

    /// Run on every candidate the improvement loop resumes from a
    /// checkpoint: re-scheduling `re`'s incumbent with its moved op on
    /// device `d` from an empty prefix, under the same bound, must give
    /// the same result — both `None`, or equal solutions.
    pub(super) fn assert_resume_matches_from_scratch(
        re: &Rescheduler<'_, '_>,
        (det_order, ind_order): (&[OpId], &[OpId]),
        d: usize,
        reference: &LayerSolution,
        resumed: &Option<LayerSolution>,
    ) {
        let mut binding = re.binding.clone();
        binding[re.moved] = d;
        let (p, ctx) = (re.checkpoint.p, re.checkpoint.ctx);
        let full = schedule_from_scratch(
            p,
            ctx,
            det_order,
            ind_order,
            &binding,
            reference,
            reference.objective,
        );
        assert_eq!(
            *resumed, full,
            "checkpointed re-schedule diverged from the from-scratch one"
        );
    }

    /// The re-binding search without pruning or checkpoints: every
    /// alternative device is re-scheduled in full from an empty prefix,
    /// and the first strict improvement in ascending device order is
    /// adopted.
    fn solve_unpruned(
        solver: &HeuristicLayerSolver,
        p: &LayerProblem<'_>,
    ) -> Result<LayerSolution, CoreError> {
        let ctx = Ctx::new(p);
        let (det_order, ind_order) = priority_orders_reference(p)?;
        let mut best = construct(p, &ctx, &det_order, &ind_order)?;
        let (mut rounds, mut adoptions) = (0u64, 0u64);
        for _ in 0..solver.improvement_passes {
            rounds += 1;
            let mut improved_any = false;
            for &op in &p.ops {
                let mut binding = Vec::new();
                ctx.binding_into(&best, &mut binding);
                let current = binding[ctx.rank(op)];
                let adopted = (0..best.devices.len())
                    .filter(|&d| d != current)
                    .find_map(|d| {
                        let mut cand = binding.clone();
                        cand[ctx.rank(op)] = d;
                        schedule_from_scratch(
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

    /// The construction orders as [`priority_orders`] built them before it
    /// used a ready heap: a `Digraph` over positions in `p.ops`, its
    /// bottom levels, and a scan of every determinate op per emission.
    fn priority_orders_reference(
        p: &LayerProblem<'_>,
    ) -> Result<(Vec<OpId>, Vec<OpId>), CoreError> {
        let idx_of: std::collections::BTreeMap<OpId, usize> =
            p.ops.iter().enumerate().map(|(i, &o)| (o, i)).collect();
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

        // List order: repeatedly emit the ready determinate op with the
        // highest bottom level (ties: smaller index).
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
                .max_by_key(|&i| (bl[i], Reverse(i)))
            else {
                return Err(CoreError::Internal(
                    "no ready determinate op in an acyclic layer".to_owned(),
                ));
            };
            emitted[next] = true;
            det_order.push(p.ops[next]);
            for &c in g.successors(next) {
                remaining_parents[c] = remaining_parents[c].saturating_sub(1);
            }
        }
        let mut ind_order: Vec<usize> = (0..n).filter(|i| !det.contains(i)).collect();
        ind_order.sort_by_key(|&i| (Reverse(bl[i]), i));
        Ok((det_order, ind_order.into_iter().map(|i| p.ops[i]).collect()))
    }

    /// Run by every [`priority_orders`] call in this crate's tests, so by
    /// every heuristic and SDC solve: the ready-heap orders equal the
    /// reference scan's.
    pub(super) fn assert_orders_match_reference(
        p: &LayerProblem<'_>,
        det_order: &[OpId],
        ind_order: &[OpId],
    ) {
        let (det, ind) = priority_orders_reference(p).expect("the reference orders the layer");
        assert_eq!(
            (det_order, ind_order),
            (&det[..], &ind[..]),
            "ready-heap orders diverged from the reference scan"
        );
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

    /// A layer of all of `assay`'s ops over the inherited `devices`.
    fn problem<'a>(
        assay: &'a Assay,
        transport: &'a TransportTimes,
        costs: &'a CostModel,
        devices: Vec<(DeviceConfig, bool)>,
        max_devices: usize,
        component_oriented: bool,
    ) -> LayerProblem<'a> {
        LayerProblem {
            assay,
            ops: assay.op_ids().collect(),
            bindable: devices.iter().map(|&(_, b)| b).collect(),
            devices: devices.into_iter().map(|(cfg, _)| cfg).collect(),
            max_devices,
            transport,
            weights: Weights::default(),
            costs,
            existing_paths: BTreeSet::new(),
            cross_inputs: vec![],
            component_oriented,
        }
    }

    /// The device `op` sits on in `sol`.
    fn device_of(sol: &LayerSolution, op: OpId) -> usize {
        sol.slots
            .iter()
            .find(|s| s.op == op)
            .expect("placed")
            .device
    }

    /// Moves `op` of `best` onto device `d` and re-schedules under
    /// `bound` twice: from a checkpoint, as the improvement loop does, and
    /// from scratch. Both must agree.
    fn move_op(
        p: &LayerProblem<'_>,
        best: &LayerSolution,
        op: OpId,
        d: usize,
        bound: u64,
    ) -> Option<LayerSolution> {
        let ctx = Ctx::new(p);
        let (det_order, ind_order) = priority_orders(p, &ctx).expect("acyclic layer");
        let r = ctx.rank(op);
        let k = det_order.iter().position(|&o| o == op);
        let (prefix, suffix) = det_order.split_at(k.unwrap_or(det_order.len()));
        let mut re = Rescheduler::new(p, &ctx);
        re.derive(best);
        let ready = re.checkpoint(prefix, r);
        let resumed = ready
            .then(|| re.resume(suffix, &ind_order, d, bound))
            .flatten();
        let mut binding = re.binding.clone();
        binding[r] = d;
        let scratch = schedule_from_scratch(p, &ctx, &det_order, &ind_order, &binding, best, bound);
        assert_eq!(
            resumed,
            scratch,
            "o{} onto d{d} under bound {bound}",
            op.index()
        );
        resumed
    }

    /// A move both re-schedulers reject outright.
    fn assert_rejected(p: &LayerProblem<'_>, best: &LayerSolution, op: OpId, d: usize) {
        assert_eq!(move_op(p, best, op, d, u64::MAX), None);
    }

    /// A move both re-schedulers accept and price exactly: it survives a
    /// bound one above its objective and aborts at its objective, so its
    /// capex is neither over- nor underestimated.
    fn assert_accepted(
        p: &LayerProblem<'_>,
        best: &LayerSolution,
        op: OpId,
        d: usize,
    ) -> LayerSolution {
        let sol = move_op(p, best, op, d, u64::MAX).expect("move accepted");
        assert_eq!(
            move_op(p, best, op, d, sol.objective + 1).as_ref(),
            Some(&sol)
        );
        assert_eq!(move_op(p, best, op, d, sol.objective), None);
        sol
    }

    #[test]
    fn conventional_move_onto_a_shared_device_of_another_signature_is_rejected() {
        // o1 (sieve + pump) and o2 (sieve) get two created chambers.
        // Moving o1 onto o2's chamber grows it to o1's exact signature,
        // which o2 then no longer matches.
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
        let conventional = problem(&a, &transport, &costs, vec![], 10, false);
        let best = HeuristicLayerSolver::default()
            .solve(&conventional)
            .unwrap();
        let (d1, d2) = (device_of(&best, o1), device_of(&best, o2));
        assert_ne!(d1, d2);
        assert_rejected(&conventional, &best, o1, d2);
        assert_rejected(&conventional, &best, o2, d1);
        // Component mode's superset fit takes the grown chamber, and o1's
        // own chamber goes.
        let component = problem(&a, &transport, &costs, vec![], 10, true);
        let merged = assert_accepted(&component, &best, o1, d2);
        assert_eq!(merged.devices.len(), 1);
        assert_eq!(
            merged.devices[0].accessories(),
            best.devices[d1].accessories()
        );
    }

    #[test]
    fn moving_the_last_op_off_a_created_device_drops_its_capex() {
        // Two independent ops on two created chambers. Moving the one on
        // chamber 0 onto chamber 1 serialises them and empties chamber 0:
        // it is pruned and its cost leaves the objective.
        let mut a = Assay::new("t");
        let x = a.add_op(Operation::new("x").with_duration(Duration::fixed(10)));
        let y = a.add_op(Operation::new("y").with_duration(Duration::fixed(10)));
        let costs = CostModel::default();
        let transport = TransportTimes::initial(&a, &TransportConfig::default());
        let p = problem(&a, &transport, &costs, vec![], 4, true);
        let best = HeuristicLayerSolver::default().solve(&p).unwrap();
        assert_eq!((best.devices.len(), best.makespan()), (2, 10));
        let (first, second) = if device_of(&best, x) == 0 {
            (x, y)
        } else {
            (y, x)
        };
        let sol = assert_accepted(&p, &best, first, device_of(&best, second));
        assert_eq!((sol.devices.len(), sol.new_devices.clone()), (1, vec![0]));
        assert_eq!(sol.makespan(), 20);
        let (w, cfg) = (p.weights, &sol.devices[0]);
        assert_eq!(
            sol.objective,
            w.time * 20
                + w.area * costs.device_area(cfg)
                + w.processing * costs.device_processing(cfg)
        );
    }

    #[test]
    fn indeterminate_op_onto_a_device_holding_another_is_rejected() {
        let mut a = Assay::new("t");
        let i1 = a.add_op(Operation::new("i1").with_duration(Duration::at_least(4)));
        let i2 = a.add_op(Operation::new("i2").with_duration(Duration::at_least(6)));
        let prep = a.add_op(Operation::new("prep").with_duration(Duration::fixed(3)));
        a.add_dependency(prep, i1).unwrap();
        let costs = CostModel::default();
        let transport = TransportTimes::initial(&a, &TransportConfig::default());
        let p = problem(&a, &transport, &costs, vec![], 5, true);
        let best = HeuristicLayerSolver::default().solve(&p).unwrap();
        let (d1, d2) = (device_of(&best, i1), device_of(&best, i2));
        assert_ne!(d1, d2);
        assert_rejected(&p, &best, i2, d1);
        assert_rejected(&p, &best, i1, d2);
        // Exclusivity binds indeterminate ops only.
        let d = if device_of(&best, prep) == d2 { d1 } else { d2 };
        assert_accepted(&p, &best, prep, d);
    }

    #[test]
    fn a_move_onto_an_indeterminate_ops_device_loses_only_through_the_alignment() {
        // `x` and the indeterminate `i` run side by side on two created
        // chambers. Moving `x` onto `i`'s chamber saves a chamber and keeps
        // the determinate makespan, but `i` then waits for `x`: only the
        // alignment makes the move lose.
        let mut a = Assay::new("t");
        let x = a.add_op(Operation::new("x").with_duration(Duration::fixed(50)));
        let i = a.add_op(Operation::new("i").with_duration(Duration::at_least(50)));
        let costs = CostModel::default();
        let transport = TransportTimes::initial(&a, &TransportConfig::default());
        let p = problem(&a, &transport, &costs, vec![], 4, true);
        let best = HeuristicLayerSolver::default().solve(&p).unwrap();
        let di = device_of(&best, i);
        assert_ne!(device_of(&best, x), di);
        assert_eq!(best.makespan(), 50);
        // Bounded by the incumbent the move aborts; unbounded, both
        // re-schedulers agree on a schedule no better than the incumbent.
        assert_eq!(move_op(&p, &best, x, di, best.objective), None);
        let moved = move_op(&p, &best, x, di, u64::MAX).expect("a feasible move");
        assert!(moved.objective >= best.objective);
        assert_eq!(moved.makespan(), 100);
        // Without the alignment the move would win: `x` ends at 50 and
        // one chamber is left.
        let capex: u64 = moved
            .new_devices
            .iter()
            .map(|&d| device_capex(&p, &moved.devices[d]))
            .sum();
        assert!(capex + p.weights.time * 50 < best.objective);
        // The bound prices the alignment exactly: the move survives a
        // bound one above its objective.
        assert_eq!(assert_accepted(&p, &best, x, di), moved);
    }

    #[test]
    fn move_onto_a_masked_inherited_device_is_rejected() {
        // The inherited chamber fits `x` but `bindable` masks it out, so
        // `x` sits on a created device and may not move onto it.
        let mut a = Assay::new("t");
        let x = a.add_op(Operation::new("x").with_duration(Duration::fixed(5)));
        let costs = CostModel::default();
        let transport = TransportTimes::initial(&a, &TransportConfig::default());
        let chamber =
            DeviceConfig::new(ContainerKind::Chamber, Capacity::Small, Default::default()).unwrap();
        let masked = problem(&a, &transport, &costs, vec![(chamber, false)], 4, true);
        let best = HeuristicLayerSolver::default().solve(&masked).unwrap();
        assert_eq!((best.devices.len(), device_of(&best, x)), (2, 1));
        assert_rejected(&masked, &best, x, 0);
        // Visible, the chamber takes it and the created device goes.
        let visible = problem(&a, &transport, &costs, vec![(chamber, true)], 4, true);
        let sol = assert_accepted(&visible, &best, x, 0);
        assert_eq!((sol.devices.len(), sol.new_devices.len()), (1, 0));
    }

    #[test]
    fn checkpoint_refuses_other_ops_that_cannot_be_placed() {
        // With `y` bound to the masked inherited chamber, no move of `x`
        // can be re-scheduled, and the from-scratch reference agrees on
        // every device.
        let mut a = Assay::new("t");
        let x = a.add_op(Operation::new("x").with_duration(Duration::fixed(5)));
        let y = a.add_op(Operation::new("y").with_duration(Duration::fixed(5)));
        let costs = CostModel::default();
        let transport = TransportTimes::initial(&a, &TransportConfig::default());
        let chamber =
            DeviceConfig::new(ContainerKind::Chamber, Capacity::Small, Default::default()).unwrap();
        let p = problem(&a, &transport, &costs, vec![(chamber, false)], 4, true);
        let best = HeuristicLayerSolver::default().solve(&p).unwrap();
        let ctx = Ctx::new(&p);
        let (det_order, ind_order) = priority_orders(&p, &ctx).unwrap();
        let mut re = Rescheduler::new(&p, &ctx);
        re.derive(&best);
        re.binding[ctx.rank(y)] = 0;
        re.tally_binding(&best);
        assert!(!re.checkpoint(&[], ctx.rank(x)));
        let mut binding = re.binding.clone();
        for d in 0..best.devices.len() {
            binding[ctx.rank(x)] = d;
            let scratch =
                schedule_from_scratch(&p, &ctx, &det_order, &ind_order, &binding, &best, u64::MAX);
            assert_eq!(scratch, None, "x onto d{d}");
        }
    }

    #[test]
    fn checkpoint_takes_the_moved_op_out_of_an_indeterminate_clash() {
        // Bind both indeterminate ops and `prep` to one device: no move of
        // `prep` can be re-scheduled, but moving `i1` away can, and both
        // re-schedulers agree on every device `i1` may move to.
        let mut a = Assay::new("t");
        let i1 = a.add_op(Operation::new("i1").with_duration(Duration::at_least(4)));
        let i2 = a.add_op(Operation::new("i2").with_duration(Duration::at_least(6)));
        let prep = a.add_op(Operation::new("prep").with_duration(Duration::fixed(3)));
        a.add_dependency(prep, i1).unwrap();
        let costs = CostModel::default();
        let transport = TransportTimes::initial(&a, &TransportConfig::default());
        let p = problem(&a, &transport, &costs, vec![], 5, true);
        let best = HeuristicLayerSolver::default().solve(&p).unwrap();
        let ctx = Ctx::new(&p);
        let (det_order, ind_order) = priority_orders(&p, &ctx).unwrap();
        let shared = device_of(&best, i2);
        let mut re = Rescheduler::new(&p, &ctx);
        re.derive(&best);
        re.binding[ctx.rank(i1)] = shared;
        re.binding[ctx.rank(prep)] = shared;
        re.tally_binding(&best);
        assert!(!re.checkpoint(&[], ctx.rank(prep)));
        assert!(re.checkpoint(&det_order, ctx.rank(i1)));
        let mut moves = 0;
        for d in 0..best.devices.len() {
            let resumed = re.resume(&[], &ind_order, d, u64::MAX);
            let mut binding = re.binding.clone();
            binding[ctx.rank(i1)] = d;
            let scratch =
                schedule_from_scratch(&p, &ctx, &det_order, &ind_order, &binding, &best, u64::MAX);
            assert_eq!(resumed, scratch, "i1 onto d{d}");
            moves += usize::from(resumed.is_some());
        }
        assert!(moves > 0);
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
