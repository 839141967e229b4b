//! The synthesis driver: layering, per-layer solving with device
//! inheritance, transport refinement, and progressive re-synthesis (§3.2).

use crate::cache::{HitClass, LayerKey, RunCache, SharedLayerCache};
use crate::problem::path_key;
use crate::{
    layer_assay, Assay, CoreError, ExecTime, HybridSchedule, LayerProblem, LayerSchedule,
    LayerSolver, Layering, SolverKind, TransportConfig, TransportTimes, Weights,
};
use mfhls_chip::{CostModel, DeviceConfig};
use mfhls_obs as obs;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Configuration of a synthesis run.
///
/// Construct one with [`SynthConfig::builder`], which validates the
/// numeric ranges, or start from [`SynthConfig::default`] and mutate
/// fields. The struct is `#[non_exhaustive]`: future revisions may add
/// fields without breaking downstream code, so functional-update literals
/// (`SynthConfig { .., ..Default::default() }`) are reserved to this
/// crate.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SynthConfig {
    /// Maximum number of devices `|D|` allowed on the chip (paper: 25).
    pub max_devices: usize,
    /// Maximum indeterminate operations per layer `t` (paper: 10).
    pub indeterminate_threshold: usize,
    /// Objective weights.
    pub weights: Weights,
    /// Transport estimation settings.
    pub transport: TransportConfig,
    /// Cost model for devices.
    pub costs: CostModel,
    /// Per-layer solver strategy.
    pub solver: SolverKind,
    /// `true` = the paper's component-oriented binding; `false` = the
    /// modified conventional baseline (exact signature classes).
    pub component_oriented: bool,
    /// Re-synthesis continues while the relative execution-time improvement
    /// exceeds this threshold (paper: 10%).
    pub min_improvement: f64,
    /// Hard cap on re-synthesis iterations.
    pub max_iterations: usize,
    /// Memoize per-layer solutions within a run (see [`crate::cache`]):
    /// structurally identical sub-problems revisited by later re-synthesis
    /// iterations skip the solver. Schedules are identical either way; the
    /// flag exists for measurement and as an escape hatch.
    pub layer_cache: bool,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            max_devices: 25,
            indeterminate_threshold: 10,
            weights: Weights::default(),
            transport: TransportConfig::default(),
            costs: CostModel::default(),
            solver: SolverKind::default(),
            component_oriented: true,
            min_improvement: 0.10,
            max_iterations: 6,
            layer_cache: true,
        }
    }
}

impl SynthConfig {
    /// A builder seeded with [`SynthConfig::default`]; the standard way to
    /// customise a configuration now that the struct is
    /// `#[non_exhaustive]`.
    pub fn builder() -> SynthConfigBuilder {
        SynthConfigBuilder {
            config: SynthConfig::default(),
        }
    }

    /// Checks the numeric ranges every synthesis entry point relies on.
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] when `max_devices == 0`,
    /// `max_iterations == 0`, or `min_improvement` is outside `[0, 1]`
    /// (NaN included).
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.max_devices == 0 {
            return Err(CoreError::Config(
                "max_devices must be at least 1".to_owned(),
            ));
        }
        if self.max_iterations == 0 {
            return Err(CoreError::Config(
                "max_iterations must be at least 1".to_owned(),
            ));
        }
        if !(0.0..=1.0).contains(&self.min_improvement) {
            return Err(CoreError::Config(format!(
                "min_improvement must lie in [0, 1], got {}",
                self.min_improvement
            )));
        }
        if let SolverKind::Portfolio { backends } = &self.solver {
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
        }
        Ok(())
    }
}

/// Builder for [`SynthConfig`] with range validation at
/// [`SynthConfigBuilder::build`]. Setters follow the field names.
///
/// ```
/// use mfhls_core::SynthConfig;
/// let config = SynthConfig::builder()
///     .max_devices(12)
///     .min_improvement(0.05)
///     .build()
///     .expect("valid configuration");
/// assert_eq!(config.max_devices, 12);
/// assert!(SynthConfig::builder().max_devices(0).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct SynthConfigBuilder {
    config: SynthConfig,
}

impl SynthConfigBuilder {
    /// Device budget `|D|`.
    pub fn max_devices(mut self, n: usize) -> Self {
        self.config.max_devices = n;
        self
    }

    /// Indeterminate-operations-per-layer threshold `t`.
    pub fn indeterminate_threshold(mut self, t: usize) -> Self {
        self.config.indeterminate_threshold = t;
        self
    }

    /// Objective weights.
    pub fn weights(mut self, w: Weights) -> Self {
        self.config.weights = w;
        self
    }

    /// Transport estimation settings.
    pub fn transport(mut self, t: TransportConfig) -> Self {
        self.config.transport = t;
        self
    }

    /// Device cost model.
    pub fn costs(mut self, c: CostModel) -> Self {
        self.config.costs = c;
        self
    }

    /// Per-layer solver strategy.
    pub fn solver(mut self, s: SolverKind) -> Self {
        self.config.solver = s;
        self
    }

    /// Component-oriented binding (`true`, the paper) or the conventional
    /// exact-signature baseline (`false`).
    pub fn component_oriented(mut self, on: bool) -> Self {
        self.config.component_oriented = on;
        self
    }

    /// Re-synthesis continues while the relative improvement exceeds this.
    pub fn min_improvement(mut self, f: f64) -> Self {
        self.config.min_improvement = f;
        self
    }

    /// Hard cap on re-synthesis iterations.
    pub fn max_iterations(mut self, n: usize) -> Self {
        self.config.max_iterations = n;
        self
    }

    /// Enable or disable per-layer solution memoization.
    pub fn layer_cache(mut self, on: bool) -> Self {
        self.config.layer_cache = on;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// See [`SynthConfig::validate`].
    pub fn build(self) -> Result<SynthConfig, CoreError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Metrics of one (re-)synthesis iteration, as reported in Table 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationStats {
    /// Total assay execution time (hybrid accounting).
    pub exec_time: ExecTime,
    /// Devices used.
    pub device_count: usize,
    /// Transportation paths used.
    pub path_count: usize,
    /// Weighted objective of the full assay.
    pub objective: u64,
    /// Layer sub-problems this iteration served from the memo cache (both
    /// hit classes: exact hits and store fills).
    ///
    /// With the per-run cache the hit/miss split is a function of the run
    /// alone, identical at any thread count. Behind a shared cache it also
    /// depends on what earlier runs left there, so traces class cache
    /// outcomes as diagnostics.
    pub cache_hits: u64,
    /// Always 0: the canonical layer index whose hits it counted was
    /// removed in 0.16.0. It stays only because the benchmark reads it for
    /// its `core.cache.canonical_hits` metric.
    pub cache_canonical_hits: u64,
    /// The subset of `cache_hits` filled by reading through to a
    /// persistent store.
    pub cache_store_hits: u64,
    /// Layer sub-problems this iteration had to solve from scratch.
    pub cache_misses: u64,
    /// Exact-solver work counters summed over this iteration's layers.
    ///
    /// Unlike the cache split, these never depend on the cache's history:
    /// the counters live inside each cached [`crate::LayerSolution`], so a
    /// cache hit replays the original solve's counters and the sums are
    /// identical with the cache on, off or shared. All zero under the pure
    /// heuristic solver.
    pub solver: crate::SolverStats,
}

/// The outcome of a synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// The best schedule found.
    pub schedule: HybridSchedule,
    /// The layering the schedule follows.
    pub layering: Layering,
    /// Per-iteration metrics (index 0 = initial synthesis); Table 3 reads
    /// directly from this.
    pub iterations: Vec<IterationStats>,
    /// Wall-clock runtime of the whole run.
    pub runtime: std::time::Duration,
}

impl SynthesisResult {
    /// Stats of the iteration that produced [`SynthesisResult::schedule`].
    pub fn final_stats(&self) -> &IterationStats {
        self.iterations.last().expect("at least one iteration")
    }
}

/// Drives the full synthesis flow of the paper.
#[derive(Debug, Clone)]
pub struct Synthesizer {
    config: SynthConfig,
    shared_cache: Option<Arc<SharedLayerCache>>,
}

impl Synthesizer {
    /// Creates a synthesizer with the given configuration.
    pub fn new(config: SynthConfig) -> Self {
        Synthesizer {
            config,
            shared_cache: None,
        }
    }

    /// Memoizes layer solutions in `cache` instead of a per-run table, so
    /// structurally identical sub-problems are shared *across* runs (the
    /// `mfhls-svc` service hands every worker the same cache). Ignored
    /// while [`SynthConfig::layer_cache`] is `false`. Schedules are
    /// bitwise identical with any cache arrangement — the cache is a pure
    /// accelerator.
    pub fn with_shared_cache(mut self, cache: Arc<SharedLayerCache>) -> Self {
        self.shared_cache = Some(cache);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &SynthConfig {
        &self.config
    }

    /// Synthesises binding and hybrid-scheduling solutions for `assay`,
    /// with progressive re-synthesis until the improvement drops below the
    /// configured threshold.
    ///
    /// # Errors
    ///
    /// Propagates layering and per-layer solver failures; see
    /// [`CoreError`].
    pub fn run(&self, assay: &Assay) -> Result<SynthesisResult, CoreError> {
        self.run_seeded(assay, &[], &[])
    }

    /// Like [`Synthesizer::run`], but seeds the device pool with an already
    /// fabricated library. The seed devices keep their indices in the result
    /// (they are never pruned or renumbered, even when unused), and
    /// `seed_bindable[d] == false` hides seed device `d` from binding
    /// entirely — the recovery path uses this to quarantine failed hardware
    /// while keeping survivor numbering stable.
    ///
    /// # Errors
    ///
    /// Propagates layering and per-layer solver failures; see
    /// [`CoreError`].
    pub fn run_seeded(
        &self,
        assay: &Assay,
        seed_devices: &[DeviceConfig],
        seed_bindable: &[bool],
    ) -> Result<SynthesisResult, CoreError> {
        let started = std::time::Instant::now();
        self.config.validate()?;
        let solver_name = match self.config.solver {
            SolverKind::Heuristic { .. } => "heuristic",
            SolverKind::Ilp { .. } => "ilp",
            SolverKind::Hybrid { .. } => "hybrid",
            SolverKind::Sdc { .. } => "sdc",
            SolverKind::Portfolio { .. } => "portfolio",
        };
        let _span = obs::span(
            obs::Level::Info,
            "synthesis",
            &[
                ("assay", assay.name().into()),
                ("ops", assay.len().into()),
                ("solver", solver_name.into()),
            ],
        );
        let layering = layer_assay(assay, self.config.indeterminate_threshold)?;
        let mut transport = TransportTimes::initial(assay, &self.config.transport);

        let mut iterations = Vec::new();
        let mut best_exec: Option<u64> = None;
        // The best pass so far; its schedule seeds the next iteration's
        // device pool (D of §3.2) and is moved — never cloned — into the
        // result at the end.
        let mut prev: Option<Pass> = None;
        let mut cache: Option<RunCache> =
            self.config.layer_cache.then(|| match &self.shared_cache {
                Some(shared) => RunCache::shared(shared.clone(), assay, &self.config),
                None => RunCache::local(),
            });

        for iter in 0..self.config.max_iterations.max(1) {
            let _iter_span = obs::span(obs::Level::Debug, "iteration", &[("iter", iter.into())]);
            let pass = self.synthesize_once(
                assay,
                &layering,
                &transport,
                prev.as_ref(),
                seed_devices,
                seed_bindable,
                cache.as_mut(),
            )?;
            pass.schedule
                .validate(assay)
                .map_err(|e| CoreError::InvalidSchedule(format!("internal solver bug: {e}")))?;
            let mut stats = self.stats_for(assay, &pass.schedule);
            stats.solver = pass.solver;
            if let Some(cache) = cache.as_mut() {
                let counters = cache.take_counters();
                stats.cache_hits = counters.hits();
                stats.cache_store_hits = counters.store_hits;
                stats.cache_misses = counters.misses;
            }
            let exec_now = stats.exec_time.fixed;
            let objective = stats.objective;
            iterations.push(stats);

            let better = best_exec.is_none_or(|prev_exec| exec_now < prev_exec);
            let improvement = best_exec.map_or(1.0, |prev_exec| {
                if prev_exec == 0 {
                    0.0
                } else {
                    (prev_exec as f64 - exec_now as f64) / prev_exec as f64
                }
            });
            // The §3.2 adopt/reject decision: a pass is adopted when it
            // improves the fixed execution time, and the search continues
            // only when the improvement clears `min_improvement`.
            obs::event(
                obs::Level::Info,
                if better {
                    "pass_adopted"
                } else {
                    "pass_rejected"
                },
                &[
                    ("iter", iter.into()),
                    ("exec_time", exec_now.into()),
                    ("objective", objective.into()),
                    ("improvement", improvement.into()),
                ],
            );
            if better {
                best_exec = Some(exec_now);
                prev = Some(pass);
            }
            // A non-improving pass never continues the search (improvement
            // <= 0 cannot exceed the non-negative threshold), so the best
            // pass is always the one in `prev` when the loop goes on.
            if !(better && improvement > self.config.min_improvement) {
                break;
            }
            let Some(prev) = prev.as_ref() else {
                unreachable!("continuing the search implies an adopted pass");
            };
            // Refine transport estimates from this pass's binding (§4.1).
            let refined = TransportTimes::refined(
                assay,
                &self.config.transport,
                &prev.schedule.device_of(assay),
            );
            if obs::is_enabled() {
                let mut changed = 0u64;
                let mut delta_total = 0u64;
                for op in assay.op_ids() {
                    let (before, after) = (transport.of(op), refined.of(op));
                    if before != after {
                        changed += 1;
                        delta_total += before.abs_diff(after);
                    }
                }
                obs::event(
                    obs::Level::Debug,
                    "transport_refined",
                    &[
                        ("iter", iter.into()),
                        ("changed", changed.into()),
                        ("delta_total", delta_total.into()),
                    ],
                );
            }
            transport = refined;
        }

        let Some(best) = prev else {
            return Err(CoreError::Internal(
                "no synthesis iteration produced a schedule".to_owned(),
            ));
        };
        Ok(SynthesisResult {
            schedule: best.schedule,
            layering,
            iterations,
            runtime: started.elapsed(),
        })
    }

    fn stats_for(&self, assay: &Assay, schedule: &HybridSchedule) -> IterationStats {
        let exec_time = schedule.exec_time(assay);
        let device_count = schedule.used_device_count();
        let path_count = schedule.path_count();
        let w = self.config.weights;
        let mut area = 0u64;
        let mut proc = 0u64;
        for cfg in &schedule.devices {
            area += self.config.costs.device_area(cfg);
            proc += self.config.costs.device_processing(cfg);
        }
        IterationStats {
            objective: w.time * exec_time.fixed
                + w.area * area
                + w.processing * proc
                + w.paths * path_count as u64,
            exec_time,
            device_count,
            path_count,
            cache_hits: 0,
            cache_canonical_hits: 0,
            cache_store_hits: 0,
            cache_misses: 0,
            solver: crate::SolverStats::default(),
        }
    }

    /// One full pass over all layers.
    ///
    /// Re-synthesis semantics (§3.2): the first pass grows the device pool
    /// layer by layer (`D_i = D_{i-1} ∪ D'_i`); later passes start from the
    /// *entire* device set of the previous pass, so early layers can reuse
    /// devices that only posterior layers instantiated (Fig. 6). Previous-
    /// pass devices bind capex-free (the chip pays for each device once) and
    /// are pruned when no layer uses them anymore, which keeps the global
    /// pool within `|D|`.
    #[allow(clippy::too_many_arguments)]
    fn synthesize_once(
        &self,
        assay: &Assay,
        layering: &Layering,
        transport: &TransportTimes,
        prev: Option<&Pass>,
        seed_devices: &[DeviceConfig],
        seed_bindable: &[bool],
        mut cache: Option<&mut RunCache>,
    ) -> Result<Pass, CoreError> {
        let mut devices: Vec<DeviceConfig> = prev
            .map(|p| p.schedule.devices.clone())
            .unwrap_or_else(|| seed_devices.to_vec());
        let mut paths: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut layer_schedules: Vec<LayerSchedule> = Vec::new();
        let mut device_of: Vec<Option<usize>> = vec![None; assay.len()];
        let mut solver_stats = crate::SolverStats::default();

        for (li, layer_ops) in layering.layers().iter().enumerate() {
            // Seed devices carry their quarantine mask through every pass;
            // devices the synthesis itself added are always visible.
            let bindable = bindable_mask(devices.len(), seed_bindable);
            let mut cross_inputs = Vec::new();
            for (p_op, c) in assay.dependencies() {
                if layering.layer_of(c) == li && layering.layer_of(p_op) < li {
                    let Some(pd) = device_of[p_op.index()] else {
                        return Err(CoreError::Internal(format!(
                            "parent o{} of o{} missing from earlier layers",
                            p_op.index(),
                            c.index()
                        )));
                    };
                    cross_inputs.push((c, pd));
                }
            }
            let problem = LayerProblem {
                assay,
                ops: layer_ops.clone(),
                devices: devices.clone(),
                bindable,
                max_devices: self.config.max_devices,
                transport,
                weights: self.config.weights,
                costs: &self.config.costs,
                existing_paths: paths.clone(),
                cross_inputs,
                component_oriented: self.config.component_oriented,
            };
            let sol = match cache.as_deref_mut() {
                Some(cache) => {
                    let key = LayerKey::of(&problem, li);
                    match cache.lookup(&key) {
                        Some((sol, class)) => {
                            // Diagnostic, not logical: with a shared cache
                            // the hit class depends on what other requests
                            // ran first.
                            let name = match class {
                                HitClass::Exact => "cache_hit",
                                HitClass::Store => "cache_store_hit",
                            };
                            obs::diagnostic(obs::Level::Debug, name, &[("layer", li.into())]);
                            sol
                        }
                        None => {
                            obs::diagnostic(
                                obs::Level::Debug,
                                "cache_miss",
                                &[("layer", li.into())],
                            );
                            let sol = self.config.solver.solve(&problem)?;
                            cache.insert(key, sol.clone());
                            sol
                        }
                    }
                }
                None => self.config.solver.solve(&problem)?,
            };
            solver_stats.merge(&sol.stats);
            // Logical even on a cache hit: cached solutions replay the
            // original solve's counters, so these fields are identical at
            // any thread count and with the cache on or off.
            obs::event(
                obs::Level::Info,
                "layer_solved",
                &[
                    ("layer", li.into()),
                    ("ops", sol.slots.len().into()),
                    ("makespan", sol.makespan().into()),
                    ("objective", sol.objective.into()),
                    ("new_devices", sol.new_devices.len().into()),
                    ("new_paths", sol.new_paths.len().into()),
                    ("heuristic_rounds", sol.stats.heuristic_rounds.into()),
                    ("rebind_adoptions", sol.stats.rebind_adoptions.into()),
                    ("ilp_solves", sol.stats.ilp_solves.into()),
                    ("ilp_nodes", sol.stats.nodes.into()),
                    ("lp_pivots", sol.stats.pivots.into()),
                ],
            );
            devices = sol.devices;
            paths.extend(sol.new_paths);
            for s in &sol.slots {
                device_of[s.op.index()] = Some(s.device);
            }
            layer_schedules.push(LayerSchedule::new(sol.slots));
        }

        let schedule = HybridSchedule {
            layers: layer_schedules,
            devices,
            paths,
        };
        let schedule = prune_unused(assay, schedule, seed_devices.len())?;
        Ok(Pass {
            schedule,
            solver: solver_stats,
        })
    }
}

/// Visibility mask for a layer's device pool: seed devices carry their
/// quarantine mask; synthesis-created devices are always visible.
fn bindable_mask(num_devices: usize, seed_bindable: &[bool]) -> Vec<bool> {
    (0..num_devices)
        .map(|d| seed_bindable.get(d).copied().unwrap_or(true))
        .collect()
}

/// One synthesis pass.
struct Pass {
    schedule: HybridSchedule,
    /// Exact-solver counters summed over the pass's layer solutions
    /// (cached solutions contribute the counters of their original solve).
    solver: crate::SolverStats,
}

/// Drops devices no operation uses (stale leftovers from a previous
/// iteration), renumbering slots and recomputing paths. The first
/// `keep_first` devices (an externally fabricated seed library) are kept
/// even when unused, so their indices survive verbatim.
fn prune_unused(
    assay: &Assay,
    schedule: HybridSchedule,
    keep_first: usize,
) -> Result<HybridSchedule, CoreError> {
    let used: BTreeSet<usize> = schedule
        .layers
        .iter()
        .flat_map(|l| l.ops.iter().map(|s| s.device))
        .collect();
    let keep: Vec<usize> = (0..schedule.devices.len())
        .filter(|&d| d < keep_first || used.contains(&d))
        .collect();
    let remap: std::collections::BTreeMap<usize, usize> =
        keep.iter().enumerate().map(|(n, &o)| (o, n)).collect();

    let devices = keep.iter().map(|&o| schedule.devices[o]).collect();
    let mut layers = Vec::with_capacity(schedule.layers.len());
    for l in schedule.layers {
        let mut slots = Vec::with_capacity(l.ops.len());
        for mut s in l.ops {
            let Some(&d) = remap.get(&s.device) else {
                return Err(CoreError::Internal(format!(
                    "slot for o{} bound to unknown device d{}",
                    s.op.index(),
                    s.device
                )));
            };
            s.device = d;
            slots.push(s);
        }
        layers.push(LayerSchedule::new(slots));
    }
    let mut pruned = HybridSchedule {
        layers,
        devices,
        paths: BTreeSet::new(),
    };
    // Recompute paths from the pruned binding.
    let mut paths = BTreeSet::new();
    for (p, c) in assay.dependencies() {
        let (Some(sp), Some(sc)) = (pruned.slot(p), pruned.slot(c)) else {
            return Err(CoreError::Internal(format!(
                "dependency o{}->o{} has an unscheduled endpoint",
                p.index(),
                c.index()
            )));
        };
        if sp.device != sc.device {
            paths.insert(path_key(sp.device, sc.device));
        }
    }
    pruned.paths = paths;
    Ok(pruned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Duration, Operation};
    use mfhls_chip::{Accessory, Capacity, ContainerKind};

    fn small_assay() -> Assay {
        let mut a = Assay::new("small");
        let mix = a.add_op(
            Operation::new("mix")
                .container(ContainerKind::Ring)
                .capacity(Capacity::Medium)
                .accessory(Accessory::Pump)
                .with_duration(Duration::fixed(10)),
        );
        let capture = a.add_op(
            Operation::new("capture")
                .accessory(Accessory::CellTrap)
                .with_duration(Duration::at_least(3)),
        );
        let detect = a.add_op(
            Operation::new("detect")
                .accessory(Accessory::OpticalSystem)
                .with_duration(Duration::fixed(5)),
        );
        a.add_dependency(mix, capture).unwrap();
        a.add_dependency(capture, detect).unwrap();
        a
    }

    #[test]
    fn builder_validates_ranges() {
        assert!(SynthConfig::builder().build().is_ok());
        for bad in [
            SynthConfig::builder().max_devices(0),
            SynthConfig::builder().max_iterations(0),
            SynthConfig::builder().min_improvement(-0.1),
            SynthConfig::builder().min_improvement(1.5),
            SynthConfig::builder().min_improvement(f64::NAN),
        ] {
            assert!(matches!(bad.build(), Err(CoreError::Config(_))));
        }
        // Field mutation bypasses the builder; the run entry point still
        // rejects the config with the same typed error.
        let config = SynthConfig {
            max_devices: 0,
            ..SynthConfig::default()
        };
        let err = Synthesizer::new(config).run(&small_assay()).unwrap_err();
        assert!(matches!(err, CoreError::Config(_)));
    }

    #[test]
    fn shared_cache_is_a_pure_accelerator_across_runs() {
        let assay = small_assay();
        let baseline = Synthesizer::new(SynthConfig::default())
            .run(&assay)
            .unwrap();
        let shared = std::sync::Arc::new(SharedLayerCache::new(64));
        let cold = Synthesizer::new(SynthConfig::default())
            .with_shared_cache(shared.clone())
            .run(&assay)
            .unwrap();
        let before = shared.stats();
        let warm = Synthesizer::new(SynthConfig::default())
            .with_shared_cache(shared.clone())
            .run(&assay)
            .unwrap();
        let after = shared.stats();
        assert_eq!(baseline.schedule, cold.schedule);
        assert_eq!(baseline.schedule, warm.schedule);
        // The second run demand-hits entries the first run inserted.
        assert!(after.hits > before.hits, "{before:?} -> {after:?}");
        assert!(warm.iterations.iter().map(|it| it.cache_hits).sum::<u64>() > 0);
    }

    #[test]
    fn end_to_end_small() {
        let r = Synthesizer::new(SynthConfig::default())
            .run(&small_assay())
            .unwrap();
        r.schedule.validate(&small_assay()).unwrap();
        assert_eq!(r.layering.num_layers(), 2);
        assert!(!r.iterations.is_empty());
        let t = r.final_stats();
        assert_eq!(t.exec_time.indeterminate_layers, vec![1]);
    }

    #[test]
    fn empty_assay_yields_empty_schedule() {
        let a = Assay::new("empty");
        let r = Synthesizer::new(SynthConfig::default()).run(&a).unwrap();
        assert_eq!(r.schedule.layers.len(), 0);
        assert_eq!(r.schedule.used_device_count(), 0);
    }

    #[test]
    fn iterations_never_regress_the_best() {
        let r = Synthesizer::new(SynthConfig::default())
            .run(&small_assay())
            .unwrap();
        let best_exec = r.schedule.exec_time(&small_assay()).fixed;
        for it in &r.iterations {
            assert!(best_exec <= it.exec_time.fixed);
        }
    }

    #[test]
    fn conventional_uses_at_least_as_many_devices() {
        let assay = small_assay();
        let ours = Synthesizer::new(SynthConfig::default())
            .run(&assay)
            .unwrap();
        let conv = Synthesizer::new(SynthConfig {
            component_oriented: false,
            ..SynthConfig::default()
        })
        .run(&assay)
        .unwrap();
        conv.schedule.validate(&assay).unwrap();
        assert!(
            conv.schedule.used_device_count() >= ours.schedule.used_device_count(),
            "conv {} < ours {}",
            conv.schedule.used_device_count(),
            ours.schedule.used_device_count()
        );
    }

    #[test]
    fn device_budget_is_respected() {
        let mut a = Assay::new("wide");
        for k in 0..10 {
            a.add_op(Operation::new(&format!("x{k}")).with_duration(Duration::fixed(5)));
        }
        let r = Synthesizer::new(SynthConfig {
            max_devices: 3,
            ..SynthConfig::default()
        })
        .run(&a)
        .unwrap();
        assert!(r.schedule.devices.len() <= 3);
        r.schedule.validate(&a).unwrap();
    }

    #[test]
    fn figure6_inheritance_scenario() {
        // o2 (any container + sieve) in layer 0; o1 (ring + sieve + pump) in
        // layer 1. First pass builds a chamber for o2 and a ring for o1;
        // re-synthesis should let o2 ride o1's ring and drop the chamber.
        let mut a = Assay::new("fig6");
        let o2 = a.add_op(
            Operation::new("o2")
                .accessory(Accessory::SieveValve)
                .with_duration(Duration::fixed(5)),
        );
        let gate = a.add_op(
            Operation::new("gate")
                .accessory(Accessory::CellTrap)
                .with_duration(Duration::at_least(2)),
        );
        let o1 = a.add_op(
            Operation::new("o1")
                .container(ContainerKind::Ring)
                .capacity(Capacity::Medium)
                .accessory(Accessory::SieveValve)
                .accessory(Accessory::Pump)
                .with_duration(Duration::fixed(5)),
        );
        a.add_dependency(o2, gate).unwrap();
        a.add_dependency(gate, o1).unwrap();
        let r = Synthesizer::new(SynthConfig::default()).run(&a).unwrap();
        r.schedule.validate(&a).unwrap();
        // o1 needs a ring; the cell trap needs its own device. o2 can share
        // the ring after re-synthesis: at most 2 devices + maybe 1 extra if
        // the first iteration result is kept, but never more than 3.
        assert!(r.schedule.used_device_count() <= 3);
        let final_exec = r.final_stats().exec_time.fixed;
        let initial_exec = r.iterations[0].exec_time.fixed;
        assert!(final_exec <= initial_exec);
    }
}
