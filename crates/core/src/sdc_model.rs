//! The incremental-SDC layer scheduler: a third backend between the exact
//! ILP (§4) and the priority-list heuristic.
//!
//! The dependency/timing skeleton of a layer is a system of difference
//! constraints: every internal dependency `a -> b` contributes
//! `st_b >= st_a + dur_a + t_a` — exactly the ILP's eq. 9, with `t_a` the
//! transport estimate of an op that hands a droplet to an in-layer child.
//! [`mfhls_ilp::sdc::SdcSystem`] maintains the minimal (ASAP) solution of
//! that system under incremental constraint addition and retraction, so
//! the skeleton is solved by shortest-path relaxation instead of
//! branch-and-bound: the skeleton makespan is a certified lower bound on
//! any feasible schedule of the layer under the same transport estimates
//! (the ILP-optimal schedule included — resources only push starts up).
//!
//! Resource and device legalization then reuses the heuristic's binding
//! machinery ([`crate::heuristic`]): ops are committed in SDC order
//! (ascending ASAP start, ties broken by descending bottom level, then op
//! id), which tends to keep the critical path tight where the plain
//! priority order can let a long chain starve behind high-fanout work.
//! Each improvement pass feeds the *legalized* starts back into the SDC
//! system as retractable lower-bound constraints, refloats, re-derives
//! the order and re-legalizes; passes that stop improving the weighted
//! objective stop the loop. The add/retract churn and relaxation work are
//! surfaced through [`SolverStats`](crate::SolverStats) (`sdc_*`
//! counters), mirroring the LP pivot counters of the exact backend.

use crate::heuristic::{construct, list_order, priority_orders, Ctx};
use crate::solver::{LayerSolution, LayerSolver};
use crate::{CoreError, LayerProblem, OpId};
use mfhls_ilp::sdc::{ConstraintId, SdcSystem};
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// The SDC layer solver; see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct SdcLayerSolver {
    /// Legalize-and-feed-back passes after the initial skeleton order
    /// (0 = schedule once in pure ASAP order).
    pub improvement_passes: usize,
}

impl Default for SdcLayerSolver {
    fn default() -> Self {
        SdcLayerSolver {
            improvement_passes: 2,
        }
    }
}

/// The skeleton of a layer: its SDC system, the op-index mapping, and the
/// bottom levels used for order tie-breaks.
struct Skeleton {
    sys: SdcSystem,
    /// SDC variable of `p.ops[i]` (the origin variable is separate).
    var: Vec<usize>,
    origin: usize,
    /// Bottom levels over the layer DAG (same weights as the heuristic's
    /// priority order).
    bottom: Vec<u64>,
}

/// Builds the dependency skeleton: one SDC variable per layer op, one
/// min-gap constraint per internal dependency (eq. 9 gaps).
fn build_skeleton(p: &LayerProblem<'_>) -> Result<Skeleton, CoreError> {
    let n = p.ops.len();
    let idx_of: BTreeMap<OpId, usize> = p.ops.iter().enumerate().map(|(i, &o)| (o, i)).collect();
    let mut sys = SdcSystem::new();
    let origin = sys.add_var(0);
    let var: Vec<usize> = (0..n).map(|_| sys.add_var(0)).collect();
    let mut g = mfhls_graph::Digraph::new(n);
    for (a, b) in p.internal_deps() {
        let (Some(&ia), Some(&ib)) = (idx_of.get(&a), idx_of.get(&b)) else {
            return Err(CoreError::Internal(format!(
                "internal dependency o{}->o{} references an op outside the layer",
                a.index(),
                b.index()
            )));
        };
        // st_b >= st_a + dur_a + t_a (the edge's existence means `a` has
        // an in-layer child, so its transport estimate is reserved —
        // mirroring the ILP's t_eff).
        let gap = p.assay.op(a).duration().min_duration() + p.transport.of(a);
        sys.add_constraint(var[ia], var[ib], gap as i64)
            .map_err(|e| CoreError::Internal(format!("layer skeleton: {e}")))?;
        g.add_edge(ia, ib)
            .map_err(|e| CoreError::Internal(format!("layer DAG edge: {e}")))?;
    }
    let weights: Vec<u64> = p
        .ops
        .iter()
        .map(|&o| p.assay.op(o).duration().min_duration() + p.transport.of(o))
        .collect();
    let bottom = mfhls_graph::topo::bottom_levels(&g, &weights)
        .map_err(|e| CoreError::Internal(format!("layer DAG is cyclic: {e}")))?;
    Ok(Skeleton {
        sys,
        var,
        origin,
        bottom,
    })
}

/// The skeleton's fixed makespan: `max(asap + min_duration)` over the
/// layer's ops. A lower bound on the makespan of **every** feasible
/// schedule of the layer under the same transport estimates; parity tests
/// pin `skeleton_makespan <= IlpLayerSolver makespan`.
///
/// # Errors
///
/// [`CoreError::Internal`] when the layer's dependencies are inconsistent
/// (an op outside the layer, or a cycle).
pub fn skeleton_makespan(p: &LayerProblem<'_>) -> Result<u64, CoreError> {
    let skel = build_skeleton(p)?;
    Ok(p.ops
        .iter()
        .enumerate()
        .map(|(i, &o)| skel.sys.value(skel.var[i]) as u64 + p.assay.op(o).duration().min_duration())
        .max()
        .unwrap_or(0))
}

/// Emits the layer's determinate ops in SDC order: repeatedly take the
/// dependency-ready op with the smallest current ASAP value (ties: higher
/// bottom level, then smaller op index). Always a topological order, as
/// [`construct`] requires.
fn sdc_det_order(p: &LayerProblem<'_>, ctx: &Ctx, skel: &Skeleton) -> Result<Vec<OpId>, CoreError> {
    let order = list_order(p, ctx, |r| {
        let i = ctx.pos[r];
        (
            Reverse(skel.sys.value(skel.var[i])),
            skel.bottom[i],
            Reverse(i),
        )
    })?;
    let order: Vec<OpId> = order.into_iter().map(|r| p.ops[ctx.pos[r]]).collect();
    #[cfg(test)]
    assert_eq!(
        order,
        tests::sdc_det_order_reference(p, skel)?,
        "ready-heap SDC order diverged from the reference scan"
    );
    Ok(order)
}

impl LayerSolver for SdcLayerSolver {
    fn solve(&self, p: &LayerProblem<'_>) -> Result<LayerSolution, CoreError> {
        let ctx = Ctx::new(p);
        let (_, ind_order) = priority_orders(p, &ctx)?;
        let mut skel = build_skeleton(p)?;
        let idx_of: BTreeMap<OpId, usize> =
            p.ops.iter().enumerate().map(|(i, &o)| (o, i)).collect();

        let mut best: Option<LayerSolution> = None;
        let mut feedback: Vec<ConstraintId> = Vec::new();
        for pass in 0..=self.improvement_passes {
            let det_order = sdc_det_order(p, &ctx, &skel)?;
            let sol = construct(p, &ctx, &det_order, &ind_order)?;
            match &best {
                Some(b) if sol.objective >= b.objective => break,
                _ => best = Some(sol),
            }
            if pass == self.improvement_passes {
                break;
            }
            // Feed the legalized starts back as retractable lower bounds:
            // the next pass orders by resource-aware ASAP values.
            for id in feedback.drain(..) {
                skel.sys
                    .retract(id)
                    .map_err(|e| CoreError::Internal(format!("sdc feedback retract: {e}")))?;
            }
            let slots = &best
                .as_ref()
                .ok_or_else(|| CoreError::Internal("sdc pass lost its solution".to_owned()))?
                .slots;
            let mut changed = false;
            for slot in slots {
                let Some(&i) = idx_of.get(&slot.op) else {
                    continue;
                };
                if p.assay.op(slot.op).is_indeterminate() {
                    continue;
                }
                if skel.sys.value(skel.var[i]) < slot.start as i64 {
                    let id = skel
                        .sys
                        .add_constraint(skel.origin, skel.var[i], slot.start as i64)
                        .map_err(|e| CoreError::Internal(format!("sdc feedback: {e}")))?;
                    feedback.push(id);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let mut sol =
            best.ok_or_else(|| CoreError::Internal("sdc solver produced no solution".to_owned()))?;
        let s = skel.sys.stats();
        sol.stats.sdc_solves = 1;
        sol.stats.sdc_constraints = s.constraints_added;
        sol.stats.sdc_retracts = s.retracts;
        sol.stats.sdc_relaxations = s.relaxations;
        Ok(sol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::HeuristicLayerSolver;
    use crate::{
        Assay, Duration, HybridSchedule, LayerSchedule, Operation, TransportConfig, TransportTimes,
        Weights,
    };
    use mfhls_chip::{Accessory, Capacity, ContainerKind, CostModel};
    use std::collections::BTreeSet;

    /// The SDC order as [`sdc_det_order`] emitted it before it used a
    /// ready heap: a scan of every determinate op per emission over a
    /// `Digraph` of positions in `p.ops`.
    pub(super) fn sdc_det_order_reference(
        p: &LayerProblem<'_>,
        skel: &Skeleton,
    ) -> Result<Vec<OpId>, CoreError> {
        let n = p.ops.len();
        let idx_of: BTreeMap<OpId, usize> =
            p.ops.iter().enumerate().map(|(i, &o)| (o, i)).collect();
        let mut graph = mfhls_graph::Digraph::new(n);
        for (a, b) in p.internal_deps() {
            graph
                .add_edge(idx_of[&a], idx_of[&b])
                .map_err(|e| CoreError::Internal(format!("layer DAG edge: {e}")))?;
        }
        let det: Vec<bool> = (0..n)
            .map(|i| !p.assay.op(p.ops[i]).is_indeterminate())
            .collect();
        let det_count = det.iter().filter(|&&d| d).count();
        let mut remaining: Vec<usize> = (0..n)
            .map(|i| graph.predecessors(i).iter().filter(|&&q| det[q]).count())
            .collect();
        let mut emitted = vec![false; n];
        let mut order = Vec::with_capacity(det_count);
        while order.len() < det_count {
            let Some(next) = (0..n)
                .filter(|&i| det[i] && !emitted[i] && remaining[i] == 0)
                .max_by_key(|&i| {
                    (
                        Reverse(skel.sys.value(skel.var[i])),
                        skel.bottom[i],
                        Reverse(i),
                    )
                })
            else {
                return Err(CoreError::Internal(
                    "no ready determinate op in an acyclic layer".to_owned(),
                ));
            };
            emitted[next] = true;
            order.push(p.ops[next]);
            for &c in graph.successors(next) {
                remaining[c] = remaining[c].saturating_sub(1);
            }
        }
        Ok(order)
    }

    fn chain_assay(len: usize) -> Assay {
        let mut a = Assay::new("sdc-chain");
        let mut prev = None;
        for k in 0..len {
            let op = a.add_op(
                Operation::new(&format!("s{k}"))
                    .container(ContainerKind::Ring)
                    .capacity(Capacity::Medium)
                    .accessory(Accessory::Pump)
                    .with_duration(Duration::fixed(3 + (k as u64 % 4))),
            );
            if let Some(q) = prev {
                a.add_dependency(q, op).unwrap();
            }
            prev = Some(op);
        }
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

    fn as_schedule(sol: &LayerSolution) -> HybridSchedule {
        HybridSchedule {
            layers: vec![LayerSchedule::new(sol.slots.clone())],
            devices: sol.devices.clone(),
            paths: sol.new_paths.clone(),
        }
    }

    #[test]
    fn chain_skeleton_matches_path_length() {
        let assay = chain_assay(5);
        let transport = TransportTimes::initial(&assay, &TransportConfig::default());
        let costs = CostModel::default();
        let p = problem(&assay, &transport, &costs);
        // Durations 3,4,5,6,3; transport of every non-terminal op applies.
        let t: u64 = assay.op_ids().take(4).map(|o| transport.of(o)).sum();
        assert_eq!(skeleton_makespan(&p).unwrap(), 3 + 4 + 5 + 6 + 3 + t);
    }

    #[test]
    fn sdc_solution_is_valid_and_counts_work() {
        let assay = chain_assay(6);
        let transport = TransportTimes::initial(&assay, &TransportConfig::default());
        let costs = CostModel::default();
        let p = problem(&assay, &transport, &costs);
        let sol = SdcLayerSolver::default().solve(&p).unwrap();
        as_schedule(&sol).validate(&assay).unwrap();
        assert_eq!(sol.stats.sdc_solves, 1);
        assert_eq!(sol.stats.sdc_constraints as usize, 5);
        assert!(sol.stats.sdc_relaxations >= 5);
        assert_eq!(sol.stats.ilp_solves, 0);
        // The chain's makespan cannot beat the skeleton.
        assert!(sol.makespan() >= skeleton_makespan(&p).unwrap());
    }

    #[test]
    fn sdc_never_beats_the_skeleton_bound_on_forks() {
        let mut assay = Assay::new("fork");
        let root = assay.add_op(
            Operation::new("root")
                .container(ContainerKind::Ring)
                .capacity(Capacity::Medium)
                .with_duration(Duration::fixed(4)),
        );
        for k in 0..3 {
            let leaf = assay.add_op(
                Operation::new(&format!("leaf{k}"))
                    .accessory(Accessory::HeatingPad)
                    .with_duration(Duration::fixed(5 + k)),
            );
            assay.add_dependency(root, leaf).unwrap();
        }
        let transport = TransportTimes::initial(&assay, &TransportConfig::default());
        let costs = CostModel::default();
        let p = problem(&assay, &transport, &costs);
        let sol = SdcLayerSolver::default().solve(&p).unwrap();
        as_schedule(&sol).validate(&assay).unwrap();
        assert!(sol.makespan() >= skeleton_makespan(&p).unwrap());
    }

    #[test]
    fn indeterminate_ops_are_placed_like_the_heuristic_requires() {
        let mut assay = Assay::new("ind");
        let mix = assay.add_op(
            Operation::new("mix")
                .container(ContainerKind::Ring)
                .capacity(Capacity::Medium)
                .with_duration(Duration::fixed(6)),
        );
        let cap1 = assay.add_op(
            Operation::new("cap1")
                .accessory(Accessory::CellTrap)
                .with_duration(Duration::at_least(3)),
        );
        let cap2 = assay.add_op(
            Operation::new("cap2")
                .accessory(Accessory::CellTrap)
                .with_duration(Duration::at_least(2)),
        );
        assay.add_dependency(mix, cap1).unwrap();
        assay.add_dependency(mix, cap2).unwrap();
        let transport = TransportTimes::initial(&assay, &TransportConfig::default());
        let costs = CostModel::default();
        let p = problem(&assay, &transport, &costs);
        let sol = SdcLayerSolver::default().solve(&p).unwrap();
        as_schedule(&sol).validate(&assay).unwrap();
        // Distinct devices for the indeterminate pair, aligned starts.
        let ind: Vec<_> = sol
            .slots
            .iter()
            .filter(|s| assay.op(s.op).is_indeterminate())
            .collect();
        assert_eq!(ind.len(), 2);
        assert_ne!(ind[0].device, ind[1].device);
        assert_eq!(ind[0].start, ind[1].start);
    }

    #[test]
    fn zero_improvement_passes_still_solve() {
        let assay = chain_assay(4);
        let transport = TransportTimes::initial(&assay, &TransportConfig::default());
        let costs = CostModel::default();
        let p = problem(&assay, &transport, &costs);
        let sol = SdcLayerSolver {
            improvement_passes: 0,
        }
        .solve(&p)
        .unwrap();
        as_schedule(&sol).validate(&assay).unwrap();
        assert_eq!(sol.stats.sdc_retracts, 0);
    }

    #[test]
    fn sdc_and_heuristic_agree_on_objective_order_of_magnitude() {
        // Not an equality: the two backends explore different orders. The
        // SDC result must simply be a sane, valid alternative.
        let assay = chain_assay(8);
        let transport = TransportTimes::initial(&assay, &TransportConfig::default());
        let costs = CostModel::default();
        let p = problem(&assay, &transport, &costs);
        let sdc = SdcLayerSolver::default().solve(&p).unwrap();
        let heur = HeuristicLayerSolver::default().solve(&p).unwrap();
        as_schedule(&sdc).validate(&assay).unwrap();
        assert!(sdc.objective <= heur.objective * 2);
    }
}
