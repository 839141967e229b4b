//! The layering algorithm for hybrid scheduling (§3.1, Algorithm 1).
//!
//! An assay with indeterminate operations cannot be scheduled into fixed
//! time slots end-to-end. The layering algorithm splits the operation DAG
//! into sequential layers such that every indeterminate operation is the
//! last thing running in its layer; cyberphysical termination control is
//! then needed only at layer boundaries.
//!
//! Two phases per layer:
//!
//! * **Dependency-based allocation** (L12–L24): repeatedly choose an
//!   indeterminate operation with no indeterminate ancestor among the
//!   non-layered ops, keep it, and defer all its descendants to later
//!   layers; when no indeterminate op remains, everything left joins the
//!   layer. (A modified maximum-independent-set pass, Fig. 4.)
//! * **Resource-based allocation** (L25–L34): if the layer ends with more
//!   than `threshold` indeterminate operations (each needs its own device),
//!   evict the cheapest ones. Eviction cost is a minimum cut (Fig. 5):
//!   storage for outputs of unmoved ancestors, ties broken by moving fewer
//!   vertices; see [`mfhls_graph::closure_cut`].

use crate::{Assay, CoreError, OpId};
use mfhls_graph::{closure_cut, reach, BitSet};
use mfhls_obs as obs;

/// The result of layering an assay: a partition of its operations into
/// sequential layers.
#[derive(Debug, Clone, PartialEq)]
pub struct Layering {
    layers: Vec<Vec<OpId>>,
    layer_of: Vec<usize>,
}

impl Layering {
    /// The layers, in execution order; each layer lists ops in ascending id.
    pub fn layers(&self) -> &[Vec<OpId>] {
        &self.layers
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Which layer an operation belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `op` is foreign to the layered assay.
    pub fn layer_of(&self, op: OpId) -> usize {
        self.layer_of[op.index()]
    }

    /// Indeterminate operations in `layer`.
    pub fn indeterminate_in(&self, assay: &Assay, layer: usize) -> Vec<OpId> {
        self.layers[layer]
            .iter()
            .copied()
            .filter(|&o| assay.op(o).is_indeterminate())
            .collect()
    }

    /// Storage demand at each layer boundary: the number of dependency
    /// edges whose parent finishes in layer `i` or earlier and whose child
    /// runs after layer `i` (the parent's output must be stored across the
    /// boundary).
    pub fn boundary_storage(&self, assay: &Assay) -> Vec<u64> {
        let n_bounds = self.layers.len().saturating_sub(1);
        let mut storage = vec![0u64; n_bounds];
        for (p, c) in assay.dependencies() {
            let (lp, lc) = (self.layer_of(p), self.layer_of(c));
            for s in storage.iter_mut().take(lc).skip(lp) {
                *s += 1;
            }
        }
        storage
    }

    /// Checks the structural invariants of a layering:
    ///
    /// * every operation appears in exactly one layer;
    /// * dependencies never point backwards (`layer(parent) <= layer(child)`);
    /// * an indeterminate parent's children are in strictly later layers
    ///   (indeterminate ops end their layer, eq. 14 footnote);
    /// * no layer holds more than `threshold` indeterminate operations.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Layering`] describing the first violation.
    pub fn validate(&self, assay: &Assay, threshold: usize) -> Result<(), CoreError> {
        let mut seen = vec![false; assay.len()];
        for (li, layer) in self.layers.iter().enumerate() {
            for &op in layer {
                if op.index() >= assay.len() {
                    return Err(CoreError::Layering(format!("foreign op {op}")));
                }
                if seen[op.index()] {
                    return Err(CoreError::Layering(format!("{op} in two layers")));
                }
                seen[op.index()] = true;
                if self.layer_of(op) != li {
                    return Err(CoreError::Layering(format!("layer_of({op}) inconsistent")));
                }
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(CoreError::Layering(format!("o{missing} not layered")));
        }
        for (p, c) in assay.dependencies() {
            let (lp, lc) = (self.layer_of(p), self.layer_of(c));
            if lp > lc {
                return Err(CoreError::Layering(format!(
                    "dependency {p}->{c} points backwards ({lp} > {lc})"
                )));
            }
            if assay.op(p).is_indeterminate() && lp == lc {
                return Err(CoreError::Layering(format!(
                    "indeterminate {p} has child {c} in its own layer {lp}"
                )));
            }
        }
        for (li, _) in self.layers.iter().enumerate() {
            let k = self.indeterminate_in(assay, li).len();
            if k > threshold {
                return Err(CoreError::Layering(format!(
                    "layer {li} holds {k} indeterminate ops (> threshold {threshold})"
                )));
            }
        }
        Ok(())
    }
}

/// Runs Algorithm 1: partitions `assay` into layers with at most
/// `threshold` indeterminate operations per layer.
///
/// Deterministic *and relabeling-invariant*: the "randomly chosen"
/// indeterminate op of the paper is replaced by the smallest eligible id
/// (the chosen *set* is order-independent — an indeterminate op is kept
/// iff it has no unlayered indeterminate ancestor), and eviction ties
/// break on (storage, moved-count, WL colour, id). The WL colour
/// ([`crate::structural_op_colours`]) is a structural fingerprint, so
/// renumbering the assay's operations cannot change which *structural*
/// op is evicted; the raw id only decides between WL-indistinguishable
/// twins, where either choice yields isomorphic layers.
///
/// # Errors
///
/// * [`CoreError::Layering`] if `threshold == 0` (each indeterminate op
///   needs to live in *some* layer) or the assay graph is cyclic.
///
/// # Example
///
/// ```
/// use mfhls_core::{layer_assay, Assay, Duration, Operation};
///
/// let mut assay = Assay::new("demo");
/// let prepare = assay.add_op(Operation::new("prepare").with_duration(Duration::fixed(2)));
/// let capture = assay.add_op(Operation::new("capture").with_duration(Duration::at_least(3)));
/// let analyze = assay.add_op(Operation::new("analyze").with_duration(Duration::fixed(4)));
/// assay.add_dependency(prepare, capture)?;
/// assay.add_dependency(capture, analyze)?;
/// let layering = layer_assay(&assay, 10)?;
/// assert_eq!(layering.num_layers(), 2);
/// assert_eq!(layering.layer_of(analyze), 1); // child of the indeterminate op
/// # Ok::<(), mfhls_core::CoreError>(())
/// ```
pub fn layer_assay(assay: &Assay, threshold: usize) -> Result<Layering, CoreError> {
    if threshold == 0 {
        return Err(CoreError::Layering(
            "threshold must be at least 1".to_owned(),
        ));
    }
    let n = assay.len();
    let graph = assay.graph();
    if !mfhls_graph::topo::is_acyclic(&graph) {
        return Err(CoreError::CyclicAssay);
    }
    let _span = obs::span(
        obs::Level::Info,
        "layering",
        &[("ops", n.into()), ("threshold", threshold.into())],
    );
    let all_desc = reach::all_descendants(&graph);
    let all_anc = reach::all_ancestors(&graph);
    let indeterminate: Vec<bool> = assay.iter().map(|(_, o)| o.is_indeterminate()).collect();
    // Structural eviction tie-break (computed lazily: only layers that
    // overflow the threshold ever need it).
    let mut colours: Option<Vec<u64>> = None;

    let mut remaining = BitSet::new(n.max(1));
    for i in 0..n {
        remaining.insert(i);
    }
    let mut layers: Vec<Vec<OpId>> = Vec::new();
    let mut layer_of = vec![usize::MAX; n];

    while !remaining.is_empty() {
        // ---- Phase 1: dependency-based allocation -----------------------
        // `graph_set` shrinks as chosen inds' descendants are deferred.
        let mut graph_set = remaining.clone();
        let mut deferred = BitSet::new(n.max(1));
        let mut chosen_inds: Vec<usize> = Vec::new();
        loop {
            // Smallest indeterminate op in graph_set with no indeterminate
            // ancestor inside graph_set.
            let pick = graph_set.iter().find(|&o| {
                indeterminate[o]
                    && !all_anc[o]
                        .iter()
                        .any(|a| graph_set.contains(a) && indeterminate[a])
            });
            let Some(o) = pick else {
                break;
            };
            chosen_inds.push(o);
            graph_set.remove(o);
            let mut newly_deferred = 0u64;
            for d in all_desc[o].iter() {
                if graph_set.remove(d) {
                    deferred.insert(d);
                    newly_deferred += 1;
                }
            }
            obs::event(
                obs::Level::Debug,
                "keep_indeterminate",
                &[("op", o.into()), ("deferred", newly_deferred.into())],
            );
        }
        // Layer = chosen inds + everything still in graph_set.
        let mut layer_set = graph_set;
        for &o in &chosen_inds {
            layer_set.insert(o);
        }

        // ---- Phase 2: resource-based allocation --------------------------
        loop {
            let inds_now: Vec<usize> = layer_set.iter().filter(|&o| indeterminate[o]).collect();
            if inds_now.len() <= threshold {
                break;
            }
            // Cost of evicting each indeterminate op. Ties on (storage,
            // moved-count) break on the relabeling-invariant WL colour so
            // that layer membership — and every layer's canonical
            // signature — survives renumbering the assay's operations.
            let colours = colours.get_or_insert_with(|| crate::cache::structural_op_colours(assay));
            let mut best: Option<(u64, usize, u64, usize, Vec<usize>)> = None;
            for &oj in &inds_now {
                let (storage, moved) = eviction_plan(assay, &layer_set, &all_anc, &all_desc, oj)?;
                let key = (storage, moved.len(), colours[oj], oj);
                if best
                    .as_ref()
                    .is_none_or(|(s, m, c, o, _)| key < (*s, *m, *c, *o))
                {
                    best = Some((storage, moved.len(), colours[oj], oj, moved));
                }
            }
            let Some((storage, _, _, evicted, moved)) = best else {
                // Unreachable: `inds_now.len() > threshold >= 1` guarantees
                // at least one candidate — surfaced as an error, not a panic.
                return Err(CoreError::Internal(
                    "resource-based eviction found no indeterminate candidate".to_owned(),
                ));
            };
            obs::event(
                obs::Level::Debug,
                "evict_indeterminate",
                &[
                    ("op", evicted.into()),
                    ("storage", storage.into()),
                    ("moved", moved.len().into()),
                ],
            );
            for &m in &moved {
                layer_set.remove(m);
                deferred.insert(m);
            }
            if layer_set.is_empty() {
                return Err(CoreError::Layering(
                    "resource-based eviction emptied a layer".to_owned(),
                ));
            }
        }

        let layer: Vec<OpId> = layer_set.iter().map(OpId).collect();
        let li = layers.len();
        for &op in &layer {
            layer_of[op.index()] = li;
        }
        obs::event(
            obs::Level::Info,
            "layer_formed",
            &[
                ("layer", li.into()),
                ("ops", layer.len().into()),
                (
                    "indeterminate",
                    layer
                        .iter()
                        .filter(|o| indeterminate[o.index()])
                        .count()
                        .into(),
                ),
                ("deferred", deferred.count().into()),
            ],
        );
        layers.push(layer);
        remaining = deferred;
    }

    Ok(Layering { layers, layer_of })
}

/// Computes the eviction plan for indeterminate op `oj` inside `layer_set`:
/// the min-cut over its in-layer ancestors (Fig. 5), expanded to the
/// descendant closure within the layer so no kept op depends on a moved one
/// (see DESIGN.md §5), and the resulting storage cost.
fn eviction_plan(
    assay: &Assay,
    layer_set: &BitSet,
    all_anc: &[BitSet],
    all_desc: &[BitSet],
    oj: usize,
) -> Result<(u64, Vec<usize>), CoreError> {
    // Candidate set: oj + its ancestors within the layer.
    let mut cand: Vec<usize> = all_anc[oj]
        .iter()
        .filter(|&a| layer_set.contains(a))
        .collect();
    cand.push(oj);
    cand.sort_unstable();
    let index_of = |g: usize| cand.binary_search(&g).ok();

    let mut dep_edges = Vec::new();
    let mut external = vec![0u64; cand.len()];
    for (ci, &g) in cand.iter().enumerate() {
        for p in assay.parents(OpId(g)) {
            match index_of(p.index()) {
                Some(pi) => dep_edges.push((pi, ci)),
                // Parent outside the candidate set: by construction it is in
                // an earlier layer (any in-layer parent of an ancestor of oj
                // is itself an ancestor of oj), so its output sits in the
                // virtual source.
                None => external[ci] += 1,
            }
        }
    }
    let Some(sink) = index_of(oj) else {
        // Unreachable: `oj` was pushed into `cand` above.
        return Err(CoreError::Internal(format!(
            "eviction sink o{oj} missing from its own candidate set"
        )));
    };
    let cut = closure_cut::eviction_cut(cand.len(), &dep_edges, &external, sink);

    // Descendant closure within the layer.
    let mut moved = BitSet::new(assay.len().max(1));
    for &ci in &cut.moved {
        moved.insert(cand[ci]);
    }
    let mut frontier: Vec<usize> = cut.moved.iter().map(|&ci| cand[ci]).collect();
    while let Some(m) = frontier.pop() {
        for d in all_desc[m].iter() {
            if layer_set.contains(d) && moved.insert(d) {
                frontier.push(d);
            }
        }
    }

    // Falling back to evicting the sink alone keeps the layer non-empty
    // when the cheapest cut would move everything (possible when no
    // ancestor consumes earlier-layer outputs, so moving the whole subtree
    // is storage-free).
    if moved.count() >= layer_set.count() {
        moved.clear();
        moved.insert(oj);
    }

    // Storage after closure: edges from unmoved ops (in-layer or earlier
    // layers) into the moved set.
    let mut storage = 0u64;
    for m in moved.iter() {
        for p in assay.parents(OpId(m)) {
            if !moved.contains(p.index()) {
                storage += 1;
            }
        }
    }
    Ok((storage, moved.iter().collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Duration, Operation};

    fn fixed(name: &str) -> Operation {
        Operation::new(name).with_duration(Duration::fixed(2))
    }

    fn ind(name: &str) -> Operation {
        Operation::new(name).with_duration(Duration::at_least(3))
    }

    #[test]
    fn all_determinate_is_one_layer() {
        let mut a = Assay::new("t");
        let x = a.add_op(fixed("x"));
        let y = a.add_op(fixed("y"));
        a.add_dependency(x, y).unwrap();
        let l = layer_assay(&a, 10).unwrap();
        assert_eq!(l.num_layers(), 1);
        l.validate(&a, 10).unwrap();
    }

    #[test]
    fn indeterminate_descendants_deferred() {
        let mut a = Assay::new("t");
        let prep = a.add_op(fixed("prep"));
        let cap = a.add_op(ind("capture"));
        let post = a.add_op(fixed("post"));
        a.add_dependency(prep, cap).unwrap();
        a.add_dependency(cap, post).unwrap();
        let l = layer_assay(&a, 10).unwrap();
        assert_eq!(l.num_layers(), 2);
        assert_eq!(l.layer_of(prep), 0);
        assert_eq!(l.layer_of(cap), 0);
        assert_eq!(l.layer_of(post), 1);
        l.validate(&a, 10).unwrap();
    }

    #[test]
    fn chained_indeterminates_take_separate_layers() {
        let mut a = Assay::new("t");
        let i1 = a.add_op(ind("i1"));
        let i2 = a.add_op(ind("i2"));
        let i3 = a.add_op(ind("i3"));
        a.add_dependency(i1, i2).unwrap();
        a.add_dependency(i2, i3).unwrap();
        let l = layer_assay(&a, 10).unwrap();
        assert_eq!(l.num_layers(), 3);
        l.validate(&a, 10).unwrap();
    }

    #[test]
    fn parallel_indeterminates_share_a_layer() {
        let mut a = Assay::new("t");
        for k in 0..5 {
            a.add_op(ind(&format!("i{k}")));
        }
        let l = layer_assay(&a, 10).unwrap();
        assert_eq!(l.num_layers(), 1);
        assert_eq!(l.indeterminate_in(&a, 0).len(), 5);
    }

    #[test]
    fn threshold_forces_eviction() {
        let mut a = Assay::new("t");
        for k in 0..5 {
            a.add_op(ind(&format!("i{k}")));
        }
        let l = layer_assay(&a, 2).unwrap();
        for li in 0..l.num_layers() {
            assert!(l.indeterminate_in(&a, li).len() <= 2);
        }
        l.validate(&a, 2).unwrap();
        assert_eq!(l.num_layers(), 3); // 2 + 2 + 1
    }

    #[test]
    fn eviction_prefers_fewer_moves_on_equal_storage() {
        // Both indeterminate ops can move at zero storage (their ancestors
        // have no inputs from earlier layers, so the whole subtree may
        // shift). The tie breaks on moving fewer vertices: o1 drags 2 ops,
        // o2 would drag 3.
        let mut a = Assay::new("t");
        let a1 = a.add_op(fixed("a1"));
        let o1 = a.add_op(ind("o1"));
        let b1 = a.add_op(fixed("b1"));
        let b2 = a.add_op(fixed("b2"));
        let o2 = a.add_op(ind("o2"));
        a.add_dependency(a1, o1).unwrap();
        a.add_dependency(b1, o2).unwrap();
        a.add_dependency(b2, o2).unwrap();
        let l = layer_assay(&a, 1).unwrap();
        assert_eq!(l.num_layers(), 2);
        assert_eq!(l.layer_of(o2), 0, "expensive-to-move op stays");
        assert_eq!(l.layer_of(o1), 1, "cheap-to-move op is evicted");
        // Zero-storage eviction takes the ancestor along.
        assert_eq!(l.layer_of(a1), 1);
        assert_eq!(l.boundary_storage(&a), vec![0]);
        l.validate(&a, 1).unwrap();
    }

    #[test]
    fn eviction_prefers_less_storage_with_prior_layer_inputs() {
        // Closer to Fig. 5: ancestors consume outputs from an earlier layer
        // (created by a preceding indeterminate stage), so moving them is
        // not free. o1's subtree costs 1 stored output, o2's costs 2; with
        // threshold 1, o1 is evicted.
        let mut a = Assay::new("t");
        let src = a.add_op(ind("src")); // forces a first layer
        let a1 = a.add_op(fixed("a1"));
        let o1 = a.add_op(ind("o1"));
        let b1 = a.add_op(fixed("b1"));
        let b2 = a.add_op(fixed("b2"));
        let o2 = a.add_op(ind("o2"));
        a.add_dependency(src, a1).unwrap();
        a.add_dependency(src, b1).unwrap();
        a.add_dependency(src, b2).unwrap();
        a.add_dependency(a1, o1).unwrap();
        a.add_dependency(b1, o2).unwrap();
        a.add_dependency(b2, o2).unwrap();
        let l = layer_assay(&a, 1).unwrap();
        assert_eq!(l.num_layers(), 3);
        assert_eq!(l.layer_of(src), 0);
        assert_eq!(l.layer_of(o2), 1, "keeping o2 avoids 2 stored outputs");
        assert_eq!(l.layer_of(o1), 2);
        l.validate(&a, 1).unwrap();
    }

    #[test]
    fn zero_threshold_rejected() {
        let a = Assay::new("t");
        assert!(matches!(layer_assay(&a, 0), Err(CoreError::Layering(_))));
    }

    #[test]
    fn empty_assay() {
        let a = Assay::new("t");
        let l = layer_assay(&a, 3).unwrap();
        assert_eq!(l.num_layers(), 0);
        l.validate(&a, 3).unwrap();
    }

    #[test]
    fn boundary_storage_counts_crossing_edges() {
        let mut a = Assay::new("t");
        let p = a.add_op(fixed("p"));
        let i = a.add_op(ind("i"));
        let c1 = a.add_op(fixed("c1"));
        let c2 = a.add_op(fixed("c2"));
        a.add_dependency(p, i).unwrap();
        a.add_dependency(i, c1).unwrap();
        a.add_dependency(p, c2).unwrap();
        let l = layer_assay(&a, 10).unwrap();
        assert_eq!(l.num_layers(), 2);
        // c2 is not a descendant of the indeterminate op, so it stays in
        // layer 0; only i->c1 crosses the boundary.
        assert_eq!(l.layer_of(c2), 0);
        assert_eq!(l.boundary_storage(&a), vec![1]);
    }

    #[test]
    fn diamond_with_indeterminate_middle() {
        let mut a = Assay::new("t");
        let s = a.add_op(fixed("s"));
        let i = a.add_op(ind("i"));
        let d = a.add_op(fixed("d"));
        let j = a.add_op(fixed("join"));
        a.add_dependency(s, i).unwrap();
        a.add_dependency(s, d).unwrap();
        a.add_dependency(i, j).unwrap();
        a.add_dependency(d, j).unwrap();
        let l = layer_assay(&a, 10).unwrap();
        assert_eq!(l.layer_of(s), 0);
        assert_eq!(l.layer_of(i), 0);
        assert_eq!(l.layer_of(d), 0);
        assert_eq!(l.layer_of(j), 1);
        l.validate(&a, 10).unwrap();
    }

    #[test]
    fn indeterminate_with_indeterminate_ancestor_is_deferred() {
        let mut a = Assay::new("t");
        let i1 = a.add_op(ind("i1"));
        let mid = a.add_op(fixed("mid"));
        let i2 = a.add_op(ind("i2"));
        a.add_dependency(i1, mid).unwrap();
        a.add_dependency(mid, i2).unwrap();
        let l = layer_assay(&a, 10).unwrap();
        assert_eq!(l.num_layers(), 2);
        assert_eq!(l.layer_of(i1), 0);
        assert_eq!(l.layer_of(mid), 1);
        assert_eq!(l.layer_of(i2), 1);
    }

    #[test]
    fn validate_catches_backward_dependency() {
        let mut a = Assay::new("t");
        let x = a.add_op(fixed("x"));
        let y = a.add_op(fixed("y"));
        a.add_dependency(x, y).unwrap();
        let bogus = Layering {
            layers: vec![vec![y], vec![x]],
            layer_of: vec![1, 0],
        };
        assert!(bogus.validate(&a, 10).is_err());
    }

    #[test]
    fn validate_catches_missing_op() {
        let mut a = Assay::new("t");
        let _ = a.add_op(fixed("x"));
        let bogus = Layering {
            layers: vec![vec![]],
            layer_of: vec![usize::MAX],
        };
        assert!(bogus.validate(&a, 10).is_err());
    }
}
