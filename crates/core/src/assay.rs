//! Bioassays: operation DAGs with parent/child reagent dependencies.

use crate::{CoreError, OpId, Operation};
use mfhls_graph::{reach, BitSet, Digraph};

/// A bioassay: a set of [`Operation`]s and the dependency DAG between them
/// (§2.2, attribute *c*: `o_c` is a *child* of `o_p` if it consumes `o_p`'s
/// outputs).
///
/// # Example
///
/// ```
/// use mfhls_core::{Assay, Duration, Operation};
///
/// let mut assay = Assay::new("pcr");
/// let lyse = assay.add_op(Operation::new("lyse").with_duration(Duration::fixed(5)));
/// let amplify = assay.add_op(Operation::new("amplify").with_duration(Duration::fixed(30)));
/// assay.add_dependency(lyse, amplify)?;
/// assert_eq!(assay.children(lyse), vec![amplify]);
/// # Ok::<(), mfhls_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Assay {
    name: String,
    ops: Vec<Operation>,
    edges: Vec<(usize, usize)>,
    /// `children[p]`: the children of op `p`, in edge insertion order.
    children: Vec<Vec<usize>>,
}

impl Assay {
    /// Creates an empty assay.
    pub fn new(name: &str) -> Self {
        Assay {
            name: name.to_owned(),
            ops: Vec::new(),
            edges: Vec::new(),
            children: Vec::new(),
        }
    }

    /// The assay's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds an operation, returning its id.
    pub fn add_op(&mut self, op: Operation) -> OpId {
        self.ops.push(op);
        self.children.push(Vec::new());
        OpId(self.ops.len() - 1)
    }

    /// Declares that `child` consumes outputs of `parent`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::UnknownOp`] if either id is foreign.
    /// * [`CoreError::CyclicAssay`] if the edge would close a cycle
    ///   (including self-dependencies).
    ///
    /// The edge closes a cycle iff `parent` is reachable from `child`, so
    /// only `child`'s descendants are searched: building an assay costs
    /// time linear in its size for the usual parents-first edge order.
    pub fn add_dependency(&mut self, parent: OpId, child: OpId) -> Result<(), CoreError> {
        for id in [parent, child] {
            if id.0 >= self.ops.len() {
                return Err(CoreError::UnknownOp(id.0));
            }
        }
        if self.search_forward(child.0, parent.0).0 {
            return Err(CoreError::CyclicAssay);
        }
        self.edges.push((parent.0, child.0));
        self.children[parent.0].push(child.0);
        Ok(())
    }

    /// Depth-first search along dependency edges from op `from`: whether
    /// it reaches op `to` (every op reaches itself), and how many ops the
    /// search expanded.
    fn search_forward(&self, from: usize, to: usize) -> (bool, usize) {
        if from == to {
            return (true, 0);
        }
        if self.children[from].is_empty() {
            return (false, 0);
        }
        let mut seen = BitSet::new(self.ops.len());
        seen.insert(from);
        let mut stack = vec![from];
        let mut expanded = 0;
        while let Some(v) = stack.pop() {
            expanded += 1;
            for &c in &self.children[v] {
                if c == to {
                    return (true, expanded);
                }
                if seen.insert(c) {
                    stack.push(c);
                }
            }
        }
        (false, expanded)
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the assay has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Looks up an operation.
    ///
    /// # Panics
    ///
    /// Panics if `id` is foreign; use [`Assay::get`] for a fallible lookup.
    pub fn op(&self, id: OpId) -> &Operation {
        &self.ops[id.0]
    }

    /// Fallible operation lookup.
    pub fn get(&self, id: OpId) -> Option<&Operation> {
        self.ops.get(id.0)
    }

    /// Iterates `(id, operation)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (OpId, &Operation)> {
        self.ops.iter().enumerate().map(|(i, o)| (OpId(i), o))
    }

    /// All operation ids.
    pub fn op_ids(&self) -> impl Iterator<Item = OpId> + '_ {
        (0..self.ops.len()).map(OpId)
    }

    /// Dependency edges as `(parent, child)` pairs.
    pub fn dependencies(&self) -> impl Iterator<Item = (OpId, OpId)> + '_ {
        self.edges.iter().map(|&(p, c)| (OpId(p), OpId(c)))
    }

    /// The dependency graph over operation indices.
    pub fn graph(&self) -> Digraph {
        Digraph::from_edges(self.ops.len(), self.edges.iter().copied())
    }

    /// Direct parents of `id`.
    pub fn parents(&self, id: OpId) -> Vec<OpId> {
        self.edges
            .iter()
            .filter(|&&(_, c)| c == id.0)
            .map(|&(p, _)| OpId(p))
            .collect()
    }

    /// Direct children of `id`.
    pub fn children(&self, id: OpId) -> Vec<OpId> {
        self.children[id.0].iter().map(|&c| OpId(c)).collect()
    }

    /// Ancestor closure of `id` (excluding `id`).
    pub fn ancestors(&self, id: OpId) -> BitSet {
        reach::ancestors(&self.graph(), id.0)
    }

    /// Descendant closure of `id` (excluding `id`).
    pub fn descendants(&self, id: OpId) -> BitSet {
        reach::descendants(&self.graph(), id.0)
    }

    /// Ids of the indeterminate operations.
    pub fn indeterminate_ops(&self) -> Vec<OpId> {
        self.iter()
            .filter(|(_, o)| o.is_indeterminate())
            .map(|(i, _)| i)
            .collect()
    }

    /// Sum of minimum durations over all operations — a horizon bound used
    /// for big-M constants and sanity checks.
    pub fn total_min_duration(&self) -> u64 {
        self.ops.iter().map(|o| o.duration().min_duration()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Duration;
    use mfhls_graph::rng::SplitMix64;
    use mfhls_graph::topo;

    fn op(name: &str) -> Operation {
        Operation::new(name).with_duration(Duration::fixed(1))
    }

    #[test]
    fn build_and_navigate() {
        let mut a = Assay::new("t");
        let x = a.add_op(op("x"));
        let y = a.add_op(op("y"));
        let z = a.add_op(op("z"));
        a.add_dependency(x, y).unwrap();
        a.add_dependency(x, z).unwrap();
        a.add_dependency(y, z).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.children(x), vec![y, z]);
        assert_eq!(a.parents(z), vec![x, y]);
        assert_eq!(a.ancestors(z).iter().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(a.descendants(x).iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn rejects_cycles() {
        let mut a = Assay::new("t");
        let x = a.add_op(op("x"));
        let y = a.add_op(op("y"));
        a.add_dependency(x, y).unwrap();
        assert_eq!(a.add_dependency(y, x), Err(CoreError::CyclicAssay));
        // The failed edge must not linger.
        assert_eq!(a.dependencies().count(), 1);
    }

    #[test]
    fn rejects_self_dependency() {
        let mut a = Assay::new("t");
        let x = a.add_op(op("x"));
        assert!(a.add_dependency(x, x).is_err());
    }

    #[test]
    fn rejects_unknown_ids() {
        let mut a = Assay::new("t");
        let x = a.add_op(op("x"));
        assert_eq!(a.add_dependency(x, OpId(5)), Err(CoreError::UnknownOp(5)));
    }

    #[test]
    fn cycle_check_matches_a_full_acyclicity_test() {
        // Random edge sequences, duplicates and self-loops included: every
        // edge is accepted or rejected exactly as re-checking the whole
        // graph for acyclicity would decide.
        for seed in 0..300u64 {
            let mut rng = SplitMix64::seed_from_u64(0xDA6_0000 ^ seed);
            let n = rng.gen_index(1, 24);
            let mut a = Assay::new("t");
            for k in 0..n {
                a.add_op(op(&format!("o{k}")));
            }
            let mut accepted: Vec<(usize, usize)> = Vec::new();
            for _ in 0..rng.gen_index(0, 4 * n) {
                let (p, c) = (rng.gen_index(0, n), rng.gen_index(0, n));
                let mut with = accepted.clone();
                with.push((p, c));
                // The old check: self-loops first, then a full topological sort.
                let acyclic =
                    p != c && topo::is_acyclic(&Digraph::from_edges(n, with.iter().copied()));
                match a.add_dependency(OpId(p), OpId(c)) {
                    Ok(()) => {
                        assert!(acyclic, "seed {seed}: accepted cycle-closing {p}->{c}");
                        accepted = with;
                    }
                    Err(e) => {
                        assert_eq!(e, CoreError::CyclicAssay);
                        assert!(!acyclic, "seed {seed}: rejected acyclic {p}->{c}");
                    }
                }
            }
            let edges: Vec<(usize, usize)> = a.dependencies().map(|(p, c)| (p.0, c.0)).collect();
            assert_eq!(edges, accepted, "seed {seed}");
            for id in a.op_ids() {
                let expected: Vec<OpId> = accepted
                    .iter()
                    .filter(|&&(p, _)| p == id.0)
                    .map(|&(_, c)| OpId(c))
                    .collect();
                assert_eq!(a.children(id), expected, "seed {seed}");
            }
        }
    }

    #[test]
    fn building_a_long_chain_is_linear() {
        // The oversized admission line is a 1200-op assay: adding each
        // chain edge searches only the (empty) descendants of the new
        // child instead of re-sorting the whole graph.
        let n = 1200;
        let mut a = Assay::new("chain");
        let ids: Vec<OpId> = (0..n).map(|k| a.add_op(op(&format!("o{k}")))).collect();
        let mut expanded = 0;
        for w in ids.windows(2) {
            expanded += a.search_forward(w[1].0, w[0].0).1;
            a.add_dependency(w[0], w[1]).unwrap();
        }
        assert_eq!(expanded, 0);
        assert_eq!(a.dependencies().count(), n - 1);
        // Closing the chain into a cycle walks it once, not once per edge.
        let (found, walked) = a.search_forward(ids[0].0, ids[n - 1].0);
        assert!(found);
        assert_eq!(walked, n - 1);
        assert_eq!(
            a.add_dependency(ids[n - 1], ids[0]),
            Err(CoreError::CyclicAssay)
        );
    }

    #[test]
    fn indeterminate_listing() {
        let mut a = Assay::new("t");
        a.add_op(op("fixed"));
        let i = a.add_op(Operation::new("capture").with_duration(Duration::at_least(3)));
        assert_eq!(a.indeterminate_ops(), vec![i]);
    }

    #[test]
    fn total_duration_horizon() {
        let mut a = Assay::new("t");
        a.add_op(Operation::new("a").with_duration(Duration::fixed(5)));
        a.add_op(Operation::new("b").with_duration(Duration::at_least(7)));
        assert_eq!(a.total_min_duration(), 12);
    }
}
