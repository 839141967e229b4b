//! Layer-solution memoization for progressive re-synthesis.
//!
//! Re-synthesis (§3.2) repeatedly re-solves per-layer scheduling problems;
//! across iterations some of those sub-problems are *structurally
//! identical* — same device pool, same inherited paths, same transport
//! estimates. Each [`Synthesizer::run_seeded`](crate::Synthesizer::run_seeded)
//! call keeps a memo that maps the structural identity of a sub-problem to
//! its solved [`LayerSolution`], so a revisit skips the solver entirely.
//!
//! Because the memo never outlives a run, everything constant within a run
//! (the assay, the layering, weights, costs, the solver configuration, the
//! device budget, the binding mode) is deliberately *not* part of the key.
//! The key captures exactly the inputs that vary between passes:
//!
//! * the layer index (which fixes the op set under a fixed layering — the
//!   ops are still stored verbatim as a guard),
//! * the inherited device pool and its bindability mask,
//! * the transport paths accumulated by earlier layers,
//! * cross-layer parent placements, and
//! * the per-op transport-time estimates (these change whenever transport
//!   refinement changes an op's estimate).
//!
//! # Reading through to a backing
//!
//! A run may be handed a [`CacheBacking`] that outlives it (see
//! [`Synthesizer::with_shared_cache`](crate::Synthesizer::with_shared_cache)):
//! a miss in the run's own map reads through to the backing, and a fresh
//! solve is written behind to it. The backing scopes every [`LayerKey`]
//! with the run's [`CacheContext`] — a canonical fingerprint of everything
//! the per-run key omits (the full assay structure and the
//! solver-relevant configuration) — so entries of distinct assays or
//! configs can never alias. `mfhls-store`'s persistent store is the
//! backing the service attaches; [`SharedLayerCache`] is a bounded
//! in-memory one. A run without a backing builds no context.
//!
//! The three lookup outcomes are counted separately ([`CacheCounters`]):
//! hits in the run's own map, fills from the backing, and misses.
//!
//! # Canonical layer signatures
//!
//! [`CanonicalLayerKey`] is a self-contained encoding of one layer
//! sub-problem that is independent of the surrounding assay, the layer
//! index and the absolute op IDs: Weisfeiler–Leman colour refinement over
//! the layer's op/device graph, then a canonical reordering, so any
//! op/device ID permutation of the same structure yields the same bytes.
//! No cache is keyed on it: progressive re-synthesis poses every layer
//! again with the same op IDs, so the exact key already catches every
//! repeat (DESIGN §14). The generator's oracle P compares these bytes
//! across op permutations of an assay.
//!
//! All built-in solvers are deterministic functions of the
//! [`LayerProblem`](crate::LayerProblem), so replaying a cached solution is
//! observationally identical to re-solving — schedules are bitwise equal
//! with either cache on or off, whatever its occupancy.

use crate::{LayerProblem, LayerSolution, OpId, SynthConfig};
use mfhls_chip::DeviceConfig;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Version of what the built-in solvers return for a given problem,
/// folded into the [`CacheContext`] every stored solution is scoped by
/// (and into the [`CanonicalLayerKey`] header, `clk<epoch>`). Persisted
/// stores outlive the binary that wrote them, and the key does not
/// otherwise say which solver produced an entry, so without it a new
/// build would replay an old build's solutions and counters.
///
/// **Bump it whenever a solver's solution or its counters change for the
/// same problem.** Records written under an earlier epoch still load,
/// but no key of this build can match them, so those layers start cold.
///
/// Epoch 1 covers every release through 0.12.0. Epoch 2 (0.13.0): the
/// portfolio's exact legs skip models the pivot-work budget cannot
/// search, which zeroes their `ilp_solves`/`pivots` on those layers.
/// Epoch 3 (0.24.0): branch-and-bound measures each strong-branching
/// probe from its node's LP objective and starts probes only within
/// their share of the search's pivots, which moves the exact search's
/// counters and, on budget-bound or tied layers, its solutions.
pub const SOLVER_EPOCH: u32 = 3;

/// A layer-solution tier shared across runs: a run reads through to it on
/// a miss in its own memo and writes behind to it after a fresh solve.
///
/// Implementations must be *pure accelerators*: `fetch` either returns a
/// solution previously passed to `persist` for exactly that
/// `(context, key)` pair, or `None`. They must never fail a lookup — a
/// broken backing store degrades to always-`None`/no-op, surfacing
/// problems through its own diagnostics, so a run (and every response
/// built from it) behaves identically whether the backing is healthy,
/// degraded, or absent. `mfhls-store` provides the on-disk implementation,
/// [`SharedLayerCache`] a bounded in-memory one.
pub trait CacheBacking: Send + Sync + std::fmt::Debug {
    /// Returns the persisted solution for `(context, key)`, if any.
    fn fetch(&self, context: &CacheContext, key: &LayerKey) -> Option<LayerSolution>;

    /// Records `(context, key) -> solution` for future processes. Must be
    /// infallible from the caller's perspective (failures are the
    /// implementation's to swallow and report out-of-band).
    fn persist(&self, context: &CacheContext, key: &LayerKey, solution: &LayerSolution);
}

/// The structural identity of one per-layer sub-problem; see the module
/// docs for what is (and is not) part of the key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LayerKey(LayerKeyParts);

impl LayerKey {
    /// Extracts the structural key of `problem` as posed for `layer`.
    pub fn of(problem: &LayerProblem<'_>, layer: usize) -> LayerKey {
        LayerKey(LayerKeyParts {
            layer,
            ops: problem.ops.clone(),
            devices: problem.devices.clone(),
            bindable: problem.bindable.clone(),
            existing_paths: problem.existing_paths.iter().copied().collect(),
            cross_inputs: problem.cross_inputs.clone(),
            transport: problem
                .ops
                .iter()
                .map(|&o| problem.transport.of(o))
                .collect(),
        })
    }

    /// The key's constituent fields, borrowed, for persistence layers that
    /// serialise it ([`CacheBacking`] implementations).
    pub fn parts(&self) -> &LayerKeyParts {
        &self.0
    }

    /// Reassembles a key from fields previously read through
    /// [`LayerKey::parts`]. Round-trips exactly: the reassembled key is
    /// `==` (and hashes equal) to the original.
    pub fn from_parts(parts: LayerKeyParts) -> LayerKey {
        LayerKey(parts)
    }
}

/// The constituent fields of a [`LayerKey`], exposed (fields public) so a
/// [`CacheBacking`] implementation outside this crate can serialise and
/// reassemble keys without this crate committing to a wire format.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LayerKeyParts {
    /// Layer index within the layering.
    pub layer: usize,
    /// Operations of the layer, in layering order.
    pub ops: Vec<OpId>,
    /// Inherited device pool.
    pub devices: Vec<DeviceConfig>,
    /// Bindability mask over `devices`.
    pub bindable: Vec<bool>,
    /// Transport paths accumulated by earlier layers.
    pub existing_paths: Vec<(usize, usize)>,
    /// Cross-layer parent placements.
    pub cross_inputs: Vec<(OpId, usize)>,
    /// Per-op transport-time estimates, parallel to `ops`.
    pub transport: Vec<u64>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 — the same dependency-free hash as `mfhls_svc::shard` and
/// the store's record checksums, duplicated here so `mfhls-core` stays
/// dependency-free.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Incremental FNV-1a signature accumulator for the WL refinement rounds.
#[derive(Clone, Copy)]
struct Sig(u64);

impl Sig {
    fn new(seed: u64) -> Sig {
        let mut s = Sig(FNV_OFFSET);
        s.push(seed);
        s
    }

    fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a sorted copy of `values` — the multiset of neighbour
    /// colours, order-independent by construction.
    fn push_multiset(&mut self, values: &mut Vec<u64>) {
        values.sort_unstable();
        self.push(values.len() as u64);
        for &v in values.iter() {
            self.push(v);
        }
        values.clear();
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// The permutation-invariant signature of one layer sub-problem,
/// independent of the surrounding assay, the layer index, and the
/// absolute op/device IDs. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalLayerKey {
    /// WL-canonicalised encoding.
    canon: Vec<u8>,
}

impl CanonicalLayerKey {
    /// Extracts the canonical signature of `problem`. `solver_fingerprint`
    /// pins the solver kind and its parameters (e.g.
    /// `format!("{:?}", config.solver)`) — the only solver-relevant input
    /// the [`LayerProblem`] itself does not carry besides the
    /// [`SOLVER_EPOCH`], which the header adds.
    pub fn of(problem: &LayerProblem<'_>, solver_fingerprint: &str) -> CanonicalLayerKey {
        let n = problem.ops.len();
        let nd = problem.devices.len();
        let pos: HashMap<OpId, usize> = problem
            .ops
            .iter()
            .enumerate()
            .map(|(i, &o)| (o, i))
            .collect();
        // Defensive: a reference outside the layer (never produced by the
        // synthesis loop) maps past the end and simply never matches.
        let at = |o: &OpId| pos.get(o).copied().unwrap_or(n);

        // Scalar header: every solver-relevant input that is not per-op or
        // per-device.
        let mut header = String::new();
        let _ = write!(
            header,
            "clk{SOLVER_EPOCH}|s:{solver_fingerprint}|md{}|w{:?}|c{:?}|co{}|n{n}|d{nd}|",
            problem.max_devices, problem.weights, problem.costs, problem.component_oriented,
        );

        // Per-op / per-device attribute strings. Display names are
        // excluded — they never influence solving.
        let attrs: Vec<String> = problem
            .ops
            .iter()
            .map(|&o| {
                let op = problem.assay.op(o);
                format!(
                    "{:?}/{:?}/t{}",
                    op.requirements(),
                    op.duration(),
                    problem.transport.of(o)
                )
            })
            .collect();
        let dattrs: Vec<String> = problem
            .devices
            .iter()
            .enumerate()
            .map(|(j, d)| {
                format!(
                    "{d:?}/b{}",
                    problem.bindable.get(j).copied().unwrap_or(true)
                )
            })
            .collect();

        // Relations, as positions: internal deps in assay insertion order
        // (the order the solver's context scan sees them), cross-layer
        // inputs in problem order, paths in their canonical sorted order.
        let deps: Vec<(usize, usize)> = problem
            .internal_deps()
            .iter()
            .map(|(p, c)| (at(p), at(c)))
            .collect();
        let cross: Vec<(usize, usize)> = problem
            .cross_inputs
            .iter()
            .map(|(c, d)| (at(c), *d))
            .collect();
        let paths: Vec<(usize, usize)> = problem.existing_paths.iter().copied().collect();

        // WL colour refinement over the op/device graph, then a canonical
        // reordering by final colour.
        let mut osig: Vec<u64> = attrs.iter().map(|a| fnv1a64(a.as_bytes())).collect();
        let mut dsig: Vec<u64> = dattrs.iter().map(|a| fnv1a64(a.as_bytes())).collect();
        let mut op_parents: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut op_children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(p, c) in &deps {
            if p < n && c < n {
                op_parents[c].push(p);
                op_children[p].push(c);
            }
        }
        let mut op_feeds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut dev_feeds: Vec<Vec<usize>> = vec![Vec::new(); nd];
        for &(c, d) in &cross {
            if c < n && d < nd {
                op_feeds[c].push(d);
                dev_feeds[d].push(c);
            }
        }
        let mut dev_partners: Vec<Vec<usize>> = vec![Vec::new(); nd];
        for &(a, b) in &paths {
            if a < nd && b < nd {
                dev_partners[a].push(b);
                dev_partners[b].push(a);
            }
        }

        let mut colours = distinct_colours(&osig, &dsig);
        let mut scratch: Vec<u64> = Vec::new();
        for _ in 0..(n + nd).max(1) {
            let next_o: Vec<u64> = (0..n)
                .map(|i| {
                    let mut sig = Sig::new(osig[i]);
                    scratch.extend(op_parents[i].iter().map(|&p| osig[p]));
                    sig.push_multiset(&mut scratch);
                    scratch.extend(op_children[i].iter().map(|&c| osig[c]));
                    sig.push_multiset(&mut scratch);
                    scratch.extend(op_feeds[i].iter().map(|&d| dsig[d]));
                    sig.push_multiset(&mut scratch);
                    sig.finish()
                })
                .collect();
            let next_d: Vec<u64> = (0..nd)
                .map(|j| {
                    let mut sig = Sig::new(dsig[j]);
                    scratch.extend(dev_feeds[j].iter().map(|&o| osig[o]));
                    sig.push_multiset(&mut scratch);
                    scratch.extend(dev_partners[j].iter().map(|&d| dsig[d]));
                    sig.push_multiset(&mut scratch);
                    sig.finish()
                })
                .collect();
            osig = next_o;
            dsig = next_d;
            let refined = distinct_colours(&osig, &dsig);
            if refined == colours {
                break;
            }
            colours = refined;
        }

        // Canonical orders: by final colour, original position as the
        // tie-break. WL-equivalent nodes are indistinguishable by every
        // encoded attribute and relation, so the tie-break choice cannot
        // change the emitted bytes for automorphic twins; genuinely
        // distinct-but-WL-equal nodes at worst give two renumberings of
        // one layer different bytes, never two different layers the same.
        let mut oorder: Vec<usize> = (0..n).collect();
        oorder.sort_by_key(|&i| (osig[i], i));
        let mut orank = vec![0usize; n];
        for (r, &i) in oorder.iter().enumerate() {
            orank[i] = r;
        }
        let mut dorder: Vec<usize> = (0..nd).collect();
        dorder.sort_by_key(|&j| (dsig[j], j));
        let mut drank = vec![0usize; nd];
        for (r, &j) in dorder.iter().enumerate() {
            drank[j] = r;
        }

        let mut canon = header;
        for &i in &oorder {
            canon.push_str(&attrs[i]);
            canon.push(';');
        }
        canon.push('|');
        for &j in &dorder {
            canon.push_str(&dattrs[j]);
            canon.push(';');
        }
        canon.push('|');
        let mut cdeps: Vec<(usize, usize)> = deps
            .iter()
            .filter(|&&(p, c)| p < n && c < n)
            .map(|&(p, c)| (orank[p], orank[c]))
            .collect();
        cdeps.sort_unstable();
        for &(p, c) in &cdeps {
            let _ = write!(canon, "e{p}>{c};");
        }
        canon.push('|');
        let mut ccross: Vec<(usize, usize)> = cross
            .iter()
            .filter(|&&(c, d)| c < n && d < nd)
            .map(|&(c, d)| (orank[c], drank[d]))
            .collect();
        ccross.sort_unstable();
        for &(c, d) in &ccross {
            let _ = write!(canon, "x{c}@{d};");
        }
        canon.push('|');
        let mut cpaths: Vec<(usize, usize)> = paths
            .iter()
            .filter(|&&(a, b)| a < nd && b < nd)
            .map(|&(a, b)| {
                let (ra, rb) = (drank[a], drank[b]);
                (ra.min(rb), ra.max(rb))
            })
            .collect();
        cpaths.sort_unstable();
        for &(a, b) in &cpaths {
            let _ = write!(canon, "p{a}-{b};");
        }

        CanonicalLayerKey {
            canon: canon.into_bytes(),
        }
    }

    /// The permutation-invariant encoding.
    pub fn canon_bytes(&self) -> &[u8] {
        &self.canon
    }
}

/// Relabeling-invariant WL colours for every operation of `assay`.
///
/// Seeds each op with its solver-visible attributes (requirements and
/// duration — display names are excluded) and refines over the parent and
/// child colour multisets until the number of distinct colours stops
/// growing. Two ops receive the same colour only if no encoded attribute or
/// dependency context distinguishes them, so the result is invariant under
/// any renaming *or renumbering* of the assay's operations: mapping an op
/// through a permutation maps its colour unchanged.
///
/// Used by [`crate::layer_assay`] to break eviction-cost ties structurally
/// instead of by raw op id, which would make layer membership depend on
/// insertion order. Oracle P checks the result: renumbering an assay's ops
/// must leave the multiset of its layers' [`CanonicalLayerKey`]s unchanged.
pub fn structural_op_colours(assay: &crate::Assay) -> Vec<u64> {
    let n = assay.len();
    let mut sig: Vec<u64> = assay
        .iter()
        .map(|(_, op)| fnv1a64(format!("{:?}/{:?}", op.requirements(), op.duration()).as_bytes()))
        .collect();
    let mut parents: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (p, c) in assay.dependencies() {
        parents[c.index()].push(p.index());
        children[p.index()].push(c.index());
    }
    let mut colours = distinct_colours(&sig, &[]);
    let mut scratch: Vec<u64> = Vec::new();
    for _ in 0..n.max(1) {
        let next: Vec<u64> = (0..n)
            .map(|i| {
                let mut s = Sig::new(sig[i]);
                scratch.extend(parents[i].iter().map(|&p| sig[p]));
                s.push_multiset(&mut scratch);
                scratch.extend(children[i].iter().map(|&c| sig[c]));
                s.push_multiset(&mut scratch);
                s.finish()
            })
            .collect();
        sig = next;
        let refined = distinct_colours(&sig, &[]);
        if refined == colours {
            break;
        }
        colours = refined;
    }
    sig
}

/// Number of distinct WL colours across ops and devices — the refinement
/// fixpoint detector.
fn distinct_colours(osig: &[u64], dsig: &[u64]) -> usize {
    let mut all: Vec<u64> = osig.iter().chain(dsig.iter()).copied().collect();
    all.sort_unstable();
    all.dedup();
    all.len()
}

/// How a layer lookup was satisfied; see [`CacheCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HitClass {
    /// Found in the run's own map.
    Exact,
    /// Filled by reading through to the [`CacheBacking`].
    Store,
}

/// Classified demand-lookup counters. `store_hits` are read-through fills
/// from a [`CacheBacking`] — deliberately *not* folded into the exact
/// hits (a fill asked the backing, the run's own map could not answer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Demand lookups satisfied by the run's own map.
    pub exact_hits: u64,
    /// Demand lookups filled by the backing.
    pub store_hits: u64,
    /// Demand lookups nothing could satisfy.
    pub misses: u64,
}

impl CacheCounters {
    /// Total satisfied lookups across both hit classes.
    pub fn hits(&self) -> u64 {
        self.exact_hits + self.store_hits
    }

    /// Adds `other`'s counts into `self`.
    pub fn absorb(&mut self, other: &CacheCounters) {
        self.exact_hits += other.exact_hits;
        self.store_hits += other.store_hits;
        self.misses += other.misses;
    }
}

/// The canonical fingerprint of everything a [`LayerKey`] deliberately
/// omits because it is constant within one run: the full assay structure
/// and the solver-relevant configuration. A [`CacheBacking`] scopes every
/// key with one of these so entries from different assays or
/// configurations can never alias.
///
/// The encoding runs to kilobytes for a mid-sized assay, so a context
/// hashes it once, when it is built: [`Hash`] writes only that value, and
/// equality compares it before the text.
#[derive(Debug, Clone)]
pub struct CacheContext {
    hash: u64,
    text: Arc<str>,
}

impl PartialEq for CacheContext {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && (Arc::ptr_eq(&self.text, &other.text) || self.text == other.text)
    }
}

impl Eq for CacheContext {}

impl Hash for CacheContext {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl CacheContext {
    /// Builds the context for synthesising `assay` under `config`.
    ///
    /// The encoding covers every input that can change a layer solution
    /// beyond what [`LayerKey`] already captures: each operation's
    /// requirements and duration, the dependency edges, the layering
    /// threshold, the device budget, the objective weights, the cost
    /// model, the solver kind (with its parameters) and the binding mode,
    /// all behind the [`SOLVER_EPOCH`]. Operation display names are
    /// excluded — they never influence solving.
    pub fn of(assay: &crate::Assay, config: &SynthConfig) -> CacheContext {
        let mut s = String::new();
        let _ = write!(
            s,
            "epoch{SOLVER_EPOCH}|cfg:d{} t{} w{:?} c{:?} s{:?} co{}|",
            config.max_devices,
            config.indeterminate_threshold,
            config.weights,
            config.costs,
            config.solver,
            config.component_oriented,
        );
        let _ = write!(s, "tr{:?}|", config.transport);
        for op in assay.op_ids() {
            let o = assay.op(op);
            let _ = write!(
                s,
                "o{}:{:?}/{:?};",
                op.index(),
                o.requirements(),
                o.duration()
            );
        }
        s.push('|');
        for (p, c) in assay.dependencies() {
            let _ = write!(s, "e{}>{};", p.index(), c.index());
        }
        CacheContext::from_canonical(&s)
    }

    /// The canonical encoding, for persistence layers that need to store
    /// the context alongside a key. Two contexts are equal iff these
    /// strings are equal.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// Rebuilds a context from a string previously returned by
    /// [`CacheContext::as_str`]. Round-trips exactly.
    pub fn from_canonical(s: &str) -> CacheContext {
        let mut h = DefaultHasher::new();
        s.hash(&mut h);
        CacheContext {
            hash: h.finish(),
            text: s.into(),
        }
    }
}

/// A bounded, thread-safe, in-memory [`CacheBacking`]: it holds the
/// `capacity` most recently persisted solutions and evicts the oldest
/// first (FIFO by insertion).
#[derive(Debug)]
pub struct SharedLayerCache {
    state: Mutex<SharedState>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct SharedState {
    map: HashMap<CacheContext, HashMap<LayerKey, LayerSolution>>,
    /// Every held entry, oldest first — the eviction order.
    order: VecDeque<(CacheContext, LayerKey)>,
}

impl SharedLayerCache {
    /// Creates a cache bounded to `capacity` entries (min 1).
    pub fn new(capacity: usize) -> SharedLayerCache {
        SharedLayerCache {
            state: Mutex::new(SharedState::default()),
            capacity: capacity.max(1),
        }
    }

    /// Number of cached layer solutions.
    pub fn len(&self) -> usize {
        lock_or_recover(&self.state).order.len()
    }

    /// Whether the cache holds no solutions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl CacheBacking for SharedLayerCache {
    fn fetch(&self, context: &CacheContext, key: &LayerKey) -> Option<LayerSolution> {
        lock_or_recover(&self.state)
            .map
            .get(context)?
            .get(key)
            .cloned()
    }

    fn persist(&self, context: &CacheContext, key: &LayerKey, solution: &LayerSolution) {
        let mut guard = lock_or_recover(&self.state);
        let st = &mut *guard;
        let entries = st.map.entry(context.clone()).or_default();
        if entries.contains_key(key) {
            return;
        }
        entries.insert(key.clone(), solution.clone());
        st.order.push_back((context.clone(), key.clone()));
        while st.order.len() > self.capacity {
            let Some((context, key)) = st.order.pop_front() else {
                break;
            };
            if let Some(entries) = st.map.get_mut(&context) {
                entries.remove(&key);
                if entries.is_empty() {
                    st.map.remove(&context);
                }
            }
        }
    }
}

/// The layer memo of one synthesis run: the run's own map, read through
/// to an optional [`CacheBacking`] scoped by the run's [`CacheContext`].
/// The run keeps its own classified counters, so
/// [`IterationStats`](crate::IterationStats) reports per-run figures.
#[derive(Debug, Default)]
pub(crate) struct RunCache {
    map: HashMap<LayerKey, LayerSolution>,
    backing: Option<(Arc<dyn CacheBacking>, CacheContext)>,
    counters: CacheCounters,
}

impl RunCache {
    /// A memo for synthesising `assay` under `config`, reading through to
    /// `backing` when one is given.
    pub(crate) fn new(
        backing: Option<&Arc<dyn CacheBacking>>,
        assay: &crate::Assay,
        config: &SynthConfig,
    ) -> RunCache {
        RunCache {
            backing: backing.map(|b| (Arc::clone(b), CacheContext::of(assay, config))),
            ..RunCache::default()
        }
    }

    /// Looks up a solution, counting the classified outcome. A fill from
    /// the backing joins the run's own map.
    pub(crate) fn lookup(&mut self, key: &LayerKey) -> Option<(LayerSolution, HitClass)> {
        if let Some(sol) = self.map.get(key) {
            self.counters.exact_hits += 1;
            return Some((sol.clone(), HitClass::Exact));
        }
        if let Some((backing, context)) = &self.backing {
            if let Some(sol) = backing.fetch(context, key) {
                self.counters.store_hits += 1;
                self.map.insert(key.clone(), sol.clone());
                return Some((sol, HitClass::Store));
            }
        }
        self.counters.misses += 1;
        None
    }

    /// Stores a freshly solved solution, writing it behind to the backing.
    pub(crate) fn insert(&mut self, key: LayerKey, solution: LayerSolution) {
        if let Some((backing, context)) = &self.backing {
            backing.persist(context, &key, &solution);
        }
        self.map.insert(key, solution);
    }

    /// Returns this run's counters since the previous call and resets
    /// them — one call per re-synthesis iteration gives per-iteration
    /// figures.
    pub(crate) fn take_counters(&mut self) -> CacheCounters {
        std::mem::take(&mut self.counters)
    }
}

/// Locks `mutex`, recovering from poison: a poisoned mutex means a solver
/// panicked mid-operation, but no guarded map is ever left partially
/// mutated, so keep serving.
pub(crate) fn lock_or_recover<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Assay, Duration, LayerSolver, Operation, TransportConfig, TransportTimes, Weights,
    };
    use mfhls_chip::CostModel;
    use std::collections::BTreeSet;

    fn assay() -> Assay {
        let mut a = Assay::new("t");
        a.add_op(Operation::new("x").with_duration(Duration::fixed(5)));
        a.add_op(Operation::new("y").with_duration(Duration::fixed(3)));
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
            max_devices: 4,
            transport,
            weights: Weights::default(),
            costs,
            existing_paths: BTreeSet::new(),
            cross_inputs: vec![],
            component_oriented: true,
        }
    }

    #[test]
    fn identical_problems_share_a_key() {
        let a = assay();
        let t = TransportTimes::initial(&a, &TransportConfig::default());
        let costs = CostModel::default();
        let k1 = LayerKey::of(&problem(&a, &t, &costs), 0);
        let k2 = LayerKey::of(&problem(&a, &t, &costs), 0);
        assert_eq!(k1, k2);
    }

    #[test]
    fn key_distinguishes_layer_paths_and_transport() {
        let a = assay();
        let t = TransportTimes::initial(&a, &TransportConfig::default());
        let costs = CostModel::default();
        let base = LayerKey::of(&problem(&a, &t, &costs), 0);
        assert_ne!(base, LayerKey::of(&problem(&a, &t, &costs), 1));
        let mut with_path = problem(&a, &t, &costs);
        with_path.existing_paths.insert((0, 1));
        assert_ne!(base, LayerKey::of(&with_path, 0));
        let device_of = vec![0usize, 0];
        let refined = TransportTimes::refined(&a, &TransportConfig::default(), &device_of);
        let refined_problem = problem(&a, &refined, &costs);
        let refined_key = LayerKey::of(&refined_problem, 0);
        // Refinement with everything co-located drops transport estimates.
        assert_ne!(base, refined_key);
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let a = assay();
        let t = TransportTimes::initial(&a, &TransportConfig::default());
        let costs = CostModel::default();
        let p = problem(&a, &t, &costs);
        let key = LayerKey::of(&p, 0);
        // Without a backing, a run builds no context.
        let mut cache = RunCache::new(None, &a, &SynthConfig::default());
        assert!(cache.backing.is_none());
        assert!(cache.lookup(&key).is_none());
        let sol = crate::solver::SolverKind::default().solve(&p).unwrap();
        cache.insert(key.clone(), sol.clone());
        assert_eq!(cache.lookup(&key), Some((sol.clone(), HitClass::Exact)));
        assert_eq!(
            cache.take_counters(),
            CacheCounters {
                exact_hits: 1,
                misses: 1,
                ..CacheCounters::default()
            }
        );
        assert_eq!(cache.take_counters(), CacheCounters::default());
    }

    #[test]
    fn context_distinguishes_assays_and_configs() {
        let a = assay();
        let config = SynthConfig::default();
        assert_eq!(CacheContext::of(&a, &config), CacheContext::of(&a, &config));
        let mut b = assay();
        b.add_op(Operation::new("z").with_duration(Duration::fixed(9)));
        assert_ne!(CacheContext::of(&a, &config), CacheContext::of(&b, &config));
        let tighter = SynthConfig::builder().max_devices(3).build().unwrap();
        assert_ne!(
            CacheContext::of(&a, &config),
            CacheContext::of(&a, &tighter)
        );
        // Equal contexts hash equal, built twice or read back from their
        // canonical text, as the store does.
        let hash = |c: &CacheContext| {
            let mut h = DefaultHasher::new();
            c.hash(&mut h);
            h.finish()
        };
        let ctx = CacheContext::of(&a, &config);
        let again = CacheContext::of(&a, &config);
        let read = CacheContext::from_canonical(ctx.as_str());
        assert_eq!((hash(&ctx), hash(&read)), (hash(&again), hash(&again)));
        assert_eq!(read, ctx);
        assert_eq!(read.as_str(), ctx.as_str());
        // One op's duration tells two contexts apart.
        let mut longer = Assay::new("t");
        longer.add_op(Operation::new("x").with_duration(Duration::fixed(6)));
        longer.add_op(Operation::new("y").with_duration(Duration::fixed(3)));
        let other = CacheContext::of(&longer, &config);
        assert_ne!(other, ctx);
        assert_ne!(CacheContext::from_canonical(other.as_str()), read);
        // The store persists these bytes: a change to them must come with
        // a `SOLVER_EPOCH` bump or a store migration.
        assert_eq!(
            ctx.as_str(),
            concat!(
                "epoch3|cfg:d25 t10 wWeights { time: 20, area: 6, processing: 3, paths: 12 } ",
                "cCostModel { ring_area: [40, 24, 16, 18446744073709551615], ",
                "chamber_area: [18446744073709551615, 12, 8, 4], ",
                "ring_processing: [10, 8, 6, 18446744073709551615], ",
                "chamber_processing: [18446744073709551615, 5, 4, 3], ",
                "accessory_processing: [6, 5, 8, 4, 7] } ",
                "sHeuristic { improvement_passes: 2 } cotrue|",
                "trTransportConfig { initial: 3, progression: Progression { min: 1, max: 5, terms: 5 } }|",
                "o0:Requirements { container: None, capacity: None, accessories: AccessorySet(0) }/Fixed(5);",
                "o1:Requirements { container: None, capacity: None, accessories: AccessorySet(0) }/Fixed(3);|",
            )
        );
    }

    #[test]
    fn shared_cache_scopes_by_context_and_evicts_fifo() {
        let a = assay();
        let t = TransportTimes::initial(&a, &TransportConfig::default());
        let costs = CostModel::default();
        let p = problem(&a, &t, &costs);
        let sol = crate::solver::SolverKind::default().solve(&p).unwrap();
        let config = SynthConfig::default();
        let counted = |exact_hits, store_hits, misses| CacheCounters {
            exact_hits,
            store_hits,
            misses,
        };

        let shared = Arc::new(SharedLayerCache::new(2));
        let backing: Arc<dyn CacheBacking> = shared.clone();
        let key0 = LayerKey::of(&p, 0);
        let mut first = RunCache::new(Some(&backing), &a, &config);
        assert!(first.lookup(&key0).is_none());
        first.insert(key0.clone(), sol.clone());
        assert_eq!(first.lookup(&key0), Some((sol.clone(), HitClass::Exact)));
        assert_eq!(first.take_counters(), counted(1, 0, 1));

        // A later run of the same assay reads the entry through once; its
        // repeat is then the run's own hit.
        let mut second = RunCache::new(Some(&backing), &a, &config);
        assert_eq!(second.lookup(&key0), Some((sol.clone(), HitClass::Store)));
        assert_eq!(second.lookup(&key0), Some((sol.clone(), HitClass::Exact)));
        assert_eq!(second.take_counters(), counted(1, 1, 0));

        // A different context never sees the entry.
        let mut b = assay();
        b.add_op(Operation::new("z").with_duration(Duration::fixed(9)));
        let mut other = RunCache::new(Some(&backing), &b, &config);
        assert!(other.lookup(&key0).is_none());
        assert_eq!(other.take_counters(), counted(0, 0, 1));

        // FIFO eviction keeps the bound: capacity 2, three entries. The
        // oldest entry (key0) was the victim; a re-persisted entry changes
        // nothing.
        first.insert(LayerKey::of(&p, 1), sol.clone());
        first.insert(LayerKey::of(&p, 2), sol.clone());
        let ctx = CacheContext::of(&a, &config);
        shared.persist(&ctx, &LayerKey::of(&p, 2), &sol);
        assert_eq!(shared.len(), 2);
        assert_eq!(shared.fetch(&ctx, &key0), None);
        for layer in [1, 2] {
            assert_eq!(
                shared.fetch(&ctx, &LayerKey::of(&p, layer)),
                Some(sol.clone())
            );
        }
    }

    /// A two-op single-layer assay; swapping `d0` and `d1` poses the same
    /// layer under renumbered ops.
    fn two_op_assay(d0: u64, d1: u64) -> Assay {
        let mut a = Assay::new("t");
        a.add_op(Operation::new("p").with_duration(Duration::fixed(d0)));
        a.add_op(Operation::new("q").with_duration(Duration::fixed(d1)));
        a
    }

    #[test]
    fn canonical_key_is_permutation_invariant_and_gated() {
        let t_cfg = TransportConfig::default();
        let costs = CostModel::default();
        let a = two_op_assay(5, 3);
        let b = two_op_assay(3, 5); // same multiset, swapped positions
        let ta = TransportTimes::initial(&a, &t_cfg);
        let tb = TransportTimes::initial(&b, &t_cfg);
        let ka = CanonicalLayerKey::of(&problem(&a, &ta, &costs), "h");
        let kb = CanonicalLayerKey::of(&problem(&b, &tb, &costs), "h");
        assert_eq!(ka.canon_bytes(), kb.canon_bytes(), "isomorphic layers");
        // A structurally different layer gets a different canon address.
        let c = two_op_assay(5, 4);
        let tc = TransportTimes::initial(&c, &t_cfg);
        let kc = CanonicalLayerKey::of(&problem(&c, &tc, &costs), "h");
        assert_ne!(ka.canon_bytes(), kc.canon_bytes());
        // The solver fingerprint and the epoch header gate the address.
        let ka_ilp = CanonicalLayerKey::of(&problem(&a, &ta, &costs), "ilp");
        assert_ne!(ka.canon_bytes(), ka_ilp.canon_bytes());
        assert!(ka
            .canon_bytes()
            .starts_with(format!("clk{SOLVER_EPOCH}|s:h|").as_bytes()));
    }
}
