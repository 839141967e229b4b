//! Layer-solution memoization for progressive re-synthesis — per-run and
//! shared across runs.
//!
//! Re-synthesis (§3.2) repeatedly re-solves per-layer scheduling problems;
//! across iterations some of those sub-problems are *structurally
//! identical* — same device pool, same inherited paths, same transport
//! estimates. A [`LayerCache`] lives for the duration of one
//! [`Synthesizer::run_seeded`](crate::Synthesizer::run_seeded) call and maps
//! the structural identity of a sub-problem to its solved
//! [`LayerSolution`], so a revisit skips the solver entirely.
//!
//! Because the per-run cache never outlives a run, everything constant
//! within a run (the assay, the layering, weights, costs, the solver
//! configuration, the device budget, the binding mode) is deliberately
//! *not* part of the key. The key captures exactly the inputs that vary
//! between passes:
//!
//! * the layer index (which fixes the op set under a fixed layering — the
//!   ops are still stored verbatim as a guard),
//! * the inherited device pool and its bindability mask,
//! * the transport paths accumulated by earlier layers,
//! * cross-layer parent placements, and
//! * the per-op transport-time estimates (these change whenever transport
//!   refinement changes an op's estimate).
//!
//! # Cross-request sharing
//!
//! A long-lived synthesis service (`mfhls-svc`) sees the same assays over
//! and over; a cache that dies with each run wastes exactly the workload
//! that dominates. A [`SharedLayerCache`] outlives individual runs: it is
//! handed to a [`Synthesizer`](crate::Synthesizer) behind an `Arc` (see
//! [`Synthesizer::with_shared_cache`](crate::Synthesizer::with_shared_cache))
//! and re-scopes every [`LayerKey`] with a [`CacheContext`] — a canonical
//! fingerprint of everything the per-run key deliberately omits (the full
//! assay structure and the solver-relevant configuration). Two runs share
//! entries iff their contexts are byte-identical, so distinct assays or
//! configs can never alias.
//!
//! The shared cache is bounded: insertions beyond the configured capacity
//! evict the oldest entry (FIFO by a global insertion stamp — a
//! deterministic function of the insertion *sequence*, though the sequence
//! itself depends on request execution order). Hit/miss/eviction counters
//! are exposed via [`SharedLayerCache::stats`] and surfaced as `mfhls-obs`
//! counters by the service.
//!
//! Lookups consult the in-memory map first, then the [`CacheBacking`]
//! (store read-through). The three outcomes are counted separately
//! ([`CacheCounters`]): exact hits, store fills, and misses.
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
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
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
pub const SOLVER_EPOCH: u32 = 2;

/// A persistence layer behind a [`SharedLayerCache`]: the cache reads
/// through to it on a miss and writes behind to it on insert.
///
/// Implementations must be *pure accelerators*: `fetch` either returns a
/// solution previously passed to `persist` for exactly that
/// `(context, key)` pair, or `None`. They must never fail a lookup — a
/// broken backing store degrades to always-`None`/no-op, surfacing
/// problems through its own diagnostics, so the cache (and every response
/// built from it) behaves identically whether the backing is healthy,
/// degraded, or absent. `mfhls-store` provides the on-disk implementation.
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
pub struct LayerKey {
    layer: usize,
    ops: Vec<OpId>,
    devices: Vec<DeviceConfig>,
    bindable: Vec<bool>,
    existing_paths: Vec<(usize, usize)>,
    cross_inputs: Vec<(OpId, usize)>,
    transport: Vec<u64>,
}

impl LayerKey {
    /// Extracts the structural key of `problem` as posed for `layer`.
    pub fn of(problem: &LayerProblem<'_>, layer: usize) -> LayerKey {
        LayerKey {
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
        }
    }

    /// Decomposes the key into its constituent fields, for persistence
    /// layers that need to serialise it ([`CacheBacking`] implementations).
    pub fn to_parts(&self) -> LayerKeyParts {
        LayerKeyParts {
            layer: self.layer,
            ops: self.ops.clone(),
            devices: self.devices.clone(),
            bindable: self.bindable.clone(),
            existing_paths: self.existing_paths.clone(),
            cross_inputs: self.cross_inputs.clone(),
            transport: self.transport.clone(),
        }
    }

    /// Reassembles a key from fields previously produced by
    /// [`LayerKey::to_parts`]. Round-trips exactly: the reassembled key is
    /// `==` (and hashes equal) to the original.
    pub fn from_parts(parts: LayerKeyParts) -> LayerKey {
        LayerKey {
            layer: parts.layer,
            ops: parts.ops,
            devices: parts.devices,
            bindable: parts.bindable,
            existing_paths: parts.existing_paths,
            cross_inputs: parts.cross_inputs,
            transport: parts.transport,
        }
    }
}

/// The constituent fields of a [`LayerKey`], exposed (fields public) so a
/// [`CacheBacking`] implementation outside this crate can serialise and
/// reassemble keys without this crate committing to a wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// FNV-1a 64 — the same dependency-free hash the serve plane's shard
/// router and the store's record checksums use, duplicated here so
/// `mfhls-core` stays dependency-free.
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

/// How a cache lookup was satisfied; see [`CacheCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitClass {
    /// Found under the exact `(context, key)` pair.
    Exact,
    /// Filled by reading through to the [`CacheBacking`].
    Store,
}

/// Classified demand-lookup counters. `store_hits` are read-through fills
/// from the persistent backing — deliberately *not* folded into the
/// in-memory hit counts (a fill did disk work and says nothing about the
/// in-memory cache's effectiveness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Demand lookups satisfied by the exact index.
    pub exact_hits: u64,
    /// Demand lookups filled by the persistent backing.
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

    fn count(&mut self, class: HitClass) {
        match class {
            HitClass::Exact => self.exact_hits += 1,
            HitClass::Store => self.store_hits += 1,
        }
    }
}

/// A per-run memo table of solved layer sub-problems with hit/miss
/// accounting. See the module docs for the key contract.
#[derive(Debug, Default)]
pub struct LayerCache {
    map: HashMap<LayerKey, LayerSolution>,
    counters: CacheCounters,
}

impl LayerCache {
    /// Creates an empty cache.
    pub fn new() -> LayerCache {
        LayerCache::default()
    }

    /// Looks up a solution, counting the outcome.
    pub fn lookup(&mut self, key: &LayerKey) -> Option<(LayerSolution, HitClass)> {
        if let Some(sol) = self.map.get(key) {
            self.counters.exact_hits += 1;
            return Some((sol.clone(), HitClass::Exact));
        }
        self.counters.misses += 1;
        None
    }

    /// Stores a solution (counted as part of the preceding
    /// [`LayerCache::lookup`] miss).
    pub fn insert(&mut self, key: LayerKey, solution: LayerSolution) {
        self.map.insert(key, solution);
    }

    /// Demand lookups that found a solution since the last
    /// [`LayerCache::take_counters`] call.
    pub fn hits(&self) -> u64 {
        self.counters.hits()
    }

    /// Demand lookups that missed since the last
    /// [`LayerCache::take_counters`] call.
    pub fn misses(&self) -> u64 {
        self.counters.misses
    }

    /// Number of cached layer solutions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no solutions.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Returns the counters accumulated since the previous call and resets
    /// them — one call per re-synthesis iteration gives per-iteration
    /// figures.
    pub fn take_counters(&mut self) -> CacheCounters {
        std::mem::take(&mut self.counters)
    }
}

/// The canonical fingerprint of everything a [`LayerKey`] deliberately
/// omits because it is constant within one run: the full assay structure
/// and the solver-relevant configuration. A [`SharedLayerCache`] scopes
/// every key with one of these so entries from different assays or
/// configurations can never alias.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheContext(Arc<str>);

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
        CacheContext(s.into())
    }

    /// The canonical encoding, for persistence layers that need to store
    /// the context alongside a key. Two contexts are equal iff these
    /// strings are equal.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Rebuilds a context from a string previously returned by
    /// [`CacheContext::as_str`]. Round-trips exactly.
    pub fn from_canonical(s: &str) -> CacheContext {
        CacheContext(s.into())
    }
}

/// Aggregate counters of a [`SharedLayerCache`].
///
/// The hit/miss split is diagnostic: it depends on the cache's history —
/// which requests ran first, and so on their interleaving across workers —
/// while the schedules served from the cache never do.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand lookups satisfied by the exact in-memory index.
    pub hits: u64,
    /// Demand lookups filled by reading through to the backing store.
    /// Split from `hits` deliberately: a fill did disk work, so folding it
    /// into the in-memory hit count (as earlier releases did) overstates
    /// the cache's effectiveness.
    pub store_hits: u64,
    /// Demand lookups that missed everywhere.
    pub misses: u64,
    /// Entries stored: solved layers, promoted store hits, and records
    /// warm-loaded from a store.
    pub insertions: u64,
    /// Entries dropped to keep the cache within its capacity.
    pub evictions: u64,
    /// Entries currently held.
    pub entries: usize,
    /// Configured entry bound.
    pub capacity: usize,
}

impl CacheStats {
    /// Satisfied lookups (any hit class) over all lookups, or 0.0 before
    /// the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits + self.store_hits;
        let total = hits + self.misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// A layer-key scoped by its run context; the key type of the shared map.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SharedKey {
    context: CacheContext,
    key: LayerKey,
}

#[derive(Debug, Default)]
struct SharedState {
    map: HashMap<SharedKey, LayerSolution>,
    /// Insertion stamps, oldest first — the FIFO eviction order.
    order: BTreeMap<u64, SharedKey>,
    next_stamp: u64,
    /// Lifetime classified counters.
    counters: CacheCounters,
    /// Counters since the last [`SharedLayerCache::take_window_counters`]
    /// call.
    window: CacheCounters,
    insertions: u64,
    evictions: u64,
}

/// A bounded, thread-safe layer-solution cache shared across synthesis
/// runs. See the module docs for the key contract and the eviction policy.
///
/// When a [`CacheBacking`] is attached ([`SharedLayerCache::set_backing`])
/// the cache *reads through* to it on a miss (a persisted solution is
/// promoted back into the map and served as a hit) and *writes behind* to
/// it on every fresh insert. The backing is consulted strictly outside the
/// cache lock, so a slow or faulty store never blocks concurrent lookups.
#[derive(Debug)]
pub struct SharedLayerCache {
    state: Mutex<SharedState>,
    backing: Mutex<Option<Arc<dyn CacheBacking>>>,
    capacity: usize,
}

impl SharedLayerCache {
    /// Creates a cache bounded to `capacity` entries (min 1).
    pub fn new(capacity: usize) -> SharedLayerCache {
        SharedLayerCache {
            state: Mutex::new(SharedState::default()),
            backing: Mutex::new(None),
            capacity: capacity.max(1),
        }
    }

    /// Attaches a persistence layer. Subsequent misses read through to it
    /// and subsequent inserts write behind to it. Attach *after* any bulk
    /// warm-load so the loaded entries are not immediately re-persisted.
    pub fn set_backing(&self, backing: Arc<dyn CacheBacking>) {
        *lock_or_recover(&self.backing) = Some(backing);
    }

    fn backing(&self) -> Option<Arc<dyn CacheBacking>> {
        lock_or_recover(&self.backing).clone()
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, SharedState> {
        lock_or_recover(&self.state)
    }

    fn lookup(&self, context: &CacheContext, key: &LayerKey) -> Option<(LayerSolution, HitClass)> {
        {
            let mut st = self.locked();
            // Borrow-free probe: build the composite key only on the stack.
            let probe = SharedKey {
                context: context.clone(),
                key: key.clone(),
            };
            if let Some(sol) = st.map.get(&probe).cloned() {
                st.counters.count(HitClass::Exact);
                st.window.count(HitClass::Exact);
                return Some((sol, HitClass::Exact));
            }
        }
        // Read-through: consult the backing outside the lock. A persisted
        // solution is a *store* fill — counted apart from in-memory hits
        // (earlier releases folded these into plain hits, overstating the
        // in-memory cache) — and is promoted into the map for subsequent
        // lookups.
        if let Some(backing) = self.backing() {
            if let Some(sol) = backing.fetch(context, key) {
                self.insert_into_map(context, key.clone(), sol.clone());
                let mut st = self.locked();
                st.counters.count(HitClass::Store);
                st.window.count(HitClass::Store);
                return Some((sol, HitClass::Store));
            }
        }
        let mut st = self.locked();
        st.counters.misses += 1;
        st.window.misses += 1;
        None
    }

    fn insert(&self, context: &CacheContext, key: LayerKey, solution: LayerSolution) {
        // Write-behind: persist freshly inserted solutions, outside the
        // lock. The backing dedups entries it already holds, so promoting
        // a read-through result back into the map never re-persists it.
        match self.backing() {
            None => {
                self.insert_into_map(context, key, solution);
            }
            Some(backing) => {
                if self.insert_into_map(context, key.clone(), solution.clone()) {
                    backing.persist(context, &key, &solution);
                }
            }
        }
    }

    /// Inserts into the in-memory map only; returns whether the entry was
    /// freshly inserted (false = already present, nothing changed).
    fn insert_into_map(
        &self,
        context: &CacheContext,
        key: LayerKey,
        solution: LayerSolution,
    ) -> bool {
        let shared = SharedKey {
            context: context.clone(),
            key,
        };
        let mut st = self.locked();
        if st.map.contains_key(&shared) {
            return false;
        }
        let stamp = st.next_stamp;
        st.next_stamp += 1;
        st.map.insert(shared.clone(), solution);
        st.order.insert(stamp, shared);
        st.insertions += 1;
        while st.map.len() > self.capacity {
            let Some((&oldest, _)) = st.order.iter().next() else {
                break;
            };
            if let Some(victim) = st.order.remove(&oldest) {
                st.map.remove(&victim);
                st.evictions += 1;
            }
        }
        true
    }

    /// Inserts an entry loaded from a persistent store without notifying
    /// the backing (bulk warm-load path; also safe before
    /// [`SharedLayerCache::set_backing`] is called at all).
    pub fn warm_load(&self, context: &CacheContext, key: LayerKey, solution: LayerSolution) {
        self.insert_into_map(context, key, solution);
    }

    /// Returns the classified demand counters accumulated since the
    /// previous call and resets the window counters (the lifetime counters
    /// reported by [`SharedLayerCache::stats`] keep accumulating). One
    /// call per admission window gives per-window figures — the
    /// `mfhls-svc` serve loop uses this so its summary reports window
    /// rates instead of silently mixing in traffic from earlier
    /// connections.
    pub fn take_window_counters(&self) -> CacheCounters {
        let mut st = self.locked();
        std::mem::take(&mut st.window)
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let st = self.locked();
        CacheStats {
            hits: st.counters.exact_hits,
            store_hits: st.counters.store_hits,
            misses: st.counters.misses,
            insertions: st.insertions,
            evictions: st.evictions,
            entries: st.map.len(),
            capacity: self.capacity,
        }
    }

    /// Number of cached layer solutions.
    pub fn len(&self) -> usize {
        self.locked().map.len()
    }

    /// Whether the cache holds no solutions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        let mut st = self.locked();
        st.map.clear();
        st.order.clear();
    }
}

/// The cache view one synthesis run works against: either a private
/// [`LayerCache`] that dies with the run, or a [`SharedLayerCache`] handle
/// scoped by the run's [`CacheContext`]. Either way the run keeps its own
/// hit/miss counters so [`IterationStats`](crate::IterationStats) reports
/// per-run figures.
#[derive(Debug)]
pub enum RunCache {
    /// A per-run memo table (the default).
    Local(LayerCache),
    /// A handle into a cross-request shared cache.
    Shared {
        /// The long-lived cache.
        cache: Arc<SharedLayerCache>,
        /// This run's scoping context.
        context: CacheContext,
        /// Classified demand counters charged to this run.
        counters: CacheCounters,
    },
}

impl RunCache {
    /// A fresh per-run cache.
    pub fn local() -> RunCache {
        RunCache::Local(LayerCache::new())
    }

    /// A handle into `cache`, scoped to `assay` under `config`.
    pub fn shared(
        cache: Arc<SharedLayerCache>,
        assay: &crate::Assay,
        config: &SynthConfig,
    ) -> RunCache {
        RunCache::Shared {
            context: CacheContext::of(assay, config),
            cache,
            counters: CacheCounters::default(),
        }
    }

    /// Looks up a solution, counting the classified outcome.
    pub fn lookup(&mut self, key: &LayerKey) -> Option<(LayerSolution, HitClass)> {
        match self {
            RunCache::Local(c) => c.lookup(key),
            RunCache::Shared {
                cache,
                context,
                counters,
            } => match cache.lookup(context, key) {
                Some((sol, class)) => {
                    counters.count(class);
                    Some((sol, class))
                }
                None => {
                    counters.misses += 1;
                    None
                }
            },
        }
    }

    /// Stores a demand-solved solution.
    pub fn insert(&mut self, key: LayerKey, solution: LayerSolution) {
        match self {
            RunCache::Local(c) => c.insert(key, solution),
            RunCache::Shared { cache, context, .. } => cache.insert(context, key, solution),
        }
    }

    /// Returns this run's classified counters since the previous call and
    /// resets them.
    pub fn take_counters(&mut self) -> CacheCounters {
        match self {
            RunCache::Local(c) => c.take_counters(),
            RunCache::Shared { counters, .. } => std::mem::take(counters),
        }
    }
}

/// Locks `mutex`, recovering from poison: a poisoned mutex means a solver
/// panicked mid-operation, but neither the map nor the backing slot is
/// ever left partially mutated, so keep serving.
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
        let mut cache = LayerCache::new();
        assert!(cache.lookup(&key).is_none());
        let sol = crate::solver::SolverKind::default().solve(&p).unwrap();
        cache.insert(key.clone(), sol.clone());
        assert_eq!(cache.lookup(&key), Some((sol.clone(), HitClass::Exact)));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(
            cache.take_counters(),
            CacheCounters {
                exact_hits: 1,
                misses: 1,
                ..CacheCounters::default()
            }
        );
        assert_eq!(cache.take_counters(), CacheCounters::default());
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
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
    }

    #[test]
    fn shared_cache_scopes_by_context_and_evicts_fifo() {
        let a = assay();
        let t = TransportTimes::initial(&a, &TransportConfig::default());
        let costs = CostModel::default();
        let p = problem(&a, &t, &costs);
        let sol = crate::solver::SolverKind::default().solve(&p).unwrap();
        let config = SynthConfig::default();

        let shared = Arc::new(SharedLayerCache::new(2));
        let mut run_a = RunCache::shared(shared.clone(), &a, &config);
        let key0 = LayerKey::of(&p, 0);
        assert!(run_a.lookup(&key0).is_none());
        run_a.insert(key0.clone(), sol.clone());
        assert_eq!(run_a.lookup(&key0), Some((sol.clone(), HitClass::Exact)));
        assert_eq!(
            run_a.take_counters(),
            CacheCounters {
                exact_hits: 1,
                misses: 1,
                ..CacheCounters::default()
            }
        );

        // A different context never sees the entry.
        let mut b = assay();
        b.add_op(Operation::new("z").with_duration(Duration::fixed(9)));
        let mut run_b = RunCache::shared(shared.clone(), &b, &config);
        assert!(run_b.lookup(&key0).is_none());
        assert_eq!(
            run_b.take_counters(),
            CacheCounters {
                misses: 1,
                ..CacheCounters::default()
            }
        );

        // FIFO eviction keeps the bound: capacity 2, three inserts.
        run_a.insert(LayerKey::of(&p, 1), sol.clone());
        run_a.insert(LayerKey::of(&p, 2), sol.clone());
        let stats = shared.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.capacity, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.insertions, 3);
        assert!(stats.hit_rate() > 0.0);
        // The oldest entry (key0) was the victim; the newest survives.
        assert!(run_a.lookup(&key0).is_none());
        assert_eq!(
            run_a.lookup(&LayerKey::of(&p, 2)),
            Some((sol.clone(), HitClass::Exact))
        );
        assert_eq!(
            run_a.take_counters(),
            CacheCounters {
                exact_hits: 1,
                misses: 1,
                ..CacheCounters::default()
            }
        );

        shared.clear();
        assert!(shared.is_empty());
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
