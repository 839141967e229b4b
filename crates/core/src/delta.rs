//! Delta re-synthesis: reuse cached synthesis work across *near-duplicate*
//! assays.
//!
//! A long-lived service sees the same assays over and over with small
//! edits. Two levers make that cheap:
//!
//! 1. **Full-shape reuse** — [`AssayShape`] is a positional, name-excluded
//!    encoding of an assay *and* the synthesis configuration. Two requests
//!    with the same shape are the same synthesis problem, so a bounded
//!    [`DeltaCache`] maps shapes to their finished [`SynthesisResult`]s and
//!    a hit skips the entire synthesis loop. Because display names are
//!    excluded from the shape but the pipeline is deterministic in
//!    everything the shape covers, the cached result is *exactly* what a
//!    fresh run would produce.
//! 2. **Suffix-edit re-synthesis** — when an edited assay shares a leading
//!    run of layers with a cached one (compared via the chained per-layer
//!    fingerprints of [`AssayShape::layer_fingerprints`]),
//!    [`resynthesize_edit`] reuses the cached prefix sub-schedules and the
//!    fabricated device library, re-solving only the edited suffix through
//!    the same machinery [`crate::recovery::resynthesize_suffix`] uses for
//!    run-time faults — an edit is just a "fault" where nothing broke and
//!    the prefix already ran.
//!
//! The service plane (`mfhls-svc`) uses lever 1 on its hot path (it is
//! byte-exact); lever 2 is the offline/explicit edit API, and its product
//! is validated against the edited assay before being returned.

use crate::cache::lock_or_recover;
use crate::{
    layer_assay, resynthesize_suffix, Assay, CoreError, HybridSchedule, OpId, SynthConfig,
    SynthesisResult,
};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, Mutex};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A positional, name-excluded fingerprint of (assay, configuration): the
/// synthesis *problem*, independent of how its operations are labelled.
///
/// Besides the flat encoding, the shape carries **chained per-layer
/// fingerprints**: `fp[i]` hashes layer `i`'s content *on top of*
/// `fp[i - 1]`, so two shapes agree on `fp[0..k]` exactly when their first
/// `k` layers — ops, attributes, and every edge entering them — are
/// positionally identical. That is the prefix-sharing test behind
/// [`resynthesize_edit`].
#[derive(Debug, Clone)]
pub struct AssayShape {
    bytes: Arc<[u8]>,
    fingerprint: u64,
    layer_fps: Vec<u64>,
    layers: Vec<Vec<OpId>>,
}

impl AssayShape {
    /// Computes the shape of `assay` under `config`.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Layering`] from [`layer_assay`] (cyclic
    /// assays, zero threshold).
    pub fn of(assay: &Assay, config: &SynthConfig) -> Result<AssayShape, CoreError> {
        let mut enc = String::new();
        enc.push_str(&format!("ash1|c:{config:?}|n{}|", assay.len()));
        for (_, op) in assay.iter() {
            enc.push_str(&format!("{:?}/{:?};", op.requirements(), op.duration()));
        }
        enc.push('|');
        for (p, c) in assay.dependencies() {
            enc.push_str(&format!("e{}>{};", p.index(), c.index()));
        }
        let bytes: Arc<[u8]> = enc.into_bytes().into();
        let fingerprint = fnv1a64(FNV_OFFSET, &bytes);

        let layering = layer_assay(assay, config.indeterminate_threshold)?;
        let layers: Vec<Vec<OpId>> = layering.layers().to_vec();
        let mut layer_fps = Vec::with_capacity(layers.len());
        // Seed the chain with the config so identical layer structure under
        // different solvers/weights never reads as a shared prefix.
        let mut chain = fnv1a64(FNV_OFFSET, format!("ash1|c:{config:?}").as_bytes());
        for layer in &layers {
            let mut rec = String::new();
            for &o in layer {
                let op = assay.op(o);
                rec.push_str(&format!(
                    "o{}:{:?}/{:?};",
                    o.index(),
                    op.requirements(),
                    op.duration()
                ));
            }
            // Every edge *entering* the layer, including cross-layer inputs:
            // a changed parent placement changes how this layer solves.
            for (p, c) in assay.dependencies() {
                if layer.contains(&c) {
                    rec.push_str(&format!("e{}>{};", p.index(), c.index()));
                }
            }
            chain = fnv1a64(chain ^ FNV_PRIME, rec.as_bytes());
            layer_fps.push(chain);
        }
        Ok(AssayShape {
            bytes,
            fingerprint,
            layer_fps,
            layers,
        })
    }

    /// The flat positional encoding (config + ops + edges, names excluded).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// FNV-1a hash of [`AssayShape::bytes`].
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Chained per-layer fingerprints, in execution order.
    pub fn layer_fingerprints(&self) -> &[u64] {
        &self.layer_fps
    }

    /// Number of layers in the shape's layering.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// How many leading layers this shape shares with `other` (the longest
    /// common prefix of the chained fingerprints).
    pub fn shared_layer_prefix(&self, other: &AssayShape) -> usize {
        self.layer_fps
            .iter()
            .zip(&other.layer_fps)
            .take_while(|(a, b)| a == b)
            .count()
    }

    /// Operation ids contained in the first `layers` layers. This set is
    /// parent-closed (layering respects dependencies), so it is a valid
    /// `completed` set for [`resynthesize_suffix`].
    pub fn prefix_ops(&self, layers: usize) -> BTreeSet<OpId> {
        self.layers
            .iter()
            .take(layers)
            .flat_map(|l| l.iter().copied())
            .collect()
    }
}

struct CachedRun {
    shape: AssayShape,
    result: SynthesisResult,
}

struct DeltaState {
    entries: HashMap<Arc<[u8]>, CachedRun>,
    order: VecDeque<Arc<[u8]>>,
}

/// A bounded, thread-safe map from [`AssayShape`] to finished
/// [`SynthesisResult`]s, shared across requests by the service plane.
///
/// Only *exact* shape matches are served ([`DeltaCache::lookup_full`]), so
/// a hit is byte-equivalent to re-running synthesis; near-misses are
/// surfaced via [`DeltaCache::nearest`] for the explicit
/// [`resynthesize_edit`] path and for diagnostics.
pub struct DeltaCache {
    state: Mutex<DeltaState>,
    capacity: usize,
}

impl std::fmt::Debug for DeltaCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = lock_or_recover(&self.state);
        f.debug_struct("DeltaCache")
            .field("capacity", &self.capacity)
            .field("entries", &st.entries.len())
            .finish()
    }
}

impl DeltaCache {
    /// Creates a cache holding at most `capacity` results (FIFO eviction).
    /// A zero capacity is clamped to 1.
    pub fn new(capacity: usize) -> Self {
        DeltaCache {
            state: Mutex::new(DeltaState {
                entries: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// Returns the cached result for an identically-shaped request, if any.
    pub fn lookup_full(&self, shape: &AssayShape) -> Option<SynthesisResult> {
        let st = lock_or_recover(&self.state);
        st.entries.get(shape.bytes()).map(|run| run.result.clone())
    }

    /// The cached shape sharing the longest non-empty layer prefix with
    /// `shape`, as `(shared_layers, cached_shape)`. Exact-shape entries are
    /// reported too (`shared_layers == shape.layer_count()`); ties prefer
    /// the longer prefix, then the older entry.
    pub fn nearest(&self, shape: &AssayShape) -> Option<(usize, AssayShape)> {
        let st = lock_or_recover(&self.state);
        let mut best: Option<(usize, &CachedRun)> = None;
        for key in &st.order {
            let Some(run) = st.entries.get(key) else {
                continue;
            };
            let shared = shape.shared_layer_prefix(&run.shape);
            if shared > 0 && best.is_none_or(|(b, _)| shared > b) {
                best = Some((shared, run));
            }
        }
        best.map(|(shared, run)| (shared, run.shape.clone()))
    }

    /// Stores a finished result under its shape. Re-inserting an existing
    /// shape refreshes the stored result without growing the cache.
    pub fn insert(&self, shape: &AssayShape, result: &SynthesisResult) {
        let mut st = lock_or_recover(&self.state);
        let key: Arc<[u8]> = Arc::clone(&shape.bytes);
        if st.entries.contains_key(&key) {
            if let Some(run) = st.entries.get_mut(&key) {
                run.result = result.clone();
            }
            return;
        }
        while st.entries.len() >= self.capacity {
            let Some(old) = st.order.pop_front() else {
                break;
            };
            st.entries.remove(&old);
        }
        st.order.push_back(Arc::clone(&key));
        st.entries.insert(
            key,
            CachedRun {
                shape: shape.clone(),
                result: result.clone(),
            },
        );
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        lock_or_recover(&self.state).entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A schedule for an edited assay assembled from a cached prefix plus a
/// freshly re-synthesized suffix. Produced by [`resynthesize_edit`].
#[derive(Debug, Clone)]
pub struct EditPlan {
    /// The full schedule over the *edited* assay, validated before return.
    pub schedule: HybridSchedule,
    /// How many leading layers were reused verbatim from the cached run.
    pub reused_layers: usize,
    /// How many layers the suffix re-synthesis produced.
    pub new_layers: usize,
}

/// Re-synthesizes only the edited suffix of `edited`, reusing the first
/// `shared_layers` layers of `cached` (which must be positionally identical
/// to the edited assay's prefix — use [`AssayShape::shared_layer_prefix`]
/// to establish that) and the already-fabricated device library.
///
/// This is [`resynthesize_suffix`] generalized from faults to edits: the
/// shared prefix plays the role of the executed prefix, and no device is
/// quarantined. Consequently the suffix is capped at the cached chip's
/// device count — an edit that needs a new device class fails with
/// [`CoreError::Recovery`] and the caller should fall back to a full run.
///
/// # Errors
///
/// * [`CoreError::Recovery`] when the prefix is inconsistent with `edited`
///   or the cached chip cannot host the suffix.
/// * Other [`CoreError`] variants propagate from the synthesis loop.
pub fn resynthesize_edit(
    edited: &Assay,
    edited_shape: &AssayShape,
    cached: &HybridSchedule,
    shared_layers: usize,
    config: &SynthConfig,
) -> Result<EditPlan, CoreError> {
    let reused = shared_layers.min(cached.layers.len());
    let completed = edited_shape.prefix_ops(reused);
    if completed.is_empty() {
        // No shared prefix: `resynthesize_suffix` would take its
        // idempotence shortcut and hand back the *cached* schedule, which
        // covers the wrong assay. Re-run in full, still seeded with the
        // fabricated chip (same device-budget semantics as the suffix
        // path).
        let bindable = vec![true; cached.devices.len()];
        let full_config = SynthConfig {
            max_devices: cached.devices.len().max(1),
            ..config.clone()
        };
        let result = crate::Synthesizer::new(full_config)
            .run_seeded(edited, &cached.devices, &bindable)
            .map_err(|e| match e {
                CoreError::DeviceBudgetExhausted { op, .. } => CoreError::Recovery(format!(
                    "cached chip cannot host edited op o{op} ({})",
                    edited.op(OpId(op)).name()
                )),
                other => other,
            })?;
        let new_layers = result.schedule.layers.len();
        result.schedule.validate(edited)?;
        return Ok(EditPlan {
            schedule: result.schedule,
            reused_layers: 0,
            new_layers,
        });
    }
    let plan = resynthesize_suffix(edited, cached, &completed, &BTreeSet::new(), config)?;

    // Stitch: reused prefix sub-schedules (op ids are positionally shared),
    // then the recovered layers with suffix ids mapped back to `edited`.
    let mut layers: Vec<crate::LayerSchedule> = cached.layers[..reused].to_vec();
    let new_layers = plan.schedule.layers.len();
    for layer in &plan.schedule.layers {
        let ops = layer
            .ops
            .iter()
            .map(|s| {
                let op = plan.original_op(s.op).ok_or_else(|| {
                    CoreError::Internal(format!("recovery plan lost suffix op {}", s.op))
                })?;
                Ok(crate::ScheduledOp { op, ..*s })
            })
            .collect::<Result<Vec<_>, CoreError>>()?;
        layers.push(crate::LayerSchedule::new(ops));
    }
    let mut paths = cached.paths.clone();
    paths.extend(plan.schedule.paths.iter().copied());
    let schedule = HybridSchedule {
        layers,
        devices: plan.schedule.devices.clone(),
        paths,
    };
    schedule.validate(edited)?;
    Ok(EditPlan {
        schedule,
        reused_layers: reused,
        new_layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Duration, Operation, Synthesizer};
    use mfhls_chip::{Accessory, Capacity, ContainerKind};

    fn base_assay() -> Assay {
        let mut a = Assay::new("base");
        let mix = a.add_op(
            Operation::new("mix")
                .container(ContainerKind::Ring)
                .capacity(Capacity::Medium)
                .accessory(Accessory::Pump)
                .with_duration(Duration::fixed(10)),
        );
        let capture = a.add_op(
            Operation::new("capture")
                .capacity(Capacity::Small)
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

    /// Same structure, different display names: same shape.
    fn renamed_assay() -> Assay {
        let mut a = Assay::new("renamed-entirely");
        let mix = a.add_op(
            Operation::new("stir")
                .container(ContainerKind::Ring)
                .capacity(Capacity::Medium)
                .accessory(Accessory::Pump)
                .with_duration(Duration::fixed(10)),
        );
        let capture = a.add_op(
            Operation::new("trap")
                .capacity(Capacity::Small)
                .accessory(Accessory::CellTrap)
                .with_duration(Duration::at_least(3)),
        );
        let detect = a.add_op(
            Operation::new("read")
                .accessory(Accessory::OpticalSystem)
                .with_duration(Duration::fixed(5)),
        );
        a.add_dependency(mix, capture).unwrap();
        a.add_dependency(capture, detect).unwrap();
        a
    }

    /// The base assay with an extra suffix op appended after `detect`.
    fn extended_assay() -> Assay {
        let mut a = base_assay();
        let detect = OpId(2);
        // Same component class as `mix`, so the cached chip can host it.
        let wash = a.add_op(
            Operation::new("wash")
                .container(ContainerKind::Ring)
                .capacity(Capacity::Medium)
                .accessory(Accessory::Pump)
                .with_duration(Duration::fixed(4)),
        );
        a.add_dependency(detect, wash).unwrap();
        a
    }

    #[test]
    fn shape_ignores_names_but_sees_structure() {
        let config = SynthConfig::default();
        let a = AssayShape::of(&base_assay(), &config).unwrap();
        let b = AssayShape::of(&renamed_assay(), &config).unwrap();
        assert_eq!(a.bytes(), b.bytes());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.layer_fingerprints(), b.layer_fingerprints());

        let c = AssayShape::of(&extended_assay(), &config).unwrap();
        assert_ne!(a.bytes(), c.bytes());

        // A config change breaks both the flat shape and the layer chain.
        let other = SynthConfig {
            max_devices: 7,
            ..SynthConfig::default()
        };
        let d = AssayShape::of(&base_assay(), &other).unwrap();
        assert_ne!(a.bytes(), d.bytes());
        assert_eq!(a.shared_layer_prefix(&d), 0);
    }

    #[test]
    fn suffix_edit_shares_the_layer_prefix() {
        let config = SynthConfig::default();
        let base = AssayShape::of(&base_assay(), &config).unwrap();
        let ext = AssayShape::of(&extended_assay(), &config).unwrap();
        let shared = base.shared_layer_prefix(&ext);
        assert!(shared > 0, "appended op must not disturb leading layers");
        assert!(ext.layer_count() >= base.layer_count());
        // The prefix op set is parent-closed.
        let ops = ext.prefix_ops(shared);
        for (p, c) in extended_assay().dependencies() {
            if ops.contains(&c) {
                assert!(ops.contains(&p), "{p} missing for {c}");
            }
        }
    }

    #[test]
    fn full_shape_hit_replays_the_exact_result() {
        let config = SynthConfig::default();
        let cache = DeltaCache::new(4);
        let shape = AssayShape::of(&base_assay(), &config).unwrap();
        assert!(cache.lookup_full(&shape).is_none());

        let fresh = Synthesizer::new(config.clone()).run(&base_assay()).unwrap();
        cache.insert(&shape, &fresh);

        // A renamed request has the identical shape and replays the result.
        let renamed = AssayShape::of(&renamed_assay(), &config).unwrap();
        let replay = cache.lookup_full(&renamed).unwrap();
        assert_eq!(replay.schedule, fresh.schedule);
        let direct = Synthesizer::new(config.clone())
            .run(&renamed_assay())
            .unwrap();
        assert_eq!(replay.schedule, direct.schedule);

        // Re-inserting a held shape refreshes it without growing the cache.
        cache.insert(&renamed, &direct);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn eviction_is_fifo_and_bounded() {
        let config = SynthConfig::default();
        let cache = DeltaCache::new(1);
        let base = AssayShape::of(&base_assay(), &config).unwrap();
        let ext = AssayShape::of(&extended_assay(), &config).unwrap();
        let r1 = Synthesizer::new(config.clone()).run(&base_assay()).unwrap();
        let r2 = Synthesizer::new(config.clone())
            .run(&extended_assay())
            .unwrap();
        cache.insert(&base, &r1);
        cache.insert(&ext, &r2);
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup_full(&base).is_none(), "FIFO evicts the oldest");
        assert!(cache.lookup_full(&ext).is_some());
    }

    #[test]
    fn nearest_finds_the_longest_prefix() {
        let config = SynthConfig::default();
        let cache = DeltaCache::new(4);
        let base = AssayShape::of(&base_assay(), &config).unwrap();
        let r1 = Synthesizer::new(config.clone()).run(&base_assay()).unwrap();
        cache.insert(&base, &r1);

        let ext = AssayShape::of(&extended_assay(), &config).unwrap();
        let (shared, found) = cache.nearest(&ext).unwrap();
        assert_eq!(shared, base.shared_layer_prefix(&ext));
        assert_eq!(found.bytes(), base.bytes());

        // An unrelated config shares nothing.
        let other = SynthConfig {
            max_devices: 7,
            ..SynthConfig::default()
        };
        let foreign = AssayShape::of(&base_assay(), &other).unwrap();
        assert!(cache.nearest(&foreign).is_none());
    }

    #[test]
    fn resynthesize_edit_reuses_the_prefix_and_validates() {
        let config = SynthConfig::default();
        let cached = Synthesizer::new(config.clone()).run(&base_assay()).unwrap();
        let base = AssayShape::of(&base_assay(), &config).unwrap();
        let edited = extended_assay();
        let shape = AssayShape::of(&edited, &config).unwrap();
        let shared = base.shared_layer_prefix(&shape);
        assert!(shared > 0);

        let plan = resynthesize_edit(&edited, &shape, &cached.schedule, shared, &config).unwrap();
        assert_eq!(plan.reused_layers, shared);
        assert!(plan.new_layers > 0);
        plan.schedule.validate(&edited).unwrap();
        // The reused prefix is literally the cached prefix.
        assert_eq!(
            &plan.schedule.layers[..shared],
            &cached.schedule.layers[..shared]
        );
        // Every edited op is scheduled.
        for o in edited.op_ids() {
            assert!(plan.schedule.slot(o).is_some(), "{o} unscheduled");
        }
    }

    #[test]
    fn resynthesize_edit_zero_prefix_is_a_full_rerun() {
        let config = SynthConfig::default();
        let cached = Synthesizer::new(config.clone()).run(&base_assay()).unwrap();
        let edited = extended_assay();
        let shape = AssayShape::of(&edited, &config).unwrap();
        let plan = resynthesize_edit(&edited, &shape, &cached.schedule, 0, &config).unwrap();
        assert_eq!(plan.reused_layers, 0);
        plan.schedule.validate(&edited).unwrap();
    }
}
