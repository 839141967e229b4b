//! Seeded property tests for the canonical layer signature
//! ([`CanonicalLayerKey`], oracle P's renumbering check):
//!
//! * **Renumbering invariance** — any op/device ID permutation of a layer
//!   sub-problem produces identical `canon` bytes, both for directly
//!   constructed [`LayerProblem`]s and for whole assays pushed through
//!   [`layer_assay`].
//! * **Collision freedom** — a generated corpus of structurally distinct
//!   layers yields pairwise distinct `canon` bytes.
//!
//! Deterministic via the vendored SplitMix64 — no external PRNG crates.

use mfhls_chip::{Accessory, AccessorySet, Capacity, ContainerKind, CostModel, DeviceConfig};
use mfhls_core::{
    layer_assay, structural_op_colours, Assay, CanonicalLayerKey, Duration, LayerProblem, OpId,
    Operation, TransportConfig, TransportTimes, Weights,
};
use mfhls_graph::rng::SplitMix64;
use std::collections::{BTreeSet, HashSet};

const ACCESSORIES: [Accessory; 5] = [
    Accessory::Pump,
    Accessory::HeatingPad,
    Accessory::OpticalSystem,
    Accessory::SieveValve,
    Accessory::CellTrap,
];

/// A random operation whose duration carries `salt` so attribute collisions
/// (and with them WL colour ties) are impossible within one spec.
fn gen_op(rng: &mut SplitMix64, salt: u64) -> Operation {
    let mut op = Operation::new("op");
    // Container/capacity drawn from *valid* combinations only, so every
    // generated problem is solvable with fresh devices.
    match rng.gen_index(0, 3) {
        0 => {}
        1 => {
            op = op.container(ContainerKind::Ring);
            op = match rng.gen_index(0, 3) {
                0 => op.capacity(Capacity::Large),
                1 => op.capacity(Capacity::Medium),
                _ => op.capacity(Capacity::Small),
            };
        }
        _ => {
            op = op.container(ContainerKind::Chamber);
            op = match rng.gen_index(0, 3) {
                0 => op.capacity(Capacity::Medium),
                1 => op.capacity(Capacity::Small),
                _ => op.capacity(Capacity::Tiny),
            };
        }
    }
    for &a in &ACCESSORIES {
        if rng.gen_bool(0.25) {
            op = op.accessory(a);
        }
    }
    let base = 1 + rng.gen_range_u64(0, 20);
    let minutes = base + 100 * salt;
    if rng.gen_bool(0.2) {
        op.with_duration(Duration::at_least(minutes))
    } else {
        op.with_duration(Duration::fixed(minutes))
    }
}

fn gen_device(rng: &mut SplitMix64) -> DeviceConfig {
    let (kind, cap) = match rng.gen_index(0, 6) {
        0 => (ContainerKind::Ring, Capacity::Large),
        1 => (ContainerKind::Ring, Capacity::Medium),
        2 => (ContainerKind::Ring, Capacity::Small),
        3 => (ContainerKind::Chamber, Capacity::Medium),
        4 => (ContainerKind::Chamber, Capacity::Small),
        _ => (ContainerKind::Chamber, Capacity::Tiny),
    };
    let mut acc = AccessorySet::default();
    for &a in &ACCESSORIES {
        if rng.gen_bool(0.4) {
            acc.insert(a);
        }
    }
    DeviceConfig::new(kind, cap, acc).expect("palette combos are valid")
}

fn shuffle(rng: &mut SplitMix64, n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_index(0, i + 1);
        perm.swap(i, j);
    }
    perm
}

/// One randomly generated layer sub-problem, owned (the assay lives here so
/// the `LayerProblem` can borrow it).
struct Spec {
    assay: Assay,
    devices: Vec<DeviceConfig>,
    bindable: Vec<bool>,
    paths: BTreeSet<(usize, usize)>,
    cross: Vec<(OpId, usize)>,
    max_devices: usize,
}

impl Spec {
    fn problem<'a>(
        &'a self,
        transport: &'a TransportTimes,
        costs: &'a CostModel,
    ) -> LayerProblem<'a> {
        LayerProblem {
            assay: &self.assay,
            ops: self.assay.op_ids().collect(),
            devices: self.devices.clone(),
            bindable: self.bindable.clone(),
            max_devices: self.max_devices,
            transport,
            weights: Weights::default(),
            costs,
            existing_paths: self.paths.clone(),
            cross_inputs: self.cross.clone(),
            component_oriented: true,
        }
    }
}

fn gen_spec(rng: &mut SplitMix64) -> Spec {
    let n = 1 + rng.gen_index(0, 6);
    let nd = rng.gen_index(0, 5);
    let mut assay = Assay::new("spec");
    for i in 0..n {
        assay.add_op(gen_op(rng, i as u64));
    }
    for p in 0..n {
        for c in (p + 1)..n {
            if rng.gen_bool(0.3) {
                assay
                    .add_dependency(OpId(p), OpId(c))
                    .expect("p < c edges are acyclic");
            }
        }
    }
    let devices: Vec<DeviceConfig> = (0..nd).map(|_| gen_device(rng)).collect();
    let bindable: Vec<bool> = (0..nd).map(|_| rng.gen_bool(0.8)).collect();
    let mut paths = BTreeSet::new();
    for a in 0..nd {
        for b in (a + 1)..nd {
            if rng.gen_bool(0.3) {
                paths.insert((a, b));
            }
        }
    }
    let mut cross = Vec::new();
    for o in 0..n {
        if nd > 0 && rng.gen_bool(0.3) {
            cross.push((OpId(o), rng.gen_index(0, nd)));
        }
    }
    Spec {
        assay,
        devices,
        bindable,
        paths,
        cross,
        max_devices: n + nd + 2,
    }
}

/// Applies an op permutation `sigma` (new position `j` holds old op
/// `sigma[j]`) and a device permutation `delta` (new slot `k` holds old
/// device `delta[k]`) to `spec`, producing the same structure under
/// different IDs.
fn permute_spec(spec: &Spec, sigma: &[usize], delta: &[usize]) -> Spec {
    let n = spec.assay.len();
    let nd = spec.devices.len();
    let mut new_op = vec![0usize; n];
    for (j, &old) in sigma.iter().enumerate() {
        new_op[old] = j;
    }
    let mut new_dev = vec![0usize; nd];
    for (k, &old) in delta.iter().enumerate() {
        new_dev[old] = k;
    }
    let mut assay = Assay::new("spec-permuted");
    for &old in sigma {
        assay.add_op(spec.assay.op(OpId(old)).clone());
    }
    for (p, c) in spec.assay.dependencies() {
        assay
            .add_dependency(OpId(new_op[p.index()]), OpId(new_op[c.index()]))
            .expect("permuted DAG stays acyclic");
    }
    let devices: Vec<DeviceConfig> = delta.iter().map(|&old| spec.devices[old]).collect();
    let bindable: Vec<bool> = delta.iter().map(|&old| spec.bindable[old]).collect();
    let paths: BTreeSet<(usize, usize)> = spec
        .paths
        .iter()
        .map(|&(a, b)| {
            let (x, y) = (new_dev[a], new_dev[b]);
            (x.min(y), x.max(y))
        })
        .collect();
    let cross: Vec<(OpId, usize)> = spec
        .cross
        .iter()
        .map(|&(o, d)| (OpId(new_op[o.index()]), new_dev[d]))
        .collect();
    Spec {
        assay,
        devices,
        bindable,
        paths,
        cross,
        max_devices: spec.max_devices,
    }
}

#[test]
fn canon_bytes_are_invariant_under_op_and_device_permutations() {
    let costs = CostModel::default();
    let tconfig = TransportConfig::default();
    for seed in 0..60u64 {
        let mut rng = SplitMix64::seed_from_u64(0xC0FFEE ^ seed);
        let spec = gen_spec(&mut rng);
        let n = spec.assay.len();
        let nd = spec.devices.len();
        let sigma = shuffle(&mut rng, n);
        let delta = shuffle(&mut rng, nd);
        let permuted = permute_spec(&spec, &sigma, &delta);

        let t1 = TransportTimes::initial(&spec.assay, &tconfig);
        let t2 = TransportTimes::initial(&permuted.assay, &tconfig);
        let k1 = CanonicalLayerKey::of(&spec.problem(&t1, &costs), "h");
        let k2 = CanonicalLayerKey::of(&permuted.problem(&t2, &costs), "h");
        assert_eq!(
            k1.canon_bytes(),
            k2.canon_bytes(),
            "seed {seed}: canon bytes must survive sigma={sigma:?} delta={delta:?}"
        );
        // The solver fingerprint stays load-bearing after permutation.
        let k3 = CanonicalLayerKey::of(&permuted.problem(&t2, &costs), "ilp");
        assert_ne!(k1.canon_bytes(), k3.canon_bytes());
    }
}

#[test]
fn canon_bytes_are_invariant_for_automorphic_twins() {
    // Two positionally identical parallel ops (an automorphism of the layer
    // graph): swapping them must not move the canon bytes, whatever the WL
    // tie-break does.
    let costs = CostModel::default();
    let tconfig = TransportConfig::default();
    let build = |first: u64, second: u64| {
        let mut a = Assay::new("twins");
        for d in [first, second] {
            a.add_op(
                Operation::new("t")
                    .container(ContainerKind::Ring)
                    .capacity(Capacity::Medium)
                    .accessory(Accessory::Pump)
                    .with_duration(Duration::fixed(d)),
            );
        }
        a
    };
    let a1 = build(7, 7);
    let a2 = build(7, 7);
    let t1 = TransportTimes::initial(&a1, &tconfig);
    let t2 = TransportTimes::initial(&a2, &tconfig);
    let mk = |assay: &Assay, transport: &TransportTimes| {
        let spec = Spec {
            assay: assay.clone(),
            devices: Vec::new(),
            bindable: Vec::new(),
            paths: BTreeSet::new(),
            cross: Vec::new(),
            max_devices: 4,
        };
        let p = LayerProblem {
            assay,
            ops: assay.op_ids().collect(),
            devices: spec.devices.clone(),
            bindable: spec.bindable.clone(),
            max_devices: spec.max_devices,
            transport,
            weights: Weights::default(),
            costs: &costs,
            existing_paths: BTreeSet::new(),
            cross_inputs: Vec::new(),
            component_oriented: true,
        };
        CanonicalLayerKey::of(&p, "h").canon_bytes().to_vec()
    };
    assert_eq!(mk(&a1, &t1), mk(&a2, &t2));
}

#[test]
fn layered_assay_hashes_every_layer_identically_under_renumbering() {
    // Whole-assay renumbering: shuffle op insertion order, keep the DAG.
    // Small assays below the indeterminate threshold layer purely by
    // dependency depth, so layer membership is permutation-invariant and
    // every layer must hash identically.
    let costs = CostModel::default();
    let tconfig = TransportConfig::default();
    for seed in 0..40u64 {
        let mut rng = SplitMix64::seed_from_u64(0xBEEF ^ seed);
        let spec = gen_spec(&mut rng);
        let n = spec.assay.len();
        let sigma = shuffle(&mut rng, n);
        let permuted = permute_spec(&spec, &sigma, &[]);

        let l1 = layer_assay(&spec.assay, 10).expect("acyclic");
        let l2 = layer_assay(&permuted.assay, 10).expect("acyclic");
        assert_eq!(l1.layers().len(), l2.layers().len(), "seed {seed}");

        let t1 = TransportTimes::initial(&spec.assay, &tconfig);
        let t2 = TransportTimes::initial(&permuted.assay, &tconfig);
        for (ops1, ops2) in l1.layers().iter().zip(l2.layers()) {
            let p1 = LayerProblem {
                assay: &spec.assay,
                ops: ops1.clone(),
                devices: Vec::new(),
                bindable: Vec::new(),
                max_devices: n + 2,
                transport: &t1,
                weights: Weights::default(),
                costs: &costs,
                existing_paths: BTreeSet::new(),
                cross_inputs: Vec::new(),
                component_oriented: true,
            };
            let p2 = LayerProblem {
                assay: &permuted.assay,
                ops: ops2.clone(),
                devices: Vec::new(),
                bindable: Vec::new(),
                max_devices: n + 2,
                transport: &t2,
                weights: Weights::default(),
                costs: &costs,
                existing_paths: BTreeSet::new(),
                cross_inputs: Vec::new(),
                component_oriented: true,
            };
            let k1 = CanonicalLayerKey::of(&p1, "h");
            let k2 = CanonicalLayerKey::of(&p2, "h");
            assert_eq!(k1.canon_bytes(), k2.canon_bytes(), "seed {seed}");
        }
    }
}

#[test]
fn structural_op_colours_commute_with_renumbering() {
    // The whole-assay WL colours that break layering eviction ties must
    // map unchanged through any op permutation: colour(op) in the original
    // equals colour(sigma(op)) in the permuted assay.
    for seed in 0..40u64 {
        let mut rng = SplitMix64::seed_from_u64(0x0C01 ^ seed);
        let spec = gen_spec(&mut rng);
        let n = spec.assay.len();
        let sigma = shuffle(&mut rng, n);
        let permuted = permute_spec(&spec, &sigma, &[]);
        let mut new_pos = vec![0usize; n];
        for (j, &old) in sigma.iter().enumerate() {
            new_pos[old] = j;
        }
        let c1 = structural_op_colours(&spec.assay);
        let c2 = structural_op_colours(&permuted.assay);
        for old in 0..n {
            assert_eq!(
                c1[old], c2[new_pos[old]],
                "seed {seed}: colour of old op {old} moved under sigma={sigma:?}"
            );
        }
    }
}

/// Regression for the layering eviction tie-break (found by the `mfhls gen
/// --check` metamorphic sweep on `wide-fanout` seeds 0x28/0x2d/0x34/0x37
/// and `large` 0x31): when two indeterminate ops tie on eviction cost
/// (storage, moved-count), the tie used to break on the raw op id, so
/// renumbering the assay evicted a *different structural op* and every
/// canonical layer key downstream moved. The tie now breaks on the
/// relabeling-invariant WL colour.
#[test]
fn eviction_ties_break_structurally_not_by_id() {
    // Two independent chains, each a fixed parent feeding an indeterminate
    // op. With threshold 1 one chain must be evicted; both evictions cost
    // (storage 0, moved 2) — a perfect tie. The chains differ only in the
    // parent's duration (5 vs 7), so their WL colours differ and exactly
    // one of them is the structurally-determined victim, whatever order
    // the ops were inserted in.
    let build = |order: &[(&str, u64, bool)]| {
        let mut a = Assay::new("tie");
        let mut id = std::collections::HashMap::new();
        for &(name, minutes, ind) in order {
            let d = if ind {
                Duration::at_least(minutes)
            } else {
                Duration::fixed(minutes)
            };
            id.insert(name, a.add_op(Operation::new(name).with_duration(d)));
        }
        a.add_dependency(id["pa"], id["ia"]).unwrap();
        a.add_dependency(id["pb"], id["ib"]).unwrap();
        a
    };
    let layer_names = |a: &Assay| -> Vec<std::collections::BTreeSet<String>> {
        let l = layer_assay(a, 1).expect("acyclic");
        l.layers()
            .iter()
            .map(|ops| ops.iter().map(|&o| a.op(o).name().to_owned()).collect())
            .collect()
    };
    let orders: [&[(&str, u64, bool)]; 3] = [
        &[
            ("pa", 5, false),
            ("ia", 3, true),
            ("pb", 7, false),
            ("ib", 3, true),
        ],
        &[
            ("pb", 7, false),
            ("ib", 3, true),
            ("pa", 5, false),
            ("ia", 3, true),
        ],
        &[
            ("ib", 3, true),
            ("ia", 3, true),
            ("pb", 7, false),
            ("pa", 5, false),
        ],
    ];
    let reference = layer_names(&build(orders[0]));
    assert_eq!(reference.len(), 2, "threshold 1 splits the two chains");
    for order in &orders[1..] {
        assert_eq!(
            layer_names(&build(order)),
            reference,
            "evicted chain must not depend on insertion order {order:?}"
        );
    }
}

#[test]
fn structurally_distinct_corpus_is_collision_free() {
    // Every corpus entry carries a distinguishing duration on op 0, so all
    // entries are pairwise non-isomorphic by construction; their canon
    // bytes must be pairwise distinct. Random structure on top varies op
    // counts, edges, devices, paths and cross-inputs.
    let costs = CostModel::default();
    let tconfig = TransportConfig::default();
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    for i in 0..120u64 {
        let mut rng = SplitMix64::seed_from_u64(0xD15C0 ^ i);
        let mut spec = gen_spec(&mut rng);
        // Stamp entry `i` into op 0's duration to pin structural
        // distinctness.
        let mut stamped = Assay::new("stamped");
        for (id, op) in spec.assay.iter() {
            if id == OpId(0) {
                stamped.add_op(op.clone().with_duration(Duration::fixed(1_000_000 + i)));
            } else {
                stamped.add_op(op.clone());
            }
        }
        for (p, c) in spec.assay.dependencies() {
            stamped.add_dependency(p, c).expect("same DAG");
        }
        spec.assay = stamped;
        let t = TransportTimes::initial(&spec.assay, &tconfig);
        let key = CanonicalLayerKey::of(&spec.problem(&t, &costs), "h");
        assert!(
            seen.insert(key.canon_bytes().to_vec()),
            "entry {i} collided with an earlier corpus entry"
        );
    }
}
