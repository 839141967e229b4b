//! Property tests of the `mfhls-store/v2` record format (and its
//! compatibility with every record kind earlier releases wrote) plus the
//! store's crash-replay behaviour, driven by the workspace's vendored
//! [`SplitMix64`] — no external property-testing dependency.
//!
//! The load-bearing properties:
//!
//! * **Round-trip**: any encodable [`SolutionRecord`], framed as any of
//!   the readable kinds 1–4, decodes back to an equal value through the
//!   full segment scanner.
//! * **Torn-tail totality**: truncating a segment at *every* byte offset
//!   inside its final record yields the clean prefix of records, a torn
//!   tail at the final record's start, and never an error or a wrong
//!   record. This is the on-disk image a SIGKILL mid-`write(2)` leaves.
//! * **Flip detection**: flipping any single bit of a record region is
//!   caught by the checksum (FNV-1a's xor-multiply steps are bijections,
//!   so distinct inputs of equal length cannot collide via one byte) —
//!   a corrupt record is quarantined, never returned.
//! * **Crash replay**: a store reopened over a truncated disk image
//!   serves exactly the records written before the cut and accepts new
//!   appends afterwards.

use mfhls_chip::{Accessory, AccessorySet, ContainerKind, DeviceConfig};
use mfhls_core::{CacheContext, LayerKey, LayerKeyParts, OpId};
use mfhls_core::{LayerSolution, ScheduledOp, SolverStats};
use mfhls_graph::rng::SplitMix64;
use mfhls_store::format::{
    empty_segment, empty_segment_v1, encode_record, encode_record_as, scan_segment, SolutionRecord,
    KIND_CANONICAL_SOLUTION, KIND_CANONICAL_SOLUTION_V3, KIND_SOLUTION, KIND_SOLUTION_V3,
    SEGMENT_MAGIC, SEGMENT_MAGIC_V2,
};
use mfhls_store::{MemIo, SolutionStore, StoreConfig};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

/// Uniform `usize` in `[0, n)` — `gen_range_u64` is inclusive on both
/// ends, so wrap it once rather than sprinkle `- 1` everywhere.
fn below(rng: &mut SplitMix64, n: usize) -> usize {
    rng.gen_range_u64(0, n as u64 - 1) as usize
}

fn rng_device(rng: &mut SplitMix64) -> DeviceConfig {
    let container = ContainerKind::ALL[below(rng, ContainerKind::ALL.len())];
    let capacities = container.valid_capacities();
    let capacity = capacities[below(rng, capacities.len())];
    let mut accessories = AccessorySet::empty();
    for a in Accessory::ALL {
        if rng.gen_bool(0.3) {
            accessories.insert(a);
        }
    }
    DeviceConfig::new(container, capacity, accessories).expect("capacity drawn from valid set")
}

fn rng_key(rng: &mut SplitMix64) -> LayerKeyParts {
    let n_ops = below(rng, 6);
    let n_dev = 1 + below(rng, 4);
    LayerKeyParts {
        layer: below(rng, 12),
        ops: (0..n_ops).map(|_| OpId(below(rng, 64))).collect(),
        devices: (0..n_dev).map(|_| rng_device(rng)).collect(),
        bindable: (0..n_dev).map(|_| rng.gen_bool(0.5)).collect(),
        existing_paths: (0..below(rng, 4))
            .map(|_| (below(rng, 8), below(rng, 8)))
            .collect(),
        cross_inputs: (0..below(rng, 3))
            .map(|_| (OpId(below(rng, 64)), below(rng, 8)))
            .collect(),
        transport: (0..n_ops).map(|_| below(rng, 100) as u64).collect(),
    }
}

fn rng_solution(rng: &mut SplitMix64) -> LayerSolution {
    let n_slots = 1 + below(rng, 5);
    let n_dev = 1 + below(rng, 5);
    let mut new_paths = BTreeSet::new();
    for _ in 0..below(rng, 4) {
        new_paths.insert((below(rng, n_dev), below(rng, n_dev)));
    }
    LayerSolution {
        slots: (0..n_slots)
            .map(|_| ScheduledOp {
                op: OpId(below(rng, 64)),
                device: below(rng, n_dev),
                start: below(rng, 1000) as u64,
                duration: 1 + below(rng, 499) as u64,
                transport: below(rng, 50) as u64,
            })
            .collect(),
        devices: (0..n_dev).map(|_| rng_device(rng)).collect(),
        new_devices: (0..below(rng, n_dev + 1))
            .map(|_| below(rng, n_dev))
            .collect(),
        new_paths,
        objective: rng.next_u64() >> 16,
        stats: SolverStats {
            ilp_solves: below(rng, 10) as u64,
            proven_optimal: below(rng, 10) as u64,
            nodes: rng.next_u64() >> 40,
            pivots: rng.next_u64() >> 40,
            warm_solves: below(rng, 10) as u64,
            cold_solves: below(rng, 10) as u64,
            incumbents_supplied: below(rng, 10) as u64,
            incumbents_diving: below(rng, 10) as u64,
            incumbents_search: below(rng, 10) as u64,
            heuristic_rounds: below(rng, 10) as u64,
            rebind_adoptions: below(rng, 10) as u64,
            sdc_solves: below(rng, 4) as u64,
            sdc_constraints: below(rng, 200) as u64,
            sdc_retracts: below(rng, 50) as u64,
            sdc_relaxations: below(rng, 500) as u64,
            portfolio_races: below(rng, 2) as u64,
            wins_heuristic: below(rng, 2) as u64,
            wins_sdc: below(rng, 2) as u64,
            wins_ilp: below(rng, 2) as u64,
        },
    }
}

fn rng_record(rng: &mut SplitMix64) -> SolutionRecord {
    SolutionRecord {
        context: format!("cfg:prop-{}|", below(rng, 1 << 20)),
        key: rng_key(rng),
        solution: rng_solution(rng),
    }
}

fn rng_bytes(rng: &mut SplitMix64) -> Vec<u8> {
    (0..8 + below(rng, 24))
        .map(|_| rng.next_u64() as u8)
        .collect()
}

const KINDS: [u8; 4] = [
    KIND_SOLUTION,
    KIND_CANONICAL_SOLUTION,
    KIND_SOLUTION_V3,
    KIND_CANONICAL_SOLUTION_V3,
];

/// `record` framed as `kind`, the way the release that wrote that kind
/// persisted it: kinds 2 and 4 carry the retired canonical index's
/// `canon` and `positional` bytes, which the reader skips. Kinds 1 and 2
/// hold only the eleven pre-0.11 solver counters, so the later ones are
/// zeroed in `record` first.
fn frame_as(record: &mut SolutionRecord, kind: u8, rng: &mut SplitMix64) -> Vec<u8> {
    if kind == KIND_SOLUTION || kind == KIND_CANONICAL_SOLUTION {
        record.solution.stats = SolverStats {
            sdc_solves: 0,
            sdc_constraints: 0,
            sdc_retracts: 0,
            sdc_relaxations: 0,
            portfolio_races: 0,
            wins_heuristic: 0,
            wins_sdc: 0,
            wins_ilp: 0,
            ..record.solution.stats
        };
    }
    let (canon, positional) = (rng_bytes(rng), rng_bytes(rng));
    encode_record_as(record, kind, [&canon, &positional])
}

/// A random record and its frame, in a random readable kind, so every
/// property below (round-trip, torn tails, bit flips) covers the bytes
/// this build reads past as well as the kind it writes.
fn rng_framed(rng: &mut SplitMix64) -> (SolutionRecord, Vec<u8>) {
    let mut record = rng_record(rng);
    let kind = KINDS[below(rng, KINDS.len())];
    let framed = frame_as(&mut record, kind, rng);
    (record, framed)
}

fn rng_corpus(rng: &mut SplitMix64, n: usize) -> (Vec<SolutionRecord>, Vec<Vec<u8>>) {
    (0..n).map(|_| rng_framed(rng)).unzip()
}

fn segment_of(frames: &[Vec<u8>]) -> Vec<u8> {
    let mut seg = SEGMENT_MAGIC.to_vec();
    for f in frames {
        seg.extend_from_slice(f);
    }
    seg
}

#[test]
fn random_records_round_trip_through_the_segment_scanner() {
    let mut rng = SplitMix64::seed_from_u64(0x5eed_0001);
    for _ in 0..64 {
        let (record, framed) = rng_framed(&mut rng);
        let scan = scan_segment(&segment_of(&[framed])).expect("well-formed segment scans");
        assert_eq!(scan.records, vec![record]);
        assert!(scan.quarantined.is_empty());
        assert_eq!(scan.torn_tail_at, None);
    }
}

#[test]
fn multi_record_segments_scan_in_order() {
    let mut rng = SplitMix64::seed_from_u64(0x5eed_0002);
    let (records, frames) = rng_corpus(&mut rng, 32);
    let seg = segment_of(&frames);
    let scan = scan_segment(&seg).expect("well-formed segment scans");
    assert_eq!(scan.records, records);
    assert!(scan.quarantined.is_empty());
    assert_eq!(scan.clean_len, seg.len() as u64);
}

#[test]
fn truncation_at_every_byte_offset_of_the_final_record_is_a_torn_tail() {
    let mut rng = SplitMix64::seed_from_u64(0x5eed_0003);
    let (records, frames) = rng_corpus(&mut rng, 3);
    let seg = segment_of(&frames);
    let boundary = segment_of(&frames[..2]).len();
    for cut in boundary..seg.len() {
        let scan = scan_segment(&seg[..cut])
            .unwrap_or_else(|e| panic!("truncation at {cut} must scan, got {e:?}"));
        assert_eq!(scan.records, records[..2], "cut at {cut}");
        assert!(scan.quarantined.is_empty(), "cut at {cut}");
        assert_eq!(scan.clean_len, boundary as u64, "cut at {cut}");
        if cut == boundary {
            assert_eq!(scan.torn_tail_at, None, "clean cut is not torn");
        } else {
            assert_eq!(scan.torn_tail_at, Some(boundary as u64), "cut at {cut}");
        }
    }
}

#[test]
fn any_single_bit_flip_in_a_record_is_never_served_as_valid() {
    let mut rng = SplitMix64::seed_from_u64(0x5eed_0004);
    for kind in KINDS {
        let mut record = rng_record(&mut rng);
        let seg = segment_of(&[frame_as(&mut record, kind, &mut rng)]);
        for at in SEGMENT_MAGIC.len()..seg.len() {
            for bit in 0..8 {
                let mut bad = seg.clone();
                bad[at] ^= 1 << bit;
                let scan = scan_segment(&bad).unwrap_or_else(|e| {
                    panic!("kind {kind} flip at {at}.{bit}: header intact, got {e:?}")
                });
                assert!(
                    scan.records.is_empty(),
                    "kind {kind}: flip at byte {at} bit {bit} produced a record"
                );
                assert!(
                    !scan.quarantined.is_empty() || scan.torn_tail_at.is_some(),
                    "kind {kind}: flip at byte {at} bit {bit} went unnoticed"
                );
            }
        }
    }
}

#[test]
fn crash_truncated_store_reloads_the_clean_prefix_and_keeps_working() {
    let dir = Path::new("/mem/crash");
    let seg_path = dir.join("segment-00001.mfs");
    let ctx = CacheContext::from_canonical("cfg:crash|");
    let mut rng = SplitMix64::seed_from_u64(0x5eed_0005);
    let entries: Vec<(LayerKey, LayerSolution)> = (0..6)
        .map(|_| {
            (
                LayerKey::from_parts(rng_key(&mut rng)),
                rng_solution(&mut rng),
            )
        })
        .collect();

    // Write a pristine store, then capture its bytes.
    let io = Arc::new(MemIo::new());
    let store = SolutionStore::open(dir, StoreConfig::default(), io.clone());
    for (key, sol) in &entries {
        store.append(&ctx, key, sol).expect("MemIo append succeeds");
    }
    let full = io.contents(&seg_path).expect("segment exists");
    drop(store);

    // Record boundaries: reopen at every record count to learn offsets.
    let scan = scan_segment(&full).expect("pristine segment scans");
    assert_eq!(scan.records.len(), entries.len());

    // Chop the image at every byte offset ("SIGKILL landed here") and
    // reopen: the store must load exactly the records wholly before the
    // cut, quarantine the tail, stay writable, and never error.
    for cut in SEGMENT_MAGIC.len()..full.len() {
        let io = Arc::new(MemIo::new());
        io.set_contents(&seg_path, full[..cut].to_vec());
        let reopened = SolutionStore::open(dir, StoreConfig::default(), io.clone());
        let stats = reopened.stats();
        assert!(!stats.degraded, "cut at {cut}: {stats:?}");
        let expect_loaded = scan_segment(&full[..cut])
            .expect("truncation scans")
            .records;
        assert_eq!(stats.loaded, expect_loaded.len() as u64, "cut at {cut}");
        for rec in &expect_loaded {
            let key = LayerKey::from_parts(rec.key.clone());
            assert_eq!(
                reopened.fetch(&CacheContext::from_canonical(&rec.context), &key),
                Some(rec.solution.clone()),
                "cut at {cut}"
            );
        }
        // The torn tail was truncated away, so a fresh append must land
        // cleanly and survive yet another reopen.
        let (key, sol) = &entries[entries.len() - 1];
        reopened
            .append(&ctx, key, sol)
            .expect("append after tail repair");
        let third = SolutionStore::open(dir, StoreConfig::default(), io);
        assert_eq!(third.fetch(&ctx, key).as_ref(), Some(sol), "cut at {cut}");
    }
}

#[test]
fn a_directory_mixing_every_record_kind_opens_warm_and_appends_kind_3() {
    let dir = Path::new("/mem/mixed");
    let mut rng = SplitMix64::seed_from_u64(0x5eed_0006);

    // Fabricate a directory as releases up to 0.15.0 left it: a v1 segment
    // of kinds 1 and 2 (0.9.0–0.10.0), then a v2 segment of kinds 3 and 4
    // (0.11.0–0.15.0).
    let mut records = Vec::new();
    let io = Arc::new(MemIo::new());
    for (seq, mut seg, kinds) in [
        (
            1,
            empty_segment_v1(),
            [KIND_SOLUTION, KIND_CANONICAL_SOLUTION],
        ),
        (
            2,
            empty_segment(),
            [KIND_SOLUTION_V3, KIND_CANONICAL_SOLUTION_V3],
        ),
    ] {
        for kind in kinds.into_iter().cycle().take(4) {
            let mut rec = rng_record(&mut rng);
            seg.extend_from_slice(&frame_as(&mut rec, kind, &mut rng));
            records.push(rec);
        }
        io.set_contents(&dir.join(format!("segment-{seq:05}.mfs")), seg);
    }

    let store = SolutionStore::open(dir, StoreConfig::default(), io.clone());
    let stats = store.stats();
    assert!(!stats.degraded, "{stats:?}");
    assert_eq!(stats.loaded, records.len() as u64);
    assert_eq!(stats.quarantined + stats.quarantined_segments, 0);
    assert_eq!(stats.entries, records.len());

    // Every record answers an exact fetch, counted as a store hit.
    for rec in &records {
        let key = LayerKey::from_parts(rec.key.clone());
        let ctx = CacheContext::from_canonical(&rec.context);
        assert_eq!(store.fetch(&ctx, &key), Some(rec.solution.clone()));
    }
    assert_eq!(store.stats().hits, records.len() as u64);

    // A re-persisted entry is a no-op; a new one lands as kind 3 in the
    // active (latest) segment and survives a reload.
    let old = &records[1];
    let old_key = LayerKey::from_parts(old.key.clone());
    let old_ctx = CacheContext::from_canonical(&old.context);
    store
        .append(&old_ctx, &old_key, &old.solution)
        .expect("dedup append");
    assert_eq!(store.stats().appended, 0);
    let fresh = rng_record(&mut rng);
    let fresh_key = LayerKey::from_parts(fresh.key.clone());
    let fresh_ctx = CacheContext::from_canonical(&fresh.context);
    let active = dir.join("segment-00002.mfs");
    let before = io.contents(&active).expect("active segment").len();
    store
        .append(&fresh_ctx, &fresh_key, &fresh.solution)
        .expect("fresh append");
    let after = io.contents(&active).expect("active segment");
    assert_eq!(after[before], KIND_SOLUTION_V3);
    assert_eq!(&after[before..], &encode_record(&fresh)[..]);
    let reopened = SolutionStore::open(dir, StoreConfig::default(), io.clone());
    assert_eq!(reopened.stats().entries, records.len() + 1);
    assert_eq!(
        reopened.fetch(&fresh_ctx, &fresh_key),
        Some(fresh.solution.clone())
    );

    // A fresh directory starts life with the v2 magic.
    let fresh_dir = Path::new("/mem/fresh");
    let _fresh = SolutionStore::open(fresh_dir, StoreConfig::default(), io.clone());
    let fresh_seg = io
        .contents(&fresh_dir.join("segment-00001.mfs"))
        .expect("fresh segment exists");
    assert_eq!(&fresh_seg[..8], SEGMENT_MAGIC_V2);
}
