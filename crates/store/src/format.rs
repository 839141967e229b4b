//! The `mfhls-store/v2` on-disk format (still reading v1): segment framing
//! and the solution record payloads.
//!
//! # Segment layout
//!
//! ```text
//! +----------------------+  offset 0
//! | magic  "MFHLSTO2"    |  8 bytes — names the format version
//! +----------------------+  ("MFHLSTO1" segments are read too)
//! | record               |  repeated until EOF
//! |   kind      u8       |  1–4, see below; this build writes 3
//! |   len       u32 LE   |  payload length in bytes
//! |   checksum  u64 LE   |  FNV-1a 64 over kind ‖ len ‖ payload
//! |   payload   [u8;len] |
//! +----------------------+
//! ```
//!
//! The checksum covers the *framing* (kind and length) as well as the
//! payload, so a bit flip anywhere in a record — including one that would
//! misframe every subsequent record — is detected. Scanning is resumable
//! after a payload-level corruption (the framing still walks), and a
//! record that runs past the end of the segment is a *torn tail*: the
//! signature of a crash mid-append, reported with the offset to truncate
//! back to.
//!
//! # Solution record payloads
//!
//! Every kind carries a context string (the [`CacheContext`]
//! canonical encoding), the [`LayerKeyParts`], and the [`LayerSolution`] —
//! everything a later process needs to answer a run's read-through for
//! that layer. Kinds 1 and 2 end with the eleven pre-0.11 solver counters;
//! kinds 3 and 4 count-prefix them ([`KIND_SOLUTION_V3`]).
//!
//! Kinds 2 and 4 are *read, never written*. Releases 0.9.0–0.15.0 wrote
//! them with two length-prefixed byte strings between the key and the
//! solution: the `canon` and `positional` bytes of a canonical layer
//! index that has since been removed. The reader skips both strings and
//! keeps the rest, so directories those releases wrote still open warm
//! and answer exact lookups. Unknown-but-checksummed kinds are skipped,
//! which is how a reader survives a newer writer's record types.
//!
//! [`CacheContext`]: mfhls_core::CacheContext

use crate::codec::{ByteReader, ByteWriter, DecodeError};
use mfhls_chip::{Accessory, AccessorySet, Capacity, ContainerKind, DeviceConfig};
use mfhls_core::{LayerKeyParts, LayerSolution, OpId, ScheduledOp, SolverStats};
use std::collections::BTreeSet;

/// Magic bytes of a v1 segment file; still accepted when reading.
pub const SEGMENT_MAGIC: &[u8; 8] = b"MFHLSTO1";

/// Magic bytes of a v2 segment file; what new segments are created with.
pub const SEGMENT_MAGIC_V2: &[u8; 8] = b"MFHLSTO2";

/// Record kind tag of a v1 solution record (fixed 11-field solver stats).
pub const KIND_SOLUTION: u8 = 1;

/// Record kind tag of a v2 solution record that also carries the bytes of
/// the retired canonical layer index (fixed 11-field solver stats). Read,
/// never written.
pub const KIND_CANONICAL_SOLUTION: u8 = 2;

/// Kind 1 layout with *count-prefixed* solver stats: the stats block
/// starts with its field count, so adding counters (as 0.11's SDC and
/// portfolio backends did) never needs another record kind — old readers
/// skip the unknown kind, this reader zero-fills missing fields and
/// ignores extras. The only kind this build writes.
pub const KIND_SOLUTION_V3: u8 = 3;

/// Kind 2 layout with count-prefixed solver stats (see
/// [`KIND_SOLUTION_V3`]). Read, never written.
pub const KIND_CANONICAL_SOLUTION_V3: u8 = 4;

/// Bytes of framing ahead of every payload: kind + len + checksum.
pub const RECORD_HEADER_LEN: usize = 1 + 4 + 8;

/// Sanity cap on one record's payload (64 MiB); anything larger is
/// treated as corrupt framing rather than attempted.
pub const MAX_PAYLOAD_LEN: u32 = 64 << 20;

/// FNV-1a 64-bit over `bytes` — small, dependency-free, and with the
/// record length in the mix it reliably flags torn and flipped records.
pub fn fnv1a64(chunks: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in *chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One persisted cache entry.
#[derive(Debug, Clone, PartialEq)]
pub struct SolutionRecord {
    /// The run-context scope ([`mfhls_core::CacheContext`] canonical form).
    pub context: String,
    /// The layer key, decomposed.
    pub key: LayerKeyParts,
    /// The solved layer.
    pub solution: LayerSolution,
}

/// Frames `payload` as one on-disk record (kind + len + checksum + bytes).
pub fn frame_record(kind: u8, payload: &[u8]) -> Vec<u8> {
    let len = payload.len() as u32;
    let len_bytes = len.to_le_bytes();
    let checksum = fnv1a64(&[&[kind], &len_bytes, payload]);
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    out.push(kind);
    out.extend_from_slice(&len_bytes);
    out.extend_from_slice(&checksum.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// How a payload's solver-stats block is laid out (see the kind tags).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StatsLayout {
    /// Kinds 1/2: exactly the eleven pre-0.11 counters, no count prefix.
    Fixed11,
    /// Kinds 3/4: a field count followed by that many counters.
    Counted,
}

/// Encodes one record ready to append, as kind 3: framing plus payload.
pub fn encode_record(record: &SolutionRecord) -> Vec<u8> {
    encode_record_parts(&record.context, &record.key, &record.solution)
}

/// [`encode_record`] from borrowed parts, so a caller that holds them
/// need not assemble an owned [`SolutionRecord`] first.
pub fn encode_record_parts(
    context: &str,
    key: &LayerKeyParts,
    solution: &LayerSolution,
) -> Vec<u8> {
    encode_payload(context, key, solution, KIND_SOLUTION_V3, [&[], &[]])
}

/// Encodes `record` as any readable kind, the way earlier releases framed
/// it: kinds 1 and 2 with the fixed eleven-counter stats block (later
/// counters are dropped), kinds 2 and 4 with `canonical` (the retired
/// index's `canon` and `positional` bytes) between the key and the
/// solution. Like [`empty_segment_v1`], it exists so compatibility tests
/// and tooling can fabricate directories that 0.9.0–0.15.0 wrote.
pub fn encode_record_as(record: &SolutionRecord, kind: u8, canonical: [&[u8]; 2]) -> Vec<u8> {
    encode_payload(
        &record.context,
        &record.key,
        &record.solution,
        kind,
        canonical,
    )
}

fn encode_payload(
    context: &str,
    key: &LayerKeyParts,
    solution: &LayerSolution,
    kind: u8,
    canonical: [&[u8]; 2],
) -> Vec<u8> {
    let layout = stats_layout(kind).unwrap_or(StatsLayout::Counted);
    let mut w = ByteWriter::new();
    w.str(context);
    encode_key(&mut w, key);
    if carries_canonical_bytes(kind) {
        for bytes in canonical {
            w.bytes(bytes);
        }
    }
    encode_solution(&mut w, solution, layout);
    frame_record(kind, &w.finish())
}

/// Decodes a solution-record payload of any kind 1–4 (the checksum has
/// already been verified by the scanner). The canonical bytes of kinds 2
/// and 4 are read past and dropped.
pub fn decode_record(payload: &[u8], kind: u8) -> Result<SolutionRecord, DecodeError> {
    let layout = stats_layout(kind)?;
    let mut r = ByteReader::new(payload);
    let context = r.str()?.to_owned();
    let key = decode_key(&mut r)?;
    if carries_canonical_bytes(kind) {
        r.bytes()?;
        r.bytes()?;
    }
    let solution = decode_solution(&mut r, layout)?;
    if !r.is_exhausted() {
        return Err(DecodeError);
    }
    Ok(SolutionRecord {
        context,
        key,
        solution,
    })
}

fn carries_canonical_bytes(kind: u8) -> bool {
    matches!(kind, KIND_CANONICAL_SOLUTION | KIND_CANONICAL_SOLUTION_V3)
}

fn stats_layout(kind: u8) -> Result<StatsLayout, DecodeError> {
    match kind {
        KIND_SOLUTION | KIND_CANONICAL_SOLUTION => Ok(StatsLayout::Fixed11),
        KIND_SOLUTION_V3 | KIND_CANONICAL_SOLUTION_V3 => Ok(StatsLayout::Counted),
        _ => Err(DecodeError),
    }
}

fn encode_key(w: &mut ByteWriter, key: &LayerKeyParts) {
    w.size(key.layer);
    w.size(key.ops.len());
    for op in &key.ops {
        w.size(op.index());
    }
    w.size(key.devices.len());
    for d in &key.devices {
        encode_device(w, d);
    }
    w.size(key.bindable.len());
    for &b in &key.bindable {
        w.u8(u8::from(b));
    }
    w.size(key.existing_paths.len());
    for &(a, b) in &key.existing_paths {
        w.size(a);
        w.size(b);
    }
    w.size(key.cross_inputs.len());
    for &(op, d) in &key.cross_inputs {
        w.size(op.index());
        w.size(d);
    }
    w.size(key.transport.len());
    for &t in &key.transport {
        w.u64(t);
    }
}

fn decode_key(r: &mut ByteReader<'_>) -> Result<LayerKeyParts, DecodeError> {
    let layer = r.size()?;
    let ops = decode_vec(r, |r| Ok(OpId(r.size()?)))?;
    let devices = decode_vec(r, decode_device)?;
    let bindable = decode_vec(r, |r| match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(DecodeError),
    })?;
    let existing_paths = decode_vec(r, |r| Ok((r.size()?, r.size()?)))?;
    let cross_inputs = decode_vec(r, |r| Ok((OpId(r.size()?), r.size()?)))?;
    let transport = decode_vec(r, |r| r.u64())?;
    Ok(LayerKeyParts {
        layer,
        ops,
        devices,
        bindable,
        existing_paths,
        cross_inputs,
        transport,
    })
}

fn encode_solution(w: &mut ByteWriter, sol: &LayerSolution, layout: StatsLayout) {
    w.size(sol.slots.len());
    for s in &sol.slots {
        w.size(s.op.index());
        w.size(s.device);
        w.u64(s.start);
        w.u64(s.duration);
        w.u64(s.transport);
    }
    w.size(sol.devices.len());
    for d in &sol.devices {
        encode_device(w, d);
    }
    w.size(sol.new_devices.len());
    for &d in &sol.new_devices {
        w.size(d);
    }
    w.size(sol.new_paths.len());
    for &(a, b) in &sol.new_paths {
        w.size(a);
        w.size(b);
    }
    w.u64(sol.objective);
    encode_stats(w, &sol.stats, layout);
}

fn decode_solution(
    r: &mut ByteReader<'_>,
    layout: StatsLayout,
) -> Result<LayerSolution, DecodeError> {
    let slots = decode_vec(r, |r| {
        Ok(ScheduledOp {
            op: OpId(r.size()?),
            device: r.size()?,
            start: r.u64()?,
            duration: r.u64()?,
            transport: r.u64()?,
        })
    })?;
    let devices = decode_vec(r, decode_device)?;
    let new_devices = decode_vec(r, |r| r.size())?;
    let new_paths: BTreeSet<(usize, usize)> = decode_vec(r, |r| Ok((r.size()?, r.size()?)))?
        .into_iter()
        .collect();
    let objective = r.u64()?;
    let stats = decode_stats(r, layout)?;
    Ok(LayerSolution {
        slots,
        devices,
        new_devices,
        new_paths,
        objective,
        stats,
    })
}

/// The canonical field order of the stats block. Append-only: new
/// counters go at the end so counted-layout records decode across
/// versions (missing fields zero-fill, unknown trailing fields are
/// ignored).
const STATS_FIELDS: usize = 19;

fn stats_fields(st: &SolverStats) -> [u64; STATS_FIELDS] {
    [
        st.ilp_solves,
        st.proven_optimal,
        st.nodes,
        st.pivots,
        st.warm_solves,
        st.cold_solves,
        st.incumbents_supplied,
        st.incumbents_diving,
        st.incumbents_search,
        st.heuristic_rounds,
        st.rebind_adoptions,
        st.sdc_solves,
        st.sdc_constraints,
        st.sdc_retracts,
        st.sdc_relaxations,
        st.portfolio_races,
        st.wins_heuristic,
        st.wins_sdc,
        st.wins_ilp,
    ]
}

fn stats_from_fields(vals: [u64; STATS_FIELDS]) -> SolverStats {
    SolverStats {
        ilp_solves: vals[0],
        proven_optimal: vals[1],
        nodes: vals[2],
        pivots: vals[3],
        warm_solves: vals[4],
        cold_solves: vals[5],
        incumbents_supplied: vals[6],
        incumbents_diving: vals[7],
        incumbents_search: vals[8],
        heuristic_rounds: vals[9],
        rebind_adoptions: vals[10],
        sdc_solves: vals[11],
        sdc_constraints: vals[12],
        sdc_retracts: vals[13],
        sdc_relaxations: vals[14],
        portfolio_races: vals[15],
        wins_heuristic: vals[16],
        wins_sdc: vals[17],
        wins_ilp: vals[18],
    }
}

fn encode_stats(w: &mut ByteWriter, st: &SolverStats, layout: StatsLayout) {
    let fields = stats_fields(st);
    let count = match layout {
        StatsLayout::Fixed11 => 11,
        StatsLayout::Counted => {
            w.size(fields.len());
            fields.len()
        }
    };
    for v in &fields[..count] {
        w.u64(*v);
    }
}

fn decode_stats(r: &mut ByteReader<'_>, layout: StatsLayout) -> Result<SolverStats, DecodeError> {
    let count = match layout {
        StatsLayout::Fixed11 => 11,
        StatsLayout::Counted => r.size()?,
    };
    let mut vals = [0u64; STATS_FIELDS];
    for i in 0..count {
        let v = r.u64()?;
        if let Some(slot) = vals.get_mut(i) {
            *slot = v;
        }
    }
    Ok(stats_from_fields(vals))
}

fn encode_device(w: &mut ByteWriter, d: &DeviceConfig) {
    w.u8(match d.container() {
        ContainerKind::Ring => 0,
        ContainerKind::Chamber => 1,
    });
    w.u8(d.capacity().index() as u8);
    let mut bits = 0u8;
    for a in Accessory::ALL {
        if d.accessories().contains(a) {
            bits |= 1 << a.index();
        }
    }
    w.u8(bits);
}

fn decode_device(r: &mut ByteReader<'_>) -> Result<DeviceConfig, DecodeError> {
    let container = match r.u8()? {
        0 => ContainerKind::Ring,
        1 => ContainerKind::Chamber,
        _ => return Err(DecodeError),
    };
    let capacity = *Capacity::ALL.get(r.u8()? as usize).ok_or(DecodeError)?;
    let bits = r.u8()?;
    if bits & !0b1_1111 != 0 {
        return Err(DecodeError);
    }
    let mut accessories = AccessorySet::empty();
    for a in Accessory::ALL {
        if bits & (1 << a.index()) != 0 {
            accessories.insert(a);
        }
    }
    // An invalid container/capacity combination means a corrupt byte that
    // happened to survive the checksum; reject it rather than panic.
    DeviceConfig::new(container, capacity, accessories).map_err(|_| DecodeError)
}

fn decode_vec<T>(
    r: &mut ByteReader<'_>,
    mut item: impl FnMut(&mut ByteReader<'_>) -> Result<T, DecodeError>,
) -> Result<Vec<T>, DecodeError> {
    let n = r.size()?;
    // Cap the pre-allocation by what the input could possibly hold (one
    // byte per item minimum) so a lying length cannot balloon memory.
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push(item(r)?);
    }
    Ok(out)
}

/// Result of scanning one segment's bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentScan {
    /// Decoded records, in file order.
    pub records: Vec<SolutionRecord>,
    /// Records skipped because their checksum failed or their payload
    /// would not decode, with their byte offsets.
    pub quarantined: Vec<(u64, crate::error::CorruptKind)>,
    /// Offset of the first byte of a torn tail, if the segment ends
    /// mid-record. Truncating to this offset makes the segment clean.
    pub torn_tail_at: Option<u64>,
    /// Offset one past the last fully-framed record (where appends should
    /// resume after truncating any tail).
    pub clean_len: u64,
}

/// Scans a whole segment image: validates the magic, then walks records,
/// quarantining corrupt ones and stopping at a torn tail. Never panics,
/// whatever the bytes.
pub fn scan_segment(bytes: &[u8]) -> Result<SegmentScan, crate::error::CorruptKind> {
    use crate::error::CorruptKind;
    let magic_ok = bytes.len() >= SEGMENT_MAGIC.len()
        && (&bytes[..SEGMENT_MAGIC.len()] == SEGMENT_MAGIC
            || &bytes[..SEGMENT_MAGIC_V2.len()] == SEGMENT_MAGIC_V2);
    if !magic_ok {
        return Err(CorruptKind::BadHeader);
    }
    let mut scan = SegmentScan {
        records: Vec::new(),
        quarantined: Vec::new(),
        torn_tail_at: None,
        clean_len: SEGMENT_MAGIC.len() as u64,
    };
    let mut pos = SEGMENT_MAGIC.len();
    while pos < bytes.len() {
        let remaining = &bytes[pos..];
        if remaining.len() < RECORD_HEADER_LEN {
            scan.torn_tail_at = Some(pos as u64);
            break;
        }
        let kind = remaining[0];
        let len = u32::from_le_bytes([remaining[1], remaining[2], remaining[3], remaining[4]]);
        let checksum = u64::from_le_bytes([
            remaining[5],
            remaining[6],
            remaining[7],
            remaining[8],
            remaining[9],
            remaining[10],
            remaining[11],
            remaining[12],
        ]);
        if len > MAX_PAYLOAD_LEN {
            // The length itself is impossible: framing is untrustworthy
            // from here on. Everything to EOF is one quarantined tail.
            scan.quarantined.push((pos as u64, CorruptKind::BadFraming));
            scan.torn_tail_at = Some(pos as u64);
            break;
        }
        let end = pos + RECORD_HEADER_LEN + len as usize;
        if end > bytes.len() {
            // Runs past EOF: either a torn append or a flipped length
            // bit. Either way the tail is unusable.
            scan.torn_tail_at = Some(pos as u64);
            break;
        }
        let payload = &bytes[pos + RECORD_HEADER_LEN..end];
        let expected = fnv1a64(&[&[kind], &len.to_le_bytes(), payload]);
        if expected != checksum {
            scan.quarantined
                .push((pos as u64, CorruptKind::ChecksumMismatch));
        } else if stats_layout(kind).is_ok() {
            match decode_record(payload, kind) {
                Ok(rec) => scan.records.push(rec),
                Err(_) => scan.quarantined.push((pos as u64, CorruptKind::BadPayload)),
            }
        } else {
            // Unknown-but-checksummed kinds are skipped silently: that is
            // how an old reader survives a newer writer's record types.
        }
        pos = end;
        scan.clean_len = pos as u64;
    }
    Ok(scan)
}

/// A fresh segment image: just the (v2) magic, ready for appends.
pub fn empty_segment() -> Vec<u8> {
    SEGMENT_MAGIC_V2.to_vec()
}

/// A fresh *v1* segment image — kept for compatibility tests and for
/// tooling that needs to fabricate v1 directories.
pub fn empty_segment_v1() -> Vec<u8> {
    SEGMENT_MAGIC.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(tag: u64) -> SolutionRecord {
        SolutionRecord {
            context: format!("ctx-{tag}"),
            key: LayerKeyParts {
                layer: tag as usize,
                ops: vec![OpId(0), OpId(1)],
                devices: vec![],
                bindable: vec![true, false],
                existing_paths: vec![(0, 1)],
                cross_inputs: vec![(OpId(2), 3)],
                transport: vec![tag, tag + 1],
            },
            solution: LayerSolution {
                slots: vec![ScheduledOp {
                    op: OpId(0),
                    device: 0,
                    start: 0,
                    duration: tag,
                    transport: 2,
                }],
                devices: vec![],
                new_devices: vec![0],
                new_paths: [(0, 1)].into_iter().collect(),
                objective: tag * 7,
                stats: SolverStats {
                    ilp_solves: tag,
                    sdc_solves: tag + 1,
                    sdc_relaxations: tag * 3,
                    portfolio_races: 1,
                    wins_sdc: 1,
                    ..SolverStats::default()
                },
            },
        }
    }

    /// `rec` framed as kind 4, the way 0.11.0–0.15.0 persisted it with
    /// the canonical index's bytes.
    fn kind_4(rec: &SolutionRecord, tag: u64) -> Vec<u8> {
        let canon = format!("canon-{tag}").into_bytes();
        let positional = format!("pos-{tag}").into_bytes();
        encode_record_as(rec, KIND_CANONICAL_SOLUTION_V3, [&canon, &positional])
    }

    #[test]
    fn record_round_trips() {
        let rec = sample_record(9);
        let framed = encode_record(&rec);
        assert_eq!(framed[0], KIND_SOLUTION_V3);
        let payload = &framed[RECORD_HEADER_LEN..];
        assert_eq!(decode_record(payload, KIND_SOLUTION_V3), Ok(rec));
    }

    #[test]
    fn canonical_record_round_trips_as_kind_4() {
        // The canonical bytes are read past; everything else survives.
        let rec = sample_record(11);
        let framed = kind_4(&rec, 11);
        assert_eq!(framed[0], KIND_CANONICAL_SOLUTION_V3);
        assert!(framed.len() > encode_record(&rec).len());
        let payload = &framed[RECORD_HEADER_LEN..];
        assert_eq!(decode_record(payload, KIND_CANONICAL_SOLUTION_V3), Ok(rec));
    }

    #[test]
    fn legacy_fixed_stats_records_still_decode() {
        let mut rec = sample_record(5);
        // A pre-0.11 writer could not have persisted the new counters.
        rec.solution.stats.sdc_solves = 0;
        rec.solution.stats.sdc_relaxations = 0;
        rec.solution.stats.portfolio_races = 0;
        rec.solution.stats.wins_sdc = 0;
        let framed = encode_record_as(&rec, KIND_SOLUTION, [&[], &[]]);
        assert_eq!(framed[0], KIND_SOLUTION);
        let payload = &framed[RECORD_HEADER_LEN..];
        let decoded = decode_record(payload, KIND_SOLUTION).expect("legacy layout decodes");
        assert_eq!(decoded, rec);
        assert_eq!(decoded.solution.stats.sdc_solves, 0);
    }

    #[test]
    fn scanner_reads_both_magics_and_both_kinds() {
        // A v1 segment containing a kind-3 record plus a (future, to a v1
        // writer) kind-4 record scans fully under the v2 reader...
        let mut v1 = empty_segment_v1();
        v1.extend(encode_record(&sample_record(1)));
        v1.extend(kind_4(&sample_record(2), 2));
        let scan = scan_segment(&v1).expect("v1 magic accepted");
        assert_eq!(scan.records, vec![sample_record(1), sample_record(2)]);

        // ...and a fresh v2 segment likewise.
        let mut v2 = empty_segment();
        assert_eq!(&v2[..8], SEGMENT_MAGIC_V2);
        v2.extend(kind_4(&sample_record(3), 3));
        let scan = scan_segment(&v2).expect("v2 magic accepted");
        assert_eq!(scan.records, vec![sample_record(3)]);
    }

    #[test]
    fn scan_detects_flip_tear_and_unknown_kind() {
        use crate::error::CorruptKind;
        let mut seg = empty_segment();
        seg.extend(encode_record(&sample_record(1)));
        let second_at = seg.len();
        seg.extend(encode_record(&sample_record(2)));
        seg.extend(frame_record(42, b"future record kind"));
        let third_kind_end = seg.len();
        seg.extend(encode_record(&sample_record(3)));

        let clean = scan_segment(&seg).expect("header is intact");
        assert_eq!(clean.records.len(), 3);
        assert!(clean.quarantined.is_empty());
        assert_eq!(clean.torn_tail_at, None);
        assert_eq!(clean.clean_len, seg.len() as u64);

        // Flip one payload bit of the second record: it alone quarantines.
        let mut flipped = seg.clone();
        flipped[second_at + RECORD_HEADER_LEN + 3] ^= 0x10;
        let scan = scan_segment(&flipped).expect("header still intact");
        assert_eq!(scan.records.len(), 2);
        assert_eq!(
            scan.quarantined,
            vec![(second_at as u64, CorruptKind::ChecksumMismatch)]
        );

        // Cut the final record short: torn tail at its start offset.
        let torn = &seg[..seg.len() - 5];
        let scan = scan_segment(torn).expect("header still intact");
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.torn_tail_at, Some(third_kind_end as u64));
        assert_eq!(scan.clean_len, third_kind_end as u64);

        // A wrong magic is rejected outright.
        let mut bad = seg;
        bad[0] ^= 0xFF;
        assert_eq!(scan_segment(&bad), Err(CorruptKind::BadHeader));
    }
}
