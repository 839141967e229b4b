//! The crash-safe persistent solution store.
//!
//! See the crate docs for the big picture; this module holds
//! [`SolutionStore`] — open/scan/quarantine, append with rotation,
//! read-through fetch — and its degradation state machine.
//!
//! # Crash-consistency protocol
//!
//! * Segments are **append-only**; records are framed with a length and a
//!   checksum over framing + payload ([`crate::format`]).
//! * New segments are created atomically (write-temp → fsync → rename via
//!   [`StoreIo::write_atomic`]), so a segment either exists with a valid
//!   header or not at all.
//! * A crash (or SIGKILL) mid-append leaves a *torn tail*: detected at
//!   the next open by the scanner, truncated back to the last clean
//!   record, and counted as quarantined. Nothing before the tail is
//!   affected.
//! * Any write-path fault (short write, `ENOSPC`, sync failure) rolls the
//!   segment back to its pre-write length when possible and flips the
//!   store into **degraded** (memory-only) mode: every later append is
//!   dropped and counted, no error ever reaches a caller's response path,
//!   and the next process start gets a clean store again.
//! * Read-path faults at open (unreadable or misheadered segments)
//!   quarantine that segment and keep loading the rest.

use crate::error::{CorruptKind, StoreError, StoreOp};
use crate::format::{
    empty_segment, encode_record_parts, scan_segment, SolutionRecord, SEGMENT_MAGIC_V2,
};
use crate::io::StoreIo;
use mfhls_core::{CacheBacking, CacheContext, LayerKey, LayerSolution};
use mfhls_obs as obs;
use std::collections::hash_map::{Entry, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Tuning knobs of a [`SolutionStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Rotate to a fresh segment once the active one exceeds this many
    /// bytes (the bound is per segment, not per store).
    pub max_segment_bytes: u64,
    /// Fsync the active segment after every append. Off trades crash
    /// durability of the most recent appends for throughput; the format
    /// stays torn-tail-safe either way.
    pub sync_on_append: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            max_segment_bytes: 4 << 20,
            sync_on_append: true,
        }
    }
}

/// Counters and state of a [`SolutionStore`], for summaries and tests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoreStats {
    /// Records successfully loaded at open.
    pub loaded: u64,
    /// Corrupt records (checksum/payload/framing failures and torn
    /// tails) detected at load and skipped.
    pub quarantined: u64,
    /// Whole segments skipped (unreadable, or header unrecognisable).
    pub quarantined_segments: u64,
    /// Records appended by this process.
    pub appended: u64,
    /// Appends dropped because the store was degraded.
    pub dropped: u64,
    /// Read-through fetches that found a persisted solution.
    pub hits: u64,
    /// Read-through fetches that found nothing.
    pub misses: u64,
    /// Segment files seen at open (including quarantined ones).
    pub segments: u64,
    /// Entries currently indexed (loaded + appended, deduplicated).
    pub entries: usize,
    /// Whether the store has degraded to memory-only operation.
    pub degraded: bool,
    /// The fault that caused degradation (or the most recent load-time
    /// error when not degraded), rendered.
    pub last_error: Option<String>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Every live (loaded or appended) solution, by context, then key.
    index: HashMap<CacheContext, HashMap<LayerKey, LayerSolution>>,
    /// Path of the segment appends currently go to.
    active: PathBuf,
    /// Byte length of the active segment.
    active_len: u64,
    /// Sequence number of the active segment.
    active_seq: u64,
    /// `Some` once a write-path fault flipped the store to memory-only.
    degraded: Option<StoreError>,
    stats: StoreStats,
}

impl Inner {
    fn get(&self, context: &CacheContext, key: &LayerKey) -> Option<&LayerSolution> {
        self.index.get(context)?.get(key)
    }
}

/// The persistent, crash-safe, append-only solution store. Open one per
/// store directory; share it behind an [`Arc`] (it is internally
/// synchronised). Implements [`CacheBacking`], so a synthesis run handed
/// the store reads through to it and writes behind to it.
#[derive(Debug)]
pub struct SolutionStore {
    dir: PathBuf,
    config: StoreConfig,
    io: Arc<dyn StoreIo>,
    inner: Mutex<Inner>,
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("segment-{seq:05}.mfs"))
}

/// Parses `segment-NNNNN.mfs` back to `NNNNN`; anything else (temp files,
/// strangers) is ignored by the scanner.
fn segment_seq(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let rest = name.strip_prefix("segment-")?.strip_suffix(".mfs")?;
    rest.parse().ok()
}

impl SolutionStore {
    /// Opens (creating if needed) the store in `dir`. Never fails: any
    /// fault at open — unreadable directory, unreadable segments, corrupt
    /// records — is quarantined or degrades the store to memory-only
    /// operation, visible through [`SolutionStore::stats`]. A degraded
    /// store still answers fetches for whatever it managed to load.
    pub fn open(
        dir: impl Into<PathBuf>,
        config: StoreConfig,
        io: Arc<dyn StoreIo>,
    ) -> SolutionStore {
        let dir = dir.into();
        let store = SolutionStore {
            dir,
            config,
            io,
            inner: Mutex::new(Inner::default()),
        };
        store.load();
        store
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    fn load(&self) {
        let mut inner = self.locked();
        if let Err(e) = self.io.create_dir_all(&self.dir) {
            degrade(&mut inner, StoreError::io(StoreOp::Scan, &self.dir, &e));
            return;
        }
        let paths = match self.io.list(&self.dir) {
            Ok(p) => p,
            Err(e) => {
                degrade(&mut inner, StoreError::io(StoreOp::Scan, &self.dir, &e));
                return;
            }
        };
        let mut segments: Vec<(u64, PathBuf)> = paths
            .into_iter()
            .filter_map(|p| segment_seq(&p).map(|seq| (seq, p)))
            .collect();
        segments.sort();
        inner.stats.segments = segments.len() as u64;

        let mut max_seq = 0;
        for &(seq, ref path) in &segments {
            max_seq = max_seq.max(seq);
            let bytes = match self.io.read(path) {
                Ok(b) => b,
                Err(e) => {
                    inner.stats.quarantined_segments += 1;
                    let err = StoreError::io(StoreOp::Read, path, &e);
                    inner.stats.last_error = Some(err.to_string());
                    obs::diagnostic_counter("store_quarantined", 1);
                    continue;
                }
            };
            let scan = match scan_segment(&bytes) {
                Ok(s) => s,
                Err(kind) => {
                    inner.stats.quarantined_segments += 1;
                    let err = StoreError::Corrupt {
                        path: path.display().to_string(),
                        offset: 0,
                        kind,
                    };
                    inner.stats.last_error = Some(err.to_string());
                    obs::diagnostic_counter("store_quarantined", 1);
                    continue;
                }
            };
            for &(offset, ref kind) in &scan.quarantined {
                inner.stats.quarantined += 1;
                inner.stats.last_error = Some(
                    StoreError::Corrupt {
                        path: path.display().to_string(),
                        offset,
                        kind: kind.clone(),
                    }
                    .to_string(),
                );
                obs::diagnostic_counter("store_quarantined", 1);
            }
            if let Some(offset) = scan.torn_tail_at {
                inner.stats.quarantined += 1;
                inner.stats.last_error = Some(
                    StoreError::Corrupt {
                        path: path.display().to_string(),
                        offset,
                        kind: CorruptKind::TornTail,
                    }
                    .to_string(),
                );
                obs::diagnostic_counter("store_quarantined", 1);
            }
            for rec in scan.records {
                inner.stats.loaded += 1;
                index_record(&mut inner, rec);
            }
            if seq == segments.last().map(|&(s, _)| s).unwrap_or(seq) {
                // The active (latest) segment: roll any torn tail back so
                // appends resume from a clean boundary.
                inner.active = path.clone();
                inner.active_seq = seq;
                inner.active_len = scan.clean_len;
                if scan.torn_tail_at.is_some() || scan.clean_len < bytes.len() as u64 {
                    if let Err(e) = self.io.truncate(path, scan.clean_len) {
                        // Cannot clean the tail: appending after it would
                        // desync the segment, so rotate away from it.
                        let err = StoreError::io(StoreOp::Truncate, path, &e);
                        inner.stats.last_error = Some(err.to_string());
                        if !rotate(&mut inner, &*self.io, &self.dir, max_seq + 1) {
                            return;
                        }
                        max_seq += 1;
                    }
                }
            }
        }
        obs::diagnostic_counter("store_loaded", inner.stats.loaded as i64);

        if segments.is_empty() {
            // Fresh store: create the first segment atomically.
            rotate(&mut inner, &*self.io, &self.dir, 1);
            inner.stats.segments = 1;
        } else if inner.active.as_os_str().is_empty() {
            // Every segment (including the latest) was quarantined before
            // one could become active: appends need a real target, so
            // start a fresh segment after the highest existing sequence.
            if rotate(&mut inner, &*self.io, &self.dir, max_seq + 1) {
                inner.stats.segments += 1;
            }
        }
    }

    /// Returns the persisted solution for `(context, key)`, if any.
    pub fn fetch(&self, context: &CacheContext, key: &LayerKey) -> Option<LayerSolution> {
        let mut inner = self.locked();
        match inner.get(context, key).cloned() {
            Some(solution) => {
                inner.stats.hits += 1;
                obs::diagnostic_counter("store_hit", 1);
                Some(solution)
            }
            None => {
                inner.stats.misses += 1;
                obs::diagnostic_counter("store_miss", 1);
                None
            }
        }
    }

    /// Persists one solution. Deduplicates against everything already
    /// stored; rotates segments as they fill.
    ///
    /// # Errors
    ///
    /// Returns the typed fault when the write path fails — and flips the
    /// store into degraded (memory-only) mode, so callers that ignore the
    /// error (like the [`CacheBacking`] hook) still behave correctly:
    /// every later append is silently dropped and counted.
    pub fn append(
        &self,
        context: &CacheContext,
        key: &LayerKey,
        solution: &LayerSolution,
    ) -> Result<(), StoreError> {
        let mut inner = self.locked();
        if let Some(cause) = inner.degraded.as_ref().map(|e| e.to_string()) {
            inner.stats.dropped += 1;
            return Err(StoreError::Degraded { cause });
        }
        if inner.get(context, key).is_some() {
            return Ok(());
        }
        let framed = encode_record_parts(context.as_str(), key.parts(), solution);
        if inner.active_len + framed.len() as u64 > self.config.max_segment_bytes
            && inner.active_len > SEGMENT_MAGIC_V2.len() as u64
        {
            let next = inner.active_seq + 1;
            if !rotate(&mut inner, &*self.io, &self.dir, next) {
                inner.stats.dropped += 1;
                return Err(self.degraded_error(&inner));
            }
            inner.stats.segments += 1;
        }
        let pre_len = inner.active_len;
        let path = inner.active.clone();
        let fault = match self.io.append(&path, &framed) {
            Ok(n) if n == framed.len() => {
                if self.config.sync_on_append {
                    match self.io.sync(&path) {
                        Ok(()) => None,
                        Err(e) => Some(StoreError::io(StoreOp::Sync, &path, &e)),
                    }
                } else {
                    None
                }
            }
            Ok(n) => Some(StoreError::ShortWrite {
                path: path.display().to_string(),
                written: n,
                expected: framed.len(),
            }),
            Err(e) => Some(StoreError::io(StoreOp::Append, &path, &e)),
        };
        match fault {
            None => {
                inner.active_len += framed.len() as u64;
                inner.stats.appended += 1;
                index_entry(&mut inner, context.clone(), key.clone(), solution.clone());
                obs::diagnostic_counter("store_appended", 1);
                Ok(())
            }
            Some(err) => {
                // Roll the segment back so the partial record never
                // reaches a future load; if even that fails the torn tail
                // is quarantined at the next open. Either way this store
                // is done writing.
                let _ = self.io.truncate(&path, pre_len);
                degrade(&mut inner, err.clone());
                Err(err)
            }
        }
    }

    /// Whether the store has degraded to memory-only operation.
    pub fn is_degraded(&self) -> bool {
        self.locked().degraded.is_some()
    }

    /// Current counters and state.
    pub fn stats(&self) -> StoreStats {
        let inner = self.locked();
        let mut stats = inner.stats.clone();
        stats.degraded = inner.degraded.is_some();
        stats
    }
}

/// One-line summary of store state for the serve loop's stderr report.
impl std::fmt::Display for StoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} loaded, {} appended, {} quarantined",
            self.loaded,
            self.appended,
            self.quarantined + self.quarantined_segments,
        )?;
        if self.dropped > 0 {
            write!(f, ", {} dropped", self.dropped)?;
        }
        if self.degraded {
            write!(
                f,
                "; DEGRADED to memory-only ({})",
                self.last_error.as_deref().unwrap_or("unknown fault")
            )?;
        }
        Ok(())
    }
}

fn degrade(inner: &mut Inner, err: StoreError) {
    if inner.degraded.is_none() {
        let cause = err.to_string();
        obs::diagnostic_counter("store_degraded", 1);
        obs::event(
            obs::Level::Warn,
            "store.degraded",
            &[("cause", obs::Value::Str(&cause))],
        );
        inner.stats.last_error = Some(cause);
        inner.degraded = Some(err);
    }
}

impl SolutionStore {
    fn degraded_error(&self, inner: &Inner) -> StoreError {
        StoreError::Degraded {
            cause: inner
                .degraded
                .as_ref()
                .map(|e| e.to_string())
                .unwrap_or_else(|| "unknown".to_owned()),
        }
    }
}

/// Creates segment `seq` atomically and makes it active. On failure the
/// store degrades; returns whether rotation succeeded.
fn rotate(inner: &mut Inner, io: &dyn StoreIo, dir: &Path, seq: u64) -> bool {
    let path = segment_path(dir, seq);
    match io.write_atomic(&path, &empty_segment()) {
        Ok(()) => {
            inner.active = path;
            inner.active_seq = seq;
            inner.active_len = SEGMENT_MAGIC_V2.len() as u64;
            true
        }
        Err(e) => {
            degrade(inner, StoreError::io(StoreOp::Rotate, &path, &e));
            false
        }
    }
}

fn index_record(inner: &mut Inner, rec: SolutionRecord) {
    let context = CacheContext::from_canonical(&rec.context);
    let key = LayerKey::from_parts(rec.key);
    index_entry(inner, context, key, rec.solution);
}

/// Indexes one solution. A duplicate (e.g. the same key persisted by two
/// past processes) keeps the first: all solvers are deterministic, so the
/// payloads are identical.
fn index_entry(inner: &mut Inner, context: CacheContext, key: LayerKey, solution: LayerSolution) {
    if let Entry::Vacant(slot) = inner.index.entry(context).or_default().entry(key) {
        slot.insert(solution);
        inner.stats.entries += 1;
    }
}

impl CacheBacking for SolutionStore {
    fn fetch(&self, context: &CacheContext, key: &LayerKey) -> Option<LayerSolution> {
        SolutionStore::fetch(self, context, key)
    }

    fn persist(&self, context: &CacheContext, key: &LayerKey, solution: &LayerSolution) {
        // Write-behind is fire-and-forget by contract: a failure has
        // already flipped the store to degraded and been counted.
        let _ = self.append(context, key, solution);
    }
}
