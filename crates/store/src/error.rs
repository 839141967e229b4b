//! The typed error taxonomy of the store.
//!
//! Every way the storage layer can let us down gets its own variant, so
//! callers (and the serve summary) can say *what* went wrong, not just
//! that something did. None of these errors ever surfaces as a failed
//! synthesis response — the store degrades to memory-only operation and
//! keeps the last error around as a diagnostic.

use std::io;
use std::path::Path;

/// What a storage operation was doing when it failed, for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOp {
    /// Scanning the store directory for segments.
    Scan,
    /// Reading a segment file.
    Read,
    /// Appending a record to the active segment.
    Append,
    /// Truncating a torn tail off a segment.
    Truncate,
    /// Creating (rotating to) a new segment.
    Rotate,
    /// Syncing a segment to stable storage.
    Sync,
}

impl std::fmt::Display for StoreOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StoreOp::Scan => "scan",
            StoreOp::Read => "read",
            StoreOp::Append => "append",
            StoreOp::Truncate => "truncate",
            StoreOp::Rotate => "rotate",
            StoreOp::Sync => "sync",
        })
    }
}

/// Why a record (or a whole segment tail) was quarantined at load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorruptKind {
    /// The segment starts with neither `mfhls-store` magic (`MFHLSTO1`
    /// for v1, `MFHLSTO2` for v2; both are accepted).
    BadHeader,
    /// The segment ends mid-record: a crash tore the final write.
    TornTail,
    /// A record's checksum does not match its payload (bit rot, torn
    /// overwrite, or a flipped length that misframed the stream).
    ChecksumMismatch,
    /// The checksum held but the payload does not decode as a solution
    /// record (format drift or an impossibly lucky corruption).
    BadPayload,
    /// A record's framing is impossible (length runs past the segment or
    /// exceeds the sanity bound).
    BadFraming,
}

impl std::fmt::Display for CorruptKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CorruptKind::BadHeader => "bad segment header",
            CorruptKind::TornTail => "torn tail",
            CorruptKind::ChecksumMismatch => "checksum mismatch",
            CorruptKind::BadPayload => "undecodable payload",
            CorruptKind::BadFraming => "impossible record framing",
        })
    }
}

/// A typed storage-layer failure. The store never propagates these into a
/// synthesis response; they drive degradation and diagnostics only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An I/O operation failed (includes ENOSPC and injected faults).
    Io {
        /// What the store was doing.
        op: StoreOp,
        /// The file involved.
        path: String,
        /// The OS error kind.
        kind: io::ErrorKind,
        /// The OS error message.
        message: String,
    },
    /// A write persisted fewer bytes than requested and the partial
    /// record could not be rolled back, leaving a torn tail for the next
    /// load to quarantine.
    ShortWrite {
        /// The segment involved.
        path: String,
        /// Bytes actually persisted.
        written: usize,
        /// Bytes requested.
        expected: usize,
    },
    /// Corruption detected while loading a segment.
    Corrupt {
        /// The segment involved.
        path: String,
        /// Byte offset of the bad record.
        offset: u64,
        /// What was wrong with it.
        kind: CorruptKind,
    },
    /// The store is degraded to memory-only operation; `cause` is the
    /// fault that tripped it.
    Degraded {
        /// Rendered description of the original fault.
        cause: String,
    },
}

impl StoreError {
    pub(crate) fn io(op: StoreOp, path: &Path, e: &io::Error) -> StoreError {
        StoreError::Io {
            op,
            path: path.display().to_string(),
            kind: e.kind(),
            message: e.to_string(),
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io {
                op,
                path,
                kind,
                message,
            } => write!(f, "{op} {path}: {message} ({kind:?})"),
            StoreError::ShortWrite {
                path,
                written,
                expected,
            } => write!(
                f,
                "short write to {path}: {written} of {expected} bytes persisted"
            ),
            StoreError::Corrupt { path, offset, kind } => {
                write!(f, "corrupt record in {path} at offset {offset}: {kind}")
            }
            StoreError::Degraded { cause } => {
                write!(f, "store degraded to memory-only: {cause}")
            }
        }
    }
}

impl std::error::Error for StoreError {}
