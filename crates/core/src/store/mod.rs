//! Durable storage: a write-ahead verdict journal over an append-only,
//! CRC-checksummed segment log.
//!
//! Everything upstream of this module keeps its state in RAM, which
//! means a process crash loses every verdict, quarantine record, and
//! stream position ever produced. This module is the persistence
//! substrate that fixes that (ROADMAP item 2), built bottom-up:
//!
//! * **[`Media`]** — the byte device abstraction: named segments that
//!   can be listed, read, appended, flushed, truncated, and removed.
//!   [`MemMedia`] backs tests and crash campaigns (byte-exact fault
//!   injection, thousands of reopens per second); [`DirMedia`] is the
//!   real-files implementation; [`FaultMedia`] wraps either and lands
//!   seeded I/O faults — short writes, torn frames, bit flips, failed
//!   fsyncs, kill-at-a-random-write-point — at exact positions in the
//!   write timeline.
//! * **[`SegmentLog`]** — append-only frames (`magic | type | len |
//!   crc32 | payload`) across size-rotated segment files, with a
//!   configurable [`FsyncPolicy`]. Opening a log *recovers* it: frames
//!   are scanned in order, the first damaged frame truncates the torn
//!   tail (and drops any later segments) instead of panicking, and the
//!   surviving clean checksummed prefix is replayed to the caller.
//! * **[`VerdictJournal`]** — the write-ahead verdict/quarantine
//!   journal the streaming service runs on: one frame per emitted
//!   block, periodic [`Checkpoint`] frames carrying the block position
//!   and the detector-config fingerprint, and a recovery path that
//!   yields the durable block prefix so
//!   [`crate::stream::StreamService::resume`] re-emits nothing already
//!   durable — exactly-once across process death.
//!
//! The crash-point chaos campaign over this module lives in the
//! `recover` bench bin (`BENCH_recover.json`); the torn-tail proptests
//! in `tests/store_recovery.rs` pin the no-panic recovery contract.

mod codec;
mod journal;
mod media;
mod segment;

pub use journal::{
    Checkpoint, DurableBlock, JournalConfig, JournalRecovery, VerdictJournal, VerdictRecord,
};
pub use media::{ArmedIoFault, DirMedia, FaultMedia, Media, MemMedia, WriteTotals};
pub use segment::{FsyncPolicy, LogConfig, LogMetrics, RecoveryReport, SegmentLog};

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a storage operation failed. Recovery-time damage (torn tails,
/// bad checksums) is *not* an error — the log truncates and reports it
/// in [`RecoveryReport`]; these are the failures that cannot be
/// absorbed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The underlying media failed (file unreadable, write refused).
    Io {
        /// What the media was doing when it failed.
        context: String,
    },
    /// An injected crash point fired: the media is dead, exactly as a
    /// killed process would leave it. Everything persisted before the
    /// crash survives for the next open; nothing after does.
    Crashed {
        /// The [`crate::resilience::IoFault`] kind that fired.
        fault: &'static str,
    },
    /// A CRC-valid frame carried a payload this build cannot decode —
    /// version skew or a checksum collision. Never panics; surfaces
    /// here so the operator sees *which* journal is unreadable.
    Corrupt {
        /// What failed to decode.
        context: String,
    },
    /// The journal was written by a detector with a different config
    /// fingerprint; resuming would emit verdicts that diverge from the
    /// durable prefix. Re-scan from scratch instead.
    ConfigMismatch {
        /// Fingerprint recorded in the journal's checkpoints.
        journal: u64,
        /// Fingerprint of the detector attempting to resume.
        detector: u64,
    },
    /// The resumed block sequence diverged from the journal's durable
    /// prefix (different block numbers or transaction counts) — the
    /// caller is replaying a different stream than the one journaled.
    ResumeMismatch {
        /// Which block diverged and how.
        context: String,
    },
    /// A previous append or flush already failed; the log refuses
    /// further writes so a half-written tail cannot be extended.
    Poisoned,
}

impl StoreError {
    pub(crate) fn io(context: impl Into<String>) -> Self {
        StoreError::Io { context: context.into() }
    }

    pub(crate) fn corrupt(context: impl Into<String>) -> Self {
        StoreError::Corrupt { context: context.into() }
    }

    /// Stable machine-readable code, used in `BENCH_recover.json`.
    pub fn code(&self) -> &'static str {
        match self {
            StoreError::Io { .. } => "io",
            StoreError::Crashed { .. } => "crashed",
            StoreError::Corrupt { .. } => "corrupt",
            StoreError::ConfigMismatch { .. } => "config_mismatch",
            StoreError::ResumeMismatch { .. } => "resume_mismatch",
            StoreError::Poisoned => "poisoned",
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { context } => write!(f, "storage I/O failed: {context}"),
            StoreError::Crashed { fault } => write!(f, "injected crash point fired: {fault}"),
            StoreError::Corrupt { context } => write!(f, "corrupt payload: {context}"),
            StoreError::ConfigMismatch { journal, detector } => write!(
                f,
                "journal written under config fingerprint {journal:#018x}, \
                 detector is {detector:#018x}"
            ),
            StoreError::ResumeMismatch { context } => {
                write!(f, "resumed stream diverges from journal: {context}")
            }
            StoreError::Poisoned => write!(f, "log poisoned by an earlier write failure"),
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_are_stable() {
        assert_eq!(StoreError::Poisoned.code(), "poisoned");
        assert_eq!(StoreError::io("x").code(), "io");
        assert_eq!(StoreError::corrupt("x").code(), "corrupt");
        assert_eq!(
            StoreError::ConfigMismatch { journal: 1, detector: 2 }.code(),
            "config_mismatch"
        );
        let msg = StoreError::ConfigMismatch { journal: 1, detector: 2 }.to_string();
        assert!(msg.contains("fingerprint"), "{msg}");
    }
}
