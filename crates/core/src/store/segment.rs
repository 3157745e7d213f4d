//! The append-only, CRC-checksummed segment log.
//!
//! Frames are `magic(1) | type(1) | len(4 LE) | crc32(4 LE) | payload`,
//! written across size-rotated segments named `seg-{index:08}.log` so
//! lexicographic order is creation order. The CRC covers type, length,
//! and payload — a torn header, a torn payload, and a flipped bit all
//! fail the same check.
//!
//! Opening a log *is* recovery: every segment is scanned in order and
//! each valid frame replayed to the caller's visitor. The first damaged
//! frame ends the durable prefix — the segment is truncated there and
//! every later segment dropped (a torn frame means everything after it
//! was written later and is no longer ordered against anything durable).
//! Damage is reported in [`RecoveryReport`], never panicked on.

use super::media::Media;
use super::StoreError;

/// First byte of every frame; an out-of-place magic ends the scan.
const MAGIC: u8 = 0xA7;
/// Bytes before the payload: magic, type, len, crc.
const HEADER: usize = 10;
/// Upper bound on payload size; a length field past this is damage,
/// not a 4 GiB allocation request.
const MAX_FRAME: usize = 1 << 24;

// ---------------------------------------------------------------------------
// CRC32 (IEEE, table built at compile time — no dependency)
// ---------------------------------------------------------------------------

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = build_crc_table();

/// CRC32 (IEEE) over a sequence of byte chunks.
fn crc32(chunks: &[&[u8]]) -> u32 {
    let mut c = 0xFFFF_FFFF_u32;
    for chunk in chunks {
        for &b in *chunk {
            c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    !c
}

// ---------------------------------------------------------------------------
// Config
// ---------------------------------------------------------------------------

/// When appended frames are forced down to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Flush after every append. The only policy under which the
    /// journal's exactly-once guarantee holds across power loss —
    /// anything weaker can lose an acknowledged frame to a crash
    /// (degrading recovery to at-least-once for the unflushed tail).
    Always,
    /// Flush after every `n` appends — bounded loss window, fewer
    /// syscalls.
    EveryN(u32),
    /// Never flush explicitly; the OS decides. Fastest, weakest.
    Never,
}

impl FsyncPolicy {
    /// Stable name for reports ("always" / "every_n" / "never").
    pub fn name(self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::EveryN(_) => "every_n",
            FsyncPolicy::Never => "never",
        }
    }
}

/// Segment log tuning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogConfig {
    /// Rotate to a new segment once the active one exceeds this many
    /// bytes (a frame is never split across segments).
    pub segment_bytes: u64,
    /// Flush cadence.
    pub fsync: FsyncPolicy,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig { segment_bytes: 64 * 1024, fsync: FsyncPolicy::Always }
    }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// What recovery found when the log was opened.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Valid frames replayed to the visitor (the durable prefix).
    pub frames: u64,
    /// Whether any damage was found (torn tail, bad checksum, short
    /// header) — `false` means a perfectly clean log.
    pub truncated: bool,
    /// Bytes cut from the first damaged segment.
    pub torn_bytes: u64,
    /// Valid frames discarded because they sat *after* the first
    /// damaged frame (in the same or later segments) — written later,
    /// no longer ordered against the durable prefix.
    pub dropped_frames: u64,
    /// Whole segments removed past the damage point.
    pub dropped_segments: u64,
}

/// Write counters for one [`SegmentLog`]. `frames` and `bytes` are
/// cumulative across reopens (recovered durable prefix + appends since
/// open); `flushes` and `rotations` count this open only.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogMetrics {
    /// Valid frames in the log (replayed at open + appended since).
    pub frames: u64,
    /// Bytes in the log's clean prefix (headers + payloads).
    pub bytes: u64,
    /// Flushes issued since open.
    pub flushes: u64,
    /// Segment rotations since open.
    pub rotations: u64,
    /// Segments currently on the media.
    pub segments: u64,
}

// ---------------------------------------------------------------------------
// The log
// ---------------------------------------------------------------------------

/// Append-only framed log over a [`Media`] device. See the module docs
/// for the frame format and recovery contract.
#[derive(Debug)]
pub struct SegmentLog<M: Media> {
    media: M,
    config: LogConfig,
    /// Index of the active (last) segment.
    active_index: u64,
    /// Bytes currently in the active segment.
    active_len: u64,
    /// Appends since the last flush: drives [`FsyncPolicy::EveryN`], and
    /// a flush with none to sync is skipped.
    unflushed: u32,
    /// Set after any write failure; all further writes are refused so a
    /// half-written tail cannot be extended.
    poisoned: bool,
    metrics: LogMetrics,
}

fn segment_name(index: u64) -> String {
    format!("seg-{index:08}.log")
}

/// Scans `bytes` for valid frames, calling `visit` for each. Returns
/// `(frames, clean_len)`: how many frames were valid and the byte
/// offset where the clean prefix ends (== `bytes.len()` iff no damage).
fn scan_segment<F>(bytes: &[u8], mut visit: F) -> Result<(u64, u64), StoreError>
where
    F: FnMut(u8, &[u8]) -> Result<(), StoreError>,
{
    let mut pos = 0usize;
    let mut frames = 0u64;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        if rest.len() < HEADER || rest[0] != MAGIC {
            break;
        }
        let kind = rest[1];
        let len = u32::from_le_bytes([rest[2], rest[3], rest[4], rest[5]]) as usize;
        let stored_crc = u32::from_le_bytes([rest[6], rest[7], rest[8], rest[9]]);
        if len > MAX_FRAME || rest.len() < HEADER + len {
            break;
        }
        let payload = &rest[HEADER..HEADER + len];
        let crc = crc32(&[&rest[1..6], payload]);
        if crc != stored_crc {
            break;
        }
        visit(kind, payload)?;
        frames += 1;
        pos += HEADER + len;
    }
    Ok((frames, pos as u64))
}

impl<M: Media> SegmentLog<M> {
    /// Opens the log on `media`, recovering any damage: every valid
    /// frame in the durable prefix is replayed to `visit` in write
    /// order, the first damaged frame truncates its segment, and later
    /// segments are dropped. A visitor error aborts the open (damage
    /// never does).
    pub fn open<F>(
        mut media: M,
        config: LogConfig,
        mut visit: F,
    ) -> Result<(Self, RecoveryReport), StoreError>
    where
        F: FnMut(u8, &[u8]) -> Result<(), StoreError>,
    {
        let names = media.list();
        let mut report = RecoveryReport::default();
        let mut damaged = false;
        let mut active_index = 1u64;
        let mut active_len = 0u64;
        let mut survivors = 0u64;
        let mut clean_bytes = 0u64;

        for name in &names {
            let index = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".log"))
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| StoreError::corrupt(format!("unparseable segment name {name}")))?;
            let bytes = media.read(name)?;
            if damaged {
                // Everything after the first damaged frame is dropped;
                // count what it held so the loss is visible.
                let (frames, _) = scan_segment(&bytes, |_, _| Ok(()))?;
                report.dropped_frames += frames;
                report.dropped_segments += 1;
                media.remove(name)?;
                continue;
            }
            let (frames, clean_len) = scan_segment(&bytes, &mut visit)?;
            report.frames += frames;
            active_index = index;
            active_len = clean_len;
            survivors += 1;
            clean_bytes += clean_len;
            if clean_len < bytes.len() as u64 {
                damaged = true;
                report.truncated = true;
                report.torn_bytes += bytes.len() as u64 - clean_len;
                media.truncate(name, clean_len)?;
            }
        }

        let metrics = LogMetrics {
            frames: report.frames,
            bytes: clean_bytes,
            segments: survivors.max(1),
            ..LogMetrics::default()
        };
        Ok((
            SegmentLog {
                media,
                config,
                active_index,
                active_len,
                unflushed: 0,
                poisoned: false,
                metrics,
            },
            report,
        ))
    }

    /// Appends one frame and applies the fsync policy. On any media
    /// error the log poisons itself: the frame may be half-written, so
    /// no further appends are accepted.
    pub fn append(&mut self, kind: u8, payload: &[u8]) -> Result<(), StoreError> {
        if self.poisoned {
            return Err(StoreError::Poisoned);
        }
        if payload.len() > MAX_FRAME {
            return Err(StoreError::io(format!(
                "frame payload of {} bytes exceeds the {MAX_FRAME}-byte cap",
                payload.len()
            )));
        }

        let frame_len = (HEADER + payload.len()) as u64;
        if self.active_len > 0 && self.active_len + frame_len > self.config.segment_bytes {
            if let Err(e) = self.rotate() {
                self.poisoned = true;
                return Err(e);
            }
        }

        let mut frame = Vec::with_capacity(HEADER + payload.len());
        frame.push(MAGIC);
        frame.push(kind);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let crc = crc32(&[&frame[1..6], payload]);
        frame.extend_from_slice(&crc.to_le_bytes());
        frame.extend_from_slice(payload);

        let name = segment_name(self.active_index);
        if let Err(e) = self.media.append(&name, &frame) {
            self.poisoned = true;
            return Err(e);
        }
        self.active_len += frame_len;
        self.unflushed = self.unflushed.saturating_add(1);
        self.metrics.frames += 1;
        self.metrics.bytes += frame_len;

        match self.config.fsync {
            FsyncPolicy::Always => self.flush()?,
            FsyncPolicy::EveryN(n) if self.unflushed >= n.max(1) => self.flush()?,
            FsyncPolicy::EveryN(_) | FsyncPolicy::Never => {}
        }
        Ok(())
    }

    /// Forces the active segment down to stable storage. A flush with
    /// nothing appended since the last one syncs nothing and is skipped
    /// (a poisoned log still refuses it).
    pub fn flush(&mut self) -> Result<(), StoreError> {
        if self.poisoned {
            return Err(StoreError::Poisoned);
        }
        if self.unflushed == 0 {
            return Ok(());
        }
        let name = segment_name(self.active_index);
        if let Err(e) = self.media.flush(&name) {
            self.poisoned = true;
            return Err(e);
        }
        self.unflushed = 0;
        self.metrics.flushes += 1;
        Ok(())
    }

    /// Seals the active segment (flushing whatever of it is unflushed)
    /// and starts the next one.
    fn rotate(&mut self) -> Result<(), StoreError> {
        if self.unflushed > 0 {
            self.media.flush(&segment_name(self.active_index))?;
            self.metrics.flushes += 1;
        }
        self.active_index += 1;
        self.active_len = 0;
        self.unflushed = 0;
        self.metrics.rotations += 1;
        self.metrics.segments += 1;
        Ok(())
    }

    /// Lifetime write counters.
    pub fn metrics(&self) -> LogMetrics {
        self.metrics
    }

    /// Whether an earlier write failure has poisoned the log.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Borrows the underlying media.
    pub fn media(&self) -> &M {
        &self.media
    }

    /// Consumes the log and returns the media — how a crash campaign
    /// extracts the surviving bytes for reopen.
    pub fn into_media(self) -> M {
        self.media
    }
}

#[cfg(test)]
mod tests {
    use super::super::media::MemMedia;
    use super::*;

    type Collected = (SegmentLog<MemMedia>, RecoveryReport, Vec<(u8, Vec<u8>)>);

    fn collect(media: MemMedia, config: LogConfig) -> Collected {
        let mut frames = Vec::new();
        let (log, report) = SegmentLog::open(media, config, |kind, payload| {
            frames.push((kind, payload.to_vec()));
            Ok(())
        })
        .expect("open");
        (log, report, frames)
    }

    #[test]
    fn round_trips_frames_across_rotation() {
        let config = LogConfig { segment_bytes: 64, fsync: FsyncPolicy::Always };
        let (mut log, report, frames) = collect(MemMedia::new(), config);
        assert_eq!(report, RecoveryReport::default());
        assert!(frames.is_empty());

        for i in 0..10u8 {
            log.append(1, &[i; 20]).unwrap();
        }
        let m = log.metrics();
        assert_eq!(m.frames, 10);
        assert!(m.rotations >= 3, "64-byte segments force rotation: {m:?}");
        assert_eq!(m.flushes, 10, "a rotation adds no flush after a flushed append");

        let media = log.into_media();
        assert!(media.list().len() > 1);
        let (_, report, frames) = collect(media, config);
        assert!(!report.truncated);
        assert_eq!(report.frames, 10);
        let expect: Vec<(u8, Vec<u8>)> = (0..10u8).map(|i| (1, vec![i; 20])).collect();
        assert_eq!(frames, expect);
    }

    #[test]
    fn torn_tail_is_truncated_not_panicked() {
        let config = LogConfig::default();
        let (mut log, _, _) = collect(MemMedia::new(), config);
        log.append(1, b"first").unwrap();
        log.append(2, b"second").unwrap();
        let mut media = log.into_media();

        // Cut the last 3 bytes: the second frame is torn.
        let name = "seg-00000001.log";
        let len = media.read(name).unwrap().len() as u64;
        media.truncate(name, len - 3).unwrap();

        let (_, report, frames) = collect(media, config);
        assert!(report.truncated);
        assert_eq!(report.frames, 1);
        assert_eq!(frames, vec![(1, b"first".to_vec())]);
        assert!(report.torn_bytes > 0);
    }

    #[test]
    fn bit_flip_is_caught_by_checksum() {
        let config = LogConfig::default();
        let (mut log, _, _) = collect(MemMedia::new(), config);
        log.append(1, b"payload-a").unwrap();
        log.append(1, b"payload-b").unwrap();
        let mut media = log.into_media();

        // Flip one payload bit in the FIRST frame: both frames must be
        // dropped (the prefix ends at the damage).
        let name = "seg-00000001.log";
        let mut bytes = media.read(name).unwrap();
        bytes[HEADER + 2] ^= 0x10;
        media.truncate(name, 0).unwrap();
        media.append(name, &bytes).unwrap();

        let (_, report, frames) = collect(media, config);
        assert!(report.truncated);
        assert_eq!(report.frames, 0);
        assert!(frames.is_empty());
    }

    #[test]
    fn segments_after_damage_are_dropped() {
        let config = LogConfig { segment_bytes: 32, fsync: FsyncPolicy::Always };
        let (mut log, _, _) = collect(MemMedia::new(), config);
        for i in 0..6u8 {
            log.append(1, &[i; 16]).unwrap();
        }
        let mut media = log.into_media();
        let names = media.list();
        assert!(names.len() >= 3, "need multiple segments: {names:?}");

        // Damage the FIRST segment's first frame checksum.
        let first = &names[0];
        let mut bytes = media.read(first).unwrap();
        bytes[HEADER] ^= 0xFF;
        media.truncate(first, 0).unwrap();
        media.append(first, &bytes).unwrap();

        let (log, report, frames) = collect(media, config);
        assert!(report.truncated);
        assert_eq!(report.frames, 0);
        assert!(frames.is_empty());
        assert!(report.dropped_segments >= 2);
        assert!(report.dropped_frames >= 4);
        // The log stays usable after recovery.
        let mut log = log;
        log.append(7, b"after-recovery").unwrap();
        let (_, report, frames) = collect(log.into_media(), config);
        assert!(!report.truncated);
        assert_eq!(frames.last().map(|(k, _)| *k), Some(7));
    }

    #[test]
    fn append_after_media_death_is_poisoned() {
        use super::super::media::{ArmedIoFault, FaultMedia};
        use crate::resilience::IoFault;

        let armed = ArmedIoFault {
            fault: IoFault::Kill,
            at_byte: 20,
            at_append: 0,
            at_flush: 0,
            flip_seed: 0,
        };
        let config = LogConfig::default();
        let media = FaultMedia::new(MemMedia::new(), armed);
        let (mut log, _) = SegmentLog::open(media, config, |_, _| Ok(())).unwrap();
        let err = log.append(1, &[0u8; 64]).unwrap_err();
        assert_eq!(err.code(), "crashed");
        assert!(log.is_poisoned());
        assert_eq!(log.append(1, b"more"), Err(StoreError::Poisoned));
        assert_eq!(log.flush(), Err(StoreError::Poisoned));
    }

    #[test]
    fn flush_with_nothing_appended_is_skipped() {
        let config = LogConfig { segment_bytes: 1 << 20, fsync: FsyncPolicy::Never };
        let (mut log, _, _) = collect(MemMedia::new(), config);
        log.flush().unwrap();
        assert_eq!(log.metrics().flushes, 0);
        log.append(1, b"x").unwrap();
        log.flush().unwrap();
        log.flush().unwrap();
        assert_eq!(log.metrics().flushes, 1);
    }

    #[test]
    fn every_n_policy_batches_flushes() {
        let config = LogConfig { segment_bytes: 1 << 20, fsync: FsyncPolicy::EveryN(4) };
        let (mut log, _, _) = collect(MemMedia::new(), config);
        for _ in 0..8 {
            log.append(1, b"x").unwrap();
        }
        assert_eq!(log.metrics().flushes, 2);
        assert_eq!(config.fsync.name(), "every_n");
    }
}
