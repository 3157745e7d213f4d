//! The byte device under the segment log, and its chaos wrapper.
//!
//! [`SegmentLog`](super::SegmentLog) never touches the filesystem
//! directly — it writes through [`Media`], a minimal named-segment
//! device. That indirection is what makes the crash campaign possible:
//! [`MemMedia`] gives byte-exact, allocation-cheap storage the `recover`
//! bench can reopen thousands of times per run, [`DirMedia`] is the
//! real-files implementation, and [`FaultMedia`] wraps either to land
//! one seeded I/O fault at an exact position in the write timeline and
//! then *die* — every later operation fails like a killed process's
//! file descriptors, and [`FaultMedia::into_survivor`] hands back
//! exactly the bytes a post-crash reopen would see.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::PathBuf;

use crate::fuzz::FuzzRng;
use crate::resilience::IoFault;

use super::StoreError;

// ---------------------------------------------------------------------------
// The device trait
// ---------------------------------------------------------------------------

/// A device of named, append-only byte segments. Everything the
/// [`SegmentLog`](super::SegmentLog) needs, and nothing more — which
/// keeps the fault surface small enough to enumerate.
pub trait Media {
    /// Every segment name, sorted ascending (segment names are chosen
    /// so lexicographic order is creation order).
    fn list(&self) -> Vec<String>;

    /// The full contents of one segment.
    fn read(&self, name: &str) -> Result<Vec<u8>, StoreError>;

    /// Appends `bytes` to `name`, creating the segment if needed.
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError>;

    /// Forces `name`'s appended bytes down to stable storage.
    fn flush(&mut self, name: &str) -> Result<(), StoreError>;

    /// Truncates `name` to `len` bytes (recovery cutting a torn tail).
    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StoreError>;

    /// Removes `name` entirely (recovery dropping segments past a torn
    /// frame; retention dropping sealed segments).
    fn remove(&mut self, name: &str) -> Result<(), StoreError>;
}

/// A mutable borrow is a device too: the crash campaign runs a
/// [`FaultMedia`]`<&mut MemMedia>` to destruction, lets it drop, and
/// then reopens the *same* surviving bytes through a fresh borrow —
/// exactly like a new process opening the files a dead one left behind.
impl<M: Media + ?Sized> Media for &mut M {
    fn list(&self) -> Vec<String> {
        (**self).list()
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        (**self).read(name)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        (**self).append(name, bytes)
    }

    fn flush(&mut self, name: &str) -> Result<(), StoreError> {
        (**self).flush(name)
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StoreError> {
        (**self).truncate(name, len)
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        (**self).remove(name)
    }
}

// ---------------------------------------------------------------------------
// In-memory media
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, Default)]
struct MemSegment {
    bytes: Vec<u8>,
    /// How much of `bytes` a flush has made stable — the boundary the
    /// failed-fsync fault rolls back to.
    flushed: usize,
}

/// In-memory [`Media`]: the backing store for tests and the crash
/// campaign. Tracks the flushed boundary per segment so fsync-loss
/// faults can be modelled exactly.
#[derive(Clone, Debug, Default)]
pub struct MemMedia {
    segments: BTreeMap<String, MemSegment>,
}

impl MemMedia {
    /// An empty device.
    pub fn new() -> Self {
        MemMedia::default()
    }

    /// Total bytes across all segments (flushed or not).
    pub fn total_bytes(&self) -> u64 {
        self.segments.values().map(|s| s.bytes.len() as u64).sum()
    }

    fn segment_mut(&mut self, name: &str) -> &mut MemSegment {
        self.segments.entry(name.to_string()).or_default()
    }
}

impl Media for MemMedia {
    fn list(&self) -> Vec<String> {
        self.segments.keys().cloned().collect()
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        self.segments
            .get(name)
            .map(|s| s.bytes.clone())
            .ok_or_else(|| StoreError::io(format!("no such segment {name}")))
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.segment_mut(name).bytes.extend_from_slice(bytes);
        Ok(())
    }

    fn flush(&mut self, name: &str) -> Result<(), StoreError> {
        let seg = self.segment_mut(name);
        seg.flushed = seg.bytes.len();
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StoreError> {
        let seg = self.segment_mut(name);
        seg.bytes.truncate(len as usize);
        seg.flushed = seg.flushed.min(seg.bytes.len());
        Ok(())
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        self.segments.remove(name);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Directory media (real files)
// ---------------------------------------------------------------------------

/// Real-files [`Media`]: one file per segment inside a directory, with
/// `flush` mapped to `File::sync_data`. The durable mode the README
/// quickstart runs; everything the crash campaign proves on
/// [`MemMedia`] holds here because both sit under the same
/// [`SegmentLog`](super::SegmentLog) recovery path.
///
/// The log appends and flushes one segment frame after frame, so the
/// device keeps the open `File` of the segment it last appended to or
/// flushed, and opens a segment again only when asked for another one;
/// `truncate` and `remove` drop the handle of their segment. Creating
/// and removing a segment change the directory, which is durable only
/// once the directory itself is synced: a created segment's first
/// `flush` syncs the directory too, and every `remove` syncs it before
/// returning.
#[derive(Debug)]
pub struct DirMedia {
    dir: PathBuf,
    /// The segment last appended to or flushed, and its open handle.
    held: Option<(String, File)>,
    /// A segment was created since the directory was last synced.
    dir_unsynced: bool,
}

impl DirMedia {
    /// Opens (creating if needed) the segment directory at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| StoreError::io(format!("create {}: {e}", dir.display())))?;
        Ok(DirMedia { dir, held: None, dir_unsynced: false })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// The open handle of `name`, opened for appending (and created when
    /// `create` is set and it does not exist) unless it is already held.
    fn handle(&mut self, name: &str, create: bool) -> Result<&mut File, StoreError> {
        if self.held.as_ref().is_none_or(|(held, _)| held != name) {
            self.held = None;
            let path = self.path(name);
            let file = match fs::OpenOptions::new().append(true).open(&path) {
                Err(e) if create && e.kind() == std::io::ErrorKind::NotFound => {
                    self.dir_unsynced = true;
                    fs::OpenOptions::new().create(true).append(true).open(&path)
                }
                opened => opened,
            }
            .map_err(|e| StoreError::io(format!("open {name}: {e}")))?;
            self.held = Some((name.to_string(), file));
        }
        Ok(&mut self.held.as_mut().expect("handle just opened").1)
    }

    /// Drops the held handle if it is `name`'s.
    fn release(&mut self, name: &str) {
        if self.held.as_ref().is_some_and(|(held, _)| held == name) {
            self.held = None;
        }
    }

    /// Makes the directory's entries (created and removed segments)
    /// durable.
    fn sync_dir(&mut self) -> Result<(), StoreError> {
        File::open(&self.dir)
            .and_then(|dir| dir.sync_all())
            .map_err(|e| StoreError::io(format!("fsync {}: {e}", self.dir.display())))?;
        self.dir_unsynced = false;
        Ok(())
    }
}

impl Media for DirMedia {
    fn list(&self) -> Vec<String> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut names: Vec<String> = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("seg-") && n.ends_with(".log"))
            .collect();
        names.sort();
        names
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        fs::read(self.path(name)).map_err(|e| StoreError::io(format!("read {name}: {e}")))
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.handle(name, true)?
            .write_all(bytes)
            .map_err(|e| StoreError::io(format!("append {name}: {e}")))
    }

    fn flush(&mut self, name: &str) -> Result<(), StoreError> {
        self.handle(name, false)?
            .sync_data()
            .map_err(|e| StoreError::io(format!("fsync {name}: {e}")))?;
        if self.dir_unsynced {
            self.sync_dir()?;
        }
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StoreError> {
        self.release(name);
        let file = fs::OpenOptions::new()
            .write(true)
            .open(self.path(name))
            .map_err(|e| StoreError::io(format!("open {name}: {e}")))?;
        file.set_len(len)
            .map_err(|e| StoreError::io(format!("truncate {name}: {e}")))
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        self.release(name);
        fs::remove_file(self.path(name))
            .map_err(|e| StoreError::io(format!("remove {name}: {e}")))?;
        self.sync_dir()
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// The clean-run write totals a fault position is scaled against —
/// read them off [`super::LogMetrics`] after a dry run, then
/// [`ArmedIoFault::arm`] a seeded plan over the same timeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteTotals {
    /// Total bytes the clean run appended.
    pub bytes: u64,
    /// Total append calls the clean run made.
    pub appends: u64,
    /// Total flush calls the clean run made.
    pub flushes: u64,
}

/// One concrete fault with its trigger position resolved: the
/// storage-layer sibling of the stage-boundary
/// [`crate::resilience::FaultInjector`], produced by seeding an
/// [`crate::resilience::IoFaultPlan`] over a [`WriteTotals`] timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArmedIoFault {
    /// Which fault fires.
    pub fault: IoFault,
    /// [`IoFault::Kill`] / [`IoFault::BitFlip`]: cumulative appended
    /// byte at which the device dies.
    pub at_byte: u64,
    /// [`IoFault::ShortWrite`] / [`IoFault::TornFrame`]: 0-based append
    /// ordinal that persists only a prefix.
    pub at_append: u64,
    /// [`IoFault::FailedFsync`]: 0-based flush ordinal that fails.
    pub at_flush: u64,
    /// Seed for the bit position a [`IoFault::BitFlip`] damages.
    pub flip_seed: u64,
}

impl ArmedIoFault {
    /// A fault armed past the end of any run, so it never fires: a
    /// [`FaultMedia`] carrying it only measures the clean write
    /// timeline. Struct update from it places one trigger by hand.
    pub const fn never() -> Self {
        ArmedIoFault {
            fault: IoFault::Kill,
            at_byte: u64::MAX,
            at_append: u64::MAX,
            at_flush: u64::MAX,
            flip_seed: 0,
        }
    }

    /// Resolves `plan` against a clean run's write timeline. The same
    /// `(plan, totals)` pair always arms the same trigger — the crash
    /// matrix replays exactly, like every other campaign in this repo.
    pub fn arm(plan: &crate::resilience::IoFaultPlan, totals: &WriteTotals) -> Self {
        let mut rng = FuzzRng::new(plan.seed);
        ArmedIoFault {
            fault: plan.fault,
            at_byte: rng.below(totals.bytes.max(1) as usize) as u64,
            at_append: rng.below(totals.appends.max(1) as usize) as u64,
            at_flush: rng.below(totals.flushes.max(1) as usize) as u64,
            flip_seed: rng.next_u64(),
        }
    }
}

/// A [`Media`] wrapper that lands one [`ArmedIoFault`] and then dies.
///
/// Death is total: once the fault fires, every subsequent operation
/// returns [`StoreError::Crashed`], modelling a killed process. The
/// surviving bytes — everything the model says stable storage kept —
/// are extracted with [`FaultMedia::into_survivor`] and reopened like
/// a fresh process would.
///
/// Survival model per fault:
/// * `Kill` — an arbitrary prefix of the appended byte stream survives
///   (power loss under write-back caching; may cut mid-frame).
/// * `ShortWrite` — the triggering append persists a proper prefix and
///   *reports* the failure; earlier appends survive whole.
/// * `TornFrame` — like `ShortWrite`, but the cut is guaranteed to
///   land inside the frame being written (never a clean boundary).
/// * `BitFlip` — the device dies at a byte position *and* one already-
///   persisted bit is flipped (silent at-rest corruption discovered
///   only at recovery).
/// * `FailedFsync` — the triggering flush fails and everything
///   appended since the last successful flush is lost.
#[derive(Debug)]
pub struct FaultMedia<M: Media> {
    inner: M,
    fault: ArmedIoFault,
    bytes_appended: u64,
    appends: u64,
    flushes: u64,
    /// Appended-but-not-yet-flushed spans per segment, as (name, start)
    /// of the unflushed tail — what a failed fsync rolls back.
    unflushed_from: BTreeMap<String, u64>,
    lengths: BTreeMap<String, u64>,
    dead: bool,
    fired: bool,
}

impl<M: Media> FaultMedia<M> {
    /// Wraps `inner` with one armed fault.
    pub fn new(inner: M, fault: ArmedIoFault) -> Self {
        FaultMedia {
            inner,
            fault,
            bytes_appended: 0,
            appends: 0,
            flushes: 0,
            unflushed_from: BTreeMap::new(),
            lengths: BTreeMap::new(),
            dead: false,
            fired: false,
        }
    }

    /// Whether the planned fault has fired.
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// The write totals observed so far (a fault-free pass over a
    /// whole run measures the clean timeline for arming later runs).
    pub fn totals(&self) -> WriteTotals {
        WriteTotals {
            bytes: self.bytes_appended,
            appends: self.appends,
            flushes: self.flushes,
        }
    }

    /// Consumes the wrapper and returns the surviving device — the
    /// bytes a post-crash reopen sees. If the fault never fired the
    /// inner media is returned unchanged.
    pub fn into_survivor(self) -> M {
        self.inner
    }

    fn die(&mut self) -> StoreError {
        self.dead = true;
        self.fired = true;
        StoreError::Crashed { fault: self.fault.fault.name() }
    }

    fn len_of(&mut self, name: &str) -> u64 {
        *self.lengths.entry(name.to_string()).or_insert(0)
    }

    /// Flips one seeded bit somewhere in the already-persisted bytes.
    fn flip_persisted_bit(&mut self) {
        let mut rng = FuzzRng::new(self.fault.flip_seed);
        let names = self.inner.list();
        let total: u64 = names.iter().map(|n| self.inner.read(n).map(|b| b.len() as u64).unwrap_or(0)).sum();
        if total == 0 {
            return;
        }
        let mut target = rng.below(total as usize) as u64;
        let bit = rng.below(8) as u8;
        for name in names {
            let Ok(mut bytes) = self.inner.read(&name) else { continue };
            if target < bytes.len() as u64 {
                bytes[target as usize] ^= 1 << bit;
                // Rewrite the damaged suffix in place via truncate+append.
                let _ = self.inner.truncate(&name, target);
                let _ = self.inner.append(&name, &bytes[target as usize..]);
                return;
            }
            target -= bytes.len() as u64;
        }
    }
}

impl<M: Media> Media for FaultMedia<M> {
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        self.inner.read(name)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        if self.dead {
            return Err(StoreError::Crashed { fault: self.fault.fault.name() });
        }
        let ordinal = self.appends;
        self.appends += 1;
        // First append since the segment's last flush starts the
        // rollback span a failed fsync cuts back to.
        let start = self.len_of(name);
        self.unflushed_from.entry(name.to_string()).or_insert(start);

        match self.fault.fault {
            IoFault::Kill | IoFault::BitFlip => {
                let budget = self.fault.at_byte.saturating_sub(self.bytes_appended);
                if (bytes.len() as u64) > budget {
                    let keep = &bytes[..budget as usize];
                    self.inner.append(name, keep)?;
                    self.bytes_appended += budget;
                    *self.lengths.get_mut(name).expect("length tracked") += budget;
                    if self.fault.fault == IoFault::BitFlip {
                        self.flip_persisted_bit();
                    }
                    return Err(self.die());
                }
            }
            IoFault::ShortWrite | IoFault::TornFrame if ordinal == self.fault.at_append => {
                // TornFrame guarantees an interior cut; ShortWrite may
                // keep any proper prefix, including zero bytes.
                let mut rng = FuzzRng::new(self.fault.flip_seed ^ ordinal);
                let keep = if bytes.is_empty() {
                    0
                } else if self.fault.fault == IoFault::TornFrame {
                    1 + rng.below(bytes.len().max(2) - 1)
                } else {
                    rng.below(bytes.len())
                };
                self.inner.append(name, &bytes[..keep])?;
                self.bytes_appended += keep as u64;
                *self.lengths.get_mut(name).expect("length tracked") += keep as u64;
                return Err(self.die());
            }
            _ => {}
        }

        self.inner.append(name, bytes)?;
        self.bytes_appended += bytes.len() as u64;
        *self.lengths.get_mut(name).expect("length tracked") += bytes.len() as u64;
        Ok(())
    }

    fn flush(&mut self, name: &str) -> Result<(), StoreError> {
        if self.dead {
            return Err(StoreError::Crashed { fault: self.fault.fault.name() });
        }
        let ordinal = self.flushes;
        self.flushes += 1;
        if self.fault.fault == IoFault::FailedFsync && ordinal == self.fault.at_flush {
            // Unflushed tails are lost on every segment, then death.
            let rollbacks: Vec<(String, u64)> = self
                .unflushed_from
                .iter()
                .map(|(n, &from)| (n.clone(), from))
                .collect();
            for (seg, from) in rollbacks {
                let _ = self.inner.truncate(&seg, from);
                self.lengths.insert(seg, from);
            }
            return Err(self.die());
        }
        self.inner.flush(name)?;
        self.unflushed_from.remove(name);
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StoreError> {
        if self.dead {
            return Err(StoreError::Crashed { fault: self.fault.fault.name() });
        }
        self.inner.truncate(name, len)?;
        self.lengths.insert(name.to_string(), len);
        Ok(())
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        if self.dead {
            return Err(StoreError::Crashed { fault: self.fault.fault.name() });
        }
        self.inner.remove(name)?;
        self.lengths.remove(name);
        self.unflushed_from.remove(name);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::IoFaultPlan;

    #[test]
    fn mem_media_appends_and_truncates() {
        let mut m = MemMedia::new();
        m.append("seg-00000001.log", b"hello").unwrap();
        m.append("seg-00000001.log", b" world").unwrap();
        assert_eq!(m.read("seg-00000001.log").unwrap(), b"hello world");
        m.truncate("seg-00000001.log", 5).unwrap();
        assert_eq!(m.read("seg-00000001.log").unwrap(), b"hello");
        assert_eq!(m.list(), vec!["seg-00000001.log".to_string()]);
        m.remove("seg-00000001.log").unwrap();
        assert!(m.list().is_empty());
        assert!(m.read("seg-00000001.log").is_err());
    }

    #[test]
    fn kill_fault_cuts_the_byte_stream_and_kills_the_device() {
        let armed = ArmedIoFault {
            fault: IoFault::Kill,
            at_byte: 7,
            at_append: 0,
            at_flush: 0,
            flip_seed: 1,
        };
        let mut m = FaultMedia::new(MemMedia::new(), armed);
        m.append("seg-00000001.log", b"aaaa").unwrap(); // 4 bytes, under budget
        let err = m.append("seg-00000001.log", b"bbbb").unwrap_err();
        assert_eq!(err, StoreError::Crashed { fault: "kill" });
        assert!(m.fired());
        assert!(matches!(
            m.append("seg-00000001.log", b"x"),
            Err(StoreError::Crashed { .. })
        ));
        let survivor = m.into_survivor();
        assert_eq!(survivor.read("seg-00000001.log").unwrap(), b"aaaabbb");
    }

    #[test]
    fn torn_frame_cuts_inside_the_frame() {
        let armed = ArmedIoFault {
            fault: IoFault::TornFrame,
            at_byte: 0,
            at_append: 1,
            at_flush: 0,
            flip_seed: 99,
        };
        let mut m = FaultMedia::new(MemMedia::new(), armed);
        m.append("seg-00000001.log", b"frame-one").unwrap();
        let err = m.append("seg-00000001.log", b"frame-two").unwrap_err();
        assert_eq!(err.code(), "crashed");
        let survivor = m.into_survivor();
        let bytes = survivor.read("seg-00000001.log").unwrap();
        assert!(bytes.len() > b"frame-one".len(), "interior cut keeps >= 1 byte");
        assert!(bytes.len() < b"frame-one".len() + b"frame-two".len());
    }

    #[test]
    fn failed_fsync_rolls_back_the_unflushed_tail() {
        let armed = ArmedIoFault {
            fault: IoFault::FailedFsync,
            at_byte: 0,
            at_append: 0,
            at_flush: 1,
            flip_seed: 1,
        };
        let mut m = FaultMedia::new(MemMedia::new(), armed);
        m.append("seg-00000001.log", b"durable").unwrap();
        m.flush("seg-00000001.log").unwrap(); // flush #0 succeeds
        m.append("seg-00000001.log", b"-lost").unwrap();
        let err = m.flush("seg-00000001.log").unwrap_err(); // flush #1 fails
        assert_eq!(err, StoreError::Crashed { fault: "failed_fsync" });
        let survivor = m.into_survivor();
        assert_eq!(survivor.read("seg-00000001.log").unwrap(), b"durable");
    }

    #[test]
    fn bit_flip_damages_exactly_one_persisted_bit() {
        let armed = ArmedIoFault {
            fault: IoFault::BitFlip,
            at_byte: 8,
            at_append: 0,
            at_flush: 0,
            flip_seed: 1234,
        };
        let mut m = FaultMedia::new(MemMedia::new(), armed);
        m.append("seg-00000001.log", b"12345678").unwrap();
        let _ = m.append("seg-00000001.log", b"9").unwrap_err();
        let survivor = m.into_survivor();
        let bytes = survivor.read("seg-00000001.log").unwrap();
        assert_eq!(bytes.len(), 8);
        let diff: u32 = bytes
            .iter()
            .zip(b"12345678")
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1, "exactly one bit flipped: {bytes:?}");
    }

    #[test]
    fn observer_mode_measures_clean_totals() {
        let mut m = FaultMedia::new(MemMedia::new(), ArmedIoFault::never());
        m.append("seg-00000001.log", b"abc").unwrap();
        m.flush("seg-00000001.log").unwrap();
        m.append("seg-00000001.log", b"de").unwrap();
        assert!(!m.fired());
        assert_eq!(
            m.totals(),
            WriteTotals { bytes: 5, appends: 2, flushes: 1 }
        );
    }

    #[test]
    fn arming_is_deterministic_and_in_range() {
        let plan = IoFaultPlan::new(7, IoFault::Kill);
        let totals = WriteTotals { bytes: 1000, appends: 40, flushes: 40 };
        let a = ArmedIoFault::arm(&plan, &totals);
        let b = ArmedIoFault::arm(&plan, &totals);
        assert_eq!(a, b);
        assert!(a.at_byte < 1000);
        assert!(a.at_append < 40);
        assert!(a.at_flush < 40);
        let c = ArmedIoFault::arm(&IoFaultPlan::new(8, IoFault::Kill), &totals);
        assert_ne!(a, c);
    }

    /// A directory of its own under the system temp dir, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(test: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("leishen-dir-media-{}-{test}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            TempDir(dir)
        }

        fn media(&self) -> DirMedia {
            DirMedia::open(&self.0).expect("open temp dir")
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn dir_media_appends_flushes_reads_and_lists() {
        let tmp = TempDir::new("basics");
        let mut m = tmp.media();
        assert!(m.list().is_empty());
        m.append("seg-00000002.log", b"two").unwrap();
        m.append("seg-00000001.log", b"hello").unwrap();
        m.append("seg-00000001.log", b" world").unwrap();
        m.flush("seg-00000001.log").unwrap();
        m.flush("seg-00000002.log").unwrap();
        fs::write(tmp.0.join("notes.txt"), b"not a segment").unwrap();
        assert_eq!(
            m.list(),
            vec!["seg-00000001.log".to_string(), "seg-00000002.log".to_string()]
        );
        assert_eq!(m.read("seg-00000001.log").unwrap(), b"hello world");
        assert_eq!(tmp.media().read("seg-00000002.log").unwrap(), b"two");
        assert!(m.flush("seg-00000009.log").is_err(), "a flush never creates a segment");
        assert!(m.read("seg-00000009.log").is_err());
    }

    #[test]
    fn dir_media_rotates_segments_under_the_log() {
        use super::super::{FsyncPolicy, LogConfig, SegmentLog};

        let tmp = TempDir::new("rotation");
        let config = LogConfig { segment_bytes: 64, fsync: FsyncPolicy::Always };
        let (mut log, _) = SegmentLog::open(tmp.media(), config, |_, _| Ok(())).unwrap();
        for i in 0..10u8 {
            log.append(1, &[i; 20]).unwrap();
        }
        let metrics = log.metrics();
        assert!(metrics.rotations >= 3, "64-byte segments force rotation: {metrics:?}");
        assert_eq!(metrics.flushes, 10, "one flush per frame, none at rotation");
        drop(log);
        assert_eq!(tmp.media().list().len() as u64, metrics.segments);

        let mut frames = Vec::new();
        let (_, report) = SegmentLog::open(tmp.media(), config, |kind, payload| {
            frames.push((kind, payload.to_vec()));
            Ok(())
        })
        .unwrap();
        assert!(!report.truncated);
        let expect: Vec<(u8, Vec<u8>)> = (0..10u8).map(|i| (1, vec![i; 20])).collect();
        assert_eq!(frames, expect);
    }

    #[test]
    fn journal_reopens_over_a_garbage_tail() {
        use ethsim::TxId;

        use super::super::{JournalConfig, VerdictJournal};
        use crate::resilience::{Fault, Quarantine, Verdict};

        let verdict = |tx: u64| {
            Verdict::Indeterminate(Quarantine {
                tx: TxId(tx),
                index: tx as usize,
                fault: Fault::Panic { message: "boom".to_string() },
                stage: None,
                attempts: 1,
            })
        };
        let tmp = TempDir::new("garbage-tail");
        let config = JournalConfig::default();
        let (mut journal, _) = VerdictJournal::open(tmp.media(), config, 7).unwrap();
        for n in 0..3 {
            journal.append_block(n, n, &[verdict(n)]).unwrap();
        }
        let acked = journal.blocks().to_vec();
        drop(journal);

        let seg = tmp.0.join("seg-00000001.log");
        let clean = fs::read(&seg).unwrap();
        let garbage = [0xA7, 1, 200, 0, 0, 0, 1, 2, 3, 4, 5, 6];
        fs::OpenOptions::new().append(true).open(&seg).unwrap().write_all(&garbage).unwrap();

        let (mut journal, report) = VerdictJournal::open(tmp.media(), config, 7).unwrap();
        assert!(report.log.truncated);
        assert_eq!(report.log.torn_bytes, garbage.len() as u64);
        assert_eq!(journal.blocks(), &acked[..], "every acknowledged block comes back");
        journal.append_block(3, 3, &[verdict(3)]).unwrap();
        drop(journal);

        let bytes = fs::read(&seg).unwrap();
        assert!(bytes.len() > clean.len());
        assert_eq!(&bytes[..clean.len()], &clean[..], "the next frame follows the clean prefix");
        let (journal, report) = VerdictJournal::open(tmp.media(), config, 7).unwrap();
        assert!(!report.log.truncated);
        assert_eq!(journal.durable_prefix(), vec![(0, 1), (1, 1), (2, 1), (3, 1)]);
    }

    #[test]
    fn truncate_and_remove_drop_the_held_handle() {
        let tmp = TempDir::new("held-handle");
        let mut m = tmp.media();
        let name = "seg-00000001.log";
        m.append(name, b"hello world").unwrap();
        m.truncate(name, 5).unwrap();
        m.append(name, b"!").unwrap();
        m.flush(name).unwrap();
        assert_eq!(m.read(name).unwrap(), b"hello!");

        // A write through the removed file's stale handle would land in
        // an unlinked inode and vanish.
        m.remove(name).unwrap();
        assert!(m.list().is_empty());
        m.append(name, b"fresh").unwrap();
        m.flush(name).unwrap();
        assert_eq!(m.list(), vec![name.to_string()]);
        assert_eq!(tmp.media().read(name).unwrap(), b"fresh");
    }
}
