//! Parallel batch scanning with a shared tag cache.
//!
//! The per-transaction pipeline ([`LeiShen::analyze`]) re-derives every
//! account tag from scratch: each `tag_of` call walks the account's
//! creation tree and allocates the application name it finds. Across a
//! corpus scan the same venues, providers, and token contracts appear in
//! nearly every transaction, so the vast majority of those walks repeat
//! work done a few transactions earlier.
//!
//! This module adds two pieces:
//!
//! * [`TagCache`] — a sharded, concurrent `Address → Tag` memo table.
//!   Resolution goes through the cache once per distinct address *per
//!   corpus* instead of per transaction. The cache is only valid for one
//!   `(labels, creations)` context; build a fresh one per [`ChainView`].
//! * [`ScanEngine`] — cuts a batch into input-order chunks and fans them
//!   over a worker pool (the calling thread is one of the workers), each
//!   worker claiming the next chunk from a shared counter and every
//!   worker sharing one `TagCache`. Results come back in **input order**
//!   regardless of which worker processed which chunk, so a parallel scan
//!   is byte-for-byte comparable with a serial loop over the same slice.
//!
//! ```
//! use leishen::{ChainView, DetectorConfig, Labels, LeiShen, ScanEngine};
//!
//! let labels = Labels::new();
//! let view = ChainView::new(&labels, &[], None);
//! let detector = LeiShen::new(DetectorConfig::paper());
//! let engine = ScanEngine::new(4);
//! let analyses = engine.scan(&detector, &[], &view); // empty batch
//! assert!(analyses.is_empty());
//! ```

use std::any::Any;
use std::collections::HashMap;
use std::hash::Hasher;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use ethsim::{validate_record, Address, BuildFnv, CreationIndex, FnvHasher, TxRecord};
use parking_lot::{Mutex, RwLock};

use crate::detector::{Analysis, AnalysisScratch, ChainView, LeiShen};
use crate::labels::Labels;
use crate::resilience::{
    payload_message, stage_of_payload, Fault, Quarantine, ResilienceConfig, ResilientScan,
    Verdict,
};
use crate::tagging::{tag_of, Tag};
use crate::telemetry::{MetricsSink, NoopSink, RecordingSink};
use crate::trace::{Decision, FlightRecorder, NoopTracer, Reason, TraceBuilder, TraceSink};

/// Number of independent lock shards. A power of two so the shard index
/// is a mask; 16 keeps contention negligible for any realistic worker
/// count while staying cache-friendly.
pub const SHARD_COUNT: usize = 16;

type TagMapInner = HashMap<Address, Tag, BuildFnv>;

/// A sharded, concurrent memo table for [`tag_of`] results.
///
/// Tags depend only on `(address, labels, creations)`, and a scan runs
/// against one fixed [`ChainView`], so resolutions can be shared freely
/// across transactions and across worker threads. Each shard is an
/// independent `RwLock<HashMap>`; lookups take a read lock, inserts a
/// write lock on one shard only. Shards are keyed with FNV
/// ([`ethsim::FnvHasher`]): the cache probe is the hot path's single most
/// frequent operation, and its keys come from the chain.
///
/// Worker fronts ([`LocalTagCache`]) read a lock-free snapshot: one merge
/// of every shard, rebuilt only once the cache holds at least twice the
/// snapshot's entries. A cache that grows block by block (a stream over a
/// cold cache) therefore pays merge work proportional to its final size
/// in total — a rebuild at every doubling — and addresses newer than the
/// snapshot are answered by the shards.
///
/// The zero address short-circuits to [`Tag::BlackHole`] without touching
/// the table.
#[derive(Debug, Default)]
pub struct TagCache {
    shards: [RwLock<TagMapInner>; SHARD_COUNT],
    hits: AtomicU64,
    // Misses are tallied per shard: every miss takes that shard's write
    // lock (the only contended operation), so the per-shard miss counts
    // double as the cache's contention profile.
    shard_misses: [AtomicU64; SHARD_COUNT],
    // Lock acquisitions that found the shard already held (the try-lock
    // fast path failed and the caller had to wait).
    shard_lock_waits: [AtomicU64; SHARD_COUNT],
    // A frozen merge of every shard at its last rebuild. Entries are
    // immutable once inserted, so a stale snapshot is only ever *missing*
    // addresses, never wrong about one — until `clear`, which resets it.
    snapshot: RwLock<Arc<TagMapInner>>,
    snapshot_rebuilds: AtomicU64,
}

/// Telemetry snapshot of one [`TagCache`] shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStat {
    /// Distinct addresses currently cached in the shard.
    pub entries: usize,
    /// Misses routed to the shard — each one took the shard's write
    /// lock, so this is the shard's share of write contention.
    pub inserts: u64,
    /// Lock acquisitions on the shard that found it already held and had
    /// to wait (read or write).
    pub lock_waits: u64,
}

impl TagCache {
    /// An empty cache.
    pub fn new() -> Self {
        TagCache::default()
    }

    fn shard_index(&self, addr: Address) -> usize {
        let mut h = FnvHasher::default();
        h.write(addr.as_bytes());
        (h.finish() as usize) & (SHARD_COUNT - 1)
    }

    /// The tag of `addr`, from the cache when present, computed (and
    /// cached) via [`tag_of`] otherwise.
    pub fn resolve(&self, addr: Address, labels: &Labels, creations: &CreationIndex) -> Tag {
        if addr.is_zero() {
            return Tag::BlackHole;
        }
        let idx = self.shard_index(addr);
        let shard = &self.shards[idx];
        // Try-lock first so contention is *observable*: a failed try is
        // exactly one would-have-blocked acquisition, counted before
        // falling back to the blocking path.
        {
            let guard = shard.try_read().unwrap_or_else(|| {
                self.shard_lock_waits[idx].fetch_add(1, Ordering::Relaxed);
                shard.read()
            });
            if let Some(tag) = guard.get(&addr) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return tag.clone();
            }
        }
        self.shard_misses[idx].fetch_add(1, Ordering::Relaxed);
        let tag = tag_of(addr, labels, creations);
        let mut guard = shard.try_write().unwrap_or_else(|| {
            self.shard_lock_waits[idx].fetch_add(1, Ordering::Relaxed);
            shard.write()
        });
        guard.insert(addr, tag.clone());
        tag
    }

    /// A frozen, lock-free view of the cache, shared by reference. Worker
    /// fronts ([`LocalTagCache`]) probe this map with no lock and no
    /// per-worker copy. It is rebuilt (one merge pass over the shards)
    /// only once the cache holds at least twice its entries, so taking a
    /// snapshot is usually one `Arc` clone, and the view may lack up to
    /// half of the cached addresses.
    pub(crate) fn snapshot(&self) -> Arc<TagMapInner> {
        let entries = self.len();
        let stale = |snap: &TagMapInner| entries > 0 && entries >= 2 * snap.len();
        {
            let snap = self.snapshot.read();
            if !stale(&snap) {
                return Arc::clone(&snap);
            }
        }
        let mut snap = self.snapshot.write();
        // Double-checked: another worker may have rebuilt while this one
        // waited on the write lock.
        if !stale(&snap) {
            return Arc::clone(&snap);
        }
        let mut merged = TagMapInner::with_capacity_and_hasher(entries, BuildFnv::default());
        for shard in &self.shards {
            for (addr, tag) in shard.read().iter() {
                merged.insert(*addr, tag.clone());
            }
        }
        self.snapshot_rebuilds.fetch_add(1, Ordering::Relaxed);
        *snap = Arc::new(merged);
        Arc::clone(&snap)
    }

    /// How many times the frozen view behind [`LocalTagCache`] was
    /// rebuilt (0 ⇒ never taken, or taken only over an empty cache). A
    /// rebuild happens each time the cache doubles past the last one, so
    /// a cache grown to `n` entries has been rebuilt at most about
    /// `log2(n) + 1` times however many fronts were built over it.
    pub fn snapshot_rebuilds(&self) -> u64 {
        self.snapshot_rebuilds.load(Ordering::Relaxed)
    }

    /// Number of lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to compute a fresh tag.
    pub fn misses(&self) -> u64 {
        self.shard_misses
            .iter()
            .map(|m| m.load(Ordering::Relaxed))
            .sum()
    }

    /// Fraction of lookups answered from the cache (0 when untouched).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits();
        let total = hits + self.misses();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Per-shard entry and write (miss) counts — the cache's contention
    /// profile, surfaced by the `obs` telemetry bin.
    pub fn shard_stats(&self) -> [ShardStat; SHARD_COUNT] {
        let mut out = [ShardStat::default(); SHARD_COUNT];
        for (i, slot) in out.iter_mut().enumerate() {
            slot.entries = self.shards[i].read().len();
            slot.inserts = self.shard_misses[i].load(Ordering::Relaxed);
            slot.lock_waits = self.shard_lock_waits[i].load(Ordering::Relaxed);
        }
        out
    }

    /// Total shard-lock acquisitions that had to wait, across all shards
    /// — the cache's aggregate contention signal, next to
    /// [`TagCache::snapshot_rebuilds`] and the hit rate.
    pub fn lock_waits(&self) -> u64 {
        self.shard_lock_waits
            .iter()
            .map(|m| m.load(Ordering::Relaxed))
            .sum()
    }

    /// Number of distinct addresses currently cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether no address has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all cached tags and resets the hit/miss counters. Call this
    /// when the label cloud or creation dataset changes.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        for m in &self.shard_misses {
            m.store(0, Ordering::Relaxed);
        }
        for m in &self.shard_lock_waits {
            m.store(0, Ordering::Relaxed);
        }
        // The frozen view holds tags of the old context: drop it, or the
        // next fronts would answer from it until the cache doubled again.
        *self.snapshot.write() = Arc::default();
    }
}

/// A worker-private front for a shared [`TagCache`].
///
/// A scan worker resolves the same handful of venue / provider / token
/// addresses on nearly every transaction. This layer answers those
/// repeats from the cache's frozen snapshot and an unsynchronized local
/// overlay — no lock, no shard hash, no atomic — and only falls through
/// to the shared cache on a local miss, so tags computed by one worker
/// still reach the others. The snapshot is rebuilt only when the cache
/// has doubled since the last rebuild, so building a front is cheap even
/// while the cache grows; addresses the snapshot lacks cost one shard
/// probe per front, then live in the overlay.
///
/// Local hits count toward the shared cache's [`TagCache::hits`] counter;
/// the tally is flushed when the `LocalTagCache` is dropped.
pub struct LocalTagCache<'a> {
    shared: &'a TagCache,
    // The shared cache's frozen view at construction time: probed with
    // no lock, no atomic, and no per-worker copy. Over a warm cache this
    // answers essentially every lookup.
    snapshot: Arc<TagMapInner>,
    // Addresses this front resolved that the snapshot lacks: new ones,
    // and cached ones newer than the last rebuild. They reach other
    // workers through the shared cache and join the snapshot when the
    // cache next doubles.
    overlay: TagMapInner,
    hits: u64,
}

impl<'a> LocalTagCache<'a> {
    /// A front over `shared`, seeded with its snapshot, which is rebuilt
    /// first if the cache has doubled since the last rebuild.
    pub fn new(shared: &'a TagCache) -> Self {
        LocalTagCache {
            shared,
            snapshot: shared.snapshot(),
            overlay: TagMapInner::default(),
            hits: 0,
        }
    }

    /// The tag of `addr` — snapshot first, local overlay second, shared
    /// cache third, [`tag_of`] last.
    pub fn resolve(&mut self, addr: Address, labels: &Labels, creations: &CreationIndex) -> Tag {
        if addr.is_zero() {
            return Tag::BlackHole;
        }
        if let Some(tag) = self.snapshot.get(&addr) {
            self.hits += 1;
            return tag.clone();
        }
        if let Some(tag) = self.overlay.get(&addr) {
            self.hits += 1;
            return tag.clone();
        }
        let tag = self.shared.resolve(addr, labels, creations);
        self.overlay.insert(addr, tag.clone());
        tag
    }
}

impl Drop for LocalTagCache<'_> {
    fn drop(&mut self) {
        if self.hits > 0 {
            self.shared.hits.fetch_add(self.hits, Ordering::Relaxed);
        }
    }
}

/// Summary of one batch scan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Transactions analyzed.
    pub transactions: usize,
    /// Transactions whose analysis reported an attack.
    pub attacks: usize,
    /// Tag lookups answered from the shared cache.
    pub cache_hits: u64,
    /// Tag lookups that computed a fresh tag.
    pub cache_misses: u64,
    /// Transactions quarantined instead of analyzed (always 0 outside
    /// [`ScanEngine::scan_resilient`] — the legacy scans have no
    /// quarantine path).
    pub quarantined: usize,
}

impl ScanStats {
    /// Fraction of tag lookups answered from the cache (0 for an empty
    /// scan).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// A batch scanner: fans transactions over a worker pool sharing one
/// [`TagCache`], returning analyses in input order.
///
/// The configured worker count is a *ceiling*: a scan never runs more
/// workers than the batch has chunks, and never more than the machine
/// has hardware threads (extra threads on a saturated machine only add
/// scheduling overhead). Tests that need to exercise the threaded path
/// on small machines can lift the hardware cap with
/// [`ScanEngine::allow_oversubscription`].
#[derive(Clone, Debug)]
pub struct ScanEngine {
    workers: usize,
    chunk_size: usize,
    oversubscribe: bool,
}

impl ScanEngine {
    /// An engine with `workers` worker threads (minimum 1) and the
    /// default chunk size.
    pub fn new(workers: usize) -> Self {
        ScanEngine {
            workers: workers.max(1),
            chunk_size: 32,
            oversubscribe: false,
        }
    }

    /// Overrides how many transactions each chunk carries: a
    /// multi-worker scan cuts the batch into input-order chunks of
    /// exactly this size (the last may be shorter). Smaller chunks
    /// balance better; larger chunks amortize the per-chunk claim and
    /// publish. Minimum 1.
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.max(1);
        self
    }

    /// Lifts the hardware-thread cap, spawning the full configured worker
    /// count even on machines with fewer cores. Only useful for testing
    /// the threaded path deterministically.
    pub fn allow_oversubscription(mut self) -> Self {
        self.oversubscribe = true;
        self
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Scans `txs` with a fresh internal cache, returning one [`Analysis`]
    /// per transaction, in input order.
    pub fn scan(&self, detector: &LeiShen, txs: &[&TxRecord], view: &ChainView<'_>) -> Vec<Analysis> {
        self.scan_with_cache(detector, txs, view, &TagCache::new())
    }

    /// Like [`ScanEngine::scan`], with stats about the run.
    pub fn scan_with_stats(
        &self,
        detector: &LeiShen,
        txs: &[&TxRecord],
        view: &ChainView<'_>,
    ) -> (Vec<Analysis>, ScanStats) {
        let cache = TagCache::new();
        let analyses = self.scan_with_cache(detector, txs, view, &cache);
        let stats = ScanStats {
            transactions: analyses.len(),
            attacks: analyses.iter().filter(|a| a.is_attack()).count(),
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            quarantined: 0,
        };
        (analyses, stats)
    }

    /// Scans `txs` against a caller-owned cache (reusable across batches
    /// that share the same [`ChainView`]), returning analyses in input
    /// order.
    pub fn scan_with_cache(
        &self,
        detector: &LeiShen,
        txs: &[&TxRecord],
        view: &ChainView<'_>,
        cache: &TagCache,
    ) -> Vec<Analysis> {
        self.scan_impl(detector, txs, view, cache, &NoopSink, &NoopTracer)
    }

    /// Like [`ScanEngine::scan_with_cache`], with every worker recording
    /// decision provenance into one shared [`FlightRecorder`] through its
    /// own lock-free [`TraceSink::worker_front`]. Produces exactly the
    /// same analyses, in the same input order, as the untraced scan — the
    /// trace identity test asserts this — while the recorder retains the
    /// last-N cleared traces and pins every flagged one.
    pub fn scan_traced(
        &self,
        detector: &LeiShen,
        txs: &[&TxRecord],
        view: &ChainView<'_>,
        cache: &TagCache,
        recorder: &FlightRecorder,
    ) -> Vec<Analysis> {
        self.scan_impl(detector, txs, view, cache, &NoopSink, recorder)
    }

    /// Like [`ScanEngine::scan_with_cache`], with every worker reporting
    /// per-stage latency and per-transaction counters into one shared
    /// [`RecordingSink`]. Produces exactly the same analyses, in the same
    /// input order, as the unmetered scan — the telemetry identity test
    /// asserts this — while the sink accumulates the stage histograms and
    /// counter totals the `obs` bench bin serializes.
    pub fn scan_metered(
        &self,
        detector: &LeiShen,
        txs: &[&TxRecord],
        view: &ChainView<'_>,
        cache: &TagCache,
        sink: &RecordingSink,
    ) -> Vec<Analysis> {
        self.scan_impl(detector, txs, view, cache, sink, &NoopTracer)
    }

    /// Like [`ScanEngine::scan_with_cache`] but generic over both the
    /// metrics sink and the trace sink — metered *and* traced in one
    /// pass. `scan_metered`/`scan_traced` are thin wrappers over this.
    pub fn scan_instrumented<S: MetricsSink + Sync, T: TraceSink + Sync>(
        &self,
        detector: &LeiShen,
        txs: &[&TxRecord],
        view: &ChainView<'_>,
        cache: &TagCache,
        sink: &S,
        tracer: &T,
    ) -> Vec<Analysis> {
        self.scan_impl(detector, txs, view, cache, sink, tracer)
    }

    /// Fault-isolated scan: every transaction gets a
    /// [`Verdict`](crate::resilience::Verdict) — a completed analysis,
    /// or a structured quarantine — and a panicking analysis never
    /// takes the batch (or the process) down with it. See
    /// [`ResilienceConfig`] for the validation/retry policy.
    pub fn scan_resilient(
        &self,
        detector: &LeiShen,
        txs: &[&TxRecord],
        view: &ChainView<'_>,
        cache: &TagCache,
        policy: &ResilienceConfig,
    ) -> ResilientScan {
        self.scan_resilient_with(detector, txs, view, cache, policy, &NoopSink, &NoopTracer)
    }

    /// [`ScanEngine::scan_resilient`] with instrumentation: quarantines
    /// are counted on the sink
    /// ([`crate::telemetry::TxCountersTotal::quarantined`]) and each
    /// quarantined transaction records a provenance trace whose
    /// decision carries [`Reason::Indeterminate`]. Pass a
    /// [`crate::resilience::FaultInjector`] as the sink to land induced
    /// chaos faults mid-pipeline.
    #[allow(clippy::too_many_arguments)]
    pub fn scan_resilient_with<S: MetricsSink + Sync, T: TraceSink + Sync>(
        &self,
        detector: &LeiShen,
        txs: &[&TxRecord],
        view: &ChainView<'_>,
        cache: &TagCache,
        policy: &ResilienceConfig,
        sink: &S,
        tracer: &T,
    ) -> ResilientScan {
        let verdicts = self.scan_core(detector, txs, view, cache, sink, tracer, Some(policy));
        let stats = ScanStats {
            transactions: verdicts.len(),
            attacks: verdicts
                .iter()
                .filter_map(Verdict::analysis)
                .filter(|a| a.is_attack())
                .count(),
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            quarantined: verdicts.iter().filter(|v| v.is_indeterminate()).count(),
        };
        ResilientScan { verdicts, stats }
    }

    /// The legacy scan: no validation, no catch — a panicking analysis
    /// propagates to the caller (as a catchable panic on the calling
    /// thread, never a process abort; see `scan_core`).
    fn scan_impl<S: MetricsSink + Sync, T: TraceSink + Sync>(
        &self,
        detector: &LeiShen,
        txs: &[&TxRecord],
        view: &ChainView<'_>,
        cache: &TagCache,
        sink: &S,
        tracer: &T,
    ) -> Vec<Analysis> {
        self.scan_core(detector, txs, view, cache, sink, tracer, None)
            .into_iter()
            .map(|verdict| match verdict {
                Verdict::Analyzed(analysis) => analysis,
                // Unreachable: scan_core only quarantines under Some(policy).
                Verdict::Indeterminate(q) => {
                    panic!("quarantine without a resilience policy: {}", q.reason())
                }
            })
            .collect()
    }

    /// The scan, generic over the metrics sink and trace sink so the
    /// [`NoopSink`]/[`NoopTracer`] path monomorphizes with zero
    /// instrumentation. Each worker records into its own
    /// [`MetricsSink::worker_front`] / [`TraceSink::worker_front`] —
    /// thread-local, lock-free — which merges into the shared sink when
    /// the worker finishes.
    ///
    /// With `policy: Some(..)` every transaction is analyzed under
    /// `catch_unwind` and failures become [`Verdict::Indeterminate`];
    /// with `None` the per-transaction guard compiles out and worker
    /// panics are re-raised on the calling thread via `resume_unwind`
    /// (original payload preserved) after every surviving worker has
    /// been joined — a poisoned worker never aborts the process, and
    /// the other workers' chunks are still drained.
    #[allow(clippy::too_many_arguments)]
    fn scan_core<S: MetricsSink + Sync, T: TraceSink + Sync>(
        &self,
        detector: &LeiShen,
        txs: &[&TxRecord],
        view: &ChainView<'_>,
        cache: &TagCache,
        sink: &S,
        tracer: &T,
        policy: Option<&ResilienceConfig>,
    ) -> Vec<Verdict> {
        if txs.is_empty() {
            return Vec::new();
        }
        let hw = if self.oversubscribe {
            usize::MAX
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        };
        let workers = self
            .workers
            .min(hw)
            .min(txs.len().div_ceil(self.chunk_size));
        if workers <= 1 {
            let mut tags = LocalTagCache::new(cache);
            let mut scratch = AnalysisScratch::default();
            return analyze_run(
                detector,
                txs,
                0,
                view,
                &mut tags,
                &mut scratch,
                &sink.worker_front(),
                &tracer.worker_front(),
                policy,
            );
        }

        // Input-order chunks of exactly `chunk_size` (the last may be
        // shorter). Workers claim the next chunk index from one counter
        // until it runs past the end, and publish each finished chunk
        // into its slot immediately, so work a worker finished before
        // dying is never lost with it.
        let chunks: Vec<&[&TxRecord]> = txs.chunks(self.chunk_size).collect();
        let next_chunk = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Vec<Verdict>>>> =
            chunks.iter().map(|_| Mutex::new(None)).collect();

        let work = || {
            let mut tags = LocalTagCache::new(cache);
            let mut scratch = AnalysisScratch::default();
            let front = sink.worker_front();
            let tfront = tracer.worker_front();
            // Relaxed suffices: the counter only hands out distinct
            // indices; verdicts travel through the slot mutexes and the
            // scope join.
            loop {
                let chunk_idx = next_chunk.fetch_add(1, Ordering::Relaxed);
                let Some(chunk) = chunks.get(chunk_idx) else {
                    break;
                };
                let verdicts = analyze_run(
                    detector,
                    chunk,
                    chunk_idx * self.chunk_size,
                    view,
                    &mut tags,
                    &mut scratch,
                    &front,
                    &tfront,
                    policy,
                );
                *slots[chunk_idx].lock() = Some(verdicts);
            }
        };
        let scope_result = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers).map(|_| scope.spawn(|_| work())).collect();
            // The calling thread is the last worker: one thread fewer to
            // spawn per scan, which is most of a small batch's overhead.
            work();
            // Join every worker, collecting panic payloads instead of
            // propagating the first one — the rest of the pool gets to
            // finish draining the chunks either way.
            let mut panics: Vec<Box<dyn Any + Send>> = Vec::new();
            for handle in handles {
                if let Err(payload) = handle.join() {
                    panics.push(payload);
                }
            }
            panics
        });
        let mut panics = match scope_result {
            Ok(panics) => panics,
            // The calling thread's own worker panicked. The scope still
            // waited for the spawned workers to drain the chunks.
            Err(payload) => vec![payload],
        };

        if policy.is_none() {
            if let Some(payload) = panics.pop() {
                // Legacy semantics: the caller sees the worker's panic
                // (payload intact, catchable) on its own thread.
                resume_unwind(payload);
            }
        }

        // Chunks are input-order runs, so concatenating the slots in
        // chunk order restores input order.
        let mut out = Vec::with_capacity(txs.len());
        for (chunk_idx, slot) in slots.into_iter().enumerate() {
            match slot.into_inner() {
                Some(verdicts) => out.extend(verdicts),
                None => {
                    // A worker died between claiming this chunk and
                    // publishing it (possible under a resilience policy
                    // only if the fault escaped the per-transaction
                    // guard). Reprocess the chunk on the calling thread
                    // under the same guard.
                    let mut tags = LocalTagCache::new(cache);
                    let mut scratch = AnalysisScratch::default();
                    out.extend(analyze_run(
                        detector,
                        chunks[chunk_idx],
                        chunk_idx * self.chunk_size,
                        view,
                        &mut tags,
                        &mut scratch,
                        &sink.worker_front(),
                        &tracer.worker_front(),
                        policy,
                    ));
                }
            }
        }
        out
    }
}

/// Analyzes `run` — the batch's transactions from index `first` on — with
/// one worker's cache front, scratch buffers and sink fronts, returning
/// one verdict per transaction in input order.
#[allow(clippy::too_many_arguments)]
fn analyze_run<S: MetricsSink, T: TraceSink>(
    detector: &LeiShen,
    run: &[&TxRecord],
    first: usize,
    view: &ChainView<'_>,
    tags: &mut LocalTagCache<'_>,
    scratch: &mut AnalysisScratch,
    front: &S,
    tfront: &T,
    policy: Option<&ResilienceConfig>,
) -> Vec<Verdict> {
    run.iter()
        .enumerate()
        .map(|(offset, tx)| {
            analyze_guarded(
                detector,
                tx,
                first + offset,
                view,
                tags,
                scratch,
                front,
                tfront,
                policy,
            )
        })
        .collect()
}

/// Analyzes one transaction under the given resilience policy.
///
/// `policy: None` is the legacy path — a direct `analyze_traced` call
/// with no validation and no unwind guard, so the monomorphized hot
/// path is unchanged. With a policy, the record is validated first
/// (quarantining invalid input before it reaches the pipeline), the
/// analysis runs under `catch_unwind`, and a panicking attempt is
/// retried once with fresh scratch state when the policy allows it.
#[allow(clippy::too_many_arguments)]
fn analyze_guarded<S: MetricsSink, T: TraceSink>(
    detector: &LeiShen,
    tx: &TxRecord,
    index: usize,
    view: &ChainView<'_>,
    tags: &mut LocalTagCache<'_>,
    scratch: &mut AnalysisScratch,
    front: &S,
    tfront: &T,
    policy: Option<&ResilienceConfig>,
) -> Verdict {
    let Some(policy) = policy else {
        return Verdict::Analyzed(detector.analyze_traced(
            tx,
            view,
            &mut |addr| tags.resolve(addr, view.labels(), view.creations()),
            scratch,
            front,
            tfront,
        ));
    };

    // Deadline first: once the budget is spent the scan stops paying
    // for *anything* per transaction (validation included) and just
    // drains the remaining inputs into degraded-mode verdicts.
    if let Some(deadline) = policy.deadline {
        if std::time::Instant::now() >= deadline {
            return quarantine(tx, index, Fault::Deadline, None, 0, front, tfront);
        }
    }

    if policy.validate_inputs {
        let violations = validate_record(tx);
        if !violations.is_empty() {
            return quarantine(
                tx,
                index,
                Fault::InvalidInput { violations },
                None,
                0,
                front,
                tfront,
            );
        }
    }

    let max_attempts = if policy.retry_once { 2 } else { 1 };
    let mut attempts = 0;
    loop {
        attempts += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            detector.analyze_traced(
                tx,
                view,
                &mut |addr| tags.resolve(addr, view.labels(), view.creations()),
                scratch,
                front,
                tfront,
            )
        }));
        match outcome {
            Ok(analysis) => return Verdict::Analyzed(analysis),
            Err(payload) => {
                // The unwound attempt may have left intermediate state
                // in the scratch buffers; start the retry (and any
                // later transaction) from a clean slate. The tag cache
                // is kept — its entries are immutable once inserted.
                *scratch = AnalysisScratch::default();
                if attempts >= max_attempts {
                    let message = payload_message(payload.as_ref());
                    let stage = stage_of_payload(&message);
                    return quarantine(
                        tx,
                        index,
                        Fault::Panic { message },
                        stage,
                        attempts,
                        front,
                        tfront,
                    );
                }
            }
        }
    }
}

/// Builds the [`Verdict::Indeterminate`] outcome: counts the quarantine
/// on the metrics sink and records a degraded-mode provenance trace
/// (decision `flagged: false` with a single [`Reason::Indeterminate`])
/// so flight recorders see quarantined transactions too.
fn quarantine<S: MetricsSink, T: TraceSink>(
    tx: &TxRecord,
    index: usize,
    fault: Fault,
    stage: Option<crate::telemetry::Stage>,
    attempts: u32,
    front: &S,
    tfront: &T,
) -> Verdict {
    let record = Quarantine {
        tx: tx.id,
        index,
        fault,
        stage,
        attempts,
    };
    if S::ENABLED {
        front.quarantined();
    }
    if T::ENABLED {
        let builder = TraceBuilder::start(tfront);
        builder.finish(
            tfront,
            tx,
            Decision {
                flagged: false,
                reasons: vec![Reason::Indeterminate {
                    fault: record.reason(),
                }],
            },
        );
    }
    Verdict::Indeterminate(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DetectorConfig;
    use ethsim::CreationRecord;

    fn rec(creator: u64, created: u64) -> CreationRecord {
        CreationRecord {
            creator: Address::from_u64(creator),
            created: Address::from_u64(created),
            block: 0,
        }
    }

    #[test]
    fn cache_agrees_with_direct_resolution() {
        let mut labels = Labels::new();
        labels.set(Address::from_u64(1), "Uniswap");
        let idx = CreationIndex::new(&[rec(1, 2), rec(2, 3), rec(10, 11)]);
        let cache = TagCache::new();
        for a in [0u64, 1, 2, 3, 10, 11, 99] {
            let addr = Address::from_u64(a);
            assert_eq!(
                cache.resolve(addr, &labels, &idx),
                tag_of(addr, &labels, &idx),
                "address {a}"
            );
        }
    }

    #[test]
    fn second_lookup_hits() {
        let labels = Labels::new();
        let idx = CreationIndex::new(&[rec(1, 2)]);
        let cache = TagCache::new();
        let a = Address::from_u64(2);
        let first = cache.resolve(a, &labels, &idx);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 0);
        let second = cache.resolve(a, &labels, &idx);
        assert_eq!(first, second);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn black_hole_bypasses_the_table() {
        let labels = Labels::new();
        let idx = CreationIndex::new(&[]);
        let cache = TagCache::new();
        assert_eq!(cache.resolve(Address::ZERO, &labels, &idx), Tag::BlackHole);
        assert!(cache.is_empty());
        assert_eq!(cache.hits() + cache.misses(), 0);
    }

    #[test]
    fn clear_resets_everything() {
        let labels = Labels::new();
        let idx = CreationIndex::new(&[]);
        let cache = TagCache::new();
        cache.resolve(Address::from_u64(5), &labels, &idx);
        cache.resolve(Address::from_u64(5), &labels, &idx);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn growing_cache_rebuilds_its_snapshot_only_when_it_doubles() {
        // `k` new addresses per front over `m` fronts, as a stream over a
        // cold cache grows it block by block. Rebuilding on every growth
        // would cost m - 1 rebuilds; doubling bounds them by log2(m) + 1.
        let (k, m) = (7u64, 100u64);
        // A binary creation tree under address 1, with a conflicting
        // label at 3: the tags are a mix of App and Unknown.
        let mut labels = Labels::new();
        labels.set(Address::from_u64(1), "Uniswap");
        labels.set(Address::from_u64(3), "Curve");
        let records: Vec<CreationRecord> = (2..=k * m).map(|a| rec(a / 2, a)).collect();
        let idx = CreationIndex::new(&records);
        let cache = TagCache::new();
        for front_no in 0..m {
            let mut front = LocalTagCache::new(&cache);
            // Every address cached so far (some newer than the last
            // rebuild, so missing from the snapshot) and `k` new ones.
            for a in 1..=k * (front_no + 1) {
                let addr = Address::from_u64(a);
                assert_eq!(
                    front.resolve(addr, &labels, &idx),
                    tag_of(addr, &labels, &idx),
                    "front {front_no} address {a}"
                );
            }
        }
        assert_eq!(cache.len() as u64, k * m);
        let bound = u64::from((m as f64).log2().ceil() as u32) + 1;
        assert!(
            cache.snapshot_rebuilds() <= bound,
            "{} rebuilds over {m} fronts, bound {bound}",
            cache.snapshot_rebuilds()
        );
        // Misses are first resolutions only: nothing was computed twice.
        assert_eq!(cache.misses(), k * m);
    }

    #[test]
    fn clear_drops_the_snapshot_with_the_tags() {
        // Fill the cache and freeze it into a snapshot, then change the
        // label cloud: after `clear` the next front must not answer from
        // the old snapshot, although the refilled cache is far smaller.
        let idx = CreationIndex::new(&[rec(1, 2)]);
        let mut labels = Labels::new();
        labels.set(Address::from_u64(1), "Yearn");
        let cache = TagCache::new();
        for a in 1u64..=40 {
            cache.resolve(Address::from_u64(a), &labels, &idx);
        }
        let pool = Address::from_u64(2);
        assert_eq!(
            LocalTagCache::new(&cache).resolve(pool, &labels, &idx),
            Tag::App("Yearn".into())
        );
        assert_eq!(cache.snapshot_rebuilds(), 1);

        labels.set(Address::from_u64(1), "Uniswap");
        cache.clear();
        let relabeled = Tag::App("Uniswap".into());
        assert_eq!(
            LocalTagCache::new(&cache).resolve(pool, &labels, &idx),
            relabeled
        );
        // And once the refilled cache is snapshotted again.
        assert_eq!(
            LocalTagCache::new(&cache).resolve(pool, &labels, &idx),
            relabeled
        );
        assert_eq!(cache.snapshot_rebuilds(), 2);
    }

    #[test]
    fn shard_stats_cover_every_miss() {
        let labels = Labels::new();
        let idx = CreationIndex::new(&[rec(1, 2)]);
        let cache = TagCache::new();
        for a in 1u64..=40 {
            cache.resolve(Address::from_u64(a), &labels, &idx);
        }
        let stats = cache.shard_stats();
        assert_eq!(stats.iter().map(|s| s.inserts).sum::<u64>(), cache.misses());
        assert_eq!(stats.iter().map(|s| s.entries).sum::<usize>(), cache.len());
        assert_eq!(cache.misses(), 40);
        assert_eq!(cache.hit_rate(), 0.0);
        cache.resolve(Address::from_u64(1), &labels, &idx);
        assert!(cache.hit_rate() > 0.0);
    }

    #[test]
    fn engine_clamps_degenerate_parameters() {
        let engine = ScanEngine::new(0).with_chunk_size(0);
        assert_eq!(engine.workers(), 1);
        assert_eq!(engine.chunk_size, 1);
        let labels = Labels::new();
        let view = ChainView::new(&labels, &[], None);
        let detector = LeiShen::new(DetectorConfig::paper());
        assert!(engine.scan(&detector, &[], &view).is_empty());
    }

    // ----- resilience ------------------------------------------------------

    use crate::resilience::{FaultInjector, InducedFault};
    use crate::telemetry::Stage;
    use crate::trace::FlightRecorder;
    use ethsim::Chain;

    /// A small genuine world: a dozen token transactions (no attacks —
    /// the 22-attack corpus is exercised by the integration tests).
    fn world() -> Vec<TxRecord> {
        let mut chain = Chain::default();
        let a = chain.create_eoa("resilience-a");
        let b = chain.create_eoa("resilience-b");
        chain.state_mut().credit_eth(a, 10_000_000).unwrap();
        chain
            .execute(a, a, "setup", |ctx| {
                let c = ctx.create_contract(a)?;
                let gold = ctx.register_token("RGOLD", 18, c);
                ctx.mint_token(gold, a, 1_000_000)?;
                Ok(())
            })
            .unwrap();
        let gold = chain.state().token_by_symbol("RGOLD").unwrap();
        for i in 0..12u64 {
            chain
                .execute(a, b, "pay", move |ctx| {
                    ctx.call(a, b, "pay", 10 + i as u128, |inner| {
                        inner.transfer_token(gold, a, b, 100 + i as u128)?;
                        inner.emit_log(b, "Paid", vec![]);
                        Ok(())
                    })
                })
                .unwrap();
        }
        chain.transactions().to_vec()
    }

    fn refs(records: &[TxRecord]) -> Vec<&TxRecord> {
        records.iter().collect()
    }

    #[test]
    fn resilient_scan_matches_legacy_on_clean_input() {
        let records = world();
        let txs = refs(&records);
        let labels = Labels::new();
        let view = ChainView::new(&labels, &[], None);
        let detector = LeiShen::new(DetectorConfig::paper());
        let policy = ResilienceConfig::new();

        for engine in [
            ScanEngine::new(1),
            ScanEngine::new(4).with_chunk_size(2).allow_oversubscription(),
        ] {
            let legacy = engine.scan(&detector, &txs, &view);
            let resilient =
                engine.scan_resilient(&detector, &txs, &view, &TagCache::new(), &policy);
            assert!(resilient.is_fully_analyzed());
            assert_eq!(resilient.stats.quarantined, 0);
            assert_eq!(resilient.stats.transactions, txs.len());
            let analyses: Vec<&Analysis> = resilient.analyses().collect();
            assert_eq!(analyses.len(), legacy.len());
            for (got, want) in analyses.iter().zip(&legacy) {
                assert_eq!(*got, want);
            }
        }
    }

    #[test]
    fn corrupted_record_is_quarantined_not_fatal() {
        let mut records = world();
        // Out-of-order transfer seqs: fails validation.
        let victim = records.len() - 2;
        records[victim].trace.transfers.first_mut().unwrap().seq = 9_999;
        let txs = refs(&records);
        let labels = Labels::new();
        let view = ChainView::new(&labels, &[], None);
        let detector = LeiShen::new(DetectorConfig::paper());

        for engine in [
            ScanEngine::new(1),
            ScanEngine::new(4).with_chunk_size(2).allow_oversubscription(),
        ] {
            let scan = engine.scan_resilient(
                &detector,
                &txs,
                &view,
                &TagCache::new(),
                &ResilienceConfig::new(),
            );
            assert_eq!(scan.stats.quarantined, 1);
            assert_eq!(scan.verdicts.len(), txs.len());
            let q = scan.verdicts[victim]
                .quarantine()
                .expect("corrupted record quarantined");
            assert_eq!(q.index, victim);
            assert_eq!(q.tx, records[victim].id);
            assert_eq!(q.attempts, 0, "invalid input never enters the pipeline");
            assert!(q.reason().starts_with("invalid_input:"), "{}", q.reason());
            // Every other transaction still has a real verdict.
            for (i, v) in scan.verdicts.iter().enumerate() {
                assert_eq!(v.is_indeterminate(), i == victim, "index {i}");
            }
        }
    }

    #[test]
    fn induced_panic_is_transient_under_retry() {
        let records = world();
        let txs = refs(&records);
        let labels = Labels::new();
        let view = ChainView::new(&labels, &[], None);
        let detector = LeiShen::new(DetectorConfig::paper());
        let target = records[3].id;
        let injector = FaultInjector::new(
            NoopSink,
            [(target, InducedFault::Panic { stage: Stage::FlashLoan })],
        );
        let engine = ScanEngine::new(1);
        let scan = engine.scan_resilient_with(
            &detector,
            &txs,
            &view,
            &TagCache::new(),
            &ResilienceConfig::new(),
            &injector,
            &NoopTracer,
        );
        assert_eq!(injector.panics_fired(), 1);
        assert!(scan.is_fully_analyzed(), "retry absorbs the transient fault");
    }

    #[test]
    fn induced_panic_quarantines_without_retry() {
        let records = world();
        let txs = refs(&records);
        let labels = Labels::new();
        let view = ChainView::new(&labels, &[], None);
        let detector = LeiShen::new(DetectorConfig::paper());
        let target = records[5].id;
        let injector = FaultInjector::new(
            NoopSink,
            [(target, InducedFault::Panic { stage: Stage::FlashLoan })],
        );
        let engine = ScanEngine::new(4).with_chunk_size(2).allow_oversubscription();
        let scan = engine.scan_resilient_with(
            &detector,
            &txs,
            &view,
            &TagCache::new(),
            &ResilienceConfig::new().without_retry(),
            &injector,
            &NoopTracer,
        );
        assert_eq!(scan.stats.quarantined, 1);
        let q = scan.quarantines().next().expect("one quarantine");
        assert_eq!(q.tx, target);
        assert_eq!(q.attempts, 1);
        assert_eq!(q.stage, Some(Stage::FlashLoan));
        assert_eq!(q.reason(), "panic@flash_loan");
        // The batch survived: everything else analyzed.
        assert_eq!(scan.analyses().count(), txs.len() - 1);
    }

    #[test]
    fn quarantines_flow_into_telemetry_and_traces() {
        let mut records = world();
        let victim = 4;
        records[victim].trace.transfers.first_mut().unwrap().amount = u128::MAX;
        let txs = refs(&records);
        let labels = Labels::new();
        let view = ChainView::new(&labels, &[], None);
        let detector = LeiShen::new(DetectorConfig::paper());

        let sink = RecordingSink::new();
        let recorder = FlightRecorder::new();
        let engine = ScanEngine::new(4).with_chunk_size(3).allow_oversubscription();
        let scan = engine.scan_resilient_with(
            &detector,
            &txs,
            &view,
            &TagCache::new(),
            &ResilienceConfig::new(),
            &sink,
            &recorder,
        );
        assert_eq!(scan.stats.quarantined, 1);
        assert_eq!(sink.counter_totals().quarantined, 1);
        // The analyzed transactions were recorded as usual.
        assert_eq!(sink.counter_totals().transactions, (txs.len() - 1) as u64);

        let trace = recorder
            .find(records[victim].id)
            .expect("quarantined tx has a provenance trace");
        assert!(!trace.decision.flagged);
        assert_eq!(trace.decision.reasons.len(), 1);
        match &trace.decision.reasons[0] {
            crate::trace::Reason::Indeterminate { fault } => {
                assert_eq!(fault, "invalid_input:amount_overflow");
            }
            other => panic!("expected Indeterminate, got {other:?}"),
        }
    }

    #[test]
    fn legacy_scan_propagates_worker_panics_catchably() {
        let records = world();
        let txs = refs(&records);
        let labels = Labels::new();
        let view = ChainView::new(&labels, &[], None);
        let detector = LeiShen::new(DetectorConfig::paper());
        let target = records[2].id;

        for engine in [
            ScanEngine::new(1),
            ScanEngine::new(4).with_chunk_size(2).allow_oversubscription(),
        ] {
            let injector = FaultInjector::new(
                NoopSink,
                [(target, InducedFault::Panic { stage: Stage::FlashLoan })],
            );
            let cache = TagCache::new();
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                engine.scan_instrumented(&detector, &txs, &view, &cache, &injector, &NoopTracer)
            }));
            // No quarantine path in the legacy scan: the panic reaches
            // the caller with its payload intact — and is catchable, so
            // a worker fault cannot abort the process.
            let payload = caught.expect_err("legacy scan re-raises the panic");
            let message = payload_message(payload.as_ref());
            assert!(
                message.starts_with(crate::resilience::INDUCED_PANIC_PREFIX),
                "{message}"
            );
        }
    }

    /// A sink whose worker front cannot be built on one thread: a fault
    /// outside the per-transaction guard, on whichever worker runs there.
    struct RefusesThread(std::thread::ThreadId);

    impl MetricsSink for RefusesThread {
        const ENABLED: bool = false;

        type WorkerFront<'a> = NoopSink;

        fn worker_front(&self) -> NoopSink {
            assert_ne!(std::thread::current().id(), self.0, "worker front refused");
            NoopSink
        }

        fn transaction(
            &self,
            _counters: &crate::telemetry::TxCounters,
            _laps: &crate::telemetry::StageLaps,
        ) {
        }
    }

    #[test]
    fn calling_thread_worker_dies_like_a_spawned_one() {
        // The calling thread is one of the workers. Its worker dies here
        // before claiming a chunk: a resilient scan still completes on
        // the spawned worker, and the legacy scan re-raises the panic.
        let records = world();
        let txs = refs(&records);
        let labels = Labels::new();
        let view = ChainView::new(&labels, &[], None);
        let detector = LeiShen::new(DetectorConfig::paper());
        let sink = RefusesThread(std::thread::current().id());
        let engine = ScanEngine::new(2).with_chunk_size(2).allow_oversubscription();

        let scan = engine.scan_resilient_with(
            &detector,
            &txs,
            &view,
            &TagCache::new(),
            &ResilienceConfig::new(),
            &sink,
            &NoopTracer,
        );
        assert_eq!(scan.verdicts.len(), txs.len());
        assert!(scan.is_fully_analyzed());

        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            engine.scan_instrumented(&detector, &txs, &view, &TagCache::new(), &sink, &NoopTracer)
        }));
        let payload = caught.expect_err("legacy scan re-raises the panic");
        let message = payload_message(payload.as_ref());
        assert!(message.contains("worker front refused"), "{message}");
    }

    #[test]
    fn validation_can_be_disabled() {
        let mut records = world();
        records[1].trace.transfers.first_mut().unwrap().amount = u128::MAX;
        let txs = refs(&records);
        let labels = Labels::new();
        let view = ChainView::new(&labels, &[], None);
        let detector = LeiShen::new(DetectorConfig::paper());
        let engine = ScanEngine::new(1);
        // An overflow amount doesn't panic the pipeline — it just
        // produces an untrusted analysis. Without validation the
        // resilient scan analyzes it like the legacy scan would.
        let scan = engine.scan_resilient(
            &detector,
            &txs,
            &view,
            &TagCache::new(),
            &ResilienceConfig::new().without_validation(),
        );
        assert!(scan.is_fully_analyzed());
    }
}
