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
//! * [`TagCache`] — a concurrent `Address → Tag` memo with one slot per
//!   account of the view's creation index. Resolution goes through the
//!   cache once per distinct address *per corpus* instead of per
//!   transaction. The cache is only valid for one `(labels, creations)`
//!   context; build a fresh one per [`ChainView`].
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
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use ethsim::{validate_record, Address, CreationIndex, SpanId, TxRecord};
use parking_lot::Mutex;

use crate::detector::{Analysis, AnalysisScratch, ChainView, LeiShen};
use crate::labels::Labels;
use crate::resilience::{
    payload_message, stage_of_payload, Fault, Quarantine, ResilienceConfig, ResilientScan,
    Verdict,
};
use crate::tagging::{tag_of, Tag};
use crate::telemetry::{Observer, RecordingSink};
use crate::trace::{Decision, FlightRecorder, Reason, TxProvenance};

/// A memo of [`tag_of`] results: one slot per account of one
/// [`CreationIndex`].
///
/// Tags depend only on `(address, labels, creations)`, and a scan runs
/// against one fixed [`ChainView`], so resolutions are shared freely
/// across transactions and across worker threads. The memo is a flat
/// array of `OnceLock<Tag>` indexed by the creation index's dense account
/// ids ([`CreationIndex::id`]), allocated at the cache's first lookup: 32
/// bytes per indexed account. A lookup is one id probe and one atomic
/// load, with no lock. The first lookup of an account runs [`tag_of`]
/// exactly once; a concurrent lookup of the same account waits for that
/// run instead of repeating it.
///
/// The cache binds to the index of its first lookup and panics when
/// handed another one: its slots are that index's ids, which name other
/// accounts in another index (a clone is the same index). Build one cache
/// per [`ChainView`]; a fresh cache is also how to reset one.
///
/// An account outside the index (no creation record) has no slot: its tag
/// is its label or `Tag::Root(addr)`, computed on the spot and counted as
/// neither a hit nor a miss, like the zero address, which short-circuits
/// to [`Tag::BlackHole`]. Once every [`LocalTagCache`] over the cache is
/// dropped, [`TagCache::misses`] therefore equals [`TagCache::len`].
#[derive(Debug, Default)]
pub struct TagCache {
    /// The [`CreationIndex::stamp`] of the index whose ids the slots follow,
    /// and the slots.
    memo: OnceLock<(u64, Box<[OnceLock<Tag>]>)>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TagCache {
    /// An empty cache.
    pub fn new() -> Self {
        TagCache::default()
    }

    /// The tag of `addr`, from the memo when present, computed (and
    /// memoized) via [`tag_of`] otherwise.
    ///
    /// # Panics
    ///
    /// When `creations` is not the index of this cache's first lookup.
    pub fn resolve(&self, addr: Address, labels: &Labels, creations: &CreationIndex) -> Tag {
        LocalTagCache::new(self).resolve(addr, labels, creations)
    }

    /// The slots of `creations`' ids, allocated at the first lookup.
    #[inline]
    fn slots(&self, creations: &CreationIndex) -> &[OnceLock<Tag>] {
        let (index, slots) = self.memo.get_or_init(|| {
            let slots = (0..creations.len()).map(|_| OnceLock::new()).collect();
            (creations.stamp(), slots)
        });
        assert!(
            *index == creations.stamp(),
            "a TagCache serves one CreationIndex: build one cache per ChainView"
        );
        slots
    }

    /// Always 0 (there is no snapshot): kept only for the benchmark's
    /// `tagging.snapshot_rebuilds` row.
    pub fn snapshot_rebuilds(&self) -> u64 {
        0
    }

    /// Always 0 (lookups take no lock): kept only for the benchmark's
    /// `tagging.lock_waits` row.
    pub fn lock_waits(&self) -> u64 {
        0
    }

    /// Number of lookups answered from the memo.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to compute a fresh tag: one per filled
    /// slot.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fraction of lookups answered from the memo (0 when untouched).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits();
        let total = hits + self.misses();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Number of accounts with a memoized tag (one pass over the slots).
    pub fn len(&self) -> usize {
        let Some((_, slots)) = self.memo.get() else {
            return 0;
        };
        slots.iter().filter(|s| s.get().is_some()).count()
    }

    /// Whether no tag has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One worker's hit/miss tally over a shared [`TagCache`].
///
/// Memo reads take no lock, so a worker needs no private copy of the
/// cache. The front only keeps the worker's hit and miss counts off the
/// shared counters, which every worker would otherwise write on every
/// lookup, and adds them to [`TagCache::hits`] and [`TagCache::misses`]
/// when dropped.
pub struct LocalTagCache<'a> {
    shared: &'a TagCache,
    hits: u64,
    misses: u64,
}

impl<'a> LocalTagCache<'a> {
    /// A front over `shared`.
    pub fn new(shared: &'a TagCache) -> Self {
        LocalTagCache {
            shared,
            hits: 0,
            misses: 0,
        }
    }

    /// The tag of `addr`, as [`TagCache::resolve`] gives it.
    #[inline]
    pub fn resolve(&mut self, addr: Address, labels: &Labels, creations: &CreationIndex) -> Tag {
        if addr.is_zero() {
            return Tag::BlackHole;
        }
        let slots = self.shared.slots(creations);
        let Some(id) = creations.id(addr) else {
            return tag_of(addr, labels, creations);
        };
        let mut missed = false;
        let tag = slots[id as usize].get_or_init(|| {
            missed = true;
            tag_of(addr, labels, creations)
        });
        if missed {
            self.misses += 1;
        } else {
            self.hits += 1;
        }
        tag.clone()
    }
}

impl Drop for LocalTagCache<'_> {
    fn drop(&mut self) {
        if self.hits > 0 {
            self.shared.hits.fetch_add(self.hits, Ordering::Relaxed);
        }
        if self.misses > 0 {
            self.shared.misses.fetch_add(self.misses, Ordering::Relaxed);
        }
    }
}

/// Summary of one resilient batch scan ([`ResilientScan::stats`]).
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
    /// Transactions quarantined instead of analyzed.
    pub quarantined: usize,
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

    /// Workers a scan of `txs` transactions runs: the configured count,
    /// capped by the chunk count and (unless oversubscribed) hardware threads.
    ///
    /// The hardware thread count is read once per process and kept in a
    /// `OnceLock`: `std::thread::available_parallelism` parses the cgroup
    /// CPU quota on every call, several read syscalls, and a stream calls
    /// this once per block.
    pub fn effective_workers(&self, txs: usize) -> usize {
        static HW_THREADS: OnceLock<usize> = OnceLock::new();
        let hw = if self.oversubscribe {
            usize::MAX
        } else {
            *HW_THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        };
        self.workers.min(hw).min(txs.div_ceil(self.chunk_size))
    }

    /// Scans `txs` with a fresh internal cache, returning one [`Analysis`]
    /// per transaction, in input order.
    pub fn scan(&self, detector: &LeiShen, txs: &[&TxRecord], view: &ChainView<'_>) -> Vec<Analysis> {
        self.scan_with_cache(detector, txs, view, &TagCache::new())
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
        self.scan_observed(detector, txs, view, cache, &())
    }

    /// [`ScanEngine::scan_observed`] recording decision provenance into
    /// one shared [`FlightRecorder`], which retains the last-N cleared
    /// traces and pins every flagged one.
    pub fn scan_traced(
        &self,
        detector: &LeiShen,
        txs: &[&TxRecord],
        view: &ChainView<'_>,
        cache: &TagCache,
        recorder: &FlightRecorder,
    ) -> Vec<Analysis> {
        self.scan_observed(detector, txs, view, cache, recorder)
    }

    /// [`ScanEngine::scan_observed`] reporting per-stage latency and
    /// per-transaction counters into one shared [`RecordingSink`], which
    /// accumulates the stage histograms and counter totals the `obs` bench
    /// bin serializes.
    pub fn scan_metered(
        &self,
        detector: &LeiShen,
        txs: &[&TxRecord],
        view: &ChainView<'_>,
        cache: &TagCache,
        sink: &RecordingSink,
    ) -> Vec<Analysis> {
        self.scan_observed(detector, txs, view, cache, sink)
    }

    /// [`ScanEngine::scan_with_cache`] with every worker reporting to
    /// `observer` through its own lock-free [`Observer::front`]. Produces
    /// exactly the same analyses, in the same input order, as the
    /// unobserved scan — the telemetry and trace identity tests assert
    /// this.
    ///
    /// No validation, no catch: a panicking analysis propagates to the
    /// caller, as a catchable panic on the calling thread, never a
    /// process abort (see `scan_core`).
    pub fn scan_observed<O: Observer + Sync>(
        &self,
        detector: &LeiShen,
        txs: &[&TxRecord],
        view: &ChainView<'_>,
        cache: &TagCache,
        observer: &O,
    ) -> Vec<Analysis> {
        self.scan_core(detector, txs, view, cache, observer, None)
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

    /// Fault-isolated scan: every transaction gets a [`Verdict`] — a
    /// completed analysis, or a structured quarantine — and a panicking
    /// analysis never takes the batch (or the process) down with it. See
    /// [`ResilienceConfig`] for the validation/retry policy.
    pub fn scan_resilient(
        &self,
        detector: &LeiShen,
        txs: &[&TxRecord],
        view: &ChainView<'_>,
        cache: &TagCache,
        policy: &ResilienceConfig,
    ) -> ResilientScan {
        self.scan_resilient_with(detector, txs, view, cache, policy, &())
    }

    /// [`ScanEngine::scan_resilient`] reporting to `observer`: quarantines
    /// reach [`Observer::quarantined`] — a [`RecordingSink`] counts them
    /// ([`crate::telemetry::TxCountersTotal::quarantined`]) and a
    /// [`FlightRecorder`] keeps a provenance trace whose decision carries
    /// [`Reason::Indeterminate`]. Pass a
    /// [`crate::resilience::FaultInjector`], alone or paired with those, to
    /// land induced chaos faults mid-pipeline.
    pub fn scan_resilient_with<O: Observer + Sync>(
        &self,
        detector: &LeiShen,
        txs: &[&TxRecord],
        view: &ChainView<'_>,
        cache: &TagCache,
        policy: &ResilienceConfig,
        observer: &O,
    ) -> ResilientScan {
        let verdicts = self.scan_core(detector, txs, view, cache, observer, Some(policy));
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

    /// The scan, generic over the observer so the `()` path monomorphizes
    /// with zero instrumentation. Each worker records into its own
    /// [`Observer::front`] — thread-local, lock-free — which merges into
    /// the shared observer when the worker finishes.
    ///
    /// With `policy: Some(..)` every transaction is analyzed under
    /// `catch_unwind` and failures become [`Verdict::Indeterminate`];
    /// with `None` the per-transaction guard compiles out and worker
    /// panics are re-raised on the calling thread via `resume_unwind`
    /// (original payload preserved) after every surviving worker has
    /// been joined — a poisoned worker never aborts the process, and
    /// the other workers' chunks are still drained.
    fn scan_core<O: Observer + Sync>(
        &self,
        detector: &LeiShen,
        txs: &[&TxRecord],
        view: &ChainView<'_>,
        cache: &TagCache,
        observer: &O,
        policy: Option<&ResilienceConfig>,
    ) -> Vec<Verdict> {
        if txs.is_empty() {
            return Vec::new();
        }
        let workers = self.effective_workers(txs.len());
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
                &observer.front(),
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
            let front = observer.front();
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
                        &observer.front(),
                        policy,
                    ));
                }
            }
        }
        out
    }
}

/// Analyzes `run` — the batch's transactions from index `first` on — with
/// one worker's cache front, scratch buffers and observer front, returning
/// one verdict per transaction in input order.
#[allow(clippy::too_many_arguments)]
fn analyze_run<O: Observer>(
    detector: &LeiShen,
    run: &[&TxRecord],
    first: usize,
    view: &ChainView<'_>,
    tags: &mut LocalTagCache<'_>,
    scratch: &mut AnalysisScratch,
    front: &O,
    policy: Option<&ResilienceConfig>,
) -> Vec<Verdict> {
    run.iter()
        .enumerate()
        .map(|(offset, tx)| {
            analyze_guarded(detector, tx, first + offset, view, tags, scratch, front, policy)
        })
        .collect()
}

/// Analyzes one transaction under the given resilience policy.
///
/// `policy: None` is the legacy path — a direct `analyze_observed` call
/// with no validation and no unwind guard, so the monomorphized hot
/// path is unchanged. With a policy, the record is validated first
/// (quarantining invalid input before it reaches the pipeline), the
/// analysis runs under `catch_unwind`, and a panicking attempt is
/// retried once with fresh scratch state when the policy allows it.
#[allow(clippy::too_many_arguments)]
fn analyze_guarded<O: Observer>(
    detector: &LeiShen,
    tx: &TxRecord,
    index: usize,
    view: &ChainView<'_>,
    tags: &mut LocalTagCache<'_>,
    scratch: &mut AnalysisScratch,
    front: &O,
    policy: Option<&ResilienceConfig>,
) -> Verdict {
    let mut analyze = |scratch: &mut AnalysisScratch| {
        detector.analyze_observed(
            tx,
            view,
            &mut |addr| tags.resolve(addr, view.labels(), view.creations()),
            scratch,
            front,
        )
    };
    let Some(policy) = policy else {
        return Verdict::Analyzed(analyze(scratch));
    };

    // Deadline first: once the budget is spent the scan stops paying
    // for *anything* per transaction (validation included) and just
    // drains the remaining inputs into degraded-mode verdicts.
    if let Some(deadline) = policy.deadline {
        if std::time::Instant::now() >= deadline {
            return quarantine(tx, index, Fault::Deadline, None, 0, front);
        }
    }

    let violations = validate_record(tx);
    if !violations.is_empty() {
        return quarantine(tx, index, Fault::InvalidInput { violations }, None, 0, front);
    }

    let max_attempts = if policy.retry_once { 2 } else { 1 };
    let mut attempts = 0;
    loop {
        attempts += 1;
        match catch_unwind(AssertUnwindSafe(|| analyze(scratch))) {
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
                    let fault = Fault::Panic { message };
                    return quarantine(tx, index, fault, stage, attempts, front);
                }
            }
        }
    }
}

/// Builds the [`Verdict::Indeterminate`] outcome and reports it to the
/// observer with a degraded-mode provenance trace (decision
/// `flagged: false` with a single [`Reason::Indeterminate`]), so sinks
/// count quarantined transactions and flight recorders see them too.
fn quarantine<O: Observer>(
    tx: &TxRecord,
    index: usize,
    fault: Fault,
    stage: Option<crate::telemetry::Stage>,
    attempts: u32,
    front: &O,
) -> Verdict {
    let record = Quarantine {
        tx: tx.id,
        index,
        fault,
        stage,
        attempts,
    };
    let mut trace = O::TRACED.then(|| TxProvenance {
        tx: tx.id,
        span: SpanId::tx_root(tx.id),
        worker: 0,
        spans: Vec::new(),
        events: Vec::new(),
        decision: Decision {
            flagged: false,
            reasons: vec![Reason::Indeterminate {
                fault: record.reason(),
            }],
        },
    });
    front.quarantined(&mut trace);
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
    fn accounts_outside_the_index_use_no_slot() {
        // 50 is labelled and 60 is not; neither has a creation record.
        let mut labels = Labels::new();
        labels.set(Address::from_u64(50), "Aave");
        let idx = CreationIndex::new(&[rec(1, 2)]);
        let cache = TagCache::new();
        let mut front = LocalTagCache::new(&cache);
        for _ in 0..2 {
            let aave = front.resolve(Address::from_u64(50), &labels, &idx);
            assert_eq!(aave, Tag::App("Aave".into()));
            let root = front.resolve(Address::from_u64(60), &labels, &idx);
            assert_eq!(root, Tag::Root(Address::from_u64(60)));
        }
        front.resolve(Address::from_u64(2), &labels, &idx);
        drop(front);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 1, 1));
        assert_eq!(cache.hit_rate(), 0.0);
        cache.resolve(Address::from_u64(2), &labels, &idx);
        assert_eq!(cache.hit_rate(), 0.5);
    }

    #[test]
    #[should_panic(expected = "a TagCache serves one CreationIndex")]
    fn cache_refuses_a_second_index() {
        let labels = Labels::new();
        let records = [rec(1, 2)];
        let idx = CreationIndex::new(&records);
        let cache = TagCache::new();
        let a = Address::from_u64(2);
        cache.resolve(a, &labels, &idx);
        // A clone is the same index...
        let root = Tag::Root(Address::from_u64(1));
        assert_eq!(cache.resolve(a, &labels, &idx.clone()), root);
        // ...a second build, even from the same records, is not.
        cache.resolve(a, &labels, &CreationIndex::new(&records));
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
        let injector =
            FaultInjector::new([(target, InducedFault::Panic { stage: Stage::FlashLoan })]);
        let engine = ScanEngine::new(1);
        let scan = engine.scan_resilient_with(
            &detector,
            &txs,
            &view,
            &TagCache::new(),
            &ResilienceConfig::new(),
            &injector,
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
        let injector =
            FaultInjector::new([(target, InducedFault::Panic { stage: Stage::FlashLoan })]);
        let engine = ScanEngine::new(4).with_chunk_size(2).allow_oversubscription();
        let scan = engine.scan_resilient_with(
            &detector,
            &txs,
            &view,
            &TagCache::new(),
            &ResilienceConfig::new().without_retry(),
            &injector,
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
            &(&sink, &recorder),
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
            let injector =
                FaultInjector::new([(target, InducedFault::Panic { stage: Stage::FlashLoan })]);
            let cache = TagCache::new();
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                engine.scan_observed(&detector, &txs, &view, &cache, &injector)
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

    /// An observer whose worker front cannot be built on one thread: a
    /// fault outside the per-transaction guard, on whichever worker runs
    /// there.
    struct RefusesThread(std::thread::ThreadId);

    impl Observer for RefusesThread {
        const METERED: bool = false;
        const TRACED: bool = false;

        type Front<'a> = ();

        fn front(&self) {
            assert_ne!(std::thread::current().id(), self.0, "worker front refused");
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
        let refuses = RefusesThread(std::thread::current().id());
        let engine = ScanEngine::new(2).with_chunk_size(2).allow_oversubscription();

        let scan = engine.scan_resilient_with(
            &detector,
            &txs,
            &view,
            &TagCache::new(),
            &ResilienceConfig::new(),
            &refuses,
        );
        assert_eq!(scan.verdicts.len(), txs.len());
        assert!(scan.is_fully_analyzed());

        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            engine.scan_observed(&detector, &txs, &view, &TagCache::new(), &refuses)
        }));
        let payload = caught.expect_err("legacy scan re-raises the panic");
        let message = payload_message(payload.as_ref());
        assert!(message.contains("worker front refused"), "{message}");
    }

    #[test]
    fn unvalidated_scan_analyzes_an_overflow_amount_without_panicking() {
        let mut records = world();
        records[1].trace.transfers.first_mut().unwrap().amount = u128::MAX;
        let txs = refs(&records);
        let labels = Labels::new();
        let view = ChainView::new(&labels, &[], None);
        let detector = LeiShen::new(DetectorConfig::paper());
        // An overflow amount doesn't panic the pipeline — it just
        // produces an untrusted analysis. Only a resilience policy
        // validates; the policy-free scan analyzes the record.
        let analyses = ScanEngine::new(1).scan(&detector, &txs, &view);
        assert_eq!(analyses.len(), txs.len());
    }
}
