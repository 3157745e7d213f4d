//! Streaming detection service: bounded-latency online scanning.
//!
//! Everything below [`crate::scan::ScanEngine`] is batch: a finished
//! `Vec<TxRecord>` goes in, verdicts come out. The paper's detector is
//! framed as a *monitor* over arriving Ethereum blocks, so this module
//! adds the long-running service layer on top of the existing machinery:
//!
//! * **Ingest** — a producer (the chain clock, a mempool feed, a replay
//!   harness) submits [`Block`]s through a [`StreamProducer`]. Blocks
//!   land in a bounded MPSC queue ([`BoundedQueue`]); when the scanner
//!   falls behind, `submit` *blocks* — explicit backpressure, never an
//!   unbounded buffer, never a dropped transaction.
//! * **Scan** — a scanner thread drains the ingest queue one block at a
//!   time and runs each block through
//!   [`ScanEngine::scan_resilient_with`], so streamed blocks get the
//!   same chunked worker pool, shared [`TagCache`], telemetry and
//!   provenance wiring as a batch scan. Each block is one telemetry /
//!   trace epoch: worker fronts merge into the shared sinks when the
//!   block's scan completes, so per-block counters land as the block
//!   lands.
//! * **Deadline budgets** — [`StreamConfig::block_budget`] gives every
//!   block a wall-clock allowance. When it expires, the remaining
//!   transactions of that block are downgraded to
//!   [`Verdict::Indeterminate`] with [`Fault::Deadline`] through the
//!   resilience layer ([`ResilienceConfig::with_deadline`]) instead of
//!   stalling the stream. A *poisoned* block — one whose scan panics
//!   outside the per-transaction guard — is downgraded the same way by
//!   a whole-block `catch_unwind` backstop; it never wedges the stream.
//! * **Emit** — verdicts flow through a second bounded queue to an
//!   emitter thread that stamps the block's end-to-end latency
//!   (submit → emit) and hands each [`BlockReport`] to the caller's
//!   callback *as it lands*, before the stream finishes.
//! * **Drain / shutdown** — when the producer closure returns, the
//!   ingest queue closes; the scanner finishes every queued block and
//!   closes the emit queue; the emitter flushes every in-flight report
//!   and returns. Every submitted transaction is emitted exactly once,
//!   deterministically, regardless of arrival timing.
//!
//! The service's correctness contract is **batch ≡ stream**: for any
//! corpus and any partition of it into blocks, the streamed verdicts,
//! quarantines, and reason chains are byte-identical to a one-shot
//! [`ScanEngine::scan_resilient`] over the concatenated corpus (the
//! equivalence proptests in `tests/stream_equivalence.rs` pin this).
//! The one deliberate divergence is deadline pressure, which can only
//! *downgrade* a verdict to `Indeterminate` — never flip flagged to
//! cleared or back. To keep the identity exact, the scanner rebases
//! each block's [`Quarantine::index`] from block-relative to
//! stream-relative positions.
//!
//! ```
//! use leishen::stream::{Block, StreamConfig, StreamService};
//! use leishen::{ChainView, DetectorConfig, Labels, LeiShen};
//!
//! let labels = Labels::new();
//! let view = ChainView::new(&labels, &[], None);
//! let detector = LeiShen::new(DetectorConfig::paper());
//! let service = StreamService::new(2, StreamConfig::default());
//! let report = service.replay(&detector, &view, []); // empty stream
//! assert_eq!(report.transactions, 0);
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use ethsim::TxRecord;

use crate::detector::{Analysis, ChainView, LeiShen};
use crate::resilience::{
    payload_message, Fault, Quarantine, ResilienceConfig, Verdict,
};
use crate::scan::{ScanEngine, TagCache};
use crate::store::{JournalConfig, Media, StoreError, VerdictJournal};
use crate::telemetry::Observer;

// ---------------------------------------------------------------------------
// Bounded MPSC queue
// ---------------------------------------------------------------------------

/// Counters describing one bounded queue's life, snapshotted into the
/// [`StreamReport`] so tests and the `stream` bench can see backpressure
/// instead of guessing at it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Configured capacity (items).
    pub capacity: usize,
    /// Items pushed over the queue's lifetime.
    pub pushed: u64,
    /// Deepest the queue ever got. Never exceeds `capacity`.
    pub max_depth: usize,
    /// Push calls that found the queue full and had to wait for the
    /// consumer — each one is a backpressure stall made visible.
    pub producer_waits: u64,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer queue over `std::sync::Condvar`.
///
/// `push` blocks while the queue is at capacity (counting the stall in
/// [`QueueStats::producer_waits`]); `pop` blocks while it is empty and
/// returns `None` only once the queue is closed *and* drained, which is
/// what makes shutdown a deterministic flush rather than a race.
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    pushed: AtomicU64,
    producer_waits: AtomicU64,
    max_depth: AtomicU64,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            pushed: AtomicU64::new(0),
            producer_waits: AtomicU64::new(0),
            max_depth: AtomicU64::new(0),
        }
    }

    /// Locks the queue state, recovering a poisoned guard. A station
    /// thread that panicked while holding the lock left a `VecDeque`
    /// whose every intermediate state is valid (push/pop are
    /// single-call mutations), so poisoning carries no broken
    /// invariant here — and propagating it would turn one dead station
    /// into a wedged producer or a double panic during the close-drain
    /// shutdown. The panic itself still reaches the caller through the
    /// station-join propagation in [`StreamService::run`].
    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues `item`, blocking while the queue is full. Returns the
    /// item back if the queue was closed before it could be enqueued.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.lock();
        if state.items.len() >= self.capacity && !state.closed {
            // One counted stall per push that had to wait, however many
            // wakeups it takes to find a slot.
            self.producer_waits.fetch_add(1, Ordering::Relaxed);
            while state.items.len() >= self.capacity && !state.closed {
                state = self
                    .not_full
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        if state.closed {
            return Err(item);
        }
        state.items.push_back(item);
        self.pushed.fetch_add(1, Ordering::Relaxed);
        self.max_depth
            .fetch_max(state.items.len() as u64, Ordering::Relaxed);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item, blocking while the queue is empty.
    /// Returns `None` once the queue is closed and fully drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: pending `pop`s drain what is already queued and
    /// then see `None`; blocked and future `push`es fail fast.
    pub fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Lifetime counters for this queue.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            capacity: self.capacity,
            pushed: self.pushed.load(Ordering::Relaxed),
            max_depth: self.max_depth.load(Ordering::Relaxed) as usize,
            producer_waits: self.producer_waits.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Stream vocabulary
// ---------------------------------------------------------------------------

/// One arriving block: a number (for reporting; ordering is submission
/// order) and the transactions it carries. Cloning copies the
/// references, so a producer can replay the same blocks again.
#[derive(Clone)]
pub struct Block<'a> {
    /// Block number, echoed into the matching [`BlockReport`].
    pub number: u64,
    /// The block's transactions, in intra-block order.
    pub txs: Vec<&'a TxRecord>,
}

struct InFlight<'a> {
    block: Block<'a>,
    submitted_at: Instant,
}

struct Scanned {
    number: u64,
    base: usize,
    verdicts: Vec<Verdict>,
    submitted_at: Instant,
}

/// What the scanner station scans every block with.
struct ScanContext<'s, 'a, O> {
    detector: &'s LeiShen,
    view: &'s ChainView<'a>,
    cache: &'s TagCache,
    observer: &'s O,
}

/// What one pass of the pipeline hands back to `run` and `resume`.
struct Session {
    stream: StreamReport,
    /// Durable-prefix blocks and transactions skipped.
    skipped: (usize, usize),
    /// The first commit or resume failure, if any.
    failure: Option<StoreError>,
}

/// Service policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Capacity of the ingest queue (blocks). When the scanner falls
    /// this many blocks behind, `submit` blocks the producer.
    pub ingest_capacity: usize,
    /// Capacity of the emit queue (scanned blocks). When the caller's
    /// emit callback falls behind, the scanner blocks, and backpressure
    /// propagates to the producer.
    pub emit_capacity: usize,
    /// Wall-clock budget per block. Transactions not started by the
    /// time a block's budget expires are downgraded to
    /// [`Verdict::Indeterminate`] with [`Fault::Deadline`]. `None`
    /// (default) never downgrades, making the stream byte-identical to
    /// a batch scan.
    pub block_budget: Option<Duration>,
    /// The resilience policy every block is scanned under.
    pub policy: ResilienceConfig,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            ingest_capacity: 8,
            emit_capacity: 8,
            block_budget: None,
            policy: ResilienceConfig::default(),
        }
    }
}

impl StreamConfig {
    /// Overrides both queue capacities.
    pub fn with_capacity(mut self, ingest: usize, emit: usize) -> Self {
        self.ingest_capacity = ingest;
        self.emit_capacity = emit;
        self
    }

    /// Sets the per-block deadline budget.
    pub fn with_block_budget(mut self, budget: Duration) -> Self {
        self.block_budget = Some(budget);
        self
    }

    /// Sets the resilience policy blocks are scanned under.
    pub fn with_policy(mut self, policy: ResilienceConfig) -> Self {
        self.policy = policy;
        self
    }
}

/// The producer-side handle passed to the `run` closure: submit blocks,
/// feel backpressure. The handle is `Sync`, so a producer closure may
/// hand it to several feeder threads (mempool bursts next to the block
/// clock) — the queue is MPSC.
pub struct StreamProducer<'q, 'a> {
    ingest: &'q BoundedQueue<InFlight<'a>>,
}

impl<'a> StreamProducer<'_, 'a> {
    /// Submits one block, blocking while the ingest queue is full.
    /// Returns `false` if the stream already shut down (the block is
    /// dropped; this only happens if the scanner died).
    pub fn submit(&self, block: Block<'a>) -> bool {
        self.ingest
            .push(InFlight {
                block,
                submitted_at: Instant::now(),
            })
            .is_ok()
    }
}

/// One emitted block: the scan's verdicts plus stream bookkeeping.
#[derive(Debug)]
pub struct BlockReport {
    /// The submitted block's number.
    pub number: u64,
    /// Stream-relative index of the block's first transaction; verdict
    /// `i` of this block sits at stream position `base + i`, and
    /// quarantine indices are already rebased to stream positions.
    pub base: usize,
    /// One verdict per transaction, in intra-block order.
    pub verdicts: Vec<Verdict>,
    /// End-to-end latency: block submitted → verdicts emitted.
    pub latency: Duration,
}

impl BlockReport {
    /// Transactions in this block.
    pub fn len(&self) -> usize {
        self.verdicts.len()
    }

    /// Whether the block carried no transactions.
    pub fn is_empty(&self) -> bool {
        self.verdicts.is_empty()
    }
}

/// The outcome of a full stream run, after drain.
#[derive(Debug)]
pub struct StreamReport {
    /// Every emitted block, in submission order.
    pub blocks: Vec<BlockReport>,
    /// Ingest-queue counters (producer-side backpressure).
    pub ingest: QueueStats,
    /// Emit-queue counters (consumer-side backpressure).
    pub emit: QueueStats,
    /// Total transactions streamed.
    pub transactions: usize,
    /// Analyzed transactions whose analysis flagged an attack.
    pub attacks: usize,
    /// Transactions that ended in [`Verdict::Indeterminate`].
    pub quarantined: usize,
}

impl StreamReport {
    /// Every verdict in stream order (blocks in submission order,
    /// transactions in intra-block order) — the sequence a batch scan
    /// of the concatenated corpus would return.
    pub fn verdicts(&self) -> impl Iterator<Item = &Verdict> {
        self.blocks.iter().flat_map(|b| b.verdicts.iter())
    }

    /// The completed analyses, in stream order.
    pub fn analyses(&self) -> impl Iterator<Item = &Analysis> {
        self.verdicts().filter_map(Verdict::analysis)
    }

    /// The quarantine records, in stream order (indices are
    /// stream-relative).
    pub fn quarantines(&self) -> impl Iterator<Item = &Quarantine> {
        self.verdicts().filter_map(Verdict::quarantine)
    }

    /// Stream positions of the quarantined transactions.
    pub fn quarantined_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.quarantines().map(|q| q.index)
    }
}

/// The outcome of a durable stream session
/// ([`StreamService::resume`] / [`StreamService::run_durable`]): the
/// freshly scanned stream plus the journal's accounting of what was
/// skipped as already durable.
#[derive(Debug)]
pub struct DurableReport {
    /// The newly scanned and journaled blocks (the durable prefix is
    /// *not* re-emitted and does not appear here).
    pub stream: StreamReport,
    /// Blocks skipped because the journal already held them.
    pub skipped_blocks: usize,
    /// Transactions inside those skipped blocks.
    pub skipped_txs: usize,
    /// Total durable blocks in the journal after the run.
    pub journal_blocks: usize,
    /// Total durable transactions in the journal after the run.
    pub journal_txs: u64,
    /// Set when the journal died mid-run (an injected crash point or a
    /// real I/O failure): every block emitted before the crash is
    /// durable and was surfaced; everything after was neither — the
    /// next [`StreamService::resume`] over the surviving media picks
    /// up exactly there.
    pub crashed: Option<StoreError>,
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// A long-running streaming scanner over the batch [`ScanEngine`].
///
/// The service owns no corpus: `run` borrows a [`ChainView`] and a
/// [`TagCache`] exactly like the batch entry points, hosts the scanner
/// and emitter threads in a scoped pool for the duration of the call,
/// and returns once the stream has fully drained. Call `run` again for
/// the next session; the tag cache warms across runs.
#[derive(Clone, Debug)]
pub struct StreamService {
    engine: ScanEngine,
    config: StreamConfig,
}

impl StreamService {
    /// A service scanning each block with `workers` worker threads.
    pub fn new(workers: usize, config: StreamConfig) -> Self {
        StreamService {
            engine: ScanEngine::new(workers),
            config,
        }
    }

    /// Replays pre-chunked blocks through the stream with no
    /// instrumentation and no emit callback — the plain entry point for
    /// tests and offline replays.
    pub fn replay<'a>(
        &self,
        detector: &LeiShen,
        view: &ChainView<'a>,
        blocks: impl IntoIterator<Item = Block<'a>>,
    ) -> StreamReport {
        self.run(
            detector,
            view,
            &TagCache::new(),
            &(),
            |producer| {
                for block in blocks {
                    if !producer.submit(block) {
                        break;
                    }
                }
            },
            |_| {},
        )
    }

    /// Runs one streaming session.
    ///
    /// `producer` executes on the calling thread with a
    /// [`StreamProducer`] handle; every `submit` feels ingest-queue
    /// backpressure. Every block is scanned with `observer` (one
    /// telemetry/trace epoch per block). `on_emit` executes on the
    /// emitter thread, once per block, *as verdicts land* — before later
    /// blocks finish and before `run` returns. When `producer` returns,
    /// the stream drains deterministically: every submitted transaction is
    /// scanned and emitted exactly once, then `run` returns the assembled
    /// [`StreamReport`].
    pub fn run<'a, O, P, E>(
        &self,
        detector: &LeiShen,
        view: &ChainView<'a>,
        cache: &TagCache,
        observer: &O,
        producer: P,
        on_emit: E,
    ) -> StreamReport
    where
        O: Observer + Sync,
        P: FnOnce(&StreamProducer<'_, 'a>),
        E: FnMut(&BlockReport) + Send,
    {
        let ctx = ScanContext { detector, view, cache, observer };
        self.pipeline(&ctx, &[], producer, |_| Ok(()), on_emit).stream
    }

    /// Opens (recovering) a [`VerdictJournal`] on `media` for this
    /// service's `detector` and resumes the stream over it — the
    /// one-call durable entry point. Fails only if the journal cannot
    /// be opened (unrecoverable media, or a surviving journal written
    /// under a different [`DetectorConfig::fingerprint`]).
    ///
    /// [`DetectorConfig::fingerprint`]: crate::DetectorConfig::fingerprint
    #[allow(clippy::too_many_arguments)]
    pub fn run_durable<'a, M, P, E>(
        &self,
        detector: &LeiShen,
        view: &ChainView<'a>,
        cache: &TagCache,
        media: M,
        journal_config: JournalConfig,
        producer: P,
        on_emit: E,
    ) -> Result<(DurableReport, VerdictJournal<M>), StoreError>
    where
        M: Media + Send,
        P: FnOnce(&StreamProducer<'_, 'a>),
        E: FnMut(&BlockReport) + Send,
    {
        let fingerprint = detector.config().fingerprint();
        let (journal, _recovery) = VerdictJournal::open(media, journal_config, fingerprint)?;
        Ok(self.resume(detector, view, cache, journal, producer, on_emit))
    }

    /// Runs one streaming session as a *continuation* of `journal`:
    /// write-ahead durability for everything new, exactly-once emission
    /// across process death for everything old.
    ///
    /// The producer must replay the **same block sequence** the journal
    /// was built from (same numbers, same transaction counts — the
    /// deterministic replay harness guarantees this). Blocks already in
    /// the journal's durable prefix are verified against it and
    /// **skipped**: not re-scanned, not re-journaled, never handed to
    /// `on_emit` — re-emitting nothing already durable is exactly the
    /// exactly-once half the journal cannot provide alone. A diverging
    /// replay ([`StoreError::ResumeMismatch`]) stops the stream rather
    /// than writing frames whose provenance is ambiguous.
    ///
    /// Past the prefix, each scanned block is journaled **before**
    /// `on_emit` observes it (write-ahead): under
    /// [`crate::store::FsyncPolicy::Always`] anything the caller saw is
    /// durable, so a crash between journal and callback re-emits
    /// nothing and a crash before the journal write re-scans the block
    /// — exactly-once either way. Journal failure mid-run (a crash
    /// point, a full disk) closes the intake and drains the scanner
    /// without surfacing post-crash work, modelling process death; the
    /// error lands in [`DurableReport::crashed`] and the journal (with
    /// its media, for reopen) is still returned.
    pub fn resume<'a, M, P, E>(
        &self,
        detector: &LeiShen,
        view: &ChainView<'a>,
        cache: &TagCache,
        mut journal: VerdictJournal<M>,
        producer: P,
        on_emit: E,
    ) -> (DurableReport, VerdictJournal<M>)
    where
        M: Media + Send,
        P: FnOnce(&StreamProducer<'_, 'a>),
        E: FnMut(&BlockReport) + Send,
    {
        let prefix = journal.durable_prefix();
        let ctx = ScanContext { detector, view, cache, observer: &() };
        let session = self.pipeline(
            &ctx,
            &prefix,
            producer,
            |scanned| journal.append_block(scanned.number, scanned.base as u64, &scanned.verdicts),
            on_emit,
        );
        let report = DurableReport {
            stream: session.stream,
            skipped_blocks: session.skipped.0,
            skipped_txs: session.skipped.1,
            journal_blocks: journal.blocks().len(),
            journal_txs: journal.txs(),
            crashed: session.failure,
        };
        (report, journal)
    }

    /// The one pipeline behind [`StreamService::run`] and
    /// [`StreamService::resume`]: the producer on the calling thread, a
    /// scanner thread and an emitter thread.
    ///
    /// The scanner verifies each block of the durable `prefix` against
    /// the replay and skips it, then scans the rest, one block per scan
    /// call. `base` advances across skipped blocks too, so the
    /// stream-relative quarantine rebasing stays corpus-absolute and
    /// byte-identical to an uninterrupted run. A diverging replay records
    /// [`StoreError::ResumeMismatch`] and closes the intake.
    ///
    /// The emitter hands each scanned block to `commit` — write-ahead,
    /// before `on_emit` sees it — and stamps its latency after. When
    /// `commit` fails, the emitter records the error, closes the intake
    /// and keeps draining the emit queue *discarding* everything: work
    /// scanned after the failure is neither durable nor surfaced, exactly
    /// as if the process had died.
    ///
    /// Each station runs under `catch_unwind`, and a dead station closes
    /// both queues, so nothing is left blocked; its panic is re-raised on
    /// the calling thread after every station has stopped — the
    /// producer's first (it is the caller's code and the root cause when
    /// present), then the emit callback's, then the scanner's.
    fn pipeline<'a, O, P, C, E>(
        &self,
        ctx: &ScanContext<'_, 'a, O>,
        prefix: &[(u64, usize)],
        producer: P,
        mut commit: C,
        mut on_emit: E,
    ) -> Session
    where
        O: Observer + Sync,
        P: FnOnce(&StreamProducer<'_, 'a>),
        C: FnMut(&Scanned) -> Result<(), StoreError> + Send,
        E: FnMut(&BlockReport) + Send,
    {
        let ingest: BoundedQueue<InFlight<'a>> = BoundedQueue::new(self.config.ingest_capacity);
        let emit: BoundedQueue<Scanned> = BoundedQueue::new(self.config.emit_capacity);
        let failure: Mutex<Option<StoreError>> = Mutex::new(None);
        let fail = |e: StoreError| {
            let mut slot = failure.lock().unwrap_or_else(PoisonError::into_inner);
            slot.get_or_insert(e);
        };

        let (blocks, skipped, panic) = crossbeam::thread::scope(|scope| {
            let (ingest_q, emit_q, fail) = (&ingest, &emit, &fail);

            let scanner = scope.spawn(move |_| {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let (mut base, mut skipped, mut skipped_txs) = (0, 0, 0);
                    while let Some(item) = ingest_q.pop() {
                        if let Some(&(number, len)) = prefix.get(skipped) {
                            if item.block.number != number || item.block.txs.len() != len {
                                fail(StoreError::ResumeMismatch {
                                    context: format!(
                                        "durable block #{skipped} is ({number}, {len} txs) but \
                                         the replay submitted ({}, {} txs)",
                                        item.block.number,
                                        item.block.txs.len()
                                    ),
                                });
                                ingest_q.close();
                                break;
                            }
                            skipped += 1;
                            skipped_txs += len;
                            base += len;
                            continue;
                        }
                        let scanned = self.scan_block(ctx, item, base);
                        base += scanned.verdicts.len();
                        if emit_q.push(scanned).is_err() {
                            // Emitter died mid-stream: unblock the
                            // producer too.
                            ingest_q.close();
                            break;
                        }
                    }
                    (skipped, skipped_txs)
                }));
                if outcome.is_err() {
                    ingest_q.close();
                }
                emit_q.close();
                outcome
            });

            let emitter = scope.spawn(move |_| {
                let mut blocks = Vec::new();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let mut dead = false;
                    while let Some(scanned) = emit_q.pop() {
                        if dead {
                            continue;
                        }
                        if let Err(e) = commit(&scanned) {
                            fail(e);
                            ingest_q.close();
                            dead = true;
                            continue;
                        }
                        let report = BlockReport {
                            number: scanned.number,
                            base: scanned.base,
                            verdicts: scanned.verdicts,
                            latency: scanned.submitted_at.elapsed(),
                        };
                        on_emit(&report);
                        blocks.push(report);
                    }
                }));
                if outcome.is_err() {
                    emit_q.close();
                    ingest_q.close();
                }
                (blocks, outcome)
            });

            // Producer runs on the calling thread; when it returns (or
            // panics — the closer is unconditional so the pipeline can
            // always drain), shutdown begins.
            let handle = StreamProducer { ingest: &ingest };
            let produced = catch_unwind(AssertUnwindSafe(|| producer(&handle)));
            ingest.close();

            let (skipped, scanned) = match scanner.join() {
                Ok(Ok(counts)) => (counts, None),
                Ok(Err(payload)) | Err(payload) => ((0, 0), Some(payload)),
            };
            let (blocks, emitted) = emitter.join().unwrap_or_else(|p| (Vec::new(), Err(p)));
            (blocks, skipped, produced.err().or(emitted.err()).or(scanned))
        })
        .unwrap_or_else(|payload| resume_unwind(payload));
        if let Some(payload) = panic {
            resume_unwind(payload);
        }

        let verdicts = || blocks.iter().flat_map(|b| b.verdicts.iter());
        let stream = StreamReport {
            transactions: verdicts().count(),
            attacks: verdicts()
                .filter_map(Verdict::analysis)
                .filter(|a| a.is_attack())
                .count(),
            quarantined: verdicts().filter(|v| v.is_indeterminate()).count(),
            ingest: ingest.stats(),
            emit: emit.stats(),
            blocks,
        };
        Session {
            stream,
            skipped,
            failure: failure.into_inner().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Scans one block under the stream policy: per-block deadline,
    /// stream-relative quarantine indices, and a whole-block
    /// `catch_unwind` backstop so a poisoned block degrades to
    /// indeterminate verdicts instead of wedging the scanner.
    fn scan_block<O: Observer + Sync>(
        &self,
        ctx: &ScanContext<'_, '_, O>,
        item: InFlight<'_>,
        base: usize,
    ) -> Scanned {
        let InFlight {
            block,
            submitted_at,
        } = item;
        let policy = match self.config.block_budget {
            Some(budget) => self.config.policy.with_deadline(Instant::now() + budget),
            None => self.config.policy,
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.engine.scan_resilient_with(
                ctx.detector,
                &block.txs,
                ctx.view,
                ctx.cache,
                &policy,
                ctx.observer,
            )
        }));
        let mut verdicts = match outcome {
            Ok(scan) => scan.verdicts,
            Err(payload) => {
                // The per-transaction guard should make this
                // unreachable; if a panic escapes it anyway, the whole
                // block degrades rather than the stream.
                let message = payload_message(payload.as_ref());
                block
                    .txs
                    .iter()
                    .enumerate()
                    .map(|(index, tx)| {
                        Verdict::Indeterminate(Quarantine {
                            tx: tx.id,
                            index,
                            fault: Fault::Panic {
                                message: message.clone(),
                            },
                            stage: None,
                            attempts: 0,
                        })
                    })
                    .collect()
            }
        };
        // Rebase quarantine indices from block-relative to
        // stream-relative so streamed quarantines compare byte-for-byte
        // against a batch scan of the concatenated corpus.
        for verdict in &mut verdicts {
            if let Verdict::Indeterminate(q) = verdict {
                q.index += base;
            }
        }
        Scanned {
            number: block.number,
            base,
            verdicts,
            submitted_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DetectorConfig;
    use crate::labels::Labels;
    use ethsim::{Address, CreationRecord, TokenId, Transfer, TxId, TxStatus, TxTrace};

    /// A small synthetic world: a 20-address creation forest plus `n`
    /// two-transfer transactions (the same family the root proptests
    /// use). Not attack-shaped — these tests pin plumbing, not
    /// detection; the golden replay covers the 22 attacks.
    fn synthetic(n: usize) -> (Labels, Vec<CreationRecord>, Vec<TxRecord>) {
        let mut records = Vec::new();
        let mut labels = Labels::new();
        let mut addrs = Vec::new();
        for i in 0..20u64 {
            let a = Address::from_u64(1000 + i);
            addrs.push(a);
            if i > 0 {
                let parent = Address::from_u64(1000 + (7 + i) % i);
                records.push(CreationRecord {
                    creator: parent,
                    created: a,
                    block: 0,
                });
            }
            if (7 + i) % 5 == 0 {
                labels.set(a, format!("App{}", (7 + i) % 3));
            }
        }
        let txs: Vec<TxRecord> = (0..n)
            .map(|i| {
                let (s, r) = (i % addrs.len(), (i * 3 + 1) % addrs.len());
                TxRecord {
                    id: TxId(i as u64 + 1),
                    block: i as u64 / 4,
                    timestamp: 1_600_000_000 + i as u64,
                    from: addrs[s],
                    to: addrs[r],
                    function: format!("f{i}"),
                    status: TxStatus::Success,
                    trace: TxTrace {
                        transfers: vec![
                            Transfer {
                                seq: 0,
                                sender: addrs[s],
                                receiver: addrs[r],
                                amount: 1_000 + i as u128,
                                token: TokenId::from_index(i as u32 % 3),
                            },
                            Transfer {
                                seq: 1,
                                sender: addrs[r],
                                receiver: addrs[(s + r) % addrs.len()],
                                amount: 500 + i as u128,
                                token: TokenId::ETH,
                            },
                        ],
                        ..TxTrace::default()
                    },
                }
            })
            .collect();
        (labels, records, txs)
    }

    #[test]
    fn queue_respects_capacity_and_drains_after_close() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        let stats = q.stats();
        assert_eq!(stats.pushed, 2);
        assert_eq!(stats.max_depth, 2);
    }

    #[test]
    fn queue_blocks_full_producer_until_consumer_frees_a_slot() {
        let q: BoundedQueue<u32> = BoundedQueue::new(1);
        q.push(1).unwrap();
        crossbeam::thread::scope(|scope| {
            let pusher = scope.spawn(|_| q.push(2).is_ok());
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(q.pop(), Some(1));
            assert!(pusher.join().unwrap());
        })
        .unwrap();
        assert_eq!(q.pop(), Some(2));
        assert!(q.stats().producer_waits >= 1);
    }

    #[test]
    fn empty_stream_reports_nothing() {
        let labels = Labels::new();
        let view = ChainView::new(&labels, &[], None);
        let detector = LeiShen::new(DetectorConfig::paper());
        let service = StreamService::new(2, StreamConfig::default());
        let report = service.replay(&detector, &view, []);
        assert_eq!(report.transactions, 0);
        assert_eq!(report.blocks.len(), 0);
        assert_eq!(report.quarantined, 0);
    }

    #[test]
    fn streamed_verdicts_match_batch_on_a_synthetic_corpus() {
        let (labels, creations, records) = synthetic(23);
        let detector = LeiShen::new(DetectorConfig::paper());
        let view = ChainView::new(&labels, &creations, None);
        let txs: Vec<&TxRecord> = records.iter().collect();

        let policy = ResilienceConfig::default();
        let batch = ScanEngine::new(2).scan_resilient(
            &detector,
            &txs,
            &view,
            &TagCache::new(),
            &policy,
        );

        let service = StreamService::new(2, StreamConfig::default().with_policy(policy));
        let blocks: Vec<Block<'_>> = txs
            .chunks(7)
            .enumerate()
            .map(|(i, chunk)| Block {
                number: i as u64,
                txs: chunk.to_vec(),
            })
            .collect();
        let report = service.replay(&detector, &view, blocks);

        assert_eq!(report.transactions, batch.verdicts.len());
        let streamed: Vec<&Verdict> = report.verdicts().collect();
        for (i, (s, b)) in streamed.iter().zip(batch.verdicts.iter()).enumerate() {
            assert_eq!(
                format!("{s:?}"),
                format!("{b:?}"),
                "verdict {i} diverged between stream and batch"
            );
        }
        assert_eq!(report.attacks, batch.stats.attacks);
        assert_eq!(report.quarantined, batch.stats.quarantined);
    }

    #[test]
    fn expired_budget_downgrades_every_transaction() {
        let (labels, creations, records) = synthetic(12);
        let detector = LeiShen::new(DetectorConfig::paper());
        let view = ChainView::new(&labels, &creations, None);
        let txs: Vec<&TxRecord> = records.iter().collect();

        let service = StreamService::new(
            2,
            StreamConfig::default().with_block_budget(Duration::from_secs(0)),
        );
        let blocks = vec![Block {
            number: 0,
            txs: txs.clone(),
        }];
        let report = service.replay(&detector, &view, blocks);
        assert_eq!(report.quarantined, report.transactions);
        for q in report.quarantines() {
            assert_eq!(q.fault, Fault::Deadline);
            assert_eq!(q.reason(), "deadline");
        }
    }

    #[test]
    fn emit_callback_sees_blocks_in_submission_order() {
        let (labels, creations, records) = synthetic(17);
        let detector = LeiShen::new(DetectorConfig::paper());
        let view = ChainView::new(&labels, &creations, None);
        let txs: Vec<&TxRecord> = records.iter().collect();

        let service = StreamService::new(2, StreamConfig::default());
        let seen = Mutex::new(Vec::new());
        let cache = TagCache::new();
        service.run(
            &detector,
            &view,
            &cache,
            &(),
            |producer| {
                for (i, chunk) in txs.chunks(5).enumerate() {
                    producer.submit(Block {
                        number: i as u64,
                        txs: chunk.to_vec(),
                    });
                }
            },
            |block| seen.lock().unwrap().push(block.number),
        );
        let seen = seen.into_inner().unwrap();
        let expected: Vec<u64> = (0..txs.chunks(5).len() as u64).collect();
        assert_eq!(seen, expected);
    }
}
