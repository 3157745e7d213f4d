//! Pipeline telemetry — per-stage latency and per-transaction counters.
//!
//! The paper's evaluation (§VI) reports where LeiShen spends its time —
//! journal extraction, transfer simplification, address tagging, pattern
//! matching — but a batch scan only exposes end-to-end throughput unless
//! each stage is instrumented. This module adds that instrumentation as a
//! **zero-cost-when-disabled** sink:
//!
//! * [`MetricsSink`] — the hook trait. Its associated `ENABLED` constant
//!   is checked at compile time, so a pipeline monomorphized over
//!   [`NoopSink`] contains no timer reads, no counter stores, and no
//!   branches: `if S::ENABLED { ... }` is dead code the optimizer
//!   deletes. This is why the hot path takes a generic `S: MetricsSink`
//!   instead of a `&dyn` object.
//! * [`NoopSink`] — the default; every hook is an empty inlined body.
//! * [`RecordingSink`] — used by benches and tests: collects raw
//!   per-stage latency samples (for exact p50/p95/p99, not bucketed
//!   estimates) and aggregates [`TxCounters`] into atomic totals shared
//!   by all scan workers.
//!
//! Counters live in a per-transaction [`TxCounters`] value built on the
//! worker's stack — never in shared state — so recording a transaction is
//! one `stage()` call per pipeline stage plus one `transaction()` call,
//! and the counters themselves are allocation-free. See `DESIGN.md`'s
//! telemetry section for the overhead budget.

use std::cell::RefCell;
use std::time::Instant;

use ethsim::TxId;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// The instrumented pipeline stages, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Stage {
    /// Flash-loan identification (Table II signatures) — runs for every
    /// transaction, including the ones that short-circuit.
    FlashLoan,
    /// Account tagging of the transfer journal (§V-B1).
    Tagging,
    /// Transfer simplification (§V-B2).
    Simplify,
    /// Trade identification (Table III windows).
    Trades,
    /// Pattern matching across borrower tags (KRP/SBS/MBS).
    Patterns,
}

/// Number of [`Stage`] variants.
pub const STAGE_COUNT: usize = 5;

/// All stages in execution order.
pub const STAGES: [Stage; STAGE_COUNT] = [
    Stage::FlashLoan,
    Stage::Tagging,
    Stage::Simplify,
    Stage::Trades,
    Stage::Patterns,
];

impl Stage {
    /// Stable dense index (position in [`STAGES`]).
    pub fn index(self) -> usize {
        self as usize
    }

    /// snake_case name used in structured output (`BENCH_obs.json`).
    pub fn name(self) -> &'static str {
        match self {
            Stage::FlashLoan => "flash_loan",
            Stage::Tagging => "tagging",
            Stage::Simplify => "simplify",
            Stage::Trades => "trades",
            Stage::Patterns => "patterns",
        }
    }

    /// Inverse of [`Stage::name`] — used by the trace importers.
    pub fn from_name(name: &str) -> Option<Stage> {
        STAGES.iter().copied().find(|s| s.name() == name)
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-transaction pipeline counters, built on the worker's stack.
///
/// Everything here is derived from values the pipeline already holds —
/// no extra hashing, no allocation — so filling one in costs a handful
/// of integer stores.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxCounters {
    /// Account-level transfers in the replay journal (stage-1 input).
    pub account_transfers: u32,
    /// Flash loans identified (0 ⇒ the pipeline short-circuited).
    pub flash_loans: u32,
    /// Tag resolutions requested from the resolver (both transfer sides,
    /// borrowers, and the initiator).
    pub tags_resolved: u32,
    /// Application-level transfers surviving simplification.
    pub app_transfers: u32,
    /// Transfers dropped by simplification rules 1–2 (intra-app / WETH).
    pub transfers_dropped: u32,
    /// Pass-through merges performed by simplification rule 3.
    pub transfers_merged: u32,
    /// Trades identified from the simplified transfers.
    pub trades: u32,
    /// Distinct borrower tags the patterns were evaluated for.
    pub borrower_tags: u32,
    /// Pattern evaluations attempted (token pairs × active matchers,
    /// summed over borrower tags).
    pub patterns_tried: u32,
    /// Pattern matches reported (after dedup).
    pub patterns_matched: u32,
}

/// Per-stage lap times of one transaction, in nanoseconds.
///
/// Built on the worker's stack by the pipeline's `StageClock` and handed
/// to the sink in a single [`MetricsSink::transaction`] call, so a
/// recording sink synchronizes **once per transaction** instead of once
/// per stage. Stages the transaction never reached (the short-circuit
/// path stops after flash-loan identification) hold no sample.
#[derive(Clone, Copy, Debug)]
pub struct StageLaps {
    laps: [u64; STAGE_COUNT],
}

impl StageLaps {
    /// Sentinel for "stage not reached" — a real lap of this length
    /// (~584 years) cannot occur.
    const UNTIMED: u64 = u64::MAX;

    /// Laps with no stage recorded.
    pub fn empty() -> Self {
        StageLaps {
            laps: [Self::UNTIMED; STAGE_COUNT],
        }
    }

    /// Records `stage` as having taken `nanos`.
    #[inline]
    pub fn record(&mut self, stage: Stage, nanos: u64) {
        // Saturate at the sentinel boundary rather than aliasing it.
        self.laps[stage.index()] = nanos.min(Self::UNTIMED - 1);
    }

    /// The lap recorded for `stage`, if the transaction reached it.
    pub fn get(&self, stage: Stage) -> Option<u64> {
        let v = self.laps[stage.index()];
        (v != Self::UNTIMED).then_some(v)
    }

    /// Iterates over the recorded `(stage, nanos)` laps in execution
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, u64)> + '_ {
        STAGES.iter().filter_map(|&s| self.get(s).map(|n| (s, n)))
    }
}

impl Default for StageLaps {
    fn default() -> Self {
        StageLaps::empty()
    }
}

/// Telemetry hook the pipeline calls.
///
/// `ENABLED` is an associated constant rather than a method so the
/// pipeline can guard its `Instant::now()` reads with a compile-time
/// check; implementations with `ENABLED = false` make the hook — and
/// the timing around it — vanish from the generated code.
///
/// The trait itself is not `Sync`: a worker thread records into its own
/// [`MetricsSink::worker_front`], which needs no cross-thread
/// synchronization at all and merges into the shared sink when dropped.
/// Only the sink *shared across* workers (what `ScanEngine` takes) must
/// be `Sync`.
pub trait MetricsSink {
    /// Whether the pipeline should time stages and build counters for
    /// this sink at all.
    const ENABLED: bool;

    /// The worker-local front of this sink (see
    /// [`MetricsSink::worker_front`]).
    type WorkerFront<'a>: MetricsSink
    where
        Self: 'a;

    /// A front for one worker: the worker records every transaction into
    /// the front — thread-local, no locks, no atomics — and the front
    /// delivers the accumulated batch to the shared sink when dropped
    /// (end of the worker's scan). For sinks that are already local
    /// (including [`NoopSink`]) this is effectively `self`.
    fn worker_front(&self) -> Self::WorkerFront<'_>;

    /// Time stage laps for one in this many transactions (per worker).
    /// `1` means every transaction. Counters are recorded regardless —
    /// only the `Instant::now` reads around stage boundaries are
    /// sampled, because on micro-second transactions the six clock
    /// reads are the bulk of the instrumentation cost (see `DESIGN.md`'s
    /// overhead budget).
    fn stage_sampling(&self) -> u32 {
        1
    }

    /// One transaction finished with these counters and stage laps
    /// (empty when the transaction was not picked for stage timing).
    fn transaction(&self, counters: &TxCounters, laps: &StageLaps);

    /// Transaction `tx` just crossed the closing boundary of `stage`.
    ///
    /// Called for every transaction (not just stage-timed ones) on
    /// enabled sinks, in stage order, from inside the pipeline — the
    /// one hook that observes a transaction *mid-analysis*. The default
    /// does nothing; the resilience layer's fault injector overrides it
    /// to land induced panics and delays at exact pipeline stages.
    fn stage_boundary(&self, _tx: TxId, _stage: Stage) {}

    /// One transaction was quarantined instead of analyzed (resilient
    /// scans only). Counted next to [`MetricsSink::transaction`] so
    /// operators can monitor degraded-mode rates per batch.
    fn quarantined(&self) {}
}

/// The do-nothing sink: the hot path's default. Compiles to nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl MetricsSink for NoopSink {
    const ENABLED: bool = false;

    type WorkerFront<'a> = NoopSink;

    #[inline(always)]
    fn worker_front(&self) -> NoopSink {
        NoopSink
    }

    #[inline(always)]
    fn transaction(&self, _counters: &TxCounters, _laps: &StageLaps) {}
}

/// Everything a [`RecordingSink`] accumulates, behind one mutex — and
/// what each [`WorkerSink`] accumulates lock-free before merging.
#[derive(Debug, Default)]
struct RecordingInner {
    stages: [Vec<u64>; STAGE_COUNT],
    totals: TxCountersTotal,
}

impl RecordingInner {
    fn record(&mut self, c: &TxCounters, laps: &StageLaps) {
        for (stage, nanos) in laps.iter() {
            self.stages[stage.index()].push(nanos);
        }
        self.totals.add(c);
    }
}

/// A sink that records everything — raw stage samples and counter totals.
///
/// Shared by reference across scan workers, but never written from them
/// directly: each worker records into its [`RecordingSink::worker_front`]
/// — plain thread-local stores, no locking — and the front merges into
/// this sink's mutex once when the worker finishes. Calling
/// [`MetricsSink::transaction`] on the shared sink directly also works
/// (one mutex acquisition per call) and is what single-transaction
/// callers do; the `obs` bench bin measures the end-to-end overhead
/// against [`NoopSink`].
///
/// [`RecordingSink::new`] times every transaction's stages — exact
/// histograms, what tests want. [`RecordingSink::sampled`] times one in
/// `n` transactions, which amortizes the clock reads below the < 5%
/// overhead budget for continuous monitoring; counters stay exact
/// either way.
#[derive(Debug)]
pub struct RecordingSink {
    inner: Mutex<RecordingInner>,
    sample_every: u32,
}

impl Default for RecordingSink {
    fn default() -> Self {
        RecordingSink::new()
    }
}

impl RecordingSink {
    /// An empty sink that stage-times every transaction.
    pub fn new() -> Self {
        RecordingSink::sampled(1)
    }

    /// An empty sink that stage-times one in `n` transactions (per
    /// worker); `n` is clamped to at least 1. Counters are always exact.
    pub fn sampled(n: u32) -> Self {
        RecordingSink {
            inner: Mutex::new(RecordingInner::default()),
            sample_every: n.max(1),
        }
    }

    /// Raw latency samples (nanoseconds) recorded for `stage`, in
    /// arrival order.
    pub fn stage_samples(&self, stage: Stage) -> Vec<u64> {
        self.inner.lock().stages[stage.index()].clone()
    }

    /// Number of transactions recorded.
    pub fn transactions(&self) -> u64 {
        self.inner.lock().totals.transactions
    }

    /// Aggregated counter totals across all recorded transactions.
    pub fn counter_totals(&self) -> TxCountersTotal {
        self.inner.lock().totals
    }

    /// Per-stage latency summary (count, total, exact percentiles).
    pub fn stage_summary(&self, stage: Stage) -> StageSummary {
        let mut samples = self.stage_samples(stage);
        summarize(stage, &mut samples)
    }

    /// Summaries for all five stages, in execution order.
    pub fn summary(&self) -> Vec<StageSummary> {
        STAGES.iter().map(|&s| self.stage_summary(s)).collect()
    }

    /// Drops all samples and zeroes the totals.
    pub fn clear(&self) {
        *self.inner.lock() = RecordingInner::default();
    }

    /// Merges a worker front's accumulated batch in one lock acquisition.
    fn absorb(&self, batch: RecordingInner) {
        let mut inner = self.inner.lock();
        for (dst, src) in inner.stages.iter_mut().zip(batch.stages) {
            dst.extend(src);
        }
        inner.totals.merge(&batch.totals);
    }
}

impl MetricsSink for RecordingSink {
    const ENABLED: bool = true;

    type WorkerFront<'a> = WorkerSink<'a>;

    fn worker_front(&self) -> WorkerSink<'_> {
        WorkerSink {
            shared: self,
            local: RefCell::new(RecordingInner::default()),
        }
    }

    fn stage_sampling(&self) -> u32 {
        self.sample_every
    }

    fn transaction(&self, c: &TxCounters, laps: &StageLaps) {
        self.inner.lock().record(c, laps);
    }

    fn quarantined(&self) {
        self.inner.lock().totals.quarantined += 1;
    }
}

/// One worker's thread-local front of a shared [`RecordingSink`].
///
/// Recording a transaction is a `RefCell` borrow plus plain integer
/// stores — no mutex, no atomics — which is what keeps the metered scan
/// within the < 5% overhead budget. The accumulated batch merges into
/// the shared sink when the front drops, so by the time
/// `ScanEngine::scan_metered` returns, the shared sink holds every
/// worker's samples.
#[derive(Debug)]
pub struct WorkerSink<'a> {
    shared: &'a RecordingSink,
    local: RefCell<RecordingInner>,
}

impl MetricsSink for WorkerSink<'_> {
    const ENABLED: bool = true;

    type WorkerFront<'b>
        = WorkerSink<'b>
    where
        Self: 'b;

    /// A front of a front still funnels into the same shared sink.
    fn worker_front(&self) -> WorkerSink<'_> {
        self.shared.worker_front()
    }

    fn stage_sampling(&self) -> u32 {
        self.shared.sample_every
    }

    fn transaction(&self, c: &TxCounters, laps: &StageLaps) {
        self.local.borrow_mut().record(c, laps);
    }

    fn quarantined(&self) {
        self.local.borrow_mut().totals.quarantined += 1;
    }
}

impl Drop for WorkerSink<'_> {
    fn drop(&mut self) {
        self.shared.absorb(self.local.take());
    }
}

/// Sorts `samples` in place and reduces them to a [`StageSummary`].
fn summarize(stage: Stage, samples: &mut [u64]) -> StageSummary {
    samples.sort_unstable();
    let count = samples.len() as u64;
    let total_ns: u64 = samples.iter().sum();
    let pct = |p: f64| -> u64 {
        if samples.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * samples.len() as f64).ceil().max(1.0) as usize - 1;
        samples[rank.min(samples.len() - 1)]
    };
    StageSummary {
        stage,
        count,
        total_ns,
        p50_ns: pct(50.0),
        p95_ns: pct(95.0),
        p99_ns: pct(99.0),
    }
}

/// Aggregated [`TxCounters`] over a recorded batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxCountersTotal {
    /// Transactions recorded.
    pub transactions: u64,
    /// Sum of [`TxCounters::account_transfers`].
    pub account_transfers: u64,
    /// Sum of [`TxCounters::flash_loans`].
    pub flash_loans: u64,
    /// Sum of [`TxCounters::tags_resolved`].
    pub tags_resolved: u64,
    /// Sum of [`TxCounters::app_transfers`].
    pub app_transfers: u64,
    /// Sum of [`TxCounters::transfers_dropped`].
    pub transfers_dropped: u64,
    /// Sum of [`TxCounters::transfers_merged`].
    pub transfers_merged: u64,
    /// Sum of [`TxCounters::trades`].
    pub trades: u64,
    /// Sum of [`TxCounters::borrower_tags`].
    pub borrower_tags: u64,
    /// Sum of [`TxCounters::patterns_tried`].
    pub patterns_tried: u64,
    /// Sum of [`TxCounters::patterns_matched`].
    pub patterns_matched: u64,
    /// Transactions quarantined instead of analyzed (resilient scans;
    /// not part of [`TxCounters`] — see [`MetricsSink::quarantined`]).
    pub quarantined: u64,
}

impl TxCountersTotal {
    /// Adds one transaction's counters.
    pub fn add(&mut self, c: &TxCounters) {
        self.transactions += 1;
        self.account_transfers += u64::from(c.account_transfers);
        self.flash_loans += u64::from(c.flash_loans);
        self.tags_resolved += u64::from(c.tags_resolved);
        self.app_transfers += u64::from(c.app_transfers);
        self.transfers_dropped += u64::from(c.transfers_dropped);
        self.transfers_merged += u64::from(c.transfers_merged);
        self.trades += u64::from(c.trades);
        self.borrower_tags += u64::from(c.borrower_tags);
        self.patterns_tried += u64::from(c.patterns_tried);
        self.patterns_matched += u64::from(c.patterns_matched);
    }

    /// Folds another total (e.g. a worker's batch) into this one.
    pub fn merge(&mut self, other: &TxCountersTotal) {
        self.transactions += other.transactions;
        self.account_transfers += other.account_transfers;
        self.flash_loans += other.flash_loans;
        self.tags_resolved += other.tags_resolved;
        self.app_transfers += other.app_transfers;
        self.transfers_dropped += other.transfers_dropped;
        self.transfers_merged += other.transfers_merged;
        self.trades += other.trades;
        self.borrower_tags += other.borrower_tags;
        self.patterns_tried += other.patterns_tried;
        self.patterns_matched += other.patterns_matched;
        self.quarantined += other.quarantined;
    }
}

/// Latency summary of one stage over a recorded batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageSummary {
    /// Which stage.
    pub stage: Stage,
    /// Samples recorded (= transactions that reached the stage).
    pub count: u64,
    /// Sum of all samples, nanoseconds.
    pub total_ns: u64,
    /// Median, nanoseconds (nearest-rank).
    pub p50_ns: u64,
    /// 95th percentile, nanoseconds.
    pub p95_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
}

impl StageSummary {
    /// Median in microseconds.
    pub fn p50_us(&self) -> f64 {
        self.p50_ns as f64 / 1e3
    }

    /// 95th percentile in microseconds.
    pub fn p95_us(&self) -> f64 {
        self.p95_ns as f64 / 1e3
    }

    /// 99th percentile in microseconds.
    pub fn p99_us(&self) -> f64 {
        self.p99_ns as f64 / 1e3
    }

    /// Total stage time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
}

/// Times the pipeline stages of one transaction when the sink is enabled.
///
/// A `StageClock` is constructed at pipeline entry, [`StageClock::lap`]
/// marks each stage boundary into a stack-local [`StageLaps`], and
/// [`StageClock::finish`] hands the laps plus the counters to the sink in
/// one call — so the sink synchronizes once per transaction. With a
/// disabled sink all three are free: the struct holds no timestamp and
/// every method body is dead code behind `S::ENABLED`.
pub(crate) struct StageClock {
    tx: TxId,
    start: Option<Instant>,
    laps: StageLaps,
}

impl StageClock {
    /// Starts timing if `S` records and the caller picked this
    /// transaction for stage timing; otherwise a no-op clock. `tx` is
    /// reported to [`MetricsSink::stage_boundary`] at every lap.
    pub fn start<S: MetricsSink>(_sink: &S, timed: bool, tx: TxId) -> Self {
        StageClock {
            tx,
            start: (S::ENABLED && timed).then(Instant::now),
            laps: StageLaps::empty(),
        }
    }

    /// Marks the time since the previous lap (or start) as `stage`, and
    /// restarts the clock for the next stage. Always announces the
    /// boundary to the sink (even for transactions not picked for
    /// stage timing) so mid-pipeline hooks see every transaction.
    pub fn lap<S: MetricsSink>(&mut self, sink: &S, stage: Stage) {
        if S::ENABLED {
            sink.stage_boundary(self.tx, stage);
            if self.start.is_some() {
                // One clock read serves as both this lap's end and the
                // next lap's start — the boundaries stay contiguous and
                // the cost per stage is a single `Instant::now`.
                let now = Instant::now();
                if let Some(prev) = self.start.replace(now) {
                    self.laps.record(stage, (now - prev).as_nanos() as u64);
                }
            }
        }
    }

    /// Delivers the recorded laps and `counters` to the sink.
    pub fn finish<S: MetricsSink>(self, sink: &S, counters: &TxCounters) {
        if S::ENABLED {
            sink.transaction(counters, &self.laps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_index_contiguously() {
        for (i, s) in STAGES.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        assert_eq!(STAGES.len(), STAGE_COUNT);
    }

    /// Laps with only `Stage::Tagging` recorded, at `nanos`.
    fn tagging_laps(nanos: u64) -> StageLaps {
        let mut laps = StageLaps::empty();
        laps.record(Stage::Tagging, nanos);
        laps
    }

    #[test]
    fn noop_is_disabled() {
        const { assert!(!NoopSink::ENABLED) }
        // The hook is callable and inert.
        NoopSink.transaction(&TxCounters::default(), &StageLaps::empty());
    }

    #[test]
    fn stage_laps_track_reached_stages() {
        let mut laps = StageLaps::empty();
        assert_eq!(laps.iter().count(), 0);
        laps.record(Stage::FlashLoan, 7);
        laps.record(Stage::Patterns, 9);
        assert_eq!(laps.get(Stage::FlashLoan), Some(7));
        assert_eq!(laps.get(Stage::Tagging), None);
        assert_eq!(
            laps.iter().collect::<Vec<_>>(),
            vec![(Stage::FlashLoan, 7), (Stage::Patterns, 9)]
        );
        // The sentinel cannot be aliased by a real sample.
        laps.record(Stage::Simplify, u64::MAX);
        assert_eq!(laps.get(Stage::Simplify), Some(u64::MAX - 1));
    }

    #[test]
    fn recording_sink_aggregates() {
        let sink = RecordingSink::new();
        sink.transaction(
            &TxCounters {
                account_transfers: 4,
                flash_loans: 1,
                tags_resolved: 9,
                app_transfers: 3,
                transfers_dropped: 1,
                transfers_merged: 0,
                trades: 2,
                borrower_tags: 1,
                patterns_tried: 6,
                patterns_matched: 1,
            },
            &tagging_laps(100),
        );
        sink.transaction(&TxCounters::default(), &tagging_laps(300));
        sink.transaction(&TxCounters::default(), &tagging_laps(200));

        let s = sink.stage_summary(Stage::Tagging);
        assert_eq!(s.count, 3);
        assert_eq!(s.total_ns, 600);
        assert_eq!(s.p50_ns, 200);
        assert_eq!(s.p99_ns, 300);
        assert_eq!(sink.stage_summary(Stage::Patterns).count, 0);

        let t = sink.counter_totals();
        assert_eq!(t.transactions, 3);
        assert_eq!(t.account_transfers, 4);
        assert_eq!(t.tags_resolved, 9);
        assert_eq!(t.patterns_tried, 6);

        sink.clear();
        assert_eq!(sink.transactions(), 0);
        assert_eq!(sink.stage_summary(Stage::Tagging).count, 0);
    }

    #[test]
    fn clock_records_only_when_enabled() {
        let sink = RecordingSink::new();
        let mut clock = StageClock::start(&sink, true, TxId(1));
        clock.lap(&sink, Stage::FlashLoan);
        clock.finish(&sink, &TxCounters::default());
        assert_eq!(sink.stage_summary(Stage::FlashLoan).count, 1);
        assert_eq!(sink.transactions(), 1);

        // An un-picked transaction still records its counters.
        let mut clock = StageClock::start(&sink, false, TxId(2));
        clock.lap(&sink, Stage::FlashLoan);
        clock.finish(&sink, &TxCounters::default());
        assert_eq!(sink.stage_summary(Stage::FlashLoan).count, 1);
        assert_eq!(sink.transactions(), 2);

        let noop = NoopSink;
        let mut clock = StageClock::start(&noop, true, TxId(3));
        clock.lap(&noop, Stage::FlashLoan);
        clock.finish(&noop, &TxCounters::default());
    }

    #[test]
    fn empty_summary_is_zero() {
        let sink = RecordingSink::new();
        let s = sink.stage_summary(Stage::Simplify);
        assert_eq!((s.count, s.p50_ns, s.p95_ns, s.p99_ns, s.total_ns), (0, 0, 0, 0, 0));
        assert_eq!(s.p50_us(), 0.0);
    }

    #[test]
    fn stage_names_are_snake_case() {
        assert_eq!(Stage::FlashLoan.name(), "flash_loan");
        assert_eq!(Stage::Patterns.to_string(), "patterns");
    }
}
