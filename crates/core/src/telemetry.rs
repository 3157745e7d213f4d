//! Pipeline instrumentation — one [`Observer`] seam for per-stage
//! latency, per-transaction counters, decision provenance and fault
//! injection.
//!
//! The paper's evaluation (§VI) reports where LeiShen spends its time —
//! journal extraction, transfer simplification, address tagging, pattern
//! matching — but a batch scan only exposes end-to-end throughput unless
//! each stage is instrumented. This module adds that instrumentation as a
//! **zero-cost-when-disabled** observer:
//!
//! * [`Observer`] — the hook trait. Its associated `METERED` and `TRACED`
//!   constants are checked at compile time, so a pipeline monomorphized
//!   over `()` contains no timer reads, no counter stores, no event
//!   construction and no branches. Observers compose as pairs, `(A, B)`.
//! * [`RecordingSink`] — used by benches and tests: collects raw
//!   per-stage latency samples (for exact p50/p95/p99, not bucketed
//!   estimates) and aggregates [`TxCounters`] into totals shared by all
//!   scan workers.
//! * [`crate::trace::FlightRecorder`] keeps decision provenance and
//!   [`crate::resilience::FaultInjector`] lands induced faults at stage
//!   boundaries, both through the same trait.
//!
//! Counters live in a per-transaction [`TxCounters`] value built on the
//! worker's stack — never in shared state — and one per-transaction probe
//! reads the clock once per stage for laps and spans alike, so recording
//! a transaction is one clock read per stage plus one
//! [`Observer::transaction_done`] call. See `DESIGN.md`'s telemetry
//! section for the overhead budget.

use std::cell::RefCell;
use std::time::Instant;

use ethsim::{SpanId, TxId};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::trace::{Decision, SpanRecord, TraceEvent, TxProvenance};

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
/// Built on the worker's stack by the pipeline's per-transaction probe
/// and handed to the observer in a single [`Observer::transaction_done`]
/// call, so a recording sink synchronizes **once per transaction** instead
/// of once per stage. Stages the transaction never reached (the short-circuit
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

/// The one instrumentation hook the pipeline calls: metrics, decision
/// provenance and fault injection all observe a transaction through it.
///
/// `METERED` and `TRACED` are associated constants rather than methods so
/// the pipeline guards what each side costs with compile-time checks: over
/// `()`, which sets both `false`, it reads no clock, stores no counter and
/// builds no event, and every hook is an empty inlined body. This is why
/// the hot path takes a generic `O: Observer` instead of a `&dyn` object.
///
/// The trait itself is not `Sync`: a worker thread records into its own
/// [`Observer::front`], which needs no cross-thread synchronization and
/// merges into the shared observer when dropped. Only the observer shared
/// *across* workers (what `ScanEngine` takes) must be `Sync`.
///
/// Observers compose as pairs instead of wrapping each other: `(A, B)`
/// delivers every hook to `A` and then to `B`, and pairs nest, so
/// `(injector, (sink, recorder))` injects faults, meters and traces one
/// scan. A shared reference observes through its referent, so borrowed
/// observers compose too.
pub trait Observer {
    /// Whether the pipeline builds counters and times stage laps.
    const METERED: bool;

    /// Whether the pipeline builds decision provenance.
    const TRACED: bool;

    /// The worker-local front of this observer (see [`Observer::front`]).
    type Front<'a>: Observer
    where
        Self: 'a;

    /// A front for one worker: the worker records every transaction into
    /// the front — thread-local, no locks, no atomics — and the front
    /// delivers the accumulated batch to the shared observer when dropped
    /// (end of the worker's scan).
    fn front(&self) -> Self::Front<'_>;

    /// Time stage laps for one in this many transactions (per worker),
    /// when `METERED`; `1` means every transaction. Counters are recorded
    /// regardless, and spans of a traced transaction are never thinned.
    /// On an untraced transaction sampling saves the per-stage clock
    /// reads, which on micro-second transactions are the bulk of the
    /// instrumentation cost (see `DESIGN.md`'s overhead budget).
    fn stage_sampling(&self) -> u32 {
        1
    }

    /// The instant span offsets are measured from, when this observer
    /// keeps traces.
    fn epoch(&self) -> Option<Instant> {
        None
    }

    /// Transaction `tx` just crossed the closing boundary of `stage`.
    ///
    /// Called for every transaction, in stage order, from inside the
    /// pipeline — the one hook that observes a transaction
    /// *mid-analysis*, and where the resilience layer's fault injector
    /// lands induced panics and delays at exact pipeline stages.
    fn stage_boundary(&self, _tx: TxId, _stage: Stage) {}

    /// One transaction finished. `counters` are filled when `METERED`,
    /// and so are `laps` when the transaction was picked for stage
    /// timing. `trace` holds its provenance when `TRACED`; the observer
    /// that keeps it takes it, so a trace is moved, never cloned.
    fn transaction_done(
        &self,
        _counters: &TxCounters,
        _laps: &StageLaps,
        _trace: &mut Option<TxProvenance>,
    ) {
    }

    /// One transaction was quarantined instead of analyzed (resilient
    /// scans only). `trace` holds its degraded-mode provenance when
    /// `TRACED`, for the observer that keeps it to take.
    fn quarantined(&self, _trace: &mut Option<TxProvenance>) {}
}

/// The do-nothing observer: the hot path's default. Compiles to nothing.
impl Observer for () {
    const METERED: bool = false;
    const TRACED: bool = false;

    type Front<'a> = ();

    #[inline(always)]
    fn front(&self) {}
}

/// `A` then `B`. The first metered member sets the stage sampling, and
/// the first traced member takes the trace.
impl<A: Observer, B: Observer> Observer for (A, B) {
    const METERED: bool = A::METERED || B::METERED;
    const TRACED: bool = A::TRACED || B::TRACED;

    type Front<'a>
        = (A::Front<'a>, B::Front<'a>)
    where
        Self: 'a;

    fn front(&self) -> Self::Front<'_> {
        (self.0.front(), self.1.front())
    }

    fn stage_sampling(&self) -> u32 {
        if A::METERED {
            self.0.stage_sampling()
        } else {
            self.1.stage_sampling()
        }
    }

    fn epoch(&self) -> Option<Instant> {
        self.0.epoch().or_else(|| self.1.epoch())
    }

    fn stage_boundary(&self, tx: TxId, stage: Stage) {
        self.0.stage_boundary(tx, stage);
        self.1.stage_boundary(tx, stage);
    }

    fn transaction_done(
        &self,
        counters: &TxCounters,
        laps: &StageLaps,
        trace: &mut Option<TxProvenance>,
    ) {
        self.0.transaction_done(counters, laps, trace);
        self.1.transaction_done(counters, laps, trace);
    }

    fn quarantined(&self, trace: &mut Option<TxProvenance>) {
        self.0.quarantined(trace);
        self.1.quarantined(trace);
    }
}

/// A shared reference observes through its referent.
impl<O: Observer> Observer for &O {
    const METERED: bool = O::METERED;
    const TRACED: bool = O::TRACED;

    type Front<'a>
        = O::Front<'a>
    where
        Self: 'a;

    fn front(&self) -> O::Front<'_> {
        (**self).front()
    }

    fn stage_sampling(&self) -> u32 {
        (**self).stage_sampling()
    }

    fn epoch(&self) -> Option<Instant> {
        (**self).epoch()
    }

    fn stage_boundary(&self, tx: TxId, stage: Stage) {
        (**self).stage_boundary(tx, stage);
    }

    fn transaction_done(
        &self,
        counters: &TxCounters,
        laps: &StageLaps,
        trace: &mut Option<TxProvenance>,
    ) {
        (**self).transaction_done(counters, laps, trace);
    }

    fn quarantined(&self, trace: &mut Option<TxProvenance>) {
        (**self).quarantined(trace);
    }
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
/// directly: each worker records into its [`Observer::front`] — plain
/// thread-local stores, no locking — and the front merges into this
/// sink's mutex once when the worker finishes. Handing the shared sink
/// to a single-transaction analysis also works (one mutex acquisition
/// per transaction); the `obs` bench bin measures the end-to-end overhead
/// against the unobserved `()`.
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

impl Observer for RecordingSink {
    const METERED: bool = true;
    const TRACED: bool = false;

    type Front<'a> = WorkerSink<'a>;

    fn front(&self) -> WorkerSink<'_> {
        WorkerSink {
            shared: self,
            local: RefCell::new(RecordingInner::default()),
        }
    }

    fn stage_sampling(&self) -> u32 {
        self.sample_every
    }

    fn transaction_done(&self, c: &TxCounters, laps: &StageLaps, _: &mut Option<TxProvenance>) {
        self.inner.lock().record(c, laps);
    }

    fn quarantined(&self, _: &mut Option<TxProvenance>) {
        self.inner.lock().totals.quarantined += 1;
    }
}

/// One worker's thread-local front of a shared [`RecordingSink`].
///
/// Recording a transaction is a `RefCell` borrow plus plain integer
/// stores — no mutex, no atomics — which is what keeps the metered scan
/// within the < 5% overhead budget. The accumulated batch merges into
/// the shared sink when the front drops, so by the time a metered scan
/// returns, the shared sink holds every worker's samples.
#[derive(Debug)]
pub struct WorkerSink<'a> {
    shared: &'a RecordingSink,
    local: RefCell<RecordingInner>,
}

impl Observer for WorkerSink<'_> {
    const METERED: bool = true;
    const TRACED: bool = false;

    type Front<'b>
        = WorkerSink<'b>
    where
        Self: 'b;

    /// A front of a front still funnels into the same shared sink.
    fn front(&self) -> WorkerSink<'_> {
        self.shared.front()
    }

    fn stage_sampling(&self) -> u32 {
        self.shared.sample_every
    }

    fn transaction_done(&self, c: &TxCounters, laps: &StageLaps, _: &mut Option<TxProvenance>) {
        self.local.borrow_mut().record(c, laps);
    }

    fn quarantined(&self, _: &mut Option<TxProvenance>) {
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
    /// not part of [`TxCounters`] — see [`Observer::quarantined`]).
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

/// One transaction's instrumentation while the pipeline runs: stage laps
/// for a metered observer, spans and events for a traced one, from one
/// clock read per stage boundary.
///
/// A `Probe` is built on the worker's stack at pipeline entry,
/// [`Probe::lap`] marks each stage boundary, and [`Probe::finish`] hands
/// the counters, laps and finished provenance to the observer in one call —
/// so a recording observer synchronizes once per transaction. Over an
/// observer that neither meters nor traces, everything but the
/// `stage_boundary` call is dead code behind the two constants.
pub(crate) struct Probe {
    tx: TxId,
    /// Whether this transaction's laps are recorded: metered, and picked
    /// by stage sampling.
    lapped: bool,
    /// The span epoch and the previous clock read, while the transaction
    /// is timed (lapped or traced).
    timing: Option<(Instant, Instant)>,
    laps: StageLaps,
    spans: Vec<SpanRecord>,
    events: Vec<TraceEvent>,
}

impl Probe {
    /// Starts the probe of `tx`; `picked` is the stage-sampling decision.
    /// The clock starts when the transaction is lapped or `O` traces.
    pub fn start<O: Observer>(observer: &O, tx: TxId, picked: bool) -> Self {
        let lapped = O::METERED && picked;
        let timing = (lapped || O::TRACED).then(|| {
            let now = Instant::now();
            (observer.epoch().unwrap_or(now), now)
        });
        Probe {
            tx,
            lapped,
            timing,
            laps: StageLaps::empty(),
            spans: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Announces the closing boundary of `stage` to the observer (for
    /// every transaction, timed or not, so mid-pipeline hooks see them
    /// all). When timed, one clock read closes the stage's lap and span
    /// and opens the next stage's, so the boundaries stay contiguous.
    pub fn lap<O: Observer>(&mut self, observer: &O, stage: Stage) {
        observer.stage_boundary(self.tx, stage);
        if O::METERED || O::TRACED {
            if let Some((epoch, last)) = &mut self.timing {
                let now = Instant::now();
                if self.lapped {
                    self.laps.record(stage, (now - *last).as_nanos() as u64);
                }
                if O::TRACED {
                    let offset =
                        |at: Instant| at.saturating_duration_since(*epoch).as_nanos() as u64;
                    self.spans.push(SpanRecord {
                        stage,
                        start_ns: offset(*last),
                        end_ns: offset(now),
                    });
                }
                *last = now;
            }
        }
    }

    /// Appends the event `f` builds — `f` is only called (and its
    /// captures only touched) when `O` traces.
    pub fn event<O: Observer>(&mut self, _observer: &O, f: impl FnOnce() -> TraceEvent) {
        if O::TRACED {
            self.events.push(f());
        }
    }

    /// Delivers `counters`, the laps and — when `O` traces — the
    /// provenance closed by the decision `decide` builds.
    pub fn finish<O: Observer>(
        self,
        observer: &O,
        counters: &TxCounters,
        decide: impl FnOnce() -> Decision,
    ) {
        let mut trace = O::TRACED.then(|| TxProvenance {
            tx: self.tx,
            span: SpanId::tx_root(self.tx),
            worker: 0,
            spans: self.spans,
            events: self.events,
            decision: decide(),
        });
        observer.transaction_done(counters, &self.laps, &mut trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{FlightRecorder, Reason};

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
        const { assert!(!<()>::METERED && !<()>::TRACED) }
        // The hooks are callable and inert.
        ().transaction_done(&TxCounters::default(), &StageLaps::empty(), &mut None);
        ().quarantined(&mut None);
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
        let record = |c: &TxCounters, laps| sink.transaction_done(c, &laps, &mut None);
        record(
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
            tagging_laps(100),
        );
        record(&TxCounters::default(), tagging_laps(300));
        record(&TxCounters::default(), tagging_laps(200));

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
        let mut probe = Probe::start(&sink, TxId(1), true);
        probe.lap(&sink, Stage::FlashLoan);
        probe.finish(&sink, &TxCounters::default(), Decision::default);
        assert_eq!(sink.stage_summary(Stage::FlashLoan).count, 1);
        assert_eq!(sink.transactions(), 1);

        // An un-picked transaction still records its counters.
        let mut probe = Probe::start(&sink, TxId(2), false);
        probe.lap(&sink, Stage::FlashLoan);
        probe.finish(&sink, &TxCounters::default(), Decision::default);
        assert_eq!(sink.stage_summary(Stage::FlashLoan).count, 1);
        assert_eq!(sink.transactions(), 2);

        // Over `()` the probe is inert end to end: no event is built.
        let mut probe = Probe::start(&(), TxId(3), true);
        probe.event(&(), || unreachable!("unobserved pipelines build nothing"));
        probe.lap(&(), Stage::FlashLoan);
        probe.finish(&(), &TxCounters::default(), || unreachable!());
    }

    #[test]
    fn probe_traces_every_transaction_and_pairs_share_it() {
        let observer = (RecordingSink::sampled(1_000), FlightRecorder::new());
        let mut probe = Probe::start(&observer, TxId(7), false);
        probe.event(&observer, || TraceEvent::SimplifySummary {
            kept: 1,
            dropped: 2,
            merged: 0,
        });
        probe.lap(&observer, Stage::FlashLoan);
        probe.lap(&observer, Stage::Tagging);
        let decision = || Decision {
            flagged: false,
            reasons: vec![Reason::NoPatternMatched],
        };
        probe.finish(&observer, &TxCounters::default(), decision);
        let (sink, recorder) = &observer;

        // The sink got the counters once, and no laps: the transaction
        // was not picked for stage timing.
        assert_eq!(sink.transactions(), 1);
        assert_eq!(sink.stage_summary(Stage::FlashLoan).count, 0);
        // The recorder got every span anyway, contiguous from one clock.
        let t = recorder.find(TxId(7)).expect("recorded");
        assert_eq!(t.span, SpanId::tx_root(TxId(7)));
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].stage, Stage::FlashLoan);
        assert_eq!(t.spans[0].end_ns, t.spans[1].start_ns);
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.decision.reasons[0].code(), "no_pattern");

        // Quarantines reach both members; the trace goes to the first
        // traced one only.
        let second = FlightRecorder::new();
        let pair = (&observer, &second);
        let mut trace = Some(recorder.find(TxId(7)).unwrap());
        pair.quarantined(&mut trace);
        assert!(trace.is_none());
        assert_eq!(sink.counter_totals().quarantined, 1);
        assert_eq!((recorder.recorded(), second.recorded()), (2, 0));
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
