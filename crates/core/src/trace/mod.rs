//! Decision-provenance tracing — structured spans and events recording
//! *why* the detector flagged (or cleared) each transaction.
//!
//! Aggregate telemetry ([`crate::telemetry`]) answers "where does the
//! pipeline spend its time"; this layer answers the analyst's question:
//! *why was this transaction flagged?* For every analyzed transaction a
//! [`TxProvenance`] records
//!
//! * the per-stage spans (wall-clock offsets from a shared epoch),
//! * the full event log — flash loans found, tags assigned with the
//!   transfer that first triggered them, simplify keeps/drops/merges,
//!   identified trades, and every pattern matcher's verdict (the journal
//!   `seq`s it matched, or the first predicate that failed),
//! * the final [`Decision`] with a machine-readable [`Reason`] chain.
//!
//! Traces are collected through the same [`Observer`] seam as the
//! telemetry counters, guarded by its `TRACED` constant: over an observer
//! that does not trace, every event closure and span is dead code.
//!
//! * [`FlightRecorder`] — the shared traced observer: a bounded ring that
//!   retains the last *N* cleared traces and **pins** every trace whose
//!   decision flagged an attack, so batch scans stay allocation-lean
//!   while attacks are always fully recorded.
//! * [`WorkerTracer`] — a per-worker lock-free front ([`FlightRecorder`]'s
//!   [`Observer::front`]): traces accumulate in a thread-local buffer
//!   (itself ring-bounded) and merge into the shared recorder in one
//!   mutex acquisition when the worker finishes.
//!
//! Exporters live in [`export`]: JSONL event logs (one trace per line,
//! re-importable via [`export::parse_jsonl`]) and Chrome `trace_event`
//! JSON openable in `chrome://tracing` / Perfetto, with stage spans
//! nested per worker. [`json`] holds the small hand-rolled JSON parser
//! both the re-import and the `bench_diff` gate share.

pub mod export;
pub mod json;

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use ethsim::{SpanId, TxId};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::patterns::PatternKind;
use crate::simplify::DropRule;
use crate::telemetry::{Observer, Stage, StageLaps, TxCounters};

/// One structured provenance event, in pipeline order.
///
/// Addresses, tags and tokens appear in display form: events are the
/// analyst-facing audit trail, and strings survive the JSONL round trip
/// exactly.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A Table II flash-loan signature matched.
    FlashLoan {
        /// Lending protocol (display name).
        provider: String,
        /// Lender contract address.
        lender: String,
        /// Borrower contract address.
        borrower: String,
        /// Borrowed amount, when the signature exposes it.
        amount: Option<u128>,
    },
    /// A distinct tag entered the transaction's tagged transfer list.
    TagAssigned {
        /// The tag, in display form.
        tag: String,
        /// `seq` of the first journal transfer carrying the tag.
        first_seq: u32,
    },
    /// A journal transfer was dropped by simplify rules 1–2.
    SimplifyDropped {
        /// Journal `seq` of the dropped transfer.
        seq: u32,
        /// Which rule dropped it.
        rule: DropRule,
    },
    /// A journal transfer was merged into a surviving predecessor
    /// (simplify rule 3, pass-through collapse).
    SimplifyMerged {
        /// Journal `seq` of the absorbed transfer.
        seq: u32,
        /// `seq` of the surviving transfer it merged into.
        into_seq: u32,
    },
    /// Stage-2 reduction totals (`kept + dropped + merged` = journal size).
    SimplifySummary {
        /// Transfers surviving into the application-level list.
        kept: u32,
        /// Transfers dropped by rules 1–2.
        dropped: u32,
        /// Transfers merged by rule 3.
        merged: u32,
    },
    /// A Table III trade action was identified.
    TradeIdentified {
        /// `seq` of the trade's first transfer.
        seq: u32,
        /// Swap / Mint-liquidity / Remove-liquidity.
        kind: String,
        /// Buying application tag.
        buyer: String,
        /// Selling application tag.
        seller: String,
    },
    /// One matcher's verdict on one `(quote, target)` pair for one
    /// borrower tag.
    PatternVerdict {
        /// Which pattern was evaluated.
        kind: PatternKind,
        /// The borrower tag evaluated.
        borrower: String,
        /// The quote token (display form).
        quote: String,
        /// The target token (display form).
        target: String,
        /// Matched with evidence, or the first predicate that failed.
        outcome: Verdict,
    },
    /// A post-detection heuristic ran (e.g. the aggregator-initiator
    /// filter, §VI-C).
    Heuristic {
        /// Heuristic name.
        name: String,
        /// Whether the report survives the heuristic.
        passed: bool,
        /// Human-readable score/justification.
        detail: String,
    },
    /// A [`crate::forensics::trace_exits`] exit path cross-linked into
    /// the flagged trace.
    ExitTraced {
        /// Exit classification (`direct` / `multi_level` / `coin_mixer`).
        kind: String,
        /// Terminal sink address.
        sink: String,
        /// Asset (display form).
        token: String,
        /// Amount arriving at the sink.
        amount: u128,
        /// Intermediary hops traversed.
        hops: u32,
        /// Accounts on the path from cluster boundary to sink.
        path_len: u32,
    },
}

/// One matcher's outcome on one pair: the concrete journal `seq`s it
/// matched, or the first (deepest) predicate that failed.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Verdict {
    /// The pattern matched.
    Matched {
        /// Journal `seq`s of the trades forming each match.
        trade_seqs: Vec<Vec<u32>>,
        /// Volatility of the first match on this pair.
        volatility: f64,
    },
    /// No match; `failed` names the deepest predicate reached.
    Rejected {
        /// The first predicate that failed.
        failed: String,
    },
}

/// One machine-readable link of a decision's reason chain.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Reason {
    /// The transaction reverted; LeiShen only replays committed ones.
    Reverted,
    /// No Table II flash-loan signature matched.
    NoFlashLoan,
    /// A flash loan from `provider` was identified.
    FlashLoan {
        /// Lending protocol display name.
        provider: String,
    },
    /// Flash loan present but no attack pattern matched.
    NoPatternMatched,
    /// An attack pattern matched — the flagging evidence.
    PatternMatched {
        /// Which pattern.
        kind: PatternKind,
        /// Target token (display form).
        target: String,
        /// Quote token (display form).
        quote: String,
        /// Journal `seq`s of the matched trades.
        trade_seqs: Vec<u32>,
    },
    /// Analysis never completed: the transaction was quarantined by the
    /// resilience layer and carries no verdict either way.
    Indeterminate {
        /// Machine-readable fault code (`Quarantine::reason()`), e.g.
        /// `invalid_input:seq_gap` or `panic@tagging`.
        fault: String,
    },
}

impl Reason {
    /// Stable machine-readable code for the reason variant.
    pub fn code(&self) -> &'static str {
        match self {
            Reason::Reverted => "reverted",
            Reason::NoFlashLoan => "no_flash_loan",
            Reason::FlashLoan { .. } => "flash_loan",
            Reason::NoPatternMatched => "no_pattern",
            Reason::PatternMatched { .. } => "pattern",
            Reason::Indeterminate { .. } => "indeterminate",
        }
    }
}

/// The final decision for one transaction, with its reason chain.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    /// Whether the transaction was flagged as a flpAttack.
    pub flagged: bool,
    /// Machine-readable reasons, in pipeline order.
    pub reasons: Vec<Reason>,
}

impl Decision {
    /// Whether the reason chain names at least one matched pattern.
    pub fn names_pattern(&self) -> bool {
        self.reasons
            .iter()
            .any(|r| matches!(r, Reason::PatternMatched { .. }))
    }
}

/// One pipeline stage's span: wall-clock offsets (nanoseconds) from the
/// recorder's epoch, so spans from different workers share a timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Which stage.
    pub stage: Stage,
    /// Start offset from the recorder epoch, nanoseconds.
    pub start_ns: u64,
    /// End offset from the recorder epoch, nanoseconds.
    pub end_ns: u64,
}

/// The full decision provenance of one analyzed transaction.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TxProvenance {
    /// The analyzed transaction.
    pub tx: TxId,
    /// Root span id ([`SpanId::tx_root`]).
    pub span: SpanId,
    /// Index of the scan worker that analyzed the transaction.
    pub worker: u32,
    /// Per-stage spans, in execution order (empty after short-circuits
    /// only the reached stages appear).
    pub spans: Vec<SpanRecord>,
    /// The structured event log, in pipeline order.
    pub events: Vec<TraceEvent>,
    /// The final decision and its reason chain.
    pub decision: Decision,
}

/// What the recorder (and each worker front) accumulates: the bounded
/// ring of recent cleared traces plus the pinned flagged ones.
#[derive(Debug, Default)]
struct RecorderBuf {
    ring: VecDeque<TxProvenance>,
    pinned: Vec<TxProvenance>,
    recorded: u64,
    evicted: u64,
}

impl RecorderBuf {
    fn record(&mut self, capacity: usize, trace: TxProvenance) {
        self.recorded += 1;
        if trace.decision.flagged {
            self.pinned.push(trace);
        } else {
            self.ring.push_back(trace);
            while self.ring.len() > capacity {
                self.ring.pop_front();
                self.evicted += 1;
            }
        }
    }

    fn merge(&mut self, capacity: usize, other: RecorderBuf) {
        self.recorded += other.recorded;
        self.evicted += other.evicted;
        self.pinned.extend(other.pinned);
        for trace in other.ring {
            self.ring.push_back(trace);
            while self.ring.len() > capacity {
                self.ring.pop_front();
                self.evicted += 1;
            }
        }
    }
}

/// The scan flight recorder: bounded ring of recent traces + pinned
/// flagged traces.
///
/// Memory is bounded by construction: the shared ring holds at most
/// `capacity` cleared traces (each worker front is bounded by the same
/// capacity while a scan is in flight), and only flagged traces — attacks
/// are rare by definition — escape the bound by being pinned. Under a
/// parallel scan the ring's "last N" is per-worker-merge approximate, as
/// with any multi-writer flight recorder; pinned traces are always exact
/// and complete.
#[derive(Debug)]
pub struct FlightRecorder {
    inner: Mutex<RecorderBuf>,
    capacity: usize,
    epoch: Instant,
    next_worker: AtomicU32,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// Default ring capacity (cleared traces retained).
    pub const DEFAULT_CAPACITY: usize = 256;

    /// A recorder with the default ring capacity.
    pub fn new() -> Self {
        FlightRecorder::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A recorder retaining the last `capacity` cleared traces (minimum
    /// 1); flagged traces are pinned outside the ring and never evicted.
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            inner: Mutex::new(RecorderBuf::default()),
            capacity: capacity.max(1),
            epoch: Instant::now(),
            next_worker: AtomicU32::new(0),
        }
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total traces recorded (including since-evicted ones).
    pub fn recorded(&self) -> u64 {
        self.inner.lock().recorded
    }

    /// Cleared traces evicted from the ring.
    pub fn evicted(&self) -> u64 {
        self.inner.lock().evicted
    }

    /// The retained cleared traces, oldest first.
    pub fn recent(&self) -> Vec<TxProvenance> {
        self.inner.lock().ring.iter().cloned().collect()
    }

    /// The pinned (flagged) traces, in record order.
    pub fn pinned(&self) -> Vec<TxProvenance> {
        self.inner.lock().pinned.clone()
    }

    /// Every retained trace — pinned first, then the ring — sorted by
    /// transaction id for deterministic export.
    pub fn traces(&self) -> Vec<TxProvenance> {
        let inner = self.inner.lock();
        let mut all: Vec<TxProvenance> =
            inner.pinned.iter().chain(inner.ring.iter()).cloned().collect();
        all.sort_by_key(|t| t.tx);
        all
    }

    /// The retained trace of `tx`, if any (pinned or still in the ring).
    pub fn find(&self, tx: TxId) -> Option<TxProvenance> {
        let inner = self.inner.lock();
        inner
            .pinned
            .iter()
            .chain(inner.ring.iter())
            .rev()
            .find(|t| t.tx == tx)
            .cloned()
    }

    /// Appends events to the retained trace of `tx` in place — how the
    /// `trace` bin cross-links post-detection context (heuristic verdicts,
    /// forensic exit paths) into a recorded provenance. Returns `false`
    /// when the trace is no longer retained.
    pub fn annotate(&self, tx: TxId, f: impl FnOnce(&mut TxProvenance)) -> bool {
        let mut inner = self.inner.lock();
        let RecorderBuf { ring, pinned, .. } = &mut *inner;
        if let Some(t) = pinned
            .iter_mut()
            .chain(ring.iter_mut())
            .rev()
            .find(|t| t.tx == tx)
        {
            f(t);
            true
        } else {
            false
        }
    }

    /// Drops all retained traces and counters (the epoch is kept).
    pub fn clear(&self) {
        *self.inner.lock() = RecorderBuf::default();
    }

    /// Merges a worker front's accumulated batch in one lock acquisition.
    fn absorb(&self, batch: RecorderBuf) {
        self.inner.lock().merge(self.capacity, batch);
    }

    /// Takes and keeps a delivered trace.
    fn keep(&self, trace: &mut Option<TxProvenance>) {
        if let Some(trace) = trace.take() {
            self.inner.lock().record(self.capacity, trace);
        }
    }
}

impl Observer for FlightRecorder {
    const METERED: bool = false;
    const TRACED: bool = true;

    type Front<'a> = WorkerTracer<'a>;

    fn front(&self) -> WorkerTracer<'_> {
        WorkerTracer {
            shared: self,
            worker: self.next_worker.fetch_add(1, Ordering::Relaxed),
            local: RefCell::new(RecorderBuf::default()),
        }
    }

    fn epoch(&self) -> Option<Instant> {
        Some(self.epoch)
    }

    fn transaction_done(&self, _: &TxCounters, _: &StageLaps, trace: &mut Option<TxProvenance>) {
        self.keep(trace);
    }

    fn quarantined(&self, trace: &mut Option<TxProvenance>) {
        self.keep(trace);
    }
}

/// One worker's lock-free front of a shared [`FlightRecorder`]: recording
/// is a `RefCell` borrow plus a ring push; the batch merges into the
/// shared recorder when the front drops.
#[derive(Debug)]
pub struct WorkerTracer<'a> {
    shared: &'a FlightRecorder,
    worker: u32,
    local: RefCell<RecorderBuf>,
}

impl Observer for WorkerTracer<'_> {
    const METERED: bool = false;
    const TRACED: bool = true;

    type Front<'b>
        = WorkerTracer<'b>
    where
        Self: 'b;

    /// A front of a front still funnels into the same shared recorder.
    fn front(&self) -> WorkerTracer<'_> {
        self.shared.front()
    }

    fn epoch(&self) -> Option<Instant> {
        Some(self.shared.epoch)
    }

    fn transaction_done(&self, _: &TxCounters, _: &StageLaps, trace: &mut Option<TxProvenance>) {
        self.keep(trace);
    }

    fn quarantined(&self, trace: &mut Option<TxProvenance>) {
        self.keep(trace);
    }
}

impl WorkerTracer<'_> {
    /// Takes and keeps a delivered trace, stamped with this front's
    /// worker index.
    fn keep(&self, trace: &mut Option<TxProvenance>) {
        if let Some(mut trace) = trace.take() {
            trace.worker = self.worker;
            self.local
                .borrow_mut()
                .record(self.shared.capacity, trace);
        }
    }
}

impl Drop for WorkerTracer<'_> {
    fn drop(&mut self) {
        self.shared.absorb(self.local.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(tx: u64, flagged: bool) -> TxProvenance {
        TxProvenance {
            tx: TxId(tx),
            span: SpanId::tx_root(TxId(tx)),
            worker: 0,
            spans: vec![SpanRecord {
                stage: Stage::FlashLoan,
                start_ns: 0,
                end_ns: 10,
            }],
            events: Vec::new(),
            decision: Decision {
                flagged,
                reasons: if flagged {
                    vec![Reason::PatternMatched {
                        kind: PatternKind::Sbs,
                        target: "WBTC".into(),
                        quote: "ETH".into(),
                        trade_seqs: vec![1, 2, 3],
                    }]
                } else {
                    vec![Reason::NoFlashLoan]
                },
            },
        }
    }

    /// Delivers `t` to `observer` as a finished transaction's trace.
    fn record(observer: &impl Observer, t: TxProvenance) {
        observer.transaction_done(&TxCounters::default(), &StageLaps::empty(), &mut Some(t));
    }

    #[test]
    fn ring_is_bounded_and_flags_are_pinned() {
        let rec = FlightRecorder::with_capacity(4);
        for i in 0..10 {
            record(&rec, trace(i, false));
        }
        record(&rec, trace(100, true));
        record(&rec, trace(101, true));
        assert_eq!(rec.recent().len(), 4, "ring bounded at capacity");
        assert_eq!(rec.recent()[0].tx, TxId(6), "oldest evicted first");
        assert_eq!(rec.pinned().len(), 2, "every flagged trace pinned");
        assert_eq!(rec.evicted(), 6);
        assert_eq!(rec.recorded(), 12);
        // Flagged traces survive arbitrary later traffic.
        for i in 200..300 {
            record(&rec, trace(i, false));
        }
        assert_eq!(rec.pinned().len(), 2);
        assert_eq!(rec.recent().len(), 4);
    }

    #[test]
    fn traces_are_sorted_and_findable() {
        let rec = FlightRecorder::with_capacity(8);
        record(&rec, trace(5, false));
        record(&rec, trace(2, true));
        record(&rec, trace(9, false));
        let all = rec.traces();
        assert_eq!(
            all.iter().map(|t| t.tx.0).collect::<Vec<_>>(),
            vec![2, 5, 9]
        );
        assert!(rec.find(TxId(2)).unwrap().decision.flagged);
        assert!(rec.find(TxId(7)).is_none());
    }

    #[test]
    fn annotate_appends_events_in_place() {
        let rec = FlightRecorder::new();
        record(&rec, trace(3, true));
        let ok = rec.annotate(TxId(3), |t| {
            t.events.push(TraceEvent::Heuristic {
                name: "aggregator_initiator".into(),
                passed: true,
                detail: "initiator untagged".into(),
            })
        });
        assert!(ok);
        assert_eq!(rec.find(TxId(3)).unwrap().events.len(), 1);
        assert!(!rec.annotate(TxId(99), |_| {}));
    }

    #[test]
    fn worker_front_merges_on_drop() {
        let rec = FlightRecorder::with_capacity(16);
        {
            let front = rec.front();
            record(&front, trace(1, false));
            record(&front, trace(2, true));
            assert_eq!(rec.recorded(), 0, "nothing shared before the drop");
        }
        assert_eq!(rec.recorded(), 2);
        assert_eq!(rec.pinned().len(), 1);
        assert_eq!(rec.recent().len(), 1);
        // Each front stamps its own worker index.
        record(&rec.front(), trace(3, false));
        assert_ne!(rec.find(TxId(1)).unwrap().worker, rec.find(TxId(3)).unwrap().worker);
    }
}
