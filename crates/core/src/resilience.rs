//! Fault isolation, input quarantine, and reproducible fault injection.
//!
//! LeiShen is meant to run continuously over an adversarial transaction
//! stream. One malformed record — or one panic deep in a matcher — must
//! degrade a *single transaction's* verdict, never a whole batch. This
//! module provides the vocabulary and the harness for that guarantee:
//!
//! * **Quarantine** — a transaction the scan could not analyze gets a
//!   [`Verdict::Indeterminate`] carrying a structured [`Quarantine`]
//!   (which fault, at which pipeline stage, after how many attempts)
//!   instead of aborting the worker. Machine-readable reasons flow into
//!   provenance traces ([`crate::trace::Reason::Indeterminate`]) and
//!   telemetry counters
//!   ([`crate::telemetry::TxCountersTotal::quarantined`]).
//! * **Policy** — [`ResilienceConfig`] decides whether inputs are
//!   validated against the `ethsim` invariant list before analysis and
//!   whether a panicking analysis is retried once with fresh scratch
//!   state (transient faults — an injected panic, a poisoned cache line
//!   — succeed on retry; deterministic ones quarantine).
//! * **Fault injection** — a seed-deterministic [`FaultPlan`] assigns
//!   faults to corpus positions: corrupted inputs applied at the
//!   `ethsim` boundary by the `scenarios` crate's corruption
//!   generators, plus induced panics/delays landed mid-pipeline by a
//!   [`FaultInjector`] observer at exact [`Stage`] boundaries. The same
//!   seed reproduces the same campaign, like the fuzz harness.
//!
//! The scan-side integration lives in [`crate::scan::ScanEngine`]
//! (`scan_resilient*`); the chaos campaign bin and `BENCH_chaos.json`
//! schema are described in `EXPERIMENTS.md`.

use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

use ethsim::{RecordViolation, TxId};
use parking_lot::Mutex;

use crate::detector::Analysis;
use crate::fuzz::FuzzRng;
use crate::scan::ScanStats;
use crate::telemetry::{Observer, Stage};

/// Prefix of every panic payload raised by a [`FaultInjector`]. The
/// stage name follows the prefix, so the quarantine logic can attribute
/// the fault to a pipeline stage, and [`install_quiet_hook`] can
/// suppress the default panic banner for injected (expected) panics.
pub const INDUCED_PANIC_PREFIX: &str = "injected-fault@";

// ---------------------------------------------------------------------------
// Quarantine vocabulary
// ---------------------------------------------------------------------------

/// Why a transaction could not be analyzed.
#[derive(Clone, Debug, PartialEq)]
pub enum Fault {
    /// The record failed [`ethsim::validate_record`] — it never reached
    /// the pipeline.
    InvalidInput {
        /// Every invariant the record violated, in check order.
        violations: Vec<RecordViolation>,
    },
    /// The analysis panicked (and, under a retry policy, panicked
    /// again on the retry).
    Panic {
        /// The panic payload, stringified.
        message: String,
    },
    /// The per-block deadline budget expired before this transaction
    /// was analyzed. The streaming service downgrades late work to
    /// [`Verdict::Indeterminate`] instead of stalling the stream; the
    /// transaction never entered the pipeline.
    Deadline,
}

impl Fault {
    /// Stable machine-readable code: `invalid_input`, `panic`, or
    /// `deadline`.
    pub fn code(&self) -> &'static str {
        match self {
            Fault::InvalidInput { .. } => "invalid_input",
            Fault::Panic { .. } => "panic",
            Fault::Deadline => "deadline",
        }
    }
}

/// A transaction the resilient scan refused to produce a verdict for.
#[derive(Clone, Debug, PartialEq)]
pub struct Quarantine {
    /// The quarantined transaction.
    pub tx: TxId,
    /// Its position in the scanned batch.
    pub index: usize,
    /// What went wrong.
    pub fault: Fault,
    /// The pipeline stage the fault was attributed to, when known
    /// (injected panics carry their stage in the payload; input
    /// validation happens before any stage runs).
    pub stage: Option<Stage>,
    /// Analysis attempts made before giving up (0 for invalid input —
    /// the record never entered the pipeline).
    pub attempts: u32,
}

impl Quarantine {
    /// One-token machine-readable reason, used in provenance traces and
    /// `BENCH_chaos.json`: `invalid_input:<code>+<code>...` or
    /// `panic@<stage>` / `panic`.
    pub fn reason(&self) -> String {
        match &self.fault {
            Fault::InvalidInput { violations } => {
                let codes: Vec<&str> = violations.iter().map(|v| v.code()).collect();
                format!("invalid_input:{}", codes.join("+"))
            }
            Fault::Panic { .. } => match self.stage {
                Some(stage) => format!("panic@{}", stage.name()),
                None => "panic".to_string(),
            },
            Fault::Deadline => "deadline".to_string(),
        }
    }
}

/// The per-transaction outcome of a resilient scan: a completed
/// [`Analysis`], or a degraded-mode marker that refuses to claim either
/// "attack" or "benign".
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// The pipeline completed; the verdict is trustworthy.
    Analyzed(Analysis),
    /// The pipeline did not complete; treat the transaction as
    /// *unknown*, not as benign.
    Indeterminate(Quarantine),
}

impl Verdict {
    /// The analysis, if the pipeline completed.
    pub fn analysis(&self) -> Option<&Analysis> {
        match self {
            Verdict::Analyzed(a) => Some(a),
            Verdict::Indeterminate(_) => None,
        }
    }

    /// The quarantine record, if the transaction was quarantined.
    pub fn quarantine(&self) -> Option<&Quarantine> {
        match self {
            Verdict::Analyzed(_) => None,
            Verdict::Indeterminate(q) => Some(q),
        }
    }

    /// Whether this transaction ended in degraded mode.
    pub fn is_indeterminate(&self) -> bool {
        matches!(self, Verdict::Indeterminate(_))
    }
}

/// What the resilient scan does about faults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Run [`ethsim::validate_record`] before analysis and quarantine
    /// records that violate the executor invariants (recommended: the
    /// pipeline is only hardened against records the executor could
    /// have produced).
    pub validate_inputs: bool,
    /// Retry a panicked analysis once with fresh scratch state before
    /// quarantining. Transient faults (scheduling artifacts, injected
    /// chaos) succeed on retry; deterministic panics quarantine on the
    /// second attempt.
    pub retry_once: bool,
    /// Absolute wall-clock deadline for the scan. A transaction whose
    /// analysis has not *started* by this instant is quarantined with
    /// [`Fault::Deadline`] instead of being analyzed — the scan keeps
    /// draining its inputs (every transaction still gets a verdict) but
    /// stops paying for analysis. `None` (the default) never expires,
    /// and batch semantics are byte-identical to the pre-deadline
    /// engine. The streaming service derives one deadline per block
    /// from its [`crate::stream::StreamConfig::block_budget`].
    pub deadline: Option<std::time::Instant>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            validate_inputs: true,
            retry_once: true,
            deadline: None,
        }
    }
}

impl ResilienceConfig {
    /// The recommended policy: validate inputs, retry once.
    pub fn new() -> Self {
        ResilienceConfig::default()
    }

    /// Disables input validation (panics are still isolated).
    pub fn without_validation(mut self) -> Self {
        self.validate_inputs = false;
        self
    }

    /// Disables the retry, quarantining on the first panic.
    pub fn without_retry(mut self) -> Self {
        self.retry_once = false;
        self
    }

    /// Sets an absolute deadline: transactions not yet started by
    /// `deadline` are downgraded to [`Verdict::Indeterminate`] with
    /// [`Fault::Deadline`].
    pub fn with_deadline(mut self, deadline: std::time::Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// The outcome of [`crate::scan::ScanEngine::scan_resilient`]: one
/// verdict per input transaction, in input order, plus run stats.
#[derive(Debug)]
pub struct ResilientScan {
    /// One verdict per scanned transaction, in input order.
    pub verdicts: Vec<Verdict>,
    /// Run statistics ([`ScanStats::quarantined`] counts the
    /// indeterminate verdicts).
    pub stats: ScanStats,
}

impl ResilientScan {
    /// The completed analyses, in input order (quarantined positions
    /// are skipped).
    pub fn analyses(&self) -> impl Iterator<Item = &Analysis> {
        self.verdicts.iter().filter_map(Verdict::analysis)
    }

    /// The quarantine records, in input order.
    pub fn quarantines(&self) -> impl Iterator<Item = &Quarantine> {
        self.verdicts.iter().filter_map(Verdict::quarantine)
    }

    /// The input positions of the quarantined transactions, in input
    /// order. Useful for asserting that two scans of the same corpus —
    /// serial and chunked multi-worker, say — sidelined exactly the same
    /// records.
    pub fn quarantined_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.quarantines().map(|q| q.index)
    }

    /// Whether every transaction was fully analyzed.
    pub fn is_fully_analyzed(&self) -> bool {
        self.stats.quarantined == 0
    }
}

// ---------------------------------------------------------------------------
// Panic payload helpers
// ---------------------------------------------------------------------------

/// Stringifies a caught panic payload (`&str` and `String` payloads
/// verbatim, anything else a placeholder).
pub(crate) fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The pipeline stage encoded in an injected panic payload, if any.
pub(crate) fn stage_of_payload(message: &str) -> Option<Stage> {
    message
        .strip_prefix(INDUCED_PANIC_PREFIX)
        .and_then(Stage::from_name)
}

/// Installs a process-wide panic hook that stays silent for panics
/// raised by a [`FaultInjector`] (their payloads start with
/// [`INDUCED_PANIC_PREFIX`]) and defers to the previous hook for
/// everything else. Chaos campaigns call this once at startup so
/// thousands of expected injected panics don't flood stderr; genuine
/// panics still print.
pub fn install_quiet_hook() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = payload_message(info.payload());
        if !message.starts_with(INDUCED_PANIC_PREFIX) {
            previous(info);
        }
    }));
}

// ---------------------------------------------------------------------------
// Fault plans
// ---------------------------------------------------------------------------

/// The corrupted-input fault kinds the chaos generators know how to
/// apply at the `ethsim` boundary (each breaks exactly one
/// [`ethsim::validate_record`] invariant — the validator is the
/// ground-truth list these were derived from).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InputFault {
    /// Journal entries dropped — the seq union is no longer contiguous.
    TruncatedJournal,
    /// Transfer order scrambled — per-stream seqs stop increasing.
    ShuffledSeqs,
    /// Frame depths rewritten so no call tree can produce them.
    CyclicFrames,
    /// A transfer amount pushed past the executor's checked range.
    OverflowAmount,
    /// A log pointed at a journal position that does not exist.
    DanglingLog,
}

impl InputFault {
    /// Every corrupted-input fault kind.
    pub const ALL: [InputFault; 5] = [
        InputFault::TruncatedJournal,
        InputFault::ShuffledSeqs,
        InputFault::CyclicFrames,
        InputFault::OverflowAmount,
        InputFault::DanglingLog,
    ];

    /// Stable snake_case name (used in `BENCH_chaos.json`).
    pub fn name(self) -> &'static str {
        match self {
            InputFault::TruncatedJournal => "truncated_journal",
            InputFault::ShuffledSeqs => "shuffled_seqs",
            InputFault::CyclicFrames => "cyclic_frames",
            InputFault::OverflowAmount => "overflow_amount",
            InputFault::DanglingLog => "dangling_log",
        }
    }
}

/// The storage-layer fault kinds the crash campaign knows how to land
/// in the durable journal's write path (PR 10). Where [`InputFault`]
/// corrupts a record *before* the scan and [`InducedFault`] panics
/// *inside* it, an `IoFault` kills the process *underneath* it — the
/// media dies mid-write and the next open must recover. Armed against a
/// clean run's write timeline by
/// [`crate::store::ArmedIoFault::arm`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IoFault {
    /// Power loss at a random point in the appended byte stream: an
    /// arbitrary prefix survives, possibly cutting a frame in half.
    Kill,
    /// One append persists only a proper prefix of its bytes and
    /// reports failure; the process dies holding a torn tail.
    ShortWrite,
    /// Like [`IoFault::ShortWrite`] but the cut is guaranteed to land
    /// *inside* the frame being written, never on a clean boundary.
    TornFrame,
    /// One already-persisted bit is flipped (silent at-rest corruption)
    /// and the process dies; recovery must catch it by checksum.
    BitFlip,
    /// One fsync fails and everything appended since the last
    /// successful flush is lost before the process dies.
    FailedFsync,
}

impl IoFault {
    /// Every storage fault kind.
    pub const ALL: [IoFault; 5] = [
        IoFault::Kill,
        IoFault::ShortWrite,
        IoFault::TornFrame,
        IoFault::BitFlip,
        IoFault::FailedFsync,
    ];

    /// Stable snake_case name (used in `BENCH_recover.json`).
    pub fn name(self) -> &'static str {
        match self {
            IoFault::Kill => "kill",
            IoFault::ShortWrite => "short_write",
            IoFault::TornFrame => "torn_frame",
            IoFault::BitFlip => "bit_flip",
            IoFault::FailedFsync => "failed_fsync",
        }
    }
}

/// One planned storage fault: a kind plus the seed that resolves its
/// trigger position once a clean run's write totals are known. The
/// same `(seed, fault)` over the same timeline always lands at the
/// same byte/append/flush — crash matrices replay exactly, like
/// [`FaultPlan`] campaigns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoFaultPlan {
    /// Seed resolving the trigger position.
    pub seed: u64,
    /// Which fault fires.
    pub fault: IoFault,
}

impl IoFaultPlan {
    /// A plan landing `fault` at a `seed`-chosen point.
    pub fn new(seed: u64, fault: IoFault) -> Self {
        IoFaultPlan { seed, fault }
    }
}

/// A fault induced *inside* the pipeline (as opposed to a corrupted
/// input), landed by a [`FaultInjector`] at a stage boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InducedFault {
    /// Panic when the transaction crosses `stage`'s boundary.
    Panic {
        /// Which stage boundary.
        stage: Stage,
    },
    /// Stall for `micros` when the transaction crosses `stage`'s
    /// boundary (models a hung dependency rather than a crash).
    Delay {
        /// Which stage boundary.
        stage: Stage,
        /// How long to stall, microseconds.
        micros: u32,
    },
}

impl InducedFault {
    /// The stage this fault lands at.
    pub fn stage(self) -> Stage {
        match self {
            InducedFault::Panic { stage } | InducedFault::Delay { stage, .. } => stage,
        }
    }
}

/// One planned fault for one corpus position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlannedFault {
    /// Corrupt the record before it reaches the scan.
    Input(InputFault),
    /// Panic or stall mid-pipeline while the record is analyzed.
    Induced(InducedFault),
}

/// A seed-deterministic assignment of faults to corpus positions.
///
/// The same `(seed, rate, fault menu)` triple always produces the same
/// [`FaultPlan::assign`] output, so a chaos campaign replays exactly —
/// the same property the fuzz campaigns have.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Campaign seed.
    pub seed: u64,
    /// Faults per 1000 transactions (1000 = every transaction).
    pub rate_permille: u32,
    /// Corrupted-input kinds to draw from.
    pub input_faults: Vec<InputFault>,
    /// Stages eligible for induced panics (empty disables them).
    pub panic_stages: Vec<Stage>,
    /// Stages eligible for induced delays (empty disables them).
    pub delay_stages: Vec<Stage>,
    /// Induced delay length, microseconds.
    pub delay_micros: u32,
}

/// The pipeline stages the tentpole targets for induced faults
/// (tagging, simplification, pattern matching — the three stages that
/// touch the most adversarial-controlled structure).
const DEFAULT_INDUCED_STAGES: [Stage; 3] = [Stage::Tagging, Stage::Simplify, Stage::Patterns];

impl FaultPlan {
    /// A plan over every fault kind: all five input corruptions plus
    /// induced panics and 50µs delays at tagging/simplify/patterns.
    pub fn new(seed: u64, rate_permille: u32) -> Self {
        FaultPlan {
            seed,
            rate_permille: rate_permille.min(1000),
            input_faults: InputFault::ALL.to_vec(),
            panic_stages: DEFAULT_INDUCED_STAGES.to_vec(),
            delay_stages: DEFAULT_INDUCED_STAGES.to_vec(),
            delay_micros: 50,
        }
    }

    /// A plan drawing only corrupted-input faults.
    pub fn inputs_only(seed: u64, rate_permille: u32) -> Self {
        let mut plan = FaultPlan::new(seed, rate_permille);
        plan.panic_stages.clear();
        plan.delay_stages.clear();
        plan
    }

    /// The flattened fault menu this plan draws from, in stable order.
    pub fn menu(&self) -> Vec<PlannedFault> {
        let mut menu: Vec<PlannedFault> =
            self.input_faults.iter().map(|&f| PlannedFault::Input(f)).collect();
        menu.extend(
            self.panic_stages
                .iter()
                .map(|&stage| PlannedFault::Induced(InducedFault::Panic { stage })),
        );
        if self.delay_micros > 0 {
            menu.extend(self.delay_stages.iter().map(|&stage| {
                PlannedFault::Induced(InducedFault::Delay {
                    stage,
                    micros: self.delay_micros,
                })
            }));
        }
        menu
    }

    /// Deterministically assigns faults to the positions of a
    /// `corpus_len`-transaction batch. Each position independently
    /// draws "faulted?" at `rate_permille`, then a fault uniformly
    /// from [`FaultPlan::menu`].
    pub fn assign(&self, corpus_len: usize) -> Vec<Option<PlannedFault>> {
        let menu = self.menu();
        let mut rng = FuzzRng::new(self.seed);
        (0..corpus_len)
            .map(|_| {
                // Always consume the same number of draws per position
                // so assignments at different rates stay aligned.
                let roll = rng.below(1000) as u32;
                let pick = rng.below(menu.len().max(1));
                if roll < self.rate_permille && !menu.is_empty() {
                    Some(menu[pick])
                } else {
                    None
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Induced-fault injector (an Observer)
// ---------------------------------------------------------------------------

/// An [`Observer`] that lands planned [`InducedFault`]s at exact
/// pipeline-stage boundaries, through [`Observer::stage_boundary`]. It
/// neither meters nor traces; pair it with a sink or recorder —
/// `(injector, sink)` — to instrument the same scan.
///
/// The injector keys faults by [`TxId`], so it works identically under
/// serial and chunked parallel scans regardless of which worker
/// picks the transaction up: every worker's front is the injector itself,
/// so a fault fires once per transaction across workers (see
/// [`FaultInjector::panics_fired`]), and a retried analysis therefore
/// completes, modelling a transient fault.
#[derive(Debug)]
pub struct FaultInjector {
    by_tx: HashMap<TxId, InducedFault>,
    /// Faults fire once per transaction: the first crossing of the
    /// target stage trips the fault, the retry passes. This is what
    /// makes induced faults *transient* — under a retry-once policy
    /// every planned transaction still gets a real verdict.
    fired: Mutex<HashSet<TxId>>,
    panics_fired: AtomicU64,
    delays_fired: AtomicU64,
}

impl FaultInjector {
    /// Plans `faults` as `(transaction, fault)` pairs (typically derived
    /// from [`FaultPlan::assign`]).
    pub fn new(faults: impl IntoIterator<Item = (TxId, InducedFault)>) -> Self {
        FaultInjector {
            by_tx: faults.into_iter().collect(),
            fired: Mutex::new(HashSet::new()),
            panics_fired: AtomicU64::new(0),
            delays_fired: AtomicU64::new(0),
        }
    }

    /// Panics fired so far.
    pub fn panics_fired(&self) -> u64 {
        self.panics_fired.load(Ordering::Relaxed)
    }

    /// Delays fired so far.
    pub fn delays_fired(&self) -> u64 {
        self.delays_fired.load(Ordering::Relaxed)
    }

    /// Transactions whose planned fault has fired.
    pub fn fired(&self) -> Vec<TxId> {
        let mut fired: Vec<TxId> = self.fired.lock().iter().copied().collect();
        fired.sort_unstable();
        fired
    }
}

impl Observer for FaultInjector {
    const METERED: bool = false;
    const TRACED: bool = false;

    type Front<'a> = &'a FaultInjector;

    fn front(&self) -> &FaultInjector {
        self
    }

    fn stage_boundary(&self, tx: TxId, stage: Stage) {
        let Some(&fault) = self.by_tx.get(&tx) else {
            return;
        };
        if fault.stage() != stage || !self.fired.lock().insert(tx) {
            return;
        }
        match fault {
            InducedFault::Panic { stage } => {
                self.panics_fired.fetch_add(1, Ordering::Relaxed);
                panic!("{INDUCED_PANIC_PREFIX}{}", stage.name());
            }
            InducedFault::Delay { micros, .. } => {
                self.delays_fired.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_micros(u64::from(micros)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::STAGES;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn plans_are_seed_deterministic() {
        let plan = FaultPlan::new(7, 250);
        let a = plan.assign(200);
        let b = plan.assign(200);
        assert_eq!(a, b);
        let c = FaultPlan::new(8, 250).assign(200);
        assert_ne!(a, c, "different seeds must differ somewhere");
        let faulted = a.iter().flatten().count();
        // 25% of 200 ± generous slack.
        assert!((20..=80).contains(&faulted), "faulted = {faulted}");
    }

    #[test]
    fn zero_rate_assigns_nothing_and_full_rate_everything() {
        assert!(FaultPlan::new(1, 0).assign(64).iter().all(Option::is_none));
        assert!(FaultPlan::new(1, 1000).assign(64).iter().all(Option::is_some));
    }

    #[test]
    fn menu_respects_disabled_families() {
        let plan = FaultPlan::inputs_only(1, 100);
        assert!(plan
            .menu()
            .iter()
            .all(|f| matches!(f, PlannedFault::Input(_))));
        let mut none = FaultPlan::new(1, 1000);
        none.input_faults.clear();
        none.panic_stages.clear();
        none.delay_stages.clear();
        assert!(none.menu().is_empty());
        assert!(none.assign(16).iter().all(Option::is_none));
    }

    #[test]
    fn injector_fires_each_fault_exactly_once() {
        let injector =
            FaultInjector::new([(TxId(5), InducedFault::Panic { stage: Stage::Tagging })]);
        // Wrong transaction, wrong stage: nothing fires.
        injector.stage_boundary(TxId(4), Stage::Tagging);
        injector.stage_boundary(TxId(5), Stage::Patterns);
        assert_eq!(injector.panics_fired(), 0);

        let hit = catch_unwind(AssertUnwindSafe(|| {
            injector.stage_boundary(TxId(5), Stage::Tagging);
        }));
        let payload = hit.expect_err("planned panic fires");
        let message = payload_message(payload.as_ref());
        assert_eq!(message, format!("{INDUCED_PANIC_PREFIX}tagging"));
        assert_eq!(stage_of_payload(&message), Some(Stage::Tagging));
        assert_eq!(injector.panics_fired(), 1);
        assert_eq!(injector.fired(), vec![TxId(5)]);

        // Second crossing (the retry): passes.
        injector.stage_boundary(TxId(5), Stage::Tagging);
        assert_eq!(injector.panics_fired(), 1);
    }

    #[test]
    fn injector_delay_does_not_panic() {
        let delay = InducedFault::Delay { stage: Stage::Simplify, micros: 1 };
        let injector = FaultInjector::new([(TxId(1), delay)]);
        injector.stage_boundary(TxId(1), Stage::Simplify);
        assert_eq!(injector.delays_fired(), 1);
        assert_eq!(injector.panics_fired(), 0);
    }

    #[test]
    fn fronts_share_firing_state() {
        let delay = InducedFault::Delay { stage: Stage::Trades, micros: 1 };
        let injector = FaultInjector::new([(TxId(2), delay)]);
        injector.front().stage_boundary(TxId(2), Stage::Trades);
        injector.front().stage_boundary(TxId(2), Stage::Trades); // already fired
        assert_eq!(injector.delays_fired(), 1);
    }

    #[test]
    fn quarantine_reasons_are_machine_readable() {
        let invalid = Quarantine {
            tx: TxId(1),
            index: 0,
            fault: Fault::InvalidInput {
                violations: vec![
                    RecordViolation::SeqGap { missing: 3 },
                    RecordViolation::AmountOverflow { seq: 1 },
                ],
            },
            stage: None,
            attempts: 0,
        };
        assert_eq!(invalid.reason(), "invalid_input:seq_gap+amount_overflow");
        assert_eq!(invalid.fault.code(), "invalid_input");

        let panicked = Quarantine {
            tx: TxId(2),
            index: 1,
            fault: Fault::Panic { message: "boom".into() },
            stage: Some(Stage::Simplify),
            attempts: 2,
        };
        assert_eq!(panicked.reason(), "panic@simplify");
        let unattributed = Quarantine { stage: None, ..panicked };
        assert_eq!(unattributed.reason(), "panic");
    }

    #[test]
    fn every_stage_is_a_valid_induced_target() {
        for &stage in &STAGES {
            let fault = InducedFault::Panic { stage };
            assert_eq!(fault.stage(), stage);
        }
    }
}
