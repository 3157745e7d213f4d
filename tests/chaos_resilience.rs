//! Cross-crate resilience integration: the full 22-attack corpus under
//! fault injection.
//!
//! The unit tests in `leishen::resilience` and `leishen::scan` prove the
//! quarantine machinery on synthetic worlds; these tests prove the
//! properties the chaos bench gates on, against the *real* seed corpus:
//!
//! * genuine `ethsim` histories always validate clean — the fault
//!   injector's ground-truth invariant list has no false positives;
//! * the resilient scan is verdict-identical to the legacy scan on clean
//!   input, in every pipeline configuration;
//! * a mixed campaign (corrupted inputs + induced stage panics) never
//!   loses a transaction: corrupted records quarantine with
//!   machine-readable reasons, clean records keep their ground-truth
//!   verdicts — recall on uncorrupted attacks stays 100%;
//! * a worker panic in the legacy (non-resilient) scan propagates as a
//!   catchable panic on the caller, not a process abort;
//! * a composed observer delivers every hook to every member exactly
//!   once: injecting, metering and tracing one scan equals three scans
//!   that each observe one way.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ethsim::{validate_record, TxId, TxRecord};
use leishen::resilience::{
    FaultInjector, FaultPlan, InducedFault, InputFault, PlannedFault, Verdict,
};
use leishen::telemetry::{Observer, RecordingSink, Stage, STAGES};
use leishen::trace::{FlightRecorder, Reason, TxProvenance};
use leishen::{
    install_quiet_hook, ChainView, LeiShen, ResilienceConfig, ResilientScan, ScanEngine, SeedCase,
    TagCache,
};
use leishen_scenarios::chaos::apply_input_faults;

mod common;
use common::{engines, paper_detector, seed_corpus};

#[test]
fn genuine_corpus_has_zero_validator_violations() {
    let seeds = seed_corpus();
    for tx in &seeds.case.txs {
        let violations = validate_record(tx);
        assert!(
            violations.is_empty(),
            "tx#{} fails validation: {violations:?}",
            tx.id.0
        );
    }
}

#[test]
fn resilient_scan_is_verdict_identical_to_legacy_on_clean_corpus() {
    let seeds = seed_corpus();
    let refs: Vec<&TxRecord> = seeds.case.txs.iter().collect();
    let view = seeds.case.view();
    let detector = paper_detector();
    let policy = ResilienceConfig::new();

    for engine in engines() {
        let legacy = engine.scan(&detector, &refs, &view);
        let resilient =
            engine.scan_resilient(&detector, &refs, &view, &TagCache::new(), &policy);
        assert!(resilient.is_fully_analyzed());
        assert_eq!(resilient.stats.quarantined, 0);
        let analyses: Vec<_> = resilient.analyses().collect();
        assert_eq!(analyses.len(), legacy.len());
        for (i, (got, want)) in analyses.iter().zip(&legacy).enumerate() {
            assert_eq!(*got, want, "verdict diverged at index {i}");
        }
    }
}

/// The seed corpus under the 10% chaos plan at the shared suite seed — the
/// acceptance point the bench gates on: the corrupted records, which
/// input fault each position took, and the induced stage faults.
fn chaos_corpus(seeds: &SeedCase) -> ChaosCorpus {
    let plan = FaultPlan::new(common::DEFAULT_SEED, 100);
    let assignment = plan.assign(seeds.case.txs.len());
    let mut txs = seeds.case.txs.clone();
    let applied = apply_input_faults(&mut txs, &assignment);
    let induced = assignment
        .iter()
        .zip(&txs)
        .filter_map(|(slot, tx)| match slot {
            Some(PlannedFault::Induced(f)) => Some((tx.id, *f)),
            _ => None,
        })
        .collect();
    ChaosCorpus { txs, applied, induced }
}

struct ChaosCorpus {
    txs: Vec<TxRecord>,
    applied: Vec<Option<InputFault>>,
    induced: Vec<(TxId, InducedFault)>,
}

#[test]
fn chaos_campaign_quarantines_corruption_and_keeps_recall() {
    install_quiet_hook();
    let seeds = seed_corpus();
    let detector = paper_detector();

    // The seed appears in every failure message so a CI log line
    // reproduces the exact fault assignment.
    let chaos_seed = common::DEFAULT_SEED;
    let ChaosCorpus { txs, applied, induced } = chaos_corpus(&seeds);
    assert!(
        applied.iter().any(Option::is_some),
        "a 10% plan (seed={chaos_seed}) over {} txs should corrupt at least one record",
        txs.len()
    );

    let refs: Vec<&TxRecord> = txs.iter().collect();
    let view = seeds.case.view();
    for engine in engines() {
        let injector = FaultInjector::new(induced.iter().copied());
        let sink = RecordingSink::new();
        let recorder = FlightRecorder::new();
        let scan = engine.scan_resilient_with(
            &detector,
            &refs,
            &view,
            &TagCache::new(),
            &ResilienceConfig::new(),
            &(&injector, (&sink, &recorder)),
        );

        // Survival: one verdict per input, always.
        assert_eq!(scan.verdicts.len(), txs.len());

        for (i, verdict) in scan.verdicts.iter().enumerate() {
            match (verdict, applied[i]) {
                (Verdict::Indeterminate(q), Some(_)) => {
                    // Containment: machine-readable reason + provenance.
                    assert!(
                        q.reason().starts_with("invalid_input:"),
                        "tx#{}: {}",
                        q.tx.0,
                        q.reason()
                    );
                    let trace = recorder.find(q.tx).expect("quarantine is traced");
                    assert!(trace
                        .decision
                        .reasons
                        .iter()
                        .any(|r| matches!(r, Reason::Indeterminate { .. })));
                }
                (Verdict::Indeterminate(q), None) => {
                    panic!("uncorrupted tx#{} quarantined under seed={chaos_seed}: {}", q.tx.0, q.reason())
                }
                (Verdict::Analyzed(_), Some(kind)) => {
                    panic!("corrupted tx index {i} ({}) escaped quarantine (seed={chaos_seed})", kind.name())
                }
                (Verdict::Analyzed(a), None) => {
                    // Recall under fire: ground truth exactly preserved.
                    assert_eq!(
                        a.is_attack(),
                        seeds.expect[i].flagged,
                        "clean tx index {i} verdict changed under faults (seed={chaos_seed})"
                    );
                }
            }
        }

        // Telemetry agrees with the verdict stream.
        let quarantined = scan.verdicts.iter().filter(|v| v.is_indeterminate()).count();
        assert_eq!(scan.stats.quarantined, quarantined);
        assert_eq!(sink.counter_totals().quarantined, quarantined as u64);
    }
}

#[test]
fn legacy_scan_worker_panic_is_catchable_not_fatal() {
    install_quiet_hook();
    let seeds = seed_corpus();
    let refs: Vec<&TxRecord> = seeds.case.txs.iter().collect();
    let view = seeds.case.view();
    let detector = paper_detector();
    // Target a ground-truth attack: it definitely reaches the tagging
    // stage, so the induced panic definitely fires.
    let target = seeds
        .expect
        .iter()
        .position(|e| e.flagged)
        .expect("corpus has attacks");
    let target_id = seeds.case.txs[target].id;

    for engine in engines() {
        let injector =
            FaultInjector::new([(target_id, InducedFault::Panic { stage: Stage::Tagging })]);
        let cache = TagCache::new();
        let result = catch_unwind(AssertUnwindSafe(|| {
            engine.scan_observed(&detector, &refs, &view, &cache, &injector)
        }));
        assert!(result.is_err(), "the injected panic must propagate");
        assert_eq!(injector.panics_fired(), 1);
    }
}

/// Worker assignment and span timings vary run to run; the content of a
/// trace does not (the sanitizing of `tests/trace.rs`).
fn sanitized(mut trace: TxProvenance) -> TxProvenance {
    trace.worker = 0;
    for span in &mut trace.spans {
        span.start_ns = 0;
        span.end_ns = 0;
    }
    trace
}

/// One 4-worker oversubscribed resilient scan of `refs` under the default
/// policy, reporting to `observer`.
fn resilient<O: Observer + Sync>(
    engine: &ScanEngine,
    detector: &LeiShen,
    refs: &[&TxRecord],
    view: &ChainView<'_>,
    observer: &O,
) -> ResilientScan {
    let policy = ResilienceConfig::new();
    engine.scan_resilient_with(detector, refs, view, &TagCache::new(), &policy, observer)
}

#[test]
fn composed_observer_equals_its_members_observing_alone() {
    install_quiet_hook();
    let seeds = seed_corpus();
    let detector = paper_detector();
    let chaos = chaos_corpus(&seeds);
    let refs: Vec<&TxRecord> = chaos.txs.iter().collect();
    let view = seeds.case.view();
    let engine = ScanEngine::new(4).allow_oversubscription();
    // A ring that holds every trace, so no eviction order can differ.
    let recorder = || FlightRecorder::with_capacity(refs.len());

    let composed = (
        FaultInjector::new(chaos.induced.iter().copied()),
        (RecordingSink::new(), recorder()),
    );
    let together = resilient(&engine, &detector, &refs, &view, &composed);
    let (injected, (metered, traced)) = &composed;

    let injector = FaultInjector::new(chaos.induced.iter().copied());
    let sink = RecordingSink::new();
    let traces = recorder();
    for (member, alone) in [
        ("injector", resilient(&engine, &detector, &refs, &view, &injector)),
        ("sink", resilient(&engine, &detector, &refs, &view, &sink)),
        ("recorder", resilient(&engine, &detector, &refs, &view, &traces)),
    ] {
        assert_eq!(alone.verdicts, together.verdicts, "{member} alone changed a verdict");
    }
    assert!(injector.panics_fired() > 0 && injector.delays_fired() > 0);
    assert_eq!(
        (injected.panics_fired(), injected.delays_fired()),
        (injector.panics_fired(), injector.delays_fired())
    );
    assert_eq!(metered.counter_totals(), sink.counter_totals());
    assert!(metered.counter_totals().quarantined > 0);
    for stage in STAGES {
        assert_eq!(
            metered.stage_samples(stage).len(),
            sink.stage_samples(stage).len(),
            "stage {stage}"
        );
    }
    assert_eq!(traced.recorded(), traces.recorded());
    assert_eq!(traced.recorded(), refs.len() as u64, "one trace per transaction");
    let content = |r: &FlightRecorder| -> Vec<TxProvenance> {
        r.traces().into_iter().map(sanitized).collect()
    };
    assert_eq!(content(traced), content(&traces));
}
