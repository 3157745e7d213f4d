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

use ethsim::{validate_record, TxRecord};
use leishen::resilience::{FaultInjector, InducedFault};
use leishen::telemetry::{Observer, RecordingSink, Stage, STAGES};
use leishen::trace::{FlightRecorder, TxProvenance};
use leishen::{
    install_quiet_hook, ChainView, LeiShen, ResilienceConfig, ResilientScan, ScanEngine, TagCache,
};
use leishen_scenarios::chaos::{grade, ChaosCorpus};

mod common;
use common::{engines, paper_detector, sanitized, seed_corpus};

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

/// The chaos plan's rate, 10%, at the shared suite seed: the acceptance
/// point the bench gates on.
const CHAOS_RATE_PERMILLE: u32 = 100;

#[test]
fn chaos_campaign_quarantines_corruption_and_keeps_recall() {
    install_quiet_hook();
    let seeds = seed_corpus();
    let detector = paper_detector();

    // The seed appears in every failure message so a CI log line
    // reproduces the exact fault assignment.
    let chaos_seed = common::DEFAULT_SEED;
    let chaos = ChaosCorpus::new(&seeds.case, chaos_seed, CHAOS_RATE_PERMILLE);
    assert!(
        chaos.corrupted() > 0,
        "a 10% plan (seed={chaos_seed}) over {} txs should corrupt at least one record",
        chaos.txs.len()
    );

    let refs: Vec<&TxRecord> = chaos.txs.iter().collect();
    let view = seeds.case.view();
    for engine in engines() {
        let sink = RecordingSink::new();
        let recorder = FlightRecorder::new();
        let scan = engine.scan_resilient_with(
            &detector,
            &refs,
            &view,
            &TagCache::new(),
            &ResilienceConfig::new(),
            &(&chaos.injector(), (&sink, &recorder)),
        );
        let metered = Some(sink.counter_totals().quarantined);
        let g = grade(&scan.verdicts, &chaos, &seeds.expect, Some(&recorder), metered);
        assert!(g.violations.is_empty(), "seed={chaos_seed}: {:#?}", g.violations);
        assert_eq!(scan.stats.quarantined, g.quarantined, "seed={chaos_seed}");
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
    let chaos = ChaosCorpus::new(&seeds.case, common::DEFAULT_SEED, CHAOS_RATE_PERMILLE);
    let refs: Vec<&TxRecord> = chaos.txs.iter().collect();
    let view = seeds.case.view();
    let engine = ScanEngine::new(4).allow_oversubscription();
    // A ring that holds every trace, so no eviction order can differ.
    let recorder = || FlightRecorder::with_capacity(refs.len());

    let composed = (chaos.injector(), (RecordingSink::new(), recorder()));
    let together = resilient(&engine, &detector, &refs, &view, &composed);
    let (injected, (metered, traced)) = &composed;

    let injector = chaos.injector();
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
