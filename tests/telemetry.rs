//! Telemetry identity tests: instrumentation must observe the pipeline,
//! never perturb it.
//!
//! * a 4-worker metered scan produces byte-identical analyses to the
//!   unmetered scan (the `RecordingSink` is invisible to results),
//! * the counters aggregated across racing workers equal the counters of
//!   a serial reference loop (telemetry is exact, not approximate),
//! * per-stage sample counts are complete for an exact sink and merely
//!   thinned — counters still exact — for a sampled sink.

use leishen::tagging::tag_of;
use leishen::{AnalysisScratch, RecordingSink, ScanEngine, TagCache, STAGES};

mod common;
use common::AttackCorpus;

#[test]
fn metered_scan_is_identical_to_unmetered_scan() {
    let corpus = AttackCorpus::build();
    let view = corpus.view();
    let detector = common::paper_detector();
    let records = corpus.sorted_records();

    let engine = ScanEngine::new(4).allow_oversubscription();

    let plain = engine.scan_with_cache(&detector, &records, &view, &TagCache::new());

    let sink = RecordingSink::new();
    let metered = engine.scan_metered(&detector, &records, &view, &TagCache::new(), &sink);

    assert_eq!(plain, metered, "recording sink must not change any analysis");
    assert_eq!(sink.transactions(), records.len() as u64);
}

#[test]
fn parallel_counters_equal_serial_reference() {
    let corpus = AttackCorpus::build();
    let view = corpus.view();
    let detector = common::paper_detector();
    let records = corpus.sorted_records();

    // Serial reference: one worker, one scratch, the uncached resolver.
    let serial_sink = RecordingSink::new();
    let mut scratch = AnalysisScratch::default();
    for record in &records {
        detector.analyze_observed(
            record,
            &view,
            &mut |addr| tag_of(addr, view.labels(), view.creations()),
            &mut scratch,
            &serial_sink,
        );
    }

    // Racing workers funneling into one shared sink.
    let parallel_sink = RecordingSink::new();
    let engine = ScanEngine::new(4).allow_oversubscription();
    engine.scan_metered(&detector, &records, &view, &TagCache::new(), &parallel_sink);

    // Counter totals are order-independent sums, so the racing merge must
    // reproduce the serial numbers exactly.
    assert_eq!(parallel_sink.counter_totals(), serial_sink.counter_totals());

    // Every stage saw the same number of timed laps: both sinks are
    // exact (sampling 1), so sample counts — unlike the latencies
    // themselves — are deterministic.
    for stage in STAGES {
        assert_eq!(
            parallel_sink.stage_samples(stage).len(),
            serial_sink.stage_samples(stage).len(),
            "sample count mismatch for stage {}",
            stage.name()
        );
    }
}

#[test]
fn sampled_sink_keeps_counters_exact() {
    let corpus = AttackCorpus::build();
    let view = corpus.view();
    let detector = common::paper_detector();
    let records = corpus.sorted_records();
    let engine = ScanEngine::new(4).allow_oversubscription();

    let exact = RecordingSink::new();
    engine.scan_metered(&detector, &records, &view, &TagCache::new(), &exact);

    let sampled = RecordingSink::sampled(4);
    engine.scan_metered(&detector, &records, &view, &TagCache::new(), &sampled);

    // Sampling thins the latency histograms only; the work counters are
    // delivered for every transaction regardless.
    assert_eq!(sampled.counter_totals(), exact.counter_totals());
    assert_eq!(sampled.transactions(), records.len() as u64);
    for stage in STAGES {
        assert!(
            sampled.stage_samples(stage).len() <= exact.stage_samples(stage).len(),
            "sampling must not add laps for stage {}",
            stage.name()
        );
    }
}
