//! Integration: the synthetic wild scan (paper §VI-C, Table V) and the
//! §VI-C aggregator heuristic.
//!
//! Generates the labelled corpus, runs LeiShen over every transaction, and
//! checks the paper's headline numbers hold *by measurement*, not by
//! construction: 180 detections, 142 true attacks, 78.9% precision;
//! KRP 21/0, SBS 68/11, MBS 60/47; MBS precision rising to 80% under the
//! aggregator-initiator heuristic.

use std::collections::HashMap;

use leishen::heuristics::initiated_by_aggregator;
use leishen::patterns::PatternKind;
use leishen::{DetectorConfig, LeiShen, ScanEngine, TagCache};
use leishen_scenarios::generator::AGGREGATOR_APPS;

mod common;
use common::WildCorpus;

/// The shared suite corpus: `WildCorpus::build()` is seed 42 at scale
/// 0.002 (~550 benign txs — enough to exercise the negatives), and
/// every headline assertion stamps `scan.provenance()` into its message
/// so a CI failure reproduces from the log line alone.
fn run_scan() -> WildCorpus {
    WildCorpus::build()
}

#[test]
fn table_v_counts_and_precision() {
    let scan = run_scan();
    let view = scan.view();
    let detector = LeiShen::new(DetectorConfig::paper());

    let mut per_pattern: HashMap<PatternKind, (usize, usize)> = HashMap::new(); // (tp, fp)
    let mut detected = 0usize;
    let mut true_positives = 0usize;
    let mut mismatches = Vec::new();

    for gtx in &scan.corpus {
        let record = scan.record(gtx);
        let analysis = detector.analyze(record, &view);
        let mut kinds: Vec<PatternKind> = analysis.matches.iter().map(|m| m.kind).collect();
        kinds.sort();
        kinds.dedup();

        let mut expected: Vec<PatternKind> = gtx.class.expected_detections().to_vec();
        expected.sort();
        if kinds != expected {
            mismatches.push(format!(
                "{:?}: detected {kinds:?}, expected {expected:?}",
                gtx.class
            ));
            continue;
        }
        if !kinds.is_empty() {
            detected += 1;
            if gtx.class.is_attack() {
                true_positives += 1;
            }
            for kind in kinds {
                let slot = per_pattern.entry(kind).or_insert((0, 0));
                if gtx.class.pattern_is_true(kind) {
                    slot.0 += 1;
                } else {
                    slot.1 += 1;
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} mismatches ({}):\n{}",
        mismatches.len(),
        scan.provenance(),
        mismatches.join("\n")
    );

    // Table V.
    assert_eq!(detected, 180, "180 transactions detected ({})", scan.provenance());
    assert_eq!(true_positives, 142, "142 true attacks ({})", scan.provenance());
    let precision = true_positives as f64 / detected as f64;
    assert!(
        (precision - 0.789).abs() < 0.003,
        "overall precision ≈ 78.9%, got {:.1}%",
        precision * 100.0
    );
    let (krp_tp, krp_fp) = per_pattern[&PatternKind::Krp];
    let (sbs_tp, sbs_fp) = per_pattern[&PatternKind::Sbs];
    let (mbs_tp, mbs_fp) = per_pattern[&PatternKind::Mbs];
    assert_eq!((krp_tp, krp_fp), (21, 0), "KRP 21/21, 100%");
    assert_eq!((sbs_tp, sbs_fp), (68, 11), "SBS 68 TP / 11 FP (86.1%)");
    assert_eq!((mbs_tp, mbs_fp), (60, 47), "MBS 60 TP / 47 FP (56.1%)");
    assert!((sbs_tp as f64 / 79.0 - 0.861).abs() < 0.005);
    assert!((mbs_tp as f64 / 107.0 - 0.561).abs() < 0.005);
}

#[test]
fn aggregator_heuristic_lifts_mbs_precision_to_80() {
    let scan = run_scan();
    let view = scan.view();
    let detector = LeiShen::new(DetectorConfig::paper());

    let mut mbs_tp = 0usize;
    let mut mbs_fp = 0usize;
    for gtx in &scan.corpus {
        let record = scan.record(gtx);
        let analysis = detector.analyze(record, &view);
        if !analysis.matches.iter().any(|m| m.kind == PatternKind::Mbs) {
            continue;
        }
        // Heuristic: drop transactions initiated from yield aggregators.
        if initiated_by_aggregator(record.from, AGGREGATOR_APPS, view.labels(), view.creations())
        {
            continue;
        }
        if gtx.class.pattern_is_true(PatternKind::Mbs) {
            mbs_tp += 1;
        } else {
            mbs_fp += 1;
        }
    }
    assert_eq!(mbs_tp, 60, "heuristic never drops an attacker-initiated MBS ({})", scan.provenance());
    assert_eq!(mbs_fp, 15, "32 aggregator-initiated FPs dropped");
    let precision = mbs_tp as f64 / (mbs_tp + mbs_fp) as f64;
    assert!(
        (precision - 0.80).abs() < 0.005,
        "MBS precision rises to 80%, got {:.1}%",
        precision * 100.0
    );
}

/// The batch engine must be a pure reordering of the serial pipeline:
/// scanning the wild corpus with 4 workers (oversubscribed, so the
/// threaded path runs even on single-core CI machines) yields an
/// `Analysis` list byte-identical — same Debug rendering, element by
/// element — to the plain `analyze` loop.
#[test]
fn parallel_scan_is_byte_identical_to_serial_loop() {
    let scan = run_scan();
    let view = scan.view();
    let detector = LeiShen::new(DetectorConfig::paper());
    let records: Vec<_> = scan
        .corpus
        .iter()
        .map(|gtx| scan.record(gtx))
        .collect();

    let serial: Vec<String> = records
        .iter()
        .map(|record| format!("{:?}", detector.analyze(record, &view)))
        .collect();

    // Small chunks force many work items, so all 4 workers actually
    // interleave instead of one worker draining the queue.
    let engine = ScanEngine::new(4).with_chunk_size(16).allow_oversubscription();
    let cache = TagCache::new();
    let parallel = engine.scan_with_cache(&detector, &records, &view, &cache);

    assert_eq!(parallel.len(), serial.len());
    for (i, (got, want)) in parallel.iter().zip(&serial).enumerate() {
        assert_eq!(&format!("{got:?}"), want, "analysis {i} differs");
    }
    let attacks = parallel.iter().filter(|a| a.is_attack()).count();
    assert_eq!(attacks, 180, "same detection set as Table V ({})", scan.provenance());
    assert!(
        cache.hits() > cache.misses(),
        "corpus scan should mostly hit the shared tag cache ({} hits / {} misses)",
        cache.hits(),
        cache.misses()
    );
}

#[test]
fn flash_loans_identified_on_every_generated_tx() {
    let scan = run_scan();
    for gtx in &scan.corpus {
        let record = scan.record(gtx);
        assert!(
            !leishen::identify_flash_loans(record).is_empty(),
            "{:?}: wild corpus txs are all flash-loan txs ({})",
            gtx.class,
            scan.provenance()
        );
    }
}

#[test]
fn fig8_shape_first_attack_and_yearly_averages() {
    let scan = run_scan();
    let mut monthly: HashMap<i32, usize> = HashMap::new();
    for gtx in scan.corpus.iter().filter(|t| t.class.is_attack() && !t.known) {
        *monthly.entry(gtx.month.0).or_insert(0) += 1;
    }
    let first = monthly.keys().min().copied().expect("some attacks");
    // first unknown attack: June 2020
    assert_eq!(first, 2020 * 12 + 5, "first unknown attack in June 2020");
    let y2020: usize = monthly
        .iter()
        .filter(|(m, _)| **m / 12 == 2020)
        .map(|(_, n)| n)
        .sum();
    let y2021: usize = monthly
        .iter()
        .filter(|(m, _)| **m / 12 == 2021)
        .map(|(_, n)| n)
        .sum();
    assert_eq!(y2020, 46);
    assert_eq!(y2021, 52);
}

/// §VII: relaxing the thresholds detects no additional true attacks in
/// this corpus but promotes the near-miss benign classes to false
/// positives — precision drops, exactly the paper's warning.
#[test]
fn relaxed_thresholds_trade_precision_for_nothing() {
    let scan = run_scan();
    let view = scan.view();
    let strict = LeiShen::new(DetectorConfig::paper());
    let relaxed = LeiShen::new(DetectorConfig::relaxed());

    let mut strict_counts = (0usize, 0usize); // (detected, tp)
    let mut relaxed_counts = (0usize, 0usize);
    for gtx in &scan.corpus {
        let record = scan.record(gtx);
        if strict.analyze(record, &view).is_attack() {
            strict_counts.0 += 1;
            strict_counts.1 += gtx.class.is_attack() as usize;
        }
        if relaxed.analyze(record, &view).is_attack() {
            relaxed_counts.0 += 1;
            relaxed_counts.1 += gtx.class.is_attack() as usize;
        }
    }
    assert!(relaxed_counts.0 > strict_counts.0, "more detections");
    assert_eq!(
        relaxed_counts.1, strict_counts.1,
        "no new true attacks in this corpus"
    );
    let p_strict = strict_counts.1 as f64 / strict_counts.0 as f64;
    let p_relaxed = relaxed_counts.1 as f64 / relaxed_counts.0 as f64;
    assert!(p_relaxed < p_strict, "precision drops: {p_strict} -> {p_relaxed}");
}

#[test]
fn table_vii_profits_are_measured_not_asserted() {
    let scan = run_scan();
    let view = scan.view();
    let detector = LeiShen::new(DetectorConfig::paper());
    let mut measured = Vec::new();
    for gtx in scan.corpus.iter().filter(|t| t.class.is_attack()) {
        let record = scan.record(gtx);
        let report = detector
            .detect(record, &view, Some(&scan.world.prices))
            .expect("attack detected");
        let profit = report.profit_usd.expect("prices supplied");
        // measured profit within 1% (or $5) of the generator's target
        let target = gtx.profit_usd;
        let tol = (target * 0.01).max(5.0);
        assert!(
            (profit - target).abs() <= tol,
            "{:?}: measured ${profit:.0} vs target ${target:.0}",
            gtx.class
        );
        measured.push(profit);
    }
    let min = measured.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = measured.iter().cloned().fold(0.0f64, f64::max);
    assert!((min - 23.0).abs() < 5.0, "paper minimum $23, got {min:.0}");
    assert!(
        (max - 6_102_198.0).abs() / 6_102_198.0 < 0.01,
        "paper maximum $6,102,198, got {max:.0}"
    );
}
