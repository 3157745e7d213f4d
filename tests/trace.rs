//! Integration: decision-provenance tracing end to end (the flight
//! recorder over the Table I corpus).
//!
//! * A traced 4-worker scan returns *identical* analyses to a serial
//!   untraced reference — tracing observes, never perturbs.
//! * Every flagged trace is pinned, names at least one matched pattern in
//!   its reason chain, and every cleared trace explains the miss.
//! * The JSONL export is the exact inverse of `parse_jsonl`, and the
//!   Chrome trace parses as JSON.
//! * The Harvest Finance trace (events + decision, timing-sanitized)
//!   matches a golden snapshot in `tests/golden_trace/`; regenerate with
//!   `UPDATE_GOLDEN=1 cargo test --test trace`.

use leishen::trace::export::{export_chrome_trace, export_json, export_jsonl, parse_jsonl};
use leishen::trace::json;
use leishen::{FlightRecorder, ScanEngine, TagCache};
use leishen_scenarios::ExecutedAttack;

mod common;
use common::{sanitized, AttackCorpus};

fn traced_corpus() -> (Vec<ExecutedAttack>, FlightRecorder, Vec<leishen::Analysis>, Vec<leishen::Analysis>) {
    let corpus = AttackCorpus::build();
    let view = corpus.view();
    let detector = common::paper_detector();
    let records = corpus.sorted_records();

    let recorder = FlightRecorder::with_capacity(64);
    let cache = TagCache::new();
    let engine = ScanEngine::new(4).allow_oversubscription();
    let traced = engine.scan_traced(&detector, &records, &view, &cache, &recorder);
    let reference: Vec<_> = records.iter().map(|r| detector.analyze(r, &view)).collect();
    (corpus.attacks, recorder, traced, reference)
}

#[test]
fn traced_parallel_scan_is_identity_preserving() {
    let (attacks, recorder, traced, reference) = traced_corpus();
    assert_eq!(traced, reference, "tracing must not perturb analyses");
    assert_eq!(recorder.recorded(), attacks.len() as u64);

    let expected_flagged = attacks.iter().filter(|a| a.spec.expect_leishen).count();
    assert_eq!(recorder.pinned().len(), expected_flagged, "flagged traces pin");
    for trace in recorder.traces() {
        assert!(!trace.decision.reasons.is_empty(), "reason chain never empty");
        if trace.decision.flagged {
            assert!(
                trace.decision.names_pattern(),
                "tx {} flagged without naming a pattern",
                trace.tx
            );
        } else {
            // Cleared traces still explain themselves: either no flash
            // loan, or a flash loan whose patterns all rejected.
            assert!(
                trace
                    .decision
                    .reasons
                    .iter()
                    .any(|r| matches!(r.code(), "no_flash_loan" | "no_pattern" | "reverted")),
                "tx {} cleared without a clearing reason: {:?}",
                trace.tx,
                trace.decision.reasons
            );
        }
    }
}

#[test]
fn corpus_jsonl_and_chrome_exports_are_well_formed() {
    let (_, recorder, _, _) = traced_corpus();
    let traces = recorder.traces();

    let jsonl = export_jsonl(&traces);
    let parsed = parse_jsonl(&jsonl).expect("exported JSONL parses");
    assert_eq!(parsed, traces, "JSONL round trip is lossless");

    let chrome = export_chrome_trace(&traces);
    let doc = json::parse(&chrome).expect("chrome trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(json::Json::as_arr)
        .expect("traceEvents array");
    // One tx slice + one slice per recorded stage, per trace.
    assert!(events.len() >= traces.len() * 2);
    for e in events {
        assert_eq!(e.get("ph").and_then(json::Json::as_str), Some("X"));
    }
}

#[test]
fn harvest_finance_trace_matches_golden_snapshot() {
    let update = common::update_golden();
    let (attacks, recorder, _, _) = traced_corpus();
    let harvest = attacks
        .iter()
        .find(|a| a.spec.name == "Harvest Finance")
        .expect("corpus has Harvest Finance");
    let trace = recorder.find(harvest.tx).expect("trace recorded");
    assert!(trace.decision.flagged, "Harvest Finance is detected");

    // Pretty-print the sanitized single-line export so snapshot diffs are
    // readable line by line.
    let compact = export_json(&sanitized(trace));
    let mut rendered = String::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    for c in compact.chars() {
        if in_str {
            rendered.push(c);
            match c {
                '\\' if !escaped => escaped = true,
                '"' if !escaped => in_str = false,
                _ => escaped = false,
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                rendered.push(c);
            }
            '{' | '[' => {
                depth += 1;
                rendered.push(c);
                rendered.push('\n');
                rendered.push_str(&"  ".repeat(depth));
            }
            '}' | ']' => {
                depth = depth.saturating_sub(1);
                rendered.push('\n');
                rendered.push_str(&"  ".repeat(depth));
                rendered.push(c);
            }
            ',' => {
                rendered.push(c);
                rendered.push('\n');
                rendered.push_str(&"  ".repeat(depth));
            }
            _ => rendered.push(c),
        }
    }
    rendered.push('\n');

    let path = common::tests_dir("golden_trace").join("05_harvest_finance.json");
    if update {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden_trace");
        std::fs::write(&path, &rendered).expect("write trace snapshot");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("snapshot missing; generate with UPDATE_GOLDEN=1 cargo test --test trace");
    assert_eq!(
        golden, rendered,
        "Harvest Finance provenance drifted; if intentional, regenerate with \
         UPDATE_GOLDEN=1 and review the diff"
    );
}

/// Two independently built worlds produce identical sanitized traces —
/// the snapshot above is stable by construction, not by luck.
#[test]
fn sanitized_traces_are_deterministic_across_worlds() {
    let render = || {
        let (_, recorder, _, _) = traced_corpus();
        recorder
            .traces()
            .into_iter()
            .map(|t| export_json(&sanitized(t)))
            .collect::<Vec<_>>()
    };
    assert_eq!(render(), render());
}
