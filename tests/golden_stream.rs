//! Golden streaming replay: the 22-attack corpus fed through the
//! streaming service one block at a time must reproduce the exact
//! `tests/golden/*.json` snapshots the batch suite pins.
//!
//! This inherits the pinned corpus for free: any divergence between the
//! streamed pipeline and the batch pipeline — a dropped transaction, a
//! shifted verdict, a reordered emission — shows up as a snapshot
//! mismatch naming the attack, rendered by the *same* renderer
//! (`tests/common/snapshot.rs`) the batch goldens use.

use std::collections::HashMap;

use ethsim::TxId;
use leishen::resilience::Verdict;
use leishen::stream::{StreamConfig, StreamService};
use leishen::Analysis;
use leishen_scenarios::ArrivalCurve;

mod common;
use common::snapshot::{exits_for, file_name, render};
use common::AttackCorpus;

/// Streams the sorted attack corpus one block per attack transaction
/// and returns each transaction's completed analysis keyed by id.
fn stream_corpus(corpus: &AttackCorpus) -> HashMap<TxId, Analysis> {
    let view = corpus.view();
    let detector = common::paper_detector();
    let records = corpus.sorted_records();

    let service = StreamService::new(4, StreamConfig::default());
    let report = service.replay(&detector, &view, ArrivalCurve::steady(1).cut(&records));

    assert_eq!(
        report.transactions,
        records.len(),
        "every attack must be emitted exactly once"
    );
    assert_eq!(
        report.quarantined, 0,
        "the genuine corpus must never quarantine"
    );

    records
        .iter()
        .zip(report.blocks.iter())
        .map(|(record, block)| {
            assert_eq!(block.verdicts.len(), 1, "one tx per block");
            match &block.verdicts[0] {
                Verdict::Analyzed(a) => (record.id, a.clone()),
                Verdict::Indeterminate(q) => {
                    panic!("tx#{} quarantined in stream: {}", q.tx.0, q.reason())
                }
            }
        })
        .collect()
}

#[test]
fn streamed_corpus_matches_golden_snapshots() {
    let corpus = AttackCorpus::build();
    let view = corpus.view();
    let detector = common::paper_detector();
    let dir = common::tests_dir("golden");

    let streamed = stream_corpus(&corpus);

    let mut failures = Vec::new();
    for attack in &corpus.attacks {
        let record = corpus.record(attack);
        let analysis = streamed
            .get(&record.id)
            .expect("streamed analysis for every attack");
        // Exits route through the report builder exactly as the batch
        // golden suite does, so the rendered bytes are comparable.
        let exits = exits_for(&corpus.world, attack, &view);
        let exits = match detector.detect(record, &view, None) {
            Some(report) => report.with_exits(exits).exits,
            None => exits,
        };
        let rendered = render(&corpus.world, attack, analysis, &exits);
        let file = file_name(attack);
        match std::fs::read_to_string(dir.join(&file)) {
            Ok(golden) if golden == rendered => {}
            Ok(golden) => {
                let line = golden
                    .lines()
                    .zip(rendered.lines())
                    .position(|(a, b)| a != b)
                    .map(|i| i + 1)
                    .unwrap_or_else(|| golden.lines().count().min(rendered.lines().count()) + 1);
                failures.push(format!(
                    "{file}: streamed analysis drifted from the batch golden \
                     (first difference at line {line})"
                ));
            }
            Err(e) => failures.push(format!(
                "{file}: cannot read snapshot ({e}); generate with \
                 UPDATE_GOLDEN=1 cargo test --test golden_attacks"
            )),
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// The block cut must not matter: one-tx-per-block and
/// whole-corpus-in-one-block streams produce identical analyses.
#[test]
fn block_granularity_does_not_change_streamed_analyses() {
    let corpus = AttackCorpus::build();
    let view = corpus.view();
    let detector = common::paper_detector();
    let records = corpus.sorted_records();

    let service = StreamService::new(4, StreamConfig::default());
    let fine = service.replay(&detector, &view, ArrivalCurve::steady(1).cut(&records));
    let coarse =
        service.replay(&detector, &view, ArrivalCurve::steady(records.len()).cut(&records));

    let dump = |report: &leishen::StreamReport| -> Vec<String> {
        report.verdicts().map(|v| format!("{v:?}")).collect()
    };
    assert_eq!(dump(&fine), dump(&coarse));
    assert_eq!(fine.attacks, corpus.expected_flagged());
    assert_eq!(coarse.attacks, corpus.expected_flagged());
}
