//! Streaming-service integration: backpressure, poisoned blocks, and
//! the drain/shutdown protocol, on the real seed corpus.
//!
//! The unit tests in `leishen::stream` pin the queue mechanics on
//! synthetic data; these tests prove the service-level guarantees the
//! ISSUE names, end to end:
//!
//! * a full queue *blocks* the producer — explicit backpressure, never
//!   a dropped or duplicated transaction;
//! * a poisoned block (corrupted records, induced panics) degrades to
//!   quarantined verdicts without stalling the blocks behind it;
//! * shutdown is a deterministic drain: every in-flight transaction is
//!   emitted exactly once, in submission order.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

use ethsim::{TxId, TxRecord};
use leishen::resilience::{InducedFault, Verdict};
use leishen::stream::{StreamConfig, StreamService};
use leishen::telemetry::Stage;
use leishen::trace::{FlightRecorder, Reason};
use leishen::{
    install_quiet_hook, FaultInjector, ResilienceConfig, TagCache,
};
use leishen::InputFault;
use leishen_scenarios::chaos::corrupt;
use leishen_scenarios::ArrivalCurve;

mod common;

#[test]
fn full_queue_blocks_producer_without_dropping_transactions() {
    let seeds = common::seed_corpus();
    let detector = common::paper_detector();
    let view = seeds.case.view();
    let records: Vec<&TxRecord> = seeds.case.txs.iter().collect();

    // Tiny queues + a slow consumer: the emitter sleeps per block, the
    // emit queue fills, the scanner stalls, the ingest queue fills, and
    // `submit` must block — that stall is the backpressure under test.
    let service = StreamService::new(
        2,
        StreamConfig::default().with_capacity(1, 1),
    );
    let cache = TagCache::new();
    let emitted: Mutex<Vec<TxId>> = Mutex::new(Vec::new());
    let blocks = ArrivalCurve::steady(3).cut(&records);
    let submitted = blocks.len();

    let report = service.run(
        &detector,
        &view,
        &cache,
        &(),
        |producer| {
            for block in blocks {
                assert!(producer.submit(block), "stream must accept every block");
            }
        },
        |block| {
            std::thread::sleep(Duration::from_millis(2));
            let mut emitted = emitted.lock().unwrap();
            for (i, v) in block.verdicts.iter().enumerate() {
                let id = match v {
                    Verdict::Analyzed(_) => records[block.base + i].id,
                    Verdict::Indeterminate(q) => q.tx,
                };
                emitted.push(id);
            }
        },
    );

    // Backpressure was real: the producer had to wait at least once,
    // and the bounded queues never exceeded their capacity.
    assert!(
        report.ingest.producer_waits > 0,
        "a 1-deep ingest queue against a slow consumer must stall the \
         producer (waits={}, submitted {submitted} blocks)",
        report.ingest.producer_waits
    );
    assert!(report.ingest.max_depth <= 1, "bounded means bounded");
    assert!(report.emit.max_depth <= 1, "bounded means bounded");

    // Nothing dropped, nothing duplicated, order preserved.
    let emitted = emitted.into_inner().unwrap();
    let expected: Vec<TxId> = records.iter().map(|r| r.id).collect();
    assert_eq!(emitted, expected);
    assert_eq!(report.transactions, records.len());
    assert_eq!(report.quarantined, 0);
}

#[test]
fn poisoned_block_quarantines_without_stalling_the_stream() {
    install_quiet_hook();
    let seeds = common::seed_corpus();
    let detector = common::paper_detector();
    let view = seeds.case.view();

    // Corrupt every record of one middle block at the ethsim boundary.
    let mut txs = seeds.case.txs.clone();
    let poisoned_block = 2usize;
    let block_size = 4usize;
    let poisoned: Vec<usize> =
        (poisoned_block * block_size..(poisoned_block + 1) * block_size).collect();
    for &i in &poisoned {
        assert!(
            corrupt(&mut txs[i], InputFault::TruncatedJournal),
            "seed tx index {i} must be corruptible"
        );
    }
    let records: Vec<&TxRecord> = txs.iter().collect();

    let service = StreamService::new(2, StreamConfig::default());
    let recorder = FlightRecorder::new();
    let cache = TagCache::new();
    let report = service.run(
        &detector,
        &view,
        &cache,
        &recorder,
        |producer| {
            for block in ArrivalCurve::steady(block_size).cut(&records) {
                producer.submit(block);
            }
        },
        |_| {},
    );

    // The stream survived the poisoned block: every transaction got a
    // verdict, the corrupted ones quarantined with machine-readable
    // reasons and provenance traces, everything else analyzed clean.
    assert_eq!(report.transactions, records.len());
    let quarantined: Vec<usize> = report.quarantined_indices().collect();
    assert_eq!(quarantined, poisoned, "exactly the poisoned block quarantines");
    for q in report.quarantines() {
        assert!(q.reason().starts_with("invalid_input:"), "{}", q.reason());
        let trace = recorder.find(q.tx).expect("quarantine is traced");
        assert!(trace
            .decision
            .reasons
            .iter()
            .any(|r| matches!(r, Reason::Indeterminate { .. })));
    }
    // Blocks after the poisoned one still produced clean analyses.
    let last = report.blocks.last().expect("blocks streamed");
    assert!(last.base > poisoned[poisoned.len() - 1]);
    assert!(last.verdicts.iter().all(|v| !v.is_indeterminate()));
}

#[test]
fn induced_stage_panics_degrade_single_transactions_mid_stream() {
    install_quiet_hook();
    let seeds = common::seed_corpus();
    let detector = common::paper_detector();
    let view = seeds.case.view();
    let records: Vec<&TxRecord> = seeds.case.txs.iter().collect();

    // Panic at the tagging stage of one ground-truth attack; with the
    // retry disabled the panic becomes a quarantine, not a second
    // attempt — the harshest single-tx poisoning the injector can do.
    let target = seeds
        .expect
        .iter()
        .position(|e| e.flagged)
        .expect("corpus has attacks");
    let target_id = records[target].id;
    let injector =
        FaultInjector::new([(target_id, InducedFault::Panic { stage: Stage::Tagging })]);

    let service = StreamService::new(
        2,
        StreamConfig::default()
            .with_policy(ResilienceConfig::new().without_retry()),
    );
    let cache = TagCache::new();
    let report = service.run(
        &detector,
        &view,
        &cache,
        &injector,
        |producer| {
            for block in ArrivalCurve::steady(5).cut(&records) {
                producer.submit(block);
            }
        },
        |_| {},
    );

    assert_eq!(report.transactions, records.len());
    assert_eq!(injector.panics_fired(), 1);
    let quarantined: Vec<usize> = report.quarantined_indices().collect();
    assert_eq!(quarantined, vec![target], "only the injected tx degrades");
    let q = report.quarantines().next().expect("one quarantine");
    assert_eq!(q.tx, target_id);
    assert_eq!(q.reason(), "panic@tagging");
    // Every clean transaction kept its ground-truth verdict.
    for (i, v) in report.verdicts().enumerate() {
        if i == target {
            continue;
        }
        let a = v.analysis().expect("clean txs analyze");
        assert_eq!(a.is_attack(), seeds.expect[i].flagged, "tx index {i}");
    }
}

#[test]
fn drain_on_shutdown_flushes_every_in_flight_tx_exactly_once() {
    let seeds = common::seed_corpus();
    let detector = common::paper_detector();
    let view = seeds.case.view();
    let records: Vec<&TxRecord> = seeds.case.txs.iter().collect();

    // Deep backlog relative to the queues: most blocks are still
    // in-flight (queued or unscanned) when the producer returns, so the
    // drain protocol — not luck — is what flushes them.
    let service = StreamService::new(1, StreamConfig::default().with_capacity(2, 2));
    let cache = TagCache::new();
    let counts: Mutex<HashMap<TxId, usize>> = Mutex::new(HashMap::new());
    let report = service.run(
        &detector,
        &view,
        &cache,
        &(),
        |producer| {
            for block in ArrivalCurve::steady(1).cut(&records) {
                producer.submit(block);
            }
            // Producer returns immediately: shutdown begins with the
            // pipeline still full.
        },
        |block| {
            let mut counts = counts.lock().unwrap();
            for (i, _) in block.verdicts.iter().enumerate() {
                *counts.entry(records[block.base + i].id).or_insert(0) += 1;
            }
        },
    );

    let counts = counts.into_inner().unwrap();
    assert_eq!(counts.len(), records.len(), "every tx emitted");
    for (id, n) in &counts {
        assert_eq!(*n, 1, "tx#{} emitted {n} times", id.0);
    }
    assert_eq!(report.transactions, records.len());
    assert_eq!(report.blocks.len(), records.len(), "one report per block");
    // Emission order is submission order even under drain.
    let bases: Vec<usize> = report.blocks.iter().map(|b| b.base).collect();
    let expected: Vec<usize> = (0..records.len()).collect();
    assert_eq!(bases, expected);
}
