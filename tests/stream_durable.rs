//! Durable streaming end-to-end: the write-ahead verdict journal under
//! [`StreamService::run_durable`] / [`StreamService::resume`] against
//! real corpora.
//!
//! Four contracts:
//!
//! * **batch ≡ durable stream** — a durable run over the 22 known
//!   attacks (with chaos-corrupted records mixed in, so quarantines
//!   flow through the journal too) produces verdicts byte-identical to
//!   the batch scan, and the journal's records are exactly their
//!   digests;
//! * **exactly-once across process death** — for every armed I/O fault,
//!   crash → reopen → resume re-emits nothing already durable and loses
//!   nothing, converging the journal back to the fault-free ground
//!   truth (the bit-flip's at-least-once re-emission being the one
//!   documented exception), as graded by the `recover` campaign's own
//!   oracle, [`leishen_scenarios::crash::run_case`];
//! * **quarantines survive restart, reported once** — a quarantine
//!   journaled before the crash is not re-reported by the resumed run;
//! * **resume refuses drift** — a mismatched detector fingerprint or a
//!   diverging block replay is rejected instead of silently corrupting
//!   the exactly-once ledger.

mod common;

use ethsim::TxRecord;
use leishen::resilience::{IoFault, IoFaultPlan, Verdict};
use leishen::store::{
    ArmedIoFault, FsyncPolicy, JournalConfig, LogConfig, MemMedia, StoreError, VerdictJournal,
    VerdictRecord,
};
use leishen::stream::{Block, StreamConfig, StreamService};
use leishen::{DetectorConfig, InputFault, LeiShen, ResilienceConfig, ScanEngine, TagCache};
use leishen_scenarios::chaos::{corrupt, corrupt_every_fourth};
use leishen_scenarios::crash::{clean_truth, run_case};
use leishen_scenarios::ArrivalCurve;

const BLOCK_TXS: usize = 5;

fn journal_config() -> JournalConfig {
    JournalConfig {
        log: LogConfig { segment_bytes: 2048, fsync: FsyncPolicy::Always },
        checkpoint_interval: 3,
    }
}

/// `records` cut into blocks of [`BLOCK_TXS`].
fn cut(records: &[TxRecord]) -> Vec<Block<'_>> {
    let refs: Vec<&TxRecord> = records.iter().collect();
    ArrivalCurve::steady(BLOCK_TXS).cut(&refs)
}

/// Every verdict that comes out of a durable stream is byte-identical
/// to its batch counterpart, and the journal holds exactly the digests
/// of those verdicts — the durable ledger and the live output cannot
/// drift apart.
#[test]
fn durable_stream_matches_batch_byte_for_byte() {
    let corpus = common::AttackCorpus::build();
    let view = corpus.view();
    // Every fourth record corrupted, so the durable path carries
    // flagged, cleared, AND quarantined verdicts.
    let records = corrupt_every_fourth(&corpus.sorted_records());
    let refs: Vec<&TxRecord> = records.iter().collect();
    let detector = common::paper_detector();
    let policy = ResilienceConfig::new();

    let batch = ScanEngine::new(2).scan_resilient(
        &detector,
        &refs,
        &view,
        &TagCache::new(),
        &policy,
    );

    let service = StreamService::new(2, StreamConfig::default().with_policy(policy));
    let blocks = cut(&records);
    let (report, journal) = service
        .run_durable(
            &detector,
            &view,
            &TagCache::new(),
            MemMedia::new(),
            journal_config(),
            |p| {
                for b in &blocks {
                    assert!(p.submit(b.clone()), "healthy intake accepts every block");
                }
            },
            |_| {},
        )
        .expect("healthy media never crashes the stream");

    assert!(report.crashed.is_none());
    assert_eq!(report.skipped_blocks, 0, "a fresh journal has nothing to skip");
    assert_eq!(report.journal_blocks, blocks.len());
    assert_eq!(report.journal_txs, records.len() as u64);
    assert!(report.stream.quarantined > 0, "corrupted records must quarantine");
    assert!(report.stream.attacks > 0, "the attack corpus must still flag");

    // Live output ≡ batch, byte for byte.
    let streamed: Vec<&Verdict> = report.stream.verdicts().collect();
    assert_eq!(streamed.len(), batch.verdicts.len());
    for (i, (s, b)) in streamed.iter().zip(batch.verdicts.iter()).enumerate() {
        assert_eq!(
            format!("{s:?}"),
            format!("{b:?}"),
            "verdict {i} diverged between durable stream and batch"
        );
    }

    // Journal ≡ digests of the batch verdicts, in corpus order.
    let journaled: Vec<&VerdictRecord> =
        journal.blocks().iter().flat_map(|b| b.verdicts.iter()).collect();
    assert_eq!(journaled.len(), batch.verdicts.len());
    for (i, (rec, v)) in journaled.iter().zip(batch.verdicts.iter()).enumerate() {
        assert_eq!(
            **rec,
            VerdictRecord::from_verdict(v, i as u64),
            "journal record {i} is not the digest of its batch verdict"
        );
    }

    // And the ledger survives a reopen intact.
    let survivors = journal.blocks().to_vec();
    let fp = detector.config().fingerprint();
    let (reopened, recovery) =
        VerdictJournal::open(journal.into_media(), journal_config(), fp)
            .expect("clean journal reopens");
    assert!(!recovery.log.truncated);
    assert_eq!(reopened.blocks(), survivors.as_slice());
}

/// The headline robustness contract, at integration scale: every fault
/// kind × several seeds, each case crashing a live durable stream,
/// reopening the survivor like a fresh process, and resuming the same
/// replay. Exactly-once must hold across the death; the oracle is the
/// `recover` campaign's own.
#[test]
fn crash_reopen_resume_is_exactly_once_for_every_fault() {
    let corpus = common::AttackCorpus::build();
    let view = corpus.view();
    // Every fourth record corrupted, so the durable path carries
    // flagged, cleared, AND quarantined verdicts.
    let records = corrupt_every_fourth(&corpus.sorted_records());
    let blocks = cut(&records);
    let detector = common::paper_detector();
    let service = StreamService::new(2, StreamConfig::default());
    let truth = clean_truth(&service, &detector, &view, &blocks, journal_config());
    assert!(!truth.quarantines.is_empty(), "truth must exercise the quarantine path");

    for fault in IoFault::ALL {
        for seed in 0..4u64 {
            let armed = ArmedIoFault::arm(&IoFaultPlan::new(seed, fault), &truth.totals);
            let case =
                run_case(armed, &service, &detector, &view, &blocks, &truth, journal_config());
            assert!(
                case.recovered(),
                "{}/{seed}: {:#?}",
                fault.name(),
                case.violations
            );
        }
    }
}

/// A quarantine journaled before the crash surfaces exactly once: the
/// resumed run skips its block instead of re-reporting it.
#[test]
fn quarantine_survives_restart_reported_once() {
    let corpus = common::AttackCorpus::build();
    let view = corpus.view();
    // Corrupt ONLY the first record: the single quarantine lives in
    // block 0, the first block journaled — always durable by the time
    // a late fault fires.
    let mut records: Vec<TxRecord> =
        corpus.sorted_records().into_iter().cloned().collect();
    corrupt(&mut records[0], InputFault::ALL[0]);
    let blocks = cut(&records);
    let detector = common::paper_detector();
    let service = StreamService::new(2, StreamConfig::default());
    let truth = clean_truth(&service, &detector, &view, &blocks, journal_config());
    assert_eq!(truth.quarantines.len(), 1);

    // Kill the media late — three quarters through the clean byte
    // timeline — so block 0 is long since durable and emitted.
    let armed = ArmedIoFault { at_byte: truth.totals.bytes * 3 / 4, ..ArmedIoFault::never() };
    let case = run_case(armed, &service, &detector, &view, &blocks, &truth, journal_config());
    assert!(case.recovered(), "{:#?}", case.violations);
    assert!(case.pre.contains(&0), "block 0 must be emitted before the late crash");
    assert!(
        !case.post.contains(&0),
        "the quarantine's block must not be re-emitted after restart"
    );
}

/// A journal written under one detector config refuses a resume under
/// another: silently mixing verdicts from two configs would make the
/// durable ledger unreproducible.
#[test]
fn resume_refuses_a_mismatched_detector_config() {
    let corpus = common::AttackCorpus::build();
    let view = corpus.view();
    let records: Vec<TxRecord> =
        corpus.sorted_records().into_iter().cloned().collect();
    let blocks = cut(&records);
    let service = StreamService::new(2, StreamConfig::default());

    let paper = common::paper_detector();
    let (_, journal) = service
        .run_durable(
            &paper,
            &view,
            &TagCache::new(),
            MemMedia::new(),
            journal_config(),
            |p| {
                for b in &blocks {
                    let _ = p.submit(b.clone());
                }
            },
            |_| {},
        )
        .expect("paper run");
    let media = journal.into_media();

    let weakened = LeiShen::new(DetectorConfig::weakened());
    assert_ne!(
        paper.config().fingerprint(),
        weakened.config().fingerprint(),
        "the two configs must fingerprint differently for this test to bite"
    );
    let err = service
        .run_durable(
            &weakened,
            &view,
            &TagCache::new(),
            media,
            journal_config(),
            |p| {
                let _ = p;
            },
            |_| {},
        )
        .expect_err("a weakened detector must not resume a paper journal");
    assert!(
        matches!(err, StoreError::ConfigMismatch { .. }),
        "expected ConfigMismatch, got {err:?}"
    );
}

/// A resume whose replay diverges from the journaled prefix is refused:
/// the scanner reports `ResumeMismatch` and journals nothing new.
#[test]
fn resume_refuses_a_diverging_replay() {
    let corpus = common::AttackCorpus::build();
    let view = corpus.view();
    let records: Vec<TxRecord> =
        corpus.sorted_records().into_iter().cloned().collect();
    let blocks = cut(&records);
    let detector = common::paper_detector();
    let service = StreamService::new(2, StreamConfig::default());
    let truth = {
        let (_, journal) = service
            .run_durable(
                &detector,
                &view,
                &TagCache::new(),
                MemMedia::new(),
                journal_config(),
                |p| {
                    for b in &blocks {
                        let _ = p.submit(b.clone());
                    }
                },
                |_| {},
            )
            .expect("clean run");
        journal
    };
    let truth_blocks = truth.blocks().to_vec();

    // Replay with a different cut: block 0 now holds 3 txs, not 5.
    let refs: Vec<&TxRecord> = records.iter().collect();
    let diverging = ArrivalCurve::steady(3).cut(&refs);
    let (journal, _) = VerdictJournal::open(
        truth.into_media(),
        journal_config(),
        detector.config().fingerprint(),
    )
    .expect("reopen");
    let (report, journal) = service.resume(
        &detector,
        &view,
        &TagCache::new(),
        journal,
        |p| {
            for b in &diverging {
                let _ = p.submit(b.clone());
            }
        },
        |_| {},
    );
    let crashed = report.crashed.expect("diverging replay must be refused");
    assert_eq!(crashed.code(), "resume_mismatch");
    assert_eq!(
        journal.blocks(),
        truth_blocks.as_slice(),
        "a refused resume must leave the journal untouched"
    );
}
