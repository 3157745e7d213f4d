//! The batch≡stream equivalence property — this PR's test headline.
//!
//! For any corpus and any arrival schedule, the streaming service must
//! produce *byte-identical* results to a one-shot batch scan of the
//! concatenated corpus: the same verdicts (Debug-rendered and compared
//! element by element), the same quarantine records at the same
//! stream-relative indices, and the same per-transaction reason chains
//! in the provenance traces. This is the same methodology `sched` used
//! to prove scheduled==serial, lifted one layer up. (Exit-report
//! identity on the pinned 22-attack corpus is covered byte-for-byte by
//! `golden_stream.rs`, whose snapshots embed the rendered exits.)
//!
//! The corpora deliberately include hostile inputs:
//! * chaos-corrupted records (every [`InputFault`] kind), which must
//!   quarantine identically in both modes;
//! * fuzz-mutated histories from every metamorphic [`Operator`], so the
//!   property holds across the mutation family, not just the seed;
//! * every evasion variant the guided `evade` search finds against the
//!   weakened detector — the corpora built specifically to slip past
//!   matchers must not also slip past the equivalence property;
//! * arbitrary seeded arrival curves (steady / bursty / adversarial)
//!   *and* arbitrary proptest-chosen block cuts.
//!
//! A deadline-pressure variant asserts the one allowed divergence:
//! under a tiny per-block budget a verdict may *downgrade* to
//! `Indeterminate(Deadline)`, but a flagged verdict never flips to
//! cleared or vice versa.

use std::time::Duration;

use ethsim::{
    Address, CreationRecord, TokenId, Transfer, TxId, TxRecord, TxStatus, TxTrace,
};
use leishen::evade::{chain_name, evade_search, EvadeConfig};
use leishen::fuzz::Operator;
use leishen::resilience::{Fault, Verdict};
use leishen::stream::{Block, StreamConfig, StreamService};
use leishen::trace::FlightRecorder;
use leishen::{
    ChainView, DetectorConfig, FuzzRng, InputFault, Labels, LeiShen, ResilienceConfig,
    ResilientScan, ScanEngine, StreamReport, TagCache,
};
use leishen_scenarios::chaos::corrupt;
use leishen_scenarios::ArrivalCurve;
use proptest::prelude::*;

mod common;

/// The synthetic corpus family the root proptests use: a seeded
/// creation forest, sparse labels, and two-transfer transactions.
fn synthetic_corpus(
    seed: u64,
    specs: &[(usize, usize, u128, u32)],
) -> (Labels, Vec<CreationRecord>, Vec<TxRecord>) {
    let mut records = Vec::new();
    let mut labels = Labels::new();
    let mut addrs = Vec::new();
    for i in 0..20u64 {
        let a = Address::from_u64(1000 + i);
        addrs.push(a);
        if i > 0 {
            let parent = Address::from_u64(1000 + (seed + i) % i);
            records.push(CreationRecord { creator: parent, created: a, block: 0 });
        }
        if (seed + i).is_multiple_of(5) {
            labels.set(a, format!("App{}", (seed + i) % 3));
        }
    }
    let txs: Vec<TxRecord> = specs
        .iter()
        .enumerate()
        .map(|(i, &(s, r, amount, tok))| TxRecord {
            id: TxId(i as u64 + 1),
            block: i as u64 / 4,
            timestamp: 1_600_000_000 + i as u64,
            from: addrs[s],
            to: addrs[r],
            function: format!("f{i}"),
            status: TxStatus::Success,
            trace: TxTrace {
                transfers: vec![
                    Transfer {
                        seq: 0,
                        sender: addrs[s],
                        receiver: addrs[r],
                        amount,
                        token: TokenId::from_index(tok),
                    },
                    Transfer {
                        seq: 1,
                        sender: addrs[r],
                        receiver: addrs[(s + r) % addrs.len()],
                        amount: amount / 2 + 1,
                        token: TokenId::ETH,
                    },
                ],
                ..TxTrace::default()
            },
        })
        .collect();
    (labels, records, txs)
}

/// Cuts `records` into blocks along `curve`'s partition of the corpus.
fn blocks_along<'a>(records: &[&'a TxRecord], curve: &ArrivalCurve) -> Vec<Block<'a>> {
    curve
        .blocks(records.len())
        .into_iter()
        .enumerate()
        .map(|(i, range)| Block { number: i as u64, txs: records[range].to_vec() })
        .collect()
}

/// Asserts the full identity: verdicts, quarantines, totals, and
/// per-transaction reason chains.
fn assert_equivalent(
    label: &str,
    records: &[&TxRecord],
    batch: &ResilientScan,
    batch_traces: &FlightRecorder,
    stream: &StreamReport,
    stream_traces: &FlightRecorder,
) {
    assert_eq!(stream.transactions, batch.verdicts.len(), "{label}: tx count");
    let streamed: Vec<&Verdict> = stream.verdicts().collect();
    for (i, (s, b)) in streamed.iter().zip(batch.verdicts.iter()).enumerate() {
        assert_eq!(
            format!("{s:?}"),
            format!("{b:?}"),
            "{label}: verdict {i} diverged between stream and batch"
        );
    }
    assert!(
        stream.quarantined_indices().eq(batch.quarantined_indices()),
        "{label}: quarantine sets diverged"
    );
    assert_eq!(stream.attacks, batch.stats.attacks, "{label}: attack totals");
    assert_eq!(
        stream.quarantined, batch.stats.quarantined,
        "{label}: quarantine totals"
    );
    // Reason chains: every transaction either has the same retained
    // provenance decision in both recorders, or is retained in neither
    // (evicted cleared traces evict identically — same ring capacity,
    // same record order).
    for record in records {
        let b = batch_traces.find(record.id).map(|t| format!("{:?}", t.decision));
        let s = stream_traces.find(record.id).map(|t| format!("{:?}", t.decision));
        assert_eq!(
            s, b,
            "{label}: reason chain for tx#{} diverged",
            record.id.0
        );
    }
}

/// Runs batch (traced) and stream (traced) over the same corpus and
/// asserts equivalence. The stream uses its own fresh tag cache — cache
/// state must not be able to change verdicts either.
fn check_roundtrip(label: &str, records: &[&TxRecord], view: &ChainView<'_>, curve: &ArrivalCurve) {
    let detector = LeiShen::new(DetectorConfig::paper());
    let policy = ResilienceConfig::new();

    let batch_traces = FlightRecorder::new();
    let batch = ScanEngine::new(4)
        .with_chunk_size(4)
        .allow_oversubscription()
        .scan_resilient_with(
            &detector,
            records,
            view,
            &TagCache::new(),
            &policy,
            &batch_traces,
        );

    let stream_traces = FlightRecorder::new();
    let service = StreamService::new(
        4,
        StreamConfig::default().with_policy(policy),
    );
    let cache = TagCache::new();
    let blocks = blocks_along(records, curve);
    let stream = service.run(
        &detector,
        view,
        &cache,
        &stream_traces,
        |producer| {
            for block in blocks {
                producer.submit(block);
            }
        },
        |_| {},
    );

    assert_equivalent(label, records, &batch, &batch_traces, &stream, &stream_traces);
}

proptest! {
    /// The headline property: arbitrary corpora (with chaos-corrupted
    /// records mixed in) × arbitrary seeded arrival curves ⇒ the stream
    /// is indistinguishable from the batch scan.
    #[test]
    fn stream_matches_batch(
        seed in 0u64..500,
        specs in prop::collection::vec(
            (0usize..20, 0usize..20, 1u128..1_000_000, 0u32..3),
            1..32
        ),
        curve_kind in 0usize..3,
        curve_seed in 0u64..100,
        corrupt_stride in 2usize..6,
        fault_idx in 0usize..InputFault::ALL.len(),
    ) {
        let (labels, creations, mut txs) = synthetic_corpus(seed, &specs);
        // Chaos-corrupt a stride of records with one of the five input
        // fault kinds; both modes must sideline exactly these.
        let fault = InputFault::ALL[fault_idx];
        for (i, tx) in txs.iter_mut().enumerate() {
            if i % corrupt_stride == 0 {
                corrupt(tx, fault);
            }
        }
        let view = ChainView::new(&labels, &creations, None);
        let records: Vec<&TxRecord> = txs.iter().collect();
        let curve = match curve_kind {
            0 => ArrivalCurve::steady(1 + (curve_seed as usize % 7)),
            1 => ArrivalCurve::bursty(curve_seed, 3),
            _ => {
                let marks: Vec<bool> =
                    (0..records.len()).map(|i| (curve_seed as usize + i).is_multiple_of(4)).collect();
                ArrivalCurve::adversarial(curve_seed, 3, marks)
            }
        };
        let label = format!(
            "seed={seed} curve={}({curve_seed}) fault={} stride={corrupt_stride}",
            curve.name(), fault.name()
        );
        check_roundtrip(&label, &records, &view, &curve);
    }

    /// Deadline pressure is downgrade-only: under a (possibly zero)
    /// per-block budget, every streamed verdict either equals its batch
    /// counterpart byte-for-byte or is an `Indeterminate` carrying
    /// `Fault::Deadline` — a flagged/cleared verdict never flips. This
    /// holds for *any* timing, so the nondeterministic budget race
    /// cannot flake the test.
    #[test]
    fn deadline_pressure_only_downgrades(
        seed in 0u64..200,
        specs in prop::collection::vec(
            (0usize..20, 0usize..20, 1u128..1_000_000, 0u32..3),
            1..24
        ),
        block_size in 1usize..8,
        budget_us in 0u64..200,
    ) {
        let (labels, creations, txs) = synthetic_corpus(seed, &specs);
        let view = ChainView::new(&labels, &creations, None);
        let records: Vec<&TxRecord> = txs.iter().collect();
        let detector = LeiShen::new(DetectorConfig::paper());
        let policy = ResilienceConfig::new();

        let batch = ScanEngine::new(2).scan_resilient(
            &detector, &records, &view, &TagCache::new(), &policy,
        );

        let service = StreamService::new(
            2,
            StreamConfig::default()
                .with_policy(policy)
                .with_block_budget(Duration::from_micros(budget_us)),
        );
        let curve = ArrivalCurve::steady(block_size);
        let stream = service.replay(
            &detector,
            &view,
            blocks_along(&records, &curve),
        );

        prop_assert_eq!(stream.transactions, batch.verdicts.len());
        let streamed: Vec<&Verdict> = stream.verdicts().collect();
        for (i, (s, b)) in streamed.iter().zip(batch.verdicts.iter()).enumerate() {
            match s {
                Verdict::Indeterminate(q) if q.fault == Fault::Deadline => {
                    // The allowed divergence: a late transaction
                    // downgraded, at the right stream index, having
                    // never entered the pipeline.
                    prop_assert_eq!(q.index, i);
                    prop_assert_eq!(q.attempts, 0);
                }
                other => prop_assert_eq!(
                    format!("{other:?}"),
                    format!("{b:?}"),
                    "verdict {} must match batch exactly when not deadline-downgraded", i
                ),
            }
        }
    }
}

/// The metamorphic mutation family: every fuzz operator applied to the
/// real seed corpus (22 attacks + workloads) must stream equivalently.
/// Seeds are explicit in the label so a CI failure reproduces directly.
#[test]
fn every_fuzz_mutant_streams_equivalently() {
    let seeds = common::seed_corpus();
    let mut rng = FuzzRng::new(common::DEFAULT_SEED);
    // The seed case itself first, on a bursty curve.
    {
        let records: Vec<&TxRecord> = seeds.case.txs.iter().collect();
        let view = seeds.case.view();
        let curve = ArrivalCurve::bursty(common::DEFAULT_SEED, 4);
        check_roundtrip("seed-case bursty(42)", &records, &view, &curve);
    }
    // Then one mutant per operator.
    for op in Operator::ALL {
        let Some(mutant) = op.apply(&seeds, &mut rng) else {
            continue;
        };
        let records: Vec<&TxRecord> = mutant.case.txs.iter().collect();
        let view = mutant.case.view();
        let curve = ArrivalCurve::steady(3);
        let label = format!(
            "mutant op={} rng_seed={} steady(3)",
            op.name(),
            common::DEFAULT_SEED
        );
        check_roundtrip(&label, &records, &view, &curve);
    }
}

/// The evasion-mutant family: every variant the guided `evade` search
/// finds against the weakened detector must stream equivalently too. The
/// evasion corpora are adversarially shaped (split repays, injected
/// provider signatures, cross-tx spreads, laundering chains) — exactly
/// the inputs where a batch/stream divergence would be most embarrassing.
#[test]
fn every_evade_mutant_streams_equivalently() {
    let seeds = common::seed_corpus();
    let weakened = LeiShen::new(DetectorConfig::weakened());
    let report = evade_search(&seeds, &weakened, &EvadeConfig::smoke(common::DEFAULT_SEED));
    assert!(
        report.evasions.len() >= 5,
        "the smoke search must supply evasion corpora, found {}",
        report.evasions.len()
    );
    for (i, evasion) in report.evasions.iter().enumerate() {
        let records: Vec<&TxRecord> = evasion.case.txs.iter().collect();
        let view = evasion.case.view();
        let curve = if i % 2 == 0 {
            ArrivalCurve::steady(2 + i % 5)
        } else {
            ArrivalCurve::bursty(i as u64, 4)
        };
        let label = format!(
            "evasion target={} chain={} curve={}",
            evasion.target,
            chain_name(&evasion.chain),
            curve.name()
        );
        check_roundtrip(&label, &records, &view, &curve);
    }
}
