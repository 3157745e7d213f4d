//! Integration: the metamorphic fuzzing campaign and its differential
//! oracle.
//!
//! * The Table I corpus itself passes the four-configuration oracle.
//! * A short fixed-seed campaign over the standard seed produces zero
//!   violations and exercises every operator.
//! * Breaking operators really flip flagged transactions to cleared.
//! * A deliberately crippled detector is caught by the seed pre-pass and
//!   shrunk to a ≤ 10-transaction reproducer.
//! * Every committed `tests/corpus/*.json` document parses and replays
//!   cleanly, and the persistence layer round-trips byte-for-byte.
//! * The leg splitter behind the repay-splitting operators is undone
//!   exactly by the coalescing pre-pass.

use ethsim::Transfer;
use leishen::fuzz::{
    reproducer_from_json, reproducer_to_json, run_campaign, split_resell_legs, CampaignConfig,
    DiffOracle, FuzzCase, FuzzRng, Operator, Reproducer, TxExpect,
};
use leishen::simplify::coalesce_transfers;
use leishen::{DetectorConfig, PatternKind};
use leishen_scenarios::fuzz::seed_case;

mod common;
use common::AttackCorpus;

/// The 22-attack golden corpus, reshaped as a fuzz case with ground-truth
/// expectations from the `expect_leishen` column.
fn corpus_fuzz_case() -> (FuzzCase, Vec<TxExpect>) {
    let corpus = AttackCorpus::build();
    let mut pairs: Vec<(ethsim::TxRecord, TxExpect)> = corpus
        .attacks
        .iter()
        .map(|a| {
            (
                corpus.record(a).clone(),
                TxExpect::flag_only(a.spec.expect_leishen),
            )
        })
        .collect();
    pairs.sort_by_key(|(tx, _)| tx.id);
    let (txs, expect): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
    let case = FuzzCase {
        txs,
        labels: corpus.labels.clone(),
        creations: corpus.world.chain.state().creations().to_vec(),
        weth: Some(corpus.world.weth.token),
    };
    (case, expect)
}

#[test]
fn attack_corpus_passes_the_differential_oracle() {
    let (case, expect) = corpus_fuzz_case();
    let oracle = DiffOracle::new(DetectorConfig::paper());
    let verdicts = oracle
        .check(&case, &expect)
        .expect("golden corpus must satisfy all four configurations");
    assert_eq!(verdicts.len(), 22);
    let flagged = verdicts.iter().filter(|v| v.flagged).count();
    assert_eq!(
        flagged,
        expect.iter().filter(|e| e.flagged).count(),
        "verdicts must match the Table I ground truth"
    );
}

#[test]
fn mini_campaign_is_violation_free_and_covers_every_operator() {
    let seeds = seed_case(DetectorConfig::paper());
    let oracle = DiffOracle::new(DetectorConfig::paper());
    let config = CampaignConfig::new(42, 70);
    let report = run_campaign(&seeds, &oracle, &config, |_, _| {});

    assert_eq!(report.total_violations(), 0, "{:?}", report.violations);
    assert!(report.seed_violation.is_none(), "seed pre-pass must be clean");
    assert_eq!(report.generated, 70);
    for stats in &report.per_operator {
        assert!(
            stats.generated > 0,
            "operator {} never produced a mutant",
            stats.operator.name()
        );
    }
    // Preserving mutants contribute confusion counts; a healthy detector
    // has zero false positives and zero false negatives on them.
    assert!(report.confusion.tp > 0, "campaign saw no true positives");
    assert_eq!(report.confusion.fp, 0);
    assert_eq!(report.confusion.fn_, 0);
}

#[test]
fn breaking_operators_flip_flagged_transactions_to_cleared() {
    let seeds = seed_case(DetectorConfig::paper());
    let oracle = DiffOracle::new(DetectorConfig::paper());
    // StripFlashLoan is the one remaining breaking operator (SplitRepay
    // became preserving with the coalescing fix). It may pick an
    // unflagged target (e.g. stripping the loan from a benign borrower);
    // keep drawing until a mutant clears a transaction the seed flags.
    let op = Operator::StripFlashLoan;
    let mut rng = FuzzRng::new(7);
    let mutant = (0..64)
        .filter_map(|_| op.apply(&seeds, &mut rng))
        .find(|m| {
            seeds
                .expect
                .iter()
                .zip(&m.expect)
                .any(|(seed, mutated)| seed.flagged && !mutated.flagged)
        })
        .unwrap_or_else(|| panic!("{} never cleared a flagged transaction", op.name()));
    // The mutated expectation clears a formerly flagged transaction —
    // and the detector agrees, in all four configurations.
    oracle
        .check_mutant(&mutant)
        .unwrap_or_else(|v| panic!("{} mutant violated the oracle: {v}", op.name()));
}

#[test]
fn split_repay_is_preserved_by_default_but_evades_the_weakened_detector() {
    // SplitRepay splits resell legs into adjacent same-edge halves. The
    // default config's coalescing pre-pass re-fuses them, so verdicts are
    // preserved across all four configurations; with coalescing disabled
    // (the pre-fix detector) the same mutant slips past SBS. This pins
    // the matcher fix shipped with the evade engine.
    let seeds = seed_case(DetectorConfig::paper());
    let fixed = DiffOracle::new(DetectorConfig::paper());
    let weakened = DiffOracle::new(DetectorConfig::weakened());
    let mut rng = FuzzRng::new(7);
    let mut evasions = 0usize;
    for _ in 0..16 {
        let Some(mutant) = Operator::SplitRepay.apply(&seeds, &mut rng) else {
            continue;
        };
        assert!(
            mutant.expect.iter().zip(&seeds.expect).all(|(m, s)| m == s),
            "SplitRepay is preserving: it must not rewrite expectations"
        );
        fixed
            .check_mutant(&mutant)
            .unwrap_or_else(|v| panic!("coalescing failed to re-catch a split repay: {v}"));
        if weakened.check_mutant(&mutant).is_err() {
            evasions += 1;
        }
    }
    assert!(
        evasions > 0,
        "the weakened detector must still be evadable by repay splitting"
    );
}

#[test]
fn split_legs_coalesce_back_to_the_original_journal() {
    // Why SplitRepay preserves verdicts and why the default config re-fuses
    // PartialRepay: coalescing a split journal gives back the original
    // one — same edges, tokens and amounts — with every seq times k.
    let seeds = seed_case(DetectorConfig::paper());
    let mut split = 0usize;
    for (tx, analysis) in seeds.case.txs.iter().zip(&seeds.refs) {
        let Some(sbs) = analysis.matches.iter().find(|m| m.kind == PatternKind::Sbs) else {
            continue;
        };
        for k in [2u32, 3] {
            let mut mutated = tx.clone();
            split_resell_legs(&mut mutated, sbs, k)
                .unwrap_or_else(|| panic!("tx {} does not split {k} ways", tx.id.0));
            assert!(mutated.trace.transfers.len() > tx.trace.transfers.len());
            let mut fused = Vec::new();
            coalesce_transfers(&mutated.trace.transfers, &mut fused);
            let scaled: Vec<Transfer> = tx
                .trace
                .transfers
                .iter()
                .map(|t| Transfer { seq: t.seq * k, ..t.clone() })
                .collect();
            assert_eq!(fused, scaled, "tx {} split {k} ways", tx.id.0);
            let seqs = |t: &ethsim::TxRecord| -> Vec<u32> {
                let logs = t.trace.logs.iter().map(|l| l.seq);
                logs.chain(t.trace.frames.iter().map(|f| f.seq)).collect()
            };
            assert_eq!(
                seqs(&mutated),
                seqs(tx).iter().map(|s| s * k).collect::<Vec<_>>(),
                "tx {} split {k} ways: log and frame seqs",
                tx.id.0
            );
            split += 1;
        }
    }
    assert!(split > 0, "the seed has SBS matches to split");
}

#[test]
fn crippled_detector_is_caught_and_shrinks_small() {
    // Ground truth comes from the healthy paper configuration; the oracle
    // runs a detector whose KRP matcher can never fire. The seed pre-pass
    // must notice before a single mutant is generated, and the shrunk
    // reproducer must stay small enough to read.
    let seeds = seed_case(DetectorConfig::paper());
    let crippled = DetectorConfig { krp_min_buys: 1000, ..DetectorConfig::paper() };
    let oracle = DiffOracle::new(crippled);
    let config = CampaignConfig::new(42, 8);
    let report = run_campaign(&seeds, &oracle, &config, |_, _| {});

    let violation = report
        .seed_violation
        .as_ref()
        .expect("crippled detector must fail the seed pre-pass");
    assert_eq!(violation.code, "wrong_flag");
    assert_eq!(violation.shrunk.label(), "seed", "the pre-pass mutant has an empty chain");
    assert!(
        violation.shrunk.case.txs.len() <= 10,
        "reproducer must shrink to ≤ 10 transactions, got {}",
        violation.shrunk.case.txs.len()
    );
    // The shrunk case still reproduces: a healthy oracle accepts nothing
    // about it being wrong, the crippled one still disagrees.
    assert!(oracle.check_mutant(&violation.shrunk).is_err());
}

#[test]
fn committed_corpus_documents_replay_cleanly() {
    let dir = common::tests_dir("corpus");
    let oracle = DiffOracle::new(DetectorConfig::paper());
    let mut replayed = 0usize;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/corpus exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.extension().is_some_and(|x| x == "json")
                && p.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with("corpus_"))
        })
        .collect();
    entries.sort();
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("read corpus document");
        let repro = reproducer_from_json(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        oracle
            .check(&repro.case, &repro.expect)
            .unwrap_or_else(|v| panic!("{} violates the oracle: {v}", path.display()));
        replayed += 1;
    }
    assert!(
        replayed >= Operator::METAMORPHIC.len(),
        "expected at least one committed sample per operator, found {replayed}"
    );
}

#[test]
fn reproducer_persistence_round_trips() {
    let seeds = seed_case(DetectorConfig::paper());
    let mut rng = FuzzRng::new(11);
    for op in Operator::METAMORPHIC {
        let Some(mutant) = (0..32).find_map(|_| op.apply(&seeds, &mut rng)) else {
            panic!("{} has applicable targets in the seed", op.name());
        };
        let repro = Reproducer::new(&mutant, 11, "round-trip");
        assert_eq!(repro.operator, op.name(), "a metamorphic mutant is labeled by its operator");
        let json = reproducer_to_json(&repro);
        let parsed = reproducer_from_json(&json)
            .unwrap_or_else(|e| panic!("{} reproducer does not re-parse: {e}", op.name()));
        assert_eq!(
            reproducer_to_json(&parsed),
            json,
            "{} reproducer round trip is not byte-stable",
            op.name()
        );
        assert_eq!(parsed.expect, repro.expect);
        assert_eq!(parsed.case.txs.len(), repro.case.txs.len());
    }
}
