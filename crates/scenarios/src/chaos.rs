//! The input chaos campaign: corruption generators, the campaign corpus
//! and the one verdict grader.
//!
//! Each generator takes a *genuine* [`TxRecord`] produced by `ethsim` and
//! breaks exactly one of the invariants [`ethsim::validate_record`]
//! checks, modelling the journal damage a real collector sees: truncated
//! feeds, reordered writes, impossible call nesting, overflowed amounts,
//! and log entries pointing past the end of the journal. The resilient
//! scan must quarantine every corrupted record with a machine-readable
//! reason while leaving clean records untouched — corruption is
//! per-transaction, so the mapping from [`FaultPlan`] assignments to
//! mutated records is position-stable and seed-deterministic.
//!
//! Not every corruption applies to every transaction (a trace with a
//! single transfer cannot have its seqs shuffled). [`corrupt`] reports
//! applicability, and [`apply_input_faults`] falls back through the other
//! fault kinds so a planned corruption is only dropped when *no* kind
//! applies — and then says so in its return value instead of silently
//! shrinking the campaign.
//!
//! [`ChaosCorpus::new`] builds one campaign's input from a corpus, a
//! seed and a rate, and [`grade`] judges a resilient scan's verdicts
//! against it. The `chaos` bench and `tests/chaos_resilience.rs` both
//! build and grade through these two, so a check added here reaches
//! both.

use std::collections::BTreeMap;

use ethsim::{TxId, TxRecord, MAX_AMOUNT};
use leishen::resilience::{
    FaultInjector, FaultPlan, InducedFault, InputFault, PlannedFault, Verdict,
};
use leishen::trace::{FlightRecorder, Reason};
use leishen::{FuzzCase, TxExpect};

/// Attempts to apply `fault` to `tx`, returning whether the record was
/// actually mutated. A `false` return leaves `tx` untouched.
pub fn corrupt(tx: &mut TxRecord, fault: InputFault) -> bool {
    let trace_len = tx.trace.len() as u32;
    match fault {
        InputFault::TruncatedJournal => {
            // Drop a journal entry that is not the final action, leaving
            // a hole in the shared seq space (SeqGap).
            let Some(pos) = tx
                .trace
                .transfers
                .iter()
                .position(|t| t.seq + 1 < trace_len)
            else {
                return false;
            };
            tx.trace.transfers.remove(pos);
            true
        }
        InputFault::ShuffledSeqs => {
            // Swap two transfer seqs: the transfer stream is no longer
            // monotonic but the seq *set* is unchanged (NonMonotonicSeq,
            // and only that).
            if tx.trace.transfers.len() < 2 {
                return false;
            }
            let a = tx.trace.transfers[0].seq;
            let b = tx.trace.transfers[1].seq;
            tx.trace.transfers[0].seq = b;
            tx.trace.transfers[1].seq = a;
            true
        }
        InputFault::CyclicFrames => {
            // An impossible call tree: either a non-zero root depth or a
            // frame that enters more than one level below its
            // predecessor (RootFrameDepth / DepthJump).
            match tx.trace.frames.len() {
                0 => false,
                1 => {
                    tx.trace.frames[0].depth = 3;
                    true
                }
                n => {
                    tx.trace.frames[n - 1].depth = tx.trace.frames[n - 2].depth + 2;
                    true
                }
            }
        }
        InputFault::OverflowAmount => {
            let Some(t) = tx.trace.transfers.first_mut() else {
                return false;
            };
            t.amount = MAX_AMOUNT;
            true
        }
        InputFault::DanglingLog => {
            // Point the last log past the end of the journal: its seq
            // references an action that was never recorded (SeqGap on
            // the missing index). Mutating the *last* log keeps the log
            // stream monotonic, so exactly one invariant breaks.
            let Some(l) = tx.trace.logs.last_mut() else {
                return false;
            };
            l.seq = trace_len + 7;
            true
        }
    }
}

/// Applies the input-fault half of a
/// [`FaultPlan`] assignment to a corpus.
///
/// `plan[i]` corrupts `txs[i]`; induced (stage-level) faults are ignored
/// here — they are wired into a
/// [`FaultInjector`] by the caller.
/// When the planned kind does not apply to the record, the other kinds
/// are tried in [`InputFault::ALL`] order starting after the planned one,
/// so a planned corruption is only dropped when the record supports none.
///
/// Returns, per position, the fault kind actually applied (`None` for
/// clean, induced-fault, or inapplicable positions) — the campaign's
/// ground truth for which records must be quarantined.
pub fn apply_input_faults(
    txs: &mut [TxRecord],
    plan: &[Option<PlannedFault>],
) -> Vec<Option<InputFault>> {
    let mut applied = vec![None; txs.len()];
    for (i, slot) in plan.iter().enumerate().take(txs.len()) {
        let Some(PlannedFault::Input(kind)) = slot else {
            continue;
        };
        let start = InputFault::ALL
            .iter()
            .position(|f| f == kind)
            .unwrap_or(0);
        for offset in 0..InputFault::ALL.len() {
            let candidate = InputFault::ALL[(start + offset) % InputFault::ALL.len()];
            if corrupt(&mut txs[i], candidate) {
                applied[i] = Some(candidate);
                break;
            }
        }
    }
    applied
}

/// Copies `records`, corrupting every fourth one (the first, the
/// fifth, …) with the next kind of [`InputFault::ALL`] in turn, so a
/// stream over the copy carries flagged, cleared *and* quarantined
/// verdicts.
pub fn corrupt_every_fourth(records: &[&TxRecord]) -> Vec<TxRecord> {
    let mut owned: Vec<TxRecord> = records.iter().map(|&tx| tx.clone()).collect();
    for (i, tx) in owned.iter_mut().enumerate().step_by(4) {
        corrupt(tx, InputFault::ALL[i / 4 % InputFault::ALL.len()]);
    }
    owned
}

/// One chaos campaign's input: a corpus under one [`FaultPlan`].
#[derive(Debug)]
pub struct ChaosCorpus {
    /// The records, corrupted where [`ChaosCorpus::applied`] says so.
    pub txs: Vec<TxRecord>,
    /// Per position, the input fault actually applied — the ground
    /// truth for which records must be quarantined.
    pub applied: Vec<Option<InputFault>>,
    /// The planned stage-level faults, keyed by transaction.
    pub induced: Vec<(TxId, InducedFault)>,
}

impl ChaosCorpus {
    /// Applies `FaultPlan::new(seed, rate_permille)` to `case`'s
    /// records. The same seed at a higher rate faults a superset of the
    /// positions, so campaigns at escalating rates stay aligned.
    pub fn new(case: &FuzzCase, seed: u64, rate_permille: u32) -> Self {
        let assignment = FaultPlan::new(seed, rate_permille).assign(case.txs.len());
        let mut txs = case.txs.clone();
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

    /// How many records were corrupted.
    pub fn corrupted(&self) -> usize {
        self.applied.iter().flatten().count()
    }

    /// A fresh injector landing this corpus's induced faults.
    pub fn injector(&self) -> FaultInjector {
        FaultInjector::new(self.induced.iter().copied())
    }
}

/// How one scan of a [`ChaosCorpus`] measured up against its ground
/// truth.
#[derive(Debug, Default)]
pub struct Grade {
    /// Verdicts the scan returned.
    pub survived: usize,
    /// Quarantined transactions.
    pub quarantined: usize,
    /// Quarantines per applied input fault; an uncorrupted quarantine
    /// counts under `panic`.
    pub by_fault: BTreeMap<&'static str, usize>,
    /// Uncorrupted ground-truth attacks.
    pub clean_attacks: usize,
    /// Uncorrupted ground-truth attacks the scan flagged.
    pub clean_detected: usize,
    /// Uncorrupted benign transactions the scan flagged.
    pub false_positives: usize,
    /// One line per quarantine, in input order.
    pub quarantine_log: Vec<String>,
    /// Every violated property, each line opening with its family:
    /// survival, containment, recall, precision, telemetry, provenance.
    pub violations: Vec<String>,
}

impl Grade {
    /// Share of uncorrupted attacks still flagged (1.0 when there are
    /// none).
    pub fn recall_clean(&self) -> f64 {
        if self.clean_attacks == 0 {
            1.0
        } else {
            self.clean_detected as f64 / self.clean_attacks as f64
        }
    }
}

/// Grades a resilient scan's `verdicts` of `corpus` against the
/// corruption ground truth and the per-position `expect`ations,
/// collecting violations instead of panicking so a failing campaign
/// still produces a full report:
///
/// 1. **survival** — one verdict per input;
/// 2. **containment** — every corrupted record is quarantined with an
///    `invalid_input:*` reason;
/// 3. **recall and precision under fire** — every uncorrupted record is
///    analyzed to its ground-truth flag;
/// 4. **telemetry** — a sink's quarantine count (`metered_quarantined`)
///    equals the verdicts';
/// 5. **provenance** — the `recorder`, when given, holds an
///    `Indeterminate` reason for every contained record.
pub fn grade(
    verdicts: &[Verdict],
    corpus: &ChaosCorpus,
    expect: &[TxExpect],
    recorder: Option<&FlightRecorder>,
    metered_quarantined: Option<u64>,
) -> Grade {
    let applied = &corpus.applied;
    let mut g = Grade { survived: verdicts.len(), ..Grade::default() };
    if verdicts.len() != applied.len() {
        g.violations.push(format!(
            "survival: {} verdicts for {} inputs",
            verdicts.len(),
            applied.len()
        ));
        return g;
    }

    for (i, verdict) in verdicts.iter().enumerate() {
        match (verdict, applied[i]) {
            (Verdict::Indeterminate(q), Some(kind)) => {
                g.quarantined += 1;
                *g.by_fault.entry(kind.name()).or_insert(0) += 1;
                let reason = q.reason();
                g.quarantine_log.push(format!(
                    "tx#{} index {i} fault {} -> {reason}",
                    q.tx.0,
                    kind.name()
                ));
                if !reason.starts_with("invalid_input:") {
                    g.violations.push(format!(
                        "containment: corrupted tx#{} quarantined with non-input reason {reason}",
                        q.tx.0
                    ));
                }
                if let Some(rec) = recorder {
                    let traced = rec.find(q.tx).is_some_and(|t| {
                        t.decision
                            .reasons
                            .iter()
                            .any(|r| matches!(r, Reason::Indeterminate { .. }))
                    });
                    if !traced {
                        g.violations.push(format!(
                            "provenance: quarantined tx#{} has no Indeterminate trace",
                            q.tx.0
                        ));
                    }
                }
            }
            (Verdict::Indeterminate(q), None) => {
                g.quarantined += 1;
                *g.by_fault.entry("panic").or_insert(0) += 1;
                g.quarantine_log
                    .push(format!("tx#{} index {i} uncorrupted -> {}", q.tx.0, q.reason()));
                g.violations.push(format!(
                    "recall: uncorrupted tx#{} quarantined ({}) instead of analyzed",
                    q.tx.0,
                    q.reason()
                ));
            }
            (Verdict::Analyzed(_), Some(kind)) => {
                g.violations.push(format!(
                    "containment: corrupted tx index {i} ({}) was analyzed, not quarantined",
                    kind.name()
                ));
            }
            (Verdict::Analyzed(a), None) => {
                let flagged = a.is_attack();
                if expect[i].flagged {
                    g.clean_attacks += 1;
                    if flagged {
                        g.clean_detected += 1;
                    } else {
                        g.violations.push(format!(
                            "recall: clean attack tx index {i} not flagged under faults"
                        ));
                    }
                } else if flagged {
                    g.false_positives += 1;
                    g.violations
                        .push(format!("precision: clean benign tx index {i} flagged under faults"));
                }
            }
        }
    }

    if let Some(metered) = metered_quarantined {
        if metered != g.quarantined as u64 {
            g.violations.push(format!(
                "telemetry: sink counted {metered} quarantines, scan produced {}",
                g.quarantined
            ));
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;
    use ethsim::{validate_record, Chain, RecordViolation};
    use leishen::resilience::{Fault, Quarantine};
    use leishen::{DetectorConfig, SeedCase};

    fn sample() -> Vec<TxRecord> {
        let mut chain = Chain::default();
        let a = chain.create_eoa("chaos-a");
        let b = chain.create_eoa("chaos-b");
        chain.state_mut().credit_eth(a, 1_000_000).unwrap();
        chain
            .execute(a, a, "setup", |ctx| {
                let c = ctx.create_contract(a)?;
                let tok = ctx.register_token("CHAOS", 18, c);
                ctx.mint_token(tok, a, 1_000_000)?;
                Ok(())
            })
            .unwrap();
        let tok = chain.state().token_by_symbol("CHAOS").unwrap();
        for i in 0..6u128 {
            chain
                .execute(a, b, "pay", move |ctx| {
                    ctx.call(a, b, "pay", 5 + i, |inner| {
                        inner.transfer_token(tok, a, b, 50 + i)?;
                        inner.transfer_token(tok, a, b, 51 + i)?;
                        inner.emit_log(b, "Paid", vec![]);
                        Ok(())
                    })
                })
                .unwrap();
        }
        chain.transactions().to_vec()
    }

    #[test]
    fn every_fault_kind_breaks_validation_on_a_rich_record() {
        let records = sample();
        let rich = &records[records.len() - 1];
        assert!(validate_record(rich).is_empty(), "fixture must start clean");
        for kind in InputFault::ALL {
            let mut tx = rich.clone();
            assert!(corrupt(&mut tx, kind), "{} must apply", kind.name());
            let violations = validate_record(&tx);
            assert!(
                !violations.is_empty(),
                "{} must break validation",
                kind.name()
            );
        }
    }

    #[test]
    fn corruption_is_detected_not_assumed() {
        // Each kind produces a *different* violation family on the same
        // record — they are distinct damage models, not five spellings
        // of one bug.
        let records = sample();
        let rich = &records[records.len() - 1];
        let mut codes = Vec::new();
        for kind in InputFault::ALL {
            let mut tx = rich.clone();
            corrupt(&mut tx, kind);
            let violations = validate_record(&tx);
            codes.push(violations[0].code());
        }
        codes.sort_unstable();
        codes.dedup();
        assert!(codes.len() >= 4, "expected diverse violations, got {codes:?}");
    }

    #[test]
    fn inapplicable_faults_leave_the_record_clean() {
        let records = sample();
        // The setup transaction has no transfers to shuffle.
        let setup = records
            .iter()
            .find(|t| t.trace.transfers.len() < 2)
            .cloned();
        if let Some(tx) = setup {
            let mut mutated = tx.clone();
            if !corrupt(&mut mutated, InputFault::ShuffledSeqs) {
                assert_eq!(mutated, tx, "failed corruption must not mutate");
            }
        }
    }

    #[test]
    fn apply_input_faults_reports_exactly_the_corrupted_positions() {
        let mut records = sample();
        let plan = FaultPlan::new(7, 500).assign(records.len());
        let clean = records.clone();
        let applied = apply_input_faults(&mut records, &plan);
        assert_eq!(applied.len(), records.len());
        for (i, kind) in applied.iter().enumerate() {
            match kind {
                Some(_) => assert!(
                    !validate_record(&records[i]).is_empty(),
                    "position {i} reported corrupted but validates clean"
                ),
                None => assert_eq!(records[i], clean[i], "position {i} mutated silently"),
            }
        }
        assert!(
            applied.iter().any(Option::is_some),
            "a 50% plan over {} txs should corrupt something",
            records.len()
        );
    }

    /// The seed corpus, built once for every grader test.
    fn seeds() -> &'static SeedCase {
        static SEEDS: OnceLock<SeedCase> = OnceLock::new();
        SEEDS.get_or_init(|| crate::fuzz::seed_case(DetectorConfig::paper()))
    }

    /// A campaign that faulted nothing, and its honest verdicts: the
    /// reference analyses.
    fn honest() -> (ChaosCorpus, Vec<Verdict>) {
        let corpus = ChaosCorpus::new(&seeds().case, 42, 0);
        let verdicts = seeds().refs.iter().cloned().map(Verdict::Analyzed).collect();
        (corpus, verdicts)
    }

    fn violations(corpus: &ChaosCorpus, verdicts: &[Verdict]) -> Vec<String> {
        grade(verdicts, corpus, &seeds().expect, None, None).violations
    }

    /// The first position whose ground-truth flag is `flagged`.
    fn first(flagged: bool) -> usize {
        seeds().expect.iter().position(|e| e.flagged == flagged).expect("position")
    }

    /// Position `i` corrupted by `kind` and quarantined as invalid input.
    fn contained(corpus: &mut ChaosCorpus, verdicts: &mut [Verdict], i: usize, kind: InputFault) {
        corpus.applied[i] = Some(kind);
        verdicts[i] = Verdict::Indeterminate(Quarantine {
            tx: corpus.txs[i].id,
            index: i,
            fault: Fault::InvalidInput {
                violations: vec![RecordViolation::SeqGap { missing: 3 }],
            },
            stage: None,
            attempts: 0,
        });
    }

    #[test]
    fn a_corrupted_record_that_was_analyzed_breaks_containment() {
        let (mut corpus, verdicts) = honest();
        corpus.applied[2] = Some(InputFault::ShuffledSeqs);
        assert_eq!(
            violations(&corpus, &verdicts),
            ["containment: corrupted tx index 2 (shuffled_seqs) was analyzed, not quarantined"]
        );
    }

    #[test]
    fn an_uncorrupted_record_that_was_quarantined_breaks_recall() {
        let (mut corpus, mut verdicts) = honest();
        contained(&mut corpus, &mut verdicts, 2, InputFault::CyclicFrames);
        corpus.applied[2] = None;
        let found = violations(&corpus, &verdicts);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].starts_with("recall: uncorrupted tx#"), "{found:?}");
    }

    #[test]
    fn a_clean_attack_that_was_cleared_breaks_recall() {
        let (corpus, mut verdicts) = honest();
        let (attack, benign) = (first(true), first(false));
        verdicts[attack] = verdicts[benign].clone();
        assert_eq!(
            violations(&corpus, &verdicts),
            [format!("recall: clean attack tx index {attack} not flagged under faults")]
        );
    }

    #[test]
    fn a_clean_benign_transaction_that_was_flagged_breaks_precision() {
        let (corpus, mut verdicts) = honest();
        let (attack, benign) = (first(true), first(false));
        verdicts[benign] = verdicts[attack].clone();
        assert_eq!(
            violations(&corpus, &verdicts),
            [format!("precision: clean benign tx index {benign} flagged under faults")]
        );
    }

    #[test]
    fn a_metered_count_off_by_one_breaks_telemetry() {
        let (mut corpus, mut verdicts) = honest();
        contained(&mut corpus, &mut verdicts, 0, InputFault::TruncatedJournal);
        let g = grade(&verdicts, &corpus, &seeds().expect, None, Some(2));
        assert_eq!(g.violations, ["telemetry: sink counted 2 quarantines, scan produced 1"]);
    }

    #[test]
    fn a_quarantine_with_no_indeterminate_trace_breaks_provenance() {
        let (mut corpus, mut verdicts) = honest();
        contained(&mut corpus, &mut verdicts, 0, InputFault::OverflowAmount);
        let empty = FlightRecorder::new();
        let g = grade(&verdicts, &corpus, &seeds().expect, Some(&empty), None);
        let tx = corpus.txs[0].id.0;
        assert_eq!(
            g.violations,
            [format!("provenance: quarantined tx#{tx} has no Indeterminate trace")]
        );
    }
}
