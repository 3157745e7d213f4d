//! Input-corruption generators for chaos campaigns.
//!
//! Each generator takes a *genuine* [`TxRecord`] produced by `ethsim` and
//! breaks exactly one of the invariants [`ethsim::validate_record`]
//! checks, modelling the journal damage a real collector sees: truncated
//! feeds, reordered writes, impossible call nesting, overflowed amounts,
//! and log entries pointing past the end of the journal. The resilient
//! scan must quarantine every corrupted record with a machine-readable
//! reason while leaving clean records untouched — corruption is
//! per-transaction, so the mapping from
//! [`FaultPlan`](leishen::resilience::FaultPlan) assignments to mutated
//! records is position-stable and seed-deterministic.
//!
//! Not every corruption applies to every transaction (a trace with a
//! single transfer cannot have its seqs shuffled). [`corrupt`] reports
//! applicability, and [`apply_input_faults`] falls back through the other
//! fault kinds so a planned corruption is only dropped when *no* kind
//! applies — and then says so in its return value instead of silently
//! shrinking the campaign.

use ethsim::{TxRecord, MAX_AMOUNT};
use leishen::resilience::{InputFault, PlannedFault};

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
/// [`FaultPlan`](leishen::resilience::FaultPlan) assignment to a corpus.
///
/// `plan[i]` corrupts `txs[i]`; induced (stage-level) faults are ignored
/// here — they are wired into a
/// [`FaultInjector`](leishen::resilience::FaultInjector) by the caller.
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

#[cfg(test)]
mod tests {
    use super::*;
    use ethsim::{validate_record, Chain};
    use leishen::resilience::FaultPlan;

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
        let plan = FaultPlan::inputs_only(7, 500).assign(records.len());
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
}
