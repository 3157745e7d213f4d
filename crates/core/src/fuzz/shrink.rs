//! Greedy mutant shrinking — from a failing campaign case to a minimal
//! reproducing history.
//!
//! The reduction predicate is "the oracle still fails *with the same
//! violation code*" ([`super::Violation::code`]); without the code pin a shrink
//! step could trade, say, a parallel-divergence failure for an unrelated
//! expectation failure and the reproducer would stop explaining the
//! original bug. Two passes run to fixpoint:
//!
//! 1. **Transaction removal** (`shrink_txs`) — drop whole transactions
//!    (with their expectations) while the failure persists. Histories of
//!    thousands of transactions routinely collapse to one. The pass takes
//!    any predicate; the evasion search runs it under its dual-oracle one
//!    ([`crate::evade::evasion_reproducer`]).
//! 2. **Trace-item removal** — drop individual transfers, logs and frames
//!    from the survivors while the failure persists, leaving only the
//!    actions the violation actually needs.

use super::oracle::DiffOracle;
use super::Mutant;

/// Hard ceiling on oracle invocations during one shrink (a shrink is
/// O(items²) in the worst case; the cap keeps pathological mutants from
/// stalling a campaign). Hitting the cap just stops early — the result is
/// still a valid, if less minimal, reproducer.
const MAX_ORACLE_RUNS: usize = 4000;

/// Shrinks `mutant` to a smaller history that still fails the oracle with
/// the same violation code. Returns the shrunk mutant and the number of
/// oracle runs spent.
///
/// If `mutant` does not currently fail the oracle it is returned
/// unchanged (nothing to reproduce).
pub fn shrink_mutant(mutant: &Mutant, oracle: &DiffOracle) -> (Mutant, usize) {
    let code = match oracle.check_mutant(mutant) {
        Ok(_) => return (mutant.clone(), 1),
        Err(v) => v.code(),
    };
    let mut runs = 1usize;
    // Once the budget is spent the predicate answers "no" without running
    // the oracle, so both passes stop shrinking.
    let mut still_fails = |m: &Mutant| {
        if runs >= MAX_ORACLE_RUNS {
            return false;
        }
        runs += 1;
        matches!(oracle.check_mutant(m), Err(v) if v.code() == code)
    };

    let mut best = shrink_txs(mutant.clone(), &mut still_fails);

    // Pass 2: per-item removal inside the surviving transactions.
    loop {
        let mut changed = false;
        for tx in 0..best.case.txs.len() {
            for kind in [ItemKind::Transfer, ItemKind::Log, ItemKind::Frame] {
                let mut i = 0;
                while i < item_count(&best, tx, kind) {
                    let mut candidate = best.clone();
                    remove_item(&mut candidate, tx, kind, i);
                    if still_fails(&candidate) {
                        best = candidate;
                        changed = true;
                    } else {
                        i += 1;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    (best, runs)
}

/// Pass 1: drops whole transactions (with their expectations), to
/// fixpoint, while `keeps` holds for the smaller mutant. At least one
/// transaction always remains.
pub(crate) fn shrink_txs(mut best: Mutant, mut keeps: impl FnMut(&Mutant) -> bool) -> Mutant {
    loop {
        let mut changed = false;
        let mut i = 0;
        while i < best.case.txs.len() && best.case.txs.len() > 1 {
            let mut candidate = best.clone();
            candidate.case.txs.remove(i);
            candidate.expect.remove(i);
            if keeps(&candidate) {
                best = candidate;
                changed = true;
                // Same index now holds the next transaction.
            } else {
                i += 1;
            }
        }
        if !changed {
            return best;
        }
    }
}

#[derive(Clone, Copy)]
enum ItemKind {
    Transfer,
    Log,
    Frame,
}

fn item_count(m: &Mutant, tx: usize, kind: ItemKind) -> usize {
    let trace = &m.case.txs[tx].trace;
    match kind {
        ItemKind::Transfer => trace.transfers.len(),
        ItemKind::Log => trace.logs.len(),
        ItemKind::Frame => trace.frames.len(),
    }
}

fn remove_item(m: &mut Mutant, tx: usize, kind: ItemKind, i: usize) {
    let trace = &mut m.case.txs[tx].trace;
    match kind {
        ItemKind::Transfer => {
            trace.transfers.remove(i);
        }
        ItemKind::Log => {
            trace.logs.remove(i);
        }
        ItemKind::Frame => {
            trace.frames.remove(i);
        }
    }
}
