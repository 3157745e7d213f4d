//! Economic mutation operators.
//!
//! Each operator restructures the transfer journal of one flagged
//! transaction while preserving the attacker cluster's exact per-token
//! net position ([`super::profit`]). Unlike the metamorphic
//! [`crate::fuzz::Operator`]s they carry no verdict contract — whether a
//! restructuring flips the verdict is exactly what the search measures —
//! but each *is* built to be detection-neutral against the fixed default
//! config, so any verdict flip it causes under a candidate config is a
//! genuine blind spot of that config:
//!
//! * [`EvadeOp::PartialRepay`] — splits resell-phase legs into K
//!   consecutive partial transfers over the same edge. Re-fused by the
//!   default config's coalescing pre-pass; evades the weakened (pre-fix)
//!   SBS symmetry check.
//! * [`EvadeOp::LoanSplit`] — adds a second flash-loan provider signature
//!   (AAVE `flashLoan` frame + `FlashLoan` log) carrying part of the loan
//!   as a tail round trip. Identification needs *any one* signature, so
//!   this can never evade — it documents that splitting borrowing across
//!   providers does not help the attacker.
//! * [`EvadeOp::CrossTxSpread`] — moves post-repay attacker-internal
//!   transfers into a fresh follow-up transaction. The moved transfers
//!   are intra-cluster (same creation-tree tag), which rule 1 of
//!   simplification drops anyway, so the target's application-level
//!   stream is unchanged by construction.
//! * [`EvadeOp::MixerHops`] — routes part of the profit through fresh
//!   hop accounts into a `Tornado.Cash`-labeled mixer and out to a clean
//!   address. The equal-amount hop chain collapses to one one-way
//!   app-level transfer under rule 3, which no trade window form can
//!   consume.

use std::collections::HashSet;

use ethsim::{
    Address, CallFrame, EventLog, LogValue, Transfer, TxId, TxRecord, TxStatus, TxTrace,
};

use crate::analytics::net_flows;
use crate::detector::Analysis;
use crate::fuzz::ops::{next_seq, MAX_SEQ};
use crate::fuzz::{FuzzCase, FuzzRng};
use crate::patterns::PatternKind;

/// A successfully applied economic mutation.
#[derive(Clone, Debug)]
pub struct EvadeApplied {
    /// The mutated history (the target transaction restructured, plus any
    /// appended follow-up transactions at the tail of `txs`).
    pub case: FuzzCase,
    /// Number of transactions appended to the case (0 or 1); the caller
    /// owes each one a cleared expectation.
    pub appended: usize,
}

/// The economic mutation operators, in search order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvadeOp {
    /// Split every resell-phase target-token transfer into K ∈ {2, 3}
    /// consecutive partial transfers over the same (sender, receiver,
    /// token) edge. Applicable when the target has an SBS match (the
    /// split pivots on its sell leg). Profit-exact: the parts sum to the
    /// original amount.
    PartialRepay,
    /// Add a second provider's Table II signature (AAVE: `flashLoan`
    /// frame + `FlashLoan` log) for half the identified loan, as a
    /// lender2 → borrower → lender2 round trip appended to the journal
    /// tail. Round trips back to the sender never merge and same-token
    /// pairs form no trade, so the application-level stream gains
    /// nothing. Profit-exact: the loan and its repayment cancel.
    LoanSplit,
    /// Move every post-repay transfer whose endpoints both lie in the
    /// attacker cluster (profit-home hops, internal shuffles) into a
    /// fresh follow-up transaction from the same initiator. Applicable
    /// when an identified loan has such a tail. Profit-exact: the profile
    /// sums over the whole case.
    CrossTxSpread,
    /// Append a laundering chain — borrower → hop₁ → … → hopₖ → mixer →
    /// clean — of one equal amount of the cluster's top profit token,
    /// with the mixer labeled `Tornado.Cash` and hops/clean joining the
    /// cluster. Profit-exact: the amount leaves via the mixer and returns
    /// to the (cluster-owned) clean address.
    MixerHops,
}

impl EvadeOp {
    /// All operators, in deterministic search order.
    pub const ALL: [EvadeOp; 4] = [
        EvadeOp::PartialRepay,
        EvadeOp::LoanSplit,
        EvadeOp::CrossTxSpread,
        EvadeOp::MixerHops,
    ];

    /// Stable snake-case name (reports, reproducer chain strings).
    pub fn name(self) -> &'static str {
        match self {
            EvadeOp::PartialRepay => "partial_repay",
            EvadeOp::LoanSplit => "loan_split",
            EvadeOp::CrossTxSpread => "cross_tx_spread",
            EvadeOp::MixerHops => "mixer_hops",
        }
    }

    /// Parses [`EvadeOp::name`] back (reproducer chain parsing).
    pub fn from_name(name: &str) -> Option<EvadeOp> {
        EvadeOp::ALL.into_iter().find(|op| op.name() == name)
    }

    /// Applies the operator to `case.txs[target]`, consulting `analysis`
    /// (the target's analysis under the detector being searched) for
    /// loans and matches, and extending `cluster` with any introduced
    /// attacker-controlled accounts. Returns `None` when inapplicable;
    /// `cluster` is only mutated on success.
    pub fn apply(
        self,
        case: &FuzzCase,
        target: usize,
        analysis: &Analysis,
        cluster: &mut HashSet<Address>,
        rng: &mut FuzzRng,
    ) -> Option<EvadeApplied> {
        match self {
            EvadeOp::PartialRepay => partial_repay(case, target, analysis, rng),
            EvadeOp::LoanSplit => loan_split(case, target, analysis, rng),
            EvadeOp::CrossTxSpread => cross_tx_spread(case, target, analysis, cluster),
            EvadeOp::MixerHops => mixer_hops(case, target, cluster, rng),
        }
    }
}

impl std::fmt::Display for EvadeOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn partial_repay(
    case: &FuzzCase,
    target: usize,
    analysis: &Analysis,
    rng: &mut FuzzRng,
) -> Option<EvadeApplied> {
    // 2- or 3-way split; drawn before the applicability checks so the RNG
    // stream does not depend on which branch rejects.
    let k = 2 + rng.below(2) as u32;
    let m = analysis.matches.iter().find(|m| m.kind == PatternKind::Sbs)?;
    let sell_seq = *m.trade_seqs.last()?;
    let mut case = case.clone();
    let tx = &mut case.txs[target];
    if next_seq(tx).checked_mul(k)?.checked_add(k)? > MAX_SEQ {
        return None;
    }
    // Split every target-token transfer from the resell phase onward —
    // including pass-through chains, so no full-amount leg survives for
    // the weakened simplifier to re-merge.
    let candidates: Vec<usize> = tx
        .trace
        .transfers
        .iter()
        .enumerate()
        .filter(|(_, t)| t.seq >= sell_seq && t.token == m.target_token)
        .map(|(j, _)| j)
        .collect();
    if candidates.is_empty()
        || candidates
            .iter()
            .any(|&j| tx.trace.transfers[j].amount < k as u128)
    {
        return None;
    }
    // Scale every stream by K to open K−1 fresh seq slots after each leg.
    for t in &mut tx.trace.transfers {
        t.seq *= k;
    }
    for l in &mut tx.trace.logs {
        l.seq *= k;
    }
    for f in &mut tx.trace.frames {
        f.seq *= k;
    }
    // Back to front so earlier candidate indices stay valid.
    for &j in candidates.iter().rev() {
        let t = tx.trace.transfers[j].clone();
        let part = t.amount / k as u128;
        tx.trace.transfers[j].amount = t.amount - part * (k as u128 - 1);
        for i in 1..k {
            tx.trace.transfers.insert(
                j + i as usize,
                Transfer { seq: t.seq + i, amount: part, ..t.clone() },
            );
        }
    }
    Some(EvadeApplied { case, appended: 0 })
}

fn loan_split(
    case: &FuzzCase,
    target: usize,
    analysis: &Analysis,
    rng: &mut FuzzRng,
) -> Option<EvadeApplied> {
    let salt = rng.next_u64();
    let loan = analysis
        .flash_loans
        .iter()
        .find(|l| l.token.is_some() && l.amount.is_some())?;
    let (token, amount) = (loan.token?, loan.amount?);
    let mut case = case.clone();
    let tx = &mut case.txs[target];
    let s0 = next_seq(tx);
    if s0.checked_add(3)? > MAX_SEQ {
        return None;
    }
    let lender2 = Address::from_seed(&format!("evade:lender2:{salt:016x}"));
    let split = (amount / 2).max(1);
    tx.trace.frames.push(CallFrame {
        seq: s0,
        depth: 1,
        caller: loan.borrower,
        callee: lender2,
        function: "flashLoan".into(),
        value: 0,
    });
    tx.trace.logs.push(EventLog {
        seq: s0 + 1,
        emitter: lender2,
        name: "FlashLoan".into(),
        params: vec![
            ("target".into(), LogValue::Addr(loan.borrower)),
            ("reserve".into(), LogValue::Token(token)),
            ("amount".into(), LogValue::Amount(split)),
        ],
    });
    tx.trace.transfers.push(Transfer {
        seq: s0 + 2,
        sender: lender2,
        receiver: loan.borrower,
        amount: split,
        token,
    });
    tx.trace.transfers.push(Transfer {
        seq: s0 + 3,
        sender: loan.borrower,
        receiver: lender2,
        amount: split,
        token,
    });
    Some(EvadeApplied { case, appended: 0 })
}

fn cross_tx_spread(
    case: &FuzzCase,
    target: usize,
    analysis: &Analysis,
    cluster: &HashSet<Address>,
) -> Option<EvadeApplied> {
    let lenders: HashSet<Address> = analysis.flash_loans.iter().map(|l| l.lender).collect();
    if lenders.is_empty() {
        return None;
    }
    let tx0 = &case.txs[target];
    // Everything after the last lender-touching transfer is the attack's
    // epilogue (repayment done, profit being moved home).
    let last_lender_seq = tx0
        .trace
        .transfers
        .iter()
        .filter(|t| lenders.contains(&t.sender) || lenders.contains(&t.receiver))
        .map(|t| t.seq)
        .max()?;
    let movable: Vec<usize> = tx0
        .trace
        .transfers
        .iter()
        .enumerate()
        .filter(|(_, t)| {
            t.seq > last_lender_seq
                && cluster.contains(&t.sender)
                && cluster.contains(&t.receiver)
        })
        .map(|(j, _)| j)
        .collect();
    if movable.is_empty() {
        return None;
    }
    let mut case = case.clone();
    let next_id = case.txs.iter().map(|t| t.id.0).max().unwrap_or(0) + 1;
    let tx = &mut case.txs[target];
    let mut moved: Vec<Transfer> = Vec::with_capacity(movable.len());
    for &j in movable.iter().rev() {
        moved.push(tx.trace.transfers.remove(j));
    }
    moved.reverse();
    for (i, t) in moved.iter_mut().enumerate() {
        t.seq = i as u32;
    }
    let spread = TxRecord {
        id: TxId(next_id),
        block: tx.block,
        timestamp: tx.timestamp + 1,
        from: tx.from,
        to: tx.to,
        function: "evadeSpread".into(),
        status: TxStatus::Success,
        trace: TxTrace {
            transfers: moved,
            logs: Vec::new(),
            frames: Vec::new(),
            created: Vec::new(),
        },
    };
    case.txs.push(spread);
    Some(EvadeApplied { case, appended: 1 })
}

fn mixer_hops(
    case: &FuzzCase,
    target: usize,
    cluster: &mut HashSet<Address>,
    rng: &mut FuzzRng,
) -> Option<EvadeApplied> {
    // Draws happen up front so the RNG stream is applicability-independent.
    let hops = 1 + rng.below(3);
    let salt = rng.next_u64();
    let mut case = case.clone();
    let tx = &mut case.txs[target];
    // Launder part of the top profit token. `net > 1` keeps the laundered
    // amount ≥ 1 and strictly below the net, so the sign cannot flip even
    // if a future variant charged a fee.
    let (token, net) = net_flows(&tx.trace.transfers, cluster)
        .into_iter()
        .filter(|(_, v)| *v > 1)
        .max_by_key(|&(t, v)| (v, t))?;
    // The laundered amount must stay clear of the 0.1% merge tolerance of
    // every same-token amount in the journal, so the appended chain can
    // only merge within itself, never backward into the attack's legs.
    let amount = [net / 2, net / 3, 2 * net / 5, net / 7 + 1, 3 * net / 4]
        .into_iter()
        .map(|v| v.max(1) as u128)
        .find(|&l| {
            tx.trace.transfers.iter().filter(|t| t.token == token).all(|t| {
                let hi = t.amount.max(l) as f64;
                let lo = t.amount.min(l) as f64;
                (hi - lo) / hi > 0.002
            })
        })?;
    let s0 = next_seq(tx);
    if s0.checked_add(hops as u32 + 1)? > MAX_SEQ {
        return None;
    }
    let mixer = Address::from_seed(&format!("evade:mixer:{salt:016x}"));
    let clean = Address::from_seed(&format!("evade:clean:{salt:016x}"));
    let mut prev = tx.to;
    let mut seq = s0;
    for i in 0..hops {
        let hop = Address::from_seed(&format!("evade:hop{i}:{salt:016x}"));
        tx.trace.transfers.push(Transfer { seq, sender: prev, receiver: hop, amount, token });
        cluster.insert(hop);
        prev = hop;
        seq += 1;
    }
    tx.trace.transfers.push(Transfer { seq, sender: prev, receiver: mixer, amount, token });
    tx.trace.transfers.push(Transfer {
        seq: seq + 1,
        sender: mixer,
        receiver: clean,
        amount,
        token,
    });
    cluster.insert(clean);
    case.labels.set(mixer, "Tornado.Cash");
    Some(EvadeApplied { case, appended: 0 })
}
