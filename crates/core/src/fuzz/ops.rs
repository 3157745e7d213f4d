//! The mutation-operator registry.
//!
//! Every operator that probes the detector is one [`Operator`], in one of
//! three families ([`OpFamily`]), and states as part of its contract what
//! must happen to the verdicts:
//!
//! * **Preserving** operators exploit invariances of the pipeline — the
//!   detector analyzes transactions independently (reordering,
//!   interleaving), tags only transfer endpoints by name (renaming, no-op
//!   frames), compares amounts only through ratios (power-of-two
//!   scaling is exact in `f64`), and coalesces adjacent same-edge split
//!   transfers before matching (repay splitting). Verdicts must be
//!   unchanged.
//! * **Breaking** operators remove exactly the evidence a detection rests
//!   on — the Table II identification signatures — and must flip
//!   flagged → cleared.
//! * **Economic** operators restructure one flagged transaction while
//!   keeping the attacker cluster's exact per-token net position
//!   ([`crate::evade::profit`]). They carry no verdict contract — whether
//!   a restructuring flips the verdict is what the evasion search
//!   measures — but each is built to be detection-neutral against the
//!   default config, so a flip under a candidate config is a genuine blind
//!   spot of that config.
//!
//! Two searches each walk their own table: the random metamorphic campaign
//! ([`super::campaign`]) draws [`Operator::METAMORPHIC`] round-robin
//! through [`Operator::apply`], and the beam-guided evasion search
//! ([`crate::evade::search`]) composes chains of [`Operator::ECONOMIC`]
//! through [`Operator::apply_economic`].
//!
//! Soundness notes justifying each relation live on the variants; they are
//! load-bearing (an unsound operator turns into false oracle violations).

use std::collections::{HashMap, HashSet};

use ethsim::{
    Address, CallFrame, EventLog, LogValue, TokenId, Transfer, TxId, TxRecord, TxStatus, TxTrace,
};

use crate::analytics::net_flows;
use crate::detector::Analysis;
use crate::patterns::{PatternKind, PatternMatch};

use super::rng::FuzzRng;
use super::{FuzzCase, Mutant, SeedCase, TxExpect};

/// Frame function names with Table II identification meaning; the no-op
/// wrapper must never introduce them.
const RESERVED_FRAMES: &[&str] = &["uniswapV2Call", "swap", "flashLoan"];

/// Log names with Table II identification meaning.
const RESERVED_LOGS: &[&str] =
    &["FlashLoan", "LogOperation", "LogWithdraw", "LogCall", "LogDeposit"];

/// Neutral function names the no-op wrapper draws from.
const NOOP_FRAMES: &[&str] = &["multicallProxy", "delegateHop", "batchRelay"];

/// `ethsim::SpanId` packs a sequence number into 20 bits; mutations that
/// renumber or append sequence positions must stay under this.
const MAX_SEQ: u32 = (1 << 20) - 2;

/// What an operator's contract says about verdicts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpFamily {
    /// Verdicts must be byte-identical to the seed's.
    Preserving,
    /// The targeted flagged transaction must come out cleared.
    Breaking,
    /// Profit-exact restructuring with no verdict contract; the evasion
    /// search measures what flips.
    Economic,
}

/// Every mutation operator. [`Operator::METAMORPHIC`] and
/// [`Operator::ECONOMIC`] list them in the order their search walks them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Operator {
    /// Shuffle whole transactions (with their expectations). Sound because
    /// the pipeline analyzes each transaction independently; batch order
    /// only affects scheduling.
    ReorderTxs,
    /// Insert 1–3 benign pool transactions (fresh ids) at random
    /// positions. Sound for the same independence reason; the insertions
    /// carry their own expectations.
    InterleaveBenign,
    /// Apply a fresh bijection to every address and every non-ETH token.
    /// Sound because tagging depends on label *strings* and the shape of
    /// the creation tree, not on address identity, and ETH (which simplify
    /// unifies WETH into) is kept fixed.
    RenameAddresses,
    /// Multiply every amount by a power of two (2, 4 or 8). Sound because
    /// every detector comparison is a ratio or an equal-scaled inequality,
    /// and power-of-two scaling commutes exactly with `u128 → f64`
    /// rounding, so even the float comparisons are bit-identical.
    ScaleAmounts,
    /// Append call frames (and one log) with neutral names. Sound because
    /// identification matches only the reserved Table II names and tagging
    /// looks only at transfer endpoints.
    WrapNoopFrames,
    /// Remove the Table II identification evidence (the `uniswapV2Call`
    /// callback frame, `FlashLoan` and `LogOperation` logs) from a
    /// flash-loan transaction: identification must now find nothing, so
    /// the pipeline stops and the transaction is cleared.
    StripFlashLoan,
    /// Split every resell leg of an SBS-only attack in two
    /// ([`split_resell_legs`] with k = 2). The parts are *adjacent*
    /// transfers over one (sender, receiver, token) edge, so the
    /// split-transfer coalescing pre-pass
    /// ([`crate::simplify::coalesce_transfers`]) re-fuses them before
    /// tagging and the verdict is unchanged. This operator used to be the
    /// detector's blind spot: without coalescing
    /// ([`crate::config::DetectorConfig::weakened`]) no Table III window
    /// form can consume the parts together, the resell looks like half
    /// the bought amount — far outside the 0.1% symmetry tolerance — and
    /// SBS wrongly clears the attack. [`Operator::PartialRepay`] is the
    /// economic form the evasion search composes.
    SplitRepay,
    /// Split every resell-phase target-token transfer into K ∈ {2, 3}
    /// consecutive partial transfers over the same edge
    /// ([`split_resell_legs`]). Applicable when the target has an SBS
    /// match (the split pivots on its sell leg). Profit-exact: the parts
    /// sum to the original amount. Re-fused by the default config's
    /// coalescing pre-pass; evades the weakened SBS symmetry check.
    PartialRepay,
    /// Add a second provider's Table II signature (AAVE: `flashLoan`
    /// frame + `FlashLoan` log) for half the identified loan, as a
    /// lender2 → borrower → lender2 round trip appended to the journal
    /// tail. Round trips back to the sender never merge and same-token
    /// pairs form no trade, so the application-level stream gains
    /// nothing. Identification needs *any one* signature, so this can
    /// never evade — it documents that splitting borrowing across
    /// providers does not help the attacker. Profit-exact: the loan and
    /// its repayment cancel.
    LoanSplit,
    /// Move every post-repay transfer whose endpoints both lie in the
    /// attacker cluster (profit-home hops, internal shuffles) into a
    /// fresh follow-up transaction from the same initiator. Applicable
    /// when an identified loan has such a tail. The moved transfers are
    /// intra-cluster (same creation-tree tag), which rule 1 of
    /// simplification drops anyway, so the target's application-level
    /// stream is unchanged by construction. Profit-exact: the profile
    /// sums over the whole case.
    CrossTxSpread,
    /// Append a laundering chain — borrower → hop₁ → … → hopₖ → mixer →
    /// clean — of one equal amount of the cluster's top profit token,
    /// with the mixer labeled `Tornado.Cash` and hops/clean joining the
    /// cluster. The equal-amount chain collapses to one one-way app-level
    /// transfer under rule 3, which no trade window form can consume.
    /// Profit-exact: the amount leaves via the mixer and returns to the
    /// (cluster-owned) clean address.
    MixerHops,
}

impl Operator {
    /// The metamorphic operators, in campaign round-robin order.
    pub const METAMORPHIC: [Operator; 7] = [
        Operator::ReorderTxs,
        Operator::InterleaveBenign,
        Operator::RenameAddresses,
        Operator::ScaleAmounts,
        Operator::WrapNoopFrames,
        Operator::StripFlashLoan,
        Operator::SplitRepay,
    ];

    /// The economic operators, in search order.
    pub const ECONOMIC: [Operator; 4] = [
        Operator::PartialRepay,
        Operator::LoanSplit,
        Operator::CrossTxSpread,
        Operator::MixerHops,
    ];

    /// Stable snake-case name (JSON reports, reproducer labels, corpus
    /// file names).
    pub fn name(self) -> &'static str {
        match self {
            Operator::ReorderTxs => "reorder_txs",
            Operator::InterleaveBenign => "interleave_benign",
            Operator::RenameAddresses => "rename_addresses",
            Operator::ScaleAmounts => "scale_amounts",
            Operator::WrapNoopFrames => "wrap_noop_frames",
            Operator::StripFlashLoan => "strip_flash_loan",
            Operator::SplitRepay => "split_repay",
            Operator::PartialRepay => "partial_repay",
            Operator::LoanSplit => "loan_split",
            Operator::CrossTxSpread => "cross_tx_spread",
            Operator::MixerHops => "mixer_hops",
        }
    }

    /// Which contract family the operator belongs to. `SplitRepay` moved
    /// from Breaking to Preserving when the coalescing pre-pass shipped:
    /// adjacent same-edge splits are now re-fused before pattern matching.
    pub fn family(self) -> OpFamily {
        match self {
            Operator::StripFlashLoan => OpFamily::Breaking,
            Operator::PartialRepay
            | Operator::LoanSplit
            | Operator::CrossTxSpread
            | Operator::MixerHops => OpFamily::Economic,
            _ => OpFamily::Preserving,
        }
    }

    /// Convenience: is this a detection-preserving operator?
    pub fn is_preserving(self) -> bool {
        self.family() == OpFamily::Preserving
    }

    /// The metamorphic entry point: applies the operator to the seed,
    /// returning the mutant plus its expectations, or `None` when the
    /// operator is economic or not applicable (e.g. no SBS-only
    /// transaction to split).
    pub fn apply(self, seed: &SeedCase, rng: &mut FuzzRng) -> Option<Mutant> {
        let mut case = seed.case.clone();
        let mut expect = seed.expect.clone();
        match self {
            Operator::ReorderTxs => reorder(&mut case, &mut expect, rng)?,
            Operator::InterleaveBenign => interleave(&mut case, &mut expect, &seed.pool, rng)?,
            Operator::RenameAddresses => {
                let salt = rng.next_u64();
                let (renamed, _) = rename_case(&case, salt);
                case = renamed;
            }
            Operator::ScaleAmounts => scale(&mut case, rng)?,
            Operator::WrapNoopFrames => wrap_noop(&mut case, rng)?,
            Operator::StripFlashLoan => strip_flash_loan(&mut case, &mut expect, seed, rng)?,
            Operator::SplitRepay => split_repay(&mut case, seed, rng)?,
            Operator::PartialRepay
            | Operator::LoanSplit
            | Operator::CrossTxSpread
            | Operator::MixerHops => return None,
        }
        Some(Mutant { chain: vec![self], case, expect })
    }

    /// The economic entry point: restructures `cand.case.txs[target]`,
    /// consulting `analysis` (the target's analysis under the detector
    /// being searched) for loans and matches, and extending `cluster` with
    /// any attacker-controlled accounts it introduces. The result extends
    /// `cand`'s chain by this operator and expects each transaction it
    /// appends to come out cleared. Returns `None` when the operator is
    /// metamorphic or not applicable; `cluster` changes only on success.
    pub fn apply_economic(
        self,
        cand: &Mutant,
        target: usize,
        analysis: &Analysis,
        cluster: &mut HashSet<Address>,
        rng: &mut FuzzRng,
    ) -> Option<Mutant> {
        let case = match self {
            Operator::PartialRepay => partial_repay(&cand.case, target, analysis, rng)?,
            Operator::LoanSplit => loan_split(&cand.case, target, analysis, rng)?,
            Operator::CrossTxSpread => cross_tx_spread(&cand.case, target, analysis, cluster)?,
            Operator::MixerHops => mixer_hops(&cand.case, target, cluster, rng)?,
            _ => return None,
        };
        let mut expect = cand.expect.clone();
        expect.resize(case.txs.len(), TxExpect::flag_only(false));
        let chain = cand.chain.iter().copied().chain([self]).collect();
        Some(Mutant { chain, case, expect })
    }
}

impl std::fmt::Display for Operator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// `"op+op+…"` — an operator chain as a stable display string.
pub fn chain_name(chain: &[Operator]) -> String {
    chain.iter().map(|op| op.name()).collect::<Vec<_>>().join("+")
}

// ---------------------------------------------------------------------------
// Preserving operators
// ---------------------------------------------------------------------------

fn reorder(case: &mut FuzzCase, expect: &mut [TxExpect], rng: &mut FuzzRng) -> Option<()> {
    if case.txs.len() < 2 {
        return None;
    }
    let mut perm: Vec<usize> = (0..case.txs.len()).collect();
    rng.shuffle(&mut perm);
    let txs = std::mem::take(&mut case.txs);
    let old_expect = expect.to_vec();
    let mut reordered_txs = Vec::with_capacity(txs.len());
    let mut txs: Vec<Option<TxRecord>> = txs.into_iter().map(Some).collect();
    for (slot, &src) in perm.iter().enumerate() {
        reordered_txs.push(txs[src].take().expect("permutation visits each index once"));
        expect[slot] = old_expect[src].clone();
    }
    case.txs = reordered_txs;
    Some(())
}

fn interleave(
    case: &mut FuzzCase,
    expect: &mut Vec<TxExpect>,
    pool: &[(TxRecord, TxExpect)],
    rng: &mut FuzzRng,
) -> Option<()> {
    if pool.is_empty() {
        return None;
    }
    let next_id = case
        .txs
        .iter()
        .map(|tx| tx.id.0)
        .chain(pool.iter().map(|(tx, _)| tx.id.0))
        .max()
        .unwrap_or(0)
        + 1;
    let n = rng.range(1, 3);
    for j in 0..n {
        let (tx, ex) = rng.pick(pool);
        let mut tx = tx.clone();
        tx.id.0 = next_id + j as u64;
        let at = rng.below(case.txs.len() + 1);
        case.txs.insert(at, tx);
        expect.insert(at, ex.clone());
    }
    Some(())
}

/// Renames every address and every non-ETH token in `case` through a fresh
/// bijection derived from `salt`, returning the renamed case and the
/// address mapping (old → new) for property tests.
///
/// `Address::ZERO` (the BlackHole) and `TokenId::ETH` are fixed points:
/// simplify rewrites the WETH token to ETH unconditionally, and the mint /
/// burn trade forms test for the BlackHole, so moving either would change
/// semantics.
pub fn rename_case(case: &FuzzCase, salt: u64) -> (FuzzCase, Vec<(Address, Address)>) {
    // Deterministic first-appearance order: transactions, then creation
    // records, then labels sorted by address bytes (label iteration order
    // is a hash map's, so it must not influence the mapping).
    let mut order: Vec<Address> = Vec::new();
    let mut seen: HashSet<Address> = HashSet::new();
    let note = |order: &mut Vec<Address>, seen: &mut HashSet<Address>, a: Address| {
        if !a.is_zero() && seen.insert(a) {
            order.push(a);
        }
    };
    for tx in &case.txs {
        note(&mut order, &mut seen, tx.from);
        note(&mut order, &mut seen, tx.to);
        for t in &tx.trace.transfers {
            note(&mut order, &mut seen, t.sender);
            note(&mut order, &mut seen, t.receiver);
        }
        for f in &tx.trace.frames {
            note(&mut order, &mut seen, f.caller);
            note(&mut order, &mut seen, f.callee);
        }
        for l in &tx.trace.logs {
            note(&mut order, &mut seen, l.emitter);
            for (_, v) in &l.params {
                if let LogValue::Addr(a) = v {
                    note(&mut order, &mut seen, *a);
                }
            }
        }
        for c in &tx.trace.created {
            note(&mut order, &mut seen, *c);
        }
    }
    for r in &case.creations {
        note(&mut order, &mut seen, r.creator);
        note(&mut order, &mut seen, r.created);
    }
    let mut labeled: Vec<Address> = case.labels.iter().map(|(a, _)| a).collect();
    labeled.sort_by_key(|a| *a.as_bytes());
    for a in labeled {
        note(&mut order, &mut seen, a);
    }

    let mut addr_map: HashMap<Address, Address> = HashMap::with_capacity(order.len());
    let mut used: HashSet<Address> = HashSet::new();
    for (i, old) in order.iter().enumerate() {
        // `from_seed` is hash-derived; bump the nonce on the (vanishingly
        // unlikely) collision so the mapping stays injective.
        let mut nonce = 0u32;
        let fresh = loop {
            let candidate = Address::from_seed(&format!("fuzz:rename:{salt}:{i}:{nonce}"));
            if !candidate.is_zero() && used.insert(candidate) {
                break candidate;
            }
            nonce += 1;
        };
        addr_map.insert(*old, fresh);
    }
    let map = |a: Address| if a.is_zero() { a } else { addr_map[&a] };

    // Token bijection: ETH fixed, everything else moved past the highest
    // observed index so old and new ranges cannot collide.
    let mut tokens: Vec<TokenId> = Vec::new();
    let mut tok_seen: HashSet<TokenId> = HashSet::new();
    let note_tok = |tokens: &mut Vec<TokenId>, tok_seen: &mut HashSet<TokenId>, t: TokenId| {
        if !t.is_eth() && tok_seen.insert(t) {
            tokens.push(t);
        }
    };
    for tx in &case.txs {
        for t in &tx.trace.transfers {
            note_tok(&mut tokens, &mut tok_seen, t.token);
        }
        for l in &tx.trace.logs {
            for (_, v) in &l.params {
                if let LogValue::Token(t) = v {
                    note_tok(&mut tokens, &mut tok_seen, *t);
                }
            }
        }
    }
    if let Some(w) = case.weth {
        note_tok(&mut tokens, &mut tok_seen, w);
    }
    let base = tokens.iter().map(|t| t.index()).max().unwrap_or(0) as u32 + 1;
    let tok_map: HashMap<TokenId, TokenId> = tokens
        .iter()
        .enumerate()
        .map(|(i, &t)| (t, TokenId::from_index(base + i as u32)))
        .collect();
    let map_tok = |t: TokenId| if t.is_eth() { t } else { tok_map[&t] };

    let mut out = case.clone();
    for tx in &mut out.txs {
        tx.from = map(tx.from);
        tx.to = map(tx.to);
        for t in &mut tx.trace.transfers {
            t.sender = map(t.sender);
            t.receiver = map(t.receiver);
            t.token = map_tok(t.token);
        }
        for f in &mut tx.trace.frames {
            f.caller = map(f.caller);
            f.callee = map(f.callee);
        }
        for l in &mut tx.trace.logs {
            l.emitter = map(l.emitter);
            for (_, v) in &mut l.params {
                match v {
                    LogValue::Addr(a) => *a = map(*a),
                    LogValue::Token(t) => *t = map_tok(*t),
                    _ => {}
                }
            }
        }
        for c in &mut tx.trace.created {
            *c = map(*c);
        }
    }
    for r in &mut out.creations {
        r.creator = map(r.creator);
        r.created = map(r.created);
    }
    let mut labels = crate::labels::Labels::new();
    for (a, name) in case.labels.iter() {
        labels.set(map(a), name);
    }
    out.labels = labels;
    out.weth = case.weth.map(map_tok);

    let pairs = order.iter().map(|&a| (a, addr_map[&a])).collect();
    (out, pairs)
}

fn scale(case: &mut FuzzCase, rng: &mut FuzzRng) -> Option<()> {
    let k: u128 = 1 << rng.range(1, 3); // 2, 4 or 8
    let limit = u128::MAX / k;
    let fits = case.txs.iter().all(|tx| {
        tx.trace.transfers.iter().all(|t| t.amount <= limit)
            && tx.trace.frames.iter().all(|f| f.value <= limit)
            && tx.trace.logs.iter().all(|l| {
                l.params.iter().all(|(_, v)| match v {
                    LogValue::Amount(a) => *a <= limit,
                    _ => true,
                })
            })
    });
    if !fits {
        return None;
    }
    for tx in &mut case.txs {
        for t in &mut tx.trace.transfers {
            t.amount *= k;
        }
        for f in &mut tx.trace.frames {
            f.value *= k;
        }
        for l in &mut tx.trace.logs {
            for (_, v) in &mut l.params {
                if let LogValue::Amount(a) = v {
                    *a *= k;
                }
            }
        }
    }
    Some(())
}

fn wrap_noop(case: &mut FuzzCase, rng: &mut FuzzRng) -> Option<()> {
    if case.txs.is_empty() {
        return None;
    }
    let tx_index = rng.below(case.txs.len());
    let tx = &mut case.txs[tx_index];
    let mut seq = next_seq(tx);
    let n = rng.range(1, 3);
    if seq + n as u32 + 1 > MAX_SEQ {
        return None;
    }
    for _ in 0..n {
        let function = (*rng.pick(NOOP_FRAMES)).to_string();
        debug_assert!(!RESERVED_FRAMES.contains(&function.as_str()));
        tx.trace.frames.push(CallFrame {
            seq,
            depth: 1,
            caller: tx.from,
            callee: tx.to,
            function,
            value: 0,
        });
        seq += 1;
    }
    debug_assert!(!RESERVED_LOGS.contains(&"FuzzNoop"));
    tx.trace.logs.push(EventLog {
        seq,
        emitter: tx.to,
        name: "FuzzNoop".to_string(),
        params: vec![("probe".to_string(), LogValue::Text("metamorphic".to_string()))],
    });
    Some(())
}

/// First free sequence position in a transaction's action stream
/// (transfers, logs and call frames share one ordering).
fn next_seq(tx: &TxRecord) -> u32 {
    let t = tx.trace.transfers.iter().map(|t| t.seq).max().unwrap_or(0);
    let l = tx.trace.logs.iter().map(|l| l.seq).max().unwrap_or(0);
    let f = tx.trace.frames.iter().map(|f| f.seq).max().unwrap_or(0);
    t.max(l).max(f) + 1
}

// ---------------------------------------------------------------------------
// Breaking operators (and split_repay, preserving only because of the
// coalescing pre-pass — it stays next to strip_flash_loan because both
// attack detection evidence rather than exploit a pipeline invariance)
// ---------------------------------------------------------------------------

fn strip_flash_loan(
    case: &mut FuzzCase,
    expect: &mut [TxExpect],
    seed: &SeedCase,
    rng: &mut FuzzRng,
) -> Option<()> {
    let targets: Vec<usize> = seed
        .refs
        .iter()
        .enumerate()
        .filter(|(_, a)| !a.flash_loans.is_empty())
        .map(|(i, _)| i)
        .collect();
    if targets.is_empty() {
        return None;
    }
    let i = *rng.pick(&targets);
    let tx = &mut case.txs[i];
    tx.trace.frames.retain(|f| f.function != "uniswapV2Call");
    tx.trace.logs.retain(|l| l.name != "FlashLoan" && l.name != "LogOperation");
    expect[i] = TxExpect { flagged: false, flash_loan: Some(false), kinds: Some(Vec::new()) };
    Some(())
}

fn split_repay(case: &mut FuzzCase, seed: &SeedCase, rng: &mut FuzzRng) -> Option<()> {
    // Applicable to transactions whose *only* detection evidence is one
    // SBS match — the historical blind spot. The seed expectations must
    // hold unchanged (preserving contract); against
    // `DetectorConfig::weakened` this same mutation clears the attack, and
    // `tests/fuzz_oracle.rs` pins both behaviours.
    let targets: Vec<usize> = seed
        .refs
        .iter()
        .enumerate()
        .filter(|(_, a)| a.matches.len() == 1 && a.matches[0].kind == PatternKind::Sbs)
        .map(|(i, _)| i)
        .collect();
    if targets.is_empty() {
        return None;
    }
    let i = *rng.pick(&targets);
    split_resell_legs(&mut case.txs[i], &seed.refs[i].matches[0], 2)
}

/// The leg splitter behind [`Operator::SplitRepay`] and
/// [`Operator::PartialRepay`]: splits every `sbs.target_token` transfer
/// from the match's resell trade onward — including pass-through chains,
/// so no full-amount leg survives for a simplifier without coalescing to
/// re-merge — into `k` consecutive transfers over the same edge.
///
/// Every seq in the transaction (transfers, logs, frames) is multiplied by
/// `k` to open `k − 1` fresh slots after each leg. The original leg keeps
/// its seq and the remainder `amount − (k − 1)·⌊amount / k⌋`; the parts
/// of `⌊amount / k⌋` follow it. Coalescing the split journal
/// ([`crate::simplify::coalesce_transfers`]) therefore gives back the
/// original one with every seq multiplied by `k`.
///
/// Returns `None`, leaving `tx` untouched, when the match has no trade,
/// no leg qualifies, a leg carries fewer than `k` units, or the scaled
/// seqs would overflow the span id's 20 bits.
pub fn split_resell_legs(tx: &mut TxRecord, sbs: &PatternMatch, k: u32) -> Option<()> {
    let sell_seq = *sbs.trade_seqs.last()?;
    if next_seq(tx).checked_mul(k)?.checked_add(k)? > MAX_SEQ {
        return None;
    }
    let legs: Vec<usize> = tx
        .trace
        .transfers
        .iter()
        .enumerate()
        .filter(|(_, t)| t.seq >= sell_seq && t.token == sbs.target_token)
        .map(|(j, _)| j)
        .collect();
    if legs.is_empty() || legs.iter().any(|&j| tx.trace.transfers[j].amount < k as u128) {
        return None;
    }
    for t in &mut tx.trace.transfers {
        t.seq *= k;
    }
    for l in &mut tx.trace.logs {
        l.seq *= k;
    }
    for f in &mut tx.trace.frames {
        f.seq *= k;
    }
    // Back to front so earlier leg indices stay valid.
    for &j in legs.iter().rev() {
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
    Some(())
}

// ---------------------------------------------------------------------------
// Economic operators (each clones the case only once its target qualifies)
// ---------------------------------------------------------------------------

fn partial_repay(
    case: &FuzzCase,
    target: usize,
    analysis: &Analysis,
    rng: &mut FuzzRng,
) -> Option<FuzzCase> {
    // 2- or 3-way split; drawn before the applicability checks so the RNG
    // stream does not depend on which branch rejects.
    let k = 2 + rng.below(2) as u32;
    let sbs = analysis.matches.iter().find(|m| m.kind == PatternKind::Sbs)?;
    let mut case = case.clone();
    split_resell_legs(&mut case.txs[target], sbs, k)?;
    Some(case)
}

fn loan_split(
    case: &FuzzCase,
    target: usize,
    analysis: &Analysis,
    rng: &mut FuzzRng,
) -> Option<FuzzCase> {
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
    Some(case)
}

fn cross_tx_spread(
    case: &FuzzCase,
    target: usize,
    analysis: &Analysis,
    cluster: &HashSet<Address>,
) -> Option<FuzzCase> {
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
    Some(case)
}

fn mixer_hops(
    case: &FuzzCase,
    target: usize,
    cluster: &mut HashSet<Address>,
    rng: &mut FuzzRng,
) -> Option<FuzzCase> {
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
    Some(case)
}
