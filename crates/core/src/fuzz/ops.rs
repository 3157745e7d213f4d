//! Metamorphic mutation operators.
//!
//! Each operator transforms a whole [`FuzzCase`] and states, as part of its
//! contract, what must happen to the verdicts:
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
//!
//! Soundness notes justifying each relation live on the variants; they are
//! load-bearing (an unsound operator turns into false oracle violations).

use std::collections::{HashMap, HashSet};

use ethsim::{Address, CallFrame, EventLog, LogValue, TokenId, Transfer, TxRecord};

use crate::patterns::PatternKind;

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
pub(crate) const MAX_SEQ: u32 = (1 << 20) - 2;

/// Whether an operator's contract preserves or breaks detection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpFamily {
    /// Verdicts must be byte-identical to the seed's.
    Preserving,
    /// The targeted flagged transaction must come out cleared.
    Breaking,
}

/// The mutation operators, in campaign round-robin order.
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
    /// Split every resell leg of an SBS-only attack into two halves. The
    /// halves are *adjacent* transfers over one (sender, receiver, token)
    /// edge, so the split-transfer coalescing pre-pass
    /// ([`crate::simplify::coalesce_transfers`]) re-fuses them before
    /// tagging and the verdict is unchanged. This operator used to be the
    /// detector's blind spot: without coalescing
    /// ([`crate::config::DetectorConfig::weakened`]) no Table III window
    /// form can consume the halves together, the resell looks like half
    /// the bought amount — far outside the 0.1% symmetry tolerance — and
    /// SBS wrongly clears the attack. The `evade` search rediscovers that
    /// evasion against the weakened config; under the default config this
    /// is a preserving operator.
    SplitRepay,
}

impl Operator {
    /// All operators, in campaign round-robin order.
    pub const ALL: [Operator; 7] = [
        Operator::ReorderTxs,
        Operator::InterleaveBenign,
        Operator::RenameAddresses,
        Operator::ScaleAmounts,
        Operator::WrapNoopFrames,
        Operator::StripFlashLoan,
        Operator::SplitRepay,
    ];

    /// Stable snake-case name (JSON reports, corpus file names).
    pub fn name(self) -> &'static str {
        match self {
            Operator::ReorderTxs => "reorder_txs",
            Operator::InterleaveBenign => "interleave_benign",
            Operator::RenameAddresses => "rename_addresses",
            Operator::ScaleAmounts => "scale_amounts",
            Operator::WrapNoopFrames => "wrap_noop_frames",
            Operator::StripFlashLoan => "strip_flash_loan",
            Operator::SplitRepay => "split_repay",
        }
    }

    /// Parses [`Operator::name`] back (corpus loading).
    pub fn from_name(name: &str) -> Option<Operator> {
        Operator::ALL.into_iter().find(|op| op.name() == name)
    }

    /// Which contract family the operator belongs to. `SplitRepay` moved
    /// from Breaking to Preserving when the coalescing pre-pass shipped:
    /// adjacent same-edge splits are now re-fused before pattern matching.
    pub fn family(self) -> OpFamily {
        match self {
            Operator::StripFlashLoan => OpFamily::Breaking,
            _ => OpFamily::Preserving,
        }
    }

    /// Convenience: is this a detection-preserving operator?
    pub fn is_preserving(self) -> bool {
        self.family() == OpFamily::Preserving
    }

    /// Applies the operator to the seed, returning the mutant plus its
    /// expectations, or `None` when the operator is not applicable (e.g.
    /// no SBS-only transaction to split).
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
        }
        Some(Mutant { operator: self, case, expect })
    }
}

impl std::fmt::Display for Operator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
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
pub(crate) fn next_seq(tx: &TxRecord) -> u32 {
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
    // SBS match — the historical blind spot. The splits are adjacent
    // same-edge transfers, so the coalescing pre-pass re-fuses them and
    // the seed expectations must hold unchanged (preserving contract).
    // Against `DetectorConfig::weakened` this same mutation clears the
    // attack; `tests/fuzz_oracle.rs` pins both behaviours.
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
    let m = &seed.refs[i].matches[0];
    let sell_seq = *m.trade_seqs.last()?;
    let tx = &mut case.txs[i];
    if next_seq(tx) * 2 + 1 > MAX_SEQ {
        return None;
    }
    // Split every target-token transfer from the resell phase onward —
    // including the whole pass-through chain, so simplification cannot
    // re-merge a full-amount leg. Every split leg must carry at least two
    // units for the halves to be non-empty.
    let candidates: Vec<usize> = tx
        .trace
        .transfers
        .iter()
        .enumerate()
        .filter(|(_, t)| t.seq >= sell_seq && t.token == m.target_token)
        .map(|(j, _)| j)
        .collect();
    if candidates.is_empty()
        || candidates.iter().any(|&j| tx.trace.transfers[j].amount < 2)
    {
        return None;
    }
    for t in &mut tx.trace.transfers {
        t.seq *= 2;
    }
    for l in &mut tx.trace.logs {
        l.seq *= 2;
    }
    for f in &mut tx.trace.frames {
        f.seq *= 2;
    }
    // Walk candidates back to front so earlier indices stay valid.
    for &j in candidates.iter().rev() {
        let t = tx.trace.transfers[j].clone();
        let half = t.amount / 2;
        tx.trace.transfers[j].amount = half;
        tx.trace.transfers.insert(
            j + 1,
            Transfer { seq: t.seq + 1, amount: t.amount - half, ..t },
        );
    }
    Some(())
}
