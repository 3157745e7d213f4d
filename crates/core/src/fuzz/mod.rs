//! # Metamorphic fuzzing and the differential oracle
//!
//! The golden corpus replays 22 fixed attacks; this module is the
//! *generative* adversary that probes the pipeline's invariants around
//! them. [`ops`] is the one registry of mutation operators over whole
//! `ethsim` transaction histories, in three families (paper terminology:
//! metamorphic relations over the detector, plus economic restructurings):
//!
//! * **detection-preserving** operators ([`ops::Operator::is_preserving`])
//!   — transaction reordering, benign-transaction interleaving,
//!   address/token renaming, power-of-two amount scaling, no-op call-frame
//!   wrapping, and repay splitting (re-fused by the coalescing pre-pass) —
//!   that must not change any verdict;
//! * **detection-breaking** operators — flash-loan leg removal — that must
//!   flip a flagged transaction to cleared;
//! * **economic** operators, which keep the attacker's profit and carry no
//!   verdict contract.
//!
//! Two searches walk the registry: this module's [`campaign`] draws the
//! metamorphic operators at random, and the beam-guided evasion search in
//! [`crate::evade`] composes chains of economic ones.
//!
//! Every mutant runs through four pipeline configurations (serial
//! reference, 4-worker parallel scan, metered scan, traced scan) and the
//! [`oracle::DiffOracle`] cross-checks the analyses against each other and
//! against per-transaction expectations. A failing mutant is
//! [`shrink`](shrink::shrink_mutant)-reduced to a minimal reproducing
//! history and can be persisted as JSON ([`persist`]) so the regression
//! becomes a permanent `tests/corpus/` case.
//!
//! Expectations are **ground truth** (scenario metadata: Table I outcomes
//! for attacks, benign-by-construction workloads), never re-derived from
//! the detector under test — which is what lets a campaign catch an
//! injected detector bug rather than blessing it.

pub mod campaign;
pub mod ops;
pub mod oracle;
pub mod persist;
pub mod rng;
pub mod shrink;

pub use campaign::{
    run_campaign, CampaignConfig, CampaignReport, Confusion, OperatorStats, ViolationReport,
};
pub use ops::{chain_name, rename_case, split_resell_legs, OpFamily, Operator};
pub use oracle::{DiffOracle, Violation};
pub use persist::{reproducer_from_json, reproducer_to_json, Reproducer};
pub use rng::FuzzRng;
pub use shrink::shrink_mutant;

use ethsim::{CreationRecord, TxRecord};

use crate::detector::{Analysis, ChainView, LeiShen};
use crate::labels::Labels;
use crate::patterns::PatternKind;
use ethsim::TokenId;

/// A self-contained transaction history: everything the detector needs to
/// analyze a batch, owned in one place so operators can mutate labels and
/// creations alongside the transactions (the renaming operator must).
#[derive(Clone, Debug)]
pub struct FuzzCase {
    /// The transactions under analysis, in scan order.
    pub txs: Vec<TxRecord>,
    /// Address labels (the detector's label cloud).
    pub labels: Labels,
    /// Contract-creation edges for tag propagation.
    pub creations: Vec<CreationRecord>,
    /// The Wrapped-Ether token, if deployed (simplify unifies it with ETH).
    pub weth: Option<TokenId>,
}

impl FuzzCase {
    /// Builds the detector's chain view over this case.
    pub fn view(&self) -> ChainView<'_> {
        ChainView::new(&self.labels, &self.creations, self.weth)
    }

    /// Borrowed records in scan order (the shape every scan API takes).
    pub fn records(&self) -> Vec<&TxRecord> {
        self.txs.iter().collect()
    }
}

/// Per-transaction expectation the oracle checks a verdict against.
///
/// `flagged` is ground truth from scenario metadata. `flash_loan` and
/// `kinds` are optional refinements: `None` skips the check (seed
/// pre-pass), `Some` pins the exact value (filled from the reference run
/// for preserving mutants, overridden to cleared for breaking mutants).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxExpect {
    /// Must the detector flag this transaction as an flpAttack?
    pub flagged: bool,
    /// Must a flash loan be identified (`None` = don't check)?
    pub flash_loan: Option<bool>,
    /// Exact sorted pattern kinds (`None` = don't check).
    pub kinds: Option<Vec<PatternKind>>,
}

impl TxExpect {
    /// Ground-truth-only expectation: checks the flag, nothing else.
    pub fn flag_only(flagged: bool) -> Self {
        TxExpect { flagged, flash_loan: None, kinds: None }
    }

    /// Expectation for a transaction a breaking operator just cleared:
    /// the flash loan may or may not survive the mutation, but no pattern
    /// may match.
    pub fn cleared() -> Self {
        TxExpect { flagged: false, flash_loan: None, kinds: Some(Vec::new()) }
    }
}

/// The observable verdict for one transaction, distilled from an
/// [`Analysis`] to what expectations talk about.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaseVerdict {
    /// Was a flash loan identified?
    pub flash_loan: bool,
    /// Was the transaction flagged as an flpAttack?
    pub flagged: bool,
    /// Matched pattern kinds, sorted and deduplicated.
    pub kinds: Vec<PatternKind>,
}

impl CaseVerdict {
    /// Distills an analysis into its verdict.
    pub fn of(analysis: &Analysis) -> Self {
        let mut kinds: Vec<PatternKind> = analysis.matches.iter().map(|m| m.kind).collect();
        kinds.sort();
        kinds.dedup();
        CaseVerdict {
            flash_loan: !analysis.flash_loans.is_empty(),
            flagged: analysis.is_attack(),
            kinds,
        }
    }
}

/// A mutated case plus the expectations it must satisfy.
#[derive(Clone, Debug)]
pub struct Mutant {
    /// The operators that produced this mutant, in application order:
    /// one metamorphic operator, a chain of economic ones, or none for the
    /// unmutated seed.
    pub chain: Vec<Operator>,
    /// The mutated history.
    pub case: FuzzCase,
    /// One expectation per transaction in `case.txs`, same order.
    pub expect: Vec<TxExpect>,
}

impl Mutant {
    /// Stable label naming how the mutant was made (reproducer `operator`
    /// fields, file names): `"seed"` for an empty chain, the operator's
    /// name for a metamorphic mutant, `"evade:<a>+<b>"` for an economic
    /// chain.
    pub fn label(&self) -> String {
        match self.chain.first() {
            None => "seed".to_string(),
            Some(op) if op.family() == OpFamily::Economic => {
                format!("evade:{}", chain_name(&self.chain))
            }
            Some(_) => chain_name(&self.chain),
        }
    }
}

/// A prepared fuzzing seed: the base history, ground-truth expectations
/// refined with reference verdicts, cached reference analyses (mutation
/// operators consult them to pick targets), and a pool of benign
/// transactions the interleaving operator draws from.
#[derive(Clone, Debug)]
pub struct SeedCase {
    /// The unmutated history.
    pub case: FuzzCase,
    /// Refined expectation per transaction (ground-truth flag, reference
    /// flash-loan bit and pattern kinds).
    pub expect: Vec<TxExpect>,
    /// Reference analyses of `case.txs`, computed serially at build time.
    pub refs: Vec<Analysis>,
    /// Benign transactions (with refined expectations) for interleaving.
    pub pool: Vec<(TxRecord, TxExpect)>,
}

impl SeedCase {
    /// Prepares a seed: runs the serial reference over `case` and the
    /// pool, and refines the ground-truth flags with reference
    /// flash-loan/kind observations (used only for mutant *consistency*
    /// checks — the flag itself always stays ground truth, so a detector
    /// bug surfaces as a flag mismatch, not a silently blessed kind).
    ///
    /// # Panics
    /// Panics if `flags.len() != case.txs.len()` or
    /// `pool_flags.len() != pool.len()`.
    pub fn prepare(
        case: FuzzCase,
        flags: &[bool],
        pool: Vec<TxRecord>,
        pool_flags: &[bool],
        detector: &LeiShen,
    ) -> Self {
        assert_eq!(flags.len(), case.txs.len(), "one flag per transaction");
        assert_eq!(pool_flags.len(), pool.len(), "one flag per pool transaction");
        let view = case.view();
        let refs: Vec<Analysis> =
            case.txs.iter().map(|tx| detector.analyze(tx, &view)).collect();
        let expect = flags
            .iter()
            .zip(&refs)
            .map(|(&flagged, analysis)| refine(flagged, analysis))
            .collect();
        let pool = pool
            .into_iter()
            .zip(pool_flags)
            .map(|(tx, &flagged)| {
                let analysis = detector.analyze(&tx, &view);
                (tx, refine(flagged, &analysis))
            })
            .collect();
        SeedCase { case, expect, refs, pool }
    }

    /// The seed as a mutant with an empty chain (the campaign's pre-pass,
    /// the root of an evasion search).
    pub fn as_mutant(&self) -> Mutant {
        Mutant { chain: Vec::new(), case: self.case.clone(), expect: self.expect.clone() }
    }
}

/// Ground-truth flag + reference-run refinements.
fn refine(flagged: bool, analysis: &Analysis) -> TxExpect {
    let v = CaseVerdict::of(analysis);
    TxExpect { flagged, flash_loan: Some(v.flash_loan), kinds: Some(v.kinds) }
}
