//! The beam search over operator chains.
//!
//! Per flagged target transaction the search grows chains of
//! [`Operator::ECONOMIC`] operators breadth-first: every candidate in the
//! beam is extended by every operator, candidates that stop being flagged
//! (while every appended transaction stays clean and the profitability
//! invariant holds) are recorded as [`Evasion`]s, and the rest are ranked
//! by how much detector signal remains (fewer pattern matches = closer to
//! evading) and truncated to the beam width. The whole search draws from
//! one [`FuzzRng`], so a `(seed case, detector, config)` triple fully
//! determines the report — CI replays are exact.

use std::collections::HashSet;

use ethsim::Address;

use crate::detector::LeiShen;
use crate::fuzz::shrink::shrink_txs;
use crate::fuzz::{
    chain_name, shrink_mutant, DiffOracle, FuzzRng, Mutant, Operator, Reproducer, SeedCase,
};

use super::profit::{attacker_cluster, gain_signs_preserved, profit_profile, ProfitProfile};

/// Search budget and shape. The two presets are [`EvadeConfig::new`]
/// (full budget, bench runs) and [`EvadeConfig::smoke`] (capped budget,
/// CI) — both must find the weakened detector's blind spots, so the smoke
/// caps are sized to still cover depth-2 chains on every target.
#[derive(Clone, Copy, Debug)]
pub struct EvadeConfig {
    /// RNG seed; the search is a pure function of (seed case, detector,
    /// config), so equal seeds replay exactly.
    pub seed: u64,
    /// Candidates kept per depth level, per target.
    pub beam_width: usize,
    /// Maximum operator-chain length.
    pub max_chain_len: usize,
    /// Hard cap on operator applications across the whole search.
    pub max_attempts: usize,
    /// Stop probing a target after this many evasions (distinct chains).
    pub max_per_target: usize,
}

impl EvadeConfig {
    /// Full-budget search (bench runs).
    pub fn new(seed: u64) -> Self {
        EvadeConfig { seed, beam_width: 4, max_chain_len: 3, max_attempts: 4096, max_per_target: 4 }
    }

    /// CI smoke budget: shallower beam and chains, an order of magnitude
    /// fewer attempts — still enough to find every depth-≤2 evasion of
    /// the weakened detector on the standard seed.
    pub fn smoke(seed: u64) -> Self {
        EvadeConfig { seed, beam_width: 2, max_chain_len: 2, max_attempts: 1024, max_per_target: 4 }
    }
}

/// A surviving evasion: the restructured history is still profitable
/// (same per-token gain signs) but the detector no longer flags the
/// target transaction.
#[derive(Clone, Debug)]
pub struct Evasion {
    /// Index of the evaded transaction in the seed case.
    pub target: usize,
    /// The evading mutant: its chain in application order, the mutated
    /// history, and the seed's refined expectations (the target *stays*
    /// expected-flagged — that is what makes the evasion an oracle
    /// failure) plus a cleared expectation per appended transaction.
    pub mutant: Mutant,
    /// The attacker cluster's per-token net gains after mutation.
    pub profile: ProfitProfile,
}

/// What one search did and found.
#[derive(Clone, Debug)]
pub struct EvadeReport {
    /// Surviving evasions, in discovery order.
    pub evasions: Vec<Evasion>,
    /// Operator applications attempted (including inapplicable ones).
    pub attempts: usize,
    /// Candidates rejected for violating the profitability invariant.
    pub invariant_rejections: usize,
    /// Flagged transactions the search probed.
    pub targets_probed: usize,
    /// Evasions by chain length: `by_chain_len[d - 1]` counts chains of
    /// length `d`.
    pub by_chain_len: Vec<usize>,
    /// Successful applications per operator (candidate produced, whether
    /// or not it went on to evade).
    pub op_applied: Vec<(Operator, usize)>,
    /// Evasions whose chain contains the operator (an evasion with a
    /// multi-operator chain counts once per distinct operator).
    pub op_evading: Vec<(Operator, usize)>,
}

impl EvadeReport {
    fn new(max_chain_len: usize) -> Self {
        EvadeReport {
            evasions: Vec::new(),
            attempts: 0,
            invariant_rejections: 0,
            targets_probed: 0,
            by_chain_len: vec![0; max_chain_len],
            op_applied: Operator::ECONOMIC.iter().map(|&op| (op, 0)).collect(),
            op_evading: Operator::ECONOMIC.iter().map(|&op| (op, 0)).collect(),
        }
    }

    fn bump(table: &mut [(Operator, usize)], op: Operator) {
        if let Some(entry) = table.iter_mut().find(|(o, _)| *o == op) {
            entry.1 += 1;
        }
    }
}

/// One beam candidate.
struct Cand {
    mutant: Mutant,
    cluster: HashSet<Address>,
    /// Remaining detector signal on the target (pattern-match count);
    /// the beam keeps the lowest-signal candidates.
    score: usize,
}

/// Runs the guided evasion search against `detector`.
///
/// Targets are the transactions the seed expects flagged *and* the
/// detector under search actually flags (a transaction the detector
/// already misses is a plain false negative, not an evasion). The
/// returned report is deterministic in `(seed, detector, config)`.
pub fn evade_search(seed: &SeedCase, detector: &LeiShen, config: &EvadeConfig) -> EvadeReport {
    let mut rng = FuzzRng::new(config.seed);
    let mut report = EvadeReport::new(config.max_chain_len);

    let base_view = seed.case.view();
    let targets: Vec<usize> = seed
        .expect
        .iter()
        .enumerate()
        .filter(|(i, e)| {
            e.flagged && detector.analyze(&seed.case.txs[*i], &base_view).is_attack()
        })
        .map(|(i, _)| i)
        .collect();

    'targets: for target in targets {
        report.targets_probed += 1;
        let base_cluster = attacker_cluster(&seed.case.txs[target]);
        let base_profile = profit_profile(&seed.case.txs, &base_cluster);
        let base_score =
            detector.analyze(&seed.case.txs[target], &base_view).matches.len();
        let mut beam =
            vec![Cand { mutant: seed.as_mutant(), cluster: base_cluster, score: base_score }];
        let mut found_for_target = 0usize;

        for depth in 1..=config.max_chain_len {
            let mut next: Vec<Cand> = Vec::new();
            for cand in &beam {
                // Re-analyze under the candidate's own view: operators
                // consult the analysis (loans, matches) for targets.
                let cand_view = cand.mutant.case.view();
                let analysis = detector.analyze(&cand.mutant.case.txs[target], &cand_view);
                for op in Operator::ECONOMIC {
                    if report.attempts >= config.max_attempts {
                        continue 'targets;
                    }
                    report.attempts += 1;
                    let mut cluster = cand.cluster.clone();
                    let Some(mutant) =
                        op.apply_economic(&cand.mutant, target, &analysis, &mut cluster, &mut rng)
                    else {
                        continue;
                    };
                    EvadeReport::bump(&mut report.op_applied, op);

                    let profile = profit_profile(&mutant.case.txs, &cluster);
                    if !gain_signs_preserved(&base_profile, &profile) {
                        report.invariant_rejections += 1;
                        continue;
                    }

                    // Only the transactions this step appended must stay
                    // clean; the target must stop being flagged.
                    let view = mutant.case.view();
                    let target_analysis = detector.analyze(&mutant.case.txs[target], &view);
                    let appended_clean = mutant.case.txs[cand.mutant.case.txs.len()..]
                        .iter()
                        .all(|tx| !detector.analyze(tx, &view).is_attack());

                    if !target_analysis.is_attack() && appended_clean {
                        report.by_chain_len[depth - 1] += 1;
                        for evading in Operator::ECONOMIC {
                            if mutant.chain.contains(&evading) {
                                EvadeReport::bump(&mut report.op_evading, evading);
                            }
                        }
                        report.evasions.push(Evasion { target, mutant, profile });
                        found_for_target += 1;
                        if found_for_target >= config.max_per_target {
                            continue 'targets;
                        }
                    } else {
                        next.push(Cand {
                            mutant,
                            cluster,
                            score: target_analysis.matches.len(),
                        });
                    }
                }
            }
            // Stable sort: equal-signal candidates keep discovery order,
            // so the beam (and thus the whole search) is deterministic.
            next.sort_by_key(|c| c.score);
            next.truncate(config.beam_width);
            if next.is_empty() {
                break;
            }
            beam = next;
        }
    }
    report
}

/// Shrinks an evasion and wraps it as a persistable [`Reproducer`].
///
/// The reduction predicate is *dual*: the weakened oracle must keep
/// failing with `wrong_flag` (the evasion stays live) **and** the fixed
/// oracle must keep passing (the default config still flags the target).
/// A single-oracle shrink would happily strip the attack itself — the
/// weakened detector misses an empty transaction just as well — and the
/// reproducer would stop documenting anything. Whole transactions are
/// removed under the dual predicate first (the shrinker's
/// whole-transaction pass; the history collapses to the evaded
/// transaction); the generic item-level
/// [`shrink_mutant`] then runs as an opportunistic second pass, kept only
/// if its result still satisfies both oracles.
pub fn evasion_reproducer(
    evasion: &Evasion,
    weakened: &DiffOracle,
    fixed: &DiffOracle,
    seed: u64,
) -> Reproducer {
    let dual = |m: &Mutant| -> bool {
        matches!(weakened.check_mutant(m), Err(v) if v.code() == "wrong_flag")
            && fixed.check_mutant(m).is_ok()
    };
    let mut keep = shrink_txs(evasion.mutant.clone(), dual);
    let (shrunk, _runs) = shrink_mutant(&keep, weakened);
    if dual(&shrunk) {
        keep = shrunk;
    }
    let violation = format!(
        "tx #{}: still profitable but no longer flagged (chain {})",
        evasion.target,
        chain_name(&evasion.mutant.chain)
    );
    Reproducer::new(&keep, seed, violation)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_names_join_operator_names() {
        assert_eq!(chain_name(&[Operator::PartialRepay]), "partial_repay");
        assert_eq!(
            chain_name(&[Operator::LoanSplit, Operator::PartialRepay]),
            "loan_split+partial_repay"
        );
        assert_eq!(chain_name(&[]), "");
    }

    #[test]
    fn operator_names_round_trip() {
        // A reproducer label names its operators; each name must lead back
        // to exactly one operator of the registry.
        let all: Vec<Operator> =
            Operator::METAMORPHIC.into_iter().chain(Operator::ECONOMIC).collect();
        for op in &all {
            assert_eq!(op.to_string(), op.name());
            let back: Vec<&Operator> = all.iter().filter(|o| o.name() == op.name()).collect();
            assert_eq!(back, [op]);
        }
    }

    #[test]
    fn smoke_budget_is_a_strict_subset_of_the_full_budget() {
        let full = EvadeConfig::new(42);
        let smoke = EvadeConfig::smoke(42);
        assert!(smoke.beam_width <= full.beam_width);
        assert!(smoke.max_chain_len <= full.max_chain_len);
        assert!(smoke.max_attempts <= full.max_attempts);
        assert_eq!(smoke.seed, full.seed);
    }

    #[test]
    fn report_tables_cover_every_operator() {
        let r = EvadeReport::new(3);
        assert_eq!(r.by_chain_len.len(), 3);
        assert_eq!(r.op_applied.len(), Operator::ECONOMIC.len());
        assert_eq!(r.op_evading.len(), Operator::ECONOMIC.len());
    }
}
