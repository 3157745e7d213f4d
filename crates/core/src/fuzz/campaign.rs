//! The budgeted fuzzing campaign: seed pre-pass, operator round-robin,
//! shrink-on-failure, and the statistics the `fuzz` bench bin serializes.
//!
//! The campaign is deliberately detector-agnostic plumbing: everything it
//! knows about correctness lives in the [`DiffOracle`] and the seed's
//! ground-truth expectations. The caller observes every passing mutant
//! through a visitor (the bench bin uses it to diff the `baselines` crate
//! against the same mutants).

use super::ops::{OpFamily, Operator};
use super::oracle::{DiffOracle, Violation};
use super::rng::FuzzRng;
use super::shrink::shrink_mutant;
use super::{CaseVerdict, Mutant, SeedCase};

/// Campaign budget.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// RNG seed; equal seeds replay the identical campaign.
    pub seed: u64,
    /// Target number of *generated* mutants (not counting inapplicable
    /// operator draws). Draws are capped at `4 × mutants + 64`, so a seed
    /// where most operators are inapplicable still terminates.
    pub mutants: usize,
}

impl CampaignConfig {
    /// A budget of `mutants` mutants from `seed`.
    pub fn new(seed: u64, mutants: usize) -> Self {
        CampaignConfig { seed, mutants }
    }
}

/// Per-operator campaign counters.
#[derive(Clone, Debug)]
pub struct OperatorStats {
    /// The operator.
    pub operator: Operator,
    /// Mutants generated (operator applicable).
    pub generated: usize,
    /// Draws where the operator was inapplicable.
    pub skipped: usize,
    /// Oracle violations among this operator's mutants.
    pub violations: usize,
}

/// One oracle violation, shrunk and ready to persist.
#[derive(Clone, Debug)]
pub struct ViolationReport {
    /// Campaign iteration (0 for the pre-pass).
    pub iteration: usize,
    /// Stable violation code ([`Violation::code`]).
    pub code: &'static str,
    /// Human-readable violation message at find time.
    pub message: String,
    /// The shrunk reproducing mutant; its [`Mutant::label`] names the
    /// operator (`"seed"` for the unmutated pre-pass).
    pub shrunk: Mutant,
    /// Oracle runs the shrink spent.
    pub shrink_runs: usize,
}

impl ViolationReport {
    /// Shrinks the failing `mutant` found at `iteration`.
    fn shrink(mutant: &Mutant, iteration: usize, v: &Violation, oracle: &DiffOracle) -> Self {
        let (shrunk, shrink_runs) = shrink_mutant(mutant, oracle);
        ViolationReport { iteration, code: v.code(), message: v.to_string(), shrunk, shrink_runs }
    }
}

/// Per-transaction detector confusion counters, judged against ground
/// truth (scenario metadata): the campaign's over preserving mutants, the
/// `evade` bench's over the seed corpus.
#[derive(Clone, Copy, Debug, Default)]
pub struct Confusion {
    /// Ground-truth attacks the detector flagged.
    pub tp: usize,
    /// Benign transactions the detector flagged.
    pub fp: usize,
    /// Benign transactions the detector cleared.
    pub tn: usize,
    /// Ground-truth attacks the detector cleared.
    pub fn_: usize,
}

impl Confusion {
    /// Counts one transaction: ground truth `expected`, verdict `got`.
    pub fn tally(&mut self, expected: bool, got: bool) {
        match (expected, got) {
            (true, true) => self.tp += 1,
            (false, true) => self.fp += 1,
            (false, false) => self.tn += 1,
            (true, false) => self.fn_ += 1,
        }
    }

    /// Precision `tp / (tp + fp)` (1 when nothing was flagged).
    pub fn precision(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp, 1.0)
    }

    /// Recall `tp / (tp + fn)` (1 when there was nothing to catch).
    pub fn recall(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_, 1.0)
    }

    /// False-positive rate `fp / (fp + tn)` (0 when the denominator is 0).
    pub fn fp_rate(&self) -> f64 {
        ratio(self.fp, self.fp + self.tn, 0.0)
    }

    /// False-negative rate `fn / (fn + tp)` (0 when the denominator is 0).
    pub fn fn_rate(&self) -> f64 {
        ratio(self.fn_, self.fn_ + self.tp, 0.0)
    }
}

/// `num / den`, or `empty` when the denominator is 0.
fn ratio(num: usize, den: usize, empty: f64) -> f64 {
    if den == 0 {
        empty
    } else {
        num as f64 / den as f64
    }
}

/// Everything a campaign run produced.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Budget the run was asked for.
    pub requested: usize,
    /// Mutants actually generated.
    pub generated: usize,
    /// Inapplicable operator draws.
    pub skipped: usize,
    /// Per-operator counters, in round-robin order.
    pub per_operator: Vec<OperatorStats>,
    /// Violations found on mutants, in discovery order.
    pub violations: Vec<ViolationReport>,
    /// Violation found on the *unmutated* seed by the pre-pass, if any
    /// (an injected detector bug shows up here before any mutation).
    pub seed_violation: Option<ViolationReport>,
    /// Detector-vs-ground-truth confusion over preserving mutants.
    pub confusion: Confusion,
}

impl CampaignReport {
    /// Total violation count including the seed pre-pass.
    pub fn total_violations(&self) -> usize {
        self.violations.len() + usize::from(self.seed_violation.is_some())
    }
}

/// Runs a campaign: a pre-pass of the oracle over the unmutated seed,
/// then `config.mutants` mutants drawn round-robin from
/// [`Operator::METAMORPHIC`]. Failing mutants are shrunk and reported;
/// passing mutants are handed to `on_mutant` with their verdicts.
pub fn run_campaign(
    seed: &SeedCase,
    oracle: &DiffOracle,
    config: &CampaignConfig,
    mut on_mutant: impl FnMut(&Mutant, &[CaseVerdict]),
) -> CampaignReport {
    let mut report = CampaignReport {
        requested: config.mutants,
        generated: 0,
        skipped: 0,
        per_operator: Operator::METAMORPHIC
            .into_iter()
            .map(|operator| OperatorStats { operator, generated: 0, skipped: 0, violations: 0 })
            .collect(),
        violations: Vec::new(),
        seed_violation: None,
        confusion: Confusion::default(),
    };

    // Pre-pass: the unmutated history must already satisfy ground truth
    // and four-way agreement; otherwise every mutant would just echo the
    // same detector bug.
    if let Err(v) = oracle.check(&seed.case, &seed.expect) {
        report.seed_violation = Some(ViolationReport::shrink(&seed.as_mutant(), 0, &v, oracle));
    }

    let mut rng = FuzzRng::new(config.seed);
    let max_draws = config.mutants * 4 + 64;
    let mut draws = 0usize;
    while report.generated < config.mutants && draws < max_draws {
        let op = Operator::METAMORPHIC[draws % Operator::METAMORPHIC.len()];
        let iteration = draws + 1;
        draws += 1;
        let stats = report
            .per_operator
            .iter_mut()
            .find(|s| s.operator == op)
            .expect("per_operator covers METAMORPHIC");
        let Some(mutant) = op.apply(seed, &mut rng) else {
            report.skipped += 1;
            stats.skipped += 1;
            continue;
        };
        report.generated += 1;
        stats.generated += 1;
        match oracle.check_mutant(&mutant) {
            Ok(verdicts) => {
                if op.family() == OpFamily::Preserving {
                    for (v, e) in verdicts.iter().zip(&mutant.expect) {
                        report.confusion.tally(e.flagged, v.flagged);
                    }
                }
                on_mutant(&mutant, &verdicts);
            }
            Err(v) => {
                stats.violations += 1;
                report.violations.push(ViolationReport::shrink(&mutant, iteration, &v, oracle));
            }
        }
    }
    report
}
