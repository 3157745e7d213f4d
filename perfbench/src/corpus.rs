//! Workload inputs: a generated world, its corpus in scan order, and the
//! detector's view of it — everything `setup_s` times.

use std::time::Instant;

use ethsim::TxRecord;
use leishen::patterns::PatternKind;
use leishen::resilience::Verdict;
use leishen::store::VerdictRecord;
use leishen::{Analysis, ChainView, DetectorConfig, Labels, LeiShen};
use leishen_bench::{corpus_records, wild_world};
use leishen_scenarios::{GeneratedTx, World};

use crate::catalog::Layers;

/// A generated corpus with its ground truth, in transaction-id order.
pub struct Corpus {
    /// The world the corpus executed on.
    pub world: World,
    /// Ground truth, aligned with [`Corpus::records`].
    pub truth: Vec<GeneratedTx>,
    /// The detector's label cloud.
    pub labels: Labels,
    /// Seconds spent generating (world set-up plus `ethsim` execution).
    pub generate_s: f64,
}

impl Corpus {
    /// Generates the wild corpus for `seed` at `scale`.
    pub fn generate(seed: u64, scale: f64) -> Self {
        let started = Instant::now();
        let (world, mut truth) = wild_world(seed, scale);
        let generate_s = started.elapsed().as_secs_f64();
        truth.sort_by_key(|t| t.tx);
        let labels = world.detector_labels();
        Corpus {
            world,
            truth,
            labels,
            generate_s,
        }
    }

    /// The replayed records, aligned with [`Corpus::truth`].
    pub fn records(&self) -> Vec<&TxRecord> {
        let records = corpus_records(&self.world, self.truth.iter().map(|t| t.tx));
        assert!(
            records.iter().zip(&self.truth).all(|(r, t)| r.id == t.tx),
            "records and ground truth are out of step"
        );
        records
    }

    /// Reports the `ethsim` layer: generating the corpus is where the
    /// executor ran, so its time is the generation time.
    pub fn ethsim_layers(&self, layers: &mut Layers) {
        let executed = self.world.chain.exec_stats().transactions;
        layers.set("ethsim.exec_s", self.generate_s);
        layers.set("ethsim.txs_executed", executed as f64);
        layers.set(
            "ethsim.exec_us_per_tx",
            self.generate_s * 1e6 / executed.max(1) as f64,
        );
    }

    /// The detector's view of the world.
    pub fn view(&self) -> ChainView<'_> {
        self.world.view(&self.labels)
    }
}

/// The paper's detector configuration.
pub fn detector() -> LeiShen {
    LeiShen::new(DetectorConfig::paper())
}

/// Sorted, deduplicated pattern kinds an analysis matched.
fn matched_kinds(analysis: &Analysis) -> Vec<PatternKind> {
    let mut kinds: Vec<PatternKind> = analysis.matches.iter().map(|m| m.kind).collect();
    kinds.sort();
    kinds.dedup();
    kinds
}

/// Checks a full-corpus scan against the generator's ground truth: the
/// flagged transactions are exactly those the generator planted, each with
/// the patterns it planted, and the per-pattern counts are Table V's
/// (KRP 21 / SBS 79 / MBS 107). Returns the failing detail, if any.
pub fn check_ground_truth<'a>(
    truth: &[GeneratedTx],
    analyses: impl Iterator<Item = &'a Analysis>,
) -> Result<String, String> {
    let mut flagged = 0usize;
    let mut wrong = 0usize;
    let mut per_kind = [0usize; 3];
    for (t, a) in truth.iter().zip(analyses) {
        let kinds = matched_kinds(a);
        let mut expected = t.class.expected_detections().to_vec();
        expected.sort();
        if a.is_attack() == expected.is_empty() || (a.is_attack() && kinds != expected) {
            wrong += 1;
        }
        if a.is_attack() {
            flagged += 1;
            for kind in kinds {
                match kind {
                    PatternKind::Krp => per_kind[0] += 1,
                    PatternKind::Sbs => per_kind[1] += 1,
                    PatternKind::Mbs => per_kind[2] += 1,
                    PatternKind::Kdp => {}
                }
            }
        }
    }
    let detail = format!(
        "{flagged} flagged, {wrong} differ from the generator, KRP {} / SBS {} / MBS {}",
        per_kind[0], per_kind[1], per_kind[2]
    );
    if wrong == 0 && flagged == 180 && per_kind == [21, 79, 107] {
        Ok(detail)
    } else {
        Err(detail)
    }
}

/// Positions at which two scans of one corpus disagree.
pub fn differing<T: PartialEq>(a: &[T], b: &[T]) -> u64 {
    (a.len().abs_diff(b.len()) + a.iter().zip(b).filter(|(x, y)| x != y).count()) as u64
}

/// A scan's verdicts in the journal's compact form (flagged or cleared,
/// and the matched patterns), so a run can hold pass 1's verdicts without
/// holding pass 1's analyses.
pub fn digest(verdicts: impl IntoIterator<Item = Verdict>) -> Vec<VerdictRecord> {
    verdicts
        .into_iter()
        .enumerate()
        .map(|(i, v)| VerdictRecord::from_verdict(&v, i as u64))
        .collect()
}
