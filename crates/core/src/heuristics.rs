//! Post-detection heuristics (paper §VI-C).
//!
//! "The investment strategy of yield aggregators can also show the behavior
//! of Multi-Round Buying and Selling. When we apply a heuristics rule on
//! the detection result, i.e., we assume that a transaction initiated from
//! yield aggregators is not an attack, the precision for the MBS pattern
//! can increase to 80%."

use ethsim::{Address, CreationIndex};

use crate::labels::Labels;
use crate::tagging::tag_of;

/// Whether `initiator` belongs to one of the named aggregator applications
/// (by direct label or creation-tree tag).
pub fn initiated_by_aggregator(
    initiator: Address,
    aggregator_apps: &[&str],
    labels: &Labels,
    creations: &CreationIndex,
) -> bool {
    match tag_of(initiator, labels, creations).app_name() {
        Some(app) => aggregator_apps.contains(&app),
        None => false,
    }
}

/// The outcome of one post-detection heuristic check, in the shape the
/// provenance trace records it ([`crate::trace::TraceEvent::Heuristic`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeuristicOutcome {
    /// Stable heuristic name.
    pub name: &'static str,
    /// Whether the report survives the check (`false` = would be dropped).
    pub passed: bool,
    /// Human-readable explanation of the verdict.
    pub detail: String,
}

/// Runs the §VI-C yield-aggregator-initiator rule against one report's
/// initiator and returns a recordable outcome instead of filtering.
pub fn aggregator_heuristic(
    initiator: Address,
    aggregator_apps: &[&str],
    labels: &Labels,
    creations: &CreationIndex,
) -> HeuristicOutcome {
    let is_aggregator = initiated_by_aggregator(initiator, aggregator_apps, labels, creations);
    HeuristicOutcome {
        name: "aggregator_initiator",
        passed: !is_aggregator,
        detail: if is_aggregator {
            format!("initiator {initiator} is tagged as a yield aggregator")
        } else {
            format!("initiator {initiator} is not a known yield aggregator")
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethsim::CreationRecord;

    #[test]
    fn direct_label_detection() {
        let agg = Address::from_u64(1);
        let user = Address::from_u64(2);
        let mut labels = Labels::new();
        labels.set(agg, "Yearn");
        let idx = CreationIndex::new(&[]);
        assert!(initiated_by_aggregator(agg, &["Yearn"], &labels, &idx));
        assert!(!initiated_by_aggregator(user, &["Yearn"], &labels, &idx));
        assert!(!initiated_by_aggregator(agg, &["Kyber"], &labels, &idx));
    }

    #[test]
    fn tree_propagated_label_detection() {
        // operator EOA labeled; the strategy bot EOA... rather: the
        // aggregator deployer created the strategy contract that initiates.
        let operator = Address::from_u64(1);
        let strategy = Address::from_u64(2);
        let mut labels = Labels::new();
        labels.set(operator, "Kyber");
        let idx = CreationIndex::new(&[CreationRecord {
            creator: operator,
            created: strategy,
            block: 0,
        }]);
        assert!(initiated_by_aggregator(strategy, &["Kyber"], &labels, &idx));
    }

    #[test]
    fn aggregator_heuristic_reports_both_verdicts() {
        let agg = Address::from_u64(1);
        let user = Address::from_u64(2);
        let mut labels = Labels::new();
        labels.set(agg, "Yearn");
        let idx = CreationIndex::new(&[]);
        let failed = aggregator_heuristic(agg, &["Yearn"], &labels, &idx);
        assert_eq!(failed.name, "aggregator_initiator");
        assert!(!failed.passed);
        assert!(failed.detail.contains("yield aggregator"));
        let passed = aggregator_heuristic(user, &["Yearn"], &labels, &idx);
        assert!(passed.passed);
        assert!(passed.detail.contains(&user.to_string()));
    }
}
