//! # Guided evasion search — hunting the detector's blind spots
//!
//! The fuzz module ([`crate::fuzz`]) checks that verdicts are *stable*
//! under mutations with known contracts. This module asks the adversarial
//! question instead: can an attacker keep the economics of a flash-loan
//! price-manipulation attack — the profit actually extracted from the
//! victim protocols — while restructuring the transfer journal so the
//! pattern matchers no longer fire? That is the robustness claim the paper
//! leaves implicit, and the one a real adversary probes first (cf.
//! FlashSyn's counter-example-driven synthesis in PAPERS.md).
//!
//! Two pieces, over the economic family of the one operator registry
//! ([`Operator::ECONOMIC`]: partial-repay routing, multi-provider loan
//! splitting, cross-tx attack spreading and mixer laundering hops, which
//! carry no verdict contract — the *search* decides what flips):
//!
//! * [`profit`] — the profitability invariant. Every economic mutation
//!   must leave the attacker cluster's per-token net gains with the same
//!   sign (in practice, the exact values): an "evasion" that gives up the
//!   profit is just a benign transaction.
//! * [`search`] — a beam search composing operator chains per flagged
//!   target, scoring toward "still profitable, no longer flagged". Found
//!   evasions are shrunk with the fuzz shrinker and persisted as
//!   [`crate::fuzz::Reproducer`]s (operator `"evade:<chain>"`), which the
//!   test suite promotes into `tests/corpus/evade_*.json`.
//!
//! [`Operator::ECONOMIC`]: crate::fuzz::Operator::ECONOMIC
//!
//! The engine is proven in both directions: against
//! [`crate::DetectorConfig::weakened`] (the pre-fix detector, no
//! split-transfer coalescing) it must find verdict-flipping variants,
//! and against the default config — with this PR's coalescing matcher fix
//! — the same search budget must come back empty.
//!
//! [`Operator::ECONOMIC`]: crate::fuzz::Operator::ECONOMIC

pub mod profit;
pub mod search;

pub use profit::{attacker_cluster, gain_signs_preserved, profit_profile, ProfitProfile};
pub use search::{evade_search, evasion_reproducer, EvadeConfig, EvadeReport, Evasion};
