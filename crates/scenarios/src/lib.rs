//! # leishen-scenarios — attacks, workloads and the synthetic wild corpus
//!
//! The paper evaluates LeiShen on (a) 22 real-world flpAttacks (Tables I
//! and IV) and (b) 272,984 wild flash-loan transactions from the first
//! 14,500,000 Ethereum blocks (Tables V–VII, Figs. 1 and 8). Neither input
//! is available offline, so this crate rebuilds both:
//!
//! * [`world`] — a standard deployment of the whole protocol suite
//!   (tokens, Uniswap, flash-loan providers, aggregator, label cloud, USD
//!   prices) that every scenario runs on;
//! * [`attacks`] — each of the 22 studied attacks re-scripted from its
//!   published step-by-step description, with Table I / Table IV expected
//!   outcomes as machine-checkable metadata;
//! * [`benign`] — legitimate flash-loan workloads (arbitrage, collateral
//!   swap, routed trades, aggregator strategies) and the near-miss
//!   confusers the precision study needs;
//! * [`generator`] — a seeded synthetic transaction stream over the paper's
//!   Jan 2020 – Apr 2022 timeline whose composition reproduces the shapes
//!   of Fig. 1, Fig. 8 and Tables V–VII;
//! * [`prices`] — attack-day USD prices for profit accounting;
//! * [`arrival`] — block-arrival curves, and the one place a corpus is
//!   cut into stream blocks ([`ArrivalCurve::cut`]);
//! * [`chaos`] and [`crash`] — the two fault campaigns, each planned and
//!   graded once here: input corruption with the chaos corpus and its
//!   verdict grader, and the crash matrix with its
//!   crash→reopen→resume oracle. The `chaos` and `recover` bins and the
//!   integration tests call the same graders.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod attacks;
pub mod benign;
pub mod chaos;
pub mod crash;
pub mod fuzz;
pub mod generator;
pub mod laundering;
pub mod mev;
pub mod prices;
pub mod world;

pub use arrival::ArrivalCurve;
pub use attacks::{run_all_attacks, AttackSpec, ExecutedAttack};
pub use crash::{crash_matrix, CrashCase};
pub use generator::{GeneratedTx, Generator, GeneratorConfig, TxClass};
pub use world::World;
