//! # leishen — detecting flash-loan based price manipulation attacks
//!
//! A from-scratch Rust reproduction of **LeiShen** (*Detecting Flash Loan
//! Based Attacks in Ethereum*, Xia et al., ICDCS 2023). LeiShen takes a
//! flash-loan transaction and decides whether it is a *flash loan based
//! price manipulation attack* (flpAttack) by matching three attack patterns
//! distilled from 22 real-world incidents:
//!
//! * **KRP — Keep Raising Price**: ≥ 5 consecutive buys of a target token
//!   from the same seller at rising prices, then a sell (e.g. bZx-2's 18 ×
//!   20 ETH sUSD buys).
//! * **SBS — Symmetrical Buying and Selling**: buy X, pump X's price with a
//!   middle trade, sell *exactly the bought amount* of X at the higher
//!   price, with ≥ 28% volatility between the legs (e.g. bZx-1's 112 WBTC).
//! * **MBS — Multi-Round Buying and Selling**: ≥ 3 profitable buy-then-sell
//!   rounds against the same counterparty (e.g. Harvest's 3 × 50M USDC
//!   vault cycles).
//!
//! The pipeline (paper Fig. 5) has three stages, each a module here:
//!
//! 1. **Transfer history extraction** — [`flashloan`] identifies flash-loan
//!    transactions by the Table II call/event signatures of Uniswap, AAVE
//!    and dYdX; the ordered account-level transfers come from the
//!    transaction's replay trace ([`ethsim::TxRecord`]).
//! 2. **Application-level transfer construction** — [`tagging`] tags every
//!    account with a DeFi application via creation-tree propagation
//!    (Fig. 7), then [`mod@simplify`] removes intra-app transfers, removes
//!    Wrapped-Ether traffic (unifying WETH with ETH), and merges inter-app
//!    pass-through transfers (±0.1%).
//! 3. **Attack pattern identification** — [`trades`] recognizes Swap /
//!    Mint-liquidity / Remove-liquidity actions from 2–3-transfer windows
//!    (Table III) and [`patterns`] matches KRP / SBS / MBS.
//!
//! [`detector::LeiShen`] wires the stages together; [`analytics`] computes
//! the per-pair price volatility of Table I and the profit statistics of
//! Table VII; [`heuristics`] implements the yield-aggregator-initiator rule
//! that lifts MBS precision from 56.1% to 80% (§VI-C).
//!
//! ```
//! use leishen::{DetectorConfig, LeiShen};
//!
//! let detector = LeiShen::new(DetectorConfig::default());
//! assert_eq!(detector.config().krp_min_buys, 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytics;
pub mod config;
pub mod detector;
pub mod evade;
pub mod flashloan;
pub mod forensics;
pub mod fuzz;
pub mod heuristics;
pub mod labels;
pub mod patterns;
pub mod report;
pub mod resilience;
pub mod scan;
pub mod sched;
pub mod simplify;
pub mod store;
pub mod stream;
pub mod tagging;
pub mod telemetry;
pub mod trace;
pub mod trades;

pub use analytics::{cluster_reports, pair_volatility, profit_of, AttackCluster, PairVolatility};
pub use config::DetectorConfig;
pub use detector::{Analysis, AnalysisScratch, ChainView, LeiShen};
pub use evade::{
    attacker_cluster, chain_name, evade_search, evasion_reproducer, gain_signs_preserved,
    profit_profile, EvadeConfig, EvadeOp, EvadeReport, Evasion, ProfitProfile,
};
pub use flashloan::{identify_flash_loans, FlashLoanEvent, Provider};
pub use forensics::{trace_exits, ExitKind, ExitReport};
pub use fuzz::{CaseVerdict, DiffOracle, FuzzCase, FuzzRng, Mutant, SeedCase, TxExpect};
pub use heuristics::{
    aggregator_heuristic, filter_aggregator_initiated, initiated_by_aggregator, HeuristicOutcome,
};
pub use labels::Labels;
pub use patterns::{PatternKind, PatternMatch, PatternScratch};
pub use report::AttackReport;
pub use resilience::{
    install_quiet_hook, Fault, FaultInjector, FaultPlan, InducedFault, InputFault, IoFault,
    IoFaultPlan, PlannedFault, Quarantine, ResilienceConfig, ResilientScan,
};
pub use scan::{LocalTagCache, ScanEngine, ScanStats, TagCache};
pub use sched::WavePlan;
pub use simplify::{
    simplify, simplify_into, simplify_into_observed, DropRule, SimplifyAction, SimplifyStats,
};
pub use store::{
    ArmedIoFault, Checkpoint, DirMedia, DurableBlock, FaultMedia, FsyncPolicy, JournalConfig,
    JournalRecovery, LogConfig, LogMetrics, Media, MemMedia, RecoveryReport, SegmentLog,
    StoreError, VerdictJournal, VerdictRecord, WriteTotals,
};
pub use stream::{
    Block, BlockReport, BoundedQueue, DurableReport, QueueStats, StreamConfig, StreamProducer,
    StreamReport, StreamService,
};
pub use tagging::{tag_transfers, tag_transfers_with_into, Tag, TagMap, TaggedTransfer};
pub use telemetry::{
    Observer, RecordingSink, Stage, StageSummary, TxCounters, TxCountersTotal, STAGES,
    STAGE_COUNT,
};
pub use trace::{
    Decision, FlightRecorder, Reason, SpanRecord, TraceEvent, TxProvenance, Verdict, WorkerTracer,
};
pub use trades::{identify_trades, identify_trades_into, Trade, TradeKind, TradeSide};
