//! # ethsim — a deterministic Ethereum-like execution substrate
//!
//! This crate is the blockchain substrate for the LeiShen reproduction
//! (*Detecting Flash Loan Based Attacks in Ethereum*, ICDCS 2023). The paper
//! runs against a modified Geth archive node whose only role, from the
//! detector's perspective, is to replay a transaction and hand back:
//!
//! * the **totally ordered history of asset transfers** (native ETH transfers
//!   interleaved with ERC20 `Transfer` events in happened-before order — the
//!   authors' Geth patch exists precisely to recover this ordering),
//! * the **call frames** (function names of internal transactions) and
//!   **event logs** used to identify flash-loan transactions (paper Table II),
//! * the **contract-creation relationships** used by account tagging
//!   (the XBlock-ETH dataset in the paper).
//!
//! `ethsim` reproduces exactly that interface with an in-memory, journaled
//! world state. Contracts are modelled as Rust routines that manipulate
//! journaled storage through a [`TxContext`]; a transaction either commits or
//! reverts atomically, which is the property flash loans rely on.
//!
//! ## Quick tour
//!
//! ```
//! use ethsim::{Chain, ChainConfig, Address};
//!
//! # fn main() -> Result<(), ethsim::SimError> {
//! let mut chain = Chain::new(ChainConfig::default());
//! let alice = chain.create_eoa("alice");
//! let bob = chain.create_eoa("bob");
//! chain.state_mut().credit_eth(alice, 1_000)?;
//!
//! let tx = chain.execute(alice, bob, "transfer", |ctx| {
//!     ctx.transfer_eth(alice, bob, 250)
//! })?;
//!
//! let record = chain.replay(tx).expect("tx was recorded");
//! assert!(record.status.is_success());
//! assert_eq!(record.trace.transfers.len(), 1);
//! assert_eq!(chain.state().eth_balance(bob), 250);
//! # Ok(())
//! # }
//! ```
//!
//! The modules mirror the system inventory in `DESIGN.md`:
//!
//! * [`address`] — 160-bit account identifiers,
//! * [`token`] — the token registry (ETH plus ERC20-style tokens),
//! * [`math`] — overflow-checked amount arithmetic including 256-bit
//!   intermediate `mul_div`,
//! * [`state`] — journaled world state with atomic revert,
//! * [`transfer`], [`log`], [`frame`] — the per-transaction trace,
//! * [`context`] — the execution context contracts run in,
//! * [`chain`] — blocks, timestamps, transaction execution and replay,
//! * [`creation`] — the contract-creation dataset, its index, and the FNV
//!   hasher for address-keyed maps,
//! * [`calendar`] — block-timestamp → calendar conversion for the weekly /
//!   monthly series in the paper's Fig. 1 and Fig. 8.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod calendar;
pub mod chain;
pub mod context;
pub mod creation;
pub mod error;
pub mod frame;
pub mod log;
pub mod math;
pub mod state;
pub mod token;
pub mod transfer;
pub mod tx;
pub mod validate;

pub use address::Address;
pub use calendar::{Date, MonthIndex, WeekIndex};
pub use chain::{Chain, ChainConfig, ExecStats};
pub use context::TxContext;
pub use creation::{BuildFnv, CreationIndex, CreationRecord, FnvHasher};
pub use error::SimError;
pub use frame::CallFrame;
pub use log::{EventLog, LogValue};
pub use state::{AccountKind, SKey, WorldState};
pub use token::{TokenId, TokenInfo};
pub use transfer::Transfer;
pub use tx::{SpanId, TxId, TxRecord, TxStatus, TxTrace};
pub use validate::{validate_record, RecordViolation, MAX_AMOUNT};

/// Convenience result alias used throughout the substrate.
pub type Result<T> = std::result::Result<T, SimError>;
