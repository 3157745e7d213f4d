//! The differential oracle: four pipeline configurations, one verdict.
//!
//! Every mutant is analyzed by (1) a serial reference loop over
//! [`LeiShen::analyze`], (2) a 4-worker parallel scan, (3) the same scan
//! with the metrics sink recording, and (4) with the flight recorder
//! tracing. The instrumented paths are zero-cost abstractions that claim
//! to be observation-only — the oracle is the generative check of that
//! claim. The serial verdicts are then checked against the per-transaction
//! expectations (ground-truth flag, pinned flash-loan bit and pattern
//! kinds).

use crate::config::DetectorConfig;
use crate::detector::{Analysis, LeiShen};
use crate::patterns::PatternKind;
use crate::scan::{ScanEngine, TagCache};
use crate::telemetry::RecordingSink;
use crate::trace::FlightRecorder;

use super::{CaseVerdict, FuzzCase, Mutant, TxExpect};

/// Display names of the four configurations, in run order. The serial
/// loop is the reference the other three are diffed against.
pub const CONFIG_NAMES: [&str; 4] = ["serial", "parallel", "metered", "traced"];

/// An oracle failure: either two configurations disagreed, or the
/// reference verdict contradicts a transaction's expectation.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// Configuration `config` produced a different analysis than the
    /// serial reference for the transaction at `tx_index`.
    ConfigDisagreement {
        /// Which configuration disagreed (one of [`CONFIG_NAMES`]).
        config: &'static str,
        /// Index into the case's transaction list.
        tx_index: usize,
    },
    /// The detector's flag contradicts the ground-truth expectation.
    WrongFlag {
        /// Index into the case's transaction list.
        tx_index: usize,
        /// Ground-truth expectation.
        expected: bool,
        /// What the detector said.
        got: CaseVerdict,
    },
    /// Flash-loan identification contradicts a pinned expectation.
    WrongLoan {
        /// Index into the case's transaction list.
        tx_index: usize,
        /// Pinned expectation.
        expected: bool,
        /// Whether a flash loan was identified.
        got: bool,
    },
    /// Matched pattern kinds contradict a pinned expectation.
    WrongKinds {
        /// Index into the case's transaction list.
        tx_index: usize,
        /// Pinned sorted kinds.
        expected: Vec<PatternKind>,
        /// Observed sorted kinds.
        got: Vec<PatternKind>,
    },
}

impl Violation {
    /// Stable machine-readable code; the shrinker reduces while the
    /// *same code* keeps reproducing (so it cannot wander from, say, a
    /// parallel-divergence bug to an unrelated expectation failure).
    pub fn code(&self) -> &'static str {
        match self {
            Violation::ConfigDisagreement { .. } => "config_disagreement",
            Violation::WrongFlag { .. } => "wrong_flag",
            Violation::WrongLoan { .. } => "wrong_loan",
            Violation::WrongKinds { .. } => "wrong_kinds",
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::ConfigDisagreement { config, tx_index } => {
                write!(f, "config {config} disagrees with serial reference at tx #{tx_index}")
            }
            Violation::WrongFlag { tx_index, expected, got } => write!(
                f,
                "tx #{tx_index}: expected flagged={expected}, got flagged={} \
                 (flash_loan={}, kinds={:?})",
                got.flagged, got.flash_loan, got.kinds
            ),
            Violation::WrongLoan { tx_index, expected, got } => {
                write!(f, "tx #{tx_index}: expected flash_loan={expected}, got {got}")
            }
            Violation::WrongKinds { tx_index, expected, got } => {
                write!(f, "tx #{tx_index}: expected kinds {expected:?}, got {got:?}")
            }
        }
    }
}

/// The four-configuration differential oracle.
pub struct DiffOracle {
    detector: LeiShen,
    engine: ScanEngine,
}

impl DiffOracle {
    /// Builds an oracle around a detector configuration. The parallel
    /// engine uses 4 workers with a small chunk size (oversubscription
    /// allowed) so worker interleavings actually vary.
    pub fn new(config: DetectorConfig) -> Self {
        DiffOracle {
            detector: LeiShen::new(config),
            engine: ScanEngine::new(4).with_chunk_size(4).allow_oversubscription(),
        }
    }

    /// The detector under test.
    pub fn detector(&self) -> &LeiShen {
        &self.detector
    }

    /// Runs all four configurations over `case` and cross-checks them.
    /// Returns the serial reference analyses on agreement.
    pub fn analyses(&self, case: &FuzzCase) -> Result<Vec<Analysis>, Violation> {
        let view = case.view();
        let records = case.records();
        let serial: Vec<Analysis> =
            records.iter().map(|r| self.detector.analyze(r, &view)).collect();

        let parallel = self.engine.scan_with_cache(&self.detector, &records, &view, &TagCache::new());
        diff("parallel", &serial, &parallel)?;

        let sink = RecordingSink::new();
        let metered =
            self.engine.scan_metered(&self.detector, &records, &view, &TagCache::new(), &sink);
        diff("metered", &serial, &metered)?;

        let recorder = FlightRecorder::with_capacity(64);
        let traced =
            self.engine.scan_traced(&self.detector, &records, &view, &TagCache::new(), &recorder);
        diff("traced", &serial, &traced)?;

        Ok(serial)
    }

    /// Runs the four configurations and checks the reference verdicts
    /// against `expect` (one entry per transaction). Returns the verdicts
    /// on success.
    ///
    /// # Panics
    /// Panics if `expect.len() != case.txs.len()`.
    pub fn check(&self, case: &FuzzCase, expect: &[TxExpect]) -> Result<Vec<CaseVerdict>, Violation> {
        assert_eq!(expect.len(), case.txs.len(), "one expectation per transaction");
        let analyses = self.analyses(case)?;
        let verdicts: Vec<CaseVerdict> = analyses.iter().map(CaseVerdict::of).collect();
        for (tx_index, (v, e)) in verdicts.iter().zip(expect).enumerate() {
            if v.flagged != e.flagged {
                return Err(Violation::WrongFlag {
                    tx_index,
                    expected: e.flagged,
                    got: v.clone(),
                });
            }
            if let Some(loan) = e.flash_loan {
                if v.flash_loan != loan {
                    return Err(Violation::WrongLoan {
                        tx_index,
                        expected: loan,
                        got: v.flash_loan,
                    });
                }
            }
            if let Some(kinds) = &e.kinds {
                if &v.kinds != kinds {
                    return Err(Violation::WrongKinds {
                        tx_index,
                        expected: kinds.clone(),
                        got: v.kinds.clone(),
                    });
                }
            }
        }
        Ok(verdicts)
    }

    /// Checks a mutant (case + expectations in one value).
    pub fn check_mutant(&self, mutant: &Mutant) -> Result<Vec<CaseVerdict>, Violation> {
        self.check(&mutant.case, &mutant.expect)
    }
}

/// First index where `got` differs from the serial reference.
fn diff(config: &'static str, serial: &[Analysis], got: &[Analysis]) -> Result<(), Violation> {
    if serial.len() != got.len() {
        return Err(Violation::ConfigDisagreement { config, tx_index: serial.len().min(got.len()) });
    }
    for (tx_index, (a, b)) in serial.iter().zip(got).enumerate() {
        if a != b {
            return Err(Violation::ConfigDisagreement { config, tx_index });
        }
    }
    Ok(())
}
