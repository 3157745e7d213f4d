//! Shared fixtures for the integration tests.
//!
//! Every suite that walks the Table I corpus — golden snapshots, trace
//! goldens, the fuzz oracle — needs the same setup: build a [`World`],
//! execute the 22 reconstructed attacks, derive detector labels, and view
//! the chain. This module owns that sequence once so the suites cannot
//! drift apart on corpus size or configuration.
//!
//! Each integration-test binary compiles its own copy of this module and
//! typically uses a subset of it, hence the file-wide `dead_code` allow.
#![allow(dead_code)]

pub mod snapshot;

use std::path::PathBuf;

use ethsim::TxRecord;
use leishen::trace::TxProvenance;
use leishen::{ChainView, DetectorConfig, Labels, LeiShen, ScanEngine, SeedCase};
use leishen_scenarios::{ExecutedAttack, World};

/// The executed Table I corpus: the world the attacks ran in, their
/// execution handles, and the detector-facing label cloud.
pub struct AttackCorpus {
    /// The simulated chain after all 22 attacks have executed.
    pub world: World,
    /// One handle per reconstructed attack, in Table I order.
    pub attacks: Vec<ExecutedAttack>,
    /// Labels snapshotted from the world's protocol deployments.
    pub labels: Labels,
}

impl AttackCorpus {
    /// Builds a fresh world and runs the full 22-attack corpus in it.
    pub fn build() -> Self {
        let (world, attacks) = leishen_bench::known_attack_world();
        assert_eq!(attacks.len(), 22, "the Table I corpus has 22 attacks");
        let labels = world.detector_labels();
        AttackCorpus { world, attacks, labels }
    }

    /// The detector's chain view over this corpus.
    pub fn view(&self) -> ChainView<'_> {
        self.world.view(&self.labels)
    }

    /// The replayed record of one executed attack.
    pub fn record(&self, attack: &ExecutedAttack) -> &TxRecord {
        self.world.chain.replay(attack.tx).expect("attack recorded")
    }

    /// All attack records sorted by transaction id — the canonical input
    /// order for batch scans.
    pub fn sorted_records(&self) -> Vec<&TxRecord> {
        let mut records: Vec<&TxRecord> =
            self.attacks.iter().map(|a| self.record(a)).collect();
        records.sort_by_key(|r| r.id);
        records
    }

    /// How many corpus attacks the paper's LeiShen configuration flags
    /// (the `expect_leishen` ground-truth column).
    pub fn expected_flagged(&self) -> usize {
        self.attacks.iter().filter(|a| a.spec.expect_leishen).count()
    }
}

/// The seed every deterministic suite uses unless it is explicitly
/// sweeping seeds.
pub const DEFAULT_SEED: u64 = 42;

/// The fuzz/chaos seed corpus (22 attacks + benign workloads + pool)
/// under the paper configuration — the input every resilience and
/// equivalence suite shares.
pub fn seed_corpus() -> SeedCase {
    leishen_scenarios::fuzz::seed_case(DetectorConfig::paper())
}

/// The two engine shapes every identity suite compares: serial, and a
/// 4-worker engine with small chunks and the hardware cap lifted so the
/// threaded path genuinely runs on single-core CI machines.
pub fn engines() -> [ScanEngine; 2] {
    [
        ScanEngine::new(1),
        ScanEngine::new(4).with_chunk_size(4).allow_oversubscription(),
    ]
}

/// The detector under the paper's Table-to-Table configuration.
pub fn paper_detector() -> LeiShen {
    LeiShen::new(DetectorConfig::paper())
}

/// Whether the run should rewrite golden snapshots instead of comparing
/// (`UPDATE_GOLDEN=1`).
pub fn update_golden() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some()
}

/// `tests/<name>` resolved against the crate root, for golden and corpus
/// directories.
pub fn tests_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join(name)
}

/// Worker assignment and span timings vary run to run; the *content* of a
/// trace (stage sequence, events, decision) must not. Zeroes the former
/// so traces compare by the latter.
pub fn sanitized(mut trace: TxProvenance) -> TxProvenance {
    trace.worker = 0;
    for span in &mut trace.spans {
        span.start_ns = 0;
        span.end_ns = 0;
    }
    trace
}
