//! Integration: the guided evasion search engine (`leishen::evade`).
//!
//! * Against the **weakened** detector (no split-transfer coalescing — the
//!   pre-fix matcher) a CI-sized search budget finds at least five
//!   distinct still-profitable verdict-flipping variants, every one of
//!   them routed through the partial-repay blind spot.
//! * Against the **default** detector (with this PR's coalescing fix) the
//!   identical budget comes back empty.
//! * Found evasions are shrunk and promoted into `tests/corpus/` as
//!   `evade_*.json` golden entries; every committed entry must be flagged
//!   by the default config and missed by the weakened one. Regenerate
//!   with `UPDATE_GOLDEN=1 cargo test --test evade_search`.
//! * Property tests: every economic operator preserves the attacker
//!   cluster's per-token gain signs on arbitrary targets and RNG seeds,
//!   and the whole search is a pure function of its seed.

use std::sync::OnceLock;

use proptest::prelude::*;

use leishen::evade::{
    attacker_cluster, evade_search, evasion_reproducer, gain_signs_preserved, profit_profile,
    EvadeConfig,
};
use leishen::fuzz::{
    chain_name, reproducer_from_json, reproducer_to_json, DiffOracle, FuzzRng, Operator, SeedCase,
};
use leishen::{DetectorConfig, LeiShen};
use leishen_scenarios::fuzz::seed_case;

mod common;

/// The standard fuzzing seed, built once (the world replay is the
/// expensive part; every test here reads it immutably).
fn seeds() -> &'static SeedCase {
    static SEEDS: OnceLock<SeedCase> = OnceLock::new();
    SEEDS.get_or_init(|| seed_case(DetectorConfig::paper()))
}

#[test]
fn weakened_detector_loses_at_least_five_distinct_evasions() {
    let weakened = LeiShen::new(DetectorConfig::weakened());
    let report = evade_search(seeds(), &weakened, &EvadeConfig::smoke(42));

    assert!(
        report.evasions.len() >= 5,
        "the smoke budget must find ≥ 5 evasions of the weakened detector, found {}",
        report.evasions.len()
    );
    let mut keys: Vec<(usize, String)> = report
        .evasions
        .iter()
        .map(|e| (e.target, chain_name(&e.mutant.chain)))
        .collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), report.evasions.len(), "evasions must be distinct (target, chain) pairs");

    for e in &report.evasions {
        assert_eq!(e.mutant.label(), format!("evade:{}", chain_name(&e.mutant.chain)));
        assert!(
            e.mutant.chain.contains(&Operator::PartialRepay),
            "every evasion must route through the partial-repay blind spot, got {}",
            chain_name(&e.mutant.chain)
        );
        assert!(!e.profile.is_empty(), "an evasion must still show a net position");
        assert!(
            e.profile.iter().any(|(_, net)| *net > 0),
            "an evasion must still gain at least one token"
        );
    }
    assert!(report.by_chain_len[0] > 0, "depth-1 evasions exist (bare partial_repay)");
    assert!(report.by_chain_len[1] > 0, "depth-2 evasions exist (composed chains)");
    // The shipped operators are profit-exact, so the invariant never
    // actually rejects — the counter exists for future lossy operators.
    assert_eq!(report.invariant_rejections, 0);
    assert!(report.targets_probed > 0 && report.attempts > 0);
}

#[test]
fn default_detector_survives_the_same_search_budget() {
    let fixed = LeiShen::new(DetectorConfig::paper());
    let report = evade_search(seeds(), &fixed, &EvadeConfig::smoke(42));
    assert_eq!(
        report.evasions.len(),
        0,
        "the coalescing fix must close every blind spot the smoke search knows: {:?}",
        report
            .evasions
            .iter()
            .map(|e| (e.target, chain_name(&e.mutant.chain)))
            .collect::<Vec<_>>()
    );
    assert!(
        report.attempts > 0 && report.targets_probed > 0,
        "an empty result must come from a real search, not an empty target list"
    );
}

#[test]
fn promoted_evade_goldens_replay_against_both_detectors() {
    let dir = common::tests_dir("corpus");
    let weakened_oracle = DiffOracle::new(DetectorConfig::weakened());
    let fixed_oracle = DiffOracle::new(DetectorConfig::paper());

    if common::update_golden() {
        let weakened = LeiShen::new(DetectorConfig::weakened());
        let report = evade_search(seeds(), &weakened, &EvadeConfig::smoke(42));
        for entry in std::fs::read_dir(&dir).expect("tests/corpus exists") {
            let path = entry.expect("dir entry").path();
            if path
                .file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("evade_"))
            {
                std::fs::remove_file(&path).expect("remove stale evade golden");
            }
        }
        for (i, evasion) in report.evasions.iter().enumerate() {
            let repro = evasion_reproducer(evasion, &weakened_oracle, &fixed_oracle, 42);
            let name = format!(
                "evade_{i:02}_{}.json",
                chain_name(&evasion.mutant.chain).replace('+', "__")
            );
            std::fs::write(dir.join(name), reproducer_to_json(&repro))
                .expect("write evade golden");
        }
    }

    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/corpus exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.extension().is_some_and(|x| x == "json")
                && p.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with("evade_"))
        })
        .collect();
    entries.sort();
    assert!(
        entries.len() >= 5,
        "expected ≥ 5 promoted evasions in tests/corpus (generate with \
         UPDATE_GOLDEN=1 cargo test --test evade_search), found {}",
        entries.len()
    );
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("read evade golden");
        let repro = reproducer_from_json(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        assert!(
            repro.operator.starts_with("evade:"),
            "{}: operator {:?} is not an evade chain",
            path.display(),
            repro.operator
        );
        // The fix catches it — in all four pipeline configurations.
        fixed_oracle
            .check(&repro.case, &repro.expect)
            .unwrap_or_else(|v| {
                panic!("{}: default config no longer flags the evasion: {v}", path.display())
            });
        // The weakened detector demonstrably misses it.
        let v = weakened_oracle
            .check(&repro.case, &repro.expect)
            .expect_err("golden entry must document a live weakened-detector evasion");
        assert_eq!(v.code(), "wrong_flag", "{}: unexpected violation {v}", path.display());
    }
}

#[test]
fn evade_search_is_seed_deterministic() {
    let weakened = LeiShen::new(DetectorConfig::weakened());
    for seed in [3u64, 42, 1_000_003] {
        let config = EvadeConfig {
            max_attempts: 512,
            ..EvadeConfig::smoke(seed)
        };
        let a = evade_search(seeds(), &weakened, &config);
        let b = evade_search(seeds(), &weakened, &config);
        assert_eq!(a.attempts, b.attempts, "seed {seed}");
        assert_eq!(a.invariant_rejections, b.invariant_rejections, "seed {seed}");
        assert_eq!(a.by_chain_len, b.by_chain_len, "seed {seed}");
        assert_eq!(a.op_applied, b.op_applied, "seed {seed}");
        assert_eq!(a.op_evading, b.op_evading, "seed {seed}");
        let key = |r: &leishen::EvadeReport| {
            r.evasions
                .iter()
                .map(|e| (e.target, chain_name(&e.mutant.chain), e.profile.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b), "seed {seed}: evasions must replay exactly");
    }
}

proptest! {
    /// Satellite invariant: whatever chain of economic operators an
    /// arbitrary RNG drives onto an arbitrary flagged target, the attacker
    /// cluster's per-token net gains keep their signs (the shipped
    /// operators are in fact profit-exact, which implies this).
    #[test]
    fn economic_operators_preserve_gain_signs(seed in 0u64..u64::MAX) {
        let seeds = seeds();
        let weakened = LeiShen::new(DetectorConfig::weakened());
        let mut rng = FuzzRng::new(seed);
        let flagged: Vec<usize> = seeds
            .expect
            .iter()
            .enumerate()
            .filter(|(_, e)| e.flagged)
            .map(|(i, _)| i)
            .collect();
        prop_assert!(!flagged.is_empty());
        let target = flagged[rng.below(flagged.len())];

        let mut cluster = attacker_cluster(&seeds.case.txs[target]);
        let base = profit_profile(&seeds.case.txs, &cluster);
        let mut mutant = seeds.as_mutant();
        for _ in 0..3 {
            let op = *rng.pick(&Operator::ECONOMIC);
            let analysis = {
                let view = mutant.case.view();
                weakened.analyze(&mutant.case.txs[target], &view)
            };
            let next = op.apply_economic(&mutant, target, &analysis, &mut cluster, &mut rng);
            if let Some(next) = next {
                mutant = next;
                let after = profit_profile(&mutant.case.txs, &cluster);
                prop_assert!(
                    gain_signs_preserved(&base, &after),
                    "chain {} on target {} flipped a gain sign: {:?} -> {:?}",
                    chain_name(&mutant.chain),
                    target,
                    base,
                    after
                );
            }
        }
    }
}
