//! `evade` — the guided adversarial evasion search, benched and gated.
//!
//! Builds the standard seed corpus (22 attacks + benign/confuser/MEV
//! workloads) and runs the beam search of `leishen::evade` twice:
//!
//! 1. against the **weakened** detector (split-transfer coalescing off —
//!    the pre-fix matcher), where the search must find at least
//!    [`MIN_WEAKENED`] still-profitable verdict-flipping variants, every
//!    one routed through `partial_repay`, with no invariant rejection;
//!    each one is shrunk and persisted to `--reproducers-dir`;
//! 2. against the **default** detector, where the identical budget must
//!    find **zero** survivors — any survivor is a live blind spot, is
//!    persisted the same way, and turns the exit status non-zero.
//!
//! A third pass runs the default detector over the mixed attack + MEV
//! corpus and reports the confusion matrix (ground-truth flags from
//! scenario construction), whose precision and recall must both be 1.0.
//! `BENCH_evade.json` carries all three; the bin then names every failed
//! check and exits 1.
//!
//! ```text
//! cargo run --release -p leishen-bench --bin evade -- [--seed 42]
//!     [--smoke] [--out BENCH_evade.json]
//!     [--reproducers-dir evade_reproducers]
//! ```

use std::path::Path;
use std::time::Instant;

use leishen::evade::{evade_search, evasion_reproducer, EvadeConfig, EvadeReport};
use leishen::fuzz::{chain_name, reproducer_to_json, Confusion, DiffOracle, Operator, SeedCase};
use leishen::trace::json::fmt_f64;
use leishen::{DetectorConfig, LeiShen};
use leishen_bench::{print_table, Checks, Cli};
use leishen_scenarios::fuzz::seed_case;

/// Evasions the search must find against the weakened detector, so that
/// its zero against the default detector is a result, not a no-op.
const MIN_WEAKENED: usize = 5;

fn main() {
    let mut cli = Cli::from_env();
    let seed = cli.value("--seed", 42u64);
    let smoke = cli.flag("--smoke");
    let out_path = cli.value("--out", "BENCH_evade.json".to_string());
    let repro_dir = cli.value("--reproducers-dir", "evade_reproducers".to_string());
    cli.finish("evade");

    let config = if smoke { EvadeConfig::smoke(seed) } else { EvadeConfig::new(seed) };

    println!("building seed corpus (22 attacks + benign/confuser/MEV workloads)...");
    let build_start = Instant::now();
    let seeds = seed_case(DetectorConfig::paper());
    let seed_txs = seeds.case.txs.len();
    let seed_flagged = seeds.expect.iter().filter(|e| e.flagged).count();
    println!(
        "seed ready: {seed_txs} transactions ({seed_flagged} ground-truth attacks) \
         ({:.1}s)",
        build_start.elapsed().as_secs_f64()
    );

    let weakened_oracle = DiffOracle::new(DetectorConfig::weakened());
    let fixed_oracle = DiffOracle::new(DetectorConfig::paper());

    // Pass 1: the weakened detector must be evadable — this proves the
    // search engine has teeth, so pass 2's zero is a result, not a no-op.
    let start = Instant::now();
    let weakened_report =
        evade_search(&seeds, &LeiShen::new(DetectorConfig::weakened()), &config);
    let weakened_secs = start.elapsed().as_secs_f64();
    print_report("weakened", &weakened_report, weakened_secs);
    persist_reproducers(
        "weakened",
        &weakened_report,
        &weakened_oracle,
        &fixed_oracle,
        seed,
        Path::new(&repro_dir),
    );

    // Pass 2: the fixed default detector under the identical budget.
    let start = Instant::now();
    let default_report = evade_search(&seeds, &LeiShen::new(DetectorConfig::paper()), &config);
    let default_secs = start.elapsed().as_secs_f64();
    print_report("default", &default_report, default_secs);
    if !default_report.evasions.is_empty() {
        persist_reproducers(
            "default",
            &default_report,
            &fixed_oracle,
            &fixed_oracle,
            seed,
            Path::new(&repro_dir),
        );
    }

    // Pass 3: mixed-corpus confusion matrix under the default detector.
    let confusion = mixed_confusion(&seeds);
    println!(
        "mixed corpus: {} txs, tp={} fp={} tn={} fn={} precision={:.4} recall={:.4}",
        seed_txs,
        confusion.tp,
        confusion.fp,
        confusion.tn,
        confusion.fn_,
        confusion.precision(),
        confusion.recall()
    );

    let json = render_json(
        seed,
        smoke,
        &config,
        seed_txs,
        seed_flagged,
        &weakened_report,
        &default_report,
        &confusion,
        ((weakened_secs + default_secs) * 1000.0) as u64,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_evade.json");
    println!("wrote {out_path}");

    let mut checks = Checks::default();
    let (weakened, default) = (&weakened_report, &default_report);
    checks.check(
        weakened.evasions.len() >= MIN_WEAKENED,
        format!(
            "weakened search found {} evasion(s), expected >= {MIN_WEAKENED}",
            weakened.evasions.len()
        ),
    );
    checks.check(
        weakened.evasions.iter().all(|e| e.mutant.chain.contains(&Operator::PartialRepay)),
        "a weakened evasion does not route through partial_repay",
    );
    checks.check(
        weakened.invariant_rejections == 0,
        format!(
            "weakened search rejected {} mutant(s) on invariants",
            weakened.invariant_rejections
        ),
    );
    checks.check(
        default.evasions.is_empty(),
        format!(
            "default detector lost {} evasion(s) within the search budget",
            default.evasions.len()
        ),
    );
    for (label, report) in [("weakened", weakened), ("default", default)] {
        checks.check(
            report.targets_probed > 0 && report.attempts > 0,
            format!("{label} search probed no target"),
        );
    }
    let c = &confusion;
    checks.check(
        c.tp + c.fp + c.tn + c.fn_ == seed_txs,
        format!("mixed corpus tallied {} of {seed_txs} txs", c.tp + c.fp + c.tn + c.fn_),
    );
    checks.check(
        c.precision() == 1.0 && c.recall() == 1.0,
        format!(
            "mixed-corpus precision {:.4}, recall {:.4}; both must be 1.0",
            c.precision(),
            c.recall()
        ),
    );
    checks.finish("evade");
    println!(
        "evade clean: weakened loses {} variant(s), default survives the same budget",
        weakened_report.evasions.len()
    );
}

/// Per-transaction confusion of the default detector over the mixed
/// corpus, against ground-truth flags.
fn mixed_confusion(seeds: &SeedCase) -> Confusion {
    let detector = LeiShen::new(DetectorConfig::paper());
    let view = seeds.case.view();
    let mut c = Confusion::default();
    for (tx, expect) in seeds.case.txs.iter().zip(&seeds.expect) {
        c.tally(expect.flagged, detector.analyze(tx, &view).is_attack());
    }
    c
}

fn persist_reproducers(
    label: &str,
    report: &EvadeReport,
    shrink_oracle: &DiffOracle,
    validate_oracle: &DiffOracle,
    seed: u64,
    dir: &Path,
) {
    if report.evasions.is_empty() {
        return;
    }
    std::fs::create_dir_all(dir).expect("create reproducers dir");
    for (i, evasion) in report.evasions.iter().enumerate() {
        let repro = evasion_reproducer(evasion, shrink_oracle, validate_oracle, seed);
        let chain = chain_name(&evasion.mutant.chain);
        let path = dir.join(format!("evade_{label}_{i:02}_{}.json", chain.replace('+', "__")));
        std::fs::write(&path, reproducer_to_json(&repro)).expect("write evade reproducer");
        println!(
            "  reproducer [{label}] target={} chain={chain} -> {}",
            evasion.target,
            path.display()
        );
    }
}

fn print_report(label: &str, report: &EvadeReport, secs: f64) {
    let rows: Vec<Vec<String>> = report
        .op_applied
        .iter()
        .zip(&report.op_evading)
        .map(|((op, applied), (_, evading))| {
            vec![op.name().to_string(), applied.to_string(), evading.to_string()]
        })
        .collect();
    println!("{label} detector:");
    print_table(&["operator", "applied", "in evading chains"], &rows);
    println!(
        "  {} evasion(s) by chain length {:?}; {} targets, {} attempts, \
         {} invariant rejection(s) in {secs:.1}s",
        report.evasions.len(),
        report.by_chain_len,
        report.targets_probed,
        report.attempts,
        report.invariant_rejections
    );
}

fn report_json(report: &EvadeReport) -> String {
    let by_chain_len: Vec<String> =
        report.by_chain_len.iter().map(|n| n.to_string()).collect();
    let mut operators = String::new();
    for (i, ((op, applied), (_, evading))) in
        report.op_applied.iter().zip(&report.op_evading).enumerate()
    {
        if i > 0 {
            operators.push(',');
        }
        operators.push_str(&format!(
            "{{\"name\":\"{}\",\"applied\":{applied},\"evading\":{evading}}}",
            op.name()
        ));
    }
    let mut evasions = String::new();
    for (i, e) in report.evasions.iter().enumerate() {
        if i > 0 {
            evasions.push(',');
        }
        evasions.push_str(&format!(
            "{{\"target\":{},\"chain\":\"{}\",\"chain_len\":{}}}",
            e.target,
            chain_name(&e.mutant.chain),
            e.mutant.chain.len()
        ));
    }
    format!(
        "{{\"evasions\": {}, \"attempts\": {}, \"invariant_rejections\": {}, \
         \"targets_probed\": {}, \"by_chain_len\": [{}], \"operators\": [{operators}], \
         \"found\": [{evasions}]}}",
        report.evasions.len(),
        report.attempts,
        report.invariant_rejections,
        report.targets_probed,
        by_chain_len.join(",")
    )
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    seed: u64,
    smoke: bool,
    config: &EvadeConfig,
    seed_txs: usize,
    seed_flagged: usize,
    weakened: &EvadeReport,
    default_report: &EvadeReport,
    confusion: &Confusion,
    elapsed_ms: u64,
) -> String {
    format!(
        "{{\n  \"bench\": \"evade\",\n  \"smoke\": {smoke},\n  \"seed\": {seed},\n  \
         \"config\": {{\"beam_width\": {}, \"max_chain_len\": {}, \"max_attempts\": {}, \
         \"max_per_target\": {}}},\n  \
         \"seed_corpus\": {{\"txs\": {seed_txs}, \"flagged\": {seed_flagged}}},\n  \
         \"weakened\": {},\n  \"default\": {},\n  \
         \"mixed_corpus\": {{\"txs\": {seed_txs}, \"attacks\": {seed_flagged}, \
         \"tp\": {}, \"fp\": {}, \"tn\": {}, \"fn\": {}, \"precision\": {}, \"recall\": {}}},\n  \
         \"elapsed_ms\": {elapsed_ms}\n}}\n",
        config.beam_width,
        config.max_chain_len,
        config.max_attempts,
        config.max_per_target,
        report_json(weakened),
        report_json(default_report),
        confusion.tp,
        confusion.fp,
        confusion.tn,
        confusion.fn_,
        fmt_f64(confusion.precision()),
        fmt_f64(confusion.recall()),
    )
}
