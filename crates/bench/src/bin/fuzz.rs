//! `fuzz` — the budgeted metamorphic fuzzing campaign.
//!
//! Builds the standard seed corpus (22 attacks + benign/confuser
//! workloads), runs `--mutants` metamorphic mutants through the
//! four-configuration differential oracle, diffs the `baselines` crate
//! against a sample of the surviving mutants, and writes `BENCH_fuzz.json`.
//! Any oracle violation is shrunk to a minimal history and persisted to
//! `--violations-dir`, so CI fails loudly with a replayable artifact; the
//! bin then names each failed check and exits 1.
//!
//! ```text
//! cargo run --release -p leishen-bench --bin fuzz -- [--seed 42]
//!     [--mutants 600] [--smoke]
//!     [--out BENCH_fuzz.json] [--violations-dir tests/corpus]
//!     [--save-samples N]
//! ```
//!
//! `--save-samples N` persists the first N passing mutants, one per
//! operator, as corpus documents (for committing regression seeds).

use std::path::{Path, PathBuf};
use std::time::Instant;

use leishen::fuzz::{
    reproducer_to_json, run_campaign, CampaignConfig, CampaignReport, DiffOracle, FuzzCase,
    Mutant, Reproducer, SeedCase,
};
use leishen::trace::json::fmt_f64;
use leishen::DetectorConfig;
use leishen_baselines::{DefiRanger, ExplorerLeiShen, VolatilityMonitor};
use leishen_bench::{print_table, Checks, Cli};
use leishen_scenarios::fuzz::seed_case;

/// Per-baseline agreement counters over sampled preserving mutants,
/// judged per transaction against ground truth.
#[derive(Default)]
struct BaselineStats {
    samples: usize,
    agree: usize,
    fp: usize,
    fn_: usize,
}

fn main() {
    let mut cli = Cli::from_env();
    let seed = cli.value("--seed", 42u64);
    let mutants = cli.value("--mutants", 600usize);
    let smoke = cli.flag("--smoke");
    let out_path = cli.value("--out", "BENCH_fuzz.json".to_string());
    let violations_dir = cli.value("--violations-dir", "tests/corpus".to_string());
    let save_samples = cli.value("--save-samples", 0usize);
    cli.finish("fuzz");

    println!("building seed corpus (22 attacks + benign/confuser workloads)...");
    let build_start = Instant::now();
    let seeds = seed_case(DetectorConfig::paper());
    let seed_txs = seeds.case.txs.len();
    let seed_flagged = seeds.expect.iter().filter(|e| e.flagged).count();
    println!(
        "seed ready: {seed_txs} transactions ({seed_flagged} ground-truth attacks), \
         pool of {} ({:.1}s)",
        seeds.pool.len(),
        build_start.elapsed().as_secs_f64()
    );

    let oracle = DiffOracle::new(DetectorConfig::paper());
    let config = CampaignConfig::new(seed, mutants);

    // Baseline differential sampling: every 8th preserving mutant also
    // runs the three baseline detectors, per transaction, against ground
    // truth. Baselines are compared, never oracle-gating — they are
    // different algorithms with different (worse) expected accuracy.
    let defiranger = DefiRanger::new();
    let explorer = ExplorerLeiShen::new(DetectorConfig::paper());
    let volatility = VolatilityMonitor::default();
    let mut base_stats =
        [BaselineStats::default(), BaselineStats::default(), BaselineStats::default()];
    let mut preserving_seen = 0usize;
    let mut samples: Vec<Reproducer> = Vec::new();

    let campaign_start = Instant::now();
    let report = run_campaign(&seeds, &oracle, &config, |mutant: &Mutant, _verdicts| {
        if samples.len() < save_samples && samples.iter().all(|s| s.operator != mutant.label()) {
            samples.push(Reproducer::new(&trim_sample(mutant, &seeds), seed, ""));
        }
        if !mutant.chain.iter().all(|op| op.is_preserving()) {
            return;
        }
        preserving_seen += 1;
        if preserving_seen % 8 != 1 {
            return;
        }
        for (tx, expect) in mutant.case.txs.iter().zip(&mutant.expect) {
            let verdicts = [
                defiranger.is_attack(tx),
                explorer.is_attack(tx),
                volatility.is_attack(tx),
            ];
            for (stats, got) in base_stats.iter_mut().zip(verdicts) {
                stats.samples += 1;
                if got == expect.flagged {
                    stats.agree += 1;
                } else if got {
                    stats.fp += 1;
                } else {
                    stats.fn_ += 1;
                }
            }
        }
    });
    let elapsed = campaign_start.elapsed();

    persist_violations(&report, seed, Path::new(&violations_dir));
    if save_samples > 0 {
        persist_samples(&samples, Path::new(&violations_dir));
    }

    print_report(&report, elapsed.as_secs_f64());
    let json = render_json(
        &report, seed, smoke, seed_txs, seed_flagged, &base_stats, elapsed.as_millis() as u64,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_fuzz.json");
    println!("wrote {out_path}");

    let mut checks = Checks::default();
    checks.check(
        report.total_violations() == 0,
        format!(
            "{} oracle violation(s); shrunk reproducers in {violations_dir}/",
            report.total_violations()
        ),
    );
    // Skipped draws may eat at most a sixth of the budget (500 of 600).
    checks.check(
        report.generated * 6 >= report.requested * 5,
        format!("generated {} of {} requested mutants", report.generated, report.requested),
    );
    for s in &report.per_operator {
        let name = s.operator.name();
        checks.check(s.generated > 0, format!("operator {name} generated no mutant"));
    }
    let c = &report.confusion;
    checks.check(
        c.fp == 0 && c.fn_ == 0,
        format!("detector misjudged preserving mutants: fp={} fn={}", c.fp, c.fn_),
    );
    checks.check(
        c.tp > 0 && c.tn > 0,
        format!("preserving mutants lack a verdict class: tp={} tn={}", c.tp, c.tn),
    );
    checks.finish("fuzz");
    println!("campaign clean: {} mutants, zero oracle violations", report.generated);
}

/// Trims a passing mutant to a small committed-corpus document: per-tx
/// expectations are independent, so any (tx, expect) subset stays
/// oracle-valid. Keeps every transaction whose expectation a breaking
/// operator changed, plus one flagged and one benign representative.
fn trim_sample(mutant: &Mutant, seeds: &SeedCase) -> Mutant {
    let mut keep: Vec<usize> = Vec::new();
    if mutant.expect.len() == seeds.expect.len() {
        // Index-stable operators: keep expectation diffs (breaking targets).
        for i in 0..mutant.expect.len() {
            if mutant.expect[i] != seeds.expect[i] {
                keep.push(i);
            }
        }
    }
    if let Some(i) = mutant.expect.iter().position(|e| e.flagged) {
        keep.push(i);
    }
    if let Some(i) = mutant.expect.iter().position(|e| !e.flagged) {
        keep.push(i);
    }
    keep.sort_unstable();
    keep.dedup();
    keep.truncate(4);
    Mutant {
        chain: mutant.chain.clone(),
        case: FuzzCase {
            txs: keep.iter().map(|&i| mutant.case.txs[i].clone()).collect(),
            labels: mutant.case.labels.clone(),
            creations: mutant.case.creations.clone(),
            weth: mutant.case.weth,
        },
        expect: keep.iter().map(|&i| mutant.expect[i].clone()).collect(),
    }
}

fn persist_violations(report: &CampaignReport, seed: u64, dir: &Path) {
    let all = report.seed_violation.iter().chain(&report.violations);
    for v in all {
        std::fs::create_dir_all(dir).expect("create violations dir");
        let repro = Reproducer::new(&v.shrunk, seed, v.message.clone());
        let path: PathBuf =
            dir.join(format!("violation_{}_{:04}.json", repro.operator, v.iteration));
        std::fs::write(&path, reproducer_to_json(&repro)).expect("write reproducer");
        eprintln!(
            "violation [{}] iter {} ({}): {} — shrunk to {} tx(s) in {} oracle runs -> {}",
            repro.operator,
            v.iteration,
            v.code,
            v.message,
            v.shrunk.case.txs.len(),
            v.shrink_runs,
            path.display()
        );
    }
}

fn persist_samples(samples: &[Reproducer], dir: &Path) {
    std::fs::create_dir_all(dir).expect("create corpus dir");
    for (i, sample) in samples.iter().enumerate() {
        let path = dir.join(format!("corpus_{}_{i:02}.json", sample.operator));
        std::fs::write(&path, reproducer_to_json(sample)).expect("write corpus sample");
        println!("saved corpus sample {}", path.display());
    }
}

fn print_report(report: &CampaignReport, secs: f64) {
    let rows: Vec<Vec<String>> = report
        .per_operator
        .iter()
        .map(|s| {
            vec![
                s.operator.name().to_string(),
                if s.operator.is_preserving() { "preserving" } else { "breaking" }.to_string(),
                s.generated.to_string(),
                s.skipped.to_string(),
                s.violations.to_string(),
            ]
        })
        .collect();
    print_table(&["operator", "family", "mutants", "skipped", "violations"], &rows);
    let c = &report.confusion;
    println!(
        "{} mutants in {secs:.1}s ({:.1}/s); detector on preserving mutants: \
         tp={} fp={} tn={} fn={} (fp_rate={:.4}, fn_rate={:.4})",
        report.generated,
        report.generated as f64 / secs.max(1e-9),
        c.tp,
        c.fp,
        c.tn,
        c.fn_,
        c.fp_rate(),
        c.fn_rate()
    );
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    report: &CampaignReport,
    seed: u64,
    smoke: bool,
    seed_txs: usize,
    seed_flagged: usize,
    base_stats: &[BaselineStats; 3],
    elapsed_ms: u64,
) -> String {
    let mut ops = String::new();
    for (i, s) in report.per_operator.iter().enumerate() {
        if i > 0 {
            ops.push(',');
        }
        ops.push_str(&format!(
            "{{\"name\":\"{}\",\"family\":\"{}\",\"generated\":{},\"skipped\":{},\"violations\":{}}}",
            s.operator.name(),
            if s.operator.is_preserving() { "preserving" } else { "breaking" },
            s.generated,
            s.skipped,
            s.violations
        ));
    }
    let mut violations = String::new();
    for (i, v) in report.seed_violation.iter().chain(&report.violations).enumerate() {
        if i > 0 {
            violations.push(',');
        }
        violations.push_str(&format!(
            "{{\"operator\":\"{}\",\"iteration\":{},\"code\":\"{}\",\"shrunk_txs\":{},\"shrink_runs\":{}}}",
            v.shrunk.label(),
            v.iteration,
            v.code,
            v.shrunk.case.txs.len(),
            v.shrink_runs
        ));
    }
    let mut baselines = String::new();
    for (i, (name, s)) in ["defiranger", "explorer", "volatility"]
        .iter()
        .zip(base_stats)
        .enumerate()
    {
        if i > 0 {
            baselines.push(',');
        }
        let agreement = if s.samples == 0 { 0.0 } else { s.agree as f64 / s.samples as f64 };
        baselines.push_str(&format!(
            "{{\"name\":\"{name}\",\"samples\":{},\"agreement\":{},\"fp\":{},\"fn\":{}}}",
            s.samples,
            fmt_f64(agreement),
            s.fp,
            s.fn_
        ));
    }
    let c = &report.confusion;
    format!(
        "{{\n  \"bench\": \"fuzz\",\n  \"smoke\": {smoke},\n  \"seed\": {seed},\n  \
         \"seed_corpus\": {{\"txs\": {seed_txs}, \"flagged\": {seed_flagged}}},\n  \
         \"mutants_requested\": {},\n  \"mutants_generated\": {},\n  \"skipped_draws\": {},\n  \
         \"violations\": {},\n  \"seed_violation\": {},\n  \
         \"operators\": [{ops}],\n  \"violation_details\": [{violations}],\n  \
         \"detector\": {{\"tp\": {}, \"fp\": {}, \"tn\": {}, \"fn\": {}, \"fp_rate\": {}, \"fn_rate\": {}}},\n  \
         \"baselines\": [{baselines}],\n  \"elapsed_ms\": {elapsed_ms}\n}}\n",
        report.requested,
        report.generated,
        report.skipped,
        report.total_violations(),
        report.seed_violation.is_some(),
        c.tp,
        c.fp,
        c.tn,
        c.fn_,
        fmt_f64(c.fp_rate()),
        fmt_f64(c.fn_rate()),
    )
}
