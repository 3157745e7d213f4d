//! `chaos` — the fault-injection resilience campaign.
//!
//! Builds the standard seed corpus (22 attacks + benign/confuser
//! workloads), corrupts a seed-deterministic fraction of the records with
//! the [`leishen_scenarios::chaos`] damage generators, wires induced
//! stage-level panics/delays through a [`FaultInjector`], and scans the
//! result under four pipeline configurations (serial, 4-worker parallel,
//! metered, traced) at escalating fault rates. Every campaign must
//! satisfy three hard properties:
//!
//! 1. **survival** — one verdict per input transaction, no process abort;
//! 2. **containment** — every corrupted record is quarantined with a
//!    machine-readable `invalid_input:*` reason;
//! 3. **recall under fire** — every *uncorrupted* transaction gets the
//!    ground-truth verdict: all clean attacks stay detected (recall 1.0)
//!    and no clean benign transaction is flagged.
//!
//! Results land in `BENCH_chaos.json`; violations additionally write a
//! quarantine report per failing campaign to `--report-dir` and turn the
//! exit status non-zero.
//!
//! ```text
//! cargo run --release -p leishen-bench --bin chaos -- [--seed 42]
//!     [--smoke] [--out BENCH_chaos.json] [--report-dir chaos_reports]
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use ethsim::{TxId, TxRecord};
use leishen::resilience::{FaultInjector, FaultPlan, InducedFault, PlannedFault, Verdict};
use leishen::telemetry::RecordingSink;
use leishen::trace::json::fmt_f64;
use leishen::trace::{FlightRecorder, Reason};
use leishen::{
    install_quiet_hook, ChainView, DetectorConfig, LeiShen, ResilienceConfig, ScanEngine, TagCache,
};
use leishen_bench::{cli_flag, cli_str, cli_u64, print_table};
use leishen_scenarios::chaos::apply_input_faults;
use leishen_scenarios::fuzz::seed_case;

const CONFIGS: [&str; 4] = ["serial", "parallel4", "metered", "traced"];

/// Everything one (config, rate) campaign produced.
struct Campaign {
    config: &'static str,
    rate_permille: u32,
    txs: usize,
    corrupted: usize,
    quarantined: usize,
    panics_fired: u64,
    delays_fired: u64,
    clean_attacks: usize,
    clean_detected: usize,
    false_positives: usize,
    survived: usize,
    by_fault: BTreeMap<&'static str, usize>,
    violations: Vec<String>,
    quarantine_log: Vec<String>,
}

impl Campaign {
    fn survival_rate(&self) -> f64 {
        // Reaching this point at all means no abort; survival is the
        // fraction of inputs that came back with *some* verdict.
        if self.txs == 0 {
            1.0
        } else {
            self.survived.min(self.txs) as f64 / self.txs as f64
        }
    }

    fn recall_clean(&self) -> f64 {
        if self.clean_attacks == 0 {
            1.0
        } else {
            self.clean_detected as f64 / self.clean_attacks as f64
        }
    }
}

fn main() {
    let seed = cli_u64("--seed", 42);
    let smoke = cli_flag("--smoke");
    let out_path = cli_str("--out", "BENCH_chaos.json");
    let report_dir = cli_str("--report-dir", "chaos_reports");
    install_quiet_hook();

    let rates: &[u32] = if smoke { &[0, 100] } else { &[0, 50, 100, 250] };

    println!("building seed corpus (22 attacks + benign/confuser workloads)...");
    let start = Instant::now();
    let seeds = seed_case(DetectorConfig::paper());
    let corpus = &seeds.case;
    let flagged = seeds.expect.iter().filter(|e| e.flagged).count();
    println!(
        "corpus ready: {} transactions ({} ground-truth attacks) in {:.1}s",
        corpus.txs.len(),
        flagged,
        start.elapsed().as_secs_f64()
    );

    let detector = LeiShen::new(DetectorConfig::paper());
    let mut campaigns: Vec<Campaign> = Vec::new();

    for &rate in rates {
        // One plan per rate, shared by all four configurations, so a
        // config-dependent verdict difference is a real divergence and
        // not a sampling artifact. Same seed across rates keeps the
        // assignments rate-aligned (a record corrupted at 50‰ is also
        // corrupted at every higher rate).
        let plan = FaultPlan::new(seed, rate);
        let assignment = plan.assign(corpus.txs.len());
        let mut txs: Vec<TxRecord> = corpus.txs.clone();
        let applied = apply_input_faults(&mut txs, &assignment);
        let induced: Vec<(TxId, InducedFault)> = assignment
            .iter()
            .zip(&txs)
            .filter_map(|(slot, tx)| match slot {
                Some(PlannedFault::Induced(f)) => Some((tx.id, *f)),
                _ => None,
            })
            .collect();
        let corrupted = applied.iter().filter(|a| a.is_some()).count();
        println!(
            "rate {rate}‰: {corrupted} corrupted records, {} induced stage faults",
            induced.len()
        );

        let refs: Vec<&TxRecord> = txs.iter().collect();
        let view = corpus.view();
        for config in CONFIGS {
            let campaign = run_campaign(
                config, rate, &detector, &refs, &view, &induced, &applied, &seeds.expect,
            );
            campaigns.push(campaign);
        }
    }
    let elapsed = start.elapsed();

    print_summary(&campaigns, elapsed.as_secs_f64());

    let total_violations: usize = campaigns.iter().map(|c| c.violations.len()).sum();
    if total_violations > 0 {
        write_reports(&campaigns, Path::new(&report_dir));
    }

    let json = render_json(&campaigns, seed, smoke, corpus.txs.len(), flagged, elapsed.as_millis() as u64);
    std::fs::write(&out_path, &json).expect("write BENCH_chaos.json");
    println!("wrote {out_path}");

    if total_violations > 0 {
        eprintln!(
            "CHAOS FAILED: {total_violations} violation(s); quarantine reports in {report_dir}/"
        );
        std::process::exit(1);
    }
    println!(
        "all campaigns clean: {} configurations x {} rates, zero violations",
        CONFIGS.len(),
        rates.len()
    );
}

#[allow(clippy::too_many_arguments)]
fn run_campaign(
    config: &'static str,
    rate: u32,
    detector: &LeiShen,
    refs: &[&TxRecord],
    view: &ChainView<'_>,
    induced: &[(TxId, InducedFault)],
    applied: &[Option<leishen::resilience::InputFault>],
    expect: &[leishen::TxExpect],
) -> Campaign {
    let policy = ResilienceConfig::new();
    let injector = FaultInjector::new(induced.iter().copied());
    let engine = match config {
        "serial" => ScanEngine::new(1),
        _ => ScanEngine::new(4).allow_oversubscription(),
    };
    match config {
        "serial" | "parallel4" => {
            let scan = engine.scan_resilient_with(
                detector, refs, view, &TagCache::new(), &policy, &injector,
            );
            grade(config, rate, &scan.verdicts, applied, expect, &injector, None, None)
        }
        "metered" => {
            let sink = RecordingSink::new();
            let scan = engine.scan_resilient_with(
                detector, refs, view, &TagCache::new(), &policy, &(&injector, &sink),
            );
            let metered_quarantined = sink.counter_totals().quarantined;
            grade(
                config, rate, &scan.verdicts, applied, expect, &injector,
                Some(metered_quarantined), None,
            )
        }
        "traced" => {
            let recorder = FlightRecorder::new();
            let scan = engine.scan_resilient_with(
                detector, refs, view, &TagCache::new(), &policy, &(&injector, &recorder),
            );
            grade(config, rate, &scan.verdicts, applied, expect, &injector, None, Some(&recorder))
        }
        other => unreachable!("unknown config {other}"),
    }
}

/// Grades one campaign's verdicts against the corruption ground truth,
/// collecting violations instead of panicking so a failing campaign
/// still produces a full report.
#[allow(clippy::too_many_arguments)]
fn grade(
    config: &'static str,
    rate: u32,
    verdicts: &[Verdict],
    applied: &[Option<leishen::resilience::InputFault>],
    expect: &[leishen::TxExpect],
    injector: &FaultInjector,
    metered_quarantined: Option<u64>,
    recorder: Option<&FlightRecorder>,
) -> Campaign {
    let mut c = Campaign {
        config,
        rate_permille: rate,
        txs: applied.len(),
        corrupted: applied.iter().filter(|a| a.is_some()).count(),
        quarantined: 0,
        panics_fired: injector.panics_fired(),
        delays_fired: injector.delays_fired(),
        clean_attacks: 0,
        clean_detected: 0,
        false_positives: 0,
        survived: verdicts.len(),
        by_fault: BTreeMap::new(),
        violations: Vec::new(),
        quarantine_log: Vec::new(),
    };

    if verdicts.len() != applied.len() {
        c.violations.push(format!(
            "survival: {} verdicts for {} inputs",
            verdicts.len(),
            applied.len()
        ));
        return c;
    }

    for (i, verdict) in verdicts.iter().enumerate() {
        match (verdict, applied[i]) {
            (Verdict::Indeterminate(q), Some(kind)) => {
                c.quarantined += 1;
                *c.by_fault.entry(kind.name()).or_insert(0) += 1;
                let reason = q.reason();
                c.quarantine_log.push(format!(
                    "tx#{} index {i} fault {} -> {}",
                    q.tx.0,
                    kind.name(),
                    reason
                ));
                if !reason.starts_with("invalid_input:") {
                    c.violations.push(format!(
                        "containment: corrupted tx#{} quarantined with non-input reason {reason}",
                        q.tx.0
                    ));
                }
                if let Some(rec) = recorder {
                    let traced = rec.find(q.tx).is_some_and(|t| {
                        t.decision
                            .reasons
                            .iter()
                            .any(|r| matches!(r, Reason::Indeterminate { .. }))
                    });
                    if !traced {
                        c.violations.push(format!(
                            "provenance: quarantined tx#{} has no Indeterminate trace",
                            q.tx.0
                        ));
                    }
                }
            }
            (Verdict::Indeterminate(q), None) => {
                c.quarantined += 1;
                *c.by_fault.entry("panic").or_insert(0) += 1;
                c.quarantine_log.push(format!(
                    "tx#{} index {i} uncorrupted -> {}",
                    q.tx.0,
                    q.reason()
                ));
                c.violations.push(format!(
                    "recall: uncorrupted tx#{} quarantined ({}) instead of analyzed",
                    q.tx.0,
                    q.reason()
                ));
            }
            (Verdict::Analyzed(_), Some(kind)) => {
                c.violations.push(format!(
                    "containment: corrupted tx index {i} ({}) was analyzed, not quarantined",
                    kind.name()
                ));
            }
            (Verdict::Analyzed(a), None) => {
                let want = expect[i].flagged;
                let got = a.is_attack();
                if want {
                    c.clean_attacks += 1;
                    if got {
                        c.clean_detected += 1;
                    } else {
                        c.violations.push(format!(
                            "recall: clean attack tx index {i} not flagged under faults"
                        ));
                    }
                } else if got {
                    c.false_positives += 1;
                    c.violations
                        .push(format!("precision: clean benign tx index {i} flagged under faults"));
                }
            }
        }
    }

    if let Some(metered) = metered_quarantined {
        if metered != c.quarantined as u64 {
            c.violations.push(format!(
                "telemetry: sink counted {metered} quarantines, scan produced {}",
                c.quarantined
            ));
        }
    }

    c
}

fn print_summary(campaigns: &[Campaign], secs: f64) {
    let rows: Vec<Vec<String>> = campaigns
        .iter()
        .map(|c| {
            vec![
                c.config.to_string(),
                format!("{}", c.rate_permille),
                c.txs.to_string(),
                c.corrupted.to_string(),
                c.quarantined.to_string(),
                c.panics_fired.to_string(),
                format!("{:.3}", c.recall_clean()),
                c.false_positives.to_string(),
                c.violations.len().to_string(),
            ]
        })
        .collect();
    print_table(
        &["config", "rate\u{2030}", "txs", "corrupt", "quarantine", "panics", "recall", "fp", "violations"],
        &rows,
    );
    println!("{} campaigns in {secs:.1}s", campaigns.len());
}

fn write_reports(campaigns: &[Campaign], dir: &Path) {
    std::fs::create_dir_all(dir).expect("create report dir");
    for c in campaigns.iter().filter(|c| !c.violations.is_empty()) {
        let mut body = String::new();
        let _ = writeln!(body, "campaign {} at {}permille", c.config, c.rate_permille);
        let _ = writeln!(body, "-- violations ({})", c.violations.len());
        for v in &c.violations {
            let _ = writeln!(body, "{v}");
        }
        let _ = writeln!(body, "-- quarantines ({})", c.quarantine_log.len());
        for q in &c.quarantine_log {
            let _ = writeln!(body, "{q}");
        }
        let path = dir.join(format!("chaos_{}_{}.txt", c.config, c.rate_permille));
        std::fs::write(&path, body).expect("write quarantine report");
        eprintln!("quarantine report: {}", path.display());
    }
}

fn render_json(
    campaigns: &[Campaign],
    seed: u64,
    smoke: bool,
    txs: usize,
    flagged: usize,
    elapsed_ms: u64,
) -> String {
    let mut entries = String::new();
    for (i, c) in campaigns.iter().enumerate() {
        if i > 0 {
            entries.push_str(",\n    ");
        }
        let mut by_fault = String::new();
        for (j, (name, count)) in c.by_fault.iter().enumerate() {
            if j > 0 {
                by_fault.push(',');
            }
            let _ = write!(by_fault, "\"{name}\":{count}");
        }
        let _ = write!(
            entries,
            "{{\"config\":\"{}\",\"rate_permille\":{},\"txs\":{},\"corrupted\":{},\
             \"quarantined\":{},\"panics_fired\":{},\"delays_fired\":{},\
             \"survival_rate\":{},\"recall_clean\":{},\"false_positives\":{},\
             \"quarantine_by_fault\":{{{by_fault}}},\"violations\":{}}}",
            c.config,
            c.rate_permille,
            c.txs,
            c.corrupted,
            c.quarantined,
            c.panics_fired,
            c.delays_fired,
            fmt_f64(c.survival_rate()),
            fmt_f64(c.recall_clean()),
            c.false_positives,
            c.violations.len()
        );
    }
    let min_survival = campaigns.iter().map(Campaign::survival_rate).fold(1.0, f64::min);
    let min_recall = campaigns.iter().map(Campaign::recall_clean).fold(1.0, f64::min);
    let total_violations: usize = campaigns.iter().map(|c| c.violations.len()).sum();
    format!(
        "{{\n  \"bench\": \"chaos\",\n  \"smoke\": {smoke},\n  \"seed\": {seed},\n  \
         \"corpus\": {{\"txs\": {txs}, \"flagged\": {flagged}}},\n  \
         \"campaigns\": [\n    {entries}\n  ],\n  \
         \"survival_rate\": {},\n  \"recall_clean\": {},\n  \"violations\": {total_violations},\n  \
         \"elapsed_ms\": {elapsed_ms}\n}}\n",
        fmt_f64(min_survival),
        fmt_f64(min_recall),
    )
}
