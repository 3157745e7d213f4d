//! `chaos` — the fault-injection resilience campaign.
//!
//! Builds the standard seed corpus (22 attacks + benign/confuser
//! workloads) and, at escalating fault rates, one
//! [`ChaosCorpus`]: a
//! seed-deterministic fraction of the records corrupted, plus induced
//! stage-level panics/delays for a
//! [`FaultInjector`](leishen::FaultInjector). Each corpus is scanned
//! under four pipeline configurations (serial, 4-worker parallel,
//! metered, traced) and graded by the shared
//! [`grade`]: survival (one verdict per
//! input, no process abort), containment (every corrupted record
//! quarantined with a machine-readable `invalid_input:*` reason), recall
//! and precision under fire (every *uncorrupted* transaction gets its
//! ground-truth verdict), and, where the configuration observes,
//! telemetry and provenance.
//!
//! Results land in `BENCH_chaos.json`; violations additionally write a
//! quarantine report per failing campaign to `--report-dir`. The bin then
//! names each failed check (the grade's violations, plus quarantining
//! exactly the corrupted records, and something exactly when faulted, a
//! `quarantine_by_fault` that sums up, and scan statistics that agree
//! with the verdicts) and exits 1.
//!
//! ```text
//! cargo run --release -p leishen-bench --bin chaos -- [--seed 42]
//!     [--smoke] [--out BENCH_chaos.json] [--report-dir chaos_reports]
//! ```

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use leishen::telemetry::RecordingSink;
use leishen::trace::json::fmt_f64;
use leishen::trace::FlightRecorder;
use leishen::{
    install_quiet_hook, ChainView, DetectorConfig, LeiShen, ResilienceConfig, ScanEngine, TagCache,
    TxExpect,
};
use leishen_bench::{print_table, Checks, Cli};
use leishen_scenarios::chaos::{grade, ChaosCorpus, Grade};
use leishen_scenarios::fuzz::seed_case;

const CONFIGS: [&str; 4] = ["serial", "parallel4", "metered", "traced"];

/// Everything one (config, rate) campaign produced.
struct Campaign {
    config: &'static str,
    rate_permille: u32,
    txs: usize,
    corrupted: usize,
    panics_fired: u64,
    delays_fired: u64,
    /// The scan's own quarantine count ([`leishen::ScanStats`]).
    stats_quarantined: usize,
    grade: Grade,
}

impl Campaign {
    fn survival_rate(&self) -> f64 {
        // Reaching this point at all means no abort; survival is the
        // fraction of inputs that came back with *some* verdict.
        if self.txs == 0 {
            1.0
        } else {
            self.grade.survived.min(self.txs) as f64 / self.txs as f64
        }
    }
}

fn main() {
    let mut cli = Cli::from_env();
    let seed = cli.value("--seed", 42u64);
    let smoke = cli.flag("--smoke");
    let out_path = cli.value("--out", "BENCH_chaos.json".to_string());
    let report_dir = cli.value("--report-dir", "chaos_reports".to_string());
    cli.finish("chaos");
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
        // One corpus per rate, shared by all four configurations, so a
        // config-dependent verdict difference is a real divergence and
        // not a sampling artifact. Same seed across rates keeps the
        // assignments rate-aligned (a record corrupted at 50‰ is also
        // corrupted at every higher rate).
        let chaos = ChaosCorpus::new(corpus, seed, rate);
        println!(
            "rate {rate}‰: {} corrupted records, {} induced stage faults",
            chaos.corrupted(),
            chaos.induced.len()
        );
        let view = corpus.view();
        for config in CONFIGS {
            campaigns.push(run_campaign(config, rate, &detector, &view, &chaos, &seeds.expect));
        }
    }
    let elapsed = start.elapsed();

    print_summary(&campaigns, elapsed.as_secs_f64());

    let total_violations: usize = campaigns.iter().map(|c| c.grade.violations.len()).sum();
    if total_violations > 0 {
        write_reports(&campaigns, Path::new(&report_dir));
    }

    let json = render_json(&campaigns, seed, smoke, corpus.txs.len(), flagged, elapsed.as_millis() as u64);
    std::fs::write(&out_path, &json).expect("write BENCH_chaos.json");
    println!("wrote {out_path}");

    let mut checks = Checks::default();
    for c in &campaigns {
        let name = format!("{} at {}\u{2030}", c.config, c.rate_permille);
        let g = &c.grade;
        checks.check(
            g.violations.is_empty(),
            format!(
                "{name}: {} violation(s); quarantine reports in {report_dir}/",
                g.violations.len()
            ),
        );
        checks.check(
            g.quarantined == c.corrupted,
            format!("{name}: quarantined {} of {} corrupted records", g.quarantined, c.corrupted),
        );
        checks.check(
            (c.rate_permille > 0) == (g.quarantined > 0),
            format!("{name}: quarantined {}; only a faulted campaign may, and must", g.quarantined),
        );
        checks.check(
            g.by_fault.values().sum::<usize>() == g.quarantined,
            format!("{name}: quarantine_by_fault does not sum to quarantined"),
        );
        checks.check(
            c.stats_quarantined == g.quarantined,
            format!(
                "{name}: scan stats counted {} quarantines, verdicts hold {}",
                c.stats_quarantined, g.quarantined
            ),
        );
    }
    checks.finish("chaos");
    println!(
        "all campaigns clean: {} configurations x {} rates, zero violations",
        CONFIGS.len(),
        rates.len()
    );
}

/// Scans `chaos` under one pipeline configuration and grades the
/// verdicts; the metered and traced configurations hand the grader
/// their sink's count and their recorder.
fn run_campaign(
    config: &'static str,
    rate: u32,
    detector: &LeiShen,
    view: &ChainView<'_>,
    chaos: &ChaosCorpus,
    expect: &[TxExpect],
) -> Campaign {
    let refs: Vec<_> = chaos.txs.iter().collect();
    let (policy, tags) = (ResilienceConfig::new(), TagCache::new());
    let injector = chaos.injector();
    let (sink, recorder) = (RecordingSink::new(), FlightRecorder::new());
    let engine = match config {
        "serial" => ScanEngine::new(1),
        _ => ScanEngine::new(4).allow_oversubscription(),
    };
    let scan = match config {
        "serial" | "parallel4" => {
            engine.scan_resilient_with(detector, &refs, view, &tags, &policy, &injector)
        }
        "metered" => {
            engine.scan_resilient_with(detector, &refs, view, &tags, &policy, &(&injector, &sink))
        }
        "traced" => engine.scan_resilient_with(
            detector,
            &refs,
            view,
            &tags,
            &policy,
            &(&injector, &recorder),
        ),
        other => unreachable!("unknown config {other}"),
    };
    let metered = (config == "metered").then(|| sink.counter_totals().quarantined);
    let traced = (config == "traced").then_some(&recorder);
    let graded = grade(&scan.verdicts, chaos, expect, traced, metered);
    Campaign {
        config,
        rate_permille: rate,
        txs: chaos.txs.len(),
        corrupted: chaos.corrupted(),
        panics_fired: injector.panics_fired(),
        delays_fired: injector.delays_fired(),
        stats_quarantined: scan.stats.quarantined,
        grade: graded,
    }
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
                c.grade.quarantined.to_string(),
                c.panics_fired.to_string(),
                format!("{:.3}", c.grade.recall_clean()),
                c.grade.false_positives.to_string(),
                c.grade.violations.len().to_string(),
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
    for c in campaigns.iter().filter(|c| !c.grade.violations.is_empty()) {
        let mut body = String::new();
        let _ = writeln!(body, "campaign {} at {}permille", c.config, c.rate_permille);
        let _ = writeln!(body, "-- violations ({})", c.grade.violations.len());
        for v in &c.grade.violations {
            let _ = writeln!(body, "{v}");
        }
        let _ = writeln!(body, "-- quarantines ({})", c.grade.quarantine_log.len());
        for q in &c.grade.quarantine_log {
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
        for (j, (name, count)) in c.grade.by_fault.iter().enumerate() {
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
            c.grade.quarantined,
            c.panics_fired,
            c.delays_fired,
            fmt_f64(c.survival_rate()),
            fmt_f64(c.grade.recall_clean()),
            c.grade.false_positives,
            c.grade.violations.len()
        );
    }
    let min_survival = campaigns.iter().map(Campaign::survival_rate).fold(1.0, f64::min);
    let min_recall = campaigns.iter().map(|c| c.grade.recall_clean()).fold(1.0, f64::min);
    let total_violations: usize = campaigns.iter().map(|c| c.grade.violations.len()).sum();
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
