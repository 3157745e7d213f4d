//! `recover` — the crash-point chaos campaign over the durable verdict
//! journal.
//!
//! Where the `chaos` bin corrupts *inputs*, this campaign kills the
//! *storage* underneath a live stream: each case from
//! [`leishen_scenarios::crash_matrix`] streams one corpus (the 22
//! known attacks with every fourth record corrupted, so quarantine
//! reports cross the crash too, or a slice of the synthetic wild
//! corpus) into
//! [`StreamService::run_durable`] over media armed with one seeded I/O
//! fault — power loss at a byte position, a short write, a torn frame,
//! an at-rest bit flip, a failed fsync. The shared oracle,
//! [`leishen_scenarios::crash::run_case`], then reopens the surviving
//! bytes like a fresh process, resumes, and grades the cycle as
//! exactly-once against the journal a fault-free run writes (its checks
//! are listed in [`leishen_scenarios::crash`]).
//!
//! Results land in `BENCH_recover.json` (schema in `EXPERIMENTS.md`).
//! Each failed case writes a report to `--report-dir`: its armed fault,
//! its violations, and the block numbers emitted before the crash and
//! after resume. The bin then exits 1, naming each failed check, unless
//! every case recovered with zero duplicated and zero lost verdicts, the
//! matrix recovered at least one torn tail, every fault has cases, only
//! bit flips re-emitted, both corpora journaled something, and the
//! attacks corpus quarantined at least one transaction.
//! `bench_diff recover` holds full (non-smoke) runs to a ≥200-case
//! matrix.
//!
//! ```text
//! cargo run --release -p leishen-bench --bin recover -- [--seed 42]
//!     [--smoke] [--out BENCH_recover.json]
//!     [--report-dir target/recover-reports]
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use ethsim::TxRecord;
use leishen::resilience::IoFault;
use leishen::store::{ArmedIoFault, FsyncPolicy, JournalConfig, LogConfig};
use leishen::stream::{StreamConfig, StreamService};
use leishen::trace::json::fmt_f64;
use leishen::{DetectorConfig, LeiShen};
use leishen_bench::{
    corpus_records, known_attack_world, percentile, print_table, sort_samples, wild_world, Checks,
    Cli,
};
use leishen_scenarios::chaos::corrupt_every_fourth;
use leishen_scenarios::crash::{clean_truth, run_case, CaseResult, Truth};
use leishen_scenarios::{crash_matrix, ArrivalCurve, CrashCase};

/// Wild-corpus scale and crash cases per (corpus, fault) cell of a full
/// run.
const FULL: (f64, usize) = (0.001, 25);
/// The same for `--smoke`.
const SMOKE: (f64, usize) = (0.0004, 4);
/// Transactions per streamed block.
const BLOCK_TXS: usize = 7;
/// The stream's scan workers.
const WORKERS: usize = 2;
/// Blocks between journal checkpoints.
const CHECKPOINT_INTERVAL: u64 = 4;

/// Per-corpus facts for the report.
struct CorpusInfo {
    name: &'static str,
    transactions: usize,
    blocks: usize,
    /// What the fault-free run journaled.
    truth: Truth,
}

/// One fault's cases, summed over the matrix.
#[derive(Default)]
struct FaultTally {
    cases: u64,
    recovered: u64,
    duplicate_verdicts: u64,
    lost_verdicts: u64,
    reemitted: u64,
    torn: u64,
}

fn write_reports(dir: &str, failures: &[&(&CrashCase, CaseResult)]) {
    if std::fs::create_dir_all(dir).is_err() {
        eprintln!("recover: could not create report dir {dir}");
        return;
    }
    for (i, (case, f)) in failures.iter().enumerate() {
        let mut body = format!(
            "case {} (fault {}, crash code {})\nreplay: cargo run -p leishen-bench --bin recover \
             -- with the same --seed; case label pins corpus/fault/placement\n\n\
             armed: {:?}\nemitted before the crash: {:?}\nemitted after resume: {:?}\n\n\
             violations:\n",
            case.label(),
            f.armed.fault.name(),
            f.crash_code,
            f.armed,
            f.pre,
            f.post
        );
        for v in &f.violations {
            let _ = writeln!(body, "  - {v}");
        }
        let path = format!("{dir}/case-{i:03}.txt");
        if std::fs::write(&path, body).is_ok() {
            eprintln!("recover: wrote failure report {path}");
        }
    }
}

fn main() {
    let mut cli = Cli::from_env();
    let seed = cli.value("--seed", 42u64);
    let smoke = cli.flag("--smoke");
    let (scale, seeds_per_cell) = if smoke { SMOKE } else { FULL };
    let out_path = cli.value("--out", "BENCH_recover.json".to_string());
    let report_dir = cli.value("--report-dir", "target/recover-reports".to_string());
    cli.finish("recover");

    let started = Instant::now();
    let jconfig = JournalConfig {
        log: LogConfig { segment_bytes: 4096, fsync: FsyncPolicy::Always },
        checkpoint_interval: CHECKPOINT_INTERVAL,
    };
    let service = StreamService::new(WORKERS, StreamConfig::default());
    let detector = LeiShen::new(DetectorConfig::paper());

    eprintln!("building corpora (seed={seed}, scale={scale})...");
    let (attack_world, attacks) = known_attack_world();
    let attack_labels = attack_world.detector_labels();
    let attack_view = attack_world.view(&attack_labels);
    // Every fourth attack record corrupted, so quarantine reports flow
    // through the journal, its recovery and its resume.
    let attack_owned =
        corrupt_every_fourth(&corpus_records(&attack_world, attacks.iter().map(|a| a.tx)));
    let attack_records: Vec<&TxRecord> = attack_owned.iter().collect();

    let (wild, wild_txs) = wild_world(seed, scale);
    let wild_labels = wild.detector_labels();
    let wild_view = wild.view(&wild_labels);
    let wild_records = corpus_records(&wild, wild_txs.iter().map(|t| t.tx));

    let matrix = crash_matrix(seed, &["attacks", "wild"], &IoFault::ALL, seeds_per_cell);
    println!(
        "recover campaign — {} crash points ({} faults × {} seeds × 2 corpora), \
         fsync={}, checkpoint every {} blocks\n",
        matrix.len(),
        IoFault::ALL.len(),
        seeds_per_cell,
        jconfig.log.fsync.name(),
        CHECKPOINT_INTERVAL
    );

    let mut corpora: Vec<CorpusInfo> = Vec::new();
    let mut results: Vec<(&CrashCase, CaseResult)> = Vec::new();
    for (name, view, records) in [
        ("attacks", &attack_view, &attack_records),
        ("wild", &wild_view, &wild_records),
    ] {
        let blocks = ArrivalCurve::steady(BLOCK_TXS).cut(records);
        let truth = clean_truth(&service, &detector, view, &blocks, jconfig);
        eprintln!(
            "{name}: {} txs in {} blocks, clean journal {} bytes \
             ({} appends, {} flushes), {} quarantined",
            records.len(),
            blocks.len(),
            truth.journal_bytes,
            truth.totals.appends,
            truth.totals.flushes,
            truth.quarantined
        );
        for case in matrix.iter().filter(|c| c.corpus == name) {
            let armed = ArmedIoFault::arm(&case.plan, &truth.totals);
            let result = run_case(armed, &service, &detector, view, &blocks, &truth, jconfig);
            results.push((case, result));
        }
        corpora.push(CorpusInfo { name, transactions: records.len(), blocks: blocks.len(), truth });
    }
    let elapsed = started.elapsed();

    // ----- aggregate --------------------------------------------------------
    let cases = results.len();
    let recovered = results.iter().filter(|(_, r)| r.recovered()).count();
    let success_rate = recovered as f64 / cases.max(1) as f64;
    let duplicate_verdicts: u64 = results.iter().map(|(_, r)| r.duplicate_verdicts).sum();
    let lost_verdicts: u64 = results.iter().map(|(_, r)| r.lost_verdicts).sum();
    let reemitted: u64 = results.iter().map(|(_, r)| r.reemitted_after_corruption).sum();
    let torn: usize = results.iter().filter(|(_, r)| r.truncated).count();
    let absorbed = results.iter().filter(|(_, r)| r.crash_code == "absorbed").count();
    let mut reopen: Vec<f64> = results.iter().map(|(_, r)| r.reopen_us).collect();
    sort_samples(&mut reopen);
    let (reopen_p50, reopen_p99) = (percentile(&reopen, 50.0), percentile(&reopen, 99.0));

    let by_fault: Vec<(IoFault, FaultTally)> = IoFault::ALL
        .into_iter()
        .map(|fault| {
            let mut t = FaultTally::default();
            for (_, r) in results.iter().filter(|(_, r)| r.armed.fault == fault) {
                t.cases += 1;
                t.recovered += u64::from(r.recovered());
                t.duplicate_verdicts += r.duplicate_verdicts;
                t.lost_verdicts += r.lost_verdicts;
                t.reemitted += r.reemitted_after_corruption;
                t.torn += u64::from(r.truncated);
            }
            (fault, t)
        })
        .collect();
    let rows: Vec<Vec<String>> = by_fault
        .iter()
        .map(|(fault, t)| {
            let counts = [t.cases, t.recovered, t.duplicate_verdicts, t.lost_verdicts, t.reemitted, t.torn];
            let mut cells = vec![fault.name().to_string()];
            cells.extend(counts.iter().map(u64::to_string));
            cells
        })
        .collect();
    print_table(
        &["fault", "cases", "recovered", "dup", "lost", "reemitted", "torn"],
        &rows,
    );
    println!(
        "\nrecovery success {recovered}/{cases} ({:.4}), {duplicate_verdicts} duplicated / \
         {lost_verdicts} lost verdicts, {torn} torn-tail recoveries, {absorbed} absorbed crashes, \
         reopen p50 {reopen_p50:.0} µs / p99 {reopen_p99:.0} µs",
        success_rate
    );

    let failures: Vec<&(&CrashCase, CaseResult)> =
        results.iter().filter(|(_, r)| !r.recovered()).collect();
    if !failures.is_empty() {
        println!("\n{} case(s) violated exactly-once recovery:", failures.len());
        for (case, f) in &failures {
            println!("  {} ({}):", case.label(), f.crash_code);
            for v in &f.violations {
                println!("    - {v}");
            }
        }
        write_reports(&report_dir, &failures);
    }

    // ----- BENCH_recover.json ----------------------------------------------
    let mut corpus_entries = String::new();
    for (i, CorpusInfo { name, transactions, blocks, truth: t }) in corpora.iter().enumerate() {
        if i > 0 {
            corpus_entries.push_str(",\n    ");
        }
        let _ = write!(
            corpus_entries,
            "{{\"name\":\"{name}\",\"transactions\":{transactions},\"blocks\":{blocks},\
             \"journal_bytes\":{},\"appends\":{},\"flushes\":{},\"quarantined\":{},\
             \"attacks\":{}}}",
            t.journal_bytes, t.totals.appends, t.totals.flushes, t.quarantined, t.attacks
        );
    }
    let mut fault_entries = String::new();
    for (i, (fault, t)) in by_fault.iter().enumerate() {
        if i > 0 {
            fault_entries.push_str(",\n    ");
        }
        let _ = write!(
            fault_entries,
            "{{\"fault\":\"{}\",\"cases\":{},\"recovered\":{},\"duplicate_verdicts\":{},\
             \"lost_verdicts\":{},\"reemitted_after_corruption\":{},\"torn_tail_recoveries\":{}}}",
            fault.name(),
            t.cases,
            t.recovered,
            t.duplicate_verdicts,
            t.lost_verdicts,
            t.reemitted,
            t.torn,
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"recover\",\n  \"smoke\": {smoke},\n  \"seed\": {seed},\n  \
         \"scale\": {},\n  \"block_txs\": {BLOCK_TXS},\n  \"workers\": {WORKERS},\n  \
         \"fsync\": \"{}\",\n  \"checkpoint_interval\": {CHECKPOINT_INTERVAL},\n  \
         \"segment_bytes\": {},\n  \"corpora\": [\n    {corpus_entries}\n  ],\n  \
         \"cases\": {cases},\n  \"recovered\": {recovered},\n  \
         \"recovery_success_rate\": {},\n  \"duplicate_verdicts\": {duplicate_verdicts},\n  \
         \"lost_verdicts\": {lost_verdicts},\n  \
         \"reemitted_after_corruption\": {reemitted},\n  \
         \"torn_tail_recoveries\": {torn},\n  \"absorbed_crashes\": {absorbed},\n  \
         \"reopen_latency_us\": {{ \"p50\": {}, \"p99\": {} }},\n  \
         \"by_fault\": [\n    {fault_entries}\n  ],\n  \
         \"violations\": {},\n  \"elapsed_ms\": {}\n}}\n",
        fmt_f64(scale),
        jconfig.log.fsync.name(),
        jconfig.log.segment_bytes,
        fmt_f64(success_rate),
        fmt_f64(reopen_p50),
        fmt_f64(reopen_p99),
        failures.len(),
        elapsed.as_millis()
    );
    std::fs::write(&out_path, &json).expect("write BENCH_recover.json");
    println!("wrote {out_path}");

    let mut checks = Checks::default();
    checks.check(
        failures.is_empty(),
        format!("{} of {cases} case(s) violated exactly-once recovery", failures.len()),
    );
    checks.check(cases > 0, "the crash matrix is empty");
    checks.check(duplicate_verdicts == 0, format!("{duplicate_verdicts} duplicated verdict(s)"));
    checks.check(lost_verdicts == 0, format!("{lost_verdicts} lost verdict(s)"));
    checks.check(torn > 0, "the matrix recovered no torn tail");
    for (fault, t) in &by_fault {
        checks.check(t.cases > 0, format!("fault {} has no cases", fault.name()));
        checks.check(
            *fault == IoFault::BitFlip || t.reemitted == 0,
            format!("fault {} re-emitted verdicts; only bit flips may", fault.name()),
        );
    }
    for CorpusInfo { name, transactions, blocks, truth: t } in &corpora {
        checks.check(
            *transactions > 0 && *blocks > 0 && t.journal_bytes > 0,
            format!("corpus {name} journaled nothing"),
        );
        checks.check(
            *name != "attacks" || t.quarantined > 0,
            "the attacks corpus quarantined nothing, so no quarantine report was recovered",
        );
    }
    checks.finish("recover");
}
