//! `recover` — the crash-point chaos campaign over the durable verdict
//! journal.
//!
//! Where the `chaos` bin corrupts *inputs*, this campaign kills the
//! *storage* underneath a live stream: each case from
//! [`leishen_scenarios::crash_matrix`] streams one corpus (the 22
//! known attacks, or a slice of the synthetic wild corpus) into
//! [`StreamService::run_durable`] over a [`FaultMedia`] armed with one
//! seeded I/O fault — power loss at a byte position, a short write, a
//! torn frame, an at-rest bit flip, a failed fsync — then reopens the
//! surviving bytes like a fresh process and resumes.
//!
//! A case passes only if the whole crash/recover cycle is exactly-once:
//!
//! * reopen never panics and never errors — damage is truncated to the
//!   clean checksummed prefix;
//! * the reopened prefix is a *prefix of the ground truth* (the journal
//!   a fault-free run writes) and the resumed run completes it exactly;
//! * every block is emitted exactly once across both runs — nothing
//!   already durable is re-emitted, nothing is lost. The one documented
//!   exception: a bit flip that destroys an already-acknowledged frame
//!   forces its block to be re-emitted (at-least-once is the only sound
//!   direction for at-rest corruption); those verdicts are counted in
//!   `reemitted_after_corruption`, never in `duplicate_verdicts`;
//! * the durable quarantine reports equal the ground truth's — each
//!   reported exactly once after restart.
//!
//! Results land in `BENCH_recover.json` (schema in `EXPERIMENTS.md`).
//! The bin then exits 1, naming each failed check, unless every case
//! recovered with zero duplicated and zero lost verdicts, the matrix
//! recovered at least one torn tail, every fault has cases, only bit
//! flips re-emitted, and both corpora journaled something. `bench_diff
//! recover` holds full (non-smoke) runs to a ≥200-case matrix.
//!
//! ```text
//! cargo run --release -p leishen-bench --bin recover -- [--seed 42]
//!     [--scale 0.001] [--seeds-per-cell 25] [--block-txs 7]
//!     [--workers 2] [--smoke] [--out BENCH_recover.json]
//!     [--report-dir target/recover-reports]
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use ethsim::TxRecord;
use leishen::resilience::IoFault;
use leishen::store::{
    ArmedIoFault, DurableBlock, FaultMedia, FsyncPolicy, JournalConfig, LogConfig, MemMedia,
    VerdictJournal, VerdictRecord, WriteTotals,
};
use leishen::stream::{Block, StreamConfig, StreamService};
use leishen::trace::json::fmt_f64;
use leishen::{ChainView, DetectorConfig, LeiShen, TagCache};
use leishen_bench::{
    cli_f64, cli_flag, cli_str, cli_u64, corpus_records, known_attack_world, percentile,
    print_table, sort_samples, wild_world, Checks,
};
use leishen_scenarios::{crash_matrix, CrashCase};

/// A fault that never triggers: the observer pass that measures the
/// clean write timeline and the ground-truth journal.
fn never_firing() -> ArmedIoFault {
    ArmedIoFault {
        fault: IoFault::Kill,
        at_byte: u64::MAX,
        at_append: u64::MAX,
        at_flush: u64::MAX,
        flip_seed: 0,
    }
}

/// Cuts a corpus into fixed-size blocks — the deterministic replay both
/// the crashed run and the resumed run submit.
fn cut_blocks<'a>(records: &[&'a TxRecord], block_txs: usize) -> Vec<Block<'a>> {
    records
        .chunks(block_txs.max(1))
        .enumerate()
        .map(|(i, chunk)| Block { number: i as u64, txs: chunk.to_vec() })
        .collect()
}

fn clone_block<'a>(b: &Block<'a>) -> Block<'a> {
    Block { number: b.number, txs: b.txs.clone() }
}

/// What a fault-free durable run over one corpus produces: the journal
/// every crash case must converge back to, plus the write timeline
/// faults are armed against.
struct Truth {
    blocks: Vec<DurableBlock>,
    quarantines: Vec<(u64, VerdictRecord)>,
    totals: WriteTotals,
    journal_bytes: u64,
    quarantined: usize,
    attacks: usize,
}

fn clean_truth<'a>(
    service: &StreamService,
    detector: &LeiShen,
    view: &ChainView<'a>,
    blocks: &[Block<'a>],
    jconfig: JournalConfig,
) -> Truth {
    let mut state = MemMedia::new();
    let media = FaultMedia::new(&mut state, never_firing());
    let (report, journal) = service
        .run_durable(
            detector,
            view,
            &TagCache::new(),
            media,
            jconfig,
            |p| {
                for b in blocks {
                    let _ = p.submit(clone_block(b));
                }
            },
            |_| {},
        )
        .expect("clean observer run opens a fresh journal");
    assert!(report.crashed.is_none(), "observer fault must never fire");
    assert_eq!(
        journal.blocks().len(),
        blocks.len(),
        "clean run journals every submitted block"
    );
    let truth_blocks = journal.blocks().to_vec();
    let quarantines = journal.quarantines();
    let observer = journal.into_media();
    let totals = observer.totals();
    drop(observer);
    Truth {
        blocks: truth_blocks,
        quarantines,
        totals,
        journal_bytes: state.total_bytes(),
        quarantined: report.stream.quarantined,
        attacks: report.stream.attacks,
    }
}

/// One graded crash/recover cycle.
struct CaseResult {
    label: String,
    fault: IoFault,
    /// How the crashed run ended: the `StoreError::code` that surfaced,
    /// or "absorbed" when the fault landed on the final auto-checkpoint
    /// and cost nothing observable.
    crash_code: String,
    /// Whether recovery truncated a torn tail / dropped damaged frames.
    truncated: bool,
    reopen_us: f64,
    duplicate_verdicts: u64,
    lost_verdicts: u64,
    reemitted_after_corruption: u64,
    violations: Vec<String>,
}

impl CaseResult {
    fn recovered(&self) -> bool {
        self.violations.is_empty()
    }
}

#[allow(clippy::too_many_arguments)]
fn run_case<'a>(
    case: &CrashCase,
    service: &StreamService,
    detector: &LeiShen,
    view: &ChainView<'a>,
    blocks: &[Block<'a>],
    truth: &Truth,
    jconfig: JournalConfig,
    fingerprint: u64,
) -> CaseResult {
    let mut violations: Vec<String> = Vec::new();
    let armed = ArmedIoFault::arm(&case.plan, &truth.totals);
    let mut state = MemMedia::new();

    // Phase 1: stream to destruction. Emissions observed before the
    // crash are exactly the acknowledgements a real consumer got.
    let mut pre: Vec<u64> = Vec::new();
    let outcome = service.run_durable(
        detector,
        view,
        &TagCache::new(),
        FaultMedia::new(&mut state, armed),
        jconfig,
        |p| {
            for b in blocks {
                let _ = p.submit(clone_block(b));
            }
        },
        |b| pre.push(b.number),
    );
    let crash_code = match outcome {
        Ok((report, journal)) => {
            let fired = journal.into_media().fired();
            if !fired {
                violations.push("planned fault never fired".to_string());
            }
            match report.crashed {
                Some(e) => e.code().to_string(),
                None => "absorbed".to_string(),
            }
        }
        // The fault landed inside journal open/creation itself — the
        // process died before the stream started. Still a valid crash
        // point: the survivor is whatever the media kept.
        Err(e) => e.code().to_string(),
    };

    // Phase 2: reopen the surviving bytes like a fresh process. This
    // must never panic and never error — recovery truncates damage.
    let reopen_started = Instant::now();
    let opened = VerdictJournal::open(&mut state, jconfig, fingerprint);
    let reopen_us = reopen_started.elapsed().as_secs_f64() * 1e6;
    let (journal, recovery) = match opened {
        Ok(opened) => opened,
        Err(e) => {
            violations.push(format!("reopen failed: {e:?}"));
            return CaseResult {
                label: case.label(),
                fault: case.plan.fault,
                crash_code,
                truncated: false,
                reopen_us,
                duplicate_verdicts: 0,
                lost_verdicts: truth.blocks.iter().map(|b| b.verdicts.len() as u64).sum(),
                reemitted_after_corruption: 0,
                violations,
            };
        }
    };
    let truncated = recovery.log.truncated
        || recovery.log.dropped_frames > 0
        || recovery.log.dropped_segments > 0;

    // The reopened journal must be a prefix of the ground truth —
    // recovery may lose a tail, never invent or reorder.
    let prefix: Vec<u64> = journal.blocks().iter().map(|b| b.number).collect();
    for (i, durable) in journal.blocks().iter().enumerate() {
        if truth.blocks.get(i) != Some(durable) {
            violations.push(format!(
                "reopened block {i} (#{}) diverges from the ground truth",
                durable.number
            ));
        }
    }

    // Phase 3: resume. The replay submits the same block sequence; the
    // durable prefix is skipped, everything after is re-scanned.
    let mut post: Vec<u64> = Vec::new();
    let (report, journal) = service.resume(
        detector,
        view,
        &TagCache::new(),
        journal,
        |p| {
            for b in blocks {
                let _ = p.submit(clone_block(b));
            }
        },
        |b| post.push(b.number),
    );
    if let Some(e) = &report.crashed {
        violations.push(format!("resume crashed on healthy media: {e:?}"));
    }
    if report.skipped_blocks != prefix.len() {
        violations.push(format!(
            "resume skipped {} blocks, durable prefix holds {}",
            report.skipped_blocks,
            prefix.len()
        ));
    }

    // The resumed journal must equal the ground truth exactly, and the
    // durable quarantine reports must match it one-for-one.
    if journal.blocks() != truth.blocks.as_slice() {
        violations.push("final journal diverges from the ground truth".to_string());
    }
    if journal.quarantines() != truth.quarantines {
        violations.push("durable quarantine reports diverge from the ground truth".to_string());
    }
    let mut duplicate_verdicts = 0u64;
    let mut lost_verdicts = 0u64;
    for t in &truth.blocks {
        let n = journal.blocks().iter().filter(|b| b.number == t.number).count();
        match n {
            0 => lost_verdicts += t.verdicts.len() as u64,
            1 => {}
            n => duplicate_verdicts += ((n - 1) * t.verdicts.len()) as u64,
        }
    }

    // Exactly-once emission across process death: each block surfaces
    // exactly once over { crashed run, resumed run }. A bit flip that
    // destroyed an acknowledged frame re-emits its block — the sound
    // at-least-once degradation — and is tallied separately.
    let mut reemitted_after_corruption = 0u64;
    for t in &truth.blocks {
        let pre_n = pre.iter().filter(|&&n| n == t.number).count();
        let post_n = post.iter().filter(|&&n| n == t.number).count();
        match pre_n + post_n {
            0 => {
                lost_verdicts += t.verdicts.len() as u64;
                violations.push(format!("block #{} was never emitted", t.number));
            }
            1 => {}
            n if case.plan.fault == IoFault::BitFlip
                && pre_n == 1
                && post_n == 1
                && !prefix.contains(&t.number) =>
            {
                let _ = n;
                reemitted_after_corruption += t.verdicts.len() as u64;
            }
            n => {
                duplicate_verdicts += ((n - 1) * t.verdicts.len()) as u64;
                violations.push(format!("block #{} was emitted {n} times", t.number));
            }
        }
    }

    CaseResult {
        label: case.label(),
        fault: case.plan.fault,
        crash_code,
        truncated,
        reopen_us,
        duplicate_verdicts,
        lost_verdicts,
        reemitted_after_corruption,
        violations,
    }
}

/// Per-corpus facts for the report.
struct CorpusInfo {
    name: &'static str,
    transactions: usize,
    blocks: usize,
    journal_bytes: u64,
    appends: u64,
    flushes: u64,
    quarantined: usize,
    attacks: usize,
}

fn write_reports(dir: &str, failures: &[&CaseResult]) {
    if std::fs::create_dir_all(dir).is_err() {
        eprintln!("recover: could not create report dir {dir}");
        return;
    }
    for (i, f) in failures.iter().enumerate() {
        let mut body = format!(
            "case {} (fault {}, crash code {})\nreplay: cargo run -p leishen-bench --bin recover \
             -- with the same --seed; case label pins corpus/fault/placement\n\nviolations:\n",
            f.label,
            f.fault.name(),
            f.crash_code
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
    let seed = cli_u64("--seed", 42);
    let smoke = cli_flag("--smoke");
    let scale = cli_f64("--scale", if smoke { 0.0004 } else { 0.001 });
    let seeds_per_cell = cli_u64("--seeds-per-cell", if smoke { 4 } else { 25 }).max(1) as usize;
    let block_txs = cli_u64("--block-txs", 7).max(1) as usize;
    let workers = cli_u64("--workers", 2).max(1) as usize;
    let checkpoint_interval = cli_u64("--checkpoint-interval", 4).max(1);
    let out_path = cli_str("--out", "BENCH_recover.json");
    let report_dir = cli_str("--report-dir", "target/recover-reports");

    let started = Instant::now();
    let jconfig = JournalConfig {
        log: LogConfig { segment_bytes: 4096, fsync: FsyncPolicy::Always },
        checkpoint_interval,
    };
    let service = StreamService::new(workers, StreamConfig::default());
    let detector = LeiShen::new(DetectorConfig::paper());
    let fingerprint = detector.config().fingerprint();

    eprintln!("building corpora (seed={seed}, scale={scale})...");
    let (attack_world, attacks) = known_attack_world();
    let attack_labels = attack_world.detector_labels();
    let attack_view = attack_world.view(&attack_labels);
    let attack_records = corpus_records(&attack_world, attacks.iter().map(|a| a.tx));

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
        checkpoint_interval
    );

    let mut corpora: Vec<CorpusInfo> = Vec::new();
    let mut results: Vec<CaseResult> = Vec::new();
    for (name, view, records) in [
        ("attacks", &attack_view, &attack_records),
        ("wild", &wild_view, &wild_records),
    ] {
        let blocks = cut_blocks(records, block_txs);
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
        corpora.push(CorpusInfo {
            name,
            transactions: records.len(),
            blocks: blocks.len(),
            journal_bytes: truth.journal_bytes,
            appends: truth.totals.appends,
            flushes: truth.totals.flushes,
            quarantined: truth.quarantined,
            attacks: truth.attacks,
        });
        for case in matrix.iter().filter(|c| c.corpus == name) {
            results.push(run_case(
                case,
                &service,
                &detector,
                view,
                &blocks,
                &truth,
                jconfig,
                fingerprint,
            ));
        }
    }
    let elapsed = started.elapsed();

    // ----- aggregate --------------------------------------------------------
    let cases = results.len();
    let recovered = results.iter().filter(|r| r.recovered()).count();
    let success_rate = recovered as f64 / cases.max(1) as f64;
    let duplicate_verdicts: u64 = results.iter().map(|r| r.duplicate_verdicts).sum();
    let lost_verdicts: u64 = results.iter().map(|r| r.lost_verdicts).sum();
    let reemitted: u64 = results.iter().map(|r| r.reemitted_after_corruption).sum();
    let torn: usize = results.iter().filter(|r| r.truncated).count();
    let absorbed = results.iter().filter(|r| r.crash_code == "absorbed").count();
    let mut reopen: Vec<f64> = results.iter().map(|r| r.reopen_us).collect();
    sort_samples(&mut reopen);
    let (reopen_p50, reopen_p99) = (percentile(&reopen, 50.0), percentile(&reopen, 99.0));

    let mut rows: Vec<Vec<String>> = Vec::new();
    for fault in IoFault::ALL {
        let of_fault: Vec<&CaseResult> = results.iter().filter(|r| r.fault == fault).collect();
        rows.push(vec![
            fault.name().to_string(),
            of_fault.len().to_string(),
            of_fault.iter().filter(|r| r.recovered()).count().to_string(),
            of_fault.iter().map(|r| r.duplicate_verdicts).sum::<u64>().to_string(),
            of_fault.iter().map(|r| r.lost_verdicts).sum::<u64>().to_string(),
            of_fault.iter().map(|r| r.reemitted_after_corruption).sum::<u64>().to_string(),
            of_fault.iter().filter(|r| r.truncated).count().to_string(),
        ]);
    }
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

    let failures: Vec<&CaseResult> = results.iter().filter(|r| !r.recovered()).collect();
    if !failures.is_empty() {
        println!("\n{} case(s) violated exactly-once recovery:", failures.len());
        for f in &failures {
            println!("  {} ({}):", f.label, f.crash_code);
            for v in &f.violations {
                println!("    - {v}");
            }
        }
        write_reports(&report_dir, &failures);
    }

    // ----- BENCH_recover.json ----------------------------------------------
    let mut corpus_entries = String::new();
    for (i, c) in corpora.iter().enumerate() {
        if i > 0 {
            corpus_entries.push_str(",\n    ");
        }
        let _ = write!(
            corpus_entries,
            "{{\"name\":\"{}\",\"transactions\":{},\"blocks\":{},\"journal_bytes\":{},\
             \"appends\":{},\"flushes\":{},\"quarantined\":{},\"attacks\":{}}}",
            c.name, c.transactions, c.blocks, c.journal_bytes, c.appends, c.flushes,
            c.quarantined, c.attacks
        );
    }
    let mut fault_entries = String::new();
    for (i, fault) in IoFault::ALL.iter().enumerate() {
        let of_fault: Vec<&CaseResult> = results.iter().filter(|r| r.fault == *fault).collect();
        if i > 0 {
            fault_entries.push_str(",\n    ");
        }
        let _ = write!(
            fault_entries,
            "{{\"fault\":\"{}\",\"cases\":{},\"recovered\":{},\"duplicate_verdicts\":{},\
             \"lost_verdicts\":{},\"reemitted_after_corruption\":{},\"torn_tail_recoveries\":{}}}",
            fault.name(),
            of_fault.len(),
            of_fault.iter().filter(|r| r.recovered()).count(),
            of_fault.iter().map(|r| r.duplicate_verdicts).sum::<u64>(),
            of_fault.iter().map(|r| r.lost_verdicts).sum::<u64>(),
            of_fault.iter().map(|r| r.reemitted_after_corruption).sum::<u64>(),
            of_fault.iter().filter(|r| r.truncated).count(),
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"recover\",\n  \"smoke\": {smoke},\n  \"seed\": {seed},\n  \
         \"scale\": {},\n  \"block_txs\": {block_txs},\n  \"workers\": {workers},\n  \
         \"fsync\": \"{}\",\n  \"checkpoint_interval\": {checkpoint_interval},\n  \
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
    for fault in IoFault::ALL {
        let of_fault: Vec<&CaseResult> = results.iter().filter(|r| r.fault == fault).collect();
        let reemitted: u64 = of_fault.iter().map(|r| r.reemitted_after_corruption).sum();
        checks.check(!of_fault.is_empty(), format!("fault {} has no cases", fault.name()));
        checks.check(
            fault == IoFault::BitFlip || reemitted == 0,
            format!("fault {} re-emitted verdicts; only bit flips may", fault.name()),
        );
    }
    for c in &corpora {
        checks.check(
            c.transactions > 0 && c.blocks > 0 && c.journal_bytes > 0,
            format!("corpus {} journaled nothing", c.name),
        );
    }
    checks.finish("recover");
}
