//! The storage chaos campaign: crash-matrix plans and the one
//! crash→reopen→resume oracle.
//!
//! Where [`crate::chaos`] corrupts *inputs* before they reach the scan,
//! this module plans faults that land *underneath* it: each case kills
//! the durable verdict journal's media at one seeded point in its write
//! timeline (torn frame, bit flip, failed fsync, power loss — the
//! [`IoFault`] taxonomy). [`run_case`] then reopens the surviving bytes
//! like a fresh process, resumes the same replay, and grades the cycle
//! against [`clean_truth`]. The `recover` bench loops [`crash_matrix`]
//! over it and `tests/stream_durable.rs` loops hand-picked faults over
//! it, so a check added here reaches both. The matrix is fully
//! determined by `(campaign seed, corpus list, fault list,
//! seeds-per-cell)` — rerunning a campaign, or replaying one failing
//! case out of it, needs only those inputs.
//!
//! A cycle passes only if it is exactly-once:
//!
//! * the planned fault fired, and a run that completed journaled what
//!   it emitted;
//! * reopen never panics and never errors — damage is truncated to the
//!   clean checksummed prefix — and the reopened journal is a *prefix of
//!   the ground truth*;
//! * the resumed run skips exactly that prefix, completes on healthy
//!   media, and converges the journal (and its quarantine reports) back
//!   to the ground truth;
//! * every block is emitted exactly once across both runs. The one
//!   documented exception: a bit flip that destroys an
//!   already-acknowledged frame forces its block to be re-emitted
//!   (at-least-once is the only sound direction for at-rest
//!   corruption); those verdicts count in
//!   [`CaseResult::reemitted_after_corruption`], never as duplicates.

use std::time::Instant;

use leishen::resilience::{IoFault, IoFaultPlan};
use leishen::store::{
    ArmedIoFault, DurableBlock, FaultMedia, JournalConfig, MemMedia, VerdictJournal,
    VerdictRecord, WriteTotals,
};
use leishen::stream::{Block, StreamProducer, StreamService};
use leishen::{ChainView, FuzzRng, LeiShen, TagCache};

/// One planned crash: which corpus to stream, which fault to land, and
/// the seed that places it in the write timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashCase {
    /// Position in the campaign (stable across reruns).
    pub id: usize,
    /// Name of the corpus this case streams (the bench maps names to
    /// record sets).
    pub corpus: String,
    /// The armed fault plan (kind + placement seed).
    pub plan: IoFaultPlan,
}

impl CrashCase {
    /// Stable human-readable label: `corpus/fault/seed`, the replay
    /// coordinate printed in failure reports.
    pub fn label(&self) -> String {
        format!("{}/{}/{}", self.corpus, self.plan.fault.name(), self.plan.seed)
    }
}

/// Builds the full crash matrix: `corpora × faults × seeds_per_cell`
/// cases, each with a distinct deterministic placement seed drawn from
/// `campaign_seed`. Case order (and so each case's placement seed) is
/// stable for a given argument tuple, which is what lets CI pin a
/// small smoke matrix and the full run pin `BENCH_recover.json`.
pub fn crash_matrix(
    campaign_seed: u64,
    corpora: &[&str],
    faults: &[IoFault],
    seeds_per_cell: usize,
) -> Vec<CrashCase> {
    let mut rng = FuzzRng::new(campaign_seed);
    let mut cases = Vec::with_capacity(corpora.len() * faults.len() * seeds_per_cell);
    for corpus in corpora {
        for &fault in faults {
            for _ in 0..seeds_per_cell {
                cases.push(CrashCase {
                    id: cases.len(),
                    corpus: (*corpus).to_string(),
                    plan: IoFaultPlan::new(rng.next_u64(), fault),
                });
            }
        }
    }
    cases
}

/// What a fault-free durable run over one block sequence produces: the
/// journal every crash case must converge back to, plus the write
/// timeline faults are armed against.
#[derive(Debug)]
pub struct Truth {
    /// The journaled blocks, in order.
    pub blocks: Vec<DurableBlock>,
    /// The durable quarantine reports.
    pub quarantines: Vec<(u64, VerdictRecord)>,
    /// The clean run's write timeline.
    pub totals: WriteTotals,
    /// Bytes the clean journal holds.
    pub journal_bytes: u64,
    /// Transactions the clean run quarantined.
    pub quarantined: usize,
    /// Transactions the clean run flagged.
    pub attacks: usize,
}

/// Submits the deterministic replay: every block, in order. The crashed
/// run and the resumed run submit the same sequence.
fn submit_all<'a>(producer: &StreamProducer<'_, 'a>, blocks: &[Block<'a>]) {
    for block in blocks {
        let _ = producer.submit(block.clone());
    }
}

/// Streams `blocks` through a fault-free durable run and records the
/// journal it writes.
///
/// # Panics
///
/// If the never-firing fault fires or a block goes unjournaled: without
/// a sound ground truth no case can be graded.
pub fn clean_truth<'a>(
    service: &StreamService,
    detector: &LeiShen,
    view: &ChainView<'a>,
    blocks: &[Block<'a>],
    journal_config: JournalConfig,
) -> Truth {
    let mut state = MemMedia::new();
    let (report, journal) = service
        .run_durable(
            detector,
            view,
            &TagCache::new(),
            FaultMedia::new(&mut state, ArmedIoFault::never()),
            journal_config,
            |p| submit_all(p, blocks),
            |_| {},
        )
        .expect("clean observer run opens a fresh journal");
    assert!(report.crashed.is_none(), "observer fault must never fire");
    assert_eq!(journal.blocks().len(), blocks.len(), "clean run journals every submitted block");
    let truth_blocks = journal.blocks().to_vec();
    let quarantines = journal.quarantines();
    let totals = journal.into_media().totals();
    Truth {
        blocks: truth_blocks,
        quarantines,
        totals,
        journal_bytes: state.total_bytes(),
        quarantined: report.stream.quarantined,
        attacks: report.stream.attacks,
    }
}

/// One graded crash/reopen/resume cycle.
#[derive(Debug)]
pub struct CaseResult {
    /// The fault the crashed run carried, with its trigger resolved.
    pub armed: ArmedIoFault,
    /// How the crashed run ended: the `StoreError::code` that surfaced,
    /// or "absorbed" when the fault landed on the final auto-checkpoint
    /// and cost nothing observable.
    pub crash_code: String,
    /// Whether recovery truncated a torn tail or dropped damaged frames.
    pub truncated: bool,
    /// Wall time of the reopen, microseconds.
    pub reopen_us: f64,
    /// Verdicts emitted or journaled more than once.
    pub duplicate_verdicts: u64,
    /// Verdicts never emitted, or missing from the resumed journal.
    pub lost_verdicts: u64,
    /// Verdicts a bit flip forced to be emitted a second time.
    pub reemitted_after_corruption: u64,
    /// Block numbers the crashed run emitted, in emission order.
    pub pre: Vec<u64>,
    /// Block numbers the resumed run emitted, in emission order.
    pub post: Vec<u64>,
    /// Every violated check, in the order found.
    pub violations: Vec<String>,
}

impl CaseResult {
    /// Whether the cycle was exactly-once.
    pub fn recovered(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The reopened blocks that are not the ground truth's block at the
/// same position: recovery may lose a tail, never invent or reorder.
pub fn diverging_prefix(truth: &[DurableBlock], reopened: &[DurableBlock]) -> Vec<String> {
    reopened
        .iter()
        .enumerate()
        .filter(|&(i, durable)| truth.get(i) != Some(durable))
        .map(|(i, durable)| {
            format!("reopened block {i} (#{}) diverges from the ground truth", durable.number)
        })
        .collect()
}

/// The emission and journal ledger of one cycle: verdict counts and
/// violations.
#[derive(Debug, Default, PartialEq)]
pub struct Emissions {
    /// Verdicts of blocks emitted or journaled more than once (bit-flip
    /// re-emission aside).
    pub duplicate_verdicts: u64,
    /// Verdicts of blocks neither run emitted, or the resumed journal
    /// lacks.
    pub lost_verdicts: u64,
    /// Verdicts a bit flip forced to be emitted twice.
    pub reemitted_after_corruption: u64,
    /// One line per block emitted other than exactly once.
    pub violations: Vec<String>,
}

/// Exactly-once across process death: each truth block must surface
/// exactly once over { crashed run (`pre`), resumed run (`post`) } and
/// appear exactly once in the resumed `journal`. A block the crashed
/// run emitted, that a bit flip then cut from the `durable` prefix and
/// the resumed run emitted again, is the sound at-least-once
/// degradation and is tallied apart. Each block counts its verdicts at
/// most once as lost, and `copies - 1` times as duplicated, where
/// `copies` is the larger of its emission and journal counts.
pub fn account_emissions(
    truth: &[DurableBlock],
    fault: IoFault,
    durable: &[u64],
    journal: &[u64],
    pre: &[u64],
    post: &[u64],
) -> Emissions {
    let count = |blocks: &[u64], number: u64| blocks.iter().filter(|&&n| n == number).count();
    let mut out = Emissions::default();
    for t in truth {
        let verdicts = t.verdicts.len() as u64;
        let (pre_n, post_n) = (count(pre, t.number), count(post, t.number));
        let mut emitted = pre_n + post_n;
        match emitted {
            0 => out.violations.push(format!("block #{} was never emitted", t.number)),
            1 => {}
            2 if fault == IoFault::BitFlip
                && pre_n == 1
                && post_n == 1
                && !durable.contains(&t.number) =>
            {
                out.reemitted_after_corruption += verdicts;
                emitted = 1;
            }
            n => out.violations.push(format!("block #{} was emitted {n} times", t.number)),
        }
        let journaled = count(journal, t.number);
        if emitted == 0 || journaled == 0 {
            out.lost_verdicts += verdicts;
        }
        out.duplicate_verdicts += emitted.max(journaled).saturating_sub(1) as u64 * verdicts;
    }
    out
}

/// Runs one crash/reopen/resume cycle over `blocks` with `armed` under
/// the media, and grades it against `truth` (see the module docs for
/// the checks). The fingerprint the journal is reopened under is the
/// detector's.
pub fn run_case<'a>(
    armed: ArmedIoFault,
    service: &StreamService,
    detector: &LeiShen,
    view: &ChainView<'a>,
    blocks: &[Block<'a>],
    truth: &Truth,
    journal_config: JournalConfig,
) -> CaseResult {
    let mut violations: Vec<String> = Vec::new();
    let mut state = MemMedia::new();

    // Phase 1: stream to destruction. Emissions observed before the
    // crash are exactly the acknowledgements a real consumer got.
    let mut pre: Vec<u64> = Vec::new();
    let outcome = service.run_durable(
        detector,
        view,
        &TagCache::new(),
        FaultMedia::new(&mut state, armed),
        journal_config,
        |p| submit_all(p, blocks),
        |b| pre.push(b.number),
    );
    let crash_code = match outcome {
        Ok((report, journal)) => {
            if journal.log_metrics().frames == 0 && !journal.blocks().is_empty() {
                violations.push("run completed without touching the journal".to_string());
            }
            if !journal.into_media().fired() {
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
    let opened = VerdictJournal::open(&mut state, journal_config, detector.config().fingerprint());
    let reopen_us = reopen_started.elapsed().as_secs_f64() * 1e6;
    let (journal, recovery) = match opened {
        Ok(opened) => opened,
        Err(e) => {
            violations.push(format!("reopen failed: {e:?}"));
            return CaseResult {
                armed,
                crash_code,
                truncated: false,
                reopen_us,
                duplicate_verdicts: 0,
                lost_verdicts: truth.blocks.iter().map(|b| b.verdicts.len() as u64).sum(),
                reemitted_after_corruption: 0,
                pre,
                post: Vec::new(),
                violations,
            };
        }
    };
    let truncated = recovery.log.truncated
        || recovery.log.dropped_frames > 0
        || recovery.log.dropped_segments > 0;
    let durable: Vec<u64> = journal.blocks().iter().map(|b| b.number).collect();
    violations.extend(diverging_prefix(&truth.blocks, journal.blocks()));

    // Phase 3: resume. The replay submits the same block sequence; the
    // durable prefix is skipped, everything after is re-scanned.
    let mut post: Vec<u64> = Vec::new();
    let (report, journal) = service.resume(
        detector,
        view,
        &TagCache::new(),
        journal,
        |p| submit_all(p, blocks),
        |b| post.push(b.number),
    );
    if let Some(e) = &report.crashed {
        violations.push(format!("resume crashed on healthy media: {e:?}"));
    }
    if report.skipped_blocks != durable.len() {
        violations.push(format!(
            "resume skipped {} blocks, durable prefix holds {}",
            report.skipped_blocks,
            durable.len()
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
    let journaled: Vec<u64> = journal.blocks().iter().map(|b| b.number).collect();
    let emissions =
        account_emissions(&truth.blocks, armed.fault, &durable, &journaled, &pre, &post);
    violations.extend(emissions.violations);
    CaseResult {
        armed,
        crash_code,
        truncated,
        reopen_us,
        duplicate_verdicts: emissions.duplicate_verdicts,
        lost_verdicts: emissions.lost_verdicts,
        reemitted_after_corruption: emissions.reemitted_after_corruption,
        pre,
        post,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_deterministic_and_covers_every_cell() {
        let corpora = ["attacks", "wild"];
        let a = crash_matrix(42, &corpora, &IoFault::ALL, 3);
        let b = crash_matrix(42, &corpora, &IoFault::ALL, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2 * IoFault::ALL.len() * 3);
        // Every (corpus, fault) cell appears exactly seeds_per_cell times.
        for corpus in corpora {
            for fault in IoFault::ALL {
                let n = a
                    .iter()
                    .filter(|c| c.corpus == corpus && c.plan.fault == fault)
                    .count();
                assert_eq!(n, 3, "{corpus}/{}", fault.name());
            }
        }
        // Placement seeds are all distinct — no case is a replay of
        // another.
        let mut seeds: Vec<u64> = a.iter().map(|c| c.plan.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), a.len());
    }

    #[test]
    fn different_campaign_seed_moves_every_placement() {
        let a = crash_matrix(1, &["attacks"], &IoFault::ALL, 2);
        let b = crash_matrix(2, &["attacks"], &IoFault::ALL, 2);
        assert!(a.iter().zip(&b).all(|(x, y)| x.plan.seed != y.plan.seed));
    }

    #[test]
    fn labels_name_the_replay_coordinate() {
        let m = crash_matrix(7, &["wild"], &[IoFault::TornFrame], 1);
        assert_eq!(m[0].label(), format!("wild/torn_frame/{}", m[0].plan.seed));
    }

    /// Three truth blocks #0..#2 of two cleared verdicts each.
    fn truth() -> Vec<DurableBlock> {
        (0..3u64)
            .map(|n| DurableBlock {
                number: n,
                base: 2 * n,
                verdicts: vec![
                    VerdictRecord::Cleared { index: 2 * n },
                    VerdictRecord::Cleared { index: 2 * n + 1 },
                ],
            })
            .collect()
    }

    /// A resumed journal holding each truth block once.
    const JOURNALED: &[u64] = &[0, 1, 2];

    #[test]
    fn exactly_once_emission_has_no_violation() {
        let ledger = account_emissions(&truth(), IoFault::Kill, &[0], JOURNALED, &[0], &[1, 2]);
        assert_eq!(ledger, Emissions::default());
    }

    #[test]
    fn a_block_emitted_before_the_crash_and_after_resume_is_duplicated() {
        // Block 1 was acknowledged, then lost from the durable prefix
        // by a fault that is not a bit flip: the resumed run re-emits it.
        let ledger = account_emissions(&truth(), IoFault::Kill, &[0], JOURNALED, &[0, 1], &[1, 2]);
        assert_eq!(ledger.duplicate_verdicts, 2);
        assert_eq!(ledger.reemitted_after_corruption, 0);
        assert_eq!(ledger.violations, ["block #1 was emitted 2 times"]);
    }

    #[test]
    fn a_bit_flip_re_emission_is_tallied_apart() {
        let ledger =
            account_emissions(&truth(), IoFault::BitFlip, &[0], JOURNALED, &[0, 1], &[1, 2]);
        assert_eq!(ledger.reemitted_after_corruption, 2);
        assert_eq!(ledger.duplicate_verdicts, 0);
        assert!(ledger.violations.is_empty());
        // …but not when the re-emitted block was still durable.
        let ledger =
            account_emissions(&truth(), IoFault::BitFlip, &[0, 1], JOURNALED, &[0, 1], &[1, 2]);
        assert_eq!(ledger.violations, ["block #1 was emitted 2 times"]);
    }

    #[test]
    fn a_truth_block_neither_run_emitted_is_lost() {
        let ledger = account_emissions(&truth(), IoFault::TornFrame, &[0], JOURNALED, &[0], &[2]);
        assert_eq!(ledger.lost_verdicts, 2);
        assert_eq!(ledger.violations, ["block #1 was never emitted"]);
    }

    #[test]
    fn a_block_both_journaled_and_emitted_twice_counts_once_per_extra_copy() {
        let ledger =
            account_emissions(&truth(), IoFault::Kill, &[0], &[0, 1, 1, 2], &[0, 1], &[1, 2]);
        assert_eq!(ledger.duplicate_verdicts, 2);
        assert_eq!(ledger.lost_verdicts, 0);
        // A journal copy alone is a duplicate too.
        let ledger = account_emissions(&truth(), IoFault::Kill, &[0], &[0, 1, 1, 2], &[0], &[1, 2]);
        assert_eq!(ledger.duplicate_verdicts, 2);
        assert!(ledger.violations.is_empty());
    }

    #[test]
    fn a_block_neither_emitted_nor_journaled_is_lost_once() {
        let ledger = account_emissions(&truth(), IoFault::TornFrame, &[0], &[0, 2], &[0], &[2]);
        assert_eq!(ledger.lost_verdicts, 2);
        assert_eq!(ledger.duplicate_verdicts, 0);
        // Emitted once but missing from the journal is lost as well.
        let ledger = account_emissions(&truth(), IoFault::TornFrame, &[0], &[0, 2], &[0], &[1, 2]);
        assert_eq!(ledger.lost_verdicts, 2);
        assert!(ledger.violations.is_empty());
    }

    #[test]
    fn a_reopened_journal_that_is_not_a_prefix_of_the_truth_is_caught() {
        let truth = truth();
        assert!(diverging_prefix(&truth, &truth[..2]).is_empty());
        // A block out of order…
        let reordered = [truth[0].clone(), truth[2].clone()];
        assert_eq!(
            diverging_prefix(&truth, &reordered),
            ["reopened block 1 (#2) diverges from the ground truth"]
        );
        // …or with a tampered verdict.
        let mut tampered = truth[..1].to_vec();
        tampered[0].verdicts[1] = VerdictRecord::Cleared { index: 7 };
        assert_eq!(
            diverging_prefix(&truth, &tampered),
            ["reopened block 0 (#0) diverges from the ground truth"]
        );
    }
}
