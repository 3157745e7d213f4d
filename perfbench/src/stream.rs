//! `stream-durable`: the monitor. The wild corpus is cut into blocks by a
//! bursty arrival curve and offered open-loop at a fixed rate to
//! `StreamService::run_durable`, which journals every block on disk with an
//! fsync before emitting it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ethsim::TxRecord;
use leishen::resilience::Verdict;
use leishen::store::{DurableBlock, VerdictRecord};
use leishen::trace::json::Json;
use leishen::{
    Block, ChainView, DirMedia, FsyncPolicy, JournalConfig, LeiShen, LocalTagCache, LogConfig,
    ResilienceConfig, ScanEngine, StreamConfig, StreamService, TagCache, VerdictJournal, WavePlan,
};
use leishen_scenarios::ArrivalCurve;

use crate::catalog::Layers;
use crate::compose::{fidelity_gates, stage_layers, Composer};
use crate::corpus::{check_ground_truth, detector, differing, digest, Corpus};
use crate::env::{effective_workers, filesystem_of, hw_threads, Env, CHUNK_HINT};
use crate::out_dir;
use crate::report::Outcome;
use crate::spans::Spans;
use crate::stats::{median, percentile, sorted, tail, tail_or_max};

/// 13,834 transactions at the default seed.
pub const SCALE: f64 = 0.05;
/// Scan workers of the service.
pub const WORKERS: usize = 2;
/// Mean block size of the bursty arrival curve.
pub const MEAN_BLOCK: usize = 8;
/// Offered load, well below what the service sustains at the end of the
/// stream, where the tag cache is largest and every block's snapshot
/// rebuild costs most. On a 2-vCPU VM the end-of-stream capacity measured
/// about 8,000 tx/s, yet at 3,000 tx/s a slow stretch of the host still
/// filled the ingest queue in some runs; at this rate it did not.
pub const OFFERED_TX_PER_S: f64 = 1500.0;

/// When each block of the corpus is due.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// The blocks, as corpus index ranges.
    pub cuts: Vec<Range<usize>>,
    /// Each block's due time, after the stream's start.
    pub offsets: Vec<Duration>,
}

impl Schedule {
    /// Cuts `n` transactions along `curve` and spaces the blocks by the
    /// curve's own gaps (bursts arrive back to back), scaled so the whole
    /// corpus is offered at `rate` tx/s.
    pub fn open_loop(curve: &ArrivalCurve, n: usize, rate: f64) -> Self {
        let cuts = curve.blocks(n);
        let gaps = curve.gaps_us(&cuts);
        let span_s = n as f64 / rate;
        let total: u64 = gaps.iter().skip(1).sum();
        let mut offsets = Vec::with_capacity(cuts.len());
        let mut acc = 0u64;
        for (i, gap) in gaps.iter().enumerate() {
            if i > 0 {
                acc += if total == 0 { 1 } else { *gap };
            }
            let share = acc as f64
                / if total == 0 {
                    (cuts.len() - 1).max(1) as f64
                } else {
                    total as f64
                };
            offsets.push(Duration::from_secs_f64(span_s * share));
        }
        Schedule { cuts, offsets }
    }
}

/// A verdict's latency measured from when its block was due, not from when
/// it was submitted: time the generator spent stalled counts against it.
pub fn due_latency(start: Instant, offset: Duration, emitted_at: Instant) -> Duration {
    emitted_at.saturating_duration_since(start + offset)
}

/// Time a pass takes beyond its schedule: five set-ups, draining the last
/// block, reopening the journal, and the batch reference before the first.
const PASS_OVERHEAD_S: f64 = 1.5;

/// How many passes over a schedule spanning `span` fit in `seconds`, at
/// least one. The count follows from the arguments alone, not from how
/// fast the host happens to run, so every run given the same `--seconds`
/// replays its schedule the same number of times.
pub fn pass_count(seconds: f64, span: Duration) -> usize {
    ((seconds / (span.as_secs_f64() + PASS_OVERHEAD_S)).floor() as usize).max(1)
}

/// `(block number, due → emit latency)` per emitted block, in block order.
pub type Latencies = Vec<(u64, Duration)>;

/// Each block's fastest latency over the passes that emitted it, for
/// `blocks` blocks. Every pass replays one schedule, so a block's latency
/// differs between passes only by what the host added to it: the fastest
/// keeps what the program costs the block and drops a stall of the host
/// that hit it in one pass, while a program that is slower on the block is
/// slower in every pass. Blocks no pass emitted are left out.
pub fn fastest_per_block(blocks: usize, passes: &[Latencies]) -> Latencies {
    let mut fastest: Vec<Option<Duration>> = vec![None; blocks];
    for pass in passes {
        for (number, latency) in pass {
            let slot = &mut fastest[*number as usize];
            *slot = Some(slot.map_or(*latency, |f| f.min(*latency)));
        }
    }
    (0u64..)
        .zip(fastest)
        .filter_map(|(number, latency)| latency.map(|l| (number, l)))
        .collect()
}

/// How long the service was busy with `blocks`, emitted in block order:
/// block `i` keeps it busy from when it was due, or from when the block
/// before it was emitted if that was later, until it is emitted. Idle time
/// between blocks does not count, so transactions over this time is the
/// service's own rate at any offered rate, while a generator that submits
/// late still counts against it.
pub fn busy_time(offsets: &[Duration], blocks: &[(u64, Duration)]) -> Duration {
    let mut busy = Duration::ZERO;
    let mut free_at = Duration::ZERO;
    for (number, latency) in blocks {
        let due = offsets[*number as usize];
        let emitted = due + *latency;
        busy += emitted.saturating_sub(due.max(free_at));
        free_at = free_at.max(emitted);
    }
    busy
}

/// Transactions of `blocks` over the time they kept the service busy.
fn service_rate(schedule: &Schedule, blocks: &[(u64, Duration)]) -> f64 {
    let txs: usize = blocks
        .iter()
        .map(|(number, _)| schedule.cuts[*number as usize].len())
        .sum();
    txs as f64 / busy_time(&schedule.offsets, blocks).as_secs_f64().max(1e-9)
}

/// The latencies in milliseconds, ascending.
fn sorted_ms(latencies: &[(u64, Duration)]) -> Vec<f64> {
    sorted(
        latencies
            .iter()
            .map(|(_, d)| d.as_secs_f64() * 1e3)
            .collect(),
    )
}

/// What the open-loop generator saw.
#[derive(Debug, Default)]
pub struct Generated {
    /// How late each submit started after its block was due.
    pub late: Vec<Duration>,
    /// Time spent inside each submit.
    pub submit_wait: Vec<Duration>,
    /// Blocks the service refused.
    pub refused: u64,
}

/// Submits block `i` through `submit` at `start + offsets[i]`, never
/// earlier, whatever the service is doing: a slow service does not slow
/// the schedule, it makes later submits late.
pub fn drive(
    offsets: &[Duration],
    start: Instant,
    mut submit: impl FnMut(usize) -> bool,
) -> Generated {
    let mut out = Generated::default();
    for (i, offset) in offsets.iter().enumerate() {
        let due = start + *offset;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let submitted = Instant::now();
        out.late.push(submitted - due);
        if !submit(i) {
            out.refused += 1;
        }
        out.submit_wait.push(submitted.elapsed());
    }
    out
}

fn journal_config() -> JournalConfig {
    JournalConfig {
        log: LogConfig {
            fsync: FsyncPolicy::Always,
            ..LogConfig::default()
        },
        ..JournalConfig::default()
    }
}

fn journal_dir(tag: &str) -> PathBuf {
    out_dir().join(format!("journal-{}-{tag}", std::process::id()))
}

/// One open-loop pass of the durable stream and everything checked or
/// measured about it.
struct Pass {
    start: Instant,
    txs_emitted: usize,
    /// Transactions over the time from the first due time to the last emit:
    /// the offered rate whenever the service keeps up.
    delivered_tx_per_s: f64,
    /// `(block number, emitted at, submit → emit)` per emitted block.
    emitted: Vec<(u64, Instant, Duration)>,
    generated: Generated,
    producer_waits: u64,
    ingest_max_depth: usize,
    emit_max_depth: usize,
    snapshot_rebuilds: u64,
    quarantined: usize,
    mismatched: usize,
    crashed: Option<String>,
    lost: usize,
    duplicated: usize,
    journal_exact: bool,
}

impl Pass {
    fn latencies(&self, schedule: &Schedule) -> Latencies {
        self.emitted
            .iter()
            .map(|(number, at, _)| {
                let due = schedule.offsets[*number as usize];
                (*number, due_latency(self.start, due, *at))
            })
            .collect()
    }

    /// Failed operations: quarantined or unemitted transactions, verdicts
    /// differing from the batch scan, blocks lost or duplicated on reopen.
    fn failed(&self, txs: usize) -> u64 {
        (self.quarantined
            + (txs - self.txs_emitted.min(txs))
            + self.mismatched
            + self.lost
            + self.duplicated) as u64
    }
}

fn stream_pass(
    det: &LeiShen,
    view: &ChainView<'_>,
    records: &[&TxRecord],
    schedule: &Schedule,
    reference: &[VerdictRecord],
    dir: &Path,
) -> Result<Pass, String> {
    let _ = std::fs::remove_dir_all(dir);
    let media = DirMedia::open(dir).map_err(|e| format!("journal media: {e:?}"))?;
    let cache = TagCache::new();
    let service = StreamService::new(WORKERS, StreamConfig::default());
    let blocks: Vec<Block<'_>> = schedule
        .cuts
        .iter()
        .enumerate()
        .map(|(i, range)| Block {
            number: i as u64,
            txs: records[range.clone()].to_vec(),
        })
        .collect();
    let mut emitted = Vec::with_capacity(blocks.len());
    let mut started = None;
    let mut generated = Generated::default();
    let (report, journal) = service
        .run_durable(
            det,
            view,
            &cache,
            media,
            journal_config(),
            |producer| {
                let start = Instant::now();
                started = Some(start);
                let mut blocks = blocks.into_iter();
                generated = drive(&schedule.offsets, start, |_| {
                    producer.submit(blocks.next().expect("one block per due time"))
                });
            },
            |block| emitted.push((block.number, Instant::now(), block.latency)),
        )
        .map_err(|e| format!("open journal: {e:?}"))?;
    drop(journal);
    let start = started.ok_or("the producer never ran")?;

    let stream = &report.stream;
    let txs_emitted = stream.transactions;
    let last = emitted.last().map_or(start, |(_, at, _)| *at);
    let delivered_tx_per_s =
        txs_emitted as f64 / last.duration_since(start).as_secs_f64().max(1e-9);
    let streamed = digest(stream.verdicts().cloned());
    let mismatched = differing(reference, &streamed) as usize;

    // Reopen the journal as a restarted process would and compare it with
    // what was emitted.
    let expected: Vec<DurableBlock> = stream
        .blocks
        .iter()
        .map(|b| DurableBlock {
            number: b.number,
            base: b.base as u64,
            verdicts: b
                .verdicts
                .iter()
                .enumerate()
                .map(|(i, v)| VerdictRecord::from_verdict(v, (b.base + i) as u64))
                .collect(),
        })
        .collect();
    let media = DirMedia::open(dir).map_err(|e| format!("reopen media: {e:?}"))?;
    let (reopened, _) = VerdictJournal::open(media, journal_config(), det.config().fingerprint())
        .map_err(|e| format!("reopen journal: {e:?}"))?;
    let durable = reopened.blocks();
    let mut copies: BTreeMap<u64, usize> = BTreeMap::new();
    for b in durable {
        *copies.entry(b.number).or_default() += 1;
    }
    let by_number: BTreeMap<u64, &DurableBlock> = durable.iter().map(|b| (b.number, b)).collect();
    let lost = expected
        .iter()
        .filter(|b| by_number.get(&b.number) != Some(b))
        .count();
    let duplicated = copies.values().map(|c| c - 1).sum();
    let journal_exact = durable == expected.as_slice();
    drop(reopened);
    let _ = std::fs::remove_dir_all(dir);

    Ok(Pass {
        start,
        txs_emitted,
        delivered_tx_per_s,
        emitted,
        generated,
        producer_waits: stream.ingest.producer_waits,
        ingest_max_depth: stream.ingest.max_depth,
        emit_max_depth: stream.emit.max_depth,
        snapshot_rebuilds: cache.snapshot_rebuilds(),
        quarantined: stream.quarantined,
        mismatched,
        crashed: report.crashed.as_ref().map(|e| format!("{e:?}")),
        lost,
        duplicated,
        journal_exact,
    })
}

/// Opens a fresh journal as the service does at start-up, then removes it.
fn open_journal_once(det: &LeiShen) {
    let dir = journal_dir("setup");
    let _ = std::fs::remove_dir_all(&dir);
    let media = DirMedia::open(&dir).expect("journal directory inside the checkout");
    let opened = VerdictJournal::open(media, journal_config(), det.config().fingerprint());
    black_box(opened.expect("a fresh journal opens"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Set-ups before each pass of a timed run; `setup_s` is their median
/// over the run, so its samples fall at every pass, spread over the run.
const SETUPS_PER_PASS: usize = 5;

/// What a monitor pays before it can stream: the corpus, its records and
/// view, and opening an empty journal. Sets up [`SETUPS_PER_PASS`] times,
/// each dropped before the next starts, appends each set-up's time to
/// `times` and returns the last.
fn set_up(seed: u64, times: &mut Vec<f64>) -> Corpus {
    let mut kept = None;
    for _ in 0..SETUPS_PER_PASS {
        drop(kept.take());
        let started = Instant::now();
        let corpus = Corpus::generate(seed, SCALE);
        black_box((corpus.records(), corpus.view()));
        open_journal_once(&detector());
        times.push(started.elapsed().as_secs_f64());
        kept = Some(corpus);
    }
    kept.expect("at least one set-up")
}

fn env(traced: bool, seed: u64, txs: usize, flagged: usize) -> Env {
    let dir = out_dir();
    let _ = std::fs::create_dir_all(&dir);
    Env {
        offered_tx_per_s: Some(OFFERED_TX_PER_S),
        journal_fs: Some(filesystem_of(&dir)),
        ..Env::new("stream-durable", traced, seed, SCALE, WORKERS, txs, flagged)
    }
}

/// The batch scan the stream must reproduce, checked against the
/// generator's ground truth; returns its verdict digest, the flagged count
/// and the ground-truth verdict.
fn reference(
    corpus: &Corpus,
    det: &LeiShen,
    view: &ChainView<'_>,
    records: &[&TxRecord],
) -> (Vec<VerdictRecord>, usize, Result<String, String>) {
    let verdicts = ScanEngine::new(WORKERS)
        .scan_resilient(
            det,
            records,
            view,
            &TagCache::new(),
            &ResilienceConfig::default(),
        )
        .verdicts;
    let truth = check_ground_truth(&corpus.truth, verdicts.iter().filter_map(Verdict::analysis));
    let flagged = verdicts
        .iter()
        .filter_map(Verdict::analysis)
        .filter(|a| a.is_attack())
        .count();
    (digest(verdicts), flagged, truth)
}

/// Correctness gates over every pass of a run.
fn pass_gates(outcome: &mut Outcome, passes: &[Result<Pass, String>], txs: usize) {
    let errors: Vec<&String> = passes.iter().filter_map(|p| p.as_ref().err()).collect();
    outcome.gate("every pass ran", errors.is_empty(), format!("{errors:?}"));
    let ok: Vec<&Pass> = passes.iter().filter_map(|p| p.as_ref().ok()).collect();
    let sum = |f: &dyn Fn(&Pass) -> usize| ok.iter().map(|p| f(p)).sum::<usize>();
    let (mismatched, quarantined) = (sum(&|p| p.mismatched), sum(&|p| p.quarantined));
    let unemitted = sum(&|p| txs - p.txs_emitted.min(txs));
    let refused = ok.iter().map(|p| p.generated.refused).sum::<u64>();
    let crashed: Vec<&String> = ok.iter().filter_map(|p| p.crashed.as_ref()).collect();
    outcome.gate(
        "emitted verdicts equal a batch scan_resilient",
        mismatched == 0 && quarantined == 0 && unemitted == 0,
        format!("{mismatched} differing, {quarantined} quarantined, {unemitted} not emitted over {} passes", ok.len()),
    );
    outcome.gate(
        "no refused submit and no journal crash",
        refused == 0 && crashed.is_empty(),
        format!("{refused} refused blocks, crashes {crashed:?}"),
    );
    let (lost, duplicated) = (sum(&|p| p.lost), sum(&|p| p.duplicated));
    let exact = ok.iter().all(|p| p.journal_exact);
    outcome.gate(
        "reopened journal holds exactly the emitted blocks",
        exact && lost == 0 && duplicated == 0,
        format!("{lost} lost, {duplicated} duplicated"),
    );
}

/// Times `stream-durable`: as many open-loop passes as fit in `seconds`
/// ([`pass_count`]), each from a fresh set-up, a cold cache and an empty
/// journal.
pub fn timed(seed: u64, seconds: f64) -> Outcome {
    let det = detector();
    let mut planned = 1;
    let mut setup_s = Vec::new();
    let mut passes = Vec::new();
    // The schedule and the batch reference, from the first set-up.
    let mut first = None;
    // Memory at the end of the first pass: one set-up and one stream. Later
    // set-ups reuse a heap the allocator has split differently in every
    // run, which would move the high-water mark by up to a tenth.
    let mut peak_rss_mb = None;
    while passes.len() < planned {
        let corpus = set_up(seed, &mut setup_s);
        let records = corpus.records();
        let view = corpus.view();
        let (schedule, reference, _, _) = first.get_or_insert_with(|| {
            let schedule = Schedule::open_loop(
                &ArrivalCurve::bursty(seed, MEAN_BLOCK),
                records.len(),
                OFFERED_TX_PER_S,
            );
            let (reference, flagged, truth) = reference(&corpus, &det, &view, &records);
            (schedule, reference, flagged, truth)
        });
        let span = schedule.offsets.last().copied().unwrap_or_default();
        planned = pass_count(seconds, span);
        let dir = journal_dir(&passes.len().to_string());
        passes.push(stream_pass(
            &det, &view, &records, schedule, reference, &dir,
        ));
        peak_rss_mb.get_or_insert_with(crate::env::peak_rss_mb);
    }
    let peak_rss_mb = peak_rss_mb.expect("at least one pass");
    let (schedule, reference, flagged, truth) = first.expect("at least one pass");

    let n = reference.len();
    let mut outcome = Outcome::new(env(false, seed, n, flagged));
    outcome.attempted = (passes.len() * n) as u64;
    outcome.failed = passes
        .iter()
        .map(|p| p.as_ref().map_or(n as u64, |p| p.failed(n)))
        .sum();
    outcome.gate(
        "the batch reference flags exactly the generator's detections",
        truth.is_ok(),
        truth.unwrap_or_else(|e| e),
    );
    pass_gates(&mut outcome, &passes, n);

    // Every pass replays the same schedule on a fresh set-up, cold cache
    // and empty journal, so passes differ only in the state of the host,
    // and host noise only ever adds delay. A slow stretch of a shared host
    // lasts from seconds to minutes and doubled the latencies of the passes
    // it covered, while a stall hits single blocks of one pass; the best
    // pass and the median over passes both moved with them. So the metrics
    // take each block at its fastest over the passes
    // ([`fastest_per_block`]): the latency percentiles are over those, and
    // the rate is the service's busy-time rate when each block is emitted
    // that fast. Each pass's own figures are in the results file.
    let ok: Vec<&Pass> = passes.iter().filter_map(|p| p.as_ref().ok()).collect();
    let latencies: Vec<Latencies> = ok.iter().map(|p| p.latencies(&schedule)).collect();
    let p50: Vec<f64> = latencies
        .iter()
        .map(|l| percentile(&sorted_ms(l), 50.0))
        .collect();
    let p99: Vec<f64> = latencies
        .iter()
        .map(|l| tail_or_max(&sorted_ms(l)))
        .collect();
    let rates: Vec<f64> = latencies
        .iter()
        .map(|l| service_rate(&schedule, l))
        .collect();
    let delivered: Vec<f64> = ok.iter().map(|p| p.delivered_tx_per_s).collect();
    let fastest = fastest_per_block(schedule.cuts.len(), &latencies);
    let fastest_ms = sorted_ms(&fastest);
    outcome.metric("setup_s", "s", median(&setup_s));
    outcome.metric("tx_per_s", "tx/s", service_rate(&schedule, &fastest));
    outcome.metric("verdict_p50_ms", "ms", percentile(&fastest_ms, 50.0));
    outcome.metric("verdict_p99_ms", "ms", tail_or_max(&fastest_ms));
    outcome.metric("peak_rss_mb", "MB", peak_rss_mb);
    outcome.note("passes", Json::Num(ok.len() as f64));
    outcome.note("blocks_per_pass", Json::Num(schedule.cuts.len() as f64));
    outcome.note("delivered_tx_per_s", Json::Num(median(&delivered)));
    outcome.note_list("setup_s_samples", &setup_s);
    outcome.note_list("pass_tx_per_s", &rates);
    outcome.note_list("pass_verdict_p50_ms", &p50);
    outcome.note_list("pass_verdict_p99_ms", &p99);
    outcome.note("median_tx_per_s", Json::Num(median(&rates)));
    outcome.note("median_verdict_p50_ms", Json::Num(median(&p50)));
    outcome.note("median_verdict_p99_ms", Json::Num(median(&p99)));
    outcome.note("verdict_samples", Json::Num(fastest.len() as f64));
    if let Some(t) = tail(&fastest_ms) {
        outcome.note("verdict_tail_percentile", Json::Num(t.percentile));
    }
    let waits = ok.iter().map(|p| p.producer_waits).max().unwrap_or(0);
    outcome.note("producer_waits_max", Json::Num(waits as f64));
    outcome
}

/// The traced `stream-durable` run: one real open-loop pass timed from
/// outside the service, a serial replay of its blocks through the composed
/// stages into a fresh journal, then resilient-versus-plain scan passes.
pub fn traced(seed: u64, seconds: f64) -> (Outcome, Spans) {
    let started = Instant::now();
    let corpus = Corpus::generate(seed, SCALE);
    let records = corpus.records();
    let view = corpus.view();
    let det = detector();
    let n = records.len();
    let schedule =
        Schedule::open_loop(&ArrivalCurve::bursty(seed, MEAN_BLOCK), n, OFFERED_TX_PER_S);
    let (reference, flagged, truth) = reference(&corpus, &det, &view, &records);
    let mut spans = Spans::new();
    let mut layers = Layers::default();
    corpus.ethsim_layers(&mut layers);

    // The real service, with block and submit spans recorded from outside.
    let pass = stream_pass(
        &det,
        &view,
        &records,
        &schedule,
        &reference,
        &journal_dir("traced"),
    );
    if let Ok(p) = &pass {
        for (number, at, _) in &p.emitted {
            let i = *number as usize;
            let due = p.start + schedule.offsets[i];
            let block = spans.record(
                "stream.block",
                *number,
                None,
                spans.offset(due),
                spans.offset(*at),
            );
            let submitted = due + p.generated.late[i];
            let submit_start = spans.offset(submitted);
            let submit_end = spans.offset(submitted + p.generated.submit_wait[i]);
            spans.record(
                "stream.submit",
                *number,
                Some(block),
                submit_start,
                submit_end,
            );
        }
        let ms = |d: &[Duration]| sorted(d.iter().map(|d| d.as_secs_f64() * 1e3).collect());
        let submit_to_emit: Vec<Duration> = p.emitted.iter().map(|(_, _, d)| *d).collect();
        let late = ms(&p.generated.late);
        layers.set("stream.blocks", p.emitted.len() as f64);
        layers.set(
            "stream.submit_wait_ms_p99",
            tail_or_max(&ms(&p.generated.submit_wait)),
        );
        layers.set("stream.producer_waits", p.producer_waits as f64);
        layers.set("stream.ingest_max_depth", p.ingest_max_depth as f64);
        layers.set("stream.emit_max_depth", p.emit_max_depth as f64);
        layers.set(
            "stream.submit_to_emit_ms_p50",
            percentile(&ms(&submit_to_emit), 50.0),
        );
        layers.set("tagging.snapshot_rebuilds", p.snapshot_rebuilds as f64);
        layers.set("resilience.quarantined", p.quarantined as f64);
        layers.set("gen.offered_tx_per_s", OFFERED_TX_PER_S);
        layers.set("gen.late_ms_p50", percentile(&late, 50.0));
        layers.set("gen.late_ms_p99", tail_or_max(&late));
    }

    // The serial replay: per block, the front build, the composed stages,
    // any scheduler plan the engine would make, and the journal append.
    let caches = [TagCache::new(), TagCache::new(), TagCache::new()];
    let mut composer = Composer::new(&det, &view);
    let replay_dir = journal_dir("replay");
    let _ = std::fs::remove_dir_all(&replay_dir);
    let replay = DirMedia::open(&replay_dir).and_then(|media| {
        VerdictJournal::open(media, journal_config(), det.config().fingerprint())
    });
    let mut replay_errors = Vec::new();
    let mut replay_mismatched = 0usize;
    let hw = hw_threads();
    let (mut planned, mut weighted_workers) = (Vec::new(), 0usize);
    if let Ok((mut journal, _)) = replay {
        for (i, range) in schedule.cuts.iter().enumerate() {
            let number = i as u64;
            let block = spans.open("replay.block", number, None);
            let built = spans.now();
            let mut composed_front = LocalTagCache::new(&caches[0]);
            let now = spans.now();
            spans.record("tagging.front_build", number, Some(block), built, now);
            let mut timed_front = LocalTagCache::new(&caches[1]);
            let txs = &records[range.clone()];
            let workers = effective_workers(WORKERS, hw, txs.len());
            weighted_workers += workers * txs.len();
            if workers > 1 {
                let start = spans.now();
                let plan = WavePlan::build(txs, view.creations(), workers, CHUNK_HINT);
                let end = spans.now();
                spans.record("sched.plan", number, Some(block), start, end);
                planned.push(plan.stats());
            }
            let verdicts: Vec<Verdict> = txs
                .iter()
                .map(|tx| {
                    Verdict::Analyzed(composer.tx(
                        tx,
                        &mut composed_front,
                        &mut timed_front,
                        &caches[2],
                        &mut spans,
                        block,
                    ))
                })
                .collect();
            drop((composed_front, timed_front));
            let records_of_block: Vec<VerdictRecord> = verdicts
                .iter()
                .enumerate()
                .map(|(j, v)| VerdictRecord::from_verdict(v, (range.start + j) as u64))
                .collect();
            replay_mismatched += differing(&reference[range.clone()], &records_of_block) as usize;
            let start = spans.now();
            let appended = journal.append_block(number, range.start as u64, &verdicts);
            let end = spans.now();
            spans.record("store.append", number, Some(block), start, end);
            if let Err(e) = appended {
                replay_errors.push(format!("append block {i}: {e:?}"));
                break;
            }
            spans.close(block);
        }
        let log = journal.log_metrics();
        let append = sorted(
            spans
                .durations("store.append")
                .iter()
                .map(|ns| ns / 1e6)
                .collect(),
        );
        layers.set("store.append_ms_p50", percentile(&append, 50.0));
        layers.set("store.append_ms_p99", tail_or_max(&append));
        layers.set("store.frames", log.frames as f64);
        layers.set("store.flushes", log.flushes as f64);
        layers.set("store.bytes_per_tx", log.bytes as f64 / n as f64);
    } else if let Err(e) = replay {
        replay_errors.push(format!("open replay journal: {e:?}"));
    }
    let _ = std::fs::remove_dir_all(&replay_dir);
    spans.calibrate();

    let ratio = stage_layers(&mut layers, &spans, &composer, 1.0);
    let lookups = composer.counts.lookups as f64;
    let misses = caches[0].misses() as f64;
    layers.set("tagging.misses", misses);
    layers.set("tagging.hit_ratio", 1.0 - misses / lookups.max(1.0));
    layers.set("tagging.cache_entries", caches[0].len() as f64);
    layers.set(
        "sched.plan_ms",
        spans.durations("sched.plan").iter().sum::<f64>() / 1e6,
    );
    layers.set(
        "sched.clusters",
        planned.iter().map(|s| s.clusters).sum::<usize>() as f64,
    );
    layers.set(
        "sched.waves",
        planned.iter().map(|s| s.waves).sum::<usize>() as f64,
    );
    layers.set(
        "sched.chunks",
        planned.iter().map(|s| s.chunks).sum::<usize>() as f64,
    );
    layers.set("scan.effective_workers", weighted_workers as f64 / n as f64);

    // What the resilience guard costs the service's scans.
    let mut rep = 0u64;
    let mut lock_waits = 0u64;
    while rep < 3 || (rep < 1000 && started.elapsed().as_secs_f64() < seconds) {
        let cache = TagCache::new();
        let out = spans.time("scan.parallel_pass", rep, || {
            ScanEngine::new(WORKERS).scan_with_cache(&det, &records, &view, &cache)
        });
        drop(out);
        lock_waits = lock_waits.max(cache.lock_waits());
        let cache = TagCache::new();
        let out = spans.time("resilience.scan_resilient", rep, || {
            ScanEngine::new(WORKERS).scan_resilient(
                &det,
                &records,
                &view,
                &cache,
                &ResilienceConfig::default(),
            )
        });
        drop(out);
        rep += 1;
    }
    layers.set("tagging.lock_waits", lock_waits as f64);
    layers.set(
        "resilience.guard_ratio",
        spans.median_ms("resilience.scan_resilient") / spans.median_ms("scan.parallel_pass"),
    );

    let mut outcome = Outcome::new(env(true, seed, n, flagged));
    outcome.attempted = (n as u64) * 2;
    let pass_failed = pass.as_ref().map_or(n as u64, |p| p.failed(n));
    outcome.failed = pass_failed + composer.counts.mismatches + replay_mismatched as u64;
    outcome.gate(
        "the batch reference flags exactly the generator's detections",
        truth.is_ok(),
        truth.unwrap_or_else(|e| e),
    );
    pass_gates(&mut outcome, std::slice::from_ref(&pass), n);
    fidelity_gates(&mut outcome, &composer, ratio);
    outcome.gate(
        "replayed verdicts equal the batch reference and journal cleanly",
        replay_mismatched == 0 && replay_errors.is_empty(),
        format!("{replay_mismatched} differing, errors {replay_errors:?}"),
    );
    outcome.note("clock_read_ns", Json::Num(spans.read_ns()));
    layers.report(&mut outcome);
    (outcome, spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_offers_the_corpus_at_the_stated_rate() {
        let curve = ArrivalCurve::bursty(42, MEAN_BLOCK);
        let s = Schedule::open_loop(&curve, 10_000, 4000.0);
        assert_eq!(s.cuts.len(), s.offsets.len());
        assert_eq!(s.offsets[0], Duration::ZERO);
        let span = s.offsets.last().unwrap().as_secs_f64();
        assert!(
            (span - 2.5).abs() < 1e-6,
            "10,000 txs at 4,000 tx/s span 2.5 s, got {span}"
        );
        assert!(s.offsets.windows(2).all(|w| w[0] <= w[1]));
        // Burst blocks arrive back to back.
        assert!(s.offsets.windows(2).any(|w| w[0] == w[1]));
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let start = Instant::now();
        let offset = Duration::from_millis(2);
        let emitted = start + Duration::from_millis(7);
        assert_eq!(
            due_latency(start, offset, emitted),
            Duration::from_millis(5)
        );
        assert_eq!(
            due_latency(start, Duration::from_millis(9), emitted),
            Duration::ZERO
        );
    }

    #[test]
    fn fastest_per_block_drops_a_one_pass_stall_but_keeps_a_slow_block() {
        let ms = Duration::from_millis;
        // Block 1 stalls 20 ms in pass 0 only; block 2 costs 9 ms in every
        // pass; block 3 was emitted by pass 1 alone and block 4 by neither.
        let passes = vec![
            vec![(0, ms(2)), (1, ms(22)), (2, ms(10))],
            vec![(0, ms(3)), (1, ms(2)), (2, ms(9)), (3, ms(4))],
        ];
        assert_eq!(
            fastest_per_block(5, &passes),
            vec![(0, ms(2)), (1, ms(2)), (2, ms(9)), (3, ms(4))]
        );
        assert!(fastest_per_block(3, &[]).is_empty());
    }

    #[test]
    fn pass_count_depends_on_the_arguments_only() {
        let span = Duration::from_secs_f64(9.2);
        // 10.7 s a pass: five fit in 55 s, four in 45 s, and a run too
        // short for one still makes one.
        assert_eq!(pass_count(55.0, span), 5);
        assert_eq!(pass_count(45.0, span), 4);
        assert_eq!(pass_count(1.0, span), 1);
    }

    #[test]
    fn busy_time_counts_backlog_once_and_skips_idle_gaps() {
        let ms = Duration::from_millis;
        // Blocks 0 and 1 are due together and emitted at 3 ms and 5 ms:
        // block 1 waits for block 0, so together they keep the service
        // busy 5 ms, not 3 + 5. Block 2 is due at 20 ms, after 15 idle ms,
        // and is emitted at 22 ms.
        let offsets = [ms(0), ms(0), ms(20)];
        let latencies = [(0, ms(3)), (1, ms(5)), (2, ms(2))];
        assert_eq!(busy_time(&offsets, &latencies), ms(7));
        // The same service offered the blocks at a lower rate is as busy.
        let sparse = [ms(0), ms(10), ms(20)];
        let latencies = [(0, ms(3)), (1, ms(2)), (2, ms(2))];
        assert_eq!(busy_time(&sparse, &latencies), ms(7));
    }

    #[test]
    fn a_stalled_generator_raises_latency_instead_of_hiding_it() {
        // Four blocks due 1 ms apart; the service stalls 30 ms while
        // accepting block 1 and emits each block as soon as it is accepted.
        let offsets: Vec<Duration> = (0..4).map(Duration::from_millis).collect();
        let start = Instant::now();
        let mut submitted_at = Vec::new();
        let generated = drive(&offsets, start, |i| {
            if i == 1 {
                std::thread::sleep(Duration::from_millis(30));
            }
            submitted_at.push(Instant::now());
            true
        });
        assert_eq!(generated.refused, 0);
        // Blocks 2 and 3 were submitted late, not rescheduled.
        assert!(generated.late[2] >= Duration::from_millis(25));
        assert!(generated.submit_wait[1] >= Duration::from_millis(30));
        for (i, at) in submitted_at.iter().enumerate().skip(2) {
            let from_due = due_latency(start, offsets[i], *at);
            let from_submit = at.saturating_duration_since(start + offsets[i] + generated.late[i]);
            assert!(
                from_due >= Duration::from_millis(25),
                "block {i}: {from_due:?}"
            );
            assert!(
                from_submit < Duration::from_millis(5),
                "block {i}: {from_submit:?}"
            );
        }
    }
}
