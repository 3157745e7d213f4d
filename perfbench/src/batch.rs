//! The batch workload `scan-wild`: one-shot scans of the benign-dominated
//! wild corpus, each with a cold tag cache.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ethsim::TxRecord;
use leishen::resilience::Verdict;
use leishen::store::VerdictRecord;
use leishen::trace::export::export_jsonl;
use leishen::trace::json::Json;
use leishen::{
    Analysis, ChainView, FlightRecorder, LeiShen, LocalTagCache, RecordingSink, ResilienceConfig,
    ScanEngine, TagCache, WavePlan,
};

use crate::catalog::Layers;
use crate::compose::{fidelity_gates, stage_layers, Composer};
use crate::corpus::{check_ground_truth, detector, differing, digest, Corpus};
use crate::env::{effective_workers, hw_threads, Env, CHUNK_HINT};
use crate::report::Outcome;
use crate::spans::Spans;
use crate::stats::{median, percentile, sorted, tail};

/// `scan-wild`: 27,485 transactions at the default seed, 0.65% flagged.
pub const WILD_SCALE: f64 = 0.1;
/// `scan-wild` uses the default two-worker engine.
pub const WILD_WORKERS: usize = 2;
/// Rounds of a timed run. Each round generates the corpus afresh (timed as
/// set-up) and then scans it until its share of the run has elapsed, so
/// the set-ups behind `setup_s` (their median) are spread over the run
/// instead of falling together into whatever state the host is in when
/// the run starts.
const ROUNDS: usize = 15;
/// Fewest passes a round makes, so a run makes at least 11: enough for a
/// tail percentile with ten passes beyond it.
const MIN_PASSES_PER_ROUND: usize = 11usize.div_ceil(ROUNDS);

/// Composed passes of a traced run.
const COMPOSED_PASSES: u64 = 3;

/// When each of a run's [`ROUNDS`] rounds ends, for a run of `seconds`
/// starting now.
fn round_deadlines(seconds: f64) -> impl Iterator<Item = Instant> {
    let start = Instant::now();
    (1..=ROUNDS).map(move |r| start + Duration::from_secs_f64(seconds * r as f64 / ROUNDS as f64))
}

/// The end-to-end metrics of a batch run. A batch's verdicts all arrive
/// when the scan returns, so a verdict's latency is its pass's wall time.
///
/// Throughput is every transaction scanned over all the time spent
/// scanning, not the median pass's rate. On a shared host pass times are
/// bimodal — neighbours contend for the cache in stretches of a second or
/// so — and the median jumps between the two modes as their mix shifts
/// from run to run, while the total moves only in proportion to it.
fn pass_metrics(
    outcome: &mut Outcome,
    txs: usize,
    pass_s: &[f64],
    setup_s: &[f64],
    peak_rss_mb: f64,
) {
    let ms = sorted(pass_s.iter().map(|s| s * 1e3).collect());
    let tail = tail(&ms).expect("a batch run makes at least 11 passes");
    outcome.metric("setup_s", "s", median(setup_s));
    outcome.metric(
        "tx_per_s",
        "tx/s",
        (txs * pass_s.len()) as f64 / pass_s.iter().sum::<f64>(),
    );
    outcome.metric("verdict_p50_ms", "ms", percentile(&ms, 50.0));
    outcome.metric("verdict_p99_ms", "ms", tail.value);
    outcome.metric("peak_rss_mb", "MB", peak_rss_mb);
    outcome.note("passes", Json::Num(pass_s.len() as f64));
    outcome.note("verdict_tail_percentile", Json::Num(tail.percentile));
    outcome.note("verdict_samples", Json::Num(tail.samples as f64));
    outcome.note_list("setup_s_samples", setup_s);
    outcome.note_list("pass_s", pass_s);
}

/// Times `scan-wild`: each pass is `ScanEngine::new(2).scan_with_cache`
/// over the whole corpus with a fresh `TagCache`, and every pass of every
/// round must give the verdicts of the run's first.
pub fn wild_timed(seed: u64, seconds: f64) -> Outcome {
    let det = detector();
    let engine = ScanEngine::new(WILD_WORKERS);
    let mut setup_s = Vec::with_capacity(ROUNDS);
    let mut pass_s = Vec::new();
    let mut first: Option<Vec<VerdictRecord>> = None;
    let mut truth = Err(String::new());
    let (mut n, mut flagged, mut mismatched) = (0, 0, 0u64);
    // Memory at the end of the first round: one set-up and its passes.
    // Later set-ups reuse a heap the allocator has split differently in
    // every run, which would move the high-water mark by up to a sixth.
    let mut peak_rss_mb = None;
    for deadline in round_deadlines(seconds) {
        let started = Instant::now();
        let corpus = Corpus::generate(seed, WILD_SCALE);
        let records = corpus.records();
        let view = corpus.view();
        setup_s.push(started.elapsed().as_secs_f64());
        n = records.len();
        let mut passes = 0;
        while passes < MIN_PASSES_PER_ROUND || Instant::now() < deadline {
            let cache = TagCache::new();
            let started = Instant::now();
            let analyses = engine.scan_with_cache(&det, &records, &view, &cache);
            pass_s.push(started.elapsed().as_secs_f64());
            passes += 1;
            if first.is_none() {
                flagged = analyses.iter().filter(|a| a.is_attack()).count();
                truth = check_ground_truth(&corpus.truth, analyses.iter());
            }
            let verdicts = digest(analyses.into_iter().map(Verdict::Analyzed));
            match &first {
                None => first = Some(verdicts),
                Some(reference) => mismatched += differing(reference, &verdicts),
            }
        }
        peak_rss_mb.get_or_insert_with(crate::env::peak_rss_mb);
    }

    let mut outcome = Outcome::new(Env::new(
        "scan-wild",
        false,
        seed,
        WILD_SCALE,
        WILD_WORKERS,
        n,
        flagged,
    ));
    outcome.attempted = (pass_s.len() * n) as u64;
    outcome.failed = mismatched;
    outcome.gate(
        "flags exactly the generator's detections (Table V)",
        truth.is_ok(),
        truth.unwrap_or_else(|e| e),
    );
    outcome.gate(
        "every pass's verdicts equal pass 1's",
        mismatched == 0,
        format!(
            "{mismatched} differing verdicts over {} passes",
            pass_s.len()
        ),
    );
    pass_metrics(
        &mut outcome,
        n,
        &pass_s,
        &setup_s,
        peak_rss_mb.expect("at least one round"),
    );
    outcome
}

/// One composed pass: a `scan.pass` span, one front per cache, every
/// transaction through the composer.
fn composed_pass(
    composer: &mut Composer<'_, '_>,
    records: &[&TxRecord],
    caches: [&TagCache; 3],
    spans: &mut Spans,
    pass_no: u64,
) {
    let pass = spans.open("scan.pass", pass_no, None);
    let built = spans.now();
    let mut composed_front = LocalTagCache::new(caches[0]);
    let now = spans.now();
    spans.record("tagging.front_build", pass_no, Some(pass), built, now);
    let mut timed_front = LocalTagCache::new(caches[1]);
    for tx in records {
        black_box(composer.tx(
            tx,
            &mut composed_front,
            &mut timed_front,
            caches[2],
            spans,
            pass,
        ));
    }
    drop((composed_front, timed_front));
    spans.close(pass);
}

/// Σ timed analyze net of the clock reads around each, ms.
fn net_analyze_ms(spans: &Spans) -> f64 {
    let analyze = spans.durations("detector.analyze");
    (analyze.iter().sum::<f64>() - analyze.len() as f64 * spans.read_ns()) / 1e6
}

/// What a round of provenance probes saw.
#[derive(Debug, Default)]
struct Provenance {
    recorded: u64,
    pinned: usize,
    evicted: u64,
    export_bytes: usize,
    mismatched: u64,
}

/// Times a metered scan (`telemetry.scan_metered`), a traced scan
/// (`trace.scan_traced`) and the JSONL export of its pinned traces
/// (`trace.export`) as root spans, each scan on a fresh cache, and counts
/// verdicts that differ from `reference`.
fn provenance_probe(
    spans: &mut Spans,
    rep: u64,
    engine: &ScanEngine,
    det: &LeiShen,
    records: &[&TxRecord],
    view: &ChainView<'_>,
    reference: &[VerdictRecord],
) -> Provenance {
    let check = |analyses: Vec<Analysis>| {
        differing(
            reference,
            &digest(analyses.into_iter().map(Verdict::Analyzed)),
        )
    };
    let sink = RecordingSink::new();
    let cache = TagCache::new();
    let out = spans.time("telemetry.scan_metered", rep, || {
        engine.scan_metered(det, records, view, &cache, &sink)
    });
    let mut mismatched = check(out);
    let recorder = FlightRecorder::new();
    let cache = TagCache::new();
    let out = spans.time("trace.scan_traced", rep, || {
        engine.scan_traced(det, records, view, &cache, &recorder)
    });
    mismatched += check(out);
    let export = spans.time("trace.export", rep, || export_jsonl(&recorder.pinned()));
    Provenance {
        recorded: recorder.recorded(),
        pinned: recorder.pinned().len(),
        evicted: recorder.evicted(),
        export_bytes: export.len(),
        mismatched,
    }
}

/// The telemetry and trace layers from the probe spans, against the
/// workload's untraced pass (`untraced_ms`).
fn provenance_layers(layers: &mut Layers, spans: &Spans, untraced_ms: f64, last: &Provenance) {
    layers.set(
        "telemetry.overhead_ratio",
        spans.median_ms("telemetry.scan_metered") / untraced_ms,
    );
    layers.set(
        "trace.overhead_ratio",
        spans.median_ms("trace.scan_traced") / untraced_ms,
    );
    layers.set("trace.recorded", last.recorded as f64);
    layers.set("trace.pinned", last.pinned as f64);
    layers.set("trace.evicted", last.evicted as f64);
    layers.set("trace.export_ms", spans.median_ms("trace.export"));
    layers.set("trace.export_bytes", last.export_bytes as f64);
}

/// The traced `scan-wild` run: composed passes over fresh caches, then
/// rounds of untraced engine passes (two workers, one worker, resilient),
/// a scheduler plan, and metered and traced scans with the trace export.
pub fn wild_traced(seed: u64, seconds: f64) -> (Outcome, Spans) {
    let started = Instant::now();
    let corpus = Corpus::generate(seed, WILD_SCALE);
    let records = corpus.records();
    let view = corpus.view();
    let det = detector();
    let n = records.len();
    let mut spans = Spans::new();
    let mut layers = Layers::default();
    corpus.ethsim_layers(&mut layers);

    // Composed passes, each over fresh caches. Stage and analyze times of
    // one pass differ by a few percent of host noise; several passes
    // average it out of `detector.stage_sum_ratio`.
    let mut composer = Composer::new(&det, &view);
    let (mut misses, mut entries) = (0, 0);
    for pass_no in 0..COMPOSED_PASSES {
        let caches = [TagCache::new(), TagCache::new(), TagCache::new()];
        composed_pass(
            &mut composer,
            &records,
            [&caches[0], &caches[1], &caches[2]],
            &mut spans,
            pass_no,
        );
        spans.calibrate();
        misses += caches[0].misses();
        entries = caches[0].len();
        layers.set(
            "tagging.snapshot_rebuilds",
            caches[0].snapshot_rebuilds() as f64,
        );
    }
    let passes = COMPOSED_PASSES as f64;
    let ratio = stage_layers(&mut layers, &spans, &composer, passes);
    let lookups = composer.counts.lookups as f64 / passes;
    let misses = misses as f64 / passes;
    layers.set("tagging.misses", misses);
    layers.set("tagging.hit_ratio", 1.0 - misses / lookups.max(1.0));
    layers.set("tagging.cache_entries", entries as f64);

    let workers = effective_workers(WILD_WORKERS, hw_threads(), n);
    let reference = digest(
        ScanEngine::new(WILD_WORKERS)
            .scan(&det, &records, &view)
            .into_iter()
            .map(Verdict::Analyzed),
    );
    let (mut lock_waits, mut quarantined, mut rep) = (0u64, 0usize, 0u64);
    let (mut plan_stats, mut provenance, mut mismatched) = (None, Provenance::default(), 0u64);
    while rep < 3 || (rep < 1000 && started.elapsed().as_secs_f64() < seconds) {
        let cache = TagCache::new();
        let out = spans.time("scan.parallel_pass", rep, || {
            ScanEngine::new(WILD_WORKERS).scan_with_cache(&det, &records, &view, &cache)
        });
        drop(out);
        lock_waits = lock_waits.max(cache.lock_waits());
        let cache = TagCache::new();
        let out = spans.time("scan.serial_pass", rep, || {
            ScanEngine::new(1).scan_with_cache(&det, &records, &view, &cache)
        });
        drop(out);
        let cache = TagCache::new();
        let out = spans.time("resilience.scan_resilient", rep, || {
            ScanEngine::new(WILD_WORKERS).scan_resilient(
                &det,
                &records,
                &view,
                &cache,
                &ResilienceConfig::default(),
            )
        });
        quarantined = quarantined.max(out.stats.quarantined);
        drop(out);
        let plan = spans.time("sched.plan", rep, || {
            WavePlan::build(&records, view.creations(), workers, CHUNK_HINT)
        });
        plan_stats = Some(plan.stats());
        let probe = provenance_probe(
            &mut spans,
            rep,
            &ScanEngine::new(WILD_WORKERS),
            &det,
            &records,
            &view,
            &reference,
        );
        mismatched += probe.mismatched;
        provenance = probe;
        rep += 1;
    }
    let parallel = spans.median_ms("scan.parallel_pass");
    let serial = spans.median_ms("scan.serial_pass");
    let analyze_ms_per_pass = net_analyze_ms(&spans) / passes;
    let plan = plan_stats.expect("at least one plan");
    layers.set("tagging.lock_waits", lock_waits as f64);
    layers.set("sched.plan_ms", spans.median_ms("sched.plan"));
    layers.set("sched.clusters", plan.clusters as f64);
    layers.set("sched.waves", plan.waves as f64);
    layers.set("sched.chunks", plan.chunks as f64);
    layers.set("scan.effective_workers", workers as f64);
    layers.set("scan.serial_pass_ms", serial);
    layers.set("scan.parallel_pass_ms", parallel);
    layers.set(
        "scan.parallel_efficiency",
        serial / (parallel * workers as f64),
    );
    layers.set(
        "scan.overhead_ms",
        parallel - analyze_ms_per_pass / workers as f64,
    );
    layers.set("resilience.quarantined", quarantined as f64);
    layers.set(
        "resilience.guard_ratio",
        spans.median_ms("resilience.scan_resilient") / parallel,
    );
    provenance_layers(&mut layers, &spans, parallel, &provenance);

    let flagged = composer.counts.flagged / COMPOSED_PASSES;
    let mut outcome = Outcome::new(Env::new(
        "scan-wild",
        true,
        seed,
        WILD_SCALE,
        WILD_WORKERS,
        n,
        flagged as usize,
    ));
    outcome.attempted = composer.counts.txs + rep * 2 * n as u64;
    outcome.failed = composer.counts.mismatches + mismatched + quarantined as u64;
    fidelity_gates(&mut outcome, &composer, ratio);
    provenance_gates(
        &mut outcome,
        mismatched,
        rep,
        provenance.pinned,
        flagged as usize,
    );
    outcome.note("clock_read_ns", Json::Num(spans.read_ns()));
    layers.report(&mut outcome);
    (outcome, spans)
}

/// Instrumented scans must not change a verdict, and the recorder must pin
/// exactly the flagged transactions.
fn provenance_gates(
    outcome: &mut Outcome,
    mismatched: u64,
    rounds: u64,
    pinned: usize,
    flagged: usize,
) {
    outcome.gate(
        "instrumented verdicts equal an untraced scan",
        mismatched == 0,
        format!("{mismatched} differing verdicts over {rounds} rounds"),
    );
    outcome.gate(
        "pinned traces equal the flagged count",
        pinned == flagged,
        format!("{pinned} pinned, {flagged} flagged"),
    );
}
