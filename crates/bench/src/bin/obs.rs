//! Pipeline observability: per-stage latency breakdown, per-transaction
//! work counters, tag-cache behaviour across worker counts, and substrate
//! executor counters — the end-to-end telemetry run.
//!
//! ```sh
//! cargo run -p leishen-bench --release --bin obs            # full run
//! cargo run -p leishen-bench --release --bin obs -- --smoke # CI smoke
//! ```
//!
//! Prints the stage table and persists everything to `BENCH_obs.json`
//! (see `EXPERIMENTS.md` for the schema). `--smoke` shrinks the corpus
//! and skips repetitions so CI can validate the JSON in a few seconds.
//!
//! Three measurements:
//!
//! 1. **Stage breakdown** — a serial [`leishen::ScanEngine`] pass with a
//!    [`leishen::RecordingSink`] collects per-stage latency samples
//!    (flash-loan identification → tagging → simplification → trades →
//!    patterns) and the aggregated [`leishen::TxCounters`].
//! 2. **Cache behaviour** — one cold pass + one warm pass per worker
//!    count (1/2/4/8), each with its own fresh [`leishen::TagCache`], so
//!    the hit rates are comparable across configurations.
//! 3. **Sink overhead** — best-of-`reps` batch scans through the
//!    unobserved `()` path vs the `RecordingSink` path; the sampled
//!    recording sink must stay within [`MAX_SINK_OVERHEAD_PCT`].
//!
//! Once the JSON is written, the bin names each failed check and exits 1.

use leishen::{DetectorConfig, FlightRecorder, LeiShen, RecordingSink, ScanEngine, TagCache, STAGES};
use leishen_bench::{corpus_records, print_table, wild_world, Checks, Cli};
use std::time::Instant;

/// How much slower than the unobserved path the 1-in-8 sampled recording
/// sink may scan, in percent.
const MAX_SINK_OVERHEAD_PCT: f64 = 5.0;

fn main() {
    let mut cli = Cli::from_env();
    let smoke = cli.flag("--smoke");
    let seed = cli.value("--seed", 42u64);
    let scale = cli.value("--scale", if smoke { 0.0005 } else { 0.002 });
    let reps = cli.value::<usize>("--reps", if smoke { 2 } else { 7 }).max(1);
    cli.finish("obs");
    let config = DetectorConfig::paper;

    eprintln!("generating corpus (seed={seed}, scale={scale}, smoke={smoke})...");
    let (world, corpus) = wild_world(seed, scale);
    let n = corpus.len();
    let exec = world.chain.exec_stats();
    let labels = world.detector_labels();
    let view = world.view(&labels);
    let detector = LeiShen::new(config());
    let records = corpus_records(&world, corpus.iter().map(|t| t.tx));

    println!("pipeline observability — {n} wild flash-loan transactions\n");

    // ----- substrate counters ----------------------------------------------
    println!(
        "substrate: {} txs executed ({} committed, {} reverted), {} frames, {} transfers, {} logs, {} journal entries\n",
        exec.transactions, exec.committed, exec.reverted, exec.frames, exec.transfers, exec.logs,
        exec.journal_entries
    );

    // ----- stage breakdown (serial engine, recording sink) -----------------
    let sink = RecordingSink::new();
    let stage_cache = TagCache::new();
    let engine1 = ScanEngine::new(1);
    // Warm pass populates the cache; the recorded pass is the steady state.
    std::hint::black_box(engine1.scan_with_cache(&detector, &records, &view, &stage_cache));
    let analyses = engine1.scan_metered(&detector, &records, &view, &stage_cache, &sink);
    let attacks = analyses.iter().filter(|a| a.is_attack()).count();
    let totals = sink.counter_totals();
    let summaries = sink.summary();

    let rows: Vec<Vec<String>> = summaries
        .iter()
        .map(|s| {
            vec![
                s.stage.name().to_string(),
                s.count.to_string(),
                format!("{:.2} ms", s.total_ms()),
                format!("{:.2} µs", s.p50_us()),
                format!("{:.2} µs", s.p95_us()),
                format!("{:.2} µs", s.p99_us()),
            ]
        })
        .collect();
    print_table(&["stage", "samples", "total", "p50", "p95", "p99"], &rows);
    println!(
        "\ncounters: {} account transfers in, {} tags resolved, {} app transfers out ({} dropped, {} merged), {} trades, {} pattern evals, {} matches, {} attacks flagged\n",
        totals.account_transfers,
        totals.tags_resolved,
        totals.app_transfers,
        totals.transfers_dropped,
        totals.transfers_merged,
        totals.trades,
        totals.patterns_tried,
        totals.patterns_matched,
        attacks
    );

    // ----- cache behaviour at 1/2/4/8 workers ------------------------------
    let worker_counts = [1usize, 2, 4, 8];
    let mut cache_rows = Vec::new();
    let mut cache_json = Vec::new();
    let mut checks = Checks::default();
    for &w in &worker_counts {
        let cache = TagCache::new();
        let engine = ScanEngine::new(w).allow_oversubscription();
        // Cold pass fills the cache...
        std::hint::black_box(engine.scan_with_cache(&detector, &records, &view, &cache));
        let cold_rate = cache.hit_rate();
        // ...warm pass shows the steady state every later batch sees.
        std::hint::black_box(engine.scan_with_cache(&detector, &records, &view, &cache));
        let warm_rate = cache.hit_rate();
        cache_rows.push(vec![
            w.to_string(),
            format!("{:.1}%", cold_rate * 100.0),
            format!("{:.1}%", warm_rate * 100.0),
            cache.hits().to_string(),
            cache.misses().to_string(),
            cache.len().to_string(),
        ]);
        cache_json.push(format!(
            "    {{ \"workers\": {w}, \"cold_hit_rate\": {cold_rate:.4}, \"hit_rate\": {warm_rate:.4}, \"hits\": {}, \"misses\": {}, \"entries\": {} }}",
            cache.hits(),
            cache.misses(),
            cache.len(),
        ));
        checks.check(
            warm_rate > 0.0,
            format!("tag cache hit rate is zero after a warm pass at {w} workers"),
        );
    }
    print_table(
        &["workers", "cold hits", "warm hits", "hits", "misses", "entries"],
        &cache_rows,
    );

    // ----- recording-sink overhead -----------------------------------------
    // Three configurations, repetitions interleaved so scheduler noise
    // cannot eat one configuration's whole budget: the unobserved baseline,
    // the exact sink (stage-times every transaction — what tests use),
    // and the 1-in-8 sampled sink (the continuous-monitoring default,
    // which amortizes the per-stage clock reads; see DESIGN.md's
    // overhead budget). Counters are exact in both recording configs.
    const SAMPLE_EVERY: u32 = 8;
    let noop_cache = TagCache::new();
    let rec_cache = TagCache::new();
    std::hint::black_box(engine1.scan_with_cache(&detector, &records, &view, &noop_cache));
    std::hint::black_box(engine1.scan_with_cache(&detector, &records, &view, &rec_cache));
    let mut noop_best = f64::INFINITY;
    let mut exact_best = f64::INFINITY;
    let mut sampled_best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(engine1.scan_with_cache(&detector, &records, &view, &noop_cache));
        noop_best = noop_best.min(start.elapsed().as_secs_f64());

        let exact_sink = RecordingSink::new();
        let start = Instant::now();
        std::hint::black_box(engine1.scan_metered(&detector, &records, &view, &rec_cache, &exact_sink));
        exact_best = exact_best.min(start.elapsed().as_secs_f64());

        let sampled_sink = RecordingSink::sampled(SAMPLE_EVERY);
        let start = Instant::now();
        std::hint::black_box(engine1.scan_metered(&detector, &records, &view, &rec_cache, &sampled_sink));
        sampled_best = sampled_best.min(start.elapsed().as_secs_f64());
    }
    let noop_tps = n as f64 / noop_best.max(1e-12);
    let exact_tps = n as f64 / exact_best.max(1e-12);
    let sampled_tps = n as f64 / sampled_best.max(1e-12);
    let exact_pct = (exact_best / noop_best.max(1e-12) - 1.0) * 100.0;
    let overhead_pct = (sampled_best / noop_best.max(1e-12) - 1.0) * 100.0;
    println!(
        "\nsink overhead (best of {reps}): noop {noop_tps:.0} tx/s, exact {exact_tps:.0} tx/s ({exact_pct:+.1}%), sampled 1-in-{SAMPLE_EVERY} {sampled_tps:.0} tx/s ({overhead_pct:+.1}%)"
    );

    // ----- flight-recorder overhead ----------------------------------------
    // The unobserved path (what every untraced scan uses) vs a live
    // FlightRecorder capturing full per-tx provenance. The unobserved
    // path is the zero-cost claim: `O::TRACED = false` compiles every
    // event construction out of the hot loop.
    let mut untraced_best = f64::INFINITY;
    let mut traced_best = f64::INFINITY;
    let mut traced_recorded = 0u64;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(engine1.scan_with_cache(&detector, &records, &view, &rec_cache));
        untraced_best = untraced_best.min(start.elapsed().as_secs_f64());

        let recorder = FlightRecorder::with_capacity(256);
        let start = Instant::now();
        std::hint::black_box(engine1.scan_traced(&detector, &records, &view, &rec_cache, &recorder));
        traced_best = traced_best.min(start.elapsed().as_secs_f64());
        traced_recorded = recorder.recorded();
    }
    let untraced_tps = n as f64 / untraced_best.max(1e-12);
    let traced_tps = n as f64 / traced_best.max(1e-12);
    let tracer_pct = (traced_best / untraced_best.max(1e-12) - 1.0) * 100.0;
    println!(
        "tracer overhead (best of {reps}): untraced {untraced_tps:.0} tx/s, flight recorder {traced_tps:.0} tx/s ({tracer_pct:+.1}%, {traced_recorded} traces/pass)"
    );
    checks.check(
        traced_recorded == n as u64,
        format!("flight recorder captured {traced_recorded} of {n} txs"),
    );

    // ----- persist ----------------------------------------------------------
    let stage_json = summaries
        .iter()
        .map(|s| {
            format!(
                "    {{ \"stage\": \"{}\", \"samples\": {}, \"total_ms\": {:.3}, \"p50_us\": {:.3}, \"p95_us\": {:.3}, \"p99_us\": {:.3} }}",
                s.stage.name(),
                s.count,
                s.total_ms(),
                s.p50_us(),
                s.p95_us(),
                s.p99_us()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"obs\",\n  \"smoke\": {smoke},\n  \"corpus\": {{ \"seed\": {seed}, \"scale\": {scale}, \"transactions\": {n} }},\n  \"substrate\": {{ \"transactions\": {}, \"committed\": {}, \"reverted\": {}, \"frames\": {}, \"transfers\": {}, \"logs\": {}, \"journal_entries\": {} }},\n  \"stages\": [\n{stage_json}\n  ],\n  \"counters\": {{ \"transactions\": {}, \"account_transfers\": {}, \"flash_loans\": {}, \"tags_resolved\": {}, \"app_transfers\": {}, \"transfers_dropped\": {}, \"transfers_merged\": {}, \"trades\": {}, \"borrower_tags\": {}, \"patterns_tried\": {}, \"patterns_matched\": {}, \"attacks\": {attacks} }},\n  \"cache\": [\n{}\n  ],\n  \"sink_overhead\": {{ \"reps\": {reps}, \"sample_every\": {SAMPLE_EVERY}, \"noop_tx_per_sec\": {noop_tps:.1}, \"exact_tx_per_sec\": {exact_tps:.1}, \"exact_overhead_pct\": {exact_pct:.2}, \"recording_tx_per_sec\": {sampled_tps:.1}, \"overhead_pct\": {overhead_pct:.2} }},\n  \"tracer_overhead\": {{ \"reps\": {reps}, \"untraced_tx_per_sec\": {untraced_tps:.1}, \"traced_tx_per_sec\": {traced_tps:.1}, \"overhead_pct\": {tracer_pct:.2}, \"traces_per_pass\": {traced_recorded} }}\n}}\n",
        exec.transactions,
        exec.committed,
        exec.reverted,
        exec.frames,
        exec.transfers,
        exec.logs,
        exec.journal_entries,
        totals.transactions,
        totals.account_transfers,
        totals.flash_loans,
        totals.tags_resolved,
        totals.app_transfers,
        totals.transfers_dropped,
        totals.transfers_merged,
        totals.trades,
        totals.borrower_tags,
        totals.patterns_tried,
        totals.patterns_matched,
        cache_json.join(",\n"),
    );
    std::fs::write("BENCH_obs.json", &json).expect("write BENCH_obs.json");
    println!("wrote BENCH_obs.json");

    checks.check(
        summaries.len() == STAGES.len() && summaries.iter().all(|s| s.count > 0),
        "a pipeline stage has no samples",
    );
    checks.check(
        summaries.first().is_some_and(|fl| fl.count as usize == n),
        "the flash-loan stage did not time every tx",
    );
    checks.check(totals.tags_resolved > 0, "recorded counters resolved no tag");
    checks.check(
        overhead_pct <= MAX_SINK_OVERHEAD_PCT,
        format!("sampled sink overhead {overhead_pct:+.2}% (limit {MAX_SINK_OVERHEAD_PCT}%)"),
    );
    checks.finish("obs");
}
