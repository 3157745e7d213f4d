//! Batch-scan throughput: the serial per-transaction loop vs the
//! [`leishen::ScanEngine`] (shared tag cache + chunked worker pool) over
//! the wild corpus, swept across worker counts.
//!
//! ```sh
//! cargo run -p leishen-bench --release --bin throughput -- \
//!     --workers 1,2,4,8 --reps 7
//! ```
//!
//! Prints a table and persists the numbers to `BENCH_scan.json` (see
//! `EXPERIMENTS.md` for the schema). The serial baseline is the plain
//! `LeiShen::analyze` loop every other binary uses, which re-resolves
//! every tag from the creation tree on every transaction. Each engine
//! configuration keeps one shared `TagCache` alive across trials — the
//! engine's steady state, where a scanner processes batch after batch
//! over the same chain and only the first (untimed, warm-up) batch pays
//! the cold tag-resolution misses. Each reported number is the best of
//! `--reps` timed trials after that warm-up pass; both counts are
//! recorded in the JSON so a reader can judge how hardened the
//! measurement was.
//!
//! The speedup mixes two effects, so the output splits it: `cache_gain`
//! (1-worker row ÷ serial loop) and `parallel_efficiency` (4-worker row ÷
//! (1-worker row × the workers the 4-worker scans ran, which
//! `hw_threads` caps)).
//!
//! Once the JSON is written, the bin exits 1, naming each failed check,
//! unless every row has a positive rate and cache hit rate and a 4-worker
//! row, when swept, is at least 2× the serial loop.

use leishen::{DetectorConfig, ScanEngine, TagCache};
use leishen_bench::{
    corpus_records, measure_latencies, measure_latencies_cached, measure_serial_throughput,
    measure_throughput, percentile, print_table, sort_samples, wild_world, Checks, Cli,
    ThroughputRun,
};

/// Keeps the best (highest tx/s) run seen so far. The corpus takes only
/// a few milliseconds per scan, so a single run is at the mercy of
/// scheduler noise; trials are **interleaved** across configurations
/// (round-robin, see `main`) so a noisy stretch of wall-clock time cannot
/// eat every trial of one configuration while another gets a clean
/// best — and then the best of each is the stable number.
fn keep_best(best: &mut Option<ThroughputRun>, run: ThroughputRun) {
    if best.is_none_or(|b| run.tx_per_sec > b.tx_per_sec) {
        *best = Some(run);
    }
}

/// One engine configuration under measurement: a worker count, the
/// workers a scan of the corpus actually runs, its own steady-state
/// cache and running best.
struct Config {
    workers: usize,
    effective: usize,
    cache: TagCache,
    best: Option<ThroughputRun>,
}

impl Config {
    fn new(workers: usize, transactions: usize) -> Config {
        Config {
            workers,
            effective: ScanEngine::new(workers).effective_workers(transactions),
            cache: TagCache::new(),
            best: None,
        }
    }
}

fn parse_workers(spec: &str) -> Vec<usize> {
    let mut counts: Vec<usize> = Vec::new();
    for part in spec.split(',') {
        if let Ok(w) = part.trim().parse::<usize>() {
            if w > 0 && !counts.contains(&w) {
                counts.push(w);
            }
        }
    }
    assert!(!counts.is_empty(), "--workers needs at least one positive count, got {spec:?}");
    counts
}

fn main() {
    let mut cli = Cli::from_env();
    let seed = cli.value("--seed", 42u64);
    let scale = cli.value("--scale", 0.002);
    let trials = cli.value("--reps", 7usize).max(1);
    let warmup = 1usize;
    let worker_counts = parse_workers(&cli.value("--workers", "1,2,4,8".to_string()));
    cli.finish("throughput");
    let config = DetectorConfig::paper;

    eprintln!("generating corpus (seed={seed}, scale={scale})...");
    let (world, corpus) = wild_world(seed, scale);
    let n = corpus.len();
    let txs = || corpus.iter().map(|t| t.tx);
    // One view for every engine trial: each configuration's cache serves
    // the creation index it first resolved against.
    let labels = world.detector_labels();
    let view = world.view(&labels);
    let records = corpus_records(&world, txs());
    let hw_threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    println!(
        "batch-scan throughput — {n} wild flash-loan transactions (best of {trials} after {warmup} warm-up)\n"
    );

    // Every worker count, each with its own steady-state cache.
    let mut configs: Vec<Config> = worker_counts.iter().map(|&w| Config::new(w, n)).collect();

    // Warm-up: untimed passes down each path, so cold tag-cache misses,
    // page faults, lazy allocator arenas, and branch-predictor cold
    // starts land outside the measured trials.
    for _ in 0..warmup {
        std::hint::black_box(measure_serial_throughput(&world, txs(), config()));
        for c in &configs {
            std::hint::black_box(measure_throughput(
                &view,
                &records,
                config(),
                c.workers,
                &c.cache,
            ));
        }
    }

    // Interleaved trials: each round measures the serial baseline and
    // every configuration back to back, keeping the per-configuration
    // best across rounds.
    let mut serial_best: Option<ThroughputRun> = None;
    for _ in 0..trials {
        keep_best(
            &mut serial_best,
            measure_serial_throughput(&world, txs(), config()),
        );
        for c in &mut configs {
            let run = measure_throughput(&view, &records, config(), c.workers, &c.cache);
            keep_best(&mut c.best, run);
        }
    }
    let serial = serial_best.expect("trials >= 1");

    let mut serial_lat = measure_latencies(&world, txs(), config());
    sort_samples(&mut serial_lat);

    // The engine's hot path timed per transaction (shared cache, serial
    // order) — where the batch percentiles come from.
    let mut cached_lat = measure_latencies_cached(&world, txs(), config());
    sort_samples(&mut cached_lat);

    let pcts = |lat: &[f64]| {
        (
            percentile(lat, 50.0),
            percentile(lat, 95.0),
            percentile(lat, 99.0),
        )
    };
    let (s50, s95, s99) = pcts(&serial_lat);
    let (c50, c95, c99) = pcts(&cached_lat);

    let mut rows = vec![row("serial loop", serial.tx_per_sec, 1.0, Some((s50, s95, s99)))];
    for c in &configs {
        let run = c.best.expect("trials >= 1");
        let pct = (c.workers == 1).then_some((c50, c95, c99));
        rows.push(row(
            &format!(
                "engine, {} worker{} ({} ran)",
                c.workers,
                if c.workers == 1 { "" } else { "s" },
                c.effective
            ),
            run.tx_per_sec,
            run.tx_per_sec / serial.tx_per_sec,
            pct,
        ));
    }
    print_table(
        &["configuration", "tx/s", "speedup", "p50", "p95", "p99"],
        &rows,
    );

    // A configuration's best rate and the workers its scans ran.
    let best_at = |workers: usize| {
        configs
            .iter()
            .find(|c| c.workers == workers)
            .and_then(|c| Some((c.best?.tx_per_sec, c.effective)))
    };
    let speedup_at_4 = best_at(4).map_or(0.0, |(rate, _)| rate / serial.tx_per_sec);
    let cache_gain = best_at(1).map_or(0.0, |(rate, _)| rate / serial.tx_per_sec);
    let parallel_efficiency = match (best_at(1), best_at(4)) {
        (Some((one, _)), Some((four, ran))) => four / (one * ran as f64),
        _ => 0.0,
    };
    if worker_counts.contains(&4) {
        println!("\nspeedup at 4 workers: {speedup_at_4:.2}× (target ≥ 2×)");
    } else {
        println!("\n(no 4-worker configuration in --workers; speedup_at_4_workers recorded as 0)");
    }
    println!(
        "split: cache gain {cache_gain:.2}× (1-worker engine / serial loop), parallel efficiency {parallel_efficiency:.2} (4 workers / 1 worker / workers run; {hw_threads} hardware threads; 0 = row missing)"
    );

    // Steady-state cache behaviour: after the warm-up pass plus the timed
    // trials, nearly every tag lookup should hit.
    for c in &configs {
        println!(
            "tag cache at {} worker{}: {:.1}% hit rate ({} hits / {} misses, {} entries)",
            c.workers,
            if c.workers == 1 { "" } else { "s" },
            c.cache.hit_rate() * 100.0,
            c.cache.hits(),
            c.cache.misses(),
            c.cache.len(),
        );
    }

    let sweep = configs
        .iter()
        .map(|c| {
            let r = c.best.expect("trials >= 1");
            format!(
                "    {{ \"workers\": {}, \"effective_workers\": {}, \"tx_per_sec\": {:.1}, \"speedup\": {:.3}, \"cache_hit_rate\": {:.4} }}",
                c.workers,
                c.effective,
                r.tx_per_sec,
                r.tx_per_sec / serial.tx_per_sec,
                c.cache.hit_rate()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"scan\",\n  \"corpus\": {{ \"seed\": {seed}, \"scale\": {scale}, \"transactions\": {n} }},\n  \"hw_threads\": {hw_threads},\n  \"trials\": {trials},\n  \"warmup\": {warmup},\n  \"serial\": {{ \"tx_per_sec\": {:.1}, \"p50_us\": {s50:.2}, \"p95_us\": {s95:.2}, \"p99_us\": {s99:.2} }},\n  \"scan_hot_path\": {{ \"p50_us\": {c50:.2}, \"p95_us\": {c95:.2}, \"p99_us\": {c99:.2} }},\n  \"parallel\": [\n{sweep}\n  ],\n  \"speedup_at_4_workers\": {speedup_at_4:.3},\n  \"cache_gain\": {cache_gain:.3},\n  \"parallel_efficiency\": {parallel_efficiency:.3}\n}}\n",
        serial.tx_per_sec,
    );
    std::fs::write("BENCH_scan.json", &json).expect("write BENCH_scan.json");
    println!("wrote BENCH_scan.json");

    let mut checks = Checks::default();
    for c in &configs {
        let rate = c.best.map_or(0.0, |r| r.tx_per_sec);
        checks.check(
            rate > 0.0 && c.cache.hit_rate() > 0.0,
            format!(
                "{}-worker row: {rate:.1} tx/s, cache hit rate {:.4}",
                c.workers,
                c.cache.hit_rate()
            ),
        );
    }
    checks.check(
        !worker_counts.contains(&4) || speedup_at_4 >= 2.0,
        format!("engine at 4 workers must be ≥ 2× the serial loop, got {speedup_at_4:.2}×"),
    );
    checks.finish("throughput");
}

fn row(name: &str, tx_per_sec: f64, speedup: f64, pct: Option<(f64, f64, f64)>) -> Vec<String> {
    let fmt_us = |v: f64| format!("{v:.0} µs");
    let (p50, p95, p99) = match pct {
        Some((a, b, c)) => (fmt_us(a), fmt_us(b), fmt_us(c)),
        None => ("-".into(), "-".into(), "-".into()),
    };
    vec![
        name.to_string(),
        format!("{tx_per_sec:.0}"),
        format!("{speedup:.2}x"),
        p50,
        p95,
        p99,
    ]
}
