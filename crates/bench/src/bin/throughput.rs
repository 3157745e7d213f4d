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

use leishen::{DetectorConfig, TagCache};
use leishen_bench::{
    cli_f64, cli_str, cli_u64, measure_latencies, measure_latencies_cached,
    measure_serial_throughput, measure_throughput, percentile, print_table, sort_samples,
    wild_world, ThroughputRun,
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

/// One engine configuration under measurement: a worker count, with its
/// own steady-state cache and running best.
struct Config {
    workers: usize,
    cache: TagCache,
    best: Option<ThroughputRun>,
}

impl Config {
    fn new(workers: usize) -> Config {
        Config {
            workers,
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
    let seed = cli_u64("--seed", 42);
    let scale = cli_f64("--scale", 0.002);
    let trials = cli_u64("--reps", 7).max(1) as usize;
    let warmup = 1usize;
    let worker_counts = parse_workers(&cli_str("--workers", "1,2,4,8"));
    let config = DetectorConfig::paper;

    eprintln!("generating corpus (seed={seed}, scale={scale})...");
    let (world, corpus) = wild_world(seed, scale);
    let n = corpus.len();
    let txs = || corpus.iter().map(|t| t.tx);
    println!(
        "batch-scan throughput — {n} wild flash-loan transactions (best of {trials} after {warmup} warm-up)\n"
    );

    // Every worker count, each with its own steady-state cache.
    let mut configs: Vec<Config> = worker_counts.iter().map(|&w| Config::new(w)).collect();

    // Warm-up: untimed passes down each path, so cold tag-cache misses,
    // page faults, lazy allocator arenas, and branch-predictor cold
    // starts land outside the measured trials.
    for _ in 0..warmup {
        std::hint::black_box(measure_serial_throughput(&world, txs(), config()));
        for c in &configs {
            std::hint::black_box(measure_throughput(
                &world,
                txs(),
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
            let run = measure_throughput(&world, txs(), config(), c.workers, &c.cache);
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
                "engine, {} worker{}",
                c.workers,
                if c.workers == 1 { "" } else { "s" }
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

    let speedup_at_4 = configs
        .iter()
        .find(|c| c.workers == 4)
        .and_then(|c| c.best)
        .map_or(0.0, |r| r.tx_per_sec / serial.tx_per_sec);
    if worker_counts.contains(&4) {
        println!("\nspeedup at 4 workers: {speedup_at_4:.2}× (target ≥ 2×)");
    } else {
        println!("\n(no 4-worker configuration in --workers; speedup_at_4_workers recorded as 0)");
    }

    // Steady-state cache behaviour: after the warm-up pass plus the timed
    // trials, nearly every tag lookup should hit, and on a lightly
    // contended scan the shards should almost never make a worker wait.
    for c in &configs {
        println!(
            "tag cache at {} worker{}: {:.1}% hit rate ({} hits / {} misses, {} entries, {} lock waits, {} snapshot rebuilds)",
            c.workers,
            if c.workers == 1 { "" } else { "s" },
            c.cache.hit_rate() * 100.0,
            c.cache.hits(),
            c.cache.misses(),
            c.cache.len(),
            c.cache.lock_waits(),
            c.cache.snapshot_rebuilds(),
        );
    }

    let sweep = configs
        .iter()
        .map(|c| {
            let r = c.best.expect("trials >= 1");
            format!(
                "    {{ \"workers\": {}, \"tx_per_sec\": {:.1}, \"speedup\": {:.3}, \"cache_hit_rate\": {:.4} }}",
                c.workers,
                r.tx_per_sec,
                r.tx_per_sec / serial.tx_per_sec,
                c.cache.hit_rate()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"scan\",\n  \"corpus\": {{ \"seed\": {seed}, \"scale\": {scale}, \"transactions\": {n} }},\n  \"trials\": {trials},\n  \"warmup\": {warmup},\n  \"serial\": {{ \"tx_per_sec\": {:.1}, \"p50_us\": {s50:.2}, \"p95_us\": {s95:.2}, \"p99_us\": {s99:.2} }},\n  \"scan_hot_path\": {{ \"p50_us\": {c50:.2}, \"p95_us\": {c95:.2}, \"p99_us\": {c99:.2} }},\n  \"parallel\": [\n{sweep}\n  ],\n  \"speedup_at_4_workers\": {speedup_at_4:.3}\n}}\n",
        serial.tx_per_sec,
    );
    std::fs::write("BENCH_scan.json", &json).expect("write BENCH_scan.json");
    println!("wrote BENCH_scan.json");

    if worker_counts.contains(&4) {
        assert!(
            speedup_at_4 >= 2.0,
            "engine at 4 workers must be ≥ 2× the serial loop, got {speedup_at_4:.2}×"
        );
    }
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
