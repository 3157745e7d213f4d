//! Shared harness code for the table/figure regeneration binaries and the
//! Criterion benches.
//!
//! Every binary regenerates one table or figure from the paper's
//! evaluation (see `DESIGN.md`'s experiment index):
//!
//! | binary    | regenerates |
//! |-----------|-------------|
//! | `fig1`    | weekly flash-loan transactions per provider |
//! | `table1`  | the 22 known attacks with volatility + patterns |
//! | `table2`  | flash-loan identification signatures |
//! | `table4`  | known-attack detection across the three detectors |
//! | `table5`  | wild-scan detections, TP/FP and precision per pattern |
//! | `table6`  | top-3 most attacked applications |
//! | `table7`  | attack profit statistics |
//! | `fig6`    | bZx-1 app-level transfer construction |
//! | `fig8`    | monthly unknown flpAttacks |
//! | `latency` | per-transaction detection latency (§VI-A) |
//! | `ablation`| threshold sweeps (§VII) |

use std::time::Instant;

use ethsim::TxRecord;
use leishen::{DetectorConfig, LeiShen, ScanEngine, TagCache};
use leishen_scenarios::generator::{generate, GeneratorConfig};
use leishen_scenarios::{run_all_attacks, ExecutedAttack, GeneratedTx, World};

/// A world with all 22 known attacks executed.
pub fn known_attack_world() -> (World, Vec<ExecutedAttack>) {
    let mut world = World::new();
    let attacks = run_all_attacks(&mut world);
    (world, attacks)
}

/// A world with the wild corpus generated.
pub fn wild_world(seed: u64, scale: f64) -> (World, Vec<GeneratedTx>) {
    let mut world = World::new();
    let corpus = generate(
        &mut world,
        &GeneratorConfig {
            seed,
            scale,
            with_attacks: true,
        },
    );
    (world, corpus)
}

/// Parses `--seed N` / `--scale F` style CLI options with defaults.
pub fn cli_f64(flag: &str, default: f64) -> f64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parses a `--flag N` u64 option.
pub fn cli_u64(flag: &str, default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parses a `--flag value` string option.
pub fn cli_str(flag: &str, default: &str) -> String {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

/// Whether a bare `--flag` is present.
pub fn cli_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Prints an aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("--")
    );
    for row in rows {
        line(row);
    }
}

/// Replays a transaction set into records, sorted by transaction id —
/// the canonical batch ordering for [`ScanEngine`] scans, so serial and
/// parallel runs are comparable element by element.
pub fn corpus_records(
    world: &World,
    txs: impl Iterator<Item = ethsim::TxId>,
) -> Vec<&TxRecord> {
    let mut records: Vec<&TxRecord> = txs
        .map(|tx| world.chain.replay(tx).expect("recorded"))
        .collect();
    records.sort_by_key(|r| r.id);
    records
}

/// Times the detector over a set of transactions and returns latencies in
/// microseconds (per transaction).
pub fn measure_latencies(
    world: &World,
    txs: impl Iterator<Item = ethsim::TxId>,
    config: DetectorConfig,
) -> Vec<f64> {
    let labels = world.detector_labels();
    let view = world.view(&labels);
    let detector = LeiShen::new(config);
    let mut out = Vec::new();
    for tx in txs {
        let record = world.chain.replay(tx).expect("recorded");
        let start = Instant::now();
        let analysis = detector.analyze(record, &view);
        let elapsed = start.elapsed().as_secs_f64() * 1e6;
        std::hint::black_box(&analysis);
        out.push(elapsed);
    }
    out
}

/// Per-transaction latencies (µs) through the batch-scan hot path: tags
/// resolved via one shared [`TagCache`] across the whole set. The
/// cache-warm twin of [`measure_latencies`].
pub fn measure_latencies_cached(
    world: &World,
    txs: impl Iterator<Item = ethsim::TxId>,
    config: DetectorConfig,
) -> Vec<f64> {
    let labels = world.detector_labels();
    let view = world.view(&labels);
    let detector = LeiShen::new(config);
    let cache = TagCache::new();
    let mut out = Vec::new();
    for tx in txs {
        let record = world.chain.replay(tx).expect("recorded");
        let start = Instant::now();
        let analysis = detector.analyze_cached(record, &view, &cache);
        let elapsed = start.elapsed().as_secs_f64() * 1e6;
        std::hint::black_box(&analysis);
        out.push(elapsed);
    }
    out
}

/// One timed batch scan.
#[derive(Clone, Copy, Debug)]
pub struct ThroughputRun {
    /// Worker threads used (0 ⇒ plain serial `analyze` loop, no cache).
    pub workers: usize,
    /// Transactions scanned.
    pub transactions: usize,
    /// Wall-clock time for the whole batch, microseconds.
    pub elapsed_us: f64,
    /// Transactions per second.
    pub tx_per_sec: f64,
}

impl ThroughputRun {
    fn from_elapsed(workers: usize, transactions: usize, secs: f64) -> ThroughputRun {
        ThroughputRun {
            workers,
            transactions,
            elapsed_us: secs * 1e6,
            tx_per_sec: transactions as f64 / secs.max(1e-12),
        }
    }
}

/// Times the plain serial loop (`analyze` per transaction, no shared
/// cache) over the batch — the baseline [`measure_throughput`] runs are
/// compared against. Like the engine, the loop collects every
/// [`leishen::Analysis`], so both sides are timed producing the same
/// output.
pub fn measure_serial_throughput(
    world: &World,
    txs: impl Iterator<Item = ethsim::TxId>,
    config: DetectorConfig,
) -> ThroughputRun {
    let labels = world.detector_labels();
    let view = world.view(&labels);
    let detector = LeiShen::new(config);
    let records = corpus_records(world, txs);
    let start = Instant::now();
    let analyses: Vec<leishen::Analysis> = records
        .iter()
        .map(|record| detector.analyze(record, &view))
        .collect();
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(&analyses);
    ThroughputRun::from_elapsed(0, records.len(), secs)
}

/// Times a [`ScanEngine`] batch scan at the given worker count — the
/// batch-scanning twin of [`measure_latencies`]. Replay happens outside
/// the timed region. The caller provides the shared [`TagCache`] so it
/// persists across batches, which is the engine's steady state: a scanner
/// that processes corpus after corpus over the same chain keeps one cache
/// alive (that is what [`ScanEngine::scan_with_cache`] is for), so only
/// the very first batch pays the cold tag-resolution misses. Pass a fresh
/// cache to time a cold scan instead.
pub fn measure_throughput(
    world: &World,
    txs: impl Iterator<Item = ethsim::TxId>,
    config: DetectorConfig,
    workers: usize,
    cache: &TagCache,
) -> ThroughputRun {
    let labels = world.detector_labels();
    let view = world.view(&labels);
    let detector = LeiShen::new(config);
    let records = corpus_records(world, txs);
    let engine = ScanEngine::new(workers);
    let start = Instant::now();
    let analyses = engine.scan_with_cache(&detector, &records, &view, cache);
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(&analyses);
    ThroughputRun::from_elapsed(workers, records.len(), secs)
}

/// Sorts a sample ascending (NaN-tolerant) — do this **once**, then take
/// as many [`percentile`]s as needed.
pub fn sort_samples(samples: &mut [f64]) {
    // total_cmp gives a total order (NaNs sort after every number), so a
    // stray NaN from a zero-duration division cannot scramble the sort
    // the way the old `partial_cmp(..).unwrap_or(Equal)` comparator did.
    samples.sort_unstable_by(f64::total_cmp);
}

/// Percentile of an **ascending-sorted** sample (`p` clamped to
/// `0..=100`; a NaN `p` reads as 0), by nearest-rank. Callers sort once
/// via [`sort_samples`] instead of this function re-sorting on every
/// call. Empty input yields 0; `p = 0` yields the minimum.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()),
        "percentile() expects sorted input; call sort_samples() first"
    );
    let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize - 1;
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        sort_samples(&mut v);
        assert_eq!(v, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn percentile_degenerate_samples() {
        // A single sample is every percentile.
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&[42.0], p), 42.0);
        }
        // Two samples: nearest-rank splits at the 50th.
        let v = [1.0, 9.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 1.0);
        assert_eq!(percentile(&v, 50.1), 9.0);
        assert_eq!(percentile(&v, 100.0), 9.0);
    }

    #[test]
    fn percentile_clamps_out_of_range_p() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&v, -10.0), 1.0);
        assert_eq!(percentile(&v, 250.0), 3.0);
        assert_eq!(percentile(&v, f64::NAN), 1.0);
    }

    #[test]
    fn sort_samples_totally_orders_nans() {
        // NaNs land at the end, numbers stay ordered — the comparator is
        // a total order, so sorting cannot scramble finite samples.
        let mut v = vec![f64::NAN, 2.0, f64::NEG_INFINITY, 1.0, f64::INFINITY];
        sort_samples(&mut v);
        assert_eq!(v[0], f64::NEG_INFINITY);
        assert_eq!(&v[1..3], &[1.0, 2.0]);
        assert_eq!(v[3], f64::INFINITY);
        assert!(v[4].is_nan());
        // Percentiles over the finite prefix stay meaningful.
        assert_eq!(percentile(&v, 40.0), 1.0);
    }

    #[test]
    fn cli_defaults() {
        assert_eq!(cli_f64("--nope", 1.5), 1.5);
        assert_eq!(cli_u64("--nope", 7), 7);
        assert!(!cli_flag("--definitely-not-set"));
    }
}
