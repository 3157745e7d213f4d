//! Shared harness code for the table/figure regeneration binaries and the
//! campaign bins.
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
//! | `table5`  | wild-scan detections, TP/FP and precision per pattern, and the §VI-C heuristic |
//! | `table6`  | most attacked applications, and the §VI-D1 repeat-attack bursts |
//! | `table7`  | attack profit statistics |
//! | `fig6`    | bZx-1 app-level transfer construction |
//! | `fig8`    | monthly unknown flpAttacks |
//! | `defense` | §VI-D volatility bands against a 3% threshold defense |
//! | `latency` | per-transaction detection latency (§VI-A) |
//! | `ablation`| threshold sweeps (§VII) |
//! | `scorecard` | every headline number next to the paper's; exits 1 unless each matches |
//!
//! Each paper result has one producer: Tables I and IV come from
//! [`table4_tally`], and every wild-corpus result is a function of one
//! [`WildStudy`], which analyzes each transaction once. The paper bins,
//! `scorecard` and the integration tests all read those functions. The
//! campaign bins (`fuzz`, `chaos`, `recover`, `evade`, `stream`, `obs`,
//! `throughput`, `trace`) judge their own runs through [`Checks`];
//! `bench_diff` judges only drift from a committed baseline. Every bin
//! but `bench_diff` reads its command line through [`Cli`], which exits 2
//! on an unknown argument or a malformed value.

use std::time::Instant;

use ethsim::TxRecord;
use leishen::{ChainView, DetectorConfig, LeiShen, ScanEngine, TagCache};
use leishen_scenarios::generator::{generate, GeneratorConfig};
use leishen_scenarios::{run_all_attacks, ExecutedAttack, GeneratedTx, World};

mod paper;
pub use paper::{table4_tally, AppRow, AttackFlags, Fig8, Table4, Table5, Table7, WildStudy};

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

/// A bin's command line. The bin reads each `--name value` option
/// through [`Cli::value`] and each bare `--name` switch through
/// [`Cli::flag`], then calls [`Cli::finish`], which refuses a value that
/// does not parse and any argument no read consumed.
pub struct Cli {
    args: Vec<String>,
    used: Vec<bool>,
    errors: Vec<String>,
}

impl Cli {
    /// The process's arguments, after the program name.
    pub fn from_env() -> Cli {
        Cli::new(std::env::args().skip(1))
    }

    /// A command line of `args`.
    fn new(args: impl IntoIterator<Item = String>) -> Cli {
        let args: Vec<String> = args.into_iter().collect();
        Cli { used: vec![false; args.len()], args, errors: Vec::new() }
    }

    /// Consumes `flag` and returns its position.
    fn take(&mut self, flag: &str) -> Option<usize> {
        let i = self.args.iter().position(|a| a == flag)?;
        self.used[i] = true;
        Some(i)
    }

    /// The value after `flag`, or `default` when `flag` is absent.
    pub fn value<T: std::str::FromStr>(&mut self, flag: &str, default: T) -> T {
        let Some(i) = self.take(flag) else { return default };
        let Some(value) = self.args.get(i + 1) else {
            self.errors.push(format!("{flag} needs a value"));
            return default;
        };
        self.used[i + 1] = true;
        value.parse().unwrap_or_else(|_| {
            self.errors.push(format!("{flag}: malformed value `{value}`"));
            default
        })
    }

    /// Whether the bare switch `flag` is present.
    pub fn flag(&mut self, flag: &str) -> bool {
        self.take(flag).is_some()
    }

    /// Every refused argument, one line each: malformed or missing
    /// values, then arguments no read consumed.
    fn errors(mut self) -> Vec<String> {
        for (arg, used) in self.args.iter().zip(&self.used) {
            if !used {
                self.errors.push(format!("unexpected argument `{arg}`"));
            }
        }
        self.errors
    }

    /// Prints `<bin>: <error>` for each refused argument and exits 2;
    /// returns when there is none.
    pub fn finish(self, bin: &str) {
        let errors = self.errors();
        if errors.is_empty() {
            return;
        }
        for error in &errors {
            eprintln!("{bin}: {error}");
        }
        std::process::exit(2);
    }
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

/// Timed passes [`measure_latencies`] makes over its set.
const LATENCY_PASSES: usize = 5;

/// Times the detector over a set of transactions and returns latencies in
/// microseconds (per transaction). The set is analyzed once untimed, then
/// timed in five passes in order; each transaction reports its median
/// over the passes, so one preempted analysis cannot move it.
pub fn measure_latencies(
    world: &World,
    txs: impl Iterator<Item = ethsim::TxId>,
    config: DetectorConfig,
) -> Vec<f64> {
    let labels = world.detector_labels();
    let view = world.view(&labels);
    let detector = LeiShen::new(config);
    let records: Vec<&TxRecord> =
        txs.map(|tx| world.chain.replay(tx).expect("recorded")).collect();
    for record in &records {
        std::hint::black_box(detector.analyze(record, &view));
    }
    let mut passes = vec![[0.0; LATENCY_PASSES]; records.len()];
    for pass in 0..LATENCY_PASSES {
        for (record, samples) in records.iter().zip(&mut passes) {
            let start = Instant::now();
            let analysis = detector.analyze(record, &view);
            samples[pass] = start.elapsed().as_secs_f64() * 1e6;
            std::hint::black_box(&analysis);
        }
    }
    passes
        .into_iter()
        .map(|mut samples| {
            sort_samples(&mut samples);
            samples[LATENCY_PASSES / 2]
        })
        .collect()
}

/// Per-transaction latencies (µs) through the batch-scan hot path: tags
/// resolved via one shared [`TagCache`] across the whole set, each
/// transaction timed once. The cache-warm twin of [`measure_latencies`].
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
/// batch-scanning twin of [`measure_latencies`]. The caller replays the
/// records and builds the view once, outside the timed region, and
/// provides the shared [`TagCache`] so it persists across batches, which
/// is the engine's steady state: a scanner that processes corpus after
/// corpus over the same chain keeps one cache alive (that is what
/// [`ScanEngine::scan_with_cache`] is for), so only the very first batch
/// pays the cold tag-resolution misses. A cache serves the one view it
/// first resolved against. Pass a fresh cache to time a cold scan
/// instead.
pub fn measure_throughput(
    view: &ChainView<'_>,
    records: &[&TxRecord],
    config: DetectorConfig,
    workers: usize,
    cache: &TagCache,
) -> ThroughputRun {
    let detector = LeiShen::new(config);
    let engine = ScanEngine::new(workers);
    let start = Instant::now();
    let analyses = engine.scan_with_cache(&detector, records, view, cache);
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

/// The absolute checks a bin makes on its own run. A bin writes its
/// report first and then calls [`Checks::finish`], which names every
/// failed check and exits 1.
#[derive(Default)]
pub struct Checks {
    failed: Vec<String>,
}

impl Checks {
    /// Records `what` as failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failed.push(what.into());
        }
    }

    /// Prints each failed check as `<bin> FAILED: <check>` and exits 1;
    /// returns when every check passed.
    pub fn finish(self, bin: &str) {
        if self.failed.is_empty() {
            return;
        }
        for what in &self.failed {
            eprintln!("{bin} FAILED: {what}");
        }
        std::process::exit(1);
    }
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

    fn cli(args: &[&str]) -> Cli {
        Cli::new(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn cli_defaults() {
        let mut cli = cli(&[]);
        assert_eq!(cli.value("--nope", 1.5), 1.5);
        assert_eq!(cli.value("--nope", 7u64), 7);
        assert!(!cli.flag("--definitely-not-set"));
        assert!(cli.errors().is_empty());
    }

    #[test]
    fn cli_refuses_unknown_flags_and_malformed_values() {
        let mut cli = cli(&["--smoke", "--out", "x", "--sed", "7", "--scale", "0.002x", "--seed"]);
        assert!(cli.flag("--smoke"));
        assert_eq!(cli.value("--out", String::new()), "x");
        assert_eq!(cli.value("--scale", 0.5), 0.5);
        assert_eq!(cli.value("--seed", 42u64), 42);
        assert_eq!(
            cli.errors(),
            [
                "--scale: malformed value `0.002x`",
                "--seed needs a value",
                "unexpected argument `--sed`",
                "unexpected argument `7`",
            ]
        );
    }
}
