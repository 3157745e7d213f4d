//! `leishen-perfbench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <scan-wild|stream-durable> \
//!     [--seed 42] [--seconds 55] [--trace 0|1]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --compare A.json B.json
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics with no tracing;
//! with `--trace 1` it records spans around calls into each layer and
//! reports the per-layer metrics instead. Either way it checks the
//! detector's outputs, writes a results file under `perfbench/out/`
//! (round-tripped through the repository's JSON parser first), prints
//! every metric by name and unit, and prints one JSON summary as its last
//! line. It exits 1 when a correctness gate fails and 2 on bad arguments.
//! `--compare` prints the change of every metric between two results
//! files, and refuses with exit 3 when their environment stamps differ.

mod batch;
mod catalog;
mod compose;
mod corpus;
mod env;
mod report;
mod spans;
mod stats;
mod stream;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use leishen::trace::json;

use crate::report::{write_checked, Outcome};
use crate::spans::Spans;

/// The workloads `BENCHMARK.json` lists.
const WORKLOADS: [&str; 2] = ["scan-wild", "stream-durable"];

/// Where results, span files and journals go: inside the benchmark's own
/// directory of the checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let known = ["--workload", "--seed", "--seconds", "--trace"];
    for pair in args.chunks(2) {
        if !known.contains(&pair[0].as_str()) {
            return Err(format!("unknown argument {:?}", pair[0]));
        }
    }
    let workload = value(args, "--workload")?.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seed = match value(args, "--seed")? {
        Some(v) => v.parse().map_err(|e| format!("--seed {v:?}: {e}"))?,
        None => 42,
    };
    let seconds: f64 = match value(args, "--seconds")? {
        Some(v) => v.parse().map_err(|e| format!("--seconds {v:?}: {e}"))?,
        None => 55.0,
    };
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let trace = match value(args, "--trace")? {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace must be 0 or 1, got {v:?}")),
    };
    Ok(Args {
        workload: workload.to_string(),
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> (Outcome, Option<Spans>) {
    let (seed, seconds) = (args.seed, args.seconds);
    match (args.workload.as_str(), args.trace) {
        ("scan-wild", false) => (batch::wild_timed(seed, seconds), None),
        ("scan-wild", true) => {
            let (o, s) = batch::wild_traced(seed, seconds);
            (o, Some(s))
        }
        ("stream-durable", false) => (stream::timed(seed, seconds), None),
        ("stream-durable", true) => {
            let (o, s) = stream::traced(seed, seconds);
            (o, Some(s))
        }
        _ => unreachable!("workload validated by parse_args"),
    }
}

fn print_outcome(outcome: &Outcome) {
    let e = &outcome.env;
    println!(
        "{} ({}) — seed {}, scale {}, {} txs, {:.2}% flagged; {} hw threads, {} of {} workers effective, {} build{}{}",
        e.workload,
        if e.traced { "traced" } else { "untraced" },
        e.seed,
        e.scale,
        e.txs,
        e.flagged_share * 100.0,
        e.hw_threads,
        e.effective_workers,
        e.workers,
        e.profile,
        e.offered_tx_per_s.map_or(String::new(), |r| format!(", offered {r} tx/s")),
        e.journal_fs.as_ref().map_or(String::new(), |fs| format!(", journal on {fs}")),
    );
    for g in &outcome.gates {
        println!(
            "  [{}] {}: {}",
            if g.passed { "ok" } else { "FAIL" },
            g.name,
            g.detail
        );
    }
    let width = outcome
        .metrics
        .iter()
        .map(|m| m.name.len())
        .max()
        .unwrap_or(0);
    for m in &outcome.metrics {
        println!("  {:<width$}  {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  attempted {}, failed {}",
        outcome.attempted, outcome.failed
    );
}

fn compare(a: &Path, b: &Path) -> ExitCode {
    let load = |p: &Path| -> Result<json::Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("parse {}: {e}", p.display()))
    };
    let (ra, rb) = match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match env::compare(&ra, &rb) {
        Ok(deltas) => {
            for (name, unit, va, vb, rel) in deltas {
                println!(
                    "{name:<32} {va:>14.4} -> {vb:>14.4} {unit:<6} {:>+8.2}%",
                    rel * 100.0
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(3)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        if args.len() != 3 {
            eprintln!("usage: --compare A.json B.json");
            return ExitCode::from(2);
        }
        return compare(Path::new(&args[1]), Path::new(&args[2]));
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let (outcome, spans) = run(&args);
    let expected: Vec<&str> = if args.trace {
        catalog::PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        catalog::END_TO_END.iter().map(|m| m.0).collect()
    };
    let reported: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    assert_eq!(
        reported, expected,
        "a run reports exactly its catalogue's metrics, in order"
    );
    let stem = format!(
        "{}-seed{}-{}",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "timed" }
    );
    let results = out_dir().join(format!("{stem}.json"));
    if let Err(e) = write_checked(&results, &outcome.document()) {
        eprintln!("error: {e}");
        return ExitCode::from(1);
    }
    if let Some(spans) = spans {
        // One span file per workload, overwritten by the next traced run.
        let path = out_dir().join(format!("{}.spans.jsonl", args.workload));
        if let Err(e) = std::fs::write(&path, spans.to_jsonl()) {
            eprintln!("error: write {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    print_outcome(&outcome);
    println!("  results: {}", results.display());
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn benchmark_arguments_parse() {
        let a = parse_args(&args(&[
            "--workload",
            "stream-durable",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("stream-durable", 7, 10.0, true)
        );
        let d = parse_args(&args(&["--workload", "scan-wild"])).unwrap();
        assert_eq!((d.seed, d.trace), (42, false));
    }

    #[test]
    fn bad_arguments_are_refused_not_defaulted() {
        for bad in [
            &["--workload", "scan-all"][..],
            &["--workload", "scan-wild", "--seed", "x"],
            &["--workload", "scan-wild", "--trace", "2"],
            &["--workload", "scan-wild", "--seconds", "0"],
            &["--workload", "scan-wild", "--bogus", "1"],
            &["--seed", "1"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
