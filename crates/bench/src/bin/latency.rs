//! Regenerates the **§VI-A latency claim**: "On average, LeiShen took 10
//! milliseconds to detect three attack patterns for a flash loan
//! transaction. For 75% of the transactions, the detection can be finished
//! within the time bound of 16 milliseconds."
//!
//! ```sh
//! cargo run -p leishen-bench --release --bin latency
//! ```

use leishen::DetectorConfig;
use leishen_bench::{
    known_attack_world, measure_latencies, percentile, sort_samples, wild_world, Cli,
};

fn main() {
    let mut cli = Cli::from_env();
    let seed = cli.value("--seed", 42u64);
    let scale = cli.value("--scale", 0.002);
    cli.finish("latency");

    println!("§VI-A — per-transaction detection latency\n");

    // Known attacks (heaviest transactions).
    let (world, attacks) = known_attack_world();
    let mut lat = measure_latencies(
        &world,
        attacks.iter().map(|a| a.tx),
        DetectorConfig::paper(),
    );
    report("22 known attacks", &mut lat);

    // Wild corpus.
    eprintln!("generating corpus (seed={seed}, scale={scale})...");
    let (world, corpus) = wild_world(seed, scale);
    let mut lat = measure_latencies(
        &world,
        corpus.iter().map(|t| t.tx),
        DetectorConfig::paper(),
    );
    report(&format!("{} wild transactions", corpus.len()), &mut lat);

    println!("\npaper: mean 10 ms, p75 ≤ 16 ms (on a 2.10 GHz Xeon E5-2683 v4).");
    println!("Our traces are shorter than full mainnet transactions, so sub-paper");
    println!("latencies are expected; the budget is comfortably met either way.");
}

fn report(name: &str, lat: &mut [f64]) {
    let mean = lat.iter().sum::<f64>() / lat.len().max(1) as f64;
    sort_samples(lat);
    let p50 = percentile(lat, 50.0);
    let p75 = percentile(lat, 75.0);
    let p99 = percentile(lat, 99.0);
    let max = percentile(lat, 100.0);
    println!(
        "{name:<28} mean {:>9.1} µs   p50 {:>9.1} µs   p75 {:>9.1} µs   p99 {:>9.1} µs   max {:>9.1} µs",
        mean, p50, p75, p99, max
    );
    assert!(p75 < 16_000.0, "p75 exceeds the paper's 16 ms bound");
}
