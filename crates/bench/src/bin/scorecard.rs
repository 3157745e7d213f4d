//! The whole reproduction on one screen: runs the known-attack study and
//! the wild scan, and prints every headline number next to the paper's.
//!
//! ```sh
//! cargo run -p leishen-bench --release --bin scorecard
//! ```

use leishen::patterns::PatternKind;
use leishen::DetectorConfig;
use leishen_bench::{
    cli_f64, cli_u64, known_attack_world, measure_latencies, percentile, print_table,
    table4_tally, table5_tally, wild_world, AttackFlags, Table5,
};

fn main() {
    let seed = cli_u64("--seed", 42);
    let scale = cli_f64("--scale", 0.002);
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut row = |metric: &str, paper: &str, measured: String| {
        let ok = paper == measured;
        rows.push(vec![
            metric.to_string(),
            paper.to_string(),
            measured,
            if ok { "exact".into() } else { "~".into() },
        ]);
    };

    // ---- known attacks (Tables I & IV) ----
    eprintln!("running the 22 known attacks...");
    let (world, attacks) = known_attack_world();
    let tally = table4_tally(&world, &attacks);
    let count = |flagged: fn(&AttackFlags) -> bool| {
        tally.iter().filter(|t| flagged(t)).count().to_string()
    };
    let patterns_ok = tally
        .iter()
        .filter(|t| {
            let spec = &t.attack.spec;
            spec.patterns.iter().all(|k| t.kinds.contains(k)) || !spec.expect_leishen
        })
        .count();
    row("Table I pattern assignments (of 22)", "22", patterns_ok.to_string());
    row("Table IV LeiShen detections", "15", count(|t| t.leishen));
    row("Table IV DeFiRanger detections", "9", count(|t| t.defiranger));
    row("Table IV Explorer+LeiShen detections", "4", count(|t| t.explorer));

    // ---- wild scan (Table V, §VI-C, Fig. 8) ----
    eprintln!("running the wild scan (seed={seed}, scale={scale})...");
    let (world, corpus) = wild_world(seed, scale);
    let detections = table5_tally(&world, &corpus);
    let table5 = Table5::of(&detections);
    let (detected, tp) = (table5.detected, table5.tp);
    let fmt_pattern = |k: PatternKind| {
        let (t, f) = table5.pattern(k);
        format!("{}/{}/{}", t + f, t, f)
    };
    row("Table V total detected", "180", detected.to_string());
    row("Table V true attacks", "142", tp.to_string());
    row(
        "Table V overall precision",
        "78.9%",
        format!("{:.1}%", 100.0 * tp as f64 / detected.max(1) as f64),
    );
    row("Table V KRP N/TP/FP", "21/21/0", fmt_pattern(PatternKind::Krp));
    row("Table V SBS N/TP/FP", "79/68/11", fmt_pattern(PatternKind::Sbs));
    row("Table V MBS N/TP/FP", "107/60/47", fmt_pattern(PatternKind::Mbs));
    let (mbs_tp_h, mbs_fp_h) =
        Table5::of(detections.iter().filter(|d| !d.by_aggregator)).pattern(PatternKind::Mbs);
    row(
        "§VI-C MBS precision w/ heuristic",
        "80.0%",
        format!(
            "{:.1}%",
            100.0 * mbs_tp_h as f64 / (mbs_tp_h + mbs_fp_h).max(1) as f64
        ),
    );

    let unknown_total = corpus
        .iter()
        .filter(|t| t.class.is_attack() && !t.known)
        .count();
    row("Fig. 8 unknown attacks", "109", unknown_total.to_string());

    // ---- latency (§VI-A) ----
    let mut lat = measure_latencies(&world, corpus.iter().map(|t| t.tx), DetectorConfig::paper());
    leishen_bench::sort_samples(&mut lat);
    let p75_ms = percentile(&lat, 75.0) / 1000.0;
    rows.push(vec![
        "§VI-A p75 detection latency".into(),
        "≤ 16 ms".into(),
        format!("{p75_ms:.2} ms"),
        if p75_ms <= 16.0 { "within".into() } else { "OVER".into() },
    ]);

    println!("\nLeiShen reproduction scorecard\n");
    print_table(&["metric", "paper", "measured", ""], &rows);
    println!("\nsee EXPERIMENTS.md for per-table detail and caveats.");
}
