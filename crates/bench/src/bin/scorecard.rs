//! The whole reproduction on one screen: runs the known-attack study and
//! the wild scan, prints every headline number next to the paper's, and
//! exits 1 naming each row that is not `exact` (§VI-A: not `within`).
//!
//! ```sh
//! cargo run -p leishen-bench --release --bin scorecard
//! ```

use leishen::patterns::PatternKind;
use leishen::DetectorConfig;
use leishen_bench::{
    known_attack_world, measure_latencies, percentile, print_table, table4_tally, Checks, Table4,
    WildStudy,
};

fn main() {
    let study = WildStudy::from_cli("scorecard");
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut checks = Checks::default();
    let mut row = |metric: &str, paper: &str, measured: String| {
        let ok = paper == measured;
        checks.check(ok, format!("{metric}: paper {paper}, measured {measured}"));
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
    let table4 = Table4::of(&tally);
    let patterns_ok = tally.iter().filter(|t| t.patterns_match()).count();
    row("Table I pattern assignments (of 22)", "22", patterns_ok.to_string());
    row("Table IV LeiShen detections", "15", table4.leishen.to_string());
    row("Table IV DeFiRanger detections", "9", table4.defiranger.to_string());
    row("Table IV Explorer+LeiShen detections", "4", table4.explorer.to_string());

    // ---- wild scan (Tables V–VII, §VI-C, Fig. 8) ----
    let table5 = study.table5(false);
    let fmt_pattern = |k: PatternKind| {
        let (t, f) = table5.pattern(k);
        format!("{}/{}/{}", t + f, t, f)
    };
    row("Table V total detected", "180", table5.detected.to_string());
    row("Table V true attacks", "142", table5.tp.to_string());
    row("Table V overall precision", "78.9%", format!("{:.1}%", table5.precision()));
    row("Table V KRP N/TP/FP", "21/21/0", fmt_pattern(PatternKind::Krp));
    row("Table V SBS N/TP/FP", "79/68/11", fmt_pattern(PatternKind::Sbs));
    row("Table V MBS N/TP/FP", "107/60/47", fmt_pattern(PatternKind::Mbs));
    row(
        "§VI-C MBS precision w/ heuristic",
        "80.0%",
        format!("{:.1}%", study.table5(true).pattern_precision(PatternKind::Mbs)),
    );

    let table6 = study.table6();
    let paper6 = [("Balancer", "31/5/14/13"), ("Uniswap", "16/6/8/5"), ("Yearn", "11/1/1/1")];
    for (i, (app, counts)) in paper6.iter().enumerate() {
        let measured = table6.get(i).map_or("-".to_string(), |r| {
            format!("{} {}/{}/{}/{}", r.app, r.attacks, r.attackers, r.contracts, r.assets)
        });
        let metric = format!("Table VI #{} attacks/attackers/contracts/assets", i + 1);
        row(&metric, &format!("{app} {counts}"), measured);
    }

    let [_, (_, _, min), (_, _, max), ..] = study.table7().rows();
    row("Table VII min net profit ($)", "23", format!("{min:.0}"));
    row("Table VII max net profit ($)", "6102198", format!("{max:.0}"));

    let fig8 = study.fig8();
    row("Fig. 8 unknown attacks", "109", fig8.total().to_string());
    row(
        "Fig. 8 first unknown attack",
        "2020-06",
        fig8.monthly.keys().next().map_or("-".to_string(), |m| m.label()),
    );
    row("Fig. 8 2020 attacks (6.5/mo × 7)", "46", fig8.year(2020).to_string());
    row("Fig. 8 2021 attacks (4.3/mo × 12)", "52", fig8.year(2021).to_string());

    // ---- latency (§VI-A) ----
    let txs = study.corpus.iter().map(|t| t.tx);
    let mut lat = measure_latencies(&study.world, txs, DetectorConfig::paper());
    leishen_bench::sort_samples(&mut lat);
    let p75_ms = percentile(&lat, 75.0) / 1000.0;
    let within = p75_ms <= 16.0;
    checks.check(within, format!("§VI-A p75 detection latency: {p75_ms:.2} ms over 16 ms"));
    rows.push(vec![
        "§VI-A p75 detection latency".into(),
        "≤ 16 ms".into(),
        format!("{p75_ms:.2} ms"),
        if within { "within".into() } else { "OVER".into() },
    ]);

    println!("\nLeiShen reproduction scorecard\n");
    print_table(&["metric", "paper", "measured", ""], &rows);
    println!("\nsee EXPERIMENTS.md for per-table detail and caveats.");
    checks.finish("scorecard");
}
