//! Regenerates **Table V**: wild-scan detections with TP/FP and precision
//! per pattern — and the §VI-C aggregator heuristic with `--heuristic`.
//!
//! ```sh
//! cargo run -p leishen-bench --bin table5 -- --seed 42 --scale 0.002
//! cargo run -p leishen-bench --bin table5 -- --heuristic
//! ```

use leishen::patterns::PatternKind;
use leishen_bench::{cli_f64, cli_flag, cli_u64, print_table, table5_tally, wild_world, Table5};

fn main() {
    let seed = cli_u64("--seed", 42);
    let scale = cli_f64("--scale", 0.002);
    let heuristic = cli_flag("--heuristic");

    eprintln!("generating corpus (seed={seed}, scale={scale})...");
    let (world, corpus) = wild_world(seed, scale);
    let tally = table5_tally(&world, &corpus);
    let counts = Table5::of(tally.iter().filter(|d| !(heuristic && d.by_aggregator)));
    let (detected, tp) = (counts.detected, counts.tp);

    println!(
        "Table V — detection results on the synthetic wild corpus ({} flash-loan txs{})\n",
        corpus.len(),
        if heuristic { ", aggregator heuristic ON" } else { "" }
    );
    let mut rows = Vec::new();
    let paper = |k: PatternKind| match k {
        PatternKind::Krp => ("21", "21", "0", "100%"),
        PatternKind::Sbs => ("79", "68", "11", "86.1%"),
        PatternKind::Mbs => ("107", "60", "47", "56.1%"),
        PatternKind::Kdp => ("-", "-", "-", "-"), // experimental, not in the paper
    };
    for kind in [PatternKind::Krp, PatternKind::Sbs, PatternKind::Mbs] {
        let (tp_k, fp_k) = counts.pattern(kind);
        let n = tp_k + fp_k;
        let p = paper(kind);
        rows.push(vec![
            kind.to_string(),
            n.to_string(),
            tp_k.to_string(),
            fp_k.to_string(),
            format!("{:.1}%", 100.0 * tp_k as f64 / n.max(1) as f64),
            format!("{}/{}/{}/{}", p.0, p.1, p.2, p.3),
        ]);
    }
    print_table(
        &["Pattern", "N", "TP", "FP", "P", "paper N/TP/FP/P"],
        &rows,
    );
    println!(
        "\noverall: {detected} detected, {tp} true attacks, precision {:.1}% (paper: 180 / 142 / 78.9%)",
        100.0 * tp as f64 / detected.max(1) as f64
    );
    if heuristic {
        println!("(paper §VI-C: with the heuristic, MBS precision rises to 80%)");
    }
}
