//! Regenerates **Table V**: wild-scan detections with TP/FP and precision
//! per pattern; then the same table under the §VI-C aggregator heuristic.
//!
//! ```sh
//! cargo run -p leishen-bench --bin table5 -- --seed 42 --scale 0.002
//! ```

use leishen::patterns::PatternKind;
use leishen_bench::{print_table, WildStudy};

fn main() {

    let study = WildStudy::from_cli("table5");
    for heuristic in [false, true] {
        let counts = study.table5(heuristic);
        println!(
            "{}Table V — detection results on the synthetic wild corpus ({} flash-loan txs{})\n",
            if heuristic { "\n" } else { "" },
            study.corpus.len(),
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
            let p = paper(kind);
            rows.push(vec![
                kind.to_string(),
                (tp_k + fp_k).to_string(),
                tp_k.to_string(),
                fp_k.to_string(),
                format!("{:.1}%", counts.pattern_precision(kind)),
                format!("{}/{}/{}/{}", p.0, p.1, p.2, p.3),
            ]);
        }
        print_table(
            &["Pattern", "N", "TP", "FP", "P", "paper N/TP/FP/P"],
            &rows,
        );
        println!(
            "\noverall: {} detected, {} true attacks, precision {:.1}% (paper: 180 / 142 / 78.9%)",
            counts.detected,
            counts.tp,
            counts.precision()
        );
    }
    println!("(paper §VI-C: with the heuristic, MBS precision rises to 80%)");
}
