//! Regenerates the **§VII threshold discussion**: relaxing the pattern
//! parameters (e.g. KRP with 3 buys instead of 5) finds more attacks but
//! admits more false positives. Sweeps each threshold over the wild
//! corpus and reports detections / TP / FP per configuration.
//!
//! ```sh
//! cargo run -p leishen-bench --bin ablation
//! ```

use leishen_bench::{print_table, WildStudy};

fn main() {
    let study = WildStudy::from_cli("ablation");

    println!("§VII — threshold ablations over the wild corpus\n");
    let rows: Vec<Vec<String>> = study
        .ablation()
        .into_iter()
        .map(|(label, s)| {
            vec![
                label,
                s.detected.to_string(),
                s.tp.to_string(),
                s.fp().to_string(),
                format!("{:.1}%", s.precision()),
            ]
        })
        .collect();
    print_table(&["configuration", "detected", "TP", "FP", "precision"], &rows);
    println!("\npaper §VII: \"If we set these parameters in a more relaxed way … the");
    println!("number of detected flpAttacks would be higher. However, the false");
    println!("positive rate would increase at the same time.\"");
}
