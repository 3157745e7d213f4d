//! Regenerates **Table VI**: the most attacked applications, with
//! attacker / attack-contract / attacked-asset counts, and the §VI-D1
//! repeat-attack bursts.
//!
//! ```sh
//! cargo run -p leishen-bench --bin table6
//! ```

use leishen_bench::{print_table, WildStudy};

fn main() {
    let study = WildStudy::from_cli("table6");

    println!("Table VI — most attacked applications (unknown detected attacks)\n");
    let rows: Vec<Vec<String>> = study
        .table6()
        .iter()
        .take(5)
        .map(|row| {
            vec![
                row.app.to_string(),
                row.attacks.to_string(),
                row.attackers.to_string(),
                row.contracts.to_string(),
                row.assets.to_string(),
            ]
        })
        .collect();
    print_table(
        &["Attacked application", "Attacks", "Attackers", "Attack contracts", "Attacked assets"],
        &rows,
    );
    println!("\npaper top-3: Balancer 31/5/14/13, Uniswap 16/6/8/5, Yearn 11/1/1/1");

    // §VI-D1: repeated attacks happen in short bursts ("attacker 0xF224
    // launches 25 attacks in ten minutes, attacker 0x14EC launches 11
    // attacks in 40 minutes").
    println!("\nrepeat-attack bursts (same initiator, <24h apart):");
    for c in study.bursts().iter().take(3) {
        println!(
            "  {}: {} attacks within {} minutes",
            c.initiator.short(),
            c.len(),
            c.span_secs / 60
        );
    }
}
