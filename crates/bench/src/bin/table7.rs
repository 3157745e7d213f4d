//! Regenerates **Table VII**: yield-rate and net-profit statistics over
//! the detected attacks, measured from the attackers' on-chain flows.
//!
//! ```sh
//! cargo run -p leishen-bench --bin table7
//! ```

use leishen_bench::{print_table, WildStudy};

fn main() {
    let table = WildStudy::from_cli("table7").table7();

    let n = table.samples.len();
    println!("Table VII — attack profit analysis over {n} detected attacks\n");
    let rows: Vec<Vec<String>> = table
        .rows()
        .iter()
        .map(|(label, y, p)| vec![label.to_string(), format!("{y:.3}%"), format!("{p:.0}")])
        .collect();
    print_table(&["", "Yield rate", "Net profit ($)"], &rows);
    let total: f64 = table.samples.iter().map(|s| s.1).sum();
    println!("\ntotal profit: ${:.1}M (paper: over $21.8M)", total / 1e6);
    println!("paper row values: mean 0.3%/$3,509; min 0.003%/$23; max 2.2e5%/$6,102,198;");
    println!("top-10% $257,078; top-20% $135,522 (our distribution pins min/max and");
    println!("draws the body from a heavy-tailed lognormal — see DESIGN.md).");
}
