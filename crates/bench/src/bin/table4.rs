//! Regenerates **Table IV**: detection of the 22 known attacks by
//! DeFiRanger, Explorer+LeiShen, and LeiShen.
//!
//! ```sh
//! cargo run -p leishen-bench --bin table4
//! ```

use leishen_bench::{known_attack_world, print_table, table4_tally};

fn main() {
    let (world, attacks) = known_attack_world();
    let tally = table4_tally(&world, &attacks);

    let mark = |b: bool| if b { "Y".to_string() } else { String::new() };
    let mut rows = Vec::new();
    for t in &tally {
        let spec = &t.attack.spec;
        let agree = t.defiranger == spec.expect_defiranger
            && t.explorer == spec.expect_explorer
            && t.leishen == spec.expect_leishen;
        rows.push(vec![
            spec.id.to_string(),
            spec.name.to_string(),
            mark(t.defiranger),
            mark(t.explorer),
            mark(t.leishen),
            if agree { "ok".into() } else { "MISMATCH".into() },
        ]);
    }
    let dr_n = tally.iter().filter(|t| t.defiranger).count();
    let ex_n = tally.iter().filter(|t| t.explorer).count();
    let ls_n = tally.iter().filter(|t| t.leishen).count();
    println!("Table IV — detection results on known flpAttacks\n");
    print_table(
        &["ID", "Attack", "DeFiRanger", "Explorer+LeiShen", "LeiShen", "vs paper"],
        &rows,
    );
    println!("\ntotals: DeFiRanger {dr_n} (paper 9), Explorer+LeiShen {ex_n} (paper 4), LeiShen {ls_n} (paper 15)");
    println!("LeiShen − DeFiRanger = {} (paper: six more)", ls_n - dr_n);
}
