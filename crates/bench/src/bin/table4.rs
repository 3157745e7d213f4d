//! Regenerates **Table IV**: detection of the 22 known attacks by
//! DeFiRanger, Explorer+LeiShen, and LeiShen.
//!
//! ```sh
//! cargo run -p leishen-bench --bin table4
//! ```

use leishen_bench::{known_attack_world, print_table, table4_tally, Cli, Table4};

fn main() {
    Cli::from_env().finish("table4");
    let (world, attacks) = known_attack_world();
    let tally = table4_tally(&world, &attacks);

    let mark = |b: bool| if b { "Y".to_string() } else { String::new() };
    let mut rows = Vec::new();
    for t in &tally {
        let spec = &t.attack.spec;
        let agree = t.defiranger == spec.expect_defiranger
            && t.explorer == spec.expect_explorer
            && t.leishen() == spec.expect_leishen;
        rows.push(vec![
            spec.id.to_string(),
            spec.name.to_string(),
            mark(t.defiranger),
            mark(t.explorer),
            mark(t.leishen()),
            if agree { "ok".into() } else { "MISMATCH".into() },
        ]);
    }
    let totals = Table4::of(&tally);
    let (dr_n, ex_n, ls_n) = (totals.defiranger, totals.explorer, totals.leishen);
    println!("Table IV — detection results on known flpAttacks\n");
    print_table(
        &["ID", "Attack", "DeFiRanger", "Explorer+LeiShen", "LeiShen", "vs paper"],
        &rows,
    );
    println!("\ntotals: DeFiRanger {dr_n} (paper 9), Explorer+LeiShen {ex_n} (paper 4), LeiShen {ls_n} (paper 15)");
    println!("LeiShen − DeFiRanger = {} (paper: six more)", ls_n - dr_n);
}
