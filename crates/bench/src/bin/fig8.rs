//! Regenerates **Fig. 8**: monthly *unknown* flpAttacks detected in the
//! wild (first attack June 2020; surge Aug 2020 – Feb 2021; 2020 average
//! 6.5/month vs 2021's 4.3/month).
//!
//! ```sh
//! cargo run -p leishen-bench --bin fig8
//! ```

use leishen_bench::WildStudy;

fn main() {
    let fig8 = WildStudy::from_cli("fig8").fig8();

    println!("Fig. 8 — monthly unknown flpAttacks detected\n");
    let max = fig8.monthly.values().max().copied().unwrap_or(1).max(1);
    for (month, n) in &fig8.monthly {
        println!("{:<8} {:>3}  {}", month.label(), n, "#".repeat(n * 50 / max));
    }
    let y2020 = fig8.year(2020);
    let y2021 = fig8.year(2021);
    println!("\n2020: {} attacks over 7 active months (avg {:.1}/mo; paper 6.5)", y2020, y2020 as f64 / 7.0);
    println!("2021: {} attacks (avg {:.1}/mo; paper 4.3)", y2021, y2021 as f64 / 12.0);
    println!("total unknown attacks: {} (paper: 109)", fig8.total());
}
