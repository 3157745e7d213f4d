//! Regenerates **Fig. 1**: weekly flash-loan transactions from the three
//! providers (AAVE first in Jan 2020; Uniswap from May 2020, dominant
//! thereafter; decline after Oct 2021).
//!
//! ```sh
//! cargo run -p leishen-bench --bin fig1 -- --scale 0.002
//! ```

use leishen_bench::WildStudy;

fn main() {
    // Weekly buckets per provider, from actual transaction timestamps and
    // LeiShen's own identification of the provider.
    let study = WildStudy::from_cli("fig1");
    let weekly = study.fig1();

    println!("Fig. 1 — weekly flash-loan transactions per provider (scaled ×{})", study.scale);
    println!("{:<12} {:>8} {:>6} {:>6}  chart (#=Uniswap, d=dYdX, a=AAVE)", "week of", "Uniswap", "dYdX", "AAVE");
    let max = weekly
        .values()
        .map(|s| s.iter().sum::<usize>())
        .max()
        .unwrap_or(1)
        .max(1);
    for (week, [uni, dydx, aave]) in &weekly {
        let bar_u = "#".repeat(uni * 60 / max);
        let bar_d = "d".repeat(dydx * 60 / max);
        let bar_a = "a".repeat(aave * 60 / max);
        println!(
            "{:<12} {:>8} {:>6} {:>6}  {bar_u}{bar_d}{bar_a}",
            week.start_date().to_string(),
            uni,
            dydx,
            aave
        );
    }
    let totals: [usize; 3] = weekly.values().fold([0, 0, 0], |mut acc, s| {
        for i in 0..3 {
            acc[i] += s[i];
        }
        acc
    });
    let total: usize = totals.iter().sum();
    println!(
        "\ntotals: Uniswap {} ({:.1}%), dYdX {} ({:.1}%), AAVE {} ({:.1}%)",
        totals[0],
        100.0 * totals[0] as f64 / total as f64,
        totals[1],
        100.0 * totals[1] as f64 / total as f64,
        totals[2],
        100.0 * totals[2] as f64 / total as f64
    );
    println!("paper shares: Uniswap 208,342 (76.3%), dYdX 41,741 (15.3%), AAVE 22,959 (8.4%)");
}
