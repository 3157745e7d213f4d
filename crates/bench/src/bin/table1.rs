//! Regenerates **Table I**: the 22 real-world flash-loan attacks with
//! their per-pair price volatility and attack-pattern assignment, as
//! measured on the reconstructed scenarios.
//!
//! ```sh
//! cargo run -p leishen-bench --bin table1
//! ```

use leishen_bench::{known_attack_world, print_table, table4_tally, Cli};

fn main() {
    Cli::from_env().finish("table1");
    let (world, attacks) = known_attack_world();
    let symbol = |t: ethsim::TokenId| {
        world
            .chain
            .state()
            .token(t)
            .map(|i| i.symbol.clone())
            .unwrap_or_else(|_| t.to_string())
    };

    let mut rows = Vec::new();
    for t in table4_tally(&world, &attacks) {
        let vol_s = t
            .top_pair
            .map(|v| {
                format!(
                    "{}-{} ({:.3e}%)",
                    symbol(v.token_a),
                    symbol(v.token_b),
                    v.volatility_pct()
                )
            })
            .unwrap_or_else(|| "-".into());
        let spec = &t.attack.spec;
        let paper: Vec<String> = spec.patterns.iter().map(|p| p.to_string()).collect();
        let mut measured: Vec<String> =
            t.analysis.matches.iter().map(|m| m.kind.to_string()).collect();
        measured.sort();
        measured.dedup();
        rows.push(vec![
            spec.id.to_string(),
            spec.name.to_string(),
            spec.attacked_app.to_string(),
            vol_s,
            if paper.is_empty() { "-".into() } else { paper.join("+") },
            if measured.is_empty() { "-".into() } else { measured.join("+") },
        ]);
    }
    println!("Table I — real-world flash loan based attacks (Feb 2020 – Jun 2022)\n");
    print_table(
        &["ID", "Attack", "Attacked app", "Top pair volatility (measured)", "Paper patterns", "LeiShen patterns"],
        &rows,
    );
    println!(
        "\nNote: volatilities are measured on the reconstructed scenarios; the\n\
         paper's Table I magnitudes (0.5% for Harvest up to 6.5e28% for Balancer)\n\
         depend on real pool depths we approximate. Pattern assignments are the\n\
         reproduction target."
    );
}
