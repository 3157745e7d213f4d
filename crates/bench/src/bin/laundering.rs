//! Regenerates the **§VI-D2 attacker-behavior findings**: after an attack,
//! profits leave through multi-level intermediary chains and coin-mixing
//! services; `selfdestruct` hides nothing because history replays.
//!
//! Runs the bZx-1 attack, executes the laundering follow-up, and traces
//! every profit exit with `leishen::forensics`.
//!
//! ```sh
//! cargo run -p leishen-bench --bin laundering
//! ```

use std::collections::HashSet;

use leishen::forensics::{trace_exits, ExitKind};
use leishen_bench::{print_table, Cli};
use leishen_scenarios::attacks::all_attacks;
use leishen_scenarios::laundering::launder_profit;
use leishen_scenarios::World;

fn main() {
    Cli::from_env().finish("laundering");
    let mut world = World::new();
    let attack = all_attacks()[0](&mut world); // bZx-1
    let profit_wei = world.chain.state().eth_balance(attack.attacker);
    println!(
        "attack executed: {} — attacker holds {:.1} ETH of profit",
        attack.spec.name,
        profit_wei as f64 / 1e18
    );

    // The §VI-D2 behaviors: selfdestruct the contract, launder the profit.
    let contract = attack.contract;
    let attacker = attack.attacker;
    world.execute(attacker, contract, "selfdestruct", |ctx| {
        ctx.self_destruct(contract)
    });
    let notes = (profit_wei / world.tornado.denomination).min(3) as u32;
    let outcome = launder_profit(&mut world, attacker, 3, notes);
    println!(
        "laundering executed: {} hops, {} mixer notes, {:.1} ETH direct cash-out\n",
        outcome.intermediaries.len(),
        notes,
        outcome.direct_amount as f64 / 1e18
    );

    // Forensics: trace everything that left the attacker cluster after the
    // attack transaction.
    let labels = world.detector_labels();
    let view = world.view(&labels);
    let cluster: HashSet<_> = [attacker, contract].into_iter().collect();
    let follow_ups: Vec<&ethsim::TxRecord> = world
        .chain
        .transactions()
        .iter()
        .filter(|t| t.id.0 > attack.tx.0)
        .collect();
    let exits = trace_exits(
        &follow_ups,
        &cluster,
        view.labels(),
        view.creations(),
        &["Tornado Cash"],
    );

    let rows: Vec<Vec<String>> = exits
        .iter()
        .map(|e| {
            vec![
                format!("{:?}", e.kind),
                e.sink.short(),
                e.sink_tag.to_string(),
                format!("{:.1} ETH", e.amount as f64 / 1e18),
                e.path
                    .iter()
                    .map(|a| a.short())
                    .collect::<Vec<_>>()
                    .join(" -> "),
            ]
        })
        .collect();
    print_table(&["exit kind", "sink", "sink tag", "amount", "path"], &rows);

    let mixed: u128 = exits
        .iter()
        .filter(|e| e.kind == ExitKind::CoinMixer)
        .map(|e| e.amount)
        .sum();
    let layered = exits
        .iter()
        .any(|e| matches!(e.kind, ExitKind::MultiLevel { .. }) || e.path.len() > 1);
    println!("\nmixer-bound: {:.1} ETH; multi-level chains observed: {layered}", mixed as f64 / 1e18);

    // The paper's point about selfdestruct: history still replays.
    let record = world.chain.replay(attack.tx).expect("history is immutable");
    println!(
        "selfdestructed contract — attack still replayable: {} transfers, status {:?}",
        record.trace.transfers.len(),
        record.status
    );
}
