//! Regenerates **Table II**: the functions and events that identify flash
//! loan transactions per provider — verified live against the substrate by
//! executing one flash loan per provider and showing what the identifier
//! saw.
//!
//! ```sh
//! cargo run -p leishen-bench --bin table2
//! ```

use ethsim::TokenId;
use leishen::flashloan::Provider;
use leishen_bench::{print_table, Cli};
use leishen_scenarios::benign::plain_loan;
use leishen_scenarios::World;

fn main() {
    Cli::from_env().finish("table2");
    let mut world = World::new();
    println!("Table II — functions and events used by flash loan transactions\n");

    let mut rows = Vec::new();
    for provider in [Provider::Uniswap, Provider::Aave, Provider::Dydx] {
        let (eoa, contract) = world.create_attacker(&format!("{provider} prober"));
        let tx = plain_loan(&mut world, provider, eoa, contract);
        let record = world.chain.replay(tx).expect("recorded");
        assert!(record.status.is_success());
        let loans = leishen::identify_flash_loans(record);
        assert_eq!(loans.len(), 1, "{provider}: exactly one loan identified");
        let functions: Vec<&str> = record
            .trace
            .frames
            .iter()
            .map(|f| f.function.as_str())
            .filter(|f| {
                matches!(
                    *f,
                    "swap" | "uniswapV2Call" | "flashLoan" | "executeOperation" | "operate"
                        | "withdraw" | "callFunction"
                )
            })
            .collect();
        let events: Vec<&str> = record
            .trace
            .logs
            .iter()
            .map(|l| l.name.as_str())
            .filter(|l| {
                matches!(
                    *l,
                    "FlashLoan" | "LogOperation" | "LogWithdraw" | "LogCall" | "LogDeposit"
                )
            })
            .collect();
        rows.push(vec![
            provider.to_string(),
            functions.join(", "),
            if events.is_empty() {
                "-".into()
            } else {
                events.join(", ")
            },
            format!("identified as {}", loans[0].provider),
        ]);
        let _ = TokenId::ETH;
    }
    print_table(&["Provider", "Functions observed", "Events observed", "Identifier"], &rows);
    println!("\npaper Table II: Uniswap = swap + uniswapV2Call; AAVE = flashLoan / FlashLoan;");
    println!("dYdX = Operate, Withdraw, callFunction, Deposit with the four Log* events.");
}
