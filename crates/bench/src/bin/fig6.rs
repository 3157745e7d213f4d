//! Regenerates **Fig. 6**: the application-level asset-transfer
//! construction for the bZx-1 attack — account-level transfers, tags, and
//! the result of each simplification rule.
//!
//! ```sh
//! cargo run -p leishen-bench --bin fig6
//! ```

use leishen::simplify::{merge_inter_app, remove_intra_app, remove_weth_related, unify_weth_token};
use leishen::tagging::tag_transfers;
use leishen::DetectorConfig;
use leishen_scenarios::attacks::all_attacks;
use leishen_scenarios::World;

fn main() {
    leishen_bench::Cli::from_env().finish("fig6");
    let mut world = World::new();
    let attack = all_attacks()[0](&mut world); // bZx-1
    let labels = world.detector_labels();
    let view = world.view(&labels);
    let record = world.chain.replay(attack.tx).expect("recorded");
    let name = |t: ethsim::TokenId| {
        world
            .chain
            .state()
            .token(t)
            .map(|i| i.symbol.clone())
            .unwrap_or_default()
    };

    println!("Fig. 6 — constructing application-level asset transfers ({})\n", attack.spec.name);
    println!("account-level (T_i = sender, receiver, amount, token):");
    for t in &record.trace.transfers {
        println!(
            "  T{:<2} = ({}, {}, {:.4}, {})",
            t.seq,
            t.sender.short(),
            t.receiver.short(),
            world.chain.state().token(t.token).map(|i| i.to_whole(t.amount)).unwrap_or(0.0),
            name(t.token)
        );
    }

    let tagged = tag_transfers(&record.trace.transfers, view.labels(), view.creations());
    println!("\ntagged (tagT_i = tag_sender, tag_receiver, amount, token):");
    for t in &tagged {
        println!(
            "  tagT{:<2} = ({}, {}, {:.4}, {})",
            t.seq,
            t.sender,
            t.receiver,
            world.chain.state().token(t.token).map(|i| i.to_whole(t.amount)).unwrap_or(0.0),
            name(t.token)
        );
    }

    let config = DetectorConfig::paper();
    let unified = unify_weth_token(&tagged, view.weth());
    let s1 = remove_intra_app(&unified);
    let s2 = remove_weth_related(&s1);
    let app = merge_inter_app(&s2, config.merge_tolerance);
    println!("\nafter rule 1 (remove intra-app):     {} transfers", s1.len());
    println!("after rule 2 (remove WETH-related):  {} transfers", s2.len());
    println!("after rule 3 (merge inter-app):      {} transfers", app.len());
    println!("\napplication-level (appT_i):");
    for t in &app {
        println!(
            "  appT{:<2} = ({}, {}, {:.4}, {})",
            t.seq,
            t.sender,
            t.receiver,
            world.chain.state().token(t.token).map(|i| i.to_whole(t.amount)).unwrap_or(0.0),
            name(t.token)
        );
    }
    println!("\n(The Kyber pass-through of the 112 WBTC dump has been merged; the");
    println!("attack contract and attacker EOA share one creation-root identity.)");
}
