//! Property-based tests over the substrate and detector invariants
//! (proptest). These are the invariants DESIGN.md commits to:
//!
//! * amount math never panics and satisfies algebraic identities,
//! * the constant-product invariant never decreases across random swaps,
//! * transaction revert restores the world state exactly,
//! * account tagging is independent of insertion order,
//! * simplification preserves per-identity net flows (absent WETH) and is
//!   idempotent,
//! * pattern matches survive irrelevant-trade interleaving,
//! * calendar conversion round-trips,
//! * the record validator reports exactly what its sort-based
//!   predecessor reported, on clean, chaos-corrupted and perturbed
//!   records.

use proptest::prelude::*;

use ethsim::calendar::Date;
use ethsim::{math, Address, Chain, ChainConfig, CreationIndex, CreationRecord, TokenId};
use leishen::config::DetectorConfig;
use leishen::simplify::{merge_inter_app, remove_intra_app};
use leishen::tagging::{Tag, TagMap, TaggedTransfer};
use leishen::trades::{identify_trades, Trade, TradeKind, TradeSide};
use leishen::tagging::tag_of;
use leishen::{patterns, Labels, LocalTagCache, TagCache};

/// The random creation-forest family of the tagging properties: the
/// addresses `1000..1000 + chain + 20`. The first `chain` form one chain
/// (each created by the one before; the properties draw chains up to 158
/// levels deep); each of the other 20 is created by a seed-chosen earlier
/// address. Every `spacing`-th address carries one of three app names, the
/// next name at each labelled address, so dense labels on a chain conflict
/// and sparse ones leave single-name and unlabelled trees.
fn creation_forest(
    seed: u64,
    chain: u64,
    spacing: u64,
) -> (Vec<Address>, Labels, Vec<CreationRecord>) {
    let mut records = Vec::new();
    let mut labels = Labels::new();
    let mut addrs = Vec::new();
    for i in 0..chain + 20 {
        let a = Address::from_u64(1000 + i);
        addrs.push(a);
        if i > 0 {
            let parent = if i < chain { i - 1 } else { (seed + i) % i };
            let creator = Address::from_u64(1000 + parent);
            records.push(CreationRecord {
                creator,
                created: a,
                block: 0,
            });
        }
        if (seed + i).is_multiple_of(spacing) {
            labels.set(a, format!("App{}", (seed + i) / spacing % 3));
        }
    }
    (addrs, labels, records)
}

/// `tag_of` as it stood before it became one early-exit walk, kept
/// verbatim as the reference the current implementation must equal: it
/// collects every ancestor and every descendant into vectors, then the
/// distinct app names among them.
mod vec_collecting {
    use std::sync::Arc;

    use super::*;

    pub fn ancestors(creations: &CreationIndex, addr: Address) -> Vec<Address> {
        let mut out = Vec::new();
        let mut cur = addr;
        // Creation graphs are trees (an address is created once); the loop
        // bound still guards against corrupted inputs.
        for _ in 0..1024 {
            match creations.parent(cur) {
                Some(p) => {
                    out.push(p);
                    cur = p;
                }
                None => break,
            }
        }
        out
    }

    fn root(creations: &CreationIndex, addr: Address) -> Address {
        ancestors(creations, addr).last().copied().unwrap_or(addr)
    }

    pub fn descendants(creations: &CreationIndex, addr: Address) -> Vec<Address> {
        let mut out = Vec::new();
        let mut stack: Vec<Address> = creations.children(addr).to_vec();
        stack.reverse();
        while let Some(next) = stack.pop() {
            out.push(next);
            let kids = creations.children(next);
            for k in kids.iter().rev() {
                stack.push(*k);
            }
        }
        out
    }

    pub fn tag_of(addr: Address, labels: &Labels, creations: &CreationIndex) -> Tag {
        if addr.is_zero() {
            return Tag::BlackHole;
        }
        if let Some(app) = labels.get(addr) {
            return Tag::App(Arc::from(app));
        }
        // Collect distinct app names among ancestors and descendants. Names
        // are borrowed from the label cloud; only the winning one is interned.
        fn push<'a>(found: &mut Vec<&'a str>, name: &'a str) {
            if !found.contains(&name) {
                found.push(name);
            }
        }
        let mut found: Vec<&str> = Vec::new();
        for anc in ancestors(creations, addr) {
            if let Some(app) = labels.get(anc) {
                push(&mut found, app);
            }
        }
        for desc in descendants(creations, addr) {
            if let Some(app) = labels.get(desc) {
                push(&mut found, app);
            }
        }
        match found.len() {
            1 => Tag::App(Arc::from(found[0])),
            0 => Tag::Root(root(creations, addr)),
            _ => Tag::Unknown(addr),
        }
    }
}

/// The distinct app names among `walk`'s addresses, first seen first.
fn distinct_names(labels: &Labels, walk: impl Iterator<Item = Address>) -> Vec<&str> {
    let mut names = Vec::new();
    for name in walk.filter_map(|a| labels.get(a)) {
        if !names.contains(&name) {
            names.push(name);
        }
    }
    names
}

#[test]
fn creation_forest_family_reaches_every_fig7_case() {
    // The forests the tagging properties draw from must exercise what the
    // reference comparison is for: chains deeper than 64 levels, conflicts
    // settled by the second name inside the ancestor walk and inside the
    // descendant walk, and propagated and root tags next to them.
    let (mut deep, mut second_above, mut second_below) = (false, false, false);
    let (mut propagated, mut rooted) = (false, false);
    for seed in 0..20 {
        for (chain, spacing) in [(0, 5), (100, 7), (150, 30), (80, 60)] {
            let (addrs, labels, records) = creation_forest(seed, chain, spacing);
            let idx = CreationIndex::new(&records);
            for &a in addrs.iter().filter(|&&a| labels.get(a).is_none()) {
                deep |= idx.ancestors(a).count() > 64;
                let above = distinct_names(&labels, idx.ancestors(a)).len();
                let related = idx.ancestors(a).chain(idx.descendants(a));
                let all = distinct_names(&labels, related).len();
                second_above |= above >= 2;
                second_below |= above <= 1 && all >= 2;
                match tag_of(a, &labels, &idx) {
                    Tag::App(_) => propagated = true,
                    Tag::Root(_) => rooted = true,
                    _ => {}
                }
            }
        }
    }
    assert!(deep, "no chain deeper than 64 levels");
    assert!(second_above, "no conflict inside the ancestor walk");
    assert!(second_below, "no conflict inside the descendant walk");
    assert!(
        propagated && rooted,
        "propagated {propagated} rooted {rooted}"
    );
}

proptest! {
    #[test]
    fn mul_div_identity(a in 0u128..u128::MAX, b in 1u128..u128::MAX) {
        // a * b / b == a, whatever the magnitudes.
        prop_assert_eq!(math::mul_div(a, b, b).unwrap(), a);
    }

    #[test]
    fn mul_div_floor_bound(a in 0u128..1u128<<100, b in 0u128..1u128<<100, d in 1u128..1u128<<90) {
        let q = math::mul_div(a, b, d);
        if let Ok(q) = q {
            // q*d <= a*b < (q+1)*d  (floor property), checked via mul_div
            // round-trip: (q*d)/b <= a when b > 0.
            if b > 0 && q > 0 {
                let back = math::mul_div(q, d, b).unwrap();
                prop_assert!(back <= a);
            }
        }
    }

    #[test]
    fn isqrt_is_floor_sqrt(n in 0u128..u128::MAX) {
        let r = math::isqrt(n);
        prop_assert!(r.checked_mul(r).map(|v| v <= n).unwrap_or(false) || r == 0 && n == 0);
        if let Some(next) = r.checked_add(1) {
            prop_assert!(next.checked_mul(next).map(|v| v > n).unwrap_or(true));
        }
    }

    #[test]
    fn sqrt_mul_floor(a in 0u128..1u128<<120, b in 0u128..1u128<<120) {
        let r = math::sqrt_mul(a, b);
        // r² ≤ a·b — verified in 256-bit space via mul_div: if r > 0 then
        // (a·b)/r ≥ r.
        if r > 0 {
            let q = math::mul_div(a, b, r).unwrap();
            prop_assert!(q >= r);
        }
    }

    #[test]
    fn calendar_roundtrip(days in 0u64..40_000) {
        let ts = days * 86_400;
        let d = Date::from_unix(ts);
        prop_assert_eq!(d.to_unix(), ts);
        prop_assert!((1..=12).contains(&d.month));
        prop_assert!((1..=31).contains(&d.day));
    }

    #[test]
    fn revert_restores_state_exactly(
        ops in prop::collection::vec((0u8..4, 0u128..1_000_000), 1..40)
    ) {
        let mut chain = Chain::new(ChainConfig::default());
        let a = chain.create_eoa("a");
        let b = chain.create_eoa("b");
        chain.state_mut().credit_eth(a, 10_000_000).unwrap();
        let tok = chain.state_mut().register_token("T", 18, Address::from_seed("t"));
        chain.state_mut().commit();

        let before_a = chain.state().eth_balance(a);
        let before_b = chain.state().eth_balance(b);
        let before_supply = chain.state().total_supply(tok);

        // A transaction that performs arbitrary ops then always reverts.
        let tx = chain.execute(a, b, "chaos", |ctx| {
            for (op, amt) in &ops {
                let amt = *amt;
                match op {
                    0 => { let _ = ctx.transfer_eth(a, b, amt % 1000); }
                    1 => { let _ = ctx.mint_token(tok, b, amt); }
                    2 => { let _ = ctx.burn_token(tok, b, amt); }
                    _ => {
                        let c = ctx.create_contract(a)?;
                        ctx.sstore(c, ethsim::SKey::Field(0), amt);
                    }
                }
            }
            Err(ethsim::SimError::revert("always"))
        }).unwrap();

        prop_assert!(!chain.replay(tx).unwrap().status.is_success());
        prop_assert_eq!(chain.state().eth_balance(a), before_a);
        prop_assert_eq!(chain.state().eth_balance(b), before_b);
        prop_assert_eq!(chain.state().balance(tok, b), 0);
        prop_assert_eq!(chain.state().total_supply(tok), before_supply);
    }

    #[test]
    fn constant_product_never_decreases(
        swaps in prop::collection::vec((any::<bool>(), 1u64..1_000), 1..25)
    ) {
        use defi::{LabelService, UniswapV2Factory, UniswapV2Pair};
        let mut chain = Chain::new(ChainConfig::default());
        let mut labels = LabelService::new();
        let deployer = chain.create_eoa("d");
        let trader = chain.create_eoa("t");
        let factory = UniswapV2Factory::deploy_canonical(&mut chain, &mut labels, deployer).unwrap();
        let mut tok = None;
        chain.execute(deployer, deployer, "tok", |ctx| {
            let c = ctx.create_contract(deployer)?;
            tok = Some(ctx.register_token("X", 18, c));
            Ok(())
        }).unwrap();
        let tok = tok.unwrap();
        let pair = UniswapV2Pair::deploy(&mut chain, &factory, TokenId::ETH, tok, "LP").unwrap();
        let e15 = 10u128.pow(15);
        chain.state_mut().credit_eth(trader, 10_000_000 * e15).unwrap();
        chain.state_mut().credit_eth(deployer, 10_000_000 * e15).unwrap();
        chain.execute(deployer, pair.address, "seed", |ctx| {
            ctx.mint_token(tok, deployer, 2_000_000 * e15)?;
            ctx.mint_token(tok, trader, 2_000_000 * e15)?;
            pair.add_liquidity(ctx, deployer, 1_000_000 * e15, 1_000_000 * e15)?;
            Ok(())
        }).unwrap();

        let mut k_before = 0f64;
        chain.execute(trader, pair.address, "k0", |ctx| {
            let (r0, r1) = pair.reserves(ctx);
            k_before = r0 as f64 * r1 as f64;
            Ok(())
        }).unwrap();

        chain.execute(trader, pair.address, "swaps", |ctx| {
            for (dir, amt) in &swaps {
                let amount = *amt as u128 * e15;
                let token_in = if *dir { TokenId::ETH } else { tok };
                // ignore failures from exhausted balances
                let _ = pair.swap_exact_in(ctx, trader, token_in, amount, 0);
            }
            Ok(())
        }).unwrap();

        let mut k_after = 0f64;
        chain.execute(trader, pair.address, "k1", |ctx| {
            let (r0, r1) = pair.reserves(ctx);
            k_after = r0 as f64 * r1 as f64;
            Ok(())
        }).unwrap();
        prop_assert!(k_after >= k_before * 0.999_999, "k {k_before} -> {k_after}");
    }

    #[test]
    fn tagging_is_order_independent(
        seed in 0u64..1_000,
        chain in 0u64..160,
        spacing in 2u64..40
    ) {
        // A random creation forest + labels; TagMap::build must not depend
        // on the iteration order of addresses.
        let (addrs, labels, records) = creation_forest(seed, chain, spacing);
        let idx = CreationIndex::new(&records);
        let forward = TagMap::build(addrs.clone(), &labels, &idx);
        let mut reversed_addrs = addrs.clone();
        reversed_addrs.reverse();
        let reversed = TagMap::build(reversed_addrs, &labels, &idx);
        for a in addrs {
            prop_assert_eq!(forward.get(a), reversed.get(a));
        }
    }

    #[test]
    fn tag_of_matches_the_vec_collecting_reference(
        seed in 0u64..1_000,
        chain in 0u64..160,
        spacing in 2u64..40
    ) {
        // The single early-exit walk must give the tag the old
        // collect-everything algorithm gives, on every address of the
        // forest, the black hole, and an address the forest lacks; and
        // the walkers must visit what the old vectors held, in order.
        let (addrs, labels, records) = creation_forest(seed, chain, spacing);
        let idx = CreationIndex::new(&records);
        let outside = Address::from_u64(99);
        for a in addrs.into_iter().chain([Address::ZERO, outside]) {
            prop_assert_eq!(
                tag_of(a, &labels, &idx),
                vec_collecting::tag_of(a, &labels, &idx),
                "address {:?}", a
            );
            prop_assert!(idx.ancestors(a).eq(vec_collecting::ancestors(&idx, a)));
            prop_assert!(idx.descendants(a).eq(vec_collecting::descendants(&idx, a)));
        }
    }

    #[test]
    fn tag_cache_agrees_with_uncached_resolution(
        seed in 0u64..1_000,
        chain in 0u64..160,
        spacing in 2u64..40
    ) {
        // Arbitrary creation forest + labels (same family of forests as
        // `tagging_is_order_independent`): the shared TagCache must be a
        // pure memo over `tag_of` — every resolution, miss or hit,
        // identical to a fresh creation-tree walk.
        let (forest, labels, records) = creation_forest(seed, chain, spacing);
        let mut addrs = vec![Address::ZERO];
        addrs.extend(forest);
        let idx = CreationIndex::new(&records);
        let cache = TagCache::new();
        // Two passes: the first fills the cache (misses), the second
        // answers from it (hits); both must agree with the uncached walk.
        for pass in 0..2 {
            for &a in &addrs {
                prop_assert_eq!(
                    cache.resolve(a, &labels, &idx),
                    tag_of(a, &labels, &idx),
                    "pass {} address {:?}", pass, a
                );
            }
        }
        // Second-pass lookups were all cache hits (the zero address
        // bypasses the table entirely).
        prop_assert_eq!(cache.hits(), addrs.len() as u64 - 1);
        prop_assert_eq!(cache.misses(), addrs.len() as u64 - 1);
    }

    #[test]
    fn concurrent_fronts_fill_each_slot_exactly_once(
        seed in 0u64..1_000,
        chain in 0u64..160,
        spacing in 2u64..40
    ) {
        // Four threads (more than a small host runs at once), each with
        // its own front over one cache, resolve the whole forest from
        // staggered starting points, plus the zero address and an account
        // outside the index. Whatever the interleaving, every tag equals
        // `tag_of`, each indexed account is computed exactly once, and
        // every indexed lookup is a hit or a miss; the two unindexed ones
        // are neither.
        let (forest, labels, records) = creation_forest(seed, chain, spacing);
        let idx = CreationIndex::new(&records);
        let expected: Vec<Tag> = forest.iter().map(|&a| tag_of(a, &labels, &idx)).collect();
        let outside = [Address::ZERO, Address::from_u64(99)];
        let cache = TagCache::new();
        let start = std::sync::Barrier::new(4);
        let n = forest.len();
        let agreed = std::thread::scope(|s| {
            let threads: Vec<_> = (0..4)
                .map(|t| {
                    let (forest, labels, idx) = (&forest, &labels, &idx);
                    let (expected, cache, start) = (&expected, &cache, &start);
                    s.spawn(move || {
                        let mut front = LocalTagCache::new(cache);
                        start.wait();
                        let indexed = (0..n).all(|k| {
                            let i = (t * n / 4 + k) % n;
                            front.resolve(forest[i], labels, idx) == expected[i]
                        });
                        indexed
                            && outside
                                .iter()
                                .all(|&a| front.resolve(a, labels, idx) == tag_of(a, labels, idx))
                    })
                })
                .collect();
            threads.into_iter().all(|t| t.join().expect("resolver thread"))
        });
        prop_assert!(agreed);
        prop_assert_eq!(cache.misses(), n as u64);
        prop_assert_eq!(cache.hits() + cache.misses(), 4 * n as u64);
        prop_assert_eq!(cache.len(), n);
    }

    #[test]
    fn merge_is_idempotent(
        amounts in prop::collection::vec(1u128..1_000_000, 2..20),
        seed in 0u64..100
    ) {
        // Arbitrary chains of transfers between a handful of identities.
        let tags: Vec<Tag> = (0..5).map(|i| Tag::App(format!("A{i}").into())).collect();
        let list: Vec<TaggedTransfer> = amounts.iter().enumerate().map(|(i, amt)| {
            let s = ((seed as usize) + i) % tags.len();
            let r = ((seed as usize) + i + 1 + i % 3) % tags.len();
            TaggedTransfer {
                seq: i as u32,
                sender: tags[s].clone(),
                receiver: tags[r].clone(),
                amount: *amt,
                token: TokenId::from_index((i % 3) as u32),
            }
        }).filter(|t| t.sender != t.receiver).collect();
        let once = merge_inter_app(&list, 0.001);
        let twice = merge_inter_app(&once, 0.001);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn full_simplification_is_idempotent(
        amounts in prop::collection::vec(1u128..1_000_000, 2..25),
        seed in 0u64..100
    ) {
        use leishen::simplify::simplify;
        let mut tags: Vec<Tag> = (0..4).map(|i| Tag::App(format!("A{i}").into())).collect();
        tags.push(Tag::App("Wrapped Ether".into()));
        tags.push(Tag::BlackHole);
        let list: Vec<TaggedTransfer> = amounts.iter().enumerate().map(|(i, amt)| {
            let s = ((seed as usize) + i * 3) % tags.len();
            let r = ((seed as usize) + i * 5 + 1) % tags.len();
            TaggedTransfer {
                seq: i as u32,
                sender: tags[s].clone(),
                receiver: tags[r].clone(),
                amount: *amt,
                token: TokenId::from_index((i % 3) as u32),
            }
        }).collect();
        let config = DetectorConfig::paper();
        let weth = Some(TokenId::from_index(2));
        let once = simplify(&list, weth, &config);
        let twice = simplify(&once, weth, &config);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn intra_app_removal_preserves_cross_identity_nets(
        amounts in prop::collection::vec(1u128..1_000_000, 2..30),
        seed in 0u64..100
    ) {
        let tags: Vec<Tag> = (0..4).map(|i| Tag::App(format!("A{i}").into())).collect();
        let list: Vec<TaggedTransfer> = amounts.iter().enumerate().map(|(i, amt)| {
            let s = ((seed as usize) + i) % tags.len();
            let r = ((seed as usize) * 3 + i * 7) % tags.len();
            TaggedTransfer {
                seq: i as u32,
                sender: tags[s].clone(),
                receiver: tags[r].clone(),
                amount: *amt,
                token: TokenId::ETH,
            }
        }).collect();
        let net = |transfers: &[TaggedTransfer], tag: &Tag| -> i128 {
            transfers.iter().map(|t| {
                let mut v = 0i128;
                if &t.receiver == tag { v += t.amount as i128; }
                if &t.sender == tag { v -= t.amount as i128; }
                v
            }).sum()
        };
        let cleaned = remove_intra_app(&list);
        for tag in &tags {
            prop_assert_eq!(net(&list, tag), net(&cleaned, tag));
        }
    }

    #[test]
    fn patterns_survive_irrelevant_interleaving(noise_count in 0usize..10) {
        // A fixed SBS instance with `noise_count` unrelated trades mixed in
        // between must still (and only) match SBS on the target pair.
        let e = Tag::App("E".into());
        let v = Tag::App("V".into());
        let noise_seller = Tag::App("N".into());
        let mk = |seq: u32, sells: (u128, u32), buys: (u128, u32)| Trade {
            seq,
            kind: TradeKind::Swap,
            buyer: e.clone(),
            seller: v.clone(),
            sells: TradeSide::one(sells.0, TokenId::from_index(sells.1)),
            buys: TradeSide::one(buys.0, TokenId::from_index(buys.1)),
        };
        let mut trades = vec![
            mk(0, (100_000, 0), (100, 1)),  // buy 100 @1000
            mk(10, (20_000, 0), (10, 1)),   // pump @2000
            mk(20, (100, 1), (150_000, 0)), // sell 100 @1500
        ];
        for i in 0..noise_count {
            trades.push(Trade {
                seq: 1 + i as u32, // interleaved between t1 and t2
                kind: TradeKind::Swap,
                buyer: e.clone(),
                seller: noise_seller.clone(),
                sells: TradeSide::one(7 + i as u128, TokenId::from_index(5)),
                buys: TradeSide::one(13 + i as u128, TokenId::from_index(6 + (i % 2) as u32)),
            });
        }
        let matches = patterns::match_all(&trades, &e, &DetectorConfig::paper());
        prop_assert!(
            matches.iter().any(|m| m.kind == patterns::PatternKind::Sbs
                && m.target_token == TokenId::from_index(1)),
            "{matches:?}"
        );
        prop_assert!(!matches.iter().any(|m| m.kind == patterns::PatternKind::Krp));
    }

    #[test]
    fn trade_identification_never_invents_value(
        amounts in prop::collection::vec(1u128..1_000_000, 2..20),
        seed in 0u64..50
    ) {
        // Every trade leg's amounts must come from actual transfers.
        let tags: Vec<Tag> = (0..4).map(|i| Tag::App(format!("A{i}").into())).collect();
        let list: Vec<TaggedTransfer> = amounts.iter().enumerate().map(|(i, amt)| {
            let s = ((seed as usize) + i) % tags.len();
            let r = ((seed as usize) + i * 5 + 1) % tags.len();
            TaggedTransfer {
                seq: i as u32,
                sender: tags[s].clone(),
                receiver: tags[r].clone(),
                amount: *amt,
                token: TokenId::from_index((i % 4) as u32),
            }
        }).filter(|t| t.sender != t.receiver).collect();
        let trades = identify_trades(&list);
        let transfer_amounts: std::collections::HashSet<u128> =
            list.iter().map(|t| t.amount).collect();
        for trade in &trades {
            for (amt, _) in trade.sells.iter().chain(trade.buys.iter()) {
                prop_assert!(transfer_amounts.contains(amt));
            }
        }
    }
}

// Properties of the fuzzing module's renaming operator: renaming an
// entire case is a bijection whose image resolves to the same tags, and
// neither the shared tag cache nor simplification can tell renamed
// histories apart structurally.
proptest! {
    #[test]
    fn renaming_preserves_tags_and_cache_coherence(
        seed in 0u64..500,
        chain in 0u64..160,
        spacing in 2u64..40,
        salt in 0u64..1_000
    ) {
        use leishen::fuzz::{rename_case, FuzzCase};

        // The same random creation-forest family the tagging properties
        // use, packaged as a (transaction-free) fuzz case.
        let (_, labels, records) = creation_forest(seed, chain, spacing);
        let case = FuzzCase {
            txs: Vec::new(),
            labels,
            creations: records,
            weth: None,
        };
        let (renamed, pairs) = rename_case(&case, salt);

        // The mapping is an injection into fresh, non-zero addresses.
        let mut fresh = std::collections::HashSet::new();
        for (old, new) in &pairs {
            prop_assert!(!new.is_zero());
            prop_assert!(fresh.insert(*new), "address {new:?} assigned twice");
            prop_assert_ne!(old, new);
        }

        // Tag isomorphism: every renamed address carries the tag of its
        // pre-image with embedded root addresses mapped through the same
        // bijection (label strings are preserved, only addresses move).
        let addr_map: std::collections::HashMap<Address, Address> =
            pairs.iter().copied().collect();
        let rename_tag = |t: Tag| -> Tag {
            match t {
                Tag::Root(a) => Tag::Root(addr_map.get(&a).copied().unwrap_or(a)),
                Tag::Unknown(a) => Tag::Unknown(addr_map.get(&a).copied().unwrap_or(a)),
                other => other,
            }
        };
        let old_idx = CreationIndex::new(&case.creations);
        let new_idx = CreationIndex::new(&renamed.creations);
        for (old, new) in &pairs {
            prop_assert_eq!(
                rename_tag(tag_of(*old, &case.labels, &old_idx)),
                tag_of(*new, &renamed.labels, &new_idx),
                "tag drifted across renaming for {:?} -> {:?}", old, new
            );
        }

        // Cache coherence on the renamed forest: the shared TagCache is
        // still a pure memo over `tag_of` after renaming, on misses and
        // hits alike.
        let cache = TagCache::new();
        for pass in 0..2 {
            for (_, new) in &pairs {
                prop_assert_eq!(
                    cache.resolve(*new, &renamed.labels, &new_idx),
                    tag_of(*new, &renamed.labels, &new_idx),
                    "pass {} address {:?}", pass, new
                );
            }
        }
    }

    #[test]
    fn simplification_commutes_with_token_renaming(
        amounts in prop::collection::vec(1u128..1_000_000, 2..25),
        seed in 0u64..100,
        salt in 1u32..50
    ) {
        use leishen::simplify::simplify;

        // The same transfer family as `full_simplification_is_idempotent`,
        // plus a token bijection shaped like the renaming operator's (ETH
        // fixed, everything else moved past the highest observed index).
        let mut tags: Vec<Tag> = (0..4).map(|i| Tag::App(format!("A{i}").into())).collect();
        tags.push(Tag::App("Wrapped Ether".into()));
        tags.push(Tag::BlackHole);
        let list: Vec<TaggedTransfer> = amounts.iter().enumerate().map(|(i, amt)| {
            let s = ((seed as usize) + i * 3) % tags.len();
            let r = ((seed as usize) + i * 5 + 1) % tags.len();
            TaggedTransfer {
                seq: i as u32,
                sender: tags[s].clone(),
                receiver: tags[r].clone(),
                amount: *amt,
                token: TokenId::from_index((i % 3) as u32),
            }
        }).collect();
        let remap = |t: TokenId| -> TokenId {
            if t.is_eth() { t } else { TokenId::from_index(t.index() as u32 + 3 + salt) }
        };
        let renamed: Vec<TaggedTransfer> = list.iter().map(|t| TaggedTransfer {
            token: remap(t.token),
            ..t.clone()
        }).collect();

        let config = DetectorConfig::paper();
        let weth = Some(TokenId::from_index(2));
        let renamed_weth = weth.map(remap);

        // Idempotence survives the renaming...
        let once = simplify(&renamed, renamed_weth, &config);
        let twice = simplify(&once, renamed_weth, &config);
        prop_assert_eq!(&once, &twice);

        // ...and simplification commutes with it: renaming the simplified
        // original yields the simplified renamed history.
        let baseline: Vec<TaggedTransfer> = simplify(&list, weth, &config)
            .iter()
            .map(|t| TaggedTransfer { token: remap(t.token), ..t.clone() })
            .collect();
        prop_assert_eq!(once, baseline);
    }
}

// Chunking identity: the multi-worker engine only splits per-transaction
// work into input-order chunks, so on ANY corpus — whatever the creation
// forest, transfer graph, or label placement — it must produce
// byte-identical analyses to a serial scan. The same holds on the
// resilient path with corrupted records present: chunking must not change
// which transactions get quarantined, nor the analyses of the healthy
// ones.
proptest! {
    #[test]
    fn chunked_scan_matches_serial_on_arbitrary_corpora(
        seed in 0u64..500,
        specs in prop::collection::vec(
            (0usize..20, 0usize..20, 1u128..1_000_000, 0u32..3),
            1..32
        ),
    ) {
        use ethsim::{Transfer, TxId, TxRecord, TxStatus, TxTrace};
        use leishen::{ChainView, LeiShen, ResilienceConfig, ScanEngine};

        // The random creation-forest family the tagging properties use.
        let mut records = Vec::new();
        let mut labels = Labels::new();
        let mut addrs = Vec::new();
        for i in 0..20u64 {
            let a = Address::from_u64(1000 + i);
            addrs.push(a);
            if i > 0 {
                let parent = Address::from_u64(1000 + (seed + i) % i);
                records.push(CreationRecord { creator: parent, created: a, block: 0 });
            }
            if (seed + i) % 5 == 0 {
                labels.set(a, format!("App{}", (seed + i) % 3));
            }
        }
        let view = ChainView::new(&labels, &records, None);

        let txs: Vec<TxRecord> = specs.iter().enumerate().map(|(i, &(s, r, amount, tok))| {
            TxRecord {
                id: TxId(i as u64 + 1),
                block: i as u64 / 4,
                timestamp: 1_600_000_000 + i as u64,
                from: addrs[s],
                to: addrs[r],
                function: format!("f{i}"),
                status: TxStatus::Success,
                trace: TxTrace {
                    transfers: vec![
                        Transfer {
                            seq: 0,
                            sender: addrs[s],
                            receiver: addrs[r],
                            amount,
                            token: TokenId::from_index(tok),
                        },
                        Transfer {
                            seq: 1,
                            sender: addrs[r],
                            receiver: addrs[(s + r) % addrs.len()],
                            amount: amount / 2 + 1,
                            token: TokenId::ETH,
                        },
                    ],
                    ..TxTrace::default()
                },
            }
        }).collect();
        let refs: Vec<&TxRecord> = txs.iter().collect();

        let detector = LeiShen::new(DetectorConfig::paper());
        let serial = ScanEngine::new(1);
        // Small chunks + lifted hardware cap so the threaded path
        // genuinely runs even on single-core CI; 3 leaves a short last
        // chunk on most corpus lengths.
        let chunked = ScanEngine::new(4).with_chunk_size(3).allow_oversubscription();

        let dump = |analyses: &[leishen::Analysis]| -> Vec<String> {
            analyses.iter().map(|a| format!("{a:?}")).collect()
        };
        let want = dump(&serial.scan(&detector, &refs, &view));
        prop_assert_eq!(&dump(&chunked.scan(&detector, &refs, &view)), &want);

        // Resilient path: corrupt every fifth record's journal (a seq far
        // past the contiguous range breaks the executor invariant) and
        // require serial and chunked scans to quarantine identically.
        let mut corrupted = txs.clone();
        for (i, tx) in corrupted.iter_mut().enumerate() {
            if i % 5 == 0 {
                tx.trace.transfers[0].seq = 9999;
            }
        }
        let refs: Vec<&TxRecord> = corrupted.iter().collect();
        let policy = ResilienceConfig::new();
        let serial_run = serial.scan_resilient(&detector, &refs, &view, &TagCache::new(), &policy);
        let chunked_run =
            chunked.scan_resilient(&detector, &refs, &view, &TagCache::new(), &policy);
        prop_assert!(serial_run.quarantined_indices().eq(chunked_run.quarantined_indices()));
        prop_assert!(serial_run.quarantined_indices().eq((0..corrupted.len()).step_by(5)));
        let verdicts = |run: &leishen::ResilientScan| -> Vec<String> {
            run.verdicts.iter().map(|v| format!("{v:?}")).collect()
        };
        prop_assert_eq!(verdicts(&serial_run), verdicts(&chunked_run));
    }
}

/// `ethsim::validate_record` as it stood before clean records took a
/// one-walk, allocation-free path, kept as the reference the current
/// validator must equal: it collects the three seq streams into vectors,
/// merges them into one and sorts it. One edit since: the depth-jump
/// check widens to `u32`, as the validator's does, so a frame at depth
/// `u16::MAX` no longer overflows it.
mod sort_based {
    use ethsim::{RecordViolation, SpanId, TxRecord, MAX_AMOUNT};

    pub fn validate_record(tx: &TxRecord) -> Vec<RecordViolation> {
        let trace = &tx.trace;
        let mut violations = Vec::new();

        // 1. Per-stream monotonicity.
        let streams: [(&'static str, Vec<u32>); 3] = [
            ("transfers", trace.transfers.iter().map(|t| t.seq).collect()),
            ("logs", trace.logs.iter().map(|l| l.seq).collect()),
            ("frames", trace.frames.iter().map(|c| c.seq).collect()),
        ];
        for (stream, seqs) in &streams {
            for pair in seqs.windows(2) {
                if pair[1] <= pair[0] {
                    violations.push(RecordViolation::NonMonotonicSeq {
                        stream,
                        seq: pair[1],
                    });
                    break; // one report per stream is enough to quarantine
                }
            }
        }

        // 2. Span-encoding bound, checked before the contiguity bitmap so a
        // hostile seq cannot force a huge allocation below.
        let mut all: Vec<u32> = streams.iter().flat_map(|(_, s)| s.iter().copied()).collect();
        let span_limit = (1u64 << SpanId::SEQ_BITS) - 1;
        for &seq in &all {
            if u64::from(seq) + 1 >= span_limit {
                violations.push(RecordViolation::SeqOverflow { seq });
            }
        }

        // 3 + 4. Uniqueness and contiguity over the union of streams.
        all.sort_unstable();
        let mut duplicate = None;
        let mut gap = None;
        for (expected, &seq) in all.iter().enumerate() {
            let expected = expected as u32;
            if seq == expected {
                continue;
            }
            if duplicate.is_none() && all[..expected as usize].binary_search(&seq).is_ok() {
                duplicate = Some(seq);
            } else if gap.is_none() && seq > expected {
                gap = Some(expected);
            }
        }
        if let Some(seq) = duplicate {
            violations.push(RecordViolation::DuplicateSeq { seq });
        }
        if let Some(missing) = gap {
            violations.push(RecordViolation::SeqGap { missing });
        }

        // 5. Frame tree shape.
        if let Some(first) = trace.frames.first() {
            if first.depth != 0 {
                violations.push(RecordViolation::RootFrameDepth { depth: first.depth });
            }
        }
        for pair in trace.frames.windows(2) {
            if u32::from(pair[1].depth) > u32::from(pair[0].depth) + 1 {
                violations.push(RecordViolation::DepthJump { seq: pair[1].seq });
                break;
            }
        }

        // 6. Amount range.
        for transfer in &trace.transfers {
            if transfer.amount >= MAX_AMOUNT {
                violations.push(RecordViolation::AmountOverflow { seq: transfer.seq });
                break;
            }
        }

        violations
    }
}

/// The fuzz/chaos seed corpus's records (attacks, benign workloads and
/// the interleaving pool), built once for every validator property.
fn seed_records() -> &'static [ethsim::TxRecord] {
    static RECORDS: std::sync::OnceLock<Vec<ethsim::TxRecord>> = std::sync::OnceLock::new();
    RECORDS.get_or_init(|| {
        let seeds = leishen_scenarios::fuzz::seed_case(DetectorConfig::paper());
        let pool = seeds.pool.into_iter().map(|(tx, _)| tx);
        seeds.case.txs.into_iter().chain(pool).collect()
    })
}

#[test]
fn validator_matches_the_sort_based_reference_on_seed_and_chaos_records() {
    use leishen::resilience::InputFault;
    use leishen_scenarios::chaos::corrupt;

    let mut corrupted = 0;
    for record in seed_records() {
        assert_eq!(ethsim::validate_record(record), Vec::new(), "tx {}", record.id);
        assert_eq!(sort_based::validate_record(record), Vec::new(), "tx {}", record.id);
        for fault in InputFault::ALL {
            let mut tx = record.clone();
            if !corrupt(&mut tx, fault) {
                continue;
            }
            let want = sort_based::validate_record(&tx);
            assert!(!want.is_empty(), "{} on tx {} breaks an invariant", fault.name(), tx.id);
            assert_eq!(ethsim::validate_record(&tx), want, "{} on tx {}", fault.name(), tx.id);
            corrupted += 1;
        }
    }
    assert!(corrupted >= seed_records().len(), "most records take most faults: {corrupted}");
}

/// The seq of the `pick`-th journal entry of `trace` (transfers, then
/// logs, then frames, modulo the entry count), or `None` for an empty
/// trace.
fn seq_at(trace: &mut ethsim::TxTrace, pick: usize) -> Option<&mut u32> {
    let (t, l, f) = (trace.transfers.len(), trace.logs.len(), trace.frames.len());
    if t + l + f == 0 {
        return None;
    }
    let i = pick % (t + l + f);
    Some(if i < t {
        &mut trace.transfers[i].seq
    } else if i < t + l {
        &mut trace.logs[i - t].seq
    } else {
        &mut trace.frames[i - t - l].seq
    })
}

/// Applies one perturbation `kind` to `trace`, at entries chosen by `a`
/// and `b`: 0 swaps two seqs, 1 duplicates one, 2 drops an entry, 3 puts
/// a seq at the span limit, 4 deepens a frame by 1 to 3 levels past its
/// predecessor (saturating at the depth limit), 5 sets an amount at or
/// near the amount limit, 6 sets a frame's depth to the limit,
/// `u16::MAX`.
fn perturb(trace: &mut ethsim::TxTrace, kind: u8, a: usize, b: usize) {
    let span_limit = 1u32 << ethsim::SpanId::SEQ_BITS;
    match kind {
        0 | 1 => {
            let (Some(x), Some(y)) = (seq_at(trace, a).copied(), seq_at(trace, b).copied()) else {
                return;
            };
            *seq_at(trace, a).unwrap() = y;
            if kind == 0 {
                *seq_at(trace, b).unwrap() = x;
            }
        }
        2 => {
            let (t, l, f) = (trace.transfers.len(), trace.logs.len(), trace.frames.len());
            if t + l + f == 0 {
                return;
            }
            let i = a % (t + l + f);
            if i < t {
                trace.transfers.remove(i);
            } else if i < t + l {
                trace.logs.remove(i - t);
            } else {
                trace.frames.remove(i - t - l);
            }
        }
        3 => {
            let limits = [span_limit - 3, span_limit - 2, span_limit - 1, u32::MAX];
            if let Some(seq) = seq_at(trace, a) {
                *seq = limits[b % limits.len()];
            }
        }
        4 if !trace.frames.is_empty() => {
            let i = a % trace.frames.len();
            let below = if i == 0 { 0 } else { trace.frames[i - 1].depth };
            trace.frames[i].depth = below.saturating_add(1 + (b % 3) as u16);
        }
        5 if !trace.transfers.is_empty() => {
            let amounts = [ethsim::MAX_AMOUNT - 1, ethsim::MAX_AMOUNT, u128::MAX];
            let i = a % trace.transfers.len();
            trace.transfers[i].amount = amounts[b % amounts.len()];
        }
        6 if !trace.frames.is_empty() => {
            let i = a % trace.frames.len();
            trace.frames[i].depth = u16::MAX;
        }
        _ => {}
    }
}

proptest! {
    #[test]
    fn validator_matches_the_sort_based_reference_on_perturbed_records(
        edits in prop::collection::vec((0u8..7, 0usize..1 << 16, 0usize..1 << 16), 1..4)
    ) {
        // Every seed record takes the same edits: a case costs microseconds
        // per record, and each record puts them at other entries.
        for record in seed_records() {
            let mut tx = record.clone();
            for &(kind, a, b) in &edits {
                perturb(&mut tx.trace, kind, a, b);
            }
            prop_assert_eq!(ethsim::validate_record(&tx), sort_based::validate_record(&tx));
        }
    }
}
