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
//! * calendar conversion round-trips.

use proptest::prelude::*;

use ethsim::calendar::Date;
use ethsim::{math, Address, Chain, ChainConfig, CreationIndex, CreationRecord, TokenId};
use leishen::config::DetectorConfig;
use leishen::simplify::{merge_inter_app, remove_intra_app};
use leishen::tagging::{Tag, TagMap, TaggedTransfer};
use leishen::trades::{identify_trades, Trade, TradeKind, TradeSide};
use leishen::tagging::tag_of;
use leishen::{patterns, Labels, TagCache};

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
    fn tagging_is_order_independent(seed in 0u64..1_000) {
        // A random creation forest + labels; TagMap::build must not depend
        // on the iteration order of addresses.
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
    fn tag_cache_agrees_with_uncached_resolution(seed in 0u64..1_000) {
        // Arbitrary creation forest + labels (same family of forests as
        // `tagging_is_order_independent`): the shared TagCache must be a
        // pure memo over `tag_of` — every resolution, miss or hit,
        // identical to a fresh creation-tree walk.
        let mut records = Vec::new();
        let mut labels = Labels::new();
        let mut addrs = vec![Address::ZERO];
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
        salt in 0u64..1_000
    ) {
        use leishen::fuzz::{rename_case, FuzzCase};

        // The same random creation-forest family the tagging properties
        // use, packaged as a (transaction-free) fuzz case.
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
