//! The LeiShen pipeline (paper Fig. 5): transfer-history extraction →
//! app-level transfer construction → attack-pattern identification.

use std::collections::HashSet;

use ethsim::{Address, CreationIndex, CreationRecord, TokenId, TxRecord};

use crate::analytics::{pair_volatility, profit_of, PairVolatility, UsdPriceTable};
use crate::config::DetectorConfig;
use crate::flashloan::{identify_flash_loans, FlashLoanEvent};
use crate::labels::Labels;
use crate::patterns::{all_legs, match_all_legs_observed, PatternMatch, PatternScratch};
use crate::report::AttackReport;
use crate::scan::TagCache;
use crate::simplify::{
    coalesce_transfers, has_split_transfers, simplify_drain_observed, SimplifyAction,
};
use crate::tagging::{tag_of, tag_transfers_with_into, Tag, TaggedTransfer};
use crate::telemetry::{Observer, Probe, Stage, TxCounters};
use crate::trace::{Decision, Reason, TraceEvent, Verdict};
use crate::trades::{identify_trades_into, Trade};

/// The detector's read-only view of chain context: the label cloud, the
/// creation dataset, and (optionally) which token is WETH.
#[derive(Clone, Debug)]
pub struct ChainView<'a> {
    labels: &'a Labels,
    creations: CreationIndex,
    weth: Option<TokenId>,
}

impl<'a> ChainView<'a> {
    /// Builds a view from the label cloud and the creation dataset.
    pub fn new(
        labels: &'a Labels,
        creation_records: &[CreationRecord],
        weth: Option<TokenId>,
    ) -> Self {
        ChainView {
            labels,
            creations: CreationIndex::new(creation_records),
            weth,
        }
    }

    /// The label cloud.
    pub fn labels(&self) -> &Labels {
        self.labels
    }

    /// The creation index.
    pub fn creations(&self) -> &CreationIndex {
        &self.creations
    }

    /// The WETH token, when known.
    pub fn weth(&self) -> Option<TokenId> {
        self.weth
    }
}

/// Full intermediate output of one analysis — every pipeline stage exposed,
/// so callers (and the paper's figures) can inspect each step.
///
/// `PartialEq` (not `Eq`: pattern volatilities are `f64`) exists so the
/// telemetry identity tests can assert that instrumented and
/// uninstrumented runs produce *identical* results.
#[derive(Clone, Debug, PartialEq)]
pub struct Analysis {
    /// Identified flash loans (empty ⇒ not a flash-loan transaction; the
    /// pipeline stops after identification in that case).
    pub flash_loans: Vec<FlashLoanEvent>,
    /// Account-level transfer count (stage 1 input size).
    pub account_transfer_count: usize,
    /// Application-level transfers after simplification (stage 2). The
    /// stage-2a tagged account-level list is transient — it is one entry
    /// per raw transfer, so retaining it would dominate the memory of a
    /// batch scan; callers that need it can re-run [`tag_transfers`]
    /// (it is deterministic).
    ///
    /// [`tag_transfers`]: crate::tagging::tag_transfers
    pub app_transfers: Vec<TaggedTransfer>,
    /// Identified trades (stage 3a).
    pub trades: Vec<Trade>,
    /// Matched attack patterns (stage 3b).
    pub matches: Vec<PatternMatch>,
    /// Borrower tags the patterns were evaluated for.
    pub borrower_tags: Vec<Tag>,
}

impl Analysis {
    /// Whether the transaction is reported as a flpAttack.
    pub fn is_attack(&self) -> bool {
        !self.flash_loans.is_empty() && !self.matches.is_empty()
    }
}

/// The LeiShen detector.
///
/// ```
/// use leishen::{DetectorConfig, LeiShen};
/// let detector = LeiShen::new(DetectorConfig::paper());
/// assert_eq!(detector.config().mbs_min_rounds, 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct LeiShen {
    config: DetectorConfig,
}

impl LeiShen {
    /// Creates a detector with the given thresholds.
    pub fn new(config: DetectorConfig) -> Self {
        LeiShen { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Runs the full pipeline on one replayed transaction.
    ///
    /// Reverted transactions and transactions without a Table II flash-loan
    /// signature short-circuit with an empty analysis (LeiShen only takes
    /// flash-loan transactions as input).
    pub fn analyze(&self, tx: &TxRecord, view: &ChainView<'_>) -> Analysis {
        self.analyze_scratch(
            tx,
            view,
            &mut |addr| tag_of(addr, view.labels, &view.creations),
            &mut AnalysisScratch::default(),
        )
    }

    /// Like [`LeiShen::analyze`], resolving tags through a shared
    /// [`TagCache`] so repeated addresses across a batch scan are tagged
    /// once. Produces exactly the same [`Analysis`] as `analyze`.
    pub fn analyze_cached(
        &self,
        tx: &TxRecord,
        view: &ChainView<'_>,
        cache: &TagCache,
    ) -> Analysis {
        self.analyze_scratch(
            tx,
            view,
            &mut |addr| cache.resolve(addr, view.labels, &view.creations),
            &mut AnalysisScratch::default(),
        )
    }

    /// Like [`LeiShen::analyze`], resolving tags through a caller-supplied
    /// resolver, with caller-provided scratch buffers.
    ///
    /// The resolver must map the zero address to [`Tag::BlackHole`] and
    /// otherwise agree with [`tag_of`] for the view's labels and
    /// creations; this is how [`crate::scan::ScanEngine`] workers plug in
    /// their cache fronts. It is a compile-time parameter (not
    /// `&mut dyn FnMut`): the pipeline calls it roughly twice per journal
    /// entry, so on the cached batch-scan path the memo probe must inline
    /// into the tagging loop instead of going through an indirect call.
    ///
    /// Every intermediate the pipeline does not return moves into
    /// `scratch` and is reused on the next call, so a worker analyzing a
    /// batch pays for those buffers once instead of once per transaction.
    /// Produces exactly the same [`Analysis`] as `analyze`.
    pub fn analyze_scratch<R: FnMut(Address) -> Tag>(
        &self,
        tx: &TxRecord,
        view: &ChainView<'_>,
        resolve: &mut R,
        scratch: &mut AnalysisScratch,
    ) -> Analysis {
        self.analyze_observed(tx, view, resolve, scratch, &())
    }

    /// Like [`LeiShen::analyze_scratch`], reporting to `observer`:
    /// per-stage latency and per-transaction counters when it meters, the
    /// full decision provenance — stage spans, structured events for every
    /// reduction and matcher verdict, and the final reason chain — when it
    /// traces, and every stage boundary either way. The observer is a
    /// compile-time parameter: monomorphized over `()` (what
    /// `analyze_scratch` does) every clock read, counter store and event
    /// closure is dead code. Produces exactly the same [`Analysis`] as
    /// `analyze` for any observer.
    pub fn analyze_observed<O: Observer, R: FnMut(Address) -> Tag>(
        &self,
        tx: &TxRecord,
        view: &ChainView<'_>,
        resolve: &mut R,
        scratch: &mut AnalysisScratch,
        observer: &O,
    ) -> Analysis {
        let picked = O::METERED && {
            scratch.lap_tick = scratch.lap_tick.wrapping_add(1);
            let every = observer.stage_sampling();
            every <= 1 || scratch.lap_tick.is_multiple_of(every)
        };
        let mut probe = Probe::start(observer, tx.id, picked);
        let mut counters = TxCounters::default();
        let flash_loans = if tx.status.is_success() {
            identify_flash_loans(tx)
        } else {
            Vec::new()
        };
        for loan in &flash_loans {
            probe.event(observer, || TraceEvent::FlashLoan {
                provider: loan.provider.to_string(),
                lender: loan.lender.to_string(),
                borrower: loan.borrower.to_string(),
                amount: loan.amount,
            });
        }
        probe.lap(observer, Stage::FlashLoan);
        if flash_loans.is_empty() {
            if O::METERED {
                counters.account_transfers = tx.trace.transfers.len() as u32;
            }
            probe.finish(observer, &counters, || Decision {
                flagged: false,
                reasons: vec![if tx.status.is_success() {
                    Reason::NoFlashLoan
                } else {
                    Reason::Reverted
                }],
            });
            return Analysis {
                flash_loans,
                account_transfer_count: tx.trace.transfers.len(),
                app_transfers: Vec::new(),
                trades: Vec::new(),
                matches: Vec::new(),
                borrower_tags: Vec::new(),
            };
        }
        let AnalysisScratch {
            tagged,
            patterns,
            coalesced,
            ..
        } = scratch;

        // Stage 2: account tagging + simplification. Buffers are sized up
        // front: simplification only ever removes or merges transfers.
        //
        // Split-transfer coalescing (the partial-repay evasion fix) runs
        // on the raw journal before tagging so that amount-symmetry
        // pattern checks see whole legs; flash-loan identification and
        // profit accounting above stay on the raw journal, where the
        // per-transfer seqs cross-link into logs and call frames.
        let journal: &[ethsim::Transfer] = if self.config.coalesce_split_transfers
            && has_split_transfers(&tx.trace.transfers)
        {
            coalesce_transfers(&tx.trace.transfers, coalesced);
            coalesced
        } else {
            &tx.trace.transfers
        };
        let journal_len = journal.len();
        tag_transfers_with_into(journal, &mut *resolve, tagged);
        if O::TRACED {
            // First occurrence of each distinct tag, in journal order,
            // with the transfer that triggered it.
            let mut seen: HashSet<&Tag> = HashSet::with_capacity(tagged.len());
            for t in tagged.iter() {
                for tag in [&t.sender, &t.receiver] {
                    if seen.insert(tag) {
                        probe.event(observer, || TraceEvent::TagAssigned {
                            tag: tag.to_string(),
                            first_seq: t.seq,
                        });
                    }
                }
            }
        }
        probe.lap(observer, Stage::Tagging);
        let mut app_transfers = Vec::with_capacity(tagged.len());
        // Draining variant: survivors move out of the scratch buffer
        // (cleared anyway on the next transaction) instead of cloning.
        let simplify_stats = simplify_drain_observed(
            tagged,
            view.weth,
            &self.config,
            &mut app_transfers,
            |action| {
                if O::TRACED {
                    match action {
                        SimplifyAction::Kept { .. } => {}
                        SimplifyAction::Dropped { seq, rule } => probe
                            .event(observer, || TraceEvent::SimplifyDropped { seq, rule }),
                        SimplifyAction::Merged { seq, into_seq } => probe
                            .event(observer, || TraceEvent::SimplifyMerged { seq, into_seq }),
                    }
                }
            },
        );
        probe.event(observer, || TraceEvent::SimplifySummary {
            kept: simplify_stats.kept,
            dropped: simplify_stats.dropped,
            merged: simplify_stats.merged,
        });
        probe.lap(observer, Stage::Simplify);

        // Stage 3: trades + patterns, per distinct borrower tag. The tx
        // initiator is always considered a borrower identity as well — the
        // borrower contract acts on its behalf, and the two usually share a
        // creation-tree tag anyway.
        let mut trades = Vec::with_capacity(app_transfers.len() / 2 + 1);
        identify_trades_into(&app_transfers, &mut trades);
        for trade in &trades {
            probe.event(observer, || TraceEvent::TradeIdentified {
                seq: trade.seq,
                kind: trade.kind.to_string(),
                buyer: trade.buyer.to_string(),
                seller: trade.seller.to_string(),
            });
        }
        probe.lap(observer, Stage::Trades);
        // Dedup by linear scan: a transaction has a handful of borrower
        // identities at most, and hashing a tag walks its app-name
        // string, so a set would cost more than it saves.
        let mut borrower_tags: Vec<Tag> = Vec::new();
        for loan in &flash_loans {
            let t = resolve(loan.borrower);
            if !borrower_tags.contains(&t) {
                borrower_tags.push(t);
            }
        }
        let initiator_tag = resolve(tx.from);
        if !borrower_tags.contains(&initiator_tag) {
            borrower_tags.push(initiator_tag);
        }
        // Legs are flattened once and shared across borrower tags.
        let legs = all_legs(&trades);
        let mut matches: Vec<PatternMatch> = Vec::new();
        let active_matchers = 3 + usize::from(self.config.experimental_kdp);
        for tag in &borrower_tags {
            let found =
                match_all_legs_observed(&legs, tag, &self.config, patterns, |verdict| {
                    if O::TRACED {
                        probe.event(observer, || TraceEvent::PatternVerdict {
                            kind: verdict.kind,
                            borrower: tag.to_string(),
                            quote: verdict.quote.to_string(),
                            target: verdict.target.to_string(),
                            outcome: match verdict.failed {
                                Some(failed) => Verdict::Rejected {
                                    failed: failed.to_string(),
                                },
                                None => Verdict::Matched {
                                    trade_seqs: verdict
                                        .matched
                                        .iter()
                                        .map(|m| m.trade_seqs.clone())
                                        .collect(),
                                    volatility: verdict
                                        .matched
                                        .first()
                                        .map_or(0.0, |m| m.volatility),
                                },
                            },
                        });
                    }
                });
            // Same linear-scan rationale: matches number in the single
            // digits, and the set this replaces cloned every match's
            // trade list and counterparty name just to build its key.
            for m in found {
                if !matches.iter().any(|have| same_match(have, &m)) {
                    matches.push(m);
                }
            }
            if O::METERED {
                counters.patterns_tried +=
                    (patterns.pairs_examined() * active_matchers) as u32;
            }
        }
        probe.lap(observer, Stage::Patterns);

        if O::METERED {
            // Every counter is derived from state the pipeline already
            // holds; `tags_resolved` counts resolver calls exactly (two
            // per tagged journal entry — post-coalescing, when the
            // pre-pass fired — one per loan borrower, one initiator).
            counters.account_transfers = tx.trace.transfers.len() as u32;
            counters.flash_loans = flash_loans.len() as u32;
            counters.tags_resolved = (2 * journal_len + flash_loans.len() + 1) as u32;
            counters.app_transfers = simplify_stats.kept;
            counters.transfers_dropped = simplify_stats.dropped;
            counters.transfers_merged = simplify_stats.merged;
            counters.trades = trades.len() as u32;
            counters.borrower_tags = borrower_tags.len() as u32;
            counters.patterns_matched = matches.len() as u32;
        }
        probe.finish(observer, &counters, || {
            // Reason chain: every identified loan, then either the
            // flagging evidence (one reason per deduped match) or the
            // explicit clear.
            let mut reasons = Vec::with_capacity(flash_loans.len() + matches.len().max(1));
            for loan in &flash_loans {
                reasons.push(Reason::FlashLoan {
                    provider: loan.provider.to_string(),
                });
            }
            if matches.is_empty() {
                reasons.push(Reason::NoPatternMatched);
            } else {
                for m in &matches {
                    reasons.push(Reason::PatternMatched {
                        kind: m.kind,
                        target: m.target_token.to_string(),
                        quote: m.quote_token.to_string(),
                        trade_seqs: m.trade_seqs.clone(),
                    });
                }
            }
            Decision {
                flagged: !matches.is_empty(),
                reasons,
            }
        });

        Analysis {
            flash_loans,
            account_transfer_count: tx.trace.transfers.len(),
            app_transfers,
            trades,
            matches,
            borrower_tags,
        }
    }

    /// Analyzes a transaction and, when it is an attack, produces the full
    /// report (volatility always included; profit when `prices` given).
    pub fn detect(
        &self,
        tx: &TxRecord,
        view: &ChainView<'_>,
        prices: Option<&UsdPriceTable>,
    ) -> Option<AttackReport> {
        self.report(tx, view, &self.analyze(tx, view), prices)
    }

    /// [`LeiShen::detect`] over an analysis already made of `tx`, so a
    /// caller that keeps its analyses need not analyze twice.
    pub fn report(
        &self,
        tx: &TxRecord,
        view: &ChainView<'_>,
        analysis: &Analysis,
        prices: Option<&UsdPriceTable>,
    ) -> Option<AttackReport> {
        if !analysis.is_attack() {
            return None;
        }
        let volatilities: Vec<PairVolatility> = pair_volatility(&analysis.trades);
        let profit_usd = prices.map(|p| {
            // Cold path: one transaction per call, so the resolver stays
            // dynamic (monomorphizing it would only bloat the binary).
            let accounts = borrower_accounts(tx, analysis, &mut |addr| {
                tag_of(addr, view.labels, &view.creations)
            });
            profit_of(&tx.trace.transfers, &accounts, p)
        });
        Some(AttackReport {
            tx: tx.id,
            block: tx.block,
            timestamp: tx.timestamp,
            initiator: tx.from,
            flash_loans: analysis.flash_loans.clone(),
            patterns: analysis.matches.clone(),
            volatilities,
            profit_usd,
            exits: Vec::new(),
        })
    }
}

/// Reusable per-worker buffers for [`LeiShen::analyze_scratch`]: the
/// transient tagged-transfer list, the pattern stage's pair and series
/// buffers, and the two dedup sets. One scratch per scan worker
/// amortizes several heap allocations per transaction on the batch-scan
/// hot path.
#[derive(Debug, Default)]
pub struct AnalysisScratch {
    tagged: Vec<TaggedTransfer>,
    patterns: PatternScratch,
    /// Split-transfer coalescing output ([`coalesce_transfers`]); only
    /// populated when the journal actually contains adjacent same-edge
    /// runs, so unsplit transactions never pay the copy.
    coalesced: Vec<ethsim::Transfer>,
    /// Per-worker transaction tick driving the observer's stage-timing
    /// sampling ([`Observer::stage_sampling`]).
    lap_tick: u32,
}

/// Match equality for dedup across borrower tags. `PatternMatch` is
/// `PartialEq`-only because of its `f64` volatility; here the float
/// compares by bit pattern, so two NaN volatilities of identical
/// provenance still dedup.
fn same_match(a: &PatternMatch, b: &PatternMatch) -> bool {
    a.kind == b.kind
        && a.target_token == b.target_token
        && a.quote_token == b.quote_token
        && a.volatility.to_bits() == b.volatility.to_bits()
        && a.trade_seqs == b.trade_seqs
        && a.counterparty == b.counterparty
}

/// All addresses in the transaction that share a borrower tag — the
/// attacker's account cluster for profit accounting.
fn borrower_accounts(
    tx: &TxRecord,
    analysis: &Analysis,
    resolve: &mut dyn FnMut(Address) -> Tag,
) -> HashSet<Address> {
    let mut accounts = HashSet::new();
    accounts.insert(tx.from);
    for loan in &analysis.flash_loans {
        accounts.insert(loan.borrower);
    }
    let borrower_tags: HashSet<&Tag> = analysis.borrower_tags.iter().collect();
    for t in &tx.trace.transfers {
        for addr in [t.sender, t.receiver] {
            if addr.is_zero() || accounts.contains(&addr) {
                continue;
            }
            let tag = resolve(addr);
            if borrower_tags.contains(&tag) {
                accounts.insert(addr);
            }
        }
    }
    accounts
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethsim::{Chain, ChainConfig};

    /// A minimal hand-rolled flash-loan attack on the substrate: borrow
    /// from a fake Uniswap pair (proper swap/uniswapV2Call frames), run an
    /// SBS-shaped trade triple against two labeled apps, repay.
    fn build_attack_world() -> (Chain, Labels, TokenId) {
        let mut chain = Chain::new(ChainConfig::default());
        let mut labels = Labels::new();
        let uni_deployer = chain.create_eoa("uni deployer");
        let comp_deployer = chain.create_eoa("comp deployer");
        labels.set(uni_deployer, "Uniswap");
        labels.set(comp_deployer, "Compound");
        // Contracts created by labeled deployers inherit tags via the tree.
        let mut pair = None;
        let mut market = None;
        chain
            .execute(uni_deployer, uni_deployer, "deploy", |ctx| {
                pair = Some(ctx.create_contract(uni_deployer)?);
                Ok(())
            })
            .unwrap();
        chain
            .execute(comp_deployer, comp_deployer, "deploy", |ctx| {
                market = Some(ctx.create_contract(comp_deployer)?);
                Ok(())
            })
            .unwrap();
        let pair = pair.unwrap();
        let market = market.unwrap();
        let mut wbtc = None;
        chain
            .execute(uni_deployer, uni_deployer, "deployToken", |ctx| {
                let c = ctx.create_contract(uni_deployer)?;
                let t = ctx.register_token("WBTC", 8, c);
                ctx.mint_token(t, market, 500_00000000)?;
                ctx.mint_token(t, pair, 500_00000000)?;
                wbtc = Some(t);
                Ok(())
            })
            .unwrap();
        chain.state_mut().credit_eth(pair, 1_000_000).unwrap();
        chain.state_mut().credit_eth(market, 1_000_000).unwrap();
        (chain, labels, wbtc.unwrap())
    }

    #[test]
    fn end_to_end_sbs_attack_detected() {
        let (mut chain, labels, wbtc) = build_attack_world();
        let attacker = chain.create_eoa("attacker");
        // Resolve contracts by walking creations: first two are pair/market.
        let pair = chain.state().creations()[0].created;
        let market = chain.state().creations()[1].created;
        let mut contract = None;
        chain
            .execute(attacker, attacker, "deploy", |ctx| {
                contract = Some(ctx.create_contract(attacker)?);
                Ok(())
            })
            .unwrap();
        let c = contract.unwrap();

        let eth = TokenId::ETH;
        let tx = chain
            .execute(attacker, c, "attack", |ctx| {
                // flash loan: 100k wei ETH from the "pair"
                ctx.call(c, pair, "swap", 0, |ctx| {
                    ctx.transfer_eth(pair, c, 100_000)?;
                    ctx.call(pair, c, "uniswapV2Call", 0, |ctx| {
                        // trade1: buy 112 WBTC-sats from Compound @ ~491
                        ctx.transfer_eth(c, market, 55_000)?;
                        ctx.transfer_token(wbtc, market, c, 112)?;
                        // trade2 (pump): Compound buys from Uniswap @ ~1105
                        ctx.transfer_eth(market, pair, 22_100)?;
                        ctx.transfer_token(wbtc, pair, market, 20)?;
                        // trade3: sell 112 back to Uniswap @ ~613
                        ctx.transfer_token(wbtc, c, pair, 112)?;
                        ctx.transfer_eth(pair, c, 68_656)?;
                        Ok(())
                    })?;
                    // repay 100_000 + fee
                    ctx.transfer_eth(c, pair, 100_301)?;
                    Ok(())
                })?;
                // take profit home
                let bal = ctx.balance(eth, c);
                ctx.transfer_eth(c, attacker, bal)?;
                Ok(())
            })
            .unwrap();

        let record = chain.replay(tx).unwrap().clone();
        assert!(record.status.is_success());
        let view = ChainView::new(&labels, chain.state().creations(), None);
        let detector = LeiShen::new(DetectorConfig::default());
        let analysis = detector.analyze(&record, &view);
        assert_eq!(analysis.flash_loans.len(), 1);
        assert!(
            analysis.is_attack(),
            "trades: {:?}\nmatches: {:?}\napp: {:?}",
            analysis.trades,
            analysis.matches,
            analysis.app_transfers
        );
        assert!(analysis
            .matches
            .iter()
            .any(|m| m.kind == crate::patterns::PatternKind::Sbs));

        // Full report with profit accounting.
        let mut prices = UsdPriceTable::new();
        prices.set_whole(eth, 1.0, 0); // 1 USD per wei for the toy scale
        let report = detector.detect(&record, &view, Some(&prices)).unwrap();
        let profit = report.profit_usd.unwrap();
        // attacker spent 55,000 + 100,301 and received 100,000 + 68,656
        assert!(
            (profit - 13_355.0).abs() < 1.0,
            "expected ~13,355, got {profit}"
        );
        assert!(!report.volatilities.is_empty());
    }

    #[test]
    fn metered_analysis_is_identical_and_counted() {
        use crate::telemetry::{RecordingSink, Stage};

        let (mut chain, labels, wbtc) = build_attack_world();
        let attacker = chain.create_eoa("attacker");
        chain.state_mut().credit_eth(attacker, 1_000).unwrap();
        let pair = chain.state().creations()[0].created;
        let tx = chain
            .execute(attacker, pair, "flash", |ctx| {
                ctx.call(attacker, pair, "swap", 0, |ctx| {
                    ctx.transfer_eth(pair, attacker, 100_000)?;
                    ctx.call(pair, attacker, "uniswapV2Call", 0, |ctx| {
                        ctx.transfer_token(wbtc, pair, attacker, 7)
                    })?;
                    ctx.transfer_eth(attacker, pair, 100_301)?;
                    Ok(())
                })
            })
            .unwrap();
        let record = chain.replay(tx).unwrap().clone();
        let view = ChainView::new(&labels, chain.state().creations(), None);
        let detector = LeiShen::new(DetectorConfig::paper());

        let plain = detector.analyze(&record, &view);
        let sink = RecordingSink::new();
        let metered = detector.analyze_observed(
            &record,
            &view,
            &mut |addr| tag_of(addr, view.labels, &view.creations),
            &mut AnalysisScratch::default(),
            &sink,
        );
        assert_eq!(plain, metered, "instrumentation must not change results");

        let totals = sink.counter_totals();
        assert_eq!(totals.transactions, 1);
        assert_eq!(
            totals.account_transfers as usize,
            record.trace.transfers.len()
        );
        assert_eq!(totals.flash_loans as usize, metered.flash_loans.len());
        assert_eq!(
            totals.tags_resolved as usize,
            2 * record.trace.transfers.len() + metered.flash_loans.len() + 1
        );
        assert_eq!(totals.app_transfers as usize, metered.app_transfers.len());
        assert_eq!(totals.trades as usize, metered.trades.len());
        assert_eq!(totals.borrower_tags as usize, metered.borrower_tags.len());
        assert_eq!(totals.patterns_matched as usize, metered.matches.len());
        // A flash-loan transaction reaches every stage exactly once.
        for stage in crate::telemetry::STAGES {
            assert_eq!(sink.stage_summary(stage).count, 1, "{stage}");
        }

        // A non-flash-loan transaction records only the short-circuit.
        let other = chain.create_eoa("other");
        chain.state_mut().credit_eth(other, 10).unwrap();
        let plain_tx = chain
            .execute(other, attacker, "send", |ctx| {
                ctx.transfer_eth(other, attacker, 5)
            })
            .unwrap();
        let plain_record = chain.replay(plain_tx).unwrap().clone();
        detector.analyze_observed(
            &plain_record,
            &view,
            &mut |addr| tag_of(addr, view.labels, &view.creations),
            &mut AnalysisScratch::default(),
            &sink,
        );
        assert_eq!(sink.counter_totals().transactions, 2);
        assert_eq!(sink.stage_summary(Stage::FlashLoan).count, 2);
        assert_eq!(sink.stage_summary(Stage::Tagging).count, 1);
    }

    #[test]
    fn chain_view_exposes_its_parts() {
        let mut labels = Labels::new();
        labels.set(Address::from_u64(1), "Uniswap");
        let records = [ethsim::CreationRecord {
            creator: Address::from_u64(1),
            created: Address::from_u64(2),
            block: 0,
        }];
        let view = ChainView::new(&labels, &records, Some(TokenId::from_index(3)));
        assert_eq!(view.labels().get(Address::from_u64(1)), Some("Uniswap"));
        assert_eq!(view.creations().parent(Address::from_u64(2)), Some(Address::from_u64(1)));
        assert_eq!(view.weth(), Some(TokenId::from_index(3)));
    }

    #[test]
    fn analysis_requires_both_loans_and_matches() {
        let base = Analysis {
            flash_loans: vec![],
            account_transfer_count: 0,
            app_transfers: vec![],
            trades: vec![],
            matches: vec![],
            borrower_tags: vec![],
        };
        assert!(!base.is_attack(), "neither");
        let with_loan = Analysis {
            flash_loans: vec![crate::flashloan::FlashLoanEvent {
                provider: crate::flashloan::Provider::Aave,
                lender: Address::from_u64(1),
                borrower: Address::from_u64(2),
                token: None,
                amount: None,
            }],
            ..base.clone()
        };
        assert!(!with_loan.is_attack(), "loan without pattern");
        let with_match = Analysis {
            matches: vec![crate::patterns::PatternMatch {
                kind: crate::patterns::PatternKind::Krp,
                target_token: TokenId::from_index(1),
                quote_token: TokenId::ETH,
                trade_seqs: vec![],
                volatility: 1.0,
                counterparty: "X".into(),
            }],
            ..base.clone()
        };
        assert!(!with_match.is_attack(), "pattern without loan");
        let both = Analysis {
            matches: with_match.matches.clone(),
            ..with_loan
        };
        assert!(both.is_attack());
    }

    #[test]
    fn non_flash_loan_tx_short_circuits() {
        let mut chain = Chain::new(ChainConfig::default());
        let labels = Labels::new();
        let a = chain.create_eoa("a");
        chain.state_mut().credit_eth(a, 10).unwrap();
        let b = chain.create_eoa("b");
        let tx = chain
            .execute(a, b, "send", |ctx| ctx.transfer_eth(a, b, 5))
            .unwrap();
        let record = chain.replay(tx).unwrap().clone();
        let view = ChainView::new(&labels, chain.state().creations(), None);
        let analysis = LeiShen::default().analyze(&record, &view);
        assert!(analysis.flash_loans.is_empty());
        assert!(!analysis.is_attack());
        assert!(analysis.app_transfers.is_empty(), "pipeline short-circuits");
        assert!(LeiShen::default().detect(&record, &view, None).is_none());
    }

    #[test]
    fn reverted_tx_is_ignored() {
        let mut chain = Chain::new(ChainConfig::default());
        let labels = Labels::new();
        let a = chain.create_eoa("a");
        let b = chain.create_eoa("b");
        let tx = chain
            .execute(a, b, "fail", |_| Err(ethsim::SimError::revert("nope")))
            .unwrap();
        let record = chain.replay(tx).unwrap().clone();
        let view = ChainView::new(&labels, chain.state().creations(), None);
        assert!(!LeiShen::default().analyze(&record, &view).is_attack());
    }

    #[test]
    fn benign_flash_loan_is_not_an_attack() {
        // Borrow and repay with no manipulation: flash loan found, no
        // pattern matched.
        let (mut chain, labels, _) = build_attack_world();
        let pair = chain.state().creations()[0].created;
        let user = chain.create_eoa("user");
        chain.state_mut().credit_eth(user, 1_000).unwrap();
        let tx = chain
            .execute(user, pair, "flash", |ctx| {
                ctx.call(user, pair, "swap", 0, |ctx| {
                    ctx.transfer_eth(pair, user, 100_000)?;
                    ctx.call(pair, user, "uniswapV2Call", 0, |_| Ok(()))?;
                    ctx.transfer_eth(user, pair, 100_301)?;
                    Ok(())
                })
            })
            .unwrap();
        let record = chain.replay(tx).unwrap().clone();
        let view = ChainView::new(&labels, chain.state().creations(), None);
        let analysis = LeiShen::default().analyze(&record, &view);
        assert_eq!(analysis.flash_loans.len(), 1);
        assert!(!analysis.is_attack());
    }
}
