//! The detector re-composed from its public stage functions, with a span
//! around every stage, checked against the library's own entry points.
//!
//! The stage order and buffer handling mirror `LeiShen::analyze_scratch`,
//! so the stage self times of one transaction add up to what the library
//! spends on it: flash-loan identification, split-transfer coalescing,
//! journal tagging, simplification, trade identification, borrower-tag
//! resolution and pattern matching.

use ethsim::{Transfer, TxRecord};
use leishen::flashloan::identify_flash_loans;
use leishen::patterns::{all_legs, match_all_legs_scratch, PatternMatch, PatternScratch};
use leishen::simplify::{coalesce_transfers, has_split_transfers, simplify_drain_observed};
use leishen::tagging::{tag_transfers_with_into, Tag, TaggedTransfer};
use leishen::trades::identify_trades_into;
use leishen::{Analysis, AnalysisScratch, ChainView, LeiShen, LocalTagCache, TagCache};

use crate::catalog::Layers;
use crate::report::Outcome;
use crate::spans::{SpanId, Spans};
use crate::stats::{percentile, sorted, tail_or_max};

/// Work counted where it happens.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageCounts {
    /// Transactions composed.
    pub txs: u64,
    /// Flash loans identified.
    pub loans: u64,
    /// Tag resolutions (two per journal entry, one per loan borrower, one
    /// for the initiator).
    pub lookups: u64,
    /// Transactions whose journal needed split-transfer coalescing.
    pub coalesced_txs: u64,
    /// Transfers merged by simplification.
    pub merged: u64,
    /// Transfers dropped by simplification.
    pub dropped: u64,
    /// Trades identified.
    pub trades: u64,
    /// `(quote, target)` pairs the matchers examined.
    pub pairs_examined: u64,
    /// Pattern matches the matchers returned (before dedup across
    /// borrower tags).
    pub matches: u64,
    /// Transactions flagged.
    pub flagged: u64,
    /// Transactions whose composed or timed analysis differed from
    /// `LeiShen::analyze_cached`.
    pub mismatches: u64,
}

/// The composed detector and its buffers.
pub struct Composer<'d, 'v> {
    detector: &'d LeiShen,
    view: &'d ChainView<'v>,
    tagged: Vec<TaggedTransfer>,
    coalesced: Vec<Transfer>,
    patterns: PatternScratch,
    timed_scratch: AnalysisScratch,
    /// Counters over every composed transaction.
    pub counts: StageCounts,
}

impl<'d, 'v> Composer<'d, 'v> {
    /// A composer for `detector` over `view`.
    pub fn new(detector: &'d LeiShen, view: &'d ChainView<'v>) -> Self {
        Composer {
            detector,
            view,
            tagged: Vec::new(),
            coalesced: Vec::new(),
            patterns: PatternScratch::default(),
            timed_scratch: AnalysisScratch::default(),
            counts: StageCounts::default(),
        }
    }

    /// Analyzes `tx` twice: re-composed from the stage functions with a
    /// `tx` span and its stage spans under `parent`, and whole through
    /// `LeiShen::analyze_scratch` as one `detector.analyze` span. The two
    /// resolve tags through separate fronts over separate caches, so both
    /// meet the same cache misses; which runs first alternates per
    /// transaction. Both results are checked against
    /// `LeiShen::analyze_cached` on `reference`; the composed one is
    /// returned.
    pub fn tx(
        &mut self,
        tx: &TxRecord,
        composed_front: &mut LocalTagCache<'_>,
        timed_front: &mut LocalTagCache<'_>,
        reference: &TagCache,
        spans: &mut Spans,
        parent: SpanId,
    ) -> Analysis {
        let (composed, timed) = if self.counts.txs.is_multiple_of(2) {
            let composed = self.composed(tx, composed_front, spans, parent);
            (composed, self.timed(tx, timed_front, spans, parent))
        } else {
            let timed = self.timed(tx, timed_front, spans, parent);
            (self.composed(tx, composed_front, spans, parent), timed)
        };
        let expected = self.detector.analyze_cached(tx, self.view, reference);
        if composed != expected || timed != expected {
            self.counts.mismatches += 1;
        }
        self.counts.txs += 1;
        self.counts.flagged += u64::from(composed.is_attack());
        composed
    }

    fn timed(
        &mut self,
        tx: &TxRecord,
        front: &mut LocalTagCache<'_>,
        spans: &mut Spans,
        parent: SpanId,
    ) -> Analysis {
        let (labels, creations) = (self.view.labels(), self.view.creations());
        let start = spans.now();
        let analysis = self.detector.analyze_scratch(
            tx,
            self.view,
            &mut |addr| front.resolve(addr, labels, creations),
            &mut self.timed_scratch,
        );
        let end = spans.now();
        spans.record("detector.analyze", tx.id.0, Some(parent), start, end);
        analysis
    }

    fn composed(
        &mut self,
        tx: &TxRecord,
        front: &mut LocalTagCache<'_>,
        spans: &mut Spans,
        parent: SpanId,
    ) -> Analysis {
        let (labels, creations) = (self.view.labels(), self.view.creations());
        let config = self.detector.config();
        // Stage boundaries are read as the stages run and turned into
        // spans afterwards, so recording costs no stage any time.
        let mut marks = [0u64; STAGES.len() + 1];
        marks[0] = spans.now();

        let flash_loans = if tx.status.is_success() {
            identify_flash_loans(tx)
        } else {
            Vec::new()
        };
        marks[1] = spans.now();
        if flash_loans.is_empty() {
            record_stages(spans, tx.id.0, parent, &marks[..2]);
            return Analysis {
                flash_loans,
                account_transfer_count: tx.trace.transfers.len(),
                app_transfers: Vec::new(),
                trades: Vec::new(),
                matches: Vec::new(),
                borrower_tags: Vec::new(),
            };
        }

        let split = config.coalesce_split_transfers && has_split_transfers(&tx.trace.transfers);
        let journal: &[Transfer] = if split {
            coalesce_transfers(&tx.trace.transfers, &mut self.coalesced);
            &self.coalesced
        } else {
            &tx.trace.transfers
        };
        let journal_len = journal.len();
        marks[2] = spans.now();

        tag_transfers_with_into(
            journal,
            |addr| front.resolve(addr, labels, creations),
            &mut self.tagged,
        );
        marks[3] = spans.now();

        let mut app_transfers = Vec::with_capacity(self.tagged.len());
        let simplified = simplify_drain_observed(
            &mut self.tagged,
            self.view.weth(),
            config,
            &mut app_transfers,
            |_| {},
        );
        marks[4] = spans.now();

        let mut trades = Vec::with_capacity(app_transfers.len() / 2 + 1);
        identify_trades_into(&app_transfers, &mut trades);
        marks[5] = spans.now();

        let mut borrower_tags: Vec<Tag> = Vec::new();
        for loan in &flash_loans {
            let tag = front.resolve(loan.borrower, labels, creations);
            if !borrower_tags.contains(&tag) {
                borrower_tags.push(tag);
            }
        }
        let initiator = front.resolve(tx.from, labels, creations);
        if !borrower_tags.contains(&initiator) {
            borrower_tags.push(initiator);
        }
        marks[6] = spans.now();

        let legs = all_legs(&trades);
        let mut matches: Vec<PatternMatch> = Vec::new();
        let mut pairs = 0usize;
        let mut found_total = 0usize;
        for tag in &borrower_tags {
            let found = match_all_legs_scratch(&legs, tag, config, &mut self.patterns);
            pairs += self.patterns.pairs_examined();
            found_total += found.len();
            for m in found {
                if !matches.iter().any(|have| same_match(have, &m)) {
                    matches.push(m);
                }
            }
        }
        drop(legs);
        marks[7] = spans.now();
        record_stages(spans, tx.id.0, parent, &marks);

        let c = &mut self.counts;
        c.loans += flash_loans.len() as u64;
        c.lookups += (2 * journal_len + flash_loans.len() + 1) as u64;
        c.coalesced_txs += u64::from(split);
        c.merged += u64::from(simplified.merged);
        c.dropped += u64::from(simplified.dropped);
        c.trades += trades.len() as u64;
        c.pairs_examined += pairs as u64;
        c.matches += found_total as u64;
        Analysis {
            flash_loans,
            account_transfer_count: tx.trace.transfers.len(),
            app_transfers,
            trades,
            matches,
            borrower_tags,
        }
    }
}

/// The composed pipeline's stage spans in execution order; tagging runs
/// twice, over the transfer journal and over the borrower identities.
pub const STAGES: [&str; 7] = [
    "flashloan",
    "simplify.coalesce",
    "tagging",
    "simplify",
    "trades",
    "tagging",
    "patterns",
];

/// Records a `tx` span over `marks` and one child span per stage between
/// consecutive marks.
fn record_stages(spans: &mut Spans, trace: u64, parent: SpanId, marks: &[u64]) {
    let tx = spans.record("tx", trace, Some(parent), marks[0], marks[marks.len() - 1]);
    for (name, bounds) in STAGES.iter().zip(marks.windows(2)) {
        spans.record(name, trace, Some(tx), bounds[0], bounds[1]);
    }
}

/// The detector's dedup rule for matches found under several borrower
/// tags (volatility compared by bit pattern).
fn same_match(a: &PatternMatch, b: &PatternMatch) -> bool {
    a.kind == b.kind
        && a.target_token == b.target_token
        && a.quote_token == b.quote_token
        && a.volatility.to_bits() == b.volatility.to_bits()
        && a.trade_seqs == b.trade_seqs
        && a.counterparty == b.counterparty
}

/// Per-layer metrics of the composed stages: self times and counts per
/// pass, and the timed analyze distribution. Returns the stage-sum
/// fidelity ratio: Σ stage self time ÷ Σ timed analyze.
pub fn stage_layers(
    layers: &mut Layers,
    spans: &Spans,
    composer: &Composer<'_, '_>,
    passes: f64,
) -> f64 {
    let own = spans.self_ns_by_name();
    let self_ms = |name: &str| own.get(name).copied().unwrap_or(0) as f64 / 1e6 / passes;
    layers.set("flashloan.self_ms", self_ms("flashloan"));
    layers.set("tagging.self_ms", self_ms("tagging"));
    layers.set(
        "simplify.self_ms",
        self_ms("simplify.coalesce") + self_ms("simplify"),
    );
    layers.set("trades.self_ms", self_ms("trades"));
    layers.set("patterns.self_ms", self_ms("patterns"));

    // Compare stage and analyze time net of the clock reads that delimit
    // them: a transaction's stages are cut by seven reads, its timed
    // analyze by one, and for a short analysis the difference alone is
    // several percent of it.
    let mut stage_names = STAGES.to_vec();
    stage_names.sort_unstable();
    stage_names.dedup();
    let stage_ns: u64 = stage_names
        .iter()
        .map(|s| own.get(s).copied().unwrap_or(0))
        .sum();
    let stage_spans: usize = stage_names.iter().map(|s| spans.durations(s).len()).sum();
    let analyze = sorted(spans.durations("detector.analyze"));
    let analyze_ns: f64 = analyze.iter().sum();
    let net_stage = stage_ns as f64 - stage_spans as f64 * spans.read_ns();
    let net_analyze = analyze_ns - analyze.len() as f64 * spans.read_ns();
    let tx_ns: f64 = spans.durations("tx").iter().sum();
    let us: Vec<f64> = analyze.iter().map(|ns| ns / 1e3).collect();
    let c = composer.counts;
    let ratio = net_stage / net_analyze.max(1.0);
    layers.set("detector.analyze_us_p50", percentile(&us, 50.0));
    layers.set("detector.analyze_us_p99", tail_or_max(&us));
    layers.set("detector.samples", us.len() as f64);
    layers.set("detector.stage_sum_ratio", ratio);
    layers.set(
        "detector.flagged_share",
        c.flagged as f64 / c.txs.max(1) as f64,
    );
    layers.set(
        "detector.traced_tx_per_s",
        c.txs as f64 / (tx_ns / 1e9).max(1e-9),
    );
    layers.set(
        "detector.untraced_tx_per_s",
        c.txs as f64 / (analyze_ns / 1e9).max(1e-9),
    );

    let front = sorted(
        spans
            .durations("tagging.front_build")
            .iter()
            .map(|ns| ns / 1e6)
            .collect(),
    );
    layers.set("tagging.front_build_ms_p50", percentile(&front, 50.0));
    layers.set("tagging.front_build_ms_p99", tail_or_max(&front));

    let per = |v: u64| v as f64 / passes;
    layers.set("flashloan.loans", per(c.loans));
    layers.set("tagging.lookups", per(c.lookups));
    layers.set("simplify.coalesced_txs", per(c.coalesced_txs));
    layers.set("simplify.merged", per(c.merged));
    layers.set("simplify.dropped", per(c.dropped));
    layers.set("trades.count", per(c.trades));
    layers.set("patterns.pairs_examined", per(c.pairs_examined));
    layers.set("patterns.matches", per(c.matches));
    layers.set(
        "patterns.match_ratio",
        c.matches as f64 / c.pairs_examined.max(1) as f64,
    );
    ratio
}

/// The traced-run fidelity gates shared by every workload.
pub fn fidelity_gates(outcome: &mut Outcome, composer: &Composer<'_, '_>, layers_ratio: f64) {
    let c = composer.counts;
    outcome.gate(
        "composed stages equal LeiShen::analyze_cached for every tx",
        c.mismatches == 0,
        format!("{} of {} transactions differ", c.mismatches, c.txs),
    );
    outcome.gate(
        "stage self times sum to the timed analyze within 10%",
        (layers_ratio - 1.0).abs() <= 0.10,
        format!("stage_sum_ratio {layers_ratio:.4}"),
    );
}
