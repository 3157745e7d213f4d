//! One producer per paper result.
//!
//! Tables I and IV come from the known-attack tally, [`table4_tally`].
//! Every wild-corpus result (Tables V–VII, Figs. 1 and 8, §VI-C, §VI-D,
//! §VI-D1 and the §VII sweep) is a function of one [`WildStudy`], which
//! replays and analyzes each transaction once under
//! [`DetectorConfig::paper`]. The paper bins and `scorecard` print these
//! functions and `tests/known_attacks.rs` and `tests/wild_scan.rs`
//! assert on them, so a bin and its test cannot measure different
//! things.

use std::collections::{BTreeMap, HashMap, HashSet};

use ethsim::calendar::{Date, MonthIndex, WeekIndex};
use ethsim::{Address, TokenId, TxRecord};
use leishen::heuristics::initiated_by_aggregator;
use leishen::patterns::PatternKind;
use leishen::{
    cluster_reports, pair_volatility, Analysis, AttackCluster, AttackReport, ChainView,
    DetectorConfig, Labels, LeiShen, PairVolatility, Provider,
};
use leishen_baselines::{DefiRanger, ExplorerLeiShen};
use leishen_scenarios::generator::{TxClass, AGGREGATOR_APPS};
use leishen_scenarios::{ExecutedAttack, GeneratedTx, World};

use crate::{wild_world, Cli};

/// The pair whose price moved most in an analyzed transaction: Table
/// I's volatility column and §VI-D's bands.
fn top_pair(analysis: &Analysis) -> Option<PairVolatility> {
    pair_volatility(&analysis.trades).into_iter().next()
}

/// Percent of `part` in `whole` (0 for an empty whole).
fn percent(part: usize, whole: usize) -> f64 {
    100.0 * part as f64 / whole.max(1) as f64
}

/// One known attack under the three Table IV detectors.
pub struct AttackFlags<'a> {
    /// The attack, with its Table I/IV expectations.
    pub attack: &'a ExecutedAttack,
    /// Its replayed record.
    pub record: &'a TxRecord,
    /// DeFiRanger flagged it.
    pub defiranger: bool,
    /// Explorer+LeiShen flagged it.
    pub explorer: bool,
    /// LeiShen's analysis under the paper configuration.
    pub analysis: Analysis,
    /// Table I's top-pair volatility, measured.
    pub top_pair: Option<PairVolatility>,
}

impl AttackFlags<'_> {
    /// LeiShen flagged it.
    pub fn leishen(&self) -> bool {
        self.analysis.is_attack()
    }

    /// Table I: LeiShen matched every pattern the paper assigns, for an
    /// attack the paper says it detects.
    pub fn patterns_match(&self) -> bool {
        let spec = &self.attack.spec;
        let matched = |k: &PatternKind| self.analysis.matches.iter().any(|m| m.kind == *k);
        !spec.expect_leishen || spec.patterns.iter().all(matched)
    }
}

/// The Table IV tally: every known attack under DeFiRanger,
/// Explorer+LeiShen and LeiShen (paper config), in Table I order.
pub fn table4_tally<'a>(world: &'a World, attacks: &'a [ExecutedAttack]) -> Vec<AttackFlags<'a>> {
    let labels = world.detector_labels();
    let view = world.view(&labels);
    let leishen = LeiShen::new(DetectorConfig::paper());
    let ranger = DefiRanger::new();
    let explorer = ExplorerLeiShen::new(DetectorConfig::paper());
    attacks
        .iter()
        .map(|attack| {
            let record = world.chain.replay(attack.tx).expect("recorded");
            let analysis = leishen.analyze(record, &view);
            AttackFlags {
                attack,
                record,
                defiranger: ranger.is_attack(record),
                explorer: explorer.is_attack(record),
                top_pair: top_pair(&analysis),
                analysis,
            }
        })
        .collect()
}

/// Table IV's totals: known attacks each detector flags.
pub struct Table4 {
    /// LeiShen.
    pub leishen: usize,
    /// DeFiRanger.
    pub defiranger: usize,
    /// Explorer+LeiShen.
    pub explorer: usize,
}

impl Table4 {
    /// Counts a [`table4_tally`].
    pub fn of(tally: &[AttackFlags<'_>]) -> Table4 {
        Table4 {
            leishen: tally.iter().filter(|t| t.leishen()).count(),
            defiranger: tally.iter().filter(|t| t.defiranger).count(),
            explorer: tally.iter().filter(|t| t.explorer).count(),
        }
    }
}

/// Detection counts over the wild corpus: Table V's, and each §VII
/// sweep row's.
#[derive(Default)]
pub struct Table5 {
    /// Transactions detected.
    pub detected: usize,
    /// Detected transactions that are true attacks.
    pub tp: usize,
    per: HashMap<PatternKind, (usize, usize)>,
}

impl Table5 {
    /// Counts `analysis` if it flags: per pattern, a hit is a TP when
    /// ground truth says that pattern is real.
    fn count(&mut self, class: TxClass, analysis: &Analysis) {
        if !analysis.is_attack() {
            return;
        }
        self.detected += 1;
        self.tp += class.is_attack() as usize;
        let mut kinds: Vec<PatternKind> = analysis.matches.iter().map(|m| m.kind).collect();
        kinds.sort();
        kinds.dedup();
        for kind in kinds {
            let slot = self.per.entry(kind).or_insert((0, 0));
            if class.pattern_is_true(kind) {
                slot.0 += 1;
            } else {
                slot.1 += 1;
            }
        }
    }

    /// Detected transactions that are not attacks.
    pub fn fp(&self) -> usize {
        self.detected - self.tp
    }

    /// Overall precision, in percent.
    pub fn precision(&self) -> f64 {
        percent(self.tp, self.detected)
    }

    /// `(TP, FP)` of one pattern.
    pub fn pattern(&self, kind: PatternKind) -> (usize, usize) {
        self.per.get(&kind).copied().unwrap_or((0, 0))
    }

    /// One pattern's precision, in percent.
    pub fn pattern_precision(&self, kind: PatternKind) -> f64 {
        let (tp, fp) = self.pattern(kind);
        percent(tp, tp + fp)
    }
}

/// One Table VI row: an application and who attacked it.
pub struct AppRow {
    /// The attacked application.
    pub app: &'static str,
    /// Detected unknown attacks on it.
    pub attacks: usize,
    /// Distinct attacker EOAs.
    pub attackers: usize,
    /// Distinct attack contracts.
    pub contracts: usize,
    /// Distinct attacked assets.
    pub assets: usize,
}

/// Table VII: (yield %, net profit $) of each detected true attack,
/// most profitable first.
pub struct Table7 {
    /// The samples, by profit descending.
    pub samples: Vec<(f64, f64)>,
}

impl Table7 {
    /// The table's rows as `(label, yield %, profit $)`: the mean, the
    /// minimum, the maximum, and the top 10% and 20% averages.
    pub fn rows(&self) -> [(&'static str, f64, f64); 5] {
        let n = self.samples.len();
        let avg = |k: usize| {
            let (top, k) = (&self.samples[..k], k.max(1) as f64);
            (top.iter().map(|s| s.0).sum::<f64>() / k, top.iter().map(|s| s.1).sum::<f64>() / k)
        };
        let top = |frac: f64| avg(((n as f64 * frac).ceil() as usize).max(1).min(n));
        let (mean, top10, top20) = (avg(n), top(0.10), top(0.20));
        let min = self.samples.last().copied().unwrap_or_default();
        let max = self.samples.first().copied().unwrap_or_default();
        [
            ("Mean", mean.0, mean.1),
            ("Min.", min.0, min.1),
            ("Max.", max.0, max.1),
            ("TOP 10% in AVG", top10.0, top10.1),
            ("TOP 20% in AVG", top20.0, top20.1),
        ]
    }
}

/// Fig. 8: detected unknown attacks per month.
pub struct Fig8 {
    /// Attacks per month, in month order.
    pub monthly: BTreeMap<MonthIndex, usize>,
}

impl Fig8 {
    /// Attacks in one calendar year.
    pub fn year(&self, year: i32) -> usize {
        let in_year = |m: &&MonthIndex| m.0.div_euclid(12) == year;
        self.monthly.iter().filter(|(m, _)| in_year(m)).map(|(_, n)| n).sum()
    }

    /// Attacks over the whole timeline.
    pub fn total(&self) -> usize {
        self.monthly.values().sum()
    }
}

/// The wild-corpus study: the world [`wild_world`] generates from
/// `(seed, scale)`, and LeiShen's analysis of each of its transactions
/// under [`DetectorConfig::paper`], made once.
pub struct WildStudy {
    /// The generator seed.
    pub seed: u64,
    /// The generator scale.
    pub scale: f64,
    /// The world after generation.
    pub world: World,
    /// Every generated transaction, with its ground truth.
    pub corpus: Vec<GeneratedTx>,
    /// The analysis of each transaction, in corpus order.
    pub analyses: Vec<Analysis>,
    /// The report of each flagged transaction, with its profit at the
    /// world's prices, in corpus order.
    reports: Vec<Option<AttackReport>>,
    labels: Labels,
}

impl WildStudy {
    /// Generates the corpus and analyzes each transaction once.
    pub fn new(seed: u64, scale: f64) -> WildStudy {
        let (world, corpus) = wild_world(seed, scale);
        let labels = world.detector_labels();
        let detector = LeiShen::new(DetectorConfig::paper());
        let (analyses, reports) = {
            let view = world.view(&labels);
            corpus
                .iter()
                .map(|gtx| {
                    let record = world.chain.replay(gtx.tx).expect("recorded");
                    let analysis = detector.analyze(record, &view);
                    let report = detector.report(record, &view, &analysis, Some(&world.prices));
                    (analysis, report)
                })
                .unzip()
        };
        WildStudy { seed, scale, world, corpus, analyses, reports, labels }
    }

    /// The study of a wild-corpus bin: `--seed` (default 42) and
    /// `--scale` (default 0.002) from its command line, which admits no
    /// other argument.
    pub fn from_cli(bin: &str) -> WildStudy {
        let mut cli = Cli::from_env();
        let (seed, scale) = (cli.value("--seed", 42), cli.value("--scale", 0.002));
        cli.finish(bin);
        eprintln!("generating corpus (seed={seed}, scale={scale})...");
        WildStudy::new(seed, scale)
    }

    /// `"wild corpus seed=42 scale=0.002"`: append it to assertion
    /// messages so a failure reproduces from its log line.
    pub fn provenance(&self) -> String {
        format!("wild corpus seed={} scale={}", self.seed, self.scale)
    }

    /// The detector's view of the world.
    pub fn view(&self) -> ChainView<'_> {
        self.world.view(&self.labels)
    }

    /// Each transaction's record, in corpus order.
    pub fn records(&self) -> Vec<&TxRecord> {
        let replay = |gtx: &GeneratedTx| self.world.chain.replay(gtx.tx).expect("recorded");
        self.corpus.iter().map(replay).collect()
    }

    /// Each transaction with its analysis and, when flagged, its report.
    fn scanned(&self) -> impl Iterator<Item = (&GeneratedTx, &Analysis, Option<&AttackReport>)> {
        let reports = self.reports.iter().map(Option::as_ref);
        self.corpus.iter().zip(&self.analyses).zip(reports).map(|((g, a), r)| (g, a, r))
    }

    /// The detected unknown attacks: the population of Table VI, Fig. 8
    /// and §VI-D.
    fn unknown_attacks(&self) -> impl Iterator<Item = (&GeneratedTx, &Analysis, &AttackReport)> {
        self.scanned()
            .filter(|(gtx, ..)| gtx.class.is_attack() && !gtx.known)
            .filter_map(|(gtx, analysis, report)| Some((gtx, analysis, report?)))
    }

    /// Table V; with `heuristic`, over only the detections the §VI-C
    /// aggregator-initiator heuristic keeps.
    pub fn table5(&self, heuristic: bool) -> Table5 {
        let view = self.view();
        let by_aggregator = |r: &AttackReport| {
            initiated_by_aggregator(r.initiator, AGGREGATOR_APPS, view.labels(), view.creations())
        };
        let mut table = Table5::default();
        for (gtx, analysis, report) in self.scanned() {
            if !(heuristic && report.is_some_and(by_aggregator)) {
                table.count(gtx.class, analysis);
            }
        }
        table
    }

    /// Table VI: every application the detected unknown attacks hit,
    /// most attacked first, ties by name.
    pub fn table6(&self) -> Vec<AppRow> {
        type Seen = (usize, HashSet<Address>, HashSet<Address>, HashSet<TokenId>);
        let mut per_app: HashMap<&'static str, Seen> = HashMap::new();
        for (gtx, ..) in self.unknown_attacks() {
            let seen = per_app.entry(gtx.attacked_app.unwrap_or("-")).or_default();
            seen.0 += 1;
            seen.1.extend(gtx.attacker);
            seen.2.extend(gtx.contract);
            seen.3.extend(gtx.asset);
        }
        let mut rows: Vec<AppRow> = per_app
            .into_iter()
            .map(|(app, (attacks, attackers, contracts, assets))| AppRow {
                app,
                attacks,
                attackers: attackers.len(),
                contracts: contracts.len(),
                assets: assets.len(),
            })
            .collect();
        rows.sort_by(|a, b| b.attacks.cmp(&a.attacks).then(a.app.cmp(b.app)));
        rows
    }

    /// §VI-D1: repeat-attack bursts (one initiator, under 24 hours
    /// apart) among the detected unknown attacks, largest first.
    pub fn bursts(&self) -> Vec<AttackCluster> {
        let reports: Vec<AttackReport> = self.unknown_attacks().map(|(.., r)| r.clone()).collect();
        cluster_reports(&reports, 24 * 3600)
    }

    /// Each detected true attack with its measured net profit ($), in
    /// corpus order.
    pub fn attack_profits(&self) -> Vec<(&GeneratedTx, f64)> {
        self.scanned()
            .filter(|(gtx, ..)| gtx.class.is_attack())
            .filter_map(|(gtx, _, report)| Some((gtx, report?.profit_usd.unwrap_or(0.0))))
            .collect()
    }

    /// Table VII, with each yield rate over the attack's borrowed amount.
    pub fn table7(&self) -> Table7 {
        let yield_pct = |gtx: &GeneratedTx, profit: f64| {
            if gtx.borrowed_usd > 0.0 {
                profit / gtx.borrowed_usd * 100.0
            } else {
                0.0
            }
        };
        let mut samples: Vec<(f64, f64)> =
            self.attack_profits().into_iter().map(|(g, p)| (yield_pct(g, p), p)).collect();
        samples.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        Table7 { samples }
    }

    /// Fig. 1: flash loans per week, as `[Uniswap, dYdX, AAVE]`, from
    /// LeiShen's own identification of each provider.
    pub fn fig1(&self) -> BTreeMap<WeekIndex, [usize; 3]> {
        let mut weekly: BTreeMap<WeekIndex, [usize; 3]> = BTreeMap::new();
        for (record, analysis) in self.records().into_iter().zip(&self.analyses) {
            let slot = weekly.entry(Date::from_unix(record.timestamp).week_index()).or_default();
            for loan in &analysis.flash_loans {
                slot[match loan.provider {
                    Provider::Uniswap => 0,
                    Provider::Dydx => 1,
                    Provider::Aave => 2,
                }] += 1;
            }
        }
        weekly
    }

    /// Fig. 8.
    pub fn fig8(&self) -> Fig8 {
        let mut monthly = BTreeMap::new();
        for (gtx, ..) in self.unknown_attacks() {
            *monthly.entry(gtx.month).or_insert(0) += 1;
        }
        Fig8 { monthly }
    }

    /// §VI-D: the detected unknown attacks per top-pair volatility band:
    /// below 1%, 1–3%, 3–100% and above 100%.
    pub fn volatility_bands(&self) -> [usize; 4] {
        let mut bands = [0; 4];
        for (_, analysis, _) in self.unknown_attacks() {
            let vol = top_pair(analysis).map_or(0.0, |v| v.volatility());
            bands[[0.01, 0.03, 1.0].iter().position(|&edge| vol < edge).unwrap_or(3)] += 1;
        }
        bands
    }

    /// §VII: what `config` flags, re-analyzing every transaction under
    /// it.
    pub fn sweep(&self, config: DetectorConfig) -> Table5 {
        let (view, detector) = (self.view(), LeiShen::new(config));
        let mut table = Table5::default();
        for (gtx, record) in self.corpus.iter().zip(self.records()) {
            table.count(gtx.class, &detector.analyze(record, &view));
        }
        table
    }

    /// §VII: the threshold sweep, one labelled row per configuration.
    pub fn ablation(&self) -> Vec<(String, Table5)> {
        let paper = DetectorConfig::paper();
        let mut configs = vec![("paper defaults".to_string(), paper)];
        configs.extend([3, 4, 6].map(|n| {
            (format!("KRP min buys = {n}"), DetectorConfig { krp_min_buys: n, ..paper })
        }));
        configs.extend([0.05, 0.15, 0.50].map(|v| {
            let label = format!("SBS min volatility = {:.0}%", v * 100.0);
            (label, DetectorConfig { sbs_min_volatility: v, ..paper })
        }));
        configs.extend([2, 4].map(|n| {
            (format!("MBS min rounds = {n}"), DetectorConfig { mbs_min_rounds: n, ..paper })
        }));
        configs.extend([0.0, 0.01].map(|t| {
            let label = format!("merge tolerance = {:.1}%", t * 100.0);
            (label, DetectorConfig { merge_tolerance: t, ..paper })
        }));
        configs.push(("relaxed (§VII example)".to_string(), DetectorConfig::relaxed()));
        let kdp = DetectorConfig { experimental_kdp: true, ..paper };
        configs.push(("+ experimental KDP pattern".to_string(), kdp));
        configs.into_iter().map(|(label, config)| (label, self.sweep(config))).collect()
    }
}
