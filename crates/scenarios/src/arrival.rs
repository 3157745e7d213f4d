//! Arrival curves: deterministic block-boundary schedules for the stream.
//!
//! The streaming service ([`leishen::stream`]) consumes a corpus one
//! block at a time; *how* the corpus is cut into blocks — and how fast
//! those blocks arrive — is the arrival curve. The batch≡stream
//! equivalence contract says the cut must never matter for verdicts, so
//! the curves here exist to (a) drive that property over interesting
//! partitions and (b) give the `stream` bench realistic load shapes:
//!
//! * [`ArrivalCurve::Steady`] — the block clock: fixed-size blocks at a
//!   fixed cadence, the paper's "monitor each new block" deployment.
//! * [`ArrivalCurve::Bursty`] — mempool weather: block sizes drawn from
//!   a seeded spread around a mean, with periodic burst blocks several
//!   times the mean, back-to-back (zero gap) like a reorg flush.
//! * [`ArrivalCurve::Adversarial`] — burst-of-attacks: long quiet
//!   stretches of small blocks, then every marked transaction run
//!   packed into single oversized blocks, modelling an attacker
//!   landing a multi-tx exploit in one block while the scanner is
//!   saturated.
//!
//! A curve is pure data: [`ArrivalCurve::blocks`] partitions `0..n`
//! into contiguous index ranges (every index exactly once, in order),
//! [`ArrivalCurve::cut`] turns that partition of a corpus into numbered
//! [`Block`]s, and [`ArrivalCurve::gaps_us`] yields the inter-arrival
//! gap before each block for benches that replay against a clock. All
//! are deterministic in the seed, so a CI failure reproduces from the
//! log line. Every harness that cuts a corpus into blocks cuts it here:
//! fixed-size blocks are `steady(k)`, one block per transaction is
//! `steady(1)`.

use std::ops::Range;

use ethsim::TxRecord;
use leishen::stream::Block;

/// A deterministic xorshift generator, matching the repo's convention
/// of small seeded PRNGs over external randomness.
#[derive(Clone, Debug)]
struct Xorshift(u64);

impl Xorshift {
    fn new(seed: u64) -> Self {
        // Avoid the all-zero fixed point while keeping seed 0 usable.
        Xorshift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in `[lo, hi]` (inclusive).
    fn in_range(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo <= hi);
        lo + (self.next() as usize) % (hi - lo + 1)
    }
}

/// How a corpus of `n` transactions arrives at the stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArrivalCurve {
    /// Fixed-size blocks on a fixed clock.
    Steady {
        /// Transactions per block (minimum 1).
        block_size: usize,
        /// Gap before each block, microseconds.
        gap_us: u64,
    },
    /// Seeded variation around `mean`, with every `period`-th block a
    /// burst of `burst × mean` transactions arriving with zero gap.
    Bursty {
        /// PRNG seed; the same seed reproduces the same schedule.
        seed: u64,
        /// Mean block size (minimum 1).
        mean: usize,
        /// Burst multiplier (burst blocks carry `burst * mean` txs).
        burst: usize,
        /// Every `period`-th block bursts (minimum 2).
        period: usize,
        /// Gap before each non-burst block, microseconds.
        gap_us: u64,
    },
    /// Quiet single/small blocks, except each contiguous run of
    /// *marked* transactions (the attacks) lands as one packed block.
    /// Built via [`ArrivalCurve::adversarial`], which captures the
    /// marks.
    Adversarial {
        /// PRNG seed for the quiet-stretch block sizes.
        seed: u64,
        /// Maximum quiet-block size (minimum 1).
        quiet: usize,
        /// Which transactions are attack-marked, by corpus index.
        marks: Vec<bool>,
    },
}

impl ArrivalCurve {
    /// A steady clock of `block_size`-transaction blocks.
    pub fn steady(block_size: usize) -> Self {
        ArrivalCurve::Steady {
            block_size: block_size.max(1),
            gap_us: 1_000,
        }
    }

    /// The bench's default bursty curve.
    pub fn bursty(seed: u64, mean: usize) -> Self {
        ArrivalCurve::Bursty {
            seed,
            mean: mean.max(1),
            burst: 8,
            period: 5,
            gap_us: 500,
        }
    }

    /// An adversarial burst-of-attacks curve: `marks[i]` is true when
    /// corpus index `i` is an attack transaction.
    pub fn adversarial(seed: u64, quiet: usize, marks: Vec<bool>) -> Self {
        ArrivalCurve::Adversarial {
            seed,
            quiet: quiet.max(1),
            marks,
        }
    }

    /// Stable name for reports: `steady`, `bursty`, `adversarial`.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalCurve::Steady { .. } => "steady",
            ArrivalCurve::Bursty { .. } => "bursty",
            ArrivalCurve::Adversarial { .. } => "adversarial",
        }
    }

    /// Partitions `0..n` into block index ranges: contiguous, in order,
    /// every index exactly once — the invariant the equivalence
    /// proptests rely on (`partition_covers_corpus` pins it here too).
    pub fn blocks(&self, n: usize) -> Vec<Range<usize>> {
        let mut out = Vec::new();
        match self {
            ArrivalCurve::Steady { block_size, .. } => {
                let mut start = 0;
                while start < n {
                    let end = (start + block_size).min(n);
                    out.push(start..end);
                    start = end;
                }
            }
            ArrivalCurve::Bursty {
                seed,
                mean,
                burst,
                period,
                ..
            } => {
                let mut rng = Xorshift::new(*seed);
                let period = (*period).max(2);
                let mut start = 0;
                let mut i = 0usize;
                while start < n {
                    let size = if i % period == period - 1 {
                        (mean * burst).max(1)
                    } else {
                        rng.in_range(1, mean * 2)
                    };
                    let end = (start + size).min(n);
                    out.push(start..end);
                    start = end;
                    i += 1;
                }
            }
            ArrivalCurve::Adversarial { seed, quiet, marks } => {
                let mut rng = Xorshift::new(*seed);
                let marked = |i: usize| marks.get(i).copied().unwrap_or(false);
                let mut start = 0;
                while start < n {
                    let end = if marked(start) {
                        // Pack the whole contiguous attack run into one
                        // oversized block.
                        let mut end = start + 1;
                        while end < n && marked(end) {
                            end += 1;
                        }
                        end
                    } else {
                        let mut end = (start + rng.in_range(1, *quiet)).min(n);
                        // Stop the quiet block at the first mark so the
                        // attack run starts on a block boundary.
                        if let Some(first) = (start..end).find(|&i| marked(i)) {
                            end = end.min(first.max(start + 1));
                        }
                        end
                    };
                    out.push(start..end);
                    start = end;
                }
            }
        }
        out
    }

    /// Cuts `records` into blocks along [`ArrivalCurve::blocks`]'s
    /// partition: block `i` is numbered `i` and carries the records of
    /// the `i`-th range.
    pub fn cut<'a>(&self, records: &[&'a TxRecord]) -> Vec<Block<'a>> {
        self.blocks(records.len())
            .into_iter()
            .enumerate()
            .map(|(i, range)| Block { number: i as u64, txs: records[range].to_vec() })
            .collect()
    }

    /// The inter-arrival gap (microseconds) before each of `blocks`,
    /// for benches replaying the schedule against a wall clock. Burst
    /// blocks arrive back-to-back (gap 0).
    pub fn gaps_us(&self, blocks: &[Range<usize>]) -> Vec<u64> {
        match self {
            ArrivalCurve::Steady { gap_us, .. } => vec![*gap_us; blocks.len()],
            ArrivalCurve::Bursty {
                mean,
                burst,
                gap_us,
                ..
            } => blocks
                .iter()
                .map(|b| if b.len() >= mean * burst { 0 } else { *gap_us })
                .collect(),
            ArrivalCurve::Adversarial { quiet, .. } => blocks
                .iter()
                .map(|b| if b.len() > *quiet { 0 } else { 200 })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_partition(blocks: &[Range<usize>], n: usize) {
        let mut next = 0;
        for b in blocks {
            assert_eq!(b.start, next, "blocks must be contiguous and ordered");
            assert!(b.end > b.start, "blocks must be non-empty");
            next = b.end;
        }
        assert_eq!(next, n, "blocks must cover the whole corpus");
    }

    #[test]
    fn partition_covers_corpus() {
        for n in [0usize, 1, 7, 100, 257] {
            assert_partition(&ArrivalCurve::steady(10).blocks(n), n);
            assert_partition(&ArrivalCurve::bursty(42, 6).blocks(n), n);
            let marks: Vec<bool> = (0..n).map(|i| i % 11 < 3).collect();
            assert_partition(&ArrivalCurve::adversarial(42, 4, marks).blocks(n), n);
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = ArrivalCurve::bursty(7, 5).blocks(200);
        let b = ArrivalCurve::bursty(7, 5).blocks(200);
        assert_eq!(a, b);
        let c = ArrivalCurve::bursty(8, 5).blocks(200);
        assert_ne!(a, c, "different seeds should cut differently");
    }

    #[test]
    fn bursty_curve_actually_bursts() {
        let curve = ArrivalCurve::bursty(42, 5);
        let blocks = curve.blocks(500);
        let max = blocks.iter().map(Range::len).max().unwrap();
        assert!(max >= 40, "expected a burst block of 8x mean, got {max}");
        let gaps = curve.gaps_us(&blocks);
        assert!(gaps.contains(&0), "bursts arrive back-to-back");
        assert!(gaps.iter().any(|&g| g > 0), "quiet blocks keep the clock");
    }

    #[test]
    fn adversarial_packs_attack_runs_into_single_blocks() {
        let n = 60;
        // Attacks at 20..28 and 45..50.
        let marks: Vec<bool> = (0..n).map(|i| (20..28).contains(&i) || (45..50).contains(&i)).collect();
        let blocks = ArrivalCurve::adversarial(3, 4, marks).blocks(n);
        assert_partition(&blocks, n);
        assert!(blocks.contains(&(20..28)), "attack run must be one block: {blocks:?}");
        assert!(blocks.contains(&(45..50)), "attack run must be one block: {blocks:?}");
    }
}
