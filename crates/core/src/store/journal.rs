//! The write-ahead verdict/quarantine journal under the streaming
//! service.
//!
//! One [`SegmentLog`] frame per emitted block — a compact digest of
//! every verdict (cleared / flagged-with-patterns / quarantined-with-
//! reason), *not* the full [`crate::Analysis`]: the journal exists to
//! make the emission record durable, and must never perturb the scan
//! whose equivalence the golden tests pin. Periodic [`Checkpoint`]
//! frames carry the cumulative block/tx position and the detector-config
//! fingerprint ([`crate::DetectorConfig::fingerprint`]); a journal
//! written under one config refuses to resume under another, because
//! the durable prefix would no longer predict what the detector emits.
//!
//! Recovery is the [`SegmentLog`] contract: reopen replays the clean
//! checksummed prefix and truncates the torn tail. Everything replayed
//! is the durable prefix [`crate::stream::StreamService::resume`] skips
//! — under [`super::FsyncPolicy::Always`] an acknowledged block is
//! always in that prefix, which is what makes re-emission exactly-once
//! across process death.

use crate::resilience::Verdict;

use super::codec::{Dec, Enc};
use super::media::Media;
use super::segment::{LogConfig, LogMetrics, RecoveryReport, SegmentLog};
use super::StoreError;

/// Frame type for one emitted block of verdicts.
const FRAME_BLOCK: u8 = 1;
/// Frame type for a checkpoint.
const FRAME_CHECKPOINT: u8 = 2;

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// The durable digest of one verdict — what the journal needs to prove
/// exactly-once emission and survive quarantine reports, nothing more.
/// An [`crate::Analysis`] carries no transaction id (verdicts are
/// positional), so analyzed records are keyed by corpus index — the
/// same coordinate the stream's quarantine rebasing uses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerdictRecord {
    /// Analyzed, not an attack.
    Cleared {
        /// Corpus index of the transaction.
        index: u64,
    },
    /// Analyzed and flagged as a flash-loan attack.
    Flagged {
        /// Corpus index of the transaction.
        index: u64,
        /// Display names of the matched patterns, in match order.
        patterns: Vec<String>,
    },
    /// Quarantined — the durable copy of the report, so a corrupted tx
    /// reported before a crash is still reported after restart.
    Quarantined {
        /// Transaction id.
        tx: u64,
        /// Position in the scanned corpus (stream-rebased).
        index: u64,
        /// [`crate::resilience::Fault::code`].
        code: String,
        /// [`crate::resilience::Quarantine::reason`].
        reason: String,
        /// Analysis attempts before giving up.
        attempts: u32,
    },
}

impl VerdictRecord {
    /// Digests a live [`Verdict`] at corpus position `index` down to
    /// its durable record.
    pub fn from_verdict(verdict: &Verdict, index: u64) -> Self {
        match verdict {
            Verdict::Analyzed(a) => {
                if a.is_attack() {
                    VerdictRecord::Flagged {
                        index,
                        patterns: a.matches.iter().map(|m| m.kind.to_string()).collect(),
                    }
                } else {
                    VerdictRecord::Cleared { index }
                }
            }
            Verdict::Indeterminate(q) => VerdictRecord::Quarantined {
                tx: q.tx.0,
                index: q.index as u64,
                code: q.fault.code().to_string(),
                reason: q.reason(),
                attempts: q.attempts,
            },
        }
    }

    /// The corpus index this record is keyed by.
    pub fn index(&self) -> u64 {
        match self {
            VerdictRecord::Cleared { index }
            | VerdictRecord::Flagged { index, .. }
            | VerdictRecord::Quarantined { index, .. } => *index,
        }
    }

    /// Whether this record is a quarantine report.
    pub fn is_quarantine(&self) -> bool {
        matches!(self, VerdictRecord::Quarantined { .. })
    }

    /// Whether this record flags an attack.
    pub fn is_attack(&self) -> bool {
        matches!(self, VerdictRecord::Flagged { .. })
    }

    fn encode(&self, enc: &mut Enc) {
        match self {
            VerdictRecord::Cleared { index } => {
                enc.u8(0);
                enc.u64(*index);
            }
            VerdictRecord::Flagged { index, patterns } => {
                enc.u8(1);
                enc.u64(*index);
                enc.u32(patterns.len() as u32);
                for p in patterns {
                    enc.str(p);
                }
            }
            VerdictRecord::Quarantined { tx, index, code, reason, attempts } => {
                enc.u8(2);
                enc.u64(*tx);
                enc.u64(*index);
                enc.u32(*attempts);
                enc.str(code);
                enc.str(reason);
            }
        }
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, StoreError> {
        match dec.u8("verdict tag")? {
            0 => Ok(VerdictRecord::Cleared { index: dec.u64("index")? }),
            1 => {
                let index = dec.u64("index")?;
                let n = dec.u32("pattern count")? as usize;
                let mut patterns = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    patterns.push(dec.str("pattern")?);
                }
                Ok(VerdictRecord::Flagged { index, patterns })
            }
            2 => Ok(VerdictRecord::Quarantined {
                tx: dec.u64("tx")?,
                index: dec.u64("index")?,
                attempts: dec.u32("attempts")?,
                code: dec.str("fault code")?,
                reason: dec.str("reason")?,
            }),
            tag => Err(StoreError::corrupt(format!("unknown verdict tag {tag}"))),
        }
    }
}

/// One durably emitted block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DurableBlock {
    /// Stream block number.
    pub number: u64,
    /// Corpus index of the block's first transaction.
    pub base: u64,
    /// One record per transaction, in corpus order.
    pub verdicts: Vec<VerdictRecord>,
}

impl DurableBlock {
    fn encode(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.u64(self.number);
        enc.u64(self.base);
        enc.u32(self.verdicts.len() as u32);
        for v in &self.verdicts {
            v.encode(&mut enc);
        }
        enc.finish()
    }

    fn decode(payload: &[u8]) -> Result<Self, StoreError> {
        let mut dec = Dec::new(payload);
        let number = dec.u64("block number")?;
        let base = dec.u64("block base")?;
        let n = dec.u32("verdict count")? as usize;
        let mut verdicts = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            verdicts.push(VerdictRecord::decode(&mut dec)?);
        }
        if !dec.finished() {
            return Err(StoreError::corrupt("trailing bytes after block payload"));
        }
        Ok(DurableBlock { number, base, verdicts })
    }
}

/// A durable position marker: how far the journal had provably gotten,
/// under which detector config.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Blocks journaled at the time of the checkpoint.
    pub blocks: u64,
    /// Transactions journaled at the time of the checkpoint.
    pub txs: u64,
    /// [`crate::DetectorConfig::fingerprint`] of the detector that
    /// wrote every frame up to here.
    pub fingerprint: u64,
}

impl Checkpoint {
    fn encode(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.u64(self.blocks);
        enc.u64(self.txs);
        enc.u64(self.fingerprint);
        enc.finish()
    }

    fn decode(payload: &[u8]) -> Result<Self, StoreError> {
        let mut dec = Dec::new(payload);
        let cp = Checkpoint {
            blocks: dec.u64("checkpoint blocks")?,
            txs: dec.u64("checkpoint txs")?,
            fingerprint: dec.u64("checkpoint fingerprint")?,
        };
        if !dec.finished() {
            return Err(StoreError::corrupt("trailing bytes after checkpoint"));
        }
        Ok(cp)
    }
}

// ---------------------------------------------------------------------------
// The journal
// ---------------------------------------------------------------------------

/// Journal tuning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalConfig {
    /// Segment log tuning (segment size, fsync policy).
    pub log: LogConfig,
    /// Write a [`Checkpoint`] frame every this many blocks (a genesis
    /// checkpoint is always written when a journal is created, so the
    /// config fingerprint is verifiable from the first frame on).
    pub checkpoint_interval: u64,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig { log: LogConfig::default(), checkpoint_interval: 16 }
    }
}

/// What opening a journal found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalRecovery {
    /// Segment-level damage report.
    pub log: RecoveryReport,
    /// Durable blocks replayed.
    pub blocks: u64,
    /// Durable transactions replayed.
    pub txs: u64,
    /// Checkpoint frames replayed.
    pub checkpoints: u64,
    /// Whether the journal was empty and a genesis checkpoint was
    /// written.
    pub created: bool,
}

/// The write-ahead verdict journal. See the module docs.
#[derive(Debug)]
pub struct VerdictJournal<M: Media> {
    log: SegmentLog<M>,
    checkpoint_interval: u64,
    fingerprint: u64,
    blocks: Vec<DurableBlock>,
    txs: u64,
    checkpoints: u64,
    blocks_since_checkpoint: u64,
}

impl<M: Media> VerdictJournal<M> {
    /// Opens (recovering) or creates a journal on `media` for a
    /// detector with the given config `fingerprint`.
    ///
    /// A surviving journal written under a *different* fingerprint
    /// fails with [`StoreError::ConfigMismatch`] — its durable prefix
    /// would not predict this detector's output, so resuming over it
    /// could silently change verdicts. Re-scan from scratch instead.
    pub fn open(
        media: M,
        config: JournalConfig,
        fingerprint: u64,
    ) -> Result<(Self, JournalRecovery), StoreError> {
        let mut blocks: Vec<DurableBlock> = Vec::new();
        let mut last_checkpoint: Option<Checkpoint> = None;
        let mut checkpoints = 0u64;
        let (log, log_report) = SegmentLog::open(media, config.log, |kind, payload| {
            match kind {
                FRAME_BLOCK => blocks.push(DurableBlock::decode(payload)?),
                FRAME_CHECKPOINT => {
                    last_checkpoint = Some(Checkpoint::decode(payload)?);
                    checkpoints += 1;
                }
                other => {
                    return Err(StoreError::corrupt(format!("unknown frame type {other}")));
                }
            }
            Ok(())
        })?;

        if let Some(cp) = last_checkpoint {
            if cp.fingerprint != fingerprint {
                return Err(StoreError::ConfigMismatch {
                    journal: cp.fingerprint,
                    detector: fingerprint,
                });
            }
        }

        let txs: u64 = blocks.iter().map(|b| b.verdicts.len() as u64).sum();
        let mut report = JournalRecovery {
            log: log_report,
            blocks: blocks.len() as u64,
            txs,
            checkpoints,
            created: false,
        };
        let mut journal = VerdictJournal {
            log,
            checkpoint_interval: config.checkpoint_interval.max(1),
            fingerprint,
            blocks,
            txs,
            checkpoints,
            blocks_since_checkpoint: 0,
        };
        if checkpoints == 0 {
            // Fresh journal (or one whose genesis was torn away, which
            // recovery reduces to the same empty state): stamp the
            // config fingerprint before anything else is written.
            journal.checkpoint()?;
            report.created = true;
        }
        Ok((journal, report))
    }

    /// Journals one emitted block. Called by the emitter *before* the
    /// block's report is surfaced — write-ahead, so anything the caller
    /// observed is durable.
    pub fn append_block(
        &mut self,
        number: u64,
        base: u64,
        verdicts: &[Verdict],
    ) -> Result<(), StoreError> {
        let records = verdicts
            .iter()
            .enumerate()
            .map(|(i, v)| VerdictRecord::from_verdict(v, base + i as u64))
            .collect();
        self.append_records(DurableBlock { number, base, verdicts: records })
    }

    fn append_records(&mut self, block: DurableBlock) -> Result<(), StoreError> {
        self.log.append(FRAME_BLOCK, &block.encode())?;
        self.txs += block.verdicts.len() as u64;
        self.blocks.push(block);
        self.blocks_since_checkpoint += 1;
        if self.blocks_since_checkpoint >= self.checkpoint_interval {
            // A failed auto-checkpoint must not retroactively fail the
            // block: its frame is already durable (the append above
            // flushed under [`FsyncPolicy::Always`]), so surfacing the
            // error here would leave a durable block the emitter never
            // emitted — recovery would skip it and the verdicts would
            // be lost to every observer. Checkpoints are rebuilt from
            // block frames at open, so the failure costs nothing now;
            // the poisoned log reports the crash on the *next* append.
            self.checkpoint().ok();
        }
        Ok(())
    }

    /// Writes and flushes a [`Checkpoint`] frame at the current
    /// position (flushed even under lazy fsync policies — a checkpoint
    /// that can be lost is not a checkpoint; under
    /// [`super::FsyncPolicy::Always`] the append's own flush is the only
    /// one).
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        let cp = Checkpoint {
            blocks: self.blocks.len() as u64,
            txs: self.txs,
            fingerprint: self.fingerprint,
        };
        self.log.append(FRAME_CHECKPOINT, &cp.encode())?;
        self.log.flush()?;
        self.checkpoints += 1;
        self.blocks_since_checkpoint = 0;
        Ok(())
    }

    /// Every durable block, in emission order.
    pub fn blocks(&self) -> &[DurableBlock] {
        &self.blocks
    }

    /// `(block number, transaction count)` of each durable block — the
    /// prefix [`crate::stream::StreamService::resume`] skips.
    pub fn durable_prefix(&self) -> Vec<(u64, usize)> {
        self.blocks.iter().map(|b| (b.number, b.verdicts.len())).collect()
    }

    /// Every durable quarantine report, as `(block number, record)`.
    pub fn quarantines(&self) -> Vec<(u64, VerdictRecord)> {
        self.blocks
            .iter()
            .flat_map(|b| {
                b.verdicts
                    .iter()
                    .filter(|v| v.is_quarantine())
                    .map(move |v| (b.number, v.clone()))
            })
            .collect()
    }

    /// Durable transactions journaled.
    pub fn txs(&self) -> u64 {
        self.txs
    }

    /// Checkpoint frames written or replayed.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// The config fingerprint this journal is stamped with.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Underlying log write counters.
    pub fn log_metrics(&self) -> LogMetrics {
        self.log.metrics()
    }

    /// Consumes the journal and returns the media (crash campaigns
    /// extract the survivor for reopen).
    pub fn into_media(self) -> M {
        self.log.into_media()
    }
}

#[cfg(test)]
mod tests {
    use ethsim::TxId;

    use crate::resilience::{Fault, Quarantine, Verdict};

    use super::super::media::MemMedia;
    use super::*;

    fn quarantined(tx: u64, index: usize) -> Verdict {
        Verdict::Indeterminate(Quarantine {
            tx: TxId(tx),
            index,
            fault: Fault::Panic { message: "boom".to_string() },
            stage: None,
            attempts: 2,
        })
    }

    #[test]
    fn fresh_journal_writes_genesis_checkpoint() {
        let (journal, report) =
            VerdictJournal::open(MemMedia::new(), JournalConfig::default(), 0xABCD).unwrap();
        assert!(report.created);
        assert_eq!(journal.checkpoints(), 1);
        assert_eq!(journal.blocks().len(), 0);

        // Reopen: the genesis checkpoint survives, nothing is created.
        let media = journal.into_media();
        let (journal, report) =
            VerdictJournal::open(media, JournalConfig::default(), 0xABCD).unwrap();
        assert!(!report.created);
        assert_eq!(report.checkpoints, 1);
        assert_eq!(journal.checkpoints(), 1);
    }

    #[test]
    fn blocks_round_trip_through_reopen() {
        let (mut journal, _) =
            VerdictJournal::open(MemMedia::new(), JournalConfig::default(), 7).unwrap();
        journal.append_block(0, 0, &[quarantined(10, 0), quarantined(11, 1)]).unwrap();
        journal.append_block(1, 2, &[quarantined(12, 2)]).unwrap();
        assert_eq!(journal.txs(), 3);
        assert_eq!(journal.durable_prefix(), vec![(0, 2), (1, 1)]);

        let media = journal.into_media();
        let (journal, report) = VerdictJournal::open(media, JournalConfig::default(), 7).unwrap();
        assert_eq!(report.blocks, 2);
        assert_eq!(report.txs, 3);
        assert!(!report.log.truncated);
        assert_eq!(journal.durable_prefix(), vec![(0, 2), (1, 1)]);
        let q = journal.quarantines();
        assert_eq!(q.len(), 3);
        assert_eq!(
            q[0].1,
            VerdictRecord::Quarantined {
                tx: 10,
                index: 0,
                code: "panic".to_string(),
                reason: "panic".to_string(),
                attempts: 2,
            }
        );
    }

    #[test]
    fn flagged_records_round_trip() {
        let (mut journal, _) =
            VerdictJournal::open(MemMedia::new(), JournalConfig::default(), 7).unwrap();
        let block = DurableBlock {
            number: 4,
            base: 40,
            verdicts: vec![
                VerdictRecord::Cleared { index: 40 },
                VerdictRecord::Flagged {
                    index: 41,
                    patterns: vec!["KRP".to_string(), "SBS".to_string()],
                },
            ],
        };
        journal.append_records(block.clone()).unwrap();
        let (journal, _) =
            VerdictJournal::open(journal.into_media(), JournalConfig::default(), 7).unwrap();
        assert_eq!(journal.blocks(), &[block]);
        assert!(journal.blocks()[0].verdicts[1].is_attack());
    }

    #[test]
    fn config_mismatch_refuses_resume() {
        let (journal, _) =
            VerdictJournal::open(MemMedia::new(), JournalConfig::default(), 111).unwrap();
        let media = journal.into_media();
        let err = VerdictJournal::open(media, JournalConfig::default(), 222).unwrap_err();
        assert_eq!(err, StoreError::ConfigMismatch { journal: 111, detector: 222 });
    }

    #[test]
    fn failed_auto_checkpoint_defers_to_the_next_append() {
        use super::super::media::{ArmedIoFault, FaultMedia};
        use crate::resilience::IoFault;

        // Media appends: 0 = genesis checkpoint, 1 = first block,
        // 2 = the auto-checkpoint the interval of 1 forces. Tearing
        // append 2 kills the checkpoint but NOT the already-durable
        // block — append_block must still return Ok (the emitter
        // surfaced that block), and only the next append reports death.
        let armed = ArmedIoFault {
            fault: IoFault::TornFrame,
            at_byte: u64::MAX,
            at_append: 2,
            at_flush: u64::MAX,
            flip_seed: 9,
        };
        let config = JournalConfig { checkpoint_interval: 1, ..JournalConfig::default() };
        let media = FaultMedia::new(MemMedia::new(), armed);
        let (mut journal, _) = VerdictJournal::open(media, config, 7).unwrap();
        journal.append_block(0, 0, &[quarantined(1, 0)]).expect("block durable, cp deferred");
        let err = journal.append_block(1, 1, &[quarantined(2, 1)]).unwrap_err();
        assert_eq!(err, StoreError::Poisoned);

        // The survivor holds exactly the acknowledged block.
        let survivor = journal.into_media().into_survivor();
        let (journal, report) = VerdictJournal::open(survivor, config, 7).unwrap();
        assert!(report.log.truncated, "the torn checkpoint frame was cut");
        assert_eq!(journal.durable_prefix(), vec![(0, 1)]);
    }

    #[test]
    fn always_policy_flushes_once_per_frame() {
        let n = 40;
        let (mut journal, _) =
            VerdictJournal::open(MemMedia::new(), JournalConfig::default(), 7).unwrap();
        for i in 0..n {
            journal.append_block(i, i, &[quarantined(i, 0)]).unwrap();
        }
        let m = journal.log_metrics();
        assert_eq!(m.rotations, 0);
        assert_eq!(journal.checkpoints(), n / 16 + 1);
        assert_eq!(m.flushes, n + n / 16 + 1);
        assert_eq!(m.flushes, m.frames);
    }

    #[test]
    fn a_checkpoint_flushes_under_every_n() {
        use super::super::FsyncPolicy;

        let log = LogConfig { fsync: FsyncPolicy::EveryN(4), ..LogConfig::default() };
        let config = JournalConfig { log, checkpoint_interval: 2 };
        let (mut journal, _) = VerdictJournal::open(MemMedia::new(), config, 7).unwrap();
        assert_eq!(journal.log_metrics().flushes, 1, "the genesis checkpoint flushes");
        journal.append_block(0, 0, &[quarantined(0, 0)]).unwrap();
        assert_eq!(journal.log_metrics().flushes, 1, "two frames are below EveryN(4)");
        journal.append_block(1, 1, &[quarantined(1, 0)]).unwrap();
        assert_eq!(journal.log_metrics().flushes, 2, "the interval's checkpoint flushes");
    }

    #[test]
    fn checkpoint_interval_is_honored() {
        let config = JournalConfig { checkpoint_interval: 2, ..JournalConfig::default() };
        let (mut journal, _) = VerdictJournal::open(MemMedia::new(), config, 7).unwrap();
        assert_eq!(journal.checkpoints(), 1); // genesis
        for n in 0..4 {
            journal.append_block(n, n * 2, &[quarantined(n, 0)]).unwrap();
        }
        // Two more checkpoints at blocks 2 and 4.
        assert_eq!(journal.checkpoints(), 3);
    }
}
