//! Recovery properties of the durable verdict journal — this PR's
//! storage headline.
//!
//! The contract under test: however the media is damaged — a suffix
//! lost to power failure, a single bit flipped at rest, or any armed
//! [`IoFault`] landing mid-write — reopening the journal never panics,
//! never errors, and always yields a *clean checksummed prefix* of what
//! was acknowledged. For every fault except the at-rest bit flip the
//! recovered prefix is exactly the acknowledged block set (the
//! invariant the streaming layer's exactly-once resume is built on);
//! the bit flip may shorten it, never corrupt or reorder it.

use ethsim::TxId;
use leishen::resilience::{Fault, IoFault, IoFaultPlan, Quarantine, Verdict};
use leishen::store::{
    ArmedIoFault, DurableBlock, FaultMedia, FsyncPolicy, JournalConfig, LogConfig, Media,
    MemMedia, VerdictJournal, WriteTotals,
};
use proptest::prelude::*;

/// The fingerprint every journal in this suite is stamped with.
const FP: u64 = 0xFEED_BEEF;

/// A journal config with small segments, so multi-segment logs (and
/// cross-segment damage) are the common case, not the exception.
fn config(checkpoint_interval: u64) -> JournalConfig {
    JournalConfig {
        log: LogConfig { segment_bytes: 256, fsync: FsyncPolicy::Always },
        checkpoint_interval,
    }
}

fn quarantined(tx: u64, index: usize) -> Verdict {
    Verdict::Indeterminate(Quarantine {
        tx: TxId(tx),
        index,
        fault: Fault::Panic { message: format!("synthetic fault {tx}") },
        stage: None,
        attempts: 1,
    })
}

/// Builds a journal of `sizes.len()` blocks (block `i` holding
/// `sizes[i]` verdicts) and returns the acknowledged ground truth plus
/// the media it was written to.
fn build_journal(sizes: &[usize], cfg: JournalConfig) -> (Vec<DurableBlock>, MemMedia) {
    let (mut journal, report) = VerdictJournal::open(MemMedia::new(), cfg, FP).expect("fresh open");
    assert!(report.created);
    let mut base = 0u64;
    for (number, &len) in sizes.iter().enumerate() {
        let verdicts: Vec<Verdict> =
            (0..len).map(|i| quarantined(base + i as u64, base as usize + i)).collect();
        journal.append_block(number as u64, base, &verdicts).expect("healthy media");
        base += len as u64;
    }
    (journal.blocks().to_vec(), journal.into_media())
}

/// Loses every byte after global offset `cut`: the containing segment
/// is truncated there and every later segment removed — the shape of a
/// power loss under write-back caching.
fn lose_suffix(media: &mut MemMedia, cut: u64) {
    let mut remaining = cut;
    let mut cutting = false;
    for name in media.list() {
        if cutting {
            media.remove(&name).expect("mem media");
            continue;
        }
        let len = media.read(&name).expect("mem media").len() as u64;
        if remaining < len {
            media.truncate(&name, remaining).expect("mem media");
            cutting = true;
        } else {
            remaining -= len;
        }
    }
}

/// Flips one bit at a global byte offset — silent at-rest corruption.
fn flip_bit(media: &mut MemMedia, mut offset: u64, bit: u8) {
    for name in media.list() {
        let mut bytes = media.read(&name).expect("mem media");
        if offset < bytes.len() as u64 {
            bytes[offset as usize] ^= 1 << (bit % 8);
            media.truncate(&name, 0).expect("mem media");
            media.append(&name, &bytes).expect("mem media");
            return;
        }
        offset -= bytes.len() as u64;
    }
}

proptest! {
    /// Truncating the byte stream at ANY offset — frame boundary,
    /// mid-header, mid-payload, mid-CRC — reopens without panic to a
    /// prefix of the acknowledged blocks, and the journal stays live:
    /// a block appended after recovery is itself durable.
    #[test]
    fn truncation_at_any_offset_recovers_a_clean_prefix(
        sizes in prop::collection::vec(0usize..5, 1..16),
        checkpoint_interval in 1u64..5,
        cut_frac in 0.0f64..1.0,
    ) {
        let cfg = config(checkpoint_interval);
        let (truth, mut media) = build_journal(&sizes, cfg);
        let total = media.total_bytes();
        let cut = (cut_frac * total as f64) as u64;
        lose_suffix(&mut media, cut);

        let (mut journal, report) = VerdictJournal::open(media, cfg, FP)
            .expect("recovery must absorb any truncation");
        prop_assert!(
            truth.starts_with(journal.blocks()),
            "reopened blocks must be a prefix of the acknowledged blocks \
             (cut {cut}/{total}, kept {}, truth {})",
            journal.blocks().len(),
            truth.len()
        );
        if cut >= total {
            prop_assert_eq!(journal.blocks(), truth.as_slice());
            prop_assert!(!report.log.truncated, "a whole log is not damage");
        }

        // Liveness: recovery leaves a writable journal behind.
        let next = truth.len() as u64 + 100;
        journal.append_block(next, 0, &[quarantined(next, 0)]).expect("journal stays live");
        let survivors = journal.blocks().to_vec();
        let (journal, _) = VerdictJournal::open(journal.into_media(), cfg, FP).expect("reopen");
        prop_assert_eq!(journal.blocks(), survivors.as_slice());
    }

    /// Flipping ANY single bit anywhere in the persisted bytes reopens
    /// without panic to a clean prefix — the CRC catches the damage
    /// wherever it lands (magic, type, length, checksum, payload), and
    /// recovery never resurrects frames ordered after it.
    #[test]
    fn bit_flip_at_any_offset_recovers_a_clean_prefix(
        sizes in prop::collection::vec(0usize..5, 1..16),
        checkpoint_interval in 1u64..5,
        flip_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let cfg = config(checkpoint_interval);
        let (truth, mut media) = build_journal(&sizes, cfg);
        let total = media.total_bytes();
        let offset = ((flip_frac * total as f64) as u64).min(total - 1);
        flip_bit(&mut media, offset, bit);

        let (journal, _) = VerdictJournal::open(media, cfg, FP)
            .expect("recovery must absorb any single-bit flip");
        prop_assert!(
            truth.starts_with(journal.blocks()),
            "reopened blocks must be a prefix of the acknowledged blocks \
             (flip at byte {offset} bit {bit}, kept {}, truth {})",
            journal.blocks().len(),
            truth.len()
        );
    }

    /// The invariant the streaming resume is built on: for every armed
    /// I/O fault, the survivor reopens to EXACTLY the blocks whose
    /// `append_block` was acknowledged — nothing acknowledged is lost,
    /// nothing unacknowledged is resurrected. (The at-rest bit flip is
    /// the documented exception: it may destroy acknowledged frames,
    /// so its survivor is a prefix.)
    #[test]
    fn every_armed_fault_reopens_to_the_acknowledged_blocks(
        sizes in prop::collection::vec(0usize..5, 2..12),
        checkpoint_interval in 1u64..4,
        fault_idx in 0usize..IoFault::ALL.len(),
        seed in 0u64..10_000,
    ) {
        let cfg = config(checkpoint_interval);
        let fault = IoFault::ALL[fault_idx];

        // Measure the clean write timeline so the fault lands inside it.
        let observer = FaultMedia::new(MemMedia::new(), ArmedIoFault::never());
        let (mut journal, _) = VerdictJournal::open(observer, cfg, FP).expect("observer open");
        let mut base = 0u64;
        for (number, &len) in sizes.iter().enumerate() {
            let verdicts: Vec<Verdict> =
                (0..len).map(|i| quarantined(base + i as u64, base as usize + i)).collect();
            journal.append_block(number as u64, base, &verdicts).expect("observer run");
            base += len as u64;
        }
        let totals: WriteTotals = journal.into_media().totals();

        // Run the same sequence to destruction.
        let armed = ArmedIoFault::arm(&IoFaultPlan::new(seed, fault), &totals);
        let mut state = MemMedia::new();
        let acked: Vec<DurableBlock> =
            match VerdictJournal::open(FaultMedia::new(&mut state, armed), cfg, FP) {
                Err(_) => Vec::new(), // died creating the genesis checkpoint
                Ok((mut journal, _)) => {
                    let mut base = 0u64;
                    for (number, &len) in sizes.iter().enumerate() {
                        let verdicts: Vec<Verdict> = (0..len)
                            .map(|i| quarantined(base + i as u64, base as usize + i))
                            .collect();
                        if journal.append_block(number as u64, base, &verdicts).is_err() {
                            break;
                        }
                        base += len as u64;
                    }
                    journal.blocks().to_vec()
                }
            };

        // A fresh process reopens the survivor.
        let (journal, _) = VerdictJournal::open(&mut state, cfg, FP)
            .expect("recovery must absorb every armed fault");
        if fault == IoFault::BitFlip {
            prop_assert!(
                acked.starts_with(journal.blocks()),
                "bit-flip survivor must be a prefix of the {} acked blocks, kept {}",
                acked.len(),
                journal.blocks().len()
            );
        } else {
            prop_assert_eq!(
                journal.blocks(),
                acked.as_slice(),
                "{} survivor must hold exactly the acknowledged blocks",
                fault.name()
            );
        }
    }
}

/// Wiping the journal entirely also wipes its config stamp: a fresh
/// journal accepts any fingerprint, while a surviving one still refuses
/// a mismatch.
#[test]
fn truncation_to_nothing_forgets_the_config_stamp() {
    let cfg = config(2);
    let (_, mut media) = build_journal(&[2, 3], cfg);
    assert!(
        VerdictJournal::open(media.clone(), cfg, FP + 1).is_err(),
        "a surviving journal must refuse a different fingerprint"
    );
    lose_suffix(&mut media, 0);
    let (journal, report) = VerdictJournal::open(media, cfg, FP + 1)
        .expect("an emptied journal is a fresh journal");
    assert!(report.created, "genesis is re-stamped");
    assert_eq!(journal.fingerprint(), FP + 1);
    assert_eq!(journal.blocks().len(), 0);
}
