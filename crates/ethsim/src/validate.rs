//! Checked validation of [`TxRecord`] traces.
//!
//! The detector assumes every record came out of the instrumented
//! executor, which maintains a handful of structural invariants by
//! construction (see [`crate::context::TxContext`]): every recorded
//! action consumes exactly one sequence number from a single per-
//! transaction counter, call frames form a tree entered in pre-order,
//! and amounts stay within the executor's overflow-checked range.
//!
//! A record that crosses a trust boundary — imported from disk, decoded
//! from an external node, or deliberately corrupted by the fault
//! injector — may violate any of those. [`validate_record`] checks them
//! all and returns the complete violation list, so callers can
//! quarantine the record with a machine-readable reason instead of
//! feeding it to analysis code that was never written to defend
//! against it.
//!
//! The resilience layer in `leishen` reuses this checker as its
//! ground-truth invariant list: the chaos corruption generators each
//! break exactly one invariant here, and the scan-side quarantine
//! logic trusts an empty violation list to mean "safe to analyze".

use crate::tx::{SpanId, TxRecord, TxTrace};

/// Largest amount the validator accepts on a transfer.
///
/// The simulator's arithmetic is checked and its scenarios stay far
/// below this; a transfer amount in the top 8 bits of a `u128` is an
/// encoding error (or an adversarial overflow probe), not a balance.
pub const MAX_AMOUNT: u128 = 1 << 120;

/// One structural invariant a [`TxRecord`] trace failed to uphold.
///
/// Each variant carries enough context to locate the offending journal
/// entry; [`RecordViolation::code`] gives a stable machine-readable
/// name used in quarantine reports and BENCH_chaos.json.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecordViolation {
    /// A stream's seqs are not strictly increasing (journal order lost).
    NonMonotonicSeq {
        /// Which stream: `"transfers"`, `"logs"` or `"frames"`.
        stream: &'static str,
        /// The first seq that is not greater than its predecessor.
        seq: u32,
    },
    /// The same seq appears in two journal entries.
    DuplicateSeq {
        /// The repeated sequence number.
        seq: u32,
    },
    /// The union of all stream seqs is not exactly `0..len` — some
    /// journal entry is missing (truncated journal) or an entry points
    /// past the end of the journal (dangling reference).
    SeqGap {
        /// The smallest missing sequence number.
        missing: u32,
    },
    /// A seq too large to pack into a [`SpanId`] journal span.
    SeqOverflow {
        /// The out-of-range sequence number.
        seq: u32,
    },
    /// The first recorded call frame is not at depth 0.
    RootFrameDepth {
        /// The depth actually recorded on the first frame.
        depth: u16,
    },
    /// A frame's depth exceeds its predecessor's by more than one, so
    /// the frames cannot form a pre-order walk of any call tree.
    DepthJump {
        /// The seq of the offending frame.
        seq: u32,
    },
    /// A transfer amount at or above [`MAX_AMOUNT`].
    AmountOverflow {
        /// The seq of the offending transfer.
        seq: u32,
    },
}

impl RecordViolation {
    /// Stable machine-readable code for quarantine reports.
    pub fn code(&self) -> &'static str {
        match self {
            RecordViolation::NonMonotonicSeq { .. } => "non_monotonic_seq",
            RecordViolation::DuplicateSeq { .. } => "duplicate_seq",
            RecordViolation::SeqGap { .. } => "seq_gap",
            RecordViolation::SeqOverflow { .. } => "seq_overflow",
            RecordViolation::RootFrameDepth { .. } => "root_frame_depth",
            RecordViolation::DepthJump { .. } => "depth_jump",
            RecordViolation::AmountOverflow { .. } => "amount_overflow",
        }
    }
}

impl std::fmt::Display for RecordViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordViolation::NonMonotonicSeq { stream, seq } => {
                write!(f, "{stream} stream out of order at seq {seq}")
            }
            RecordViolation::DuplicateSeq { seq } => {
                write!(f, "seq {seq} recorded twice")
            }
            RecordViolation::SeqGap { missing } => {
                write!(f, "journal gap: seq {missing} missing")
            }
            RecordViolation::SeqOverflow { seq } => {
                write!(f, "seq {seq} exceeds the span encoding range")
            }
            RecordViolation::RootFrameDepth { depth } => {
                write!(f, "first call frame at depth {depth}, expected 0")
            }
            RecordViolation::DepthJump { seq } => {
                write!(f, "frame at seq {seq} deepens the call tree by more than one")
            }
            RecordViolation::AmountOverflow { seq } => {
                write!(f, "transfer at seq {seq} exceeds the amount range")
            }
        }
    }
}

/// Checks every structural invariant of `tx.trace` and returns all
/// violations found (empty means the record is safe to analyze).
///
/// Invariants, in check order:
///
/// 1. per-stream seqs strictly increase (journal order per stream);
/// 2. every seq fits the [`SpanId`] packing (`seq + 1 < 2^20`);
/// 3. no seq appears twice across streams (single shared counter);
/// 4. the union of seqs is exactly `0..trace.len()` — the executor
///    hands out consecutive seqs and records every one, so a gap means
///    a truncated journal and an out-of-range seq means a dangling
///    reference (both surface as [`RecordViolation::SeqGap`] once
///    duplicates are ruled out);
/// 5. frames are a pre-order call-tree walk: the first frame sits at
///    depth 0 and each frame deepens by at most one;
/// 6. transfer amounts stay below [`MAX_AMOUNT`].
///
/// A clean record is accepted by one walk over the three streams that
/// allocates nothing; only a record that walk rejects pays for the
/// checks above, which collect the complete violation list.
pub fn validate_record(tx: &TxRecord) -> Vec<RecordViolation> {
    let trace = &tx.trace;
    if is_clean(trace) {
        return Vec::new();
    }
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
        // Widened: a frame at depth `u16::MAX` may be followed by any depth.
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

/// Whether `trace` upholds every invariant [`validate_record`] checks,
/// decided by one walk over the three streams with no allocation.
///
/// The walk takes each expected seq `0..len` from whichever stream's
/// head holds it. It succeeds exactly when each stream strictly
/// increases and their union is `0..len` with no seq twice (checks 1, 3
/// and 4); `len` below the span limit bounds every seq (check 2), and
/// frames and transfers are checked as they are taken (checks 5 and 6).
/// A `false` is not a verdict: the caller runs the full checks.
fn is_clean(trace: &TxTrace) -> bool {
    let (transfers, logs, frames) = (&trace.transfers, &trace.logs, &trace.frames);
    if trace.len() as u64 >= (1u64 << SpanId::SEQ_BITS) - 1 {
        return false;
    }
    let (mut t, mut l, mut f) = (0, 0, 0);
    // The depth the next frame may reach: 0 for the root frame.
    let mut depth_cap = Some(0u16);
    for seq in 0..trace.len() as u32 {
        if let Some(transfer) = transfers.get(t).filter(|x| x.seq == seq) {
            if transfer.amount >= MAX_AMOUNT {
                return false;
            }
            t += 1;
        } else if logs.get(l).is_some_and(|x| x.seq == seq) {
            l += 1;
        } else if let Some(frame) = frames.get(f).filter(|x| x.seq == seq) {
            if depth_cap.is_none_or(|cap| frame.depth > cap) {
                return false;
            }
            depth_cap = frame.depth.checked_add(1);
            f += 1;
        } else {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Address;
    use crate::chain::Chain;
    use crate::token::TokenId;
    use crate::transfer::Transfer;
    use crate::tx::TxStatus;

    /// A small genuine world: deploy a token, trade it around through
    /// nested calls, revert one transaction — every produced record
    /// must validate cleanly.
    fn genuine_records() -> Vec<TxRecord> {
        let mut chain = Chain::default();
        let deployer = chain.create_eoa("validator-deployer");
        let alice = chain.create_eoa("validator-alice");
        let bob = chain.create_eoa("validator-bob");
        chain.state_mut().credit_eth(alice, 1_000_000).unwrap();

        chain
            .execute(deployer, deployer, "deploy", |ctx| {
                let contract = ctx.create_contract(deployer)?;
                let gold = ctx.register_token("GOLD", 18, contract);
                ctx.mint_token(gold, alice, 5_000)?;
                Ok(())
            })
            .expect("deploy succeeds");
        let token = chain.state().token_by_symbol("GOLD").unwrap();

        chain
            .execute(alice, bob, "pay", |ctx| {
                ctx.call(alice, bob, "pay", 250, |inner| {
                    inner.transfer_token(token, alice, bob, 1_200)?;
                    inner.emit_log(bob, "Paid", vec![]);
                    Ok(())
                })?;
                Ok(())
            })
            .expect("payment succeeds");

        // A reverting transaction still records a valid trace prefix.
        chain
            .execute(alice, bob, "fail", |ctx| {
                ctx.transfer_token(token, alice, bob, 100)?;
                Err(crate::error::SimError::revert("boom"))
            })
            .expect("revert is recorded, not an executor error");

        chain.transactions().to_vec()
    }

    fn sample() -> TxRecord {
        let records = genuine_records();
        records
            .into_iter()
            .find(|r| !r.trace.transfers.is_empty() && !r.trace.frames.is_empty())
            .expect("some record has transfers and frames")
    }

    #[test]
    fn genuine_records_validate_cleanly() {
        for record in genuine_records() {
            assert_eq!(
                validate_record(&record),
                Vec::new(),
                "record {} should be clean",
                record.id
            );
        }
    }

    #[test]
    fn reverted_trace_is_still_valid() {
        let records = genuine_records();
        let reverted = records
            .iter()
            .find(|r| matches!(r.status, TxStatus::Reverted(_)))
            .expect("corpus has a reverted tx");
        assert_eq!(validate_record(reverted), Vec::new());
    }

    #[test]
    fn empty_trace_is_valid() {
        let mut record = sample();
        record.trace = Default::default();
        assert_eq!(validate_record(&record), Vec::new());
    }

    #[test]
    fn shuffled_stream_is_non_monotonic() {
        let mut record = sample();
        record.trace.transfers.reverse();
        let violations = validate_record(&record);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, RecordViolation::NonMonotonicSeq { stream: "transfers", .. })),
            "{violations:?}"
        );
    }

    #[test]
    fn truncated_journal_leaves_a_gap() {
        let mut record = sample();
        // Drop one journal entry: later seqs survive, so the union is
        // no longer contiguous.
        record.trace.transfers.remove(0);
        let violations = validate_record(&record);
        assert!(
            violations.iter().any(|v| matches!(v, RecordViolation::SeqGap { .. })),
            "{violations:?}"
        );
    }

    #[test]
    fn duplicated_seq_is_reported() {
        let mut record = sample();
        let copy = record.trace.transfers[0].clone();
        record.trace.transfers.insert(0, copy);
        let violations = validate_record(&record);
        assert!(
            violations.iter().any(|v| matches!(
                v,
                RecordViolation::DuplicateSeq { .. } | RecordViolation::NonMonotonicSeq { .. }
            )),
            "{violations:?}"
        );
    }

    #[test]
    fn dangling_seq_past_the_journal_end() {
        let mut record = sample();
        let last = record.trace.logs.len() - 1;
        record.trace.logs[last].seq = 5_000; // points past every entry
        let violations = validate_record(&record);
        assert!(
            violations.iter().any(|v| matches!(v, RecordViolation::SeqGap { .. })),
            "{violations:?}"
        );
    }

    #[test]
    fn span_overflow_seq_is_reported() {
        let mut record = sample();
        let last = record.trace.logs.len() - 1;
        record.trace.logs[last].seq = u32::MAX - 1;
        let violations = validate_record(&record);
        assert!(
            violations.iter().any(|v| matches!(v, RecordViolation::SeqOverflow { .. })),
            "{violations:?}"
        );
    }

    #[test]
    fn deep_first_frame_is_reported() {
        let mut record = sample();
        record.trace.frames[0].depth = 3;
        let violations = validate_record(&record);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, RecordViolation::RootFrameDepth { depth: 3 })),
            "{violations:?}"
        );
    }

    #[test]
    fn depth_jump_is_reported() {
        let mut record = sample();
        let extra = CallFrameFixture::deepened(&record);
        record.trace.frames.push(extra);
        let violations = validate_record(&record);
        assert!(
            violations.iter().any(|v| matches!(v, RecordViolation::DepthJump { .. })),
            "{violations:?}"
        );
    }

    #[test]
    fn root_frame_at_the_depth_limit_is_one_violation() {
        let frame = |seq, depth| crate::frame::CallFrame {
            seq,
            depth,
            caller: Address::from_u64(1),
            callee: Address::from_u64(2),
            function: "f".into(),
            value: 0,
        };
        for second in [0, u16::MAX] {
            let mut record = sample();
            record.trace = crate::tx::TxTrace {
                frames: vec![frame(0, u16::MAX), frame(1, second)],
                ..Default::default()
            };
            assert_eq!(
                validate_record(&record),
                vec![RecordViolation::RootFrameDepth { depth: u16::MAX }],
                "second frame at depth {second}"
            );
        }
    }

    /// Helper building a frame that jumps two levels deeper than the
    /// current last frame while keeping the seq stream contiguous.
    struct CallFrameFixture;

    impl CallFrameFixture {
        fn deepened(record: &TxRecord) -> crate::frame::CallFrame {
            let last = record.trace.frames.last().expect("frames present");
            let next_seq = record.trace.len() as u32;
            crate::frame::CallFrame {
                seq: next_seq,
                depth: last.depth + 2,
                caller: last.callee,
                callee: last.caller,
                function: "jump".into(),
                value: 0,
            }
        }
    }

    #[test]
    fn overflow_amount_is_reported() {
        let mut record = sample();
        record.trace.transfers[0].amount = u128::MAX;
        let violations = validate_record(&record);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, RecordViolation::AmountOverflow { .. })),
            "{violations:?}"
        );
    }

    #[test]
    fn all_violations_are_collected_together() {
        let mut record = sample();
        record.trace.transfers[0].amount = u128::MAX;
        record.trace.frames[0].depth = 2;
        let violations = validate_record(&record);
        assert!(violations.len() >= 2, "{violations:?}");
        let codes: Vec<_> = violations.iter().map(|v| v.code()).collect();
        assert!(codes.contains(&"amount_overflow"), "{codes:?}");
        assert!(codes.contains(&"root_frame_depth"), "{codes:?}");
    }

    #[test]
    fn codes_are_stable_and_distinct() {
        let variants = [
            RecordViolation::NonMonotonicSeq { stream: "logs", seq: 1 },
            RecordViolation::DuplicateSeq { seq: 1 },
            RecordViolation::SeqGap { missing: 0 },
            RecordViolation::SeqOverflow { seq: u32::MAX },
            RecordViolation::RootFrameDepth { depth: 1 },
            RecordViolation::DepthJump { seq: 2 },
            RecordViolation::AmountOverflow { seq: 3 },
        ];
        let codes: Vec<_> = variants.iter().map(|v| v.code()).collect();
        let unique: std::collections::HashSet<_> = codes.iter().collect();
        assert_eq!(unique.len(), variants.len(), "{codes:?}");
        for v in &variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn mint_and_native_transfers_validate() {
        // Mints come from Address::ZERO — the validator must not treat
        // the zero sender as a violation.
        let record = TxRecord {
            id: crate::tx::TxId(0),
            block: 1,
            timestamp: 0,
            from: Address::from_seed("minter"),
            to: Address::from_seed("minter"),
            function: "mint".into(),
            status: TxStatus::Success,
            trace: crate::tx::TxTrace {
                transfers: vec![Transfer {
                    seq: 0,
                    sender: Address::ZERO,
                    receiver: Address::from_seed("minter"),
                    amount: 10,
                    token: TokenId::ETH,
                }],
                ..Default::default()
            },
        };
        assert_eq!(validate_record(&record), Vec::new());
    }
}
