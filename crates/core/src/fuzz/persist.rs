//! Reproducer persistence — shrunk failing mutants as JSON files.
//!
//! A campaign that finds an oracle violation shrinks the mutant and writes
//! it to `tests/corpus/`; the corpus replay test parses every file back
//! and asserts the oracle passes, so a fixed bug stays fixed. The format
//! is hand-rolled over [`crate::trace::json`] (the workspace vendors no
//! JSON serializer): amounts are decimal *strings* (u128 does not fit in
//! a JSON number), addresses are 0x-prefixed hex of their 20 bytes, and
//! everything else is the obvious scalar.

use std::fmt::Write as _;

use ethsim::{
    Address, CallFrame, CreationRecord, EventLog, LogValue, TokenId, Transfer, TxId, TxRecord,
    TxStatus, TxTrace,
};

use crate::labels::Labels;
use crate::patterns::PatternKind;
use crate::trace::json::{self, escape_into, Json, JsonError};

use super::{FuzzCase, Mutant, TxExpect};

/// Format version written into every file; bump on breaking changes.
const VERSION: u64 = 1;

/// A persisted failing (or regression-guarding) mutant: the mutated
/// history, its expectations, and enough metadata to explain the find.
#[derive(Clone, Debug)]
pub struct Reproducer {
    /// How the mutant was made ([`Mutant::label`]): `"seed"` when the
    /// unmutated seed itself failed the oracle pre-pass, an operator name,
    /// or `"evade:<chain>"`.
    pub operator: String,
    /// Campaign seed the mutant was derived from.
    pub seed: u64,
    /// Human-readable violation description at find time (empty for
    /// corpus samples persisted from passing mutants).
    pub violation: String,
    /// The mutated history.
    pub case: FuzzCase,
    /// One expectation per transaction.
    pub expect: Vec<TxExpect>,
}

impl Reproducer {
    /// Wraps a mutant with campaign metadata.
    pub fn new(mutant: &Mutant, seed: u64, violation: impl Into<String>) -> Self {
        Reproducer {
            operator: mutant.label(),
            seed,
            violation: violation.into(),
            case: mutant.case.clone(),
            expect: mutant.expect.clone(),
        }
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn push_addr(out: &mut String, a: Address) {
    out.push_str("\"0x");
    for b in a.as_bytes() {
        let _ = write!(out, "{b:02x}");
    }
    out.push('"');
}

fn push_string(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

fn push_log_value(out: &mut String, v: &LogValue) {
    match v {
        LogValue::Addr(a) => {
            out.push_str("{\"t\":\"addr\",\"v\":");
            push_addr(out, *a);
            out.push('}');
        }
        LogValue::Amount(n) => {
            let _ = write!(out, "{{\"t\":\"amount\",\"v\":\"{n}\"}}");
        }
        LogValue::Token(t) => {
            let _ = write!(out, "{{\"t\":\"token\",\"v\":{}}}", t.index());
        }
        LogValue::Text(s) => {
            out.push_str("{\"t\":\"text\",\"v\":");
            push_string(out, s);
            out.push('}');
        }
    }
}

fn push_tx(out: &mut String, tx: &TxRecord) {
    let _ = write!(out, "{{\"id\":{},\"block\":{},\"timestamp\":{},", tx.id.0, tx.block, tx.timestamp);
    out.push_str("\"from\":");
    push_addr(out, tx.from);
    out.push_str(",\"to\":");
    push_addr(out, tx.to);
    out.push_str(",\"function\":");
    push_string(out, &tx.function);
    match &tx.status {
        TxStatus::Success => out.push_str(",\"status\":{\"ok\":true}"),
        TxStatus::Reverted(reason) => {
            out.push_str(",\"status\":{\"ok\":false,\"reason\":");
            push_string(out, reason);
            out.push('}');
        }
    }
    out.push_str(",\"transfers\":[");
    for (i, t) in tx.trace.transfers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"seq\":{},\"sender\":", t.seq);
        push_addr(out, t.sender);
        out.push_str(",\"receiver\":");
        push_addr(out, t.receiver);
        let _ = write!(out, ",\"amount\":\"{}\",\"token\":{}}}", t.amount, t.token.index());
    }
    out.push_str("],\"logs\":[");
    for (i, l) in tx.trace.logs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"seq\":{},\"emitter\":", l.seq);
        push_addr(out, l.emitter);
        out.push_str(",\"name\":");
        push_string(out, &l.name);
        out.push_str(",\"params\":[");
        for (j, (k, v)) in l.params.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('[');
            push_string(out, k);
            out.push(',');
            push_log_value(out, v);
            out.push(']');
        }
        out.push_str("]}");
    }
    out.push_str("],\"frames\":[");
    for (i, f) in tx.trace.frames.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"seq\":{},\"depth\":{},\"caller\":", f.seq, f.depth);
        push_addr(out, f.caller);
        out.push_str(",\"callee\":");
        push_addr(out, f.callee);
        out.push_str(",\"function\":");
        push_string(out, &f.function);
        let _ = write!(out, ",\"value\":\"{}\"}}", f.value);
    }
    out.push_str("],\"created\":[");
    for (i, c) in tx.trace.created.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_addr(out, *c);
    }
    out.push_str("]}");
}

/// Serializes a reproducer as a self-contained JSON document.
pub fn reproducer_to_json(r: &Reproducer) -> String {
    let mut out = String::with_capacity(4096);
    let _ = write!(out, "{{\"version\":{VERSION},\"operator\":");
    push_string(&mut out, &r.operator);
    let _ = write!(out, ",\"seed\":\"{}\",\"violation\":", r.seed);
    push_string(&mut out, &r.violation);
    match r.case.weth {
        Some(w) => {
            let _ = write!(out, ",\"weth\":{}", w.index());
        }
        None => out.push_str(",\"weth\":null"),
    }
    out.push_str(",\"labels\":[");
    // Labels iterate in hash order; sort for stable, diffable files.
    let mut labels: Vec<(Address, &str)> = r.case.labels.iter().collect();
    labels.sort_by_key(|(a, _)| *a.as_bytes());
    for (i, (a, name)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        push_addr(&mut out, *a);
        out.push(',');
        push_string(&mut out, name);
        out.push(']');
    }
    out.push_str("],\"creations\":[");
    for (i, c) in r.case.creations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"creator\":");
        push_addr(&mut out, c.creator);
        out.push_str(",\"created\":");
        push_addr(&mut out, c.created);
        let _ = write!(out, ",\"block\":{}}}", c.block);
    }
    out.push_str("],\"txs\":[");
    for (i, tx) in r.case.txs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_tx(&mut out, tx);
    }
    out.push_str("],\"expect\":[");
    for (i, e) in r.expect.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"flagged\":{}", e.flagged);
        match e.flash_loan {
            Some(b) => {
                let _ = write!(out, ",\"flash_loan\":{b}");
            }
            None => out.push_str(",\"flash_loan\":null"),
        }
        match &e.kinds {
            Some(kinds) => {
                out.push_str(",\"kinds\":[");
                for (j, k) in kinds.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{k}\"");
                }
                out.push(']');
            }
            None => out.push_str(",\"kinds\":null"),
        }
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

fn want<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, JsonError> {
    doc.get(key).ok_or_else(|| JsonError::semantic(format!("missing key `{key}`")))
}

fn parse_addr(j: &Json) -> Result<Address, JsonError> {
    let s = j.as_str().ok_or_else(|| JsonError::semantic("address must be a string"))?;
    let hex = s.strip_prefix("0x").ok_or_else(|| JsonError::semantic("address missing 0x"))?;
    if hex.len() != 40 {
        return Err(JsonError::semantic(format!("address `{s}` is not 20 bytes")));
    }
    let mut bytes = [0u8; 20];
    for (i, b) in bytes.iter_mut().enumerate() {
        *b = u8::from_str_radix(&hex[2 * i..2 * i + 2], 16)
            .map_err(|_| JsonError::semantic(format!("bad hex in address `{s}`")))?;
    }
    Ok(Address::from_bytes(bytes))
}

/// An unsigned integer field that must fit `T` (a wider value is an
/// error, never a silent truncation).
fn parse_int<T: TryFrom<u64>>(j: &Json, what: &str) -> Result<T, JsonError> {
    let n = j.as_u64().ok_or_else(|| JsonError::semantic(format!("{what} must be a u64")))?;
    T::try_from(n).map_err(|_| JsonError::semantic(format!("{what} {n} is out of range")))
}

fn parse_amount(j: &Json, what: &str) -> Result<u128, JsonError> {
    j.as_u128_str()
        .ok_or_else(|| JsonError::semantic(format!("{what} must be a decimal string")))
}

fn parse_token(j: &Json) -> Result<TokenId, JsonError> {
    Ok(TokenId::from_index(parse_int(j, "token")?))
}

fn parse_kind(s: &str) -> Result<PatternKind, JsonError> {
    match s {
        "KRP" => Ok(PatternKind::Krp),
        "SBS" => Ok(PatternKind::Sbs),
        "MBS" => Ok(PatternKind::Mbs),
        "KDP*" => Ok(PatternKind::Kdp),
        other => Err(JsonError::semantic(format!("unknown pattern kind `{other}`"))),
    }
}

fn parse_log_value(j: &Json) -> Result<LogValue, JsonError> {
    let t = want(j, "t")?.as_str().ok_or_else(|| JsonError::semantic("log value tag"))?;
    let v = want(j, "v")?;
    match t {
        "addr" => Ok(LogValue::Addr(parse_addr(v)?)),
        "amount" => Ok(LogValue::Amount(parse_amount(v, "log amount")?)),
        "token" => Ok(LogValue::Token(parse_token(v)?)),
        "text" => Ok(LogValue::Text(
            v.as_str().ok_or_else(|| JsonError::semantic("log text"))?.to_string(),
        )),
        other => Err(JsonError::semantic(format!("unknown log value tag `{other}`"))),
    }
}

fn parse_tx(j: &Json) -> Result<TxRecord, JsonError> {
    let status = {
        let s = want(j, "status")?;
        match want(s, "ok")?.as_bool() {
            Some(true) => TxStatus::Success,
            Some(false) => TxStatus::Reverted(
                s.get("reason").and_then(Json::as_str).unwrap_or("").to_string(),
            ),
            None => return Err(JsonError::semantic("status `ok` must be a bool")),
        }
    };
    let mut transfers = Vec::new();
    for t in want(j, "transfers")?.as_arr().ok_or_else(|| JsonError::semantic("transfers"))? {
        transfers.push(Transfer {
            seq: parse_int(want(t, "seq")?, "seq")?,
            sender: parse_addr(want(t, "sender")?)?,
            receiver: parse_addr(want(t, "receiver")?)?,
            amount: parse_amount(want(t, "amount")?, "amount")?,
            token: parse_token(want(t, "token")?)?,
        });
    }
    let mut logs = Vec::new();
    for l in want(j, "logs")?.as_arr().ok_or_else(|| JsonError::semantic("logs"))? {
        let mut params = Vec::new();
        for p in want(l, "params")?.as_arr().ok_or_else(|| JsonError::semantic("params"))? {
            let pair = p.as_arr().ok_or_else(|| JsonError::semantic("param pair"))?;
            if pair.len() != 2 {
                return Err(JsonError::semantic("param pair must have 2 elements"));
            }
            let key = pair[0].as_str().ok_or_else(|| JsonError::semantic("param key"))?;
            params.push((key.to_string(), parse_log_value(&pair[1])?));
        }
        logs.push(EventLog {
            seq: parse_int(want(l, "seq")?, "seq")?,
            emitter: parse_addr(want(l, "emitter")?)?,
            name: want(l, "name")?.as_str().ok_or_else(|| JsonError::semantic("log name"))?.to_string(),
            params,
        });
    }
    let mut frames = Vec::new();
    for f in want(j, "frames")?.as_arr().ok_or_else(|| JsonError::semantic("frames"))? {
        frames.push(CallFrame {
            seq: parse_int(want(f, "seq")?, "seq")?,
            depth: parse_int(want(f, "depth")?, "depth")?,
            caller: parse_addr(want(f, "caller")?)?,
            callee: parse_addr(want(f, "callee")?)?,
            function: want(f, "function")?
                .as_str()
                .ok_or_else(|| JsonError::semantic("frame function"))?
                .to_string(),
            value: parse_amount(want(f, "value")?, "frame value")?,
        });
    }
    let mut created = Vec::new();
    for c in want(j, "created")?.as_arr().ok_or_else(|| JsonError::semantic("created"))? {
        created.push(parse_addr(c)?);
    }
    Ok(TxRecord {
        id: TxId(parse_int(want(j, "id")?, "id")?),
        block: parse_int(want(j, "block")?, "block")?,
        timestamp: parse_int(want(j, "timestamp")?, "timestamp")?,
        from: parse_addr(want(j, "from")?)?,
        to: parse_addr(want(j, "to")?)?,
        function: want(j, "function")?
            .as_str()
            .ok_or_else(|| JsonError::semantic("function"))?
            .to_string(),
        status,
        trace: TxTrace { transfers, logs, frames, created },
    })
}

/// Parses a reproducer document written by [`reproducer_to_json`].
pub fn reproducer_from_json(input: &str) -> Result<Reproducer, JsonError> {
    let doc = json::parse(input)?;
    let version: u64 = parse_int(want(&doc, "version")?, "version")?;
    if version != VERSION {
        return Err(JsonError::semantic(format!("unsupported reproducer version {version}")));
    }
    let operator = want(&doc, "operator")?
        .as_str()
        .ok_or_else(|| JsonError::semantic("operator"))?
        .to_string();
    let seed64 = parse_amount(want(&doc, "seed")?, "seed")?;
    let seed = u64::try_from(seed64).map_err(|_| JsonError::semantic("seed overflows u64"))?;
    let violation = want(&doc, "violation")?
        .as_str()
        .ok_or_else(|| JsonError::semantic("violation"))?
        .to_string();
    let weth = {
        let w = want(&doc, "weth")?;
        if w.is_null() {
            None
        } else {
            Some(parse_token(w)?)
        }
    };
    let mut labels = Labels::new();
    for pair in want(&doc, "labels")?.as_arr().ok_or_else(|| JsonError::semantic("labels"))? {
        let pair = pair.as_arr().ok_or_else(|| JsonError::semantic("label pair"))?;
        if pair.len() != 2 {
            return Err(JsonError::semantic("label pair must have 2 elements"));
        }
        let name = pair[1].as_str().ok_or_else(|| JsonError::semantic("label name"))?;
        labels.set(parse_addr(&pair[0])?, name);
    }
    let mut creations = Vec::new();
    for c in want(&doc, "creations")?.as_arr().ok_or_else(|| JsonError::semantic("creations"))? {
        creations.push(CreationRecord {
            creator: parse_addr(want(c, "creator")?)?,
            created: parse_addr(want(c, "created")?)?,
            block: parse_int(want(c, "block")?, "block")?,
        });
    }
    let mut txs = Vec::new();
    for tx in want(&doc, "txs")?.as_arr().ok_or_else(|| JsonError::semantic("txs"))? {
        txs.push(parse_tx(tx)?);
    }
    let mut expect = Vec::new();
    for e in want(&doc, "expect")?.as_arr().ok_or_else(|| JsonError::semantic("expect"))? {
        let flagged =
            want(e, "flagged")?.as_bool().ok_or_else(|| JsonError::semantic("flagged"))?;
        let flash_loan = {
            let fl = want(e, "flash_loan")?;
            if fl.is_null() {
                None
            } else {
                Some(fl.as_bool().ok_or_else(|| JsonError::semantic("flash_loan"))?)
            }
        };
        let kinds = {
            let k = want(e, "kinds")?;
            if k.is_null() {
                None
            } else {
                let mut kinds = Vec::new();
                for kind in k.as_arr().ok_or_else(|| JsonError::semantic("kinds"))? {
                    kinds.push(parse_kind(
                        kind.as_str().ok_or_else(|| JsonError::semantic("kind"))?,
                    )?);
                }
                Some(kinds)
            }
        };
        expect.push(TxExpect { flagged, flash_loan, kinds });
    }
    if expect.len() != txs.len() {
        return Err(JsonError::semantic("expect/txs length mismatch"));
    }
    Ok(Reproducer { operator, seed, violation, case: FuzzCase { txs, labels, creations, weth }, expect })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_tx_reproducer(operator: &str) -> Reproducer {
        let (a, b) = (Address::from_u64(1), Address::from_u64(2));
        let tx = TxRecord {
            id: TxId(1),
            block: 1,
            timestamp: 1,
            from: a,
            to: b,
            function: "attack".into(),
            status: TxStatus::Success,
            trace: TxTrace {
                transfers: vec![Transfer {
                    seq: 3,
                    sender: a,
                    receiver: b,
                    amount: 5,
                    token: TokenId::from_index(1),
                }],
                logs: Vec::new(),
                frames: vec![CallFrame {
                    seq: 4,
                    depth: 1,
                    caller: a,
                    callee: b,
                    function: "swap".into(),
                    value: 0,
                }],
                created: Vec::new(),
            },
        };
        Reproducer {
            operator: operator.into(),
            seed: 7,
            violation: String::new(),
            case: FuzzCase {
                txs: vec![tx],
                labels: Labels::new(),
                creations: Vec::new(),
                weth: None,
            },
            expect: vec![TxExpect::flag_only(false)],
        }
    }

    #[test]
    fn out_of_range_and_malformed_fields_are_rejected() {
        let json = reproducer_to_json(&one_tx_reproducer("scale_amounts"));
        assert!(reproducer_from_json(&json).is_ok());
        for (field, bad) in [
            ("\"seq\":3,", "\"seq\":4294967296,"),
            ("\"seq\":4,", "\"seq\":4294967296,"),
            ("\"depth\":1,", "\"depth\":65536,"),
            ("\"token\":1}", "\"token\":4294967296}"),
            ("\"ok\":true", "\"ok\":1"),
        ] {
            assert!(json.contains(field), "{field} missing from {json}");
            let broken = json.replacen(field, bad, 1);
            assert!(reproducer_from_json(&broken).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn quoted_operator_round_trips_byte_stably() {
        let label = "evade:\"quoted\"\\op";
        let json = reproducer_to_json(&one_tx_reproducer(label));
        let parsed = reproducer_from_json(&json).expect("an escaped operator parses");
        assert_eq!(parsed.operator, label);
        assert_eq!(reproducer_to_json(&parsed), json);
    }
}
