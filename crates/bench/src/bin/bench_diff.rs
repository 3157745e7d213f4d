//! Drift gate: a fresh `BENCH_<bench>.json` against its committed
//! baseline, judged by one rule table, [`RULES`].
//!
//! ```sh
//! cargo run -p leishen-bench --release --bin bench_diff -- <bench> <baseline> <fresh>
//! cp BENCH_scan.json baseline_scan.json   # before a fresh run rewrites it
//! cargo run -p leishen-bench --release --bin bench_diff -- \
//!     scan baseline_scan.json BENCH_scan.json
//! ```
//!
//! Every absolute condition on a run (zero violations, survival, recall,
//! equivalence, overhead limits) is checked by the bin that made the run;
//! `bench_diff` keeps only the rules that compare two files. Absolute
//! rates are compared only when both files measured the same corpus
//! (seed, scale, transaction count); the scan sweep then falls back to
//! its scale-free speedup.
//!
//! Exit codes: 1 when a rule fails; 2 for a missing file, an unknown
//! bench, a pair of files no rule applies to (every rule skipped: a
//! comparison that judged nothing must not pass), or a worker sweep
//! whose 8-worker row falls below its 2-worker row (a broken sweep, not
//! a gradual regression); 3 for a file that is not JSON, is another
//! bench's file, or lacks a field a rule reads.

use std::process::ExitCode;

use leishen::trace::json::{parse, Json};
use Also::*;
use Judge::*;

/// How far a throughput may fall below its baseline, in percent.
const MAX_DROP_PCT: f64 = 25.0;
/// How far the stream's p99 latency may rise above its baseline, in
/// percent: triple the throughput tolerance, since tail latency under a
/// firehose producer is queueing-dominated and noisy.
const MAX_P99_RISE_PCT: f64 = 3.0 * MAX_DROP_PCT;
/// How far below its 2-worker row a sweep's 8-worker row may fall before
/// the sweep counts as broken, in percent (timer noise).
const SCALING_TOLERANCE_PCT: f64 = 10.0;

/// Which files a floor judges besides the baseline.
#[derive(Clone, Copy, Debug)]
enum Also {
    /// The fresh file, when it measured the baseline's corpus.
    SameCorpus,
    /// The fresh file, when it is not a smoke run.
    FullRun,
}

/// How a rule judges the value at its path.
#[derive(Clone, Copy, Debug)]
enum Judge {
    /// May fall at most [`MAX_DROP_PCT`] below the baseline; judged only
    /// when the corpora match (`true`) or only when they differ (`false`).
    Drop(bool),
    /// Each worker row of the sweep may fall at most [`MAX_DROP_PCT`]
    /// below the baseline's row (same corpus).
    SweepDrop,
    /// May rise at most [`MAX_P99_RISE_PCT`] above the baseline (same
    /// corpus).
    Rise,
    /// Reaches the floor in the baseline, and in the fresh file when
    /// [`Also`] holds.
    Floor(f64, Also),
    /// The sweep's 8-worker row keeps within [`SCALING_TOLERANCE_PCT`] of
    /// its 2-worker row, in the baseline and in a fresh run over its
    /// corpus; exit 2 otherwise.
    Monotonic,
    /// The fresh file equals the baseline apart from these keys.
    EqualExcept(&'static [&'static str]),
}

/// A drift rule: its bench, its name (which every message starts with),
/// the JSON path it reads and how it judges.
#[derive(Debug)]
struct Rule(&'static str, &'static str, &'static [&'static str], Judge);

/// Every drift rule, in the order they are judged.
const RULES: &[Rule] = &[
    Rule("scan", "serial tx/s", &["serial", "tx_per_sec"], Drop(true)),
    Rule("scan", "worker tx/s", &["parallel"], SweepDrop),
    Rule("scan", "speedup at 4 workers", &["speedup_at_4_workers"], Drop(false)),
    Rule("scan", "speedup floor", &["speedup_at_4_workers"], Floor(3.5, SameCorpus)),
    Rule("scan", "scaling monotonic", &["parallel"], Monotonic),
    Rule("obs", "noop tx/s", &["sink_overhead", "noop_tx_per_sec"], Drop(true)),
    Rule("stream", "sustained tx/s", &["sustained_tx_per_sec"], Drop(true)),
    Rule("stream", "p99 latency", &["p99_latency_us"], Rise),
    Rule("recover", "crash matrix size", &["cases"], Floor(200.0, FullRun)),
    Rule("fuzz", "equals baseline", &[], EqualExcept(&["smoke", "elapsed_ms"])),
];

/// Why `bench_diff` could not judge: the exit code (2 for a setup fault,
/// 3 for a malformed file; 1 stays reserved for a failed rule) and the
/// message, so CI logs tell "never stashed" from "corrupt".
#[derive(Debug)]
struct Fault(u8, String);

/// A parsed BENCH file and the path it came from.
#[derive(Debug)]
struct Doc {
    file: String,
    json: Json,
}

impl Doc {
    fn missing(&self, field: &str) -> Fault {
        Fault(3, format!("bench_diff: {}: missing field {field}", self.file))
    }

    /// The value at `path`.
    fn at(&self, path: &[&str]) -> Result<&Json, Fault> {
        let found = path.iter().try_fold(&self.json, |cur, key| cur.get(key));
        found.ok_or_else(|| self.missing(&path.join(".")))
    }

    /// The number at `path`.
    fn num(&self, path: &[&str]) -> Result<f64, Fault> {
        self.at(path)?.as_f64().ok_or_else(|| self.missing(&path.join(".")))
    }

    /// The scheduled-engine `(workers, tx_per_sec)` rows of the sweep at
    /// `path`. Rows without a `mode` field count as scheduled.
    fn sweep(&self, path: &[&str]) -> Result<Vec<(u64, f64)>, Fault> {
        let name = path.join(".");
        let rows = self.at(path)?.as_arr().ok_or_else(|| self.missing(&name))?;
        let scheduled =
            |r: &Json| r.get("mode").and_then(Json::as_str).is_none_or(|m| m == "scheduled");
        rows.iter()
            .enumerate()
            .filter(|(_, row)| scheduled(row))
            .map(|(i, row)| {
                let field = |key: &str| {
                    let value = row.get(key).and_then(Json::as_f64);
                    value.ok_or_else(|| self.missing(&format!("{name}[{i}].{key}")))
                };
                Ok((field("workers")? as u64, field("tx_per_sec")?))
            })
            .collect()
    }
}

fn try_load(path: &str) -> Result<Doc, Fault> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        Fault(2, format!("bench_diff: missing baseline or fresh file {path}: {e}"))
    })?;
    let json =
        parse(&text).map_err(|e| Fault(3, format!("bench_diff: malformed JSON in {path}: {e}")))?;
    Ok(Doc { file: path.to_string(), json })
}

/// Whether two runs measured the same corpus and are therefore comparable
/// on absolute throughput.
fn same_corpus(a: &Json, b: &Json) -> bool {
    let key = |d: &Json| {
        let c = d.get("corpus")?;
        Some((
            c.get("seed")?.as_u64()?,
            c.get("scale")?.as_f64()?.to_bits(),
            c.get("transactions")?.as_u64()?,
        ))
    };
    matches!((key(a), key(b)), (Some(x), Some(y)) if x == y)
}

/// The sweep gate: scaling from 2 to 8 workers must never *lose*
/// throughput beyond [`SCALING_TOLERANCE_PCT`] of timer noise. `None`
/// when either row is absent (smoke runs sweep fewer worker counts).
fn scaling_violation(rows: &[(u64, f64)]) -> Option<String> {
    let at = |w: u64| rows.iter().find(|(rw, _)| *rw == w).map(|(_, tps)| *tps);
    let (two, eight) = (at(2)?, at(8)?);
    let floor = two * (1.0 - SCALING_TOLERANCE_PCT / 100.0);
    (eight < floor).then(|| {
        format!(
            "scaling not monotonic: 8-worker {eight:.1} tx/s < 2-worker {two:.1} tx/s \
             (tolerance {SCALING_TOLERANCE_PCT}%)"
        )
    })
}

/// One comparison; `text` starts with the rule's name. `ok` is `None`
/// when the rule does not apply to this pair of files.
struct Finding {
    ok: Option<bool>,
    text: String,
}

/// Judges one rule, appending its findings; a fault stops the run.
fn judge(rule: &Rule, base: &Doc, fresh: &Doc, out: &mut Vec<Finding>) -> Result<(), Fault> {
    let Rule(_, name, path, how) = *rule;
    let same = same_corpus(&base.json, &fresh.json);
    let mut push = |ok, text: String| out.push(Finding { ok, text: format!("{name}: {text}") });
    let change = |b: f64, f: f64| (f / b.max(1e-12) - 1.0) * 100.0;
    let fell = |b: f64, f: f64| {
        let pct = change(b, f);
        let text = format!("baseline {b:.1}, fresh {f:.1} ({pct:+.1}%, limit -{MAX_DROP_PCT}%)");
        (Some(pct >= -MAX_DROP_PCT), text)
    };
    // The files a floor or the sweep gate judges.
    let judged = |also| {
        let fresh_too = match also {
            SameCorpus => same,
            FullRun => fresh.json.get("smoke").and_then(Json::as_bool) != Some(true),
        };
        if fresh_too { vec![base, fresh] } else { vec![base] }
    };
    match how {
        Drop(when) if same != when => {
            push(None, format!("corpora {}", if same { "match" } else { "differ" }))
        }
        SweepDrop | Rise if !same => push(None, "corpora differ".to_string()),
        Drop(_) => {
            let (ok, text) = fell(base.num(path)?, fresh.num(path)?);
            push(ok, text);
        }
        SweepDrop => {
            let fresh_rows = fresh.sweep(path)?;
            for (w, b) in base.sweep(path)? {
                if let Some(&(_, f)) = fresh_rows.iter().find(|(fw, _)| *fw == w) {
                    let (ok, text) = fell(b, f);
                    push(ok, format!("{w} workers: {text}"));
                }
            }
        }
        Rise => {
            let (b, f) = (base.num(path)?, fresh.num(path)?);
            let pct = change(b, f);
            push(
                Some(pct <= MAX_P99_RISE_PCT),
                format!("baseline {b:.1}, fresh {f:.1} ({pct:+.1}%, limit +{MAX_P99_RISE_PCT}%)"),
            );
        }
        Floor(min, also) => {
            for doc in judged(also) {
                let v = doc.num(path)?;
                push(Some(v >= min), format!("{} reads {v} (floor {min})", doc.file));
            }
        }
        Monotonic => {
            for doc in judged(SameCorpus) {
                if let Some(message) = scaling_violation(&doc.sweep(path)?) {
                    return Err(Fault(2, format!("bench_diff: {name}: {}: {message}", doc.file)));
                }
                let within = format!("8-worker ≥ 2-worker within {SCALING_TOLERANCE_PCT}%");
                push(Some(true), format!("{} ({within})", doc.file));
            }
        }
        EqualExcept(keys) => {
            let members = |d: &Doc| match &d.json {
                Json::Obj(members) => members.clone(),
                _ => Vec::new(),
            };
            let mut differ: Vec<String> = [members(base), members(fresh)]
                .concat()
                .into_iter()
                .map(|(k, _)| k)
                .filter(|k| !keys.contains(&k.as_str()) && base.json.get(k) != fresh.json.get(k))
                .collect();
            differ.sort_unstable();
            differ.dedup();
            let text = format!("fields other than {keys:?} that differ: {differ:?}");
            push(Some(differ.is_empty()), text);
        }
    }
    Ok(())
}

/// Judges every rule of `bench`, once both files prove to be that bench's.
fn evaluate(bench: &str, base: &Doc, fresh: &Doc, out: &mut Vec<Finding>) -> Result<(), Fault> {
    let rules: Vec<&Rule> = RULES.iter().filter(|r| r.0 == bench).collect();
    if rules.is_empty() {
        let mut known: Vec<&str> = RULES.iter().map(|r| r.0).collect();
        known.dedup();
        return Err(Fault(2, format!("bench_diff: no drift rules for {bench:?} (known: {known:?})")));
    }
    for doc in [base, fresh] {
        let found = doc.at(&["bench"])?.as_str().unwrap_or_default();
        if found != bench {
            let message = format!("bench_diff: {}: a {found:?} file, not {bench:?}", doc.file);
            return Err(Fault(3, message));
        }
    }
    rules.into_iter().try_for_each(|rule| judge(rule, base, fresh, out))?;
    if out.iter().all(|f| f.ok.is_none()) {
        return Err(Fault(2, format!("bench_diff: {bench}: no rule applied to these files")));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut findings = Vec::new();
    let result = match &args[..] {
        [bench, base, fresh] => try_load(base)
            .and_then(|base| Ok((base, try_load(fresh)?)))
            .and_then(|(base, fresh)| evaluate(bench, &base, &fresh, &mut findings)),
        _ => Err(Fault(2, "usage: bench_diff <bench> <baseline> <fresh>".to_string())),
    };
    for f in &findings {
        let mark = match f.ok {
            Some(true) => "ok",
            Some(false) => "FAIL",
            None => "skip",
        };
        println!("  {mark:<4} {}", f.text);
    }
    if let Err(Fault(code, message)) = result {
        eprintln!("{message}");
        return ExitCode::from(code);
    }
    let failed: Vec<&Finding> = findings.iter().filter(|f| f.ok == Some(false)).collect();
    if failed.is_empty() {
        println!("\nbench_diff: no drift");
        return ExitCode::SUCCESS;
    }
    println!("\nbench_diff: {} rule(s) failed:", failed.len());
    for f in failed {
        println!("  - {}", f.text);
    }
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_file_maps_to_exit_code_2() {
        let Fault(code, message) = try_load("/nonexistent/bench_diff_no_such_file.json")
            .expect_err("path does not exist");
        assert_eq!(code, 2);
        assert!(message.contains("missing"), "{message}");
        assert!(
            message.contains("bench_diff_no_such_file.json"),
            "message names the offending path: {message}"
        );
    }

    #[test]
    fn malformed_file_maps_to_exit_code_3() {
        let dir = std::env::temp_dir();
        let path = dir.join("bench_diff_malformed_test.json");
        std::fs::write(&path, "{\"bench\": ").expect("write fixture");
        let Fault(code, message) =
            try_load(path.to_str().unwrap()).expect_err("file is truncated JSON");
        std::fs::remove_file(&path).ok();
        assert_eq!(code, 3);
        assert!(message.contains("malformed"), "{message}");
    }

    #[test]
    fn scaling_gate_trips_only_beyond_tolerance() {
        // 8-worker dead even with 2-worker: fine.
        let flat = [(2, 1000.0), (4, 1800.0), (8, 1000.0)];
        assert_eq!(scaling_violation(&flat), None);
        // Within tolerance: noise, not an inversion.
        let noisy = [(2, 1000.0), (8, 950.0)];
        assert_eq!(scaling_violation(&noisy), None);
        // A real inversion trips the gate…
        let inverted = [(2, 1000.0), (8, 600.0)];
        let message = scaling_violation(&inverted).expect("inversion detected");
        assert!(message.contains("not monotonic"), "{message}");
        // …and a sweep missing either endpoint cannot be judged.
        assert_eq!(scaling_violation(&[(2, 1000.0)]), None);
        assert_eq!(scaling_violation(&[(8, 600.0)]), None);
        assert_eq!(scaling_violation(&[]), None);
    }

    #[test]
    fn sweep_rows_keep_scheduled_and_unlabeled_rows_only() {
        let json = parse(
            r#"{"parallel": [
                {"workers": 2, "tx_per_sec": 10.0},
                {"workers": 4, "mode": "scheduled", "tx_per_sec": 20.0},
                {"workers": 4, "mode": "naive", "tx_per_sec": 15.0}
            ]}"#,
        )
        .expect("fixture parses");
        let doc = Doc { file: "fixture".into(), json };
        assert_eq!(doc.sweep(&["parallel"]).expect("rows"), vec![(2, 10.0), (4, 20.0)]);
    }

    #[test]
    fn well_formed_file_loads() {
        let dir = std::env::temp_dir();
        let path = dir.join("bench_diff_wellformed_test.json");
        std::fs::write(&path, "{\"bench\": \"scan\"}").expect("write fixture");
        let doc = try_load(path.to_str().unwrap()).expect("valid JSON loads");
        std::fs::remove_file(&path).ok();
        assert_eq!(doc.json.get("bench").and_then(Json::as_str), Some("scan"));
    }

    /// The committed `BENCH_<bench>.json`, under another name.
    fn committed(bench: &str, file: &str) -> Doc {
        let path = format!("{}/../../BENCH_{bench}.json", env!("CARGO_MANIFEST_DIR"));
        Doc { file: file.into(), ..try_load(&path).expect("committed baseline loads") }
    }

    /// The value at `path`, where a numeric segment indexes an array.
    fn field_mut<'a>(json: &'a mut Json, path: &[&str]) -> &'a mut Json {
        path.iter().fold(json, |cur, key| match cur {
            Json::Obj(members) => {
                &mut members.iter_mut().rev().find(|(k, _)| k == key).expect("field").1
            }
            Json::Arr(items) => &mut items[key.parse::<usize>().expect("index")],
            other => panic!("cannot descend into {other:?}"),
        })
    }

    fn scale(doc: &mut Doc, path: &[&str], by: f64) {
        let value = field_mut(&mut doc.json, path);
        *value = Json::Num(value.as_f64().expect("number") * by);
    }

    fn benches() -> Vec<&'static str> {
        let mut benches: Vec<&str> = RULES.iter().map(|r| r.0).collect();
        benches.dedup();
        benches
    }

    #[test]
    fn committed_baselines_pass_every_rule_against_themselves() {
        for bench in benches() {
            let (base, fresh) = (committed(bench, "baseline.json"), committed(bench, "fresh.json"));
            let mut out = Vec::new();
            evaluate(bench, &base, &fresh, &mut out).unwrap_or_else(|f| panic!("{bench}: {f:?}"));
            assert!(out.iter().any(|f| f.ok.is_some()), "{bench}: no rule judged");
            for f in &out {
                assert_ne!(f.ok, Some(false), "{bench}: {}", f.text);
            }
        }
    }

    /// Two copies of the rule's committed file, one with the rule's field
    /// moved past its threshold: `(baseline, fresh)`.
    fn mutant(rule: &Rule) -> (Doc, Doc) {
        let Rule(bench, name, path, _) = *rule;
        let mut base = committed(bench, "baseline.json");
        let mut fresh = committed(bench, "fresh.json");
        match name {
            "serial tx/s" | "noop tx/s" | "sustained tx/s" => scale(&mut fresh, path, 0.7),
            "worker tx/s" => scale(&mut fresh, &["parallel", "2", "tx_per_sec"], 0.7),
            "speedup at 4 workers" => {
                // Corpora must differ for the scale-free comparison.
                scale(&mut fresh, &["corpus", "transactions"], 2.0);
                scale(&mut fresh, path, 0.7);
            }
            "speedup floor" => *field_mut(&mut base.json, path) = Json::Num(3.4),
            "scaling monotonic" => {
                let two = field_mut(&mut base.json, &["parallel", "1", "tx_per_sec"]).clone();
                *field_mut(&mut base.json, &["parallel", "3", "tx_per_sec"]) =
                    Json::Num(two.as_f64().unwrap() * 0.8);
            }
            "p99 latency" => scale(&mut fresh, path, 1.8),
            "crash matrix size" => *field_mut(&mut fresh.json, path) = Json::Num(199.0),
            "equals baseline" => scale(&mut fresh, &["operators", "0", "generated"], 1.01),
            other => panic!("no mutant for rule {other:?}"),
        }
        (base, fresh)
    }

    #[test]
    fn each_rule_fails_past_its_threshold_and_names_itself() {
        for rule in RULES {
            let (bench, name) = (rule.0, rule.1);
            let (base, fresh) = mutant(rule);
            let mut out = Vec::new();
            match evaluate(bench, &base, &fresh, &mut out) {
                Err(Fault(2, message)) if matches!(rule.3, Monotonic) => {
                    assert!(message.contains(name), "{message}")
                }
                Err(fault) => panic!("{name}: {fault:?}"),
                Ok(()) => {
                    let failed: Vec<&Finding> =
                        out.iter().filter(|f| f.ok == Some(false)).collect();
                    assert!(!failed.is_empty(), "{name}: mutant passed");
                    for f in failed {
                        assert!(f.text.starts_with(name), "{name}: {}", f.text);
                    }
                }
            }
        }
    }

    #[test]
    fn a_missing_field_exits_3_naming_the_file_and_path() {
        for Rule(bench, name, path, _) in RULES.iter().filter(|r| !r.2.is_empty()) {
            let mut base = committed(bench, "baseline.json");
            let (last, parent) = path.split_last().expect("non-empty path");
            match field_mut(&mut base.json, parent) {
                Json::Obj(members) => members.retain(|(k, _)| k != last),
                other => panic!("{other:?}"),
            }
            let fresh = committed(bench, "fresh.json");
            let Fault(code, message) =
                evaluate(bench, &base, &fresh, &mut Vec::new()).expect_err(name);
            assert_eq!(code, 3, "{message}");
            assert!(message.contains("baseline.json"), "{message}");
            assert!(message.contains(&path.join(".")), "{message}");
        }
    }

    #[test]
    fn a_pair_no_rule_applies_to_exits_2() {
        // A smoke run measures a smaller corpus than the committed file,
        // so the obs rule skips and nothing is judged.
        let base = committed("obs", "baseline.json");
        let mut fresh = committed("obs", "fresh.json");
        scale(&mut fresh, &["corpus", "transactions"], 0.5);
        let mut out = Vec::new();
        let Fault(code, message) = evaluate("obs", &base, &fresh, &mut out).expect_err("skips");
        assert_eq!(code, 2);
        assert!(message.contains("no rule applied"), "{message}");
        assert!(!out.is_empty() && out.iter().all(|f| f.ok.is_none()));
    }

    #[test]
    fn a_swapped_or_unknown_bench_is_refused() {
        let (scan, obs) = (committed("scan", "scan.json"), committed("obs", "obs.json"));
        let Fault(code, _) = evaluate("scan", &scan, &obs, &mut Vec::new()).expect_err("obs file");
        assert_eq!(code, 3);
        let Fault(code, _) = evaluate("chaos", &scan, &scan, &mut Vec::new()).expect_err("chaos");
        assert_eq!(code, 2);
    }
}
