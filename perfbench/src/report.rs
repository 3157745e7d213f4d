//! A run's outcome: metrics, correctness gates, failure accounting, and
//! the results file, which is round-tripped through the repository's JSON
//! parser before it is written.

use std::path::Path;

use leishen::trace::json::{self, escape_into, fmt_f64, Json};

use crate::env::Env;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// One correctness gate and whether it held.
#[derive(Clone, Debug, PartialEq)]
pub struct Gate {
    /// What the gate checks.
    pub name: &'static str,
    /// Whether it held.
    pub passed: bool,
    /// The evidence, for the results file and the failure message.
    pub detail: String,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// The environment stamp.
    pub env: Env,
    /// Operations attempted (transactions scanned or streamed).
    pub attempted: u64,
    /// Operations failed: quarantined transactions, refused submits,
    /// journal crashes and verdict mismatches.
    pub failed: u64,
    /// Correctness gates.
    pub gates: Vec<Gate>,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
    /// Supporting facts for the results file (sample counts, the
    /// percentile a tail metric really is).
    pub notes: Vec<(String, Json)>,
}

impl Outcome {
    /// A new outcome with nothing measured yet.
    pub fn new(env: Env) -> Self {
        Outcome {
            env,
            attempted: 0,
            failed: 0,
            gates: Vec::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Adds a gate.
    pub fn gate(&mut self, name: &'static str, passed: bool, detail: impl Into<String>) {
        self.gates.push(Gate {
            name,
            passed,
            detail: detail.into(),
        });
    }

    /// Adds a supporting fact.
    pub fn note(&mut self, key: &str, value: Json) {
        self.notes.push((key.to_string(), value));
    }

    /// Attaches a list of numbers to the results file.
    pub fn note_list(&mut self, key: &str, values: &[f64]) {
        self.note(
            key,
            Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
        );
    }

    /// Whether every gate held.
    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.passed)
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(m.value)),
                            ("unit".into(), Json::Str(m.unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The one-line summary the benchmark prints last.
    pub fn result_line(&self) -> String {
        to_string(&Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), self.metrics_json()),
        ]))
    }

    /// The full results document.
    pub fn document(&self) -> Json {
        let gates = self
            .gates
            .iter()
            .map(|g| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(g.name.into())),
                    ("passed".into(), Json::Bool(g.passed)),
                    ("detail".into(), Json::Str(g.detail.clone())),
                ])
            })
            .collect();
        let failed_share = self.failed as f64 / self.attempted.max(1) as f64;
        Json::Obj(vec![
            ("bench".into(), Json::Str("leishen-perfbench".into())),
            ("env".into(), self.env.to_json()),
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("failed_share".into(), Json::Num(failed_share)),
            ("gates".into(), Json::Arr(gates)),
            ("metrics".into(), self.metrics_json()),
            ("notes".into(), Json::Obj(self.notes.clone())),
        ])
    }
}

/// Serializes a JSON value; numbers use the shortest form that parses
/// back to the same `f64`.
pub fn to_string(value: &Json) -> String {
    let mut out = String::new();
    write_json(value, &mut out);
    out
}

fn write_json(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => out.push_str(&fmt_f64(*n)),
        Json::Str(s) => {
            out.push('"');
            escape_into(out, s);
            out.push('"');
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(item, out);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (key, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                escape_into(out, key);
                out.push_str("\":");
                write_json(item, out);
            }
            out.push('}');
        }
    }
}

/// Serializes `value`, checks that parsing the text gives `value` back,
/// and only then writes it to `path`.
pub fn write_checked(path: &Path, value: &Json) -> Result<(), String> {
    let text = to_string(value);
    let reread = json::parse(&text).map_err(|e| format!("results do not parse back: {e}"))?;
    if &reread != value {
        return Err("results changed on a write/read round trip".into());
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        let mut o = Outcome::new(Env {
            workload: "stream-durable".into(),
            traced: false,
            hw_threads: 2,
            workers: 2,
            effective_workers: 2,
            profile: "release",
            seed: 42,
            scale: 0.05,
            txs: 13834,
            flagged_share: 0.013,
            offered_tx_per_s: Some(4000.0),
            journal_fs: Some("ext4".into()),
        });
        o.attempted = 13834;
        o.metric("verdict_p50_ms", "ms", 1.234_567_890_123);
        o.metric("setup_s", "s", 0.1);
        o.gate(
            "journal reopens to the emitted blocks",
            true,
            "705 blocks, 0 lost, 0 duplicated",
        );
        o.note(
            "label",
            Json::Str("quote \" backslash \\ newline \n".into()),
        );
        o
    }

    #[test]
    fn results_survive_a_write_read_round_trip() {
        let doc = outcome().document();
        let text = to_string(&doc);
        assert_eq!(json::parse(&text).unwrap(), doc);
        let line = json::parse(&outcome().result_line()).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let p50 = line
            .get("metrics")
            .and_then(|m| m.get("verdict_p50_ms"))
            .unwrap();
        assert_eq!(
            p50.get("value").and_then(Json::as_f64),
            Some(1.234_567_890_123)
        );
        assert_eq!(p50.get("unit").and_then(Json::as_str), Some("ms"));
    }

    #[test]
    fn a_value_that_cannot_round_trip_is_not_written() {
        let mut o = outcome();
        o.metric("tx_per_s", "tx/s", f64::NAN);
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/never-written.json");
        assert!(write_checked(&path, &o.document()).is_err());
        assert!(!path.exists());
    }

    #[test]
    fn a_failed_gate_makes_the_run_incorrect() {
        let mut o = outcome();
        assert!(o.correct());
        o.gate("verdicts equal", false, "1 mismatch");
        assert!(!o.correct());
        assert!(o.result_line().starts_with("{\"correct\":false,"));
    }
}
