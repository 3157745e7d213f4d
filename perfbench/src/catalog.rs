//! The metrics this benchmark reports, with units and direction —
//! the lists `BENCHMARK.json` names.

use std::collections::BTreeMap;

use crate::report::Outcome;

/// `(name, unit, better)` of every end-to-end metric, reported by every
/// untraced run.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("tx_per_s", "tx/s", "higher"),
    ("verdict_p50_ms", "ms", "lower"),
    ("verdict_p99_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric, reported by every
/// traced run. A layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str, &str); 63] = [
    ("ethsim.exec_s", "s", "lower"),
    ("ethsim.txs_executed", "count", "higher"),
    ("ethsim.exec_us_per_tx", "us", "lower"),
    ("flashloan.self_ms", "ms", "lower"),
    ("flashloan.loans", "count", "higher"),
    ("tagging.self_ms", "ms", "lower"),
    ("tagging.lookups", "count", "lower"),
    ("tagging.misses", "count", "lower"),
    ("tagging.hit_ratio", "ratio", "higher"),
    ("tagging.cache_entries", "count", "lower"),
    ("tagging.lock_waits", "count", "lower"),
    ("tagging.snapshot_rebuilds", "count", "lower"),
    ("tagging.front_build_ms_p50", "ms", "lower"),
    ("tagging.front_build_ms_p99", "ms", "lower"),
    ("simplify.self_ms", "ms", "lower"),
    ("simplify.coalesced_txs", "count", "lower"),
    ("simplify.merged", "count", "higher"),
    ("simplify.dropped", "count", "higher"),
    ("trades.self_ms", "ms", "lower"),
    ("trades.count", "count", "higher"),
    ("patterns.self_ms", "ms", "lower"),
    ("patterns.pairs_examined", "count", "lower"),
    ("patterns.matches", "count", "higher"),
    ("patterns.match_ratio", "ratio", "higher"),
    ("detector.analyze_us_p50", "us", "lower"),
    ("detector.analyze_us_p99", "us", "lower"),
    ("detector.samples", "count", "higher"),
    ("detector.stage_sum_ratio", "ratio", "higher"),
    ("detector.flagged_share", "ratio", "higher"),
    ("detector.traced_tx_per_s", "tx/s", "higher"),
    ("detector.untraced_tx_per_s", "tx/s", "higher"),
    ("sched.plan_ms", "ms", "lower"),
    ("sched.clusters", "count", "higher"),
    ("sched.waves", "count", "lower"),
    ("sched.chunks", "count", "lower"),
    ("scan.effective_workers", "count", "higher"),
    ("scan.serial_pass_ms", "ms", "lower"),
    ("scan.parallel_pass_ms", "ms", "lower"),
    ("scan.parallel_efficiency", "ratio", "higher"),
    ("scan.overhead_ms", "ms", "lower"),
    ("resilience.quarantined", "count", "lower"),
    ("resilience.guard_ratio", "ratio", "lower"),
    ("telemetry.overhead_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.recorded", "count", "higher"),
    ("trace.pinned", "count", "higher"),
    ("trace.evicted", "count", "lower"),
    ("trace.export_ms", "ms", "lower"),
    ("trace.export_bytes", "bytes", "lower"),
    ("stream.blocks", "count", "higher"),
    ("stream.submit_wait_ms_p99", "ms", "lower"),
    ("stream.producer_waits", "count", "lower"),
    ("stream.ingest_max_depth", "count", "lower"),
    ("stream.emit_max_depth", "count", "lower"),
    ("stream.submit_to_emit_ms_p50", "ms", "lower"),
    ("store.append_ms_p50", "ms", "lower"),
    ("store.append_ms_p99", "ms", "lower"),
    ("store.frames", "count", "higher"),
    ("store.flushes", "count", "lower"),
    ("store.bytes_per_tx", "B/tx", "lower"),
    ("gen.offered_tx_per_s", "tx/s", "higher"),
    ("gen.late_ms_p50", "ms", "lower"),
    ("gen.late_ms_p99", "ms", "lower"),
];

/// Per-layer values a traced run filled in; the rest report 0.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets a per-layer metric. Panics on a name missing from
    /// [`PER_LAYER`], which is a bug in this benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Moves every per-layer metric into `outcome`, in catalogue order.
    pub fn report(&self, outcome: &mut Outcome) {
        for (name, unit, _) in PER_LAYER {
            outcome.metric(name, unit, self.0.get(name).copied().unwrap_or(0.0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leishen::trace::json::{parse, Json};

    fn names(list: &Json) -> Vec<(String, String, String)> {
        list.as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str, &str)]) -> Vec<(String, String, String)> {
        list.iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(names(spec.get("end_to_end").unwrap()), owned(&END_TO_END));
        assert_eq!(names(spec.get("per_layer").unwrap()), owned(&PER_LAYER));
    }

    #[test]
    fn unset_layers_report_zero_and_every_name_once() {
        let mut layers = Layers::default();
        layers.set("trace.pinned", 180.0);
        let mut outcome = Outcome::new(crate::env::Env {
            workload: "scan-wild".into(),
            traced: true,
            hw_threads: 2,
            workers: 2,
            effective_workers: 2,
            profile: "release",
            seed: 42,
            scale: 0.1,
            txs: 27485,
            flagged_share: 180.0 / 27485.0,
            offered_tx_per_s: None,
            journal_fs: None,
        });
        layers.report(&mut outcome);
        assert_eq!(outcome.metrics.len(), PER_LAYER.len());
        let pinned = outcome
            .metrics
            .iter()
            .find(|m| m.name == "trace.pinned")
            .unwrap();
        assert_eq!(pinned.value, 180.0);
        let mut seen: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), PER_LAYER.len());
    }
}
