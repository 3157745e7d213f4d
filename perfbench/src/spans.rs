//! In-memory spans recorded around calls into the library.
//!
//! A span has a name, a start, an end, an optional parent span, and the
//! id of the trace it belongs to (a transaction's id, or a block number),
//! so every span of one transaction shares that id. Spans stay in memory
//! while the traced run works and are written out once, at the end.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its [`Spans`] recorder.
pub type SpanId = u32;

/// One recorded interval, in nanoseconds since the recorder's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `tagging` or `store.append`.
    pub name: &'static str,
    /// Trace id shared by every span of one transaction or block.
    pub trace: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start offset, nanoseconds.
    pub start_ns: u64,
    /// End offset, nanoseconds.
    pub end_ns: u64,
}

/// The span recorder of one traced run.
pub struct Spans {
    epoch: Instant,
    read_costs: Vec<f64>,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose epoch is now, with its clock calibrated.
    pub fn new() -> Self {
        let mut spans = Spans {
            epoch: Instant::now(),
            read_costs: Vec::new(),
            spans: Vec::new(),
        };
        spans.calibrate();
        spans
    }

    /// Measures what one clock read costs now: the median of several
    /// rounds of back-to-back reads, so an interruption during one round
    /// does not skew it. The host's speed drifts during a run, so a run
    /// calibrates again after each phase it times.
    pub fn calibrate(&mut self) {
        let rounds: Vec<f64> = (0..9)
            .map(|_| {
                const READS: u64 = 10_000;
                let first = self.now();
                let mut last = first;
                for _ in 0..READS {
                    last = std::hint::black_box(self.now());
                }
                (last - first) as f64 / READS as f64
            })
            .collect();
        self.read_costs.push(crate::stats::median(&rounds));
    }

    /// Nanoseconds one clock read takes, the median of the calibrations so
    /// far. A span delimited by consecutive reads contains about one read's
    /// cost that the measured code did not spend.
    pub fn read_ns(&self) -> f64 {
        crate::stats::median(&self.read_costs)
    }

    /// Nanoseconds since the epoch; pass consecutive readings to
    /// [`Spans::record`] so adjacent spans share their boundary.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The epoch offset of an instant taken elsewhere (0 if earlier).
    pub fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span starting now; [`Spans::close`] ends it.
    pub fn open(&mut self, name: &'static str, trace: u64, parent: Option<SpanId>) -> SpanId {
        let start = self.now();
        self.record(name, trace, parent, start, start)
    }

    /// Runs `f` inside a root span named `name`.
    pub fn time<T>(&mut self, name: &'static str, trace: u64, f: impl FnOnce() -> T) -> T {
        let span = self.open(name, trace, None);
        let out = f();
        self.close(span);
        out
    }

    /// Ends an open span now.
    pub fn close(&mut self, id: SpanId) {
        let end = self.now();
        self.spans[id as usize].end_ns = end;
    }

    /// Records a span whose bounds were read already.
    pub fn record(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            trace,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Every span, in recording order.
    #[cfg(test)]
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part of its interval
    /// that its child spans cover (overlapping children count once).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.clamp(reach, s.end_ns);
                    let end = end.clamp(start, s.end_ns);
                    covered += end - start;
                    reach = reach.max(end);
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Self time summed per span name, nanoseconds.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name).or_insert(0) += own;
        }
        out
    }

    /// Durations (not self times) of every span named `name`, nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Median duration of the spans named `name`, ms.
    pub fn median_ms(&self, name: &str) -> f64 {
        crate::stats::median(&self.durations(name)) / 1e6
    }

    /// One JSON object per span and line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"trace\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name, s.trace, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mut spans = Spans::new();
        let pass = spans.record("pass", 0, None, 0, 100);
        let tx = spans.record("tx", 7, Some(pass), 10, 90);
        spans.record("flashloan", 7, Some(tx), 10, 30);
        spans.record("tagging", 7, Some(tx), 30, 60);
        // Overlapping children cover their union, not their sum.
        spans.record("patterns", 7, Some(tx), 50, 70);
        let own = spans.self_ns();
        assert_eq!(own, vec![20, 20, 20, 30, 20]);
        let by_name = spans.self_ns_by_name();
        assert_eq!(by_name["tx"], 20);
        assert_eq!(by_name["pass"], 20);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let mut spans = Spans::new();
        let block = spans.record("block", 1, None, 100, 200);
        spans.record("submit", 1, Some(block), 50, 120);
        spans.record("store.append", 1, Some(block), 180, 250);
        assert_eq!(spans.self_ns()[0], 100 - 20 - 20);
    }

    #[test]
    fn a_leaf_span_is_all_self_time_and_shares_its_trace_id() {
        let mut spans = Spans::new();
        let id = spans.open("detector.analyze", 42, None);
        spans.close(id);
        let s = spans.all()[0];
        assert_eq!(spans.self_ns()[0], s.end_ns - s.start_ns);
        assert_eq!(s.trace, 42);
        assert!(spans.to_jsonl().contains("\"trace\":42"));
    }
}
