//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own calls into each layer
//! (the program itself is not instrumented). Each span has a name, start
//! and end (nanoseconds since the recorder started), an optional parent,
//! a request id shared by the spans of one request batch, and the
//! counters the program returned for that call. Nothing is written until
//! [`Recorder::write_jsonl`] runs at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Id of a span; [`NONE`] when the recorder is disabled or no parent.
pub type SpanId = usize;
/// The "no span" id.
pub const NONE: SpanId = usize::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub request: u64,
    pub counters: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; returns [`NONE`] when disabled.
    pub fn start(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
            counters: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Close a span and attach its counters.
    pub fn end(&mut self, id: SpanId, counters: &[(&'static str, f64)]) {
        if id == NONE {
            return;
        }
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.counters.extend_from_slice(counters);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations in seconds of the spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::seconds).collect()
    }

    /// Sum of counter `key` over spans named `name`.
    pub fn counter_sum(&self, name: &str, key: &str) -> f64 {
        self.named(name)
            .flat_map(|s| s.counters.iter())
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .sum()
    }

    /// Self time of every span, in seconds: its duration minus the part
    /// of its interval covered by its children.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                children[s.parent].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| self_time(s.start_ns, s.end_ns, kids) as f64 * 1e-9)
            .collect()
    }

    /// Total and self seconds per span name, sorted by name.
    pub fn by_name(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.seconds();
            e.2 += own;
        }
        out
    }

    /// Every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        let mut text = String::new();
        text.push_str(header);
        text.push('\n');
        let selfs = self.self_times();
        for (i, (s, own)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                text,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"self_s\":{},\"counters\":{{",
                s.name, s.start_ns, s.end_ns, s.request, own
            );
            for (j, (k, v)) in s.counters.iter().enumerate() {
                let sep = if j == 0 { "" } else { "," };
                let _ = write!(text, "{sep}\"{k}\":{}", crate::json_num(*v));
            }
            text.push_str("}}\n");
        }
        std::fs::write(path, text)
    }
}

/// `end - start` minus the length of the union of `children` clipped to
/// `[start, end]`.
pub fn self_time(start: u64, end: u64, mut children: Vec<(u64, u64)>) -> u64 {
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for (s, e) in children {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    end.saturating_sub(start).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_union_of_children() {
        // Parent [0, 100]; children [10, 30] and [20, 50] overlap, so
        // together they cover 40; [90, 120] sticks out and covers 10.
        assert_eq!(self_time(0, 100, vec![(10, 30), (20, 50), (90, 120)]), 50);
        assert_eq!(self_time(0, 100, vec![]), 100);
        assert_eq!(self_time(0, 100, vec![(0, 100), (10, 20)]), 0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let id = r.start("x", NONE, 0);
        r.end(id, &[("k", 1.0)]);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn recorder_links_children_to_parents() {
        let mut r = Recorder::new(true);
        let p = r.start("parent", NONE, 7);
        let c = r.start("child", p, 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.end(c, &[("n", 3.0)]);
        r.end(p, &[]);
        let selfs = r.self_times();
        assert!(selfs[0] < r.spans()[0].seconds());
        assert!(selfs[1] >= 0.002);
        assert_eq!(r.counter_sum("child", "n"), 3.0);
        assert_eq!(r.by_name()["child"].0, 1);
    }
}
