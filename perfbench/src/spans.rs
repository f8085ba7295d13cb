//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (nothing inside the simulator is instrumented), kept in memory, and
//! written at the end as Chrome trace-event JSON — the format the
//! simulator's `--trace-out` produces, so the same viewers open both.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `network.step`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin (equal to `start_ns`
    /// while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The simulation (or exhibit pass) this span belongs to.
    pub sim: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans. A disabled recorder only runs the closures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    sim: u64,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every call a plain pass-through.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), sim: 0 }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags subsequent spans with simulation id `sim`.
    pub fn set_sim(&mut self, sim: u64) {
        self.sim = sim;
    }

    /// Nanoseconds since the recorder's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Index of the innermost open span.
    pub fn innermost(&self) -> Option<usize> {
        self.open.last().copied()
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent: self.open.last().copied(),
            sim: self.sim,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("end() without a matching begin()");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Appends an already measured span (for work timed elsewhere, such
    /// as runner points measured by the runner itself).
    pub fn push(&mut self, span: Span) {
        if self.enabled {
            self.spans.push(span);
        }
    }

    /// Every recorded span, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).collect()
    }

    /// Total duration (ns) of spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.durations(name).iter().sum()
    }

    /// Writes the spans as Chrome trace-event JSON: one complete (`X`)
    /// event per span, `pid` = simulation id, timestamps in µs.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120 + 64);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{:.3},\"pid\":{},\"tid\":0,\
                 \"ph\":\"X\",\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.sim,
                s.dur_ns() as f64 / 1e3,
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Self time per span name: each span's duration minus the part of its
/// interval covered by its direct children, summed by name (ns).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(child_ns[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, sim: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // run [0,100) ⊃ step [10,40) ⊃ inner [15,25); run ⊃ step [50,70).
        let spans = vec![
            span("sim.run", 0, 100, None),
            span("network.step", 10, 40, Some(0)),
            span("inner", 15, 25, Some(1)),
            span("network.step", 50, 70, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st["sim.run"], 100 - 30 - 20);
        assert_eq!(st["network.step"], (30 - 10) + 20);
        assert_eq!(st["inner"], 10);
        // Self times partition the root's interval exactly.
        assert_eq!(st.values().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_sim(7);
        t.time("outer", || {});
        t.begin("a");
        t.begin("b");
        t.end();
        t.end();
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[1].parent, None);
        assert!(s.iter().all(|x| x.sim == 7 && x.end_ns >= x.start_ns));
        let json = t.to_chrome_json();
        let v: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(v.field("traceEvents").as_array().expect("events").len(), 3);

        let mut off = Tracer::new(false);
        assert_eq!(off.time("x", || 5), 5);
        assert!(off.spans().is_empty());
    }
}
