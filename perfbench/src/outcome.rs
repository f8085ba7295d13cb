//! What one benchmark run reports.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Operations attempted and failed, problems found by the output
/// checks, free-form notes, and the metrics.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (simulation points and output checks).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Everything that makes the run incorrect.
    pub problems: Vec<String>,
    /// Context printed before the result (counts, loads, self times).
    pub notes: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records a failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    /// Records a problem that is not an operation of its own.
    pub fn problem(&mut self, why: String) {
        self.problems.push(why);
    }

    /// Adds a note.
    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}
