//! The run's result: named metrics with units, failure accounting, and the
//! one-line JSON object the benchmark ends its standard output with.

use std::fmt::Write as _;

#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_owned(), value, unit));
    }

    /// A human-readable line printed above the result (sample counts,
    /// percentile levels).
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }
}

/// The outcome of one benchmark run.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    /// Counts `ops` operations, failed when `result` is an error.
    pub fn tally(&mut self, ops: u64, result: Result<(), String>) {
        self.attempted += ops;
        if let Err(e) = result {
            self.failed += ops;
            self.errors.push(e);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The report: a readable table, then the JSON result as the last line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for error in &self.errors {
            let _ = writeln!(out, "error: {error}");
        }
        for note in &self.metrics.notes {
            let _ = writeln!(out, "{note}");
        }
        for (name, value, unit) in &self.metrics.entries {
            let _ = writeln!(out, "{name:<36} {value:>16.6} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .entries
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        out
    }
}
