//! What a run reports: counts of attempted and failed operations,
//! end-to-end and per-layer figures, and the printed lines.

use crate::gen::Sent;
use crate::stats::Summary;

/// Attempted and failed operations, with the first failures kept for
/// the report.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(why);
        }
    }

    /// Records a check that is not a request.
    pub fn check(&mut self, result: Result<(), String>) {
        match result {
            Ok(()) => self.ok(),
            Err(e) => self.fail(e),
        }
    }

    pub fn sent(&mut self, records: &[Sent]) {
        for r in records {
            match &r.error {
                None => self.ok(),
                Some(e) => self.fail(e.clone()),
            }
        }
    }
}

/// A workload's figures.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    /// `(name, unit, value)` of every end-to-end metric.
    pub e2e: Vec<(&'static str, &'static str, f64)>,
    /// Per-layer figures in `BENCHMARK.json` order (traced run only).
    pub layers: Vec<(crate::layers::LayerMetric, f64)>,
    /// Report lines printed before the result.
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn line(&mut self, text: String) {
        self.lines.push(text);
    }

    /// Prints a latency sample as `{p50}` and `{p90}` metric lines with
    /// its sample count, then its tail (p99 and max) on a detail line.
    pub fn latency(&mut self, workload: &str, p50: &str, p90: &str, values: &[f64]) {
        let Some(s) = Summary::of(values) else {
            self.line(format!("metric {workload} {p50} n=0"));
            return;
        };
        self.figure(workload, p50, s.p50, "ms", s.n);
        self.figure(workload, p90, s.p90, "ms", s.n);
        self.line(format!("detail {workload} {p50} {}", s.describe("ms")));
    }

    /// Prints one figure by name, unit and sample count.
    pub fn figure(&mut self, workload: &str, name: &str, value: f64, unit: &str, n: usize) {
        self.line(format!(
            "metric {workload} {name} {value:.6} {unit} (n={n})"
        ));
    }
}
