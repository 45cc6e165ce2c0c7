//! The structured campaign report and its JSON rendering.
//!
//! The report has two top-level sections with different contracts:
//!
//! - `results` — **deterministic**: a pure function of the spec and the job
//!   seeds. Byte-identical at any `--jobs` count and across runs (see
//!   [`CampaignReport::deterministic_json`]).
//! - `timing` — per-job wall-clock, total wall-clock, and the aggregate
//!   speedup (`sum of job time / campaign wall time`), so future
//!   `BENCH_*.json` entries can track fleet scaling. Timing varies run to
//!   run by nature and is therefore excluded from the determinism
//!   guarantee; pass `include_timing = false` (CLI `--no-timing`) to strip
//!   it for byte-comparable artifacts.
//!
//! JSON is rendered by hand (no serde in the offline dependency set):
//! object keys are emitted in fixed order, floats in shortest-roundtrip
//! form, and non-finite floats as `null`, so equal values always render to
//! equal bytes.

use crate::aggregate::Aggregate;
use crate::spec::CampaignSpec;
use crate::worker::{JobOutcome, JobResult, Metric};

/// Timing of one whole campaign run.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock of the whole campaign, milliseconds.
    pub total_ms: f64,
    /// Sum of per-job wall-clocks, milliseconds (serial-equivalent time).
    pub sum_job_ms: f64,
    /// `sum_job_ms / total_ms`: the realized parallel speedup.
    pub speedup: f64,
    /// Per-job wall-clock in job-id order, milliseconds.
    pub per_job_ms: Vec<f64>,
}

/// Everything a campaign produces.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The spec that ran (name, kind, and grid are echoed into the report).
    pub spec: CampaignSpec,
    /// Per-job results, in job-id order.
    pub results: Vec<JobResult>,
    /// Campaign-level rollup.
    pub aggregate: Aggregate,
    /// Wall-clock accounting for this particular run.
    pub timing: Timing,
}

impl CampaignReport {
    /// The full JSON report, timing included.
    pub fn json(&self) -> String {
        self.render(true)
    }

    /// The deterministic section only: byte-identical for the same spec and
    /// seeds at any worker count.
    pub fn deterministic_json(&self) -> String {
        self.render(false)
    }

    /// Human-readable lines the executors emitted, in job order — what the
    /// experiment binaries print as their table body.
    pub fn lines(&self) -> impl Iterator<Item = &str> {
        self.results.iter().flat_map(|r| match &r.outcome {
            JobOutcome::Completed(out) => out.lines.iter().map(String::as_str).collect::<Vec<_>>(),
            JobOutcome::Crashed { .. } => Vec::new(),
        })
    }

    fn render(&self, include_timing: bool) -> String {
        let mut w = JsonWriter::new();
        w.raw("{");
        w.key("campaign");
        w.str(&self.spec.name);
        w.key("kind");
        w.str(&self.spec.kind);
        w.key("grid");
        {
            w.raw("{");
            w.key("workloads");
            w.str_array(&self.spec.workloads);
            w.key("configs");
            w.str_array(&self.spec.configs);
            w.key("seeds");
            w.raw(&format!(
                "[{}]",
                self.spec.seeds.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
            ));
            w.raw("}");
            w.comma();
        }
        w.key("results");
        self.render_results(&mut w);
        if include_timing {
            w.comma();
            w.key("timing");
            self.render_timing(&mut w);
        }
        w.raw("}");
        w.finish()
    }

    fn render_results(&self, w: &mut JsonWriter) {
        w.raw("{");
        w.key("jobs");
        w.raw("[");
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                w.raw(",");
            }
            w.raw("{");
            w.key("id");
            w.raw(&r.job.id.to_string());
            w.comma();
            w.key("workload");
            w.str(&r.job.workload);
            w.key("config");
            w.str(&r.job.config);
            w.key("seed");
            w.raw(&r.job.seed.to_string());
            w.comma();
            match &r.outcome {
                JobOutcome::Completed(out) => {
                    w.key("outcome");
                    w.str("completed");
                    w.key("metrics");
                    w.raw("{");
                    for (j, (k, m)) in out.metrics.iter().enumerate() {
                        if j > 0 {
                            w.raw(",");
                        }
                        w.key(k);
                        match m {
                            Metric::Int(v) => w.raw(&v.to_string()),
                            Metric::Float(v) => w.float(*v),
                            Metric::Text(v) => {
                                w.str(v);
                                w.uncomma();
                            }
                        }
                    }
                    w.raw("}");
                }
                JobOutcome::Crashed { message } => {
                    w.key("outcome");
                    w.str("crashed");
                    w.key("error");
                    w.str(message);
                    w.uncomma();
                }
            }
            w.raw("}");
        }
        w.raw("]");
        w.comma();
        w.key("aggregate");
        w.raw("{");
        w.key("total");
        w.raw(&self.aggregate.total.to_string());
        w.comma();
        w.key("completed");
        w.raw(&self.aggregate.completed.to_string());
        w.comma();
        w.key("crashed");
        w.raw(&self.aggregate.crashed.to_string());
        w.comma();
        w.key("metrics");
        w.raw("[");
        for (i, m) in self.aggregate.metrics.iter().enumerate() {
            if i > 0 {
                w.raw(",");
            }
            w.raw("{");
            w.key("key");
            w.str(&m.key);
            w.key("count");
            w.raw(&m.count.to_string());
            w.comma();
            w.key("sum");
            w.float(m.sum);
            w.comma();
            w.key("mean");
            w.float(m.mean);
            w.comma();
            w.key("min");
            w.float(m.min);
            w.comma();
            w.key("max");
            w.float(m.max);
            w.raw("}");
        }
        w.raw("]}");
        w.raw("}");
    }

    fn render_timing(&self, w: &mut JsonWriter) {
        w.raw("{");
        w.key("workers");
        w.raw(&self.timing.workers.to_string());
        w.comma();
        w.key("total_ms");
        w.float(self.timing.total_ms);
        w.comma();
        w.key("sum_job_ms");
        w.float(self.timing.sum_job_ms);
        w.comma();
        w.key("speedup");
        w.float(self.timing.speedup);
        w.comma();
        w.key("per_job_ms");
        w.raw("[");
        for (i, ms) in self.timing.per_job_ms.iter().enumerate() {
            if i > 0 {
                w.raw(",");
            }
            w.float(*ms);
        }
        w.raw("]}");
    }
}

/// A tiny append-only JSON writer with deterministic formatting.
struct JsonWriter {
    buf: String,
}

impl JsonWriter {
    fn new() -> Self {
        JsonWriter { buf: String::new() }
    }

    fn raw(&mut self, s: &str) {
        self.buf.push_str(s);
    }

    /// `"key":` — call after the opening brace or a comma-producing value.
    fn key(&mut self, k: &str) {
        self.string_literal(k);
        self.buf.push(':');
    }

    /// A string value followed by a comma (the common "more keys follow"
    /// case); call [`JsonWriter::uncomma`] if it was the last member.
    fn str(&mut self, s: &str) {
        self.string_literal(s);
        self.buf.push(',');
    }

    fn comma(&mut self) {
        self.buf.push(',');
    }

    /// Drop a just-written trailing comma.
    fn uncomma(&mut self) {
        if self.buf.ends_with(',') {
            self.buf.pop();
        }
    }

    fn str_array(&mut self, items: &[String]) {
        self.buf.push('[');
        for (i, s) in items.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.string_literal(s);
        }
        self.buf.push_str("],");
    }

    /// Shortest-roundtrip float; non-finite renders as `null` (JSON has no
    /// NaN/Infinity). Integral values carry a `.0` so the type is stable.
    fn float(&mut self, v: f64) {
        if v.is_finite() {
            self.buf.push_str(&format!("{v:?}"));
        } else {
            self.buf.push_str("null");
        }
    }

    fn string_literal(&mut self, s: &str) {
        self.buf.push('"');
        for c in s.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                '\r' => self.buf.push_str("\\r"),
                '\t' => self.buf.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.buf.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }

    fn finish(mut self) -> String {
        self.buf.push('\n');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::aggregate;
    use crate::spec::{CampaignSpec, JobDesc};
    use crate::worker::{JobOutcome, JobOutput, JobResult};
    use std::time::Duration;

    fn sample_report() -> CampaignReport {
        let spec = CampaignSpec::new("demo", "run", &["w\"x"]);
        let results = vec![
            JobResult {
                job: JobDesc { id: 0, workload: "w\"x".into(), config: "default".into(), seed: 0 },
                outcome: JobOutcome::Completed(
                    JobOutput::default().int("cycles", 120).float("rate", 0.5).text("status", "ok"),
                ),
                wall: Duration::from_millis(3),
            },
            JobResult {
                job: JobDesc { id: 1, workload: "w\"x".into(), config: "default".into(), seed: 1 },
                outcome: JobOutcome::Crashed { message: "index out of bounds\n(line 3)".into() },
                wall: Duration::from_millis(1),
            },
        ];
        let agg = aggregate(&results);
        CampaignReport {
            spec,
            results,
            aggregate: agg,
            timing: Timing {
                workers: 2,
                total_ms: 3.5,
                sum_job_ms: 4.0,
                speedup: 4.0 / 3.5,
                per_job_ms: vec![3.0, 1.0],
            },
        }
    }

    #[test]
    fn deterministic_json_is_valid_and_escaped() {
        let j = sample_report().deterministic_json();
        // Structure smoke checks (no serde available to parse).
        assert!(j.starts_with('{') && j.ends_with("}\n"), "{j}");
        assert!(j.contains("\"campaign\":\"demo\""));
        assert!(j.contains("\"workload\":\"w\\\"x\""), "quote escaping: {j}");
        assert!(j.contains("\"outcome\":\"crashed\""));
        assert!(j.contains("\\n(line 3)"), "newline escaping: {j}");
        assert!(j.contains("\"cycles\":120"));
        assert!(j.contains("\"rate\":0.5"));
        assert!(!j.contains("timing"), "deterministic section must exclude timing");
        // Balanced braces/brackets (cheap well-formedness check; no strings
        // in this fixture contain braces).
        let opens = j.matches(['{', '[']).count();
        let closes = j.matches(['}', ']']).count();
        assert_eq!(opens, closes, "{j}");
    }

    #[test]
    fn full_json_adds_timing() {
        let j = sample_report().json();
        assert!(j.contains("\"timing\":{\"workers\":2"));
        assert!(j.contains("\"per_job_ms\":[3.0,1.0]"));
        assert!(j.contains("\"speedup\":"));
    }

    #[test]
    fn floats_render_deterministically() {
        let mut w = JsonWriter::new();
        w.float(1.0);
        w.raw(" ");
        w.float(0.1);
        w.raw(" ");
        w.float(f64::NAN);
        assert_eq!(w.finish(), "1.0 0.1 null\n");
    }
}
