//! Deterministic aggregation of job results.
//!
//! Everything here folds over results **in job-id order** (the order
//! [`run_jobs`](crate::worker::run_jobs) returns), so sums and means are
//! bit-identical at any worker count: same jobs, same values, same fold
//! order. Only completed jobs contribute to metric summaries; crashed jobs
//! are counted, not averaged.

use crate::worker::JobResult;

/// Summary statistics for one metric key across completed jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSummary {
    /// The metric key.
    pub key: String,
    /// Completed jobs that emitted this key with a numeric value.
    pub count: usize,
    /// Sum over those jobs, folded in job-id order.
    pub sum: f64,
    /// `sum / count`.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

/// Campaign-level rollup of all job results.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Total jobs in the grid.
    pub total: usize,
    /// Jobs whose executor returned normally.
    pub completed: usize,
    /// Jobs whose executor panicked.
    pub crashed: usize,
    /// Per-key numeric summaries, sorted by key.
    pub metrics: Vec<MetricSummary>,
}

impl Aggregate {
    /// Look up a metric summary by key.
    pub fn metric(&self, key: &str) -> Option<&MetricSummary> {
        self.metrics.iter().find(|m| m.key == key)
    }
}

/// Fold `results` (already in job-id order) into an [`Aggregate`].
pub fn aggregate(results: &[JobResult]) -> Aggregate {
    let completed = results.iter().filter(|r| r.outcome.is_completed()).count();
    // Key discovery in first-seen order, then sorted: stable regardless of
    // which keys which jobs emit.
    let mut keys: Vec<String> = Vec::new();
    for r in results {
        if let Some(out) = r.outcome.output() {
            for (k, m) in &out.metrics {
                if m.as_f64().is_some() && !keys.iter().any(|e| e == k) {
                    keys.push(k.clone());
                }
            }
        }
    }
    keys.sort_unstable();
    let metrics = keys
        .into_iter()
        .map(|key| {
            let mut count = 0usize;
            let mut sum = 0.0f64;
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            for r in results {
                let Some(v) =
                    r.outcome.output().and_then(|out| out.metric(&key)).and_then(|m| m.as_f64())
                else {
                    continue;
                };
                count += 1;
                sum += v;
                min = min.min(v);
                max = max.max(v);
            }
            MetricSummary { key, count, sum, mean: sum / count.max(1) as f64, min, max }
        })
        .collect();
    Aggregate { total: results.len(), completed, crashed: results.len() - completed, metrics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobDesc;
    use crate::worker::{JobOutcome, JobOutput, JobResult};
    use std::time::Duration;

    fn job(id: usize) -> JobDesc {
        JobDesc { id, workload: "w".into(), config: "default".into(), seed: id as u64 }
    }

    fn done(id: usize, out: JobOutput) -> JobResult {
        JobResult { job: job(id), outcome: JobOutcome::Completed(out), wall: Duration::ZERO }
    }

    #[test]
    fn aggregates_numeric_metrics_and_counts_crashes() {
        let results = vec![
            done(0, JobOutput::default().int("rank", 1).float("pct", 50.0).text("status", "ok")),
            done(1, JobOutput::default().int("rank", 3).float("pct", 100.0)),
            JobResult {
                job: job(2),
                outcome: JobOutcome::Crashed { message: "boom".into() },
                wall: Duration::ZERO,
            },
        ];
        let agg = aggregate(&results);
        assert_eq!((agg.total, agg.completed, agg.crashed), (3, 2, 1));
        // Text metrics are excluded; keys are sorted.
        assert_eq!(agg.metrics.iter().map(|m| m.key.as_str()).collect::<Vec<_>>(), ["pct", "rank"]);
        let rank = &agg.metrics[1];
        assert_eq!((rank.count, rank.sum, rank.mean, rank.min, rank.max), (2, 4.0, 2.0, 1.0, 3.0));
    }

    #[test]
    fn empty_campaign_aggregates_cleanly() {
        let agg = aggregate(&[]);
        assert_eq!((agg.total, agg.completed, agg.crashed), (0, 0, 0));
        assert!(agg.metrics.is_empty());
    }
}
