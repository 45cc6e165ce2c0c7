//! # act-fleet — parallel campaign orchestration
//!
//! Every evaluation target in the ACT reproduction (tables, figures,
//! ablations) runs dozens of *independent* single-threaded `act-sim`
//! machines. This crate is the fan-out/aggregate layer over them: a
//! declarative campaign spec (workload × config × seed grid,
//! [`spec::CampaignSpec`]) expands into a job list, jobs execute across
//! worker threads ([`worker::run_jobs`]), and results
//! funnel into an aggregator ([`aggregate`]) and a structured report with
//! machine-readable JSON output ([`report::CampaignReport`]).
//!
//! Two guarantees shape the design:
//!
//! 1. **Determinism under parallelism.** Each job owns its entire
//!    deterministic pipeline (machine, RNG streams, ACT modules are built
//!    inside the job from its seed), results are re-indexed by job id, and
//!    aggregation folds in id order — so the same campaign and seeds
//!    produce a byte-identical `results` section at any `--jobs` count.
//!    Wall-clock timing lives in a separate `timing` section that is
//!    explicitly outside the guarantee.
//! 2. **Failure isolation.** A panicking job is caught on its worker,
//!    recorded as [`worker::JobOutcome::Crashed`], and the rest of the
//!    campaign proceeds; the crash is a row in the report, not the end of
//!    the run.
//!
//! This is also the substrate the paper's production story implies: many
//! deployed machines each contribute traces and failure reports to one
//! diagnosis pipeline. Executors live with their domains (see `act-bench`'s
//! `campaign` module for the table/figure executors and `act campaign` in
//! `act-cli` for the command-line entry).

pub mod aggregate;
pub mod error;
pub mod queue;
pub mod report;
pub mod spec;
pub mod worker;

pub use aggregate::{Aggregate, MetricSummary};
pub use error::SpecError;
pub use queue::BoundedQueue;
pub use report::{CampaignReport, Timing};
pub use spec::{CampaignSpec, JobDesc, ModelKey};
pub use worker::{panic_message, parallel_map, JobOutcome, JobOutput, JobResult, Metric};

use act_obs::{events, Level};
use std::time::Instant;

/// Worker count to use when the caller does not specify one: the host's
/// available parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run a whole campaign: expand the grid, execute every job across
/// `workers` threads, aggregate, and stamp timing.
///
/// The executor maps one [`JobDesc`] to a [`JobOutput`]; it is called
/// concurrently from worker threads and must build all per-job state
/// internally from the description (see the crate docs for why).
pub fn run_campaign<F>(spec: &CampaignSpec, workers: usize, exec: F) -> CampaignReport
where
    F: Fn(&JobDesc) -> JobOutput + Sync,
{
    let jobs = spec.expand();
    let effective_workers = workers.max(1).min(jobs.len().max(1));
    events().emit(
        Level::Info,
        "fleet.campaign",
        format!(
            "campaign `{}` kind={} started: {} jobs across {} workers",
            spec.name,
            spec.kind,
            jobs.len(),
            effective_workers
        ),
    );
    let start = Instant::now();
    let results = worker::run_jobs(&jobs, workers, &exec);
    let total_ms = start.elapsed().as_secs_f64() * 1e3;
    let per_job_ms: Vec<f64> = results.iter().map(|r| r.wall.as_secs_f64() * 1e3).collect();
    let sum_job_ms: f64 = per_job_ms.iter().sum();
    let aggregate = aggregate::aggregate(&results);
    record_campaign_obs(spec, &results, total_ms);
    CampaignReport {
        spec: spec.clone(),
        results,
        aggregate,
        timing: Timing {
            workers: effective_workers,
            total_ms,
            sum_job_ms,
            speedup: if total_ms > 0.0 { sum_job_ms / total_ms } else { 1.0 },
            per_job_ms,
        },
    }
}

/// Emit a finished campaign's progress events: one per crashed job, then
/// a summary.
fn record_campaign_obs(spec: &CampaignSpec, results: &[JobResult], total_ms: f64) {
    for result in results {
        if let JobOutcome::Crashed { message } = &result.outcome {
            events().emit(
                Level::Warn,
                "fleet.job",
                format!("job {} ({}) crashed: {message}", result.job.id, result.job.workload),
            );
        }
    }
    let crashes = results.iter().filter(|r| !r.outcome.is_completed()).count();
    events().emit(
        Level::Info,
        "fleet.campaign",
        format!(
            "campaign `{}` finished: {}/{} jobs ok in {total_ms:.0} ms",
            spec.name,
            results.len() - crashes,
            results.len()
        ),
    );
}
