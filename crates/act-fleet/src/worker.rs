//! Worker threads and failure isolation.
//!
//! [`parallel_map`] is the one parallel runner: scoped worker threads claim
//! the next item with one atomic `fetch_add`, send each result home over a
//! channel, and the collector re-indexes results by item index, which is
//! what makes a campaign's aggregate report independent of worker count
//! and scheduling. [`run_jobs`] runs a campaign's jobs through it, each
//! executor call inside `catch_unwind` and timed: a panicking job becomes
//! [`JobOutcome::Crashed`] — recorded like any other result, it never
//! poisons the campaign.

use crate::spec::JobDesc;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A single metric value in a job's output.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// An integer metric (counts, ranks, cycles).
    Int(i64),
    /// A floating-point metric (rates, percentages).
    Float(f64),
    /// A non-numeric metric (statuses, topology labels). Excluded from
    /// numeric aggregation but carried into the report.
    Text(String),
}

impl Metric {
    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Metric::Int(v) => Some(*v as f64),
            Metric::Float(v) => Some(*v),
            Metric::Text(_) => None,
        }
    }
}

/// What a completed job hands back.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobOutput {
    /// Named metrics, in the executor's emission order (kept stable so the
    /// report is byte-identical across runs).
    pub metrics: Vec<(String, Metric)>,
    /// Pre-rendered human-readable lines (e.g. a table row); binaries print
    /// these in job order after the campaign finishes.
    pub lines: Vec<String>,
}

impl JobOutput {
    /// Append an integer metric.
    pub fn int(mut self, key: &str, v: i64) -> Self {
        self.metrics.push((key.to_string(), Metric::Int(v)));
        self
    }

    /// Append a float metric.
    pub fn float(mut self, key: &str, v: f64) -> Self {
        self.metrics.push((key.to_string(), Metric::Float(v)));
        self
    }

    /// Append a text metric.
    pub fn text(mut self, key: &str, v: &str) -> Self {
        self.metrics.push((key.to_string(), Metric::Text(v.to_string())));
        self
    }

    /// Append a display line.
    pub fn line(mut self, l: String) -> Self {
        self.lines.push(l);
        self
    }

    /// Look up a metric by key.
    pub fn metric(&self, key: &str) -> Option<&Metric> {
        self.metrics.iter().find(|(k, _)| k == key).map(|(_, m)| m)
    }
}

/// How a job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The executor returned normally.
    Completed(JobOutput),
    /// The executor panicked; the payload is the panic message.
    Crashed {
        /// Panic payload rendered to text (`&str`/`String` payloads; other
        /// types become a placeholder).
        message: String,
    },
}

impl JobOutcome {
    /// Whether the job completed.
    pub fn is_completed(&self) -> bool {
        matches!(self, JobOutcome::Completed(_))
    }

    /// The output, if completed.
    pub fn output(&self) -> Option<&JobOutput> {
        match self {
            JobOutcome::Completed(out) => Some(out),
            JobOutcome::Crashed { .. } => None,
        }
    }
}

/// One finished job: description, outcome, and wall-clock time.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The grid cell that ran.
    pub job: JobDesc,
    /// How it ended.
    pub outcome: JobOutcome,
    /// Wall-clock time of the executor call (timing only — never part of
    /// the deterministic report section).
    pub wall: Duration,
}

/// Run every job across `workers` threads through [`parallel_map`];
/// results come back **in `jobs` order** — job id order for an expanded
/// grid — regardless of scheduling.
///
/// The executor is shared by reference across workers, so it must be
/// [`Sync`]; everything job-specific should be built inside the call from
/// the [`JobDesc`] (that is what keeps jobs deterministic and lock-free).
pub fn run_jobs<F>(jobs: &[JobDesc], workers: usize, exec: &F) -> Vec<JobResult>
where
    F: Fn(&JobDesc) -> JobOutput + Sync,
{
    parallel_map(jobs, workers, |_, job| {
        let start = Instant::now();
        let outcome = match catch_unwind(AssertUnwindSafe(|| exec(job))) {
            Ok(out) => JobOutcome::Completed(out),
            Err(payload) => JobOutcome::Crashed { message: panic_message(&*payload) },
        };
        JobResult { job: job.clone(), outcome, wall: start.elapsed() }
    })
}

/// Map `f` over `items` across `workers` threads; results come back
/// **ordered by item index** regardless of scheduling.
///
/// [`run_jobs`] runs campaigns through it. `f` must depend only on its
/// item (and index), so the result vector is identical at any worker
/// count.
/// There is no failure isolation here — a panic in `f` propagates to the
/// caller with its original payload (`run_jobs` catches inside `f`).
///
/// `workers <= 1` (or a single item) runs inline on the caller's thread
/// with no thread or channel overhead.
pub fn parallel_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, std::thread::Result<R>)>();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (next, f) = (&next, &f);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = catch_unwind(AssertUnwindSafe(|| f(i, &items[i])));
                if tx.send((i, r)).is_err() {
                    break; // collector is gone; stop pulling
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        for (i, r) in rx {
            match r {
                Ok(v) => slots[i] = Some(v),
                // Re-raise on the caller's thread with the worker's payload.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|| panic!("item {i} produced no result")))
            .collect()
    })
}

/// Render a `catch_unwind` payload to text (`&str`/`String` payloads; other
/// types become a placeholder). Shared with `act-serve`'s request-level
/// crash isolation, which wants the same message shape in its error frames.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;

    #[test]
    fn results_come_back_in_id_order() {
        let mut spec = CampaignSpec::new("t", "run", &["w"]);
        spec.seeds = (0..24).collect();
        let jobs = spec.expand();
        let exec = |job: &JobDesc| {
            // Stagger finish times against claim order.
            std::thread::sleep(Duration::from_millis((job.seed % 3) * 2));
            JobOutput::default().int("seed", job.seed as i64)
        };
        let results = run_jobs(&jobs, 6, &exec);
        assert_eq!(results.len(), 24);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.job.id, i);
            assert_eq!(r.outcome.output().unwrap().metric("seed"), Some(&Metric::Int(i as i64)));
        }
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        let jobs = CampaignSpec::new("t", "run", &["w"]).expand();
        let results = run_jobs(&jobs, 0, &|_| JobOutput::default());
        assert_eq!(results.len(), 1);
        assert!(results[0].outcome.is_completed());
    }

    #[test]
    fn parallel_map_preserves_index_order_at_any_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|v| v * v).collect();
        for workers in [0, 1, 2, 3, 8, 64] {
            let got = parallel_map(&items, workers, |i, &v| {
                // Stagger finish times against claim order.
                std::thread::sleep(Duration::from_millis((v % 3) * 2));
                assert_eq!(items[i], v);
                v * v
            });
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        assert_eq!(parallel_map(&[] as &[u8], 4, |_, &v| v), Vec::<u8>::new());
        assert_eq!(parallel_map(&[7u8], 4, |_, &v| v + 1), vec![8]);
    }

    #[test]
    fn parallel_map_propagates_worker_panics() {
        let items: Vec<usize> = (0..16).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(&items, 4, |_, &v| {
                if v == 9 {
                    panic!("boom at {v}");
                }
                v
            })
        }));
        let payload = caught.expect_err("panic must propagate");
        assert_eq!(panic_message(&*payload), "boom at 9");
    }
}
