//! # act-bench — the experiment harness
//!
//! Shared plumbing for the binaries that regenerate every table and figure
//! of the paper's evaluation (see `src/bin/`), plus the [`perf`] hot-path
//! benchmark.
//!
//! The central flow, mirroring the paper's methodology:
//!
//! 1. [`collect_clean_traces`] — run a workload's *clean* configuration over
//!    several input/interleaving seeds, keeping traces of runs its oracle
//!    accepts (ACT trains only on correct executions). Every run goes
//!    through `act_workloads::run`, the daemon's and the CLI's too.
//! 2. [`train_workload`] — offline training with the shared recipe
//!    ([`act_cfg`] is `ActConfig::recipe` at N = 2, hidden 10).
//! 3. [`find_act_failure`] — run the *triggering* configuration with ACT
//!    modules attached until a failure occurs (one production failure; it
//!    is never reproduced for ACT's diagnosis).
//! 4. [`diagnose_workload`] — build the Correct Set from fresh correct
//!    runs (`CorrectSet::from_traces`), prune + rank, and score against
//!    the workload's ground truth.
//! 5. [`aviso_diagnose`] / [`pbi_diagnose`] — the baselines, each with its
//!    own methodology (Aviso reproduces failures; PBI uses 15 correct + 1
//!    failing run).

pub mod campaign;
pub mod cli;
pub mod perf;

use act_baselines::aviso::Aviso;
use act_baselines::pbi;
use act_core::diagnosis::{diagnose, run_with_act, ActRun};
use act_core::offline::{offline_train, TrainedAct};
use act_core::weights::SharedWeightStore;
use act_core::ActConfig;
use act_trace::collector::TraceCollector;
use act_trace::correct_set::CorrectSet;
use act_trace::event::Trace;
use act_workloads::run::{correct_runs, first_failure};
use act_workloads::spec::{BuiltWorkload, Workload, NORM_CODE_LEN};

pub use act_workloads::run::{machine_cfg, norm_of};

/// ACT configuration used by the experiments: the shared training recipe
/// ([`ActConfig::recipe`]) at the daemon's default model, N = 2 and a
/// 10-neuron hidden layer.
pub fn act_cfg() -> ActConfig {
    // Sequence context is what distinguishes "same dependence, wrong
    // context" bugs (gzip, seq, apache); N = 1 can win error ties only
    // because it cannot even express them, so the harness pins N = 2.
    ActConfig::recipe(2, 10, 0, 0)
}

/// [`act_cfg`] with the normalization length pinned for `w`.
pub fn act_cfg_for(w: &dyn Workload) -> ActConfig {
    let mut cfg = act_cfg();
    cfg.norm_code_len = norm_of(w);
    cfg
}

/// The traces of the workload's correct clean runs, one run per seed (the
/// seed drives both the inputs and the interleaving), lazily.
pub(crate) fn clean_traces<'a>(
    w: &'a dyn Workload,
    seeds: impl Iterator<Item = u64> + 'a,
) -> impl Iterator<Item = Trace> + 'a {
    correct_runs(w, w.default_params(), seeds, |_| TraceCollector::new(NORM_CODE_LEN))
        .map(|run| run.observer.into_trace())
}

/// Run the workload's clean configuration once per seed and keep correct
/// runs' traces.
pub fn collect_clean_traces(w: &dyn Workload, seeds: impl Iterator<Item = u64>) -> Vec<Trace> {
    clean_traces(w, seeds).collect()
}

/// Offline-train ACT for a workload from its first `n_traces` correct
/// clean runs among seeds `0..2 * n_traces`.
///
/// # Panics
///
/// Panics if no clean run was correct (a workload bug).
pub fn train_workload(w: &dyn Workload, n_traces: usize, cfg: &ActConfig) -> TrainedAct {
    let traces: Vec<Trace> = clean_traces(w, 0..n_traces as u64 * 2).take(n_traces).collect();
    assert!(!traces.is_empty(), "{}: no correct training runs", w.name());
    offline_train(norm_of(w), &traces, cfg)
}

/// A failing trace of `w` the way a production client's tracing layer
/// would ship one, with its seed: the first triggered run from
/// `base_seed` on that fails, trying 64 seeds at most.
pub fn failing_trace(w: &dyn Workload, base_seed: u64) -> Option<(u64, Trace)> {
    let norm = norm_of(w);
    let seeds = base_seed..base_seed + 64;
    let failure =
        first_failure(w, w.default_params().triggered(), seeds, |_| TraceCollector::new(norm))?;
    Some((failure.seed, failure.observer.into_trace()))
}

/// A production failure observed under ACT.
pub struct ActFailure {
    /// The monitored run (debug buffers, stats).
    pub run: ActRun,
    /// The workload build that failed.
    pub built: BuiltWorkload,
    /// Machine seeds tried before the failure manifested.
    pub attempts: u64,
}

/// Run the triggering configuration with ACT attached until it fails.
/// Returns `None` if no failure manifests within `max_tries` seeds.
pub fn find_act_failure(
    w: &dyn Workload,
    store: &SharedWeightStore,
    cfg: &ActConfig,
    max_tries: u64,
) -> Option<ActFailure> {
    for seed in 0..max_tries {
        let built = w.build(&w.default_params().with_seed(seed).triggered());
        let run = run_with_act(&built.program, machine_cfg(seed), cfg, store);
        if built.is_failure(&run.outcome) {
            return Some(ActFailure { run, built, attempts: seed + 1 });
        }
    }
    None
}

/// One Table V / Table VI row for ACT.
#[derive(Debug, Clone)]
pub struct ActRow {
    /// Workload name.
    pub name: String,
    /// Failure status ("crash" or "completed"-with-wrong-output).
    pub status: String,
    /// Position of the buggy sequence from the newest end of the merged
    /// debug buffer (the paper's "Debug Buf. Pos.").
    pub debug_pos: Option<usize>,
    /// Percentage of distinct logged sequences pruned by the Correct Set.
    pub filter_pct: f64,
    /// 1-based rank of the first candidate containing the buggy dependence.
    pub rank: Option<usize>,
    /// Candidates surviving pruning.
    pub candidates: usize,
}

/// Diagnose a failure with ACT and score it against the ground truth.
pub fn diagnose_workload(w: &dyn Workload, failure: &ActFailure, seq_len: usize) -> ActRow {
    let bug = failure.built.bug.as_ref().expect("bug workload has ground truth");
    // Correct Set: ~20 fresh correct executions of the clean configuration
    // (the failure itself is never reproduced).
    let correct = CorrectSet::from_traces(&collect_clean_traces(w, 100..120u64), seq_len);
    let diag = diagnose(&failure.run, &correct);
    let rank = diag.rank_where(|s| bug.matches_any(&s.deps));
    let debug_pos = failure.run.debug_position_where(|e| bug.matches_any(&e.deps));
    ActRow {
        name: w.name().to_string(),
        status: failure.run.outcome.status().to_string(),
        debug_pos,
        filter_pct: diag.filter_pct(),
        rank,
        candidates: diag.ranked.len(),
    }
}

/// Aviso's result for a workload: rank and the number of failing runs that
/// had to be reproduced (the paper's "Rank (# of fail.)"), or `None` when
/// Aviso cannot handle the bug (sequential) or never finds the constraint.
pub fn aviso_diagnose(w: &dyn Workload, max_failures: u32) -> Option<(usize, u32)> {
    let bug_built = w.build(&w.default_params().triggered());
    let bug = bug_built.bug.as_ref()?;
    if !bug.class.is_concurrency() {
        return None; // Aviso only sees inter-thread events.
    }
    let mut aviso = Aviso::new(5);
    for t in clean_traces(w, 0..10) {
        aviso.add_correct_run(&t);
    }
    let triggered = w.default_params().triggered();
    let mut fail_seed = 0u64;
    for _ in 0..max_failures {
        // Reproduce a failure (Aviso's methodology requires this).
        let failure = first_failure(w, triggered, fail_seed..fail_seed + 50, |_| {
            TraceCollector::new(NORM_CODE_LEN)
        })?;
        fail_seed = failure.seed + 1;
        aviso.add_failing_run(&failure.observer.into_trace());
        if let Some(rank) = aviso.rank_where(|d| bug.matches(d)) {
            return Some((rank, aviso.failing_runs()));
        }
    }
    None
}

/// PBI's result: rank of the buggy instruction's predicate and the number
/// of candidate predicates, from 15 correct runs and 1 failing run.
pub fn pbi_diagnose(w: &dyn Workload) -> (Option<usize>, usize) {
    let collector = |_: &BuiltWorkload| pbi::PredicateCollector::new();
    let correct: Vec<_> = correct_runs(w, w.default_params(), 0..30, collector)
        .take(15)
        .map(|run| run.observer.into_predicates())
        .collect();
    // A single failing run, per the paper's comparison.
    let Some(failure) = first_failure(w, w.default_params().triggered(), 0..50, collector) else {
        return (None, 0);
    };
    let bug_pcs: Vec<u32> = match &failure.built.bug {
        Some(bug) => bug.store_pcs.iter().chain(&bug.load_pcs).copied().collect(),
        None => Vec::new(),
    };
    let failing = [failure.observer.into_predicates()];
    let scored = pbi::rank_predicates(&correct, &failing);
    pbi::rank_where(&scored, |pc| bug_pcs.contains(&pc))
}

/// Pretty-print helper: `Option<usize>` as a table cell.
pub fn opt(v: Option<usize>) -> String {
    v.map_or_else(|| "-".to_string(), |r| r.to_string())
}
