//! Integration tests spanning every crate: the full train → fail → diagnose
//! pipeline on representative bugs (one per bug class), plus the invariants
//! the paper's headline claims rest on.

use act_bench::{act_cfg_for, collect_clean_traces, find_act_failure, train_workload};
use act_core::diagnosis::diagnose;
use act_core::weights::shared;
use act_trace::correct_set::CorrectSet;
use act_workloads::registry;

fn diagnose_rank(name: &str) -> Option<usize> {
    let w = registry::by_name(name).expect("workload exists");
    let cfg = act_cfg_for(w.as_ref());
    let trained = train_workload(w.as_ref(), 8, &cfg);
    let store = shared(trained.store.clone());
    let failure = find_act_failure(w.as_ref(), &store, &cfg, 20)?;
    let clean = collect_clean_traces(w.as_ref(), 100..116);
    let diag = diagnose(&failure.run, &CorrectSet::from_traces(&clean, trained.report.seq_len));
    let bug = failure.built.bug.as_ref().unwrap();
    diag.rank_where(|s| bug.matches_any(&s.deps))
}

#[test]
fn diagnoses_atomicity_violation_apache() {
    let rank = diagnose_rank("apache").expect("bug found");
    assert!(rank <= 5, "apache rank {rank}");
}

#[test]
fn diagnoses_order_violation_pbzip2() {
    let rank = diagnose_rank("pbzip2").expect("bug found");
    assert!(rank <= 5, "pbzip2 rank {rank}");
}

#[test]
fn diagnoses_semantic_bug_gzip() {
    let rank = diagnose_rank("gzip").expect("bug found");
    assert!(rank <= 5, "gzip rank {rank}");
}

#[test]
fn diagnoses_buffer_overflow_paste() {
    let rank = diagnose_rank("paste").expect("bug found");
    assert!(rank <= 5, "paste rank {rank}");
}

#[test]
fn clean_runs_produce_quiet_testing_mode() {
    // A trained module on a clean deterministic kernel flags (almost)
    // nothing: the overhead story depends on the debug path being cold.
    let w = registry::by_name("fluidanimate").unwrap();
    let cfg = act_cfg_for(w.as_ref());
    let trained = train_workload(w.as_ref(), 8, &cfg);
    let store = shared(trained.store.clone());
    let built = w.build(&w.default_params().with_seed(7));
    let run =
        act_core::diagnosis::run_with_act(&built.program, act_bench::machine_cfg(7), &cfg, &store);
    assert!(run.outcome.completed());
    let preds: u64 = run.module_stats.iter().map(|s| s.predictions).sum();
    let inval: u64 = run.module_stats.iter().map(|s| s.invalids).sum();
    assert!(preds > 0);
    assert!(
        (inval as f64) <= 0.10 * preds as f64,
        "{inval}/{preds} flagged on a clean trained run"
    );
}

#[test]
fn diagnosis_survives_preemptive_scheduling() {
    // §IV-D: context switches save/restore the weight registers. Run the
    // apache failure on a 2-core machine with a preemption quantum — the
    // three threads time-slice, weights migrate, and the bug is still
    // caught.
    use act_sim::config::MachineConfig;

    let w = registry::by_name("apache").unwrap();
    let cfg = act_cfg_for(w.as_ref());
    let trained = train_workload(w.as_ref(), 8, &cfg);
    let store = shared(trained.store.clone());

    let mut failure = None;
    for seed in 0..20u64 {
        let built = w.build(&w.default_params().with_seed(seed).triggered());
        let mcfg = MachineConfig {
            cores: 2,
            preemption_quantum: 5_000,
            seed,
            jitter_ppm: 10_000,
            ..Default::default()
        };
        let run = act_core::diagnosis::run_with_act(&built.program, mcfg, &cfg, &store);
        if built.is_failure(&run.outcome) {
            failure = Some((run, built));
            break;
        }
    }
    let (run, built) = failure.expect("failure manifests under preemption");
    let bug = built.bug.as_ref().unwrap();
    assert!(
        run.debug_position_where(|e| bug.matches_any(&e.deps)).is_some(),
        "bug sequence must be in the debug buffer under preemptive scheduling"
    );
}

#[test]
fn persisted_weights_diagnose_like_fresh_ones() {
    // Binary patching round trip: save the trained store to bytes, load it
    // back, and diagnose with the loaded copy.
    use act_core::weights::WeightStore;

    let w = registry::by_name("gzip").unwrap();
    let cfg = act_cfg_for(w.as_ref());
    let trained = train_workload(w.as_ref(), 8, &cfg);
    let mut buf = Vec::new();
    trained.store.save(&mut buf).unwrap();
    let loaded = WeightStore::load(buf.as_slice()).unwrap();
    assert_eq!(loaded.seq_len(), trained.store.seq_len());

    let store = shared(loaded);
    let failure = find_act_failure(w.as_ref(), &store, &cfg, 10).expect("gzip bug triggers");
    let clean = collect_clean_traces(w.as_ref(), 100..112);
    let diag = diagnose(&failure.run, &CorrectSet::from_traces(&clean, trained.report.seq_len));
    let bug = failure.built.bug.as_ref().unwrap();
    assert!(diag.rank_where(|s| bug.matches_any(&s.deps)).is_some_and(|r| r <= 5));
}
