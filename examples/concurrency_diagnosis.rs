//! Concurrency-bug diagnosis: the motivating scenario from the paper's
//! introduction — an atomicity violation (the Fig 2(c) pattern modeled on
//! Apache's ref-counted-buffer bug) and an order violation (PBZip2's
//! premature queue teardown), each diagnosed from a *single* production
//! failure.
//!
//! Run with `cargo run --release -p act-bench --example concurrency_diagnosis`.

use act_bench::{act_cfg_for, collect_clean_traces, find_act_failure, train_workload};
use act_core::diagnosis::diagnose;
use act_core::weights::shared;
use act_trace::correct_set::CorrectSet;
use act_workloads::registry;

fn diagnose_one(name: &str) {
    println!("==== {name} ====");
    let w = registry::by_name(name).expect("workload exists");
    let cfg = act_cfg_for(w.as_ref());
    let trained = train_workload(w.as_ref(), 10, &cfg);
    let store = shared(trained.store.clone());

    let failure = find_act_failure(w.as_ref(), &store, &cfg, 20).expect("failure manifests");
    println!("failure: {}", failure.run.outcome);
    println!(
        "retirement stalls from the NN input FIFO: {} cycles",
        failure.run.machine_stats.total_attach_stalls()
    );

    let clean = collect_clean_traces(w.as_ref(), 100..120);
    let diag = diagnose(&failure.run, &CorrectSet::from_traces(&clean, trained.report.seq_len));
    let program = &failure.built.program;
    let bug = failure.built.bug.as_ref().unwrap();
    println!("bug class: {:?} — {}", bug.class, bug.description);
    for (i, cand) in diag.ranked.iter().take(3).enumerate() {
        let text: Vec<String> = cand
            .deps
            .iter()
            .map(|d| {
                format!("{}->{}", program.describe_pc(d.store_pc), program.describe_pc(d.load_pc))
            })
            .collect();
        let hit = if bug.matches_any(&cand.deps) { "  <-- root cause" } else { "" };
        println!("  rank {}: [{}]{hit}", i + 1, text.join(", "));
    }
    println!();
}

fn main() {
    diagnose_one("apache");
    diagnose_one("pbzip2");
}
