//! Quickstart: the full ACT loop on one real bug.
//!
//! 1. Train ACT offline from traces of correct runs.
//! 2. Run production with ACT modules attached until the bug bites.
//! 3. Diagnose from the debug buffer — without reproducing the failure.
//!
//! Run with `cargo run --release -p act-bench --example quickstart`.

use act_bench::{act_cfg_for, find_act_failure, train_workload};
use act_core::diagnosis::diagnose;
use act_core::weights::shared;
use act_trace::correct_set::CorrectSet;
use act_workloads::registry;

fn main() {
    let workload = registry::by_name("apache").expect("apache workload exists");
    let cfg = act_cfg_for(workload.as_ref());

    // 1. Offline training on 10 correct executions.
    println!("training ACT on correct runs of `{}`...", workload.name());
    let trained = train_workload(workload.as_ref(), 10, &cfg);
    println!(
        "  topology {} over {}-dependence sequences; held-out FP {:.2}%",
        trained.report.topology,
        trained.report.seq_len,
        100.0 * trained.report.test_fp_rate
    );

    // 2. Production: run the triggering configuration until it fails.
    let store = shared(trained.store.clone());
    let failure = find_act_failure(workload.as_ref(), &store, &cfg, 20)
        .expect("the bug manifests within a few runs");
    println!("production failure: {}", failure.run.outcome);
    println!("  debug buffer holds {} flagged sequence(s)", failure.run.debug.len());

    // 3. Postprocess: Correct Set from fresh correct runs, prune, rank.
    let traces = act_bench::collect_clean_traces(workload.as_ref(), 100..120);
    let set = CorrectSet::from_traces(&traces, trained.report.seq_len);
    let diag = diagnose(&failure.run, &set);
    println!("diagnosis ({} candidates after pruning {}):", diag.ranked.len(), diag.pruned);
    let program = &failure.built.program;
    for (i, cand) in diag.ranked.iter().take(5).enumerate() {
        let names: Vec<String> = cand
            .deps
            .iter()
            .map(|d| {
                format!(
                    "{} -> {}{}",
                    program.describe_pc(d.store_pc),
                    program.describe_pc(d.load_pc),
                    if d.inter_thread { " (inter-thread)" } else { "" }
                )
            })
            .collect();
        println!("  #{}: [{}]  (nn output {:.3})", i + 1, names.join(", "), cand.output);
    }
    let bug = failure.built.bug.as_ref().unwrap();
    match diag.rank_where(|s| bug.matches_any(&s.deps)) {
        Some(rank) => println!("ground-truth root cause found at rank {rank}"),
        None => println!("ground-truth root cause NOT in the ranking"),
    }
}
