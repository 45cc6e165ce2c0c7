//! Sequential-bug diagnosis: ACT is not limited to concurrency bugs. This
//! example diagnoses the paper's gzip semantic bug (Fig 2(d): a stale file
//! descriptor when `-` appears mid-input) and the ptx buffer overflow
//! (Fig 2(e): odd trailing backslashes walk off the buffer) — bugs the
//! Aviso-style baseline cannot see at all because they produce no
//! inter-thread events.
//!
//! Run with `cargo run --release -p act-bench --example sequential_diagnosis`.

use act_bench::{
    act_cfg_for, aviso_diagnose, collect_clean_traces, find_act_failure, train_workload,
};
use act_core::diagnosis::diagnose;
use act_core::weights::shared;
use act_trace::correct_set::CorrectSet;
use act_workloads::registry;

fn main() {
    for name in ["gzip", "ptx"] {
        println!("==== {name} ====");
        let w = registry::by_name(name).expect("workload exists");
        let cfg = act_cfg_for(w.as_ref());
        let trained = train_workload(w.as_ref(), 10, &cfg);
        let store = shared(trained.store.clone());

        let failure = find_act_failure(w.as_ref(), &store, &cfg, 20).expect("bug triggers");
        println!(
            "failure: {} (expected {:?}, got {:?})",
            failure.run.outcome,
            failure.built.expected_output,
            failure.run.outcome.output()
        );

        let clean = collect_clean_traces(w.as_ref(), 100..120);
        let diag = diagnose(&failure.run, &CorrectSet::from_traces(&clean, trained.report.seq_len));
        let bug = failure.built.bug.as_ref().unwrap();
        let program = &failure.built.program;
        match diag.rank_where(|s| bug.matches_any(&s.deps)) {
            Some(rank) => {
                let cand = &diag.ranked[rank - 1];
                let text: Vec<String> = cand
                    .deps
                    .iter()
                    .map(|d| {
                        format!(
                            "{}->{}",
                            program.describe_pc(d.store_pc),
                            program.describe_pc(d.load_pc)
                        )
                    })
                    .collect();
                println!("ACT rank {rank}: [{}]", text.join(", "));
            }
            None => println!("ACT did not rank the root cause"),
        }
        // Aviso cannot handle sequential bugs by construction.
        assert!(aviso_diagnose(w.as_ref(), 3).is_none());
        println!("Aviso: not applicable (no inter-thread events)\n");
    }
}
