//! Regenerates **Table VI**: bugs injected into *new* functions absent from
//! training. ACT is trained on the base program, deployed on the extended
//! one (adapting online to the new code's valid dependences), and must
//! still rank the injected bug.
//!
//! Run with `cargo run --release -p act-bench --bin table6`.

use act_bench::{act_cfg_for, machine_cfg, opt, train_workload};
use act_core::diagnosis::{diagnose, run_with_act};
use act_core::weights::shared;
use act_trace::collector::TraceCollector;
use act_trace::correct_set::CorrectSet;
use act_workloads::injected;
use act_workloads::run::correct_runs;
use act_workloads::spec::Params;

fn main() {
    println!("{:<36} {:>8} {:>6}", "Prog:Function", "Filter%", "Rank");
    println!("{}", "-".repeat(54));
    for w in injected::all() {
        let cfg = act_cfg_for(w.as_ref());
        // 1. Train on the BASE program (new function not present).
        let trained = train_workload(w.as_ref(), 10, &cfg);
        let store = shared(trained.store.clone());
        let n = trained.report.seq_len;

        // 2. Deploy on the extended program: first some correct production
        //    runs (online training adapts to the new code and patches the
        //    weights back), then the failure.
        for seed in 50..54u64 {
            let built = w.build(&Params { seed, new_code: true, ..w.default_params() });
            let _ = run_with_act(&built.program, machine_cfg(seed), &cfg, &store);
        }
        let mut failure = None;
        for seed in 0..20u64 {
            let built = w.build(&Params { seed, new_code: true, ..w.default_params().triggered() });
            let run = run_with_act(&built.program, machine_cfg(seed), &cfg, &store);
            if built.is_failure(&run.outcome) {
                failure = Some((run, built));
                break;
            }
        }
        let Some((run, built)) = failure else {
            println!("{:<36} {:>8} {:>6}", w.name(), "-", "no failure");
            continue;
        };
        let bug = built.bug.as_ref().expect("injected bug");

        // 3. Correct Set from extended-program correct runs.
        let extended = Params { new_code: true, ..w.default_params() };
        let traces: Vec<_> = correct_runs(w.as_ref(), extended, 100..120, |b| {
            TraceCollector::new(b.program.code_len())
        })
        .map(|run| run.observer.into_trace())
        .collect();
        let diag = diagnose(&run, &CorrectSet::from_traces(&traces, n));
        let rank = diag.rank_where(|s| bug.matches_any(&s.deps));
        println!("{:<36} {:>7.1} {:>6}", w.name(), diag.filter_pct(), opt(rank));
    }
}
