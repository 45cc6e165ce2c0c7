//! Regenerates **Fig 7(b)**: adaptivity to new code — train with one
//! function's dependences *excluded*, then measure what fraction of that
//! function's (valid) dependence sequences the network reports incorrect.
//! The paper reports ~6.2% average incorrect (≈94% generalization); see
//! DESIGN.md for why our encoding is expected to be more conservative.
//!
//! Run with `cargo run --release -p act-bench --bin fig7b`.

use act_bench::{act_cfg_for, collect_clean_traces, norm_of};
use act_core::encoding::Encoder;
use act_core::offline::offline_train;
use act_nn::network::Network;
use act_trace::event::{Trace, TraceKind};
use act_trace::input_gen::WindowFormer;
use act_workloads::kernels;
use std::collections::HashSet;

/// Remove every record whose pc falls in `func`'s range (per the built
/// program's function table).
fn exclude_function(trace: &Trace, start: u32, end: u32) -> Trace {
    Trace {
        records: trace
            .records
            .iter()
            .filter(|r| {
                !(matches!(r.kind, TraceKind::Load { .. } | TraceKind::Store { .. })
                    && r.pc >= start
                    && r.pc < end)
            })
            .copied()
            .collect(),
        code_len: trace.code_len,
    }
}

fn main() {
    println!("{:<16} {:<24} {:>12}", "Program", "Excluded fn", "% incorrect");
    println!("{}", "-".repeat(56));
    let mut sum = 0.0;
    let mut count = 0;
    // Concurrent kernels only, as in the paper ("the hardest to predict").
    for w in kernels::all() {
        let built = w.build(&w.default_params());
        if built.program.functions.len() < 2 {
            continue;
        }
        // Exclude the last worker function.
        let func = built.program.functions.last().unwrap().clone();
        let cfg = act_cfg_for(w.as_ref());
        let traces = collect_clean_traces(w.as_ref(), 0..10);
        if traces.is_empty() {
            continue;
        }
        let pruned: Vec<Trace> =
            traces.iter().map(|t| exclude_function(t, func.start, func.end)).collect();
        let trained = offline_train(norm_of(w.as_ref()), &pruned, &cfg);
        let n = trained.report.seq_len;
        let enc = Encoder::new(norm_of(w.as_ref()));

        // Distinct sequences of the excluded function, from the full traces.
        let mut seen: HashSet<Vec<act_sim::events::RawDep>> = HashSet::new();
        let mut wrong = 0usize;
        let mut former = WindowFormer::new(n);
        for t in &traces {
            former.each_window(t, |r, window| {
                let window: Vec<_> = window.collect();
                let touches =
                    window.iter().any(|d| d.load_pc >= func.start && d.load_pc < func.end);
                if touches && seen.insert(window.clone()) {
                    let mut net = trained.store.network_for(r.tid, 0.2);
                    if !Network::classify(net.predict(&enc.encode_seq(&window))) {
                        wrong += 1;
                    }
                }
            });
        }
        if seen.is_empty() {
            continue;
        }
        let pct = 100.0 * wrong as f64 / seen.len() as f64;
        println!("{:<16} {:<24} {:>11.1}%", w.name(), func.name, pct);
        sum += pct;
        count += 1;
    }
    println!("{}", "-".repeat(56));
    if count > 0 {
        println!("Average incorrect on new code: {:.1}%", sum / count as f64);
    }
}
