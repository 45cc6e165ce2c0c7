//! Micro-benchmarks for the offline analyses: RAW extraction, input
//! generation, and prune-and-rank postprocessing.

use act_bench::{act_cfg_for, collect_clean_traces, norm_of, train_workload};
use act_core::module::DebugEntry;
use act_core::postprocess::postprocess;
use act_sim::events::RawDep;
use act_trace::correct_set::CorrectSet;
use act_trace::input_gen::sequences_ext;
use act_trace::raw::observed_deps;
use act_workloads::registry;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_trace_analysis(c: &mut Criterion) {
    let w = registry::by_name("lu").unwrap();
    let traces = collect_clean_traces(w.as_ref(), 0..2);
    let trace = &traces[0];
    let mut group = c.benchmark_group("trace_analysis");
    group.bench_function("observed_deps", |b| b.iter(|| black_box(observed_deps(trace))));
    let deps = observed_deps(trace);
    group.bench_function("input_gen_n2_cross4", |b| {
        b.iter(|| black_box(sequences_ext(&deps, 2, 4)))
    });
    group.finish();
}

fn bench_postprocess(c: &mut Criterion) {
    let w = registry::by_name("lu").unwrap();
    let set = CorrectSet::from_traces(&collect_clean_traces(w.as_ref(), 0..4), 2);
    // A debug buffer of 60 synthetic entries.
    let entries: Vec<DebugEntry> = (0..60u32)
        .map(|i| DebugEntry {
            deps: vec![
                RawDep { store_pc: i % 7, load_pc: 40 + i % 5, inter_thread: i % 2 == 0 },
                RawDep { store_pc: i % 11, load_pc: 50 + i % 3, inter_thread: false },
            ],
            output: 0.1,
            cycle: i as u64,
            tid: 0,
        })
        .collect();
    c.bench_function("prune_and_rank_60", |b| b.iter(|| black_box(postprocess(&entries, &set))));
}

fn bench_offline_training(c: &mut Criterion) {
    let mut group = c.benchmark_group("offline_training");
    group.sample_size(10);
    let w = registry::by_name("gzip").unwrap();
    let cfg = act_cfg_for(w.as_ref());
    group.bench_function("train_gzip_4_traces", |b| {
        b.iter(|| black_box(train_workload(w.as_ref(), 4, &cfg).report.seq_len))
    });
    let _ = norm_of(w.as_ref());
    group.finish();
}

criterion_group!(benches, bench_trace_analysis, bench_postprocess, bench_offline_training);
criterion_main!(benches);
