//! Cross-crate integration invariants that no single crate can test alone.

use act_bench::{act_cfg_for, collect_clean_traces, machine_cfg, norm_of, train_workload};
use act_core::module::ActModule;
use act_core::weights::{shared, WeightStore};
use act_serve::ModelSpec;
use act_sim::machine::Machine;
use act_trace::collector::TraceCollector;
use act_trace::correct_set::CorrectSet;
use act_trace::input_gen::WindowFormer;
use act_trace::raw::{observed_deps, raw_deps};
use act_workloads::registry;
use act_workloads::spec::Params;
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

/// The hardware-observed dependence stream must be a subsequence of the
/// precise replay: cache metadata can *lose* writers (evictions, clean
/// transfers) but can never invent one that functional replay disagrees
/// with at word granularity.
#[test]
fn observed_deps_subset_of_precise_deps() {
    for name in ["fft", "bc", "canneal"] {
        let w = registry::by_name(name).unwrap();
        let traces = collect_clean_traces(w.as_ref(), 0..2);
        for t in &traces {
            let precise: std::collections::HashSet<_> =
                raw_deps(t).into_iter().map(|d| (d.seq, d.dep)).collect();
            let observed = observed_deps(t);
            assert!(!observed.is_empty(), "{name}: no observed deps");
            for d in &observed {
                assert!(
                    precise.contains(&(d.seq, d.dep)),
                    "{name}: observed dep {} at seq {} not in precise replay",
                    d.dep,
                    d.seq
                );
            }
            assert!(observed.len() <= raw_deps(t).len());
        }
    }
}

/// Workload determinism: same seed, same machine config -> same outcome and
/// cycle count, across every registered workload (clean configuration).
#[test]
fn workloads_are_deterministic() {
    for w in registry::all() {
        let built = w.build(&w.default_params().with_seed(3));
        let run = |_: u32| {
            let mut m = Machine::new(&built.program, machine_cfg(3));
            let o = m.run();
            (o, m.stats().total_cycles)
        };
        assert_eq!(run(0), run(1), "{} is nondeterministic", w.name());
    }
}

/// Triggered builds change only the data segment, never the code: the
/// paper's bugs are latent in the binary and triggered by timing/input.
#[test]
fn trigger_changes_data_not_code() {
    for w in registry::all() {
        let clean = w.build(&w.default_params());
        let hot = w.build(&w.default_params().triggered());
        assert_eq!(
            clean.program.instrs,
            hot.program.instrs,
            "{}: triggering must not modify code",
            w.name()
        );
    }
}

/// Every real-bug workload must actually fail under its trigger within a
/// few interleaving seeds, and run correctly without it.
#[test]
fn real_bugs_trigger_and_clean_runs_pass() {
    for w in act_workloads::bugs::all() {
        let clean = w.build(&w.default_params().with_seed(1));
        let out = Machine::new(&clean.program, machine_cfg(1)).run();
        assert!(clean.is_correct(&out), "{} clean run failed: {out}", w.name());

        let mut failed = false;
        for seed in 0..10 {
            let hot = w.build(&Params { seed, ..w.default_params().triggered() });
            let out = Machine::new(&hot.program, machine_cfg(seed)).run();
            if hot.is_failure(&out) {
                failed = true;
                break;
            }
        }
        assert!(failed, "{} never failed under trigger", w.name());
    }
}

/// The experiment harness and the diagnosis daemon train one model for the
/// same workload: `act serve`'s default `TRAIN` and the harness's
/// `train_workload` at `act_cfg_for`, with the harness's Correct Set from
/// seeds 100..120, agree byte for byte — weights and Correct Set alike.
#[test]
fn harness_and_daemon_train_the_same_model() {
    let bytes = |store: &WeightStore| {
        let mut buf = Vec::new();
        store.save(&mut buf).expect("in-memory save");
        buf
    };
    let sequences = |set: &CorrectSet| {
        let mut seqs: Vec<_> = set.sequences().cloned().collect();
        seqs.sort();
        (set.seq_len(), seqs)
    };
    for name in ["seq", "gzip"] {
        let w = registry::by_name(name).unwrap();
        let daemon = act_serve::cache::train_model(&ModelSpec::new(name)).expect("daemon trains");
        let harness = train_workload(w.as_ref(), 10, &act_cfg_for(w.as_ref()));
        let correct = CorrectSet::from_traces(
            &collect_clean_traces(w.as_ref(), 100..120),
            harness.store.seq_len(),
        );
        assert_eq!(bytes(&daemon.store), bytes(&harness.store), "{name}: weights differ");
        assert_eq!(sequences(&daemon.correct), sequences(&correct), "{name}: Correct Sets differ");
        assert_eq!(daemon.norm_code_len, norm_of(w.as_ref()), "{name}: encodings differ");
    }
}

/// The simulator path and the service path form the same windows. The
/// first failing run of each Table V bug (the harness's training, seeds
/// from 0, the default machine) runs once with an ACT module on every core
/// and a trace collector attached, so both see the same `LoadEvent`s — the
/// collector at dispatch, the modules at retirement or in the crash drain.
/// Every debug entry a module logged must be one of the windows the Input
/// Generator's former forms from that run's trace, with the same deps,
/// thread and cycle, and the modules must have predicted exactly as many
/// windows as the trace path forms.
#[test]
fn module_and_trace_path_form_the_same_windows() {
    for w in act_workloads::bugs::all() {
        let cfg = act_cfg_for(w.as_ref());
        let store = shared(train_workload(w.as_ref(), 10, &cfg).store);
        let n = store.borrow().seq_len();
        let (modules, trace) = (0..20)
            .find_map(|seed| {
                let built = w.build(&w.default_params().with_seed(seed).triggered());
                let mut machine = Machine::new(&built.program, machine_cfg(seed));
                let modules: Vec<_> = (0..machine.stats().cores.len())
                    .map(|core| {
                        let m = ActModule::new(cfg.clone(), cfg.norm_code_len, store.clone());
                        let m = Rc::new(RefCell::new(m));
                        machine.attach(core, Box::new(m.clone()));
                        m
                    })
                    .collect();
                let mut collector = TraceCollector::new(cfg.norm_code_len);
                let outcome = machine.run_observed(&mut collector);
                built.is_failure(&outcome).then(|| (modules, collector.into_trace()))
            })
            .unwrap_or_else(|| panic!("{} never failed", w.name()));

        let mut windows = HashSet::new();
        let mut formed = 0u64;
        WindowFormer::new(n).each_window(&trace, |r, window| {
            windows.insert((window.collect::<Vec<_>>(), r.tid, r.cycle));
            formed += 1;
        });
        let mut predictions = 0;
        let mut logged = 0;
        for m in &modules {
            let m = m.borrow();
            predictions += m.stats().predictions;
            for e in m.debug_buffer().entries() {
                logged += 1;
                assert!(
                    windows.contains(&(e.deps.clone(), e.tid, e.cycle)),
                    "{}: the module logged a window the trace path never forms: {e:?}",
                    w.name()
                );
            }
        }
        eprintln!(
            "{:<10} module predictions {predictions:>6}  trace windows {formed:>6}  logged {logged}",
            w.name()
        );
        assert_eq!(predictions, formed, "{}: the two paths formed different windows", w.name());
    }
}
