//! End-to-end diagnosis workflow: run a program with ACT modules attached,
//! collect the per-core debug buffers, and postprocess them against a
//! Correct Set of fresh correct executions
//! ([`CorrectSet::from_traces`]) into a ranked diagnosis — all without
//! ever reproducing the failure.

use crate::config::ActConfig;
use crate::module::{ActModule, DebugEntry, ModuleStats};
use crate::postprocess::{postprocess, Diagnosis};
use crate::weights::SharedWeightStore;
use act_nn::pipeline::PipelineStats;
use act_sim::config::MachineConfig;
use act_sim::machine::Machine;
use act_sim::outcome::RunOutcome;
use act_sim::program::Program;
use act_sim::stats::Stats;
use act_trace::correct_set::CorrectSet;
use act_trace::input_gen::WindowFormer;
use std::cell::RefCell;
use std::rc::Rc;

/// Everything a monitored (production) run produced.
#[derive(Debug, Clone)]
pub struct ActRun {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Debug-buffer contents merged across cores, in time order.
    pub debug: Vec<DebugEntry>,
    /// Machine statistics (cycles, stalls, cache behaviour).
    pub machine_stats: Stats,
    /// Per-core ACT module statistics.
    pub module_stats: Vec<ModuleStats>,
    /// Per-core pipeline statistics.
    pub pipeline_stats: Vec<PipelineStats>,
}

impl ActRun {
    /// Position of the first debug entry satisfying `matcher`, counted
    /// backwards from the most recent entry (1 = newest). This is the
    /// paper's "Debug Buf. Pos." column: how deep in the buffer the buggy
    /// sequence sat when the failure happened.
    pub fn debug_position_where<F>(&self, mut matcher: F) -> Option<usize>
    where
        F: FnMut(&DebugEntry) -> bool,
    {
        self.debug.iter().rev().position(&mut matcher).map(|i| i + 1)
    }
}

/// Run `program` once with an ACT module attached to every core.
///
/// `store` carries the offline-trained weights in and the online-retrained
/// weights out (the paper's binary patching on thread exit).
pub fn run_with_act(
    program: &Program,
    machine_cfg: MachineConfig,
    act_cfg: &ActConfig,
    store: &SharedWeightStore,
) -> ActRun {
    let mut machine = Machine::new(program, machine_cfg);
    let norm = if act_cfg.norm_code_len > 0 { act_cfg.norm_code_len } else { program.code_len() };
    let modules: Vec<Rc<RefCell<ActModule>>> = (0..machine.stats().cores.len())
        .map(|_| Rc::new(RefCell::new(ActModule::new(act_cfg.clone(), norm, store.clone()))))
        .collect();
    for (i, m) in modules.iter().enumerate() {
        machine.attach(i, Box::new(m.clone()));
    }
    let outcome = machine.run();
    let machine_stats = machine.stats().clone();

    let mut debug: Vec<DebugEntry> = Vec::new();
    let mut module_stats = Vec::new();
    let mut pipeline_stats = Vec::new();
    for m in &modules {
        let m = m.borrow();
        debug.extend(m.debug_buffer().entries().cloned());
        module_stats.push(m.stats());
        pipeline_stats.push(m.pipeline_stats());
    }
    debug.sort_by_key(|e| e.cycle);

    ActRun { outcome, debug, machine_stats, module_stats, pipeline_stats }
}

/// Prune and rank a failed run's debug buffer against the Correct Set.
pub fn diagnose(run: &ActRun, correct: &CorrectSet) -> Diagnosis {
    postprocess(&run.debug, correct)
}

/// Replay a *shipped* failing trace through trained per-thread networks and
/// return the sequences they classify invalid, as debug-buffer entries.
///
/// This is the service-side counterpart of the online module: a production
/// machine that ran without ACT hardware can still ship its failing trace
/// (`act-trace::io`) to a diagnosis service, which reconstructs what the
/// module's debug buffer would have held — every length-`N` per-thread
/// window of the trace's observed dependences, formed by the Input
/// Generator's [`WindowFormer`] like the module's own, whose network output
/// falls below `threshold` (the module's 0.5 decision boundary).
///
/// `norm_code_len` must be the code length the store was *trained* with
/// (trace and training encodings must agree); the trace's own `code_len` is
/// ignored for exactly that reason.
///
/// # Panics
///
/// Panics if `norm_code_len == 0` or the store's sequence length is 0.
pub fn classify_trace(
    store: &crate::weights::WeightStore,
    trace: &act_trace::event::Trace,
    norm_code_len: usize,
    threshold: f32,
) -> Vec<DebugEntry> {
    classify_trace_batch(store, &[trace], norm_code_len, threshold).pop().expect("one result")
}

/// How many windows [`classify_trace_batch`] feeds to one
/// [`act_nn::network::Network::predict_batch`] call. Bounds the network's
/// batch scratch (so the steady state allocates nothing) while still
/// amortizing weight loads across a whole tile of windows.
pub const CLASSIFY_BATCH: usize = 64;

/// Batched [`classify_trace`]: classify several shipped traces against the
/// same trained `store` in one pass, returning one entry vector per trace
/// (same order). **Bit-identical** to classifying each trace alone: every
/// window's features go through
/// [`act_nn::network::Network::predict_batch`], whose per-element float
/// ops are exactly `predict`'s, and entries are emitted in the original
/// window order per trace.
///
/// Each entry's `cycle` is its window's final load's. A trace that repeats
/// a `seq` (no writer emits one) gets each window's own load cycle; the
/// cycle breaks rank ties in [`postprocess`].
///
/// What the batching amortizes: per-thread networks are built once for
/// the whole batch (not once per trace), and windows are grouped per
/// thread into [`CLASSIFY_BATCH`]-sized matrix-matrix blocks so the
/// hidden-layer weights are loaded once per block of four windows instead
/// of once per window. Each window is encoded straight from its thread's
/// ring and copied once into a flat buffer; only a flagged window
/// allocates, for its entry.
///
/// # Panics
///
/// Panics if `norm_code_len == 0` or the store's sequence length is 0.
pub fn classify_trace_batch(
    store: &crate::weights::WeightStore,
    traces: &[&act_trace::event::Trace],
    norm_code_len: usize,
    threshold: f32,
) -> Vec<Vec<DebugEntry>> {
    use std::collections::HashMap;
    let n = store.seq_len();
    let enc = crate::encoding::Encoder::new(norm_code_len);
    let width = enc.input_width(n);
    let mut former = WindowFormer::new(n);
    let mut nets: HashMap<act_sim::events::ThreadId, act_nn::network::Network> = HashMap::new();
    // Reused across traces: every window's dependences (window `i` is
    // `deps[i * n..][..n]`) with its thread and cycle, per-thread feature
    // batches, window outputs, and the per-window encode buffer.
    let mut deps = Vec::new();
    let mut at = Vec::new();
    let mut groups: HashMap<act_sim::events::ThreadId, (Vec<f32>, Vec<usize>)> = HashMap::new();
    let mut outputs: Vec<f32> = Vec::new();
    let mut batch_out: Vec<f32> = Vec::new();
    let mut x = Vec::new();
    let mut results = Vec::with_capacity(traces.len());
    for trace in traces {
        deps.clear();
        at.clear();
        for (xs, idx) in groups.values_mut() {
            xs.clear();
            idx.clear();
        }
        former.each_window(trace, |r, window| {
            deps.extend(window.clone());
            enc.encode_iter_into(window, &mut x);
            let (xs, idx) = groups.entry(r.tid).or_default();
            xs.extend_from_slice(&x);
            idx.push(at.len());
            at.push((r.tid, r.cycle));
        });
        outputs.clear();
        outputs.resize(at.len(), 0.0);
        for (tid, (xs, idx)) in groups.iter() {
            if idx.is_empty() {
                continue;
            }
            let net = nets.entry(*tid).or_insert_with(|| store.network_for(*tid, 0.0));
            for (chunk, ids) in xs.chunks(CLASSIFY_BATCH * width).zip(idx.chunks(CLASSIFY_BATCH)) {
                batch_out.clear();
                net.predict_batch(chunk, &mut batch_out);
                for (&i, &o) in ids.iter().zip(&batch_out) {
                    outputs[i] = o;
                }
            }
        }
        let entries = at
            .iter()
            .zip(deps.chunks_exact(n))
            .zip(&outputs)
            .filter(|(_, &output)| output < threshold)
            .map(|((&(tid, cycle), window), &output)| DebugEntry {
                deps: window.to_vec(),
                output,
                cycle,
                tid,
            })
            .collect();
        results.push(entries);
    }
    results
}

/// Full service-side diagnosis of shipped failing traces: classify every
/// dependence window with the trained `store`, then prune and rank the
/// flagged ones against the Correct Set — the same postprocessing a
/// hardware debug buffer gets. One ranked [`Diagnosis`] per trace (same
/// order), classified through [`classify_trace_batch`] and postprocessed
/// per trace; bit-identical to diagnosing each trace on its own.
pub fn diagnose_trace_batch(
    store: &crate::weights::WeightStore,
    correct: &CorrectSet,
    traces: &[&act_trace::event::Trace],
    norm_code_len: usize,
) -> Vec<Diagnosis> {
    classify_trace_batch(store, traces, norm_code_len, 0.5)
        .iter()
        .map(|entries| postprocess(entries, correct))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{correct_traces, looping_program, Looping};
    use crate::weights::{shared, WeightStore};
    use act_nn::network::Topology;
    use act_sim::events::RawDep;

    fn correct_set() -> CorrectSet {
        CorrectSet::from_traces(&correct_traces(&Looping::CORRECT, 1..4), 2)
    }

    #[test]
    fn run_with_act_completes_and_collects_stats() {
        let p = looping_program();
        let store =
            shared(WeightStore::new(Topology::new(2 * crate::encoding::FEATURES_PER_DEP, 3), 2, 1));
        let cfg = MachineConfig { jitter_ppm: 0, cores: 2, ..Default::default() };
        let run = run_with_act(&p, cfg, &ActConfig::default(), &store);
        assert!(run.outcome.completed());
        assert_eq!(run.module_stats.len(), 2);
        // The main thread's module made predictions.
        let total: u64 = run.module_stats.iter().map(|s| s.predictions).sum();
        assert!(total > 0);
        // Untrained store -> weights were persisted on thread exit.
        assert!(store.borrow().has_weights(0));
    }

    #[test]
    fn correct_set_built_from_reruns() {
        let set = correct_set();
        assert!(!set.is_empty());
        assert_eq!(set.seq_len(), 2);
    }

    #[test]
    fn diagnose_prunes_correct_sequences() {
        let p = looping_program();
        // Untrained weights: the module starts in training mode and logs
        // whatever it mispredicts. All of those sequences are correct, so a
        // proper Correct Set prunes every one of them.
        let store =
            shared(WeightStore::new(Topology::new(2 * crate::encoding::FEATURES_PER_DEP, 3), 2, 1));
        let cfg = MachineConfig { jitter_ppm: 0, cores: 1, ..Default::default() };
        let run = run_with_act(&p, cfg, &ActConfig::default(), &store);
        let diag = diagnose(&run, &correct_set());
        assert_eq!(
            diag.ranked.len(),
            0,
            "all logged sequences occur in correct runs: {:?}",
            diag.ranked
        );
    }

    #[test]
    fn classify_trace_flags_windows_with_untrained_store() {
        let p = looping_program();
        let traces = correct_traces(&Looping::CORRECT, 1..2);
        // Untrained store: default weights are biased invalid, so every
        // window of the shipped trace is flagged.
        let store = WeightStore::new(Topology::new(2 * crate::encoding::FEATURES_PER_DEP, 3), 2, 1);
        let entries = classify_trace(&store, &traces[0], p.code_len(), 0.5);
        assert!(!entries.is_empty(), "untrained networks must flag sequences");
        for e in &entries {
            assert_eq!(e.deps.len(), 2, "windows match the store's seq_len");
            assert!(e.output < 0.5);
        }
    }

    #[test]
    fn diagnose_trace_prunes_correct_sequences() {
        let p = looping_program();
        let traces = correct_traces(&Looping::CORRECT, 1..2);
        let store = WeightStore::new(Topology::new(2 * crate::encoding::FEATURES_PER_DEP, 3), 2, 1);
        let set = correct_set();
        let diag = diagnose_trace_batch(&store, &set, &[&traces[0]], p.code_len()).remove(0);
        assert!(diag.total_logged > 0, "untrained store logs everything");
        assert_eq!(
            diag.ranked.len(),
            0,
            "every sequence of a correct run is in the Correct Set: {:?}",
            diag.ranked
        );
    }

    #[test]
    fn classify_trace_batch_matches_sequential_bit_for_bit() {
        let p = looping_program();
        // Three traces from different seeds, diagnosed as one batch.
        let traces = correct_traces(&Looping::CORRECT, 1..4);
        let store = WeightStore::new(Topology::new(2 * crate::encoding::FEATURES_PER_DEP, 3), 2, 1);
        let refs: Vec<&act_trace::event::Trace> = traces.iter().collect();
        let batched = classify_trace_batch(&store, &refs, p.code_len(), 0.5);
        assert_eq!(batched.len(), traces.len());
        for (t, b) in traces.iter().zip(&batched) {
            let seq = classify_trace(&store, t, p.code_len(), 0.5);
            assert_eq!(seq.len(), b.len());
            for (s, e) in seq.iter().zip(b) {
                assert_eq!(s.deps, e.deps);
                assert_eq!(s.output.to_bits(), e.output.to_bits(), "outputs must be bit-equal");
                assert_eq!(s.cycle, e.cycle);
                assert_eq!(s.tid, e.tid);
            }
        }
    }

    #[test]
    fn diagnose_trace_batch_matches_sequential() {
        let p = looping_program();
        let traces = correct_traces(&Looping::CORRECT, 1..3);
        let store = WeightStore::new(Topology::new(2 * crate::encoding::FEATURES_PER_DEP, 3), 2, 1);
        let set = correct_set();
        let refs: Vec<&act_trace::event::Trace> = traces.iter().collect();
        let batched = diagnose_trace_batch(&store, &set, &refs, p.code_len());
        for (t, b) in traces.iter().zip(&batched) {
            let seq = postprocess(&classify_trace(&store, t, p.code_len(), 0.5), &set);
            assert_eq!(format!("{seq:?}"), format!("{b:?}"), "diagnosis must match sequential");
        }
    }

    #[test]
    fn classify_trace_batch_handles_the_empty_batch() {
        let store = WeightStore::new(Topology::new(2 * crate::encoding::FEATURES_PER_DEP, 3), 2, 1);
        assert!(classify_trace_batch(&store, &[], 64, 0.5).is_empty());
    }

    #[test]
    fn debug_position_counts_from_newest() {
        let mk = |pc: u32, cycle: u64| DebugEntry {
            deps: vec![RawDep { store_pc: pc, load_pc: pc, inter_thread: false }],
            output: 0.1,
            cycle,
            tid: 0,
        };
        let run = ActRun {
            outcome: RunOutcome::Completed { output: vec![] },
            debug: vec![mk(1, 10), mk(2, 20), mk(3, 30)],
            machine_stats: Stats::new(1),
            module_stats: vec![],
            pipeline_stats: vec![],
        };
        assert_eq!(run.debug_position_where(|e| e.deps[0].store_pc == 3), Some(1));
        assert_eq!(run.debug_position_where(|e| e.deps[0].store_pc == 1), Some(3));
        assert_eq!(run.debug_position_where(|e| e.deps[0].store_pc == 9), None);
    }
}
