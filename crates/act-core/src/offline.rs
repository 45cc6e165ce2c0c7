//! Offline training (§III-B): from traces of correct executions, run the
//! input generator, search topologies, and produce per-thread weights.
//! The traces come from `act_workloads::run::correct_runs` or a corpus;
//! the settings from [`ActConfig::recipe`].

use crate::config::ActConfig;
use crate::encoding::Encoder;
use crate::weights::WeightStore;
use act_nn::network::{Network, Topology};
use act_nn::trainer::{self, Example, SearchOutcome};
use act_sim::events::{RawDep, ThreadId};
use act_trace::event::Trace;
use act_trace::input_gen::{SeqSample, WindowFormer};
use act_trace::raw::{distinct_deps, observed_deps, DepEvent};
use std::collections::{HashMap, HashSet};

/// What offline training found — the per-program row of Table IV.
#[derive(Debug, Clone)]
pub struct OfflineReport {
    /// Traces used for training (the rest were held out).
    pub train_traces: usize,
    /// Held-out traces used to score topologies.
    pub test_traces: usize,
    /// Dependence occurrences across all traces.
    pub total_deps: usize,
    /// Distinct dependences across all traces (Table IV "# RAW Dep").
    pub distinct_deps: usize,
    /// Winning sequence length `N`.
    pub seq_len: usize,
    /// Winning topology (Table IV "Topology").
    pub topology: Topology,
    /// Held-out false-positive rate: valid sequences predicted invalid
    /// (Table IV "% mispred" — the paper's test data has no invalid
    /// dependences, so its mispredictions are all false positives).
    pub test_fp_rate: f64,
    /// Held-out false-negative rate on all synthesized invalid sequences
    /// (previous-writer + cross negatives — harder than the paper's set).
    pub test_fn_rate: f64,
    /// Held-out false-negative rate on *previous-writer* negatives only —
    /// the paper's Fig 7(a) metric.
    pub test_fn_rate_paper: f64,
    /// Topology candidates evaluated.
    pub candidates: usize,
}

/// Result of offline training: the weight store to deploy plus the report.
#[derive(Debug, Clone)]
pub struct TrainedAct {
    /// Per-thread weights, ready for [`crate::module::ActModule`].
    pub store: WeightStore,
    /// Training summary.
    pub report: OfflineReport,
}

/// Interleave positive and negative examples, *oversampling* the negatives
/// so the classifier cannot win by predicting "valid" unconditionally —
/// observed traces contain few invalid sequences (one synthesized per
/// multi-writer load) against a flood of valid ones.
fn balance(pos: Vec<Example>, neg: Vec<Example>, cap: usize) -> Vec<Example> {
    let mut out = stride_sample(pos, cap.saturating_sub(cap / 4).max(1));
    if neg.is_empty() {
        return out;
    }
    // Aim for roughly one negative per two positives, oversampling each
    // negative at most 16x. (Training shuffles every epoch, so order here
    // does not matter.)
    let target = (out.len() / 2).clamp(1, cap / 3 + 1);
    if neg.len() >= target {
        out.extend(stride_sample(neg, target));
    } else {
        let max = neg.len() * 16;
        for i in 0..target.min(max) {
            out.push(neg[i % neg.len()].clone());
        }
    }
    out
}

/// Random input points labelled invalid: they anchor the classifier's
/// default in unpopulated input regions to "invalid".
fn noise_negatives(count: usize, width: usize, seed: u64) -> Vec<Example> {
    use act_rng::{Rng, SeedableRng};
    let mut rng = act_rng::rngs::StdRng::seed_from_u64(seed ^ 0x5eed_0bad);
    (0..count)
        .map(|_| Example::invalid((0..width).map(|_| rng.gen_range(0.0..1.0)).collect()))
        .collect()
}

/// Keep at most `max` elements, evenly strided.
fn stride_sample(v: Vec<Example>, max: usize) -> Vec<Example> {
    if v.len() <= max {
        return v;
    }
    let step = v.len() as f64 / max as f64;
    (0..max).map(|i| v[(i as f64 * step) as usize].clone()).collect()
}

/// Donors for cross negatives: the distinct dependences of the trace,
/// plus *jittered* variants whose store is displaced by a few
/// instructions. Jitter matters: real buggy communications usually involve
/// a store near a valid one (same function), and without negatives ringing
/// each positive the classifier's valid regions stretch unboundedly along
/// the positional dimensions.
fn donor_pool(deps: &[DepEvent]) -> Vec<RawDep> {
    let mut donors: Vec<RawDep> = deps.iter().map(|d| d.dep).collect();
    donors.sort_unstable();
    donors.dedup();
    let observed = donors.clone();
    for d in &observed {
        for off in [-13i64, -7, -3, 3, 7, 13] {
            let store = d.store_pc as i64 + off;
            if store >= 0 {
                donors.push(RawDep { store_pc: store as u32, ..*d });
            }
            // Also flip the inter-thread flag (a same-PC store from the
            // wrong thread is a classic racy communication).
            donors.push(RawDep { inter_thread: !d.inter_thread, ..*d });
        }
    }
    donors.sort_unstable();
    donors.dedup();
    donors
}

/// The training samples of one trace's observed dependences: every window
/// of length `n` the Input Generator forms, as a positive, and the
/// negatives synthesized from it — the only place ACT synthesizes any.
///
/// A window whose final dependence has a distinct previous writer gets the
/// paper's negative `S'→L`: that dependence's store replaced by the
/// previous writer of the same word. `cross_negs` more negatives per
/// window replace a store with the store of *another* observed (or
/// jittered) dependence. With word-granularity metadata many words have a
/// single writer, leaving most of the invalid input space unconstrained —
/// the network would then classify *novel* (buggy) communications as
/// valid by default. Cross negatives teach it the PSet-style invariant the
/// scheme depends on: a load fed by a store it was never observed to pair
/// with is suspect.
///
/// Synthesized negatives can collide with genuinely valid sequences from
/// elsewhere in the program; [`offline_train`] filters them against every
/// trace's positives.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn training_samples(
    deps: &[DepEvent],
    n: usize,
    cross_negs: usize,
) -> (Vec<SeqSample>, Vec<SeqSample>) {
    let mut former = WindowFormer::new(n);
    let donors = if cross_negs > 0 { donor_pool(deps) } else { Vec::new() };
    let mut positives = Vec::new();
    let mut negatives = Vec::new();
    for (w, d) in deps.iter().enumerate() {
        let Some(window) = former.push(d.tid, d.dep) else { continue };
        let window: Vec<RawDep> = window.collect();
        let sample =
            |deps, valid| SeqSample { deps, tid: d.tid, seq: d.seq, cycle: d.cycle, valid };
        if let Some(neg_dep) = d.negative() {
            let mut neg = window.clone();
            neg[n - 1] = neg_dep;
            negatives.push(sample(neg, false));
        }
        if donors.len() > 1 {
            for k in 0..cross_negs {
                // Perturb a rotating position of the window (bugs corrupt
                // prefix dependences as often as the final one). Even picks
                // prefer donors that feed the *same load* — the most
                // confusable neighbours and exactly what a wrong-writer bug
                // looks like; odd picks draw from the global donor pool.
                let at = (w + k) % n;
                let donor = if k % 2 == 0 {
                    let same_load: Vec<&RawDep> = donors
                        .iter()
                        .filter(|dd| {
                            dd.load_pc == window[at].load_pc && dd.store_pc != window[at].store_pc
                        })
                        .collect();
                    if same_load.is_empty() {
                        donors[(w * 7 + k * 13 + 3) % donors.len()]
                    } else {
                        *same_load[(w * 5 + k) % same_load.len()]
                    }
                } else {
                    donors[(w * 7 + k * 13 + 3) % donors.len()]
                };
                if donor.store_pc == window[at].store_pc {
                    continue;
                }
                let mut neg = window.clone();
                neg[at] = RawDep {
                    store_pc: donor.store_pc,
                    load_pc: window[at].load_pc,
                    inter_thread: donor.inter_thread,
                };
                negatives.push(sample(neg, false));
            }
        }
        positives.push(sample(window, true));
    }
    (positives, negatives)
}

/// Generate windows per trace (windows must not span trace boundaries),
/// pool them, and drop any synthesized negative that collides with a
/// sequence observed valid in *any* trace — a correct run somewhere having
/// produced a sequence makes it a positive fact, regardless of which pool
/// the colliding negative came from (clean seeds can exercise different
/// valid paths).
fn encode_examples(
    enc: &Encoder,
    traces_deps: &[&Vec<DepEvent>],
    n: usize,
    cross_negs: usize,
    global_positives: &HashSet<Vec<RawDep>>,
) -> (Vec<Example>, Vec<Example>, Vec<(ThreadId, Example)>) {
    let mut pos = Vec::new();
    let mut neg = Vec::new();
    for deps in traces_deps {
        let (p, ng) = training_samples(deps, n, cross_negs);
        pos.extend(p);
        neg.extend(ng);
    }
    let neg: Vec<_> = neg.into_iter().filter(|s| !global_positives.contains(&s.deps)).collect();

    let mut pos_ex = Vec::with_capacity(pos.len());
    let mut by_tid = Vec::with_capacity(pos.len());
    for s in &pos {
        let ex = Example::valid(enc.encode_seq(&s.deps));
        by_tid.push((s.tid, ex.clone()));
        pos_ex.push(ex);
    }
    // A synthesized negative that lands (nearly) on top of a positive in
    // *feature space* — a hash collision — is an unlearnable contradiction:
    // training on it can only erode the positive. Drop such negatives.
    let mut distinct_pos: Vec<&Vec<f32>> = pos_ex.iter().map(|e| &e.x).collect();
    distinct_pos.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    distinct_pos.dedup();
    let collides = |x: &[f32]| {
        distinct_pos.iter().any(|p| x.iter().zip(p.iter()).all(|(a, b)| (a - b).abs() < 0.05))
    };

    let mut neg_ex = Vec::with_capacity(neg.len());
    for s in &neg {
        let ex = Example::invalid(enc.encode_seq(&s.deps));
        if collides(&ex.x) {
            continue;
        }
        by_tid.push((s.tid, ex.clone()));
        neg_ex.push(ex);
    }
    (pos_ex, neg_ex, by_tid)
}

/// Every window of every trace, for negative-collision filtering.
fn global_positive_set(traces_deps: &[Vec<DepEvent>], n: usize) -> HashSet<Vec<RawDep>> {
    let mut former = WindowFormer::new(n);
    let mut set = HashSet::new();
    for deps in traces_deps {
        former.reset();
        for d in deps {
            if let Some(window) = former.push(d.tid, d.dep) {
                set.insert(window.collect());
            }
        }
    }
    set
}

/// Train ACT offline from `traces` of a program with `code_len`
/// instructions.
///
/// The trace set is split into training and held-out portions
/// (`cfg.test_fraction`); the `M²` topology search picks the sequence
/// length and hidden size with the lowest held-out error; then each
/// thread's network is fine-tuned from the pooled winner on that thread's
/// own sequences, and the weights are stored per thread id.
///
/// # Panics
///
/// Panics if `traces` is empty or produces no dependences.
pub fn offline_train(code_len: usize, traces: &[Trace], cfg: &ActConfig) -> TrainedAct {
    assert!(!traces.is_empty(), "offline training needs at least one trace");
    cfg.validate().expect("valid ActConfig");
    let enc = Encoder::new(code_len);

    let per_trace_deps: Vec<Vec<DepEvent>> = traces.iter().map(observed_deps).collect();
    let all_deps: Vec<DepEvent> = per_trace_deps.iter().flatten().copied().collect();
    assert!(!all_deps.is_empty(), "traces contain no RAW dependences");

    let mut test_count = ((traces.len() as f64) * cfg.test_fraction).ceil() as usize;
    if test_count >= traces.len() {
        test_count = traces.len() - 1; // always keep at least one training trace
    }
    let train_count = traces.len() - test_count;
    let (train_deps, test_deps): (Vec<&Vec<DepEvent>>, Vec<&Vec<DepEvent>>) = (
        per_trace_deps[..train_count].iter().collect(),
        per_trace_deps[train_count..].iter().collect(),
    );

    // Topology search over pooled examples. Training sets are seeded with
    // "noise negatives" — random input points labelled invalid — so the
    // classifier's default in unpopulated input regions is *invalid*:
    // exactly the property ACT needs to flag communications never seen in
    // any correct run (PSet-style membership).
    let cap = cfg.max_search_examples.max(1);
    let outcome: SearchOutcome =
        trainer::topology_search_with_workers(&cfg.search, cfg.train, cfg.search_workers, |n| {
            let gp = global_positive_set(&per_trace_deps, n);
            let (tp, tn, _) = encode_examples(&enc, &train_deps, n, cfg.cross_negs, &gp);
            let (vp, vn, _) = encode_examples(&enc, &test_deps, n, cfg.cross_negs, &gp);
            let mut train = balance(tp, tn, cap);
            let width = crate::encoding::FEATURES_PER_DEP * n;
            let noise_count = (train.len() as f64 * cfg.noise_fraction) as usize;
            train.extend(noise_negatives(noise_count, width, cfg.train.seed));
            (train, balance(vp, vn, cap))
        });
    let n = outcome.seq_len;
    let topology = outcome.topology;

    // Per-thread fine-tuning from the pooled winner (balanced like the
    // pooled training set).
    let gp = global_positive_set(&per_trace_deps, n);
    let (_, _, by_tid) = encode_examples(&enc, &train_deps, n, cfg.cross_negs, &gp);
    let mut grouped: HashMap<ThreadId, (Vec<Example>, Vec<Example>)> = HashMap::new();
    for (tid, ex) in by_tid {
        let slot = grouped.entry(tid).or_default();
        if ex.t >= 0.5 {
            slot.0.push(ex);
        } else {
            slot.1.push(ex);
        }
    }
    let mut store = WeightStore::new(topology, n, cfg.train.seed);
    let mut tids: Vec<ThreadId> = grouped.keys().copied().collect();
    tids.sort_unstable();
    for tid in tids {
        let (pos, neg) = grouped.remove(&tid).expect("tid grouped");
        // Brief per-thread refinement from the pooled winner: a couple of
        // passes over the thread's own positives, with its negatives along
        // to keep the invalid space carved. (An aggressive per-thread pass
        // destabilizes the shared solution; two gentle epochs only firm up
        // the thread's own valid set.)
        let mut examples = pos;
        let keep = (examples.len() / 2).max(1);
        examples.extend(neg.into_iter().take(keep));
        // Refine at a fraction of the training rate: enough to firm up the
        // thread's own patterns, not enough to destabilize the shared
        // solution on a thread's small, repetitive sample.
        let mut net = Network::from_flat(
            topology,
            &outcome.network.weights_flat(),
            cfg.train.learning_rate * 0.2,
        );
        for _ in 0..2 {
            for ex in &examples {
                net.train(&ex.x, ex.t);
            }
        }
        store.store_weights(tid, net.weights_flat());
    }

    // Held-out quality of the pooled winner, split by example polarity.
    let (vp, vn, _) = encode_examples(&enc, &test_deps, n, cfg.cross_negs, &gp);
    let mut net: Network = outcome.network.clone();
    let fp = trainer::evaluate(&mut net, &vp);
    let fnr = trainer::evaluate(&mut net, &vn);
    // The paper's Fig 7(a) negatives: previous-writer substitutions only.
    let (_, vn_paper, _) = encode_examples(&enc, &test_deps, n, 0, &gp);
    let fnr_paper = trainer::evaluate(&mut net, &vn_paper);

    TrainedAct {
        store,
        report: OfflineReport {
            train_traces: train_count,
            test_traces: traces.len() - train_count,
            total_deps: all_deps.len(),
            distinct_deps: distinct_deps(&all_deps),
            seq_len: n,
            topology,
            test_fp_rate: fp.rate(),
            test_fn_rate: fnr.rate(),
            test_fn_rate_paper: fnr_paper.rate(),
            candidates: outcome.candidates,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{correct_traces, Looping};

    fn small_cfg() -> ActConfig {
        let mut cfg = ActConfig::default();
        cfg.search.seq_lens = vec![1, 2];
        cfg.search.hidden_sizes = vec![2, 4];
        cfg.train.max_epochs = 30;
        cfg
    }

    #[test]
    fn training_traces_come_only_from_correct_runs() {
        let traces = correct_traces(&Looping::CORRECT, 1..4);
        assert_eq!(traces.len(), 3);
        assert!(traces[0].access_count() > 0);
        // An oracle that rejects every run keeps nothing.
        assert!(correct_traces(&Looping::REJECTED, 1..2).is_empty());
    }

    #[test]
    fn offline_train_produces_store_and_report() {
        let traces = correct_traces(&Looping::CORRECT, 1..5);
        let trained = offline_train(traces[0].code_len, &traces, &small_cfg());
        let r = &trained.report;
        assert!(r.total_deps > 0);
        assert!(r.distinct_deps > 0);
        assert!(r.seq_len == 1 || r.seq_len == 2);
        assert_eq!(r.topology.inputs, crate::encoding::FEATURES_PER_DEP * r.seq_len);
        assert!(r.candidates > 0);
        assert!(trained.store.has_weights(0), "main thread weights stored");
        // The stable loop should be learned nearly perfectly.
        assert!(r.test_fp_rate < 0.2, "fp rate {}", r.test_fp_rate);
    }

    #[test]
    fn offline_train_is_byte_identical_at_any_search_worker_count() {
        let traces = correct_traces(&Looping::CORRECT, 1..5);
        let code_len = traces[0].code_len;
        let serial = offline_train(code_len, &traces, &small_cfg());
        for workers in [2, 4, 8] {
            let mut cfg = small_cfg();
            cfg.search_workers = workers;
            let par = offline_train(code_len, &traces, &cfg);
            assert_eq!(par.report.seq_len, serial.report.seq_len, "workers={workers}");
            assert_eq!(par.report.topology, serial.report.topology, "workers={workers}");
            assert_eq!(par.report.candidates, serial.report.candidates, "workers={workers}");
            for tid in 0..2u32 {
                if !serial.store.has_weights(tid) {
                    continue;
                }
                let (sw, pw) = (serial.store.weights_for(tid), par.store.weights_for(tid));
                let bits = |w: &[f32]| w.iter().copied().map(f32::to_bits).collect::<Vec<_>>();
                assert_eq!(
                    bits(sw),
                    bits(pw),
                    "thread {tid} weights must match bitwise at workers={workers}"
                );
            }
        }
    }

    #[test]
    fn negatives_replace_final_dep() {
        let dep = |store_pc, load_pc| RawDep { store_pc, load_pc, inter_thread: false };
        let ev = |seq, d, prev_writer| DepEvent { dep: d, tid: 0, seq, cycle: seq, prev_writer };
        // The second load's word had a writer at pc 3 before its last one.
        let deps = [ev(0, dep(1, 2), None), ev(1, dep(5, 6), Some((3, 0)))];
        let (pos, neg) = training_samples(&deps, 2, 0);
        assert_eq!(pos.len(), 1);
        assert_eq!(neg.len(), 1);
        assert_eq!(neg[0].deps, vec![dep(1, 2), dep(3, 6)]);
        assert!(!neg[0].valid);
        // The shared prefix matches the positive sample's.
        assert_eq!(neg[0].deps[0], pos[0].deps[0]);
    }

    #[test]
    #[should_panic(expected = "at least one trace")]
    fn offline_train_rejects_empty() {
        let _ = offline_train(10, &[], &small_cfg());
    }
}
