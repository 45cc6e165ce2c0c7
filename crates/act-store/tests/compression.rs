//! The acceptance bar from the issue: on a representative workload trace
//! (collected exactly the way the daemon collects training traces), the
//! columnar store must be lossless byte-for-byte AND at least 3× smaller
//! than the `trace_to_bytes` text codec.

use act_sim::config::MachineConfig;
use act_sim::Machine;
use act_store::{Corpus, EntryKind};
use act_trace::io::trace_to_bytes;
use act_trace::{Trace, TraceCollector};
use act_workloads::registry;
use std::fs;
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("act-store-it-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Collect one correct-run trace the way `act-serve` does for training.
fn workload_trace(name: &str, seed: u64) -> Trace {
    let w = registry::by_name(name).expect("workload registered");
    let norm = w.norm_code_len().unwrap_or_else(|| w.build(&w.default_params()).program.code_len());
    let built = w.build(&w.default_params().with_seed(seed));
    let mut collector = TraceCollector::new(norm);
    let cfg = MachineConfig { seed, jitter_ppm: 10_000, ..Default::default() };
    let mut machine = Machine::new(&built.program, cfg);
    machine.run_observed(&mut collector);
    collector.into_trace()
}

#[test]
fn representative_trace_compresses_at_least_3x_and_is_lossless() {
    let trace = workload_trace("lu", 42);
    assert!(trace.len() > 100, "trace too small to be representative");
    let text = trace_to_bytes(&trace);

    let dir = tmp_dir("ratio");
    let mut c = Corpus::init(&dir).unwrap();
    let info = c.put_trace("lu-clean-42", "lu", &trace).unwrap();

    // Lossless: byte-identical text after a round trip through the store.
    let back = c.get_trace("lu-clean-42").unwrap();
    assert_eq!(trace_to_bytes(&back), text);
    assert_eq!(c.get_trace_text("lu-clean-42").unwrap(), text, "streamed to text alike");

    // ≥ 3× smaller than the text codec.
    let ratio = text.len() as f64 / info.encoded_bytes as f64;
    assert!(
        ratio >= 3.0,
        "compression ratio {ratio:.2}× below the 3× bar ({} text bytes, {} stored)",
        text.len(),
        info.encoded_bytes
    );
    assert_eq!(info.raw_bytes, text.len() as u64);

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn correct_set_builds_from_corpus_traces() {
    let dir = tmp_dir("cset");
    let mut c = Corpus::init(&dir).unwrap();
    for seed in 0..3u64 {
        let trace = workload_trace("lu", 100 + seed);
        c.put_trace(&format!("lu-{seed}"), "lu", &trace).unwrap();
    }
    let traces: Vec<_> = c.traces("lu").collect();
    assert_eq!(traces.len(), 3, "every stored lu trace decodes");
    let set = act_trace::CorrectSet::from_traces(&traces, 2);
    assert!(!set.is_empty(), "lu traces must contribute dependence windows");
    assert_eq!(set.seq_len(), 2);
    assert!(!c.contains(EntryKind::CorrectSet, "unused"));
    fs::remove_dir_all(&dir).unwrap();
}
