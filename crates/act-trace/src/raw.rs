//! RAW dependence formation from execution traces.
//!
//! This is the offline, *precise* analysis: a last-writer map over word
//! addresses replayed in trace order. (Online, the hardware's cache-metadata
//! version of the same information is lossy per the paper's §V relaxations;
//! offline traces are what the input generator and the Correct Set use.)
//!
//! For negative-example synthesis the analysis also keeps the *previous*
//! writer of each word: the paper forms an invalid dependence `S' -> L`
//! where `S'` is "the store before the last store to the same address".

use crate::event::{Trace, TraceKind, TraceRecord};
use act_sim::events::{RawDep, ThreadId};
use act_sim::isa::Pc;
use std::collections::HashMap;

/// A RAW dependence occurrence in a trace, with enough context to build
/// positive and negative training examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEvent {
    /// The (valid) dependence that occurred.
    pub dep: RawDep,
    /// Thread that executed the load (the dependence's owner).
    pub tid: ThreadId,
    /// Global sequence number of the load.
    pub seq: u64,
    /// Cycle at which the load happened.
    pub cycle: u64,
    /// The writer *before* the last writer of the word, if any — the store
    /// `S'` used to synthesize a negative example.
    pub prev_writer: Option<(Pc, ThreadId)>,
}

impl DepEvent {
    /// The synthesized invalid dependence `S' -> L`, if a previous writer
    /// exists and differs from the actual one.
    pub fn negative(&self) -> Option<RawDep> {
        let (pc, tid) = self.prev_writer?;
        let neg = RawDep { store_pc: pc, load_pc: self.dep.load_pc, inter_thread: tid != self.tid };
        (neg != self.dep).then_some(neg)
    }
}

/// Per word address: its last writer, and the writer before that.
type Writers = HashMap<u64, ((Pc, ThreadId), Option<(Pc, ThreadId)>)>;

/// Record a store: it becomes the word's last writer, and the last writer
/// before it the previous one.
fn note_store(writers: &mut Writers, r: &TraceRecord, addr: u64) {
    let writer = (r.pc, r.tid);
    writers.entry(addr).and_modify(|w| *w = (writer, Some(w.0))).or_insert((writer, None));
}

/// Extract all RAW dependences from a trace, in load order.
///
/// Loads of words with no recorded writer form no dependence (e.g. reads of
/// program inputs preloaded into the data segment), exactly like loads whose
/// metadata was lost online.
pub fn raw_deps(trace: &Trace) -> Vec<DepEvent> {
    let mut writers = Writers::new();
    let mut out = Vec::new();
    for r in &trace.records {
        match r.kind {
            TraceKind::Store { addr } => note_store(&mut writers, r, addr),
            TraceKind::Load { addr, .. } => {
                if let Some(&((wpc, wtid), prev)) = writers.get(&addr) {
                    out.push(DepEvent {
                        dep: RawDep { store_pc: wpc, load_pc: r.pc, inter_thread: wtid != r.tid },
                        tid: r.tid,
                        seq: r.seq,
                        cycle: r.cycle,
                        prev_writer: prev,
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// Extract the dependences the *hardware observed* (recorded per load from
/// cache-line metadata), in load order. This is the stream ACT's offline
/// training and Correct Set must use so that they see exactly what the
/// online module sees — the precise replay of [`raw_deps`] would include
/// dependences whose metadata the cache lost.
///
/// The previous-writer context (for negative-example synthesis) still comes
/// from the precise replay: the hardware keeps only one writer per word,
/// which is why the paper synthesizes negatives offline only.
pub fn observed_deps(trace: &Trace) -> Vec<DepEvent> {
    let mut writers = Writers::new();
    let mut out = Vec::new();
    for r in &trace.records {
        match r.kind {
            TraceKind::Store { addr } => note_store(&mut writers, r, addr),
            TraceKind::Load { addr, dep: Some(dep) } => {
                let prev_writer = writers.get(&addr).and_then(|&(_, prev)| prev);
                out.push(DepEvent { dep, tid: r.tid, seq: r.seq, cycle: r.cycle, prev_writer });
            }
            _ => {}
        }
    }
    out
}

/// The set of distinct dependences in a trace (for Table IV's "# RAW dep"
/// column).
pub fn distinct_deps(deps: &[DepEvent]) -> usize {
    let mut set: Vec<RawDep> = deps.iter().map(|d| d.dep).collect();
    set.sort_unstable();
    set.dedup();
    set.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(seq: u64, tid: ThreadId, pc: Pc, addr: u64) -> TraceRecord {
        TraceRecord { seq, cycle: seq, tid, pc, kind: TraceKind::Store { addr } }
    }

    fn load(seq: u64, tid: ThreadId, pc: Pc, addr: u64) -> TraceRecord {
        TraceRecord { seq, cycle: seq, tid, pc, kind: TraceKind::Load { addr, dep: None } }
    }

    #[test]
    fn load_after_store_forms_dep() {
        let t =
            Trace { records: vec![store(0, 0, 5, 0x2000), load(1, 0, 9, 0x2000)], code_len: 10 };
        let deps = raw_deps(&t);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].dep, RawDep { store_pc: 5, load_pc: 9, inter_thread: false });
        assert_eq!(deps[0].prev_writer, None);
        assert_eq!(deps[0].negative(), None);
    }

    #[test]
    fn inter_thread_flag_set_when_tids_differ() {
        let t =
            Trace { records: vec![store(0, 1, 5, 0x2000), load(1, 0, 9, 0x2000)], code_len: 10 };
        let deps = raw_deps(&t);
        assert!(deps[0].dep.inter_thread);
    }

    #[test]
    fn load_without_writer_forms_no_dep() {
        let t = Trace { records: vec![load(0, 0, 9, 0x2000)], code_len: 10 };
        assert!(raw_deps(&t).is_empty());
    }

    #[test]
    fn previous_writer_enables_negative_example() {
        let t = Trace {
            records: vec![store(0, 0, 3, 0x2000), store(1, 0, 5, 0x2000), load(2, 0, 9, 0x2000)],
            code_len: 10,
        };
        let deps = raw_deps(&t);
        assert_eq!(deps[0].dep.store_pc, 5);
        assert_eq!(deps[0].prev_writer, Some((3, 0)));
        assert_eq!(
            deps[0].negative(),
            Some(RawDep { store_pc: 3, load_pc: 9, inter_thread: false })
        );
    }

    #[test]
    fn negative_none_when_same_dep() {
        // Previous writer is the same pc/tid (a loop re-storing): synthesized
        // negative would equal the positive, so it is suppressed.
        let t = Trace {
            records: vec![store(0, 0, 5, 0x2000), store(1, 0, 5, 0x2000), load(2, 0, 9, 0x2000)],
            code_len: 10,
        };
        let deps = raw_deps(&t);
        assert_eq!(deps[0].negative(), None);
    }

    #[test]
    fn writers_tracked_per_address() {
        let t = Trace {
            records: vec![
                store(0, 0, 3, 0x2000),
                store(1, 0, 4, 0x3000),
                load(2, 0, 9, 0x2000),
                load(3, 0, 10, 0x3000),
            ],
            code_len: 12,
        };
        let deps = raw_deps(&t);
        assert_eq!(deps.len(), 2);
        assert_eq!(deps[0].dep.store_pc, 3);
        assert_eq!(deps[1].dep.store_pc, 4);
        assert_eq!(distinct_deps(&deps), 2);
    }

    #[test]
    fn observed_deps_carry_the_load_cycle() {
        let dep = RawDep { store_pc: 5, load_pc: 9, inter_thread: false };
        let t = Trace {
            records: vec![
                store(0, 0, 5, 0x2000),
                TraceRecord {
                    seq: 1,
                    cycle: 70,
                    tid: 0,
                    pc: 9,
                    kind: TraceKind::Load { addr: 0x2000, dep: Some(dep) },
                },
            ],
            code_len: 10,
        };
        let deps = observed_deps(&t);
        assert_eq!((deps[0].seq, deps[0].cycle), (1, 70));
        assert_eq!(raw_deps(&t)[0].cycle, 70);
    }

    #[test]
    fn distinct_deps_deduplicates() {
        let t = Trace {
            records: vec![store(0, 0, 3, 0x2000), load(1, 0, 9, 0x2000), load(2, 0, 9, 0x2000)],
            code_len: 10,
        };
        let deps = raw_deps(&t);
        assert_eq!(deps.len(), 2);
        assert_eq!(distinct_deps(&deps), 1);
    }
}
