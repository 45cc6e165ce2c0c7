//! Offline postprocessing (§III-D): prune the debug buffer against the
//! Correct Set, then rank the surviving sequences by matched-dependence
//! count (descending), breaking ties by the most negative network output.

use crate::module::DebugEntry;
use act_sim::events::{RawDep, ThreadId};
use act_trace::correct_set::CorrectSet;
use std::collections::HashMap;

/// A ranked candidate root cause.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedSequence {
    /// The invalid dependence sequence, oldest first.
    pub deps: Vec<RawDep>,
    /// The most negative network output observed for this sequence.
    pub output: f32,
    /// Number of leading dependences that match a correct sequence.
    pub matched: usize,
    /// Cycle of the most recent occurrence.
    pub cycle: u64,
    /// Thread of the most recent occurrence.
    pub tid: ThreadId,
    /// Times the sequence appeared in the debug buffer.
    pub occurrences: usize,
}

impl RankedSequence {
    /// The dependence at the first mismatch position — usually the buggy
    /// communication itself.
    pub fn mismatched_dep(&self) -> Option<&RawDep> {
        self.deps.get(self.matched.min(self.deps.len().saturating_sub(1)))
    }
}

/// The result of postprocessing a failure's debug buffer.
#[derive(Debug, Clone, Default)]
pub struct Diagnosis {
    /// Candidate root causes, most likely first.
    pub ranked: Vec<RankedSequence>,
    /// Debug-buffer entries examined.
    pub total_logged: usize,
    /// Distinct sequences among them.
    pub distinct: usize,
    /// Sequences removed because they appeared in correct runs.
    pub pruned: usize,
}

impl Diagnosis {
    /// Percentage of distinct sequences removed by pruning (Table V
    /// "Filter (%)").
    pub fn filter_pct(&self) -> f64 {
        if self.distinct == 0 {
            0.0
        } else {
            100.0 * self.pruned as f64 / self.distinct as f64
        }
    }

    /// 1-based rank of the first sequence satisfying `matcher`
    /// (e.g. "contains the known buggy dependence").
    pub fn rank_where<F>(&self, mut matcher: F) -> Option<usize>
    where
        F: FnMut(&RankedSequence) -> bool,
    {
        self.ranked.iter().position(&mut matcher).map(|i| i + 1)
    }
}

/// Prune and rank the debug-buffer contents against the Correct Set.
pub fn postprocess(entries: &[DebugEntry], correct: &CorrectSet) -> Diagnosis {
    // Deduplicate identical sequences, keeping the most negative output and
    // the most recent occurrence.
    let mut dedup: HashMap<Vec<RawDep>, RankedSequence> = HashMap::new();
    for e in entries {
        dedup
            .entry(e.deps.clone())
            .and_modify(|r| {
                r.output = r.output.min(e.output);
                if e.cycle > r.cycle {
                    r.cycle = e.cycle;
                    r.tid = e.tid;
                }
                r.occurrences += 1;
            })
            .or_insert_with(|| RankedSequence {
                deps: e.deps.clone(),
                output: e.output,
                matched: 0,
                cycle: e.cycle,
                tid: e.tid,
                occurrences: 1,
            });
    }
    let distinct = dedup.len();

    // Prune sequences that occur in correct executions.
    let mut survivors: Vec<RankedSequence> =
        dedup.into_values().filter(|r| !correct.contains(&r.deps)).collect();
    let pruned = distinct - survivors.len();

    // Rank: most matched dependences first; ties by most negative output;
    // final tie-break by recency then content for determinism.
    for r in &mut survivors {
        r.matched = correct.matched_prefix(&r.deps);
    }
    survivors.sort_by(|a, b| {
        b.matched
            .cmp(&a.matched)
            .then_with(|| a.output.partial_cmp(&b.output).unwrap_or(std::cmp::Ordering::Equal))
            .then_with(|| b.cycle.cmp(&a.cycle))
            .then_with(|| a.deps.cmp(&b.deps))
    });

    Diagnosis { ranked: survivors, total_logged: entries.len(), distinct, pruned }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dep(s: u32, l: u32) -> RawDep {
        RawDep { store_pc: s, load_pc: l, inter_thread: false }
    }

    fn entry(deps: Vec<RawDep>, output: f32, cycle: u64) -> DebugEntry {
        DebugEntry { deps, output, cycle, tid: 0 }
    }

    fn correct_set(seqs: &[Vec<RawDep>]) -> CorrectSet {
        let mut set = CorrectSet::default();
        for s in seqs {
            set.insert(s);
        }
        set
    }

    #[test]
    fn paper_ranking_example() {
        // Correct Set: (A1,A2,A3), (B1,B2,B3).
        let a1 = dep(1, 10);
        let a2 = dep(2, 20);
        let a3 = dep(3, 30);
        let a4 = dep(4, 40);
        let a5 = dep(5, 50);
        let a6 = dep(6, 60);
        let b1 = dep(7, 70);
        let b2 = dep(8, 80);
        let b3 = dep(9, 90);
        let correct = correct_set(&[vec![a1, a2, a3], vec![b1, b2, b3]]);

        let entries = vec![
            entry(vec![a1, a2, a4], 0.3, 10),
            entry(vec![b1, b2, b3], 0.4, 20),
            entry(vec![a1, a5, a6], 0.2, 30),
        ];
        let diag = postprocess(&entries, &correct);
        // (B1,B2,B3) pruned.
        assert_eq!(diag.pruned, 1);
        assert_eq!(diag.ranked.len(), 2);
        // (A1,A2,A4) has 2 matches, ranks first; (A1,A5,A6) has 1.
        assert_eq!(diag.ranked[0].deps, vec![a1, a2, a4]);
        assert_eq!(diag.ranked[0].matched, 2);
        assert_eq!(diag.ranked[1].deps, vec![a1, a5, a6]);
        assert_eq!(diag.ranked[1].matched, 1);
        // The mismatched dependence of the top candidate is A4.
        assert_eq!(diag.ranked[0].mismatched_dep(), Some(&a4));
        // filter_pct = 1/3.
        assert!((diag.filter_pct() - 100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn ties_break_by_most_negative_output() {
        let correct = correct_set(&[vec![dep(1, 1), dep(2, 2)]]);
        let entries = vec![
            entry(vec![dep(1, 1), dep(9, 9)], 0.45, 10),
            entry(vec![dep(1, 1), dep(8, 8)], 0.10, 20),
        ];
        let diag = postprocess(&entries, &correct);
        assert_eq!(diag.ranked[0].deps[1], dep(8, 8), "lower output ranks first");
    }

    #[test]
    fn duplicates_merge_keeping_min_output() {
        let correct = CorrectSet::default();
        let entries = vec![
            entry(vec![dep(1, 1)], 0.4, 10),
            entry(vec![dep(1, 1)], 0.2, 30),
            entry(vec![dep(1, 1)], 0.3, 20),
        ];
        let diag = postprocess(&entries, &correct);
        assert_eq!(diag.total_logged, 3);
        assert_eq!(diag.distinct, 1);
        assert_eq!(diag.ranked.len(), 1);
        assert_eq!(diag.ranked[0].occurrences, 3);
        assert!((diag.ranked[0].output - 0.2).abs() < 1e-6);
        assert_eq!(diag.ranked[0].cycle, 30);
    }

    #[test]
    fn rank_where_finds_position() {
        let correct = correct_set(&[vec![dep(1, 1), dep(2, 2)]]);
        let entries = vec![
            entry(vec![dep(1, 1), dep(9, 9)], 0.45, 10),
            entry(vec![dep(5, 5), dep(6, 6)], 0.10, 20),
        ];
        let diag = postprocess(&entries, &correct);
        // First entry matched=1, second matched=0 -> first ranks 1.
        let rank = diag.rank_where(|s| s.deps.contains(&dep(9, 9)));
        assert_eq!(rank, Some(1));
        let rank = diag.rank_where(|s| s.deps.contains(&dep(6, 6)));
        assert_eq!(rank, Some(2));
        assert_eq!(diag.rank_where(|s| s.deps.contains(&dep(7, 7))), None);
    }

    #[test]
    fn empty_buffer_gives_empty_diagnosis() {
        let diag = postprocess(&[], &CorrectSet::default());
        assert!(diag.ranked.is_empty());
        assert_eq!(diag.filter_pct(), 0.0);
    }
}
