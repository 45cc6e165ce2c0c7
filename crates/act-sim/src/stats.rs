//! Execution statistics: cycles, instruction mix, cache/bus behaviour, and
//! attachment-induced stalls. The overhead experiment (Fig 8) compares
//! `total_cycles` of runs with and without the ACT module attached.

/// Per-core counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired.
    pub retired: u64,
    /// Loads retired.
    pub loads: u64,
    /// Stores retired.
    pub stores: u64,
    /// Conditional branches retired.
    pub branches: u64,
    /// Cycles a retirement-ready load was stalled by the core attachment
    /// (the NN input FIFO being full, in ACT's case).
    pub attach_stall_cycles: u64,
    /// Cycles dispatch was blocked because the ROB was full.
    pub rob_full_cycles: u64,
    /// Cycles the core had a runnable thread.
    pub busy_cycles: u64,
}

/// Memory-system counters (machine-wide).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// L1 hits.
    pub l1_hits: u64,
    /// L1 misses that hit in the local L2.
    pub l2_hits: u64,
    /// Misses serviced by a dirty cache-to-cache transfer.
    pub cache_to_cache: u64,
    /// Misses serviced from main memory.
    pub mem_fills: u64,
    /// Bus transactions issued.
    pub bus_transactions: u64,
    /// Lines written back from L2 to memory.
    pub writebacks: u64,
    /// Loads whose last-writer metadata was available (a RAW dep formed).
    pub deps_formed: u64,
    /// Loads whose last-writer metadata was unavailable.
    pub deps_missing: u64,
}

/// Machine-wide statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Total cycles simulated.
    pub total_cycles: u64,
    /// Per-core counters.
    pub cores: Vec<CoreStats>,
    /// Memory-system counters.
    pub mem: MemStats,
    /// Threads spawned (including main).
    pub threads_spawned: u64,
    /// Lock acquisitions.
    pub lock_acquires: u64,
}

impl Stats {
    /// New statistics block for `cores` cores.
    pub fn new(cores: usize) -> Self {
        Stats { cores: vec![CoreStats::default(); cores], ..Default::default() }
    }

    /// Total instructions retired across all cores.
    pub fn total_retired(&self) -> u64 {
        self.cores.iter().map(|c| c.retired).sum()
    }

    /// Total loads retired across all cores.
    pub fn total_loads(&self) -> u64 {
        self.cores.iter().map(|c| c.loads).sum()
    }

    /// Total attachment-induced stall cycles across all cores.
    pub fn total_attach_stalls(&self) -> u64 {
        self.cores.iter().map(|c| c.attach_stall_cycles).sum()
    }

    /// Fraction of loads that formed a RAW dependence.
    pub fn dep_coverage(&self) -> f64 {
        let total = self.mem.deps_formed + self.mem.deps_missing;
        if total == 0 {
            0.0
        } else {
            self.mem.deps_formed as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation() {
        let mut s = Stats::new(2);
        s.cores[0].retired = 10;
        s.cores[1].retired = 5;
        s.cores[0].loads = 4;
        s.cores[1].attach_stall_cycles = 7;
        assert_eq!(s.total_retired(), 15);
        assert_eq!(s.total_loads(), 4);
        assert_eq!(s.total_attach_stalls(), 7);
    }

    #[test]
    fn dep_coverage_handles_zero() {
        let s = Stats::new(1);
        assert_eq!(s.dep_coverage(), 0.0);
        let mut s = Stats::new(1);
        s.mem.deps_formed = 3;
        s.mem.deps_missing = 1;
        assert!((s.dep_coverage() - 0.75).abs() < 1e-12);
    }
}
