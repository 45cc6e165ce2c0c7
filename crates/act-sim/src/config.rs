//! Machine configuration (paper Table III).

use std::fmt;

/// Granularity at which last-writer metadata is kept in cache lines.
///
/// The paper's default design stores one last-writer entry per *word*; §V
/// relaxes this to one entry per *line*, which is cheaper but suffers
/// false-sharing aliasing (a load may be attributed to a store to a
/// different word of the same line). Fig 9's experiment sweeps this knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MetaGranularity {
    /// One last-writer entry per word (precise within a line).
    #[default]
    Word,
    /// One last-writer entry per line (subject to false sharing).
    Line,
}

impl fmt::Display for MetaGranularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetaGranularity::Word => f.write_str("word"),
            MetaGranularity::Line => f.write_str("line"),
        }
    }
}

/// Parameters of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Access latency in cycles (round trip within the level).
    pub latency: u64,
}

impl CacheConfig {
    /// Number of sets for a given line size.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly (the capacity into
    /// lines, the lines into `ways`) or the set count is not a power of two.
    pub fn sets(&self, line_bytes: u64) -> usize {
        let lines = self.size_bytes.checked_div(line_bytes).unwrap_or(0);
        let sets = lines.checked_div(self.ways as u64).unwrap_or(0);
        assert!(
            sets.is_power_of_two() && sets * self.ways as u64 * line_bytes == self.size_bytes,
            "bad cache geometry"
        );
        sets as usize
    }
}

/// Full machine configuration. Defaults follow the paper's bold-faced
/// parameters in Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of processor cores (threads are pinned to cores).
    pub cores: usize,
    /// Instructions dispatched per core per cycle.
    pub issue_width: usize,
    /// Instructions retired per core per cycle.
    pub retire_width: usize,
    /// Reorder-buffer entries per core.
    pub rob_entries: usize,
    /// Private L1 data cache.
    pub l1: CacheConfig,
    /// Private L2 cache (coherence point).
    pub l2: CacheConfig,
    /// Cache line size in bytes (32, 64, or 128 in the paper's sweep).
    pub line_bytes: u64,
    /// Bus width in bytes (a line transfer takes `line_bytes / bus_bytes` cycles).
    pub bus_bytes: u64,
    /// Main-memory round-trip latency in cycles.
    pub mem_latency: u64,
    /// Last-writer metadata granularity.
    pub granularity: MetaGranularity,
    /// Per-cycle probability (×1e6) of injecting a 1-cycle dispatch bubble,
    /// used to perturb thread interleavings across seeded runs. 0 disables.
    pub jitter_ppm: u32,
    /// RNG seed for jitter (and nothing else; simulation is otherwise
    /// deterministic).
    pub seed: u64,
    /// Safety limit: abort the run as [`crate::outcome::RunOutcome::Timeout`]
    /// after this many cycles.
    pub max_cycles: u64,
    /// Preemption quantum in cycles, or 0 for run-to-completion scheduling.
    /// With a quantum, a core whose thread has run that long is preempted
    /// whenever other threads are waiting — the OS context switch of the
    /// paper's §IV-D, which must save/restore the ACT module's weight
    /// registers along with the architectural state.
    pub preemption_quantum: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cores: 8,
            issue_width: 2,
            retire_width: 3,
            rob_entries: 140,
            l1: CacheConfig { size_bytes: 32 * 1024, ways: 4, latency: 2 },
            l2: CacheConfig { size_bytes: 512 * 1024, ways: 8, latency: 10 },
            line_bytes: 64,
            bus_bytes: 32,
            mem_latency: 300,
            granularity: MetaGranularity::Word,
            jitter_ppm: 20_000, // 2% dispatch bubbles: enough to vary interleavings
            seed: 0,
            max_cycles: 200_000_000,
            preemption_quantum: 0,
        }
    }
}

impl MachineConfig {
    /// Default configuration with a specific seed.
    pub fn with_seed(seed: u64) -> Self {
        MachineConfig { seed, ..Self::default() }
    }

    /// Number of words per cache line.
    pub fn words_per_line(&self) -> usize {
        (self.line_bytes / crate::isa::WORD_BYTES) as usize
    }

    /// Cycles the bus is occupied by one line transfer (plus one arbitration
    /// cycle).
    pub fn bus_transfer_cycles(&self) -> u64 {
        1 + self.line_bytes / self.bus_bytes
    }

    /// Validate internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical geometry (zero cores/widths, non-power-of-two
    /// caches, line smaller than a word).
    pub fn validate(&self) {
        assert!(self.cores > 0, "need at least one core");
        assert!(self.issue_width > 0 && self.retire_width > 0);
        assert!(self.rob_entries >= self.issue_width);
        assert!(self.line_bytes >= crate::isa::WORD_BYTES);
        assert!(self.line_bytes.is_power_of_two());
        assert!(self.bus_bytes > 0 && self.line_bytes.is_multiple_of(self.bus_bytes));
        let _ = self.l1.sets(self.line_bytes);
        let _ = self.l2.sets(self.line_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_table3() {
        let c = MachineConfig::default();
        c.validate();
        assert_eq!(c.cores, 8);
        assert_eq!(c.issue_width, 2);
        assert_eq!(c.retire_width, 3);
        assert_eq!(c.rob_entries, 140);
        assert_eq!(c.l1.size_bytes, 32 * 1024);
        assert_eq!(c.l1.ways, 4);
        assert_eq!(c.l1.latency, 2);
        assert_eq!(c.l2.size_bytes, 512 * 1024);
        assert_eq!(c.l2.ways, 8);
        assert_eq!(c.l2.latency, 10);
        assert_eq!(c.mem_latency, 300);
        assert_eq!(c.granularity, MetaGranularity::Word);
    }

    #[test]
    fn geometry_helpers() {
        let c = MachineConfig::default();
        assert_eq!(c.words_per_line(), 8);
        assert_eq!(c.bus_transfer_cycles(), 3);
        assert_eq!(c.l1.sets(64), 128);
        assert_eq!(c.l2.sets(64), 1024);
    }

    #[test]
    fn line_size_sweep_is_valid() {
        for line in [32u64, 64, 128] {
            let c = MachineConfig { line_bytes: line, ..Default::default() };
            c.validate();
        }
    }

    #[test]
    #[should_panic(expected = "bad cache geometry")]
    fn bad_geometry_panics() {
        let c = MachineConfig {
            l1: CacheConfig { size_bytes: 100, ways: 3, latency: 1 },
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "bad cache geometry")]
    fn capacity_not_a_multiple_of_the_line_panics() {
        // 100 B holds one 64 B line and 36 B of nothing.
        CacheConfig { size_bytes: 100, ways: 1, latency: 1 }.sets(64);
    }

    #[test]
    #[should_panic(expected = "bad cache geometry")]
    fn lines_not_a_multiple_of_the_ways_panics() {
        // Three 64 B lines do not fill 2-way sets.
        CacheConfig { size_bytes: 192, ways: 2, latency: 1 }.sets(64);
    }

    #[test]
    #[should_panic(expected = "bad cache geometry")]
    fn zero_ways_panics() {
        CacheConfig { size_bytes: 1024, ways: 0, latency: 1 }.sets(64);
    }
}
