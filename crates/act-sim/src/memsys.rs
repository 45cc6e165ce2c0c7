//! Timing and coherence model: private L1/L2 caches per core, a snoopy MESI
//! bus at the L2 level, main memory, and last-writer metadata in cache lines.
//!
//! Architectural *values* live in [`crate::mem::Memory`]; this module models
//! *when* an access completes, *how* it was serviced (for PBI's cache-event
//! predicates), and whether last-writer metadata was available (for RAW
//! dependence formation).
//!
//! The model follows the paper's three metadata relaxations (§V):
//!
//! 1. metadata may be kept at line rather than word granularity
//!    ([`MetaGranularity::Line`]);
//! 2. metadata is *not* written back to memory on eviction — it is simply
//!    lost, so later loads of that line form no dependence;
//! 3. metadata is piggybacked on coherence messages only for cache-to-cache
//!    transfers of dirty lines.
//!
//! Structural simplifications (documented, timing-neutral for the paper's
//! experiments): the L1 is a tag array whose lines mirror the inclusive L2
//! (metadata and MESI state are kept once, in the L2, which is the coherence
//! point per Table III), and bus transactions are atomic — a transaction
//! holds the bus for the transfer duration and completes at a computed cycle
//! rather than via a message-level state machine.

use crate::config::{MachineConfig, MetaGranularity};
use crate::events::{CacheEvent, LastWriter};
use crate::isa::{Addr, Pc};
use crate::stats::MemStats;
use std::num::NonZeroU64;

/// MESI coherence states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mesi {
    Modified,
    Exclusive,
    Shared,
    Invalid,
}

/// A last-writer metadata slot: the writer packed into one word as
/// `tid << 32 | (pc + 1)`, or `None`. An empty slot is all zero bits.
type Slot = Option<NonZeroU64>;

/// Pack `w` into a slot. A pc indexes the program, so it is below
/// [`Pc::MAX`] and `pc + 1` fits its 32 bits.
fn pack(w: LastWriter) -> Slot {
    assert!(w.pc < Pc::MAX, "pc {} cannot index a program", w.pc);
    NonZeroU64::new(u64::from(w.tid) << 32 | u64::from(w.pc + 1))
}

fn unpack(slot: Slot) -> Option<LastWriter> {
    slot.map(|s| LastWriter { pc: s.get() as u32 - 1, tid: (s.get() >> 32) as u32 })
}

/// An L1 line: tag only (state and metadata live in the inclusive L2).
#[derive(Debug, Clone, Copy)]
struct L1Line {
    tag: u64,
    valid: bool,
    lru: u64,
}

/// One core's L1 tag array.
#[derive(Debug)]
struct L1Array {
    /// `sets * ways` lines, set by set: set `s` is
    /// `lines[s * ways..(s + 1) * ways]`.
    lines: Vec<L1Line>,
    ways: usize,
    set_mask: u64,
}

impl L1Array {
    fn new(sets: usize, ways: usize) -> Self {
        L1Array {
            lines: vec![L1Line { tag: 0, valid: false, lru: 0 }; sets * ways],
            ways,
            set_mask: sets as u64 - 1,
        }
    }

    /// The ways of the set `line_addr` maps to.
    fn set_mut(&mut self, line_addr: u64) -> &mut [L1Line] {
        let first = (line_addr & self.set_mask) as usize * self.ways;
        &mut self.lines[first..first + self.ways]
    }

    fn hit(&mut self, line_addr: u64, clock: u64) -> bool {
        for way in self.set_mut(line_addr) {
            if way.valid && way.tag == line_addr {
                way.lru = clock;
                return true;
            }
        }
        false
    }

    fn fill(&mut self, line_addr: u64, clock: u64) {
        let set = self.set_mut(line_addr);
        if set.iter().any(|w| w.valid && w.tag == line_addr) {
            return;
        }
        let victim =
            set.iter_mut().min_by_key(|w| if w.valid { w.lru } else { 0 }).expect("nonzero ways");
        *victim = L1Line { tag: line_addr, valid: true, lru: clock };
    }

    fn invalidate(&mut self, line_addr: u64) {
        for way in self.set_mut(line_addr) {
            if way.valid && way.tag == line_addr {
                way.valid = false;
            }
        }
    }
}

/// One core's L2. A line is named by its index `i` into `sets * ways`
/// ways, set by set (set `s` holds `s * ways..(s + 1) * ways`), and its tag,
/// LRU stamp, MESI state and last-writer metadata sit at that index in four
/// flat arrays. An empty way is zero in all but the one-byte states, so
/// those three arrays are allocated zeroed: fresh pages from the OS are
/// handed out untouched, and one is mapped in only when a set is first
/// used. A run that touches a few hundred lines then pays for those, not
/// for all 8,192 of a Table III L2.
#[derive(Debug)]
struct L2Array {
    tags: Vec<u64>,
    lru: Vec<u64>,
    states: Vec<Mesi>,
    /// `meta_slots` slots per line: line `i`'s are
    /// `meta[i * meta_slots..(i + 1) * meta_slots]`. One slot per word
    /// ([`MetaGranularity::Word`]) or a single slot
    /// ([`MetaGranularity::Line`]).
    meta: Vec<Slot>,
    ways: usize,
    set_mask: u64,
    meta_slots: usize,
}

impl L2Array {
    fn new(sets: usize, ways: usize, meta_slots: usize) -> Self {
        let lines = sets * ways;
        L2Array {
            tags: vec![0; lines],
            lru: vec![0; lines],
            states: vec![Mesi::Invalid; lines],
            meta: vec![None; lines * meta_slots],
            ways,
            set_mask: sets as u64 - 1,
            meta_slots,
        }
    }

    /// The lines of the set `line_addr` maps to.
    fn set_of(&self, line_addr: u64) -> std::ops::Range<usize> {
        let first = (line_addr & self.set_mask) as usize * self.ways;
        first..first + self.ways
    }

    /// The valid line holding `line_addr`, if present.
    fn find(&self, line_addr: u64) -> Option<usize> {
        self.set_of(line_addr)
            .find(|&i| self.states[i] != Mesi::Invalid && self.tags[i] == line_addr)
    }

    /// Line `i`'s metadata slots.
    fn meta(&self, i: usize) -> &[Slot] {
        &self.meta[i * self.meta_slots..(i + 1) * self.meta_slots]
    }

    fn meta_mut(&mut self, i: usize) -> &mut [Slot] {
        &mut self.meta[i * self.meta_slots..(i + 1) * self.meta_slots]
    }

    /// Insert a line over the set's first invalid or else LRU way,
    /// returning the line and the evicted victim's tag and state if it was
    /// valid. The line's metadata slots still hold the victim's; the caller
    /// overwrites them.
    fn fill(&mut self, line_addr: u64, state: Mesi, clock: u64) -> (usize, Option<(u64, Mesi)>) {
        debug_assert!(self.find(line_addr).is_none(), "fill of present line");
        let i = self
            .set_of(line_addr)
            .min_by_key(|&i| if self.states[i] == Mesi::Invalid { 0 } else { self.lru[i] + 1 })
            .expect("nonzero ways");
        let victim = (self.states[i] != Mesi::Invalid).then_some((self.tags[i], self.states[i]));
        self.tags[i] = line_addr;
        self.lru[i] = clock;
        self.states[i] = state;
        (i, victim)
    }
}

/// A line in some core's L2: `(core, line index)`.
type LineRef = (usize, usize);

/// Result of a timed memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Cycle at which the data is available to the pipeline.
    pub complete_at: u64,
    /// How the hierarchy serviced the access.
    pub event: CacheEvent,
    /// For loads: the last-writer metadata found for the accessed word, if
    /// it was available.
    pub last_writer: Option<LastWriter>,
}

/// The whole coherent memory system: per-core L1/L2, bus, and memory timing.
///
/// Each cache keeps its lines in flat arrays indexed by line, so building
/// the hierarchy allocates per core, not per set or line, and no access
/// allocates at all.
#[derive(Debug)]
pub struct MemorySystem {
    line_bytes: u64,
    granularity: MetaGranularity,
    l1: Vec<L1Array>,
    l2: Vec<L2Array>,
    l1_lat: u64,
    l2_lat: u64,
    mem_lat: u64,
    bus_cycles: u64,
    bus_free_at: u64,
    clock: u64,
    /// Machine-wide counters (read via [`MemorySystem::stats`]).
    stats: MemStats,
}

impl MemorySystem {
    /// Build the hierarchy described by `cfg`.
    pub fn new(cfg: &MachineConfig) -> Self {
        let meta_slots = match cfg.granularity {
            MetaGranularity::Word => cfg.words_per_line(),
            MetaGranularity::Line => 1,
        };
        MemorySystem {
            line_bytes: cfg.line_bytes,
            granularity: cfg.granularity,
            l1: (0..cfg.cores)
                .map(|_| L1Array::new(cfg.l1.sets(cfg.line_bytes), cfg.l1.ways))
                .collect(),
            l2: (0..cfg.cores)
                .map(|_| L2Array::new(cfg.l2.sets(cfg.line_bytes), cfg.l2.ways, meta_slots))
                .collect(),
            l1_lat: cfg.l1.latency,
            l2_lat: cfg.l2.latency,
            mem_lat: cfg.mem_latency,
            bus_cycles: cfg.bus_transfer_cycles(),
            bus_free_at: 0,
            clock: 0,
            stats: MemStats::default(),
        }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    fn line_addr(&self, addr: Addr) -> u64 {
        addr / self.line_bytes
    }

    fn meta_index(&self, addr: Addr) -> usize {
        match self.granularity {
            MetaGranularity::Word => ((addr % self.line_bytes) / crate::isa::WORD_BYTES) as usize,
            MetaGranularity::Line => 0,
        }
    }

    fn bump_clock(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Acquire the bus at or after `earliest`; returns the transaction start.
    fn acquire_bus(&mut self, earliest: u64) -> u64 {
        let start = self.bus_free_at.max(earliest);
        self.bus_free_at = start + self.bus_cycles;
        self.stats.bus_transactions += 1;
        start
    }

    /// Invalidate `line_addr` in every core except `except`; returns the
    /// line of a Modified owner, if one existed. An invalidated line keeps
    /// its metadata slots until its way is refilled.
    fn invalidate_others(&mut self, except: usize, line_addr: u64) -> Option<LineRef> {
        let mut dirty = None;
        for core in 0..self.l2.len() {
            if core == except {
                continue;
            }
            if let Some(i) = self.l2[core].find(line_addr) {
                let state = &mut self.l2[core].states[i];
                if *state == Mesi::Modified {
                    dirty = Some((core, i));
                }
                *state = Mesi::Invalid;
                self.l1[core].invalidate(line_addr);
            }
        }
        dirty
    }

    /// Demote a Modified owner of `line_addr` (other than `except`) to
    /// Shared; returns its line if one existed (the dirty cache-to-cache
    /// piggyback). Also returns whether any other core holds the line at all.
    fn snoop_for_read(&mut self, except: usize, line_addr: u64) -> (Option<LineRef>, bool) {
        let mut dirty = None;
        let mut any_shared = false;
        for core in 0..self.l2.len() {
            if core == except {
                continue;
            }
            if let Some(i) = self.l2[core].find(line_addr) {
                any_shared = true;
                let state = &mut self.l2[core].states[i];
                match *state {
                    Mesi::Modified => {
                        dirty = Some((core, i));
                        *state = Mesi::Shared;
                    }
                    Mesi::Exclusive => *state = Mesi::Shared,
                    Mesi::Shared | Mesi::Invalid => {}
                }
            }
        }
        (dirty, any_shared)
    }

    /// Fill `line_addr` into `core`'s L2 and return its line index. The
    /// line's metadata is copied from the dirty owner's line `from`, if
    /// there is one, and cleared otherwise.
    fn fill_l2(
        &mut self,
        core: usize,
        line_addr: u64,
        state: Mesi,
        from: Option<LineRef>,
    ) -> usize {
        let clock = self.bump_clock();
        let (i, victim) = self.l2[core].fill(line_addr, state, clock);
        match from {
            Some((owner, j)) => {
                let (dst, src) = pair_mut(&mut self.l2, core, owner);
                dst.meta_mut(i).copy_from_slice(src.meta(j));
            }
            None => self.l2[core].meta_mut(i).fill(None),
        }
        if let Some((tag, state)) = victim {
            // Inclusion: evicting from L2 back-invalidates the L1 copy.
            self.l1[core].invalidate(tag);
            if state == Mesi::Modified {
                // Relaxation 2: data goes to memory, metadata is dropped.
                self.stats.writebacks += 1;
            }
        }
        i
    }

    fn fill_l1(&mut self, core: usize, line_addr: u64) {
        let clock = self.bump_clock();
        self.l1[core].fill(line_addr, clock);
    }

    /// Perform a timed load by `core` of the word at `addr`, issued at `now`.
    pub fn load(&mut self, core: usize, addr: Addr, now: u64) -> AccessResult {
        let line_addr = self.line_addr(addr);
        let widx = self.meta_index(addr);
        let clock = self.bump_clock();

        if self.l1[core].hit(line_addr, clock) {
            self.stats.l1_hits += 1;
            let l2 = &self.l2[core];
            let meta = l2.find(line_addr).and_then(|i| unpack(l2.meta(i)[widx]));
            return AccessResult {
                complete_at: now + self.l1_lat,
                event: CacheEvent::L1Hit,
                last_writer: meta,
            };
        }

        if let Some(i) = self.l2[core].find(line_addr) {
            self.l2[core].lru[i] = clock;
            let meta = unpack(self.l2[core].meta(i)[widx]);
            self.stats.l2_hits += 1;
            self.fill_l1(core, line_addr);
            return AccessResult {
                complete_at: now + self.l1_lat + self.l2_lat,
                event: CacheEvent::L2Hit,
                last_writer: meta,
            };
        }

        // Miss: go to the bus.
        let start = self.acquire_bus(now + self.l1_lat + self.l2_lat);
        let (dirty, any_shared) = self.snoop_for_read(core, line_addr);
        let (complete_at, event) = match dirty {
            Some(_) => {
                // Relaxation 3: metadata rides along only on this path.
                self.stats.cache_to_cache += 1;
                (start + self.bus_cycles, CacheEvent::CacheToCache)
            }
            None => {
                self.stats.mem_fills += 1;
                (start + self.mem_lat, CacheEvent::Memory)
            }
        };
        let state = if any_shared { Mesi::Shared } else { Mesi::Exclusive };
        let i = self.fill_l2(core, line_addr, state, dirty);
        let last_writer = unpack(self.l2[core].meta(i)[widx]);
        self.fill_l1(core, line_addr);
        AccessResult { complete_at, event, last_writer }
    }

    /// Perform a timed store by `core` to the word at `addr`, issued at
    /// `now`, recording `writer` as the word's (or line's) last writer.
    ///
    /// # Panics
    ///
    /// Panics if `writer.pc` is [`Pc::MAX`], which indexes no program.
    pub fn store(&mut self, core: usize, addr: Addr, now: u64, writer: LastWriter) -> AccessResult {
        let line_addr = self.line_addr(addr);
        let widx = self.meta_index(addr);
        let clock = self.bump_clock();
        let l1_hit = self.l1[core].hit(line_addr, clock);

        let present = self.l2[core].find(line_addr).map(|i| (i, self.l2[core].states[i]));
        let (complete_at, event, i) = match present {
            Some((i, Mesi::Modified | Mesi::Exclusive)) => {
                let (lat, ev) = if l1_hit {
                    (self.l1_lat, CacheEvent::L1Hit)
                } else {
                    self.stats.l2_hits += 1;
                    self.fill_l1(core, line_addr);
                    (self.l1_lat + self.l2_lat, CacheEvent::L2Hit)
                };
                if l1_hit {
                    self.stats.l1_hits += 1;
                }
                (now + lat, ev, i)
            }
            Some((i, Mesi::Shared)) => {
                // Upgrade: invalidate other copies over the bus.
                let start = self.acquire_bus(now + self.l1_lat + self.l2_lat);
                self.invalidate_others(core, line_addr);
                if !l1_hit {
                    self.fill_l1(core, line_addr);
                }
                (start + self.bus_cycles, CacheEvent::L2Hit, i)
            }
            Some((_, Mesi::Invalid)) | None => {
                // Read-for-ownership on the bus.
                let start = self.acquire_bus(now + self.l1_lat + self.l2_lat);
                let dirty = self.invalidate_others(core, line_addr);
                let (complete_at, event) = match dirty {
                    Some(_) => {
                        self.stats.cache_to_cache += 1;
                        (start + self.bus_cycles, CacheEvent::CacheToCache)
                    }
                    None => {
                        self.stats.mem_fills += 1;
                        (start + self.mem_lat, CacheEvent::Memory)
                    }
                };
                let i = self.fill_l2(core, line_addr, Mesi::Modified, dirty);
                self.fill_l1(core, line_addr);
                (complete_at, event, i)
            }
        };

        // The line is now Modified with updated metadata.
        let l2 = &mut self.l2[core];
        l2.states[i] = Mesi::Modified;
        l2.lru[i] = clock;
        l2.meta_mut(i)[widx] = pack(writer);

        AccessResult { complete_at, event, last_writer: None }
    }
}

/// `v[a]` mutably and `v[b]` shared, for `a != b`.
fn pair_mut<T>(v: &mut [T], a: usize, b: usize) -> (&mut T, &T) {
    assert_ne!(a, b, "a line is never copied onto its own core");
    if a < b {
        let (lo, hi) = v.split_at_mut(b);
        (&mut lo[a], &hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(a);
        (&mut hi[0], &lo[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> MachineConfig {
        MachineConfig {
            cores: 2,
            l1: crate::config::CacheConfig { size_bytes: 1024, ways: 2, latency: 2 },
            l2: crate::config::CacheConfig { size_bytes: 4096, ways: 2, latency: 10 },
            line_bytes: 64,
            ..Default::default()
        }
    }

    fn w(pc: u32, tid: u32) -> LastWriter {
        LastWriter { pc, tid }
    }

    #[test]
    fn cold_load_misses_to_memory_then_hits_l1() {
        let mut ms = MemorySystem::new(&small_cfg());
        let r = ms.load(0, 0x2000, 100);
        assert_eq!(r.event, CacheEvent::Memory);
        assert_eq!(r.last_writer, None);
        assert!(r.complete_at >= 100 + 2 + 10 + 300);

        let r2 = ms.load(0, 0x2000, r.complete_at);
        assert_eq!(r2.event, CacheEvent::L1Hit);
        assert_eq!(r2.complete_at, r.complete_at + 2);
    }

    #[test]
    fn store_then_local_load_forms_dep() {
        let mut ms = MemorySystem::new(&small_cfg());
        ms.store(0, 0x2000, 0, w(7, 0));
        let r = ms.load(0, 0x2000, 50);
        assert_eq!(r.last_writer, Some(w(7, 0)));
        assert_eq!(r.event, CacheEvent::L1Hit);
    }

    #[test]
    fn dirty_cache_to_cache_piggybacks_metadata() {
        let mut ms = MemorySystem::new(&small_cfg());
        ms.store(0, 0x2000, 0, w(7, 0));
        let r = ms.load(1, 0x2000, 400);
        assert_eq!(r.event, CacheEvent::CacheToCache);
        assert_eq!(r.last_writer, Some(w(7, 0)));
        assert_eq!(ms.stats().cache_to_cache, 1);
    }

    #[test]
    fn clean_remote_copy_gives_no_metadata() {
        let mut ms = MemorySystem::new(&small_cfg());
        ms.store(0, 0x2000, 0, w(7, 0));
        // Core 1 reads (dirty c2c, owner demoted to Shared, meta transfers).
        let _ = ms.load(1, 0x2000, 400);
        // Core 0 evicts nothing; now core 1 stores: upgrade, then core 0
        // reloads after invalidation — but core 1's line is dirty, so meta
        // still piggybacks. To get a *clean* transfer, read a line that only
        // ever lived clean in a remote cache:
        let _ = ms.load(0, 0x4000, 1000); // core 0 loads clean from memory
        let r = ms.load(1, 0x4000, 2000); // remote copy exists but clean
        assert_eq!(r.event, CacheEvent::Memory);
        assert_eq!(r.last_writer, None);
    }

    #[test]
    fn word_granularity_distinguishes_words_in_a_line() {
        let mut ms = MemorySystem::new(&small_cfg());
        ms.store(0, 0x2000, 0, w(7, 0));
        ms.store(0, 0x2008, 0, w(8, 0));
        assert_eq!(ms.load(0, 0x2000, 50).last_writer, Some(w(7, 0)));
        assert_eq!(ms.load(0, 0x2008, 60).last_writer, Some(w(8, 0)));
        // Untouched word in the same line: no metadata.
        assert_eq!(ms.load(0, 0x2010, 70).last_writer, None);
    }

    #[test]
    fn line_granularity_aliases_words() {
        let cfg = MachineConfig { granularity: MetaGranularity::Line, ..small_cfg() };
        let mut ms = MemorySystem::new(&cfg);
        ms.store(0, 0x2000, 0, w(7, 0));
        ms.store(0, 0x2008, 0, w(8, 0));
        // Both words report the line's single (most recent) writer.
        assert_eq!(ms.load(0, 0x2000, 50).last_writer, Some(w(8, 0)));
        assert_eq!(ms.load(0, 0x2008, 60).last_writer, Some(w(8, 0)));
    }

    #[test]
    fn eviction_drops_metadata() {
        let cfg = small_cfg(); // L2: 4096 B, 2-way, 64 B lines -> 32 sets
        let mut ms = MemorySystem::new(&cfg);
        ms.store(0, 0x2000, 0, w(7, 0));
        // Two more lines mapping to the same L2 set evict the first
        // (set stride = sets * line = 32 * 64 = 2048 bytes).
        ms.store(0, 0x2000 + 2048, 10, w(8, 0));
        ms.store(0, 0x2000 + 4096, 20, w(9, 0));
        assert!(ms.stats().writebacks >= 1);
        let r = ms.load(0, 0x2000, 5000);
        assert_eq!(r.last_writer, None, "metadata must not survive eviction");
    }

    #[test]
    fn store_upgrade_invalidates_sharers() {
        let mut ms = MemorySystem::new(&small_cfg());
        let _ = ms.load(0, 0x2000, 0); // E in core 0
        let _ = ms.load(1, 0x2000, 500); // both S
                                         // Core 0 stores: upgrade, core 1 must lose the line.
        ms.store(0, 0x2000, 1000, w(3, 0));
        let r = ms.load(1, 0x2000, 2000);
        // Core 1 refetches; core 0 has it dirty -> c2c with metadata.
        assert_eq!(r.event, CacheEvent::CacheToCache);
        assert_eq!(r.last_writer, Some(w(3, 0)));
    }

    #[test]
    fn rfo_transfers_metadata_from_dirty_owner() {
        let mut ms = MemorySystem::new(&small_cfg());
        ms.store(0, 0x2000, 0, w(3, 0));
        // Core 1 stores to a *different word* in the same line: RFO takes the
        // dirty line (and word 0's metadata) from core 0.
        ms.store(1, 0x2008, 500, w(4, 1));
        let r = ms.load(1, 0x2000, 1500);
        assert_eq!(r.event, CacheEvent::L1Hit);
        assert_eq!(r.last_writer, Some(w(3, 0)), "word 0 metadata survived the RFO");
        let r = ms.load(1, 0x2008, 1600);
        assert_eq!(r.last_writer, Some(w(4, 1)));
    }

    #[test]
    fn bus_serializes_transactions() {
        let mut ms = MemorySystem::new(&small_cfg());
        let a = ms.load(0, 0x2000, 100);
        let b = ms.load(1, 0x8000, 100);
        // Both requests arrive at the bus at the same time; the second must
        // start after the first's bus occupancy.
        assert!(b.complete_at > a.complete_at - 300 + 3, "second txn delayed by bus");
        assert_eq!(ms.stats().bus_transactions, 2);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let cfg = small_cfg(); // L1: 1024 B, 2-way, 64 B lines -> 8 sets
        let mut ms = MemorySystem::new(&cfg);
        let _ = ms.load(0, 0x2000, 0);
        // Evict from L1 (stride = 8 sets * 64 = 512 bytes), both stay in L2.
        let _ = ms.load(0, 0x2000 + 512, 1000);
        let _ = ms.load(0, 0x2000 + 1024, 2000);
        let r = ms.load(0, 0x2000, 3000);
        assert_eq!(r.event, CacheEvent::L2Hit);
    }
}
