//! The per-core ACT Module (AM) of §III-C / §IV: input generator buffer,
//! neural network + pipeline, debug buffer, invalid counter, and the
//! controller that alternates between online testing and online training.

use crate::config::ActConfig;
use crate::encoding::Encoder;
use crate::weights::SharedWeightStore;
use act_nn::network::Network;
use act_nn::pipeline::NnPipeline;
use act_sim::attach::CoreAttachment;
use act_sim::events::{LoadEvent, RawDep, ThreadId};
use act_trace::input_gen::DepRing;
use std::collections::VecDeque;

/// Operating mode of the module (the `Mode` flag of Fig 4(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Verify each dependence sequence; log predicted-invalid ones.
    #[default]
    Testing,
    /// Treat every sequence as correct; back-propagate on predicted-invalid
    /// ones (and still log them, in case one really was the bug).
    Training,
}

/// One logged (predicted-invalid) dependence sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct DebugEntry {
    /// The sequence, oldest dependence first.
    pub deps: Vec<RawDep>,
    /// The network output (< 0.5; more negative confidence = closer to 0).
    pub output: f32,
    /// Cycle of the final load.
    pub cycle: u64,
    /// Thread that executed the final load.
    pub tid: ThreadId,
}

/// Fixed-capacity FIFO of recent invalid sequences.
#[derive(Debug, Clone)]
pub struct DebugBuffer {
    entries: VecDeque<DebugEntry>,
    capacity: usize,
    evicted: u64,
}

impl DebugBuffer {
    /// An empty buffer holding up to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        DebugBuffer { entries: VecDeque::with_capacity(capacity), capacity, evicted: 0 }
    }

    /// Record an entry, evicting the oldest when full.
    pub fn push(&mut self, entry: DebugEntry) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.evicted += 1;
        }
        self.entries.push_back(entry);
    }

    /// Entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &DebugEntry> {
        self.entries.iter()
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries that have been displaced by newer ones.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

/// Counters exposed by the module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModuleStats {
    /// Sequences fed to the network.
    pub predictions: u64,
    /// Sequences predicted invalid.
    pub invalids: u64,
    /// Back-propagation updates performed (online training).
    pub train_updates: u64,
    /// Switches into training mode.
    pub to_training: u64,
    /// Switches back into testing mode.
    pub to_testing: u64,
    /// Loads skipped because no dependence was available (lost metadata).
    pub no_dep_loads: u64,
}

impl ModuleStats {
    /// Lifetime misprediction rate: invalid predictions over all
    /// predictions (0.0 before the first prediction). The mode controller
    /// uses the per-interval rate, not this.
    pub fn mispred_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.invalids as f64 / self.predictions as f64
        }
    }
}

/// The per-core ACT module. Implements [`CoreAttachment`]: the machine
/// offers every retiring load, and the module's input FIFO exerts
/// back-pressure when full.
#[derive(Debug)]
pub struct ActModule {
    cfg: ActConfig,
    encoder: Encoder,
    store: SharedWeightStore,
    seq_len: usize,
    net: Option<Network>,
    cur_tid: Option<ThreadId>,
    pipeline: NnPipeline,
    /// Input generator buffer: recent dependences of the running thread,
    /// the Input Generator's ring (`act_trace::input_gen`).
    igb: DepRing,
    /// Scratch: the encoded input vector (reused every prediction).
    x_scratch: Vec<f32>,
    debug: DebugBuffer,
    mode: Mode,
    invalid_count: u64,
    interval_predictions: u64,
    now: u64,
    stats: ModuleStats,
}

impl ActModule {
    /// Build a module for a program with `code_len` instructions, sharing
    /// `store` with its sibling modules.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`ActConfig::validate`] — an invalid config
    /// here is a programmer error; callers taking configs from the outside
    /// (the serve daemon, the CLI) validate first and surface the
    /// [`ConfigError`](act_nn::ConfigError) cleanly.
    pub fn new(cfg: ActConfig, code_len: usize, store: SharedWeightStore) -> Self {
        cfg.validate().expect("valid ActConfig");
        let seq_len = store.borrow().seq_len();
        let pipeline = NnPipeline::new(cfg.pipeline);
        let debug = DebugBuffer::new(cfg.debug_capacity);
        let igb = DepRing::new(cfg.igb_capacity);
        ActModule {
            cfg,
            encoder: Encoder::new(code_len),
            store,
            seq_len,
            net: None,
            cur_tid: None,
            pipeline,
            igb,
            x_scratch: Vec::new(),
            debug,
            mode: Mode::Testing,
            invalid_count: 0,
            interval_predictions: 0,
            now: 0,
            stats: ModuleStats::default(),
        }
    }

    /// The module's debug buffer.
    pub fn debug_buffer(&self) -> &DebugBuffer {
        &self.debug
    }

    /// Current operating mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Counters.
    pub fn stats(&self) -> ModuleStats {
        self.stats
    }

    /// Pipeline counters (accepted/rejected/serviced).
    pub fn pipeline_stats(&self) -> act_nn::pipeline::PipelineStats {
        self.pipeline.stats()
    }

    fn set_mode(&mut self, mode: Mode) {
        if self.mode != mode {
            match mode {
                Mode::Training => self.stats.to_training += 1,
                Mode::Testing => self.stats.to_testing += 1,
            }
        }
        self.mode = mode;
        self.pipeline.set_training(mode == Mode::Training);
    }

    /// Periodic misprediction-rate check (§III-C): above the threshold in
    /// testing mode → start training; below it in training mode → resume
    /// testing.
    fn check_interval(&mut self) {
        if self.interval_predictions < self.cfg.check_interval {
            return;
        }
        let rate = self.invalid_count as f64 / self.interval_predictions as f64;
        match self.mode {
            Mode::Testing if rate > self.cfg.mispred_threshold => self.set_mode(Mode::Training),
            Mode::Training if rate < self.cfg.mispred_threshold => self.set_mode(Mode::Testing),
            _ => {}
        }
        self.invalid_count = 0;
        self.interval_predictions = 0;
    }

    /// Process an accepted dependence: form the sequence, predict, and act
    /// per mode.
    fn process(&mut self, dep: RawDep, ev: &LoadEvent) {
        self.igb.push(dep);
        // Warm-up: a window forms once `seq_len` dependences have arrived
        // (and never, if the configured IGB is too small to hold one).
        if self.igb.pushed() < self.seq_len as u64 || self.cfg.igb_capacity < self.seq_len {
            return;
        }
        // Steady-state hot path: the window encodes straight out of the
        // ring into a scratch vector, so a prediction allocates and copies
        // nothing. Only a predicted-invalid sequence (rare once trained)
        // materializes the window, for the debug buffer.
        self.encoder.encode_iter_into(self.igb.window(self.seq_len), &mut self.x_scratch);
        let net = self.net.as_mut().expect("network loaded while thread runs");

        self.stats.predictions += 1;
        self.interval_predictions += 1;
        let output = net.predict(&self.x_scratch);
        let valid = Network::classify(output);
        if !valid {
            self.stats.invalids += 1;
            self.invalid_count += 1;
            self.debug.push(DebugEntry {
                deps: self.igb.window(self.seq_len).collect(),
                output,
                cycle: ev.cycle,
                tid: ev.tid,
            });
            if self.mode == Mode::Training {
                // During online training every dependence is assumed valid;
                // a predicted-invalid one is a misprediction to learn from.
                net.train(&self.x_scratch, 1.0);
                self.stats.train_updates += 1;
            }
        }
        self.check_interval();
    }
}

impl CoreAttachment for ActModule {
    fn tick(&mut self, cycle: u64) {
        self.now = cycle;
        self.pipeline.tick(cycle);
    }

    fn offer_load(&mut self, ev: &LoadEvent) -> bool {
        if ev.stack_access {
            return true;
        }
        let Some(dep) = ev.dep else {
            // Metadata was unavailable (evicted / clean transfer): the load
            // retires freely and no sequence is formed.
            self.stats.no_dep_loads += 1;
            return true;
        };
        if self.net.is_none() {
            // No thread context (shouldn't happen while a thread runs, but
            // be permissive rather than wedge retirement).
            return true;
        }
        if !self.pipeline.try_accept(self.now) {
            return false;
        }
        self.process(dep, ev);
        true
    }

    fn on_thread_start(&mut self, tid: ThreadId) {
        let store = self.store.borrow();
        let lr = self.cfg.train.learning_rate;
        let known = store.has_weights(tid);
        self.net = Some(store.network_for(tid, lr));
        drop(store);
        self.cur_tid = Some(tid);
        self.igb.clear();
        self.invalid_count = 0;
        self.interval_predictions = 0;
        // A thread without trained weights would mispredict massively; start
        // it directly in training mode (the natural mechanism would get
        // there after one check interval anyway).
        self.set_mode(if known { Mode::Testing } else { Mode::Training });
    }

    fn on_thread_end(&mut self, tid: ThreadId) {
        if let (Some(net), Some(cur)) = (&self.net, self.cur_tid) {
            debug_assert_eq!(cur, tid);
            self.store.borrow_mut().store_weights(tid, net.weights_flat());
        }
        self.net = None;
        self.cur_tid = None;
        self.igb.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::{shared, WeightStore};
    use act_nn::network::Topology;
    use act_sim::events::CacheEvent;

    fn load_event(pc: u32, dep: Option<RawDep>, cycle: u64) -> LoadEvent {
        LoadEvent {
            cycle,
            core: 0,
            tid: 0,
            pc,
            addr: 0x2000,
            cache_event: CacheEvent::L1Hit,
            dep,
            stack_access: false,
        }
    }

    fn dep(s: u32, l: u32) -> RawDep {
        RawDep { store_pc: s, load_pc: l, inter_thread: false }
    }

    fn test_cfg() -> ActConfig {
        ActConfig { check_interval: 10, ..Default::default() }
    }

    fn module_with_seq_len(n: usize) -> ActModule {
        let topo = Topology::new(crate::encoding::FEATURES_PER_DEP * n, 3);
        let store = shared(WeightStore::new(topo, n, 7));
        ActModule::new(test_cfg(), 100, store)
    }

    #[test]
    fn debug_buffer_evicts_oldest() {
        let mut b = DebugBuffer::new(2);
        for i in 0..3 {
            b.push(DebugEntry { deps: vec![dep(i, i)], output: 0.1, cycle: i as u64, tid: 0 });
        }
        assert_eq!(b.len(), 2);
        assert_eq!(b.evicted(), 1);
        let first = b.entries().next().unwrap();
        assert_eq!(first.deps[0].store_pc, 1);
    }

    #[test]
    fn no_dep_loads_pass_through() {
        let mut m = module_with_seq_len(2);
        m.on_thread_start(0);
        assert!(m.offer_load(&load_event(5, None, 10)));
        assert_eq!(m.stats().no_dep_loads, 1);
        assert_eq!(m.stats().predictions, 0);
    }

    #[test]
    fn stack_loads_pass_through() {
        let mut m = module_with_seq_len(2);
        m.on_thread_start(0);
        let mut ev = load_event(5, Some(dep(1, 5)), 10);
        ev.stack_access = true;
        assert!(m.offer_load(&ev));
        assert_eq!(m.stats().predictions, 0);
    }

    #[test]
    fn sequence_forms_after_warmup() {
        let mut m = module_with_seq_len(3);
        m.on_thread_start(0);
        m.tick(1);
        assert!(m.offer_load(&load_event(5, Some(dep(1, 5)), 1)));
        assert!(m.offer_load(&load_event(6, Some(dep(2, 6)), 1)));
        assert_eq!(m.stats().predictions, 0, "warm-up: fewer than N deps");
        assert!(m.offer_load(&load_event(7, Some(dep(3, 7)), 1)));
        assert_eq!(m.stats().predictions, 1);
    }

    #[test]
    fn unknown_thread_starts_in_training_mode() {
        let mut m = module_with_seq_len(2);
        m.on_thread_start(9);
        assert_eq!(m.mode(), Mode::Training);
    }

    #[test]
    fn known_thread_starts_in_testing_mode() {
        let topo = Topology::new(2 * crate::encoding::FEATURES_PER_DEP, 3);
        let mut ws = WeightStore::new(topo, 2, 7);
        ws.store_weights(3, Network::random(topo, 0.2, 1).weights_flat());
        let store = shared(ws);
        let mut m = ActModule::new(test_cfg(), 100, store);
        m.on_thread_start(3);
        assert_eq!(m.mode(), Mode::Testing);
    }

    #[test]
    fn thread_end_persists_weights() {
        let topo = Topology::new(2 * crate::encoding::FEATURES_PER_DEP, 3);
        let store = shared(WeightStore::new(topo, 2, 7));
        let mut m = ActModule::new(test_cfg(), 100, store.clone());
        m.on_thread_start(4);
        assert!(!store.borrow().has_weights(4));
        m.on_thread_end(4);
        assert!(store.borrow().has_weights(4));
    }

    #[test]
    fn training_mode_learns_until_rate_drops() {
        // Feed the same dependence stream repeatedly: an untrained module
        // starts in training mode and must learn the pattern, eventually
        // switching to testing mode.
        let mut m = module_with_seq_len(2);
        m.on_thread_start(0);
        assert_eq!(m.mode(), Mode::Training);
        let mut cycle = 0;
        for round in 0..4000 {
            cycle += 30;
            m.tick(cycle);
            let i = round % 4;
            let _ = m.offer_load(&load_event(10 + i, Some(dep(i, 10 + i)), cycle));
        }
        assert_eq!(m.mode(), Mode::Testing, "module should have learned the stream");
        assert!(m.stats().train_updates > 0);
        assert!(m.stats().to_testing >= 1);
    }

    #[test]
    fn full_fifo_exerts_backpressure() {
        let mut cfg = test_cfg();
        cfg.pipeline.fifo_capacity = 1;
        let topo = Topology::new(crate::encoding::FEATURES_PER_DEP, 2);
        let store = shared(WeightStore::new(topo, 1, 7));
        let mut m = ActModule::new(cfg, 100, store);
        m.on_thread_start(0);
        m.tick(1);
        // Same cycle: first enters service, second queues, third must stall.
        assert!(m.offer_load(&load_event(5, Some(dep(1, 5)), 1)));
        assert!(m.offer_load(&load_event(6, Some(dep(2, 6)), 1)));
        assert!(!m.offer_load(&load_event(7, Some(dep(3, 7)), 1)));
        // After enough cycles the FIFO drains and the load is accepted.
        m.tick(100);
        assert!(m.offer_load(&load_event(7, Some(dep(3, 7)), 100)));
    }

    #[test]
    fn invalid_predictions_land_in_debug_buffer() {
        // Train a network to accept one pattern, then feed a wildly
        // different one; at least some should be flagged invalid.
        let n = 2;
        let topo = Topology::new(crate::encoding::FEATURES_PER_DEP * n, 4);
        let mut ws = WeightStore::new(topo, n, 7);
        // Train offline on "valid" examples around low PCs.
        let enc = Encoder::new(100);
        let mut net = Network::random(topo, 0.5, 3);
        let valid_seq = [dep(1, 5), dep(2, 6)];
        let invalid_seq = [dep(90, 40), dep(80, 30)];
        let xv = enc.encode_seq(&valid_seq);
        let xi = enc.encode_seq(&invalid_seq);
        for _ in 0..2000 {
            net.train(&xv, 1.0);
            net.train(&xi, 0.0);
        }
        ws.store_weights(0, net.weights_flat());
        let store = shared(ws);
        let mut m = ActModule::new(test_cfg(), 100, store);
        m.on_thread_start(0);
        m.tick(1);
        // Feed: valid prefix, then the invalid tail.
        let _ = m.offer_load(&load_event(5, Some(dep(1, 5)), 1));
        m.tick(50);
        let _ = m.offer_load(&load_event(6, Some(dep(2, 6)), 50));
        m.tick(100);
        let _ = m.offer_load(&load_event(30, Some(dep(80, 30)), 100));
        // The last sequence (2->6, 80->30) was never trained valid; the
        // second sequence (1->5, 2->6) was.
        assert!(m.stats().predictions >= 2);
        assert!(m.debug_buffer().len() <= m.stats().invalids as usize);
    }
}
