//! The model cache: trained `(workload, topology, seed)` models kept hot in
//! an LRU map and, when the daemon runs with `--corpus`, persisted in the
//! [`act_store::Corpus`] so repeat clients — and daemon restarts — skip
//! retraining.
//!
//! A *model* is everything `DIAGNOSE` needs: the per-thread
//! [`WeightStore`] (the paper's binary-patched weights), the Correct Set
//! the ranked suspects are pruned against, and the code-length the encoder
//! normalizes by. Lookup order is memory → corpus store → train; only the
//! last is a cache miss. A trained model persists as two store blobs keyed
//! by `ModelKey::canonical()` (the weights text and the Correct Set), and
//! `TRAIN` prefers the corpus's ingested correct-run traces over fresh
//! simulator runs when the workload has at least two of them.

use crate::proto::ModelSpec;
use act_core::offline::offline_train;
use act_core::weights::WeightStore;
use act_core::{ActConfig, ActError};
use act_obs::MetricsSnapshot;
use act_sim::events::RawDep;
use act_store::{Corpus, EntryKind};
use act_trace::collector::TraceCollector;
use act_trace::correct_set::CorrectSet;
use act_trace::event::Trace;
use act_workloads::registry;
use act_workloads::run::{correct_runs, norm_of};
use act_workloads::spec::Workload;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Cache key: the shared workload × topology × seed identity from
/// `act-fleet` — `seq_len` and `hidden` pin the topology
/// (`inputs = FEATURES_PER_DEP * seq_len`). Its
/// [`canonical`](ModelKey::canonical) string form is the stable key of
/// the model's corpus blobs (workload names are `[a-z0-9_]`, so no
/// escaping is needed; `__`-reserved names never reach the cache).
pub use act_fleet::ModelKey;

impl From<&ModelSpec> for ModelKey {
    /// The key a request spec names (zero topology axes resolve to 1).
    fn from(spec: &ModelSpec) -> ModelKey {
        ModelKey::new(&spec.workload, spec.seq_len as usize, spec.hidden as usize, spec.seed)
    }
}

/// A trained, servable model.
#[derive(Debug)]
pub struct Model {
    /// Per-thread weights (the paper's binary patching, server-side).
    pub store: WeightStore,
    /// Sequences observed in correct runs, for pruning and ranking.
    pub correct: CorrectSet,
    /// Code length the encoder normalizes by (must match training).
    pub norm_code_len: usize,
    /// One-line training summary for `TRAIN` replies.
    pub summary: String,
}

/// Where a served model came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Already resident in memory.
    Memory,
    /// Loaded from the corpus store (no retraining).
    Store,
    /// Trained from scratch (the only outcome counted as a miss).
    Trained,
}

impl CacheOutcome {
    /// Every outcome, in declaration order (`outcome as usize` indexes it).
    pub(crate) const ALL: [CacheOutcome; 3] =
        [CacheOutcome::Memory, CacheOutcome::Store, CacheOutcome::Trained];

    /// The `STATUS` counter that counts this outcome.
    pub(crate) fn counter(self) -> &'static str {
        match self {
            CacheOutcome::Memory => "cache_memory_hits",
            CacheOutcome::Store => "cache_store_loads",
            CacheOutcome::Trained => "cache_trained",
        }
    }
}

/// `(hits, misses)` summed from the cache outcome counters in `snap`
/// (`cache_memory_hits`, `cache_store_loads`, `cache_trained`): a model
/// trained from scratch is a miss, every other outcome a hit. The
/// daemon's `STATUS` text, the gateway's fleet rollup and `act request
/// status` all count this way.
pub fn cache_hits_misses(snap: &MetricsSnapshot) -> (u64, u64) {
    CacheOutcome::ALL.iter().fold((0, 0), |(hits, misses), &outcome| {
        let n = snap.counter(outcome.counter()).unwrap_or(0);
        match outcome {
            CacheOutcome::Trained => (hits, misses + n),
            _ => (hits + n, misses),
        }
    })
}

struct Slot {
    model: Arc<Model>,
    /// Relaxed-atomic LRU stamp: hits bump it under the *read* lock, so
    /// the hot path never takes an exclusive lock (see [`ModelCache`]).
    last_used: AtomicU64,
}

/// LRU cache over trained models, optionally backed by a corpus store.
///
/// The hit path is contention-free: lookups take the map's `RwLock` in
/// *read* mode (shared — concurrent workers never serialize on hits) and
/// record recency by storing a relaxed-atomic tick into the slot. Only
/// misses — an insert after store/training resolution — take the
/// write lock. Under concurrency the LRU ordering is approximate (two
/// simultaneous hits may stamp ticks out of order), which changes nothing
/// observable: eviction picks *a* least-recently-used victim, and the
/// stamps of concurrently-touched entries differ by at most the number of
/// in-flight readers.
pub struct ModelCache {
    map: RwLock<HashMap<ModelKey, Slot>>,
    tick: AtomicU64,
    capacity: usize,
    corpus: Option<Arc<Mutex<Corpus>>>,
}

impl ModelCache {
    /// An empty cache holding at most `capacity` models in memory. With a
    /// `corpus`, models persist there as store blobs (across evictions and
    /// restarts) and training prefers the corpus's ingested traces.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, corpus: Option<Arc<Mutex<Corpus>>>) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        ModelCache { map: RwLock::new(HashMap::new()), tick: AtomicU64::new(0), capacity, corpus }
    }

    /// The corpus store backing this cache, when the daemon has one.
    pub fn corpus(&self) -> Option<&Arc<Mutex<Corpus>>> {
        self.corpus.as_ref()
    }

    /// Models currently resident in memory.
    pub fn resident(&self) -> usize {
        self.map.read().expect("cache lock").len()
    }

    /// Fetch the model for `spec`, training it on a miss. The lock is *not*
    /// held across training (which takes seconds) — concurrent first
    /// requests for the same key may train redundantly, but no request ever
    /// blocks behind another key's training.
    ///
    /// # Errors
    ///
    /// Returns [`ActError::UnknownWorkload`] for an unregistered workload
    /// and [`ActError::Train`] when training fails.
    pub fn get_or_train(&self, spec: &ModelSpec) -> Result<(Arc<Model>, CacheOutcome), ActError> {
        let key = ModelKey::from(spec);
        if let Some(model) = self.lookup(&key) {
            return Ok((model, CacheOutcome::Memory));
        }
        let (model, outcome) = match self.load_from_store(&key) {
            Some(model) => (model, CacheOutcome::Store),
            None => {
                let model = self.train(spec)?;
                self.save_to_store(&key, &model);
                (model, CacheOutcome::Trained)
            }
        };
        let model = Arc::new(model);
        self.insert(key, model.clone());
        Ok((model, outcome))
    }

    /// Train from the corpus's ingested correct-run traces when the
    /// workload has at least two; otherwise collect fresh simulator runs.
    fn train(&self, spec: &ModelSpec) -> Result<Model, ActError> {
        if let Some(corpus) = &self.corpus {
            let traces: Vec<Trace> =
                corpus.lock().expect("corpus lock").traces(&spec.workload).collect();
            if traces.len() >= 2 {
                return train_model_from_traces(spec, traces);
            }
        }
        train_model(spec)
    }

    fn lookup(&self, key: &ModelKey) -> Option<Arc<Model>> {
        let map = self.map.read().expect("cache lock");
        let slot = map.get(key)?;
        slot.last_used.store(self.tick.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
        Some(slot.model.clone())
    }

    fn insert(&self, key: ModelKey, model: Arc<Model>) {
        let mut map = self.map.write().expect("cache lock");
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        map.insert(key, Slot { model, last_used: AtomicU64::new(tick) });
        while map.len() > self.capacity {
            let evict = map
                .iter()
                .min_by_key(|(_, s)| s.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone())
                .expect("nonempty map");
            map.remove(&evict);
        }
    }

    fn load_from_store(&self, key: &ModelKey) -> Option<Model> {
        let corpus = self.corpus.as_ref()?;
        let (weights, cset) = {
            let c = corpus.lock().expect("corpus lock");
            (
                c.get_blob(EntryKind::Model, &key.canonical()).ok()?,
                c.get_blob(EntryKind::CorrectSet, &key.canonical()).ok()?,
            )
        };
        let store = WeightStore::load(&weights[..]).ok()?;
        // The store must actually match the key (a stale blob with the
        // wrong topology would poison every diagnosis).
        if store.seq_len() != key.seq_len || store.topology().hidden != key.hidden {
            return None;
        }
        let (norm_code_len, correct) = parse_cset_blob(&cset)?;
        let summary = format!(
            "model {} loaded from corpus store ({} threads, {} correct sequences)",
            key.canonical(),
            store.known_threads().len(),
            correct.len()
        );
        Some(Model { store, correct, norm_code_len, summary })
    }

    fn save_to_store(&self, key: &ModelKey, model: &Model) {
        let Some(corpus) = &self.corpus else {
            return;
        };
        let mut weights = Vec::new();
        if model.store.save(&mut weights).is_err() {
            return;
        }
        let cset = cset_blob(model);
        // Persistence is best-effort: a full disk degrades the daemon to
        // in-memory caching, it does not fail requests.
        let mut c = corpus.lock().expect("corpus lock");
        let _ = c.put_blob(EntryKind::Model, &key.canonical(), &key.workload, &weights);
        let _ = c.put_blob(EntryKind::CorrectSet, &key.canonical(), &key.workload, &cset);
    }
}

// ---------------------------------------------------------------------
// Training (server-side): clean traces -> offline training -> Correct Set.
// ---------------------------------------------------------------------

/// The traces of up to `want` correct runs of `w`'s clean configuration,
/// from seed `first` on, trying at most `2 * want` seeds.
fn clean_traces(w: &dyn Workload, first: u64, want: usize, norm: usize) -> Vec<Trace> {
    let seeds = (0..want as u64 * 2).map(|i| first.wrapping_add(i));
    correct_runs(w, w.default_params(), seeds, |_| TraceCollector::new(norm))
        .take(want)
        .map(|run| run.observer.into_trace())
        .collect()
}

/// Train the model a spec names: collect clean traces, run offline
/// training with the spec's pinned topology, and build the Correct Set
/// from ~20 fresh correct executions (disjoint seeds — the paper's
/// methodology; the failure itself is never reproduced).
///
/// # Errors
///
/// Returns [`ActError::UnknownWorkload`] for an unregistered workload and
/// [`ActError::Train`] when no correct training runs can be collected.
pub fn train_model(spec: &ModelSpec) -> Result<Model, ActError> {
    let w = registry::by_name(&spec.workload)
        .ok_or_else(|| ActError::UnknownWorkload(spec.workload.clone()))?;
    let norm = norm_of(w.as_ref());
    let want = (spec.traces.max(2)) as usize;
    let traces = clean_traces(w.as_ref(), spec.seed, want, norm);
    if traces.is_empty() {
        return Err(ActError::Train {
            workload: spec.workload.clone(),
            reason: "no correct training runs".into(),
        });
    }
    // Correct Set from fresh correct runs at disjoint seeds.
    let correct_traces = clean_traces(w.as_ref(), spec.seed.wrapping_add(100), 20, norm);
    finish_training(spec, norm, &traces, &correct_traces, "")
}

/// Train from a corpus's ingested correct-run traces — no simulator runs,
/// no registry lookup, so the daemon can serve workloads it only knows
/// through `TRACE_PUT`. The Correct Set is built from the same traces.
///
/// # Errors
///
/// Returns [`ActError::Train`] when fewer than two traces are supplied.
pub fn train_model_from_traces(spec: &ModelSpec, traces: Vec<Trace>) -> Result<Model, ActError> {
    if traces.len() < 2 {
        return Err(ActError::Train {
            workload: spec.workload.clone(),
            reason: format!("corpus holds {} trace(s); need at least 2", traces.len()),
        });
    }
    // Ingested traces carry the code length they were collected under.
    let norm = traces.iter().map(|t| t.code_len).max().unwrap_or(1).max(1);
    finish_training(spec, norm, &traces, &traces, " from corpus")
}

/// The shared back half of training: offline training with the shared
/// recipe at the spec's pinned topology, then the Correct Set from
/// `correct_traces`.
fn finish_training(
    spec: &ModelSpec,
    norm: usize,
    traces: &[Trace],
    correct_traces: &[Trace],
    source: &str,
) -> Result<Model, ActError> {
    let mut cfg = ActConfig::recipe(
        spec.seq_len as usize,
        spec.hidden as usize,
        spec.max_epochs as usize,
        spec.seed,
    );
    cfg.norm_code_len = norm;
    let trained = offline_train(norm, traces, &cfg);
    let correct = CorrectSet::from_traces(correct_traces, trained.store.seq_len());

    let r = &trained.report;
    let summary = format!(
        "trained {}{}: topology {} (N = {}), {} traces, held-out FP {:.2}%, {} correct sequences",
        spec.workload,
        source,
        r.topology,
        r.seq_len,
        r.train_traces + r.test_traces,
        100.0 * r.test_fp_rate,
        correct.len()
    );
    Ok(Model { store: trained.store, correct, norm_code_len: norm, summary })
}

// ---------------------------------------------------------------------
// Correct Set persistence (one sequence per line).
// ---------------------------------------------------------------------

/// The corpus-store Correct Set blob: a `norm <code-len>` line (the one
/// model field the Correct Set does not carry), an `actcset v1 <seq_len>`
/// header, then one sequence per line as `store_pc load_pc inter` triples.
fn cset_blob(model: &Model) -> Vec<u8> {
    use std::fmt::Write as _;
    let set = &model.correct;
    let mut buf = format!("norm {}\nactcset v1 {}\n", model.norm_code_len, set.seq_len());
    for seq in set.sequences() {
        let mut first = true;
        for d in seq {
            if !first {
                buf.push(' ');
            }
            first = false;
            let _ = write!(buf, "{} {} {}", d.store_pc, d.load_pc, u8::from(d.inter_thread));
        }
        buf.push('\n');
    }
    buf.into_bytes()
}

/// Read a [`cset_blob`] back: `(norm_code_len, Correct Set)`, or `None`
/// for a malformed blob.
fn parse_cset_blob(bytes: &[u8]) -> Option<(usize, CorrectSet)> {
    let mut lines = std::str::from_utf8(bytes).ok()?.lines();
    let norm: usize = lines.next()?.strip_prefix("norm ")?.trim().parse().ok()?;
    let mut h = lines.next()?.split_whitespace();
    if h.next() != Some("actcset") || h.next() != Some("v1") {
        return None;
    }
    let n: usize = h.next()?.parse().ok()?;
    let mut set = CorrectSet::default();
    for line in lines.filter(|l| !l.is_empty()) {
        let nums: Vec<u64> =
            line.split_whitespace().map(str::parse).collect::<Result<_, _>>().ok()?;
        if n > 0 && nums.len() != 3 * n {
            return None;
        }
        let deps: Vec<RawDep> = nums
            .chunks(3)
            .map(|c| RawDep {
                store_pc: c[0] as u32,
                load_pc: c[1] as u32,
                inter_thread: c[2] != 0,
            })
            .collect();
        set.insert(&deps);
    }
    Some((norm, set))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dep(s: u32, l: u32) -> RawDep {
        RawDep { store_pc: s, load_pc: l, inter_thread: s.is_multiple_of(2) }
    }

    /// A model around `correct` with a placeholder network.
    fn model(correct: CorrectSet, summary: &str) -> Model {
        Model {
            store: WeightStore::new(act_nn::network::Topology::new(2, 2), 1, 1),
            correct,
            norm_code_len: 10,
            summary: summary.to_string(),
        }
    }

    #[test]
    fn correct_set_blob_round_trips() {
        let mut set = CorrectSet::default();
        set.insert(&[dep(1, 10), dep(2, 20)]);
        set.insert(&[dep(3, 30), dep(4, 40)]);
        let (norm, back) = parse_cset_blob(&cset_blob(&model(set, ""))).unwrap();
        assert_eq!(norm, 10);
        assert_eq!(back.len(), 2);
        assert_eq!(back.seq_len(), 2);
        assert!(back.contains(&[dep(1, 10), dep(2, 20)]));
        assert!(back.contains(&[dep(3, 30), dep(4, 40)]));
        assert_eq!(back.matched_prefix(&[dep(1, 10), dep(9, 9)]), 1);
    }

    #[test]
    fn parse_cset_blob_rejects_garbage() {
        assert!(parse_cset_blob(b"nope\n").is_none());
        assert!(parse_cset_blob(b"norm x\nactcset v1 2\n").is_none(), "bad norm rejected");
        assert!(parse_cset_blob(b"norm 5\nnope\n").is_none(), "bad header rejected");
        let wrong_count = b"norm 5\nactcset v1 2\n1 2\n";
        assert!(parse_cset_blob(wrong_count).is_none(), "wrong field count rejected");
        let non_numeric = b"norm 5\nactcset v1 2\n1 2 x 3 4 0\n";
        assert!(parse_cset_blob(non_numeric).is_none(), "non-numeric field rejected");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ModelCache::new(2, None);
        let named = |name: &str| Arc::new(model(CorrectSet::default(), name));
        let key =
            |name: &str| ModelKey { workload: name.to_string(), seq_len: 1, hidden: 2, seed: 0 };
        cache.insert(key("a"), named("a"));
        cache.insert(key("b"), named("b"));
        // Touch "a" so "b" is the LRU victim.
        assert!(cache.lookup(&key("a")).is_some());
        cache.insert(key("c"), named("c"));
        assert_eq!(cache.resident(), 2);
        assert!(cache.lookup(&key("a")).is_some(), "recently used survives");
        assert!(cache.lookup(&key("b")).is_none(), "LRU evicted");
        assert!(cache.lookup(&key("c")).is_some());
    }

    #[test]
    fn unknown_workload_is_an_error_not_a_panic() {
        let cache = ModelCache::new(2, None);
        let err = cache.get_or_train(&ModelSpec::new("no-such-workload")).unwrap_err();
        assert!(matches!(err, ActError::UnknownWorkload(_)));
        assert!(err.to_string().contains("unknown workload"));
    }
}
